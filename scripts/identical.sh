#!/usr/bin/env bash
# Is the working tree's evaluation byte-identical to a base ref's? — the
# behavioural twin of size.sh and bench_pairs.sh, for refactors that promise
# "same output, less code":
#
#   scripts/identical.sh <base-ref>
#   make identical BASE=<ref>
#
# It builds ufabsim from `git archive <base-ref>` unpacked into a temp dir
# (no worktree is registered, nothing is left behind) and from the tree, and
# runs on both, with 0 and with 4 workers executing the pod shards:
#   -quick -telemetry -metrics … -csv … run all   report text (wall-time
#                                                  lines stripped), registry
#                                                  snapshots, every CSV curve
#   -quick -findings … audit all                   verdict lines (the timing
#                                                  line stripped), findings
#   -quick trace chaoslab | placechurn | fig12 |   JSONL stdout and the
#                shardsim | reconcile              report + histogram stderr
#   -quick trace -format perfetto chaoslab |       Chrome trace-event JSON
#                                 shardsim
# (shardsim deploys two logical shards, so its traces are the merge of the
# per-shard rings; the others record into one ring; placechurn and reconcile
# are the runs where tenants leave the fabric, through the control plane)
# then compares every artefact of the two sides with cmp, and the head's
# 0-worker artefacts with its 4-worker ones. One line per artefact; where a
# metrics.json differs, one more line per differing metric (experiment,
# name, base value, head value). Every artefact is compared; the exit status
# is 1 if any differed (the artefacts are then kept and named). Plain bash,
# git, go, cmp and awk, about 90 s; nothing is downloaded and bench/ is not
# read.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 <base-ref>" >&2
	exit 2
fi
BASE=$1

cd "$(dirname "$0")/.."
ROOT=$PWD
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

mkdir "$DIR/src"
git archive "$BASE" | tar -x -C "$DIR/src"
go build -C "$DIR/src" -o "$DIR/ufabsim_base" ./cmd/ufabsim
go build -C "$ROOT" -o "$DIR/ufabsim_head" ./cmd/ufabsim
echo "base $(git rev-parse --short "$BASE")  head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted')"

# produce <side> <workers>: every artefact of one side at one worker count,
# under $DIR/<side>.<workers>/ with the same relative names on both sides
# (the report text quotes the export paths it was given).
produce() {
	local bin=$DIR/ufabsim_$1 out=$DIR/$1.$2
	mkdir "$out"
	(
		cd "$out"
		"$bin" -quick -jobs 2 -shards "$2" -telemetry -metrics metrics.json -csv csv run all 2>run.stderr |
			grep -v -- '-- wall time' >run.stdout
		"$bin" -quick -jobs 2 -shards "$2" -findings findings.jsonl audit all 2>audit.stderr |
			grep -v '^audit ok: ' >audit.stdout
		for id in chaoslab placechurn fig12 shardsim reconcile; do
			"$bin" -quick -shards "$2" trace "$id" >"trace_$id.jsonl" 2>"trace_$id.stderr"
		done
		for id in chaoslab shardsim; do
			"$bin" -quick -shards "$2" trace -format perfetto "$id" >"trace_$id.perfetto.json" 2>/dev/null
		done
	)
}

# metricdiff <a> <b>: every metric whose record differs between two
# metrics.json files (one record per line, under a line opening its
# experiment), as experiment, name, a's value and b's value.
metricdiff() {
	awk '
		function note(k) { if (!(k in seen)) { seen[k]; keys[++n] = k } }
		/^"[^"]+": \{/ { split($0, q, "\""); ex = q[2]; next }
		/"name": "/ {
			split($0, q, "\""); k = ex " " q[4]; note(k)
			v = $0; sub(/^[^,]*, /, "", v); sub(/\},?[ \t]*$/, "", v); sub(/^"value": /, "", v)
			if (FNR == NR) a[k] = v; else b[k] = v
		}
		END {
			for (i = 1; i <= n; i++) {
				k = keys[i]
				va = (k in a) ? a[k] : "(absent)"; vb = (k in b) ? b[k] : "(absent)"
				if (va != vb) printf "           metric %s: base %s, head %s\n", k, va, vb
			}
		}' "$1" "$2" >&2
}

# same <dir-a> <dir-b> <label>: cmp every file of a against b, both ways;
# returns 1 if any differed, after comparing them all.
same() {
	local f rel rc=0
	if ! diff <(cd "$1" && find . -type f | sort) <(cd "$2" && find . -type f | sort) >/dev/null; then
		echo "DIFFERENT  $3: the two sides produced different sets of files" >&2
		rc=1
	fi
	while read -r rel; do
		f=${rel#./}
		if [ -f "$2/$f" ] && cmp -s "$1/$f" "$2/$f"; then
			printf 'identical  %-22s %-32s %9d bytes\n' "$3" "$f" "$(wc -c <"$1/$f")"
		else
			echo "DIFFERENT  $3  $f: cmp $1/$f $2/$f" >&2
			if [ "${f##*/}" = metrics.json ] && [ -f "$2/$f" ]; then
				metricdiff "$1/$f" "$2/$f"
			fi
			rc=1
		fi
	done < <(cd "$1" && find . -type f | sort)
	return $rc
}

status=0
for workers in 0 4; do
	produce base $workers
	produce head $workers
	same "$DIR/base.$workers" "$DIR/head.$workers" "base=head shards=$workers" || status=1
done
same "$DIR/head.0" "$DIR/head.4" "head shards 0=4" || status=1
if [ $status -ne 0 ]; then
	trap - EXIT
	echo "DIFFERENT: see the lines above; the artefacts are kept under $DIR" >&2
	exit 1
fi
echo "identical: every artefact, base against head at 0 and 4 workers, and head at 0 against 4"
