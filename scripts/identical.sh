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
# 0-worker artefacts with its 4-worker ones. One line per artefact; exit 1 at
# the first difference (the differing files are kept and named). Plain bash,
# git, go and cmp, about 40 s; nothing is downloaded and bench/ is not read.
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

# same <dir-a> <dir-b> <label>: cmp every file of a against b, both ways.
same() {
	local f rel
	if ! diff <(cd "$1" && find . -type f | sort) <(cd "$2" && find . -type f | sort) >/dev/null; then
		echo "DIFFERENT  $3: the two sides produced different sets of files" >&2
		return 1
	fi
	while read -r rel; do
		f=${rel#./}
		if cmp -s "$1/$f" "$2/$f"; then
			printf 'identical  %-22s %-32s %9d bytes\n' "$3" "$f" "$(wc -c <"$1/$f")"
		else
			trap - EXIT
			echo "DIFFERENT  $3  $f: cmp $1/$f $2/$f" >&2
			return 1
		fi
	done < <(cd "$1" && find . -type f | sort)
}

for workers in 0 4; do
	produce base $workers
	produce head $workers
	same "$DIR/base.$workers" "$DIR/head.$workers" "base=head shards=$workers"
done
same "$DIR/head.0" "$DIR/head.4" "head shards 0=4"
echo "identical: every artefact, base against head at 0 and 4 workers, and head at 0 against 4"
