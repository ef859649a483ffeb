#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a base ref — the
# table every performance PR reports (DESIGN.md "Cycles follow traffic",
# CHANGES.md), produced by one command instead of by hand:
#
#   scripts/bench_pairs.sh <base-ref> <workload> [pairs=10]
#   make pairs BASE=<ref> W=<workload> [N=10]
#
# It clones <base-ref> into a temp dir, builds the bench harness of both
# sides once, and runs N pairs of the public driver contract
#   bench --workload W --seed i --seconds 22 --trace 0        (i = 1..N)
# alternating which side goes first (this host drifts over minutes; a fixed
# order would hand one side the quieter half of every pair). After each pair
# one extra repetition per side compares the simulated outcome: the digest
# and the exact metrics of the two sides must be equal byte for byte.
#
# Exit 1 when a run reports correct=false or failed>0, or when an outcome
# differs. The verdicts are printed, not enforced: per end-to-end metric of
# BENCHMARK.json, each side's median [q1, q3], the pairs won, and
#   gain        head wins >= 9/10 of the pairs and the medians differ, in the
#               better direction, by more than the base's own q3-q1;
#   worse       head's median is worse than the base's by more than the
#               metric's bound;
#   unresolved  neither, and the run-to-run spread (q3-q1 over the median,
#               the larger side) exceeds the bound, so "inside the bound"
#               cannot be told — unless every head run beats every base run;
#   inside      neither, and the spread is inside the bound.
# Plain bash, go, awk and sed; nothing is downloaded and bench/ is not touched.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <base-ref> <workload> [pairs=10]" >&2
	exit 2
fi
BASE=$1
W=$2
N=${3:-10}
SECONDS_PER_RUN=22

cd "$(dirname "$0")/.."
ROOT=$PWD
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

git clone -q "$ROOT" "$DIR/base"
git -C "$DIR/base" checkout -q --detach "$BASE"
go build -C "$DIR/base/bench" -o "$DIR/bench_base" .
go build -C "$ROOT/bench" -o "$DIR/bench_head" .
echo "base $(git -C "$DIR/base" rev-parse --short HEAD)  head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted')  workload $W  pairs $N"
echo "host $(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo '?'), $(nproc) CPUs, $(go version | awk '{print $3}')"

# side_dir <side>: the bench/ directory a side's binary runs from (the set
# run reads ../golden_metrics.json; the driver contract is run from bench/).
side_dir() { if [ "$1" = base ]; then echo "$DIR/base/bench"; else echo "$ROOT/bench"; fi; }

# field <json-line> <metric>: the value of an end-to-end metric.
field() { sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" <<<"$1"; }

run_side() { # <side> <seed>  → appends "<seed> <side> <json>" to results
	local side=$1 seed=$2 line
	line=$(cd "$(side_dir "$side")" && "$DIR/bench_$side" --workload "$W" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 2>"$DIR/log_${side}_$seed" | tail -n 1) || true
	if ! grep -q '"correct":true' <<<"$line" || ! grep -q '"failed":0,' <<<"$line"; then
		echo "FAILED: $side seed $seed: ${line:-no result line}" >&2
		grep 'CHECK FAILED' "$DIR/log_${side}_$seed" >&2 || true
		exit 1
	fi
	echo "$seed $side $line" >>"$DIR/results"
}

outcome() { # <side> <seed>  → the digest and exact metrics of one repetition
	(cd "$(side_dir "$1")" && "$DIR/bench_$1" -child -workload "$W" -seed "$2" 2>/dev/null) |
		sed -n 's/.*\("digest":{[^}]*}\),"exact":\({[^}]*}\).*/\1 \2/p'
}

# One "name better bound" line per end-to-end metric of BENCHMARK.json.
TABLE=$(awk '
	/"end_to_end"/ {on=1} /"per_layer"/ {on=0}
	on && /"name"|"better"|"bound"/ {gsub(/[",]/, ""); v[$1] = $2}
	on && /bound/ {print v["name:"], v["better:"], v["bound:"]}' BENCHMARK.json)
METRICS=$(awk '{print $1}' <<<"$TABLE")

for i in $(seq 1 "$N"); do
	if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
	for side in $order; do run_side "$side" "$i"; done
	ob=$(outcome base "$i")
	oh=$(outcome head "$i")
	if [ -z "$ob" ] || [ "$ob" != "$oh" ]; then
		printf 'OUTCOME DIFFERS on seed %s:\n  base %s\n  head %s\n' "$i" "$ob" "$oh" >&2
		exit 1
	fi
	printf 'pair %2d (%s first)' "$i" "${order%% *}"
	for m in $METRICS; do
		b=$(field "$(awk -v s="$i" '$1==s && $2=="base" {print $3}' "$DIR/results")" "$m")
		h=$(field "$(awk -v s="$i" '$1==s && $2=="head" {print $3}' "$DIR/results")" "$m")
		printf '  %s %.4g→%.4g' "$m" "$b" "$h"
	done
	printf '  outcome equal (%s)\n' "$(sed -n 's/.*"events":\([0-9]*\).*/events \1/p' <<<"$oh")"
done

echo
printf '%-13s %-28s %-28s %8s %6s  %s\n' metric "base median [q1, q3]" "head median [q1, q3]" "delta" wins verdict
while read -r m better bound; do
	awk -v m="$m" -v better="$better" -v bound="$bound" '
		function val(line,   s) {
			s = line; sub(".*\"" m "\":{\"value\":", "", s); sub("[,}].*", "", s); return s + 0
		}
		function quant(a, n, q,   pos, lo, f) { # linear interpolation between order statistics
			pos = (n - 1) * q; lo = int(pos); f = pos - lo
			return lo + 1 < n ? a[lo + 1] * (1 - f) + a[lo + 2] * f : a[n]
		}
		function sorted(src, dst, n,   i, j, t) {
			for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
		}
		$2 == "base" { b[$1] = val($3) }
		$2 == "head" { h[$1] = val($3) }
		END {
			sign = better == "lower" ? 1 : -1 # > 0: smaller is better
			n = 0; wins = 0; clean = 1
			for (s in b) { n++; bs[n] = b[s]; hs[n] = h[s]; if (sign * (b[s] - h[s]) > 0) wins++ }
			sorted(bs, B, n); sorted(hs, H, n)
			bm = quant(B, n, 0.5); b1 = quant(B, n, 0.25); b3 = quant(B, n, 0.75)
			hm = quant(H, n, 0.5); h1 = quant(H, n, 0.25); h3 = quant(H, n, 0.75)
			# every head run better than every base run?
			if (sign > 0) { if (H[n] >= B[1]) clean = 0 } else { if (H[1] <= B[n]) clean = 0 }
			gain = sign * (bm - hm)              # > 0: head is better
			rel = bm != 0 ? (hm - bm) / bm : 0
			spread = (b3 - b1) / (bm ? bm : 1); if (hm && (h3 - h1) / hm > spread) spread = (h3 - h1) / hm
			if (wins >= 0.9 * n && gain > b3 - b1) verdict = "gain"
			else if (-gain / (bm ? bm : 1) > bound) verdict = sprintf("WORSE beyond the %.0f %% bound", bound * 100)
			else if (spread > bound && !clean) verdict = sprintf("unresolved (spread %.1f %% > bound %.0f %%)", spread * 100, bound * 100)
			else verdict = "inside the bound"
			printf "%-13s %-28s %-28s %+7.1f%% %3d/%-2d  %s\n", m,
				sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), sprintf("%.4g [%.4g, %.4g]", hm, h1, h3),
				rel * 100, wins, n, verdict
		}' "$DIR/results"
done <<<"$TABLE"
