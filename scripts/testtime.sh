#!/usr/bin/env bash
# Where tier-1's wall time goes, and whether a change moved it — the fourth
# claim-command beside bench_pairs.sh (speed), size.sh (size) and
# identical.sh (behaviour):
#
#   [ROUNDS=3] scripts/testtime.sh [base-ref]
#   make testtime [BASE=<ref>] [ROUNDS=3]
#
# It runs the tier-1 suite uncached, `go test -count=1 -json ./...`, on the
# working tree and — with a base ref — on `git archive <base-ref>` unpacked
# into a temp dir (no worktree is registered, nothing is left behind), the
# two sides alternating for the given number of rounds (this host drifts over
# minutes; a fixed order would hand one side the quieter half). Printed: the
# host descriptor; per round and side the suite's wall time; per package its
# wall time in every round and, with a base, head/base per round; and the 15
# slowest tests of each side in its last round (a parallel test's time
# includes waiting for a fixture another test is building). A failing suite is reported
# and fails the script, but the table is still printed. Plain bash, git, go
# and awk; nothing is downloaded and bench/ is not read.
set -euo pipefail

if [ $# -gt 1 ]; then
	echo "usage: [ROUNDS=3] $0 [base-ref]" >&2
	exit 2
fi
BASE=${1:-}
ROUNDS=${ROUNDS:-3}

cd "$(dirname "$0")/.."
ROOT=$PWD
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

SIDES=(head)
if [ -n "$BASE" ]; then
	mkdir "$DIR/base"
	git archive "$BASE" | tar -x -C "$DIR/base"
	SIDES=(base head)
	echo "base $(git rev-parse --short "$BASE")  head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted')  rounds $ROUNDS"
fi
echo "host $(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo '?'), $(nproc) CPUs, GOMAXPROCS ${GOMAXPROCS:-$(nproc)}, $(go version | awk '{print $3}')"

# Compile outside the clock: the rounds time tests, not the build cache.
for side in "${SIDES[@]}"; do
	src=$ROOT
	[ "$side" = base ] && src=$DIR/base
	(cd "$src" && go test -count=1 -run '^$' ./... >/dev/null)
done

failed=0
suite() { # <side> <round>  → $DIR/<side>.<round>.json, prints the suite's wall
	local src=$ROOT t0 t1
	[ "$1" = base ] && src=$DIR/base
	t0=$(date +%s.%N)
	(cd "$src" && go test -count=1 -json ./...) >"$DIR/$1.$2.json" || {
		failed=1
		echo "FAIL  $1 round $2: go test ./... failed" >&2
	}
	t1=$(date +%s.%N)
	printf 'round %d  %-4s  go test ./...  %6.1f s\n' "$2" "$1" "$(awk "BEGIN {print $t1 - $t0}")"
}

for round in $(seq 1 "$ROUNDS"); do
	order=("${SIDES[@]}")
	if [ $((round % 2)) -eq 0 ] && [ ${#SIDES[@]} -eq 2 ]; then order=(head base); fi
	for side in "${order[@]}"; do suite "$side" "$round"; done
done

# One line per finished package or test: "<side> <round> pkg|test <name> <seconds>".
for f in "$DIR"/*.json; do
	name=$(basename "$f" .json)
	awk -v side="${name%%.*}" -v round="${name##*.}" '
		/"Action":"(pass|fail)"/ && match($0, /"Elapsed":[0-9.e+-]+/) {
			el = substr($0, RSTART + 10, RLENGTH - 10)
			pkg = $0; sub(/.*"Package":"/, "", pkg); sub(/".*/, "", pkg)
			if ($0 ~ /"Test":"/) {
				test = $0; sub(/.*"Test":"/, "", test); sub(/".*/, "", test)
				if (test !~ /\//) print side, round, "test", pkg ":" test, el
			} else print side, round, "pkg", pkg, el
		}' "$f"
done >"$DIR/times"

awk -v rounds="$ROUNDS" -v withbase="${BASE:+1}" '
	$3 == "pkg" { t[$1, $2, $4] = $5; pkgs[$4] = 1 }
	END {
		printf "\n%-36s", "package wall (s)"
		if (withbase) for (r = 1; r <= rounds; r++) printf "  base.%d", r
		for (r = 1; r <= rounds; r++) printf "  head.%d", r
		if (withbase) for (r = 1; r <= rounds; r++) printf "  ratio.%d", r
		print ""
		n = 0; for (p in pkgs) names[++n] = p
		for (i = 2; i <= n; i++) { v = names[i]; for (j = i - 1; j >= 1 && names[j] > v; j--) names[j + 1] = names[j]; names[j + 1] = v }
		for (i = 1; i <= n; i++) {
			p = names[i]; big = 0
			for (r = 1; r <= rounds; r++) if (t["head", r, p] >= 0.5 || t["base", r, p] >= 0.5) big = 1
			if (!big) { small++; continue }
			printf "%-36s", p
			if (withbase) for (r = 1; r <= rounds; r++) printf "  %6.1f", t["base", r, p]
			for (r = 1; r <= rounds; r++) printf "  %6.1f", t["head", r, p]
			if (withbase) for (r = 1; r <= rounds; r++) printf "  %7s", (t["base", r, p] > 0 ? sprintf("%.2f", t["head", r, p] / t["base", r, p]) : "-")
			print ""
		}
		printf "(%d packages under 0.5 s in every round not shown)\n", small
	}' "$DIR/times"

for side in "${SIDES[@]}"; do
	printf '\n15 slowest tests, %s, round %d\n' "$side" "$ROUNDS"
	awk -v side="$side" -v round="$ROUNDS" '$1 == side && $2 == round && $3 == "test" { printf "%8.2f s  %s\n", $5, $4 }' "$DIR/times" |
		sort -rn | sed -n 1,15p
done
exit $failed
