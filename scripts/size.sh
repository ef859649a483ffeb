#!/usr/bin/env bash
# The size of the code, in the units ROADMAP aim 2 scores a PR by — the
# simplicity twin of bench_pairs.sh:
#
#   scripts/size.sh [base-ref]
#   make size [BASE=<ref>]
#
# Per package directory under internal/ and cmd/, over its non-test Go files:
#   lines     non-blank, non-comment lines (the tree is gofmt-ed, so a line
#             is a comment when it starts with // or lies in a /* */ block);
#   exported  exported package-level identifiers (funcs, types, vars, consts)
#             plus exported methods on exported types — not struct fields or
#             interface methods;
#   panics    `panic(` call sites outside comments;
#   fields    exported fields of exported …Config / …Options structs — the
#             option count (TestConfigFieldCensus holds each to a writer).
# The total row sums the columns and counts the package directories.
# With a base ref the same counts are taken on `git archive <base-ref>`
# unpacked into a temp dir (no worktree is registered, nothing is left
# behind) and every column shows "head (delta)"; packages only one side has
# count as 0 on the other. Plain bash, git, awk and gofmt; nothing is
# downloaded and bench/ is not read.
set -euo pipefail

if [ $# -gt 1 ]; then
	echo "usage: $0 [base-ref]" >&2
	exit 2
fi
BASE=${1:-}

cd "$(dirname "$0")/.."
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# count <tree-root>  → "pkg lines exported panics fields" per package directory
count() {
	(
		cd "$1"
		find internal cmd -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
			gofmt "$f" | awk -v pkg="$(dirname "$f")" '
				function exportedNames(list,   n, i, parts, c) { # leading identifier list of a spec line
					sub(/[ \t]*=.*/, "", list)
					n = split(list, parts, /,[ \t]*/); c = 0
					for (i = 1; i <= n; i++) {
						sub(/[ \t].*/, "", parts[i]) # drop a trailing type
						if (parts[i] ~ /^[A-Z][A-Za-z0-9_]*$/) c++
					}
					return c
				}
				{
					line = $0
					if (inblock) {
						if (!match(line, /\*\//)) next
						line = substr(line, RSTART + 2); inblock = 0
					}
					while (match(line, /\/\*[^*]*\*\//)) line = substr(line, 1, RSTART - 1) substr(line, RSTART + RLENGTH)
					if (line !~ /"[^"]*\/\*/ && match(line, /\/\*/)) { line = substr(line, 1, RSTART - 1); inblock = 1 }
					code = line; sub(/^[ \t]+/, "", code)
					if (code == "" || code ~ /^\/\//) next
					lines++
					sub(/[ \t]\/\/.*/, "", line) # trailing comment
					tmp = line; panics += gsub(/(^|[^A-Za-z0-9_.])panic\(/, "", tmp)

					if (incfg) { # inside a …Config / …Options struct: names, then a type
						if (line == cfgindent "}") incfg = 0
						else if (index(line, cfgindent "\t") == 1) {
							spec = substr(line, length(cfgindent) + 2)
							if (spec ~ /^[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)* /) fields += exportedNames(spec)
						}
					}
					if (line ~ /^(type |\t)([A-Z][A-Za-z0-9_]*)?(Config|Options) struct \{$/ && (line ~ /^type / || group == "type")) {
						incfg = 1; cfgindent = (line ~ /^type /) ? "" : "\t"
					}
					if (group != "") { # inside a var/const/type ( … ) group
						if (line == ")") { group = ""; next }
						if (line ~ /^\t[A-Z]/) { spec = substr(line, 2); exported += (group == "type") ? 1 : exportedNames(spec) }
						next
					}
					if (line ~ /^(var|const|type) \($/) { group = line; sub(/ \($/, "", group); next }
					if (line ~ /^func [A-Z]/ || line ~ /^type [A-Z]/) exported++
					else if (line ~ /^func \([A-Za-z_0-9]* ?\*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) [A-Z]/) exported++
					else if (line ~ /^(var|const) [A-Z]/) { spec = line; sub(/^(var|const) /, "", spec); exported += exportedNames(spec) }
				}
				END { print pkg, lines + 0, exported + 0, panics + 0, fields + 0 }'
		done | awk '{l[$1] += $2; e[$1] += $3; p[$1] += $4; f[$1] += $5} END {for (k in l) print k, l[k], e[k], p[k], f[k]}' | sort
	)
}

count . | sed 's/^/head /' >"$DIR/counts"
if [ -n "$BASE" ]; then
	mkdir "$DIR/base"
	git archive "$BASE" internal cmd | tar -x -C "$DIR/base"
	count "$DIR/base" | sed 's/^/base /' >>"$DIR/counts"
	echo "head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted')  base $(git rev-parse --short "$BASE")"
fi

awk -v withbase="${BASE:+1}" '
	function cell(h, b) { return withbase ? sprintf("%d (%+d)", h, h - b) : sprintf("%d", h) }
	$1 == "base" { bl[$2] = $3; be[$2] = $4; bp[$2] = $5; bf[$2] = $6 }
	$1 == "head" { hl[$2] = $3; he[$2] = $4; hp[$2] = $5; hf[$2] = $6 }
	{ seen[$2] = 1 }
	END {
		n = 0; for (k in seen) { names[++n] = k; hn += (k in hl); bn += (k in bl) }
		for (i = 2; i <= n; i++) { t = names[i]; for (j = i - 1; j >= 1 && names[j] > t; j--) names[j + 1] = names[j]; names[j + 1] = t }
		printf "%-32s %16s %14s %12s %12s\n", "package", "lines", "exported", "panics", "fields"
		for (i = 1; i <= n; i++) {
			k = names[i]
			printf "%-32s %16s %14s %12s %12s\n", k, cell(hl[k], bl[k]), cell(he[k], be[k]), cell(hp[k], bp[k]), cell(hf[k], bf[k])
			tl += hl[k]; te += he[k]; tp += hp[k]; tf += hf[k]; tbl += bl[k]; tbe += be[k]; tbp += bp[k]; tbf += bf[k]
		}
		printf "%-32s %16s %14s %12s %12s\n", "total, " cell(hn, bn) " packages", cell(tl, tbl), cell(te, tbe), cell(tp, tbp), cell(tf, tbf)
	}' "$DIR/counts"
