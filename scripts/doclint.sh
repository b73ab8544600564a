#!/usr/bin/env bash
# doclint.sh — fail if any internal/ package lacks a package comment,
# if a comment or doc names a Markdown file the tree does not hold, or
# if a doc names a test, benchmark or fuzz target that no test declares.
#
# Every package under internal/ — at any nesting depth — must carry a
# `// Package <name> ...` doc comment in at least one non-test file:
# the architecture docs (README.md, docs/ARCHITECTURE.md) lean on
# `go doc` as the canonical per-package reference, which only works if
# the comments exist. testdata trees are invisible to go tooling and
# are skipped.
#
# Every `<name>.md` that a Go comment, README.md or docs/*.md names must
# exist somewhere in the tree (matched by file name, so a relative link
# and a bare mention both resolve): a pointer to a document that is not
# there sends the reader nowhere.
#
# Every Test…, Benchmark… or Fuzz… name that README.md or docs/*.md
# cites must be a function some _test.go declares (brace forms such as
# Benchmark{A,B}X expand first), so a design doc's pins resolve. Run by
# `make lint` (and so by `make check`).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for dir in $(find internal -type d -not -path '*/testdata*' | sort); do
    # Only directories that actually hold a Go package.
    ls "$dir"/*.go >/dev/null 2>&1 || continue
    pkg="$(basename "$dir")"
    found=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        if grep -qE "^// Package ${pkg}( |$)" "$f"; then
            found=1
            break
        fi
    done
    if [ "$found" -eq 0 ]; then
        echo "doclint: package ${pkg} (${dir}) has no '// Package ${pkg} ...' comment" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "doclint: add a package comment to each package listed above" >&2
    exit 1
fi

# Markdown files the tree holds, by base name.
present="$(find . \( -name .git -o -name '.bench_build' \) -prune -o -name '*.md' -print |
    sed 's|.*/||' | sort -u)"
# Go comments (the text after //), then the two doc sets, each line
# prefixed with its file; every *.md name they mention must be present.
{
    find . \( -name .git -o -name '.bench_build' -o -name testdata \) -prune -o -name '*.go' -print |
        sort | xargs grep -Hn '//' | sed -E 's|^([^:]+:[0-9]+:).*//|\1|'
    grep -Hn '' README.md docs/*.md
} | grep -oE '^[^:]+:[0-9]+:|[A-Za-z0-9_.-]+\.md\b' | awk -v present="$present" '
    BEGIN { n = split(present, p, "\n"); for (i = 1; i <= n; i++) have[p[i]] = 1 }
    /:$/ { where = $0; next }
    !($0 in have) { print "doclint: " where " names " $0 ", which is nowhere in the tree"; bad = 1 }
    END { exit bad }
' >&2 || {
    echo "doclint: point each reference above at a document that exists, or drop it" >&2
    exit 1
}
# Every Test…, Benchmark… or Fuzz… function that README.md or a
# docs/*.md file names must be declared by some _test.go (either
# module): a doc that pins a claim to a test that no longer exists
# points at nothing. A brace form expands before the check, so
# BenchmarkGrantAt{200,20000}LeasesOneDriver names two benchmarks.
declared="$(find . \( -name .git -o -name '.bench_build' -o -name testdata \) -prune -o -name '*_test.go' -print |
    xargs grep -ohE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' | sed 's/^func //' | sort -u)"
grep -HnoE '\b(Test|Benchmark|Fuzz)[A-Z0-9_]([A-Za-z0-9_]|\{[A-Za-z0-9_,]*\})*' README.md docs/*.md |
    awk -v declared="$declared" '
    BEGIN { n = split(declared, d, "\n"); for (i = 1; i <= n; i++) have[d[i]] = 1 }
    # expand appends every expansion of brace form s to out[].
    function expand(s,    i, j, k, m, alt) {
        i = index(s, "{")
        if (i == 0) { out[++nout] = s; return }
        j = index(substr(s, i), "}") + i - 1
        m = split(substr(s, i + 1, j - i - 1), alt, ",")
        for (k = 1; k <= m; k++) expand(substr(s, 1, i - 1) alt[k] substr(s, j + 1))
    }
    {
        where = $0; sub(/:[^:]*$/, "", where)
        name = $0; sub(/^[^:]*:[^:]*:/, "", name)
        nout = 0; expand(name)
        for (k = 1; k <= nout; k++)
            if (!(out[k] in have)) { print "doclint: " where ": names " out[k] ", which no _test.go declares"; bad = 1 }
    }
    END { exit bad }
' >&2 || {
    echo "doclint: point each name above at a test that exists, or drop it" >&2
    exit 1
}
echo "doclint: all internal/ packages documented, every named .md file and test present"
