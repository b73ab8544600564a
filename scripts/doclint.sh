#!/usr/bin/env bash
# doclint.sh — fail if any internal/ package lacks a package comment, or
# if a comment or doc names a Markdown file the tree does not hold.
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
# there sends the reader nowhere. Run by `make lint` (and so by
# `make check`).
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
echo "doclint: all internal/ packages documented, every named .md file present"
