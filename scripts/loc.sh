#!/usr/bin/env bash
# loc.sh — the line count ROADMAP acceptance lines mean by "non-test
# lines": per Go package, lines of *.go files that are not _test.go,
# not blank and not comment-only (a line whose first non-space
# characters are //). Arguments add groups of files, each counted once
# more as one line: an argument ending in ":" names the group of the
# files after it, and files before the first name form a group named by
# its file list. `make loc` prints two, the lease protocol's client
# side and the protocol declarations:
#
#   scripts/loc.sh lease-client: internal/core/{bootloader,renew,loadclient}.go \
#       protocol: internal/{core,dbms,cluster,sequoia}/protocol.go internal/wire/walk.go \
#           internal/sqlmini/codec.go
#
# Run by `make loc`; CI's check job appends the output to its step
# summary, so a simplicity PR's before/after claim is one command.
set -euo pipefail
cd "$(dirname "$0")/.."

# count FILE... — code lines across the files (missing files count 0).
count() {
    local n=0 f
    for f in "$@"; do
        [ -f "$f" ] && n=$((n + $(grep -cvE '^[[:space:]]*($|//)' "$f" || true)))
    done
    echo "$n"
}

total=0
while read -r dir; do
    files=()
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) ;; *) [ -f "$f" ] && files+=("$f") ;; esac
    done
    [ "${#files[@]}" -eq 0 ] && continue
    n="$(count "${files[@]}")"
    total=$((total + n))
    printf '%7d  %s\n' "$n" "${dir#./}"
done < <(find . -type d -not -path '*/testdata*' -not -path './.*' | sort)
printf '%7d  %s\n' "$total" "total"
name="" group=()
flush() {
    if [ "${#group[@]}" -gt 0 ]; then
        printf '%7d  %s\n' "$(count "${group[@]}")" "${name:-${group[*]}}"
    fi
    group=()
}
for arg in "$@"; do
    case "$arg" in
        *:) flush; name="${arg%:}" ;;
        *) group+=("$arg") ;;
    esac
done
flush
