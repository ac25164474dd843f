#!/bin/sh
# Runs a name-filtered `cargo test` single-threaded, failing when any
# filter matches no test: a filter that selects nothing passes
# vacuously, and tests do move between modules and get renamed.
#
#   filtered-test.sh <cargo test selection>... -- [--libtest-flag]... <filter>...
set -eu

selection=""
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    selection="$selection $1"
    shift
done
[ "$#" -gt 1 ] || { echo "usage: $0 <cargo test selection>... -- [--flag]... <filter>..." >&2; exit 2; }
shift

filters=0
for arg in "$@"; do
    case "$arg" in --*) continue ;; esac
    filters=$((filters + 1))
    # shellcheck disable=SC2086 # the selection is a list of words
    matched=$(cargo test $selection -- --list "$arg" | grep -c ': test$' || true)
    if [ "$matched" -eq 0 ]; then
        echo "filter '$arg' matches no test in: cargo test$selection" >&2
        exit 1
    fi
    echo "filter '$arg': $matched test(s)"
done
[ "$filters" -gt 0 ] || { echo "$0: no filter given" >&2; exit 2; }
# shellcheck disable=SC2086
exec cargo test $selection -- --test-threads=1 "$@"
