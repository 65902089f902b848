#!/usr/bin/env bash
# Runs `cargo test "$@"` and fails unless it passed and ran at least one
# test. A name filter that matches nothing makes cargo report
# `0 passed` and exit 0, so a filtered CI step would go green after the
# test it names was moved or renamed; this wrapper turns that into an error.
#
# Usage: scripts/test_nonempty.sh <cargo test arguments>
#   e.g. scripts/test_nonempty.sh -p ce-cluster --lib stale_reply
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! grep -Eq 'test result: .*ok.*\. [1-9][0-9]* passed' "$log"; then
    echo "cargo test $*: no test ran (does the filter still match?)" >&2
    exit 1
fi
