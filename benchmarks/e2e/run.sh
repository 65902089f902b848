#!/usr/bin/env bash
# Builds the benchmark once (release, offline) and runs it pinned to one CPU.
#
#   run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
#   run.sh <name> [...]          the same, workload given by position
#   run.sh selfcheck [...]       two alternating sets of runs, see selfcheck.py
#
# The program pins itself (and so its batcher thread and shard processes)
# before any set-up; `taskset` is not needed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

if [[ "${1:-}" == selfcheck ]]; then
    shift
    exec python3 "$here/selfcheck.py" "$@"
fi

# A driver names the build directory relative to the checkout's root; on
# its own the crate shares the workspace's target directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [[ $# -gt 0 && "$1" != --* ]]; then
    set -- --workload "$@"
fi
exec "$CARGO_TARGET_DIR/release/e2e-bench" --out-dir "$here/out" "$@"
