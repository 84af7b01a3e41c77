#!/usr/bin/env bash
# Build the benchmark (offline, its own workspace) and run it.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON result line
#   run.sh [--seed N] [--quick]                               all six workloads, for people
#   run.sh --compare A.json B.json                            two result files against the bounds
#
# See README.md in this directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
# A relative CARGO_TARGET_DIR stays relative to where the caller stands.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/cmpi-benchmark" "$@"
