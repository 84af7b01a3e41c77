#!/usr/bin/env bash
# Print what RESULTS.txt pins: the stdout of `figures` for every id but
# `scaling` (its columns are wall clock and RSS), at quick effort on one
# worker, where every virtual-time cell repeats bit for bit.
#
#   scripts/results.sh > RESULTS.txt     re-record (say why in CHANGES.md)
#   scripts/results.sh | diff -u RESULTS.txt -
#
# The ids come from the usage text `figures` prints for an unknown
# argument, so an id added to its FIGURES table is pinned too.
set -euo pipefail
cd "$(dirname "$0")/.."

figures() { cargo run --release --quiet -p cmpi-bench --bin figures -- "$@"; }
usage=$(figures --ids 2>&1 || true)
args=()
for id in ${usage##*runs all): }; do
  [ "$id" = scaling ] || args+=(--fig "$id")
done
CMPI_WORKERS=1 figures "${args[@]}"
