#!/usr/bin/env bash
# Sampled wall-time profile of one benchmark workload, for hosts without a PMU.
#
#   scripts/prof.sh WORKLOAD [SECONDS] [TOP]
#
# Builds the benchmark with frame pointers into target/prof-fp (its own
# target dir, so benchmark/ and its usual build are left alone), preloads
# scripts/prof/sigprof.c (a SIGPROF sampler with a 100 us wall-time timer
# per spawned thread; main threads are not sampled) into its children —
# the processes that run the workload on their worker threads; the
# parent only spawns and waits — and prints the TOP
# (default 20) symbols twice: by self time, and inclusive of the callees
# each sample's frame-pointer chain shows (a leaf with no locals, whose
# frame record sits at the stack pointer, keeps its callers). Dumps stay in
# target/prof/WORKLOAD/. Not a gate: without a C compiler it says so and
# exits 0.
#
# Then it prints a third table: the share of samples whose pc sits right
# after a lock-prefixed or xchg instruction, by symbol (`python3
# scripts/prof/symbolise.py target/prof/WORKLOAD --atomics TOP`), so one
# run gives a before/after attribution of the message path's atomics.
# That table is for attribution, not a claim: removing two
# read-modify-writes per message once moved no wall_s by more than the
# noise of 8 alternated pairs, while halving DESIGN §16's per-message
# budget did. Time a change before claiming it.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/prof.sh WORKLOAD [SECONDS] [TOP]}"
seconds="${2:-10}"
top="${3:-20}"
if ! command -v cc >/dev/null || ! command -v nm >/dev/null; then
  echo "prof.sh: needs cc and nm on PATH; skipping" >&2
  exit 0
fi
out="target/prof/$workload"
rm -rf "$out"
mkdir -p "$out"
cc -O2 -shared -fPIC -o target/prof/sigprof.so scripts/prof/sigprof.c -ldl
export CARGO_TARGET_DIR=target/prof-fp
RUSTFLAGS="-C force-frame-pointers=yes" \
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
SIGPROF_OUT="$out" SIGPROF_MATCH=--child LD_PRELOAD="$PWD/target/prof/sigprof.so" \
  "$CARGO_TARGET_DIR/release/cmpi-benchmark" \
  --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >/dev/null
python3 scripts/prof/symbolise.py "$out" "$top"
python3 scripts/prof/symbolise.py "$out" --atomics "$top"
