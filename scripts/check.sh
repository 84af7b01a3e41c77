#!/usr/bin/env bash
# Tier-1 gate: everything CI requires before a merge. Run from anywhere;
# fails fast on the first broken step.
#
#   build     release build of the whole workspace
#   test      unit + integration + doc tests of every workspace crate
#             (root package and crates/*: exec_equiv, coll_props,
#             matching_equiv, alloc_free, footprint, ... included)
#   examples  every example builds and runs to completion
#   figures   the drift gate: scripts/results.sh (every figures id but
#             `scaling`, quick effort, one worker: every paper figure/table
#             driver, the ablations, the PGAS extension, the profile
#             tables and the health tables, whose driver round-trips the
#             metrics JSON and flight dump of a 32-rank mixed job) must
#             print RESULTS.txt byte for byte, else the stage fails with
#             the diff; then `figures --fig scaling` (wall clock and RSS,
#             so not pinned) runs as a smoke
#   footprint the footprint test again in release mode, where it also
#             asserts that every fiber's deepest path stays in the top page
#             of its stack (frame sizes are a property of the optimised
#             build; the debug run in `test` checks the heap only)
#   chaos     chaos-midrun: mid-run crash / hang / container-kill runs in
#             release mode (detector conviction, revoke/shrink recovery,
#             deterministic FT Graph 500 answers) plus the failure-detector
#             convergence property test
#   model     exhaustive interleaving + race-detector checks: the checker's
#             own suite, then the shim-ported hot-path structures under
#             --cfg cmpi_model (separate target dir so the normal build
#             cache survives)
#   overhead  overhead_gate: telemetry-on vs -off kernel pairs, >2 % fails
#   benchmark the outside-in benchmark harness's own self-tests
#             (benchmark/ is a workspace of its own; includes the
#             BENCHMARK.json == metric-registry check), `bash -n`
#             on scripts/prof.sh and scripts/loc.sh, and a byte-compile
#             of scripts/prof/symbolise.py and scripts/usecount.py
#   doc       rustdoc of every workspace crate with broken intra-doc
#             links as errors (a link left pointing at a deleted item);
#             rustdoc's other warnings stay allowed
#   clippy    all targets, warnings are errors; with clippy.toml and the
#             crate/module lint attributes this holds the repo rules:
#             `// SAFETY:` on every unsafe block (undocumented_unsafe_blocks),
#             no unwrap/expect outside tests in the hot-path modules
#             (unwrap_used, expect_used), no OS-blocking call without an
#             allow and its reason (disallowed_methods). The rules no
#             lint states run in `test`: tests/source_rules.rs (relaxed-ok,
#             one channel decision, one allow(unsafe_code)), the op-id and
#             wire-discriminant const asserts (a build error), the MpiError
#             Display test and the DESIGN.md metric-inventory test
#   fmt       rustfmt in check mode
#
# On exit, pass or fail, it prints the wall seconds each stage took and
# the total (bash SECONDS, so whole seconds; `model` is the checker's own
# suite, `model-cfg` the --cfg cmpi_model runs).
set -euo pipefail
cd "$(dirname "$0")/.."

stage_names=()
stage_starts=()
# stage NAME TITLE: close the running stage and announce the next.
stage() {
  stage_names+=("$1")
  stage_starts+=("$SECONDS")
  echo "== $2" >&2
}
report() {
  local i end
  for i in "${!stage_names[@]}"; do
    end=${stage_starts[i + 1]:-$SECONDS}
    printf '%6d s  %s\n' "$((end - stage_starts[i]))" "${stage_names[i]}"
  done >&2
  printf '%6d s  total\n' "$SECONDS" >&2
}
trap report EXIT

stage build "cargo build --release"
cargo build --release

stage test "cargo test -q --workspace"
cargo test -q --workspace

stage examples "examples smoke"
cargo build --release --examples
for ex in quickstart locality_detection graph500_bfs npb_kernels \
          pgas_gups profile_and_trace fault_injection coll_phases \
          g500_phases; do
  echo "-- example: $ex" >&2
  cargo run --release --quiet --example "$ex" >/dev/null
done

stage figures "figures (every driver, quick effort; the output must equal RESULTS.txt)"
# A PR that means to move a reproduced number re-records the file with
# `scripts/results.sh > RESULTS.txt` and says why in CHANGES.md.
if ! scripts/results.sh | diff -u RESULTS.txt -; then
  echo "figures output drifted from RESULTS.txt (diff above)" >&2
  exit 1
fi
cargo run --release --quiet -p cmpi-bench --bin figures -- --fig scaling >/dev/null

stage footprint "footprint (release: heap bounds and one stack page per fiber)"
cargo test -q --release -p cmpi-core --test footprint

stage chaos "chaos-midrun (crash / hang / container-kill + detector property test)"
cargo test -q --release --test chaos_midrun
cargo test -q --release -p cmpi-core --test failure_proptest

stage model "model checker (normal cfg self-tests)"
cargo test -q -p cmpi-model

stage model-cfg "model checker (--cfg cmpi_model exhaustive runs)"
RUSTFLAGS="--cfg cmpi_model" CARGO_TARGET_DIR=target/model \
  cargo test -q -p cmpi-model
RUSTFLAGS="--cfg cmpi_model" CARGO_TARGET_DIR=target/model \
  cargo test -q -p cmpi-core -p cmpi-shmem -p cmpi-fabric -p cmpi-telemetry --lib

stage overhead "telemetry overhead gate (on/off pairs, budget 2%)"
# Paired on/off runs of the eager, rendezvous and job32 kernels; fails
# if always-on telemetry costs more than 2 % on any of them (the
# estimator is documented and unit-tested in overhead_gate.rs).
cargo run --release --quiet -p cmpi-bench --bin overhead_gate

stage benchmark "benchmark harness self-tests (benchmark/, own workspace)"
(cd benchmark && cargo test -q --offline)
# The sampling profiler, the line counter and the use counter are tools,
# not gates: only their shell and Python must parse.
bash -n scripts/prof.sh
bash -n scripts/loc.sh
python3 -m py_compile scripts/prof/symbolise.py scripts/usecount.py

stage doc "cargo doc --workspace --no-deps (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps

stage clippy "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage fmt "cargo fmt --all --check"
cargo fmt --all --check

echo "ok: all tier-1 checks passed" >&2
