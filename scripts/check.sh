#!/usr/bin/env bash
# Tier-1 gate: everything CI requires before a merge. Run from anywhere;
# fails fast on the first broken step.
#
#   build     release build of the whole workspace
#   test      unit + integration + doc tests of every workspace crate
#             (root package and crates/*: exec_equiv, coll_props,
#             matching_equiv, alloc_free, footprint, ... included)
#   examples  every example builds and runs to completion
#   figures   figures (no --fig: every id) at quick effort: every paper
#             figure/table driver, the ablations, the PGAS extension, the
#             profile tables, the health tables (validated Prometheus
#             exposition, metrics JSON and flight dump round-trips on a
#             32-rank mixed job) and the scaling tables
#   chaos     chaos-midrun: mid-run crash / hang / container-kill runs in
#             release mode (detector conviction, revoke/shrink recovery,
#             deterministic FT Graph 500 answers) plus the failure-detector
#             convergence property test
#   model     exhaustive interleaving + race-detector checks: the checker's
#             own suite, then the shim-ported hot-path structures under
#             --cfg cmpi_model (separate target dir so the normal build
#             cache survives)
#   lint      cmpi-lint repo rules: SAFETY comments, relaxed-ok
#             justifications, hot-path unwrap ban, tag field widths,
#             MpiError Display-test coverage, analyzer-rule inventory
#             in DESIGN.md §17
#   analyze   cmpi-analyze whole-program passes: fiber-blocking taint
#             from the Mpi/fiber-boot seeds, lock-order cycle detection,
#             atomic Release/Acquire pairing audit; any unjustified
#             finding is a hard failure. The exit code is the gate
#   overhead  overhead_gate: telemetry-on vs -off kernel pairs, >2 % fails
#   benchmark the outside-in benchmark harness's own self-tests
#             (benchmark/ is a workspace of its own; includes the
#             BENCHMARK.json == metric-registry check), and `bash -n`
#             on scripts/prof.sh and scripts/loc.sh
#   clippy    all targets, warnings are errors
#   fmt       rustfmt in check mode
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release" >&2
cargo build --release

echo "== cargo test -q --workspace" >&2
cargo test -q --workspace

echo "== examples smoke" >&2
cargo build --release --examples
for ex in quickstart locality_detection graph500_bfs npb_kernels \
          pgas_gups profile_and_trace fault_injection coll_phases \
          g500_phases; do
  echo "-- example: $ex" >&2
  cargo run --release --quiet --example "$ex" >/dev/null
done

echo "== figures (every driver, quick effort)" >&2
# The health driver validates its Prometheus and JSON expositions
# before printing; tests/profile.rs round-trips the profile JSON.
cargo run --release --quiet -p cmpi-bench --bin figures >/dev/null

echo "== chaos-midrun (crash / hang / container-kill + detector property test)" >&2
cargo test -q --release --test chaos_midrun
cargo test -q --release -p cmpi-core --test failure_proptest

echo "== model checker (normal cfg self-tests)" >&2
cargo test -q -p cmpi-model

echo "== model checker (--cfg cmpi_model exhaustive runs)" >&2
RUSTFLAGS="--cfg cmpi_model" CARGO_TARGET_DIR=target/model \
  cargo test -q -p cmpi-model
RUSTFLAGS="--cfg cmpi_model" CARGO_TARGET_DIR=target/model \
  cargo test -q -p cmpi-core -p cmpi-shmem -p cmpi-fabric -p cmpi-telemetry --lib

echo "== cmpi-lint" >&2
cargo run --release --quiet -p cmpi-model --bin cmpi-lint

echo "== cmpi-analyze (call-graph passes; findings are hard failures)" >&2
cargo run --release --quiet -p cmpi-model --bin cmpi-lint -- --analyze

echo "== telemetry overhead gate (on/off pairs, budget 2%)" >&2
# Paired on/off runs of the eager, rendezvous and job32 kernels; fails
# if always-on telemetry costs more than 2 % on any of them (the
# estimator is documented and unit-tested in overhead_gate.rs).
cargo run --release --quiet -p cmpi-bench --bin overhead_gate

echo "== benchmark harness self-tests (benchmark/, own workspace)" >&2
(cd benchmark && cargo test -q --offline)
# The sampling profiler and the line counter are tools, not gates: only
# their shell must parse.
bash -n scripts/prof.sh
bash -n scripts/loc.sh

echo "== cargo clippy --workspace --all-targets -- -D warnings" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --all --check" >&2
cargo fmt --all --check

echo "ok: all tier-1 checks passed" >&2
