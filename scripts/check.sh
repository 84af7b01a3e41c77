#!/usr/bin/env bash
# Tier-1 gate: everything CI requires before a merge. Run from anywhere;
# fails fast on the first broken step.
#
#   build     release build of the whole workspace
#   test      unit + integration + doc tests of every workspace crate
#             (root package and crates/*: exec_equiv, coll_props,
#             matching_equiv, alloc_free, footprint, ... included)
#   examples  every example builds and runs to completion
#   profile   profile-smoke: profiled OSU + figures --profile runs, with
#             JSON parse and matrix byte-conservation asserted inside
#   telemetry osu --metrics / figures --health smoke (validated Prometheus
#             + JSON exposition on a 32-rank mixed job), and the overhead
#             gate: telemetry-on vs -off kernel pairs, >2 % fails
#   bench     benches compile; bench_ledger smoke run round-trips its JSON
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
#             finding is a hard failure. Both stages archive their JSON
#             findings next to the bench ledger in target/
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

echo "== profile smoke" >&2
# The osu bin round-trip-validates the JSON before writing it; the
# profile_and_trace example (run above) asserts byte conservation.
cargo run --release --quiet -p cmpi-osu --bin osu -- latency --max-size 16384 \
  --iters 4 --profile-json target/osu_profile.json >/dev/null
cargo run --release --quiet -p cmpi-bench --bin figures -- --profile >/dev/null

echo "== telemetry smoke (osu --metrics + figures --health)" >&2
# Both validate the Prometheus exposition and JSON snapshot internally
# before printing; --health runs the 32-rank mixed job.
cargo run --release --quiet -p cmpi-osu --bin osu -- latency --max-size 4096 \
  --iters 4 --metrics --metrics-json target/osu_metrics.json >/dev/null
python3 -c "import json; json.load(open('target/osu_metrics.json'))" 2>/dev/null \
  || grep -q '"schema"' target/osu_metrics.json
cargo run --release --quiet -p cmpi-bench --bin figures -- --health >/dev/null

echo "== cargo bench --no-run + bench_ledger smoke" >&2
cargo bench --workspace --no-run
cargo run --release --quiet -p cmpi-bench --bin bench_ledger -- --smoke \
  --out target/bench_smoke.json >/dev/null
python3 -c "import json; json.load(open('target/bench_smoke.json'))" 2>/dev/null \
  || grep -q '"schema"' target/bench_smoke.json

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
cargo run --release --quiet -p cmpi-model --bin cmpi-lint -- --json target/lint_findings.json

echo "== cmpi-analyze (call-graph passes; findings are hard failures)" >&2
cargo run --release --quiet -p cmpi-model --bin cmpi-lint -- --analyze \
  --json target/analyze_findings.json
python3 -c "import json; json.load(open('target/analyze_findings.json'))" 2>/dev/null \
  || grep -q '"schema"' target/analyze_findings.json

echo "== telemetry overhead gate (on/off pairs, budget 2%)" >&2
# Paired on/off runs of the eager, rendezvous and job32 kernels; fails
# if always-on telemetry costs more than 2 % on any of them (see the
# estimator notes in bench_ledger's run_overhead_gate).
cargo run --release --quiet -p cmpi-bench --bin bench_ledger -- --overhead-gate

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
