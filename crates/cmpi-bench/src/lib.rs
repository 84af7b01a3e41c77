//! # cmpi-bench — the evaluation harness
//!
//! One driver per table/figure of the paper (Zhang, Lu, Panda — ICPP
//! 2016). Each driver returns a [`Table`] of virtual-time measurements
//! that the `figures` binary prints; its `--fig` ids select drivers, and
//! with none it runs every one of them, as CI does. The crate's other
//! binary, `overhead_gate`, answers one question — what always-on
//! telemetry costs — and times the same [`mixed_step`] the scaling table
//! does.
//!
//! | driver | paper artefact |
//! |--------|----------------|
//! | [`fig01`] | Fig. 1 — Graph500 BFS, default library, container sweep |
//! | [`fig03a`] | Fig. 3(a) — BFS comm/compute breakdown |
//! | [`fig03bc`] | Fig. 3(b)(c) — SHM/CMA/HCA channel latency & bandwidth |
//! | [`table1`] | Table I — per-channel transfer-operation counts |
//! | [`fig07a`] | Fig. 7(a) — `SMP_EAGER_SIZE` sweep |
//! | [`fig07b`] | Fig. 7(b) — `SMPI_LENGTH_QUEUE` sweep |
//! | [`fig07c`] | Fig. 7(c) — `MV2_IBA_EAGER_THRESHOLD` sweep |
//! | [`fig08`] | Fig. 8 — two-sided latency / bw / bi-bw |
//! | [`fig09`] | Fig. 9 — one-sided put/get latency & bw |
//! | [`fig10`] | Fig. 10 — collectives at 64 containers |
//! | [`fig11`] | Fig. 11 — Graph500 with the proposed library |
//! | [`fig12`] | Fig. 12 — Graph500 + NPB application sweep |
//! | [`ablation_namespaces`] | extension — namespace-sharing ablation |
//! | [`ablation_faults`] | extension — fault-injection / degraded-mode ablation |
//! | [`ablation_smp_collectives`] | extension — two-level collectives |
//! | [`ext_pgas`] | extension — PGAS GUPS (paper Section VII future work) |
//! | [`profile_tables`] | extension — Table I per rank pair, wait states, failure detection |
//! | [`health_tables`] | extension — telemetry health verdict of a 32-rank mixed job |
//! | [`scaling_table`] | extension — the mixed job at 64 → 1024 (4096) ranks, wall clock |
//! | [`container_list_table`] | Section IV-B — container-list publish / scan at 10^3–10^6 ranks |

#![forbid(unsafe_code)]
pub mod experiments;
pub mod table;

pub use experiments::*;
pub use table::Table;
