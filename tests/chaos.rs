//! Chaos suite: every fault class the `FaultPlan` substrate can inject,
//! driven through full application workloads (Graph 500 BFS and NAS
//! kernels). Each test asserts the *robustness contract*: the job never
//! panics or aborts, results are equivalent to the fault-free run, and
//! the recovery counters show the expected degraded-mode path was taken
//! (list re-init, slot repair, per-peer HCA downgrade, bounded retry).

use container_mpi::apps::graph500::{self, Graph500Config, Graph500Result};
use container_mpi::apps::npb::{self, Kernel, NpbClass};
use container_mpi::prelude::*;

mod common;
use common::assert_recovery_matches_metrics;

fn cfg() -> Graph500Config {
    Graph500Config {
        scale: 9,
        edgefactor: 8,
        num_roots: 2,
        ..Default::default()
    }
}

/// Two containers x four ranks on one host: every fault class that
/// perturbs the shared container list is visible here.
fn one_host() -> DeploymentScenario {
    DeploymentScenario::containers(1, 2, 4, NamespaceSharing::default())
}

/// Two hosts so the job has genuine HCA traffic for fabric faults.
fn two_hosts() -> DeploymentScenario {
    DeploymentScenario::containers(2, 2, 2, NamespaceSharing::default())
}

fn bfs(scenario: DeploymentScenario, plan: FaultPlan) -> Graph500Result {
    let r = graph500::run(&JobSpec::new(scenario).with_faults(plan), cfg());
    assert_recovery_matches_metrics(&r.stats, r.telemetry.as_ref());
    r
}

/// Fault-free reference for a scenario.
fn baseline(scenario: DeploymentScenario) -> Graph500Result {
    bfs(scenario, FaultPlan::none())
}

/// The core equivalence check: identical traversal answers, valid trees.
fn assert_same_answers(faulty: &Graph500Result, clean: &Graph500Result) {
    assert!(
        faulty.validated,
        "parent tree failed validation under faults"
    );
    assert!(clean.validated);
    assert_eq!(
        faulty.traversed_edges, clean.traversed_edges,
        "BFS answers diverged"
    );
}

#[test]
fn stale_segment_from_previous_job_is_reinitialized() {
    let clean = baseline(one_host());
    let r = bfs(one_host(), FaultPlan::none().with_stale_list(HostId(0)));
    assert_same_answers(&r, &clean);
    let rec = r.stats.recovery();
    assert!(
        rec.list_recoveries >= 1,
        "stale segment should force a re-init: {rec:?}"
    );
    assert_eq!(rec.hca_downgrades, 0);
    // Recovery happens entirely before the init barrier: routing is
    // identical to the fault-free run.
    assert_eq!(
        r.stats.channel_ops(Channel::Hca),
        clean.stats.channel_ops(Channel::Hca)
    );
}

#[test]
fn corrupt_list_checksum_fails_validation_and_recovers() {
    let clean = baseline(one_host());
    let r = bfs(one_host(), FaultPlan::none().with_corrupt_list(HostId(0)));
    assert_same_answers(&r, &clean);
    let rec = r.stats.recovery();
    assert!(
        rec.list_recoveries >= 1,
        "corrupt segment should force a re-init: {rec:?}"
    );
    assert_eq!(rec.hca_downgrades, 0);
    assert_eq!(
        r.stats.channel_ops(Channel::Hca),
        clean.stats.channel_ops(Channel::Hca)
    );
}

#[test]
fn omitted_publish_downgrades_the_silent_peer_to_hca() {
    let clean = baseline(one_host());
    // Fault-free, the detector keeps everything intra-host off the HCA.
    assert_eq!(clean.stats.channel_ops(Channel::Hca), 0);

    let r = bfs(one_host(), FaultPlan::none().with_omitted_publish(3));
    assert_same_answers(&r, &clean);
    let rec = r.stats.recovery();
    // Each of the other 7 ranks independently downgrades the silent rank.
    assert_eq!(rec.hca_downgrades, 7, "{rec:?}");
    // The init barrier re-scanned (with backoff) before giving up.
    assert!(rec.init_retries > 0, "{rec:?}");
    // Traffic to/from the silent rank now rides the loopback.
    assert!(r.stats.channel_ops(Channel::Hca) > 0);
}

#[test]
fn torn_publish_reads_as_corrupt_and_peers_downgrade() {
    let clean = baseline(one_host());
    let r = bfs(one_host(), FaultPlan::none().with_torn_publish(5));
    assert_same_answers(&r, &clean);
    let rec = r.stats.recovery();
    // A torn write cannot be detected by its author (it believes the
    // publish succeeded); the other 7 ranks each see a byte that fails
    // the membership cross-check and conservatively downgrade the peer.
    assert_eq!(rec.hca_downgrades, 7, "{rec:?}");
    assert_eq!(rec.publish_conflicts, 0, "{rec:?}");
    assert!(r.stats.channel_ops(Channel::Hca) > 0);
}

#[test]
fn duplicate_publish_conflict_is_repaired_by_the_victim() {
    let clean = baseline(one_host());
    // Rank 2 (container 0) force-claims rank 6's slot (container 1).
    let r = bfs(one_host(), FaultPlan::none().with_duplicate_publish(2, 6));
    assert_same_answers(&r, &clean);
    let rec = r.stats.recovery();
    assert_eq!(rec.publish_conflicts, 1, "{rec:?}");
    assert_eq!(rec.hca_downgrades, 0, "{rec:?}");
    assert_eq!(r.stats.channel_ops(Channel::Hca), 0);
}

#[test]
fn revoked_ipc_namespace_degrades_cross_container_traffic_to_hca() {
    let clean = baseline(one_host());
    let r = bfs(
        one_host(),
        FaultPlan::none().with_revoked_ipc(ContainerId(1)),
    );
    assert_same_answers(&r, &clean);
    let rec = r.stats.recovery();
    // Every cross-container pair downgrades, from both sides:
    // 4 ranks x 4 peers x 2 directions.
    assert_eq!(rec.hca_downgrades, 32, "{rec:?}");
    // Cross-container traffic fell back to the loopback; intra-container
    // traffic still uses shared memory.
    assert!(r.stats.channel_ops(Channel::Hca) > 0);
    assert!(r.stats.channel_ops(Channel::Shm) > 0);
}

#[test]
fn revoked_pid_namespace_disables_cma_but_keeps_chunked_shm() {
    // A large message between containers normally rides CMA; with the
    // PID namespace revoked the kernel would refuse process_vm_readv,
    // so the library must chunk through SHM instead — without any
    // peer downgrade (locality detection itself still works).
    let run = |plan: FaultPlan| {
        JobSpec::new(one_host()).with_faults(plan).run(|mpi| {
            let me = mpi.rank();
            if me == 1 {
                mpi.send(&vec![0xABu8; 100_000], 5, 9);
                0
            } else if me == 5 {
                let mut buf = vec![0u8; 100_000];
                mpi.recv(&mut buf, 1, 9);
                buf.iter().filter(|&&b| b == 0xAB).count()
            } else {
                0
            }
        })
    };
    let clean = run(FaultPlan::none());
    assert!(
        clean.stats.channel_ops(Channel::Cma) > 0,
        "baseline should use CMA"
    );

    let r = run(FaultPlan::none().with_revoked_pid(ContainerId(1)));
    assert_eq!(r.results, clean.results);
    assert_eq!(r.results[5], 100_000);
    assert_eq!(
        r.stats.channel_ops(Channel::Cma),
        0,
        "CMA must be gated off"
    );
    assert!(
        r.stats.channel_ops(Channel::Shm) > 10,
        "expected chunked SHM"
    );
    assert_eq!(r.stats.channel_ops(Channel::Hca), 0);
    assert_eq!(r.stats.recovery().hca_downgrades, 0);
    assert_recovery_matches_metrics(&r.stats, r.telemetry.as_ref());
}

#[test]
fn qp_creation_failures_are_retried_with_backoff() {
    let clean = baseline(two_hosts());
    let r = bfs(two_hosts(), FaultPlan::none().with_qp_attach_failures(4, 3));
    assert_same_answers(&r, &clean);
    let rec = r.stats.recovery();
    assert_eq!(rec.attach_retries, 3, "{rec:?}");
    assert_eq!(rec.hca_downgrades, 0, "{rec:?}");
}

#[test]
fn transient_send_completion_errors_are_retried_until_delivery() {
    let clean = baseline(two_hosts());
    // Every 5th HCA send completes in error twice before succeeding.
    let r = bfs(two_hosts(), FaultPlan::none().with_send_faults(5, 2));
    assert_same_answers(&r, &clean);
    let rec = r.stats.recovery();
    assert!(rec.send_retries > 0, "{rec:?}");
    // Retries re-post the same payload: the delivered-op count matches.
    assert_eq!(
        r.stats.channel_ops(Channel::Hca),
        clean.stats.channel_ops(Channel::Hca)
    );
}

#[test]
fn npb_kernels_survive_every_fault_class() {
    let clean_is = npb::run(&JobSpec::new(one_host()), Kernel::Is, NpbClass::S);
    let clean_cg = npb::run(&JobSpec::new(one_host()), Kernel::Cg, NpbClass::S);
    assert!(clean_is.verified && clean_cg.verified);

    let plans: [(&str, FaultPlan); 6] = [
        ("stale", FaultPlan::none().with_stale_list(HostId(0))),
        ("corrupt", FaultPlan::none().with_corrupt_list(HostId(0))),
        ("omitted", FaultPlan::none().with_omitted_publish(2)),
        ("torn", FaultPlan::none().with_torn_publish(6)),
        ("duplicate", FaultPlan::none().with_duplicate_publish(1, 7)),
        (
            "revoked-ipc",
            FaultPlan::none().with_revoked_ipc(ContainerId(1)),
        ),
    ];
    for (name, plan) in plans {
        for kernel in [Kernel::Is, Kernel::Cg] {
            let spec = JobSpec::new(one_host()).with_faults(plan.clone());
            let r = npb::run(&spec, kernel, NpbClass::S);
            assert!(
                r.verified,
                "{} failed self-verification under {name}",
                kernel.name()
            );
            assert!(
                r.stats.recovery().any(),
                "{name} should leave a recovery trace on {}",
                kernel.name()
            );
            assert_recovery_matches_metrics(&r.stats, r.telemetry.as_ref());
        }
    }
}

#[test]
fn sampled_fault_plan_is_deterministic_under_a_seed() {
    let clean = baseline(two_hosts());
    let run = || bfs(two_hosts(), FaultPlan::sampled(0xC0FFEE, &two_hosts()));
    let a = run();
    let b = run();
    // Same seed, same faults, same recovery, same answers.
    assert_same_answers(&a, &clean);
    assert_eq!(a.traversed_edges, b.traversed_edges);
    assert_eq!(a.stats.recovery(), b.stats.recovery());
    // Different seed: still correct, possibly different fault mix.
    let c = bfs(two_hosts(), FaultPlan::sampled(7, &two_hosts()));
    assert_same_answers(&c, &clean);
}
