//! Rendered-output golden for the observability views: the bit-drift
//! gate that lets work on *how* a rank records (hook sites, storage,
//! teardown assembly) prove it moved nothing a person or a tool reads.
//!
//! Every job runs as fibers on one worker with tracing, profiling and
//! telemetry all on, so its schedule — wildcard receives and revoke
//! floods included — repeats exactly, and with it every byte of
//! `JobStats::report()`, `JobProfile::report()` / `to_json()`,
//! `TelemetrySnapshot::to_json()` / `flight_chrome_json()` and
//! `JobTrace::to_chrome_json()`. Each output is pinned by its FNV-1a
//! hash. (A Prometheus text column stood between the profile JSON and
//! the telemetry JSON until that view was removed; the six that remain
//! kept their values through the removal.)
//!
//! The constants were recorded at the commit *before* the four
//! instrumentation systems became one store (PR 19's parent) and must
//! only ever change in a PR that means to change a message, the cost
//! model or a rendered format. One knowing edit was made in PR 19
//! itself: `Mpi::revoke` used to ledger the initiator's revocation in
//! `RecoveryStats` and the trace only, so in [`revoke_then_shrink`] rank
//! 0's `cmpi_ft_revokes_total` read 0 and its flight ring held no
//! `revoke` event; with one `incident` call per edge it reads 1 and the
//! ring holds the event, which moves that job's three telemetry hashes
//! (the parent's value is kept in the comment next to the one of them
//! that has not moved since). A second in PR 22: communicator collectives
//! used to bypass the selection ledger and exit under the class name, so
//! [`midrun_crash`]'s and [`revoke_then_shrink`]'s `try_allreduce_comm`
//! calls now appear in the Flat column of the selection table and in
//! `cmpi_coll_flat_total`, and their trace spans are named `allreduce`
//! instead of `collective` — four hashes of each job, no time, byte or
//! message count among them (EXPERIMENTS.md "PR 22" has the diff).
//! A third when the suspicion ledger and the heartbeat slots went: every
//! job's Prometheus text and telemetry JSON lose the
//! `cmpi_ft_suspicions_total` and `cmpi_heartbeat_gap_ns` families, and
//! [`midrun_crash`], the one job with a conviction, also loses the
//! "suspicions" count from its report, the `suspect` events from its
//! flight dump (each survivor's published count drops by one) and the
//! `suspect` instants from its trace — five hashes of that job and two
//! of each other one, seventeen in all, with only removed lines and
//! counts between them (EXPERIMENTS.md, "One failure record", has the
//! diff). A fourth when the flight ring became the incident log: the
//! sampled rendezvous steps and the first-use channel choices left it,
//! so every job's flight dump loses those events and its Prometheus text
//! and telemetry JSON read the lower `cmpi_flight_events_total` /
//! `cmpi_flight_dropped_total` — three hashes of each job, twenty-one in
//! all, with only removed events and lower flight counts between them
//! (EXPERIMENTS.md, "The flight ring is the incident log", has the
//! diff). The two Graph 500 jobs now share one flight dump: neither has
//! an incident.
//!
//! On a mismatch the assertion prints the observed row in the syntax of
//! the table (in decimal; the table is in hex only because that is how it
//! was first written down); `cargo test --test obs_golden -- --ignored` writes every
//! rendered text under the test's tmpdir for diffing against another
//! checkout.

use bytes::Bytes;
use container_mpi::apps::graph500::{bfs, Graph500Config};
use container_mpi::prelude::*;

/// FNV-1a hashes of one job's six rendered outputs.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    stats_report: u64,
    profile_report: u64,
    profile_json: u64,
    telemetry_json: u64,
    flight_chrome: u64,
    trace_chrome: u64,
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// All three detail levels on, one worker.
fn observed(spec: JobSpec) -> JobSpec {
    spec.with_tracing()
        .with_profiling()
        .with_exec(ExecMode::Tasks)
        .with_workers(1)
}

/// The six rendered texts of a finished job, in [`Golden`] field order.
fn render<R>(r: &JobResult<R>) -> [(&'static str, String); 6] {
    let profile = r.profile.as_ref().expect("profiling was enabled");
    let tel = r.telemetry.as_ref().expect("telemetry is on by default");
    let trace = r.trace.as_ref().expect("tracing was enabled");
    [
        ("stats_report", r.stats.report()),
        ("profile_report", profile.report()),
        ("profile_json", profile.to_json().to_string()),
        ("telemetry_json", tel.to_json().to_string()),
        ("flight_chrome", tel.flight_chrome_json().to_string()),
        ("trace_chrome", trace.to_chrome_json()),
    ]
}

fn golden_of(texts: &[(&'static str, String); 6]) -> Golden {
    let h = |k: usize| fnv(&texts[k].1);
    Golden {
        stats_report: h(0),
        profile_report: h(1),
        profile_json: h(2),
        telemetry_json: h(3),
        flight_chrome: h(4),
        trace_chrome: h(5),
    }
}

// ------------------------------------------------------------------ jobs

/// (a) The 32-rank mixed job of `figures --fig health`: eager and
/// rendezvous around a ring, a probe miss, allreduce and barrier, over
/// SHM, CMA and HCA at once.
fn mixed32() -> [(&'static str, String); 6] {
    let scenario = DeploymentScenario::containers(2, 4, 4, NamespaceSharing::default());
    let r = observed(JobSpec::new(scenario)).run(|mpi| {
        let n = mpi.size();
        let me = mpi.rank();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        for k in 0..6u32 {
            for size in [1024usize, 128 * 1024] {
                let payload = Bytes::from(vec![k as u8; size]);
                if me % 2 == 0 {
                    mpi.send_bytes(payload, next, k);
                    let _ = mpi.recv_bytes(prev, k);
                } else {
                    let _ = mpi.recv_bytes(prev, k);
                    mpi.send_bytes(payload, next, k);
                }
            }
        }
        let _ = mpi.iprobe(prev, 4096);
        mpi.allreduce(&[me as u64], ReduceOp::Sum);
        mpi.barrier();
    });
    render(&r)
}

/// (b) The OSU latency sweep, 1 B to 4 KiB, as one 2-rank job.
fn osu_latency() -> [(&'static str, String); 6] {
    let scenario = DeploymentScenario::pt2pt_pair(true, true, NamespaceSharing::default());
    let r = observed(JobSpec::new(scenario)).run(|mpi| {
        for shift in 0..=12 {
            let payload = Bytes::from(vec![0u8; 1 << shift]);
            if mpi.rank() == 0 {
                for _ in 0..9 {
                    mpi.send_bytes(payload.clone(), 1, shift);
                    mpi.recv_bytes(1, shift);
                }
            } else {
                for _ in 0..9 {
                    let (m, _) = mpi.recv_bytes(0, shift);
                    mpi.send_bytes(m, 0, shift);
                }
            }
        }
    });
    render(&r)
}

/// (c) Graph 500 at scale 10 on 16 ranks in 4 co-resident containers.
fn graph500(policy: LocalityPolicy) -> [(&'static str, String); 6] {
    let cfg = Graph500Config {
        scale: 10,
        edgefactor: 16,
        num_roots: 3,
        validate: true,
        ..Graph500Config::default()
    };
    let spec = JobSpec::new(DeploymentScenario::fig1(4)).with_policy(policy);
    let r = observed(spec).run(move |mpi| bfs::run_rank(mpi, &cfg));
    render(&r)
}

/// (d) The detection-latency job of `figures --fig profile`: 4 ranks, rank 3
/// crashes at its first call, the survivors convict it, shrink and
/// finish a collective.
fn midrun_crash() -> [(&'static str, String); 6] {
    let scenario = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
    let dead = 3usize;
    let plan = FaultPlan::none().with_crash(dead, MidRunTrigger::AfterOps(1));
    let spec = JobSpec::new(scenario).with_faults(plan);
    let r = observed(spec).run(move |mpi| -> Result<u64, MpiError> {
        let world = mpi.comm_world();
        if mpi.rank() == dead {
            mpi.try_barrier_comm(&world)?;
            return Ok(0);
        }
        let _ = mpi.try_recv_bytes(dead, 9);
        let comm = mpi.try_shrink(&world)?;
        mpi.try_allreduce_one(&comm, 1, ReduceOp::Sum)
    });
    render(&r)
}

/// (e) The revoke scenario of `chaos_midrun`: 8 ranks, nobody dies,
/// rank 0 revokes the world, every member fails fast, shrinks and
/// finishes a collective on the fresh context.
fn revoke_then_shrink() -> [(&'static str, String); 6] {
    let scenario = DeploymentScenario::containers(1, 2, 4, NamespaceSharing::default());
    let r = observed(JobSpec::new(scenario)).run(|mpi| -> Result<u64, MpiError> {
        let world = mpi.comm_world();
        if mpi.rank() == 0 {
            mpi.revoke(&world);
        }
        let err = mpi.try_allreduce_one(&world, 1u64, ReduceOp::Sum);
        assert_eq!(err, Err(MpiError::Revoked));
        let fixed = mpi.try_shrink(&world)?;
        mpi.try_allreduce_one(&fixed, mpi.rank() as u64 + 1, ReduceOp::Sum)
    });
    render(&r)
}

/// (f) Every init-time and transport recovery at once, so each incident
/// row is rendered at least once: a stale container list on host 0, a
/// silent publisher, a conflicting claim, absorbed QP-creation failures
/// and transient send-completion errors under a two-host ring exchange.
fn degraded_init() -> [(&'static str, String); 6] {
    let scenario = DeploymentScenario::containers(2, 2, 2, NamespaceSharing::default());
    let plan = FaultPlan::none()
        .with_stale_list(HostId(0))
        .with_omitted_publish(3)
        .with_duplicate_publish(4, 6)
        .with_qp_attach_failures(5, 2)
        .with_send_faults(3, 2);
    let r = observed(JobSpec::new(scenario).with_faults(plan)).run(|mpi| {
        let n = mpi.size();
        let me = mpi.rank();
        for (k, size) in [512usize, 96 * 1024].into_iter().enumerate() {
            let payload = Bytes::from(vec![me as u8; size]);
            let (got, _) =
                mpi.sendrecv_bytes(payload, (me + 1) % n, k as u32, (me + n - 1) % n, k as u32);
            assert_eq!(got.len(), size);
        }
        mpi.allreduce(&[me as u64], ReduceOp::Sum);
    });
    render(&r)
}

// ------------------------------------------------------------- constants

const MIXED32: Golden = Golden {
    stats_report: 0x37d2_836f_3eec_fa26,
    profile_report: 0xd618_67f1_e7e0_b254,
    profile_json: 0x03cb_2578_1528_cb82,
    telemetry_json: 0x258d_b205_e778_20be,
    flight_chrome: 0xc904_da9e_1c3d_a4a5,
    trace_chrome: 0xbe07_3d71_d553_507f,
};

const OSU_LATENCY: Golden = Golden {
    stats_report: 0xe00c_be6b_dcd1_ad80,
    profile_report: 0xa611_06c1_20b9_7b9b,
    profile_json: 0xf197_50f9_4abe_116c,
    telemetry_json: 0x7174_7794_c876_a1ea,
    flight_chrome: 0xb59a_0800_3432_ef5e,
    trace_chrome: 0x91fd_a836_b0c8_6ec4,
};

const G500_HOSTNAME: Golden = Golden {
    stats_report: 0x5d4b_febc_98f7_977c,
    profile_report: 0x7669_f02d_4c74_279a,
    profile_json: 0x2f81_96e0_f67b_1c07,
    telemetry_json: 0x2b5e_40d2_5a85_cf11,
    flight_chrome: 0x7a60_cf1e_71ba_7bd7,
    trace_chrome: 0x3bdb_a1d5_54e0_ff20,
};

const G500_DETECTOR: Golden = Golden {
    stats_report: 0x7782_e446_2cf2_1559,
    profile_report: 0xf946_f5e9_501a_923c,
    profile_json: 0x96fb_d670_4ddb_6a50,
    telemetry_json: 0x4a72_debc_7e4d_7bfa,
    flight_chrome: 0x7a60_cf1e_71ba_7bd7,
    trace_chrome: 0x6b94_db9b_683b_17cf,
};

const MIDRUN_CRASH: Golden = Golden {
    stats_report: 0x7d2b_4254_c547_f6dd,
    profile_report: 0xb21b_68b5_e183_daf2,
    profile_json: 0x7525_e828_f3cd_d66b,
    telemetry_json: 0x4b80_a6f1_4098_380e,
    flight_chrome: 0x6548_edba_950c_136b,
    trace_chrome: 0x64f8_ddda_253d_8f0a,
};

const REVOKE_THEN_SHRINK: Golden = Golden {
    stats_report: 0xbc9d_fe4f_df1e_76f4,
    profile_report: 0xbba7_e3e2_9820_11e2,
    profile_json: 0x7c76_e4e9_3002_f857,
    telemetry_json: 0xfac7_33de_82d2_aeef,
    // Without rank 0's own revoke, and with the per-message events
    // still on the ring: 0x034d_e7aa_c739_d06f.
    flight_chrome: 0x4791_0490_bac4_76ac,
    trace_chrome: 0x678c_380d_94d4_bf0a,
};

const DEGRADED_INIT: Golden = Golden {
    stats_report: 0xd900_f6ef_9b45_c802,
    profile_report: 0x9eea_3f76_b9a4_1a02,
    profile_json: 0x5af3_bb44_8486_96a1,
    telemetry_json: 0x4c8a_418e_e643_daad,
    flight_chrome: 0xfb36_7fc2_e52a_df72,
    trace_chrome: 0x105e_5784_909f_75df,
};

// ----------------------------------------------------------------- tests

#[test]
fn mixed_32_rank_job() {
    assert_eq!(golden_of(&mixed32()), MIXED32);
}

#[test]
fn osu_latency_sweep() {
    assert_eq!(golden_of(&osu_latency()), OSU_LATENCY);
}

#[test]
fn graph500_under_hostname_routing() {
    let texts = graph500(LocalityPolicy::Hostname);
    assert_eq!(golden_of(&texts), G500_HOSTNAME);
}

#[test]
fn graph500_under_the_container_detector() {
    let texts = graph500(LocalityPolicy::ContainerDetector);
    assert_eq!(golden_of(&texts), G500_DETECTOR);
}

#[test]
fn midrun_crash_detection() {
    assert_eq!(golden_of(&midrun_crash()), MIDRUN_CRASH);
}

#[test]
fn revoke_then_shrink_recovery() {
    assert_eq!(golden_of(&revoke_then_shrink()), REVOKE_THEN_SHRINK);
}

#[test]
fn degraded_init_and_transport_recoveries() {
    assert_eq!(golden_of(&degraded_init()), DEGRADED_INIT);
}

/// Not a check: writes every rendered text to
/// `$CARGO_TARGET_TMPDIR/obs_golden/<job>.<output>.txt`, so a hash
/// mismatch can be turned into a diff against another checkout's dump.
#[test]
#[ignore = "writes the rendered texts for diffing; run with --ignored"]
fn dump_rendered_outputs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_golden");
    std::fs::create_dir_all(&dir).expect("create dump directory");
    let jobs = [
        ("mixed32", mixed32()),
        ("osu_latency", osu_latency()),
        ("g500_hostname", graph500(LocalityPolicy::Hostname)),
        ("g500_detector", graph500(LocalityPolicy::ContainerDetector)),
        ("midrun_crash", midrun_crash()),
        ("revoke_then_shrink", revoke_then_shrink()),
        ("degraded_init", degraded_init()),
    ];
    for (job, texts) in jobs {
        for (output, text) in texts {
            std::fs::write(dir.join(format!("{job}.{output}.txt")), text).expect("write dump");
        }
    }
    eprintln!("rendered outputs written to {}", dir.display());
}
