//! Thread/task observational equivalence: the execution engine is a
//! real-time multiplexing choice, never a semantic one. Over random
//! topologies and random mixed workloads, a job run thread-per-rank and
//! the same job run as fibers on a worker pool (any worker count) must
//! produce bit-identical per-rank results, per-rank virtual clocks,
//! per-rank `CommStats`, and makespan. This is the PR 4 determinism
//! contract (call-entry-tax refunds make failed polls free) extended
//! across engine modes: a `test`/`iprobe` spin loop may run a different
//! number of real iterations under each engine, but every failed poll
//! refunds its virtual time, so the clocks cannot diverge.

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, NamespaceSharing, SimTime};
use cmpi_core::{Completion, ExecMode, JobSpec, Mpi, ReduceOp};
use proptest::prelude::*;

/// Cheap deterministic byte pattern (content checked end-to-end).
fn pattern(len: usize, salt: u64) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u64 ^ salt) as u8)
            .collect::<Vec<u8>>(),
    )
}

fn checksum(data: &[u8]) -> u64 {
    data.iter().fold(0u64, |h, &b| {
        h.wrapping_mul(1099511628211).wrapping_add(b as u64)
    })
}

/// One rank's program: a deterministic mix of eager and rendezvous
/// pt2pt, nonblocking polls (the task-mode yield path), collectives,
/// the fault-tolerant communicator allreduce, and skewed compute, folded
/// into a digest.
fn mixed_job(mpi: &mut Mpi, seed: u64, rounds: usize) -> u64 {
    let n = mpi.size();
    let me = mpi.rank();
    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    let mut digest = seed;
    for round in 0..rounds {
        // Message size cycles through eager, mid, rendezvous territory.
        let len = [64usize, 4 * 1024, 48 * 1024][(round + seed as usize) % 3];
        let tag = round as u32;

        // Ring exchange with nonblocking sends so rendezvous rounds
        // cannot deadlock regardless of ring parity.
        let sreq = mpi.isend_bytes(pattern(len, seed + me as u64), next, tag);
        let (data, st) = mpi.recv_bytes(prev, tag);
        digest = digest
            .wrapping_mul(31)
            .wrapping_add(checksum(&data))
            .wrapping_add(st.len as u64);
        mpi.wait(sreq);

        // Poll loop: iprobe until the peer's second message shows up,
        // then drain it with a test loop. In task mode every failed
        // poll yields the worker; in thread mode the OS preempts. The
        // virtual clock must come out identical either way.
        if round == 0 {
            mpi.send_bytes(pattern(256, seed ^ me as u64), next, 77);
            while mpi.iprobe(prev, 77).is_none() {}
            let rreq = mpi.irecv_bytes(prev, 77);
            let got = loop {
                if let Some(Completion::Recv(data, _)) = mpi.test(&rreq) {
                    break data;
                }
            };
            digest = digest.wrapping_add(checksum(&got));
        }

        // Collectives: allreduce folds every rank's running digest, a
        // rotating-root bcast, and a barrier to close the round.
        let sum = mpi.allreduce(&[digest.wrapping_add(round as u64)], ReduceOp::Sum)[0];
        let mut buf = [sum ^ me as u64];
        mpi.bcast(&mut buf, round % n);
        digest = digest.wrapping_mul(33).wrapping_add(buf[0]);

        // Skewed compute so ranks arrive at the barrier staggered.
        mpi.compute(SimTime::from_us(((me as u64 + seed) % 7) * 3));
        mpi.barrier();
    }
    // The fault-tolerant communicator allreduce on the world: a flat
    // schedule, whose cross-host messages never share a receiver's
    // ingress. (A flat dissemination barrier across hosts does, and two
    // of its messages contending for one wire is the same ambiguity a
    // real arbiter has, so it is left out of a bit-identity check.)
    let world = mpi.comm_world();
    let part = mpi
        .try_allreduce_comm(&world, &[digest], ReduceOp::Max)
        .unwrap()[0];
    digest.wrapping_add(part)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same job, same topology: thread-per-rank vs fibers on a pool of
    /// `workers` must be observationally identical in everything the
    /// virtual machine defines — results, clocks, stats, makespan.
    #[test]
    fn threads_and_tasks_are_bit_identical(
        hosts in 1u32..=2,
        cph in 1u32..=2,
        rpc in 1u32..=3,
        workers in 1usize..=3,
        seed in any::<u64>(),
        rounds in 1usize..=3,
    ) {
        let rpc = if hosts * cph * rpc < 2 { 2 } else { rpc };
        let scenario = DeploymentScenario::containers(hosts, cph, rpc, NamespaceSharing::default());
        let base = JobSpec::new(scenario);

        let threads = base
            .clone()
            .with_exec(ExecMode::Threads)
            .run(move |mpi| mixed_job(mpi, seed, rounds));
        let tasks = base
            .with_exec(ExecMode::Tasks)
            .with_workers(workers)
            .run(move |mpi| mixed_job(mpi, seed, rounds));

        prop_assert_eq!(&threads.results, &tasks.results, "per-rank results diverged");
        prop_assert_eq!(&threads.times, &tasks.times, "per-rank clocks diverged");
        prop_assert_eq!(threads.elapsed, tasks.elapsed, "makespan diverged");
        prop_assert_eq!(
            &threads.stats.per_rank,
            &tasks.stats.per_rank,
            "per-rank CommStats diverged"
        );
        prop_assert_eq!(&threads.stats.total, &tasks.stats.total, "total CommStats diverged");
    }
}
