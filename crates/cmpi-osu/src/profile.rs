//! Profiled single runs backing the `osu --profile` flags.
//!
//! The sweep helpers in [`crate::pt2pt`]/[`crate::onesided`]/
//! [`crate::collective`] measure virtual time only and discard everything
//! else. When the user asks for a profile, the driver re-runs the
//! benchmark's kernel once — at a single size, with the causal profiler
//! on — and hands back the assembled [`JobProfile`]: the per-peer channel
//! matrix, the wait-state decomposition, and the substrate pressure
//! counters for exactly the communication pattern that was measured.

use bytes::Bytes;
use cmpi_cluster::SimTime;
use cmpi_core::{JobProfile, JobSpec, Mpi, TelemetrySnapshot};

use crate::collective::{run_op, CollOp};

/// Which communication kernel a profiled run drives.
#[derive(Clone, Copy, Debug)]
pub enum ProfileKernel {
    /// Two-sided ping-pong between ranks 0 and 1 (latency/bw benches).
    PingPong,
    /// One-sided put + flush rounds from rank 0 into rank 1's window.
    PutFlush,
    /// One collective per iteration across all ranks.
    Collective(CollOp),
}

impl ProfileKernel {
    /// The kernel that matches a bench name from the CLI.
    pub fn for_bench(bench: &str, op: Option<CollOp>) -> ProfileKernel {
        match (bench, op) {
            (_, Some(op)) => ProfileKernel::Collective(op),
            ("put-lat" | "put-bw" | "get-lat" | "get-bw", _) => ProfileKernel::PutFlush,
            _ => ProfileKernel::PingPong,
        }
    }
}

/// One rank's worth of the chosen kernel (shared between the profiled
/// and the telemetry-snapshot runs so both measure the same pattern).
fn run_kernel(mpi: &mut Mpi, kernel: ProfileKernel, size: usize, iters: usize) -> SimTime {
    match kernel {
        ProfileKernel::PingPong => {
            let payload = Bytes::from(vec![0u8; size]);
            if mpi.rank() == 0 {
                for _ in 0..iters {
                    mpi.send_bytes(payload.clone(), 1, 1);
                    mpi.recv_bytes(1, 1);
                }
            } else if mpi.rank() == 1 {
                for _ in 0..iters {
                    let (m, _) = mpi.recv_bytes(0, 1);
                    mpi.send_bytes(m, 0, 1);
                }
            }
            SimTime::ZERO
        }
        ProfileKernel::PutFlush => {
            let mut win = mpi.win_allocate(size.max(8));
            mpi.fence(&mut win);
            if mpi.rank() == 0 {
                let data = vec![0u8; size];
                for _ in 0..iters {
                    mpi.put(&mut win, 1, 0, &data);
                    mpi.flush(&mut win, 1);
                }
            }
            mpi.fence(&mut win);
            SimTime::ZERO
        }
        ProfileKernel::Collective(op) => {
            let n = mpi.size();
            let elems = (size / 8).max(1);
            let mine = vec![mpi.rank() as u64; elems];
            for _ in 0..iters {
                run_op(mpi, op, &mine, elems, n);
            }
            SimTime::ZERO
        }
    }
}

/// Run `kernel` at `size` bytes for `iters` iterations with the causal
/// profiler enabled; returns the assembled job profile.
pub fn profiled_run(
    spec: &JobSpec,
    kernel: ProfileKernel,
    size: usize,
    iters: usize,
) -> JobProfile {
    let spec = spec.clone().with_profiling();
    let r = spec.run(move |mpi| run_kernel(mpi, kernel, size, iters));
    r.profile.expect("profiling was enabled on the spec")
}

/// Run `kernel` once and return the always-on telemetry snapshot
/// (metrics + flight rings) for exactly that communication
/// pattern — what `osu --metrics` prints.
pub fn metrics_run(
    spec: &JobSpec,
    kernel: ProfileKernel,
    size: usize,
    iters: usize,
) -> TelemetrySnapshot {
    let mut spec = spec.clone();
    spec.telemetry = true;
    let r = spec.run(move |mpi| run_kernel(mpi, kernel, size, iters));
    r.telemetry.expect("telemetry was enabled on the spec")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_cluster::{Channel, DeploymentScenario, NamespaceSharing};
    use cmpi_core::{LocalityPolicy, WaitClass};

    fn pair(opt: bool) -> JobSpec {
        let spec = JobSpec::new(DeploymentScenario::pt2pt_pair(
            true,
            true,
            NamespaceSharing::default(),
        ));
        if opt {
            spec
        } else {
            spec.with_policy(LocalityPolicy::Hostname)
        }
    }

    #[test]
    fn pingpong_profile_is_conserved_and_channel_correct() {
        let p = profiled_run(&pair(true), ProfileKernel::PingPong, 4096, 4);
        assert_eq!(p.conservation_error(), 0);
        assert!(p.directionally_conserved());
        // Locality-aware routing keeps the intra-host pair off the HCA.
        assert_eq!(p.pair_channel_bytes(0, 1, Channel::Hca), 0);
        assert!(p.pair_bytes(0, 1) >= 4 * 4096);
        let d = profiled_run(&pair(false), ProfileKernel::PingPong, 4096, 4);
        assert!(d.pair_channel_bytes(0, 1, Channel::Hca) >= 4 * 4096);
    }

    #[test]
    fn put_flush_profile_records_onesided_waits() {
        let p = profiled_run(&pair(true), ProfileKernel::PutFlush, 65536, 3);
        assert_eq!(p.conservation_error(), 0);
        assert!(p.wait_total(WaitClass::OneSided).samples > 0);
        assert!(p.pair_bytes(0, 1) >= 3 * 65536);
    }

    #[test]
    fn collective_profile_touches_every_rank() {
        let spec = JobSpec::new(DeploymentScenario::collective_256(4));
        let p = profiled_run(&spec, ProfileKernel::Collective(CollOp::Allreduce), 1024, 2);
        assert_eq!(p.conservation_error(), 0);
        assert!(p.wait_total(WaitClass::Collective).samples > 0);
        // Every rank moved bytes somewhere.
        for r in 0..p.num_ranks() {
            assert!(
                (0..p.num_ranks()).any(|j| p.pair_bytes(r, j) > 0),
                "rank {r}"
            );
        }
    }
}
