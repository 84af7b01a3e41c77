//! Collective benchmarks (`osu_barrier`, `osu_bcast`, `osu_reduce`,
//! `osu_allreduce`, `osu_gather`, `osu_allgather`, `osu_alltoall`): the
//! four of Fig. 10 plus the three more the flat-vs-two-level ablation
//! times.

use cmpi_cluster::SimTime;
use cmpi_core::{JobSpec, ReduceOp};

use crate::common::{us_per_op, SizePoint};

/// Which collective a benchmark drives. The algorithm is the library's
/// choice: an ablation pins one through the spec's policy and `Tunables`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollOp {
    /// `MPI_Bcast` from rank 0.
    Bcast,
    /// `MPI_Allreduce` (sum).
    Allreduce,
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Alltoall`.
    Alltoall,
    /// `MPI_Barrier` (size column is ignored).
    Barrier,
    /// `MPI_Reduce` to rank 0.
    Reduce,
    /// `MPI_Gather` to rank 0.
    Gather,
}

impl CollOp {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CollOp::Bcast => "bcast",
            CollOp::Allreduce => "allreduce",
            CollOp::Allgather => "allgather",
            CollOp::Alltoall => "alltoall",
            CollOp::Barrier => "barrier",
            CollOp::Reduce => "reduce",
            CollOp::Gather => "gather",
        }
    }
}

/// OSU collective latency: average per-rank time per operation, µs.
///
/// `size` is the per-rank message size in bytes (matching OSU semantics:
/// for allgather/alltoall it is the contribution per rank).
pub fn latency(spec: &JobSpec, op: CollOp, sizes: &[usize], iters: usize) -> Vec<SizePoint> {
    sizes
        .iter()
        .map(|&size| {
            let r = spec.run(move |mpi| {
                let n = mpi.size();
                let elems = (size / 8).max(1);
                let mine = vec![mpi.rank() as u64; elems];
                // Warm up once (builds queues/windows).
                run_op(mpi, op, &mine, elems, n);
                mpi.barrier();
                let t0 = mpi.now();
                for _ in 0..iters {
                    run_op(mpi, op, &mine, elems, n);
                }
                mpi.now() - t0
            });
            let avg_ns: f64 =
                r.results.iter().map(|t| t.as_ns() as f64).sum::<f64>() / r.results.len() as f64;
            SizePoint::new(
                size,
                us_per_op(SimTime::from_ns(avg_ns as u64), iters as u64),
            )
        })
        .collect()
}

fn run_op(mpi: &mut cmpi_core::Mpi, op: CollOp, mine: &[u64], elems: usize, n: usize) {
    match op {
        CollOp::Bcast => {
            let mut buf = mine.to_vec();
            mpi.bcast(&mut buf, 0);
        }
        CollOp::Allreduce => {
            mpi.allreduce(mine, ReduceOp::Sum);
        }
        CollOp::Allgather => {
            mpi.allgather(mine);
        }
        CollOp::Alltoall => {
            let data = vec![0u64; elems * n];
            mpi.alltoall(&data, elems);
        }
        CollOp::Barrier => {
            mpi.barrier();
        }
        CollOp::Reduce => {
            mpi.reduce(mine, ReduceOp::Sum, 0);
        }
        CollOp::Gather => {
            mpi.gather(mine, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
    use cmpi_core::LocalityPolicy;

    /// 16 ranks: 4 containers x 4 ranks on one host (scaled-down V-C
    /// deployment).
    fn spec(policy: LocalityPolicy) -> JobSpec {
        JobSpec::new(DeploymentScenario::containers(
            1,
            4,
            4,
            NamespaceSharing::default(),
        ))
        .with_policy(policy)
    }

    #[test]
    fn collectives_opt_beats_default() {
        for op in [
            CollOp::Bcast,
            CollOp::Allreduce,
            CollOp::Allgather,
            CollOp::Alltoall,
        ] {
            let o = latency(&spec(LocalityPolicy::ContainerDetector), op, &[1024], 3)[0].value;
            let d = latency(&spec(LocalityPolicy::Hostname), op, &[1024], 3)[0].value;
            assert!(d > o, "{}: def {d}us opt {o}us", op.name());
        }
    }

    #[test]
    fn latency_grows_with_size() {
        let pts = latency(
            &spec(LocalityPolicy::ContainerDetector),
            CollOp::Allreduce,
            &[64, 16384],
            3,
        );
        assert!(pts[0].value < pts[1].value);
    }

    #[test]
    fn extended_ops_run_and_scale() {
        let s = spec(LocalityPolicy::ContainerDetector);
        for op in [CollOp::Barrier, CollOp::Reduce, CollOp::Gather] {
            let pts = latency(&s, op, &[256], 2);
            assert!(pts[0].value > 0.0, "{}", op.name());
        }
    }
}
