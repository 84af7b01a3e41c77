//! Outside-in benchmark of the container-mpi simulator. See `README.md`
//! next to `run.sh` for why each workload and metric exists.

pub mod alloc;
pub mod child;
pub mod cli;
pub mod kernels;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod yardstick;
