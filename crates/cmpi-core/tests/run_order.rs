//! Run-order golden for the execution engine: the order in which one
//! worker runs a job's ranks, pinned as a tested invariant.
//!
//! Virtual time reaches the run order through the HCA link schedule,
//! which reserves gaps first-fit in real post order; a scheduler change
//! that reorders ranks on one worker can therefore move two-host virtual
//! times even when every message is the same. Each job below runs as
//! fibers on one worker, and after every blocking call each rank appends
//! `(rank, call#)` to one shared log. The log's length and FNV-1a pin the
//! interleaving itself, so a change to the run queues, the handoff or the
//! wake path that reorders ranks fails here by name.
//!
//! The constants were recorded before the scheduler's single-lock
//! reschedule path was introduced. They change only in a PR that means
//! to change the run order (and then re-records `coll_golden` too).

use std::sync::Mutex;

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
use cmpi_core::{ExecMode, JobSpec, LocalityPolicy, Mpi, ReduceOp};

/// The interleaving of one job: every rank's completed blocking calls in
/// the order the worker ran them.
struct RunLog(Mutex<Vec<(u32, u32)>>);

impl RunLog {
    fn new() -> Self {
        RunLog(Mutex::new(Vec::new()))
    }

    /// Record that `mpi`'s rank just returned from its `call`-th blocking
    /// call, and count it.
    fn mark(&self, mpi: &Mpi, call: &mut u32) {
        self.0.lock().unwrap().push((mpi.rank() as u32, *call));
        *call += 1;
    }

    /// `(length, FNV-1a)` of the log.
    fn digest(self) -> (usize, u64) {
        let log = self.0.into_inner().unwrap();
        let hash = log
            .iter()
            .flat_map(|&(r, c)| r.to_le_bytes().into_iter().chain(c.to_le_bytes()))
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        (log.len(), hash)
    }
}

fn one_worker(spec: JobSpec) -> JobSpec {
    spec.with_exec(ExecMode::Tasks).with_workers(1)
}

/// Two co-resident containers, 64 round trips of a 1 KiB SHM eager
/// message.
#[test]
fn shm_eager_ping_pong() {
    let log = RunLog::new();
    let scn = DeploymentScenario::pt2pt_pair(true, true, NamespaceSharing::default());
    one_worker(JobSpec::new(scn)).run(|mpi| {
        let peer = 1 - mpi.rank();
        let msg = vec![7u8; 1024];
        let mut buf = vec![0u8; 1024];
        let mut call = 0;
        for _ in 0..64 {
            if mpi.rank() == 0 {
                mpi.send(&msg, peer, 0);
                log.mark(mpi, &mut call);
                mpi.recv(&mut buf, peer, 0);
                log.mark(mpi, &mut call);
            } else {
                mpi.recv(&mut buf, peer, 0);
                log.mark(mpi, &mut call);
                mpi.send(&msg, peer, 0);
                log.mark(mpi, &mut call);
            }
        }
    });
    assert_eq!(log.digest(), (256, 2_180_273_340_603_194_149));
}

/// 32 ranks in `containers(2, 2, 8)`: 4 steps of 16 out-of-order
/// receives and 16 sends of 1 KiB over offsets 1/2/4/8, then a
/// 256-element allreduce and a barrier.
#[test]
fn mixed_steps_on_two_hosts() {
    let log = RunLog::new();
    let scn = DeploymentScenario::containers(2, 2, 8, NamespaceSharing::default());
    one_worker(JobSpec::new(scn)).run(|mpi| {
        let (n, me) = (mpi.size(), mpi.rank());
        let payload = Bytes::from(vec![42u8; 1024]);
        let mut call = 0;
        for _ in 0..4 {
            let mut recvs = Vec::new();
            for d in [8, 4, 2, 1] {
                for w in (0..4).rev() {
                    recvs.push(mpi.irecv_bytes((me + n - d) % n, w));
                }
            }
            let mut sends = Vec::new();
            for d in [1, 2, 4, 8] {
                for w in 0..4 {
                    sends.push(mpi.isend_bytes(payload.clone(), (me + d) % n, w));
                }
            }
            for req in recvs.into_iter().chain(sends) {
                mpi.wait(req);
                log.mark(mpi, &mut call);
            }
            mpi.allreduce(&vec![me as u64; 256], ReduceOp::Sum);
            log.mark(mpi, &mut call);
            mpi.barrier();
            log.mark(mpi, &mut call);
        }
    });
    assert_eq!(log.digest(), (4_352, 15_189_790_439_566_301_573));
}

/// 16 ranks in `containers(2, 2, 4)` under hostname routing: a 4 KiB
/// allreduce, then a 128 KiB bcast.
#[test]
fn hostname_routed_collectives() {
    let log = RunLog::new();
    let scn = DeploymentScenario::containers(2, 2, 4, NamespaceSharing::default());
    let spec = JobSpec::new(scn).with_policy(LocalityPolicy::Hostname);
    one_worker(spec).run(|mpi| {
        let mut call = 0;
        mpi.allreduce(&vec![mpi.rank() as u64; 512], ReduceOp::Sum);
        log.mark(mpi, &mut call);
        let mut buf = vec![mpi.rank() as u64; 16 * 1024];
        mpi.bcast(&mut buf, 0);
        log.mark(mpi, &mut call);
    });
    assert_eq!(log.digest(), (32, 4_793_367_818_264_636_933));
}
