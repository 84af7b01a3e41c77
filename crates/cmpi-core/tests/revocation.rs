//! What one revocation costs: the originator pushes one notice into
//! each other member's mailbox, and a member that receives it forwards
//! nothing.

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
use cmpi_core::{ExecMode, JobSpec, ANY_SOURCE, ANY_TAG};

const RANKS: u64 = 64;

/// Mailbox pushes of a 64-rank job on one worker: every rank reports to
/// rank 0, then, with `revoke`, rank 0 revokes the world and every
/// member polls until the notice has reached it. Also returns the job's
/// revocation count.
fn pushes(revoke: bool) -> (u64, u64) {
    let scenario = DeploymentScenario::containers(4, 4, 4, NamespaceSharing::default());
    let spec = JobSpec::new(scenario)
        .with_exec(ExecMode::Tasks)
        .with_workers(1)
        .with_profiling();
    let r = spec.run(|mpi| {
        let world = mpi.comm_world();
        // No member is inside a world operation once rank 0 has heard
        // from all of them, so the revocation fails none.
        if mpi.rank() == 0 {
            for _ in 1..RANKS {
                mpi.recv_bytes(ANY_SOURCE, 1);
            }
        } else {
            mpi.send_bytes(Bytes::new(), 0, 1);
        }
        if revoke {
            if mpi.rank() == 0 {
                mpi.revoke(&world);
            }
            // Handling the notice is what would forward it, so every
            // member handles it before the job ends.
            while !mpi.is_revoked(&world) {
                if mpi.iprobe(ANY_SOURCE, ANY_TAG).is_none() {
                    mpi.idle_wait();
                }
            }
        }
    });
    let queue = r.profile.expect("profiling was enabled").queue;
    (queue.mailbox_pushes, r.stats.recovery().revokes)
}

#[test]
fn a_revocation_costs_one_push_per_other_member() {
    let (quiet, none) = pushes(false);
    let (revoked, revokes) = pushes(true);
    assert_eq!(none, 0);
    // Every member records the revocation once, originator included.
    assert_eq!(revokes, RANKS);
    assert_eq!(
        revoked - quiet,
        RANKS - 1,
        "{quiet} pushes without, {revoked} with"
    );
}
