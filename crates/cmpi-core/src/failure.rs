//! Failure detection and the fault-tolerant decision log.
//!
//! One structure decides who is dead: the **down table**, the
//! simulation's ground truth of executed deaths. A dying rank records its
//! own death there at its own call boundary (a container kill is one such
//! death per resident rank), and every failure answer the library gives
//! is read from it: the peer a pending operation fails with, the dead set
//! a shrink agrees on, whether a sender stops waiting for a full SHM
//! queue. Beside it sits one view that decides nothing: **the epoch**,
//! how many deaths the table holds, bumped under its lock. A lock-free
//! peek at it lets healthy jobs skip the table, and lets agreement notice
//! that a death landed mid-attempt.
//!
//! Conviction is deterministic in virtual time: a rank that died at
//! virtual time `t` is convicted at `t + lease`, and every operation that
//! completes in error because of the death completes no earlier than the
//! conviction time. Real-time scheduling decides only *when the library
//! learns* (wake-ups ride the mailbox poke protocol); every time-stamped
//! effect is a pure function of virtual quantities.

use std::sync::Arc;

use cmpi_cluster::{MidRunFault, SimTime};
use cmpi_model::sync::{AtomicU64, Mutex, Ordering};

use crate::fasthash::FastMap;

/// The failure-detector lease: a rank whose death is younger than this
/// is not yet convicted. Detection latency for every mid-run fault class
/// is exactly one lease in virtual time.
pub const FAILURE_LEASE: SimTime = SimTime(200_000);

/// A recorded death: when (virtual) and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Death {
    /// The dead rank.
    pub(crate) rank: usize,
    /// Virtual time the rank executed its fate.
    pub(crate) at: SimTime,
    /// The fault class that killed it.
    pub(crate) kind: MidRunFault,
}

impl Death {
    /// The deterministic virtual time at which this death is convicted.
    pub(crate) fn convict_time(&self) -> SimTime {
        SimTime(self.at.0 + FAILURE_LEASE.0)
    }
}

/// The shared failure detector (one per job).
pub(crate) struct FailureDetector {
    /// The down table: every executed death, in the order recorded.
    down: Mutex<Vec<Death>>,
    /// The down table's length, bumped under its lock. Waiters peek this
    /// to skip the table when nothing changed.
    epoch: AtomicU64,
}

impl FailureDetector {
    /// An empty down table.
    pub(crate) fn new() -> Self {
        FailureDetector {
            down: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
        }
    }

    /// Record that `rank` died at virtual time `at` (a repeat is a
    /// no-op). The epoch moves under the table's lock, so a reader that
    /// peeks the new epoch and then reads the table finds the death.
    pub(crate) fn mark_down(&self, rank: usize, at: SimTime, kind: MidRunFault) {
        let mut deaths = self.down.lock();
        if deaths.iter().all(|d| d.rank != rank) {
            deaths.push(Death { rank, at, kind });
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Is `rank` dead, and if so when/how did it die?
    pub(crate) fn is_down(&self, rank: usize) -> Option<Death> {
        self.first_down([rank])
    }

    /// The first of `ranks`, in the order given, that is dead — one hold
    /// of the table's lock however many ranks are asked about.
    pub(crate) fn first_down(&self, ranks: impl IntoIterator<Item = usize>) -> Option<Death> {
        let deaths = self.down.lock();
        ranks
            .into_iter()
            .find_map(|r| deaths.iter().find(|d| d.rank == r).copied())
    }

    /// The whole dead set sorted by rank, with the epoch it is current
    /// for: both are read under one hold of the lock, so the epoch counts
    /// exactly the deaths returned.
    pub(crate) fn snapshot(&self) -> (u64, Vec<Death>) {
        let mut deaths = self.down.lock().clone();
        deaths.sort_by_key(|d| d.rank);
        (deaths.len() as u64, deaths)
    }

    /// Cheap change detector: the number of deaths recorded so far.
    pub(crate) fn epoch(&self) -> u64 {
        // relaxed-ok: a stale epoch only delays the next table read by
        // one wait-loop iteration; the mailbox poke that accompanies every
        // death re-runs the loop promptly.
        self.epoch.load(Ordering::Relaxed)
    }
}

/// A committed shrink decision: the agreed survivors and the context id
/// of their communicator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Decision {
    /// The survivors' world ranks, ascending: the shrunk communicator's
    /// member list, shared by every adopter.
    pub(crate) survivors: Arc<Vec<usize>>,
    /// Fresh context id for the shrunk communicator.
    pub(crate) new_ctx: u32,
    /// Virtual decision time: every adopter advances to at least this.
    pub(crate) at: SimTime,
}

/// Write-once log of shrink decisions, keyed by `(parent ctx, shrink
/// generation)`. The committing root's record wins; a root that dies
/// right after committing leaves the record behind, so its successor (and
/// every restarted participant) adopts the *same* decision instead of
/// deciding again — this is what makes the agreement protocol tolerate
/// failures during agreement without ever splitting the membership.
pub(crate) struct DecisionLog {
    map: Mutex<FastMap<(u32, u64), Arc<Decision>>>,
}

impl Default for DecisionLog {
    fn default() -> Self {
        DecisionLog {
            map: Mutex::new(FastMap::default()),
        }
    }
}

impl DecisionLog {
    /// Commit `decision` for `key` unless one is already committed;
    /// returns the winning record either way.
    pub(crate) fn commit(&self, key: (u32, u64), decision: Decision) -> Arc<Decision> {
        let mut map = self.map.lock();
        map.entry(key).or_insert_with(|| Arc::new(decision)).clone()
    }

    /// The committed decision for `key`, if any.
    pub(crate) fn get(&self, key: (u32, u64)) -> Option<Arc<Decision>> {
        self.map.lock().get(&key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks(deaths: &[Death]) -> Vec<usize> {
        deaths.iter().map(|d| d.rank).collect()
    }

    #[test]
    fn conviction_is_lease_after_death() {
        let fd = FailureDetector::new();
        assert!(fd.is_down(2).is_none());
        fd.mark_down(2, SimTime(1_000), MidRunFault::Crash);
        let d = fd.is_down(2).unwrap();
        assert_eq!(d.at, SimTime(1_000));
        assert_eq!(d.convict_time(), SimTime(1_000 + FAILURE_LEASE.0));
        // Marking again is a no-op: the first death stands, the epoch
        // does not move.
        fd.mark_down(2, SimTime(2_000), MidRunFault::Hang);
        assert_eq!(fd.is_down(2).unwrap().at, SimTime(1_000));
        assert_eq!(fd.epoch(), 1);
    }

    #[test]
    fn each_death_is_one_epoch_and_the_snapshot_is_sorted_by_rank() {
        let fd = FailureDetector::new();
        assert_eq!(fd.snapshot(), (0, vec![]));
        // A container kill: every resident rank records its own death.
        for r in [6, 4, 7, 5] {
            fd.mark_down(r, SimTime(50), MidRunFault::ContainerKill);
        }
        assert_eq!(fd.epoch(), 4);
        let (epoch, dead) = fd.snapshot();
        assert_eq!(epoch, 4);
        assert_eq!(ranks(&dead), vec![4, 5, 6, 7]);
    }

    #[test]
    fn first_down_answers_in_the_order_asked() {
        let fd = FailureDetector::new();
        fd.mark_down(7, SimTime(10), MidRunFault::Crash);
        fd.mark_down(3, SimTime(20), MidRunFault::Hang);
        assert_eq!(fd.first_down([1, 7, 3]).unwrap().rank, 7);
        assert_eq!(fd.first_down([3, 7]).unwrap().rank, 3);
        assert!(fd.first_down([0, 1, 2]).is_none());
        assert!(fd.first_down([]).is_none());
    }

    #[test]
    fn decision_log_is_write_once() {
        let log = DecisionLog::default();
        assert!(log.get((1, 0)).is_none());
        let first = log.commit(
            (1, 0),
            Decision {
                survivors: Arc::new(vec![0, 1, 3]),
                new_ctx: 40,
                at: SimTime(9_000),
            },
        );
        // A later (would-be conflicting) commit adopts the first record.
        let second = log.commit(
            (1, 0),
            Decision {
                survivors: Arc::new(vec![0, 1]),
                new_ctx: 41,
                at: SimTime(9_500),
            },
        );
        assert_eq!(first, second);
        assert_eq!(log.get((1, 0)).unwrap().new_ctx, 40);
        // A different generation is an independent slot.
        assert!(log.get((1, 1)).is_none());
    }
}

/// Exhaustive interleaving checks for the down table and its epoch (run
/// with `RUSTFLAGS="--cfg cmpi_model" cargo test -p cmpi-core --lib`).
#[cfg(all(test, cmpi_model))]
mod model {
    use super::*;
    use cmpi_model::model::{thread, Builder};

    /// The healthy-path gate never hides a death: a reader whose relaxed
    /// epoch peek sees a death finds it in the table, and a snapshot's
    /// epoch counts exactly the deaths it returns, under every
    /// interleaving with the marking rank.
    #[test]
    fn model_epoch_peek_never_hides_a_recorded_death() {
        Builder::new().max_executions(2_000).check(|| {
            let fd = Arc::new(FailureDetector::new());
            let fd1 = fd.clone();
            let t = thread::spawn(move || fd1.mark_down(1, SimTime(10), MidRunFault::Crash));
            if fd.epoch() != 0 {
                assert!(fd.is_down(1).is_some(), "epoch moved, table empty");
            }
            let (epoch, dead) = fd.snapshot();
            assert_eq!(epoch, dead.len() as u64);
            t.join();
            assert_eq!(fd.snapshot(), (1, vec![fd.is_down(1).unwrap()]));
        });
    }

    /// Two ranks dying at once are both recorded, once each: every
    /// survivor's snapshot afterwards is the same two deaths at epoch 2,
    /// and a dying rank's own snapshot always holds its death.
    #[test]
    fn model_concurrent_deaths_are_all_recorded() {
        Builder::new().max_executions(2_000).check(|| {
            let fd = Arc::new(FailureDetector::new());
            let spawn = |rank: usize| {
                let fd = fd.clone();
                thread::spawn(move || {
                    fd.mark_down(rank, SimTime(10), MidRunFault::Crash);
                    let (epoch, dead) = fd.snapshot();
                    assert!(epoch >= 1 && dead.iter().any(|d| d.rank == rank));
                })
            };
            let (t1, t2) = (spawn(1), spawn(2));
            t1.join();
            t2.join();
            let (epoch, dead) = fd.snapshot();
            assert_eq!(
                (epoch, dead.iter().map(|d| d.rank).collect()),
                (2, vec![1, 2])
            );
            assert_eq!(fd.epoch(), 2, "a death's epoch bump was lost");
        });
    }
}
