//! The container list — the heart of the paper's Container Locality
//! Detector (Section IV-B, Fig. 6) — hardened against segment reuse.
//!
//! A segment named `"locality"` is created in host-wide shared memory
//! (the simulation's `/dev/shm/locality`). It starts with a small header
//! — magic, **job generation**, rank count, checksum — followed by **one
//! byte per global MPI rank**. During initialization every rank validates
//! the header (re-initializing segments left behind by a crashed or
//! previous job) and then writes its *membership byte* at the index of
//! its own global rank with a single compare-and-swap. Because each rank
//! owns exactly one byte and a byte is the smallest lock-free unit of
//! memory access, all co-resident ranks publish concurrently with no
//! lock/unlock overhead; the init lock is touched only during header
//! validation, never on the publish fast path.
//!
//! After the job-wide startup barrier, each rank scans the list: every
//! non-zero position identifies a co-resident rank, the count of non-zero
//! positions is the host-local process count, and the positions
//! themselves provide a canonical local ordering. A one-million-rank job
//! needs only ~1 MB per host, so the structure scales.

use std::fmt;
use std::sync::Arc;

use cmpi_cluster::{ContainerId, HostId, NamespaceId};

use crate::segment::{Segment, ShmRegistry};

/// The name under which the list lives in each host's shared memory.
pub const LOCALITY_SEGMENT: &str = "locality";

/// Header magic: `"CMPL"` little-endian.
pub const LIST_MAGIC: u32 = 0x434d_504c;

/// Generation stamp of the currently running job. Leftover segments from
/// previous jobs carry a different stamp and are re-initialized on
/// attach.
pub const JOB_GENERATION: u64 = 1;

/// Header layout: magic (4) + generation (8) + rank count (8) +
/// FNV-1a checksum over the preceding 20 bytes (4).
const HEADER_LEN: usize = 24;

/// What [`ContainerList::attach_with`] found in the segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttachOutcome {
    /// This rank initialized a brand-new segment.
    Fresh,
    /// A valid current-generation header was already in place.
    Valid,
    /// A structurally valid header from a *different* job generation was
    /// found and the segment was re-initialized.
    RecoveredStale,
    /// The header failed validation (bad magic or checksum) and the
    /// segment was re-initialized.
    RecoveredCorrupt,
}

/// Why a publish was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishError {
    /// The rank index does not fit the list.
    OutOfBounds {
        /// The offending global rank.
        rank: usize,
        /// The list's capacity in ranks.
        num_ranks: usize,
    },
    /// Another rank already claimed this slot with a different
    /// membership byte (conflicting double publish).
    Conflict {
        /// The contested global-rank slot.
        rank: usize,
        /// The byte already stored there.
        existing: u8,
        /// The byte this publish attempted to store.
        attempted: u8,
    },
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::OutOfBounds { rank, num_ranks } => {
                write!(
                    f,
                    "publish of rank {rank} outside a {num_ranks}-rank container list"
                )
            }
            PublishError::Conflict {
                rank,
                existing,
                attempted,
            } => write!(
                f,
                "conflicting publish for rank {rank}: slot holds {existing:#04x}, \
                 attempted {attempted:#04x}"
            ),
        }
    }
}

impl std::error::Error for PublishError {}

/// A rank's handle onto its host's container list.
#[derive(Clone)]
pub struct ContainerList {
    seg: Arc<Segment>,
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn header_bytes(generation: u64, num_ranks: usize) -> [u8; HEADER_LEN] {
    let mut hdr = [0u8; HEADER_LEN];
    hdr[0..4].copy_from_slice(&LIST_MAGIC.to_le_bytes());
    hdr[4..12].copy_from_slice(&generation.to_le_bytes());
    hdr[12..20].copy_from_slice(&(num_ranks as u64).to_le_bytes());
    let sum = fnv1a(&hdr[0..20]);
    hdr[20..24].copy_from_slice(&sum.to_le_bytes());
    hdr
}

impl ContainerList {
    /// Attach to (creating if necessary) the container list for a job
    /// with `num_ranks` total ranks, in the given host/IPC-namespace
    /// scope, validating and if necessary recovering the segment header.
    ///
    /// Ranks that share the scope get the same underlying list; ranks in
    /// private IPC namespaces get their own (and will consequently see
    /// only themselves — exactly how the real design degrades when
    /// `--ipc=host` is missing).
    pub fn attach_with(
        registry: &ShmRegistry,
        host: HostId,
        ipc_ns: NamespaceId,
        num_ranks: usize,
        generation: u64,
    ) -> (Self, AttachOutcome) {
        let seg = registry.open_or_create(host, ipc_ns, LOCALITY_SEGMENT, HEADER_LEN + num_ranks);
        let expected = header_bytes(generation, num_ranks);
        let outcome = seg.with_init_lock(|| {
            let mut found = [0u8; HEADER_LEN];
            seg.read(0, &mut found);
            if found == expected {
                return AttachOutcome::Valid;
            }
            let outcome = if found.iter().all(|&b| b == 0) {
                // Brand-new segment: body is already zero.
                AttachOutcome::Fresh
            } else {
                let magic = u32::from_le_bytes(found[0..4].try_into().unwrap());
                let sum = u32::from_le_bytes(found[20..24].try_into().unwrap());
                let structurally_valid = magic == LIST_MAGIC && sum == fnv1a(&found[0..20]);
                // A well-formed header that isn't ours is a previous
                // job's leftover; anything else is corruption. Either
                // way the body is untrustworthy: wipe it.
                for i in 0..num_ranks {
                    seg.store(HEADER_LEN + i, 0);
                }
                if structurally_valid {
                    AttachOutcome::RecoveredStale
                } else {
                    AttachOutcome::RecoveredCorrupt
                }
            };
            seg.write(0, &expected);
            outcome
        });
        (ContainerList { seg }, outcome)
    }

    /// [`ContainerList::attach_with`] at the current job generation,
    /// discarding the outcome — the common, fault-free entry point.
    pub fn attach(
        registry: &ShmRegistry,
        host: HostId,
        ipc_ns: NamespaceId,
        num_ranks: usize,
    ) -> Self {
        Self::attach_with(registry, host, ipc_ns, num_ranks, JOB_GENERATION).0
    }

    /// Plant a structurally valid container list from a previous job
    /// (`generation` ≠ the attaching job's) with a fully populated body —
    /// the `/dev/shm` litter a crashed job leaves behind. Fault injection
    /// only; must run before any rank attaches.
    pub fn seed_stale(
        registry: &ShmRegistry,
        host: HostId,
        ipc_ns: NamespaceId,
        num_ranks: usize,
        generation: u64,
    ) {
        let seg = registry.open_or_create(host, ipc_ns, LOCALITY_SEGMENT, HEADER_LEN + num_ranks);
        seg.write(0, &header_bytes(generation, num_ranks));
        for i in 0..num_ranks {
            // Deterministic plausible-looking membership bytes.
            seg.store(HEADER_LEN + i, ((i as u32 * 37 + 11) % 254) as u8 + 1);
        }
    }

    /// Plant a corrupt container list: garbage header (bad checksum),
    /// garbage body. Fault injection only; must run before any rank
    /// attaches.
    pub fn seed_corrupt(
        registry: &ShmRegistry,
        host: HostId,
        ipc_ns: NamespaceId,
        num_ranks: usize,
    ) {
        let seg = registry.open_or_create(host, ipc_ns, LOCALITY_SEGMENT, HEADER_LEN + num_ranks);
        let garbage: Vec<u8> = (0..HEADER_LEN)
            .map(|i| ((i as u32 * 151 + 7) % 255) as u8 ^ 0x5a)
            .collect();
        seg.write(0, &garbage);
        for i in 0..num_ranks {
            seg.store(HEADER_LEN + i, ((i as u32 * 91 + 3) % 254) as u8 + 1);
        }
    }

    /// Encode a container's membership byte. Must be non-zero — zero
    /// means "no co-resident rank at this position".
    pub fn membership_byte(container: ContainerId) -> u8 {
        (container.0 % 254) as u8 + 1
    }

    /// Publish this rank's membership: one lock-free compare-and-swap on
    /// the rank's own byte.
    ///
    /// Succeeds when the slot was empty (or already holds exactly this
    /// byte — idempotent republish). Rejects out-of-range ranks and
    /// conflicting double publishes (two ranks claiming one slot) instead
    /// of silently overwriting.
    pub fn publish(&self, global_rank: usize, container: ContainerId) -> Result<(), PublishError> {
        let n = self.num_ranks();
        if global_rank >= n {
            return Err(PublishError::OutOfBounds {
                rank: global_rank,
                num_ranks: n,
            });
        }
        let byte = Self::membership_byte(container);
        match self.seg.compare_exchange(HEADER_LEN + global_rank, 0, byte) {
            Ok(_) => Ok(()),
            Err(existing) if existing == byte => Ok(()),
            Err(existing) => Err(PublishError::Conflict {
                rank: global_rank,
                existing,
                attempted: byte,
            }),
        }
    }

    /// Overwrite a slot unconditionally. The slot's rightful owner uses
    /// this to re-assert its byte after detecting a conflicting claim;
    /// the torn-byte fault injector uses it to plant wrong bytes.
    pub fn force_publish(&self, global_rank: usize, byte: u8) {
        assert!(
            global_rank < self.num_ranks(),
            "force_publish out of bounds"
        );
        self.seg.store(HEADER_LEN + global_rank, byte);
    }

    /// The generation stamp currently in the header.
    pub fn generation(&self) -> u64 {
        let mut g = [0u8; 8];
        self.seg.read(4, &mut g);
        u64::from_le_bytes(g)
    }

    /// The number of ranks the list covers.
    pub fn num_ranks(&self) -> usize {
        self.seg.len() - HEADER_LEN
    }

    /// Scan the list: global ranks that have published here (i.e. are
    /// co-resident and IPC-visible), in ascending global-rank order.
    pub fn local_ranks(&self) -> Vec<usize> {
        (0..self.num_ranks())
            .filter(|&i| self.seg.load(HEADER_LEN + i) != 0)
            .collect()
    }

    /// Host-local process count (paper: "acquired by checking and counting
    /// whether the membership information has been written").
    pub fn local_size(&self) -> usize {
        (0..self.num_ranks())
            .filter(|&i| self.seg.load(HEADER_LEN + i) != 0)
            .count()
    }

    /// The local ordering of `global_rank` among co-resident ranks
    /// (position in the ascending scan), or `None` if it never published.
    pub fn local_ordering(&self, global_rank: usize) -> Option<usize> {
        if self.seg.load(HEADER_LEN + global_rank) == 0 {
            return None;
        }
        Some(
            (0..global_rank)
                .filter(|&i| self.seg.load(HEADER_LEN + i) != 0)
                .count(),
        )
    }

    /// The raw membership byte for a rank (0 = absent).
    pub fn membership_of(&self, global_rank: usize) -> u8 {
        self.seg.load(HEADER_LEN + global_rank)
    }
}

impl std::fmt::Debug for ContainerList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ContainerList({} ranks, {} local)",
            self.num_ranks(),
            self.local_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    impl ContainerList {
        /// `true` when `peer` published on the same list.
        fn is_local(&self, peer: usize) -> bool {
            self.seg.load(HEADER_LEN + peer) != 0
        }
    }

    fn registry() -> ShmRegistry {
        ShmRegistry::new()
    }

    #[test]
    fn paper_figure6_scenario() {
        // 8-rank job; containers A (ranks 0,1), B (rank 4), C (rank 5) on
        // host1; ranks 2,3,6,7 on host2.
        let reg = registry();
        let host1 = ContainerList::attach(&reg, HostId(1), NamespaceId(10), 8);
        let host2 = ContainerList::attach(&reg, HostId(2), NamespaceId(20), 8);
        host1.publish(0, ContainerId(0)).unwrap();
        host1.publish(1, ContainerId(0)).unwrap();
        host1.publish(4, ContainerId(1)).unwrap();
        host1.publish(5, ContainerId(2)).unwrap();
        host2.publish(2, ContainerId(3)).unwrap();
        host2.publish(3, ContainerId(3)).unwrap();
        host2.publish(6, ContainerId(4)).unwrap();
        host2.publish(7, ContainerId(4)).unwrap();

        assert_eq!(host1.local_ranks(), vec![0, 1, 4, 5]);
        assert_eq!(host2.local_ranks(), vec![2, 3, 6, 7]);
        assert_eq!(host1.local_size(), 4);
        // Local ordering is position in the list scan.
        assert_eq!(host1.local_ordering(0), Some(0));
        assert_eq!(host1.local_ordering(1), Some(1));
        assert_eq!(host1.local_ordering(4), Some(2));
        assert_eq!(host1.local_ordering(5), Some(3));
        assert_eq!(host1.local_ordering(2), None);
        // Cross-host ranks are not local.
        assert!(!host1.is_local(2));
        assert!(host1.is_local(4));
    }

    #[test]
    fn ranks_in_private_ipc_namespace_see_only_themselves() {
        let reg = registry();
        let shared = ContainerList::attach(&reg, HostId(0), NamespaceId(1), 4);
        let private = ContainerList::attach(&reg, HostId(0), NamespaceId(2), 4);
        shared.publish(0, ContainerId(0)).unwrap();
        shared.publish(1, ContainerId(1)).unwrap();
        private.publish(2, ContainerId(2)).unwrap();
        assert_eq!(shared.local_ranks(), vec![0, 1]);
        assert_eq!(private.local_ranks(), vec![2]);
    }

    #[test]
    fn membership_byte_is_never_zero() {
        for c in 0..1000u32 {
            assert_ne!(ContainerList::membership_byte(ContainerId(c)), 0);
        }
    }

    #[test]
    fn membership_byte_identifies_container() {
        let reg = registry();
        let l = ContainerList::attach(&reg, HostId(0), NamespaceId(0), 4);
        l.publish(0, ContainerId(7)).unwrap();
        l.publish(1, ContainerId(7)).unwrap();
        l.publish(2, ContainerId(9)).unwrap();
        assert_eq!(l.membership_of(0), l.membership_of(1));
        assert_ne!(l.membership_of(0), l.membership_of(2));
        assert_eq!(l.membership_of(3), 0);
    }

    #[test]
    fn concurrent_lock_free_publication() {
        // All ranks of a large single-host job publish simultaneously —
        // the design's lock-freedom claim.
        let reg = registry();
        let n = 128;
        let list = ContainerList::attach(&reg, HostId(0), NamespaceId(0), n);
        thread::scope(|s| {
            for r in 0..n {
                let list = list.clone();
                s.spawn(move || list.publish(r, ContainerId((r % 4) as u32)).unwrap());
            }
        });
        assert_eq!(list.local_size(), n);
        assert_eq!(list.local_ranks(), (0..n).collect::<Vec<_>>());
        for r in 0..n {
            assert_eq!(list.local_ordering(r), Some(r));
        }
    }

    #[test]
    fn million_rank_list_is_one_megabyte() {
        // The scalability argument from Section IV-B.
        let reg = registry();
        let list = ContainerList::attach(&reg, HostId(0), NamespaceId(0), 1_000_000);
        assert_eq!(list.num_ranks(), 1_000_000);
        list.publish(999_999, ContainerId(3)).unwrap();
        assert_eq!(list.local_ranks(), vec![999_999]);
    }

    #[test]
    fn publish_bounds_checked() {
        let reg = registry();
        let l = ContainerList::attach(&reg, HostId(0), NamespaceId(0), 4);
        assert_eq!(
            l.publish(4, ContainerId(0)),
            Err(PublishError::OutOfBounds {
                rank: 4,
                num_ranks: 4
            })
        );
        assert_eq!(
            l.local_size(),
            0,
            "rejected publish must not touch the list"
        );
    }

    #[test]
    fn conflicting_double_publish_detected() {
        let reg = registry();
        let l = ContainerList::attach(&reg, HostId(0), NamespaceId(0), 4);
        l.publish(1, ContainerId(0)).unwrap();
        // Same byte again: idempotent, fine.
        assert_eq!(l.publish(1, ContainerId(0)), Ok(()));
        // Different container claiming the same slot: conflict.
        let err = l.publish(1, ContainerId(1)).unwrap_err();
        assert!(matches!(err, PublishError::Conflict { rank: 1, .. }));
        // The original byte survived the failed claim.
        assert_eq!(
            l.membership_of(1),
            ContainerList::membership_byte(ContainerId(0))
        );
        // The rightful owner can always re-assert.
        l.force_publish(1, ContainerList::membership_byte(ContainerId(2)));
        assert_eq!(
            l.membership_of(1),
            ContainerList::membership_byte(ContainerId(2))
        );
    }

    #[test]
    fn fresh_then_valid_attach_outcomes() {
        let reg = registry();
        let (a, out_a) =
            ContainerList::attach_with(&reg, HostId(0), NamespaceId(0), 8, JOB_GENERATION);
        assert_eq!(out_a, AttachOutcome::Fresh);
        a.publish(0, ContainerId(0)).unwrap();
        let (b, out_b) =
            ContainerList::attach_with(&reg, HostId(0), NamespaceId(0), 8, JOB_GENERATION);
        assert_eq!(out_b, AttachOutcome::Valid);
        // Second attach preserved the published byte.
        assert_eq!(b.local_ranks(), vec![0]);
        assert_eq!(b.generation(), JOB_GENERATION);
    }

    #[test]
    fn stale_leftover_is_reinitialized_once() {
        let reg = registry();
        ContainerList::seed_stale(&reg, HostId(0), NamespaceId(0), 8, 0xdead);
        let (a, out) =
            ContainerList::attach_with(&reg, HostId(0), NamespaceId(0), 8, JOB_GENERATION);
        assert_eq!(out, AttachOutcome::RecoveredStale);
        assert_eq!(a.local_size(), 0, "previous job's bytes must be wiped");
        assert_eq!(a.generation(), JOB_GENERATION);
        a.publish(3, ContainerId(1)).unwrap();
        // Later attachers see a valid header and must NOT wipe again.
        let (b, out) =
            ContainerList::attach_with(&reg, HostId(0), NamespaceId(0), 8, JOB_GENERATION);
        assert_eq!(out, AttachOutcome::Valid);
        assert_eq!(b.local_ranks(), vec![3]);
    }

    #[test]
    fn corrupt_leftover_is_reinitialized() {
        let reg = registry();
        ContainerList::seed_corrupt(&reg, HostId(0), NamespaceId(0), 8);
        let (a, out) =
            ContainerList::attach_with(&reg, HostId(0), NamespaceId(0), 8, JOB_GENERATION);
        assert_eq!(out, AttachOutcome::RecoveredCorrupt);
        assert_eq!(a.local_size(), 0);
        assert_eq!(a.generation(), JOB_GENERATION);
    }

    /// Exhaustive interleaving checks of the attach/publish protocol (run
    /// via `RUSTFLAGS="--cfg cmpi_model" cargo test -p cmpi-shmem --lib`).
    ///
    /// Setup (seeding, registry creation) happens on the root thread
    /// before any spawn, so only the contended protocol steps branch the
    /// schedule space.
    #[cfg(cmpi_model)]
    mod model {
        use super::*;
        use cmpi_model::model::{thread, Builder};
        use std::sync::Arc;

        /// Under every interleaving of two attachers racing over a stale
        /// leftover segment, exactly one performs the recovery and the
        /// other observes an already-valid header — and the recovered
        /// list is never torn (current generation, fully wiped body).
        #[test]
        fn model_stale_recovery_is_exactly_once_and_untorn() {
            Builder::new().max_executions(400_000).check(|| {
                let reg = Arc::new(ShmRegistry::new());
                ContainerList::seed_stale(&reg, HostId(0), NamespaceId(0), 2, 0xdead);
                let r2 = Arc::clone(&reg);
                let t = thread::spawn(move || {
                    ContainerList::attach_with(&r2, HostId(0), NamespaceId(0), 2, JOB_GENERATION)
                });
                let (a, out_a) =
                    ContainerList::attach_with(&reg, HostId(0), NamespaceId(0), 2, JOB_GENERATION);
                let (_b, out_b) = t.join();
                let recoveries = [out_a, out_b]
                    .iter()
                    .filter(|&&o| o == AttachOutcome::RecoveredStale)
                    .count();
                assert_eq!(recoveries, 1, "outcomes: {out_a:?} / {out_b:?}");
                assert!(
                    [out_a, out_b].contains(&AttachOutcome::Valid),
                    "outcomes: {out_a:?} / {out_b:?}"
                );
                // No torn state survives: our generation, a wiped body.
                assert_eq!(a.generation(), JOB_GENERATION);
                assert_eq!(a.local_size(), 0, "stale membership byte survived");
            });
        }

        /// Two ranks publishing *different* slots concurrently never
        /// interfere (the paper's lock-freedom claim, verified over every
        /// schedule instead of by stress).
        #[test]
        fn model_disjoint_publishes_never_interfere() {
            Builder::new().max_executions(400_000).check(|| {
                let reg = Arc::new(ShmRegistry::new());
                let list = ContainerList::attach(&reg, HostId(0), NamespaceId(0), 2);
                let l2 = list.clone();
                let t = thread::spawn(move || l2.publish(1, ContainerId(1)).unwrap());
                list.publish(0, ContainerId(0)).unwrap();
                t.join();
                assert_eq!(list.local_ranks(), vec![0, 1]);
                assert_eq!(list.local_ordering(1), Some(1));
            });
        }

        /// A duplicate claim on one slot resolves deterministically under
        /// every interleaving: exactly one CAS wins, the loser sees a
        /// `Conflict` carrying the winner's byte, and the owner's
        /// `force_publish` repair sticks.
        #[test]
        fn model_conflicting_publish_resolves_and_repairs() {
            Builder::new().max_executions(400_000).check(|| {
                let reg = Arc::new(ShmRegistry::new());
                let list = ContainerList::attach(&reg, HostId(0), NamespaceId(0), 2);
                let l2 = list.clone();
                let t = thread::spawn(move || l2.publish(0, ContainerId(1)));
                let mine = list.publish(0, ContainerId(0));
                let theirs = t.join();
                let (winner_byte, conflict) = match (mine, theirs) {
                    (Ok(()), Err(e)) => (ContainerList::membership_byte(ContainerId(0)), e),
                    (Err(e), Ok(())) => (ContainerList::membership_byte(ContainerId(1)), e),
                    other => panic!("expected one winner, got {other:?}"),
                };
                match conflict {
                    PublishError::Conflict { rank, existing, .. } => {
                        assert_eq!(rank, 0);
                        assert_eq!(existing, winner_byte, "loser saw a torn byte");
                    }
                    other => panic!("expected Conflict, got {other:?}"),
                }
                assert_eq!(list.membership_of(0), winner_byte);
                // The rightful owner re-asserts; the repair is final.
                list.force_publish(0, ContainerList::membership_byte(ContainerId(7)));
                assert_eq!(
                    list.membership_of(0),
                    ContainerList::membership_byte(ContainerId(7))
                );
            });
        }
    }

    #[test]
    fn concurrent_attach_over_stale_segment_recovers_exactly_once() {
        let reg = registry();
        ContainerList::seed_stale(&reg, HostId(0), NamespaceId(0), 64, 0xdead);
        let outcomes: Vec<AttachOutcome> = thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        ContainerList::attach_with(
                            &reg,
                            HostId(0),
                            NamespaceId(0),
                            64,
                            JOB_GENERATION,
                        )
                        .1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let recovered = outcomes
            .iter()
            .filter(|&&o| o == AttachOutcome::RecoveredStale)
            .count();
        let valid = outcomes
            .iter()
            .filter(|&&o| o == AttachOutcome::Valid)
            .count();
        assert_eq!(recovered, 1, "exactly one attacher performs the recovery");
        assert_eq!(valid, 7, "the rest see the already-recovered header");
    }
}
