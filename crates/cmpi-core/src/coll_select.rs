//! Collective algorithm selection — the collective-layer analogue of
//! [`crate::channel::ChannelSelector`].
//!
//! The channel selector decides *where* one message travels; this module
//! decides *how* one collective is scheduled. The decision is a pure
//! function of job-wide state (locality policy, the group partition the
//! policy induces, message size, tunables), so every rank computes the
//! same answer without communicating — a rank pair disagreeing about the
//! algorithm would deadlock.
//!
//! Three families are selectable:
//!
//! * **Flat**: the MVAPICH2/MPICH defaults (dissemination barrier,
//!   binomial trees, recursive doubling, ring, pairwise) over the scope;
//! * **Two-level**: stage through per-group leaders — host-local fan-in,
//!   inter-leader exchange, host-local fan-out — so the intra-host bulk of
//!   the traffic rides SHM/CMA and only leaders touch the fabric;
//! * **Large**: bandwidth-optimal algorithms (scatter–allgather broadcast,
//!   Rabenseifner allreduce) above `MV2_COLL_LARGE_MSG`.
//!
//! Under the `Hostname` (paper "Default") policy every container looks
//! like its own host, so the partition is flat-degenerate and the
//! selector never picks the two-level family — exactly the paper's
//! locality-oblivious baseline.

use cmpi_cluster::Tunables;

use crate::locality::LocalityPolicy;

/// Which collective a call is (the selector's routing key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Reduce`.
    Reduce,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Gather`.
    Gather,
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Alltoall`.
    Alltoall,
}

impl CollKind {
    /// All kinds in display order.
    pub const ALL: [CollKind; 7] = [
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
        CollKind::Gather,
        CollKind::Allgather,
        CollKind::Alltoall,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            CollKind::Barrier => 0,
            CollKind::Bcast => 1,
            CollKind::Reduce => 2,
            CollKind::Allreduce => 3,
            CollKind::Gather => 4,
            CollKind::Allgather => 5,
            CollKind::Alltoall => 6,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            CollKind::Barrier => "barrier",
            CollKind::Bcast => "bcast",
            CollKind::Reduce => "reduce",
            CollKind::Allreduce => "allreduce",
            CollKind::Gather => "gather",
            CollKind::Allgather => "allgather",
            CollKind::Alltoall => "alltoall",
        }
    }
}

/// Which algorithm family the selector picked for one call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollAlgo {
    /// The flat world-sized default algorithm.
    Flat,
    /// The two-level leader-staged algorithm.
    TwoLevel,
    /// The bandwidth-optimal large-message algorithm.
    Large,
}

impl CollAlgo {
    /// All families in display order.
    pub const ALL: [CollAlgo; 3] = [CollAlgo::Flat, CollAlgo::TwoLevel, CollAlgo::Large];

    pub(crate) fn index(self) -> usize {
        match self {
            CollAlgo::Flat => 0,
            CollAlgo::TwoLevel => 1,
            CollAlgo::Large => 2,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            CollAlgo::Flat => "flat",
            CollAlgo::TwoLevel => "two-level",
            CollAlgo::Large => "large",
        }
    }
}

/// The trace-event label for one (kind, algorithm) pair. Static strings
/// because a [`crate::trace::TraceEvent`] stores a `&'static str` name.
pub fn coll_trace_name(kind: CollKind, algo: CollAlgo) -> &'static str {
    match (kind, algo) {
        (CollKind::Barrier, CollAlgo::TwoLevel) => "barrier-smp",
        (CollKind::Barrier, _) => "barrier",
        (CollKind::Bcast, CollAlgo::TwoLevel) => "bcast-smp",
        (CollKind::Bcast, CollAlgo::Large) => "bcast-sag",
        (CollKind::Bcast, CollAlgo::Flat) => "bcast",
        (CollKind::Reduce, CollAlgo::TwoLevel) => "reduce-smp",
        (CollKind::Reduce, _) => "reduce",
        (CollKind::Allreduce, CollAlgo::TwoLevel) => "allreduce-smp",
        (CollKind::Allreduce, CollAlgo::Large) => "allreduce-raben",
        (CollKind::Allreduce, CollAlgo::Flat) => "allreduce",
        (CollKind::Gather, CollAlgo::TwoLevel) => "gather-smp",
        (CollKind::Gather, _) => "gather",
        (CollKind::Allgather, CollAlgo::TwoLevel) => "allgather-smp",
        (CollKind::Allgather, _) => "allgather",
        (CollKind::Alltoall, CollAlgo::TwoLevel) => "alltoall-smp",
        (CollKind::Alltoall, _) => "alltoall",
    }
}

/// Per-job collective algorithm selector. Built once per job from
/// job-wide state; identical on every rank.
#[derive(Clone, Debug)]
pub(crate) struct CollectiveSelector {
    tunables: Tunables,
    /// The policy's partition is genuinely hierarchical: more than one
    /// group, and at least one group holding more than one rank.
    hierarchical: bool,
    n: usize,
}

impl CollectiveSelector {
    /// Build a selector from the active policy, tunables and the group
    /// partition the policy induces over the `n` ranks
    /// (`collectives::policy_groups_of`).
    pub(crate) fn new(
        policy: LocalityPolicy,
        tunables: Tunables,
        groups: &[Vec<usize>],
        n: usize,
    ) -> Self {
        // Only the container detector exposes trustworthy co-residency;
        // Hostname sees one "host" per container (flat-degenerate) and
        // ForceChannel bypasses locality entirely.
        let hierarchical = matches!(policy, LocalityPolicy::ContainerDetector)
            && groups.len() > 1
            && groups.iter().any(|g| g.len() > 1);
        CollectiveSelector {
            tunables,
            hierarchical,
            n,
        }
    }

    /// Pick the algorithm for one call. `bytes` is the per-rank message
    /// size (the root buffer for rooted ops, the per-rank contribution for
    /// allgather, the per-destination slab for alltoall; 0 for barrier).
    pub(crate) fn select(&self, kind: CollKind, bytes: usize) -> CollAlgo {
        let t = &self.tunables;
        let two_level = self.hierarchical && t.smp_coll_enable;
        match kind {
            CollKind::Bcast => {
                if self.n > 1 && bytes >= t.coll_large_msg {
                    CollAlgo::Large
                } else if two_level && bytes <= t.smp_bcast_threshold {
                    CollAlgo::TwoLevel
                } else {
                    CollAlgo::Flat
                }
            }
            CollKind::Allreduce => {
                if self.n > 1 && self.n.is_power_of_two() && bytes >= t.coll_large_msg {
                    CollAlgo::Large
                } else if two_level && bytes <= t.smp_allreduce_threshold {
                    CollAlgo::TwoLevel
                } else {
                    CollAlgo::Flat
                }
            }
            // The remaining kinds have no large-message variant and no
            // size threshold: leader staging pays off whenever the
            // topology is hierarchical.
            CollKind::Barrier
            | CollKind::Reduce
            | CollKind::Gather
            | CollKind::Allgather
            | CollKind::Alltoall => {
                if two_level {
                    CollAlgo::TwoLevel
                } else {
                    CollAlgo::Flat
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups_two_hosts() -> Vec<Vec<usize>> {
        vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]
    }

    fn groups_flat() -> Vec<Vec<usize>> {
        (0..8).map(|r| vec![r]).collect()
    }

    #[test]
    fn detector_multi_group_goes_two_level() {
        let s = CollectiveSelector::new(
            LocalityPolicy::ContainerDetector,
            Tunables::default(),
            &groups_two_hosts(),
            8,
        );
        for kind in CollKind::ALL {
            assert_eq!(s.select(kind, 1024), CollAlgo::TwoLevel, "{}", kind.name());
        }
    }

    #[test]
    fn hostname_policy_stays_flat() {
        let s = CollectiveSelector::new(
            LocalityPolicy::Hostname,
            Tunables::default(),
            &groups_two_hosts(),
            8,
        );
        for kind in CollKind::ALL {
            assert_eq!(s.select(kind, 1024), CollAlgo::Flat, "{}", kind.name());
        }
    }

    #[test]
    fn degenerate_partitions_stay_flat() {
        // One group per rank (every rank its own host).
        let s = CollectiveSelector::new(
            LocalityPolicy::ContainerDetector,
            Tunables::default(),
            &groups_flat(),
            8,
        );
        assert_eq!(s.select(CollKind::Barrier, 0), CollAlgo::Flat);
        // One group holding everyone (single host).
        let s = CollectiveSelector::new(
            LocalityPolicy::ContainerDetector,
            Tunables::default(),
            &[(0..8).collect::<Vec<_>>()],
            8,
        );
        assert_eq!(s.select(CollKind::Barrier, 0), CollAlgo::Flat);
        assert_eq!(s.select(CollKind::Allreduce, 64), CollAlgo::Flat);
    }

    #[test]
    fn smp_coll_enable_gates_two_level() {
        let selector = |t: Tunables| {
            CollectiveSelector::new(LocalityPolicy::ContainerDetector, t, &groups_two_hosts(), 8)
        };
        let on = selector(Tunables::default());
        let off = selector(Tunables::default().with_smp_coll_enable(false));
        assert_eq!(on.select(CollKind::Bcast, 64), CollAlgo::TwoLevel);
        assert_eq!(off.select(CollKind::Bcast, 64), CollAlgo::Flat);
    }

    #[test]
    fn size_thresholds_demote_to_flat() {
        let t = Tunables::default()
            .with_smp_bcast_threshold(1024)
            .with_smp_allreduce_threshold(512);
        let s =
            CollectiveSelector::new(LocalityPolicy::ContainerDetector, t, &groups_two_hosts(), 8);
        assert_eq!(s.select(CollKind::Bcast, 1024), CollAlgo::TwoLevel);
        assert_eq!(s.select(CollKind::Bcast, 1025), CollAlgo::Flat);
        assert_eq!(s.select(CollKind::Allreduce, 513), CollAlgo::Flat);
        // No threshold applies to the staged-only kinds.
        assert_eq!(s.select(CollKind::Gather, 1 << 20), CollAlgo::TwoLevel);
    }

    #[test]
    fn large_switchover_beats_everything() {
        let t = Tunables::default().with_coll_large_msg(4096);
        let s =
            CollectiveSelector::new(LocalityPolicy::ContainerDetector, t, &groups_two_hosts(), 8);
        assert_eq!(s.select(CollKind::Bcast, 4096), CollAlgo::Large);
        assert_eq!(s.select(CollKind::Allreduce, 8192), CollAlgo::Large);
        // Under Hostname the large algorithms still apply — they are
        // size-based, not locality-based.
        let s = CollectiveSelector::new(
            LocalityPolicy::Hostname,
            Tunables::default().with_coll_large_msg(4096),
            &groups_flat(),
            8,
        );
        assert_eq!(s.select(CollKind::Bcast, 4096), CollAlgo::Large);
    }

    #[test]
    fn rabenseifner_requires_power_of_two() {
        let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let s = CollectiveSelector::new(
            LocalityPolicy::ContainerDetector,
            Tunables::default().with_coll_large_msg(1024),
            &groups,
            6,
        );
        // Non-power-of-two world: allreduce never selects Large.
        assert_eq!(s.select(CollKind::Allreduce, 1 << 20), CollAlgo::Flat);
        // Bcast has no such restriction.
        assert_eq!(s.select(CollKind::Bcast, 1 << 20), CollAlgo::Large);
    }

    #[test]
    fn trace_names_are_distinct_per_family() {
        assert_eq!(
            coll_trace_name(CollKind::Bcast, CollAlgo::TwoLevel),
            "bcast-smp"
        );
        assert_eq!(
            coll_trace_name(CollKind::Bcast, CollAlgo::Large),
            "bcast-sag"
        );
        assert_eq!(
            coll_trace_name(CollKind::Allreduce, CollAlgo::Large),
            "allreduce-raben"
        );
        assert_eq!(
            coll_trace_name(CollKind::Barrier, CollAlgo::Flat),
            "barrier"
        );
    }
}
