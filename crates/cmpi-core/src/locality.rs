//! Locality policies and the Container Locality Detector.
//!
//! The *policy* decides which peers the library treats as local; the
//! kernel-facility gating in [`cmpi_shmem::visibility`] decides what is
//! physically possible. The paper's insight is exactly the gap between the
//! two: with the default **hostname policy**, co-resident containers have
//! different hostnames and are treated as remote even though SHM/CMA would
//! work; the **container detector** recovers the truth from the shared
//! container list.

use cmpi_cluster::{Channel, Cluster, ContainerId, FaultPlan, Placement};
use cmpi_shmem::locality_list::{AttachOutcome, PublishError, JOB_GENERATION};
use cmpi_shmem::visibility::effective_visibility;
use cmpi_shmem::{ContainerList, ShmRegistry, Visibility};
use std::sync::Arc;

/// How the library decides peer locality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalityPolicy {
    /// Stock MVAPICH2 behaviour: peers are local iff their (UTS)
    /// hostnames match. Defeated by per-container hostnames — the paper's
    /// "Default" configuration.
    Hostname,
    /// The paper's design: co-residence discovered at `MPI_Init` through
    /// the shared container list — the "Proposed"/"Opt" configuration.
    ContainerDetector,
    /// Force all traffic onto one channel regardless of size thresholds
    /// (the Fig. 3(b)(c) channel microbenchmarks). Locality itself is
    /// resolved via the container detector.
    ForceChannel(Channel),
}

impl LocalityPolicy {
    /// Short label used by the benchmark harness ("Def"/"Opt").
    pub fn label(self) -> &'static str {
        match self {
            LocalityPolicy::Hostname => "Def",
            LocalityPolicy::ContainerDetector => "Opt",
            LocalityPolicy::ForceChannel(Channel::Shm) => "SHM",
            LocalityPolicy::ForceChannel(Channel::Cma) => "CMA",
            LocalityPolicy::ForceChannel(Channel::Hca) => "HCA",
        }
    }
}

/// Why the detector refused intra-host channels for a peer that the
/// placement says should have been reachable through them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DowngradeReason {
    /// The peer never published its membership byte (wedged in container
    /// startup) although the segment was reachable.
    Unpublished,
    /// The peer's slot holds a byte that does not match its container —
    /// a torn or conflicting write survived.
    CorruptByte,
    /// Kernel namespace ground truth contradicts the placement: the
    /// peer's container lost its shared IPC/PID namespaces (restarted
    /// without `--ipc=host`/`--pid=host`).
    GatingMismatch,
}

impl DowngradeReason {
    /// Stable label for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            DowngradeReason::Unpublished => "unpublished",
            DowngradeReason::CorruptByte => "corrupt-byte",
            DowngradeReason::GatingMismatch => "gating-mismatch",
        }
    }
}

/// Everything a rank knows about one peer after initialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerInfo {
    /// Does the active policy consider the peer local?
    pub considered_local: bool,
    /// What the kernel would permit (ground-truth namespace gating).
    pub vis: Visibility,
    /// Pinned to the same socket (affects copy costs).
    pub same_socket: bool,
    /// Set when the placement expected intra-host reachability but the
    /// detector's cross-check forced the peer onto the HCA.
    pub downgraded: Option<DowngradeReason>,
}

/// What phase-1 publication observed and repaired.
#[derive(Clone, Copy, Debug)]
pub struct PublishReport {
    /// What the header validation found on attach.
    pub outcome: AttachOutcome,
}

/// Everything about a peer that depends only on *which containers* the
/// two ranks occupy, not on the ranks themselves.
#[derive(Clone, Copy, Debug)]
struct PairVis {
    /// What the kernel permits after the fault plan's revocations.
    vis: Visibility,
    /// The placement put the pair in one IPC namespace on one host, so
    /// the peer's byte belongs on this rank's list.
    placed_shm: bool,
    hostname_eq: bool,
}

/// Rank-count-independent locality ground truth, computed **once per
/// job** (fault plan included) and shared by every rank's view. A job
/// with `n` ranks has far fewer containers than ranks (`C ≪ n`), and
/// every per-peer fact the detector's cross-check needs — effective and
/// placed visibility, hostname equality, the expected membership byte —
/// is a pure function of the *container pair*; the only per-peer input
/// left is the byte the peer published.
#[derive(Debug)]
pub struct LocalityMap {
    n_conts: usize,
    /// rank → raw host id.
    host: Box<[u32]>,
    /// rank → raw socket id.
    socket: Box<[u32]>,
    /// rank → raw container id (dense: containers index the pair table).
    cont: Box<[u32]>,
    /// Every rank, grouped by host and ascending within a host.
    by_host: Box<[u32]>,
    /// host → offset of its ranks in `by_host`; entry `h + 1` ends them.
    host_start: Box<[u32]>,
    /// Row-major `C × C` container-pair table.
    pair: Box<[PairVis]>,
    /// container → the membership byte its ranks publish.
    expected_byte: Box<[u8]>,
    /// container → runs inside a real container (per-call tax).
    in_container: Box<[bool]>,
}

impl LocalityMap {
    /// The shared tables of a fault-free job.
    pub fn build(cluster: &Cluster, placement: &Placement) -> LocalityMap {
        Self::with_faults(cluster, placement, &FaultPlan::none())
    }

    /// Precompute the shared tables for one job under `plan`'s namespace
    /// revocations. `O(n + C²)`.
    pub(crate) fn with_faults(
        cluster: &Cluster,
        placement: &Placement,
        plan: &FaultPlan,
    ) -> LocalityMap {
        let n = placement.num_ranks();
        let n_conts = cluster.containers.len();
        let mut host = Vec::with_capacity(n);
        let mut socket = Vec::with_capacity(n);
        let mut cont = Vec::with_capacity(n);
        // rank → index among its host's ranks, rank-ascending.
        let mut host_rank_idx = Vec::with_capacity(n);
        // Per-host counts at `h + 1`, prefix-summed into offsets below.
        let mut host_start = vec![0u32; cluster.hosts.len() + 1];
        for r in 0..n {
            let loc = placement.loc(r);
            host.push(loc.host.0);
            socket.push(loc.socket.0);
            cont.push(loc.container.0);
            host_rank_idx.push(host_start[loc.host.0 as usize + 1]);
            host_start[loc.host.0 as usize + 1] += 1;
        }
        for h in 1..host_start.len() {
            host_start[h] += host_start[h - 1];
        }
        let mut by_host = vec![0u32; n];
        for r in 0..n {
            by_host[(host_start[host[r] as usize] + host_rank_idx[r]) as usize] = r as u32;
        }
        // The placement's own visibility: the same relation under no
        // revocations.
        let placed = FaultPlan::none();
        let mut pair = Vec::with_capacity(n_conts * n_conts);
        for a in &cluster.containers {
            for b in &cluster.containers {
                let hostname_eq = a.hostname == b.hostname;
                // A hostname is per container, or per host for native
                // ranks, so the hostname policy never finds a local peer
                // off the host — which is what lets a scan visit only
                // its own host's ranks.
                assert!(
                    !hostname_eq || a.host == b.host,
                    "{} and {} share hostname {:?} across hosts",
                    a.id,
                    b.id,
                    a.hostname
                );
                pair.push(PairVis {
                    vis: effective_visibility(cluster, plan, a.id, b.id),
                    placed_shm: effective_visibility(cluster, &placed, a.id, b.id).shm,
                    hostname_eq,
                });
            }
        }
        LocalityMap {
            n_conts,
            host: host.into(),
            socket: socket.into(),
            cont: cont.into(),
            by_host: by_host.into(),
            host_start: host_start.into(),
            pair: pair.into(),
            expected_byte: (0..n_conts)
                .map(|i| ContainerList::membership_byte(ContainerId(i as u32)))
                .collect(),
            in_container: cluster.containers.iter().map(|c| !c.native).collect(),
        }
    }

    /// The pair-table entry for two containers.
    fn pair(&self, a: u32, b: u32) -> PairVis {
        self.pair[a as usize * self.n_conts + b as usize]
    }

    /// Same-socket relation (mirrors [`Placement::same_socket`]).
    fn same_socket(&self, a: usize, b: usize) -> bool {
        self.host[a] == self.host[b] && self.socket[a] == self.socket[b]
    }

    /// The ranks placed on `rank`'s host, ascending (`rank` included).
    pub(crate) fn host_ranks(&self, rank: usize) -> &[u32] {
        let h = self.host[rank] as usize;
        &self.by_host[self.host_start[h] as usize..self.host_start[h + 1] as usize]
    }

    /// Whether the placement put the two ranks in one IPC namespace on
    /// one host (so each one's byte belongs on the other's list).
    pub(crate) fn placed_shm(&self, a: usize, b: usize) -> bool {
        self.pair(self.cont[a], self.cont[b]).placed_shm
    }
}

/// A rank's resolved locality knowledge: the local ranks and downgrades
/// its scan found, every other per-peer answer derived on demand from
/// the job-shared [`LocalityMap`]. Nothing in it grows with the job.
#[derive(Clone, Debug)]
pub struct LocalityView {
    rank: usize,
    /// Ranks the policy considers local, ascending (includes self).
    local_ranks: Vec<usize>,
    /// Position of this rank within `local_ranks`.
    local_ordering: usize,
    /// Peers the cross-check took off SHM/CMA, rank-ascending.
    downgrades: Vec<(usize, DowngradeReason)>,
    map: Arc<LocalityMap>,
}

impl LocalityView {
    /// Phase 1 of detection (before the job barrier): attach the host's
    /// container list and publish this rank's membership byte.
    ///
    /// Runs unconditionally — the list is cheap and harmless under the
    /// hostname policy, mirroring how MVAPICH2-Virt keeps the detector
    /// always-on.
    pub fn publish(
        registry: &ShmRegistry,
        cluster: &Cluster,
        placement: &Placement,
        rank: usize,
    ) -> ContainerList {
        Self::publish_with(registry, cluster, placement, rank, &FaultPlan::none()).0
    }

    /// Fault-aware phase 1: attach (validating and recovering the segment
    /// header), then publish — or, per `plan`, stay silent, tear the
    /// byte, or additionally claim another rank's slot.
    ///
    /// The list is attached in the container's *effective* IPC namespace:
    /// a container whose `--ipc=host` sharing was revoked lands on a
    /// private segment and consequently discovers only itself.
    pub fn publish_with(
        registry: &ShmRegistry,
        cluster: &Cluster,
        placement: &Placement,
        rank: usize,
        plan: &FaultPlan,
    ) -> (ContainerList, PublishReport) {
        let loc = placement.loc(rank);
        let cont = cluster.container(loc.container);
        let (list, outcome) = ContainerList::attach_with(
            registry,
            loc.host,
            plan.effective_ipc_ns(cont),
            placement.num_ranks(),
            JOB_GENERATION,
        );
        let my_byte = ContainerList::membership_byte(cont.id);
        if plan.publish_omitted(rank) {
            // Wedged in container startup: the byte never appears.
        } else if plan.publish_torn(rank) {
            // A torn write: a plausible value from the valid range but the
            // wrong container's byte. 255-b stays in [1,254] and never
            // equals b.
            list.force_publish(rank, 255 - my_byte);
        } else {
            match list.publish(rank, cont.id) {
                Ok(()) => {}
                // A duplicate claim beat us to our own slot; the
                // post-barrier repair pass re-asserts it.
                Err(PublishError::Conflict { .. }) => {}
                Err(e @ PublishError::OutOfBounds { .. }) => {
                    panic!("container-list publish: {e}")
                }
            }
        }
        if let Some(victim) = plan.duplicate_claim_of(rank) {
            // Only a co-resident victim attaches this host's list and can
            // repair its slot, so a claim on a remote rank is not made.
            if victim != rank && victim < list.num_ranks() && placement.same_host(rank, victim) {
                // Unconditional store so the final pre-barrier state does
                // not depend on thread arrival order: whichever of the
                // victim's CAS and this store runs last, the slot holds
                // the attacker's byte at the barrier.
                list.force_publish(victim, my_byte);
            }
        }
        (list, PublishReport { outcome })
    }

    /// Post-barrier repair pass: re-assert this rank's own membership
    /// byte if a conflicting (duplicate) claim overwrote it. Returns the
    /// number of conflicts repaired (0 or 1). Must run between two
    /// job-wide barriers so every rank's phase-1 writes are visible and
    /// no rank scans before repairs land.
    pub fn repair_own_slot(
        list: &ContainerList,
        cluster: &Cluster,
        placement: &Placement,
        rank: usize,
        plan: &FaultPlan,
    ) -> u64 {
        if plan.publish_omitted(rank) || plan.publish_torn(rank) {
            // A silent rank wrote nothing to repair; a torn writer does
            // not know its byte is wrong.
            return 0;
        }
        let cont = cluster.container(placement.loc(rank).container);
        let my_byte = ContainerList::membership_byte(cont.id);
        if list.membership_of(rank) != my_byte {
            list.force_publish(rank, my_byte);
            1
        } else {
            0
        }
    }

    /// Phase 2 for one rank outside a job: build a fault-free
    /// [`LocalityMap`] and scan against it (what a job's ranks do with
    /// the job's map).
    pub fn build(
        policy: LocalityPolicy,
        cluster: &Cluster,
        placement: &Placement,
        rank: usize,
        list: &ContainerList,
    ) -> LocalityView {
        let map = Arc::new(LocalityMap::build(cluster, placement));
        Self::scan(policy, &map, rank, list)
    }

    /// Phase 2 (after the job barrier): resolve every rank placed on this
    /// rank's host under `policy`. The detector *cross-checks* each
    /// peer's published byte against placement ground truth and the
    /// kernel's effective namespace gating, and downgrades a peer that
    /// fails the check to the HCA instead of aborting.
    ///
    /// Ranks on other hosts are never visited: their bytes live on other
    /// hosts' segments and their hostnames differ, so every policy finds
    /// them remote without a downgrade. Each peer's [`PeerInfo::vis`] is
    /// the *effective* visibility from `map`, so the channel selector can
    /// never pick SHM/CMA where the kernel would refuse them.
    pub(crate) fn scan(
        policy: LocalityPolicy,
        map: &Arc<LocalityMap>,
        rank: usize,
        list: &ContainerList,
    ) -> LocalityView {
        let myc = map.cont[rank];
        let mut local_ranks = Vec::new();
        let mut downgrades = Vec::new();
        for &peer in map.host_ranks(rank) {
            let peer = peer as usize;
            let pc = map.cont[peer];
            let pair = map.pair(myc, pc);
            let (local, downgraded) = match policy {
                LocalityPolicy::Hostname => (pair.hostname_eq, None),
                LocalityPolicy::ContainerDetector | LocalityPolicy::ForceChannel(_) => {
                    let byte = list.membership_of(peer);
                    Self::cross_check(rank, peer, byte, map.expected_byte[pc as usize], pair)
                }
            };
            if local {
                local_ranks.push(peer);
            }
            if let Some(reason) = downgraded {
                downgrades.push((peer, reason));
            }
        }
        let local_ordering = local_ranks
            .iter()
            .position(|&p| p == rank)
            .expect("rank missing from its own locality set");
        LocalityView {
            rank,
            local_ranks,
            local_ordering,
            downgrades,
            map: Arc::clone(map),
        }
    }

    /// The detector's per-peer cross-check of the byte `actual` the peer
    /// left on this rank's list: a peer is local only when the byte
    /// exists, equals its container's `expected` byte, and the kernel
    /// still permits at least one intra-host facility. Anything else
    /// that the placement *expected* to be local is a downgrade, not an
    /// abort.
    fn cross_check(
        rank: usize,
        peer: usize,
        actual: u8,
        expected: u8,
        pair: PairVis,
    ) -> (bool, Option<DowngradeReason>) {
        if peer == rank {
            return (true, None);
        }
        let vis = pair.vis;
        if actual == 0 {
            // Never published on our segment.
            if !pair.placed_shm {
                // Cross-host or never-shared: absence is normal.
                (false, None)
            } else if !vis.shm {
                // Placement said shared, the kernel says otherwise: the
                // peer's namespaces were revoked and it publishes to a
                // private segment.
                (false, Some(DowngradeReason::GatingMismatch))
            } else {
                (false, Some(DowngradeReason::Unpublished))
            }
        } else if actual != expected {
            (false, Some(DowngradeReason::CorruptByte))
        } else if !vis.shm && !vis.cma {
            (false, Some(DowngradeReason::GatingMismatch))
        } else {
            (true, None)
        }
    }

    /// This rank's global rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Peer knowledge, assembled on demand from the job-wide map.
    /// `local_ranks` and `downgrades` are host-bounded (≤ ranks-per-host),
    /// so each search is a handful of compares.
    pub fn peer(&self, peer: usize) -> PeerInfo {
        let map = &*self.map;
        PeerInfo {
            considered_local: peer == self.rank || self.local_ranks.binary_search(&peer).is_ok(),
            vis: map.pair(map.cont[self.rank], map.cont[peer]).vis,
            same_socket: self.same_socket(peer),
            downgraded: self
                .downgrades
                .binary_search_by_key(&peer, |&(p, _)| p)
                .ok()
                .map(|i| self.downgrades[i].1),
        }
    }

    /// [`PeerInfo::same_socket`] alone: two table reads, no searches.
    pub fn same_socket(&self, peer: usize) -> bool {
        self.map.same_socket(self.rank, peer)
    }

    /// Ranks considered local (includes self), ascending.
    pub fn local_ranks(&self) -> &[usize] {
        &self.local_ranks
    }

    /// Host-local process count under the active policy.
    pub fn local_size(&self) -> usize {
        self.local_ranks.len()
    }

    /// This rank's local ordering (paper: position in the container list).
    pub fn local_ordering(&self) -> usize {
        self.local_ordering
    }

    /// Whether per-call container overhead applies to this rank.
    pub fn in_container(&self) -> bool {
        self.map.in_container[self.map.cont[self.rank] as usize]
    }

    /// Peers this rank downgraded to the HCA, with the reason,
    /// rank-ascending.
    pub fn downgraded_peers(&self) -> impl Iterator<Item = (usize, DowngradeReason)> + '_ {
        self.downgrades.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_cluster::{DeploymentScenario, NamespaceSharing};
    use proptest::prelude::*;

    impl LocalityView {
        /// Number of peers downgraded to the HCA.
        fn num_downgraded(&self) -> u64 {
            self.downgraded_peers().count() as u64
        }

        /// The downgrades as reportable `MpiError` diagnostics.
        fn degradation_errors(&self) -> Vec<crate::error::MpiError> {
            use crate::error::MpiError;
            self.downgraded_peers()
                .map(|(peer, reason)| match reason {
                    DowngradeReason::Unpublished => MpiError::PeerUnpublished { peer },
                    DowngradeReason::CorruptByte | DowngradeReason::GatingMismatch => {
                        MpiError::ChannelDowngraded { peer }
                    }
                })
                .collect()
        }
    }

    /// Publish all ranks, then build one rank's view.
    fn detect_all(s: &DeploymentScenario, policy: LocalityPolicy) -> Vec<LocalityView> {
        let reg = ShmRegistry::new();
        let lists: Vec<ContainerList> = (0..s.num_ranks())
            .map(|r| LocalityView::publish(&reg, &s.cluster, &s.placement, r))
            .collect();
        (0..s.num_ranks())
            .map(|r| LocalityView::build(policy, &s.cluster, &s.placement, r, &lists[r]))
            .collect()
    }

    #[test]
    fn hostname_policy_misses_co_resident_containers() {
        // 2 containers x 2 ranks on one host: the paper's failure mode.
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let views = detect_all(&s, LocalityPolicy::Hostname);
        // Rank 0 sees only its container-mate as local...
        assert_eq!(views[0].local_ranks(), &[0, 1]);
        // ...even though SHM/CMA with ranks 2,3 would be possible.
        assert!(views[0].peer(2).vis.shm);
        assert!(views[0].peer(2).vis.cma);
        assert!(!views[0].peer(2).considered_local);
    }

    #[test]
    fn detector_recovers_full_co_residency() {
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let views = detect_all(&s, LocalityPolicy::ContainerDetector);
        for v in &views {
            assert_eq!(v.local_ranks(), &[0, 1, 2, 3]);
        }
        assert_eq!(views[2].local_ordering(), 2);
    }

    #[test]
    fn native_sees_everyone_under_both_policies() {
        let s = DeploymentScenario::native(1, 4);
        for policy in [LocalityPolicy::Hostname, LocalityPolicy::ContainerDetector] {
            let views = detect_all(&s, policy);
            assert_eq!(views[0].local_ranks(), &[0, 1, 2, 3]);
            assert!(!views[0].in_container());
        }
    }

    #[test]
    fn cross_host_ranks_are_never_local() {
        let s = DeploymentScenario::containers(2, 2, 2, NamespaceSharing::default());
        let views = detect_all(&s, LocalityPolicy::ContainerDetector);
        assert_eq!(views[0].local_ranks(), &[0, 1, 2, 3]);
        assert_eq!(views[4].local_ranks(), &[4, 5, 6, 7]);
        assert!(!views[0].peer(4).considered_local);
        assert!(!views[0].peer(4).vis.co_resident);
    }

    #[test]
    fn detector_degrades_gracefully_without_ipc_sharing() {
        // Containers with private IPC namespaces publish to private lists:
        // each container only discovers itself — correct, not optimal.
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::isolated());
        let views = detect_all(&s, LocalityPolicy::ContainerDetector);
        assert_eq!(views[0].local_ranks(), &[0, 1]);
        assert_eq!(views[2].local_ranks(), &[2, 3]);
        assert!(!views[0].peer(2).vis.shm);
    }

    #[test]
    fn container_ranks_pay_the_tax_native_does_not() {
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let views = detect_all(&s, LocalityPolicy::ContainerDetector);
        assert!(views[0].in_container());
        let s = DeploymentScenario::native(1, 2);
        let views = detect_all(&s, LocalityPolicy::ContainerDetector);
        assert!(!views[0].in_container());
    }

    /// Publish all ranks under a fault plan (with the repair pass) and
    /// return every rank's list.
    fn publish_all_with(s: &DeploymentScenario, plan: &FaultPlan) -> Vec<ContainerList> {
        let reg = ShmRegistry::new();
        let lists: Vec<ContainerList> = (0..s.num_ranks())
            .map(|r| LocalityView::publish_with(&reg, &s.cluster, &s.placement, r, plan).0)
            .collect();
        for (r, list) in lists.iter().enumerate() {
            LocalityView::repair_own_slot(list, &s.cluster, &s.placement, r, plan);
        }
        lists
    }

    /// Publish all ranks under a fault plan, then scan every rank's
    /// degraded view against the plan's map.
    fn detect_all_with(
        s: &DeploymentScenario,
        policy: LocalityPolicy,
        plan: &FaultPlan,
    ) -> Vec<LocalityView> {
        let lists = publish_all_with(s, plan);
        let map = Arc::new(LocalityMap::with_faults(&s.cluster, &s.placement, plan));
        (0..s.num_ranks())
            .map(|r| LocalityView::scan(policy, &map, r, &lists[r]))
            .collect()
    }

    /// The dense walk the host-local scan replaced, kept as its
    /// reference: every one of the job's peers, both visibilities
    /// recomputed per peer, one [`PeerInfo`] each.
    fn reference_walk(
        policy: LocalityPolicy,
        s: &DeploymentScenario,
        rank: usize,
        list: &ContainerList,
        plan: &FaultPlan,
    ) -> Vec<PeerInfo> {
        let (cluster, placement) = (&s.cluster, &s.placement);
        let my_cont = cluster.container(placement.loc(rank).container);
        (0..placement.num_ranks())
            .map(|peer| {
                let p_cont = cluster.container(placement.loc(peer).container);
                let pair = PairVis {
                    vis: effective_visibility(cluster, plan, my_cont.id, p_cont.id),
                    placed_shm: effective_visibility(
                        cluster,
                        &FaultPlan::none(),
                        my_cont.id,
                        p_cont.id,
                    )
                    .shm,
                    hostname_eq: my_cont.hostname == p_cont.hostname,
                };
                let (considered_local, downgraded) = match policy {
                    LocalityPolicy::Hostname => (pair.hostname_eq, None),
                    _ => LocalityView::cross_check(
                        rank,
                        peer,
                        list.membership_of(peer),
                        ContainerList::membership_byte(p_cont.id),
                        pair,
                    ),
                };
                PeerInfo {
                    considered_local,
                    vis: pair.vis,
                    same_socket: placement.same_socket(rank, peer),
                    downgraded,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The host-local scan answers every query exactly as the dense
        /// walk does, for random deployments, sampled fault plans (plus
        /// a duplicate claim, co-resident or not) and all three policies.
        #[test]
        fn scan_equals_the_dense_walk(
            hosts in 1u32..4,
            containers_per_host in 1u32..4,
            ranks_per_container in 1u32..4,
            ipc in any::<bool>(),
            pid in any::<bool>(),
            seed in any::<u64>(),
            claim in (any::<u8>(), any::<u8>()),
            policy_idx in 0usize..3,
        ) {
            let sharing = NamespaceSharing { ipc, pid, ..NamespaceSharing::default() };
            let s = DeploymentScenario::containers(
                hosts,
                containers_per_host,
                ranks_per_container,
                sharing,
            );
            let n = s.num_ranks();
            let plan = FaultPlan::sampled(seed, &s)
                .with_duplicate_publish(claim.0 as usize % n, claim.1 as usize % n);
            let policy = [
                LocalityPolicy::Hostname,
                LocalityPolicy::ContainerDetector,
                LocalityPolicy::ForceChannel(Channel::Shm),
            ][policy_idx];
            let lists = publish_all_with(&s, &plan);
            let map = Arc::new(LocalityMap::with_faults(&s.cluster, &s.placement, &plan));
            for (rank, list) in lists.iter().enumerate() {
                let view = LocalityView::scan(policy, &map, rank, list);
                let dense = reference_walk(policy, &s, rank, list, &plan);
                let local: Vec<usize> = (0..n).filter(|&p| dense[p].considered_local).collect();
                prop_assert_eq!(view.local_ranks(), &local[..], "rank {}", rank);
                let ordering = local.iter().position(|&p| p == rank);
                prop_assert_eq!(Some(view.local_ordering()), ordering);
                let native = s.cluster.container(s.placement.loc(rank).container).native;
                prop_assert_eq!(view.in_container(), !native);
                let downgraded: Vec<_> = (0..n)
                    .filter_map(|p| dense[p].downgraded.map(|r| (p, r)))
                    .collect();
                prop_assert_eq!(view.downgraded_peers().collect::<Vec<_>>(), downgraded);
                for (p, info) in dense.iter().enumerate() {
                    prop_assert_eq!(view.peer(p), *info, "rank {} peer {}", rank, p);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "across hosts")]
    fn a_hostname_shared_across_hosts_is_rejected() {
        let mut s = DeploymentScenario::containers(2, 1, 1, NamespaceSharing::default());
        s.cluster.containers[1].hostname = s.cluster.containers[0].hostname.clone();
        LocalityMap::build(&s.cluster, &s.placement);
    }

    #[test]
    fn omitted_publish_downgrades_only_the_silent_rank() {
        // 1 host x 2 containers x 2 ranks; rank 1 never publishes.
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let plan = FaultPlan::none().with_omitted_publish(1);
        let views = detect_all_with(&s, LocalityPolicy::ContainerDetector, &plan);
        for (r, v) in views.iter().enumerate() {
            if r == 1 {
                // The silent rank itself sees everyone (their bytes are
                // all present) — views are deliberately asymmetric.
                assert_eq!(v.local_ranks(), &[0, 1, 2, 3]);
                assert_eq!(v.num_downgraded(), 0);
            } else {
                assert_eq!(v.local_ranks(), &[0, 2, 3]);
                assert_eq!(v.num_downgraded(), 1);
                assert_eq!(v.peer(1).downgraded, Some(DowngradeReason::Unpublished));
                assert!(!v.peer(1).considered_local);
            }
        }
    }

    #[test]
    fn torn_byte_downgrades_with_corrupt_reason() {
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let plan = FaultPlan::none().with_torn_publish(2);
        let views = detect_all_with(&s, LocalityPolicy::ContainerDetector, &plan);
        assert_eq!(
            views[0].peer(2).downgraded,
            Some(DowngradeReason::CorruptByte)
        );
        assert!(!views[0].peer(2).considered_local);
        // The torn rank's view of everyone else is intact.
        assert_eq!(views[2].num_downgraded(), 0);
        let errs = views[0].degradation_errors();
        assert!(errs
            .iter()
            .any(|e| matches!(e, crate::MpiError::ChannelDowngraded { peer: 2 })));
    }

    #[test]
    fn duplicate_claim_is_repaired_and_views_converge() {
        // Rank 3 also claims rank 0's slot; after the repair pass every
        // view must be identical to the fault-free one.
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let plan = FaultPlan::none().with_duplicate_publish(3, 0);
        let views = detect_all_with(&s, LocalityPolicy::ContainerDetector, &plan);
        for v in &views {
            assert_eq!(v.local_ranks(), &[0, 1, 2, 3]);
            assert_eq!(v.num_downgraded(), 0);
        }
    }

    #[test]
    fn revoked_ipc_container_is_downgraded_not_aborted() {
        // Container 1 (ranks 2,3) lost --ipc=host and --pid=host: it
        // publishes to a private segment; ranks 0,1 downgrade 2,3 with
        // GatingMismatch and vice versa.
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let plan = FaultPlan::none()
            .with_revoked_ipc(cmpi_cluster::ContainerId(1))
            .with_revoked_pid(cmpi_cluster::ContainerId(1));
        let views = detect_all_with(&s, LocalityPolicy::ContainerDetector, &plan);
        assert_eq!(views[0].local_ranks(), &[0, 1]);
        assert_eq!(
            views[0].peer(2).downgraded,
            Some(DowngradeReason::GatingMismatch)
        );
        assert!(!views[0].peer(2).vis.shm && !views[0].peer(2).vis.cma);
        // The revoked container still sees itself.
        assert_eq!(views[2].local_ranks(), &[2, 3]);
        // Its container-mates remain fully local (same namespaces).
        assert!(views[2].peer(3).considered_local);
        assert_eq!(
            views[2].peer(0).downgraded,
            Some(DowngradeReason::GatingMismatch)
        );
    }

    #[test]
    fn revoked_pid_only_keeps_shm_but_blocks_cma() {
        // PID revocation alone: the peer still publishes on the shared
        // IPC segment, stays local, but CMA is gated off.
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let plan = FaultPlan::none().with_revoked_pid(cmpi_cluster::ContainerId(1));
        let views = detect_all_with(&s, LocalityPolicy::ContainerDetector, &plan);
        let p = views[0].peer(2);
        assert!(p.considered_local && p.downgraded.is_none());
        assert!(p.vis.shm && !p.vis.cma);
    }

    #[test]
    fn stale_segment_is_recovered_during_publish() {
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let reg = ShmRegistry::new();
        let cont = s.cluster.container(s.placement.loc(0).container);
        ContainerList::seed_stale(
            &reg,
            s.placement.loc(0).host,
            cont.ipc_ns,
            s.num_ranks(),
            cmpi_cluster::faults::STALE_GENERATION,
        );
        let plan = FaultPlan::none();
        let (_, report) = LocalityView::publish_with(&reg, &s.cluster, &s.placement, 0, &plan);
        assert_eq!(report.outcome, AttachOutcome::RecoveredStale);
        // Later attachers see a valid header.
        let (_, report) = LocalityView::publish_with(&reg, &s.cluster, &s.placement, 1, &plan);
        assert_eq!(report.outcome, AttachOutcome::Valid);
    }

    #[test]
    fn socket_relation_is_recorded() {
        let s = DeploymentScenario::pt2pt_pair(true, false, NamespaceSharing::default());
        let views = detect_all(&s, LocalityPolicy::ContainerDetector);
        assert!(!views[0].peer(1).same_socket);
        assert!(!views[0].same_socket(1));
        let s = DeploymentScenario::pt2pt_pair(true, true, NamespaceSharing::default());
        let views = detect_all(&s, LocalityPolicy::ContainerDetector);
        assert!(views[0].peer(1).same_socket);
        assert!(views[0].same_socket(1));
    }
}
