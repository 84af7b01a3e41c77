//! Fault-injection plans — the substrate behind the chaos suite.
//!
//! A [`FaultPlan`] describes, *declaratively and deterministically*, which
//! partial failures a job must survive. It is configured per
//! [`DeploymentScenario`](crate::DeploymentScenario) and threaded through
//! the shared-memory layer (stale / corrupt / torn container-list
//! segments), the locality detector (omitted publishes, revoked
//! namespaces) and the fabric (QP-creation failures, transient send
//! completion errors). The layers *consume* the plan; this module only
//! answers pure queries, so the same plan always injects the same faults
//! — the chaos tests assert bit-identical results across runs.
//!
//! The fault classes model the container-cloud failure modes reported for
//! Docker HPC deployments (crashed jobs leaving `/dev/shm` litter,
//! per-container namespace isolation, device unavailability) that the
//! paper's locality protocol implicitly assumes away.

use std::collections::{BTreeMap, BTreeSet};

use crate::scenario::DeploymentScenario;
use crate::topology::{Container, ContainerId, HostId, NamespaceId};

/// Offset added to a container id to mint the private namespace a revoked
/// container is deemed to have been restarted into. High enough to never
/// collide with [`Cluster::fresh_namespace`](crate::Cluster) allocations.
const REVOKED_NS_BASE: u32 = 0x8000_0000;

/// The stale generation number a leftover segment carries. Any value
/// different from the running job's generation works; a recognizable
/// constant makes failures readable.
pub const STALE_GENERATION: u64 = 0xdead;

/// When a mid-run fault fires, expressed in quantities that are pure
/// functions of the faulted rank's own deterministic execution (virtual
/// clock, MPI-call count) — never wall clock — so the fault lands at the
/// same point of the same call sequence in every run.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum MidRunTrigger {
    /// Fire at the first MPI-call boundary at or after this virtual time
    /// (nanoseconds on the rank's own clock).
    AtTime(u64),
    /// Fire on the rank's `n`-th MPI call (calls count from 1).
    AfterOps(u64),
}

impl MidRunTrigger {
    /// Has the trigger fired for a rank at virtual time `now_ns` that has
    /// entered `ops` MPI calls so far?
    pub fn fires(&self, now_ns: u64, ops: u64) -> bool {
        match *self {
            MidRunTrigger::AtTime(t) => now_ns >= t,
            MidRunTrigger::AfterOps(k) => ops >= k,
        }
    }
}

/// The mid-run fault classes a rank can suffer while the job is running
/// (as opposed to the init-time classes above).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum MidRunFault {
    /// The rank's process dies: its endpoint detaches, nothing drains its
    /// queues again, and peers convict it through the failure detector.
    Crash,
    /// The rank's whole container is killed: every rank placed in it
    /// shares the trigger and dies at its own next call boundary past it.
    ContainerKill,
    /// The rank wedges: it stops calling progress (no more sends, nothing
    /// drained) but its process stays attached, so only lease expiry —
    /// never a transport error — reveals it.
    Hang,
}

/// A deterministic, declarative fault-injection plan.
///
/// All sets are keyed by stable identifiers (host ids, container ids,
/// global ranks), never by wall-clock or thread arrival order, so two
/// runs of the same plan inject exactly the same faults.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Seed that derived this plan (recorded for reporting; sampling
    /// happened in [`FaultPlan::sampled`]).
    pub seed: u64,
    /// Hosts whose container-list segment is a leftover from a previous
    /// job: valid checksum, wrong generation. Recovery: re-initialize.
    pub stale_list_hosts: BTreeSet<u32>,
    /// Hosts whose container-list segment is corrupt (bad checksum /
    /// garbage bytes). Recovery: re-initialize.
    pub corrupt_list_hosts: BTreeSet<u32>,
    /// Global ranks that never publish their membership byte before the
    /// init barrier (modeling a rank wedged in container startup).
    /// Recovery: peers retry with backoff, then downgrade the silent rank
    /// to the HCA channel.
    pub omit_publish_ranks: BTreeSet<usize>,
    /// Global ranks whose membership byte is torn: a value from the valid
    /// range but the *wrong* container's byte. Recovery: scan cross-checks
    /// against placement ground truth and downgrades.
    pub torn_publish_ranks: BTreeSet<usize>,
    /// Duplicate publishes: rank → slot of a *different* rank it also
    /// claims (two ranks claiming one slot). Surfaces as `CorruptList`
    /// from the CAS publish; the rightful owner re-asserts its byte. A
    /// claim on a rank placed on another host is not injected: that
    /// rank never attaches the claimant's list.
    pub duplicate_publish: BTreeMap<usize, usize>,
    /// Containers whose IPC-namespace sharing was revoked after placement
    /// (restarted without `--ipc=host`): SHM impossible, co-residency
    /// still real.
    pub revoked_ipc_containers: BTreeSet<u32>,
    /// Containers whose PID-namespace sharing was revoked (restarted
    /// without `--pid=host`): CMA impossible.
    pub revoked_pid_containers: BTreeSet<u32>,
    /// Ranks whose first `n` fabric attach (QP creation) attempts fail
    /// transiently. Recovery: bounded retry with virtual-time backoff.
    pub qp_attach_failures: BTreeMap<usize, u32>,
    /// Every `period`-th fabric send posted by a rank completes in error
    /// (0 = never). Recovery: bounded retry with virtual-time backoff.
    pub send_fault_period: u64,
    /// How many consecutive completion errors each faulted send suffers
    /// before succeeding; must stay below the transport retry budget for
    /// the job to survive.
    pub send_fault_repeats: u32,
    /// Ranks that crash mid-run at the given trigger. Recovery: peers
    /// convict through the failure detector, revoke, and shrink.
    pub crash_ranks: BTreeMap<usize, MidRunTrigger>,
    /// Ranks that hang mid-run (stop progressing, stay attached).
    pub hang_ranks: BTreeMap<usize, MidRunTrigger>,
    /// Containers killed mid-run: every rank placed in the container
    /// shares the trigger and dies at its own next call boundary past it
    /// (the kill is external; each rank observes it independently).
    pub kill_containers: BTreeMap<u32, MidRunTrigger>,
}

/// splitmix64 — the repo-standard deterministic hash for derived seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic per-(seed, domain, key) coin.
fn coin(seed: u64, domain: u64, key: u64, p_percent: u64) -> bool {
    splitmix64(seed ^ domain.wrapping_mul(0xa076_1d64_78bd_642f) ^ key) % 100 < p_percent
}

impl FaultPlan {
    /// The empty plan: no faults. Equivalent to not configuring one.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self
            == FaultPlan {
                seed: self.seed,
                ..FaultPlan::default()
            }
    }

    /// Sample a mixed plan from `seed` for `scenario`: each fault class
    /// fires with moderate probability over the scenario's hosts, ranks
    /// and containers. Used by the chaos suite's "everything at once"
    /// runs; identical `(seed, scenario)` always yields identical plans.
    pub fn sampled(seed: u64, scenario: &DeploymentScenario) -> Self {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        let ranks = scenario.num_ranks();
        for h in 0..scenario.cluster.num_hosts() as u64 {
            if coin(seed, 1, h, 25) {
                plan.stale_list_hosts.insert(h as u32);
            } else if coin(seed, 2, h, 25) {
                plan.corrupt_list_hosts.insert(h as u32);
            }
        }
        for r in 0..ranks as u64 {
            // Keep publish faults sparse: at most one rank in ~8 stays
            // silent so the degraded view still finds locality to use.
            if coin(seed, 3, r, 12) {
                plan.omit_publish_ranks.insert(r as usize);
            } else if coin(seed, 4, r, 12) {
                plan.torn_publish_ranks.insert(r as usize);
            }
        }
        for c in &scenario.cluster.containers {
            if c.native {
                continue;
            }
            if coin(seed, 5, c.id.0 as u64, 15) {
                plan.revoked_ipc_containers.insert(c.id.0);
            }
            if coin(seed, 6, c.id.0 as u64, 15) {
                plan.revoked_pid_containers.insert(c.id.0);
            }
        }
        for r in 0..ranks as u64 {
            if coin(seed, 7, r, 20) {
                plan.qp_attach_failures
                    .insert(r as usize, 1 + (splitmix64(seed ^ r) % 2) as u32);
            }
        }
        if coin(seed, 8, 0, 50) {
            plan.send_fault_period = 16 + splitmix64(seed ^ 0x5e17) % 48;
            plan.send_fault_repeats = 1 + (splitmix64(seed ^ 0x9ad) % 2) as u32;
        }
        plan
    }

    // ---- builders ------------------------------------------------------

    /// Leave a stale (previous-generation) container list on `host`.
    pub fn with_stale_list(mut self, host: HostId) -> Self {
        self.stale_list_hosts.insert(host.0);
        self
    }

    /// Leave a corrupt (bad checksum) container list on `host`.
    pub fn with_corrupt_list(mut self, host: HostId) -> Self {
        self.corrupt_list_hosts.insert(host.0);
        self
    }

    /// Make `rank` never publish its membership byte.
    pub fn with_omitted_publish(mut self, rank: usize) -> Self {
        self.omit_publish_ranks.insert(rank);
        self
    }

    /// Make `rank` publish a torn (wrong-container) membership byte.
    pub fn with_torn_publish(mut self, rank: usize) -> Self {
        self.torn_publish_ranks.insert(rank);
        self
    }

    /// Make `rank` also claim `victim_rank`'s slot (double publish).
    pub fn with_duplicate_publish(mut self, rank: usize, victim_rank: usize) -> Self {
        self.duplicate_publish.insert(rank, victim_rank);
        self
    }

    /// Revoke IPC-namespace sharing for `container`.
    pub fn with_revoked_ipc(mut self, container: ContainerId) -> Self {
        self.revoked_ipc_containers.insert(container.0);
        self
    }

    /// Revoke PID-namespace sharing for `container`.
    pub fn with_revoked_pid(mut self, container: ContainerId) -> Self {
        self.revoked_pid_containers.insert(container.0);
        self
    }

    /// Fail `rank`'s first `attempts` QP-creation attempts.
    pub fn with_qp_attach_failures(mut self, rank: usize, attempts: u32) -> Self {
        self.qp_attach_failures.insert(rank, attempts);
        self
    }

    /// Fail every `period`-th posted send with `repeats` consecutive
    /// completion errors before it goes through.
    pub fn with_send_faults(mut self, period: u64, repeats: u32) -> Self {
        self.send_fault_period = period;
        self.send_fault_repeats = repeats;
        self
    }

    /// Crash `rank` mid-run when `trigger` fires.
    pub fn with_crash(mut self, rank: usize, trigger: MidRunTrigger) -> Self {
        self.crash_ranks.insert(rank, trigger);
        self
    }

    /// Hang `rank` mid-run when `trigger` fires.
    pub fn with_hang(mut self, rank: usize, trigger: MidRunTrigger) -> Self {
        self.hang_ranks.insert(rank, trigger);
        self
    }

    /// Kill every rank in `container`: each dies at its own first call
    /// boundary past `trigger`.
    pub fn with_container_kill(mut self, container: ContainerId, trigger: MidRunTrigger) -> Self {
        self.kill_containers.insert(container.0, trigger);
        self
    }

    // ---- queries -------------------------------------------------------

    /// Does `host` start with a stale leftover container list?
    pub fn list_is_stale(&self, host: HostId) -> bool {
        self.stale_list_hosts.contains(&host.0)
    }

    /// Does `host` start with a corrupt container list?
    pub fn list_is_corrupt(&self, host: HostId) -> bool {
        self.corrupt_list_hosts.contains(&host.0)
    }

    /// Does `rank` stay silent instead of publishing?
    pub fn publish_omitted(&self, rank: usize) -> bool {
        self.omit_publish_ranks.contains(&rank)
    }

    /// Does `rank` publish a torn byte?
    pub fn publish_torn(&self, rank: usize) -> bool {
        self.torn_publish_ranks.contains(&rank)
    }

    /// The slot `rank` wrongly claims in addition to its own, if any.
    pub fn duplicate_claim_of(&self, rank: usize) -> Option<usize> {
        self.duplicate_publish.get(&rank).copied()
    }

    /// Is `container`'s IPC sharing revoked?
    pub fn ipc_revoked(&self, container: ContainerId) -> bool {
        self.revoked_ipc_containers.contains(&container.0)
    }

    /// Is `container`'s PID sharing revoked?
    pub fn pid_revoked(&self, container: ContainerId) -> bool {
        self.revoked_pid_containers.contains(&container.0)
    }

    /// How many of `rank`'s leading attach attempts fail.
    pub fn attach_failures(&self, rank: usize) -> u32 {
        self.qp_attach_failures.get(&rank).copied().unwrap_or(0)
    }

    /// Whether the `op_index`-th send posted by a rank completes in error
    /// on its `attempt`-th try (attempts count from 0).
    pub fn send_fails(&self, op_index: u64, attempt: u32) -> bool {
        self.send_fault_period != 0
            && op_index % self.send_fault_period == self.send_fault_period - 1
            && attempt < self.send_fault_repeats
    }

    /// The mid-run fate of a rank placed in `container`, if the plan
    /// schedules one: the fault class and its trigger. When several
    /// classes name the same rank, the most severe wins (crash, then
    /// container kill, then hang) — plans normally schedule only one.
    pub fn midrun_fate_of(
        &self,
        rank: usize,
        container: ContainerId,
    ) -> Option<(MidRunFault, MidRunTrigger)> {
        if let Some(&t) = self.crash_ranks.get(&rank) {
            return Some((MidRunFault::Crash, t));
        }
        if let Some(&t) = self.kill_containers.get(&container.0) {
            return Some((MidRunFault::ContainerKill, t));
        }
        self.hang_ranks.get(&rank).map(|&t| (MidRunFault::Hang, t))
    }

    /// The IPC namespace `container` effectively lives in once the plan's
    /// revocations apply: its placed namespace normally, or a fresh
    /// private one if revoked.
    pub fn effective_ipc_ns(&self, container: &Container) -> NamespaceId {
        if self.ipc_revoked(container.id) {
            NamespaceId(REVOKED_NS_BASE + container.id.0)
        } else {
            container.ipc_ns
        }
    }

    /// The PID namespace `container` effectively lives in (see
    /// [`FaultPlan::effective_ipc_ns`]).
    pub fn effective_pid_ns(&self, container: &Container) -> NamespaceId {
        if self.pid_revoked(container.id) {
            NamespaceId(REVOKED_NS_BASE + container.id.0)
        } else {
            container.pid_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NamespaceSharing;

    #[test]
    fn sampling_is_deterministic() {
        let s = DeploymentScenario::containers(2, 2, 2, NamespaceSharing::default());
        let a = FaultPlan::sampled(42, &s);
        let b = FaultPlan::sampled(42, &s);
        assert_eq!(a, b);
        let c = FaultPlan::sampled(43, &s);
        assert_ne!(a, c, "different seeds should (generically) differ");
    }

    #[test]
    fn builders_round_trip_through_queries() {
        let p = FaultPlan::none()
            .with_stale_list(HostId(0))
            .with_corrupt_list(HostId(1))
            .with_omitted_publish(3)
            .with_torn_publish(4)
            .with_duplicate_publish(5, 6)
            .with_revoked_ipc(ContainerId(1))
            .with_revoked_pid(ContainerId(2))
            .with_qp_attach_failures(0, 2)
            .with_send_faults(8, 1);
        assert!(p.list_is_stale(HostId(0)) && !p.list_is_stale(HostId(1)));
        assert!(p.list_is_corrupt(HostId(1)) && !p.list_is_corrupt(HostId(0)));
        assert!(p.publish_omitted(3) && !p.publish_omitted(4));
        assert!(p.publish_torn(4) && !p.publish_torn(3));
        assert_eq!(p.duplicate_claim_of(5), Some(6));
        assert_eq!(p.duplicate_claim_of(6), None);
        assert!(p.ipc_revoked(ContainerId(1)) && !p.ipc_revoked(ContainerId(2)));
        assert!(p.pid_revoked(ContainerId(2)) && !p.pid_revoked(ContainerId(1)));
        assert_eq!(p.attach_failures(0), 2);
        assert_eq!(p.attach_failures(1), 0);
        assert!(!p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn midrun_fates_resolve_by_rank_and_container() {
        let p = FaultPlan::none()
            .with_crash(3, MidRunTrigger::AfterOps(100))
            .with_hang(4, MidRunTrigger::AtTime(5_000))
            .with_container_kill(ContainerId(2), MidRunTrigger::AtTime(9_000));
        assert!(!p.is_empty());
        assert_eq!(
            p.midrun_fate_of(3, ContainerId(0)),
            Some((MidRunFault::Crash, MidRunTrigger::AfterOps(100)))
        );
        assert_eq!(
            p.midrun_fate_of(4, ContainerId(0)),
            Some((MidRunFault::Hang, MidRunTrigger::AtTime(5_000)))
        );
        // Any rank in the killed container inherits the container's fate.
        assert_eq!(
            p.midrun_fate_of(9, ContainerId(2)),
            Some((MidRunFault::ContainerKill, MidRunTrigger::AtTime(9_000)))
        );
        // Crash outranks the container kill for a doubly-faulted rank.
        assert_eq!(
            p.midrun_fate_of(3, ContainerId(2)).unwrap().0,
            MidRunFault::Crash
        );
        assert_eq!(p.midrun_fate_of(0, ContainerId(0)), None);
        // Trigger semantics: ops count from 1, time is >=.
        assert!(MidRunTrigger::AfterOps(2).fires(0, 2));
        assert!(!MidRunTrigger::AfterOps(2).fires(u64::MAX, 1));
        assert!(MidRunTrigger::AtTime(10).fires(10, 0));
        assert!(!MidRunTrigger::AtTime(10).fires(9, u64::MAX));
    }

    #[test]
    fn send_fault_schedule_is_periodic_and_bounded() {
        let p = FaultPlan::none().with_send_faults(4, 2);
        // Ops 3, 7, 11, ... fail on attempts 0 and 1, succeed from 2.
        assert!(p.send_fails(3, 0) && p.send_fails(3, 1) && !p.send_fails(3, 2));
        assert!(!p.send_fails(0, 0) && !p.send_fails(2, 0) && p.send_fails(7, 0));
        assert!(!FaultPlan::none().send_fails(3, 0), "period 0 = never");
    }

    #[test]
    fn revoked_namespaces_are_private_and_stable() {
        let s = DeploymentScenario::containers(1, 2, 2, NamespaceSharing::default());
        let a = s.cluster.container(ContainerId(0)).clone();
        let b = s.cluster.container(ContainerId(1)).clone();
        let p = FaultPlan::none().with_revoked_ipc(ContainerId(1));
        assert_eq!(p.effective_ipc_ns(&a), a.ipc_ns);
        assert_ne!(p.effective_ipc_ns(&b), b.ipc_ns);
        assert_ne!(p.effective_ipc_ns(&b), p.effective_ipc_ns(&a));
        // Stable across calls (the downgrade decision must not flap).
        assert_eq!(p.effective_ipc_ns(&b), p.effective_ipc_ns(&b));
        // PID untouched by an IPC revocation.
        assert_eq!(p.effective_pid_ns(&b), b.pid_ns);
    }
}
