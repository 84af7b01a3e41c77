//! Kernel-facility gating: which IPC mechanisms a pair of execution
//! environments may legally use.
//!
//! One relation encodes the *necessary conditions* from Section II/IV:
//! SHM needs a common IPC namespace on a common host, CMA needs a common
//! PID namespace on a common host. They are deliberately independent of
//! any locality *policy* — a policy decides what the MPI library tries,
//! the kernel (this module) decides what is possible.

use cmpi_cluster::{Cluster, ContainerId, FaultPlan};

/// The full visibility relation between two execution environments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Visibility {
    /// Same physical host.
    pub co_resident: bool,
    /// Same container (trivially shares everything).
    pub same_container: bool,
    /// May map common shared-memory segments.
    pub shm: bool,
    /// May perform CMA reads/writes on each other.
    pub cma: bool,
}

/// Compute the visibility relation between two containers *as the kernel
/// would report it after a fault plan's namespace revocations*: a
/// container restarted without `--ipc=host` / `--pid=host` lands in a
/// private namespace, so SHM/CMA with its former peers become
/// impossible — while co-residency (and intra-container visibility)
/// remain real. This is the ground truth the degraded locality view is
/// cross-checked against; under [`FaultPlan::none`] it is the relation
/// the placement made.
// Inline: `LocalityMap` calls it twice per container pair, and the call
// costs more than the comparisons.
#[inline]
pub fn effective_visibility(
    cluster: &Cluster,
    plan: &FaultPlan,
    a: ContainerId,
    b: ContainerId,
) -> Visibility {
    let ca = cluster.container(a);
    let cb = cluster.container(b);
    let same_container = a == b;
    let co_resident = ca.co_resident_with(cb);
    Visibility {
        co_resident,
        same_container,
        shm: same_container
            || (co_resident && plan.effective_ipc_ns(ca) == plan.effective_ipc_ns(cb)),
        cma: same_container
            || (co_resident && plan.effective_pid_ns(ca) == plan.effective_pid_ns(cb)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The placement's visibility: no namespace revoked.
    fn placed(cluster: &Cluster, a: ContainerId, b: ContainerId) -> Visibility {
        effective_visibility(cluster, &FaultPlan::none(), a, b)
    }

    #[test]
    fn same_container_always_visible() {
        let mut c = Cluster::new();
        let h = c.add_host(2, 4);
        // Even a fully isolated container is visible to itself.
        let a = c.add_container(h, false, false, true);
        let v = placed(&c, a, a);
        assert!(v.same_container && v.shm && v.cma && v.co_resident);
    }

    #[test]
    fn sharing_flags_gate_independently() {
        let mut c = Cluster::new();
        let h = c.add_host(2, 4);
        let base = c.add_container(h, true, true, true);
        let ipc_only = c.add_container(h, true, false, true);
        let pid_only = c.add_container(h, false, true, true);
        let v = placed(&c, base, ipc_only);
        assert!(v.shm && !v.cma);
        let v = placed(&c, base, pid_only);
        assert!(!v.shm && v.cma);
    }

    #[test]
    fn cross_host_nothing_is_visible() {
        let mut c = Cluster::new();
        let h0 = c.add_host(2, 4);
        let h1 = c.add_host(2, 4);
        let a = c.add_container(h0, true, true, true);
        let b = c.add_container(h1, true, true, true);
        let v = placed(&c, a, b);
        assert!(!v.co_resident && !v.shm && !v.cma);
    }

    #[test]
    fn native_envs_on_same_host_share_everything() {
        let mut c = Cluster::new();
        let h = c.add_host(2, 4);
        let a = c.add_native_env(h);
        let b = c.add_native_env(h);
        let v = placed(&c, a, b);
        assert!(v.shm && v.cma && v.co_resident && !v.same_container);
    }

    #[test]
    fn visibility_is_symmetric() {
        let mut c = Cluster::new();
        let h = c.add_host(2, 4);
        let a = c.add_container(h, true, false, true);
        let b = c.add_container(h, false, true, true);
        assert_eq!(placed(&c, a, b), placed(&c, b, a));
    }
}
