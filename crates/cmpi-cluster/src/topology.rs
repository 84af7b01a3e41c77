//! Cluster topology: hosts, sockets, cores, containers and namespaces.
//!
//! The model follows the paper's testbed: bare-metal hosts, each with a
//! number of CPU sockets and cores, running some number of Docker-style
//! containers. Each container has its own **UTS namespace** (a unique
//! hostname — this is what defeats hostname-based locality detection in the
//! default MPI runtime), and may or may not share the host's **IPC** and
//! **PID** namespaces. Sharing the IPC namespace is the precondition for
//! cross-container shared-memory segments; sharing the PID namespace is the
//! precondition for Cross Memory Attach.

use std::fmt;

/// Identifier of a physical host in the cluster.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct HostId(pub u32);

/// Identifier of a CPU socket within a host.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct SocketId(pub u32);

/// Identifier of a core within a host (global across the host's sockets).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct CoreId(pub u32);

/// Identifier of a container, unique across the whole cluster.
///
/// The pseudo-container representing "processes running directly on the
/// host" (the native scenario) is an ordinary `ContainerId` whose namespaces
/// are the host namespaces.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct ContainerId(pub u32);

/// Identifier of a Linux namespace instance (IPC or PID), unique across the
/// cluster. Two execution environments can use a kernel facility together
/// exactly when they hold the *same* `NamespaceId` for the corresponding
/// namespace type.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize, serde::Deserialize,
)]
pub struct NamespaceId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cont{}", self.0)
    }
}

/// A container (or the host-native execution environment).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Container {
    /// Cluster-unique id.
    pub id: ContainerId,
    /// Host this container runs on.
    pub host: HostId,
    /// The UTS hostname visible inside the container. Docker assigns every
    /// container a unique hostname; this string is all a hostname-based
    /// locality policy gets to see.
    pub hostname: String,
    /// IPC namespace: governs visibility of shared-memory segments.
    pub ipc_ns: NamespaceId,
    /// PID namespace: governs whether CMA (`process_vm_readv`-style) calls
    /// can address a peer process.
    pub pid_ns: NamespaceId,
    /// Whether the container was started `--privileged` (grants access to
    /// the host HCA device). The paper always enables this; we model it so
    /// the failure-injection tests can take it away.
    pub privileged: bool,
    /// `true` for the pseudo-container representing processes running
    /// directly on the host (no container runtime overhead applies).
    pub native: bool,
}

impl Container {
    /// `true` when `self` and `other` are on the same physical host.
    pub fn co_resident_with(&self, other: &Container) -> bool {
        self.host == other.host
    }
}

/// A physical host.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Host {
    /// Cluster-unique id.
    pub id: HostId,
    /// The host's own (native) hostname.
    pub hostname: String,
    /// Number of CPU sockets.
    pub sockets: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// The host's own IPC namespace.
    pub host_ipc_ns: NamespaceId,
    /// The host's own PID namespace.
    pub host_pid_ns: NamespaceId,
    /// Containers deployed on this host (includes the native
    /// pseudo-container when ranks run directly on the host).
    pub containers: Vec<ContainerId>,
}

impl Host {
    /// Total number of cores on the host.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// The socket a given core belongs to.
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.cores_per_socket)
    }
}

/// A full cluster description: hosts plus all containers deployed on them.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Cluster {
    /// All hosts, indexed by `HostId.0`.
    pub hosts: Vec<Host>,
    /// All containers, indexed by `ContainerId.0`.
    pub containers: Vec<Container>,
    next_ns: u32,
}

impl Cluster {
    /// Create an empty cluster.
    pub fn new() -> Self {
        Cluster::default()
    }

    /// Allocate a fresh namespace id.
    pub fn fresh_namespace(&mut self) -> NamespaceId {
        let id = NamespaceId(self.next_ns);
        self.next_ns += 1;
        id
    }

    /// Add a host modeled on the paper's testbed nodes (2 × 12-core Xeon
    /// E5-2670 v3). Returns its id.
    pub fn add_host(&mut self, sockets: u32, cores_per_socket: u32) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        let ipc = self.fresh_namespace();
        let pid = self.fresh_namespace();
        self.hosts.push(Host {
            id,
            hostname: format!("node{:03}", id.0),
            sockets,
            cores_per_socket,
            host_ipc_ns: ipc,
            host_pid_ns: pid,
            containers: Vec::new(),
        });
        id
    }

    /// Add a container on `host`.
    ///
    /// `share_ipc` / `share_pid` correspond to `docker run --ipc=host` /
    /// `--pid=host`; when false the container receives private namespaces.
    pub fn add_container(
        &mut self,
        host: HostId,
        share_ipc: bool,
        share_pid: bool,
        privileged: bool,
    ) -> ContainerId {
        let id = ContainerId(self.containers.len() as u32);
        let (host_ipc, host_pid) = {
            let h = &self.hosts[host.0 as usize];
            (h.host_ipc_ns, h.host_pid_ns)
        };
        let ipc_ns = if share_ipc {
            host_ipc
        } else {
            self.fresh_namespace()
        };
        let pid_ns = if share_pid {
            host_pid
        } else {
            self.fresh_namespace()
        };
        // Docker generates a unique (container-id derived) hostname.
        let hostname = format!("ctr-{:08x}", 0x9e3779b9u32.wrapping_mul(id.0 + 1));
        self.containers.push(Container {
            id,
            host,
            hostname,
            ipc_ns,
            pid_ns,
            privileged,
            native: false,
        });
        self.hosts[host.0 as usize].containers.push(id);
        id
    }

    /// Add the "native" pseudo-container for a host: an execution
    /// environment whose hostname and namespaces are exactly the host's.
    pub fn add_native_env(&mut self, host: HostId) -> ContainerId {
        let id = ContainerId(self.containers.len() as u32);
        let h = &self.hosts[host.0 as usize];
        self.containers.push(Container {
            id,
            host,
            hostname: h.hostname.clone(),
            ipc_ns: h.host_ipc_ns,
            pid_ns: h.host_pid_ns,
            privileged: true,
            native: true,
        });
        self.hosts[host.0 as usize].containers.push(id);
        id
    }

    /// Look up a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Look up a container.
    pub fn container(&self, id: ContainerId) -> &Container {
        &self.containers[id.0 as usize]
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }
}

#[cfg(test)]
impl Container {
    /// `true` when the two containers can map a common shared-memory
    /// segment (same IPC namespace on the same host).
    pub(crate) fn shares_ipc_with(&self, other: &Container) -> bool {
        self.host == other.host && self.ipc_ns == other.ipc_ns
    }

    /// `true` when a process in `self` can CMA-address a process in
    /// `other` (same PID namespace on the same host).
    pub(crate) fn shares_pid_with(&self, other: &Container) -> bool {
        self.host == other.host && self.pid_ns == other.pid_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_host_cluster() -> Cluster {
        let mut c = Cluster::new();
        let h0 = c.add_host(2, 12);
        let h1 = c.add_host(2, 12);
        assert_eq!(h0, HostId(0));
        assert_eq!(h1, HostId(1));
        c
    }

    #[test]
    fn hosts_get_unique_namespaces_and_names() {
        let c = two_host_cluster();
        assert_ne!(c.host(HostId(0)).host_ipc_ns, c.host(HostId(1)).host_ipc_ns);
        assert_ne!(c.host(HostId(0)).hostname, c.host(HostId(1)).hostname);
    }

    #[test]
    fn shared_namespace_containers_see_each_other() {
        let mut c = two_host_cluster();
        let a = c.add_container(HostId(0), true, true, true);
        let b = c.add_container(HostId(0), true, true, true);
        let (a, b) = (c.container(a).clone(), c.container(b).clone());
        assert!(a.co_resident_with(&b));
        assert!(a.shares_ipc_with(&b));
        assert!(a.shares_pid_with(&b));
        // ...but their hostnames differ: this is the paper's root cause.
        assert_ne!(a.hostname, b.hostname);
    }

    #[test]
    fn private_namespaces_isolate() {
        let mut c = two_host_cluster();
        let a = c.add_container(HostId(0), false, false, true);
        let b = c.add_container(HostId(0), true, true, true);
        let (a, b) = (c.container(a).clone(), c.container(b).clone());
        assert!(a.co_resident_with(&b));
        assert!(!a.shares_ipc_with(&b));
        assert!(!a.shares_pid_with(&b));
    }

    #[test]
    fn cross_host_containers_never_share() {
        let mut c = two_host_cluster();
        let a = c.add_container(HostId(0), true, true, true);
        let b = c.add_container(HostId(1), true, true, true);
        let (a, b) = (c.container(a).clone(), c.container(b).clone());
        assert!(!a.co_resident_with(&b));
        assert!(!a.shares_ipc_with(&b));
        assert!(!a.shares_pid_with(&b));
    }

    #[test]
    fn native_env_mirrors_host_identity() {
        let mut c = two_host_cluster();
        let n = c.add_native_env(HostId(0));
        let n = c.container(n).clone();
        let h = c.host(HostId(0));
        assert_eq!(n.hostname, h.hostname);
        assert_eq!(n.ipc_ns, h.host_ipc_ns);
        assert_eq!(n.pid_ns, h.host_pid_ns);
    }

    #[test]
    fn socket_of_core_partitions_cores() {
        let c = two_host_cluster();
        let h = c.host(HostId(0));
        assert_eq!(h.total_cores(), 24);
        assert_eq!(h.socket_of_core(CoreId(0)), SocketId(0));
        assert_eq!(h.socket_of_core(CoreId(11)), SocketId(0));
        assert_eq!(h.socket_of_core(CoreId(12)), SocketId(1));
        assert_eq!(h.socket_of_core(CoreId(23)), SocketId(1));
    }

    #[test]
    fn container_list_registered_on_host() {
        let mut c = two_host_cluster();
        let a = c.add_container(HostId(0), true, true, true);
        let b = c.add_container(HostId(0), true, true, true);
        assert_eq!(c.host(HostId(0)).containers, vec![a, b]);
        assert!(c.host(HostId(1)).containers.is_empty());
    }
}
