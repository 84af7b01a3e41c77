//! Rank placement: which host / container / socket / core each MPI rank
//! occupies.

use crate::topology::{Cluster, ContainerId, CoreId, HostId, SocketId};

/// Where one MPI rank lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RankLoc {
    /// Physical host.
    pub host: HostId,
    /// Container (or native pseudo-container).
    pub container: ContainerId,
    /// Socket of the pinned core.
    pub socket: SocketId,
    /// Pinned core (the paper pins containers to disjoint cores to avoid
    /// oversubscription in the collective experiments).
    pub core: CoreId,
}

/// A complete placement of `n` ranks onto a [`Cluster`].
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Placement {
    locs: Vec<RankLoc>,
}

impl Placement {
    /// Build from an explicit location list.
    pub fn new(locs: Vec<RankLoc>) -> Self {
        Placement { locs }
    }

    /// Number of ranks placed.
    pub fn num_ranks(&self) -> usize {
        self.locs.len()
    }

    /// Location of `rank`.
    pub fn loc(&self, rank: usize) -> RankLoc {
        self.locs[rank]
    }

    /// All locations, rank-ordered.
    pub fn locs(&self) -> &[RankLoc] {
        &self.locs
    }

    /// Ranks co-resident with `rank` (same physical host), including
    /// itself, in rank order. This is the *ground truth* the container
    /// locality detector must recover at runtime.
    pub fn co_resident_ranks(&self, rank: usize) -> Vec<usize> {
        let host = self.locs[rank].host;
        (0..self.locs.len())
            .filter(|&r| self.locs[r].host == host)
            .collect()
    }

    /// `true` when the two ranks are in the *same container*.
    pub fn same_container(&self, a: usize, b: usize) -> bool {
        self.locs[a].container == self.locs[b].container
    }

    /// `true` when the two ranks are on the same host.
    pub fn same_host(&self, a: usize, b: usize) -> bool {
        self.locs[a].host == self.locs[b].host
    }

    /// `true` when the two ranks are pinned to the same socket of the same
    /// host.
    pub fn same_socket(&self, a: usize, b: usize) -> bool {
        self.same_host(a, b) && self.locs[a].socket == self.locs[b].socket
    }

    /// Validate the placement against a cluster: containers exist, cores
    /// are within range and no two ranks share a core (the paper pins one
    /// rank per core).
    pub fn validate(&self, cluster: &Cluster) -> Result<(), String> {
        let mut used: Vec<(HostId, CoreId)> = Vec::with_capacity(self.locs.len());
        for (rank, loc) in self.locs.iter().enumerate() {
            if loc.host.0 as usize >= cluster.num_hosts() {
                return Err(format!("rank {rank}: host {} out of range", loc.host));
            }
            let host = cluster.host(loc.host);
            if loc.container.0 as usize >= cluster.containers.len() {
                return Err(format!(
                    "rank {rank}: container {} out of range",
                    loc.container
                ));
            }
            let cont = cluster.container(loc.container);
            if cont.host != loc.host {
                return Err(format!(
                    "rank {rank}: container {} lives on {} not {}",
                    loc.container, cont.host, loc.host
                ));
            }
            if loc.core.0 >= host.total_cores() {
                return Err(format!("rank {rank}: core {:?} out of range", loc.core));
            }
            if host.socket_of_core(loc.core) != loc.socket {
                return Err(format!("rank {rank}: socket/core mismatch"));
            }
            let key = (loc.host, loc.core);
            if used.contains(&key) {
                return Err(format!(
                    "rank {rank}: core {:?} on {} double-booked",
                    loc.core, loc.host
                ));
            }
            used.push(key);
        }
        Ok(())
    }
}

#[cfg(test)]
impl Placement {
    /// Number of distinct hosts used.
    pub(crate) fn hosts_used(&self) -> usize {
        let mut h: Vec<HostId> = self.locs.iter().map(|l| l.host).collect();
        h.sort();
        h.dedup();
        h.len()
    }

    /// Number of distinct containers used.
    pub(crate) fn containers_used(&self) -> usize {
        let mut c: Vec<ContainerId> = self.locs.iter().map(|l| l.container).collect();
        c.sort();
        c.dedup();
        c.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Cluster;

    fn cluster_and_placement() -> (Cluster, Placement) {
        let mut c = Cluster::new();
        let h0 = c.add_host(2, 4);
        let h1 = c.add_host(2, 4);
        let c0 = c.add_container(h0, true, true, true);
        let c1 = c.add_container(h0, true, true, true);
        let c2 = c.add_container(h1, true, true, true);
        let mk = |host, container, core: u32, cluster: &Cluster| RankLoc {
            host,
            container,
            socket: cluster.host(host).socket_of_core(CoreId(core)),
            core: CoreId(core),
        };
        let p = Placement::new(vec![
            mk(h0, c0, 0, &c),
            mk(h0, c0, 1, &c),
            mk(h0, c1, 4, &c),
            mk(h1, c2, 0, &c),
        ]);
        (c, p)
    }

    #[test]
    fn valid_placement_passes() {
        let (c, p) = cluster_and_placement();
        p.validate(&c).unwrap();
        assert_eq!(p.num_ranks(), 4);
        assert_eq!(p.hosts_used(), 2);
        assert_eq!(p.containers_used(), 3);
    }

    #[test]
    fn co_residency_ground_truth() {
        let (_, p) = cluster_and_placement();
        assert_eq!(p.co_resident_ranks(0), vec![0, 1, 2]);
        assert_eq!(p.co_resident_ranks(3), vec![3]);
        assert!(p.same_container(0, 1));
        assert!(!p.same_container(0, 2));
        assert!(p.same_host(0, 2));
        assert!(!p.same_host(0, 3));
    }

    #[test]
    fn socket_relations() {
        let (_, p) = cluster_and_placement();
        assert!(p.same_socket(0, 1)); // cores 0,1 -> socket 0
        assert!(!p.same_socket(0, 2)); // core 4 -> socket 1
        assert!(!p.same_socket(0, 3)); // different hosts never share
    }

    #[test]
    fn double_booked_core_rejected() {
        let (c, p) = cluster_and_placement();
        let mut locs = p.locs().to_vec();
        locs[1].core = locs[0].core;
        assert!(Placement::new(locs).validate(&c).is_err());
    }

    #[test]
    fn container_host_mismatch_rejected() {
        let (c, p) = cluster_and_placement();
        let mut locs = p.locs().to_vec();
        locs[3].host = HostId(0); // container c2 lives on host 1
        assert!(Placement::new(locs).validate(&c).is_err());
    }

    #[test]
    fn socket_core_mismatch_rejected() {
        let (c, p) = cluster_and_placement();
        let mut locs = p.locs().to_vec();
        locs[2].socket = SocketId(0); // core 4 is on socket 1
        assert!(Placement::new(locs).validate(&c).is_err());
    }
}
