//! Channel selection — the rescheduling step of the paper's design.
//!
//! Given a peer's resolved [`PeerInfo`] and a message size, the selector
//! produces a [`Route`]: which channel carries the message and under which
//! protocol. This is the single decision point the Container Locality
//! Detector influences; everything downstream (protocol engines, cost
//! accounting) is policy-agnostic.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use cmpi_cluster::{Channel, Tunables};

use crate::locality::{LocalityPolicy, PeerInfo};

/// Message transfer protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Copy through pre-allocated buffers; no handshake.
    Eager,
    /// RTS/CTS handshake, then a single-copy (CMA) or zero-copy (RDMA)
    /// transfer.
    Rendezvous,
}

/// A routing decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// The carrying channel.
    pub channel: Channel,
    /// The transfer protocol.
    pub protocol: Protocol,
}

/// The channel-selection policy engine.
#[derive(Clone, Copy, Debug)]
pub struct ChannelSelector {
    policy: LocalityPolicy,
    tunables: Tunables,
}

impl ChannelSelector {
    /// Build a selector.
    pub fn new(policy: LocalityPolicy, tunables: Tunables) -> Self {
        ChannelSelector { policy, tunables }
    }

    /// The active tunables.
    pub fn tunables(&self) -> &Tunables {
        &self.tunables
    }

    /// The active policy.
    pub fn policy(&self) -> LocalityPolicy {
        self.policy
    }

    /// Route a `size`-byte message to a peer.
    ///
    /// # Panics
    /// Panics when a forced channel is physically impossible for the pair
    /// (microbenchmark misconfiguration).
    pub fn route(&self, peer: &PeerInfo, size: usize) -> Route {
        if let LocalityPolicy::ForceChannel(c) = self.policy {
            return self.forced(c, peer, size);
        }
        if peer.considered_local {
            self.local_route(peer, size)
        } else {
            self.hca_route(size)
        }
    }

    fn forced(&self, c: Channel, peer: &PeerInfo, size: usize) -> Route {
        match c {
            Channel::Shm => {
                assert!(
                    peer.vis.shm,
                    "forced SHM channel but peers do not share an IPC namespace"
                );
                Route {
                    channel: Channel::Shm,
                    protocol: Protocol::Eager,
                }
            }
            Channel::Cma => {
                assert!(
                    peer.vis.cma,
                    "forced CMA channel but peers do not share a PID namespace"
                );
                Route {
                    channel: Channel::Cma,
                    protocol: Protocol::Rendezvous,
                }
            }
            Channel::Hca => self.hca_route(size),
        }
    }

    fn local_route(&self, peer: &PeerInfo, size: usize) -> Route {
        if size <= self.tunables.smp_eager_size && peer.vis.shm {
            // Small message: double copy through the eager queue beats the
            // CMA syscall.
            Route {
                channel: Channel::Shm,
                protocol: Protocol::Eager,
            }
        } else if peer.vis.cma {
            // Large message: single-copy CMA rendezvous.
            Route {
                channel: Channel::Cma,
                protocol: Protocol::Rendezvous,
            }
        } else if peer.vis.shm {
            // CMA unavailable (no shared PID namespace): chunk the large
            // message through the SHM queue.
            Route {
                channel: Channel::Shm,
                protocol: Protocol::Eager,
            }
        } else {
            // Considered local but no intra-host facility is usable — fall
            // back to the network.
            self.hca_route(size)
        }
    }

    fn hca_route(&self, size: usize) -> Route {
        Route {
            channel: Channel::Hca,
            protocol: if size <= self.tunables.mv2_iba_eager_threshold {
                Protocol::Eager
            } else {
                Protocol::Rendezvous
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_shmem::Visibility;

    fn peer(local: bool, shm: bool, cma: bool) -> PeerInfo {
        PeerInfo {
            considered_local: local,
            vis: Visibility {
                co_resident: shm || cma,
                same_container: false,
                shm,
                cma,
            },
            same_socket: true,
            downgraded: None,
        }
    }

    fn opt() -> ChannelSelector {
        ChannelSelector::new(LocalityPolicy::ContainerDetector, Tunables::default())
    }

    #[test]
    fn local_small_goes_shm_eager() {
        let r = opt().route(&peer(true, true, true), 8 * 1024);
        assert_eq!(
            r,
            Route {
                channel: Channel::Shm,
                protocol: Protocol::Eager
            }
        );
    }

    #[test]
    fn local_large_goes_cma_rendezvous() {
        let r = opt().route(&peer(true, true, true), 8 * 1024 + 1);
        assert_eq!(
            r,
            Route {
                channel: Channel::Cma,
                protocol: Protocol::Rendezvous
            }
        );
    }

    #[test]
    fn local_large_without_pid_sharing_chunks_through_shm() {
        let r = opt().route(&peer(true, true, false), 1 << 20);
        assert_eq!(
            r,
            Route {
                channel: Channel::Shm,
                protocol: Protocol::Eager
            }
        );
    }

    #[test]
    fn local_without_any_facility_falls_back_to_hca() {
        let r = opt().route(&peer(true, false, false), 64);
        assert_eq!(r.channel, Channel::Hca);
    }

    #[test]
    fn remote_uses_iba_threshold() {
        let s = opt();
        assert_eq!(
            s.route(&peer(false, false, false), 17 * 1024),
            Route {
                channel: Channel::Hca,
                protocol: Protocol::Eager
            }
        );
        assert_eq!(
            s.route(&peer(false, false, false), 17 * 1024 + 1),
            Route {
                channel: Channel::Hca,
                protocol: Protocol::Rendezvous
            }
        );
    }

    #[test]
    fn hostname_policy_sends_local_but_unrecognized_peers_to_hca() {
        // The peer is physically reachable via SHM/CMA but the hostname
        // policy did not recognise it: Default behaviour = HCA loopback.
        let s = ChannelSelector::new(LocalityPolicy::Hostname, Tunables::default());
        let r = s.route(&peer(false, true, true), 64);
        assert_eq!(r.channel, Channel::Hca);
    }

    #[test]
    fn forced_channels_override_thresholds() {
        let shm = ChannelSelector::new(
            LocalityPolicy::ForceChannel(Channel::Shm),
            Tunables::default(),
        );
        assert_eq!(
            shm.route(&peer(true, true, true), 1 << 20).channel,
            Channel::Shm
        );
        let cma = ChannelSelector::new(
            LocalityPolicy::ForceChannel(Channel::Cma),
            Tunables::default(),
        );
        assert_eq!(cma.route(&peer(true, true, true), 4).channel, Channel::Cma);
        let hca = ChannelSelector::new(
            LocalityPolicy::ForceChannel(Channel::Hca),
            Tunables::default(),
        );
        assert_eq!(hca.route(&peer(true, true, true), 4).channel, Channel::Hca);
    }

    #[test]
    #[should_panic(expected = "forced SHM")]
    fn forced_shm_requires_ipc_sharing() {
        let s = ChannelSelector::new(
            LocalityPolicy::ForceChannel(Channel::Shm),
            Tunables::default(),
        );
        s.route(&peer(true, false, true), 4);
    }

    #[test]
    fn custom_eager_threshold_moves_the_switch_point() {
        let s = ChannelSelector::new(
            LocalityPolicy::ContainerDetector,
            Tunables::default()
                .with_smp_eager_size(1024)
                .with_smpi_length_queue(8192),
        );
        assert_eq!(s.route(&peer(true, true, true), 1024).channel, Channel::Shm);
        assert_eq!(s.route(&peer(true, true, true), 1025).channel, Channel::Cma);
    }
}
