// The one-sided channel choice as `crates/cmpi-core/src/onesided.rs`
// made it before one-sided accesses took `ChannelSelector::route`: a
// line-for-line copy of the selector's forced / local / HCA branches.
// The `one-route` lint rule must flag each of its reads of the
// decision's inputs.

impl Mpi {
    /// Which channel a one-sided access to `target` takes under the
    /// active policy.
    pub fn onesided_channel(&self, target: usize, bytes: usize) -> Channel {
        if target == self.rank {
            return Channel::Shm;
        }
        if let LocalityPolicy::ForceChannel(c) = self.selector.policy() {
            return c;
        }
        let peer = self.view.peer(target);
        if peer.considered_local {
            if peer.vis.shm && bytes <= self.state.tunables.smp_eager_size {
                Channel::Shm
            } else if peer.vis.cma {
                Channel::Cma
            } else if peer.vis.shm {
                Channel::Shm
            } else {
                Channel::Hca
            }
        } else {
            Channel::Hca
        }
    }
}
