//! One-sided communication: windows, put, get, flush and fence.
//!
//! Window memory is registered with the fabric (the RDMA target). An
//! access to a peer's window travels on the route
//! [`ChannelSelector::route`](crate::ChannelSelector::route) gives a send
//! of the same size to that peer — one channel decision for both kinds of
//! traffic — and an access to this rank's own window is a local copy:
//!
//! * **SHM** — the window lives in host-shared memory, a put/get is a
//!   direct user-space copy (this is the fast path behind the paper's 9×
//!   one-sided bandwidth, Fig. 9);
//! * **CMA** — one `process_vm_writev`/`readv` syscall plus a single copy
//!   (large messages between co-resident containers);
//! * **HCA** — a true RDMA write/read through the adapter, paying the
//!   loopback penalty when the target is co-resident but undetected (the
//!   paper's "Default" behaviour). An eager-sized put is charged as the
//!   library's two-sided emulation; a rendezvous-sized one is a bare
//!   RDMA write.
//!
//! Puts complete remotely at their channel-dependent completion time;
//! [`Mpi::flush`] advances the origin's clock to the latest completion,
//! and [`Mpi::fence`] adds a barrier, matching MPI RMA epoch semantics.

use std::sync::Arc;

use cmpi_cluster::{Channel, SimTime};
use cmpi_fabric::MemoryRegion;

use crate::channel::{Protocol, Route};
use crate::collectives::{op, plain, Scope};
use crate::datatype::{from_bytes, to_bytes, MpiData};
use crate::runtime::Mpi;
use crate::stats::CallClass;

/// An allocated RMA window (one region of `len` bytes per rank).
pub struct Window {
    id: u32,
    len: usize,
    regions: Vec<Arc<MemoryRegion>>,
    /// Per-target completion high-water marks of this origin's pending
    /// operations.
    pending: Vec<SimTime>,
}

impl Window {
    /// Window id (identical on every rank).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Per-rank window length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for zero-length windows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Mpi {
    /// The world barrier inside a collective window call. The window API
    /// has no fault-tolerant form, so a failure ends the rank.
    fn window_barrier(&mut self, world: &Scope, op_id: u32) {
        plain("window barrier", self.barrier_list(world, op_id))
    }

    /// Collectively allocate a window of `len` bytes per rank
    /// (`MPI_Win_allocate`).
    pub fn win_allocate(&mut self, len: usize) -> Window {
        let t0 = self.enter();
        let id = self.win_counter;
        self.win_counter += 1;
        let mr = self
            .state
            .fabric
            .register_mr(self.rank, len)
            .expect("window registration requires HCA access (privileged container)");
        self.state.windows.publish(id, self.rank, Arc::clone(&mr));
        // The registration exchange is collective; the barrier also
        // provides the happens-before edge for the region table.
        let world = self.world_scope();
        self.window_barrier(&world, op::WIN_ALLOCATE);
        let regions = (world.ranks.iter())
            .map(|&r| self.state.windows.region(id, r))
            .collect();
        self.exit(CallClass::OneSided, t0);
        Window {
            id,
            len,
            regions,
            pending: vec![SimTime::ZERO; world.len()],
        }
    }

    /// The route of a `blen`-byte access to `target`'s window: the
    /// selector's, except that this rank's own window is a local copy
    /// under every policy.
    fn rma_route(&self, target: usize, blen: usize) -> Route {
        if target == self.rank {
            return Route {
                channel: Channel::Shm,
                protocol: Protocol::Eager,
            };
        }
        self.selector.route(&self.view.peer(target), blen)
    }

    /// What the origin is charged for moving `blen` bytes to or from a
    /// co-resident target's window on an intra-host `channel`: a chunked
    /// user-space copy through shared memory, or one CMA syscall.
    fn rma_local_time(&self, channel: Channel, blen: usize, cross: bool) -> SimTime {
        let cost = &self.state.cost;
        let tun = &self.state.tunables;
        let transfer = match channel {
            Channel::Shm => {
                let chunks = blen.div_ceil(tun.smp_eager_size.max(1)).max(1);
                SimTime::from_ns(cost.shm_post_ns * chunks as u64)
                    + cost.shm_copy_time(blen as u64, tun.smpi_length_queue as u64, cross)
            }
            Channel::Cma => cost.cma_time(blen as u64, cross),
            Channel::Hca => unreachable!("the HCA is charged by the fabric"),
        };
        SimTime::from_ns(cost.onesided_local_op_ns) + transfer
    }

    /// Store `data` into `target`'s window at byte offset `offset`
    /// (`MPI_Put`). Completion is deferred to [`Mpi::flush`]/[`Mpi::fence`].
    pub fn put<T: MpiData>(&mut self, win: &mut Window, target: usize, offset: usize, data: &[T]) {
        let t0 = self.enter();
        let bytes = to_bytes(data);
        let blen = bytes.len();
        let cost = self.state.cost;
        let route = self.rma_route(target, blen);
        let channel = route.channel;
        let cross = self.cross_socket(target);
        match channel {
            // Direct store into the shared window / one CMA write.
            Channel::Shm | Channel::Cma => {
                self.now += self.rma_local_time(channel, blen, cross);
                win.regions[target].write(offset, &bytes);
                win.pending[target] = win.pending[target].max(self.now);
            }
            Channel::Hca => {
                let rkey = win.regions[target].rkey();
                let comp = self
                    .state
                    .fabric
                    .rdma_write(self.rank, rkey, offset, &bytes, self.now)
                    .expect("RDMA put failed");
                if route.protocol == Protocol::Eager {
                    // Small puts run through the library's two-sided
                    // emulation path (copy + packet + remote completion):
                    // the origin's clock tracks the full loopback/wire
                    // latency, which is what bounds the paper's 4-byte put
                    // rate to ~0.5 Mops/s on the Default configuration.
                    let waited = comp.completed_at.saturating_sub(self.now);
                    self.obs.rma_wait(waited);
                    self.now = self.now.max(comp.completed_at) + cost.copy_time(blen as u64, false);
                } else {
                    // Large puts are true RDMA writes: asynchronous after
                    // the post; completion is observed at flush/fence.
                    self.now += SimTime::from_ns(cost.hca_post_ns);
                }
                win.pending[target] = win.pending[target].max(comp.completed_at);
            }
        }
        self.obs.tx(target, channel, blen);
        self.obs.rx_remote(target, channel, blen);
        self.exit(CallClass::OneSided, t0);
    }

    /// Load `out.len()` elements from `target`'s window at byte offset
    /// `offset` (`MPI_Get` + flush: the data is returned synchronously).
    pub fn get<T: MpiData>(
        &mut self,
        win: &mut Window,
        target: usize,
        offset: usize,
        out: &mut [T],
    ) {
        let bytes = self.get_wire(win, target, offset, out.len() * T::SIZE);
        from_bytes(&bytes, out);
    }

    /// The transfer half of [`Mpi::get`]: `blen` bytes of `target`'s
    /// window as they sit there, every cost charged.
    fn get_wire(&mut self, win: &mut Window, target: usize, offset: usize, blen: usize) -> Vec<u8> {
        let t0 = self.enter();
        let channel = self.rma_route(target, blen).channel;
        let cross = self.cross_socket(target);
        let bytes = match channel {
            Channel::Shm | Channel::Cma => {
                self.now += self.rma_local_time(channel, blen, cross);
                win.regions[target].read(offset, blen)
            }
            Channel::Hca => {
                let rkey = win.regions[target].rkey();
                let (data, comp) = self
                    .state
                    .fabric
                    .rdma_read(self.rank, rkey, offset, blen, self.now)
                    .expect("RDMA get failed");
                let waited = comp.completed_at.saturating_sub(self.now);
                self.obs.rma_wait(waited);
                self.now = self.now.max(comp.completed_at);
                data
            }
        };
        // A get pulls data *from* the target: the origin initiates, the
        // delivery lands here.
        self.obs.tx(target, channel, blen);
        self.obs.rx(target, channel, blen);
        self.exit(CallClass::OneSided, t0);
        bytes
    }

    /// Complete all pending operations this origin issued to `target`
    /// (`MPI_Win_flush`).
    pub fn flush(&mut self, win: &mut Window, target: usize) {
        let t0 = self.enter();
        let waited = win.pending[target].saturating_sub(self.now);
        self.obs.rma_wait(waited);
        self.now = self.now.max(win.pending[target]);
        win.pending[target] = SimTime::ZERO;
        self.exit(CallClass::OneSided, t0);
    }

    /// Drain every pending completion, attributing the jump to the
    /// one-sided transfer bucket.
    fn drain_pending(&mut self, win: &mut Window) {
        let mut latest = self.now;
        for t in win.pending.iter_mut() {
            latest = latest.max(*t);
            *t = SimTime::ZERO;
        }
        let waited = latest.saturating_sub(self.now);
        self.obs.rma_wait(waited);
        self.now = latest;
    }

    /// Close an RMA epoch: flush everything, then synchronize all ranks
    /// (`MPI_Win_fence`).
    pub fn fence(&mut self, win: &mut Window) {
        let t0 = self.enter();
        self.drain_pending(win);
        let world = self.world_scope();
        self.window_barrier(&world, op::WIN_FENCE);
        self.exit(CallClass::OneSided, t0);
    }

    /// Read this rank's own window region (local load, no MPI semantics).
    pub fn win_read_local<T: MpiData>(&self, win: &Window, offset: usize, out: &mut [T]) {
        let bytes = win.regions[self.rank].read(offset, out.len() * T::SIZE);
        from_bytes(&bytes, out);
    }

    /// Write this rank's own window region (local store, no MPI
    /// semantics).
    pub fn win_write_local<T: MpiData>(&self, win: &Window, offset: usize, data: &[T]) {
        win.regions[self.rank].write(offset, &to_bytes(data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::LocalityPolicy;
    use crate::runtime::JobSpec;
    use cmpi_cluster::{DeploymentScenario, NamespaceSharing};

    /// A window over every rank's region, registered by the calling rank
    /// alone. `win_allocate`'s barrier routes its own messages, so under
    /// a forced channel the pair cannot use it fails before any access;
    /// this window makes the access the first routed call.
    fn window_without_barrier(mpi: &Mpi, len: usize) -> Window {
        let regions = (0..mpi.size())
            .map(|r| mpi.state.fabric.register_mr(r, len).expect("attached"))
            .collect();
        Window {
            id: 0,
            len,
            regions,
            pending: vec![SimTime::ZERO; mpi.size()],
        }
    }

    #[test]
    #[should_panic(expected = "forced SHM channel but peers do not share an IPC namespace")]
    fn a_forced_shm_put_between_ipc_isolated_containers_panics_like_a_send() {
        let scenario = DeploymentScenario::pt2pt_pair(true, true, NamespaceSharing::isolated());
        let spec = JobSpec::new(scenario).with_policy(LocalityPolicy::ForceChannel(Channel::Shm));
        spec.run(|mpi| {
            if mpi.rank() == 0 {
                let mut win = window_without_barrier(mpi, 64);
                mpi.put(&mut win, 1, 0, &[1u8; 4]);
            }
        });
    }

    #[test]
    fn a_put_to_the_own_window_is_a_local_copy_under_every_policy() {
        let scenario = DeploymentScenario::pt2pt_pair(true, true, NamespaceSharing::isolated());
        for policy in [
            LocalityPolicy::Hostname,
            LocalityPolicy::ForceChannel(Channel::Hca),
            LocalityPolicy::ForceChannel(Channel::Shm),
        ] {
            let spec = JobSpec::new(scenario.clone()).with_policy(policy);
            let r = spec.run(|mpi| {
                let mut win = window_without_barrier(mpi, 1 << 20);
                let me = mpi.rank();
                mpi.put(&mut win, me, 0, &vec![1u8; 1 << 20]);
                mpi.stats().channel(Channel::Shm).ops
            });
            assert_eq!(r.results, [1, 1], "{policy:?}");
        }
    }
}
