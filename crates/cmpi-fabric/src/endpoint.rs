//! Fabric endpoints: attach, two-sided send/recv, RDMA.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use cmpi_cluster::{CostModel, FaultPlan, HostId, SimTime};
// Per-endpoint state and the link schedules are shim-synchronized so the
// model checker can explore the receive queue's locked drain against
// concurrent posts, and a prune's floor reads against a floor's publish;
// fabric-global tables stay on plain locks (their critical sections
// contain no model-visible operations).
use cmpi_model::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use parking_lot::Mutex as PlainMutex;

use crate::mr::{MemoryRegion, RKey};
use crate::schedule::LinkSchedule;
use crate::slots::SlotTable;

/// Errors surfaced by the fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// The container was not started `--privileged`, so the HCA device is
    /// not visible inside it.
    NotPrivileged,
    /// The rank never attached an endpoint.
    NotAttached(usize),
    /// Unknown remote key.
    BadRKey,
    /// The rank already attached an endpoint to this fabric.
    AlreadyAttached(usize),
    /// Queue-pair creation failed transiently during attach (injected:
    /// resource exhaustion on the adapter). Retrying the attach succeeds
    /// once the rank's failure budget is spent.
    QpCreationFailed(usize),
    /// A posted send completed in error (injected: transient CQE error).
    /// The payload was *not* delivered; the caller may repost.
    TransientCompletion {
        /// Sending rank.
        src: usize,
        /// Intended receiver.
        dst: usize,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::NotPrivileged => {
                write!(f, "HCA not accessible: container lacks --privileged")
            }
            FabricError::NotAttached(r) => write!(f, "rank {r} has no fabric endpoint"),
            FabricError::BadRKey => write!(f, "invalid remote key"),
            FabricError::AlreadyAttached(r) => {
                write!(f, "rank {r} already attached a fabric endpoint")
            }
            FabricError::QpCreationFailed(r) => {
                write!(f, "transient QP creation failure for rank {r}")
            }
            FabricError::TransientCompletion { src, dst } => {
                write!(f, "send {src}->{dst} completed in error (transient)")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Capacity of [`InlineHdr`] — covers every protocol header the MPI
/// layer frames, with slack for future fields.
pub const INLINE_HDR_MAX: usize = 40;

/// A small fixed-capacity header that rides alongside a two-sided
/// message without heap allocation — the analogue of a WQE's inline
/// data segment, which verbs implementations use for exactly this kind
/// of protocol framing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InlineHdr {
    buf: [u8; INLINE_HDR_MAX],
    len: u8,
}

impl Default for InlineHdr {
    fn default() -> Self {
        InlineHdr {
            buf: [0; INLINE_HDR_MAX],
            len: 0,
        }
    }
}

impl InlineHdr {
    /// Copy `bytes` into an inline header.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds [`INLINE_HDR_MAX`].
    pub fn new(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= INLINE_HDR_MAX,
            "inline header of {} bytes exceeds the {INLINE_HDR_MAX}-byte segment",
            bytes.len()
        );
        let mut h = InlineHdr {
            buf: [0; INLINE_HDR_MAX],
            len: bytes.len() as u8,
        };
        h.buf[..bytes.len()].copy_from_slice(bytes);
        h
    }

    /// The header bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// Header length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the header is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An incoming two-sided message.
#[derive(Clone, Debug)]
pub struct FabricMsg {
    /// Source rank.
    pub src: usize,
    /// Immediate value (protocol dispatch tag).
    pub imm: u32,
    /// Inline protocol header (empty for sends posted without one).
    pub hdr: InlineHdr,
    /// Payload.
    pub data: Bytes,
    /// Virtual time at which the message is observable at the receiver.
    pub available_at: SimTime,
}

/// Timing of a completed `post_send`.
#[derive(Clone, Copy, Debug)]
pub struct SendInfo {
    /// When the sender's clock may proceed (WQE posted, doorbell rung).
    pub local_done: SimTime,
    /// When the payload is observable at the receiver.
    pub delivered_at: SimTime,
}

/// Timing of a completed RDMA operation.
#[derive(Clone, Copy, Debug)]
pub struct RdmaCompletion {
    /// When the initiator's completion-queue entry is observable.
    pub completed_at: SimTime,
    /// When the data is in place at its destination.
    pub data_at: SimTime,
}

/// Per-rank counters (diagnostics and the fabric's own tests; the MPI
/// library keeps its own per-channel statistics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Two-sided messages sent.
    pub sends: u64,
    /// Two-sided bytes sent.
    pub send_bytes: u64,
    /// Two-sided messages drained by this rank's progress engine.
    pub recvs: u64,
    /// Two-sided bytes drained.
    pub recv_bytes: u64,
    /// RDMA operations initiated.
    pub rdma_ops: u64,
    /// RDMA bytes moved.
    pub rdma_bytes: u64,
}

/// What the sending side of an endpoint owns. One lock, taken once per
/// posted operation: the fault-injection cursor, the sender's counters
/// and the transmit path's wire schedule all change together.
#[derive(Default)]
struct Tx {
    /// Fault-injection bookkeeping: which send operation is next and how
    /// many times its posting has already failed.
    op_index: u64,
    attempts: u32,
    sends: u64,
    send_bytes: u64,
    rdma_ops: u64,
    rdma_bytes: u64,
    /// Cross-host transmit path.
    egress: LinkSchedule,
}

/// What the receiving side of an endpoint owns: the receive queue, the
/// receiver's counters and the receive path's wire schedule.
#[derive(Default)]
struct Rx {
    incoming: VecDeque<FabricMsg>,
    recvs: u64,
    recv_bytes: u64,
    /// Cross-host receive path.
    ingress: LinkSchedule,
}

impl Rx {
    /// Hand over the oldest queued message, counted as drained.
    fn pop(&mut self) -> Option<FabricMsg> {
        let m = self.incoming.pop_front()?;
        self.recvs += 1;
        self.recv_bytes += (m.hdr.len() + m.data.len()) as u64;
        Some(m)
    }
}

/// One rank's endpoint. `tx` and `rx` are only ever taken one after the
/// other, never nested, and nothing else is locked inside either.
struct Endpoint {
    host: HostId,
    /// The host's single adapter, which carries both directions of its
    /// same-host traffic: shared by every endpoint on `host`.
    loopback: Arc<Mutex<LinkSchedule>>,
    /// The rank's published floor in ns ([`Fabric::publish_floor`]): no
    /// transfer it posts, or is posted for a handshake it has open, is
    /// ready earlier.
    floor: AtomicU64,
    /// Lowered by [`Fabric::detach`] (the slot itself is write-once);
    /// its `Release` store pairs with the `Acquire` load in `Fabric::ep`.
    attached: AtomicBool,
    tx: Mutex<Tx>,
    rx: Mutex<Rx>,
    /// Set once, so a delivery reads it with a plain load.
    notifier: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

/// The cluster-wide fabric: switch + one HCA per host, endpoints per rank.
///
/// Transfers occupy the wire. Every adapter path (a host's loopback, an
/// endpoint's egress, an endpoint's ingress) carries a [`LinkSchedule`]
/// owned by whoever contends for it: egress and ingress live in the
/// endpoint's `tx` and `rx` sections, loopback in a per-host table, so
/// no lock is shared by traffic that does not share a wire. Residual
/// nondeterminism is bounded by genuine contention (the same ambiguity a
/// real arbiter has), not by thread scheduling.
pub struct Fabric {
    cost: CostModel,
    faults: FaultPlan,
    /// Rank-indexed endpoints. Slots are write-once so the two lookups
    /// every posted operation makes are plain loads; a detached endpoint
    /// stays in its slot, marked, until the fabric is dropped. Boxed, so
    /// the table's spare room costs a pointer per slot.
    endpoints: SlotTable<Box<Endpoint>>,
    /// Host-indexed loopback schedules, handed to each endpoint of the
    /// host at attach.
    loopback: SlotTable<Arc<Mutex<LinkSchedule>>>,
    /// Registered regions; region `i` has rkey `i + 1`.
    mrs: PlainMutex<Vec<Arc<MemoryRegion>>>,
    /// Remaining injected attach failures per rank (consumed by retries).
    attach_budget: PlainMutex<HashMap<usize, u32>>,
}

impl Fabric {
    /// Build a fault-free fabric with the given cost model.
    pub fn new(cost: CostModel) -> Arc<Self> {
        Self::with_faults(cost, FaultPlan::none())
    }

    /// Build a fabric whose attach/send paths inject the transient faults
    /// described by `plan`. Injection is a pure function of the plan and
    /// per-endpoint operation counters, so runs are deterministic.
    pub fn with_faults(cost: CostModel, plan: FaultPlan) -> Arc<Self> {
        Arc::new(Fabric {
            cost,
            faults: plan,
            endpoints: SlotTable::new(),
            loopback: SlotTable::new(),
            mrs: PlainMutex::new(Vec::new()),
            attach_budget: PlainMutex::new(HashMap::new()),
        })
    }

    /// The fabric's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Attach rank `rank` running on `host`. Fails unless the rank's
    /// container can see the HCA (`privileged`). With an active fault
    /// plan, the first `attach_failures(rank)` calls fail with
    /// [`FabricError::QpCreationFailed`]; subsequent retries succeed.
    /// A rank attaches once per fabric: a second successful attach is
    /// [`FabricError::AlreadyAttached`], also after a `detach`.
    pub fn attach(&self, rank: usize, host: HostId, privileged: bool) -> Result<(), FabricError> {
        if !privileged {
            return Err(FabricError::NotPrivileged);
        }
        let injected = self.faults.attach_failures(rank);
        if injected > 0 {
            let mut budget = self.attach_budget.lock();
            let left = budget.entry(rank).or_insert(injected);
            if *left > 0 {
                *left -= 1;
                return Err(FabricError::QpCreationFailed(rank));
            }
        }
        let loopback = self
            .loopback
            .slot(host.0 as usize)
            .get_or_init(|| Arc::new(Mutex::new(LinkSchedule::default())));
        self.endpoints
            .slot(rank)
            .set(Box::new(Endpoint {
                host,
                loopback: Arc::clone(loopback),
                attached: AtomicBool::new(true),
                floor: AtomicU64::new(0),
                tx: Mutex::new(Tx::default()),
                rx: Mutex::new(Rx::default()),
                notifier: OnceLock::new(),
            }))
            .map_err(|_| FabricError::AlreadyAttached(rank))
    }

    /// Tear down `rank`'s endpoint (the QP-destroy a dying rank — or its
    /// container's OOM killer — performs). Subsequent operations naming
    /// the rank fail with [`FabricError::NotAttached`]; packets already
    /// delivered to its receive queue are dropped. Detaching a
    /// never-attached rank is a no-op.
    pub fn detach(&self, rank: usize) {
        if let Some(ep) = self.endpoints.get(rank) {
            ep.attached.store(false, Ordering::Release);
            ep.rx.lock().incoming = VecDeque::new();
        }
    }

    /// Register the wake-up callback invoked whenever a message lands in
    /// `rank`'s receive queue (the MPI progress engine's interrupt). An
    /// endpoint takes one notifier for its lifetime; later registrations
    /// are ignored. The fabric owns the callback until it is dropped, so
    /// it must not own the fabric back.
    pub fn set_notifier(&self, rank: usize, f: Box<dyn Fn() + Send + Sync>) {
        if let Ok(ep) = self.ep(rank) {
            let _ = ep.notifier.set(f);
        }
    }

    /// Publish `rank`'s floor: no transfer the rank posts from here on,
    /// and none posted for a rendezvous it has open, is ready before `t`.
    /// A rank's floor never goes backwards. Link schedules drop what ends
    /// at or below the least floor of all endpoints; an endpoint whose
    /// rank never publishes keeps that at zero, and nothing is dropped.
    /// Every rank attaches before any publishes. A no-op for a rank with
    /// no endpoint.
    pub fn publish_floor(&self, rank: usize, t: SimTime) {
        if let Some(ep) = self.endpoints.get(rank) {
            // Pairs with the `Acquire` load in `Fabric::floor`: a prune
            // that reads this value sees every reservation made on the
            // strength of the older one (DESIGN §13).
            ep.floor.store(t.as_ns(), Ordering::Release);
        }
    }

    /// The job's floor: the least floor any endpoint published. A dead
    /// rank's floor stays where it was (a hung rank keeps its endpoint
    /// and still receives its handshakes' packets), which only stops
    /// pruning.
    fn floor(&self) -> u64 {
        let floors = self
            .endpoints
            .values()
            .map(|ep| ep.floor.load(Ordering::Acquire));
        floors.min().unwrap_or(0)
    }

    fn ep(&self, rank: usize) -> Result<&Endpoint, FabricError> {
        match self.endpoints.get(rank) {
            Some(ep) if ep.attached.load(Ordering::Acquire) => Ok(ep),
            _ => Err(FabricError::NotAttached(rank)),
        }
    }

    /// Move `bytes` from `src` to `dst`, no earlier than `ready`:
    /// reserves wire occupancy on every adapter path the transfer
    /// crosses and returns the delivery time. The sender-side section of
    /// `src`, the host adapter (loopback only) and the receiver-side
    /// section of `dst` are taken one after the other, never nested.
    /// `depart` runs first, inside the sender-side section, and may
    /// refuse the transfer before anything is reserved; `arrive` runs
    /// last, inside the receiver-side section, with the delivery time.
    fn schedule(
        &self,
        src: &Endpoint,
        dst: &Endpoint,
        bytes: u64,
        ready: SimTime,
        depart: impl FnOnce(&mut Tx) -> Result<(), FabricError>,
        arrive: impl FnOnce(&mut Rx, SimTime),
    ) -> Result<SimTime, FabricError> {
        let same_host = src.host == dst.host;
        let wire = self.cost.hca_wire_time(bytes, same_host);
        let latency = self.cost.hca_latency(same_host);
        let egress_start = {
            let mut tx = src.tx.lock();
            depart(&mut tx)?;
            (!same_host).then(|| tx.egress.reserve(ready, wire, || self.floor()))
        };
        let start = match egress_start {
            Some(start) => start,
            // Loopback: both directions contend for the one adapter.
            None => src.loopback.lock().reserve(ready, wire, || self.floor()),
        };
        let mut rx = dst.rx.lock();
        let delivered = if same_host {
            start + wire + latency
        } else {
            rx.ingress.reserve(start + latency, wire, || self.floor()) + wire
        };
        arrive(&mut rx, delivered);
        Ok(delivered)
    }

    /// `true` when both endpoints hang off the same host's HCA (loopback).
    pub fn same_host(&self, a: usize, b: usize) -> Result<bool, FabricError> {
        Ok(self.ep(a)?.host == self.ep(b)?.host)
    }

    /// Post a two-sided send of `data` from `src` to `dst` at virtual time
    /// `now`.
    pub fn post_send(
        &self,
        src: usize,
        dst: usize,
        imm: u32,
        data: Bytes,
        now: SimTime,
    ) -> Result<SendInfo, FabricError> {
        self.post_send_parts(src, dst, imm, &[], data, now)
    }

    /// Post a two-sided send framed as an inline protocol header plus a
    /// payload that travels by reference. The header rides in the WQE's
    /// inline segment ([`InlineHdr`]); the payload `Bytes` is adopted
    /// whole, so the upper layer never copies it into a contiguous
    /// frame. Wire cost and byte accounting cover both parts.
    pub fn post_send_parts(
        &self,
        src: usize,
        dst: usize,
        imm: u32,
        hdr: &[u8],
        data: Bytes,
        now: SimTime,
    ) -> Result<SendInfo, FabricError> {
        let s = self.ep(src)?;
        let d = self.ep(dst)?;
        let wire_len = (hdr.len() + data.len()) as u64;
        let local_done = now + SimTime::from_ns(self.cost.hca_post_ns);
        let hdr = InlineHdr::new(hdr);
        let delivered_at = self.schedule(
            s,
            d,
            wire_len,
            local_done,
            |tx| {
                if self.faults.send_fails(tx.op_index, tx.attempts) {
                    // Completed-in-error CQE: count the failed attempt,
                    // keep the op index so the repost targets the same
                    // operation.
                    tx.attempts += 1;
                    return Err(FabricError::TransientCompletion { src, dst });
                }
                tx.op_index += 1;
                tx.attempts = 0;
                tx.sends += 1;
                tx.send_bytes += wire_len;
                Ok(())
            },
            |rx, available_at| {
                rx.incoming.push_back(FabricMsg {
                    src,
                    imm,
                    hdr,
                    data,
                    available_at,
                });
            },
        )?;
        // Outside every lock: the callback pokes the rank's mailbox.
        if let Some(notify) = d.notifier.get() {
            notify();
        }
        Ok(SendInfo {
            local_done,
            delivered_at,
        })
    }

    /// Take the oldest message of `rank`'s receive queue, with the number
    /// of messages still queued behind it, or `None` when the queue is
    /// empty. The pop runs under the receive-side lock every post pushes
    /// under, so a caller that pops until nothing is behind sees every
    /// message pushed before its last pop, in arrival order, and none
    /// twice. It has no arrival hint of its own: the MPI runtime polls
    /// only after the rank's notifier has fired. The queue keeps its
    /// allocation, so steady-state polling never touches the heap, and
    /// the caller needs no buffer of its own.
    pub fn poll_recv_one(&self, rank: usize) -> Result<Option<(FabricMsg, usize)>, FabricError> {
        let mut rx = self.ep(rank)?.rx.lock();
        Ok(rx.pop().map(|m| (m, rx.incoming.len())))
    }

    /// Drain `rank`'s receive queue into a fresh vector, in arrival order,
    /// under one lock.
    pub fn poll_recv(&self, rank: usize) -> Result<Vec<FabricMsg>, FabricError> {
        let mut rx = self.ep(rank)?.rx.lock();
        let mut msgs = Vec::with_capacity(rx.incoming.len());
        msgs.extend(std::iter::from_fn(|| rx.pop()));
        Ok(msgs)
    }

    /// Register `len` bytes of `rank`'s memory for remote access.
    pub fn register_mr(&self, rank: usize, len: usize) -> Result<Arc<MemoryRegion>, FabricError> {
        self.ep(rank)?; // must be attached
        let mut mrs = self.mrs.lock();
        let mr = Arc::new(MemoryRegion::new(RKey(mrs.len() as u64 + 1), rank, len));
        mrs.push(Arc::clone(&mr));
        Ok(mr)
    }

    /// Look up a registered region by rkey.
    pub fn mr(&self, rkey: RKey) -> Result<Arc<MemoryRegion>, FabricError> {
        let i = usize::try_from(rkey.0.wrapping_sub(1)).map_err(|_| FabricError::BadRKey)?;
        self.mrs.lock().get(i).cloned().ok_or(FabricError::BadRKey)
    }

    /// One-sided RDMA write: place `data` into `(rkey, offset)` with no
    /// target-side involvement.
    pub fn rdma_write(
        &self,
        src: usize,
        rkey: RKey,
        offset: usize,
        data: &[u8],
        now: SimTime,
    ) -> Result<RdmaCompletion, FabricError> {
        let s = self.ep(src)?;
        let mr = self.mr(rkey)?;
        let d = self.ep(mr.owner())?;
        let posted = now + SimTime::from_ns(self.cost.hca_post_ns);
        let data_at = self.schedule(
            s,
            d,
            data.len() as u64,
            posted,
            |tx| {
                tx.rdma_ops += 1;
                tx.rdma_bytes += data.len() as u64;
                Ok(())
            },
            |_, _| {},
        )?;
        // RC write completion: the ack returns after the data hit the wire.
        let completed_at = data_at
            + self.cost.hca_latency(s.host == d.host)
            + SimTime::from_ns(self.cost.hca_completion_ns);
        mr.write(offset, data);
        Ok(RdmaCompletion {
            completed_at,
            data_at,
        })
    }

    /// One-sided RDMA read: fetch `len` bytes from `(rkey, offset)` with no
    /// target-side involvement.
    pub fn rdma_read(
        &self,
        src: usize,
        rkey: RKey,
        offset: usize,
        len: usize,
        now: SimTime,
    ) -> Result<(Vec<u8>, RdmaCompletion), FabricError> {
        let s = self.ep(src)?;
        let mr = self.mr(rkey)?;
        let d = self.ep(mr.owner())?;
        let posted = now + SimTime::from_ns(self.cost.hca_post_ns);
        {
            let mut tx = s.tx.lock();
            tx.rdma_ops += 1;
            tx.rdma_bytes += len as u64;
        }
        // The request travels one way; the data streams back through the
        // owner's adapter.
        let request_at = posted + self.cost.hca_latency(s.host == d.host);
        let data_at = self.schedule(d, s, len as u64, request_at, |_| Ok(()), |_, _| {})?;
        let completed_at = data_at + SimTime::from_ns(self.cost.hca_completion_ns);
        let data = mr.read(offset, len);
        Ok((
            data,
            RdmaCompletion {
                completed_at,
                data_at,
            },
        ))
    }

    /// Per-rank counters.
    pub fn stats(&self, rank: usize) -> Result<EndpointStats, FabricError> {
        let ep = self.ep(rank)?;
        let mut st = {
            let tx = ep.tx.lock();
            EndpointStats {
                sends: tx.sends,
                send_bytes: tx.send_bytes,
                rdma_ops: tx.rdma_ops,
                rdma_bytes: tx.rdma_bytes,
                ..EndpointStats::default()
            }
        };
        let rx = ep.rx.lock();
        st.recvs = rx.recvs;
        st.recv_bytes = rx.recv_bytes;
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fabric_two_hosts() -> Arc<Fabric> {
        let f = Fabric::new(CostModel::default());
        f.attach(0, HostId(0), true).unwrap();
        f.attach(1, HostId(0), true).unwrap();
        f.attach(2, HostId(1), true).unwrap();
        f
    }

    #[test]
    fn unprivileged_container_cannot_attach() {
        let f = Fabric::new(CostModel::default());
        assert_eq!(
            f.attach(0, HostId(0), false),
            Err(FabricError::NotPrivileged)
        );
    }

    #[test]
    fn send_delivers_payload_with_timestamps() {
        let f = fabric_two_hosts();
        let info = f
            .post_send(0, 2, 7, Bytes::from_static(b"hello"), SimTime::from_us(1))
            .unwrap();
        assert!(info.local_done > SimTime::from_us(1));
        assert!(info.delivered_at > info.local_done);
        let msgs = f.poll_recv(2).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].src, 0);
        assert_eq!(msgs[0].imm, 7);
        assert_eq!(&msgs[0].data[..], b"hello");
        assert_eq!(msgs[0].available_at, info.delivered_at);
        // Queue drained.
        assert!(f.poll_recv(2).unwrap().is_empty());
    }

    #[test]
    fn loopback_is_slower_than_cross_host() {
        // The paper's central observation: intra-host HCA traffic pays the
        // adapter loopback penalty.
        let f = fabric_two_hosts();
        let data = Bytes::from(vec![0u8; 64 * 1024]);
        let loopback = f.post_send(0, 1, 0, data.clone(), SimTime::ZERO).unwrap();
        let wire = f.post_send(0, 2, 0, data, SimTime::ZERO).unwrap();
        assert!(loopback.delivered_at > wire.delivered_at);
    }

    #[test]
    fn notifier_fires_on_delivery() {
        let f = fabric_two_hosts();
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        f.set_notifier(
            1,
            Box::new(move || {
                h2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        f.post_send(0, 1, 0, Bytes::new(), SimTime::ZERO).unwrap();
        f.post_send(0, 1, 0, Bytes::new(), SimTime::ZERO).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn rdma_write_read_roundtrip() {
        let f = fabric_two_hosts();
        let mr = f.register_mr(2, 128).unwrap();
        let w = f
            .rdma_write(0, mr.rkey(), 16, b"payload", SimTime::ZERO)
            .unwrap();
        assert!(w.data_at < w.completed_at);
        // Target sees the data without participating.
        assert_eq!(mr.read(16, 7), b"payload");
        // A third rank can RDMA-read it back.
        let (data, r) = f.rdma_read(1, mr.rkey(), 16, 7, SimTime::ZERO).unwrap();
        assert_eq!(data, b"payload");
        assert!(r.completed_at > r.data_at);
    }

    #[test]
    fn rdma_read_latency_includes_round_trip() {
        let f = fabric_two_hosts();
        let mr = f.register_mr(2, 8).unwrap();
        let (_, r) = f.rdma_read(0, mr.rkey(), 0, 8, SimTime::ZERO).unwrap();
        let m = CostModel::default();
        // Two one-way latencies plus wire time must be included.
        assert!(r.data_at.as_ns() >= 2 * m.hca_wire_latency_ns);
    }

    #[test]
    fn bad_rkey_is_rejected() {
        let f = fabric_two_hosts();
        assert!(matches!(
            f.rdma_write(0, RKey(999), 0, b"x", SimTime::ZERO),
            Err(FabricError::BadRKey)
        ));
    }

    #[test]
    fn unattached_rank_is_rejected() {
        let f = fabric_two_hosts();
        assert!(matches!(
            f.post_send(0, 9, 0, Bytes::new(), SimTime::ZERO),
            Err(FabricError::NotAttached(9))
        ));
    }

    #[test]
    fn a_rank_attaches_once_and_detach_is_final() {
        let f = fabric_two_hosts();
        assert_eq!(
            f.attach(1, HostId(0), true),
            Err(FabricError::AlreadyAttached(1))
        );
        f.post_send(0, 1, 0, Bytes::from_static(b"queued"), SimTime::ZERO)
            .unwrap();
        f.detach(1);
        f.detach(7); // never attached: no-op
                     // Every operation naming the rank now fails, in either role, and
                     // what sat in its queue is gone.
        for r in [
            f.post_send(0, 1, 0, Bytes::new(), SimTime::ZERO).err(),
            f.post_send(1, 0, 0, Bytes::new(), SimTime::ZERO).err(),
            f.poll_recv(1).err(),
            f.stats(1).err(),
            f.register_mr(1, 8).err(),
        ] {
            assert_eq!(r, Some(FabricError::NotAttached(1)));
        }
        assert_eq!(
            f.attach(1, HostId(0), true),
            Err(FabricError::AlreadyAttached(1))
        );
        // The failed posts consumed nothing on the sender.
        assert_eq!(f.stats(0).unwrap().sends, 1);
    }

    #[test]
    fn polls_pop_in_arrival_order_and_count_once() {
        let f = fabric_two_hosts();
        assert!(f.poll_recv_one(2).unwrap().is_none());
        for imm in 0..3 {
            f.post_send_parts(0, 2, imm, b"hd", Bytes::from_static(b"xyz"), SimTime::ZERO)
                .unwrap();
        }
        let (first, behind) = f.poll_recv_one(2).unwrap().expect("queued");
        assert_eq!((first.imm, behind), (0, 2));
        let mut out = vec![first];
        out.extend(f.poll_recv(2).unwrap());
        f.post_send(1, 2, 3, Bytes::new(), SimTime::ZERO).unwrap();
        out.extend(f.poll_recv(2).unwrap());
        assert!(f.poll_recv(2).unwrap().is_empty());
        let imms: Vec<u32> = out.iter().map(|m| m.imm).collect();
        assert_eq!(imms, [0, 1, 2, 3]);
        assert_eq!(out[0].hdr.as_slice(), b"hd");
        let st = f.stats(2).unwrap();
        assert_eq!((st.recvs, st.recv_bytes), (4, 15));
    }

    #[test]
    fn wires_are_contended_only_by_the_traffic_that_shares_them() {
        let f = Fabric::new(CostModel::default());
        for (rank, host) in [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)] {
            f.attach(rank, HostId(host), true).unwrap();
        }
        let big = Bytes::from(vec![0u8; 256 * 1024]);
        let at = |src, dst| {
            f.post_send(src, dst, 0, big.clone(), SimTime::ZERO)
                .unwrap()
                .delivered_at
        };
        // One adapter per host: both directions of host 0's loopback
        // queue behind each other, host 1's does not feel them.
        let first = at(0, 1);
        assert!(at(1, 0) > first);
        assert_eq!(at(2, 3), first);
        // Cross-host: a second stream into rank 4 queues on its ingress,
        // a second stream out of rank 0 on its egress; disjoint pairs
        // do neither.
        let wire = at(0, 4);
        assert!(at(2, 4) > wire);
        assert!(at(0, 2) > wire);
        assert_eq!(at(3, 1), wire);
    }

    #[test]
    fn rkeys_are_dense_and_checked() {
        let f = fabric_two_hosts();
        let a = f.register_mr(0, 8).unwrap();
        let b = f.register_mr(2, 8).unwrap();
        assert_eq!((a.rkey(), b.rkey()), (RKey(1), RKey(2)));
        assert_eq!(f.mr(RKey(2)).unwrap().owner(), 2);
        for bad in [0, 3, u64::MAX] {
            assert_eq!(f.mr(RKey(bad)).err(), Some(FabricError::BadRKey));
        }
    }

    #[test]
    fn qp_creation_failure_budget_is_consumed_by_retries() {
        let plan = FaultPlan::none().with_qp_attach_failures(0, 2);
        let f = Fabric::with_faults(CostModel::default(), plan);
        assert_eq!(
            f.attach(0, HostId(0), true),
            Err(FabricError::QpCreationFailed(0))
        );
        assert_eq!(
            f.attach(0, HostId(0), true),
            Err(FabricError::QpCreationFailed(0))
        );
        // Third attempt succeeds; other ranks never fail.
        assert_eq!(f.attach(0, HostId(0), true), Ok(()));
        assert_eq!(f.attach(1, HostId(0), true), Ok(()));
    }

    #[test]
    fn transient_send_fault_recovers_on_repost() {
        // Every 2nd send fails once; a single repost always succeeds.
        let plan = FaultPlan::none().with_send_faults(2, 1);
        let f = Fabric::with_faults(CostModel::default(), plan);
        f.attach(0, HostId(0), true).unwrap();
        f.attach(1, HostId(1), true).unwrap();
        let payload = Bytes::from_static(b"x");
        // op 0 clean, op 1 faults then recovers.
        assert!(f.post_send(0, 1, 0, payload.clone(), SimTime::ZERO).is_ok());
        assert_eq!(
            f.post_send(0, 1, 0, payload.clone(), SimTime::ZERO)
                .unwrap_err(),
            FabricError::TransientCompletion { src: 0, dst: 1 }
        );
        assert!(f.post_send(0, 1, 0, payload.clone(), SimTime::ZERO).is_ok());
        // Both deliveries (not the errored attempt) reached the receiver.
        assert_eq!(f.poll_recv(1).unwrap().len(), 2);
        // Failed attempts are not counted as sends.
        assert_eq!(f.stats(0).unwrap().sends, 2);
    }

    #[test]
    fn send_faults_are_deterministic_per_op_index() {
        let plan = FaultPlan::none().with_send_faults(3, 2);
        let f = Fabric::with_faults(CostModel::default(), plan);
        f.attach(0, HostId(0), true).unwrap();
        f.attach(1, HostId(1), true).unwrap();
        let mut failures = Vec::new();
        for op in 0..9u64 {
            let mut attempts = 0;
            while f.post_send(0, 1, 0, Bytes::new(), SimTime::ZERO).is_err() {
                attempts += 1;
            }
            if attempts > 0 {
                failures.push((op, attempts));
            }
        }
        // Ops 2, 5, 8 each fail exactly `repeats` = 2 times.
        assert_eq!(failures, vec![(2, 2), (5, 2), (8, 2)]);
    }

    /// Exhaustive interleaving checks of the locked drain against
    /// concurrent posts (run via
    /// `RUSTFLAGS="--cfg cmpi_model" cargo test -p cmpi-fabric --lib`).
    #[cfg(cmpi_model)]
    mod model {
        use super::*;
        use cmpi_model::model::{thread, Builder};

        /// A post racing the drain is either drained by this poll or by
        /// the poller's next pass (the notifier in the real runtime; a
        /// retry loop here), and never twice. A lost message deadlocks
        /// the model (consumer spins forever on yield with no runnable
        /// peer).
        #[test]
        fn locked_drain_neither_loses_nor_duplicates_a_racing_post() {
            Builder::new().max_executions(400_000).check(|| {
                // Serial setup on the root thread: no schedule branching.
                let f = Fabric::new(CostModel::default());
                f.attach(0, HostId(0), true).unwrap();
                f.attach(1, HostId(1), true).unwrap();
                let f2 = Arc::clone(&f);
                let sender = thread::spawn(move || {
                    f2.post_send(0, 1, 7, Bytes::new(), SimTime::ZERO).unwrap();
                });
                let mut msgs = Vec::new();
                while msgs.is_empty() {
                    match f.poll_recv_one(1).unwrap() {
                        Some((m, _)) => msgs.push(m),
                        None => thread::yield_now(),
                    }
                }
                sender.join();
                assert!(f.poll_recv_one(1).unwrap().is_none(), "phantom message");
                assert_eq!(msgs.len(), 1, "message duplicated");
                assert_eq!(msgs[0].imm, 7);
            });
        }

        /// Two concurrent posters: the drain never duplicates and never
        /// drops, under every interleaving of the two posts' receive-side
        /// sections and the consumer's pops.
        #[test]
        fn locked_drain_neither_loses_nor_duplicates_concurrent_posts() {
            Builder::new().max_executions(400_000).check(|| {
                let f = Fabric::new(CostModel::default());
                f.attach(0, HostId(0), true).unwrap();
                f.attach(1, HostId(1), true).unwrap();
                f.attach(2, HostId(1), true).unwrap();
                let fa = Arc::clone(&f);
                let pa = thread::spawn(move || {
                    fa.post_send(0, 2, 1, Bytes::new(), SimTime::ZERO).unwrap();
                });
                let fb = Arc::clone(&f);
                let pb = thread::spawn(move || {
                    fb.post_send(1, 2, 2, Bytes::new(), SimTime::ZERO).unwrap();
                });
                let mut msgs = Vec::new();
                while msgs.len() < 2 {
                    match f.poll_recv_one(2).unwrap() {
                        Some((m, _)) => msgs.push(m),
                        None => thread::yield_now(),
                    }
                }
                pa.join();
                pb.join();
                assert!(f.poll_recv_one(2).unwrap().is_none(), "phantom message");
                let mut imms: Vec<u32> = msgs.iter().map(|m| m.imm).collect();
                imms.sort_unstable();
                assert_eq!(imms, [1, 2], "message lost or duplicated");
            });
        }

        /// A prune never drops an interval that a handshake still open
        /// at the floor's publisher needs. Rank 0's pin holds its floor
        /// at 1 000 ns; rank 1 (main thread) posts that handshake's
        /// late-stamped packet, ready at 1 050 ns though rank 1's own
        /// floor reads 10 000, into host 0's adapter, where the interval
        /// `[1 000, 1 100)` is busy. Rank 0 raises its floor only once the
        /// packet has reached it, then posts; rank 2 posts at its floor.
        /// The adapter holds 63 entries, so the first post to land
        /// prunes: whichever it is, the late packet starts at 1 100.
        #[test]
        fn a_prune_never_drops_what_an_open_handshake_needs() {
            Builder::new().max_executions(400_000).check(|| {
                let f = Fabric::new(CostModel::default());
                for r in 0..3 {
                    f.attach(r, HostId(0), true).unwrap();
                }
                {
                    let mut adapter = f.loopback.get(0).unwrap().lock();
                    for k in 0..62 {
                        adapter.reserve(SimTime::from_ns(2 * k), SimTime::from_ns(1), || 0);
                    }
                    adapter.reserve(SimTime::from_ns(1_000), SimTime::from_ns(100), || 0);
                }
                let late = SimTime::from_ns(10_000);
                f.publish_floor(0, SimTime::from_ns(1_000));
                f.publish_floor(1, late);
                f.publish_floor(2, late);
                let data = Bytes::from_static(&[0; 30]);
                let (fs, ds) = (Arc::clone(&f), data.clone());
                let sender = thread::spawn(move || {
                    while fs.poll_recv_one(0).unwrap().is_none() {
                        thread::yield_now();
                    }
                    fs.publish_floor(0, late);
                    fs.post_send(0, 2, 0, ds, late).unwrap();
                });
                let (fp, dp) = (Arc::clone(&f), data.clone());
                let bystander = thread::spawn(move || {
                    fp.post_send(2, 1, 0, dp, late).unwrap();
                });
                let cost = f.cost().clone();
                let posted = SimTime::from_ns(1_050 - cost.hca_post_ns);
                let got = f.post_send(1, 0, 0, data, posted).unwrap();
                sender.join();
                bystander.join();
                let wire = cost.hca_wire_time(30, true);
                let want = SimTime::from_ns(1_100) + wire + cost.hca_latency(true);
                assert_eq!(got.delivered_at, want, "the late packet lost its gap");
            });
        }
    }

    #[test]
    fn stats_accumulate() {
        let f = fabric_two_hosts();
        f.post_send(0, 1, 0, Bytes::from(vec![0u8; 100]), SimTime::ZERO)
            .unwrap();
        let mr = f.register_mr(1, 64).unwrap();
        f.rdma_write(0, mr.rkey(), 0, &[0u8; 32], SimTime::ZERO)
            .unwrap();
        let st = f.stats(0).unwrap();
        assert_eq!(st.sends, 1);
        assert_eq!(st.send_bytes, 100);
        assert_eq!(st.rdma_ops, 1);
        assert_eq!(st.rdma_bytes, 32);
    }
}
