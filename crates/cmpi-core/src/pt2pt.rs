//! Two-sided point-to-point operations: send/recv, isend/irecv, wait and
//! test, with the eager and rendezvous protocol engines.
//!
//! Protocol selection comes from the [`crate::channel::ChannelSelector`]:
//!
//! * **SHM eager** — payload chunked through the bounded pair queue
//!   (`SMPI_LENGTH_QUEUE`), double copy, virtual-time backpressure;
//! * **CMA rendezvous** — RTS/CTS handshake over the mailbox, then a
//!   single receiver-side copy charged one syscall;
//! * **HCA eager** — staging copy into registered buffers, one fabric
//!   message, receiver-side copy out;
//! * **HCA rendezvous** — RTS/CTS over the fabric, zero-copy RDMA payload.

use std::sync::Arc;

use bytes::Bytes;
use cmpi_cluster::{Channel, SimTime};

use crate::channel::Protocol;
use crate::datatype::{from_bytes, to_bytes, MpiData};
use crate::error::MpiError;
use crate::matching::{ArrivedBody, ArrivedMsg, PostedRecv};
use crate::packet::{Packet, PacketKind, ReqId};
use crate::runtime::{Mpi, RecvState, SendState};
use crate::stats::CallClass;

/// Wildcard source for receives (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag for receives (`MPI_ANY_TAG`).
pub const ANY_TAG: u32 = u32::MAX;

/// Context id of the user communicator (`MPI_COMM_WORLD`).
pub(crate) const CTX_WORLD: u32 = 0;
/// Context id reserved for collective-internal traffic.
pub(crate) const CTX_COLL: u32 = 1;
/// Context id reserved for fault-tolerance agreement traffic. Never
/// revoked: shrink's tree agreement must stay usable while every user
/// context is down.
pub(crate) const CTX_FT: u32 = 2;

/// Completion information of a receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    /// Actual source rank.
    pub src: usize,
    /// Actual tag.
    pub tag: u32,
    /// Message length in bytes.
    pub len: usize,
}

/// A non-blocking operation handle.
#[derive(Debug)]
pub struct Request {
    pub(crate) id: ReqId,
    pub(crate) is_send: bool,
}

/// Outcome of completing a request.
#[derive(Debug)]
pub enum Completion {
    /// A send finished.
    Send,
    /// A receive finished with its payload and status.
    Recv(Bytes, Status),
}

impl Completion {
    /// Unwrap a receive completion.
    pub fn into_recv(self) -> (Bytes, Status) {
        match self {
            Completion::Recv(b, s) => (b, s),
            Completion::Send => panic!("expected a receive completion"),
        }
    }
}

impl Mpi {
    // ---- internal operations (no time-class attribution) -------------------

    /// Start a send on communicator context `ctx`.
    pub(crate) fn isend_inner(&mut self, data: Bytes, dst: usize, tag: u32, ctx: u32) -> ReqId {
        assert!(dst < self.n, "send to invalid rank {dst}");
        let next_seq = &mut self.peers.get_mut(dst).send_seq;
        let seq = *next_seq;
        *next_seq += 1;
        let id = self.fresh_req();
        let len = data.len();
        let cost = self.state.cost;
        let posted = self.now;

        if dst == self.rank {
            // Self-message: one local copy, straight into the matching
            // engine (bypassing `handle_packet`, so both ledger sides are
            // recorded here).
            self.obs.route(dst, None, len, seq, posted, self.now);
            let ready = self.now + cost.copy_time(len as u64, false);
            self.obs.tx(dst, Channel::Shm, len);
            self.obs.rx(dst, Channel::Shm, len);
            let msg = ArrivedMsg {
                src: self.rank,
                ctx,
                tag,
                seq,
                body: ArrivedBody::Eager {
                    data,
                    ready_at: ready,
                    arrived_at: ready,
                },
                channel: Channel::Shm,
            };
            self.dispatch(msg);
            self.sends.insert(
                id,
                SendState::Done {
                    t: self.now + SimTime::from_ns(cost.request_ns),
                    ctx,
                    rndv_cts: None,
                },
            );
            return id;
        }

        let peer = self.view.peer(dst);
        let route = self.selector.route(&peer, len);
        let cross = self.cross_socket(dst);
        match (route.channel, route.protocol) {
            (Channel::Shm, Protocol::Eager) => {
                let q = Arc::clone(self.state.pair_queue(self.rank, dst));
                let qcap = self.state.tunables.smpi_length_queue;
                let chunk = self.state.tunables.smp_eager_size.max(1);
                let total = len;
                let mut off = 0usize;
                // Time spent waiting for the receiver to drain the pair
                // queue — late-receiver backpressure, not transfer.
                let mut stalled = SimTime::ZERO;
                'chunks: loop {
                    let clen = chunk.min(total - off);
                    // Claim queue space; run progress while the receiver
                    // drains so cross-pair traffic cannot deadlock.
                    let stall = loop {
                        if let Some(s) = q.try_acquire(clen) {
                            break s;
                        }
                        // The receiver died mid-run: its queue will never
                        // drain again (a crash closed it; a hang left it
                        // full). Eager completion is local, so the send
                        // still succeeds — the remaining chunks go nowhere.
                        if q.is_closed() || self.state.detector.is_down(dst).is_some() {
                            break 'chunks;
                        }
                        self.progress();
                        if q.try_acquire(clen).is_none() {
                            self.sleep_if_idle();
                        } else {
                            // Raced a release between try and sleep; the
                            // extra acquire already claimed the space.
                            break SimTime::ZERO;
                        }
                    };
                    stalled += stall.saturating_sub(self.now);
                    self.now = self.now.max(stall)
                        + SimTime::from_ns(cost.shm_post_ns)
                        + cost.shm_copy_time(clen as u64, qcap as u64, cross);
                    let available_at = self.now + SimTime::from_ns(cost.shm_wakeup_ns);
                    self.state.cells[dst].push(Packet {
                        src: self.rank,
                        channel: Channel::Shm,
                        available_at,
                        kind: PacketKind::Eager {
                            ctx,
                            tag,
                            seq,
                            total: total as u64,
                            offset: off as u64,
                        },
                        data: data.slice(off..off + clen),
                    });
                    self.obs.tx(dst, Channel::Shm, clen);
                    off += clen;
                    if off >= total {
                        break;
                    }
                }
                if stalled > SimTime::ZERO {
                    self.obs.stall(ctx, stalled);
                }
                self.sends.insert(
                    id,
                    SendState::Done {
                        t: self.now + SimTime::from_ns(cost.request_ns),
                        ctx,
                        rndv_cts: None,
                    },
                );
            }
            (Channel::Cma, Protocol::Rendezvous) => {
                self.now += SimTime::from_ns(cost.shm_post_ns);
                self.send_control(
                    dst,
                    PacketKind::Rts {
                        ctx,
                        tag,
                        seq,
                        size: len as u64,
                        sreq: id,
                    },
                    Bytes::new(),
                    Channel::Cma,
                    self.now,
                );
                self.sends.insert(
                    id,
                    SendState::AwaitCts {
                        data,
                        dst,
                        channel: Channel::Cma,
                        ctx,
                    },
                );
            }
            (Channel::Hca, Protocol::Eager) => {
                // Stage into the pre-registered eager buffer.
                self.now += cost.copy_time(len as u64, false);
                let pkt = Packet {
                    src: self.rank,
                    channel: Channel::Hca,
                    available_at: self.now,
                    kind: PacketKind::Eager {
                        ctx,
                        tag,
                        seq,
                        total: len as u64,
                        offset: 0,
                    },
                    data,
                };
                let (imm, hdr, payload) = pkt.encode_parts();
                // A detached (dead) destination swallows the message; the
                // eager send still completes locally.
                if let Some(info) =
                    self.try_hca_post(dst, imm, hdr, payload, self.now, "HCA eager send")
                {
                    self.now = info.local_done;
                    self.obs.tx(dst, Channel::Hca, len);
                }
                self.sends.insert(
                    id,
                    SendState::Done {
                        t: self.now + SimTime::from_ns(cost.request_ns),
                        ctx,
                        rndv_cts: None,
                    },
                );
            }
            (Channel::Hca, Protocol::Rendezvous) => {
                self.now += SimTime::from_ns(cost.hca_rndv_setup_ns);
                let rts = Packet {
                    src: self.rank,
                    channel: Channel::Hca,
                    available_at: self.now,
                    kind: PacketKind::Rts {
                        ctx,
                        tag,
                        seq,
                        size: len as u64,
                        sreq: id,
                    },
                    data: Bytes::new(),
                };
                let (imm, hdr, payload) = rts.encode_parts();
                // A dead destination never answers the RTS; park the send
                // anyway and let wait complete it in error.
                if let Some(info) =
                    self.try_hca_post(dst, imm, hdr, payload, self.now, "HCA rendezvous RTS")
                {
                    self.now = info.local_done;
                }
                self.sends.insert(
                    id,
                    SendState::AwaitCts {
                        data,
                        dst,
                        channel: Channel::Hca,
                        ctx,
                    },
                );
            }
            (c, p) => unreachable!("selector produced impossible route {c:?}/{p:?}"),
        }
        self.obs.route(dst, Some(route), len, seq, posted, self.now);
        id
    }

    /// Post a receive on context `ctx`. `None` = wildcard.
    pub(crate) fn irecv_inner(&mut self, src: Option<usize>, tag: Option<u32>, ctx: u32) -> ReqId {
        let id = self.fresh_req();
        self.recvs.insert(id, RecvState::Posted { src, ctx });
        let posted_at = self.now;
        if let Some(msg) = self.engine.post_recv(PostedRecv {
            rreq: id,
            src,
            ctx,
            tag,
            posted_at,
        }) {
            self.fulfill(id, msg, posted_at);
        } else {
            self.obs
                .depth(self.engine.posted_len(), self.engine.unexpected_len());
        }
        id
    }

    /// Attribute a completed send's blocked interval: everything up to
    /// the CTS observation (rendezvous only) is the receiver's fault, the
    /// remainder is transfer/completion time.
    fn settle_send(&mut self, t_enter: SimTime, t: SimTime, ctx: u32, rndv_cts: Option<SimTime>) {
        let done = self.now.max(t);
        let blocked = done.saturating_sub(t_enter);
        let late = rndv_cts
            .map(|c| c.saturating_sub(t_enter).min(blocked))
            .unwrap_or(SimTime::ZERO);
        let transfer = blocked.saturating_sub(late);
        self.obs.wait(ctx, SimTime::ZERO, late, transfer, None);
        self.now = done;
    }

    /// Attribute a completed receive: blocked time before the message
    /// (payload or RTS) arrived is a late sender (or collective arrival
    /// skew), the remainder is transfer. Also closes the trace flow.
    fn settle_recv(&mut self, t_enter: SimTime, t: SimTime, arrived: SimTime, ctx: u32, flow: u64) {
        let done = self.now.max(t);
        let blocked = done.saturating_sub(t_enter);
        let late = arrived.saturating_sub(t_enter).min(blocked);
        let transfer = blocked.saturating_sub(late);
        self.obs
            .wait(ctx, late, SimTime::ZERO, transfer, Some((flow, done)));
        self.now = done;
    }

    /// Block until send `id` completes; advances the clock to completion.
    /// Errors caused by injected faults abort the job (the plain API has
    /// `MPI_ERRORS_ARE_FATAL` semantics).
    pub(crate) fn wait_send_inner(&mut self, id: ReqId) {
        self.try_wait_send_inner(id)
            .unwrap_or_else(|e| panic!("wait on send request {id} failed: {e}"));
    }

    /// Block until send `id` completes, or fail it when its destination
    /// is convicted dead or its communicator is revoked. A failed send is
    /// removed and remembered in `cancelled` so late protocol packets
    /// (CTS, FIN) for it are dropped instead of resurrecting it.
    pub(crate) fn try_wait_send_inner(&mut self, id: ReqId) -> Result<(), MpiError> {
        let t_enter = self.now;
        loop {
            self.progress();
            let (ctx, dst) = match self.sends.get(&id) {
                Some(SendState::Done { .. }) => {
                    let Some(SendState::Done { t, ctx, rndv_cts }) = self.sends.remove(&id) else {
                        unreachable!()
                    };
                    self.settle_send(t_enter, t, ctx, rndv_cts);
                    return Ok(());
                }
                Some(&SendState::AwaitCts { dst, ctx, .. })
                | Some(&SendState::AwaitFin { dst, ctx, .. }) => (ctx, dst),
                None => panic!("waiting on unknown send request {id}"),
            };
            if let Err(e) = self.check_op_failure(ctx, Some(dst)) {
                self.sends.remove(&id);
                self.cancelled.insert(id);
                return Err(e);
            }
            self.sleep_if_idle();
        }
    }

    /// Block until receive `id` completes; returns payload and status.
    /// Errors caused by injected faults abort the job (the plain API has
    /// `MPI_ERRORS_ARE_FATAL` semantics).
    pub(crate) fn wait_recv_inner(&mut self, id: ReqId) -> (Bytes, Status) {
        self.try_wait_recv_inner(id)
            .unwrap_or_else(|e| panic!("wait on recv request {id} failed: {e}"))
    }

    /// Block until receive `id` completes, or fail it when its source is
    /// convicted dead (for a wildcard: when *any* member of the context
    /// is — the ULFM failed-process-pending analog) or its communicator
    /// is revoked. A failed receive is unposted from the matching engine
    /// so a stale arrival cannot fill it, and remembered in `cancelled`
    /// so a late rendezvous payload is dropped.
    pub(crate) fn try_wait_recv_inner(&mut self, id: ReqId) -> Result<(Bytes, Status), MpiError> {
        let t_enter = self.now;
        loop {
            self.progress();
            let (ctx, peer) = match self.recvs.get(&id) {
                Some(RecvState::Done { .. }) => {
                    let Some(RecvState::Done {
                        data,
                        status,
                        t,
                        arrived,
                        ctx,
                        flow,
                    }) = self.recvs.remove(&id)
                    else {
                        unreachable!()
                    };
                    self.settle_recv(t_enter, t, arrived, ctx, flow);
                    return Ok((data, status));
                }
                Some(&RecvState::Posted { src, ctx }) => (ctx, src),
                Some(&RecvState::AwaitData { src, ctx, .. }) => (ctx, Some(src)),
                None => panic!("waiting on unknown recv request {id}"),
            };
            if let Err(e) = self.check_op_failure(ctx, peer) {
                self.engine.cancel_posted(id);
                self.recvs.remove(&id);
                self.cancelled.insert(id);
                return Err(e);
            }
            self.sleep_if_idle();
        }
    }

    /// One non-blocking completion check.
    ///
    /// A *failed* test charges no virtual time: the number of failed
    /// polls a spinning loop performs depends on real thread scheduling,
    /// so charging per poll would make virtual time nondeterministic.
    /// Instead, a successful test charges one poll plus the causal jump
    /// to the completion time — which is exactly the time a real spin
    /// loop would have burned inside `MPI_Test`.
    pub(crate) fn test_inner(&mut self, req: &Request) -> Option<Completion> {
        let t_enter = self.now;
        self.progress();
        if req.is_send {
            if let Some(SendState::Done { .. }) = self.sends.get(&req.id) {
                let Some(SendState::Done { t, ctx, rndv_cts }) = self.sends.remove(&req.id) else {
                    unreachable!()
                };
                self.settle_send(t_enter, t, ctx, rndv_cts);
                self.now += SimTime::from_ns(self.state.cost.poll_ns);
                return Some(Completion::Send);
            }
        } else if let Some(RecvState::Done { .. }) = self.recvs.get(&req.id) {
            let Some(RecvState::Done {
                data,
                status,
                t,
                arrived,
                ctx,
                flow,
            }) = self.recvs.remove(&req.id)
            else {
                unreachable!()
            };
            self.settle_recv(t_enter, t, arrived, ctx, flow);
            self.now += SimTime::from_ns(self.state.cost.poll_ns);
            return Some(Completion::Recv(data, status));
        }
        None
    }

    /// [`Self::test_inner`] with failure reporting: a request whose peer
    /// is convicted dead (or whose communicator is revoked) completes in
    /// error instead of never completing. Failed polls stay free.
    pub(crate) fn try_test_inner(&mut self, req: &Request) -> Result<Option<Completion>, MpiError> {
        if let Some(c) = self.test_inner(req) {
            return Ok(Some(c));
        }
        let (ctx, peer) = if req.is_send {
            match self.sends.get(&req.id) {
                Some(&SendState::AwaitCts { dst, ctx, .. })
                | Some(&SendState::AwaitFin { dst, ctx, .. }) => (ctx, Some(dst)),
                _ => return Ok(None),
            }
        } else {
            match self.recvs.get(&req.id) {
                Some(&RecvState::Posted { src, ctx }) => (ctx, src),
                Some(&RecvState::AwaitData { src, ctx, .. }) => (ctx, Some(src)),
                _ => return Ok(None),
            }
        };
        match self.check_op_failure(ctx, peer) {
            Ok(()) => Ok(None),
            Err(e) => {
                if !req.is_send {
                    self.engine.cancel_posted(req.id);
                    self.recvs.remove(&req.id);
                } else {
                    self.sends.remove(&req.id);
                }
                self.cancelled.insert(req.id);
                Err(e)
            }
        }
    }

    fn src_opt(src: usize) -> Option<usize> {
        if src == ANY_SOURCE {
            None
        } else {
            Some(src)
        }
    }

    fn tag_opt(tag: u32) -> Option<u32> {
        if tag == ANY_TAG {
            None
        } else {
            Some(tag)
        }
    }

    // ---- public byte-level API ---------------------------------------------

    /// Blocking send of raw bytes to `dst`.
    pub fn send_bytes(&mut self, data: Bytes, dst: usize, tag: u32) {
        let t0 = self.enter();
        let id = self.isend_inner(data, dst, tag, CTX_WORLD);
        self.wait_send_inner(id);
        self.exit(CallClass::Pt2pt, t0);
    }

    /// Blocking receive of raw bytes. `src`/`tag` may be [`ANY_SOURCE`] /
    /// [`ANY_TAG`].
    pub fn recv_bytes(&mut self, src: usize, tag: u32) -> (Bytes, Status) {
        let t0 = self.enter();
        let id = self.irecv_inner(Self::src_opt(src), Self::tag_opt(tag), CTX_WORLD);
        let out = self.wait_recv_inner(id);
        self.exit(CallClass::Pt2pt, t0);
        out
    }

    /// Non-blocking send of raw bytes.
    pub fn isend_bytes(&mut self, data: Bytes, dst: usize, tag: u32) -> Request {
        let t0 = self.enter();
        let id = self.isend_inner(data, dst, tag, CTX_WORLD);
        self.exit(CallClass::Pt2pt, t0);
        Request { id, is_send: true }
    }

    /// Non-blocking receive of raw bytes.
    pub fn irecv_bytes(&mut self, src: usize, tag: u32) -> Request {
        let t0 = self.enter();
        let id = self.irecv_inner(Self::src_opt(src), Self::tag_opt(tag), CTX_WORLD);
        self.exit(CallClass::Pt2pt, t0);
        Request { id, is_send: false }
    }

    /// Block until `req` completes.
    pub fn wait(&mut self, req: Request) -> Completion {
        let t0 = self.enter();
        let out = if req.is_send {
            self.wait_send_inner(req.id);
            Completion::Send
        } else {
            let (data, status) = self.wait_recv_inner(req.id);
            Completion::Recv(data, status)
        };
        self.exit(CallClass::Pt2pt, t0);
        out
    }

    /// Block until all requests complete (in order).
    pub fn waitall(&mut self, reqs: Vec<Request>) -> Vec<Completion> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Check one request for completion without blocking (`MPI_Test`).
    /// After `Some(..)` the request is finished and must not be waited on
    /// again.
    pub fn test(&mut self, req: &Request) -> Option<Completion> {
        let t0 = self.enter();
        let out = self.test_inner(req);
        if out.is_none() {
            // Refund the call-entry tax: a failed poll must charge no
            // virtual time at all (see `test_inner` — the number of
            // failed polls a spin loop performs is real scheduling, and
            // letting it advance the clock makes virtual time
            // nondeterministic).
            self.now = t0;
            // Hand the CPU to other ranks between polls so a `test` spin
            // loop cannot starve its own sender.
            crate::exec::yield_now();
        }
        self.exit(CallClass::Poll, t0);
        out
    }

    // ---- public fault-tolerant API ------------------------------------------
    //
    // `try_` variants return `Err(ProcessFailed | Revoked)` where the
    // plain API would hang or abort; they also execute this rank's own
    // scripted mid-run fate at entry (the call boundary is where a
    // simulated rank can die).

    /// Fault-tolerant [`Self::send_bytes`].
    pub fn try_send_bytes(&mut self, data: Bytes, dst: usize, tag: u32) -> Result<(), MpiError> {
        let t0 = self.ft_enter()?;
        let id = self.isend_inner(data, dst, tag, CTX_WORLD);
        let out = self.try_wait_send_inner(id);
        self.exit(CallClass::Pt2pt, t0);
        out
    }

    /// Fault-tolerant [`Self::recv_bytes`].
    pub fn try_recv_bytes(&mut self, src: usize, tag: u32) -> Result<(Bytes, Status), MpiError> {
        let t0 = self.ft_enter()?;
        let id = self.irecv_inner(Self::src_opt(src), Self::tag_opt(tag), CTX_WORLD);
        let out = self.try_wait_recv_inner(id);
        self.exit(CallClass::Pt2pt, t0);
        out
    }

    /// Fault-tolerant [`Self::sendrecv_bytes`]. Both halves run to an
    /// outcome (so neither request leaks); the receive's error wins.
    pub fn try_sendrecv_bytes(
        &mut self,
        data: Bytes,
        dst: usize,
        stag: u32,
        src: usize,
        rtag: u32,
    ) -> Result<(Bytes, Status), MpiError> {
        let t0 = self.ft_enter()?;
        let sid = self.isend_inner(data, dst, stag, CTX_WORLD);
        let rid = self.irecv_inner(Self::src_opt(src), Self::tag_opt(rtag), CTX_WORLD);
        let rout = self.try_wait_recv_inner(rid);
        let sout = self.try_wait_send_inner(sid);
        self.exit(CallClass::Pt2pt, t0);
        let out = rout?;
        sout?;
        Ok(out)
    }

    /// Fault-tolerant [`Self::wait`].
    pub fn try_wait(&mut self, req: Request) -> Result<Completion, MpiError> {
        let t0 = self.ft_enter()?;
        let out = if req.is_send {
            self.try_wait_send_inner(req.id).map(|()| Completion::Send)
        } else {
            self.try_wait_recv_inner(req.id)
                .map(|(data, status)| Completion::Recv(data, status))
        };
        self.exit(CallClass::Pt2pt, t0);
        out
    }

    /// Fault-tolerant [`Self::test`]: `Ok(None)` means "not yet", and a
    /// request on a dead peer or revoked communicator finishes with
    /// `Err` instead of polling `None` forever.
    pub fn try_test(&mut self, req: &Request) -> Result<Option<Completion>, MpiError> {
        let t0 = self.enter();
        self.check_fate()?;
        let out = self.try_test_inner(req);
        if matches!(out, Ok(None)) {
            // Refund the call-entry tax exactly like `test`.
            self.now = t0;
            // And yield the worker between polls exactly like `test`.
            crate::exec::yield_now();
        }
        self.exit(CallClass::Poll, t0);
        out
    }

    // ---- public typed API ----------------------------------------------------

    /// Blocking typed send.
    pub fn send<T: MpiData>(&mut self, buf: &[T], dst: usize, tag: u32) {
        self.send_bytes(to_bytes(buf), dst, tag);
    }

    /// Blocking typed receive into `buf` (message may be shorter than the
    /// buffer). Returns the status; `status.len / T::SIZE` elements were
    /// written.
    ///
    /// # Panics
    /// Panics if the message is longer than `buf` (MPI truncation abort)
    /// or not a whole number of elements.
    pub fn recv<T: MpiData>(&mut self, buf: &mut [T], src: usize, tag: u32) -> Status {
        let (data, status) = self.recv_bytes(src, tag);
        assert_eq!(
            status.len % T::SIZE,
            0,
            "message is not a whole number of elements"
        );
        let elems = status.len / T::SIZE;
        assert!(
            elems <= buf.len(),
            "message truncated: {} elements into a {}-element buffer",
            elems,
            buf.len()
        );
        from_bytes(&data, &mut buf[..elems]);
        self.engine
            .recycle(data, self.state.tunables.smpi_length_queue);
        status
    }

    /// Non-blocking typed send.
    pub fn isend<T: MpiData>(&mut self, buf: &[T], dst: usize, tag: u32) -> Request {
        self.isend_bytes(to_bytes(buf), dst, tag)
    }

    /// Simultaneous send and receive (deadlock-free pairwise exchange).
    pub fn sendrecv_bytes(
        &mut self,
        data: Bytes,
        dst: usize,
        stag: u32,
        src: usize,
        rtag: u32,
    ) -> (Bytes, Status) {
        let t0 = self.enter();
        let sid = self.isend_inner(data, dst, stag, CTX_WORLD);
        let rid = self.irecv_inner(Self::src_opt(src), Self::tag_opt(rtag), CTX_WORLD);
        let out = self.wait_recv_inner(rid);
        self.wait_send_inner(sid);
        self.exit(CallClass::Pt2pt, t0);
        out
    }

    /// Typed simultaneous send and receive.
    pub fn sendrecv<T: MpiData>(
        &mut self,
        send: &[T],
        dst: usize,
        stag: u32,
        recv: &mut [T],
        src: usize,
        rtag: u32,
    ) -> Status {
        let (data, status) = self.sendrecv_bytes(to_bytes(send), dst, stag, src, rtag);
        assert_eq!(
            status.len % T::SIZE,
            0,
            "message is not a whole number of elements"
        );
        let elems = status.len / T::SIZE;
        assert!(elems <= recv.len(), "message truncated");
        from_bytes(&data, &mut recv[..elems]);
        self.engine
            .recycle(data, self.state.tunables.smpi_length_queue);
        status
    }

    /// Non-destructively check for a matching incoming message
    /// (`MPI_Iprobe`). Runs the progress engine and charges one poll.
    pub fn iprobe(&mut self, src: usize, tag: u32) -> Option<Status> {
        let t0 = self.enter();
        self.progress();
        let out = self
            .engine
            .peek_unexpected(Self::src_opt(src), CTX_WORLD, Self::tag_opt(tag))
            .map(|m| {
                let len = match &m.body {
                    ArrivedBody::Eager { data, .. } => data.len(),
                    ArrivedBody::Rts { size, .. } => *size as usize,
                };
                Status {
                    src: m.src,
                    tag: m.tag,
                    len,
                }
            });
        if out.is_some() {
            // Successful probes charge one poll (failed ones are free for
            // the same determinism reason as `test`).
            self.now += SimTime::from_ns(self.state.cost.poll_ns);
        } else {
            // Refund the call-entry tax too — see `test`.
            self.now = t0;
            // Failed probes also yield the CPU to other ranks — probe
            // storms are the canonical fiber-starvation loop.
            crate::exec::yield_now();
        }
        self.obs.probe(out.is_some());
        self.exit(CallClass::Poll, t0);
        out
    }

    /// Park the calling thread until new traffic arrives (no virtual-time
    /// charge). Lets `test`/`iprobe` spin loops avoid burning a real CPU:
    /// `while mpi.test(&req).is_none() { mpi.idle_wait(); }`.
    pub fn idle_wait(&self) {
        self.sleep_if_idle();
    }
}
