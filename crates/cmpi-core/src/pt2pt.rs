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

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::Cell;

use bytes::Bytes;
use cmpi_cluster::{Channel, SimTime};

use crate::channel::Protocol;
use crate::collectives::plain;
use crate::datatype::{from_bytes, spare, to_bytes, MpiData};
use crate::error::MpiError;
use crate::matching::{ArrivedBody, ArrivedMsg, PostedRecv};
use crate::packet::{Packet, PacketKind, ReqId};
use crate::requests::{RecvState, Req, SendState, Slot};
use crate::runtime::Mpi;
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

/// A non-blocking operation handle. A send that was complete when posted
/// (eager, or to self) carries its completion here instead of holding a
/// slot in the rank's request table.
#[derive(Debug)]
pub struct Request {
    req: Cell<Req>,
}

impl Request {
    fn new(req: Req) -> Self {
        Request {
            req: Cell::new(req),
        }
    }
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

fn src_opt(src: usize) -> Option<usize> {
    (src != ANY_SOURCE).then_some(src)
}

fn tag_opt(tag: u32) -> Option<u32> {
    (tag != ANY_TAG).then_some(tag)
}

impl Mpi {
    // ---- internal operations (no time-class attribution) -------------------

    /// Start a send on communicator context `ctx`.
    pub(crate) fn isend_inner(&mut self, data: Bytes, dst: usize, tag: u32, ctx: u32) -> Req {
        assert!(dst < self.n, "send to invalid rank {dst}");
        let next_seq = &mut self.peers.get_mut(dst).send_seq;
        let seq = *next_seq;
        *next_seq += 1;
        let len = data.len();
        let posted = self.now;

        if dst == self.rank {
            return self.send_to_self(data, tag, ctx, seq);
        }

        let peer = self.view.peer(dst);
        let route = self.selector.route(&peer, len);
        let cross = self.cross_socket(dst);
        let parked = match (route.channel, route.protocol) {
            (Channel::Shm, Protocol::Eager) => {
                let qcap = self.state.tunables.smpi_length_queue;
                let chunk = self.state.tunables.smp_eager_size.max(1);
                let mut off = 0usize;
                // Time spent waiting for the receiver to drain the pair
                // queue — late-receiver backpressure, not transfer.
                let mut stalled = SimTime::ZERO;
                'chunks: loop {
                    let clen = chunk.min(len - off);
                    // Claim queue space; run progress while the receiver
                    // drains so cross-pair traffic cannot deadlock.
                    let stall = loop {
                        if let Some(s) = self.state.try_acquire(self.rank, dst, clen) {
                            break s;
                        }
                        // The receiver died mid-run: its queue will never
                        // drain again. Eager completion is local, so the
                        // send still succeeds — the remaining chunks go
                        // nowhere.
                        if self.state.detector.is_down(dst).is_some() {
                            break 'chunks;
                        }
                        self.progress();
                        if self.state.try_acquire(self.rank, dst, clen).is_none() {
                            self.sleep_if_idle();
                        } else {
                            // Raced a release between try and sleep; the
                            // extra acquire already claimed the space.
                            break SimTime::ZERO;
                        }
                    };
                    stalled += stall.saturating_sub(self.now);
                    let cost = &self.state.cost;
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
                            total: len as u64,
                            offset: off as u64,
                        },
                        data: data.slice(off..off + clen),
                    });
                    self.obs.tx(dst, Channel::Shm, clen);
                    off += clen;
                    if off >= len {
                        break;
                    }
                }
                if stalled > SimTime::ZERO {
                    self.obs.stall(ctx, stalled);
                }
                None
            }
            (Channel::Hca, Protocol::Eager) => {
                // Stage into the pre-registered eager buffer.
                self.now += self.state.cost.copy_time(len as u64, false);
                let kind = PacketKind::Eager {
                    ctx,
                    tag,
                    seq,
                    total: len as u64,
                    offset: 0,
                };
                // A detached (dead) destination swallows the message; the
                // eager send still completes locally.
                if let Some(info) = self.send_control(dst, kind, data, Channel::Hca, self.now) {
                    self.now = info.local_done;
                    self.obs.tx(dst, Channel::Hca, len);
                }
                None
            }
            (channel @ (Channel::Cma | Channel::Hca), Protocol::Rendezvous) => {
                let cost = &self.state.cost;
                self.now += SimTime::from_ns(match channel {
                    Channel::Cma => cost.shm_post_ns,
                    _ => cost.hca_rndv_setup_ns,
                });
                let parked = SendState::AwaitCts {
                    data,
                    dst,
                    channel,
                    ctx,
                };
                let id = self.reqs.alloc(Slot::Send(parked));
                let rts = PacketKind::Rts {
                    ctx,
                    tag,
                    seq,
                    size: len as u64,
                    sreq: id,
                };
                // A dead destination never answers the RTS; the send stays
                // parked and wait completes it in error.
                if let Some(info) = self.send_control(dst, rts, Bytes::new(), channel, self.now) {
                    self.now = info.local_done;
                }
                Some(id)
            }
            (c, p) => unreachable!("selector produced impossible route {c:?}/{p:?}"),
        };
        self.obs.route(dst, Some(route), len, seq, posted);
        parked.map_or_else(|| self.locally_complete_send(ctx), Req::Slot)
    }

    /// Self-message: one local copy, straight into the matching engine
    /// (bypassing `handle_packet`, so both ledger sides are recorded
    /// here). Out of line: its message is not in the frame of every send.
    #[inline(never)]
    fn send_to_self(&mut self, data: Bytes, tag: u32, ctx: u32, seq: u64) -> Req {
        let (me, len) = (self.rank, data.len());
        self.obs.route(me, None, len, seq, self.now);
        let ready = self.now + self.state.cost.copy_time(len as u64, false);
        self.obs.tx(me, Channel::Shm, len);
        self.obs.rx(me, Channel::Shm, len);
        let msg = ArrivedMsg {
            src: me,
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
        self.locally_complete_send(ctx)
    }

    /// The handle of a send whose buffer is reusable already (eager and
    /// self-sends): complete one request-bookkeeping step from now.
    fn locally_complete_send(&self, ctx: u32) -> Req {
        Req::Sent {
            t: self.now + SimTime::from_ns(self.state.cost.request_ns),
            ctx,
        }
    }

    /// Post a receive on context `ctx`. `None` = wildcard.
    pub(crate) fn irecv_inner(&mut self, src: Option<usize>, tag: Option<u32>, ctx: u32) -> ReqId {
        let id = self.reqs.alloc(Slot::Recv(RecvState::Posted { src, ctx }));
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

    /// The one completion check, for a caller blocked (or polling) since
    /// `t_enter`; run the progress engine first. A finished request is
    /// freed and settled: the clock advances to its completion and the
    /// blocked interval is attributed. A pending one is checked against
    /// the failure state — its destination or source convicted dead (for a
    /// wildcard receive: *any* member of the context, the ULFM
    /// failed-process-pending analog), its communicator revoked — and
    /// cancelled with the error if it can never finish. `Ok(None)` means
    /// "not yet" and charges no virtual time.
    ///
    /// A send that was complete when posted settles from its handle. A
    /// finished slot is read in place, not moved out: a slot is 64 bytes,
    /// and so is every tuple built to carry its fields to a shared tail —
    /// measured at a tenth of an eager message's host time (EXPERIMENTS,
    /// "one point-to-point call path and one request table"), which is
    /// why the arms settle separately.
    ///
    /// # Panics
    /// Panics with `unknown request` if the handle is spent or the table
    /// does not hold its id: a handle used again after it completed, or
    /// one this rank never issued.
    pub(crate) fn try_complete(
        &mut self,
        req: Req,
        t_enter: SimTime,
    ) -> Result<Option<Completion>, MpiError> {
        let id = match req {
            Req::Slot(id) => id,
            Req::Sent { t, ctx } => {
                self.settle_send(t_enter, t, ctx, None);
                return Ok(Some(Completion::Send));
            }
            Req::Spent => panic!("unknown request: a send handle used after it completed"),
        };
        let (ctx, peer) = match self.reqs.get_mut(id) {
            &mut Slot::Send(SendState::Done { t, ctx, cts_at }) => {
                self.reqs.remove(id);
                self.settle_send(t_enter, t, ctx, Some(cts_at));
                return Ok(Some(Completion::Send));
            }
            &mut Slot::Recv(RecvState::Done {
                ref mut data,
                src,
                tag,
                t,
                arrived,
                ctx,
                flow,
            }) => {
                let data = std::mem::take(data);
                self.reqs.remove(id);
                self.settle_recv(t_enter, t, arrived, ctx, flow);
                let status = Status {
                    src: src as usize,
                    tag,
                    len: data.len(),
                };
                return Ok(Some(Completion::Recv(data, status)));
            }
            &mut Slot::Send(
                SendState::AwaitCts { dst, ctx, .. } | SendState::AwaitFin { dst, ctx, .. },
            ) => (ctx, Some(dst)),
            &mut Slot::Recv(RecvState::Posted { src, ctx }) => (ctx, src),
            &mut Slot::Recv(RecvState::AwaitData { src, ctx, .. }) => (ctx, Some(src)),
            Slot::Cancelled => panic!("unknown request {id}"),
        };
        self.check_op_failure(ctx, peer)
            .inspect_err(|_| self.cancel(id))?;
        Ok(None)
    }

    /// Give up on pending request `id`. A posted receive is unposted from
    /// the matching engine (so a stale arrival cannot fill it) and freed
    /// at once; a request mid-rendezvous — a send awaiting its CTS or FIN,
    /// a receive awaiting its payload — can still be named by one packet
    /// on the wire, so it leaves a tombstone for that packet to consume
    /// instead of resurrecting it.
    pub(crate) fn cancel(&mut self, id: ReqId) {
        match self.reqs.get_mut(id) {
            Slot::Recv(RecvState::Posted { .. }) => {
                self.engine.cancel_posted(id);
                self.reqs.remove(id);
            }
            slot @ (Slot::Send(SendState::AwaitCts { .. } | SendState::AwaitFin { .. })
            | Slot::Recv(RecvState::AwaitData { .. })) => *slot = Slot::Cancelled,
            other => panic!("cancelling request {id} in state {other:?}"),
        }
    }

    /// Block until `req` completes or fails; advances the clock to the
    /// completion.
    fn wait_inner(&mut self, req: Req) -> Result<Completion, MpiError> {
        let t_enter = self.now;
        loop {
            self.progress();
            if let Some(done) = self.try_complete(req, t_enter)? {
                return Ok(done);
            }
            self.sleep_if_idle();
        }
    }

    /// [`Self::wait_inner`] on a send.
    pub(crate) fn try_wait_send_inner(&mut self, req: Req) -> Result<(), MpiError> {
        self.wait_inner(req).map(drop)
    }

    /// [`Self::wait_inner`] on a receive.
    pub(crate) fn try_wait_recv_inner(&mut self, id: ReqId) -> Result<(Bytes, Status), MpiError> {
        self.wait_inner(Req::Slot(id)).map(Completion::into_recv)
    }

    /// Simultaneous send and receive on `ctx`. Both halves run to an
    /// outcome (so neither request leaks); the receive's error wins.
    pub(crate) fn sendrecv_inner(
        &mut self,
        data: Bytes,
        (dst, stag): (usize, u32),
        (src, rtag): (Option<usize>, Option<u32>),
        ctx: u32,
    ) -> Result<(Bytes, Status), MpiError> {
        let sid = self.isend_inner(data, dst, stag, ctx);
        let rid = self.irecv_inner(src, rtag, ctx);
        let rout = self.try_wait_recv_inner(rid);
        let sout = self.try_wait_send_inner(sid);
        let out = rout?;
        sout?;
        Ok(out)
    }

    // ---- the call path -------------------------------------------------------
    //
    // A plain entry is the bracket plus `plain(name, ..)`: the plain API
    // has `MPI_ERRORS_ARE_FATAL` semantics, so an operation that lost its
    // peer ends the rank under the operation's name. Its `try_` twin is the
    // same body with `ft = true`: it executes this rank's own scripted
    // mid-run fate at entry (the call boundary is where a simulated rank
    // can die) and returns `Err(ProcessFailed | Revoked)` where the plain
    // call would abort.

    /// The one bracket every blocking or non-blocking point-to-point entry
    /// runs in: enter (`ft`: count the op and meet the rank's fate first),
    /// run `body`, attribute the elapsed virtual time.
    pub(crate) fn pt2pt<R>(
        &mut self,
        ft: bool,
        body: impl FnOnce(&mut Mpi) -> Result<R, MpiError>,
    ) -> Result<R, MpiError> {
        let t0 = if ft { self.ft_enter()? } else { self.enter() };
        let out = body(self);
        self.exit(CallClass::Pt2pt, t0);
        out
    }

    /// The bracket of the polling calls: progress, then one non-blocking
    /// `check`. A hit charges one poll (plus whatever causal jump `check`
    /// made) — exactly the time a real spin loop would have burned inside
    /// `MPI_Test`. A miss charges *nothing*, the call-entry tax included:
    /// how many failed polls a spin loop performs is real scheduling, and
    /// letting them advance the clock would make virtual time
    /// nondeterministic. A miss also hands the CPU to other ranks, so a
    /// spin loop cannot starve the rank it is waiting for.
    fn poll<R>(
        &mut self,
        check: impl FnOnce(&mut Mpi, SimTime) -> Result<Option<R>, MpiError>,
    ) -> Result<Option<R>, MpiError> {
        let t0 = self.enter();
        let t_enter = self.now;
        self.progress();
        let out = check(self, t_enter);
        match out {
            Ok(Some(_)) => self.now += SimTime::from_ns(self.state.cost.poll_ns),
            Ok(None) => {
                self.now = t0;
                crate::exec::yield_now();
            }
            Err(_) => {}
        }
        self.exit(CallClass::Poll, t0);
        out
    }

    // ---- public byte-level API ---------------------------------------------

    /// Blocking send of raw bytes to `dst`.
    pub fn send_bytes(&mut self, data: Bytes, dst: usize, tag: u32) {
        let sent = self.pt2pt(false, |mpi| mpi.try_coll_send(data, dst, tag, CTX_WORLD));
        plain("send", sent)
    }

    /// Fault-tolerant [`Self::send_bytes`].
    pub fn try_send_bytes(&mut self, data: Bytes, dst: usize, tag: u32) -> Result<(), MpiError> {
        self.pt2pt(true, |mpi| mpi.try_coll_send(data, dst, tag, CTX_WORLD))
    }

    /// Blocking receive of raw bytes. `src`/`tag` may be [`ANY_SOURCE`] /
    /// [`ANY_TAG`].
    pub fn recv_bytes(&mut self, src: usize, tag: u32) -> (Bytes, Status) {
        plain("recv", self.recv_on(false, src, tag))
    }

    /// Fault-tolerant [`Self::recv_bytes`].
    pub fn try_recv_bytes(&mut self, src: usize, tag: u32) -> Result<(Bytes, Status), MpiError> {
        self.recv_on(true, src, tag)
    }

    fn recv_on(&mut self, ft: bool, src: usize, tag: u32) -> Result<(Bytes, Status), MpiError> {
        self.pt2pt(ft, |mpi| {
            let id = mpi.irecv_inner(src_opt(src), tag_opt(tag), CTX_WORLD);
            mpi.try_wait_recv_inner(id)
        })
    }

    /// Non-blocking send of raw bytes.
    pub fn isend_bytes(&mut self, data: Bytes, dst: usize, tag: u32) -> Request {
        let req = self.pt2pt(false, |mpi| Ok(mpi.isend_inner(data, dst, tag, CTX_WORLD)));
        Request::new(plain("isend", req))
    }

    /// Non-blocking receive of raw bytes.
    pub fn irecv_bytes(&mut self, src: usize, tag: u32) -> Request {
        let (src, tag) = (src_opt(src), tag_opt(tag));
        let id = self.pt2pt(false, |mpi| Ok(mpi.irecv_inner(src, tag, CTX_WORLD)));
        Request::new(Req::Slot(plain("irecv", id)))
    }

    /// Block until `req` completes.
    pub fn wait(&mut self, req: Request) -> Completion {
        let req = req.req.into_inner();
        plain("wait", self.pt2pt(false, |mpi| mpi.wait_inner(req)))
    }

    /// Fault-tolerant [`Self::wait`].
    pub fn try_wait(&mut self, req: Request) -> Result<Completion, MpiError> {
        let req = req.req.into_inner();
        self.pt2pt(true, |mpi| mpi.wait_inner(req))
    }

    /// Block until all requests complete (in order).
    pub fn waitall(&mut self, reqs: Vec<Request>) -> Vec<Completion> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Check one request for completion without blocking (`MPI_Test`).
    /// After `Some(..)` the request is finished and must not be tested or
    /// waited on again. Like every plain call, a request that can never
    /// finish (dead peer, revoked communicator) ends the rank.
    pub fn test(&mut self, req: &Request) -> Option<Completion> {
        let handle = req.req.get();
        let done = plain("test", self.poll(|mpi, t| mpi.try_complete(handle, t)));
        if done.is_some() && matches!(handle, Req::Sent { .. }) {
            req.req.set(Req::Spent);
        }
        done
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
        let from = (src_opt(src), tag_opt(rtag));
        let out = self.pt2pt(false, |m| {
            m.sendrecv_inner(data, (dst, stag), from, CTX_WORLD)
        });
        plain("sendrecv", out)
    }

    /// Fault-tolerant [`Self::sendrecv_bytes`].
    pub fn try_sendrecv_bytes(
        &mut self,
        data: Bytes,
        dst: usize,
        stag: u32,
        src: usize,
        rtag: u32,
    ) -> Result<(Bytes, Status), MpiError> {
        let from = (src_opt(src), tag_opt(rtag));
        self.pt2pt(true, |m| {
            m.sendrecv_inner(data, (dst, stag), from, CTX_WORLD)
        })
    }

    // ---- public typed API ----------------------------------------------------

    /// The typed tail of a receive: decode the payload into the front of
    /// `buf` and hand its buffer to the worker's spare list.
    fn unpack<T: MpiData>(&mut self, (data, status): (Bytes, Status), buf: &mut [T]) -> Status {
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
        spare::give(data);
        status
    }

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
        let msg = self.recv_bytes(src, tag);
        self.unpack(msg, buf)
    }

    /// Typed simultaneous send and receive; panics like [`Self::recv`].
    pub fn sendrecv<T: MpiData>(
        &mut self,
        send: &[T],
        dst: usize,
        stag: u32,
        recv: &mut [T],
        src: usize,
        rtag: u32,
    ) -> Status {
        let msg = self.sendrecv_bytes(to_bytes(send), dst, stag, src, rtag);
        self.unpack(msg, recv)
    }

    /// Non-destructively check for a matching incoming message
    /// (`MPI_Iprobe`). Runs the progress engine; a hit charges one poll.
    pub fn iprobe(&mut self, src: usize, tag: u32) -> Option<Status> {
        let probe = self.poll(|mpi, _| {
            let hit = mpi
                .engine
                .peek_unexpected(src_opt(src), CTX_WORLD, tag_opt(tag))
                .map(|m| Status {
                    src: m.src,
                    tag: m.tag,
                    len: match &m.body {
                        ArrivedBody::Eager { data, .. } => data.len(),
                        ArrivedBody::Rts { size, .. } => *size as usize,
                    },
                });
            mpi.obs.probe(hit.is_some());
            Ok(hit)
        });
        plain("iprobe", probe)
    }

    /// Park the calling thread until new traffic arrives (no virtual-time
    /// charge). Lets `test`/`iprobe` spin loops avoid burning a real CPU:
    /// `while mpi.test(&req).is_none() { mpi.idle_wait(); }`.
    pub fn idle_wait(&self) {
        self.sleep_if_idle();
    }
}
