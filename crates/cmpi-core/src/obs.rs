//! One observability store per rank.
//!
//! Everything the library reports about a job — the mpiP-style
//! [`JobStats`] behind the paper's Table I and Fig. 3(a), the per-peer
//! matrix and wait tables of a [`JobProfile`], the [`JobTrace`] timeline
//! and the always-on [`TelemetrySnapshot`] — is read from one [`Obs`] per
//! rank, written only by that rank, through one record call per protocol
//! edge:
//!
//! | call | edge |
//! |---|---|
//! | [`Obs::call`] | an MPI call (or `compute`) returns |
//! | [`Obs::route`] | a send has been put on its channel |
//! | [`Obs::tx`] / [`Obs::rx`] / [`Obs::rx_remote`] | a payload leaves / lands / is placed in a peer's window |
//! | [`Obs::wait`] | a two-sided request settles |
//! | [`Obs::stall`] / [`Obs::rma_wait`] | eager-queue backpressure / a one-sided completion |
//! | [`Obs::coll`] | the collective selector picked an algorithm |
//! | [`Obs::depth`] | a receive stays posted / a message stays unexpected |
//! | [`Obs::probe`] | an `iprobe` returns |
//! | [`Obs::incident`] | a recovery action or a failure-lifecycle step |
//!
//! Inside the store a number lives in exactly one place. [`CommStats`] is
//! the base ledger, always on. The telemetry level adds the eleven
//! metrics nothing else keeps ([`Own`]) and the flight ring, which only
//! [`Obs::incident`] writes; the profiling level the per-peer matrix and
//! the wait table; the tracing level the timeline. Which levels a job
//! runs is decided once, in [`JobObs`], and checked here — never at a
//! call site.
//!
//! The four results are views, built once by [`job_result`] after every
//! rank has finished. [`rank_snapshot`] is the only place a source is mapped
//! to a [`MetricId`]. No reader runs beside a writer, so the whole store,
//! the flight ring ([`FlightRecorder`]) included, is plain memory.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::mem::MaybeUninit;

use cmpi_cluster::{Channel, SimTime};
use cmpi_prof::{
    FabricCounters, HistogramAccumulator, JobProfile, ProfCollector, QueuePressure, WaitClass,
};
use cmpi_telemetry::{
    EventKind, FlightEvent, FlightRecorder, FlightSnapshot, MetricId, RankSnapshot,
    TelemetrySnapshot,
};

use crate::channel::{Protocol, Route};
use crate::coll_select::{CollAlgo, CollKind};
use crate::pt2pt::CTX_WORLD;
use crate::runtime::{JobResult, JobSpec, JobState};
use crate::stats::{CallClass, CommStats, JobStats, RecoveryStats};
use crate::trace::{flow_id, JobTrace, RankTrace};

/// What a job's ranks share: the detail levels its spec asked for.
pub(crate) struct JobObs {
    tracing: bool,
    profiling: bool,
    /// Off only under [`JobSpec::without_telemetry`].
    telemetry: bool,
}

impl JobObs {
    pub(crate) fn new(spec: &JobSpec) -> Self {
        JobObs {
            tracing: spec.tracing,
            profiling: spec.profiling,
            telemetry: spec.telemetry,
        }
    }
}

/// The eleven metrics only this rank's record calls write.
#[derive(Default)]
struct Own {
    late_sender_ns: u64,
    late_receiver_ns: u64,
    transfer_ns: u64,
    eager_msgs: u64,
    rndv_msgs: u64,
    probe_hits: u64,
    probe_misses: u64,
    posted_peak: u64,
    unexpected_peak: u64,
    latency: HistogramAccumulator,
    msg_size: HistogramAccumulator,
}

/// One rank's observability store (see the module docs).
pub(crate) struct Obs {
    rank: usize,
    stats: CommStats,
    /// This rank's flight ring, at the telemetry level (so also the
    /// level's flag). [`Obs::incident`] is the only call that writes it.
    flight: Option<FlightRecorder>,
    /// Kept inline (not behind a box) for two reasons: a request settles
    /// between a receive completing and the next send's locked queue
    /// CAS, where stores that miss serialize into measured latency; and
    /// on an oversubscribed core every message context-switches,
    /// evicting any line the record calls touch — inline fields share
    /// lines the hot path re-warms anyway, a separate allocation
    /// re-misses every op. Only the histograms' bucket arrays are on the
    /// heap, touched when a same-bucket run ends.
    own: Own,
    /// The timeline, at the tracing level.
    trace: Option<Box<RankTrace>>,
    /// The per-peer matrix and the wait table, at the profiling level.
    prof: Option<Box<ProfCollector>>,
}

/// Wait-state class of a blocked interval: user pt2pt traffic runs on
/// `CTX_WORLD`; everything else (collective-internal contexts and split
/// communicators driven by collectives) classifies as collective skew.
fn wait_class(ctx: u32) -> WaitClass {
    if ctx == CTX_WORLD {
        WaitClass::Pt2pt
    } else {
        WaitClass::Collective
    }
}

/// How an incident reaches its recovery counter.
type Counter = fn(&mut RecoveryStats) -> &mut u64;

/// A recovery action or a failure-lifecycle step, as its one row: trace
/// label, flight-event kind (the init recoveries precede any traffic and
/// stay off the ring) and the recovery counter it bumps — so the three
/// cannot be hooked apart.
#[derive(Clone, Copy)]
pub(crate) struct Incident(&'static str, Option<EventKind>, Option<Counter>);

#[rustfmt::skip]
impl Incident {
    /// This rank executed its scripted death.
    pub(crate) const DEATH: Self = Self("death", Some(EventKind::Death), None);
    /// A peer was convicted dead; `Detail::a` is the detection latency.
    pub(crate) const CONVICT: Self = Self("convict", Some(EventKind::Convict), Some(|r| &mut r.convictions));
    /// A communicator revocation was initiated or first observed here.
    pub(crate) const REVOKE: Self = Self("revoke", Some(EventKind::Revoke), Some(|r| &mut r.revokes));
    /// A shrink decision was adopted.
    pub(crate) const SHRINK: Self = Self("shrink", Some(EventKind::Shrink), Some(|r| &mut r.shrinks));
    /// A fabric send completed in error and was reposted.
    pub(crate) const SEND_RETRY: Self = Self("send-retry", Some(EventKind::SendRetry), Some(|r| &mut r.send_retries));
    /// A peer was taken off the intra-host channels at init.
    pub(crate) const HCA_DOWNGRADE: Self = Self("hca-downgrade", Some(EventKind::HcaDowngrade), Some(|r| &mut r.hca_downgrades));
    /// A stale or corrupt container list was re-initialized at attach.
    pub(crate) const LIST_RECOVERY: Self = Self("list-recovery", None, Some(|r| &mut r.list_recoveries));
    /// A conflicting claim on this rank's list slot was repaired.
    pub(crate) const PUBLISH_CONFLICT: Self = Self("publish-conflict-repair", None, Some(|r| &mut r.publish_conflicts));
    /// The container list was rescanned for a silent peer.
    pub(crate) const INIT_RETRY: Self = Self("init-retry", None, Some(|r| &mut r.init_retries));
    /// A transient QP-creation failure was absorbed at attach.
    pub(crate) const ATTACH_RETRY: Self = Self("attach-retry", None, Some(|r| &mut r.attach_retries));
}

/// What an incident carries beyond its kind, time and peer.
#[derive(Clone, Copy, Default)]
pub(crate) struct Detail {
    /// The trace instant's `reason` (downgrade reason, fault class).
    pub(crate) reason: Option<&'static str>,
    /// The flight event's `detail` code.
    pub(crate) code: u8,
    /// The flight event's first payload word.
    pub(crate) a: u64,
    /// The flight event's second payload word.
    pub(crate) b: u64,
}

impl Obs {
    /// Write the store of `rank` of an `n`-rank job into `slot`, field by
    /// field. In place because an `Obs` returned by value is built in
    /// the caller's frame first, and the caller is a fiber's init path
    /// (DESIGN §16).
    pub(crate) fn init(slot: &mut MaybeUninit<Obs>, rank: usize, n: usize, job: &JobObs) {
        // Every field by name: a field added to `Obs` breaks this
        // pattern until it is written below.
        const _: fn(Obs) = |Obs {
                                rank: _,
                                stats: _,
                                flight: _,
                                own: _,
                                trace: _,
                                prof: _,
                            }| {};
        let p = slot.as_mut_ptr();
        // SAFETY: `p` is `slot`'s, valid for writes of an `Obs`; each
        // line initializes one field in place.
        unsafe {
            (&raw mut (*p).rank).write(rank);
            (&raw mut (*p).stats).write(CommStats::default());
            (&raw mut (*p).flight).write(job.telemetry.then(FlightRecorder::default));
            (&raw mut (*p).own).write(Own::default());
            (&raw mut (*p).trace).write(job.tracing.then(Box::default));
            (&raw mut (*p).prof).write(job.profiling.then(|| Box::new(ProfCollector::new(n))));
        }
    }

    /// The base ledger so far.
    pub(crate) fn stats(&self) -> &CommStats {
        &self.stats
    }

    // ---- record calls ------------------------------------------------------

    /// An MPI call of `class` (or `compute`) ran from `t0` to `t1`;
    /// `name` labels it on the timeline.
    #[inline]
    pub(crate) fn call(&mut self, class: CallClass, name: &'static str, t0: SimTime, t1: SimTime) {
        self.stats.add_time(class, t1 - t0);
        if let Some(tr) = &mut self.trace {
            tr.record(class, name, t0, t1);
        }
    }

    /// Message `seq` to `dst`, posted at `posted`, is on its channel
    /// (`route` is `None` for the self-send shortcut): protocol counter
    /// and message-size histogram.
    ///
    /// Called *after* the wire work: the peer is already unblocked, so
    /// these stores overlap with its processing instead of stalling the
    /// pre-push critical path (a locked queue CAS drains the store
    /// buffer, so even a handful of cold stores ahead of it shows up
    /// directly in latency).
    #[inline]
    pub(crate) fn route(
        &mut self,
        dst: usize,
        route: Option<Route>,
        len: usize,
        seq: u64,
        posted: SimTime,
    ) {
        if let Some(tr) = &mut self.trace {
            tr.flow_start(flow_id(self.rank, dst, seq), posted);
        }
        if self.flight.is_none() {
            return;
        }
        self.own.msg_size.observe(len as u64);
        if matches!(route, Some(r) if r.protocol == Protocol::Rendezvous) {
            self.own.rndv_msgs += 1;
        } else {
            self.own.eager_msgs += 1;
        }
    }

    /// A data transfer this rank initiated: the aggregate channel
    /// counters (Table I) always, the per-peer matrix row when profiling
    /// — one call records both, so the row sums are the counters.
    #[inline]
    pub(crate) fn tx(&mut self, dst: usize, channel: Channel, bytes: usize) {
        self.stats.record_op(channel, bytes);
        if let Some(p) = &mut self.prof {
            p.tx.record(dst, channel, bytes);
        }
    }

    /// A delivery to this rank (the aggregate counters stay
    /// initiator-side, as the paper's Table I accounting).
    #[inline]
    pub(crate) fn rx(&mut self, src: usize, channel: Channel, bytes: usize) {
        if let Some(p) = &mut self.prof {
            p.rx.record(src, channel, bytes);
        }
    }

    /// A one-sided delivery this rank performed *into* `target`'s window
    /// (the target executes no code for a put; assembly folds these into
    /// its rx row).
    #[inline]
    pub(crate) fn rx_remote(&mut self, target: usize, channel: Channel, bytes: usize) {
        if let Some(p) = &mut self.prof {
            p.rx_remote.record(target, channel, bytes);
        }
    }

    /// A two-sided request on `ctx` settled after blocking for
    /// `late_sender + late_receiver + transfer`: the part before the
    /// message (payload or RTS) arrived, the part before the CTS was
    /// observable, and the remainder. A receive also closes its trace
    /// `flow` at the completion time.
    #[inline]
    pub(crate) fn wait(
        &mut self,
        ctx: u32,
        late_sender: SimTime,
        late_receiver: SimTime,
        transfer: SimTime,
        flow: Option<(u64, SimTime)>,
    ) {
        let class = wait_class(ctx);
        if self.flight.is_some() {
            self.own.late_sender_ns += late_sender.as_ns();
            self.own.late_receiver_ns += late_receiver.as_ns();
            self.own.transfer_ns += transfer.as_ns();
            if class == WaitClass::Pt2pt {
                let blocked = late_sender + late_receiver + transfer;
                self.own.latency.observe(blocked.as_ns());
            }
        }
        self.blocked(class, late_sender, late_receiver, transfer);
        if let (Some(tr), Some((id, at))) = (&mut self.trace, flow) {
            tr.flow_finish(id, at);
        }
    }

    /// A send on `ctx` waited `stalled` for the receiver to drain the
    /// bounded eager queue. Not a completion, so it feeds the wait table
    /// only: the always-on wait counters and the latency histogram count
    /// settled requests.
    pub(crate) fn stall(&mut self, ctx: u32, stalled: SimTime) {
        self.blocked(wait_class(ctx), SimTime::ZERO, stalled, SimTime::ZERO);
    }

    /// A one-sided completion (flush, fence, synchronous get or small
    /// put) was `waited` for; all of it is transfer. Wait table only,
    /// like [`Obs::stall`].
    pub(crate) fn rma_wait(&mut self, waited: SimTime) {
        self.blocked(WaitClass::OneSided, SimTime::ZERO, SimTime::ZERO, waited);
    }

    /// One blocked interval into the wait table. Partner-not-ready time
    /// is late-sender / late-receiver on user pt2pt traffic and arrival
    /// skew everywhere else.
    #[inline]
    fn blocked(
        &mut self,
        class: WaitClass,
        late_sender: SimTime,
        late_receiver: SimTime,
        transfer: SimTime,
    ) {
        if let Some(p) = &mut self.prof {
            let w = p.waits.class_mut(class);
            match class {
                WaitClass::Pt2pt => w.record(late_sender, late_receiver, SimTime::ZERO, transfer),
                _ => {
                    let skew = late_sender + late_receiver;
                    w.record(SimTime::ZERO, SimTime::ZERO, skew, transfer);
                }
            }
        }
    }

    /// The collective selector routed one `kind` call to `algo`.
    pub(crate) fn coll(&mut self, kind: CollKind, algo: CollAlgo) {
        self.stats.record_coll(kind, algo);
    }

    /// The matching queues hold `posted` receives and `unexpected`
    /// messages after one more entry stayed in either (an entry consumed
    /// on arrival cannot raise a high-water mark).
    #[inline]
    pub(crate) fn depth(&mut self, posted: usize, unexpected: usize) {
        if self.flight.is_some() {
            self.own.posted_peak = self.own.posted_peak.max(posted as u64);
            self.own.unexpected_peak = self.own.unexpected_peak.max(unexpected as u64);
        }
    }

    /// An `iprobe` returned, with a match or without.
    pub(crate) fn probe(&mut self, hit: bool) {
        if self.flight.is_some() {
            if hit {
                self.own.probe_hits += 1;
            } else {
                self.own.probe_misses += 1;
            }
        }
    }

    /// An incident at `at`, `count` occurrences folded into one event
    /// (more than one only for the init recoveries, which are counted
    /// before the clock runs): its recovery counter, its flight event and
    /// its trace instant, from its one row.
    pub(crate) fn incident(
        &mut self,
        Incident(label, event, counter): Incident,
        at: SimTime,
        peer: Option<usize>,
        detail: Detail,
        count: u64,
    ) {
        if let Some(counter) = counter {
            *counter(&mut self.stats.recovery) += count;
        }
        if event == Some(EventKind::Convict) {
            // Max-merged: the report names the slowest detection.
            let worst = &mut self.stats.recovery.detect_ns;
            *worst = (*worst).max(detail.a);
        }
        if let (Some(flight), Some(event)) = (&mut self.flight, event) {
            let mut ev = FlightEvent::new(event, at.as_ns())
                .detail(detail.code)
                .a(detail.a)
                .b(detail.b);
            if let Some(p) = peer {
                ev = ev.peer(p);
            }
            flight.record(ev);
        }
        if let Some(tr) = &mut self.trace {
            tr.instant(label, at, peer, detail.reason, count);
        }
    }
}

// ---- views ---------------------------------------------------------------------

/// Turn what the finished ranks left behind (rank-ordered: return
/// value, final clock, store) into the job's result: the four views are
/// built here, once. The substrate counters — pair queues and mailboxes,
/// fabric endpoints — are sampled here too, once, for every view that
/// shows them. Each store is freed as it is read: a job's heap peaks in
/// this function.
pub(crate) fn job_result<R>(
    finished: impl Iterator<Item = (R, SimTime, Box<Obs>)>,
    state: &JobState,
    elapsed: SimTime,
) -> JobResult<R> {
    let job = &state.obs;
    let n = state.placement.num_ranks();
    let queue = state.queue_pressure();
    let fabric: Vec<FabricCounters> = (0..n)
        .map(|r| match state.fabric.stats(r) {
            Ok(s) => FabricCounters {
                sends: s.sends,
                send_bytes: s.send_bytes,
                recvs: s.recvs,
                recv_bytes: s.recv_bytes,
                rdma_ops: s.rdma_ops,
                rdma_bytes: s.rdma_bytes,
            },
            // Unprivileged containers have no endpoint.
            Err(_) => FabricCounters::default(),
        })
        .collect();
    let mut results = Vec::with_capacity(n);
    let mut times = Vec::with_capacity(n);
    let mut per_rank = Vec::with_capacity(n);
    let mut timelines = Vec::new();
    let mut collectors = Vec::new();
    let mut snapshots = Vec::new();
    for (rank, (out, t, store)) in finished.enumerate() {
        results.push(out);
        times.push(t);
        let store = *store;
        if let Some(flight) = store.flight {
            let substrate = (&queue, &fabric[rank]);
            snapshots.push(rank_snapshot(
                rank,
                &store.stats,
                store.own,
                flight.finish(),
                substrate,
            ));
        }
        timelines.extend(store.trace.map(|t| *t));
        collectors.extend(store.prof.map(|p| *p));
        per_rank.push(store.stats);
    }
    JobResult {
        results,
        times,
        stats: JobStats::new(per_rank),
        elapsed,
        trace: job.tracing.then_some(JobTrace { ranks: timelines }),
        profile: job
            .profiling
            .then(|| JobProfile::assemble(collectors, queue, fabric)),
        telemetry: job
            .telemetry
            .then_some(TelemetrySnapshot { ranks: snapshots }),
    }
}

/// The one-source map: where each of the 36 metrics is kept. Eleven are
/// the store's [`Own`], fourteen are fields or column sums of the rank's
/// [`CommStats`], eleven are substrate counters. The job-wide substrate
/// aggregates have no rank of their own and are reported on rank 0
/// (their help text says "job-wide"); a histogram's scalar slot stays
/// zero.
fn rank_snapshot(
    rank: usize,
    stats: &CommStats,
    own: Own,
    flight: FlightSnapshot,
    (queue, fabric): (&QueuePressure, &FabricCounters),
) -> RankSnapshot {
    let job_wide = |v: u64| if rank == 0 { v } else { 0 };
    let selected = |algo: CollAlgo| -> u64 {
        let calls = CollKind::ALL.iter().map(|&k| stats.coll_count(k, algo));
        calls.sum()
    };
    let rec = &stats.recovery;
    let source = |id: MetricId| match id {
        MetricId::ShmOps => stats.channel(Channel::Shm).ops,
        MetricId::CmaOps => stats.channel(Channel::Cma).ops,
        MetricId::HcaOps => stats.channel(Channel::Hca).ops,
        MetricId::ShmBytes => stats.channel(Channel::Shm).bytes,
        MetricId::CmaBytes => stats.channel(Channel::Cma).bytes,
        MetricId::HcaBytes => stats.channel(Channel::Hca).bytes,
        MetricId::EagerMsgs => own.eager_msgs,
        MetricId::RndvMsgs => own.rndv_msgs,
        MetricId::ProbeHits => own.probe_hits,
        MetricId::ProbeMisses => own.probe_misses,
        MetricId::SendRetries => rec.send_retries,
        MetricId::HcaDowngrades => rec.hca_downgrades,
        MetricId::FtConvictions => rec.convictions,
        MetricId::FtRevokes => rec.revokes,
        MetricId::FtShrinks => rec.shrinks,
        MetricId::CollFlat => selected(CollAlgo::Flat),
        MetricId::CollTwoLevel => selected(CollAlgo::TwoLevel),
        MetricId::CollLarge => selected(CollAlgo::Large),
        MetricId::MailboxPushes => job_wide(queue.mailbox_pushes),
        MetricId::MailboxParks => job_wide(queue.mailbox_parks),
        MetricId::MailboxWakes => job_wide(queue.mailbox_wakes),
        MetricId::ShmQueueAcquires => job_wide(queue.acquires),
        MetricId::ShmQueueStalls => job_wide(queue.stalled_acquires),
        MetricId::FabricSends => fabric.sends,
        MetricId::FabricRecvs => fabric.recvs,
        MetricId::FabricRdma => fabric.rdma_ops,
        MetricId::LateSenderNs => own.late_sender_ns,
        MetricId::LateReceiverNs => own.late_receiver_ns,
        MetricId::TransferNs => own.transfer_ns,
        MetricId::FlightEvents => flight.published,
        MetricId::FlightDropped => flight.dropped,
        MetricId::MatchPostedPeak => own.posted_peak,
        MetricId::MatchUnexpectedPeak => own.unexpected_peak,
        MetricId::ShmMaxInFlight => job_wide(queue.max_in_flight),
        MetricId::Pt2ptLatencyNs | MetricId::MsgSizeBytes => 0,
    };
    RankSnapshot {
        scalars: MetricId::ALL.iter().map(|&id| source(id)).collect(),
        histos: vec![own.latency.finish(), own.msg_size.finish()],
        flight,
    }
}
