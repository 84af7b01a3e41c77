//! Observational equivalence of the bucketed matching engine against a
//! reference linear-scan engine (the seed implementation's semantics).
//!
//! Both engines consume the same random interleaving of message
//! arrivals, receive posts (with `ANY_SOURCE`/`ANY_TAG` wildcards),
//! probes, and cancels; every observable outcome — which receive a
//! message matches, which unexpected message a post consumes, probe
//! results, cancel results, queue depths — must be identical, and the
//! matched stream must stay FIFO per `(src, tag)` (the MPI
//! non-overtaking rule).

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use cmpi_cluster::{Channel, SimTime};
use cmpi_core::matching::{ArrivedBody, ArrivedMsg, MatchingEngine, PostedRecv};
use cmpi_core::packet::ReqId;
use proptest::prelude::*;

/// The seed engine: one linear queue per side, scanned front-to-back.
#[derive(Default)]
struct RefEngine {
    unexpected: VecDeque<ArrivedMsg>,
    posted: VecDeque<PostedRecv>,
}

fn matches(p: &PostedRecv, src: usize, ctx: u32, tag: u32) -> bool {
    p.ctx == ctx
        && p.src.map(|s| s == src).unwrap_or(true)
        && p.tag.map(|t| t == tag).unwrap_or(true)
}

impl RefEngine {
    fn take_matching_posted(&mut self, msg: &ArrivedMsg) -> Option<PostedRecv> {
        let pos = self
            .posted
            .iter()
            .position(|p| matches(p, msg.src, msg.ctx, msg.tag))?;
        self.posted.remove(pos)
    }

    fn post_recv(&mut self, p: PostedRecv) -> Option<ArrivedMsg> {
        let pos = self
            .unexpected
            .iter()
            .position(|m| matches(&p, m.src, m.ctx, m.tag));
        match pos {
            Some(i) => self.unexpected.remove(i),
            None => {
                self.posted.push_back(p);
                None
            }
        }
    }

    fn peek_unexpected(
        &self,
        src: Option<usize>,
        ctx: u32,
        tag: Option<u32>,
    ) -> Option<&ArrivedMsg> {
        let probe = PostedRecv {
            rreq: 0,
            src,
            ctx,
            tag,
            posted_at: SimTime::ZERO,
        };
        self.unexpected
            .iter()
            .find(|m| matches(&probe, m.src, m.ctx, m.tag))
    }

    fn cancel_posted(&mut self, rreq: ReqId) -> bool {
        match self.posted.iter().position(|p| p.rreq == rreq) {
            Some(i) => {
                self.posted.remove(i);
                true
            }
            None => false,
        }
    }
}

/// One step of the generated interleaving.
#[derive(Clone, Debug)]
enum Op {
    /// A concrete message arrives: dispatch against posted receives.
    Arrive { src: usize, ctx: u32, tag: u32 },
    /// The application posts a (possibly wildcarded) receive.
    Post {
        src: Option<usize>,
        ctx: u32,
        tag: Option<u32>,
    },
    /// Non-destructive probe.
    Peek {
        src: Option<usize>,
        ctx: u32,
        tag: Option<u32>,
    },
    /// Cancel the k-th receive ever posted (may already be consumed).
    Cancel { nth: usize },
}

/// Everything an MPI implementation could observe from the engine.
#[derive(Debug, PartialEq, Eq)]
enum Event {
    MsgMatchedRecv { seq: u64, rreq: ReqId },
    MsgQueued { seq: u64 },
    RecvGotMsg { rreq: ReqId, seq: u64 },
    RecvQueued { rreq: ReqId },
    Peeked(Option<(usize, u32, u64)>),
    Cancelled(bool),
}

/// `None` (wildcard) one time in four, a concrete value otherwise.
fn maybe_src() -> impl Strategy<Value = Option<usize>> {
    (0u8..4, 0usize..4).prop_map(|(w, s)| (w > 0).then_some(s))
}

fn maybe_tag() -> impl Strategy<Value = Option<u32>> {
    (0u8..4, 0u32..3).prop_map(|(w, t)| (w > 0).then_some(t))
}

fn arrive_op() -> impl Strategy<Value = Op> {
    (0usize..4, 0u32..2, 0u32..3).prop_map(|(src, ctx, tag)| Op::Arrive { src, ctx, tag })
}

fn post_op() -> impl Strategy<Value = Op> {
    (maybe_src(), 0u32..2, maybe_tag()).prop_map(|(src, ctx, tag)| Op::Post { src, ctx, tag })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The stand-in's `prop_oneof!` is uniform; repeating the arrive and
    // post arms biases the mix toward real traffic.
    prop_oneof![
        arrive_op(),
        arrive_op(),
        post_op(),
        post_op(),
        (maybe_src(), 0u32..2, maybe_tag()).prop_map(|(src, ctx, tag)| Op::Peek { src, ctx, tag }),
        (0usize..64).prop_map(|nth| Op::Cancel { nth }),
    ]
}

/// Probe-storm mix: four probes for every arrival or post, over a keyspace
/// wide enough that most probes miss. This drives the occupancy-summary
/// fast path (per-side counts + the unexpected-side key filter) — the
/// machinery the probe regression fix added — through both hit and miss
/// branches, against a reference that has no summaries at all.
fn probe_heavy_strategy() -> impl Strategy<Value = Op> {
    fn peek_op() -> impl Strategy<Value = Op> {
        (maybe_src(), 0u32..2, maybe_tag()).prop_map(|(src, ctx, tag)| Op::Peek { src, ctx, tag })
    }
    // Concrete-key probes (no wildcards) take the filter's packed-key
    // test; widen the tag range so most of them miss.
    fn concrete_peek_op() -> impl Strategy<Value = Op> {
        (0usize..4, 0u32..2, 0u32..8).prop_map(|(src, ctx, tag)| Op::Peek {
            src: Some(src),
            ctx,
            tag: Some(tag),
        })
    }
    prop_oneof![
        arrive_op(),
        post_op(),
        peek_op(),
        peek_op(),
        peek_op(),
        peek_op(),
        concrete_peek_op(),
        concrete_peek_op(),
    ]
}

fn mk_msg(src: usize, ctx: u32, tag: u32, seq: u64) -> ArrivedMsg {
    ArrivedMsg {
        src,
        ctx,
        tag,
        seq,
        body: ArrivedBody::Eager {
            data: Bytes::new(),
            ready_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        },
        channel: Channel::Shm,
    }
}

fn peek_view(m: Option<&ArrivedMsg>) -> Option<(usize, u32, u64)> {
    m.map(|m| (m.src, m.ctx, m.seq))
}

/// Drive one engine through the op sequence, logging every observable.
fn run_bucketed(ops: &[Op]) -> (Vec<Event>, usize) {
    let mut e = MatchingEngine::new();
    let mut log = Vec::new();
    let mut seq = 0u64;
    let mut rreq = 0u64;
    let mut issued = Vec::new();
    for op in ops {
        match *op {
            Op::Arrive { src, ctx, tag } => {
                let m = mk_msg(src, ctx, tag, seq);
                seq += 1;
                match e.take_matching_posted(&m) {
                    Some(p) => log.push(Event::MsgMatchedRecv {
                        seq: m.seq,
                        rreq: p.rreq,
                    }),
                    None => {
                        log.push(Event::MsgQueued { seq: m.seq });
                        e.push_unexpected(m);
                    }
                }
            }
            Op::Post { src, ctx, tag } => {
                rreq += 1;
                issued.push(rreq);
                let p = PostedRecv {
                    rreq,
                    src,
                    ctx,
                    tag,
                    posted_at: SimTime::ZERO,
                };
                match e.post_recv(p) {
                    Some(m) => log.push(Event::RecvGotMsg { rreq, seq: m.seq }),
                    None => log.push(Event::RecvQueued { rreq }),
                }
            }
            Op::Peek { src, ctx, tag } => {
                log.push(Event::Peeked(peek_view(
                    e.peek_unexpected(src, ctx, tag).as_ref(),
                )));
            }
            Op::Cancel { nth } => {
                if let Some(&r) = issued.get(nth % issued.len().max(1)) {
                    log.push(Event::Cancelled(e.cancel_posted(r)));
                }
            }
        }
    }
    (log, e.unexpected_len())
}

/// Same loop against the linear reference.
fn run_reference(ops: &[Op]) -> (Vec<Event>, usize) {
    let mut e = RefEngine::default();
    let mut log = Vec::new();
    let mut seq = 0u64;
    let mut rreq = 0u64;
    let mut issued = Vec::new();
    for op in ops {
        match *op {
            Op::Arrive { src, ctx, tag } => {
                let m = mk_msg(src, ctx, tag, seq);
                seq += 1;
                match e.take_matching_posted(&m) {
                    Some(p) => log.push(Event::MsgMatchedRecv {
                        seq: m.seq,
                        rreq: p.rreq,
                    }),
                    None => {
                        log.push(Event::MsgQueued { seq: m.seq });
                        e.unexpected.push_back(m);
                    }
                }
            }
            Op::Post { src, ctx, tag } => {
                rreq += 1;
                issued.push(rreq);
                let p = PostedRecv {
                    rreq,
                    src,
                    ctx,
                    tag,
                    posted_at: SimTime::ZERO,
                };
                match e.post_recv(p) {
                    Some(m) => log.push(Event::RecvGotMsg { rreq, seq: m.seq }),
                    None => log.push(Event::RecvQueued { rreq }),
                }
            }
            Op::Peek { src, ctx, tag } => {
                log.push(Event::Peeked(peek_view(e.peek_unexpected(src, ctx, tag))));
            }
            Op::Cancel { nth } => {
                if let Some(&r) = issued.get(nth % issued.len().max(1)) {
                    log.push(Event::Cancelled(e.cancel_posted(r)));
                }
            }
        }
    }
    (log, e.unexpected.len())
}

/// Apply one op to both engines and return what each observed.
struct Lockstep {
    engine: MatchingEngine,
    reference: RefEngine,
    seq: u64,
    issued: Vec<ReqId>,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            engine: MatchingEngine::new(),
            reference: RefEngine::default(),
            seq: 0,
            issued: Vec::new(),
        }
    }

    fn step(&mut self, op: &Op) -> (Option<Event>, Option<Event>) {
        let (e, r) = (&mut self.engine, &mut self.reference);
        match *op {
            Op::Arrive { src, ctx, tag } => {
                let m = mk_msg(src, ctx, tag, self.seq);
                self.seq += 1;
                let got = match e.take_matching_posted(&m) {
                    Some(p) => Event::MsgMatchedRecv {
                        seq: m.seq,
                        rreq: p.rreq,
                    },
                    None => {
                        e.push_unexpected(m.clone());
                        Event::MsgQueued { seq: m.seq }
                    }
                };
                let want = match r.take_matching_posted(&m) {
                    Some(p) => Event::MsgMatchedRecv {
                        seq: m.seq,
                        rreq: p.rreq,
                    },
                    None => {
                        r.unexpected.push_back(m.clone());
                        Event::MsgQueued { seq: m.seq }
                    }
                };
                (Some(got), Some(want))
            }
            Op::Post { src, ctx, tag } => {
                let rreq = self.issued.len() as ReqId + 1;
                self.issued.push(rreq);
                let p = PostedRecv {
                    rreq,
                    src,
                    ctx,
                    tag,
                    posted_at: SimTime::ZERO,
                };
                let seen = |m: Option<ArrivedMsg>| match m {
                    Some(m) => Event::RecvGotMsg { rreq, seq: m.seq },
                    None => Event::RecvQueued { rreq },
                };
                (Some(seen(e.post_recv(p))), Some(seen(r.post_recv(p))))
            }
            Op::Peek { src, ctx, tag } => (
                Some(Event::Peeked(peek_view(
                    e.peek_unexpected(src, ctx, tag).as_ref(),
                ))),
                Some(Event::Peeked(peek_view(r.peek_unexpected(src, ctx, tag)))),
            ),
            Op::Cancel { nth } => match self.issued.get(nth % self.issued.len().max(1)) {
                Some(&rreq) => (
                    Some(Event::Cancelled(e.cancel_posted(rreq))),
                    Some(Event::Cancelled(r.cancel_posted(rreq))),
                ),
                None => (None, None),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every step of a random post / arrival / cancel / probe
    /// sequence, no key holds both a waiting receive and an arrived
    /// message that receive would take (so no exact key holds both
    /// sides: the one match table's invariant), and the engine still
    /// equals the linear reference, depths included.
    #[test]
    fn no_key_holds_both_sides_and_the_engine_tracks_the_reference(
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut both = Lockstep::new();
        for op in &ops {
            let (got, want) = both.step(op);
            prop_assert_eq!(got, want, "diverged at {:?}", op);
            for p in &both.reference.posted {
                prop_assert!(
                    both.engine.peek_unexpected(p.src, p.ctx, p.tag).is_none(),
                    "receive {:?} waits beside a message it matches", p
                );
            }
            prop_assert_eq!(both.engine.unexpected_len(), both.reference.unexpected.len());
            prop_assert_eq!(both.engine.posted_len(), both.reference.posted.len());
        }
    }

    /// The bucketed engine is observationally identical to the linear
    /// scan under arbitrary interleavings with wildcards.
    #[test]
    fn bucketed_engine_equals_linear_reference(
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let (got, got_len) = run_bucketed(&ops);
        let (want, want_len) = run_reference(&ops);
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_len, want_len);
    }

    /// Probe-storm interleavings (four probes per state change, mostly
    /// misses) observe exactly what the linear reference observes — the
    /// summary/filter fast path may only short-circuit, never change an
    /// answer.
    #[test]
    fn probe_heavy_interleavings_equal_linear_reference(
        ops in proptest::collection::vec(probe_heavy_strategy(), 0..400),
    ) {
        let (got, got_len) = run_bucketed(&ops);
        let (want, want_len) = run_reference(&ops);
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_len, want_len);
    }

    /// Matched messages never overtake within a `(ctx, src, tag)` stream:
    /// for every key, consumption order equals arrival (seq) order.
    #[test]
    fn matching_is_fifo_per_stream(
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let (log, _) = run_bucketed(&ops);
        // Map each message seq back to its stream key.
        let mut stream: HashMap<u64, (usize, u32, u32)> = HashMap::new();
        let mut seq = 0u64;
        for op in &ops {
            if let Op::Arrive { src, ctx, tag } = *op {
                stream.insert(seq, (src, ctx, tag));
                seq += 1;
            }
        }
        let mut last: HashMap<(usize, u32, u32), u64> = HashMap::new();
        for ev in &log {
            let seq = match *ev {
                Event::MsgMatchedRecv { seq, .. } | Event::RecvGotMsg { seq, .. } => seq,
                _ => continue,
            };
            let key = stream[&seq];
            if let Some(&prev) = last.get(&key) {
                prop_assert!(
                    seq > prev,
                    "stream {key:?} consumed seq {seq} after {prev}"
                );
            }
            last.insert(key, seq);
        }
    }
}
