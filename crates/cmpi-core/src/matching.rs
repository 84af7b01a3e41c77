//! The ADI3 matching engine: posted receives, unexpected messages, and
//! eager-chunk reassembly.
//!
//! MPI matching semantics implemented here:
//!
//! * a message `(src, ctx, tag)` matches a posted receive whose source and
//!   tag are equal or wildcarded, within the same communicator context;
//! * among candidates, matching is FIFO in *arrival order*, which (because
//!   each channel is FIFO per sender) equals send order — the
//!   non-overtaking rule;
//! * eager messages may arrive as multiple chunks (the SHM channel chunks
//!   anything larger than one eager packet); the engine reassembles them
//!   and tracks the virtual time at which the last chunk was consumed.
//!
//! # One match table
//!
//! The seed implementation kept one linear `VecDeque` per side and
//! scanned it on every probe — O(depth) per message, quadratic for the
//! deep out-of-order windows irregular apps post. This version buckets
//! both sides by the full match key `(ctx, src, tag)`, in **one** table:
//!
//! * every arrived message is concrete, and so is a fully-specified
//!   receive: each queues in the one bucket of its key. A bucket holds
//!   waiting receives or arrived messages, never both, as MPI's matching
//!   rule forbids the pair: [`MatchingEngine::post_recv`] takes an
//!   arrival of its key before it queues, and the runtime offers every
//!   arrival to [`MatchingEngine::take_matching_posted`] before
//!   [`MatchingEngine::push_unexpected`] queues it. So a post or an
//!   arrival is one hash probe;
//! * posted receives with a wildcard (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`)
//!   go to a separate *sideline* kept in post order.
//!
//! A single monotone **stamp** is assigned to every enqueued entry on
//! either side. Buckets hold entries in stamp order, so "first match in
//! queue order" becomes "minimum stamp among candidate bucket fronts":
//!
//! * incoming message vs. posted receives: compare the front of the one
//!   exact bucket against the first matching sideline entry, take the
//!   smaller stamp — O(1) plus the (typically empty) sideline scan;
//! * wildcard receive vs. unexpected messages: sweep the fronts of the
//!   message buckets whose key the wildcard accepts and take the minimum
//!   stamp. This is the documented slow path — wildcard receives trade
//!   the O(1) probe for a scan over the bucket set, still far smaller
//!   than the full message backlog.
//!
//! Because stamps are assigned in arrival/post order, min-stamp selection
//! reproduces the linear scan's FIFO order exactly; the property tests in
//! `tests/matching_equiv.rs` check observational equivalence against a
//! reference linear engine under random interleavings, including
//! probe-heavy mixes, and that no key ever holds both sides.
//!
//! # Occupancy summaries
//!
//! Probes dominate many real traffic patterns (`MPI_Iprobe` polling
//! loops, speculative receives), and most probes miss. Each side
//! therefore keeps a two-load summary consulted before any map or
//! sideline work:
//!
//! * a **count** of queued entries — zero means the whole side is empty
//!   and the probe returns after one branch;
//! * a resettable 128-bit [`KeyFilter`] over the concrete match keys
//!   present — a filter miss proves the key absent without touching the
//!   map, so a non-matching probe never walks the wildcard sideline or
//!   hashes into the bucket table.
//!
//! # Allocation discipline
//!
//! The single-entry case — by far the common one — is stored inline
//! ([`Queue::One`]), so steady-state request/reply traffic allocates
//! nothing per message. A bucket only *spills* to a [`VecDeque`] while
//! two or more entries with the same key are queued simultaneously, and
//! the spill deques are recycled through a small pool per side. Buckets
//! are removed from the map the moment they drain (every bucket present
//! is non-empty — the wildcard sweep relies on this), so the table never
//! accumulates tombstones and needs no periodic pruning.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::hash_map::{Entry, OccupiedEntry};
use std::collections::VecDeque;

use bytes::Bytes;
use cmpi_cluster::{Channel, SimTime};

use crate::datatype::spare;
use crate::fasthash::FastMap;
use crate::packet::ReqId;

/// A fully arrived message (eager payload or rendezvous announcement).
#[derive(Clone, Debug)]
pub struct ArrivedMsg {
    /// Sending rank.
    pub src: usize,
    /// Communicator context.
    pub ctx: u32,
    /// User tag.
    pub tag: u32,
    /// Sender sequence number.
    pub seq: u64,
    /// Payload or handshake.
    pub body: ArrivedBody,
    /// Channel the message travelled on.
    pub channel: Channel,
}

/// Message body variants.
#[derive(Clone, Debug)]
pub enum ArrivedBody {
    /// Assembled eager payload, consumable at `ready_at`.
    Eager {
        /// The payload.
        data: Bytes,
        /// Virtual time at which the receiver finished draining all
        /// chunks from the channel.
        ready_at: SimTime,
        /// Virtual time the last chunk became *available* at this rank,
        /// before any drain copies — the late-sender boundary for the
        /// wait-state decomposition (blocked time before this point is
        /// the sender's fault, after it the channel's).
        arrived_at: SimTime,
    },
    /// A rendezvous announcement; the payload is still at the sender.
    Rts {
        /// Announced size in bytes.
        size: u64,
        /// Sender request id to address the CTS to.
        sreq: ReqId,
        /// Virtual arrival time of the RTS itself.
        available_at: SimTime,
    },
}

/// A receive posted by the application, waiting for a message.
#[derive(Clone, Copy, Debug)]
pub struct PostedRecv {
    /// Receiver request id.
    pub rreq: ReqId,
    /// Required source (`None` = `MPI_ANY_SOURCE`).
    pub src: Option<usize>,
    /// Communicator context.
    pub ctx: u32,
    /// Required tag (`None` = `MPI_ANY_TAG`).
    pub tag: Option<u32>,
    /// Virtual time the receive was posted — the reference point for the
    /// expected/unexpected cost decision (purely virtual so real packet
    /// processing order cannot change costs).
    pub posted_at: SimTime,
}

impl PostedRecv {
    fn matches(&self, src: usize, ctx: u32, tag: u32) -> bool {
        self.ctx == ctx
            && self.src.map(|s| s == src).unwrap_or(true)
            && self.tag.map(|t| t == tag).unwrap_or(true)
    }
}

#[derive(Debug)]
struct Assembly {
    ctx: u32,
    tag: u32,
    total: u64,
    received: u64,
    buf: Vec<u8>,
    ready: SimTime,
    arrived: SimTime,
    channel: Channel,
}

/// Full match key of a concrete message: `ctx` and the source rank (as a
/// `u32`) in one word, then `tag`; a table entry is 88 bytes. Three
/// `u32`s make no smaller an entry, and cost each probe a store-forwarding
/// stall of about 10 ns (EXPERIMENTS, "A rank keeps only what is still
/// pending").
type MatchKey = (u64, u32);

fn match_key(ctx: u32, src: usize, tag: u32) -> MatchKey {
    (u64::from(ctx) << 32 | src as u32 as u64, tag)
}

/// `(ctx, src, tag)` of a key.
fn unpack((ctx_src, tag): MatchKey) -> (u32, usize, u32) {
    ((ctx_src >> 32) as u32, ctx_src as u32 as usize, tag)
}

/// What an unexpected bucket keeps of a message: all but its match key,
/// which the bucket's key already says.
#[derive(Clone, Debug)]
struct Unexpected {
    seq: u64,
    body: ArrivedBody,
    channel: Channel,
}

impl Unexpected {
    fn of(msg: ArrivedMsg) -> Self {
        Unexpected {
            seq: msg.seq,
            body: msg.body,
            channel: msg.channel,
        }
    }

    fn into_msg(self, key: MatchKey) -> ArrivedMsg {
        let (ctx, src, tag) = unpack(key);
        ArrivedMsg {
            src,
            ctx,
            tag,
            seq: self.seq,
            body: self.body,
            channel: self.channel,
        }
    }
}

/// What a bucket keeps of an exact receive: all but its match key, which
/// the bucket's key already says (an exact receive names its source and
/// tag).
#[derive(Clone, Copy, Debug)]
struct Waiting {
    rreq: ReqId,
    posted_at: SimTime,
}

impl Waiting {
    fn into_recv(self, key: MatchKey) -> PostedRecv {
        let (ctx, src, tag) = unpack(key);
        PostedRecv {
            rreq: self.rreq,
            src: Some(src),
            ctx,
            tag: Some(tag),
            posted_at: self.posted_at,
        }
    }
}

// A table entry is its key and its bucket; the table holds one per live
// key (DESIGN §16).
const _: () = assert!(std::mem::size_of::<(MatchKey, Bucket)>() <= 88);

/// Upper bound on retained spill deques per side; beyond this, drained
/// deques fall back to the allocator.
const DEQUE_POOL_MAX: usize = 8;

/// Resettable 128-bit membership filter over concrete match keys.
///
/// Two bits (one per 64-bit word) are derived from a single
/// multiply-xorshift mix of the key. Inserts set bits; removals never clear
/// them, so a *miss is definitive*: a probe for a key that was never
/// inserted costs two loads and skips the map entirely, while stale bits
/// left by removals only cost a false-positive map lookup. The owning
/// side clears the whole filter whenever its entry count drops to zero —
/// request/reply traffic drains constantly, so stale bits do not
/// accumulate over a rank's lifetime.
#[derive(Clone, Copy, Debug, Default)]
struct KeyFilter {
    bits: [u64; 2],
}

impl KeyFilter {
    #[inline]
    fn masks(key: &MatchKey) -> (u64, u64) {
        // One multiply-xorshift round over the packed key — cheaper than
        // a full hasher pass, and the filter only needs bit dispersion,
        // not avalanche quality: a weak mix costs false positives (a
        // wasted map probe), never correctness.
        let &(ctx_src, tag) = key;
        let packed = ctx_src ^ u64::from(tag).rotate_left(21);
        let mut h = packed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        (1u64 << (h & 63), 1u64 << ((h >> 6) & 63))
    }

    #[inline]
    fn insert(&mut self, key: &MatchKey) {
        let (m0, m1) = Self::masks(key);
        self.bits[0] |= m0;
        self.bits[1] |= m1;
    }

    /// `false` proves the key was never inserted since the last clear;
    /// `true` may be a false positive.
    #[inline]
    fn may_contain(&self, key: &MatchKey) -> bool {
        let (m0, m1) = Self::masks(key);
        self.bits[0] & m0 != 0 && self.bits[1] & m1 != 0
    }

    #[inline]
    fn clear(&mut self) {
        self.bits = [0; 2];
    }
}

/// One side's entries under one key, in stamp order. The single-entry
/// case stays inline — no heap allocation for steady-state one-in-one-out
/// traffic; a queue spills to a deque only while two or more entries
/// with the same key are queued simultaneously.
#[derive(Debug)]
enum Queue<T> {
    /// Exactly one queued entry, stored inline.
    One(u64, T),
    /// Spilled: two or more entries arrived before the first drained.
    /// Never left empty in the table.
    Many(VecDeque<(u64, T)>),
}

impl<T> Queue<T> {
    fn front(&self) -> Option<(u64, &T)> {
        match self {
            Queue::One(s, v) => Some((*s, v)),
            Queue::Many(q) => q.front().map(|(s, v)| (*s, v)),
        }
    }

    /// Append in stamp order, spilling `One` → `Many` through the
    /// recycled-deque `pool` when a second simultaneous entry arrives.
    fn push(&mut self, pool: &mut Vec<VecDeque<(u64, T)>>, stamp: u64, val: T) {
        match self {
            Queue::Many(q) => q.push_back((stamp, val)),
            one => {
                let mut q = pool.pop().unwrap_or_default();
                debug_assert!(q.is_empty(), "pooled spill deque must arrive drained");
                if let Queue::One(s0, v0) = std::mem::replace(one, Queue::Many(VecDeque::new())) {
                    q.push_back((s0, v0));
                }
                q.push_back((stamp, val));
                *one = Queue::Many(q);
            }
        }
    }
}

/// Everything queued under one exact key: waiting receives or arrived
/// messages, never both (see the module documentation).
#[derive(Debug)]
enum Bucket {
    /// Exact receives posted for this key, in post order.
    Recvs(Queue<Waiting>),
    /// Messages of this key no receive wanted yet, in arrival order.
    Msgs(Queue<Unexpected>),
}

/// What a bucket queues: receives ([`Waiting`]) or messages
/// ([`Unexpected`]). Each projection is `None` for a bucket of the other
/// side.
trait Side: Sized {
    fn queue(b: &Bucket) -> Option<&Queue<Self>>;
    fn queue_mut(b: &mut Bucket) -> Option<&mut Queue<Self>>;
    fn into_queue(b: Bucket) -> Option<Queue<Self>>;
}

macro_rules! impl_side {
    ($($t:ty => $variant:ident),*) => {$(
        impl Side for $t {
            fn queue(b: &Bucket) -> Option<&Queue<Self>> {
                match b { Bucket::$variant(q) => Some(q), _ => None }
            }
            fn queue_mut(b: &mut Bucket) -> Option<&mut Queue<Self>> {
                match b { Bucket::$variant(q) => Some(q), _ => None }
            }
            fn into_queue(b: Bucket) -> Option<Queue<Self>> {
                match b { Bucket::$variant(q) => Some(q), _ => None }
            }
        }
    )*};
}

impl_side!(Waiting => Recvs, Unexpected => Msgs);

/// Pop the front `T` of `e`'s bucket, removing the bucket once that
/// drains it (its spill deque goes back to `pool`). A single entry is
/// moved straight out of the removed bucket: swapping an empty queue in
/// first cost about 9 ns a pop.
#[inline(always)]
fn pop_front<T: Side>(
    mut e: OccupiedEntry<'_, MatchKey, Bucket>,
    pool: &mut Vec<VecDeque<(u64, T)>>,
) -> Option<T> {
    match T::queue_mut(e.get_mut())? {
        Queue::Many(q) => {
            let (_, v) = q.pop_front()?;
            if q.is_empty() {
                if pool.len() < DEQUE_POOL_MAX {
                    pool.push(std::mem::take(q));
                }
                e.remove();
            }
            Some(v)
        }
        Queue::One(..) => match T::into_queue(e.remove())? {
            Queue::One(_, v) => Some(v),
            Queue::Many(_) => None,
        },
    }
}

/// Per-rank matching engine.
///
/// The table starts empty and grows to the rank's live key set during
/// warm-up (a rank that never receives holds no table at all), keeps its
/// single-entry queues inline, and drops drained buckets immediately
/// (spill deques recycle through small pools), so steady-state matching
/// performs no heap allocation; per-side counts and the unexpected-side
/// [`KeyFilter`] short-circuit probes on empty or non-matching state
/// before any map access.
#[derive(Debug)]
pub struct MatchingEngine {
    assemblies: FastMap<(usize, u64), Assembly>,
    /// Exact posted receives and unexpected messages, by match key; queue
    /// entries carry their stamps. Invariant: every bucket present is
    /// non-empty.
    table: FastMap<MatchKey, Bucket>,
    posted_exact_count: usize,
    unexpected_count: usize,
    unexpected_filter: KeyFilter,
    spare_recv_deques: Vec<VecDeque<(u64, Waiting)>>,
    spare_msg_deques: Vec<VecDeque<(u64, Unexpected)>>,
    /// Wildcard posted receives, in post order.
    posted_wild: VecDeque<(u64, PostedRecv)>,
    /// Monotone enqueue stamp shared by both sides; min-stamp selection
    /// across buckets reproduces the linear queue's FIFO order.
    stamp: u64,
}

impl Default for MatchingEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MatchingEngine {
    /// Create an empty engine.
    pub fn new() -> Self {
        MatchingEngine {
            assemblies: FastMap::default(),
            table: FastMap::default(),
            posted_exact_count: 0,
            unexpected_count: 0,
            unexpected_filter: KeyFilter::default(),
            spare_recv_deques: Vec::new(),
            spare_msg_deques: Vec::new(),
            posted_wild: VecDeque::new(),
            stamp: 0,
        }
    }

    fn next_stamp(&mut self) -> u64 {
        let s = self.stamp;
        // Wrap safety: a wrapped stamp of 0 would jump ahead of every
        // queued entry and break FIFO across the sideline. The counter
        // is u64 and advances once per enqueue, so even at one enqueue
        // per nanosecond it takes ~584 years of rank uptime to wrap —
        // unreachable for any deployment; the debug_assert turns the
        // impossible wrap into a loud failure in test builds instead of
        // a silent reorder (wrapping_add keeps `-C overflow-checks`
        // release builds panic-free on the same impossible edge).
        debug_assert!(s != u64::MAX, "matching stamp counter wrapped");
        self.stamp = s.wrapping_add(1);
        s
    }

    /// Ingest one eager chunk. `chunk_ready` is the virtual time at which
    /// the receiver finished copying this chunk out of the channel;
    /// `available_at` is when the chunk landed on this rank before any
    /// drain copy. Returns the assembled message once the last chunk lands.
    ///
    /// Single-chunk messages (anything at or below the channel's eager
    /// chunk size) skip assembly entirely: the sender's buffer is handed
    /// through zero-copy.
    #[allow(clippy::too_many_arguments)]
    pub fn eager_chunk(
        &mut self,
        src: usize,
        ctx: u32,
        tag: u32,
        seq: u64,
        total: u64,
        offset: u64,
        data: Bytes,
        chunk_ready: SimTime,
        available_at: SimTime,
        channel: Channel,
    ) -> Option<ArrivedMsg> {
        if offset == 0 && data.len() as u64 == total {
            return Some(ArrivedMsg {
                src,
                ctx,
                tag,
                seq,
                body: ArrivedBody::Eager {
                    data,
                    ready_at: chunk_ready,
                    arrived_at: available_at,
                },
                channel,
            });
        }
        let a = self
            .assemblies
            .entry((src, seq))
            .or_insert_with(|| Assembly {
                ctx,
                tag,
                total,
                received: 0,
                buf: {
                    let mut buf = spare::take(total as usize);
                    buf.resize(total as usize, 0);
                    buf
                },
                ready: SimTime::ZERO,
                arrived: SimTime::ZERO,
                channel,
            });
        debug_assert_eq!(
            a.total, total,
            "chunk stream changed its mind about total size"
        );
        let off = offset as usize;
        a.buf[off..off + data.len()].copy_from_slice(&data);
        a.received += data.len() as u64;
        a.ready = a.ready.max(chunk_ready);
        a.arrived = a.arrived.max(available_at);
        assert!(
            a.received <= a.total,
            "chunk overflow for (src {src}, seq {seq})"
        );
        if a.received == a.total {
            // The entry was touched just above, so the remove always
            // succeeds; `?` (rather than a hot-path unwrap) degrades an
            // impossible miss into "assembly still pending".
            let a = self.assemblies.remove(&(src, seq))?;
            Some(ArrivedMsg {
                src,
                ctx: a.ctx,
                tag: a.tag,
                seq,
                body: ArrivedBody::Eager {
                    data: Bytes::from(a.buf),
                    ready_at: a.ready,
                    arrived_at: a.arrived,
                },
                channel: a.channel,
            })
        } else {
            None
        }
    }

    /// Ingest a rendezvous announcement (always a complete message).
    #[allow(clippy::too_many_arguments)]
    pub fn rts(
        &mut self,
        src: usize,
        ctx: u32,
        tag: u32,
        seq: u64,
        size: u64,
        sreq: ReqId,
        available_at: SimTime,
        channel: Channel,
    ) -> ArrivedMsg {
        ArrivedMsg {
            src,
            ctx,
            tag,
            seq,
            body: ArrivedBody::Rts {
                size,
                sreq,
                available_at,
            },
            channel,
        }
    }

    /// Try to match an arrived message against the posted receives (FIFO
    /// in post order). On a hit the posted receive is consumed: the exact
    /// bucket's front or the first matching wildcard, the smaller stamp.
    pub fn take_matching_posted(&mut self, msg: &ArrivedMsg) -> Option<PostedRecv> {
        if self.posted_len() == 0 {
            return None;
        }
        let key = match_key(msg.ctx, msg.src, msg.tag);
        let wild = self
            .posted_wild
            .iter()
            .enumerate()
            .find(|(_, (_, p))| p.matches(msg.src, msg.ctx, msg.tag))
            .map(|(i, &(s, _))| (i, s));
        if self.posted_exact_count != 0 {
            if let Entry::Occupied(e) = self.table.entry(key) {
                let first = Waiting::queue(e.get()).and_then(Queue::front);
                if first.is_some_and(|(s, _)| wild.is_none_or(|(_, ws)| s < ws)) {
                    let w = pop_front(e, &mut self.spare_recv_deques)?;
                    self.posted_exact_count -= 1;
                    return Some(w.into_recv(key));
                }
            }
        }
        let (_, p) = self.posted_wild.remove(wild?.0)?;
        Some(p)
    }

    /// Queue an arrived message no posted receive wanted.
    ///
    /// # Panics
    /// Panics if an exact receive for the message's key is waiting: the
    /// runtime offers every arrival to [`Self::take_matching_posted`]
    /// first, so no key ever holds both sides.
    pub fn push_unexpected(&mut self, msg: ArrivedMsg) {
        let s = self.next_stamp();
        let key = match_key(msg.ctx, msg.src, msg.tag);
        // The message is taken apart inside each arm, not before the
        // probe: built ahead, its copies cost about 10 ns a push.
        match self.table.entry(key) {
            Entry::Vacant(e) => {
                e.insert(Bucket::Msgs(Queue::One(s, Unexpected::of(msg))));
            }
            Entry::Occupied(mut e) => match e.get_mut() {
                Bucket::Msgs(q) => q.push(&mut self.spare_msg_deques, s, Unexpected::of(msg)),
                Bucket::Recvs(_) => panic!("message {key:?} queued while a receive for it waits"),
            },
        }
        self.unexpected_filter.insert(&key);
        self.unexpected_count += 1;
    }

    /// The front message a (possibly wildcarded) receive would take:
    /// bucket front for a concrete key, min-stamp sweep over the message
    /// buckets otherwise. Empty or filter-missing state returns in a
    /// couple of loads without touching the map.
    fn find_unexpected(&self, p: &PostedRecv) -> Option<(MatchKey, &Unexpected)> {
        if self.unexpected_count == 0 {
            return None;
        }
        if let (Some(src), Some(tag)) = (p.src, p.tag) {
            let key = match_key(p.ctx, src, tag);
            if !self.unexpected_filter.may_contain(&key) {
                return None;
            }
            let (_, m) = Unexpected::queue(self.table.get(&key)?)?.front()?;
            return Some((key, m));
        }
        self.table
            .iter()
            .filter_map(|(&k, b)| {
                let (ctx, src, tag) = unpack(k);
                let (s, m) = Unexpected::queue(b)?.front()?;
                p.matches(src, ctx, tag).then_some((s, (k, m)))
            })
            .min_by_key(|&(s, _)| s)
            .map(|(_, f)| f)
    }

    /// Post a receive. Returns the unexpected message it matches, if one
    /// already arrived (FIFO in arrival order); otherwise the receive is
    /// queued. An exact receive makes one probe of the table: it pops its
    /// key's message bucket, or queues on its key. A wildcard receive
    /// sweeps the message buckets for the earliest match and pops that
    /// key the same way, or waits on the sideline.
    pub fn post_recv(&mut self, p: PostedRecv) -> Option<ArrivedMsg> {
        let key = match (p.src, p.tag) {
            (Some(src), Some(tag)) => match_key(p.ctx, src, tag),
            _ => match self.find_unexpected(&p) {
                Some((key, _)) => key,
                None => {
                    let s = self.next_stamp();
                    self.posted_wild.push_back((s, p));
                    return None;
                }
            },
        };
        let s = self.next_stamp();
        let w = Waiting {
            rreq: p.rreq,
            posted_at: p.posted_at,
        };
        match self.table.entry(key) {
            Entry::Vacant(e) => {
                e.insert(Bucket::Recvs(Queue::One(s, w)));
            }
            Entry::Occupied(mut e) => match e.get_mut() {
                Bucket::Recvs(q) => q.push(&mut self.spare_recv_deques, s, w),
                Bucket::Msgs(_) => {
                    let m = pop_front(e, &mut self.spare_msg_deques)?;
                    self.unexpected_count -= 1;
                    if self.unexpected_count == 0 {
                        self.unexpected_filter.clear();
                    }
                    return Some(m.into_msg(key));
                }
            },
        }
        self.posted_exact_count += 1;
        None
    }

    /// Non-destructive probe of the unexpected queue: a copy of the
    /// message a receive for `(src, ctx, tag)` would take (its payload
    /// shared, not copied).
    pub fn peek_unexpected(
        &self,
        src: Option<usize>,
        ctx: u32,
        tag: Option<u32>,
    ) -> Option<ArrivedMsg> {
        let probe = PostedRecv {
            rreq: 0,
            src,
            ctx,
            tag,
            posted_at: SimTime::ZERO,
        };
        let (key, m) = self.find_unexpected(&probe)?;
        Some(m.clone().into_msg(key))
    }

    /// Remove a posted receive (used when a blocking receive completes via
    /// a different path). Returns `true` if it was still queued. Cold
    /// path: scans the buckets rather than taxing every post with an
    /// index insert.
    pub fn cancel_posted(&mut self, rreq: ReqId) -> bool {
        if let Some(i) = self.posted_wild.iter().position(|(_, p)| p.rreq == rreq) {
            self.posted_wild.remove(i);
            return true;
        }
        let pool = &mut self.spare_recv_deques;
        let hit = self.table.iter_mut().find_map(|(k, b)| match b {
            Bucket::Recvs(Queue::One(_, w)) if w.rreq == rreq => Some((*k, true)),
            Bucket::Recvs(Queue::Many(q)) => {
                let i = q.iter().position(|(_, w)| w.rreq == rreq)?;
                q.remove(i);
                let drained = q.is_empty();
                if drained && pool.len() < DEQUE_POOL_MAX {
                    pool.push(std::mem::take(q));
                }
                Some((*k, drained))
            }
            _ => None,
        });
        let Some((k, drained)) = hit else {
            return false;
        };
        if drained {
            self.table.remove(&k);
        }
        self.posted_exact_count -= 1;
        true
    }

    /// Number of queued unexpected messages (diagnostics).
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_count
    }

    /// Number of outstanding posted receives, exact and wildcard
    /// (diagnostics — feeds the matching-occupancy peak gauges).
    pub fn posted_len(&self) -> usize {
        self.posted_exact_count + self.posted_wild.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MatchingEngine {
        /// Number of incomplete chunk assemblies.
        fn pending_assemblies(&self) -> usize {
            self.assemblies.len()
        }
    }

    fn eager_msg(
        e: &mut MatchingEngine,
        src: usize,
        tag: u32,
        seq: u64,
        payload: &[u8],
    ) -> Option<ArrivedMsg> {
        e.eager_chunk(
            src,
            0,
            tag,
            seq,
            payload.len() as u64,
            0,
            Bytes::copy_from_slice(payload),
            SimTime::from_us(1),
            SimTime::from_us(1),
            Channel::Shm,
        )
    }

    #[test]
    fn single_chunk_completes_immediately() {
        let mut e = MatchingEngine::new();
        let m = eager_msg(&mut e, 1, 7, 0, b"abc").expect("complete");
        assert_eq!(m.src, 1);
        assert_eq!(m.tag, 7);
        match m.body {
            ArrivedBody::Eager { data, .. } => assert_eq!(&data[..], b"abc"),
            _ => panic!("wrong body"),
        }
    }

    #[test]
    fn multi_chunk_reassembly_tracks_latest_ready_time() {
        let mut e = MatchingEngine::new();
        assert!(e
            .eager_chunk(
                2,
                0,
                1,
                5,
                6,
                0,
                Bytes::from_static(b"abc"),
                SimTime::from_us(10),
                SimTime::from_us(8),
                Channel::Shm
            )
            .is_none());
        assert_eq!(e.pending_assemblies(), 1);
        let m = e
            .eager_chunk(
                2,
                0,
                1,
                5,
                6,
                3,
                Bytes::from_static(b"def"),
                SimTime::from_us(30),
                SimTime::from_us(25),
                Channel::Shm,
            )
            .expect("complete");
        match m.body {
            ArrivedBody::Eager {
                data,
                ready_at,
                arrived_at,
            } => {
                assert_eq!(&data[..], b"abcdef");
                assert_eq!(ready_at, SimTime::from_us(30));
                assert_eq!(arrived_at, SimTime::from_us(25));
            }
            _ => panic!("wrong body"),
        }
        assert_eq!(e.pending_assemblies(), 0);
    }

    #[test]
    fn interleaved_assemblies_from_different_sources() {
        let mut e = MatchingEngine::new();
        assert!(e
            .eager_chunk(
                1,
                0,
                0,
                0,
                2,
                0,
                Bytes::from_static(b"a"),
                SimTime::ZERO,
                SimTime::ZERO,
                Channel::Shm
            )
            .is_none());
        assert!(e
            .eager_chunk(
                2,
                0,
                0,
                0,
                2,
                0,
                Bytes::from_static(b"x"),
                SimTime::ZERO,
                SimTime::ZERO,
                Channel::Shm
            )
            .is_none());
        let m1 = e
            .eager_chunk(
                1,
                0,
                0,
                0,
                2,
                1,
                Bytes::from_static(b"b"),
                SimTime::ZERO,
                SimTime::ZERO,
                Channel::Shm,
            )
            .unwrap();
        let m2 = e
            .eager_chunk(
                2,
                0,
                0,
                0,
                2,
                1,
                Bytes::from_static(b"y"),
                SimTime::ZERO,
                SimTime::ZERO,
                Channel::Shm,
            )
            .unwrap();
        assert_eq!(m1.src, 1);
        assert_eq!(m2.src, 2);
    }

    #[test]
    fn posted_recv_matches_by_src_and_tag() {
        let mut e = MatchingEngine::new();
        assert!(e
            .post_recv(PostedRecv {
                rreq: 1,
                src: Some(3),
                ctx: 0,
                tag: Some(9),
                posted_at: SimTime::ZERO
            })
            .is_none());
        let m = eager_msg(&mut e, 3, 9, 0, b"x").unwrap();
        let p = e.take_matching_posted(&m).expect("match");
        assert_eq!(p.rreq, 1);
        // Consumed: a second identical message finds nothing.
        let m2 = eager_msg(&mut e, 3, 9, 1, b"y").unwrap();
        assert!(e.take_matching_posted(&m2).is_none());
    }

    #[test]
    fn wrong_tag_or_src_does_not_match() {
        let mut e = MatchingEngine::new();
        e.post_recv(PostedRecv {
            rreq: 1,
            src: Some(3),
            ctx: 0,
            tag: Some(9),
            posted_at: SimTime::ZERO,
        });
        let wrong_tag = eager_msg(&mut e, 3, 8, 0, b"x").unwrap();
        assert!(e.take_matching_posted(&wrong_tag).is_none());
        let wrong_src = eager_msg(&mut e, 2, 9, 0, b"x").unwrap();
        assert!(e.take_matching_posted(&wrong_src).is_none());
        let wrong_ctx = ArrivedMsg {
            ctx: 5,
            ..eager_msg(&mut e, 3, 9, 1, b"x").unwrap()
        };
        assert!(e.take_matching_posted(&wrong_ctx).is_none());
    }

    #[test]
    fn wildcards_match_anything() {
        let mut e = MatchingEngine::new();
        e.post_recv(PostedRecv {
            rreq: 1,
            src: None,
            ctx: 0,
            tag: None,
            posted_at: SimTime::ZERO,
        });
        let m = eager_msg(&mut e, 5, 123, 0, b"x").unwrap();
        assert_eq!(e.take_matching_posted(&m).unwrap().rreq, 1);
    }

    #[test]
    fn unexpected_queue_is_fifo_per_match() {
        let mut e = MatchingEngine::new();
        let m1 = eager_msg(&mut e, 1, 7, 0, b"first").unwrap();
        let m2 = eager_msg(&mut e, 1, 7, 1, b"second").unwrap();
        e.push_unexpected(m1);
        e.push_unexpected(m2);
        let got = e
            .post_recv(PostedRecv {
                rreq: 9,
                src: Some(1),
                ctx: 0,
                tag: Some(7),
                posted_at: SimTime::ZERO,
            })
            .unwrap();
        assert_eq!(got.seq, 0, "must match in arrival order");
        let got = e
            .post_recv(PostedRecv {
                rreq: 10,
                src: Some(1),
                ctx: 0,
                tag: Some(7),
                posted_at: SimTime::ZERO,
            })
            .unwrap();
        assert_eq!(got.seq, 1);
    }

    #[test]
    fn posted_queue_is_fifo_per_match() {
        let mut e = MatchingEngine::new();
        e.post_recv(PostedRecv {
            rreq: 1,
            src: None,
            ctx: 0,
            tag: None,
            posted_at: SimTime::ZERO,
        });
        e.post_recv(PostedRecv {
            rreq: 2,
            src: None,
            ctx: 0,
            tag: None,
            posted_at: SimTime::ZERO,
        });
        let m = eager_msg(&mut e, 0, 0, 0, b"x").unwrap();
        assert_eq!(e.take_matching_posted(&m).unwrap().rreq, 1);
        let m = eager_msg(&mut e, 0, 0, 1, b"y").unwrap();
        assert_eq!(e.take_matching_posted(&m).unwrap().rreq, 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut e = MatchingEngine::new();
        let m = eager_msg(&mut e, 1, 7, 0, b"x").unwrap();
        e.push_unexpected(m);
        assert!(e.peek_unexpected(Some(1), 0, Some(7)).is_some());
        assert!(e.peek_unexpected(Some(1), 0, Some(7)).is_some());
        assert!(e.peek_unexpected(Some(2), 0, None).is_none());
        assert_eq!(e.unexpected_len(), 1);
    }

    #[test]
    fn cancel_posted_removes_once() {
        let mut e = MatchingEngine::new();
        e.post_recv(PostedRecv {
            rreq: 4,
            src: None,
            ctx: 0,
            tag: None,
            posted_at: SimTime::ZERO,
        });
        assert!(e.cancel_posted(4));
        assert!(!e.cancel_posted(4));
    }

    #[test]
    fn cancel_posted_removes_exact_from_spilled_bucket() {
        let mut e = MatchingEngine::new();
        for rreq in [1u64, 2, 3] {
            e.post_recv(PostedRecv {
                rreq,
                src: Some(1),
                ctx: 0,
                tag: Some(7),
                posted_at: SimTime::ZERO,
            });
        }
        assert!(e.cancel_posted(2));
        assert!(!e.cancel_posted(2));
        // Remaining receives still match FIFO (1 then 3).
        let m = eager_msg(&mut e, 1, 7, 0, b"x").unwrap();
        assert_eq!(e.take_matching_posted(&m).unwrap().rreq, 1);
        let m = eager_msg(&mut e, 1, 7, 1, b"y").unwrap();
        assert_eq!(e.take_matching_posted(&m).unwrap().rreq, 3);
        assert!(!e.cancel_posted(1));
    }

    #[test]
    fn exact_and_wildcard_posted_interleave_in_post_order() {
        let mut e = MatchingEngine::new();
        for (rreq, src, tag) in [
            (1, Some(1), Some(7)),
            (2, None, None),
            (3, Some(1), Some(7)),
        ] {
            e.post_recv(PostedRecv {
                rreq,
                src,
                ctx: 0,
                tag,
                posted_at: SimTime::ZERO,
            });
        }
        for (seq, want) in [(0, 1), (1, 2), (2, 3)] {
            let m = eager_msg(&mut e, 1, 7, seq, b"x").unwrap();
            assert_eq!(e.take_matching_posted(&m).unwrap().rreq, want);
        }
    }

    #[test]
    fn wildcard_recv_takes_earliest_across_buckets() {
        let mut e = MatchingEngine::new();
        let m0 = eager_msg(&mut e, 1, 7, 0, b"a").unwrap();
        let m1 = eager_msg(&mut e, 2, 9, 1, b"b").unwrap();
        e.push_unexpected(m0);
        e.push_unexpected(m1);
        let wild = |rreq| PostedRecv {
            rreq,
            src: None,
            ctx: 0,
            tag: None,
            posted_at: SimTime::ZERO,
        };
        assert_eq!(e.post_recv(wild(1)).unwrap().src, 1);
        assert_eq!(e.post_recv(wild(2)).unwrap().src, 2);
        assert_eq!(e.unexpected_len(), 0);
    }

    #[test]
    fn same_key_backlog_spills_then_recycles_the_deque() {
        let mut e = MatchingEngine::new();
        for seq in 0..3 {
            let m = eager_msg(&mut e, 1, 7, seq, b"x").unwrap();
            e.push_unexpected(m);
        }
        // One key, three entries: a single spilled bucket.
        assert_eq!(e.table.len(), 1);
        for want in 0..3u64 {
            let got = e
                .post_recv(PostedRecv {
                    rreq: want,
                    src: Some(1),
                    ctx: 0,
                    tag: Some(7),
                    posted_at: SimTime::ZERO,
                })
                .unwrap();
            assert_eq!(got.seq, want, "spilled bucket must stay FIFO");
        }
        // Drained: bucket removed, spill deque recycled, filter reset.
        assert_eq!(e.table.len(), 0);
        assert_eq!(e.spare_msg_deques.len(), 1);
        assert_eq!(e.unexpected_filter.bits, [0, 0]);
        // The next spill reuses the pooled deque instead of allocating.
        for seq in 3..5 {
            let m = eager_msg(&mut e, 2, 9, seq, b"y").unwrap();
            e.push_unexpected(m);
        }
        assert_eq!(e.spare_msg_deques.len(), 0, "spill must draw from pool");
    }

    #[test]
    fn drained_buckets_are_removed_immediately() {
        let mut e = MatchingEngine::new();
        for src in 0..8 {
            let m = eager_msg(&mut e, src, 7, src as u64, b"x").unwrap();
            e.push_unexpected(m);
        }
        assert_eq!(e.table.len(), 8);
        for src in 0..8 {
            assert!(e
                .post_recv(PostedRecv {
                    rreq: src as u64,
                    src: Some(src),
                    ctx: 0,
                    tag: Some(7),
                    posted_at: SimTime::ZERO,
                })
                .is_some());
            assert_eq!(
                e.table.len(),
                8 - src - 1,
                "bucket must vanish the moment it drains"
            );
        }
        assert_eq!(e.unexpected_filter.bits, [0, 0], "filter resets on empty");
    }

    #[test]
    fn one_table_holds_a_key_on_one_side_at_a_time() {
        let mut e = MatchingEngine::new();
        let exact = |rreq| PostedRecv {
            rreq,
            src: Some(1),
            ctx: 0,
            tag: Some(7),
            posted_at: SimTime::ZERO,
        };
        assert!(e.post_recv(exact(1)).is_none());
        assert!(matches!(e.table.values().next(), Some(Bucket::Recvs(_))));
        let m = eager_msg(&mut e, 1, 7, 0, b"x").unwrap();
        assert_eq!(e.take_matching_posted(&m).unwrap().rreq, 1);
        assert!(e.table.is_empty(), "the drained receive bucket must go");
        let m = eager_msg(&mut e, 1, 7, 1, b"y").unwrap();
        assert!(e.take_matching_posted(&m).is_none());
        e.push_unexpected(m);
        assert!(matches!(e.table.values().next(), Some(Bucket::Msgs(_))));
        assert_eq!(e.post_recv(exact(2)).unwrap().seq, 1);
        assert!(e.table.is_empty(), "the drained message bucket must go");
        assert_eq!((e.posted_len(), e.unexpected_len()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "while a receive for it waits")]
    fn queueing_a_message_beside_its_waiting_receive_panics() {
        let mut e = MatchingEngine::new();
        e.post_recv(PostedRecv {
            rreq: 1,
            src: Some(1),
            ctx: 0,
            tag: Some(7),
            posted_at: SimTime::ZERO,
        });
        let m = eager_msg(&mut e, 1, 7, 0, b"x").unwrap();
        e.push_unexpected(m);
    }

    #[test]
    fn key_filter_miss_is_definitive_and_clear_resets() {
        let mut f = KeyFilter::default();
        let a = match_key(0, 1, 7);
        let b = match_key(1, 2, 9);
        assert!(!f.may_contain(&a));
        f.insert(&a);
        assert!(f.may_contain(&a));
        // A different key may false-positive but these two disperse.
        assert!(!f.may_contain(&b));
        f.clear();
        assert!(!f.may_contain(&a));
    }

    #[test]
    fn single_chunk_fast_path_skips_assembly() {
        let mut e = MatchingEngine::new();
        let payload = Bytes::from(vec![7u8; 64]);
        let m = e
            .eager_chunk(
                1,
                0,
                0,
                0,
                64,
                0,
                payload,
                SimTime::ZERO,
                SimTime::ZERO,
                Channel::Shm,
            )
            .expect("complete");
        assert_eq!(e.pending_assemblies(), 0);
        let ArrivedBody::Eager { data, .. } = m.body else {
            panic!("wrong body");
        };
        // The handout is the sender's own buffer: sole whole ownership,
        // so a typed receive can hand it to the spare list.
        assert!(data.try_into_vec().is_ok());
    }

    #[test]
    #[cfg(not(cmpi_model))]
    fn multi_chunk_assemblies_draw_from_the_spare_list() {
        const TOTAL: usize = spare::SPARE_MIN + 6;
        while spare::held().0 > 0 {
            drop(spare::take(spare::SPARE_MIN));
        }
        let kept = Bytes::from(vec![0u8; 2 * spare::SPARE_MIN]);
        let at = kept.as_ptr();
        spare::give(kept);
        assert_eq!(spare::held().0, 1);
        let mut e = MatchingEngine::new();
        let chunk = |e: &mut MatchingEngine, offset: usize, len: usize| {
            e.eager_chunk(
                1,
                0,
                0,
                0,
                TOTAL as u64,
                offset as u64,
                Bytes::from(vec![offset as u8; len]),
                SimTime::ZERO,
                SimTime::ZERO,
                Channel::Shm,
            )
        };
        assert!(chunk(&mut e, 0, TOTAL - 6).is_none());
        assert_eq!(spare::held().0, 0, "assembly must draw from the list");
        let m = chunk(&mut e, TOTAL - 6, 6).unwrap();
        let ArrivedBody::Eager { data, .. } = m.body else {
            panic!("wrong body");
        };
        assert_eq!(data.as_ptr(), at, "the assembly is the kept buffer");
        assert!(data[..TOTAL - 6].iter().all(|&b| b == 0));
        assert!(data[TOTAL - 6..].iter().all(|&b| b == (TOTAL - 6) as u8));
        spare::give(data);
        assert_eq!(spare::held().0, 1, "drained assembly must come back");
    }

    /// Exhaustive interleaving checks (run via
    /// `RUSTFLAGS="--cfg cmpi_model" cargo test -p cmpi-core --lib`).
    ///
    /// The engine itself is `&mut self` (each rank owns one), so the
    /// model exercises its real concurrent shape: a progress thread and
    /// an application thread serializing through the runtime's lock. The
    /// property is linearizability of the wildcard stamp sideline —
    /// whatever the interleaving, matches respect arrival order and no
    /// message or receive is lost or double-matched.
    #[cfg(cmpi_model)]
    mod model {
        use super::*;
        use cmpi_model::model::{thread, Builder};
        use cmpi_model::sync::Mutex;
        use std::sync::Arc;

        fn msg(e: &mut MatchingEngine, src: usize, tag: u32, seq: u64) -> ArrivedMsg {
            e.eager_chunk(
                src,
                0,
                tag,
                seq,
                1,
                0,
                Bytes::from_static(b"x"),
                SimTime::ZERO,
                SimTime::ZERO,
                Channel::Shm,
            )
            .unwrap()
        }

        #[test]
        fn model_wildcard_sideline_is_fifo_under_contention() {
            Builder::new().max_executions(400_000).check(|| {
                let eng = Arc::new(Mutex::new(MatchingEngine::new()));
                let e2 = Arc::clone(&eng);
                // Progress thread: two messages from the same sender land
                // as unexpected, in sequence order.
                let producer = thread::spawn(move || {
                    for seq in 0..2 {
                        let mut e = e2.lock();
                        let m = msg(&mut e, 1, 7, seq);
                        // The app side posts and cancels under one lock
                        // hold, so the producer can never observe a
                        // posted receive here.
                        assert!(e.take_matching_posted(&m).is_none());
                        e.push_unexpected(m);
                    }
                });
                // Application thread: two receives (one wildcard, one
                // exact) that both match that sender.
                let mut got = Vec::new();
                let mut rreq = 0;
                while got.len() < 2 {
                    let mut e = eng.lock();
                    let p = PostedRecv {
                        rreq,
                        src: if rreq == 0 { None } else { Some(1) },
                        ctx: 0,
                        tag: if rreq == 0 { None } else { Some(7) },
                        posted_at: SimTime::ZERO,
                    };
                    match e.post_recv(p) {
                        Some(m) => {
                            got.push(m.seq);
                            rreq += 1;
                        }
                        None => {
                            // Queued; whichever message arrives next will
                            // claim it via take_matching_posted. Model
                            // simplification: cancel and repost instead
                            // of completing asynchronously.
                            assert!(e.cancel_posted(rreq));
                            drop(e);
                            thread::yield_now();
                        }
                    }
                }
                producer.join();
                assert_eq!(got, vec![0, 1], "arrival order violated");
            });
        }
    }

    #[test]
    fn rts_preserves_fields() {
        let mut e = MatchingEngine::new();
        let m = e.rts(2, 1, 3, 4, 1 << 20, 42, SimTime::from_us(5), Channel::Cma);
        assert_eq!(m.src, 2);
        match m.body {
            ArrivedBody::Rts {
                size,
                sreq,
                available_at,
            } => {
                assert_eq!(size, 1 << 20);
                assert_eq!(sreq, 42);
                assert_eq!(available_at, SimTime::from_us(5));
            }
            _ => panic!("wrong body"),
        }
    }
}
