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
//! # Bucketed queues
//!
//! The seed implementation kept one linear `VecDeque` per side and
//! scanned it on every probe — O(depth) per message, quadratic for the
//! deep out-of-order windows irregular apps post. This version buckets
//! both sides by the full match key `(ctx, src, tag)`:
//!
//! * every arrived message is concrete, so the unexpected queue is purely
//!   bucketed — a fully-specified receive probes exactly one bucket;
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
//!   buckets whose key the wildcard accepts and take the minimum stamp.
//!   This is the documented slow path — wildcard receives trade the O(1)
//!   probe for a scan over the bucket set, still far smaller than the
//!   full message backlog.
//!
//! Because stamps are assigned in arrival/post order, min-stamp selection
//! reproduces the linear scan's FIFO order exactly; the property tests in
//! `tests/matching_equiv.rs` check observational equivalence against a
//! reference linear engine under random interleavings, including
//! probe-heavy mixes.
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
//! The single-entry bucket case — by far the common one — is stored
//! inline ([`Bucket::One`]), so steady-state request/reply traffic
//! allocates nothing per message. A bucket only *spills* to a
//! [`VecDeque`] while two or more entries with the same key are queued
//! simultaneously, and the spill deques are recycled through a small
//! pool. Buckets are removed from the map the moment they drain (every
//! bucket present is non-empty — the wildcard sweep relies on this), so
//! the maps never accumulate tombstones and need no periodic pruning.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::hash_map::Entry;
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

/// Full match key of a concrete message: `(ctx, src, tag)`.
type MatchKey = (u32, usize, u32);

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

    fn into_msg(self, (ctx, src, tag): MatchKey) -> ArrivedMsg {
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

/// What an exact posted bucket keeps of a receive: all but its match
/// key, which the bucket's key already says (an exact receive names its
/// source and tag).
#[derive(Clone, Copy, Debug)]
struct Waiting {
    rreq: ReqId,
    posted_at: SimTime,
}

impl Waiting {
    fn into_recv(self, (ctx, src, tag): MatchKey) -> PostedRecv {
        PostedRecv {
            rreq: self.rreq,
            src: Some(src),
            ctx,
            tag: Some(tag),
            posted_at: self.posted_at,
        }
    }
}

// A bucket-table entry is its key and its bucket; the tables hold one
// per live key (DESIGN §16).
const _: () = assert!(std::mem::size_of::<(MatchKey, Bucket<Waiting>)>() <= 48);
const _: () = assert!(std::mem::size_of::<(MatchKey, Bucket<Unexpected>)>() <= 88);

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
        let &(ctx, src, tag) = key;
        let packed = u64::from(ctx) ^ (src as u64).rotate_left(21) ^ u64::from(tag).rotate_left(42);
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

/// One matching bucket. The single-entry case stays inline — no heap
/// allocation for steady-state one-in-one-out traffic; a bucket spills
/// to a deque only while two or more entries with the same key are
/// queued simultaneously.
#[derive(Debug)]
enum Bucket<T> {
    /// Exactly one queued entry, stored inline.
    One(u64, T),
    /// Spilled: two or more entries arrived before the first drained.
    /// May transiently hold one entry after a pop; never left empty in
    /// the map.
    Many(VecDeque<(u64, T)>),
}

impl<T> Bucket<T> {
    fn front_stamp(&self) -> Option<u64> {
        match self {
            Bucket::One(s, _) => Some(*s),
            Bucket::Many(q) => q.front().map(|&(s, _)| s),
        }
    }

    fn front(&self) -> Option<&T> {
        match self {
            Bucket::One(_, v) => Some(v),
            Bucket::Many(q) => q.front().map(|(_, v)| v),
        }
    }
}

/// Append to a bucket in stamp order, spilling `One` → `Many` through
/// the recycled-deque pool when a second simultaneous entry arrives.
fn bucket_push<T>(
    map: &mut FastMap<MatchKey, Bucket<T>>,
    pool: &mut Vec<VecDeque<(u64, T)>>,
    key: MatchKey,
    stamp: u64,
    val: T,
) {
    match map.entry(key) {
        Entry::Vacant(e) => {
            e.insert(Bucket::One(stamp, val));
        }
        Entry::Occupied(mut e) => match e.get_mut() {
            Bucket::Many(q) => q.push_back((stamp, val)),
            one => {
                let mut q = pool.pop().unwrap_or_default();
                debug_assert!(q.is_empty(), "pooled spill deque must arrive drained");
                // `one` is `Bucket::One` in this arm; the temporary
                // empty `Many` never escapes (overwritten below).
                if let Bucket::One(s0, v0) = std::mem::replace(one, Bucket::Many(VecDeque::new())) {
                    q.push_back((s0, v0));
                }
                q.push_back((stamp, val));
                *one = Bucket::Many(q);
            }
        },
    }
}

/// Pop a bucket's front entry, removing the bucket the moment it drains
/// (upholding the "every present bucket is non-empty" invariant the
/// wildcard sweep relies on) and recycling spill deques through `pool`.
fn bucket_pop_front<T>(
    map: &mut FastMap<MatchKey, Bucket<T>>,
    pool: &mut Vec<VecDeque<(u64, T)>>,
    key: MatchKey,
) -> Option<(u64, T)> {
    let Entry::Occupied(mut e) = map.entry(key) else {
        return None;
    };
    if let Bucket::Many(q) = e.get_mut() {
        let out = q.pop_front();
        if q.is_empty() {
            if let (Bucket::Many(q), true) = (e.remove(), pool.len() < DEQUE_POOL_MAX) {
                pool.push(q);
            }
        }
        out
    } else if let Bucket::One(s, v) = e.remove() {
        Some((s, v))
    } else {
        // Unreachable: the entry is either `Many` (first branch) or
        // `One` (second); `?`-style degradation instead of a panic.
        None
    }
}

/// Per-rank matching engine.
///
/// Both bucket tables start empty and grow to the rank's live key set
/// during warm-up (a rank that never receives holds no table at all),
/// keep their single-entry buckets inline, and drop drained buckets
/// immediately (spill deques recycle through small pools), so
/// steady-state matching performs no heap allocation; per-side counts
/// and the unexpected-side [`KeyFilter`] short-circuit probes on empty or
/// non-matching state before any map access.
#[derive(Debug)]
pub struct MatchingEngine {
    assemblies: FastMap<(usize, u64), Assembly>,
    /// Arrived messages no posted receive wanted, bucketed by match key;
    /// entries carry their arrival stamp. Invariant: every bucket
    /// present is non-empty.
    unexpected: FastMap<MatchKey, Bucket<Unexpected>>,
    unexpected_count: usize,
    unexpected_filter: KeyFilter,
    spare_msg_deques: Vec<VecDeque<(u64, Unexpected)>>,
    /// Fully-specified posted receives, bucketed by match key. Same
    /// non-empty invariant as `unexpected`.
    posted_exact: FastMap<MatchKey, Bucket<Waiting>>,
    posted_exact_count: usize,
    spare_recv_deques: Vec<VecDeque<(u64, Waiting)>>,
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
            unexpected: FastMap::default(),
            unexpected_count: 0,
            unexpected_filter: KeyFilter::default(),
            spare_msg_deques: Vec::new(),
            posted_exact: FastMap::default(),
            posted_exact_count: 0,
            spare_recv_deques: Vec::new(),
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

    /// Try to match an arrived message against the posted-receive queue
    /// (FIFO in post order). On a hit the posted receive is consumed.
    pub fn take_matching_posted(&mut self, msg: &ArrivedMsg) -> Option<PostedRecv> {
        let have_exact = self.posted_exact_count != 0;
        let have_wild = !self.posted_wild.is_empty();
        if !have_exact && !have_wild {
            return None;
        }
        let key = (msg.ctx, msg.src, msg.tag);
        // The count check above already proved the side non-empty; the
        // map probe itself is the cheapest definitive membership test
        // (an extra filter pass would hash the key a second time).
        let exact = if have_exact {
            self.posted_exact.get(&key).and_then(|b| b.front_stamp())
        } else {
            None
        };
        let wild = if have_wild {
            self.posted_wild
                .iter()
                .enumerate()
                .find(|(_, (_, p))| p.matches(msg.src, msg.ctx, msg.tag))
                .map(|(i, &(s, _))| (i, s))
        } else {
            None
        };
        let take_exact = match (exact, wild) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(es), Some((_, ws))) => es < ws,
        };
        // The selected side was probed non-empty above, so these lookups
        // always succeed; `?` keeps unwrap/expect off the hot path.
        if take_exact {
            let (_, w) =
                bucket_pop_front(&mut self.posted_exact, &mut self.spare_recv_deques, key)?;
            self.note_posted_exact_removed();
            Some(w.into_recv(key))
        } else {
            let (i, _) = wild?;
            let (_, p) = self.posted_wild.remove(i)?;
            Some(p)
        }
    }

    fn note_posted_exact_removed(&mut self) {
        self.posted_exact_count -= 1;
    }

    fn note_unexpected_removed(&mut self) {
        self.unexpected_count -= 1;
        if self.unexpected_count == 0 {
            self.unexpected_filter.clear();
        }
    }

    /// Queue an arrived message no posted receive wanted.
    pub fn push_unexpected(&mut self, msg: ArrivedMsg) {
        let s = self.next_stamp();
        let key = (msg.ctx, msg.src, msg.tag);
        self.unexpected_filter.insert(&key);
        bucket_push(
            &mut self.unexpected,
            &mut self.spare_msg_deques,
            key,
            s,
            Unexpected::of(msg),
        );
        self.unexpected_count += 1;
    }

    /// Pop the front of one unexpected bucket; `None` when no such
    /// bucket exists (the map probe is the membership test — callers
    /// may pass speculative keys).
    fn pop_unexpected(&mut self, key: MatchKey) -> Option<ArrivedMsg> {
        let (_, m) = bucket_pop_front(&mut self.unexpected, &mut self.spare_msg_deques, key)?;
        self.note_unexpected_removed();
        Some(m.into_msg(key))
    }

    /// First unexpected match for a (possibly wildcarded) receive:
    /// bucket front for a concrete key, min-stamp sweep over bucket
    /// fronts otherwise. Empty or filter-missing state returns in a
    /// couple of loads without touching the map.
    fn find_unexpected(&self, p: &PostedRecv) -> Option<MatchKey> {
        if self.unexpected_count == 0 {
            return None;
        }
        if let (Some(src), Some(tag)) = (p.src, p.tag) {
            let key = (p.ctx, src, tag);
            if !self.unexpected_filter.may_contain(&key) {
                return None;
            }
            // Present implies non-empty (buckets are removed on drain).
            return self.unexpected.contains_key(&key).then_some(key);
        }
        self.unexpected
            .iter()
            .filter(|(&(ctx, src, tag), _)| p.matches(src, ctx, tag))
            .filter_map(|(k, b)| b.front_stamp().map(|s| (s, *k)))
            .min_by_key(|&(s, _)| s)
            .map(|(_, k)| k)
    }

    /// Post a receive. Returns the unexpected message it matches, if one
    /// already arrived (FIFO in arrival order); otherwise the receive is
    /// queued.
    pub fn post_recv(&mut self, p: PostedRecv) -> Option<ArrivedMsg> {
        match (p.src, p.tag) {
            (Some(src), Some(tag)) => {
                // Concrete key: go straight for the bucket pop rather
                // than through `find_unexpected` — probing existence
                // first would hash and walk the same bucket twice; a pop
                // miss is just as definitive and no more expensive.
                let key = (p.ctx, src, tag);
                if self.unexpected_count != 0 {
                    if let Some(m) = self.pop_unexpected(key) {
                        return Some(m);
                    }
                }
                let s = self.next_stamp();
                let waiting = Waiting {
                    rreq: p.rreq,
                    posted_at: p.posted_at,
                };
                bucket_push(
                    &mut self.posted_exact,
                    &mut self.spare_recv_deques,
                    key,
                    s,
                    waiting,
                );
                self.posted_exact_count += 1;
            }
            _ => {
                if let Some(key) = self.find_unexpected(&p) {
                    return self.pop_unexpected(key);
                }
                let s = self.next_stamp();
                self.posted_wild.push_back((s, p));
            }
        }
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
        let key = self.find_unexpected(&probe)?;
        let front = self.unexpected.get(&key)?.front()?;
        Some(front.clone().into_msg(key))
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
        let mut hit = None;
        for (k, b) in self.posted_exact.iter_mut() {
            match b {
                Bucket::One(_, p) if p.rreq == rreq => {
                    hit = Some((*k, true));
                    break;
                }
                Bucket::Many(q) => {
                    if let Some(i) = q.iter().position(|(_, p)| p.rreq == rreq) {
                        q.remove(i);
                        hit = Some((*k, q.is_empty()));
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some((k, drained)) = hit else {
            return false;
        };
        if drained {
            if let Some(Bucket::Many(q)) = self.posted_exact.remove(&k) {
                if self.spare_recv_deques.len() < DEQUE_POOL_MAX {
                    self.spare_recv_deques.push(q);
                }
            }
        }
        self.note_posted_exact_removed();
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
        assert_eq!(e.unexpected.len(), 1);
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
        assert_eq!(e.unexpected.len(), 0);
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
        assert_eq!(e.unexpected.len(), 8);
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
                e.unexpected.len(),
                8 - src - 1,
                "bucket must vanish the moment it drains"
            );
        }
        assert_eq!(e.unexpected_filter.bits, [0, 0], "filter resets on empty");
    }

    #[test]
    fn key_filter_miss_is_definitive_and_clear_resets() {
        let mut f = KeyFilter::default();
        let a = (0u32, 1usize, 7u32);
        let b = (1u32, 2usize, 9u32);
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
