//! The per-rank request table: where a non-blocking operation that is
//! still pending lives from `isend` / `irecv` until the call that
//! completes or fails it.
//!
//! Only receives and rendezvous sends take a slot. A send whose buffer is
//! reusable as soon as it is posted (SHM eager, HCA eager, a send to
//! self) is complete then, so its handle carries the completion itself
//! ([`Req::Sent`]: the time and the context), as MPICH's lightweight
//! requests do; `wait` and `test` on it settle exactly as on a finished
//! slot, and a handle `test` has answered reads [`Req::Spent`] after.
//!
//! The table is a slab with a free list. A [`ReqId`] packs the slot
//! index (low 32 bits) under the slot's generation (high 32 bits, from
//! 1), and freeing a slot bumps its generation: a handle kept past
//! completion, an id the table never issued and a late wire packet all
//! read as "not here" instead of aliasing whoever holds the slot now.
//! Protocol steps change a request's state in place through
//! [`RequestTable::get_mut`]; nothing on the message path hashes.
//!
//! A request that fails while a wire packet can still name it (a send
//! awaiting its CTS or FIN, a receive awaiting its payload) leaves a
//! [`Slot::Cancelled`] tombstone behind, written only by `Mpi::cancel`
//! and consumed by the one late packet that finds it
//! ([`RequestTable::named_by_packet`]). A packet for anything else the
//! table does not hold is a protocol violation and panics.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use cmpi_cluster::{Channel, SimTime};

use crate::packet::ReqId;

/// State of an in-flight send.
#[derive(Debug)]
pub(crate) enum SendState {
    /// Rendezvous announced; payload parked until the CTS arrives.
    AwaitCts {
        /// Parked payload.
        data: Bytes,
        /// Destination rank.
        dst: usize,
        /// Channel the rendezvous runs on.
        channel: Channel,
        /// Communicator context (classifies the wait state).
        ctx: u32,
    },
    /// Payload dispatched; waiting for the receiver's FIN.
    AwaitFin {
        /// Destination rank (consulted when a death must fail the send).
        dst: usize,
        /// Communicator context.
        ctx: u32,
        /// When the receiver's CTS became observable here — everything up
        /// to this point was late-receiver time, not transfer.
        cts_at: SimTime,
    },
    /// FIN received: complete as of `t`.
    Done {
        /// Completion time.
        t: SimTime,
        /// Communicator context (classifies the wait state).
        ctx: u32,
        /// When the CTS was observed: splits a blocked `wait` into
        /// late-receiver vs. transfer.
        cts_at: SimTime,
    },
}

/// State of an in-flight receive.
#[derive(Debug)]
pub(crate) enum RecvState {
    /// Posted, nothing matched yet.
    Posted {
        /// Expected source (`None` = wildcard). A wildcard receive fails
        /// when *any* member of its context is convicted dead — the ULFM
        /// "failed process pending" analog.
        src: Option<usize>,
        /// Communicator context.
        ctx: u32,
    },
    /// Matched an RTS and sent the CTS; waiting for the payload.
    AwaitData {
        /// Sender rank.
        src: usize,
        /// Matched tag.
        tag: u32,
        /// Sender's request id (echoed in the FIN).
        sreq: ReqId,
        /// Rendezvous channel.
        channel: Channel,
        /// Announced size.
        size: usize,
        /// Communicator context.
        ctx: u32,
        /// Flow id (derived, both ends agree; see [`crate::trace::flow_id`]).
        flow: u64,
        /// When the sender's RTS arrived — the late-sender boundary.
        rts_at: SimTime,
    },
    /// Complete: payload and status available. The status is rebuilt at
    /// completion (its length is the payload's), and the source rank is
    /// held as a `u32`, so a slot stays within 64 bytes.
    Done {
        /// Received payload.
        data: Bytes,
        /// Sender rank.
        src: u32,
        /// Matched tag.
        tag: u32,
        /// Completion time.
        t: SimTime,
        /// When the message (eager payload / RTS) arrived at this rank —
        /// blocked time before this point is the partner's fault, after
        /// it the channel's.
        arrived: SimTime,
        /// Communicator context (classifies the wait state).
        ctx: u32,
        /// Flow id for the trace arrow.
        flow: u64,
    },
}

/// What a live slot holds.
#[derive(Debug)]
pub(crate) enum Slot {
    Send(SendState),
    Recv(RecvState),
    /// Tombstone of a request that failed mid-rendezvous.
    Cancelled,
}

// Every pending request holds one; a rank of the benchmark's mixed body
// keeps 16 (DESIGN §16).
const _: () = assert!(std::mem::size_of::<Slot>() <= 64);

/// What a request handle names.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Req {
    /// A slot of the rank's [`RequestTable`].
    Slot(ReqId),
    /// A send that was complete when posted: done at `t`, on context
    /// `ctx`. It holds no slot.
    Sent {
        /// Completion time.
        t: SimTime,
        /// Communicator context (classifies the wait state).
        ctx: u32,
    },
    /// A `Sent` handle that `test` has answered: using it again is the
    /// same error as using a freed slot's id.
    Spent,
}

// Every request handle is one (the benchmark's mixed body holds 32).
const _: () = assert!(std::mem::size_of::<Req>() <= 16);

impl Slot {
    /// Whether the request has finished and only waits to be collected.
    pub(crate) fn is_done(&self) -> bool {
        matches!(
            self,
            Slot::Send(SendState::Done { .. }) | Slot::Recv(RecvState::Done { .. })
        )
    }
}

struct Entry {
    gen: u32,
    /// `None` while the slot sits on the free list.
    slot: Option<Slot>,
}

/// One rank's requests. See the module documentation.
#[derive(Default)]
pub(crate) struct RequestTable {
    entries: Vec<Entry>,
    free: Vec<u32>,
}

impl RequestTable {
    /// Store `slot` and return its id.
    #[inline]
    pub(crate) fn alloc(&mut self, slot: Slot) -> ReqId {
        let index = self.free.pop().unwrap_or_else(|| {
            self.entries.push(Entry { gen: 1, slot: None });
            (self.entries.len() - 1) as u32
        });
        let entry = &mut self.entries[index as usize];
        entry.slot = Some(slot);
        ReqId::from(entry.gen) << 32 | ReqId::from(index)
    }

    /// The entry `id` names: `None` for an id never issued or since freed
    /// (freeing bumps the generation, so a match implies a held slot).
    #[inline]
    fn entry(&mut self, id: ReqId) -> Option<&mut Entry> {
        let entry = self.entries.get_mut(id as u32 as usize)?;
        (ReqId::from(entry.gen) == id >> 32).then_some(entry)
    }

    /// What `id` holds, if the table holds it.
    #[inline]
    pub(crate) fn get(&self, id: ReqId) -> Option<&Slot> {
        let entry = self.entries.get(id as u32 as usize)?;
        (ReqId::from(entry.gen) == id >> 32).then_some(entry.slot.as_ref()?)
    }

    /// The state of in-flight request `id`, to change in place.
    ///
    /// # Panics
    /// Panics with `unknown request {id}` if the table does not hold it.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: ReqId) -> &mut Slot {
        match self.entry(id).and_then(|entry| entry.slot.as_mut()) {
            Some(slot) => slot,
            None => panic!("unknown request {id}"),
        }
    }

    /// Drop request `id` and free its slot; the id is dead from here on.
    ///
    /// # Panics
    /// Panics with `unknown request {id}` if the table does not hold it.
    #[inline]
    pub(crate) fn remove(&mut self, id: ReqId) {
        let Some(entry) = self.entry(id) else {
            panic!("unknown request {id}")
        };
        entry.gen = entry.gen.wrapping_add(1).max(1);
        entry.slot = None;
        self.free.push(id as u32);
    }

    /// The request a protocol packet names, for its handler to advance —
    /// or `None` when the packet is late: the request completed in error
    /// and its tombstone is consumed here.
    ///
    /// # Panics
    /// Panics with `unknown` if the table holds nothing under `id`.
    pub(crate) fn named_by_packet(&mut self, id: ReqId, unknown: &str) -> Option<&mut Slot> {
        match self.get(id) {
            Some(Slot::Cancelled) => {
                self.remove(id);
                None
            }
            Some(_) => Some(self.get_mut(id)),
            None => panic!("{unknown}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn posted(ctx: u32) -> Slot {
        Slot::Recv(RecvState::Posted { src: None, ctx })
    }

    fn ctx_of(slot: Option<&Slot>) -> Option<u32> {
        match slot {
            Some(Slot::Recv(RecvState::Posted { ctx, .. })) => Some(*ctx),
            _ => None,
        }
    }

    #[test]
    fn reuse_after_remove_bumps_the_generation_and_rejects_the_old_id() {
        let mut t = RequestTable::default();
        let a = t.alloc(posted(1));
        assert_eq!(ctx_of(t.get(a)), Some(1));
        t.remove(a);
        let b = t.alloc(posted(2));
        assert_eq!(a as u32, b as u32, "the freed slot is reused");
        assert_ne!(a, b);
        assert!(t.get(a).is_none());
        assert_eq!(ctx_of(t.get(b)), Some(2));
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn removing_a_stale_id_panics() {
        let mut t = RequestTable::default();
        let a = t.alloc(posted(1));
        t.remove(a);
        t.alloc(posted(2));
        t.remove(a);
    }

    #[test]
    #[should_panic(expected = "CTS for unknown send request")]
    fn a_packet_for_an_id_never_issued_panics() {
        RequestTable::default().named_by_packet(55, "CTS for unknown send request");
    }

    #[test]
    #[should_panic(expected = "FIN for unknown send request")]
    fn a_tombstone_is_consumed_exactly_once() {
        let mut t = RequestTable::default();
        let a = t.alloc(posted(1));
        *t.get_mut(a) = Slot::Cancelled;
        assert!(t.named_by_packet(a, "first").is_none());
        t.named_by_packet(a, "FIN for unknown send request");
    }

    #[test]
    fn a_tombstone_is_never_handed_out_by_the_free_list() {
        let mut t = RequestTable::default();
        let dead = t.alloc(posted(1));
        let live = t.alloc(posted(2));
        *t.get_mut(dead) = Slot::Cancelled;
        t.remove(live);
        for k in 0..8 {
            let id = t.alloc(posted(k));
            assert_ne!(id as u32, dead as u32, "tombstone slot reused");
        }
        assert!(matches!(t.get(dead), Some(Slot::Cancelled)));
    }

    proptest! {
        /// Any alloc / transition / cancel / late-packet / remove sequence
        /// observes what a map of live requests and a set of tombstones
        /// would, and no id is ever issued twice.
        #[test]
        fn behaves_like_a_map_and_a_tombstone_set(
            ops in proptest::collection::vec((0u8..5, any::<usize>(), any::<u32>()), 0..300),
        ) {
            let mut table = RequestTable::default();
            let mut live: HashMap<u64, u32> = HashMap::new();
            let mut cancelled: HashSet<u64> = HashSet::new();
            let mut issued: Vec<u64> = Vec::new();
            for (kind, pick, v) in ops {
                if kind == 0 || issued.is_empty() {
                    let id = table.alloc(posted(v));
                    prop_assert!(!issued.contains(&id), "id {} issued twice", id);
                    issued.push(id);
                    live.insert(id, v);
                    continue;
                }
                let id = issued[pick % issued.len()];
                match kind {
                    // Transition in place.
                    1 => {
                        if live.contains_key(&id) {
                            *table.get_mut(id) = posted(v);
                            live.insert(id, v);
                        }
                    }
                    // Fail mid-rendezvous.
                    2 => {
                        if live.remove(&id).is_some() {
                            *table.get_mut(id) = Slot::Cancelled;
                            cancelled.insert(id);
                        }
                    }
                    // A packet arrives for a request that is, or once was, in flight.
                    3 => {
                        if live.contains_key(&id) {
                            prop_assert_eq!(ctx_of(table.named_by_packet(id, "x").as_deref()), live.get(&id).copied());
                        } else if cancelled.remove(&id) {
                            prop_assert!(table.named_by_packet(id, "x").is_none());
                        }
                    }
                    // Complete.
                    _ => {
                        if live.remove(&id).is_some() {
                            table.remove(id);
                        }
                    }
                }
                for &id in &issued {
                    match table.get(id) {
                        Some(Slot::Cancelled) => prop_assert!(cancelled.contains(&id)),
                        other => prop_assert_eq!(ctx_of(other), live.get(&id).copied()),
                    }
                    prop_assert_eq!(table.get(id).is_some(), live.contains_key(&id) || cancelled.contains(&id));
                }
            }
        }
    }
}
