//! Channel-layer packets and their HCA wire encoding.
//!
//! Intra-host channels (SHM/CMA) deliver [`Packet`] values directly
//! through the receiving rank's mailbox, and so does every revocation
//! notice, whatever channel the pair would route on. The HCA channel
//! moves bytes, so the five protocol kinds that cross it (eager, RTS,
//! CTS, rendezvous data, FIN) are framed with [`Packet::encode_parts`] and
//! re-assembled with [`Packet::decode_parts`] — the immediate value
//! carries the protocol discriminant exactly like MVAPICH2 uses IB
//! immediate data. The frame is split: the fixed-size header travels in
//! a stack [`WireHeader`] (the WQE's inline segment) while the payload
//! rides as a reference-counted [`Bytes`] handle, so neither framing nor
//! unframing copies or allocates for the payload.

use bytes::{BufMut, Bytes};
use cmpi_cluster::{Channel, SimTime};

/// Request identifier, unique within the issuing rank.
pub type ReqId = u64;

/// Protocol message kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// One chunk of an eager message. `offset..offset+len` of `total`
    /// bytes; a single-chunk message has `offset == 0 && len == total`.
    Eager {
        /// Communicator context id.
        ctx: u32,
        /// User tag.
        tag: u32,
        /// Per-(sender→receiver) sequence number, identifies the message
        /// across chunks.
        seq: u64,
        /// Total message length in bytes.
        total: u64,
        /// This chunk's offset.
        offset: u64,
    },
    /// Rendezvous request-to-send: announces a large message.
    Rts {
        /// Communicator context id.
        ctx: u32,
        /// User tag.
        tag: u32,
        /// Per-pair sequence number.
        seq: u64,
        /// Announced message length.
        size: u64,
        /// Sender's request id (echoed in Cts/Fin).
        sreq: ReqId,
    },
    /// Rendezvous clear-to-send: the receiver matched the Rts.
    Cts {
        /// Sender request being released.
        sreq: ReqId,
        /// Receiver request to address the data to.
        rreq: ReqId,
    },
    /// The rendezvous payload.
    RndvData {
        /// Receiver request this payload satisfies.
        rreq: ReqId,
    },
    /// Rendezvous completion notification back to the sender.
    Fin {
        /// Sender request now complete.
        sreq: ReqId,
    },
    /// Communicator revocation notice (ULFM `MPI_Comm_revoke`): a member
    /// observed a process failure and tells every other member, so each
    /// fails fast instead of deadlocking on a dead collective. The
    /// originator pushes it straight into each member's mailbox; it has
    /// no HCA framing.
    Revoke {
        /// Context id of the revoked communicator.
        ctx: u32,
    },
}

/// A channel-layer message.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Sending rank.
    pub src: usize,
    /// Channel the packet travelled on (for statistics and cost
    /// attribution at the receiver).
    pub channel: Channel,
    /// Virtual time at which the packet is observable by the receiver.
    pub available_at: SimTime,
    /// Protocol discriminant and header fields.
    pub kind: PacketKind,
    /// Payload (empty for control packets).
    pub data: Bytes,
}

const K_EAGER: u32 = 1;
const K_RTS: u32 = 2;
const K_CTS: u32 = 3;
const K_RNDV: u32 = 4;
const K_FIN: u32 = 5;

/// Largest encoded header across all [`PacketKind`]s (Eager/Rts: 32
/// bytes).
pub const WIRE_HEADER_MAX: usize = 32;

/// The fixed-size encoded header of an HCA frame, held on the stack —
/// the simulator analogue of posting protocol framing through the WQE's
/// inline segment instead of a registered buffer. Building and shipping
/// one never touches the heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireHeader {
    buf: [u8; WIRE_HEADER_MAX],
    len: u8,
}

impl WireHeader {
    /// Copy raw header bytes back into the stack buffer (receive side).
    ///
    /// # Panics
    /// Panics if `bytes` exceeds [`WIRE_HEADER_MAX`] — a corrupt frame.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut h = WireHeader::default();
        h.put_slice(bytes);
        h
    }

    /// The encoded header bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the header is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl BufMut for WireHeader {
    fn put_slice(&mut self, src: &[u8]) {
        let at = self.len as usize;
        self.buf[at..at + src.len()].copy_from_slice(src);
        self.len += src.len() as u8;
    }
}

fn u32_at(b: &[u8], o: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[o..o + 4]);
    u32::from_le_bytes(w)
}

fn u64_at(b: &[u8], o: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[o..o + 8]);
    u64::from_le_bytes(w)
}

/// Parse a [`PacketKind`] out of encoded header bytes.
fn parse_kind(imm: u32, b: &[u8]) -> PacketKind {
    match imm {
        K_EAGER => PacketKind::Eager {
            ctx: u32_at(b, 0),
            tag: u32_at(b, 4),
            seq: u64_at(b, 8),
            total: u64_at(b, 16),
            offset: u64_at(b, 24),
        },
        K_RTS => PacketKind::Rts {
            ctx: u32_at(b, 0),
            tag: u32_at(b, 4),
            seq: u64_at(b, 8),
            size: u64_at(b, 16),
            sreq: u64_at(b, 24),
        },
        K_CTS => PacketKind::Cts {
            sreq: u64_at(b, 0),
            rreq: u64_at(b, 8),
        },
        K_RNDV => PacketKind::RndvData { rreq: u64_at(b, 0) },
        K_FIN => PacketKind::Fin { sreq: u64_at(b, 0) },
        other => panic!("corrupt HCA frame: unknown kind {other}"),
    }
}

impl Packet {
    /// Frame the packet for the HCA channel without touching the heap:
    /// `(imm, header, payload)`. The header lives on the stack and the
    /// payload handle shares the packet's allocation (refcount bump, no
    /// copy).
    ///
    /// # Panics
    /// Panics on a revocation notice, which never crosses the HCA.
    pub fn encode_parts(&self) -> (u32, WireHeader, Bytes) {
        let mut hdr = WireHeader::default();
        let imm = match self.kind {
            PacketKind::Eager {
                ctx,
                tag,
                seq,
                total,
                offset,
            } => {
                hdr.put_u32_le(ctx);
                hdr.put_u32_le(tag);
                hdr.put_u64_le(seq);
                hdr.put_u64_le(total);
                hdr.put_u64_le(offset);
                K_EAGER
            }
            PacketKind::Rts {
                ctx,
                tag,
                seq,
                size,
                sreq,
            } => {
                hdr.put_u32_le(ctx);
                hdr.put_u32_le(tag);
                hdr.put_u64_le(seq);
                hdr.put_u64_le(size);
                hdr.put_u64_le(sreq);
                K_RTS
            }
            PacketKind::Cts { sreq, rreq } => {
                hdr.put_u64_le(sreq);
                hdr.put_u64_le(rreq);
                K_CTS
            }
            PacketKind::RndvData { rreq } => {
                hdr.put_u64_le(rreq);
                K_RNDV
            }
            PacketKind::Fin { sreq } => {
                hdr.put_u64_le(sreq);
                K_FIN
            }
            PacketKind::Revoke { .. } => {
                unreachable!("revocation notices are pushed into mailboxes, never framed")
            }
        };
        (imm, hdr, self.data.clone())
    }

    /// Reconstruct a packet from split HCA framing. The payload handle is
    /// adopted whole — no copy, and (unlike a sub-slice of a contiguous
    /// frame) it stays recyclable by the receiver's slab pool.
    pub fn decode_parts(
        src: usize,
        imm: u32,
        hdr: &[u8],
        payload: Bytes,
        available_at: SimTime,
    ) -> Packet {
        Packet {
            src,
            channel: Channel::Hca,
            available_at,
            kind: parse_kind(imm, hdr),
            data: payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: PacketKind, payload: &[u8]) {
        let p = Packet {
            src: 3,
            channel: Channel::Hca,
            available_at: SimTime::from_us(9),
            kind,
            data: Bytes::copy_from_slice(payload),
        };
        let (imm, hdr, body) = p.encode_parts();
        let q = Packet::decode_parts(3, imm, hdr.as_slice(), body, SimTime::from_us(9));
        assert_eq!(q.kind, p.kind);
        assert_eq!(q.data, p.data);
        assert_eq!(q.src, 3);
        assert_eq!(q.available_at, p.available_at);
    }

    #[test]
    fn eager_roundtrip() {
        roundtrip(
            PacketKind::Eager {
                ctx: 7,
                tag: 42,
                seq: 99,
                total: 5,
                offset: 0,
            },
            b"hello",
        );
    }

    #[test]
    fn eager_chunk_roundtrip() {
        roundtrip(
            PacketKind::Eager {
                ctx: 1,
                tag: 2,
                seq: 3,
                total: 1 << 20,
                offset: 8192,
            },
            &[0xabu8; 4096],
        );
    }

    #[test]
    fn rts_roundtrip() {
        roundtrip(
            PacketKind::Rts {
                ctx: 1,
                tag: u32::MAX,
                seq: 7,
                size: 1 << 30,
                sreq: 55,
            },
            b"",
        );
    }

    #[test]
    fn control_roundtrips() {
        roundtrip(PacketKind::Cts { sreq: 1, rreq: 2 }, b"");
        roundtrip(PacketKind::Fin { sreq: u64::MAX }, b"");
        roundtrip(PacketKind::RndvData { rreq: 77 }, b"payload bytes");
    }

    #[test]
    #[should_panic(expected = "corrupt HCA frame")]
    fn unknown_kind_panics() {
        Packet::decode_parts(0, 200, &[], Bytes::new(), SimTime::ZERO);
    }

    #[test]
    fn split_framing_hands_the_payload_through_whole() {
        let payload = Bytes::from(vec![0x5au8; 1024]);
        let p = Packet {
            src: 4,
            channel: Channel::Hca,
            available_at: SimTime::from_us(3),
            kind: PacketKind::Eager {
                ctx: 2,
                tag: 17,
                seq: 8,
                total: 1024,
                offset: 0,
            },
            data: payload.clone(),
        };
        let (imm, hdr, body) = p.encode_parts();
        assert_eq!(
            hdr.len(),
            32,
            "eager header is ctx, tag, seq, total, offset"
        );
        let q = Packet::decode_parts(4, imm, hdr.as_slice(), body, SimTime::from_us(3));
        assert_eq!(q.kind, p.kind);
        assert_eq!(q.data, p.data);
        // The split payload is the sender's own allocation (shared), not
        // a copy: dropping the other handles makes it recyclable whole.
        drop((p, payload));
        assert!(
            q.data.try_into_vec().is_ok(),
            "split payload must stay whole-allocation"
        );
    }

    #[test]
    fn wire_header_round_trips_through_from_slice() {
        let p = Packet {
            src: 0,
            channel: Channel::Hca,
            available_at: SimTime::ZERO,
            kind: PacketKind::Cts { sreq: 9, rreq: 11 },
            data: Bytes::new(),
        };
        let (imm, hdr, _) = p.encode_parts();
        let copied = WireHeader::from_slice(hdr.as_slice());
        assert_eq!(copied, hdr);
        assert_eq!(parse_header(imm, copied.as_slice()), p.kind);
    }

    fn parse_header(imm: u32, b: &[u8]) -> PacketKind {
        super::parse_kind(imm, b)
    }
}
