//! The one codec for keyed multi-part collective payloads.
//!
//! Tree and leader-staged collectives ship several ranks' blocks in one
//! message: a *bundle* is a concatenation of frames, each
//! `[key: u32 LE][len: u32 LE][len payload bytes]`. Because a bundle is
//! nothing but its frames back to back, two bundles concatenate into a
//! bundle and any run of whole frames is one — which is what lets a tree
//! node forward a received bundle ([`FrameWriter::append`]) or a
//! `Bytes::slice` of one without re-encoding it.
//!
//! [`FrameWriter`] is sized exactly up front and encodes typed slices
//! straight from the caller's buffer; [`frames`] borrows from the
//! received bytes and reports a torn bundle as
//! [`MpiError::CorruptBundle`] instead of a slice panic.

use bytes::Bytes;

use crate::datatype::{spare, MpiData};
use crate::error::MpiError;

/// Bytes of framing in front of every payload.
pub(crate) const FRAME_HEADER: usize = 8;

/// Narrow a frame field to its 32-bit wire width.
///
/// # Panics
/// Panics, naming the field, when the value does not fit: a wrapped key
/// would deliver the payload to the wrong rank and a wrapped length
/// would tear every frame behind it, both silently.
fn field(value: usize, name: &str) -> u32 {
    u32::try_from(value)
        .unwrap_or_else(|_| panic!("frame {name} {value} does not fit its 32-bit wire field"))
}

/// Builds one bundle in a buffer allocated once.
#[derive(Default)]
pub(crate) struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// A writer for `parts` frames holding `payload` bytes between them,
    /// in a buffer drawn from the worker's [`spare`] list. Frames
    /// forwarded with [`FrameWriter::append`] count wholly as payload.
    pub(crate) fn with_capacity(parts: usize, payload: usize) -> FrameWriter {
        FrameWriter {
            buf: spare::take(parts * FRAME_HEADER + payload),
        }
    }

    fn header(&mut self, key: usize, len: usize) {
        self.buf.extend_from_slice(&field(key, "key").to_le_bytes());
        self.buf
            .extend_from_slice(&field(len, "length").to_le_bytes());
    }

    /// Append one frame: the wire image of `data` under `key`.
    pub(crate) fn put<T: MpiData>(&mut self, key: usize, data: &[T]) {
        self.header(key, data.len() * T::SIZE);
        T::encode(data.iter().copied(), &mut self.buf);
    }

    /// Append one frame around bytes that are already a wire image.
    pub(crate) fn put_bytes(&mut self, key: usize, wire: &[u8]) {
        self.header(key, wire.len());
        self.buf.extend_from_slice(wire);
    }

    /// Append whole frames as they are (a received bundle, forwarded).
    pub(crate) fn append(&mut self, frames: &[u8]) {
        self.buf.extend_from_slice(frames);
    }

    /// The finished bundle.
    pub(crate) fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Iterate a bundle's `(key, payload)` frames, borrowing from `data`.
/// A truncated header or a length that overruns the bundle yields
/// [`MpiError::CorruptBundle`] at the offending offset and ends the
/// iteration.
pub(crate) fn frames(data: &[u8]) -> Frames<'_> {
    Frames { data, off: 0 }
}

/// [`frames`] for bundles that must be intact (frames this library
/// produced itself); panics with the structured diagnostic.
pub(crate) fn frames_ok<'a>(
    data: &'a [u8],
    what: &'a str,
) -> impl Iterator<Item = (usize, &'a [u8])> + 'a {
    frames(data).map(move |f| f.unwrap_or_else(|e| panic!("{what}: {e}")))
}

/// The borrowing frame reader; see [`frames`].
pub(crate) struct Frames<'a> {
    data: &'a [u8],
    off: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<(usize, &'a [u8]), MpiError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (at, total) = (self.off, self.data.len());
        let rest = &self.data[at..];
        if rest.is_empty() {
            return None;
        }
        // `Err` carries the offset at which the bundle stops making sense.
        let frame = rest.split_first_chunk::<FRAME_HEADER>().ok_or(at).and_then(
            |(&[k0, k1, k2, k3, l0, l1, l2, l3], body)| {
                let key = u32::from_le_bytes([k0, k1, k2, k3]) as usize;
                let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
                let payload = body.get(..len).ok_or(at + FRAME_HEADER)?;
                Ok((key, payload))
            },
        );
        Some(match frame {
            Ok((key, payload)) => {
                self.off = at + FRAME_HEADER + payload.len();
                Ok((key, payload))
            }
            Err(offset) => {
                self.off = total;
                Err(MpiError::CorruptBundle { offset, len: total })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer this codec replaced, kept as the wire-format reference.
    fn bundle(parts: &[(usize, Bytes)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (key, data) in parts {
            out.extend_from_slice(&(*key as u32).to_le_bytes());
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(data);
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn writer_is_byte_identical_to_the_reference_on_random_parts(
            parts in proptest::collection::vec(
                (
                    proptest::prelude::any::<u32>(),
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 0..100usize),
                ),
                0..9usize,
            ),
        ) {
            let parts: Vec<(usize, Bytes)> = (parts.into_iter())
                .map(|(key, data)| (key as usize, Bytes::from(data)))
                .collect();
            let payload: usize = parts.iter().map(|(_, d)| d.len()).sum();
            let mut w = FrameWriter::with_capacity(parts.len(), payload);
            let before = w.buf.as_ptr();
            for (i, (key, data)) in parts.iter().enumerate() {
                // Alternate the two entry points; for bytes they agree.
                if i % 2 == 0 {
                    w.put_bytes(*key, data);
                } else {
                    w.put::<u8>(*key, data);
                }
            }
            assert_eq!(w.buf.as_ptr(), before, "the writer reallocated");
            let wire = w.finish();
            assert_eq!(wire, bundle(&parts));
            let read: Vec<(usize, Bytes)> = frames(&wire)
                .map(|f| f.map(|(k, p)| (k, Bytes::copy_from_slice(p))))
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(read, parts);
        }
    }

    #[test]
    fn typed_frames_carry_the_little_endian_image() {
        let mut w = FrameWriter::with_capacity(2, 12 + 8);
        w.put(3, &[0x0102_0304u32, 5, 6]);
        w.put(9, &[-1.5f64]);
        let reference = bundle(&[
            (3, crate::datatype::to_bytes(&[0x0102_0304u32, 5, 6])),
            (9, crate::datatype::to_bytes(&[-1.5f64])),
        ]);
        assert_eq!(w.finish(), reference);
    }

    #[test]
    fn appended_bundles_read_back_as_their_frames() {
        let mut inner = FrameWriter::with_capacity(2, 3);
        inner.put_bytes(1, b"ab");
        inner.put_bytes(2, b"c");
        let inner = inner.finish();
        let mut outer = FrameWriter::with_capacity(1, 1 + inner.len());
        outer.put_bytes(0, b"z");
        outer.append(&inner);
        let wire = outer.finish();
        let read: Vec<_> = frames_ok(&wire, "test").collect();
        assert_eq!(read, [(0, &b"z"[..]), (1, &b"ab"[..]), (2, &b"c"[..])]);
        // A run of whole frames is itself a bundle.
        let tail: Vec<_> = frames_ok(&wire[FRAME_HEADER + 1..], "test").collect();
        assert_eq!(tail, read[1..]);
        assert_eq!(frames(&[]).count(), 0);
    }

    #[test]
    fn reader_rejects_torn_bundles() {
        let mut w = FrameWriter::with_capacity(1, 7);
        w.put_bytes(1, b"payload");
        let whole = w.finish();
        let first_error = |data: &[u8]| frames(data).find_map(Result::err);
        // Truncated header: fewer than 8 framing bytes remain.
        assert!(matches!(
            first_error(&whole[..5]),
            Some(MpiError::CorruptBundle { offset: 0, len: 5 })
        ));
        // Truncated payload: the frame promises more bytes than exist.
        let err = first_error(&whole[..whole.len() - 2]).unwrap();
        assert!(matches!(err, MpiError::CorruptBundle { offset: 8, .. }));
        assert!(err.to_string().contains("overruns"));
        // Odd trailing garbage after a valid frame.
        let mut garbled = whole.to_vec();
        garbled.extend_from_slice(&[0xff; 3]);
        assert!(matches!(
            first_error(&garbled),
            Some(MpiError::CorruptBundle {
                offset: 15,
                len: 18
            })
        ));
        // The error ends the iteration.
        assert_eq!(frames(&garbled).count(), 2);
    }

    #[test]
    #[should_panic(expected = "frame length 4294967296 does not fit")]
    fn a_part_of_four_gib_is_refused_by_name() {
        field(1 << 32, "length");
    }

    #[test]
    #[should_panic(expected = "frame key 4294967296 does not fit")]
    fn a_key_of_a_65536_rank_alltoall_is_refused_by_name() {
        // `src * n + dst` of the last pair in a 65 536-rank job is
        // 2^32 - 1; one more rank and the first key of the last source
        // wraps to 0.
        assert_eq!(field(65_535 * 65_536 + 65_535, "key"), u32::MAX);
        field(65_536 * 65_536, "key");
    }
}
