//! MPI datatypes, their wire codecs and the reduction operators.
//!
//! [`MpiData`] is the fixed-size plain-old-data contract the typed API is
//! generic over; [`ReduceOp`] provides the predefined elementwise
//! reduction operators used by `reduce`/`allreduce`.
//!
//! This is the per-byte path of every typed call, so each codec touches
//! a payload byte once: [`to_bytes`] and [`from_bytes`] are bulk
//! conversions (a copy on little-endian hosts), [`reduce_from_bytes`]
//! combines straight off the wire without decoding into a temporary,
//! [`reduce_images`] folds two wire images into whichever of them this
//! rank now holds alone, and nothing here zero-fills memory it is about
//! to overwrite.
//!
//! Large images also do not go back to the allocator once drained: they
//! wait in the worker's [`spare`] list for the next image to be written,
//! which [`to_bytes`] draws from.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;

/// A fixed-size plain-old-data element that can cross the wire.
///
/// Implementations must be bit-pattern round-trippable: `from_le_bytes ∘
/// to_le_bytes = id`. Provided for all primitive integers and floats.
pub trait MpiData: Copy + Send + Sync + 'static {
    /// Serialized size in bytes.
    const SIZE: usize;
    /// The element whose wire image is all zero bytes.
    const ZERO: Self;
    /// Append the little-endian wire image of `items` to `out`.
    fn encode(items: impl Iterator<Item = Self>, out: &mut Vec<u8>);
    /// The elements `wire` holds, front to back; a trailing partial
    /// element is not yielded (callers check lengths first).
    fn decode(wire: &[u8]) -> impl Iterator<Item = Self> + '_;
    /// Replace every element `x` of the wire image `acc` by `f(x, y)`,
    /// `y` being the element at the same place in `other`; elements past
    /// the shorter image are left alone.
    fn fold_in_place(acc: &mut [u8], other: &[u8], f: impl FnMut(Self, Self) -> Self);
}

macro_rules! impl_mpi_data {
    ($($t:ty),*) => {$(
        impl MpiData for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const ZERO: $t = <$t>::from_le_bytes([0; std::mem::size_of::<$t>()]);
            #[inline]
            fn encode(items: impl Iterator<Item = $t>, out: &mut Vec<u8>) {
                // Over a slice (or a zip of slices) this is an exact-size
                // iterator of arrays: one reservation, then a straight
                // copy.
                out.extend(items.flat_map(|x| x.to_le_bytes()));
            }
            #[inline]
            fn decode(wire: &[u8]) -> impl Iterator<Item = $t> + '_ {
                let (elements, _) = wire.as_chunks::<{ std::mem::size_of::<$t>() }>();
                elements.iter().map(|e| <$t>::from_le_bytes(*e))
            }
            #[inline]
            fn fold_in_place(acc: &mut [u8], other: &[u8], mut f: impl FnMut($t, $t) -> $t) {
                const N: usize = std::mem::size_of::<$t>();
                let (acc, _) = acc.as_chunks_mut::<N>();
                let (other, _) = other.as_chunks::<N>();
                for (a, o) in acc.iter_mut().zip(other) {
                    *a = f(<$t>::from_le_bytes(*a), <$t>::from_le_bytes(*o)).to_le_bytes();
                }
            }
        }
    )*};
}

impl_mpi_data!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize, f32, f64);

/// Serialize a slice of elements to bytes.
pub fn to_bytes<T: MpiData>(data: &[T]) -> Bytes {
    let mut out = spare::take(data.len() * T::SIZE);
    T::encode(data.iter().copied(), &mut out);
    Bytes::from(out)
}

/// `len` elements of the zero bit pattern.
///
/// Collectives use this to seed output buffers: unlike `vec![data[0]; len]`
/// it is well-defined for zero-count inputs (MPI permits zero counts, and
/// `data[0]` on an empty slice panics even when `len` is 0).
pub fn zeroed<T: MpiData>(len: usize) -> Vec<T> {
    vec![T::ZERO; len]
}

/// An MPI type-mismatch abort unless `wire` holds exactly `len` elements.
#[inline]
fn check_len<T: MpiData>(wire: &[u8], len: usize) {
    assert_eq!(
        wire.len(),
        len * T::SIZE,
        "datatype mismatch: {} bytes for {} elements of {} bytes",
        wire.len(),
        len,
        T::SIZE
    );
}

/// Deserialize bytes into a slice of elements.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of `T::SIZE` or the element
/// count differs from `out.len()` (an MPI type-mismatch abort).
pub fn from_bytes<T: MpiData>(bytes: &[u8], out: &mut [T]) {
    check_len::<T>(bytes, out.len());
    for (slot, x) in out.iter_mut().zip(T::decode(bytes)) {
        *slot = x;
    }
}

/// Deserialize bytes onto the end of `out`, which the caller sized with
/// `Vec::with_capacity`: the way to fill a buffer front to back without
/// zero-filling it first.
///
/// # Panics
/// Panics unless `bytes` holds exactly `len` elements.
pub fn extend_from_bytes<T: MpiData>(bytes: &[u8], len: usize, out: &mut Vec<T>) {
    check_len::<T>(bytes, len);
    out.extend(T::decode(bytes));
}

/// Deserialize bytes into a fresh vector of `len` elements.
///
/// # Panics
/// Panics unless `bytes` holds exactly `len` elements.
pub fn vec_from_bytes<T: MpiData>(bytes: &[u8], len: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    extend_from_bytes(bytes, len, &mut out);
    out
}

/// Decode a wire image into a fresh vector of `len` elements, then hand
/// the image to the [`spare`] list: the end of an accumulator that lived
/// as its image.
///
/// # Panics
/// Panics unless `image` holds exactly `len` elements.
pub(crate) fn decoded<T: MpiData>(image: Bytes, len: usize) -> Vec<T> {
    let out = vec_from_bytes(&image, len);
    spare::give(image);
    out
}

/// Predefined reduction operators (the subset the paper's workloads use).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Bitwise or (integers; for floats, defined over the bit pattern of
    /// `max` — callers should use integer types).
    BOr,
    /// Bitwise and (integers).
    BAnd,
}

/// Element-level reduction semantics, implemented per type.
pub trait Reducible: MpiData {
    /// Combine two elements under `op`.
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_reducible_int {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            #[inline]
            fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::BOr => a | b,
                    ReduceOp::BAnd => a & b,
                }
            }
        }
    )*};
}

impl_reducible_int!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

macro_rules! impl_reducible_float {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            #[inline]
            fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Prod => a * b,
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                    // Bitwise ops are not defined for floats in MPI either.
                    ReduceOp::BOr | ReduceOp::BAnd => {
                        panic!("bitwise reduction on floating-point data")
                    }
                }
            }
        }
    )*};
}

impl_reducible_float!(f32, f64);

/// Run `$body` once with `$f` bound to `$op`'s element function. The
/// `match` sits outside whatever loop `$body` runs, and every arm
/// inlines `T::reduce` with a constant operator, so the loop is compiled
/// once per operator with no branch per element.
macro_rules! with_op {
    ($op:expr, |$f:ident| $body:expr) => {{
        macro_rules! arm {
            ($o:ident) => {{
                let $f = |a, b| T::reduce(ReduceOp::$o, a, b);
                $body
            }};
        }
        match $op {
            ReduceOp::Sum => arm!(Sum),
            ReduceOp::Prod => arm!(Prod),
            ReduceOp::Max => arm!(Max),
            ReduceOp::Min => arm!(Min),
            ReduceOp::BOr => arm!(BOr),
            ReduceOp::BAnd => arm!(BAnd),
        }
    }};
}

/// Decode and reduce in one pass: `acc[i] = acc[i] op wire[i]`, with no
/// temporary holding the decoded elements. Every [`ReduceOp`] is
/// commutative — for floats up to what the language leaves unspecified
/// anyway, the payload of a NaN made from two NaNs and the sign of
/// `max(+0, -0)` — so callers that think `wire op acc` use this too.
///
/// # Panics
/// Panics unless `wire` holds exactly `acc.len()` elements (an MPI
/// type-mismatch abort).
pub fn reduce_from_bytes<T: Reducible>(op: ReduceOp, acc: &mut [T], wire: &[u8]) {
    check_len::<T>(wire, acc.len());
    with_op!(op, |f| for (a, w) in acc.iter_mut().zip(T::decode(wire)) {
        *a = f(*a, w);
    })
}

/// Reduce two wire images into one: the image of `a[i] op b[i]`, one
/// pass over both and nothing decoded in between. A recursive-doubling
/// round sends one image and receives the other, so keeping the
/// accumulator *as* its image makes this the round's only pass.
///
/// The result is written over whichever image this rank now holds
/// alone — the received `b` first, else `a` — and when that is `b`, `a`
/// is handed to the [`spare`] list. Only when both are still shared (a peer
/// has not yet dropped its handle) is a third image drawn. Each element
/// is `f(a[i], b[i])` whichever buffer it lands in, so the result is the
/// same bit for bit whichever it is.
///
/// # Panics
/// Panics unless `a` and `b` hold the same whole number of elements.
pub fn reduce_images<T: Reducible>(op: ReduceOp, a: Bytes, b: Bytes) -> Bytes {
    assert!(
        a.len() == b.len() && a.len().is_multiple_of(T::SIZE),
        "datatype mismatch: {} and {} bytes of {}-byte elements",
        a.len(),
        b.len(),
        T::SIZE
    );
    let image = match b.try_into_vec() {
        Ok(mut image) => {
            with_op!(op, |f| T::fold_in_place(&mut image, &a, |y, x| f(x, y)));
            spare::give(a);
            image
        }
        Err(b) => match a.try_into_vec() {
            Ok(mut image) => {
                with_op!(op, |f| T::fold_in_place(&mut image, &b, f));
                image
            }
            Err(a) => {
                let mut out = spare::take(a.len());
                let pairs = T::decode(&a).zip(T::decode(&b));
                with_op!(op, |f| T::encode(pairs.map(|(x, y)| f(x, y)), &mut out));
                out
            }
        },
    };
    Bytes::from(image)
}

/// Drained wire images kept for the next image this worker writes.
///
/// Every round of a large collective used to write its image into a
/// fresh 16–256 KiB vector and free the one before; the allocator then
/// trimmed that memory and faulted it back in on the next round. Images
/// of at least [`SPARE_MIN`] bytes that have been drained come back here
/// instead ([`give`]): the image [`reduce_images`] did not write into,
/// recursive doubling's last image, the two-level alltoall's bundles and
/// the payload of a typed receive. [`take`] hands out the smallest kept
/// buffer that fits, to [`to_bytes`], the frame writer, the two-level
/// alltoall's image and multi-chunk eager assembly. Rabenseifner's
/// halves are drawn but not given back: its rounds run at the job's
/// memory peak, and a list refilled there is memory the peak keeps.
///
/// One list per worker thread, like the mailbox's node pantry: a rank
/// fiber gives and takes on whatever worker runs it, with no lock, and
/// the list holds at most [`SPARE_MAX`] bytes of capacity, freed when
/// the worker exits. Contents are never read: a drawn buffer comes back
/// empty and is written before it is sent. Disabled under the model
/// checker, like the pantry: every buffer goes straight back to the
/// allocator there.
pub(crate) mod spare {
    use bytes::Bytes;
    #[cfg(not(cmpi_model))]
    use std::cell::RefCell;

    /// The smallest capacity worth keeping: below it the allocator's own
    /// bins recycle the memory without trimming it.
    #[cfg_attr(cmpi_model, allow(dead_code))]
    pub(crate) const SPARE_MIN: usize = 16 << 10;
    /// Bytes of capacity one worker's list may hold.
    #[cfg_attr(cmpi_model, allow(dead_code))]
    pub(crate) const SPARE_MAX: usize = 1 << 20;

    #[cfg(not(cmpi_model))]
    struct List {
        bufs: Vec<Vec<u8>>,
        /// Sum of the kept buffers' capacities.
        bytes: usize,
    }

    #[cfg(not(cmpi_model))]
    thread_local! {
        static SPARE: RefCell<List> = const { RefCell::new(List { bufs: Vec::new(), bytes: 0 }) };
    }

    /// An empty vector with room for `len` bytes: the best-fitting kept
    /// buffer when `len` is at least [`SPARE_MIN`] and one fits, else a
    /// fresh allocation. Inlined, so a small image pays one compare.
    #[inline]
    pub(crate) fn take(len: usize) -> Vec<u8> {
        #[cfg(not(cmpi_model))]
        if len >= SPARE_MIN {
            if let Some(buf) = best_fit(len) {
                return buf;
            }
        }
        Vec::with_capacity(len)
    }

    /// Remove and empty the smallest kept buffer with room for `len`.
    #[cfg(not(cmpi_model))]
    fn best_fit(len: usize) -> Option<Vec<u8>> {
        SPARE.with_borrow_mut(|l| {
            let best = (l.bufs.iter().enumerate())
                .filter(|(_, b)| b.capacity() >= len)
                .min_by_key(|(_, b)| b.capacity())?
                .0;
            let mut buf = l.bufs.swap_remove(best);
            l.bytes -= buf.capacity();
            buf.clear();
            Some(buf)
        })
    }

    /// Keep `image`'s buffer if this handle is its only owner, it holds
    /// at least [`SPARE_MIN`] bytes and the list has room for it;
    /// otherwise just drop the handle.
    pub(crate) fn give(image: Bytes) {
        #[cfg(not(cmpi_model))]
        if let Ok(buf) = image.try_into_vec() {
            let cap = buf.capacity();
            if cap >= SPARE_MIN {
                SPARE.with_borrow_mut(|l| {
                    if l.bytes + cap <= SPARE_MAX {
                        l.bytes += cap;
                        l.bufs.push(buf);
                    }
                });
            }
        }
        #[cfg(cmpi_model)]
        drop(image);
    }

    /// (buffers, bytes of capacity) this worker's list holds.
    #[cfg(all(test, not(cmpi_model)))]
    pub(crate) fn held() -> (usize, usize) {
        SPARE.with_borrow(|l| (l.bufs.len(), l.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let xs = [1u64, u64::MAX, 42, 0];
        let b = to_bytes(&xs);
        let mut out = [0u64; 4];
        from_bytes(&b, &mut out);
        assert_eq!(out, xs);

        let fs = [1.5f64, -0.0, f64::INFINITY, 1e-300];
        let b = to_bytes(&fs);
        let mut out = [0f64; 4];
        from_bytes(&b, &mut out);
        assert_eq!(out.map(|f| f.to_bits()), fs.map(|f| f.to_bits()));
    }

    #[test]
    #[should_panic(expected = "datatype mismatch")]
    fn length_mismatch_panics() {
        let b = to_bytes(&[1u32, 2]);
        let mut out = [0u32; 3];
        from_bytes(&b, &mut out);
    }

    #[test]
    fn integer_reductions() {
        assert_eq!(u32::reduce(ReduceOp::Sum, 2, 3), 5);
        assert_eq!(u32::reduce(ReduceOp::Prod, 2, 3), 6);
        assert_eq!(i32::reduce(ReduceOp::Max, -2, 3), 3);
        assert_eq!(i32::reduce(ReduceOp::Min, -2, 3), -2);
        assert_eq!(u8::reduce(ReduceOp::BOr, 0b0101, 0b0011), 0b0111);
        assert_eq!(u8::reduce(ReduceOp::BAnd, 0b0101, 0b0011), 0b0001);
        // Wrapping semantics keep reductions total.
        assert_eq!(u8::reduce(ReduceOp::Sum, 255, 1), 0);
    }

    #[test]
    fn float_reductions() {
        assert_eq!(f64::reduce(ReduceOp::Sum, 1.5, 2.5), 4.0);
        assert_eq!(f64::reduce(ReduceOp::Max, 1.5, 2.5), 2.5);
    }

    #[test]
    #[should_panic(expected = "bitwise reduction")]
    fn float_bitwise_panics() {
        f64::reduce(ReduceOp::BOr, 1.0, 2.0);
    }

    #[test]
    fn zero_is_the_all_zero_pattern_and_zero_counts_are_fine() {
        assert_eq!(f64::ZERO.to_bits(), 0);
        assert_eq!(f32::ZERO.to_bits(), 0);
        assert_eq!((i8::ZERO, u64::ZERO, isize::ZERO), (0, 0, 0));
        assert_eq!(zeroed::<f64>(3), [0.0; 3]);
        assert!(zeroed::<u16>(0).is_empty());
        assert!(to_bytes::<u32>(&[]).is_empty());
        assert!(vec_from_bytes::<f32>(&[], 0).is_empty());
        reduce_from_bytes::<i64>(ReduceOp::Sum, &mut [], &[]);
    }

    #[test]
    #[should_panic(expected = "datatype mismatch")]
    fn fused_reduce_length_mismatch_panics() {
        reduce_from_bytes(ReduceOp::Sum, &mut [0u32; 3], &to_bytes(&[1u32, 2]));
    }

    #[test]
    #[should_panic(expected = "datatype mismatch")]
    fn wire_to_wire_reduce_length_mismatch_panics() {
        reduce_images::<u16>(
            ReduceOp::Max,
            Bytes::from(vec![0; 4]),
            Bytes::from(vec![0; 6]),
        );
    }

    #[test]
    #[should_panic(expected = "datatype mismatch")]
    fn partial_trailing_element_panics() {
        vec_from_bytes::<u32>(&[0u8; 7], 1);
    }

    #[test]
    #[should_panic(expected = "bitwise reduction")]
    fn fused_float_bitwise_panics() {
        reduce_from_bytes(ReduceOp::BAnd, &mut [1.0f32], &to_bytes(&[2.0f32]));
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    const INT_OPS: [ReduceOp; 6] = [
        ReduceOp::Sum,
        ReduceOp::Prod,
        ReduceOp::Max,
        ReduceOp::Min,
        ReduceOp::BOr,
        ReduceOp::BAnd,
    ];
    const FLOAT_OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];

    /// Who holds an input image alone when the fold runs.
    #[derive(Clone, Copy, Debug)]
    enum Owner {
        /// The received image (`b`); this rank's own is still shared.
        Received,
        /// This rank's own image (`a`); the received one is still shared.
        Own,
        /// Neither: a held clone keeps each one shared.
        Neither,
        /// Both: the received image is the one written.
        Both,
    }
    const OWNERS: [Owner; 4] = [Owner::Received, Owner::Own, Owner::Neither, Owner::Both];

    /// [`reduce_images`] of the images `a` and `b` with the ownership
    /// `who`, checked to land in the buffer that ownership allows.
    fn fold_as<T: Reducible>(op: ReduceOp, a: &[u8], b: &[u8], who: Owner) -> Bytes {
        let (a, b) = (Bytes::copy_from_slice(a), Bytes::copy_from_slice(b));
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let held = match who {
            Owner::Received => vec![a.clone()],
            Owner::Own => vec![b.clone()],
            Owner::Neither => vec![a.clone(), b.clone()],
            Owner::Both => vec![],
        };
        let out = reduce_images::<T>(op, a, b);
        if !out.is_empty() {
            let landed = out.as_ptr();
            match who {
                Owner::Received | Owner::Both => {
                    assert_eq!(landed, pb, "not folded into the received image")
                }
                Owner::Own => assert_eq!(landed, pa, "not folded into the own image"),
                Owner::Neither => assert!(landed != pa && landed != pb, "wrote a shared image"),
            }
        }
        drop(held);
        out
    }

    /// Check every bulk codec of `$t` against the per-element codec it
    /// replaced (one bounds-checked `to_le_bytes`/`from_le_bytes` per
    /// element, decode into a temporary, then reduce), on `$len`
    /// elements of arbitrary bit patterns — for floats that means NaNs
    /// with payloads, infinities and both zeros. Codecs are compared by
    /// wire image, i.e. `to_bits`; reductions by `$same`, because which
    /// NaN payload `NaN + NaN` keeps and which zero `max(+0, -0)` returns
    /// is unspecified and does differ between a scalar and a vector loop.
    macro_rules! check_against_reference {
        ($t:ty, $ops:expr, $special:expr, $same:expr, $seed:expr, $len:expr) => {{
            const S: usize = std::mem::size_of::<$t>();
            let mut rng: u64 = $seed ^ S as u64;
            let special: &[$t] = &$special;
            let mut draw = |n: usize| -> Vec<$t> {
                (0..n)
                    .map(|_| {
                        let bits = splitmix(&mut rng);
                        if !special.is_empty() && bits % 4 == 0 {
                            special[(bits >> 8) as usize % special.len()]
                        } else {
                            let mut le = [0u8; S];
                            le.copy_from_slice(&bits.to_le_bytes()[..S]);
                            <$t>::from_le_bytes(le)
                        }
                    })
                    .collect()
            };
            let image = |v: &[$t]| -> Vec<u8> {
                let mut out = Vec::new();
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                out
            };
            let name = stringify!($t);
            let data = draw($len);
            let wire = to_bytes(&data);
            assert_eq!(&wire[..], &image(&data)[..], "to_bytes::<{name}>");
            let mut slots = draw($len);
            from_bytes(&wire, &mut slots);
            assert_eq!(image(&slots), wire, "from_bytes::<{name}>");
            let fresh: Vec<$t> = vec_from_bytes(&wire, $len);
            assert_eq!(image(&fresh), wire, "vec_from_bytes::<{name}>");
            let mut grown: Vec<$t> = Vec::with_capacity(2 * $len);
            extend_from_bytes(&wire, $len, &mut grown);
            extend_from_bytes(&wire, $len, &mut grown);
            assert_eq!(image(&grown), [&wire[..], &wire[..]].concat());
            let same = |a: &[$t], b: &[$t]| a.len() == b.len() && a.iter().zip(b).all($same);
            for op in $ops {
                let start = draw($len);
                let expected: Vec<$t> = (0..$len)
                    .map(|i| {
                        let w = <$t>::from_le_bytes(wire[i * S..(i + 1) * S].try_into().unwrap());
                        <$t>::reduce(op, start[i], w)
                    })
                    .collect();
                let mut acc = start.clone();
                reduce_from_bytes(op, &mut acc, &wire);
                assert!(
                    same(&acc, &expected),
                    "reduce_from_bytes {op:?} over {name}: {acc:?} != {expected:?}"
                );
                for who in OWNERS {
                    let folded = fold_as::<$t>(op, &to_bytes(&start), &wire, who);
                    let acc: Vec<$t> = vec_from_bytes(&folded, $len);
                    assert!(
                        same(&acc, &expected),
                        "reduce_images {op:?} over {name}, {who:?}: {acc:?} != {expected:?}"
                    );
                }
            }
        }};
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// 12 types × their operators; lengths 0, 1 and everything up to
        /// past two 256-bit vectors of the widest type, so every vector
        /// loop runs with and without a remainder.
        #[test]
        fn bulk_codecs_equal_the_per_element_reference(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..70,
        ) {
            check_against_reference!(u8, INT_OPS, [], |(a, b)| a == b, seed, len);
            check_against_reference!(i8, INT_OPS, [i8::MIN, -1], |(a, b)| a == b, seed, len);
            check_against_reference!(u16, INT_OPS, [], |(a, b)| a == b, seed, len);
            check_against_reference!(i16, INT_OPS, [i16::MIN, -1], |(a, b)| a == b, seed, len);
            check_against_reference!(u32, INT_OPS, [u32::MAX], |(a, b)| a == b, seed, len);
            check_against_reference!(i32, INT_OPS, [i32::MIN, -1], |(a, b)| a == b, seed, len);
            check_against_reference!(u64, INT_OPS, [u64::MAX], |(a, b)| a == b, seed, len);
            check_against_reference!(i64, INT_OPS, [i64::MIN, -1], |(a, b)| a == b, seed, len);
            check_against_reference!(usize, INT_OPS, [usize::MAX], |(a, b)| a == b, seed, len);
            check_against_reference!(isize, INT_OPS, [isize::MIN, -1], |(a, b)| a == b, seed, len);
            check_against_reference!(
                f32,
                FLOAT_OPS,
                [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.5, f32::MIN_POSITIVE],
                |(a, b)| a == b || (a.is_nan() && b.is_nan()),
                seed,
                len
            );
            check_against_reference!(
                f64,
                FLOAT_OPS,
                [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.5, f64::MIN_POSITIVE],
                |(a, b)| a == b || (a.is_nan() && b.is_nan()),
                seed,
                len
            );
        }

        /// The owning fold against an inline scalar fold, bit for bit, in
        /// every ownership case: every integer operator, and the float
        /// arithmetic ones on non-NaN floats (integers divided by 8, so
        /// no operand is `-0.0` and `max`/`min` never meet a signed-zero
        /// tie).
        #[test]
        fn owning_fold_equals_the_scalar_fold_bitwise(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..70,
        ) {
            macro_rules! check {
                ($t:ty, $ops:expr, $from:expr) => {{
                    let mut rng = seed ^ std::mem::size_of::<$t>() as u64;
                    let mut draw = || -> Vec<$t> {
                        (0..len).map(|_| $from(splitmix(&mut rng))).collect()
                    };
                    let (a, b) = (draw(), draw());
                    for op in $ops {
                        let mut expected = Vec::new();
                        for (x, y) in a.iter().zip(&b) {
                            expected.extend_from_slice(&<$t>::reduce(op, *x, *y).to_le_bytes());
                        }
                        for who in OWNERS {
                            let got = fold_as::<$t>(op, &to_bytes(&a), &to_bytes(&b), who);
                            assert_eq!(
                                &got[..],
                                &expected[..],
                                "{op:?} over {}, {who:?}",
                                stringify!($t)
                            );
                        }
                    }
                }};
            }
            check!(u8, INT_OPS, |r: u64| r as u8);
            check!(i32, INT_OPS, |r: u64| r as i32);
            check!(u64, INT_OPS, |r: u64| r);
            check!(f32, FLOAT_OPS, |r: u64| (r as i16) as f32 / 8.0);
            check!(f64, FLOAT_OPS, |r: u64| (r as i32) as f64 / 8.0);
        }
    }

    #[cfg(not(cmpi_model))]
    proptest::proptest! {
        /// The spare list never holds more than its byte cap, keeps only
        /// buffers of at least its floor, never keeps one that is still
        /// shared, and hands back the best fit.
        #[test]
        fn spare_list_is_capped_and_keeps_only_sole_owners(
            sizes in proptest::collection::vec(0usize..(400 << 10), 1..40),
        ) {
            use spare::{give, held, take, SPARE_MAX, SPARE_MIN};
            // Start from an empty list: draw out whatever an earlier
            // case on this thread left behind.
            while held().0 > 0 {
                drop(take(SPARE_MIN));
            }
            for (i, &len) in sizes.iter().enumerate() {
                let image = Bytes::from(vec![0u8; len]);
                let before = held();
                match i % 3 {
                    0 => {
                        let clone = image.clone();
                        give(image);
                        assert_eq!(held(), before, "kept a shared buffer");
                        drop(clone);
                    }
                    1 => {
                        give(image.slice(..len / 2));
                        assert_eq!(held(), before, "kept a sub-slice");
                    }
                    _ => {
                        give(image);
                        let kept = len >= SPARE_MIN && before.1 + len <= SPARE_MAX;
                        let after = if kept { (before.0 + 1, before.1 + len) } else { before };
                        assert_eq!(held(), after);
                    }
                }
                assert!(held().1 <= SPARE_MAX);
            }
            let (count, bytes) = held();
            if count > 0 {
                let want = SPARE_MIN;
                let buf = take(want);
                assert!(buf.is_empty() && buf.capacity() >= want);
                assert_eq!(held(), (count - 1, bytes - buf.capacity()));
                // Best fit: nothing left fits tighter.
                while held().0 > 0 {
                    assert!(take(want).capacity() >= buf.capacity());
                }
            }
            // Below the floor the list is never consulted.
            give(Bytes::from(vec![0u8; SPARE_MIN]));
            assert_eq!(take(SPARE_MIN - 1).capacity(), SPARE_MIN - 1);
            assert_eq!(held().0, 1);
        }
    }
}
