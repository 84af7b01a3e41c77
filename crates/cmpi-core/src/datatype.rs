//! MPI datatypes, their wire codecs and the reduction operators.
//!
//! [`MpiData`] is the fixed-size plain-old-data contract the typed API is
//! generic over; [`ReduceOp`] provides the predefined elementwise
//! reduction operators used by `reduce`/`allreduce`.
//!
//! This is the per-byte path of every typed call, so each codec touches
//! a payload byte once: [`to_bytes`] and [`from_bytes`] are bulk
//! conversions (a copy on little-endian hosts), [`reduce_from_bytes`]
//! combines straight off the wire without decoding into a temporary, and
//! nothing here zero-fills memory it is about to overwrite.

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
        }
    )*};
}

impl_mpi_data!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize, f32, f64);

/// Serialize a slice of elements to bytes.
pub fn to_bytes<T: MpiData>(data: &[T]) -> Bytes {
    let mut out = Vec::with_capacity(data.len() * T::SIZE);
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

/// Reduce `src` into `acc` elementwise: `acc[i] = acc[i] op src[i]`.
pub fn reduce_into<T: Reducible>(op: ReduceOp, acc: &mut [T], src: &[T]) {
    assert_eq!(acc.len(), src.len(), "reduction length mismatch");
    with_op!(op, |f| for (a, &s) in acc.iter_mut().zip(src) {
        *a = f(*a, s);
    })
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

/// Reduce two wire images into a third: the image of `a[i] op b[i]`,
/// one pass over both inputs and nothing decoded in between. A
/// recursive-doubling round sends one image and receives the other, so
/// keeping the accumulator *as* its image makes this the round's only
/// pass (encode-then-reduce is two).
///
/// # Panics
/// Panics unless `a` and `b` hold the same whole number of elements.
pub fn reduce_bytes<T: Reducible>(op: ReduceOp, a: &[u8], b: &[u8]) -> Bytes {
    assert!(
        a.len() == b.len() && a.len().is_multiple_of(T::SIZE),
        "datatype mismatch: {} and {} bytes of {}-byte elements",
        a.len(),
        b.len(),
        T::SIZE
    );
    let mut out = Vec::with_capacity(a.len());
    let pairs = T::decode(a).zip(T::decode(b));
    with_op!(op, |f| T::encode(pairs.map(|(x, y)| f(x, y)), &mut out));
    Bytes::from(out)
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
    fn reduce_into_elementwise() {
        let mut acc = [1u32, 2, 3];
        reduce_into(ReduceOp::Sum, &mut acc, &[10, 20, 30]);
        assert_eq!(acc, [11, 22, 33]);
        reduce_into(ReduceOp::Max, &mut acc, &[5, 100, 5]);
        assert_eq!(acc, [11, 100, 33]);
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
        reduce_bytes::<u16>(ReduceOp::Max, &[0; 4], &[0; 6]);
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
                let mut acc = start.clone();
                reduce_into(op, &mut acc, &data);
                assert!(
                    same(&acc, &expected),
                    "reduce_into {op:?} over {name}: {acc:?} != {expected:?}"
                );
                let folded = reduce_bytes::<$t>(op, &to_bytes(&start), &wire);
                let acc: Vec<$t> = vec_from_bytes(&folded, $len);
                assert!(
                    same(&acc, &expected),
                    "reduce_bytes {op:?} over {name}: {acc:?} != {expected:?}"
                );
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
    }
}
