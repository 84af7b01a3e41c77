// The Graph 500 generator with its unsafe exception on the wrong
// function: the bulk visitor allows unsafe code and calls the AVX-512
// arm itself, so the exception covers a loop and a caller's closure
// instead of one dispatch call. The `unsafe-scope` lint rule must flag
// the allow; under a crate root that still forbids unsafe code it must
// flag the `unsafe` block too.

#[allow(unsafe_code)]
pub fn for_each_edge(seed: u64, scale: u32, range: Range<u64>, mut f: impl FnMut(u64, (u64, u64))) {
    let mut buf = [(0, 0); CHUNK];
    let mut first = range.start;
    while first < range.end {
        let out = &mut buf[..(range.end - first).min(CHUNK as u64) as usize];
        // SAFETY: the features were detected once at start-up.
        unsafe { edges_into_avx512(seed, scale, first, out) };
        for (idx, &e) in (first..).zip(out.iter()) {
            f(idx, e);
        }
        first += out.len() as u64;
    }
}

pub fn edges_into(seed: u64, scale: u32, first: u64, out: &mut [(u64, u64)]) {
    edges_into_lanes::<1>(seed, scale, first, out);
}
