//! Order-preserving oblivious compaction of packed `(target << 32) | payload`
//! words.
//!
//! Input: a prefix `buf[0..len]` whose **real** words — those whose high
//! half `t` is below `bound` — carry their destination `t` in that high
//! half, appear with targets `0, 1, …, r − 1` in position order, and each
//! sit at a position `p ∈ [t, t + max_shift]`; every other word up to the
//! last real one equals `fill`. Output: every real word at position `t`,
//! the slots they vacated holding `fill`, every other word in place.
//! (Algorithm 4's fold leaves exactly this layout: one survivor per index
//! `j < d`, in index order, between dummy cells.)
//!
//! Each real word's remaining shift `p − t` is read from the word itself,
//! and the shift is applied one bit per level, LSB first
//! (`s = 1, 2, 4, …, ≤ max_shift`). After the levels below `s`, a word with
//! target `t` and total shift `δ` sits at `t + ⌊δ/s⌋·s`; targets increase by
//! one and positions by at least one, so shifts never decrease in position
//! order and no two real words ever share a slot. Hence each level is a
//! pure in-place map, swept in ascending `i`:
//!
//! ```text
//! new[i] = moves(i + s) ? old[i + s] : (moves(i) ? fill : old[i])
//! ```
//!
//! where `moves(i)` is "`old[i]` is real and bit `s` of `i − t` is set" (and
//! `old[i + s]` counts as `fill` past `len`). A level costs `len` selects
//! against the `(len/2)·log₂ len` comparators per stage of a sorting
//! network, and the whole compaction `len·⌈log₂(max_shift + 1)⌉`.
//!
//! The trace is a function of `(len, max_shift)` only: per level one
//! [`Tracer::touch_compact_span`] block event for the positions with a
//! partner (`read i, read i + s, write i`) and one
//! [`Tracer::touch_rw_stripe`] for the last `s` positions (`read i,
//! write i`) — exactly the per-element sequence of the scalar reference,
//! which `OLIVE_SORT_KERNEL=scalar` selects. The batched kernel is a
//! branchless mask-select sweep over fixed-size stack windows with the
//! same AVX2/AVX-512 dispatch as [`crate::meta_scan`].

use olive_memsim::{Tracer, TrackedBuf};

use crate::meta_scan::{isa_dispatch, kernel_monos};
use crate::sort_kernel::{sort_kernel, SortKernel};

/// Positions per stack window of the batched level sweep.
const WIN: usize = 64;

/// All-ones when the word at `i` is real and moves by `s` at this level.
#[inline(always)]
fn move_mask(w: u64, i: u64, s: u64, bound: u64) -> u64 {
    let t = w >> 32;
    let real = t < bound;
    let bit = (i.wrapping_sub(t) & s) != 0;
    ((real & bit) as u64).wrapping_neg()
}

/// One position of a level: `a = old[i]`, `b = old[i + s]` (or `fill`).
#[inline(always)]
fn route(a: u64, b: u64, i: u64, s: u64, bound: u64, fill: u64) -> u64 {
    let ma = move_mask(a, i, s, bound);
    let mb = move_mask(b, i + s, s, bound);
    let stay = (a & !ma) | (fill & ma);
    (b & mb) | (stay & !mb)
}

/// One level of the batched sweep over `v` (the whole window `[0, len)`).
#[inline(always)]
fn level_body(v: &mut [u64], s: usize, bound: u32, fill: u64) {
    let split = v.len().saturating_sub(s);
    let (s64, b64) = (s as u64, bound as u64);
    let mut i0 = 0;
    // Both operand windows are read before the output window is written,
    // and every earlier write lies below `i0`, so each window sees only
    // old values whatever `s` is.
    while i0 + WIN <= split {
        let mut a = [0u64; WIN];
        let mut b = [0u64; WIN];
        a.copy_from_slice(&v[i0..i0 + WIN]);
        b.copy_from_slice(&v[i0 + s..i0 + s + WIN]);
        for t in 0..WIN {
            a[t] = route(a[t], b[t], (i0 + t) as u64, s64, b64, fill);
        }
        v[i0..i0 + WIN].copy_from_slice(&a);
        i0 += WIN;
    }
    for i in i0..split {
        v[i] = route(v[i], v[i + s], i as u64, s64, b64, fill);
    }
    for (i, w) in v.iter_mut().enumerate().skip(split) {
        *w = route(*w, fill, i as u64, s64, b64, fill);
    }
}

kernel_monos!(
    level_body,
    level_portable,
    level_avx2,
    level_avx512,
    fn(v: &mut [u64], s: usize, bound: u32, fill: u64) -> ()
);

/// The scalar reference level: one traced read/read/write per position.
fn level_scalar<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    len: usize,
    s: usize,
    bound: u32,
    fill: u64,
    tr: &mut TR,
) {
    let (s64, b64) = (s as u64, bound as u64);
    for i in 0..len {
        let a = buf.read(i, tr);
        let b = if i + s < len { buf.read(i + s, tr) } else { fill };
        buf.write(i, route(a, b, i as u64, s64, b64, fill), tr);
    }
}

/// Compacts `buf[0..len]` (layout in the module docs) with the
/// process-default kernel.
pub fn ocompact_u64<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    len: usize,
    max_shift: usize,
    bound: u32,
    fill: u64,
    tr: &mut TR,
) {
    ocompact_u64_with(buf, len, max_shift, bound, fill, sort_kernel(), tr)
}

/// [`ocompact_u64`] with an explicit kernel. Both kernels produce
/// bitwise-identical outputs and digest-identical traces.
pub(crate) fn ocompact_u64_with<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    len: usize,
    max_shift: usize,
    bound: u32,
    fill: u64,
    kernel: SortKernel,
    tr: &mut TR,
) {
    assert!(len <= buf.len(), "compaction window {len} exceeds the buffer");
    assert!(fill >> 32 >= bound as u64, "the fill word must not be real");
    let (region, eb) = (buf.region(), core::mem::size_of::<u64>() as u32);
    let mut s = 1usize;
    while s <= max_shift {
        match kernel {
            SortKernel::Scalar => level_scalar(buf, len, s, bound, fill, tr),
            SortKernel::Batched => {
                let split = len.saturating_sub(s);
                tr.touch_compact_span(region, eb, s as u64, 0, split as u64);
                tr.touch_rw_stripe(region, eb, split as u64, 1, (len - split) as u64);
                let v = &mut buf.as_mut_slice_untraced()[..len];
                isa_dispatch!(level_portable, level_avx2, level_avx512, (v, s, bound, fill));
            }
        }
        s *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{Granularity, NullTracer, RecordingTracer};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const FILL: u64 = 0xFFFF_FFFF_0000_0000;

    /// A valid compaction input: `r` real words with targets `0..r` at
    /// random increasing positions within `len`, `fill` between them, and
    /// a few non-real non-fill words behind the last real one. Returns
    /// the words and the largest shift.
    fn layout(len: usize, r: usize, bound: u32, seed: u64) -> (Vec<u64>, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut v = vec![FILL; len];
        let mut p = 0usize;
        let mut max_shift = 0;
        for t in 0..r {
            // Leave room for the remaining r − t − 1 reals.
            let hi = len - (r - t);
            p = rng.gen_range(p..=hi.min(p + 40));
            v[p] = ((t as u64) << 32) | rng.gen::<u32>() as u64;
            max_shift = max_shift.max(p - t);
            p += 1;
        }
        for w in v.iter_mut().skip(p) {
            let target = match rng.gen_range(0..8u32) {
                0 => bound, // the first target that is not real
                1 => rng.gen_range(bound..=u32::MAX),
                _ => continue,
            };
            *w = ((target as u64) << 32) | rng.gen::<u32>() as u64;
        }
        (v, max_shift)
    }

    /// The naive model: a stable filter of the real words to the front,
    /// `fill` where they were, everything else in place.
    fn naive(v: &[u64], bound: u32) -> Vec<u64> {
        let real = |w: &u64| (w >> 32) < bound as u64;
        let mut out: Vec<u64> = v.iter().map(|&w| if real(&w) { FILL } else { w }).collect();
        for (dst, &w) in out.iter_mut().zip(v.iter().filter(|w| real(w))) {
            *dst = w;
        }
        out
    }

    fn shapes() -> impl Iterator<Item = (usize, usize, u64)> {
        [(1usize, 1usize), (7, 3), (64, 20), (200, 130), (1000, 10), (1000, 999), (4096, 1500)]
            .into_iter()
            .flat_map(|(len, r)| (0..3u64).map(move |seed| (len, r, seed)))
    }

    #[test]
    fn both_kernels_match_naive_stable_filter() {
        for (len, r, seed) in shapes() {
            let bound = r as u32;
            let (v, max_shift) = layout(len, r, bound, seed);
            let expected = naive(&v, bound);
            for kernel in [SortKernel::Scalar, SortKernel::Batched] {
                let mut buf = TrackedBuf::new(0, v.clone());
                ocompact_u64_with(&mut buf, len, max_shift, bound, FILL, kernel, &mut NullTracer);
                assert_eq!(buf.into_inner(), expected, "{kernel:?} len={len} r={r} seed={seed}");
            }
        }
    }

    /// Every monomorphization the host can run, called directly — the
    /// process dispatch only ever exercises the widest one.
    #[test]
    fn every_detected_monomorphization_matches_naive_stable_filter() {
        type Level = fn(&mut [u64], usize, u32, u64);
        let mut monos: Vec<(&str, Level)> = vec![("portable", level_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just detected.
                monos.push(("avx2", |v, s, b, f| unsafe { level_avx2(v, s, b, f) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was just detected.
                monos.push(("avx512", |v, s, b, f| unsafe { level_avx512(v, s, b, f) }));
            }
        }
        for (name, level) in monos {
            for (len, r, seed) in shapes() {
                let bound = r as u32;
                let (mut v, max_shift) = layout(len, r, bound, seed);
                let expected = naive(&v, bound);
                let mut s = 1;
                while s <= max_shift {
                    level(&mut v, s, bound, FILL);
                    s *= 2;
                }
                assert_eq!(v, expected, "{name} len={len} r={r} seed={seed}");
            }
        }
    }

    #[test]
    fn digests_equal_across_kernels_and_depend_on_shape_only() {
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let digest = |v: Vec<u64>, kernel: SortKernel, max_shift: usize| {
                let len = v.len();
                let mut tr = RecordingTracer::new(granularity);
                let mut buf = TrackedBuf::new(3, v);
                ocompact_u64_with(&mut buf, len, max_shift, 150, FILL, kernel, &mut tr);
                tr.digest()
            };
            let (a, _) = layout(300, 150, 150, 1);
            let (b, _) = layout(300, 150, 150, 2);
            let reference = digest(a.clone(), SortKernel::Scalar, 150);
            assert_eq!(digest(a, SortKernel::Batched, 150), reference, "{granularity:?}");
            assert_eq!(digest(b, SortKernel::Batched, 150), reference, "{granularity:?}");
        }
    }

    #[test]
    fn trace_counts_one_read_pair_and_write_per_position_per_level() {
        let (v, _) = layout(100, 40, 40, 5);
        let mut tr = RecordingTracer::new(Granularity::Element);
        let mut buf = TrackedBuf::new(0, v);
        ocompact_u64_with(&mut buf, 100, 60, 40, FILL, SortKernel::Batched, &mut tr);
        // Levels s = 1, 2, 4, 8, 16, 32: 100 writes each; two reads per
        // position except the last s, which have no partner.
        let levels = [1u64, 2, 4, 8, 16, 32];
        assert_eq!(tr.stats().writes, 100 * levels.len() as u64);
        assert_eq!(tr.stats().reads, levels.iter().map(|s| 200 - s).sum::<u64>());
    }
}
