//! Batched, SIMD-friendly bitonic sort kernels with intra-sort
//! parallelism.
//!
//! The scalar network in [`crate::sort`] dispatches four traced accesses
//! and two `key` evaluations per comparator — correct and readable, but
//! ~10× slower than `std::sort_unstable` because the per-comparator
//! bookkeeping defeats vectorization. This module rebuilds the hot path
//! around three observations:
//!
//! 1. **The trace is a closed-form function of `n`.** A sorting network
//!    touches the same addresses whatever the data (Proposition 5.2), so
//!    the kernel does not need to *derive* the trace from its loads and
//!    stores: it emits the canonical comparator schedule as block events
//!    ([`Tracer::touch_cex_span`], one event per fixed-size block of
//!    comparators) and performs the data movement separately. Recording
//!    tracers expand each block deterministically into the exact
//!    per-access sequence of the scalar network, so digests agree at
//!    every granularity — and, because the emission is independent of the
//!    physical execution, they agree at **every thread count** too.
//! 2. **Keys can be computed once.** Instead of re-evaluating the `key`
//!    closure twice per comparator per stage, the keyed kernel packs
//!    `(key, inline cell)` into one `u128` word up front and
//!    compare-exchanges whole words. Payloads ride *inside* the sorted
//!    word — an index-permutation epilogue would be a data-dependent
//!    gather (an access-pattern leak in a real enclave), so only types
//!    whose payload fits beside the key ([`InlinePayload`]) take this
//!    path; everything else keeps the scalar reference network.
//! 3. **Comparators within a stage are independent.** Each bitonic stage
//!    `(k, j)` compare-exchanges `n/2` disjoint element pairs, so the
//!    inner loop is a branchless min/max (or mask-select) sweep over
//!    contiguous runs that the compiler autovectorizes (AVX2/AVX-512
//!    monomorphizations are selected at runtime), and the comparator
//!    range splits across worker threads with one barrier per stage.
//!    Thread count never affects the output (stage results are unique
//!    regardless of intra-stage execution order) nor the trace (emitted
//!    canonically by the caller) — a strictly stronger invariant than the
//!    per-worker trace forking the grouped aggregation needs.
//!
//! Besides full sorts, the raw-`u64` entry points run two slices of the
//! same network: a sort of a power-of-two *prefix* of the buffer, and the
//! final `k = n` round alone, which sorts any bitonic input (Algorithm 4
//! sorts only its uploads and merges in the public index ramp this way).
//!
//! `OLIVE_SORT_KERNEL=scalar` forces every entry point here back onto the
//! scalar reference network for differential testing; the CI tier-1 job
//! runs the whole suite that way.

use std::sync::{Barrier, OnceLock};

use olive_memsim::{default_threads, Tracer, TrackedBuf};

use crate::primitives::Oblivious;
use crate::sort::{bitonic_rounds, bitonic_sort_pow2};

/// Comparators summarized by one block trace event (fixed, so the event
/// schedule — like the network itself — is a pure function of `n`).
const TRACE_BLOCK: u64 = 4096;

/// Below this length the per-stage barrier costs more than the stages;
/// the batched kernel runs its stages on the calling thread.
const MIN_PARALLEL_N: usize = 1 << 12;

/// Which implementation of the bitonic network runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortKernel {
    /// The readable per-comparator reference network of [`crate::sort`].
    Scalar,
    /// The batched stage kernel of this module (default).
    Batched,
}

/// Process-wide kernel selection: `OLIVE_SORT_KERNEL=scalar` pins the
/// reference network, anything else (or unset) selects the batched
/// kernel. Read once and cached; tests that need both in one process use
/// the `*_with` entry points instead.
pub fn sort_kernel() -> SortKernel {
    static KERNEL: OnceLock<SortKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| match std::env::var("OLIVE_SORT_KERNEL").as_deref() {
        Ok("scalar") => SortKernel::Scalar,
        Ok("batched") | Err(_) => SortKernel::Batched,
        Ok(other) => {
            eprintln!(
                "OLIVE_SORT_KERNEL={other:?} is not \"scalar\" or \"batched\"; using batched"
            );
            SortKernel::Batched
        }
    })
}

/// Payloads the batched keyed kernel can carry inline beside their 64-bit
/// sort key (packed `(key << 64) | payload` and compare-exchanged as one
/// `u128`). The round-trip must be lossless; the payload bits never
/// influence comparisons.
pub trait InlinePayload: Copy {
    /// Packs the payload into the low 64 bits of the sort word.
    fn to_word(self) -> u64;
    /// Recovers the payload from [`InlinePayload::to_word`]'s output.
    fn from_word(w: u64) -> Self;
}

impl InlinePayload for u64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w
    }
}

impl InlinePayload for u32 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

impl InlinePayload for i64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w as i64
    }
}

impl InlinePayload for f32 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        f32::from_bits(w as u32)
    }
}

impl InlinePayload for f64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

impl InlinePayload for (u32, u32) {
    #[inline(always)]
    fn to_word(self) -> u64 {
        ((self.0 as u64) << 32) | self.1 as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        ((w >> 32) as u32, w as u32)
    }
}

impl InlinePayload for (u32, f32) {
    #[inline(always)]
    fn to_word(self) -> u64 {
        ((self.0 as u64) << 32) | self.1.to_bits() as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        ((w >> 32) as u32, f32::from_bits(w as u32))
    }
}

// ---------------------------------------------------------------------------
// Canonical trace emission
// ---------------------------------------------------------------------------

/// Emits rounds `k = k_first … n` of an `n`-element bitonic network's
/// comparator schedule as block events (`k_first = 2` is the full sort,
/// `k_first = n` the final merge): stages in `(k, j)` order, comparators in
/// ascending order within each stage, [`TRACE_BLOCK`] comparators per
/// event. Expansion reproduces the scalar network's access sequence
/// exactly (see [`Tracer::touch_cex_span`]).
fn emit_network_trace<TR: Tracer>(
    region: u32,
    elem_bytes: u32,
    n: usize,
    k_first: usize,
    tr: &mut TR,
) {
    if n <= 1 {
        return;
    }
    let half = (n / 2) as u64;
    let mut k = k_first;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            let mut t = 0u64;
            while t < half {
                let count = (half - t).min(TRACE_BLOCK);
                tr.touch_cex_span(region, elem_bytes, j as u64, t, count);
                t += count;
            }
            j /= 2;
        }
        k *= 2;
    }
}

// ---------------------------------------------------------------------------
// Stage kernels (branchless compare-exchange sweeps)
// ---------------------------------------------------------------------------

/// Instruction sets the stage kernels are monomorphized for. Detected once
/// per process; the portable build is what every tier targets by default,
/// the wider ones let LLVM use 256-/512-bit compare+select on the same
/// source loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

pub(crate) fn isa() -> Isa {
    static LEVEL: OnceLock<Isa> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    })
}

/// One physical pass of the batched network. The schedule fuses the three
/// shortest-stride stages of every `k`-round into a single in-register
/// window pass: strides 4, 2 and 1 have runs too short for wide sweeps
/// (measured ~1.2–3.2 ns/comparator vs ~0.4 for strides ≥ 8), and fusing
/// them also replaces three memory sweeps with one.
///
/// Fusion never changes results: a `Tail { k, w }` pass applies stages
/// `j = w/2, …, 1` window-by-window, and each such stage only pairs
/// elements *within* one aligned `w`-sized window, so the window-local
/// stage order equals the global stage order bitwise. The trace is
/// likewise unaffected — it is emitted canonically per stage, independent
/// of the physical pass structure.
#[derive(Clone, Copy, Debug)]
enum Pass {
    /// One `(k, j)` stage with `j >= 8`, swept over contiguous runs.
    /// Work units are comparators (`n / 2` of them).
    Stage {
        /// Bitonic round (direction period).
        k: usize,
        /// Partner distance.
        j: usize,
    },
    /// The fused `j = w/2 … 1` tail of round `k`, `w = min(8, k)`.
    /// Work units are `w`-element windows (`n / w` of them).
    Tail {
        /// Bitonic round (direction period).
        k: usize,
        /// Window size (power of two, `<= k`, so the direction bit is
        /// constant per window).
        w: usize,
    },
}

/// The physical pass schedule of rounds `k = k_first … n` of an
/// `n`-element network (a pure function of `(n, k_first)`, like everything
/// else about the network).
fn pass_schedule(n: usize, k_first: usize) -> Vec<Pass> {
    let mut passes = Vec::new();
    let mut k = k_first;
    while k <= n {
        let mut j = k / 2;
        while j >= 8 {
            passes.push(Pass::Stage { k, j });
            j /= 2;
        }
        passes.push(Pass::Tail { k, w: k.min(8) });
        k *= 2;
    }
    passes
}

/// Work units of one pass (the index space split across workers).
fn pass_units(pass: Pass, n: usize) -> usize {
    match pass {
        Pass::Stage { .. } => n / 2,
        Pass::Tail { w, .. } => n / w,
    }
}

/// Ascending compare-exchange sweep: `(lo[t], hi[t]) ← (min, max)`.
///
/// Identical to the scalar rule `swap iff (a > b) == ascending`: for
/// ascending comparators a swap happens exactly when `a > b`, and
/// swapping equal full words is the identity, so min/max is bitwise
/// equivalent.
#[inline(always)]
fn cex_sweep_u64(lo: &mut [u64], hi: &mut [u64], asc: bool) {
    debug_assert_eq!(lo.len(), hi.len());
    if asc {
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = x.min(y);
            *b = x.max(y);
        }
    } else {
        // Descending comparators swap when `a <= b` (the scalar rule with
        // `ascending = false`), which also lands on (max, min).
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = x.max(y);
            *b = x.min(y);
        }
    }
}

/// Keyed compare-exchange sweep over packed `(key << 64) | payload` words:
/// comparisons see **keys only**, so key ties behave exactly like the
/// scalar network evaluating `key()` (ascending: never swap; descending:
/// always swap) and outputs stay bitwise identical to the reference.
#[inline(always)]
fn cex_sweep_u128(lo: &mut [u128], hi: &mut [u128], asc: bool) {
    debug_assert_eq!(lo.len(), hi.len());
    if asc {
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            let swap = (x >> 64) as u64 > (y >> 64) as u64;
            let mask = (swap as u128).wrapping_neg();
            let diff = (x ^ y) & mask;
            *a = x ^ diff;
            *b = y ^ diff;
        }
    } else {
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            let swap = (x >> 64) as u64 <= (y >> 64) as u64;
            let mask = (swap as u128).wrapping_neg();
            let diff = (x ^ y) & mask;
            *a = x ^ diff;
            *b = y ^ diff;
        }
    }
}

/// Single compare-exchange inside a register-held window, full-`u64`
/// comparison (same min/max equivalence as [`cex_sweep_u64`]).
#[inline(always)]
fn cex_win_u64<const ASC: bool>(w: &mut [u64], a: usize, b: usize) {
    let (x, y) = (w[a], w[b]);
    let (lo, hi) = (x.min(y), x.max(y));
    if ASC {
        w[a] = lo;
        w[b] = hi;
    } else {
        w[a] = hi;
        w[b] = lo;
    }
}

/// Single compare-exchange inside a register-held window, keyed on the
/// high 64 bits (same tie rule as [`cex_sweep_u128`]).
#[inline(always)]
fn cex_win_u128<const ASC: bool>(w: &mut [u128], a: usize, b: usize) {
    let (x, y) = (w[a], w[b]);
    let gt = (x >> 64) as u64 > (y >> 64) as u64;
    let swap = if ASC { gt } else { !gt };
    let mask = (swap as u128).wrapping_neg();
    let diff = (x ^ y) & mask;
    w[a] = x ^ diff;
    w[b] = y ^ diff;
}

macro_rules! pass_runner {
    ($name:ident, $portable:ident, $avx2:ident, $avx512:ident, $word:ty, $sweep:ident,
     $cex_win:ident, $apply:ident, $tail:ident) => {
        /// Applies the fused `j = W/2 … 1` stages to one register-held
        /// window (loops fully unroll: `W` is const).
        #[inline(always)]
        fn $apply<const ASC: bool, const W: usize>(w: &mut [$word; W]) {
            let mut j = W / 2;
            while j > 0 {
                let mut base = 0;
                while base < W {
                    let mut t = 0;
                    while t < j {
                        $cex_win::<ASC>(w, base + t, base + t + j);
                        t += 1;
                    }
                    base += 2 * j;
                }
                j /= 2;
            }
        }

        /// Runs windows `[u0, u1)` of a fused tail pass.
        ///
        /// # Safety
        ///
        /// Windows `[u0 * W, u1 * W)` must be in bounds and exclusively
        /// owned by this caller.
        #[inline(always)]
        unsafe fn $tail<const W: usize>(base: *mut $word, k: usize, u0: usize, u1: usize) {
            for u in u0..u1 {
                let elem = u * W;
                // SAFETY: window `[elem, elem + W)` is in bounds and
                // disjoint from every other window.
                let win = unsafe { &mut *(base.add(elem) as *mut [$word; W]) };
                // Direction is constant per window: `W <= k`, window base
                // aligned to `W`.
                if (elem & k) == 0 {
                    $apply::<true, W>(win);
                } else {
                    $apply::<false, W>(win);
                }
            }
        }

        /// Runs work units `[u0, u1)` of `pass` over `base[0..n]`.
        ///
        /// # Safety
        ///
        /// `pass` must come from [`pass_schedule`] for the allocation's
        /// length `n`, `u1 <= pass_units(pass, n)`, and the caller must
        /// guarantee exclusive access to every element the unit range
        /// names — distinct unit ranges of one pass touch disjoint
        /// elements, so any partition of the unit space across threads is
        /// safe *within* a pass.
        #[inline(always)]
        unsafe fn $name(base: *mut $word, pass: Pass, u0: usize, u1: usize) {
            match pass {
                Pass::Stage { k, j } => {
                    let mut t = u0;
                    while t < u1 {
                        let off = t & (j - 1);
                        let blk = t - off;
                        let i0 = (blk << 1) | off;
                        let len = (j - off).min(u1 - t);
                        // SAFETY: `[i0, i0 + len)` and `[i0 + j, i0 + j +
                        // len)` are disjoint (len <= j) in-bounds runs
                        // owned by this caller per the contract above.
                        let lo = unsafe { core::slice::from_raw_parts_mut(base.add(i0), len) };
                        let hi = unsafe { core::slice::from_raw_parts_mut(base.add(i0 + j), len) };
                        // The direction bit `i & k` is constant across the
                        // run: `i0` varies only in its low log2(j) bits
                        // and `2j <= k`.
                        $sweep(lo, hi, (i0 & k) == 0);
                        t += len;
                    }
                }
                // SAFETY: forwarded contract.
                Pass::Tail { k, w } => match w {
                    2 => unsafe { $tail::<2>(base, k, u0, u1) },
                    4 => unsafe { $tail::<4>(base, k, u0, u1) },
                    _ => unsafe { $tail::<8>(base, k, u0, u1) },
                },
            }
        }

        /// Portable monomorphization of the pass runner.
        ///
        /// # Safety
        ///
        /// Same contract as the inline body.
        unsafe fn $portable(base: *mut $word, pass: Pass, u0: usize, u1: usize) {
            unsafe { $name(base, pass, u0, u1) }
        }

        /// AVX2 monomorphization (256-bit compare+select).
        ///
        /// # Safety
        ///
        /// Same contract as the inline body; caller must have verified
        /// AVX2 support.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2(base: *mut $word, pass: Pass, u0: usize, u1: usize) {
            unsafe { $name(base, pass, u0, u1) }
        }

        /// AVX-512 monomorphization (`vpminuq`/`vpmaxuq` and friends).
        ///
        /// # Safety
        ///
        /// Same contract as the inline body; caller must have verified
        /// AVX-512F support.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn $avx512(base: *mut $word, pass: Pass, u0: usize, u1: usize) {
            unsafe { $name(base, pass, u0, u1) }
        }
    };
}

pass_runner!(
    pass_u64,
    pass_u64_portable,
    pass_u64_avx2,
    pass_u64_avx512,
    u64,
    cex_sweep_u64,
    cex_win_u64,
    apply_tail_u64,
    tail_u64
);
pass_runner!(
    pass_u128,
    pass_u128_portable,
    pass_u128_avx2,
    pass_u128_avx512,
    u128,
    cex_sweep_u128,
    cex_win_u128,
    apply_tail_u128,
    tail_u128
);

macro_rules! isa_dispatch {
    ($portable:ident, $avx2:ident, $avx512:ident, $base:expr, $pass:expr, $u0:expr, $u1:expr) => {
        match isa() {
            // SAFETY: range/aliasing contract upheld by the stage driver;
            // the wider monomorphizations run only after feature detection.
            Isa::Portable => unsafe { $portable($base, $pass, $u0, $u1) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { $avx2($base, $pass, $u0, $u1) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { $avx512($base, $pass, $u0, $u1) },
        }
    };
}

#[inline]
fn run_pass_u64(base: *mut u64, pass: Pass, u0: usize, u1: usize) {
    isa_dispatch!(pass_u64_portable, pass_u64_avx2, pass_u64_avx512, base, pass, u0, u1)
}

#[inline]
fn run_pass_u128(base: *mut u128, pass: Pass, u0: usize, u1: usize) {
    isa_dispatch!(pass_u128_portable, pass_u128_avx2, pass_u128_avx512, base, pass, u0, u1)
}

// ---------------------------------------------------------------------------
// Stage driver (serial or barrier-synchronized workers)
// ---------------------------------------------------------------------------

/// A raw base pointer that workers share. Soundness comes from the stage
/// driver's partitioning (disjoint comparator ranges → disjoint elements
/// within a stage) plus the per-stage barrier.
struct SendPtr<W>(*mut W);
unsafe impl<W> Send for SendPtr<W> {}
unsafe impl<W> Sync for SendPtr<W> {}

/// Runs every pass of rounds `k_first … v.len()` of the physical schedule
/// over `v`, splitting each pass's work-unit range across `threads`
/// workers with a barrier between passes. `run` executes one unit range of
/// one pass.
///
/// The output is identical for every thread count: pass results do not
/// depend on intra-pass execution order (units of a pass touch disjoint
/// elements), and the barrier orders passes.
fn sort_stages<W: Send>(
    v: &mut [W],
    k_first: usize,
    threads: usize,
    run: fn(*mut W, Pass, usize, usize),
) {
    let n = v.len();
    debug_assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    let passes = pass_schedule(n, k_first);
    let workers = if threads <= 1 || n < MIN_PARALLEL_N { 1 } else { threads.min(n / 2) };
    if workers == 1 {
        for &pass in &passes {
            run(v.as_mut_ptr(), pass, 0, pass_units(pass, n));
        }
        return;
    }
    let barrier = Barrier::new(workers);
    let ptr = SendPtr(v.as_mut_ptr());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (barrier, ptr, passes) = (&barrier, &ptr, &passes);
            scope.spawn(move || {
                for &pass in passes {
                    let units = pass_units(pass, n);
                    let u0 = units * w / workers;
                    let u1 = units * (w + 1) / workers;
                    if u1 > u0 {
                        run(ptr.0, pass, u0, u1);
                    }
                    barrier.wait();
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Sorts packed `u64` cells ascending by their **raw value** (the
/// aggregation hot path: cells are index-major, so raw order is index
/// order) with the process-default kernel and thread count.
pub fn bitonic_sort_u64_pow2<TR: Tracer>(buf: &mut TrackedBuf<u64>, tr: &mut TR) {
    bitonic_sort_u64_pow2_with(buf, sort_kernel(), default_threads(), tr)
}

/// [`bitonic_sort_u64_pow2`] with an explicit worker-thread count.
pub fn bitonic_sort_u64_pow2_with_threads<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    threads: usize,
    tr: &mut TR,
) {
    bitonic_sort_u64_pow2_with(buf, sort_kernel(), threads, tr)
}

/// [`bitonic_sort_u64_pow2`] with every knob explicit (differential
/// tests compare kernels in one process, bypassing the env cache).
///
/// Both kernels produce bitwise-identical outputs and digest-identical
/// traces at every thread count and granularity.
pub fn bitonic_sort_u64_pow2_with<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    kernel: SortKernel,
    threads: usize,
    tr: &mut TR,
) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "bitonic sort requires power-of-two length, got {n}");
    network_u64(buf, n, 2, kernel, threads, tr)
}

/// Sorts the first `len` cells of `buf` (`len` a power of two, at most
/// `buf.len()`) by raw value with the process-default kernel, leaving the
/// rest untouched. The trace is a `len`-cell network over offsets
/// `0..len`, so it depends on `len` only.
pub fn bitonic_sort_u64_prefix_pow2_with_threads<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    len: usize,
    threads: usize,
    tr: &mut TR,
) {
    bitonic_sort_u64_prefix_pow2_with(buf, len, sort_kernel(), threads, tr)
}

/// [`bitonic_sort_u64_prefix_pow2_with_threads`] with an explicit kernel.
pub fn bitonic_sort_u64_prefix_pow2_with<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    len: usize,
    kernel: SortKernel,
    threads: usize,
    tr: &mut TR,
) {
    assert!(len.is_power_of_two() && len <= buf.len(), "bad prefix length {len}");
    network_u64(buf, len, 2, kernel, threads, tr)
}

/// Sorts a **bitonic** `buf` (non-decreasing then non-increasing, length a
/// power of two) by raw value with the process-default kernel: only the
/// final `k = n` round of the network (log₂ n stages), with the trace of
/// that round only.
pub fn bitonic_merge_u64_pow2_with_threads<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    threads: usize,
    tr: &mut TR,
) {
    bitonic_merge_u64_pow2_with(buf, sort_kernel(), threads, tr)
}

/// [`bitonic_merge_u64_pow2_with_threads`] with an explicit kernel.
pub fn bitonic_merge_u64_pow2_with<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    kernel: SortKernel,
    threads: usize,
    tr: &mut TR,
) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "bitonic merge requires power-of-two length, got {n}");
    network_u64(buf, n, n, kernel, threads, tr)
}

/// Rounds `k = k_first … n` of the `n`-cell raw-value network over
/// `buf[0..n]`, on either kernel.
fn network_u64<TR: Tracer>(
    buf: &mut TrackedBuf<u64>,
    n: usize,
    k_first: usize,
    kernel: SortKernel,
    threads: usize,
    tr: &mut TR,
) {
    match kernel {
        SortKernel::Scalar => bitonic_rounds(buf, n, k_first, |c| *c, tr),
        SortKernel::Batched => {
            if n <= 1 {
                return;
            }
            emit_network_trace(buf.region(), core::mem::size_of::<u64>() as u32, n, k_first, tr);
            let v = &mut buf.as_mut_slice_untraced()[..n];
            sort_stages(v, k_first, threads, run_pass_u64);
        }
    }
}

/// Sorts `buf` ascending by `key` with the batched keyed kernel: the key
/// is evaluated **once per element**, packed key-major beside the inline
/// payload, and the packed words are compare-exchanged by key only —
/// bitwise-identical output and trace to the scalar
/// [`bitonic_sort_pow2`] with the same `key`.
pub fn bitonic_sort_keyed_pow2<T, K, TR>(buf: &mut TrackedBuf<T>, key: K, tr: &mut TR)
where
    T: Oblivious + InlinePayload,
    K: Fn(&T) -> u64,
    TR: Tracer,
{
    bitonic_sort_keyed_pow2_with(buf, key, sort_kernel(), default_threads(), tr)
}

/// [`bitonic_sort_keyed_pow2`] with every knob explicit.
pub fn bitonic_sort_keyed_pow2_with<T, K, TR>(
    buf: &mut TrackedBuf<T>,
    key: K,
    kernel: SortKernel,
    threads: usize,
    tr: &mut TR,
) where
    T: Oblivious + InlinePayload,
    K: Fn(&T) -> u64,
    TR: Tracer,
{
    match kernel {
        SortKernel::Scalar => bitonic_sort_pow2(buf, key, tr),
        SortKernel::Batched => {
            let n = buf.len();
            assert!(n.is_power_of_two(), "bitonic sort requires power-of-two length, got {n}");
            if n <= 1 {
                return;
            }
            emit_network_trace(buf.region(), core::mem::size_of::<T>() as u32, n, 2, tr);
            let data = buf.as_mut_slice_untraced();
            let mut packed: Vec<u128> =
                data.iter().map(|x| ((key(x) as u128) << 64) | x.to_word() as u128).collect();
            sort_stages(&mut packed, 2, threads, run_pass_u128);
            for (dst, w) in data.iter_mut().zip(packed) {
                *dst = T::from_word(w as u64);
            }
        }
    }
}

/// Sorts pre-packed `(tag << 64) | payload` words ascending by their
/// **high 64 bits** (the oblivious-shuffle layout). Key ties follow the
/// scalar swap rule, so the result is bitwise identical to
/// [`bitonic_sort_pow2`] with `key = |c| (c >> 64) as u64`.
pub fn bitonic_sort_tagged_pow2_with<TR: Tracer>(
    buf: &mut TrackedBuf<u128>,
    kernel: SortKernel,
    threads: usize,
    tr: &mut TR,
) {
    match kernel {
        SortKernel::Scalar => bitonic_sort_pow2(buf, |c| (c >> 64) as u64, tr),
        SortKernel::Batched => {
            let n = buf.len();
            assert!(n.is_power_of_two(), "bitonic sort requires power-of-two length, got {n}");
            if n <= 1 {
                return;
            }
            emit_network_trace(buf.region(), core::mem::size_of::<u128>() as u32, n, 2, tr);
            sort_stages(buf.as_mut_slice_untraced(), 2, threads, run_pass_u128);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{Granularity, NullTracer, RecordingTracer};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_words(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn batched_u64_sorts() {
        for n in [1usize, 2, 4, 16, 128, 1024] {
            let data = random_words(n, n as u64);
            let mut expected = data.clone();
            expected.sort_unstable();
            let mut buf = TrackedBuf::new(0, data);
            bitonic_sort_u64_pow2_with(&mut buf, SortKernel::Batched, 1, &mut NullTracer);
            assert_eq!(buf.into_inner(), expected, "n={n}");
        }
    }

    #[test]
    fn batched_matches_scalar_bitwise_u64() {
        for (n, threads) in [(64usize, 1usize), (256, 2), (8192, 8)] {
            let data = random_words(n, 7);
            let mut scalar = TrackedBuf::new(0, data.clone());
            bitonic_sort_u64_pow2_with(&mut scalar, SortKernel::Scalar, 1, &mut NullTracer);
            let mut batched = TrackedBuf::new(0, data);
            bitonic_sort_u64_pow2_with(&mut batched, SortKernel::Batched, threads, &mut NullTracer);
            assert_eq!(scalar.into_inner(), batched.into_inner(), "n={n} threads={threads}");
        }
    }

    #[test]
    fn batched_digest_equals_scalar_digest() {
        let data = random_words(256, 9);
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let mut str_ = RecordingTracer::new(granularity);
            let mut sbuf = TrackedBuf::new(5, data.clone());
            bitonic_sort_u64_pow2_with(&mut sbuf, SortKernel::Scalar, 1, &mut str_);
            for threads in [1usize, 2, 8] {
                let mut btr = RecordingTracer::new(granularity);
                let mut bbuf = TrackedBuf::new(5, data.clone());
                bitonic_sort_u64_pow2_with(&mut bbuf, SortKernel::Batched, threads, &mut btr);
                assert_eq!(btr.digest(), str_.digest(), "{granularity:?} threads={threads}");
            }
        }
    }

    #[test]
    fn keyed_kernel_matches_scalar_on_pairs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let data: Vec<(u32, f32)> =
            (0..512).map(|_| (rng.gen_range(0..64), rng.gen_range(-1.0..1.0))).collect();
        let mut scalar = TrackedBuf::new(0, data.clone());
        bitonic_sort_pow2(&mut scalar, |c| c.0 as u64, &mut NullTracer);
        for threads in [1usize, 4] {
            let mut batched = TrackedBuf::new(0, data.clone());
            bitonic_sort_keyed_pow2_with(
                &mut batched,
                |c| c.0 as u64,
                SortKernel::Batched,
                threads,
                &mut NullTracer,
            );
            // Bitwise equality including tie order: key ties must follow
            // the scalar swap rule, not payload order.
            assert_eq!(scalar.as_slice_untraced(), batched.into_inner());
        }
    }

    #[test]
    fn tagged_kernel_matches_scalar_u128() {
        let mut rng = SmallRng::seed_from_u64(4);
        // Force plenty of tag collisions so the tie rule is exercised.
        let data: Vec<u128> =
            (0..256).map(|i| ((rng.gen_range(0..32u64) as u128) << 64) | i as u128).collect();
        let mut scalar = TrackedBuf::new(0, data.clone());
        bitonic_sort_tagged_pow2_with(&mut scalar, SortKernel::Scalar, 1, &mut NullTracer);
        let mut batched = TrackedBuf::new(0, data);
        bitonic_sort_tagged_pow2_with(&mut batched, SortKernel::Batched, 2, &mut NullTracer);
        assert_eq!(scalar.as_slice_untraced(), batched.into_inner());
    }

    #[test]
    fn inline_payload_round_trips() {
        assert_eq!(u64::from_word(0xdead_beefu64.to_word()), 0xdead_beef);
        assert_eq!(<(u32, f32)>::from_word((7u32, -1.5f32).to_word()), (7, -1.5));
        assert_eq!(<(u32, u32)>::from_word((1u32, 2u32).to_word()), (1, 2));
        assert_eq!(f64::from_word((-0.0f64).to_word()).to_bits(), (-0.0f64).to_bits());
        assert_eq!(i64::from_word((-5i64).to_word()), -5);
        assert_eq!(u32::from_word(9u32.to_word()), 9);
        assert_eq!(f32::from_word(2.5f32.to_word()), 2.5);
    }

    #[test]
    fn kernel_env_default_is_batched() {
        // The cached process-wide selection: unless the suite was launched
        // with OLIVE_SORT_KERNEL=scalar (the CI differential pass), the
        // batched kernel is the default.
        match std::env::var("OLIVE_SORT_KERNEL").as_deref() {
            Ok("scalar") => assert_eq!(sort_kernel(), SortKernel::Scalar),
            _ => assert_eq!(sort_kernel(), SortKernel::Batched),
        }
    }
}
