//! The Advanced oblivious aggregation (Algorithm 4).
//!
//! Computes the dense aggregate *directly from the cell stream* — never
//! indexing `G*` by a secret — in four oblivious steps:
//!
//! 1. **initialization**: append one zero-valued cell per index `0..d`, so
//!    every index is guaranteed present (and the output histogram of
//!    indices is fixed);
//! 2. **oblivious sort** by index. The paper Batcher-sorts all `nk + d`
//!    cells; here only the uploads go through a full network (padded to
//!    `next_pow2(nk)`), because the ramp of step 1 is public and already
//!    in order: written descending behind the sorted uploads it makes the
//!    vector bitonic, and the network's final merge round alone sorts it;
//! 3. **oblivious folding**: one linear pass accumulating runs of equal
//!    indices; every position is rewritten — either with the finalized
//!    `(index, sum)` of a completed run or with the dummy `(M₀, 0)` — via
//!    `o_mov`, so run boundaries (the index histogram!) stay hidden;
//! 4. **oblivious compaction** in place of the paper's second sort: the
//!    `d` real survivors (one per index) already sit in index order, the
//!    survivor of index `j` at most `nk` slots behind position `j`, so an
//!    order-preserving compaction (`olive_oblivious::compact`, log₂ nk
//!    shift levels) brings them to the front; take them.
//!
//! The sorted vector, and so the output, is bit for bit that of the
//! paper's two full sorts (raw `u64` order is total), which a differential
//! test pins. Fully oblivious (Proposition 5.2): the sort, merge and
//! compaction are fixed schedules and the fold is a fixed linear sweep,
//! so the trace is a function of `(nk, d)` only. Complexity
//! O(nk log² nk + (nk+d) log(nk+d)) time, O(nk+d) space — the `k·d`
//! product of the Baseline is gone, and the `d` term no longer pays the
//! squared log of a full sort.
//!
//! Worked example (the paper's Appendix E, n=3, k=2, d=4):
//!
//! ```
//! use olive_core::aggregation::advanced::aggregate_advanced;
//! use olive_core::cell::make_cell;
//! use olive_memsim::NullTracer;
//! // user1: (1, 0.3), (3, 0.5); user2: (1, 0.8), (2, 0.9); user3: (0, 0.4), (1, 0.1)
//! let g = [
//!     make_cell(1, 0.3), make_cell(3, 0.5),
//!     make_cell(1, 0.8), make_cell(2, 0.9),
//!     make_cell(0, 0.4), make_cell(1, 0.1),
//! ];
//! let avg = aggregate_advanced(&g, 4, 3, &mut NullTracer);
//! let sums: Vec<f32> = avg.iter().map(|v| v * 3.0).collect(); // undo the 1/n averaging
//! assert!((sums[0] - 0.4).abs() < 1e-6);
//! assert!((sums[1] - 1.2).abs() < 1e-6);
//! assert!((sums[2] - 0.9).abs() < 1e-6);
//! assert!((sums[3] - 0.5).abs() < 1e-6);
//! ```

use olive_memsim::{Tracer, TrackedBuf};
use olive_oblivious::compact::ocompact_u64;
use olive_oblivious::primitives::Oblivious;
use olive_oblivious::sort::next_pow2;
use olive_oblivious::sort_kernel::{
    bitonic_merge_u64_pow2_with_threads, bitonic_sort_u64_prefix_pow2_with_threads,
};

use crate::cell::{cell_index, cell_value, dummy_cell, make_cell};
use crate::parallel::default_threads;
use crate::regions::{REGION_G_STAR, REGION_SCRATCH};

use super::linear::average_in_place;

/// Computes the **un-averaged** dense sums via Algorithm 4, writing them
/// into a fresh `G*` buffer which is returned for further (oblivious)
/// processing. The trace depends only on `(cells.len(), d)` — the sort,
/// merge and compaction run the process-default kernel
/// (`OLIVE_SORT_KERNEL`), whose trace and output are identical to the
/// scalar reference at every `threads` value
/// (`olive_oblivious::sort_kernel`).
pub(crate) fn sum_advanced<TR: Tracer>(
    cells: &[u64],
    d: usize,
    threads: usize,
    tr: &mut TR,
) -> TrackedBuf<f32> {
    let nk = cells.len();
    let mut g = sorted_with_ramp(cells, d, threads, tr);
    fold_runs(&mut g, tr);

    // Step 4: the survivor of index j closes its run at j + (uploads with
    // index ≤ j) — in index order, at most nk slots late, and only dummies
    // between survivors — so an order-preserving compaction over the first
    // nk + d cells brings the d survivors to the front.
    ocompact_u64(&mut g, nk + d, nk, d as u32, dummy_cell(), tr);

    take_survivors(&g, d, tr)
}

/// Steps 1–2: the `P = next_pow2(nk + d)`-cell vector of the uploads, the
/// zero ramp `(j, 0)` for `j ∈ [d]` and dummy padding, sorted by raw `u64`
/// (index-major, so by index).
///
/// Only the uploads need sorting: the first `q = next_pow2(nk)` cells (the
/// uploads, padded with `u64::MAX`, which sorts behind every cell) go
/// through a `q`-cell network, leaving the padding in `[nk, q)`. Then
/// `[nk, P − d)` takes dummies and `[P − d, P)` the ramp written
/// descending (`nk ≤ P − d`, so only padding is overwritten). The vector
/// now rises through the uploads and falls through the dummies and the
/// ramp — bitonic — and the final round of the network alone sorts it.
/// Raw `u64` order is total, so the result equals a full sort of the same
/// cells bit for bit.
fn sorted_with_ramp<TR: Tracer>(
    cells: &[u64],
    d: usize,
    threads: usize,
    tr: &mut TR,
) -> TrackedBuf<u64> {
    let nk = cells.len();
    let padded = next_pow2(nk + d);
    let q = next_pow2(nk);
    let mut v = Vec::with_capacity(padded);
    v.extend_from_slice(cells);
    v.resize(q, u64::MAX);
    v.resize(padded, dummy_cell());
    let mut g = TrackedBuf::new(REGION_SCRATCH, v);
    bitonic_sort_u64_prefix_pow2_with_threads(&mut g, q, threads, tr);
    let ramp = padded - d;
    for i in nk..ramp {
        g.write(i, dummy_cell(), tr);
    }
    for i in ramp..padded {
        g.write(i, make_cell((padded - 1 - i) as u32, 0.0), tr);
    }
    bitonic_merge_u64_pow2_with_threads(&mut g, threads, tr);
    g
}

/// Step 3: oblivious folding (Algorithm 4 lines 6–14). The accumulator
/// lives in registers; every pass writes position i−1 exactly once.
fn fold_runs<TR: Tracer>(g: &mut TrackedBuf<u64>, tr: &mut TR) {
    let first = g.read(0, tr);
    let mut acc_idx = cell_index(first);
    let mut acc_val = cell_value(first);
    for i in 1..g.len() {
        let cur = g.read(i, tr);
        let cur_idx = cell_index(cur);
        let cur_val = cell_value(cur);
        let same = cur_idx == acc_idx;
        // Same run → the prior slot becomes a dummy; run ends → the prior
        // slot receives the finalized (index, sum).
        let prior = u64::o_select(same, dummy_cell(), make_cell(acc_idx, acc_val));
        g.write(i - 1, prior, tr);
        acc_val = f32::o_select(same, acc_val + cur_val, cur_val);
        acc_idx = cur_idx;
    }
    let last = g.len() - 1;
    g.write(last, make_cell(acc_idx, acc_val), tr);
}

/// Emits G*: a fixed in-order read of the first d cells and write-out.
fn take_survivors<TR: Tracer>(g: &TrackedBuf<u64>, d: usize, tr: &mut TR) -> TrackedBuf<f32> {
    let mut gstar = TrackedBuf::<f32>::zeroed(REGION_G_STAR, d);
    for j in 0..d {
        let cell = g.read(j, tr);
        debug_assert_eq!(
            cell_index(cell),
            j as u32,
            "initialization guarantees exactly one survivor per index"
        );
        gstar.write(j, cell_value(cell), tr);
    }
    gstar
}

/// Algorithm 4 end-to-end: oblivious sums followed by the oblivious
/// averaging pass. Returns the averaged dense update. The sorts use the
/// process-default thread count ([`default_threads`]).
pub fn aggregate_advanced<TR: Tracer>(cells: &[u64], d: usize, n: usize, tr: &mut TR) -> Vec<f32> {
    aggregate_advanced_with_threads(cells, d, n, default_threads(), tr)
}

/// [`aggregate_advanced`] with an explicit worker-thread count for the
/// intra-sort stage parallelism. Output and trace are identical at every
/// thread count.
pub fn aggregate_advanced_with_threads<TR: Tracer>(
    cells: &[u64],
    d: usize,
    n: usize,
    threads: usize,
    tr: &mut TR,
) -> Vec<f32> {
    let mut gstar = sum_advanced(cells, d, threads, tr);
    average_in_place(&mut gstar, n, tr);
    gstar.into_inner()
}

/// Streaming form of [`aggregate_advanced_with_threads`].
///
/// Algorithm 4 is *inherently monolithic*: its obliviousness proof rests
/// on one oblivious sort of the whole `nk + d` vector, so incoming chunks
/// can only be **staged** (an untraced linear copy, exactly like the
/// one-shot path's `concat_cells`) and the sort/fold/compaction runs at
/// [`AdvancedStreamer::finalize`]. Chunk boundaries therefore change
/// neither the output bits nor the trace — but the enclave working set
/// still grows with O(nk + d), which is exactly the paper's Figure 10
/// cliff and the reason the Grouped streamer exists. The EPC accounting
/// reports this honestly via [`AdvancedStreamer::resident_bytes`].
pub struct AdvancedStreamer {
    cells: Vec<u64>,
    d: usize,
    threads: usize,
    n: usize,
}

impl AdvancedStreamer {
    /// Fresh streamer over dimension `d`.
    pub fn init(d: usize, threads: usize) -> Self {
        AdvancedStreamer { cells: Vec::new(), d, threads, n: 0 }
    }

    /// Stages one chunk of client updates (cells buffered until finalize).
    pub fn ingest(&mut self, chunk: &[olive_fl::SparseGradient]) {
        for u in chunk {
            assert_eq!(u.dense_dim, self.d, "update dimension mismatch");
            self.n += 1;
            for (&i, &v) in u.indices.iter().zip(u.values.iter()) {
                self.cells.push(make_cell(i, v));
            }
        }
    }

    /// Runs Algorithm 4 over everything staged and returns the averaged
    /// dense update.
    pub fn finalize<TR: Tracer>(self, tr: &mut TR) -> Vec<f32> {
        assert!(self.n > 0, "no updates to aggregate");
        aggregate_advanced_with_threads(&self.cells, self.d, self.n, self.threads, tr)
    }

    /// Clients staged so far.
    pub fn clients(&self) -> usize {
        self.n
    }

    /// Persistent enclave bytes: the staged cell buffer (grows with the
    /// round — the O(nk) this algorithm cannot avoid).
    pub fn resident_bytes(&self) -> u64 {
        self.cells.len() as u64 * 8
    }

    /// Transient bytes finalize will allocate: the padded sort vector plus
    /// the dense output.
    pub fn finalize_scratch_bytes(&self) -> u64 {
        next_pow2(self.cells.len() + self.d) as u64 * 8 + self.d as u64 * 4
    }

    /// Serializes the streamer for a sealed mid-round checkpoint. The
    /// staged cells are sealed honestly — the checkpoint is O(nk), the
    /// same EPC-cliff footprint this algorithm already carries.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = olive_memsim::StateWriter::new();
        w.put_usize(self.d);
        w.put_usize(self.threads);
        w.put_usize(self.n);
        w.put_u64s(&self.cells);
        w.into_bytes()
    }

    /// Restores an [`AdvancedStreamer::save_state`] snapshot into a
    /// freshly initialized streamer of the same configuration.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), olive_memsim::StateError> {
        let mut r = olive_memsim::StateReader::new(bytes);
        if r.get_usize()? != self.d || r.get_usize()? != self.threads {
            return Err(olive_memsim::StateError::Mismatch);
        }
        self.n = r.get_usize()?;
        self.cells = r.get_u64s()?;
        r.expect_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::reference_average;
    use crate::aggregation::test_support::*;
    use crate::cell::concat_cells;
    use olive_memsim::{assert_oblivious, Granularity, NullTracer};

    #[test]
    fn paper_running_example_appendix_e() {
        // n=3, k=2, d=4 — the worked example of Figure 17.
        let g = [
            make_cell(1, 0.3),
            make_cell(3, 0.5),
            make_cell(1, 0.8),
            make_cell(2, 0.9),
            make_cell(0, 0.4),
            make_cell(1, 0.1),
        ];
        let sums = sum_advanced(&g, 4, 1, &mut NullTracer).into_inner();
        assert_close(&sums, &[0.4, 1.2, 0.9, 0.5], 1e-6);
    }

    #[test]
    fn output_and_trace_invariant_across_thread_counts() {
        use olive_memsim::RecordingTracer;
        // 128 cells + d = 4000 pads the sort vector to 8192, past the
        // kernel's internal parallelism threshold — threads ∈ {2, 8} must
        // genuinely run the barrier path for this test to mean anything.
        let d = 4000;
        let updates = random_updates(8, 16, d, 77);
        let cells = concat_cells(&updates);
        let run = |threads: usize| {
            let mut tr = RecordingTracer::new(Granularity::Element);
            let out = aggregate_advanced_with_threads(&cells, d, 8, threads, &mut tr);
            (out, tr.digest())
        };
        let (ref_out, ref_digest) = run(1);
        for threads in [2usize, 8] {
            let (out, digest) = run(threads);
            let same = ref_out.iter().zip(out.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} changed the f32 bits");
            assert_eq!(digest, ref_digest, "threads={threads} changed the trace");
        }
    }

    #[test]
    fn matches_reference_on_random_inputs() {
        for seed in 0..5 {
            let updates = random_updates(6, 8, 40, seed);
            let cells = concat_cells(&updates);
            let got = aggregate_advanced(&cells, 40, 6, &mut NullTracer);
            assert_close(&got, &reference_average(&updates, 40), 1e-4);
        }
    }

    #[test]
    fn all_clients_same_index_collapses_to_one_run() {
        use olive_fl::SparseGradient;
        let updates: Vec<SparseGradient> = (0..5)
            .map(|i| SparseGradient { dense_dim: 8, indices: vec![3], values: vec![i as f32] })
            .collect();
        let got = aggregate_advanced(&concat_cells(&updates), 8, 5, &mut NullTracer);
        assert!((got[3] - 2.0).abs() < 1e-6); // (0+1+2+3+4)/5
        assert!(got.iter().enumerate().all(|(j, &v)| j == 3 || v == 0.0));
    }

    /// Proposition 5.2: identical traces for any same-shape input, at both
    /// granularities.
    #[test]
    fn prop_5_2_fully_oblivious() {
        let inputs = vec![
            concat_cells(&random_updates(4, 6, 64, 10)),
            concat_cells(&random_updates(4, 6, 64, 11)),
            concat_cells(&random_updates(4, 6, 64, 12)),
        ];
        assert_oblivious(Granularity::Element, &inputs, |cells, tr| {
            aggregate_advanced(cells, 64, 4, tr);
        });
        assert_oblivious(Granularity::Cacheline, &inputs, |cells, tr| {
            aggregate_advanced(cells, 64, 4, tr);
        });
    }

    /// The fold must hide the index histogram: heavily skewed vs uniform
    /// index multiplicities produce identical traces.
    #[test]
    fn fold_hides_index_histogram() {
        use olive_fl::SparseGradient;
        // Input A: all 8 cells hit index 0. Input B: 8 distinct indices.
        let a = SparseGradient { dense_dim: 16, indices: vec![0; 8], values: vec![1.0; 8] };
        let b = SparseGradient { dense_dim: 16, indices: (0..8).collect(), values: vec![1.0; 8] };
        // (Duplicate indices within one client do not occur in top-k, but
        // the aggregate over clients routinely repeats indices; a single
        // update with repeats models the worst-case skew compactly.)
        let inputs = vec![concat_cells(&[a]), concat_cells(&[b])];
        assert_oblivious(Granularity::Element, &inputs, |cells, tr| {
            aggregate_advanced(cells, 16, 1, tr);
        });
    }

    #[test]
    fn trace_grows_with_shape_only() {
        use olive_memsim::RecordingTracer;
        let t = |n: usize, k: usize, d: usize| {
            let updates = random_updates(n, k, d, 3);
            let mut tr = RecordingTracer::new(Granularity::Element);
            aggregate_advanced(&concat_cells(&updates), d, n, &mut tr);
            tr.stats().total()
        };
        // The sort vector pads to a power of two, so compare across a
        // padding boundary: 16+64 → 128 cells vs 200+64 → 512 cells.
        assert!(t(1, 16, 64) < t(4, 50, 64));
        assert!(t(1, 16, 64) < t(1, 16, 256));
        // The trace is a function of (nk, d) only — shape, not content,
        // and not the n/k split: 1×16 and 2×8 uploads are both 16 cells.
        assert_eq!(t(1, 16, 64), t(2, 8, 64));
    }

    /// Algorithm 4 with two full sorts over the `next_pow2(nk + d)`-cell
    /// vector — the textbook form [`sum_advanced`] must match bit for bit.
    fn sum_two_sorts(cells: &[u64], d: usize) -> Vec<f32> {
        use olive_oblivious::sort_kernel::bitonic_sort_u64_pow2_with_threads;
        let mut v = cells.to_vec();
        v.extend((0..d as u32).map(|j| make_cell(j, 0.0)));
        v.resize(next_pow2(cells.len() + d), dummy_cell());
        let mut g = TrackedBuf::new(REGION_SCRATCH, v);
        bitonic_sort_u64_pow2_with_threads(&mut g, 1, &mut NullTracer);
        fold_runs(&mut g, &mut NullTracer);
        bitonic_sort_u64_pow2_with_threads(&mut g, 1, &mut NullTracer);
        take_survivors(&g, d, &mut NullTracer).into_inner()
    }

    /// Raw cells a hostile caller of the cell API could hand in: mostly
    /// in-range indices, plus out-of-range ones from `d` up to `u32::MAX`
    /// (the dummy index, here with non-zero values that sort *behind* the
    /// dummy cell), and NaN, ±0 and ±∞ value bits. Indices repeat and come
    /// unsorted.
    fn hostile_cells(nk: usize, d: usize, seed: u64) -> Vec<u64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let specials = [
            f32::NAN.to_bits(),
            0x7fa0_0001, // a signalling NaN payload
            0.0f32.to_bits(),
            (-0.0f32).to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
        ];
        (0..nk)
            .map(|_| {
                let idx = match rng.gen_range(0..12u32) {
                    0 => u32::MAX,
                    1 => d as u32 + rng.gen_range(0..3u32), // just past the range
                    2 => rng.gen_range(d as u32..=u32::MAX),
                    _ => rng.gen_range(0..d.max(1) as u32),
                };
                let val = match rng.gen_range(0..6u32) {
                    0 => specials[rng.gen_range(0..specials.len())],
                    1 => rng.gen(),
                    _ => rng.gen_range(-2.0f32..2.0).to_bits(),
                };
                ((idx as u64) << 32) | val as u64
            })
            .collect()
    }

    fn assert_matches_two_sorts(nk: usize, d: usize, threads: usize, seed: u64) {
        let cells = hostile_cells(nk, d, seed);
        // Steps 1–2 produce exactly the fully sorted vector.
        let mut expected = cells.clone();
        expected.extend((0..d as u32).map(|j| make_cell(j, 0.0)));
        expected.resize(next_pow2(nk + d), dummy_cell());
        expected.sort_unstable();
        let sorted = sorted_with_ramp(&cells, d, threads, &mut NullTracer).into_inner();
        assert!(sorted == expected, "sorted vector differs: nk={nk} d={d} seed={seed}");
        // And the sums are bitwise those of the two-sort form.
        let got = sum_advanced(&cells, d, threads, &mut NullTracer).into_inner();
        let want = sum_two_sorts(&cells, d);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(&got) == bits(&want), "sums differ: nk={nk} d={d} seed={seed}");
    }

    #[test]
    fn matches_two_sorts_at_edge_shapes() {
        for (nk, d) in [
            (0usize, 1usize), // no uploads
            (0, 64),          // nk + d = 2^6 with nothing to merge in
            (1, 1),
            (100, 28),     // nk + d = 2^7
            (300, 40),     // nk > d
            (4096, 4096),  // nk + d = 2^13, q = P/2
            (5000, 26000), // next_pow2(nk) + d > P: the ramp overwrites prefix padding
        ] {
            assert_matches_two_sorts(nk, d, 2, nk as u64 ^ d as u64);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_two_sorts_bitwise(nk in 0usize..400, d in 1usize..300, seed in 0u64..u64::MAX) {
            assert_matches_two_sorts(nk, d, 1, seed);
        }
    }
}
