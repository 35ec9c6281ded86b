//! Sparsified gradient representation and selection policies.
//!
//! Clients encode their local model delta as `(index, value)` pairs
//! (Section 2.1). Top-k keeps the k largest-magnitude coordinates — the
//! standard, *data-dependent* policy whose index set the paper's attack
//! exploits; random-k is the data-independent alternative (ref. 24) that
//! leaks nothing by construction; threshold keeps everything above a
//! magnitude cutoff (variable k, ref. 65).

use std::cell::RefCell;

use rand::Rng;

/// A sparsified gradient: `k` of `d` coordinates as parallel index/value
/// arrays, sorted by index.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseGradient {
    /// Dense dimension d.
    pub dense_dim: usize,
    /// Kept coordinate indices (strictly increasing).
    pub indices: Vec<u32>,
    /// Values aligned with `indices`.
    pub values: Vec<f32>,
}

/// Sparsification policy (the paper's `TopkSparse` plus the alternatives
/// discussed in Sections 2.1 and 3.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sparsifier {
    /// Keep the k largest-|value| coordinates (data-dependent, leaky).
    /// Ranking is |value| descending under `f32::total_cmp` (NaN above
    /// ±∞), then index ascending, so the kept set is a function of the
    /// dense vector alone: of two tied magnitudes straddling the k-th
    /// place, the lower index is kept.
    TopK(usize),
    /// Keep k uniformly random coordinates (data-independent: the index
    /// set is uncorrelated with training data, so index leakage is
    /// harmless — the paper's Section 3.3 "random-k involves no risk").
    RandomK(usize),
    /// Keep coordinates with |value| ≥ threshold.
    Threshold(f32),
}

impl SparseGradient {
    /// Number of transmitted coordinates k.
    pub fn k(&self) -> usize {
        self.indices.len()
    }

    /// Applies a sparsification policy to a dense vector. Top-k selection
    /// runs in expected O(d) on buffers each thread keeps between calls.
    pub fn from_dense<R: Rng>(dense: &[f32], policy: Sparsifier, rng: &mut R) -> Self {
        let d = dense.len();
        let mut idxs: Vec<u32> = match policy {
            Sparsifier::TopK(k) => {
                TOPK_SCRATCH.with_borrow_mut(|scratch| top_k_indices(dense, k, scratch))
            }
            Sparsifier::RandomK(k) => {
                let k = k.min(d);
                // Partial Fisher–Yates over the index range.
                let mut order: Vec<u32> = (0..d as u32).collect();
                for t in 0..k {
                    let j = rng.gen_range(t..d);
                    order.swap(t, j);
                }
                order.truncate(k);
                order
            }
            Sparsifier::Threshold(t) => {
                (0..d as u32).filter(|&i| dense[i as usize].abs() >= t).collect()
            }
        };
        idxs.sort_unstable();
        let values = idxs.iter().map(|&i| dense[i as usize]).collect();
        SparseGradient { dense_dim: d, indices: idxs, values }
    }

    /// Densifies back to `d` coordinates (zeros elsewhere).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_dim];
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v;
        }
        out
    }

    /// ℓ2 norm of the kept values.
    pub fn l2_norm(&self) -> f32 {
        olive_dp::l2_norm(&self.values)
    }

    /// Scales all values in place (used for clipping).
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Clips the value vector to ℓ2 norm at most `c` (Algorithm 6 line 22;
    /// with sparsification only the k kept values contribute to the norm —
    /// the utility observation of Appendix D.2).
    pub fn clip_l2(&mut self, c: f32) {
        let norm = self.l2_norm();
        if norm > c {
            self.scale(c / norm);
        }
    }

    /// Serializes to the wire format the client encrypts:
    /// `d:u32 ‖ k:u32 ‖ (index:u32 ‖ value:f32-bits)×k`, little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.k() * 8);
        out.extend_from_slice(&(self.dense_dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.k() as u32).to_le_bytes());
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    /// Parses the wire format. Returns `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let d = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let k = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        if bytes.len() != 8 + k * 8 {
            return None;
        }
        let mut indices = Vec::with_capacity(k);
        let mut values = Vec::with_capacity(k);
        for c in 0..k {
            let off = 8 + c * 8;
            let i = u32::from_le_bytes(bytes[off..off + 4].try_into().ok()?);
            if i as usize >= d {
                return None;
            }
            indices.push(i);
            values
                .push(f32::from_bits(u32::from_le_bytes(bytes[off + 4..off + 8].try_into().ok()?)));
        }
        Some(SparseGradient { dense_dim: d, indices, values })
    }

    /// Packs each coordinate into one u64 cell `(index << 32) | value_bits`
    /// — the 8-byte gradient cell of Section 5.5's memory-size analysis,
    /// and the unit the oblivious sort operates on.
    pub fn to_cells(&self) -> Vec<u64> {
        self.indices
            .iter()
            .zip(self.values.iter())
            .map(|(&i, &v)| ((i as u64) << 32) | v.to_bits() as u64)
            .collect()
    }
}

/// Unpacks a u64 cell into `(index, value)`.
#[inline]
pub fn cell_parts(cell: u64) -> (u32, f32) {
    ((cell >> 32) as u32, f32::from_bits(cell as u32))
}

/// Reusable buffers for [`Sparsifier::TopK`] selection: about 4 096
/// sampled keys and, typically, about 1.5k threshold survivors (up to d
/// when ties crowd the threshold).
#[derive(Default)]
struct TopKScratch {
    /// Strided sample of keys for the threshold estimate.
    sample: Vec<u32>,
    /// Threshold survivors, packed `(key << 32) | !index`.
    survivors: Vec<u64>,
}

thread_local! {
    static TOPK_SCRATCH: RefCell<TopKScratch> = RefCell::default();
}

/// Target size of the strided sample behind the threshold estimate.
const TOPK_SAMPLE: usize = 4096;

/// Block length of the threshold pass: each block's keys are tested
/// against the threshold branch-free (this vectorizes) and only blocks
/// holding a survivor are scanned.
const TOPK_BLOCK: usize = 64;

/// Sort key of |v|: its bits with the sign cleared. As a `u32` this orders
/// exactly as `v.abs().total_cmp`, NaN and ±∞ included.
#[inline]
fn abs_key(v: f32) -> u32 {
    v.to_bits() & 0x7fff_ffff
}

/// The top-k index set of `dense` under the [`Sparsifier::TopK`] ranking,
/// in no particular order. Expected O(d):
///
/// 1. a threshold key is read off a strided sample of about
///    [`TOPK_SAMPLE`] keys, placed so about 1.5k coordinates reach it;
/// 2. one pass keeps every coordinate whose key reaches the threshold,
///    packed as `(key << 32) | !index` so that one `u64` comparison is the
///    whole ranking; with fewer than k survivors the threshold is lowered
///    and the pass repeated (rare);
/// 3. an exact selection over the survivors picks the k largest cells.
///
/// Exact whatever the estimate: any k survivors all reach the threshold,
/// so every member of the true top k does too.
fn top_k_indices(dense: &[f32], k: usize, scratch: &mut TopKScratch) -> Vec<u32> {
    let d = dense.len();
    if k >= d {
        return (0..d as u32).collect();
    }
    if k == 0 {
        return Vec::new();
    }
    let TopKScratch { sample, survivors } = scratch;
    sample.clear();
    sample.extend(dense.iter().step_by((d / TOPK_SAMPLE).max(1)).map(|&v| abs_key(v)));
    // Sample rank of the k-th largest, plus 50% and three standard
    // deviations of headroom.
    let expect = k as f64 * sample.len() as f64 / d as f64;
    let mut rank = (1.5 * expect + 3.0 * expect.sqrt()) as usize + 1;
    loop {
        let threshold = if rank < sample.len() {
            *sample.select_nth_unstable_by(rank, |a, b| b.cmp(a)).1
        } else {
            0
        };
        survivors.clear();
        for (b, block) in dense.chunks(TOPK_BLOCK).enumerate() {
            // Keys fit in 31 bits, so the signed compare (SSE2 has no
            // unsigned one) orders them exactly.
            let hits = block
                .iter()
                .fold(0u32, |n, &v| n + u32::from(abs_key(v) as i32 >= threshold as i32));
            if hits == 0 {
                continue;
            }
            let base = (b * TOPK_BLOCK) as u32;
            for (j, &v) in block.iter().enumerate() {
                let key = abs_key(v);
                if key >= threshold {
                    survivors.push((u64::from(key) << 32) | u64::from(!(base + j as u32)));
                }
            }
        }
        if survivors.len() >= k {
            break;
        }
        rank *= 4;
    }
    let c = survivors.len();
    survivors.select_nth_unstable(c - k);
    survivors[c - k..].iter().map(|&cell| !(cell as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let dense = vec![0.1f32, -5.0, 0.0, 3.0, -0.2, 4.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(3), &mut rng());
        assert_eq!(sg.indices, vec![1, 3, 5]);
        assert_eq!(sg.values, vec![-5.0, 3.0, 4.0]);
    }

    #[test]
    fn topk_empty_input_and_zero_k() {
        for k in [0, 1, 5] {
            let sg = SparseGradient::from_dense(&[], Sparsifier::TopK(k), &mut rng());
            assert_eq!((sg.dense_dim, sg.k()), (0, 0));
        }
        let sg = SparseGradient::from_dense(&[1.0f32, -2.0, 3.0], Sparsifier::TopK(0), &mut rng());
        assert_eq!((sg.dense_dim, sg.k()), (3, 0));
    }

    #[test]
    fn topk_ties_keep_lower_index() {
        // |v| = 2 four times (both signs) around the 3rd place: after the
        // strict winner 9.0, the two lowest indices among the ties win.
        let dense = vec![0.5f32, 2.0, -9.0, -2.0, 1.0, 2.0, -2.0, 0.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(3), &mut rng());
        assert_eq!(sg.indices, vec![1, 2, 3]);
        assert_eq!(sg.values, vec![2.0, -9.0, -2.0]);
        // Same magnitudes with the signs swapped: the same index set.
        let flipped: Vec<f32> = dense.iter().map(|v| -v).collect();
        let sg = SparseGradient::from_dense(&flipped, Sparsifier::TopK(4), &mut rng());
        assert_eq!(sg.indices, vec![1, 2, 3, 5]);
    }

    /// Reference ranking: a full sort by |v| descending under `total_cmp`
    /// (independent of the selector's bit-key trick), then index ascending.
    fn reference_ranking(dense: &[f32]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..dense.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let abs = |i: u32| dense[i as usize].abs();
            abs(b).total_cmp(&abs(a)).then(a.cmp(&b))
        });
        order
    }

    /// Top-k against the first k of `ranking`, indices and value bits.
    fn assert_matches_reference(dense: &[f32], ranking: &[u32], k: usize) {
        let sg = SparseGradient::from_dense(dense, Sparsifier::TopK(k), &mut rng());
        let mut want = ranking[..k.min(ranking.len())].to_vec();
        want.sort_unstable();
        assert_eq!(sg.indices, want, "d = {}, k = {k}", dense.len());
        let got: Vec<u32> = sg.values.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|&i| dense[i as usize].to_bits()).collect();
        assert_eq!(got, want, "values differ at d = {}, k = {k}", dense.len());
    }

    #[test]
    fn topk_matches_reference_sort() {
        let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        let mut r = SmallRng::seed_from_u64(0x70C4);
        for case in 0..120 {
            // Small, block-straddling and strided-sample sizes.
            let d: usize = match case % 4 {
                0 => r.gen_range(1..40),
                1 => r.gen_range(900..2100),
                _ => r.gen_range(4000..20000),
            };
            let mut dense: Vec<f32> = (0..d).map(|_| r.gen_range(-1.0f32..1.0)).collect();
            for _ in 0..d / 8 + 1 {
                let (i, j) = (r.gen_range(0..d), r.gen_range(0..d));
                dense[i] = match r.gen_range(0..4u32) {
                    0 => -dense[j],
                    1 => dense[j],
                    2 => specials[r.gen_range(0..specials.len())],
                    _ => f32::from_bits(r.gen::<u32>()),
                };
            }
            if case % 5 == 0 {
                // Coarse magnitudes: large tie classes everywhere.
                dense.iter_mut().for_each(|v| *v = (*v * 4.0).round() / 4.0);
            }
            let ranking = reference_ranking(&dense);
            let frac = r.gen_range(1..d.max(2));
            for k in [0, 1, frac, d / 100, d - 1, d, d + 5] {
                assert_matches_reference(&dense, &ranking, k);
            }
        }
    }

    #[test]
    fn topk_exact_when_sample_overestimates_threshold() {
        // Large values exactly on the sample stride, small ones elsewhere:
        // the first threshold admits fewer than k and must be lowered.
        let d = 40_960;
        let stride = d / TOPK_SAMPLE;
        let dense: Vec<f32> = (0..d)
            .map(|i| if i % stride == 0 { 10.0 + i as f32 } else { i as f32 / d as f32 })
            .collect();
        let ranking = reference_ranking(&dense);
        for k in [500, 4096, 5000, 20_000] {
            assert_matches_reference(&dense, &ranking, k);
        }
    }

    #[test]
    fn topk_k_larger_than_d() {
        let dense = vec![1.0f32, 2.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(10), &mut rng());
        assert_eq!(sg.k(), 2);
    }

    #[test]
    fn random_k_distinct_sorted_indices() {
        let dense = vec![1.0f32; 100];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::RandomK(10), &mut rng());
        assert_eq!(sg.k(), 10);
        for w in sg.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn random_k_is_data_independent() {
        // Identical RNG streams → identical index sets for different data.
        let a = SparseGradient::from_dense(&[1.0f32; 50], Sparsifier::RandomK(5), &mut rng());
        let data_b: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let b = SparseGradient::from_dense(&data_b, Sparsifier::RandomK(5), &mut rng());
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    fn threshold_policy() {
        let dense = vec![0.1f32, -2.0, 0.5, 3.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::Threshold(0.5), &mut rng());
        assert_eq!(sg.indices, vec![1, 2, 3]);
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![0.0f32, -1.5, 0.0, 2.5, 0.0];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(2), &mut rng());
        assert_eq!(sg.to_dense(), dense);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dense = vec![0.5f32, -1.5, 0.0, 2.5];
        let sg = SparseGradient::from_dense(&dense, Sparsifier::TopK(3), &mut rng());
        let bytes = sg.encode();
        assert_eq!(SparseGradient::decode(&bytes).unwrap(), sg);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(SparseGradient::decode(&[]).is_none());
        assert!(SparseGradient::decode(&[0; 7]).is_none());
        // k claims more cells than present.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]); // only one cell
        assert!(SparseGradient::decode(&bytes).is_none());
        // Index out of range.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
        assert!(SparseGradient::decode(&bytes).is_none());
    }

    #[test]
    fn clip_bounds_norm() {
        let mut sg = SparseGradient { dense_dim: 4, indices: vec![0, 1], values: vec![3.0, 4.0] };
        sg.clip_l2(1.0);
        assert!((sg.l2_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cells_pack_unpack() {
        let sg = SparseGradient { dense_dim: 100, indices: vec![7, 42], values: vec![-0.25, 3.5] };
        let cells = sg.to_cells();
        assert_eq!(cell_parts(cells[0]), (7, -0.25));
        assert_eq!(cell_parts(cells[1]), (42, 3.5));
    }

    #[test]
    fn topk_index_set_correlates_with_data() {
        // The heart of the attack: two different "clients" (dense vectors
        // with energy in different coordinate blocks) produce disjoint
        // top-k index sets.
        let mut a = vec![0.01f32; 100];
        let mut b = vec![0.01f32; 100];
        for i in 0..10 {
            a[i] = 1.0 + i as f32;
            b[50 + i] = 1.0 + i as f32;
        }
        let sa = SparseGradient::from_dense(&a, Sparsifier::TopK(10), &mut rng());
        let sb = SparseGradient::from_dense(&b, Sparsifier::TopK(10), &mut rng());
        assert!(sa.indices.iter().all(|i| *i < 10));
        assert!(sb.indices.iter().all(|i| *i >= 50 && *i < 60));
    }
}
