//! Batcher's bitonic sorting network (the paper's oblivious sort, ref.\[8\]).
//!
//! A sorting network performs the same sequence of compare-exchanges
//! whatever the data; each compare-exchange reads both cells, conditionally
//! swaps in registers via [`o_swap`], and writes both cells back. The
//! resulting memory trace is a pure function of the input *length* — the
//! property Algorithm 4's proof (Proposition 5.2) relies on.
//!
//! Complexity: O(n log² n) comparators, exactly as cited in Section 5.2.

use olive_memsim::{Tracer, TrackedBuf};

use crate::primitives::{o_swap, Oblivious};

/// Smallest power of two ≥ `n` (with `next_pow2(0) == 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Sorts `buf` (length must be a power of two) ascending by `key`.
///
/// Every compare-exchange touches memory identically regardless of input
/// data: read i, read j, write i, write j.
pub fn bitonic_sort_pow2<T, K, TR>(buf: &mut TrackedBuf<T>, key: K, tr: &mut TR)
where
    T: Oblivious,
    K: Fn(&T) -> u64,
    TR: Tracer,
{
    let n = buf.len();
    assert!(n.is_power_of_two(), "bitonic_sort_pow2 requires power-of-two length, got {n}");
    bitonic_rounds(buf, n, 2, key, tr);
}

/// Runs rounds `k = k_first, 2·k_first, …, n` of the `n`-cell network over
/// `buf[0..n]` (`n` and `k_first` powers of two): `k_first = 2` sorts the
/// prefix, `k_first = n` merges a bitonic prefix (non-decreasing then
/// non-increasing) with log₂ n stages instead of log₂ n·(log₂ n + 1)/2.
pub(crate) fn bitonic_rounds<T, K, TR>(
    buf: &mut TrackedBuf<T>,
    n: usize,
    k_first: usize,
    key: K,
    tr: &mut TR,
) where
    T: Oblivious,
    K: Fn(&T) -> u64,
    TR: Tracer,
{
    if n <= 1 {
        return;
    }
    let mut k = k_first;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..n {
                let l = i ^ j;
                if l > i {
                    let ascending = (i & k) == 0;
                    let (mut a, mut b) = buf.read_pair(i, l, tr);
                    let out_of_order = (key(&a) > key(&b)) == ascending;
                    o_swap(out_of_order, &mut a, &mut b);
                    buf.write_pair(i, a, l, b, tr);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Sorts an arbitrary-length vector ascending by `key`, padding to the next
/// power of two with `pad` (which must sort to the back, i.e. have maximal
/// key) and truncating afterwards.
///
/// The trace depends only on `data.len()` — padding is a fixed function of
/// the length.
pub fn bitonic_sort_by_key<T, K, TR>(
    region: u32,
    data: Vec<T>,
    pad: T,
    key: K,
    tr: &mut TR,
) -> Vec<T>
where
    T: Oblivious,
    K: Fn(&T) -> u64,
    TR: Tracer,
{
    let n = data.len();
    debug_assert!(
        n == 0 || key(&pad) == u64::MAX || n.is_power_of_two(),
        "padding cells should carry a maximal key so they sort behind real data"
    );
    let padded = next_pow2(n);
    let mut v = data;
    v.resize(padded, pad);
    let mut buf = TrackedBuf::new(region, v);
    bitonic_sort_pow2(&mut buf, key, tr);
    let mut out = buf.into_inner();
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_memsim::{assert_oblivious, Granularity, NullTracer, RecordingTracer};

    fn sort_u64s(v: Vec<u64>) -> Vec<u64> {
        bitonic_sort_by_key(0, v, u64::MAX, |x| *x, &mut NullTracer)
    }

    #[test]
    fn sorts_small_cases() {
        assert_eq!(sort_u64s(vec![]), vec![]);
        assert_eq!(sort_u64s(vec![5]), vec![5]);
        assert_eq!(sort_u64s(vec![2, 1]), vec![1, 2]);
        assert_eq!(sort_u64s(vec![3, 1, 2, 0]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sorts_with_duplicates() {
        assert_eq!(sort_u64s(vec![2, 2, 1, 1, 3, 3, 0, 0]), vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn arbitrary_length_with_padding() {
        let data = vec![9u64, 3, 7, 1, 8, 2, 6];
        let out = bitonic_sort_by_key(0, data, u64::MAX, |x| *x, &mut NullTracer);
        assert_eq!(out, vec![1, 2, 3, 6, 7, 8, 9]);
    }

    #[test]
    fn sorts_pairs_by_index() {
        let data: Vec<(u32, f32)> = vec![(5, 0.5), (1, 0.1), (3, 0.3), (1, 0.11)];
        let out = bitonic_sort_by_key(0, data, (u32::MAX, 0.0), |c| c.0 as u64, &mut NullTracer);
        let idxs: Vec<u32> = out.iter().map(|c| c.0).collect();
        assert_eq!(idxs, vec![1, 1, 3, 5]);
    }

    #[test]
    fn trace_depends_only_on_length() {
        // Definition 2.1 with δ=0: identical traces for any same-length input.
        let inputs: Vec<Vec<u64>> = vec![
            (0..64).collect(),
            (0..64).rev().collect(),
            vec![42; 64],
            (0..64).map(|i| i * 7919 % 64).collect(),
        ];
        assert_oblivious(Granularity::Element, &inputs, |input, tr| {
            let mut buf = TrackedBuf::new(1, input.clone());
            bitonic_sort_pow2(&mut buf, |x| *x, tr);
        });
        assert_oblivious(Granularity::Cacheline, &inputs, |input, tr| {
            let mut buf = TrackedBuf::new(1, input.clone());
            bitonic_sort_pow2(&mut buf, |x| *x, tr);
        });
    }

    #[test]
    fn comparator_count_matches_batcher() {
        // Batcher's network has n/2 * log(n) * (log(n)+1) / 2 comparators;
        // each performs 2 reads + 2 writes.
        let n = 64u64;
        let logn = 6u64;
        let comparators = n / 2 * logn * (logn + 1) / 2;
        let mut tr = RecordingTracer::new(Granularity::Element);
        let mut buf = TrackedBuf::new(0, (0..n).collect::<Vec<u64>>());
        bitonic_sort_pow2(&mut buf, |x| *x, &mut tr);
        assert_eq!(tr.stats().reads, comparators * 2);
        assert_eq!(tr.stats().writes, comparators * 2);
    }

    #[test]
    fn random_inputs_match_std_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for len in [1usize, 2, 5, 31, 32, 100, 255, 1000] {
            let data: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1000)).collect();
            let mut expected = data.clone();
            expected.sort_unstable();
            let out = bitonic_sort_by_key(0, data, u64::MAX, |x| *x, &mut NullTracer);
            assert_eq!(out, expected, "len {len}");
        }
    }
}
