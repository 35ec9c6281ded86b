//! Differential properties of the batched sort kernel against the scalar
//! reference network: bitwise-identical outputs and digest-identical
//! traces at every thread count and observation granularity, plus the
//! Batcher comparator-count identity under block trace events.

use olive_memsim::{assert_oblivious, Granularity, NullTracer, RecordingTracer, TrackedBuf};
use olive_oblivious::sort_kernel::{
    bitonic_merge_u64_pow2_with, bitonic_sort_keyed_pow2_with, bitonic_sort_tagged_pow2_with,
    bitonic_sort_u64_pow2_with, bitonic_sort_u64_prefix_pow2_with, SortKernel,
};
use olive_oblivious::{bitonic_sort_pow2, o_select};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn random_words(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Duplicate-heavy cells: equal-key comparators must take the same swap
/// decision in both kernels for outputs to match bitwise.
fn clustered_words(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| (rng.gen_range(0..16u64) << 32) | rng.gen::<u32>() as u64).collect()
}

#[test]
fn outputs_bitwise_identical_u64() {
    // 8192 comfortably exceeds the kernel's internal parallelism
    // threshold, so threads ∈ {2, 8} genuinely run the barrier path.
    for n in [1usize, 2, 4, 32, 256, 1024, 8192] {
        for (seed, gen) in
            [(1u64, random_words as fn(usize, u64) -> Vec<u64>), (2, clustered_words)]
        {
            let data = gen(n, seed ^ n as u64);
            let mut scalar = TrackedBuf::new(0, data.clone());
            bitonic_sort_u64_pow2_with(&mut scalar, SortKernel::Scalar, 1, &mut NullTracer);
            for threads in THREAD_COUNTS {
                let mut batched = TrackedBuf::new(0, data.clone());
                bitonic_sort_u64_pow2_with(
                    &mut batched,
                    SortKernel::Batched,
                    threads,
                    &mut NullTracer,
                );
                assert_eq!(
                    scalar.as_slice_untraced(),
                    batched.as_slice_untraced(),
                    "n={n} threads={threads} seed={seed}"
                );
            }
        }
    }
}

#[test]
fn digests_identical_at_both_granularities_and_every_thread_count() {
    for n in [64usize, 1024, 8192] {
        let data = random_words(n, 11);
        for granularity in [Granularity::Element, Granularity::Cacheline] {
            let mut scalar_tr = RecordingTracer::new(granularity);
            let mut scalar = TrackedBuf::new(9, data.clone());
            bitonic_sort_u64_pow2_with(&mut scalar, SortKernel::Scalar, 1, &mut scalar_tr);
            for threads in THREAD_COUNTS {
                let mut batched_tr = RecordingTracer::new(granularity);
                let mut batched = TrackedBuf::new(9, data.clone());
                bitonic_sort_u64_pow2_with(
                    &mut batched,
                    SortKernel::Batched,
                    threads,
                    &mut batched_tr,
                );
                assert_eq!(
                    batched_tr.digest(),
                    scalar_tr.digest(),
                    "n={n} {granularity:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn keyed_kernel_outputs_and_digests_match_scalar() {
    let mut rng = SmallRng::seed_from_u64(5);
    // (u32, f32) pairs keyed by the index half, with heavy key collisions.
    let data: Vec<(u32, f32)> =
        (0..4096).map(|_| (rng.gen_range(0..32), rng.gen_range(-4.0..4.0))).collect();
    let key = |c: &(u32, f32)| c.0 as u64;
    for granularity in [Granularity::Element, Granularity::Cacheline] {
        let mut scalar_tr = RecordingTracer::new(granularity);
        let mut scalar = TrackedBuf::new(2, data.clone());
        bitonic_sort_pow2(&mut scalar, key, &mut scalar_tr);
        for threads in THREAD_COUNTS {
            let mut batched_tr = RecordingTracer::new(granularity);
            let mut batched = TrackedBuf::new(2, data.clone());
            bitonic_sort_keyed_pow2_with(
                &mut batched,
                key,
                SortKernel::Batched,
                threads,
                &mut batched_tr,
            );
            let a = scalar.as_slice_untraced();
            let b = batched.as_slice_untraced();
            let bitwise_equal = a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
            assert!(bitwise_equal, "{granularity:?} threads={threads}: keyed outputs diverged");
            assert_eq!(
                batched_tr.digest(),
                scalar_tr.digest(),
                "{granularity:?} threads={threads}"
            );
        }
    }
}

#[test]
fn tagged_kernel_digests_match_scalar_at_both_granularities() {
    // The u128 tagged path (the shuffle's layout) must report 16-byte
    // elements identically to the scalar network over the same packed
    // words — a regression in its trace emission (e.g. the wrong element
    // size) would silently shift every shuffle trace.
    let data: Vec<u128> = (0..4096u128)
        .map(|i| ((i.wrapping_mul(0x9e37_79b9) % 64) << 64) | (i & u64::MAX as u128))
        .collect();
    for granularity in [Granularity::Element, Granularity::Cacheline] {
        let mut scalar_tr = RecordingTracer::new(granularity);
        let mut scalar = TrackedBuf::new(4, data.clone());
        bitonic_sort_tagged_pow2_with(&mut scalar, SortKernel::Scalar, 1, &mut scalar_tr);
        for threads in THREAD_COUNTS {
            let mut batched_tr = RecordingTracer::new(granularity);
            let mut batched = TrackedBuf::new(4, data.clone());
            bitonic_sort_tagged_pow2_with(
                &mut batched,
                SortKernel::Batched,
                threads,
                &mut batched_tr,
            );
            assert_eq!(
                batched_tr.digest(),
                scalar_tr.digest(),
                "{granularity:?} threads={threads}"
            );
            assert_eq!(
                scalar.as_slice_untraced(),
                batched.as_slice_untraced(),
                "{granularity:?} threads={threads}: tagged outputs diverged"
            );
        }
    }
}

#[test]
fn batched_kernel_is_oblivious_at_both_granularities() {
    // Definition 2.1 with δ=0, directly on the batched kernel: identical
    // traces for any same-length input, at element and cacheline
    // granularity, serial and threaded.
    // 4096 is exactly the kernel's parallelism threshold, so threads = 4
    // runs the barrier path here.
    let inputs: Vec<Vec<u64>> = vec![
        (0..4096).collect(),
        (0..4096).rev().collect(),
        vec![42; 4096],
        (0..4096).map(|i| i * 7919 % 4096).collect(),
    ];
    for granularity in [Granularity::Element, Granularity::Cacheline] {
        for threads in [1usize, 4] {
            assert_oblivious(granularity, &inputs, |input, tr| {
                let mut buf = TrackedBuf::new(1, input.clone());
                bitonic_sort_u64_pow2_with(&mut buf, SortKernel::Batched, threads, tr);
            });
        }
    }
}

#[test]
fn comparator_count_matches_batcher_under_block_events() {
    // Batcher's network has n/2 · log(n) · (log(n)+1) / 2 comparators,
    // each 2 reads + 2 writes. The batched kernel reports block events;
    // their expansion must land on exactly the same counters.
    for n in [64u64, 1024, 8192] {
        let logn = n.trailing_zeros() as u64;
        let comparators = n / 2 * logn * (logn + 1) / 2;
        for threads in [1usize, 4] {
            let mut tr = RecordingTracer::new(Granularity::Element);
            let mut buf = TrackedBuf::new(0, (0..n).collect::<Vec<u64>>());
            bitonic_sort_u64_pow2_with(&mut buf, SortKernel::Batched, threads, &mut tr);
            assert_eq!(tr.stats().reads, comparators * 2, "n={n} threads={threads}");
            assert_eq!(tr.stats().writes, comparators * 2, "n={n} threads={threads}");
        }
    }
}

/// A bitonic word vector: a sorted run, then a reverse-sorted run, with
/// the turning point anywhere (Algorithm 4's uploads-then-ramp layout).
fn bitonic_words(n: usize, rise: usize, seed: u64) -> Vec<u64> {
    let mut v = clustered_words(n, seed);
    v[..rise].sort_unstable();
    v[rise..].sort_unstable_by(|a, b| b.cmp(a));
    v
}

#[test]
fn merge_sorts_bitonic_input_identically_on_both_kernels() {
    for n in [1usize, 2, 8, 256, 8192] {
        for rise in [0, n / 3, n / 2, n] {
            let data = bitonic_words(n, rise, n as u64 ^ rise as u64);
            let mut expected = data.clone();
            expected.sort_unstable();
            for granularity in [Granularity::Element, Granularity::Cacheline] {
                let mut scalar_tr = RecordingTracer::new(granularity);
                let mut scalar = TrackedBuf::new(6, data.clone());
                bitonic_merge_u64_pow2_with(&mut scalar, SortKernel::Scalar, 1, &mut scalar_tr);
                assert_eq!(scalar.as_slice_untraced(), &expected[..], "n={n} rise={rise}");
                for threads in THREAD_COUNTS {
                    let mut batched_tr = RecordingTracer::new(granularity);
                    let mut batched = TrackedBuf::new(6, data.clone());
                    bitonic_merge_u64_pow2_with(
                        &mut batched,
                        SortKernel::Batched,
                        threads,
                        &mut batched_tr,
                    );
                    assert_eq!(batched.as_slice_untraced(), &expected[..], "n={n} rise={rise}");
                    assert_eq!(
                        batched_tr.digest(),
                        scalar_tr.digest(),
                        "n={n} {granularity:?} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn merge_runs_only_the_final_round() {
    // log2(n) stages of n/2 comparators, each 2 reads + 2 writes.
    for n in [64u64, 1024, 8192] {
        let logn = n.trailing_zeros() as u64;
        for kernel in [SortKernel::Scalar, SortKernel::Batched] {
            let mut tr = RecordingTracer::new(Granularity::Element);
            let mut buf = TrackedBuf::new(0, (0..n).collect::<Vec<u64>>());
            bitonic_merge_u64_pow2_with(&mut buf, kernel, 2, &mut tr);
            assert_eq!(tr.stats().reads, logn * n / 2 * 2, "n={n} {kernel:?}");
            assert_eq!(tr.stats().writes, logn * n / 2 * 2, "n={n} {kernel:?}");
        }
    }
}

#[test]
fn prefix_sort_touches_only_the_prefix() {
    // A prefix sort is a full sort of the first `len` cells: same output,
    // same trace (same region, offsets 0..len), the tail untouched.
    let data = random_words(4096, 13);
    for len in [1usize, 64, 1024] {
        let mut expected = data.clone();
        expected[..len].sort_unstable();
        let mut full_tr = RecordingTracer::new(Granularity::Element);
        let mut full = TrackedBuf::new(7, data[..len].to_vec());
        bitonic_sort_u64_pow2_with(&mut full, SortKernel::Scalar, 1, &mut full_tr);
        for kernel in [SortKernel::Scalar, SortKernel::Batched] {
            for threads in THREAD_COUNTS {
                let mut tr = RecordingTracer::new(Granularity::Element);
                let mut buf = TrackedBuf::new(7, data.clone());
                bitonic_sort_u64_prefix_pow2_with(&mut buf, len, kernel, threads, &mut tr);
                assert_eq!(buf.as_slice_untraced(), &expected[..], "len={len} {kernel:?}");
                assert_eq!(tr.digest(), full_tr.digest(), "len={len} {kernel:?} t={threads}");
            }
        }
    }
}

#[test]
fn default_entry_points_sort_correctly() {
    // The env-dispatched wrappers (whatever OLIVE_SORT_KERNEL says) must
    // sort; this is the path production aggregation takes.
    let data = clustered_words(2048, 3);
    let mut expected = data.clone();
    expected.sort_unstable();
    let mut buf = TrackedBuf::new(0, data);
    olive_oblivious::bitonic_sort_u64_pow2(&mut buf, &mut NullTracer);
    assert_eq!(buf.into_inner(), expected);

    // Sanity: o_select remains the tie-free primitive underneath the
    // scalar reference the differential tests compare against.
    assert_eq!(o_select(true, 1u64, 2), 1);
}
