//! Criterion microbench: the cost of obliviousness at the primitive level
//! (o_select vs branch; bitonic network vs std unstable sort), plus the
//! sort-kernel matrix (scalar reference vs batched vs batched+threads),
//! plus Algorithm 4's merge round and survivor compaction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_memsim::{NullTracer, TrackedBuf};
use olive_oblivious::compact::ocompact_u64;
use olive_oblivious::sort::bitonic_sort_pow2;
use olive_oblivious::sort_kernel::{
    bitonic_merge_u64_pow2_with_threads, bitonic_sort_u64_pow2_with, SortKernel,
};
use olive_oblivious::{o_scan_read, o_select};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_select(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(0);
    let data: Vec<(bool, u64, u64)> =
        (0..1024).map(|_| (rng.gen(), rng.gen(), rng.gen())).collect();
    c.bench_function("o_select_u64_1024", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(f, x, y) in &data {
                acc ^= o_select(f, x, y);
            }
            acc
        })
    });
    c.bench_function("branch_select_1024", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(f, x, y) in &data {
                acc ^= if std::hint::black_box(f) { x } else { y };
            }
            acc
        })
    });
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    for n in [1usize << 12, 1 << 16] {
        let mut rng = SmallRng::seed_from_u64(1);
        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        // The historical headline number: the process-default kernel
        // (batched unless OLIVE_SORT_KERNEL=scalar), single-threaded —
        // comparable against the PR 1 baselines in CHANGES.md.
        group.bench_with_input(BenchmarkId::new("bitonic_oblivious", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = TrackedBuf::new(0, data.clone());
                olive_oblivious::bitonic_sort_u64_pow2_with_threads(&mut buf, 1, &mut NullTracer);
                buf.into_inner()
            })
        });
        group.bench_with_input(BenchmarkId::new("std_unstable", n), &n, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                v.sort_unstable();
                v
            })
        });
    }
    group.finish();
}

/// The sort-kernel matrix: scalar reference vs batched (1 thread) vs
/// batched + threads (`batched_threads`, at the process-default
/// `OLIVE_THREADS` count), at n ∈ {2¹², 2¹⁶, 2²⁰}. The scalar reference
/// is skipped at 2²⁰ unless `OLIVE_BENCH_FULL=1` (it alone would
/// dominate the bench wall-clock ~20×).
fn bench_sort_kernels(c: &mut Criterion) {
    let full = std::env::var("OLIVE_BENCH_FULL").as_deref() == Ok("1");
    let threads = olive_memsim::default_threads();
    let mut group = c.benchmark_group("sort_kernel");
    group.sample_size(10);
    for n in [1usize << 12, 1 << 16, 1 << 20] {
        let mut rng = SmallRng::seed_from_u64(1);
        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        if n <= 1 << 16 || full {
            group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
                b.iter(|| {
                    let mut buf = TrackedBuf::new(0, data.clone());
                    bitonic_sort_pow2(&mut buf, |x| *x, &mut NullTracer);
                    buf.into_inner()
                })
            });
        } else {
            println!(
                "bench: sort_kernel/scalar/{n} ... skipped (set OLIVE_BENCH_FULL=1 to run the \
                 scalar reference at this size)"
            );
        }
        group.bench_with_input(BenchmarkId::new("batched_t1", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = TrackedBuf::new(0, data.clone());
                bitonic_sort_u64_pow2_with(&mut buf, SortKernel::Batched, 1, &mut NullTracer);
                buf.into_inner()
            })
        });
        // A machine-independent id (the count varies per machine and per
        // OLIVE_THREADS) so JSON entries and skip lines correlate.
        if threads > 1 {
            group.bench_with_input(BenchmarkId::new("batched_threads", n), &n, |b, _| {
                b.iter(|| {
                    let mut buf = TrackedBuf::new(0, data.clone());
                    bitonic_sort_u64_pow2_with(
                        &mut buf,
                        SortKernel::Batched,
                        threads,
                        &mut NullTracer,
                    );
                    buf.into_inner()
                })
            });
        } else {
            println!(
                "bench: sort_kernel/batched_threads/{n} ... skipped \
                 (thread count is 1; would equal batched_t1)"
            );
        }
    }
    group.finish();
}

/// Algorithm 4's two replacements for a full sort, single-threaded at the
/// Grouped (h = 32, d = 18 010 → 2¹⁵) and paper-scale (2¹⁸) vector sizes:
/// the final merge round over a bitonic input, and the compaction of `n/2`
/// survivors spread one every other slot (shifts up to `n/2`, log₂ n
/// levels). Each iteration refills one buffer instead of allocating, so
/// the figure is the kernel plus one copy. Informational only — not on
/// the `bench_gate` allowlist.
fn bench_merge_and_compact(c: &mut Criterion) {
    const FILL: u64 = 0xFFFF_FFFF_0000_0000;
    let mut merge = c.benchmark_group("bitonic_merge");
    merge.sample_size(10);
    for n in [1usize << 15, 1 << 18] {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        data[..n / 4].sort_unstable();
        data[n / 4..].sort_unstable_by(|a, b| b.cmp(a));
        let mut buf = TrackedBuf::new(0, data.clone());
        merge.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                buf.as_mut_slice_untraced().copy_from_slice(&data);
                bitonic_merge_u64_pow2_with_threads(&mut buf, 1, &mut NullTracer);
                buf.as_slice_untraced()[0]
            })
        });
    }
    merge.finish();
    let mut compact = c.benchmark_group("ocompact");
    compact.sample_size(10);
    for n in [1usize << 15, 1 << 18] {
        let r = n / 2;
        let mut data = vec![FILL; n];
        for t in 0..r {
            data[2 * t + 1] = ((t as u64) << 32) | t as u64;
        }
        let mut buf = TrackedBuf::new(0, data.clone());
        compact.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                buf.as_mut_slice_untraced().copy_from_slice(&data);
                ocompact_u64(&mut buf, n, r, r as u32, FILL, &mut NullTracer);
                buf.as_slice_untraced()[0]
            })
        });
    }
    compact.finish();
}

fn bench_scan(c: &mut Criterion) {
    let buf = TrackedBuf::new(0, (0..4096u64).collect::<Vec<_>>());
    c.bench_function("o_scan_read_4096", |b| {
        b.iter(|| o_scan_read(&buf, std::hint::black_box(1234), &mut NullTracer))
    });
}

criterion_group!(
    benches,
    bench_select,
    bench_sort,
    bench_sort_kernels,
    bench_merge_and_compact,
    bench_scan
);
criterion_main!(benches);
