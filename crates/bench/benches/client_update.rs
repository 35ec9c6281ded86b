//! Criterion microbench for the client side of a round (Algorithm 1 lines
//! 15–23), at the two model sizes of the round benchmark's workloads: MLP
//! 64‑240‑10 (d = 18 010) and 64‑1500‑10 (d = 112 510), top-k at α = 1%.
//!
//! * `sparsify_topk/<d>` — `SparseGradient::from_dense` with
//!   `Sparsifier::TopK(d / 100)` on a real one-sample training delta;
//! * `local_update/<d>` — one client's whole update: set θ, one epoch on
//!   one sample, delta, top-k.
//!
//! Informational only: neither group is on the `bench_gate` allowlist.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olive_data::synthetic::{Generator, SyntheticConfig};
use olive_data::Dataset;
use olive_fl::{local_update, ClientConfig, SparseGradient, Sparsifier};
use olive_nn::zoo::mlp;
use olive_nn::Model;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Hidden widths giving d = 18 010 and d = 112 510 for MLP 64‑h‑10.
const HIDDEN: [usize; 2] = [240, 1500];

/// A model of hidden width `h`, its θ, one local sample and the client
/// configuration of the round benchmark (one epoch, batch 1, k = d/100).
fn client(h: usize) -> (Model, Vec<f32>, Dataset, ClientConfig) {
    let model = mlp(64, h, 10, 0.0, 7);
    let params = model.get_params();
    let gen = Generator::new(SyntheticConfig::tiny(64, 10), 3);
    let data = gen.sample_class(4, 1, &mut SmallRng::seed_from_u64(5));
    let d = params.len();
    let cfg = ClientConfig {
        epochs: 1,
        batch_size: 1,
        lr: 0.1,
        sparsifier: Sparsifier::TopK(d / 100),
        clip: None,
    };
    (model, params, data, cfg)
}

fn bench_sparsify_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparsify_topk");
    for h in HIDDEN {
        let (mut model, params, data, cfg) = client(h);
        // The dense delta of one training step, as `local_update` sees it.
        model.train_batch(&data.features, &data.labels);
        model.sgd_step(cfg.lr);
        let delta: Vec<f32> =
            model.get_params().iter().zip(&params).map(|(local, global)| local - global).collect();
        let mut rng = SmallRng::seed_from_u64(0);
        group.bench_with_input(BenchmarkId::from_parameter(params.len()), &delta, |b, delta| {
            b.iter(|| SparseGradient::from_dense(delta, cfg.sparsifier, &mut rng))
        });
    }
    group.finish();
}

fn bench_local_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_update");
    for h in HIDDEN {
        let (mut model, params, data, cfg) = client(h);
        let mut seed = 0u64;
        group.bench_function(BenchmarkId::from_parameter(params.len()), |b| {
            b.iter(|| {
                seed += 1;
                local_update(&mut model, &params, &data, &cfg, seed)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sparsify_topk, bench_local_update);
criterion_main!(benches);
