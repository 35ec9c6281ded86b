//! Client-side local training (the paper's `EncClient`, Algorithm 1
//! lines 15–23 / Algorithm 6 lines 15–24).

use std::cell::RefCell;

use olive_data::Dataset;
use olive_nn::Model;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sparse::{SparseGradient, Sparsifier};

/// Local-training hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Local epochs per round.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Client learning rate η_c.
    pub lr: f32,
    /// Sparsification policy applied to the delta.
    pub sparsifier: Sparsifier,
    /// Optional ℓ2 clipping bound C (DP mode, Algorithm 6 line 22).
    pub clip: Option<f32>,
}

impl ClientConfig {
    /// A small default: 2 epochs, batch 10, lr 0.1, top-k by ratio α on d.
    pub fn with_top_ratio(d: usize, alpha: f64) -> Self {
        let k = ((d as f64 * alpha).round() as usize).max(1);
        ClientConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.1,
            sparsifier: Sparsifier::TopK(k),
            clip: None,
        }
    }
}

thread_local! {
    /// The d-sized delta buffer: it grows to the largest model the thread
    /// has trained and is then reused, so a worker's steady-state client
    /// update allocates only its output.
    static DELTA: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs local training from `global_params` on `data` and returns the
/// sparsified weight delta `Δ = TopkSparse(θ_local − θ_global)`.
///
/// `model` is a scratch model of the right architecture; its parameters
/// are overwritten. Deterministic in `seed` (batch order + dropout stream
/// are the only randomness).
pub fn local_update(
    model: &mut Model,
    global_params: &[f32],
    data: &Dataset,
    cfg: &ClientConfig,
    seed: u64,
) -> SparseGradient {
    assert!(!data.is_empty(), "client has no local data");
    model.set_params(global_params);
    model.zero_grads();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC11E_27A1);
    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..cfg.epochs {
        // Fresh shuffle per epoch (Fisher–Yates).
        for t in (1..n).rev() {
            let j = rng.gen_range(0..=t);
            order.swap(t, j);
        }
        let mut s = 0;
        while s < n {
            let e = (s + cfg.batch_size).min(n);
            let mut xs = Vec::with_capacity((e - s) * data.feature_dim);
            let mut ys = Vec::with_capacity(e - s);
            for &i in &order[s..e] {
                xs.extend_from_slice(data.row(i));
                ys.push(data.labels[i]);
            }
            model.train_batch(&xs, &ys);
            model.sgd_step(cfg.lr);
            s = e;
        }
    }
    let mut sparse = DELTA.with_borrow_mut(|delta| {
        model.read_params_into(delta);
        for (l, g) in delta.iter_mut().zip(global_params) {
            *l -= g;
        }
        SparseGradient::from_dense(delta, cfg.sparsifier, &mut rng)
    });
    if let Some(c) = cfg.clip {
        sparse.clip_l2(c);
    }
    sparse
}

/// Computes the top-k index set a *hypothetical* client holding exactly the
/// samples `data` would transmit, without updating any global state — the
/// attacker's teacher-index computation (Algorithm 2 lines 9–12 computes
/// gradients of the global model on labelled test data `X_l`).
pub fn teacher_indices(
    model: &mut Model,
    global_params: &[f32],
    data: &Dataset,
    cfg: &ClientConfig,
    seed: u64,
) -> Vec<u32> {
    local_update(model, global_params, data, cfg, seed).indices
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_data::synthetic::{Generator, SyntheticConfig};
    use olive_nn::zoo::mlp;

    fn setup() -> (Model, Vec<f32>, Generator) {
        let model = mlp(16, 8, 4, 0.0, 3);
        let params = model.get_params();
        let gen = Generator::new(SyntheticConfig::tiny(16, 4), 5);
        (model, params, gen)
    }

    #[test]
    fn delta_is_sparse_and_sorted() {
        let (mut model, params, gen) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let data = gen.sample_class(1, 20, &mut rng);
        let cfg = ClientConfig {
            epochs: 1,
            batch_size: 5,
            lr: 0.1,
            sparsifier: Sparsifier::TopK(10),
            clip: None,
        };
        let sg = local_update(&mut model, &params, &data, &cfg, 7);
        assert_eq!(sg.k(), 10);
        assert_eq!(sg.dense_dim, params.len());
        for w in sg.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(sg.values.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let (mut model, params, gen) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let data = gen.sample_class(2, 12, &mut rng);
        let cfg = ClientConfig::with_top_ratio(params.len(), 0.05);
        let a = local_update(&mut model, &params, &data, &cfg, 1);
        let b = local_update(&mut model, &params, &data, &cfg, 1);
        assert_eq!(a, b);
        let c = local_update(&mut model, &params, &data, &cfg, 2);
        assert!(a.indices != c.indices || a.values != c.values);
    }

    #[test]
    fn clip_respected() {
        let (mut model, params, gen) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let data = gen.sample_class(0, 20, &mut rng);
        let cfg = ClientConfig {
            epochs: 3,
            batch_size: 4,
            lr: 0.5,
            sparsifier: Sparsifier::TopK(20),
            clip: Some(0.1),
        };
        let sg = local_update(&mut model, &params, &data, &cfg, 3);
        assert!(sg.l2_norm() <= 0.1 + 1e-5);
    }

    #[test]
    fn different_labels_different_indices() {
        // The correlation the attack rides on: clients holding different
        // labels produce different top-k index sets.
        let (mut model, params, gen) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = ClientConfig {
            epochs: 2,
            batch_size: 5,
            lr: 0.2,
            sparsifier: Sparsifier::TopK(8),
            clip: None,
        };
        let d0 = gen.sample_class(0, 20, &mut rng);
        let d1 = gen.sample_class(1, 20, &mut rng);
        let i0 = local_update(&mut model, &params, &d0, &cfg, 1).indices;
        let i1 = local_update(&mut model, &params, &d1, &cfg, 1).indices;
        let overlap = i0.iter().filter(|i| i1.contains(i)).count();
        assert!(overlap < i0.len(), "index sets should differ across labels");
    }

    /// Bit-exact fingerprint of an update (`==` would equate ±0).
    fn bits(sg: &SparseGradient) -> (usize, Vec<u32>, Vec<u32>) {
        (sg.dense_dim, sg.indices.clone(), sg.values.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn reused_buffers_do_not_leak_between_clients() {
        // Client A on a small model, client B on a larger one (as the
        // attack's teacher path mixes models on one thread), then A again:
        // every result must equal the same client run on a fresh thread,
        // whose per-thread buffers start empty.
        let gen = Generator::new(SyntheticConfig::tiny(16, 4), 5);
        let mut rng = SmallRng::seed_from_u64(0);
        let clients = [(1, mlp(16, 8, 4, 0.0, 3), 0.1), (3, mlp(16, 40, 4, 0.0, 4), 0.3)].map(
            |(label, model, alpha)| {
                let params = model.get_params();
                let cfg = ClientConfig::with_top_ratio(params.len(), alpha);
                (model, params, gen.sample_class(label, 12, &mut rng), cfg)
            },
        );
        let run = |c: &(Model, Vec<f32>, Dataset, ClientConfig)| {
            bits(&local_update(&mut c.0.clone(), &c.1, &c.2, &c.3, 11))
        };
        let fresh: Vec<_> = clients
            .iter()
            .map(|c| std::thread::scope(|s| s.spawn(|| run(c)).join().expect("client panicked")))
            .collect();
        for i in [0, 1, 0, 1] {
            assert_eq!(run(&clients[i]), fresh[i], "client {i} after reuse");
        }
    }

    #[test]
    fn with_top_ratio_computes_k() {
        let cfg = ClientConfig::with_top_ratio(1000, 0.01);
        assert_eq!(cfg.sparsifier, Sparsifier::TopK(10));
        let tiny = ClientConfig::with_top_ratio(10, 0.001);
        assert_eq!(tiny.sparsifier, Sparsifier::TopK(1), "k is floored at 1");
    }

    #[test]
    #[should_panic(expected = "no local data")]
    fn empty_dataset_panics() {
        let (mut model, params, _gen) = setup();
        let empty = Dataset { features: vec![], labels: vec![], feature_dim: 16, num_classes: 4 };
        let cfg = ClientConfig::with_top_ratio(params.len(), 0.1);
        local_update(&mut model, &params, &empty, &cfg, 0);
    }
}
