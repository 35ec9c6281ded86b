//! Sequential model with flat parameter views.
//!
//! FL treats the whole model as one parameter vector θ ∈ R^d — sparsify,
//! clip, encrypt, aggregate all operate on that vector — so [`Model`]
//! exposes `get_params`/`set_params`/`get_grads` over the concatenation of
//! all layer parameters in construction order.

use crate::layers::Layer;
use crate::loss::{softmax, softmax_cross_entropy};

/// A feed-forward network as an ordered list of layers.
#[derive(Clone, Debug)]
pub struct Model {
    layers: Vec<Layer>,
    /// Number of classes (output dimension of the last dense layer).
    pub num_classes: usize,
}

impl Model {
    /// Builds a model from layers; `num_classes` is the logit dimension.
    pub fn new(layers: Vec<Layer>, num_classes: usize) -> Self {
        Model { layers, num_classes }
    }

    /// Total trainable parameter count `d`.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_len).sum()
    }

    /// Batched forward pass returning logits.
    pub fn forward(&mut self, x: &[f32], n: usize, train: bool) -> Vec<f32> {
        let mut cur = x.to_vec();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, n, train);
        }
        cur
    }

    /// Forward + loss + backward; accumulates parameter gradients and
    /// returns the batch loss.
    pub fn train_batch(&mut self, x: &[f32], labels: &[usize]) -> f32 {
        let logits = self.forward(x, labels.len(), true);
        let (loss, mut grad) = softmax_cross_entropy(&logits, labels, self.num_classes);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad, labels.len());
        }
        loss
    }

    /// Applies one plain SGD step with learning rate `lr` and clears grads.
    pub fn sgd_step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.sgd_step(lr);
        }
        self.zero_grads();
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// The flat parameter vector θ.
    pub fn get_params(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.read_params_into(&mut out);
        out
    }

    /// Overwrites `out` with θ, reusing its allocation (no allocation once
    /// `out` has held a vector of this model's size).
    pub fn read_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.param_count());
        for layer in &self.layers {
            layer.read_params(out);
        }
    }

    /// Overwrites θ from a flat vector (length must equal
    /// [`Model::param_count`]).
    pub fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.param_count(), "parameter vector length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.write_params(params, &mut offset);
        }
        debug_assert_eq!(offset, params.len());
    }

    /// The flat accumulated-gradient vector ∇θ.
    pub fn get_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.read_grads(&mut out);
        }
        out
    }

    /// Predicted class per sample.
    pub fn predict(&mut self, x: &[f32], n: usize) -> Vec<usize> {
        let logits = self.forward(x, n, false);
        logits
            .chunks_exact(self.num_classes)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Class-probability rows for a batch (softmax over logits).
    pub fn predict_proba(&mut self, x: &[f32], n: usize) -> Vec<f32> {
        let logits = self.forward(x, n, false);
        softmax(&logits, self.num_classes)
    }

    /// Mean loss and accuracy over a labelled set, evaluated in chunks.
    pub fn evaluate(&mut self, x: &[f32], labels: &[usize], batch: usize) -> (f32, f32) {
        let n = labels.len();
        let feat = x.len() / n.max(1);
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        let mut s = 0;
        while s < n {
            let e = (s + batch).min(n);
            let logits = self.forward(&x[s * feat..e * feat], e - s, false);
            let (loss, _) = softmax_cross_entropy(&logits, &labels[s..e], self.num_classes);
            total_loss += loss as f64 * (e - s) as f64;
            for (row, &label) in logits.chunks_exact(self.num_classes).zip(&labels[s..e]) {
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if pred == label {
                    correct += 1;
                }
            }
            s = e;
        }
        ((total_loss / n.max(1) as f64) as f32, correct as f32 / n.max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Model {
        let mut rng = SmallRng::seed_from_u64(seed);
        Model::new(
            vec![
                Layer::Dense(Dense::new(4, 8, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::Dense(Dense::new(8, 3, &mut rng)),
            ],
            3,
        )
    }

    #[test]
    fn param_count_and_roundtrip() {
        let mut m = tiny_mlp(0);
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let p = m.get_params();
        assert_eq!(p.len(), m.param_count());
        let doubled: Vec<f32> = p.iter().map(|v| v * 2.0).collect();
        m.set_params(&doubled);
        assert_eq!(m.get_params(), doubled);
        // A buffer of another size (stale contents) is overwritten exactly.
        let mut buf = vec![7.0f32; 500];
        m.read_params_into(&mut buf);
        assert_eq!(buf, doubled);
    }

    /// Finite-difference gradient check on the full MLP: the single most
    /// important test in this crate — everything downstream (FL deltas,
    /// top-k indices, the attack itself) depends on correct gradients.
    #[test]
    fn gradient_check_mlp() {
        let mut m = tiny_mlp(1);
        let x = vec![0.5f32, -0.3, 0.8, 0.1, -0.4, 0.9, -0.2, 0.6];
        let labels = vec![0usize, 2];
        m.zero_grads();
        m.train_batch(&x, &labels);
        let analytic = m.get_grads();
        let params = m.get_params();
        let eps = 2e-3f32;
        // Check a spread of parameter coordinates (all would be slow).
        for &i in &[0usize, 3, 10, 32, 33, 40, 50, 58, 66] {
            let mut pp = params.clone();
            pp[i] += eps;
            m.set_params(&pp);
            let logits = m.forward(&x, 2, false);
            let (lp, _) = softmax_cross_entropy(&logits, &labels, 3);
            let mut pm = params.clone();
            pm[i] -= eps;
            m.set_params(&pm);
            let logits = m.forward(&x, 2, false);
            let (lm, _) = softmax_cross_entropy(&logits, &labels, 3);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 2e-2 * analytic[i].abs().max(1.0),
                "param {i}: finite-diff {fd} vs analytic {}",
                analytic[i]
            );
        }
    }

    /// Same check through a conv + pool stack.
    #[test]
    fn gradient_check_cnn() {
        use crate::layers::{Conv2d, MaxPool2d};
        let mut rng = SmallRng::seed_from_u64(2);
        let mut m = Model::new(
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 6, 6, &mut rng)),
                Layer::Relu(Relu::new()),
                Layer::MaxPool2d(MaxPool2d::new(2, 4, 4)),
                Layer::Dense(Dense::new(2 * 2 * 2, 2, &mut rng)),
            ],
            2,
        );
        let x: Vec<f32> = (0..36).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect();
        let labels = vec![1usize];
        m.zero_grads();
        m.train_batch(&x, &labels);
        let analytic = m.get_grads();
        let params = m.get_params();
        let eps = 2e-3f32;
        for &i in &[0usize, 5, 10, 17, 20, 25, 30, analytic.len() - 1] {
            let mut pp = params.clone();
            pp[i] += eps;
            m.set_params(&pp);
            let (lp, _) = softmax_cross_entropy(&m.forward(&x, 1, false), &labels, 2);
            let mut pm = params.clone();
            pm[i] -= eps;
            m.set_params(&pm);
            let (lm, _) = softmax_cross_entropy(&m.forward(&x, 1, false), &labels, 2);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 3e-2 * analytic[i].abs().max(1.0),
                "param {i}: finite-diff {fd} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut m = tiny_mlp(3);
        // Two separable clusters.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let c = i % 2;
            let base = if c == 0 { 1.0f32 } else { -1.0 };
            xs.extend_from_slice(&[base, base * 0.5, -base, base]);
            ys.push(c);
        }
        let first = m.train_batch(&xs, &ys);
        m.sgd_step(0.5);
        for _ in 0..50 {
            m.train_batch(&xs, &ys);
            m.sgd_step(0.5);
        }
        let (final_loss, acc) = m.evaluate(&xs, &ys, 8);
        assert!(final_loss < first * 0.5, "loss {first} -> {final_loss}");
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn predict_proba_shape() {
        let mut m = tiny_mlp(4);
        let p = m.predict_proba(&[0.0; 8], 2);
        assert_eq!(p.len(), 6);
        for row in p.chunks_exact(3) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_params_wrong_length_panics() {
        let mut m = tiny_mlp(5);
        m.set_params(&[0.0; 3]);
    }
}
