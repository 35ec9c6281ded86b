//! The benchmark's workloads and the inputs each one generates from a seed.

use olive_core::aggregation::AggregatorKind;
use olive_core::olive::{DpConfig, OliveConfig, OliveSystem, RoundReport};
use olive_data::synthetic::{Generator, SyntheticConfig};
use olive_data::{partition, ClientData, LabelAssignment};
use olive_fl::{ClientConfig, Sparsifier};
use olive_memsim::NullTracer;
use olive_nn::zoo::mlp;
use olive_nn::Model;
use olive_oram::PosMapKind;
use std::time::Instant;

/// Clients opened, decoded and folded per ingestion step.
pub const CHUNK: usize = 64;

/// Input features of the synthetic task (the MLP's input width).
const FEATURES: usize = 64;
/// Classes of the synthetic task (the MLP's output width).
const CLASSES: usize = 10;

/// One fixed shape of round, run back to back by a single coordinator.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Hidden width of the 64-hidden-10 MLP (fixes d).
    pub hidden: usize,
    /// Registered clients N (all sampled: q = 1).
    pub n: usize,
    /// Top-k cells each client uploads.
    pub k: usize,
    /// In-enclave aggregation algorithm.
    pub kind: AggregatorKind,
    /// Shard enclaves S (1 = monolithic).
    pub shards: usize,
    /// Central DP (Algorithm 6), if on.
    pub dp: Option<DpConfig>,
    /// Rounds timed per system after its first (set-up) round.
    pub rounds: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_advanced",
        hidden: 1500,
        n: 100,
        k: 1125,
        kind: AggregatorKind::Advanced,
        shards: 1,
        dp: Some(DpConfig { sigma: 1.0, clip: 1.0, delta: 1e-5 }),
        rounds: 12,
    },
    Workload {
        name: "fleet_sharded",
        hidden: 240,
        n: 2000,
        k: 180,
        kind: AggregatorKind::Grouped { h: 32 },
        shards: 4,
        dp: None,
        rounds: 4,
    },
    Workload {
        name: "oram_comparator",
        hidden: 300,
        n: 100,
        k: 225,
        kind: AggregatorKind::PathOram { posmap: PosMapKind::Recursive },
        shards: 1,
        dp: None,
        rounds: 3,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A workload's generated inputs: the initial model, the clients' local
/// data and the system configuration. A pure function of the seed.
pub struct Inputs {
    pub model: Model,
    pub clients: Vec<ClientData>,
    pub cfg: OliveConfig,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let generator = Generator::new(SyntheticConfig::tiny(FEATURES, CLASSES), seed);
        // One local sample per client keeps client training a bounded
        // share of the round.
        let clients = partition(&generator, w.n, LabelAssignment::Fixed(2), 1, seed);
        let model = mlp(FEATURES, w.hidden, CLASSES, 0.0, seed);
        let cfg = OliveConfig {
            n_clients: w.n,
            sample_rate: 1.0,
            client: ClientConfig {
                epochs: 1,
                batch_size: 1,
                lr: 0.1,
                sparsifier: Sparsifier::TopK(w.k),
                clip: None,
            },
            aggregator: w.kind,
            server_lr: 1.0,
            dp: w.dp,
            seed,
        };
        Inputs { model, clients, cfg }
    }

    /// Model dimension d.
    pub fn dim(&self) -> usize {
        self.model.param_count()
    }
}

/// The public round geometry a system runs with. None of it may change
/// the round output (the repository's bitwise invariant).
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    pub threads: usize,
    pub chunk: usize,
    pub shards: usize,
}

/// Provisions a system on a copy of `inputs`; returns it with the
/// seconds construction took (the copy is not timed).
pub fn provision(inputs: &Inputs, topo: Topology) -> (OliveSystem, f64) {
    let (model, clients) = (inputs.model.clone(), inputs.clients.clone());
    let start = Instant::now();
    let mut sys = OliveSystem::new(model, clients, inputs.cfg.clone());
    sys.set_threads(topo.threads);
    sys.set_chunk(topo.chunk);
    sys.set_shards(topo.shards);
    (sys, start.elapsed().as_secs_f64())
}

/// Runs one round and checks its output: the enclave signature over the
/// new parameters verifies, and every parameter is finite. Returns the
/// round's wall seconds (of `run_round` alone) and its report, or why the
/// round failed.
pub fn checked_round(sys: &mut OliveSystem) -> (f64, Result<RoundReport, String>) {
    let start = Instant::now();
    let result = sys.run_round(&mut NullTracer);
    let secs = start.elapsed().as_secs_f64();
    let checked = result.map_err(|e| format!("run_round failed: {e}")).and_then(|report| {
        let params = sys.global_params();
        if !sys.verify_model_signature(report.round, &params, &report.model_signature) {
            Err(format!("round {}: model signature does not verify", report.round))
        } else if !params.iter().all(|p| p.is_finite()) {
            Err(format!("round {}: non-finite parameters", report.round))
        } else {
            Ok(report)
        }
    });
    (secs, checked)
}

/// SHA-256 of the model parameters' bit patterns, as hex.
pub fn digest(params: &[f32]) -> String {
    let mut bytes = Vec::with_capacity(params.len() * 4);
    for p in params {
        bytes.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    olive_crypto::sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// The reference final-model digest after `rounds` rounds: the same
/// inputs run serially, monolithically, with another chunk size. The
/// bitwise invariant says every topology must reproduce it exactly.
pub fn reference_digest(inputs: &Inputs, rounds: usize) -> Result<String, String> {
    let (mut sys, _) = provision(inputs, Topology { threads: 1, chunk: 48, shards: 1 });
    for _ in 0..rounds {
        checked_round(&mut sys).1?;
    }
    Ok(digest(&sys.global_params()))
}
