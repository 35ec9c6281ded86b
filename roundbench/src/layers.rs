//! The layer pass: drives a workload's inputs through each layer's
//! public functions in round order, timing every call from here.
//!
//! It provisions its own enclave, client sessions and (for S > 1) shard
//! plane, then per round: `local_update` for every participant (on the
//! round's thread count), `SparseGradient::encode`,
//! `ClientSession::seal_upload` (and, for contrast, the same payloads
//! sealed by `AesGcm` on the portable constant-time backend whatever
//! backend the process runs), then per chunk `open_and_decode`,
//! `ShardRuntime::ingress_chunk`, `Aggregator::ingest` and a checkpoint
//! (`save_state` + `Enclave::seal`), then `Aggregator::finalize`,
//! `ShardRuntime::egress_round`, `GaussianMechanism::perturb` and
//! `Enclave::sign_output`. Spans are kept in memory and written out as
//! JSONL at the end of the run.

use std::collections::BTreeMap;
use std::time::Instant;

use olive_core::aggregation::{Aggregator, ShardRuntime, StreamingAggregator};
use olive_core::olive::open_and_decode;
use olive_crypto::{AesGcm, CryptoBackend, NONCE_LEN};
use olive_dp::GaussianMechanism;
use olive_fl::{local_update, FedAvgServer, SparseGradient};
use olive_memsim::NullTracer;
use olive_tee::{AttestationService, ClientSession, Enclave, EnclaveConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::workload::{Inputs, Topology};

/// Attestation context of the layer pass's enclave.
const CONTEXT: &[u8] = b"roundbench-layer-pass";
/// Sealing label of the layer pass's checkpoints.
const CKPT_LABEL: &[u8] = b"roundbench-ckpt";

/// One timed call (or batch of calls) into a layer.
struct Span {
    name: &'static str,
    round: u64,
    chunk: Option<usize>,
    ns: u64,
}

/// What the layer pass measured: per round, summed seconds per span
/// name, plus deterministic work counts.
#[derive(Default)]
pub struct LayerPass {
    spans: Vec<Span>,
    /// Seconds `ShardRuntime::provision` took (0 when S = 1).
    pub provision_s: f64,
    /// Cells folded per round.
    pub cells: Vec<u64>,
    /// Peak aggregator-resident bytes per round.
    pub resident_bytes: Vec<u64>,
    /// ORAM accesses, stash high-water mark and evicted blocks during
    /// each round's ingestion (zero for other aggregators).
    pub oram: Vec<(u64, u64, u64)>,
}

impl LayerPass {
    fn time<T>(
        &mut self,
        name: &'static str,
        round: u64,
        chunk: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.spans.push(Span { name, round, chunk, ns: start.elapsed().as_nanos() as u64 });
        out
    }

    /// Rounds the pass completed.
    pub fn rounds(&self) -> usize {
        self.cells.len()
    }

    /// Seconds per round spent in `name`, summed over the round's spans.
    pub fn per_round_s(&self, name: &str) -> Vec<f64> {
        let mut by_round: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_round.entry(s.round).or_insert(0) += s.ns;
        }
        (0..self.rounds() as u64)
            .map(|r| by_round.get(&r).copied().unwrap_or(0) as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSONL, one record per timed call.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let chunk = s.chunk.map_or(String::new(), |c| format!(",\"chunk\":{c}"));
            out.push_str(&format!(
                "{{\"record\":\"span\",\"name\":\"{}\",\"round\":{}{chunk},\"wall\":{{\"ns\":{}}}}}\n",
                s.name, s.round, s.ns
            ));
        }
        out
    }
}

/// Runs layer-pass rounds while another one fits before `deadline`, at
/// least `min_rounds`.
/// Errors are failed checks (a shard call failing, a non-finite delta).
pub fn run(
    inputs: &Inputs,
    topo: Topology,
    min_rounds: usize,
    deadline: Instant,
) -> Result<LayerPass, String> {
    let mut pass = LayerPass::default();
    let cfg = &inputs.cfg;
    let d = inputs.dim();
    let mut seed_bytes = [0u8; 32];
    seed_bytes[..8].copy_from_slice(&cfg.seed.to_be_bytes());
    seed_bytes[8] = 0x1A;
    let service = AttestationService::new(seed_bytes);
    let mut enclave = Enclave::launch(&EnclaveConfig::default(), seed_bytes);
    let quote = enclave.attest(&service, CONTEXT);
    let measurement = enclave.measurement();
    let mut sessions: Vec<ClientSession> = inputs
        .clients
        .iter()
        .map(|c| {
            let mut cs = seed_bytes;
            cs[24..28].copy_from_slice(&c.user.to_be_bytes());
            let session =
                ClientSession::establish(c.user, service.public_key(), &measurement, &quote, cs)
                    .map_err(|e| format!("client {} rejected the enclave: {e:?}", c.user))?;
            enclave
                .register_client(c.user, session.dh_public())
                .map_err(|e| format!("registering client {}: {e:?}", c.user))?;
            Ok(session)
        })
        .collect::<Result<_, String>>()?;
    let mut shard_rt = if topo.shards > 1 {
        let start = Instant::now();
        let rt = ShardRuntime::provision(
            &service,
            &mut enclave,
            CONTEXT,
            seed_bytes,
            EnclaveConfig::default().epc_bytes,
            d,
            topo.shards,
        )
        .map_err(|e| format!("shard provisioning: {e}"))?;
        pass.provision_s = start.elapsed().as_secs_f64();
        Some(rt)
    } else {
        None
    };

    let mut server = FedAvgServer::new(inputs.model.clone(), cfg.server_lr);
    let mut client_cfg = cfg.client;
    if let Some(dp) = cfg.dp {
        client_cfg.clip = Some(dp.clip);
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ct_gcm = AesGcm::with_backend(CryptoBackend::Ct, &[0x5C; 32])
        .map_err(|e| format!("constant-time AES-GCM: {e:?}"))?;
    let users: Vec<u32> = inputs.clients.iter().map(|c| c.user).collect();
    let (mut t, mut last_round) = (0u64, std::time::Duration::ZERO);
    while (t as usize) < min_rounds || Instant::now() + last_round <= deadline {
        let round_start = Instant::now();
        enclave.begin_round(t, users.clone());
        if let Some(rt) = shard_rt.as_mut() {
            rt.begin_round();
        }
        let global = server.params();
        let updates =
            pass.time("fl.train", t, None, || train(inputs, &global, &client_cfg, t, topo.threads));
        let payloads: Vec<Vec<u8>> = pass
            .time("fl.encode", t, None, || updates.iter().map(SparseGradient::encode).collect());
        let sealed: Vec<_> = pass.time("tee.seal_upload", t, None, || {
            sessions.iter_mut().zip(&payloads).map(|(s, p)| s.seal_upload(t, p)).collect()
        });
        pass.time("crypto.ct_seal", t, None, || {
            for (i, p) in payloads.iter().enumerate() {
                let mut nonce = [0u8; NONCE_LEN];
                nonce[..8].copy_from_slice(&(t << 32 | i as u64).to_be_bytes());
                std::hint::black_box(ct_gcm.seal(&nonce, p, b"roundbench"));
            }
        });

        let mut agg = StreamingAggregator::new(cfg.aggregator, d, topo.threads);
        let (mut cells, mut resident) = (0u64, agg.resident_bytes());
        for (i, msgs) in sealed.chunks(topo.chunk).enumerate() {
            let c = Some(i);
            let staged = pass.time("tee.open", t, c, || open_and_decode(&mut enclave, msgs));
            cells += staged.iter().map(|u| u.k() as u64).sum::<u64>();
            if let Some(rt) = shard_rt.as_mut() {
                pass.time("shard.ingress", t, c, || rt.ingress_chunk(&staged))
                    .map_err(|e| format!("shard ingress: {e}"))?;
            }
            pass.time("agg.ingest", t, c, || agg.ingest(&staged, &mut NullTracer));
            resident = resident.max(agg.resident_bytes());
            pass.time("ckpt.seal", t, c, || enclave.seal(&agg.save_state(), CKPT_LABEL));
        }
        pass.cells.push(cells);
        pass.resident_bytes.push(resident);
        pass.oram.push(
            agg.oram_stats().map_or((0, 0, 0), |s| {
                (s.accesses, s.max_stash_occupancy as u64, s.evicted_blocks)
            }),
        );
        let mut delta = pass.time("agg.finalize", t, None, || agg.finalize(&mut NullTracer));
        if let Some(rt) = shard_rt.as_mut() {
            delta = pass
                .time("shard.egress", t, None, || rt.egress_round(&delta))
                .map_err(|e| format!("shard egress: {e}"))?;
        }
        if let Some(dp) = cfg.dp {
            // Algorithm 6's scaling: noise std σC/(qN) on the average.
            let qn = (cfg.sample_rate * cfg.n_clients as f64).max(1.0);
            let mech = GaussianMechanism::new(dp.sigma / qn, dp.clip);
            pass.time("dp.noise", t, None, || mech.perturb(&mut delta, &mut rng));
        }
        if !delta.iter().all(|x| x.is_finite()) {
            return Err(format!("layer pass round {t}: non-finite aggregate"));
        }
        server.apply_aggregate(&delta);
        let params = server.params();
        let tag = pass.time("tee.sign", t, None, || {
            let mut payload = Vec::with_capacity(params.len() * 4 + 8);
            payload.extend_from_slice(&t.to_be_bytes());
            for p in &params {
                payload.extend_from_slice(&p.to_bits().to_le_bytes());
            }
            enclave.sign_output(&payload)
        });
        std::hint::black_box(tag);
        last_round = round_start.elapsed();
        t += 1;
    }
    Ok(pass)
}

/// Local training for every client on `threads` workers, each with its
/// own model copy; per-client seeds as the system derives them.
fn train(
    inputs: &Inputs,
    global: &[f32],
    client_cfg: &olive_fl::ClientConfig,
    round: u64,
    threads: usize,
) -> Vec<SparseGradient> {
    let seed = inputs.cfg.seed;
    let per_thread = inputs.clients.len().div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        let workers: Vec<_> = inputs
            .clients
            .chunks(per_thread)
            .map(|clients| {
                scope.spawn(move || {
                    let mut model = inputs.model.clone();
                    clients
                        .iter()
                        .map(|c| {
                            let s = seed ^ (round << 20) ^ u64::from(c.user);
                            local_update(&mut model, global, &c.dataset, client_cfg, s)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().expect("training worker panicked")).collect()
    })
}
