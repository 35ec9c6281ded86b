//! The `--trace 1` run: per-layer metrics.
//!
//! Two parts:
//!
//! 1. A system runs a set-up round, then `w.rounds` pairs of rounds with
//!    the repository's telemetry stream armed (`Telemetry::to_buffer`) on
//!    the first of each pair and disarmed on the second. The armed rounds
//!    give the `round.*` span shares and the byte and frame counters; the
//!    pairing gives the cost of arming.
//! 2. The layer pass ([`crate::layers`]) times each layer's public
//!    functions on the same inputs for the rest of `--seconds`.
//!
//! `layers.sum_gap` compares the sum of the layer-pass medians with the
//! disarmed rounds' median: the share of the round the layers do not
//! explain (or explain twice, where the round overlaps them).

use std::time::{Duration, Instant};

use olive_telemetry::Telemetry;

use crate::layers::{self, LayerPass};
use crate::report::{Metric, Samples};
use crate::stream::{self, RoundRecord};
use crate::workload::{
    checked_round, digest, provision, reference_digest, Inputs, Topology, Workload,
};
use crate::Outcome;

/// Layer-pass rounds, at least.
const MIN_LAYER_ROUNDS: usize = 2;

/// Layer-pass spans whose medians should add up to the round.
const LAYER_SPANS: [&str; 11] = [
    "fl.train",
    "fl.encode",
    "tee.seal_upload",
    "tee.open",
    "shard.ingress",
    "agg.ingest",
    "ckpt.seal",
    "agg.finalize",
    "shard.egress",
    "dp.noise",
    "tee.sign",
];

pub fn run(w: &Workload, inputs: &Inputs, topo: Topology, seconds: f64, smoke: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let pairs = if smoke { 1 } else { w.rounds };

    // Part 1: the system, telemetry armed on odd rounds. Round 0 is the
    // set-up round and is not measured.
    let tel = Telemetry::to_buffer();
    let (mut sys, _) = provision(inputs, topo);
    let (mut armed, mut disarmed) = (Samples::default(), Samples::default());
    let mut reports = Vec::new();
    let rounds = 1 + 2 * pairs;
    let mut failed_before = out.failed;
    for r in 0..rounds {
        let arm = r % 2 == 1;
        sys.set_telemetry(if arm { tel.clone() } else { Telemetry::off() });
        let (secs, result) = checked_round(&mut sys);
        if let Some(report) = out.round(result) {
            if arm {
                armed.push(secs);
                reports.push(report);
            } else if r > 0 {
                disarmed.push(secs);
            }
        }
    }
    if out.failed == failed_before {
        out.check_digest(&digest(&sys.global_params()), &reference_digest(inputs, rounds));
    }
    let jsonl = tel.buffer_contents().unwrap_or_default();
    let records = stream::rounds(&jsonl);
    if records.len() != reports.len() {
        out.errors.push(format!(
            "telemetry stream holds {} rounds, {} rounds were armed",
            records.len(),
            reports.len()
        ));
    }

    // Part 2: the layer pass.
    failed_before = out.failed;
    let (min, budget) = if smoke { (1, 0.0) } else { (MIN_LAYER_ROUNDS, seconds) };
    let deadline = start + Duration::from_secs_f64(budget);
    let pass = match layers::run(inputs, topo, min, deadline) {
        Ok(pass) => pass,
        Err(e) => {
            out.fail(e);
            LayerPass::default()
        }
    };
    out.attempted += pass.rounds() as u64;
    if out.failed > failed_before {
        out.attempted += 1;
    }
    write_traces(w, inputs, &jsonl, &pass);

    let untraced = disarmed.median();
    let mut m = round_metrics(&records, &disarmed);
    m.extend(layer_metrics(&pass, &records, &reports, inputs, topo.shards));
    let layer_sum: f64 = LAYER_SPANS.iter().map(|s| median(&pass.per_round_s(s))).sum();
    m.push(ratio(
        "telemetry.armed_overhead",
        armed.median() / untraced - 1.0,
        format!("armed median {:.6} s vs disarmed {:.6} s", armed.median(), untraced),
    ));
    m.push(ratio(
        "layers.sum_gap",
        (layer_sum - untraced).abs() / untraced,
        format!("sum of layer medians {layer_sum:.6} s vs disarmed round {untraced:.6} s"),
    ));
    out.metrics = m;
    out
}

fn ratio(name: &'static str, value: f64, detail: String) -> Metric {
    Metric::exact(name, "ratio", value).with_detail(detail)
}

fn median(xs: &[f64]) -> f64 {
    let mut s = Samples::default();
    xs.iter().for_each(|&x| s.push(x));
    s.median()
}

/// Median over armed rounds of `f(record)`.
fn per_record(records: &[RoundRecord], f: impl Fn(&RoundRecord) -> f64) -> f64 {
    median(&records.iter().map(f).collect::<Vec<_>>())
}

/// The `round` layer: span shares of the armed rounds.
fn round_metrics(records: &[RoundRecord], disarmed: &Samples) -> Vec<Metric> {
    let share = |name: &'static str, span: &'static str| {
        let m = per_record(records, |r| r.span_s(span) / r.span_s("round"));
        ratio(name, m, format!("`{span}` span over `round` span, median of {}", records.len()))
    };
    vec![
        Metric::exact(
            "round.server_s",
            "s",
            per_record(records, |r| r.span_s("round") - r.span_s("sample")),
        )
        .with_detail("`round` span minus `sample` span"),
        share("round.client_share", "sample"),
        share("round.ingest_share", "ingest_chunk"),
        share("round.finalize_share", "finalize"),
        share("round.ckpt_share", "checkpoint_seal"),
        ratio(
            "round.unattributed_share",
            per_record(records, |r| {
                let covered = r.span_s("sample") + r.span_s("ingest_chunk") + r.span_s("finalize");
                1.0 - covered / r.span_s("round")
            }),
            "`round` time outside `sample`, `ingest_chunk` and `finalize`".into(),
        ),
        Metric::exact("round.tail_s", "s", disarmed.quantile(0.9)).with_detail(format!(
            "90th percentile of {} disarmed rounds (median {:.6})",
            disarmed.len(),
            disarmed.median()
        )),
    ]
}

/// The `fl`, `tee`, `crypto`, `agg`, `oram`, `shard`, `ckpt` and `dp`
/// layers, from the layer pass plus the armed rounds' counters and
/// reports.
fn layer_metrics(
    pass: &LayerPass,
    records: &[RoundRecord],
    reports: &[olive_core::RoundReport],
    inputs: &Inputs,
    shards: usize,
) -> Vec<Metric> {
    let secs = |name: &'static str, span: &str| {
        let v = pass.per_round_s(span);
        Metric::exact(name, "s", median(&v))
            .with_detail(format!("layer pass `{span}`, median of {} rounds", v.len()))
    };
    let count = |name: &'static str, unit: &'static str, v: Vec<u64>| {
        let n = v.len();
        let m = median(&v.into_iter().map(|x| x as f64).collect::<Vec<_>>());
        Metric::exact(name, unit, m).with_detail(format!("median of {n} rounds"))
    };
    // Egress moves the delta out as one 4-byte stripe cell per coordinate.
    let egress_bytes = if shards > 1 { 4 * inputs.dim() as u64 } else { 0 };
    let frame_bytes: Vec<u64> =
        records.iter().map(|r| r.ingress_frame_bytes + egress_bytes).collect();
    let aead_bytes: Vec<u64> = records
        .iter()
        .zip(&frame_bytes)
        .map(|(r, frames)| {
            // Every tunnel frame is sealed once and opened once.
            ["upload_sealed_bytes", "opened_bytes", "sealed_bytes", "unsealed_bytes"]
                .iter()
                .map(|c| r.counter(c))
                .sum::<u64>()
                + 2 * frames
        })
        .collect();
    let shard_peak = reports.iter().flat_map(|r| r.shard_peaks.iter().copied()).max().unwrap_or(0);
    vec![
        secs("fl.train_s", "fl.train"),
        secs("fl.encode_s", "fl.encode"),
        secs("tee.seal_upload_s", "tee.seal_upload"),
        secs("tee.open_s", "tee.open"),
        secs("tee.sign_s", "tee.sign"),
        secs("crypto.ct_seal_s", "crypto.ct_seal"),
        count("crypto.aead_bytes", "bytes", aead_bytes),
        secs("agg.ingest_s", "agg.ingest"),
        secs("agg.finalize_s", "agg.finalize"),
        count("agg.cells", "count", pass.cells.clone()),
        count("agg.resident_bytes", "bytes", pass.resident_bytes.clone()),
        count("oram.accesses", "count", pass.oram.iter().map(|o| o.0).collect()),
        count("oram.stash_max", "count", pass.oram.iter().map(|o| o.1).collect()),
        count("oram.evicted_blocks", "count", pass.oram.iter().map(|o| o.2).collect()),
        secs("shard.ingress_s", "shard.ingress"),
        secs("shard.egress_s", "shard.egress"),
        count(
            "shard.frames",
            "count",
            records.iter().map(|r| r.counter("tunnel_frames")).collect(),
        ),
        count("shard.frame_bytes", "bytes", frame_bytes),
        Metric::exact("shard.provision_s", "s", pass.provision_s)
            .with_detail("one `ShardRuntime::provision` in the layer pass"),
        Metric::exact("shard.epc_peak_max_bytes", "bytes", shard_peak as f64)
            .with_detail("largest per-shard EPC peak over the armed rounds"),
        count(
            "shard.retries",
            "count",
            records.iter().map(|r| r.counter("retry_attempts")).collect(),
        ),
        secs("ckpt.seal_s", "ckpt.seal"),
        count("ckpt.bytes", "bytes", reports.iter().map(|r| r.telemetry.ckpt_bytes).collect()),
        count("ckpt.seals", "count", reports.iter().map(|r| r.telemetry.ckpt_seals).collect()),
        secs("dp.noise_s", "dp.noise"),
    ]
}

/// Writes the armed telemetry stream and the layer-pass spans under
/// `roundbench/traces/`. A write failure is reported, not fatal.
fn write_traces(w: &Workload, inputs: &Inputs, telemetry: &str, pass: &LayerPass) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let stem = format!("{}-seed{}", w.name, inputs.cfg.seed);
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}-telemetry.jsonl")), telemetry)?;
        std::fs::write(dir.join(format!("{stem}-layers.jsonl")), pass.to_jsonl())
    });
    match result {
        Ok(()) => println!("traces: {}/{stem}-{{telemetry,layers}}.jsonl", dir.display()),
        Err(e) => println!("traces not written: {e}"),
    }
}
