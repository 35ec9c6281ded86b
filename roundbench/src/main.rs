//! Round benchmark for the Olive workspace.
//!
//! Each workload is a closed loop: one process, one coordinator, rounds
//! run back to back through the public `OliveSystem::run_round`, each
//! waiting for the previous one. Inputs are generated from `--seed`.
//!
//! * `--trace 0` measures the end-to-end metrics with telemetry off:
//!   `round_s`, `setup_s`, `epc_peak_bytes` and `ok_share`.
//! * `--trace 1` measures the per-layer metrics: it arms the telemetry
//!   stream on every other round and runs a layer pass that drives the
//!   same inputs through each layer's public functions (see [`traced`]).
//!
//! Every run checks the outputs: each round's model signature verifies,
//! the parameters are finite, and each system's final-model digest equals
//! the reference digest of the same inputs run serially and unsharded.
//! The last line of standard output is one JSON result record.
//!
//! Usage: `roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--commit <id>] [--smoke]`. `--smoke` runs one timed round per system.

mod layers;
mod report;
mod stream;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Samples};
use workload::{checked_round, digest, provision, reference_digest, Inputs, Topology, Workload};

/// Systems provisioned per `--trace 0` run, at least: `setup_s` is their
/// median.
const MIN_SYSTEMS: usize = 3;

/// Every `OLIVE_*` knob the library reads from the environment. The
/// benchmark clears them so a workload's configuration is its own.
const KNOBS: [&str; 8] = [
    "OLIVE_THREADS",
    "OLIVE_CHUNK",
    "OLIVE_SHARDS",
    "OLIVE_SORT_KERNEL",
    "OLIVE_ORAM_KERNEL",
    "OLIVE_CRYPTO",
    "OLIVE_FAULTS",
    "OLIVE_METRICS",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut commit = "unknown".to_string();
    let mut smoke = false;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        commit,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("roundbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The process is still single-threaded here, and every knob is read
    // lazily on first use, so this fixes the configuration for the run.
    for knob in KNOBS {
        std::env::remove_var(knob);
    }
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let topo = Topology { threads, chunk: workload::CHUNK, shards: w.shards };
    let inputs = Inputs::generate(&w, args.seed);
    print_provenance(&args, &inputs, topo);

    let outcome = if args.trace {
        traced::run(&w, &inputs, topo, args.seconds, args.smoke)
    } else {
        end_to_end(&w, &inputs, topo, args.seconds, args.smoke)
    };
    for e in &outcome.errors {
        println!("check failed: {e}");
    }
    report::print_result(&outcome);
    ExitCode::SUCCESS
}

/// What a run measured and whether its outputs passed the checks.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one attempted round and, if it failed, why.
    pub fn round<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Records a failed check; it fails the round it belongs to.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        self.errors.push(e);
    }

    /// Compares a system's final model with the reference digest.
    pub fn check_digest(&mut self, got: &str, reference: &Result<String, String>) {
        match reference {
            Ok(r) if r == got => {}
            Ok(r) => self.fail(format!("final-model digest {got} != reference {r}")),
            Err(e) => self.fail(format!("reference run failed: {e}")),
        }
    }
}

/// The `--trace 0` run: provisions systems back to back while another
/// one fits in `seconds` (at least [`MIN_SYSTEMS`]), each running one
/// set-up round and `w.rounds` timed rounds.
fn end_to_end(w: &Workload, inputs: &Inputs, topo: Topology, seconds: f64, smoke: bool) -> Outcome {
    let rounds = if smoke { 1 } else { w.rounds };
    let systems = if smoke { 1 } else { MIN_SYSTEMS };
    let reference = reference_digest(inputs, 1 + rounds);
    let mut out = Outcome::default();
    let (mut round_s, mut setup_s) = (Samples::default(), Samples::default());
    let mut epc_peak = 0u64;
    let start = Instant::now();
    let (mut provisioned, mut last_system_s) = (0, 0.0);
    while provisioned < systems
        || (!smoke && start.elapsed().as_secs_f64() + last_system_s <= seconds)
    {
        provisioned += 1;
        let system_start = Instant::now();
        let (mut sys, construct_s) = provision(inputs, topo);
        let failed_before = out.failed;
        for r in 0..=rounds {
            let (secs, result) = checked_round(&mut sys);
            if let Some(report) = out.round(result) {
                epc_peak = epc_peak.max(report.working_set_bytes);
            }
            if r == 0 {
                setup_s.push(construct_s + secs);
            } else {
                round_s.push(secs);
            }
        }
        // A failed round already failed the system; the digest check
        // fails its last round otherwise.
        if out.failed == failed_before {
            out.check_digest(&digest(&sys.global_params()), &reference);
        }
        last_system_s = system_start.elapsed().as_secs_f64();
    }
    out.metrics = vec![
        round_s.median_metric("round_s", "s"),
        setup_s.median_metric("setup_s", "s"),
        Metric::exact("epc_peak_bytes", "bytes", epc_peak as f64),
        Metric::exact(
            "ok_share",
            "ratio",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        ),
    ];
    out
}

fn print_provenance(args: &Args, inputs: &Inputs, topo: Topology) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: {{\"workload\":\"{}\",\"seed\":{},\"commit\":\"{}\",\"nproc\":{nproc},\
         \"threads\":{},\"chunk\":{},\"shards\":{},\"crypto_backend\":\"{}\",\
         \"sort_kernel\":\"{:?}\",\"oram_kernel\":\"{:?}\",\"aggregator\":\"{:?}\",\
         \"d\":{},\"n\":{},\"k\":{},\"dp\":{},\"trace\":{}}}",
        args.workload.name,
        args.seed,
        args.commit,
        topo.threads,
        topo.chunk,
        topo.shards,
        olive_crypto::crypto_backend(),
        olive_oblivious::sort_kernel::sort_kernel(),
        olive_oram::oram_kernel(),
        args.workload.kind,
        inputs.dim(),
        args.workload.n,
        args.workload.k,
        args.workload.dp.is_some(),
        u8::from(args.trace),
    );
}
