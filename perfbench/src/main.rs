//! The repository benchmark. One process, one load-generator thread.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <seq-rbf10|serve-rbf5|tiered-open|wire-adwin> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! ledger of a separate traced run (spans written to
//! `.bench_out/trace-<workload>.jsonl`). The line before it, prefixed
//! `meta: `, carries the runner metadata, the seed, the trace flag and the
//! generator's own figures. The process exits non-zero when any output
//! check fails. `BENCHMARK.json` at the root explains each workload and
//! which metrics a change to each layer should move.

mod feeds;
mod layers;
mod seq;
mod serving;
mod trace;
mod util;

use serving::Kind;
use std::path::Path;
use std::process::ExitCode;
use trace::SpanLog;
use util::Metrics;

/// Scratch and trace output, relative to the repository root.
pub const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 4] = ["seq-rbf10", "serve-rbf5", "tiered-open", "wire-adwin"];

/// Every per-layer metric with its unit. A traced run reports all of
/// them; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("streams.gen_ns_per_inst", "ns"),
    ("classifiers.predict_ns", "ns"),
    ("classifiers.predict_p90_ns", "ns"),
    ("classifiers.learn_ns", "ns"),
    ("classifiers.learn_p90_ns", "ns"),
    ("metrics.record_ns", "ns"),
    ("metrics.record_p90_ns", "ns"),
    ("detectors.update_batch_us", "us"),
    ("detectors.update_batch_p90_us", "us"),
    ("harness.loop_other_ns", "ns"),
    ("harness.stage_sum_ratio", "ratio"),
    ("rbm.train_flat_us", "us"),
    ("rbm.recon_err_us", "us"),
    ("checkpoint.capture_us", "us"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("checkpoint.resume_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("sink.spill_us", "us"),
    ("sink.load_us", "us"),
    ("serve.batch_build_ns", "ns"),
    ("serve.enqueue_ns", "ns"),
    ("serve.blocked_ns", "ns"),
    ("serve.queue_depth_p50", "msgs"),
    ("serve.queue_depth_p99", "msgs"),
    ("serve.shard_skew", "ratio"),
    ("serve.hibernations", "count"),
    ("serve.rehydrations", "count"),
    ("serve.rehydrate_ratio", "ratio"),
    ("serve.hot_streams_max", "count"),
    ("serve.attach_us", "us"),
    ("serve.drain_ms", "ms"),
    ("supervisor.spills", "count"),
    ("supervisor.errors", "count"),
    ("net.encode_frame_us", "us"),
    ("net.decode_payload_us", "us"),
    ("net.frame_bytes_per_inst", "bytes"),
    ("net.busy_replies", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.cpu_frac", "ratio"),
    ("loadgen.probe_resolution_us", "us"),
    ("loadgen.sojourn_samples", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Messages (50-instance batches) the run attempted.
    pub attempted: u64,
    /// Failed messages and failed output checks.
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra `meta` fields: sample counts, generator figures.
    pub info: Vec<(&'static str, String)>,
    /// The spans of a traced run.
    pub spans: Option<SpanLog>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kind = match args.workload.as_str() {
        "serve-rbf5" => Some(Kind::Serve),
        "tiered-open" => Some(Kind::Tiered),
        "wire-adwin" => Some(Kind::Wire),
        _ => None,
    };
    let mut out = match kind {
        Some(kind) => serving::run(kind, args.seed, args.seconds, args.trace),
        None => seq::run(args.seed, args.seconds, args.trace),
    };
    if let Some(spans) = &out.spans {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = spans.write_jsonl(&path, &args.workload) {
            out.info.push(("trace_write_error", e.to_string()));
        }
    }
    if args.trace {
        let mut ordered = Metrics::default();
        for (name, unit) in PER_LAYER {
            ordered.put(name, out.metrics.get(name).unwrap_or(0.0), unit);
        }
        out.metrics = ordered;
    }

    let mut meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"runner\": {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serde_json::to_string(&rbm_im_bench::runner_metadata()).unwrap_or_else(|_| "null".into()),
    );
    for (key, value) in &out.info {
        meta.push_str(&format!(", \"{key}\": \"{value}\""));
    }
    meta.push('}');
    println!("meta: {meta}");
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
