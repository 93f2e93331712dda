//! `qddbench` — the qdd benchmark: four workloads, each run in its own
//! process, printing end-to-end metrics (or, with `--trace 1`, per-layer
//! metrics) as one JSON object on the last line of standard output.
//!
//! ```text
//! qddbench --workload sim-cliffordt --seed 1 --seconds 20 --trace 0 \
//!          --qdd .bench_build/release/qdd --work-dir .bench_build/qddbench-work
//! ```
//!
//! A wrong program output stops the run with exit code 1, naming the
//! workload, the operation and the seed; no result line is printed then.

mod gen;
mod json;
mod layers;
mod oracle;
mod proc;
mod rng;
mod stats;
mod trace;
mod w_explore;
mod w_serve;
mod w_sim;
mod w_verify;

use layers::Layers;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What the workloads know about the invocation.
pub struct Ctx {
    pub qdd: PathBuf,
    pub work_dir: PathBuf,
}

/// The outcome of one round: the workload's fixed amount of work.
#[derive(Default)]
pub struct RoundOut {
    /// Latency of each operation, in milliseconds.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Σ over operations of the largest diagram each held.
    pub peak_nodes: u64,
    /// Bytes handed to the user.
    pub output_bytes: u64,
    /// Time inside the round that is not the workload's work (output
    /// checks, traced replays), in seconds.
    pub untimed_s: f64,
    /// The first operation the program refused, and why.
    pub first_failure: Option<String>,
}

impl RoundOut {
    /// Counts a refused operation and keeps the first one's description.
    pub fn fail(&mut self, what: String) {
        eprintln!("  {what}");
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }
}

pub trait Workload {
    /// Cold start, in seconds: a fresh program process brought to the
    /// point where it has done the workload's first piece of work.
    fn setup_probe(&mut self, ctx: &Ctx) -> Result<f64, String>;
    /// Runs one round. With tracing on, per-layer figures go to `layers`.
    fn round(&mut self, layers: &mut Layers) -> Result<RoundOut, String>;
    /// Peak resident memory of the process that did the work, in MB.
    fn peak_rss_mb(&mut self) -> Result<f64, String>;
    /// Operations a run attempts at least. The tail percentile is the
    /// highest whole percentile that leaves ten of these beyond it, so it
    /// is the same percentile in every run of the workload.
    fn min_ops(&self) -> usize;
    /// Concurrent callers (client threads) the workload runs.
    fn callers(&self) -> usize {
        1
    }
}

/// Cold-start probes per run; the median is reported. A single probe
/// moves by ±20 % on a shared host, so a run takes many.
const SETUP_PROBES: usize = 15;
/// Rounds a timed phase completes at least.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    qdd: PathBuf,
    work_dir: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    Ok(Args {
        workload: need("--workload")?,
        seed: need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        qdd: PathBuf::from(need("--qdd")?),
        work_dir: PathBuf::from(need("--work-dir")?),
        spans_out: get("--spans-out").map(PathBuf::from),
    })
}

fn make_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim-cliffordt" => Box::new(w_sim::SimCliffordT::new(seed)),
        "verify-compiled" => Box::new(w_verify::VerifyCompiled::new(seed)?),
        "serve-tool" => Box::new(w_serve::ServeTool::new(seed)?),
        "explore-render" => Box::new(w_explore::ExploreRender::new(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Rounds and operation latencies of one timed phase.
#[derive(Default)]
struct Phase {
    round_s: Vec<f64>,
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    peak_nodes: u64,
    output_bytes: u64,
    first_failure: Option<String>,
}

fn run_phase(w: &mut dyn Workload, seconds: f64, layers: &mut Layers) -> Result<Phase, String> {
    let mut p = Phase::default();
    let t_end = Instant::now() + Duration::from_secs_f64(seconds);
    // Attempted operations count toward the minimum, so a run ends even
    // when the program refuses every operation.
    while p.round_s.len() < MIN_ROUNDS || p.attempted < w.min_ops() as u64 || Instant::now() < t_end {
        let t0 = Instant::now();
        let r = w.round(layers)?;
        p.round_s.push(t0.elapsed().as_secs_f64() - r.untimed_s);
        if layers.replay_mismatches > 0 {
            return Err(format!(
                "{} replayed frames differ from the explorer's",
                layers.replay_mismatches
            ));
        }
        p.op_ms.extend_from_slice(&r.op_ms);
        p.attempted += r.attempted;
        p.failed += r.failed;
        // Every round does the same work: sizes are per round.
        p.peak_nodes = r.peak_nodes;
        p.output_bytes = r.output_bytes;
        if p.first_failure.is_none() {
            p.first_failure = r.first_failure;
        }
        layers.rounds += 1;
        // Nothing left to measure once every operation has been refused.
        if p.round_s.len() >= MIN_ROUNDS && p.op_ms.is_empty() {
            break;
        }
    }
    if p.op_ms.is_empty() {
        return Err(format!(
            "all {} operations failed; the first: {}",
            p.attempted,
            p.first_failure.as_deref().unwrap_or("none recorded")
        ));
    }
    let rounds: Vec<String> = p.round_s.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("  rounds (s): {}", rounds.join(" "));
    Ok(p)
}

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    eprintln!("  {name:<32} {value:>14.6} {unit}");
    out.push(format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json::num(value)
    ));
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let ctx = Ctx {
        qdd: args.qdd.clone(),
        work_dir: args.work_dir.clone(),
    };
    // Dropping the workload stops what it started (the daemon).
    let mut w = make_workload(&args.workload, args.seed)?;
    measure(w.as_mut(), &ctx, args)
}

fn measure(w: &mut dyn Workload, ctx: &Ctx, args: &Args) -> Result<String, String> {
    // A traced run reports no set-up time; one probe still brings the
    // daemon up for serve-tool.
    let probes = if args.trace { 1 } else { SETUP_PROBES };
    let mut setups = Vec::with_capacity(probes);
    for _ in 0..probes {
        setups.push(w.setup_probe(ctx)?);
    }
    let setup_s = stats::median(&setups);
    let mut metrics = Vec::new();
    eprintln!("qddbench {} seed {}", args.workload, args.seed);
    let (attempted, failed) = if !args.trace {
        let mut unused = Layers::default();
        let p = run_phase(w, args.seconds, &mut unused)?;
        let tail_p = stats::tail_percentile(w.min_ops());
        metric(&mut metrics, "wall_s", stats::median(&p.round_s), "s");
        metric(&mut metrics, "p50_ms", stats::median(&p.op_ms), "ms");
        metric(&mut metrics, "tail_ms", stats::percentile(&p.op_ms, tail_p), "ms");
        metric(&mut metrics, "peak_rss_mb", w.peak_rss_mb()?, "MB");
        metric(&mut metrics, "peak_nodes", p.peak_nodes as f64, "nodes");
        metric(&mut metrics, "output_mb", p.output_bytes as f64 / 1e6, "MB");
        metric(&mut metrics, "setup_s", setup_s, "s");
        (p.attempted, p.failed)
    } else {
        // Untraced and traced halves of the same length: their wall-time
        // difference is the cost of observing.
        let mut unused = Layers::default();
        let plain = run_phase(w, args.seconds / 2.0, &mut unused)?;
        let mut layers = Layers::default();
        trace::set_enabled(true, 0);
        let traced = run_phase(w, args.seconds / 2.0, &mut layers);
        trace::set_enabled(false, 0);
        let traced = traced?;
        let mut spans = trace::take();
        trace::append(&mut spans, std::mem::take(&mut layers.foreign_spans));
        if let Some(path) = &args.spans_out {
            std::fs::write(path, trace::to_jsonl(&spans)).map_err(|e| format!("spans file: {e}"))?;
        }
        let plain_wall = stats::median(&plain.round_s);
        let traced_wall = stats::median(&traced.round_s);
        let traced_total: f64 = traced.round_s.iter().sum();
        layers.finish(&spans, plain_wall, traced_wall, traced_total, w.callers())?;
        for (name, unit, value) in layers.report() {
            metric(&mut metrics, name, value, unit);
        }
        (plain.attempted + traced.attempted, plain.failed + traced.failed)
    };
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qddbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qddbench: {} (seed {}): {e}", args.workload, args.seed);
            ExitCode::from(1)
        }
    }
}
