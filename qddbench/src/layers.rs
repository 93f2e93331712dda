//! Per-layer figures of a traced run, per round (the workload's fixed
//! amount of work), under the fixed names of `BENCHMARK.json`.

use crate::json::Json;
use crate::stats;
use crate::trace::{self, SpanRec};
use qdd_core::DdPackage;
use std::collections::BTreeMap;

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: &[(&str, &str)] = &[
    ("circuit.parse_ms", "ms"),
    ("core.gate_dd_ms", "ms"),
    ("core.mat_vec_ms", "ms"),
    ("core.mat_mat_ms", "ms"),
    ("core.gc_ms", "ms"),
    ("core.gc_runs", "count"),
    ("core.compute_lookups", "count"),
    ("core.compute_hit_rate", "ratio"),
    ("core.gate_cache_lookups", "count"),
    ("core.gate_cache_hit_rate", "ratio"),
    ("core.nodes_allocated", "count"),
    ("core.peak_live_nodes", "nodes"),
    ("core.identity_nodes_skipped", "count"),
    ("complex.lookups", "count"),
    ("complex.hit_rate", "ratio"),
    ("complex.front_hit_rate", "ratio"),
    ("complex.entries_peak", "count"),
    ("complex.reclaimed", "count"),
    ("sim.setup_ms", "ms"),
    ("sim.step_ms", "ms"),
    ("sim.build_base_ms", "ms"),
    ("sim.shots_ms", "ms"),
    ("verify.alternating_ms", "ms"),
    ("verify.construction_ms", "ms"),
    ("verify.applied_gates", "count"),
    ("viz.graph_ms", "ms"),
    ("viz.svg_ms", "ms"),
    ("viz.dot_ms", "ms"),
    ("viz.html_ms", "ms"),
    ("viz.frames", "count"),
    ("serve.connect_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.shots_p50_ms", "ms"),
    ("serve.step_p50_ms", "ms"),
    ("serve.simulate_p50_ms", "ms"),
    ("serve.verify_p50_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.overhead_ms", "ms"),
    ("telemetry.snapshot_kb", "KB"),
    ("telemetry.overhead_pct", "%"),
    ("circuit.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("verify.self_ms", "ms"),
    ("viz.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.accounted_pct", "%"),
];

/// How far, in percent, the named layers' self times may sum away from
/// the traced wall time.
const ACCOUNTING_TOLERANCE_PCT: f64 = 15.0;

/// Layers whose time the program's own telemetry spans reveal inside one
/// public call (`DdSimulator::run`, `EquivalenceChecker::check`, …).
pub const PROGRAM_LAYERS: &[&str] = &["core"];

#[derive(Default)]
pub struct Layers {
    /// Traced rounds completed.
    pub rounds: usize,
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Spans recorded on threads other than the main one.
    pub foreign_spans: Vec<SpanRec>,
    derived: BTreeMap<&'static str, f64>,
    /// Replay time (see `w_explore::replay`) not yet taken, in
    /// milliseconds.
    replay_ms: f64,
    /// Replayed frames that differ from the explorer's.
    pub replay_mismatches: usize,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let m = self.maxes.entry(name).or_insert(0.0);
        *m = m.max(v);
    }

    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let r = self.ratios.entry(name).or_insert((0.0, 0.0));
        r.0 += num;
        r.1 += den;
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn add_replay_ms(&mut self, ms: f64) {
        self.replay_ms += ms;
    }

    /// Replay time since the last call, in milliseconds.
    pub fn take_replay_ms(&mut self) -> f64 {
        std::mem::take(&mut self.replay_ms)
    }

    /// Engine counters of one operation's package, read when it ends.
    pub fn package(&mut self, dd: &DdPackage) {
        if !trace::enabled() {
            return;
        }
        let s = dd.stats();
        self.add("core.gc_runs", s.gc_runs as f64);
        self.add("core.compute_lookups", s.cache_lookups as f64);
        self.ratio("core.compute_hit_rate", s.cache_hits as f64, s.cache_lookups as f64);
        self.add("core.gate_cache_lookups", s.gate_cache_lookups as f64);
        self.ratio(
            "core.gate_cache_hit_rate",
            s.gate_cache_hits as f64,
            s.gate_cache_lookups as f64,
        );
        self.add("core.nodes_allocated", dd.node_births() as f64);
        self.max("core.peak_live_nodes", s.peak_live_nodes as f64);
        self.add("core.identity_nodes_skipped", s.identity_nodes_skipped as f64);
        let c = dd.complex_table_stats();
        self.add("complex.lookups", c.lookups as f64);
        self.ratio("complex.hit_rate", c.hits as f64, c.lookups as f64);
        self.ratio("complex.front_hit_rate", c.front_hits as f64, c.lookups as f64);
        self.max("complex.entries_peak", c.entries as f64);
        self.add("complex.reclaimed", c.reclaimed as f64);
    }

    /// The same engine counters as [`Self::package`], read from the gauges
    /// of a `qdd serve` reply's embedded telemetry (node births are not
    /// among them).
    pub fn telemetry_gauges(&mut self, gauges: &Json) {
        let g = |name: &str| gauges.num(name).unwrap_or(0.0);
        self.add("core.gc_runs", g("core.gc.total_runs"));
        self.add("core.compute_lookups", g("core.compute.lookups"));
        self.ratio(
            "core.compute_hit_rate",
            g("core.compute.hits"),
            g("core.compute.lookups"),
        );
        self.add("core.gate_cache_lookups", g("core.gate_cache.lookups"));
        self.ratio(
            "core.gate_cache_hit_rate",
            g("core.gate_cache.hits"),
            g("core.gate_cache.lookups"),
        );
        self.max("core.peak_live_nodes", g("core.nodes.peak_live"));
        self.add("core.identity_nodes_skipped", g("core.nodes.identity_skipped"));
        self.add("complex.lookups", g("core.complex.lookups"));
        self.ratio("complex.hit_rate", g("core.complex.hits"), g("core.complex.lookups"));
        self.ratio(
            "complex.front_hit_rate",
            g("core.complex.front_hits"),
            g("core.complex.lookups"),
        );
        self.max("complex.entries_peak", g("core.complex.entries"));
        self.add("complex.reclaimed", g("core.complex.reclaimed"));
    }

    /// Reads the program's spans since the last call into the open span's
    /// children and the `core.*_ms` totals.
    pub fn program_spans(&mut self) {
        if !trace::enabled() {
            return;
        }
        let totals = trace::absorb_program_spans(PROGRAM_LAYERS);
        for (span, metric) in [
            ("core.gate_dd", "core.gate_dd_ms"),
            ("core.mat_vec", "core.mat_vec_ms"),
            ("core.mat_mat", "core.mat_mat_ms"),
            ("core.gc", "core.gc_ms"),
        ] {
            if let Some(&ns) = totals.get(span) {
                self.add(metric, ns as f64 / 1e6);
            }
        }
    }

    /// Derives self times, accounting and tracing overhead once the traced
    /// phase has ended. `traced_total_s` is the summed wall time of the
    /// traced rounds, which the spans cover. Fails when the named layers'
    /// self times do not account for that wall time within the tolerance.
    pub fn finish(
        &mut self,
        spans: &[SpanRec],
        plain_wall_s: f64,
        traced_wall_s: f64,
        traced_total_s: f64,
        callers: usize,
    ) -> Result<(), String> {
        let rounds = self.rounds.max(1) as f64;
        let selfs = trace::self_times(spans);
        let mut attributed_ms = 0.0;
        for (layer, ns) in &selfs {
            // Replays lie outside the wall time they explain.
            if layer == "replay" {
                continue;
            }
            // `bench` is the harness's own time inside an operation: time
            // no program layer accounts for.
            if layer != "bench" {
                attributed_ms += *ns as f64 / 1e6;
            }
            let key = match layer.as_str() {
                "circuit" => "circuit.self_ms",
                "complex" => "core.self_ms",
                "core" => "core.self_ms",
                "sim" => "sim.self_ms",
                "verify" => "verify.self_ms",
                "viz" => "viz.self_ms",
                "serve" => "serve.self_ms",
                _ => "bench.self_ms",
            };
            *self.derived.entry(key).or_insert(0.0) += *ns as f64 / 1e6 / rounds;
        }
        // Each caller is busy for the whole round in a closed loop.
        let wall_ms = traced_total_s * 1e3 * callers as f64;
        let accounted_pct = attributed_ms / wall_ms * 100.0;
        self.derived.insert("trace.accounted_pct", accounted_pct);
        self.derived.insert(
            "telemetry.overhead_pct",
            (traced_wall_s - plain_wall_s) / plain_wall_s * 100.0,
        );
        for (name, value) in [
            ("circuit.parse_ms", "circuit.parse"),
            ("sim.setup_ms", "sim.setup"),
            ("sim.step_ms", "sim.step"),
            ("sim.build_base_ms", "sim.build_base"),
            ("sim.shots_ms", "sim.shots"),
            ("verify.alternating_ms", "verify.alternating"),
            ("verify.construction_ms", "verify.construction"),
            ("viz.graph_ms", "viz.graph"),
            ("viz.svg_ms", "viz.svg"),
            ("viz.dot_ms", "viz.dot"),
            ("viz.html_ms", "viz.html"),
        ] {
            let ns = trace::total_ns(spans, value);
            if ns > 0 {
                self.derived.insert(name, ns as f64 / 1e6 / rounds);
            }
        }
        let within = (accounted_pct - 100.0).abs() <= ACCOUNTING_TOLERANCE_PCT;
        eprintln!(
            "  trace: named layers' self times sum to {accounted_pct:.1}% of {callers} × traced wall time, \
             {} the ±{ACCOUNTING_TOLERANCE_PCT}% tolerance \
             (median traced round {traced_wall_s:.4} s vs untraced {plain_wall_s:.4} s)",
            if within { "within" } else { "OUTSIDE" }
        );
        if within {
            Ok(())
        } else {
            Err(format!(
                "the named layers account for {accounted_pct:.1}% of the traced wall time, \
                 outside 100 ± {ACCOUNTING_TOLERANCE_PCT}%"
            ))
        }
    }

    pub fn report(&self) -> Vec<(&'static str, &'static str, f64)> {
        let rounds = self.rounds.max(1) as f64;
        METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = if let Some(v) = self.derived.get(name) {
                    *v
                } else if let Some(v) = self.sums.get(name) {
                    v / rounds
                } else if let Some(v) = self.maxes.get(name) {
                    *v
                } else if let Some(&(num, den)) = self.ratios.get(name) {
                    if den > 0.0 {
                        num / den
                    } else {
                        0.0
                    }
                } else if let Some(xs) = self.samples.get(name) {
                    stats::median(xs)
                } else {
                    0.0
                };
                (name, unit, value)
            })
            .collect()
    }
}
