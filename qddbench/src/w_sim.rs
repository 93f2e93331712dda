//! `sim-cliffordt`: random Clifford+T circuits at 11–12 qubits (three
//! entangling passes, then n random layers; depth 5n + 3; the seed sets
//! the phase gates' signs), each simulated
//! in process from its QASM by a fresh `DdSimulator`,
//! the way one `qdd simulate` run does it. The states reach their dense
//! size (2ⁿ − 1 nodes), so unique-table probes, complex interning and
//! garbage collection do nearly all the work.

use crate::layers::Layers;
use crate::oracle::{self, C};
use crate::rng::Rng;
use crate::trace::{self, span};
use crate::{gen, proc, Ctx, RoundOut, Workload};
use qdd_core::PackageConfig;
use qdd_sim::DdSimulator;
use std::time::Instant;

/// Widths of the jobs in one round. Six of eight are 12 qubits, so the
/// median and the tail (p75) fall among 12-qubit jobs, away from both the
/// gap to the 11-qubit ones and the cheapest or dearest seeded circuit.
const WIDTHS: [usize; 8] = [11, 12, 12, 12, 11, 12, 12, 12];

/// The stream the jobs' gate placements are drawn from.
const SHAPES: u64 = 0xC11F_F07D;

struct Job {
    n: usize,
    qasm: String,
    expected: Vec<C>,
}

pub struct SimCliffordT {
    jobs: Vec<Job>,
}

impl SimCliffordT {
    pub fn new(seed: u64) -> Self {
        let mut signs = Rng::fork(seed, 1);
        let jobs = WIDTHS
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                // Where each gate goes is fixed per job; the seed sets the
                // phase gates' signs, so it does not move a job's cost.
                let mut shape = Rng::fork(SHAPES, i as u64);
                let qasm = gen::clifford_t(n, 3, n, &mut shape, Some(&mut signs));
                let expected = oracle::state(&qasm).expect("generated circuits are in the oracle's gate set");
                Job { n, qasm, expected }
            })
            .collect();
        SimCliffordT { jobs }
    }
}

/// The probe circuit of the cold-start measurement: fixed, so set-up time
/// does not depend on the seed.
fn probe_qasm() -> String {
    gen::clifford_t(10, 3, 10, &mut Rng::new(0x5E7), None)
}

impl Workload for SimCliffordT {
    fn setup_probe(&mut self, ctx: &Ctx) -> Result<f64, String> {
        let path = ctx.work_dir.join("setup-sim.qasm");
        std::fs::write(&path, probe_qasm()).map_err(|e| e.to_string())?;
        proc::time_qdd(&ctx.qdd, &["simulate", path.to_str().ok_or("path")?])
    }

    fn round(&mut self, layers: &mut Layers) -> Result<RoundOut, String> {
        let mut out = RoundOut::default();
        for (i, job) in self.jobs.iter().enumerate() {
            out.attempted += 1;
            trace::set_request(i as u64);
            let t0 = Instant::now();
            let result = {
                let _op = span("bench.job");
                run_job(job, layers)
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok((amps, peak)) => {
                    let t_check = Instant::now();
                    check(job, &amps).map_err(|e| format!("job {i} ({} qubits): {e}", job.n))?;
                    out.untimed_s += t_check.elapsed().as_secs_f64();
                    out.op_ms.push(ms);
                    out.peak_nodes += peak as u64;
                    out.output_bytes += (amps.len() * 16) as u64;
                }
                Err(e) => out.fail(format!("job {i} ({} qubits) failed: {e}", job.n)),
            }
        }
        Ok(out)
    }

    fn min_ops(&self) -> usize {
        40
    }

    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        proc::peak_rss_mb("self")
    }
}

/// Parse, build, run to the end, read the amplitudes out.
fn run_job(job: &Job, layers: &mut Layers) -> Result<(Vec<qdd_complex::Complex>, usize), String> {
    let circuit = trace::timed("circuit.parse", || qdd_circuit::qasm::parse(&job.qasm)).map_err(|e| e.to_string())?;
    let mut sim = trace::timed("sim.setup", || {
        DdSimulator::with_config(circuit, 1, PackageConfig::default())
    });
    {
        let _s = span("sim.step");
        let r = sim.run();
        layers.program_spans();
        r.map_err(|e| e.to_string())?;
    }
    let amps = trace::timed("sim.readout", || sim.dense_state());
    layers.package(sim.package());
    Ok((amps, sim.stats().peak_nodes))
}

fn check(job: &Job, amps: &[qdd_complex::Complex]) -> Result<(), String> {
    if amps.len() != job.expected.len() {
        return Err(format!("{} amplitudes, expected {}", amps.len(), job.expected.len()));
    }
    let mut norm = 0.0;
    for (k, (a, e)) in amps.iter().zip(&job.expected).enumerate() {
        let d = (C::new(a.re, a.im) - *e).abs();
        if d > 1e-9 {
            return Err(format!("amplitude {k} is {a:?}, the oracle has {e:?}"));
        }
        norm += a.re * a.re + a.im * a.im;
    }
    if (norm - 1.0).abs() > 1e-9 {
        return Err(format!("norm² is {norm}"));
    }
    Ok(())
}
