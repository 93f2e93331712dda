//! `verify-compiled`: pairs `(C, compile(C))` — QFT, Grover and Clifford+T
//! circuits compiled by the program with the paper's Fig. 5(b) flow — and
//! fault-injected twins of the compiled side, each checked in process by a
//! fresh `EquivalenceChecker` from QASM text, the way one `qdd verify` run
//! does it. One operation is one source circuit checked against its
//! compiled form and its twin under every strategy. The working diagram is
//! a matrix DD: `mat_mat`, the compute tables and identity skip do the
//! work.

use crate::layers::Layers;
use crate::oracle::{self, C};
use crate::rng::Rng;
use crate::trace::{self, span};
use crate::{gen, proc, Ctx, RoundOut, Workload};
use qdd_circuit::compile::{self, CompileOptions};
use qdd_verify::{Equivalence, EquivalenceChecker, EquivalenceReport, Strategy};
use std::rc::Rc;
use std::time::Instant;

const ALTERNATING: [Strategy; 3] = [Strategy::Proportional, Strategy::BarrierGuided, Strategy::Lookahead];

struct Check {
    /// The source circuit this check belongs to; one operation is every
    /// check of one source.
    job: usize,
    label: String,
    left: String,
    right: String,
    strategy: Strategy,
    /// Ground truth: equivalent pair or fault-injected twin.
    equivalent: bool,
    /// The oracle's working matrix, for twins of ≤ 8 qubits.
    oracle: Option<Rc<Working>>,
    /// Paper Example 12: the peak node count this check must respect.
    peak_bound: Option<(usize, bool)>,
}

/// The oracle's matrices of the working diagram at the end of a twin's
/// check, as column lists: `U_left·U_right†` for the alternating
/// strategies and, where construction runs, `U_right†·U_left`. Only these
/// are kept, so the harness's own memory stays small next to the
/// program's.
struct Working {
    alternating: Vec<Vec<C>>,
    construction: Option<Vec<Vec<C>>>,
}

/// Computes both unitaries and checks that the oracle agrees with the
/// ground truth, so a wrong input generator cannot pass for a wrong
/// verdict. Returns the working matrices a twin's counterexample is
/// checked against; an equivalent pair needs none.
fn ground_truth(
    left: &str,
    right: &str,
    equivalent: bool,
    construct: bool,
    label: &str,
) -> Result<Option<Rc<Working>>, String> {
    let (u_left, u_right) = (oracle::unitary(left)?, oracle::unitary(right)?);
    let alternating = oracle::times_adjoint(&u_left, &u_right);
    if oracle::is_phase_identity(&alternating, 1e-9) != equivalent {
        return Err(format!(
            "{label}: the oracle's unitaries disagree with the ground truth"
        ));
    }
    Ok((!equivalent).then(|| {
        let construction = construct.then(|| oracle::adjoint_times(&u_right, &u_left));
        Rc::new(Working {
            alternating,
            construction,
        })
    }))
}

pub struct VerifyCompiled {
    checks: Vec<Check>,
}

/// `compile(C)` by the program's paper flow, back to QASM text.
pub fn compiled(qasm: &str) -> Result<String, String> {
    let c = qdd_circuit::qasm::parse(qasm).map_err(|e| e.to_string())?;
    Ok(compile::compile(&c, CompileOptions::paper_flow()).to_qasm())
}

impl VerifyCompiled {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::fork(seed, 2);
        let mut sources: Vec<(String, usize, String, bool)> = Vec::new();
        // Fifteen operations per round: with an odd count the median falls
        // inside one operation's cluster of times, not between two.
        for n in [5, 6, 7, 8, 10, 12, 14, 16] {
            sources.push((format!("qft-{n}"), n, gen::qft(n), n <= 6));
        }
        for n in [6, 8, 10] {
            let marked = rng.below(1 << n) as u64;
            sources.push((format!("grover-{n}"), n, gen::grover(n, marked), n <= 6));
        }
        // Construction of a dense Clifford+T unitary costs about 0.4 s at
        // 6 qubits and its cost moves with the seed's gates, so it runs at
        // 5; QFT-6 already takes construction to a fully dense matrix.
        for n in [5, 6, 7] {
            sources.push((
                format!("cliffordt-{n}"),
                n,
                gen::clifford_t(n, 3, 2 * n, &mut rng, None),
                n <= 5,
            ));
        }
        let mut checks = Vec::new();
        for (job, (name, n, left, construct)) in sources.into_iter().enumerate() {
            let right = compiled(&left)?;
            let twin = gen::inject_fault(&right);
            let strategies: Vec<Strategy> = ALTERNATING
                .iter()
                .copied()
                .chain(construct.then_some(Strategy::Construction))
                .collect();
            let small = n <= oracle::MAX_UNITARY_QUBITS;
            let w_pair = if small {
                ground_truth(&left, &right, true, construct, &name)?
            } else {
                None
            };
            let w_twin = if small {
                ground_truth(&left, &twin, false, construct, &name)?
            } else {
                None
            };
            for s in strategies {
                for (right, equivalent, w) in [(&right, true, &w_pair), (&twin, false, &w_twin)] {
                    checks.push(Check {
                        job,
                        label: format!("{name} {} {s}", if equivalent { "pair" } else { "twin" }),
                        left: left.clone(),
                        right: right.clone(),
                        strategy: s,
                        equivalent,
                        oracle: w.clone(),
                        peak_bound: None,
                    });
                }
            }
        }
        // Paper Example 12: QFT-3 against its compiled form peaks at 9
        // nodes barrier-guided and at 21 under construction.
        let (q3, q3c) = (gen::qft(3), compiled(&gen::qft(3))?);
        ground_truth(&q3, &q3c, true, true, "qft-3")?;
        for (s, bound) in [
            (Strategy::BarrierGuided, (9, false)),
            (Strategy::Construction, (21, true)),
        ] {
            checks.push(Check {
                job: usize::MAX,
                label: format!("qft-3 example-12 {s}"),
                left: q3.clone(),
                right: q3c.clone(),
                strategy: s,
                equivalent: true,
                oracle: None,
                peak_bound: Some(bound),
            });
        }
        Ok(VerifyCompiled { checks })
    }
}

impl Workload for VerifyCompiled {
    fn setup_probe(&mut self, ctx: &Ctx) -> Result<f64, String> {
        let left = ctx.work_dir.join("setup-verify-left.qasm");
        let right = ctx.work_dir.join("setup-verify-right.qasm");
        std::fs::write(&left, gen::qft(16)).map_err(|e| e.to_string())?;
        std::fs::write(&right, compiled(&gen::qft(16))?).map_err(|e| e.to_string())?;
        let (l, r) = (left.to_str().ok_or("path")?, right.to_str().ok_or("path")?);
        proc::time_qdd(&ctx.qdd, &["verify", l, r, "--strategy", "proportional"])
    }

    fn round(&mut self, layers: &mut Layers) -> Result<RoundOut, String> {
        let mut out = RoundOut::default();
        for job in self.checks.chunk_by(|a, b| a.job == b.job) {
            out.attempted += 1;
            trace::set_request(job[0].job as u64);
            let mut job_ms = 0.0;
            let mut failure: Option<String> = None;
            for c in job {
                let t0 = Instant::now();
                let result = {
                    let _op = span("bench.check");
                    run_check(c, layers)
                };
                job_ms += t0.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok(report) => {
                        let t_check = Instant::now();
                        validate(c, &report).map_err(|e| format!("check {}: {e}", c.label))?;
                        out.untimed_s += t_check.elapsed().as_secs_f64();
                        out.peak_nodes += report.peak_nodes as u64;
                        out.output_bytes += verdict_text(&report).len() as u64;
                    }
                    Err(e) => {
                        failure.get_or_insert(format!("check {} failed: {e}", c.label));
                    }
                }
            }
            match failure {
                Some(what) => out.fail(what),
                None => out.op_ms.push(job_ms),
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

fn run_check(c: &Check, layers: &mut Layers) -> Result<EquivalenceReport, String> {
    let (left, right) = trace::timed("circuit.parse", || {
        (qdd_circuit::qasm::parse(&c.left), qdd_circuit::qasm::parse(&c.right))
    });
    let (left, right) = (left.map_err(|e| e.to_string())?, right.map_err(|e| e.to_string())?);
    let mut checker = EquivalenceChecker::new();
    let report = {
        let _s = span(if c.strategy == Strategy::Construction {
            "verify.construction"
        } else {
            "verify.alternating"
        });
        let r = checker.check(&left, &right, c.strategy);
        layers.program_spans();
        r.map_err(|e| e.to_string())?
    };
    layers.package(checker.package());
    if trace::enabled() {
        layers.add(
            "verify.applied_gates",
            (report.applied_left + report.applied_right) as f64,
        );
    }
    Ok(report)
}

/// The verdict as the user reads it.
fn verdict_text(r: &EquivalenceReport) -> String {
    let cex = r.counterexample.map_or("null".to_string(), |c| {
        format!("{{\"row\":{},\"col\":{}}}", c.row, c.col)
    });
    format!(
        "{{\"equivalent\":{},\"strategy\":\"{}\",\"peak_nodes\":{},\"applied_left\":{},\"applied_right\":{},\"counterexample\":{cex}}}",
        r.result.is_equivalent(),
        r.strategy,
        r.peak_nodes,
        r.applied_left,
        r.applied_right
    )
}

fn validate(c: &Check, r: &EquivalenceReport) -> Result<(), String> {
    if r.result.is_equivalent() != c.equivalent {
        return Err(format!(
            "verdict {:?}, ground truth equivalent={}",
            r.result, c.equivalent
        ));
    }
    if let (Some(w), Equivalence::NotEquivalent, Some(cex)) = (&c.oracle, r.result, r.counterexample) {
        // The working diagram: `U_right†·U_left` when both sides are built
        // first, `U_left·U_right†` when gates alternate from either side.
        // The checker reports an entry that deviates from `W[0][0]·I`, the
        // identity up to the reference global phase.
        let m = if c.strategy == Strategy::Construction {
            w.construction.as_ref().ok_or("no oracle matrix for construction")?
        } else {
            &w.alternating
        };
        let (row, col) = (cex.row as usize, cex.col as usize);
        if row >= m.len() || col >= m.len() {
            return Err(format!("counterexample ({row},{col}) out of range"));
        }
        let expected = if row == col { m[0][0] } else { C::ZERO };
        if (m[col][row] - expected).abs() <= 1e-9 {
            return Err(format!(
                "counterexample ({row},{col}) agrees with W[0][0]·I in the oracle"
            ));
        }
    }
    if let Some((bound, exact)) = c.peak_bound {
        let ok = if exact {
            r.peak_nodes == bound
        } else {
            r.peak_nodes <= bound
        };
        if !ok {
            return Err(format!(
                "peak {} nodes, Example 12 has {}{bound}",
                r.peak_nodes,
                if exact { "" } else { "≤ " }
            ));
        }
    }
    Ok(())
}
