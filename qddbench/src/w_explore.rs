//! `explore-render`: the paper's two tool tabs, run in process. Each
//! operation is one whole session: a `SimulationExplorer` stepping through
//! a circuit (dialogs and back steps included) in one of the three styles,
//! or a `VerificationExplorer` running Example 12's barrier-guided schedule
//! on QFT-n against its compiled form, bundled into one HTML explorer.
//! Diagrams stay small, so graph extraction and SVG/DOT/HTML string
//! building do most of the work.

use crate::layers::Layers;
use crate::rng::Rng;
use crate::trace::{self, span};
use crate::{gen, proc, Ctx, RoundOut, Workload};
use qdd_core::MeasurementOutcome;
use qdd_sim::StepOutcome;
use qdd_viz::{html, DdGraph, Frame, SimulationExplorer, VerificationExplorer, VizStyle};
use std::time::Instant;

const STYLES: [&str; 3] = ["classic", "colored", "modern"];

fn style(i: usize) -> VizStyle {
    match i {
        0 => VizStyle::classic(),
        1 => VizStyle::colored(),
        _ => VizStyle::modern(),
    }
}

/// Back steps per simulation session, at seeded positions.
const BACK_STEPS: usize = 3;

/// What the last frame of a session must show.
#[derive(Clone, Copy)]
enum FinalNodes {
    /// Exactly this many nodes (GHZ-n: 2n − 1; QFT-n on |0…0⟩: n).
    Exactly(usize),
    Any,
}

enum Kind {
    Simulation {
        /// Operation indices after which the session steps back once.
        back_after: Vec<usize>,
        /// Outcomes for the measurement dialogs, in order (a `1` is used
        /// only where it is possible).
        choices: Vec<bool>,
        final_nodes: FinalNodes,
    },
    /// Barrier-guided verification of `qasm` against `right`.
    Verification { right: String, peak_bound: Option<usize> },
}

struct Session {
    label: String,
    qasm: String,
    style: usize,
    kind: Kind,
}

pub struct ExploreRender {
    sessions: Vec<Session>,
}

impl ExploreRender {
    /// Twenty-one sessions per round: with an odd count the median falls
    /// inside one session's cluster of times, not on the gap between two,
    /// and so does p93 (the tail at 150 operations).
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::fork(seed, 4);
        // Each circuit in each style, except two whose frames are far
        // larger, which run once, in the paper's Fig. 6 style: a dense
        // Clifford+T-8 circuit (255 nodes after its prefix), and Grover-7
        // marked 40, whose exact states peak at 18 nodes as for marked 3
        // but whose diagrams in the program reach about 120 (see README).
        // Both marked elements are fixed, so every run meets that defect
        // the same way.
        let all = 0..STYLES.len();
        let circuits: Vec<(&str, String, FinalNodes, std::ops::Range<usize>)> = vec![
            ("qft-16", gen::qft(16), FinalNodes::Exactly(16), all.clone()),
            ("ghz-24", gen::ghz(24), FinalNodes::Exactly(47), all.clone()),
            ("grover-7", gen::grover(7, 3), FinalNodes::Any, all.clone()),
            ("grover-7-marked-40", gen::grover(7, 40), FinalNodes::Any, 1..2),
            ("w-12", gen::w_state(12), FinalNodes::Any, all.clone()),
            (
                "cliffordt-8",
                gen::clifford_t(8, 3, 8, &mut rng, None),
                FinalNodes::Any,
                1..2,
            ),
            ("teleport", gen::teleport(rng.range(0.2, 2.9)), FinalNodes::Any, all),
        ];
        let mut sessions = Vec::new();
        for (name, qasm, final_nodes, styles) in circuits {
            let ops = qdd_circuit::qasm::parse(&qasm)
                .map_err(|e| format!("{name}: {e}"))?
                .ops()
                .len();
            for style in styles {
                let mut back_after: Vec<usize> = (0..BACK_STEPS).map(|_| rng.below(ops)).collect();
                back_after.sort_unstable();
                let choices = (0..8).map(|_| rng.below(2) == 1).collect();
                sessions.push(Session {
                    label: format!("{name} {}", STYLES[style]),
                    qasm: qasm.clone(),
                    style,
                    kind: Kind::Simulation {
                        back_after,
                        choices,
                        final_nodes,
                    },
                });
            }
        }
        for (i, n) in [3usize, 6, 9, 5].into_iter().enumerate() {
            let style = i % STYLES.len();
            let qft = gen::qft(n);
            let right = crate::w_verify::compiled(&qft)?;
            sessions.push(Session {
                label: format!("verify qft-{n} {}", STYLES[style]),
                qasm: qft,
                style,
                kind: Kind::Verification {
                    right,
                    peak_bound: (n == 3).then_some(9),
                },
            });
        }
        Ok(ExploreRender { sessions })
    }
}

impl Workload for ExploreRender {
    fn setup_probe(&mut self, ctx: &Ctx) -> Result<f64, String> {
        let input = ctx.work_dir.join("setup-explore.qasm");
        let output = ctx.work_dir.join("setup-explore.html");
        std::fs::write(&input, gen::clifford_t(10, 3, 10, &mut Rng::new(0x5E7), None)).map_err(|e| e.to_string())?;
        let (i, o) = (input.to_str().ok_or("path")?, output.to_str().ok_or("path")?);
        proc::time_qdd(&ctx.qdd, &["render", i, "-o", o, "--style", "modern"])
    }

    fn round(&mut self, layers: &mut Layers) -> Result<RoundOut, String> {
        let mut out = RoundOut::default();
        for (i, s) in self.sessions.iter().enumerate() {
            out.attempted += 1;
            trace::set_request(i as u64);
            let t0 = Instant::now();
            let result = {
                let _op = span("bench.session");
                run_session(s, layers)
            };
            let replay_ms = layers.take_replay_ms();
            out.untimed_s += replay_ms / 1e3;
            let ms = t0.elapsed().as_secs_f64() * 1e3 - replay_ms;
            match result {
                Ok(done) => {
                    let t_check = Instant::now();
                    let frames = done.explorer.frames();
                    validate(s, &done).map_err(|e| format!("session {i} ({}): {e}", s.label))?;
                    out.peak_nodes += frames.iter().map(|f| f.node_count).max().unwrap_or(0) as u64;
                    out.output_bytes +=
                        frames.iter().map(|f| f.svg.len() + f.dot.len()).sum::<usize>() as u64 + done.html.len() as u64;
                    layers.add("viz.frames", frames.len() as f64);
                    out.untimed_s += t_check.elapsed().as_secs_f64();
                    // Releasing the session is part of its cost.
                    let t_drop = Instant::now();
                    trace::timed("viz.drop", || drop(done));
                    out.op_ms.push(ms + t_drop.elapsed().as_secs_f64() * 1e3);
                }
                Err(e) => out.fail(format!("session {i} ({}) failed: {e}", s.label)),
            }
        }
        Ok(out)
    }

    fn min_ops(&self) -> usize {
        150
    }

    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        proc::peak_rss_mb("self")
    }
}

/// A finished session: its explorer (which holds the frames), the
/// navigation events that should each have produced a frame, and the
/// bundled HTML. The frames are checked where the explorer keeps them.
struct Done {
    explorer: Explorer,
    events: usize,
    html: String,
    verdict: Option<(bool, usize)>,
}

enum Explorer {
    Simulation(SimulationExplorer),
    Verification(VerificationExplorer),
}

impl Explorer {
    fn frames(&self) -> &[Frame] {
        match self {
            Explorer::Simulation(ex) => ex.frames(),
            Explorer::Verification(ex) => ex.frames(),
        }
    }
}

fn run_session(s: &Session, layers: &mut Layers) -> Result<Done, String> {
    let circuit = trace::timed("circuit.parse", || qdd_circuit::qasm::parse(&s.qasm)).map_err(|e| e.to_string())?;
    let style = style(s.style);
    match &s.kind {
        Kind::Simulation {
            back_after, choices, ..
        } => {
            let mut ex = navigate(layers, || SimulationExplorer::new(circuit, style));
            replay_state(layers, &ex, &style);
            // The initial frame is the session's first event.
            let mut events = 1;
            let mut backs = back_after.iter().peekable();
            let mut dialogs = 0;
            loop {
                let outcome = navigate(layers, || ex.step_forward()).map_err(|e| e.to_string())?;
                match outcome {
                    StepOutcome::AtEnd => break,
                    StepOutcome::Applied { op_index } => {
                        events += 1;
                        replay_state(layers, &ex, &style);
                        while backs.next_if(|&&b| b == op_index).is_some() {
                            if navigate(layers, || ex.step_back()) {
                                events += 1;
                                replay_state(layers, &ex, &style);
                            }
                        }
                    }
                    StepOutcome::NeedsChoice(p) => {
                        events += 1;
                        let want_one = choices.get(dialogs).copied().unwrap_or(false);
                        dialogs += 1;
                        let one = if want_one { p.p1 > 1e-9 } else { p.p0 <= 1e-9 };
                        navigate(layers, || ex.choose(MeasurementOutcome::from(one))).map_err(|e| e.to_string())?;
                        events += 1;
                        replay_state(layers, &ex, &style);
                    }
                }
            }
            let html = trace::timed("viz.html", || html::explorer_html(&s.label, ex.frames()));
            layers.package(ex.simulation().package());
            Ok(Done {
                explorer: Explorer::Simulation(ex),
                events,
                html,
                verdict: None,
            })
        }
        Kind::Verification { right, .. } => {
            let right = trace::timed("circuit.parse", || qdd_circuit::qasm::parse(right)).map_err(|e| e.to_string())?;
            let mut ex =
                navigate(layers, || VerificationExplorer::new(&circuit, &right, style)).map_err(|e| e.to_string())?;
            replay_operator(layers, &ex, &style);
            // Example 12's schedule, one navigation call at a time: one gate
            // from G, then G' up to its next barrier; then drain G'.
            loop {
                let left = navigate(layers, || ex.apply_left()).map_err(|e| e.to_string())?;
                if left {
                    replay_operator(layers, &ex, &style);
                }
                let before = ex.frames().len();
                navigate(layers, || ex.right_to_next_barrier()).map_err(|e| e.to_string())?;
                if ex.frames().len() > before {
                    replay_operator(layers, &ex, &style);
                }
                if !left {
                    break;
                }
            }
            while navigate(layers, || ex.apply_right()).map_err(|e| e.to_string())? {}
            let equivalent = ex.resembles_identity();
            let (l, r) = ex.position();
            let html = trace::timed("viz.html", || html::explorer_html(&s.label, ex.frames()));
            layers.package(ex.package());
            let verdict = Some((equivalent, ex.peak_nodes()));
            Ok(Done {
                explorer: Explorer::Verification(ex),
                events: 1 + l + r,
                html,
                verdict,
            })
        }
    }
}

/// One navigation call of a tool tab, traced as a `viz.navigate` span with
/// the program's `core` spans inside it as children.
fn navigate<T>(layers: &mut Layers, f: impl FnOnce() -> T) -> T {
    let _s = span("viz.navigate");
    let r = f();
    layers.program_spans();
    r
}

fn validate(s: &Session, d: &Done) -> Result<(), String> {
    let frames = d.explorer.frames();
    if frames.len() != d.events {
        return Err(format!("{} frames for {} navigation events", frames.len(), d.events));
    }
    for (k, f) in frames.iter().enumerate() {
        check_svg(&f.svg, f.node_count).map_err(|e| format!("frame {k}: {e}"))?;
    }
    check_html(&d.html)?;
    let last = frames.last().ok_or("no frames")?;
    match &s.kind {
        Kind::Simulation {
            final_nodes: FinalNodes::Exactly(n),
            ..
        } if last.node_count != *n => Err(format!("final frame has {} nodes, expected {n}", last.node_count)),
        Kind::Verification { peak_bound, .. } => {
            let (equivalent, peak) = d.verdict.ok_or("no verdict")?;
            if !equivalent {
                return Err("QFT and compiled QFT reported not equivalent".into());
            }
            if let Some(bound) = peak_bound {
                if peak > *bound {
                    return Err(format!("peak {peak} nodes, Example 12 has at most {bound}"));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// One `<svg>` root, balanced tags, and one node shape per diagram node
/// (the classic circle or the modern rounded box).
pub fn check_svg(svg: &str, nodes: usize) -> Result<(), String> {
    let mut stack: Vec<&str> = Vec::new();
    let mut roots = 0;
    let mut rest = svg;
    while let Some(open) = rest.find('<') {
        let close = rest[open..].find('>').ok_or("unterminated tag")? + open;
        let tag = &rest[open + 1..close];
        rest = &rest[close + 1..];
        if let Some(name) = tag.strip_prefix('/') {
            if stack.pop() != Some(name.trim()) {
                return Err(format!("unbalanced </{name}>"));
            }
        } else if !tag.ends_with('/') && !tag.starts_with('?') && !tag.starts_with('!') {
            let name = tag.split_whitespace().next().unwrap_or("");
            if stack.is_empty() {
                roots += 1;
            }
            stack.push(name);
        } else if stack.is_empty() {
            roots += 1;
        }
    }
    if roots != 1 || !stack.is_empty() {
        return Err(format!("{roots} root elements, {} unclosed", stack.len()));
    }
    let drawn = svg.matches("fill=\"#f5f5f5\"").count() + svg.matches("fill=\"#eef3fb\"").count();
    if drawn != nodes {
        return Err(format!("SVG draws {drawn} nodes, the frame counts {nodes}"));
    }
    Ok(())
}

/// No external URL besides the SVG namespace.
fn check_html(html: &str) -> Result<(), String> {
    const XMLNS: &str = "http://www.w3.org/2000/svg";
    for scheme in ["http://", "https://"] {
        for (at, _) in html.match_indices(scheme) {
            if !html[at..].starts_with(XMLNS) {
                let end = (at + 60).min(html.len());
                return Err(format!("external URL in HTML: {}", &html[at..end]));
            }
        }
    }
    if html.contains("src=\"//") || html.contains("href=\"//") {
        return Err("protocol-relative URL in HTML".into());
    }
    Ok(())
}

/// Replays the latest frame of a simulation session (traced runs only).
fn replay_state(layers: &mut Layers, ex: &SimulationExplorer, style: &VizStyle) {
    if trace::enabled() {
        let sim = ex.simulation();
        replay(
            layers,
            || DdGraph::from_vector(sim.package(), sim.state()),
            style,
            ex.latest_frame(),
        );
    }
}

/// Replays the latest frame of a verification session (traced runs only).
fn replay_operator(layers: &mut Layers, ex: &VerificationExplorer, style: &VizStyle) {
    if let (true, Some(frame)) = (trace::enabled(), ex.frames().last()) {
        replay(layers, || DdGraph::from_matrix(ex.package(), ex.matrix()), style, frame);
    }
}

/// The replay behind `viz.graph_ms`, `viz.svg_ms` and `viz.dot_ms`: the
/// explorer renders each frame inside one public call, so the traced run
/// renders the same diagram again through `DdGraph`, `graph_to_svg` and
/// `graph_to_dot`, times each, and checks the SVG is the frame's. The
/// replay's time is excluded from the round and the operation.
fn replay(layers: &mut Layers, graph: impl FnOnce() -> DdGraph, style: &VizStyle, frame: &Frame) {
    let _s = span("replay.frame");
    let t0 = Instant::now();
    let g = graph();
    let t1 = Instant::now();
    let svg = qdd_viz::svg::graph_to_svg(&g, style);
    let t2 = Instant::now();
    let dot = qdd_viz::dot::graph_to_dot(&g, style);
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    // The explorer extracts the graph twice per frame: once for the SVG
    // and once for the DOT.
    layers.add("viz.graph_ms", 2.0 * ms(t0, t1));
    layers.add("viz.svg_ms", ms(t1, t2));
    layers.add("viz.dot_ms", ms(t2, t3));
    if svg != frame.svg || dot != frame.dot {
        layers.replay_mismatches += 1;
    }
    layers.add_replay_ms(ms(t0, Instant::now()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svg_check_counts_nodes_and_balances_tags() {
        let svg = "<svg xmlns=\"http://www.w3.org/2000/svg\">\n<circle r=\"18\" fill=\"#f5f5f5\" stroke=\"black\"/>\n\
                   <text x=\"1\">q0</text>\n<rect rx=\"8\" fill=\"#eef3fb\"/>\n</svg>\n";
        assert!(check_svg(svg, 2).is_ok());
        assert!(check_svg(svg, 1).is_err());
        assert!(check_svg("<svg><g></svg>", 0).is_err());
        assert!(check_svg("<svg></svg><svg></svg>", 0).is_err());
    }

    #[test]
    fn html_check_allows_only_the_svg_namespace() {
        assert!(check_html("<svg xmlns=\"http://www.w3.org/2000/svg\"></svg>").is_ok());
        assert!(check_html("<script src=\"https://cdn.example/x.js\"></script>").is_err());
    }
}
