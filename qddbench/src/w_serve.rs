//! `serve-tool`: the daemon runs as a `qdd serve` child process and is
//! driven over `std::net::TcpStream` by two caller threads, each a closed
//! loop that waits for its reply before sending the next request: shot
//! jobs (QFT-16 and teleportation), simulate and verify calls on small
//! circuits, and an interactive session (create, step with dialog choices
//! and a back step, play, delete). An operation is one request outside a
//! session, or one whole session. The DD work per request is small, so
//! HTTP framing, threads, JSON and the embedded telemetry do most of it.

use crate::json::{self, Json};
use crate::layers::Layers;
use crate::oracle;
use crate::rng::Rng;
use crate::trace::{self, span, SpanRec};
use crate::{gen, proc, Ctx, RoundOut, Workload};
use qdd_circuit::QuantumCircuit;
use qdd_sim::{shots, DdSimulator, ShotOptions, SteppableSimulation};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Concurrent callers, one connection each at a time.
const CALLERS: usize = 2;
const SHOTS: u64 = 1000;
/// χ² with one degree of freedom at p = 10⁻⁴.
const CHI2_LIMIT: f64 = 15.14;

/// One caller's fixed requests.
struct Plan {
    qft_shots: String,
    qft_lines: Vec<String>,
    tele_shots: String,
    tele_lines: Vec<String>,
    tele_theta: f64,
    simulate: String,
    amplitudes: Vec<oracle::C>,
    verify_pair: String,
    verify_twin: String,
    verify_construct: String,
    session_create: String,
    session_seed: u64,
    /// In-process inputs of the same requests, for the replay behind
    /// `serve.overhead_ms`.
    local: Local,
}

struct Local {
    qft: QuantumCircuit,
    qft_seed: u64,
    tele: QuantumCircuit,
    tele_seed: u64,
    sim: QuantumCircuit,
    verify: (String, String, String),
    session: String,
}

struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(qdd: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(qdd)
            .args(["serve", "--port", "0", "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning qdd serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no stdout")?);
        let mut line = String::new();
        let ready = stdout.read_line(&mut line).map_err(|e| e.to_string());
        let addr = line.trim().rsplit("http://").next().map(str::to_string);
        match (ready, addr) {
            (Ok(n), Some(addr)) if n > 0 && line.contains("listening on http://") => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                drop(Daemon {
                    child,
                    _stdout: stdout,
                    addr: String::new(),
                });
                Err(format!("qdd serve did not report its address: {line:?}"))
            }
        }
    }
}

/// The daemon is stopped and reaped however the harness leaves its scope,
/// a failed check or a panic included.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub struct ServeTool {
    plans: Vec<Plan>,
    daemon: Option<Daemon>,
}

fn body(fields: &[(&str, String)]) -> String {
    let inner: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", inner.join(","))
}

fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn local_lines(circuit: &QuantumCircuit, seed: u64) -> Result<Vec<String>, String> {
    let opts = ShotOptions {
        threads: 1,
        ..ShotOptions::new(SHOTS, seed)
    };
    Ok(shots::run(circuit, &opts).map_err(|e| e.to_string())?.histogram_lines())
}

impl ServeTool {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut plans = Vec::new();
        for caller in 0..CALLERS {
            let mut rng = Rng::fork(seed, 10 + caller as u64);
            let parse = |q: &str| qdd_circuit::qasm::parse(q).map_err(|e| e.to_string());
            let qft = gen::qft(16);
            let qft_seed = rng.next_u64() >> 12;
            let theta = rng.range(0.3, 2.8);
            let tele = gen::teleport(theta);
            let tele_seed = rng.next_u64() >> 12;
            let sim = gen::clifford_t(6, 3, 6, &mut rng, None);
            let left = gen::qft(6);
            let right = crate::w_verify::compiled(&left)?;
            let twin = gen::inject_fault(&right);
            let session = gen::teleport(rng.range(0.3, 2.8));
            let session_seed = rng.next_u64() >> 12;
            let (qft_c, tele_c) = (parse(&qft)?, parse(&tele)?);
            plans.push(Plan {
                qft_shots: body(&[
                    ("qasm", jstr(&qft)),
                    ("shots", SHOTS.to_string()),
                    ("seed", qft_seed.to_string()),
                    ("threads", "1".into()),
                ]),
                qft_lines: local_lines(&qft_c, qft_seed)?,
                tele_shots: body(&[
                    ("qasm", jstr(&tele)),
                    ("shots", SHOTS.to_string()),
                    ("seed", tele_seed.to_string()),
                    ("threads", "1".into()),
                ]),
                tele_lines: local_lines(&tele_c, tele_seed)?,
                tele_theta: theta,
                simulate: body(&[("qasm", jstr(&sim)), ("include_amplitudes", "true".into())]),
                amplitudes: oracle::state(&sim)?,
                verify_pair: body(&[
                    ("left", jstr(&left)),
                    ("right", jstr(&right)),
                    ("strategy", jstr("barrier-guided")),
                ]),
                verify_twin: body(&[
                    ("left", jstr(&left)),
                    ("right", jstr(&twin)),
                    ("strategy", jstr("proportional")),
                ]),
                verify_construct: body(&[
                    ("left", jstr(&left)),
                    ("right", jstr(&right)),
                    ("strategy", jstr("construction")),
                ]),
                session_create: body(&[("qasm", jstr(&session))]),
                session_seed,
                local: Local {
                    qft: qft_c,
                    qft_seed,
                    tele: tele_c,
                    tele_seed,
                    sim: parse(&sim)?,
                    verify: (left, right, twin),
                    session,
                },
            });
        }
        Ok(ServeTool { plans, daemon: None })
    }
}

/// One request's outcome as the caller saw it.
struct Reply {
    status: u16,
    body: Vec<u8>,
    connect_ms: f64,
    ttfb_ms: f64,
    total_ms: f64,
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: qdd\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 16384];
    let n = s.read(&mut buf).map_err(|e| format!("receive: {e}"))?;
    let ttfb_ms = t0.elapsed().as_secs_f64() * 1e3;
    raw.extend_from_slice(&buf[..n]);
    s.read_to_end(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or("no header end")?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut payload = raw[split + 4..].to_vec();
    if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        payload = dechunk(&payload)?;
    }
    Ok(Reply {
        status,
        body: payload,
        connect_ms,
        ttfb_ms,
        total_ms,
    })
}

fn dechunk(mut b: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let eol = b.windows(2).position(|w| w == b"\r\n").ok_or("bad chunk header")?;
        let size = usize::from_str_radix(std::str::from_utf8(&b[..eol]).map_err(|e| e.to_string())?.trim(), 16)
            .map_err(|e| format!("bad chunk size: {e}"))?;
        b = &b[eol + 2..];
        if size == 0 {
            return Ok(out);
        }
        out.extend_from_slice(b.get(..size).ok_or("truncated chunk")?);
        b = b.get(size + 2..).ok_or("truncated chunk")?;
    }
}

/// What one caller recorded in one round.
#[derive(Default)]
struct Log {
    /// `(endpoint, latency ms)` per request.
    latencies: Vec<(&'static str, f64)>,
    /// Latency per operation: a request, or a whole session.
    ops: Vec<f64>,
    connect_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    cache: (u64, u64),
    telemetry_bytes: u64,
    output_bytes: u64,
    peak_nodes: u64,
    spans: Vec<SpanRec>,
    /// The `gauges` of each reply's embedded telemetry (traced runs only).
    gauges: Vec<Json>,
}

/// Sends one request, checks it is 2xx, and records it. The JSON of the
/// reply's last line (the whole body, or a shot stream's trailer) is
/// returned with the raw body. With tracing on, the request is a
/// `serve.request` span whose children are the connect and the program
/// work the reply's embedded telemetry reports.
fn call(
    addr: &str,
    log: &mut Log,
    endpoint: &'static str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(Vec<u8>, Json), String> {
    let _g = span("serve.request");
    let reply = http(addr, method, path, body)?;
    if !(200..300).contains(&reply.status) {
        return Err(format!(
            "{method} {path}: status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
                .chars()
                .take(300)
                .collect::<String>()
        ));
    }
    log.latencies.push((endpoint, reply.total_ms));
    log.connect_ms.push(reply.connect_ms);
    log.ttfb_ms.push(reply.ttfb_ms);
    log.output_bytes += reply.body.len() as u64;
    trace::child("serve.connect", (reply.connect_ms * 1e6) as u64);
    let trimmed = reply.body.strip_suffix(b"\n").unwrap_or(&reply.body);
    let last = trimmed.rsplit(|&b| b == b'\n').next().unwrap_or(trimmed);
    let j = parse_json(last)?;
    if let Some(hit) = j.get("cache").and_then(|c| c.bool("hit")) {
        log.cache.0 += hit as u64;
        log.cache.1 += 1;
    }
    absorb_telemetry(log, last, &j);
    Ok((reply.body, j))
}

/// Reads a JSON response's embedded telemetry: counts its bytes and, when
/// tracing, records the program layers' span totals as children.
fn absorb_telemetry(log: &mut Log, raw: &[u8], j: &Json) {
    let Some(t) = j.get("telemetry") else { return };
    // The blob is the response's last member: `"telemetry":{…}}`.
    const KEY: &[u8] = b"\"telemetry\":";
    if let Some(at) = raw.windows(KEY.len()).rposition(|w| w == KEY) {
        log.telemetry_bytes += (raw.len() - at - KEY.len() - 1) as u64;
    }
    if !trace::enabled() {
        return;
    }
    if let Some(g) = t.get("gauges") {
        log.gauges.push(g.clone());
    }
    let total = |name: &str| -> u64 {
        t.get("spans")
            .and_then(|s| s.get(name))
            .and_then(|s| s.num("total_ns"))
            .unwrap_or(0.0) as u64
    };
    trace::child("circuit.parse", total("circuit.parse_qasm"));
    let sim = total("shots.engine").max(total("sim.run"));
    if sim > 0 {
        trace::child("sim.server", sim);
    } else if total("core.apply_gate") > 0 {
        trace::child("core.server", total("core.apply_gate") + total("core.gc"));
    } else {
        trace::child(
            "core.server",
            total("core.gate_dd") + total("core.mat_mat") + total("core.gc"),
        );
    }
}

fn parse_json(body: &[u8]) -> Result<Json, String> {
    json::parse(std::str::from_utf8(body).map_err(|e| e.to_string())?)
}

/// A `/v1/shots` stream: header, histogram lines, trailer. The lines must
/// be the in-process engine's, byte for byte.
fn shots_call(addr: &str, log: &mut Log, body: &str, expected: &[String]) -> Result<Vec<String>, String> {
    let (raw, _trailer) = call(addr, log, "shots", "POST", "/v1/shots", body)?;
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() < 2 {
        return Err("short shots stream".into());
    }
    let entries: Vec<String> = lines[1..lines.len() - 1].iter().map(|s| s.to_string()).collect();
    let mut sum = 0.0;
    for e in &entries {
        sum += parse_json(e.as_bytes())?.num("count").ok_or("entry without count")?;
    }
    if sum as u64 != SHOTS {
        return Err(format!("histogram counts sum to {sum}, {SHOTS} shots were asked for"));
    }
    if entries != expected {
        return Err("histogram differs from in-process shots::run with the same seed".into());
    }
    Ok(entries)
}

/// The teleported qubit (`out`, classical bit 2) reads 1 with probability
/// sin²(θ/2).
fn chi2_teleport(entries: &[String], theta: f64) -> Result<(), String> {
    let mut ones = 0.0;
    for e in entries {
        let j = parse_json(e.as_bytes())?;
        if (j.num("value").ok_or("no value")? as u64 >> 2) & 1 == 1 {
            ones += j.num("count").ok_or("no count")?;
        }
    }
    let p = (theta / 2.0).sin().powi(2);
    let n = SHOTS as f64;
    let chi2 = (ones - n * p).powi(2) / (n * p) + (ones - n * p).powi(2) / (n * (1.0 - p));
    if chi2 > CHI2_LIMIT {
        return Err(format!(
            "teleported qubit read 1 in {ones} of {n} shots, expected p = {p:.4} (χ² = {chi2:.1})"
        ));
    }
    Ok(())
}

fn verify_call(addr: &str, log: &mut Log, body: &str, equivalent: bool) -> Result<(), String> {
    let (_, j) = call(addr, log, "verify", "POST", "/v1/verify", body)?;
    log.peak_nodes += j.num("peak_nodes").unwrap_or(0.0) as u64;
    if j.bool("equivalent") != Some(equivalent) {
        return Err(format!(
            "verify returned equivalent={:?}, ground truth {equivalent}",
            j.bool("equivalent")
        ));
    }
    Ok(())
}

/// One round of one caller: every request of its plan, in order.
fn caller_round(addr: &str, plan: &Plan, log: &mut Log) -> Result<(), String> {
    // Seven operations: six requests and one session. Both callers run
    // the same seven, so with fourteen per round the median falls inside
    // the times of the fourth- and fifth-cheapest operations (simulate and
    // construction verify, about 7 ms each), not on a gap between costs.
    // A session is one operation: its single steps take a fraction of a
    // millisecond, mostly thread wake-ups, and as the median they moved
    // by up to a third between runs on a shared host.
    let op = |log: &mut Log, first: usize| {
        let ms = log.latencies[first..].iter().map(|l| l.1).sum();
        log.ops.push(ms);
    };
    let first = log.latencies.len();
    shots_call(addr, log, &plan.qft_shots, &plan.qft_lines)?;
    op(log, first);
    let first = log.latencies.len();
    let tele = shots_call(addr, log, &plan.tele_shots, &plan.tele_lines)?;
    op(log, first);
    chi2_teleport(&tele, plan.tele_theta)?;

    let first = log.latencies.len();
    let (_, j) = call(addr, log, "simulate", "POST", "/v1/simulate", &plan.simulate)?;
    op(log, first);
    log.peak_nodes += j.num("peak_nodes").ok_or("no peak_nodes")? as u64;
    let amps = j.arr("amplitudes").ok_or("no amplitudes")?;
    if amps.len() != plan.amplitudes.len() {
        return Err(format!(
            "{} amplitudes, the oracle has {}",
            amps.len(),
            plan.amplitudes.len()
        ));
    }
    for (k, (a, e)) in amps.iter().zip(&plan.amplitudes).enumerate() {
        let (re, im) = match a {
            Json::Arr(v) if v.len() == 2 => match (&v[0], &v[1]) {
                (Json::Num(re), Json::Num(im)) => (*re, *im),
                _ => return Err("bad amplitude".into()),
            },
            _ => return Err("bad amplitude".into()),
        };
        if (oracle::C::new(re, im) - *e).abs() > 1e-9 {
            return Err(format!("amplitude {k} is ({re}, {im}), the oracle has {e:?}"));
        }
    }

    for (body, equivalent) in [
        (&plan.verify_pair, true),
        (&plan.verify_twin, false),
        (&plan.verify_construct, true),
    ] {
        let first = log.latencies.len();
        verify_call(addr, log, body, equivalent)?;
        op(log, first);
    }

    // A session: four steps forward, one back, forward to the first
    // dialog and choose, then play to the end and delete.
    let first = log.latencies.len();
    let (_, j) = call(addr, log, "session", "POST", "/v1/sessions", &plan.session_create)?;
    let id = j.num("session").ok_or("no session id")? as u64;
    let step_path = format!("/v1/sessions/{id}/step");
    let step = |log: &mut Log, body: &str| -> Result<Json, String> {
        let (_, j) = call(addr, log, "step", "POST", &step_path, body)?;
        log.peak_nodes += j.num("nodes").ok_or("no nodes")? as u64;
        Ok(j)
    };
    for _ in 0..4 {
        step(log, "{}")?;
    }
    let back = step(log, "{\"back\":true}")?;
    if back.str("outcome") != Some("stepped_back") || back.num("position") != Some(3.0) {
        return Err(format!("back step left the session at {:?}", back.num("position")));
    }
    loop {
        let j = step(log, "{}")?;
        match j.str("outcome") {
            Some("needs_choice") => break,
            Some("applied") => {}
            other => return Err(format!("session step returned {other:?} before its first dialog")),
        }
    }
    step(log, &format!("{{\"choose\":{}}}", plan.session_seed & 1))?;
    let play = format!("{{\"seed\":{}}}", plan.session_seed);
    let (_, j) = call(addr, log, "session", "POST", &format!("/v1/sessions/{id}/play"), &play)?;
    if j.bool("finished") != Some(true) || j.arr("classical_bits").map(<[Json]>::len) != Some(3) {
        return Err("play did not finish the session with three classical bits".into());
    }
    call(addr, log, "session", "DELETE", &format!("/v1/sessions/{id}"), "")?;
    op(log, first);
    Ok(())
}

impl Workload for ServeTool {
    /// Spawn to ready, plus one cold request per circuit the daemon caches.
    /// The daemon of the last probe serves the timed phase.
    fn setup_probe(&mut self, ctx: &Ctx) -> Result<f64, String> {
        self.daemon = None;
        let t0 = Instant::now();
        let d = Daemon::spawn(&ctx.qdd)?;
        let mut log = Log::default();
        let plan = &self.plans[0];
        let cold = (|| -> Result<(), String> {
            shots_call(&d.addr, &mut log, &plan.qft_shots, &plan.qft_lines)?;
            shots_call(&d.addr, &mut log, &plan.tele_shots, &plan.tele_lines)?;
            call(&d.addr, &mut log, "simulate", "POST", "/v1/simulate", &plan.simulate)?;
            for p in &self.plans[1..] {
                shots_call(&d.addr, &mut log, &p.tele_shots, &p.tele_lines)?;
                call(&d.addr, &mut log, "simulate", "POST", "/v1/simulate", &p.simulate)?;
            }
            Ok(())
        })();
        let secs = t0.elapsed().as_secs_f64();
        self.daemon = Some(d);
        cold.map(|_| secs)
    }

    fn round(&mut self, layers: &mut Layers) -> Result<RoundOut, String> {
        let addr = self.daemon.as_ref().ok_or("no daemon")?.addr.clone();
        let traced = trace::enabled();
        let logs: Vec<Result<Log, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .plans
                .iter()
                .enumerate()
                .map(|(i, plan)| {
                    let addr = &addr;
                    s.spawn(move || {
                        trace::set_enabled(traced, i as u32 + 1);
                        trace::set_request(i as u64);
                        let mut log = Log::default();
                        let r = caller_round(addr, plan, &mut log);
                        log.spans = trace::take();
                        trace::set_enabled(false, 0);
                        r.map(|_| log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("caller panicked".into())))
                .collect()
        });
        let mut out = RoundOut::default();
        for (i, log) in logs.into_iter().enumerate() {
            let log = log.map_err(|e| format!("caller {i}: {e}"))?;
            out.attempted += log.ops.len() as u64;
            out.op_ms.extend(&log.ops);
            out.peak_nodes += log.peak_nodes;
            out.output_bytes += log.output_bytes;
            if traced {
                for (endpoint, ms) in &log.latencies {
                    match *endpoint {
                        "shots" => layers.sample("serve.shots_p50_ms", *ms),
                        "step" => layers.sample("serve.step_p50_ms", *ms),
                        "simulate" => layers.sample("serve.simulate_p50_ms", *ms),
                        "verify" => layers.sample("serve.verify_p50_ms", *ms),
                        _ => {}
                    }
                }
                for &ms in &log.connect_ms {
                    layers.sample("serve.connect_ms", ms);
                }
                for &ms in &log.ttfb_ms {
                    layers.sample("serve.ttfb_ms", ms);
                }
                layers.ratio("serve.cache_hit_rate", log.cache.0 as f64, log.cache.1 as f64);
                for g in &log.gauges {
                    layers.telemetry_gauges(g);
                }
                layers.add("telemetry.snapshot_kb", log.telemetry_bytes as f64 / 1e3);
                trace::append(&mut layers.foreign_spans, log.spans);
                let t = Instant::now();
                let replays = replay(&self.plans[i], layers)?;
                out.untimed_s += t.elapsed().as_secs_f64();
                for (endpoint, ms) in &log.latencies {
                    let local = replays.iter().find(|r| r.0 == *endpoint).map_or(0.0, |r| r.1);
                    layers.sample("serve.overhead_ms", ms - local);
                }
            }
        }
        Ok(out)
    }

    /// 250 operations put the tail at p96: inside the teleportation shot
    /// jobs' cluster (the dearest 2 of 14 operations per round, above
    /// p92.9). At p99 it sat on the slowest few of those jobs and moved
    /// by a quarter between runs on a shared host.
    fn min_ops(&self) -> usize {
        250
    }

    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let d = self.daemon.as_ref().ok_or("no daemon")?;
        proc::peak_rss_mb(&d.child.id().to_string())
    }

    fn callers(&self) -> usize {
        CALLERS
    }
}

/// The library calls behind each endpoint, replayed in process on the
/// daemon's warm path: `(endpoint, ms per request)`. Sessions spread their
/// replay evenly over their requests.
fn replay(plan: &Plan, layers: &mut Layers) -> Result<Vec<(&'static str, f64)>, String> {
    let l = &plan.local;
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let err = |e: qdd_sim::SimError| e.to_string();
    let mut shots_ms = 0.0;
    for (c, seed) in [(&l.qft, l.qft_seed), (&l.tele, l.tele_seed)] {
        let t = Instant::now();
        let base = shots::build_warm_base(c, Default::default()).map_err(err)?;
        let build = ms(t);
        let opts = ShotOptions {
            threads: 1,
            warm_base: Some(base.frozen.clone()),
            ..ShotOptions::new(SHOTS, seed)
        };
        let t = Instant::now();
        shots::run(c, &opts).map_err(err)?;
        let run = ms(t);
        layers.add("sim.build_base_ms", build);
        layers.add("sim.shots_ms", run);
        shots_ms += run / 2.0;
    }
    let base = shots::build_warm_base(&l.sim, Default::default()).map_err(err)?;
    let t = Instant::now();
    let mut sim = DdSimulator::with_frozen_base(l.sim.clone(), 1, &base.frozen);
    sim.run().map_err(err)?;
    let _ = sim.dense_state();
    let simulate_ms = ms(t);
    let t = Instant::now();
    use qdd_verify::Strategy;
    for (right, strategy) in [
        (&l.verify.1, Strategy::BarrierGuided),
        (&l.verify.2, Strategy::Proportional),
        (&l.verify.1, Strategy::Construction),
    ] {
        let (a, b) = (qdd_circuit::qasm::parse(&l.verify.0), qdd_circuit::qasm::parse(right));
        let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
        let _ = qdd_verify::EquivalenceChecker::new().check(&a, &b, strategy);
    }
    let verify_ms = ms(t) / 3.0;
    let t = Instant::now();
    let c = qdd_circuit::qasm::parse(&l.session).map_err(|e| e.to_string())?;
    let mut s = SteppableSimulation::new(c);
    let mut requests = 1.0;
    loop {
        requests += 1.0;
        match s.step_forward().map_err(err)? {
            qdd_sim::StepOutcome::AtEnd => break,
            qdd_sim::StepOutcome::NeedsChoice(_) => {
                s.choose(qdd_core::MeasurementOutcome::Zero).map_err(err)?;
            }
            qdd_sim::StepOutcome::Applied { .. } => {}
        }
    }
    let session_ms = ms(t) / requests;
    Ok(vec![
        ("shots", shots_ms),
        ("simulate", simulate_ms),
        ("verify", verify_ms),
        ("session", session_ms),
        ("step", session_ms),
    ])
}
