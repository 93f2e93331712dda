//! Process helpers: peak resident memory and timed child processes.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `VmHWM` of a process, in MB (10⁶ bytes).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Runs `qdd` with `args` to completion and returns its wall time in
/// seconds; a non-zero exit is an error.
pub fn time_qdd(qdd: &Path, args: &[&str]) -> Result<f64, String> {
    let t0 = Instant::now();
    let out = Command::new(qdd)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("spawning {}: {e}", qdd.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "qdd {} exited with {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(secs)
}
