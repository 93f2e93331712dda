//! The reference oracle: dense state vectors (up to 12 qubits) and dense
//! unitaries (up to 8 qubits), computed from OpenQASM text by this file's
//! own reader and gate matrices. It uses no decision diagram and none of
//! the program's code, so agreeing with it is evidence, not tautology.
//!
//! Basis convention (the program's): qubit `q` is bit `q` of the basis
//! index.

use std::f64::consts::{FRAC_1_SQRT_2, PI};
use std::ops::{Add, Mul, Sub};

pub const MAX_STATE_QUBITS: usize = 12;
pub const MAX_UNITARY_QUBITS: usize = 8;

#[derive(Copy, Clone, Debug, PartialEq)]
pub struct C {
    pub re: f64,
    pub im: f64,
}

impl C {
    pub const ZERO: C = C { re: 0.0, im: 0.0 };
    pub const ONE: C = C { re: 1.0, im: 0.0 };

    pub const fn new(re: f64, im: f64) -> C {
        C { re, im }
    }

    pub fn expi(theta: f64) -> C {
        C::new(theta.cos(), theta.sin())
    }

    pub fn conj(self) -> C {
        C::new(self.re, -self.im)
    }

    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }
}

impl Add for C {
    type Output = C;
    fn add(self, o: C) -> C {
        C::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C {
    type Output = C;
    fn sub(self, o: C) -> C {
        C::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C {
    type Output = C;
    fn mul(self, o: C) -> C {
        C::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

type M2 = [[C; 2]; 2];

/// One unitary instruction: a 2×2 matrix on `target` under positive
/// `controls`, or a swap.
#[derive(Clone, Debug)]
pub enum Instr {
    Gate { u: M2, controls: Vec<usize>, target: usize },
    Swap(usize, usize),
}

fn real(x: f64) -> C {
    C::new(x, 0.0)
}

fn phase(theta: f64) -> M2 {
    [[C::ONE, C::ZERO], [C::ZERO, C::expi(theta)]]
}

fn base_matrix(name: &str, params: &[f64]) -> Option<M2> {
    let h = FRAC_1_SQRT_2;
    let p = |i: usize| params.get(i).copied();
    Some(match name {
        "id" => [[C::ONE, C::ZERO], [C::ZERO, C::ONE]],
        "x" => [[C::ZERO, C::ONE], [C::ONE, C::ZERO]],
        "y" => [[C::ZERO, C::new(0.0, -1.0)], [C::new(0.0, 1.0), C::ZERO]],
        "z" => phase(PI),
        "h" => [[real(h), real(h)], [real(h), real(-h)]],
        "s" => phase(PI / 2.0),
        "sdg" => phase(-PI / 2.0),
        "t" => phase(PI / 4.0),
        "tdg" => phase(-PI / 4.0),
        "p" | "u1" => phase(p(0)?),
        "rx" => {
            let (c, s) = ((p(0)? / 2.0).cos(), (p(0)? / 2.0).sin());
            [[real(c), C::new(0.0, -s)], [C::new(0.0, -s), real(c)]]
        }
        "ry" => {
            let (c, s) = ((p(0)? / 2.0).cos(), (p(0)? / 2.0).sin());
            [[real(c), real(-s)], [real(s), real(c)]]
        }
        "rz" => {
            let t = p(0)? / 2.0;
            [[C::expi(-t), C::ZERO], [C::ZERO, C::expi(t)]]
        }
        _ => return None,
    })
}

/// Reads the unitary part of an OpenQASM 2.0 program over one register
/// `q`: the gates this benchmark generates and the program's compiler
/// emits. Barriers are skipped; measurement, reset and conditions are
/// refused.
pub fn parse(qasm: &str) -> Result<(usize, Vec<Instr>), String> {
    let mut n = None;
    let mut out = Vec::new();
    for raw in qasm.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") || line.starts_with("OPENQASM") || line.starts_with("include") {
            continue;
        }
        let stmt = line.strip_suffix(';').ok_or_else(|| format!("no ';' in {line:?}"))?;
        if let Some(size) = stmt.strip_prefix("qreg q[").and_then(|s| s.strip_suffix(']')) {
            n = Some(size.parse::<usize>().map_err(|e| e.to_string())?);
            continue;
        }
        if stmt.starts_with("barrier") || stmt.starts_with("creg") {
            continue;
        }
        let (head, args) = stmt.split_once(' ').ok_or_else(|| format!("bad statement {line:?}"))?;
        let (name, params) = match head.split_once('(') {
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix(')')
                    .ok_or_else(|| format!("bad params in {line:?}"))?;
                let params = inner.split(',').map(eval_angle).collect::<Result<Vec<_>, _>>()?;
                (name, params)
            }
            None => (head, Vec::new()),
        };
        let qubits = args
            .split(',')
            .map(|a| {
                a.trim()
                    .strip_prefix("q[")
                    .and_then(|s| s.strip_suffix(']'))
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| format!("bad qubit {a:?} in {line:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (base, ncontrols) = if name == "swap" {
            out.push(Instr::Swap(qubits[0], qubits[1]));
            continue;
        } else if let Some(rest) = name.strip_prefix("mc") {
            (rest, qubits.len() - 1)
        } else if let Some(rest) = name.strip_prefix("cc") {
            (rest, 2)
        } else if base_matrix(name, &params).is_some() {
            (name, 0)
        } else if let Some(rest) = name.strip_prefix('c') {
            (rest, 1)
        } else {
            (name, 0)
        };
        let u = base_matrix(base, &params).ok_or_else(|| format!("unsupported gate {line:?}"))?;
        if qubits.len() != ncontrols + 1 {
            return Err(format!("wrong arity in {line:?}"));
        }
        out.push(Instr::Gate {
            u,
            controls: qubits[..ncontrols].to_vec(),
            target: qubits[ncontrols],
        });
    }
    let n = n.ok_or("no qreg q")?;
    let in_range = |q: &usize| *q < n;
    for i in &out {
        let ok = match i {
            Instr::Gate { controls, target, .. } => controls.iter().all(in_range) && in_range(target),
            Instr::Swap(a, b) => in_range(a) && in_range(b),
        };
        if !ok {
            return Err("qubit index out of range".into());
        }
    }
    Ok((n, out))
}

/// Evaluates an angle: numbers, `pi`, unary minus, `* / + -`, parentheses.
fn eval_angle(s: &str) -> Result<f64, String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i] == b' ' {
                self.i += 1;
            }
        }
        fn expr(&mut self) -> Result<f64, String> {
            let mut v = self.term()?;
            loop {
                self.ws();
                match self.b.get(self.i) {
                    Some(b'+') => {
                        self.i += 1;
                        v += self.term()?;
                    }
                    Some(b'-') => {
                        self.i += 1;
                        v -= self.term()?;
                    }
                    _ => return Ok(v),
                }
            }
        }
        fn term(&mut self) -> Result<f64, String> {
            let mut v = self.factor()?;
            loop {
                self.ws();
                match self.b.get(self.i) {
                    Some(b'*') => {
                        self.i += 1;
                        v *= self.factor()?;
                    }
                    Some(b'/') => {
                        self.i += 1;
                        v /= self.factor()?;
                    }
                    _ => return Ok(v),
                }
            }
        }
        fn factor(&mut self) -> Result<f64, String> {
            self.ws();
            match self.b.get(self.i) {
                Some(b'-') => {
                    self.i += 1;
                    Ok(-self.factor()?)
                }
                Some(b'(') => {
                    self.i += 1;
                    let v = self.expr()?;
                    self.ws();
                    if self.b.get(self.i) != Some(&b')') {
                        return Err("missing ')'".into());
                    }
                    self.i += 1;
                    Ok(v)
                }
                Some(b'p') if self.b[self.i..].starts_with(b"pi") => {
                    self.i += 2;
                    Ok(PI)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.b.len()
                        && (self.b[self.i].is_ascii_digit()
                            || matches!(self.b[self.i], b'.' | b'e' | b'E')
                            || (matches!(self.b[self.i], b'-' | b'+') && matches!(self.b[self.i - 1], b'e' | b'E')))
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                    text.parse::<f64>().map_err(|e| format!("bad number {text:?}: {e}"))
                }
            }
        }
    }
    let mut p = P {
        b: s.trim().as_bytes(),
        i: 0,
    };
    let v = p.expr()?;
    if p.i != p.b.len() {
        return Err(format!("trailing input in angle {s:?}"));
    }
    Ok(v)
}

fn apply(amps: &mut [C], instr: &Instr) {
    match instr {
        Instr::Gate { u, controls, target } => {
            let tbit = 1usize << target;
            let cmask: usize = controls.iter().map(|c| 1usize << c).sum();
            for i in 0..amps.len() {
                if i & tbit != 0 || i & cmask != cmask {
                    continue;
                }
                let (a0, a1) = (amps[i], amps[i | tbit]);
                amps[i] = u[0][0] * a0 + u[0][1] * a1;
                amps[i | tbit] = u[1][0] * a0 + u[1][1] * a1;
            }
        }
        Instr::Swap(a, b) => {
            let (ab, bb) = (1usize << a, 1usize << b);
            for i in 0..amps.len() {
                if i & ab != 0 && i & bb == 0 {
                    amps.swap(i, i ^ ab ^ bb);
                }
            }
        }
    }
}

/// The final state of the circuit on `|0…0⟩`.
pub fn state(qasm: &str) -> Result<Vec<C>, String> {
    let (n, instrs) = parse(qasm)?;
    if n > MAX_STATE_QUBITS {
        return Err(format!("{n} qubits exceed the state oracle's {MAX_STATE_QUBITS}"));
    }
    let mut amps = vec![C::ZERO; 1 << n];
    amps[0] = C::ONE;
    for i in &instrs {
        apply(&mut amps, i);
    }
    Ok(amps)
}

/// The circuit's unitary as a list of columns: `u[col][row]`.
pub fn unitary(qasm: &str) -> Result<Vec<Vec<C>>, String> {
    let (n, instrs) = parse(qasm)?;
    if n > MAX_UNITARY_QUBITS {
        return Err(format!("{n} qubits exceed the unitary oracle's {MAX_UNITARY_QUBITS}"));
    }
    let dim = 1usize << n;
    Ok((0..dim)
        .map(|col| {
            let mut amps = vec![C::ZERO; dim];
            amps[col] = C::ONE;
            for i in &instrs {
                apply(&mut amps, i);
            }
            amps
        })
        .collect())
}

/// `W = U·V†` for two unitaries given as column lists: `w[col][row]`.
pub fn times_adjoint(u: &[Vec<C>], v: &[Vec<C>]) -> Vec<Vec<C>> {
    let dim = u.len();
    (0..dim)
        .map(|col| (0..dim).map(|row| times_adjoint_entry(u, v, row, col)).collect())
        .collect()
}

/// Entry `(row, col)` of `U·V†`.
pub fn times_adjoint_entry(u: &[Vec<C>], v: &[Vec<C>], row: usize, col: usize) -> C {
    u.iter()
        .zip(v)
        .fold(C::ZERO, |acc, (uk, vk)| acc + uk[row] * vk[col].conj())
}

/// `V†·U`, as a list of columns.
pub fn adjoint_times(v: &[Vec<C>], u: &[Vec<C>]) -> Vec<Vec<C>> {
    let dim = u.len();
    (0..dim)
        .map(|col| (0..dim).map(|row| adjoint_times_entry(v, u, row, col)).collect())
        .collect()
}

/// Entry `(row, col)` of `V†·U`.
pub fn adjoint_times_entry(v: &[Vec<C>], u: &[Vec<C>], row: usize, col: usize) -> C {
    v[row]
        .iter()
        .zip(&u[col])
        .fold(C::ZERO, |acc, (&a, &b)| acc + a.conj() * b)
}

/// Whether `w` is `e^{iφ}·I` for some φ.
pub fn is_phase_identity(w: &[Vec<C>], tol: f64) -> bool {
    let p = w[0][0];
    if (p.abs() - 1.0).abs() > tol {
        return false;
    }
    w.iter().enumerate().all(|(col, column)| {
        column
            .iter()
            .enumerate()
            .all(|(row, &x)| (x - if row == col { p } else { C::ZERO }).abs() <= tol)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn close(a: C, b: C) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn bell_state() {
        let s = state("OPENQASM 2.0;\nqreg q[2];\nh q[1];\ncx q[1],q[0];\n").unwrap();
        let h = C::new(FRAC_1_SQRT_2, 0.0);
        assert!(close(s[0], h) && close(s[3], h));
        assert!(close(s[1], C::ZERO) && close(s[2], C::ZERO));
    }

    #[test]
    fn ghz3_state() {
        let s = state(&gen::ghz(3)).unwrap();
        let h = C::new(FRAC_1_SQRT_2, 0.0);
        for (i, &a) in s.iter().enumerate() {
            let want = if i == 0 || i == 7 { h } else { C::ZERO };
            assert!(close(a, want), "amplitude {i}: {a:?}");
        }
    }

    /// QFT₂|x⟩ = ½ Σ_y iˣʸ |y⟩, written out entry by entry.
    #[test]
    fn qft2_matrix() {
        let u = unitary(&gen::qft(2)).unwrap();
        let i = C::new(0.0, 1.0);
        let half = |c: C| C::new(c.re / 2.0, c.im / 2.0);
        let expected = [
            [C::ONE, C::ONE, C::ONE, C::ONE],
            [C::ONE, i, real(-1.0), i.conj()],
            [C::ONE, real(-1.0), C::ONE, real(-1.0)],
            [C::ONE, i.conj(), real(-1.0), i],
        ];
        for (row, line) in expected.iter().enumerate() {
            for (col, &want) in line.iter().enumerate() {
                assert!(
                    close(u[col][row], half(want)),
                    "entry [{row}][{col}] = {:?}",
                    u[col][row]
                );
            }
        }
    }

    #[test]
    fn angles_and_controlled_forms() {
        assert!((eval_angle("-3*pi/4").unwrap() + 0.75 * PI).abs() < 1e-15);
        assert!((eval_angle("1.5e-3").unwrap() - 1.5e-3).abs() < 1e-18);
        // cp(π) is cz; mcz with one control is cz too.
        let a = unitary("qreg q[2];\ncp(pi) q[0],q[1];\n").unwrap();
        let b = unitary("qreg q[2];\nmcz q[0],q[1];\n").unwrap();
        assert!(is_phase_identity(&times_adjoint(&a, &b), 1e-12));
        let h = unitary("qreg q[2];\nh q[0];\n").unwrap();
        assert!(!is_phase_identity(&times_adjoint(&a, &h), 1e-9));
        // H·Z† and Z†·H differ in entry (1, 0) only by sign.
        let z = unitary("qreg q[1];\nz q[0];\n").unwrap();
        let h1 = unitary("qreg q[1];\nh q[0];\n").unwrap();
        let (hz, zh) = (times_adjoint_entry(&h1, &z, 1, 0), adjoint_times_entry(&z, &h1, 1, 0));
        assert!(close(hz, C::new(FRAC_1_SQRT_2, 0.0)) && close(zh, C::new(-FRAC_1_SQRT_2, 0.0)));
        assert!(is_phase_identity(&times_adjoint(&h, &h), 1e-12));
    }
}
