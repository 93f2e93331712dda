//! Seeded input generators. Every circuit reaches the program as OpenQASM
//! 2.0 text written here; nothing is taken from the program's own circuit
//! library.

use crate::rng::Rng;
use std::f64::consts::PI;
use std::fmt::Write as _;

/// Writes an OpenQASM 2.0 program one statement at a time.
pub struct Qasm {
    text: String,
}

impl Qasm {
    pub fn new(qubits: usize, clbits: &[(&str, usize)]) -> Self {
        let mut text = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{qubits}];\n");
        for (name, size) in clbits {
            let _ = writeln!(text, "creg {name}[{size}];");
        }
        Qasm { text }
    }

    pub fn g(&mut self, name: &str, q: usize) -> &mut Self {
        let _ = writeln!(self.text, "{name} q[{q}];");
        self
    }

    pub fn gp(&mut self, name: &str, theta: f64, q: usize) -> &mut Self {
        let _ = writeln!(self.text, "{name}({theta:?}) q[{q}];");
        self
    }

    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        let _ = writeln!(self.text, "cx q[{c}],q[{t}];");
        self
    }

    pub fn cp(&mut self, theta: f64, c: usize, t: usize) -> &mut Self {
        let _ = writeln!(self.text, "cp({theta:?}) q[{c}],q[{t}];");
        self
    }

    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        let _ = writeln!(self.text, "swap q[{a}],q[{b}];");
        self
    }

    /// Multi-controlled Z (the `mcz` extension of the program's parser).
    pub fn mcz(&mut self, controls: &[usize], t: usize) -> &mut Self {
        let mut args: Vec<String> = controls.iter().map(|c| format!("q[{c}]")).collect();
        args.push(format!("q[{t}]"));
        let _ = writeln!(self.text, "mcz {};", args.join(","));
        self
    }

    pub fn measure(&mut self, q: usize, creg: &str, bit: usize) -> &mut Self {
        let _ = writeln!(self.text, "measure q[{q}] -> {creg}[{bit}];");
        self
    }

    pub fn gate_if(&mut self, creg: &str, value: u64, name: &str, q: usize) -> &mut Self {
        let _ = writeln!(self.text, "if({creg}=={value}) {name} q[{q}];");
        self
    }

    pub fn barrier(&mut self) -> &mut Self {
        self.text.push_str("barrier q;\n");
        self
    }

    pub fn finish(self) -> String {
        self.text
    }
}

const CLIFFORD_T: [&str; 7] = ["h", "s", "sdg", "t", "tdg", "x", "z"];

/// A Clifford+T circuit: `passes` passes of an entangling prefix (`h`, `t`
/// on every qubit, then a CNOT ladder; three make the state dense), then
/// `layers` layers of one Clifford+T gate per qubit, each followed by
/// one CNOT along a cyclic ladder. The layer gates are a deck holding each
/// of the seven gates equally often, shuffled by `rng`, so it decides where
/// each gate goes but not how many of each a job applies. With `signs`,
/// each layer's `s`, `sdg`, `t` and `tdg` is replaced by its adjoint with
/// probability ½: that changes the amplitudes but not the diagrams' shape,
/// so the work of a job stays the same, where moving gates changes it by
/// up to a tenth.
pub fn clifford_t(n: usize, passes: usize, layers: usize, rng: &mut Rng, mut signs: Option<&mut Rng>) -> String {
    let mut q = Qasm::new(n, &[]);
    for _ in 0..passes {
        for t in 0..n {
            q.g("h", t).g("t", t);
        }
        for t in 0..n - 1 {
            q.cx(t, t + 1);
        }
    }
    let mut deck: Vec<&str> = (0..n * layers).map(|i| CLIFFORD_T[i % CLIFFORD_T.len()]).collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    for layer in 0..layers {
        for t in 0..n {
            let mut gate = deck[layer * n + t];
            if let Some(signs) = signs.as_mut() {
                if let Some(adjoint) = adjoint_phase(gate).filter(|_| signs.below(2) == 1) {
                    gate = adjoint;
                }
            }
            q.g(gate, t);
        }
        q.cx(layer % n, (layer + 1) % n);
    }
    q.finish()
}

fn adjoint_phase(gate: &str) -> Option<&'static str> {
    match gate {
        "s" => Some("sdg"),
        "sdg" => Some("s"),
        "t" => Some("tdg"),
        "tdg" => Some("t"),
        _ => None,
    }
}

/// The textbook QFT with its final swaps (the paper's Fig. 5(a)).
pub fn qft(n: usize) -> String {
    let mut q = Qasm::new(n, &[]);
    for i in (0..n).rev() {
        q.g("h", i);
        for j in (0..i).rev() {
            q.cp(PI / (1u64 << (i - j)) as f64, j, i);
        }
    }
    for k in 0..n / 2 {
        q.swap(k, n - 1 - k);
    }
    q.finish()
}

/// Grover search for `marked` with the optimal iteration count.
pub fn grover(n: usize, marked: u64) -> String {
    let mut q = Qasm::new(n, &[]);
    let rest: Vec<usize> = (0..n - 1).collect();
    for t in 0..n {
        q.g("h", t);
    }
    let iterations = ((PI / 4.0) * ((1u64 << n) as f64).sqrt()).floor().max(1.0) as usize;
    for _ in 0..iterations {
        for t in (0..n).filter(|t| (marked >> t) & 1 == 0) {
            q.g("x", t);
        }
        q.mcz(&rest, n - 1);
        for t in (0..n).filter(|t| (marked >> t) & 1 == 0) {
            q.g("x", t);
        }
        for t in 0..n {
            q.g("h", t);
        }
        for t in 0..n {
            q.g("x", t);
        }
        q.mcz(&rest, n - 1);
        for t in 0..n {
            q.g("x", t);
        }
        for t in 0..n {
            q.g("h", t);
        }
    }
    q.finish()
}

pub fn ghz(n: usize) -> String {
    let mut q = Qasm::new(n, &[]);
    q.g("h", n - 1);
    for t in (0..n - 1).rev() {
        q.cx(t + 1, t);
    }
    q.finish()
}

/// The W state by the cascade of controlled rotations (written with `cu3`'s
/// special case `cry`).
pub fn w_state(n: usize) -> String {
    let mut q = Qasm::new(n, &[]);
    q.g("x", n - 1);
    for k in 0..n - 1 {
        let (c, t) = (n - 1 - k, n - 2 - k);
        let theta = 2.0 * (1.0 / ((n - k) as f64)).sqrt().acos();
        let _ = writeln!(q.text, "cry({theta:?}) q[{c}],q[{t}];");
        q.cx(t, c);
    }
    q.finish()
}

/// Teleports `ry(theta)|0⟩` from q2 to q0, then measures q0 into `out[0]`,
/// so the frequency of a 1 there is sin²(θ/2).
pub fn teleport(theta: f64) -> String {
    let mut q = Qasm::new(3, &[("m1", 1), ("m2", 1), ("out", 1)]);
    q.gp("ry", theta, 2).barrier();
    q.g("h", 1).cx(1, 0).barrier();
    q.cx(2, 1).g("h", 2);
    q.measure(1, "m1", 0).measure(2, "m2", 0);
    q.gate_if("m1", 1, "x", 0).gate_if("m2", 1, "z", 0);
    q.measure(0, "out", 0);
    q.finish()
}

/// Appends one `x` on qubit 0 after the last gate of `qasm`: a circuit
/// that is never equivalent to the original. The fault is the same for
/// every seed because a fault's cost depends on where it goes: with `x`,
/// `h` or `t` after one of the last four gates on a seeded qubit, QFT-6
/// under construction took 88 to 251 ms depending on the seed, and with a
/// final `x` on a seeded qubit still 123 to 190 ms.
pub fn inject_fault(qasm: &str) -> String {
    format!("{qasm}x q[0];\n")
}
