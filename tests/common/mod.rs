//! Shared helpers for the integration-test suites.
//!
//! The solve helpers here are deliberately *differential*: the sparse-LU
//! solve is checked against the dense reference tableau, with the verdicts
//! asserted to agree within [`Tol::TIGHT`].
#![allow(dead_code)]

use smo::circuit::Circuit;
use smo::lp::{Problem, Solution, SolveBudget, Status, Tol};
use smo::timing::TimingModel;

/// Solves `p`, asserts the dense reference agrees on status and
/// objective, and returns the sparse-LU solution.
pub fn solve_checked(p: &Problem) -> Solution {
    let sol = p.solve().expect("solve runs");
    let reference = p
        .solve_reference(SolveBudget::UNLIMITED)
        .expect("reference solve runs");
    assert_eq!(
        reference.status(),
        sol.status(),
        "dense reference and sparse-LU disagree on status"
    );
    if sol.status() == Status::Optimal {
        let (r, s) = (reference.objective().unwrap(), sol.objective().unwrap());
        assert!(
            Tol::TIGHT.is_zero(r - s, s),
            "dense reference objective {r} vs sparse-LU {s}"
        );
        assert!(
            reference.certify(p).is_valid(),
            "dense reference optimum fails certification: {}",
            reference.certify(p)
        );
    }
    if sol.status() == Status::Infeasible {
        let y = reference.farkas().expect("infeasible carries Farkas");
        assert!(smo::lp::certifies_infeasibility(p, y));
    }
    sol
}

/// LP-level minimum cycle time of `circuit`.
pub fn min_tc_checked(circuit: &Circuit) -> f64 {
    let model = TimingModel::build(circuit).expect("model builds");
    let sol = model.solve_lp().expect("plain SMO models are feasible");
    sol.objective()
}

/// Loads a shipped netlist (relative to the repository root),
/// auto-detecting the gate-level dialect like the `smo` binary does.
pub fn load_circuit(path: &str) -> Circuit {
    let full = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let src = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let gate_level = src.lines().any(|l| {
        let t = l.split('#').next().unwrap_or("").trim_start();
        t.starts_with("gate ") || t.starts_with("wire ")
    });
    if gate_level {
        smo::circuit::netlist::parse_gates(&src)
    } else {
        smo::circuit::netlist::parse(&src)
    }
    .unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// The netlists shipped in `circuits/`.
pub const SHIPPED_NETLISTS: [&str; 5] = [
    "circuits/example1.ckt",
    "circuits/example2.ckt",
    "circuits/gaas_mips.ckt",
    "circuits/appendix_fig1.ckt",
    "circuits/alu_bypass.ckt",
];
