//! Property test of the simplex solver against an independent brute-force
//! reference: for random *boxed* two-variable LPs, the optimum of a
//! non-empty bounded polygon lies at a vertex, and all vertices can be
//! enumerated as pairwise intersections of constraint boundaries.

mod common;

use proptest::prelude::*;
use smo::lp::{LinExpr, Problem, Sense, Status};

#[derive(Debug, Clone, Copy)]
struct RowSpec {
    a: f64,
    b: f64,
    rhs: f64,
    le: bool,
}

fn row_strategy() -> impl Strategy<Value = RowSpec> {
    (
        -3.0f64..3.0,
        -3.0f64..3.0,
        -10.0f64..10.0,
        proptest::bool::ANY,
    )
        .prop_map(|(a, b, rhs, le)| RowSpec { a, b, rhs, le })
        .prop_filter("non-degenerate row", |r| r.a.abs() + r.b.abs() > 0.1)
}

/// All boundary lines: the user rows plus the axes and the box edges.
fn lines(rows: &[RowSpec], upper: f64) -> Vec<(f64, f64, f64)> {
    let mut ls: Vec<(f64, f64, f64)> = rows.iter().map(|r| (r.a, r.b, r.rhs)).collect();
    ls.push((1.0, 0.0, 0.0)); // x = 0
    ls.push((0.0, 1.0, 0.0)); // y = 0
    ls.push((1.0, 0.0, upper)); // x = U
    ls.push((0.0, 1.0, upper)); // y = U
    ls
}

fn feasible(rows: &[RowSpec], upper: f64, x: f64, y: f64) -> bool {
    const T: f64 = 1e-7;
    if x < -T || y < -T || x > upper + T || y > upper + T {
        return false;
    }
    rows.iter().all(|r| {
        let lhs = r.a * x + r.b * y;
        if r.le {
            lhs <= r.rhs + T
        } else {
            lhs >= r.rhs - T
        }
    })
}

/// Brute-force optimum of `min cx·x + cy·y` over the boxed polygon, or
/// `None` when the region is empty.
fn brute_force(rows: &[RowSpec], upper: f64, cx: f64, cy: f64) -> Option<f64> {
    let ls = lines(rows, upper);
    let mut best: Option<f64> = None;
    for i in 0..ls.len() {
        for j in (i + 1)..ls.len() {
            let (a1, b1, c1) = ls[i];
            let (a2, b2, c2) = ls[j];
            let det = a1 * b2 - a2 * b1;
            if det.abs() < 1e-9 {
                continue;
            }
            let x = (c1 * b2 - c2 * b1) / det;
            let y = (a1 * c2 - a2 * c1) / det;
            if feasible(rows, upper, x, y) {
                let z = cx * x + cy * y;
                best = Some(best.map_or(z, |b: f64| b.min(z)));
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simplex_matches_vertex_enumeration(
        rows in proptest::collection::vec(row_strategy(), 1..6),
        cx in -2.0f64..2.0,
        cy in -2.0f64..2.0,
        upper in 1.0f64..20.0,
    ) {
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 0.0, upper);
        let y = p.add_var_bounded("y", 0.0, upper);
        for r in &rows {
            let expr = r.a * LinExpr::from(x) + r.b * LinExpr::from(y);
            p.constrain(expr, if r.le { Sense::Le } else { Sense::Ge }, r.rhs);
        }
        p.minimize(cx * LinExpr::from(x) + cy * LinExpr::from(y));
        let sol = p.solve().expect("well-formed model");
        match brute_force(&rows, upper, cx, cy) {
            Some(reference) => {
                prop_assert_eq!(sol.status(), Status::Optimal);
                let got = sol.objective().expect("optimal");
                prop_assert!(
                    (got - reference).abs() < 1e-5 * (1.0 + reference.abs()),
                    "simplex {got} vs brute force {reference}"
                );
            }
            None => {
                prop_assert_eq!(sol.status(), Status::Infeasible);
            }
        }
    }

    /// Dual values ARE shadow prices: perturbing a RHS by ε changes the
    /// optimum by dual·ε, whenever the perturbed model stays optimal and
    /// the basis is stable (checked by comparing both one-sided derivatives).
    #[test]
    fn duals_predict_rhs_perturbations(
        rows in proptest::collection::vec(row_strategy(), 1..5),
        cx in -2.0f64..2.0,
        cy in -2.0f64..2.0,
    ) {
        let upper = 10.0;
        let build = |delta: f64, which: usize| {
            let mut p = Problem::new();
            let x = p.add_var_bounded("x", 0.0, upper);
            let y = p.add_var_bounded("y", 0.0, upper);
            let mut ids = Vec::new();
            for (i, r) in rows.iter().enumerate() {
                let expr = r.a * LinExpr::from(x) + r.b * LinExpr::from(y);
                let rhs = r.rhs + if i == which { delta } else { 0.0 };
                ids.push(p.constrain(expr, if r.le { Sense::Le } else { Sense::Ge }, rhs));
            }
            p.minimize(cx * LinExpr::from(x) + cy * LinExpr::from(y));
            (p, ids)
        };
        let (p0, ids) = build(0.0, usize::MAX);
        let sol0 = p0.solve().expect("solves");
        prop_assume!(sol0.status() == Status::Optimal);
        let base = sol0.objective().expect("optimal");
        let sol0 = sol0.into_optimal().expect("optimal");
        const EPS: f64 = 1e-5;
        for (i, id) in ids.iter().enumerate() {
            let dual = sol0.dual(*id);
            // The helper asserts the dense reference agrees with each
            // perturbed re-solve.
            let plus = common::solve_checked(&build(EPS, i).0);
            let minus = common::solve_checked(&build(-EPS, i).0);
            let (Some(zp), Some(zm)) = (plus.objective(), minus.objective()) else {
                continue; // perturbation made it infeasible: degenerate edge
            };
            let fwd = (zp - base) / EPS;
            let bwd = (base - zm) / EPS;
            // only assert where the two one-sided derivatives agree (no
            // basis change within ±ε)
            if (fwd - bwd).abs() < 1e-4 {
                prop_assert!(
                    (dual - fwd).abs() < 1e-3,
                    "row {i}: dual {dual} vs measured {fwd}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sparse-LU simplex and the dense reference tableau agree on
    /// status and optimum across random LPs (including infeasible ones).
    #[test]
    fn dense_and_sparse_simplex_agree(
        rows in proptest::collection::vec(row_strategy(), 1..7),
        cx in -2.0f64..2.0,
        cy in -2.0f64..2.0,
        cz in -2.0f64..2.0,
        upper in 1.0f64..20.0,
    ) {
        use smo::lp::SolveBudget;
        let mut p = Problem::new();
        let x = p.add_var_bounded("x", 0.0, upper);
        let y = p.add_var_bounded("y", 0.0, upper);
        let z = p.add_var_bounded("z", 0.0, upper);
        for (i, r) in rows.iter().enumerate() {
            // reuse the 2-D rows, rotating which pair of variables they touch
            let (u, v) = match i % 3 {
                0 => (x, y),
                1 => (y, z),
                _ => (x, z),
            };
            let expr = r.a * LinExpr::from(u) + r.b * LinExpr::from(v);
            p.constrain(expr, if r.le { Sense::Le } else { Sense::Ge }, r.rhs);
        }
        p.minimize(cx * LinExpr::from(x) + cy * LinExpr::from(y) + cz * LinExpr::from(z));
        let dense = p.solve_reference(SolveBudget::UNLIMITED).expect("dense solves");
        let sparse = p.solve().expect("sparse-LU solves");
        prop_assert_eq!(dense.status(), sparse.status());
        if dense.status() == Status::Optimal {
            let (a, b) = (dense.objective().unwrap(), sparse.objective().unwrap());
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "dense {a} vs sparse-LU {b}");
        }
    }
}
