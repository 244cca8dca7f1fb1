//! Property tests driving the sparse LU kernel ([`LuFactors`]) directly,
//! independent of the simplex loop that normally sits on top of it:
//!
//! * `reconstruct()` reproduces the factorized matrix (the `L·U` product
//!   with both permutations undone equals `B` entrywise);
//! * FTRAN (`solve`) and BTRAN (`solve_transpose`) leave tiny residuals
//!   against the original columns, on dense right-hand sides and on the
//!   simplex's own (unit vectors, 1–3-nonzero columns) through an eta
//!   file;
//! * Forrest–Tomlin eta updates are exact: after `k` random column
//!   replacements the updated factors solve identically to a fresh
//!   factorization of the mutated matrix.
//!
//! Matrices are random, sparse, and strictly diagonally dominant by
//! columns — nonsingular by construction at every step, so any `Err` or
//! blown-up residual is the kernel's fault, not the generator's.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smo_lp::LuFactors;

type Cols = Vec<Vec<(usize, f64)>>;

/// Random sparse `m×m` matrix in column-major sparse form, strictly
/// diagonally dominant by columns (hence nonsingular).
fn random_matrix(m: usize, rng: &mut StdRng) -> Cols {
    (0..m).map(|j| dominant_column(m, j, rng)).collect()
}

/// A sparse column whose entry on row `j` strictly dominates the rest of
/// the column — swapping it into position `j` of a dominant matrix keeps
/// the whole matrix dominant, hence nonsingular.
fn dominant_column(m: usize, j: usize, rng: &mut StdRng) -> Vec<(usize, f64)> {
    let mut col = Vec::new();
    let mut off = 0.0;
    for i in 0..m {
        if i != j && rng.gen_range(0.0..1.0) < 0.3 {
            let v = rng.gen_range(-1.0..1.0_f64);
            if v.abs() > 1e-3 {
                col.push((i, v));
                off += v.abs();
            }
        }
    }
    col.push((
        j,
        (off + rng.gen_range(1.0..3.0))
            * if rng.gen_range(0.0..1.0) < 0.5 {
                -1.0
            } else {
                1.0
            },
    ));
    col.sort_by_key(|&(i, _)| i);
    col
}

/// Dense `B · x` for column-major sparse `B` and position-space `x`.
fn apply(cols: &Cols, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    for (j, col) in cols.iter().enumerate() {
        for &(i, v) in col {
            out[i] += v * x[j];
        }
    }
    out
}

/// Dense `Bᵀ · y`: component `j` is `⟨column_j, y⟩`.
fn apply_transpose(cols: &Cols, y: &[f64]) -> Vec<f64> {
    cols.iter()
        .map(|col| col.iter().map(|&(i, v)| v * y[i]).sum())
        .collect()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `reconstruct()` (L·U with both permutations undone) equals the
    /// input matrix entrywise.
    #[test]
    fn prop_lu_reconstructs_its_input(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(2..=24usize);
        let cols = random_matrix(m, &mut rng);
        let lu = LuFactors::factorize(m, &cols).expect("dominant matrix factorizes");

        let mut dense = vec![vec![0.0; m]; m];
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                dense[i][j] = v;
            }
        }
        let rebuilt = lu.reconstruct();
        for i in 0..m {
            prop_assert!(
                max_abs_diff(&rebuilt[i], &dense[i]) <= 1e-9,
                "row {i} drifted (seed {seed}, m {m})"
            );
        }
    }

    /// FTRAN and BTRAN residuals: `B·solve(b) ≈ b` and
    /// `Bᵀ·solve_transpose(c) ≈ c`, first on dense right-hand sides, then
    /// on the ones the simplex sends (a unit vector, a column with 1–3
    /// nonzeros) after 1–5 column replacements have filled the eta file.
    #[test]
    fn prop_lu_solve_residuals_are_tiny(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(2..=32usize);
        let mut cols = random_matrix(m, &mut rng);
        let mut lu = LuFactors::factorize(m, &cols).expect("dominant matrix factorizes");

        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let x = lu.solve(&b);
        prop_assert!(
            max_abs_diff(&apply(&cols, &x), &b) <= 1e-8,
            "FTRAN residual too large (seed {seed}, m {m})"
        );

        let c: Vec<f64> = (0..m).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let y = lu.solve_transpose(&c);
        prop_assert!(
            max_abs_diff(&apply_transpose(&cols, &y), &c) <= 1e-8,
            "BTRAN residual too large (seed {seed}, m {m})"
        );

        for _ in 0..rng.gen_range(1..=5usize) {
            let pos = rng.gen_range(0..m);
            let replacement = dominant_column(m, pos, &mut rng);
            lu.replace_column(pos, &replacement).expect("nonsingular");
            cols[pos] = replacement;
        }
        let mut unit = vec![0.0; m];
        unit[rng.gen_range(0..m)] = 1.0;
        let mut sparse = vec![0.0; m];
        for _ in 0..rng.gen_range(1..=3usize) {
            sparse[rng.gen_range(0..m)] = rng.gen_range(-5.0..5.0);
        }
        for rhs in [&unit, &sparse] {
            let x = lu.solve(rhs);
            prop_assert!(
                max_abs_diff(&apply(&cols, &x), rhs) <= 1e-8,
                "sparse-RHS FTRAN residual too large after etas (seed {seed}, m {m})"
            );
            let y = lu.solve_transpose(rhs);
            prop_assert!(
                max_abs_diff(&apply_transpose(&cols, &y), rhs) <= 1e-8,
                "sparse-RHS BTRAN residual too large after etas (seed {seed}, m {m})"
            );
        }
    }

    /// Eta-updated factors are the factorization of the mutated matrix:
    /// after `k` random column swaps, `solve`/`solve_transpose` agree with
    /// a fresh factorization to machine precision.
    #[test]
    fn prop_lu_eta_updates_match_fresh_refactorization(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(3..=24usize);
        let mut cols = random_matrix(m, &mut rng);
        let mut lu = LuFactors::factorize(m, &cols).expect("dominant matrix factorizes");

        let k = rng.gen_range(1..=6usize);
        for _ in 0..k {
            let pos = rng.gen_range(0..m);
            let replacement = dominant_column(m, pos, &mut rng);
            lu.replace_column(pos, &replacement)
                .expect("dominant replacement keeps the basis nonsingular");
            cols[pos] = replacement;
        }
        prop_assert!(lu.eta_count() >= 1, "updates must go through the eta file");

        let fresh = LuFactors::factorize(m, &cols).expect("mutated matrix factorizes");
        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-10.0..10.0)).collect();
        prop_assert!(
            max_abs_diff(&lu.solve(&b), &fresh.solve(&b)) <= 1e-8,
            "updated FTRAN drifted from refactorization (seed {seed}, m {m}, k {k})"
        );
        let c: Vec<f64> = (0..m).map(|_| rng.gen_range(-10.0..10.0)).collect();
        prop_assert!(
            max_abs_diff(&lu.solve_transpose(&c), &fresh.solve_transpose(&c)) <= 1e-8,
            "updated BTRAN drifted from refactorization (seed {seed}, m {m}, k {k})"
        );
    }

    /// Pathological eta chains: many successive replacements of the *same*
    /// column (the worst case for product-form update error) still solve
    /// like a fresh factorization.
    #[test]
    fn prop_long_eta_chains_match_fresh_refactorization(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(4..=16usize);
        let mut cols = random_matrix(m, &mut rng);
        let mut lu = LuFactors::factorize(m, &cols).expect("dominant matrix factorizes");

        // 32 updates on a rotating handful of positions: eta entries pile
        // onto the same slots over and over.
        let hot: Vec<usize> = (0..3).map(|_| rng.gen_range(0..m)).collect();
        for t in 0..32usize {
            let pos = hot[t % hot.len()];
            let replacement = dominant_column(m, pos, &mut rng);
            lu.replace_column(pos, &replacement).expect("nonsingular");
            cols[pos] = replacement;
        }
        prop_assert_eq!(lu.eta_count(), 32);

        let fresh = LuFactors::factorize(m, &cols).expect("mutated matrix factorizes");
        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-10.0..10.0)).collect();
        prop_assert!(
            max_abs_diff(&lu.solve(&b), &fresh.solve(&b)) <= 1e-6,
            "32-eta FTRAN drifted from refactorization (seed {seed}, m {m})"
        );
        let c: Vec<f64> = (0..m).map(|_| rng.gen_range(-10.0..10.0)).collect();
        prop_assert!(
            max_abs_diff(&lu.solve_transpose(&c), &fresh.solve_transpose(&c)) <= 1e-6,
            "32-eta BTRAN drifted from refactorization (seed {seed}, m {m})"
        );
    }
}
