//! Linear expressions over problem variables.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Opaque handle to a decision variable of a [`Problem`](crate::Problem).
///
/// Obtained from [`Problem::add_var`](crate::Problem::add_var) and friends;
/// only meaningful for the problem that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Zero-based index of this variable in its owning problem.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ cᵢ·xᵢ + k`.
///
/// Built by combining [`VarId`]s with `+`, `-` and `*`:
///
/// ```
/// use smo_lp::Problem;
/// let mut p = Problem::new();
/// let x = p.add_var("x");
/// let y = p.add_var("y");
/// let e = 2.0 * x - y + 3.0;
/// assert_eq!(e.coeff(x), 2.0);
/// assert_eq!(e.coeff(y), -1.0);
/// assert_eq!(e.constant(), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// Non-zero terms, sorted by variable, each variable at most once.
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant_expr(k: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: k,
        }
    }

    /// A single term `c·x`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut e = LinExpr::new();
        e.add_term(var, coeff);
        e
    }

    /// Adds `coeff · var` in place, merging with any existing term.
    pub fn add_term(&mut self, var: VarId, coeff: f64) {
        let len = self.terms.len();
        // The pushed slot is the one `add_sorted` may insert into.
        self.terms.push((var, coeff));
        let len = add_sorted(&mut self.terms, len, var, coeff);
        self.terms.truncate(len);
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, k: f64) {
        self.constant += k;
    }

    /// Coefficient of `var` (zero if absent).
    pub fn coeff(&self, var: VarId) -> f64 {
        self.terms
            .binary_search_by_key(&var, |&(v, _)| v)
            .map_or(0.0, |i| self.terms[i].1)
    }

    /// The additive constant `k`.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterates over the `(variable, coefficient)` terms in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// The `(variable, coefficient)` terms, sorted by variable, each
    /// variable at most once, no zero coefficient.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Number of variables with non-zero coefficient.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the expression has no variable terms (it may still have a
    /// non-zero constant).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression at a point given by a value-per-variable
    /// lookup.
    ///
    /// `values[i]` must be the value of the variable with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if some term's variable index is out of range for `values`.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant + terms_value(&self.terms, values)
    }

    /// `true` if every coefficient and the constant are finite.
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.terms.iter().all(|(_, c)| c.is_finite())
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

/// `true` when `terms` are sorted by variable, each variable at most
/// once, with no zero coefficient: the form [`LinExpr::terms`] and
/// [`merge_terms`] return.
pub(crate) fn is_normalized(terms: &[(VarId, f64)]) -> bool {
    terms.windows(2).all(|w| w[0].0 < w[1].0) && terms.iter().all(|&(_, c)| c.abs() != 0.0)
}

/// `Σ c·values[v]` over `terms`, summed in term order.
pub(crate) fn terms_value(terms: &[(VarId, f64)], values: &[f64]) -> f64 {
    terms.iter().map(|&(v, c)| c * values[v.0]).sum::<f64>()
}

/// Merges `terms` in place exactly as successive [`LinExpr::add_term`]
/// calls in slice order would: the result, sorted by variable with each
/// variable at most once and no zero coefficient, is `terms[..n]` for the
/// returned `n`.
///
/// This lets a builder normalize a row held in a small stack buffer and
/// hand it to [`Problem::constrain_terms`](crate::Problem::constrain_terms)
/// without a [`LinExpr`] allocation.
///
/// ```
/// use smo_lp::{merge_terms, Problem};
/// let mut p = Problem::new();
/// let (x, y) = (p.add_var("x"), p.add_var("y"));
/// let mut row = [(y, 1.0), (x, -1.0), (y, -1.0), (x, 2.0)];
/// let n = merge_terms(&mut row);
/// assert_eq!(&row[..n], &[(x, 1.0)]);
/// ```
pub fn merge_terms(terms: &mut [(VarId, f64)]) -> usize {
    let mut len = 0;
    for k in 0..terms.len() {
        let (var, coeff) = terms[k];
        len = add_sorted(terms, len, var, coeff);
    }
    len
}

/// Adds `coeff · var` to the normalized terms `terms[..len]` and returns
/// their new length: the one merge rule of [`LinExpr::add_term`] and
/// [`merge_terms`] (sum per variable, drop exact zeros, keep sorted).
/// `terms` must have room for one more term than `len`; the slots past
/// `len` are scratch.
fn add_sorted(terms: &mut [(VarId, f64)], len: usize, var: VarId, coeff: f64) -> usize {
    match terms[..len].binary_search_by_key(&var, |&(v, _)| v) {
        Ok(i) => {
            let c = &mut terms[i].1;
            *c += coeff;
            if c.abs() == 0.0 {
                terms.copy_within(i + 1..len, i);
                len - 1
            } else {
                len
            }
        }
        Err(i) if coeff.abs() != 0.0 => {
            terms.copy_within(i..len, i + 1);
            terms[i] = (var, coeff);
            len + 1
        }
        Err(_) => len,
    }
}

/// Writes `terms + constant` the way [`LinExpr`]'s `Display` does.
pub(crate) fn fmt_terms(
    f: &mut fmt::Formatter<'_>,
    terms: &[(VarId, f64)],
    constant: f64,
) -> fmt::Result {
    let mut first = true;
    for &(v, c) in terms {
        if first {
            if c < 0.0 {
                write!(f, "-")?;
            }
            first = false;
        } else if c < 0.0 {
            write!(f, " - ")?;
        } else {
            write!(f, " + ")?;
        }
        let a = c.abs();
        if (a - 1.0).abs() > f64::EPSILON {
            write!(f, "{a}·")?;
        }
        write!(f, "{v}")?;
    }
    if first {
        write!(f, "{constant}")?;
    } else if constant != 0.0 {
        if constant < 0.0 {
            write!(f, " - {}", -constant)?;
        } else {
            write!(f, " + {constant}")?;
        }
    }
    Ok(())
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_terms(f, &self.terms, self.constant)
    }
}

// ---- operator overloads -------------------------------------------------

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> LinExpr {
        self.terms.retain_mut(|(_, c)| {
            *c *= k;
            *c != 0.0
        });
        self.constant *= k;
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, e: LinExpr) -> LinExpr {
        e * self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, k: f64) -> LinExpr {
        self.constant += k;
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, k: f64) -> LinExpr {
        self.constant -= k;
        self
    }
}

impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, v: VarId) -> LinExpr {
        self.add_term(v, 1.0);
        self
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, v: VarId) -> LinExpr {
        self.add_term(v, -1.0);
        self
    }
}

impl Add<VarId> for VarId {
    type Output = LinExpr;
    fn add(self, rhs: VarId) -> LinExpr {
        LinExpr::from(self) + rhs
    }
}

impl Sub<VarId> for VarId {
    type Output = LinExpr;
    fn sub(self, rhs: VarId) -> LinExpr {
        LinExpr::from(self) - rhs
    }
}

impl Add<f64> for VarId {
    type Output = LinExpr;
    fn add(self, k: f64) -> LinExpr {
        LinExpr::from(self) + k
    }
}

impl Sub<f64> for VarId {
    type Output = LinExpr;
    fn sub(self, k: f64) -> LinExpr {
        LinExpr::from(self) - k
    }
}

impl Mul<VarId> for f64 {
    type Output = LinExpr;
    fn mul(self, v: VarId) -> LinExpr {
        LinExpr::term(v, self)
    }
}

impl Neg for VarId {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr::term(self, -1.0)
    }
}

impl Add<LinExpr> for VarId {
    type Output = LinExpr;
    fn add(self, e: LinExpr) -> LinExpr {
        e + self
    }
}

impl Sub<LinExpr> for VarId {
    type Output = LinExpr;
    fn sub(self, e: LinExpr) -> LinExpr {
        LinExpr::from(self) - e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn v(i: usize) -> VarId {
        VarId(i)
    }

    #[test]
    fn term_merging_cancels_to_zero() {
        let e = LinExpr::term(v(0), 2.0) + LinExpr::term(v(0), -2.0);
        assert!(e.is_empty());
        assert_eq!(e.coeff(v(0)), 0.0);
    }

    #[test]
    fn arithmetic_composes() {
        let e = 2.0 * v(0) - v(1) + 3.0;
        assert_eq!(e.coeff(v(0)), 2.0);
        assert_eq!(e.coeff(v(1)), -1.0);
        assert_eq!(e.constant(), 3.0);
        let d = e.clone() * -1.0;
        assert_eq!(d.coeff(v(0)), -2.0);
        assert_eq!(d.constant(), -3.0);
        let s = e - d;
        assert_eq!(s.coeff(v(0)), 4.0);
        assert_eq!(s.constant(), 6.0);
    }

    #[test]
    fn var_minus_var_builds_expr() {
        let e = v(3) - v(5);
        assert_eq!(e.coeff(v(3)), 1.0);
        assert_eq!(e.coeff(v(5)), -1.0);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn eval_uses_values_by_index() {
        let e = 2.0 * v(0) + v(2) - 1.0;
        let vals = [1.0, 100.0, 3.0];
        assert_eq!(e.eval(&vals), 2.0 + 3.0 - 1.0);
    }

    #[test]
    fn display_is_readable() {
        let e = 2.0 * v(0) - v(1) + 3.0;
        assert_eq!(format!("{e}"), "2·x0 - x1 + 3");
        let z = LinExpr::new();
        assert_eq!(format!("{z}"), "0");
        let neg_first = -v(1) + 0.5;
        assert_eq!(format!("{neg_first}"), "-x1 + 0.5");
    }

    #[test]
    fn terms_stay_sorted_whatever_the_insertion_order() {
        let mut e = LinExpr::new();
        for (i, c) in [(4, 1.0), (1, 2.0), (3, -1.0), (0, 5.0), (4, -1.0), (2, 0.0)] {
            e.add_term(v(i), c);
        }
        let terms: Vec<_> = e.iter().collect();
        assert_eq!(terms, vec![(v(0), 5.0), (v(1), 2.0), (v(3), -1.0)]);
        assert_eq!(format!("{e}"), "5·x0 + 2·x1 - x3");
    }

    /// The `BTreeMap` representation `LinExpr` had before its terms became
    /// a sorted `Vec`: the oracle for the property test below.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Oracle {
        terms: BTreeMap<VarId, f64>,
        constant: f64,
    }

    impl Oracle {
        fn add_term(&mut self, var: VarId, coeff: f64) {
            let c = self.terms.entry(var).or_insert(0.0);
            *c += coeff;
            if c.abs() == 0.0 {
                self.terms.remove(&var);
            }
        }

        fn add(&mut self, rhs: &Oracle) {
            for (&v, &c) in &rhs.terms {
                self.add_term(v, c);
            }
            self.constant += rhs.constant;
        }

        fn neg(&mut self) {
            for c in self.terms.values_mut() {
                *c = -*c;
            }
            self.constant = -self.constant;
        }

        fn scale(&mut self, k: f64) {
            self.terms.retain(|_, c| {
                *c *= k;
                *c != 0.0
            });
            self.constant *= k;
        }

        fn display(&self) -> String {
            let mut out = String::new();
            let mut first = true;
            for (v, c) in &self.terms {
                if first {
                    if *c < 0.0 {
                        out.push('-');
                    }
                    first = false;
                } else if *c < 0.0 {
                    out.push_str(" - ");
                } else {
                    out.push_str(" + ");
                }
                let a = c.abs();
                if (a - 1.0).abs() > f64::EPSILON {
                    out.push_str(&format!("{a}·"));
                }
                out.push_str(&v.to_string());
            }
            if first {
                out.push_str(&self.constant.to_string());
            } else if self.constant != 0.0 {
                if self.constant < 0.0 {
                    out.push_str(&format!(" - {}", -self.constant));
                } else {
                    out.push_str(&format!(" + {}", self.constant));
                }
            }
            out
        }
    }

    const VARS: usize = 6;
    const COEFFS: [f64; 8] = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.5, 3.0];

    /// One step: `(op, var, coeff index, operand terms)`.
    type Step = (usize, usize, usize, Vec<(usize, usize)>);

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            (
                0usize..5,
                0usize..VARS,
                0usize..COEFFS.len(),
                proptest::collection::vec((0usize..VARS, 0usize..COEFFS.len()), 0..=4),
            ),
            0..=12,
        )
    }

    /// Replays `steps` on a `LinExpr` and on the oracle.
    fn replay(steps: &[Step]) -> (LinExpr, Oracle) {
        let mut e = LinExpr::new();
        let mut o = Oracle::default();
        for (op, var, ci, operand) in steps {
            let c = COEFFS[*ci];
            let mut rhs = LinExpr::constant_expr(c);
            let mut rhs_o = Oracle {
                constant: c,
                ..Oracle::default()
            };
            for &(ov, oc) in operand {
                rhs.add_term(v(ov), COEFFS[oc]);
                rhs_o.add_term(v(ov), COEFFS[oc]);
            }
            match op {
                0 => {
                    e.add_term(v(*var), c);
                    o.add_term(v(*var), c);
                }
                1 => {
                    e = e + rhs;
                    o.add(&rhs_o);
                }
                2 => {
                    e = e - rhs;
                    rhs_o.neg();
                    o.add(&rhs_o);
                }
                3 => {
                    e = e * c;
                    o.scale(c);
                }
                _ => {
                    e = v(*var) - e;
                    o.neg();
                    let mut lhs = Oracle::default();
                    lhs.add_term(v(*var), 1.0);
                    lhs.add(&o);
                    o = lhs;
                }
            }
        }
        (e, o)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Terms, coefficients, evaluation, equality and rendering all
        /// match the `BTreeMap` oracle over random operation sequences.
        #[test]
        fn prop_matches_btreemap_oracle(a in steps(), b in steps()) {
            let (e, o) = replay(&a);
            let terms: Vec<(VarId, f64)> = e.iter().collect();
            let oracle_terms: Vec<(VarId, f64)> = o.terms.iter().map(|(&v, &c)| (v, c)).collect();
            prop_assert_eq!(terms, oracle_terms);
            prop_assert_eq!(e.len(), o.terms.len());
            prop_assert_eq!(e.constant(), o.constant);
            for i in 0..VARS {
                prop_assert_eq!(e.coeff(v(i)), o.terms.get(&v(i)).copied().unwrap_or(0.0));
            }
            let point: Vec<f64> = (0..VARS).map(|i| 1.5 * i as f64 - 2.0).collect();
            let oracle_eval = o.constant
                + o.terms.iter().map(|(v, c)| c * point[v.index()]).sum::<f64>();
            prop_assert_eq!(e.eval(&point).to_bits(), oracle_eval.to_bits());
            prop_assert_eq!(format!("{e}"), o.display());
            let (f, p) = replay(&b);
            prop_assert_eq!(e == f, o == p);
            prop_assert_eq!(e.clone() == e, o.clone() == o);
        }
    }

    #[test]
    fn finite_check_rejects_nan() {
        let mut e = LinExpr::term(v(0), f64::NAN);
        assert!(!e.is_finite());
        e = LinExpr::term(v(0), 1.0) + f64::INFINITY;
        assert!(!e.is_finite());
        assert!((2.0 * v(1) + 1.0).is_finite());
    }
}
