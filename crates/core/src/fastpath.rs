//! The difference-constraint fast path: graph algorithms for the SMO
//! timing LP.
//!
//! Under the variable recombination `E_p = s_p + T_p` (absolute phase
//! end) and `u_i = s_{p_i} + D_i` (absolute departure), every row the
//! default [`TimingModel`] generates — C1–C3, L1, L2R, FF setup and
//! departure pinning, plus the optional extras — is a two-variable
//! difference constraint `x_a − x_b ≤ base + slope·T_c` over the node set
//! `{s_p} ∪ {E_p} ∪ {u_i}`. This module builds that mapping
//! ([`variable_images`]), routes pure-difference models to the
//! shortest-path solver of [`smo_lp::DifferenceSystem`] (label-correcting
//! Bellman–Ford feasibility, whose passes are FIFO generations of the
//! nodes whose labels dropped; Lawler's exact min-cycle-ratio `T_c*`), and
//! hands mixed models back to the cold certified simplex.
//!
//! The fast path never weakens the engine's verification story:
//!
//! * an optimal graph solve carries the same KKT
//!   [`Certificate`](smo_lp::Certificate) as the simplex path: the
//!   critical cycle that proves `T_c*` is P2's optimal dual (§IV, each of
//!   its rows weighted by its multiplier over the cycle's `Σ slope`), and
//!   [`smo_lp::certify_kkt`] checks it with the graph's point against the
//!   raw LP rows;
//! * an infeasible graph solve surfaces the negative cycle as a Farkas
//!   vector checked by [`smo_lp::certifies_infeasibility`] and named in
//!   paper vocabulary (C1/C3/L1/…), exactly like
//!   [`diagnose_model`](crate::diagnose_model);
//! * any numerical doubt (an uncheckable certificate, a stalled
//!   iteration) falls back to the certified simplex path under
//!   [`Backend::Auto`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::TimingError;
use crate::model::TimingModel;
use crate::solution::TimingSolution;
use smo_circuit::{Circuit, ClockSchedule, LatchId, PhaseId};
use smo_lp::{
    classify, Certificate, Classification, ConstraintId, DifferenceSystem, FixedParamOutcome,
    GraphInfeasibility, MinParamOutcome, ParamLowerWitness, SolveBudget, Tol, VarImage,
};

/// Which solver backs [`min_cycle_time_with`](crate::min_cycle_time_with).
///
/// [`Backend::Auto`] is the default of every options struct, the `smo`
/// CLI and the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Route difference-only models to the graph solver; mixed models,
    /// and any numerical doubt, go to the certified LP path.
    #[default]
    Auto,
    /// Graph solver only; models with rows outside the difference
    /// fragment are rejected with
    /// [`TimingError::InvalidOptions`](crate::TimingError).
    Graph,
    /// The sparse-LU simplex on every model. Pick it for the canonical
    /// compact schedule of [`MlpOptions::canonicalize`](crate::MlpOptions)
    /// or to cross-check the graph path.
    Lp,
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "graph" => Ok(Backend::Graph),
            "lp" => Ok(Backend::Lp),
            other => Err(format!(
                "unknown backend `{other}` (expected auto, graph or lp)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Auto => write!(f, "auto"),
            Backend::Graph => write!(f, "graph"),
            Backend::Lp => write!(f, "lp"),
        }
    }
}

/// The variable recombination that turns the SMO model into a
/// difference-constraint system: one [`VarImage`] per LP variable.
///
/// Node numbering (with `k` phases and `l` synchronizers): node `p` is
/// the phase start `s_p`, node `k + p` the phase end `E_p = s_p + T_p`,
/// node `2k + i` the absolute departure `u_i = s_{p_i} + D_i`. `T_c` is
/// the parameter `λ`.
pub fn variable_images(circuit: &Circuit, model: &TimingModel) -> Vec<VarImage> {
    let vars = model.vars();
    let k = vars.num_phases();
    let l = vars.num_latches();
    let mut images = vec![VarImage::Param; model.problem().num_vars()];
    images[vars.tc().index()] = VarImage::Param;
    for p in 0..k {
        let ph = PhaseId::new(p);
        images[vars.start(ph).index()] = VarImage::Node(p);
        images[vars.width(ph).index()] = VarImage::Diff(k + p, p);
    }
    for i in 0..l {
        let id = LatchId::new(i);
        let p = circuit.sync(id).phase.index();
        images[vars.departure(id).index()] = VarImage::Diff(2 * k + i, p);
    }
    images
}

/// Classifies every row of the model under [`variable_images`] — the
/// static-analysis pass behind the fast path, also surfaced per paper
/// family by `smo analyze`.
///
/// # Errors
///
/// [`TimingError::Lp`] only on an internal dimension mismatch.
pub fn classify_model(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Classification, TimingError> {
    let images = variable_images(circuit, model);
    Ok(classify(model.problem(), &images)?)
}

/// Does a feasible schedule exist at the given cycle time, by Bellman–Ford
/// on the difference graph? Returns `None` when the model has rows outside
/// the difference fragment (the graph alone cannot decide).
///
/// # Errors
///
/// [`TimingError`] if the model cannot be built for `circuit`.
pub fn graph_feasible_at(circuit: &Circuit, cycle: f64) -> Result<Option<bool>, TimingError> {
    graph_feasible_at_within(circuit, cycle, &SolveBudget::UNLIMITED)
}

/// [`graph_feasible_at`] under a wall-clock / iteration budget: the
/// Bellman–Ford search aborts with [`smo_lp::LpError::Budget`] (wrapped in
/// [`TimingError::Lp`]) when the budget expires, so daemon-style callers
/// can bound even the feasibility probe.
///
/// # Errors
///
/// As [`graph_feasible_at`], plus the budget error above.
pub fn graph_feasible_at_within(
    circuit: &Circuit,
    cycle: f64,
    budget: &SolveBudget,
) -> Result<Option<bool>, TimingError> {
    let model = TimingModel::build(circuit)?;
    let Some(sys) = difference_system(circuit, &model)? else {
        return Ok(None);
    };
    let (lo, hi) = sys.param_range();
    if cycle < lo - Tol::FEAS.abs_for(lo) || cycle > hi + Tol::FEAS.abs_for(hi) {
        return Ok(Some(false));
    }
    Ok(Some(matches!(
        sys.feasible_at(cycle, budget)?,
        FixedParamOutcome::Feasible { .. }
    )))
}

/// What [`attempt`] produced.
pub(crate) enum FastPathOutcome {
    /// The model was pure-difference and solved exactly on the graph.
    Solved(Box<TimingSolution>),
    /// The model has rows outside the difference fragment; the simplex
    /// must run.
    Mixed,
}

/// Runs the fast path on a freshly built model. With `certify` on, a
/// pure-model solve carries the KKT certificate of [`certify_optimum`],
/// valid or not: [`route`] decides what a failed one means.
/// A mixed model is handed back before any graph is built: the simplex
/// decides it, infeasibility included.
///
/// # Errors
///
/// [`TimingError::Infeasible`] with a machine-checked negative-cycle
/// certificate; [`TimingError::Lp`] on numerical trouble inside the
/// graph solver (callers under [`Backend::Auto`] fall back to the
/// simplex).
pub(crate) fn attempt(
    circuit: &Circuit,
    model: &TimingModel,
    budget: &SolveBudget,
    certify: bool,
) -> Result<FastPathOutcome, TimingError> {
    let p = model.problem();
    let Some(sys) = difference_system(circuit, model)? else {
        return Ok(FastPathOutcome::Mixed);
    };
    match sys.minimize_param(budget)? {
        MinParamOutcome::Infeasible(cert) => {
            if cert.check(p) {
                Err(infeasibility_error(circuit, model, &cert))
            } else {
                // A certificate that fails the independent check is
                // numerical trouble, not a verdict.
                Err(TimingError::Lp(smo_lp::LpError::Numerical {
                    context: "graph negative-cycle certificate failed its independent check".into(),
                }))
            }
        }
        MinParamOutcome::Optimal {
            lambda,
            potentials,
            witness,
        } => {
            let x = reconstruct_point(circuit, model, lambda, &potentials);
            let mut solution = build_solution(circuit, model, lambda, &x)?;
            if certify {
                let cert = certify_optimum(model, &x, &critical_duals(witness.as_ref()));
                solution.certificates = vec![cert];
            }
            Ok(FastPathOutcome::Solved(Box::new(solution)))
        }
    }
}

/// What a solve under `backend` makes of [`attempt`]'s outcome: `Some`
/// answers the solve, `None` hands it to the simplex.
///
/// Under [`Backend::Auto`] a miss goes to the simplex: a mixed model,
/// numerical trouble, or an optimum whose requested certificate fails its
/// check. [`Backend::Graph`] answers with whatever the graph gave, an
/// uncertified optimum included. A verdict (infeasibility) and an expired
/// budget answer under both.
pub(crate) fn route(
    outcome: Result<FastPathOutcome, TimingError>,
    backend: Backend,
    certify: bool,
) -> Option<Result<TimingSolution, TimingError>> {
    let graph_only = backend == Backend::Graph;
    match outcome {
        Ok(FastPathOutcome::Solved(solution)) => {
            (graph_only || !certify || solution.certified()).then_some(Ok(*solution))
        }
        Ok(FastPathOutcome::Mixed) => graph_only.then(|| {
            Err(TimingError::InvalidOptions {
                reason: "backend `graph` requires a pure difference-constraint \
                         model, but the generated rows include general linear \
                         constraints (use `auto` or `lp`)"
                    .into(),
            })
        }),
        Err(e @ TimingError::Infeasible { .. }) => Some(Err(e)),
        // The deadline expired inside the fast path; falling through to
        // the simplex would defeat it.
        Err(e @ TimingError::Lp(smo_lp::LpError::Budget { .. })) => Some(Err(e)),
        Err(e) => graph_only.then_some(Err(e)),
    }
}

/// The exact minimum cycle time of a pure difference model by the
/// min-ratio solve of [`attempt`], without the departure slide — all a
/// sweep run needs — with the critical cycle that proves it (`None` when
/// `T_c*` sits on the cycle-time variable's own lower bound). With
/// `certify`, the optimum must also pass [`certify_optimum`].
///
/// Returns `Ok(None)` on a miss that `auto` would hand to the simplex: a
/// row outside the difference fragment, numerical trouble in the graph
/// solver, or a failed certificate.
///
/// # Errors
///
/// [`TimingError::Infeasible`] with a machine-checked negative-cycle
/// certificate.
pub(crate) fn min_cycle_ratio(
    circuit: &Circuit,
    model: &TimingModel,
    certify: bool,
) -> Result<Option<(f64, Option<ParamLowerWitness>)>, TimingError> {
    let p = model.problem();
    let Ok(Some(sys)) = difference_system(circuit, model) else {
        return Ok(None);
    };
    let Ok(outcome) = sys.minimize_param(&SolveBudget::UNLIMITED) else {
        return Ok(None);
    };
    match outcome {
        MinParamOutcome::Infeasible(cert) if cert.check(p) => {
            Err(infeasibility_error(circuit, model, &cert))
        }
        MinParamOutcome::Optimal {
            lambda,
            potentials,
            witness,
        } => {
            if certify {
                let x = reconstruct_point(circuit, model, lambda, &potentials);
                if !certify_optimum(model, &x, &critical_duals(witness.as_ref())).is_valid() {
                    return Ok(None);
                }
            }
            Ok(Some((lambda, witness)))
        }
        MinParamOutcome::Infeasible(_) => Ok(None),
    }
}

/// The model's difference system, or `None` when a row lies outside the
/// difference fragment: a mixed model is the simplex's to solve, and a
/// graph built from its difference rows would only bound `T_c`.
pub(crate) fn difference_system(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Option<DifferenceSystem>, TimingError> {
    let p = model.problem();
    let images = variable_images(circuit, model);
    let cls = classify(p, &images)?;
    if !cls.is_pure() {
        return Ok(None);
    }
    Ok(Some(DifferenceSystem::build(p, &images, &cls)?))
}

/// Reconstructs the canonical graph schedule at a *fixed* cycle time:
/// Bellman–Ford potentials of the difference system at `λ = tc`, mapped
/// back through [`reconstruct_point`]. The potentials are origin-normalized
/// shortest-path distances, so the result is a deterministic function of
/// `(circuit, tc)` alone — the race analysis relies on this to make hold
/// slacks backend-independent (graph and LP solves of the same circuit
/// agree on `T_c*` to within [`Tol::TIGHT`], hence on this schedule).
///
/// Returns `Ok(None)` when the model has rows outside the difference
/// fragment (the caller must fall back to a canonicalized LP solve at a
/// pinned cycle time).
///
/// # Errors
///
/// [`TimingError::Infeasible`] when no schedule exists at `tc` (with the
/// machine-checked negative-cycle certificate named in paper vocabulary).
pub(crate) fn schedule_at(
    circuit: &Circuit,
    model: &TimingModel,
    tc: f64,
    budget: &SolveBudget,
) -> Result<Option<ClockSchedule>, TimingError> {
    let Some(sys) = difference_system(circuit, model)? else {
        return Ok(None);
    };
    let (lo, hi) = sys.param_range();
    if tc < lo - Tol::FEAS.abs_for(lo) || tc > hi + Tol::FEAS.abs_for(hi) {
        return Err(TimingError::Infeasible {
            reason: format!(
                "cycle time {tc} is outside the model's declared parameter range [{lo}, {hi}]"
            ),
        });
    }
    match sys.feasible_at(tc, budget)? {
        FixedParamOutcome::Feasible { potentials } => {
            let x = reconstruct_point(circuit, model, tc, &potentials);
            let vars = model.vars();
            let k = vars.num_phases();
            let starts: Vec<f64> = (0..k)
                .map(|p| x[vars.start(PhaseId::new(p)).index()])
                .collect();
            let widths: Vec<f64> = (0..k)
                .map(|p| x[vars.width(PhaseId::new(p)).index()])
                .collect();
            Ok(Some(
                ClockSchedule::new(tc, starts, widths).map_err(TimingError::Circuit)?,
            ))
        }
        FixedParamOutcome::NegativeCycle(cycle) => Err(TimingError::Infeasible {
            reason: format!(
                "no feasible schedule at cycle time {tc}: negative constraint cycle \
                 over {} row(s) (minimum feasible cycle time {})",
                cycle.rows().len(),
                cycle
                    .min_feasible_lambda()
                    .map_or_else(|| "unbounded".to_string(), |l| format!("{l:.6}")),
            ),
        }),
    }
}

/// Maps graph node potentials back to an LP-variable point, with the same
/// clamping discipline as
/// [`TimingModel::extract_schedule`](crate::TimingModel::extract_schedule):
/// tiny negatives to zero, starts monotone, everything capped at the
/// cycle.
fn reconstruct_point(
    circuit: &Circuit,
    model: &TimingModel,
    lambda: f64,
    potentials: &[f64],
) -> Vec<f64> {
    let vars = model.vars();
    let k = vars.num_phases();
    let clamp = |v: f64| if v.abs() < 1e-9 { 0.0 } else { v.max(0.0) };
    let mut starts: Vec<f64> = (0..k).map(|p| clamp(potentials[p]).min(lambda)).collect();
    for i in 1..k {
        if starts[i] < starts[i - 1] {
            starts[i] = starts[i - 1];
        }
    }
    let mut x = vec![0.0; model.problem().num_vars()];
    x[vars.tc().index()] = lambda;
    for p in 0..k {
        let ph = PhaseId::new(p);
        x[vars.start(ph).index()] = starts[p];
        x[vars.width(ph).index()] = clamp(potentials[k + p] - potentials[p]).min(lambda);
    }
    for i in 0..vars.num_latches() {
        let id = LatchId::new(i);
        let p = circuit.sync(id).phase.index();
        x[vars.departure(id).index()] = clamp(potentials[2 * k + i] - potentials[p]);
    }
    x
}

/// Assembles the uncertified [`TimingSolution`] for a pure-difference
/// optimum: schedule from the potentials, departures slid to the
/// nonlinear fixpoint (MLP step 2, same as the LP path).
fn build_solution(
    circuit: &Circuit,
    model: &TimingModel,
    lambda: f64,
    x: &[f64],
) -> Result<TimingSolution, TimingError> {
    let vars = model.vars();
    let k = vars.num_phases();
    let starts: Vec<f64> = (0..k)
        .map(|p| x[vars.start(PhaseId::new(p)).index()])
        .collect();
    let widths: Vec<f64> = (0..k)
        .map(|p| x[vars.width(PhaseId::new(p)).index()])
        .collect();
    let schedule = ClockSchedule::new(lambda, starts, widths).map_err(TimingError::Circuit)?;
    let d0: Vec<f64> = (0..vars.num_latches())
        .map(|i| x[vars.departure(LatchId::new(i)).index()])
        .collect();
    let (departures, arrivals, update_iterations) =
        crate::mlp::slide_departures(circuit, &schedule, &d0)?;
    Ok(TimingSolution {
        schedule,
        departures,
        arrivals,
        update_iterations,
        lp_iterations: 0,
        num_constraints: model.num_constraints(),
        certificates: Vec::new(),
        backend: Backend::Graph,
    })
}

/// P2's optimal dual on the graph path, as `(row, dual)` pairs: each row
/// of the critical cycle that proves `T_c*` gets its multiplier over the
/// cycle's `Σ slope`, and every other row zero (§IV, Theorem 1). The dual
/// of a row is `dT_c*/db` for its right-hand side `b`. Empty when `T_c*`
/// sits on the cycle-time variable's own lower bound.
pub(crate) fn critical_duals(witness: Option<&ParamLowerWitness>) -> Vec<(ConstraintId, f64)> {
    witness.map_or_else(Vec::new, |w| {
        w.rows().iter().map(|&(c, m)| (c, m / w.slope())).collect()
    })
}

/// The KKT certificate of a graph optimum: the point `x` and its
/// [`critical_duals`] checked against P2's raw rows by
/// [`smo_lp::certify_kkt`], the checker of the simplex path. Valid means
/// `x` is optimal by weak duality, whichever solver found it.
fn certify_optimum(model: &TimingModel, x: &[f64], duals: &[(ConstraintId, f64)]) -> Certificate {
    let p = model.problem();
    let mut y = vec![0.0; p.num_constraints()];
    for &(c, v) in duals {
        y[c.index()] += v;
    }
    smo_lp::certify_kkt(p, x, &y, None)
}

/// Builds the [`TimingError::Infeasible`] for a machine-checked
/// negative-cycle certificate, naming the conflict in paper vocabulary
/// the way [`diagnose_model`](crate::diagnose_model) does.
fn infeasibility_error(
    circuit: &Circuit,
    model: &TimingModel,
    cert: &GraphInfeasibility,
) -> TimingError {
    let mut families: Vec<String> = Vec::new();
    for &(c, _) in cert.rows() {
        let info = &model.constraints()[c.index()];
        let described = crate::diagnose::describe(circuit, model, info);
        let label = format!("[{}] {}", described.label, described.detail);
        if !families.contains(&label) {
            families.push(label);
        }
    }
    TimingError::Infeasible {
        reason: format!(
            "negative constraint cycle (machine-checked Farkas certificate over {} row(s)): {}",
            cert.rows().len(),
            families.join("; ")
        ),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::mlp::{min_cycle_time_with, MlpOptions};
    use crate::model::ConstraintOptions;
    use crate::propagation::PropagationSystem;
    use proptest::prelude::*;
    use smo_gen::paper::example1;
    use smo_gen::random::{random_circuit, GenConfig};

    fn opts(backend: Backend) -> MlpOptions {
        MlpOptions {
            backend,
            ..Default::default()
        }
    }

    #[test]
    fn graph_backend_solves_example1_exactly() {
        let c = example1(80.0);
        let sol = min_cycle_time_with(&c, &opts(Backend::Graph)).unwrap();
        // Lawler's iteration lands on the exact critical ratio, no simplex.
        assert!(
            (sol.cycle_time() - 110.0).abs() < 1e-9,
            "{}",
            sol.cycle_time()
        );
        assert_eq!(sol.lp_iterations(), 0);
        let [cert] = sol.certificates() else {
            panic!("graph path must certify: {:?}", sol.certificates());
        };
        assert!(cert.is_valid(), "{cert}");
        assert!(sol.certified());
        assert!(sol.to_string().contains("[certified]"));
        // The slid departures satisfy the nonlinear fixpoint (Theorem 1).
        let sys = PropagationSystem::new(&c, sol.schedule());
        for i in 0..c.num_syncs() {
            let expect = sys.update(sol.departures(), i);
            assert!((sol.departures()[i] - expect).abs() < 1e-7);
        }
    }

    #[test]
    fn auto_backend_agrees_with_lp_across_example1_sweep() {
        for d41 in [0.0, 20.0, 60.0, 80.0, 99.0, 100.0, 101.0, 120.0, 140.0] {
            let c = example1(d41);
            let lp = min_cycle_time_with(&c, &opts(Backend::Lp)).unwrap();
            let fast = min_cycle_time_with(&c, &opts(Backend::Auto)).unwrap();
            assert!(
                (lp.cycle_time() - fast.cycle_time()).abs() < 1e-7,
                "Δ41 = {d41}: lp {} vs graph {}",
                lp.cycle_time(),
                fast.cycle_time()
            );
            assert_eq!(fast.backend(), Backend::Graph, "Δ41 = {d41}");
            assert!(fast.certified(), "Δ41 = {d41}");
        }
    }

    /// The graph optimum of `circuit`'s default model, taken apart: the
    /// model, `T_c*`, the point of [`reconstruct_point`] and its
    /// [`critical_duals`].
    fn graph_optimum(circuit: &Circuit) -> (TimingModel, f64, Vec<f64>, Vec<(ConstraintId, f64)>) {
        let model = TimingModel::build(circuit).unwrap();
        let sys = difference_system(circuit, &model)
            .unwrap()
            .expect("pure model");
        let MinParamOutcome::Optimal {
            lambda,
            potentials,
            witness,
        } = sys.minimize_param(&SolveBudget::UNLIMITED).unwrap()
        else {
            panic!("default models are feasible");
        };
        let x = reconstruct_point(circuit, &model, lambda, &potentials);
        let duals = critical_duals(witness.as_ref());
        (model, lambda, x, duals)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On random pure circuits the graph optimum's KKT certificate is
        /// valid, `T_c*` matches the dense reference simplex, and the
        /// check rejects a halved dual, a dropped critical row and a point
        /// whose `T_c` is 0.1 % low.
        #[test]
        fn prop_graph_kkt_certificate_is_valid_and_sharp(
            seed in 0u64..10_000,
            latches in 3usize..12,
            ff in proptest::bool::ANY,
        ) {
            let cfg = GenConfig {
                latches,
                edges: 2 * latches,
                flip_flop_prob: if ff { 0.3 } else { 0.0 },
                ..Default::default()
            };
            let circuit = random_circuit(&cfg, seed);
            let (model, tc, x, duals) = graph_optimum(&circuit);
            let cert = certify_optimum(&model, &x, &duals);
            prop_assert!(cert.is_valid(), "{cert}");
            let reference = model
                .problem()
                .solve_reference(SolveBudget::UNLIMITED)
                .unwrap()
                .into_optimal()
                .unwrap()
                .objective();
            prop_assert!(
                (tc - reference).abs() <= Tol::TIGHT.abs_for(reference),
                "graph Tc* = {tc}, dense simplex {reference}"
            );

            prop_assert!(!duals.is_empty(), "a critical cycle binds Tc*");
            let halved: Vec<_> = duals.iter().map(|&(c, v)| (c, v / 2.0)).collect();
            prop_assert!(!certify_optimum(&model, &x, &halved).is_valid());
            // A row that only restates a variable bound (a flip-flop's
            // pinned departure) can go without breaking the proof; a row
            // carrying `T_c` cannot.
            let tc_var = model.vars().tc();
            let drop = duals
                .iter()
                .position(|&(c, _)| model.problem().constraint(c).0.coeff(tc_var) != 0.0)
                .expect("the critical cycle's Σ slope is positive");
            let mut fewer = duals.clone();
            fewer.remove(drop);
            let cert = certify_optimum(&model, &x, &fewer);
            prop_assert!(!cert.is_valid(), "without row {:?}: {cert}", duals[drop].0);
            let mut low = x.clone();
            low[model.vars().tc().index()] -= 1e-3 * tc;
            prop_assert!(!certify_optimum(&model, &low, &duals).is_valid());
        }
    }

    #[test]
    fn auto_hands_an_optimum_with_a_failed_certificate_to_the_simplex() {
        let circuit = example1(80.0);
        let (model, _, x, duals) = graph_optimum(&circuit);
        let budget = SolveBudget::UNLIMITED;
        let solved = || match attempt(&circuit, &model, &budget, true) {
            Ok(FastPathOutcome::Solved(solution)) => solution,
            _ => panic!("example 1 is a pure model"),
        };
        // A certificate made invalid by halving the critical cycle's duals.
        let halved: Vec<_> = duals.iter().map(|&(c, v)| (c, v / 2.0)).collect();
        let broken = || {
            let mut solution = solved();
            solution.certificates = vec![certify_optimum(&model, &x, &halved)];
            assert!(!solution.certified());
            Ok(FastPathOutcome::Solved(solution))
        };
        assert!(route(broken(), Backend::Auto, true).is_none());
        let graph = route(broken(), Backend::Graph, true)
            .expect("`graph` answers itself")
            .unwrap();
        assert!(!graph.certified());
        assert_eq!(graph.backend(), Backend::Graph);
        // A valid certificate answers under `auto`, and so does an
        // optimum nobody asked to certify.
        let ok = route(Ok(FastPathOutcome::Solved(solved())), Backend::Auto, true);
        assert!(ok.expect("certified optimum").unwrap().certified());
        assert!(route(broken(), Backend::Auto, false).is_some());
    }

    #[test]
    fn pinned_cycle_time_certifies_through_its_row() {
        // `fixed_cycle` declares Tc's lower bound by a row: the row itself
        // is the witness, and the KKT check passes with its dual of 1.
        let c = example1(80.0);
        let options = MlpOptions {
            backend: Backend::Graph,
            constraints: ConstraintOptions {
                fixed_cycle: Some(150.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let sol = min_cycle_time_with(&c, &options).unwrap();
        assert_eq!(sol.cycle_time(), 150.0);
        assert!(sol.certified(), "{:?}", sol.certificates());
    }

    #[test]
    fn default_models_are_pure_difference_systems() {
        let c = example1(80.0);
        let model = TimingModel::build(&c).unwrap();
        let cls = classify_model(&c, &model).unwrap();
        assert!(cls.is_pure());
        assert_eq!(cls.len(), model.num_constraints());
        assert!(cls.num_difference() > 0);
    }

    #[test]
    fn mixed_model_under_auto_certifies_and_matches_lp() {
        let c = example1(80.0);
        let mut model = TimingModel::build(&c).unwrap();
        // A redundant non-difference row (sum of two widths): the fast
        // path must refuse to decide alone, and `auto` must fall through
        // to the same certified simplex solve as `lp`.
        let (w1, w2, tc) = {
            let vars = model.vars();
            (
                vars.width(PhaseId::new(0)),
                vars.width(PhaseId::new(1)),
                vars.tc(),
            )
        };
        let expr = smo_lp::LinExpr::from(w1) + w2 - tc - tc;
        model.problem_mut().constrain(expr, smo_lp::Sense::Le, 0.0);
        let outcome = attempt(&c, &model, &SolveBudget::UNLIMITED, true).unwrap();
        assert!(
            matches!(outcome, FastPathOutcome::Mixed),
            "general row must not solve on the graph"
        );
        let solve = |backend| {
            let options = MlpOptions {
                backend,
                ..Default::default()
            };
            crate::mlp::solve_built(&c, &model, &options).unwrap()
        };
        let auto = solve(Backend::Auto);
        let lp = solve(Backend::Lp);
        assert_eq!(auto.backend(), Backend::Lp);
        assert!(!auto.certificates().is_empty());
        assert!(auto.certificates().iter().all(|c| c.is_valid()));
        assert_eq!(auto.cycle_time(), lp.cycle_time());
        assert_eq!(auto.schedule(), lp.schedule());
        assert!((auto.cycle_time() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_mixed_model_under_auto_is_infeasible() {
        // The cycle cap of 50 is below Example 1's optimum of 110, and a
        // redundant non-difference row makes the model mixed: the graph
        // never runs, and the simplex must still return the verdict.
        let c = example1(80.0);
        let constraints = ConstraintOptions {
            max_cycle: Some(50.0),
            ..Default::default()
        };
        let mut model = TimingModel::build_with(&c, &constraints).unwrap();
        let (w1, w2, tc) = {
            let vars = model.vars();
            (
                vars.width(PhaseId::new(0)),
                vars.width(PhaseId::new(1)),
                vars.tc(),
            )
        };
        let expr = smo_lp::LinExpr::from(w1) + w2 - tc - tc;
        model.problem_mut().constrain(expr, smo_lp::Sense::Le, 0.0);
        let outcome = attempt(&c, &model, &SolveBudget::UNLIMITED, true).unwrap();
        assert!(matches!(outcome, FastPathOutcome::Mixed));
        let options = MlpOptions {
            constraints,
            ..Default::default()
        };
        let err = crate::mlp::solve_built(&c, &model, &options).unwrap_err();
        assert!(
            matches!(err, TimingError::Infeasible { .. }),
            "expected infeasibility, got {err:?}"
        );
    }

    #[test]
    fn infeasible_cycle_cap_names_constraint_families() {
        let c = example1(80.0);
        let options = MlpOptions {
            backend: Backend::Graph,
            constraints: ConstraintOptions {
                max_cycle: Some(50.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let err = min_cycle_time_with(&c, &options).unwrap_err();
        let TimingError::Infeasible { reason } = err else {
            panic!("expected infeasibility, got {err:?}");
        };
        assert!(
            reason.contains("negative constraint cycle"),
            "reason: {reason}"
        );
        assert!(reason.contains("machine-checked"), "reason: {reason}");
        // The conflict names at least one paper constraint family.
        assert!(
            ["C1", "C2", "C3", "L1", "cycle"]
                .iter()
                .any(|f| reason.contains(f)),
            "reason: {reason}"
        );
    }

    #[test]
    fn graph_feasible_at_separates_the_optimum() {
        let c = example1(80.0);
        assert_eq!(graph_feasible_at(&c, 110.0).unwrap(), Some(true));
        assert_eq!(graph_feasible_at(&c, 200.0).unwrap(), Some(true));
        assert_eq!(graph_feasible_at(&c, 100.0).unwrap(), Some(false));
    }

    #[test]
    fn backend_parses_and_displays() {
        for (s, b) in [
            ("auto", Backend::Auto),
            ("graph", Backend::Graph),
            ("lp", Backend::Lp),
        ] {
            assert_eq!(s.parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), s);
        }
        assert!("simplex".parse::<Backend>().is_err());
    }
}
