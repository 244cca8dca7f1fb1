//! The difference-constraint fast path: graph algorithms for the SMO
//! timing LP, and the one place that decides graph or simplex.
//!
//! Under the variable recombination `E_p = s_p + T_p` (absolute phase
//! end) and `u_i = s_{p_i} + D_i` (absolute departure), every row the
//! default [`TimingModel`] generates — C1–C3, L1, L2R, FF setup and
//! departure pinning, plus the optional extras — is a two-variable
//! difference constraint `x_a − x_b ≤ base + slope·T_c` over the node set
//! `{s_p} ∪ {E_p} ∪ {u_i}` ([`variable_images`]). Each solve builds the
//! graph straight from P2's rows at solve time
//! ([`DifferenceSystem::from_problem`]): every row is classified while its
//! arc is listed, nothing per row is kept beyond the graph, and the graph
//! is freed before the optimum is certified. Reading the rows then, not
//! when the model was built, lets sweeps and sensitivity probes change a
//! right-hand side in place. Two searches of
//! [`smo_lp::DifferenceSystem`] serve every caller: Lawler's exact
//! min-cycle-ratio `T_c*` (the solve, the sweep runs, the sensitivity
//! probes and the diagnosis all take it through one rule, `auto`), and one
//! Bellman–Ford search at a fixed `T_c` (`verify`'s existence verdict and
//! the race analysis's schedule). A mixed model goes to the simplex.
//!
//! The fast path never weakens the engine's verification story:
//!
//! * a graph optimum carries the same KKT [`Certificate`] as the simplex
//!   path: the critical cycle that proves `T_c*` is P2's optimal dual
//!   (§IV, each of its rows weighted by its multiplier over the cycle's
//!   `Σ slope`), checked with the graph's point against the raw LP rows
//!   by [`smo_lp::certify_kkt`];
//! * an infeasible graph solve surfaces the negative cycle as a Farkas
//!   vector checked by [`smo_lp::certifies_infeasibility`] and named in
//!   paper vocabulary (C1/C3/L1/…), like
//!   [`diagnose_model`](crate::diagnose_model);
//! * under [`Backend::Auto`] any doubt (an uncheckable certificate, a
//!   stalled iteration, a failed departure slide) goes to the certified
//!   simplex.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::TimingError;
use crate::model::TimingModel;
use crate::solution::TimingSolution;
use smo_circuit::{Circuit, ClockSchedule, LatchId, PhaseId};
use smo_lp::{
    classify, Certificate, Classification, ConstraintId, DifferenceSystem, FixedParamOutcome,
    GraphInfeasibility, MinParamOutcome, OptimalSolution, RecoveryPolicy, SolveBudget, Tol,
    VarImage,
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

/// Classifies every row of the model under [`variable_images`] and keeps
/// each row's class: the per-family breakdown of `smo analyze`. The fast
/// path stores no such classification; its graph build classifies each
/// row as it lists the arcs ([`DifferenceSystem::from_problem`]).
///
/// # Errors
///
/// [`TimingError::Lp`] only on an internal dimension mismatch.
pub fn classify_model(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Classification, TimingError> {
    Ok(classify(model.problem(), &variable_images(circuit, model))?)
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
/// can bound even the feasibility probe. The search is the one that gives
/// the race analysis its schedule at a fixed cycle time.
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
    match schedule_at(circuit, &model, cycle, budget) {
        Ok(schedule) => Ok(schedule.map(|_| true)),
        Err(TimingError::Infeasible { .. }) => Ok(Some(false)),
        Err(e) => Err(e),
    }
}

/// How one solve runs: its backend, its budget, and whether each optimum
/// is checked. [`auto`] reads all three, [`Route::solve_lp`] the last two.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route {
    pub(crate) backend: Backend,
    /// Bounds the graph search (checked once per Bellman–Ford pass) and
    /// the simplex alike.
    pub(crate) budget: SolveBudget,
    /// Check the graph optimum by its KKT certificate, the simplex's
    /// through the recovery ladder.
    pub(crate) certify: bool,
}

impl Route {
    /// Plain simplex solves: unbudgeted and uncertified.
    pub(crate) const PLAIN: Route = Route {
        backend: Backend::Lp,
        budget: SolveBudget::UNLIMITED,
        certify: false,
    };

    /// The unbudgeted `auto` route of the sweep, sensitivity and diagnosis
    /// solves.
    pub(crate) fn auto(certify: bool) -> Route {
        Route {
            backend: Backend::Auto,
            certify,
            ..Route::PLAIN
        }
    }

    /// Solves `model`'s LP cold, with its certificate when the route
    /// certifies: the simplex that a miss of [`auto`] falls through to.
    pub(crate) fn solve_lp(
        &self,
        model: &TimingModel,
    ) -> Result<(OptimalSolution, Vec<Certificate>), TimingError> {
        let budget = self.budget;
        if !self.certify {
            return Ok((model.solve_lp_budgeted(budget)?, Vec::new()));
        }
        let (sol, cert) = model.solve_lp_certified(&RecoveryPolicy { budget })?;
        Ok((sol, vec![cert]))
    }
}

/// A graph optimum: `T_c*`, the LP point of its potentials, and, when
/// asked, the KKT certificate of [`certify_optimum`].
pub(crate) struct GraphOptimum {
    pub(crate) tc: f64,
    pub(crate) x: Vec<f64>,
    /// P2's optimal dual, as `(row, dual)` pairs: each row of the critical
    /// cycle that proves `T_c*` gets its multiplier over the cycle's
    /// `Σ slope`, every other row zero (§IV, Theorem 1). The dual of a row
    /// is `dT_c*/db` for its right-hand side `b`. Empty when `T_c*` sits
    /// on the cycle-time variable's own lower bound.
    pub(crate) duals: Vec<(ConstraintId, f64)>,
    pub(crate) certificate: Option<Certificate>,
}

/// What the graph says about one model.
pub(crate) enum Graph<T> {
    /// `T_c*`: a [`GraphOptimum`] from [`graph`], the caller's answer from
    /// [`auto`].
    Optimal(T),
    /// A negative cycle whose Farkas vector passed its independent check:
    /// no schedule exists.
    Infeasible(GraphInfeasibility),
    /// The graph cannot decide, and the simplex must: from [`graph`] a
    /// mixed model (its graph is dropped unsearched), from [`auto`] any
    /// miss.
    Undecided,
}

impl<T> Graph<T> {
    /// The graph's answer: `Some` optimum, the named infeasibility as an
    /// error, or `None` for the simplex.
    pub(crate) fn answer(
        self,
        circuit: &Circuit,
        model: &TimingModel,
    ) -> Result<Option<T>, TimingError> {
        match self {
            Graph::Optimal(t) => Ok(Some(t)),
            Graph::Infeasible(cert) => Err(infeasibility_error(circuit, model, &cert)),
            Graph::Undecided => Ok(None),
        }
    }
}

/// The one graph primitive: Lawler's min-cycle-ratio search on the
/// model's difference system.
///
/// # Errors
///
/// [`TimingError::Lp`] on an expired budget or numerical trouble in the
/// graph solver, a negative cycle whose certificate fails its check
/// included.
fn graph(
    circuit: &Circuit,
    model: &TimingModel,
    budget: &SolveBudget,
    certify: bool,
) -> Result<Graph<GraphOptimum>, TimingError> {
    let Some(sys) = difference_system(circuit, model)? else {
        return Ok(Graph::Undecided);
    };
    let outcome = sys.minimize_param(budget)?;
    // The point, its certificate and the departure slide need only the
    // model: free the graph before they allocate.
    drop(sys);
    match outcome {
        MinParamOutcome::Infeasible(cert) if cert.check(model.problem()) => {
            Ok(Graph::Infeasible(cert))
        }
        // A certificate that fails the independent check is numerical
        // trouble, not a verdict.
        MinParamOutcome::Infeasible(_) => Err(TimingError::Lp(smo_lp::LpError::Numerical {
            context: "graph negative-cycle certificate failed its independent check".into(),
        })),
        MinParamOutcome::Optimal {
            lambda,
            potentials,
            witness,
        } => {
            let x = reconstruct_point(circuit, model, lambda, &potentials);
            let duals = witness.map_or_else(Vec::new, |w| {
                w.rows().iter().map(|&(c, m)| (c, m / w.slope())).collect()
            });
            let certificate = certify.then(|| certify_optimum(model, &x, &duals));
            Ok(Graph::Optimal(GraphOptimum {
                tc: lambda,
                x,
                duals,
                certificate,
            }))
        }
    }
}

/// The one rule that decides graph or simplex, for every solve in the
/// crate. `finish` turns the graph optimum into the caller's answer (the
/// MLP departure slide, or just `T_c*`).
///
/// [`Backend::Lp`] builds no graph. Under [`Backend::Auto`] a miss goes to
/// the simplex: a mixed model, numerical trouble, an optimum whose
/// requested certificate fails its check, or a `finish` that fails.
/// [`Backend::Graph`] answers with whatever the graph gave, an uncertified
/// optimum included, and rejects a mixed model. A checked infeasibility
/// and an expired budget answer under both.
///
/// # Errors
///
/// The budget error; under [`Backend::Graph`] every miss, a mixed model
/// as [`TimingError::InvalidOptions`].
pub(crate) fn auto<T>(
    circuit: &Circuit,
    model: &TimingModel,
    route: &Route,
    finish: impl FnOnce(GraphOptimum) -> Result<T, TimingError>,
) -> Result<Graph<T>, TimingError> {
    if route.backend == Backend::Lp {
        return Ok(Graph::Undecided);
    }
    let outcome = graph(circuit, model, &route.budget, route.certify);
    decide(outcome, route.backend == Backend::Graph, finish)
}

/// [`auto`]'s rule over the primitive's `outcome`; `graph_only` under
/// [`Backend::Graph`].
fn decide<T>(
    outcome: Result<Graph<GraphOptimum>, TimingError>,
    graph_only: bool,
    finish: impl FnOnce(GraphOptimum) -> Result<T, TimingError>,
) -> Result<Graph<T>, TimingError> {
    let answer = outcome.and_then(|graph| match graph {
        Graph::Optimal(optimum)
            if !graph_only && optimum.certificate.as_ref().is_some_and(|c| !c.is_valid()) =>
        {
            Ok(Graph::Undecided)
        }
        Graph::Optimal(optimum) => finish(optimum).map(Graph::Optimal),
        Graph::Infeasible(cert) => Ok(Graph::Infeasible(cert)),
        Graph::Undecided => Err(TimingError::InvalidOptions {
            reason: "backend `graph` requires a pure difference-constraint \
                     model, but the generated rows include general linear \
                     constraints (use `auto` or `lp`)"
                .into(),
        }),
    });
    match answer {
        // The deadline expired inside the graph search; falling through to
        // the simplex would defeat it.
        Err(e @ TimingError::Lp(smo_lp::LpError::Budget { .. })) => Err(e),
        // Under `auto` every other miss goes to the simplex.
        Err(_) if !graph_only => Ok(Graph::Undecided),
        answer => answer,
    }
}

/// The model's difference system, built straight from its rows, or
/// `None` when a row lies outside the difference fragment: a mixed model
/// is the simplex's to solve, and a graph built from its difference rows
/// would only bound `T_c`. No option of [`TimingModel::build_with`] writes
/// such a row, so only a caller that adds rows of its own pays for the
/// graph that is dropped here.
pub(crate) fn difference_system(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<Option<DifferenceSystem>, TimingError> {
    let images = variable_images(circuit, model);
    let sys = DifferenceSystem::from_problem(model.problem(), &images)?;
    Ok(sys.is_pure().then_some(sys))
}

/// The one fixed-`T_c` search: the canonical graph schedule at cycle time
/// `tc`, from the Bellman–Ford potentials of the difference system at
/// `λ = tc` (origin-normalized shortest-path distances, so a deterministic
/// function of `(circuit, tc)` alone). The race analysis checks its hold
/// slacks there, and [`graph_feasible_at_within`] reports its verdict.
///
/// Returns `Ok(None)` on a mixed model (the caller must fall back to a
/// canonicalized LP solve at a pinned cycle time).
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
    let outcome = sys.feasible_at(tc, budget)?;
    drop(sys);
    match outcome {
        FixedParamOutcome::Feasible { potentials } => {
            let x = reconstruct_point(circuit, model, tc, &potentials);
            Ok(Some(schedule_of(model, tc, &x)?))
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

/// The clock schedule of an LP point at cycle time `tc`. A solve and
/// [`schedule_at`] share it, so the optimum's schedule is the one
/// `schedule_at(T_c*)` rebuilds: the search at `T_c*` is Lawler's last
/// round.
fn schedule_of(model: &TimingModel, tc: f64, x: &[f64]) -> Result<ClockSchedule, TimingError> {
    let vars = model.vars();
    let (starts, widths) = (0..vars.num_phases())
        .map(|p| {
            let ph = PhaseId::new(p);
            (x[vars.start(ph).index()], x[vars.width(ph).index()])
        })
        .unzip();
    ClockSchedule::new(tc, starts, widths).map_err(TimingError::Circuit)
}

/// Assembles the [`TimingSolution`] of a graph optimum: schedule from the
/// potentials, departures slid to the nonlinear fixpoint (MLP step 2, same
/// as the LP path).
pub(crate) fn build_solution(
    circuit: &Circuit,
    model: &TimingModel,
    optimum: GraphOptimum,
) -> Result<TimingSolution, TimingError> {
    let schedule = schedule_of(model, optimum.tc, &optimum.x)?;
    let vars = model.vars();
    let d0: Vec<f64> = (0..vars.num_latches())
        .map(|i| optimum.x[vars.departure(LatchId::new(i)).index()])
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
        certificates: optimum.certificate.into_iter().collect(),
        backend: Backend::Graph,
        critical_duals: Some(optimum.duals),
    })
}

/// The KKT certificate of a graph optimum: the point `x` and its
/// duals checked against P2's raw rows by
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
    /// model, `T_c*`, the point of [`reconstruct_point`] and its duals.
    fn graph_optimum(circuit: &Circuit) -> (TimingModel, f64, Vec<f64>, Vec<(ConstraintId, f64)>) {
        let model = TimingModel::build(circuit).unwrap();
        let Ok(Graph::Optimal(optimum)) = graph(circuit, &model, &SolveBudget::UNLIMITED, false)
        else {
            panic!("default models are pure and feasible");
        };
        (model, optimum.tc, optimum.x, optimum.duals)
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
                .position(|&(c, _)| model.problem().constraint(c).0.iter().any(|&(v, _)| v == tc_var))
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

    /// `T_c*` of whatever the graph answered, or what `auto` made of it.
    fn routed_tc(
        c: &Circuit,
        model: &TimingModel,
        route: &Route,
    ) -> Result<Graph<f64>, TimingError> {
        auto(c, model, route, |optimum| Ok(optimum.tc))
    }

    fn on(backend: Backend, budget: SolveBudget) -> Route {
        Route {
            backend,
            budget,
            certify: true,
        }
    }

    #[test]
    fn auto_hands_an_optimum_with_a_failed_certificate_to_the_simplex() {
        let circuit = example1(80.0);
        let (model, _, x, duals) = graph_optimum(&circuit);
        let solved = || match graph(&circuit, &model, &SolveBudget::UNLIMITED, true) {
            Ok(Graph::Optimal(optimum)) => optimum,
            _ => panic!("example 1 is a pure model"),
        };
        // A certificate made invalid by halving the critical cycle's duals.
        let halved: Vec<_> = duals.iter().map(|&(c, v)| (c, v / 2.0)).collect();
        let broken = || {
            let mut optimum = solved();
            optimum.certificate = Some(certify_optimum(&model, &x, &halved));
            Ok(Graph::Optimal(optimum))
        };
        let finish = |optimum| build_solution(&circuit, &model, optimum);
        assert!(matches!(
            decide(broken(), false, finish),
            Ok(Graph::Undecided)
        ));
        let Ok(Graph::Optimal(graph)) = decide(broken(), true, finish) else {
            panic!("`graph` answers itself");
        };
        assert!(!graph.certified());
        assert_eq!(graph.backend(), Backend::Graph);
        // A valid certificate answers under `auto`, and so does an
        // optimum nobody asked to certify.
        let Ok(Graph::Optimal(ok)) = decide(Ok(Graph::Optimal(solved())), false, finish) else {
            panic!("certified optimum");
        };
        assert!(ok.certified());
        let mut uncertified = solved();
        uncertified.certificate = None;
        assert!(matches!(
            decide(Ok(Graph::Optimal(uncertified)), false, finish),
            Ok(Graph::Optimal(_))
        ));
        // A `finish` that fails (the departure slide) is a miss under
        // `auto` and the answer under `graph`.
        let failing = |_| -> Result<f64, TimingError> {
            Err(TimingError::NotConverged {
                positive_loop: Vec::new(),
            })
        };
        assert!(matches!(
            decide(Ok(Graph::Optimal(solved())), false, failing),
            Ok(Graph::Undecided)
        ));
        assert!(matches!(
            decide(Ok(Graph::Optimal(solved())), true, failing),
            Err(TimingError::NotConverged { .. })
        ));
    }

    /// Example 1 with a redundant non-difference row (the sum of two
    /// widths), under `constraints`.
    fn mixed_example1(constraints: &ConstraintOptions) -> (Circuit, TimingModel) {
        let c = example1(80.0);
        let mut model = TimingModel::build_with(&c, constraints).unwrap();
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
        (c, model)
    }

    #[test]
    fn mixed_model_goes_to_the_simplex_under_auto_and_is_refused_under_graph() {
        let (c, model) = mixed_example1(&ConstraintOptions::default());
        let unlimited = SolveBudget::UNLIMITED;
        // The graph refuses to decide alone: no graph is searched.
        assert!(matches!(
            graph(&c, &model, &unlimited, true),
            Ok(Graph::Undecided)
        ));
        assert!(matches!(
            routed_tc(&c, &model, &on(Backend::Auto, unlimited)),
            Ok(Graph::Undecided)
        ));
        assert!(matches!(
            routed_tc(&c, &model, &on(Backend::Graph, unlimited)),
            Err(TimingError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn mixed_model_under_auto_certifies_and_matches_lp() {
        // `auto` must fall through to the same certified simplex solve as
        // `lp`.
        let (c, model) = mixed_example1(&ConstraintOptions::default());
        let solve = |backend| {
            let options = MlpOptions {
                backend,
                ..Default::default()
            };
            crate::mlp::solve_model_with(&c, &model, &options).unwrap()
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
        let constraints = ConstraintOptions {
            max_cycle: Some(50.0),
            ..Default::default()
        };
        let (c, model) = mixed_example1(&constraints);
        assert!(matches!(
            graph(&c, &model, &SolveBudget::UNLIMITED, true),
            Ok(Graph::Undecided)
        ));
        let options = MlpOptions {
            constraints,
            ..Default::default()
        };
        let err = crate::mlp::solve_model_with(&c, &model, &options).unwrap_err();
        assert!(
            matches!(err, TimingError::Infeasible { .. }),
            "expected infeasibility, got {err:?}"
        );
    }

    /// Example 1 capped at a cycle time of 50, below its optimum of 110:
    /// a pure model with no schedule.
    fn capped_example1() -> (Circuit, TimingModel) {
        let c = example1(80.0);
        let constraints = ConstraintOptions {
            max_cycle: Some(50.0),
            ..Default::default()
        };
        let model = TimingModel::build_with(&c, &constraints).unwrap();
        (c, model)
    }

    #[test]
    fn checked_infeasibility_is_the_verdict_under_auto_and_graph() {
        let (c, model) = capped_example1();
        for backend in [Backend::Auto, Backend::Graph] {
            let routed = routed_tc(&c, &model, &on(backend, SolveBudget::UNLIMITED));
            let Ok(Graph::Infeasible(cert)) = routed else {
                panic!("{backend}: expected the graph's verdict");
            };
            assert!(cert.check(model.problem()), "{backend}");
        }
    }

    #[test]
    fn expired_budget_is_the_answer_under_auto_and_graph() {
        let c = example1(80.0);
        let model = TimingModel::build(&c).unwrap();
        let expired = SolveBudget::with_time_limit(std::time::Duration::ZERO);
        for backend in [Backend::Auto, Backend::Graph] {
            let routed = routed_tc(&c, &model, &on(backend, expired));
            assert!(
                matches!(routed, Err(TimingError::Lp(smo_lp::LpError::Budget { .. }))),
                "{backend}"
            );
        }
    }

    #[test]
    fn lp_backend_builds_no_graph() {
        // An expired budget and a graph verdict both show once a graph
        // runs; under `lp` neither does.
        let (c, capped) = capped_example1();
        let expired = SolveBudget::with_time_limit(std::time::Duration::ZERO);
        for budget in [SolveBudget::UNLIMITED, expired] {
            assert!(matches!(
                routed_tc(&c, &capped, &on(Backend::Lp, budget)),
                Ok(Graph::Undecided)
            ));
        }
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

    /// Every arc of a difference system as `(from, to, base bits, slope
    /// bits, row and sign)` in CSR order, then its parameter interval (as
    /// bits), the rows behind that interval, the constant conflict and the
    /// pure-or-mixed verdict.
    type Listing = (
        Vec<(usize, usize, u64, u64, Option<(ConstraintId, f64)>)>,
        (u64, u64),
        [Option<(ConstraintId, f64)>; 2],
        Option<(ConstraintId, f64)>,
        bool,
    );

    fn streamed(sys: &DifferenceSystem) -> Listing {
        let arcs = (0..sys.num_arcs())
            .map(|k| sys.arc(k))
            .map(|a| (a.from, a.to, a.base.to_bits(), a.slope.to_bits(), a.tag))
            .collect();
        let (lo, hi) = sys.param_range();
        (
            arcs,
            (lo.to_bits(), hi.to_bits()),
            sys.param_range_rows(),
            sys.constant_conflict(),
            sys.is_pure(),
        )
    }

    /// Test oracle: the graph as the stored build made it, from the
    /// per-row atoms of [`classify`]. Row arcs in row order (an `=` row's
    /// `≤` direction first), then the variable-bound arcs, stably sorted by
    /// source into CSR order; the parameter interval starts at the
    /// parameter's box and tightens over the `ParamBound` atoms in order.
    fn stored(model: &TimingModel, images: &[VarImage]) -> Listing {
        use smo_lp::RowClass;
        let p = model.problem();
        let vars = model.vars();
        let mut ids = vec![vars.tc()];
        for ph in (0..vars.num_phases()).map(PhaseId::new) {
            ids.extend([vars.start(ph), vars.width(ph)]);
        }
        ids.extend((0..vars.num_latches()).map(|i| vars.departure(LatchId::new(i))));
        ids.sort_by_key(|v| v.index());
        assert_eq!(ids.len(), p.num_vars());
        let bounds = |v: usize| p.var_bounds(ids[v]);
        let cls = classify(p, images).unwrap();
        let origin = images
            .iter()
            .map(|im| match *im {
                VarImage::Node(i) => i + 1,
                VarImage::Diff(a, b) => a.max(b) + 1,
                VarImage::Param => 0,
            })
            .max()
            .unwrap_or(0);
        let param = |v: usize| images[v] == VarImage::Param;
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        for v in (0..images.len()).filter(|&v| param(v)) {
            let (l, u) = bounds(v);
            (lo, hi) = (lo.max(l), hi.min(u));
        }
        if lo == f64::NEG_INFINITY && !(0..images.len()).any(param) {
            (lo, hi) = (0.0, 0.0);
        }
        let (mut rows, mut conflict) = ([None, None], None);
        let mut arcs = Vec::new();
        for c in (0..p.num_constraints()).map(ConstraintId::new) {
            for (class, sign) in cls.directions(c) {
                let (from, to, bound) = match class {
                    RowClass::Difference { i, j, bound } => (j, i, bound),
                    RowClass::SingleVar {
                        i,
                        negated: true,
                        bound,
                    } => (i, origin, bound),
                    RowClass::SingleVar { i, bound, .. } => (origin, i, bound),
                    RowClass::ParamBound { coef, rhs } => {
                        let cand = rhs / coef;
                        if coef > 1e-9 && cand < hi {
                            (hi, rows[1]) = (cand, Some((c, sign)));
                        } else if coef < -1e-9 && cand > lo {
                            (lo, rows[0]) = (cand, Some((c, sign)));
                        } else if coef.abs() <= 1e-9 && rhs < -1e-9 && conflict.is_none() {
                            conflict = Some((c, sign));
                        }
                        continue;
                    }
                    RowClass::General => continue,
                };
                arcs.push((from, to, bound.base, bound.slope, Some((c, sign))));
            }
        }
        for (v, im) in images.iter().enumerate() {
            let (l, u) = bounds(v);
            let (a, b) = match *im {
                VarImage::Node(i) => (i, origin),
                VarImage::Diff(i, j) => (i, j),
                VarImage::Param => continue,
            };
            if l.is_finite() {
                arcs.push((a, b, -l, 0.0, None));
            }
            if u.is_finite() {
                arcs.push((b, a, u, 0.0, None));
            }
        }
        arcs.sort_by_key(|a| a.0);
        let arcs = arcs
            .into_iter()
            .map(|(f, t, base, slope, tag)| (f, t, base.to_bits(), slope.to_bits(), tag))
            .collect();
        (
            arcs,
            (lo.to_bits(), hi.to_bits()),
            rows,
            conflict,
            cls.is_pure(),
        )
    }

    /// Options combination `combo` (`0..1536`): eight on/off extras and
    /// three departure pinnings; the ninth bit adds a row outside the
    /// difference fragment (the sum of two widths).
    fn combination(circuit: &Circuit, combo: u32) -> TimingModel {
        use crate::model::{DeparturePinning, NonoverlapScope};
        let bit = |b: u32| combo >> b & 1 == 1;
        let constraints = ConstraintOptions {
            min_phase_width: if bit(0) { 2.5 } else { 0.0 },
            min_separation: if bit(1) { 1.5 } else { 0.0 },
            nonoverlap_scope: if bit(2) {
                NonoverlapScope::LatchDestinations
            } else {
                NonoverlapScope::AllPairs
            },
            fixed_cycle: bit(3).then_some(60.0),
            max_cycle: bit(4).then_some(80.0),
            symmetric_clock: bit(5),
            setup_margin: if bit(6) { 0.5 } else { 0.0 },
            pinning: match combo >> 9 {
                0 => DeparturePinning::None,
                1 => DeparturePinning::All,
                _ => DeparturePinning::AllExcept(vec![LatchId::new(0)]),
            },
        };
        let mut model = TimingModel::build_with(circuit, &constraints).unwrap();
        if bit(7) {
            let vars = model.vars();
            let (w0, tc) = (vars.width(PhaseId::new(0)), vars.tc());
            let w1 = vars.width(PhaseId::new(vars.num_phases() - 1));
            let expr = smo_lp::LinExpr::from(w0) + w1 - tc - tc - tc;
            model.problem_mut().constrain(expr, smo_lp::Sense::Le, 0.0);
        }
        if bit(8) {
            // Two constant rows infeasible alone, and parameter rows whose
            // bounds tie `max_cycle`'s upper bound and each other's lower
            // one: the first row to reach a value keeps it.
            use smo_lp::{LinExpr, Sense};
            let tc = model.vars().tc();
            let p = model.problem_mut();
            p.constrain(LinExpr::from(tc) - tc, Sense::Ge, 1.0);
            p.constrain(LinExpr::from(tc) - tc, Sense::Le, -2.0);
            p.constrain(LinExpr::from(tc) * 2.0, Sense::Eq, 160.0);
            p.constrain(tc.into(), Sense::Ge, 80.0);
        }
        model
    }

    /// The streaming build against the stored one on `model`, and
    /// [`difference_system`]'s verdict.
    fn check_streaming(circuit: &Circuit, model: &TimingModel) -> Result<(), TestCaseError> {
        let images = variable_images(circuit, model);
        let sys = DifferenceSystem::from_problem(model.problem(), &images).unwrap();
        let listing = streamed(&sys);
        prop_assert_eq!(&listing, &stored(model, &images));
        let cls = classify(model.problem(), &images).unwrap();
        let built = DifferenceSystem::build(model.problem(), &images, &cls).unwrap();
        prop_assert_eq!(&streamed(&built), &listing);
        let routed = difference_system(circuit, model).unwrap();
        prop_assert_eq!(routed.is_some(), sys.is_pure());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random circuits, with and without flip-flops, under every
        /// options combination drawn at random: the streaming build lists
        /// the arcs the stored classification gave, in the same CSR order
        /// with bit-identical weights and the same row tags, and finds the
        /// same parameter interval and its rows, the same constant
        /// conflict and the same pure-or-mixed verdict.
        #[test]
        fn prop_streaming_build_matches_the_stored_classification(
            seed in 0u64..10_000,
            phases in 1usize..4,
            latches in 2usize..10,
            ff in proptest::bool::ANY,
            combo in 0u32..1536,
        ) {
            let cfg = GenConfig {
                phases,
                latches,
                edges: 2 * latches,
                flip_flop_prob: if ff { 0.4 } else { 0.0 },
                ..Default::default()
            };
            let circuit = random_circuit(&cfg, seed);
            check_streaming(&circuit, &combination(&circuit, combo))?;
        }
    }

    #[test]
    fn streaming_build_matches_the_stored_classification_under_every_combination() {
        let cfg = GenConfig {
            phases: 3,
            latches: 6,
            edges: 12,
            flip_flop_prob: 0.3,
            ..Default::default()
        };
        let circuit = random_circuit(&cfg, 7);
        for combo in 0..1536 {
            let model = combination(&circuit, combo);
            if let Err(e) = check_streaming(&circuit, &model) {
                panic!("combination {combo}: {e:?}");
            }
        }
    }

    #[test]
    fn the_graph_reads_a_row_changed_after_the_model_was_built() {
        // Example 1 with Δ41 raised from 80 to 120 in place: the edge's
        // arc gets the new right-hand side, and T_c* moves from 110 to 140.
        let c = example1(80.0);
        let mut model = TimingModel::build(&c).unwrap();
        let edge = smo_circuit::EdgeId::new(3);
        let row = model.edge_constraint(edge).unwrap();
        let base_of = |model: &TimingModel| {
            let sys = difference_system(&c, model).unwrap().unwrap();
            let arcs: Vec<f64> = (0..sys.num_arcs())
                .map(|k| sys.arc(k))
                .filter(|a| a.tag.is_some_and(|(r, _)| r == row))
                .map(|a| a.base)
                .collect();
            let [base] = arcs[..] else {
                panic!("one arc for an inequality row: {arcs:?}");
            };
            base
        };
        let before = base_of(&model);
        model.set_edge_delay(edge, 80.0, 120.0);
        assert_eq!(base_of(&model), before - 40.0);
        let Ok(Graph::Optimal(optimum)) = graph(&c, &model, &SolveBudget::UNLIMITED, true) else {
            panic!("example 1 stays feasible");
        };
        assert!((optimum.tc - 140.0).abs() < 1e-9, "{}", optimum.tc);
        assert!(optimum.certificate.is_some_and(|c| c.is_valid()));
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
