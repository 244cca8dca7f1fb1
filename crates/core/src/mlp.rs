//! Algorithm MLP: optimal cycle-time calculation by modified linear
//! programming (§IV).
//!
//! 1. Solve the relaxed LP **P2** (constraints C1–C4, L1, L2R, L3),
//!    obtaining the optimal clock schedule and an initial departure vector
//!    `D⁰`.
//! 2. Holding the clock variables fixed, slide each `D_i` toward the time
//!    origin until the nonlinear propagation equations L2 hold. The paper
//!    iterates L2 downward from `D⁰`; that descent crawls along loops of
//!    small negative gain, so its limit is computed directly instead (see
//!    [`PropagationSystem::slide_limit`]).
//!
//! By Theorem 1 the resulting point is optimal for the original nonlinear
//! problem **P1**: the cycle time is untouched by step 2, and the slid
//! departures still satisfy every setup constraint (they only decreased).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::TimingError;
use crate::fastpath::{self, Backend};
use crate::model::{ConstraintOptions, TimingModel};
use crate::propagation::PropagationSystem;
use crate::solution::TimingSolution;
use smo_circuit::{Circuit, ClockSchedule};

/// Options for [`min_cycle_time_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpOptions {
    /// Constraint-generation options (extras like minimum phase width).
    pub constraints: ConstraintOptions,
    /// The optimal solution of P2 is generally not unique (§V, first
    /// observation on Example 1). When `true` (the default), a second LP
    /// pass fixes `T_c` at its optimum and minimizes `Σ(s_i + T_i)`,
    /// selecting a canonical "compact" schedule deterministically: phases
    /// start as early and are as narrow as the constraints allow.
    /// Only the LP path canonicalizes; the graph path of
    /// [`Backend::Auto`] returns its shortest-path schedule.
    pub canonicalize: bool,
    /// When `true` (the default), every verdict is independently
    /// machine-checked. On the LP path each LP runs through
    /// [`smo_lp::Problem::solve_certified`]: an `Optimal` answer carries a
    /// KKT [`Certificate`](smo_lp::Certificate) (see
    /// [`TimingSolution::certificates`](crate::TimingSolution)), a failed
    /// check walks the numerical recovery ladder, and exhaustion surfaces
    /// as a structured error instead of a silently-wrong cycle time. On the
    /// graph path the same KKT check ([`smo_lp::certify_kkt`]) runs on the
    /// graph's point with the critical cycle's duals. With `false` neither
    /// check runs and the solution reports itself uncertified.
    pub certify: bool,
    /// Wall-clock budget for the whole solve (`None` = unlimited). The
    /// deadline is absolute: it is fixed once at entry and shared by the
    /// graph fast path (checked per Bellman–Ford pass), the certified
    /// recovery ladder and the plain simplex loops, so even a pathological
    /// model returns [`smo_lp::LpError::Budget`] promptly on *every*
    /// backend and certification mode.
    pub time_limit: Option<std::time::Duration>,
    /// Which solver backs the cycle-time computation (see [`Backend`]);
    /// [`Backend::default`] ([`Backend::Auto`]) unless set.
    pub backend: Backend,
}

impl Default for MlpOptions {
    fn default() -> Self {
        MlpOptions {
            constraints: ConstraintOptions::default(),
            canonicalize: true,
            certify: true,
            time_limit: None,
            backend: Backend::default(),
        }
    }
}

impl MlpOptions {
    /// The budget shared by every solver stage of one solve: built once at
    /// entry so the deadline is absolute across the graph fast path, the
    /// cycle-time LP and the canonicalizing re-solve.
    fn budget(&self) -> smo_lp::SolveBudget {
        match self.time_limit {
            Some(limit) => smo_lp::SolveBudget::with_time_limit(limit),
            None => smo_lp::SolveBudget::UNLIMITED,
        }
    }

    /// The [`smo_lp::RecoveryPolicy`] these options induce under `budget`,
    /// or `None` when certification is off.
    fn policy(&self, budget: smo_lp::SolveBudget) -> Option<smo_lp::RecoveryPolicy> {
        self.certify.then_some(smo_lp::RecoveryPolicy { budget })
    }
}

/// Computes the minimum cycle time and an optimal clock schedule for
/// `circuit` (problem **P1**), using Algorithm MLP with default options.
///
/// # Errors
///
/// Returns [`TimingError::Infeasible`] only when extra options
/// over-constrain the model (the plain SMO constraints always admit a
/// schedule), and [`TimingError::Lp`]/[`TimingError::NotConverged`] on
/// solver failures.
///
/// # Examples
///
/// ```
/// use smo_circuit::{CircuitBuilder, PhaseId};
/// use smo_core::min_cycle_time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new(2);
/// let a = b.add_latch("A", PhaseId::from_number(1), 10.0, 10.0);
/// let c = b.add_latch("B", PhaseId::from_number(2), 10.0, 10.0);
/// b.connect(a, c, 20.0);
/// b.connect(c, a, 60.0);
/// let circuit = b.build()?;
/// let solution = min_cycle_time(&circuit)?;
/// // The A→B→A loop crosses the cycle boundary once (φ1→φ2 stays within
/// // a cycle, φ2→φ1 crosses), so the whole loop delay must fit in one
/// // period: Tc = 20 + 60 + two latch delays = 100.
/// assert!((solution.cycle_time() - 100.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn min_cycle_time(circuit: &Circuit) -> Result<TimingSolution, TimingError> {
    min_cycle_time_with(circuit, &MlpOptions::default())
}

/// [`min_cycle_time`] with explicit [`MlpOptions`].
///
/// # Errors
///
/// See [`min_cycle_time`].
pub fn min_cycle_time_with(
    circuit: &Circuit,
    options: &MlpOptions,
) -> Result<TimingSolution, TimingError> {
    let model = TimingModel::build_with(circuit, &options.constraints)?;
    solve_built(circuit, &model, options)
}

/// [`min_cycle_time_with`] on an already built model (which may carry
/// extra rows): one budget for every stage.
pub(crate) fn solve_built(
    circuit: &Circuit,
    model: &TimingModel,
    options: &MlpOptions,
) -> Result<TimingSolution, TimingError> {
    let budget = options.budget();
    let policy = options.policy(budget);
    // Difference-constraint fast path: exact graph solve on pure models;
    // mixed ones fall through to the cold simplex (see
    // [`crate::fastpath`]).
    if options.backend != Backend::Lp {
        let outcome = fastpath::attempt(circuit, model, &budget, options.certify);
        if let Some(answer) = fastpath::route(outcome, options.backend, options.certify) {
            return answer;
        }
    }
    let lp = LpStage {
        policy: policy.as_ref(),
        budget,
    };
    if options.canonicalize {
        canonical_inner(circuit, model, &lp)
    } else {
        model_inner(circuit, model, &lp)
    }
}

/// How the LP stages of one solve run: the certified policy (`None` =
/// plain solves), and the budget of the plain solves.
struct LpStage<'a> {
    policy: Option<&'a smo_lp::RecoveryPolicy>,
    budget: smo_lp::SolveBudget,
}

impl LpStage<'_> {
    /// Plain, unbudgeted, uncertified solves.
    fn plain() -> LpStage<'static> {
        LpStage {
            policy: None,
            budget: smo_lp::SolveBudget::UNLIMITED,
        }
    }

    /// Solves `model`'s LP cold, with the certificate when the stage
    /// certifies.
    fn solve(
        &self,
        model: &TimingModel,
    ) -> Result<(smo_lp::OptimalSolution, Vec<smo_lp::Certificate>), TimingError> {
        match self.policy {
            Some(pol) => {
                let (sol, cert) = model.solve_lp_certified(pol)?;
                Ok((sol, vec![cert]))
            }
            None => Ok((model.solve_lp_budgeted(self.budget)?, Vec::new())),
        }
    }
}

/// Like [`solve_model`], but after finding the optimal `T_c` it re-solves
/// with `T_c` bounded at that optimum and the objective
/// `minimize Σ(s_i + T_i)`, returning a canonical compact schedule among
/// the (generally non-unique) optima.
///
/// # Errors
///
/// See [`min_cycle_time`].
pub fn solve_model_canonical(
    circuit: &Circuit,
    model: &TimingModel,
) -> Result<TimingSolution, TimingError> {
    canonical_inner(circuit, model, &LpStage::plain())
}

/// Canonicalizing pipeline shared by the certified and plain paths.
fn canonical_inner(
    circuit: &Circuit,
    model: &TimingModel,
    lp: &LpStage<'_>,
) -> Result<TimingSolution, TimingError> {
    let (first, mut certificates) = lp.solve(model)?;
    let tc_opt = first.objective();

    let mut refined = model.clone();
    {
        let vars = refined.vars().clone();
        let p = refined.problem_mut();
        p.constrain(smo_lp::LinExpr::from(vars.tc()), smo_lp::Sense::Eq, tc_opt);
        let mut secondary = smo_lp::LinExpr::new();
        for i in 0..vars.num_phases() {
            let ph = smo_circuit::PhaseId::new(i);
            secondary = secondary + vars.start(ph) + vars.width(ph);
        }
        p.minimize(secondary);
    }
    match model_inner(circuit, &refined, lp) {
        Ok(mut solution) => {
            solution.num_constraints = model.num_constraints();
            solution.lp_iterations += first.iterations();
            // Both certificates travel with the solution: the cycle-time
            // solve first, the canonicalizing re-solve second.
            certificates.append(&mut solution.certificates);
            solution.certificates = certificates;
            Ok(solution)
        }
        // Fixing Tc at the float optimum can, in principle, be defeated by
        // round-off; fall back to the (correct, just non-canonical) first
        // solution rather than fail. On the certified path a marginally
        // infeasible pin surfaces as `CertificationFailed` instead (the
        // Farkas check rightly refuses to confirm a round-off
        // infeasibility), so that exhaustion gets the same fallback.
        Err(TimingError::Infeasible { .. })
        | Err(TimingError::Lp(smo_lp::LpError::CertificationFailed { .. })) => {
            model_inner(circuit, model, lp)
        }
        Err(e) => Err(e),
    }
}

/// Runs steps 1 (LP) and 2 (departure slide) of Algorithm MLP on an already
/// built model. Exposed so callers that tweak the model (extra rows, RHS
/// sweeps) can reuse the pipeline.
///
/// # Errors
///
/// See [`min_cycle_time`].
pub fn solve_model(circuit: &Circuit, model: &TimingModel) -> Result<TimingSolution, TimingError> {
    model_inner(circuit, model, &LpStage::plain())
}

/// Step 2 of Algorithm MLP: slide the departures from `d0` to the
/// nonlinear fixpoint under a fixed schedule. Returns
/// `(departures, arrivals, iterations)`, where `iterations` counts the
/// upward sweeps of [`PropagationSystem::slide_limit`] (at most `L + 1`).
/// Shared with the graph fast path, whose schedule also satisfies L2R at
/// its start point. Only a start point violating L2R or a positive-gain
/// loop (no fixpoint at all) is reported as `NotConverged`.
pub(crate) fn slide_departures(
    circuit: &Circuit,
    schedule: &ClockSchedule,
    d0: &[f64],
) -> Result<(Vec<f64>, Vec<f64>, usize), TimingError> {
    let system = PropagationSystem::new(circuit, schedule);
    let limit = system
        .slide_limit(d0)
        .map_err(|positive_loop| TimingError::NotConverged {
            positive_loop: positive_loop
                .into_iter()
                .map(|id| circuit.sync(id).name.clone())
                .collect(),
        })?;
    let arrivals = system.arrivals(&limit.departures);
    Ok((limit.departures, arrivals, limit.iterations))
}

/// Steps 1–2 of Algorithm MLP, optionally on the certified LP path.
fn model_inner(
    circuit: &Circuit,
    model: &TimingModel,
    lp: &LpStage<'_>,
) -> Result<TimingSolution, TimingError> {
    // Step 1: LP.
    let (sol, certificates) = lp.solve(model)?;
    let schedule = model.extract_schedule(&sol)?;
    let d0 = model.extract_departures(&sol);

    // Step 2: slide the departures to the nonlinear fixpoint.
    let (departures, arrivals, update_iterations) = slide_departures(circuit, &schedule, &d0)?;
    Ok(TimingSolution {
        schedule,
        departures,
        arrivals,
        update_iterations,
        lp_iterations: sol.iterations(),
        num_constraints: model.num_constraints(),
        certificates,
        backend: Backend::Lp,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, LatchId, PhaseId, SyncKind, Synchronizer};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    use smo_gen::paper::example1;

    /// The paper's closed form for Example 1 (§V): the optimal cycle time is
    /// the max of the average loop delay and the difference of the two
    /// single-cycle delays.
    fn example1_expected(d41: f64) -> f64 {
        let avg = (140.0 + d41) / 2.0;
        let diff = (80.0 + d41) - 60.0;
        let floor = 80.0; // set by L3→L4 single-stage requirement (Fig. 7 flat part)
        avg.max(diff).max(floor)
    }

    #[test]
    fn matches_paper_figure7_closed_form() {
        for d41 in [
            0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 99.0, 100.0, 101.0, 120.0, 140.0,
        ] {
            let sol = min_cycle_time(&example1(d41)).unwrap();
            let expect = example1_expected(d41);
            assert!(
                (sol.cycle_time() - expect).abs() < 1e-6,
                "Δ41 = {d41}: got {}, expected {expect}",
                sol.cycle_time()
            );
        }
    }

    #[test]
    fn departures_satisfy_nonlinear_fixpoint() {
        for d41 in [80.0, 100.0, 120.0] {
            let c = example1(d41);
            let sol = min_cycle_time(&c).unwrap();
            let sys = PropagationSystem::new(&c, sol.schedule());
            for i in 0..c.num_syncs() {
                let expect = sys.update(sol.departures(), i);
                assert!(
                    (sol.departures()[i] - expect).abs() < 1e-7,
                    "Δ41 = {d41}, latch {i}: D = {} but F(D) = {expect}",
                    sol.departures()[i]
                );
            }
        }
    }

    #[test]
    fn setup_constraints_hold_at_optimum() {
        for d41 in [0.0, 60.0, 80.0, 120.0] {
            let c = example1(d41);
            let sol = min_cycle_time(&c).unwrap();
            for (id, s) in c.syncs() {
                let t = sol.schedule().width(s.phase);
                assert!(
                    sol.departure(id) + s.setup <= t + 1e-7,
                    "Δ41 = {d41}: latch {id} violates setup"
                );
            }
        }
    }

    #[test]
    fn update_terminates_in_few_sweeps() {
        // The paper: "the update process usually terminated in two to three
        // iterations (in some cases no iterations were even necessary)".
        // One sweep is always needed to *detect* the fixpoint, so allow a
        // small handful — for the shipped slide and for the paper's Jacobi
        // iteration from the same `D⁰`, which must land on the same point.
        for d41 in [60.0, 80.0, 100.0, 120.0] {
            let c = example1(d41);
            let sol = min_cycle_time(&c).unwrap();
            assert!(
                sol.update_iterations() <= 6,
                "Δ41 = {d41}: {} sweeps",
                sol.update_iterations()
            );
            let model = TimingModel::build(&c).unwrap();
            let lp = model.solve_lp().unwrap();
            let schedule = model.extract_schedule(&lp).unwrap();
            let d0 = model.extract_departures(&lp);
            let jacobi = PropagationSystem::new(&c, &schedule).jacobi(&d0, 6);
            assert!(jacobi.converged, "Δ41 = {d41}: {jacobi:?}");
            let (slid, _, _) = slide_departures(&c, &schedule, &d0).unwrap();
            for (a, b) in jacobi.departures.iter().zip(&slid) {
                assert!((a - b).abs() < 1e-9, "Δ41 = {d41}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn slow_slide_settles_within_the_latch_bound() {
        // `smo gen --latches 216 --seed 424457`: a loop of tiny negative
        // gain needs tens of thousands of Jacobi sweeps to slide down, next
        // to zero-gain loops whose departures never move. The shipped slide
        // reaches the same limit in at most L + 1 sweeps on both paths.
        use smo_gen::datapath::{pipelined_datapath, DatapathConfig};
        let c = pipelined_datapath(&DatapathConfig::with_latches(216), 424_457);
        let bound = c.num_syncs() + 1;
        let sol = min_cycle_time(&c).unwrap();
        assert!(
            sol.update_iterations() <= bound,
            "{}",
            sol.update_iterations()
        );
        // `solve_model` slides from the plain LP's D⁰, which the test can
        // rebuild and hand to the paper's uncapped Jacobi iteration.
        let model = TimingModel::build(&c).unwrap();
        let sol = solve_model(&c, &model).unwrap();
        assert!(
            sol.update_iterations() <= bound,
            "{}",
            sol.update_iterations()
        );
        let lp = model.solve_lp().unwrap();
        let d0 = model.extract_departures(&lp);
        let slow = PropagationSystem::new(&c, sol.schedule()).jacobi(&d0, usize::MAX);
        assert!(slow.iterations > 10_000, "{}", slow.iterations);
        for (i, (a, b)) in slow.departures.iter().zip(sol.departures()).enumerate() {
            assert!((a - b).abs() < 1e-6, "latch {i}: jacobi {a} vs slide {b}");
        }
    }

    #[test]
    fn flip_flop_loop_solves_like_classic_sta() {
        // Two FFs on the same phase in a loop: Tc = max stage (dq + Δ + setup).
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 1.0, 2.0);
        let f2 = b.add_flip_flop("F2", p(1), 1.0, 2.0);
        b.connect(f1, f2, 10.0);
        b.connect(f2, f1, 4.0);
        let c = b.build().unwrap();
        let sol = min_cycle_time(&c).unwrap();
        assert!(
            (sol.cycle_time() - 13.0).abs() < 1e-6,
            "Tc = {}",
            sol.cycle_time()
        );
        assert_eq!(sol.departures(), &[0.0, 0.0]);
    }

    #[test]
    fn mixed_ff_latch_loop() {
        // FF → latch → FF loop over two phases.
        let mut b = CircuitBuilder::new(2);
        let f = b.add_flip_flop("F", p(1), 1.0, 2.0);
        let l = b.add_latch("L", p(2), 1.0, 2.0);
        b.connect(f, l, 10.0);
        b.connect(l, f, 10.0);
        let c = b.build().unwrap();
        let sol = min_cycle_time(&c).unwrap();
        // loop: dq_F + 10 (+ wait) + dq_L + 10 + setup_F ≤ Tc, achievable
        // with zero wait → Tc = 2+10+2+10+1 = 25
        assert!(
            (sol.cycle_time() - 25.0).abs() < 1e-6,
            "Tc = {}",
            sol.cycle_time()
        );
    }

    #[test]
    fn latch_without_fanin_needs_only_setup_width() {
        let mut b = CircuitBuilder::new(1);
        b.add_latch("solo", p(1), 7.0, 8.0);
        let c = b.build().unwrap();
        let sol = min_cycle_time(&c).unwrap();
        // T1 ≥ setup = 7 and T1 ≤ Tc → Tc = 7
        assert!((sol.cycle_time() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn hold_annotations_do_not_affect_long_path_optimum() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_sync(Synchronizer::latch("A", p(1), 10.0, 10.0).with_hold(2.0));
        let c2 = b.add_latch("B", p(2), 10.0, 10.0);
        b.connect_min_max(a, c2, 5.0, 20.0);
        b.connect_min_max(c2, a, 5.0, 60.0);
        let c = b.build().unwrap();
        let sol = min_cycle_time(&c).unwrap();
        assert!((sol.cycle_time() - 100.0).abs() < 1e-6);
        assert_eq!(c.sync(LatchId::new(0)).kind, SyncKind::Latch);
    }
}
