//! Schedule verification — the paper's *analysis* problem (§I): given a
//! circuit **and** a concrete clock schedule, decide whether all timing
//! constraints are satisfied, and report per-latch slack.
//!
//! With the clocks fixed, the propagation constraints L2 have a least
//! fixpoint computable by value iteration
//! ([`PropagationSystem::least_fixpoint`](crate::PropagationSystem::least_fixpoint));
//! the schedule is feasible iff
//!
//! 1. the fixpoint exists (no feedback loop has positive gain at this cycle
//!    time — otherwise departures grow without bound and the report names
//!    the offending loop),
//! 2. the clock constraints C1–C3 hold for the circuit's `K` matrix, and
//! 3. every setup constraint holds at the fixpoint.
//!
//! Verification checks the long-path side only. The short-path (hold,
//! double-clocking) hazard of §II has one static check,
//! [`race_analysis_at`](crate::race_analysis_at), which `smo check` runs.

use crate::model::NonoverlapScope;
use crate::propagation::PropagationSystem;
use smo_circuit::{Circuit, ClockSchedule, LatchId, SyncKind};

/// Tolerance used when classifying violations.
const TOL: f64 = 1e-9;

/// Options for [`verify`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisOptions {
    /// Which edges require phase nonoverlap (must match the scope used when
    /// the schedule was designed).
    pub nonoverlap_scope: NonoverlapScope,
    /// Extra margin demanded of every setup check (clock skew allowance).
    pub setup_margin: f64,
}

/// One diagnosed constraint violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A clock constraint (C1–C3) fails for the given schedule.
    Clock {
        /// Explanation.
        reason: String,
    },
    /// Departures grow without bound around this loop — the cycle time is
    /// below the loop's average delay requirement.
    PositiveLoop {
        /// Synchronizers on the loop.
        latches: Vec<LatchId>,
    },
    /// A latch (or flip-flop) misses setup.
    Setup {
        /// The violating synchronizer.
        latch: LatchId,
        /// Negative slack (how late the data is).
        shortfall: f64,
    },
}

impl Violation {
    /// The violation in words, naming synchronizers as `circuit` declares
    /// them: the line `smo verify` prints and the daemon's `violations`
    /// field carries.
    pub fn describe(&self, circuit: &Circuit) -> String {
        match self {
            Violation::Clock { reason } => format!("clock constraint violated: {reason}"),
            Violation::PositiveLoop { latches } => {
                let mut text = "cycle time too small for loop:".to_string();
                for &l in latches {
                    text.push(' ');
                    text.push_str(&circuit.sync(l).name);
                }
                text
            }
            Violation::Setup { latch, shortfall } => format!(
                "setup violated at {} by {shortfall:.4}",
                circuit.sync(*latch).name
            ),
        }
    }
}

/// The verification report: feasibility, violations, and the steady-state
/// timing at the analysed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    violations: Vec<Violation>,
    departures: Vec<f64>,
    arrivals: Vec<f64>,
    setup_slacks: Vec<f64>,
    iterations: usize,
}

impl AnalysisReport {
    /// `true` iff the schedule satisfies every checked constraint.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// The diagnosed violations (empty iff feasible).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Steady-state departure times (meaningless if a
    /// [`Violation::PositiveLoop`] was diagnosed).
    pub fn departures(&self) -> &[f64] {
        &self.departures
    }

    /// Steady-state arrival times (`−∞` for elements without fan-in).
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Setup slack per synchronizer: `T_{p_i} − Δ_DC − D_i` for latches,
    /// `−(A_i + Δ_DC)` for flip-flops. Negative means violated; `+∞` for a
    /// flip-flop with no fan-in.
    pub fn setup_slacks(&self) -> &[f64] {
        &self.setup_slacks
    }

    /// Setup slack of one synchronizer.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn setup_slack(&self, id: LatchId) -> f64 {
        self.setup_slacks[id.index()]
    }

    /// Value-iteration sweeps used to reach the fixpoint.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The minimum setup slack across all synchronizers (the schedule's
    /// timing margin), or `+∞` for an empty circuit.
    pub fn worst_slack(&self) -> f64 {
        self.setup_slacks
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Verifies `schedule` against `circuit`'s timing constraints with default
/// options.
pub fn verify(circuit: &Circuit, schedule: &ClockSchedule) -> AnalysisReport {
    verify_with(circuit, schedule, &AnalysisOptions::default())
}

/// [`verify`] with explicit [`AnalysisOptions`].
///
/// # Panics
///
/// Panics if the schedule's phase count differs from the circuit's.
pub fn verify_with(
    circuit: &Circuit,
    schedule: &ClockSchedule,
    options: &AnalysisOptions,
) -> AnalysisReport {
    let mut violations = Vec::new();
    let l = circuit.num_syncs();

    // --- clock constraints C1-C3 -----------------------------------------
    if let Err(e) = schedule.validate() {
        violations.push(Violation::Clock {
            reason: e.to_string(),
        });
    }
    for e in circuit.edges() {
        if options.nonoverlap_scope == NonoverlapScope::LatchDestinations
            && circuit.sync(e.to).kind != SyncKind::Latch
        {
            continue;
        }
        let pi = circuit.sync(e.from).phase;
        let pj = circuit.sync(e.to).phase;
        // s_i ≥ s_j + T_j − C_ji·Tc  (eq. 6)
        let c = if smo_circuit::ClockSpec::c_flag(pj, pi) {
            schedule.cycle()
        } else {
            0.0
        };
        let lhs = schedule.start(pi);
        let rhs = schedule.start(pj) + schedule.width(pj) - c;
        if lhs + TOL < rhs {
            let reason = format!(
                "nonoverlap: {pi} must start after {pj} ends (s{} = {} < {})",
                pi.number(),
                lhs,
                rhs
            );
            if !violations
                .iter()
                .any(|v| matches!(v, Violation::Clock { reason: r } if r == &reason))
            {
                violations.push(Violation::Clock { reason });
            }
        }
    }

    // --- departure fixpoint ----------------------------------------------
    let system = PropagationSystem::new(circuit, schedule);
    let (departures, iterations) = match system.least_fixpoint() {
        Ok(fp) => (fp.departures, fp.iterations),
        Err(loop_ids) => {
            violations.push(Violation::PositiveLoop { latches: loop_ids });
            return AnalysisReport {
                violations,
                departures: vec![f64::INFINITY; l],
                arrivals: vec![f64::INFINITY; l],
                setup_slacks: vec![f64::NEG_INFINITY; l],
                iterations: 0,
            };
        }
    };
    let arrivals = system.arrivals(&departures);

    // --- setup checks -----------------------------------------------------
    let mut setup_slacks = Vec::with_capacity(l);
    for (id, s) in circuit.syncs() {
        let slack = match s.kind {
            SyncKind::Latch => {
                schedule.width(s.phase) - s.setup - options.setup_margin - departures[id.index()]
            }
            SyncKind::FlipFlop => {
                let a = arrivals[id.index()];
                if a == f64::NEG_INFINITY {
                    f64::INFINITY
                } else {
                    -(a + s.setup + options.setup_margin)
                }
            }
        };
        if slack < -TOL {
            violations.push(Violation::Setup {
                latch: id,
                shortfall: -slack,
            });
        }
        setup_slacks.push(slack);
    }

    AnalysisReport {
        violations,
        departures,
        arrivals,
        setup_slacks,
        iterations,
    }
}

/// Finds the minimum feasible cycle time for the *shape* of a given
/// schedule by bisection: the schedule is scaled uniformly until it barely
/// passes [`verify`].
///
/// This is a helper for heuristic baselines; the exact optimum over all
/// schedules is [`min_cycle_time`](crate::min_cycle_time).
///
/// Returns `None` if even `hi` times the shape fails verification.
pub fn min_cycle_for_shape(
    circuit: &Circuit,
    shape: &ClockSchedule,
    hi_factor: f64,
    tol: f64,
) -> Option<ClockSchedule> {
    let feasible = |factor: f64| {
        let sched = shape.scaled(factor);
        verify(circuit, &sched).is_feasible()
    };
    if !feasible(hi_factor) {
        return None;
    }
    let mut lo = 0.0_f64;
    let mut hi = hi_factor;
    while hi - lo > tol.max(1e-12) {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(shape.scaled(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    use smo_gen::paper::example1;

    #[test]
    fn balanced_symmetric_schedule_is_feasible() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(2, 100.0, 0.0).unwrap();
        let report = verify(&c, &sched);
        assert!(
            report.is_feasible(),
            "violations: {:?}",
            report.violations()
        );
        // L1 departs at 40 with T1 = 50 and setup 10 → slack 0 (critical)
        assert!(report.worst_slack().abs() < 1e-9);
    }

    #[test]
    fn undersized_cycle_reports_positive_loop() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(2, 80.0, 0.0).unwrap();
        let report = verify(&c, &sched);
        assert!(!report.is_feasible());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::PositiveLoop { .. })));
    }

    #[test]
    fn slightly_small_cycle_reports_setup_violation() {
        // Tc = 95 > loop requirement (avg 100?) — no: avg loop = 100 means
        // Tc below 100 diverges. Use Tc = 100 with a gap that shrinks the
        // widths instead: phases [0,50) and [50,100) minus gap 15 → width 35
        // < D1 + setup = 50 → setup violation without divergence.
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(2, 100.0, 15.0).unwrap();
        let report = verify(&c, &sched);
        assert!(!report.is_feasible());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::Setup { .. })));
    }

    #[test]
    fn overlapping_phases_flagged_by_k_matrix() {
        let c = example1(60.0);
        // phases overlap: φ1 = [0, 60), φ2 = [50, 100)
        let sched = ClockSchedule::new(100.0, vec![0.0, 50.0], vec![60.0, 50.0]).unwrap();
        let report = verify(&c, &sched);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::Clock { .. })));
    }

    #[test]
    fn verify_accepts_mlp_optimum() {
        for d41 in [0.0, 40.0, 80.0, 120.0] {
            let c = example1(d41);
            let sol = crate::min_cycle_time(&c).unwrap();
            let report = verify(&c, sol.schedule());
            assert!(
                report.is_feasible(),
                "Δ41 = {d41}: {:?}",
                report.violations()
            );
            // and shrinking the cycle by 1% must break it
            let shrunk = sol.schedule().scaled(0.99);
            assert!(!verify(&c, &shrunk).is_feasible(), "Δ41 = {d41}");
        }
    }

    #[test]
    fn ff_setup_slack_uses_arrival() {
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 1.0, 2.0);
        let f2 = b.add_flip_flop("F2", p(1), 1.0, 2.0);
        b.connect(f1, f2, 10.0);
        let c = b.build().unwrap();
        // Tc = 13 exactly meets setup; Tc = 12 misses by 1.
        let ok = ClockSchedule::new(13.0, vec![0.0], vec![6.0]).unwrap();
        assert!(verify(&c, &ok).is_feasible());
        let bad = ClockSchedule::new(12.0, vec![0.0], vec![6.0]).unwrap();
        let report = verify(&c, &bad);
        assert!(!report.is_feasible());
        match &report.violations()[0] {
            Violation::Setup { latch, shortfall } => {
                assert_eq!(latch.index(), 1);
                assert!((shortfall - 1.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
        // described by the circuit's own name, not the id
        assert_eq!(
            report.violations()[0].describe(&c),
            "setup violated at F2 by 1.0000"
        );
        // F1 has no fan-in → infinite slack
        assert_eq!(report.setup_slack(LatchId::new(0)), f64::INFINITY);
    }

    #[test]
    fn min_cycle_for_shape_brackets_the_optimum() {
        let c = example1(60.0);
        let shape = ClockSchedule::symmetric(2, 1.0, 0.0).unwrap();
        let sched = min_cycle_for_shape(&c, &shape, 1000.0, 1e-7).unwrap();
        // symmetric optimum at the balanced point equals the true optimum 100
        assert!(
            (sched.cycle() - 100.0).abs() < 1e-3,
            "Tc = {}",
            sched.cycle()
        );
        // and an impossible budget returns None
        assert!(min_cycle_for_shape(&c, &shape, 10.0, 1e-7).is_none());
    }
}
