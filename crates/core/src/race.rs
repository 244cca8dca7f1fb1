//! Short-path (double-clocking) race detection — the paper's other half
//! of correct latch-controlled operation.
//!
//! The long-path constraints C1–C3 / L1 / L2R guarantee that data arrives
//! *early enough* to be captured. §II of the paper notes the dual hazard:
//! data racing through a short combinational path can arrive *too early*,
//! overwriting the value the destination is still holding from the
//! previous cycle (a "double-clocking" or hold failure). With the clock
//! schedule solved, the check is a static one over the early-mode timing:
//!
//! ```text
//! E_j + Δ_DQj + δ_ji + S_{p_j p_i}  ≥  deadline_i
//!
//! deadline_i = T_{p_i} − T_c + hold_i   (latch: previous closing edge)
//!            = hold_i − T_c             (flip-flop: previous active edge)
//! ```
//!
//! where `E_j` is the steady-state earliest output-change time of the
//! source (the early-mode fixpoint of
//! [`PropagationSystem::with_short_delays`]) and `δ_ji` is the *effective*
//! short-path delay [`Edge::short_delay`](smo_circuit::Edge::short_delay):
//! the measured contamination delay when one was declared (`min=` /
//! `mindelay` in the netlist), otherwise the max delay — an edge whose
//! delay spread is unknown is assumed raceless rather than instantaneous,
//! so circuits without short-path data analyse exactly as before.
//! This is the crate's one static hold check; the behavioural simulator's
//! dynamic hold check reads the same effective short delays.
//!
//! The left-hand side minus the deadline is the edge's **hold slack**; a
//! negative slack is a race, reported with a [`ShortPathWitness`] carrying
//! every term of the violated inequality (so the claim can be re-checked
//! by plain arithmetic) and the clock-separation increase that would
//! retire it.
//!
//! Backend independence: [`race_analysis`] evaluates the slacks at the
//! *canonical* schedule for the solved cycle time — Bellman–Ford
//! potentials of the difference-constraint graph at `λ = T_c` for pure
//! models, the canonicalizing LP at a pinned cycle time for mixed ones —
//! never at whatever schedule the solver happened to return. A graph
//! solve's own schedule is that canonical one, bit for bit: the search at
//! `λ = T_c*` is the last round of its Lawler iteration, so the analysis
//! reuses it rather than search again. Graph and LP solves agree on `T_c*`
//! to within [`Tol::TIGHT`], so they agree on the canonical schedule and
//! hence on every hold slack to the same tolerance.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::TimingError;
use crate::fastpath::{self, Backend};
use crate::mlp::{solve_model_canonical, solve_model_with, MlpOptions};
use crate::model::{ConstraintOptions, TimingModel};
use crate::propagation::PropagationSystem;
use smo_circuit::{Circuit, ClockSchedule, EdgeId, SyncKind};
use smo_lp::Tol;
use std::fmt;

/// Options for [`race_analysis`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RaceOptions {
    /// Constraint-generation options for the solve (extras like minimum
    /// phase widths participate in the schedule the races are checked at).
    pub constraints: ConstraintOptions,
    /// Which solver computes the cycle time (see [`Backend`];
    /// [`Backend::default`] unless set). The analysis schedule itself is
    /// backend-independent.
    pub backend: Backend,
    /// Analyse at this cycle time instead of the solved optimum. The value
    /// must admit a feasible schedule.
    pub cycle_time: Option<f64>,
}

/// One double-clocking race, with every term of the violated short-path
/// inequality — the analogue of the long-path side's Farkas certificates:
/// the claim is re-checkable from the witness numbers alone,
/// `early_change + dq + short_delay + shift − deadline = slack < 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortPathWitness {
    /// The racing edge.
    pub edge: EdgeId,
    /// Source synchronizer name (`j`).
    pub from: String,
    /// Destination synchronizer name (`i`).
    pub to: String,
    /// Source phase number `p_j`.
    pub from_phase: usize,
    /// Destination phase number `p_i`.
    pub to_phase: usize,
    /// `E_j`: steady-state earliest output change of the source, relative
    /// to its own phase start.
    pub early_change: f64,
    /// `Δ_DQj`: source propagation delay.
    pub dq: f64,
    /// `δ_ji`: the effective short-path delay used.
    pub short_delay: f64,
    /// `true` when `δ_ji` is measured contamination data, `false` when it
    /// fell back to the max delay.
    pub min_specified: bool,
    /// `S_{p_j p_i}`: the phase-shift operator at the analysed schedule.
    pub shift: f64,
    /// Earliest new-data arrival at the destination,
    /// `early_change + dq + short_delay + shift` (relative to `p_i`'s
    /// start).
    pub early_arrival: f64,
    /// The hold deadline (see module docs); arrival before it is a race.
    pub deadline: f64,
    /// `early_arrival − deadline` (negative).
    pub slack: f64,
    /// `deadline − early_arrival`: the clock-separation increase between
    /// the racing phases that would retire this race.
    pub separation_fix: f64,
    /// `true` when the destination is a flip-flop.
    pub dst_is_ff: bool,
    /// Destination hold requirement.
    pub hold: f64,
}

impl fmt::Display for ShortPathWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "double-clocking race {} → {} (edge #{}): new data departs {} at \
             E + Δ_DQ = {:.4} + {:.4} after the φ{} rise, crosses the short path \
             δ = {:.4}{} with phase shift S_{{{},{}}} = {:.4}, and reaches {} at \
             {:.4} — {:.4} before its hold deadline {:.4} ({}); increasing the \
             φ{}→φ{} clock separation by {:.4} retires the race",
            self.from,
            self.to,
            self.edge.index(),
            self.from,
            self.early_change,
            self.dq,
            self.from_phase,
            self.short_delay,
            if self.min_specified {
                ""
            } else {
                " (unmeasured: max delay assumed)"
            },
            self.from_phase,
            self.to_phase,
            self.shift,
            self.to,
            self.early_arrival,
            -self.slack,
            self.deadline,
            if self.dst_is_ff {
                "previous active edge + hold"
            } else {
                "previous closing edge + hold"
            },
            self.from_phase,
            self.to_phase,
            self.separation_fix,
        )
    }
}

/// The short-path analysis report: per-edge and per-synchronizer hold
/// slacks at the canonical schedule, plus one [`ShortPathWitness`] per
/// detected race.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    schedule: ClockSchedule,
    early_changes: Vec<f64>,
    early_converged: bool,
    edge_slacks: Vec<f64>,
    latch_slacks: Vec<Option<f64>>,
    races: Vec<ShortPathWitness>,
}

impl RaceReport {
    /// The cycle time the analysis ran at.
    pub fn cycle_time(&self) -> f64 {
        self.schedule.cycle()
    }

    /// The canonical schedule the slacks were evaluated at.
    pub fn schedule(&self) -> &ClockSchedule {
        &self.schedule
    }

    /// Steady-state earliest output-change time per synchronizer (relative
    /// to its own phase start); `+∞` means the output never changes.
    pub fn early_changes(&self) -> &[f64] {
        &self.early_changes
    }

    /// `false` when the early-mode fixpoint did not settle — the periodic
    /// data changes die out, every early change time is `+∞`, and no race
    /// can occur.
    pub fn early_converged(&self) -> bool {
        self.early_converged
    }

    /// Hold slack per edge (`+∞` when the source output never changes).
    /// Negative means a race.
    pub fn edge_slacks(&self) -> &[f64] {
        &self.edge_slacks
    }

    /// Hold slack per synchronizer: the minimum over its fan-in edges, or
    /// `None` for a synchronizer with no fan-in.
    pub fn latch_slacks(&self) -> &[Option<f64>] {
        &self.latch_slacks
    }

    /// The detected double-clocking races, one witness each, in edge
    /// order.
    pub fn races(&self) -> &[ShortPathWitness] {
        &self.races
    }

    /// `true` iff no race was detected.
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }

    /// The smallest hold slack across all edges (`+∞` for a circuit with
    /// no edges or no changing data).
    pub fn worst_slack(&self) -> f64 {
        self.edge_slacks
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "short-path analysis at Tc = {:.4}: {}",
            self.cycle_time(),
            if self.races.is_empty() {
                "no double-clocking races".to_string()
            } else {
                format!("{} double-clocking race(s)", self.races.len())
            }
        )?;
        let worst = self.worst_slack();
        if worst.is_finite() {
            writeln!(f, "worst hold slack: {worst:.4}")?;
        } else {
            writeln!(f, "worst hold slack: +inf (no periodic data changes)")?;
        }
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// Runs the full pipeline: solve the design problem (or accept a fixed
/// cycle time), reconstruct the canonical schedule at that cycle time, and
/// evaluate the short-path constraints there (see module docs).
///
/// # Errors
///
/// [`TimingError`] when the model cannot be built, the solve fails, or no
/// feasible schedule exists at a requested `cycle_time`.
pub fn race_analysis(circuit: &Circuit, options: &RaceOptions) -> Result<RaceReport, TimingError> {
    if let Some(tc) = options
        .cycle_time
        .filter(|tc| !tc.is_finite() || *tc <= 0.0)
    {
        return Err(TimingError::InvalidOptions {
            reason: format!("cycle time {tc} must be finite and positive"),
        });
    }
    let model = TimingModel::build_with(circuit, &options.constraints)?;
    let tc = match options.cycle_time {
        Some(tc) => tc,
        None => {
            let mlp = MlpOptions {
                constraints: options.constraints.clone(),
                backend: options.backend,
                ..MlpOptions::default()
            };
            let solution = solve_model_with(circuit, &model, &mlp)?;
            // A graph optimum already is the canonical schedule at `T_c*`:
            // the fixed-`T_c` search would repeat Lawler's last round.
            if solution.backend() == Backend::Graph {
                return Ok(race_analysis_at(circuit, solution.schedule()));
            }
            solution.cycle_time()
        }
    };
    // Race analysis has no time-limit knob of its own; the graph probe
    // runs unbudgeted like the rest of the pass.
    let schedule =
        match fastpath::schedule_at(circuit, &model, tc, &smo_lp::SolveBudget::UNLIMITED)? {
            Some(schedule) => schedule,
            None => {
                // Rows outside the difference fragment: pin the cycle time and
                // let the canonicalizing LP pick the same deterministic compact
                // schedule both backends would see.
                let pinned = ConstraintOptions {
                    fixed_cycle: Some(tc),
                    ..options.constraints.clone()
                };
                let pinned_model = TimingModel::build_with(circuit, &pinned)?;
                solve_model_canonical(circuit, &pinned_model)?.schedule
            }
        };
    Ok(race_analysis_at(circuit, &schedule))
}

/// The schedule-level entry point: evaluates the short-path constraint
/// family at an explicit clock schedule (no solve involved).
///
/// # Panics
///
/// Panics if the schedule's phase count differs from the circuit's.
pub fn race_analysis_at(circuit: &Circuit, schedule: &ClockSchedule) -> RaceReport {
    let l = circuit.num_syncs();
    let system = PropagationSystem::with_short_delays(circuit, schedule);
    let fp = system.early_steady(4 * l + 16);
    // Non-convergence of the monotone early iteration means the periodic
    // changes drift later each wave and die out: nothing ever disturbs a
    // captured value, so every early change time is +∞ (see
    // `PropagationSystem::early_steady`).
    let early_changes: Vec<f64> = if fp.converged {
        fp.departures
    } else {
        vec![f64::INFINITY; l]
    };

    let threshold = Tol::FEAS.abs_for(schedule.cycle());
    let mut edge_slacks = Vec::with_capacity(circuit.num_edges());
    let mut latch_slacks: Vec<Option<f64>> = vec![None; l];
    let mut races = Vec::new();
    for (idx, e) in circuit.edges().iter().enumerate() {
        let src = circuit.sync(e.from);
        let dst = circuit.sync(e.to);
        let shift = schedule.shift(src.phase, dst.phase);
        let deadline = match dst.kind {
            SyncKind::Latch => schedule.width(dst.phase) - schedule.cycle() + dst.hold,
            SyncKind::FlipFlop => dst.hold - schedule.cycle(),
        };
        let e_src = early_changes[e.from.index()];
        let slack = if e_src.is_finite() {
            let early_arrival = e_src + src.dq + e.short_delay() + shift;
            let slack = early_arrival - deadline;
            if slack < -threshold {
                races.push(ShortPathWitness {
                    edge: EdgeId::new(idx),
                    from: src.name.clone(),
                    to: dst.name.clone(),
                    from_phase: src.phase.number(),
                    to_phase: dst.phase.number(),
                    early_change: e_src,
                    dq: src.dq,
                    short_delay: e.short_delay(),
                    min_specified: e.min_specified,
                    shift,
                    early_arrival,
                    deadline,
                    slack,
                    separation_fix: deadline - early_arrival,
                    dst_is_ff: dst.kind == SyncKind::FlipFlop,
                    hold: dst.hold,
                });
            }
            slack
        } else {
            f64::INFINITY
        };
        edge_slacks.push(slack);
        let entry = &mut latch_slacks[e.to.index()];
        *entry = Some(entry.map_or(slack, |cur| cur.min(slack)));
    }
    RaceReport {
        schedule: schedule.clone(),
        early_changes,
        early_converged: fp.converged,
        edge_slacks,
        latch_slacks,
        races,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};
    use smo_gen::paper::example1;

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    #[test]
    fn example1_is_race_free_without_min_data() {
        // No edge declares a short-path delay: δ_eff = Δ everywhere, so
        // early arrivals coincide with the (setup-clean) late arrivals and
        // no race can appear.
        let report = race_analysis(&example1(80.0), &RaceOptions::default()).unwrap();
        assert!(report.is_race_free(), "{report}");
        assert!((report.cycle_time() - 110.0).abs() < 1e-6);
        assert!(report.edge_slacks().iter().all(|&s| s >= -1e-9));
    }

    #[test]
    fn short_ff_to_ff_path_races_and_witness_is_arithmetically_sound() {
        // Two same-phase flip-flops with a measured near-zero short path
        // and a real hold requirement: the classic shift-register race.
        let mut b = CircuitBuilder::new(1);
        let a = b.add_flip_flop("A", p(1), 0.2, 0.3);
        let c = b.add_flip_flop("C", p(1), 0.2, 0.3);
        b.add_sync(smo_circuit::Synchronizer::flip_flop("D", p(1), 0.2, 0.3).with_hold(2.0));
        let d = smo_circuit::LatchId::new(2);
        b.connect_min_max(a, c, 0.1, 5.0);
        b.connect_min_max(c, d, 0.1, 5.0);
        let circuit = b.build().unwrap();
        let report = race_analysis(&circuit, &RaceOptions::default()).unwrap();
        assert!(!report.is_race_free(), "{report}");
        // Only the edge into the holding flip-flop races: the C→D hold
        // deadline is hold − Tc = 2 − Tc, the early arrival 0 + 0.3 + 0.1 − Tc.
        let race = &report.races()[0];
        assert_eq!(race.to, "D");
        assert!((race.slack - (0.3 + 0.1 - 2.0)).abs() < 1e-9, "{race:?}");
        // The witness re-derives by plain arithmetic.
        let lhs = race.early_change + race.dq + race.short_delay + race.shift;
        assert!((lhs - race.early_arrival).abs() < 1e-12);
        assert!((race.early_arrival - race.deadline - race.slack).abs() < 1e-12);
        assert!((race.separation_fix + race.slack).abs() < 1e-12);
        assert!(race.min_specified);
        let text = race.to_string();
        assert!(text.contains("double-clocking race"), "{text}");
        assert!(text.contains("Δ_DQ"), "{text}");
        assert!(text.contains("hold deadline"), "{text}");
    }

    #[test]
    fn unmeasured_short_path_does_not_race() {
        // Same topology, but `connect` (no measured min): δ_eff = Δ = 5,
        // which beats the deadline comfortably at any feasible Tc.
        let mut b = CircuitBuilder::new(1);
        let a = b.add_flip_flop("A", p(1), 0.2, 0.3);
        b.add_sync(smo_circuit::Synchronizer::flip_flop("D", p(1), 0.2, 0.3).with_hold(2.0));
        let d = smo_circuit::LatchId::new(1);
        b.connect(a, d, 5.0);
        let circuit = b.build().unwrap();
        let report = race_analysis(&circuit, &RaceOptions::default()).unwrap();
        assert!(report.is_race_free(), "{report}");
    }

    #[test]
    fn fixed_schedule_flags_a_fast_path_and_clears_a_slow_one() {
        // Same-phase flip-flops at Tc = 10: new data leaves F1 at dq 0.1
        // after the edge; F2 holds for 1.0 after it.
        let sched = ClockSchedule::new(10.0, vec![0.0], vec![5.0]).unwrap();
        let report = |min: f64| {
            let mut b = CircuitBuilder::new(1);
            let f1 = b.add_flip_flop("F1", p(1), 1.0, 0.1);
            let f2 = b.add_sync(
                smo_circuit::Synchronizer::flip_flop("F2", p(1), 1.0, 0.2).with_hold(1.0),
            );
            b.connect_min_max(f1, f2, min, 5.0);
            race_analysis_at(&b.build().unwrap(), &sched)
        };
        // 0.1 + 0.3 arrives 0.6 before the hold deadline
        let fast = report(0.3);
        assert_eq!(fast.races().len(), 1, "{fast}");
        assert!((fast.races()[0].slack + 0.6).abs() < 1e-9, "{fast}");
        assert!((fast.edge_slacks()[0] + 0.6).abs() < 1e-9);
        // 0.1 + 2.0 clears it by 1.1
        let slow = report(2.0);
        assert!(slow.is_race_free(), "{slow}");
        assert!((slow.edge_slacks()[0] - 1.1).abs() < 1e-9);
    }

    #[test]
    fn latch_slacks_take_the_fanin_minimum() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_latch("A", p(1), 1.0, 2.0);
        let c = b.add_latch("B", p(2), 1.0, 2.0);
        b.connect_min_max(a, c, 1.0, 20.0);
        b.connect_min_max(a, c, 3.0, 20.0);
        b.connect_min_max(c, a, 2.0, 60.0);
        let circuit = b.build().unwrap();
        let report = race_analysis(&circuit, &RaceOptions::default()).unwrap();
        let slacks = report.edge_slacks();
        let b_slack = report.latch_slacks()[c.index()].unwrap();
        assert!((b_slack - slacks[0].min(slacks[1])).abs() < 1e-12);
        assert!(report.latch_slacks()[a.index()].is_some());
    }

    #[test]
    fn fixed_cycle_time_analysis_runs_above_the_optimum() {
        let c = example1(80.0);
        let options = RaceOptions {
            cycle_time: Some(150.0),
            ..RaceOptions::default()
        };
        let report = race_analysis(&c, &options).unwrap();
        assert!((report.cycle_time() - 150.0).abs() < 1e-12);
        assert!(report.is_race_free());
    }

    #[test]
    fn infeasible_fixed_cycle_time_is_an_error() {
        let c = example1(80.0);
        let options = RaceOptions {
            cycle_time: Some(50.0), // optimum is 110
            ..RaceOptions::default()
        };
        let err = race_analysis(&c, &options).unwrap_err();
        assert!(matches!(err, TimingError::Infeasible { .. }), "{err:?}");
    }

    #[test]
    fn graph_and_lp_backends_agree_on_hold_slacks() {
        for d41 in [20.0, 80.0, 120.0] {
            let mut c = example1(d41);
            // add measured short-path data to make the slacks non-trivial
            c = {
                let mut b = CircuitBuilder::new(2);
                for (_, s) in c.syncs() {
                    b.add_sync(s.clone());
                }
                for e in c.edges() {
                    b.connect_min_max(e.from, e.to, 0.4 * e.max_delay, e.max_delay);
                }
                b.build().unwrap()
            };
            let graph = race_analysis(
                &c,
                &RaceOptions {
                    backend: Backend::Graph,
                    ..RaceOptions::default()
                },
            )
            .unwrap();
            let lp = race_analysis(
                &c,
                &RaceOptions {
                    backend: Backend::Lp,
                    ..RaceOptions::default()
                },
            )
            .unwrap();
            let tol = Tol::TIGHT.abs_for(graph.cycle_time());
            assert!((graph.cycle_time() - lp.cycle_time()).abs() <= tol);
            for (g, l) in graph.edge_slacks().iter().zip(lp.edge_slacks()) {
                assert!((g - l).abs() <= tol, "Δ41 = {d41}: {g} vs {l}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Where the graph answers, the race analysis checks the solve's own
        /// schedule, and the fixed-`T_c` search at `T_c*` (what a pinned
        /// `cycle_time` runs) rebuilds that schedule bit for bit.
        #[test]
        fn prop_graph_optimum_is_the_canonical_schedule(
            seed in 0u64..10_000,
            latches in 3usize..12,
            ff in proptest::bool::ANY,
        ) {
            use smo_gen::random::{random_circuit, GenConfig};
            let cfg = GenConfig {
                latches,
                edges: 2 * latches,
                flip_flop_prob: if ff { 0.3 } else { 0.0 },
                ..Default::default()
            };
            let c = random_circuit(&cfg, seed);
            let solution = crate::min_cycle_time(&c).unwrap();
            proptest::prop_assume!(solution.backend() == Backend::Graph);
            let race = race_analysis(&c, &RaceOptions::default()).unwrap();
            proptest::prop_assert_eq!(race.schedule(), solution.schedule());
            let pinned = RaceOptions {
                cycle_time: Some(solution.cycle_time()),
                ..RaceOptions::default()
            };
            let pinned = race_analysis(&c, &pinned).unwrap();
            proptest::prop_assert_eq!(pinned.schedule(), solution.schedule());
        }
    }

    #[test]
    fn report_display_mentions_race_count() {
        let report = race_analysis(&example1(80.0), &RaceOptions::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("no double-clocking races"), "{text}");
        assert!(text.contains("worst hold slack"), "{text}");
    }
}
