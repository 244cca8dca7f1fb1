//! The wave-by-wave simulation engine.
//!
//! Clock-phase occurrences are strictly ordered in time within a wave
//! (phase starts are sorted, eq. 5) and a combinational edge either stays
//! within the wave (`C_{p_j p_i} = 0`, source phase strictly earlier) or
//! crosses into the next one (`C = 1`). Processing synchronizers in phase
//! order within each wave therefore evaluates every data dependency after
//! its sources — an event-driven simulation with a statically known event
//! order.
//!
//! Seeding: every synchronizer starts wave −1 holding valid data that
//! departed at its phase's opening edge (`D = 0`), the circuit's power-on
//! state. Per-wave departures then increase monotonically toward the
//! steady state, matching the analytical least fixpoint of `smo-core` when
//! the schedule is feasible, and drifting later every wave when it is not.

use crate::trace::{SimTrace, SimViolation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smo_circuit::{Circuit, ClockSchedule, ClockSpec, EdgeId, LatchId, SyncKind};

/// Options for [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Maximum number of waves (cycles) to simulate.
    pub max_waves: usize,
    /// Convergence tolerance on per-wave departures.
    pub tolerance: f64,
    /// Also perform dynamic hold (short-path) checking. Each edge's short
    /// path is its effective short-path delay
    /// ([`Edge::short_delay`](smo_circuit::Edge::short_delay)): the
    /// measured min delay, or the max delay on an edge without one, the
    /// rule of the static race analysis.
    pub check_hold: bool,
    /// Stop at the first wave whose departures match the previous wave's.
    pub stop_on_convergence: bool,
    /// Monte-Carlo mode: when `Some(seed)`, each edge's long-path delay is
    /// resampled uniformly from `[min_delay, max_delay]` in every wave
    /// (process/data-dependent variation). Deterministic per seed. Hold
    /// checks keep using the short-path delay.
    pub jitter_seed: Option<u64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_waves: 64,
            tolerance: 1e-9,
            check_hold: false,
            stop_on_convergence: true,
            jitter_seed: None,
        }
    }
}

/// Simulates `circuit` under `schedule` for up to `options.max_waves`
/// cycles.
///
/// # Panics
///
/// Panics if the schedule's phase count differs from the circuit's, or if
/// `max_waves` is zero.
pub fn simulate(circuit: &Circuit, schedule: &ClockSchedule, options: &SimOptions) -> SimTrace {
    assert_eq!(
        circuit.num_phases(),
        schedule.num_phases(),
        "schedule phase count must match the circuit"
    );
    assert!(options.max_waves >= 1, "need at least one wave");
    let l = circuit.num_syncs();
    let tc = schedule.cycle();

    // Evaluation order: by phase, then by id (within-wave dependencies only
    // flow from strictly earlier phases).
    let mut order: Vec<usize> = (0..l).collect();
    order.sort_by_key(|&i| (circuit.sync(LatchId::new(i)).phase.index(), i));

    // dep_abs[i]: absolute departure in the *previous* wave; seeded at the
    // wave −1 opening edge (power-on data, D = 0).
    let mut prev_dep: Vec<f64> = (0..l)
        .map(|i| schedule.start(circuit.sync(LatchId::new(i)).phase) - tc)
        .collect();
    // ec_abs[i]: absolute earliest output-change instant in the previous
    // wave; power-on outputs first change at the wave −1 opening edge.
    let mut prev_ec: Vec<f64> = prev_dep.clone();

    let mut departures: Vec<Vec<Option<f64>>> = Vec::new();
    let mut arrivals: Vec<Vec<Option<f64>>> = Vec::new();
    let mut early_changes: Vec<Vec<f64>> = Vec::new();
    let mut violations: Vec<SimViolation> = Vec::new();
    let mut converged_at = None;
    let mut rng = options.jitter_seed.map(StdRng::seed_from_u64);
    let mut delays: Vec<f64> = circuit.edges().iter().map(|e| e.max_delay).collect();

    for wave in 0..options.max_waves {
        if let Some(rng) = rng.as_mut() {
            for (d, e) in delays.iter_mut().zip(circuit.edges()) {
                *d = if e.max_delay > e.min_delay {
                    rng.gen_range(e.min_delay..=e.max_delay)
                } else {
                    e.max_delay
                };
            }
        }
        let mut dep_abs = vec![0.0_f64; l];
        let mut ec_abs = vec![0.0_f64; l];
        let mut dep_rel = vec![None; l];
        let mut ec_rel = vec![f64::INFINITY; l];
        let mut arr_rel = vec![None; l];
        for &i in &order {
            let id = LatchId::new(i);
            let sync = circuit.sync(id);
            let open = schedule.start(sync.phase) + wave as f64 * tc;
            let close = open + schedule.width(sync.phase);

            // Latest arrival over all fan-in contributions.
            let mut arrival = f64::NEG_INFINITY;
            for &eid in circuit.fanin(id) {
                let e = circuit.edge(eid);
                let src = circuit.sync(e.from);
                let crosses = ClockSpec::c_flag(src.phase, sync.phase);
                let q = if crosses {
                    prev_dep[e.from.index()] // source departed last wave
                } else {
                    dep_abs[e.from.index()] // already computed this wave
                } + src.dq;
                arrival = arrival.max(q + delays[eid.index()]);
            }
            if arrival.is_finite() {
                arr_rel[i] = Some(arrival - open);
            }

            // Earliest instant the input can start changing (short paths,
            // contamination delays); only needed for hold checking.
            let mut early_in = f64::INFINITY;
            if options.check_hold {
                for &eid in circuit.fanin(id) {
                    let e = circuit.edge(eid);
                    let src = circuit.sync(e.from);
                    let crosses = ClockSpec::c_flag(src.phase, sync.phase);
                    let q = if crosses {
                        prev_ec[e.from.index()]
                    } else {
                        ec_abs[e.from.index()]
                    } + src.dq;
                    early_in = early_in.min(q + e.short_delay());
                }
            }

            match sync.kind {
                SyncKind::Latch => {
                    let depart = arrival.max(open);
                    dep_abs[i] = depart;
                    dep_rel[i] = Some(depart - open);
                    ec_abs[i] = early_in.max(open);
                    ec_rel[i] = ec_abs[i] - open;
                    // the paper's adopted setup form (eq. 11):
                    // D + Δ_DC ≤ T_p
                    let shortfall = (depart - open) + sync.setup - (close - open);
                    if shortfall > options.tolerance {
                        violations.push(SimViolation::Setup {
                            latch: id,
                            wave,
                            shortfall,
                        });
                    }
                }
                SyncKind::FlipFlop => {
                    // samples at the enabling edge regardless of lateness
                    dep_abs[i] = open;
                    dep_rel[i] = Some(0.0);
                    ec_abs[i] = open;
                    ec_rel[i] = 0.0;
                    if arrival.is_finite() {
                        let shortfall = arrival + sync.setup - open;
                        if shortfall > options.tolerance {
                            violations.push(SimViolation::Setup {
                                latch: id,
                                wave,
                                shortfall,
                            });
                        }
                    }
                }
            }
        }

        // Dynamic hold checking: the *next* wave's data must not disturb
        // this wave's capture. The next occurrence's earliest change is this
        // occurrence's earliest change plus one period (exact in steady
        // state, conservative during the transient).
        if options.check_hold {
            for (idx, e) in circuit.edges().iter().enumerate() {
                let src = circuit.sync(e.from);
                let dst = circuit.sync(e.to);
                let crosses = ClockSpec::c_flag(src.phase, dst.phase);
                // earliest change (this wave) of the occurrence feeding the
                // destination
                let feed_ec = if crosses {
                    prev_ec[e.from.index()]
                } else {
                    ec_abs[e.from.index()]
                };
                let next_disturb = feed_ec + tc + src.dq + e.short_delay();
                let dst_open = schedule.start(dst.phase) + wave as f64 * tc;
                let hold_deadline = match dst.kind {
                    SyncKind::Latch => dst_open + schedule.width(dst.phase) + dst.hold,
                    SyncKind::FlipFlop => dst_open + dst.hold,
                };
                let shortfall = hold_deadline - next_disturb;
                if shortfall > options.tolerance {
                    violations.push(SimViolation::Hold {
                        edge: EdgeId::new(idx),
                        wave,
                        shortfall,
                    });
                }
            }
        }

        // Convergence: relative departures equal last wave's.
        if wave > 0 {
            let prev = &departures[wave - 1];
            let same = dep_rel.iter().zip(prev.iter()).all(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => (x - y).abs() <= options.tolerance,
                (None, None) => true,
                _ => false,
            });
            if same && converged_at.is_none() {
                converged_at = Some(wave);
            }
        }

        departures.push(dep_rel);
        arrivals.push(arr_rel);
        early_changes.push(ec_rel);
        prev_dep = dep_abs;
        prev_ec = ec_abs;

        if options.stop_on_convergence && converged_at.is_some() {
            break;
        }
    }

    SimTrace {
        cycle: tc,
        waves: departures.len(),
        departures,
        arrivals,
        early_changes,
        violations,
        converged_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    fn example1(d41: f64) -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 10.0, 10.0);
        let l2 = b.add_latch("L2", p(2), 10.0, 10.0);
        let l3 = b.add_latch("L3", p(1), 10.0, 10.0);
        let l4 = b.add_latch("L4", p(2), 10.0, 10.0);
        b.connect(l1, l2, 20.0);
        b.connect(l2, l3, 20.0);
        b.connect(l3, l4, 60.0);
        b.connect(l4, l1, d41);
        b.build().unwrap()
    }

    #[test]
    fn feasible_schedule_converges_cleanly() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(2, 100.0, 0.0).unwrap();
        let trace = simulate(&c, &sched, &SimOptions::default());
        assert!(trace.converged(), "no convergence: {trace:?}");
        assert!(trace.setup_violations().is_empty());
        // steady state matches the §V hand computation
        assert_eq!(trace.steady_departures(), vec![40.0, 20.0, 0.0, 20.0]);
    }

    #[test]
    fn undersized_cycle_shows_setup_misses_and_no_convergence() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(2, 80.0, 0.0).unwrap();
        let opts = SimOptions {
            max_waves: 40,
            ..Default::default()
        };
        let trace = simulate(&c, &sched, &opts);
        assert!(!trace.converged());
        assert!(!trace.setup_violations().is_empty());
        // departures drift later every wave around the positive loop
        let l1 = LatchId::new(0);
        let early = trace.departure(5, l1).unwrap();
        let late = trace.departure(35, l1).unwrap();
        assert!(late > early + 1.0, "no drift: {early} vs {late}");
    }

    #[test]
    fn narrow_phases_show_setup_misses_but_converge() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(2, 100.0, 15.0).unwrap();
        let trace = simulate(&c, &sched, &SimOptions::default());
        assert!(trace.converged());
        assert!(!trace.setup_violations().is_empty());
    }

    #[test]
    fn flip_flop_samples_at_edge() {
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 1.0, 2.0);
        let f2 = b.add_flip_flop("F2", p(1), 1.0, 2.0);
        b.connect(f1, f2, 10.0);
        let c = b.build().unwrap();
        let ok = ClockSchedule::new(13.0, vec![0.0], vec![6.0]).unwrap();
        let trace = simulate(&c, &ok, &SimOptions::default());
        assert!(trace.setup_violations().is_empty());
        assert_eq!(trace.steady_departures(), vec![0.0, 0.0]);
        let bad = ClockSchedule::new(12.0, vec![0.0], vec![6.0]).unwrap();
        let trace = simulate(&c, &bad, &SimOptions::default());
        assert!(!trace.setup_violations().is_empty());
    }

    #[test]
    fn dynamic_hold_check_fires_on_fast_path() {
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 0.1, 0.1);
        let f2 =
            b.add_sync(smo_circuit::Synchronizer::flip_flop("F2", p(1), 0.1, 0.2).with_hold(1.0));
        b.connect_min_max(f1, f2, 0.3, 5.0);
        let c = b.build().unwrap();
        let sched = ClockSchedule::new(10.0, vec![0.0], vec![5.0]).unwrap();
        let opts = SimOptions {
            check_hold: true,
            ..Default::default()
        };
        let trace = simulate(&c, &sched, &opts);
        assert!(!trace.hold_violations().is_empty());
        // and with enough contamination delay it passes
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 0.1, 0.1);
        let f2 =
            b.add_sync(smo_circuit::Synchronizer::flip_flop("F2", p(1), 0.1, 0.2).with_hold(1.0));
        b.connect_min_max(f1, f2, 2.0, 5.0);
        let c = b.build().unwrap();
        let trace = simulate(&c, &sched, &opts);
        assert!(trace.hold_violations().is_empty());
    }

    #[test]
    fn arrival_times_are_reported_relative_to_phase() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(2, 100.0, 0.0).unwrap();
        let trace = simulate(&c, &sched, &SimOptions::default());
        let last = trace.waves() - 1;
        // A1 = 40 in steady state (§V hand computation)
        assert!((trace.arrival(last, LatchId::new(0)).unwrap() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn max_waves_budget_is_respected() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(2, 80.0, 0.0).unwrap();
        let opts = SimOptions {
            max_waves: 7,
            ..Default::default()
        };
        let trace = simulate(&c, &sched, &opts);
        assert_eq!(trace.waves(), 7);
    }

    #[test]
    #[should_panic(expected = "phase count")]
    fn mismatched_schedule_panics() {
        let c = example1(60.0);
        let sched = ClockSchedule::symmetric(3, 90.0, 0.0).unwrap();
        let _ = simulate(&c, &sched, &SimOptions::default());
    }
}
