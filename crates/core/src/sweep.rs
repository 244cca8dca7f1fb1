//! Parallel parameter sweeps: graph re-solves on difference models,
//! cold simplex re-solves on the rest.
//!
//! §VI of the paper motivates "parametric programming techniques … to
//! study the effects on the optimal cycle time of varying the circuit
//! delays". [`sensitivity`](crate::cycle_time_curve) answers that exactly
//! for *one* edge; this module scales the question up: many runs, many
//! circuits, many threads.
//!
//! [`sweep_cycle_time`] fans a batch of re-solves over a work-claiming
//! thread pool:
//!
//! * **Clock sweeps** ([`SweepParam::Tc`]) — a grid sweep of one edge's
//!   delay over `[0, max]`, each grid point re-solved from scratch,
//!   cross-checkable against the exact piecewise-linear
//!   curve ([`cycle_time_curve`](crate::cycle_time_curve)) whose
//!   breakpoints ride along in the report.
//! * **Monte-Carlo delay perturbation** ([`SweepParam::Delay`]) — every
//!   edge delay jittered uniformly by ±`spread`
//!   ([`smo_gen::random::perturbed_delays`]), one re-solve per sample.
//! * **Many-circuit batches** — pass several circuits; work items are
//!   interleaved across the pool and reduced back per circuit.
//!
//! ## How a run is solved
//!
//! Each run, and the unperturbed base, is solved the way the `auto`
//! backend solves ([`Backend::Auto`](crate::Backend)). When every row of
//! the model is a difference constraint — true of every default SMO
//! model — the run is an exact min-cycle-ratio solve on the difference
//! graph, and `certify` re-checks each optimum into a
//! [`GraphCertificate`](crate::GraphCertificate). Such runs report zero
//! pivots. A run the graph cannot settle (a mixed model, numerical
//! doubt, a failed certificate) gets a cold sparse-LU simplex solve,
//! certified when `certify` is set.
//!
//! ## Determinism contract
//!
//! Results are identical for any `jobs` value: run `i` of a circuit is
//! seeded with `seed + i` (the `smo-sim` Monte-Carlo convention), every
//! run is solved from scratch on a model restored bit-for-bit to the base
//! delays, and the reduction is ordered by `(circuit, run)` index —
//! worker scheduling affects wall-clock only. `smo sweep --json` is
//! byte-identical across `--jobs 1/2/8` because of this contract;
//! `tests/sweep.rs` locks it down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::TimingError;
use crate::fastpath;
use crate::model::TimingModel;
use crate::sensitivity::cycle_time_curve;
use smo_circuit::{Circuit, EdgeId};
use smo_gen::random::perturbed_delays;
use smo_lp::{ConstraintId, RecoveryPolicy};

/// Which parameter a sweep varies.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepParam {
    /// Grid sweep of one edge's long-path delay over `[0, max_delay]`
    /// (`runs` evenly spaced points, the last at `max_delay`). The report
    /// carries the *exact* breakpoints of the piecewise-linear `T_c*(Δ)`
    /// curve for cross-checking (the Fig. 7 experiment at scale).
    Tc {
        /// The edge whose delay is swept.
        edge: EdgeId,
        /// Upper end of the sweep range.
        max_delay: f64,
    },
    /// Monte-Carlo re-solves with every edge delay drawn uniformly from
    /// `[Δ·(1−spread), Δ·(1+spread)]`; run `i` uses seed `seed + i`.
    Delay {
        /// Relative jitter half-width in `[0, 1]` (`0` = no perturbation).
        spread: f64,
    },
}

/// Options for [`sweep_cycle_time`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// The swept parameter.
    pub param: SweepParam,
    /// Re-solves per circuit.
    pub runs: usize,
    /// Base RNG seed (delay mode; run `i` uses `seed + i`).
    pub seed: u64,
    /// Worker threads. Results are identical for any value; `0` and `1`
    /// both mean sequential. The value is a *ceiling*: it is clamped to
    /// the work-item count and to [`std::thread::available_parallelism`],
    /// so over-subscribing a small container no longer costs throughput.
    pub jobs: usize,
    /// Check every re-solve independently: graph runs re-derive a
    /// [`GraphCertificate`](crate::GraphCertificate), simplex runs go
    /// through the certified ladder
    /// ([`TimingModel::solve_lp_certified`]) and are KKT-checked against
    /// raw problem data.
    pub certify: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            param: SweepParam::Delay { spread: 0.1 },
            runs: 16,
            seed: 0,
            jobs: 1,
            certify: false,
        }
    }
}

/// One re-solve of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Run index within the circuit's sweep (`0..runs`).
    pub index: usize,
    /// The parameter value: the swept edge delay ([`SweepParam::Tc`]) or
    /// the largest relative delay deviation applied
    /// ([`SweepParam::Delay`]).
    pub value: f64,
    /// Optimal cycle time `T_c*` at this parameter value.
    pub cycle_time: f64,
    /// Simplex pivots of this re-solve's cold fallback: zero on the graph
    /// route.
    pub iterations: usize,
}

/// Per-circuit result of [`sweep_cycle_time`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Index of the circuit in the input batch.
    pub circuit: usize,
    /// Optimal cycle time of the unperturbed model.
    pub base_cycle_time: f64,
    /// Simplex pivots of the base solve's cold fallback (zero on the
    /// graph route).
    pub base_iterations: usize,
    /// All runs, ordered by index.
    pub runs: Vec<SweepRun>,
    /// Exact breakpoints of `T_c*(Δ)` over the sweep range
    /// ([`SweepParam::Tc`] only; empty in delay mode).
    pub breakpoints: Vec<f64>,
    /// Smallest cycle time over the runs.
    pub min_cycle_time: f64,
    /// Largest cycle time over the runs.
    pub max_cycle_time: f64,
    /// Mean cycle time over the runs (summed in index order).
    pub mean_cycle_time: f64,
    /// Total cold-fallback pivots across all re-solves (zero on the graph
    /// route). The name and its JSON key predate the cold-only simplex.
    pub warm_iterations: usize,
}

/// The base solve of one circuit, shared read-only with the workers.
struct BaseSolve {
    model: TimingModel,
    cycle_time: f64,
    iterations: usize,
}

impl BaseSolve {
    /// Builds `circuit`'s unperturbed model and solves it like any run.
    fn new(circuit: &Circuit, options: &SweepOptions) -> Result<Self, TimingError> {
        let model = TimingModel::build(circuit)?;
        let (cycle_time, iterations) = solve_run(circuit, &model, options)?;
        Ok(BaseSolve {
            model,
            cycle_time,
            iterations,
        })
    }
}

/// Sweeps the optimal cycle time of every circuit in `circuits` over the
/// configured parameter, returning one [`SweepReport`] per circuit (input
/// order).
///
/// All `circuits.len() × runs` re-solves are interleaved over
/// `options.jobs` threads that claim work from a shared atomic counter.
///
/// # Errors
///
/// [`TimingError::InvalidOptions`] for a degenerate configuration (zero
/// runs, spread outside `[0, 1]`, a swept edge missing from a circuit),
/// plus anything the underlying solves report. The error returned is the
/// one from the lowest-indexed failing work item, independent of thread
/// scheduling.
pub fn sweep_cycle_time(
    circuits: &[Circuit],
    options: &SweepOptions,
) -> Result<Vec<SweepReport>, TimingError> {
    validate(circuits, options)?;
    if circuits.is_empty() {
        return Ok(Vec::new());
    }

    // Base solves: one deterministic solve per circuit, on this thread.
    let bases: Vec<BaseSolve> = circuits
        .iter()
        .map(|c| BaseSolve::new(c, options))
        .collect::<Result<_, TimingError>>()?;

    let total = circuits.len() * options.runs;
    // Threads beyond the physical core count only add scheduler churn:
    // every extra worker claims runs it then time-slices against the
    // others, so `--jobs 8` on a 1-core container used to run *slower*
    // than `--jobs 1`. Cap the pool at the machine's parallelism (the
    // determinism contract makes the clamp invisible in the output).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs = options.jobs.clamp(1, total).min(cores);
    let next = AtomicUsize::new(0);

    let work = |_worker: usize| -> Result<Vec<(usize, SweepRun)>, (usize, TimingError)> {
        let mut out = Vec::new();
        // The per-worker model cache: one clone of each circuit's base
        // model, perturbed in place (RHS only) and restored after every
        // run. Cloning per (worker, circuit) instead of per run removes
        // the dominant allocation from the inner loop.
        let mut models: HashMap<usize, TimingModel> = HashMap::new();
        loop {
            let w = next.fetch_add(1, Ordering::Relaxed);
            if w >= total {
                return Ok(out);
            }
            let c = w / options.runs;
            let i = w % options.runs;
            let model = models.entry(c).or_insert_with(|| bases[c].model.clone());
            match run_one(&circuits[c], model, i, options) {
                Ok(run) => out.push((w, run)),
                Err(e) => return Err((w, e)),
            }
        }
    };

    let mut results: Vec<Option<SweepRun>> = (0..total).map(|_| None).collect();
    let mut first_error: Option<(usize, TimingError)> = None;
    if jobs == 1 {
        match work(0) {
            Ok(pairs) => {
                for (w, run) in pairs {
                    results[w] = Some(run);
                }
            }
            Err(e) => first_error = Some(e),
        }
    } else {
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|t| {
                    let work = &work;
                    scope.spawn(move || work(t))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        for outcome in outcomes {
            match outcome {
                Ok(pairs) => {
                    for (w, run) in pairs {
                        results[w] = Some(run);
                    }
                }
                // Keep the lowest-indexed error so the verdict does not
                // depend on which worker happened to hit it first.
                Err((w, e)) => match &first_error {
                    Some((prev, _)) if *prev <= w => {}
                    _ => first_error = Some((w, e)),
                },
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }

    // Ordered reduction: group the flat results back per circuit.
    let mut reports = Vec::with_capacity(circuits.len());
    let mut results = results.into_iter();
    for (c, base) in bases.iter().enumerate() {
        let runs: Vec<SweepRun> = results
            .by_ref()
            .take(options.runs)
            .map(|r| r.expect("every work item completed"))
            .collect();
        let breakpoints = match &options.param {
            SweepParam::Tc { edge, max_delay } => {
                cycle_time_curve(&circuits[c], &base.model, *edge, *max_delay)?.breakpoints()
            }
            SweepParam::Delay { .. } => Vec::new(),
        };
        let (mut min, mut max, mut sum, mut pivots) = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0);
        for r in &runs {
            min = min.min(r.cycle_time);
            max = max.max(r.cycle_time);
            sum += r.cycle_time;
            pivots += r.iterations;
        }
        reports.push(SweepReport {
            circuit: c,
            base_cycle_time: base.cycle_time,
            base_iterations: base.iterations,
            breakpoints,
            min_cycle_time: min,
            max_cycle_time: max,
            mean_cycle_time: sum / runs.len() as f64,
            warm_iterations: pivots,
            runs,
        });
    }
    Ok(reports)
}

/// Records a row's exact RHS before overwriting it via
/// [`TimingModel::set_edge_delay`], so [`run_one`] can restore the
/// worker's shared model bit-for-bit afterwards. Restoring the *recorded*
/// value — rather than applying the inverse delta — keeps repeated runs
/// from accumulating floating-point drift in the cached model.
fn record_and_set(
    model: &mut TimingModel,
    touched: &mut Vec<(ConstraintId, f64)>,
    edge: EdgeId,
    old_delay: f64,
    new_delay: f64,
) {
    if let Some(row) = model.edge_constraint(edge) {
        let (_, _, rhs) = model.problem().constraint(row);
        touched.push((row, rhs));
        model.set_edge_delay(edge, old_delay, new_delay);
    }
}

/// One re-solve: perturb the worker's cached model in place (RHS edits
/// only), solve it ([`solve_run`]), then restore the recorded right-hand
/// sides so the model is pristine for the next run.
fn run_one(
    circuit: &Circuit,
    model: &mut TimingModel,
    i: usize,
    options: &SweepOptions,
) -> Result<SweepRun, TimingError> {
    let mut touched: Vec<(ConstraintId, f64)> = Vec::new();
    let value = match &options.param {
        SweepParam::Tc { edge, max_delay } => {
            let theta = if options.runs == 1 {
                *max_delay
            } else {
                max_delay * i as f64 / (options.runs - 1) as f64
            };
            record_and_set(
                model,
                &mut touched,
                *edge,
                circuit.edge(*edge).max_delay,
                theta,
            );
            theta
        }
        SweepParam::Delay { spread } => {
            let delays = perturbed_delays(circuit, *spread, options.seed.wrapping_add(i as u64));
            let mut worst = 0.0f64;
            for (e, (edge, &new)) in circuit.edges().iter().zip(&delays).enumerate() {
                let id = EdgeId::new(e);
                if new != edge.max_delay {
                    record_and_set(model, &mut touched, id, edge.max_delay, new);
                }
                if edge.max_delay > 0.0 {
                    worst = worst.max((new - edge.max_delay).abs() / edge.max_delay);
                }
            }
            worst
        }
    };
    let solved = solve_run(circuit, model, options);
    // Restore before propagating any error: the cached model must hold the
    // exact base RHS whenever run_one returns.
    for &(row, rhs) in touched.iter().rev() {
        model.problem_mut().set_rhs(row, rhs);
    }
    let (cycle_time, iterations) = solved?;
    Ok(SweepRun {
        index: i,
        value,
        cycle_time,
        iterations,
    })
}

/// The cycle time and pivot count of one model: the graph min-ratio
/// solve when it settles the model, else a cold sparse-LU solve.
fn solve_run(
    circuit: &Circuit,
    model: &TimingModel,
    options: &SweepOptions,
) -> Result<(f64, usize), TimingError> {
    if let Some((tc, _)) = fastpath::min_cycle_ratio(circuit, model, options.certify)? {
        return Ok((tc, 0));
    }
    let sol = if options.certify {
        model.solve_lp_certified(&RecoveryPolicy::default())?.0
    } else {
        model.solve_lp()?
    };
    Ok((sol.value(model.vars().tc()), sol.iterations()))
}

fn validate(circuits: &[Circuit], options: &SweepOptions) -> Result<(), TimingError> {
    if options.runs == 0 {
        return Err(TimingError::InvalidOptions {
            reason: "sweep needs at least one run".into(),
        });
    }
    match &options.param {
        SweepParam::Tc { edge, max_delay } => {
            if !max_delay.is_finite() || *max_delay < 0.0 {
                return Err(TimingError::InvalidOptions {
                    reason: format!("sweep range must be finite and non-negative, got {max_delay}"),
                });
            }
            for (c, circuit) in circuits.iter().enumerate() {
                if edge.index() >= circuit.num_edges() {
                    return Err(TimingError::InvalidOptions {
                        reason: format!(
                            "edge {} does not exist in circuit {c} ({} edges)",
                            edge.index(),
                            circuit.num_edges()
                        ),
                    });
                }
            }
        }
        SweepParam::Delay { spread } => {
            if !(0.0..=1.0).contains(spread) {
                return Err(TimingError::InvalidOptions {
                    reason: format!("delay spread must lie in [0, 1], got {spread}"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_gen::paper::example1;
    use smo_gen::random::{random_circuit, GenConfig};

    #[test]
    fn zero_spread_reproduces_the_base_optimum_every_run() {
        let c = example1(80.0);
        let reports = sweep_cycle_time(
            &[c],
            &SweepOptions {
                param: SweepParam::Delay { spread: 0.0 },
                runs: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!((r.base_cycle_time - 110.0).abs() < 1e-6);
        for run in &r.runs {
            assert!((run.cycle_time - 110.0).abs() < 1e-6, "{run:?}");
            assert_eq!(run.value, 0.0);
        }
        assert_eq!(r.min_cycle_time, r.max_cycle_time);
    }

    #[test]
    fn tc_sweep_matches_the_exact_parametric_curve() {
        let c = example1(50.0);
        let model = TimingModel::build(&c).unwrap();
        let curve = cycle_time_curve(&c, &model, EdgeId::new(3), 140.0).unwrap();
        let reports = sweep_cycle_time(
            &[c],
            &SweepOptions {
                param: SweepParam::Tc {
                    edge: EdgeId::new(3),
                    max_delay: 140.0,
                },
                runs: 15,
                ..Default::default()
            },
        )
        .unwrap();
        let r = &reports[0];
        assert_eq!(r.breakpoints, curve.breakpoints());
        for run in &r.runs {
            let exact = curve.objective_at(run.value).unwrap();
            assert!(
                (run.cycle_time - exact).abs() < 1e-6,
                "Δ = {}: {} vs exact {exact}",
                run.value,
                run.cycle_time
            );
        }
        // Endpoints of the grid are exact.
        assert_eq!(r.runs[0].value, 0.0);
        assert_eq!(r.runs.last().unwrap().value, 140.0);
    }

    #[test]
    fn results_are_identical_for_any_job_count() {
        let circuits = vec![
            example1(80.0),
            random_circuit(&GenConfig::default(), 1),
            random_circuit(&GenConfig::default(), 2),
        ];
        let base = SweepOptions {
            param: SweepParam::Delay { spread: 0.15 },
            runs: 10,
            seed: 42,
            ..Default::default()
        };
        let sequential = sweep_cycle_time(&circuits, &base).unwrap();
        for jobs in [2, 4, 8] {
            let parallel = sweep_cycle_time(
                &circuits,
                &SweepOptions {
                    jobs,
                    ..base.clone()
                },
            );
            assert_eq!(sequential, parallel.unwrap(), "jobs = {jobs}");
        }
    }

    #[test]
    fn pure_models_sweep_on_the_graph_and_match_cold_lp_solves() {
        let c = random_circuit(
            &GenConfig {
                latches: 40,
                edges: 70,
                ..Default::default()
            },
            7,
        );
        let opts = SweepOptions {
            param: SweepParam::Delay { spread: 0.05 },
            runs: 6,
            seed: 3,
            ..Default::default()
        };
        let reports = sweep_cycle_time(std::slice::from_ref(&c), &opts).unwrap();
        let r = &reports[0];
        // Default models are pure difference systems: no simplex runs.
        assert_eq!((r.base_iterations, r.warm_iterations), (0, 0));
        for run in &r.runs {
            let mut model = TimingModel::build(&c).unwrap();
            let delays = perturbed_delays(&c, 0.05, 3 + run.index as u64);
            for (e, (edge, &d)) in c.edges().iter().zip(&delays).enumerate() {
                if d != edge.max_delay && model.edge_constraint(EdgeId::new(e)).is_some() {
                    model.set_edge_delay(EdgeId::new(e), edge.max_delay, d);
                }
            }
            let lp = model.solve_lp().unwrap().objective();
            assert!(
                (run.cycle_time - lp).abs() < 1e-6 * (1.0 + lp),
                "run {}: graph {} vs LP {lp}",
                run.index,
                run.cycle_time
            );
        }
    }

    #[test]
    fn runs_the_graph_cannot_settle_get_a_cold_simplex_solve() {
        // A redundant non-difference row (sum of two widths) makes the
        // model mixed: the graph declines it and the run is solved cold.
        let c = example1(80.0);
        let mut model = TimingModel::build(&c).unwrap();
        let (w1, w2, tc) = {
            let vars = model.vars();
            (
                vars.width(smo_circuit::PhaseId::new(0)),
                vars.width(smo_circuit::PhaseId::new(1)),
                vars.tc(),
            )
        };
        let expr = smo_lp::LinExpr::from(w1) + w2 - tc - tc;
        model.problem_mut().constrain(expr, smo_lp::Sense::Le, 0.0);
        let cold = model.solve_lp().unwrap();
        for certify in [false, true] {
            let options = SweepOptions {
                param: SweepParam::Delay { spread: 0.0 },
                certify,
                ..Default::default()
            };
            let run = run_one(&c, &mut model, 0, &options).unwrap();
            assert!((run.cycle_time - cold.objective()).abs() < 1e-9);
            assert_eq!(run.iterations, cold.iterations());
        }
    }

    #[test]
    fn certify_mode_agrees_with_the_plain_sweep() {
        let c = example1(80.0);
        let opts = SweepOptions {
            param: SweepParam::Delay { spread: 0.2 },
            runs: 6,
            seed: 11,
            ..Default::default()
        };
        let plain = sweep_cycle_time(std::slice::from_ref(&c), &opts).unwrap();
        let certified = sweep_cycle_time(
            &[c],
            &SweepOptions {
                certify: true,
                ..opts
            },
        )
        .unwrap();
        for (p, q) in plain[0].runs.iter().zip(&certified[0].runs) {
            assert!((p.cycle_time - q.cycle_time).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_options_are_rejected() {
        let c = example1(80.0);
        let bad_runs = SweepOptions {
            runs: 0,
            ..Default::default()
        };
        assert!(matches!(
            sweep_cycle_time(std::slice::from_ref(&c), &bad_runs),
            Err(TimingError::InvalidOptions { .. })
        ));
        let bad_spread = SweepOptions {
            param: SweepParam::Delay { spread: 1.5 },
            ..Default::default()
        };
        assert!(matches!(
            sweep_cycle_time(std::slice::from_ref(&c), &bad_spread),
            Err(TimingError::InvalidOptions { .. })
        ));
        let bad_edge = SweepOptions {
            param: SweepParam::Tc {
                edge: EdgeId::new(99),
                max_delay: 10.0,
            },
            ..Default::default()
        };
        assert!(matches!(
            sweep_cycle_time(&[c], &bad_edge),
            Err(TimingError::InvalidOptions { .. })
        ));
    }
}
