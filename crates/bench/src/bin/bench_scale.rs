//! Scaling benchmark: certified sparse-LU solve time against the dense
//! reference tableau as the timing model grows from the paper's scale
//! (~650 rows) past 10 000 constraint rows, with jumbo sizes to 50k+ rows.
//!
//! Circuits come from the seeded pipelined-datapath generator (`smo gen`),
//! so every run measures byte-identical models. Per size, the sparse-LU
//! simplex runs one certified cycle-time LP and the dense tableau
//! ([`Problem::solve_reference`](smo_lp::Problem::solve_reference)) one
//! plain solve, each under a wall-clock deadline; a solve that hits the
//! deadline is recorded with its elapsed time at abort and
//! `timed_out = true` — an honest lower bound, never an extrapolation. At
//! the jumbo sizes the dense deadline is capped (it is known to be orders
//! of magnitude off the pace; burning an hour to prove it again adds
//! nothing), so its rows there are lower bounds by design.
//!
//! Writes `BENCH_scale.json` at the repository root (checked in as the
//! reference curve; regenerated on demand). The run aborts if the
//! sparse-LU simplex is not at least 10× faster than the dense tableau at
//! the anchor (10k-row) size, or if the two disagree on the verdict or the
//! optimum when both finish.
//!
//! `--quick` (the CI smoke mode) runs the two small sizes both ways, then
//! one sparse-only solve at the anchor size and gates its `pivots_per_sec`
//! against the checked-in `sparse_pivots_per_sec_10k` (≥ half, to absorb
//! shared-runner noise) — a cheap tripwire against kernel regressions.

use std::time::{Duration, Instant};

use smo_core::TimingModel;
use smo_gen::datapath::{pipelined_datapath, DatapathConfig};
use smo_lp::{LpError, RecoveryPolicy, SolveBudget, Tol};

/// Latch targets chosen so the models land near 650 / 2k / 5k / 10k /
/// 25k / 50k rows (rows ≈ 3 × latches + a little).
const SIZES: [usize; 6] = [216, 667, 1_667, 3_333, 8_333, 16_667];
/// Index into [`SIZES`] of the anchor size (~10k rows): the largest size
/// both engines run with full deadline headroom, where the 10× gate and
/// the `sparse_pivots_per_sec_10k` reference are evaluated.
const ANCHOR: usize = 3;
/// `--quick` keeps only the first `QUICK_SIZES` sizes for the two-way
/// comparison (the full curve is the checked-in artifact).
const QUICK_SIZES: usize = 2;
/// Floor for the dense deadline so tiny models never time out.
const MIN_DEADLINE: Duration = Duration::from_secs(10);
/// Dense deadline = `DEADLINE_FACTOR × sparse seconds` (min
/// clamped): enough headroom that the 10× gate is decided by measurement,
/// not by the deadline itself. Applied through the anchor size only.
const DEADLINE_FACTOR: f64 = 12.0;
/// Dense deadline cap at the jumbo (post-anchor) sizes: its rows become
/// capped lower bounds rather than hour-long reruns of a
/// foregone conclusion.
const JUMBO_DEADLINE: Duration = Duration::from_secs(60);
/// Sparse-LU deadline at the jumbo sizes. The bench *fails* if sparse
/// cannot certify inside this — that is the scaling claim under test.
const SPARSE_JUMBO_DEADLINE: Duration = Duration::from_secs(1_800);
/// The scaling gate at the anchor size.
const MIN_SPEEDUP: f64 = 10.0;
/// Quick-mode gate: measured anchor-size sparse `pivots_per_sec` must be
/// at least this fraction of the checked-in reference.
const QUICK_THROUGHPUT_FRACTION: f64 = 0.5;

struct Measurement {
    variant: &'static str,
    seconds: f64,
    iterations: usize,
    timed_out: bool,
    objective: Option<f64>,
    /// Sparse-LU kernel counters (`None` for dense and for timed-out
    /// solves).
    stats: Option<smo_lp::SolveStats>,
}

impl Measurement {
    fn pivots_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.iterations as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Budget for an optional wall-clock deadline.
fn budget(deadline: Option<Duration>) -> SolveBudget {
    match deadline {
        Some(d) => SolveBudget::with_time_limit(d),
        None => SolveBudget::UNLIMITED,
    }
}

/// One certified sparse-LU solve of `model`'s cycle-time LP.
fn sparse_solve(model: &TimingModel, deadline: Option<Duration>) -> Measurement {
    let policy = RecoveryPolicy {
        budget: budget(deadline),
    };
    let start = Instant::now();
    match model.problem().solve_certified(&policy) {
        Ok(certified) => {
            assert!(
                certified.status() == smo_lp::Status::Optimal,
                "sparse-lu: expected an optimal verdict, got {:?}",
                certified.status()
            );
            Measurement {
                variant: "sparse-lu",
                seconds: start.elapsed().as_secs_f64(),
                iterations: certified.iterations(),
                timed_out: false,
                objective: certified.solution().objective(),
                stats: certified.solution().stats().copied(),
            }
        }
        Err(e) => timed_out("sparse-lu", start, e),
    }
}

/// One dense reference-tableau solve of `model`'s cycle-time LP, its
/// optimum checked against the KKT certificate.
fn dense_solve(model: &TimingModel, deadline: Duration) -> Measurement {
    let start = Instant::now();
    match model.problem().solve_reference(budget(Some(deadline))) {
        Ok(sol) => {
            let cert = sol.certify(model.problem());
            assert!(
                sol.status() == smo_lp::Status::Optimal && cert.is_valid(),
                "dense: expected a certified optimum, got {:?} ({cert})",
                sol.status()
            );
            Measurement {
                variant: "dense",
                seconds: start.elapsed().as_secs_f64(),
                iterations: sol.iterations(),
                timed_out: false,
                objective: sol.objective(),
                stats: None,
            }
        }
        Err(e) => timed_out("dense", start, e),
    }
}

/// The measurement of a solve that hit its deadline; any other failure
/// aborts the run.
fn timed_out(name: &'static str, start: Instant, e: LpError) -> Measurement {
    match e {
        LpError::Budget { iterations, .. } => Measurement {
            variant: name,
            seconds: start.elapsed().as_secs_f64(),
            iterations,
            timed_out: true,
            objective: None,
            stats: None,
        },
        e => panic!("{name}: solve failed: {e}"),
    }
}

fn build_model(latches: usize) -> TimingModel {
    let config = DatapathConfig::with_latches(latches);
    let circuit = pipelined_datapath(&config, 7);
    TimingModel::build(&circuit).expect("model builds")
}

/// Pulls `"sparse_pivots_per_sec_10k": <number>` out of the checked-in
/// curve without a JSON dependency (the writer below is hand-rolled too).
fn checked_in_throughput(json: &str) -> Option<f64> {
    let key = "\"sparse_pivots_per_sec_10k\":";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    smo_bench::header(if quick {
        "Solver scaling, dense vs sparse-LU (quick: small sizes + 10k-row throughput gate)"
    } else {
        "Solver scaling, dense vs sparse-LU (to 50k+ rows)"
    });

    let sizes = if quick {
        &SIZES[..QUICK_SIZES]
    } else {
        &SIZES[..]
    };
    let widths = [8, 8, 10, 12, 10, 9, 10, 8, 10, 12];
    println!(
        "{}",
        smo_bench::row(
            &[
                "latches",
                "rows",
                "variant",
                "seconds",
                "iters",
                "timeout",
                "piv/s",
                "refacs",
                "eta-fill",
                "objective"
            ],
            &widths
        )
    );
    let print_row = |rows: usize, latches: usize, m: &Measurement| {
        let (refacs, eta_fill) = m
            .stats
            .as_ref()
            .map_or((String::new(), String::new()), |s| {
                (s.refactorizations.to_string(), s.peak_eta_nnz.to_string())
            });
        println!(
            "{}",
            smo_bench::row(
                &[
                    &latches.to_string(),
                    &rows.to_string(),
                    m.variant,
                    &format!("{:.3}", m.seconds),
                    &m.iterations.to_string(),
                    if m.timed_out { "yes" } else { "" },
                    &format!("{:.0}", m.pivots_per_sec()),
                    &refacs,
                    &eta_fill,
                    &m.objective.map_or(String::new(), |o| format!("{o:.4}")),
                ],
                &widths
            )
        );
    };

    let mut curve: Vec<(usize, usize, Vec<Measurement>)> = Vec::new();
    for (s, &latches) in sizes.iter().enumerate() {
        let jumbo = s > ANCHOR;
        let model = build_model(latches);
        let rows = model.num_constraints();

        // Sparse first: it sets the honest deadline for the others.
        let sparse_deadline = jumbo.then_some(SPARSE_JUMBO_DEADLINE);
        let sparse = sparse_solve(&model, sparse_deadline);
        assert!(
            !sparse.timed_out,
            "sparse-lu timed out at {rows} rows ({latches} latches): the hypersparse \
             kernels are supposed to carry this size inside {SPARSE_JUMBO_DEADLINE:?}"
        );
        let mut deadline =
            Duration::from_secs_f64(sparse.seconds * DEADLINE_FACTOR).max(MIN_DEADLINE);
        if jumbo {
            deadline = deadline.min(JUMBO_DEADLINE);
        }
        let dense = dense_solve(&model, deadline);
        for m in [&sparse, &dense] {
            print_row(rows, latches, m);
        }

        // When both finished they must agree exactly (the certificates
        // already vouch for each one individually).
        if let (Some(a), Some(b)) = (sparse.objective, dense.objective) {
            assert!(
                Tol::TIGHT.is_zero(a - b, a.abs().max(1.0)),
                "objective mismatch at {rows} rows: sparse-lu={a} vs dense={b}"
            );
        }
        curve.push((latches, rows, vec![sparse, dense]));
    }

    if quick {
        // Sparse-only anchor-size solve: the pivots_per_sec tripwire.
        let model = build_model(SIZES[ANCHOR]);
        let rows = model.num_constraints();
        let sparse = sparse_solve(&model, None);
        print_row(rows, SIZES[ANCHOR], &sparse);
        let measured = sparse.pivots_per_sec();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
        let reference = std::fs::read_to_string(path)
            .ok()
            .as_deref()
            .and_then(checked_in_throughput);
        match reference {
            Some(reference) => {
                let floor = reference * QUICK_THROUGHPUT_FRACTION;
                println!();
                println!(
                    "10k-row sparse throughput: {measured:.0} pivots/s \
                     (checked-in {reference:.0}, floor {floor:.0})"
                );
                assert!(
                    measured >= floor,
                    "sparse-LU throughput regression at {rows} rows: {measured:.0} pivots/s \
                     is below {QUICK_THROUGHPUT_FRACTION}x the checked-in {reference:.0}"
                );
            }
            None => println!("(no sparse_pivots_per_sec_10k in BENCH_scale.json; gate skipped)"),
        }
        println!("(quick mode: BENCH_scale.json left untouched)");
        return;
    }

    let (_, anchor_rows, anchor) = &curve[ANCHOR];
    let sparse_s = anchor[0].seconds;
    let dense_s = anchor[1].seconds;
    let speedup = dense_s / sparse_s;
    let sparse_pps_10k = anchor[0].pivots_per_sec();
    println!();
    println!(
        "anchor size ({anchor_rows} rows): sparse {sparse_s:.3}s vs dense {dense_s:.3}s{} -> {speedup:.1}x",
        if anchor[1].timed_out {
            " (deadline lower bound)"
        } else {
            ""
        }
    );

    let mut sizes_json = String::new();
    for (latches, rows, all) in &curve {
        if !sizes_json.is_empty() {
            sizes_json.push_str(",\n");
        }
        let mut variants = String::new();
        for m in all {
            if !variants.is_empty() {
                variants.push_str(", ");
            }
            variants.push_str(&format!(
                "\"{}\": {{\"seconds\": {:.3}, \"iterations\": {}, \"timed_out\": {}, \
                 \"pivots_per_sec\": {:.1}",
                m.variant,
                m.seconds,
                m.iterations,
                m.timed_out,
                m.pivots_per_sec()
            ));
            if let Some(st) = &m.stats {
                variants.push_str(&format!(
                    ", \"refactorizations\": {}, \"eta_fill\": {}, \"factor_nnz\": {}",
                    st.refactorizations, st.peak_eta_nnz, st.factor_nnz
                ));
            }
            variants.push('}');
        }
        sizes_json.push_str(&format!(
            "    {{\"latches\": {latches}, \"rows\": {rows}, {variants}}}"
        ));
    }
    let json = format!(
        "{{\n  \"_schema\": \"rows-vs-seconds scaling curve on seeded pipelined datapaths \
         (smo gen, seed 7); per size one certified sparse-LU cycle-time LP solve and one \
         dense reference-tableau solve (KKT-checked); \
         timed_out=true means the solve hit its deadline (dense: max(10s, 12 x sparse \
         seconds), capped at 60s past the 10k-row anchor where dense is a pure lower bound) \
         and seconds is the elapsed lower bound at abort, never an extrapolation; \
         solves that finish must agree on verdict and objective to Tol::TIGHT; \
         eta_fill is the peak eta-file nonzero count between refactorizations; \
         gate (single source of truth, like the speedup >= 2 gate in BENCH_sweep.json): \
         at the anchor (10k-row) size dense_seconds / sparse_seconds must stay >= \
         {MIN_SPEEDUP}, and quick mode re-measures sparse pivots_per_sec there against \
         sparse_pivots_per_sec_10k\",\
         \n  \"seed\": 7,\n  \"sizes\": [\n{sizes_json}\n  ],\n  \
         \"largest_speedup_dense_over_sparse\": {speedup:.2},\n  \
         \"sparse_pivots_per_sec_10k\": {sparse_pps_10k:.1}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, json).expect("write BENCH_scale.json");
    println!("wrote {path}");

    assert!(
        speedup >= MIN_SPEEDUP,
        "scaling regression: sparse-LU only {speedup:.1}x faster than dense at {anchor_rows} \
         rows (gate: >= {MIN_SPEEDUP}x)"
    );
}
