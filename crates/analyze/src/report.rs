//! `smo analyze` — the constraint-system report.
//!
//! One pass that cross-checks two independent views of a circuit's cycle
//! time:
//!
//! 1. the **combinatorial bracket** `lower ≤ Tc* ≤ upper` from
//!    [`smo_core::cycle_time_bounds`] (no LP),
//! 2. the **certified LP optimum**: the default `auto` solve that
//!    `smo solve` makes (the exact min-cycle-ratio graph backend on a pure
//!    difference-constraint model, the sparse-LU simplex otherwise), with
//!    its KKT certificate, which proves the optimum of LP P2 from the raw
//!    rows whichever solver found it.
//!
//! The bracket must contain the optimum, or [`analyze`] returns a hard
//! [`AnalyzeError`] rather than a report: a disagreement means a bug in the
//! bound derivation or the solver, not in the circuit. An invalid
//! certificate is reported in [`AnalyzeReport::certificate`], and
//! `smo analyze` exits 2 on it as on a disagreement.
//!
//! The report also classifies the rows family by family (the paper's
//! C1–C3 clock rows, L1 setup, L2R propagation, flip-flop rows) into the
//! difference fragment the graph backend handles and the general rest.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smo_circuit::json::Json;
use smo_circuit::Circuit;
use smo_core::{
    classify_model, cycle_time_bounds, solve_model_with, Backend, ConstraintKind, CycleTimeBounds,
    MlpOptions, TimingError, TimingModel,
};
use std::fmt;

/// The paper-facing constraint families used for the classification
/// breakdown.
/// Ordered as they appear in §III of the paper.
const FAMILIES: [&str; 8] = [
    "C1",
    "C2",
    "C3",
    "L1",
    "L2R",
    "FF setup",
    "FF departure",
    "extra",
];

/// Maps a row's provenance to its paper family (index into [`FAMILIES`]).
fn family_index(kind: ConstraintKind) -> usize {
    match kind {
        ConstraintKind::PeriodicityWidth | ConstraintKind::PeriodicityStart => 0,
        ConstraintKind::PhaseOrder => 1,
        ConstraintKind::PhaseNonoverlap => 2,
        ConstraintKind::Setup => 3,
        ConstraintKind::Propagation => 4,
        ConstraintKind::FlipFlopSetup => 5,
        ConstraintKind::FlipFlopDeparture => 6,
        ConstraintKind::MinWidth
        | ConstraintKind::CycleBound
        | ConstraintKind::SymmetricClock
        | ConstraintKind::PinnedDeparture => 7,
    }
}

/// Why [`analyze`] could not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// Building or solving the timing model failed. The error is kept
    /// whole, so a caller can classify it as a plain solve's error.
    Timing(TimingError),
    /// The LP optimum fell outside the combinatorial bracket — an internal
    /// soundness failure (bug in the bounds or the model), never a property
    /// of the circuit.
    BoundsDisagree {
        /// Certified combinatorial lower bound.
        lower: f64,
        /// Certified combinatorial upper bound.
        upper: f64,
        /// The LP optimum that escaped the bracket.
        optimum: f64,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Timing(e) => write!(f, "{e}"),
            AnalyzeError::BoundsDisagree {
                lower,
                upper,
                optimum,
            } => write!(
                f,
                "soundness failure: LP optimum {optimum} escapes the certified \
                 combinatorial bracket [{lower}, {upper}]"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<TimingError> for AnalyzeError {
    fn from(e: TimingError) -> Self {
        AnalyzeError::Timing(e)
    }
}

/// The `smo analyze` report: bracket, certified LP optimum, graph optimum
/// and row classification.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeReport {
    /// Synchronizer count of the circuit.
    pub num_syncs: usize,
    /// Combinational path count of the circuit.
    pub num_edges: usize,
    /// Clock phase count of the circuit.
    pub num_phases: usize,
    /// The combinatorial bracket and its per-SCC critical cycles.
    pub bounds: CycleTimeBounds,
    /// Names of the synchronizers on each critical cycle, one string per
    /// cyclic SCC, in the same (decreasing-ratio) order as
    /// `bounds.critical`.
    pub critical_names: Vec<String>,
    /// The certified LP optimum `Tc*`, cross-checked against the bracket.
    pub optimum: f64,
    /// `optimum == bounds.lower` up to `1e-6` relative — the bracket is
    /// tight and the critical cycle alone determines the cycle time.
    pub lower_is_tight: bool,
    /// Constraint-classifier coverage per paper family, in §III order:
    /// `(family, rows, difference_rows)` where `difference_rows` counts the
    /// rows in the difference fragment (two-variable difference,
    /// single-variable, or parameter-only under the recombination).
    pub classified_by_family: Vec<(&'static str, usize, usize)>,
    /// Rows outside the difference fragment (zero means the graph backend
    /// solves this model exactly).
    pub num_general_rows: usize,
    /// The optimum when the exact min-cycle-ratio graph backend found it
    /// (`None` when the simplex did: general rows, or numerical trouble on
    /// the graph).
    pub graph_optimum: Option<f64>,
    /// Independent KKT certificate of the optimum (the weakest, when the
    /// simplex solved more than one LP): the reported optimum is not just
    /// "what the solver said" but has been re-verified from the raw
    /// constraint data (primal/dual feasibility, complementary slackness,
    /// duality gap). `None` or invalid means the optimum is unproven.
    pub certificate: Option<smo_lp::Certificate>,
}

impl AnalyzeReport {
    /// The report as JSON, its schema mirroring the `Display` output.
    pub fn json(&self) -> Json {
        let b = &self.bounds;
        let critical = b
            .critical
            .iter()
            .zip(&self.critical_names)
            .map(|(c, names)| {
                Json::obj([
                    ("cycle", names.as_str().into()),
                    ("delay", c.weight.into()),
                    ("wraps", c.wraps.into()),
                    ("ratio", c.ratio.into()),
                ])
            });
        let (rows, difference) = self
            .classified_by_family
            .iter()
            .fold((0, 0), |(r, d), (_, rows, diff)| (r + rows, d + diff));
        let by_family = self
            .classified_by_family
            .iter()
            .map(|&(family, rows, diff)| {
                (
                    family,
                    Json::obj([("rows", rows.into()), ("difference", diff.into())]),
                )
            });
        Json::obj([
            ("synchronizers", self.num_syncs.into()),
            ("paths", self.num_edges.into()),
            ("phases", self.num_phases.into()),
            (
                "bracket",
                Json::obj([
                    ("lower", b.lower.into()),
                    ("upper", b.upper.into()),
                    ("stage_bound", b.stage_bound.into()),
                    ("setup_floor", b.setup_floor.into()),
                ]),
            ),
            ("critical_cycles", critical.collect()),
            ("optimum", self.optimum.into()),
            (
                "certificate",
                self.certificate.as_ref().map(certificate_json).into(),
            ),
            ("lower_is_tight", self.lower_is_tight.into()),
            (
                "classification",
                Json::obj([
                    ("rows", rows.into()),
                    ("difference", difference.into()),
                    ("general", self.num_general_rows.into()),
                    ("by_family", Json::obj(by_family)),
                ]),
            ),
            ("graph_optimum", self.graph_optimum.into()),
        ])
    }

    /// [`AnalyzeReport::json`], spaced (see [`Json::render_spaced`]).
    pub fn to_json(&self) -> String {
        self.json().render_spaced()
    }
}

/// A KKT certificate as JSON: its verdict, tolerance, worst residual and
/// every named residual. `smo solve --json` and `smo analyze --json`
/// share it.
pub fn certificate_json(cert: &smo_lp::Certificate) -> Json {
    Json::obj([
        ("valid", cert.is_valid().into()),
        ("tolerance", cert.tol().into()),
        ("worst_residual", cert.worst().into()),
        (
            "residuals",
            Json::obj(
                cert.residuals()
                    .into_iter()
                    .map(|(name, r)| (name, r.into())),
            ),
        ),
    ])
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: {} synchronizer(s), {} path(s), {} phase(s)",
            self.num_syncs, self.num_edges, self.num_phases
        )?;
        writeln!(
            f,
            "cycle-time bracket: {} <= Tc* <= {}  (worst flip-flop stage W = {})",
            self.bounds.lower, self.bounds.upper, self.bounds.stage_bound
        )?;
        if self.bounds.critical.is_empty() {
            writeln!(
                f,
                "  no feedback cycles; lower bound from single-row floors"
            )?;
        }
        for (c, names) in self.bounds.critical.iter().zip(&self.critical_names) {
            writeln!(
                f,
                "  critical cycle: {}  (delay {} over {} wrap(s): Tc >= {})",
                names, c.weight, c.wraps, c.ratio
            )?;
        }
        writeln!(
            f,
            "LP optimum: Tc* = {}{}",
            self.optimum,
            if self.lower_is_tight {
                "  (lower bound is tight: the critical cycle sets the clock)"
            } else {
                ""
            }
        )?;
        if let Some(cert) = &self.certificate {
            writeln!(f, "  {cert}")?;
        }
        let total_rows: usize = self.classified_by_family.iter().map(|(_, r, _)| r).sum();
        let diff_rows: usize = self.classified_by_family.iter().map(|(_, _, d)| d).sum();
        let pct = if total_rows > 0 {
            100.0 * diff_rows as f64 / total_rows as f64
        } else {
            100.0
        };
        writeln!(
            f,
            "constraint classes: {diff_rows}/{total_rows} rows ({pct:.1}%) in the \
             difference fragment, {} general",
            self.num_general_rows
        )?;
        let by_family: Vec<String> = self
            .classified_by_family
            .iter()
            .filter(|(_, rows, _)| *rows > 0)
            .map(|(family, rows, diff)| format!("{family} {diff}/{rows}"))
            .collect();
        if !by_family.is_empty() {
            writeln!(f, "  by family: {}", by_family.join(", "))?;
        }
        match self.graph_optimum {
            Some(g) => writeln!(
                f,
                "graph backend: Tc* = {g} (exact min-cycle-ratio, KKT-certified on the LP)"
            )?,
            None => writeln!(f, "graph backend: not used here; the simplex decided")?,
        }
        Ok(())
    }
}

/// Analyzes `circuit`: computes the combinatorial bracket, makes the
/// default certified solve, and cross-checks the optimum against the
/// bracket. The caller must check [`AnalyzeReport::certificate`]: an
/// optimum whose certificate is missing or invalid is unproven.
///
/// # Errors
///
/// [`AnalyzeError::Timing`] when the model cannot be built or solved;
/// [`AnalyzeError::BoundsDisagree`] when the bracket misses the optimum (an
/// internal bug, which `smo analyze` surfaces with a distinct exit code).
pub fn analyze(circuit: &Circuit) -> Result<AnalyzeReport, AnalyzeError> {
    let model = TimingModel::build(circuit)?;

    // The default solve of `smo solve`: its optimum is KKT-checked against
    // the raw constraint data, on the graph path with the critical cycle's
    // duals.
    let sol = solve_model_with(circuit, &model, &MlpOptions::default())?;
    let optimum = sol.cycle_time();
    let certificate = sol
        .certificates()
        .iter()
        .max_by(|a, b| a.worst().total_cmp(&b.worst()))
        .cloned();
    let graph_optimum = (sol.backend() == Backend::Graph).then_some(optimum);

    // Static classification: which rows the difference-constraint graph
    // backend can represent, family by family. The graph answers pure
    // models only: after a graph solve every row is in the fragment.
    let cls = match graph_optimum {
        Some(_) => None,
        None => Some(classify_model(circuit, &model)?),
    };
    let mut class_rows = vec![0usize; FAMILIES.len()];
    let mut class_diff = vec![0usize; FAMILIES.len()];
    for info in model.constraints() {
        let fam = family_index(info.kind());
        class_rows[fam] += 1;
        class_diff[fam] += usize::from(
            cls.as_ref()
                .is_none_or(|c| c.class(info.row()).is_difference_fragment()),
        );
    }

    // The combinatorial bracket must contain the optimum.
    let bounds = cycle_time_bounds(circuit);
    if !bounds.brackets(optimum) {
        return Err(AnalyzeError::BoundsDisagree {
            lower: bounds.lower,
            upper: bounds.upper,
            optimum,
        });
    }

    let critical_names = bounds
        .critical
        .iter()
        .map(|c| {
            let mut names: Vec<&str> = c
                .cycle
                .latches
                .iter()
                .map(|&l| circuit.sync(l).name.as_str())
                .collect();
            if let Some(&first) = names.first() {
                names.push(first);
            }
            names.join(" → ")
        })
        .collect();
    let lower_is_tight = (optimum - bounds.lower).abs() <= 1e-6 * (1.0 + bounds.lower.abs());

    Ok(AnalyzeReport {
        num_syncs: circuit.num_syncs(),
        num_edges: circuit.num_edges(),
        num_phases: circuit.num_phases(),
        bounds,
        critical_names,
        optimum,
        lower_is_tight,
        classified_by_family: FAMILIES
            .iter()
            .copied()
            .zip(class_rows.iter().copied().zip(class_diff.iter().copied()))
            .map(|(f, (r, d))| (f, r, d))
            .collect(),
        num_general_rows: cls.map_or(0, |c| c.num_general()),
        graph_optimum,
        certificate,
    })
}

/// Which paper family a given original LP row belongs to, by provenance.
/// Exposed for callers that want their own breakdowns over
/// [`TimingModel::constraints`].
pub fn constraint_family(kind: ConstraintKind) -> &'static str {
    FAMILIES[family_index(kind)]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    /// The paper's Example 1 (Fig. 5) at Δ41 = 80 ns; optimum Tc = 110.
    fn example1() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 10.0, 10.0);
        let l2 = b.add_latch("L2", p(2), 10.0, 10.0);
        let l3 = b.add_latch("L3", p(1), 10.0, 10.0);
        let l4 = b.add_latch("L4", p(2), 10.0, 10.0);
        b.connect(l1, l2, 20.0);
        b.connect(l2, l3, 20.0);
        b.connect(l3, l4, 60.0);
        b.connect(l4, l1, 80.0);
        b.build().unwrap()
    }

    #[test]
    fn example1_report_is_tight_and_names_the_loop() {
        let r = analyze(&example1()).unwrap();
        assert_eq!(r.optimum, 110.0);
        assert_eq!(r.bounds.lower, 110.0);
        assert!(r.lower_is_tight);
        assert_eq!(r.critical_names.len(), 1);
        assert_eq!(r.critical_names[0], "L1 → L2 → L3 → L4 → L1");
        let text = r.to_string();
        assert!(text.contains("110 <= Tc* <= 180"), "{text}");
        assert!(text.contains("critical cycle: L1 → L2 → L3 → L4 → L1"));
        assert!(text.contains("lower bound is tight"));
    }

    #[test]
    fn json_mirrors_the_display_content() {
        let r = analyze(&example1()).unwrap();
        let json = r.json();
        assert_eq!(Json::parse(&r.to_json()), Ok(json.clone()));
        assert_eq!(json.get("optimum"), Some(&Json::Num(110.0)));
        let bracket = json.get("bracket").unwrap();
        assert_eq!(bracket.get("lower"), Some(&Json::Num(110.0)));
        assert_eq!(bracket.get("upper"), Some(&Json::Num(180.0)));
        let text = json.render_compact();
        assert!(text.contains("L1 → L2 → L3 → L4 → L1"));
        assert!(!text.contains("presolve"));
    }

    #[test]
    fn report_carries_a_valid_certificate() {
        let r = analyze(&example1()).unwrap();
        let cert = r.certificate.as_ref().expect("cross-check is certified");
        assert!(cert.is_valid(), "{cert}");
        assert!(r.to_string().contains("certified optimal"));
        let json = r.json().render_compact();
        assert!(json.contains("\"certificate\":{\"valid\":true"), "{json}");
        assert!(json.contains("\"worst_residual\""), "{json}");
        assert!(json.contains("\"duality gap\""), "{json}");
    }

    #[test]
    fn families_cover_every_constraint_kind() {
        for kind in [
            ConstraintKind::PeriodicityWidth,
            ConstraintKind::PeriodicityStart,
            ConstraintKind::PhaseOrder,
            ConstraintKind::PhaseNonoverlap,
            ConstraintKind::Setup,
            ConstraintKind::FlipFlopSetup,
            ConstraintKind::Propagation,
            ConstraintKind::FlipFlopDeparture,
            ConstraintKind::MinWidth,
            ConstraintKind::CycleBound,
            ConstraintKind::SymmetricClock,
            ConstraintKind::PinnedDeparture,
        ] {
            assert!(FAMILIES.contains(&constraint_family(kind)));
        }
        assert_eq!(constraint_family(ConstraintKind::PhaseNonoverlap), "C3");
        assert_eq!(constraint_family(ConstraintKind::Propagation), "L2R");
    }

    #[test]
    fn classifier_coverage_is_total_on_default_models() {
        let r = analyze(&example1()).unwrap();
        // Every default-model row lies in the difference fragment, so the
        // graph backend is exact and must agree with the simplex.
        assert_eq!(r.num_general_rows, 0);
        let total: usize = r.classified_by_family.iter().map(|(_, n, _)| n).sum();
        let diff: usize = r.classified_by_family.iter().map(|(_, _, d)| d).sum();
        assert_eq!(total, diff);
        assert!(total > 0);
        assert_eq!(r.graph_optimum, Some(110.0));
        let text = r.to_string();
        assert!(text.contains("difference fragment"), "{text}");
        assert!(text.contains("graph backend: Tc* = 110"), "{text}");
        let json = r.json().render_compact();
        assert!(json.contains("\"classification\""), "{json}");
        assert!(json.contains("\"graph_optimum\":110"), "{json}");
        assert!(json.contains("\"L1\":{\"rows\":"), "{json}");
    }

    #[test]
    fn disagreement_errors_render_distinctly() {
        let b = AnalyzeError::BoundsDisagree {
            lower: 10.0,
            upper: 20.0,
            optimum: 25.0,
        };
        assert!(b.to_string().contains("escapes the certified"));
    }
}
