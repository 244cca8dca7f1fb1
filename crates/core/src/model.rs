//! Constraint generation: the SMO timing model as a linear program.
//!
//! [`TimingModel::build`] turns a [`Circuit`] into the paper's problem **P2**
//! (§IV): minimize `T_c` subject to the clock constraints C1–C4 (eqs. 3–9)
//! and the latch constraints L1, **L2R** (the relaxed propagation
//! inequalities, eq. 19) and L3. Every generated LP row carries a
//! [`ConstraintInfo`] provenance record so reports can point back at the
//! circuit element responsible.
//!
//! Variable layout (all non-negative, eq. 7–9 & 18): `T_c`, then the phase
//! widths `T_1…T_k`, the phase starts `s_1…s_k`, and the departure times
//! `D_1…D_l`.
//!
//! Flip-flops (needed for the paper's Example 3) are modelled as degenerate
//! synchronizers: `D_i = 0` (departure pinned to the enabling edge) and, per
//! fan-in edge, an arrival-before-edge setup row
//! `D_j + Δ_DQj + Δ_ji + S_{pjpi} + Δ_DCi ≤ 0`.

use crate::error::TimingError;
use smo_circuit::{Circuit, ClockSchedule, ClockSpec, EdgeId, LatchId, PhaseId, SyncKind};
use smo_lp::{merge_terms, ConstraintId, LinExpr, OptimalSolution, Problem, Sense, VarId};
use std::fmt;

/// Which edges generate phase-nonoverlap (C3) rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonoverlapScope {
    /// Every input/output phase pair, exactly as in the paper (eq. 6).
    #[default]
    AllPairs,
    /// Only pairs whose destination synchronizer is a level-sensitive latch.
    ///
    /// Rationale: C3 exists to break race-through around transparent loops;
    /// an edge-triggered destination breaks the race by itself, so requiring
    /// the destination phase to close before the source phase opens is
    /// unnecessarily restrictive for flip-flop-rich designs. This is an
    /// *extension*; the default follows the paper.
    LatchDestinations,
}

/// Which latch departures are pinned to the enabling edge (`D_i = 0`),
/// i.e. forbidden from borrowing time into their phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DeparturePinning {
    /// No pinning: the paper's formulation (departures are free).
    #[default]
    None,
    /// Pin every latch: a zero-borrowing (edge-style) design. Used as the
    /// first pass of the single-borrow baseline.
    All,
    /// Pin every latch except the listed ones. Used as the second pass of
    /// the single-borrow baseline (the exceptions get to borrow).
    AllExcept(Vec<LatchId>),
}

impl DeparturePinning {
    /// Is the given latch pinned under this policy?
    pub fn is_pinned(&self, id: LatchId) -> bool {
        match self {
            DeparturePinning::None => false,
            DeparturePinning::All => true,
            DeparturePinning::AllExcept(free) => !free.contains(&id),
        }
    }
}

/// Options controlling constraint generation.
///
/// The defaults reproduce the paper's "minimum set of requirements"; the
/// extras implement the further requirements the paper mentions as easy
/// additions (§III-A: "minimum phase width, minimum phase separation, and
/// clock skew, can be easily added").
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintOptions {
    /// Lower bound on every phase width `T_i` (default `0`).
    pub min_phase_width: f64,
    /// Extra separation required by each nonoverlap row:
    /// `s_i ≥ s_j + T_j + sep − C_ji·T_c` (default `0`).
    pub min_separation: f64,
    /// Which edges generate C3 rows.
    pub nonoverlap_scope: NonoverlapScope,
    /// Fix the cycle time to this value instead of leaving it free.
    pub fixed_cycle: Option<f64>,
    /// Upper bound on the cycle time (e.g. a target to check against).
    pub max_cycle: Option<f64>,
    /// Force an evenly spaced, equal-width clock:
    /// `s_i = (i−1)·T_c/k` and `T_i = T_c/k − min_separation`.
    ///
    /// Used by the NRIP-like symmetric baseline.
    pub symmetric_clock: bool,
    /// Margin subtracted from every setup row to model clock skew /
    /// uncertainty (§III-A's "clock skew" extra; default `0`).
    pub setup_margin: f64,
    /// Pin selected latch departures to their enabling edge (`D_i = 0`),
    /// forbidding time borrowing there. Used by the heuristic baselines.
    pub pinning: DeparturePinning,
}

impl Default for ConstraintOptions {
    fn default() -> Self {
        ConstraintOptions {
            min_phase_width: 0.0,
            min_separation: 0.0,
            nonoverlap_scope: NonoverlapScope::AllPairs,
            fixed_cycle: None,
            max_cycle: None,
            symmetric_clock: false,
            setup_margin: 0.0,
            pinning: DeparturePinning::None,
        }
    }
}

impl ConstraintOptions {
    /// Validates option values.
    fn validate(&self) -> Result<(), TimingError> {
        let bad = |what: &str, v: f64| {
            Err(TimingError::InvalidOptions {
                reason: format!("option {what} = {v} must be finite and non-negative"),
            })
        };
        for (what, v) in [
            ("min_phase_width", self.min_phase_width),
            ("min_separation", self.min_separation),
            ("setup_margin", self.setup_margin),
        ] {
            if !v.is_finite() || v < 0.0 {
                return bad(what, v);
            }
        }
        for (what, v) in [
            ("fixed_cycle", self.fixed_cycle),
            ("max_cycle", self.max_cycle),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || v < 0.0 {
                    return bad(what, v);
                }
            }
        }
        Ok(())
    }
}

/// The category of a generated constraint row (provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// C1: `T_i ≤ T_c` (eq. 3).
    PeriodicityWidth,
    /// C1: `s_i ≤ T_c` (eq. 4).
    PeriodicityStart,
    /// C2: `s_i ≤ s_{i+1}` (eq. 5).
    PhaseOrder,
    /// C3: `s_i ≥ s_j + T_j − C_ji·T_c` (eq. 6).
    PhaseNonoverlap,
    /// L1: `D_i + Δ_DCi ≤ T_{p_i}` (eq. 16) for latches.
    Setup,
    /// Flip-flop setup at the enabling edge (per fan-in edge).
    FlipFlopSetup,
    /// L2R: `D_i ≥ D_j + Δ_DQj + Δ_ji + S_{p_jp_i}` (eq. 19).
    Propagation,
    /// Flip-flop departure pinned to the edge: `D_i = 0`.
    FlipFlopDeparture,
    /// Extra: minimum phase width.
    MinWidth,
    /// Extra: fixed or bounded cycle time.
    CycleBound,
    /// Extra: symmetric-clock shape rows.
    SymmetricClock,
    /// Extra: a latch departure pinned to its enabling edge (`D_i = 0`).
    PinnedDeparture,
}

impl ConstraintKind {
    /// The row label, e.g. `"propagation"`; also the kind's `Display`
    /// text and the name of each LP row of this kind.
    pub fn label(self) -> &'static str {
        match self {
            ConstraintKind::PeriodicityWidth => "periodicity (width)",
            ConstraintKind::PeriodicityStart => "periodicity (start)",
            ConstraintKind::PhaseOrder => "phase ordering",
            ConstraintKind::PhaseNonoverlap => "phase nonoverlap",
            ConstraintKind::Setup => "latch setup",
            ConstraintKind::FlipFlopSetup => "flip-flop setup",
            ConstraintKind::Propagation => "propagation",
            ConstraintKind::FlipFlopDeparture => "flip-flop departure",
            ConstraintKind::MinWidth => "minimum phase width",
            ConstraintKind::CycleBound => "cycle-time bound",
            ConstraintKind::SymmetricClock => "symmetric clock shape",
            ConstraintKind::PinnedDeparture => "pinned departure",
        }
    }
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Marks an absent latch, edge or phase in a [`ConstraintInfo`].
const NONE: u32 = u32::MAX;

/// Provenance of one LP row: a heap-free record of the row's kind and of
/// the circuit elements it is about, each stored as a `u32` index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintInfo {
    kind: ConstraintKind,
    row: u32,
    latch: u32,
    edge: u32,
    phases: [u32; 2],
}

impl ConstraintInfo {
    /// What kind of row this is.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// LP row handle (usable with the solved model's duals/slacks).
    pub fn row(&self) -> ConstraintId {
        ConstraintId::new(self.row as usize)
    }

    /// The synchronizer this row is about, if any.
    pub fn latch(&self) -> Option<LatchId> {
        (self.latch != NONE).then(|| LatchId::new(self.latch as usize))
    }

    /// The combinational edge this row is about, if any.
    pub fn edge(&self) -> Option<EdgeId> {
        (self.edge != NONE).then(|| EdgeId::new(self.edge as usize))
    }

    /// The `i`-th phase this row is about (`i` is 0 or 1), if any: the
    /// phase of a periodicity, setup, departure, minimum-width or
    /// symmetric-clock row; the source then the destination phase of an
    /// edge row; the earlier then the later phase of an ordering row; the
    /// opening then the closing phase of a nonoverlap row.
    pub fn phase(&self, i: usize) -> Option<PhaseId> {
        let p = *self.phases.get(i)?;
        (p != NONE).then(|| PhaseId::new(p as usize))
    }
}

/// Maps timing variables to LP variables.
#[derive(Debug, Clone)]
pub struct VarMap {
    tc: VarId,
    widths: Vec<VarId>,
    starts: Vec<VarId>,
    departures: Vec<VarId>,
}

impl VarMap {
    /// The cycle-time variable `T_c`.
    pub fn tc(&self) -> VarId {
        self.tc
    }

    /// The width variable `T_i` of a phase.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn width(&self, p: PhaseId) -> VarId {
        self.widths[p.index()]
    }

    /// The start variable `s_i` of a phase.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn start(&self, p: PhaseId) -> VarId {
        self.starts[p.index()]
    }

    /// The departure variable `D_i` of a synchronizer.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn departure(&self, l: LatchId) -> VarId {
        self.departures[l.index()]
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.widths.len()
    }

    /// Number of synchronizers.
    pub fn num_latches(&self) -> usize {
        self.departures.len()
    }
}

/// The symbolic phase-shift operator `S_{ij}` as a linear expression
/// (eq. 12): `s_i − s_j − C_ij·T_c`, with `i` the source phase and `j` the
/// destination.
pub fn shift_expr(vars: &VarMap, from: PhaseId, to: PhaseId) -> LinExpr {
    let (terms, n) = shift_terms(vars, from, to, 1.0);
    let mut e = LinExpr::new();
    for &(v, c) in &terms[..n] {
        e.add_term(v, c);
    }
    e
}

/// `sign · S_{from,to}` (see [`shift_expr`]) as terms in listing order:
/// the first `n` of the returned array, `T_c`'s only when `C_ij = 1`.
fn shift_terms(vars: &VarMap, from: PhaseId, to: PhaseId, sign: f64) -> ([(VarId, f64); 3], usize) {
    let terms = [
        (vars.start(from), sign),
        (vars.start(to), -sign),
        (vars.tc(), -sign),
    ];
    (terms, 2 + usize::from(ClockSpec::c_flag(from, to)))
}

/// The SMO timing constraints of a circuit, encoded as an LP, with full
/// provenance.
#[derive(Debug, Clone)]
pub struct TimingModel {
    problem: Problem,
    vars: VarMap,
    infos: Vec<ConstraintInfo>,
    /// Each edge's delay row (see [`TimingModel::edge_constraint`]), by
    /// edge index; [`NONE`] for an edge without one.
    edge_rows: Vec<u32>,
    options: ConstraintOptions,
}

impl TimingModel {
    /// Builds the paper's problem P2 for `circuit` with default options.
    ///
    /// # Errors
    ///
    /// Propagates invalid-option and LP construction errors.
    pub fn build(circuit: &Circuit) -> Result<Self, TimingError> {
        Self::build_with(circuit, &ConstraintOptions::default())
    }

    /// Builds problem P2 with explicit [`ConstraintOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::Infeasible`] for invalid option values.
    pub fn build_with(circuit: &Circuit, options: &ConstraintOptions) -> Result<Self, TimingError> {
        options.validate()?;
        let k = circuit.num_phases();
        let l = circuit.num_syncs();

        // C3 pairs: K_ij = 1 for source phase i, destination phase j.
        let mut k_pairs = smo_circuit::BoolMatrix::new(k);
        for e in circuit.edges() {
            if options.nonoverlap_scope == NonoverlapScope::LatchDestinations
                && circuit.sync(e.to).kind != SyncKind::Latch
            {
                continue;
            }
            let pi = circuit.sync(e.from).phase;
            let pj = circuit.sync(e.to).phase;
            k_pairs.set(pi.index(), pj.index(), true);
        }

        // Variables: `T_c`, then `T_1…T_k`, `s_1…s_k`, `D_1…D_l`, their
        // names written straight into the problem's name store.
        let names_len = "Tc".len() + 2 * name_bytes(k) + name_bytes(l);
        let mut p = Problem::new();
        let vars = {
            // Counting needs the variable handles, which only a problem
            // hands out: size its variable store exactly first.
            p.reserve(1 + 2 * k + l, names_len, 0, 0);
            let tc = p.add_var("Tc");
            let widths = (1..=k).map(|i| p.add_var(format_args!("T{i}"))).collect();
            let starts = (1..=k).map(|i| p.add_var(format_args!("s{i}"))).collect();
            let departures = (1..=l).map(|i| p.add_var(format_args!("D{i}"))).collect();
            VarMap {
                tc,
                widths,
                starts,
                departures,
            }
        };

        // Count the rows and their terms, then store them in an arena of
        // exactly that size: no allocation per row.
        let (mut rows, mut terms) = (0usize, 0usize);
        each_row(circuit, options, &vars, &k_pairs, &mut |r| {
            rows += 1;
            terms += r.terms.len();
        });
        let too_big = [rows, l, circuit.num_edges(), k]
            .iter()
            .any(|&n| n >= NONE as usize);
        if too_big {
            return Err(TimingError::InvalidOptions {
                reason: format!(
                    "the timing model needs fewer than {NONE} rows, synchronizers, \
                     edges and phases"
                ),
            });
        }
        p.reserve(0, 0, rows, terms);
        let mut infos = Vec::with_capacity(rows);
        let mut edge_rows = vec![NONE; circuit.num_edges()];
        let index = |i: usize| i as u32;
        each_row(circuit, options, &vars, &k_pairs, &mut |r| {
            let row = p.constrain_terms(Some(r.kind.label()), r.terms, r.sense, r.rhs);
            let row = index(row.index());
            if let (Some(e), ConstraintKind::Propagation | ConstraintKind::FlipFlopSetup) =
                (r.edge, r.kind)
            {
                if edge_rows[e.index()] == NONE {
                    edge_rows[e.index()] = row;
                }
            }
            let phase = |i: usize| r.phases.get(i).map_or(NONE, |ph| index(ph.index()));
            infos.push(ConstraintInfo {
                kind: r.kind,
                row,
                latch: r.latch.map_or(NONE, |id| index(id.index())),
                edge: r.edge.map_or(NONE, |e| index(e.index())),
                phases: [phase(0), phase(1)],
            });
        });
        p.minimize(vars.tc().into());
        Ok(TimingModel {
            problem: p,
            vars,
            infos,
            edge_rows,
            options: options.clone(),
        })
    }

    /// The underlying LP.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Mutable access to the underlying LP, for advanced uses (adding custom
    /// rows, changing a right-hand side for a sweep).
    pub fn problem_mut(&mut self) -> &mut Problem {
        &mut self.problem
    }

    /// The variable layout.
    pub fn vars(&self) -> &VarMap {
        &self.vars
    }

    /// Provenance records, one per generated LP row, in row order.
    pub fn constraints(&self) -> &[ConstraintInfo] {
        &self.infos
    }

    /// Number of generated constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.infos.len()
    }

    /// The options the model was built with.
    pub fn options(&self) -> &ConstraintOptions {
        &self.options
    }

    /// The LP row carrying a given edge's propagation (or flip-flop setup)
    /// constraint — the row whose RHS contains that edge's `Δ_ji`, which is
    /// what parametric delay studies perturb.
    pub fn edge_constraint(&self, edge: EdgeId) -> Option<ConstraintId> {
        let row = *self.edge_rows.get(edge.index())?;
        (row != NONE).then(|| ConstraintId::new(row as usize))
    }

    /// Updates the combinational delay an edge contributes to its
    /// propagation (or flip-flop setup) row, enabling cheap what-if
    /// re-solves without rebuilding the model.
    ///
    /// Only the LP is touched; the caller's [`Circuit`] is not modified, so
    /// downstream fixpoint/verification steps should be run against a
    /// matching modified circuit if needed.
    ///
    /// # Panics
    ///
    /// Panics if `edge` has no delay row in this model.
    pub fn set_edge_delay(&mut self, edge: EdgeId, old_delay: f64, new_delay: f64) {
        let row = self
            .edge_constraint(edge)
            .expect("edge has a propagation or FF-setup row");
        let rhs = self.problem.constraint(row).2;
        let sign = self.delay_sign(row);
        self.problem
            .set_rhs(row, rhs + sign * (new_delay - old_delay));
    }

    /// How an edge delay enters its row's right-hand side: `+Δ` in a `≥`
    /// propagation row, `−Δ` in a `≤` flip-flop setup row.
    pub(crate) fn delay_sign(&self, row: ConstraintId) -> f64 {
        match self.problem.constraint(row).1 {
            Sense::Ge => 1.0,
            Sense::Le => -1.0,
            Sense::Eq => unreachable!("edge rows are inequalities"),
        }
    }

    /// Solves the LP and returns the raw optimal solution.
    ///
    /// # Errors
    ///
    /// [`TimingError::Infeasible`] / [`TimingError::Unbounded`] for those
    /// statuses, [`TimingError::Lp`] for solver failures.
    pub fn solve_lp(&self) -> Result<OptimalSolution, TimingError> {
        optimal(self.problem.solve()?)
    }

    /// Like [`TimingModel::solve_lp`], but the verdict is independently
    /// machine-checked: the solve walks the numerical recovery ladder of
    /// [`Problem::solve_certified`](smo_lp::Problem::solve_certified)
    /// (geometric-mean equilibration, Bland pricing on a fresh
    /// factorization, one round of iterative refinement) until a
    /// certificate of optimality — evaluated against the original,
    /// unscaled constraint rows — passes.
    ///
    /// # Errors
    ///
    /// As [`TimingModel::solve_lp`], plus
    /// [`smo_lp::LpError::CertificationFailed`] (wrapped in
    /// [`TimingError::Lp`]) when no rung of the ladder certifies, and
    /// [`smo_lp::LpError::Budget`] when the policy's budget runs out.
    pub fn solve_lp_certified(
        &self,
        policy: &smo_lp::RecoveryPolicy,
    ) -> Result<(OptimalSolution, smo_lp::Certificate), TimingError> {
        let certified = self.problem.solve_certified(policy)?;
        match certified.status() {
            smo_lp::Status::Optimal => {
                let Some(cert) = certified.certificate().cloned() else {
                    return Err(TimingError::Lp(smo_lp::LpError::Numerical {
                        context: "certified solve returned optimal without a certificate".into(),
                    }));
                };
                Ok((certified.into_solution().into_optimal()?, cert))
            }
            smo_lp::Status::Infeasible => Err(TimingError::Infeasible {
                reason: "the clock and latch constraints admit no schedule \
                         (check fixed/max cycle time and minimum width options); \
                         infeasibility confirmed by a Farkas certificate"
                    .into(),
            }),
            smo_lp::Status::Unbounded => Err(TimingError::Unbounded),
        }
    }

    /// The uncertified analogue of [`TimingModel::solve_lp_certified`]:
    /// one plain cold solve under a wall-clock / iteration budget, so
    /// `--time-limit` holds even with `--no-certify`.
    ///
    /// # Errors
    ///
    /// As [`TimingModel::solve_lp`], plus [`smo_lp::LpError::Budget`]
    /// (wrapped in [`TimingError::Lp`]) when the budget runs out.
    pub fn solve_lp_budgeted(
        &self,
        budget: smo_lp::SolveBudget,
    ) -> Result<OptimalSolution, TimingError> {
        optimal(self.problem.solve_with_budget(budget)?)
    }

    /// Extracts the clock schedule from an LP solution of this model.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::Circuit`] if the extracted values fail
    /// schedule validation (indicates a numerical problem).
    pub fn extract_schedule(&self, sol: &OptimalSolution) -> Result<ClockSchedule, TimingError> {
        let k = self.vars.num_phases();
        let cycle = sol.value(self.vars.tc());
        let clamp = |v: f64| if v.abs() < 1e-9 { 0.0 } else { v };
        let mut starts: Vec<f64> = (0..k)
            .map(|i| clamp(sol.value(self.vars.start(PhaseId::new(i)))))
            .collect();
        let widths = (0..k)
            .map(|i| clamp(sol.value(self.vars.width(PhaseId::new(i)))))
            .collect();
        // Guard against tiny negative/ordering noise from the solver.
        for i in 1..k {
            if starts[i] < starts[i - 1] {
                starts[i] = starts[i - 1];
            }
        }
        Ok(ClockSchedule::new(clamp(cycle), starts, widths)?)
    }

    /// Extracts the departure-time vector from an LP solution of this model.
    pub fn extract_departures(&self, sol: &OptimalSolution) -> Vec<f64> {
        (0..self.vars.num_latches())
            .map(|i| sol.value(self.vars.departure(LatchId::new(i))).max(0.0))
            .collect()
    }
}

/// The most terms a generated row lists before merging (a flip-flop
/// setup or propagation row: two departures, two starts and `T_c`).
const MAX_TERMS: usize = 5;

/// One row of P2 as [`each_row`] lists it, its terms merged.
struct RowSpec<'a> {
    kind: ConstraintKind,
    latch: Option<LatchId>,
    edge: Option<EdgeId>,
    phases: &'a [PhaseId],
    terms: &'a [(VarId, f64)],
    sense: Sense,
    rhs: f64,
}

/// Lists every row of P2 for `circuit` in row order. Each row's terms
/// are listed in the order a [`LinExpr`] would add them, and merged on
/// the stack as it would merge them, so the stored rows are the ones the
/// expression builder makes.
fn each_row(
    circuit: &Circuit,
    options: &ConstraintOptions,
    vars: &VarMap,
    k_pairs: &smo_circuit::BoolMatrix,
    emit: &mut dyn FnMut(RowSpec<'_>),
) {
    let k = circuit.num_phases();
    let tc = vars.tc();
    let mut row = |kind: ConstraintKind,
                   latch: Option<LatchId>,
                   edge: Option<EdgeId>,
                   phases: &[PhaseId],
                   listed: &[(VarId, f64)],
                   sense: Sense,
                   rhs: f64| {
        let mut buf = [(tc, 0.0); MAX_TERMS];
        buf[..listed.len()].copy_from_slice(listed);
        let n = merge_terms(&mut buf[..listed.len()]);
        emit(RowSpec {
            kind,
            latch,
            edge,
            phases,
            terms: &buf[..n],
            sense,
            rhs,
        });
    };

    // -- C1: periodicity (eqs. 3-4) ---------------------------------------
    for i in 0..k {
        let ph = PhaseId::new(i);
        let (width, start) = (vars.width(ph), vars.start(ph));
        row(
            ConstraintKind::PeriodicityWidth,
            None,
            None,
            &[ph],
            &[(width, 1.0), (tc, -1.0)],
            Sense::Le,
            0.0,
        );
        row(
            ConstraintKind::PeriodicityStart,
            None,
            None,
            &[ph],
            &[(start, 1.0), (tc, -1.0)],
            Sense::Le,
            0.0,
        );
    }

    // -- C2: phase ordering (eq. 5) ----------------------------------------
    for i in 0..k.saturating_sub(1) {
        let (a, b) = (PhaseId::new(i), PhaseId::new(i + 1));
        let terms = [(vars.start(a), 1.0), (vars.start(b), -1.0)];
        row(
            ConstraintKind::PhaseOrder,
            None,
            None,
            &[a, b],
            &terms,
            Sense::Le,
            0.0,
        );
    }

    // -- C3: phase nonoverlap (eq. 6) --------------------------------------
    //   s_i ≥ s_j + T_j + sep − C_ji·T_c
    for (i, j) in k_pairs.ones() {
        let (pi, pj) = (PhaseId::new(i), PhaseId::new(j));
        // s_i − s_j − T_j + C_ji·T_c ≥ sep
        let terms = [
            (vars.start(pi), 1.0),
            (vars.start(pj), -1.0),
            (vars.width(pj), -1.0),
            (tc, 1.0),
        ];
        let n = 3 + usize::from(ClockSpec::c_flag(pj, pi));
        let sep = options.min_separation;
        row(
            ConstraintKind::PhaseNonoverlap,
            None,
            None,
            &[pi, pj],
            &terms[..n],
            Sense::Ge,
            sep,
        );
    }

    // -- L1 / FF setup & departures ----------------------------------------
    for (id, s) in circuit.syncs() {
        let departure = vars.departure(id);
        match s.kind {
            SyncKind::Latch => {
                // D_i + Δ_DC + margin ≤ T_{p_i}
                row(
                    ConstraintKind::Setup,
                    Some(id),
                    None,
                    &[s.phase],
                    &[(departure, 1.0), (vars.width(s.phase), -1.0)],
                    Sense::Le,
                    -(s.setup + options.setup_margin),
                );
            }
            SyncKind::FlipFlop => {
                // departure pinned to the enabling edge
                let kind = ConstraintKind::FlipFlopDeparture;
                row(
                    kind,
                    Some(id),
                    None,
                    &[s.phase],
                    &[(departure, 1.0)],
                    Sense::Eq,
                    0.0,
                );
                // setup at the edge, one row per fan-in edge:
                //   D_j + S_{p_j p_i} ≤ −(Δ_DQj + Δ_ji + Δ_DCi + margin)
                for &eid in circuit.fanin(id) {
                    let e = circuit.edge(eid);
                    let src = circuit.sync(e.from);
                    let ([a, b, c], n) = shift_terms(vars, src.phase, s.phase, 1.0);
                    let terms = [(vars.departure(e.from), 1.0), a, b, c];
                    row(
                        ConstraintKind::FlipFlopSetup,
                        Some(id),
                        Some(eid),
                        &[src.phase, s.phase],
                        &terms[..1 + n],
                        Sense::Le,
                        -(src.dq + e.max_delay + s.setup + options.setup_margin),
                    );
                }
            }
        }
    }

    // -- L2R: relaxed propagation (eq. 19) ----------------------------------
    for (idx, e) in circuit.edges().iter().enumerate() {
        let dst = circuit.sync(e.to);
        if dst.kind != SyncKind::Latch {
            continue; // FF destinations use FlipFlopSetup rows instead
        }
        let src = circuit.sync(e.from);
        // D_i − D_j − S_{p_j p_i} ≥ Δ_DQj + Δ_ji
        let ([a, b, c], n) = shift_terms(vars, src.phase, dst.phase, -1.0);
        let terms = [
            (vars.departure(e.to), 1.0),
            (vars.departure(e.from), -1.0),
            a,
            b,
            c,
        ];
        row(
            ConstraintKind::Propagation,
            Some(e.to),
            Some(EdgeId::new(idx)),
            &[src.phase, dst.phase],
            &terms[..2 + n],
            Sense::Ge,
            src.dq + e.max_delay,
        );
    }

    // -- extras -------------------------------------------------------------
    if options.min_phase_width > 0.0 {
        for i in 0..k {
            let ph = PhaseId::new(i);
            let terms = [(vars.width(ph), 1.0)];
            let min = options.min_phase_width;
            row(
                ConstraintKind::MinWidth,
                None,
                None,
                &[ph],
                &terms,
                Sense::Ge,
                min,
            );
        }
    }
    if let Some(fixed) = options.fixed_cycle {
        row(
            ConstraintKind::CycleBound,
            None,
            None,
            &[],
            &[(tc, 1.0)],
            Sense::Eq,
            fixed,
        );
    }
    if let Some(max) = options.max_cycle {
        row(
            ConstraintKind::CycleBound,
            None,
            None,
            &[],
            &[(tc, 1.0)],
            Sense::Le,
            max,
        );
    }
    if options.symmetric_clock {
        let kf = k as f64;
        for i in 0..k {
            let ph = PhaseId::new(i);
            let kind = ConstraintKind::SymmetricClock;
            // s_i − (i−1)/k · Tc = 0
            let terms = [(vars.start(ph), 1.0), (tc, -(i as f64 / kf))];
            row(kind, None, None, &[ph], &terms, Sense::Eq, 0.0);
            // T_i − Tc/k = −sep
            let terms = [(vars.width(ph), 1.0), (tc, -(1.0 / kf))];
            row(
                kind,
                None,
                None,
                &[ph],
                &terms,
                Sense::Eq,
                -options.min_separation,
            );
        }
    }

    for (id, s) in circuit.syncs() {
        if s.kind == SyncKind::Latch && options.pinning.is_pinned(id) {
            let terms = [(vars.departure(id), 1.0)];
            let kind = ConstraintKind::PinnedDeparture;
            row(kind, Some(id), None, &[], &terms, Sense::Eq, 0.0);
        }
    }
}

/// The bytes of the names `X1…Xn` past their one-letter prefixes: `n`
/// letters plus the decimal digits of `1…n`.
fn name_bytes(n: usize) -> usize {
    let mut bytes = n;
    let mut from = 1;
    while from <= n {
        bytes += n - from + 1;
        from = from.saturating_mul(10);
    }
    bytes
}

/// Maps a plain LP solve's status onto the timing errors.
fn optimal(sol: smo_lp::Solution) -> Result<OptimalSolution, TimingError> {
    match sol.status() {
        smo_lp::Status::Optimal => Ok(sol.into_optimal()?),
        smo_lp::Status::Infeasible => Err(TimingError::Infeasible {
            reason: "the clock and latch constraints admit no schedule \
                     (check fixed/max cycle time and minimum width options)"
                .into(),
        }),
        smo_lp::Status::Unbounded => Err(TimingError::Unbounded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smo_circuit::CircuitBuilder;

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    use smo_gen::paper::example1;

    #[test]
    fn constraint_count_matches_paper_structure() {
        // Example 1: k = 2, l = 4, 4 edges, 2 I/O phase pairs.
        // C1: 2k = 4; C2: k−1 = 1; C3: 2; L1: 4; L2R: 4  → 15 rows.
        let m = TimingModel::build(&example1(80.0)).unwrap();
        assert_eq!(m.num_constraints(), 15);
        // paper bound: 4k + (F+1)·l = 8 + 2·4 = 16 ≥ 15 ✓
        let c = example1(80.0);
        assert!(m.num_constraints() <= 4 * c.num_phases() + (c.max_fanin() + 1) * c.num_syncs());
    }

    #[test]
    fn lp_solves_example1_to_known_optimum() {
        for (d41, expect) in [(80.0, 110.0), (100.0, 120.0), (120.0, 140.0), (60.0, 100.0)] {
            let m = TimingModel::build(&example1(d41)).unwrap();
            let sol = m.solve_lp().unwrap();
            assert!(
                (sol.objective() - expect).abs() < 1e-6,
                "Δ41 = {d41}: Tc = {}, expected {expect}",
                sol.objective()
            );
        }
    }

    #[test]
    fn schedule_extraction_is_valid() {
        let m = TimingModel::build(&example1(120.0)).unwrap();
        let sol = m.solve_lp().unwrap();
        let sched = m.extract_schedule(&sol).unwrap();
        assert_eq!(sched.num_phases(), 2);
        assert!((sched.cycle() - 140.0).abs() < 1e-6);
        sched.validate().unwrap();
    }

    #[test]
    fn fixed_cycle_below_optimum_is_infeasible() {
        let mut opts = ConstraintOptions {
            fixed_cycle: Some(100.0),
            ..Default::default()
        };
        let m = TimingModel::build_with(&example1(80.0), &opts).unwrap();
        assert!(matches!(
            m.solve_lp().unwrap_err(),
            TimingError::Infeasible { .. }
        ));
        opts.fixed_cycle = Some(115.0);
        let m = TimingModel::build_with(&example1(80.0), &opts).unwrap();
        let sol = m.solve_lp().unwrap();
        assert!((sol.objective() - 115.0).abs() < 1e-6);
    }

    #[test]
    fn min_phase_width_raises_cycle_time() {
        // With Δ41 = 80 the free optimum is 110; demanding very wide phases
        // must push Tc up (each phase ≥ 70 and both phases must not overlap
        // → Tc ≥ 140).
        let opts = ConstraintOptions {
            min_phase_width: 70.0,
            ..Default::default()
        };
        let m = TimingModel::build_with(&example1(80.0), &opts).unwrap();
        let sol = m.solve_lp().unwrap();
        assert!(sol.objective() >= 140.0 - 1e-6);
    }

    #[test]
    fn symmetric_clock_is_suboptimal_at_unbalanced_point() {
        let opts = ConstraintOptions {
            symmetric_clock: true,
            ..Default::default()
        };
        let m = TimingModel::build_with(&example1(80.0), &opts).unwrap();
        let sol = m.solve_lp().unwrap();
        assert!(
            sol.objective() > 110.0 + 1e-6,
            "symmetric Tc = {}",
            sol.objective()
        );
        // ...but optimal at the balanced point Δ41 = 60 (see §V discussion).
        let m = TimingModel::build_with(&example1(60.0), &opts).unwrap();
        let sol = m.solve_lp().unwrap();
        assert!((sol.objective() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn min_separation_spreads_phases() {
        let opts = ConstraintOptions {
            min_separation: 5.0,
            ..Default::default()
        };
        let m = TimingModel::build_with(&example1(80.0), &opts).unwrap();
        let sol = m.solve_lp().unwrap();
        let sched = m.extract_schedule(&sol).unwrap();
        // every nonoverlap pair keeps ≥ 5 of dead time
        let (s1, t1) = (sched.start(p(1)), sched.width(p(1)));
        let (s2, t2) = (sched.start(p(2)), sched.width(p(2)));
        assert!(s2 - (s1 + t1) >= 5.0 - 1e-9);
        assert!(s1 + sched.cycle() - (s2 + t2) >= 5.0 - 1e-9);
        // and the optimum cannot be better than without it
        assert!(sol.objective() >= 110.0 - 1e-9);
    }

    #[test]
    fn setup_margin_raises_cycle_time_when_setup_binds() {
        // At Δ41 = 0 the optimum sits on the Fig. 7 flat part, set by the
        // L3→L4 stage requirement Δ_DQ + Δ + Δ_DC = 80 — exactly the regime
        // where a skew margin costs cycle time (80 → 84). In the borrowing
        // regime (Δ41 = 80, loop-average-bound) the margin is absorbed.
        let margin = ConstraintOptions {
            setup_margin: 4.0,
            ..Default::default()
        };
        let with_skew = TimingModel::build_with(&example1(0.0), &margin)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert!((with_skew - 84.0).abs() < 1e-6, "Tc = {with_skew}");
        let absorbed = TimingModel::build_with(&example1(80.0), &margin)
            .unwrap()
            .solve_lp()
            .unwrap()
            .objective();
        assert!((absorbed - 110.0).abs() < 1e-6, "Tc = {absorbed}");
    }

    #[test]
    fn max_cycle_bounds_feasibility() {
        let opts = ConstraintOptions {
            max_cycle: Some(109.0),
            ..Default::default()
        };
        let m = TimingModel::build_with(&example1(80.0), &opts).unwrap();
        assert!(matches!(
            m.solve_lp().unwrap_err(),
            TimingError::Infeasible { .. }
        ));
        let opts = ConstraintOptions {
            max_cycle: Some(130.0),
            ..Default::default()
        };
        let m = TimingModel::build_with(&example1(80.0), &opts).unwrap();
        assert!((m.solve_lp().unwrap().objective() - 110.0).abs() < 1e-6);
    }

    #[test]
    fn options_validation_rejects_nan() {
        let opts = ConstraintOptions {
            min_phase_width: f64::NAN,
            ..Default::default()
        };
        assert!(TimingModel::build_with(&example1(80.0), &opts).is_err());
    }

    #[test]
    fn flip_flop_rows_replace_propagation() {
        let mut b = CircuitBuilder::new(1);
        let f1 = b.add_flip_flop("F1", p(1), 1.0, 2.0);
        let f2 = b.add_flip_flop("F2", p(1), 1.0, 2.0);
        b.connect(f1, f2, 10.0);
        let c = b.build().unwrap();
        let m = TimingModel::build(&c).unwrap();
        assert!(m
            .constraints()
            .iter()
            .all(|i| i.kind != ConstraintKind::Propagation));
        // single-phase FF pipeline: Tc ≥ dq + Δ + setup = 13
        let sol = m.solve_lp().unwrap();
        assert!(
            (sol.objective() - 13.0).abs() < 1e-6,
            "Tc = {}",
            sol.objective()
        );
    }

    #[test]
    fn edge_constraint_lookup_finds_the_delay_row() {
        let c = example1(80.0);
        let m = TimingModel::build(&c).unwrap();
        let eid = c.fanout(c.find("L4").unwrap())[0];
        let row = m.edge_constraint(eid).unwrap();
        // the row's RHS is Δ_DQ4 + Δ41 = 10 + 80
        let (_, _, rhs) = m.problem().constraint(row);
        assert_eq!(rhs, 90.0);
    }

    #[test]
    fn set_edge_delay_enables_cheap_what_if() {
        let c = example1(80.0);
        let mut m = TimingModel::build(&c).unwrap();
        assert!((m.solve_lp().unwrap().objective() - 110.0).abs() < 1e-6);
        // what if Δ41 were 120 instead?
        m.set_edge_delay(EdgeId::new(3), 80.0, 120.0);
        assert!((m.solve_lp().unwrap().objective() - 140.0).abs() < 1e-6);
        // and back
        m.set_edge_delay(EdgeId::new(3), 120.0, 80.0);
        assert!((m.solve_lp().unwrap().objective() - 110.0).abs() < 1e-6);
    }

    #[test]
    fn shift_expr_matches_schedule_shift() {
        let c = example1(80.0);
        let m = TimingModel::build(&c).unwrap();
        let sol = m.solve_lp().unwrap();
        let sched = m.extract_schedule(&sol).unwrap();
        for (a, b) in [(p(1), p(2)), (p(2), p(1)), (p(1), p(1)), (p(2), p(2))] {
            let sym = shift_expr(m.vars(), a, b).eval(sol.values());
            let conc = sched.shift(a, b);
            assert!(
                (sym - conc).abs() < 1e-9,
                "S_{}{} symbolic {sym} vs concrete {conc}",
                a.number(),
                b.number()
            );
        }
    }
}
