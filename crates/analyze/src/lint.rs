//! Circuit lints: structural and parametric sanity checks.
//!
//! The timing engine answers "what is the minimum cycle time?"; the linter
//! answers "does this circuit description even make sense?". Each rule is
//! a [`Pass`](crate::passes::Pass) over a shared
//! [`AnalysisContext`](crate::AnalysisContext) — no LP is solved — and
//! reports [`Finding`]s at three severities:
//!
//! * [`Severity::Error`] — the circuit is analysable but almost certainly
//!   wrong (e.g. a zero-delay loop of transparent latches, a critical
//!   race no schedule can fix);
//! * [`Severity::Warn`] — suspicious structure that usually indicates a
//!   netlist mistake (dangling synchronizers, dead phases, duplicate
//!   paths, thin hold margins);
//! * [`Severity::Info`] — unusual parameter ratios worth a second look.
//!
//! A [`PassConfig`] suppresses rules (`allow`) or re-grades them
//! (`deny` / `severity`); findings are sorted by (severity, rule,
//! location, message) so reports — including `--json` output — are
//! byte-deterministic for a given circuit and configuration.
//!
//! All shipped `circuits/*.ckt` lint clean; the rules are tuned to flag
//! genuine modelling accidents, not stylistic variance.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::context::AnalysisContext;
use crate::passes::registry;
use smo_circuit::json::Json;
use smo_circuit::Circuit;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Unusual but possibly intentional; worth a look.
    Info,
    /// Usually a netlist mistake.
    Warn,
    /// Almost certainly wrong; the analysis results are suspect.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The analysis rules: one per structural check, plus the race rule the
/// full [`check`](crate::check) pipeline adds on top of the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A synchronizer with no fan-in *and* no fan-out: it constrains
    /// nothing and is probably a leftover or a typo in a `path` line.
    UnconstrainedSync,
    /// A clock phase that controls no synchronizer: the schedule still
    /// allocates time to it.
    DeadPhase,
    /// Two `path` lines with the same endpoints: only the slower one
    /// matters for long paths, which usually means a duplicated line.
    DuplicateEdge,
    /// A feedback loop of transparent latches with zero combinational
    /// delay around it: a critical race no clock schedule can fix.
    ZeroDelayLoop,
    /// A flip-flop whose hold requirement exceeds the short-path delay of
    /// a same-phase fan-in edge (same-edge race). Uses measured
    /// `mindelay` data when present; falls back to a half-the-long-path
    /// heuristic otherwise.
    HoldMargin,
    /// Suspicious latch parameters: zero setup, or `Δ_DQ` much larger
    /// than setup.
    SuspiciousRatio,
    /// A synchronizer with no path to or from any cyclic SCC of the latch
    /// graph: it floats free of the circuit's recurrent core, so its
    /// steady-state timing constrains nothing the clock cares about
    /// (likely a mis-specified source or sink). Skipped entirely on
    /// feed-forward circuits (no cyclic SCC at all).
    UnreachableFromCore,
    /// The constraint graph splits into several disconnected components:
    /// the LP couples them only through the shared clock, which usually
    /// means two unrelated netlists were pasted together.
    DisconnectedComponents,
    /// A double-clocking race at the solved schedule: early data crosses
    /// a short path and lands before the destination's hold deadline, so
    /// the *next* wave overwrites state in the *current* cycle. Only the
    /// full `check` pipeline (lint + solve + race analysis) emits this.
    /// Error-severity when the short path is measured (`mindelay`),
    /// warn-severity when only the max-delay assumption supports it.
    DoubleClockingRace,
}

impl Rule {
    /// Every rule, in a stable order (used by CLI filters and docs).
    pub const ALL: [Rule; 9] = [
        Rule::UnconstrainedSync,
        Rule::DeadPhase,
        Rule::DuplicateEdge,
        Rule::ZeroDelayLoop,
        Rule::HoldMargin,
        Rule::SuspiciousRatio,
        Rule::UnreachableFromCore,
        Rule::DisconnectedComponents,
        Rule::DoubleClockingRace,
    ];

    /// Stable kebab-case identifier (used in reports and filters).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnconstrainedSync => "unconstrained-sync",
            Rule::DeadPhase => "dead-phase",
            Rule::DuplicateEdge => "duplicate-edge",
            Rule::ZeroDelayLoop => "zero-delay-loop",
            Rule::HoldMargin => "hold-margin",
            Rule::SuspiciousRatio => "suspicious-ratio",
            Rule::UnreachableFromCore => "unreachable-from-core",
            Rule::DisconnectedComponents => "disconnected-components",
            Rule::DoubleClockingRace => "double-clocking-race",
        }
    }

    /// Parses the kebab-case identifier back into a rule (the inverse of
    /// [`Rule::name`]); `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// Where it fired: a synchronizer name, `from→to#edge`, a phase, or a
    /// loop chain — stable across runs, used as the sort tiebreaker.
    pub location: String,
    /// What, specifically, is wrong (names the circuit elements).
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.severity, self.rule, self.message)
    }
}

/// Per-rule configuration for a lint/check run: suppressions and
/// severity overrides, applied to findings after the passes run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassConfig {
    allowed: BTreeSet<Rule>,
    severities: BTreeMap<Rule, Severity>,
}

impl PassConfig {
    /// The default configuration: nothing suppressed, stock severities.
    pub fn new() -> Self {
        PassConfig::default()
    }

    /// Suppresses every finding of `rule` (CLI `--allow RULE`).
    pub fn allow(mut self, rule: Rule) -> Self {
        self.allowed.insert(rule);
        self
    }

    /// Escalates `rule` to [`Severity::Error`] (CLI `--deny RULE`), so it
    /// fails the `check` exit code. Overrides a prior `severity` call.
    pub fn deny(self, rule: Rule) -> Self {
        self.severity(rule, Severity::Error)
    }

    /// Overrides the severity of `rule`'s findings.
    pub fn severity(mut self, rule: Rule, severity: Severity) -> Self {
        self.severities.insert(rule, severity);
        self
    }

    /// `true` when `rule` is suppressed.
    pub fn is_allowed(&self, rule: Rule) -> bool {
        self.allowed.contains(&rule)
    }

    /// Applies the configuration to one finding: `None` if suppressed,
    /// otherwise the finding with any severity override applied.
    pub(crate) fn apply(&self, mut finding: Finding) -> Option<Finding> {
        if self.is_allowed(finding.rule) {
            return None;
        }
        if let Some(&severity) = self.severities.get(&finding.rule) {
            finding.severity = severity;
        }
        Some(finding)
    }
}

/// The result of linting one circuit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings, sorted by (severity — errors first, rule, location,
    /// message) so a report is byte-deterministic for a given circuit and
    /// configuration.
    pub findings: Vec<Finding>,
}

/// Sorts findings into the canonical report order: errors first, then by
/// rule name, location and message. Stable output is part of the findings
/// format contract (machine consumers may diff `--json` byte-for-byte).
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (Reverse(a.severity), a.rule.name(), &a.location, &a.message).cmp(&(
            Reverse(b.severity),
            b.rule.name(),
            &b.location,
            &b.message,
        ))
    });
}

impl LintReport {
    /// `true` when no rule fired at any severity.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The highest severity present, if any finding exists.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// `true` when at least one [`Severity::Error`] finding exists.
    pub fn has_errors(&self) -> bool {
        self.worst() == Some(Severity::Error)
    }

    /// Number of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// The report as JSON, mirroring the `Display` content: a `clean`
    /// flag, per-severity counts, and the sorted findings with rule name,
    /// severity, location and message.
    pub fn json(&self) -> Json {
        Json::obj(
            [("clean", self.is_clean().into())]
                .into_iter()
                .chain(self.counted_findings()),
        )
    }

    /// [`LintReport::json`], spaced (see [`Json::render_spaced`]).
    pub fn to_json(&self) -> String {
        self.json().render_spaced()
    }

    /// The per-severity counts and the findings: the fields `lint --json`
    /// and `check --json` share, so the per-finding schema cannot drift
    /// between them.
    pub(crate) fn counted_findings(&self) -> [(&'static str, Json); 4] {
        let finding = |f: &Finding| {
            Json::obj([
                ("rule", f.rule.name().into()),
                ("severity", f.severity.to_string().into()),
                ("location", f.location.as_str().into()),
                ("message", f.message.as_str().into()),
            ])
        };
        [
            ("errors", self.count(Severity::Error).into()),
            ("warnings", self.count(Severity::Warn).into()),
            ("infos", self.count(Severity::Info).into()),
            ("findings", self.findings.iter().map(finding).collect()),
        ]
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean: no findings");
        }
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} info",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )
    }
}

/// Runs every lint pass over `circuit` with the stock configuration.
pub fn lint(circuit: &Circuit) -> LintReport {
    lint_with(circuit, &PassConfig::default())
}

/// Runs every lint pass over `circuit`: computes the shared
/// [`AnalysisContext`] once, runs each registered pass, applies `config`
/// (suppressions and severity overrides) and sorts the surviving findings
/// into canonical order.
pub fn lint_with(circuit: &Circuit, config: &PassConfig) -> LintReport {
    let ctx = AnalysisContext::new(circuit);
    let mut findings = Vec::new();
    for pass in registry() {
        pass.run(&ctx, &mut findings);
    }
    let mut findings: Vec<Finding> = findings
        .into_iter()
        .filter_map(|f| config.apply(f))
        .collect();
    sort_findings(&mut findings);
    LintReport { findings }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId, Synchronizer};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    #[test]
    fn healthy_circuit_is_clean() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 1.0, 2.0);
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l2, l1, 5.0);
        let report = lint(&b.build().unwrap());
        assert!(report.is_clean(), "unexpected findings: {report}");
        assert_eq!(report.worst(), None);
    }

    #[test]
    fn flags_unconstrained_sync_and_dead_phase() {
        let mut b = CircuitBuilder::new(3); // phase 3 unused
        let l1 = b.add_latch("L1", p(1), 1.0, 2.0);
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.add_latch("orphan", p(1), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l2, l1, 5.0);
        let report = lint(&b.build().unwrap());
        assert_eq!(report.count(Severity::Warn), 2);
        let rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&Rule::UnconstrainedSync));
        assert!(rules.contains(&Rule::DeadPhase));
        assert!(report.to_string().contains("orphan"));
        assert!(report.to_string().contains("φ3"));
    }

    #[test]
    fn flags_duplicate_edges() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 1.0, 2.0);
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l1, l2, 7.0); // duplicate
        b.connect(l2, l1, 5.0);
        let report = lint(&b.build().unwrap());
        assert_eq!(report.count(Severity::Warn), 1);
        assert_eq!(report.findings[0].rule, Rule::DuplicateEdge);
        assert_eq!(report.findings[0].location, "L1→L2#1");
    }

    #[test]
    fn flags_zero_delay_latch_loop_as_error() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_sync(Synchronizer::latch("L1", p(1), 0.0, 0.0));
        let l2 = b.add_sync(Synchronizer::latch("L2", p(2), 0.0, 0.0));
        b.connect(l1, l2, 0.0);
        b.connect(l2, l1, 0.0);
        let report = lint(&b.build().unwrap());
        assert!(report.has_errors());
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::ZeroDelayLoop));
    }

    #[test]
    fn zero_delay_loops_sharing_a_core_are_one_finding() {
        // L1 ⇄ L2 and L2 ⇄ L3 are two zero-delay loops in one core; the
        // L3 → L4 → L3 loop has delay, so it is not part of any core.
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_sync(Synchronizer::latch("L1", p(1), 0.0, 0.0));
        let l2 = b.add_sync(Synchronizer::latch("L2", p(2), 0.0, 0.0));
        let l3 = b.add_sync(Synchronizer::latch("L3", p(1), 0.0, 0.0));
        let l4 = b.add_sync(Synchronizer::latch("L4", p(2), 0.0, 0.0));
        for (from, to) in [(l1, l2), (l2, l1), (l2, l3), (l3, l2)] {
            b.connect(from, to, 0.0);
        }
        b.connect(l3, l4, 1.0);
        b.connect(l4, l3, 0.0);
        let report = lint(&b.build().unwrap());
        let zero: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::ZeroDelayLoop)
            .collect();
        assert_eq!(zero.len(), 1, "{report}");
        assert_eq!(zero[0].location, "L1→L2→L1");
    }

    #[test]
    fn edge_triggering_breaks_the_race() {
        // The same zero-delay loop, but through a flip-flop: no error.
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_sync(Synchronizer::latch("L1", p(1), 0.0, 0.0));
        let ff = b.add_sync(Synchronizer::flip_flop("F1", p(2), 0.0, 0.0));
        b.connect(l1, ff, 0.0);
        b.connect(ff, l1, 0.0);
        let report = lint(&b.build().unwrap());
        assert!(!report.has_errors());
    }

    #[test]
    fn flags_thin_hold_margin() {
        let mut b = CircuitBuilder::new(2);
        let a = b.add_sync(Synchronizer::flip_flop("A", p(1), 0.1, 0.2));
        let c = b.add_sync(Synchronizer::flip_flop("C", p(1), 0.1, 0.2).with_hold(0.5));
        b.connect_min_max(a, c, 0.1, 3.0); // short path 0.1 < hold 0.5
        b.connect(c, a, 3.0);
        let report = lint(&b.build().unwrap());
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::HoldMargin && f.severity == Severity::Warn));
    }

    #[test]
    fn measured_short_path_above_hold_is_clean() {
        // Same shape, but the measured short path clears the hold time:
        // the heuristic (half of max = 1.5 > 0.5) never enters into it.
        let mut b = CircuitBuilder::new(2);
        let a = b.add_sync(Synchronizer::flip_flop("A", p(1), 0.1, 0.2));
        let c = b.add_sync(Synchronizer::flip_flop("C", p(1), 0.1, 0.2).with_hold(0.5));
        b.connect_min_max(a, c, 0.6, 3.0);
        b.connect(c, a, 3.0);
        let report = lint(&b.build().unwrap());
        assert!(
            !report.findings.iter().any(|f| f.rule == Rule::HoldMargin),
            "{report}"
        );
    }

    #[test]
    fn unmeasured_short_path_uses_the_heuristic_fallback() {
        // No mindelay data: the rule assumes early data can beat the long
        // path by half. hold 0.5 > 0.5 × max 0.8 = 0.4 → flagged, and the
        // message says the data is missing.
        let mut b = CircuitBuilder::new(2);
        let a = b.add_sync(Synchronizer::flip_flop("A", p(1), 0.1, 0.2));
        let c = b.add_sync(Synchronizer::flip_flop("C", p(1), 0.1, 0.2).with_hold(0.5));
        b.connect(a, c, 0.8);
        b.connect(c, a, 3.0);
        let report = lint(&b.build().unwrap());
        let finding = report
            .findings
            .iter()
            .find(|f| f.rule == Rule::HoldMargin)
            .expect("heuristic should fire");
        assert!(finding.message.contains("no measured short-path delay"));
        assert!(finding.message.contains("mindelay"));

        // A comfortably long unmeasured path does not fire: half of max
        // 3.0 = 1.5 clears hold 0.5.
        let mut b = CircuitBuilder::new(2);
        let a = b.add_sync(Synchronizer::flip_flop("A", p(1), 0.1, 0.2));
        let c = b.add_sync(Synchronizer::flip_flop("C", p(1), 0.1, 0.2).with_hold(0.5));
        b.connect(a, c, 3.0);
        b.connect(c, a, 3.0);
        let report = lint(&b.build().unwrap());
        assert!(
            !report.findings.iter().any(|f| f.rule == Rule::HoldMargin),
            "{report}"
        );
    }

    #[test]
    fn flags_suspicious_ratio_as_info() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 0.01, 2.0); // dq = 200× setup
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l2, l1, 5.0);
        let report = lint(&b.build().unwrap());
        assert_eq!(report.worst(), Some(Severity::Info));
        assert_eq!(report.count(Severity::Info), 1);
    }

    #[test]
    fn flags_latch_floating_free_of_the_core() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 1.0, 2.0);
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l2, l1, 5.0);
        // `tap` is driven by the loop (reachable) — fine. `ghost` → `tap`
        // neither reaches nor is reached by the loop core... but `ghost`
        // does reach `tap`, which is downstream of the core; only a latch
        // with no path in either direction is flagged, so attach a pair
        // that touches nothing.
        let tap = b.add_latch("tap", p(1), 1.0, 2.0);
        b.connect(l2, tap, 3.0);
        let g1 = b.add_latch("G1", p(1), 1.0, 2.0);
        let g2 = b.add_latch("G2", p(2), 1.0, 2.0);
        b.connect(g1, g2, 4.0);
        let report = lint(&b.build().unwrap());
        let floating: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::UnreachableFromCore)
            .collect();
        assert_eq!(floating.len(), 2, "{report}");
        assert!(floating.iter().all(|f| f.severity == Severity::Warn));
        assert!(report.to_string().contains("G1"));
        assert!(!report.to_string().contains("`tap` has no path"));
        // The G1→G2 island is also a disconnected component.
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::DisconnectedComponents));
    }

    #[test]
    fn feed_forward_circuits_skip_the_core_rule() {
        // No cyclic SCC at all: flagging every latch would be noise.
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 1.0, 2.0);
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        let l3 = b.add_latch("L3", p(1), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l2, l3, 5.0);
        let report = lint(&b.build().unwrap());
        assert!(
            !report
                .findings
                .iter()
                .any(|f| f.rule == Rule::UnreachableFromCore),
            "{report}"
        );
    }

    #[test]
    fn flags_disconnected_constraint_graphs() {
        let mut b = CircuitBuilder::new(2);
        let a1 = b.add_latch("A1", p(1), 1.0, 2.0);
        let a2 = b.add_latch("A2", p(2), 1.0, 2.0);
        b.connect(a1, a2, 5.0);
        b.connect(a2, a1, 5.0);
        let b1 = b.add_latch("B1", p(1), 1.0, 2.0);
        let b2 = b.add_latch("B2", p(2), 1.0, 2.0);
        b.connect(b1, b2, 5.0);
        b.connect(b2, b1, 5.0);
        let report = lint(&b.build().unwrap());
        let disc: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::DisconnectedComponents)
            .collect();
        assert_eq!(disc.len(), 1, "{report}");
        assert!(disc[0].message.contains("2 disconnected components"));
        // Both islands are cyclic, so neither floats free of a core.
        assert!(!report
            .findings
            .iter()
            .any(|f| f.rule == Rule::UnreachableFromCore));
    }

    #[test]
    fn connected_single_component_does_not_fire() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 1.0, 2.0);
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l2, l1, 5.0);
        // An isolated latch is unconstrained-sync territory, not a
        // disconnected component.
        b.add_latch("orphan", p(1), 1.0, 2.0);
        let report = lint(&b.build().unwrap());
        assert!(!report
            .findings
            .iter()
            .any(|f| f.rule == Rule::DisconnectedComponents));
    }

    #[test]
    fn json_report_mirrors_findings() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 1.0, 2.0);
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.add_latch("orphan", p(1), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l2, l1, 5.0);
        let json = lint(&b.build().unwrap()).json().render_compact();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"warnings\":1"));
        assert!(json.contains("\"rule\":\"unconstrained-sync\""));
        assert!(json.contains("\"location\":\"orphan\""));
        assert!(json.contains("orphan"));
    }

    #[test]
    fn json_report_of_clean_circuit_is_clean() {
        let mut b = CircuitBuilder::new(2);
        let l1 = b.add_latch("L1", p(1), 1.0, 2.0);
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.connect(l1, l2, 5.0);
        b.connect(l2, l1, 5.0);
        let json = lint(&b.build().unwrap()).json().render_compact();
        assert!(json.contains("\"clean\":true"));
        assert!(json.contains("\"errors\":0"));
    }

    #[test]
    fn severity_ordering_is_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    /// A circuit that trips several rules at several severities in one go.
    fn noisy_circuit() -> smo_circuit::Circuit {
        let mut b = CircuitBuilder::new(3); // phase 3 dead
        let l1 = b.add_latch("L1", p(1), 0.01, 2.0); // suspicious ratio
        let l2 = b.add_latch("L2", p(2), 1.0, 2.0);
        b.add_latch("orphan", p(1), 1.0, 2.0); // unconstrained
        b.connect(l1, l2, 5.0);
        b.connect(l1, l2, 7.0); // duplicate
        b.connect(l2, l1, 5.0);
        b.build().unwrap()
    }

    #[test]
    fn findings_are_sorted_by_severity_then_rule_then_location() {
        let report = lint(&noisy_circuit());
        assert!(report.findings.len() >= 4, "{report}");
        let keys: Vec<(Reverse<Severity>, &str, &String)> = report
            .findings
            .iter()
            .map(|f| (Reverse(f.severity), f.rule.name(), &f.location))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "{report}");
        // Errors (none here) would come first; warns precede infos.
        assert_eq!(
            report.findings.last().map(|f| f.severity),
            Some(Severity::Info)
        );
    }

    #[test]
    fn json_output_is_byte_deterministic() {
        let circuit = noisy_circuit();
        let a = lint(&circuit).to_json();
        let b = lint(&circuit).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn allow_suppresses_and_deny_escalates() {
        let circuit = noisy_circuit();
        let stock = lint(&circuit);
        assert!(stock.findings.iter().any(|f| f.rule == Rule::DeadPhase));
        assert!(!stock.has_errors());

        let allowed = lint_with(&circuit, &PassConfig::new().allow(Rule::DeadPhase));
        assert!(!allowed.findings.iter().any(|f| f.rule == Rule::DeadPhase));
        assert_eq!(allowed.findings.len(), stock.findings.len() - 1);

        let denied = lint_with(&circuit, &PassConfig::new().deny(Rule::SuspiciousRatio));
        assert!(denied.has_errors());
        // Escalated findings sort to the front.
        assert_eq!(denied.findings[0].rule, Rule::SuspiciousRatio);
        assert_eq!(denied.findings[0].severity, Severity::Error);

        let downgraded = lint_with(
            &circuit,
            &PassConfig::new().severity(Rule::DuplicateEdge, Severity::Info),
        );
        assert!(downgraded
            .findings
            .iter()
            .any(|f| f.rule == Rule::DuplicateEdge && f.severity == Severity::Info));
    }
}
