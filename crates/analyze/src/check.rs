//! `smo check`: lint passes + solve + short-path race analysis, one shot.
//!
//! [`check`] is the everything-at-once static gate: it runs every lint
//! pass over the shared [`AnalysisContext`](crate::AnalysisContext),
//! solves the design problem (graph or LP backend) for the minimum cycle
//! time — or verifies a user-pinned one — and then runs the paper's
//! short-path (hold) constraint family at the canonical schedule. Each
//! double-clocking race becomes a finding under
//! [`Rule::DoubleClockingRace`], carrying the full
//! [`ShortPathWitness`](smo_core::ShortPathWitness) text: the offending
//! short path, the arithmetic that breaks the hold deadline, and the
//! clock-separation increase that would retire the race.
//!
//! Severity follows the evidence: a race across a **measured** short path
//! (`mindelay` in the netlist) is a [`Severity::Error`] — the witness
//! arithmetic is exact — while a race that exists only under the
//! max-delay assumption (no `mindelay` line) is a [`Severity::Warn`],
//! because the short path was never characterised. `--deny
//! double-clocking-race` escalates the latter for strict gates.
//!
//! The merged findings share the lint sort order and JSON schema, so a
//! `check --json` report embeds the same `"findings"` array a
//! `lint --json` report does — machine consumers parse one format.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::lint::{lint_with, sort_findings, Finding, LintReport, PassConfig, Rule, Severity};
use crate::report::AnalyzeError;
use smo_circuit::json::Json;
use smo_circuit::Circuit;
use smo_core::{race_analysis, Backend, RaceOptions, RaceReport};
use std::fmt;

/// Options for the [`check`] pipeline.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Per-rule suppressions and severity overrides, applied to lint
    /// findings *and* to the race findings layered on top.
    pub config: PassConfig,
    /// Solver backend for the cycle-time solve feeding the race analysis;
    /// [`Backend::default`] ([`Backend::Auto`]) unless set.
    pub backend: Backend,
    /// Analyse at this pinned cycle time instead of the solved optimum.
    pub cycle_time: Option<f64>,
}

/// The result of one [`check`] run: the merged findings plus the race
/// report they were derived from.
#[derive(Debug, Clone)]
pub struct CheckReport {
    findings: LintReport,
    race: RaceReport,
}

impl CheckReport {
    /// The merged lint + race findings, in canonical sorted order.
    pub fn findings(&self) -> &LintReport {
        &self.findings
    }

    /// The underlying race analysis (schedule, slacks, witnesses).
    pub fn race(&self) -> &RaceReport {
        &self.race
    }

    /// The cycle time the race analysis ran at (solved or pinned).
    pub fn cycle_time(&self) -> f64 {
        self.race.cycle_time()
    }

    /// `true` when at least one [`Severity::Error`] finding survived the
    /// configuration — the CLI exits 2 in that case.
    pub fn has_errors(&self) -> bool {
        self.findings.has_errors()
    }

    /// The report as JSON: the solve context (`cycle_time`,
    /// `worst_hold_slack`, `races`) wrapped around the same counts and
    /// `"findings"` array `lint --json` emits.
    pub fn json(&self) -> Json {
        Json::obj(
            [
                ("clean", self.findings.is_clean().into()),
                ("cycle_time", self.cycle_time().into()),
                ("worst_hold_slack", self.race.worst_slack().into()),
                ("races", self.race.races().len().into()),
            ]
            .into_iter()
            .chain(self.findings.counted_findings()),
        )
    }

    /// [`CheckReport::json`], spaced (see [`Json::render_spaced`]).
    pub fn to_json(&self) -> String {
        self.json().render_spaced()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycle time Tc = {}", self.cycle_time())?;
        let worst = self.race.worst_slack();
        if worst.is_finite() {
            writeln!(f, "worst hold slack = {worst}")?;
        }
        write!(f, "{}", self.findings)
    }
}

/// Runs the full static gate over `circuit`: lint passes, the cycle-time
/// solve (or a pinned `--cycle-time`), and the short-path race analysis,
/// merging every race into the findings as a
/// [`Rule::DoubleClockingRace`] error.
///
/// Solve failures (infeasible pinned cycle time, unbounded or malformed
/// models) surface as [`AnalyzeError::Timing`] rather than findings: they
/// mean the race analysis never ran, not that the circuit is race-free.
pub fn check(circuit: &Circuit, options: &CheckOptions) -> Result<CheckReport, AnalyzeError> {
    let lint_report = lint_with(circuit, &options.config);
    let race = race_analysis(
        circuit,
        &RaceOptions {
            backend: options.backend,
            cycle_time: options.cycle_time,
            ..RaceOptions::default()
        },
    )?;

    let mut findings = lint_report.findings;
    for witness in race.races() {
        let finding = Finding {
            rule: Rule::DoubleClockingRace,
            // Measured short path → the arithmetic is exact → error.
            // Max-delay assumption → the path was never characterised →
            // warn (escalate with `--deny double-clocking-race`).
            severity: if witness.min_specified {
                Severity::Error
            } else {
                Severity::Warn
            },
            location: format!("{}→{}#{}", witness.from, witness.to, witness.edge.index()),
            message: witness.to_string(),
        };
        if let Some(finding) = options.config.apply(finding) {
            findings.push(finding);
        }
    }
    sort_findings(&mut findings);

    Ok(CheckReport {
        findings: LintReport { findings },
        race,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::{CircuitBuilder, PhaseId, Synchronizer};

    fn p(n: usize) -> PhaseId {
        PhaseId::from_number(n)
    }

    /// The paper's Example 1 (Fig. 5) at Δ41 = 80: clean and race-free.
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

    /// Three same-phase flip-flops with one measured-short feedback edge:
    /// a certain double-clocking race at any cycle time.
    fn racy() -> Circuit {
        let mut b = CircuitBuilder::new(1);
        let a = b.add_sync(Synchronizer::flip_flop("A", p(1), 1.0, 0.3));
        let d = b.add_sync(Synchronizer::flip_flop("D", p(1), 1.0, 0.3).with_hold(2.0));
        b.connect_min_max(a, d, 0.1, 5.0);
        b.connect_min_max(d, a, 0.1, 5.0);
        b.build().unwrap()
    }

    #[test]
    fn example1_checks_clean() {
        let report = check(&example1(), &CheckOptions::default()).unwrap();
        assert!(!report.has_errors(), "{report}");
        assert!(report.race().is_race_free());
        assert!((report.cycle_time() - 110.0).abs() < 1e-6);
    }

    #[test]
    fn racy_circuit_reports_double_clocking_errors() {
        let report = check(&racy(), &CheckOptions::default()).unwrap();
        assert!(report.has_errors(), "{report}");
        let races: Vec<&Finding> = report
            .findings()
            .findings
            .iter()
            .filter(|f| f.rule == Rule::DoubleClockingRace)
            .collect();
        assert_eq!(races.len(), report.race().races().len());
        assert!(!races.is_empty());
        assert!(races.iter().all(|f| f.severity == Severity::Error));
        // Errors sort first, and the witness text names the short path.
        assert_eq!(report.findings().findings[0].rule, Rule::DoubleClockingRace);
        assert!(races[0].message.contains("short path"));
        assert!(races[0].message.contains("clock separation"));
    }

    #[test]
    fn unmeasured_race_is_a_warning_not_an_error() {
        // Same shape as racy(), but no mindelay data: the race only
        // exists under the max-delay assumption, so it must not fail the
        // gate — unless the user denies the rule explicitly.
        let mut b = CircuitBuilder::new(1);
        let a = b.add_sync(Synchronizer::flip_flop("A", p(1), 1.0, 0.3));
        let d = b.add_sync(Synchronizer::flip_flop("D", p(1), 1.0, 0.3).with_hold(2.0));
        b.connect(a, d, 0.5);
        b.connect(d, a, 0.5);
        let circuit = b.build().unwrap();

        let report = check(&circuit, &CheckOptions::default()).unwrap();
        assert!(!report.race().is_race_free());
        assert!(!report.has_errors(), "{report}");
        assert!(report
            .findings()
            .findings
            .iter()
            .any(|f| f.rule == Rule::DoubleClockingRace && f.severity == Severity::Warn));

        let denied = check(
            &circuit,
            &CheckOptions {
                config: PassConfig::new().deny(Rule::DoubleClockingRace),
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert!(denied.has_errors());
    }

    #[test]
    fn allow_suppresses_race_findings_but_keeps_the_report() {
        let options = CheckOptions {
            config: PassConfig::new().allow(Rule::DoubleClockingRace),
            ..CheckOptions::default()
        };
        let report = check(&racy(), &options).unwrap();
        assert!(!report.has_errors(), "{report}");
        // The race analysis itself still records the hazard.
        assert!(!report.race().is_race_free());
    }

    #[test]
    fn pinned_cycle_time_is_respected() {
        let report = check(
            &example1(),
            &CheckOptions {
                cycle_time: Some(150.0),
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert!((report.cycle_time() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_pinned_cycle_time_is_an_error_not_a_finding() {
        let err = check(
            &example1(),
            &CheckOptions {
                cycle_time: Some(50.0),
                ..CheckOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, AnalyzeError::Timing(_)));
    }

    #[test]
    fn backends_agree_on_the_check_verdict() {
        for circuit in [example1(), racy()] {
            let graph = check(
                &circuit,
                &CheckOptions {
                    backend: Backend::Graph,
                    ..CheckOptions::default()
                },
            )
            .unwrap();
            let lp = check(
                &circuit,
                &CheckOptions {
                    backend: Backend::Lp,
                    ..CheckOptions::default()
                },
            )
            .unwrap();
            assert_eq!(graph.has_errors(), lp.has_errors());
            assert_eq!(graph.race().races().len(), lp.race().races().len());
        }
    }

    #[test]
    fn check_json_embeds_the_lint_findings_schema() {
        let report = check(&racy(), &CheckOptions::default()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"cycle_time\": "));
        assert!(json.contains("\"worst_hold_slack\": "));
        assert!(json.contains("\"races\": "));
        assert!(json.contains("\"rule\": \"double-clocking-race\""));
        assert!(json.contains("\"severity\": \"error\""));
        assert!(
            json.contains("\"location\": \"A→D#0\"") || json.contains("\"location\": \"D→A#1\"")
        );
        // Byte-determinism: two runs render identically.
        let again = check(&racy(), &CheckOptions::default()).unwrap().to_json();
        assert_eq!(json, again);
    }
}
