//! The lint rules as registered passes over an [`AnalysisContext`].
//!
//! Each pass owns exactly one [`Rule`]: it reads the shared facts the
//! context computed once and emits [`Finding`]s through a plain `Vec`.
//! [`registry`] returns the full pass set in a fixed order; the framework
//! ([`lint_with`](crate::lint_with)) applies severity overrides and
//! suppressions afterwards, then sorts, so pass order never leaks into
//! reports.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::context::AnalysisContext;
use crate::lint::{Finding, Rule, Severity};
use smo_circuit::{LatchId, PhaseId, SyncKind};

/// `Δ_DQ / Δ_DC` ratio above which [`Rule::SuspiciousRatio`] fires.
const RATIO_LIMIT: f64 = 10.0;

/// Fraction of the long-path delay assumed reachable by early data when no
/// `mindelay` measurement exists (the hold-margin heuristic fallback).
const HEURISTIC_SHORT_FRACTION: f64 = 0.5;

/// One lint rule, packaged for the pass framework.
pub trait Pass {
    /// The single rule this pass owns.
    fn rule(&self) -> Rule;
    /// Runs the rule, appending findings for `self.rule()` only.
    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>);
}

/// Every structural pass, in registration order. Order is immaterial to
/// output (findings are sorted afterwards) but stable for debugging.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(UnconstrainedSyncPass),
        Box::new(DeadPhasePass),
        Box::new(DuplicateEdgePass),
        Box::new(ZeroDelayLoopPass),
        Box::new(HoldMarginPass),
        Box::new(UnreachableFromCorePass),
        Box::new(DisconnectedComponentsPass),
        Box::new(SuspiciousRatioPass),
    ]
}

fn push(out: &mut Vec<Finding>, rule: Rule, severity: Severity, location: String, message: String) {
    out.push(Finding {
        rule,
        severity,
        location,
        message,
    });
}

/// `unconstrained-sync`: no fan-in and no fan-out.
struct UnconstrainedSyncPass;

impl Pass for UnconstrainedSyncPass {
    fn rule(&self) -> Rule {
        Rule::UnconstrainedSync
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>) {
        for (id, s) in ctx.circuit().syncs() {
            if ctx.is_isolated(id) {
                push(
                    out,
                    self.rule(),
                    Severity::Warn,
                    s.name.clone(),
                    format!(
                        "{} `{}` has no fan-in and no fan-out; it constrains nothing",
                        s.kind, s.name
                    ),
                );
            }
        }
    }
}

/// `dead-phase`: a phase controlling no synchronizer.
struct DeadPhasePass;

impl Pass for DeadPhasePass {
    fn rule(&self) -> Rule {
        Rule::DeadPhase
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>) {
        for i in 0..ctx.circuit().num_phases() {
            if !ctx.phase_used(i) {
                let phase = PhaseId::new(i);
                push(
                    out,
                    self.rule(),
                    Severity::Warn,
                    phase.to_string(),
                    format!("phase {phase} controls no synchronizer"),
                );
            }
        }
    }
}

/// `duplicate-edge`: repeated `(from, to)` pairs in the delay closure.
struct DuplicateEdgePass;

impl Pass for DuplicateEdgePass {
    fn rule(&self) -> Rule {
        Rule::DuplicateEdge
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>) {
        let circuit = ctx.circuit();
        for pair in ctx.pair_delays() {
            let from = circuit.sync(LatchId::new(pair.from));
            let to = circuit.sync(LatchId::new(pair.to));
            for &dup in ctx.pair_edges()[pair.edges.clone()].iter().skip(1) {
                push(
                    out,
                    self.rule(),
                    Severity::Warn,
                    format!("{}→{}#{}", from.name, to.name, dup),
                    format!(
                        "duplicate path `{}` → `{}`; only the slower delay constrains long paths",
                        from.name, to.name
                    ),
                );
            }
        }
    }
}

/// `zero-delay-loop`: an all-latch feedback cycle with zero total delay
/// (combinational + Δ_DQ) — data races around it while every latch on the
/// loop is transparent, and no clock schedule can stop it. One finding per
/// zero-delay core, naming its witness cycle ([`AnalysisContext::cycles`]).
struct ZeroDelayLoopPass;

impl Pass for ZeroDelayLoopPass {
    fn rule(&self) -> Rule {
        Rule::ZeroDelayLoop
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>) {
        let circuit = ctx.circuit();
        for cycle in ctx.cycles() {
            // Render with latch names, not the id-based `Cycle` display.
            let mut path: Vec<&str> = cycle
                .latches
                .iter()
                .map(|&l| circuit.sync(l).name.as_str())
                .collect();
            if let Some(&first) = path.first() {
                path.push(first);
            }
            push(
                out,
                self.rule(),
                Severity::Error,
                path.join("→"),
                format!(
                    "zero-delay loop through transparent latches ({}): critical race",
                    path.join(" → ")
                ),
            );
        }
    }
}

/// `hold-margin`: same-phase fan-in into a flip-flop with a hold
/// requirement larger than the short-path (contamination) delay.
///
/// When the edge carries a measured short path (`mindelay` in the netlist
/// or [`connect_min_max`](smo_circuit::CircuitBuilder::connect_min_max)),
/// the comparison is exact. Without a measurement the long-path delay is
/// the only data available, so the rule falls back to a heuristic: assume
/// early data can beat the long path by half and flag only when even
/// [`HEURISTIC_SHORT_FRACTION`]` × max_delay` undercuts the hold time.
struct HoldMarginPass;

impl Pass for HoldMarginPass {
    fn rule(&self) -> Rule {
        Rule::HoldMargin
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>) {
        let circuit = ctx.circuit();
        for (idx, e) in circuit.edges().iter().enumerate() {
            let dst = circuit.sync(e.to);
            let src = circuit.sync(e.from);
            if dst.kind != SyncKind::FlipFlop || dst.hold <= 0.0 || src.phase != dst.phase {
                continue;
            }
            let location = format!("{}→{}#{}", src.name, dst.name, idx);
            if e.min_specified {
                if e.min_delay < dst.hold {
                    push(
                        out,
                        self.rule(),
                        Severity::Warn,
                        location,
                        format!(
                            "flip-flop `{}` requires hold {} but the same-phase path from `{}` \
                             can arrive after only {}",
                            dst.name, dst.hold, src.name, e.min_delay
                        ),
                    );
                }
            } else if HEURISTIC_SHORT_FRACTION * e.max_delay < dst.hold {
                push(
                    out,
                    self.rule(),
                    Severity::Warn,
                    location,
                    format!(
                        "flip-flop `{}` requires hold {} but the same-phase path from `{}` has \
                         no measured short-path delay, and half its long-path delay {} is only \
                         {}; add a `mindelay` line to settle it",
                        dst.name,
                        dst.hold,
                        src.name,
                        e.max_delay,
                        HEURISTIC_SHORT_FRACTION * e.max_delay
                    ),
                );
            }
        }
    }
}

/// `unreachable-from-core`: synchronizers with no path to or from any
/// cyclic SCC. A feed-forward circuit has no recurrent core, so the rule
/// is skipped entirely there rather than flagging every latch.
struct UnreachableFromCorePass;

impl Pass for UnreachableFromCorePass {
    fn rule(&self) -> Rule {
        Rule::UnreachableFromCore
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>) {
        if !ctx.has_cyclic_core() {
            return;
        }
        for (id, s) in ctx.circuit().syncs() {
            // Completely isolated synchronizers are unconstrained-sync
            // territory; double-flagging them here is noise.
            if ctx.is_isolated(id) {
                continue;
            }
            if !ctx.downstream_of_core(id) && !ctx.upstream_of_core(id) {
                push(
                    out,
                    self.rule(),
                    Severity::Warn,
                    s.name.clone(),
                    format!(
                        "{} `{}` has no path to or from any feedback loop; it floats \
                         free of the circuit's recurrent core",
                        s.kind, s.name
                    ),
                );
            }
        }
    }
}

/// `disconnected-components`: the latch graph (ignoring completely
/// isolated synchronizers, which `unconstrained-sync` already flags)
/// splits into several weakly connected islands.
struct DisconnectedComponentsPass;

impl Pass for DisconnectedComponentsPass {
    fn rule(&self) -> Rule {
        Rule::DisconnectedComponents
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>) {
        let roots = ctx.component_roots();
        if roots.len() > 1 {
            let names: Vec<String> = roots
                .iter()
                .map(|&r| format!("`{}`", ctx.circuit().sync(LatchId::new(r)).name))
                .collect();
            push(
                out,
                self.rule(),
                Severity::Warn,
                "graph".to_string(),
                format!(
                    "the constraint graph splits into {} disconnected components \
                     (containing {}); they couple only through the shared clock",
                    roots.len(),
                    names.join(", ")
                ),
            );
        }
    }
}

/// `suspicious-ratio`: zero setup, or Δ_DQ far larger than setup.
struct SuspiciousRatioPass;

impl Pass for SuspiciousRatioPass {
    fn rule(&self) -> Rule {
        Rule::SuspiciousRatio
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Finding>) {
        for (_, s) in ctx.circuit().syncs() {
            if s.setup <= 0.0 && s.dq > 0.0 {
                push(
                    out,
                    self.rule(),
                    Severity::Info,
                    s.name.clone(),
                    format!(
                        "{} `{}` has zero setup time but Δ_DQ = {}; setup rows degenerate",
                        s.kind, s.name, s.dq
                    ),
                );
            } else if s.setup > 0.0 && s.dq / s.setup > RATIO_LIMIT {
                push(
                    out,
                    self.rule(),
                    Severity::Info,
                    s.name.clone(),
                    format!(
                        "{} `{}` has Δ_DQ = {} over {}× its setup {}; check the units",
                        s.kind, s.name, s.dq, RATIO_LIMIT, s.setup
                    ),
                );
            }
        }
    }
}
