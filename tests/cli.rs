//! End-to-end tests of the `smo` command-line tool against the shipped
//! netlists in `circuits/`.

use std::path::Path;
use std::process::{Command, Output, Stdio};

fn smo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smo"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("smo binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn shipped_netlists_exist() {
    for f in [
        "circuits/example1.ckt",
        "circuits/example2.ckt",
        "circuits/gaas_mips.ckt",
        "circuits/appendix_fig1.ckt",
        "circuits/alu_bypass.ckt",
    ] {
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(f).exists(),
            "{f} missing"
        );
    }
}

#[test]
fn optimize_reproduces_paper_numbers() {
    let out = smo(&["optimize", "circuits/example1.ckt"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("optimal cycle time: 110.000000"));

    let out = smo(&["optimize", "circuits/gaas_mips.ckt"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("optimal cycle time: 4.4000"));
}

#[test]
fn verify_distinguishes_feasible_from_infeasible() {
    let ok = smo(&["verify", "circuits/example1.ckt", "110", "0,60", "60,30"]);
    assert!(ok.status.success(), "{}", stdout(&ok));
    assert!(stdout(&ok).contains("FEASIBLE"));

    let bad = smo(&["verify", "circuits/example1.ckt", "100", "0,50", "50,50"]);
    assert!(!bad.status.success());
    assert!(stdout(&bad).contains("VIOLATION"));
    assert!(stdout(&bad).contains("INFEASIBLE"));
}

#[test]
fn report_names_the_critical_segment() {
    let out = smo(&["report", "circuits/example2.ckt"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("optimal cycle time: 31"));
    assert!(text.contains("critical combinational segments"));
    assert!(text.contains("dTc/dΔ"));
}

#[test]
fn simulate_agrees_with_analysis_column() {
    let out = smo(&["simulate", "circuits/appendix_fig1.ckt", "32"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("0 violation(s)"), "{text}");
}

#[test]
fn gate_level_netlists_are_autodetected() {
    let out = smo(&["optimize", "circuits/alu_bypass.ckt"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("optimal cycle time: 8.80"));
}

#[test]
fn dot_and_lp_dumps_are_well_formed() {
    let dot = smo(&["dot", "circuits/example1.ckt"]);
    assert!(dot.status.success());
    assert!(stdout(&dot).starts_with("digraph circuit {"));

    let lp = smo(&["lp", "circuits/example1.ckt"]);
    assert!(lp.status.success());
    let text = stdout(&lp);
    assert!(text.starts_with("Minimize"));
    assert!(text.contains("Subject To"));
    assert!(text.trim_end().ends_with("End"));
}

#[test]
fn errors_are_reported_with_usage() {
    let out = smo(&["bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("usage:"));

    let out = smo(&["optimize", "circuits/nope.ckt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn lump_round_trips_and_preserves_optimum() {
    let out = smo(&["lump", "circuits/example1.ckt"]);
    assert!(out.status.success());
    // the lumped netlist is itself a valid netlist with the same optimum
    let lumped = stdout(&out);
    let dir = tempdir();
    let path = dir.join("lumped.ckt");
    std::fs::write(&path, &lumped).expect("writable");
    let opt = smo(&["optimize", path.to_str().expect("utf-8")]);
    assert!(opt.status.success());
    assert!(stdout(&opt).contains("optimal cycle time: 110.000000"));
}

#[test]
fn lint_runs_clean_on_every_shipped_netlist() {
    for f in [
        "circuits/example1.ckt",
        "circuits/example2.ckt",
        "circuits/gaas_mips.ckt",
        "circuits/appendix_fig1.ckt",
        "circuits/alu_bypass.ckt",
    ] {
        let out = smo(&["lint", f]);
        assert!(out.status.success(), "{f} lint failed");
        assert!(stdout(&out).contains("clean: no findings"), "{f}");
    }
}

#[test]
fn lint_flags_a_bad_netlist_and_fails() {
    let dir = tempdir();
    let path = dir.join("bad.ckt");
    std::fs::write(
        &path,
        "clock 2\nlatch A phase=1 setup=0 dq=0\nlatch B phase=2 setup=0 dq=0\n\
         path A B delay=0\npath B A delay=0\n",
    )
    .expect("writable");
    let out = smo(&["lint", path.to_str().expect("utf-8")]);
    assert!(!out.status.success(), "error findings must exit non-zero");
    let text = stdout(&out);
    assert!(text.contains("error: [zero-delay-loop]"), "{text}");
}

#[test]
fn analyze_reports_bracket_and_critical_cycle() {
    let out = smo(&["analyze", "circuits/example1.ckt"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(
        text.contains("cycle-time bracket: 110 <= Tc* <= 180"),
        "{text}"
    );
    assert!(
        text.contains("critical cycle: L1 → L2 → L3 → L4 → L1"),
        "{text}"
    );
    assert!(text.contains("LP optimum: Tc* = 110"), "{text}");
    assert!(text.contains("lower bound is tight"), "{text}");
    assert!(text.contains("graph backend: Tc* = 110"), "{text}");
    assert!(!text.contains("presolve"), "{text}");
}

#[test]
fn analyze_succeeds_on_every_shipped_netlist() {
    for f in [
        "circuits/example1.ckt",
        "circuits/example2.ckt",
        "circuits/gaas_mips.ckt",
        "circuits/appendix_fig1.ckt",
        "circuits/alu_bypass.ckt",
    ] {
        let out = smo(&["analyze", f]);
        assert!(
            out.status.success(),
            "{f}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout(&out).contains("cycle-time bracket:"), "{f}");
    }
}

#[test]
fn analyze_json_is_well_formed() {
    let out = smo(&["analyze", "circuits/example1.ckt", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.trim_end().ends_with('}'), "{text}");
    assert!(text.contains("\"optimum\": 110"), "{text}");
    assert!(text.contains("\"lower\": 110"), "{text}");
    assert!(text.contains("\"upper\": 180"), "{text}");
    assert!(text.contains("\"graph_optimum\": 110"), "{text}");
}

#[test]
fn analyze_rejects_bad_arguments() {
    let out = smo(&["analyze"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing netlist path"));

    let out = smo(&["analyze", "circuits/example1.ckt", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}

#[test]
fn lint_supports_json_output() {
    let out = smo(&["lint", "circuits/example1.ckt", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("\"clean\": true"), "{text}");
    assert!(text.contains("\"errors\": 0"), "{text}");

    let dir = tempdir();
    let path = dir.join("bad-json.ckt");
    std::fs::write(
        &path,
        "clock 2\nlatch A phase=1 setup=0 dq=0\nlatch B phase=2 setup=0 dq=0\n\
         path A B delay=0\npath B A delay=0\n",
    )
    .expect("writable");
    let out = smo(&["lint", path.to_str().expect("utf-8"), "--json"]);
    assert!(!out.status.success(), "error findings must exit non-zero");
    let text = stdout(&out);
    assert!(text.contains("\"clean\": false"), "{text}");
    assert!(text.contains("\"rule\": \"zero-delay-loop\""), "{text}");
}

#[test]
fn verify_rejects_wrong_schedule_arity() {
    let out = smo(&["verify", "circuits/example1.ckt", "110", "0,60"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("1 phase(s) given but the circuit has 2"),
        "{err}"
    );
}

#[test]
fn diagnose_reports_optimum_when_uncapped() {
    let out = smo(&["diagnose", "circuits/example1.ckt"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("feasible: minimum cycle time 110"));
}

#[test]
fn diagnose_names_the_conflict_at_an_impossible_cycle_time() {
    let out = smo(&["diagnose", "circuits/example1.ckt", "--cycle-time", "100"]);
    assert!(
        !out.status.success(),
        "infeasible target must exit non-zero"
    );
    let text = stdout(&out);
    assert!(
        text.contains("no feasible clock schedule at cycle time 100"),
        "{text}"
    );
    assert!(text.contains("Farkas-certified"), "{text}");
    assert!(text.contains("L2R (eq. 19)"), "{text}");
    assert!(text.contains("cycle time capped at 100"), "{text}");

    let json = smo(&[
        "diagnose",
        "circuits/example1.ckt",
        "--cycle-time",
        "100",
        "--json",
    ]);
    let text = stdout(&json);
    assert!(text.contains("\"feasible\": false"), "{text}");
    assert!(text.contains("\"iis\": ["), "{text}");
}

#[test]
fn diagnose_rejects_bad_flags() {
    let out = smo(&["diagnose", "circuits/example1.ckt", "--cycle-time"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));

    let out = smo(&["diagnose", "circuits/example1.ckt", "--cycle-time", "-5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("non-negative"));

    let out = smo(&["diagnose", "circuits/example1.ckt", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}

#[test]
fn montecarlo_reports_failure_rate() {
    let out = smo(&["montecarlo", "circuits/example1.ckt", "0.97", "50"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("runs failed"), "{text}");
    assert!(text.contains("worst shortfall"));
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smo-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn zero_counts_and_nan_scale_are_rejected_not_panics() {
    let out = smo(&["simulate", "circuits/example1.ckt", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 1"));

    let out = smo(&["montecarlo", "circuits/example1.ckt", "0.9", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 1"));

    let out = smo(&["montecarlo", "circuits/example1.ckt", "NaN"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("positive finite"));
}

#[test]
fn solve_certifies_every_shipped_netlist() {
    for f in [
        "circuits/example1.ckt",
        "circuits/example2.ckt",
        "circuits/gaas_mips.ckt",
        "circuits/appendix_fig1.ckt",
        "circuits/alu_bypass.ckt",
    ] {
        // Default (auto): the shipped netlists are pure difference
        // systems, so the graph backend engages with its own certificate.
        let out = smo(&["solve", f]);
        assert!(
            out.status.success(),
            "{f}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(text.contains("certified: true"), "{f}: {text}");
        assert!(text.contains("backend: graph"), "{f}: {text}");
        assert!(text.contains("graph: valid"), "{f}: {text}");

        // Forced LP: the simplex certificates must still be there.
        let out = smo(&["solve", f, "--backend", "lp"]);
        assert!(
            out.status.success(),
            "{f}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(text.contains("certified: true"), "{f}: {text}");
        assert!(text.contains("certified optimal"), "{f}: {text}");
    }
}

#[test]
fn solve_json_carries_certificates() {
    // Graph path (default): one graph certificate, no LP residuals.
    let out = smo(&["solve", "circuits/example1.ckt", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("\"cycle_time\": 110.000000"), "{text}");
    assert!(text.contains("\"certified\": true"), "{text}");
    assert!(text.contains("\"backend\": \"graph\""), "{text}");
    assert!(text.contains("\"graph_certificate\""), "{text}");
    assert!(text.contains("\"implied_lower\": 110.000000"), "{text}");

    // LP path: the KKT certificates, one per LP.
    let out = smo(&[
        "solve",
        "circuits/example1.ckt",
        "--backend",
        "lp",
        "--json",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("\"cycle_time\": 110.000000"), "{text}");
    assert!(text.contains("\"certified\": true"), "{text}");
    assert!(text.contains("\"backend\": \"lp\""), "{text}");
    assert!(text.contains("\"worst_residual\""), "{text}");
    assert!(text.contains("\"duality gap\""), "{text}");
    assert_eq!(
        text.matches("\"valid\": true").count(),
        2,
        "one certificate per LP (cycle-time + canonicalization): {text}"
    );
}

#[test]
fn solve_no_certify_skips_certificates() {
    // On the LP backend, --no-certify drops the KKT check entirely.
    let out = smo(&[
        "solve",
        "circuits/example1.ckt",
        "--backend",
        "lp",
        "--no-certify",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("certified: false"), "{text}");
    assert!(text.contains("optimal cycle time: 110.000000"), "{text}");

    // The graph path skips its certificate too, and says so.
    let out = smo(&["solve", "circuits/example1.ckt", "--no-certify"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("optimal cycle time: 110.000000"), "{text}");
    assert!(text.contains("certified: false"), "{text}");
    assert!(text.contains("backend: graph"), "{text}");
    assert!(!text.contains("  graph: "), "no certificate line: {text}");

    let out = smo(&["solve", "circuits/example1.ckt", "--no-certify", "--json"]);
    assert!(out.status.success());
    let json = stdout(&out);
    assert!(json.contains("\"certified\": false"), "{json}");
    assert!(json.contains("\"backend\": \"graph\""), "{json}");
    assert!(!json.contains("graph_certificate"), "{json}");
}

#[test]
fn solve_honors_a_generous_time_limit_and_rejects_bad_ones() {
    let out = smo(&["solve", "circuits/gaas_mips.ckt", "--time-limit", "60"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("certified: true"));

    let out = smo(&["solve", "circuits/example1.ckt", "--time-limit", "-1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("positive"));

    let out = smo(&["solve", "circuits/example1.ckt", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}

#[test]
fn check_passes_every_shipped_netlist_and_gates_the_racy_demo() {
    for f in [
        "circuits/example1.ckt",
        "circuits/example2.ckt",
        "circuits/gaas_mips.ckt",
        "circuits/appendix_fig1.ckt",
        "circuits/alu_bypass.ckt",
    ] {
        let out = smo(&["check", f]);
        assert!(
            out.status.success(),
            "{f}: {}{}",
            stdout(&out),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout(&out).contains("cycle time Tc ="), "{f}");
    }

    // The deliberately racy demo must fail the gate with exit code 2 and
    // a measured short-path witness.
    let out = smo(&["check", "circuits/race_demo.ckt"]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("error: [double-clocking-race]"), "{text}");
    assert!(text.contains("short path"), "{text}");
    assert!(text.contains("retires the race"), "{text}");
}

#[test]
fn check_json_emits_the_findings_schema() {
    let out = smo(&["check", "circuits/race_demo.ckt", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    let text = stdout(&out);
    assert!(text.contains("\"clean\": false"), "{text}");
    assert!(text.contains("\"races\": 1"), "{text}");
    assert!(
        text.contains("\"rule\": \"double-clocking-race\""),
        "{text}"
    );
    assert!(text.contains("\"severity\": \"error\""), "{text}");

    let out = smo(&["check", "circuits/example1.ckt", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("\"clean\": true"), "{text}");
    assert!(text.contains("\"races\": 0"), "{text}");
}

#[test]
fn check_allow_and_deny_adjust_the_gate() {
    // Allowing the race rule waives the demo's failure.
    let out = smo(&[
        "check",
        "circuits/race_demo.ckt",
        "--allow",
        "double-clocking-race",
        "--allow",
        "hold-margin",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));

    // gaas_mips carries an unmeasured (warn-level) race; denying the rule
    // escalates it to a gate failure.
    let out = smo(&["check", "circuits/gaas_mips.ckt"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let out = smo(&[
        "check",
        "circuits/gaas_mips.ckt",
        "--deny",
        "double-clocking-race",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
}

#[test]
fn check_pinned_cycle_time_and_backends() {
    let out = smo(&["check", "circuits/example1.ckt", "--cycle-time", "150"]);
    assert!(out.status.success());
    assert!(
        stdout(&out).contains("cycle time Tc = 150"),
        "{}",
        stdout(&out)
    );

    for backend in ["graph", "lp", "auto"] {
        let out = smo(&["check", "circuits/example1.ckt", "--backend", backend]);
        assert!(out.status.success(), "--backend {backend}");
    }

    // An infeasible pinned cycle time is a check *error* (exit 1), not a
    // clean pass and not the findings exit code 2.
    let out = smo(&["check", "circuits/example1.ckt", "--cycle-time", "50"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("check error:"));
}

/// `circuits/example1.ckt` padded with 1000-byte comment lines until it
/// is at least `min_len` bytes long, written to a fresh temp directory.
fn padded_example1(name: &str, min_len: usize) -> std::path::PathBuf {
    let path = tempdir().join(name);
    let mut src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("circuits/example1.ckt"),
    )
    .expect("shipped netlist reads");
    let pad = format!("# {}\n", "x".repeat(1000));
    while src.len() < min_len {
        src.push_str(&pad);
    }
    std::fs::write(&path, &src).expect("writable");
    path
}

#[test]
fn solve_max_input_mb_gates_oversized_netlists() {
    // A valid netlist padded past the 4 MiB default cap with comment
    // lines: rejected with the structured limit error by default,
    // accepted once the operator raises the cap, and a zero cap is
    // refused outright.
    let path = padded_example1("padded.ckt", (4 << 20) + 1);
    let p = path.to_str().expect("utf-8");

    let out = smo(&["solve", p]);
    assert!(!out.status.success(), "default limits must reject >4 MiB");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exceeds the input bytes limit"), "{err}");

    let out = smo(&["solve", p, "--max-input-mb", "8"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("certified: true"));

    let out = smo(&["solve", p, "--max-input-mb", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 1"));
}

#[test]
fn check_max_input_mb_gates_oversized_netlists() {
    // `check` takes the same flag as `solve`: the default cap rejects the
    // padded netlist, a raised cap lets the full gate run, and a zero cap
    // is refused outright.
    let path = padded_example1("padded-check.ckt", (4 << 20) + 1);
    let p = path.to_str().expect("utf-8");

    let out = smo(&["check", p]);
    assert!(!out.status.success(), "default limits must reject >4 MiB");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exceeds the input bytes limit"), "{err}");

    let out = smo(&["check", p, "--max-input-mb", "8"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = smo(&["check", p, "--max-input-mb", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 1"));
}

#[test]
fn lint_max_input_mb_gates_oversized_netlists() {
    // `lint` takes the same flag as `solve` and `check`.
    let path = padded_example1("padded-lint.ckt", (4 << 20) + 1);
    let p = path.to_str().expect("utf-8");

    let out = smo(&["lint", p]);
    assert!(!out.status.success(), "default limits must reject >4 MiB");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exceeds the input bytes limit"), "{err}");

    let out = smo(&["lint", p, "--max-input-mb", "8", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).starts_with('{'));

    let out = smo(&["lint", p, "--max-input-mb", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 1"));
}

#[test]
fn solve_under_the_raised_cap_still_enforces_it() {
    // Just under the raised cap parses; just over it still fails — the
    // flag moves the fence, it does not remove it.
    let path = padded_example1("underpadded.ckt", (5 << 20) - 2047);
    let p = path.to_str().expect("utf-8");

    let out = smo(&["solve", p, "--max-input-mb", "5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = smo(&["solve", p, "--max-input-mb", "4"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("exceeds the input bytes limit"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn pricing_flag_is_gone() {
    for cmd in ["solve", "sweep"] {
        let out = smo(&[cmd, "circuits/example1.ckt", "--pricing", "partial"]);
        assert!(!out.status.success(), "{cmd} still accepts --pricing");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument `--pricing`"));
    }
    let out = smo(&["call", "127.0.0.1:1", "solve", "--pricing", "partial"]);
    assert!(!out.status.success(), "call still accepts --pricing");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument `--pricing`"));
}

#[test]
fn closed_stdout_exits_quietly() {
    // A reader that stops early (`smo … | head -1`) closes the pipe. The
    // netlist of 2000 latches overflows any pipe buffer, so its write
    // always meets the closed pipe.
    for args in [
        &["diagnose", "circuits/alu_bypass.ckt"][..],
        &["gen", "--latches", "2000", "--seed", "7"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_smo"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("smo binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("smo exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.status.success(), "{args:?}: {err}");
    }
}

#[test]
fn variant_flag_is_gone() {
    for cmd in ["solve", "sweep"] {
        let out = smo(&[cmd, "circuits/example1.ckt", "--variant", "sparse"]);
        assert!(!out.status.success(), "{cmd} still accepts --variant");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument `--variant`"));
    }
}

#[test]
fn usage_banner_is_printed_only_for_argument_errors() {
    let stderr = |args: &[&str]| {
        let out = smo(args);
        assert!(!out.status.success(), "{args:?} should fail");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    // Argument errors: missing subcommand, unknown flag, bad value.
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["solve", "circuits/example1.ckt", "--frobnicate"][..],
        &["solve", "circuits/example1.ckt", "--pricing", "quantum"][..],
        &["sweep", "circuits/example1.ckt", "--runs", "many"][..],
    ] {
        let err = stderr(args);
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
    // Runtime errors: the arguments were fine, the work failed.
    let err = stderr(&["solve", "circuits/no_such_netlist.ckt"]);
    assert!(err.contains("cannot read"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
    let bad = std::env::temp_dir().join(format!("smo-cli-bad-{}.ckt", std::process::id()));
    std::fs::write(&bad, "this is not a netlist\n").expect("temp netlist");
    let err = stderr(&["optimize", bad.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&bad).ok();
    assert!(err.starts_with("error: "), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}

#[test]
fn check_rejects_bad_arguments() {
    let out = smo(&["check"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing netlist path"));

    let out = smo(&["check", "circuits/example1.ckt", "--allow", "bogus-rule"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule"));

    let out = smo(&["check", "circuits/example1.ckt", "--cycle-time", "nope"]);
    assert!(!out.status.success());

    let out = smo(&["check", "circuits/example1.ckt", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}
