//! End-to-end tests of the `smo` command-line tool against the shipped
//! netlists in `circuits/`.

use smo::api::Json;
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

/// The one compact JSON line `smo … --json` prints, parsed.
fn json_out(o: &Output) -> Json {
    let text = stdout(o);
    assert!(
        text.ends_with('\n') && text.lines().count() == 1,
        "not one JSON line: {text}"
    );
    Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// The number at `key`, if `v` has one there.
fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

/// The items of the array at `key` (empty when there is none).
fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::as_arr).unwrap_or_default()
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
    let v = json_out(&out);
    assert_eq!(num(&v, "optimum"), Some(110.0), "{v:?}");
    let bracket = v.get("bracket").expect("bracket");
    assert_eq!(num(bracket, "lower"), Some(110.0), "{v:?}");
    assert_eq!(num(bracket, "upper"), Some(180.0), "{v:?}");
    assert_eq!(num(&v, "graph_optimum"), Some(110.0), "{v:?}");
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
    let v = json_out(&out);
    assert_eq!(v.get("clean"), Some(&Json::Bool(true)), "{v:?}");
    assert_eq!(num(&v, "errors"), Some(0.0), "{v:?}");

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
    let v = json_out(&out);
    assert_eq!(v.get("clean"), Some(&Json::Bool(false)), "{v:?}");
    assert!(
        items(&v, "findings")
            .iter()
            .any(|f| f.get("rule").and_then(Json::as_str) == Some("zero-delay-loop")),
        "{v:?}"
    );
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
fn diagnose_prints_its_optimum_like_solve() {
    // Six decimals in text and JSON, as `smo solve` prints the same
    // optimum: race_demo's graph optimum is 5.050000000000001 in full, and
    // the JSON carries the value of its six-decimal text.
    for (f, tc, json_tc) in [
        ("circuits/race_demo.ckt", "5.050000", "5.05"),
        ("circuits/example2.ckt", "31.000000", "31"),
    ] {
        let out = smo(&["diagnose", f]);
        assert!(out.status.success(), "{f}");
        assert_eq!(stdout(&out), format!("feasible: minimum cycle time {tc}\n"));
        let out = smo(&["diagnose", f, "--json"]);
        assert!(out.status.success(), "{f}");
        assert_eq!(
            stdout(&out),
            format!("{{\"feasible\":true,\"min_cycle\":{json_tc}}}\n")
        );
        let solve = stdout(&smo(&["solve", f]));
        assert!(
            solve.contains(&format!("optimal cycle time: {tc}\n")),
            "{solve}"
        );
    }
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
    let v = json_out(&json);
    assert_eq!(v.get("feasible"), Some(&Json::Bool(false)), "{v:?}");
    assert!(!items(&v, "iis").is_empty(), "{v:?}");
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
        // systems, so the graph backend engages, KKT-certified with the
        // critical cycle's duals.
        let out = smo(&["solve", f]);
        assert!(
            out.status.success(),
            "{f}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(text.contains("certified: true"), "{f}: {text}");
        assert!(text.contains("backend: graph"), "{f}: {text}");
        assert!(text.contains("graph: certified optimal"), "{f}: {text}");

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
    // Graph path (default): one KKT certificate, from the critical
    // cycle's duals.
    let valid = |v: &Json| {
        items(v, "certificates")
            .iter()
            .filter(|c| c.get("valid") == Some(&Json::Bool(true)))
            .count()
    };
    let gap = |v: &Json| {
        items(v, "certificates").iter().all(|c| {
            c.get("residuals")
                .and_then(|r| r.get("duality gap"))
                .is_some()
        })
    };
    let out = smo(&["solve", "circuits/example1.ckt", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let v = json_out(&out);
    assert!(text.starts_with("{\"cycle_time\":110,"), "{text}");
    assert_eq!(v.get("certified"), Some(&Json::Bool(true)), "{text}");
    assert_eq!(v.get("backend").and_then(Json::as_str), Some("graph"));
    assert!(!text.contains("graph_certificate"), "{text}");
    assert!(gap(&v), "{text}");
    assert_eq!(valid(&v), 1, "{text}");

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
    let v = json_out(&out);
    assert_eq!(num(&v, "cycle_time"), Some(110.0), "{text}");
    assert_eq!(v.get("certified"), Some(&Json::Bool(true)), "{text}");
    assert_eq!(v.get("backend").and_then(Json::as_str), Some("lp"));
    assert!(
        items(&v, "certificates")
            .iter()
            .all(|c| num(c, "worst_residual").is_some()),
        "{text}"
    );
    assert!(gap(&v), "{text}");
    assert_eq!(
        valid(&v),
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
    let v = json_out(&out);
    assert_eq!(v.get("certified"), Some(&Json::Bool(false)), "{json}");
    assert_eq!(v.get("backend").and_then(Json::as_str), Some("graph"));
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
    let v = json_out(&out);
    assert_eq!(v.get("clean"), Some(&Json::Bool(false)), "{v:?}");
    assert_eq!(num(&v, "races"), Some(1.0), "{v:?}");
    let has = |key: &str, value: &str| {
        items(&v, "findings")
            .iter()
            .any(|f| f.get(key).and_then(Json::as_str) == Some(value))
    };
    assert!(has("rule", "double-clocking-race"), "{v:?}");
    assert!(has("severity", "error"), "{v:?}");

    let out = smo(&["check", "circuits/example1.ckt", "--json"]);
    assert!(out.status.success());
    let v = json_out(&out);
    assert_eq!(v.get("clean"), Some(&Json::Bool(true)), "{v:?}");
    assert_eq!(num(&v, "races"), Some(0.0), "{v:?}");
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

/// Stdout with the daemon's `cached` flag masked, and the exit code: what
/// a run shows. A repeated `smo call` is answered from the daemon's cache,
/// which is not a difference the flag under test made.
fn shown(args: &[String]) -> (String, Option<i32>) {
    let out = smo(&args.iter().map(String::as_str).collect::<Vec<_>>());
    let text = stdout(&out).replace("\"cached\":true", "\"cached\":false");
    (text, out.status.code())
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

/// A flag a subcommand takes: the arguments to run without it, and what
/// adding it appends. No additions: taken, but not run here.
struct Taken {
    key: String,
    flag: String,
    without: Vec<String>,
    add: Vec<String>,
}

/// The grammar, pinned from the outside: for every subcommand and every
/// flag the usage banner names, the binary either honors the flag —
/// stdout or the exit code changes when it is added — or exits 1 with the
/// usage banner and `unexpected argument`. `smo call` runs against an
/// in-process daemon.
#[test]
fn every_subcommand_honors_or_rejects_every_flag() {
    let server = smo::api::serve(smo::api::ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let padded = padded_example1("grammar-padded.ckt", (4 << 20) + 1);
    let padded = padded.to_str().expect("utf-8");
    let gen_out = tempdir().join("grammar-gen.ckt");
    let gen_out = gen_out.to_str().expect("utf-8");
    const EX1: &str = "circuits/example1.ckt";
    const RACE: &str = "circuits/race_demo.ckt";
    let verify = ["verify", EX1, "110", "0,60", "60,30"];

    // Each subcommand's arguments without flags; `call X` is `smo call`
    // to the daemon with command X.
    let mut base: Vec<(String, Vec<String>)> = Vec::new();
    for cmd in [
        "solve", "diagnose", "lint", "analyze", "report", "simulate", "dot", "lp", "lump",
    ] {
        base.push((cmd.into(), strings(&[cmd, EX1])));
    }
    base.push(("verify".into(), strings(&verify)));
    base.push(("check".into(), strings(&["check", RACE])));
    base.push(("sweep".into(), strings(&["sweep", EX1, "--runs", "3"])));
    base.push((
        "montecarlo".into(),
        strings(&["montecarlo", EX1, "0.97", "20"]),
    ));
    base.push((
        "gen".into(),
        strings(&["gen", "--stages", "4", "--width", "3"]),
    ));
    base.push(("serve".into(), strings(&["serve"])));
    base.push(("bench-serve".into(), strings(&["bench-serve"])));
    for (key, rest) in [
        ("call solve", &["solve", EX1][..]),
        ("call verify", &verify[..]),
        ("call check", &["check", RACE][..]),
        ("call diagnose", &["diagnose", EX1][..]),
        ("call sweep", &["sweep", EX1, "--runs", "3"][..]),
    ] {
        base.push((key.into(), strings(&[&["call", &addr][..], rest].concat())));
    }
    let base_of = |key: &str| -> Vec<String> {
        base.iter()
            .find(|(k, _)| k == key)
            .map(|(_, args)| args.clone())
            .expect("known subcommand")
    };

    let mut accepted: Vec<Taken> = Vec::new();
    let mut take = |key: &str, without: Vec<String>, add: &[&str]| {
        accepted.push(Taken {
            key: key.into(),
            flag: add
                .iter()
                .find(|a| a.starts_with("--"))
                .map_or("", |f| f)
                .into(),
            without,
            add: strings(add),
        });
    };
    for cmd in [
        "solve",
        "verify",
        "check",
        "diagnose",
        "sweep",
        "lint",
        "analyze",
        "report",
        "simulate",
        "montecarlo",
        "dot",
        "lp",
        "lump",
    ] {
        // Past the default 4 MiB limit the netlist is refused; the raised
        // limit reads it.
        let mut without = base_of(cmd);
        without[1] = padded.to_string();
        take(cmd, without, &["--max-input-mb", "8"]);
    }
    for cmd in ["solve", "check", "diagnose", "sweep", "lint", "analyze"] {
        take(cmd, base_of(cmd), &["--json"]);
    }
    for key in ["solve", "call solve"] {
        take(key, base_of(key), &["--backend", "lp"]);
        take(key, base_of(key), &["--no-certify"]);
    }
    take("solve", base_of("solve"), &["--time-limit", "1e-9"]);
    for key in ["verify", "call verify", "check", "call check"] {
        take(key, base_of(key), &["--backend", "lp"]);
    }
    for key in ["check", "call check"] {
        take(key, base_of(key), &["--cycle-time", "6"]);
    }
    take(
        "check",
        base_of("check"),
        &["--allow", "double-clocking-race"],
    );
    take("check", base_of("check"), &["--deny", "hold-margin"]);
    for key in ["diagnose", "call diagnose"] {
        take(key, base_of(key), &["--cycle-time", "100"]);
    }
    for key in ["sweep", "call sweep"] {
        let tc = [base_of(key), strings(&["--param", "tc"])].concat();
        take(key, base_of(key), &["--param", "tc"]);
        take(key, base_of(key), &["--runs", "4"]);
        take(key, tc.clone(), &["--edge", "2"]);
        take(key, tc, &["--max-delay", "140"]);
        take(key, base_of(key), &["--spread", "0.3"]);
        take(key, base_of(key), &["--seed", "5"]);
    }
    // Only the JSON says whether a sweep was certified.
    take("sweep", strings(&["sweep", EX1, "--json"]), &["--certify"]);
    take("call sweep", base_of("call sweep"), &["--certify"]);
    // The report bytes are the same for any worker count, by contract.
    take("sweep", base_of("sweep"), &["--jobs", "2"]);
    for key in [
        "call solve",
        "call verify",
        "call check",
        "call diagnose",
        "call sweep",
    ] {
        take(key, base_of(key), &["--id", "grammar"]);
        take(key, base_of(key), &["--deadline-ms", "0"]);
    }
    take("gen", strings(&["gen"]), &["--latches", "20"]);
    for add in [
        ["--stages", "5"],
        ["--width", "4"],
        ["--phases", "3"],
        ["--fanin", "1"],
        ["--delay-min", "0.5"],
        ["--delay-max", "9"],
        ["--seed", "3"],
        ["--out", gen_out],
    ] {
        take("gen", base_of("gen"), &add);
    }
    // These would start a daemon or a load test.
    for (key, flag) in [
        ("serve", "--addr"),
        ("serve", "--workers"),
        ("serve", "--queue"),
        ("bench-serve", "--quick"),
        ("bench-serve", "--out"),
    ] {
        accepted.push(Taken {
            key: key.into(),
            flag: flag.into(),
            without: Vec::new(),
            add: Vec::new(),
        });
    }

    // Every flag the usage banner names.
    let banner = String::from_utf8_lossy(&smo(&[]).stderr).into_owned();
    let mut flags: Vec<&str> = banner
        .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|t| t.len() > 2 && t.starts_with("--"))
        .collect();
    flags.sort_unstable();
    flags.dedup();
    for t in &accepted {
        assert!(
            flags.contains(&t.flag.as_str()),
            "{}: the banner does not name {}",
            t.key,
            t.flag
        );
    }

    for (key, _) in &base {
        for &flag in &flags {
            match accepted.iter().find(|t| &t.key == key && t.flag == flag) {
                Some(t) if t.add.is_empty() => {}
                Some(t) => {
                    let with = [t.without.clone(), t.add.clone()].concat();
                    let (before, after) = (shown(&t.without), shown(&with));
                    if flag == "--jobs" {
                        assert_eq!(before, after, "`smo {}` changed its output", with.join(" "));
                    } else {
                        assert_ne!(before, after, "`smo {}` ignores {flag}", with.join(" "));
                    }
                }
                None => {
                    let args = [base_of(key), strings(&[flag])].concat();
                    let out = smo(&args.iter().map(String::as_str).collect::<Vec<_>>());
                    let err = String::from_utf8_lossy(&out.stderr);
                    let shown = format!("`smo {}`: {err}", args.join(" "));
                    assert_eq!(out.status.code(), Some(1), "{shown}");
                    assert!(
                        err.contains(&format!("unexpected argument `{flag}`")),
                        "{shown}"
                    );
                    assert!(err.contains("usage:"), "{shown}");
                }
            }
        }
    }

    // A sweep refuses the flags of the parameter it does not sweep, on
    // the command line and under `smo call`, in the daemon's words.
    for key in ["sweep", "call sweep"] {
        for (param, add, field) in [
            (&[][..], ["--edge", "2"], "edge"),
            (&[][..], ["--max-delay", "140"], "max_delay"),
            (&["--param", "delay"][..], ["--edge", "2"], "edge"),
            (&["--param", "tc"][..], ["--spread", "0.3"], "spread"),
            (&["--param", "tc"][..], ["--seed", "5"], "seed"),
        ] {
            let args = [base_of(key), strings(param), strings(&add)].concat();
            let out = smo(&args.iter().map(String::as_str).collect::<Vec<_>>());
            let err = String::from_utf8_lossy(&out.stderr);
            let shown = format!("`smo {}`: {err}", args.join(" "));
            let swept = if param.is_empty() { "delay" } else { param[1] };
            assert_eq!(out.status.code(), Some(1), "{shown}");
            assert!(
                err.contains(&format!(
                    "`{field}` does not apply to a `param` \"{swept}\" sweep"
                )),
                "{shown}"
            );
            assert!(err.contains("usage:"), "{shown}");
        }
    }
    assert!(smo(&["call", &addr, "shutdown"]).status.success());
    server.wait();
}

/// `smo <cmd> … --json` prints the `result` bytes of the daemon's reply
/// to the same request, plus a newline: for every command form the two
/// share, on every shipped netlist.
#[test]
fn json_output_is_the_daemon_result_byte_for_byte() {
    let engine = smo::api::Engine::new(smo::api::EngineConfig::default());
    let forms: [(&[&str], &str); 6] = [
        (&["solve"], r#""cmd":"solve""#),
        (&["check"], r#""cmd":"check""#),
        (&["diagnose"], r#""cmd":"diagnose""#),
        (
            &["diagnose", "--cycle-time", "50"],
            r#""cmd":"diagnose","cycle_time":50"#,
        ),
        (&["sweep", "--runs", "4"], r#""cmd":"sweep","runs":4"#),
        (
            &[
                "sweep",
                "--param",
                "tc",
                "--edge",
                "3",
                "--max-delay",
                "140",
                "--runs",
                "8",
            ],
            r#""cmd":"sweep","param":"tc","edge":3,"max_delay":140,"runs":8"#,
        ),
    ];
    let mut compared = 0;
    for entry in std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("circuits"))
        .expect("circuits/ lists")
    {
        let path = entry.expect("entry").path();
        let text = std::fs::read_to_string(&path).expect("netlist reads");
        let path = path.to_str().expect("utf-8");
        for (args, fields) in forms {
            let line = format!("{{{fields},\"netlist\":{}}}", smo::api::json::escape(&text));
            let reply = engine.handle_line(&line, smo::api::Load::IDLE).line;
            let (cmd, flags) = args.split_first().expect("a command");
            let out = smo(&[&[*cmd, path][..], flags, &["--json"]].concat());
            let shown = format!("`smo {cmd} {path} {}`", flags.join(" "));
            match reply.split_once(r#""status":"ok","degradation":"full","cached":false,"result":"#)
            {
                Some((_, result)) => {
                    let result = result.strip_suffix('}').expect("envelope closes");
                    assert_eq!(stdout(&out), format!("{result}\n"), "{shown}");
                    compared += 1;
                }
                // Where the daemon refuses the request, the CLI does too.
                None => {
                    assert!(
                        reply.contains(r#""kind":"bad-request""#),
                        "{shown}: {reply}"
                    );
                    assert_eq!(out.status.code(), Some(1), "{shown}");
                    assert_eq!(stdout(&out), "", "{shown}");
                }
            }
        }
    }
    assert!(compared >= 6 * 5, "only {compared} forms compared");
}
