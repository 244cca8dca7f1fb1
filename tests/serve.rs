//! End-to-end tests for the `smo serve` daemon: golden wire-protocol
//! envelopes, deadline expiry over the socket, panic isolation +
//! quarantine, backpressure shedding, graceful drain, and a hostile
//! corpus sweep (every checked-in circuit, the stress generators,
//! malformed and oversized inputs) that must never crash the server.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use smo::api::{serve, Client, Engine, EngineConfig, Json, Load, ServerConfig};
use smo::circuit::netlist;
use std::time::Duration;

/// Escapes a netlist into a JSON string literal.
fn js(s: &str) -> String {
    smo::api::json::escape(s)
}

/// Builds a solve request line for an inline netlist.
fn solve_line(id: &str, netlist: &str) -> String {
    format!(
        "{{\"id\":{},\"cmd\":\"solve\",\"netlist\":{}}}",
        js(id),
        js(netlist)
    )
}

/// Parses a response line and returns (status, kind-or-empty).
fn classify(line: &str) -> (String, String) {
    let v = Json::parse(line).expect("response must be valid JSON");
    let status = v.get("status").and_then(Json::as_str).unwrap().to_string();
    let kind = v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    (status, kind)
}

fn read_circuit(name: &str) -> String {
    std::fs::read_to_string(format!("circuits/{name}")).unwrap()
}

fn start_server(max_active: usize, max_queue: usize) -> smo::api::ServerHandle {
    let config = ServerConfig {
        max_active,
        max_queue,
        ..Default::default()
    };
    serve(config).expect("bind")
}

// ---------------------------------------------------------------------
// Golden envelope bytes: these strings ARE the wire protocol. If one of
// these assertions breaks, a client somewhere breaks with it.
// ---------------------------------------------------------------------

#[test]
fn golden_control_envelopes() {
    let e = Engine::new(EngineConfig::default());
    let ping = e.handle_line("{\"id\":\"p\",\"cmd\":\"ping\"}", Load::IDLE);
    assert_eq!(
        ping.line,
        "{\"id\":\"p\",\"status\":\"ok\",\"degradation\":\"full\",\"cached\":false,\
         \"result\":{\"ok\":true}}"
    );
    let shutdown = e.handle_line("{\"id\":\"bye\",\"cmd\":\"shutdown\"}", Load::IDLE);
    assert!(shutdown.shutdown);
    assert_eq!(
        shutdown.line,
        "{\"id\":\"bye\",\"status\":\"ok\",\"degradation\":\"full\",\"cached\":false,\
         \"result\":{\"draining\":true}}"
    );
}

#[test]
fn golden_error_envelopes() {
    let e = Engine::new(EngineConfig::default());

    // Malformed JSON: bad-request, id unknown so null.
    let bad = e.handle_line("this is not json", Load::IDLE);
    let v = Json::parse(&bad.line).unwrap();
    assert!(matches!(v.get("id"), Some(Json::Null)));
    assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
    let err = v.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad-request"));
    assert_eq!(err.get("retryable").and_then(Json::as_bool), Some(false));

    // Expired deadline: exact bytes.
    let line = format!(
        "{{\"id\":\"d\",\"cmd\":\"solve\",\"deadline_ms\":0,\"netlist\":{}}}",
        js(&read_circuit("example1.ckt"))
    );
    let expired = e.handle_line(&line, Load::IDLE);
    assert_eq!(
        expired.line,
        "{\"id\":\"d\",\"status\":\"error\",\"degradation\":\"full\",\"cached\":false,\
         \"error\":{\"kind\":\"budget\",\
         \"message\":\"deadline expired before the request started\",\
         \"retryable\":false}}"
    );

    // Load-shed and drain refusals: exact bytes, retryable.
    assert_eq!(
        e.shed_reply(Some("s")),
        "{\"id\":\"s\",\"status\":\"error\",\"degradation\":\"uncertified\",\"cached\":false,\
         \"error\":{\"kind\":\"overload\",\
         \"message\":\"server saturated (active and queued slots full); retry with backoff\",\
         \"retryable\":true}}"
    );
    assert_eq!(
        e.shutting_down_reply(None),
        "{\"id\":null,\"status\":\"error\",\"degradation\":\"uncertified\",\"cached\":false,\
         \"error\":{\"kind\":\"shutting-down\",\
         \"message\":\"server is draining for shutdown\",\
         \"retryable\":true}}"
    );
}

/// A `check` whose solve fails gets the kind a `solve` failure would,
/// with the check's own message: an infeasible pinned cycle time is
/// `infeasible`, not `internal`.
#[test]
fn check_solve_failures_are_classified_like_solve_failures() {
    let e = Engine::new(EngineConfig::default());
    let line = format!(
        "{{\"id\":\"c\",\"cmd\":\"check\",\"cycle_time\":50,\"netlist\":{}}}",
        js(&read_circuit("example1.ckt"))
    );
    let reply = e.handle_line(&line, Load::IDLE).line;
    assert_eq!(
        classify(&reply),
        ("error".to_string(), "infeasible".to_string()),
        "{reply}"
    );
    let message = Json::parse(&reply)
        .unwrap()
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .map(str::to_string);
    assert_eq!(
        message.as_deref(),
        Some(
            "timing constraints are infeasible: no feasible schedule at cycle time 50: \
             negative constraint cycle over 4 row(s) (minimum feasible cycle time 110.000000)"
        )
    );
}

#[test]
fn golden_solve_result_bytes() {
    // Pins the full ok envelope for Example 2 of the paper — field order,
    // number formatting, degradation stamp, everything.
    let e = Engine::new(EngineConfig::default());
    let reply = e.handle_line(&solve_line("s1", &read_circuit("example2.ckt")), Load::IDLE);
    assert_eq!(
        reply.line,
        "{\"id\":\"s1\",\"status\":\"ok\",\"degradation\":\"full\",\"cached\":false,\
         \"result\":{\"cycle_time\":31,\"certified\":true,\"backend\":\"graph\",\
         \"lp_iterations\":0,\"update_iterations\":2,\"num_constraints\":32,\
         \"certificates\":[{\"valid\":true,\"tolerance\":1e-7,\"worst_residual\":0,\
         \"residuals\":{\"primal\":0,\"bounds\":0,\"stationarity\":0,\"dual sign\":0,\
         \"complementarity\":0,\"duality gap\":0}}]}}"
    );
    // Byte-identical on the cache hit, except for the cached flag.
    let again = e.handle_line(&solve_line("s1", &read_circuit("example2.ckt")), Load::IDLE);
    assert_eq!(
        again.line,
        reply.line.replace("\"cached\":false", "\"cached\":true")
    );
}

// ---------------------------------------------------------------------
// Live-socket behaviour.
// ---------------------------------------------------------------------

#[test]
fn deadline_expiry_over_the_wire() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // A large circuit forced onto the LP backend with a 1 ms deadline:
    // the solver must notice mid-flight and return a structured budget
    // error rather than running to completion.
    let big = netlist::write(&smo::gen::random::random_circuit(
        &smo::gen::random::GenConfig {
            latches: 120,
            edges: 360,
            ..Default::default()
        },
        7,
    ));
    let line = format!(
        "{{\"id\":\"slow\",\"cmd\":\"solve\",\"backend\":\"lp\",\"deadline_ms\":1,\"netlist\":{}}}",
        js(&big)
    );
    let resp = client.call(&line).unwrap();
    let (status, kind) = classify(&resp);
    assert_eq!(status, "error");
    assert_eq!(kind, "budget");

    // The same netlist without a deadline still solves: deadline expiry
    // does not poison the circuit cache.
    let ok = client.call(&solve_line("ok", &big)).unwrap();
    assert_eq!(classify(&ok).0, "ok");

    server.shutdown();
    server.wait();
}

/// A `tc` sweep over the wire reports the exact breakpoints of the
/// `T_c*(Δ)` curve, the same ones `smo sweep --param tc --edge 347` prints
/// for `smo gen --latches 300 --seed 7`.
#[test]
fn tc_sweep_over_the_wire_reports_the_exact_breakpoints() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let config = smo::gen::datapath::DatapathConfig::with_latches(300);
    let datapath = netlist::write(&smo::gen::datapath::pipelined_datapath(&config, 7));
    let line = format!(
        "{{\"id\":\"tc\",\"cmd\":\"sweep\",\"param\":\"tc\",\"edge\":347,\"runs\":8,\"netlist\":{}}}",
        js(&datapath)
    );
    let resp = client.call(&line).unwrap();
    assert_eq!(classify(&resp).0, "ok", "{resp}");
    let v = Json::parse(&resp).unwrap();
    let breakpoints: Vec<String> = v
        .get("result")
        .and_then(|r| r.get("breakpoints"))
        .and_then(Json::as_arr)
        .expect("a tc sweep reports breakpoints")
        .iter()
        .map(|b| format!("{:.6}", b.as_f64().unwrap()))
        .collect();
    assert_eq!(breakpoints, ["37.459242", "65.566233"], "{resp}");

    server.shutdown();
    server.wait();
}

#[test]
fn diagnose_over_the_wire_on_a_generated_datapath() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let config = smo::gen::datapath::DatapathConfig::with_latches(1000);
    let datapath = js(&netlist::write(&smo::gen::datapath::pipelined_datapath(
        &config, 7,
    )));
    let result = |resp: &str| {
        assert_eq!(classify(resp).0, "ok", "{resp}");
        Json::parse(resp).unwrap().get("result").unwrap().clone()
    };
    let solved = result(
        &client
            .call(&format!("{{\"cmd\":\"solve\",\"netlist\":{datapath}}}"))
            .unwrap(),
    );
    let tc = solved.get("cycle_time").and_then(Json::as_f64).unwrap();

    // Uncapped: the optimum, from the same graph solve as `solve`.
    let free = result(
        &client
            .call(&format!("{{\"cmd\":\"diagnose\",\"netlist\":{datapath}}}"))
            .unwrap(),
    );
    assert_eq!(free.get("feasible").and_then(Json::as_bool), Some(true));
    let min_cycle = free.get("min_cycle").and_then(Json::as_f64).unwrap();
    // `solve` prints six decimals.
    assert!((min_cycle - tc).abs() <= 1e-6, "{min_cycle} vs {tc}");

    // Capped below the optimum: a certified conflict that names the cap.
    let capped = result(
        &client
            .call(&format!(
                "{{\"cmd\":\"diagnose\",\"cycle_time\":50,\"netlist\":{datapath}}}"
            ))
            .unwrap(),
    );
    assert_eq!(capped.get("feasible").and_then(Json::as_bool), Some(false));
    assert_eq!(capped.get("certified").and_then(Json::as_bool), Some(true));
    assert_eq!(capped.get("cycle_limit").and_then(Json::as_f64), Some(50.0));
    let iis = capped.get("iis").and_then(Json::as_arr).unwrap();
    assert!(iis.len() >= 2, "a cap alone is never an IIS");
    assert!(iis.iter().any(|row| {
        row.get("relation")
            .and_then(Json::as_str)
            .is_some_and(|r| r == "Tc <= 50")
    }));

    server.shutdown();
    server.wait();
}

#[test]
fn panic_isolation_and_quarantine() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // `#!panic` is the engine's test hook: the handler genuinely panics
    // inside catch_unwind, exactly like an engine bug on hostile input.
    let poison = "#!panic\n# never parsed\n";
    let first = client.call(&solve_line("p1", poison)).unwrap();
    let (status, kind) = classify(&first);
    assert_eq!((status.as_str(), kind.as_str()), ("error", "panic"));

    // The daemon is still alive and serving on the same connection…
    let pong = client.call("{\"id\":\"alive\",\"cmd\":\"ping\"}").unwrap();
    assert_eq!(classify(&pong).0, "ok");
    // …and on fresh connections.
    let mut second = Client::connect(&addr).unwrap();
    let resolve = second
        .call(&solve_line("fine", &read_circuit("example1.ckt")))
        .unwrap();
    assert_eq!(classify(&resolve).0, "ok");

    // Resubmitting the poisoned input is fenced off without re-running.
    let again = second.call(&solve_line("p2", poison)).unwrap();
    let (status, kind) = classify(&again);
    assert_eq!((status.as_str(), kind.as_str()), ("error", "quarantined"));

    // debug-panic exercises the same path for control flow.
    let dp = client.call("{\"cmd\":\"debug-panic\"}").unwrap();
    assert_eq!(classify(&dp), ("error".into(), "panic".into()));
    let pong = client.call("{\"cmd\":\"ping\"}").unwrap();
    assert_eq!(classify(&pong).0, "ok");

    server.shutdown();
    server.wait();
}

#[test]
fn hostile_corpus_never_crashes_the_daemon() {
    let server = start_server(4, 8);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let mut sent = 0usize;

    let mut expect_structured = |line: &str, client: &mut Client| {
        let resp = client.call(line).expect("daemon must keep answering");
        let v = Json::parse(&resp).expect("every response is one JSON object");
        let status = v.get("status").and_then(Json::as_str).unwrap();
        assert!(status == "ok" || status == "error", "status was {status}");
        if status == "error" {
            let kind = v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap();
            assert!(!kind.is_empty());
        }
        sent += 1;
    };

    // Every checked-in circuit through every work command.
    for entry in std::fs::read_dir("circuits").unwrap() {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        let n = js(&src);
        expect_structured(
            &format!("{{\"cmd\":\"solve\",\"netlist\":{n}}}"),
            &mut client,
        );
        expect_structured(
            &format!("{{\"cmd\":\"check\",\"netlist\":{n}}}"),
            &mut client,
        );
        expect_structured(
            &format!("{{\"cmd\":\"diagnose\",\"cycle_time\":1,\"netlist\":{n}}}"),
            &mut client,
        );
        // …and truncated / corrupted variants of it.
        let truncated = &src[..src.len() / 2];
        expect_structured(
            &format!("{{\"cmd\":\"solve\",\"netlist\":{}}}", js(truncated)),
            &mut client,
        );
    }

    // The stress-generator suite: numerically nasty but valid circuits.
    for (name, circuit) in smo::gen::stress::suite(3) {
        let n = js(&netlist::write(&circuit));
        let line = format!("{{\"id\":{},\"cmd\":\"solve\",\"netlist\":{n}}}", js(&name));
        expect_structured(&line, &mut client);
    }

    // Malformed inputs: garbage JSON, wrong types, unknown commands,
    // binary noise, deeply nested JSON.
    for bad in [
        "{".to_string(),
        "[1,2,3]".to_string(),
        "{\"cmd\":42}".to_string(),
        "{\"cmd\":\"frobnicate\"}".to_string(),
        "{\"cmd\":\"solve\",\"netlist\":7}".to_string(),
        "{\"cmd\":\"solve\"}".to_string(),
        "\u{1}\u{2}binary\u{3}".to_string(),
        format!("{}1{}", "[".repeat(100), "]".repeat(100)),
    ] {
        expect_structured(&bad, &mut client);
    }

    // Oversized netlist: exceeds ParseLimits, must come back `limit`.
    let huge = "a".repeat((4 << 20) + 1);
    let resp = client
        .call(&format!("{{\"cmd\":\"solve\",\"netlist\":{}}}", js(&huge)))
        .unwrap();
    assert_eq!(classify(&resp), ("error".into(), "limit".into()));

    // After all of that the daemon still drains cleanly.
    let stats = client.call("{\"cmd\":\"stats\"}").unwrap();
    let v = Json::parse(&stats).unwrap();
    assert_eq!(
        v.get("result")
            .and_then(|r| r.get("panics"))
            .and_then(Json::as_u64),
        Some(0),
        "hostile corpus must not panic the engine"
    );
    // The retired `basis_hits` key stays numeric for existing readers.
    assert_eq!(
        v.get("result")
            .and_then(|r| r.get("cache"))
            .and_then(|c| c.get("basis_hits"))
            .and_then(Json::as_u64),
        Some(0)
    );
    assert!(sent > 20, "corpus should exercise many requests");
    server.shutdown();
    server.wait();
}

#[test]
fn overload_sheds_instead_of_buffering() {
    // One execution slot, zero queue: a second concurrent request must be
    // shed with a structured, retryable overload error.
    let server = serve(ServerConfig {
        max_active: 1,
        max_queue: 0,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    // Occupy the only slot with a deliberately slow LP solve: about 0.1 s
    // in a release build, far longer than the 20 pokes below.
    let big = netlist::write(&smo::gen::random::random_circuit(
        &smo::gen::random::GenConfig {
            latches: 100,
            edges: 300,
            ..Default::default()
        },
        11,
    ));
    let slow_line = format!(
        "{{\"id\":\"slow\",\"cmd\":\"solve\",\"backend\":\"lp\",\"netlist\":{}}}",
        js(&big)
    );
    let addr2 = addr.clone();
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        c.call(&slow_line).unwrap()
    });

    // Wait for the slow request to actually hold the slot, then poke.
    // `stats` is a control command, so it gets past the full slot.
    let mut c = Client::connect(&addr).unwrap();
    while !c
        .call("{\"cmd\":\"stats\"}")
        .unwrap()
        .contains("\"active\":1")
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Control commands bypass the gate even under saturation.
    let pong = c.call("{\"cmd\":\"ping\"}").unwrap();
    assert_eq!(classify(&pong).0, "ok");
    // Work commands are shed.
    let mut shed = 0;
    for i in 0..20 {
        let resp = c
            .call(&solve_line(&format!("q{i}"), &read_circuit("example1.ckt")))
            .unwrap();
        let (status, kind) = classify(&resp);
        if status == "error" && kind == "overload" {
            shed += 1;
        }
    }
    assert!(shed > 0, "a saturated 1-slot server must shed work");

    let slow_resp = slow.join().unwrap();
    assert_eq!(classify(&slow_resp).0, "ok");
    server.shutdown();
    server.wait();
}

#[test]
fn graceful_drain_finishes_inflight_work() {
    let server = start_server(2, 2);
    let addr = server.addr().to_string();

    let mut a = Client::connect(&addr).unwrap();
    let resp = a
        .call(&solve_line("before", &read_circuit("alu_bypass.ckt")))
        .unwrap();
    assert_eq!(classify(&resp).0, "ok");

    // Shutdown via the wire command; the same connection gets the ack.
    let ack = a.call("{\"id\":\"bye\",\"cmd\":\"shutdown\"}").unwrap();
    let v = Json::parse(&ack).unwrap();
    assert_eq!(
        v.get("result")
            .and_then(|r| r.get("draining"))
            .and_then(Json::as_bool),
        Some(true)
    );
    server.wait(); // must return: no wedged threads, no abandoned work
}

// ---------------------------------------------------------------------
// Line framing: how request bytes become lines, however they arrive.
// ---------------------------------------------------------------------

/// A raw connection: request bytes go out exactly as given.
fn raw_connect(addr: &str) -> (std::net::TcpStream, std::io::BufReader<std::net::TcpStream>) {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = std::io::BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Reads one reply line, without its newline.
fn read_reply(reader: &mut impl std::io::BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.ends_with('\n'),
        "reply must be one whole line: {line:?}"
    );
    line.pop();
    line
}

#[test]
fn framing_reassembles_a_request_from_any_split() {
    use std::io::Write as _;
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let (mut stream, mut reader) = raw_connect(&addr);
    let netlist = read_circuit("example2.ckt");
    let big = netlist::write(&smo::gen::random::random_circuit(
        &smo::gen::random::GenConfig {
            latches: 60,
            edges: 120,
            ..Default::default()
        },
        5,
    ));
    let cases = [
        (1usize, solve_line("one", &netlist)),
        (4096, solve_line("four", &big)),
    ];
    for (piece, line) in cases {
        let bytes = format!("{line}\n").into_bytes();
        for chunk in bytes.chunks(piece) {
            stream.write_all(chunk).unwrap();
        }
        let reply = read_reply(&mut reader);
        let expected = Engine::new(EngineConfig::default()).handle_line(&line, Load::IDLE);
        assert_eq!(reply, expected.line, "pieces of {piece} bytes");
    }
    server.shutdown();
    server.wait();
}

#[test]
fn framing_splits_two_requests_in_one_write_and_strips_crlf() {
    use std::io::Write as _;
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let (mut stream, mut reader) = raw_connect(&addr);
    stream
        .write_all(b"{\"id\":\"a\",\"cmd\":\"ping\"}\n{\"id\":\"b\",\"cmd\":\"ping\"}\r\n")
        .unwrap();
    let pong = |id: &str| {
        Engine::new(EngineConfig::default())
            .handle_line(&format!("{{\"id\":\"{id}\",\"cmd\":\"ping\"}}"), Load::IDLE)
            .line
    };
    assert_eq!(read_reply(&mut reader), pong("a"));
    assert_eq!(read_reply(&mut reader), pong("b"));
    server.shutdown();
    server.wait();
}

#[test]
fn framing_decodes_invalid_utf8_lossily() {
    use std::io::Write as _;
    let server = start_server(2, 2);
    let addr = server.addr().to_string();
    let (mut stream, mut reader) = raw_connect(&addr);
    for bytes in [
        &b"{\"id\":\"\xff\xfe\",\"cmd\":\"ping\"}"[..],
        &b"\xc3(\x80 not json"[..],
    ] {
        stream.write_all(bytes).unwrap();
        stream.write_all(b"\n").unwrap();
        let expected = Engine::new(EngineConfig::default())
            .handle_line(&String::from_utf8_lossy(bytes), Load::IDLE)
            .line;
        assert_eq!(read_reply(&mut reader), expected);
    }
    server.shutdown();
    server.wait();
}

#[test]
fn framing_refuses_a_line_past_max_line_bytes() {
    use std::io::{Read as _, Write as _};
    let server = serve(ServerConfig {
        max_active: 1,
        max_queue: 1,
        max_line_bytes: 4096,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let (mut stream, mut reader) = raw_connect(&addr);
    stream.write_all(&[b'x'; 5000]).unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(classify(&reply), ("error".into(), "limit".into()));
    assert!(reply.contains("request line exceeds 4096 bytes"), "{reply}");
    // The daemon closes the connection after refusing the line.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
    server.shutdown();
    server.wait();
}
