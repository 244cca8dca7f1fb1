//! Wire requests: one JSON object per line.
//!
//! Every request is an object with a `"cmd"` field plus command-specific
//! fields. Optional everywhere:
//!
//! - `"id"` — any string, echoed verbatim in the response so clients can
//!   pipeline requests over one connection;
//! - `"deadline_ms"` — wall-clock budget for this request; on expiry the
//!   engine aborts the solve and returns a `budget` error instead of
//!   holding the connection.
//!
//! Work commands (`solve`, `verify`, `check`, `diagnose`, `sweep`) carry
//! the netlist *inline* as the `"netlist"` string field — the daemon never
//! reads the client's filesystem. Control commands (`ping`, `stats`,
//! `shutdown`, `debug-panic`) take no payload and bypass the load gate.
//!
//! The `smo` CLI speaks the same grammar: it turns its command line into
//! the fields of such an object and builds its [`Request`] with
//! [`Request::from_json`], so the defaults and the checks are the
//! daemon's; `smo call` sends [`Request::to_json`].

use crate::error::ApiError;
use crate::json::Json;
use smo_circuit::ClockSchedule;
use smo_core::{Backend, MlpOptions, SweepOptions, SweepParam};

/// A parsed request: envelope fields plus the typed command.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// Per-request wall-clock budget in milliseconds. `Some(0)` is legal
    /// and means "already expired": the engine returns a `budget` error
    /// without starting the solve (useful for probing queue state).
    pub deadline_ms: Option<u64>,
    /// What to do.
    pub command: Command,
}

/// The command payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe; returns `{"ok":true}`.
    Ping,
    /// Server counters: requests served, cache hits, sheds, panics, …
    Stats,
    /// Begin graceful shutdown: drain in-flight work, then exit.
    Shutdown,
    /// Deliberately panic inside the handler. Exists so the
    /// panic-isolation path is testable end-to-end; undocumented in the
    /// usage banner.
    DebugPanic,
    /// Certified minimum cycle time (the daemon twin of `smo solve`).
    Solve {
        /// Netlist text (either dialect; auto-detected).
        netlist: String,
        /// Solver backend.
        backend: Backend,
        /// Independently check every solver verdict. The degradation
        /// ladder may clear this under load.
        certify: bool,
    },
    /// Check a concrete schedule (the daemon twin of `smo verify`).
    Verify {
        /// Netlist text.
        netlist: String,
        /// Cycle time to check.
        cycle_time: f64,
        /// One `[start, width]` pair per phase.
        phases: Vec<(f64, f64)>,
        /// Solver backend for the existence cross-check.
        backend: Backend,
    },
    /// Lint + solve + race analysis (the daemon twin of `smo check`).
    Check {
        /// Netlist text.
        netlist: String,
        /// Optional target cycle time.
        cycle_time: Option<f64>,
        /// Solver backend.
        backend: Backend,
    },
    /// Feasibility diagnosis (the daemon twin of `smo diagnose`).
    Diagnose {
        /// Netlist text.
        netlist: String,
        /// Optional target cycle time.
        cycle_time: Option<f64>,
    },
    /// Parameter sweep (the daemon twin of `smo sweep`).
    Sweep {
        /// Netlist text.
        netlist: String,
        /// What is swept, with the fields that apply to it alone.
        param: Swept,
        /// Number of sweep points.
        runs: usize,
        /// Independently check every re-solve.
        certify: bool,
    },
}

/// What a sweep varies: its wire `param` and the fields only that
/// parameter reads. A request that sets the other parameter's fields is
/// refused.
#[derive(Debug, Clone, PartialEq)]
pub enum Swept {
    /// `"tc"`: the exact `Tc*(Δ)` curve of one edge's delay.
    Tc {
        /// Edge index.
        edge: usize,
        /// Upper end of the delay grid; default `2 ×` the edge's present
        /// delay.
        max_delay: Option<f64>,
    },
    /// `"delay"`: every delay jittered at random.
    Delay {
        /// Relative jitter.
        spread: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl Swept {
    /// The wire `param` of this sweep.
    fn name(&self) -> &'static str {
        match self {
            Swept::Tc { .. } => "tc",
            Swept::Delay { .. } => "delay",
        }
    }
}

impl Command {
    /// The wire name of this command.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Ping => "ping",
            Command::Stats => "stats",
            Command::Shutdown => "shutdown",
            Command::DebugPanic => "debug-panic",
            Command::Solve { .. } => "solve",
            Command::Verify { .. } => "verify",
            Command::Check { .. } => "check",
            Command::Diagnose { .. } => "diagnose",
            Command::Sweep { .. } => "sweep",
        }
    }

    /// Control commands bypass the load gate, the cache and the
    /// degradation ladder; they must stay cheap and always answer.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Command::Ping | Command::Stats | Command::Shutdown | Command::DebugPanic
        )
    }

    /// The inline netlist text, for work commands.
    pub fn netlist(&self) -> Option<&str> {
        match self {
            Command::Solve { netlist, .. }
            | Command::Verify { netlist, .. }
            | Command::Check { netlist, .. }
            | Command::Diagnose { netlist, .. }
            | Command::Sweep { netlist, .. } => Some(netlist),
            _ => None,
        }
    }

    /// The checks a command needs no netlist for: a `check` cycle time is
    /// positive and a `diagnose` one non-negative, a `verify` schedule is
    /// well formed, a sweep has at least one run.
    /// [`Request::from_json`] makes them, so the daemon answers a failure
    /// `bad-request` and the CLI a usage error, in the same words.
    fn validate(&self) -> Result<(), String> {
        let sign = |t: f64, ok: bool, sign: &str| {
            if ok && t.is_finite() {
                Ok(())
            } else {
                Err(format!("cycle time must be finite and {sign}, got {t}"))
            }
        };
        match self {
            Command::Verify {
                cycle_time, phases, ..
            } => {
                let (starts, widths) = phases.iter().copied().unzip();
                ClockSchedule::new(*cycle_time, starts, widths)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }
            Command::Check {
                cycle_time: Some(t),
                ..
            } => sign(*t, *t > 0.0, "positive"),
            Command::Diagnose {
                cycle_time: Some(t),
                ..
            } => sign(*t, *t >= 0.0, "non-negative"),
            Command::Sweep { runs: 0, .. } => Err("run count must be at least 1".into()),
            _ => Ok(()),
        }
    }

    /// Every field but the netlist, in wire order, with defaults filled
    /// in.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        let backend = |b: &Backend| ("backend", Json::Str(b.to_string()));
        let cycle_time = |t: &Option<f64>| t.map(|t| ("cycle_time", Json::Num(t)));
        match self {
            Command::Solve {
                backend: b,
                certify,
                ..
            } => vec![backend(b), ("certify", Json::Bool(*certify))],
            Command::Verify {
                cycle_time,
                phases,
                backend: b,
                ..
            } => vec![
                ("cycle_time", Json::Num(*cycle_time)),
                (
                    "phases",
                    phases
                        .iter()
                        .map(|&(s, w)| Json::from_iter([s, w]))
                        .collect(),
                ),
                backend(b),
            ],
            Command::Check {
                cycle_time: t,
                backend: b,
                ..
            } => cycle_time(t).into_iter().chain([backend(b)]).collect(),
            Command::Diagnose { cycle_time: t, .. } => cycle_time(t).into_iter().collect(),
            Command::Sweep {
                param,
                runs,
                certify,
                ..
            } => {
                let mut f = vec![("param", param.name().into()), ("runs", (*runs).into())];
                match param {
                    Swept::Tc { edge, max_delay } => {
                        f.push(("edge", (*edge).into()));
                        f.extend(max_delay.map(|d| ("max_delay", d.into())));
                    }
                    Swept::Delay { spread, seed } => {
                        f.push(("spread", (*spread).into()));
                        f.push(("seed", Json::Num(*seed as f64)));
                    }
                }
                f.push(("certify", (*certify).into()));
                f
            }
            Command::Ping | Command::Stats | Command::Shutdown | Command::DebugPanic => Vec::new(),
        }
    }

    /// Everything in the command that decides its answer: the name and
    /// every field but the netlist (the result cache's key, beside the
    /// netlist's fingerprint).
    pub(crate) fn signature(&self) -> String {
        format!(
            "{}{}",
            self.name(),
            Json::obj(self.fields()).render_compact()
        )
    }
}

impl Request {
    /// Parses one request line. All failures are `bad-request` errors with
    /// messages naming the offending field.
    pub fn parse(line: &str) -> Result<Request, ApiError> {
        let value =
            Json::parse(line).map_err(|e| ApiError::bad_request(format!("request line: {e}")))?;
        Request::from_json(value)
    }

    /// Builds a request from a JSON object: a parsed request line, or the
    /// fields the CLI read off its command line. Absent fields take their
    /// defaults; fields the command does not use are ignored, except that
    /// a sweep refuses the fields of the `param` it does not run. All
    /// failures, including the checks that need no netlist, are
    /// `bad-request`.
    pub fn from_json(mut value: Json) -> Result<Request, ApiError> {
        if !matches!(value, Json::Obj(_)) {
            return Err(ApiError::bad_request("request must be a JSON object"));
        }
        let id = opt_str(&value, "id")?;
        let deadline_ms = opt_u64(&value, "deadline_ms")?;
        let cmd = value
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing string field `cmd`"))?;
        let command = match cmd {
            "ping" => Command::Ping,
            "stats" => Command::Stats,
            "shutdown" => Command::Shutdown,
            "debug-panic" => Command::DebugPanic,
            "solve" => Command::Solve {
                backend: opt_backend(&value)?,
                certify: opt_bool(&value, "certify")?.unwrap_or(MlpOptions::default().certify),
                netlist: req_netlist(&mut value)?,
            },
            "verify" => Command::Verify {
                cycle_time: req_finite(&value, "cycle_time")?,
                phases: req_phases(&value)?,
                backend: opt_backend(&value)?,
                netlist: req_netlist(&mut value)?,
            },
            "check" => Command::Check {
                cycle_time: opt_finite(&value, "cycle_time")?,
                backend: opt_backend(&value)?,
                netlist: req_netlist(&mut value)?,
            },
            "diagnose" => Command::Diagnose {
                cycle_time: opt_finite(&value, "cycle_time")?,
                netlist: req_netlist(&mut value)?,
            },
            "sweep" => {
                let defaults = SweepOptions::default();
                Command::Sweep {
                    param: req_swept(&value, &defaults)?,
                    runs: opt_u64(&value, "runs")?.map_or(defaults.runs, |n| n as usize),
                    certify: opt_bool(&value, "certify")?.unwrap_or(defaults.certify),
                    netlist: req_netlist(&mut value)?,
                }
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown command `{other}` (known: ping, stats, shutdown, \
                     solve, verify, check, diagnose, sweep)"
                )))
            }
        };
        command.validate().map_err(ApiError::bad_request)?;
        Ok(Request {
            id,
            deadline_ms,
            command,
        })
    }

    /// The request as one wire line, every field written out: for a valid
    /// request `r`, `Request::parse(&r.to_json()) == Ok(r)`.
    pub fn to_json(&self) -> String {
        let mut fields = Vec::new();
        fields.extend(self.id.clone().map(|id| ("id", Json::Str(id))));
        fields.extend(
            self.deadline_ms
                .map(|ms| ("deadline_ms", Json::Num(ms as f64))),
        );
        fields.push(("cmd", Json::Str(self.command.name().into())));
        fields.extend(self.command.fields());
        if let Some(netlist) = self.command.netlist() {
            fields.push(("netlist", Json::Str(netlist.into())));
        }
        Json::obj(fields).render_compact()
    }
}

/// A sweep's `param` (default `"delay"`) and the fields it reads, absent
/// ones taken from the library's `defaults`. The other parameter's fields
/// are refused: a sweep that ignored them would answer a question the
/// client did not ask.
fn req_swept(value: &Json, defaults: &SweepOptions) -> Result<Swept, ApiError> {
    let param = opt_str(value, "param")?;
    let (swept, foreign) = match param.as_deref().unwrap_or("delay") {
        "tc" => (
            Swept::Tc {
                edge: opt_u64(value, "edge")?.map_or(0, |n| n as usize),
                max_delay: opt_finite(value, "max_delay")?,
            },
            ["spread", "seed"],
        ),
        "delay" => (
            Swept::Delay {
                spread: match (opt_finite(value, "spread")?, defaults.param.clone()) {
                    (Some(spread), _) | (None, SweepParam::Delay { spread }) => spread,
                    (None, SweepParam::Tc { .. }) => {
                        unreachable!("the default sweep jitters delays")
                    }
                },
                seed: opt_u64(value, "seed")?.unwrap_or(defaults.seed),
            },
            ["edge", "max_delay"],
        ),
        other => {
            return Err(ApiError::bad_request(format!(
                "`param` must be \"tc\" or \"delay\", got \"{other}\""
            )))
        }
    };
    match foreign
        .into_iter()
        .find(|f| !matches!(value.get(f), None | Some(Json::Null)))
    {
        Some(field) => Err(ApiError::bad_request(format!(
            "`{field}` does not apply to a `param` \"{}\" sweep",
            swept.name()
        ))),
        None => Ok(swept),
    }
}

/// Moves the `netlist` string out of the request object: it is the bulk
/// of the line, and nothing reads it from `value` afterwards.
fn req_netlist(value: &mut Json) -> Result<String, ApiError> {
    match value.get_mut("netlist") {
        Some(Json::Str(s)) => Ok(std::mem::take(s)),
        _ => Err(ApiError::bad_request("missing string field `netlist`")),
    }
}

/// `phases`: an array of `[start, width]` pairs of finite numbers.
fn req_phases(value: &Json) -> Result<Vec<(f64, f64)>, ApiError> {
    let pair = |item: &Json| match item.as_arr()? {
        [s, w] => Some((finite(s)?, finite(w)?)),
        _ => None,
    };
    value
        .get("phases")
        .and_then(Json::as_arr)
        .and_then(|items| items.iter().map(pair).collect())
        .ok_or_else(|| {
            ApiError::bad_request("verify needs `phases`: an array of [start, width] number pairs")
        })
}

fn finite(v: &Json) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

/// An optional field: `None` when absent or `null`, otherwise `read`'s
/// value, or a `bad-request` that says what the field must be.
fn opt<T>(
    value: &Json,
    field: &str,
    what: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, ApiError> {
    match value.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| ApiError::bad_request(format!("`{field}` must be {what}"))),
    }
}

fn opt_finite(value: &Json, field: &str) -> Result<Option<f64>, ApiError> {
    opt(value, field, "a finite number", finite)
}

fn req_finite(value: &Json, field: &str) -> Result<f64, ApiError> {
    opt_finite(value, field)?
        .ok_or_else(|| ApiError::bad_request(format!("missing numeric field `{field}`")))
}

fn opt_u64(value: &Json, field: &str) -> Result<Option<u64>, ApiError> {
    opt(
        value,
        field,
        "a non-negative integer below 2^53",
        Json::as_u64,
    )
}

fn opt_bool(value: &Json, field: &str) -> Result<Option<bool>, ApiError> {
    opt(value, field, "a boolean", Json::as_bool)
}

fn opt_str(value: &Json, field: &str) -> Result<Option<String>, ApiError> {
    opt(value, field, "a string", |v| v.as_str().map(str::to_string))
}

fn opt_backend(value: &Json) -> Result<Backend, ApiError> {
    opt_str(value, "backend")?.map_or(Ok(Backend::default()), |s| {
        s.parse()
            .map_err(|e: String| ApiError::bad_request(format!("`backend`: {e}")))
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_solve_request() {
        let r = Request::parse(
            r#"{"id":"a1","cmd":"solve","netlist":"clock 2\n","deadline_ms":250,"backend":"graph","certify":false}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("a1"));
        assert_eq!(r.deadline_ms, Some(250));
        match r.command {
            Command::Solve {
                netlist,
                backend,
                certify,
            } => {
                assert_eq!(netlist, "clock 2\n");
                assert_eq!(backend, Backend::Graph);
                assert!(!certify);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn defaults_are_applied() {
        let r = Request::parse(r#"{"cmd":"solve","netlist":""}"#).unwrap();
        assert_eq!(r.id, None);
        assert_eq!(r.deadline_ms, None);
        // The library, CLI and daemon share one default.
        let mlp = MlpOptions::default();
        assert_eq!(
            r.command,
            Command::Solve {
                netlist: String::new(),
                backend: mlp.backend,
                certify: mlp.certify,
            }
        );
        let r = Request::parse(r#"{"cmd":"sweep","netlist":""}"#).unwrap();
        let sweep = SweepOptions::default();
        let SweepParam::Delay { spread } = sweep.param else {
            panic!("the default sweep jitters delays: {:?}", sweep.param);
        };
        assert_eq!(
            r.command,
            Command::Sweep {
                netlist: String::new(),
                param: Swept::Delay {
                    spread,
                    seed: sweep.seed,
                },
                runs: sweep.runs,
                certify: sweep.certify,
            }
        );
    }

    #[test]
    fn verify_needs_phase_pairs() {
        let r = Request::parse(
            r#"{"cmd":"verify","netlist":"x","cycle_time":10,"phases":[[0,5],[5,5]]}"#,
        )
        .unwrap();
        match r.command {
            Command::Verify {
                cycle_time, phases, ..
            } => {
                assert_eq!(cycle_time, 10.0);
                assert_eq!(phases, vec![(0.0, 5.0), (5.0, 5.0)]);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let e = Request::parse(r#"{"cmd":"verify","netlist":"x","cycle_time":10,"phases":[[0]]}"#)
            .unwrap_err();
        assert!(e.message.contains("phases"));
    }

    #[test]
    fn hostile_requests_are_bad_request() {
        for line in [
            "",
            "not json",
            "[]",
            "42",
            r#"{"cmd":"frobnicate"}"#,
            r#"{"netlist":"x"}"#,
            r#"{"cmd":"solve"}"#,
            r#"{"cmd":"solve","netlist":7}"#,
            r#"{"cmd":"solve","netlist":"","deadline_ms":-1}"#,
            r#"{"cmd":"solve","netlist":"","deadline_ms":1.5}"#,
            r#"{"cmd":"sweep","netlist":"","param":"voltage"}"#,
            r#"{"cmd":"sweep","netlist":"","runs":0}"#,
            r#"{"cmd":"check","netlist":"","cycle_time":"ten"}"#,
            r#"{"cmd":"solve","netlist":"","backend":"quantum"}"#,
        ] {
            let e = Request::parse(line).unwrap_err();
            assert_eq!(e.kind, crate::error::ErrorKind::BadRequest, "line: {line}");
        }
    }

    #[test]
    fn control_commands_carry_no_payload() {
        for (line, name) in [
            (r#"{"cmd":"ping"}"#, "ping"),
            (r#"{"cmd":"stats"}"#, "stats"),
            (r#"{"cmd":"shutdown"}"#, "shutdown"),
            (r#"{"cmd":"debug-panic"}"#, "debug-panic"),
        ] {
            let r = Request::parse(line).unwrap();
            assert!(r.command.is_control());
            assert_eq!(r.command.name(), name);
            assert_eq!(r.command.netlist(), None);
        }
    }

    /// The option values the daemon used to take into the solve, where
    /// they failed as `internal` (`check`) or `invalid-circuit`
    /// (`diagnose`), and the other values a command can be refused for
    /// without its netlist: all are `bad-request` now.
    #[test]
    fn invalid_option_values_are_bad_requests() {
        let engine = crate::Engine::new(crate::EngineConfig::default());
        for line in [
            r#"{"cmd":"check","netlist":"x","cycle_time":-5}"#,
            r#"{"cmd":"check","netlist":"x","cycle_time":0}"#,
            r#"{"cmd":"diagnose","netlist":"x","cycle_time":-5}"#,
            r#"{"cmd":"sweep","netlist":"x","runs":0}"#,
            r#"{"cmd":"sweep","netlist":"x","param":"voltage"}"#,
            r#"{"cmd":"sweep","netlist":"x","param":7}"#,
            r#"{"cmd":"sweep","netlist":"x","seed":9007199254740993}"#,
            // A sweep refuses the other `param`'s fields.
            r#"{"cmd":"sweep","netlist":"x","edge":2}"#,
            r#"{"cmd":"sweep","netlist":"x","param":"delay","max_delay":140}"#,
            r#"{"cmd":"sweep","netlist":"x","param":"tc","spread":0.3}"#,
            r#"{"cmd":"sweep","netlist":"x","param":"tc","edge":2,"seed":5}"#,
            r#"{"cmd":"verify","netlist":"x","cycle_time":-5,"phases":[[0,1]]}"#,
            r#"{"cmd":"verify","netlist":"x","cycle_time":10,"phases":[[5,1],[0,1]]}"#,
            r#"{"cmd":"verify","netlist":"x","cycle_time":10,"phases":[[0,11]]}"#,
            r#"{"cmd":"verify","netlist":"x","cycle_time":10,"phases":[]}"#,
            r#"{"cmd":"verify","netlist":"x","cycle_time":10,"phases":[[0,1,2]]}"#,
        ] {
            let e = Request::parse(line).unwrap_err();
            assert_eq!(e.kind, crate::error::ErrorKind::BadRequest, "{line}: {e}");
            let reply = engine.handle_line(line, crate::Load::IDLE).line;
            assert!(reply.contains(r#""kind":"bad-request""#), "{line}: {reply}");
        }
        // `diagnose` takes a zero cycle time; `check` needs a positive one.
        assert!(Request::parse(r#"{"cmd":"diagnose","netlist":"x","cycle_time":0}"#).is_ok());
        // A `null` field is an absent one, whichever sweep reads it.
        assert!(Request::parse(r#"{"cmd":"sweep","netlist":"x","edge":null}"#).is_ok());
        let e = Request::parse(r#"{"cmd":"sweep","netlist":"x","edge":2}"#).unwrap_err();
        assert_eq!(
            e.message,
            "`edge` does not apply to a `param` \"delay\" sweep"
        );
    }

    #[test]
    fn integers_past_the_wire_range_are_refused_not_rounded() {
        let r = Request {
            id: None,
            deadline_ms: Some((1 << 53) + 1),
            command: Command::Ping,
        };
        let e = Request::parse(&r.to_json()).unwrap_err();
        assert!(e.message.contains("deadline_ms"), "{e}");
    }

    mod round_trip {
        use super::*;
        use proptest::prelude::*;

        /// Text over characters the wire escapes (quotes, backslashes,
        /// control characters) and multi-byte ones.
        fn text(max: usize) -> impl Strategy<Value = String> {
            let chars = vec![
                'a', 'Z', '0', ' ', '#', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}',
                '\u{7f}', 'é', '中', '🦀',
            ];
            proptest::collection::vec(proptest::sample::select(chars), 0..max)
                .prop_map(|cs| cs.into_iter().collect())
        }

        /// A finite number from about 1e-12 to 1e12, integral or not.
        fn number() -> impl Strategy<Value = f64> {
            (0.0f64..10.0, -12i32..12, proptest::bool::ANY).prop_map(|(m, e, round)| {
                let x = m * 10f64.powi(e);
                if round {
                    x.round()
                } else {
                    x
                }
            })
        }

        const WIRE_INT: u64 = (1 << 53) - 1;

        /// Any valid request: every command, with and without its
        /// optional fields.
        fn request() -> impl Strategy<Value = Request> {
            (
                (0usize..9, text(12), 0..=WIRE_INT, 0u8..4),
                (
                    text(60),
                    proptest::sample::select(vec![Backend::Auto, Backend::Graph, Backend::Lp]),
                ),
                (
                    number(),
                    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..5),
                ),
                (
                    1usize..=WIRE_INT as usize,
                    0usize..=WIRE_INT as usize,
                    number(),
                    0..=WIRE_INT,
                ),
            )
                .prop_map(
                    |(
                        (which, id, deadline, bits),
                        (netlist, backend),
                        (x, pairs),
                        (runs, edge, spread, seed),
                    )| {
                        let (flag, some) = (bits & 1 == 1, bits & 2 == 2);
                        let t = x + 1e-9;
                        let mut starts: Vec<f64> = pairs.iter().map(|p| p.0 * t).collect();
                        starts.sort_by(f64::total_cmp);
                        let phases = starts
                            .into_iter()
                            .zip(pairs.iter().map(|p| p.1 * t))
                            .collect();
                        let command = match which {
                            0 => Command::Ping,
                            1 => Command::Stats,
                            2 => Command::Shutdown,
                            3 => Command::DebugPanic,
                            4 => Command::Solve {
                                netlist,
                                backend,
                                certify: flag,
                            },
                            5 => Command::Verify {
                                netlist,
                                cycle_time: t,
                                phases,
                                backend,
                            },
                            6 => Command::Check {
                                netlist,
                                cycle_time: some.then_some(t),
                                backend,
                            },
                            7 => Command::Diagnose {
                                netlist,
                                cycle_time: some.then_some(x),
                            },
                            _ => Command::Sweep {
                                netlist,
                                param: if flag {
                                    Swept::Tc {
                                        edge,
                                        max_delay: some.then_some(x),
                                    }
                                } else {
                                    Swept::Delay { spread, seed }
                                },
                                runs,
                                certify: !flag,
                            },
                        };
                        Request {
                            id: some.then_some(id),
                            deadline_ms: flag.then_some(deadline),
                            command,
                        }
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// `to_json` writes every field so that `parse` reads back the
            /// same request, escapes and all.
            #[test]
            fn parse_reads_back_what_to_json_writes(r in request()) {
                prop_assert_eq!(Request::parse(&r.to_json()), Ok(r.clone()));
            }
        }
    }
}
