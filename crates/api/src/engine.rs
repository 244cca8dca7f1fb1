//! The request engine: one parsed line in, one response line out, with
//! the whole failure model applied on the way through.
//!
//! Per request, in order:
//!
//! 1. **Parse** the JSON line → `bad-request` on anything malformed.
//! 2. **Quarantine check** — inputs that previously panicked the engine
//!    are refused without re-running the bug.
//! 3. **Deadline** — `deadline_ms` becomes a
//!    [`SolveBudget`](smo_lp::SolveBudget) fixed at receipt; an
//!    already-expired deadline returns `budget` without starting the
//!    solve.
//! 4. **Degradation** — the load factor picks a rung on the quality
//!    ladder (certified LP → graph fast path → uncertified); the rung is
//!    stamped into the response so clients know what they got.
//! 5. **Cache** — a `(fingerprint, signature)` hit returns the stored
//!    payload with `"cached": true`; the signature includes the
//!    degradation rung so a degraded answer can never impersonate a full
//!    one.
//! 6. **Isolation** — the handler runs under `catch_unwind`; a panic
//!    quarantines the fingerprint, purges its cache entries, and returns
//!    a structured `panic` error instead of killing the worker.
//!
//! The engine is synchronous and `&self`-threadsafe: the TCP server calls
//! [`Engine::handle_line`] from many connection threads at once. The only
//! lock is around the cache, held for lookups/insertions, never across a
//! solve.

use crate::cache::{fingerprint, ApiCache, CacheConfig, Doorkeeper};
use crate::error::{ApiError, ErrorKind};
use crate::json::escape;
use crate::ops;
use crate::request::{Command, Request};
use smo_circuit::netlist::ParseLimits;
use smo_core::{Backend, MlpOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Engine knobs. The defaults are what `smo serve` ships with.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Input limits applied to every inline netlist.
    pub limits: ParseLimits,
    /// Cache byte budgets.
    pub cache: CacheConfig,
}

/// A point-in-time load snapshot, provided by the connection layer when
/// it hands a request to the engine.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Requests currently executing.
    pub active: usize,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Concurrency limit.
    pub max_active: usize,
    /// Queue depth limit.
    pub max_queue: usize,
}

impl Load {
    /// An idle snapshot (used by the CLI one-shot path and tests).
    pub const IDLE: Load = Load {
        active: 0,
        queued: 0,
        max_active: 1,
        max_queue: 1,
    };

    /// Fraction of total capacity (active + queue) in use, in `[0, 1]`.
    pub fn factor(&self) -> f64 {
        let capacity = (self.max_active + self.max_queue).max(1);
        (self.active + self.queued) as f64 / capacity as f64
    }
}

/// The quality ladder. Under light load every request gets the full
/// certified treatment; as the queue fills, the engine sheds *work*
/// before it sheds *requests*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Degradation {
    /// Load factor < 0.5: exactly what the CLI would compute.
    #[default]
    Full,
    /// Load factor < 0.9: backend forced to `auto` (graph fast path
    /// where the model allows) and schedule canonicalization skipped —
    /// same optimal cycle time, fewer LP solves.
    FastPath,
    /// Load factor ≥ 0.9: certification dropped too; the answer is the
    /// solver's word alone. Still deterministic, no longer
    /// independently checked.
    Uncertified,
}

impl Degradation {
    /// Picks the rung for a load snapshot.
    pub fn from_load(load: &Load) -> Self {
        let f = load.factor();
        if f < 0.5 {
            Degradation::Full
        } else if f < 0.9 {
            Degradation::FastPath
        } else {
            Degradation::Uncertified
        }
    }

    /// The wire slug stamped into every response.
    pub fn slug(self) -> &'static str {
        match self {
            Degradation::Full => "full",
            Degradation::FastPath => "fast-path",
            Degradation::Uncertified => "uncertified",
        }
    }

    /// Applies the rung to a solve's options.
    pub(crate) fn shape(self, options: &mut MlpOptions) {
        match self {
            Degradation::Full => {}
            Degradation::FastPath => {
                options.backend = Backend::Auto;
                options.canonicalize = false;
            }
            Degradation::Uncertified => {
                options.backend = Backend::Auto;
                options.canonicalize = false;
                options.certify = false;
            }
        }
    }
}

/// Monotone counters, surfaced by the `stats` command.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    sheds: AtomicU64,
}

/// What the engine hands back to the connection layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The complete response line (no trailing newline).
    pub line: String,
    /// `true` when the request was a `shutdown` command: the server
    /// should begin draining after writing the line.
    pub shutdown: bool,
}

/// The shared request engine.
pub struct Engine {
    config: EngineConfig,
    cache: Mutex<ApiCache>,
    /// Gates circuit-cache admission: see [`Doorkeeper`].
    doorkeeper: Doorkeeper,
    counters: Counters,
}

impl Engine {
    /// Builds an engine with `config`.
    pub fn new(config: EngineConfig) -> Self {
        let cache = Mutex::new(ApiCache::new(&config.cache));
        Engine {
            config,
            cache,
            doorkeeper: Doorkeeper::new(),
            counters: Counters::default(),
        }
    }

    /// Handles one request line end to end. Never panics: handler panics
    /// are caught, quarantined and reported as structured errors.
    pub fn handle_line(&self, line: &str, load: Load) -> Reply {
        self.handle_request(Request::parse(line), load)
    }

    /// Like [`Engine::handle_line`] for a line the caller already parsed
    /// (the server parses once to route control commands around the
    /// admission gate, then hands the result here).
    pub fn handle_request(&self, request: Result<Request, ApiError>, load: Load) -> Reply {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let request = match request {
            Ok(r) => r,
            Err(e) => return self.error_reply(None, Degradation::Full, &e),
        };
        let id = request.id.clone();
        if request.command.is_control() {
            return self.handle_control(&request, load);
        }
        let degradation = Degradation::from_load(&load);

        // The netlist fingerprint keys quarantine and all three caches.
        let netlist = request.command.netlist().unwrap_or("");
        let fp = fingerprint(netlist.as_bytes());
        if self.lock_cache().is_quarantined(fp) {
            let e = ApiError::new(
                ErrorKind::Quarantined,
                "this input previously crashed the engine and is quarantined",
            );
            return self.error_reply(id.as_deref(), degradation, &e);
        }

        // Deadlines are absolute from this point; `deadline_ms: 0` means
        // "already expired" and short-circuits before any work.
        let time_limit = request.deadline_ms.map(std::time::Duration::from_millis);
        if time_limit == Some(std::time::Duration::ZERO) {
            let e = ApiError::new(
                ErrorKind::Budget,
                "deadline expired before the request started",
            );
            return self.error_reply(id.as_deref(), degradation, &e);
        }

        // Result cache: the signature is the command with its parameters
        // plus the degradation rung. Deadlines are excluded — a cached
        // answer costs nothing, so any deadline is met.
        let signature = format!(
            "{}\u{1f}{}",
            degradation.slug(),
            request.command.signature()
        );
        if let Some(hit) = self.lock_cache().result(fp, &signature) {
            return self.ok_reply(id.as_deref(), degradation, &hit, true);
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.execute(&request.command, fp, degradation, time_limit)
        }));
        match outcome {
            Ok(Ok(result)) => {
                let result: Arc<str> = Arc::from(result);
                self.lock_cache()
                    .store_result(fp, signature, Arc::clone(&result));
                self.ok_reply(id.as_deref(), degradation, &result, false)
            }
            Ok(Err(e)) => self.error_reply(id.as_deref(), degradation, &e),
            Err(panic) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                self.lock_cache().quarantine(fp);
                let what = panic_message(&panic);
                let e = ApiError::new(
                    ErrorKind::Panic,
                    format!("handler panicked: {what}; input quarantined"),
                );
                self.error_reply(id.as_deref(), degradation, &e)
            }
        }
    }

    /// The response for a request shed at the admission gate. The server
    /// calls this without entering the engine.
    pub fn shed_reply(&self, id: Option<&str>) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.sheds.fetch_add(1, Ordering::Relaxed);
        let e = ApiError::new(
            ErrorKind::Overload,
            "server saturated (active and queued slots full); retry with backoff",
        );
        self.error_reply(id, Degradation::Uncertified, &e).line
    }

    /// The response for a request refused because the server is draining.
    pub fn shutting_down_reply(&self, id: Option<&str>) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let e = ApiError::new(ErrorKind::ShuttingDown, "server is draining for shutdown");
        self.error_reply(id, Degradation::Uncertified, &e).line
    }

    /// The response for an over-long request line (checked by the server
    /// before buffering the whole line).
    pub fn line_too_long_reply(&self, limit: usize) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let e = ApiError::new(
            ErrorKind::Limit,
            format!("request line exceeds {limit} bytes"),
        );
        self.error_reply(None, Degradation::Full, &e).line
    }

    fn handle_control(&self, request: &Request, load: Load) -> Reply {
        let id = request.id.as_deref();
        match &request.command {
            Command::Ping => self.ok_reply(id, Degradation::Full, "{\"ok\":true}", false),
            Command::Stats => {
                let (circuits, results, quarantined) = {
                    let cache = self.lock_cache();
                    cache.sizes()
                };
                let stats = self.lock_cache().stats();
                // `basis_hits` is a retired wire key: there is no basis
                // cache, so it is always 0. It stays in the reply because
                // existing `stats` readers still parse it as a number.
                let payload = format!(
                    "{{\"requests\":{},\"ok\":{},\"errors\":{},\"panics\":{},\"sheds\":{},\
                     \"active\":{},\"queued\":{},\"max_active\":{},\"max_queue\":{},\
                     \"cache\":{{\"circuits\":{circuits},\"results\":{results},\
                     \"quarantined\":{quarantined},\"result_hits\":{},\"circuit_hits\":{},\
                     \"basis_hits\":0}}}}",
                    self.counters.requests.load(Ordering::Relaxed),
                    self.counters.ok.load(Ordering::Relaxed),
                    self.counters.errors.load(Ordering::Relaxed),
                    self.counters.panics.load(Ordering::Relaxed),
                    self.counters.sheds.load(Ordering::Relaxed),
                    load.active,
                    load.queued,
                    load.max_active,
                    load.max_queue,
                    stats.result_hits,
                    stats.circuit_hits,
                );
                self.ok_reply(id, Degradation::Full, &payload, false)
            }
            Command::Shutdown => {
                let mut reply = self.ok_reply(id, Degradation::Full, "{\"draining\":true}", false);
                reply.shutdown = true;
                reply
            }
            Command::DebugPanic => {
                // Deliberately routed through the same catch_unwind the
                // work commands use, so the isolation path is testable
                // without a real engine bug.
                let outcome = catch_unwind(|| -> String {
                    panic!("debug-panic requested");
                });
                debug_assert!(outcome.is_err());
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                let e = ApiError::new(ErrorKind::Panic, "handler panicked: debug-panic requested");
                self.error_reply(id, Degradation::Full, &e)
            }
            _ => unreachable!("handle_control called on a work command"),
        }
    }

    /// Runs a work command. Called inside `catch_unwind`.
    fn execute(
        &self,
        command: &Command,
        fp: u64,
        degradation: Degradation,
        time_limit: Option<std::time::Duration>,
    ) -> Result<String, ApiError> {
        let netlist = command.netlist().unwrap_or("");
        // Test hook for the isolation path: a netlist beginning with
        // `#!panic` (a comment line, so it can never be a real circuit)
        // panics inside the handler exactly like an engine bug would,
        // letting the quarantine machinery be exercised end-to-end.
        if netlist.starts_with("#!panic") {
            panic!("debug netlist panic hook");
        }
        // Bind the lookup first: a `match` on `self.lock_cache().circuit(fp)`
        // would keep the guard alive across the arms and self-deadlock on
        // the store below.
        let cached = self.lock_cache().circuit(fp);
        let circuit = match cached {
            Some(c) => c,
            None => {
                let parsed = Arc::new(ops::parse_netlist(netlist, &self.config.limits)?);
                // Keep the circuit only for a netlist seen before: one-off
                // netlists would otherwise evict the ones that repeat.
                if self.doorkeeper.admit(fp) {
                    self.lock_cache().store_circuit(fp, Arc::clone(&parsed));
                }
                parsed
            }
        };
        let settings = ops::Settings {
            time_limit,
            degradation,
            ..Default::default()
        };
        Ok(ops::run(&circuit, command, &settings)?
            .json()
            .render_compact())
    }

    fn ok_reply(
        &self,
        id: Option<&str>,
        degradation: Degradation,
        payload: &str,
        cached: bool,
    ) -> Reply {
        self.counters.ok.fetch_add(1, Ordering::Relaxed);
        Reply {
            line: envelope(id, "ok", degradation, cached, "result", payload),
            shutdown: false,
        }
    }

    fn error_reply(&self, id: Option<&str>, degradation: Degradation, error: &ApiError) -> Reply {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        let body = format!(
            "{{\"kind\":{},\"message\":{},\"retryable\":{}}}",
            escape(error.kind.slug()),
            escape(&error.message),
            error.kind.retryable()
        );
        Reply {
            line: envelope(id, "error", degradation, false, "error", &body),
            shutdown: false,
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, ApiCache> {
        // A poisoned cache mutex means a panic escaped `catch_unwind`'s
        // coverage *while holding the lock* — the guards here are held
        // only around infallible map operations, so recover the data
        // rather than wedging every future request.
        match self.cache.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The response envelope. Field order is part of the wire contract:
/// `id`, `status`, `degradation`, `cached`, then `result` or `error`.
fn envelope(
    id: Option<&str>,
    status: &str,
    degradation: Degradation,
    cached: bool,
    key: &str,
    payload: &str,
) -> String {
    let id = match id {
        Some(s) => escape(s),
        None => "null".into(),
    };
    format!(
        "{{\"id\":{id},\"status\":\"{status}\",\"degradation\":\"{}\",\"cached\":{cached},\"{key}\":{payload}}}",
        degradation.slug()
    )
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_circuit::netlist;
    use smo_gen::paper;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    fn solve_line(netlist: &str) -> String {
        format!(
            "{{\"id\":\"t\",\"cmd\":\"solve\",\"netlist\":{}}}",
            escape(netlist)
        )
    }

    #[test]
    fn solve_round_trips_and_caches() {
        let e = engine();
        let src = netlist::write(&paper::example2());
        let line = solve_line(&src);
        let first = e.handle_line(&line, Load::IDLE);
        assert!(first.line.contains("\"status\":\"ok\""), "{}", first.line);
        assert!(first.line.contains("\"cached\":false"));
        assert!(first.line.contains("\"cycle_time\""));
        let second = e.handle_line(&line, Load::IDLE);
        assert!(second.line.contains("\"cached\":true"));
        // Identical payloads modulo the cached flag.
        assert_eq!(
            first.line.replace("\"cached\":false", "X"),
            second.line.replace("\"cached\":true", "X"),
        );
    }

    fn circuit_hits(e: &Engine) -> u64 {
        e.lock_cache().stats().circuit_hits
    }

    fn request(cmd: &str, netlist: &str) -> String {
        format!("{{\"cmd\":\"{cmd}\",\"netlist\":{}}}", escape(netlist))
    }

    #[test]
    fn third_request_with_a_new_signature_is_a_circuit_hit() {
        let e = engine();
        let src = netlist::write(&paper::example2());
        // First sighting: parsed, remembered, not cached.
        e.handle_line(&request("solve", &src), Load::IDLE);
        assert_eq!(circuit_hits(&e), 0);
        // Second sighting (new signature, so no result hit): cached.
        e.handle_line(&request("check", &src), Load::IDLE);
        assert_eq!(circuit_hits(&e), 0);
        let third = e.handle_line(&request("diagnose", &src), Load::IDLE);
        assert!(third.line.contains("\"status\":\"ok\""), "{}", third.line);
        assert_eq!(circuit_hits(&e), 1);
    }

    #[test]
    fn unique_netlists_do_not_evict_a_repeated_circuit() {
        // Room for one parsed circuit: without the doorkeeper, any one-off
        // netlist stored after the repeated one would evict it.
        let circuit = paper::example2();
        let cost = ApiCache::circuit_cost(&circuit);
        let e = Engine::new(EngineConfig {
            cache: CacheConfig {
                circuit_bytes: cost + cost / 2,
                ..CacheConfig::default()
            },
            ..EngineConfig::default()
        });
        let src = netlist::write(&circuit);
        e.handle_line(&request("solve", &src), Load::IDLE);
        e.handle_line(&request("check", &src), Load::IDLE);
        for i in 0..16 {
            // Same circuit, unique bytes (a trailing comment line).
            let unique = format!("{src}# one-off {i}\n");
            let reply = e.handle_line(&request("solve", &unique), Load::IDLE);
            assert!(reply.line.contains("\"status\":\"ok\""), "{}", reply.line);
        }
        assert_eq!(circuit_hits(&e), 0);
        e.handle_line(&request("diagnose", &src), Load::IDLE);
        assert_eq!(circuit_hits(&e), 1, "the repeated circuit was evicted");
    }

    #[test]
    fn degradation_rung_tracks_load() {
        let idle = Load {
            active: 0,
            queued: 0,
            max_active: 4,
            max_queue: 4,
        };
        let busy = Load {
            active: 4,
            queued: 0,
            max_active: 4,
            max_queue: 4,
        };
        let saturated = Load {
            active: 4,
            queued: 4,
            max_active: 4,
            max_queue: 4,
        };
        assert_eq!(Degradation::from_load(&idle), Degradation::Full);
        assert_eq!(Degradation::from_load(&busy), Degradation::FastPath);
        assert_eq!(Degradation::from_load(&saturated), Degradation::Uncertified);

        // Pin the simplex backend: under load the ladder overrides it to
        // auto, which routes this pure-difference model to the graph.
        let e = engine();
        let src = netlist::write(&paper::example2());
        let line = format!(
            "{{\"cmd\":\"solve\",\"backend\":\"lp\",\"netlist\":{}}}",
            escape(&src)
        );
        let reply = e.handle_line(&line, saturated);
        assert!(reply.line.contains("\"degradation\":\"uncertified\""));
        assert!(
            reply.line.contains("\"backend\":\"graph\""),
            "{}",
            reply.line
        );
        // A full-quality request afterwards is NOT served the degraded
        // cache entry: it honors the requested backend.
        let reply = e.handle_line(&line, idle);
        assert!(reply.line.contains("\"degradation\":\"full\""));
        assert!(reply.line.contains("\"cached\":false"));
        assert!(reply.line.contains("\"backend\":\"lp\""), "{}", reply.line);
    }

    #[test]
    fn expired_deadline_is_a_budget_error() {
        let e = engine();
        let src = netlist::write(&paper::example2());
        let line = format!(
            "{{\"cmd\":\"solve\",\"deadline_ms\":0,\"netlist\":{}}}",
            escape(&src)
        );
        let reply = e.handle_line(&line, Load::IDLE);
        assert!(reply.line.contains("\"kind\":\"budget\""), "{}", reply.line);
    }

    #[test]
    fn debug_panic_is_isolated_and_reported() {
        let e = engine();
        let reply = e.handle_line("{\"cmd\":\"debug-panic\"}", Load::IDLE);
        assert!(reply.line.contains("\"kind\":\"panic\""), "{}", reply.line);
        assert!(!reply.shutdown);
        // The engine still works afterwards.
        let reply = e.handle_line("{\"cmd\":\"ping\"}", Load::IDLE);
        assert!(reply.line.contains("\"ok\":true"));
    }

    #[test]
    fn malformed_netlists_get_structured_errors() {
        let e = engine();
        for (netlist, kind) in [
            ("clock 2 10\nlatch L1 what", "\"kind\":\"parse\""),
            ("", "\"kind\":\"parse\""),
        ] {
            let reply = e.handle_line(&solve_line(netlist), Load::IDLE);
            assert!(reply.line.contains(kind), "{netlist:?}: {}", reply.line);
        }
    }

    #[test]
    fn shed_and_drain_replies_echo_the_id() {
        let e = engine();
        let shed = e.shed_reply(Some("r9"));
        assert!(shed.contains("\"id\":\"r9\""));
        assert!(shed.contains("\"kind\":\"overload\""));
        assert!(shed.contains("\"retryable\":true"));
        let drain = e.shutting_down_reply(None);
        assert!(drain.contains("\"kind\":\"shutting-down\""));
        assert!(drain.contains("\"id\":null"));
        let long = e.line_too_long_reply(64);
        assert!(long.contains("\"kind\":\"limit\""));
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let e = engine();
        let reply = e.handle_line("{\"cmd\":\"shutdown\"}", Load::IDLE);
        assert!(reply.shutdown);
        assert!(reply.line.contains("\"draining\":true"));
    }
}
