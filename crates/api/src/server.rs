//! The `smo serve` TCP front end: line-delimited JSON over a socket,
//! thread-per-connection, with admission control and graceful shutdown.
//!
//! ## Backpressure
//!
//! Work commands pass through an admission gate before touching the
//! engine: up to `max_active` run concurrently, up to `max_queue` more
//! wait on a condvar, and anything beyond that is **shed immediately**
//! with a structured `overload` error — the daemon never buffers unbounded
//! work, and a saturated server answers (with a refusal) in microseconds
//! rather than timing out. Control commands (`ping`, `stats`, `shutdown`)
//! bypass the gate so the daemon stays observable *especially* when it is
//! drowning.
//!
//! ## Shutdown
//!
//! `shutdown` (the command, or [`ServerHandle::shutdown`]) flips a flag;
//! the accept loop wakes via a self-connection and stops accepting,
//! connection threads finish the request they are executing, refuse any
//! newly-read line with `shutting-down`, and exit at their next 250 ms
//! read-timeout tick. [`ServerHandle::wait`] joins everything, so when it
//! returns no request is half-done.

use crate::engine::{Engine, EngineConfig, Load, Reply};
use crate::request::Request;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How often blocked reads wake up to re-check the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// Server knobs. The defaults are what `smo serve` ships with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Concurrent work requests actually executing.
    pub max_active: usize,
    /// Work requests allowed to wait for a slot; beyond this, shed.
    pub max_queue: usize,
    /// Hard cap on one request line (the inline netlist dominates).
    pub max_line_bytes: usize,
    /// Engine knobs (parse limits, cache budgets).
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_active: cores.max(1),
            max_queue: 2 * cores.max(1),
            max_line_bytes: 8 << 20,
            engine: EngineConfig::default(),
        }
    }
}

/// Admission gate: a counting semaphore with a bounded wait queue.
struct Gate {
    state: Mutex<(usize, usize)>, // (active, queued)
    freed: Condvar,
    max_active: usize,
    max_queue: usize,
    draining: Arc<AtomicBool>,
}

/// Holding one of these is holding an execution slot.
struct GateGuard<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// Acquires an execution slot, waiting in the bounded queue if the
    /// server is busy. Returns `None` when the queue is full too — the
    /// caller must shed the request.
    fn enter(&self) -> Option<GateGuard<'_>> {
        let mut state = lock(&self.state);
        if state.0 < self.max_active {
            state.0 += 1;
            return Some(GateGuard { gate: self });
        }
        if state.1 >= self.max_queue {
            return None;
        }
        state.1 += 1;
        while state.0 >= self.max_active {
            // Waiting is still bounded in practice: every completing
            // request notifies, and during a drain the executing requests
            // finish (they are the only thing ahead of us).
            state = match self.freed.wait_timeout(state, READ_TICK) {
                Ok((s, _)) => s,
                Err(poisoned) => poisoned.into_inner().0,
            };
            if self.draining.load(Ordering::SeqCst) {
                state.1 -= 1;
                return None;
            }
        }
        state.1 -= 1;
        state.0 += 1;
        Some(GateGuard { gate: self })
    }

    /// Snapshot for the degradation ladder and `stats`.
    fn load(&self) -> Load {
        let state = lock(&self.state);
        Load {
            active: state.0,
            queued: state.1,
            max_active: self.max_active,
            max_queue: self.max_queue,
        }
    }
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.gate.state);
        state.0 = state.0.saturating_sub(1);
        drop(state);
        self.gate.freed.notify_one();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] + [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain, as if a client had sent `shutdown`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop: it may be blocked in accept().
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the accept loop and every connection thread have
    /// exited (i.e. all in-flight requests have drained).
    pub fn wait(self) {
        let _ = self.accept_thread.join();
    }
}

/// Binds and starts serving. Returns once the listener is live; the
/// accept loop runs on a background thread.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let engine = Arc::new(Engine::new(config.engine.clone()));
    let gate = Arc::new(Gate {
        state: Mutex::new((0, 0)),
        freed: Condvar::new(),
        max_active: config.max_active.max(1),
        max_queue: config.max_queue,
        draining: Arc::clone(&shutdown),
    });

    let accept_shutdown = Arc::clone(&shutdown);
    let max_line_bytes = config.max_line_bytes;
    let accept_thread = std::thread::spawn(move || {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let engine = Arc::clone(&engine);
            let gate = Arc::clone(&gate);
            let shutdown = Arc::clone(&accept_shutdown);
            let addr = addr;
            connections.push(std::thread::spawn(move || {
                handle_connection(stream, &engine, &gate, &shutdown, max_line_bytes, addr);
            }));
            // Reap finished threads so a long-lived daemon doesn't hold a
            // handle per historical connection.
            connections.retain(|h| !h.is_finished());
        }
        for handle in connections {
            let _ = handle.join();
        }
    });

    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread,
    })
}

/// One connection: read lines, answer lines, until EOF or drain.
fn handle_connection(
    mut stream: TcpStream,
    engine: &Engine,
    gate: &Gate,
    shutdown: &AtomicBool,
    max_line_bytes: usize,
    addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..searched]` holds no `\n`: each read is searched once.
    let mut searched = 0;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Answer every complete line already buffered.
        let mut start = 0;
        while let Some(nl) = find_newline(&buf, searched) {
            let line = String::from_utf8_lossy(&buf[start..nl]);
            (start, searched) = (nl + 1, nl + 1);
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            let reply = answer(line, engine, gate, shutdown);
            let done = reply.shutdown;
            if stream
                .write_all(format!("{}\n", reply.line).as_bytes())
                .is_err()
            {
                return;
            }
            if done {
                shutdown.store(true, Ordering::SeqCst);
                gate.freed.notify_all();
                // Wake the accept loop out of accept().
                let _ = TcpStream::connect(addr);
                return;
            }
        }
        buf.drain(..start);
        searched = buf.len();
        if shutdown.load(Ordering::SeqCst) {
            // Drained: whatever this connection was executing has been
            // answered above; stop reading new work.
            return;
        }
        if buf.len() > max_line_bytes {
            let _ = stream
                .write_all(format!("{}\n", engine.line_too_long_reply(max_line_bytes)).as_bytes());
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // tick: loop re-checks the shutdown flag
            }
            Err(_) => return,
        }
    }
}

/// The position of the first `\n` in `buf` at or after `from`.
fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| from + p)
}

/// Routes one line: control commands bypass the gate, work commands pass
/// through it (and may be shed).
fn answer(line: &str, engine: &Engine, gate: &Gate, shutdown: &AtomicBool) -> Reply {
    let parsed = Request::parse(line);
    if shutdown.load(Ordering::SeqCst) {
        let id = parsed.as_ref().ok().and_then(|r| r.id.clone());
        return Reply {
            line: engine.shutting_down_reply(id.as_deref()),
            shutdown: false,
        };
    }
    let is_control = matches!(&parsed, Ok(r) if r.command.is_control());
    if is_control || parsed.is_err() {
        // Errors are cheap to answer and must stay observable under load.
        return engine.handle_request(parsed, gate.load());
    }
    // The degradation rung is decided by the congestion observed on
    // arrival, before this request takes its own slot — otherwise a
    // 1-slot server would count itself and degrade every request it runs.
    let arrival_load = gate.load();
    match gate.enter() {
        Some(_guard) => engine.handle_request(parsed, arrival_load),
        None => {
            let id = parsed.as_ref().ok().and_then(|r| r.id.clone());
            let reply = if shutdown.load(Ordering::SeqCst) {
                engine.shutting_down_reply(id.as_deref())
            } else {
                engine.shed_reply(id.as_deref())
            };
            Reply {
                line: reply,
                shutdown: false,
            }
        }
    }
}

/// A tiny blocking client for the CLI (`smo call`), the load generator
/// and the tests: connects, sends request lines, reads response lines.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `buf[..searched]` holds no `\n`.
    searched: usize,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            searched: 0,
        })
    }

    /// Sends one request line and reads one response line.
    pub fn call(&mut self, request: &str) -> std::io::Result<String> {
        self.stream.write_all(format!("{request}\n").as_bytes())?;
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(nl) = find_newline(&self.buf, self.searched) {
                // The line keeps the buffer's allocation; only the bytes
                // after it move.
                let rest = self.buf.split_off(nl + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.truncate(nl);
                self.searched = 0;
                return Ok(String::from_utf8(line)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()));
            }
            self.searched = self.buf.len();
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tiny_server(max_active: usize, max_queue: usize) -> ServerHandle {
        serve(ServerConfig {
            max_active,
            max_queue,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn ping_round_trip_and_graceful_shutdown() {
        let server = tiny_server(2, 2);
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let pong = client.call("{\"id\":\"p\",\"cmd\":\"ping\"}").unwrap();
        assert!(pong.contains("\"ok\":true"), "{pong}");
        assert!(pong.contains("\"id\":\"p\""));
        let bye = client.call("{\"cmd\":\"shutdown\"}").unwrap();
        assert!(bye.contains("\"draining\":true"), "{bye}");
        server.wait();
        // The port is closed now.
        assert!(
            Client::connect(&addr).is_err() || {
                // A connect may still succeed briefly on some stacks; a call
                // must then fail.
                let mut c = Client::connect(&addr).unwrap();
                c.call("{\"cmd\":\"ping\"}").is_err()
            }
        );
    }

    #[test]
    fn empty_and_blank_lines_are_ignored() {
        let server = tiny_server(1, 1);
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        client.stream.write_all(b"\n\r\n  \n").unwrap();
        let pong = client.call("{\"cmd\":\"ping\"}").unwrap();
        assert!(pong.contains("\"ok\":true"));
        server.shutdown();
        server.wait();
    }

    #[test]
    fn gate_sheds_when_queue_is_full() {
        let gate = Gate {
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
            max_active: 1,
            max_queue: 0,
            draining: Arc::new(AtomicBool::new(false)),
        };
        let first = gate.enter();
        assert!(first.is_some());
        assert!(gate.enter().is_none()); // active full, queue size 0 → shed
        drop(first);
        assert!(gate.enter().is_some());
        assert_eq!(gate.load().max_active, 1);
    }
}
