//! Child processes: `smo` commands one at a time, the `smo serve`
//! daemon and its line-JSON clients, and the children's peak resident set.
//!
//! Every `smo` process is started by a *spawner*: this benchmark's own
//! binary run as `smo-e2e --spawner`, started before any input exists and
//! holding one command's output at a time. Linux charges a child's
//! `ru_maxrss` with the peak RSS of the address space it replaced at
//! `exec`, which for a `posix_spawn`ed child is its parent's; children of
//! the growing benchmark process would report at least the benchmark's
//! own peak. The spawner stays small, so its children's peak is theirs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Longest a single command or request may take before it counts as
/// failed (and, for a command, is killed).
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux `struct rusage` (x86-64 and aarch64 layout: two `timeval`s, then
/// fourteen `long`s starting with `ru_maxrss`).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    times: [c_long; 4],
    maxrss: c_long,
    rest: [c_long; 13],
}

const RUSAGE_CHILDREN: c_int = -1;
const SIGKILL: c_int = 9;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn waitid(idtype: c_int, id: u32, info: *mut u8, options: c_int) -> c_int;
}

/// Largest resident set, in KiB, of any child this process has waited
/// for so far.
fn children_peak_rss_kib() -> Option<i64> {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value with the layout of the
    // platform's `struct rusage`, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then_some(usage.maxrss)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update below leaves the state valid, so a poisoned lock's
    // data is still good.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[derive(Default)]
struct Slot {
    armed: Option<(u32, Instant)>,
    fired: bool,
    stop: bool,
}

/// Kills the command in flight when it overruns its deadline, from a
/// thread that generates no load of its own.
#[derive(Default)]
struct Watchdog {
    slot: Mutex<Slot>,
    wake: Condvar,
}

impl Watchdog {
    /// Runs `f` with a watchdog thread alive; the thread is stopped and
    /// joined before this returns.
    fn scope<R>(f: impl FnOnce(&Watchdog) -> R) -> R {
        let dog = Watchdog::default();
        std::thread::scope(|s| {
            s.spawn(|| dog.watch());
            // Stops the thread even if `f` unwinds, so the scope can join.
            struct Stop<'a>(&'a Watchdog);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    lock(&self.0.slot).stop = true;
                    self.0.wake.notify_all();
                }
            }
            let _stop = Stop(&dog);
            f(&dog)
        })
    }

    fn watch(&self) {
        let mut slot = lock(&self.slot);
        while !slot.stop {
            slot = match slot.armed {
                Some((pid, deadline)) if Instant::now() >= deadline => {
                    // `run_command` reaps the child only after disarming,
                    // and it cannot disarm while this thread holds the
                    // lock, so the pid still names that child.
                    if let Ok(pid) = c_int::try_from(pid) {
                        // SAFETY: kill(2) takes plain integers and touches
                        // no memory of this process.
                        unsafe { kill(pid, SIGKILL) };
                    }
                    slot.armed = None;
                    slot.fired = true;
                    slot
                }
                Some((_, deadline)) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match self.wake.wait_timeout(slot, left) {
                        Ok((g, _)) => g,
                        Err(p) => p.into_inner().0,
                    }
                }
                None => match self.wake.wait(slot) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                },
            };
        }
    }

    fn arm(&self, pid: u32, timeout: Duration) {
        let mut slot = lock(&self.slot);
        slot.armed = Some((pid, Instant::now() + timeout));
        slot.fired = false;
        self.wake.notify_all();
    }

    /// Disarms; `true` when the deadline fired.
    fn disarm(&self) -> bool {
        let mut slot = lock(&self.slot);
        slot.armed = None;
        std::mem::take(&mut slot.fired)
    }
}

/// One finished command.
#[derive(Debug, Clone)]
pub struct CmdOutput {
    /// Wall time from spawn to exit, including reading its output.
    pub latency: Duration,
    /// Exit code (`None` when killed by a signal or never started).
    pub code: Option<i32>,
    /// Standard output.
    pub stdout: String,
    /// Why the command did not complete normally (spawn failure,
    /// timeout), if it did not.
    pub error: Option<String>,
}

impl CmdOutput {
    fn failed(latency: Duration, error: String) -> CmdOutput {
        CmdOutput {
            latency,
            code: None,
            stdout: String::new(),
            error: Some(error),
        }
    }
}

/// Blocks until the child `pid` has exited, without reaping it, so its pid
/// cannot be reused while the watchdog may still signal it.
fn wait_exited(pid: u32) {
    // Linux `waitid` constants; `siginfo_t` is 128 bytes.
    const P_PID: c_int = 1;
    const WEXITED: c_int = 4;
    const WNOWAIT: c_int = 0x0100_0000;
    let mut info = [0u8; 128];
    // SAFETY: `info` is a live, writable buffer the size of `siginfo_t`,
    // and waitid writes only within it. An error (no such child) returns
    // at once, and the caller's reaping wait reports it.
    unsafe { waitid(P_PID, pid, info.as_mut_ptr(), WEXITED | WNOWAIT) };
}

/// Runs `program <args>` in `cwd` and waits for it, as a shell would.
fn run_command(dog: &Watchdog, program: &str, cwd: &str, args: &[&str]) -> CmdOutput {
    let start = Instant::now();
    let spawned = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            return CmdOutput::failed(start.elapsed(), format!("cannot start {program}: {e}"))
        }
    };
    dog.arm(child.id(), OP_TIMEOUT);
    let mut stdout = Vec::new();
    let read = match child.stdout.take() {
        Some(mut pipe) => pipe.read_to_end(&mut stdout).map(drop),
        None => Ok(()),
    };
    wait_exited(child.id());
    let latency = start.elapsed();
    // Disarm before reaping: until `wait` below, the pid is this child's.
    let fired = dog.disarm();
    match (child.wait(), read) {
        (Ok(status), Ok(())) => CmdOutput {
            latency,
            code: status.code(),
            stdout: String::from_utf8_lossy(&stdout).into_owned(),
            error: fired.then(|| format!("timed out after {OP_TIMEOUT:?}")),
        },
        (Err(e), _) => CmdOutput::failed(latency, format!("wait failed: {e}")),
        (_, Err(e)) => CmdOutput::failed(latency, format!("reading output failed: {e}")),
    }
}

/// One spawner reply: a status number, a duration and two payloads.
/// `run` replies carry the exit code (-1: none), the latency, stdout and
/// the error; `serve` the daemon's first stdout line; `stop` the daemon's
/// exit code; `rusage` the children's peak RSS in KiB as the status.
struct Frame {
    status: i64,
    nanos: u128,
    body: String,
    error: String,
}

impl Frame {
    fn ok(status: i64, body: String) -> Frame {
        Frame {
            status,
            nanos: 0,
            body,
            error: String::new(),
        }
    }

    fn error(error: String) -> Frame {
        Frame {
            status: -1,
            nanos: 0,
            body: String::new(),
            error,
        }
    }

    fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "{} {} {} {}",
            self.status,
            self.nanos,
            self.body.len(),
            self.error.len()
        )?;
        out.write_all(self.body.as_bytes())?;
        out.write_all(self.error.as_bytes())?;
        out.flush()
    }

    fn read(input: &mut impl BufRead) -> Result<Frame, String> {
        let mut header = String::new();
        match input.read_line(&mut header) {
            Ok(0) => return Err("the spawner exited".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("reading from the spawner: {e}")),
        }
        let fields: Vec<&str> = header.split_whitespace().collect();
        let [status, nanos, body_len, error_len] = fields[..] else {
            return Err(format!("bad spawner reply {header:?}"));
        };
        let bad = |_| format!("bad spawner reply {header:?}");
        let mut payload = |len: &str| -> Result<String, String> {
            let mut buf = vec![0; len.parse().map_err(bad)?];
            input
                .read_exact(&mut buf)
                .map_err(|e| format!("reading from the spawner: {e}"))?;
            Ok(String::from_utf8_lossy(&buf).into_owned())
        };
        Ok(Frame {
            body: payload(body_len)?,
            error: payload(error_len)?,
            status: status.parse().map_err(bad)?,
            nanos: nanos.parse().map_err(bad)?,
        })
    }
}

/// The daemon a spawner started, with its stdout held open until exit
/// (the daemon prints a last line when it drains).
type Served = (Child, BufReader<ChildStdout>);

fn stop_daemon(daemon: &mut Option<Served>, wait_for: Duration) -> Frame {
    let Some((mut child, _stdout)) = daemon.take() else {
        return Frame::error("no daemon running".into());
    };
    let deadline = Instant::now() + wait_for;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                return Frame::ok(status.code().map_or(-1, i64::from), String::new())
            }
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Frame::error("daemon did not exit in time; killed".into());
            }
            Err(e) => return Frame::error(format!("waiting for the daemon: {e}")),
        }
    }
}

fn start_daemon(program: &str) -> Result<(Served, String), String> {
    let mut child = Command::new(program)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {program} serve: {e}"))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("daemon stdout was not captured".into());
    };
    let mut stdout = BufReader::new(stdout);
    let mut first = String::new();
    if let Err(e) = stdout.read_line(&mut first) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("reading the daemon's address: {e}"));
    }
    Ok(((child, stdout), first.trim().to_string()))
}

/// The spawner's side: serves requests on stdin until it closes. Each
/// request is one line of tab-separated fields:
///
/// - `run <program> <cwd> <args…>` — run a command to completion;
/// - `serve <program>` — start `<program> serve --addr 127.0.0.1:0`
///   (stopping any previous daemon) and reply with its first line;
/// - `stop` — wait (bounded) for the daemon to exit;
/// - `rusage` — the peak RSS of every child waited for so far.
pub fn spawner_main() -> ExitCode {
    let mut input = std::io::stdin().lock();
    let mut output = std::io::stdout().lock();
    let mut daemon: Option<Served> = None;
    Watchdog::scope(|dog| loop {
        let mut line = String::new();
        if !matches!(input.read_line(&mut line), Ok(n) if n > 0) {
            break;
        }
        let fields: Vec<&str> = line.trim_end_matches('\n').split('\t').collect();
        let frame = match fields[..] {
            ["run", program, cwd, ref args @ ..] => {
                let out = run_command(dog, program, cwd, args);
                Frame {
                    status: out.code.map_or(-1, i64::from),
                    nanos: out.latency.as_nanos(),
                    body: out.stdout,
                    error: out.error.unwrap_or_default(),
                }
            }
            ["serve", program] => {
                kill_daemon(&mut daemon);
                match start_daemon(program) {
                    Ok((served, first)) => {
                        daemon = Some(served);
                        Frame::ok(0, first)
                    }
                    Err(e) => Frame::error(e),
                }
            }
            ["stop"] => stop_daemon(&mut daemon, OP_TIMEOUT),
            ["rusage"] => match children_peak_rss_kib() {
                Some(kib) => Frame::ok(kib, String::new()),
                None => Frame::error("getrusage failed".into()),
            },
            _ => Frame::error(format!("bad request {line:?}")),
        };
        if frame.write(&mut output).is_err() {
            break;
        }
    });
    kill_daemon(&mut daemon);
    ExitCode::SUCCESS
}

fn kill_daemon(daemon: &mut Option<Served>) {
    if let Some((mut child, _)) = daemon.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The benchmark's handle on its spawner process.
pub struct Spawner {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts `program --spawner` (this benchmark's binary).
    ///
    /// # Errors
    ///
    /// The process cannot be started.
    pub fn start(program: &Path) -> Result<Spawner, String> {
        let mut child = Command::new(program)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the spawner {}: {e}", program.display()))?;
        match (child.stdin.take(), child.stdout.take()) {
            (Some(input), Some(output)) => Ok(Spawner {
                child,
                input: Some(input),
                output: BufReader::new(output),
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err("spawner pipes were not captured".into())
            }
        }
    }

    fn call(&mut self, fields: &[&str]) -> Result<Frame, String> {
        if fields.iter().any(|f| f.contains(['\t', '\n'])) {
            return Err(format!("unencodable spawner request {fields:?}"));
        }
        let input = self.input.as_mut().ok_or("the spawner is closed")?;
        input
            .write_all(format!("{}\n", fields.join("\t")).as_bytes())
            .and_then(|()| input.flush())
            .map_err(|e| format!("writing to the spawner: {e}"))?;
        Frame::read(&mut self.output)
    }

    /// Runs `smo <args>` in `cwd` to completion.
    pub fn run(&mut self, smo: &Path, cwd: &Path, args: &[String]) -> CmdOutput {
        let (Some(smo), Some(cwd)) = (smo.to_str(), cwd.to_str()) else {
            return CmdOutput::failed(Duration::ZERO, "non-UTF-8 path".into());
        };
        let mut fields = vec!["run", smo, cwd];
        fields.extend(args.iter().map(String::as_str));
        match self.call(&fields) {
            Ok(f) => CmdOutput {
                latency: Duration::from_nanos(u64::try_from(f.nanos).unwrap_or(u64::MAX)),
                code: i32::try_from(f.status).ok().filter(|c| *c >= 0),
                stdout: f.body,
                error: (!f.error.is_empty()).then_some(f.error),
            },
            Err(e) => CmdOutput::failed(Duration::ZERO, e),
        }
    }

    /// Starts `smo serve --addr 127.0.0.1:0` with its default config and
    /// returns its address once a `ping` is answered.
    ///
    /// # Errors
    ///
    /// The daemon fails to start, to report its address, or to answer.
    pub fn serve(&mut self, smo: &Path) -> Result<String, String> {
        let smo = smo.to_str().ok_or("non-UTF-8 path")?;
        let f = self.call(&["serve", smo])?;
        if !f.error.is_empty() {
            return Err(f.error);
        }
        let addr = f
            .body
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected first daemon line {:?}", f.body))?
            .to_string();
        let pong = request(&addr, "{\"cmd\":\"ping\"}\n")?;
        if !pong.contains("\"ok\":true") {
            return Err(format!("daemon ping answered {pong}"));
        }
        Ok(addr)
    }

    /// Sends `shutdown` to the daemon at `addr` and waits for it to exit.
    ///
    /// # Errors
    ///
    /// The request fails, or the daemon exits non-zero or not in time.
    pub fn shutdown(&mut self, addr: &str) -> Result<(), String> {
        let reply = request(addr, "{\"cmd\":\"shutdown\"}\n")?;
        if !reply.contains("\"draining\":true") {
            return Err(format!("daemon shutdown answered {reply}"));
        }
        let f = self.call(&["stop"])?;
        match (f.status, f.error.is_empty()) {
            (0, true) => Ok(()),
            (_, true) => Err(format!("daemon exited with code {}", f.status)),
            _ => Err(f.error),
        }
    }

    /// Largest resident set, in MiB, of any process the spawner ran.
    ///
    /// # Errors
    ///
    /// The spawner does not answer.
    pub fn peak_rss_mib(&mut self) -> Result<f64, String> {
        let f = self.call(&["rusage"])?;
        if f.error.is_empty() {
            Ok(f.status as f64 / 1024.0)
        } else {
            Err(f.error)
        }
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing its stdin ends the spawner, which stops any daemon.
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// Sends one request line on a fresh connection and returns the reply.
///
/// # Errors
///
/// Connection failures and timeouts.
pub fn request(addr: &str, line: &str) -> Result<String, String> {
    LineClient::connect(addr)
        .and_then(|mut c| c.call(line))
        .map_err(|e| format!("daemon at {addr}: {e}"))
}

/// A blocking line-JSON client with a read timeout: one request line
/// out, one response line back, as `smo call` does.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Connection and socket-option failures.
    pub fn connect(addr: &str) -> std::io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        Ok(LineClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one newline-terminated request and reads the response line
    /// (without its newline).
    ///
    /// # Errors
    ///
    /// I/O errors, a read timeout, or the daemon closing the connection.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let trimmed = response.trim_end_matches(['\n', '\r']).len();
        response.truncate(trimmed);
        Ok(response)
    }
}
