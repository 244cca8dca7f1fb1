//! A small text netlist format (the paper's "simple parser").
//!
//! The format is line-oriented:
//!
//! ```text
//! # Example 1 of the paper (Δ41 = 80)
//! clock 2
//! latch L1 phase=1 setup=10 dq=10
//! latch L2 phase=2 setup=10 dq=10
//! ff    F1 phase=1 setup=0.2 dq=0.3 hold=0.1
//! path  L1 L2 delay=20
//! path  L2 L1 delay=60 min=5
//! mindelay L1 L2 3
//! ```
//!
//! * `clock k` — must appear once, before any element;
//! * `latch NAME phase=P setup=S dq=D [hold=H]` — a level-sensitive latch;
//! * `ff NAME phase=P setup=S dq=D [hold=H]` — an edge-triggered flip-flop;
//! * `path FROM TO delay=D [min=M]` — a combinational edge;
//! * `mindelay FROM TO δ` — declares the measured short-path delay for every
//!   `FROM → TO` path (equivalent to `min=δ` on those `path` lines; may
//!   appear anywhere after the `clock` line);
//! * `#` starts a comment; blank lines are ignored.
//!
//! Lines end at `\n`, and a `\r` just before it belongs to the line ending.
//! Tokens are separated by the characters `char::is_whitespace` accepts:
//! on an ASCII line these are space, `\t`, `\n`, VT (`\x0b`), FF (`\x0c`)
//! and `\r`; elsewhere Unicode spaces such as U+00A0 and U+2003 separate
//! tokens too. A `#` ends the line's last token wherever it stands.
//!
//! Both dialects ([`parse`] and [`parse_gates`]) read the text in one pass
//! that checks every line against the [`ParseLimits`] as it parses the
//! line's statement. A limit error always wins over a syntax error: after
//! the first syntax error the pass still checks the limits of the
//! remaining lines, and reports the syntax error only if they pass.
//!
//! A `path` without `min=` (and no covering `mindelay`) leaves the
//! short-path delay *unspecified*: hold/race analyses then assume the most
//! optimistic raceless value (the max delay) instead of `0`, so netlists
//! written before short-path data existed keep analysing cleanly.
//!
//! [`parse`] and [`write`](fn@write) round-trip: `parse(&write(c)) == c` for every
//! valid circuit.

use crate::builder::CircuitBuilder;
use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::gates::{GateNetlistBuilder, NodeId};
use crate::ids::{LatchId, PhaseId};
use crate::sync::{SyncKind, Synchronizer};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Input-size limits enforced while a netlist is parsed.
///
/// Netlist text reaching [`parse`] is untrusted by definition once the
/// daemon (`smo serve`) exists, so both parsers check their input against
/// these caps line by line and reject oversized or pathologically shaped
/// text with a structured [`CircuitError::InputLimit`] — bounded memory
/// and time on arbitrary bytes, never a panic or an allocation storm.
///
/// The `Default` caps are generous for real designs (a 4 MiB netlist is
/// tens of thousands of latches) and tight enough that a hostile client
/// cannot make the parser itself the attack surface. Trusted bulk callers
/// can raise individual fields or use [`ParseLimits::UNLIMITED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Total input size in bytes.
    pub max_bytes: usize,
    /// Number of lines (blank and comment lines count — they must still be
    /// scanned).
    pub max_lines: usize,
    /// Length of any single line in bytes.
    pub max_line_bytes: usize,
    /// Whitespace-separated tokens on any single line.
    pub max_tokens_per_line: usize,
    /// Total element lines (`latch`/`ff`/`path`/`mindelay`/`gate`/`wire`).
    pub max_elements: usize,
}

impl ParseLimits {
    /// No limits: the scan rejects nothing (it still detects the dialect
    /// for [`parse_auto`]).
    pub const UNLIMITED: ParseLimits = ParseLimits {
        max_bytes: usize::MAX,
        max_lines: usize::MAX,
        max_line_bytes: usize::MAX,
        max_tokens_per_line: usize::MAX,
        max_elements: usize::MAX,
    };
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_bytes: 4 << 20,
            max_lines: 200_000,
            max_line_bytes: 4_096,
            max_tokens_per_line: 64,
            max_elements: 100_000,
        }
    }
}

/// Whether `b` separates tokens: the ASCII part of `char::is_whitespace`.
const fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The bytes that continue a token on an ASCII line: everything below
/// `0x80` but the separators and `#`.
const TOKEN_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x80 {
        table[b] = !is_separator(b as u8) && b != b'#' as usize;
        b += 1;
    }
    table
};

/// The end of the token that starts at `i`: the first byte at or after
/// `i` that is not a [`TOKEN_BYTE`].
fn token_end(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    // Eight bytes at a time: flag each byte below `!`, equal to `#` or
    // from 0x80 up. The lowest flag is always a true one (a borrow only
    // spreads upward from a true one), and every byte before it continues
    // the token.
    while let Some(word) = bytes.get(i..i + 8) {
        let mut w = [0; 8];
        w.copy_from_slice(word);
        let w = u64::from_le_bytes(w);
        let below = w.wrapping_sub(ONES * 0x21) & !w;
        let x = w ^ (ONES * u64::from(b'#'));
        let hash = x.wrapping_sub(ONES) & !x;
        let flags = (below | hash | w) & HIGH;
        if flags == 0 {
            i += 8;
            continue;
        }
        i += (flags.trailing_zeros() / 8) as usize;
        // Control bytes other than the separators continue a token.
        if !TOKEN_BYTE[usize::from(bytes[i])] {
            return i;
        }
        i += 1;
    }
    while i < bytes.len() && TOKEN_BYTE[usize::from(bytes[i])] {
        i += 1;
    }
    i
}

/// The tokens of a statement after its keyword.
type Tokens<'a, 'b> = std::iter::Copied<std::slice::Iter<'b, &'a str>>;

/// One line of a netlist, split.
struct Line {
    /// Length in bytes, without its `\n` or `\r\n` ending.
    len: usize,
    /// Tokens before the first `#`, counted in full even past the cap.
    tokens: usize,
    /// Where the next line starts.
    next: usize,
}

/// Splits the line of `src` that starts at `start` in one pass, pushing
/// up to `cap` of its tokens onto the cleared `tokens`.
///
/// An ASCII line is split byte by byte. A line with a non-ASCII byte
/// before its comment is split again by `split_whitespace`, so Unicode
/// separators split exactly as `char::is_whitespace` says.
fn split_line<'a>(src: &'a str, start: usize, cap: usize, tokens: &mut Vec<&'a str>) -> Line {
    let bytes = src.as_bytes();
    let newline_from = |i: usize| src[i..].find('\n').map(|p| i + p);
    tokens.clear();
    let mut count = 0;
    let mut i = start;
    let end = loop {
        // Every separator but `\n`, which ends the line.
        while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\x0b' | b'\x0c' | b'\r') {
            i += 1;
        }
        let token = i;
        i = token_end(bytes, i);
        if i > token {
            count += 1;
            if count <= cap {
                tokens.push(&src[token..i]);
            }
        }
        match bytes.get(i) {
            None => break None,
            Some(b'\n') => break Some(i),
            Some(b'#') => break newline_from(i),
            Some(&b) if b >= 0x80 => {
                let end = newline_from(i);
                let line = &src[start..end.unwrap_or(src.len())];
                let text = line.split_once('#').map_or(line, |(text, _)| text);
                tokens.clear();
                count = 0;
                for t in text.split_whitespace() {
                    count += 1;
                    if count <= cap {
                        tokens.push(t);
                    }
                }
                break end;
            }
            Some(_) => {}
        }
    };
    let (len, next) = match end {
        // `str::lines` strips a `\r` only before a `\n`.
        Some(nl) if nl > start && bytes[nl - 1] == b'\r' => (nl - 1 - start, nl + 1),
        Some(nl) => (nl - start, nl + 1),
        None => (src.len() - start, src.len()),
    };
    Line {
        len,
        tokens: count,
        next,
    }
}

/// How a [`scan`] ended.
struct Scanned {
    /// Lines read: all of them, unless the scan stopped at a gate line.
    lines: usize,
    /// Whether the scan stopped at a gate-level line (`detect_gates` only).
    gate_level: bool,
}

/// The one pass behind both parsers: hands every statement of `src` (a
/// line with a token outside its comment) to `statement` as its one-based
/// line number and its tokens, the keyword first, having checked the
/// [`ParseLimits`] of each line up to it. Lines split as `str::lines`
/// splits them.
///
/// After the first error `statement` returns, the scan goes on checking
/// limits only, and reports that error once the whole text has passed
/// them: a limit error anywhere comes first. With `detect_gates`, a line
/// that starts with `gate ` or `wire ` once its leading whitespace is
/// trimmed ends the scan there (see [`parse_auto`]), unless a limit error
/// comes first.
///
/// A line's tokens go to one reused buffer, which never holds more than
/// `max_tokens_per_line` of them.
fn scan<'a>(
    src: &'a str,
    limits: &ParseLimits,
    detect_gates: bool,
    mut statement: impl FnMut(usize, &[&'a str]) -> Result<(), CircuitError>,
) -> Result<Scanned, CircuitError> {
    let limit = |what, limit, actual| {
        Err(CircuitError::InputLimit {
            what,
            limit,
            actual,
        })
    };
    if src.len() > limits.max_bytes {
        return limit("input bytes", limits.max_bytes, src.len());
    }
    let mut tokens = Vec::new();
    let mut lines = 0;
    let mut elements = 0;
    let mut first_error = None;
    let mut start = 0;
    while start < src.len() {
        let line = split_line(src, start, limits.max_tokens_per_line, &mut tokens);
        let line_start = std::mem::replace(&mut start, line.next);
        lines += 1;
        if lines > limits.max_lines {
            return limit("lines", limits.max_lines, lines);
        }
        if line.len > limits.max_line_bytes {
            return limit("line bytes", limits.max_line_bytes, line.len);
        }
        let Some(&keyword) = tokens.first() else {
            continue;
        };
        if detect_gates && matches!(keyword, "gate" | "wire") {
            let text = src[line_start..].trim_start();
            if text.starts_with("gate ") || text.starts_with("wire ") {
                return Ok(Scanned {
                    lines,
                    gate_level: true,
                });
            }
        }
        if line.tokens > limits.max_tokens_per_line {
            return limit("tokens per line", limits.max_tokens_per_line, line.tokens);
        }
        if !keyword.starts_with("clock") {
            elements += 1;
            if elements > limits.max_elements {
                return limit("element lines", limits.max_elements, elements);
            }
        }
        if first_error.is_none() {
            first_error = statement(lines, &tokens).err();
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(Scanned {
            lines,
            gate_level: false,
        }),
    }
}

fn syntax_error(line: usize, message: impl Into<String>) -> CircuitError {
    CircuitError::ParseNetlist {
        line,
        message: message.into(),
    }
}

/// The error for a netlist of `lines` lines without a `clock` line,
/// placed on its last line.
fn missing_clock(lines: usize) -> CircuitError {
    syntax_error(lines.max(1), "netlist contains no `clock` line")
}

/// Parses a netlist into a validated [`Circuit`], enforcing the `Default`
/// [`ParseLimits`].
///
/// # Errors
///
/// Returns [`CircuitError::ParseNetlist`] with a one-based line number for
/// syntax problems, [`CircuitError::InputLimit`] for oversized input, and
/// the usual structural errors from [`CircuitBuilder::build`] for semantic
/// ones.
///
/// # Examples
///
/// ```
/// let src = "clock 1\nlatch A phase=1 setup=1 dq=2\n";
/// let c = smo_circuit::netlist::parse(src)?;
/// assert_eq!(c.num_latches(), 1);
/// # Ok::<(), smo_circuit::CircuitError>(())
/// ```
pub fn parse(src: &str) -> Result<Circuit, CircuitError> {
    parse_with_limits(src, &ParseLimits::default())
}

/// [`parse`] with explicit [`ParseLimits`].
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with_limits(src: &str, limits: &ParseLimits) -> Result<Circuit, CircuitError> {
    parse_either(src, limits, false)
}

/// Parses either dialect under `limits`: the gate-level parser
/// ([`parse_gates`]) when some line starts with `gate ` or `wire ` once its
/// comment and leading whitespace are stripped, [`parse`] otherwise. The
/// latch-level pass stops at the first gate-level line, and the gate-level
/// parser then reads the text from the start.
///
/// # Errors
///
/// See [`parse`] and [`parse_gates`]; limit errors take precedence over
/// syntax errors in either dialect.
pub fn parse_auto(src: &str, limits: &ParseLimits) -> Result<Circuit, CircuitError> {
    parse_either(src, limits, true)
}

/// The latch-level parser, handing over to the gate-level one when
/// `detect_gates` is on and a gate-level line turns up.
fn parse_either(
    src: &str,
    limits: &ParseLimits,
    detect_gates: bool,
) -> Result<Circuit, CircuitError> {
    let mut builder: Option<CircuitBuilder> = None;
    // Sized for a typical netlist's share of latch lines.
    let mut ids: HashMap<&str, LatchId> =
        HashMap::with_capacity((src.len() / 128).min(limits.max_elements));
    // `mindelay` statements are order-independent (they may precede the
    // `path` lines they annotate), so they are resolved after the scan.
    let mut mindelays: Vec<(usize, &str, &str, f64)> = Vec::new();
    // The last source and destination `path` lines resolved: netlists list
    // their paths grouped by one end, so these spare many index lookups.
    let mut last_ends: [Option<(&str, LatchId)>; 2] = [None; 2];

    let scanned = scan(src, limits, detect_gates, |line, tokens| {
        let [keyword, ref tokens @ ..] = *tokens else {
            return Ok(());
        };
        let mut tokens = tokens.iter().copied();
        let no_clock = || syntax_error(line, "`clock` line must come first");
        match keyword {
            "clock" => {
                if builder.is_some() {
                    return Err(syntax_error(line, "duplicate `clock` line"));
                }
                builder = Some(CircuitBuilder::new(clock_statement(tokens, line)?));
            }
            "latch" | "ff" => {
                let b = builder.as_mut().ok_or_else(no_clock)?;
                let (name, sync) = sync_statement(keyword, tokens, line)?;
                let id = b.add_sync(sync);
                if ids.insert(name, id).is_some() {
                    return Err(syntax_error(
                        line,
                        format!("duplicate element name `{name}`"),
                    ));
                }
            }
            "path" => {
                let b = builder.as_mut().ok_or_else(no_clock)?;
                let from_name = tokens
                    .next()
                    .ok_or_else(|| syntax_error(line, "`path` needs a source"))?;
                let to_name = tokens
                    .next()
                    .ok_or_else(|| syntax_error(line, "`path` needs a destination"))?;
                let ([delay], [min]) = read_attrs(tokens, ["delay"], ["min"], line)?;
                let mut endpoint = |end: usize, name| match last_ends[end] {
                    Some((last, id)) if last == name => Ok(id),
                    _ => {
                        let id = *ids.get(name).ok_or_else(|| {
                            syntax_error(line, format!("unknown element `{name}`"))
                        })?;
                        last_ends[end] = Some((name, id));
                        Ok(id)
                    }
                };
                let (from, to) = (endpoint(0, from_name)?, endpoint(1, to_name)?);
                match min {
                    Some(min) => b.connect_min_max(from, to, min, delay),
                    None => b.connect(from, to, delay),
                };
            }
            "mindelay" => {
                if builder.is_none() {
                    return Err(no_clock());
                }
                let from = tokens
                    .next()
                    .ok_or_else(|| syntax_error(line, "`mindelay` needs a source"))?;
                let to = tokens
                    .next()
                    .ok_or_else(|| syntax_error(line, "`mindelay` needs a destination"))?;
                let value = tokens
                    .next()
                    .ok_or_else(|| syntax_error(line, "`mindelay` needs a delay value"))?;
                let value: f64 = value.parse().map_err(|e| {
                    syntax_error(line, format!("bad mindelay value `{value}`: {e}"))
                })?;
                if let Some(extra) = tokens.next() {
                    return Err(syntax_error(
                        line,
                        format!("unexpected token `{extra}` after `mindelay {from} {to} {value}`"),
                    ));
                }
                mindelays.push((line, from, to, value));
            }
            other => {
                return Err(syntax_error(
                    line,
                    format!("unknown keyword `{other}` (expected clock/latch/ff/path/mindelay)"),
                ));
            }
        }
        Ok(())
    })?;
    if scanned.gate_level {
        return parse_gate_level(src, limits);
    }

    let mut builder = builder.ok_or_else(|| missing_clock(scanned.lines))?;
    // Resolve names up to the first unknown one, apply that prefix through
    // one edge index, and report whichever failure comes first in the file.
    let mut resolved = Vec::with_capacity(mindelays.len());
    let mut unknown_name = None;
    for &(line, from, to, value) in &mindelays {
        match (ids.get(from), ids.get(to)) {
            (Some(&f), Some(&t)) => resolved.push((f, t, value)),
            (f, _) => {
                let name = if f.is_none() { from } else { to };
                unknown_name = Some(syntax_error(line, format!("unknown element `{name}`")));
                break;
            }
        }
    }
    if let Err(i) = builder.set_min_delays(&resolved) {
        let (line, from, to, _) = mindelays[i];
        return Err(syntax_error(
            line,
            format!("`mindelay {from} {to}` matches no `path {from} {to}` line"),
        ));
    }
    if let Some(e) = unknown_name {
        return Err(e);
    }
    builder.build_with_checked_names()
}

/// The `clock k` statement: the phase count `k`.
fn clock_statement(mut tokens: Tokens<'_, '_>, line: usize) -> Result<usize, CircuitError> {
    let k: usize = tokens
        .next()
        .ok_or_else(|| syntax_error(line, "`clock` needs a phase count"))?
        .parse()
        .map_err(|e| syntax_error(line, format!("bad phase count: {e}")))?;
    if k == 0 {
        return Err(syntax_error(line, "clock must have at least one phase"));
    }
    if let Some(extra) = tokens.next() {
        return Err(syntax_error(
            line,
            format!("unexpected token `{extra}` after `clock {k}`"),
        ));
    }
    Ok(k)
}

/// A `latch` or `ff` statement: the element's name, borrowed from the
/// source, and its synchronizer.
fn sync_statement<'a>(
    keyword: &str,
    mut tokens: Tokens<'a, '_>,
    line: usize,
) -> Result<(&'a str, Synchronizer), CircuitError> {
    let name = tokens
        .next()
        .ok_or_else(|| syntax_error(line, format!("`{keyword}` needs a name")))?;
    let ([phase, setup, dq], [hold]) =
        read_attrs(tokens, ["phase", "setup", "dq"], ["hold"], line)?;
    if phase.fract() != 0.0 || phase < 1.0 {
        return Err(syntax_error(
            line,
            format!("phase must be a positive integer, got {phase}"),
        ));
    }
    let phase = PhaseId::from_number(phase as usize);
    let sync = match keyword {
        "latch" => Synchronizer::latch(name, phase, setup, dq),
        _ => Synchronizer::flip_flop(name, phase, setup, dq),
    };
    Ok((name, sync.with_hold(hold.unwrap_or(0.0))))
}

/// `text` as an `f64` when it is one to nine ASCII digits, the most
/// common value: what `str::parse` gives, without its general machinery.
fn small_integer(text: &str) -> Option<f64> {
    if text.is_empty() || text.len() > 9 {
        return None;
    }
    let mut n = 0u32;
    for b in text.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        n = n * 10 + u32::from(b - b'0');
    }
    Some(f64::from(n))
}

/// Reads a statement's `key=value` tokens into fixed slots: one per
/// `required` key, which must appear, and one per `optional` key.
///
/// Errors come in a fixed order. First, per token in line order: a token
/// without `=`, a value that is not a number, a key seen before on the
/// line. Then the first absent required key, in `required` order. Then the
/// first unknown key in line order.
fn read_attrs<'a, const R: usize, const O: usize>(
    tokens: Tokens<'a, '_>,
    required: [&str; R],
    optional: [&str; O],
    line: usize,
) -> Result<([f64; R], [Option<f64>; O]), CircuitError> {
    let mut req = [None; R];
    let mut opt = [None; O];
    // Unknown keys only need remembering to report duplicates among them;
    // a line holding one fails anyway, so the set is built on that path
    // alone.
    let mut unknown: Option<(&str, HashSet<&str>)> = None;
    for t in tokens {
        // Keys are short: a byte loop beats `split_once`'s searcher here.
        let eq = t
            .bytes()
            .position(|b| b == b'=')
            .ok_or_else(|| syntax_error(line, format!("expected key=value, got `{t}`")))?;
        let (key, value) = (&t[..eq], &t[eq + 1..]);
        let value = match small_integer(value) {
            Some(v) => v,
            None => value
                .parse()
                .map_err(|e| syntax_error(line, format!("bad value for `{key}`: {e}")))?,
        };
        let slot = if let Some(i) = required.iter().position(|&k| k == key) {
            &mut req[i]
        } else if let Some(i) = optional.iter().position(|&k| k == key) {
            &mut opt[i]
        } else {
            let (_, seen) = unknown.get_or_insert_with(|| (key, HashSet::new()));
            if !seen.insert(key) {
                return Err(syntax_error(line, format!("duplicate attribute `{key}`")));
            }
            continue;
        };
        if slot.replace(value).is_some() {
            return Err(syntax_error(line, format!("duplicate attribute `{key}`")));
        }
    }
    let mut values = [0.0; R];
    for ((value, slot), key) in values.iter_mut().zip(req).zip(required) {
        *value = slot.ok_or_else(|| syntax_error(line, format!("missing {key}=")))?;
    }
    if let Some((key, _)) = unknown {
        return Err(syntax_error(line, format!("unknown attribute `{key}`")));
    }
    Ok((values, opt))
}

/// Parses a *gate-level* netlist and extracts the latch-graph circuit.
///
/// In addition to the element lines of [`parse`], two keywords describe
/// gate-level structure:
///
/// ```text
/// clock 2
/// latch A phase=1 setup=1 dq=2
/// latch B phase=2 setup=1 dq=2
/// gate  and1 min=1 max=3
/// wire  A and1
/// wire  and1 B
/// ```
///
/// * `gate NAME min=δ max=Δ` — a combinational gate;
/// * `wire FROM TO` — a zero-delay connection between any two elements.
///
/// The latch-to-latch delays are computed by longest/shortest path over the
/// gate DAG (see [`gates`](crate::gates)).
///
/// # Errors
///
/// [`CircuitError::ParseNetlist`] for syntax problems,
/// [`CircuitError::CombinationalCycle`] and the usual structural errors
/// from extraction.
///
/// # Examples
///
/// ```
/// let src = "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n\
///            gate g min=1 max=3\nwire A g\nwire g B\n";
/// let c = smo_circuit::netlist::parse_gates(src)?;
/// assert_eq!(c.num_edges(), 1);
/// assert_eq!(c.edges()[0].max_delay, 3.0);
/// # Ok::<(), smo_circuit::CircuitError>(())
/// ```
pub fn parse_gates(src: &str) -> Result<Circuit, CircuitError> {
    parse_gates_with_limits(src, &ParseLimits::default())
}

/// [`parse_gates`] with explicit [`ParseLimits`].
///
/// # Errors
///
/// See [`parse_gates`].
pub fn parse_gates_with_limits(src: &str, limits: &ParseLimits) -> Result<Circuit, CircuitError> {
    parse_gate_level(src, limits)
}

/// The gate-level parser behind [`parse_gates_with_limits`].
fn parse_gate_level(src: &str, limits: &ParseLimits) -> Result<Circuit, CircuitError> {
    let mut builder: Option<GateNetlistBuilder> = None;
    let mut ids: HashMap<&str, NodeId> = HashMap::new();

    let lines = scan(src, limits, false, |line, tokens| {
        let [keyword, ref tokens @ ..] = *tokens else {
            return Ok(());
        };
        let mut tokens = tokens.iter().copied();
        let no_clock = || syntax_error(line, "`clock` line must come first");
        let duplicate = |name: &str| syntax_error(line, format!("duplicate element name `{name}`"));
        match keyword {
            "clock" => {
                if builder.is_some() {
                    return Err(syntax_error(line, "duplicate `clock` line"));
                }
                builder = Some(GateNetlistBuilder::new(clock_statement(tokens, line)?));
            }
            "latch" | "ff" => {
                let b = builder.as_mut().ok_or_else(no_clock)?;
                let (name, sync) = sync_statement(keyword, tokens, line)?;
                let id = b.add_sync(sync);
                if ids.insert(name, id).is_some() {
                    return Err(duplicate(name));
                }
            }
            "gate" => {
                let b = builder.as_mut().ok_or_else(no_clock)?;
                let name = tokens
                    .next()
                    .ok_or_else(|| syntax_error(line, "`gate` needs a name"))?;
                let ([max], [min]) = read_attrs(tokens, ["max"], ["min"], line)?;
                let id = b.add_gate(name, min.unwrap_or(0.0), max);
                if ids.insert(name, id).is_some() {
                    return Err(duplicate(name));
                }
            }
            "wire" => {
                let b = builder.as_mut().ok_or_else(no_clock)?;
                let from = tokens
                    .next()
                    .ok_or_else(|| syntax_error(line, "`wire` needs a source"))?;
                let to = tokens
                    .next()
                    .ok_or_else(|| syntax_error(line, "`wire` needs a destination"))?;
                let endpoint = |name: &str| {
                    ids.get(name)
                        .copied()
                        .ok_or_else(|| syntax_error(line, format!("unknown element `{name}`")))
                };
                let (f, t) = (endpoint(from)?, endpoint(to)?);
                if let Some(extra) = tokens.next() {
                    return Err(syntax_error(
                        line,
                        format!("unexpected token `{extra}` after `wire {from} {to}`"),
                    ));
                }
                b.wire(f, t)?;
            }
            other => {
                return Err(syntax_error(
                    line,
                    format!("unknown keyword `{other}` (expected clock/latch/ff/gate/wire)"),
                ));
            }
        }
        Ok(())
    })?
    .lines;
    builder.ok_or_else(|| missing_clock(lines))?.extract()
}

/// Serializes a circuit into the netlist text format.
///
/// The output parses back into an identical circuit.
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "clock {}", circuit.num_phases());
    for (_, s) in circuit.syncs() {
        let keyword = match s.kind {
            SyncKind::Latch => "latch",
            SyncKind::FlipFlop => "ff",
        };
        let _ = write!(
            out,
            "{keyword} {} phase={} setup={} dq={}",
            s.name,
            s.phase.number(),
            s.setup,
            s.dq
        );
        if s.hold != 0.0 {
            let _ = write!(out, " hold={}", s.hold);
        }
        let _ = writeln!(out);
    }
    for e in circuit.edges() {
        let _ = write!(
            out,
            "path {} {} delay={}",
            circuit.sync(e.from).name,
            circuit.sync(e.to).name,
            e.max_delay
        );
        if e.min_specified {
            let _ = write!(out, " min={}", e.min_delay);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    const EXAMPLE: &str = "\
# Example 1 of the paper
clock 2
latch L1 phase=1 setup=10 dq=10
latch L2 phase=2 setup=10 dq=10
latch L3 phase=1 setup=10 dq=10
latch L4 phase=2 setup=10 dq=10
path L1 L2 delay=20
path L2 L3 delay=20
path L3 L4 delay=60
path L4 L1 delay=80
";

    #[test]
    fn parses_example_circuit() {
        let c = parse(EXAMPLE).unwrap();
        assert_eq!(c.num_phases(), 2);
        assert_eq!(c.num_latches(), 4);
        assert_eq!(c.num_edges(), 4);
        let l4 = c.find("L4").unwrap();
        assert_eq!(c.sync(l4).phase.number(), 2);
    }

    #[test]
    fn round_trips() {
        let c = parse(EXAMPLE).unwrap();
        let text = write(&c);
        let c2 = parse(&text).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn round_trips_holds_and_min_delays() {
        let mut b = CircuitBuilder::new(2);
        let a =
            b.add_sync(Synchronizer::latch("A", PhaseId::from_number(1), 1.0, 2.0).with_hold(0.5));
        let f = b.add_flip_flop("F", PhaseId::from_number(2), 0.25, 0.5);
        b.connect_min_max(a, f, 1.5, 4.0);
        let c = b.build().unwrap();
        let c2 = parse(&write(&c)).unwrap();
        assert_eq!(c, c2);
        assert_eq!(c2.sync(c2.find("A").unwrap()).hold, 0.5);
        assert_eq!(c2.edges()[0].min_delay, 1.5);
    }

    #[test]
    fn unspecified_min_stays_unspecified_across_round_trip() {
        let c = parse(EXAMPLE).unwrap();
        assert!(c.edges().iter().all(|e| !e.min_specified));
        // short_delay falls back to the max delay, so early == late arrivals.
        assert_eq!(c.edges()[0].short_delay(), c.edges()[0].max_delay);
        let c2 = parse(&write(&c)).unwrap();
        assert!(c2.edges().iter().all(|e| !e.min_specified));
        assert_eq!(c, c2);
    }

    #[test]
    fn mindelay_statement_marks_matching_paths() {
        let src = "clock 2\nlatch A phase=1 setup=1 dq=2\nlatch B phase=2 setup=1 dq=2\n\
                   mindelay A B 3\npath A B delay=20\npath A B delay=10\npath B A delay=5\n";
        let c = parse(src).unwrap();
        let a = c.find("A").unwrap();
        let ab: Vec<_> = c.edges().iter().filter(|e| e.from == a).collect();
        assert_eq!(ab.len(), 2);
        for e in ab {
            assert!(e.min_specified);
            assert_eq!(e.min_delay, 3.0);
            assert_eq!(e.short_delay(), 3.0);
        }
        let ba = c.edges().iter().find(|e| e.to == a).unwrap();
        assert!(!ba.min_specified);
        // min= survives a write→parse round trip as an explicit min.
        let c2 = parse(&write(&c)).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn mindelay_without_matching_path_rejected() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n\
                   mindelay A B 3\n";
        match parse(src).unwrap_err() {
            CircuitError::ParseNetlist { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("no `path A B`"), "message: {message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn mindelay_above_max_rejected_by_validation() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n\
                   path A B delay=4\nmindelay A B 9\n";
        assert!(matches!(
            parse(src).unwrap_err(),
            CircuitError::InvalidEdgeDelay { .. }
        ));
    }

    #[test]
    fn mindelay_rejects_trailing_tokens() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=4\nmindelay A A 1 junk\n";
        match parse(src).unwrap_err() {
            CircuitError::ParseNetlist { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("junk"), "message: {message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reports_line_numbers() {
        let src = "clock 2\nlatch A phase=1 setup=1 dq=2\nbogus line here\n";
        match parse(src).unwrap_err() {
            CircuitError::ParseNetlist { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("bogus"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_clock() {
        assert!(matches!(
            parse("latch A phase=1 setup=1 dq=2\n").unwrap_err(),
            CircuitError::ParseNetlist { line: 1, .. }
        ));
        assert!(matches!(
            parse("# nothing\n").unwrap_err(),
            CircuitError::ParseNetlist { .. }
        ));
    }

    #[test]
    fn rejects_unknown_attribute_and_duplicates() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2 zap=3\n";
        assert!(parse(src).is_err());
        let src = "clock 1\nlatch A phase=1 setup=1 setup=2 dq=2\n";
        assert!(parse(src).is_err());
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch A phase=1 setup=1 dq=2\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_unknown_path_endpoint() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\npath A B delay=3\n";
        match parse(src).unwrap_err() {
            CircuitError::ParseNetlist { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains('B'));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn comments_and_blanks_ignored_anywhere() {
        let src = "\n# lead\nclock 1 # trailing\n\nlatch A phase=1 setup=1 dq=2\n";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn fractional_phase_rejected() {
        let src = "clock 2\nlatch A phase=1.5 setup=1 dq=2\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_trailing_tokens_after_clock() {
        for parser in [parse, parse_gates] {
            let src = "clock 2 extra\nlatch A phase=1 setup=1 dq=2\n";
            match parser(src).unwrap_err() {
                CircuitError::ParseNetlist { line, message } => {
                    assert_eq!(line, 1);
                    assert!(message.contains("extra"), "message: {message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_trailing_tokens_after_wire() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\ngate g max=1\nwire A g oops\n";
        match parse_gates(src).unwrap_err() {
            CircuitError::ParseNetlist { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("oops"), "message: {message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    const GATE_EXAMPLE: &str = "\
clock 2
latch A phase=1 setup=1 dq=2
latch B phase=2 setup=1 dq=2
gate g1 min=1 max=5
gate g2 min=2 max=2
wire A g1
wire A g2
wire g1 B
wire g2 B
wire B A      # feedback wire, zero delay
";

    #[test]
    fn gate_netlist_extracts_worst_case_paths() {
        let c = parse_gates(GATE_EXAMPLE).unwrap();
        assert_eq!(c.num_syncs(), 2);
        assert_eq!(c.num_edges(), 2);
        let ab = c
            .edges()
            .iter()
            .find(|e| e.from != e.to && e.max_delay > 0.0)
            .unwrap();
        assert_eq!(ab.max_delay, 5.0);
        assert_eq!(ab.min_delay, 1.0);
    }

    #[test]
    fn gate_netlist_reports_cycle() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\ngate g1 max=1\ngate g2 max=1\n\
                   wire A g1\nwire g1 g2\nwire g2 g1\n";
        assert!(matches!(
            parse_gates(src).unwrap_err(),
            CircuitError::CombinationalCycle { .. }
        ));
    }

    #[test]
    fn input_limits_reject_oversized_netlists() {
        // Total bytes.
        let tight = ParseLimits {
            max_bytes: 16,
            ..Default::default()
        };
        let err = parse_with_limits(EXAMPLE, &tight).unwrap_err();
        assert!(
            matches!(
                err,
                CircuitError::InputLimit {
                    what: "input bytes",
                    ..
                }
            ),
            "{err:?}"
        );
        // Line length.
        let long_line = format!("clock 1\n# {}\n", "x".repeat(8_192));
        let err = parse(&long_line).unwrap_err();
        assert!(
            matches!(
                err,
                CircuitError::InputLimit {
                    what: "line bytes",
                    ..
                }
            ),
            "{err:?}"
        );
        // Tokens per line.
        let wide = format!("clock 1\nlatch A {}\n", "k=1 ".repeat(100));
        let err = parse(&wide).unwrap_err();
        assert!(
            matches!(
                err,
                CircuitError::InputLimit {
                    what: "tokens per line",
                    ..
                }
            ),
            "{err:?}"
        );
        // Element count, for both parsers.
        let few = ParseLimits {
            max_elements: 2,
            ..Default::default()
        };
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n\
                   path A B delay=1\n";
        for parser in [parse_with_limits, parse_gates_with_limits] {
            let err = parser(src, &few).unwrap_err();
            assert!(
                matches!(
                    err,
                    CircuitError::InputLimit {
                        what: "element lines",
                        limit: 2,
                        actual: 3,
                    }
                ),
                "{err:?}"
            );
        }
        // UNLIMITED really is.
        assert!(parse_with_limits(src, &ParseLimits::UNLIMITED).is_ok());
        // The defaults admit every shipped-size netlist.
        assert!(parse(src).is_ok());
    }

    /// One case per error branch of [`parse`]: `(case, source, expected error)`.
    const LATCH_ERRORS: &[(&str, &str, &str)] = &[
        (
            "duplicate clock",
            "clock 1\nclock 2\n",
            "netlist parse error at line 2: duplicate `clock` line",
        ),
        (
            "clock without count",
            "clock\n",
            "netlist parse error at line 1: `clock` needs a phase count",
        ),
        (
            "bad phase count",
            "clock two\n",
            "netlist parse error at line 1: bad phase count: invalid digit found in string",
        ),
        (
            "zero phases",
            "clock 0\n",
            "netlist parse error at line 1: clock must have at least one phase",
        ),
        (
            "trailing token after clock",
            "clock 2 extra\n",
            "netlist parse error at line 1: unexpected token `extra` after `clock 2`",
        ),
        (
            "latch before clock",
            "latch A phase=1 setup=1 dq=2\nclock 1\n",
            "netlist parse error at line 1: `clock` line must come first",
        ),
        (
            "latch without name",
            "clock 1\nlatch\n",
            "netlist parse error at line 2: `latch` needs a name",
        ),
        (
            "ff without name",
            "clock 1\nff\n",
            "netlist parse error at line 2: `ff` needs a name",
        ),
        (
            "token without =",
            "clock 1\nlatch A phase=1 setup\n",
            "netlist parse error at line 2: expected key=value, got `setup`",
        ),
        (
            "bad attribute value",
            "clock 1\nlatch A phase=1 setup=x dq=2\n",
            "netlist parse error at line 2: bad value for `setup`: invalid float literal",
        ),
        (
            "duplicate attribute",
            "clock 1\nlatch A phase=1 setup=1 setup=2 dq=2\n",
            "netlist parse error at line 2: duplicate attribute `setup`",
        ),
        (
            "duplicate unknown attribute",
            "clock 1\nlatch A phase=1 foo=1 foo=2 setup=1 dq=2\n",
            "netlist parse error at line 2: duplicate attribute `foo`",
        ),
        (
            "missing phase",
            "clock 1\nlatch A setup=1 dq=2\n",
            "netlist parse error at line 2: missing phase=",
        ),
        (
            "missing setup",
            "clock 1\nlatch A phase=1 dq=2\n",
            "netlist parse error at line 2: missing setup=",
        ),
        (
            "missing dq",
            "clock 1\nff A phase=1 setup=1\n",
            "netlist parse error at line 2: missing dq=",
        ),
        (
            "missing beats unknown",
            "clock 1\nlatch A phase=1 foo=1 dq=2\n",
            "netlist parse error at line 2: missing setup=",
        ),
        (
            "duplicate beats a later malformed token",
            "clock 1\nlatch A dq=1 dq=2 bare\n",
            "netlist parse error at line 2: duplicate attribute `dq`",
        ),
        (
            "bad value beats missing",
            "clock 1\nlatch A phase=? \n",
            "netlist parse error at line 2: bad value for `phase`: invalid float literal",
        ),
        (
            "unknown latch attribute",
            "clock 1\nlatch A phase=1 setup=1 dq=2 foo=1 bar=2 baz=3\n",
            "netlist parse error at line 2: unknown attribute `foo`",
        ),
        (
            "fractional phase",
            "clock 2\nlatch A phase=1.5 setup=1 dq=2\n",
            "netlist parse error at line 2: phase must be a positive integer, got 1.5",
        ),
        (
            "zero phase",
            "clock 2\nlatch A phase=0 setup=1 dq=2\n",
            "netlist parse error at line 2: phase must be a positive integer, got 0",
        ),
        (
            "duplicate element",
            "clock 1\nlatch A phase=1 setup=1 dq=2\nff A phase=1 setup=1 dq=2\n",
            "netlist parse error at line 3: duplicate element name `A`",
        ),
        (
            "path before clock",
            "path A B delay=1\n",
            "netlist parse error at line 1: `clock` line must come first",
        ),
        (
            "path without source",
            "clock 1\npath\n",
            "netlist parse error at line 2: `path` needs a source",
        ),
        (
            "path without destination",
            "clock 1\nlatch A phase=1 setup=1 dq=2\npath A\n",
            "netlist parse error at line 3: `path` needs a destination",
        ),
        (
            "path missing delay",
            "clock 1\nlatch A phase=1 setup=1 dq=2\npath A A min=1\n",
            "netlist parse error at line 3: missing delay=",
        ),
        (
            "unknown path attribute",
            "clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=1 max=2\n",
            "netlist parse error at line 3: unknown attribute `max`",
        ),
        (
            "path attribute error beats endpoint",
            "clock 1\npath X Y delay\n",
            "netlist parse error at line 2: expected key=value, got `delay`",
        ),
        (
            "unknown path source",
            "clock 1\nlatch A phase=1 setup=1 dq=2\npath X A delay=1\n",
            "netlist parse error at line 3: unknown element `X`",
        ),
        (
            "unknown path destination",
            "clock 1\nlatch A phase=1 setup=1 dq=2\npath A Y delay=1\n",
            "netlist parse error at line 3: unknown element `Y`",
        ),
        (
            "mindelay before clock",
            "mindelay A B 1\nclock 1\n",
            "netlist parse error at line 1: `clock` line must come first",
        ),
        (
            "mindelay without source",
            "clock 1\nmindelay\n",
            "netlist parse error at line 2: `mindelay` needs a source",
        ),
        (
            "mindelay without destination",
            "clock 1\nmindelay A\n",
            "netlist parse error at line 2: `mindelay` needs a destination",
        ),
        (
            "mindelay without value",
            "clock 1\nmindelay A B\n",
            "netlist parse error at line 2: `mindelay` needs a delay value",
        ),
        (
            "bad mindelay value",
            "clock 1\nmindelay A B slow\n",
            "netlist parse error at line 2: bad mindelay value `slow`: invalid float literal",
        ),
        (
            "trailing token after mindelay",
            "clock 1\nmindelay A B 1 junk\n",
            "netlist parse error at line 2: unexpected token `junk` after `mindelay A B 1`",
        ),
        (
            "unknown keyword",
            "clock 1\nwidget A\n",
            "netlist parse error at line 2: unknown keyword `widget` (expected clock/latch/ff/path/mindelay)",
        ),
        (
            "no clock line",
            "# only a comment\n\n",
            "netlist parse error at line 2: netlist contains no `clock` line",
        ),
        (
            "empty input",
            "",
            "netlist parse error at line 1: netlist contains no `clock` line",
        ),
        (
            "no clock after elements",
            "latch A phase=1 setup=1 dq=2\n",
            "netlist parse error at line 1: `clock` line must come first",
        ),
        (
            "mindelay unknown source",
            "clock 1\nlatch A phase=1 setup=1 dq=2\nmindelay X A 1\n",
            "netlist parse error at line 3: unknown element `X`",
        ),
        (
            "mindelay unknown destination",
            "clock 1\nlatch A phase=1 setup=1 dq=2\nmindelay A Y 1\n",
            "netlist parse error at line 3: unknown element `Y`",
        ),
        (
            "mindelay matches no path",
            "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\npath B A delay=2\nmindelay A B 1\n",
            "netlist parse error at line 5: `mindelay A B` matches no `path A B` line",
        ),
        (
            "first bad mindelay in file order",
            "clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=2\nmindelay A Z 1\nmindelay Q A 1\n",
            "netlist parse error at line 4: unknown element `Z`",
        ),
        (
            "syntax error beats mindelay resolution",
            "clock 1\nmindelay A B 1\nbogus\n",
            "netlist parse error at line 3: unknown keyword `bogus` (expected clock/latch/ff/path/mindelay)",
        ),
        (
            "mindelay above max",
            "clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=2\nmindelay A A 3\n",
            "edge `A` → `A`: min delay 3 exceeds max delay 2",
        ),
        (
            "empty circuit",
            "clock 1\n",
            "circuit has no synchronizers",
        ),
        (
            "dq below setup",
            "clock 1\nlatch A phase=1 setup=3 dq=2\n",
            "latch `A` has Δ_DQ = 2 below Δ_DC = 3 (the model assumes Δ_DQ ≥ Δ_DC)",
        ),
        (
            "phase out of range",
            "clock 1\nlatch A phase=2 setup=1 dq=2\n",
            "latch `A` uses phase 2 but the clock has only 1 phases",
        ),
        (
            "negative delay",
            "clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=-1\n",
            "edge `A` → `A`: max delay -1 must be finite and non-negative",
        ),
    ];

    /// One case per error branch of [`parse_gates`].
    const GATE_ERRORS: &[(&str, &str, &str)] = &[
        (
            "duplicate clock",
            "clock 1\nclock 2\n",
            "netlist parse error at line 2: duplicate `clock` line",
        ),
        (
            "clock without count",
            "clock\n",
            "netlist parse error at line 1: `clock` needs a phase count",
        ),
        (
            "bad phase count",
            "clock -1\n",
            "netlist parse error at line 1: bad phase count: invalid digit found in string",
        ),
        (
            "zero phases",
            "clock 0\n",
            "netlist parse error at line 1: clock must have at least one phase",
        ),
        (
            "trailing token after clock",
            "clock 2 extra\n",
            "netlist parse error at line 1: unexpected token `extra` after `clock 2`",
        ),
        (
            "latch before clock",
            "latch A phase=1 setup=1 dq=2\n",
            "netlist parse error at line 1: `clock` line must come first",
        ),
        (
            "latch without name",
            "clock 1\nlatch\n",
            "netlist parse error at line 2: `latch` needs a name",
        ),
        (
            "token without =",
            "clock 1\nlatch A phase\n",
            "netlist parse error at line 2: expected key=value, got `phase`",
        ),
        (
            "bad attribute value",
            "clock 1\nlatch A phase=1 setup=1 dq=\n",
            "netlist parse error at line 2: bad value for `dq`: cannot parse float from empty string",
        ),
        (
            "duplicate attribute",
            "clock 1\nlatch A phase=1 phase=1 setup=1 dq=2\n",
            "netlist parse error at line 2: duplicate attribute `phase`",
        ),
        (
            "missing setup",
            "clock 1\nlatch A phase=1 dq=2\n",
            "netlist parse error at line 2: missing setup=",
        ),
        (
            "unknown latch attribute",
            "clock 1\nlatch A phase=1 setup=1 dq=2 foo=1 bar=2 baz=3\n",
            "netlist parse error at line 2: unknown attribute `foo`",
        ),
        (
            "fractional phase",
            "clock 2\nff A phase=2.5 setup=1 dq=2\n",
            "netlist parse error at line 2: phase must be a positive integer, got 2.5",
        ),
        (
            "duplicate element",
            "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch A phase=1 setup=1 dq=2\n",
            "netlist parse error at line 3: duplicate element name `A`",
        ),
        (
            "gate before clock",
            "gate g max=1\n",
            "netlist parse error at line 1: `clock` line must come first",
        ),
        (
            "gate without name",
            "clock 1\ngate\n",
            "netlist parse error at line 2: `gate` needs a name",
        ),
        (
            "gate missing max",
            "clock 1\ngate g min=1\n",
            "netlist parse error at line 2: missing max=",
        ),
        (
            "gate token without =",
            "clock 1\ngate g max\n",
            "netlist parse error at line 2: expected key=value, got `max`",
        ),
        (
            "unknown gate attribute",
            "clock 1\ngate g max=1 delay=2 foo=3\n",
            "netlist parse error at line 2: unknown attribute `delay`",
        ),
        (
            "gate duplicates latch name",
            "clock 1\nlatch A phase=1 setup=1 dq=2\ngate A max=1\n",
            "netlist parse error at line 3: duplicate element name `A`",
        ),
        (
            "wire before clock",
            "wire a b\n",
            "netlist parse error at line 1: `clock` line must come first",
        ),
        (
            "wire without source",
            "clock 1\nwire\n",
            "netlist parse error at line 2: `wire` needs a source",
        ),
        (
            "wire without destination",
            "clock 1\ngate g max=1\nwire g\n",
            "netlist parse error at line 3: `wire` needs a destination",
        ),
        (
            "unknown wire source",
            "clock 1\ngate g max=1\nwire x g\n",
            "netlist parse error at line 3: unknown element `x`",
        ),
        (
            "unknown wire destination",
            "clock 1\ngate g max=1\nwire g y\n",
            "netlist parse error at line 3: unknown element `y`",
        ),
        (
            "unknown endpoint beats trailing token",
            "clock 1\ngate g max=1\nwire g y junk\n",
            "netlist parse error at line 3: unknown element `y`",
        ),
        (
            "trailing token after wire",
            "clock 1\ngate g max=1\nwire g g oops\n",
            "netlist parse error at line 3: unexpected token `oops` after `wire g g`",
        ),
        (
            "unknown keyword",
            "clock 1\npath A B delay=1\n",
            "netlist parse error at line 2: unknown keyword `path` (expected clock/latch/ff/gate/wire)",
        ),
        (
            "no clock line",
            "\n# comment\n\n",
            "netlist parse error at line 3: netlist contains no `clock` line",
        ),
        (
            "bad gate delays",
            "clock 1\nlatch A phase=1 setup=1 dq=2\ngate g min=3 max=1\nwire A g\nwire g A\n",
            "edge `g` → `g`: gate delay range [3, 1] is invalid",
        ),
        (
            "combinational cycle",
            "clock 1\nlatch A phase=1 setup=1 dq=2\ngate g1 max=1\ngate g2 max=1\nwire A g1\nwire g1 g2\nwire g2 g1\n",
            "combinational cycle through gate `g1` (no synchronizer on the loop)",
        ),
    ];

    #[test]
    fn error_surface_is_pinned() {
        for (case, src, expected) in LATCH_ERRORS {
            let got = parse(src).map(|_| ()).map_err(|e| e.to_string());
            assert_eq!(got, Err(expected.to_string()), "parse: {case}");
        }
        for (case, src, expected) in GATE_ERRORS {
            let got = parse_gates(src).map(|_| ()).map_err(|e| e.to_string());
            assert_eq!(got, Err(expected.to_string()), "parse_gates: {case}");
        }
    }

    #[test]
    fn limit_errors_are_pinned_and_precede_syntax_errors() {
        let d = ParseLimits::default();
        let cases = [
            (
                "input bytes",
                "clock 1\nlatch A phase=1 setup=1 dq=2\n".to_string(),
                ParseLimits { max_bytes: 16, ..d },
                "netlist exceeds the input bytes limit: 37 > 16",
            ),
            (
                "lines",
                "clock 1\n\n\nlatch A phase=1 setup=1 dq=2\n".to_string(),
                ParseLimits { max_lines: 3, ..d },
                "netlist exceeds the lines limit: 4 > 3",
            ),
            (
                "line bytes",
                format!("clock 1\n# {}\n", "x".repeat(5000)),
                d,
                "netlist exceeds the line bytes limit: 5002 > 4096",
            ),
            (
                "tokens per line",
                format!("clock 1\nlatch A {}\n", "k=1 ".repeat(70)),
                d,
                "netlist exceeds the tokens per line limit: 72 > 64",
            ),
            (
                "element lines",
                "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n\
                 path A B delay=1\n"
                    .to_string(),
                ParseLimits {
                    max_elements: 2,
                    ..d
                },
                "netlist exceeds the element lines limit: 3 > 2",
            ),
            (
                "limit beats syntax",
                format!("bogus\nclock 1\n# {}\n", "y".repeat(5000)),
                d,
                "netlist exceeds the line bytes limit: 5002 > 4096",
            ),
            (
                "comment-only lines count toward lines",
                "# a\n# b\n# c\nclock 1\n".to_string(),
                ParseLimits { max_lines: 3, ..d },
                "netlist exceeds the lines limit: 4 > 3",
            ),
            (
                "clock lines are not elements",
                "clock 1\nclock 1\nlatch A phase=1 setup=1 dq=2\n".to_string(),
                ParseLimits {
                    max_elements: 1,
                    ..d
                },
                "netlist parse error at line 2: duplicate `clock` line",
            ),
        ];
        for (case, src, limits, expected) in cases {
            for parser in [parse_with_limits, parse_gates_with_limits, parse_auto] {
                let got = parser(&src, &limits).map(|_| ()).map_err(|e| e.to_string());
                assert_eq!(got, Err(expected.to_string()), "{case}");
            }
        }
    }

    #[test]
    fn unknown_attribute_names_the_first_unknown_key() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2 foo=1 bar=2 baz=3\n";
        for _ in 0..50 {
            for parser in [parse, parse_gates] {
                match parser(src).unwrap_err() {
                    CircuitError::ParseNetlist { line, message } => {
                        assert_eq!((line, message.as_str()), (2, "unknown attribute `foo`"));
                    }
                    other => panic!("unexpected error {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mindelay_statements_apply_in_file_order_to_every_matching_path() {
        let src = "clock 2\nlatch A phase=1 setup=1 dq=2\nlatch B phase=2 setup=1 dq=2\n\
                   mindelay A B 2\npath A B delay=9\npath A B delay=5 min=4\npath B A delay=6\n\
                   path A A delay=7 min=1\nmindelay A B 3\nmindelay A A 0.5\nmindelay A A 1.5\n";
        let c = parse(src).unwrap();
        let mins: Vec<(f64, bool)> = c
            .edges()
            .iter()
            .map(|e| (e.min_delay, e.min_specified))
            .collect();
        // The last `mindelay` for a pair wins on every parallel path, over
        // any `min=` of its own; other pairs keep what their lines said.
        assert_eq!(
            mins,
            vec![(3.0, true), (3.0, true), (0.0, false), (1.5, true)]
        );
    }

    #[test]
    fn first_failing_mindelay_in_file_order_is_reported() {
        let head = "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n\
                    path A A delay=2\n";
        let cases = [
            (
                "mindelay B B 1\nmindelay A C 1\n",
                (5, "`mindelay B B` matches no `path B B` line"),
            ),
            (
                "mindelay A C 1\nmindelay B B 1\n",
                (5, "unknown element `C`"),
            ),
            (
                "mindelay A A 1\nmindelay C A 1\nmindelay B A 1\n",
                (6, "unknown element `C`"),
            ),
        ];
        for (tail, expected) in cases {
            match parse(&format!("{head}{tail}")).unwrap_err() {
                CircuitError::ParseNetlist { line, message } => {
                    assert_eq!((line, message.as_str()), expected, "{tail:?}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn parse_auto_detects_the_gate_dialect_like_the_parsers_expect() {
        let d = ParseLimits::default();
        let latch_level = "clock 1\nlatch A phase=1 setup=1 dq=2 # gate g max=1\n\
                           path A A delay=1\n";
        assert_eq!(parse_auto(latch_level, &d).unwrap().num_edges(), 1);
        // A gate line after leading whitespace selects the gate parser…
        let gate_level = "clock 1\nlatch A phase=1 setup=1 dq=2\n  gate g max=3\nwire A g\n\
                          wire g A\n";
        assert_eq!(
            parse_auto(gate_level, &d).unwrap().edges()[0].max_delay,
            3.0
        );
        // …so a `path` line there is an unknown keyword, while `gate` with
        // no space after it does not select it.
        let mixed = "clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=1\nwire A A\n";
        assert!(parse_auto(mixed, &d)
            .unwrap_err()
            .to_string()
            .contains("unknown keyword `path`"));
        let bare = "clock 1\ngate\n";
        assert!(parse_auto(bare, &d)
            .unwrap_err()
            .to_string()
            .contains("unknown keyword `gate` (expected clock/latch/ff/path/mindelay)"));
    }

    #[test]
    fn small_integers_parse_like_str_parse() {
        for text in ["0", "7", "007", "10", "999999999", "123456789"] {
            assert_eq!(small_integer(text), text.parse().ok(), "{text}");
        }
        for text in ["", "1000000000", "-1", "+1", "1.0", "1e3", "0x1", "½"] {
            assert_eq!(small_integer(text), None, "{text}");
        }
    }

    #[test]
    fn token_end_matches_the_byte_rule() {
        let plain = |bytes: &[u8], mut i: usize| {
            while i < bytes.len() && TOKEN_BYTE[usize::from(bytes[i])] {
                i += 1;
            }
            i
        };
        // Every byte value, and every pair of edge-case bytes (a borrow
        // out of the first must not hide the second), at every offset of
        // the eight-byte words.
        let edges = [
            0x00, 0x01, 0x08, 0x09, 0x0a, 0x0b, 0x0d, 0x0e, 0x1f, 0x20, 0x21, 0x22, 0x23, 0x24,
            0x7f, 0x80, 0xc3, 0xff, b'a',
        ];
        let pairs = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| [a, b]));
        let singles = (0..=255u8).map(|b| [b, b'a']);
        for pair in singles.chain(pairs) {
            for at in 0..19 {
                let mut bytes = [b'x'; 20];
                bytes[at..at + 2].copy_from_slice(&pair);
                for start in 0..=at {
                    assert_eq!(
                        token_end(&bytes, start),
                        plain(&bytes, start),
                        "{pair:?} at {at} from {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn gate_netlist_rejects_unknown_wire_endpoint() {
        let src = "clock 1\nlatch A phase=1 setup=1 dq=2\nwire A nope\n";
        match parse_gates(src).unwrap_err() {
            CircuitError::ParseNetlist { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("nope"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
