//! The netlist parser's observable surface, pinned input by input: the
//! token separators, line endings, comments, non-ASCII names, dialect
//! detection and the precedence of limit errors over syntax errors. A
//! property test then checks that re-spacing, re-terminating and
//! commenting a written netlist never changes the circuit it parses to.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smo::circuit::netlist::{self, ParseLimits};
use smo::circuit::{Circuit, CircuitBuilder, PhaseId, Synchronizer};

/// What a golden input must give: the `Display` of its error, or the
/// [`netlist::write`] text of the circuit it parses to.
enum Expect {
    Err(&'static str),
    Ok(&'static str),
}

const D: ParseLimits = ParseLimits {
    max_bytes: 4 << 20,
    max_lines: 200_000,
    max_line_bytes: 4_096,
    max_tokens_per_line: 64,
    max_elements: 100_000,
};

const AB: &str = "clock 2\nlatch A phase=1 setup=1 dq=2\nlatch B phase=2 setup=1 dq=2\n\
                  path A B delay=3\npath B A delay=4\n";

/// `(case, source, limits, expected)`, parsed with [`netlist::parse_auto`].
fn golden() -> Vec<(&'static str, String, ParseLimits, Expect)> {
    use Expect::{Err, Ok};
    let s = |x: &str| x.to_string();
    vec![
        (
            "CRLF line endings",
            s("clock 2\r\nlatch A phase=1 setup=1 dq=2\r\nlatch B phase=2 setup=1 dq=2\r\n\
               path A B delay=3\r\npath B A delay=4\r\n"),
            D,
            Ok(AB),
        ),
        (
            "CRLF keeps line numbers",
            s("clock 1\r\n\r\nlatch A phase=1 setup=1 dq=2\r\nbogus\r\n"),
            D,
            Err("netlist parse error at line 4: unknown keyword `bogus` (expected clock/latch/ff/path/mindelay)"),
        ),
        (
            "a lone CR separates tokens, not lines",
            s("clock 1\rlatch A phase=1 setup=1 dq=2\n"),
            D,
            Err("netlist parse error at line 1: unexpected token `latch` after `clock 1`"),
        ),
        (
            "a CR at the end of the last line",
            s("clock 1\nlatch A phase=1 setup=1 dq=2\r"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
        ),
        (
            "VT separates tokens",
            s("clock\x0b2\nlatch\x0bA phase=1\x0bsetup=1 dq=2\nlatch B phase=2 setup=1 dq=2\n\
               path A B delay=3\npath\x0bB\x0bA\x0bdelay=4\n"),
            D,
            Ok(AB),
        ),
        (
            "FF separates tokens",
            s("clock\x0c2\nlatch A\x0cphase=1 setup=1 dq=2\x0c\nlatch B phase=2 setup=1 dq=2\n\
               \x0cpath A B delay=3\npath B A delay=4\n"),
            D,
            Ok(AB),
        ),
        (
            "NBSP separates tokens",
            s("clock\u{a0}2\nlatch\u{a0}A phase=1 setup=1 dq=2\nlatch B phase=2 setup=1 dq=2\n\
               path A\u{a0}B delay=3\npath B A delay=4\u{a0}\n"),
            D,
            Ok(AB),
        ),
        (
            "EM SPACE separates tokens",
            s("clock 2\nlatch A\u{2003}phase=1 setup=1 dq=2\nlatch B phase=2 setup=1 dq=2\n\
               \u{2003}path A B delay=3\npath B A\u{2003}\u{2003}delay=4\n"),
            D,
            Ok(AB),
        ),
        (
            "NEL separates tokens",
            s("clock 1\nlatch A\u{85}phase=1 setup=1 dq=2\n"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
        ),
        (
            "a zero-width space is part of a name",
            s("clock 1\nlatch A\u{200b} phase=1 setup=1 dq=2\n"),
            D,
            Ok("clock 1\nlatch A\u{200b} phase=1 setup=1 dq=2\n"),
        ),
        (
            "tabs everywhere",
            s("\tclock\t2\t\nlatch\tA\tphase=1\tsetup=1\tdq=2\nlatch B phase=2 setup=1 dq=2\n\
               \t\tpath A B delay=3\npath B A delay=4\t\t\n"),
            D,
            Ok(AB),
        ),
        (
            "# after a token",
            s("clock 1 # one phase\nlatch A phase=1 setup=1 dq=2 #hold=5\npath A A delay=3 # min=1\n"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=3\n"),
        ),
        (
            "# inside a token ends it",
            s("clock 1\nlatch A phase=1 setup=1 dq=2#hold=5\npath A A delay=3#0\n"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=3\n"),
        ),
        (
            "# inside a name cuts the line",
            s("clock 1\nlatch A#B phase=1 setup=1 dq=2\n"),
            D,
            Err("netlist parse error at line 2: missing phase="),
        ),
        (
            "# right after a keyword",
            s("clock 1\nlatch# A phase=1\n"),
            D,
            Err("netlist parse error at line 2: `latch` needs a name"),
        ),
        (
            "comment-only and blank lines",
            s("# head\n   # indented\n\t#tab\n\n \x0b\x0c \nclock 1\n#\nlatch A phase=1 setup=1 dq=2\n# tail"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
        ),
        (
            "non-ASCII names",
            s("clock 2\nlatch Ä phase=1 setup=1 dq=2\nff 名前 phase=2 setup=0.5 dq=1 hold=0.25\n\
               path Ä 名前 delay=7 min=2\npath 名前 Ä delay=1.5\n"),
            D,
            Ok("clock 2\nlatch Ä phase=1 setup=1 dq=2\nff 名前 phase=2 setup=0.5 dq=1 hold=0.25\n\
                path Ä 名前 delay=7 min=2\npath 名前 Ä delay=1.5\n"),
        ),
        (
            "non-ASCII name followed by NBSP",
            s("clock 1\nlatch Ä\u{a0}B phase=1 setup=1 dq=2\n"),
            D,
            Err("netlist parse error at line 2: expected key=value, got `B`"),
        ),
        (
            "unknown non-ASCII endpoint",
            s("clock 1\nlatch A phase=1 setup=1 dq=2\npath A Ω delay=1\n"),
            D,
            Err("netlist parse error at line 3: unknown element `Ω`"),
        ),
        (
            "non-ASCII text in a comment",
            s("clock 1 # ½ phase? ✓\nlatch A phase=1 setup=1 dq=2 # Δ\u{a0}=2\n"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
        ),
        (
            "mindelay before its path",
            s("clock 1\nlatch A phase=1 setup=1 dq=2\nmindelay A A 0.5\npath A A delay=3\n"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=3 min=0.5\n"),
        ),
        (
            "gate line behind leading whitespace",
            s("clock 1\nlatch A phase=1 setup=1 dq=2\n \t gate g max=3\nwire A g\nwire g A\n"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=3 min=0\n"),
        ),
        (
            "wire line behind NBSP",
            s("clock 1\nlatch A phase=1 setup=1 dq=2\n\u{a0}wire A A\n"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=0 min=0\n"),
        ),
        (
            "gate followed by a tab is not the gate dialect",
            s("clock 1\nlatch A phase=1 setup=1 dq=2\ngate\tg max=3\n"),
            D,
            Err("netlist parse error at line 3: unknown keyword `gate` (expected clock/latch/ff/path/mindelay)"),
        ),
        (
            "gate followed by # is not the gate dialect",
            s("clock 1\ngate#x\n"),
            D,
            Err("netlist parse error at line 2: unknown keyword `gate` (expected clock/latch/ff/path/mindelay)"),
        ),
        (
            "a gate line in a comment is not the gate dialect",
            s("clock 1\n# gate g max=1\nlatch A phase=1 setup=1 dq=2 # wire A A\n"),
            D,
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
        ),
        (
            "a gate line after a latch-dialect error selects the gate dialect",
            s("clock 1\nlatch A phase=1 setup=1 dq=2\npath A A delay=1\nwire A A\n"),
            D,
            Err("netlist parse error at line 3: unknown keyword `path` (expected clock/latch/ff/gate/wire)"),
        ),
        (
            "missing clock after CRLF comment lines",
            s("# a\r\n# b\r\n"),
            D,
            Err("netlist parse error at line 2: netlist contains no `clock` line"),
        ),
        (
            "missing clock counts a final line without newline",
            s("\n\n# c"),
            D,
            Err("netlist parse error at line 3: netlist contains no `clock` line"),
        ),
        (
            "limit: input bytes beat a syntax error",
            s("bogus\nclock 1\n"),
            ParseLimits { max_bytes: 10, ..D },
            Err("netlist exceeds the input bytes limit: 14 > 10"),
        ),
        (
            "limit: lines beat an earlier syntax error",
            s("bogus\nclock 1\n\n\n"),
            ParseLimits { max_lines: 3, ..D },
            Err("netlist exceeds the lines limit: 4 > 3"),
        ),
        (
            "limit: a final newline opens no line",
            s("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
            ParseLimits { max_lines: 2, ..D },
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
        ),
        (
            "limit: line bytes beat an earlier duplicate name",
            format!(
                "clock 1\nlatch A phase=1 setup=1 dq=2\nlatch A phase=1 setup=1 dq=2\n#{}\n",
                "z".repeat(40)
            ),
            ParseLimits { max_line_bytes: 32, ..D },
            Err("netlist exceeds the line bytes limit: 41 > 32"),
        ),
        (
            "limit: line bytes leave out the CRLF",
            format!("clock 1\r\n#{}\r\nlatch A phase=1 setup=1 dq=2\r\n", "z".repeat(27)),
            ParseLimits { max_line_bytes: 28, ..D },
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
        ),
        (
            "limit: tokens per line beat an earlier syntax error",
            format!("clock 1\nwidget\nlatch A {}\n", "k=1 ".repeat(10)),
            ParseLimits { max_tokens_per_line: 8, ..D },
            Err("netlist exceeds the tokens per line limit: 12 > 8"),
        ),
        (
            "limit: tokens in a comment do not count",
            format!("clock 1\nlatch A phase=1 setup=1 dq=2 # {}\n", "k ".repeat(40)),
            ParseLimits { max_tokens_per_line: 8, ..D },
            Ok("clock 1\nlatch A phase=1 setup=1 dq=2\n"),
        ),
        (
            "limit: tokens split by NBSP count",
            format!("clock 1\nlatch A{}\n", "\u{a0}k=1".repeat(10)),
            ParseLimits { max_tokens_per_line: 8, ..D },
            Err("netlist exceeds the tokens per line limit: 12 > 8"),
        ),
        (
            "limit: element lines beat an earlier syntax error",
            s("clock 1\nlatch A phase=x\nlatch B phase=1 setup=1 dq=2\npath A B delay=1\n"),
            ParseLimits { max_elements: 2, ..D },
            Err("netlist exceeds the element lines limit: 3 > 2"),
        ),
        (
            "limit: lines starting with clock are not elements",
            s("clock 1\nclockwork\n"),
            ParseLimits { max_elements: 0, ..D },
            Err("netlist parse error at line 2: unknown keyword `clockwork` (expected clock/latch/ff/path/mindelay)"),
        ),
        (
            "limit: beats a gate-dialect syntax error",
            format!("clock 1\ngate g\nwire g g\n# {}\n", "w".repeat(40)),
            ParseLimits { max_line_bytes: 32, ..D },
            Err("netlist exceeds the line bytes limit: 42 > 32"),
        ),
        (
            "limit: beats a missing clock",
            s("latch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n"),
            ParseLimits { max_elements: 1, ..D },
            Err("netlist exceeds the element lines limit: 2 > 1"),
        ),
        (
            "limit: beats an unresolved mindelay",
            s("clock 1\nmindelay A B 1\n\n\n"),
            ParseLimits { max_lines: 3, ..D },
            Err("netlist exceeds the lines limit: 4 > 3"),
        ),
    ]
}

#[test]
fn golden_inputs_parse_as_pinned() {
    let cases = golden();
    assert!(cases.len() >= 40, "{} cases", cases.len());
    for (case, src, limits, expected) in cases {
        let got = netlist::parse_auto(&src, &limits);
        match expected {
            Expect::Err(message) => {
                assert_eq!(
                    got.map(|c| netlist::write(&c)).map_err(|e| e.to_string()),
                    Err(message.to_string()),
                    "{case}"
                );
            }
            Expect::Ok(text) => {
                let c = got.unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_eq!(netlist::write(&c), text, "{case}");
            }
        }
    }
}

/// A circuit with non-ASCII names, holds and explicit short-path delays.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    let sync = (
        0usize..3,
        proptest::sample::select(vec!["S", "Ä", "名", "x_y", "Ω."]),
        0u32..8,
        0u32..8,
        proptest::bool::weighted(0.3),
    );
    let edge = (
        0usize..6,
        0usize..6,
        0u32..400,
        proptest::bool::weighted(0.5),
    );
    (
        proptest::collection::vec(sync, 1..=6),
        proptest::collection::vec(edge, 0..=10),
    )
        .prop_map(|(syncs, edges)| {
            let mut b = CircuitBuilder::new(3);
            let ids: Vec<_> = syncs
                .iter()
                .enumerate()
                .map(|(i, &(phase, stem, setup, extra, ff))| {
                    let name = format!("{stem}{i}");
                    let phase = PhaseId::new(phase);
                    let (setup, dq) = (f64::from(setup) / 4.0, f64::from(setup + extra) / 4.0);
                    let sync = if ff {
                        Synchronizer::flip_flop(name, phase, setup, dq)
                    } else {
                        Synchronizer::latch(name, phase, setup, dq)
                    };
                    b.add_sync(sync.with_hold(f64::from(extra) / 8.0))
                })
                .collect();
            for &(f, t, delay, with_min) in &edges {
                let (f, t) = (ids[f % ids.len()], ids[t % ids.len()]);
                let max = f64::from(delay) / 16.0;
                if with_min {
                    b.connect_min_max(f, t, max / 3.0, max);
                } else {
                    b.connect(f, t, max);
                }
            }
            b.build().expect("valid by construction")
        })
}

/// Re-spaces every token gap of `text`, switches its line endings and
/// adds comments and blank lines, all under `seed`.
fn mutate(text: &str, seed: u64) -> String {
    const SEPARATORS: [&str; 8] = [" ", "\t", "\x0b", "\x0c", "\u{a0}", "\u{2003}", "  ", " \t"];
    const COMMENTS: [&str; 5] = ["#", "# note", "#x=1 y", "# ✓ Δ=2", "##"];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let eol = |rng: &mut StdRng| if rng.gen_bool(0.5) { "\r\n" } else { "\n" };
    for line in text.lines() {
        if rng.gen_bool(0.2) {
            let comment = COMMENTS[rng.gen_range(0..COMMENTS.len())];
            out.push_str(comment);
            out.push_str(eol(&mut rng));
        }
        if rng.gen_bool(0.1) {
            out.push_str(eol(&mut rng));
        }
        if rng.gen_bool(0.3) {
            out.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        }
        for (i, token) in line.split(' ').enumerate() {
            if i > 0 {
                out.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
            }
            out.push_str(token);
        }
        if rng.gen_bool(0.3) {
            out.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        }
        if rng.gen_bool(0.3) {
            out.push_str(COMMENTS[rng.gen_range(0..COMMENTS.len())]);
        }
        out.push_str(eol(&mut rng));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn respaced_and_commented_netlists_parse_to_the_same_circuit(
        c in circuit_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let text = mutate(&netlist::write(&c), seed);
        let parsed = netlist::parse_auto(&text, &ParseLimits::default());
        prop_assert_eq!(parsed.as_ref(), Ok(&c), "{:?}", text);
    }
}
