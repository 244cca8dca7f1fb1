//! The wire JSON decoder against its own encoder: every Unicode string,
//! escaped by `json::escape`, decodes back to itself, whatever runs of
//! plain bytes, quotes, backslashes, control characters and astral
//! characters it is made of.

use proptest::prelude::*;
use smo::api::json::escape;
use smo::api::Json;

/// A string piece: a run of printable ASCII, one stop byte (`"`, `\` or a
/// control character), or one arbitrary scalar value.
fn piece() -> impl Strategy<Value = String> {
    (0u32..4, 0u32..0x11_0000, 0usize..24).prop_map(|(kind, code, len)| match kind {
        0 => "abcxyz0189 ~{}:,[]"
            .chars()
            .cycle()
            .skip(code as usize % 18)
            .take(len)
            .collect(),
        1 => [
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', '/',
        ][code as usize % 11]
            .to_string(),
        2 => char::from_u32(0x1_0000 + code % 0x10_0000).map_or_else(String::new, String::from),
        _ => char::from_u32(code).map_or_else(|| "\u{fffd}".to_string(), String::from),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn escaped_strings_decode_to_themselves(
        pieces in proptest::collection::vec(piece(), 0..12),
    ) {
        let s: String = pieces.concat();
        prop_assert_eq!(Json::parse(&escape(&s)), Ok(Json::Str(s.clone())));
        // As an object key and inside an array, too.
        let obj = format!("{{{}:[{}]}}", escape(&s), escape(&s));
        prop_assert_eq!(
            Json::parse(&obj),
            Ok(Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::Str(s)]))]))
        );
    }
}

#[test]
fn runs_ending_at_every_stop_byte_decode() {
    for stop in ['"', '\\', '\n', '\u{0}', '\u{1f}'] {
        for run in ["", "a", "abc", "é", "😀", "ab😀"] {
            let s = format!("{run}{stop}{run}");
            assert_eq!(Json::parse(&escape(&s)), Ok(Json::Str(s.clone())), "{s:?}");
        }
    }
}

#[test]
fn string_errors_keep_their_offsets() {
    let cases = [
        ("\"abc", 4, "unterminated string"),
        ("\"ab\u{1}c\"", 3, "unescaped control character in string"),
        ("\"ab\\x\"", 4, "invalid escape"),
        ("\"ab\\", 4, "invalid escape"),
        ("\"\\ud83d\"", 7, "unpaired high surrogate"),
        ("\"\\ud83d\\u0041\"", 13, "unpaired high surrogate"),
        ("\"\\udc00\"", 7, "invalid \\u escape"),
        ("\"\\u12g4\"", 5, "expected 4 hex digits"),
        ("\"é\\q\"", 4, "invalid escape"),
    ];
    for (src, offset, message) in cases {
        let e = Json::parse(src).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (offset, message), "{src:?}");
    }
}
