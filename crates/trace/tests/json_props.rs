//! Property tests for the crate's one JSON writer and its parser.
//!
//! - What the writer prints, the parser reads back as the same value:
//!   strings and keys with quotes, backslashes, control characters and
//!   non-ASCII text; arrays and objects nested several levels deep;
//!   integral and fractional numbers of every magnitude.
//! - The parser never panics, whatever text it is handed: arbitrary
//!   bytes (read as text the way a file reader would) and mutated
//!   copies of valid documents are answered with a value or an error.
//! - A raw control character inside a string is refused (RFC 8259),
//!   with the byte offset it sits at.
//!
//! `PROPTEST_CASES=10000 cargo test -q -p hamr-trace --test json_props`
//! is the long run.

use hamr_trace::json::{parse, Json};
use proptest::prelude::*;
use proptest::TestRng;

/// Characters a writer must escape or carry through: the two JSON
/// metacharacters, every control character, and multi-byte text.
const AWKWARD: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é',
    'ß', '€', '中', '\u{2028}', '\u{fffd}', '😀', '𝄞',
];

fn text(rng: &mut TestRng) -> String {
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| match rng.below(3) {
            0 => AWKWARD[rng.below(AWKWARD.len() as u64) as usize],
            1 => char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap(),
            _ => char::arbitrary(rng),
        })
        .collect()
}

fn number(rng: &mut TestRng) -> f64 {
    match rng.below(5) {
        0 => rng.next_u64() as f64,
        1 => rng.below(1 << 20) as f64 - (1 << 19) as f64,
        2 => (rng.below(1 << 30) as f64) / (1 + rng.below(1000)) as f64,
        3 => f64::from_bits(rng.next_u64()),
        _ => (rng.next_u64() as i64) as f64 * 1e-9,
    }
}

/// Any finite-valued JSON tree at most `depth` containers deep.
struct AnyJson {
    depth: u32,
}

impl AnyJson {
    fn tree(&self, rng: &mut TestRng, depth: u32) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => loop {
                let n = number(rng);
                if n.is_finite() {
                    break Json::Num(n);
                }
            },
            3 => Json::Str(text(rng)),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| self.tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::obj((0..rng.below(5)).map(|_| (text(rng), self.tree(rng, depth - 1)))),
        }
    }
}

impl Strategy for AnyJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        self.tree(rng, self.depth)
    }
}

/// Bytes that look like JSON often enough to reach deep into the
/// parser: structural characters, literal prefixes, escapes, digits.
const JSONISH: &[&[u8]] = &[
    b"{",
    b"}",
    b"[",
    b"]",
    b":",
    b",",
    b"\"",
    b"\\",
    b"\\u",
    b"\\ud83d",
    b"null",
    b"tru",
    b"-",
    b"0",
    b"1.5e",
    b"E+",
    b".",
    b" ",
    b"\n",
    b"\xc3\xa9",
    b"\xf0\x9f",
    b"\xff",
];

/// Every byte offset of `doc` (as the writer prints it) that lies
/// between a string's quotes and between two of its characters or
/// escapes.
fn string_insides(doc: &str) -> Vec<usize> {
    let mut at = Vec::new();
    let mut chars = doc.char_indices().peekable();
    let mut inside = false;
    while let Some((_, c)) = chars.next() {
        match (inside, c) {
            (false, '"') => inside = true,
            (false, _) => continue,
            (true, '"') => {
                inside = false;
                continue;
            }
            (true, '\\') => {
                let escape = chars.next().map(|(_, e)| e);
                if escape == Some('u') {
                    chars.nth(3);
                }
            }
            (true, _) => {}
        }
        at.push(chars.peek().map_or(doc.len(), |&(j, _)| j));
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn what_the_writer_prints_parses_back_as_the_same_value(v in AnyJson { depth: 4 }) {
        let text = v.to_string();
        // JSON forbids U+0000..U+001F raw in a string, and so does the
        // parser below: this checks the writer escapes them.
        prop_assert!(text.chars().all(|c| c >= ' '), "raw control character in {}", text);
        let back = parse(&text).map_err(|e| format!("{e} in {text}"))?;
        prop_assert_eq!(&back, &v, "{}", text);
        // Printing is a pure function of the value: keys come out
        // sorted, so a parsed document prints identically.
        prop_assert_eq!(back.to_string(), text);
    }

    /// A raw U+0000..U+001F inside a string — a key or a value, at any
    /// depth, anywhere between its quotes — makes the document an error
    /// that names the character and its byte offset.
    #[test]
    fn a_raw_control_character_inside_a_string_is_rejected(
        v in AnyJson { depth: 3 },
        at in any::<u64>(),
        ctrl in 0u8..0x20,
    ) {
        // At least one string, whatever `v` holds.
        let mut doc = Json::Arr(vec![v, Json::from("s")]).to_string();
        let inside = string_insides(&doc);
        let pos = inside[at as usize % inside.len()];
        doc.insert(pos, ctrl as char);
        let err = parse(&doc).expect_err(&doc);
        let expected = format!("raw control character {ctrl:#04x} in a string at byte {pos}");
        prop_assert_eq!(err, expected);
    }

    #[test]
    fn the_parser_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn the_parser_never_panics_on_json_like_noise(
        picks in prop::collection::vec(0usize..JSONISH.len(), 0..96),
    ) {
        let bytes: Vec<u8> = picks.iter().flat_map(|&i| JSONISH[i].iter().copied()).collect();
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn the_parser_never_panics_on_a_mutated_document(
        v in AnyJson { depth: 3 },
        at in any::<u64>(),
        cut in any::<bool>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = v.to_string().into_bytes();
        let at = at as usize % (bytes.len() + 1);
        if cut {
            bytes.truncate(at);
        } else {
            bytes.insert(at, byte);
        }
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn the_writer_is_compact_sorted_and_prints_non_finite_numbers_as_null() {
    let v = Json::obj([
        (
            "z",
            [Json::from(1u64), Json::Num(-0.5)].into_iter().collect(),
        ),
        ("a", Json::from(None::<u64>)),
        ("m", Json::Num(f64::NAN)),
        ("q", Json::from("say \"hi\"\n")),
    ]);
    let text = v.to_string();
    assert_eq!(
        text,
        r#"{"a":null,"m":null,"q":"say \"hi\"\n","z":[1,-0.5]}"#
    );
    assert_eq!(parse(&text).unwrap().get("q"), v.get("q"));
}

#[test]
fn nesting_past_256_levels_is_an_error_not_a_stack_overflow() {
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(parse(&deep(256)).is_ok());
    assert!(parse(&deep(257)).is_err());
    assert!(parse(&"[{\"a\":".repeat(100_000)).is_err());
}
