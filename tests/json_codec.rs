//! The vendored JSON codec, tested where tier-1 runs (`vendor/` is outside
//! the workspace). `serde_json::from_str` parses straight into a
//! `serde::Content` tree and `to_string`/`to_string_pretty` print straight
//! from one; the older route through a `serde_json::Value` tree (`to_value`,
//! `Value`'s `Display`) is the reference they are held to, byte for byte.
//! Journals, reports, `plan_digest`, config digests and cache keyspace names
//! all hash or compare these bytes.

use std::path::Path;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::TestRng;
use serde::{Content, DeError, Deserialize, Serialize};
use serde_json::{from_str, to_string, to_string_pretty, to_value, Value};

/// A `Content` tree as its own (de)serializable type, so the public API can
/// be driven with arbitrary trees.
#[derive(Debug, Clone, PartialEq)]
struct Tree(Content);

impl Serialize for Tree {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Tree {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(Self(content.clone()))
    }
}

/// The two printers under test against the two reference printers.
fn assert_prints_like_value<T: Serialize>(x: &T, what: &str) {
    let reference = to_value(x);
    assert_eq!(to_string(x).unwrap(), reference.to_string(), "{what}");
    assert_eq!(
        to_string_pretty(x).unwrap(),
        format!("{reference:#}"),
        "{what}"
    );
}

// ---- random trees ----------------------------------------------------------

/// Strings that lean on what a JSON printer and parser must get right:
/// quotes, backslashes, every control character, multi-byte UTF-8 (two,
/// three and four bytes, U+2028) and a plain-ASCII majority.
fn any_string(rng: &mut TestRng) -> String {
    const ODD: [char; 12] = [
        '"', '\\', '/', '\u{7f}', 'é', 'ß', '€', '\u{2028}', '😀', '𝄞', '\u{fffd}', ' ',
    ];
    let len = rng.next_u64() % 12;
    (0..len)
        .map(|_| match rng.next_u64() % 4 {
            0 => ODD[(rng.next_u64() % 12) as usize],
            1 => char::from((rng.next_u64() % 0x20) as u8),
            _ => char::from(b'a' + (rng.next_u64() % 26) as u8),
        })
        .collect()
}

/// Random `Content`. `canonical` keeps to trees the printer's output parses
/// back to exactly: finite floats, `I64` only below zero (the parser reads
/// `5` as `U64`), no key twice in one map. Without it, every tree a
/// `Serialize` impl could hand the printer is fair game.
struct AnyContent {
    canonical: bool,
}

impl AnyContent {
    fn tree(&self, rng: &mut TestRng, depth: u32) -> Content {
        let leaf_only = depth == 0;
        match rng.next_u64() % if leaf_only { 6 } else { 9 } {
            0 => Content::Null,
            1 => Content::Bool(rng.next_u64().is_multiple_of(2)),
            2 => Content::U64(rng.next_u64() >> (rng.next_u64() % 64)),
            3 => {
                let n = (rng.next_u64() >> (rng.next_u64() % 64)) as i64;
                Content::I64(if self.canonical {
                    -1 - (n & i64::MAX)
                } else {
                    n
                })
            }
            4 => {
                let f = f64::from_bits(rng.next_u64());
                let small = (rng.next_u64() % 2000) as f64 / 8.0 - 100.0;
                match rng.next_u64() % 3 {
                    0 if f.is_finite() || !self.canonical => Content::F64(f),
                    _ => Content::F64(small),
                }
            }
            5 => Content::Str(any_string(rng)),
            6 | 7 => {
                let len = rng.next_u64() % 5;
                Content::Seq((0..len).map(|_| self.tree(rng, depth - 1)).collect())
            }
            _ => {
                let len = rng.next_u64() % 5;
                let mut entries: Vec<(String, Content)> = Vec::new();
                for _ in 0..len {
                    // A small key alphabet, so keys repeat often.
                    let key = match rng.next_u64() % 3 {
                        0 => any_string(rng),
                        _ => ["a", "b", "key"][(rng.next_u64() % 3) as usize].to_owned(),
                    };
                    if self.canonical && entries.iter().any(|(k, _)| *k == key) {
                        continue;
                    }
                    entries.push((key, self.tree(rng, depth - 1)));
                }
                Content::Map(entries)
            }
        }
    }
}

impl Strategy for AnyContent {
    type Value = Content;
    fn sample(&self, rng: &mut TestRng) -> Content {
        self.tree(rng, 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The differential law: whatever tree a `Serialize` impl produces, the
    /// direct printers write what the `Value` tree's printers write.
    #[test]
    fn direct_printers_match_the_value_tree_printers(c in AnyContent { canonical: false }) {
        assert_prints_like_value(&Tree(c), "random tree");
    }

    /// The round-trip law, on both printers' output.
    #[test]
    fn printed_trees_parse_back_to_themselves(c in AnyContent { canonical: true }) {
        let x = Tree(c);
        let compact = to_string(&x).unwrap();
        prop_assert_eq!(&from_str::<Tree>(&compact).unwrap(), &x, "{}", compact);
        let pretty = to_string_pretty(&x).unwrap();
        prop_assert_eq!(&from_str::<Tree>(&pretty).unwrap(), &x, "{}", pretty);
    }
}

// ---- edge cases ------------------------------------------------------------

#[test]
fn numbers_print_and_parse_at_the_edges() {
    let cases: [(Content, &str); 12] = [
        (Content::F64(-0.0), "-0.0"),
        (Content::F64(0.0), "0.0"),
        (Content::F64(1e300), "1e300"),
        (Content::F64(5e-324), "5e-324"),
        (
            Content::F64(2.2250738585072014e-308),
            "2.2250738585072014e-308",
        ),
        (Content::F64(1.263920671243337), "1.263920671243337"),
        (Content::F64(f64::MAX), "1.7976931348623157e308"),
        (Content::U64(u64::MAX), "18446744073709551615"),
        (Content::U64(0), "0"),
        (Content::I64(i64::MIN), "-9223372036854775808"),
        (Content::I64(-1), "-1"),
        (
            Content::Seq(vec![Content::F64(1.0), Content::U64(1)]),
            "[1.0,1]",
        ),
    ];
    for (content, text) in cases {
        let x = Tree(content);
        assert_eq!(to_string(&x).unwrap(), text);
        assert_prints_like_value(&x, text);
        let back: Tree = from_str(text).unwrap();
        assert_eq!(back, x, "{text}");
        // `Content`'s equality is `f64`'s, under which -0.0 == 0.0.
        if let (Content::F64(a), Content::F64(b)) = (&back.0, &x.0) {
            assert_eq!(a.to_bits(), b.to_bits(), "{text}");
        }
    }
    for non_finite in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let x = Tree(Content::Seq(vec![Content::F64(non_finite)]));
        assert_eq!(to_string(&x).unwrap(), "[null]");
        assert_prints_like_value(&x, "non-finite");
    }
    // Integers are read by sign, floats by the presence of `.`/`e`.
    assert_eq!(from_str::<Tree>("-0").unwrap().0, Content::I64(0));
    assert_eq!(from_str::<Tree>("7").unwrap().0, Content::U64(7));
    assert_eq!(from_str::<Tree>("1E2").unwrap().0, Content::F64(100.0));
    assert!(
        from_str::<Tree>("18446744073709551616").is_err(),
        "u64::MAX + 1"
    );
    assert!(
        from_str::<Tree>("-9223372036854775809").is_err(),
        "i64::MIN - 1"
    );
    assert!(from_str::<Tree>("1.2.3").is_err());
    assert!(from_str::<Tree>("-").is_err());
}

#[test]
fn strings_print_and_parse_every_escape() {
    // What the printer escapes, and how.
    let raw = "q\" b\\ n\n r\r t\t b\u{8} f\u{c} nul\u{0} us\u{1f} del\u{7f} /";
    let printed = "\"q\\\" b\\\\ n\\n r\\r t\\t b\\b f\\f nul\\u0000 us\\u001f del\u{7f} /\"";
    let x = Tree(Content::Str(raw.to_owned()));
    assert_eq!(to_string(&x).unwrap(), printed);
    assert_prints_like_value(&x, "escapes");
    assert_eq!(from_str::<Tree>(printed).unwrap(), x);

    // What only the parser meets: `\/`, `\u` in either case, surrogate pairs,
    // multi-byte UTF-8 hard against an escape on both sides.
    let parsed = |text: &str| match from_str::<Tree>(text) {
        Ok(Tree(Content::Str(s))) => s,
        other => panic!("{text}: {other:?}"),
    };
    assert_eq!(parsed(r#""\/""#), "/");
    assert_eq!(parsed(r#""\u00e9\u00E9""#), "éé");
    assert_eq!(parsed(r#""\ud83d\ude00""#), "😀");
    assert_eq!(parsed(r#""\uD834\uDD1E""#), "𝄞");
    assert_eq!(parsed("\"é\\n€\\\"😀\\\\ß\""), "é\n€\"😀\\ß");
    assert_eq!(parsed("\"\u{2028}\""), "\u{2028}");
    // An unpaired low surrogate is replaced, not refused.
    assert_eq!(parsed(r#""\udc00""#), "\u{fffd}");
    for bad in [
        r#""\x""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""open"#,
        r#""open\"#,
    ] {
        assert!(from_str::<Tree>(bad).is_err(), "{bad}");
    }
    // Strings round-trip inside keys too.
    let keyed = Tree(Content::Map(vec![(raw.to_owned(), Content::Null)]));
    assert_prints_like_value(&keyed, "escaped key");
    assert_eq!(
        from_str::<Tree>(&to_string(&keyed).unwrap()).unwrap(),
        keyed
    );
}

#[test]
fn a_repeated_key_keeps_its_first_place_and_its_last_value() {
    let parsed: Tree = from_str(r#"{"a":1,"b":2,"a":3,"c":4,"b":{"b":5,"b":6}}"#).unwrap();
    assert_eq!(
        to_string(&parsed).unwrap(),
        r#"{"a":3,"b":{"b":6},"c":4}"#,
        "the parser resolves repeats"
    );
    let repeated = Tree(Content::Map(vec![
        ("a".to_owned(), Content::U64(1)),
        ("b".to_owned(), Content::U64(2)),
        ("a".to_owned(), Content::U64(3)),
    ]));
    assert_eq!(
        to_string(&repeated).unwrap(),
        r#"{"a":3,"b":2}"#,
        "and so does the printer, as `Value` would"
    );
    assert_prints_like_value(&repeated, "repeated key");
}

#[test]
fn malformed_documents_are_refused() {
    for bad in [
        "",
        " ",
        "nul",
        "tru",
        "[",
        "[1",
        "[1,",
        "[1,]",
        "[,1]",
        "{",
        r#"{"a""#,
        r#"{"a":"#,
        r#"{"a":1,"#,
        r#"{"a":1,}"#,
        "{a:1}",
        "{1:1}",
        "1 2",
        "[] x",
        "\u{feff}[]",
        "'a'",
    ] {
        assert!(from_str::<Tree>(bad).is_err(), "{bad:?} must not parse");
    }
    let spaced: Tree = from_str(" \t\r\n[ 1 , { \"a\" : null } ] \n").unwrap();
    assert_eq!(to_string(&spaced).unwrap(), r#"[1,{"a":null}]"#);
}

// ---- recursion and time bounds -----------------------------------------------

#[test]
fn nesting_is_capped_with_an_ordinary_error() {
    for (open, inner, close) in [("[", "", "]"), (r#"{"k":"#, "null", "}")] {
        let at = |depth: usize| format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
        let at_cap: Tree = from_str(&at(128)).expect("128 levels parse");
        assert_eq!(
            from_str::<Tree>(&to_string(&at_cap).unwrap()).unwrap(),
            at_cap
        );
        assert!(from_str::<Value>(&at(128)).is_ok());
        let err = from_str::<Tree>(&at(129)).expect_err("129 levels do not");
        assert!(err.to_string().contains("128"), "{err}");
    }
    // Mixed nesting counts both kinds.
    let mixed = format!("{}1{}", r#"[{"k":"#.repeat(64), "}]".repeat(64));
    assert!(from_str::<Tree>(&mixed).is_ok());
    let mixed = format!("[{mixed}]");
    assert!(from_str::<Tree>(&mixed).is_err());
    // What used to overflow the stack and abort the process: a journal
    // (which carries no checksum) that is a megabyte of `[`.
    let hostile = "[".repeat(1 << 20);
    assert!(from_str::<Value>(&hostile).is_err());
    let path = std::env::temp_dir().join(format!("dampi-hostile-journal-{}", std::process::id()));
    std::fs::write(&path, &hostile).unwrap();
    let loaded = dampi::core::ExplorationJournal::load(&path);
    let _ = std::fs::remove_file(&path);
    assert!(
        loaded.is_err(),
        "a hostile journal is an error, not an abort"
    );
}

#[test]
fn parsing_is_linear_in_a_long_string() {
    // 4 MB, nearly all of it one string. The parser used to re-validate the
    // whole remaining input for every character: minutes for this document.
    let body = "ab\u{e9}d".repeat(1 << 20);
    let doc = format!(r#"{{"pad":[1,2,3],"text":"{body}","tail":"x\ny"}}"#);
    let start = Instant::now();
    let parsed: Tree = from_str(&doc).unwrap();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "4 MB took {took:?}");
    let Content::Map(entries) = &parsed.0 else {
        panic!("an object");
    };
    assert_eq!(entries[1].1, Content::Str(body));
    assert_eq!(to_string(&parsed).unwrap(), doc);
}

// ---- committed artifacts -----------------------------------------------------

/// Parse `text`, hold both direct printers to the `Value` printers on it and
/// check that what they print parses back to the same value.
fn check_artifact(text: &str, what: &str) -> Value {
    let v: Value = from_str(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_prints_like_value(&v, what);
    for printed in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
        assert_eq!(from_str::<Value>(&printed).unwrap(), v, "{what}");
    }
    v
}

#[test]
fn committed_artifacts_round_trip_to_the_same_bytes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &Path| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{}: {e}", rel.display()))
    };

    let plan = check_artifact(
        &read(Path::new("crates/core/tests/fixtures/prune_plan_v1.json")),
        "prune_plan_v1.json",
    );
    assert_eq!(to_string(&plan["orbits"]).unwrap(), "[[0,2],[1,3]]");

    // The fuzz corpus is this printer's own compact output: every line must
    // also re-print to itself.
    let corpus = read(Path::new("corpus/fuzz_verdicts.jsonl"));
    assert_eq!(corpus.lines().count(), 256);
    for (n, line) in corpus.lines().enumerate() {
        let v = check_artifact(line, &format!("fuzz_verdicts.jsonl:{}", n + 1));
        assert_eq!(to_string(&v).unwrap(), line, "corpus line {}", n + 1);
    }

    let mut answers = 0;
    for entry in std::fs::read_dir(root.join("benchmark/expected")).expect("benchmark/expected") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            check_artifact(
                &std::fs::read_to_string(&path).unwrap(),
                &path.display().to_string(),
            );
            answers += 1;
        }
    }
    assert_eq!(answers, 5, "one pinned answer per benchmark workload");
}
