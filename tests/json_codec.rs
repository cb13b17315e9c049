//! The vendored JSON codec, tested where tier-1 runs (`vendor/` is outside
//! the workspace). `serde_json::from_str` reads text straight into the
//! target type through one parser, and `to_string`/`to_string_pretty` print
//! straight from it through one printer (`Value` and this file's `Tree` are
//! types like any other both ways). `Value`'s `Display` is an independent
//! printer, the reference the printer is held to, byte for byte; `to_value`
//! is the printer's text parsed. The printer relies on a contract it does
//! not check (`serde::Serializer`'s), so this file checks it on what the
//! workspace really writes. Journals, reports, `plan_digest`, config digests
//! and cache keyspace names all hash or compare these bytes.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use dampi::core::shard::protocol::SubtreeResult;
use proptest::prelude::*;
use proptest::TestRng;
use serde::{DeError, Deserialize, Deserializer, Num, Serialize, Serializer, Token};
use serde_json::{from_str, to_string, to_string_pretty, to_value, Value};

/// A JSON-shaped tree: this file's stand-in for whatever a `Serialize` impl
/// writes.
#[derive(Debug, Clone, PartialEq)]
enum Content {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    Map(Vec<(String, Content)>),
}

/// A [`Content`] tree as its own (de)serializable type, so the public API
/// can be driven with arbitrary trees: written through the push API, and
/// read as a `Value` is.
#[derive(Debug, Clone, PartialEq)]
struct Tree(Content);

impl Serialize for Content {
    fn serialize(&self, s: &mut dyn Serializer) {
        match self {
            Content::Null => s.null(),
            Content::Bool(b) => s.bool(*b),
            Content::U64(n) => s.number(Num::U64(*n)),
            Content::I64(n) => s.number(Num::I64(*n)),
            Content::F64(n) => s.number(Num::F64(*n)),
            Content::Str(v) => s.str(v),
            Content::Seq(items) => {
                s.seq();
                items.iter().for_each(|item| item.serialize(s));
                s.end();
            }
            Content::Map(entries) => {
                s.map();
                for (k, v) in entries {
                    s.key(k);
                    v.serialize(s);
                }
                s.end();
            }
        }
    }
}

impl Deserialize for Content {
    fn deserialize(d: &mut dyn Deserializer<'_>) -> Result<Self, DeError> {
        Ok(match d.peek()? {
            Token::Null => d.skip().map(|()| Content::Null)?,
            Token::Bool => Content::Bool(d.bool()?),
            Token::Number => match d.number()? {
                Num::U64(n) => Content::U64(n),
                Num::I64(n) => Content::I64(n),
                Num::F64(n) => Content::F64(n),
            },
            Token::Str => Content::Str(d.str()?.into_owned()),
            Token::Seq => {
                let mut items = Vec::new();
                d.seq()?;
                while d.next_item()? {
                    items.push(Self::deserialize(d)?);
                }
                Content::Seq(items)
            }
            Token::Map => {
                // As `Value` has it: a repeated key keeps its first place
                // and takes the last value.
                let mut entries: Vec<(String, Content)> = Vec::new();
                d.map()?;
                while let Some(key) = d.next_key()? {
                    let value = Self::deserialize(d)?;
                    match entries.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, old)) => *old = value,
                        None => entries.push((key.into_owned(), value)),
                    }
                }
                Content::Map(entries)
            }
        })
    }
}

impl Serialize for Tree {
    fn serialize(&self, s: &mut dyn Serializer) {
        self.0.serialize(s);
    }
}

impl Deserialize for Tree {
    fn deserialize(d: &mut dyn Deserializer<'_>) -> Result<Self, DeError> {
        Content::deserialize(d).map(Self)
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

/// Random `Content`, never a key twice in one map (`serde::Serializer`'s
/// contract). `canonical` keeps to trees the printer's output parses back
/// to exactly: finite floats, `I64` only below zero (the parser reads `5`
/// as `U64`). Without it, every tree a `Serialize` impl may write is fair
/// game.
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
                    if entries.iter().any(|(k, _)| *k == key) {
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

/// A printed random tree with a few bytes overwritten by JSON's own
/// punctuation, or cut short: mostly malformed, sometimes not.
struct Damaged;

impl Strategy for Damaged {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        const BYTES: &[u8] = b"[]{},:\"\\ 0-.e1nu";
        let tree = AnyContent { canonical: false }.sample(rng);
        let mut doc = to_string(&Tree(tree)).unwrap().into_bytes();
        for _ in 0..rng.next_u64() % 3 {
            if doc.is_empty() {
                break;
            }
            let at = (rng.next_u64() % doc.len() as u64) as usize;
            if rng.next_u64().is_multiple_of(4) {
                doc.truncate(at);
            } else if doc[at].is_ascii() {
                doc[at] = BYTES[(rng.next_u64() % BYTES.len() as u64) as usize];
            }
        }
        // A cut may split a character; what is left of it is replaced.
        String::from_utf8_lossy(&doc).into_owned()
    }
}

/// A value read by skipping it.
struct Skipped;

impl Deserialize for Skipped {
    fn deserialize(d: &mut dyn Deserializer<'_>) -> Result<Self, DeError> {
        d.skip().map(|()| Self)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Skipping a value accepts exactly the documents reading it does.
    #[test]
    fn skipping_accepts_what_reading_accepts(doc in Damaged) {
        prop_assert_eq!(
            from_str::<Skipped>(&doc).is_ok(),
            from_str::<Value>(&doc).is_ok(),
            "{}",
            doc
        );
    }

    /// The differential law: whatever tree a `Serialize` impl writes, the
    /// printer writes what `Value`'s printer writes for it.
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
    // The grammar's corners that are numbers (its refusals are with the
    // other malformed documents).
    for (text, n) in [
        ("0", Content::U64(0)),
        ("10", Content::U64(10)),
        ("-0.0", Content::F64(-0.0)),
        ("0.5", Content::F64(0.5)),
        ("0e0", Content::F64(0.0)),
        ("1e+2", Content::F64(100.0)),
        ("-12.5E-1", Content::F64(-1.25)),
    ] {
        assert_eq!(from_str::<Tree>(text).unwrap().0, n, "{text}");
    }
    assert!(from_str::<Tree>("1.2.3").is_err());
    assert!(from_str::<Tree>("-").is_err());
}

#[test]
fn a_value_equals_a_number_only_when_it_holds_it() {
    // `to_value` of a non-finite float is `null`, as it prints.
    assert_eq!(to_value(&f64::NAN), Value::Null);
    assert_ne!(Value::Null, f64::NAN);
    assert_ne!(Value::Null, f64::INFINITY);
    assert_eq!(from_str::<Value>("-1.5").unwrap(), -1.5);
    assert_eq!(from_str::<Value>("7").unwrap(), 7u32);
    assert_ne!(from_str::<Value>("7").unwrap(), 8u32);
    assert_eq!(from_str::<Value>("true").unwrap(), true);
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
        // A sign is not a hex digit, and a high surrogate pairs only with a
        // low one.
        r#""\u+041""#,
        r#""\ud83d\ud83d""#,
        r#""\ud83d\u0041""#,
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
        // Numbers by the JSON grammar: no leading zero, a digit on both
        // sides of the point.
        "01",
        "-01",
        "00",
        "[01]",
        r#"{"a":00}"#,
        "1.",
        "-.5",
        ".5",
        "1.e5",
        "1e",
        "1e+",
        "+1",
    ] {
        assert!(from_str::<Tree>(bad).is_err(), "{bad:?} must not parse");
    }
    let spaced: Tree = from_str(" \t\r\n[ 1 , { \"a\" : null } ] \n").unwrap();
    assert_eq!(to_string(&spaced).unwrap(), r#"[1,{"a":null}]"#);
}

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Rules {
    n: u64,
    f: f64,
    maybe: Option<u32>,
    #[serde(default)]
    listed: Vec<i64>,
    #[serde(skip)]
    local: u8,
    kind: Kind,
}

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
enum Kind {
    #[default]
    Unit,
    New(u64),
    Pair(u8, String),
    Named {
        x: i32,
    },
}

#[test]
fn typed_reads_keep_the_rules_of_the_tree() {
    let rules = |doc: &str| from_str::<Rules>(doc);
    let read = |doc: &str| rules(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
    // An integer token fills an `f64`; a missing `Option` is `None`, a
    // missing `#[serde(default)]` field its default, a skipped field is
    // never read; unknown keys are skipped, whatever they hold.
    let plain = read(r#"{"n":1,"f":2,"kind":"Unit","local":9,"zz":{"a":[1,{"b":null}]}}"#);
    assert_eq!(
        plain,
        Rules {
            n: 1,
            f: 2.0,
            ..Rules::default()
        }
    );
    let zero = read(r#"{"n":0,"f":-0,"kind":"Unit"}"#);
    assert_eq!(zero.f.to_bits(), 0.0f64.to_bits(), "`-0` is an integer");
    assert_eq!(read(r#"{"n":0,"f":-1,"kind":"Unit"}"#).f, -1.0);
    // A repeated key takes its last value, and only the last one has to fit.
    let repeated = read(r#"{"n":"x","n":5,"f":[],"f":0.5,"kind":{"New":true},"kind":"Unit"}"#);
    assert_eq!((repeated.n, repeated.f), (5, 0.5));
    // A whole round trip, with every field set.
    let full = Rules {
        n: u64::MAX,
        f: -1.5e-300,
        maybe: Some(7),
        listed: vec![i64::MIN, 0, 3],
        local: 0,
        kind: Kind::Pair(255, "p\"q".to_owned()),
    };
    assert_eq!(read(&to_string(&full).unwrap()), full);

    let kind = |doc: &str| from_str::<Kind>(doc);
    for (doc, want) in [
        (r#""Unit""#, Kind::Unit),
        (r#"{"New":3}"#, Kind::New(3)),
        (r#"{"New":1,"New":2}"#, Kind::New(2)),
        (r#"{"New":"x","New":2}"#, Kind::New(2)),
        (r#"{"Pair":[1,"s"]}"#, Kind::Pair(1, "s".to_owned())),
        (r#"{"Pair":[1,"s",true]}"#, Kind::Pair(1, "s".to_owned())),
        (r#"{"Named":{"x":-4,"y":0}}"#, Kind::Named { x: -4 }),
    ] {
        assert_eq!(kind(doc).unwrap_or_else(|e| panic!("{doc}: {e}")), want);
    }
    for doc in [
        r#""Nope""#,
        r#"{"Unit":null}"#,
        r#"{"Nope":1}"#,
        "{}",
        r#"{"New":1,"Unit":null}"#,
        r#"{"New":1,"Named":{"x":1},"New":1}"#,
        r#"{"New":1,"New":"x"}"#,
        r#"{"Pair":[1]}"#,
        r#"{"Named":{}}"#,
        "7",
        "[]",
        "null",
    ] {
        assert!(kind(doc).is_err(), "{doc} must not read as a Kind");
    }
    for doc in [
        // Missing, ill-typed or out of range.
        r#"{"f":1,"kind":"Unit"}"#,
        r#"{"n":-1,"f":1,"kind":"Unit"}"#,
        r#"{"n":1.0,"f":1,"kind":"Unit"}"#,
        r#"{"n":1,"f":"1","kind":"Unit"}"#,
        r#"{"n":1,"f":1,"kind":"Unit","maybe":-1}"#,
        r#"{"n":1,"f":1,"kind":"Unit","maybe":4294967296}"#,
        r#"{"n":1,"f":1,"kind":"Unit","listed":[1,"2"]}"#,
        r#"{"n":5,"n":"x","f":1,"kind":"Unit"}"#,
        r#"[1]"#,
        // A number no integer type holds is refused, even unread.
        r#"{"n":18446744073709551616,"f":1,"kind":"Unit"}"#,
        r#"{"n":1,"f":1,"kind":"Unit","zz":18446744073709551616}"#,
        r#"{"n":1,"f":1,"kind":"Unit","zz":[-9223372036854775809]}"#,
        // Malformed after the last field, or inside a skipped one.
        r#"{"n":1,"f":1,"kind":"Unit","zz":[1,]}"#,
        r#"{"n":1,"f":1,"kind":"Unit","zz":"\x"}"#,
        r#"{"n":1,"f":1,"kind":"Unit",}"#,
        r#"{"n":1,"f":1,"kind":"Unit"} x"#,
    ] {
        assert!(rules(doc).is_err(), "{doc} must not read as Rules");
    }
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
    // What used to overflow the stack and abort the process: a megabyte of
    // `[`, here as a journal record inside an intact frame — its checksum
    // holds, so only the parser's cap stands between it and the stack.
    let hostile = "[".repeat(1 << 20);
    assert!(from_str::<Value>(&hostile).is_err());
    // The same nest read into a type: skipped inside an unknown field, or
    // met where a known field's value should be, at the top and one struct
    // down. Skipping counts levels as reading does.
    for doc in [
        format!(r#"{{"unknown":{hostile}"#),
        format!(r#"{{"epochs":{hostile}"#),
        format!(r#"{{"outcome":{{"rank_errors":{hostile}"#),
        format!(r#"{{"divergences":{hostile}"#),
    ] {
        let err = from_str::<SubtreeResult>(&doc).expect_err("refused");
        assert!(err.to_string().contains("128"), "{err}");
    }
    let balanced = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let err = from_str::<SubtreeResult>(&format!(r#"{{"unknown":{}}}"#, balanced(128)))
        .expect_err("129 levels with the object around them");
    assert!(err.to_string().contains("128"), "{err}");
    let err = from_str::<SubtreeResult>(&format!(r#"{{"unknown":{}}}"#, balanced(127)))
        .expect_err("128 levels parse, but the fields are missing");
    assert!(err.to_string().contains("missing field"), "{err}");
    let path = std::env::temp_dir().join(format!("dampi-hostile-journal-{}", std::process::id()));
    let frame = dampi::core::frame::head_frame(0, hostile.as_bytes()).unwrap();
    std::fs::write(&path, frame).unwrap();
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

// ---- what campaigns write ----------------------------------------------------

/// A replay-cache entry, field for field (the cache's own type is private).
#[derive(Serialize, Deserialize)]
struct CacheEntry {
    version: u32,
    program: u64,
    plan: u64,
    schedule: u64,
    result: SubtreeResult,
}

/// A journal record, field for field: a cache entry and the `source` of its
/// result, a unit variant's name.
#[derive(Serialize, Deserialize)]
struct JournalRecord {
    version: u32,
    program: u64,
    plan: u64,
    schedule: u64,
    source: String,
    result: SubtreeResult,
}

/// The JSON after the schedule digest in every frame of the log at `path`.
fn logged_json(path: &Path) -> Vec<String> {
    use dampi::core::frame;
    let log = std::fs::File::open(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut frames = Vec::new();
    frame::scan_log(&log, |f| frames.push(f)).unwrap();
    frames
        .iter()
        .map(|f| {
            let payload = frame::read_frame_at(&log, f.offset, f.len)
                .unwrap()
                .unwrap();
            String::from_utf8(payload[frame::LOG_HEAD_LEN..].to_vec()).unwrap()
        })
        .collect()
}

/// Decoded into its type and printed again, `json` is the same bytes.
fn reprints<T: Serialize + Deserialize>(json: &str, what: &str) {
    let typed: T = from_str(json).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(to_string(&typed).unwrap(), json, "{what}");
}

#[test]
fn cache_entries_and_journal_records_reprint_to_their_bytes() {
    use dampi::core::cache::plan_digest;
    use dampi::core::{DampiConfig, DampiVerifier, ReplayCache};
    use dampi::mpi::{MatchPolicy, MpiProgram, SimConfig};
    use dampi::workloads::matmul::{Matmul, MatmulParams};
    use dampi::workloads::patterns;
    use std::sync::Arc;

    let matmul_ack = Matmul::new(MatmulParams {
        rounds_per_slave: 1,
        ack_results: true,
        ..MatmulParams::default()
    });
    let campaigns: [(&str, &dyn MpiProgram, usize); 2] = [
        ("racers", &patterns::symmetric_racers(), 4),
        ("matmul_ack", &matmul_ack, 7),
    ];
    for (name, program, np) in campaigns {
        let dir = std::env::temp_dir().join(format!("dampi-reprint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal");
        let cache = ReplayCache::open(&dir.join("cache"), 1, plan_digest(None), false).unwrap();
        let sim = SimConfig::new(np).with_policy(MatchPolicy::LowestRank);
        let report =
            DampiVerifier::with_config(sim, DampiConfig::default().with_journal(journal.clone()))
                .with_cache(Arc::new(cache))
                .verify(program);
        let keyspace = std::fs::read_dir(dir.join("cache"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        let entries = logged_json(&keyspace.path().join("entries"));
        let records = logged_json(&journal);
        assert_eq!(entries.len() as u64, report.interleavings, "{name}");
        assert_eq!(records.len() as u64, report.interleavings, "{name}");
        for (n, json) in entries.iter().enumerate() {
            reprints::<CacheEntry>(json, &format!("{name} cache entry {n}"));
        }
        for (n, json) in records.iter().enumerate() {
            reprints::<JournalRecord>(json, &format!("{name} journal record {n}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- the contract the printer relies on ----------------------------------------

/// A `Serializer` that prints nothing and holds its caller to the contract
/// `serde::Serializer` states and the printer does not check: a `key` only
/// inside a map, exactly one value after it, never the same key twice in one
/// map, every `seq`/`map` closed by `end` — and one value in all.
struct Checked<'a> {
    what: &'a str,
    /// Every sequence and map open, the innermost last.
    open: Vec<Open>,
    /// Values written at the top level.
    values: usize,
}

enum Open {
    Seq,
    /// A map: its keys so far, and whether the last one waits for its value.
    Map {
        keys: BTreeSet<String>,
        due: bool,
    },
}

impl Checked<'_> {
    /// Walk `value` through the checker; a breach panics, naming `what`.
    fn walk<T: Serialize + ?Sized>(value: &T, what: &str) {
        let mut c = Checked {
            what,
            open: Vec::new(),
            values: 0,
        };
        value.serialize(&mut c);
        assert!(c.open.is_empty(), "{what}: {} left open", c.open.len());
        assert_eq!(c.values, 1, "{what}: one value in all");
    }

    fn value(&mut self) {
        match self.open.last_mut() {
            None => self.values += 1,
            Some(Open::Seq) => {}
            Some(Open::Map { due, .. }) => {
                assert!(
                    std::mem::take(due),
                    "{}: a map value with no key",
                    self.what
                )
            }
        }
    }
}

impl Serializer for Checked<'_> {
    fn null(&mut self) {
        self.value();
    }

    fn bool(&mut self, _: bool) {
        self.value();
    }

    fn number(&mut self, _: Num) {
        self.value();
    }

    fn str(&mut self, _: &str) {
        self.value();
    }

    fn seq(&mut self) {
        self.value();
        self.open.push(Open::Seq);
    }

    fn map(&mut self) {
        self.value();
        self.open.push(Open::Map {
            keys: BTreeSet::new(),
            due: false,
        });
    }

    fn key(&mut self, k: &str) {
        let what = self.what;
        let Some(Open::Map { keys, due }) = self.open.last_mut() else {
            panic!("{what}: key `{k}` outside a map");
        };
        assert!(!*due, "{what}: key `{k}` where a value was due");
        assert!(
            keys.insert(k.to_owned()),
            "{what}: key `{k}` twice in one map"
        );
        *due = true;
    }

    fn end(&mut self) {
        match self.open.pop() {
            None => panic!("{}: `end` with nothing open", self.what),
            Some(Open::Map { due: true, .. }) => panic!("{}: a key with no value", self.what),
            Some(_) => {}
        }
    }
}

/// Something written by hand.
type Writer = fn(&mut dyn Serializer);

/// A writer by hand, to show the checker refuses what breaks the contract.
struct Writes(Writer);

impl Serialize for Writes {
    fn serialize(&self, s: &mut dyn Serializer) {
        (self.0)(s);
    }
}

#[test]
fn the_contract_checker_refuses_every_breach() {
    Checked::walk(&Tree(Content::Map(Vec::new())), "an empty map");
    let breaches: [(&str, Writer); 8] = [
        ("a repeated key", |s| {
            s.map();
            s.key("a");
            s.null();
            s.key("a");
            s.null();
            s.end();
        }),
        ("a key in a sequence", |s| {
            s.seq();
            s.key("a");
            s.null();
            s.end();
        }),
        ("a key at the top", |s| {
            s.key("a");
            s.null();
        }),
        ("two values after a key", |s| {
            s.map();
            s.key("a");
            s.null();
            s.null();
            s.end();
        }),
        ("a key with no value", |s| {
            s.map();
            s.key("a");
            s.end();
        }),
        ("a map left open", |s| {
            s.map();
        }),
        ("an `end` too many", |s| {
            s.seq();
            s.end();
            s.end();
        }),
        ("two values at the top", |s| {
            s.null();
            s.null();
        }),
    ];
    for (what, write) in breaches {
        let caught = std::panic::catch_unwind(|| Checked::walk(&Writes(write), what));
        assert!(caught.is_err(), "{what} passed the checker");
    }
}

#[test]
fn what_the_workspace_writes_keeps_the_serializer_contract() {
    use dampi::analysis::analyze_program;
    use dampi::core::cache::plan_digest;
    use dampi::core::metrics::{CampaignEvent, TraceRecord};
    use dampi::core::{CampaignMetrics, CampaignTrace, DampiConfig, DampiVerifier, ReplayCache};
    use dampi::core::{METRICS_SCHEMA_VERSION, TRACE_SCHEMA_VERSION};
    use dampi::fuzz::Verdict;
    use dampi::mpi::{MatchPolicy, SimConfig};
    use dampi::workloads::patterns;
    use std::sync::Arc;

    // A campaign that finds fig3's bug, with a cache, a journal, metrics
    // and a trace.
    let dir = std::env::temp_dir().join(format!("dampi-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal");
    let cache = ReplayCache::open(&dir.join("cache"), 1, plan_digest(None), false).unwrap();
    let metrics = CampaignMetrics::new();
    let (trace, traced) = CampaignTrace::to_shared_buffer();
    let sim = |np| SimConfig::new(np).with_policy(MatchPolicy::LowestRank);
    let report =
        DampiVerifier::with_config(sim(3), DampiConfig::default().with_journal(journal.clone()))
            .with_cache(Arc::new(cache))
            .with_metrics(metrics.clone())
            .with_trace(trace)
            .verify(&patterns::fig3());
    assert!(!report.errors.is_empty(), "fig3 finds its bug");
    let keyspace = std::fs::read_dir(dir.join("cache"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap();
    let entries = logged_json(&keyspace.path().join("entries"));
    let records = logged_json(&journal);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!entries.is_empty() && !records.is_empty());

    // `SubtreeResult`, cache entries and journal records (the cache writes
    // these types' bytes: `cache_entries_and_journal_records_reprint_to_their_bytes`).
    for json in &entries {
        let entry: CacheEntry = from_str(json).unwrap();
        Checked::walk(&entry, "cache entry");
        Checked::walk(&entry.result, "SubtreeResult");
    }
    for json in &records {
        Checked::walk(&from_str::<JournalRecord>(json).unwrap(), "journal record");
    }

    // The `--json` report, and what it is built from.
    Checked::walk(&report.to_json(), "VerificationReport");
    for e in &report.errors {
        Checked::walk(&e.error, "MpiError");
        Checked::walk(&e.decisions, "DecisionSet");
    }

    // The analyzer's report and the prune plan it carries.
    let analysis = analyze_program(&DampiVerifier::new(sim(4)), &patterns::symmetric_racers());
    assert!(!analysis.plan.orbits.is_empty(), "racers has orbits");
    Checked::walk(&analysis.to_json(), "AnalysisReport");
    Checked::walk(&analysis.plan, "PrunePlan");

    // Fuzz verdicts, as the corpus holds them.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let corpus = std::fs::read_to_string(root.join("corpus/fuzz_verdicts.jsonl")).unwrap();
    for line in corpus.lines().take(16) {
        Checked::walk(&from_str::<Verdict>(line).unwrap(), "fuzz verdict");
    }

    // Trace records (the campaign's, and a fleet event it had no cause to
    // write) and the `--metrics` snapshot.
    let lines = String::from_utf8(traced.lock().clone()).unwrap();
    assert!(lines.contains("\"CampaignEnd\""), "{lines}");
    for line in lines.lines() {
        Checked::walk(&from_str::<TraceRecord>(line).unwrap(), "trace record");
    }
    let lost = TraceRecord {
        v: TRACE_SCHEMA_VERSION,
        t_us: 7,
        event: CampaignEvent::WorkerLost {
            slot: 0,
            reason: "heartbeat \"timeout\"".to_owned(),
        },
    };
    Checked::walk(&lost, "trace record");
    let snapshot = metrics.snapshot("fig3", 3, "lamport", 1);
    assert_eq!(snapshot["schema"], METRICS_SCHEMA_VERSION);
    assert_eq!(snapshot["finished"], true);
    Checked::walk(&snapshot, "metrics snapshot");
}
