//! Golden fixtures and property tests for the canonical wire format.
//!
//! The encoding is a **network contract**: a master and a worker built
//! from different checkouts must agree on every byte. The committed
//! fixtures in `tests/fixtures/wire/` pin the bytes of version 2 —
//! any codec change that shifts them is a drift this file catches, and
//! the correct response is to bump [`skipper::wire::VERSION`], not to
//! regenerate quietly. (Regeneration, for a deliberate version bump:
//! `REGEN_WIRE_FIXTURES=1 cargo test --test wire_fixtures`.)
//!
//! Negative fixtures pin the rejection behaviour: malformed documents
//! must fail to decode with exactly the documented error message.

use proptest::prelude::*;
use skipper::receipt::{wire_hash, word_hash};
use skipper::wire::{
    canonical_bytes, decode_document, encode_document, Cursor, Encoder, FromWire, ToWire,
    WireError, WireValue,
};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire")
}

/// The golden corpus: every tag, nesting, and the edge encodings
/// (negative ints, non-finite floats via bit patterns, empty
/// collections, multi-byte UTF-8).
fn golden_values() -> Vec<(&'static str, WireValue)> {
    vec![
        ("unit", WireValue::Unit),
        ("bool_true", WireValue::Bool(true)),
        ("int_negative", WireValue::Int(-42)),
        ("int_extremes", {
            WireValue::List(vec![
                WireValue::Int(i64::MIN),
                WireValue::Int(0),
                WireValue::Int(i64::MAX),
            ])
        }),
        ("float_pi", WireValue::Float(std::f64::consts::PI)),
        ("str_utf8", WireValue::Str("héllo, wörld — ∀x".to_string())),
        ("bytes", WireValue::Bytes(vec![0x00, 0xff, 0x7f, 0x80])),
        ("empty_list", WireValue::List(vec![])),
        (
            "nested",
            WireValue::Tuple(vec![
                WireValue::Str("job".to_string()),
                WireValue::Int(7),
                WireValue::List(vec![
                    WireValue::Tuple(vec![WireValue::Bool(false), WireValue::Unit]),
                    WireValue::Tuple(vec![WireValue::Bool(true), WireValue::Unit]),
                ]),
            ]),
        ),
    ]
}

/// The negative corpus: raw document bytes, each with the exact
/// `Display` string its rejection must carry.
fn negative_fixtures() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let doc = |v: &WireValue| encode_document(v);
    vec![
        (
            "bad_magic",
            {
                let mut b = doc(&WireValue::Unit);
                b[..4].copy_from_slice(b"SKIQ");
                b
            },
            "bad magic bytes 53 4b 49 51 (expected \"SKIP\")",
        ),
        (
            "bad_version",
            {
                let mut b = doc(&WireValue::Unit);
                b[4..6].copy_from_slice(&99u16.to_le_bytes());
                b
            },
            "wire version mismatch: got 99, want 2",
        ),
        (
            "bad_tag",
            {
                let mut b = doc(&WireValue::Unit);
                *b.last_mut().unwrap() = 0x7f;
                b
            },
            "unknown wire tag 0x7f",
        ),
        (
            "truncated_int",
            {
                let mut b = doc(&WireValue::Int(0x0102_0304));
                b.truncate(b.len() - 4);
                b
            },
            "truncated document: need 4 more byte(s), have 4",
        ),
        (
            "overlong_list",
            {
                // A list claiming 1000 elements with none present.
                let mut b = doc(&WireValue::List(vec![]));
                let n = b.len();
                b[n - 4..].copy_from_slice(&1000u32.to_le_bytes());
                b
            },
            "implausible length 1000: exceeds remaining input",
        ),
        (
            "hostile_list_len",
            {
                // A list whose declared count (8) *passes* the
                // plausibility check — 8 bytes do remain — but those
                // bytes hold one truncated int (tag 0x03 + 7 of its 8
                // payload bytes), not 8 elements. The decoder must cap
                // its pre-allocation to the input it actually has and
                // fail cleanly on the first element.
                let mut b = doc(&WireValue::List(vec![]));
                let n = b.len();
                b[n - 4..].copy_from_slice(&8u32.to_le_bytes());
                b.push(0x03); // TAG_INT
                b.extend_from_slice(&[0u8; 7]);
                b
            },
            "truncated document: need 1 more byte(s), have 7",
        ),
        (
            "trailing_garbage",
            {
                let mut b = doc(&WireValue::Bool(true));
                b.push(0xaa);
                b
            },
            "trailing garbage: 1 byte(s) after the document",
        ),
    ]
}

fn regen() -> bool {
    std::env::var_os("REGEN_WIRE_FIXTURES").is_some_and(|v| v == "1")
}

#[test]
fn golden_fixtures_have_not_drifted() {
    let dir = fixture_dir();
    for (name, value) in golden_values() {
        let path = dir.join(format!("{name}.bin"));
        let encoded = encode_document(&value);
        if regen() {
            std::fs::create_dir_all(&dir).expect("create fixture dir");
            std::fs::write(&path, &encoded).expect("write fixture");
            continue;
        }
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
        assert_eq!(
            encoded, committed,
            "`{name}` encodes differently from the committed bytes — \
             this is a wire format change; bump skipper::wire::VERSION \
             (then regenerate with REGEN_WIRE_FIXTURES=1)"
        );
        // And the committed bytes decode back to the very value.
        assert_eq!(decode_document(&committed).expect("golden decodes"), value);
    }
}

#[test]
fn negative_fixtures_are_rejected_with_the_pinned_errors() {
    let dir = fixture_dir();
    for (name, bytes, message) in negative_fixtures() {
        let path = dir.join(format!("{name}.bin"));
        if regen() {
            std::fs::create_dir_all(&dir).expect("create fixture dir");
            std::fs::write(&path, &bytes).expect("write fixture");
        }
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing negative fixture {}: {e}", path.display()));
        assert_eq!(committed, bytes, "`{name}` fixture bytes drifted");
        let err = decode_document(&committed).expect_err("a negative fixture must fail to decode");
        assert_eq!(err.to_string(), message, "`{name}` rejection message");
        assert_eq!(
            typed_decode(&committed).expect_err("typed reads must reject it too"),
            err,
            "`{name}` through the cursor's typed reads"
        );
    }
}

/// Decodes a document the way a dist peer reads a `map-df` payload:
/// the typed `ints()` read first, falling back to `value()` on a shape
/// mismatch.
fn typed_decode(bytes: &[u8]) -> Result<WireValue, WireError> {
    let doc = Cursor::document(bytes)?;
    let mut typed = doc.clone();
    match typed.ints()? {
        Some(xs) => {
            typed.finish()?;
            Ok(xs.to_wire())
        }
        None => doc.into_value(),
    }
}

/// The three identities of the `i64`-list fast path: the streaming
/// encoder writes `encode_document`'s bytes, the typed `ints()` read
/// returns what `decode_document` + `from_wire` return, and the
/// streamed `wire_hash` is the one-shot `word_hash` of
/// `canonical_bytes`.
fn check_int_list(xs: &[i64]) {
    let tree = xs.to_wire();
    let mut streamed = Vec::new();
    let mut e = Encoder::new(&mut streamed);
    e.header();
    e.ints(xs.iter().copied());
    assert_eq!(streamed, encode_document(&tree), "encoder bytes for {xs:?}");

    let mut doc = Cursor::document(&streamed).expect("header");
    let typed = doc.ints().expect("well-formed").expect("an Int list");
    doc.finish().expect("nothing trails");
    let via_tree = <Vec<i64>>::from_wire(&decode_document(&streamed).expect("decodes"));
    assert_eq!(Some(typed), via_tree, "typed read of {xs:?}");

    assert_eq!(
        wire_hash(xs),
        word_hash(&canonical_bytes(&tree)),
        "hash of {xs:?}"
    );
}

#[test]
fn int_slices_hash_as_their_canonical_bytes() {
    for n in [0i64, 1, 63, 64, 65, 4096] {
        let xs: Vec<i64> = (0..n)
            .map(|i| i.wrapping_mul(-7_046_029_254_386_353_131))
            .collect();
        let want = word_hash(&canonical_bytes(&xs.to_wire()));
        assert_eq!(wire_hash(&xs[..]), want, "slice of {n}");
        assert_eq!(wire_hash(&xs), want, "Vec of {n}");
    }
}

/// No two distinct documents share a receipt hash: the fixture files,
/// the golden values' canonical bytes and 10^5 distinct seeded random
/// canonical encodings.
#[test]
fn distinct_documents_hash_apart() {
    use rand::{rngs::StdRng, RngCore, SeedableRng};
    let mut by_hash = std::collections::HashMap::new();
    let mut add = |bytes: Vec<u8>| -> bool {
        match by_hash.entry(word_hash(&bytes)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                assert_eq!(e.get(), &bytes, "hash collision");
                false
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(bytes);
                true
            }
        }
    };
    for (_, value) in golden_values() {
        add(canonical_bytes(&value));
    }
    for entry in std::fs::read_dir(fixture_dir()).expect("fixture dir") {
        add(std::fs::read(entry.expect("fixture entry").path()).expect("fixture"));
    }
    let mut rng = StdRng::seed_from_u64(31);
    let mut distinct = 0;
    while distinct < 100_000 {
        let words: Vec<u64> = (0..1 + rng.next_u64() % 48)
            .map(|_| rng.next_u64())
            .collect();
        distinct += usize::from(add(canonical_bytes(&arb_value(&words))));
    }
}

#[test]
fn int_list_fast_path_edge_cases() {
    check_int_list(&[]);
    check_int_list(&[i64::MIN]);
    check_int_list(&[i64::MAX]);
    check_int_list(&[i64::MIN, -1, 0, 1, i64::MAX]);
}

#[test]
fn typed_reads_leave_other_shapes_to_value() {
    for (_, value) in golden_values() {
        let bytes = encode_document(&value);
        assert_eq!(typed_decode(&bytes), Ok(value));
    }
}

fn next(words: &[u64], pos: &mut usize) -> u64 {
    let w = words.get(*pos).copied().unwrap_or(7);
    *pos += 1;
    w
}

/// Derives one `WireValue` from a stream of random words. The proptest
/// shim has no recursive/`prop_map` strategies, so the structure is
/// computed in plain code from drawn integers: every tag is reachable,
/// nesting is bounded by `depth`, floats stay finite (and never `-0.0`)
/// so value equality is structural.
fn build_value(words: &[u64], pos: &mut usize, depth: usize) -> WireValue {
    let kinds = if depth == 0 { 6 } else { 8 };
    match next(words, pos) % kinds {
        0 => WireValue::Unit,
        1 => WireValue::Bool(next(words, pos) % 2 == 1),
        2 => WireValue::Int(next(words, pos) as i64),
        3 => WireValue::Float(((next(words, pos) % 2_000_001) as f64) - 1_000_000.0),
        4 => {
            let choices = ["", "a", "héllo", "wörld — ∀x", "skip"];
            WireValue::Str(choices[next(words, pos) as usize % choices.len()].to_string())
        }
        5 => {
            let n = (next(words, pos) % 9) as usize;
            WireValue::Bytes((0..n).map(|_| next(words, pos) as u8).collect())
        }
        6 => {
            let n = (next(words, pos) % 5) as usize;
            WireValue::List((0..n).map(|_| build_value(words, pos, depth - 1)).collect())
        }
        _ => {
            let n = (next(words, pos) % 5) as usize;
            WireValue::Tuple((0..n).map(|_| build_value(words, pos, depth - 1)).collect())
        }
    }
}

fn arb_value(words: &[u64]) -> WireValue {
    let mut pos = 0;
    build_value(words, &mut pos, 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The `i64`-list fast path agrees with the tree path on seeded
    /// random lists (empty included), drawn over the full `i64` range.
    #[test]
    fn int_list_fast_path_matches_the_tree_path(
        words in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let xs: Vec<i64> = words.iter().map(|&w| w as i64).collect();
        check_int_list(&xs);
    }

    /// Round trip: decode(encode(v)) == v for every value shape.
    #[test]
    fn documents_round_trip(words in prop::collection::vec(0u64..u64::MAX, 1..96)) {
        let v = arb_value(&words);
        let bytes = encode_document(&v);
        prop_assert_eq!(decode_document(&bytes).expect("round trip decodes"), v);
    }

    /// Equal canonical bytes ⇔ equal values — the injectivity the
    /// receipt hashes rely on (and determinism: same value, same bytes).
    #[test]
    fn canonical_bytes_separate_distinct_values(
        a_words in prop::collection::vec(0u64..u64::MAX, 1..48),
        b_words in prop::collection::vec(0u64..u64::MAX, 1..48),
    ) {
        let (a, b) = (arb_value(&a_words), arb_value(&b_words));
        prop_assert_eq!(canonical_bytes(&a) == canonical_bytes(&b), a == b);
        prop_assert_eq!(canonical_bytes(&a), canonical_bytes(&a.clone()));
    }

    /// Truncating any strict prefix never decodes successfully — a cut
    /// pipe cannot be mistaken for a complete document.
    #[test]
    fn strict_prefixes_never_decode(
        words in prop::collection::vec(0u64..u64::MAX, 1..64),
        cut in 0usize..4096,
    ) {
        let bytes = encode_document(&arb_value(&words));
        let cut = cut % bytes.len();
        prop_assert!(decode_document(&bytes[..cut]).is_err());
    }
}
