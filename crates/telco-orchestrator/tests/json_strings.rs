//! The JSON string parser that every marker, sidecar and manifest goes
//! through: round trips over arbitrary Unicode, the error cases, and a
//! guard that parsing stays linear in the document size.
//!
//! The vendored `serde_json` sits outside the workspace, so these tests
//! are what keeps its string parser covered by `cargo test`.

use proptest::prelude::*;

use telco_devices::population::UeId;
use telco_orchestrator::ShardSidecar;
use telco_signaling::entities::CoreNetwork;
use telco_sim::{RatLedger, UeDayMobility};

fn char_in(lo: u32, hi: u32) -> impl Strategy<Value = char> {
    (lo..hi).prop_map(|c| char::from_u32(c).expect("range holds no surrogates"))
}

/// Characters from every class the parser treats differently: plain
/// ASCII, the two characters that end a run, control characters, and
/// two-, three- and four-byte UTF-8.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        char_in(0x20, 0x7f),
        Just('"'),
        Just('\\'),
        char_in(0, 0x20),
        char_in(0x80, 0x800),
        char_in(0x800, 0xd800),
        char_in(0xe000, 0x1_0000),
        char_in(0x1_0000, 0x11_0000),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
}

/// `c` written as a `\u` escape, as a UTF-16 surrogate pair above the
/// BMP.
fn unicode_escape(c: char) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units).iter().map(|u| format!("\\u{u:04X}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip(s in any_string()) {
        let json = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), s);
    }

    /// Escapes of every kind (short forms, `\u`, surrogate pairs) placed
    /// right next to raw multibyte runs.
    #[test]
    fn escapes_between_multibyte_runs(
        parts in proptest::collection::vec((any_char(), 0u8..3), 0..48),
    ) {
        let mut json = String::from("\"");
        let mut expected = String::new();
        for (c, form) in parts {
            expected.push(c);
            match (c, form) {
                ('/', 0) => json.push_str("\\/"),
                ('\u{8}', 0) => json.push_str("\\b"),
                ('\u{c}', 0) => json.push_str("\\f"),
                ('\n', 0) => json.push_str("\\n"),
                ('"', _) => json.push_str("\\\""),
                ('\\', _) => json.push_str("\\\\"),
                (c, 1) | (c @ '\0'..='\u{1f}', _) => json.push_str(&unicode_escape(c)),
                (c, _) => json.push(c),
            }
        }
        json.push('"');
        prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), expected);
    }
}

fn parse_error(json: &str) -> String {
    serde_json::from_str::<String>(json).expect_err(json).to_string()
}

#[test]
fn unterminated_strings_are_rejected() {
    assert_eq!(parse_error("\"open"), "JSON error: unterminated string at byte 5");
    assert_eq!(parse_error("\"π😀"), "JSON error: unterminated string at byte 7");
    assert_eq!(parse_error("\"ends in \\\""), "JSON error: unterminated string at byte 11");
    assert_eq!(parse_error("\"\\"), "JSON error: invalid escape at byte 2");
}

#[test]
fn bad_escapes_are_rejected() {
    assert_eq!(parse_error("\"a\\x\""), "JSON error: invalid escape at byte 3");
    assert_eq!(parse_error("\"é\\é\""), "JSON error: invalid escape at byte 4");
    assert_eq!(parse_error("\"\\u12G4\""), "JSON error: invalid \\u escape at byte 2");
    assert_eq!(parse_error("\"\\u12"), "JSON error: truncated \\u escape at byte 2");
}

#[test]
fn lone_surrogates_are_rejected() {
    assert_eq!(parse_error("\"\\uD800\""), "JSON error: expected '\\' at byte 7");
    assert_eq!(parse_error("\"\\uD800x\""), "JSON error: expected '\\' at byte 7");
    assert_eq!(parse_error("\"\\uD800\\n\""), "JSON error: expected low surrogate at byte 8");
    assert_eq!(parse_error("\"\\uD800\\u0041\""), "JSON error: invalid low surrogate at byte 12");
    assert_eq!(parse_error("\"\\uDC00\""), "JSON error: invalid \\u escape at byte 6");
}

/// A ~2 MB shard sidecar parses well inside a generous bound. A parser
/// that re-scans the rest of the input for every string character, as
/// the string parser once did, takes minutes on it.
#[test]
fn sidecar_sized_documents_parse_in_linear_time() {
    let mobility: Vec<UeDayMobility> = (0..26_000u32)
        .map(|i| UeDayMobility {
            ue: UeId(i / 4),
            day: i % 4,
            sectors: (i % 37) as u16,
            gyration_km: i as f32 * 0.37,
            hos: (i % 91) as u16,
            hofs: (i % 3) as u16,
            messages: i * 11,
        })
        .collect();
    let sidecar = ShardSidecar {
        entry: 7,
        entry_hash: "0123456789abcdef".repeat(4),
        mobility,
        ledger: RatLedger::default(),
        core: CoreNetwork::new(),
    };
    let json = serde_json::to_string(&sidecar).unwrap();
    assert!(json.len() > 2_000_000, "document is only {} bytes", json.len());

    let start = std::time::Instant::now();
    let parsed: ShardSidecar = serde_json::from_str(&json).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(parsed, sidecar);
    assert!(
        elapsed < std::time::Duration::from_secs(20),
        "parsing {} bytes took {elapsed:?}",
        json.len()
    );
}
