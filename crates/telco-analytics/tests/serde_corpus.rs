//! The JSON serializer's byte contract, pinned by literal corpus: every
//! number, string and container shape the workspace's derived types can
//! produce, in compact and pretty mode. The expected strings are the
//! output of the earlier value-tree printer, so the streaming writer is
//! held to the exact bytes every golden and gate hash was recorded with.
//! A proptest adds the round trip: `from_str(to_string(x)) == x`.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, to_string_pretty};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct NewType(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Triple(u8, i64, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Point,
    Circle { r: f64, label: Option<String> },
    Pair(i32, u32),
    Wrap(String),
}

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct AllSkipped {
    #[serde(skip)]
    a: u32,
    #[serde(skip)]
    b: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u64,
    delta: i64,
    name: String,
    weight: f32,
    score: f64,
    #[serde(skip)]
    cache: Vec<u8>,
    note: Option<String>,
    shapes: Vec<Shape>,
    pair: (u8, f64),
    fixed: [u16; 3],
    flag: bool,
}

fn json<T: Serialize + ?Sized>(v: &T) -> String {
    to_string(v).expect("corpus value serializes")
}

fn pretty<T: Serialize + ?Sized>(v: &T) -> String {
    to_string_pretty(v).expect("corpus value serializes")
}

#[test]
fn float_edge_cases() {
    assert_eq!(json(&0.1f32), "0.1");
    assert_eq!(json(&0.1f64), "0.1");
    assert_eq!(json(&(0.1f32 as f64)), "0.10000000149011612");
    assert_eq!(json(&-0.0f64), "-0.0");
    assert_eq!(json(&-0.0f32), "-0.0");
    assert_eq!(json(&0.0f64), "0.0");
    assert_eq!(json(&1.0f64), "1.0");
    assert_eq!(json(&1e21f64), "1e21");
    assert_eq!(json(&1e20f64), "1e20");
    assert_eq!(json(&1e15f64), "1000000000000000.0");
    assert_eq!(json(&1e-7f64), "1e-7");
    assert_eq!(json(&1e-5f64), "1e-5");
    assert_eq!(json(&0.0001f64), "0.0001");
    assert_eq!(json(&-2.5e-3f64), "-0.0025");
    assert_eq!(json(&f64::MAX), "1.7976931348623157e308");
    assert_eq!(json(&f64::MIN_POSITIVE), "2.2250738585072014e-308");
    assert_eq!(json(&f64::from_bits(1)), "5e-324");
    assert_eq!(json(&f32::MAX), "3.4028235e38");
    assert_eq!(json(&f32::from_bits(1)), "1e-45");
    assert_eq!(json(&f32::from_bits(0x3f9d_70a4)), "1.23");
    assert_eq!(json(&f64::NAN), "null");
    assert_eq!(json(&f64::INFINITY), "null");
    assert_eq!(json(&f64::NEG_INFINITY), "null");
    assert_eq!(json(&f32::NAN), "null");
    assert_eq!(json(&f32::INFINITY), "null");
    assert_eq!(json(&f32::NEG_INFINITY), "null");
    assert_eq!(json(&vec![1.5f64, f64::NAN, -3.0]), "[1.5,null,-3.0]");
}

#[test]
fn integer_extremes() {
    assert_eq!(json(&u64::MAX), "18446744073709551615");
    assert_eq!(json(&i64::MIN), "-9223372036854775808");
    assert_eq!(json(&i64::MAX), "9223372036854775807");
    assert_eq!(json(&0u8), "0");
    assert_eq!(json(&u8::MAX), "255");
    assert_eq!(json(&i8::MIN), "-128");
    assert_eq!(json(&-1i32), "-1");
    assert_eq!(json(&0i64), "0");
    assert_eq!(json(&usize::MAX), "18446744073709551615");
    assert_eq!(json(&isize::MIN), "-9223372036854775808");
    assert_eq!(json(&u16::MAX), "65535");
}

#[test]
fn string_escapes() {
    assert_eq!(json("plain"), r#""plain""#);
    assert_eq!(json(""), r#""""#);
    assert_eq!(json("\u{1f}"), r#""\u001f""#);
    assert_eq!(json("\u{0}\u{8}\u{c}\u{b}"), r#""\u0000\u0008\u000c\u000b""#);
    assert_eq!(json("a\nb\rc\td"), r#""a\nb\rc\td""#);
    assert_eq!(json("say \"hi\""), r#""say \"hi\"""#);
    assert_eq!(json("C:\\dir\\"), r#""C:\\dir\\""#);
    assert_eq!(json("/slash"), r#""/slash""#);
    assert_eq!(json("\u{7f}"), "\"\u{7f}\"");
    assert_eq!(json("é π 😀"), "\"é π 😀\"");
    assert_eq!(json(&String::from("x\"\\\u{1}")), r#""x\"\\\u0001""#);
    assert_eq!(json(&'q'), r#""q""#);
    assert_eq!(json(&'\n'), r#""\n""#);
}

#[test]
fn enum_representations() {
    assert_eq!(json(&Shape::Point), r#""Point""#);
    assert_eq!(
        json(&Shape::Circle { r: 2.0, label: Some("c".into()) }),
        r#"{"Circle":{"r":2.0,"label":"c"}}"#
    );
    assert_eq!(
        json(&Shape::Circle { r: -0.5, label: None }),
        r#"{"Circle":{"r":-0.5,"label":null}}"#
    );
    assert_eq!(json(&Shape::Pair(-3, 4)), r#"{"Pair":[-3,4]}"#);
    assert_eq!(json(&Shape::Wrap("w".into())), r#"{"Wrap":"w"}"#);
    assert_eq!(
        pretty(&Shape::Circle { r: 2.0, label: None }),
        "{\n  \"Circle\": {\n    \"r\": 2.0,\n    \"label\": null\n  }\n}"
    );
    assert_eq!(pretty(&Shape::Pair(1, 2)), "{\n  \"Pair\": [\n    1,\n    2\n  ]\n}");
    assert_eq!(pretty(&Shape::Point), r#""Point""#);
}

#[test]
fn struct_shapes() {
    assert_eq!(json(&Unit), "null");
    assert_eq!(json(&NewType(7)), "7");
    assert_eq!(json(&Triple(1, -2, "t".into())), r#"[1,-2,"t"]"#);
    assert_eq!(json(&None::<u32>), "null");
    assert_eq!(json(&Some(5u32)), "5");
    assert_eq!(json(&(1u8, "a", 2.5f64)), r#"[1,"a",2.5]"#);
    assert_eq!(json(&[1u16, 2, 3]), "[1,2,3]");
    assert_eq!(json(&vec![Some(1i8), None]), "[1,null]");
    let record = Record {
        id: 42,
        delta: -7,
        name: "cell \"A\"".into(),
        weight: 0.1,
        score: 1e-7,
        cache: vec![9, 9, 9],
        note: None,
        shapes: vec![Shape::Point, Shape::Wrap("x".into())],
        pair: (3, -0.0),
        fixed: [0, 1, u16::MAX],
        flag: true,
    };
    assert_eq!(
        json(&record),
        r#"{"id":42,"delta":-7,"name":"cell \"A\"","weight":0.1,"score":1e-7,"note":null,"shapes":["Point",{"Wrap":"x"}],"pair":[3,-0.0],"fixed":[0,1,65535],"flag":true}"#
    );
    assert_eq!(
        pretty(&record),
        "{\n  \"id\": 42,\n  \"delta\": -7,\n  \"name\": \"cell \\\"A\\\"\",\n  \
         \"weight\": 0.1,\n  \"score\": 1e-7,\n  \"note\": null,\n  \"shapes\": [\n    \
         \"Point\",\n    {\n      \"Wrap\": \"x\"\n    }\n  ],\n  \"pair\": [\n    3,\n    \
         -0.0\n  ],\n  \"fixed\": [\n    0,\n    1,\n    65535\n  ],\n  \"flag\": true\n}"
    );
}

#[test]
fn empty_containers_have_no_newline() {
    let empty: Vec<u32> = Vec::new();
    assert_eq!(json(&empty), "[]");
    assert_eq!(pretty(&empty), "[]");
    assert_eq!(json(&AllSkipped::default()), "{}");
    assert_eq!(pretty(&AllSkipped::default()), "{}");
    assert_eq!(json(&vec![Vec::<u8>::new()]), "[[]]");
    assert_eq!(pretty(&vec![Vec::<u8>::new()]), "[\n  []\n]");
    assert_eq!(pretty(&(AllSkipped::default(), 1u8)), "[\n  {},\n  1\n]");
}

fn arb_f64() -> impl Strategy<Value = f64> {
    // Any bit pattern, so subnormals and extreme exponents come up;
    // non-finite values print as `null` and cannot round-trip.
    (0u64..=u64::MAX).prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            0.0
        }
    })
}

fn arb_f32() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX).prop_map(|bits| {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            0.0
        }
    })
}

fn arb_string() -> impl Strategy<Value = String> {
    // Control characters, ASCII, the rest of the BMP and astral planes.
    proptest::collection::vec(prop_oneof![0u32..0x80, 0x80u32..0xD800, 0xE000u32..0x11_0000], 0..12)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Point),
        (arb_f64(), proptest::option::of(arb_string()))
            .prop_map(|(r, label)| Shape::Circle { r, label }),
        (i32::MIN..=i32::MAX, 0u32..=u32::MAX).prop_map(|(a, b)| Shape::Pair(a, b)),
        arb_string().prop_map(Shape::Wrap),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        0u64..=u64::MAX,
        i64::MIN..=i64::MAX,
        arb_string(),
        arb_f32(),
        arb_f64(),
        proptest::option::of(arb_string()),
        proptest::collection::vec(arb_shape(), 0..5),
        (0u8..=u8::MAX, arb_f64()),
        (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX),
        proptest::bool::ANY,
    )
        .prop_map(|(id, delta, name, weight, score, note, shapes, pair, (a, b, c), flag)| {
            Record {
                id,
                delta,
                name,
                weight,
                score,
                cache: Vec::new(),
                note,
                shapes,
                pair,
                fixed: [a, b, c],
                flag,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_inverts_serialize(record in arb_record()) {
        let compact = to_string(&record).unwrap();
        prop_assert_eq!(from_str::<Record>(&compact).unwrap(), record.clone());
        let spaced = to_string_pretty(&record).unwrap();
        prop_assert_eq!(from_str::<Record>(&spaced).unwrap(), record);
    }
}
