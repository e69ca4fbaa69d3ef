//! `json_record!` and the `ToJson`/`FromJson` impls, used the way the
//! other crates use them: from outside `phj-obs`, through `$crate`.

use phj_obs::json::{self, field, FromJson, Json, ToJson};
use phj_obs::json_record;

json_record! {
    #[derive(Debug, PartialEq, Default)]
    struct Inner {
        n: u64,
        flag: bool,
        parent: Option<usize>,
    }
}

#[derive(Debug, PartialEq, Default)]
struct Outer {
    label: String,
    inner: Inner,
    extra: Option<Inner>,
    tags: Vec<(String, String)>,
    buckets: [u64; 3],
}

fn shout(s: &str) -> Json {
    s.to_uppercase().to_json()
}

fn whisper(doc: &Json, key: &str) -> Result<String, String> {
    Ok(field::<String>(doc, key)?.to_lowercase())
}

json_record! {
    impl Outer {
        "label" => with(label, shout, whisper),
        "n" => rw(inner.n),
        "twice" => emit(o => o.inner.n * 2),
        "extra" => opt(extra),
        "tags" => rw(tags),
        "buckets" => rw(buckets),
    }
}

#[test]
fn struct_form_writes_fields_in_order_and_reads_them_back() {
    let v = Inner { n: 7, flag: true, parent: None };
    assert_eq!(v.to_json().render(), r#"{"n":7,"flag":true,"parent":null}"#);
    assert_eq!(Inner::from_json(&v.to_json()), Ok(v));
}

#[test]
fn flags_and_options_tolerate_absence_but_integers_do_not() {
    let doc = json::parse(r#"{"n": 1}"#).unwrap();
    assert_eq!(Inner::from_json(&doc), Ok(Inner { n: 1, flag: false, parent: None }));
    let doc = json::parse(r#"{"n": 1, "flag": "yes", "parent": 4}"#).unwrap();
    assert_eq!(Inner::from_json(&doc), Ok(Inner { n: 1, flag: false, parent: Some(4) }));
    let err = Inner::from_json(&json::parse(r#"{"flag": true}"#).unwrap()).unwrap_err();
    assert_eq!(err, "missing field 'n'");
    let err = Inner::from_json(&json::parse(r#"{"n": -1}"#).unwrap()).unwrap_err();
    assert_eq!(err, "field 'n': expected a non-negative integer");
    assert!(u16::from_json(&Json::U64(70_000)).unwrap_err().contains("overflows u16"));
}

#[test]
fn table_form_modes_round_trip() {
    let mut v = Outer {
        label: "probe".into(),
        inner: Inner { n: 21, ..Default::default() },
        extra: None,
        tags: vec![("k".into(), "v".into())],
        buckets: [1, 2, 3],
    };
    let text = v.to_json().render();
    assert_eq!(text, r#"{"label":"PROBE","n":21,"twice":42,"tags":{"k":"v"},"buckets":[1,2,3]}"#);
    assert_eq!(Outer::from_json(&json::parse(&text).unwrap()).as_ref(), Ok(&v));

    v.extra = Some(Inner { n: 5, flag: true, parent: Some(0) });
    let doc = v.to_json();
    assert!(doc.get("extra").is_some());
    assert_eq!(Outer::from_json(&doc), Ok(v));
}

#[test]
fn table_form_errors_name_the_path() {
    let good = r#"{"label":"x","n":1,"tags":{},"buckets":[1,2,3]}"#;
    let read = |text: &str| Outer::from_json(&json::parse(text).unwrap());
    assert!(read(good).is_ok());
    // An `opt` key may be absent but not null.
    let err = read(&good.replace("\"n\":1", "\"n\":1,\"extra\":null")).unwrap_err();
    assert_eq!(err, "field 'extra': missing field 'n'");
    let err = read(&good.replace("[1,2,3]", "[1,2]")).unwrap_err();
    assert_eq!(err, "field 'buckets': array has 2 items, expected 3");
    let err = read(&good.replace("[1,2,3]", "[1,\"2\",3]")).unwrap_err();
    assert_eq!(err, "field 'buckets': [1]: expected a non-negative integer");
    let err = read(&good.replace("{}", "{\"k\":3}")).unwrap_err();
    assert_eq!(err, "field 'tags': 'k': expected a string");
}
