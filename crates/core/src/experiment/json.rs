//! The workspace's JSON value model lives in `tw-obs` (the flight-trace
//! reader at the bottom of the dependency graph parses with it too); this
//! module keeps the `denovo_waste::experiment::json` path the codecs, the
//! daemon and `benchmark/` import, and the tests of the subset they rely on.

pub use tw_obs::json::Json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_emit_round_trip() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("l2 \"sweep\"\n")),
            ("count".into(), Json::UInt(u64::MAX)),
            (
                "items".into(),
                Json::Arr(vec![Json::UInt(1), Json::str("two")]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("nested".into(), Json::Obj(vec![])),
        ]);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // u64::MAX survives exactly (the usual JSON-as-f64 trap).
        assert!(text.contains("18446744073709551615"));
    }

    #[test]
    fn compact_form_is_one_line_and_round_trips() {
        let doc = Json::Obj(vec![
            ("op".into(), Json::str("submit")),
            ("note".into(), Json::str("line\nbreak")),
            ("body_bytes".into(), Json::UInt(42)),
            (
                "tags".into(),
                Json::Arr(vec![Json::str("a"), Json::UInt(7)]),
            ),
        ]);
        let line = doc.compact();
        assert!(!line.contains('\n'), "compact form must be newline-free");
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(
            line,
            r#"{"op":"submit","note":"line\nbreak","body_bytes":42,"tags":["a",7]}"#
        );
    }

    #[test]
    fn human_written_whitespace_is_accepted() {
        let doc = Json::parse(
            r#"
            { "a" : [ 1 , 2 ] ,
              "b" : { "c" : "d" } }
            "#,
        )
        .unwrap();
        assert_eq!(doc.require("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            doc.require("b").unwrap().require("c").unwrap().as_str(),
            Ok("d")
        );
    }

    #[test]
    fn unsupported_constructs_are_named() {
        for (input, needle) in [
            ("1.5", "floats"),
            ("true", "booleans"),
            ("-3", "negative"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("[1", "expected"),
            ("\"ab", "unterminated"),
            ("{}, 1", "trailing"),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(err.contains(needle), "`{input}` -> {err}");
        }
    }

    #[test]
    fn accessor_errors_name_the_found_kind() {
        let v = Json::parse("[1]").unwrap();
        assert!(v.as_str().unwrap_err().contains("array"));
        assert!(v.as_obj().unwrap_err().contains("array"));
        assert!(Json::UInt(3).as_arr().unwrap_err().contains("integer"));
        assert!(Json::str("x").require("k").is_err());
        assert!(Json::str("x").get("k").is_none());
    }
}
