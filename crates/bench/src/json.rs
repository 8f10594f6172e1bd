//! A minimal JSON reader for the suite's own artifacts.
//!
//! The workspace is hermetic (no JSON crate), and the only JSON this
//! crate ever *reads back* is JSON it wrote itself
//! (`BENCH_suite.json`, `BENCH_profile.json`, `BENCH_history.jsonl`) —
//! so a small recursive-descent parser into a dynamic [`Value`] is all
//! the tooling (`trace_report --prof`, `check_perf.sh` debugging)
//! needs. It accepts standard JSON; it does not try to be a validator
//! beyond what parsing requires.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (all parsed as `f64`, like JavaScript).
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins); `None` off objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, or an empty slice for non-arrays.
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            _ => &[],
        }
    }

    /// Number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number as u64 (floored), if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                fields.push((key, value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => literal(b, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => literal(b, pos, b"null").map(|()| Value::Null),
        Some(_) => number(b, pos),
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(format!("bad \\u escape at offset {pos}"))?;
                        // Surrogate pairs don't occur in our artifacts;
                        // map unpaired surrogates to the replacement
                        // character instead of failing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (multi-byte safe: find
                // the next char boundary).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| format!("invalid UTF-8 at offset {start}"))?,
                );
            }
        }
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected value at offset {start}"));
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_our_artifacts_use() {
        let v = Value::parse(
            r#"{"schema": "x/v1", "quick": false, "n": 3, "w": 1.5,
                "none": null, "arr": [{"a": 1}, {"a": 2}]}"#,
        )
        .expect("parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("x/v1"));
        assert_eq!(v.get("quick"), Some(&Value::Bool(false)));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("w").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("arr").unwrap().items().len(), 2);
        assert_eq!(
            v.get("arr").unwrap().items()[1]
                .get("a")
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn decodes_escapes_and_unicode() {
        let v = Value::parse(r#""a\"b\\c\ndAé""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("nope").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = Value::parse(r#"{"k": 1, "other": 0, "k": 2}"#).expect("parses");
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(2));
        // Source order is kept in the object itself.
        match &v {
            Value::Obj(fields) => assert_eq!(fields.len(), 3),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn accessors_answer_none_for_other_shapes() {
        let v = Value::parse(r#"[-1, 2.9, "s", true]"#).expect("parses");
        let items = v.items();
        assert_eq!(items[0].as_u64(), None);
        assert_eq!(items[0].as_f64(), Some(-1.0));
        assert_eq!(items[1].as_u64(), Some(2));
        assert_eq!(items[2].as_f64(), None);
        assert_eq!(items[3].as_str(), None);
        assert!(items[2].items().is_empty());
        assert_eq!(v.get("0"), None);
    }

    #[test]
    fn parses_empty_and_nested_containers() {
        let v = Value::parse(" \n{\"a\": {}, \"b\": [[], [[1]]]}\t\r\n").expect("parses");
        assert_eq!(v.get("a"), Some(&Value::Obj(vec![])));
        let b = v.get("b").unwrap().items();
        assert!(b[0].items().is_empty());
        assert_eq!(b[1].items()[0].items()[0].as_u64(), Some(1));
    }

    #[test]
    fn unicode_escapes_decode_and_lone_surrogates_are_replaced() {
        let v = Value::parse(r#""\u0041\u00e9\ud800""#).expect("parses");
        assert_eq!(v.as_str(), Some("Aé\u{fffd}"));
        assert!(Value::parse(r#""\u00""#).is_err());
        assert!(Value::parse(r#""\uzzzz""#).is_err());
    }

    #[test]
    fn rejects_bad_escapes_literals_and_numbers() {
        assert!(Value::parse(r#""\q""#).is_err());
        assert!(Value::parse(r#""open"#).is_err());
        assert!(Value::parse("tru").is_err());
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("1.2.3").is_err());
        assert!(Value::parse("--1").is_err());
        assert_eq!(Value::parse("-2.5e3"), Ok(Value::Num(-2500.0)));
    }

    #[test]
    fn round_trips_a_real_suite_report() {
        use crate::suite::{fnv1a, JobResult, SuiteReport};
        let report = SuiteReport {
            threads: 2,
            quick: true,
            profiled: false,
            total_wall_ms: 5.0,
            results: vec![JobResult {
                name: "x".into(),
                seed: 7,
                wall_ms: 1.0,
                sim_time_s: 0.0,
                events: 0,
                output: b"hi".to_vec(),
                checksum: format!("fnv1a:{:016x}", fnv1a(b"hi")),
                error: None,
                profile: lgv_trace::prof::ProfileTree::new(),
            }],
        };
        let v = Value::parse(&report.to_json()).expect("suite JSON parses");
        let sc = &v.get("scenarios").unwrap().items()[0];
        assert_eq!(sc.get("sim_time_s"), Some(&Value::Null));
        assert_eq!(sc.get("events"), Some(&Value::Null));
        let hv = Value::parse(&report.history_line()).expect("history line parses");
        assert_eq!(
            hv.get("schema").and_then(Value::as_str),
            Some("lgv-bench-history/v1")
        );
        let pv = Value::parse(&report.profile_json()).expect("profile JSON parses");
        assert_eq!(
            pv.get("schema").and_then(Value::as_str),
            Some("lgv-bench-profile/v1")
        );
    }
}
