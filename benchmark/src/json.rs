//! Minimal JSON value and emitter.
//!
//! The benchmark only *writes* JSON: the driver's result line,
//! `result.json`, `trace.json` and `BENCHMARK.json`. Nothing here reads
//! it back. A child run hands its figures to the suite as flat
//! `key<TAB>value` lines (`run::Record`), and two suites are compared in
//! memory, so the crate carries no parser (the repo's one JSON reader
//! stays the one in `pp-bench`, which the benchmark does not link).

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order, so emitted documents
/// read in the order the benchmark defines.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object (no-op on other variants).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number in this value, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string in this value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array (empty for other variants).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The fields of an object (empty for other variants).
    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for files a person reads.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest round-trip digits; JSON has no NaN/inf.
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("string write"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                // Arrays of scalars stay on one line even when pretty.
                let flat = items
                    .iter()
                    .all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_)));
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if flat && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<u64> for Json {
    /// Counts only; exact below 2⁵³. Hashes go out as hex strings.
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj()
            .with("correct", true)
            .with("attempted", 1000u64)
            .with("value", 1.2034)
            .with("tiny", 3.3e-9)
            .with("name", "a \"quoted\" \\ name\n")
            .with("none", Json::Null)
            .with(
                "list",
                vec![Json::from(1u64), Json::from(2.5), Json::from("x")],
            )
            .with("nested", Json::obj().with("unit", "ms"))
    }

    #[test]
    fn compact_rendering_is_one_line_and_exact() {
        let line = Json::obj()
            .with("correct", true)
            .with("attempted", 12u64)
            .with(
                "metrics",
                Json::obj().with(
                    "glups",
                    Json::obj().with("value", 0.25).with("unit", "1e9/s"),
                ),
            )
            .render();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":12,"metrics":{"glups":{"value":0.25,"unit":"1e9/s"}}}"#
        );
    }

    #[test]
    fn pretty_rendering_indents_and_keeps_scalar_lists_on_one_line() {
        assert!(!sample().render().contains('\n'));
        let doc = Json::obj()
            .with("name", "a \"quoted\" \\ name\n")
            .with("none", Json::Null)
            .with("list", vec![Json::from(1u64), Json::from(2.5)])
            .with("rows", vec![Json::obj().with("unit", "ms")])
            .with("empty", Json::obj());
        assert_eq!(
            doc.render_pretty(),
            r#"{
  "name": "a \"quoted\" \\ name\n",
  "none": null,
  "list": [1, 2.5],
  "rows": [
    {
      "unit": "ms"
    }
  ],
  "empty": {}
}
"#
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            6.02214076e23,
            5e-324,
            123456789.0,
            -0.0,
        ] {
            let back: f64 = Json::Num(x).render().parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(Json::from("a\u{1}b\tc").render(), "\"a\\u0001b\\tc\"");
    }

    #[test]
    fn accessors_return_none_on_the_wrong_variant() {
        let doc = sample();
        assert_eq!(doc.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("name").and_then(Json::as_f64), None);
        assert_eq!(doc.get("nested").and_then(Json::as_str), None);
        assert_eq!(doc.get("list").map(|l| l.items().len()), Some(3));
        assert!(Json::Null.items().is_empty());
        assert!(Json::Null.fields().is_empty());
    }
}
