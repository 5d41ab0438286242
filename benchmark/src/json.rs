//! A hand-rolled JSON emitter (the benchmark takes no dependencies). Only
//! what the result line, the trace files and `BENCHMARK.json` need: objects
//! keep insertion order, numbers print with all their digits, and names are
//! checked against the contract's alphabet before they are written.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(i64),
    /// A measured number; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Appends the compact encoding to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                // `{}` on f64 is the shortest text that reads back exactly,
                // never in exponent form: every measured digit, valid JSON
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The compact encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// A two-space indented encoding (for files people read).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    // one object per line keeps long metric lists readable
                    match item {
                        Json::Obj(_) => item.write_spaced(out),
                        _ => item.write_pretty(out, depth + 1),
                    }
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    pad(out, depth + 1);
                    write_string(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            _ => self.write_spaced(out),
        }
    }

    /// Single-line encoding with a space after `:` and `,`.
    fn write_spaced(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_spaced(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write_spaced(out);
                }
                out.push('}');
            }
            _ => self.write(out),
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_encoding_keeps_order_digits_and_escapes() {
        let value = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([
                        ("value", Json::Num(1.203_456_789)),
                        ("unit", Json::str("ms")),
                    ]),
                )]),
            ),
            ("note", Json::str("a \"quoted\"\nline\\")),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::Int(-1), Json::Num(0.5)])),
        ]);
        assert_eq!(
            value.encode(),
            "{\"correct\":true,\"attempted\":1000,\"metrics\":{\"latency_ms\":\
             {\"value\":1.203456789,\"unit\":\"ms\"}},\"note\":\"a \\\"quoted\\\"\\nline\\\\\",\
             \"none\":null,\"list\":[-1,0.5]}"
        );
    }

    #[test]
    fn numbers_never_use_exponents_or_non_finite_tokens() {
        assert_eq!(Json::Num(1e-7).encode(), "0.0000001");
        assert_eq!(Json::Num(1.5e12).encode(), "1500000000000");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
        assert_eq!(Json::Num(3.0).encode(), "3");
    }

    #[test]
    fn pretty_output_is_the_same_document() {
        let value = Json::obj([
            (
                "a",
                Json::Arr(vec![
                    Json::obj([("x", Json::Int(1))]),
                    Json::obj([("y", Json::Int(2))]),
                ]),
            ),
            ("b", Json::Arr(vec![])),
        ]);
        let pretty = value.pretty();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    {\"x\": 1},\n    {\"y\": 2}\n  ],\n  \"b\": []\n}\n"
        );
        let squeezed: String = pretty.chars().filter(|c| !c.is_whitespace()).collect();
        assert_eq!(squeezed, value.encode());
    }

    #[test]
    fn names_and_units_follow_the_contract_alphabet() {
        for good in [
            "latency_p50_ms",
            "net.p99_ms.r3200",
            "sim-steady",
            "9lives",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-x",
            "has space",
            "µs",
            "a/b",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB", "us", "B/op"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "ops per second", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
