//! Minimal JSON emission for machine-readable bench results.
//!
//! The workspace builds offline (no serde), so this is a tiny value tree
//! with a conforming serializer — just enough for the `--json <path>`
//! flag the scaling binaries support. The schema is shared across benches
//! so CI can archive and diff them:
//!
//! ```json
//! {
//!   "bench": "sweep_scaling",
//!   "config": { "objects": 64, "shards": [1, 4] },
//!   "rows": [ { "table": "converge", "shards": 4, "converge_ms": 104.6 } ]
//! }
//! ```
//!
//! `config` captures the knobs the run used; every row is one measured
//! point, tagged with the table it belongs to when a bench prints several.

use std::fmt;
use std::path::Path;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (non-finite values serialize as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A duration as fractional milliseconds (the unit every bench table
    /// already prints).
    pub fn ms(d: std::time::Duration) -> Self {
        Json::Float(d.as_secs_f64() * 1e3)
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v as i64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) if x.is_finite() => write!(f, "{x}"),
            Json::Float(_) => write!(f, "null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Writes one bench's results in the shared schema (`bench` name,
/// `config` object, `rows` array), creating parent directories as needed.
///
/// # Panics
/// Panics on I/O failure — in a bench binary a lost results file should
/// abort the run loudly, not silently.
pub fn write_results(
    path: &str,
    bench: &str,
    config: impl IntoIterator<Item = (&'static str, Json)>,
    rows: Vec<Json>,
) {
    let doc = Json::obj([
        ("bench", Json::from(bench)),
        ("config", Json::obj(config)),
        ("rows", Json::Arr(rows)),
    ]);
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create results directory");
        }
    }
    std::fs::write(path, format!("{doc}\n")).expect("write results JSON");
    println!("results JSON written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn serializes_nested_values() {
        let doc = Json::obj([
            ("name", Json::from("fleet \"smoke\"\n")),
            ("n", Json::from(42usize)),
            ("wall_ms", Json::ms(Duration::from_micros(1500))),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("bad", Json::Float(f64::NAN)),
            ("rows", Json::Arr(vec![Json::from(1i64), Json::from(-2i64)])),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\"name\":\"fleet \\\"smoke\\\"\\n\",\"n\":42,\"wall_ms\":1.5,\
             \"ok\":true,\"none\":null,\"bad\":null,\"rows\":[1,-2]}"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(
            Json::from("a\u{1}b").to_string(),
            "\"a\\u0001b\"".to_string()
        );
    }
}
