//! The one report writer behind every `BENCH*.json`.
//!
//! A bench describes each point once, as a [`Row`] of named [`Value`]s, and
//! hands the rows plus a few header entries to a [`Report`]. The report
//! writes the JSON document (header keys one per line, one point per line —
//! the layout of the committed trajectories), prints the same rows as an
//! aligned table, and carries the bench's verdict so the emitter's exit
//! status is the gate.

use std::fmt::{self, Write as _};

use xqd_xrpc::trace::escape_json;

/// A JSON value. The workspace is std-only, so this is the whole model:
/// objects keep insertion order and floats carry their printed precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Int(u128),
    /// A number printed with a fixed count of decimals.
    Float(f64, usize),
    Str(String),
    Array(Vec<Value>),
    Object(Row),
}

/// Named values in the order they are written.
pub type Row = Vec<(&'static str, Value)>;

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

macro_rules! int_values {
    ($($int:ty),*) => {
        $(impl From<$int> for Value {
            fn from(n: $int) -> Value {
                Value::Int(n as u128)
            }
        })*
    };
}
int_values!(u64, usize, u128);

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let mut escaped = String::with_capacity(s.len());
    escape_json(s, &mut escaped);
    write!(f, "\"{escaped}\"")
}

/// The single-line form: `{"key": value, …}` and `[value, …]`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x, decimals) => write!(f, "{x:.decimals$}"),
            Value::Str(s) => write_str(f, s),
            Value::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Value::Object(entries) => {
                f.write_char('{')?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One bench run: what it measured and whether it may pass.
#[derive(Debug, Clone)]
pub struct Report {
    /// Document entries written before `"points"`, one per line.
    pub header: Row,
    /// One row per measured point, each written on its own line.
    pub points: Vec<Row>,
    /// `Err` names the point and the condition that failed; the emitter
    /// still writes the document and then exits non-zero.
    pub verdict: Result<(), String>,
}

impl Report {
    /// The JSON document of the committed `BENCH*.json` files.
    pub fn document(&self) -> String {
        let mut out = String::from("{\n");
        for (key, value) in &self.header {
            let _ = writeln!(out, "  {}: {value},", Value::from(*key));
        }
        out.push_str("  \"points\": [\n");
        for (i, point) in self.points.iter().enumerate() {
            let sep = if i + 1 < self.points.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{sep}", Value::Object(point.clone()));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The points as a right-aligned table, one column per row key.
    pub fn table(&self) -> String {
        let cell = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        };
        let Some(first) = self.points.first() else { return String::new() };
        let mut lines = vec![first.iter().map(|(key, _)| key.to_string()).collect::<Vec<_>>()];
        lines.extend(self.points.iter().map(|p| p.iter().map(|(_, v)| cell(v)).collect()));
        let widths: Vec<usize> = (0..first.len())
            .map(|col| lines.iter().map(|line| line[col].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for line in &lines {
            for (text, width) in line.iter().zip(&widths) {
                let _ = write!(out, "{text:>width$}  ");
            }
            out.truncate(out.trim_end().len());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_nests_formats_numbers_and_escapes_strings() {
        let report = Report {
            header: vec![
                ("bench", "quo\"te and back\\slash\n".into()),
                ("peak", Value::Float(5643.21, 1)),
                ("flat_top", true.into()),
            ],
            points: vec![
                vec![
                    ("load_factor", Value::Float(0.5, 2)),
                    ("wall_us", u128::MAX.into()),
                    ("bytes", 3928u64.into()),
                    ("ok", false.into()),
                ],
                vec![
                    ("tags", Value::Array(vec!["a".into(), 7usize.into()])),
                    ("inner", Value::Object(vec![("k", Value::Array(vec![]))])),
                ],
            ],
            verdict: Ok(()),
        };
        assert_eq!(
            report.document(),
            "{\n  \"bench\": \"quo\\\"te and back\\\\slash\\n\",\n  \"peak\": 5643.2,\n  \
             \"flat_top\": true,\n  \"points\": [\n    \
             {\"load_factor\": 0.50, \"wall_us\": 340282366920938463463374607431768211455, \
             \"bytes\": 3928, \"ok\": false},\n    \
             {\"tags\": [\"a\", 7], \"inner\": {\"k\": []}}\n  ]\n}\n"
        );
        assert_eq!(Value::from("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn table_aligns_columns_under_their_keys() {
        let report = Report {
            header: vec![],
            points: vec![
                vec![("query", "q".into()), ("n", 10u64.into())],
                vec![("query", "longer".into()), ("n", 7u64.into())],
            ],
            verdict: Ok(()),
        };
        assert_eq!(report.table(), " query   n\n     q  10\nlonger   7\n");
    }
}
