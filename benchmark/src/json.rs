//! The JSON this benchmark writes: the result line the driver parses and
//! the span lines of the trace file. Hand-rolled because the workspace is
//! hermetic (no serde).

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with every digit it was measured with. JSON has no NaN/inf, and a
/// metric that is one is a harness bug: `null` makes the driver refuse the
/// line instead of accepting a made-up number.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result object printed as the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(&m.name),
            number(m.value),
            string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// The text of metric `name`'s value in a [`result_line`], exactly as
/// printed — `check-counts` compares these, so "repeats exactly" means
/// digit for digit.
pub fn value_text<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("{}: {{\"value\": ", string(name));
    let rest = &line[line.find(&key)? + key.len()..];
    rest.split(',').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(118.0), "118");
        assert_eq!(number(0.000123), "0.000123");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn value_text_reads_back_what_was_written() {
        let line = result_line(
            false,
            3,
            1,
            &[
                Metric::new("tds.calls_per_query", 10040.0, "count"),
                Metric::new("tds.calls", 7.5, "count"),
            ],
        );
        assert_eq!(value_text(&line, "tds.calls_per_query"), Some("10040"));
        assert_eq!(value_text(&line, "tds.calls"), Some("7.5"));
        assert_eq!(value_text(&line, "absent"), None);
    }
}
