//! Harness arithmetic: quantiles, medians over rounds, spreads, and the
//! small JSON value the benchmark writes and `--compare` reads back.

/// Quantile `p` of `sorted` by the "exclusive" method of Python's
/// `statistics.quantiles` (position `p·(n+1)`, linear interpolation, clamped
/// to the ends), so spreads computed here match the acceptance check that
/// is run on this benchmark's outputs.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p * (n as f64 + 1.0);
            let lo = (pos.floor() as usize).clamp(1, n - 1);
            let frac = (pos - lo as f64).clamp(0.0, 1.0);
            sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `p` of unsorted `values` (NaN when empty).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(q1, median, q3)` of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// Interquartile range as a share of the median — the run-to-run spread the
/// regression bounds are compared against.  0 for a constant series, NaN
/// when the median is 0 or the series is empty.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A JSON value; objects keep insertion order so outputs diff cleanly.
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
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    /// Serialise on one line.  Non-finite numbers have no JSON form and are
    /// written as `null`; [`check_metrics`] rejects them before any output.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Parse one JSON document (the subset this benchmark writes plus
    /// whatever `BENCHMARK.json` holds: no surrogate-pair escapes).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let Some(&c) = self.bytes.get(self.pos) else {
            return Err("unexpected end of input".into());
        };
        match c {
            b'n' if self.eat("null") => Ok(Json::Null),
            b't' if self.eat("true") => Ok(Json::Bool(true)),
            b'f' if self.eat("false") => Ok(Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected `,` at byte {}", self.pos));
                    }
                    items.push(self.value()?);
                }
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() {
                        if !self.eat(",") {
                            return Err(format!("expected `,` at byte {}", self.pos));
                        }
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(format!("expected `:` at byte {}", self.pos));
                    }
                    pairs.push((key, self.value()?));
                }
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    let ch = match e {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            hex
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c => out.push(c),
            }
        }
    }
}

/// One reported metric: value as measured, with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Output-schema self-check: every expected `workload × metric` cell is
/// present exactly once and finite.  Returns the violations (empty = ok).
pub fn check_metrics(workload: &str, metrics: &[Metric], expected: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    for name in expected {
        let hits: Vec<&Metric> = metrics.iter().filter(|m| m.name == *name).collect();
        match hits.as_slice() {
            [] => problems.push(format!("{workload}: metric `{name}` is missing")),
            [m] if !m.value.is_finite() => {
                problems.push(format!("{workload}: metric `{name}` is not finite"))
            }
            [_] => {}
            _ => problems.push(format!("{workload}: metric `{name}` is reported twice")),
        }
    }
    for m in metrics {
        if !expected.contains(&m.name.as_str()) {
            problems.push(format!("{workload}: metric `{}` is not declared", m.name));
        }
    }
    problems
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // Two points: the exclusive method extrapolates; we clamp to the data.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 1.5, 2.0));
    }

    #[test]
    fn median_and_edges() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.999), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.0), 1.0);
    }

    #[test]
    fn iqr_share_of_constant_series_is_zero() {
        assert_eq!(iqr_share(&[32.0; 10]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), 1.0);
    }

    #[test]
    fn json_round_trips_with_escapes() {
        let doc = Json::obj(vec![
            ("name", Json::Str("a \"quoted\"\\ line\n\ttab \u{1}".into())),
            ("n", Json::Num(1.5e-7)),
            ("big", Json::Num(123456789012.0)),
            (
                "list",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-3.0)]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let line = doc.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("\"open").is_err());
        assert_eq!(
            Json::parse(" [1, 2.5e3, \"\\u0041\"] ").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2500.0),
                Json::Str("A".into())
            ])
        );
    }

    #[test]
    fn non_finite_numbers_never_reach_the_output() {
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        let metrics = vec![
            Metric::new("ops_per_s", f64::INFINITY, "1/s"),
            Metric::new("setup_s", 0.25, "s"),
            Metric::new("setup_s", 0.26, "s"),
            Metric::new("stray", 1.0, "count"),
        ];
        let problems = check_metrics(
            "w",
            &metrics,
            &["ops_per_s", "setup_s", "wire_bytes_per_op"],
        );
        assert_eq!(problems.len(), 4, "{problems:?}");
        let ok = vec![Metric::new("ops_per_s", 10.0, "1/s")];
        assert!(check_metrics("w", &ok, &["ops_per_s"]).is_empty());
    }
}
