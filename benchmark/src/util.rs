//! Small statistics, JSON and process helpers.  The container has no
//! serde, so the benchmark writes JSON with `format!` and reads back the
//! one shape it writes itself.

use std::collections::BTreeMap;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an already sorted sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Sorts a latency sample in place and returns it for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// `(q3 - q1) / median` with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) — the spread
/// the benchmark contract is judged by.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med.abs()
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes as MB (10^6 would hide nothing, but the repo reports MiB as "MB"
/// everywhere; keep its convention).
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number printed with all its digits (shortest form that round-trips).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The result line a workload process prints last, parsed back by the
/// parent (`run` without `--workload`, `repeat`).
#[derive(Clone, Debug, Default)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl ResultLine {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line written by [`ResultLine::to_json`].
    pub fn parse(line: &str) -> Option<ResultLine> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let mut out = ResultLine::default();
        p.expect(b'{')?;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "correct" => out.correct = p.literal()? == "true",
                "attempted" => out.attempted = p.literal()?.parse().ok()?,
                "failed" => out.failed = p.literal()?.parse().ok()?,
                "metrics" => {
                    p.expect(b'{')?;
                    if !p.eat(b'}') {
                        loop {
                            let name = p.string()?;
                            p.expect(b':')?;
                            p.expect(b'{')?;
                            let (mut value, mut unit) = (f64::NAN, String::new());
                            loop {
                                let field = p.string()?;
                                p.expect(b':')?;
                                match field.as_str() {
                                    "value" => value = p.literal()?.parse().ok()?,
                                    "unit" => unit = p.string()?,
                                    _ => return None,
                                }
                                if !p.eat(b',') {
                                    break;
                                }
                            }
                            p.expect(b'}')?;
                            out.metrics.insert(name, (value, unit));
                            if !p.eat(b',') {
                                break;
                            }
                        }
                        p.expect(b'}')?;
                    }
                }
                _ => return None,
            }
            if !p.eat(b',') {
                break;
            }
        }
        p.expect(b'}')?;
        Some(out)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Option<()> {
        self.eat(c).then_some(())
    }

    /// A string without escapes other than `\"` and `\\` (metric names and
    /// units never need more).
    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match *self.s.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    out.push(*self.s.get(self.i + 1)?);
                    self.i += 2;
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    /// A bare token: number, `true`, `false` or `null`.
    fn literal(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.s.len() && !matches!(self.s[self.i], b',' | b'}' | b' ') {
            self.i += 1;
        }
        (self.i > start).then(|| String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut r = ResultLine {
            correct: true,
            attempted: 12,
            failed: 0,
            ..Default::default()
        };
        r.metrics.insert("setup_s".into(), (0.8127, "s".into()));
        r.metrics
            .insert("covar_rows_per_s".into(), (263_101.5, "rows/s".into()));
        let back = ResultLine::parse(&r.to_json()).expect("parses");
        assert!(back.correct);
        assert_eq!(back.attempted, 12);
        assert_eq!(back.metrics, r.metrics);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
