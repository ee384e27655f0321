//! Medians, percentiles and the JSON the ledger is written in.

use std::fmt::Write;

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice.
fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Which end of a sample is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The value one slice in ten is at least as good as: the ninth decile
/// of rates, the first decile of costs.
///
/// This is what a run reports of its slices. On a shared two-vCPU host
/// interference comes in bursts of a second and phases of half a minute
/// and only ever slows a slice down, so the slices' median follows the
/// host (it spread 13-20 % between runs when the ledger was defined)
/// while their good decile stays near the undisturbed system (3-8 %).
/// The decile rather than the single best slice, because on the
/// two-connection workloads one slice in a run can also get lucky.
pub fn good_decile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "decile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match better {
        Better::Higher => quantile_sorted(&v, 0.9),
        Better::Lower => quantile_sorted(&v, 0.1),
    }
}

/// Median and tail of a latency sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: u64,
    /// The 99th percentile, present only when at least ten samples lie
    /// beyond it (a tail read off fewer is one slow call, not a
    /// distribution).
    pub p99: Option<u64>,
}

impl Latency {
    pub fn of(samples: &mut [u64]) -> Latency {
        assert!(!samples.is_empty(), "latency of no samples");
        samples.sort_unstable();
        let n = samples.len();
        Latency {
            samples: n,
            p50: quantile_sorted(samples, 0.50),
            p99: (n >= 1000).then(|| quantile_sorted(samples, 0.99)),
        }
    }
}

/// A JSON value; objects keep insertion order so records read the same
/// on every run.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering, trailing newline included.
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
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            // JSON has no NaN or infinity; a metric that could not be
            // computed must not masquerade as a number.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
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

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[10.0, 11.0, 10.5, 900.0, 10.2]), 10.5);
    }

    #[test]
    fn good_decile_picks_the_good_end_symmetrically() {
        let v: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(good_decile(&v, Better::Higher), 20.0);
        assert_eq!(good_decile(&v, Better::Lower), 3.0);
        let few = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(good_decile(&few, Better::Higher), 5.0);
        assert_eq!(good_decile(&few, Better::Lower), 1.0);
        assert_eq!(good_decile(&[7.0], Better::Lower), 7.0);
    }

    #[test]
    fn good_decile_ignores_a_slow_phase_and_one_lucky_slice() {
        // 30 undisturbed slices, 60 slowed by a busy host, one lucky.
        let mut rates = vec![100.0; 30];
        rates.extend(vec![70.0; 60]);
        rates.push(140.0);
        assert_eq!(good_decile(&rates, Better::Higher), 100.0);
        assert_eq!(median(&rates), 70.0);
    }

    #[test]
    fn latency_reports_nearest_rank_median() {
        let mut odd: Vec<u64> = vec![50, 10, 30, 20, 40];
        assert_eq!(Latency::of(&mut odd).p50, 30);
        let mut even: Vec<u64> = vec![40, 10, 30, 20];
        assert_eq!(Latency::of(&mut even).p50, 20);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut few: Vec<u64> = (1..=999).collect();
        let l = Latency::of(&mut few);
        assert_eq!((l.samples, l.p50, l.p99), (999, 500, None));
        let mut enough: Vec<u64> = (1..=1000).collect();
        let l = Latency::of(&mut enough);
        assert_eq!(l.p99, Some(990));
        assert_eq!(enough.iter().filter(|&&x| x > 990).count(), 10);
    }

    #[test]
    fn json_renders_on_one_line_in_insertion_order() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Int(1), Json::Null])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}, "list": [1, null]}"#
        );
    }

    #[test]
    fn json_escapes_strings_and_refuses_non_finite_numbers() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(2.0).render(), "2");
    }

    #[test]
    fn json_pretty_indents_nested_values() {
        let j = Json::obj([
            ("a", Json::Arr(vec![Json::Int(1)])),
            ("b", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            j.render_pretty(),
            "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}\n"
        );
    }
}
