//! `compare`: two sets of run records, one verdict per workload and
//! end-to-end metric against the bounds in `BENCHMARK.json`.
//!
//! The rule is the one the benchmark's baseline is held to: a change
//! *improved* a metric when it wins at least nine tenths of the run
//! pairs (ties count for neither) and its median beats the base median
//! by more than the base's interquartile range. Otherwise it is *no
//! worse* when its median is not worse by more than the bound,
//! *regressed* when it is, and *unresolved* when either side's spread
//! exceeds the bound — unless every new run beats every base run.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// A metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    name: String,
    higher_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on `new` against `base` (runs in the order they were
/// made; run `i` of each side forms pair `i`).
fn verdict(base: &[f64], new: &[f64], rule: &Bound) -> Verdict {
    let gain = |from: f64, to: f64| {
        if rule.higher_is_better {
            to - from
        } else {
            from - to
        }
    };
    let (bm, nm) = (median(base), median(new));
    let ((bq1, bq3), (nq1, nq3)) = (quartiles(base), quartiles(new));
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| gain(**b, **n) > 0.0)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(bm, nm) > bq3 - bq1 {
        return Verdict::Improved;
    }
    let spread = ((bq3 - bq1) / bm.abs()).max((nq3 - nq1) / nm.abs());
    if spread > rule.bound {
        let every_better = new.iter().all(|n| base.iter().all(|b| gain(*b, *n) > 0.0));
        return if every_better {
            Verdict::NoWorse
        } else {
            Verdict::Unresolved
        };
    }
    if -gain(bm, nm) / bm.abs() > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    }
}

/// The end-to-end rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// When the document is not JSON or an `end_to_end` entry is malformed.
fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let better = e.get("better").and_then(Json::as_str);
            let bound = e.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {e:?}")),
            }
        })
        .collect()
}

/// Metric values by workload and metric name, in file order. Lines
/// that are not run records (no `workload` member) are skipped, so a
/// run's whole standard output can be appended to the file.
///
/// # Errors
///
/// When a record line is not valid JSON or a metric has no value.
fn records(jsonl: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in jsonl.lines().enumerate() {
        if !line.trim_start().starts_with('{') {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let (Some(workload), Some(metrics)) = (
            rec.get("workload").and_then(Json::as_str),
            rec.get("metrics").and_then(Json::as_object),
        ) else {
            continue;
        };
        let per_metric = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

/// `x` to six significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (5 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.digits$}")
}

/// Renders the comparison table and whether nothing regressed.
///
/// # Errors
///
/// When either record set or the bounds cannot be read.
pub fn report(
    base_jsonl: &str,
    new_jsonl: &str,
    benchmark_json: &str,
) -> Result<(String, bool), String> {
    let rules = bounds(benchmark_json)?;
    let (base, new) = (records(base_jsonl)?, records(new_jsonl)?);
    let mut out = format!(
        "{:<16} {:<18} {:>4} {:>30} {:>30} {:>8}  verdict\n",
        "workload", "metric", "runs", "base median [q1, q3]", "new median [q1, q3]", "delta"
    );
    let mut clean = true;
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else {
            continue;
        };
        for rule in &rules {
            let (Some(b), Some(n)) = (base_metrics.get(&rule.name), new_metrics.get(&rule.name))
            else {
                continue;
            };
            let v = verdict(b, n, rule);
            clean &= v != Verdict::Regressed;
            let cell = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                format!("{} [{}, {}]", sig(median(xs)), sig(q1), sig(q3))
            };
            out += &format!(
                "{:<16} {:<18} {:>4} {:>30} {:>30} {:>+7.2}%  {}\n",
                workload,
                rule.name,
                b.len().min(n.len()),
                cell(b),
                cell(n),
                100.0 * (median(n) / median(b) - 1.0),
                v.label()
            );
        }
    }
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let faster: Vec<f64> = base.iter().map(|b| b * 1.10).collect();
        let slower: Vec<f64> = base.iter().map(|b| b * 0.90).collect();
        let tput = rule(true, 0.05);
        assert_eq!(verdict(&base, &faster, &tput), Verdict::Improved);
        assert_eq!(verdict(&base, &slower, &tput), Verdict::Regressed);
        assert_eq!(verdict(&base, &base, &tput), Verdict::NoWorse);
        // For a lower-is-better metric the same shift is a regression.
        assert_eq!(
            verdict(&base, &faster, &rule(false, 0.05)),
            Verdict::Regressed
        );
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 70.0, 130.0,
        ];
        assert_eq!(verdict(&base, &noisy, &tput), Verdict::Unresolved);
    }

    #[test]
    fn reads_bounds_and_records() {
        let bench =
            r#"{"end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        assert_eq!(bounds(bench).unwrap(), vec![rule(false, 0.1)]);
        let runs = "{\"workload\": \"w\", \"metrics\": {\"m\": {\"value\": 2, \"unit\": \"s\"}}}\n\
                    {\"correct\": true, \"metrics\": {}}\n\
                    {\"workload\": \"w\", \"metrics\": {\"m\": {\"value\": 2.001, \"unit\": \"s\"}}}\n";
        let r = records(runs).unwrap();
        assert_eq!(r["w"]["m"], vec![2.0, 2.001]);
        let (table, clean) = report(runs, runs, bench).unwrap();
        assert!(clean && table.contains("no worse"), "{table}");
    }
}
