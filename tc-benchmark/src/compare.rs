//! `--compare A B`: apply each end-to-end metric's direction and bound from
//! `BENCHMARK.json` to two sets of run records (`--out` files).

use crate::stats::{self, Json};
use std::path::Path;
use std::process::ExitCode;

/// What the comparison concluded about one workload × metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, so a change of the
    /// bound's size could not have been seen.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's values for a cell: the records' values, and the widest
/// within-run spread any record stated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Side {
    pub values: Vec<f64>,
    pub stated_spread: f64,
}

impl Side {
    /// Run-to-run spread (IQR ÷ median) when the set holds enough runs to
    /// have quartiles, else the spread over rounds the run itself stated.
    fn spread(&self) -> f64 {
        if self.values.len() >= 4 {
            stats::iqr_share(&self.values)
        } else {
            self.stated_spread
        }
    }
}

/// Share by which `b` is worse than `a` (negative when it is better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let worse_by = worsening(
        stats::median(&a.values),
        stats::median(&b.values),
        higher_is_better,
    );
    let spread = a.spread().max(b.spread());
    // Every run of B better than every run of A resolves any spread.
    let all_better = a.values.iter().all(|&x| {
        b.values
            .iter()
            .all(|&y| worsening(x, y, higher_is_better) < 0.0)
    });
    let verdict = if worse_by > bound {
        if spread <= bound || worse_by > spread {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if spread <= bound || all_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    };
    (worse_by, spread, verdict)
}

struct Set {
    /// `(workload, metric)` → side, in first-seen order.
    cells: Vec<((String, String), Side)>,
    /// `workload` → failed operations, summed over its records.
    failed: Vec<(String, f64)>,
}

fn read_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set {
        cells: Vec::new(),
        failed: Vec::new(),
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let failed = record.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        match set.failed.iter_mut().find(|(w, _)| w == workload) {
            Some((_, f)) => *f += failed,
            None => set.failed.push((workload.to_string(), failed)),
        }
        let Some(Json::Obj(metrics)) = record.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
            let key = (workload.to_string(), name.clone());
            let side = match set.cells.iter_mut().find(|(k, _)| *k == key) {
                Some((_, side)) => side,
                None => {
                    set.cells.push((key, Side::default()));
                    &mut set.cells.last_mut().expect("just pushed").1
                }
            };
            side.values.push(value);
            side.stated_spread = side.stated_spread.max(spread);
        }
    }
    Ok(set)
}

/// `name → (higher is better, bound)` of the declared end-to-end metrics.
fn read_bounds(path: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default();
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(bound)) => Ok((n.to_string(), b == "higher", bound)),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

pub fn main(a: &Path, b: &Path, bounds: &Path) -> ExitCode {
    let loaded = read_bounds(bounds).and_then(|bd| Ok((bd, read_set(a)?, read_set(b)?)));
    let (bounds, set_a, set_b) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), side_a) in &set_a.cells {
        let Some((_, higher, bound)) = bounds.iter().find(|(n, _, _)| n == metric) else {
            continue;
        };
        let key = (workload.clone(), metric.clone());
        let Some((_, side_b)) = set_b.cells.iter().find(|(k, _)| *k == key) else {
            println!("{workload:<14} {metric:<20} missing from B: worse");
            any_worse = true;
            continue;
        };
        let (worse_by, spread, verdict) = judge(side_a, side_b, *higher, *bound);
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload:<14} {metric:<20} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            stats::median(&side_a.values),
            stats::median(&side_b.values),
            worse_by * 100.0,
            spread * 100.0,
            bound * 100.0,
            verdict.label()
        );
    }
    // Failed operations may not increase at all.
    for (workload, failed_a) in &set_a.failed {
        let failed_b = set_b
            .failed
            .iter()
            .find(|(w, _)| w == workload)
            .map_or(0.0, |(_, f)| *f);
        let verdict = if failed_b > *failed_a {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload:<14} {:<20} {failed_a:>14} {failed_b:>14} {:>9} {:>8} {:>7}  {}",
            "failed",
            "",
            "",
            "any",
            verdict.label()
        );
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64], stated: f64) -> Side {
        Side {
            values: values.to_vec(),
            stated_spread: stated,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Throughput fell 20% against a 10% bound, tight spread: worse.
        let (by, _, v) = judge(&side(&[100.0], 0.02), &side(&[80.0], 0.02), true, 0.10);
        assert!((by - 0.20).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        // The same numbers for a lower-is-better metric are an improvement.
        let (by, _, v) = judge(&side(&[100.0], 0.02), &side(&[80.0], 0.02), false, 0.10);
        assert!(by < 0.0);
        assert_eq!(v, Verdict::Ok);
        // Within the bound: ok.
        let (_, _, v) = judge(&side(&[100.0], 0.02), &side(&[95.0], 0.02), true, 0.10);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        // No change of the medians, but the runs scatter by 30%.
        let (_, spread, v) = judge(&side(&[100.0], 0.30), &side(&[99.0], 0.05), true, 0.10);
        assert_eq!(spread, 0.30);
        assert_eq!(v, Verdict::Unresolved);
        // A fall inside the noise is unresolved; one beyond it is worse.
        let (_, _, v) = judge(&side(&[100.0], 0.30), &side(&[80.0], 0.30), true, 0.10);
        assert_eq!(v, Verdict::Unresolved);
        let (_, _, v) = judge(&side(&[100.0], 0.30), &side(&[50.0], 0.30), true, 0.10);
        assert_eq!(v, Verdict::Worse);
    }

    #[test]
    fn many_runs_use_their_own_quartiles() {
        let a = side(&[100.0, 101.0, 99.0, 100.0, 102.0, 98.0], 0.5);
        let b = side(&[100.0, 100.5, 99.5, 100.0, 101.0, 99.0], 0.5);
        let (_, spread, v) = judge(&a, &b, true, 0.10);
        assert!(spread < 0.05, "{spread}");
        assert_eq!(v, Verdict::Ok);
        // Every run of B beats every run of A: resolved despite the spread.
        let a = side(&[100.0, 150.0, 60.0, 100.0], 0.0);
        let b = side(&[200.0, 210.0, 190.0, 205.0], 0.0);
        assert_eq!(judge(&a, &b, true, 0.10).2, Verdict::Ok);
    }
}
