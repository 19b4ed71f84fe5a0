//! `spider-benchmark compare A.json B.json`: two `run` outputs side by
//! side, one row per workload and end-to-end metric, judged by the bounds
//! `BENCHMARK.json` fixes.

use crate::lookup;
use crate::metrics::{self, Kind, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    match doc.get_field("workloads")? {
        Value::Array(ws) => ws
            .iter()
            .find(|w| matches!(w.get_field("name"), Some(Value::Str(n)) if n == name)),
        _ => None,
    }
}

fn value_of(w: &Value, section: &str, metric: &str) -> Option<f64> {
    lookup(w, &[section, metric, "value"])?.as_f64()
}

/// Per-repeat values of a metric, where a run has more than one.
fn samples_of(w: &Value, metric: &str) -> Vec<f64> {
    match lookup(w, &["samples", metric, "values"]) {
        Some(Value::Array(xs)) => xs.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

/// Distance between the first and third quartile as a share of the median
/// (quartiles interpolated at `q * (n + 1)`, as Python's
/// `statistics.quantiles(values, n=4)` places them).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (v.len() + 1) as f64 - 1.0;
        let pos = pos.clamp(0.0, (v.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (quantile(0.75) - quantile(0.25)) / crate::measure::median(&v)
}

pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs exactly two files".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let contract = metrics::contract();
    let mut worse = 0u32;
    let mut count_diffs = Vec::new();

    println!(
        "{:<26} {:<16} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for w in &crate::workloads::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, w.name), workload(&b, w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                value_of(wa, "end_to_end", m.name),
                value_of(wb, "end_to_end", m.name),
            ) else {
                continue;
            };
            let bound = contract.bounds[m.name];
            // Positive `worsening` = B is worse, as a share of A.
            let delta = (vb - va) / va;
            let worsening = if m.higher { -delta } else { delta };
            let (sa, sb) = (samples_of(wa, m.name), samples_of(wb, m.name));
            let noisy = spread(&sa) > bound || spread(&sb) > bound;
            let better = |x: f64, y: f64| if m.higher { x > y } else { x < y };
            let b_wins_every_run =
                !sa.is_empty() && sb.iter().all(|&y| sa.iter().all(|&x| better(y, x)));
            let verdict = if noisy && !b_wins_every_run {
                "unresolved"
            } else if worsening > bound {
                worse += 1;
                "worse"
            } else {
                "within"
            };
            println!(
                "{:<26} {:<16} {:>16.6} {:>16.6} {:>+8.2}% {:>5.0}%  {verdict}",
                w.name,
                m.name,
                va,
                vb,
                delta * 100.0,
                bound * 100.0
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.kind == Kind::Count) {
            let (va, vb) = (
                value_of(wa, "per_layer", m.name),
                value_of(wb, "per_layer", m.name),
            );
            if va != vb {
                count_diffs.push(format!("{} {}: {va:?} vs {vb:?}", w.name, m.name));
            }
        }
    }
    println!(
        "count-kind per-layer metrics that differ: {}",
        count_diffs.len()
    );
    for d in &count_diffs {
        println!("  {d}");
    }
    println!("worse: {worse}");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
