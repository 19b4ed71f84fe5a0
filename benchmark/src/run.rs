//! `spider-benchmark run`: every workload, each in a child process of its
//! own, so `peak_rss_mb` is per workload and allocator state does not leak
//! from one workload into the next. One child runs at a time.

use crate::measure;
use crate::metrics::{self, END_TO_END};
use crate::workloads::{Workload, WORKLOADS};
use crate::{flag, lookup, obj, parsed, reject_unknown, text};
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};

/// The two JSON lines a child printed last: detail, then result.
fn child(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Option<Value> { serde_json::from_str(line?).ok() };
    match (parse(lines.next()), parse(lines.next())) {
        // A child that fails a check still prints both lines and exits 1.
        (Some(result), Some(detail)) => Ok((detail, result)),
        // A panic in a child is a failed run, not a crash of the driver.
        _ => Err(format!(
            "{} (trace {}) printed no result, {}",
            w.name,
            u8::from(trace),
            output.status
        )),
    }
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get_field(key).and_then(Value::as_i64).unwrap_or(0) as u64
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    lookup(result, &["metrics", name, "value"])?.as_f64()
}

pub fn run_all(args: &[String]) -> Result<ExitCode, String> {
    reject_unknown(args, &["--seed", "--only", "--out"])?;
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(1);
    let only = flag(args, "--only")?;
    if let Some(name) = only {
        crate::workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    }
    let out_path = flag(args, "--out")?;
    let contract = metrics::contract();

    let mut failed_runs = 0u64;
    let mut failed_checks = 0u64;
    let mut docs = Vec::new();
    let mut scratch_fs = String::from("unknown");
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        eprintln!("== {} ({})", w.name, w.why);
        let runs = [false, true].map(|trace| child(w, seed, contract.run_seconds, trace));
        let [Ok((detail, result)), Ok((_, layers))] = runs else {
            for e in runs.into_iter().filter_map(Result::err) {
                eprintln!("RUN FAILED: {e}");
                failed_runs += 1;
            }
            continue;
        };
        if let Some(Value::Str(fs)) = detail.get_field("scratch_filesystem") {
            scratch_fs = fs.clone();
        }
        let attempted = u64_field(&result, "attempted") + u64_field(&layers, "attempted");
        let failed = u64_field(&result, "failed") + u64_field(&layers, "failed");
        failed_checks += failed;
        let samples = detail.get_field("detail").cloned().unwrap_or(Value::Null);

        println!("\n{} — {}", w.name, w.why);
        println!("  ops_attempted {attempted}  ops_failed {failed}");
        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let value = metric_value(&result, m.name).unwrap_or(f64::NAN);
            let better = if m.higher { "higher" } else { "lower" };
            let bound = contract.bounds[m.name];
            println!(
                "  {:<16} {:>16.6} {:<6} better={better} bound={:.0}%",
                m.name,
                value,
                m.unit,
                bound * 100.0
            );
            end_to_end.push((
                m.name.to_string(),
                obj(vec![
                    ("value", Value::F64(value)),
                    ("unit", text(m.unit)),
                    ("better", text(better)),
                    ("bound", Value::F64(bound)),
                ]),
            ));
        }
        if let Some(wall) = samples.get_field("wall_s") {
            println!(
                "  wall_s (not gated) {}",
                serde_json::to_string(wall).expect("JSON value")
            );
        }
        let mut per_layer_doc = Vec::new();
        let mut zeros = 0;
        for m in &metrics::PER_LAYER {
            let value = metric_value(&layers, m.name).unwrap_or(f64::NAN);
            let kind = m.kind.name();
            if value == 0.0 {
                zeros += 1;
            } else {
                println!("  {:<38} {:>16.6} {:<6} {kind}", m.name, value, m.unit);
            }
            per_layer_doc.push((
                m.name.to_string(),
                obj(vec![
                    ("value", Value::F64(value)),
                    ("unit", text(m.unit)),
                    ("kind", text(kind)),
                ]),
            ));
        }
        println!("  ({zeros} per-layer metrics read 0: no seam for them on this workload)");
        docs.push(obj(vec![
            ("name", text(w.name)),
            ("why", text(w.why)),
            ("ops_attempted", Value::U64(attempted)),
            ("ops_failed", Value::U64(failed)),
            ("end_to_end", Value::Object(end_to_end)),
            ("samples", samples),
            ("per_layer", Value::Object(per_layer_doc)),
        ]));
    }

    let doc = obj(vec![
        ("schema", Value::U64(1)),
        ("seed", Value::U64(seed)),
        ("run_seconds", Value::U64(contract.run_seconds)),
        (
            "host_online_cpus",
            Value::U64(measure::online_cpus() as u64),
        ),
        ("rustc", Value::Str(measure::rustc_version())),
        ("git_commit", Value::Str(measure::git_commit())),
        ("scratch_filesystem", Value::Str(scratch_fs)),
        ("failed_runs", Value::U64(failed_runs)),
        ("failed_checks", Value::U64(failed_checks)),
        ("workloads", Value::Array(docs)),
    ]);
    if let Some(path) = out_path {
        let json = serde_json::to_string_pretty(&doc).expect("JSON value");
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    println!("\nfailed runs {failed_runs}, failed checks {failed_checks}");
    Ok(if failed_runs == 0 && failed_checks == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
