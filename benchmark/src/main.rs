//! `spider-benchmark`: the repository's frozen benchmark.
//!
//! Seven seeded workloads drive the simulator's engines and layers through
//! the public API of the `spider` facade only. One process measures one
//! workload:
//!
//! ```text
//! spider-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it repeats fresh set-up + timed region for `S` seconds
//! and prints the end-to-end metrics; with `--trace 1` it makes the traced
//! pass and the `layers` kernel pass and prints the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` (verification checks, see `checks.rs`) and
//! `metrics`. `run` executes every workload in a child process of its own
//! and `compare` sets two of its outputs side by side; see `README.md`.

mod checks;
mod compare;
mod layers;
mod measure;
mod metrics;
mod run;
mod traced;
mod workloads;

use checks::Checks;
use measure::{median, timed, Scratch};
use metrics::{Layers, END_TO_END};
use serde_json::Value;
use spider::sim::CheckpointSpec;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{event_count, execute, find, setup, Outcome, Workload, WORKLOADS};

const USAGE: &str = "usage:
  spider-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
  spider-benchmark run [--seed N] [--only WORKLOAD] [--out FILE]
  spider-benchmark compare A.json B.json";

/// Seeded instances of a workload one run cycles through. One instance's
/// event count, success ratio and memory depend on its seed (1000 heavy-
/// tailed payments differ by +-8 % in units sent); four of them, weighed
/// equally, halve that share of the run-to-run spread. Every instance is
/// measured at least once, however short `--seconds` is.
const INSTANCES: usize = 4;

/// Seed of instance `i` of a run: disjoint across consecutive run seeds.
/// Instance 0 is also what the verification and traced passes look at.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(INSTANCES as u64).wrapping_add(i as u64)
}

/// Checkpoint directory of instance `i` (`isp-observed`), kept until the
/// instance repeats so the checks can resume from instance 0's snapshots.
fn ckpt_name(i: usize) -> String {
    format!("ckpt-{i}")
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::F64(x)).collect())
}

/// Median, min, max and count of a timing sample, with the values.
fn summary(xs: &[f64]) -> Value {
    obj(vec![
        ("median", Value::F64(median(xs))),
        ("min", Value::F64(measure::min(xs))),
        ("max", Value::F64(measure::max(xs))),
        ("n", Value::U64(xs.len() as u64)),
        ("values", floats(xs)),
    ])
}

/// What one process measured, as the two lines it prints.
struct Measured {
    /// `name -> (value, unit)`, in table order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Checks,
    /// Samples and facts beyond the contract line, for `run`.
    detail: Value,
}

/// `--trace 0`: fresh set-up then the timed region, cycling through the
/// workload's seeded instances for `seconds`, then the untimed
/// verification pass.
fn end_to_end(w: &Workload, seed: u64, seconds: f64, scratch: &Scratch) -> Measured {
    let mut checks = Checks::default();
    let shards = w.shards();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    // Per instance: the first outcome, which every later repeat of that
    // instance must reproduce.
    let mut first: Vec<Option<Outcome>> = (0..INSTANCES).map(|_| None).collect();
    let began = Instant::now();
    let mut measured_since = began;
    for repeat in 0.. {
        let i = repeat % INSTANCES;
        let spec = CheckpointSpec::new(w.checkpoint_every(), scratch.fresh(&ckpt_name(i)));
        let (setup_s, mut inputs) = timed(|| setup(w, instance_seed(seed, i), shards));
        let (wall, out) = timed(|| execute(w, &mut inputs, &w.measured_opts(&spec)));
        drop(inputs);
        match &first[i] {
            None => first[i] = Some(out),
            Some(reference) => checks.check(reference.reports_json() == out.reports_json(), || {
                format!(
                    "{}: repeat {repeat} differs from the first of its instance",
                    w.name
                )
            }),
        }
        if repeat == 0 {
            // Warms caches and the allocator: untimed.
            measured_since = Instant::now();
            continue;
        }
        setups.push(setup_s);
        walls.push(wall);
        if repeat >= INSTANCES && measured_since.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Peak memory of set-up plus timed region; the checks below allocate
    // more and must not count.
    let peak_rss = measure::peak_rss_bytes();
    let first: Vec<Outcome> = first.into_iter().flatten().collect();
    let ckpt_dir = scratch.path().join(ckpt_name(0));
    checks::verify(&mut checks, w, instance_seed(seed, 0), &first[0], &ckpt_dir);

    // Every instance's events weigh the same, however many repeats it
    // got; the median wall is over all repeats, so one slow repeat of an
    // instance measured once or twice cannot move the result.
    let instance_events: Vec<u64> = first.iter().map(|o| event_count(w, &o.reports)).collect();
    let mean_events = instance_events.iter().sum::<u64>() as f64 / INSTANCES as f64;
    let events_per_s = mean_events / median(&walls);
    let reports = || first.iter().flat_map(|o| &o.reports);
    let attempted: usize = reports().map(|r| r.attempted).sum();
    let completed: usize = reports().map(|r| r.completed).sum();
    let volume: f64 = reports().map(|r| r.attempted_volume).sum();
    let delivered: f64 = reports().map(|r| r.delivered_volume).sum();
    let values = [
        events_per_s,
        median(&setups),
        peak_rss as f64 / (1024.0 * 1024.0),
        completed as f64 / attempted as f64,
        delivered / volume,
    ];
    let rates: Vec<f64> = walls.iter().map(|wall| mean_events / wall).collect();
    let events: Vec<Value> = instance_events.iter().map(|&e| Value::U64(e)).collect();
    Measured {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        detail: obj(vec![
            ("instance_events", Value::Array(events)),
            ("shards", Value::U64(shards as u64)),
            ("wall_s", summary(&walls)),
            ("setup_s", summary(&setups)),
            ("events_per_s", summary(&rates)),
            ("total_s", Value::F64(began.elapsed().as_secs_f64())),
        ]),
        checks,
    }
}

/// `--trace 1`: the traced pass, then the kernel pass.
fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    spans_out: Option<&std::path::Path>,
) -> Measured {
    let began = Instant::now();
    let mut checks = Checks::default();
    let mut layers = Layers::new();
    let seed = instance_seed(seed, 0);
    traced::traced_pass(
        &mut layers,
        &mut checks,
        w,
        seed,
        seconds,
        scratch,
        spans_out,
    );
    let traced_s = began.elapsed().as_secs_f64();
    // ~30 kernels share what a run has left after the traced pass.
    layers::kernel_pass(&mut layers, &mut checks, w, seed, seconds / 160.0);
    let total_s = began.elapsed().as_secs_f64();
    Measured {
        metrics: layers.iter().map(|(m, v)| (m.name, v, m.unit)).collect(),
        detail: obj(vec![
            ("traced_pass_s", Value::F64(traced_s)),
            ("kernel_pass_s", Value::F64(total_s - traced_s)),
            ("total_s", Value::F64(total_s)),
        ]),
        checks,
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// Refuses any `--flag value` pair whose flag is not in `known`.
fn reject_unknown(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .step_by(2)
        .find(|a| !known.contains(&a.as_str()))
    {
        Some(bad) => Err(format!("unknown argument {bad}")),
        None => Ok(()),
    }
}

/// The value at a path of object keys.
fn lookup<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| v.get_field(key))
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("bad value for {name}: {v}"))
        })
        .transpose()
}

/// One workload in this process; prints the detail line, then the result.
fn single(args: &[String]) -> Result<ExitCode, String> {
    reject_unknown(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--spans"],
    )?;
    let name = flag(args, "--workload")?.ok_or("--workload is required")?;
    let w = find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of: {}", names.join(", "))
    })?;
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(1);
    let contract = metrics::contract();
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(contract.run_seconds as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match flag(args, "--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let spans = flag(args, "--spans")?.map(std::path::Path::new);

    let scratch = Scratch::create();
    let measured = if trace {
        per_layer(w, seed, seconds, &scratch, spans)
    } else {
        end_to_end(w, seed, seconds, &scratch)
    };
    let scratch_fs = measure::filesystem_of(scratch.path());
    drop(scratch);

    let checks = &measured.checks;
    let detail = obj(vec![
        ("workload", text(w.name)),
        ("seed", Value::U64(seed)),
        ("trace", Value::Bool(trace)),
        ("seconds", Value::F64(seconds)),
        (
            "host_online_cpus",
            Value::U64(measure::online_cpus() as u64),
        ),
        ("scratch_filesystem", Value::Str(scratch_fs)),
        (
            "failures",
            Value::Array(checks.failures.iter().map(|f| text(f)).collect()),
        ),
        ("detail", measured.detail),
    ]);
    let result = obj(vec![
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::U64(checks.attempted)),
        ("failed", Value::U64(checks.failed)),
        (
            "metrics",
            Value::Object(
                measured
                    .metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        let entry = obj(vec![("value", Value::F64(value)), ("unit", text(unit))]);
                        (name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", serde_json::to_string(&detail).expect("JSON value"));
    println!("{}", serde_json::to_string(&result).expect("JSON value"));
    Ok(if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run::run_all(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        Some(first) if first.starts_with("--") => single(&args),
        _ => Err("no command".to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("spider-benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
