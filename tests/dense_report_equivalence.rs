//! Fixture-equivalence lockdown for the dense-state refactor.
//!
//! `tests/fixtures/fig6_pre_pr.json` holds the full fig6 report set (all six
//! schemes) produced by the map-keyed build immediately before the dense
//! refactor. The refactor is behavior-preserving, so the dense engines must
//! reproduce every report **field by field** — any divergence names the
//! exact scheme and JSON field that moved.
//!
//! `tests/fixtures/seq_engines_pre_pr.json` does the same for the
//! continuous-time engine's two transports, recorded on the unmodified
//! commit immediately before `engine_queued.rs` was folded into
//! `engine.rs`: three feature-heavy `run` / `run_queued` scenarios whose
//! reports must match field by field and whose traces must match as a
//! multiset of JSONL lines. A fourth, `run_queued` under the `outages`
//! scenario, went when that driver lost its fault injection. The first,
//! `run-congestion-rebalance`, replaced a case that also charged routing
//! fees when the fees went and congestion control and rebalancing became
//! on/off switches over fixed constants: it was recorded on the commit
//! before, with the settable default AIMD window and aggressive
//! rebalancing policy, so it pins that the constants reproduce those
//! settings byte for byte.
//!
//! `tests/fixtures/sharded_pre_pr.json` pins the sharded engine the same
//! way: two `run_sharded` scenarios at 1 and 4 shards each, whose reports
//! must match field by field and whose merged traces (a total order, unlike
//! the sequential engines') must match byte for byte. The waterfilling
//! scenario was recorded on the unmodified commit before its run state,
//! snapshot codec and mirror structs were folded into one `ShardCtx`. The
//! shortest-path scenario was recorded on the commit before the sharded
//! engine lost its fault injection, and replaced one that ran it under the
//! `stress` fault scenario with retries. The file's two router-queued
//! scenarios went when the sharded engine lost its router queues, fees,
//! congestion windows and rebalancing.
//!
//! Both files lost their reports' `series` key when the per-tick success
//! series was retired. The continuous-time engine's attempted, delivered
//! and completed volumes in `seq_engines_pre_pr.json` and
//! `fig6_pre_pr.json` were rounded to the micro-unit when that engine
//! stopped adding per-payment floats and summed them exactly, as the
//! sharded engine always had. The sharded file's network-sample `pending`
//! counts were re-pinned when those samples stopped counting payments that
//! had not yet arrived. The sequential file's `run-stress-faults-retries`
//! case was re-pinned when `run` gave each payment its own blacklist and
//! let a backed-off payment wait for its turn in the scheduling order, as
//! `run_sharded` does (ROADMAP, divergence 2). Every other value in the
//! files is what it was.
//! Every pinned case checks its three volumes against exact sums
//! recomputed from its own trace.

use serde_json::Value;
use spider::prelude::*;
use spider::sim::{FaultConfig, FaultPlan};
use spider::telemetry::{events_to_jsonl, parse_jsonl, TraceEvent};
use spider_bench::{fig6, ExperimentConfig};
use std::collections::BTreeMap;

fn fixture_config() -> ExperimentConfig {
    // Must match the capture config used to record the fixture.
    let mut cfg = ExperimentConfig::isp_quick();
    cfg.num_transactions = 1_000;
    cfg.duration = 20.0;
    cfg.seed = 7;
    cfg
}

/// The six Fig. 6 reports, telemetry off.
fn fig6_reports(cfg: &ExperimentConfig) -> Vec<SimReport> {
    fig6(cfg, false).into_iter().map(|(r, _)| r).collect()
}

/// Recursively diffs two JSON values, collecting the dotted path of every
/// leaf that differs.
fn diff_json(path: &str, pre: &Value, post: &Value, out: &mut Vec<String>) {
    match (pre, post) {
        (Value::Object(a), Value::Object(b)) => {
            for (key, x) in a {
                let p = format!("{path}.{key}");
                match post.get_field(key) {
                    Some(y) => diff_json(&p, x, y, out),
                    None => out.push(format!("{p}: missing in post-refactor report")),
                }
            }
            for (key, _) in b {
                if pre.get_field(key).is_none() {
                    out.push(format!("{path}.{key}: new field absent from fixture"));
                }
            }
        }
        (Value::Array(a), Value::Array(b)) => {
            if a.len() != b.len() {
                out.push(format!("{path}: length {} vs {}", a.len(), b.len()));
            }
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                diff_json(&format!("{path}[{i}]"), x, y, out);
            }
        }
        _ => {
            if pre != post {
                out.push(format!("{path}: {pre:?} vs {post:?}"));
            }
        }
    }
}

#[test]
fn fig6_reports_match_pre_refactor_fixture_field_by_field() {
    let fixture_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/fig6_pre_pr.json"
    ))
    .expect("fixture exists");
    let pre: Vec<Value> = serde_json::from_str(&fixture_text).expect("fixture parses");

    let reports = fig6_reports(&fixture_config());
    assert_eq!(
        pre.len(),
        reports.len(),
        "scheme count changed: the fixture has {} reports",
        pre.len()
    );

    let mut diffs = Vec::new();
    for (pre_report, report) in pre.iter().zip(&reports) {
        let scheme = match pre_report.get_field("scheme") {
            Some(Value::Str(s)) => s.clone(),
            _ => String::from("?"),
        };
        let post = serde_json::to_value(report).expect("report serializes");
        diff_json(&scheme, pre_report, &post, &mut diffs);
    }
    assert!(
        diffs.is_empty(),
        "dense engines diverged from the pre-refactor build on {} field(s):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// The workload every pinned engine scenario runs: ISP-32, 1k payments
/// over 15 s, seed 7. Must match the capture code used to record the
/// `*_engines_pre_pr.json` / `sharded_pre_pr.json` fixtures.
fn pinned_workload() -> (Network, Vec<Transaction>) {
    let network = spider::topology::isp_topology(Amount::from_whole(300));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 1_000, 15.0);
    trace_cfg.seed = 7;
    let txs = spider::workload::generate(&trace_cfg, &spider::workload::isp_sizes());
    (network, txs)
}

/// One pinned case as a JSON object: `name`, the `report`, and the count
/// and CRC-32 of the given trace JSONL lines. The report's three volumes
/// must first equal exact micro-unit sums recomputed from those lines, so
/// every case checks them independently of the engine that summed them.
fn pinned_case(name: &str, report: Value, crc_field: &str, lines: &[&str]) -> Value {
    assert_volumes_are_exact_trace_sums(name, &report, lines);
    let crc = spider::core::crc32(lines.join("\n").as_bytes());
    Value::Object(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("report".to_string(), report),
        ("trace_lines".to_string(), Value::I64(lines.len() as i64)),
        (crc_field.to_string(), Value::I64(i64::from(crc))),
    ])
}

/// Sums, in exact micro-units, every `PaymentArrived` amount, every
/// `UnitSettled` amount and the arrival amounts of the payments with a
/// `PaymentCompleted`, and asserts that the report's attempted, delivered
/// and completed volumes are those sums converted to tokens.
fn assert_volumes_are_exact_trace_sums(name: &str, report: &Value, lines: &[&str]) {
    let events = parse_jsonl(&lines.join("\n")).expect("trace parses");
    let mut arrived = BTreeMap::new();
    let mut completed = Vec::new();
    let mut delivered = Amount::ZERO;
    for event in events {
        match event {
            TraceEvent::PaymentArrived {
                payment, amount, ..
            } => {
                arrived.insert(payment, Amount::from_tokens(amount));
            }
            TraceEvent::UnitSettled { amount, .. } => delivered += Amount::from_tokens(amount),
            TraceEvent::PaymentCompleted { payment, .. } => completed.push(payment),
            _ => {}
        }
    }
    let attempted: Amount = arrived.values().copied().sum();
    let completed: Amount = completed.iter().map(|id| arrived[id]).sum();
    // A `QueuedReport` nests its `SimReport`.
    let report = report.get_field("report").unwrap_or(report);
    for (field, sum) in [
        ("attempted_volume", attempted),
        ("delivered_volume", delivered),
        ("completed_volume", completed),
    ] {
        let reported = report.get_field(field).and_then(Value::as_f64);
        assert_eq!(
            reported.map(f64::to_bits),
            Some(sum.as_tokens().to_bits()),
            "{name}: {field} {reported:?} is not the exact trace sum {}",
            sum.as_tokens()
        );
    }
}

/// Diffs freshly run cases against the fixture `file`, field by field.
fn assert_cases_match_fixture(file: &str, cases: &[Value]) {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    let fixture_text = std::fs::read_to_string(path).expect("fixture exists");
    let pre: Vec<Value> = serde_json::from_str(&fixture_text).expect("fixture parses");
    assert_eq!(pre.len(), cases.len(), "{file}: case count changed");

    let mut diffs = Vec::new();
    for (i, (pinned, case)) in pre.iter().zip(cases).enumerate() {
        diff_json(&format!("case[{i}]"), pinned, case, &mut diffs);
    }
    assert!(
        diffs.is_empty(),
        "the engine diverged from {file} on {} field(s):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// The pinned sequential-engine scenarios: the trace's JSONL lines are
/// sorted before the CRC (so traces compare as a multiset of records, not
/// by order). Telemetry on.
fn seq_engine_cases() -> Vec<Value> {
    let (network, txs) = pinned_workload();
    let end = 20.0;

    let case = |name: &str, tel: &Telemetry, report: Value| {
        let jsonl = events_to_jsonl(&tel.events());
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.sort_unstable();
        pinned_case(name, report, "sorted_trace_crc", &lines)
    };
    let source = |name, tweak: &dyn Fn(&mut SimConfig)| {
        let tel = Telemetry::enabled();
        let mut cfg = SimConfig::new(end);
        cfg.audit = true;
        cfg.telemetry = tel.clone();
        tweak(&mut cfg);
        let report = run(&network, &txs, &mut WaterfillingScheme::new(), &cfg);
        case(
            name,
            &tel,
            serde_json::to_value(&report).expect("serializes"),
        )
    };
    let router = |name| {
        let tel = Telemetry::enabled();
        let mut cfg = QueuedConfig::new(end);
        cfg.telemetry = tel.clone();
        let out = run_queued(&network, &txs, &cfg);
        case(name, &tel, serde_json::to_value(&out).expect("serializes"))
    };

    vec![
        source("run-congestion-rebalance", &|cfg| {
            cfg.congestion = true;
            cfg.rebalance = true;
        }),
        source("run-stress-faults-retries", &|cfg| {
            let stress = FaultConfig::scenario("stress").expect("scenario exists");
            cfg.faults = Some(FaultPlan::from_config(&stress, &network, end));
        }),
        router("run_queued-fifo"),
    ]
}

#[test]
fn sequential_engine_runs_match_pre_fold_fixture() {
    assert_cases_match_fixture("seq_engines_pre_pr.json", &seq_engine_cases());
}

/// The pinned sharded-engine scenarios, each at 1 and 4 shards with
/// auditing and telemetry on. The merged trace is a total order, so its
/// JSONL is hashed as emitted.
fn sharded_engine_cases() -> Vec<Value> {
    let (network, txs) = pinned_workload();
    let end = 20.0;
    type Tweak<'a> = &'a dyn Fn(&mut ShardedConfig);
    let scenarios: [(&str, Tweak); 2] = [
        ("direct-waterfilling", &|_| {}),
        ("direct-shortest", &|cfg| {
            cfg.scheme = ShardScheme::ShortestPath;
        }),
    ];

    let mut cases = Vec::new();
    for (name, tweak) in scenarios {
        for shards in [1usize, 4] {
            let partition = if shards == 1 {
                Partition::single(&network)
            } else {
                Partition::build(&network, shards, 7)
            };
            let tel = Telemetry::enabled();
            let mut cfg = ShardedConfig::new(end);
            cfg.audit = true;
            cfg.telemetry = tel.clone();
            tweak(&mut cfg);
            let report = run_sharded(&network, &txs, &partition, &cfg);
            let jsonl = events_to_jsonl(&tel.events());
            let lines: Vec<&str> = jsonl.lines().collect();
            cases.push(pinned_case(
                &format!("{name}-{shards}"),
                serde_json::to_value(&report).expect("serializes"),
                "trace_crc",
                &lines,
            ));
        }
    }
    cases
}

#[test]
fn sharded_engine_runs_match_pre_pr_fixture() {
    assert_cases_match_fixture("sharded_pre_pr.json", &sharded_engine_cases());
}

/// The same scenario run twice in-process stays identical — the dense
/// structures introduce no run-to-run nondeterminism.
#[test]
fn fig6_reports_are_run_to_run_identical() {
    let cfg = fixture_config();
    let a = fig6_reports(&cfg);
    let b = fig6_reports(&cfg);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "fig6 must be deterministic"
    );
}
