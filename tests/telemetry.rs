//! Telemetry integration tests: trace/report reconciliation, JSONL file
//! round-trips, grid trace determinism, and the disabled-is-free guarantee
//! (a telemetry-off report serializes byte-identically to pre-telemetry
//! builds, pinned by `tests/fixtures/simreport_pre_pr.json`, whose three
//! volumes were rounded to the micro-unit when report volumes became exact
//! micro-unit sums).

use spider::prelude::*;
use spider::telemetry::{bintrace, count_by_kind, events_to_jsonl, parse_jsonl};
use spider_bench::{run_grid, run_scheme, ExperimentConfig, GridConfig, RunMode, SchemeChoice};

fn small_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::isp_quick();
    cfg.num_transactions = 500;
    cfg.duration = 20.0;
    cfg
}

fn kind_count(counts: &[(String, u64)], kind: &str) -> u64 {
    counts
        .iter()
        .find(|(k, _)| k == kind)
        .map(|&(_, n)| n)
        .unwrap_or(0)
}

#[test]
fn trace_events_reconcile_with_report_counters() {
    // Starved capacity so the run exercises abandonment too.
    let mut cfg = small_config();
    cfg.capacity = 300.0;
    let tel = Telemetry::enabled();
    let report = run_scheme(&cfg, SchemeChoice::SpiderWaterfilling, &tel, RunMode::Plain).unwrap();
    let counts = count_by_kind(&tel.events());

    assert_eq!(
        kind_count(&counts, "payment_arrived"),
        report.attempted as u64
    );
    assert_eq!(
        kind_count(&counts, "payment_completed"),
        report.completed as u64
    );
    assert_eq!(
        kind_count(&counts, "payment_abandoned"),
        report.abandoned as u64
    );
    assert_eq!(kind_count(&counts, "unit_sent"), report.units_sent);
    assert!(report.abandoned > 0, "starved run should abandon payments");
    assert!(
        report.completed > 0,
        "starved run should still complete some"
    );

    // The embedded summary agrees with the raw event stream, and the
    // metrics registry agrees with both.
    let summary = report.telemetry.as_ref().expect("telemetry was enabled");
    assert_eq!(summary.events, tel.events().len() as u64);
    assert_eq!(
        summary.event_count("payment_arrived"),
        report.attempted as u64
    );
    assert_eq!(
        summary.metrics.counter("sim.units.sent", ""),
        Some(report.units_sent)
    );
    assert_eq!(
        summary.metrics.counter("sim.payments.completed", ""),
        Some(report.completed as u64)
    );
    assert!(!summary.network_series.is_empty(), "channel sampling ran");

    // Percentiles come from the completion-delay histogram and bracket the
    // mean of a successful run.
    let p = report
        .completion_delay_percentiles
        .expect("completed payments produce percentiles");
    assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    assert!(p.p50 > 0.0);
}

#[test]
fn trace_jsonl_round_trips_through_a_file() {
    let cfg = small_config();
    let tel = Telemetry::enabled();
    let report = run_scheme(&cfg, SchemeChoice::ShortestPath, &tel, RunMode::Plain).unwrap();

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_trace.jsonl");
    std::fs::write(&path, events_to_jsonl(&tel.events())).expect("write trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let events = parse_jsonl(&text).expect("written trace parses");

    assert_eq!(
        events,
        tel.events(),
        "file round-trip preserves every event"
    );
    let counts = count_by_kind(&events);
    assert_eq!(
        kind_count(&counts, "payment_arrived"),
        report.attempted as u64
    );
    assert_eq!(kind_count(&counts, "unit_sent"), report.units_sent);
    assert_eq!(
        kind_count(&counts, "unit_settled") + kind_count(&counts, "unit_refunded"),
        report.units_sent,
        "every sent unit must settle or refund within this window"
    );
}

#[test]
fn queued_engine_traces_reconcile_and_record_queue_depths() {
    use spider::core::{Amount, NodeId, PaymentId};

    // Second hop starts empty toward node 2: units are admitted at the
    // source and must wait in router 1's queue for opposing traffic.
    let mut g = spider::core::Network::new(3);
    g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
        .unwrap();
    g.add_channel_with_balances(NodeId(1), NodeId(2), Amount::ZERO, Amount::from_whole(50))
        .unwrap();
    let tx = |id, src, dst, amount, arrival| Transaction {
        id: PaymentId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        amount: Amount::from_whole(amount),
        arrival,
    };
    let txs = vec![tx(0, 0, 2, 20, 0.1), tx(1, 2, 0, 20, 1.0)];
    let mut cfg = QueuedConfig::new(30.0);
    cfg.deadline = 20.0;
    cfg.telemetry = Telemetry::enabled();
    let out = run_queued(&g, &txs, &cfg);

    let counts = count_by_kind(&cfg.telemetry.events());
    assert_eq!(
        kind_count(&counts, "payment_arrived"),
        out.report.attempted as u64
    );
    assert_eq!(
        kind_count(&counts, "payment_completed"),
        out.report.completed as u64
    );
    assert_eq!(kind_count(&counts, "unit_sent"), out.report.units_sent);
    assert_eq!(
        kind_count(&counts, "unit_queued"),
        out.queues.units_queued as u64
    );
    assert!(out.queues.units_queued > 0, "scenario must exercise queues");

    // Channel samples report real queue depths while units wait.
    let max_sampled_depth = cfg
        .telemetry
        .events()
        .iter()
        .filter_map(|e| match e {
            spider::telemetry::TraceEvent::ChannelSample { queue_depth, .. } => Some(*queue_depth),
            _ => None,
        })
        .max()
        .expect("sampling ran");
    assert!(max_sampled_depth > 0, "queue depth must appear in samples");
}

#[test]
fn disabled_telemetry_report_is_byte_identical_to_pre_pr_fixture() {
    let cfg = small_config();
    let report = run_scheme(
        &cfg,
        SchemeChoice::ShortestPath,
        &Telemetry::disabled(),
        RunMode::Plain,
    )
    .unwrap();
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let fixture = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/simreport_pre_pr.json"
    ))
    .expect("fixture exists");
    assert_eq!(
        json.trim(),
        fixture.trim(),
        "telemetry-off reports must serialize exactly as before the telemetry layer"
    );
}

#[test]
fn grid_traces_are_byte_identical_at_any_worker_count() {
    let mut base = small_config();
    base.num_transactions = 200;
    base.duration = 10.0;
    let mut grid = GridConfig::new(base);
    grid.schemes = vec![SchemeChoice::ShortestPath, SchemeChoice::SpiderWaterfilling];
    grid.trials = 2;
    grid.telemetry = true;

    let serial = run_grid(&grid, 1).unwrap();
    let parallel = run_grid(&grid, 4).unwrap();
    let traces = |result: &spider_bench::GridResult| -> Vec<Vec<u8>> {
        result
            .cells
            .iter()
            .map(|cell| bintrace::encode(&cell.events))
            .collect()
    };

    assert_eq!(serial.cells.len(), 4);
    assert_eq!(
        traces(&serial),
        traces(&parallel),
        "per-cell trace bytes must not depend on the worker count"
    );
    assert_eq!(
        serial.to_json().unwrap(),
        parallel.to_json().unwrap(),
        "grid result JSON must not depend on the worker count"
    );
    for cell in &serial.cells {
        assert!(
            !cell.events.is_empty(),
            "telemetry-on cells must trace events"
        );
    }
}
