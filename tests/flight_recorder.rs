//! Flight-recorder lockdown: the compact binary trace format and the
//! per-shard observability layer.
//!
//! - JSONL → binary → JSONL is lossless for arbitrary event streams
//!   (proptest over synthetic traces covering every event kind and the
//!   timestamp/amount encodings).
//! - Indexed channel/node/payment/window queries against the binary format
//!   return exactly what a brute-force scan of the JSONL returns, on a real
//!   Fig. 6 trace — and the index actually skips blocks.
//! - Binary traces are byte-identical across `--jobs` worker counts with
//!   fault injection active, and across shard counts (1 vs 4).
//! - `run_sharded` reports expose per-shard epoch metrics, and profiled
//!   runs add barrier-wait histograms.
//! - A profiled telemetry handle changes no report or trace byte on any
//!   engine: the whole report JSON and the trace match a plain run's, and
//!   the wall-clock spans stay in the profiler.

use proptest::prelude::*;
use spider::prelude::*;
use spider::sim::{FaultConfig, ShardedConfig};
use spider::telemetry::bintrace::{self, query, query_with_stats, TraceQuery};
use spider::telemetry::{events_to_jsonl, parse_jsonl, TraceEvent};
use spider::workload::{generate, isp_sizes, TraceConfig};
use spider_bench::{run_grid, run_scheme, ExperimentConfig, GridConfig, RunMode, SchemeChoice};

// ---------------------------------------------------------------------------
// Lossless round-trip (satellite: proptest JSONL -> binary -> JSONL).
// ---------------------------------------------------------------------------

/// Deterministic xorshift so event streams are a pure function of the seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// A finite f64 drawn from the encodings the writer specializes:
    /// whole numbers, centi/micro fixed-point, raw doubles, and the
    /// signed-zero edge case.
    fn amount(&mut self) -> f64 {
        match self.next() % 6 {
            0 => (self.next() % 100_000) as f64,
            1 => (self.next() % 1_000_000) as f64 / 100.0,
            2 => (self.next() % 1_000_000) as f64 / 1e6,
            3 => -((self.next() % 10_000) as f64 / 100.0),
            4 => -0.0,
            _ => f64::from_bits(0x3FF0_0000_0000_0000 | (self.next() & 0x000F_FFFF_FFFF_FFFF)),
        }
    }
}

/// Builds a synthetic trace of `n` events covering every kind, with
/// mostly-monotonic timestamps and deliberate repeats (the `F64_PREV` tag).
fn synthetic_events(seed: u64, n: usize) -> Vec<TraceEvent> {
    let mut g = Gen(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        // Repeat the previous timestamp about a third of the time, the way
        // settle bursts do in real traces.
        if !g.next().is_multiple_of(3) {
            t += (g.next() % 1000) as f64 / 100.0;
        }
        let payment = g.next() % 500;
        let channel = (g.next() % 64) as u32;
        let node = (g.next() % 32) as u32;
        let amount = g.amount();
        let e = match i % 19 {
            0 => TraceEvent::PaymentArrived {
                t,
                payment,
                src: node,
                dst: (node + 1) % 32,
                amount,
            },
            1 => TraceEvent::PaymentSplit {
                t,
                payment,
                units: g.next() % 40,
            },
            2 => TraceEvent::UnitSent {
                t,
                payment,
                amount,
                hops: (g.next() % 6) as u32,
            },
            3 => TraceEvent::UnitSettled { t, payment, amount },
            4 => TraceEvent::UnitRefunded { t, payment, amount },
            5 => TraceEvent::UnitQueued {
                t,
                payment,
                channel,
                depth: (g.next() % 100) as u32,
            },
            6 => TraceEvent::PaymentCompleted {
                t,
                payment,
                delay: g.amount().abs(),
            },
            7 => TraceEvent::PaymentAbandoned {
                t,
                payment,
                delivered: amount,
            },
            8 => TraceEvent::RebalanceApplied {
                t,
                channel,
                moved: amount,
                fee: g.amount().abs(),
            },
            9 => TraceEvent::ChannelSample {
                t,
                channel,
                imbalance: (g.next() % 1000) as f64 / 1000.0,
                inflight: amount,
                queue_depth: (g.next() % 50) as u32,
            },
            10 => TraceEvent::ChannelOutage { t, channel },
            11 => TraceEvent::ChannelRecovered { t, channel },
            12 => TraceEvent::NodeCrashed { t, node },
            13 => TraceEvent::NodeRecovered { t, node },
            14 => TraceEvent::UnitDropped {
                t,
                payment,
                amount,
                channel,
            },
            15 => TraceEvent::UnitGriefed {
                t,
                payment,
                amount,
                hold: (g.next() % 500) as f64 / 10.0,
            },
            16 => TraceEvent::PaymentRetry {
                t,
                payment,
                attempt: (g.next() % 8) as u32,
                backoff: g.amount().abs(),
            },
            17 => TraceEvent::ChannelBlacklisted {
                t,
                channel,
                until: t + g.amount().abs(),
            },
            _ => TraceEvent::SolverSample {
                iter: 1 + g.next() % 100,
                objective: amount,
                residual: g.amount().abs(),
                mean_price: g.amount(),
            },
        };
        out.push(e);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// JSONL -> binary -> JSONL reproduces the input byte for byte, and
    /// decode(encode(events)) reproduces the events structurally.
    #[test]
    fn bintrace_round_trip_is_lossless(seed in any::<u64>(), n in 1usize..400) {
        let events = synthetic_events(seed, n);
        let jsonl = events_to_jsonl(&events);

        let parsed = parse_jsonl(&jsonl)
            .map_err(|(line, e)| TestCaseError::fail(format!("line {line}: {e}")))?;
        let back = bintrace::decode(&bintrace::encode(&parsed))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(&events_to_jsonl(&back), &jsonl, "JSONL round-trip must be byte-lossless");

        let decoded = bintrace::decode(&bintrace::encode(&events))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(decoded, events, "event round-trip must be exact");
    }
}

// ---------------------------------------------------------------------------
// Indexed query == brute-force scan, on a real Fig. 6 trace.
// ---------------------------------------------------------------------------

fn fig6_small_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::isp_quick();
    cfg.num_transactions = 800;
    cfg.duration = 30.0;
    cfg
}

#[test]
fn indexed_queries_match_brute_force_scan_on_fig6_trace() {
    let cfg = fig6_small_config();
    let tel = Telemetry::enabled();
    run_scheme(&cfg, SchemeChoice::SpiderWaterfilling, &tel, RunMode::Plain).unwrap();
    let events = tel.events();
    assert!(!events.is_empty(), "fig6 scenario must trace events");
    let jsonl = events_to_jsonl(&events);
    let bin = bintrace::encode(&events);

    // The acceptance compression bound: the binary format must stay at
    // least 5x smaller than the JSONL of the same trace.
    assert!(
        bin.len() * 5 <= jsonl.len(),
        "binary trace too large: {} bytes vs {} bytes JSONL",
        bin.len(),
        jsonl.len()
    );

    let queries = [
        TraceQuery {
            channel: Some(3),
            ..TraceQuery::default()
        },
        TraceQuery {
            node: Some(5),
            ..TraceQuery::default()
        },
        TraceQuery {
            payment: Some(17),
            ..TraceQuery::default()
        },
        TraceQuery {
            kind: Some("unit_settled".to_string()),
            from: Some(5.0),
            to: Some(20.0),
            ..TraceQuery::default()
        },
        TraceQuery {
            channel: Some(8),
            from: Some(10.0),
            to: Some(15.0),
            ..TraceQuery::default()
        },
        TraceQuery {
            from: Some(2.0),
            to: Some(4.0),
            ..TraceQuery::default()
        },
    ];
    let scanned = parse_jsonl(&jsonl).expect("trace parses");
    assert_eq!(scanned, events, "JSONL scan must see the same events");
    for q in &queries {
        let indexed = query(&bin, q).expect("indexed query succeeds");
        let brute: Vec<TraceEvent> = scanned.iter().filter(|e| q.matches(e)).cloned().collect();
        assert_eq!(
            indexed, brute,
            "indexed query and brute-force scan disagree for {q:?}"
        );
    }

    // A narrow channel+window query must actually use the index: most
    // blocks are skipped without decoding.
    let narrow = TraceQuery {
        channel: Some(8),
        from: Some(10.0),
        to: Some(15.0),
        ..TraceQuery::default()
    };
    let (_, stats) = query_with_stats(&bin, &narrow).expect("query succeeds");
    assert!(
        stats.blocks_scanned < stats.blocks_total,
        "index skipped nothing: scanned {}/{} blocks",
        stats.blocks_scanned,
        stats.blocks_total
    );
}

// ---------------------------------------------------------------------------
// Binary byte-identity across worker counts (under faults) and shard counts.
// ---------------------------------------------------------------------------

#[test]
fn binary_traces_are_byte_identical_across_worker_counts_under_faults() {
    let mut base = fig6_small_config();
    base.num_transactions = 200;
    base.duration = 10.0;
    let mut grid = GridConfig::new(base);
    grid.schemes = vec![SchemeChoice::ShortestPath, SchemeChoice::SpiderWaterfilling];
    grid.trials = 2;
    grid.telemetry = true;
    grid.faults = Some(FaultConfig::scenario("outages").expect("outages scenario exists"));

    let serial = run_grid(&grid, 1).unwrap();
    let parallel = run_grid(&grid, 4).unwrap();
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (i, (a, b)) in serial.cells.iter().zip(&parallel.cells).enumerate() {
        let events = bintrace::decode(&a.spbt).expect("a cell trace decodes");
        assert!(!events.is_empty(), "cell {i} traced nothing");
        assert_eq!(
            a.spbt, b.spbt,
            "cell {i}: binary trace bytes depend on the worker count"
        );
    }
}

fn sharded_scenario() -> (Network, Vec<Transaction>, ShardedConfig) {
    let network = spider::topology::isp_topology(Amount::from_whole(300));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 300, 15.0);
    trace_cfg.seed = 3;
    let txs = generate(&trace_cfg, &isp_sizes());
    (network, txs, ShardedConfig::new(20.0))
}

fn run_sharded_bin(
    network: &Network,
    txs: &[Transaction],
    config: &ShardedConfig,
    shards: usize,
    tel: Telemetry,
) -> (SimReport, Vec<u8>) {
    let partition = if shards <= 1 {
        Partition::single(network)
    } else {
        Partition::build(network, shards, 3)
    };
    let mut cfg = config.clone();
    cfg.telemetry = tel.clone();
    let report = run_sharded(network, txs, &partition, &cfg);
    (report, bintrace::encode(&tel.events()))
}

#[test]
fn binary_traces_are_byte_identical_across_shard_counts() {
    let (network, txs, cfg) = sharded_scenario();
    let (_, bin1) = run_sharded_bin(&network, &txs, &cfg, 1, Telemetry::enabled());
    let (report4, bin4) = run_sharded_bin(&network, &txs, &cfg, 4, Telemetry::enabled());
    assert!(!bin1.is_empty() && bintrace::is_bintrace(&bin1));
    assert_eq!(
        bin1, bin4,
        "binary trace bytes diverged between 1 and 4 shards"
    );

    // Per-shard epoch metrics ride along in memory for shards >= 2 and
    // never enter the serialized report (shard-count independence).
    let obs = report4
        .shards
        .as_ref()
        .expect("sharded runs attach observability");
    assert_eq!(obs.num_shards, 4);
    assert_eq!(obs.shards.len(), 4);
    let owned: u64 = obs.shards.iter().map(|s| s.owned_payments).sum();
    assert_eq!(owned, txs.len() as u64, "every payment has one owner");
    let events: u64 = obs.shards.iter().map(|s| s.events_processed).sum();
    assert!(events > 0, "shards exchanged messages");
    assert!(obs.event_imbalance >= 1.0 && obs.payment_imbalance >= 1.0);
    assert!(
        serde_json::to_string(&report4)
            .expect("report serializes")
            .find("num_shards")
            .is_none(),
        "observability must not leak into serialized reports"
    );
    assert!(!obs.render().is_empty());
}

#[test]
fn profiled_sharded_run_records_barrier_wait_histograms() {
    let (network, txs, cfg) = sharded_scenario();
    let (report, _) = run_sharded_bin(&network, &txs, &cfg, 2, Telemetry::profiled());
    let obs = report.shards.as_ref().expect("observability attached");
    assert_eq!(obs.num_shards, 2);
    for shard in &obs.shards {
        let hist = shard
            .barrier_wait_ms
            .as_ref()
            .expect("profiled runs record barrier waits");
        assert!(hist.count > 0, "shard {} never waited", shard.shard);
        assert!(shard.epochs > 0);
    }
    // Unprofiled runs keep the deterministic counters but no wall-clock.
    let (plain, _) = run_sharded_bin(&network, &txs, &cfg, 2, Telemetry::enabled());
    let plain_obs = plain.shards.as_ref().expect("observability attached");
    assert!(plain_obs.shards.iter().all(|s| s.barrier_wait_ms.is_none()));
}

/// Runs `engine` once with a plain and once with a profiled handle and
/// asserts the two outcomes agree byte for byte, whole report included.
fn assert_profiling_inert(name: &str, engine: impl Fn(Telemetry) -> SimReport) {
    let outcome = |tel: &Telemetry| {
        let report = engine(tel.clone());
        let json = serde_json::to_string(&report).expect("report serializes");
        (json, events_to_jsonl(&tel.events()))
    };
    let (plain, profiled) = (Telemetry::enabled(), Telemetry::profiled());
    let (plain_json, plain_trace) = outcome(&plain);
    let (prof_json, prof_trace) = outcome(&profiled);
    let walls = |tel: &Telemetry| tel.profiler().map(|p| p.wall_phases());
    assert!(walls(&plain).is_none(), "{name}: plain handle profiled");
    assert!(
        walls(&profiled).is_some_and(|w| !w.is_empty()),
        "{name}: profiled handle recorded no span"
    );
    assert!(!plain_trace.is_empty(), "{name}: trace recorded");
    assert_eq!(
        plain_json, prof_json,
        "{name}: profiling changed the report"
    );
    assert_eq!(
        plain_trace, prof_trace,
        "{name}: profiling changed the trace"
    );
}

#[test]
fn profiling_changes_no_report_or_trace_byte() {
    let (network, txs, _) = sharded_scenario();

    assert_profiling_inert("run", |tel| {
        let mut cfg = SimConfig::new(20.0);
        cfg.telemetry = tel;
        run(&network, &txs, &mut WaterfillingScheme::new(), &cfg)
    });
    assert_profiling_inert("run_queued", |tel| {
        let mut cfg = QueuedConfig::new(20.0);
        cfg.telemetry = tel;
        run_queued(&network, &txs, &cfg).report
    });
    assert_profiling_inert("run_sharded", |tel| {
        let mut cfg = ShardedConfig::new(20.0);
        cfg.telemetry = tel;
        run_sharded(&network, &txs, &Partition::build(&network, 2, 3), &cfg)
    });
}
