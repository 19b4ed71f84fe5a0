//! The generated inputs every table and benchmark workload reads, pinned by
//! CRC-32: the topologies' channel lists and balances, the transaction
//! traces, and the vendored random stream beneath them all.
//!
//! A moved Fig. 6 number then has a named cause. If this test fails, an
//! input changed (a generator or the `rand` stub), and every downstream
//! fixture moves for that reason alone; if it passes and a fixture moved,
//! the behaviour changed. Re-pin a value here only on purpose, naming the
//! input change that moved it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spider::core::{crc32, Enc, Network};
use spider::prelude::*;
use spider::sim::FaultConfig;
use spider::topology::{isp_topology, ripple_topology_scaled};
use spider_bench::ExperimentConfig;

/// Node count, then every channel's endpoints and initial balances (in
/// micro-tokens) in channel-id order.
fn network_crc(network: &Network) -> u32 {
    let mut e = Enc::new();
    e.usize(network.num_nodes());
    for ch in network.channels() {
        e.u32(ch.a.0);
        e.u32(ch.b.0);
        e.i64(ch.balance_a.micros());
        e.i64(ch.balance_b.micros());
    }
    crc32(&e.into_bytes())
}

/// Every transaction's id, endpoints, amount (micro-tokens) and arrival
/// time, in trace order.
fn trace_crc(txs: &[Transaction]) -> u32 {
    let mut e = Enc::new();
    for tx in txs {
        e.u64(tx.id.0);
        e.u32(tx.src.0);
        e.u32(tx.dst.0);
        e.i64(tx.amount.micros());
        e.f64(tx.arrival);
    }
    crc32(&e.into_bytes())
}

/// Checks every `(generator, crc, pinned)` and names each one that moved.
fn assert_pinned(cases: &[(String, u32, u32)]) {
    let moved: Vec<String> = (cases.iter())
        .filter(|(_, crc, pinned)| crc != pinned)
        .map(|(generator, crc, pinned)| {
            format!("{generator}: crc32 {crc:#010x}, pinned {pinned:#010x}")
        })
        .collect();
    assert!(
        moved.is_empty(),
        "generated inputs changed:\n{}",
        moved.join("\n")
    );
}

/// The per-channel capacity of the experiment configs and of every
/// benchmark workload (30 000 tokens), and the seed both use by default
/// (`spider-experiments --seed`, the benchmark's `run --seed`). The
/// benchmark's Ripple workloads run 400, 1,500 and 100,000 nodes.
const CAPACITY: i64 = 30_000;
const SEED: u64 = 1;

fn ripple_case(nodes: usize, pinned: u32) -> (String, u32, u32) {
    let network = ripple_topology_scaled(nodes, Amount::from_whole(CAPACITY), SEED);
    let generator =
        format!("ripple_topology_scaled({nodes} nodes, capacity {CAPACITY}, seed {SEED})");
    (generator, network_crc(&network), pinned)
}

#[test]
fn the_vendored_random_stream_is_pinned() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut e = Enc::new();
    for _ in 0..64 {
        e.u64(rng.next_u64());
    }
    let generator = "vendored rand StdRng::seed_from_u64(42), first 64 next_u64 draws";
    assert_pinned(&[(generator.to_string(), crc32(&e.into_bytes()), 0xbfa2ad5a)]);
}

#[test]
fn the_topologies_and_traces_are_pinned() {
    let (isp, ripple) = (
        ExperimentConfig::isp_quick(),
        ExperimentConfig::ripple_quick(),
    );
    assert_eq!((isp.capacity, isp.seed), (CAPACITY as f64, SEED));
    assert_eq!((ripple.capacity, ripple.seed), (CAPACITY as f64, SEED));
    let isp_network = isp_topology(Amount::from_whole(CAPACITY));
    let ripple_network = ripple.network();
    assert_pinned(&[
        (
            format!("isp_topology(capacity {CAPACITY})"),
            network_crc(&isp_network),
            0x6413fdda,
        ),
        ripple_case(400, 0xbecd4baa),
        ripple_case(1_500, 0x8bd8039a),
        ripple_case(100_000, 0x452bcb32),
        (
            "ExperimentConfig::isp_quick trace (TraceConfig::isp_default, seed 1)".to_string(),
            trace_crc(&isp.trace(&isp_network)),
            0xe5acb154,
        ),
        (
            "ExperimentConfig::ripple_quick trace (TraceConfig::ripple_default, seed 1)"
                .to_string(),
            trace_crc(&ripple.trace(&ripple_network)),
            0x02005da5,
        ),
    ]);
}

/// The grid's seeds: each cell's workload seed (`derive_cell_seed`, the
/// indexed SplitMix64 stream) and the fault seed derived from it, pinned
/// through the fault counters of one stress cell.
#[test]
fn the_grid_cell_and_fault_seeds_are_pinned() {
    let seeds: Vec<u64> = (0..4)
        .map(|i| spider_bench::derive_cell_seed(1, i))
        .collect();
    assert_eq!(
        seeds,
        [
            10451216379200822465,
            13757245211066428519,
            17911839290282890590,
            8196980753821780235
        ],
        "derive_cell_seed(1, 0..4)"
    );

    let mut base = ExperimentConfig::isp_quick();
    base.num_transactions = 500;
    base.duration = 20.0;
    let grid = spider_bench::GridConfig {
        base,
        schemes: vec![spider_bench::SchemeChoice::SpiderWaterfilling],
        capacities: vec![],
        trials: 1,
        audit: false,
        telemetry: false,
        faults: FaultConfig::scenario("stress"),
        outage_rates: Vec::new(),
    };
    let result = spider_bench::run_grid(&grid, 1).expect("the grid runs");
    let stats = result.cells[0].report.faults.expect("a fault plan ran");
    assert_eq!(
        serde_json::to_string(&stats).expect("serializes"),
        concat!(
            r#"{"outages":84,"recoveries":63,"node_crashes":3,"#,
            r#""units_refunded_by_outage":510,"units_dropped":179,"#,
            r#""units_jittered":8909,"units_griefed":97,"retries":271,"#,
            r#""blacklistings":280,"payments_failed":9}"#
        ),
        "fault counters of the 1-trial stress grid's waterfilling cell"
    );
}
