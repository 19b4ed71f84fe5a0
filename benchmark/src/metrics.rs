//! The metric tables: every name the benchmark prints, with its unit,
//! direction and kind. `BENCHMARK.json` at the repository root lists the
//! same names; [`contract`] parses it and [`check_contract`] refuses to run
//! when the two disagree, so the file and the program cannot drift apart.

use serde_json::Value;
use std::collections::BTreeMap;

/// Whether a per-layer value is a pure function of the seed (`Count`: must
/// repeat exactly, may carry a claim on its own) or a wall-clock measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Count,
    Time,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Count => "count",
            Kind::Time => "time",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher: bool,
    pub kind: Kind,
}

const fn time(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
        kind: Kind::Time,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
        kind: Kind::Count,
    }
}

const fn higher(mut m: Metric) -> Metric {
    m.higher = true;
    m
}

/// What a user of the simulator sees, per workload.
pub const END_TO_END: [Metric; 5] = [
    higher(time("events_per_s", "1/s")),
    time("setup_s", "s"),
    time("peak_rss_mb", "MB"),
    higher(count("success_ratio", "ratio")),
    higher(count("success_volume", "ratio")),
];

/// Single-layer metrics. Source T = the traced pass over the workload
/// itself, K = direct timing of a public kernel on inputs drawn from the
/// workload. A value of 0 means the layer has no seam on that workload
/// (see the README's per-layer table).
pub const PER_LAYER: [Metric; 81] = [
    // T: spider-sim -> spider-routing boundary.
    count("routing.decide.calls", "count"),
    time("routing.decide.busy_s", "s"),
    time("routing.decide.share", "ratio"),
    count("routing.path_cache.lookups", "count"),
    count("routing.path_cache.computed_pairs", "count"),
    higher(count("routing.path_cache.hit_ratio", "ratio")),
    count("routing.maxflow.queries", "count"),
    count("routing.maxflow.augmenting_paths", "count"),
    // T: one engine run per scheme.
    time("sim.run_s.silentwhispers", "s"),
    time("sim.run_s.speedymurmurs", "s"),
    time("sim.run_s.shortest-path", "s"),
    time("sim.run_s.max-flow", "s"),
    time("sim.run_s.spider-waterfilling", "s"),
    time("sim.run_s.spider-lp", "s"),
    time("routing.build_s.spider-lp", "s"),
    // T: engine self time = run spans minus routing child spans.
    time("sim.engine.self_s", "s"),
    time("sim.engine.ns_per_event", "ns"),
    count("sim.engine.events", "count"),
    count("sim.engine.units_sent", "count"),
    // T: the engines' own phase profiler (max over lanes when sharded).
    time("sim.phase.routing_decision_s", "s"),
    time("sim.phase.unit_dispatch_s", "s"),
    time("sim.phase.settle_refund_s", "s"),
    time("sim.phase.queue_drain_s", "s"),
    time("sim.phase.epoch_compute_s", "s"),
    time("sim.phase.message_merge_s", "s"),
    time("sim.phase.barrier_wait_s", "s"),
    count("sim.queued.units_queued", "count"),
    count("sim.queued.units_dropped", "count"),
    count("sim.queued.max_queue_len", "count"),
    count("sim.queued.mean_wait_sim_s", "s"),
    count("sim.sharded.epochs", "count"),
    count("sim.sharded.msgs_processed", "count"),
    count("sim.sharded.dirty_published", "count"),
    count("sim.sharded.event_imbalance", "ratio"),
    time("sim.sharded.tax_vs_seq", "ratio"),
    higher(time("sim.sharded.speedup_2v1", "ratio")),
    // T: recording layers (isp-observed).
    count("sim.snapshot.count", "count"),
    count("sim.snapshot.bytes_each", "B"),
    time("sim.snapshot.write_s_each", "s"),
    time("sim.snapshot.read_decode_s", "s"),
    time("sim.snapshot.resume_s", "s"),
    count("telemetry.trace.events", "count"),
    time("telemetry.trace.on_over_off", "ratio"),
    time("telemetry.spbt.encode_s", "s"),
    time("telemetry.spbt.decode_s", "s"),
    count("telemetry.spbt.bytes_per_event", "B"),
    time("telemetry.jsonl.encode_s", "s"),
    count("telemetry.jsonl.bytes_per_event", "B"),
    // T: memory.
    time("mem.bytes_per_payment", "B"),
    time("mem.bytes_per_node", "B"),
    // T: instrument check.
    time("bench.trace_overhead", "ratio"),
    // K: kernels on the workload's own network, pairs and arrival times.
    time("sim.events.push_pop_ns", "ns"),
    time("sim.ledger.path_lock_settle_ns", "ns"),
    time("sim.ledger.path_lock_refund_ns", "ns"),
    count("sim.ledger.lock_fail_ratio", "ratio"),
    time("sim.ledger.hop_lock_settle_ns", "ns"),
    time("routing.paths.shortest_us", "us"),
    time("routing.paths.edge_disjoint4_us", "us"),
    time("routing.paths.k_shortest4_us", "us"),
    time("routing.paths.widest4_us", "us"),
    time("routing.path_cache.hit_ns", "ns"),
    time("routing.path_cache.miss_us", "us"),
    time("routing.waterfilling.decision_ns", "ns"),
    time("routing.shortest.decision_ns", "ns"),
    time("routing.lp.decision_ns", "ns"),
    time("routing.maxflow.decision_us", "us"),
    time("routing.landmark.decision_us", "us"),
    time("routing.embedding.decision_us", "us"),
    time("routing.maxflow_over_waterfilling", "ratio"),
    time("opt.maxflow.solve_us", "us"),
    count("opt.maxflow.augmentations", "count"),
    time("opt.simplex.solve_s", "s"),
    count("opt.simplex.path_vars", "count"),
    time("opt.primal_dual.solve_s", "s"),
    count("opt.primal_dual.iters", "count"),
    time("topology.build_us_per_node", "us"),
    time("topology.partition.build_s", "s"),
    time("workload.generate.ns_per_tx", "ns"),
    time("workload.demand_matrix_s", "s"),
    count("workload.distinct_pairs", "count"),
    count("topology.channels", "count"),
];

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Per-layer values of one traced pass; every table entry starts at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Sets a metric; panics on a name the table does not list, so a typo
    /// cannot silently drop a value.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = per_layer(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0.insert(m.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Values in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        PER_LAYER.iter().map(|m| (m, self.get(m.name)))
    }
}

/// `BENCHMARK.json`, compiled in: the bounds `compare` applies and the
/// metric lists the program's own tables must match.
const CONTRACT_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Contract {
    pub run_seconds: u64,
    /// End-to-end metric name -> regression bound (share of the parent's
    /// median).
    pub bounds: BTreeMap<String, f64>,
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get_field(key) {
        Some(Value::Str(s)) => s,
        _ => panic!("BENCHMARK.json: missing string field {key}"),
    }
}

fn array_field<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get_field(key) {
        Some(Value::Array(a)) => a,
        _ => panic!("BENCHMARK.json: missing array field {key}"),
    }
}

/// Parses the compiled-in `BENCHMARK.json` and checks that its workloads
/// and metrics are exactly the program's tables.
pub fn contract() -> Contract {
    let doc: Value = serde_json::from_str(CONTRACT_JSON)
        .unwrap_or_else(|e| panic!("BENCHMARK.json does not parse: {e}"));
    let listed = |key: &str| -> Vec<(String, String, String)> {
        array_field(&doc, key)
            .iter()
            .map(|m| {
                (
                    str_field(m, "name").to_string(),
                    str_field(m, "unit").to_string(),
                    str_field(m, "better").to_string(),
                )
            })
            .collect()
    };
    let table = |ms: &[Metric]| -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| {
                let better = if m.higher { "higher" } else { "lower" };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    };
    assert_eq!(
        listed("end_to_end"),
        table(&END_TO_END),
        "BENCHMARK.json end_to_end differs from the program's table"
    );
    assert_eq!(
        listed("per_layer"),
        table(&PER_LAYER),
        "BENCHMARK.json per_layer differs from the program's table"
    );
    let workloads: Vec<&str> = array_field(&doc, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours, "BENCHMARK.json workloads differ");
    let bounds = array_field(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m
                .get_field("bound")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: end_to_end metric without bound");
            (str_field(m, "name").to_string(), bound)
        })
        .collect();
    let run_seconds = doc
        .get_field("run_seconds")
        .and_then(Value::as_i64)
        .expect("BENCHMARK.json: run_seconds") as u64;
    Contract {
        run_seconds,
        bounds,
    }
}
