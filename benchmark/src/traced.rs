//! The traced pass (per-layer source T): one extra look at the workload
//! with spans recorded from the benchmark's own files.
//!
//! The only seam into the engines from outside is the `RoutingScheme`
//! trait object `sim::run` takes, so [`TimedScheme`] decorates it and
//! records a span around every `route_unit` / `route_payment` call — the
//! `spider-sim` -> `spider-routing` boundary. Each span's parent is the
//! engine-run span with the same run id; engine self time is the run span
//! minus its child spans. Where no seam exists (`run_queued` and
//! `run_sharded` build their routing internally) the pass reads what the
//! engines' own `Telemetry::profiled()` profiler, `QueueStats` and
//! `SimReport::shards` report.

use crate::checks::Checks;
use crate::measure::{median, peak_rss_bytes, rss_bytes, timed, Scratch};
use crate::metrics::Layers;
use crate::workloads::{
    event_count, execute, resume_observed, setup, snapshots, Engine, Inputs, Outcome, RunOpts,
    Scheme, Workload,
};
use spider::core::{Amount, BalanceView, CoreError, Network, NodeId, Path};
use spider::routing::{
    RoutingScheme, SchemeKind, ShortestPathScheme, UnitDecision, WaterfillingScheme,
};
use spider::sim::snapshot::read_snapshot;
use spider::sim::{run, CheckpointSpec, ShardScheme, SimConfig};
use spider::telemetry::trace::events_to_jsonl;
use spider::telemetry::{bintrace, Telemetry};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The routing call a span covers. Its parent is the `sim.run` span of the
/// same run id, which is rebuilt from `Outcome::runs` when spans are dumped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    RouteUnit,
    RoutePayment,
}

impl SpanName {
    fn label(self) -> &'static str {
        match self {
            SpanName::RouteUnit => "routing.route_unit",
            SpanName::RoutePayment => "routing.route_payment",
        }
    }
}

/// One recorded span, 16 bytes so that millions of them stay cheap to
/// keep; `start_ns` is nanoseconds since the pass began.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start_ns: u64,
    /// Saturates at `u32::MAX` (4.3 s), far beyond any routing call.
    pub dur_ns: u32,
    /// Shared by a run span and every routing span it caused.
    pub run: u16,
    pub name: SpanName,
}

/// Where finished spans collect until the pass ends.
#[derive(Clone)]
pub struct SpanSink {
    origin: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl SpanSink {
    pub fn new() -> SpanSink {
        SpanSink {
            origin: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn append(&self, spans: &mut Vec<Span>) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span sink")
            .append(spans);
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no thread panics while holding the span sink"),
        )
    }
}

/// Decorates a scheme with a span and a count around every routing call.
/// Spans stay in a scheme-local buffer (no lock on the hot path) and move
/// to the sink when the decorator is dropped.
pub struct TimedScheme {
    inner: Box<dyn RoutingScheme>,
    run: u16,
    sink: SpanSink,
    local: Vec<Span>,
}

impl TimedScheme {
    pub fn wrap(
        inner: Box<dyn RoutingScheme>,
        run: u16,
        sink: &SpanSink,
    ) -> Box<dyn RoutingScheme> {
        Box::new(TimedScheme {
            inner,
            run,
            sink: sink.clone(),
            local: Vec::new(),
        })
    }

    fn record(&mut self, name: SpanName, start: Instant, end: Instant) {
        self.local.push(Span {
            start_ns: self.sink.ns(start),
            dur_ns: u32::try_from(end.duration_since(start).as_nanos()).unwrap_or(u32::MAX),
            run: self.run,
            name,
        });
    }
}

impl Drop for TimedScheme {
    fn drop(&mut self) {
        self.sink.append(&mut self.local);
    }
}

impl RoutingScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    fn route_payment(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        amount: Amount,
    ) -> Option<Vec<(Path, Amount)>> {
        let start = Instant::now();
        let out = self
            .inner
            .route_payment(network, balances, src, dst, amount);
        let end = Instant::now();
        self.record(SpanName::RoutePayment, start, end);
        out
    }

    fn route_unit(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
    ) -> UnitDecision {
        let start = Instant::now();
        let out = self.inner.route_unit(network, balances, src, dst, unit);
        let end = Instant::now();
        self.record(SpanName::RouteUnit, start, end);
        out
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, u64)> {
        self.inner.telemetry_stats()
    }

    fn checkpoint_state(&self) -> Option<Vec<u8>> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, network: &Network, bytes: &[u8]) -> Result<(), CoreError> {
        self.inner.restore_state(network, bytes)
    }
}

/// Writes the spans of a pass as tab-separated
/// `id parent run name start_ns end_ns`: the run spans first (their id is
/// their run id, parent `-`), then every routing span with its run span's
/// id as parent.
fn dump_spans(path: &std::path::Path, runs: &[(u64, u64)], spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trun\tname\tstart_ns\tend_ns")?;
    for (id, (start, end)) in runs.iter().enumerate() {
        writeln!(out, "{id}\t-\t{id}\tsim.run\t{start}\t{end}")?;
    }
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            runs.len() + i,
            s.run,
            s.run,
            s.name.label(),
            s.start_ns,
            s.start_ns + u64::from(s.dur_ns)
        )?;
    }
    out.flush()
}

fn sum_stat(schemes: &[Box<dyn RoutingScheme>], name: &str) -> u64 {
    schemes
        .iter()
        .flat_map(|s| s.telemetry_stats())
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .sum()
}

fn set_path_cache(layers: &mut Layers, lookups: u64, computed_pairs: u64) {
    layers.set("routing.path_cache.lookups", lookups as f64);
    layers.set("routing.path_cache.computed_pairs", computed_pairs as f64);
    if lookups > 0 {
        layers.set(
            "routing.path_cache.hit_ratio",
            (lookups - computed_pairs) as f64 / lookups as f64,
        );
    }
}

/// Seconds of one phase from a profiled handle: the global accumulator for
/// the sequential engines, the slowest lane for the sharded one.
fn phase_seconds(telemetry: &Telemetry, phase: &str) -> (f64, u64) {
    let Some(profiler) = telemetry.profiler() else {
        return (0.0, 0);
    };
    let pick = |stats: Vec<spider::telemetry::PhaseWallStat>| {
        stats
            .into_iter()
            .find(|s| s.phase == phase)
            .map_or((0.0, 0), |s| (s.wall_ms / 1e3, s.calls))
    };
    let lanes = profiler.lanes();
    if lanes.is_empty() {
        return pick(profiler.wall_phases());
    }
    lanes
        .into_iter()
        .map(|lane| pick(profiler.lane_wall_phases(lane)))
        .fold((0.0, 0), |a, b| if b.0 > a.0 { b } else { a })
}

/// Untraced reference of the traced pass: repeats of the measured region.
struct Reference {
    /// Whole-region wall of every repeat.
    walls: Vec<f64>,
    /// Per-scheme run seconds of every repeat.
    runs: Vec<Vec<f64>>,
    last: Outcome,
    /// Checkpoint directory of the last repeat (`isp-observed`).
    ckpt_dir: std::path::PathBuf,
}

fn reference(
    checks: &mut Checks,
    w: &Workload,
    seed: u64,
    budget_s: f64,
    scratch: &Scratch,
) -> Reference {
    let began = Instant::now();
    let mut walls = Vec::new();
    let mut runs = Vec::new();
    let mut first_json: Option<String> = None;
    loop {
        let ckpt_dir = scratch.fresh("ckpt");
        let spec = CheckpointSpec::new(w.checkpoint_every(), ckpt_dir.clone());
        let mut inputs = setup(w, seed, w.shards());
        let (wall, out) = timed(|| execute(w, &mut inputs, &w.measured_opts(&spec)));
        let json = out.reports_json();
        match &first_json {
            // The first repeat warms caches and the allocator; not timed.
            None => first_json = Some(json),
            Some(first) => {
                checks.check(*first == json, || {
                    format!("{}: repeat differs from the first", w.name)
                });
                walls.push(wall);
                runs.push(out.runs.iter().map(|r| r.1).collect());
                if walls.len() >= 2 && began.elapsed().as_secs_f64() >= budget_s {
                    return Reference {
                        walls,
                        runs,
                        last: out,
                        ckpt_dir,
                    };
                }
            }
        }
    }
}

/// Runs the traced pass of `w` and fills the T metrics of `layers`.
pub fn traced_pass(
    layers: &mut Layers,
    checks: &mut Checks,
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    spans_out: Option<&std::path::Path>,
) {
    let rss_before = rss_bytes();
    let reference = reference(checks, w, seed, seconds * 0.3, scratch);
    let untraced = median(&reference.walls);
    let reference_json = reference.last.reports_json();

    // Memory the workload added to the process, before any traced run.
    let grown = peak_rss_bytes().saturating_sub(rss_before) as f64;
    layers.set("mem.bytes_per_payment", grown / w.payments as f64);
    layers.set("mem.bytes_per_node", grown / w.nodes() as f64);

    let reports = &reference.last.reports;
    let events = event_count(w, reports);
    layers.set("sim.engine.events", events as f64);
    layers.set(
        "sim.engine.units_sent",
        reports.iter().map(|r| r.units_sent).sum::<u64>() as f64,
    );
    // One engine run per scheme; the queued and sharded engines are one
    // run of the scheme they build internally: the whole region.
    let schemes = w.schemes();
    for (i, scheme) in schemes.iter().enumerate() {
        let per_repeat: Vec<f64> = reference
            .runs
            .iter()
            .filter_map(|r| r.get(i).copied())
            .collect();
        let seconds = if per_repeat.is_empty() {
            untraced
        } else {
            median(&per_repeat)
        };
        layers.set(&format!("sim.run_s.{}", scheme.name()), seconds);
    }

    let traced_wall = match w.engine {
        Engine::Run(_) | Engine::Observed => {
            seam_pass(layers, checks, w, seed, scratch, &reference_json, spans_out)
        }
        Engine::Queued | Engine::Sharded { .. } => {
            profiled_pass(layers, checks, w, seed, &reference_json)
        }
    };
    layers.set("bench.trace_overhead", traced_wall / untraced);

    if let Some(q) = reference.last.queues {
        layers.set("sim.queued.units_queued", q.units_queued as f64);
        layers.set("sim.queued.units_dropped", q.units_dropped as f64);
        layers.set("sim.queued.max_queue_len", q.max_queue_len as f64);
        layers.set("sim.queued.mean_wait_sim_s", q.mean_wait);
    }
    if let Engine::Sharded { scheme, .. } = w.engine {
        if let Some(obs) = &reports[0].shards {
            let sum = |f: fn(&spider::sim::ShardEpochMetrics) -> u64| {
                obs.shards.iter().map(f).sum::<u64>() as f64
            };
            let epochs = obs.shards.first().map_or(0, |s| s.epochs);
            layers.set("sim.sharded.epochs", epochs as f64);
            layers.set("sim.sharded.msgs_processed", sum(|s| s.events_processed));
            layers.set("sim.sharded.dirty_published", sum(|s| s.dirty_published));
            layers.set("sim.sharded.event_imbalance", obs.event_imbalance);
        }
        shard_ratios(layers, w, seed, scheme, untraced);
    }
    if matches!(w.engine, Engine::Observed) {
        observed_layers(layers, w, seed, &reference);
    }
}

/// Traced pass through the `RoutingScheme` seam. Returns the traced wall.
fn seam_pass(
    layers: &mut Layers,
    checks: &mut Checks,
    w: &Workload,
    seed: u64,
    scratch: &Scratch,
    reference_json: &str,
    spans_out: Option<&std::path::Path>,
) -> f64 {
    // Set-up by hand so the Spider-LP solve is timed on its own.
    let network = w.network(seed);
    let trace = w.trace(&network, seed);
    let sink = SpanSink::new();
    let mut schemes = Vec::new();
    for (i, s) in w.schemes().iter().enumerate() {
        let (build_s, scheme) = timed(|| s.build(&network, &trace, w.duration));
        if *s == Scheme::Lp {
            layers.set("routing.build_s.spider-lp", build_s);
        }
        schemes.push(TimedScheme::wrap(scheme, i as u16, &sink));
    }
    let mut inputs = Inputs {
        network,
        trace,
        partition: None,
        schemes,
    };
    let spec = CheckpointSpec::new(w.checkpoint_every(), scratch.fresh("traced"));
    let (wall, out) = timed(|| execute(w, &mut inputs, &w.measured_opts(&spec)));
    checks.check(out.reports_json() == reference_json, || {
        format!("{}: tracing changed the reports", w.name)
    });

    set_path_cache(
        layers,
        sum_stat(&inputs.schemes, "routing.paths.lookups"),
        sum_stat(&inputs.schemes, "routing.paths.computed_pairs"),
    );
    layers.set(
        "routing.maxflow.queries",
        sum_stat(&inputs.schemes, "routing.maxflow.queries") as f64,
    );
    layers.set(
        "routing.maxflow.augmenting_paths",
        sum_stat(&inputs.schemes, "routing.maxflow.augmenting_paths") as f64,
    );

    // Dropping the decorators moves their spans to the sink.
    drop(inputs);
    let spans = sink.take();
    let calls = spans.len();
    let busy: f64 = spans.iter().map(|s| f64::from(s.dur_ns) / 1e9).sum();
    let events = event_count(w, &out.reports);
    layers.set("routing.decide.calls", calls as f64);
    layers.set("routing.decide.busy_s", busy);
    layers.set("routing.decide.share", busy / wall);
    layers.set("sim.engine.self_s", wall - busy);
    layers.set(
        "sim.engine.ns_per_event",
        (wall - busy) * 1e9 / events as f64,
    );

    if let Some(path) = spans_out {
        let runs: Vec<(u64, u64)> = out
            .runs
            .iter()
            .map(|(start, secs)| (sink.ns(*start), sink.ns(*start) + (secs * 1e9) as u64))
            .collect();
        if let Err(e) = dump_spans(path, &runs, &spans) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
    wall
}

/// Traced pass for the engines without a seam: their own phase profiler.
/// Returns the profiled wall.
fn profiled_pass(
    layers: &mut Layers,
    checks: &mut Checks,
    w: &Workload,
    seed: u64,
    reference_json: &str,
) -> f64 {
    // Phase spans only: channel sampling is pushed past the end of the
    // run so the pass times the engine, not the sampler.
    let telemetry = Telemetry::profiled_with_sample_interval(2.0 * w.duration);
    let mut inputs = setup(w, seed, w.shards());
    let (wall, mut out) = timed(|| execute(w, &mut inputs, &RunOpts::with(&telemetry)));
    // Telemetry adds its summary to the report; the simulated outcome
    // underneath must be the one the untraced repeats produced.
    for r in &mut out.reports {
        r.telemetry = None;
        r.completion_delay_percentiles = None;
    }
    checks.check(out.reports_json() == reference_json, || {
        format!("{}: profiling changed the reports", w.name)
    });

    for phase in [
        "routing_decision",
        "unit_dispatch",
        "settle_refund",
        "queue_drain",
        "epoch_compute",
        "message_merge",
        "barrier_wait",
    ] {
        let (seconds, calls) = phase_seconds(&telemetry, phase);
        layers.set(&format!("sim.phase.{phase}_s"), seconds);
        if phase == "routing_decision" && calls > 0 {
            layers.set("routing.decide.calls", calls as f64);
            layers.set("routing.decide.busy_s", seconds);
            layers.set("routing.decide.share", seconds / wall);
        }
    }
    if let Some(registry) = telemetry.registry() {
        set_path_cache(
            layers,
            registry.counter("routing.paths.lookups", ""),
            registry.counter("routing.paths.computed_pairs", ""),
        );
    }
    wall
}

/// `sim.sharded.tax_vs_seq` and `sim.sharded.speedup_2v1`: the same inputs
/// on the sequential engine, on one shard and on two.
fn shard_ratios(layers: &mut Layers, w: &Workload, seed: u64, scheme: ShardScheme, untraced: f64) {
    let wall_at = |shards: usize| {
        if shards == w.shards() {
            return untraced;
        }
        let mut inputs = setup(w, seed, shards);
        timed(|| execute(w, &mut inputs, &RunOpts::plain())).0
    };
    let one = wall_at(1);
    let inputs = setup(w, seed, 1);
    let mut sequential: Box<dyn RoutingScheme> = match scheme {
        ShardScheme::ShortestPath => Box::new(ShortestPathScheme::new()),
        ShardScheme::Waterfilling => Box::new(WaterfillingScheme::new()),
    };
    let cfg = SimConfig::new(w.duration);
    let (seq, _) = timed(|| run(&inputs.network, &inputs.trace, sequential.as_mut(), &cfg));
    layers.set("sim.sharded.tax_vs_seq", one / seq);
    // With one CPU a second shard only adds switching: no claim, value 0.
    if crate::measure::online_cpus() >= 2 {
        layers.set("sim.sharded.speedup_2v1", one / wall_at(2));
    }
}

/// Recording-layer metrics of `isp-observed`.
fn observed_layers(layers: &mut Layers, w: &Workload, seed: u64, reference: &Reference) {
    let run_with = |telemetry: &Telemetry| {
        let mut inputs = setup(w, seed, 1);
        execute(w, &mut inputs, &RunOpts::with(telemetry)).runs[0].1
    };
    let off = run_with(&Telemetry::disabled());
    let telemetry = Telemetry::enabled();
    let on = run_with(&telemetry);
    layers.set("telemetry.trace.on_over_off", on / off);

    let events = telemetry.events();
    let n = events.len().max(1) as f64;
    layers.set("telemetry.trace.events", events.len() as f64);
    let (encode_s, spbt) = timed(|| bintrace::encode(&events));
    layers.set("telemetry.spbt.encode_s", encode_s);
    layers.set("telemetry.spbt.bytes_per_event", spbt.len() as f64 / n);
    let (decode_s, _) = timed(|| bintrace::decode(&spbt));
    layers.set("telemetry.spbt.decode_s", decode_s);
    let (jsonl_s, jsonl) = timed(|| events_to_jsonl(&events));
    layers.set("telemetry.jsonl.encode_s", jsonl_s);
    layers.set("telemetry.jsonl.bytes_per_event", jsonl.len() as f64 / n);

    let snaps = snapshots(&reference.ckpt_dir);
    if snaps.is_empty() {
        return;
    }
    let bytes: u64 = snaps
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let count = snaps.len() as f64;
    layers.set("sim.snapshot.count", count);
    layers.set("sim.snapshot.bytes_each", bytes as f64 / count);
    // Checkpointed minus recorded-only engine run, per snapshot.
    let checkpointed = median(
        &reference
            .runs
            .iter()
            .filter_map(|r| r.first().copied())
            .collect::<Vec<_>>(),
    );
    layers.set("sim.snapshot.write_s_each", (checkpointed - on) / count);

    let second = &snaps[snaps.len().min(2) - 1];
    let (read_s, _) = timed(|| read_snapshot(second));
    layers.set("sim.snapshot.read_decode_s", read_s);
    let (resume_s, _) = timed(|| resume_observed(w, seed, second));
    layers.set("sim.snapshot.resume_s", resume_s);
}
