//! Differential lockdown for crash-safe checkpoint/resume (SPSN snapshots).
//!
//! The contract under test: interrupting a run at *any* snapshot and
//! resuming from it must produce a `SimReport` and telemetry trace
//! byte-identical to the uninterrupted run — including under active fault
//! plans — and corrupt, truncated, or future-version snapshots must be
//! rejected with structured errors, never a panic.

use proptest::prelude::*;
use spider::prelude::*;
use spider::sim::engine::{resume, run_checkpointed};
use spider::sim::{latest_snapshot, CheckpointSpec, FaultConfig, FaultPlan, SnapshotError};
use spider::telemetry::events_to_jsonl;
use spider::workload::{generate, isp_sizes};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Self-cleaning scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "spider-ckpt-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read checkpoint dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".spsn"))
        })
        .collect();
    files.sort();
    files
}

enum Scheme {
    Waterfilling,
    ShortestPath,
    /// Online prices; counts the snapshots taken after a price moved.
    Prices(Arc<AtomicUsize>),
    MaxFlow,
    /// Spider (LP) as solved for the scenario; each run starts from a copy.
    Lp(spider::routing::LpScheme),
}

/// The online price scheme, counting the snapshots it is asked for after a
/// dual update has moved a channel price off zero.
struct PriceProbe {
    inner: spider::routing::PriceScheme,
    priced: Arc<AtomicUsize>,
    channels: u32,
}

impl RoutingScheme for PriceProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    fn route_unit(
        &mut self,
        network: &Network,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
    ) -> UnitDecision {
        self.channels = network.num_channels() as u32;
        self.inner.route_unit(network, balances, src, dst, unit)
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, u64)> {
        self.inner.telemetry_stats()
    }

    fn checkpoint_state(&self) -> Option<Vec<u8>> {
        let moved = (0..self.channels).map(ChannelId).any(|c| {
            [Direction::AtoB, Direction::BtoA]
                .into_iter()
                .any(|d| self.inner.channel_price(c, d) != 0.0)
        });
        if moved {
            self.priced.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, network: &Network, bytes: &[u8]) -> Result<(), CoreError> {
        self.channels = network.num_channels() as u32;
        self.inner.restore_state(network, bytes)
    }
}

fn make_scheme(which: &Scheme) -> Box<dyn RoutingScheme> {
    match which {
        Scheme::Waterfilling => Box::new(WaterfillingScheme::new()),
        Scheme::ShortestPath => Box::new(ShortestPathScheme::new()),
        Scheme::Prices(priced) => Box::new(PriceProbe {
            inner: spider::routing::PriceScheme::new(),
            priced: Arc::clone(priced),
            channels: 0,
        }),
        Scheme::MaxFlow => Box::new(spider::routing::MaxFlowScheme::new()),
        Scheme::Lp(lp) => Box::new(lp.clone()),
    }
}

/// Runs uninterrupted (checkpointing as it goes), then resumes from every
/// snapshot produced and asserts the report JSON and trace JSONL are
/// byte-identical to the straight run.
fn assert_resume_equivalence(
    network: &Network,
    txs: &[Transaction],
    config: &SimConfig,
    which: &Scheme,
    every: u64,
    tag: &str,
) {
    let dir = TempDir::new(tag);

    // Reference run without any checkpointing.
    let (ref_json, ref_trace) = {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let mut scheme = make_scheme(which);
        let report = spider::sim::run(network, txs, scheme.as_mut(), &cfg);
        (
            serde_json::to_string_pretty(&report).expect("report serializes"),
            events_to_jsonl(&tel.events()),
        )
    };

    // Checkpointed run: writing snapshots must not perturb the results.
    {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let mut scheme = make_scheme(which);
        let spec = CheckpointSpec::new(every, dir.path());
        let report =
            run_checkpointed(network, txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
        assert_eq!(
            serde_json::to_string_pretty(&report).expect("report serializes"),
            ref_json,
            "{tag}: checkpointing perturbed the report"
        );
        assert_eq!(
            events_to_jsonl(&tel.events()),
            ref_trace,
            "{tag}: checkpointing perturbed the trace"
        );
    }

    let snapshots = snapshot_files(dir.path());
    assert!(
        !snapshots.is_empty(),
        "{tag}: run produced no snapshots (every={every})"
    );

    // Resume from every snapshot — early, middle, and final alike.
    for snap in &snapshots {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let mut scheme = make_scheme(which);
        let report = resume(network, txs, scheme.as_mut(), &cfg, snap, None)
            .unwrap_or_else(|e| panic!("{tag}: resume from {} failed: {e}", snap.display()));
        assert_eq!(
            serde_json::to_string_pretty(&report).expect("report serializes"),
            ref_json,
            "{tag}: resume from {} diverged (report)",
            snap.display()
        );
        assert_eq!(
            events_to_jsonl(&tel.events()),
            ref_trace,
            "{tag}: resume from {} diverged (trace)",
            snap.display()
        );
    }
}

fn isp_scenario(seed: u64, num_txs: usize) -> (Network, Vec<Transaction>) {
    let network = spider::topology::isp_topology(Amount::from_whole(300));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), num_txs, 15.0);
    trace_cfg.seed = seed;
    let txs = generate(&trace_cfg, &isp_sizes());
    (network, txs)
}

fn full_config(end_time: f64) -> SimConfig {
    let mut cfg = SimConfig::new(end_time);
    cfg.audit = true;
    cfg
}

#[test]
fn waterfilling_resume_is_byte_identical() {
    let (network, txs) = isp_scenario(11, 300);
    assert_resume_equivalence(
        &network,
        &txs,
        &full_config(20.0),
        &Scheme::Waterfilling,
        40,
        "wf",
    );
}

#[test]
fn shortest_path_resume_is_byte_identical() {
    let (network, txs) = isp_scenario(23, 250);
    assert_resume_equivalence(
        &network,
        &txs,
        &full_config(18.0),
        &Scheme::ShortestPath,
        55,
        "sp",
    );
}

#[test]
fn price_scheme_resume_is_byte_identical() {
    let (network, txs) = isp_scenario(5, 250);
    let priced = Arc::new(AtomicUsize::new(0));
    assert_resume_equivalence(
        &network,
        &txs,
        &full_config(18.0),
        &Scheme::Prices(Arc::clone(&priced)),
        50,
        "prices",
    );
    assert!(
        priced.load(Ordering::Relaxed) > 0,
        "no snapshot was taken after a price update"
    );
}

/// Max-flow keeps two work counters that the report lists; before they
/// were checkpointed, a resumed run reported only what it counted itself.
#[test]
fn max_flow_resume_is_byte_identical() {
    let (network, txs) = isp_scenario(13, 250);
    let mut cfg = full_config(18.0);
    cfg.telemetry = Telemetry::enabled();
    assert_resume_equivalence(&network, &txs, &cfg, &Scheme::MaxFlow, 50, "maxflow");
}

/// Spider (LP) spreads a pair's units over its paths by deficit round
/// robin, and every routed unit moves the credits; before they were
/// checkpointed, a resumed run restarted them at zero and chose other paths.
#[test]
fn spider_lp_resume_is_byte_identical() {
    use spider::opt::primal_dual::PrimalDualConfig;
    let (network, txs) = isp_scenario(19, 250);
    let demand = spider::workload::demand_matrix(&txs, 0.0, 15.0);
    let (paths, demand) = spider_bench::lp_candidate_paths(&network, &demand);
    let config = PrimalDualConfig {
        max_iters: 500,
        ..Default::default()
    };
    let lp =
        spider::routing::LpScheme::solve_decentralized(&network, &demand, &paths, 0.5, &config);
    assert!(lp.active_pairs() > 0, "the LP routes nothing");
    assert_resume_equivalence(
        &network,
        &txs,
        &full_config(18.0),
        &Scheme::Lp(lp),
        50,
        "lp",
    );
}

#[test]
fn resume_under_active_fault_plan_is_byte_identical() {
    let (network, txs) = isp_scenario(3, 300);
    let fault_cfg = FaultConfig::scenario("stress").expect("stress scenario exists");
    let mut cfg = full_config(20.0);
    cfg.faults = Some(FaultPlan::from_config(&fault_cfg, &network, 20.0));
    assert_resume_equivalence(&network, &txs, &cfg, &Scheme::Waterfilling, 35, "faults");
}

#[test]
fn resume_with_congestion_rebalance_is_byte_identical() {
    let (network, txs) = isp_scenario(7, 250);
    let mut cfg = full_config(18.0);
    cfg.congestion = true;
    cfg.rebalance = true;
    assert_resume_equivalence(&network, &txs, &cfg, &Scheme::Waterfilling, 45, "extras");
}

/// At 100 tokens a channel most pending payments wait parked on a dry
/// channel side whenever a snapshot is taken. A resumed run rebuilds its
/// wake lists from the restored ledger and may wake a payment the straight
/// run would not; no byte moves, because a skipped ask counts as made.
#[test]
fn resume_with_parked_payments_is_byte_identical() {
    let network = spider::topology::isp_topology(Amount::from_whole(100));
    let mut trace_cfg = TraceConfig::isp_default(network.num_nodes(), 400, 10.0);
    trace_cfg.seed = 29;
    let txs = generate(&trace_cfg, &isp_sizes());
    let mut cfg = full_config(12.0);
    // Every snapshot (each 1 s) falls on a channel sample.
    cfg.telemetry = Telemetry::enabled();
    let report = spider::sim::run(&network, &txs, &mut ShortestPathScheme::new(), &cfg);
    let series = &report
        .telemetry
        .as_ref()
        .expect("telemetry on")
        .network_series;
    let waiting: Vec<u32> = series.iter().map(|s| s.pending).collect();
    assert!(
        waiting.iter().filter(|&&p| p >= 40).count() >= 8,
        "too few payments waiting at the snapshots: {waiting:?}"
    );
    assert_resume_equivalence(&network, &txs, &cfg, &Scheme::ShortestPath, 10, "parked-sp");
    cfg.rebalance = true;
    assert_resume_equivalence(&network, &txs, &cfg, &Scheme::Waterfilling, 10, "parked-wf");
}

/// What a sequential-engine `SEC_CORE` section says about units, read by
/// the SPSN v8 layout documented on `Transport::encode`.
struct CoreUnits {
    /// Units ever sent: slab indices run `0..total`.
    total: usize,
    /// Slab indices of the units stored (the live ones).
    live: Vec<usize>,
    /// Bytes of the units part (`total`, the live count, the live records).
    bytes: usize,
    /// Units named by queued settle and fault-expire events.
    event_units: Vec<usize>,
    /// Each queued event's tag and the section offset of its argument
    /// (for a fault event, of its own tag byte, which the `u32` id follows).
    events: Vec<(u8, usize)>,
    payments: usize,
}

impl CoreUnits {
    fn read(snapshot: &Path) -> (CoreUnits, usize) {
        use spider::core::Dec;
        let snap = spider::sim::snapshot::read_snapshot(snapshot).expect("snapshot reads");
        let core = (snap.section(spider::sim::snapshot::SEC_CORE)).expect("core section");
        let mut d = Dec::new(core);
        d.u64().expect("ticks");
        let channels = d.usize().expect("channel count");
        d.take_raw(channels * 4 * 8).expect("ledger");
        let mut event_units = Vec::new();
        let mut events = Vec::new();
        for _ in 0..d.usize().expect("queued events") {
            d.take_raw(8 + 8).expect("time and sequence number");
            let tag = d.u8().expect("event tag");
            events.push((tag, d.offset()));
            match tag {
                2 | 3 => event_units.push(d.usize().expect("event unit")),
                7 => drop(d.usize().expect("event argument")),
                4 => drop(d.take_raw(1 + 4).expect("fault event")),
                5 | 6 => {}
                other => panic!("a v8 section queues no event with tag {other}"),
            }
        }
        d.u64().expect("next sequence number");
        let payments = d.usize().expect("payments");
        for _ in 0..payments {
            // delivered, inflight, status; delay; sent.
            d.take_raw(8 + 8 + 1).expect("payment");
            d.opt(|d| d.f64()).expect("completion delay");
            d.u32().expect("units sent");
        }
        let pending = d.usize().expect("pending list");
        d.take_raw(pending * 8).expect("pending payments");
        let start = d.offset();
        let total = d.usize().expect("units ever sent");
        let mut live = Vec::new();
        for _ in 0..d.usize().expect("live units") {
            live.push(d.usize().expect("unit index"));
            d.usize().expect("unit payment");
            let nodes = d.usize().expect("path length");
            d.take_raw(4 * nodes + 8 + 1 + 4 + 4).expect("unit body");
        }
        let units = CoreUnits {
            total,
            live,
            bytes: d.offset() - start,
            event_units,
            events,
            payments,
        };
        (units, core.len())
    }

    /// `true` when the event queue still names a unit that has been
    /// settled or refunded, which resume rebuilds as a tombstone.
    fn has_stale_event(&self) -> bool {
        (self.event_units.iter()).any(|u| self.live.binary_search(u).is_err())
    }
}

#[test]
fn resume_over_tombstones_is_byte_identical() {
    // Faults with retries: outages refund units whose settle (or fault
    // expiry) is already queued, so checkpoints catch the queue naming
    // units the snapshot no longer stores.
    let (network, txs) = isp_scenario(3, 300);
    let fault_cfg = FaultConfig::scenario("stress").expect("stress scenario exists");
    assert!(fault_cfg.retry.is_some(), "the scenario retries");
    let mut cfg = full_config(20.0);
    cfg.faults = Some(FaultPlan::from_config(&fault_cfg, &network, 20.0));
    let dir = TempDir::new("tombstones-probe");
    {
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        let spec = CheckpointSpec::new(7, dir.path());
        run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    }
    let stale = (snapshot_files(dir.path()).iter())
        .filter(|snap| CoreUnits::read(snap).0.has_stale_event())
        .count();
    assert!(stale > 0, "no checkpoint caught a stale unit event");
    assert_resume_equivalence(&network, &txs, &cfg, &Scheme::Waterfilling, 7, "tombstones");
}

#[test]
fn core_section_is_bounded_by_live_units_not_units_sent() {
    // A small MTU, so that units far outnumber payments, and the same
    // arrivals (15 s of them) run for one and for two spans of time.
    let (network, txs) = isp_scenario(11, 300);
    let last_core = |end_time: f64| {
        let mut cfg = SimConfig::new(end_time);
        cfg.mtu = Amount::from_whole(1);
        cfg.telemetry = Telemetry::enabled();
        let dir = TempDir::new("core-size");
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        let spec = CheckpointSpec::new(10, dir.path());
        let report = run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec)
            .expect("checkpointed run");
        let last = snapshot_files(dir.path()).pop().expect("a snapshot");
        let (units, core_len) = CoreUnits::read(&last);
        assert!(units.total as u64 <= report.units_sent);
        (units, core_len)
    };
    let (short, short_len) = last_core(7.0);
    let (long, long_len) = last_core(14.0);
    assert!(
        long.total * 2 >= short.total * 3,
        "the longer run sent few more units"
    );
    for (units, core_len) in [(&short, short_len), (&long, long_len)] {
        assert!(units.total >= 20 * units.payments, "units do not dominate");
        // The units part is the live units and nothing else (a record is
        // 33 bytes plus 4 per node of its path, behind its 8-byte index)...
        assert!(units.live.len() * 10 < units.total);
        assert!(units.bytes <= 16 + units.live.len() * (8 + 33 + 4 * 16));
        // ...so the whole section is smaller than the table of every unit
        // ever sent (41 bytes for a one-hop unit) used to be on its own.
        assert!(
            core_len < 41 * units.total,
            "{core_len} B for {} units",
            units.total
        );
    }
    // Nearly twice the units sent, and the units part has not followed.
    assert!(
        long.bytes < short.bytes + short.bytes / 2,
        "{} B after {} B",
        long.bytes,
        short.bytes
    );
}

/// A CRC-valid snapshot whose event queue names a unit, channel or node out
/// of range: the drivers index the unit slab, the rebalance flags and the
/// fault mask with these, so resume must refuse them as `Corrupt` before the
/// run starts. One case per kind the decoder reads, plus the two events a
/// v6 section never queues — an arrival (arrivals are the trace cursor) and
/// a hop-arrive (only the router-queued driver schedules one, and it does
/// not checkpoint) — each a queued settle re-tagged as one.
#[test]
fn queued_event_naming_an_unknown_index_is_corrupt_never_a_panic() {
    use spider::sim::snapshot::{encode_snapshot, read_snapshot, SEC_CORE};
    let (network, txs) = isp_scenario(3, 300);
    let stress = FaultConfig::scenario("stress").expect("stress scenario exists");
    let mut cfg = full_config(20.0);
    cfg.faults = Some(FaultPlan::from_config(&stress, &network, 20.0));
    cfg.rebalance = true;
    let dir = TempDir::new("unknown-index-run");
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    let spec = CheckpointSpec::new(7, dir.path());
    run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");

    // (what, tag of the event found, tag it is forged into, fault tag,
    // out-of-range value; `None` is the snapshot's unit total, the first
    // index no unit has)
    let channels = network.num_channels() as u64;
    let cases = [
        ("arrival", 2, 0, None, Some(0)),
        ("hop-arrive", 2, 1, None, Some(0)),
        ("settle", 2, 2, None, None),
        ("fault-expire", 3, 3, None, None),
        ("rebalance-apply", 7, 7, None, Some(channels)),
        ("channel-down", 4, 4, Some(0), Some(1 << 20)),
        ("channel-up", 4, 4, Some(1), Some(1 << 20)),
        ("node-down", 4, 4, Some(2), Some(1 << 20)),
        ("node-up", 4, 4, Some(3), Some(1 << 20)),
    ];
    for (what, tag, forged, fault_tag, value) in cases {
        let found = snapshot_files(dir.path()).iter().find_map(|path| {
            let snap = read_snapshot(path).expect("snapshot reads");
            let core = snap.section(SEC_CORE).expect("core section").to_vec();
            let (units, _) = CoreUnits::read(path);
            let &(_, at) = (units.events.iter())
                .find(|&&(t, at)| t == tag && fault_tag.is_none_or(|f| core[at] == f))?;
            Some((snap, core, at, units.total as u64))
        });
        let (snap, mut core, at, total) =
            found.unwrap_or_else(|| panic!("no snapshot queues a {what} event"));
        let value = value.unwrap_or(total);
        core[at - 1] = forged;
        match fault_tag {
            Some(_) => core[at + 1..at + 5].copy_from_slice(&(value as u32).to_le_bytes()),
            None => core[at..at + 8].copy_from_slice(&value.to_le_bytes()),
        }
        let mut sections = snap.sections.clone();
        for (t, bytes) in &mut sections {
            if *t == SEC_CORE {
                *bytes = core.clone();
            }
        }
        let path = dir.path().join(format!("unknown-{what}.spsn"));
        let bytes = encode_snapshot(snap.engine, snap.fingerprint, snap.progress, &sections);
        std::fs::write(&path, bytes).expect("write tampered snapshot");
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        match resume(&network, &txs, scheme.as_mut(), &cfg, &path, None) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
}

/// Damages the `SEC_TELEMETRY` section of a telemetry-on checkpoint and
/// re-seals the file (fresh CRCs), so that only the decoder of the embedded
/// trace can object.
#[test]
fn damaged_embedded_trace_is_corrupt_never_a_panic() {
    use spider::core::crc32;
    use spider::sim::snapshot::{encode_snapshot, read_snapshot, SEC_TELEMETRY};
    let (network, txs) = isp_scenario(17, 150);
    let mut cfg = full_config(12.0);
    cfg.telemetry = Telemetry::enabled();
    let dir = TempDir::new("trace-damage");
    {
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        let spec = CheckpointSpec::new(50, dir.path());
        run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    }
    let snap_path = snapshot_files(dir.path()).pop().expect("a snapshot");
    let snap = read_snapshot(&snap_path).expect("snapshot reads");
    let section = snap.section(SEC_TELEMETRY).expect("telemetry section");

    // The log is the section's last field: `count: u64`, then the `SPBT`
    // file behind its `u64` length.
    let spbt_at = (section.windows(4).position(|w| w == b"SPBT")).expect("embedded SPBT file");
    let (count_at, len_at) = (spbt_at - 16, spbt_at - 8);
    let spbt = &section[spbt_at..];
    let header_len = spider::telemetry::bintrace::encode(&[]).len();
    let block_len = |at: usize| {
        let len = u32::from_le_bytes(spbt[at..at + 4].try_into().expect("four bytes"));
        8 + len as usize
    };
    let first_block_end = header_len + block_len(header_len);
    assert!(first_block_end < spbt.len(), "the log spans several blocks");

    let resume_with = |label: &str, telemetry: Vec<u8>| {
        let mut sections = snap.sections.clone();
        for (tag, bytes) in &mut sections {
            if *tag == SEC_TELEMETRY {
                *bytes = telemetry.clone();
            }
        }
        let bytes = encode_snapshot(snap.engine, snap.fingerprint, snap.progress, &sections);
        let path = dir.path().join(format!("damaged-{label}.spsn"));
        std::fs::write(&path, bytes).expect("write damaged snapshot");
        let mut cfg = cfg.clone();
        cfg.telemetry = Telemetry::enabled();
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        match resume(&network, &txs, scheme.as_mut(), &cfg, &path, None) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("{label}: expected Corrupt, got {other:?}"),
        }
    };
    // The section with its `SPBT` file replaced (and the length fixed up).
    let with_spbt = |spbt: &[u8]| {
        let mut out = section[..spbt_at].to_vec();
        out[len_at..spbt_at].copy_from_slice(&(spbt.len() as u64).to_le_bytes());
        out.extend_from_slice(spbt);
        out
    };

    // Garbage where the blocks were, and no `SPBT` file at all.
    let mut garbage = spbt.to_vec();
    garbage[header_len..].fill(0xA5);
    resume_with("garbage", with_spbt(&garbage));
    resume_with("not-spbt", with_spbt(&[0xA5; 64]));
    // Truncated: inside the header, inside a block, and at a block
    // boundary, where what is left is a valid shorter trace.
    for cut in [
        3,
        header_len - 1,
        header_len + 5,
        first_block_end,
        spbt.len() - 1,
    ] {
        resume_with(&format!("cut-{cut}"), with_spbt(&spbt[..cut]));
    }
    // Absurd counts: of events, of bytes, and (behind a fresh block CRC)
    // of events in the first block.
    let absurd = (u64::MAX >> 8).to_le_bytes();
    for (label, at) in [("count", count_at), ("length", len_at)] {
        let mut tampered = section.to_vec();
        tampered[at..at + 8].copy_from_slice(&absurd);
        resume_with(&format!("absurd-{label}"), tampered);
    }
    let mut tampered = spbt.to_vec();
    let body = header_len + 8..first_block_end;
    tampered[body.start..body.start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&tampered[body.clone()]);
    tampered[body.start - 4..body.start].copy_from_slice(&crc.to_le_bytes());
    resume_with("absurd-block-count", with_spbt(&tampered));

    // The section put back untouched still resumes: the harness is sound.
    let mut cfg = cfg.clone();
    cfg.telemetry = Telemetry::enabled();
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    resume(&network, &txs, scheme.as_mut(), &cfg, &snap_path, None).expect("pristine resumes");
}

/// A checksum-valid `SEC_SCHEME` whose path-cache blob names nodes the
/// network does not have: the finder indexes per-node arrays with them, so
/// `resume` must refuse the blob before computing anything.
#[test]
fn path_cache_naming_unknown_nodes_is_an_error_never_a_panic() {
    use spider::sim::snapshot::{encode_snapshot, read_snapshot, SEC_SCHEME};
    let (network, txs) = isp_scenario(17, 150);
    let cfg = full_config(12.0);
    let dir = TempDir::new("scheme-nodes-run");
    let spec = CheckpointSpec::new(50, dir.path());
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");

    // The last snapshot, its first cached `(src, dst)` overwritten.
    let snap = read_snapshot(&snapshot_files(dir.path()).pop().expect("a snapshot"))
        .expect("snapshot reads");
    let mut sections = snap.sections.clone();
    for (tag, bytes) in &mut sections {
        if *tag == SEC_SCHEME {
            assert_ne!(bytes[..8], [0; 8], "no pair cached yet");
            bytes[8..16].copy_from_slice(&(u64::MAX >> 8).to_le_bytes());
        }
    }
    let path = dir.path().join("unknown-nodes.spsn");
    let bytes = encode_snapshot(snap.engine, snap.fingerprint, snap.progress, &sections);
    std::fs::write(&path, bytes).expect("write tampered snapshot");
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    match resume(&network, &txs, scheme.as_mut(), &cfg, &path, None) {
        Err(SnapshotError::Corrupt { .. } | SnapshotError::Unsupported { .. }) => {}
        other => panic!("expected a structured refusal, got {other:?}"),
    }
}

/// A checksum-valid `SEC_CORE` whose congestion-window table (part 11)
/// names a node the network lacks: the window table is indexed by node, so
/// `resume` must refuse it as `Corrupt` before the run starts. (It used to
/// size a table by the id and abort the process.)
#[test]
fn congestion_window_naming_an_unknown_node_is_corrupt_never_an_abort() {
    use spider::sim::snapshot::{encode_snapshot, read_snapshot, SEC_CORE};
    let (network, txs) = isp_scenario(7, 250);
    let mut cfg = full_config(18.0);
    cfg.congestion = true;
    let dir = TempDir::new("congestion-nodes-run");
    let spec = CheckpointSpec::new(50, dir.path());
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");

    // The core section ends with part 11's windows, 20 bytes each, then
    // part 12: a flag per channel behind its `u64` count, and three words.
    let snap = read_snapshot(&snapshot_files(dir.path())[1]).expect("snapshot reads");
    let mut sections = snap.sections.clone();
    for (tag, bytes) in &mut sections {
        if *tag == SEC_CORE {
            let last_window = bytes.len() - 24 - (8 + network.num_channels()) - 20;
            bytes[last_window..last_window + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
    }
    let path = dir.path().join("unknown-window-node.spsn");
    let bytes = encode_snapshot(snap.engine, snap.fingerprint, snap.progress, &sections);
    std::fs::write(&path, bytes).expect("write tampered snapshot");
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    match resume(&network, &txs, scheme.as_mut(), &cfg, &path, None) {
        Err(SnapshotError::Corrupt { what }) if what.contains("window names node 4294967295") => {}
        other => panic!("expected Corrupt naming the window, got {other:?}"),
    }
}

/// A checksum-valid `SEC_CORE` whose congestion-window table (part 11)
/// miscounts a pair's units in flight: once with a pair's `outstanding`
/// zeroed, once with the pair's entry removed. Either would free window
/// slots that live units still hold (a debug build then panicked with
/// `outcome without outstanding unit`, a release build resumed without a
/// word), so `resume` must refuse both as `Corrupt`.
#[test]
fn congestion_outstanding_disagreeing_with_live_units_is_corrupt() {
    use spider::sim::snapshot::{encode_snapshot, read_snapshot, SEC_CORE};
    let (network, txs) = isp_scenario(7, 250);
    let mut cfg = full_config(18.0);
    cfg.congestion = true;
    let dir = TempDir::new("congestion-outstanding-run");
    let spec = CheckpointSpec::new(50, dir.path());
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");

    // Part 11's windows, 20 bytes each behind their `u64` count, end where
    // part 12 (a flag per channel behind its count, then three words)
    // begins.
    let snap = read_snapshot(&snapshot_files(dir.path())[1]).expect("snapshot reads");
    let core = snap.section(SEC_CORE).expect("core section").to_vec();
    let end = core.len() - 24 - (8 + network.num_channels());
    let word = |at: usize| u64::from_le_bytes(core[at..at + 8].try_into().expect("eight bytes"));
    let count = (1..=end / 20)
        .find(|&n| word(end - 20 * n - 8) == n as u64)
        .expect("window count");
    let first = end - 20 * count;
    let busy = (0..count)
        .map(|i| first + 20 * i)
        .find(|&at| core[at + 16..at + 20] != [0; 4])
        .expect("a pair with units in flight");

    let mut zeroed = core.clone();
    zeroed[busy + 16..busy + 20].copy_from_slice(&[0; 4]);
    let mut dropped = core.clone();
    dropped.drain(busy..busy + 20);
    dropped[first - 8..first].copy_from_slice(&(count as u64 - 1).to_le_bytes());
    for (label, tampered, needle) in [
        ("zeroed", zeroed, "holds 0 units"),
        ("dropped", dropped, "missing for"),
    ] {
        let mut sections = snap.sections.clone();
        for (tag, bytes) in &mut sections {
            if *tag == SEC_CORE {
                bytes.clone_from(&tampered);
            }
        }
        let path = dir.path().join(format!("outstanding-{label}.spsn"));
        let bytes = encode_snapshot(snap.engine, snap.fingerprint, snap.progress, &sections);
        std::fs::write(&path, bytes).expect("write tampered snapshot");
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        match resume(&network, &txs, scheme.as_mut(), &cfg, &path, None) {
            Err(SnapshotError::Corrupt { what }) if what.contains(needle) => {}
            other => panic!("{label}: expected Corrupt naming the window, got {other:?}"),
        }
    }
}

/// Asserts that the snapshot files' frame checksums, in order, are
/// `pinned`. The frame checksum is the CRC32 of the whole file up to its
/// last four bytes, which hold it. (The CRC32 of the *whole* file would pin
/// nothing: over data that ends in its own CRC32 it is 0x2144df1c whatever
/// the data.)
fn assert_frame_checksums(tag: &str, snapshots: &[PathBuf], pinned: &[u32]) {
    let hex = |crcs: &[u32]| -> Vec<String> { crcs.iter().map(|c| format!("{c:#010x}")).collect() };
    let crcs: Vec<u32> = (snapshots.iter())
        .map(|snap| {
            let bytes = std::fs::read(snap).expect("read snapshot");
            let (body, frame) = bytes.split_at(bytes.len() - 4);
            let frame = u32::from_le_bytes(frame.try_into().expect("four bytes"));
            assert_eq!(frame, spider::core::crc32(body), "{tag}: frame checksum");
            frame
        })
        .collect();
    assert_eq!(
        hex(&crcs),
        hex(pinned),
        "{tag}: snapshot bytes changed without a format version bump"
    );
}

/// The continuous-time engine's telemetry-on snapshots, pinned by frame
/// checksum: the core state, the scheme state and the telemetry section
/// (metrics registry and the event log as SPBT) may not drift while
/// `snapshot::FORMAT_VERSION` stays 8. Captured at the v8 bump with this
/// `full_config`.
#[test]
fn sequential_telemetry_snapshot_bytes_are_pinned() {
    let (network, txs) = isp_scenario(31, 250);
    let mut cfg = full_config(15.0);
    cfg.telemetry = Telemetry::enabled();
    let dir = TempDir::new("seq-pinned");
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    let spec = CheckpointSpec::new(20, dir.path());
    run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    let pinned = [
        0xad717da6, 0xe712a605, 0xbda77775, 0x44001dd0, 0xe31c923d, 0x83abe09f, 0xa5d36f53,
    ];
    assert_frame_checksums("seq-pinned", &snapshot_files(dir.path()), &pinned);
}

/// A checkpointed run with congestion control and rebalancing on (the
/// settings `ablations` runs), pinned by frame checksum: the window table,
/// the rebalance flags and events, and the fingerprint that writes the
/// fixed AIMD and rebalancing constants may not drift while
/// `snapshot::FORMAT_VERSION` stays 8. Captured while both were still
/// settable, with the default AIMD window and the aggressive rebalancing
/// policy whose values the constants keep.
#[test]
fn congestion_and_rebalancing_snapshot_bytes_are_pinned() {
    let (network, txs) = isp_scenario(7, 250);
    let mut cfg = full_config(18.0);
    cfg.telemetry = Telemetry::enabled();
    cfg.congestion = true;
    cfg.rebalance = true;
    let dir = TempDir::new("cc-reb-pinned");
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    let spec = CheckpointSpec::new(45, dir.path());
    let report =
        run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    assert_eq!(report.rebalance.transactions, 60);
    let pinned = [0x95df2bdd, 0x9b9051bf, 0x3d6d8fdb, 0x9427d6d4];
    assert_frame_checksums("cc-reb-pinned", &snapshot_files(dir.path()), &pinned);
}

/// Writes `snap`'s header over `sections` into `dir` as
/// `stray-{label}.spsn`, sealed with fresh section and frame checksums, so
/// only the decoders behind the checksums can object.
fn reseal(
    dir: &Path,
    snap: &spider::sim::snapshot::Snapshot,
    label: &str,
    sections: &[(u32, Vec<u8>)],
) -> PathBuf {
    use spider::sim::snapshot::encode_snapshot;
    let bytes = encode_snapshot(snap.engine, snap.fingerprint, snap.progress, sections);
    let path = dir.join(format!("stray-{label}.spsn"));
    std::fs::write(&path, bytes).expect("write re-sealed snapshot");
    path
}

/// Re-seals the first snapshot in `dir` — fresh section and frame
/// checksums — once with a section under the tag v4 retired (4) added, and
/// once with a second `SEC_CORE` taken from the last snapshot. `resume`
/// must refuse both as `Corrupt` naming the tag; readers take the first
/// section with a tag, so before the check the second file resumed, from
/// the first copy, without a word.
fn assert_stray_sections_are_corrupt(
    dir: &Path,
    resume: impl Fn(&Path) -> Result<(), SnapshotError>,
) {
    use spider::sim::snapshot::{read_snapshot, SEC_CORE};
    let files = snapshot_files(dir);
    assert!(files.len() >= 2, "fewer than two snapshots");
    let first = read_snapshot(&files[0]).expect("snapshot reads");
    let last = read_snapshot(&files[files.len() - 1]).expect("snapshot reads");
    let later_core = last.section(SEC_CORE).expect("core section").to_vec();
    let mut retired = first.sections.clone();
    retired.push((4, later_core.clone()));
    let mut twice = first.sections.clone();
    twice.push((SEC_CORE, later_core));
    for (label, sections, needle) in [
        ("retired-tag", retired, "section tag 4 "),
        ("second-core", twice, "section 1 appears more than once"),
    ] {
        match resume(&reseal(dir, &first, label, &sections)) {
            Err(SnapshotError::Corrupt { what }) if what.contains(needle) => {}
            other => panic!("{label}: expected Corrupt naming the tag, got {other:?}"),
        }
    }
    resume(&files[0]).unwrap_or_else(|e| panic!("pristine snapshot: {e}"));
}

#[test]
fn stray_sections_are_corrupt_in_every_engine() {
    let (network, txs) = isp_scenario(17, 150);
    let cfg = full_config(12.0);
    let dir = TempDir::new("stray-run");
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    let spec = CheckpointSpec::new(25, dir.path());
    run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    assert_stray_sections_are_corrupt(dir.path(), |path| {
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        resume(&network, &txs, scheme.as_mut(), &cfg, path, None).map(drop)
    });
}

/// Re-seals the last snapshot in `dir` three times with its telemetry
/// section rewritten: the first counter labelled `"x"`, one gauge added,
/// and the first counter written twice. The registry writes none of these,
/// so `resume` must refuse each as `Corrupt` naming the metric; before the
/// check each resumed, and the report listed the injected entry.
fn assert_foreign_metrics_are_corrupt(
    dir: &Path,
    resume: impl Fn(&Path) -> Result<(), SnapshotError>,
) {
    use spider::core::{Dec, Enc};
    use spider::sim::snapshot::{read_snapshot, SEC_TELEMETRY};
    let path = snapshot_files(dir).pop().expect("a snapshot");
    let snap = read_snapshot(&path).expect("snapshot reads");
    let section = snap.section(SEC_TELEMETRY).expect("telemetry section");
    // `sample_interval: f64`, `profiled: u8`, then the counter seq: a `u64`
    // count and `(name, label, value: u64)` each, then the gauge count.
    let mut d = Dec::new(section);
    d.take_raw(9).expect("section head");
    let count_at = d.offset();
    let count = d.u64().expect("counter count");
    assert!(count > 0, "no counter recorded");
    let first_at = d.offset();
    let (name, _label) = (d.str().expect("name"), d.str().expect("label"));
    let value = d.u64().expect("value");
    let first_end = d.offset();
    for _ in 1..count {
        d.str().expect("name");
        d.str().expect("label");
        d.u64().expect("value");
    }
    let gauges_at = d.offset();

    let mut labelled = Enc::new();
    labelled.str(&name);
    labelled.str("x");
    labelled.u64(value);
    let labelled = [
        &section[..first_at],
        &labelled.into_bytes(),
        &section[first_end..],
    ]
    .concat();
    let mut gauge = Enc::new();
    gauge.u64(1);
    gauge.str("sim.gauge");
    gauge.str("");
    gauge.f64(1.0);
    let gauged = [
        &section[..gauges_at],
        &gauge.into_bytes(),
        &section[gauges_at + 8..],
    ]
    .concat();
    let mut twice = [
        &section[..first_end],
        &section[first_at..first_end],
        &section[first_end..],
    ]
    .concat();
    twice[count_at..count_at + 8].copy_from_slice(&(count + 1).to_le_bytes());

    for (label, telemetry, needle) in [
        ("label", labelled, format!("counter {name} carries label")),
        ("gauge", gauged, "gauge".to_string()),
        ("repeated", twice, format!("counter {name} is repeated")),
    ] {
        let mut sections = snap.sections.clone();
        for (tag, bytes) in &mut sections {
            if *tag == SEC_TELEMETRY {
                *bytes = telemetry.clone();
            }
        }
        match resume(&reseal(dir, &snap, label, &sections)) {
            Err(SnapshotError::Corrupt { what }) if what.contains(&needle) => {}
            other => panic!("{label}: expected Corrupt naming {needle:?}, got {other:?}"),
        }
    }
    resume(&path).unwrap_or_else(|e| panic!("pristine snapshot: {e}"));
}

#[test]
fn telemetry_section_with_a_label_or_gauge_is_corrupt() {
    let (network, txs) = isp_scenario(17, 150);
    let mut cfg = full_config(12.0);
    cfg.telemetry = Telemetry::enabled();
    let dir = TempDir::new("foreign-metrics-run");
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    let spec = CheckpointSpec::new(25, dir.path());
    run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    assert_foreign_metrics_are_corrupt(dir.path(), |path| {
        let mut cfg = cfg.clone();
        cfg.telemetry = Telemetry::enabled();
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        resume(&network, &txs, scheme.as_mut(), &cfg, path, None).map(drop)
    });
}

/// A snapshot whose header names any engine but the one that checkpoints
/// (byte 5; 2 and 3 once named the router-queued and the sharded engine,
/// and are retired), re-sealed with a fresh frame checksum, is refused as
/// `WrongEngine` before any section is read.
#[test]
fn cross_engine_snapshots_are_rejected() {
    let (network, txs) = isp_scenario(11, 150);
    let cfg = full_config(12.0);
    let dir = TempDir::new("cross");
    {
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        let spec = CheckpointSpec::new(25, dir.path());
        run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    }
    let snap = latest_snapshot(dir.path())
        .expect("scan dir")
        .expect("at least one snapshot");
    let bytes = std::fs::read(&snap).expect("read snapshot");
    assert_eq!(bytes[5], 1, "the engine byte");
    for engine in [0, 2, 3, 9] {
        let mut other = bytes.clone();
        other[5] = engine;
        let frame_at = other.len() - 4;
        let frame = spider::core::crc32(&other[..frame_at]);
        other[frame_at..].copy_from_slice(&frame.to_le_bytes());
        let path = dir.path().join(format!("engine-{engine}.spsn"));
        std::fs::write(&path, other).expect("write re-sealed snapshot");
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        match resume(&network, &txs, scheme.as_mut(), &cfg, &path, None) {
            Err(SnapshotError::WrongEngine { expected: 1, found }) if found == engine => {}
            other => panic!("engine byte {engine}: expected WrongEngine, got {other:?}"),
        }
    }
}

#[test]
fn wrong_inputs_are_rejected_structurally() {
    let (network, txs) = isp_scenario(11, 150);
    let cfg = full_config(12.0);
    let dir = TempDir::new("mixup");
    {
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        let spec = CheckpointSpec::new(25, dir.path());
        run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    }
    let snap = latest_snapshot(dir.path())
        .expect("scan dir")
        .expect("at least one snapshot");

    // Different workload seed -> different fingerprint.
    let (_, other_txs) = isp_scenario(12, 150);
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    match resume(&network, &other_txs, scheme.as_mut(), &cfg, &snap, None) {
        Err(SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    // Different scheme -> different fingerprint.
    let mut scheme = make_scheme(&Scheme::ShortestPath);
    match resume(&network, &txs, scheme.as_mut(), &cfg, &snap, None) {
        Err(SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }

    // Different config -> different fingerprint.
    let mut scheme = make_scheme(&Scheme::Waterfilling);
    let mut other_cfg = cfg.clone();
    other_cfg.deadline += 1.0;
    match resume(&network, &txs, scheme.as_mut(), &other_cfg, &snap, None) {
        Err(SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn damaged_snapshots_are_rejected_not_panicked() {
    let (network, txs) = isp_scenario(17, 150);
    let cfg = full_config(12.0);
    let dir = TempDir::new("damage");
    {
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        let spec = CheckpointSpec::new(25, dir.path());
        run_checkpointed(&network, &txs, scheme.as_mut(), &cfg, &spec).expect("checkpointed run");
    }
    let snap = latest_snapshot(dir.path())
        .expect("scan dir")
        .expect("at least one snapshot");
    let bytes = std::fs::read(&snap).expect("read snapshot");

    let try_resume = |raw: &[u8], label: &str| {
        let mangled = dir.path().join(format!("mangled-{label}.bin"));
        std::fs::write(&mangled, raw).expect("write mangled snapshot");
        let mut scheme = make_scheme(&Scheme::Waterfilling);
        resume(&network, &txs, scheme.as_mut(), &cfg, &mangled, None)
            .err()
            .unwrap_or_else(|| panic!("{label}: damaged snapshot was accepted"))
    };

    // Truncations at a spread of byte offsets.
    for cut in [0, 3, 4, 5, 9, 17, bytes.len() / 2, bytes.len() - 1] {
        let _ = try_resume(&bytes[..cut], &format!("trunc-{cut}"));
    }

    // Bit flips across the file, including header and payload bytes.
    let step = (bytes.len() / 23).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x40;
        let _ = try_resume(&flipped, &format!("flip-{pos}"));
    }

    // Any other format version, future or stale: a v5 file (queued
    // arrivals, payment records with their trace row), a v6 file
    // (completion times, not delays) or a v7 file (a run-wide blacklist and
    // a retry heap) must not be parsed with the v8 layout.
    for version in [0xFF, 2, 3, 4, 5, 6, 7] {
        let mut other_version = bytes.clone();
        other_version[4] = version;
        match try_resume(&other_version, &format!("version-{version}")) {
            SnapshotError::UnsupportedVersion {
                found,
                supported: 8,
            } if found == version => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    // Bad magic.
    let mut magic = bytes.clone();
    magic[0] = b'X';
    match try_resume(&magic, "magic") {
        SnapshotError::BadMagic { .. } => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random graph x workload x fault plan x checkpoint cadence: resuming
    /// from every snapshot reproduces the straight run byte-for-byte.
    #[test]
    fn prop_resume_equals_straight_run(
        n in 8usize..24,
        p in 0.2f64..0.5,
        topo_seed in any::<u64>(),
        trace_seed in any::<u64>(),
        num_txs in 30usize..120,
        capacity in 40i64..400,
        every in 5u64..80,
        with_faults in any::<bool>(),
        fault_seed in any::<u64>(),
        outage_rate in 0.0f64..0.4,
        drop_prob in 0.0f64..0.15,
    ) {
        let network = spider::topology::erdos_renyi(
            n, p, Amount::from_whole(capacity), topo_seed,
        );
        if network.num_channels() == 0 {
            return Ok(());
        }
        let mut trace_cfg = TraceConfig::isp_default(n, num_txs, 8.0);
        trace_cfg.seed = trace_seed;
        let txs = generate(&trace_cfg, &isp_sizes());
        let mut cfg = full_config(11.0);
        if with_faults {
            let fc = FaultConfig {
                seed: fault_seed,
                channel_outage_rate: outage_rate,
                unit_drop_prob: drop_prob,
                ..FaultConfig::default()
            };
            cfg.faults = Some(FaultPlan::from_config(&fc, &network, 11.0));
        }
        assert_resume_equivalence(
            &network, &txs, &cfg, &Scheme::Waterfilling, every, "prop",
        );
    }
}
