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
use spider::workload::{generate, isp_sizes};
use std::path::{Path, PathBuf};

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
    Prices,
}

fn make_scheme(which: &Scheme) -> Box<dyn RoutingScheme> {
    match which {
        Scheme::Waterfilling => Box::new(WaterfillingScheme::new()),
        Scheme::ShortestPath => Box::new(ShortestPathScheme::new()),
        Scheme::Prices => Box::new(spider::routing::PriceScheme::with_config(
            spider::routing::PriceConfig {
                window: 32,
                ..Default::default()
            },
        )),
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
            tel.trace_jsonl(),
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
            tel.trace_jsonl(),
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
            tel.trace_jsonl(),
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
    cfg.record_series = true;
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
    assert_resume_equivalence(
        &network,
        &txs,
        &full_config(18.0),
        &Scheme::Prices,
        50,
        "prices",
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
fn resume_with_congestion_rebalance_and_fees_is_byte_identical() {
    let (network, txs) = isp_scenario(7, 250);
    let mut cfg = full_config(18.0);
    cfg.congestion = Some(spider::sim::CongestionConfig::default());
    cfg.rebalance = Some(spider::sim::RebalancePolicy::default());
    cfg.fees = Some(spider::routing::FeeSchedule::uniform(
        &network,
        Amount::from_micros(10),
        100,
    ));
    assert_resume_equivalence(&network, &txs, &cfg, &Scheme::Waterfilling, 45, "extras");
}

#[test]
fn resume_with_amp_is_byte_identical() {
    let (network, txs) = isp_scenario(13, 200);
    let mut cfg = full_config(16.0);
    cfg.amp = true;
    assert_resume_equivalence(&network, &txs, &cfg, &Scheme::Waterfilling, 30, "amp");
}

/// Same contract for the router-queue engine: resume from every snapshot,
/// byte-identical `QueuedReport` and trace.
fn assert_queued_resume_equivalence(
    network: &Network,
    txs: &[Transaction],
    config: &QueuedConfig,
    every: u64,
    tag: &str,
) {
    use spider::sim::engine::{resume_queued, run_queued_checkpointed};
    let dir = TempDir::new(tag);

    let (ref_json, ref_trace) = {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let out = spider::sim::run_queued(network, txs, &cfg);
        (
            serde_json::to_string_pretty(&out).expect("report serializes"),
            tel.trace_jsonl(),
        )
    };

    {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let spec = CheckpointSpec::new(every, dir.path());
        let out = run_queued_checkpointed(network, txs, &cfg, &spec).expect("checkpointed run");
        assert_eq!(
            serde_json::to_string_pretty(&out).expect("report serializes"),
            ref_json,
            "{tag}: checkpointing perturbed the queued report"
        );
        assert_eq!(tel.trace_jsonl(), ref_trace);
    }

    let snapshots = snapshot_files(dir.path());
    assert!(!snapshots.is_empty(), "{tag}: no snapshots (every={every})");
    for snap in &snapshots {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let out = resume_queued(network, txs, &cfg, snap, None)
            .unwrap_or_else(|e| panic!("{tag}: resume from {} failed: {e}", snap.display()));
        assert_eq!(
            serde_json::to_string_pretty(&out).expect("report serializes"),
            ref_json,
            "{tag}: queued resume from {} diverged (report)",
            snap.display()
        );
        assert_eq!(
            tel.trace_jsonl(),
            ref_trace,
            "{tag}: queued resume from {} diverged (trace)",
            snap.display()
        );
    }
}

#[test]
fn queued_engine_resume_is_byte_identical() {
    let (network, txs) = isp_scenario(19, 250);
    let mut cfg = QueuedConfig::new(18.0);
    cfg.deadline = 8.0;
    assert_queued_resume_equivalence(&network, &txs, &cfg, 60, "queued");
}

#[test]
fn queued_engine_resume_under_faults_is_byte_identical() {
    let (network, txs) = isp_scenario(29, 250);
    let fault_cfg = FaultConfig::scenario("outages").expect("outages scenario exists");
    let mut cfg = QueuedConfig::new(18.0);
    cfg.deadline = 8.0;
    cfg.queue_policy = spider::sim::QueuePolicy::EarliestDeadline;
    cfg.faults = Some(FaultPlan::from_config(&fault_cfg, &network, 18.0));
    assert_queued_resume_equivalence(&network, &txs, &cfg, 45, "queued-faults");
}

/// Same contract for the partition-parallel engine: checkpoints taken at
/// the BSP epoch barrier must resume byte-identically at any shard count.
fn assert_sharded_resume_equivalence(
    network: &Network,
    txs: &[Transaction],
    config: &ShardedConfig,
    shards: usize,
    every: u64,
    tag: &str,
) {
    use spider::sim::engine_sharded::{resume_sharded, run_sharded_checkpointed};
    use spider::topology::Partition;
    let dir = TempDir::new(tag);
    let partition = if shards <= 1 {
        Partition::single(network)
    } else {
        Partition::build(network, shards, 7)
    };

    let (ref_json, ref_trace) = {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let report = spider::sim::run_sharded(network, txs, &partition, &cfg);
        (
            serde_json::to_string_pretty(&report).expect("report serializes"),
            tel.trace_jsonl(),
        )
    };

    {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let spec = CheckpointSpec::new(every, dir.path());
        let report = run_sharded_checkpointed(network, txs, &partition, &cfg, &spec)
            .expect("checkpointed run");
        assert_eq!(
            serde_json::to_string_pretty(&report).expect("report serializes"),
            ref_json,
            "{tag}: checkpointing perturbed the sharded report"
        );
        assert_eq!(
            tel.trace_jsonl(),
            ref_trace,
            "{tag}: checkpointing perturbed the sharded trace"
        );
    }

    let snapshots = snapshot_files(dir.path());
    assert!(!snapshots.is_empty(), "{tag}: no snapshots (every={every})");
    for snap in &snapshots {
        let tel = Telemetry::enabled();
        let mut cfg = config.clone();
        cfg.telemetry = tel.clone();
        let report = resume_sharded(network, txs, &partition, &cfg, snap, None)
            .unwrap_or_else(|e| panic!("{tag}: resume from {} failed: {e}", snap.display()));
        assert_eq!(
            serde_json::to_string_pretty(&report).expect("report serializes"),
            ref_json,
            "{tag}: sharded resume from {} diverged (report)",
            snap.display()
        );
        assert_eq!(
            tel.trace_jsonl(),
            ref_trace,
            "{tag}: sharded resume from {} diverged (trace)",
            snap.display()
        );
    }
}

fn sharded_config(end_time: f64) -> ShardedConfig {
    let mut cfg = ShardedConfig::new(end_time);
    cfg.record_series = true;
    cfg.audit = true;
    cfg
}

#[test]
fn sharded_engine_resume_is_byte_identical_single_shard() {
    let (network, txs) = isp_scenario(31, 250);
    assert_sharded_resume_equivalence(&network, &txs, &sharded_config(15.0), 1, 70, "shard1");
}

#[test]
fn sharded_engine_resume_is_byte_identical_four_shards() {
    let (network, txs) = isp_scenario(31, 250);
    assert_sharded_resume_equivalence(&network, &txs, &sharded_config(15.0), 4, 70, "shard4");
}

#[test]
fn sharded_engine_resume_under_faults_is_byte_identical() {
    let (network, txs) = isp_scenario(37, 250);
    let fault_cfg = FaultConfig::scenario("stress").expect("stress scenario exists");
    for shards in [1usize, 4] {
        let mut cfg = sharded_config(15.0);
        cfg.scheme = spider::sim::ShardScheme::ShortestPath;
        cfg.faults = Some(FaultPlan::from_config(&fault_cfg, &network, 15.0));
        assert_sharded_resume_equivalence(
            &network,
            &txs,
            &cfg,
            shards,
            55,
            &format!("shard-faults-{shards}"),
        );
    }
}

/// Sharded config with router queues, fees, congestion control, and
/// rebalancing all active — the feature-parity resume surface.
fn sharded_full_features_config(network: &Network, end_time: f64) -> ShardedConfig {
    let mut cfg = sharded_config(end_time);
    cfg.policy = spider::sim::ShardPolicy::Queued;
    cfg.fees = Some(spider::routing::FeeSchedule::uniform(
        network,
        Amount::from_micros(10),
        1_000,
    ));
    cfg.congestion = Some(spider::sim::CongestionConfig::default());
    cfg.rebalance = Some(spider::sim::RebalancePolicy::aggressive());
    cfg
}

#[test]
fn sharded_full_features_resume_is_byte_identical() {
    // Mid-epoch snapshots carry live queue entries, congestion windows, fee
    // accrual, and pending rebalance confirmations in SEC_SHARD_EXT; resume
    // must reproduce the uninterrupted run byte for byte at 1 and 4 shards.
    let (network, txs) = isp_scenario(43, 250);
    let cfg = sharded_full_features_config(&network, 15.0);
    for shards in [1usize, 4] {
        assert_sharded_resume_equivalence(
            &network,
            &txs,
            &cfg,
            shards,
            55,
            &format!("shard-full-{shards}"),
        );
    }
}

#[test]
fn sharded_ext_section_corruption_is_rejected() {
    use spider::sim::engine_sharded::{resume_sharded, run_sharded_checkpointed};
    use spider::sim::snapshot::{decode_snapshot, encode_snapshot, SEC_SHARD_EXT};
    use spider::topology::Partition;

    let (network, txs) = isp_scenario(47, 200);
    let cfg = sharded_full_features_config(&network, 12.0);
    let dir = TempDir::new("shard-ext-corrupt");
    let partition = Partition::build(&network, 4, 7);
    {
        let spec = CheckpointSpec::new(40, dir.path());
        run_sharded_checkpointed(&network, &txs, &partition, &cfg, &spec)
            .expect("checkpointed run");
    }
    let snap_path = latest_snapshot(dir.path())
        .expect("scan dir")
        .expect("at least one snapshot");
    let snap = decode_snapshot(&std::fs::read(&snap_path).expect("read snapshot"))
        .expect("snapshot decodes");

    // Re-encodes the snapshot with a transformed SEC_SHARD_EXT section
    // (checksums recomputed, so only the structural validation can object)
    // and asserts resume refuses it.
    let resume_with_ext = |label: &str, ext: Option<Vec<u8>>| {
        let mut sections: Vec<(u32, Vec<u8>)> = snap
            .sections
            .iter()
            .filter(|(t, _)| *t != SEC_SHARD_EXT)
            .cloned()
            .collect();
        if let Some(bytes) = ext {
            sections.push((SEC_SHARD_EXT, bytes));
        }
        let bytes = encode_snapshot(snap.engine, snap.fingerprint, snap.progress, &sections);
        let path = dir.path().join(format!("tampered-{label}.spsn"));
        std::fs::write(&path, bytes).expect("write tampered snapshot");
        resume_sharded(&network, &txs, &partition, &cfg, &path, None)
            .err()
            .unwrap_or_else(|| panic!("{label}: tampered SEC_SHARD_EXT was accepted"))
    };

    let ext = snap.section(SEC_SHARD_EXT).expect("ext section present");

    // Dropping the section entirely: queues/fees/windows would be lost.
    match resume_with_ext("missing", None) {
        SnapshotError::MissingSection { .. } => {}
        other => panic!("expected MissingSection, got {other:?}"),
    }

    // Truncations at a spread of offsets must all be caught structurally.
    for cut in [0, 2, ext.len() / 2, ext.len() - 1] {
        match resume_with_ext(&format!("trunc-{cut}"), Some(ext[..cut].to_vec())) {
            SnapshotError::Corrupt { .. } => {}
            other => panic!("trunc-{cut}: expected Corrupt, got {other:?}"),
        }
    }

    // Wrong shard count in the ext header: blob/partition disagreement.
    let mut bad_count = ext.to_vec();
    bad_count[0] ^= 0xFF;
    match resume_with_ext("shard-count", Some(bad_count)) {
        SnapshotError::Corrupt { .. } => {}
        other => panic!("shard-count: expected Corrupt, got {other:?}"),
    }

    // Trailing garbage after a well-formed blob must also be refused.
    let mut padded = ext.to_vec();
    padded.extend_from_slice(&[0xAB; 7]);
    match resume_with_ext("padded", Some(padded)) {
        SnapshotError::Corrupt { .. } => {}
        other => panic!("padded: expected Corrupt, got {other:?}"),
    }

    // The untampered snapshot still resumes: the harness itself is sound.
    resume_sharded(&network, &txs, &partition, &cfg, &snap_path, None)
        .expect("pristine snapshot resumes");
}

#[test]
fn sharded_feature_config_mismatch_is_rejected() {
    // A snapshot captured with features on cannot resume with them off (and
    // vice versa): the fingerprint covers the feature configuration.
    use spider::sim::engine_sharded::{resume_sharded, run_sharded_checkpointed};
    use spider::topology::Partition;
    let (network, txs) = isp_scenario(53, 150);
    let cfg = sharded_full_features_config(&network, 12.0);
    let dir = TempDir::new("shard-feature-mismatch");
    let partition = Partition::build(&network, 2, 7);
    {
        let spec = CheckpointSpec::new(40, dir.path());
        run_sharded_checkpointed(&network, &txs, &partition, &cfg, &spec)
            .expect("checkpointed run");
    }
    let snap = latest_snapshot(dir.path())
        .expect("scan dir")
        .expect("at least one snapshot");
    let plain = sharded_config(12.0);
    match resume_sharded(&network, &txs, &partition, &plain, &snap, None) {
        Err(SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn sharded_snapshot_is_rejected_under_a_different_partition() {
    use spider::sim::engine_sharded::{resume_sharded, run_sharded_checkpointed};
    use spider::topology::Partition;
    let (network, txs) = isp_scenario(41, 150);
    let cfg = sharded_config(12.0);
    let dir = TempDir::new("shard-part");
    {
        let partition = Partition::build(&network, 4, 7);
        let spec = CheckpointSpec::new(40, dir.path());
        run_sharded_checkpointed(&network, &txs, &partition, &cfg, &spec)
            .expect("checkpointed run");
    }
    let snap = latest_snapshot(dir.path())
        .expect("scan dir")
        .expect("at least one snapshot");
    // Payments are owned by `id % num_shards`: per-shard blobs are only
    // valid under the partition that wrote them.
    let other = Partition::build(&network, 2, 7);
    match resume_sharded(&network, &txs, &other, &cfg, &snap, None) {
        Err(SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn cross_engine_snapshots_are_rejected() {
    use spider::sim::engine::resume_queued;
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
    // A sequential-engine snapshot fed to the queued engine must be refused
    // as WrongEngine (or ConfigMismatch if fingerprints differ first).
    let qcfg = QueuedConfig::new(12.0);
    match resume_queued(&network, &txs, &qcfg, &snap, None) {
        Err(SnapshotError::WrongEngine { .. } | SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected WrongEngine/ConfigMismatch, got {other:?}"),
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

    // Any other format version, future or stale: a v2 file must not be
    // parsed with the current layout.
    for version in [0xFF, 2] {
        let mut other_version = bytes.clone();
        other_version[4] = version;
        match try_resume(&other_version, &format!("version-{version}")) {
            SnapshotError::UnsupportedVersion { found, .. } if found == version => {}
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
