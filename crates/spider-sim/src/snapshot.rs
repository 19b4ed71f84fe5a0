//! Versioned engine snapshots for crash-safe checkpoint/resume.
//!
//! The container format (`SPSN`, mirroring the `SPBT` trace versioning rule
//! in DESIGN.md) is a fixed header followed by independently checksummed
//! sections:
//!
//! ```text
//! magic "SPSN" (4) | version u8 | fingerprint u32 | progress u64
//! | section_count u32
//! then per section: tag u32 | len u64 | crc32 u32 | bytes
//! ```
//!
//! - **version** is bumped on any layout change; readers reject every
//!   other version — older or newer — with a structured error instead of
//!   misparsing it.
//! - **fingerprint** is a CRC-32 over the simulation inputs (network shape,
//!   transaction trace, key config fields). Resume recomputes it from its
//!   own inputs and rejects a mismatch, so a snapshot can never be applied
//!   to a different scenario.
//! - **progress** is the run's scheduler tick count; it orders snapshot
//!   files within a directory, and resume restores the count from it.
//!
//! Writes are crash-safe: the file is staged under a temporary name in the
//! target directory, fsynced, atomically renamed into place, and the
//! directory itself is fsynced — a reader never observes a half-written
//! snapshot, and a `kill -9` mid-write leaves at most a stale `.tmp` that
//! [`latest_snapshot`] ignores and the next successful write removes.
//!
//! Decoding never panics. Truncated, bit-flipped, or otherwise corrupt
//! files surface as [`SnapshotError`] values.

use crate::faults::{FaultEvent, FaultState, FaultStateSnapshot};
use crate::payment::PaymentStatus;
use serde::{Deserialize, Serialize};
use spider_core::{crc32, BinError, ChannelId, Dec, Enc, Network, NodeId};
use spider_telemetry::{bintrace, Telemetry, TelemetryState};
use spider_workload::Transaction;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Current snapshot format version. Bump on any layout change.
/// v2: sharded messages carry the unit's deadline epoch, sample partials
/// carry a queue depth, and sharded snapshots gain an extension section
/// (tag 4: queues, fee accrual, congestion windows, rebalance schedule).
/// v3: the sequential and the router-queued engine's snapshots share one
/// [`SEC_CORE`] layout, and the router-queued engine's path cache moves to
/// [`SEC_SCHEME`].
/// v4: a sharded snapshot is one [`SEC_CORE`] section holding one blob per
/// shard; the extension section is retired (tag 4 is not reused) and its
/// contents travel inside each shard's blob.
/// v5: a snapshot carries only what resume needs. The event log in
/// [`SEC_TELEMETRY`] is embedded as `SPBT` bytes (`encode_telemetry`)
/// instead of a JSON string, and [`SEC_CORE`] stores only the units still
/// live, by slab index, plus the count of units ever sent. Within v5 the
/// router-queued and the sharded engine stopped checkpointing: their engine
/// bytes (2, 3) and the sharded layout are retired.
/// v6: [`SEC_CORE`] stores only what the inputs cannot say. Pending
/// arrivals are the trace cursor, not queue entries; a payment record holds
/// what the run changed, not its trace row; unit fates are a pure function
/// of the unit, so no generator state is stored; the always-empty parts
/// (success series, AMP holds, router queues and their statistics) are gone;
/// and the rebalancing totals are exact micro-units.
/// v7: a payment record in [`SEC_CORE`] stores its completion delay (seconds
/// from arrival), not its completion time; no other byte moves.
/// v8: a payment's fault recovery is one record per payment in
/// [`SEC_CORE`] (failures, retry-not-before time, its own blacklist); the
/// run-wide blacklist, the per-payment fail-count and not-before seqs and
/// the retry-timer seq are gone.
/// v9: a snapshot stores each fact once and no constant. The header loses
/// its engine byte (one engine checkpoints); [`SEC_CORE`] loses the tick
/// count (the header's progress), the pending list (the pending payments),
/// the fee slot, both copies of the units sent (the sum of the payments'
/// `sent`), the rebalance flags (the queued applies), the congestion
/// `outstanding` counts (the live units), the ledger's channel count, the
/// recovery record count, and the presence bytes of parts the
/// fingerprinted config decides and of a delay (its status decides);
/// [`SEC_TELEMETRY`] loses the sample interval, the profiled byte, the
/// gauge count and every metric label.
pub const FORMAT_VERSION: u8 = 9;

/// File magic: "SPSN" (SPider SNapshot).
pub const MAGIC: [u8; 4] = *b"SPSN";

/// Pseudo-section id used in [`SnapshotError::CrcMismatch`] when the
/// *frame* checksum fails — the trailing CRC over the whole file that
/// protects the header and section framing.
pub const SEC_FRAME: u32 = 0;

/// Section tag: engine core state, documented on `Transport::encode` in
/// `transport.rs`.
pub const SEC_CORE: u32 = 1;
/// Section tag: the routing scheme's state (may be empty for stateless
/// schemes).
pub const SEC_SCHEME: u32 = 2;
/// Section tag: telemetry state (absent when telemetry is disabled).
pub const SEC_TELEMETRY: u32 = 3;

/// Every section tag a v9 file may carry, each at most once. Decoding
/// refuses any other tag (tag 4, retired in v4, included) as `Corrupt`.
const SECTION_TAGS: [u32; 3] = [SEC_CORE, SEC_SCHEME, SEC_TELEMETRY];

/// Why a snapshot could not be written, read, or applied.
///
/// Every failure mode is a structured variant — corrupt or truncated input
/// never panics the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Which operation (`"create"`, `"write"`, `"rename"`, ...).
        op: &'static str,
        /// The underlying error, stringified.
        error: String,
    },
    /// The file does not start with the `SPSN` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file was written in another format version, older or newer.
    UnsupportedVersion {
        /// Version byte in the file.
        found: u8,
        /// The one version this build reads and writes.
        supported: u8,
    },
    /// The snapshot was taken from different simulation inputs.
    ConfigMismatch {
        /// Fingerprint recomputed from the caller's inputs.
        expected: u32,
        /// Fingerprint recorded in the file.
        found: u32,
    },
    /// A section's checksum does not match its bytes.
    CrcMismatch {
        /// Section tag.
        section: u32,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the section bytes.
        computed: u32,
    },
    /// A required section is missing.
    MissingSection {
        /// The absent section tag.
        section: u32,
    },
    /// The file (or a section) is structurally invalid.
    Corrupt {
        /// What was wrong.
        what: String,
    },
    /// The snapshot is valid but cannot be applied by this configuration
    /// (e.g. a scheme or telemetry handle that does not support restore).
    Unsupported {
        /// What is not supported.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, op, error } => {
                write!(f, "snapshot {op} failed for {}: {error}", path.display())
            }
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot file: bad magic {found:02x?}")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not the supported version {supported}"
            ),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#010x} does not match these inputs ({expected:#010x})"
            ),
            SnapshotError::CrcMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "section {section} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Unsupported { what } => write!(f, "cannot resume: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<BinError> for SnapshotError {
    fn from(err: BinError) -> Self {
        SnapshotError::Corrupt {
            what: err.to_string(),
        }
    }
}

/// Periodic-checkpoint policy for a run.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Checkpoint cadence in scheduler ticks. Clamped to at least 1.
    pub every: u64,
    /// Directory snapshot files are written into (created on demand).
    pub dir: PathBuf,
}

impl CheckpointSpec {
    /// A spec checkpointing every `every` scheduler ticks into `dir`.
    pub fn new(every: u64, dir: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            every: every.max(1),
            dir: dir.into(),
        }
    }
}

/// A decoded snapshot container: header fields plus verified sections.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Input fingerprint recorded at capture time.
    pub fingerprint: u32,
    /// Engine progress counter at capture time.
    pub progress: u64,
    /// `(tag, bytes)` pairs, CRC-verified, in file order.
    pub sections: Vec<(u32, Vec<u8>)>,
}

impl Snapshot {
    /// The bytes of section `tag`, or a [`SnapshotError::MissingSection`].
    pub fn section(&self, tag: u32) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, b)| b.as_slice())
            .ok_or(SnapshotError::MissingSection { section: tag })
    }

    /// The bytes of section `tag`, or `None` when absent.
    pub fn section_opt(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, b)| b.as_slice())
    }

    /// Verifies this snapshot was taken from inputs with `fingerprint`.
    pub fn check(&self, fingerprint: u32) -> Result<(), SnapshotError> {
        if self.fingerprint != fingerprint {
            return Err(SnapshotError::ConfigMismatch {
                expected: fingerprint,
                found: self.fingerprint,
            });
        }
        Ok(())
    }
}

/// Encodes a snapshot container to bytes.
pub fn encode_snapshot(fingerprint: u32, progress: u64, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut e = Enc::new();
    // Header, per-section framing, payloads and the frame CRC: sized once.
    let payload: usize = sections.iter().map(|(_, bytes)| 16 + bytes.len()).sum();
    e.reserve(21 + payload + 4);
    for b in MAGIC {
        e.u8(b);
    }
    e.u8(FORMAT_VERSION);
    e.u32(fingerprint);
    e.u64(progress);
    e.u32(sections.len() as u32);
    for (tag, bytes) in sections {
        e.u32(*tag);
        e.u64(bytes.len() as u64);
        e.u32(crc32(bytes));
        e.bytes_raw(bytes);
    }
    // Frame CRC over everything above: the per-section checksums cover the
    // payloads, this one covers the header and section framing too, so a
    // bit flip anywhere in the file is detected.
    let mut out = e.into_bytes();
    let frame = crc32(&out);
    out.extend_from_slice(&frame.to_le_bytes());
    out
}

/// Decodes and CRC-verifies a snapshot container. A section whose tag is
/// not [`SEC_CORE`], [`SEC_SCHEME`] or [`SEC_TELEMETRY`], or that repeats
/// an earlier section's tag, is [`SnapshotError::Corrupt`] even when its
/// checksums hold.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    // Magic and version are checked on the raw prefix first so a
    // wrong-filetype or other-version file gets its specific error rather
    // than a generic checksum failure.
    if bytes.len() < 4 {
        return corrupt("file shorter than the magic".to_string());
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&bytes[..4]);
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let Some(&version) = bytes.get(4) else {
        return corrupt("file ends before the version byte".to_string());
    };
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    // The last four bytes are a frame CRC over everything before them,
    // covering the header and section framing that the per-section
    // checksums do not.
    if bytes.len() < 9 {
        return corrupt("file ends before the frame checksum".to_string());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let mut stored_frame = [0u8; 4];
    stored_frame.copy_from_slice(tail);
    let stored_frame = u32::from_le_bytes(stored_frame);
    let computed_frame = crc32(body);
    if computed_frame != stored_frame {
        return Err(SnapshotError::CrcMismatch {
            section: SEC_FRAME,
            stored: stored_frame,
            computed: computed_frame,
        });
    }
    let mut d = Dec::new(body);
    (d.take_raw(5)).or_else(|_| corrupt("file shorter than the header".to_string()))?;
    let fingerprint = d.u32()?;
    let progress = d.u64()?;
    let count = d.u32()?;
    let mut sections = Vec::new();
    for _ in 0..count {
        let tag = d.u32()?;
        let len = d.u64()?;
        let stored = d.u32()?;
        let len = usize::try_from(len)
            .or_else(|_| corrupt(format!("section {tag} length {len} exceeds usize")))?;
        if len > d.remaining() {
            return corrupt(format!(
                "section {tag} claims {len} bytes but only {} remain",
                d.remaining()
            ));
        }
        let body = d.take_raw(len)?;
        let computed = crc32(body);
        if computed != stored {
            return Err(SnapshotError::CrcMismatch {
                section: tag,
                stored,
                computed,
            });
        }
        // Readers take the first section with a tag, so a second copy would
        // be ignored silently; a retired or unknown tag would be too.
        if !SECTION_TAGS.contains(&tag) {
            return corrupt(format!(
                "section tag {tag} is not a v{FORMAT_VERSION} section"
            ));
        }
        if sections.iter().any(|&(t, _)| t == tag) {
            return corrupt(format!("section {tag} appears more than once"));
        }
        sections.push((tag, body.to_vec()));
    }
    d.expect_end()?;
    Ok(Snapshot {
        fingerprint,
        progress,
        sections,
    })
}

fn io_err(path: &Path, op: &'static str, error: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.to_path_buf(),
        op,
        error: error.to_string(),
    }
}

/// Writes a snapshot crash-safely into `dir` and returns its path.
///
/// The bytes are staged under a dot-prefixed `.tmp` name, fsynced, renamed
/// atomically to `snap-<progress>.spsn`, and the directory is fsynced so
/// the rename itself is durable. A crash at any point leaves either the
/// previous snapshot set intact or the new file complete — never a torn
/// file under the final name.
pub fn write_snapshot(
    dir: &Path,
    fingerprint: u32,
    progress: u64,
    sections: &[(u32, Vec<u8>)],
) -> Result<PathBuf, SnapshotError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, "create-dir", e))?;
    let bytes = encode_snapshot(fingerprint, progress, sections);
    let name = format!("snap-{progress:012}.spsn");
    let tmp = dir.join(format!(".{name}.tmp"));
    let path = dir.join(&name);
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create", e))?;
        f.write_all(&bytes).map_err(|e| io_err(&tmp, "write", e))?;
        f.sync_all().map_err(|e| io_err(&tmp, "fsync", e))?;
    }
    fs::rename(&tmp, &path).map_err(|e| io_err(&path, "rename", e))?;
    // Make the rename durable: fsync the containing directory.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    remove_stale_tmp(dir);
    Ok(path)
}

/// Deletes the staging files (`.snap-*.spsn.tmp`) that writers killed
/// mid-write left in `dir`. Best effort: they are invisible to
/// [`latest_snapshot`] either way, so every error is ignored.
fn remove_stale_tmp(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if (name.to_str()).is_some_and(|n| n.starts_with(".snap-") && n.ends_with(".spsn.tmp")) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Reads and CRC-verifies a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, "read", e))?;
    decode_snapshot(&bytes)
}

/// The newest fully valid snapshot in `dir` (by progress counter), or
/// `None` when the directory holds no usable snapshot.
///
/// Files that fail magic, version, or CRC validation — e.g. a snapshot torn
/// by power loss on a filesystem without atomic rename — are skipped, so a
/// crash harness always lands on the most recent *consistent* state.
pub fn latest_snapshot(dir: &Path) -> Result<Option<PathBuf>, SnapshotError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(dir, "read-dir", e)),
    };
    let mut candidates: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "spsn")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("snap-"))
        })
        .collect();
    candidates.sort();
    for path in candidates.into_iter().rev() {
        if read_snapshot(&path).is_ok() {
            return Ok(Some(path));
        }
    }
    Ok(None)
}

// ---------------------------------------------------------------------------
// Shared encoding helpers for the engines.

/// A structural decode failure, as the `Err` of whatever is being decoded.
pub(crate) fn corrupt<T>(what: String) -> Result<T, SnapshotError> {
    Err(SnapshotError::Corrupt { what })
}

/// [`Dec::seq`] for element decoders that validate as they go. The
/// reservation is clamped to the bytes that remain, so an absurd count in
/// a checksum-valid file runs into the end of the input instead of the
/// allocator.
pub(crate) fn dec_seq<T>(
    d: &mut Dec,
    mut read: impl FnMut(&mut Dec) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    let n = d.usize()?;
    let mut out = Vec::with_capacity(n.min(d.remaining()));
    for _ in 0..n {
        out.push(read(d)?);
    }
    Ok(out)
}

/// Reads a `usize` that must index into something of length `len`.
pub(crate) fn dec_index(d: &mut Dec, len: usize, what: &str) -> Result<usize, SnapshotError> {
    let i = d.usize()?;
    if i >= len {
        return corrupt(format!("{what} {i} of {len}"));
    }
    Ok(i)
}

pub(crate) fn dec_time(d: &mut Dec, what: &str) -> Result<f64, SnapshotError> {
    let t = d.f64()?;
    if !t.is_finite() {
        return corrupt(format!("non-finite {what} time"));
    }
    Ok(t)
}

/// A payment status byte: 0 pending, 1 completed, 2 abandoned.
pub(crate) fn enc_status(e: &mut Enc, status: PaymentStatus) {
    e.u8(match status {
        PaymentStatus::Pending => 0,
        PaymentStatus::Completed => 1,
        PaymentStatus::Abandoned => 2,
    });
}

pub(crate) fn dec_status(d: &mut Dec) -> Result<PaymentStatus, SnapshotError> {
    match d.u8()? {
        0 => Ok(PaymentStatus::Pending),
        1 => Ok(PaymentStatus::Completed),
        2 => Ok(PaymentStatus::Abandoned),
        other => corrupt(format!("payment status byte {other}")),
    }
}

/// A fault mask: down-cause bytes (length-prefixed), node-down seq of
/// `bool`, stats json.
pub(crate) fn enc_fault_state(e: &mut Enc, state: &FaultState) {
    let snap = state.export_state();
    e.bytes(&snap.down_causes);
    e.seq(&snap.node_down, |e, &b| e.bool(b));
    enc_json(e, &snap.stats);
}

/// Restores a mask written by [`enc_fault_state`] into a state freshly
/// built for the same plan and network.
pub(crate) fn dec_fault_state(d: &mut Dec, state: &mut FaultState) -> Result<(), SnapshotError> {
    let snap = FaultStateSnapshot {
        down_causes: d.bytes()?.to_vec(),
        node_down: d.seq(|d| d.bool())?,
        stats: dec_json(d)?,
    };
    state.restore_state(snap).or_else(corrupt)
}

/// JSON-encodes `v` as a length-prefixed string (used for small serde
/// types whose floats are always finite: audit violations, fault stats).
pub(crate) fn enc_json<T: Serialize>(e: &mut Enc, v: &T) {
    // Serialization of plain data structs cannot fail; an empty string
    // would be rejected at decode, which is the safe direction.
    e.str(&serde_json::to_string(v).unwrap_or_default());
}

/// Decodes a value encoded by [`enc_json`].
pub(crate) fn dec_json<T: Deserialize>(d: &mut Dec) -> Result<T, SnapshotError> {
    let s = d.str()?;
    serde_json::from_str(&s).or_else(|e| corrupt(format!("embedded JSON: {e}")))
}

/// Encodes the [`SEC_TELEMETRY`] section from the live handle, copying its
/// event log in as it is held; a disabled handle encodes as an empty
/// section. The sample interval is not stored: the fingerprint pins it. In
/// order:
///
/// 1. Registry — counters, seq of `(name: str, value: u64)`; histograms,
///    seq of `name, bounds: seq of f64, counts: seq of u64, count: u64,
///    sum, min, max: f64`. Floats travel as raw bits (the extrema of an
///    empty histogram are `±INFINITY`). The registry holds unlabelled
///    counters and histograms only, so no label or gauge is stored, and
///    names ascend strictly within each family; [`decode_telemetry`]
///    refuses anything else.
/// 2. The event log, in emission order: `count: u64`, then the events as
///    one length-prefixed `SPBT` file (`spider_telemetry::bintrace`, which
///    is bit-exact for every event and about 7 bytes each). These are the
///    tracer's own bytes ([`Telemetry::with_spbt`]): its closed blocks and
///    its open block encoded, with blocks every 512 events from the first,
///    so nothing is re-encoded. The count is what catches a log cut at a
///    block boundary, which is still a valid `SPBT` file.
pub(crate) fn encode_telemetry(tel: &Telemetry) -> Vec<u8> {
    let Some(registry) = tel.registry() else {
        return Vec::new();
    };
    let registry = registry.export_state();
    let mut e = Enc::new();
    e.seq(&registry.counters, |e, (name, v)| {
        e.str(name);
        e.u64(*v);
    });
    e.seq(&registry.histograms, |e, (name, h)| {
        e.str(name);
        e.seq(&h.bounds, |e, &b| e.f64(b));
        e.seq(&h.counts, |e, &c| e.u64(c));
        e.u64(h.count);
        e.f64(h.sum);
        e.f64(h.min);
        e.f64(h.max);
    });
    tel.with_spbt(|count, spbt| {
        // The count, the length prefix and one copy of the log.
        e.reserve(16 + spbt.len());
        e.u64(count);
        e.bytes(spbt);
    });
    e.into_bytes()
}

/// Reads one registry family written by [`encode_telemetry`]: a seq of
/// `(name, value)`. A name that does not strictly ascend (the registry
/// writes each name once, in order) is [`SnapshotError::Corrupt`].
fn dec_family<V>(
    d: &mut Dec,
    family: &str,
    mut value: impl FnMut(&mut Dec) -> Result<V, SnapshotError>,
) -> Result<Vec<(String, V)>, SnapshotError> {
    let mut out: Vec<(String, V)> = Vec::new();
    for _ in 0..d.usize()? {
        let name = d.str()?;
        if out.last().is_some_and(|(last, _)| *last >= name) {
            return corrupt(format!("{family} {name} is repeated or out of order"));
        }
        out.push((name, value(d)?));
    }
    Ok(out)
}

/// Decodes a telemetry section written by [`encode_telemetry`].
pub(crate) fn decode_telemetry(bytes: &[u8]) -> Result<Option<TelemetryState>, SnapshotError> {
    if bytes.is_empty() {
        return Ok(None);
    }
    let mut d = Dec::new(bytes);
    let counters = dec_family(&mut d, "counter", |d| Ok(d.u64()?))?;
    let histograms = dec_family(&mut d, "histogram", |d| {
        Ok(spider_telemetry::HistogramState {
            bounds: d.seq(|d| d.f64())?,
            counts: d.seq(|d| d.u64())?,
            count: d.u64()?,
            sum: d.f64()?,
            min: d.f64()?,
            max: d.f64()?,
        })
    })?;
    // A count that disagrees with the log is a cut one (step 2).
    let count = d.u64()?;
    let events =
        bintrace::decode(d.bytes()?).or_else(|e| corrupt(format!("embedded trace: {e}")))?;
    if events.len() as u64 != count {
        return corrupt(format!(
            "embedded trace holds {} events, {count} were recorded",
            events.len()
        ));
    }
    d.expect_end()?;
    Ok(Some(TelemetryState {
        registry: spider_telemetry::RegistryState {
            counters,
            histograms,
        },
        events,
    }))
}

pub(crate) fn enc_fault_event(e: &mut Enc, ev: &FaultEvent) {
    let (tag, id) = match ev {
        FaultEvent::ChannelDown(c) => (0, c.0),
        FaultEvent::ChannelUp(c) => (1, c.0),
        FaultEvent::NodeDown(n) => (2, n.0),
        FaultEvent::NodeUp(n) => (3, n.0),
    };
    e.u8(tag);
    e.u32(id);
}

/// Decodes a fault event written by [`enc_fault_event`], refusing a channel
/// or node that `network` does not have (the fault mask indexes by it).
pub(crate) fn dec_fault_event(d: &mut Dec, network: &Network) -> Result<FaultEvent, SnapshotError> {
    let tag = d.u8()?;
    let id = d.u32()?;
    let (what, len) = match tag {
        0 | 1 => ("channel", network.num_channels()),
        2 | 3 => ("node", network.num_nodes()),
        other => return corrupt(format!("fault event tag {other}")),
    };
    if id as usize >= len {
        return corrupt(format!("fault event names {what} {id} of {len}"));
    }
    Ok(match tag {
        0 => FaultEvent::ChannelDown(ChannelId(id)),
        1 => FaultEvent::ChannelUp(ChannelId(id)),
        2 => FaultEvent::NodeDown(NodeId(id)),
        _ => FaultEvent::NodeUp(NodeId(id)),
    })
}

pub(crate) fn enc_path(e: &mut Enc, path: &spider_core::Path) {
    e.seq(path.nodes(), |e, n| e.u32(n.0));
}

pub(crate) fn dec_path(
    d: &mut Dec,
    network: &Network,
) -> Result<std::sync::Arc<spider_core::Path>, SnapshotError> {
    let nodes = d.seq(|d| Ok(NodeId(d.u32()?)))?;
    spider_core::Path::new(network, nodes)
        .map(std::sync::Arc::new)
        .or_else(|e| corrupt(format!("unit path: {e}")))
}

/// Feeds the shared simulation inputs — network shape and the transaction
/// trace — into a fingerprint encoder. Engines append their own config
/// fields and hash the result with [`crc32`].
pub(crate) fn enc_inputs(e: &mut Enc, network: &Network, transactions: &[Transaction]) {
    e.usize(network.num_nodes());
    e.usize(network.num_channels());
    for ch in network.channels() {
        e.u32(ch.a.0);
        e.u32(ch.b.0);
        e.i64(ch.balance_a.micros());
        e.i64(ch.balance_b.micros());
    }
    e.usize(transactions.len());
    for tx in transactions {
        e.u64(tx.id.0);
        e.u32(tx.src.0);
        e.u32(tx.dst.0);
        e.i64(tx.amount.micros());
        e.f64(tx.arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sections() -> Vec<(u32, Vec<u8>)> {
        vec![
            (SEC_CORE, b"core-bytes".to_vec()),
            (SEC_SCHEME, Vec::new()),
            (SEC_TELEMETRY, b"tel".to_vec()),
        ]
    }

    #[test]
    fn container_round_trips() {
        let bytes = encode_snapshot(0xABCD_1234, 42, &sections());
        assert_eq!(bytes.capacity(), bytes.len(), "the buffer is sized once");
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.fingerprint, 0xABCD_1234);
        assert_eq!(snap.progress, 42);
        assert_eq!(snap.section(SEC_CORE).unwrap(), b"core-bytes");
        assert_eq!(snap.section(SEC_SCHEME).unwrap(), b"");
        assert_eq!(snap.section_opt(SEC_TELEMETRY), Some(&b"tel"[..]));
        assert!(matches!(
            snap.section(99),
            Err(SnapshotError::MissingSection { section: 99 })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_snapshot(1, 1, &sections());
        bytes[0] = b'X';
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn every_other_version_is_rejected() {
        for version in [0, FORMAT_VERSION - 1, FORMAT_VERSION + 1, u8::MAX] {
            let mut bytes = encode_snapshot(1, 1, &sections());
            bytes[4] = version;
            assert!(matches!(
                decode_snapshot(&bytes),
                Err(SnapshotError::UnsupportedVersion { .. })
            ));
        }
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let bytes = encode_snapshot(7, 3, &sections());
        for cut in 0..bytes.len() {
            let r = decode_snapshot(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail, got {r:?}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        // Flipping any single bit anywhere — header, section framing,
        // payload, or the checksums themselves — must be rejected with a
        // structured error: the per-section CRCs cover the payloads and the
        // trailing frame CRC covers everything else.
        let bytes = encode_snapshot(0, 5, &sections());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                let r = decode_snapshot(&bad);
                assert!(r.is_err(), "undetected corruption at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn unknown_and_repeated_section_tags_are_corrupt() {
        // Every case is sealed with valid section and frame checksums, so
        // only the tag check can object.
        let mut retired = sections();
        retired.push((4, b"extension".to_vec()));
        let mut unknown = sections();
        unknown.insert(1, (99, Vec::new()));
        let mut frame_tag = sections();
        frame_tag.push((SEC_FRAME, Vec::new()));
        let mut second_core = sections();
        second_core.push((SEC_CORE, b"later-core".to_vec()));
        let mut second_telemetry = sections();
        second_telemetry.insert(0, (SEC_TELEMETRY, b"tel".to_vec()));
        for (label, sections, tag) in [
            ("retired tag 4", retired, 4),
            ("unknown tag", unknown, 99),
            ("frame pseudo-tag", frame_tag, SEC_FRAME),
            ("second core", second_core, SEC_CORE),
            ("second telemetry", second_telemetry, SEC_TELEMETRY),
        ] {
            let bytes = encode_snapshot(1, 1, &sections);
            match decode_snapshot(&bytes) {
                Err(SnapshotError::Corrupt { what }) => assert!(
                    what.contains(&format!("section {tag} "))
                        || what.contains(&format!("section tag {tag} ")),
                    "{label}: {what}"
                ),
                other => panic!("{label}: expected Corrupt, got {other:?}"),
            }
        }
        // Any order of the three distinct tags is fine.
        let mut reordered = sections();
        reordered.reverse();
        let snap = decode_snapshot(&encode_snapshot(1, 1, &reordered)).unwrap();
        assert_eq!(snap.section(SEC_CORE).unwrap(), b"core-bytes");
    }

    #[test]
    fn fingerprint_check() {
        let bytes = encode_snapshot(10, 1, &sections());
        let snap = decode_snapshot(&bytes).unwrap();
        assert!(snap.check(10).is_ok());
        assert!(matches!(
            snap.check(11),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn atomic_write_and_latest() {
        let dir = std::env::temp_dir().join(format!("spsn-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(latest_snapshot(&dir).unwrap(), None);
        let p1 = write_snapshot(&dir, 1, 10, &sections()).unwrap();
        let p2 = write_snapshot(&dir, 1, 20, &sections()).unwrap();
        assert!(p1.exists() && p2.exists());
        assert_eq!(latest_snapshot(&dir).unwrap(), Some(p2.clone()));
        // A corrupt newest file falls back to the previous valid one.
        let p3 = dir.join("snap-000000000030.spsn");
        fs::write(&p3, b"SPSNgarbage").unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap(), Some(p2));
        // Stale tmp files are ignored.
        fs::write(dir.join(".snap-000000000040.spsn.tmp"), b"partial").unwrap();
        assert!(latest_snapshot(&dir).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_successful_write_removes_stale_staging_files() {
        let dir = std::env::temp_dir().join(format!("spsn-stale-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let p1 = write_snapshot(&dir, 1, 10, &sections()).unwrap();
        // What a writer killed between `create` and `rename` leaves behind.
        let stale = dir.join(".snap-000000000020.spsn.tmp");
        fs::write(&stale, b"SPSN\x05partial").unwrap();
        let unrelated = dir.join(".notes.tmp");
        fs::write(&unrelated, b"not ours").unwrap();
        assert_eq!(latest_snapshot(&dir).unwrap(), Some(p1.clone()));
        let p2 = write_snapshot(&dir, 1, 30, &sections()).unwrap();
        assert!(!stale.exists(), "stale staging file survived a write");
        assert!(p1.exists() && p2.exists() && unrelated.exists());
        assert_eq!(latest_snapshot(&dir).unwrap(), Some(p2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_telemetry_round_trips_as_an_empty_section() {
        let bytes = encode_telemetry(&Telemetry::disabled());
        assert!(bytes.is_empty());
        assert_eq!(decode_telemetry(&bytes).unwrap(), None);
    }

    /// A telemetry section in the v9 layout: counters named `counters`,
    /// one histogram, an empty log, then `trailing` bytes.
    fn telemetry_section(counters: &[&str], trailing: &[u8]) -> Vec<u8> {
        let mut e = Enc::new();
        e.seq(counters, |e, name| {
            e.str(name);
            e.u64(1);
        });
        let h = spider_telemetry::Histogram::latency_default().state();
        e.seq(&["sim.completion_delay"], |e, name| {
            e.str(name);
            e.seq(&h.bounds, |e, &b| e.f64(b));
            e.seq(&h.counts, |e, &c| e.u64(c));
            e.u64(h.count);
            e.f64(h.sum);
            e.f64(h.min);
            e.f64(h.max);
        });
        e.u64(0);
        e.bytes(&bintrace::encode(&[]));
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(trailing);
        bytes
    }

    #[test]
    fn telemetry_section_holds_only_what_the_registry_writes() {
        let pristine = telemetry_section(&["a", "b"], &[]);
        let state = decode_telemetry(&pristine).unwrap().unwrap();
        assert_eq!(state.registry.counters, [("a".into(), 1), ("b".into(), 1)]);
        for (label, bytes, needle) in [
            (
                "repeated name",
                telemetry_section(&["a", "a"], &[]),
                "counter a is repeated or out of order",
            ),
            (
                "descending names",
                telemetry_section(&["b", "a"], &[]),
                "counter a is repeated or out of order",
            ),
            ("trailing byte", telemetry_section(&["a"], &[0]), "trailing"),
        ] {
            match decode_telemetry(&bytes) {
                Err(SnapshotError::Corrupt { what }) => {
                    assert!(what.contains(needle), "{label}: {what}")
                }
                other => panic!("{label}: expected Corrupt, got {other:?}"),
            }
        }
    }
}
