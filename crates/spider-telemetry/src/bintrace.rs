//! Compact, indexed binary backend for [`TraceEvent`] streams.
//!
//! Layout (all integers little-endian, varints are LEB128):
//!
//! ```text
//! header := magic "SPBT" | version u8 | kind_count u16
//!           | kind_count × (len u16 | utf8 name) | header_crc u32
//! file   := header | block*
//! block  := body_len u32 | body_crc u32 | body
//! body   := count u32 | flags u8 | t_min f64 | t_max f64
//!           | chan_count varint | delta-encoded sorted channel ids
//!           | node_count varint | delta-encoded sorted node ids
//!           | count × event
//! event  := kind_index u8 | fields
//! ```
//!
//! An event's fields are the ones its row of the event table in
//! `trace.rs` declares, in that order, each encoded by its role: `Time` is
//! a float, or the one-byte `F64_PREV` when it repeats the previous
//! timestamp in the block; `Payment`, `Channel`, `Node`, `U32` and `U64`
//! are plain varints; `F64` is a float. A float carries a one-byte tag —
//! raw 8-byte IEEE bits, or a zigzag varint of the value scaled by 1, 100,
//! or 10⁶ when (and only when) decoding the scaled integer reproduces the
//! exact source bits. Every narrowing is verified at encode time, so the
//! format is lossless by construction: `decode(encode(events)) == events`
//! bit-for-bit.
//!
//! Each block header carries an index — the sim-time range and the sorted
//! sets of channel and node ids its events touch — so a reader can answer
//! "all events touching channel X in `[t1, t2]`" by skipping blocks whose
//! index cannot match, without decoding them (`body_len` makes the skip a
//! pure pointer bump). Events without a timestamp (solver samples) set a
//! flag bit so time-windowed queries never skip past them.
//!
//! The writer is strictly sequential and deterministic: identical event
//! streams produce byte-identical files on any host, mirroring the JSONL
//! guarantee. The format version byte is checked on read; see DESIGN.md
//! for the compatibility rule.
//!
//! Corruption is detected, never silently decoded: `header_crc` covers
//! every header byte before it and `body_crc` covers its block body, so
//! any bit flip surfaces as a structured [`BinTraceError`] — flips in the
//! length/CRC fields themselves land in `Truncated` or a checksum
//! mismatch, and flips in a kind-table name are caught by the header CRC
//! before any event resolves through the table. The reader resolves the
//! table's names to kinds once per file; a name it does not know fails
//! only the events that use it.

use crate::trace::{KindIndex, Role, TraceEvent};
use std::fmt;

/// File magic, first four bytes of every binary trace.
pub const BINTRACE_MAGIC: [u8; 4] = *b"SPBT";

/// Current format version (bumped on any incompatible layout change).
/// v2 added the header and per-block CRC32 checksums.
pub const BINTRACE_VERSION: u8 = 2;

/// Default number of events per indexed block.
pub const DEFAULT_BLOCK_EVENTS: usize = 512;

/// Block flag bit: the block contains at least one event without a
/// timestamp, so time-window pruning must not skip it.
const FLAG_HAS_UNTIMED: u8 = 1;

/// Errors surfaced while decoding a binary trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinTraceError {
    /// The file does not start with [`BINTRACE_MAGIC`].
    BadMagic,
    /// The version byte is not one this reader understands.
    BadVersion(u8),
    /// The byte stream ended inside a structure.
    Truncated,
    /// A kind index has no entry in the header's kind table.
    BadKindIndex(u8),
    /// A kind-table name is not valid UTF-8 or not a known kind.
    BadKindName(String),
    /// A float tag byte was not one of the defined encodings.
    BadFloatTag(u8),
    /// A varint ran past 10 bytes.
    BadVarint,
    /// A block's declared body length disagrees with its contents.
    BadBlockLength,
    /// The header's checksum does not match its bytes (corrupted kind
    /// table or version/magic region).
    BadHeaderChecksum {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the header bytes actually read.
        computed: u32,
    },
    /// A block body's checksum does not match its bytes (bit flip or
    /// other corruption inside the block).
    BadBlockChecksum {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the body bytes actually read.
        computed: u32,
    },
}

impl fmt::Display for BinTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinTraceError::BadMagic => write!(f, "not a binary trace (bad magic)"),
            BinTraceError::BadVersion(v) => write!(
                f,
                "unsupported binary trace version {v} (reader supports {BINTRACE_VERSION})"
            ),
            BinTraceError::Truncated => write!(f, "binary trace is truncated"),
            BinTraceError::BadKindIndex(i) => write!(f, "kind index {i} out of table range"),
            BinTraceError::BadKindName(n) => write!(f, "unknown event kind {n:?} in kind table"),
            BinTraceError::BadFloatTag(t) => write!(f, "invalid float tag {t}"),
            BinTraceError::BadVarint => write!(f, "malformed varint"),
            BinTraceError::BadBlockLength => write!(f, "block length does not match contents"),
            BinTraceError::BadHeaderChecksum { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            BinTraceError::BadBlockChecksum { stored, computed } => write!(
                f,
                "block checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for BinTraceError {}

/// `true` when `bytes` starts with the binary-trace magic.
pub fn is_bintrace(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == BINTRACE_MAGIC
}

// ---------------------------------------------------------------------------
// Primitive encoders
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Float tags: raw IEEE bits, or zigzag varint at scale 1 / 100 / 10⁶.
const F64_RAW: u8 = 0;
const F64_INT: u8 = 1;
const F64_CENTI: u8 = 2;
const F64_MICRO: u8 = 3;
/// Timestamp-only tag: equal to the previous timestamp in this block.
/// Bursts of events sharing one sim time (a payment arriving, splitting,
/// and dispatching its units) collapse to one byte each.
const F64_PREV: u8 = 4;

/// Largest integer magnitude we narrow floats through (stays exact in
/// f64 and well inside i64).
const MAX_EXACT: f64 = 9.0e15;

fn put_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        for (tag, scale) in [(F64_INT, 1.0), (F64_CENTI, 100.0), (F64_MICRO, 1.0e6)] {
            let scaled = (v * scale).round();
            if scaled.abs() <= MAX_EXACT {
                let int = scaled as i64;
                let back = int as f64 / scale;
                if back.to_bits() == v.to_bits() {
                    out.push(tag);
                    put_varint(out, zigzag(int));
                    return;
                }
            }
        }
    }
    out.push(F64_RAW);
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Encodes a timestamp, reusing `prev` (the previous timestamp in the
/// block, `0.0` at block start) when bit-identical.
fn put_time(out: &mut Vec<u8>, t: f64, prev: &mut f64) {
    if t.to_bits() == prev.to_bits() {
        out.push(F64_PREV);
    } else {
        put_f64(out, t);
        *prev = t;
    }
}

/// Sorts and dedups `ids`, then writes their count and each id's delta
/// from the one before.
fn put_ids(out: &mut Vec<u8>, ids: &mut Vec<u32>) {
    ids.sort_unstable();
    ids.dedup();
    put_varint(out, ids.len() as u64);
    let mut prev = 0;
    for &id in ids.iter() {
        put_varint(out, u64::from(id - prev));
        prev = id;
    }
}

/// Cursor over an immutable byte slice.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinTraceError> {
        if self.remaining() < n {
            return Err(BinTraceError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BinTraceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, BinTraceError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, BinTraceError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn raw_f64(&mut self) -> Result<f64, BinTraceError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    fn varint(&mut self) -> Result<u64, BinTraceError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(BinTraceError::BadVarint)
    }

    fn varint_u32(&mut self) -> Result<u32, BinTraceError> {
        u32::try_from(self.varint()?).map_err(|_| BinTraceError::BadVarint)
    }

    /// A [`put_ids`] list.
    fn ids(&mut self) -> Result<Vec<u32>, BinTraceError> {
        let n = self.varint()?;
        let mut ids = Vec::with_capacity(n.min(1 << 20) as usize);
        let mut acc = 0u32;
        for _ in 0..n {
            acc = acc.wrapping_add(self.varint_u32()?);
            ids.push(acc);
        }
        Ok(ids)
    }

    fn f64(&mut self) -> Result<f64, BinTraceError> {
        let tag = self.u8()?;
        let scale = match tag {
            F64_RAW => return self.raw_f64(),
            F64_INT => 1.0,
            F64_CENTI => 100.0,
            F64_MICRO => 1.0e6,
            other => return Err(BinTraceError::BadFloatTag(other)),
        };
        let int = unzigzag(self.varint()?);
        Ok(int as f64 / scale)
    }

    fn time(&mut self, prev: &mut f64) -> Result<f64, BinTraceError> {
        if self.remaining() >= 1 && self.data[self.pos] == F64_PREV {
            self.pos += 1;
            return Ok(*prev);
        }
        let t = self.f64()?;
        *prev = t;
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// Event codec
// ---------------------------------------------------------------------------

/// Writes one field by its role; [`read_field`] is the inverse.
#[inline]
fn put_field(out: &mut Vec<u8>, role: Role, bits: u64, prev_t: &mut f64) {
    match role {
        Role::Time => put_time(out, f64::from_bits(bits), prev_t),
        Role::F64 => put_f64(out, f64::from_bits(bits)),
        Role::Payment | Role::Channel | Role::Node | Role::U32 | Role::U64 => put_varint(out, bits),
    }
}

#[inline]
fn read_field(cur: &mut Cursor<'_>, role: Role, prev_t: &mut f64) -> Result<u64, BinTraceError> {
    Ok(match role {
        Role::Time => cur.time(prev_t)?.to_bits(),
        Role::F64 => cur.f64()?.to_bits(),
        Role::Payment | Role::U64 => cur.varint()?,
        Role::Channel | Role::Node | Role::U32 => u64::from(cur.varint_u32()?),
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Sequential, deterministic binary-trace writer.
///
/// Push events in order, then call [`finish`](Self::finish) to obtain the
/// encoded bytes. Events are buffered into indexed blocks of
/// `block_events` events each: a full block is encoded as soon as it
/// closes, so the writer holds the file so far as bytes plus at most
/// `block_events - 1` open events, and [`with_bytes`](Self::with_bytes)
/// reads the file mid-stream without closing the open block.
#[derive(Debug)]
pub struct BinTraceWriter {
    out: Vec<u8>,
    pending: Vec<TraceEvent>,
    block_events: usize,
}

impl BinTraceWriter {
    /// A writer with the default block size.
    pub fn new() -> Self {
        Self::with_block_events(DEFAULT_BLOCK_EVENTS)
    }

    /// A writer flushing an indexed block every `block_events` events.
    pub fn with_block_events(block_events: usize) -> Self {
        let mut out = Vec::new();
        out.extend_from_slice(&BINTRACE_MAGIC);
        out.push(BINTRACE_VERSION);
        out.extend_from_slice(&(TraceEvent::KINDS.len() as u16).to_le_bytes());
        for name in TraceEvent::KINDS {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        let header_crc = spider_core::crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        BinTraceWriter {
            out,
            pending: Vec::new(),
            block_events: block_events.max(1),
        }
    }

    /// Appends one event.
    pub fn push(&mut self, e: TraceEvent) {
        self.pending.push(e);
        if self.pending.len() >= self.block_events {
            put_block(&mut self.out, &self.pending);
            self.pending.clear();
        }
    }

    /// Calls `f` with the complete file so far: the closed blocks, then
    /// the open block encoded as the last one, exactly what
    /// [`finish`](Self::finish) would return now. The open block stays
    /// open, so later pushes fill it up to `block_events` as before.
    pub fn with_bytes<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> R {
        let closed = self.out.len();
        put_block(&mut self.out, &self.pending);
        let r = f(&self.out);
        self.out.truncate(closed);
        r
    }

    /// The header and the closed blocks: a complete file of every event
    /// pushed except the [`open`](Self::open) ones.
    pub(crate) fn closed(&self) -> &[u8] {
        &self.out
    }

    /// The events of the open block, in push order.
    pub(crate) fn open(&self) -> &[TraceEvent] {
        &self.pending
    }

    /// Flushes any buffered events and returns the complete file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        put_block(&mut self.out, &self.pending);
        self.out
    }
}

impl Default for BinTraceWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends `events` to `out` as one indexed block; no events, no block.
fn put_block(out: &mut Vec<u8>, events: &[TraceEvent]) {
    if events.is_empty() {
        return;
    }
    // One field walk per event feeds both the block index and the encoded
    // events, which follow the index in the body.
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    let mut has_untimed = false;
    let mut channels: Vec<u32> = Vec::new();
    let mut nodes: Vec<u32> = Vec::new();
    let mut encoded = Vec::new();
    let mut prev_t = 0.0;
    for e in events {
        encoded.push(e.kind_index() as u8);
        let mut timed = false;
        e.fields(|role, bits| {
            match role {
                Role::Time => {
                    let t = f64::from_bits(bits);
                    timed = true;
                    t_min = t_min.min(t);
                    t_max = t_max.max(t);
                }
                Role::Channel => channels.push(bits as u32),
                Role::Node => nodes.push(bits as u32),
                _ => {}
            }
            put_field(&mut encoded, role, bits, &mut prev_t);
        });
        has_untimed |= !timed;
    }
    if !t_min.is_finite() {
        t_min = 0.0;
        t_max = 0.0;
    }

    let mut body = Vec::with_capacity(encoded.len() + 64);
    body.extend_from_slice(&(events.len() as u32).to_le_bytes());
    body.push(if has_untimed { FLAG_HAS_UNTIMED } else { 0 });
    body.extend_from_slice(&t_min.to_bits().to_le_bytes());
    body.extend_from_slice(&t_max.to_bits().to_le_bytes());
    put_ids(&mut body, &mut channels);
    put_ids(&mut body, &mut nodes);
    body.extend_from_slice(&encoded);

    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&spider_core::crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Encodes an event slice with the default block size.
pub fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = BinTraceWriter::new();
    for e in events {
        w.push(e.clone());
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Reader / queries
// ---------------------------------------------------------------------------

/// A filter over trace events. `None` fields match everything; set fields
/// must all match ("and" semantics). Events without a timestamp match any
/// time window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceQuery {
    /// Only events touching this channel id.
    pub channel: Option<u32>,
    /// Only events touching this node id.
    pub node: Option<u32>,
    /// Only events belonging to this payment id.
    pub payment: Option<u64>,
    /// Only events of this kind (see [`TraceEvent::kind`]).
    pub kind: Option<String>,
    /// Only events at `t >= from`.
    pub from: Option<f64>,
    /// Only events at `t <= to`.
    pub to: Option<f64>,
}

impl TraceQuery {
    /// `true` when `e` passes every set filter.
    pub fn matches(&self, e: &TraceEvent) -> bool {
        let windowed = self.from.is_some() || self.to.is_some();
        let outside =
            |t: f64| self.from.is_some_and(|from| t < from) || self.to.is_some_and(|to| t > to);
        self.channel.is_none_or(|c| e.channel() == Some(c))
            && self.node.is_none_or(|n| {
                let (a, b) = e.nodes();
                a == Some(n) || b == Some(n)
            })
            && self.payment.is_none_or(|p| e.payment() == Some(p))
            && self.kind.as_deref().is_none_or(|k| e.kind() == k)
            && !(windowed && e.time().is_some_and(outside))
    }
}

/// How much work a query did, for observability of the index itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total blocks in the file.
    pub blocks_total: usize,
    /// Blocks whose index forced a decode.
    pub blocks_scanned: usize,
    /// Events decoded (from scanned blocks).
    pub events_decoded: usize,
    /// Events matching the query.
    pub events_matched: usize,
}

/// For each index of a file's kind table, the kind it names or the error
/// an event of that index reports.
type KindTable = Vec<Result<KindIndex, BinTraceError>>;

/// Checks the header; returns its kind table and a cursor at the first
/// block.
fn read_header(bytes: &[u8]) -> Result<(KindTable, Cursor<'_>), BinTraceError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(4)? != BINTRACE_MAGIC {
        return Err(BinTraceError::BadMagic);
    }
    let version = cur.u8()?;
    if version != BINTRACE_VERSION {
        return Err(BinTraceError::BadVersion(version));
    }
    let kind_count = cur.u16()?;
    let mut kinds = Vec::with_capacity(usize::from(kind_count));
    for _ in 0..kind_count {
        let len = cur.u16()?;
        let raw = cur.take(usize::from(len))?;
        let name =
            std::str::from_utf8(raw).map_err(|_| BinTraceError::BadKindName(format!("{raw:?}")))?;
        let mut known = KindIndex::ALL.iter().zip(TraceEvent::KINDS);
        kinds.push(
            (known.find_map(|(&kind, &known)| (known == name).then_some(kind)))
                .ok_or_else(|| BinTraceError::BadKindName(name.to_string())),
        );
    }
    let consumed = bytes.len() - cur.remaining();
    let stored = cur.u32()?;
    let computed = spider_core::crc32(&bytes[..consumed]);
    if stored != computed {
        return Err(BinTraceError::BadHeaderChecksum { stored, computed });
    }
    Ok((kinds, cur))
}

struct BlockHead {
    count: u32,
    has_untimed: bool,
    t_min: f64,
    t_max: f64,
    channels: Vec<u32>,
    nodes: Vec<u32>,
}

fn read_block_head(cur: &mut Cursor<'_>) -> Result<BlockHead, BinTraceError> {
    // Fields are read in the order they are written.
    Ok(BlockHead {
        count: cur.u32()?,
        has_untimed: cur.u8()? & FLAG_HAS_UNTIMED != 0,
        t_min: cur.raw_f64()?,
        t_max: cur.raw_f64()?,
        channels: cur.ids()?,
        nodes: cur.ids()?,
    })
}

impl BlockHead {
    /// `true` when the block's index cannot rule this query out.
    fn may_match(&self, q: &TraceQuery) -> bool {
        let outside =
            q.from.is_some_and(|from| self.t_max < from) || q.to.is_some_and(|to| self.t_min > to);
        (self.has_untimed || !outside)
            && q.channel
                .is_none_or(|c| self.channels.binary_search(&c).is_ok())
            && q.node.is_none_or(|n| self.nodes.binary_search(&n).is_ok())
    }
}

/// Decodes every event in a binary trace.
pub fn decode(bytes: &[u8]) -> Result<Vec<TraceEvent>, BinTraceError> {
    let mut events = Vec::new();
    decode_into(bytes, &mut events)?;
    Ok(events)
}

/// Appends every event in a binary trace to `out`, which the caller may
/// have sized for them.
pub(crate) fn decode_into(bytes: &[u8], out: &mut Vec<TraceEvent>) -> Result<(), BinTraceError> {
    run_query(bytes, None, out).map(drop)
}

/// Runs an indexed query: blocks whose index cannot match are skipped
/// without decoding. Returns matching events in file order.
pub fn query(bytes: &[u8], q: &TraceQuery) -> Result<Vec<TraceEvent>, BinTraceError> {
    let (events, _) = query_with_stats(bytes, q)?;
    Ok(events)
}

/// Like [`query`], also reporting how many blocks the index let the
/// reader skip.
pub fn query_with_stats(
    bytes: &[u8],
    q: &TraceQuery,
) -> Result<(Vec<TraceEvent>, QueryStats), BinTraceError> {
    let mut events = Vec::new();
    let stats = run_query(bytes, Some(q), &mut events)?;
    Ok((events, stats))
}

/// Appends the events of `bytes` that `q` matches (all of them without one)
/// to `out`, in file order.
fn run_query(
    bytes: &[u8],
    q: Option<&TraceQuery>,
    out: &mut Vec<TraceEvent>,
) -> Result<QueryStats, BinTraceError> {
    let (kinds, mut cur) = read_header(bytes)?;
    let mut stats = QueryStats::default();
    while cur.remaining() > 0 {
        let body_len = cur.u32()? as usize;
        let stored = cur.u32()?;
        let body = cur.take(body_len)?;
        let computed = spider_core::crc32(body);
        if stored != computed {
            return Err(BinTraceError::BadBlockChecksum { stored, computed });
        }
        stats.blocks_total += 1;
        let mut bcur = Cursor::new(body);
        let head = read_block_head(&mut bcur)?;
        if let Some(q) = q {
            if !head.may_match(q) {
                continue;
            }
        }
        stats.blocks_scanned += 1;
        let mut prev_t = 0.0;
        for _ in 0..head.count {
            let idx = bcur.u8()?;
            let kind = (kinds.get(usize::from(idx)))
                .ok_or(BinTraceError::BadKindIndex(idx))?
                .clone()?;
            let e = TraceEvent::from_fields(kind, |role| read_field(&mut bcur, role, &mut prev_t))?;
            stats.events_decoded += 1;
            if q.is_none_or(|q| q.matches(&e)) {
                stats.events_matched += 1;
                out.push(e);
            }
        }
        if bcur.remaining() != 0 {
            return Err(BinTraceError::BadBlockLength);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{events_to_jsonl, parse_jsonl};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PaymentArrived {
                t: 0.1,
                payment: 7,
                src: 3,
                dst: 9,
                amount: 30.25,
            },
            TraceEvent::UnitSent {
                t: 0.30000000000000004,
                payment: 7,
                amount: 10.123456,
                hops: 2,
            },
            TraceEvent::UnitQueued {
                t: 0.4,
                payment: 7,
                channel: 12,
                depth: 3,
            },
            TraceEvent::UnitSettled {
                t: 0.6,
                payment: 7,
                amount: 10.0,
            },
            TraceEvent::ChannelSample {
                t: 1.0,
                channel: 12,
                imbalance: 0.2512345678901234,
                inflight: 20.5,
                queue_depth: 1,
            },
            TraceEvent::SolverSample {
                iter: 4,
                objective: 100.5,
                residual: 1e-9,
                mean_price: -0.0,
            },
            TraceEvent::NodeCrashed { t: 2.0, node: 3 },
        ]
    }

    #[test]
    fn round_trip_bit_exact() {
        let events = sample_events();
        let bytes = encode(&events);
        assert!(is_bintrace(&bytes));
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), events.len());
        for (a, b) in events.iter().zip(&back) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
        assert_eq!(back, events);
    }

    #[test]
    fn round_trip_preserves_weird_floats() {
        let weird = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e300,
            -1e-300,
            f64::NAN,
            0.1 + 0.2,
            9.007199254740993e15,
        ];
        for &v in &weird {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            let back = cur.f64().unwrap();
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "f64 {v:?} did not round-trip bit-exactly"
            );
        }
    }

    #[test]
    fn every_kind_has_a_table_entry_and_codec() {
        // One event per variant round-trips; kind table covers all kinds.
        let all = vec![
            TraceEvent::PaymentArrived {
                t: 1.0,
                payment: 1,
                src: 0,
                dst: 1,
                amount: 1.0,
            },
            TraceEvent::PaymentSplit {
                t: 1.0,
                payment: 1,
                units: 2,
            },
            TraceEvent::UnitSent {
                t: 1.0,
                payment: 1,
                amount: 1.0,
                hops: 1,
            },
            TraceEvent::UnitSettled {
                t: 1.0,
                payment: 1,
                amount: 1.0,
            },
            TraceEvent::UnitRefunded {
                t: 1.0,
                payment: 1,
                amount: 1.0,
            },
            TraceEvent::UnitQueued {
                t: 1.0,
                payment: 1,
                channel: 1,
                depth: 1,
            },
            TraceEvent::PaymentCompleted {
                t: 1.0,
                payment: 1,
                delay: 0.5,
            },
            TraceEvent::PaymentAbandoned {
                t: 1.0,
                payment: 1,
                delivered: 0.5,
            },
            TraceEvent::RebalanceApplied {
                t: 1.0,
                channel: 1,
                moved: 1.0,
                fee: 0.1,
            },
            TraceEvent::ChannelSample {
                t: 1.0,
                channel: 1,
                imbalance: 0.5,
                inflight: 1.0,
                queue_depth: 0,
            },
            TraceEvent::ChannelOutage { t: 1.0, channel: 1 },
            TraceEvent::ChannelRecovered { t: 1.0, channel: 1 },
            TraceEvent::NodeCrashed { t: 1.0, node: 1 },
            TraceEvent::NodeRecovered { t: 1.0, node: 1 },
            TraceEvent::UnitDropped {
                t: 1.0,
                payment: 1,
                amount: 1.0,
                channel: 1,
            },
            TraceEvent::UnitGriefed {
                t: 1.0,
                payment: 1,
                amount: 1.0,
                hold: 1.0,
            },
            TraceEvent::PaymentRetry {
                t: 1.0,
                payment: 1,
                attempt: 1,
                backoff: 1.0,
            },
            TraceEvent::ChannelBlacklisted {
                t: 1.0,
                channel: 1,
                until: 2.0,
            },
            TraceEvent::SolverSample {
                iter: 1,
                objective: 1.0,
                residual: 0.1,
                mean_price: 0.5,
            },
        ];
        assert_eq!(all.len(), TraceEvent::KINDS.len());
        for (i, e) in all.iter().enumerate() {
            assert_eq!(
                e.kind_index() as usize,
                i,
                "{} out of table order",
                e.kind()
            );
            assert_eq!(TraceEvent::KINDS[i], e.kind());
        }
        let back = decode(&encode(&all)).unwrap();
        assert_eq!(back, all);
    }

    #[test]
    fn indexed_query_matches_brute_force() {
        // Many small blocks so index pruning actually kicks in.
        let mut w = BinTraceWriter::with_block_events(2);
        let events = sample_events();
        for e in &events {
            w.push(e.clone());
        }
        let bytes = w.finish();
        let q = TraceQuery {
            channel: Some(12),
            from: Some(0.2),
            to: Some(0.9),
            ..TraceQuery::default()
        };
        let (hits, stats) = query_with_stats(&bytes, &q).unwrap();
        let brute: Vec<TraceEvent> = events.iter().filter(|e| q.matches(e)).cloned().collect();
        assert_eq!(hits, brute);
        assert_eq!(hits.len(), 1);
        assert!(
            stats.blocks_scanned < stats.blocks_total,
            "index never pruned"
        );
    }

    #[test]
    fn untimed_events_survive_time_windows() {
        let events = vec![TraceEvent::SolverSample {
            iter: 1,
            objective: 1.0,
            residual: 0.5,
            mean_price: 0.2,
        }];
        let bytes = encode(&events);
        let q = TraceQuery {
            from: Some(100.0),
            to: Some(200.0),
            ..TraceQuery::default()
        };
        assert_eq!(query(&bytes, &q).unwrap(), events);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(decode(b"nope").unwrap_err(), BinTraceError::BadMagic);
        let mut bytes = encode(&sample_events());
        bytes[4] = 99;
        assert_eq!(decode(&bytes).unwrap_err(), BinTraceError::BadVersion(99));
        let mut truncated = encode(&sample_events());
        truncated.truncate(truncated.len() - 3);
        assert!(decode(&truncated).is_err());
    }

    #[test]
    fn binary_is_deterministic_and_smaller() {
        // A realistic payment lifecycle: bursts of events sharing one sim
        // time, full-entropy timestamps between bursts.
        let mut events = Vec::new();
        for i in 0..500u64 {
            let t_arr = i as f64 * 0.0421375 + 0.0123456789;
            let t_set = t_arr + 1.7301;
            events.push(TraceEvent::PaymentArrived {
                t: t_arr,
                payment: i,
                src: (i % 400) as u32,
                dst: ((i * 7) % 400) as u32,
                amount: 123.456789,
            });
            events.push(TraceEvent::PaymentSplit {
                t: t_arr,
                payment: i,
                units: 3,
            });
            for _ in 0..3 {
                events.push(TraceEvent::UnitSent {
                    t: t_arr,
                    payment: i,
                    amount: 41.152263,
                    hops: 3,
                });
            }
            for _ in 0..3 {
                events.push(TraceEvent::UnitSettled {
                    t: t_set,
                    payment: i,
                    amount: 41.152263,
                });
            }
            events.push(TraceEvent::PaymentCompleted {
                t: t_set,
                payment: i,
                delay: t_set - t_arr,
            });
        }
        let a = encode(&events);
        let b = encode(&events);
        assert_eq!(a, b);
        let jsonl = events_to_jsonl(&events);
        assert!(
            a.len() * 5 <= jsonl.len(),
            "binary {} bytes vs jsonl {} bytes — under 5x",
            a.len(),
            jsonl.len()
        );
    }

    /// A small multi-block file for the corruption tests.
    fn multi_block_bytes() -> (Vec<TraceEvent>, Vec<u8>) {
        let events = sample_events();
        let mut w = BinTraceWriter::with_block_events(3);
        for e in &events {
            w.push(e.clone());
        }
        (events, w.finish())
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let (_, bytes) = multi_block_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1u8 << bit;
                assert!(
                    decode(&bad).is_err(),
                    "flip of bit {bit} in byte {byte}/{} was silently accepted",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn corruption_surfaces_as_structured_errors() {
        let (_, bytes) = multi_block_bytes();
        // Kind-table corruption is caught by the header CRC: flip one bit
        // of the first kind name's first character (offset 9 = magic 4 +
        // version 1 + kind_count 2 + name length 2).
        let mut bad = bytes.clone();
        bad[9] ^= 0x01;
        assert!(matches!(
            decode(&bad).unwrap_err(),
            BinTraceError::BadHeaderChecksum { .. }
        ));
        // Body corruption is caught by the block CRC.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            decode(&bad).unwrap_err(),
            BinTraceError::BadBlockChecksum { .. }
        ));
    }

    /// FNV-1a over `bytes`: a stable fingerprint for the golden test.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every kind, every float tag (integer, centi, micro, raw — NaN, ±∞
    /// and −0.0 among them), a repeated timestamp, ids at their type's
    /// maximum.
    fn golden_events() -> Vec<TraceEvent> {
        let (big, huge) = (u32::MAX, u64::MAX);
        vec![
            TraceEvent::PaymentArrived {
                t: 0.5,
                payment: huge,
                src: big,
                dst: 0,
                amount: 30.0,
            },
            TraceEvent::PaymentSplit {
                t: 0.5,
                payment: huge,
                units: huge,
            },
            TraceEvent::UnitSent {
                t: 0.5,
                payment: 1,
                amount: 0.25,
                hops: big,
            },
            TraceEvent::UnitSettled {
                t: 0.1 + 0.2,
                payment: 1,
                amount: 10.123456,
            },
            TraceEvent::UnitRefunded {
                t: 0.1 + 0.2,
                payment: 2,
                amount: f64::NAN,
            },
            TraceEvent::UnitQueued {
                t: 1.25,
                payment: 2,
                channel: big,
                depth: big,
            },
            TraceEvent::PaymentCompleted {
                t: 1.25,
                payment: 1,
                delay: f64::INFINITY,
            },
            TraceEvent::PaymentAbandoned {
                t: 2.0,
                payment: 2,
                delivered: -0.0,
            },
            TraceEvent::RebalanceApplied {
                t: -0.0,
                channel: 3,
                moved: f64::NEG_INFINITY,
                fee: 0.000001,
            },
            TraceEvent::ChannelSample {
                t: 3.0,
                channel: 3,
                imbalance: 0.2512345678901234,
                inflight: 1e300,
                queue_depth: 7,
            },
            TraceEvent::ChannelOutage { t: 3.0, channel: 4 },
            TraceEvent::ChannelRecovered { t: 4.5, channel: 4 },
            TraceEvent::NodeCrashed { t: 4.5, node: big },
            TraceEvent::NodeRecovered { t: 5.0, node: 9 },
            TraceEvent::UnitDropped {
                t: 5.0,
                payment: huge,
                amount: -12.5,
                channel: 0,
            },
            TraceEvent::UnitGriefed {
                t: 6.01,
                payment: 3,
                amount: 1.0,
                hold: 9.007199254740993e15,
            },
            TraceEvent::PaymentRetry {
                t: 6.01,
                payment: 3,
                attempt: 2,
                backoff: 0.75,
            },
            TraceEvent::ChannelBlacklisted {
                t: 7.0,
                channel: big,
                until: 17.0,
            },
            TraceEvent::SolverSample {
                iter: huge,
                objective: -3.5e-7,
                residual: f64::MIN_POSITIVE,
                mean_price: -0.0,
            },
        ]
    }

    #[test]
    fn spbt_bytes_are_pinned_for_every_kind() {
        // Captured at commit 595ac83, on the per-variant encoder the event
        // table replaced: a codec change that moves one byte of any kind's
        // encoding fails here.
        let events = golden_events();
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), 19, "one event per kind");
        let one_block = encode(&events);
        let mut w = BinTraceWriter::with_block_events(3);
        for e in &events {
            w.push(e.clone());
        }
        let blocks = w.finish();
        let back = decode(&blocks).unwrap();
        assert_eq!(format!("{back:?}"), format!("{events:?}"));
        assert_eq!(
            (
                one_block.len(),
                fnv1a(&one_block),
                blocks.len(),
                fnv1a(&blocks)
            ),
            (631, 0x8425_7252_3e55_438d, 832, 0x3ce9_59be_ceb6_0548)
        );
    }

    #[test]
    fn unknown_header_kind_fails_only_the_events_that_use_it() {
        // Block 1 holds a channel sample, block 2 the only solver sample.
        let events = vec![
            TraceEvent::ChannelSample {
                t: 1.0,
                channel: 5,
                imbalance: 0.5,
                inflight: 1.0,
                queue_depth: 0,
            },
            TraceEvent::SolverSample {
                iter: 1,
                objective: 1.0,
                residual: 0.5,
                mean_price: 0.2,
            },
        ];
        let mut w = BinTraceWriter::with_block_events(1);
        for e in &events {
            w.push(e.clone());
        }
        let mut bytes = w.finish();
        // Walk the kind table to the "solver_sample" entry and misspell
        // it, then reseal the header.
        let mut at = 7;
        let kind_count = u16::from_le_bytes([bytes[5], bytes[6]]);
        let mut renamed = None;
        for _ in 0..kind_count {
            let len = usize::from(u16::from_le_bytes([bytes[at], bytes[at + 1]]));
            if &bytes[at + 2..at + 2 + len] == b"solver_sample" {
                bytes[at + 2 + len - 1] = b'X';
                renamed = Some(String::from_utf8(bytes[at + 2..at + 2 + len].to_vec()).unwrap());
            }
            at += 2 + len;
        }
        let renamed = renamed.expect("solver_sample in the kind table");
        let crc = spider_core::crc32(&bytes[..at]);
        bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());

        // A query the index answers from block 1 alone never meets it.
        let q = TraceQuery {
            channel: Some(5),
            ..TraceQuery::default()
        };
        let (hits, stats) = query_with_stats(&bytes, &q).unwrap();
        assert_eq!(hits, events[..1]);
        assert_eq!((stats.blocks_scanned, stats.blocks_total), (1, 2));
        // Decoding the event that uses it fails, naming the kind.
        assert_eq!(decode(&bytes), Err(BinTraceError::BadKindName(renamed)));
    }

    /// One event of kind `kind` from four random words, its fields filled
    /// by role: a timestamp with arbitrary finite bits, full-range ids and
    /// counts, and floats alternating between amounts the way the engines
    /// produce them (micro-units over 10⁶, so rarely integral) and
    /// arbitrary finite bits.
    fn arbitrary_event(kind: KindIndex, w: [u64; 4], prev_t: f64) -> TraceEvent {
        let finite = |bits: u64| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                (bits >> 11) as f64 * 1.0e-7
            }
        };
        let mut n = 0;
        let event = TraceEvent::from_fields(kind, |role| {
            n += 1;
            let word = w[n % 4];
            Ok::<_, ()>(match role {
                // A burst shares one timestamp, which is what `F64_PREV`
                // encodes.
                Role::Time if w[0].is_multiple_of(4) => prev_t.to_bits(),
                Role::Time => finite(w[0]).to_bits(),
                Role::Payment | Role::U64 => word,
                Role::Channel | Role::Node | Role::U32 => u64::from(word as u32),
                Role::F64 if n % 2 == 0 => ((word % 1_000_000_000_000) as f64 / 1.0e6).to_bits(),
                Role::F64 => finite(word).to_bits(),
            })
        });
        event.unwrap()
    }

    proptest::proptest! {
        /// Engine snapshots embed their event log in this encoding, so it
        /// has to give back every variant bit for bit: arbitrary finite
        /// times (negative zero and subnormals included), non-integral
        /// amounts, full-range ids, at any block size.
        #[test]
        fn prop_round_trip_is_bit_exact_for_every_variant(
            words in proptest::collection::vec(
                (
                    proptest::any::<u64>(),
                    proptest::any::<u64>(),
                    proptest::any::<u64>(),
                    proptest::any::<u64>(),
                ),
                1..120,
            ),
            block_events in 1usize..40,
        ) {
            let mut events = Vec::new();
            let mut prev_t = 0.0;
            for (i, &(a, b, c, d)) in words.iter().enumerate() {
                // Every variant in turn, whatever the vector's length.
                let kinds = KindIndex::ALL.len();
                for kind in [i % kinds, (a % kinds as u64) as usize] {
                    let e = arbitrary_event(KindIndex::ALL[kind], [a, b, c, d], prev_t);
                    prev_t = e.time().unwrap_or(prev_t);
                    events.push(e);
                }
            }
            let mut w = BinTraceWriter::with_block_events(block_events);
            for e in &events {
                w.push(e.clone());
            }
            let back = decode(&w.finish());
            proptest::prop_assert!(back.is_ok(), "{:?}", back);
            let back = back.unwrap_or_default();
            // `{:?}` of an `f64` is its shortest round-trip form and keeps
            // the sign of zero, so equal text is equal bits.
            proptest::prop_assert_eq!(format!("{back:?}"), format!("{events:?}"));
        }

        /// Any corruption of a valid file — truncation, byte splices, bit
        /// flips — decodes to a structured error or (for clean cuts at a
        /// block boundary) a strict prefix of the original events. Never a
        /// panic, never silently wrong data.
        #[test]
        fn prop_corrupted_bintrace_never_decodes_silently(
            cut in 0usize..2048,
            splice_at in 0usize..2048,
            splice_val in 0usize..256,
        ) {
            let (events, bytes) = multi_block_bytes();

            // Truncation: blocks are self-delimiting, so a cut exactly at
            // a block boundary yields a valid shorter trace — but then the
            // decoded events must be a strict prefix of the original.
            let cut = cut.min(bytes.len());
            if let Ok(prefix) = decode(&bytes[..cut]) {
                proptest::prop_assert!(prefix.len() <= events.len());
                proptest::prop_assert_eq!(&prefix[..], &events[..prefix.len()]);
            }

            // Byte splice: if any byte actually changed, decode must fail.
            let mut spliced = bytes.clone();
            let at = splice_at.min(bytes.len() - 1);
            spliced[at] = splice_val as u8;
            if spliced != bytes {
                proptest::prop_assert!(decode(&spliced).is_err());
            }
        }

        /// Corrupted JSONL input never panics the parser: it yields the
        /// events or a structured per-line error.
        #[test]
        fn prop_corrupted_jsonl_never_panics(
            splice_at in 0usize..4096,
            splice_val in 0usize..256,
        ) {
            let jsonl = events_to_jsonl(&sample_events());
            let mut raw = jsonl.into_bytes();
            let at = splice_at.min(raw.len() - 1);
            raw[at] = splice_val as u8;
            let text = String::from_utf8_lossy(&raw);
            match parse_jsonl(&text) {
                Ok(events) => proptest::prop_assert!(events.len() <= sample_events().len()),
                Err((line, msg)) => {
                    proptest::prop_assert!(line >= 1);
                    proptest::prop_assert!(!msg.is_empty());
                }
            }
        }
    }
}
