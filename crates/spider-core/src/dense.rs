//! Dense, index-addressed containers for hot-path state.
//!
//! [`NodeId`] and [`ChannelId`] are dense indices (a channel's id *is* its
//! index in [`crate::Network::channels`]), so per-channel and per-pair state
//! does not need ordered maps: a `Vec` slot addressed by the id is both
//! faster (no pointer-chasing, no comparisons) and deterministic by
//! construction — iteration order is id order, always.
//!
//! Two containers cover the workspace's needs:
//!
//! - [`ChannelSet`] — an epoch-versioned membership bitmap over channels.
//!   `clear()` is O(1) (it bumps the epoch), so search loops can reuse one
//!   allocation across thousands of queries.
//! - [`PairTable`] — per-`(src, dst)` state, laid out as one row per source
//!   node with destinations kept sorted. Lookups are a `Vec` index plus a
//!   binary search over the source's (typically short) destination list;
//!   iteration is in `(src, dst)` order.

use crate::ids::{ChannelId, NodeId};

/// A set of channels, backed by an epoch-versioned dense bitmap.
///
/// A slot is a member when its mark equals the current epoch, so
/// [`clear`](ChannelSet::clear) never touches the backing storage. The set
/// grows on demand; querying beyond the backing storage is simply `false`.
#[derive(Clone, Debug)]
pub struct ChannelSet {
    marks: Vec<u32>,
    epoch: u32,
    len: usize,
}

impl Default for ChannelSet {
    /// Same as [`ChannelSet::new`]: the epoch must not start at the value
    /// fresh marks are zeroed to.
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelSet {
    /// An empty set with no preallocated backing storage.
    pub fn new() -> Self {
        ChannelSet {
            marks: Vec::new(),
            epoch: 1,
            len: 0,
        }
    }

    /// Inserts `channel`; returns `true` if it was not already a member.
    pub fn insert(&mut self, channel: ChannelId) -> bool {
        let i = channel.index();
        if i >= self.marks.len() {
            self.marks.resize(i + 1, 0);
        }
        if self.marks[i] == self.epoch {
            return false;
        }
        self.marks[i] = self.epoch;
        self.len += 1;
        true
    }

    /// `true` if `channel` is a member.
    #[inline]
    pub fn contains(&self, channel: ChannelId) -> bool {
        self.marks
            .get(channel.index())
            .is_some_and(|&m| m == self.epoch)
    }

    /// Empties the set in O(1) by advancing the epoch; the backing storage
    /// (and its capacity) is retained.
    pub fn clear(&mut self) {
        self.len = 0;
        if self.epoch == u32::MAX {
            // One reset every 2^32 - 1 clears keeps the marks sound.
            self.marks.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-`(source, destination)` state with dense source rows.
///
/// The outer `Vec` is indexed by the source node; each row keeps its
/// destinations sorted by id, so a lookup is one indexed load plus a binary
/// search over that source's destinations. Iteration visits entries in
/// `(src, dst)` order — deterministic by construction.
#[derive(Clone, Debug)]
pub struct PairTable<T> {
    rows: Vec<Vec<(NodeId, T)>>,
    len: usize,
}

impl<T> Default for PairTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PairTable<T> {
    /// An empty table; rows grow on demand.
    pub fn new() -> Self {
        PairTable {
            rows: Vec::new(),
            len: 0,
        }
    }

    /// The entry for `(src, dst)`, if present.
    #[inline]
    pub fn get(&self, src: NodeId, dst: NodeId) -> Option<&T> {
        let row = self.rows.get(src.index())?;
        let i = row.binary_search_by_key(&dst, |e| e.0).ok()?;
        Some(&row[i].1)
    }

    /// Mutable access to the entry for `(src, dst)`, if present.
    #[inline]
    pub fn get_mut(&mut self, src: NodeId, dst: NodeId) -> Option<&mut T> {
        let row = self.rows.get_mut(src.index())?;
        let i = row.binary_search_by_key(&dst, |e| e.0).ok()?;
        Some(&mut row[i].1)
    }

    /// The entry for `(src, dst)`, inserting `init()` first when absent.
    pub fn entry_or_insert_with(
        &mut self,
        src: NodeId,
        dst: NodeId,
        init: impl FnOnce() -> T,
    ) -> &mut T {
        if src.index() >= self.rows.len() {
            self.rows.resize_with(src.index() + 1, Vec::new);
        }
        let row = &mut self.rows[src.index()];
        match row.binary_search_by_key(&dst, |e| e.0) {
            Ok(i) => &mut row[i].1,
            Err(i) => {
                row.insert(i, (dst, init()));
                self.len += 1;
                &mut row[i].1
            }
        }
    }

    /// Number of `(src, dst)` entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the table has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates entries in `(src, dst)` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &T)> {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(s, row)| row.iter().map(move |(d, v)| (NodeId(s as u32), *d, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_set_insert_contains() {
        let mut s = ChannelSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(ChannelId(3)));
        assert!(s.insert(ChannelId(3)));
        assert!(!s.insert(ChannelId(3)), "double insert reports false");
        assert!(s.contains(ChannelId(3)));
        assert!(!s.contains(ChannelId(2)));
        assert!(!s.contains(ChannelId(4_000)), "out of range is absent");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn channel_set_clear_is_cheap_and_complete() {
        let mut s = ChannelSet::new();
        for i in 0..8 {
            s.insert(ChannelId(i));
        }
        assert_eq!(s.len(), 8);
        let cap = s.marks.len();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.marks.len(), cap, "storage retained");
        for i in 0..8 {
            assert!(!s.contains(ChannelId(i)));
        }
        assert!(s.insert(ChannelId(5)));
        assert!(s.contains(ChannelId(5)));
    }

    #[test]
    fn channel_set_default_is_empty_after_growth() {
        let mut s = ChannelSet::default();
        s.insert(ChannelId(5));
        assert!(!s.contains(ChannelId(3)), "grown slots are not members");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn channel_set_epoch_wraparound_resets_marks() {
        let mut s = ChannelSet::new();
        s.epoch = u32::MAX - 1;
        s.insert(ChannelId(0));
        s.clear(); // -> u32::MAX
        assert!(!s.contains(ChannelId(0)));
        s.insert(ChannelId(1));
        s.clear(); // wraps: marks reset, epoch back to 1
        assert_eq!(s.epoch, 1);
        assert!(!s.contains(ChannelId(0)));
        assert!(!s.contains(ChannelId(1)));
        s.insert(ChannelId(0));
        assert!(s.contains(ChannelId(0)));
    }

    #[test]
    fn pair_table_insert_get() {
        let mut t: PairTable<u64> = PairTable::new();
        assert!(t.get(NodeId(1), NodeId(2)).is_none());
        *t.entry_or_insert_with(NodeId(1), NodeId(2), || 0) += 7;
        *t.entry_or_insert_with(NodeId(1), NodeId(2), || 0) += 1;
        assert_eq!(t.get(NodeId(1), NodeId(2)), Some(&8));
        assert_eq!(t.len(), 1);
        *t.get_mut(NodeId(1), NodeId(2)).unwrap() = 5;
        assert_eq!(t.get(NodeId(1), NodeId(2)), Some(&5));
        assert!(t.get(NodeId(2), NodeId(1)).is_none(), "directional");
        assert!(t.get(NodeId(9), NodeId(9)).is_none(), "beyond rows");
    }

    #[test]
    fn pair_table_iterates_in_src_dst_order() {
        let mut t: PairTable<&str> = PairTable::new();
        t.entry_or_insert_with(NodeId(2), NodeId(1), || "c");
        t.entry_or_insert_with(NodeId(0), NodeId(3), || "b");
        t.entry_or_insert_with(NodeId(0), NodeId(1), || "a");
        t.entry_or_insert_with(NodeId(2), NodeId(3), || "d");
        let order: Vec<(u32, u32, &str)> = t.iter().map(|(s, d, v)| (s.0, d.0, *v)).collect();
        assert_eq!(
            order,
            vec![(0, 1, "a"), (0, 3, "b"), (2, 1, "c"), (2, 3, "d")]
        );
        assert_eq!(t.len(), 4);
    }
}
