//! Path discovery: shortest paths, k-shortest (Yen), and edge-disjoint
//! shortest paths.
//!
//! The paper's Spider schemes are "restricted to 4 [edge-]disjoint shortest
//! paths for every source-destination pair" (§6.1); practical
//! implementations would pick "the K shortest paths or the K
//! highest-capacity paths" (§5.3.1). All of those strategies live here.
//!
//! # The canonical shortest path
//!
//! Hop-count shortest paths are rarely unique, and cached path sets, test
//! fixtures and resumed snapshots all depend on *which* one is returned. The
//! rule, pinned by the differential test against a plain FIFO BFS: of all
//! shortest `src → dst` paths that avoid the banned channels, return the one
//! whose sequence of adjacency-slot indices — the position of each hop in
//! [`Network::neighbors`] of the node it leaves, i.e. channel-id order — is
//! lexicographically smallest. That is the predecessor chain a FIFO BFS from
//! `src` leaves at `dst`; it is *not* "lowest node ids first".

use spider_core::{
    Amount, BalanceView, BinError, ChannelId, ChannelSet, Dec, Direction, Enc, Network, NodeId,
    PairTable, Path,
};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Reusable state of [`Bfs::shortest`]: per-node arrays that are stamped
/// with the search number instead of being cleared, so one search costs in
/// proportion to the nodes it reaches, not to the size of the network.
#[derive(Debug, Default)]
struct Bfs {
    /// Number of the current search; a stamp equal to it means "reached".
    epoch: u32,
    fwd_stamp: Vec<u32>,
    bwd_stamp: Vec<u32>,
    /// Forward-tree parent of every node with a current `fwd_stamp`.
    parent: Vec<NodeId>,
    /// Hops to `dst` of every node with a current `bwd_stamp`.
    bwd_dist: Vec<u32>,
    /// Nodes reached from `src` / from `dst`, in discovery order; the tail
    /// of each is the frontier.
    fwd: Vec<NodeId>,
    bwd: Vec<NodeId>,
}

impl Bfs {
    /// The canonical shortest path (module docs) from `src` to `dst` avoiding
    /// `banned`, by bidirectional level-synchronous BFS.
    ///
    /// Whole levels are expanded, always on the side with the smaller
    /// frontier; the forward side in FIFO discovery order, so its tree is the
    /// plain BFS tree. The level in which the two searches first touch makes
    /// forward depth + backward depth the distance, and every node both have
    /// reached then lies on the forward frontier, at exactly the backward
    /// depth. Of those, the first in forward discovery order has the smallest
    /// slot sequence that far (its tree path is the prefix); the smallest
    /// continuation takes, at each node, the first open slot that leads one
    /// hop closer to `dst`. A frontier that runs empty means there is no
    /// path — reached at once when every channel of an endpoint is banned.
    fn shortest(
        &mut self,
        network: &Network,
        src: NodeId,
        dst: NodeId,
        banned: &ChannelSet,
    ) -> Option<Path> {
        if src == dst {
            return None;
        }
        let n = network.num_nodes();
        if self.parent.len() < n {
            self.fwd_stamp.resize(n, 0);
            self.bwd_stamp.resize(n, 0);
            self.parent.resize(n, NodeId(0));
            self.bwd_dist.resize(n, 0);
        }
        // Same wrap handling as `ChannelSet::clear`.
        if self.epoch == u32::MAX {
            self.fwd_stamp.fill(0);
            self.bwd_stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        let epoch = self.epoch;
        self.fwd.clear();
        self.fwd.push(src);
        self.fwd_stamp[src.index()] = epoch;
        self.bwd.clear();
        self.bwd.push(dst);
        self.bwd_stamp[dst.index()] = epoch;
        self.bwd_dist[dst.index()] = 0;

        // Start of the current frontier in `fwd` / `bwd`, and backward depth.
        let (mut fwd_lo, mut bwd_lo, mut depth) = (0, 0, 0u32);
        let meet = 'search: loop {
            let (fwd_hi, bwd_hi) = (self.fwd.len(), self.bwd.len());
            if fwd_hi - fwd_lo <= bwd_hi - bwd_lo {
                for i in fwd_lo..fwd_hi {
                    let u = self.fwd[i];
                    for &(v, c) in network.neighbors(u) {
                        if self.fwd_stamp[v.index()] == epoch || banned.contains(c) {
                            continue;
                        }
                        self.fwd_stamp[v.index()] = epoch;
                        self.parent[v.index()] = u;
                        if self.bwd_stamp[v.index()] == epoch {
                            // Discovery order: the first touch is the meeting node.
                            break 'search v;
                        }
                        self.fwd.push(v);
                    }
                }
                fwd_lo = fwd_hi;
                if fwd_lo == self.fwd.len() {
                    return None;
                }
            } else {
                depth += 1;
                let mut touched = false;
                for i in bwd_lo..bwd_hi {
                    let u = self.bwd[i];
                    for &(v, c) in network.neighbors(u) {
                        if self.bwd_stamp[v.index()] == epoch || banned.contains(c) {
                            continue;
                        }
                        self.bwd_stamp[v.index()] = epoch;
                        self.bwd_dist[v.index()] = depth;
                        touched |= self.fwd_stamp[v.index()] == epoch;
                        self.bwd.push(v);
                    }
                }
                bwd_lo = bwd_hi;
                if touched {
                    // Frontier nodes the backward search has reached are all
                    // at `depth`; take the first in discovery order.
                    let on_both = |v: &&NodeId| self.bwd_stamp[v.index()] == epoch;
                    break *self.fwd[fwd_lo..].iter().find(on_both)?;
                }
                if bwd_lo == self.bwd.len() {
                    return None;
                }
            }
        };

        let mut nodes = vec![meet];
        let mut cur = meet;
        while cur != src {
            cur = self.parent[cur.index()];
            nodes.push(cur);
        }
        nodes.reverse();
        cur = meet;
        for closer in (0..self.bwd_dist[meet.index()]).rev() {
            let &(next, _) = network.neighbors(cur).iter().find(|&&(v, c)| {
                !banned.contains(c)
                    && self.bwd_stamp[v.index()] == epoch
                    && self.bwd_dist[v.index()] == closer
            })?;
            nodes.push(next);
            cur = next;
        }
        // Parent chain plus descending distances: always a simple path.
        Path::new(network, nodes).ok()
    }
}

/// What a [`PathCache`] keeps between misses, and what the free functions
/// below build once per call: the BFS arrays plus the ban set that
/// edge-disjoint and Yen's searches fill.
#[derive(Debug, Default)]
struct Scratch {
    bfs: Bfs,
    banned: ChannelSet,
}

impl Scratch {
    fn shortest(&mut self, network: &Network, src: NodeId, dst: NodeId) -> Option<Path> {
        self.banned.clear();
        self.bfs.shortest(network, src, dst, &self.banned)
    }

    fn edge_disjoint(
        &mut self,
        network: &Network,
        src: NodeId,
        dst: NodeId,
        k: usize,
    ) -> Vec<Path> {
        let Scratch { bfs, banned } = self;
        edge_disjoint_with(k, banned, |b| bfs.shortest(network, src, dst, b))
    }

    fn k_shortest(&mut self, network: &Network, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let Scratch { bfs, banned } = self;
        yen_with(network, src, dst, k, banned, |s, d, b| {
            bfs.shortest(network, s, d, b)
        })
    }
}

/// Breadth-first shortest path by hop count, avoiding `banned` channels.
/// Among equally short paths the result is the canonical one (module docs),
/// so it is deterministic and independent of how the search is carried out.
pub fn shortest_path_avoiding(
    network: &Network,
    src: NodeId,
    dst: NodeId,
    banned: &ChannelSet,
) -> Option<Path> {
    Bfs::default().shortest(network, src, dst, banned)
}

/// Shortest path by hop count.
pub fn shortest_path(network: &Network, src: NodeId, dst: NodeId) -> Option<Path> {
    shortest_path_avoiding(network, src, dst, &ChannelSet::new())
}

/// Up to `k` mutually edge-disjoint shortest paths: repeatedly finds a BFS
/// shortest path and removes its channels (the paper's "4 disjoint shortest
/// paths" strategy).
///
/// Every path found uses up one channel at `src` and one at `dst`, so after
/// `min(deg(src), deg(dst))` successes one endpoint has no open channel left
/// and the next search stops on an empty first frontier instead of flooding
/// the graph — the common end on a scale-free topology, where most nodes
/// have fewer than `k` channels.
pub fn edge_disjoint_paths(network: &Network, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    Scratch::default().edge_disjoint(network, src, dst, k)
}

/// [`edge_disjoint_paths`] over any shortest-path search for the pair, with
/// `banned` as working storage.
fn edge_disjoint_with(
    k: usize,
    banned: &mut ChannelSet,
    mut search: impl FnMut(&ChannelSet) -> Option<Path>,
) -> Vec<Path> {
    banned.clear();
    let mut out = Vec::new();
    for _ in 0..k {
        let Some(p) = search(banned) else {
            break;
        };
        for &(c, _) in p.hops() {
            banned.insert(c);
        }
        out.push(p);
    }
    out
}

/// Up to `k` loopless shortest paths by hop count (Yen's algorithm).
/// Paths are returned in non-decreasing length; ties resolve
/// deterministically.
pub fn k_shortest_paths(network: &Network, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    Scratch::default().k_shortest(network, src, dst, k)
}

/// [`k_shortest_paths`] over any shortest-path search, with `banned` as
/// working storage.
fn yen_with(
    network: &Network,
    src: NodeId,
    dst: NodeId,
    k: usize,
    banned: &mut ChannelSet,
    mut search: impl FnMut(NodeId, NodeId, &ChannelSet) -> Option<Path>,
) -> Vec<Path> {
    banned.clear();
    let Some(first) = search(src, dst, banned) else {
        return Vec::new();
    };
    let mut result: Vec<Path> = vec![first];
    // Candidate set ordered by (len, node sequence) for determinism.
    let mut candidates: BinaryHeap<std::cmp::Reverse<(usize, Vec<NodeId>)>> = BinaryHeap::new();
    // Insert-and-membership only, never iterated, and hashing a Vec<NodeId>
    // beats a full lexicographic BTreeSet comparison on long paths.
    // spider-lint: allow(determinism) — membership-only set, no iteration
    let mut seen_candidates: std::collections::HashSet<Vec<NodeId>> = Default::default();

    while result.len() < k {
        let last = match result.last() {
            Some(p) => p.nodes().to_vec(),
            None => break,
        };
        for i in 0..last.len() - 1 {
            let spur_node = last[i];
            let root: Vec<NodeId> = last[..=i].to_vec();
            banned.clear();
            // Ban channels used by previously accepted paths sharing the root.
            for p in &result {
                if p.nodes().len() > i && p.nodes()[..=i] == root[..] {
                    if let Some(&(c, _)) = p.hops().get(i) {
                        banned.insert(c);
                    }
                }
            }
            // Ban channels incident to root nodes (except the spur) to keep
            // paths loopless.
            for &node in &root[..i] {
                for &(_, c) in network.neighbors(node) {
                    banned.insert(c);
                }
            }
            let Some(spur) = search(spur_node, dst, banned) else {
                continue;
            };
            let mut total: Vec<NodeId> = root.clone();
            total.extend_from_slice(&spur.nodes()[1..]);
            if seen_candidates.insert(total.clone()) {
                candidates.push(std::cmp::Reverse((total.len(), total)));
            }
        }
        // Pop the best unused candidate.
        let mut next: Option<Vec<NodeId>> = None;
        while let Some(std::cmp::Reverse((_, nodes))) = candidates.pop() {
            if !result.iter().any(|p| p.nodes() == nodes) {
                next = Some(nodes);
                break;
            }
        }
        match next.and_then(|nodes| Path::new(network, nodes).ok()) {
            Some(p) => result.push(p),
            None => break,
        }
    }
    result
}

/// Maximum-bottleneck ("widest") path by total channel capacity, avoiding
/// `banned` channels — the paper's "K highest-capacity paths" candidate
/// strategy (§5.3.1). Ties break toward fewer hops, then lower node ids.
pub fn widest_path_avoiding(
    network: &Network,
    src: NodeId,
    dst: NodeId,
    banned: &ChannelSet,
) -> Option<Path> {
    if src == dst {
        return None;
    }
    let n = network.num_nodes();
    // best[v] = (bottleneck, -hops) maximized lexicographically.
    let mut best: Vec<(Amount, i64)> = vec![(Amount::ZERO, 0); n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut heap: BinaryHeap<(Amount, i64, NodeId)> = BinaryHeap::new();
    best[src.index()] = (Amount::MAX, 0);
    heap.push((Amount::MAX, 0, src));
    while let Some((width, neg_hops, u)) = heap.pop() {
        if (width, neg_hops) < best[u.index()] {
            continue;
        }
        if u == dst {
            break;
        }
        for &(v, c) in network.neighbors(u) {
            if banned.contains(c) {
                continue;
            }
            let cap = network.channel(c).capacity();
            let cand = (width.min(cap), neg_hops - 1);
            if cand > best[v.index()] {
                best[v.index()] = cand;
                prev[v.index()] = Some(u);
                heap.push((cand.0, cand.1, v));
            }
        }
    }
    if best[dst.index()].0 == Amount::ZERO {
        return None;
    }
    let mut nodes = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[cur.index()] {
        nodes.push(p);
        cur = p;
        if cur == src {
            break;
        }
    }
    nodes.reverse();
    if nodes[0] != src {
        return None;
    }
    Path::new(network, nodes).ok()
}

/// Up to `k` mutually edge-disjoint widest paths (successive widest path
/// with channel removal).
pub fn widest_paths(network: &Network, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    let mut banned = ChannelSet::new();
    let mut out = Vec::new();
    for _ in 0..k {
        let Some(p) = widest_path_avoiding(network, src, dst, &banned) else {
            break;
        };
        for &(c, _) in p.hops() {
            banned.insert(c);
        }
        out.push(p);
    }
    out
}

/// Spendable bottleneck of `path` under `balances`: the minimum directional
/// balance along its hops.
pub fn path_bottleneck(balances: &dyn BalanceView, path: &Path) -> Amount {
    let mut min = Amount::MAX;
    for (i, &(c, dir)) in path.hops().iter().enumerate() {
        let from = path.nodes()[i];
        min = min.min(balances.available_dir(c, from, dir));
    }
    min
}

/// A per-pair cache of candidate path sets.
///
/// Strategy is fixed at construction; entries are computed on first use.
#[derive(Debug)]
pub struct PathCache {
    strategy: PathStrategy,
    /// Paths are `Arc`-shared so schemes can hand them to the engine (one
    /// per in-flight unit) without cloning the node/hop vectors.
    cache: PairTable<Vec<Arc<Path>>>,
    stats: PathCacheStats,
    /// Search state reused by every miss and by `restore`; its arrays are
    /// sized by the first search, so a cache that only ever hits owns none.
    scratch: Scratch,
}

/// Deterministic work counters for a [`PathCache`] (no wall-clock timings,
/// so they are identical across hosts and runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathCacheStats {
    /// Total `paths()` lookups.
    pub lookups: u64,
    /// Lookups that had to run the path-computation strategy.
    pub computed_pairs: u64,
    /// Total candidate paths produced by those computations.
    pub computed_paths: u64,
}

impl PathCacheStats {
    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.lookups - self.computed_pairs
    }
}

/// Which candidate-path strategy a [`PathCache`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathStrategy {
    /// The single BFS shortest path.
    Shortest,
    /// Up to `k` edge-disjoint shortest paths (the paper's default, k = 4).
    EdgeDisjoint(usize),
    /// Up to `k` loopless shortest paths (Yen).
    KShortest(usize),
    /// Up to `k` edge-disjoint maximum-bottleneck (highest-capacity) paths.
    WidestDisjoint(usize),
}

impl PathCache {
    /// Creates an empty cache with the given strategy.
    pub fn new(strategy: PathStrategy) -> Self {
        PathCache {
            strategy,
            cache: Default::default(),
            stats: PathCacheStats::default(),
            scratch: Scratch::default(),
        }
    }

    /// Runs the strategy for one pair (no caching, no stats).
    fn compute(
        strategy: PathStrategy,
        scratch: &mut Scratch,
        network: &Network,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<Path> {
        match strategy {
            PathStrategy::Shortest => scratch.shortest(network, src, dst).into_iter().collect(),
            PathStrategy::EdgeDisjoint(k) => scratch.edge_disjoint(network, src, dst, k),
            PathStrategy::KShortest(k) => scratch.k_shortest(network, src, dst, k),
            PathStrategy::WidestDisjoint(k) => widest_paths(network, src, dst, k),
        }
    }

    /// The paths for `(src, dst)`, computing and caching them on first use.
    pub fn paths(&mut self, network: &Network, src: NodeId, dst: NodeId) -> &[Arc<Path>] {
        self.stats.lookups += 1;
        let strategy = self.strategy;
        let (stats, scratch) = (&mut self.stats, &mut self.scratch);
        self.cache.entry_or_insert_with(src, dst, || {
            let paths = Self::compute(strategy, scratch, network, src, dst);
            stats.computed_pairs += 1;
            stats.computed_paths += paths.len() as u64;
            paths.into_iter().map(Arc::new).collect()
        })
    }

    /// Names why no cached path for `(src, dst)` can carry `unit` under
    /// `balances`: one hop per path whose sending side holds less than
    /// `unit` (the first such hop), pushed to `out` as `(channel, direction
    /// crossed)`. `true` when every path has one, so the pair's schemes
    /// answer `Unavailable` until one of the named sides is credited;
    /// `false` when some path can carry the unit, or the pair has no cached
    /// paths. Reads the cache without counting a lookup.
    pub fn blockers(
        &self,
        balances: &dyn BalanceView,
        src: NodeId,
        dst: NodeId,
        unit: Amount,
        out: &mut Vec<(ChannelId, Direction)>,
    ) -> bool {
        let Some(paths) = self.cache.get(src, dst).filter(|p| !p.is_empty()) else {
            return false;
        };
        for path in paths {
            let mut hops = path.hops().iter().zip(path.nodes());
            match hops.find(|&(&(c, dir), &from)| balances.available_dir(c, from, dir) < unit) {
                Some((&hop, _)) => out.push(hop),
                None => return false,
            }
        }
        true
    }

    /// Counts `n` lookups that were not made: asks a caller skipped because
    /// [`blockers`](Self::blockers) proved their answer, counted as made so
    /// that the counters do not depend on which asks were skipped.
    pub fn count_lookups(&mut self, n: u64) {
        self.stats.lookups += n;
    }

    /// Serializes the cache's resumable state: the set of cached pairs plus
    /// the work counters. Path contents are *not* stored — they are a pure
    /// function of the topology and are recomputed on [`restore`].
    ///
    /// [`restore`]: PathCache::restore
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut pairs: Vec<(u32, u32)> = self
            .cache
            .iter()
            .map(|(src, dst, _)| (src.0, dst.0))
            .collect();
        pairs.sort_unstable();
        let mut e = Enc::new();
        e.seq(&pairs, |e, &(s, d)| {
            e.u32(s);
            e.u32(d);
        });
        e.u64(self.stats.lookups);
        e.u64(self.stats.computed_pairs);
        e.u64(self.stats.computed_paths);
        e.into_bytes()
    }

    /// Restores state captured by [`checkpoint`]: recomputes every cached
    /// pair against `network` (deterministic given the same topology) and
    /// reinstates the work counters, so post-resume lookups and stats are
    /// indistinguishable from an uninterrupted run. Bytes that `checkpoint`
    /// cannot have written for this network are refused with
    /// [`BinError::Invalid`] before the cache is touched.
    ///
    /// [`checkpoint`]: PathCache::checkpoint
    pub fn restore(&mut self, network: &Network, bytes: &[u8]) -> Result<(), BinError> {
        let mut d = Dec::new(bytes);
        // The finder indexes per-node arrays with these ids, so nothing is
        // computed until every pair is one `checkpoint` could have written:
        // known nodes, no self-pair, strictly ascending.
        let n = network.num_nodes();
        let mut prev = None;
        let pairs = d.seq(|d| {
            let offset = d.offset();
            let pair = (d.u32()?, d.u32()?);
            let (s, t) = pair;
            if s as usize >= n || t as usize >= n || s == t || prev >= Some(pair) {
                let what = format!("pair ({s}, {t}) after {prev:?} in a {n}-node network");
                return Err(BinError::Invalid { offset, what });
            }
            prev = Some(pair);
            Ok(pair)
        })?;
        let offset = d.offset();
        let stats = PathCacheStats {
            lookups: d.u64()?,
            computed_pairs: d.u64()?,
            computed_paths: d.u64()?,
        };
        d.expect_end()?;
        // One computation per cached pair, and `hits()` subtracts.
        if stats.computed_pairs != pairs.len() as u64 || stats.lookups < stats.computed_pairs {
            let what = format!("{stats:?} for {} cached pairs", pairs.len());
            return Err(BinError::Invalid { offset, what });
        }
        self.cache = Default::default();
        for (s, t) in pairs {
            let (src, dst) = (NodeId(s), NodeId(t));
            let paths = Self::compute(self.strategy, &mut self.scratch, network, src, dst);
            self.cache
                .entry_or_insert_with(src, dst, || paths.into_iter().map(Arc::new).collect());
        }
        self.stats = stats;
        Ok(())
    }

    /// Work counters accumulated by this cache.
    pub fn stats(&self) -> PathCacheStats {
        self.stats
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use spider_core::Amount;
    use spider_topology::{barabasi_albert, erdos_renyi, ripple_topology_scaled};

    /// Ring of 6 nodes plus chord 0-3.
    fn ring_with_chord() -> Network {
        let mut g = Network::new(6);
        for i in 0..6u32 {
            g.add_channel(NodeId(i), NodeId((i + 1) % 6), Amount::from_whole(10))
                .unwrap();
        }
        g.add_channel(NodeId(0), NodeId(3), Amount::from_whole(10))
            .unwrap();
        g
    }

    #[test]
    fn shortest_path_uses_chord() {
        let g = ring_with_chord();
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(3)]);
    }

    #[test]
    fn shortest_path_none_for_self_or_unreachable() {
        let g = ring_with_chord();
        assert!(shortest_path(&g, NodeId(0), NodeId(0)).is_none());
        let mut g2 = Network::new(3);
        g2.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        assert!(shortest_path(&g2, NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn edge_disjoint_finds_three_routes() {
        let g = ring_with_chord();
        // 0 -> 3: chord (1 hop), clockwise (3 hops), counter-clockwise (3 hops).
        let paths = edge_disjoint_paths(&g, NodeId(0), NodeId(3), 4);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].len(), 1);
        // All pairwise edge-disjoint.
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                for &(c, _) in paths[i].hops() {
                    assert!(!paths[j].uses_channel(c));
                }
            }
        }
    }

    #[test]
    fn edge_disjoint_respects_k() {
        let g = ring_with_chord();
        let paths = edge_disjoint_paths(&g, NodeId(0), NodeId(3), 2);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn yen_returns_increasing_lengths() {
        let g = ring_with_chord();
        let paths = k_shortest_paths(&g, NodeId(0), NodeId(3), 5);
        assert!(paths.len() >= 3, "found {}", paths.len());
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
        // All distinct and valid.
        let mut seen = std::collections::BTreeSet::new();
        for p in &paths {
            assert!(seen.insert(p.nodes().to_vec()), "duplicate {p}");
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.dest(), NodeId(3));
        }
    }

    #[test]
    fn yen_on_line_finds_single_path() {
        let mut g = Network::new(4);
        for i in 0..3u32 {
            g.add_channel(NodeId(i), NodeId(i + 1), Amount::ONE)
                .unwrap();
        }
        let paths = k_shortest_paths(&g, NodeId(0), NodeId(3), 5);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 3);
    }

    #[test]
    fn bottleneck_is_min_directional_balance() {
        let mut g = Network::new(3);
        g.add_channel_with_balances(
            NodeId(0),
            NodeId(1),
            Amount::from_whole(9),
            Amount::from_whole(1),
        )
        .unwrap();
        g.add_channel_with_balances(
            NodeId(1),
            NodeId(2),
            Amount::from_whole(4),
            Amount::from_whole(6),
        )
        .unwrap();
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(path_bottleneck(&g, &p), Amount::from_whole(4));
        let back = Path::new(&g, vec![NodeId(2), NodeId(1), NodeId(0)]).unwrap();
        assert_eq!(path_bottleneck(&g, &back), Amount::from_whole(1));
    }

    #[test]
    fn path_cache_caches() {
        let g = ring_with_chord();
        let mut cache = PathCache::new(PathStrategy::EdgeDisjoint(4));
        assert!(cache.is_empty());
        let a = cache.paths(&g, NodeId(0), NodeId(3)).len();
        assert_eq!(cache.len(), 1);
        let b = cache.paths(&g, NodeId(0), NodeId(3)).len();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        cache.paths(&g, NodeId(1), NodeId(4));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_stats_count_lookups_and_computations() {
        let g = ring_with_chord();
        let mut cache = PathCache::new(PathStrategy::EdgeDisjoint(4));
        assert_eq!(cache.stats(), PathCacheStats::default());
        let first = cache.paths(&g, NodeId(0), NodeId(3)).len() as u64;
        cache.paths(&g, NodeId(0), NodeId(3));
        cache.paths(&g, NodeId(1), NodeId(4));
        let stats = cache.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.computed_pairs, 2);
        assert_eq!(stats.hits(), 1);
        assert!(stats.computed_paths > first);
    }

    #[test]
    fn widest_path_prefers_fat_channels() {
        // 0-1-3 with fat channels vs direct thin chord 0-3.
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(3), Amount::from_whole(100))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(3), Amount::from_whole(2))
            .unwrap();
        let p = widest_path_avoiding(&g, NodeId(0), NodeId(3), &ChannelSet::new()).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn widest_path_ties_break_to_fewer_hops() {
        // Two equal-capacity routes, 1 hop vs 2 hops.
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(10))
            .unwrap();
        let p = widest_path_avoiding(&g, NodeId(0), NodeId(2), &ChannelSet::new()).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn widest_paths_are_edge_disjoint() {
        let g = ring_with_chord();
        let paths = widest_paths(&g, NodeId(0), NodeId(3), 4);
        assert!(paths.len() >= 2);
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                for &(c, _) in paths[i].hops() {
                    assert!(!paths[j].uses_channel(c));
                }
            }
        }
    }

    #[test]
    fn widest_path_none_when_disconnected() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        assert!(widest_path_avoiding(&g, NodeId(0), NodeId(2), &ChannelSet::new()).is_none());
        assert!(widest_path_avoiding(&g, NodeId(0), NodeId(0), &ChannelSet::new()).is_none());
    }

    #[test]
    fn cache_supports_widest_strategy() {
        let g = ring_with_chord();
        let mut cache = PathCache::new(PathStrategy::WidestDisjoint(3));
        assert!(!cache.paths(&g, NodeId(0), NodeId(3)).is_empty());
    }

    #[test]
    fn cache_strategies_differ() {
        let g = ring_with_chord();
        let mut single = PathCache::new(PathStrategy::Shortest);
        let mut yen = PathCache::new(PathStrategy::KShortest(4));
        assert_eq!(single.paths(&g, NodeId(0), NodeId(3)).len(), 1);
        assert!(yen.paths(&g, NodeId(0), NodeId(3)).len() > 1);
    }

    /// The finder this module had before the bidirectional kernel: a plain
    /// forward FIFO BFS. Its predecessor chain *defines* the canonical path
    /// (module docs); the differential test holds the kernel to it.
    fn reference_shortest(
        network: &Network,
        src: NodeId,
        dst: NodeId,
        banned: &ChannelSet,
    ) -> Option<Path> {
        if src == dst {
            return None;
        }
        let n = network.num_nodes();
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[src.index()] = true;
        let mut queue = std::collections::VecDeque::from([src]);
        'outer: while let Some(u) = queue.pop_front() {
            for &(v, c) in network.neighbors(u) {
                if banned.contains(c) || seen[v.index()] {
                    continue;
                }
                seen[v.index()] = true;
                prev[v.index()] = Some(u);
                if v == dst {
                    break 'outer;
                }
                queue.push_back(v);
            }
        }
        if !seen[dst.index()] {
            return None;
        }
        let mut nodes = vec![dst];
        let mut cur = dst;
        while let Some(p) = prev[cur.index()] {
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        Path::new(network, nodes).ok()
    }

    fn reference_edge_disjoint(g: &Network, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let search = |b: &ChannelSet| reference_shortest(g, src, dst, b);
        edge_disjoint_with(k, &mut ChannelSet::new(), search)
    }

    fn reference_yen(g: &Network, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let search = |s, d, b: &ChannelSet| reference_shortest(g, s, d, b);
        yen_with(g, src, dst, k, &mut ChannelSet::new(), search)
    }

    /// `n` nodes and up to `m` uniformly random channels inside each block of
    /// `block` nodes: leaves, isolated nodes and — with `block < n` or
    /// `m ≈ n` — several components.
    fn random_graph(n: usize, block: usize, m: usize, rng: &mut StdRng) -> Network {
        let mut g = Network::new(n);
        for _ in 0..m {
            let a = rng.random_range(0..n);
            let b = a / block * block + rng.random_range(0..block);
            // Self-channels, duplicates and ids past `n` are refused; a few
            // channels fewer is fine.
            let _ = g.add_channel(NodeId::from(a), NodeId::from(b), Amount::from_whole(10));
        }
        g
    }

    /// Everything a caller may assume of a returned path set.
    fn audit(
        g: &Network,
        (src, dst): (NodeId, NodeId),
        banned: &ChannelSet,
        paths: &[Path],
        disjoint: bool,
    ) {
        for (i, p) in paths.iter().enumerate() {
            assert_eq!((p.source(), p.dest()), (src, dst));
            assert_eq!(
                Path::new(g, p.nodes().to_vec()).as_ref(),
                Ok(p),
                "trail in g"
            );
            let mut nodes = p.nodes().to_vec();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), p.nodes().len(), "{p} revisits a node");
            assert!(p.hops().iter().all(|&(c, _)| !banned.contains(c)));
            for q in &paths[i + 1..] {
                assert!(p.len() <= q.len(), "lengths decrease: {p} then {q}");
                assert_ne!(p, q);
                let shared = p.hops().iter().any(|&(c, _)| q.uses_channel(c));
                assert!(!(disjoint && shared), "{p} and {q} share a channel");
            }
        }
    }

    #[test]
    fn kernel_returns_the_reference_paths() {
        let cap = Amount::from_whole(10);
        let mut rng = StdRng::seed_from_u64(19);
        // Large, small, larger: the shared scratch is sized by the first
        // graph, mostly stale on the second and grown by the last.
        let graphs = [
            ("ripple-1500", ripple_topology_scaled(1500, cap, 7)),
            ("sparse-12", random_graph(12, 12, 11, &mut rng)),
            ("tree-300", barabasi_albert(300, 1, cap, 3)),
            ("dense-40", erdos_renyi(40, 0.3, cap, 5)),
            ("sparse-200", random_graph(200, 200, 190, &mut rng)),
            ("islands-64", random_graph(64, 20, 90, &mut rng)),
            ("hubs-2500", barabasi_albert(2500, 2, cap, 11)),
        ];
        let mut scratch = Scratch::default();
        let mut banned = ChannelSet::new();
        let none = ChannelSet::new();
        let mut compared = 0usize;
        for (name, g) in &graphs {
            if *name == "tree-300" {
                // The stamp wraps two searches from here.
                scratch.bfs.epoch = u32::MAX - 1;
            }
            let n = g.num_nodes();
            for query in 0..1500 {
                let src = NodeId::from(rng.random_range(0..n));
                let dst = match rng.random_range(0..16) {
                    0 => src,
                    _ => NodeId::from(rng.random_range(0..n)),
                };
                banned.clear();
                let mode = rng.random_range(0..6u32);
                match mode {
                    0 => {}
                    1 | 2 => {
                        let share = if mode == 1 { 0.1 } else { 0.5 };
                        for ch in g.channels() {
                            if rng.random_bool(share) {
                                banned.insert(ch.id);
                            }
                        }
                    }
                    // Every channel of an endpoint, or of the first answer:
                    // what the later edge-disjoint rounds search under.
                    3 | 4 => {
                        for &(_, c) in g.neighbors(if mode == 3 { dst } else { src }) {
                            banned.insert(c);
                        }
                    }
                    _ => {
                        if let Some(p) = reference_shortest(g, src, dst, &none) {
                            for &(c, _) in p.hops() {
                                banned.insert(c);
                            }
                        }
                    }
                }

                let want = reference_shortest(g, src, dst, &banned);
                let got = scratch.bfs.shortest(g, src, dst, &banned);
                assert_eq!(
                    got, want,
                    "{name} #{query}: {src} -> {dst}, ban mode {mode}"
                );
                assert_eq!(
                    scratch.bfs.shortest(g, src, dst, &banned),
                    want,
                    "second call"
                );
                assert_eq!(shortest_path_avoiding(g, src, dst, &banned), want, "fresh");
                audit(g, (src, dst), &banned, got.as_slice(), false);
                compared += 1;

                if query % 4 == 0 {
                    for k in 1..=5 {
                        let want = reference_edge_disjoint(g, src, dst, k);
                        let got = scratch.edge_disjoint(g, src, dst, k);
                        assert_eq!(got, want, "{name} #{query}: {src} -> {dst}, k = {k}");
                        assert_eq!(scratch.edge_disjoint(g, src, dst, k), want, "second call");
                        assert_eq!(edge_disjoint_paths(g, src, dst, k), want, "fresh");
                        assert!(got.len() <= k.min(g.degree(src)).min(g.degree(dst)));
                        audit(g, (src, dst), &none, &got, true);
                        compared += 1;
                    }
                }
                if query % 8 == 0 && n <= 300 {
                    let want = reference_yen(g, src, dst, 4);
                    let got = scratch.k_shortest(g, src, dst, 4);
                    assert_eq!(got, want, "{name} #{query}: Yen {src} -> {dst}");
                    assert_eq!(scratch.k_shortest(g, src, dst, 4), want, "second call");
                    assert_eq!(k_shortest_paths(g, src, dst, 4), want, "fresh");
                    audit(g, (src, dst), &none, &got, false);
                    compared += 1;
                }
            }
        }
        assert!(scratch.bfs.epoch < u32::MAX - 1, "the stamp wrapped");
        assert!(compared >= 10_000, "only {compared} queries compared");
    }

    /// A `checkpoint` blob written by hand.
    fn cache_blob(pairs: &[(u32, u32)], stats: [u64; 3]) -> Vec<u8> {
        let mut e = Enc::new();
        e.seq(pairs, |e, &(s, d)| {
            e.u32(s);
            e.u32(d);
        });
        stats.into_iter().for_each(|v| e.u64(v));
        e.into_bytes()
    }

    #[test]
    fn restore_rejects_blobs_checkpoint_cannot_write() {
        let g = ring_with_chord();
        let mut cache = PathCache::new(PathStrategy::EdgeDisjoint(4));
        cache.paths(&g, NodeId(1), NodeId(4));
        cache.paths(&g, NodeId(0), NodeId(3));
        cache.paths(&g, NodeId(0), NodeId(3));
        let good = cache.checkpoint();
        assert_eq!(good, cache_blob(&[(0, 3), (1, 4)], [3, 2, 5]));

        let mut padded = good.clone();
        padded.push(0);
        let tampered = [
            ("src past the network", cache_blob(&[(6, 3)], [1, 1, 3])),
            ("dst past the network", cache_blob(&[(0, 6)], [1, 1, 3])),
            ("dst far past", cache_blob(&[(0, u32::MAX)], [1, 1, 3])),
            ("self-pair", cache_blob(&[(2, 2)], [1, 1, 0])),
            ("unsorted", cache_blob(&[(1, 4), (0, 3)], [3, 2, 5])),
            ("repeated", cache_blob(&[(0, 3), (0, 3)], [3, 2, 5])),
            (
                "more computed than cached",
                cache_blob(&[(0, 3)], [3, 2, 5]),
            ),
            (
                "fewer computed than cached",
                cache_blob(&[(0, 3), (1, 4)], [3, 1, 5]),
            ),
            (
                "fewer lookups than computed",
                cache_blob(&[(0, 3), (1, 4)], [1, 2, 5]),
            ),
            ("trailing byte", padded),
        ];
        for (label, blob) in &tampered {
            let err = cache.restore(&g, blob).expect_err(label);
            assert!(matches!(err, BinError::Invalid { .. }), "{label}: {err}");
            // Refused before anything was replaced.
            assert_eq!(cache.checkpoint(), good, "{label}");
        }
        let err = cache.restore(&g, &good[..good.len() - 1]).expect_err("cut");
        assert!(matches!(err, BinError::Truncated { .. }), "cut: {err}");

        let mut fresh = PathCache::new(PathStrategy::EdgeDisjoint(4));
        fresh
            .restore(&g, &good)
            .expect("the untampered blob restores");
        assert_eq!(fresh.checkpoint(), good);
    }

    #[test]
    fn checkpoint_restore_round_trips_every_strategy() {
        let g = ripple_topology_scaled(400, Amount::from_whole(10), 5);
        let contents = |cache: &PathCache| -> Vec<(NodeId, NodeId, Vec<Path>)> {
            let paths = |ps: &Vec<Arc<Path>>| ps.iter().map(|p| Path::clone(p)).collect();
            (cache.cache.iter())
                .map(|(s, d, ps)| (s, d, paths(ps)))
                .collect()
        };
        for strategy in [
            PathStrategy::Shortest,
            PathStrategy::EdgeDisjoint(4),
            PathStrategy::KShortest(4),
            PathStrategy::WidestDisjoint(4),
        ] {
            let mut rng = StdRng::seed_from_u64(23);
            let mut pair = || {
                (0..2)
                    .map(|_| NodeId(rng.random_range(0..400u32)))
                    .collect()
            };
            let mut cache = PathCache::new(strategy);
            for _ in 0..60 {
                let p: Vec<NodeId> = pair();
                if p[0] != p[1] {
                    cache.paths(&g, p[0], p[1]);
                    cache.paths(&g, p[0], p[1]);
                }
            }
            let bytes = cache.checkpoint();
            let mut restored = PathCache::new(strategy);
            restored.restore(&g, &bytes).expect("restore");
            assert_eq!(contents(&restored), contents(&cache), "{strategy:?}");
            assert_eq!(restored.stats(), cache.stats(), "{strategy:?}");
            assert_eq!(restored.checkpoint(), bytes, "{strategy:?}");

            let p: Vec<NodeId> = pair();
            assert_eq!(restored.paths(&g, p[0], p[1]), cache.paths(&g, p[0], p[1]));
            assert_eq!(restored.stats(), cache.stats(), "{strategy:?}");
        }
    }
}
