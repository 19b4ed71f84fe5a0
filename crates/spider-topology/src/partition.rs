//! Deterministic landmark partitioning for shard-parallel simulation.
//!
//! [`Partition::build`] cuts a network into `num_shards` regions by seeded
//! farthest-point landmark selection followed by capped multi-source BFS
//! region growing, then assigns every channel exactly one *owner shard* —
//! the only shard allowed to mutate that channel's two ledger slots in the
//! sharded engine. The whole construction is a pure function of
//! `(network, num_shards, seed)`: the same inputs produce byte-identical
//! partitions on any host, which the sharded engine's determinism
//! guarantees build on.

use serde::{Deserialize, Serialize};
use spider_core::{ChannelId, Network, NodeId};

/// A deterministic shard assignment: every node belongs to a region and
/// every channel has exactly one owner shard.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    num_shards: u16,
    /// Region (shard) of each node, indexed by node id.
    node_shard: Vec<u16>,
    /// Owner shard of each channel, indexed by channel id.
    channel_owner: Vec<u16>,
}

impl Partition {
    /// Builds a deterministic partition of `network` into `num_shards`
    /// landmark regions.
    ///
    /// Construction: the seed picks the first landmark; the remaining
    /// landmarks are chosen by max–min BFS distance (farthest-point
    /// traversal, ties to the lower node id). Nodes then join their
    /// nearest landmark's region, processed in ascending
    /// `(distance, node id)` order with a per-region cap of
    /// `ceil(n / num_shards)` so regions stay balanced; nodes unreachable
    /// from every landmark fall back to the least-loaded region. Finally
    /// each channel is owned by whichever endpoint region currently owns
    /// fewer channels (ties to the lower shard id), visiting channels in
    /// id order.
    ///
    /// `num_shards` is clamped to `[1, num_nodes]` (and to `u16::MAX`).
    pub fn build(network: &Network, num_shards: usize, seed: u64) -> Partition {
        let n = network.num_nodes();
        let shards = num_shards.clamp(1, n.max(1)).min(u16::MAX as usize);
        if shards <= 1 || n == 0 {
            return Partition {
                num_shards: 1,
                node_shard: vec![0; n],
                channel_owner: vec![0; network.num_channels()],
            };
        }

        // Seeded first landmark, then farthest-point selection.
        let mut landmarks: Vec<NodeId> = vec![NodeId((seed % n as u64) as u32)];
        // min over chosen landmarks of BFS hop distance, per node.
        let mut min_dist = network.bfs_distances(landmarks[0]);
        while landmarks.len() < shards {
            let mut best: Option<(u32, usize)> = None;
            for (i, &d) in min_dist.iter().enumerate() {
                if landmarks.iter().any(|l| l.index() == i) {
                    continue;
                }
                // Farthest first; unreachable (u32::MAX) wins outright.
                let better = match best {
                    None => true,
                    Some((bd, _)) => d > bd,
                };
                if better {
                    best = Some((d, i));
                }
            }
            let Some((_, pick)) = best else { break };
            let lm = NodeId(pick as u32);
            landmarks.push(lm);
            for (d, nd) in min_dist.iter_mut().zip(network.bfs_distances(lm)) {
                *d = (*d).min(nd);
            }
        }

        // Per-landmark BFS distances for nearest-region assignment.
        let dists: Vec<Vec<u32>> = landmarks
            .iter()
            .map(|&lm| network.bfs_distances(lm))
            .collect();
        let cap = n.div_ceil(landmarks.len());
        let mut node_shard = vec![u16::MAX; n];
        let mut load = vec![0usize; landmarks.len()];
        // Assignment order: ascending (best distance, node id) so nodes
        // close to their landmark claim region slots first.
        let mut order: Vec<(u32, usize)> = (0..n)
            .map(|i| {
                let best = dists.iter().map(|d| d[i]).min().unwrap_or(u32::MAX);
                (best, i)
            })
            .collect();
        order.sort_unstable();
        for (_, i) in order {
            // Regions ranked by distance to this node, ties to lower shard.
            let mut ranked: Vec<(u32, usize)> =
                dists.iter().enumerate().map(|(s, d)| (d[i], s)).collect();
            ranked.sort_unstable();
            let mut chosen = ranked
                .iter()
                .find(|&&(d, s)| d != u32::MAX && load[s] < cap)
                .map(|&(_, s)| s);
            if chosen.is_none() {
                // Unreachable from every landmark (or every reachable
                // region is full): least-loaded region, lower id first.
                chosen = (0..load.len()).min_by_key(|&s| (load[s], s));
            }
            let s = chosen.unwrap_or(0);
            node_shard[i] = s as u16;
            load[s] += 1;
        }

        // Channel ownership: the endpoint region owning fewer channels so
        // far, ties to the lower shard id, channels visited in id order.
        let mut channel_owner = vec![0u16; network.num_channels()];
        let mut owned = vec![0usize; landmarks.len()];
        for ch in network.channels() {
            let sa = node_shard[ch.a.index()] as usize;
            let sb = node_shard[ch.b.index()] as usize;
            let pick = if sa == sb || owned[sa] < owned[sb] || (owned[sa] == owned[sb] && sa < sb) {
                sa
            } else {
                sb
            };
            channel_owner[ch.id.index()] = pick as u16;
            owned[pick] += 1;
        }

        Partition {
            num_shards: landmarks.len() as u16,
            node_shard,
            channel_owner,
        }
    }

    /// The degenerate single-shard partition (everything owned by shard 0).
    pub fn single(network: &Network) -> Partition {
        Partition {
            num_shards: 1,
            node_shard: vec![0; network.num_nodes()],
            channel_owner: vec![0; network.num_channels()],
        }
    }

    /// Number of shards (≥ 1; may be less than requested on tiny graphs).
    pub fn num_shards(&self) -> usize {
        self.num_shards as usize
    }

    /// Region of `node`.
    #[inline]
    pub fn node_shard(&self, node: NodeId) -> usize {
        self.node_shard[node.index()] as usize
    }

    /// Owner shard of `channel`.
    #[inline]
    pub fn channel_owner(&self, channel: ChannelId) -> usize {
        self.channel_owner[channel.index()] as usize
    }

    /// Per-node regions, indexed by node id.
    pub fn node_shards(&self) -> &[u16] {
        &self.node_shard
    }

    /// Per-channel owner shards, indexed by channel id.
    pub fn channel_owners(&self) -> &[u16] {
        &self.channel_owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{isp_topology, ripple_topology_scaled};
    use spider_core::Amount;

    /// Members per shard of a node-to-region or channel-to-owner map.
    fn shard_counts(p: &Partition, map: &[u16]) -> Vec<usize> {
        let mut counts = vec![0usize; p.num_shards()];
        for &s in map {
            counts[s as usize] += 1;
        }
        counts
    }

    #[test]
    fn deterministic_across_runs() {
        let g = isp_topology(Amount::from_whole(200));
        for shards in [1, 2, 4, 7] {
            let a = Partition::build(&g, shards, 42);
            let b = Partition::build(&g, shards, 42);
            assert_eq!(a, b, "partition must be a pure function of inputs");
        }
        // A different seed is allowed to (and here does) move landmarks.
        let a = Partition::build(&g, 4, 1);
        let b = Partition::build(&g, 4, 9999);
        assert_eq!(a.num_shards(), b.num_shards());
    }

    #[test]
    fn every_channel_has_exactly_one_owner() {
        let g = ripple_topology_scaled(400, Amount::from_whole(5_000), 7);
        let p = Partition::build(&g, 4, 7);
        assert_eq!(p.channel_owners().len(), g.num_channels());
        for ch in g.channels() {
            let owner = p.channel_owner(ch.id);
            assert!(owner < p.num_shards());
            // The owner is one of the endpoint regions.
            let ends = [p.node_shard(ch.a), p.node_shard(ch.b)];
            assert!(
                ends.contains(&owner),
                "channel {:?} owned by {owner}, endpoints in {ends:?}",
                ch.id
            );
        }
        assert_eq!(p.channel_owners().len(), g.num_channels());
    }

    #[test]
    fn shards_are_balanced_on_isp_and_ripple() {
        let isp = isp_topology(Amount::from_whole(200));
        let ripple = ripple_topology_scaled(400, Amount::from_whole(5_000), 11);
        for (g, name) in [(&isp, "isp"), (&ripple, "ripple")] {
            for shards in [2usize, 4] {
                let p = Partition::build(g, shards, 3);
                let nodes = shard_counts(&p, p.node_shards());
                let cap = g.num_nodes().div_ceil(shards);
                assert!(
                    nodes.iter().all(|&c| c > 0 && c <= cap),
                    "{name}/{shards}: node counts {nodes:?} exceed cap {cap}"
                );
                // Channel ownership balanced within a factor of 3 of even.
                let chans = shard_counts(&p, p.channel_owners());
                let max = *chans.iter().max().unwrap();
                let even = g.num_channels().div_ceil(shards);
                assert!(
                    max <= 3 * even,
                    "{name}/{shards}: channel counts {chans:?} too skewed"
                );
            }
        }
    }

    #[test]
    fn clamps_degenerate_shard_counts() {
        let g = isp_topology(Amount::from_whole(100));
        let p0 = Partition::build(&g, 0, 5);
        assert_eq!(p0.num_shards(), 1);
        let p_many = Partition::build(&g, 10_000, 5);
        assert!(p_many.num_shards() <= g.num_nodes());
        assert_eq!(Partition::single(&g).num_shards(), 1);
    }

    /// Pins the exact partition of the medium (ripple-400) topology so any
    /// change to the construction is a conscious, reviewed one — the
    /// sharded engine's cross-run byte-identity depends on it.
    #[test]
    fn medium_topology_partition_fixture() {
        let g = ripple_topology_scaled(400, Amount::from_whole(5_000), 42);
        let p = Partition::build(&g, 4, 42);
        let json = serde_json::to_string(&p).expect("partition serializes");
        let fixture_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/partition_ripple400_s4_seed42.json"
        );
        if std::env::var_os("SPIDER_REGEN_FIXTURES").is_some() {
            std::fs::write(fixture_path, &json).expect("fixture written");
        }
        let expected = std::fs::read_to_string(fixture_path)
            .unwrap_or_else(|e| panic!("missing fixture {fixture_path}: {e}"));
        assert_eq!(
            json.trim(),
            expected.trim(),
            "partition of the medium topology drifted from the pinned fixture; \
             if intentional, regenerate tests/fixtures/partition_ripple400_s4_seed42.json"
        );
    }
}
