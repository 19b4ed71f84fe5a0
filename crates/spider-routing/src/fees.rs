//! Routing fees (§2: intermediaries earn a fee for relaying; §7 discusses
//! the economics).
//!
//! A [`FeeSchedule`] assigns every channel a Lightning-style fee: a flat
//! base plus a proportional part in parts-per-million. Forwarding `m`
//! tokens over a hop requires delivering `m + fee(m)` *into* that hop, so
//! the amounts to lock grow from the receiver backwards — computed by
//! [`FeeSchedule::path_amounts`]. [`cheapest_path`] finds the route
//! minimizing total fees for a probe amount, modeling the paper's "rational
//! users \[who\] prefer cheaper routes".

use crate::paths::shortest_path;
use spider_core::{Amount, ChannelId, Network, NodeId, Path};
use std::collections::BinaryHeap;

/// Per-channel fee parameters: `fee(m) = base + m · rate_ppm / 10⁶`.
#[derive(Clone, Debug)]
pub struct FeeSchedule {
    base: Vec<Amount>,
    rate_ppm: Vec<u32>,
}

impl FeeSchedule {
    /// A schedule where every relay is free.
    pub fn zero(network: &Network) -> Self {
        FeeSchedule {
            base: vec![Amount::ZERO; network.num_channels()],
            rate_ppm: vec![0; network.num_channels()],
        }
    }

    /// The same base + proportional fee on every channel.
    pub fn uniform(network: &Network, base: Amount, rate_ppm: u32) -> Self {
        assert!(!base.is_negative());
        FeeSchedule {
            base: vec![base; network.num_channels()],
            rate_ppm: vec![rate_ppm; network.num_channels()],
        }
    }

    /// Overrides one channel's fee.
    pub fn set(&mut self, channel: ChannelId, base: Amount, rate_ppm: u32) {
        assert!(!base.is_negative());
        self.base[channel.index()] = base;
        self.rate_ppm[channel.index()] = rate_ppm;
    }

    /// Fee charged for forwarding `amount` across `channel`. Saturates at
    /// [`Amount::MAX`] for absurd inputs instead of wrapping.
    pub fn fee(&self, channel: ChannelId, amount: Amount) -> Amount {
        self.base[channel.index()].saturating_add(Amount::from_micros(
            (amount.micros() as i128 * self.rate_ppm[channel.index()] as i128 / 1_000_000) as i64,
        ))
    }

    /// `true` when every channel relays for free.
    pub fn is_free(&self) -> bool {
        self.base.iter().all(|b| b.is_zero()) && self.rate_ppm.iter().all(|&r| r == 0)
    }

    /// Per-channel `(base, rate_ppm)` parameters in channel-id order, for
    /// serializing a schedule into an engine snapshot.
    pub fn per_channel(&self) -> Vec<(Amount, u32)> {
        self.base
            .iter()
            .copied()
            .zip(self.rate_ppm.iter().copied())
            .collect()
    }

    /// Per-hop amounts to lock so that `delivered` arrives at the
    /// destination: computed from the last hop backwards — each upstream
    /// hop must carry the downstream amount plus the downstream hop's fee.
    ///
    /// `amounts[i]` is what hop `i`'s sender locks; `amounts[0] − delivered`
    /// is the total fee the payment's sender pays.
    ///
    /// By Lightning convention the *first* hop charges nothing (the sender
    /// spends its own channel).
    pub fn path_amounts(&self, path: &Path, delivered: Amount) -> Vec<Amount> {
        let hops = path.hops();
        let mut amounts = vec![delivered; hops.len()];
        // Walk backwards: hop i must deliver amounts[i+1] plus hop i+1's fee.
        for i in (0..hops.len().saturating_sub(1)).rev() {
            let (next_channel, _) = hops[i + 1];
            amounts[i] = amounts[i + 1].saturating_add(self.fee(next_channel, amounts[i + 1]));
        }
        amounts
    }

    /// [`path_amounts`](Self::path_amounts), or `None` when no hop of `path`
    /// charges anything and every hop simply carries `delivered` — so a
    /// caller locks, settles and refunds the same way with or without fees.
    pub fn hop_amounts(&self, path: &Path, delivered: Amount) -> Option<Vec<Amount>> {
        let amounts = self.path_amounts(path, delivered);
        // Fees are never negative, so the first hop carries the most.
        (amounts.first() != Some(&delivered)).then_some(amounts)
    }

    /// Total fee the sender pays to deliver `delivered` along `path`.
    pub fn total_fee(&self, path: &Path, delivered: Amount) -> Amount {
        self.path_amounts(path, delivered)[0].saturating_sub(delivered)
    }
}

/// The cheapest (minimum total fee) route for delivering `probe` tokens,
/// ties broken by hop count then node ids. Returns the unweighted shortest
/// path when the schedule is free.
pub fn cheapest_path(
    network: &Network,
    fees: &FeeSchedule,
    src: NodeId,
    dst: NodeId,
    probe: Amount,
) -> Option<Path> {
    if fees.is_free() {
        return shortest_path(network, src, dst);
    }
    if src == dst {
        return None;
    }
    // Dijkstra from the destination backwards so per-hop fee composition is
    // exact: need[v] = amount v must forward for `probe` to arrive at dst.
    // The sender's own first hop charges nothing (Lightning convention, and
    // what `path_amounts` implements), so the best route is chosen by
    // minimizing over src's *neighbors* rather than relaxing into src —
    // relaxing into src would wrongly price the fee-free first hop.
    let n = network.num_nodes();
    const INF: i64 = i64::MAX / 4;
    let mut need: Vec<(i64, u32)> = vec![(INF, u32::MAX); n]; // (micros, hops)
    let mut next_hop: Vec<Option<NodeId>> = vec![None; n];
    need[dst.index()] = (probe.micros(), 0);
    let mut heap: BinaryHeap<std::cmp::Reverse<(i64, u32, NodeId)>> = BinaryHeap::new();
    heap.push(std::cmp::Reverse((probe.micros(), 0, dst)));
    while let Some(std::cmp::Reverse((cost, hops, v))) = heap.pop() {
        if (cost, hops) > need[v.index()] {
            continue;
        }
        for &(u, c) in network.neighbors(v) {
            if u == src {
                continue; // src's hop is priced separately below
            }
            // u forwards toward v: u must send cost plus this hop's fee.
            let forwarded = Amount::from_micros(cost);
            let fee = fees.fee(c, forwarded);
            let cand = (cost.saturating_add(fee.micros()), hops + 1);
            if cand < need[u.index()] {
                need[u.index()] = cand;
                next_hop[u.index()] = Some(v);
                heap.push(std::cmp::Reverse((cand.0, cand.1, u)));
            }
        }
    }
    // First hop: free for the sender; pick the neighbor that needs the
    // least (ties: fewer hops, then lower node id).
    let mut first: Option<((i64, u32, NodeId), NodeId)> = None;
    for &(w, _) in network.neighbors(src) {
        if w == dst {
            // Direct channel: nothing to forward through, zero fee.
            first = Some(((probe.micros(), 0, w), w));
            break;
        }
        let (cost, hops) = need[w.index()];
        if cost >= INF {
            continue;
        }
        let key = (cost, hops, w);
        if first.is_none_or(|(best, _)| key < best) {
            first = Some((key, w));
        }
    }
    let (_, mut cur) = first?;
    let mut nodes = vec![src, cur];
    while cur != dst {
        // Reached nodes always have a next hop; `?` degrades to "no path"
        // if that invariant is ever broken.
        let nxt = next_hop[cur.index()]?;
        nodes.push(nxt);
        cur = nxt;
    }
    Path::new(network, nodes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Network {
        // Two routes 0->3: via 1 and via 2.
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(3), Amount::from_whole(100))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(100))
            .unwrap();
        g.add_channel(NodeId(2), NodeId(3), Amount::from_whole(100))
            .unwrap();
        g
    }

    #[test]
    fn zero_schedule_is_free() {
        let g = diamond();
        let f = FeeSchedule::zero(&g);
        assert!(f.is_free());
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(3)]).unwrap();
        assert_eq!(f.total_fee(&p, Amount::from_whole(10)), Amount::ZERO);
        let amounts = f.path_amounts(&p, Amount::from_whole(10));
        assert_eq!(amounts, vec![Amount::from_whole(10); 2]);
    }

    #[test]
    fn proportional_fee_math() {
        let g = diamond();
        let f = FeeSchedule::uniform(&g, Amount::from_micros(100), 10_000); // 1%
        let c = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
        // fee(10) = 0.0001 + 0.1 = 0.1001 tokens
        assert_eq!(
            f.fee(c, Amount::from_whole(10)),
            Amount::from_tokens(0.1001)
        );
    }

    #[test]
    fn path_amounts_compound_backwards() {
        let g = diamond();
        let f = FeeSchedule::uniform(&g, Amount::ZERO, 100_000); // 10%
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(3)]).unwrap();
        let amounts = f.path_amounts(&p, Amount::from_whole(10));
        // Last hop carries 10; first hop carries 10 + 10% of 10 = 11
        // (sender's own hop is free).
        assert_eq!(amounts[1], Amount::from_whole(10));
        assert_eq!(amounts[0], Amount::from_whole(11));
        assert_eq!(
            f.total_fee(&p, Amount::from_whole(10)),
            Amount::from_whole(1)
        );
    }

    #[test]
    fn single_hop_pays_no_fee() {
        let g = diamond();
        let f = FeeSchedule::uniform(&g, Amount::from_whole(1), 500_000);
        let p = Path::new(&g, vec![NodeId(0), NodeId(1)]).unwrap();
        assert_eq!(f.total_fee(&p, Amount::from_whole(10)), Amount::ZERO);
    }

    #[test]
    fn cheapest_path_avoids_expensive_route() {
        let g = diamond();
        let mut f = FeeSchedule::zero(&g);
        // Make the 1-route expensive on its second hop.
        let c13 = g.channel_between(NodeId(1), NodeId(3)).unwrap().id;
        f.set(c13, Amount::from_whole(5), 0);
        let c23 = g.channel_between(NodeId(2), NodeId(3)).unwrap().id;
        f.set(c23, Amount::from_micros(1), 0);
        let p = cheapest_path(&g, &f, NodeId(0), NodeId(3), Amount::from_whole(10)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn cheapest_path_free_schedule_falls_back_to_shortest() {
        let g = diamond();
        let f = FeeSchedule::zero(&g);
        let p = cheapest_path(&g, &f, NodeId(0), NodeId(3), Amount::ONE).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn cheapest_path_none_for_disconnected() {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::ONE).unwrap();
        let f = FeeSchedule::uniform(&g, Amount::ONE, 0);
        assert!(cheapest_path(&g, &f, NodeId(0), NodeId(2), Amount::ONE).is_none());
        assert!(cheapest_path(&g, &f, NodeId(0), NodeId(0), Amount::ONE).is_none());
    }

    #[test]
    fn first_hop_fee_is_not_priced_into_route_choice() {
        // Route A's only fee sits on the sender's own (free) first hop;
        // route B has a small fee on its second hop. True sender cost:
        // A = 0, B > 0 — the router must pick A despite the nominal fee.
        let g = diamond();
        let mut f = FeeSchedule::zero(&g);
        let c01 = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
        f.set(c01, Amount::from_whole(50), 0); // huge, but never charged
        let c23 = g.channel_between(NodeId(2), NodeId(3)).unwrap().id;
        f.set(c23, Amount::from_micros(500), 0);
        let p = cheapest_path(&g, &f, NodeId(0), NodeId(3), Amount::from_whole(10)).unwrap();
        assert_eq!(
            p.nodes(),
            &[NodeId(0), NodeId(1), NodeId(3)],
            "free first hop wins"
        );
        assert_eq!(f.total_fee(&p, Amount::from_whole(10)), Amount::ZERO);
    }

    #[test]
    fn fee_ties_break_to_fewer_hops() {
        // Equal fees: prefer the 2-hop route over a 3-hop one.
        let mut g = Network::new(4);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(3), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(0), NodeId(2), Amount::from_whole(10))
            .unwrap();
        g.add_channel(NodeId(2), NodeId(1), Amount::from_whole(10))
            .unwrap();
        let f = FeeSchedule::uniform(&g, Amount::ZERO, 0);
        // Force the non-free branch by adding a tiny fee everywhere.
        let mut f2 = f.clone();
        for ch in g.channels() {
            f2.set(ch.id, Amount::from_micros(1), 0);
        }
        let p = cheapest_path(&g, &f2, NodeId(0), NodeId(3), Amount::ONE).unwrap();
        assert_eq!(p.len(), 2, "{p}");
    }
}
