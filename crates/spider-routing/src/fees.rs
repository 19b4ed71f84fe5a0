//! Routing fees (§2: intermediaries earn a fee for relaying; §7 discusses
//! the economics).
//!
//! A [`FeeSchedule`] assigns every channel a Lightning-style fee: a flat
//! base plus a proportional part in parts-per-million. Forwarding `m`
//! tokens over a hop requires delivering `m + fee(m)` *into* that hop, so
//! the amounts to lock grow from the receiver backwards — computed by
//! [`FeeSchedule::path_amounts`].

use spider_core::{Amount, ChannelId, Network, Path};

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

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::NodeId;

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
    fn first_hop_fee_is_never_charged() {
        // The sender spends its own channel: a fee on a path's first hop
        // costs the sender nothing.
        let g = diamond();
        let mut f = FeeSchedule::zero(&g);
        let c01 = g.channel_between(NodeId(0), NodeId(1)).unwrap().id;
        f.set(c01, Amount::from_whole(50), 0);
        let p = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(3)]).unwrap();
        assert_eq!(f.total_fee(&p, Amount::from_whole(10)), Amount::ZERO);
    }
}
