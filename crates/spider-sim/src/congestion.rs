//! End-host congestion control (§4.1 extension).
//!
//! The paper leaves congestion control to future work but sketches the
//! design space: hosts adapt their sending rate from implicit signals. This
//! module implements the classic AIMD window — each sender/receiver pair
//! may have at most `⌊window⌋` transaction units in flight; every settled
//! unit grows the window additively (`w += 1/w`, TCP-style), every failed
//! unit and every failed route attempt halves it. A pair starts at 4 units
//! and its window stays within `[1, 256]`. The engine enforces the window
//! for packet-switched schemes when [`crate::SimConfig::congestion`] is set.

use spider_core::{Enc, NodeId, PairTable};

/// Initial window (units in flight) per pair.
const INITIAL_WINDOW: f64 = 4.0;
/// Additive increase per settled unit (applied as `w += a / w`).
const ADDITIVE_INCREASE: f64 = 1.0;
/// Multiplicative decrease factor on a failed unit or route attempt.
const MULTIPLICATIVE_DECREASE: f64 = 0.5;
/// Window floor.
const MIN_WINDOW: f64 = 1.0;
/// Window ceiling.
const MAX_WINDOW: f64 = 256.0;

/// Writes the AIMD constants into a snapshot fingerprint, in the layout
/// of SPSN v8 fingerprints.
pub(crate) fn fingerprint(e: &mut Enc) {
    for v in [
        INITIAL_WINDOW,
        ADDITIVE_INCREASE,
        MULTIPLICATIVE_DECREASE,
        MIN_WINDOW,
        MAX_WINDOW,
    ] {
        e.f64(v);
    }
}

#[derive(Clone, Copy, Debug)]
struct PairState {
    window: f64,
    outstanding: u32,
}

/// Per-pair AIMD window table.
#[derive(Clone, Debug, Default)]
pub struct CongestionControl {
    pairs: PairTable<PairState>,
}

impl CongestionControl {
    fn state(&mut self, src: NodeId, dst: NodeId) -> &mut PairState {
        self.pairs.entry_or_insert_with(src, dst, || PairState {
            window: INITIAL_WINDOW,
            outstanding: 0,
        })
    }

    /// `true` if the pair may put one more unit in flight.
    pub fn may_send(&mut self, src: NodeId, dst: NodeId) -> bool {
        let s = self.state(src, dst);
        (s.outstanding as f64) < s.window.floor()
    }

    /// Records a unit entering flight.
    pub fn on_send(&mut self, src: NodeId, dst: NodeId) {
        self.state(src, dst).outstanding += 1;
    }

    /// Records a unit leaving flight: releases its window slot, and grows
    /// the window additively (capped at the ceiling) when it was
    /// `delivered` or shrinks it multiplicatively when it failed.
    pub fn on_outcome(&mut self, src: NodeId, dst: NodeId, delivered: bool) {
        let s = self.state(src, dst);
        debug_assert!(s.outstanding > 0, "outcome without outstanding unit");
        s.outstanding = s.outstanding.saturating_sub(1);
        s.window = if delivered {
            (s.window + ADDITIVE_INCREASE / s.window).min(MAX_WINDOW)
        } else {
            shrunk(s.window)
        };
    }

    /// Records a failed route attempt: shrinks the window.
    pub fn on_unavailable(&mut self, src: NodeId, dst: NodeId) {
        let s = self.state(src, dst);
        s.window = shrunk(s.window);
    }

    /// Current window for a pair (for diagnostics).
    pub fn window(&self, src: NodeId, dst: NodeId) -> f64 {
        self.pairs
            .get(src, dst)
            .map(|s| s.window)
            .unwrap_or(INITIAL_WINDOW)
    }

    /// Units currently in flight for a pair.
    pub fn outstanding(&self, src: NodeId, dst: NodeId) -> u32 {
        self.pairs.get(src, dst).map(|s| s.outstanding).unwrap_or(0)
    }

    /// Every tracked pair as `(src, dst, window, outstanding)` in
    /// `(src, dst)` order, for checkpointing.
    pub fn export_state(&self) -> Vec<(NodeId, NodeId, f64, u32)> {
        self.pairs
            .iter()
            .map(|(s, d, st)| (s, d, st.window, st.outstanding))
            .collect()
    }

    /// Replaces the pair table with entries captured by
    /// [`export_state`](Self::export_state). Untracked pairs fall back to
    /// the initial window, as they would in a fresh run. Fails, changing
    /// nothing, on a window outside `[1, 256]`: no run reaches one. The
    /// caller checks the node ids against its network and the outstanding
    /// counts against the units in flight.
    pub fn restore_state(&mut self, entries: &[(NodeId, NodeId, f64, u32)]) -> Result<(), String> {
        let range = MIN_WINDOW..=MAX_WINDOW;
        if let Some(&(s, d, window, _)) = entries.iter().find(|e| !range.contains(&e.2)) {
            return Err(format!("congestion window {window} for {s:?} → {d:?}"));
        }
        self.pairs = PairTable::new();
        for &(s, d, window, outstanding) in entries {
            *self.state(s, d) = PairState {
                window,
                outstanding,
            };
        }
        Ok(())
    }
}

/// `window` after one failed route attempt or failed unit: multiplicative
/// decrease, held at the floor.
fn shrunk(window: f64) -> f64 {
    (window * MULTIPLICATIVE_DECREASE).max(MIN_WINDOW)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (NodeId, NodeId) {
        (NodeId(0), NodeId(1))
    }

    #[test]
    fn window_gates_sending() {
        let mut cc = CongestionControl::default();
        let (s, d) = pair();
        for _ in 0..4 {
            assert!(cc.may_send(s, d));
            cc.on_send(s, d);
        }
        assert!(!cc.may_send(s, d), "window of 4 filled");
        cc.on_outcome(s, d, true);
        assert!(cc.may_send(s, d), "settle frees a slot");
    }

    #[test]
    fn additive_increase_on_settle() {
        let mut cc = CongestionControl::default();
        let (s, d) = pair();
        let w0 = cc.window(s, d);
        cc.on_send(s, d);
        cc.on_outcome(s, d, true);
        let w1 = cc.window(s, d);
        assert!(w1 > w0);
        assert!((w1 - (w0 + 1.0 / w0)).abs() < 1e-12);
    }

    #[test]
    fn multiplicative_decrease_on_failure() {
        let mut cc = CongestionControl::default();
        let (s, d) = pair();
        let w0 = cc.window(s, d);
        cc.on_unavailable(s, d);
        assert!((cc.window(s, d) - w0 * 0.5).abs() < 1e-12);
        // Repeated failures floor at the minimum window.
        for _ in 0..20 {
            cc.on_unavailable(s, d);
        }
        assert_eq!(cc.window(s, d), 1.0);
        assert!(cc.may_send(s, d), "floor still admits one unit");
    }

    /// A failed unit frees its slot too, and shrinks the window: a pair
    /// whose units fail can still send.
    #[test]
    fn failed_unit_frees_its_slot_and_shrinks() {
        let mut cc = CongestionControl::default();
        let (s, d) = pair();
        for _ in 0..4 {
            cc.on_send(s, d);
        }
        assert!(!cc.may_send(s, d));
        cc.on_outcome(s, d, false);
        assert_eq!((cc.outstanding(s, d), cc.window(s, d)), (3, 2.0));
        cc.on_outcome(s, d, false);
        cc.on_outcome(s, d, false);
        assert!(!cc.may_send(s, d), "a window of 1 with a unit out");
        cc.on_outcome(s, d, false);
        assert!(cc.may_send(s, d), "the last failure frees the window");
    }

    #[test]
    fn restore_refuses_a_window_out_of_range() {
        let mut cc = CongestionControl::default();
        let (s, d) = pair();
        for window in [0.5, 257.0, f64::NAN] {
            assert!(cc.restore_state(&[(s, d, window, 0)]).is_err());
        }
        cc.restore_state(&[(s, d, 3.0, 1)]).unwrap();
        assert_eq!((cc.window(s, d), cc.outstanding(s, d)), (3.0, 1));
    }

    #[test]
    fn window_capped_at_max() {
        let mut cc = CongestionControl::default();
        let (s, d) = pair();
        // `w²` grows by about 2 per settle: 40,000 settles pass 256.
        for _ in 0..40_000 {
            cc.on_send(s, d);
            cc.on_outcome(s, d, true);
        }
        assert_eq!(cc.window(s, d), 256.0);
    }

    #[test]
    fn pairs_are_independent() {
        let mut cc = CongestionControl::default();
        cc.on_unavailable(NodeId(0), NodeId(1));
        assert!(cc.window(NodeId(0), NodeId(1)) < cc.window(NodeId(2), NodeId(3)));
        assert_eq!(cc.outstanding(NodeId(2), NodeId(3)), 0);
    }
}
