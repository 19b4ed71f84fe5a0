//! Ledger invariant auditing: an always-on-when-enabled checker that
//! verifies, after every balance-mutating event, that the ledger still
//! conserves funds **exactly** in fixed-point [`Amount`] arithmetic.
//!
//! Two layers of invariants:
//!
//! - **per channel**: both spendable sides and the in-flight pool are
//!   non-negative, and `available_a + available_b + inflight == capacity`;
//! - **global**: `Σ available + Σ inflight` equals the initial total escrow
//!   adjusted by on-chain deposits and withdrawals; rebalancing's on-chain
//!   miner fee shows up as the gap between what was withdrawn and what was
//!   re-deposited.
//!
//! Violations are recorded as structured [`AuditViolation`] values and
//! surfaced in [`SimReport`](crate::SimReport) rather than panicking, so a
//! broken invariant in a long experiment grid produces a diagnosable report
//! row instead of tearing down the whole run.

use crate::ledger::Ledger;
use serde::{Deserialize, Serialize};
use spider_core::{Amount, ChannelId, CoreError};

/// What exactly went wrong, with enough context to locate the bug.
/// All amounts are in exact fixed-point micro-tokens.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AuditViolationKind {
    /// A channel side's spendable balance went negative.
    NegativeBalance {
        /// The offending channel.
        channel: ChannelId,
        /// Which side (0 = lower-id endpoint `a`, 1 = endpoint `b`).
        side: u8,
        /// The negative balance, in micro-tokens.
        micros: i64,
    },
    /// A channel's in-flight pool went negative (double settle/refund).
    NegativeInflight {
        /// The offending channel.
        channel: ChannelId,
        /// The negative in-flight total, in micro-tokens.
        micros: i64,
    },
    /// `available_a + available_b + inflight != capacity` on one channel.
    ChannelImbalance {
        /// The offending channel.
        channel: ChannelId,
        /// `available_a + available_b + inflight`, in micro-tokens.
        actual_micros: i64,
        /// The channel's recorded capacity, in micro-tokens.
        capacity_micros: i64,
    },
    /// The network-wide sum drifted from the deposit/withdrawal-adjusted
    /// escrow total.
    GlobalImbalance {
        /// `Σ available + Σ inflight` over all channels, in micro-tokens.
        actual_micros: i64,
        /// The expected total, in micro-tokens.
        expected_micros: i64,
    },
    /// A settle/refund tried to release more than the channel's recorded
    /// in-flight funds and was refused by the ledger. Unlike the other
    /// kinds, the ledger stays uncorrupted — the violation records the
    /// caller-side double-release bug itself. Recorded even when periodic
    /// auditing is off, so release builds can't lose it.
    ExcessRelease {
        /// The channel whose in-flight pool would have gone negative.
        channel: ChannelId,
        /// Micro-tokens actually in flight at the time.
        inflight_micros: i64,
        /// Micro-tokens the caller tried to release.
        requested_micros: i64,
    },
    /// A channel's ledger slots were about to be mutated by a shard that
    /// does not own the channel — a breach of the sharded engine's
    /// ownership discipline. The mutation is refused, so the ledger stays
    /// uncorrupted; the violation records the engine bug itself. Checked in
    /// debug *and* release builds.
    ForeignSlotMutation {
        /// The channel whose slots were touched.
        channel: ChannelId,
        /// The shard that owns the channel's ledger slots.
        owner_shard: u32,
        /// The shard that attempted the mutation.
        mutating_shard: u32,
    },
}

/// One failed invariant check: when, after what, and what broke.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditViolation {
    /// Simulation time of the check.
    pub time: f64,
    /// The event that was just processed (`"settle"`, `"refund"`,
    /// `"rebalance"`, `"final"`, ...).
    pub event: String,
    /// The broken invariant.
    pub kind: AuditViolationKind,
}

impl AuditViolation {
    /// Converts a ledger release refusal
    /// ([`CoreError::ExcessRelease`]) into a structured violation, so
    /// engines can surface double-release bugs in reports even when
    /// periodic auditing is disabled. Returns `None` for other errors.
    pub fn from_release_error(time: f64, event: &str, err: &CoreError) -> Option<AuditViolation> {
        match *err {
            CoreError::ExcessRelease {
                channel,
                inflight,
                requested,
            } => Some(AuditViolation {
                time,
                event: event.to_string(),
                kind: AuditViolationKind::ExcessRelease {
                    channel,
                    inflight_micros: inflight,
                    requested_micros: requested,
                },
            }),
            _ => None,
        }
    }
}

/// Caps how many violations one run records: the first violation usually
/// cascades into one per subsequent event, and a handful is enough to
/// diagnose while keeping `SimReport` bounded.
const MAX_RECORDED_VIOLATIONS: usize = 32;

/// The auditor. Snapshot the expected total at construction, notify it of
/// every on-chain deposit/withdrawal, and [`check`](Self::check) after each
/// balance-mutating event.
#[derive(Clone, Debug)]
pub struct LedgerAudit {
    /// What `Σ available + Σ inflight` must equal right now.
    expected_total: Amount,
    /// Total invariant checks performed.
    checks: u64,
    /// Violations found, capped at [`MAX_RECORDED_VIOLATIONS`].
    violations: Vec<AuditViolation>,
    /// Violations found beyond the cap (counted, not stored).
    suppressed: u64,
}

impl LedgerAudit {
    /// Starts auditing `ledger` from its current state.
    pub fn new(ledger: &Ledger) -> Self {
        LedgerAudit {
            expected_total: ledger.total_available() + ledger.total_inflight(),
            checks: 0,
            violations: Vec::new(),
            suppressed: 0,
        }
    }

    /// Records an on-chain deposit: fresh funds entered the network.
    pub fn on_deposit(&mut self, amount: Amount) {
        self.expected_total += amount;
    }

    /// Records an on-chain withdrawal: funds left the network.
    pub fn on_withdraw(&mut self, amount: Amount) {
        self.expected_total -= amount;
    }

    /// Verifies every invariant against `ledger`, recording violations
    /// tagged with `time` and `event`.
    pub fn check(&mut self, ledger: &Ledger, time: f64, event: &str) {
        self.checks += 1;
        for i in 0..ledger.num_channels() {
            let id = ChannelId(i as u32);
            let (a, b) = ledger.balances(id);
            let inflight = ledger.inflight(id);
            if a.is_negative() {
                self.record(
                    time,
                    event,
                    AuditViolationKind::NegativeBalance {
                        channel: id,
                        side: 0,
                        micros: a.micros(),
                    },
                );
            }
            if b.is_negative() {
                self.record(
                    time,
                    event,
                    AuditViolationKind::NegativeBalance {
                        channel: id,
                        side: 1,
                        micros: b.micros(),
                    },
                );
            }
            if inflight.is_negative() {
                self.record(
                    time,
                    event,
                    AuditViolationKind::NegativeInflight {
                        channel: id,
                        micros: inflight.micros(),
                    },
                );
            }
            let sum = a + b + inflight;
            let capacity = ledger.capacity(id);
            if sum != capacity {
                self.record(
                    time,
                    event,
                    AuditViolationKind::ChannelImbalance {
                        channel: id,
                        actual_micros: sum.micros(),
                        capacity_micros: capacity.micros(),
                    },
                );
            }
        }
        let total = ledger.total_available() + ledger.total_inflight();
        if total != self.expected_total {
            self.record(
                time,
                event,
                AuditViolationKind::GlobalImbalance {
                    actual_micros: total.micros(),
                    expected_micros: self.expected_total.micros(),
                },
            );
        }
    }

    fn record(&mut self, time: f64, event: &str, kind: AuditViolationKind) {
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(AuditViolation {
                time,
                event: event.to_string(),
                kind,
            });
        } else {
            self.suppressed += 1;
        }
    }

    /// Number of invariant checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Violations found but not stored because the cap was hit.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Consumes the auditor, yielding the recorded violations.
    pub fn into_violations(self) -> Vec<AuditViolation> {
        self.violations
    }

    /// Captures the auditor's complete state for a checkpoint.
    pub fn export_state(&self) -> AuditState {
        AuditState {
            expected_total_micros: self.expected_total.micros(),
            checks: self.checks,
            violations: self.violations.clone(),
            suppressed: self.suppressed,
        }
    }

    /// Rebuilds an auditor from a captured [`AuditState`], continuing its
    /// check count and violation log exactly.
    pub fn from_state(state: AuditState) -> LedgerAudit {
        LedgerAudit {
            expected_total: Amount::from_micros(state.expected_total_micros),
            checks: state.checks,
            violations: state.violations,
            suppressed: state.suppressed,
        }
    }
}

/// Serializable capture of a [`LedgerAudit`], produced by
/// [`LedgerAudit::export_state`] and consumed by
/// [`LedgerAudit::from_state`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditState {
    /// What `Σ available + Σ inflight` must equal, in micro-tokens.
    pub expected_total_micros: i64,
    /// Invariant checks performed so far.
    pub checks: u64,
    /// Violations recorded so far.
    pub violations: Vec<AuditViolation>,
    /// Violations found beyond the recording cap.
    pub suppressed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::{Network, NodeId, Path};

    fn line3() -> Network {
        let mut g = Network::new(3);
        g.add_channel(NodeId(0), NodeId(1), Amount::from_whole(100))
            .unwrap();
        g.add_channel(NodeId(1), NodeId(2), Amount::from_whole(100))
            .unwrap();
        g
    }

    #[test]
    fn clean_ledger_passes_every_check() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let mut audit = LedgerAudit::new(&ledger);
        let path = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();

        audit.check(&ledger, 0.0, "initial");
        ledger.lock_path(&g, &path, Amount::from_whole(10)).unwrap();
        audit.check(&ledger, 0.1, "lock");
        ledger
            .settle_path(&g, &path, Amount::from_whole(10))
            .unwrap();
        audit.check(&ledger, 0.6, "settle");

        assert_eq!(audit.checks(), 3);
        assert!(audit.violations().is_empty(), "{:?}", audit.violations());
    }

    #[test]
    fn deposit_and_withdraw_shift_the_expected_total() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let mut audit = LedgerAudit::new(&ledger);
        let ch = g.channels()[0].id;

        let taken = ledger.withdraw(&g, ch, NodeId(0), Amount::from_whole(5));
        audit.on_withdraw(taken);
        ledger
            .deposit(&g, ch, NodeId(1), Amount::from_whole(4))
            .unwrap();
        audit.on_deposit(Amount::from_whole(4));
        audit.check(&ledger, 1.0, "rebalance");
        assert!(audit.violations().is_empty(), "{:?}", audit.violations());
    }

    #[test]
    fn unreported_deposit_is_a_global_violation() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let mut audit = LedgerAudit::new(&ledger);
        let ch = g.channels()[0].id;

        // Money appears without the auditor being told: global drift.
        ledger
            .deposit(&g, ch, NodeId(0), Amount::from_whole(7))
            .unwrap();
        audit.check(&ledger, 2.0, "settle");
        let v = audit.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].event, "settle");
        match v[0].kind {
            AuditViolationKind::GlobalImbalance {
                actual_micros,
                expected_micros,
            } => {
                assert_eq!(
                    actual_micros - expected_micros,
                    Amount::from_whole(7).micros()
                );
            }
            ref other => panic!("expected GlobalImbalance, got {other:?}"),
        }
    }

    #[test]
    fn violation_cap_counts_suppressed() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let mut audit = LedgerAudit::new(&ledger);
        let ch = g.channels()[0].id;
        ledger
            .deposit(&g, ch, NodeId(0), Amount::from_whole(1))
            .unwrap();
        for i in 0..(MAX_RECORDED_VIOLATIONS as u64 + 10) {
            audit.check(&ledger, i as f64, "settle");
        }
        assert_eq!(audit.violations().len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(audit.suppressed(), 10);
    }

    #[test]
    fn violations_serialize_and_round_trip() {
        let v = AuditViolation {
            time: 1.5,
            event: "settle".to_string(),
            kind: AuditViolationKind::NegativeBalance {
                channel: ChannelId(3),
                side: 1,
                micros: -250,
            },
        };
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains("\"NegativeBalance\""), "{json}");
        let back: AuditViolation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn release_refusals_become_structured_violations() {
        let g = line3();
        let mut ledger = Ledger::new(&g);
        let path = Path::new(&g, vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        ledger.lock_path(&g, &path, Amount::from_whole(2)).unwrap();
        let err = ledger
            .settle_path(&g, &path, Amount::from_whole(5))
            .unwrap_err();
        let v = AuditViolation::from_release_error(3.5, "settle", &err).unwrap();
        assert_eq!(v.time, 3.5);
        match v.kind {
            AuditViolationKind::ExcessRelease {
                inflight_micros,
                requested_micros,
                ..
            } => {
                assert_eq!(inflight_micros, Amount::from_whole(2).micros());
                assert_eq!(requested_micros, Amount::from_whole(5).micros());
            }
            ref other => panic!("expected ExcessRelease, got {other:?}"),
        }
        // Other errors are not release violations.
        assert!(AuditViolation::from_release_error(0.0, "x", &CoreError::NegativeAmount).is_none());
        // The refused settle changed nothing.
        assert!(ledger.conserves_all());
        assert_eq!(ledger.total_inflight(), Amount::from_whole(4));
    }
}
