//! Verification checks: the benchmark's *operations*. An abandoned payment
//! is a correct simulated result (it is in `success_ratio`); a failed check
//! means the simulator's output is wrong.

use crate::workloads::{
    execute, resume_observed, setup, snapshots, Engine, Outcome, RunOpts, Workload,
    OBSERVED_CHECKPOINTS,
};
use spider::telemetry::{bintrace, Telemetry};
use std::path::Path;

/// Tally of checks attempted and failed, with a line per failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }
}

/// Checks every run of an outcome for internal consistency.
fn check_accounting(checks: &mut Checks, w: &Workload, label: &str, out: &Outcome) {
    for r in &out.reports {
        checks.check(
            r.attempted == r.completed + r.abandoned + r.pending_at_end,
            || {
                format!(
                    "{} {label} {}: attempted {} != completed {} + abandoned {} + pending {}",
                    w.name, r.scheme, r.attempted, r.completed, r.abandoned, r.pending_at_end
                )
            },
        );
        checks.check(r.audit_violations.is_empty(), || {
            format!(
                "{} {label} {}: {} ledger audit violations",
                w.name,
                r.scheme,
                r.audit_violations.len()
            )
        });
    }
}

/// The untimed verification pass of one workload, given the outcome the
/// measured repeats agreed on.
pub fn verify(checks: &mut Checks, w: &Workload, seed: u64, reference: &Outcome, ckpt_dir: &Path) {
    check_accounting(checks, w, "measured", reference);
    let reference_json = reference.reports_json();

    // Audited pass: same inputs with the ledger auditor on, which checks
    // per-channel non-negativity and exact conservation of funds after
    // every balance-mutating event (the queued engine has no auditor
    // switch; its report still carries any refused over-release).
    // Auditing must not change the outcome.
    let opts = RunOpts {
        audit: true,
        ..RunOpts::with(&w.recording())
    };
    let mut inputs = setup(w, seed, w.shards());
    let audited = execute(w, &mut inputs, &opts);
    check_accounting(checks, w, "audited", &audited);
    if !matches!(w.engine, Engine::Queued) {
        checks.check(audited.reports.iter().all(|r| r.audit_checks > 0), || {
            format!("{}: audited pass performed no ledger checks", w.name)
        });
    }
    for (a, m) in audited.reports.iter().zip(&reference.reports) {
        checks.check(
            (a.attempted, a.completed, a.abandoned, a.units_sent)
                == (m.attempted, m.completed, m.abandoned, m.units_sent),
            || format!("{} {}: auditing changed the outcome", w.name, a.scheme),
        );
    }

    match w.engine {
        Engine::Run(list) if list.len() > 1 => {
            let first = &reference.reports[0];
            checks.check(
                reference.reports.iter().all(|r| {
                    r.attempted == first.attempted && r.attempted_volume == first.attempted_volume
                }),
                || format!("{}: schemes did not attempt the same payments", w.name),
            );
        }
        Engine::Sharded { .. } => {
            // The report must not depend on the shard count.
            let other = if w.shards() == 1 { 2 } else { 1 };
            let mut inputs = setup(w, seed, other);
            let out = execute(w, &mut inputs, &RunOpts::plain());
            checks.check(out.reports_json() == reference_json, || {
                format!(
                    "{}: report differs between {} and {other} shard(s)",
                    w.name,
                    w.shards()
                )
            });
        }
        Engine::Observed => verify_observed(checks, w, seed, reference, ckpt_dir),
        _ => {}
    }
}

/// `isp-observed`: the checkpointed, recorded run equals an uninterrupted
/// one, a resume from the second snapshot reproduces report and trace
/// byte for byte, and the SPBT codec round-trips the event log.
fn verify_observed(
    checks: &mut Checks,
    w: &Workload,
    seed: u64,
    reference: &Outcome,
    ckpt_dir: &Path,
) {
    let reference_json = reference.reports_json();
    let reference_spbt = reference.spbt.as_deref().unwrap_or_default();

    // Uninterrupted run with recording on.
    let telemetry = Telemetry::enabled();
    let mut inputs = setup(w, seed, 1);
    let straight = execute(w, &mut inputs, &RunOpts::with(&telemetry));
    checks.check(straight.reports_json() == reference_json, || {
        format!("{}: checkpointing changed the report", w.name)
    });
    checks.check(
        straight.spbt.as_deref().unwrap_or_default() == reference_spbt,
        || format!("{}: checkpointing changed the SPBT trace", w.name),
    );
    let events = telemetry.events();
    checks.check(
        bintrace::decode(reference_spbt).is_ok_and(|back| back == events),
        || format!("{}: bintrace decode(encode(events)) != events", w.name),
    );

    // Resume from the second snapshot the last measured repeat wrote.
    let snaps = snapshots(ckpt_dir);
    checks.check(snaps.len() as u64 == OBSERVED_CHECKPOINTS, || {
        format!(
            "{}: {} snapshots written, expected {OBSERVED_CHECKPOINTS}",
            w.name,
            snaps.len()
        )
    });
    let Some(second) = snaps.get(1) else {
        return;
    };
    let (resumed, telemetry) = resume_observed(w, seed, second);
    match resumed {
        Ok(report) => {
            let json = serde_json::to_string(&report).expect("SimReport serializes");
            checks.check(json == reference_json, || {
                format!("{}: resumed report differs from uninterrupted", w.name)
            });
            checks.check(
                bintrace::encode(&telemetry.events()) == reference_spbt,
                || format!("{}: resumed SPBT trace differs from uninterrupted", w.name),
            );
        }
        Err(e) => checks.check(false, || format!("{}: resume failed: {e}", w.name)),
    }
}
