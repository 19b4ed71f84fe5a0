//! Integration tests asserting the paper's evaluation *shape* end-to-end:
//! who wins, by roughly what factor, and where the analytic numbers land.
//!
//! Absolute throughputs depend on the synthetic workload, but these
//! relationships are the claims of §6.2 and must hold.

use spider_bench::{
    fig4_fig5, fig6, fig7, rebalancing_curve, run_scheme, ExperimentConfig, RunMode, SchemeChoice,
};
use spider_core::DemandMatrix;
use spider_sim::SimReport;
use spider_telemetry::Telemetry;
use spider_workload::demand_matrix;

/// Fig. 4 / Fig. 5: the analytic example reproduces the paper's numbers
/// exactly.
#[test]
fn fig4_and_fig5_reproduce_paper_numbers() {
    let r = fig4_fig5();
    assert_eq!(r.total_demand, 12.0);
    assert!((r.shortest_path_throughput - 5.0).abs() < 1e-6);
    assert!((r.optimal_throughput - 8.0).abs() < 1e-6);
    assert!((r.circulation_value - 8.0).abs() < 1e-9);
    assert!((r.dag_value - 4.0).abs() < 1e-9);
}

/// §5.2.3: t(B) is non-decreasing and concave, anchored at ν(C*) and capped
/// at total demand.
#[test]
fn rebalancing_frontier_shape() {
    let budgets = [0.0, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0];
    let pts = rebalancing_curve(&budgets);
    assert!((pts[0].throughput - 8.0).abs() < 1e-6, "t(0) = ν(C*)");
    assert!(
        (pts.last().unwrap().throughput - 12.0).abs() < 1e-6,
        "t(∞) = total demand"
    );
    for w in pts.windows(2) {
        assert!(w[1].throughput >= w[0].throughput - 1e-9, "monotone");
    }
    let gains: Vec<f64> = (1..5)
        .map(|i| pts[i].throughput - pts[i - 1].throughput)
        .collect();
    for w in gains.windows(2) {
        assert!(w[1] <= w[0] + 1e-6, "concave: {gains:?}");
    }
}

fn small_isp() -> ExperimentConfig {
    // Imbalance (and with it the gap between schemes) accumulates over the
    // run, so the window must be long enough for the §6.2 orderings to
    // emerge; 150 s at the paper's arrival rate is plenty.
    let mut cfg = ExperimentConfig::isp_quick();
    cfg.num_transactions = 15_000;
    cfg.duration = 150.0;
    cfg
}

/// The six Fig. 6 reports, telemetry off.
fn fig6_reports(cfg: &ExperimentConfig) -> Vec<SimReport> {
    fig6(cfg, false).into_iter().map(|(r, _)| r).collect()
}

/// The Fig. 6 report of scheme `name`.
fn scheme<'a>(reports: &'a [SimReport], name: &str) -> &'a SimReport {
    reports
        .iter()
        .find(|r| r.scheme == name)
        .unwrap_or_else(|| panic!("missing scheme {name}"))
}

/// Runs Fig. 6 on `cfg` and asserts the §6.2 relationships that
/// EXPERIMENTS.md marks ✅ on both topologies; returns the six reports for
/// the topology's own claims.
fn assert_fig6_shape(cfg: &ExperimentConfig) -> Vec<SimReport> {
    let reports = fig6_reports(cfg);
    let sw = scheme(&reports, "silentwhispers");
    let sp = scheme(&reports, "shortest-path");
    let mf = scheme(&reports, "max-flow");
    let wf = scheme(&reports, "spider-waterfilling");
    let lp = scheme(&reports, "spider-lp");

    // Packet-switched shortest path beats SilentWhispers on both metrics
    // (§6.2: "+10% success ratio ... even for shortest path").
    assert!(
        sp.success_ratio() > 1.05 * sw.success_ratio(),
        "shortest-path {} vs silentwhispers {}",
        sp.success_ratio(),
        sw.success_ratio()
    );
    assert!(sp.success_volume() > sw.success_volume());

    // Waterfilling within 5% of max-flow on both metrics (§6.2) and above
    // every non-Spider scheme on success volume.
    assert!(
        wf.success_ratio() > 0.95 * mf.success_ratio(),
        "waterfilling {} vs max-flow {}",
        wf.success_ratio(),
        mf.success_ratio()
    );
    assert!(
        wf.success_volume() > 0.95 * mf.success_volume(),
        "waterfilling volume {} vs max-flow {}",
        wf.success_volume(),
        mf.success_volume()
    );
    for r in &reports {
        if r.scheme != "max-flow" && r.scheme != "spider-waterfilling" {
            assert!(
                wf.success_volume() >= r.success_volume(),
                "waterfilling should lead {}: {} vs {}",
                r.scheme,
                wf.success_volume(),
                r.success_volume()
            );
        }
    }

    // Max-flow is the gold standard on success ratio.
    for r in &reports {
        assert!(
            mf.success_ratio() >= r.success_ratio() - 0.02,
            "max-flow should lead {}",
            r.scheme
        );
    }

    // The LP routes the circulation component of the demand (§6.2: its
    // success volume "corresponds precisely to the circulation component of
    // the payment graph"). In a finite run the initial channel balances add
    // a transient cushion that funds some DAG flow, so the measured volume
    // sits at or above the circulation fraction and decays toward it as the
    // horizon grows (measured on ISP: 0.75 @150s -> 0.67 @200s -> 0.63
    // @400s against a 0.52 fraction).
    let network = cfg.network();
    let trace = cfg.trace(&network);
    let demand: DemandMatrix = demand_matrix(&trace, 0.0, cfg.duration);
    let dec = spider_opt::circulation::decompose(&demand);
    let circ_frac = dec.circulation_fraction();
    let lp_vol = lp.strict_success_volume();
    assert!(
        lp_vol >= circ_frac - 0.05,
        "LP volume {lp_vol} must cover the circulation fraction {circ_frac}"
    );
    assert!(
        lp_vol <= circ_frac + 0.30,
        "LP volume {lp_vol} should stay near the circulation fraction {circ_frac}"
    );
    reports
}

/// Fig. 6 (ISP) shape: the shared claims, plus Spider's volume lead over
/// both embedding-based schemes and its transaction lead over
/// SilentWhispers. Here our SpeedyMurmurs beats shortest path and trails
/// waterfilling by under 10 % in transactions at the quick scale (the ⚠️s
/// under Fig. 6 in EXPERIMENTS.md), so neither is asserted.
#[test]
fn fig6_isp_ordering() {
    let reports = assert_fig6_shape(&small_isp());
    let wf = scheme(&reports, "spider-waterfilling");
    for name in ["speedymurmurs", "silentwhispers"] {
        let r = scheme(&reports, name);
        // §6.2: "10-45% increase in volume" (measured +24% / +126%).
        assert!(
            wf.success_volume() >= 1.10 * r.success_volume(),
            "waterfilling volume {} vs {name} {}",
            wf.success_volume(),
            r.success_volume()
        );
    }
    // §6.2: "10-75% more transactions", against SilentWhispers (+50%).
    let sw = scheme(&reports, "silentwhispers");
    assert!(
        wf.success_ratio() >= 1.10 * sw.success_ratio(),
        "waterfilling ratio {} vs silentwhispers {}",
        wf.success_ratio(),
        sw.success_ratio()
    );
}

/// Fig. 6 (Ripple-like) shape: the shared claims, plus Spider's lead over
/// both embedding-based schemes and the direction of shortest path's.
#[test]
#[ignore = "tier-2: Fig. 6 on the 400-node Ripple graph, ~5 s in release; run with --release --ignored"]
fn fig6_ripple_ordering() {
    let reports = assert_fig6_shape(&ExperimentConfig::ripple_quick());
    let sp = scheme(&reports, "shortest-path");
    let wf = scheme(&reports, "spider-waterfilling");
    for name in ["speedymurmurs", "silentwhispers"] {
        let r = scheme(&reports, name);
        // §6.2: "10-45% increase in volume" and "10-75% more transactions".
        assert!(
            wf.success_volume() >= 1.10 * r.success_volume(),
            "waterfilling volume {} vs {name} {}",
            wf.success_volume(),
            r.success_volume()
        );
        assert!(
            wf.success_ratio() >= 1.10 * r.success_ratio(),
            "waterfilling ratio {} vs {name} {}",
            wf.success_ratio(),
            r.success_ratio()
        );
        // §6.2's "10% ... even for shortest path" is short on Ripple (+7.3%
        // over SpeedyMurmurs, a ⚠️ in EXPERIMENTS.md): only the direction.
        assert!(
            sp.success_ratio() > r.success_ratio(),
            "shortest-path {} vs {name} {}",
            sp.success_ratio(),
            r.success_ratio()
        );
    }
}

/// EXPERIMENTS.md's label for each Fig. 6 scheme, in table order.
const FIG6_ROWS: [(&str, &str); 6] = [
    ("SilentWhispers", "silentwhispers"),
    ("SpeedyMurmurs", "speedymurmurs"),
    ("shortest-path (SRPT)", "shortest-path"),
    ("max-flow", "max-flow"),
    ("Spider (waterfilling)", "spider-waterfilling"),
    ("Spider (LP)", "spider-lp"),
];

/// The cells of every row of the first table after the line of
/// EXPERIMENTS.md that starts with `heading`, bold markers stripped (lines
/// are read without their indentation, so a table in a list item counts).
fn experiments_md_rows(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let mut lines = (doc.lines().map(str::trim_start)).skip_while(|l| !l.starts_with(heading));
    assert!(lines.next().is_some(), "EXPERIMENTS.md has no {heading:?}");
    lines
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|row| {
            row.split('|')
                .map(|c| c.trim().replace("**", ""))
                .filter(|c| !c.is_empty())
                .collect()
        })
        .collect()
}

/// The `(label, success ratio, success volume)` rows of the first table
/// after the line of EXPERIMENTS.md that starts with `heading`.
fn experiments_md_table(doc: &str, heading: &str) -> Vec<(String, String, String)> {
    (experiments_md_rows(doc, heading).into_iter())
        .map(|cells| {
            assert_eq!(cells.len(), 3, "not a Fig. 6 row: {cells:?}");
            (cells[0].clone(), cells[1].clone(), cells[2].clone())
        })
        .collect()
}

/// EXPERIMENTS.md's two Fig. 6 tables print what `fig6` computes today, to
/// the three decimals they show.
#[test]
#[ignore = "tier-2: Fig. 6 on ISP and the 400-node Ripple graph, ~6 s in release; run with --release --ignored"]
fn fig6_tables_match_experiments_md() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("read EXPERIMENTS.md");
    for (heading, cfg) in [
        ("**ISP-like topology**", ExperimentConfig::isp_quick()),
        ("**Ripple-like topology**", ExperimentConfig::ripple_quick()),
    ] {
        let table = experiments_md_table(&doc, heading);
        let reports = fig6_reports(&cfg);
        assert_eq!(table.len(), FIG6_ROWS.len(), "{heading}: {table:?}");
        for ((label, ratio, volume), (want_label, name)) in table.iter().zip(FIG6_ROWS) {
            assert_eq!(label, want_label, "{heading}: row order");
            let r = scheme(&reports, name);
            let measured = (
                format!("{:.3}", r.success_ratio()),
                format!("{:.3}", r.success_volume()),
            );
            assert_eq!(
                (ratio, volume),
                (&measured.0, &measured.1),
                "{heading} {label}: EXPERIMENTS.md vs fig6"
            );
        }
    }
}

/// EXPERIMENTS.md's two Fig. 7 tables print what `fig7` computes today, to
/// the three decimals they show: the ISP sweep at the five capacities
/// `spider-experiments fig7` runs, and the Ripple one at three.
#[test]
#[ignore = "tier-2: Fig. 7 on ISP (5 capacities) and the 400-node Ripple graph (3), ~20 s in release; run with --release --ignored"]
fn fig7_tables_match_experiments_md() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("read EXPERIMENTS.md");
    for (heading, cfg, capacities) in [
        (
            "Success ratio by capacity (measured):",
            ExperimentConfig::isp_quick(),
            &[10_000.0, 17_500.0, 30_000.0, 55_000.0, 100_000.0][..],
        ),
        (
            "On the 400-node Ripple-like graph",
            ExperimentConfig::ripple_quick(),
            &[10_000.0, 30_000.0, 100_000.0][..],
        ),
    ] {
        let rows = experiments_md_rows(&doc, heading);
        let sweep = fig7(&cfg, capacities);
        assert_eq!(rows.len(), FIG6_ROWS.len(), "{heading}: {rows:?}");
        for (cells, (label, name)) in rows.iter().zip(FIG6_ROWS) {
            assert_eq!(cells.len(), 1 + capacities.len(), "{heading}: {cells:?}");
            assert!(label.starts_with(&cells[0]), "{heading}: row order");
            let measured: Vec<String> = (sweep.iter())
                .map(|(_, reports)| format!("{:.3}", scheme(reports, name).success_ratio()))
                .collect();
            assert_eq!(
                cells[1..],
                measured[..],
                "{heading} {}: EXPERIMENTS.md vs fig7",
                cells[0]
            );
        }
    }
}

/// The `(label, report, extra)` rows of one sweep of
/// `tests/fixtures/ablations_pre_pr.json`, the file CI compares byte for
/// byte with `spider-experiments ablations --json`; `extra` is what a row
/// carries after its report (the path-strategy rows' missed share).
fn ablation_rows(sweep: &str) -> Vec<(String, SimReport, Vec<f64>)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/ablations_pre_pr.json"
    );
    use serde_json::Value;
    let fixture: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("read the ablations fixture"))
            .expect("the fixture is JSON");
    let Some(Value::Array(rows)) = fixture.get_field(sweep) else {
        panic!("the fixture has no sweep {sweep:?}")
    };
    (rows.iter())
        .map(|row| {
            let Value::Array(row) = row else {
                panic!("a row that is not an array: {row:?}")
            };
            let Value::Str(label) = &row[0] else {
                panic!("a row without a label: {row:?}")
            };
            let report = serde_json::to_string(&row[1]).expect("the report re-serializes");
            let report = serde_json::from_str(&report).expect("a report");
            let extra = (row[2..].iter()).map(|v| v.as_f64().expect("a number"));
            (label.clone(), report, extra.collect())
        })
        .collect()
}

/// The text of the EXPERIMENTS.md list item that starts with `start`, its
/// lines joined by single spaces.
fn experiments_md_bullet(doc: &str, start: &str) -> String {
    let mut lines = (doc.lines().map(str::trim)).skip_while(|l| !l.starts_with(start));
    let first = lines
        .next()
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {start:?}"));
    let rest = lines.take_while(|l| !l.is_empty() && !l.starts_with("- ") && !l.starts_with('|'));
    std::iter::once(first)
        .chain(rest)
        .collect::<Vec<_>>()
        .join(" ")
}

fn ratio_volume(r: &SimReport) -> String {
    format!("{:.3} / {:.3}", r.success_ratio(), r.success_volume())
}

/// EXPERIMENTS.md's ablation lines — the MTU and K-paths bullets, the
/// path-strategy table — and its "Extensions beyond the paper" table print
/// what `ablations --json` writes, to the decimals they show. The fixture
/// stands in for the run (CI pins the two to each other), so this checks
/// the document with no simulation.
#[test]
fn ablation_tables_match_experiments_md() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("read EXPERIMENTS.md");
    let sweep = |name: &str| -> Vec<(String, SimReport)> {
        (ablation_rows(name).into_iter())
            .map(|(label, r, _)| (label, r))
            .collect()
    };
    let find = |rows: &[(String, SimReport)], label: &str| -> SimReport {
        (rows.iter().find(|(l, _)| l.starts_with(label)))
            .unwrap_or_else(|| panic!("the fixture has no {label:?} row"))
            .1
            .clone()
    };

    let mtu = sweep("ablation_mtu");
    let bullet = experiments_md_bullet(&doc, "- **MTU**");
    let (first, last) = (&mtu[0].1, &mtu[mtu.len() - 1].1);
    let expected = [
        format!(
            "({} → {} tokens)",
            &mtu[0].0[4..],
            &mtu[mtu.len() - 1].0[4..]
        ),
        format!("flat at ~{:.2}", first.success_volume()),
        format!(
            "({:.3} → {:.3})",
            first.success_ratio(),
            last.success_ratio()
        ),
        format!(
            "falls {:.0}×",
            first.units_sent as f64 / last.units_sent as f64
        ),
    ];
    for text in expected {
        assert!(
            bullet.contains(&text),
            "MTU bullet lacks {text:?}: {bullet}"
        );
    }
    let volumes: Vec<String> = (mtu.iter())
        .map(|(_, r)| format!("{:.2}", r.success_volume()))
        .collect();
    assert!(
        volumes.windows(2).all(|w| w[0] == w[1]),
        "MTU volume not flat: {volumes:?}"
    );

    let paths = sweep("ablation_num_paths");
    let bullet = experiments_md_bullet(&doc, "- **K candidate paths**");
    for (k, text) in [("k=1", "1 path = "), ("k=4", "4 paths = ")] {
        let text = format!(
            "{text}{}",
            ratio_volume(&find(&paths, k)).replace(" / ", "/")
        );
        assert!(
            bullet.contains(&text),
            "K-paths bullet lacks {text:?}: {bullet}"
        );
    }

    let table = experiments_md_rows(&doc, "- **Path-selection strategy**");
    let (isp, ripple) = (
        ablation_rows("ablation_path_strategy"),
        ablation_rows("ablation_path_strategy_ripple400"),
    );
    assert_eq!(table.len(), isp.len(), "path-strategy rows: {table:?}");
    for (cells, ((label, isp, isp_missed), (_, ripple, ripple_missed))) in
        table.iter().zip(isp.iter().zip(&ripple))
    {
        let missed = |share: &[f64], r: &SimReport| format!("{:.0}", share[0] * r.attempted as f64);
        let measured = [
            label.clone(),
            ratio_volume(isp),
            missed(isp_missed, isp),
            ratio_volume(ripple),
            missed(ripple_missed, ripple),
        ];
        // A missed cell may name its denominator ("0 of 20 000").
        let cells: Vec<String> = (cells.iter())
            .map(|c| c.split(" of ").next().unwrap_or(c).to_string())
            .collect();
        assert_eq!(cells, measured, "path-strategy table vs the fixture");
    }

    let schemes = sweep("extension_schemes");
    let extensions = sweep("ablation_extensions");
    let table = experiments_md_rows(&doc, "## Extensions beyond the paper");
    let rows = [
        ("spider-waterfilling (paper)", find(&extensions, "plain")),
        (
            "+ AIMD congestion control",
            find(&extensions, "aimd-congestion"),
        ),
        (
            "+ on-chain rebalancing",
            find(&extensions, "onchain-rebalancing"),
        ),
        ("spider-prices", find(&schemes, "spider-prices")),
        ("spider-lp-fair", find(&schemes, "spider-lp-fair")),
        ("router queues", find(&schemes, "router-queues")),
    ];
    assert_eq!(table.len(), rows.len(), "extension rows: {table:?}");
    for (cells, (label, r)) in table.iter().zip(&rows) {
        assert!(
            cells[0].starts_with(label),
            "extension row order: {cells:?}"
        );
        let measured = [
            format!("{:.3}", r.success_ratio()),
            format!("{:.3}", r.success_volume()),
        ];
        assert_eq!(
            cells[1..3],
            measured,
            "{label}: EXPERIMENTS.md vs the fixture"
        );
    }
    assert_eq!(
        find(&schemes, "spider-waterfilling").success_ratio(),
        rows[0].1.success_ratio(),
        "the two reference rows"
    );
    let rebalanced = &rows[2].1.rebalance;
    let note = format!(
        "{} on-chain txns move ~{:.0}M tokens; fees = {}",
        rebalanced.transactions,
        rebalanced.moved_volume / 1e6,
        rebalanced.fees_paid
    );
    assert!(
        table[2][3].contains(&note),
        "rebalancing note lacks {note:?}"
    );
    let queues = &schemes
        .iter()
        .find(|(l, _)| l.starts_with("router-queues"))
        .expect("queues")
        .0;
    let wait = (queues.split("wait ").nth(1))
        .and_then(|w| w.split('s').next())
        .expect("the queue wait in the label");
    let note = format!("mean queue wait {wait} s");
    assert!(
        table[5][3].contains(&note),
        "router-queue note lacks {note:?}"
    );
}

/// Fig. 7 shape at capacities 10k / 30k / 100k: success grows with
/// capacity for adaptive schemes, and the LP is comparatively insensitive
/// to capacity.
fn assert_fig7_shape(mut cfg: ExperimentConfig) {
    let mut ratios: Vec<Vec<f64>> = Vec::new();
    for capacity in [10_000.0, 30_000.0, 100_000.0] {
        cfg.capacity = capacity;
        let reports = fig6_reports(&cfg);
        ratios.push(reports.iter().map(|r| r.success_ratio()).collect());
    }
    // Every scheme improves (weakly) from 10k to 100k.
    for s in 0..SchemeChoice::ALL.len() {
        assert!(
            ratios[2][s] >= ratios[0][s] - 0.02,
            "scheme {s} did not improve with capacity: {ratios:?}"
        );
    }
    // Waterfilling gains substantially; the LP barely moves (paper: "Spider
    // (LP) is less sensitive to changes in capacity").
    let wf_gain = ratios[2][4] - ratios[0][4];
    let lp_gain = ratios[2][5] - ratios[0][5];
    assert!(wf_gain > 0.1, "waterfilling gain {wf_gain}");
    assert!(
        lp_gain < wf_gain / 2.0,
        "lp gain {lp_gain} vs wf gain {wf_gain}"
    );
}

/// Fig. 7 (ISP) shape.
#[test]
fn fig7_capacity_trends() {
    assert_fig7_shape(small_isp());
}

/// Fig. 7 (Ripple-like) shape: the same claims on the topology
/// EXPERIMENTS.md's Fig. 7 table also reports.
#[test]
#[ignore = "tier-2: Fig. 7 on the 400-node Ripple graph, ~13 s in release; run with --release --ignored"]
fn fig7_ripple_capacity_trends() {
    assert_fig7_shape(ExperimentConfig::ripple_quick());
}

/// Reports are deterministic: same config, same results.
#[test]
fn experiment_runs_are_deterministic() {
    let mut cfg = ExperimentConfig::isp_quick();
    cfg.num_transactions = 1_500;
    cfg.duration = 20.0;
    let run = || {
        let off = Telemetry::disabled();
        run_scheme(&cfg, SchemeChoice::SpiderWaterfilling, &off, RunMode::Plain).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.units_sent, b.units_sent);
    assert_eq!(a.delivered_volume, b.delivered_volume);
}
