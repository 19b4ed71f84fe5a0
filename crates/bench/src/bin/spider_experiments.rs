//! Command-line harness that regenerates every table and figure of the
//! paper.
//!
//! ```text
//! spider-experiments fig4                    # Fig. 4 + Fig. 5 (analytic example)
//! spider-experiments fig6 --topology isp     # Fig. 6 bars (ISP)
//! spider-experiments fig6 --topology ripple  # Fig. 6 bars (Ripple-like)
//! spider-experiments fig7                    # Fig. 7 capacity sweep
//! spider-experiments rebalancing             # §5.2.3 t(B) frontier
//! spider-experiments grid                    # parallel audited scheme grid
//! spider-experiments all                     # everything above
//! ```
//!
//! Add `--full` for the paper's full scale (much slower), `--json PATH` to
//! write machine-readable reports, `--seed N` to vary the workload. An
//! unknown flag, a value flag without a value, and a flag the chosen
//! command does not read are usage errors (exit 2), never silently ignored.
//!
//! `grid` fans (scheme, capacity, outage-rate, trial) cells out over worker
//! threads (count from `SPIDER_JOBS` or the machine's parallelism; override
//! with `--jobs N`) with the ledger auditor on, and accepts `--trials N`,
//! `--capacities A,B,...`, and `--no-audit`. Output is byte-identical for
//! any worker count.
//!
//! Fault injection: `--faults <scenario|file.json>` runs every grid cell
//! under a deterministic fault plan — a named scenario (`outages`, `churn`,
//! `drops`, `jitter`, `griefing`, `stress`) or a JSON `FaultConfig` file.
//! `--outage-rates A,B,...` sweeps the channel outage rate as an extra grid
//! axis (the failure-recovery degradation curve), and `--no-retry` disables
//! the sender retry policy so the recovery margin is measurable.
//!
//! Telemetry: `--telemetry` enables structured tracing for `fig6` and
//! `grid` (reports then embed event counts, delay percentiles, and the
//! channel time series); `--trace-out DIR` additionally writes the raw
//! trace, one file per scheme (`fig6`) or per grid cell (`cell-NNNN.bin`),
//! and implies `--telemetry`. Trace files are named by cell index, never by
//! worker, so they too are byte-identical for any `--jobs` value.
//!
//! Flight recorder: runs write one trace format, SPBT — the compact indexed
//! binary format (`.bin`, ~5-10x smaller than JSONL, byte-identical across
//! runs / `--jobs` / `--shards`). `spider-experiments trace-check DIR`
//! decodes every trace file and fails on empty, malformed, or internally
//! inconsistent traces (the CI smoke check).
//! `spider-experiments inspect FILE` answers channel/node/payment/kind/
//! time-window queries against a trace through the per-block index, so most
//! blocks are never decoded, and prints top-K hot channels and nodes; on a
//! `--json` report it prints the embedded per-phase profile breakdowns
//! instead. `spider-experiments trace-convert IN OUT` converts losslessly
//! between SPBT and JSONL, the interchange format (direction from the
//! output extension); it is the only command that reads or writes JSONL.
//!
//! Checkpoint & resume: `fig6 --scheme NAME --checkpoint-dir DIR
//! [--checkpoint-every N]` writes a crash-safe snapshot every N scheduler
//! ticks; `resume SNAPSHOT --scheme NAME ...` (a `.spsn` file, or the
//! checkpoint directory for the latest valid snapshot) carries the run to
//! completion with report/JSON/trace outputs byte-identical to an
//! uninterrupted run. Corrupt, truncated, or mismatched snapshots — like
//! an unwritable `--json` or `--trace-out` path — exit with status 1 and a
//! structured error on stderr.

use spider_bench::{
    ablation_extensions, ablation_mtu, ablation_num_paths, ablation_path_strategy,
    ablation_scheduler, extension_schemes, fig4_fig5, fig6, fig7, jobs_from_env, rebalancing_curve,
    run_grid, run_scheme, run_sharded_scheme, scheme_choice_by_name, telemetry_handle, Ablation,
    ExperimentConfig, GridConfig, RunMode, SchemeChoice, ShardFeatures,
};
use spider_core::Amount;
use spider_sim::{latest_snapshot, CheckpointSpec, FaultConfig, ShardScheme, SimReport};
use spider_telemetry::bintrace::{self, QueryStats};
use spider_telemetry::{TraceEvent, TraceQuery};
use std::num::{NonZeroU64, NonZeroUsize};

fn main() {
    let opts = Options::parse(std::env::args().skip(1));
    if let Some(dir) = opts.value("--trace-out") {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("cannot create {dir}: {e}")));
    }
    let mut out = JsonSink::new(opts.value("--json").map(String::from));
    match opts.command.as_str() {
        "fig4" | "fig5" => run_fig4(&mut out),
        "fig6" | "resume" => run_fig6(&opts, opts.topology(), &mut out),
        "fig7" => run_fig7(&opts, &mut out),
        "rebalancing" => run_rebalancing(&mut out),
        "ablations" => run_ablations(&opts, &mut out),
        "grid" => run_grid_command(&opts, &mut out),
        "sharded" => run_sharded_command(&opts, &mut out),
        "trace-check" => run_trace_check(&opts.operands[0]),
        "inspect" => run_inspect(&opts),
        "trace-convert" => run_trace_convert(&opts.operands[0], &opts.operands[1]),
        // `all`: the parser accepts no other command.
        _ => {
            run_fig4(&mut out);
            run_fig6(&opts, "isp", &mut out);
            run_fig6(&opts, "ripple", &mut out);
            run_fig7(&opts, &mut out);
            run_rebalancing(&mut out);
            run_ablations(&opts, &mut out);
            run_grid_command(&opts, &mut out);
        }
    }
    out.finish();
}

/// Every command with the operands it takes.
const COMMANDS: &[(&str, &str)] = &[
    ("fig4", ""),
    ("fig5", ""),
    ("fig6", ""),
    ("fig7", ""),
    ("rebalancing", ""),
    ("ablations", ""),
    ("grid", ""),
    ("sharded", ""),
    ("all", ""),
    ("resume", "SNAPSHOT"),
    ("trace-check", "DIR"),
    ("inspect", "FILE"),
    ("trace-convert", "IN OUT"),
];

const REPORTING: &str = "fig4 fig5 fig6 resume fig7 rebalancing ablations grid sharded all";
const TRACED: &str = "fig6 resume grid sharded all";
const GRID: &str = "grid all";

/// Every flag: its name, the placeholder of the value that follows it
/// (empty for a switch), and the commands that read it. Anything else on
/// the command line is a usage error.
const FLAGS: &[(&str, &str, &str)] = &[
    ("--json", "PATH", REPORTING),
    ("--seed", "N", "fig6 resume fig7 ablations grid sharded all"),
    ("--full", "", "fig6 resume fig7 grid sharded all"),
    ("--topology", "isp|ripple", TRACED),
    ("--telemetry", "", TRACED),
    ("--trace-out", "DIR", TRACED),
    ("--scheme", "NAME", "fig6 resume sharded"),
    ("--checkpoint-dir", "DIR", "fig6 resume"),
    ("--checkpoint-every", "N", "fig6 resume"),
    ("--jobs", "N", GRID),
    ("--trials", "N", GRID),
    ("--capacities", "A,B,...", GRID),
    ("--no-audit", "", GRID),
    ("--faults", "SCENARIO|FILE.json", GRID),
    ("--outage-rates", "A,B,...", GRID),
    ("--no-retry", "", GRID),
    ("--shards", "N", "sharded"),
    ("--audit", "", "sharded"),
    ("--policy", "direct|queued", "sharded"),
    ("--fees", "", "sharded"),
    ("--congestion", "", "sharded"),
    ("--rebalance", "", "sharded"),
    ("--channel", "N", "inspect"),
    ("--node", "N", "inspect"),
    ("--payment", "N", "inspect"),
    ("--kind", "K", "inspect"),
    ("--from", "T", "inspect"),
    ("--to", "T", "inspect"),
    ("--limit", "N", "inspect"),
    ("--top", "K", "inspect"),
];

/// `true` when `command` reads the flag `entry` of [`FLAGS`].
fn reads(command: &str, entry: &(&str, &str, &str)) -> bool {
    entry.2.split(' ').any(|c| c == command)
}

/// The command line, parsed once and checked against [`COMMANDS`] and
/// [`FLAGS`]; every command reads its settings from here.
#[derive(Default)]
struct Options {
    command: String,
    operands: Vec<String>,
    /// The flags given, in order, with their values (empty for switches).
    flags: Vec<(&'static str, String)>,
    seed: u64,
    /// `--telemetry`, or implied by `--trace-out`.
    telemetry: bool,
    /// `--checkpoint-dir DIR [--checkpoint-every N]` (default: every 100
    /// scheduler ticks).
    checkpoint: Option<CheckpointSpec>,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Options {
        let Some(command) = args.next() else {
            usage_and_exit("no command given");
        };
        let Some(&(_, operands)) = COMMANDS.iter().find(|c| c.0 == command) else {
            usage_and_exit(&format!("unknown command `{command}`"));
        };
        let mut opts = Options {
            command,
            ..Options::default()
        };
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                opts.operands.push(arg);
                continue;
            }
            let Some(entry) = FLAGS.iter().find(|f| f.0 == arg) else {
                usage_and_exit(&format!("unknown flag `{arg}`"));
            };
            let flag = entry.0;
            if !reads(&opts.command, entry) {
                usage_and_exit(&format!("`{}` does not read `{flag}`", opts.command));
            }
            let value = match (!entry.1.is_empty()).then(|| args.next()) {
                None => String::new(),
                Some(Some(v)) if !v.starts_with("--") => v,
                Some(_) => usage_and_exit(&format!("`{flag}` expects a value")),
            };
            opts.flags.push((flag, value));
        }
        if opts.operands.len() != operands.split_whitespace().count() {
            usage_and_exit(&format!(
                "`{}` expects {}",
                opts.command,
                if operands.is_empty() {
                    "no operand"
                } else {
                    operands
                }
            ));
        }
        opts.seed = opts.parsed("--seed", "an integer").unwrap_or(1);
        opts.telemetry = opts.has("--telemetry") || opts.has("--trace-out");
        let every = opts.parsed("--checkpoint-every", "a positive integer");
        opts.checkpoint = match opts.value("--checkpoint-dir") {
            Some(dir) => Some(CheckpointSpec::new(every.map_or(100, NonZeroU64::get), dir)),
            None if every.is_some() => {
                usage_and_exit("`--checkpoint-every` requires `--checkpoint-dir`")
            }
            None => None,
        };
        opts
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// `--topology`, ISP when not given.
    fn topology(&self) -> &str {
        self.value("--topology").unwrap_or("isp")
    }

    /// The value of `flag` parsed as `T`; `what` completes "expects ...".
    fn parsed<T: std::str::FromStr>(&self, flag: &str, what: &str) -> Option<T> {
        self.value(flag).map(|v| parse_as(flag, what, v))
    }

    /// The value of a count flag (`--shards`, `--trials`, `--jobs`), a
    /// positive integer: zero shards or workers would quietly run on one,
    /// and zero trials would run nothing.
    fn count(&self, flag: &str) -> Option<usize> {
        self.parsed(flag, "a positive integer")
            .map(NonZeroUsize::get)
    }

    /// The comma-separated value of `flag`, every item parsed as `T`.
    fn list<T: std::str::FromStr>(&self, flag: &str, what: &str) -> Option<Vec<T>> {
        self.value(flag).map(|v| {
            v.split(',')
                .map(|c| parse_as(flag, what, c.trim()))
                .collect()
        })
    }
}

fn parse_as<T: std::str::FromStr>(flag: &str, what: &str, text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| usage_and_exit(&format!("`{flag}` expects {what}, got `{text}`")))
}

/// Writes one SPBT trace file under `dir` as `<stem>.bin` and returns the
/// path.
fn write_trace(dir: &str, stem: &str, spbt: &[u8]) -> String {
    let path = format!("{dir}/{stem}.bin");
    write_file(&path, spbt);
    path
}

/// Prints `problem` and, from [`COMMANDS`] and [`FLAGS`], what every
/// command accepts; exits with status 2.
fn usage_and_exit(problem: &str) -> ! {
    eprintln!("{problem}\nusage: spider-experiments COMMAND [OPERAND...] [FLAG...]");
    for (command, operands) in COMMANDS {
        let flags = FLAGS
            .iter()
            .filter(|entry| reads(command, entry))
            .map(|(flag, value, _)| format!("[{}]", [*flag, *value].join(" ").trim_end()));
        let mut parts = vec![command.to_string()];
        parts.extend((!operands.is_empty()).then(|| operands.to_string()));
        parts.extend(flags);
        eprintln!("  {}", parts.join(" "));
    }
    eprintln!(
        "resume: SNAPSHOT is a .spsn file or a checkpoint dir (latest valid snapshot); pass \
         the same --topology/--scheme/--seed/--full as the checkpointing run. Traces \
         (--trace-out) are SPBT .bin files; trace-convert IN OUT maps them to and from JSONL."
    );
    std::process::exit(2);
}

/// Parses a `--scheme` value: a canonical report name
/// (`spider-waterfilling`, `shortest-path`, ...) or its short alias.
fn parse_scheme(name: &str) -> SchemeChoice {
    scheme_choice_by_name(name).unwrap_or_else(|| {
        usage_and_exit(&format!(
            "unknown scheme `{name}` (use silentwhispers, speedymurmurs, shortest-path, \
             max-flow, spider-waterfilling, or spider-lp)"
        ))
    })
}

/// Accumulates results and optionally writes one JSON document at the end.
struct JsonSink {
    path: Option<String>,
    values: Vec<(String, serde_json::Value)>,
}

impl JsonSink {
    fn new(path: Option<String>) -> Self {
        JsonSink {
            path,
            values: Vec::new(),
        }
    }

    fn record<T: serde::Serialize>(&mut self, key: &str, value: &T) {
        if self.path.is_some() {
            self.values.push((
                key.to_string(),
                serde_json::to_value(value).expect("results serialize"),
            ));
        }
    }

    fn finish(self) {
        if let Some(path) = self.path {
            let map: serde_json::Map<String, serde_json::Value> = self.values.into_iter().collect();
            let text = serde_json::to_string_pretty(&map).expect("results serialize");
            write_file(&path, text.as_bytes());
            println!("\nwrote {path}");
        }
    }
}

fn run_fig4(out: &mut JsonSink) {
    println!("=== Fig. 4 / Fig. 5: balanced routing example & decomposition ===");
    let r = fig4_fig5();
    for (label, value, paper) in [
        ("total demand:", r.total_demand, ": 12"),
        (
            "shortest-path balanced throughput:",
            r.shortest_path_throughput,
            " Fig. 4b: 5",
        ),
        (
            "optimal balanced throughput:",
            r.optimal_throughput,
            " Fig. 4c: 8",
        ),
        ("max circulation ν(C*):", r.circulation_value, " Fig. 5b: 8"),
        ("DAG remainder:", r.dag_value, " Fig. 5c: 4"),
    ] {
        println!("{label:<35} {value:>6.1}  (paper{paper})");
    }
    println!("circulation cycles:");
    for (nodes, rate) in &r.cycles {
        let pretty: Vec<String> = nodes.iter().map(|n| format!("{}", n + 1)).collect();
        println!("  {} -> (rate {rate:.1})", pretty.join(" -> "));
    }
    out.record("fig4", &r);
    println!();
}

fn config_for(opts: &Options, topology: &str) -> ExperimentConfig {
    let mut cfg = match (topology, opts.has("--full")) {
        ("isp", false) => ExperimentConfig::isp_quick(),
        ("isp", true) => ExperimentConfig::isp_full(),
        ("ripple", false) => ExperimentConfig::ripple_quick(),
        ("ripple", true) => ExperimentConfig::ripple_full(),
        _ => usage_and_exit(&format!(
            "unknown topology `{topology}` (use isp or ripple)"
        )),
    };
    cfg.seed = opts.seed;
    cfg
}

fn print_fig6_table(reports: &[SimReport]) {
    println!(
        "{:<22} {:>13} {:>14} {:>14} {:>11} {:>9}",
        "scheme", "success_ratio", "success_volume", "strict_volume", "completed", "units"
    );
    for r in reports {
        println!(
            "{:<22} {:>13.3} {:>14.3} {:>14.3} {:>5}/{:<5} {:>9}",
            r.scheme,
            r.success_ratio(),
            r.success_volume(),
            r.strict_success_volume(),
            r.completed,
            r.attempted,
            r.units_sent
        );
    }
}

/// `fig6` and `resume SNAPSHOT`, and the two Fig. 6 passes of `all`.
///
/// With `--scheme` one scheme runs alone — the only mode that supports
/// checkpointing (one snapshot stream per directory) and the one `resume`
/// continues: it rebuilds the same scenario (topology / scheme / seed /
/// scale must match the checkpointing run) and carries it to completion from
/// `SNAPSHOT`, a `.spsn` file or a checkpoint directory (latest valid
/// snapshot). Output shape and trace-file stems match the all-schemes run,
/// so resumed, checkpointed and uninterrupted outputs are byte-comparable.
fn run_fig6(opts: &Options, topology: &str, out: &mut JsonSink) {
    let cfg = config_for(opts, topology);
    let scheme = opts.value("--scheme").map(parse_scheme);
    let snapshot = opts.operands.first().map(|arg| latest_in(arg));
    match &snapshot {
        Some(path) => println!("=== resume ({topology}): from {} ===", path.display()),
        None => println!(
            "=== Fig. 6 ({topology}): {} txns over {:.0}s, capacity {:.0}/channel ===",
            cfg.num_transactions, cfg.duration, cfg.capacity
        ),
    }
    let mode = match (&snapshot, &opts.checkpoint) {
        (Some(snapshot), checkpoint) => RunMode::Resume(snapshot, checkpoint.as_ref()),
        (None, Some(checkpoint)) => RunMode::Checkpoint(checkpoint),
        (None, None) => RunMode::Plain,
    };
    let t0 = std::time::Instant::now();
    let runs = match scheme {
        Some(choice) => {
            let tel = telemetry_handle(opts.telemetry);
            let report = run_scheme(&cfg, choice, &tel, mode).unwrap_or_else(|e| snapshot_fail(e));
            vec![(report, tel)]
        }
        None if matches!(mode, RunMode::Plain) => fig6(&cfg, opts.telemetry),
        None => usage_and_exit(
            "`resume` and `--checkpoint-dir` require `--scheme` (one snapshot stream per run)",
        ),
    };
    if let Some(dir) = opts.value("--trace-out") {
        for (report, tel) in &runs {
            let stem = format!("fig6-{topology}-{}", report.scheme);
            tel.with_spbt(|_, spbt| write_trace(dir, &stem, spbt));
        }
        println!("wrote {} trace file(s) to {dir}", runs.len());
    }
    let reports: Vec<SimReport> = runs.into_iter().map(|(report, _)| report).collect();
    print_fig6_table(&reports);
    if opts.telemetry {
        println!("completion-delay percentiles (s):");
        for r in &reports {
            if let Some(p) = &r.completion_delay_percentiles {
                println!(
                    "  {:<22} p50={:.3} p95={:.3} p99={:.3}",
                    r.scheme, p.p50, p.p95, p.p99
                );
            }
        }
    }
    println!("({:.1}s)", t0.elapsed().as_secs_f64());
    out.record(&format!("fig6_{topology}"), &reports);
    println!();
}

/// `arg` itself if it names a snapshot file; the latest valid snapshot in
/// it if it names a checkpoint directory.
fn latest_in(arg: &str) -> std::path::PathBuf {
    let path = std::path::PathBuf::from(arg);
    if !path.is_dir() {
        return path;
    }
    match latest_snapshot(&path) {
        Ok(Some(p)) => p,
        Ok(None) => snapshot_fail(format!("no valid snapshot in {arg}")),
        Err(e) => snapshot_fail(e),
    }
}

/// Reports a snapshot error on stderr and exits with status 1 — corrupt,
/// truncated, or mismatched snapshots are an error, never a panic.
fn snapshot_fail(e: impl std::fmt::Display) -> ! {
    eprintln!("snapshot error: {e}");
    std::process::exit(1);
}

/// Reports a failed run, an unreadable input or an unwritable output path
/// on stderr and exits with status 1 — an error, never a panic.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn read_file(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn write_file(path: &str, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
}

fn run_fig7(opts: &Options, out: &mut JsonSink) {
    let cfg = config_for(opts, "isp");
    let capacities = [10_000.0, 17_500.0, 30_000.0, 55_000.0, 100_000.0];
    println!(
        "=== Fig. 7: capacity sweep on ISP ({} txns / {:.0}s per point) ===",
        cfg.num_transactions, cfg.duration
    );
    let t0 = std::time::Instant::now();
    let sweep = fig7(&cfg, &capacities);
    for (cap, reports) in &sweep {
        println!("--- capacity {cap:.0} ---");
        print_fig6_table(reports);
    }
    // Summary series per scheme for plotting.
    println!("\nsuccess_ratio by capacity:");
    for (i, &choice) in SchemeChoice::ALL.iter().enumerate() {
        let series: Vec<String> = sweep
            .iter()
            .map(|(cap, reports)| format!("{:.0}:{:.3}", cap, reports[i].success_ratio()))
            .collect();
        println!("  {:<20} {}", format!("{choice:?}"), series.join("  "));
    }
    println!("({:.1}s)", t0.elapsed().as_secs_f64());
    let json: Vec<(f64, &Vec<SimReport>)> = sweep.iter().map(|(c, r)| (*c, r)).collect();
    out.record("fig7", &json);
    println!();
}

fn print_ablation(title: &str, rows: &[Ablation]) {
    println!("--- {title} ---");
    println!(
        "{:<22} {:>13} {:>14} {:>9}",
        "variant", "success_ratio", "success_volume", "units"
    );
    for (label, r) in rows {
        println!(
            "{:<22} {:>13.3} {:>14.3} {:>9}",
            label,
            r.success_ratio(),
            r.success_volume(),
            r.units_sent
        );
    }
}

fn run_ablations(opts: &Options, out: &mut JsonSink) {
    // Use the contended Fig. 6 regime so the knobs actually discriminate
    // (shorter runs saturate at 100% success).
    let mut cfg = ExperimentConfig::isp_quick();
    cfg.seed = opts.seed;
    println!(
        "=== Ablations (ISP, {} txns / {:.0}s, waterfilling unless noted) ===",
        cfg.num_transactions, cfg.duration
    );
    let t0 = std::time::Instant::now();

    let mtu = ablation_mtu(&cfg, &[2.0, 5.0, 10.0, 50.0, 170.0]);
    print_ablation("MTU (transaction unit size)", &mtu);
    out.record("ablation_mtu", &mtu);

    let ks = ablation_num_paths(&cfg, &[1, 2, 4, 8]);
    print_ablation("K candidate paths", &ks);
    out.record("ablation_num_paths", &ks);

    let mut ripple = ExperimentConfig::ripple_quick();
    ripple.seed = opts.seed;
    for (title, key, cfg) in [
        ("path-selection strategy", "ablation_path_strategy", &cfg),
        (
            "path-selection strategy (Ripple-400, 30000 txns / 85s)",
            "ablation_path_strategy_ripple400",
            &ripple,
        ),
    ] {
        let strat = ablation_path_strategy(cfg);
        out.record(key, &strat);
        let (rows, misses): (Vec<Ablation>, Vec<f64>) =
            strat.into_iter().map(|(l, r, m)| ((l, r), m)).unzip();
        print_ablation(title, &rows);
        println!("    share of payments max-flow routes whole on the fresh network but the K paths cannot:");
        for ((label, _), missed) in rows.iter().zip(misses) {
            println!("    {label:<20} {missed:>13.4}");
        }
    }

    let sched = ablation_scheduler(&cfg);
    print_ablation("scheduling policy", &sched);
    out.record("ablation_scheduler", &sched);

    let ext = ablation_extensions(&cfg);
    print_ablation(
        "extensions (congestion control, on-chain rebalancing)",
        &ext,
    );
    let schemes = extension_schemes(&cfg);
    print_ablation("beyond-the-paper schemes", &schemes);
    out.record("extension_schemes", &schemes);
    for (label, r) in &ext {
        if r.rebalance.transactions > 0 {
            println!(
                "    {label}: {} on-chain txns moved {:.0} tokens, fees {:.1}",
                r.rebalance.transactions, r.rebalance.moved_volume, r.rebalance.fees_paid
            );
        }
    }
    out.record("ablation_extensions", &ext);

    println!("({:.1}s)", t0.elapsed().as_secs_f64());
    println!();
}

fn run_grid_command(opts: &Options, out: &mut JsonSink) {
    let topology = opts.topology();
    let mut grid = GridConfig::new(config_for(opts, topology));
    grid.telemetry = opts.telemetry;
    if let Some(trials) = opts.count("--trials") {
        grid.trials = trials;
    }
    if let Some(capacities) = opts.list("--capacities", "comma-separated numbers") {
        // A capacity must be a positive whole number of micro-units once
        // rounded; `Amount::from_tokens` panics outside its range.
        for &c in &capacities {
            let representable = (0.0..Amount::MAX.as_tokens()).contains(&c);
            if !(representable && Amount::from_tokens(c).is_positive()) {
                usage_and_exit(&format!(
                    "`--capacities` expects positive token amounts below {:e}, got `{c:?}`",
                    Amount::MAX.as_tokens()
                ));
            }
        }
        grid.capacities = capacities;
    }
    grid.audit = !opts.has("--no-audit");
    grid.faults = opts.value("--faults").map(parse_fault_config);
    if let Some(rates) = opts.list("--outage-rates", "comma-separated numbers") {
        // An outage sweep without a template still needs a config for the
        // per-cell plans (durations, retry policy).
        let template = grid.faults.get_or_insert_with(FaultConfig::default);
        for &channel_outage_rate in &rates {
            let cell = FaultConfig {
                channel_outage_rate,
                ..template.clone()
            };
            if let Err(problem) = cell.validate() {
                usage_and_exit(&format!("`--outage-rates`: {problem}"));
            }
        }
        grid.outage_rates = rates;
    }
    if opts.has("--no-retry") {
        match &mut grid.faults {
            Some(fc) => fc.retry = None,
            None => {
                usage_and_exit("`--no-retry` only makes sense with `--faults` or `--outage-rates`")
            }
        }
    }
    let jobs = opts.count("--jobs").unwrap_or_else(jobs_from_env);

    println!(
        "=== Grid ({topology}): {} schemes x {} capacities x {} trials on {} worker(s), audit {} ===",
        grid.schemes.len(),
        grid.capacities.len().max(1),
        grid.trials,
        jobs,
        if grid.audit { "on" } else { "off" }
    );
    if let Some(fc) = &grid.faults {
        println!(
            "faults: outage_rate={} churn={} drop={} jitter={} grief={} retry={}{}",
            fc.channel_outage_rate,
            fc.node_churn_rate,
            fc.unit_drop_prob,
            fc.settle_jitter,
            fc.grief_prob,
            if fc.retry.is_some() { "on" } else { "off" },
            if grid.outage_rates.is_empty() {
                String::new()
            } else {
                format!(" sweeping outage rates {:?}", grid.outage_rates)
            }
        );
    }
    let t0 = std::time::Instant::now();
    let result = run_grid(&grid, jobs).unwrap_or_else(|e| fail(&format!("grid run failed: {e}")));
    if let Some(dir) = opts.value("--trace-out") {
        for (i, cell) in result.cells.iter().enumerate() {
            write_trace(dir, &format!("cell-{i:04}"), &cell.spbt);
        }
        println!("wrote {} per-cell trace files to {dir}", result.cells.len());
    }
    let has_rates = result.summaries.iter().any(|s| s.outage_rate.is_some());
    println!(
        "{:<22} {:>9}{} {:>24} {:>24} {:>12} {:>10}",
        "scheme",
        "capacity",
        if has_rates { "  outages" } else { "" },
        "success_ratio",
        "success_volume",
        "audit_checks",
        "violations"
    );
    for s in &result.summaries {
        let rate = match s.outage_rate {
            Some(r) if has_rates => format!(" {r:>8.2}"),
            _ if has_rates => " ".repeat(9),
            _ => String::new(),
        };
        println!(
            "{:<22} {:>9.0}{rate} {:>10.3} ±{:<5.3} [{:.3}] {:>10.3} ±{:<5.3} [{:.3}] {:>12} {:>10}",
            s.scheme_name,
            s.capacity,
            s.success_ratio.mean,
            s.success_ratio.stddev,
            s.success_ratio.max - s.success_ratio.min,
            s.success_volume.mean,
            s.success_volume.stddev,
            s.success_volume.max - s.success_volume.min,
            s.audit_checks,
            s.audit_violations
        );
    }
    let violations = result.total_audit_violations();
    println!(
        "({:.1}s, {} cells, {} total audit violations)",
        t0.elapsed().as_secs_f64(),
        result.cells.len(),
        violations
    );
    if violations > 0 {
        eprintln!("WARNING: the ledger auditor found {violations} violation(s)");
    }
    out.record("grid", &result);
    println!();
}

/// `sharded [--shards N] [--scheme shortest|waterfilling] [--audit]
/// [--policy direct|queued] [--fees] [--congestion] [--rebalance]`:
/// one run on the partition-parallel engine, optionally with the
/// feature-parity surface (router queues, fees, congestion control,
/// rebalancing) switched on. The printed report, `--json` output, and
/// `--trace-out` trace are byte-identical for any `--shards` value — CI
/// compares shard counts 1 and 4 on the smoke scenario, plain and
/// all-features.
fn run_sharded_command(opts: &Options, out: &mut JsonSink) {
    let topology = opts.topology();
    let cfg = config_for(opts, topology);
    let shards = opts.count("--shards").unwrap_or(4);
    let scheme = match opts.value("--scheme").map(parse_scheme) {
        None | Some(SchemeChoice::SpiderWaterfilling) => ShardScheme::Waterfilling,
        Some(SchemeChoice::ShortestPath) => ShardScheme::ShortestPath,
        Some(_) => usage_and_exit("`sharded --scheme` expects shortest or waterfilling"),
    };
    let audit = opts.has("--audit");
    let features = ShardFeatures {
        queued: match opts.value("--policy") {
            None | Some("direct") => false,
            Some("queued") => true,
            Some(other) => usage_and_exit(&format!(
                "`--policy` expects direct or queued, got `{other}`"
            )),
        },
        fees: opts.has("--fees"),
        congestion: opts.has("--congestion"),
        rebalance: opts.has("--rebalance"),
    };
    let extras: String = [
        (features.fees, " +fees"),
        (features.congestion, " +congestion"),
        (features.rebalance, " +rebalance"),
    ]
    .iter()
    .filter_map(|&(on, label)| on.then_some(label))
    .collect();
    println!(
        "=== Sharded ({topology}): {} txns over {:.0}s on {shards} shard(s), audit {}, \
         policy {}{extras} ===",
        cfg.num_transactions,
        cfg.duration,
        if audit { "on" } else { "off" },
        if features.queued { "queued" } else { "direct" },
    );
    let tel = telemetry_handle(opts.telemetry);
    let t0 = std::time::Instant::now();
    let report = run_sharded_scheme(&cfg, scheme, shards, &tel, audit, features);
    print_fig6_table(std::slice::from_ref(&report));
    println!(
        "audit checks {} violations {} ({:.1}s)",
        report.audit_checks,
        report.audit_violations.len(),
        t0.elapsed().as_secs_f64()
    );
    if !report.audit_violations.is_empty() {
        fail(&format!(
            "the ledger auditor found {} violation(s)",
            report.audit_violations.len()
        ));
    }
    if let Some(obs) = &report.shards {
        if obs.num_shards >= 2 {
            println!("per-shard epoch metrics:");
            print!("{}", obs.render());
        }
    }
    if let Some(dir) = opts.value("--trace-out") {
        let stem = format!("sharded-{topology}");
        let path = tel.with_spbt(|_, spbt| write_trace(dir, &stem, spbt));
        println!("wrote {path}");
    }
    out.record("sharded", &report);
    println!();
}

/// `--faults` argument: a named scenario, or a path to a JSON
/// [`FaultConfig`] file (sparse files fill unspecified fields with
/// defaults).
fn parse_fault_config(arg: &str) -> FaultConfig {
    if let Some(cfg) = FaultConfig::scenario(arg) {
        return cfg;
    }
    if !arg.contains('/') && !arg.ends_with(".json") {
        usage_and_exit(&format!(
            "`--faults`: unknown scenario `{arg}` \
             (use outages|churn|drops|jitter|griefing|stress, or a JSON file path)"
        ));
    }
    let text = String::from_utf8_lossy(&read_file(arg)).into_owned();
    let cfg: FaultConfig = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("{arg} is not a valid fault config: {e}")));
    if let Err(problem) = cfg.validate() {
        fail(&format!("{arg} is not a valid fault config: {problem}"));
    }
    cfg
}

/// The one trace reader: the events of the SPBT file `path` that match `q`,
/// answered through the per-block index, and how much of the file that
/// decoded. Runs write SPBT only, so anything else — a JSONL trace
/// included — is an error pointing at `trace-convert`.
fn load_trace(path: &str, q: &TraceQuery) -> (Vec<TraceEvent>, QueryStats) {
    let bytes = read_file(path);
    if !bintrace::is_bintrace(&bytes) {
        fail(&format!(
            "{path} is not an SPBT trace; if it is JSONL, convert it with \
             `trace-convert {path} OUT.bin`"
        ));
    }
    bintrace::query_with_stats(&bytes, q).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

/// CI smoke check: every trace file (`.bin`; a stray `.jsonl` is rejected
/// by [`load_trace`]) in `dir` must be non-empty, decode as trace events,
/// and be internally consistent (payments resolve at most once; units
/// settle or refund at most once each).
fn run_trace_check(dir: &str) {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| fail(&format!("cannot read {dir}: {e}")))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|x| x == "jsonl" || x == "bin"))
                .then(|| path.display().to_string())
        })
        .collect();
    files.sort();
    if files.is_empty() {
        fail(&format!("no trace files in {dir}"));
    }
    let mut total_events = 0u64;
    for name in &files {
        let (events, _) = load_trace(name, &TraceQuery::default());
        if events.is_empty() {
            fail(&format!("{name} contains no events"));
        }
        let counts = spider_telemetry::count_by_kind(&events);
        let count = |kind: &str| {
            counts
                .iter()
                .find(|(k, _)| k == kind)
                .map(|&(_, n)| n)
                .unwrap_or(0)
        };
        let arrived = count("payment_arrived");
        let resolved = count("payment_completed") + count("payment_abandoned");
        if resolved > arrived {
            fail(&format!(
                "{name}: {resolved} payments resolved but only {arrived} arrived"
            ));
        }
        let sent = count("unit_sent");
        let finished = count("unit_settled") + count("unit_refunded");
        if finished > sent {
            fail(&format!(
                "{name}: {finished} units finished but only {sent} sent"
            ));
        }
        total_events += events.len() as u64;
    }
    println!(
        "trace-check: OK ({} files, {} events)",
        files.len(),
        total_events
    );
}

/// `inspect FILE [--channel N] [--node N] [--payment N] [--kind K]
/// [--from T] [--to T] [--limit N] [--top K]`: queries one SPBT trace file
/// through its per-block index (the block-skip stats are printed) and
/// prints the matches plus a top-K hot-channels / hot-nodes report. A
/// `.json` report written by `--json` prints its embedded per-phase profile
/// breakdowns instead.
fn run_inspect(opts: &Options) {
    let kind = opts.value("--kind");
    if let Some(kind) = kind.filter(|k| !TraceEvent::KINDS.contains(k)) {
        let kinds = TraceEvent::KINDS.join(", ");
        usage_and_exit(&format!("`--kind` expects one of {kinds}, got `{kind}`"));
    }
    let file = opts.operands[0].as_str();
    if file.ends_with(".json") {
        return inspect_report(file);
    }
    let number = "a number";
    // NaN parses as a float but compares false with every time, so as a
    // bound it would match every event.
    let time = |flag: &str| {
        let t: Option<f64> = opts.parsed(flag, number);
        if t.is_some_and(f64::is_nan) {
            usage_and_exit(&format!("`{flag}` expects {number}, got NaN"));
        }
        t
    };
    let q = TraceQuery {
        channel: opts.parsed("--channel", number),
        node: opts.parsed("--node", number),
        payment: opts.parsed("--payment", number),
        kind: kind.map(String::from),
        from: time("--from"),
        to: time("--to"),
    };
    let limit: usize = opts.parsed("--limit", number).unwrap_or(20);
    let top: usize = opts.parsed("--top", number).unwrap_or(5);
    let (events, stats) = load_trace(file, &q);
    println!(
        "{file}: indexed query decoded {}/{} blocks ({} events decoded, {} matched)",
        stats.blocks_scanned, stats.blocks_total, stats.events_decoded, stats.events_matched
    );
    let counts = spider_telemetry::count_by_kind(&events);
    if !counts.is_empty() {
        let pretty: Vec<String> = counts
            .iter()
            .map(|(kind, n)| format!("{kind}={n}"))
            .collect();
        println!("matched by kind: {}", pretty.join(" "));
    }
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    for t in events.iter().filter_map(TraceEvent::time) {
        t_min = t_min.min(t);
        t_max = t_max.max(t);
    }
    if t_min.is_finite() {
        println!("sim-time span: [{t_min:.3}, {t_max:.3}]");
    }
    print_hot(
        "hot channels",
        top,
        events.iter().filter_map(TraceEvent::channel).map(u64::from),
    );
    print_hot(
        "hot nodes",
        top,
        events.iter().flat_map(|e| {
            let (a, b) = e.nodes();
            [a, b].into_iter().flatten().map(u64::from)
        }),
    );
    for e in events.iter().take(limit) {
        println!(
            "{}",
            serde_json::to_string(e).expect("trace events serialize")
        );
    }
    if events.len() > limit {
        println!("... {} more matched (raise --limit)", events.len() - limit);
    }
}

/// Prints the `top` most frequent ids in `ids` as `id xN` pairs, ties
/// broken by lower id for deterministic output.
fn print_hot(label: &str, top: usize, ids: impl Iterator<Item = u64>) {
    let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for id in ids {
        *counts.entry(id).or_insert(0) += 1;
    }
    if counts.is_empty() || top == 0 {
        return;
    }
    let mut ranked: Vec<(u64, u64)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top);
    let pretty: Vec<String> = ranked.iter().map(|(id, n)| format!("{id} x{n}")).collect();
    println!("{label} (top {}): {}", ranked.len(), pretty.join("  "));
}

/// Inspect mode for `.json` reports: finds every embedded `phases` array
/// (the deterministic [`PhaseProfile`]s of a `TelemetrySummary`) and
/// renders each as a breakdown table.
///
/// [`PhaseProfile`]: spider_telemetry::PhaseProfile
fn inspect_report(file: &str) {
    let text = String::from_utf8_lossy(&read_file(file)).into_owned();
    let value: serde_json::Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("{file} is not valid JSON: {e:?}")));
    let mut found = 0usize;
    walk_phases(&value, "$", &mut found);
    if found == 0 {
        println!(
            "{file}: no phase breakdowns found \
             (profiles appear in the telemetry summary of a `Telemetry::profiled()` run)"
        );
    }
}

fn walk_phases(value: &serde_json::Value, path: &str, found: &mut usize) {
    use serde_json::Value;
    match value {
        Value::Object(fields) => {
            for (key, child) in fields {
                let child_path = format!("{path}.{key}");
                if key == "phases" {
                    if let Some(rows) = phase_rows(child) {
                        *found += 1;
                        println!("{child_path}:");
                        print!("{rows}");
                        continue;
                    }
                }
                walk_phases(child, &child_path, found);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                walk_phases(child, &format!("{path}[{i}]"), found);
            }
        }
        _ => {}
    }
}

/// Renders a `phases` array if every element looks like a phase record
/// (an object with a string `phase` and numeric `calls`).
fn phase_rows(value: &serde_json::Value) -> Option<String> {
    use serde_json::Value;
    let Value::Array(items) = value else {
        return None;
    };
    if items.is_empty() {
        return None;
    }
    let mut out = String::new();
    for item in items {
        let Some(Value::Str(phase)) = item.get_field("phase") else {
            return None;
        };
        let calls = item.get_field("calls")?.as_i64()?;
        out.push_str(&format!("  {phase:<22} calls={calls:<10}"));
        if let Some(items_n) = item.get_field("items").and_then(Value::as_i64) {
            out.push_str(&format!(" items={items_n:<10}"));
        }
        if let (Some(a), Some(b)) = (
            item.get_field("sim_first").and_then(Value::as_f64),
            item.get_field("sim_last").and_then(Value::as_f64),
        ) {
            out.push_str(&format!(" sim=[{a:.3}, {b:.3}]"));
        }
        out.push('\n');
    }
    Some(out)
}

/// `trace-convert IN OUT`: lossless conversion between SPBT and JSONL, the
/// schema-evolution-friendly interchange format — the one place that reads
/// or writes JSONL. The input format is detected from the bytes; the output
/// format follows the output path's extension (`.bin` writes SPBT, anything
/// else JSONL).
fn run_trace_convert(input: &str, output: &str) {
    let bytes = read_file(input);
    let events = if bintrace::is_bintrace(&bytes) {
        bintrace::decode(&bytes).unwrap_or_else(|e| fail(&format!("{input}: {e}")))
    } else {
        let text = String::from_utf8(bytes)
            .unwrap_or_else(|e| fail(&format!("{input} is neither SPBT nor UTF-8: {e}")));
        spider_telemetry::parse_jsonl(&text)
            .unwrap_or_else(|(line, e)| fail(&format!("{input} line {line}: {e}")))
    };
    let out_bytes = if output.ends_with(".bin") {
        bintrace::encode(&events)
    } else {
        spider_telemetry::events_to_jsonl(&events).into_bytes()
    };
    write_file(output, &out_bytes);
    println!(
        "trace-convert: {input} -> {output} ({} events, {} bytes)",
        events.len(),
        out_bytes.len()
    );
}

fn run_rebalancing(out: &mut JsonSink) {
    println!("=== §5.2.3: throughput vs on-chain rebalancing budget t(B) ===");
    let budgets = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0];
    let pts = rebalancing_curve(&budgets);
    println!("{:>8} {:>12}", "B", "t(B)");
    for p in &pts {
        println!("{:>8.1} {:>12.3}", p.budget, p.throughput);
    }
    println!("(non-decreasing, concave; t(0) = ν(C*) = 8, t(∞) = total demand = 12)");
    out.record("rebalancing", &pts);
    println!();
}
