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
//! write machine-readable reports, `--seed N` to vary the workload.
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
//! trace as JSONL, one file per scheme (`fig6`) or per grid cell
//! (`cell-NNNN.jsonl`), and implies `--telemetry`. Trace files are named by
//! cell index, never by worker, so they too are byte-identical for any
//! `--jobs` value. `spider-experiments trace-check DIR` re-parses every
//! trace file and fails on empty, malformed, or internally inconsistent
//! traces (the CI smoke check).
//!
//! Flight recorder: `--trace-format bin` switches `--trace-out` to the
//! compact indexed binary format (`.bin`, ~5-10x smaller than JSONL,
//! byte-identical across runs / `--jobs` / `--shards`).
//! `spider-experiments inspect FILE` answers channel/node/payment/kind/
//! time-window queries against a trace — using the per-block index on
//! `.bin` files so most blocks are never decoded — and prints top-K hot
//! channels and nodes; on a `--json` report it prints the embedded
//! per-phase profile breakdowns instead.
//! `spider-experiments trace-convert IN OUT` converts losslessly between
//! the two formats (direction from the output extension).
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
    ablation_scheduler, extension_schemes, fig4_fig5, fig6, fig6_traced, fig7, jobs_from_env,
    rebalancing_curve, resume_scheme, run_grid, run_grid_traced, run_scheme,
    run_scheme_checkpointed, run_scheme_traced, run_sharded_scheme, scheme_choice_by_name,
    Ablation, ExperimentConfig, GridConfig, SchemeChoice, ShardFeatures,
};
use spider_sim::{latest_snapshot, CheckpointSpec, FaultConfig, ShardScheme, SimReport};
use spider_telemetry::{bintrace, Telemetry, TraceEvent, TraceQuery};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let command = args[0].as_str();
    let full = has_flag(&args, "--full");
    let seed = match flag_value(&args, "--seed") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--seed expects an integer, got `{v}`");
            usage_and_exit();
        }),
        None => 1,
    };
    let json_path = flag_value(&args, "--json");
    let trace_out = flag_value(&args, "--trace-out");
    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("cannot create {dir}: {e}")));
    }
    let telemetry = has_flag(&args, "--telemetry") || trace_out.is_some();
    let format = match flag_value(&args, "--trace-format").as_deref() {
        None | Some("jsonl") => TraceFormat::Jsonl,
        Some("bin") => TraceFormat::Bin,
        Some(other) => {
            eprintln!("--trace-format expects jsonl or bin, got `{other}`");
            usage_and_exit();
        }
    };
    let checkpoint = checkpoint_spec(&args);
    let mut out = JsonSink::new(json_path);

    match command {
        "fig4" | "fig5" => run_fig4(&mut out),
        "fig6" => {
            let topology = flag_value(&args, "--topology").unwrap_or_else(|| "isp".into());
            let scheme = flag_value(&args, "--scheme").map(|s| parse_scheme(&s));
            if checkpoint.is_some() && scheme.is_none() {
                eprintln!(
                    "--checkpoint-dir on fig6 requires --scheme (one snapshot stream per run)"
                );
                usage_and_exit();
            }
            run_fig6(
                &topology,
                full,
                seed,
                telemetry,
                trace_out.as_deref(),
                format,
                scheme,
                checkpoint.as_ref(),
                &mut out,
            );
        }
        "resume" => {
            run_resume(
                &args,
                full,
                seed,
                telemetry,
                trace_out.as_deref(),
                format,
                checkpoint.as_ref(),
                &mut out,
            );
        }
        "fig7" => run_fig7(full, seed, &mut out),
        "rebalancing" => run_rebalancing(&mut out),
        "ablations" => run_ablations(seed, &mut out),
        "grid" => run_grid_command(
            &args,
            full,
            seed,
            telemetry,
            trace_out.as_deref(),
            format,
            &mut out,
        ),
        "sharded" => run_sharded_command(
            &args,
            full,
            seed,
            telemetry,
            trace_out.as_deref(),
            format,
            &mut out,
        ),
        "trace-check" => {
            let dir = args.get(1).cloned().unwrap_or_else(|| {
                eprintln!("trace-check expects a directory of .jsonl/.bin trace files");
                usage_and_exit();
            });
            run_trace_check(&dir);
        }
        "inspect" => {
            let file = args.get(1).cloned().unwrap_or_else(|| {
                eprintln!("inspect expects a trace file (.bin or .jsonl) or a --json report");
                usage_and_exit();
            });
            run_inspect(&file, &args);
        }
        "trace-convert" => {
            let (input, output) = match (args.get(1), args.get(2)) {
                (Some(i), Some(o)) => (i.clone(), o.clone()),
                _ => {
                    eprintln!("trace-convert expects an input and an output path");
                    usage_and_exit();
                }
            };
            run_trace_convert(&input, &output);
        }
        "all" => {
            run_fig4(&mut out);
            run_fig6(
                "isp",
                full,
                seed,
                telemetry,
                trace_out.as_deref(),
                format,
                None,
                None,
                &mut out,
            );
            run_fig6(
                "ripple", full, seed, telemetry, None, format, None, None, &mut out,
            );
            run_fig7(full, seed, &mut out);
            run_rebalancing(&mut out);
            run_ablations(seed, &mut out);
            run_grid_command(&args, full, seed, telemetry, None, format, &mut out);
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage_and_exit();
        }
    }
    out.finish();
}

/// On-disk trace encoding selected by `--trace-format`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    /// One JSON object per line — human-greppable, the default.
    Jsonl,
    /// Compact indexed binary (`spider_telemetry::bintrace`).
    Bin,
}

impl TraceFormat {
    fn ext(self) -> &'static str {
        match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Bin => "bin",
        }
    }
}

/// Writes one trace file under `dir` as `<stem>.<ext>` in the selected
/// format and returns the path.
fn write_trace(dir: &str, stem: &str, format: TraceFormat, events: &[TraceEvent]) -> String {
    let path = format!("{dir}/{stem}.{}", format.ext());
    let bytes = match format {
        TraceFormat::Jsonl => spider_telemetry::events_to_jsonl(events).into_bytes(),
        TraceFormat::Bin => bintrace::encode(events),
    };
    write_file(&path, &bytes);
    path
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: spider-experiments <fig4|fig6|fig7|rebalancing|ablations|grid|sharded|all|\
         resume SNAPSHOT|trace-check DIR|inspect FILE|trace-convert IN OUT> \
         [--topology isp|ripple] [--full] [--seed N] [--json PATH] \
         [--telemetry] [--trace-out DIR] [--trace-format jsonl|bin] \
         [--jobs N] [--trials N] [--capacities A,B,...] [--no-audit] \
         [--faults SCENARIO|FILE.json] [--outage-rates A,B,...] [--no-retry]\n\
         checkpointing (fig6 with --scheme, resume): [--checkpoint-dir DIR] [--checkpoint-every N]\n\
         resume: SNAPSHOT is a .spsn file or a checkpoint dir (latest valid \
         snapshot); pass the same --topology/--scheme/--seed/--full as the \
         checkpointing run\n\
         sharded flags: [--shards N] [--scheme shortest|waterfilling] [--audit] \
         [--policy direct|queued] [--fees] [--congestion] [--rebalance]\n\
         inspect flags: [--channel N] [--node N] [--payment N] [--kind K] [--from T] [--to T] \
         [--limit N] [--top K]"
    );
    std::process::exit(2);
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Builds the optional [`CheckpointSpec`] from `--checkpoint-every N` and
/// `--checkpoint-dir DIR`. The directory is required; the cadence defaults
/// to every 100 scheduler ticks.
fn checkpoint_spec(args: &[String]) -> Option<CheckpointSpec> {
    let every = flag_value(args, "--checkpoint-every").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--checkpoint-every expects a positive integer, got `{v}`");
            usage_and_exit();
        })
    });
    match flag_value(args, "--checkpoint-dir") {
        Some(dir) => Some(CheckpointSpec::new(every.unwrap_or(100), dir)),
        None => {
            if every.is_some() {
                eprintln!("--checkpoint-every requires --checkpoint-dir");
                usage_and_exit();
            }
            None
        }
    }
}

/// Parses a `--scheme` value: the canonical report names
/// (`spider-waterfilling`, `shortest-path`, ...) plus short aliases.
fn parse_scheme(name: &str) -> SchemeChoice {
    scheme_choice_by_name(name)
        .or(match name {
            "shortest" => Some(SchemeChoice::ShortestPath),
            "waterfilling" => Some(SchemeChoice::SpiderWaterfilling),
            "maxflow" => Some(SchemeChoice::MaxFlow),
            "lp" => Some(SchemeChoice::SpiderLp),
            _ => None,
        })
        .unwrap_or_else(|| {
            eprintln!(
                "unknown scheme `{name}` (use silentwhispers, speedymurmurs, shortest-path, \
                 max-flow, spider-waterfilling, or spider-lp)"
            );
            usage_and_exit();
        })
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
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
    println!(
        "total demand:                       {:>6.1}  (paper: 12)",
        r.total_demand
    );
    println!(
        "shortest-path balanced throughput:  {:>6.1}  (paper Fig. 4b: 5)",
        r.shortest_path_throughput
    );
    println!(
        "optimal balanced throughput:        {:>6.1}  (paper Fig. 4c: 8)",
        r.optimal_throughput
    );
    println!(
        "max circulation ν(C*):              {:>6.1}  (paper Fig. 5b: 8)",
        r.circulation_value
    );
    println!(
        "DAG remainder:                      {:>6.1}  (paper Fig. 5c: 4)",
        r.dag_value
    );
    println!("circulation cycles:");
    for (nodes, rate) in &r.cycles {
        let pretty: Vec<String> = nodes.iter().map(|n| format!("{}", n + 1)).collect();
        println!("  {} -> (rate {rate:.1})", pretty.join(" -> "));
    }
    out.record("fig4", &r);
    println!();
}

fn config_for(topology: &str, full: bool, seed: u64) -> ExperimentConfig {
    let mut cfg = match (topology, full) {
        ("isp", false) => ExperimentConfig::isp_quick(),
        ("isp", true) => ExperimentConfig::isp_full(),
        ("ripple", false) => ExperimentConfig::ripple_quick(),
        ("ripple", true) => ExperimentConfig::ripple_full(),
        _ => {
            eprintln!("unknown topology `{topology}` (use isp or ripple)");
            usage_and_exit();
        }
    };
    cfg.seed = seed;
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

#[allow(clippy::too_many_arguments)]
fn run_fig6(
    topology: &str,
    full: bool,
    seed: u64,
    telemetry: bool,
    trace_out: Option<&str>,
    format: TraceFormat,
    scheme: Option<SchemeChoice>,
    checkpoint: Option<&CheckpointSpec>,
    out: &mut JsonSink,
) {
    let cfg = config_for(topology, full, seed);
    println!(
        "=== Fig. 6 ({topology}): {} txns over {:.0}s, capacity {:.0}/channel ===",
        cfg.num_transactions, cfg.duration, cfg.capacity
    );
    let t0 = std::time::Instant::now();
    let reports = if let Some(choice) = scheme {
        // Single-scheme run: the only mode that supports checkpointing
        // (one snapshot stream per directory). Output shape matches the
        // all-schemes run so reports and traces stay byte-comparable.
        let tel = if telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let report = match checkpoint {
            Some(ck) => run_scheme_checkpointed(&cfg, choice, &tel, ck)
                .unwrap_or_else(|e| snapshot_fail(&e)),
            None if telemetry => run_scheme_traced(&cfg, choice, &tel),
            None => run_scheme(&cfg, choice),
        };
        write_fig6_trace(topology, &report, &tel, trace_out, format);
        vec![report]
    } else if telemetry {
        let traced = fig6_traced(&cfg);
        if let Some(dir) = trace_out {
            for (report, tel) in &traced {
                let stem = format!("fig6-{topology}-{}", report.scheme);
                write_trace(dir, &stem, format, &tel.events());
            }
            println!("wrote {} trace files to {dir}", traced.len());
        }
        traced.into_iter().map(|(r, _)| r).collect()
    } else {
        fig6(&cfg)
    };
    print_fig6_table(&reports);
    if telemetry {
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

/// Reports a snapshot error on stderr and exits with status 1 — corrupt,
/// truncated, or mismatched snapshots are an error, never a panic.
fn snapshot_fail(e: &spider_sim::SnapshotError) -> ! {
    eprintln!("snapshot error: {e}");
    std::process::exit(1);
}

/// Reports a failed run or an unwritable output path on stderr and exits
/// with status 1 — an error, never a panic.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn write_file(path: &str, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
}

/// Writes the single-scheme fig6 trace file (same stem as the all-schemes
/// run, so resumed and uninterrupted outputs stay byte-comparable).
fn write_fig6_trace(
    topology: &str,
    report: &SimReport,
    tel: &Telemetry,
    trace_out: Option<&str>,
    format: TraceFormat,
) {
    if let Some(dir) = trace_out {
        let stem = format!("fig6-{topology}-{}", report.scheme);
        let path = write_trace(dir, &stem, format, &tel.events());
        println!("wrote trace to {path}");
    }
}

/// `resume SNAPSHOT`: rebuilds the fig6 single-scheme scenario (topology /
/// scheme / seed / scale must match the checkpointing run) and carries it
/// to completion from the snapshot. `SNAPSHOT` is a `.spsn` file or a
/// checkpoint directory, in which case the latest valid snapshot is used.
/// Report and trace outputs are byte-identical to an uninterrupted run.
#[allow(clippy::too_many_arguments)]
fn run_resume(
    args: &[String],
    full: bool,
    seed: u64,
    telemetry: bool,
    trace_out: Option<&str>,
    format: TraceFormat,
    checkpoint: Option<&CheckpointSpec>,
    out: &mut JsonSink,
) {
    let snapshot_arg = args.get(1).filter(|a| !a.starts_with("--")).cloned();
    let Some(snapshot_arg) = snapshot_arg else {
        eprintln!("resume expects a snapshot file or checkpoint directory");
        usage_and_exit();
    };
    let path = std::path::PathBuf::from(&snapshot_arg);
    let snapshot = if path.is_dir() {
        match latest_snapshot(&path) {
            Ok(Some(p)) => p,
            Ok(None) => {
                eprintln!("snapshot error: no valid snapshot in {snapshot_arg}");
                std::process::exit(1);
            }
            Err(e) => snapshot_fail(&e),
        }
    } else {
        path
    };
    let topology = flag_value(args, "--topology").unwrap_or_else(|| "isp".into());
    let choice = parse_scheme(&flag_value(args, "--scheme").unwrap_or_else(|| {
        eprintln!("resume requires --scheme (the scheme the snapshot was taken under)");
        usage_and_exit();
    }));
    let cfg = config_for(&topology, full, seed);
    println!("=== resume ({topology}): from {} ===", snapshot.display());
    let t0 = std::time::Instant::now();
    let tel = if telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let report = resume_scheme(&cfg, choice, &tel, &snapshot, checkpoint)
        .unwrap_or_else(|e| snapshot_fail(&e));
    write_fig6_trace(&topology, &report, &tel, trace_out, format);
    let reports = vec![report];
    print_fig6_table(&reports);
    if telemetry {
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

fn run_fig7(full: bool, seed: u64, out: &mut JsonSink) {
    let cfg = config_for("isp", full, seed);
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

fn run_ablations(seed: u64, out: &mut JsonSink) {
    // Use the contended Fig. 6 regime so the knobs actually discriminate
    // (shorter runs saturate at 100% success).
    let mut cfg = ExperimentConfig::isp_quick();
    cfg.seed = seed;
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

    let strat = ablation_path_strategy(&cfg);
    print_ablation("path-selection strategy", &strat);
    out.record("ablation_path_strategy", &strat);

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

fn run_grid_command(
    args: &[String],
    full: bool,
    seed: u64,
    telemetry: bool,
    trace_out: Option<&str>,
    format: TraceFormat,
    out: &mut JsonSink,
) {
    let topology = flag_value(args, "--topology").unwrap_or_else(|| "isp".into());
    let base = config_for(&topology, full, seed);
    let mut grid = GridConfig::new(base);
    grid.telemetry = telemetry;
    if let Some(v) = flag_value(args, "--trials") {
        grid.trials = v.parse().unwrap_or_else(|_| {
            eprintln!("--trials expects an integer, got `{v}`");
            usage_and_exit();
        });
    }
    if let Some(v) = flag_value(args, "--capacities") {
        grid.capacities = v
            .split(',')
            .map(|c| {
                c.trim().parse().unwrap_or_else(|_| {
                    eprintln!("--capacities expects comma-separated numbers, got `{c}`");
                    usage_and_exit();
                })
            })
            .collect();
    }
    if has_flag(args, "--no-audit") {
        grid.audit = false;
    }
    if let Some(v) = flag_value(args, "--faults") {
        grid.faults = Some(parse_fault_config(&v));
    }
    if let Some(v) = flag_value(args, "--outage-rates") {
        if grid.faults.is_none() {
            // An outage sweep without a template still needs a config for
            // the per-cell plans (durations, retry policy).
            grid.faults = Some(FaultConfig::default());
        }
        grid.outage_rates = v
            .split(',')
            .map(|r| {
                r.trim().parse().unwrap_or_else(|_| {
                    eprintln!("--outage-rates expects comma-separated numbers, got `{r}`");
                    usage_and_exit();
                })
            })
            .collect();
    }
    if has_flag(args, "--no-retry") {
        match &mut grid.faults {
            Some(fc) => fc.retry = None,
            None => {
                eprintln!("--no-retry only makes sense with --faults or --outage-rates");
                usage_and_exit();
            }
        }
    }
    let jobs = match flag_value(args, "--jobs") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--jobs expects an integer, got `{v}`");
            usage_and_exit();
        }),
        None => jobs_from_env(),
    };

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
    let result = if let Some(dir) = trace_out {
        let (result, traces) =
            run_grid_traced(&grid, jobs).unwrap_or_else(|e| fail(&format!("grid run failed: {e}")));
        for (i, trace) in traces.iter().enumerate() {
            let path = format!("{dir}/cell-{i:04}.{}", format.ext());
            match format {
                TraceFormat::Jsonl => write_file(&path, trace.as_bytes()),
                TraceFormat::Bin => {
                    let bytes = bintrace::jsonl_to_bintrace(trace).unwrap_or_else(|(line, e)| {
                        fail(&format!("cell {i} trace line {line}: {e}"))
                    });
                    write_file(&path, &bytes);
                }
            }
        }
        println!("wrote {} per-cell trace files to {dir}", traces.len());
        result
    } else {
        run_grid(&grid, jobs).unwrap_or_else(|e| fail(&format!("grid run failed: {e}")))
    };
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
fn run_sharded_command(
    args: &[String],
    full: bool,
    seed: u64,
    telemetry: bool,
    trace_out: Option<&str>,
    format: TraceFormat,
    out: &mut JsonSink,
) {
    let topology = flag_value(args, "--topology").unwrap_or_else(|| "isp".into());
    let cfg = config_for(&topology, full, seed);
    let shards: usize = match flag_value(args, "--shards") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--shards expects an integer, got `{v}`");
            usage_and_exit();
        }),
        None => 4,
    };
    let scheme = match flag_value(args, "--scheme").as_deref() {
        None | Some("waterfilling") => ShardScheme::Waterfilling,
        Some("shortest") => ShardScheme::ShortestPath,
        Some(other) => {
            eprintln!("--scheme expects shortest or waterfilling, got `{other}`");
            usage_and_exit();
        }
    };
    let audit = has_flag(args, "--audit");
    let features = ShardFeatures {
        queued: match flag_value(args, "--policy").as_deref() {
            None | Some("direct") => false,
            Some("queued") => true,
            Some(other) => {
                eprintln!("--policy expects direct or queued, got `{other}`");
                usage_and_exit();
            }
        },
        fees: has_flag(args, "--fees"),
        congestion: has_flag(args, "--congestion"),
        rebalance: has_flag(args, "--rebalance"),
    };
    println!(
        "=== Sharded ({topology}): {} txns over {:.0}s on {shards} shard(s), audit {}, \
         policy {}{}{}{} ===",
        cfg.num_transactions,
        cfg.duration,
        if audit { "on" } else { "off" },
        if features.queued { "queued" } else { "direct" },
        if features.fees { " +fees" } else { "" },
        if features.congestion {
            " +congestion"
        } else {
            ""
        },
        if features.rebalance {
            " +rebalance"
        } else {
            ""
        },
    );
    let tel = if telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
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
        eprintln!(
            "WARNING: the ledger auditor found {} violation(s)",
            report.audit_violations.len()
        );
        std::process::exit(1);
    }
    if let Some(obs) = &report.shards {
        if obs.num_shards >= 2 {
            println!("per-shard epoch metrics:");
            print!("{}", obs.render());
        }
    }
    if let Some(dir) = trace_out {
        let path = write_trace(dir, &format!("sharded-{topology}"), format, &tel.events());
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
    let looks_like_path = arg.contains('/') || arg.ends_with(".json");
    if !looks_like_path {
        eprintln!(
            "--faults: unknown scenario `{arg}` \
             (use outages|churn|drops|jitter|griefing|stress, or a JSON file path)"
        );
        usage_and_exit();
    }
    let text = std::fs::read_to_string(arg).unwrap_or_else(|e| {
        eprintln!("--faults: cannot read {arg}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("--faults: {arg} is not a valid fault config: {e}");
        std::process::exit(2);
    })
}

/// CI smoke check: every `.jsonl` / `.bin` file in `dir` must be
/// non-empty, parse (or decode) as trace events, and be internally
/// consistent (payments resolve at most once; units settle or refund at
/// most once each).
fn run_trace_check(dir: &str) {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("trace-check: cannot read {dir}: {e}");
            std::process::exit(1);
        })
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().is_some_and(|x| x == "jsonl" || x == "bin")).then_some(path)
        })
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("trace-check: no .jsonl or .bin files in {dir}");
        std::process::exit(1);
    }
    let mut total_events = 0u64;
    for path in &files {
        let name = path.display();
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("trace-check: cannot read {name}: {e}");
            std::process::exit(1);
        });
        let events = if bintrace::is_bintrace(&bytes) {
            match bintrace::decode(&bytes) {
                Ok(events) => events,
                Err(err) => {
                    eprintln!("trace-check: {name}: {err}");
                    std::process::exit(1);
                }
            }
        } else {
            let text = String::from_utf8(bytes).unwrap_or_else(|e| {
                eprintln!("trace-check: {name} is not UTF-8: {e}");
                std::process::exit(1);
            });
            match spider_telemetry::parse_jsonl(&text) {
                Ok(events) => events,
                Err((line, err)) => {
                    eprintln!("trace-check: {name} line {line}: {err}");
                    std::process::exit(1);
                }
            }
        };
        if events.is_empty() {
            eprintln!("trace-check: {name} contains no events");
            std::process::exit(1);
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
            eprintln!(
                "trace-check: {name}: {resolved} payments resolved but only {arrived} arrived"
            );
            std::process::exit(1);
        }
        let sent = count("unit_sent");
        let finished = count("unit_settled") + count("unit_refunded");
        if finished > sent {
            eprintln!("trace-check: {name}: {finished} units finished but only {sent} sent");
            std::process::exit(1);
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
/// [--from T] [--to T] [--limit N] [--top K]`: queries one trace file and
/// prints the matches plus a top-K hot-channels / hot-nodes report.
/// Binary traces answer through the per-block index (the block-skip stats
/// are printed); JSONL traces fall back to a full scan, so the two paths
/// are directly comparable. A `.json` report written by `--json` prints
/// its embedded per-phase profile breakdowns instead.
fn run_inspect(file: &str, args: &[String]) {
    fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
        flag_value(args, flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a number, got `{v}`");
                std::process::exit(2);
            })
        })
    }
    let bytes = std::fs::read(file).unwrap_or_else(|e| {
        eprintln!("inspect: cannot read {file}: {e}");
        std::process::exit(1);
    });
    if file.ends_with(".json") {
        inspect_report(file, &bytes);
        return;
    }
    let q = TraceQuery {
        channel: num(args, "--channel"),
        node: num(args, "--node"),
        payment: num(args, "--payment"),
        kind: flag_value(args, "--kind"),
        from: num(args, "--from"),
        to: num(args, "--to"),
    };
    let limit: usize = num(args, "--limit").unwrap_or(20);
    let top: usize = num(args, "--top").unwrap_or(5);
    let (events, scan_note) = if bintrace::is_bintrace(&bytes) {
        let (events, stats) = bintrace::query_with_stats(&bytes, &q).unwrap_or_else(|e| {
            eprintln!("inspect: {file}: {e}");
            std::process::exit(1);
        });
        let note = format!(
            "indexed query decoded {}/{} blocks ({} events decoded, {} matched)",
            stats.blocks_scanned, stats.blocks_total, stats.events_decoded, stats.events_matched
        );
        (events, note)
    } else {
        let text = String::from_utf8(bytes).unwrap_or_else(|e| {
            eprintln!("inspect: {file} is not UTF-8 (and not a binary trace): {e}");
            std::process::exit(1);
        });
        let all = match spider_telemetry::parse_jsonl(&text) {
            Ok(events) => events,
            Err((line, err)) => {
                eprintln!("inspect: {file} line {line}: {err}");
                std::process::exit(1);
            }
        };
        let total = all.len();
        let events: Vec<TraceEvent> = all.into_iter().filter(|e| q.matches(e)).collect();
        let note = format!("full scan over {} events ({} matched)", total, events.len());
        (events, note)
    };
    println!("{file}: {scan_note}");
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
fn inspect_report(file: &str, bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).unwrap_or_else(|e| {
        eprintln!("inspect: {file} is not UTF-8: {e}");
        std::process::exit(1);
    });
    let value: serde_json::Value = serde_json::from_str(text).unwrap_or_else(|e| {
        eprintln!("inspect: {file} is not valid JSON: {e:?}");
        std::process::exit(1);
    });
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

/// `trace-convert IN OUT`: lossless conversion between the JSONL and
/// binary trace formats. The input format is auto-detected from the bytes;
/// the output format follows the output path's extension (`.bin` writes
/// binary, anything else JSONL).
fn run_trace_convert(input: &str, output: &str) {
    let bytes = std::fs::read(input).unwrap_or_else(|e| {
        eprintln!("trace-convert: cannot read {input}: {e}");
        std::process::exit(1);
    });
    let events = if bintrace::is_bintrace(&bytes) {
        bintrace::decode(&bytes).unwrap_or_else(|e| {
            eprintln!("trace-convert: {input}: {e}");
            std::process::exit(1);
        })
    } else {
        let text = String::from_utf8(bytes).unwrap_or_else(|e| {
            eprintln!("trace-convert: {input} is not UTF-8 (and not a binary trace): {e}");
            std::process::exit(1);
        });
        match spider_telemetry::parse_jsonl(&text) {
            Ok(events) => events,
            Err((line, err)) => {
                eprintln!("trace-convert: {input} line {line}: {err}");
                std::process::exit(1);
            }
        }
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
