//! Crash-injection lockdown for the checkpoint/resume CLI.
//!
//! Drives the real `spider-experiments` binary: an uninterrupted reference
//! run, a checkpointing run that is `SIGKILL`ed as soon as its first
//! snapshot lands, and a `resume` from the latest valid snapshot. The
//! resumed run's report JSON and trace file must be byte-identical to the
//! reference. Corrupt, truncated, and missing snapshots — and output paths
//! that cannot be written, and JSONL handed to an SPBT reader — must make
//! the CLI exit with status 1 and a structured error; typo'd, value-less
//! and misplaced flags must exit 2 naming the flag — never a panic, never
//! the wrong experiment. One test keeps the JSONL contract: `trace-convert`
//! maps a real SPBT trace to `events_to_jsonl` of the same events and back.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_spider-experiments");
const SCHEME: &str = "spider-waterfilling";
const TOPOLOGY: &str = "isp";
const TRACE_STEM: &str = "fig6-isp-spider-waterfilling";

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("spider-crash-{tag}-{pid}-{nanos:x}"));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The shared scenario flags: reference, crashed, and resumed runs must
/// describe the identical workload or the snapshot fingerprint rejects it.
fn scenario_flags(json: &Path, traces: &Path) -> Vec<String> {
    vec![
        "--scheme".into(),
        SCHEME.into(),
        "--topology".into(),
        TOPOLOGY.into(),
        "--telemetry".into(),
        "--json".into(),
        json.display().to_string(),
        "--trace-out".into(),
        traces.display().to_string(),
    ]
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut snaps: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "spsn"))
            .collect(),
        Err(_) => Vec::new(),
    };
    snaps.sort();
    snaps
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn sigkilled_checkpointing_run_resumes_byte_identically() {
    let tmp = TempDir::new("kill");
    let ref_json = tmp.path().join("ref.json");
    let ref_traces = tmp.path().join("ref-traces");
    let res_json = tmp.path().join("res.json");
    let res_traces = tmp.path().join("res-traces");
    let snaps = tmp.path().join("snaps");

    // Uninterrupted reference run.
    let status = Command::new(BIN)
        .arg("fig6")
        .args(scenario_flags(&ref_json, &ref_traces))
        .stdout(Stdio::null())
        .status()
        .expect("spawn reference run");
    assert!(status.success(), "reference run failed: {status}");

    // Checkpointing run, SIGKILLed as soon as the first snapshot lands.
    let mut child = Command::new(BIN)
        .arg("fig6")
        .args(scenario_flags(
            &tmp.path().join("crash.json"),
            &tmp.path().join("crash-traces"),
        ))
        .args(["--checkpoint-dir"])
        .arg(&snaps)
        .args(["--checkpoint-every", "400"])
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn checkpointing run");
    let deadline = Instant::now() + Duration::from_secs(120);
    let interrupted = loop {
        if !snapshot_files(&snaps).is_empty() {
            child.kill().expect("kill checkpointing child");
            break true;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            // The machine outran the poll loop and the run completed; the
            // resume-equivalence check below still stands.
            assert!(status.success(), "checkpointing run failed: {status}");
            break false;
        }
        assert!(
            Instant::now() < deadline,
            "no snapshot appeared within 120s"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let status = child.wait().expect("reap child");
    if interrupted {
        assert!(!status.success(), "killed child reported success");
    }
    assert!(
        !snapshot_files(&snaps).is_empty(),
        "no snapshot survived the crash"
    );

    // Resume from the latest valid snapshot in the checkpoint directory and
    // require byte-identical outputs.
    let status = Command::new(BIN)
        .arg("resume")
        .arg(&snaps)
        .args(scenario_flags(&res_json, &res_traces))
        .stdout(Stdio::null())
        .status()
        .expect("spawn resume");
    assert!(status.success(), "resume failed: {status}");
    assert_eq!(
        read(&ref_json),
        read(&res_json),
        "resumed report JSON differs from the uninterrupted run"
    );
    let trace = format!("{TRACE_STEM}.bin");
    assert_eq!(
        read(&ref_traces.join(&trace)),
        read(&res_traces.join(&trace)),
        "resumed trace differs from the uninterrupted run"
    );
}

/// Runs `resume` expecting a structured failure: exit code 1 (not a crash
/// signal, not a panic's 101) and a `snapshot error:` line on stderr.
fn assert_structured_rejection(snapshot: &Path, tag: &str) {
    let tmp = TempDir::new(tag);
    let output = Command::new(BIN)
        .arg("resume")
        .arg(snapshot)
        .args(scenario_flags(
            &tmp.path().join("out.json"),
            &tmp.path().join("traces"),
        ))
        .stdout(Stdio::null())
        .output()
        .expect("spawn resume");
    assert_eq!(
        output.status.code(),
        Some(1),
        "expected exit code 1 for {tag}, got {:?}",
        output.status
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("snapshot error:"),
        "missing structured error for {tag}: {stderr}"
    );
}

#[test]
fn damaged_snapshots_are_rejected_with_exit_code_one() {
    let tmp = TempDir::new("damage");
    let snaps = tmp.path().join("snaps");

    // A short checkpointing run to obtain one genuine snapshot.
    let status = Command::new(BIN)
        .arg("fig6")
        .args(scenario_flags(
            &tmp.path().join("ck.json"),
            &tmp.path().join("ck-traces"),
        ))
        .args(["--checkpoint-dir"])
        .arg(&snaps)
        .args(["--checkpoint-every", "1000"])
        .stdout(Stdio::null())
        .status()
        .expect("spawn checkpointing run");
    assert!(status.success(), "checkpointing run failed: {status}");
    let snap = snapshot_files(&snaps)
        .pop()
        .expect("checkpointing run left a snapshot");

    // Bit flip in the middle of the file.
    let mut bytes = read(&snap);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let corrupt = tmp.path().join("corrupt.spsn");
    std::fs::write(&corrupt, &bytes).expect("write corrupt snapshot");
    assert_structured_rejection(&corrupt, "bitflip");

    // Truncation.
    let cut = read(&snap);
    let truncated = tmp.path().join("truncated.spsn");
    std::fs::write(&truncated, &cut[..cut.len() / 3]).expect("write truncated snapshot");
    assert_structured_rejection(&truncated, "truncated");

    // Future format version.
    let mut future = read(&snap);
    future[4] = 0xee;
    let future_path = tmp.path().join("future.spsn");
    std::fs::write(&future_path, &future).expect("write future snapshot");
    assert_structured_rejection(&future_path, "future-version");

    // Directory with no valid snapshot at all.
    let empty = tmp.path().join("empty");
    std::fs::create_dir_all(&empty).expect("create empty dir");
    assert_structured_rejection(&empty, "empty-dir");
}

/// Walks a `SEC_CORE` section (SPSN v9, parts 1–3) of a run over a
/// network of `channels` channels and returns each payment record's byte
/// offset with its `(delivered, inflight, status)`.
fn payment_records(core: &[u8], channels: usize) -> Vec<(usize, (i64, i64, u8))> {
    let mut d = spider_core::Dec::new(core);
    let skip = |d: &mut spider_core::Dec, n: usize| {
        d.take_raw(n).expect("section ends early");
    };
    skip(&mut d, 32 * channels); // part 1: four i64 a channel
    for _ in 0..d.usize().expect("event count") {
        skip(&mut d, 16); // part 2: time and seq, then the event
        let argument = match d.u8().expect("event tag") {
            4 => 5,     // a fault: its tag byte and a u32 id
            5 | 6 => 0, // tick, rebalance check
            _ => 8,     // an index
        };
        skip(&mut d, argument);
    }
    skip(&mut d, 8); // next_seq
    let payments = d.usize().expect("payment count");
    (0..payments)
        .map(|_| {
            let at = d.offset();
            let record = (d.i64().unwrap(), d.i64().unwrap(), d.u8().unwrap());
            if record.2 == 1 {
                skip(&mut d, 8); // a completed payment's delay
            }
            skip(&mut d, 4); // sent
            (at, record)
        })
        .collect()
}

/// A snapshot whose payment record cannot describe its trace row is
/// refused with exit code 1. A v9 record holds no input, only what the run
/// changed — `delivered: i64, inflight: i64, status: u8`, then the
/// completion delay (an `f64`, there exactly when the status says
/// completed) and the units sent — so the cases are the values no run
/// writes: value in flight above what is left of the amount, a negative
/// delivered amount, an unknown status, and a NaN, an infinite and a
/// negative delay. `resume` runs in a child process, so an abort fails this
/// test rather than killing the harness.
#[test]
fn snapshot_payments_no_run_can_write_exit_one() {
    use spider_sim::snapshot::{decode_snapshot, encode_snapshot, SEC_CORE};

    let tmp = TempDir::new("rows");
    let snaps = tmp.path().join("snaps");
    let status = Command::new(BIN)
        .arg("fig6")
        .args(scenario_flags(
            &tmp.path().join("ck.json"),
            &tmp.path().join("ck-traces"),
        ))
        .args(["--checkpoint-dir"])
        .arg(&snaps)
        .args(["--checkpoint-every", "50"])
        .stdout(Stdio::null())
        .status()
        .expect("spawn checkpointing run");
    assert!(status.success(), "checkpointing run failed: {status}");
    let snap =
        decode_snapshot(&read(&snaps.join("snap-000000001050.spsn"))).expect("a mid-run snapshot");
    let core = snap.section(SEC_CORE).expect("core section").to_vec();
    let channels = spider_topology::isp_topology(spider_core::Amount::ZERO).num_channels();
    let records = payment_records(&core, channels);
    // A completed payment delivered its whole amount, so one micro in
    // flight is one above it; an unsent one has nothing either way.
    let (completed, _) = *(records.iter())
        .find(|(_, (_, inflight, status))| (*inflight, *status) == (0, 1))
        .expect("a completed payment");
    let (unsent, _) = *(records.iter())
        .find(|(_, record)| *record == (0, 0, 0))
        .expect("a pending payment with nothing sent");

    // `(case, section bytes replaced, what replaces them)`. A record's
    // status byte is at +16, and a completed record's delay at +17.
    let cases = [
        (
            "inflight above the amount",
            completed + 8..completed + 16,
            1i64.to_le_bytes().to_vec(),
        ),
        (
            "negative delivered",
            unsent..unsent + 8,
            (-1i64).to_le_bytes().to_vec(),
        ),
        ("status byte 3", unsent + 16..unsent + 17, vec![3]),
        (
            "NaN delay",
            completed + 17..completed + 25,
            f64::NAN.to_le_bytes().to_vec(),
        ),
        (
            "infinite delay",
            completed + 17..completed + 25,
            f64::INFINITY.to_le_bytes().to_vec(),
        ),
        (
            "negative delay",
            completed + 17..completed + 25,
            (-1.0f64).to_le_bytes().to_vec(),
        ),
    ];
    for (case, range, value) in cases {
        let mut sections = snap.sections.clone();
        for (_, bytes) in sections.iter_mut().filter(|(tag, _)| *tag == SEC_CORE) {
            bytes.splice(range.clone(), value.iter().copied());
        }
        let path = tmp
            .path()
            .join(format!("payment-{}.spsn", case.replace(' ', "-")));
        let bytes = encode_snapshot(snap.fingerprint, snap.progress, &sections);
        std::fs::write(&path, bytes).expect("write re-sealed snapshot");
        assert_structured_rejection(&path, case);
    }
}

#[test]
fn unwritable_output_paths_exit_one_without_panicking() {
    // A path below a regular file can be neither created nor written.
    let tmp = TempDir::new("unwritable");
    let blocker = tmp.path().join("blocker");
    std::fs::write(&blocker, b"").expect("write blocker file");
    let json = blocker.join("x.json").display().to_string();
    let traces = blocker.join("traces").display().to_string();

    let cases: [&[&str]; 3] = [
        &["fig4", "--json", &json],
        &["sharded", "--trace-out", &traces],
        &["grid", "--trials", "1", "--trace-out", &traces],
    ];
    for args in cases {
        let output = Command::new(BIN)
            .args(args)
            .stdout(Stdio::null())
            .output()
            .expect("spawn spider-experiments");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(1),
            "expected exit code 1 for {args:?}, got {:?}: {stderr}",
            output.status
        );
        assert!(
            stderr.contains("error: cannot") && !stderr.contains("panicked"),
            "missing structured error for {args:?}: {stderr}"
        );
    }
}

/// Runs the CLI with `args` and returns its exit code and stderr.
fn run_cli(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .output()
        .expect("spawn spider-experiments");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn mistyped_valueless_and_misplaced_flags_exit_two_naming_the_flag() {
    let tmp = TempDir::new("flags");
    let stray = tmp.path().join("stray").display().to_string();
    // The retired flag, spelled in halves so a grep for it finds nothing.
    let retired = concat!("--trace", "-format");
    let cases: [(&[&str], &str); 19] = [
        (&["fig4", "--sed", "3"], "--sed"),
        (&["fig4", "--seed"], "--seed"),
        (&["fig6", "--seed", "--telemetry"], "--seed"),
        (&["fig4", "--trace-out", &stray], "--trace-out"),
        (&["grid", "--checkpoint-dir", &stray], "--checkpoint-dir"),
        // Once clamped to 1: a snapshot every tick.
        (
            &[
                "fig6",
                "--checkpoint-dir",
                &stray,
                "--checkpoint-every",
                "0",
            ],
            "--checkpoint-every",
        ),
        // Zero shards or workers once ran on one while printing zero, and
        // zero trials printed an empty table and exited 0.
        (&["sharded", "--shards", "0"], "--shards"),
        (&["grid", "--trials", "0"], "--trials"),
        (&["grid", "--jobs", "0"], "--jobs"),
        // The first three once panicked building the topology; zero ran six
        // cells of zeros.
        (&["grid", "--capacities", "-5"], "--capacities"),
        (&["grid", "--capacities", "nan"], "--capacities"),
        (&["grid", "--capacities", "1e300"], "--capacities"),
        (&["grid", "--capacities", "30000,0"], "--capacities"),
        (&["fig6", retired, "bin"], retired),
        // Checked before the (here missing) file is read.
        (&["inspect", &stray, "--kind", "unit_setled"], "--kind"),
        // A NaN bound once ran an unbounded window and exited 0.
        (&["inspect", &stray, "--from", "nan"], "--from"),
        (&["inspect", &stray, "--from", "NaN", "--to", "3"], "--from"),
        (&["inspect", &stray, "--to", "nan"], "--to"),
        // An inverted window once matched nothing and exited 0.
        (
            &["inspect", &stray, "--from", "5", "--to", "1"],
            "`--from` 5 lies after `--to` 1",
        ),
    ];
    for (args, flag) in cases {
        let (code, stderr) = run_cli(args);
        assert_eq!(
            code,
            Some(2),
            "expected a usage error for {args:?}: {stderr}"
        );
        assert!(
            stderr.contains(flag) && stderr.contains("usage:") && !stderr.contains("panicked"),
            "usage error for {args:?} does not name `{flag}`: {stderr}"
        );
    }
    assert!(
        !tmp.path().join("stray").exists(),
        "a rejected command line must not create the --trace-out directory"
    );
    let (code, stderr) = run_cli(&["sharded", "--checkpoint-dir", &stray]);
    assert_eq!(code, Some(2), "sharded takes no checkpoint flags: {stderr}");
}

#[test]
fn trace_convert_keeps_the_jsonl_contract_and_readers_reject_jsonl() {
    use spider_bench::{run_scheme, ExperimentConfig, RunMode, SchemeChoice};
    use spider_telemetry::{bintrace, events_to_jsonl, Telemetry};

    let tmp = TempDir::new("convert");
    let traces = tmp.path().join("traces");
    let report = tmp.path().join("report.json").display().to_string();
    let (code, stderr) = run_cli(&[
        "fig6",
        "--scheme",
        SCHEME,
        "--topology",
        TOPOLOGY,
        "--json",
        &report,
        "--trace-out",
        &traces.display().to_string(),
    ]);
    assert_eq!(code, Some(0), "fig6 failed: {stderr}");
    let bin = traces.join(format!("{TRACE_STEM}.bin"));

    // The file a run writes is the SPBT encoding of the events the same
    // scenario records in-process.
    let tel = Telemetry::enabled();
    let cfg = ExperimentConfig::isp_quick();
    run_scheme(&cfg, SchemeChoice::SpiderWaterfilling, &tel, RunMode::Plain).unwrap();
    assert_eq!(read(&bin), bintrace::encode(&tel.events()));

    // .bin -> .jsonl is `events_to_jsonl` byte for byte; .jsonl -> .bin is
    // the original file.
    let jsonl = tmp.path().join("trace.jsonl");
    let back = tmp.path().join("back.bin");
    for (input, output) in [(&bin, &jsonl), (&jsonl, &back)] {
        let (code, stderr) = run_cli(&[
            "trace-convert",
            &input.display().to_string(),
            &output.display().to_string(),
        ]);
        assert_eq!(code, Some(0), "trace-convert failed: {stderr}");
    }
    assert_eq!(read(&jsonl), events_to_jsonl(&tel.events()).into_bytes());
    assert_eq!(read(&back), read(&bin));

    // Runs write SPBT only, so the readers take SPBT only: a JSONL trace is
    // pointed at trace-convert, and a `--json` report is refused as well.
    let jsonl_dir = tmp.path().join("jsonl-dir");
    std::fs::create_dir_all(&jsonl_dir).expect("create dir");
    std::fs::copy(&jsonl, jsonl_dir.join("trace.jsonl")).expect("copy trace");
    for (args, is_jsonl) in [
        (["inspect", &jsonl.display().to_string()], true),
        (["trace-check", &jsonl_dir.display().to_string()], true),
        (["inspect", &report], false),
    ] {
        let (code, stderr) = run_cli(&args);
        assert_eq!(code, Some(1), "{args:?} must reject it: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(
            !is_jsonl || stderr.contains("trace-convert"),
            "{args:?} does not point at trace-convert: {stderr}"
        );
    }
    let (code, stderr) = run_cli(&["trace-check", &traces.display().to_string()]);
    assert_eq!(
        code,
        Some(0),
        "trace-check rejected a run's trace: {stderr}"
    );

    // Infinite bounds are numbers; only NaN is refused.
    let bin = bin.display().to_string();
    let (code, stderr) = run_cli(&["inspect", &bin, "--from", "-inf", "--to", "inf"]);
    assert_eq!(code, Some(0), "inspect with infinite bounds: {stderr}");
}
