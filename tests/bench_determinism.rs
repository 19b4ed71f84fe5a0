//! Bench-harness determinism lockdown: the `spider-experiments bench`
//! result section must be byte-identical across repeated runs and across
//! worker counts, with timing segregated so it can be stripped; and every
//! emitted `BENCH_*.json` must round-trip through the versioned
//! [`BenchReport`] schema.

use spider_bench::{
    bench_matrix, run_bench, run_bench_profiled, BenchReport, BENCH_SCHEMA_VERSION,
};

#[test]
fn bench_results_are_byte_identical_across_runs_and_worker_counts() {
    let a = run_bench(&bench_matrix(true), "smoke", 1, 1);
    let b = run_bench(&bench_matrix(true), "smoke", 1, 1);
    let c = run_bench(&bench_matrix(true), "smoke", 1, 4);

    let sa = a.stripped_json();
    let sb = b.stripped_json();
    let sc = c.stripped_json();
    assert_eq!(sa, sb, "bench results must not vary run to run");
    assert_eq!(sa, sc, "bench results must not depend on the worker count");

    // Nor on profiling: the phase breakdown rides in the timing section
    // only, and the warm-start cell (which resumes from a snapshot, and a
    // snapshot cannot restore a profiled handle) runs unprofiled.
    let matrix = bench_matrix(true);
    let d = run_bench_profiled(&matrix, "smoke", 1, 4, true);
    assert_eq!(sa, d.stripped_json(), "profiling must not change results");
    for (scenario, timing) in matrix.iter().zip(&d.timing.scenarios) {
        assert_eq!(
            timing.phases.is_empty(),
            scenario.warm_start.is_some(),
            "{}: only warm-start cells run unprofiled",
            scenario.name
        );
    }

    // Timing is genuinely segregated: the full JSON differs (wall-clock
    // moves), the stripped JSON does not mention it at all.
    assert!(!sa.contains("\"timing\""), "stripped JSON must drop timing");
    assert!(
        !sa.contains("wall_ms"),
        "stripped JSON must drop wall times"
    );
}

#[test]
fn bench_report_json_round_trips_through_versioned_schema() {
    let report = run_bench(&bench_matrix(true), "smoke", 1, 2);
    let json = report.to_json();
    let back = match BenchReport::from_json(&json) {
        Ok(r) => r,
        Err(e) => panic!("BENCH_*.json must parse back: {e}"),
    };
    assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(back.results, report.results);
    assert_eq!(back.timing.jobs, 2);

    // A future schema version is rejected, not silently misread.
    let bumped = json.replacen(
        &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
        &format!("\"schema_version\": {}", BENCH_SCHEMA_VERSION + 1),
        1,
    );
    assert!(
        bumped != json,
        "schema_version field must appear in the serialized report"
    );
    assert!(
        BenchReport::from_json(&bumped).is_err(),
        "future schema versions must be rejected"
    );
}
