//! Reproducible per-sweep benchmark: replay square problems with the trace
//! layer on, cross-check the trace against [`hj_core::SolveStats`], and
//! emit a machine-readable `BENCH_sweep.json` report.
//!
//! For each `n ∈ {32, 64, 128, 256}` the values-only solver runs twice in
//! the cyclic order: once with the default fixed pair guard and once with
//! the default [`hj_core::ThresholdSchedule`] ramp, so the report records
//! `sweeps_to_converge` per (n, schedule). Every run carries a sweep-level
//! [`hj_core::RingBufferSink`]; the binary verifies, run by run, that the
//! trace's `sweep_end` events agree with the solve's own accounting — same
//! sweep count, same per-sweep rotation totals as the
//! [`hj_core::SweepRecord`] history, same grand total as
//! `SolveStats.rotations_applied` — and aborts with a nonzero exit if any
//! run disagrees.
//!
//! The summary tables, a per-sweep breakdown at `n = 128`, and the JSON
//! report (schema `hjsvd-sweep-report/v2`, one entry per run with the full
//! embedded `SolveStats` record) document the result; see EXPERIMENTS.md
//! for the schema and regeneration instructions.
//!
//! Run: `cargo run --release -p hj-bench --bin sweep_report`
//!
//! With `--perf-smoke` the binary additionally holds every run to two
//! guarantees that the deterministic sequential engine gives on any host
//! and build (timings are never compared):
//!
//! * **(a) Same counts as the record.** Each run's `sweeps_to_converge` and
//!   per-sweep `rotations_applied` equal those of the committed
//!   `BENCH_sweep.json`, read before this run overwrites it. A change to
//!   the engine's arithmetic, the guard or the ordering shows here; a change
//!   meant to alter the counts must regenerate the record with it.
//! * **(b) Every run stops before the cap.** No run may reach
//!   [`MAX_SWEEP_CAP`] sweeps: a solve that idles to the cap has not found
//!   its stopping point.
//!
//! CI runs this mode; any cross-check failure or contract breach exits
//! nonzero.

use hj_bench::{fmt_secs, print_table};
use hj_core::convergence::MAX_SWEEP_CAP;
use hj_core::{
    HestenesSvd, RingBufferSink, SolveRequest, SvdOptions, ThresholdSchedule, TraceEvent,
    TraceLevel,
};
use hj_matrix::gen;

const SIZES: [usize; 4] = [32, 64, 128, 256];
const SEED: u64 = 42;
const BREAKDOWN_N: usize = 128;
const REPORT_PATH: &str = "BENCH_sweep.json";

/// Per-sweep numbers reconstructed from one run's `sweep_end` trace events.
struct SweepLine {
    sweep: usize,
    applied: usize,
    skipped: usize,
    off_frobenius: f64,
    seconds: f64,
}

/// One (n, schedule) run: the solve's own record plus the trace's view of
/// it.
struct Run {
    n: usize,
    engine: &'static str,
    ordering: &'static str,
    threshold: bool,
    sweeps: usize,
    trace_events: usize,
    per_sweep: Vec<SweepLine>,
    stats_json: String,
    total_seconds: f64,
    rotations_applied: u64,
    final_off_frobenius: f64,
}

/// Run one traced solve and cross-check trace against stats; pushes the run
/// (on success) and returns the number of cross-check failures.
fn run_one(a: &hj_matrix::Matrix, n: usize, threshold: bool, runs: &mut Vec<Run>) -> usize {
    let solver = HestenesSvd::new(SvdOptions {
        threshold: threshold.then(ThresholdSchedule::default),
        ..SvdOptions::default()
    });
    // Sweep level emits 3 events per sweep (start, end, convergence check)
    // plus recoveries; 4096 slots hold any realistic solve.
    let mut sink = RingBufferSink::new(4096);
    let label = if threshold { "cyclic+threshold" } else { "cyclic" };
    let req = SolveRequest::default().with_trace(&mut sink, TraceLevel::Sweep);
    let sv = match solver.singular_values_with(a, req) {
        Ok(sv) => sv,
        Err(e) => {
            eprintln!("FAIL n={n} ordering={label}: {e}");
            return 1;
        }
    };

    let per_sweep: Vec<SweepLine> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::SweepEnd {
                sweep,
                rotations_applied,
                rotations_skipped,
                off_frobenius,
                seconds,
            } => Some(SweepLine {
                sweep,
                applied: rotations_applied,
                skipped: rotations_skipped,
                off_frobenius,
                seconds,
            }),
            _ => None,
        })
        .collect();

    // Cross-check: the trace and the solve must tell the same story.
    let mut failures = 0usize;
    let trace_total: u64 = per_sweep.iter().map(|s| s.applied as u64).sum();
    if per_sweep.len() != sv.sweeps {
        eprintln!(
            "FAIL n={n} ordering={label}: {} sweep_end events for {} sweeps",
            per_sweep.len(),
            sv.sweeps
        );
        failures += 1;
    }
    if trace_total != sv.stats.rotations_applied as u64 {
        eprintln!(
            "FAIL n={n} ordering={label}: trace counts {} rotations, stats say {}",
            trace_total, sv.stats.rotations_applied
        );
        failures += 1;
    }
    for (line, rec) in per_sweep.iter().zip(&sv.history) {
        if line.sweep != rec.sweep
            || line.applied != rec.rotations_applied
            || line.skipped != rec.rotations_skipped
        {
            eprintln!(
                "FAIL n={n} ordering={label}: sweep {} trace ({}/{}) != history ({}/{})",
                rec.sweep, line.applied, line.skipped, rec.rotations_applied, rec.rotations_skipped
            );
            failures += 1;
        }
    }

    let final_off = per_sweep.last().map(|s| s.off_frobenius).unwrap_or(0.0);
    runs.push(Run {
        n,
        engine: sv.stats.engine,
        ordering: sv.stats.ordering,
        threshold,
        sweeps: sv.sweeps,
        trace_events: sink.recorded(),
        per_sweep,
        stats_json: sv.stats.to_json(),
        total_seconds: sv.stats.total_seconds,
        rotations_applied: sv.stats.rotations_applied as u64,
        final_off_frobenius: final_off,
    });
    failures
}

fn main() {
    let perf_smoke = std::env::args().skip(1).any(|a| a == "--perf-smoke");
    // The record the smoke check compares against, read before this run
    // overwrites it.
    let committed = perf_smoke.then(|| std::fs::read_to_string(REPORT_PATH));
    let mut runs = Vec::new();
    let mut failures = 0usize;

    for &n in &SIZES {
        let a = gen::uniform(n, n, SEED);
        for threshold in [false, true] {
            failures += run_one(&a, n, threshold, &mut runs);
        }
    }

    println!("sweep_report: sizes × schedules with sweep-level tracing on (seed {SEED})\n");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                ordering_label(r),
                r.sweeps.to_string(),
                r.rotations_applied.to_string(),
                format!("{:.3e}", r.final_off_frobenius),
                fmt_secs(r.total_seconds),
            ]
        })
        .collect();
    print_table(&["n", "ordering", "sweeps", "rotations", "final off-F", "total"], &rows);

    println!("\nsweeps_to_converge by schedule:");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &n in &SIZES {
        let sweeps_of = |threshold: bool| {
            runs.iter()
                .find(|r| r.n == n && r.threshold == threshold)
                .map(|r| r.sweeps.to_string())
                .unwrap_or_else(|| "-".into())
        };
        rows.push(vec![n.to_string(), sweeps_of(false), sweeps_of(true)]);
    }
    print_table(&["n", "cyclic", "cyclic+th"], &rows);

    println!("\nper-sweep breakdown at n = {BREAKDOWN_N} (from sweep_end trace events):");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .filter(|r| r.n == BREAKDOWN_N && !r.threshold)
        .flat_map(|r| {
            r.per_sweep.iter().map(|s| {
                vec![
                    s.sweep.to_string(),
                    s.applied.to_string(),
                    s.skipped.to_string(),
                    format!("{:.3e}", s.off_frobenius),
                    fmt_secs(s.seconds),
                ]
            })
        })
        .collect();
    print_table(&["sweep", "applied", "skipped", "off-frobenius", "time"], &rows);

    match committed {
        Some(Ok(json)) => failures += perf_smoke_check(&runs, &json),
        Some(Err(e)) => {
            eprintln!("FAIL perf-smoke: cannot read the committed {REPORT_PATH}: {e}");
            failures += 1;
        }
        None => {}
    }

    match std::fs::write(REPORT_PATH, report_json(&runs, failures)) {
        Ok(()) => println!("\nreport: {REPORT_PATH}"),
        Err(e) => {
            eprintln!("FAIL writing {REPORT_PATH}: {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("\n{failures} check failure(s)");
        std::process::exit(1);
    }
    println!("all trace/stats cross-checks passed ({} runs)", runs.len());
}

fn ordering_label(r: &Run) -> String {
    if r.threshold {
        format!("{}+th", r.ordering)
    } else {
        r.ordering.to_string()
    }
}

/// The counts guarantee (a) compares: one run's key and its sweep-by-sweep
/// applied rotations (the sweep count is the list's length).
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    n: usize,
    ordering: String,
    threshold: bool,
    applied: Vec<usize>,
}

impl Counts {
    fn of(r: &Run) -> Counts {
        Counts {
            n: r.n,
            ordering: r.ordering.to_string(),
            threshold: r.threshold,
            applied: r.per_sweep.iter().map(|s| s.applied).collect(),
        }
    }
}

/// The leading unsigned integer of `s`.
fn leading_usize(s: &str) -> Option<usize> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// Read every run's [`Counts`] back out of a report [`report_json`] wrote;
/// `None` if any run lacks a field or its sweep count disagrees with its
/// per-sweep list.
fn parse_counts(json: &str) -> Option<Vec<Counts>> {
    json.split("{\"n\":")
        .skip(1)
        .map(|run| {
            let after = |key: &str| run.split_once(key).map(|(_, rest)| rest);
            let ordering = after("\"ordering\":\"")?.split('"').next()?.to_string();
            let threshold = after("\"threshold_schedule\":")?.starts_with("true");
            let sweeps = leading_usize(after("\"sweeps_to_converge\":")?)?;
            let per_sweep = after("\"per_sweep\":[")?.split("],\"stats\":").next()?;
            let applied = per_sweep
                .split("\"rotations_applied\":")
                .skip(1)
                .map(leading_usize)
                .collect::<Option<Vec<_>>>()?;
            (applied.len() == sweeps).then_some(Counts {
                n: leading_usize(run)?,
                ordering,
                threshold,
                applied,
            })
        })
        .collect()
}

/// `--perf-smoke`: hold every run to guarantees (a) and (b) of the module
/// doc against the committed report `committed`; returns the number of
/// failures.
fn perf_smoke_check(runs: &[Run], committed: &str) -> usize {
    let mut failures = 0usize;
    let Some(record) = parse_counts(committed) else {
        eprintln!("FAIL perf-smoke: the committed {REPORT_PATH} does not parse");
        return 1;
    };
    if record.len() != runs.len() {
        eprintln!("FAIL perf-smoke: {} runs, the record has {}", runs.len(), record.len());
        failures += 1;
    }
    for r in runs {
        let got = Counts::of(r);
        let label = format!("n={} ordering={}", r.n, ordering_label(r));
        match record
            .iter()
            .find(|c| (c.n, &c.ordering, c.threshold) == (got.n, &got.ordering, got.threshold))
        {
            None => {
                eprintln!("FAIL perf-smoke: {label} has no run in the record");
                failures += 1;
            }
            Some(want) if *want != got => {
                eprintln!(
                    "FAIL perf-smoke: {label} applied {:?} per sweep, the record says {:?}",
                    got.applied, want.applied
                );
                failures += 1;
            }
            Some(_) => {}
        }
        if r.sweeps >= MAX_SWEEP_CAP {
            eprintln!("FAIL perf-smoke: {label} ran {} sweeps, reaching the cap", r.sweeps);
            failures += 1;
        }
    }
    if failures == 0 {
        println!(
            "\nperf-smoke: all {} runs match the record's sweep and rotation counts \
             and stop before {MAX_SWEEP_CAP} sweeps",
            runs.len()
        );
    }
    failures
}

/// Render the whole report as one JSON document (schema
/// `hjsvd-sweep-report/v2` — v2 added the `ordering`, `threshold_schedule`,
/// and `sweeps_to_converge` fields). Hand-rolled like the rest of the
/// workspace's JSON — no serde dependency.
fn report_json(runs: &[Run], failures: usize) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"hjsvd-sweep-report/v2\",");
    out.push_str(&format!("\"seed\":{SEED},\"cross_check_failures\":{failures},\"runs\":["));
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"n\":{},\"engine\":\"{}\",\"ordering\":\"{}\",\"threshold_schedule\":{},\
             \"sweeps_to_converge\":{},\"trace_events\":{},\"per_sweep\":[",
            r.n, r.engine, r.ordering, r.threshold, r.sweeps, r.trace_events
        ));
        for (j, s) in r.per_sweep.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"sweep\":{},\"rotations_applied\":{},\"rotations_skipped\":{},\
                 \"off_frobenius\":{:?},\"seconds\":{:?}}}",
                s.sweep, s.applied, s.skipped, s.off_frobenius, s.seconds
            ));
        }
        out.push_str("],\"stats\":");
        out.push_str(&r.stats_json);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, ordering: &'static str, threshold: bool, applied: &[usize]) -> Run {
        Run {
            n,
            engine: "sequential",
            ordering,
            threshold,
            sweeps: applied.len(),
            trace_events: 3 * applied.len(),
            per_sweep: applied
                .iter()
                .enumerate()
                .map(|(k, &a)| SweepLine {
                    sweep: k + 1,
                    applied: a,
                    skipped: 10 - a,
                    off_frobenius: 1e-3,
                    seconds: 1e-4,
                })
                .collect(),
            stats_json: format!("{{\"rotations_applied\":{}}}", applied.iter().sum::<usize>()),
            total_seconds: 1e-3,
            rotations_applied: applied.iter().sum::<usize>() as u64,
            final_off_frobenius: 1e-3,
        }
    }

    fn runs() -> Vec<Run> {
        vec![run(8, "cyclic", false, &[10, 9, 4, 0]), run(16, "cyclic", true, &[7, 10, 2])]
    }

    #[test]
    fn the_record_parses_back_to_its_counts() {
        let record = parse_counts(&report_json(&runs(), 0)).unwrap();
        assert_eq!(record, runs().iter().map(Counts::of).collect::<Vec<_>>());
        assert_eq!(perf_smoke_check(&runs(), &report_json(&runs(), 0)), 0);
    }

    #[test]
    fn a_changed_rotation_count_fails_the_check() {
        let committed = report_json(&runs(), 0);
        let mut doctored = runs();
        doctored[1].per_sweep[1].applied -= 1;
        assert_eq!(perf_smoke_check(&doctored, &committed), 1);
        // So does a changed sweep count, and a run the record lacks.
        let mut longer = runs();
        longer[0] = run(8, "cyclic", false, &[10, 9, 4, 1, 0]);
        assert_eq!(perf_smoke_check(&longer, &committed), 1);
        let mut renamed = runs();
        renamed[1].threshold = false;
        assert_eq!(perf_smoke_check(&renamed, &committed), 1);
    }

    #[test]
    fn a_run_at_the_cap_fails_the_check_even_if_the_record_agrees() {
        let mut capped = runs();
        capped[0] = run(8, "cyclic", false, &[1; MAX_SWEEP_CAP]);
        let committed = report_json(&capped, 0);
        assert_eq!(perf_smoke_check(&capped, &committed), 1);
    }

    #[test]
    fn an_unreadable_record_fails_the_check() {
        assert_eq!(perf_smoke_check(&runs(), "{\"runs\":[{\"n\":8}]}"), 1);
        let mut truncated = report_json(&runs(), 0);
        truncated.truncate(truncated.len() / 2);
        assert!(perf_smoke_check(&runs(), &truncated) > 0);
    }
}
