//! Tests of the benchmark's own logic: the tail rule, failed-operation
//! accounting, the metric catalogue against `BENCHMARK.json`, the traced
//! chain's bit-identity, the host fingerprint and the serve harness.

use hj_core::{HestenesSvd, SvdOptions};
use hj_matrix::gen;
use hjsvd_benchmark::report::{Metric, Report, Tally};
use hjsvd_benchmark::serve::{self, Request, ServeHarness};
use hjsvd_benchmark::stats::{median, tail, TAIL_BEYOND, TAIL_CAP_PERCENTILE};
use hjsvd_benchmark::{chain, fingerprint, library, metrics};
use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn uncapped_tail_is_the_eleventh_largest_sample() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = tail(&xs, 100.0);
    assert_eq!(t.value, 90.0);
    assert_eq!(t.beyond, TAIL_BEYOND);
    assert!((t.percentile - 90.0).abs() < 1e-12);

    let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>(), 100.0);
    assert_eq!((t.value, t.beyond), (0.0, 10));
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
}

#[test]
fn tail_is_capped_once_enough_samples_lie_beyond_the_cap() {
    // 1000 samples: ten beyond would be p99; the cap holds it at p95.
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&xs, TAIL_CAP_PERCENTILE);
    assert_eq!((t.value, t.beyond), (950.0, 50));
    assert!((t.percentile - 95.0).abs() < 1e-12);
    // 100 samples: ten beyond is p90, below the cap, so the rule decides.
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&xs, TAIL_CAP_PERCENTILE), tail(&xs, 100.0));
}

#[test]
fn tail_of_too_few_samples_is_the_maximum_with_none_beyond() {
    let t = tail(&[3.0, 1.0, 2.0], TAIL_CAP_PERCENTILE);
    assert_eq!((t.value, t.beyond, t.percentile), (3.0, 0, 100.0));
    assert_eq!(tail(&[], TAIL_CAP_PERCENTILE).beyond, 0);
}

#[test]
fn median_handles_odd_even_and_empty() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn every_failure_is_counted_even_past_the_kept_reasons() {
    let mut a = Tally::default();
    a.record(Ok(()));
    for i in 0..20 {
        a.record(Err(format!("miss {i}")));
    }
    assert_eq!((a.attempted, a.failed), (21, 20));
    assert!(a.reasons.len() < 20, "reasons are capped");

    let mut b = Tally::default();
    b.record(Err("remote".into()));
    b.record(Ok(()));
    a.merge(b);
    assert_eq!((a.attempted, a.failed), (23, 21));
    assert!(!a.all_ok());
}

fn report(tally: Tally, metrics: Vec<Metric>) -> Report {
    Report {
        workload: "w".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        metrics,
        tally,
        notes: vec![],
    }
}

#[test]
fn result_line_has_exactly_the_required_keys_and_reflects_failures() {
    let mut ok = Tally::default();
    ok.record(Ok(()));
    let line = report(ok, vec![metrics::metric("setup_s", 0.25, 3)]).result_json();
    assert_eq!(
        line,
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
    );

    let mut bad = Tally::default();
    bad.record(Ok(()));
    bad.record(Err("wrong spectrum".into()));
    let line = report(bad, vec![]).result_json();
    assert!(line.starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#), "{line}");

    assert!(!report(Tally::default(), vec![]).correct(), "nothing attempted is not a correct run");
}

#[test]
fn complete_orders_the_catalogue_and_zero_fills_unreached_layers() {
    let m = metrics::complete(metrics::PER_LAYER, vec![metrics::metric("engine.sweeps", 11.0, 5)]);
    assert_eq!(m.len(), metrics::PER_LAYER.len());
    for (got, (name, unit)) in m.iter().zip(metrics::PER_LAYER) {
        assert_eq!((got.name.as_str(), got.unit), (*name, *unit));
    }
    let sweeps = m.iter().find(|x| x.name == "engine.sweeps").unwrap();
    assert_eq!(sweeps.value, 11.0);
    assert_eq!(m.iter().find(|x| x.name == "serve.single.rtt_s").unwrap().value, 0.0);
}

#[test]
#[should_panic(expected = "not in this catalogue")]
fn complete_rejects_a_metric_of_the_other_catalogue() {
    metrics::complete(metrics::END_TO_END, vec![metrics::metric("engine.sweeps", 1.0, 1)]);
}

/// `"name": "<x>"` values in a JSON fragment, in order.
fn names(fragment: &str) -> Vec<String> {
    fragment
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue_and_workloads() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let (head, per_layer) = json.split_once("\"per_layer\"").expect("per_layer key");
    let (workloads, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end key");
    let want = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(end_to_end), want(metrics::END_TO_END));
    assert_eq!(names(per_layer), want(metrics::PER_LAYER));
    assert_eq!(names(workloads), hjsvd_benchmark::WORKLOADS.to_vec());
    for (name, unit) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}]"
        );
    }
}

#[test]
fn values_chain_is_bit_identical_to_singular_values() {
    let solver = HestenesSvd::new(SvdOptions::default());
    for (m, n, seed) in [(40, 12, 3), (16, 16, 5), (200, 8, 9)] {
        let a = gen::uniform(m, n, seed);
        let lib = library::solve(&solver, &a, false).unwrap();
        let c = chain::solve(&a, false).unwrap();
        library::chain_reproduces(&c, &lib).unwrap();
        assert_eq!(c.stats.sweeps, lib.sweeps);
        assert!(c.times.sweep > 0.0 && c.times.total >= c.times.sweep);
    }
}

#[test]
fn full_chain_reproduces_decompose_factors_and_counts() {
    let solver = HestenesSvd::new(SvdOptions::default());
    for (m, n, seed) in [(60, 10, 4), (12, 12, 8)] {
        let a = gen::uniform(m, n, seed);
        let svd = solver.decompose(&a).unwrap();
        let c = chain::solve(&a, true).unwrap();
        let lib = library::solve(&solver, &a, true).unwrap();
        library::chain_reproduces(&c, &lib).unwrap();
        assert_eq!(c.stats.sweeps, svd.stats.sweeps);
        assert_eq!(c.stats.rotations_applied, svd.stats.rotations_applied);
        assert_eq!(c.stats.rotations_skipped, svd.stats.rotations_skipped);
    }
}

#[test]
fn chain_mismatch_is_reported() {
    let solver = HestenesSvd::new(SvdOptions::default());
    let a = gen::uniform(30, 6, 1);
    let mut lib = library::solve(&solver, &a, false).unwrap();
    let c = chain::solve(&a, false).unwrap();
    lib.values[0] = f64::from_bits(lib.values[0].to_bits() + 1);
    assert!(library::chain_reproduces(&c, &lib).is_err());
}

#[test]
fn fingerprint_records_every_field() {
    let f = fingerprint::Fingerprint::probe();
    assert!(f.nproc >= 1 && f.rayon_threads >= 1);
    assert!(f.rustc.starts_with("rustc "), "{}", f.rustc);
    assert!(!f.cpu_model.is_empty() && !f.git_rev.is_empty() && !f.target_features.is_empty());
    let json = f.to_json();
    for key in
        ["cpu_model", "nproc", "rayon_threads", "rustflags", "target_features", "rustc", "git_rev"]
    {
        assert!(json.contains(&format!("\"{key}\":")), "{key} missing from {json}");
    }
}

#[test]
fn git_rev_is_marked_dirty_when_the_tree_has_changes() {
    assert_eq!(fingerprint::rev_label("abc123", ""), "abc123");
    assert_eq!(fingerprint::rev_label("abc123", "\n"), "abc123");
    assert_eq!(fingerprint::rev_label("abc123", " M src/lib.rs\n"), "abc123-dirty");
    assert_eq!(fingerprint::rev_label("abc123", "?? new.rs\n"), "abc123-dirty");
}

#[test]
fn cold_solve_times_a_checked_first_solve() {
    for full in [false, true] {
        let shape = library::Shape { rows: 40, cols: 8, full };
        let dt = library::cold_solve(shape, 7, 2).expect("cold solve");
        assert!(dt > 0.0 && dt < 10.0, "{dt}");
    }
}

#[test]
fn request_sequence_mixes_one_bulk_job_in_every_eight() {
    let seq: Vec<Request> = (0..64).map(|i| serve::request(1, i)).collect();
    let bulks = seq.iter().filter(|r| matches!(r, Request::Bulk(_))).count();
    assert_eq!(bulks, 64 / serve::BULK_EVERY);
    assert_eq!(seq[serve::BULK_EVERY - 1], Request::Bulk(1 % serve::BULK_POOL));
    for r in seq {
        match r {
            Request::Single(k) => assert!(k < serve::SINGLE_POOL),
            Request::Bulk(k) => assert!(k < serve::BULK_POOL),
        }
    }
}

#[test]
fn stats_fields_are_found_by_path() {
    let json = r#"{"schema":"hjsvd-serve-stats/v1","admitted":12,"retries":0,"latency":{"interactive":{"count":3,"mean_s":0.0005},"batch":{"count":1,"mean_s":1.5e-3}}}"#;
    assert_eq!(serve::json_number(json, &["admitted"]), Some(12.0));
    assert_eq!(serve::json_number(json, &["latency", "interactive", "mean_s"]), Some(0.0005));
    assert_eq!(serve::json_number(json, &["latency", "batch", "mean_s"]), Some(1.5e-3));
    assert_eq!(serve::json_number(json, &["faulted"]), None);
}

#[test]
fn class_mix_shares_come_from_counts_and_service_means() {
    let stats = r#"{"latency":{"interactive":{"count":30,"mean_s":0.001},"batch":{"count":10,"mean_s":0.006}}}"#;
    let mix = serve::ClassMix::measure(30, 640, stats).unwrap();
    assert!((mix.bulk_matrix_share - 640.0 / 670.0).abs() < 1e-12);
    assert!((mix.bulk_service_share - 0.06 / 0.09).abs() < 1e-12);
    assert!(serve::ClassMix::measure(1, 1, r#"{"latency":{}}"#).is_err());
}

#[test]
fn replay_reproduces_the_library_and_times_every_codec_span() {
    let mut tally = Tally::default();
    let p = serve::Payloads::generate(5, &mut tally).unwrap();
    let r = serve::replay(&p, 0.0, &mut tally, |a| chain::solve(a, false));
    assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
    assert!(r.single_solve.len() >= library::MIN_REQUESTS && !r.batch_total.is_empty());
    assert_eq!(r.chain.len(), r.single_solve.len());
    for (codec, jobs) in
        [(&r.single_codec, r.single_solve.len()), (&r.bulk_codec, r.batch_total.len())]
    {
        for spans in
            [&codec.submit_encode, &codec.submit_decode, &codec.result_encode, &codec.result_decode]
        {
            assert_eq!(spans.len(), jobs);
        }
    }
}

#[test]
fn replay_ends_and_counts_failures_when_the_chain_always_fails() {
    let mut tally = Tally::default();
    let p = serve::Payloads::generate(5, &mut tally).unwrap();
    let before = tally.attempted;
    let r = serve::replay(&p, 0.0, &mut tally, |_| Err("injected chain fault".to_string()));
    assert!(r.chain.is_empty());
    assert_eq!(tally.failed, r.single_solve.len() as u64);
    assert_eq!(tally.attempted - before, (r.single_solve.len() + r.batch_total.len()) as u64);
    assert!(tally.reasons.iter().any(|e| e.contains("injected chain fault")));
}

/// The `hjsvd` binary, built (or found up to date) by the repository's own
/// manifest into the target directory this test runs from.
fn hjsvd_bin() -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| repo.join("target"));
    let target = if target.is_absolute() { target } else { repo.join(target) };
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "--bin", "hjsvd", "--manifest-path"])
        .arg(repo.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building hjsvd failed");
    target.join("release").join("hjsvd")
}

#[test]
fn serve_harness_starts_serves_and_stops_cleanly() {
    let harness = ServeHarness::spawn(&hjsvd_bin(), 1).expect("spawn hjsvd serve");
    assert!(harness.addr().starts_with("127.0.0.1:"), "{}", harness.addr());
    let a = gen::uniform(12, 5, 2);
    let local = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
    let mut client = hj_serve::Client::connect(harness.addr()).expect("connect");
    for _ in 0..3 {
        let remote = client.submit(&a, hj_serve::SubmitOptions::default()).expect("submit");
        hjsvd_benchmark::check::bit_identical("remote", &remote.values, &local.values).unwrap();
    }
    drop(client);
    let report = harness.shutdown();
    report.check().expect("clean drain and exit");
    assert!(report.final_stats.contains("\"completed\":3"), "{}", report.final_stats);
}

#[test]
fn dropping_a_harness_stops_the_server() {
    let harness = ServeHarness::spawn(&hjsvd_bin(), 1).expect("spawn hjsvd serve");
    let addr = harness.addr().to_string();
    drop(harness);
    assert!(std::net::TcpStream::connect(addr).is_err(), "server still accepting after drop");
}

#[test]
fn spawning_a_missing_binary_fails_without_a_child() {
    let err = ServeHarness::spawn(Path::new("/nonexistent/hjsvd"), 1).unwrap_err();
    assert!(err.contains("spawn"), "{err}");
}
