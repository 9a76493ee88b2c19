//! The metric catalogue: every name `BENCHMARK.json` lists, with its unit.
//! A run prints the whole catalogue of its kind, in this order.

use crate::report::Metric;
use crate::stats::{tail, TAIL_CAP_PERCENTILE};

/// End-to-end metrics (the untraced run), name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("bulk_latency_p50_s", "s"),
];

/// Per-layer metrics (the traced run), name and unit. Layer prefixes are
/// module names: `gram`, `ordering`, `engine`, `svd` and `batch_engine` in
/// hj-core, `protocol` and `serve` in hj-serve; `trace` is the traced run's
/// own cost.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gram.build_s", "s"),
    ("gram.fma", "count"),
    ("ordering.plan_s", "s"),
    ("ordering.replans", "count"),
    ("engine.sweep_s", "s"),
    ("engine.sweeps", "count"),
    ("engine.rotations_applied", "count"),
    ("engine.rotations_skipped", "count"),
    ("engine.ns_per_rotation", "ns"),
    ("engine.column_bytes", "B"),
    ("svd.extract_s", "s"),
    ("svd.residual_s", "s"),
    ("batch_engine.load_s", "s"),
    ("batch_engine.sweep_s", "s"),
    ("batch_engine.extract_s", "s"),
    ("batch_engine.lanes", "count"),
    ("batch_engine.sweeps", "count"),
    ("protocol.single.encode_s", "s"),
    ("protocol.single.decode_s", "s"),
    ("protocol.bulk.encode_s", "s"),
    ("protocol.bulk.decode_s", "s"),
    ("serve.single.rtt_s", "s"),
    ("serve.single.service_s", "s"),
    ("serve.single.wire_s", "s"),
    ("serve.single.queue_wait_s", "s"),
    ("serve.bulk.rtt_s", "s"),
    ("serve.bulk.service_s", "s"),
    ("serve.bulk.wire_s", "s"),
    ("serve.bulk.queue_wait_s", "s"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
    ("serve.faulted", "count"),
    ("trace.latency_p50_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Unit of a catalogued metric.
///
/// # Panics
/// Panics on a name outside the catalogue (a bug in this benchmark).
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// A catalogued metric (unit looked up).
pub fn metric(name: &str, value: f64, samples: usize) -> Metric {
    Metric::new(name, value, unit(name), samples)
}

/// `latency_tail_s` over `samples`: the highest percentile up to
/// [`TAIL_CAP_PERCENTILE`] with at least ten samples beyond it. The note
/// names the percentile and also gives the uncapped value (the 11th-largest
/// sample) for information.
pub fn latency_tail(samples: &[f64]) -> Metric {
    let t = tail(samples, TAIL_CAP_PERCENTILE);
    let extreme = tail(samples, 100.0);
    metric("latency_tail_s", t.value, samples.len()).note(format!(
        "p{:.2}: {} samples beyond (cap p{TAIL_CAP_PERCENTILE}); uncapped p{:.2} = {:.6e} s",
        t.percentile, t.beyond, extreme.percentile, extreme.value
    ))
}

/// Put `measured` in catalogue order and fill every catalogued name it
/// lacks with 0: a layer this workload's path never reaches does no work.
///
/// # Panics
/// Panics if `measured` holds a name outside `catalogue`.
pub fn complete(catalogue: &[(&str, &'static str)], mut measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            catalogue.iter().any(|(n, _)| *n == m.name),
            "metric {} is not in this catalogue",
            m.name
        );
    }
    catalogue
        .iter()
        .map(|(name, unit)| match measured.iter().position(|m| m.name == *name) {
            Some(i) => measured.swap_remove(i),
            None => Metric::new(name, 0.0, unit, 0).note("layer not on this workload's path"),
        })
        .collect()
}
