//! The hjsvd benchmark of record.
//!
//! Four workloads, timed end to end from outside the program and, in a
//! separate traced run, layer by layer through the library's public
//! functions. See `README.md` in this directory for the layer map.

pub mod chain;
pub mod check;
pub mod fingerprint;
pub mod library;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod stats;

use report::Report;
use std::path::Path;

/// The workloads of record, in the order `BENCHMARK.json` lists them.
/// `square-values` also runs, but is not of record: on a shared host its
/// median moves with the host's speed by more than the benchmark's bound
/// (see `README.md`).
pub const WORKLOADS: &[&str] = &["tall-values", "tall-full", "serve-mixed"];

/// The shape of a library workload, or `None` for any other name.
pub fn library_shape(name: &str) -> Option<library::Shape> {
    match name {
        "square-values" => Some(library::SQUARE_VALUES),
        "tall-values" => Some(library::TALL_VALUES),
        "tall-full" => Some(library::TALL_FULL),
        _ => None,
    }
}

/// Run one workload. `exe` is this benchmark's binary, which the library
/// workloads re-run for their cold solves; `hjsvd` is the server binary
/// `serve-mixed` spawns.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    exe: &Path,
    hjsvd: &Path,
) -> Result<Report, String> {
    match (name, library_shape(name)) {
        (_, Some(shape)) => library::run(name, shape, seed, seconds, trace, exe),
        ("serve-mixed", None) => serve::run(hjsvd, seed, seconds, trace),
        (other, None) => Err(format!(
            "unknown workload {other:?} (expected square-values or one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
