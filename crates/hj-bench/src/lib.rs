//! # hj-bench — the experiment harness
//!
//! Shared plumbing for the binaries that regenerate every table and figure
//! of the paper's evaluation (see DESIGN.md's per-experiment index):
//! wall-clock measurement with warmup and median-of-k, aligned table
//! printing, CSV emission, and the documented era-scaling constant used to
//! relate this machine's software baseline to the paper's 2009-era MATLAB
//! numbers.
//!
//! Binaries (`cargo run --release -p hj-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — architecture execution times over the (m, n) grid |
//! | `table2` | Table II — resource utilization |
//! | `fig7`   | Fig. 7 — square matrices: architecture vs software vs GPU |
//! | `fig8`   | Fig. 8 — rectangular matrices (fixed n, growing m) |
//! | `fig9`   | Fig. 9 — speedup of the architecture over the software SVD |
//! | `fig10`  | Fig. 10 — convergence vs sweeps, square matrices |
//! | `fig11`  | Fig. 11 — convergence vs sweeps, n = 1024, various m |
//! | `ablation_kernels` | A3 — update-kernel count scaling |
//! | `ablation_io`      | A4 — BRAM capacity / off-chip bandwidth cliff |
//! | `ablation_reconfig` | A5 — preprocessor reconfiguration on/off |
//! | `ablation_precision` | A6 — f64 vs f32 vs Q31.32 fixed point |
//! | `motivation_partial` | §I repeated-partial-SVD workload |
//! | `scaling_ae` | extension — multi-FPGA scaling projection |
//! | `energy` | extension — energy per decomposition |
//! | `sweep_report` | per-sweep ordering comparison with the trace layer on; writes `BENCH_sweep.json` and cross-checks trace vs stats |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Measure `f`'s wall time: one warmup call, then the median of `runs`
/// timed calls. Returns seconds.
pub fn measure<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    assert!(runs > 0);
    f(); // warmup
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2].as_secs_f64()
}

/// The paper's software baseline ran MATLAB 7.10 on a 2.2 GHz dual-core
/// Xeon (2009); our baseline is a from-scratch Rust Golub-Reinsch on a
/// modern core. Multiplying a measured baseline time by this constant
/// places it on the paper's scale. It is a single documented calibration
/// knob — chosen so the era-scaled Fig. 9 speedup grid spans approximately
/// the paper's published 3.8x–43.6x range — not a hidden per-point fit:
/// EXPERIMENTS.md reports speedups both raw and era-scaled.
pub const ERA_SLOWDOWN: f64 = 11.0;

/// Print an aligned text table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        println!("  {}", joined.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Write rows as CSV to `bench_results/<name>.csv` (creating the directory),
/// returning the path. Values are written as-is; callers quote if needed.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<String> {
    write_csv_in("bench_results", name, headers, rows)
}

/// [`write_csv`] into `dir` instead of `bench_results`.
fn write_csv_in(
    dir: &str,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<String> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{name}.csv");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    f.flush()?;
    Ok(path)
}

/// Format seconds in engineering style (`4.39e-3` → `4.390 ms`).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

/// Parse a `--full` style flag from the process args.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let mut acc = 0u64;
        let t = measure(3, || {
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
        });
        assert!(t >= 0.0);
        std::hint::black_box(acc); // keep the work observable
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(4.39e-3), "4.390 ms");
        assert_eq!(fmt_secs(5e-6), "5.000 us");
        assert_eq!(fmt_secs(5e-8), "50 ns");
    }

    #[test]
    fn csv_roundtrip() {
        // Under the temporary directory, so testing leaves the source tree
        // as it found it.
        let dir = std::env::temp_dir().join("hj_bench_csv_roundtrip");
        let dir = dir.to_str().unwrap();
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        let path = write_csv_in(dir, "test_csv", &["a", "b"], &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn print_table_checks_widths() {
        print_table(&["a", "b"], &[vec!["1".to_string()]]);
    }
}
