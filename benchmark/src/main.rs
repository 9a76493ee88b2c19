//! `hjsvd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the report; its last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 0 when the run completed
//! (whatever its correctness), 2 on bad arguments and 1 when the run could
//! not be carried out.
//!
//! With `--cold-solve <index>` (library workloads only) it instead times the
//! first solve of this process on pool input `index` and prints
//! `cold_solve_s <seconds>`; the library workloads run themselves this way
//! for `setup_s`.

use hjsvd_benchmark::fingerprint::Fingerprint;
use hjsvd_benchmark::library::{self, COLD_PREFIX};
use hjsvd_benchmark::{library_shape, run_workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cold_solve: Option<usize>,
}

/// This binary and the `hjsvd` binary `serve-mixed` spawns, the one next to
/// it (`run.sh` builds both into one target directory).
fn binaries() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let hjsvd = exe.with_file_name("hjsvd");
    Ok((exe, hjsvd))
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, cold_solve: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--cold-solve" => args.cold_solve = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(index) = args.cold_solve {
        let cold = library_shape(&args.workload)
            .ok_or_else(|| format!("--cold-solve needs a library workload, got {}", args.workload))
            .and_then(|shape| library::cold_solve(shape, args.seed, index));
        return match cold {
            Ok(dt) => {
                println!("{COLD_PREFIX}{dt:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cold solve failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = binaries().and_then(|(exe, hjsvd)| {
        run_workload(&args.workload, args.seed, args.seconds, args.trace, &exe, &hjsvd)
    });
    match run {
        Ok(report) => {
            print!("{}", report.render(&Fingerprint::probe()));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
