//! The three library workloads: one caller thread, back-to-back calls into
//! `HestenesSvd` over a seeded pool of inputs.

use crate::chain::{self, ChainSolve};
use crate::check;
use crate::metrics::{self, metric};
use crate::report::{Metric, Report, Tally};
use crate::stats::median;
use hj_core::{HestenesSvd, SvdOptions};
use hj_matrix::{gen, Matrix};
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Distinct inputs per run; requests cycle through them.
pub const POOL: usize = 8;

/// Cold solves timed for `setup_s`, each in a fresh process (the median is
/// reported).
pub const SETUPS: usize = 7;

/// Requests every timed pass makes at least, so the tail percentile exists.
pub const MIN_REQUESTS: usize = 11;

/// A library workload's shape and entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Rows of every input.
    pub rows: usize,
    /// Columns of every input.
    pub cols: usize,
    /// `decompose` (U, Σ, V) instead of `singular_values`.
    pub full: bool,
}

/// `square-values`: `singular_values` on 256×256.
pub const SQUARE_VALUES: Shape = Shape { rows: 256, cols: 256, full: false };
/// `tall-values`: `singular_values` on 16384×64.
pub const TALL_VALUES: Shape = Shape { rows: 16384, cols: 64, full: false };
/// `tall-full`: `decompose` on 16384×64.
pub const TALL_FULL: Shape = Shape { rows: 16384, cols: 64, full: true };

/// Seed of pool input `i` for workload seed `seed`.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64)
}

/// What one library call returned, kept for the traced run's comparison.
#[derive(Debug, Clone)]
pub struct Solved {
    /// Singular values, descending.
    pub values: Vec<f64>,
    /// `(U, V)` in full mode.
    pub factors: Option<(Matrix, Matrix)>,
    /// Sweeps run.
    pub sweeps: usize,
    /// Rotations applied.
    pub rotations_applied: usize,
}

/// One call of the workload's entry point.
pub fn solve(solver: &HestenesSvd, a: &Matrix, full: bool) -> Result<Solved, String> {
    if full {
        let svd = solver.decompose(a).map_err(|e| format!("decompose: {e}"))?;
        Ok(Solved {
            values: svd.singular_values,
            factors: Some((svd.u, svd.v)),
            sweeps: svd.stats.sweeps,
            rotations_applied: svd.stats.rotations_applied,
        })
    } else {
        let sv = solver.singular_values(a).map_err(|e| format!("singular_values: {e}"))?;
        Ok(Solved {
            values: sv.values,
            factors: None,
            sweeps: sv.stats.sweeps,
            rotations_applied: sv.stats.rotations_applied,
        })
    }
}

/// Check one result against the reference (and `U`, `V` in full mode).
fn check_result(
    a: &Matrix,
    reference: &[f64],
    values: &[f64],
    factors: Option<&(Matrix, Matrix)>,
) -> Result<(), String> {
    check::spectrum_matches(values, reference)?;
    if let Some((u, v)) = factors {
        check::factors_ok(a, u, values, v)?;
    }
    Ok(())
}

/// The traced chain reproduces the library call bit for bit: spectrum (and
/// factors), sweeps and applied rotations.
pub fn chain_reproduces(chain: &ChainSolve, lib: &Solved) -> Result<(), String> {
    check::bit_identical("chain spectrum", &chain.values, &lib.values)?;
    if let (Some((cu, cv)), Some((lu, lv))) = (&chain.factors, &lib.factors) {
        check::bit_identical("chain U", cu.as_slice(), lu.as_slice())?;
        check::bit_identical("chain V", cv.as_slice(), lv.as_slice())?;
    } else if chain.factors.is_some() != lib.factors.is_some() {
        return Err("chain and library disagree on factors".to_string());
    }
    if chain.stats.sweeps != lib.sweeps || chain.stats.rotations_applied != lib.rotations_applied {
        return Err(format!(
            "chain ran {} sweeps / {} rotations, library {} / {}",
            chain.stats.sweeps, chain.stats.rotations_applied, lib.sweeps, lib.rotations_applied
        ));
    }
    Ok(())
}

/// Samples of the timed pass.
#[derive(Default)]
struct Pass {
    /// Latency of each library call.
    latencies: Vec<f64>,
    /// Sum of the latencies of each complete pass over the pool.
    pool_passes: Vec<f64>,
    /// Chain solves (traced run only), timings kept, factors dropped.
    chain: Vec<ChainSolve>,
}

/// The timed pass: back-to-back library calls over the pool, each checked
/// after its timer stops. In the traced run every call is paired with a
/// chain solve of the same input (alternating which goes first), so traced
/// and untraced times come from the same window; the chain must reproduce
/// the call bit for bit.
fn timed_pass(
    solver: &HestenesSvd,
    shape: Shape,
    pool: &[Matrix],
    refs: &[Vec<f64>],
    seconds: f64,
    trace: bool,
    tally: &mut Tally,
) -> Pass {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass = Pass::default();
    let mut pass_sum = 0.0;
    let mut i = 0usize;
    while pass.latencies.len() < MIN_REQUESTS || Instant::now() < deadline {
        let k = i % POOL;
        let a = &pool[k];
        let chain_first = trace && i % 2 == 1;
        let early_chain = chain_first.then(|| chain::solve(black_box(a), shape.full));
        let t = Instant::now();
        let result = solve(solver, black_box(a), shape.full);
        let dt = t.elapsed().as_secs_f64();
        let result = black_box(result);
        let chained = if trace {
            Some(early_chain.unwrap_or_else(|| chain::solve(black_box(a), shape.full)))
        } else {
            None
        };
        pass.latencies.push(dt);
        pass_sum += dt;
        if k == POOL - 1 {
            pass.pool_passes.push(pass_sum);
            pass_sum = 0.0;
        }
        let lib = result
            .and_then(|s| check_result(a, &refs[k], &s.values, s.factors.as_ref()).map(|()| s));
        if let Some(chained) = chained {
            tally.record(chained.and_then(|c| {
                check_result(a, &refs[k], &c.values, c.factors.as_ref())?;
                chain_reproduces(&c, lib.as_ref().map_err(|_| "library call failed".to_string())?)?;
                // Keep only the timings: full-mode factors are 8 MiB each.
                pass.chain.push(ChainSolve { factors: None, ..c });
                Ok(())
            }));
        }
        tally.record(lib.map(drop));
        i += 1;
    }
    pass
}

/// The set-up of one fresh process: generate pool input `index`, then time
/// its solve, the first the process makes. The result is checked after the
/// timer stops.
pub fn cold_solve(shape: Shape, seed: u64, index: usize) -> Result<f64, String> {
    let a = gen::uniform(shape.rows, shape.cols, input_seed(seed, index));
    let solver = HestenesSvd::new(SvdOptions::default());
    let t = Instant::now();
    let result = solve(&solver, black_box(&a), shape.full);
    let dt = t.elapsed().as_secs_f64();
    let s = result?;
    check_result(&a, &check::reference_spectrum(&a)?, &s.values, s.factors.as_ref())?;
    Ok(dt)
}

/// Run `exe --workload <name> --seed <seed> --cold-solve <index>` (this
/// benchmark's own binary) and read the [`cold_solve`] time it prints.
fn cold_setup(exe: &Path, name: &str, seed: u64, index: usize) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string(), "--cold-solve"])
        .arg(index.to_string())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout.lines().last().and_then(|l| l.strip_prefix(COLD_PREFIX));
    match (out.status.success(), value.map(str::parse::<f64>)) {
        (true, Some(Ok(dt))) => Ok(dt),
        _ => Err(format!(
            "cold solve {index}: {}, stderr {:?}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// What a `--cold-solve` process prints before its time in seconds.
pub const COLD_PREFIX: &str = "cold_solve_s ";

/// Run a library workload: seeded pool, references, cold solves in fresh
/// processes of `exe` (this benchmark's binary), one warm-up solve, then
/// the timed pass (paired with the traced chain when `trace` is set).
pub fn run(
    name: &str,
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    exe: &Path,
) -> Result<Report, String> {
    let solver = HestenesSvd::new(SvdOptions::default());
    let pool: Vec<Matrix> =
        (0..POOL).map(|i| gen::uniform(shape.rows, shape.cols, input_seed(seed, i))).collect();
    let refs = pool.iter().map(check::reference_spectrum).collect::<Result<Vec<_>, _>>()?;
    let mut tally = Tally::default();

    // Set-up: each cold solve is the first solve of a fresh process. The
    // traced run reports no `setup_s`, so it skips them.
    let mut setups = Vec::with_capacity(SETUPS);
    for index in (0..SETUPS).filter(|_| !trace) {
        let cold = cold_setup(exe, name, seed, index % POOL);
        if let Ok(dt) = cold {
            setups.push(dt);
        }
        tally.record(cold.map(drop));
    }
    // This process's own first solve, untimed, so the timed pass starts warm.
    let warm_up = solve(&solver, black_box(&pool[0]), shape.full);
    tally.record(
        warm_up.and_then(|s| check_result(&pool[0], &refs[0], &s.values, s.factors.as_ref())),
    );

    let pass = timed_pass(&solver, shape, &pool, &refs, seconds, trace, &mut tally);
    let p50 = median(&pass.latencies);
    let n = pass.latencies.len();
    let mut notes = vec![format!(
        "{}x{} uniform inputs, pool of {POOL}, {}, one caller thread",
        shape.rows,
        shape.cols,
        if shape.full { "decompose" } else { "singular_values" }
    )];
    let metrics = if trace {
        notes.push(format!("untraced calls: latency_p50_s {p50:.9e} over {n} requests"));
        let traced_p50 = median(&pass.chain.iter().map(|c| c.times.total).collect::<Vec<_>>());
        let chained = pass.chain.len();
        let mut m = layer_metrics(shape.rows, shape.cols, shape.full, &pass.chain, p50);
        m.push(metric("trace.latency_p50_s", traced_p50, chained).note("chain solve"));
        m.push(
            metric("trace.overhead_s", traced_p50 - p50, chained).note("traced minus untraced p50"),
        );
        metrics::complete(metrics::PER_LAYER, m)
    } else {
        let busy: f64 = pass.latencies.iter().sum();
        metrics::complete(
            metrics::END_TO_END,
            vec![
                metric("setup_s", median(&setups), setups.len())
                    .note(format!("median of {SETUPS} cold solves, each in a fresh process")),
                metric("throughput_per_s", n as f64 / busy, n)
                    .note("requests / summed request time"),
                metric("latency_p50_s", p50, n),
                metrics::latency_tail(&pass.latencies),
                metric("bulk_latency_p50_s", median(&pass.pool_passes), pass.pool_passes.len())
                    .note(format!("median pass over the {POOL}-input pool")),
            ],
        )
    };
    Ok(Report { workload: name.to_string(), seed, seconds, trace, metrics, tally, notes })
}

/// Per-request medians of the `gram`/`ordering`/`engine`/`svd` layers over
/// chain solves on `m × n` inputs, plus the residual against `reference_p50`
/// (the untraced call's median).
pub fn layer_metrics(
    m: usize,
    n: usize,
    full: bool,
    solves: &[ChainSolve],
    reference_p50: f64,
) -> Vec<Metric> {
    let pick = |f: &dyn Fn(&ChainSolve) -> f64| median(&solves.iter().map(f).collect::<Vec<_>>());
    let count = solves.len();
    let gram = pick(&|c| c.times.gram);
    let plan = pick(&|c| c.times.plan);
    let sweep = pick(&|c| c.times.sweep);
    let extract = pick(&|c| c.times.extract);
    let applied = pick(&|c| c.stats.rotations_applied as f64);
    // Each full-mode rotation reads and writes two m-long columns of B and
    // two n-long columns of V: 4·(m + n) doubles.
    let column_bytes = if full { applied * 32.0 * (m + n) as f64 } else { 0.0 };
    vec![
        metric("gram.build_s", gram, count),
        metric("gram.fma", (m * n * (n + 1) / 2) as f64, 0).note("computed: m*n*(n+1)/2"),
        metric("ordering.plan_s", plan, count),
        metric("ordering.replans", pick(&|c| c.stats.replans as f64), count),
        metric("engine.sweep_s", sweep, count),
        metric("engine.sweeps", pick(&|c| c.stats.sweeps as f64), count),
        metric("engine.rotations_applied", applied, count),
        metric("engine.rotations_skipped", pick(&|c| c.stats.rotations_skipped as f64), count),
        metric(
            "engine.ns_per_rotation",
            pick(&|c| 1e9 * c.times.sweep / c.stats.rotations_applied.max(1) as f64),
            count,
        ),
        metric("engine.column_bytes", column_bytes, count).note("computed: rotations*32*(m+n)"),
        metric("svd.extract_s", extract, count),
        metric("svd.residual_s", reference_p50 - (gram + plan + sweep + extract), count)
            .note("untraced p50 minus gram, ordering, engine, extract"),
    ]
}
