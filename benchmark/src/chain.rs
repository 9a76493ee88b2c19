//! The traced chain: `HestenesSvd`'s default solve rebuilt from the
//! library's public layer functions, with a timer around each layer.
//!
//! Values mode runs `GramState::from_matrix` (layer `gram`), then
//! `SolveDriver::run_monitored` over timing wrappers of `engine::Sequential`
//! (layer `engine`) and `ordering::Cyclic` (layer `ordering`), then
//! `GramState::singular_values_unsorted` and a sort (layer `svd`, extract).
//! Full mode also rotates `B = A` and `V = I` and extracts `U = BΣ⁻¹` the way
//! `HestenesSvd::decompose` does. On inputs inside the library's prescale
//! window (every workload input here) the chain computes the same bits as
//! `singular_values` / `decompose`; the tests pin that.

use hj_core::convergence::MAX_SWEEP_CAP;
use hj_core::engine::Sequential;
use hj_core::ordering::{Cyclic, Sweep};
use hj_core::{
    GramState, HealthCheck, Ordering, OrderingStrategy, PairGuard, RotationTarget, SolveBudget,
    SolveDriver, SolveMonitor, SolveStats, SvdOptions, SweepEngine, SweepRecord, SweepSchedule,
    SweepState, Tracer,
};
use hj_matrix::{ops, Matrix};
use std::time::Instant;

/// `engine::Sequential` with a timer around each sweep.
#[derive(Debug, Default)]
struct TimedEngine {
    inner: Sequential,
    seconds: f64,
}

impl SweepEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sweep_traced(
        &mut self,
        state: &mut SweepState<'_>,
        order: &Sweep,
        idx: usize,
        tracer: &mut Tracer<'_, '_>,
    ) -> SweepRecord {
        let t = Instant::now();
        let rec = self.inner.sweep_traced(state, order, idx, tracer);
        self.seconds += t.elapsed().as_secs_f64();
        rec
    }

    fn finish(&mut self, stats: &mut SolveStats, n: usize) {
        self.inner.finish(stats, n);
    }
}

/// `ordering::Cyclic` with a timer around each planning call.
#[derive(Debug, Default)]
struct TimedOrdering {
    inner: Cyclic,
    seconds: f64,
}

impl OrderingStrategy for TimedOrdering {
    fn kind(&self) -> Ordering {
        self.inner.kind()
    }

    fn plan_sweep(&mut self, gram: &GramState, sweep_index: usize, out: &mut Sweep) -> bool {
        let t = Instant::now();
        let replanned = self.inner.plan_sweep(gram, sweep_index, out);
        self.seconds += t.elapsed().as_secs_f64();
        replanned
    }
}

/// Per-layer times of one chain solve, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// `gram`: building `D = AᵀA`.
    pub gram: f64,
    /// `ordering`: planning sweeps.
    pub plan: f64,
    /// `engine`: the sweeps themselves (rotation parameters and updates).
    pub sweep: f64,
    /// `svd`: extracting the spectrum (and `U`, `V` in full mode).
    pub extract: f64,
    /// The whole chain, glue included.
    pub total: f64,
}

/// The result of one chain solve.
#[derive(Debug, Clone)]
pub struct ChainSolve {
    /// Singular values, descending.
    pub values: Vec<f64>,
    /// `(U, V)` in full mode.
    pub factors: Option<(Matrix, Matrix)>,
    /// The driver's stats (sweeps, rotations, replans).
    pub stats: SolveStats,
    /// Per-layer times.
    pub times: LayerTimes,
}

/// Solve `a` through the chain: values only, or full `U, Σ, V`. Fails if
/// the driver reports a fault (the library would recover; the chain does
/// not, so the run would no longer be comparable).
pub fn solve(a: &Matrix, full: bool) -> Result<ChainSolve, String> {
    let start = Instant::now();
    let options = SvdOptions::default();
    let driver = SolveDriver {
        convergence: options.convergence,
        max_sweeps: options.max_sweeps.min(MAX_SWEEP_CAP),
    };
    let n = a.cols();
    let (mut b, mut v) =
        if full { (Some(a.clone()), Some(Matrix::identity(n))) } else { (None, None) };

    let t = Instant::now();
    let mut gram = GramState::from_matrix(b.as_ref().unwrap_or(a));
    let gram_s = t.elapsed().as_secs_f64();

    let mut engine = TimedEngine::default();
    let mut strategy = TimedOrdering::default();
    let mut plan = Sweep::new();
    let mut monitor = SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default());
    let target = match (b.as_mut(), v.as_mut()) {
        (Some(b), Some(v)) => RotationTarget::full(b, v),
        _ => RotationTarget::gram_only(),
    };
    let mut state = SweepState { gram: &mut gram, target, guard: PairGuard::default() };
    let mut schedule =
        SweepSchedule { strategy: &mut strategy, plan: &mut plan, threshold: options.threshold };
    let run = driver.run_monitored(&mut engine, &mut state, &mut schedule, &mut monitor);
    if let Some(fault) = run.fault {
        return Err(format!("chain solve faulted: {}", fault.kind()));
    }

    let t = Instant::now();
    let (values, factors) = match (b, v) {
        (Some(b), Some(v)) => {
            let (u, sigma, v) = extract_factors(&b, &v, a.rows());
            (sigma, Some((u, v)))
        }
        _ => {
            let mut values = gram.singular_values_unsorted();
            values.sort_by(|x, y| y.partial_cmp(x).expect("finite values"));
            values.truncate(a.rows().min(n));
            (values, None)
        }
    };
    let extract_s = t.elapsed().as_secs_f64();
    let times = LayerTimes {
        gram: gram_s,
        plan: strategy.seconds,
        sweep: engine.seconds,
        extract: extract_s,
        total: start.elapsed().as_secs_f64(),
    };
    Ok(ChainSolve { values, factors, stats: run.stats, times })
}

/// `U = BΣ⁻¹`, `Σ` and `V` from the rotated columns, sorted by descending
/// column norm: the same arithmetic as `HestenesSvd::decompose`'s factor
/// extraction (input inside the prescale window, so nothing to unscale).
fn extract_factors(b: &Matrix, v: &Matrix, m: usize) -> (Matrix, Vec<f64>, Matrix) {
    let n = b.cols();
    let k = m.min(n);
    let norms: Vec<f64> = (0..n).map(|c| ops::norm(b.col(c))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| norms[y].partial_cmp(&norms[x]).expect("finite norms"));
    let mut u = Matrix::zeros(m, k);
    let mut sigma = Vec::with_capacity(k);
    let mut v_sorted = Matrix::zeros(n, k);
    let cutoff = norms[order[0]] * f64::EPSILON * m.max(n) as f64;
    for (t, &c) in order.iter().take(k).enumerate() {
        let s = norms[c];
        sigma.push(s);
        if s > cutoff && s > 0.0 {
            let inv = 1.0 / s;
            for (out, &x) in u.col_mut(t).iter_mut().zip(b.col(c)) {
                *out = x * inv;
            }
        }
        v_sorted.col_mut(t).copy_from_slice(v.col(c));
    }
    (u, sigma, v_sorted)
}
