//! The user-facing SVD drivers.
//!
//! [`HestenesSvd`] runs the modified Hestenes-Jacobi algorithm end to end:
//! Gram initialization (the preprocessor's job), iterated sweeps with the
//! chosen ordering and convergence rule, and the final square-root /
//! sort / normalization stage that turns the orthogonalized system into
//! `A = U Σ Vᵀ`.

use crate::convergence::{Convergence, SweepRecord, MAX_SWEEP_CAP};
use crate::engine::{
    Blocked, EngineKind, MonitoredRun, PairGuard, RotationTarget, Sequential, SolveDriver,
    SolveMonitor, SweepState,
};
use crate::gram::GramState;
use crate::ordering::{Ordering, SweepSchedule, ThresholdSchedule};
use crate::parallel::{Parallel, SweepWorkspace};
use crate::recovery::{HealthCheck, RecoveryAction, RecoveryContext, RecoveryPolicy, SolveBudget};
use crate::stats::SolveStats;
use crate::trace::{emit_to, TraceEvent, TraceLevel, TraceSink};
use crate::SvdError;
use hj_matrix::{ops, Matrix};

/// Relative tolerance for the wide-matrix truncated-tail check: the
/// discarded spectrum mass (sum of discarded `σ²`) must stay below this
/// fraction of `trace(D) = ‖A‖_F²`. Converged solves leave only Gram-noise
/// dust in the tail (≈ `n·ε·trace ≈ 1e-14·trace`), while an unconverged
/// spectrum parks O(1) fractions of the mass there — `1e-12` separates the
/// two regimes by orders of magnitude on both sides.
pub(crate) const WIDE_TAIL_TOL: f64 = 1e-12;

/// Guarded-numerics safe window: inputs whose largest-entry binary exponent
/// `e` satisfies `|e| ≤ SAFE_EXP` are solved as-is, so ordinary inputs
/// compute the exact same bits as before the guard existed. Outside the
/// window, the input is pre-multiplied by the power of two `2^-e` — an
/// exact operation, exactly undone on the singular values at output.
///
/// The bound is set by the *fourth* power of the input scale, not the
/// second: Gram entries are squares of the input (`2^2e`), and the
/// off-diagonal Frobenius accumulation squares those again (`2^4e`), so
/// `4·e` plus dimension headroom must stay under the f64 exponent limit of
/// 1024. `e = 250` (inputs up to ~1e75) leaves two decades of margin.
const SAFE_EXP: i32 = 250;

/// Above this magnitude the scale factor `2^k` itself leaves the normal
/// range, so the scaling is applied in two exact half-steps.
const EXP2_STEP_LIMIT: i32 = 900;

/// The injector slot threaded through the guarded solve. Without the
/// `fault-injection` feature the alias degenerates to an uninhabited option,
/// so the production call sites pass `None` and the whole hook folds away.
#[cfg(feature = "fault-injection")]
type InjectorSlot<'a> = Option<&'a mut dyn crate::inject::FaultInjector>;
#[cfg(not(feature = "fault-injection"))]
type InjectorSlot<'a> = Option<std::convert::Infallible>;

/// Binary exponent of `max_abs` (0 for zero or non-finite input).
fn max_exponent(max_abs: f64) -> i32 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs.log2().floor() as i32
    } else {
        0
    }
}

/// Pre-scaling exponent for an input whose largest entry has binary
/// exponent `e`: 0 inside the safe window (bit-preserving fast path),
/// `-e` outside it (normalizing the largest entry to `[1, 2)`).
pub(crate) fn prescale_exponent(max_abs: f64) -> i32 {
    let e = max_exponent(max_abs);
    if e.abs() <= SAFE_EXP {
        0
    } else {
        -e
    }
}

/// Unconditional normalizing exponent (the rescale-and-restart recovery
/// action): always bring the largest entry to `[1, 2)` for maximum headroom.
fn forced_exponent(max_abs: f64) -> i32 {
    -max_exponent(max_abs)
}

/// Multiply every entry by `2^k`, exactly (split into two half-steps when
/// `2^k` itself would be subnormal or infinite).
pub(crate) fn apply_exp2(m: &mut Matrix, k: i32) {
    if k == 0 {
        return;
    }
    if k.abs() > EXP2_STEP_LIMIT {
        let half = k / 2;
        m.scale_in_place(2.0f64.powi(half));
        m.scale_in_place(2.0f64.powi(k - half));
    } else {
        m.scale_in_place(2.0f64.powi(k));
    }
}

/// Undo the pre-scaling on computed singular values: `σ ← σ·2^-k` (two
/// exact half-steps when needed, mirroring [`apply_exp2`]).
pub(crate) fn unscale_values(values: &mut [f64], k: i32) {
    if k == 0 {
        return;
    }
    let mut steps = [0i32; 2];
    if k.abs() > EXP2_STEP_LIMIT {
        steps = [-(k / 2), -(k - k / 2)];
    } else {
        steps[0] = -k;
    }
    for s in steps {
        if s != 0 {
            let f = 2.0f64.powi(s);
            for v in values.iter_mut() {
                *v *= f;
            }
        }
    }
}

/// Configuration for a Hestenes-Jacobi decomposition.
///
/// All fields have useful defaults; override selectively with struct-update
/// syntax:
///
/// ```
/// use hj_core::{EngineKind, HestenesSvd, SvdOptions, TraceLevel};
/// use hj_matrix::gen;
///
/// let options = SvdOptions {
///     engine: EngineKind::Blocked,
///     trace: TraceLevel::Sweep,
///     ..Default::default()
/// };
/// let svd = HestenesSvd::new(options).decompose(&gen::uniform(30, 8, 1)).unwrap();
/// assert_eq!(svd.stats.engine, "blocked");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvdOptions {
    /// Stopping rule. Default: scale-relative covariance threshold.
    pub convergence: Convergence,
    /// Hard upper bound on sweeps regardless of the stopping rule.
    /// Default: [`MAX_SWEEP_CAP`].
    pub max_sweeps: usize,
    /// Pair visiting order (see [`crate::ordering`] for the strategy
    /// catalogue). Default: round-robin (the paper's cyclic order,
    /// bit-identical to the pre-subsystem schedule).
    pub ordering: Ordering,
    /// Optional per-sweep rotation-threshold ramp, composable with any
    /// ordering. `None` (the default) keeps the standard fixed pair guard —
    /// and the bit-identical default solve path.
    pub threshold: Option<ThresholdSchedule>,
    /// Sweep engine. [`EngineKind::Parallel`] and [`EngineKind::Blocked`]
    /// require an ordering with disjoint rounds (any but
    /// [`Ordering::RowCyclic`]). Default: sequential (faithful to
    /// Algorithm 1's data flow).
    pub engine: EngineKind,
    /// Event granularity for the `*_traced` entry points
    /// ([`HestenesSvd::decompose_traced`],
    /// [`HestenesSvd::singular_values_traced`]). Ignored — and costless — on
    /// the untraced entry points, which never construct events regardless of
    /// this setting. Default: [`TraceLevel::Off`] (a traced call promotes
    /// `Off` to [`TraceLevel::Sweep`] so an explicitly-passed sink is never
    /// silently ignored).
    pub trace: TraceLevel,
}

impl Default for SvdOptions {
    fn default() -> Self {
        SvdOptions {
            convergence: Convergence::default(),
            max_sweeps: MAX_SWEEP_CAP,
            ordering: Ordering::RoundRobin,
            threshold: None,
            engine: EngineKind::Sequential,
            trace: TraceLevel::Off,
        }
    }
}

impl SvdOptions {
    /// The paper's operating point: exactly 6 sweeps, cyclic order.
    pub fn paper() -> Self {
        SvdOptions {
            convergence: Convergence::FixedSweeps(6),
            max_sweeps: 6,
            ordering: Ordering::RoundRobin,
            threshold: None,
            engine: EngineKind::Sequential,
            trace: TraceLevel::Off,
        }
    }

    /// The level a `*_traced` entry point runs at: the configured level,
    /// with [`TraceLevel::Off`] promoted to [`TraceLevel::Sweep`].
    fn effective_trace_level(&self) -> TraceLevel {
        if self.trace == TraceLevel::Off {
            TraceLevel::Sweep
        } else {
            self.trace
        }
    }
}

/// A computed thin SVD `A ≈ U Σ Vᵀ` with diagnostics.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × k` with `k = min(m, n)`. Columns whose
    /// singular value is (numerically) zero are zero columns — see
    /// [`Svd::rank`].
    pub u: Matrix,
    /// Singular values, length `k`, sorted descending, non-negative.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `n × k`.
    pub v: Matrix,
    /// Number of sweeps executed.
    pub sweeps: usize,
    /// Per-sweep convergence measurements.
    pub history: Vec<SweepRecord>,
    /// Solve-level observability (timings, allocations, Gram traffic).
    pub stats: SolveStats,
}

impl Svd {
    /// Numerical rank: number of singular values above
    /// `tol · max(m, n) · σ_max` (the LAPACK default rank rule).
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.singular_values.first().copied().unwrap_or(0.0);
        let (m, _) = self.u.shape();
        let n = self.v.rows();
        let cutoff = tol * m.max(n) as f64 * smax;
        self.singular_values.iter().take_while(|&&s| s > cutoff).count()
    }

    /// Reconstruct the rank-`r` truncation `A_r = U_r Σ_r V_rᵀ` — the
    /// dimensionality-reduction primitive behind the paper's PCA motivation.
    pub fn truncated(&self, r: usize) -> Matrix {
        let r = r.min(self.singular_values.len());
        let (m, _) = self.u.shape();
        let n = self.v.rows();
        let mut out = Matrix::zeros(m, n);
        for t in 0..r {
            let s = self.singular_values[t];
            if s == 0.0 {
                break;
            }
            let ut = self.u.col(t);
            for c in 0..n {
                let w = s * self.v.get(c, t);
                ops::axpy(w, ut, out.col_mut(c));
            }
        }
        out
    }
}

/// Result of the values-only driver.
#[derive(Debug, Clone)]
pub struct SingularValues {
    /// Singular values, length `min(m, n)`, sorted descending.
    pub values: Vec<f64>,
    /// Number of sweeps executed.
    pub sweeps: usize,
    /// Per-sweep convergence measurements.
    pub history: Vec<SweepRecord>,
    /// Solve-level observability (timings, allocations, Gram traffic).
    pub stats: SolveStats,
}

/// The Hestenes-Jacobi SVD solver.
///
/// ```
/// use hj_core::{HestenesSvd, SvdOptions};
/// use hj_matrix::{gen, norms};
///
/// let a = gen::uniform(40, 10, 7);
/// let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
/// let err = norms::reconstruction_error(&a, &svd.u, &svd.singular_values, &svd.v);
/// assert!(err < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HestenesSvd {
    options: SvdOptions,
    budget: SolveBudget,
    policy: RecoveryPolicy,
    health: HealthCheck,
}

impl HestenesSvd {
    /// Create a solver with the given options, an unlimited
    /// [`SolveBudget`], and the default [`RecoveryPolicy`] / [`HealthCheck`].
    pub fn new(options: SvdOptions) -> Self {
        HestenesSvd {
            options,
            budget: SolveBudget::unlimited(),
            policy: RecoveryPolicy::default(),
            health: HealthCheck::default(),
        }
    }

    /// The active options.
    pub fn options(&self) -> &SvdOptions {
        &self.options
    }

    /// The active solve budget (the batch engine checks it at shared sweep
    /// boundaries).
    pub(crate) fn budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// The active health check (the batch engine runs its per-lane analogue
    /// with the same thresholds).
    pub(crate) fn health(&self) -> &HealthCheck {
        &self.health
    }

    /// Bound worst-case latency: the budget's deadline/cancellation flag is
    /// checked at every sweep boundary of every solve this solver runs.
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replace the recovery policy (e.g. [`RecoveryPolicy::abort_only`] to
    /// fail fast instead of self-healing).
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the per-sweep health check (e.g. [`HealthCheck::disabled`]
    /// to run the unguarded PR-2 pipeline).
    pub fn with_health_check(mut self, health: HealthCheck) -> Self {
        self.health = health;
        self
    }

    /// Check `a` and the options, returning `a`'s largest absolute entry
    /// (the prescale input) from the same pass that rejects non-finite
    /// input.
    pub(crate) fn validate(&self, a: &Matrix) -> Result<f64, SvdError> {
        if a.is_empty() {
            return Err(SvdError::EmptyInput);
        }
        let max_abs = a.finite_max_abs().ok_or(SvdError::NonFiniteInput)?;
        if self.options.engine != EngineKind::Sequential
            && self.options.ordering == Ordering::RowCyclic
        {
            // Parallel/blocked engines consume rounds of disjoint pairs;
            // row-cyclic's one-pair rounds defeat them. Every other ordering
            // (cyclic, greedy, presort) produces legal disjoint rounds.
            return Err(SvdError::EngineNeedsRoundRobin);
        }
        if self.options.max_sweeps == 0 {
            return Err(SvdError::ZeroSweepBudget);
        }
        Ok(max_abs)
    }

    /// Compute only the singular values — the paper-faithful mode.
    ///
    /// Column data are read once (to form `D = AᵀA`); every subsequent sweep
    /// operates on `D` alone, exactly as the hardware does after
    /// reconfiguring the preprocessor into update kernels.
    ///
    /// ```
    /// use hj_core::{HestenesSvd, SvdOptions};
    /// use hj_matrix::gen;
    ///
    /// let a = gen::with_singular_values(30, 3, &[4.0, 2.0, 1.0], 5);
    /// let sv = HestenesSvd::new(SvdOptions::paper()).singular_values(&a).unwrap();
    /// assert_eq!(sv.sweeps, 6);                       // the paper's fixed budget
    /// assert!((sv.values[0] - 4.0).abs() < 1e-9);
    /// ```
    pub fn singular_values(&self, a: &Matrix) -> Result<SingularValues, SvdError> {
        let mut ws = SweepWorkspace::new();
        self.singular_values_with_workspace(a, &mut ws)
    }

    /// [`Self::singular_values`] over caller-owned scratch. Reusing a warm
    /// workspace across solves (e.g. from a [`crate::batch::WorkspacePool`])
    /// skips the warm-up allocations of the parallel and blocked engines;
    /// results are bit-identical either way.
    pub fn singular_values_with_workspace(
        &self,
        a: &Matrix,
        ws: &mut SweepWorkspace,
    ) -> Result<SingularValues, SvdError> {
        let max_abs = self.validate(a)?;
        let solved = self.solve_guarded(a, max_abs, ws, false, None, None)?;
        self.finish_values(a, solved)
    }

    /// [`Self::singular_values`] with every solve event streamed into
    /// `sink` at the granularity of [`SvdOptions::trace`] ([`TraceLevel::Off`]
    /// is promoted to [`TraceLevel::Sweep`]). Results are bit-identical to
    /// the untraced call — events observe, never influence.
    ///
    /// ```
    /// use hj_core::{HestenesSvd, RingBufferSink, SvdOptions};
    /// use hj_matrix::gen;
    ///
    /// let a = gen::uniform(40, 10, 3);
    /// let mut sink = RingBufferSink::new(1024);
    /// let solver = HestenesSvd::new(SvdOptions::default());
    /// let sv = solver.singular_values_traced(&a, &mut sink).unwrap();
    /// let untraced = solver.singular_values(&a).unwrap();
    /// assert_eq!(sv.values, untraced.values);
    /// assert!(sink.recorded() >= 2 * sv.sweeps, "start + end per sweep");
    /// ```
    pub fn singular_values_traced(
        &self,
        a: &Matrix,
        sink: &mut dyn TraceSink,
    ) -> Result<SingularValues, SvdError> {
        let max_abs = self.validate(a)?;
        let mut ws = SweepWorkspace::new();
        let solved = self.solve_guarded(a, max_abs, &mut ws, false, None, Some(sink))?;
        self.finish_values(a, solved)
    }

    /// [`Self::singular_values`] with a fault injector attached (robustness
    /// test harness only — the method does not exist in production builds).
    #[cfg(feature = "fault-injection")]
    pub fn singular_values_injected(
        &self,
        a: &Matrix,
        ws: &mut SweepWorkspace,
        injector: &mut dyn crate::inject::FaultInjector,
    ) -> Result<SingularValues, SvdError> {
        let max_abs = self.validate(a)?;
        let solved = self.solve_guarded(a, max_abs, ws, false, Some(injector), None)?;
        self.finish_values(a, solved)
    }

    /// Run the guarded solve loop: pre-scale out-of-window inputs, run the
    /// monitored driver on the configured engine, and — when the monitor
    /// detects a [`crate::recovery::Fault`] — apply the recovery policy
    /// (rescale-and-restart / engine fallback / budget escalation) until the
    /// solve succeeds or the policy aborts.
    ///
    /// Every restart rebuilds `D` (and `B`, `V` in full mode) from the
    /// pristine input `a`, so no corrupted intermediate state survives a
    /// recovery. The final stats carry the last attempt's counters plus the
    /// cumulative `faults`/`recoveries`/`prescale_exp` accounting.
    /// `max_abs` is `a`'s largest absolute entry, as [`Self::validate`]
    /// returned it.
    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    fn solve_guarded<'a>(
        &self,
        a: &Matrix,
        max_abs: f64,
        ws: &mut SweepWorkspace,
        full: bool,
        injector: InjectorSlot<'a>,
        trace: Option<&'a mut dyn TraceSink>,
    ) -> Result<GuardedSolve, SvdError> {
        let n = a.cols();
        // One monitor serves every attempt (run_monitored resets its own
        // per-attempt detector state); the injector moves in once and keeps
        // its one-shot bookkeeping across restarts, and the trace sink sees
        // every attempt's events plus the recovery decisions between them.
        let mut monitor = SolveMonitor::new(self.budget.clone(), self.health);
        if let Some(sink) = trace {
            monitor = monitor.with_trace(sink, self.options.effective_trace_level());
        }
        #[cfg(feature = "fault-injection")]
        {
            monitor.injector = injector;
        }
        let mut exp = prescale_exponent(max_abs);
        let mut engine = self.options.engine;
        let mut ordering = self.options.ordering;
        let mut max_sweeps = self.options.max_sweeps.min(MAX_SWEEP_CAP);
        let mut rescaled = exp != 0;
        let mut escalated = false;
        let mut ordering_fell_back = false;
        let mut recoveries = 0usize;
        let mut total_faults = 0usize;
        let mut cumulative_sweeps = 0usize;
        // Strategy + plan scratch pooled in the workspace: repeated solves
        // over a warm workspace replan without reallocating.
        let mut plan_buffers = ws.take_plan_buffers();
        loop {
            let presort = ordering == Ordering::ColumnNormPresort;
            // Build this attempt's working state from the pristine input.
            let (mut gram, mut b, mut v) = if full {
                let mut b = a.clone();
                apply_exp2(&mut b, exp);
                if presort {
                    // de Rijk presort: permute the working columns into
                    // descending-norm order and fold the permutation into
                    // V's starting value (B = A·V holds from sweep 0, so no
                    // undo pass is needed on output).
                    let perm = presort_permutation(&b);
                    let b = permuted_columns(&b, &perm);
                    let mut v = Matrix::zeros(n, n);
                    for (t, &c) in perm.iter().enumerate() {
                        v.set(c, t, 1.0);
                    }
                    let gram = GramState::from_matrix(&b);
                    (gram, Some(b), Some(v))
                } else {
                    let gram = GramState::from_matrix(&b);
                    (gram, Some(b), Some(Matrix::identity(n)))
                }
            } else if presort {
                // Values-only: the spectrum is permutation-invariant, so the
                // presorted Gram needs no bookkeeping at all.
                let mut scaled = a.clone();
                apply_exp2(&mut scaled, exp);
                let perm = presort_permutation(&scaled);
                (GramState::from_matrix(&permuted_columns(&scaled, &perm)), None, None)
            } else if exp == 0 {
                // Values-only fast path: D is built straight off the caller's
                // matrix, no clone.
                (GramState::from_matrix(a), None, None)
            } else {
                let mut scaled = a.clone();
                apply_exp2(&mut scaled, exp);
                (GramState::from_matrix(&scaled), None, None)
            };
            let driver = SolveDriver { convergence: self.options.convergence, max_sweeps };
            let target = match (b.as_mut(), v.as_mut()) {
                (Some(b), Some(v)) => RotationTarget::full(b, v),
                _ => RotationTarget::gram_only(),
            };
            let mut state = SweepState { gram: &mut gram, target, guard: PairGuard::default() };
            let (strategy, plan) = plan_buffers.schedule_parts(ordering);
            let mut schedule = SweepSchedule { strategy, plan, threshold: self.options.threshold };
            let run: MonitoredRun = match engine {
                EngineKind::Sequential => {
                    driver.run_monitored(&mut Sequential, &mut state, &mut schedule, &mut monitor)
                }
                EngineKind::Parallel => driver.run_monitored(
                    &mut Parallel::new(ws),
                    &mut state,
                    &mut schedule,
                    &mut monitor,
                ),
                EngineKind::Blocked => driver.run_monitored(
                    &mut Blocked::for_dim(ws, n),
                    &mut state,
                    &mut schedule,
                    &mut monitor,
                ),
            };
            cumulative_sweeps += run.stats.sweeps;
            total_faults += run.stats.faults;
            let Some(fault) = run.fault else {
                let mut stats = run.stats;
                stats.faults = total_faults;
                stats.recoveries = recoveries;
                stats.prescale_exp = exp;
                ws.put_plan_buffers(plan_buffers);
                return Ok(GuardedSolve {
                    gram,
                    b,
                    v,
                    history: run.history,
                    stats,
                    scale_exp: exp,
                });
            };
            let ctx = RecoveryContext {
                engine,
                rescaled,
                escalated,
                can_escalate: max_sweeps < MAX_SWEEP_CAP,
                adaptive_ordering: ordering.adaptive(),
                ordering_fell_back,
                recoveries,
            };
            let action = self.policy.action_for(&fault, &ctx);
            emit_to(
                &mut monitor.trace,
                monitor.trace_level,
                TraceEvent::RecoveryTriggered {
                    sweep: fault.sweep(),
                    fault: fault.kind(),
                    action: action.name(),
                    recoveries,
                },
            );
            match action {
                RecoveryAction::Abort => {
                    ws.put_plan_buffers(plan_buffers);
                    return Err(SvdError::SolveFault {
                        fault,
                        sweeps_completed: cumulative_sweeps,
                        recoveries,
                    });
                }
                RecoveryAction::RescaleRestart => {
                    exp = forced_exponent(max_abs);
                    rescaled = true;
                }
                RecoveryAction::FallBackToSequential => engine = EngineKind::Sequential,
                RecoveryAction::EscalateBudget => {
                    max_sweeps = (max_sweeps * 2).min(MAX_SWEEP_CAP);
                    escalated = true;
                }
                RecoveryAction::FallBackToCyclic => {
                    ordering = Ordering::RoundRobin;
                    ordering_fell_back = true;
                }
            }
            recoveries += 1;
        }
    }

    /// Extract sorted singular values from a finished guarded solve (the
    /// wide-matrix tail check runs on the scaled spectrum — the ratio it
    /// tests is invariant under the uniform pre-scaling).
    fn finish_values(&self, a: &Matrix, solved: GuardedSolve) -> Result<SingularValues, SvdError> {
        let GuardedSolve { gram, history, stats, scale_exp, .. } = solved;
        let sweeps = history.len();
        let mut values = gram.singular_values_unsorted();
        values.sort_by(|x, y| y.partial_cmp(x).expect("finite values"));
        let k = a.rows().min(a.cols());
        if k < values.len() {
            // Wide matrix: the Gram spectrum has n entries but rank(A) ≤ m,
            // so the discarded n − m values must be numerically zero. If the
            // iteration hasn't converged they are not — refuse rather than
            // silently truncate real spectrum mass.
            let tail_mass: f64 = values[k..].iter().map(|s| s * s).sum();
            let trace = gram.trace();
            if trace > 0.0 && tail_mass > trace * WIDE_TAIL_TOL {
                return Err(SvdError::TruncatedTailNotNegligible);
            }
        }
        values.truncate(k);
        unscale_values(&mut values, scale_exp);
        Ok(SingularValues { values, sweeps, history, stats })
    }

    /// Compute the full thin SVD `A = U Σ Vᵀ`.
    ///
    /// Unlike the values-only mode, columns are rotated in **every** sweep
    /// (maintaining `B = A·V`) and the rotations are accumulated into `V`;
    /// afterwards `U = B·Σ⁻¹` (paper's eq. (7)).
    pub fn decompose(&self, a: &Matrix) -> Result<Svd, SvdError> {
        let mut ws = SweepWorkspace::new();
        self.decompose_with_workspace(a, &mut ws)
    }

    /// [`Self::decompose`] over caller-owned scratch. Reusing a warm
    /// workspace across solves (e.g. from a [`crate::batch::WorkspacePool`])
    /// skips the warm-up allocations of the parallel and blocked engines;
    /// results are bit-identical either way.
    pub fn decompose_with_workspace(
        &self,
        a: &Matrix,
        ws: &mut SweepWorkspace,
    ) -> Result<Svd, SvdError> {
        let max_abs = self.validate(a)?;
        let solved = self.solve_guarded(a, max_abs, ws, true, None, None)?;
        self.finish_decompose(a, solved)
    }

    /// [`Self::decompose`] with every solve event streamed into `sink` at
    /// the granularity of [`SvdOptions::trace`] ([`TraceLevel::Off`] is
    /// promoted to [`TraceLevel::Sweep`]). Results are bit-identical to the
    /// untraced call — events observe, never influence.
    ///
    /// ```
    /// use hj_core::{HestenesSvd, JsonlSink, SvdOptions};
    /// use hj_matrix::gen;
    ///
    /// let a = gen::uniform(30, 8, 11);
    /// let mut sink = JsonlSink::new(Vec::new());
    /// let svd = HestenesSvd::new(SvdOptions::default())
    ///     .decompose_traced(&a, &mut sink)
    ///     .unwrap();
    /// let jsonl = String::from_utf8(sink.finish().unwrap()).unwrap();
    /// assert_eq!(jsonl.lines().filter(|l| l.contains("sweep_end")).count(), svd.sweeps);
    /// ```
    pub fn decompose_traced(&self, a: &Matrix, sink: &mut dyn TraceSink) -> Result<Svd, SvdError> {
        let max_abs = self.validate(a)?;
        let mut ws = SweepWorkspace::new();
        let solved = self.solve_guarded(a, max_abs, &mut ws, true, None, Some(sink))?;
        self.finish_decompose(a, solved)
    }

    /// [`Self::decompose`] with a fault injector attached (robustness test
    /// harness only — the method does not exist in production builds).
    #[cfg(feature = "fault-injection")]
    pub fn decompose_injected(
        &self,
        a: &Matrix,
        ws: &mut SweepWorkspace,
        injector: &mut dyn crate::inject::FaultInjector,
    ) -> Result<Svd, SvdError> {
        let max_abs = self.validate(a)?;
        let solved = self.solve_guarded(a, max_abs, ws, true, Some(injector), None)?;
        self.finish_decompose(a, solved)
    }

    /// Extract `U`, `Σ`, `V` from a finished full-mode guarded solve. The
    /// factors are computed on the scaled system — `U` and `V` are invariant
    /// under the uniform pre-scaling (the scale cancels in `U = B·Σ⁻¹`), so
    /// only `Σ` is unscaled at the end.
    fn finish_decompose(&self, a: &Matrix, solved: GuardedSolve) -> Result<Svd, SvdError> {
        let GuardedSolve { b, v, history, stats, scale_exp, .. } = solved;
        let b = b.expect("full-mode solve maintains B");
        let v = v.expect("full-mode solve accumulates V");
        let (m, n) = a.shape();
        let k = m.min(n);
        let sweeps = history.len();

        // Σ from the Gram diagonal; recompute from the actual rotated columns
        // for the final values (slightly more accurate than the updated D and
        // free: one pass over B).
        let mut order_idx: Vec<usize> = (0..n).collect();
        let col_norms: Vec<f64> = (0..n).map(|c| ops::norm(b.col(c))).collect();
        order_idx.sort_by(|&x, &y| col_norms[y].partial_cmp(&col_norms[x]).expect("finite norms"));

        let mut u = Matrix::zeros(m, k);
        let mut sigma = Vec::with_capacity(k);
        let mut v_sorted = Matrix::zeros(n, k);
        // Zero-σ cutoff: below this, B's column is numerical noise and U's
        // column is left zero (its direction is not determined by the data).
        let smax = col_norms[order_idx[0]];
        let cutoff = smax * f64::EPSILON * m.max(n) as f64;
        for (t, &c) in order_idx.iter().take(k).enumerate() {
            let s = col_norms[c];
            sigma.push(s);
            if s > cutoff && s > 0.0 {
                let inv = 1.0 / s;
                let bc = b.col(c);
                let uc = u.col_mut(t);
                for (out, &x) in uc.iter_mut().zip(bc) {
                    *out = x * inv;
                }
            }
            v_sorted.col_mut(t).copy_from_slice(v.col(c));
        }
        unscale_values(&mut sigma, scale_exp);
        Ok(Svd { u, singular_values: sigma, v: v_sorted, sweeps, history, stats })
    }
}

/// Descending-column-norm permutation for the de Rijk presort: `perm[t]` is
/// the source column holding the `t`-th largest norm (ties break by column
/// index, keeping the permutation — and the whole solve — deterministic;
/// same comparator as [`crate::ordering::column_norm_permutation`]).
fn presort_permutation(b: &Matrix) -> Vec<usize> {
    let n = b.cols();
    let norms: Vec<f64> = (0..n).map(|c| ops::norm(b.col(c))).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]).then(x.cmp(&y)));
    perm
}

/// A copy of `b` with column `t` taken from source column `perm[t]`.
fn permuted_columns(b: &Matrix, perm: &[usize]) -> Matrix {
    let (m, n) = b.shape();
    let mut out = Matrix::zeros(m, n);
    for (t, &c) in perm.iter().enumerate() {
        out.col_mut(t).copy_from_slice(b.col(c));
    }
    out
}

/// A finished guarded solve, before factor extraction: the converged `D`,
/// the rotated columns `B` and accumulated `V` (full mode only), the last
/// attempt's history/stats, and the pre-scaling exponent still baked into
/// the spectrum.
struct GuardedSolve {
    gram: GramState,
    b: Option<Matrix>,
    v: Option<Matrix>,
    history: Vec<SweepRecord>,
    stats: SolveStats,
    scale_exp: i32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hj_matrix::{gen, norms};

    fn check_svd(a: &Matrix, svd: &Svd, tol: f64) {
        let err = norms::reconstruction_error(a, &svd.u, &svd.singular_values, &svd.v);
        assert!(err < tol, "reconstruction error {err} ≥ {tol}");
        assert!(
            svd.singular_values.windows(2).all(|w| w[0] >= w[1]),
            "singular values must be sorted descending: {:?}",
            svd.singular_values
        );
        assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn decompose_random_tall() {
        let a = gen::uniform(50, 12, 42);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        check_svd(&a, &svd, 1e-12);
        assert!(norms::orthonormality_error(&svd.u) < 1e-12);
        assert!(norms::orthonormality_error(&svd.v) < 1e-12);
    }

    #[test]
    fn decompose_square() {
        let a = gen::uniform(16, 16, 1);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        check_svd(&a, &svd, 1e-12);
    }

    #[test]
    fn decompose_wide_matrix() {
        // m < n: rank ≤ m, the trailing n−m implicit values are ~0 and the
        // thin factors have k = m columns.
        let a = gen::uniform(6, 20, 5);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert_eq!(svd.singular_values.len(), 6);
        assert_eq!(svd.u.shape(), (6, 6));
        assert_eq!(svd.v.shape(), (20, 6));
        check_svd(&a, &svd, 1e-11);
    }

    #[test]
    fn known_spectrum_is_recovered() {
        let sigma = [10.0, 5.0, 1.0, 0.1];
        let a = gen::with_singular_values(30, 4, &sigma, 77);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        for (got, want) in svd.singular_values.iter().zip(&sigma) {
            assert!(
                (got - want).abs() < 1e-12 * want.max(1.0),
                "singular value {got} vs expected {want}"
            );
        }
    }

    #[test]
    fn values_only_matches_decompose() {
        let a = gen::uniform(25, 10, 13);
        let solver = HestenesSvd::new(SvdOptions::default());
        let sv = solver.singular_values(&a).unwrap();
        let svd = solver.decompose(&a).unwrap();
        for (x, y) in sv.values.iter().zip(&svd.singular_values) {
            assert!((x - y).abs() < 1e-10 * x.max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn rank_deficient_input() {
        let a = gen::rank_deficient(20, 8, 3, 3);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        check_svd(&a, &svd, 1e-11);
        assert_eq!(svd.rank(f64::EPSILON), 3);
        // Zero singular values land at the tail.
        assert!(svd.singular_values[3] < 1e-12);
    }

    #[test]
    fn paper_options_run_exactly_six_sweeps() {
        let a = gen::uniform(64, 32, 8);
        let sv = HestenesSvd::new(SvdOptions::paper()).singular_values(&a).unwrap();
        assert_eq!(sv.sweeps, 6);
        assert_eq!(sv.history.len(), 6);
        // ... and six sweeps reach "reasonable convergence" on this size
        // (the paper's claim): covariance mass down by ≥ 7 orders.
        let last = sv.history.last().unwrap();
        assert!(last.mean_abs_cov < 1e-7 * sv.history[0].mean_abs_cov.max(1.0));
    }

    #[test]
    fn history_is_monotonically_converging() {
        let a = gen::uniform(40, 16, 4);
        let sv = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
        for w in sv.history.windows(2) {
            assert!(
                w[1].off_frobenius <= w[0].off_frobenius * (1.0 + 1e-12),
                "off(D) must not grow between sweeps: {w:?}"
            );
        }
    }

    #[test]
    fn truncated_reconstruction_improves_with_rank() {
        let a = gen::with_singular_values(20, 6, &[8.0, 4.0, 2.0, 1.0, 0.5, 0.25], 31);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        let mut prev = f64::INFINITY;
        for r in 1..=6 {
            let ar = svd.truncated(r);
            let err = norms::frobenius(&a.sub(&ar).unwrap());
            assert!(err < prev + 1e-12, "rank-{r} error {err} worse than rank-{} {prev}", r - 1);
            prev = err;
        }
        assert!(prev < 1e-10, "full-rank truncation must reconstruct A");
    }

    #[test]
    fn empty_and_nonfinite_inputs_error() {
        let solver = HestenesSvd::new(SvdOptions::default());
        assert!(matches!(solver.decompose(&Matrix::zeros(0, 4)), Err(SvdError::EmptyInput)));
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, f64::NAN);
        assert!(matches!(solver.decompose(&a), Err(SvdError::NonFiniteInput)));
        a.set(0, 0, f64::INFINITY);
        assert!(matches!(solver.singular_values(&a), Err(SvdError::NonFiniteInput)));
    }

    #[test]
    fn zero_matrix_decomposes() {
        let a = Matrix::zeros(5, 3);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert!(svd.singular_values.iter().all(|&s| s == 0.0));
        check_svd(&a, &svd, 1e-12);
    }

    #[test]
    fn single_column_matrix() {
        let a = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert!((svd.singular_values[0] - 5.0).abs() < 1e-12);
        check_svd(&a, &svd, 1e-14);
    }

    #[test]
    fn hilbert_matrix_high_relative_accuracy() {
        // One-sided Jacobi's signature property (Drmač): tiny singular values
        // of an ill-conditioned matrix computed to high relative accuracy.
        let h = gen::hilbert(8);
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&h).unwrap();
        check_svd(&h, &svd, 1e-10);
        // κ(H₈) ≈ 1.5e10; the smallest σ is ~1e-10 and must be positive.
        assert!(svd.singular_values[7] > 0.0);
        assert!(svd.singular_values[0] / svd.singular_values[7] > 1e9);
    }

    #[test]
    fn stats_are_populated_in_all_engines() {
        let a = gen::uniform(30, 10, 77);
        for engine in [EngineKind::Sequential, EngineKind::Parallel, EngineKind::Blocked] {
            let opts = SvdOptions { engine, ..Default::default() };
            let svd = HestenesSvd::new(opts).decompose(&a).unwrap();
            assert_eq!(svd.stats.engine, engine.name());
            assert_eq!(svd.stats.sweeps, svd.sweeps);
            assert_eq!(svd.stats.sweep_seconds.len(), svd.sweeps);
            assert_eq!(
                svd.stats.rotations_applied,
                svd.history.iter().map(|r| r.rotations_applied).sum::<usize>()
            );
            assert!(svd.stats.gram_bytes > 0, "rotations imply Gram traffic");
            assert!(svd.stats.threads >= 1);
            match engine {
                EngineKind::Sequential => {
                    assert_eq!(svd.stats.workspace_allocations, 0);
                    assert_eq!(svd.stats.parallel_dispatches, 0);
                }
                EngineKind::Parallel => {
                    if svd.stats.threads == 1 {
                        // Sequential fallback: no workspace, no dispatches.
                        assert_eq!(svd.stats.workspace_allocations, 0);
                        assert_eq!(svd.stats.parallel_dispatches, 0);
                    } else {
                        assert!(svd.stats.workspace_allocations > 0, "warm-up allocates");
                    }
                }
                EngineKind::Blocked => {
                    // n = 10 fits one `for_dim` tile: the in-place fast
                    // path never stages or grows the workspace.
                    assert_eq!(svd.stats.workspace_allocations, 0);
                    assert_eq!(svd.stats.tile_refills, 0);
                    assert_eq!(svd.stats.parallel_dispatches, 0);
                    assert_eq!(svd.stats.threads, 1);
                }
            }
            let sv = HestenesSvd::new(opts).singular_values(&a).unwrap();
            assert_eq!(sv.stats.sweeps, sv.sweeps);
            assert!(sv.stats.to_json().contains("\"sweeps\""));
            assert!(sv.stats.to_json().contains(engine.name()));
        }
    }

    #[test]
    fn warm_workspace_solves_are_bit_identical_and_allocation_free() {
        let a = gen::uniform(30, 10, 78);
        for engine in [EngineKind::Parallel, EngineKind::Blocked] {
            let solver = HestenesSvd::new(SvdOptions { engine, ..Default::default() });
            let cold = solver.decompose(&a).unwrap();
            let mut ws = SweepWorkspace::new();
            let first = solver.decompose_with_workspace(&a, &mut ws).unwrap();
            let warm = solver.decompose_with_workspace(&a, &mut ws).unwrap();
            // At n = 10 the blocked engine takes the single-tile fast path
            // (no staging at all), and the parallel engine either falls back
            // to the sequential kernels (one-thread pool; workspace untouched)
            // or pays the documented bounded buffer exchange (fresh `B`/`V`
            // buffers swap through the column back buffer) per solve — never
            // more, and never growing on a warm same-shape solve.
            let bound = if engine == EngineKind::Parallel { 2 } else { 0 };
            assert!(
                warm.stats.workspace_allocations <= bound,
                "{engine:?}: warm solve allocated {} times (bound {bound})",
                warm.stats.workspace_allocations
            );
            assert!(warm.stats.workspace_allocations <= first.stats.workspace_allocations);
            for (x, y) in cold.singular_values.iter().zip(&warm.singular_values) {
                assert_eq!(x, y, "{engine:?}: pooled workspace changed the result");
            }
            assert_eq!(cold.u.as_slice(), warm.u.as_slice());
            assert_eq!(cold.v.as_slice(), warm.v.as_slice());
        }
    }

    #[test]
    fn wide_values_only_truncates_only_numerically_zero_tail() {
        // 6×20: the Gram spectrum has 20 entries, 14 of which must be dust.
        let a = gen::uniform(6, 20, 5);
        let solver = HestenesSvd::new(SvdOptions::default());
        let sv = solver.singular_values(&a).unwrap();
        assert_eq!(sv.values.len(), 6);
        let svd = solver.decompose(&a).unwrap();
        for (x, y) in sv.values.iter().zip(&svd.singular_values) {
            assert!((x - y).abs() < 1e-10 * x.max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn wide_values_only_rejects_unconverged_truncation() {
        // One sweep is nowhere near convergence for 6×20, so the 14 discarded
        // diagonal entries still carry real spectrum mass → hard error, not
        // silently wrong values.
        let a = gen::uniform(6, 20, 5);
        let opts = SvdOptions {
            convergence: Convergence::FixedSweeps(1),
            max_sweeps: 1,
            ..Default::default()
        };
        assert!(matches!(
            HestenesSvd::new(opts).singular_values(&a),
            Err(SvdError::TruncatedTailNotNegligible)
        ));
        // Tall inputs never truncate, so a single sweep still returns Ok.
        let tall = gen::uniform(20, 6, 5);
        assert!(HestenesSvd::new(opts).singular_values(&tall).is_ok());
    }

    #[test]
    fn finite_input_with_overflowing_gram_solves_via_prescaling() {
        // Entries ~1e160 are finite, but squaring them (the Gram build)
        // overflows f64 — the exact hole the guarded-numerics pass closes.
        // σ(c·A) = c·σ(A) for c > 0, so the guarded solve of the huge matrix
        // must match the plain solve of the ordinary one, rescaled.
        let base = gen::uniform(20, 6, 41);
        let huge = base.scaled(1e160);
        assert!(huge.as_slice().iter().all(|v| v.is_finite()), "input itself is finite");
        let solver = HestenesSvd::new(SvdOptions::default());
        let clean = solver.decompose(&base).unwrap();

        for engine in [EngineKind::Sequential, EngineKind::Parallel, EngineKind::Blocked] {
            let solver = HestenesSvd::new(SvdOptions { engine, ..Default::default() });
            let svd = solver.decompose(&huge).unwrap();
            assert_ne!(svd.stats.prescale_exp, 0, "{engine:?}: guard must have engaged");
            assert_eq!(svd.stats.faults, 0);
            assert!(svd.singular_values.iter().all(|s| s.is_finite()));
            assert!(svd.u.as_slice().iter().all(|v| v.is_finite()));
            for (got, want) in svd.singular_values.iter().zip(&clean.singular_values) {
                let scaled = want * 1e160;
                assert!(
                    (got - scaled).abs() <= 1e-10 * clean.singular_values[0] * 1e160,
                    "{engine:?}: σ {got:e} vs expected {scaled:e}"
                );
            }
            let sv = solver.singular_values(&huge).unwrap();
            assert_ne!(sv.stats.prescale_exp, 0);
            for (x, y) in sv.values.iter().zip(&svd.singular_values) {
                assert!((x - y).abs() <= 1e-10 * svd.singular_values[0], "{x:e} vs {y:e}");
            }
        }
    }

    #[test]
    fn tiny_input_with_underflowing_gram_solves_via_prescaling() {
        // Entries ~1e-170: every Gram entry (~1e-340) underflows to zero
        // without the guard, silently reporting an all-zero spectrum.
        let base = gen::uniform(15, 5, 42);
        let tiny = base.scaled(1e-170);
        let clean = HestenesSvd::new(SvdOptions::default()).decompose(&base).unwrap();
        let svd = HestenesSvd::new(SvdOptions::default()).decompose(&tiny).unwrap();
        assert_ne!(svd.stats.prescale_exp, 0);
        assert!(svd.singular_values[0] > 0.0, "spectrum must not underflow to zero");
        for (got, want) in svd.singular_values.iter().zip(&clean.singular_values) {
            let scaled = want * 1e-170;
            assert!(
                (got - scaled).abs() <= 1e-10 * clean.singular_values[0] * 1e-170,
                "σ {got:e} vs expected {scaled:e}"
            );
        }
    }

    #[test]
    fn prescaling_is_inactive_inside_the_safe_window() {
        // Ordinary inputs (anything within ±250 binary orders, ~1e±75) take
        // the bit-preserving fast path: no scaling, prescale_exp = 0.
        for scale in [1.0, 1e-70, 1e70] {
            let a = gen::uniform(12, 4, 9).scaled(scale);
            let svd = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
            assert_eq!(svd.stats.prescale_exp, 0, "scale {scale:e}");
            assert_eq!(svd.stats.faults, 0);
            assert_eq!(svd.stats.recoveries, 0);
        }
    }

    #[test]
    fn expired_budget_surfaces_a_structured_solve_fault() {
        use crate::recovery::Fault;
        use std::time::{Duration, Instant};
        let a = gen::uniform(20, 8, 17);
        let solver = HestenesSvd::new(SvdOptions::default())
            .with_budget(SolveBudget::with_deadline(Instant::now() - Duration::from_millis(1)));
        match solver.decompose(&a) {
            Err(SvdError::SolveFault { fault, sweeps_completed, recoveries }) => {
                assert_eq!(fault, Fault::DeadlineExceeded { sweep: 1 });
                assert_eq!(sweeps_completed, 0);
                assert_eq!(recoveries, 0);
            }
            other => panic!("expected SolveFault, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_flag_stops_the_solve() {
        use crate::recovery::Fault;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let a = gen::uniform(20, 8, 18);
        let flag = Arc::new(AtomicBool::new(true)); // pre-cancelled
        let solver = HestenesSvd::new(SvdOptions::default())
            .with_budget(SolveBudget::unlimited().cancelled_by(flag));
        match solver.singular_values(&a) {
            Err(SvdError::SolveFault { fault, .. }) => {
                assert_eq!(fault, Fault::Cancelled { sweep: 1 });
            }
            other => panic!("expected SolveFault, got {other:?}"),
        }
    }

    #[test]
    fn invalid_option_combinations_error() {
        let a = gen::uniform(4, 4, 0);
        for engine in [EngineKind::Parallel, EngineKind::Blocked] {
            let opts = SvdOptions { engine, ordering: Ordering::RowCyclic, ..Default::default() };
            assert!(matches!(
                HestenesSvd::new(opts).decompose(&a),
                Err(SvdError::EngineNeedsRoundRobin)
            ));
            // The disjoint-round orderings are legal on every engine.
            for ordering in [Ordering::SortedGreedy, Ordering::ColumnNormPresort] {
                let opts = SvdOptions { engine, ordering, ..Default::default() };
                assert!(HestenesSvd::new(opts).decompose(&a).is_ok(), "{engine:?}/{ordering:?}");
            }
        }
        let opts = SvdOptions { ordering: Ordering::RowCyclic, ..Default::default() };
        assert!(HestenesSvd::new(opts).decompose(&a).is_ok(), "sequential allows any ordering");
        let opts = SvdOptions { max_sweeps: 0, ..Default::default() };
        assert!(matches!(HestenesSvd::new(opts).decompose(&a), Err(SvdError::ZeroSweepBudget)));
    }

    #[test]
    fn every_ordering_converges_on_every_legal_engine() {
        let a = gen::uniform(40, 12, 19);
        let reference = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        for ordering in Ordering::ALL {
            for engine in [EngineKind::Sequential, EngineKind::Parallel, EngineKind::Blocked] {
                if engine != EngineKind::Sequential && ordering == Ordering::RowCyclic {
                    continue;
                }
                let opts = SvdOptions { engine, ordering, ..Default::default() };
                let svd = HestenesSvd::new(opts).decompose(&a).unwrap();
                check_svd(&a, &svd, 1e-11);
                assert_eq!(svd.stats.ordering, ordering.name(), "{engine:?}/{ordering:?}");
                assert!(svd.stats.replans >= 1, "scheduled solves must plan at least once");
                for (x, y) in svd.singular_values.iter().zip(&reference.singular_values) {
                    assert!(
                        (x - y).abs() < 1e-10 * y.max(1.0),
                        "{engine:?}/{ordering:?}: σ {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn cyclic_ordering_is_bit_identical_to_the_default_path() {
        // The Cyclic strategy must reproduce the pre-subsystem round-robin
        // schedule exactly, so the default options' results are pinned bitwise
        // across the refactor (same rotations in the same order).
        let a = gen::uniform(36, 11, 23);
        for engine in [EngineKind::Sequential, EngineKind::Parallel, EngineKind::Blocked] {
            let opts = SvdOptions { engine, ordering: Ordering::RoundRobin, ..Default::default() };
            let one = HestenesSvd::new(opts).decompose(&a).unwrap();
            let two = HestenesSvd::new(opts).decompose(&a).unwrap();
            assert_eq!(one.singular_values, two.singular_values);
            assert_eq!(one.u.as_slice(), two.u.as_slice());
            assert_eq!(one.v.as_slice(), two.v.as_slice());
            assert_eq!(one.stats.ordering, "cyclic");
        }
    }

    #[test]
    fn presort_folds_the_permutation_into_the_factors() {
        // Columns generated in descending-norm order make the presort
        // permutation the identity: the presorted solve must then be
        // bit-identical to the cyclic solve (same data, same plan). A
        // shuffled copy of the same matrix must still reconstruct exactly.
        let sigma = [9.0, 5.0, 3.0, 1.5, 0.75, 0.2];
        let a = gen::with_singular_values(24, 6, &sigma, 55);
        let cyclic = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        let presorted = HestenesSvd::new(SvdOptions {
            ordering: Ordering::ColumnNormPresort,
            ..Default::default()
        })
        .decompose(&a)
        .unwrap();
        check_svd(&a, &presorted, 1e-12);
        assert_eq!(presorted.stats.ordering, "presort");
        for (x, y) in presorted.singular_values.iter().zip(&cyclic.singular_values) {
            assert!((x - y).abs() < 1e-12 * y.max(1.0), "{x} vs {y}");
        }
        // U/V round-trip: the permutation is folded into V, so U·Σ·Vᵀ
        // reconstructs A without any undo pass, and V stays orthonormal.
        assert!(norms::orthonormality_error(&presorted.u) < 1e-12);
        assert!(norms::orthonormality_error(&presorted.v) < 1e-12);
    }

    #[test]
    fn threshold_schedule_converges_and_reports_skips() {
        let a = gen::uniform(48, 16, 29);
        let opts =
            SvdOptions { threshold: Some(ThresholdSchedule::default()), ..Default::default() };
        let svd = HestenesSvd::new(opts).decompose(&a).unwrap();
        check_svd(&a, &svd, 1e-11);
        assert!(
            svd.stats.pairs_skipped_by_threshold > 0,
            "the early coarse sweeps must defer some pairs"
        );
        // The default path must not carry threshold accounting.
        let plain = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        assert_eq!(plain.stats.pairs_skipped_by_threshold, 0);
    }
}
