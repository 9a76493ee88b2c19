//! The unified sweep-execution pipeline: one driver loop, one engine.
//!
//! The paper's machine is a single pipeline with pluggable phases
//! (preprocessor → rotation → update); this module is the software mirror of
//! that structure. Every solver in the crate — [`crate::HestenesSvd`]'s
//! values-only and full drivers, [`crate::eigh`], PCA, and the batch API —
//! runs its sweeps through exactly one loop, [`SolveDriver::run`], against an
//! engine implementing [`SweepEngine`]. The crate ships one:
//! [`Sequential`], faithful to Algorithm 1's data flow on one thread, with
//! `D` (plus `V`, when accumulated) rotated in place. It works a round at a
//! time, like the paper's Jacobi rotation component (Fig. 6): for a chunk of
//! a round's disjoint pairs it first computes every rotation's parameters,
//! then applies the rotations in plan order. No rotation writes another
//! disjoint pair's `(D_ii, D_jj, D_ij)`, so this is the pair-at-a-time loop
//! bit for bit; only the parameters' divide and square-root latencies
//! overlap instead of queueing. The trait stays open so callers can wrap it
//! (a timing or counting engine around [`Sequential`]). Parallelism across
//! cores comes from running independent problems side by side — the SoA
//! batch engine ([`crate::batch_engine`]) and the batch API's fan-out — not
//! from synchronized rounds within one problem, whose per-round barriers
//! are the cost the paper holds against the GPU baseline.
//!
//! What gets rotated is expressed once, by [`RotationTarget`]: the Gram
//! matrix alone (values-only mode), Gram + accumulated `V` (the
//! eigensolver), or Gram + `V` with the matrix columns `B` carried along
//! (full SVD mode). Sweeps never touch `B`: the rotation parameters come
//! from `D` alone, so the driver forms `B ← B·V` once, after the sweep loop,
//! and the `m`-long columns are read once per solve instead of once per
//! rotation. Which pairs are *skipped* is expressed once too, by
//! [`PairGuard`]: the SVD drivers' relative Drmač guard or the classical
//! eigensolver's diagonal-scaled threshold.
//!
//! The driver owns the shared machinery the old per-driver loops hand-copied:
//! per-sweep wall-clock timing, [`SweepRecord`] history, convergence
//! checking, and [`SolveStats`] accounting (the engine folds its own
//! counters in via [`SweepEngine::finish`]).

use crate::convergence::{is_converged, Convergence, SweepRecord, MAX_SWEEP_CAP};
use crate::gram::GramState;
use crate::kernel::batch_params;
use crate::ordering::{Preplanned, Sweep, SweepSchedule};
use crate::recovery::{Fault, HealthCheck, HealthState, SolveBudget};
use crate::rotation::{pair_converged, Rotation};
use crate::stats::SolveStats;
use crate::sweep::{finish_record, PAIR_TOL};
use crate::trace::{SkipReason, TraceEvent, TraceLevel, TraceSink, Tracer};
use hj_matrix::Matrix;
use std::time::Instant;

/// Per-pair skip rule — decides, once per visited pair, whether the pair is
/// already numerically orthogonal and needs no rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairGuard {
    /// Skip when `|D_ij| ≤ tol·√(D_ii·D_jj)` — the Drmač guard the SVD
    /// drivers use (valid for the PSD Gram matrix).
    Relative {
        /// Relative tolerance (the drivers use [`PAIR_TOL`]).
        tol: f64,
    },
    /// Skip when `|D_ij| ≤ tol·max_k|D_kk|`, with the scale re-measured at
    /// the start of every sweep — the classical Jacobi eigensolver guard,
    /// valid for indefinite symmetric matrices (negative diagonals would make
    /// the `√(D_ii·D_jj)` guard meaningless).
    DiagonalScale {
        /// Relative tolerance against the largest |diagonal|.
        tol: f64,
    },
    /// The same `|D_ij| ≤ tol·√(D_ii·D_jj)` rule as [`PairGuard::Relative`]
    /// but with a *per-sweep* tolerance set by an active
    /// [`crate::ordering::ThresholdSchedule`] ramp — skipped pairs report
    /// [`SkipReason::ThresholdGuard`] so traces distinguish "converged"
    /// from "deferred by the ramp". Installed by the driver, not by callers.
    Threshold {
        /// This sweep's ramp tolerance (≥ [`PAIR_TOL`]).
        tol: f64,
    },
}

impl Default for PairGuard {
    /// The SVD drivers' guard: [`PairGuard::Relative`] at [`PAIR_TOL`].
    fn default() -> Self {
        PairGuard::Relative { tol: PAIR_TOL }
    }
}

impl PairGuard {
    /// Resolve the guard against the current `D` for one sweep (the
    /// diagonal-scaled rule samples `max|D_kk|` here).
    pub(crate) fn ready(&self, gram: &GramState) -> ReadyGuard {
        match *self {
            PairGuard::Relative { tol } => {
                ReadyGuard { relative: true, tol, scale: 0.0, reason: SkipReason::RelativeGuard }
            }
            PairGuard::Threshold { tol } => {
                ReadyGuard { relative: true, tol, scale: 0.0, reason: SkipReason::ThresholdGuard }
            }
            PairGuard::DiagonalScale { tol } => {
                let scale = gram.packed().diagonal().iter().fold(0.0f64, |m, &d| m.max(d.abs()));
                ReadyGuard {
                    relative: false,
                    tol,
                    scale: scale.max(f64::MIN_POSITIVE),
                    reason: SkipReason::DiagonalScaleGuard,
                }
            }
        }
    }
}

/// A [`PairGuard`] resolved for one sweep; cheap to copy.
#[derive(Clone, Copy)]
pub(crate) struct ReadyGuard {
    relative: bool,
    tol: f64,
    scale: f64,
    reason: SkipReason,
}

impl ReadyGuard {
    /// True if the pair is already orthogonal enough to skip.
    #[inline]
    pub(crate) fn skip(&self, norm_i: f64, norm_j: f64, cov: f64) -> bool {
        if self.relative {
            pair_converged(norm_i, norm_j, cov, self.tol)
        } else {
            cov.abs() <= self.tol * self.scale
        }
    }

    /// The [`SkipReason`] this guard reports for skipped pairs.
    #[inline]
    pub(crate) fn reason(&self) -> SkipReason {
        self.reason
    }
}

/// What a sweep rotates besides the maintained covariance matrix `D` —
/// the single place the Gram-only / Gram+V / full-SVD decision lives.
/// Every engine consumes this; no driver re-encodes it.
#[derive(Debug, Default)]
pub struct RotationTarget<'a> {
    /// Column data `B`, multiplied by the accumulated `V` once the sweep
    /// loop ends; `None` unless full SVD mode.
    columns: Option<&'a mut Matrix>,
    /// Accumulated right-rotation matrix `V`; `None` when singular/eigen
    /// vectors are not needed.
    v: Option<&'a mut Matrix>,
}

impl<'a> RotationTarget<'a> {
    /// Rotate `D` only — the paper-faithful values-only mode.
    pub fn gram_only() -> RotationTarget<'static> {
        RotationTarget { columns: None, v: None }
    }

    /// Full SVD mode: rotate `D`, accumulate `V`, and leave `B = B₀·V` at
    /// the end of a clean run.
    ///
    /// Precondition: `v` is the `n × n` identity on entry and `columns` has
    /// `n` columns. Sweeps rotate only `D` and `V`; [`SolveDriver::run_monitored`]
    /// then replaces `columns` (its entry value `B₀`) with `B₀·V` once, after
    /// a sweep loop that ended without a fault. On a fault `columns` is left
    /// as it came in.
    pub fn full(columns: &'a mut Matrix, v: &'a mut Matrix) -> RotationTarget<'a> {
        debug_assert_eq!(v.shape(), (columns.cols(), columns.cols()));
        RotationTarget { columns: Some(columns), v: Some(v) }
    }

    /// Rotate `D` and accumulate `V` only — the eigensolver's mode (there is
    /// no separate column matrix; `D` *is* the data).
    pub fn accumulate(v: &'a mut Matrix) -> RotationTarget<'a> {
        RotationTarget { columns: None, v: Some(v) }
    }
}

/// Everything a sweep acts on: the maintained `D`, the rotation target, and
/// the pair guard. Borrowed mutably by [`SweepEngine::sweep`] each sweep.
#[derive(Debug)]
pub struct SweepState<'a> {
    /// The maintained covariance matrix `D`.
    pub gram: &'a mut GramState,
    /// What gets rotated alongside `D`.
    pub target: RotationTarget<'a>,
    /// The per-pair skip rule.
    pub guard: PairGuard,
}

/// A sweep-execution strategy. Implementations run exactly one sweep per
/// call and report it; the surrounding loop, timing, convergence checking,
/// and stats accounting belong to [`SolveDriver`].
pub trait SweepEngine {
    /// Canonical lowercase engine name (recorded into [`SolveStats`]).
    fn name(&self) -> &'static str;

    /// Run sweep number `idx` (1-based, label only) over `state` in the
    /// given pair order, emitting [`TraceEvent`]s through `tracer` at
    /// whatever granularity its level admits. With a disabled tracer this
    /// must be bit-identical to an untraced sweep (the emission sites cost
    /// one branch each).
    fn sweep_traced(
        &mut self,
        state: &mut SweepState<'_>,
        order: &Sweep,
        idx: usize,
        tracer: &mut Tracer<'_, '_>,
    ) -> SweepRecord;

    /// Run sweep number `idx` (1-based, label only) over `state` in the
    /// given pair order, without tracing. Provided: delegates to
    /// [`SweepEngine::sweep_traced`] with a disabled tracer.
    fn sweep(&mut self, state: &mut SweepState<'_>, order: &Sweep, idx: usize) -> SweepRecord {
        self.sweep_traced(state, order, idx, &mut Tracer::disabled())
    }

    /// Fold engine-level counters (Gram traffic, `D` column touches) into
    /// `stats` once the solve's sweep loop is done. `n` is the problem
    /// dimension.
    fn finish(&mut self, stats: &mut SolveStats, n: usize);
}

/// Modeled packed-triangle bytes touched by one sequential `O(n)` rotation:
/// `4n − 2` entries (3 reads + 3 writes on the pair's own entries, then
/// 2 reads + 2 writes for each of the `n − 2` other columns) at 8 bytes.
pub(crate) fn seq_rotation_gram_bytes(n: usize) -> u64 {
    8 * (4 * n as u64).saturating_sub(2)
}

/// Pairs of one round whose rotation parameters [`Sequential`] computes
/// before applying any of them: a chunk of at most this many disjoint
/// pairs, held on the stack. At `n = 32` one chunk is a whole round; a
/// wider round is split, which only bounds how many parameter chains
/// overlap.
const ROUND_CHUNK: usize = 16;

/// The in-place round-at-a-time engine — Algorithm 1's data flow, with each
/// round's rotation parameters computed ahead of its updates. Stateless and
/// allocation-free; works with any plan of disjoint rounds.
///
/// Each round is walked in chunks of at most 16 pairs (`ROUND_CHUNK`), in
/// two passes: first every pair's `(D_ii, D_jj, D_ij)` is read, the guard
/// decides, and the live pairs' parameters come out of one
/// [`batch_params`] call; then the chunk's rotations are applied to `D` (and
/// `V`) in plan order. Rounds are pairwise disjoint, and a rotation of
/// `(i, j)` writes only `D_ii`, `D_jj`, `D_ij` and the `D_ki`, `D_kj` of
/// other columns `k` — never another disjoint pair's three inputs. So every
/// guard decision, parameter and update order is exactly the pair-at-a-time
/// loop's, bit for bit; only the parameters' latency chains now overlap,
/// like the independent rotations the paper's Fig. 6 keeps in flight.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl SweepEngine for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn sweep_traced(
        &mut self,
        state: &mut SweepState<'_>,
        order: &Sweep,
        idx: usize,
        tracer: &mut Tracer<'_, '_>,
    ) -> SweepRecord {
        let guard = state.guard.ready(state.gram);
        let mut applied = 0usize;
        let mut skipped = 0usize;
        let mut live = [false; ROUND_CHUNK];
        let (mut ni, mut nj, mut cov) =
            ([0.0; ROUND_CHUNK], [0.0; ROUND_CHUNK], [0.0; ROUND_CHUNK]);
        let (mut cos, mut sin, mut t) =
            ([0.0; ROUND_CHUNK], [0.0; ROUND_CHUNK], [0.0; ROUND_CHUNK]);
        for chunk in order.rounds().iter().flat_map(|round| round.chunks(ROUND_CHUNK)) {
            debug_assert!(pairs_disjoint(chunk), "a round's pairs must be disjoint");
            // Pass 1: guard every pair, gather the live ones into SoA lanes.
            let mut lanes = 0;
            for (k, &(i, j)) in chunk.iter().enumerate() {
                let (a, b, c) =
                    (state.gram.norm_sq(i), state.gram.norm_sq(j), state.gram.covariance(i, j));
                live[k] = !guard.skip(a, b, c);
                if live[k] {
                    (ni[lanes], nj[lanes], cov[lanes]) = (a, b, c);
                    lanes += 1;
                }
            }
            batch_params(
                &ni[..lanes],
                &nj[..lanes],
                &cov[..lanes],
                &mut cos[..lanes],
                &mut sin[..lanes],
                &mut t[..lanes],
            );
            // Pass 2: apply the rotations and report every pair, in plan order.
            let mut lane = 0;
            for (k, &(i, j)) in chunk.iter().enumerate() {
                if !live[k] {
                    skipped += 1;
                    if tracer.rotation_enabled() {
                        tracer.emit(TraceEvent::RotationSkipped {
                            sweep: idx,
                            i,
                            j,
                            reason: guard.reason(),
                        });
                    }
                    continue;
                }
                let rot = Rotation { cos: cos[lane], sin: sin[lane], t: t[lane] };
                lane += 1;
                state.gram.rotate(i, j, &rot);
                if let Some(vm) = state.target.v.as_deref_mut() {
                    vm.column_pair(i, j).expect("sweep pairs are valid").rotate(rot.cos, rot.sin);
                }
                applied += 1;
                if tracer.rotation_enabled() {
                    tracer.emit(TraceEvent::RotationApplied { sweep: idx, i, j });
                }
            }
        }
        finish_record(state.gram, idx, applied, skipped)
    }

    fn finish(&mut self, stats: &mut SolveStats, n: usize) {
        stats.gram_bytes = stats.rotations_applied as u64 * seq_rotation_gram_bytes(n);
        // An in-place O(n) rotation reads and rewrites the two logical
        // columns (rows/cols i and j) of the packed triangle.
        stats.gram_col_touches = 2 * stats.rotations_applied as u64;
    }
}

/// True if no column appears twice among `pairs`.
fn pairs_disjoint(pairs: &[(usize, usize)]) -> bool {
    pairs
        .iter()
        .enumerate()
        .all(|(k, &(i, j))| pairs[..k].iter().all(|&(p, q)| p != i && p != j && q != i && q != j))
}

/// The one sweep loop in the crate. Owns convergence checking, per-sweep
/// timing, history collection, and [`SolveStats`] accounting; every solver
/// API routes through [`SolveDriver::run`].
#[derive(Debug, Clone, Copy)]
pub struct SolveDriver {
    /// Stopping rule evaluated after every sweep.
    pub convergence: Convergence,
    /// Hard sweep budget (additionally capped at [`MAX_SWEEP_CAP`]).
    pub max_sweeps: usize,
}

/// Monitoring attached to one [`SolveDriver::run_monitored`] call: a latency
/// [`SolveBudget`] checked at sweep boundaries, the per-sweep
/// [`HealthCheck`], and (under the `fault-injection` feature only) an
/// optional injector hook for the robustness test harness.
pub struct SolveMonitor<'a> {
    /// Deadline/cancellation limits, checked before each sweep starts.
    pub budget: SolveBudget,
    /// Per-sweep `O(n)` scan of `D` for non-finite values, negative
    /// diagonals, and convergence stalls.
    pub health: HealthCheck,
    /// Trace sink receiving [`TraceEvent`]s from the run; `None` disables
    /// tracing entirely (the untraced pipeline, bit for bit).
    pub trace: Option<&'a mut dyn TraceSink>,
    /// Event granularity when a sink is attached (ignored otherwise).
    pub trace_level: TraceLevel,
    /// Test-only corruption hook, called around every sweep. Absent from
    /// production builds — the field itself compiles out without the
    /// `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub injector: Option<&'a mut dyn crate::inject::FaultInjector>,
}

impl std::fmt::Debug for SolveMonitor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveMonitor")
            .field("budget", &self.budget)
            .field("health", &self.health)
            .field("trace_level", &self.trace_level)
            .finish_non_exhaustive()
    }
}

impl<'a> SolveMonitor<'a> {
    /// Monitor with the given budget and health check, no trace sink, no
    /// injector.
    pub fn new(budget: SolveBudget, health: HealthCheck) -> SolveMonitor<'a> {
        SolveMonitor {
            budget,
            health,
            trace: None,
            trace_level: TraceLevel::Off,
            #[cfg(feature = "fault-injection")]
            injector: None,
        }
    }

    /// Attach a trace sink emitting events up to `level`.
    pub fn with_trace(mut self, sink: &'a mut dyn TraceSink, level: TraceLevel) -> Self {
        self.trace = Some(sink);
        self.trace_level = level;
        self
    }

    /// The do-nothing monitor [`SolveDriver::run`] uses: unlimited budget,
    /// disabled health check — byte-for-byte the unmonitored pipeline.
    pub fn passive() -> SolveMonitor<'static> {
        SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::disabled())
    }
}

/// The outcome of one [`SolveDriver::run_monitored`] attempt.
#[derive(Debug)]
pub struct MonitoredRun {
    /// Per-sweep convergence records, in execution order.
    pub history: Vec<SweepRecord>,
    /// Filled stats for the attempt (`faults` counts at most the one fault
    /// that ended it; recovery accounting belongs to the caller).
    pub stats: SolveStats,
    /// The fault that stopped the attempt, or `None` if it ran to
    /// convergence or exhausted its sweep budget cleanly.
    pub fault: Option<Fault>,
}

impl SolveDriver {
    /// Run sweeps until the stopping rule (or the budget) is hit; returns the
    /// per-sweep history and the filled stats record.
    ///
    /// This is [`SolveDriver::run_monitored`] over the given fixed plan with
    /// a passive monitor — no budget, no health check, no replanning — and
    /// is byte-for-byte the PR-2 pipeline.
    pub fn run(
        &self,
        engine: &mut dyn SweepEngine,
        state: &mut SweepState<'_>,
        order: &Sweep,
    ) -> (Vec<SweepRecord>, SolveStats) {
        let run = self.run_monitored_static(engine, state, order, &mut SolveMonitor::passive());
        (run.history, run.stats)
    }

    /// [`SolveDriver::run_monitored`] over a fixed, caller-built plan: the
    /// same `order` is executed every sweep (no replanning, no threshold
    /// ramp), as the pre-subsystem driver did.
    pub fn run_monitored_static(
        &self,
        engine: &mut dyn SweepEngine,
        state: &mut SweepState<'_>,
        order: &Sweep,
        monitor: &mut SolveMonitor<'_>,
    ) -> MonitoredRun {
        let mut strategy = Preplanned;
        let mut plan = order.clone();
        let mut schedule =
            SweepSchedule { strategy: &mut strategy, plan: &mut plan, threshold: None };
        self.run_monitored(engine, state, &mut schedule, monitor)
    }

    /// Run sweeps under a [`SolveMonitor`]: the budget is checked before
    /// each sweep starts, the schedule's strategy (re)plans the sweep's
    /// rounds from the current `D`, the health check inspects `D` after each
    /// sweep *before* convergence is evaluated (a corrupted state must never
    /// be declared converged), and the first fault ends the attempt.
    ///
    /// When the schedule carries a [`crate::ordering::ThresholdSchedule`],
    /// the driver installs a [`PairGuard::Threshold`] for every sweep whose
    /// ramp tolerance is still above [`PAIR_TOL`], restores the caller's
    /// guard once the ramp bottoms out, and suppresses the
    /// [`Convergence::NoRotations`] stopping rule while the ramp is active
    /// (a coarse guard's idle sweep is not convergence).
    ///
    /// Outside an active ramp, a sweep that applied no rotation ends the run
    /// under every stopping rule but [`Convergence::FixedSweeps`]: `D` and
    /// `V` are then a fixed point of the sweep, so further sweeps could only
    /// repeat it. The [`TraceEvent::ConvergenceCheck`] of that sweep still
    /// reports whether the global criterion itself was met.
    ///
    /// With a [`RotationTarget::full`] target, a run that ends without a
    /// fault finishes by forming `B ← B·V` in place, timed into
    /// [`SolveStats::columns_seconds`].
    pub fn run_monitored(
        &self,
        engine: &mut dyn SweepEngine,
        state: &mut SweepState<'_>,
        schedule: &mut SweepSchedule<'_>,
        monitor: &mut SolveMonitor<'_>,
    ) -> MonitoredRun {
        let n = state.gram.dim();
        let mut history = Vec::new();
        let mut stats = SolveStats::default();
        let mut health_state = HealthState::new();
        let mut fault = None;
        let cap = self.max_sweeps.min(MAX_SWEEP_CAP);
        let trace_level = monitor.trace_level;
        let mut tracer = Tracer::attach(monitor.trace.as_deref_mut(), trace_level);
        let base_guard = state.guard;
        for s in 1..=cap {
            if let Some(f) = monitor.budget.check(s) {
                fault = Some(f);
                break;
            }
            #[cfg(feature = "fault-injection")]
            if let Some(inj) = monitor.injector.as_deref_mut() {
                inj.before_sweep(s, state.gram);
            }
            let replanned = schedule.strategy.plan_sweep(state.gram, s, schedule.plan);
            if replanned {
                stats.replans += 1;
            }
            let threshold_active = schedule.threshold.is_some_and(|th| th.active(s));
            if let Some(th) = schedule.threshold {
                state.guard = if threshold_active {
                    PairGuard::Threshold { tol: th.tol(s) }
                } else {
                    base_guard
                };
            }
            if tracer.sweep_enabled() {
                tracer.emit(TraceEvent::SweepStart { sweep: s, engine: engine.name() });
            }
            if tracer.group_enabled() {
                tracer.emit(TraceEvent::SweepPlanned {
                    sweep: s,
                    ordering: schedule.strategy.name(),
                    rounds: schedule.plan.round_count(),
                    pairs: schedule.plan.pair_count(),
                    replanned,
                });
            }
            let t0 = Instant::now();
            let rec = engine.sweep_traced(state, schedule.plan, s, &mut tracer);
            #[cfg(feature = "fault-injection")]
            if let Some(inj) = monitor.injector.as_deref_mut() {
                inj.after_sweep(s, state.gram);
            }
            let seconds = t0.elapsed().as_secs_f64();
            stats.record_sweep(seconds, &rec);
            if threshold_active {
                stats.pairs_skipped_by_threshold += rec.rotations_skipped;
            }
            if tracer.sweep_enabled() {
                tracer.emit(TraceEvent::SweepEnd {
                    sweep: s,
                    rotations_applied: rec.rotations_applied,
                    rotations_skipped: rec.rotations_skipped,
                    off_frobenius: rec.off_frobenius,
                    seconds,
                });
            }
            history.push(rec);
            if let Some(f) = monitor.health.inspect(state.gram, &rec, &mut health_state) {
                fault = Some(f);
                break;
            }
            let converged =
                if threshold_active && matches!(self.convergence, Convergence::NoRotations) {
                    false
                } else {
                    is_converged(&self.convergence, &rec, state.gram.trace(), n)
                };
            if tracer.sweep_enabled() {
                tracer.emit(TraceEvent::ConvergenceCheck {
                    sweep: s,
                    max_abs_cov: rec.max_abs_cov,
                    off_frobenius: rec.off_frobenius,
                    converged,
                });
            }
            // A sweep that rotated nothing left D (and V) as it found them,
            // so every later sweep would repeat it: stop at the fixed point
            // even when the global criterion asks for more than the per-pair
            // guard can deliver. The paper's fixed sweep count and an active
            // threshold ramp (whose idle sweep only deferred pairs) are exempt.
            let fixed_point = rec.rotations_applied == 0
                && !threshold_active
                && !matches!(self.convergence, Convergence::FixedSweeps(_));
            if converged || fixed_point {
                break;
            }
        }
        state.guard = base_guard;
        if fault.is_some() {
            stats.faults += 1;
        } else if let RotationTarget { columns: Some(b), v: Some(v) } = &mut state.target {
            let t0 = Instant::now();
            b.matmul_in_place(v).expect("B has as many columns as V");
            stats.columns_seconds = t0.elapsed().as_secs_f64();
        }
        engine.finish(&mut stats, n);
        stats.engine = engine.name();
        stats.ordering = schedule.strategy.name();
        MonitoredRun { history, stats, fault }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::round_robin;
    use hj_matrix::gen;

    fn driver() -> SolveDriver {
        SolveDriver { convergence: Convergence::default(), max_sweeps: MAX_SWEEP_CAP }
    }

    #[test]
    fn driver_times_and_records_every_sweep() {
        let a = gen::uniform(30, 10, 5);
        let mut gram = GramState::from_matrix(&a);
        let order = round_robin(10);
        let mut state = SweepState {
            gram: &mut gram,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let (history, stats) = driver().run(&mut Sequential, &mut state, &order);
        assert!(!history.is_empty());
        assert_eq!(stats.sweeps, history.len());
        assert_eq!(stats.sweep_seconds.len(), history.len());
        assert_eq!(stats.engine, "sequential");
        assert!(stats.gram_bytes > 0);
    }

    #[test]
    fn driver_respects_fixed_sweep_budget() {
        let a = gen::uniform(40, 12, 9);
        let mut gram = GramState::from_matrix(&a);
        let order = round_robin(12);
        let mut state = SweepState {
            gram: &mut gram,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let d = SolveDriver { convergence: Convergence::FixedSweeps(3), max_sweeps: 10 };
        let (history, stats) = d.run(&mut Sequential, &mut state, &order);
        assert_eq!(history.len(), 3);
        assert_eq!(stats.sweeps, 3);
    }

    #[test]
    fn sequential_engine_matches_dedicated_sweeps() {
        // The engine must be the same computation as the pre-unification
        // sequential sweep drivers, bit for bit.
        let a = gen::uniform(25, 8, 3);
        let order = round_robin(8);
        let mut g_engine = GramState::from_matrix(&a);
        let mut g_direct = GramState::from_matrix(&a);
        let mut state = SweepState {
            gram: &mut g_engine,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        (1..=6).for_each(|s| {
            Sequential.sweep(&mut state, &order, s);
            crate::sweep::sweep_gram_only(&mut g_direct, &order, s);
        });
        assert_eq!(g_engine.packed().as_slice(), g_direct.packed().as_slice());
    }

    #[test]
    fn sequential_engine_fills_stats() {
        let a = gen::uniform(30, 9, 4);
        let order = round_robin(9);

        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let (_, seq) = driver().run(&mut Sequential, &mut st, &order);
        assert_eq!(seq.engine, "sequential");
        assert_eq!(seq.workspace_allocations, 0);
        assert_eq!(seq.gram_col_touches, 2 * seq.rotations_applied as u64);
        assert_eq!(seq.columns_seconds, 0.0, "values-only runs form no columns");
    }

    #[test]
    fn full_target_forms_b_times_v_after_a_clean_run_only() {
        let a = gen::uniform(37, 9, 8);
        let order = round_robin(9);

        // Clean run: the sweeps never touch B; the driver then forms A·V.
        let (mut b, mut v) = (a.clone(), Matrix::identity(9));
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::full(&mut b, &mut v),
            guard: PairGuard::default(),
        };
        let (_, stats) = driver().run(&mut Sequential, &mut st, &order);
        let mut want = a.clone();
        want.matmul_in_place(&v).unwrap();
        assert_eq!(b, want);
        assert!(stats.columns_seconds > 0.0, "the column product is timed");

        // A faulted run leaves B as it came in.
        let (mut b, mut v) = (a.clone(), Matrix::identity(9));
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::full(&mut b, &mut v),
            guard: PairGuard::default(),
        };
        let budget = SolveBudget::with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let mut mon = SolveMonitor::new(budget, HealthCheck::default());
        let run = driver().run_monitored_static(&mut Sequential, &mut st, &order, &mut mon);
        assert!(run.fault.is_some());
        assert_eq!(run.stats.columns_seconds, 0.0);
        assert_eq!(b, a);
    }

    #[test]
    fn monitored_run_with_health_on_matches_plain_run_bitwise() {
        let a = gen::uniform(35, 11, 13);
        let order = round_robin(11);

        let mut g1 = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g1,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let (history, stats) = driver().run(&mut Sequential, &mut st, &order);

        let mut g2 = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g2,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let mut mon = SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default());
        let run = driver().run_monitored_static(&mut Sequential, &mut st, &order, &mut mon);

        assert_eq!(run.fault, None);
        assert_eq!(run.history, history);
        assert_eq!(run.stats.sweeps, stats.sweeps);
        assert_eq!(run.stats.faults, 0);
        assert_eq!(g1.packed().as_slice(), g2.packed().as_slice());
    }

    #[test]
    fn expired_deadline_stops_before_the_first_sweep() {
        let a = gen::uniform(30, 10, 2);
        let order = round_robin(10);
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let budget = SolveBudget::with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let mut mon = SolveMonitor::new(budget, HealthCheck::default());
        let run = driver().run_monitored_static(&mut Sequential, &mut st, &order, &mut mon);
        assert_eq!(run.fault, Some(Fault::DeadlineExceeded { sweep: 1 }));
        assert!(run.history.is_empty());
        assert_eq!(run.stats.sweeps, 0);
        assert_eq!(run.stats.faults, 1);
    }

    #[test]
    fn scheduled_cyclic_run_is_bit_identical_to_static_run() {
        // The schedule-driven driver with the Cyclic strategy must be the
        // pre-subsystem static round-robin loop, bit for bit.
        use crate::ordering::{Cyclic, SweepSchedule, SweepWorkspace};
        let a = gen::uniform(40, 12, 31);
        let order = round_robin(12);
        let run_static = || {
            let mut g = GramState::from_matrix(&a);
            let mut st = SweepState {
                gram: &mut g,
                target: RotationTarget::gram_only(),
                guard: PairGuard::default(),
            };
            let (h, stats) = driver().run(&mut Sequential, &mut st, &order);
            (g.packed().as_slice().to_vec(), h, stats)
        };
        let run_scheduled = || {
            let mut g = GramState::from_matrix(&a);
            let mut st = SweepState {
                gram: &mut g,
                target: RotationTarget::gram_only(),
                guard: PairGuard::default(),
            };
            let mut strat = Cyclic::new();
            let mut plan = crate::ordering::Sweep::new();
            let mut schedule =
                SweepSchedule { strategy: &mut strat, plan: &mut plan, threshold: None };
            let run = driver().run_monitored(
                &mut Sequential,
                &mut st,
                &mut schedule,
                &mut SolveMonitor::passive(),
            );
            (g.packed().as_slice().to_vec(), run.history, run.stats)
        };

        let (d1, h1, s1) = run_static();
        let (d2, h2, s2) = run_scheduled();
        assert_eq!(d1, d2);
        assert_eq!(h1, h2);
        assert_eq!(s2.ordering, "cyclic");
        assert_eq!(s1.ordering, "", "preplanned runs report no ordering");
        assert_eq!(s2.replans, 1, "cyclic plans once");

        // The workspace's schedule drives the same loop identically.
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let mut ws = SweepWorkspace::new();
        let mut schedule = ws.schedule(None);
        driver().run_monitored(
            &mut Sequential,
            &mut st,
            &mut schedule,
            &mut SolveMonitor::passive(),
        );
        assert_eq!(g.packed().as_slice(), d1.as_slice());
    }

    #[test]
    fn threshold_schedule_defers_pairs_then_restores_the_guard() {
        use crate::ordering::{Cyclic, SweepSchedule, ThresholdSchedule};
        let a = gen::uniform(40, 10, 23);
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let mut strat = Cyclic::new();
        let mut plan = crate::ordering::Sweep::new();
        // A deliberately coarse ramp: sweep 1 skips almost everything.
        let th = ThresholdSchedule::new(0.5, 1e-3);
        let mut schedule =
            SweepSchedule { strategy: &mut strat, plan: &mut plan, threshold: Some(th) };
        let run = driver().run_monitored(
            &mut Sequential,
            &mut st,
            &mut schedule,
            &mut SolveMonitor::passive(),
        );
        assert_eq!(run.fault, None);
        assert!(
            run.stats.pairs_skipped_by_threshold > 0,
            "the coarse early ramp must defer some pairs"
        );
        // The caller's guard is restored after the run.
        assert_eq!(st.guard, PairGuard::default());
        // And the solve still reaches the default convergence target.
        assert!(g.max_abs_covariance() <= 1e-14 * (g.trace() / 10.0).max(f64::MIN_POSITIVE));
    }

    #[test]
    fn no_rotations_rule_is_suppressed_while_the_ramp_is_active() {
        use crate::ordering::{Cyclic, SweepSchedule, ThresholdSchedule};
        // With a guard so coarse that sweep 1 rotates nothing, NoRotations
        // must NOT stop the solve while the ramp is above the floor.
        let a = gen::uniform(30, 8, 41);
        let mut g = GramState::from_matrix(&a);
        let mut st = SweepState {
            gram: &mut g,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let mut strat = Cyclic::new();
        let mut plan = crate::ordering::Sweep::new();
        let th = ThresholdSchedule::new(10.0, 1e-2); // sweep 1 skips all pairs
        let mut schedule =
            SweepSchedule { strategy: &mut strat, plan: &mut plan, threshold: Some(th) };
        let d = SolveDriver { convergence: Convergence::NoRotations, max_sweeps: MAX_SWEEP_CAP };
        let run =
            d.run_monitored(&mut Sequential, &mut st, &mut schedule, &mut SolveMonitor::passive());
        assert!(run.history[0].rotations_applied == 0, "sweep 1 must be fully deferred");
        assert!(run.history.len() > 1, "NoRotations must not fire on a deferred sweep");
        assert_eq!(run.history.last().unwrap().rotations_applied, 0, "real convergence at the end");
    }

    /// The pair-at-a-time loop [`Sequential`] replaced: guard, parameters
    /// and rotation strictly one pair after another. Kept as the bitwise
    /// reference for the round-at-a-time unit.
    struct PairAtATime;

    impl SweepEngine for PairAtATime {
        fn name(&self) -> &'static str {
            "sequential"
        }

        fn sweep_traced(
            &mut self,
            state: &mut SweepState<'_>,
            order: &Sweep,
            idx: usize,
            tracer: &mut Tracer<'_, '_>,
        ) -> SweepRecord {
            let guard = state.guard.ready(state.gram);
            let (mut applied, mut skipped) = (0usize, 0usize);
            for (i, j) in order.pairs() {
                let (ni, nj, cov) =
                    (state.gram.norm_sq(i), state.gram.norm_sq(j), state.gram.covariance(i, j));
                if guard.skip(ni, nj, cov) {
                    skipped += 1;
                    if tracer.rotation_enabled() {
                        let reason = guard.reason();
                        tracer.emit(TraceEvent::RotationSkipped { sweep: idx, i, j, reason });
                    }
                    continue;
                }
                let rot = crate::rotation::textbook_params(ni, nj, cov);
                state.gram.rotate(i, j, &rot);
                if let Some(vm) = state.target.v.as_deref_mut() {
                    vm.column_pair(i, j).unwrap().rotate(rot.cos, rot.sin);
                }
                applied += 1;
                if tracer.rotation_enabled() {
                    tracer.emit(TraceEvent::RotationApplied { sweep: idx, i, j });
                }
            }
            finish_record(state.gram, idx, applied, skipped)
        }

        fn finish(&mut self, stats: &mut SolveStats, n: usize) {
            Sequential.finish(stats, n);
        }
    }

    /// Everything a run leaves behind, as bits: `D`, `B`, `V`, the history,
    /// the stats counters, and the trace with wall times zeroed.
    type RunBits = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<[u64; 6]>, [usize; 6], Vec<TraceEvent>);

    /// Run `a` to convergence on `engine`: over the cyclic schedule when
    /// `plan` is `None`, otherwise over `plan` every sweep.
    fn run_bits(
        engine: &mut dyn SweepEngine,
        a: &Matrix,
        plan: Option<&Sweep>,
        threshold: bool,
        guard: PairGuard,
        target: usize,
    ) -> RunBits {
        use crate::ordering::{SweepWorkspace, ThresholdSchedule};
        use crate::trace::RingBufferSink;
        let n = a.cols();
        let mut g = GramState::from_matrix(a);
        let (mut b, mut v) = (a.clone(), Matrix::identity(n));
        let target = match target {
            0 => RotationTarget::gram_only(),
            1 => RotationTarget::accumulate(&mut v),
            _ => RotationTarget::full(&mut b, &mut v),
        };
        let mut st = SweepState { gram: &mut g, target, guard };
        let threshold = threshold.then(ThresholdSchedule::default);
        let (mut ws, mut fixed) = (SweepWorkspace::new(), plan.cloned().unwrap_or_default());
        let mut preplanned = Preplanned;
        let mut schedule = match plan {
            None => ws.schedule(threshold),
            Some(_) => SweepSchedule { strategy: &mut preplanned, plan: &mut fixed, threshold },
        };
        let mut sink = RingBufferSink::new(1 << 20);
        let mut mon = SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default())
            .with_trace(&mut sink, TraceLevel::Rotation);
        let run = driver().run_monitored(engine, &mut st, &mut schedule, &mut mon);
        assert_eq!(run.fault, None);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let history = run
            .history
            .iter()
            .map(|r| {
                let f = [r.mean_abs_cov, r.off_frobenius, r.max_abs_cov].map(f64::to_bits);
                [
                    r.sweep as u64,
                    f[0],
                    f[1],
                    f[2],
                    r.rotations_applied as u64,
                    r.rotations_skipped as u64,
                ]
            })
            .collect();
        let s = &run.stats;
        let counters = [
            s.sweeps,
            s.rotations_applied,
            s.rotations_skipped,
            s.replans,
            s.pairs_skipped_by_threshold,
            s.gram_col_touches as usize,
        ];
        let events = sink
            .events()
            .into_iter()
            .map(|e| match e {
                TraceEvent::SweepEnd {
                    seconds: _,
                    sweep,
                    rotations_applied,
                    rotations_skipped,
                    off_frobenius,
                } => TraceEvent::SweepEnd {
                    sweep,
                    rotations_applied,
                    rotations_skipped,
                    off_frobenius,
                    seconds: 0.0,
                },
                e => e,
            })
            .collect();
        (
            bits(g.packed().as_slice()),
            bits(b.as_slice()),
            bits(v.as_slice()),
            history,
            counters,
            events,
        )
    }

    /// Every pair of `n` columns in its own round, starting from a
    /// seed-chosen pair of Algorithm 1's row-major loop nest.
    fn one_pair_rounds(n: usize, seed: u64) -> Sweep {
        let mut pairs: Vec<_> = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        let start = seed as usize % pairs.len().max(1);
        pairs.rotate_left(start);
        Sweep::from_rounds(pairs.into_iter().map(|p| vec![p]).collect())
    }

    /// Rounds of uneven length: the first round-robin round (`⌊n/2⌋`
    /// pairs, two chunks once `n > 2·ROUND_CHUNK`), then every other pair
    /// in a seed-shuffled order, first-fit into the earliest round where
    /// both columns are free.
    fn mixed_rounds(n: usize, seed: u64) -> Sweep {
        let first = crate::ordering::round_robin(n).rounds().first().cloned().unwrap_or_default();
        let mut rest: Vec<_> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|p| !first.contains(p))
            .collect();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for k in (1..rest.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rest.swap(k, (state >> 33) as usize % (k + 1));
        }
        let mut rounds = vec![first];
        for (i, j) in rest {
            let free = |r: &Vec<(usize, usize)>| {
                r.iter().all(|&(p, q)| p != i && p != j && q != i && q != j)
            };
            match rounds.iter_mut().skip(1).find(|r| free(r)) {
                Some(round) => round.push((i, j)),
                None => rounds.push(vec![(i, j)]),
            }
        }
        Sweep::from_rounds(rounds)
    }

    #[test]
    fn irregular_reference_plans_are_disjoint_full_and_uneven() {
        for n in [2usize, 5, 17, 34, 43] {
            for plan in [one_pair_rounds(n, 7), mixed_rounds(n, 7)] {
                assert!(plan.rounds().iter().all(|r| pairs_disjoint(r)), "n {n}");
                let mut pairs: Vec<_> = plan.pairs().collect();
                pairs.sort_unstable();
                pairs.dedup();
                assert_eq!(pairs.len(), n * (n - 1) / 2, "n {n}: every pair once");
                assert_eq!(plan.pair_count(), pairs.len());
            }
            assert_eq!(one_pair_rounds(n, 7).round_count(), n * (n - 1) / 2);
        }
        let mixed = mixed_rounds(43, 7);
        let lens: Vec<_> = mixed.rounds().iter().map(Vec::len).collect();
        assert!(lens[0] > ROUND_CHUNK, "the first round spans two chunks: {lens:?}");
        assert!(lens.iter().any(|&l| l != lens[0]), "rounds are uneven: {lens:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The round-at-a-time unit computes exactly what the pair-at-a-time
        /// loop does: same `D`, `B`, `V`, history, counters and rotation-level
        /// trace, bit for bit — for odd and even `n` (up to rounds that span
        /// two chunks), the cyclic schedule and hand-built plans of one-pair
        /// and of uneven rounds, with and without the threshold ramp, both
        /// guards, and all three targets.
        #[test]
        fn round_at_a_time_matches_pair_at_a_time_bitwise(
            n in 2usize..(2 * ROUND_CHUNK + 12),
            extra in 0usize..9,
            seed in 0u64..1000,
            plan in 0usize..3,
            threshold in proptest::prelude::any::<bool>(),
            (guard, target) in (0usize..2, 0usize..3),
        ) {
            let plan = match plan {
                0 => None,
                1 => Some(one_pair_rounds(n, seed)),
                _ => Some(mixed_rounds(n, seed)),
            };
            let guard = if guard == 0 {
                PairGuard::default()
            } else {
                PairGuard::DiagonalScale { tol: 1e-14 }
            };
            let a = gen::uniform(n + extra, n, seed);
            let want = run_bits(&mut PairAtATime, &a, plan.as_ref(), threshold, guard, target);
            let got = run_bits(&mut Sequential, &a, plan.as_ref(), threshold, guard, target);
            let rounds = plan.as_ref().map(Sweep::round_count);
            proptest::prop_assert!(got == want, "n {n} rounds {rounds:?} th {threshold} {guard:?} target {target}");
        }
    }

    #[test]
    fn idle_sweep_is_a_fixed_point_under_every_rule_but_fixed_sweeps() {
        // A zero tolerance asks for more than the per-pair guard can deliver:
        // the guard eventually skips every pair while |D_ij| stays above 0.
        let a = gen::uniform(30, 8, 11);
        let order = round_robin(8);
        let run = |convergence: Convergence| {
            let mut g = GramState::from_matrix(&a);
            let mut st = SweepState {
                gram: &mut g,
                target: RotationTarget::gram_only(),
                guard: PairGuard::default(),
            };
            let d = SolveDriver { convergence, max_sweeps: MAX_SWEEP_CAP };
            let (history, _) = d.run(&mut Sequential, &mut st, &order);
            (history, g.packed().as_slice().to_vec())
        };
        for rule in
            [Convergence::MaxCovariance { tol: 0.0 }, Convergence::OffFrobenius { tol: 0.0 }]
        {
            let (history, d) = run(rule);
            let (last, busy) = history.split_last().unwrap();
            assert!(history.len() < MAX_SWEEP_CAP, "{rule:?} ran to the cap");
            assert_eq!(last.rotations_applied, 0, "{rule:?} stops at the idle sweep");
            assert!(last.max_abs_cov > 0.0, "the criterion itself was not met");
            assert!(busy.iter().all(|r| r.rotations_applied > 0), "{rule:?}");
            // FixedSweeps runs on past the fixed point and changes no bit.
            let (fixed, d_fixed) = run(Convergence::FixedSweeps(history.len() + 3));
            assert_eq!(fixed.len(), history.len() + 3);
            for r in &fixed[history.len()..] {
                assert_eq!(SweepRecord { sweep: last.sweep, ..*r }, *last, "{rule:?}");
            }
            assert_eq!(d, d_fixed);
        }
    }

    #[test]
    fn diagonal_scale_guard_skips_relative_to_largest_diagonal() {
        // D = diag(4, 1) with off-diagonal 1e-10: the diagonal-scaled guard
        // at 1e-9 skips it (1e-10 ≤ 1e-9·4); at 1e-12 it rotates.
        let mut p = hj_matrix::PackedSymmetric::zeros(2);
        p.set(0, 0, 4.0);
        p.set(1, 1, 1.0);
        p.set(0, 1, 1e-10);
        let order = round_robin(2);
        for (tol, expect_applied) in [(1e-9, 0usize), (1e-12, 1usize)] {
            let mut g = GramState::from_packed(p.clone());
            let mut st = SweepState {
                gram: &mut g,
                target: RotationTarget::gram_only(),
                guard: PairGuard::DiagonalScale { tol },
            };
            let rec = Sequential.sweep(&mut st, &order, 1);
            assert_eq!(rec.rotations_applied, expect_applied, "tol {tol}");
        }
    }
}
