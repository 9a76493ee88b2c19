//! Batched SoA solve engine — high throughput for many tiny SVDs.
//!
//! The paper's §V utilization analysis shows that at small `n` the
//! Hestenes-Jacobi datapath is starved: per-pair coordination and memory
//! traffic dominate, not the rotations themselves. That is exactly the
//! regime of the "millions of tiny SVDs" workloads (sensor covariance
//! blocks, whitening, per-head attention analysis) the batch drivers in
//! [`crate::batch`] serve — and those drivers still pay the full per-solve
//! overhead once per matrix, because each worker loops one problem at a
//! time.
//!
//! This module batches *across* problems instead, the structure-of-arrays
//! trick of the GPU batch-SVD literature: the packed Gram triangles are
//! interleaved with the lane index fastest-moving ([`hj_matrix::soa`]
//! layout, lane-padded to [`hj_matrix::ops::ROTATE_LANES`]), so the
//! rotation of pair `(i, j)` touches one contiguous lanes-wide slice per
//! Gram entry and a whole sweep runs as straight-line vectorizable loops
//! ([`crate::kernel::batch_params_soa`] / [`crate::kernel::rotate_packed_soa`]).
//! The strided packed-triangle accesses that dominate the scalar
//! [`crate::kernel::rotate_packed`] at small `n` vanish entirely.
//!
//! For very large batches the interleave is additionally tiled into cache
//! *blocks* (AoSoA): lanes are grouped so one block's triangles stay inside
//! an L2-sized budget (`BLOCK_TRI_BYTES`), and the pair schedule runs
//! block by block so each pair's sweep streams a footprint the cache can
//! hold instead of the whole `tri·k` region. At the default `k = 256` and
//! `n ≤ 32` the footprint fits one block, so the batch runs *flat* — a
//! single full-width interleave, which measures fastest on cores with a
//! MiB-class L2 (narrow tiles trade cache residency for per-call overhead
//! and lose).
//!
//! [`BatchDriver`] runs the shared cyclic sweep schedule over a
//! [`BatchWorkspace`] with a **per-problem active mask**:
//!
//! * a problem that satisfies the solver's [`crate::Convergence`] criterion
//!   drops out (its lane gets identity rotation parameters — bit-preserving
//!   for its diagonal, hence for its spectrum) without stalling the batch;
//! * a problem that trips the per-lane health checks (non-finite Gram,
//!   materially negative diagonal, convergence stall — the same thresholds
//!   as [`crate::HealthCheck`]) faults **alone**: lanes never read each
//!   other, so a NaN-poisoned problem cannot perturb its neighbors' bits;
//! * a [`crate::SolveBudget`] deadline/cancellation aborts every
//!   still-active problem at the shared sweep boundary.
//!
//! Fault handling is deliberately *abort-only* per problem (no
//! rescale-restart / engine-fallback recovery inside the batch): restarting
//! one lane would force the whole batch through extra shared sweeps. The
//! guarded-numerics prescaling of [`crate::svd`] still applies per problem
//! at pack time, so the usual overflow/underflow classes never fault in the
//! first place. Callers who need the full recovery lattice for a flaky
//! problem can re-run it through [`crate::HestenesSvd::singular_values`].
//!
//! Results match the looped path within a `1e-12·σ_max` envelope (pinned by
//! proptest): the lanes-wide parameter kernel computes the textbook chain
//! in a vectorizable `sqrt`-based form that tracks the scalar one to ~1 ulp
//! (see [`crate::kernel::batch_params_soa`]), the rotation kernel applies
//! the scalar expressions (contracted to fused multiply-adds, ≤ 1 ulp, on
//! FMA hardware), the shared schedule keeps rotating a lane until *its own*
//! criterion fires, and sweep-boundary bookkeeping differs from the scalar
//! driver only in traversal.

use crate::convergence::{is_converged, SweepRecord, MAX_SWEEP_CAP};
use crate::engine::EngineKind;
use crate::kernel::{batch_params_soa, rotate_packed_soa};
use crate::ordering::{round_robin, Ordering};
use crate::recovery::{Fault, NEGATIVE_DIAG_TOL, STALL_MIN_PROGRESS, STALL_OFF_FLOOR};
use crate::stats::SolveStats;
use crate::svd::{prescale_exponent, unscale_values, HestenesSvd, SingularValues, WIDE_TAIL_TOL};
use crate::sweep::PAIR_TOL;
use crate::SvdError;
use hj_matrix::{ops, soa, Matrix};
use std::time::Instant;

/// Stable engine name reported in [`SolveStats::engine`] for batched-SoA
/// solves.
pub const BATCH_SOA_ENGINE: &str = "batch-soa";

/// Largest per-problem dimension `n` for which the automatic
/// [`crate::HestenesSvd::singular_values_batch`] dispatch prefers the SoA
/// engine. Beyond it the per-problem `O(n³)` rotation work amortizes the
/// scalar path's per-pair overhead on its own, and the interleaved triangle
/// (`n(n+1)/2 · lanes` doubles) stops fitting cache comfortably.
pub const SOA_DISPATCH_MAX_N: usize = 32;

/// Per-block cache budget for the interleaved triangles, in bytes. A block
/// of `B` lanes holds `n(n+1)/2 · B` doubles that every pair of a sweep
/// re-touches; keeping that within an L2-sized budget stops the rotation
/// kernel from streaming the whole batch footprint from L3/DRAM once per
/// pair. The budget is deliberately generous (~1.5 MiB): the default
/// `k = 256, n ≤ 32` workload fits a single block and runs flat, because
/// measured on wide-vector cores the per-block loop and call overhead of
/// narrow tiles costs far more than L2 misses save.
const BLOCK_TRI_BYTES: usize = 1536 * 1024;

/// A planned corruption of one problem's interleaved Gram lane — the batch
/// engine's analogue of [`crate::inject::Corruption::GramEntry`], used by
/// the fault-isolation robustness tests.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneCorruption {
    /// Problem (lane) index to poison.
    pub problem: usize,
    /// 1-based sweep before which the corruption is written (so the sweep's
    /// own record reflects it, mirroring `FaultInjector::before_sweep`).
    pub sweep: usize,
    /// Row index into the problem's `D`.
    pub i: usize,
    /// Column index into the problem's `D`.
    pub j: usize,
    /// The value written (need not be finite).
    pub value: f64,
}

#[cfg(feature = "fault-injection")]
type CorruptionPlan<'a> = &'a [LaneCorruption];
#[cfg(not(feature = "fault-injection"))]
type CorruptionPlan<'a> = &'a [std::convert::Infallible];

/// Why a lane stopped participating in the shared sweep loop.
#[derive(Debug, Clone)]
enum LaneOutcome {
    /// Still sweeping (or finished the budget without meeting the criterion
    /// — like the scalar driver, that is a clean result, not an error).
    Running,
    /// Rejected at pack time, before any sweep ran.
    Invalid(SvdError),
    /// Tripped a health check or the shared solve budget mid-flight.
    Faulted(Fault),
    /// Met the solver's convergence criterion.
    Converged,
}

/// Reusable scratch for one batch of interleaved problems: the SoA Gram
/// triangles, the per-pair parameter lanes, the active mask, and every
/// per-problem accumulator the driver needs — all reused across calls, so a
/// warm workspace solves batch after batch of the same shape with **zero**
/// steady-state heap allocations (pinned in `tests/zero_alloc.rs`).
///
/// Buffer growth events are counted in [`BatchWorkspace::allocations`],
/// following the [`crate::parallel::SweepWorkspace`] discipline.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    /// Problem dimension `n` of the loaded batch.
    n: usize,
    /// Problems actually loaded (lanes `problems..lanes` are padding).
    problems: usize,
    /// Lane count: `problems` rounded up to a whole number of blocks.
    lanes: usize,
    /// Lanes per cache block (the AoSoA tile width): the widest SIMD-friendly
    /// count whose interleaved triangles fit [`BLOCK_TRI_BYTES`].
    block: usize,
    /// Block-major interleaved packed triangles: entry `e` of problem `p`
    /// lives in block `b = p / block` at
    /// `d[b · tri · block + e · block + (p mod block)]`.
    d: Vec<f64>,
    /// Per-lane rotation parameters for the current pair.
    cos: Vec<f64>,
    sin: Vec<f64>,
    t: Vec<f64>,
    /// Per-lane "rotation applied" flag for the current pair.
    applied: Vec<u8>,
    /// Per-lane participation mask (0 for converged/faulted/padding lanes).
    active: Vec<u8>,
    /// Shared cyclic pair schedule for dimension `n`.
    pairs: Vec<(usize, usize)>,
    /// Per-problem prescale exponents (guarded numerics, applied at pack).
    exps: Vec<i32>,
    /// Per-problem outcome.
    outcome: Vec<LaneOutcome>,
    /// Per-problem sweep histories.
    histories: Vec<Vec<SweepRecord>>,
    /// Wall-clock seconds of each shared sweep.
    sweep_seconds: Vec<f64>,
    /// Per-lane rotations applied during the current sweep.
    applied_count: Vec<usize>,
    // Per-lane post-sweep metric accumulators (off-diagonal summary,
    // diagonal scan, trace) — one fused pass over the SoA triangle.
    abs_sum: Vec<f64>,
    sum_sq: Vec<f64>,
    max_abs: Vec<f64>,
    diag_min: Vec<f64>,
    diag_argmin: Vec<usize>,
    diag_max_abs: Vec<f64>,
    diag_finite: Vec<u8>,
    trace: Vec<f64>,
    // Per-lane stall-detector memory (same thresholds as HealthCheck).
    best_off: Vec<f64>,
    stalled: Vec<usize>,
    /// Prescale scratch: one problem's scaled column data.
    scaled: Vec<f64>,
    /// Buffer creation/growth events (the zero-alloc observability hook).
    allocations: usize,
}

impl BatchWorkspace {
    /// An empty workspace; buffers are sized by the first
    /// [`BatchDriver::load`].
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Buffer creation/growth events since construction. Constant across
    /// repeated same-shape batches — the steady-state zero-allocation
    /// invariant.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Grow `buf` to exactly `len` zeros, counting a growth event only when
    /// the capacity actually increases.
    fn reset_f64(allocations: &mut usize, buf: &mut Vec<f64>, len: usize, fill: f64) {
        if buf.capacity() < len {
            *allocations += 1;
        }
        buf.clear();
        buf.resize(len, fill);
    }

    fn reset_usize(allocations: &mut usize, buf: &mut Vec<usize>, len: usize) {
        if buf.capacity() < len {
            *allocations += 1;
        }
        buf.clear();
        buf.resize(len, 0);
    }

    fn reset_u8(allocations: &mut usize, buf: &mut Vec<u8>, len: usize, fill: u8) {
        if buf.capacity() < len {
            *allocations += 1;
        }
        buf.clear();
        buf.resize(len, fill);
    }

    /// Number of cache blocks in the loaded batch.
    fn blocks(&self) -> usize {
        self.lanes.checked_div(self.block).unwrap_or(0)
    }

    /// Packed-triangle entry count for the loaded dimension.
    fn tri(&self) -> usize {
        self.n * (self.n + 1) / 2
    }

    /// Flat index of triangle entry `e` for problem `p` in the block-major
    /// layout.
    fn at(&self, e: usize, p: usize) -> usize {
        (p / self.block) * self.tri() * self.block + e * self.block + (p % self.block)
    }

    /// Size every buffer for a batch of `problems` problems of dimension
    /// `n`, clearing per-call state but never shrinking capacity.
    fn prepare(&mut self, n: usize, problems: usize) {
        let tri = n * (n + 1) / 2;
        // AoSoA tile width: the batch is split into the fewest blocks whose
        // per-block triangles fit BLOCK_TRI_BYTES, sized evenly so the last
        // block is not a ragged remnant, then rounded up to a whole number
        // of SIMD lane groups. Batches within budget (the common case) get
        // one full-width block — the flat interleave.
        let padded = soa::lane_padded(problems);
        let block = if padded == 0 {
            0
        } else {
            let cap = (BLOCK_TRI_BYTES / (tri * 8).max(1)).max(ops::ROTATE_LANES);
            let nblocks = padded.div_ceil(cap);
            padded.div_ceil(nblocks).div_ceil(ops::ROTATE_LANES) * ops::ROTATE_LANES
        };
        let lanes = if block == 0 { 0 } else { problems.div_ceil(block) * block };
        let a = &mut self.allocations;
        Self::reset_f64(a, &mut self.d, tri * lanes, 0.0);
        Self::reset_f64(a, &mut self.cos, lanes, 0.0);
        Self::reset_f64(a, &mut self.sin, lanes, 0.0);
        Self::reset_f64(a, &mut self.t, lanes, 0.0);
        Self::reset_u8(a, &mut self.applied, lanes, 0);
        Self::reset_u8(a, &mut self.active, lanes, 0);
        Self::reset_f64(a, &mut self.abs_sum, lanes, 0.0);
        Self::reset_f64(a, &mut self.sum_sq, lanes, 0.0);
        Self::reset_f64(a, &mut self.max_abs, lanes, 0.0);
        Self::reset_f64(a, &mut self.diag_min, lanes, 0.0);
        Self::reset_usize(a, &mut self.diag_argmin, lanes);
        Self::reset_f64(a, &mut self.diag_max_abs, lanes, 0.0);
        Self::reset_u8(a, &mut self.diag_finite, lanes, 1);
        Self::reset_f64(a, &mut self.trace, lanes, 0.0);
        Self::reset_f64(a, &mut self.best_off, lanes, f64::INFINITY);
        Self::reset_usize(a, &mut self.stalled, lanes);
        Self::reset_usize(a, &mut self.applied_count, lanes);
        if self.exps.capacity() < problems {
            self.allocations += 1;
        }
        self.exps.clear();
        self.exps.resize(problems, 0);
        if self.outcome.capacity() < problems {
            self.allocations += 1;
        }
        self.outcome.clear();
        self.outcome.resize(problems, LaneOutcome::Running);
        if self.histories.len() < problems {
            self.allocations += 1;
            self.histories.resize_with(problems, Vec::new);
        }
        for h in &mut self.histories[..problems] {
            h.clear();
        }
        self.sweep_seconds.clear();
        if self.pairs.is_empty() || self.n != n {
            self.allocations += 1;
            self.pairs.clear();
            self.pairs.extend(round_robin(n).pairs());
        }
        self.n = n;
        self.problems = problems;
        self.lanes = lanes;
        self.block = block;
    }

    /// One fused pass over the interleaved triangle computing, per lane, the
    /// off-diagonal summary (`abs_sum`, `sum_sq`, `max_abs` — the
    /// [`hj_matrix::OffDiagonalSummary`] fields), the diagonal scan
    /// (finiteness, min/argmin, max-abs — the [`crate::DiagonalScan`]
    /// fields), and the trace.
    fn scan_metrics(&mut self) {
        let (n, block) = (self.n, self.block);
        for p in 0..self.lanes {
            self.abs_sum[p] = 0.0;
            self.sum_sq[p] = 0.0;
            self.max_abs[p] = 0.0;
            self.diag_min[p] = f64::INFINITY;
            self.diag_argmin[p] = 0;
            self.diag_max_abs[p] = 0.0;
            self.diag_finite[p] = 1;
            self.trace[p] = 0.0;
        }
        let tri = self.tri();
        for b in 0..self.blocks() {
            let lane0 = b * block;
            let blk = &self.d[b * tri * block..(b + 1) * tri * block];
            let mut idx = 0usize;
            for r in 0..n {
                let base = idx * block;
                for q in 0..block {
                    let p = lane0 + q;
                    let v = blk[base + q];
                    self.trace[p] += v;
                    if !v.is_finite() {
                        self.diag_finite[p] = 0;
                    }
                    if v < self.diag_min[p] {
                        self.diag_min[p] = v;
                        self.diag_argmin[p] = r;
                    }
                    self.diag_max_abs[p] = self.diag_max_abs[p].max(v.abs());
                }
                idx += 1;
                for _ in (r + 1)..n {
                    let base = idx * block;
                    for q in 0..block {
                        let p = lane0 + q;
                        let v = blk[base + q];
                        let a = v.abs();
                        self.abs_sum[p] += a;
                        self.sum_sq[p] += v * v;
                        self.max_abs[p] = self.max_abs[p].max(a);
                    }
                    idx += 1;
                }
            }
        }
    }

    /// Overwrite entry `(i, j)` of problem `p`'s interleaved triangle.
    #[cfg(feature = "fault-injection")]
    fn poison(&mut self, p: usize, i: usize, j: usize, value: f64) {
        let (r, c) = if i <= j { (i, j) } else { (j, i) };
        let off = r * (2 * self.n - r + 1) / 2 + (c - r);
        let idx = self.at(off, p);
        self.d[idx] = value;
    }
}

/// Runs the shared cyclic sweep schedule over a [`BatchWorkspace`] with the
/// owning solver's convergence criterion, budget, and health thresholds.
///
/// The three phases are public so callers (and the zero-allocation tests)
/// can drive them separately; [`BatchDriver::solve`] chains them.
#[derive(Debug, Clone, Copy)]
pub struct BatchDriver<'a> {
    solver: &'a HestenesSvd,
}

impl<'a> BatchDriver<'a> {
    /// A driver borrowing the solver's configuration.
    pub fn new(solver: &'a HestenesSvd) -> Self {
        BatchDriver { solver }
    }

    /// Load + sweep + extract in one call.
    ///
    /// # Panics
    /// Panics if the matrices do not all share one column count (see
    /// [`BatchDriver::load`]).
    pub fn solve(
        &self,
        ws: &mut BatchWorkspace,
        mats: &[Matrix],
    ) -> Vec<Result<SingularValues, SvdError>> {
        self.load(ws, mats);
        self.sweep_to_convergence(ws);
        self.extract(ws, mats)
    }

    /// Pack the batch into the workspace's SoA layout: per problem,
    /// validate (empty / non-finite inputs are rejected into their own
    /// slot), choose the guarded-numerics prescale exponent, and build the
    /// Gram triangle straight into the problem's lane with one [`ops::dot`]
    /// per entry. That is bitwise what [`crate::GramState::from_matrix`]
    /// stores too: its blocked kernel resumes and finishes each entry's
    /// accumulators exactly as `ops::dot` does, just with shared loads.
    ///
    /// # Panics
    /// Panics if the matrices do not all share one column count — the SoA
    /// layout interleaves same-shape triangles. (The automatic
    /// [`crate::HestenesSvd::singular_values_batch`] dispatch only routes
    /// uniform batches here; direct callers own the check.)
    pub fn load(&self, ws: &mut BatchWorkspace, mats: &[Matrix]) {
        let n = mats.first().map_or(0, Matrix::cols);
        assert!(
            mats.iter().all(|m| m.cols() == n),
            "batched SoA solve requires a uniform column count"
        );
        ws.prepare(n, mats.len());
        let zero_budget = self.solver.options().max_sweeps == 0;
        for (p, mat) in mats.iter().enumerate() {
            if mat.is_empty() {
                ws.outcome[p] = LaneOutcome::Invalid(SvdError::EmptyInput);
                continue;
            }
            let Some(max_abs) = mat.finite_max_abs() else {
                ws.outcome[p] = LaneOutcome::Invalid(SvdError::NonFiniteInput);
                continue;
            };
            if zero_budget {
                ws.outcome[p] = LaneOutcome::Invalid(SvdError::ZeroSweepBudget);
                continue;
            }
            ws.active[p] = 1;
            let exp = prescale_exponent(max_abs);
            ws.exps[p] = exp;
            let block = ws.block;
            // Problem p's entries stride by `block` from its lane base.
            let base = (p / block) * ws.tri() * block + (p % block);
            if exp == 0 {
                let mut e = 0usize;
                for i in 0..n {
                    let ci = mat.col(i);
                    for j in i..n {
                        ws.d[base + e * block] = ops::dot(ci, mat.col(j));
                        e += 1;
                    }
                }
            } else {
                // Out-of-window input: scale a scratch copy by the exact
                // power of two first (squaring unscaled entries is what
                // overflows), then build the Gram from the scratch columns.
                let m = mat.rows();
                BatchWorkspace::reset_f64(
                    &mut ws.allocations,
                    &mut ws.scaled,
                    mat.as_slice().len(),
                    0.0,
                );
                ws.scaled.copy_from_slice(mat.as_slice());
                scale_exact(&mut ws.scaled, exp);
                let mut e = 0usize;
                for i in 0..n {
                    for j in i..n {
                        let ci = &ws.scaled[i * m..(i + 1) * m];
                        let cj = &ws.scaled[j * m..(j + 1) * m];
                        ws.d[base + e * block] = ops::dot(ci, cj);
                        e += 1;
                    }
                }
            }
        }
    }

    /// Run shared cyclic sweeps until every lane has converged, faulted, or
    /// exhausted the solver's sweep budget. Allocation-free in the steady
    /// state (same shape, warm workspace).
    pub fn sweep_to_convergence(&self, ws: &mut BatchWorkspace) {
        self.sweep_inner(ws, &[]);
    }

    /// [`BatchDriver::sweep_to_convergence`] with planned per-lane
    /// corruptions — the fault-isolation robustness harness (the method
    /// does not exist in production builds).
    #[cfg(feature = "fault-injection")]
    pub fn sweep_to_convergence_corrupted(&self, ws: &mut BatchWorkspace, plan: &[LaneCorruption]) {
        self.sweep_inner(ws, plan);
    }

    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    fn sweep_inner(&self, ws: &mut BatchWorkspace, plan: CorruptionPlan<'_>) {
        let opts = self.solver.options();
        let health = *self.solver.health();
        let budget = self.solver.budget();
        let max_sweeps = opts.max_sweeps.min(MAX_SWEEP_CAP);
        let n = ws.n;
        let pair_count = ws.pairs.len();
        for sweep in 1..=max_sweeps {
            if ws.active.iter().all(|&a| a == 0) {
                break;
            }
            if let Some(fault) = budget.check(sweep) {
                for p in 0..ws.problems {
                    if ws.active[p] != 0 {
                        ws.active[p] = 0;
                        ws.outcome[p] = LaneOutcome::Faulted(fault);
                    }
                }
                break;
            }
            #[cfg(feature = "fault-injection")]
            for c in plan {
                if c.sweep == sweep && c.problem < ws.problems {
                    ws.poison(c.problem, c.i, c.j, c.value);
                }
            }
            let started = Instant::now();
            ws.applied_count.iter_mut().for_each(|c| *c = 0);
            let (block, tri) = (ws.block, ws.tri());
            for b in 0..ws.blocks() {
                let lane0 = b * block;
                // The mask only changes at sweep boundaries, so a block
                // whose lanes have all dropped out skips the whole pair
                // schedule — finished blocks cost nothing while stragglers
                // keep sweeping.
                if ws.active[lane0..lane0 + block].iter().all(|&a| a == 0) {
                    continue;
                }
                let base = b * tri * block;
                let off = |r: usize, c: usize| r * (2 * n - r + 1) / 2 + (c - r);
                for pi in 0..pair_count {
                    let (i, j) = ws.pairs[pi];
                    let oi = base + off(i, i) * block;
                    let oj = base + off(j, j) * block;
                    let oc = base + off(i, j) * block;
                    let any_live = batch_params_soa(
                        &ws.d[oi..oi + block],
                        &ws.d[oj..oj + block],
                        &ws.d[oc..oc + block],
                        &ws.active[lane0..lane0 + block],
                        PAIR_TOL,
                        &mut ws.cos[lane0..lane0 + block],
                        &mut ws.sin[lane0..lane0 + block],
                        &mut ws.t[lane0..lane0 + block],
                        &mut ws.applied[lane0..lane0 + block],
                    );
                    if any_live {
                        rotate_packed_soa(
                            &mut ws.d[base..base + tri * block],
                            n,
                            block,
                            i,
                            j,
                            &ws.cos[lane0..lane0 + block],
                            &ws.sin[lane0..lane0 + block],
                            &ws.t[lane0..lane0 + block],
                            &ws.applied[lane0..lane0 + block],
                        );
                        for q in lane0..lane0 + block {
                            ws.applied_count[q] += usize::from(ws.applied[q]);
                        }
                    }
                }
            }
            ws.sweep_seconds.push(started.elapsed().as_secs_f64());
            ws.scan_metrics();
            for p in 0..ws.problems {
                if ws.active[p] == 0 {
                    continue;
                }
                let rec = SweepRecord {
                    sweep,
                    mean_abs_cov: if n < 2 {
                        0.0
                    } else {
                        ws.abs_sum[p] / ((n * (n - 1) / 2) as f64)
                    },
                    off_frobenius: (2.0 * ws.sum_sq[p]).sqrt(),
                    max_abs_cov: ws.max_abs[p],
                    rotations_applied: ws.applied_count[p],
                    rotations_skipped: pair_count - ws.applied_count[p],
                };
                ws.histories[p].push(rec);
                if let Some(fault) = lane_health(&health, ws, p, &rec) {
                    ws.active[p] = 0;
                    ws.outcome[p] = LaneOutcome::Faulted(fault);
                    continue;
                }
                if is_converged(&opts.convergence, &rec, ws.trace[p], n) {
                    ws.active[p] = 0;
                    ws.outcome[p] = LaneOutcome::Converged;
                }
            }
        }
    }

    /// Extract per-problem results: `σᵢ = √D_ii` sorted descending, the
    /// wide-matrix truncated-tail check, prescale undo, and a per-problem
    /// [`SolveStats`] under the `"batch-soa"` engine name. `mats` must be
    /// the slice passed to [`BatchDriver::load`] (the row counts size each
    /// problem's thin spectrum).
    pub fn extract(
        &self,
        ws: &BatchWorkspace,
        mats: &[Matrix],
    ) -> Vec<Result<SingularValues, SvdError>> {
        assert_eq!(mats.len(), ws.problems, "extract: batch size mismatch");
        let n = ws.n;
        let diag = |r: usize, p: usize| ws.d[ws.at(r * (2 * n - r + 1) / 2, p)];
        (0..ws.problems)
            .map(|p| {
                match &ws.outcome[p] {
                    LaneOutcome::Invalid(e) => return Err(e.clone()),
                    LaneOutcome::Faulted(fault) => {
                        return Err(SvdError::SolveFault {
                            fault: *fault,
                            sweeps_completed: ws.histories[p].len(),
                            recoveries: 0,
                        })
                    }
                    LaneOutcome::Running | LaneOutcome::Converged => {}
                }
                let mut values: Vec<f64> = (0..n).map(|r| diag(r, p).max(0.0).sqrt()).collect();
                values.sort_by(|x, y| y.partial_cmp(x).expect("finite values"));
                let k = mats[p].rows().min(n);
                if k < values.len() {
                    let tail_mass: f64 = values[k..].iter().map(|s| s * s).sum();
                    let trace: f64 = (0..n).map(|r| diag(r, p)).sum();
                    if trace > 0.0 && tail_mass > trace * WIDE_TAIL_TOL {
                        return Err(SvdError::TruncatedTailNotNegligible);
                    }
                }
                values.truncate(k);
                unscale_values(&mut values, ws.exps[p]);
                let history = ws.histories[p].clone();
                let sweeps = history.len();
                let mut stats = SolveStats {
                    engine: BATCH_SOA_ENGINE,
                    ordering: "cyclic",
                    threads: 1,
                    replans: 1,
                    prescale_exp: ws.exps[p],
                    // Buffer growth is batch-wide (the interleaved triangle
                    // serves every lane), so each problem reports the
                    // workspace's cumulative event count rather than a
                    // per-problem share.
                    workspace_allocations: ws.allocations,
                    ..SolveStats::default()
                };
                for (rec, &secs) in history.iter().zip(&ws.sweep_seconds) {
                    stats.record_sweep(secs, rec);
                }
                // Same accounting model as the sequential engine: the O(n)
                // in-place rotation touches 4n − 2 packed entries and the
                // pair's two logical columns.
                stats.gram_bytes = 8 * (4 * n as u64 - 2) * stats.rotations_applied as u64;
                stats.gram_col_touches = 2 * stats.rotations_applied as u64;
                Ok(SingularValues { values, sweeps, history, stats })
            })
            .collect()
    }
}

/// Per-lane replica of [`crate::HealthCheck`]'s inspection, over the
/// workspace's fused metric scan — same thresholds, same check order.
fn lane_health(
    health: &crate::HealthCheck,
    ws: &mut BatchWorkspace,
    p: usize,
    rec: &SweepRecord,
) -> Option<Fault> {
    if !health.enabled {
        return None;
    }
    if !rec.off_frobenius.is_finite() || !rec.mean_abs_cov.is_finite() {
        return Some(Fault::NonFiniteGram { sweep: rec.sweep });
    }
    if ws.diag_finite[p] == 0 {
        return Some(Fault::NonFiniteGram { sweep: rec.sweep });
    }
    if health.negative_diagonal && ws.diag_min[p] < -NEGATIVE_DIAG_TOL * ws.diag_max_abs[p] {
        return Some(Fault::NegativeDiagonal { sweep: rec.sweep, index: ws.diag_argmin[p] });
    }
    if health.stall_sweeps > 0 {
        let floor = STALL_OFF_FLOOR * ws.diag_max_abs[p] * ws.n as f64;
        let progressing = rec.off_frobenius <= floor
            || rec.off_frobenius < ws.best_off[p] * (1.0 - STALL_MIN_PROGRESS);
        if progressing {
            ws.stalled[p] = 0;
        } else {
            ws.stalled[p] += 1;
            if ws.stalled[p] >= health.stall_sweeps {
                return Some(Fault::ConvergenceStall {
                    sweep: rec.sweep,
                    stalled_sweeps: ws.stalled[p],
                });
            }
        }
        ws.best_off[p] = ws.best_off[p].min(rec.off_frobenius);
    }
    None
}

/// Multiply every slice entry by `2^k` exactly, mirroring the scalar
/// driver's `apply_exp2` two-half-step split for extreme exponents.
fn scale_exact(values: &mut [f64], k: i32) {
    if k == 0 {
        return;
    }
    let steps: [i32; 2] = if k.abs() > 900 { [k / 2, k - k / 2] } else { [k, 0] };
    for s in steps {
        if s != 0 {
            let f = 2.0f64.powi(s);
            for v in values.iter_mut() {
                *v *= f;
            }
        }
    }
}

/// True when [`crate::HestenesSvd::singular_values_batch`] should route the
/// batch through the SoA engine: at least two problems, one uniform shape,
/// `2 ≤ n ≤` [`SOA_DISPATCH_MAX_N`], and the solver running the default
/// sequential engine / cyclic ordering with no threshold ramp (the
/// configurations whose semantics the batch engine reproduces).
pub(crate) fn soa_eligible(solver: &HestenesSvd, mats: &[Matrix]) -> bool {
    if mats.len() < 2 {
        return false;
    }
    let opts = solver.options();
    if opts.engine != EngineKind::Sequential
        || opts.ordering != Ordering::RoundRobin
        || opts.threshold.is_some()
    {
        return false;
    }
    let shape = mats[0].shape();
    if shape.1 < 2 || shape.1 > SOA_DISPATCH_MAX_N {
        return false;
    }
    mats.iter().all(|m| m.shape() == shape)
}

impl HestenesSvd {
    /// Batched singular values through the SoA engine: all problems swept
    /// together, one rotation kernel invocation per `(i, j)` pair across
    /// the whole batch. Results are within `1e-12·σ_max` of the looped
    /// [`crate::HestenesSvd::singular_values`] per problem; per-problem
    /// errors (invalid input, mid-solve faults) land in their own slots.
    ///
    /// ```
    /// use hj_core::{HestenesSvd, SvdOptions};
    /// use hj_matrix::gen;
    ///
    /// let mats: Vec<_> = (0..64).map(|k| gen::uniform(24, 12, k)).collect();
    /// let solver = HestenesSvd::new(SvdOptions::default());
    /// let batch = solver.singular_values_batch_soa(&mats);
    /// let one = solver.singular_values(&mats[7]).unwrap();
    /// let soa = batch[7].as_ref().unwrap();
    /// for (x, y) in soa.values.iter().zip(&one.values) {
    ///     assert!((x - y).abs() <= 1e-12 * one.values[0]);
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics if the matrices do not all share one column count.
    pub fn singular_values_batch_soa(
        &self,
        mats: &[Matrix],
    ) -> Vec<Result<SingularValues, SvdError>> {
        let mut ws = BatchWorkspace::new();
        self.singular_values_batch_soa_with_workspace(mats, &mut ws)
    }

    /// [`HestenesSvd::singular_values_batch_soa`] over caller-owned scratch.
    /// A warm workspace solves repeated same-shape batches with zero
    /// steady-state heap allocations.
    ///
    /// # Panics
    /// Panics if the matrices do not all share one column count.
    pub fn singular_values_batch_soa_with_workspace(
        &self,
        mats: &[Matrix],
        ws: &mut BatchWorkspace,
    ) -> Vec<Result<SingularValues, SvdError>> {
        BatchDriver::new(self).solve(ws, mats)
    }

    /// [`HestenesSvd::singular_values_batch`]'s dispatch over caller-owned
    /// SoA scratch: uniform small batches run the SoA engine on `ws`,
    /// everything else falls back to the looped per-matrix path (which
    /// manages its own scalar workspaces). Long-lived servers keep one warm
    /// [`BatchWorkspace`] per worker and route every bulk job through this.
    pub fn singular_values_batch_with_workspace(
        &self,
        mats: &[Matrix],
        ws: &mut BatchWorkspace,
    ) -> Vec<Result<SingularValues, SvdError>> {
        if soa_eligible(self, mats) {
            return self.singular_values_batch_soa_with_workspace(mats, ws);
        }
        self.singular_values_batch_looped(mats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Convergence, SvdOptions};
    use hj_matrix::gen;

    fn uniform_batch(m: usize, n: usize, count: usize) -> Vec<Matrix> {
        (0..count).map(|k| gen::uniform(m, n, 900 + k as u64)).collect()
    }

    #[test]
    fn soa_batch_matches_looped_within_envelope() {
        let mats = uniform_batch(20, 8, 11);
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.singular_values_batch_soa(&mats);
        for (k, res) in batch.iter().enumerate() {
            let one = solver.singular_values(&mats[k]).unwrap();
            let soa = res.as_ref().unwrap();
            assert_eq!(soa.values.len(), one.values.len());
            let smax = one.values[0].max(f64::MIN_POSITIVE);
            for (x, y) in soa.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * smax, "slot {k}: σ {x} vs {y}");
            }
            assert_eq!(soa.stats.engine, "batch-soa");
            assert_eq!(soa.stats.ordering, "cyclic");
            assert!(soa.sweeps >= 1 && soa.sweeps == soa.history.len());
        }
    }

    #[test]
    fn converged_problems_drop_out_at_their_own_sweep() {
        // Each lane runs the same cyclic schedule, guard, and metric fold
        // as the scalar sequential driver (parameters track it to ~1 ulp),
        // so a problem must freeze at the sweep its own criterion fires —
        // independent of how long its batch neighbors keep going.
        // Conditioning stays ≤ 1e6: past that, forming AᵀA leaves σ_min
        // with so few correct bits that the ulp-level parameter difference
        // cascades to ~1e-11·σ_max drift — the Gram method's own accuracy
        // floor, not a batching defect (the looped path drifts as much
        // between equivalent-but-reordered schedules).
        let mats = vec![
            gen::with_singular_values(24, 6, &[32.0, 16.0, 8.0, 4.0, 2.0, 1.0], 3),
            gen::with_condition_number(24, 6, 1e6, 4),
            gen::uniform(24, 6, 5),
        ];
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.singular_values_batch_soa(&mats);
        let mut sweep_counts = Vec::new();
        for (k, res) in batch.iter().enumerate() {
            let one = solver.singular_values(&mats[k]).unwrap();
            let soa = res.as_ref().unwrap();
            assert_eq!(soa.sweeps, one.sweeps, "slot {k} must stop at its own sweep");
            assert_eq!(soa.history.len(), one.history.len(), "slot {k}");
            for (got, want) in soa.history.iter().zip(&one.history) {
                assert_eq!(got.sweep, want.sweep, "slot {k}");
                assert_eq!(
                    got.rotations_applied + got.rotations_skipped,
                    want.rotations_applied + want.rotations_skipped,
                    "slot {k}: every lane sees the full shared schedule each sweep"
                );
            }
            let smax = one.values[0].max(f64::MIN_POSITIVE);
            for (x, y) in soa.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * smax, "slot {k}: σ {x} vs {y}");
            }
            sweep_counts.push(soa.sweeps);
        }
        assert!(
            sweep_counts.iter().any(|&s| s != sweep_counts[0]),
            "test wants problems with distinct convergence sweeps, got {sweep_counts:?}"
        );
    }

    #[test]
    fn invalid_problems_error_in_their_own_slot() {
        let mut mats = uniform_batch(10, 4, 4);
        let mut poisoned = Matrix::zeros(10, 4);
        poisoned.set(3, 2, f64::NAN);
        mats[1] = poisoned;
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.singular_values_batch_soa(&mats);
        assert!(matches!(batch[1], Err(SvdError::NonFiniteInput)));
        for (k, res) in batch.iter().enumerate() {
            if k == 1 {
                continue;
            }
            let one = solver.singular_values(&mats[k]).unwrap();
            let soa = res.as_ref().unwrap();
            for (x, y) in soa.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * one.values[0], "slot {k}");
            }
        }
    }

    #[test]
    fn prescaled_lanes_solve_out_of_window_inputs() {
        let base = uniform_batch(16, 5, 3);
        let mut mats = base.clone();
        mats[1] = base[1].scaled(1e160); // Gram would overflow unscaled
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = solver.singular_values_batch_soa(&mats);
        let huge = batch[1].as_ref().unwrap();
        assert_ne!(huge.stats.prescale_exp, 0);
        let clean = solver.singular_values(&base[1]).unwrap();
        for (x, y) in huge.values.iter().zip(&clean.values) {
            let want = y * 1e160;
            assert!((x - want).abs() <= 1e-10 * clean.values[0] * 1e160, "{x:e} vs {want:e}");
        }
        // Neighbors unscaled and unaffected.
        assert_eq!(batch[0].as_ref().unwrap().stats.prescale_exp, 0);
    }

    #[test]
    fn expired_budget_aborts_every_active_lane() {
        use crate::SolveBudget;
        use std::time::{Duration, Instant};
        let mats = uniform_batch(12, 4, 3);
        let solver = HestenesSvd::new(SvdOptions::default())
            .with_budget(SolveBudget::with_deadline(Instant::now() - Duration::from_millis(1)));
        for res in solver.singular_values_batch_soa(&mats) {
            match res {
                Err(SvdError::SolveFault { fault, sweeps_completed, recoveries }) => {
                    assert_eq!(fault, Fault::DeadlineExceeded { sweep: 1 });
                    assert_eq!(sweeps_completed, 0);
                    assert_eq!(recoveries, 0);
                }
                other => panic!("expected SolveFault, got {other:?}"),
            }
        }
    }

    #[test]
    fn wide_batch_truncates_or_rejects_like_the_scalar_driver() {
        let mats = vec![gen::uniform(4, 9, 7), gen::uniform(4, 9, 8)];
        let solver = HestenesSvd::new(SvdOptions::default());
        let ok = solver.singular_values_batch_soa(&mats);
        for (res, mat) in ok.iter().zip(&mats) {
            let sv = res.as_ref().unwrap();
            assert_eq!(sv.values.len(), 4);
            let one = solver.singular_values(mat).unwrap();
            for (x, y) in sv.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * one.values[0]);
            }
        }
        // One sweep leaves real mass in the discarded tail → per-slot error.
        let rushed = HestenesSvd::new(SvdOptions {
            convergence: Convergence::FixedSweeps(1),
            max_sweeps: 1,
            ..Default::default()
        });
        for res in rushed.singular_values_batch_soa(&mats) {
            assert!(matches!(res, Err(SvdError::TruncatedTailNotNegligible)));
        }
    }

    #[test]
    fn warm_workspace_is_bit_stable_and_stops_allocating() {
        let mats = uniform_batch(18, 6, 9);
        let solver = HestenesSvd::new(SvdOptions::default());
        let mut ws = BatchWorkspace::new();
        let first = solver.singular_values_batch_soa_with_workspace(&mats, &mut ws);
        let warm_allocs = ws.allocations();
        assert!(warm_allocs > 0, "first load must size the buffers");
        let second = solver.singular_values_batch_soa_with_workspace(&mats, &mut ws);
        assert_eq!(ws.allocations(), warm_allocs, "steady-state batches must not grow buffers");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap().values, b.as_ref().unwrap().values);
        }
    }

    #[test]
    fn empty_batch_and_n1_edge_cases() {
        let solver = HestenesSvd::new(SvdOptions::default());
        assert!(solver.singular_values_batch_soa(&[]).is_empty());
        let mats = vec![Matrix::from_rows(&[&[3.0], &[4.0]]); 3];
        let batch = solver.singular_values_batch_soa(&mats);
        for res in batch {
            let sv = res.unwrap();
            assert!((sv.values[0] - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dispatch_eligibility_matches_the_documented_gate() {
        let solver = HestenesSvd::new(SvdOptions::default());
        let uniform = uniform_batch(20, 8, 4);
        assert!(soa_eligible(&solver, &uniform));
        assert!(!soa_eligible(&solver, &uniform[..1]), "singleton batches stay looped");
        let mut mixed = uniform_batch(20, 8, 4);
        mixed[2] = gen::uniform(20, 9, 1);
        assert!(!soa_eligible(&solver, &mixed), "mixed shapes stay looped");
        let big = uniform_batch(40, SOA_DISPATCH_MAX_N + 1, 3);
        assert!(!soa_eligible(&solver, &big), "n above the gate stays looped");
        let blocked =
            HestenesSvd::new(SvdOptions { engine: EngineKind::Blocked, ..Default::default() });
        assert!(!soa_eligible(&blocked, &uniform), "explicit engines stay looped");
    }
}
