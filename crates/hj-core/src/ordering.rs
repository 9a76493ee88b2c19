//! Vector-pairing orderings (the paper's §V-D) as a pluggable subsystem.
//!
//! A sweep must visit every unordered column pair at most once
//! (`n(n−1)/2` pairs for the classical cyclic family). The *order* matters
//! twice over:
//!
//! * **Convergence** — cyclic orderings are the classical provably-convergent
//!   family; data-adaptive orderings (largest pivots first) often converge in
//!   fewer sweeps but lack the classical proof, which is why the recovery
//!   lattice can fall back to cyclic on a stall.
//! * **Parallelism** — the round-robin ("caterpillar"/Brent-Luk) cyclic order
//!   arranges each sweep into `rounds` of **pairwise-disjoint** pairs, which
//!   is exactly what lets the paper's hardware (Fig. 6) issue groups of
//!   rotations concurrently. The software engine visits the pairs one at a
//!   time; the GPU baseline model (`hj-baselines::gpu_model`) charges one
//!   barrier per round.
//!
//! The subsystem has three layers:
//!
//! * [`Sweep`] — one sweep's plan: rounds of disjoint pairs.
//! * [`OrderingStrategy`] — plans each sweep's rounds, possibly *adaptively*
//!   from the current Gram state (e.g. [`SortedGreedy`] sorts pairs by
//!   relative covariance). Strategies own their scratch and recycle the
//!   plan's round
//!   vectors, so steady-state replanning is allocation-free.
//! * [`SweepSchedule`] — the strategy + plan buffer + optional
//!   [`ThresholdSchedule`] bundle the [`crate::engine::SolveDriver`] consumes.

use crate::gram::GramState;
use crate::sweep::PAIR_TOL;

/// One sweep's worth of pair visits, grouped into rounds.
///
/// Within a round all pairs are disjoint (no column appears twice), so the
/// rounds are the natural unit of parallel execution. Every
/// [`OrderingStrategy`] upholds this invariant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sweep {
    rounds: Vec<Vec<(usize, usize)>>,
}

impl Sweep {
    /// An empty plan (no rounds). Strategies fill it via
    /// [`OrderingStrategy::plan_sweep`].
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// The rounds, in execution order.
    pub fn rounds(&self) -> &[Vec<(usize, usize)>] {
        &self.rounds
    }

    /// Iterate over every pair in sweep order, flattening rounds.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rounds.iter().flatten().copied()
    }

    /// Total number of pairs in the sweep.
    pub fn pair_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Number of rounds.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Split each round into chunks of at most `group` pairs — modelling the
    /// paper's Fig. 6 dashed box: the hardware processes a bounded number of
    /// vector pairs simultaneously, so an `n/2`-pair round enters the
    /// architecture as successive groups.
    pub fn grouped(&self, group: usize) -> Vec<Vec<(usize, usize)>> {
        assert!(group > 0, "group size must be positive");
        self.grouped_iter(group).map(|chunk| chunk.to_vec()).collect()
    }

    /// Borrowing counterpart of [`Sweep::grouped`]: iterate the same pair
    /// groups as slices into the schedule, without allocating. Round
    /// boundaries are preserved (a group never spans two rounds), so every
    /// group consists of disjoint pairs.
    pub fn grouped_iter(&self, group: usize) -> impl Iterator<Item = &[(usize, usize)]> + '_ {
        assert!(group > 0, "group size must be positive");
        self.rounds.iter().flat_map(move |round| round.chunks(group))
    }

    /// Drain the plan's rounds into `spare`, clearing each (capacity kept).
    /// The recycle half of the allocation-free replanning handshake.
    pub(crate) fn recycle_into(&mut self, spare: &mut Vec<Vec<(usize, usize)>>) {
        for mut round in self.rounds.drain(..) {
            round.clear();
            spare.push(round);
        }
    }

    /// Append an (empty, recycled) round and return it for filling.
    pub(crate) fn push_round(
        &mut self,
        spare: &mut Vec<Vec<(usize, usize)>>,
    ) -> &mut Vec<(usize, usize)> {
        self.rounds.push(spare.pop().unwrap_or_default());
        self.rounds.last_mut().expect("round just pushed")
    }

    /// Mutable access to round `r` (must exist) — used by the greedy
    /// strategy's first-fit matcher.
    pub(crate) fn round_mut(&mut self, r: usize) -> &mut Vec<(usize, usize)> {
        &mut self.rounds[r]
    }
}

/// Pairing order selection for the sweep drivers.
///
/// `OrderingKind` is the name the options/wire layers use for this enum; the
/// two are the same type (see [`OrderingKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Round-robin (tournament) cyclic order: `n−1` rounds of `⌊n/2⌋`
    /// disjoint pairs — the paper's Fig. 6 order and the library default.
    /// Provably convergent.
    #[default]
    RoundRobin,
    /// Row-cyclic order: `(0,1), (0,2), …, (0,n−1), (1,2), …` — the literal
    /// loop nest of Algorithm 1. Sequential only (rounds of one pair).
    RowCyclic,
    /// Data-adaptive greedy order: every sweep re-sorts all pairs by the
    /// current relative covariance `D_ij²/(D_ii·D_jj)` (largest first) and
    /// first-fit-matches them into disjoint rounds. Typically converges in
    /// fewer sweeps than cyclic, but
    /// lacks the classical convergence proof — the recovery lattice can fall
    /// back to [`Ordering::RoundRobin`] on a stall.
    SortedGreedy,
    /// de Rijk-style column presort: columns are permuted once up front into
    /// descending-norm order, then swept with the round-robin cyclic order;
    /// full solves put `V`'s rows back in input order at the end.
    /// Provably convergent (it *is* cyclic after the permutation).
    ColumnNormPresort,
}

/// The options-/wire-layer alias for [`Ordering`].
pub type OrderingKind = Ordering;

impl Ordering {
    /// Every ordering, in canonical (CLI/bench) order.
    pub const ALL: [Ordering; 4] = [
        Ordering::RoundRobin,
        Ordering::RowCyclic,
        Ordering::SortedGreedy,
        Ordering::ColumnNormPresort,
    ];

    /// Canonical short name, as reported in [`crate::SolveStats::ordering`]
    /// and accepted by [`Ordering::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Ordering::RoundRobin => "cyclic",
            Ordering::RowCyclic => "row-cyclic",
            Ordering::SortedGreedy => "greedy",
            Ordering::ColumnNormPresort => "presort",
        }
    }

    /// Parse a CLI/wire spelling. Accepts the canonical names plus the
    /// aliases the CLI documents (`round-robin`, `row`, `sorted-greedy`,
    /// `column-presort`).
    pub fn parse(s: &str) -> Option<Ordering> {
        match s {
            "cyclic" | "round-robin" => Some(Ordering::RoundRobin),
            "row" | "row-cyclic" => Some(Ordering::RowCyclic),
            "greedy" | "sorted-greedy" => Some(Ordering::SortedGreedy),
            "presort" | "column-presort" => Some(Ordering::ColumnNormPresort),
            _ => None,
        }
    }

    /// `true` for orderings that replan from the Gram state each sweep and
    /// therefore sit outside the classical cyclic convergence proof. The
    /// recovery lattice only falls back to cyclic for these.
    pub fn adaptive(self) -> bool {
        matches!(self, Ordering::SortedGreedy)
    }

    /// Dense index (the wire-protocol byte); inverse of
    /// [`Ordering::from_index`], matching the position in [`Ordering::ALL`].
    pub fn index(self) -> usize {
        match self {
            Ordering::RoundRobin => 0,
            Ordering::RowCyclic => 1,
            Ordering::SortedGreedy => 2,
            Ordering::ColumnNormPresort => 3,
        }
    }

    /// Inverse of [`Ordering::index`]; `None` for out-of-range bytes.
    pub fn from_index(i: usize) -> Option<Ordering> {
        Ordering::ALL.get(i).copied()
    }
}

/// Build one sweep of the given ordering over `n` columns, with no Gram
/// state to adapt to.
///
/// For the static orderings this is the whole schedule. The adaptive
/// [`Ordering::SortedGreedy`] (and [`Ordering::ColumnNormPresort`], whose
/// permutation lives in the solver, not the plan) degrade to the round-robin
/// rounds here — use an [`OrderingStrategy`] for the real per-sweep plans.
/// For `n < 2` the sweep is empty.
pub fn build_sweep(ordering: Ordering, n: usize) -> Sweep {
    match ordering {
        Ordering::RoundRobin | Ordering::SortedGreedy | Ordering::ColumnNormPresort => {
            round_robin(n)
        }
        Ordering::RowCyclic => row_cyclic(n),
    }
}

/// Round-robin tournament schedule over `n` columns.
///
/// The classic circle method: fix index `n−1` (or the bye slot for odd `n`),
/// rotate the rest. Produces `n−1` rounds (`n` rounds for odd `n`), each of
/// `⌊n/2⌋` disjoint pairs; every unordered pair appears exactly once per
/// sweep. Pairs are emitted as `(min, max)`.
///
/// ```
/// use hj_core::ordering::round_robin;
///
/// let sweep = round_robin(8);
/// assert_eq!(sweep.round_count(), 7);
/// assert_eq!(sweep.pair_count(), 28); // C(8, 2): every pair, once
/// // The paper's hardware takes the rounds in groups of 8 pairs:
/// assert!(sweep.grouped(8).iter().all(|g| g.len() <= 8));
/// ```
pub fn round_robin(n: usize) -> Sweep {
    let mut sweep = Sweep::new();
    let mut ring = Vec::new();
    let mut spare = Vec::new();
    fill_round_robin(n, &mut sweep, &mut spare, &mut ring);
    sweep
}

/// Row-cyclic order: the literal `for i { for j in i+1.. }` of Algorithm 1.
/// Each pair is its own round (no intra-round parallelism).
pub fn row_cyclic(n: usize) -> Sweep {
    let mut sweep = Sweep::new();
    let mut spare = Vec::new();
    fill_row_cyclic(n, &mut sweep, &mut spare);
    sweep
}

/// The circle-method planner shared by [`round_robin`], [`Cyclic`], and
/// [`ColumnNormPresort`]. Writes into recycled round vectors; `ring` is the
/// caller-owned rotation scratch (`slots` entries after the call).
fn fill_round_robin(
    n: usize,
    out: &mut Sweep,
    spare: &mut Vec<Vec<(usize, usize)>>,
    ring: &mut Vec<usize>,
) {
    out.recycle_into(spare);
    if n < 2 {
        return;
    }
    // Treat odd n by adding a phantom "bye" slot.
    let slots = if n.is_multiple_of(2) { n } else { n + 1 };
    let rounds_count = slots - 1;
    ring.clear();
    ring.extend(0..slots);
    for _ in 0..rounds_count {
        let round = out.push_round(spare);
        for k in 0..slots / 2 {
            let a = ring[k];
            let b = ring[slots - 1 - k];
            if a < n && b < n {
                round.push((a.min(b), a.max(b)));
            }
        }
        // Circle method: slot 0 stays fixed, the remaining slots rotate
        // right by one each round.
        let last = ring[slots - 1];
        for idx in (2..slots).rev() {
            ring[idx] = ring[idx - 1];
        }
        ring[1] = last;
    }
}

/// Row-cyclic planner writing into recycled round vectors.
fn fill_row_cyclic(n: usize, out: &mut Sweep, spare: &mut Vec<Vec<(usize, usize)>>) {
    out.recycle_into(spare);
    for i in 0..n.saturating_sub(1) {
        for j in i + 1..n {
            out.push_round(spare).push((i, j));
        }
    }
}

/// Plans each sweep's rounds of disjoint pairs.
///
/// The [`crate::engine::SolveDriver`] calls [`OrderingStrategy::plan_sweep`]
/// before every sweep with the **same** plan buffer (see [`SweepSchedule`]);
/// a strategy may leave a still-valid plan untouched (returning `false`) or
/// rebuild it from the current Gram state (returning `true`). Strategies own
/// all planning scratch and recycle the plan's round vectors, so replanning
/// is allocation-free once warm.
///
/// Every produced plan must keep the pairs of each round pairwise disjoint
/// and visit each unordered pair at most once — the invariant the paper's
/// hardware (and the GPU baseline model's per-round barriers) rely on.
pub trait OrderingStrategy {
    /// Which [`Ordering`] this strategy implements.
    fn kind(&self) -> Ordering;

    /// Canonical name for stats/trace labels (defaults to the kind's name).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Ensure `out` holds this strategy's plan for the sweep about to run.
    /// `sweep_index` is 1-based. Returns `true` if the plan was rebuilt
    /// (a *replan*), `false` if the existing plan was reused.
    ///
    /// `out` must be the same buffer on every call for a given solve —
    /// strategies cache what it holds to skip redundant rebuilds.
    fn plan_sweep(&mut self, gram: &GramState, sweep_index: usize, out: &mut Sweep) -> bool;
}

/// Today's default: the round-robin cyclic order, planned once per dimension
/// and reused for every sweep — bit-identical to the pre-subsystem schedule.
#[derive(Debug, Default)]
pub struct Cyclic {
    planned_dim: Option<usize>,
    ring: Vec<usize>,
    spare: Vec<Vec<(usize, usize)>>,
}

impl Cyclic {
    /// A fresh strategy with empty scratch.
    pub fn new() -> Cyclic {
        Cyclic::default()
    }
}

impl OrderingStrategy for Cyclic {
    fn kind(&self) -> Ordering {
        Ordering::RoundRobin
    }

    fn plan_sweep(&mut self, gram: &GramState, _sweep_index: usize, out: &mut Sweep) -> bool {
        let n = gram.dim();
        if self.planned_dim == Some(n) {
            return false;
        }
        fill_round_robin(n, out, &mut self.spare, &mut self.ring);
        self.planned_dim = Some(n);
        true
    }
}

/// The row-cyclic order of Algorithm 1's literal loop nest, planned once per
/// dimension (rounds of one pair).
#[derive(Debug, Default)]
pub struct RowCyclic {
    planned_dim: Option<usize>,
    spare: Vec<Vec<(usize, usize)>>,
}

impl RowCyclic {
    /// A fresh strategy with empty scratch.
    pub fn new() -> RowCyclic {
        RowCyclic::default()
    }
}

impl OrderingStrategy for RowCyclic {
    fn kind(&self) -> Ordering {
        Ordering::RowCyclic
    }

    fn plan_sweep(&mut self, gram: &GramState, _sweep_index: usize, out: &mut Sweep) -> bool {
        let n = gram.dim();
        if self.planned_dim == Some(n) {
            return false;
        }
        fill_row_cyclic(n, out, &mut self.spare);
        self.planned_dim = Some(n);
        true
    }
}

/// Largest-pivots-first adaptive order: every sweep sorts all `n(n−1)/2`
/// pairs by the current relative covariance `D_ij²/(D_ii·D_jj)` descending
/// (the squared cosine of the angle between columns `i` and `j` — the same
/// normalisation the pair guards use, so the pairs that most need a rotation
/// sort first regardless of column scale) and first-fit-matches them into
/// disjoint rounds, so the heaviest covariances are annihilated before the
/// round snapshot drifts. Replans every sweep; allocation-free once the
/// scratch (pair keys, sort indices, round occupancy) is warm.
#[derive(Debug, Default)]
pub struct SortedGreedy {
    pairs: Vec<(usize, usize)>,
    keys: Vec<f64>,
    idx: Vec<usize>,
    /// Round-occupancy grid, `round · n + column`, grown a round at a time.
    used: Vec<bool>,
    spare: Vec<Vec<(usize, usize)>>,
}

impl SortedGreedy {
    /// A fresh strategy with empty scratch.
    pub fn new() -> SortedGreedy {
        SortedGreedy::default()
    }
}

impl OrderingStrategy for SortedGreedy {
    fn kind(&self) -> Ordering {
        Ordering::SortedGreedy
    }

    fn plan_sweep(&mut self, gram: &GramState, _sweep_index: usize, out: &mut Sweep) -> bool {
        let n = gram.dim();
        out.recycle_into(&mut self.spare);
        if n < 2 {
            return true;
        }
        self.pairs.clear();
        self.keys.clear();
        for i in 0..n {
            for j in i + 1..n {
                self.pairs.push((i, j));
                let cov = gram.covariance(i, j);
                let scale = gram.norm_sq(i) * gram.norm_sq(j);
                self.keys.push(if scale > 0.0 { cov * cov / scale } else { 0.0 });
            }
        }
        self.idx.clear();
        self.idx.extend(0..self.pairs.len());
        // Descending relative covariance; ties (and NaN, which total_cmp
        // orders above every finite value) break by pair index for
        // determinism.
        let keys = &self.keys;
        self.idx.sort_unstable_by(|&a, &b| keys[b].total_cmp(&keys[a]).then(a.cmp(&b)));
        // First-fit matching: place each pair into the earliest round where
        // neither column is taken, opening a new round when none fits.
        self.used.clear();
        let mut rounds = 0usize;
        for t in 0..self.idx.len() {
            let (i, j) = self.pairs[self.idx[t]];
            let mut r = 0;
            loop {
                if r == rounds {
                    self.used.resize((rounds + 1) * n, false);
                    out.push_round(&mut self.spare);
                    rounds += 1;
                }
                if !self.used[r * n + i] && !self.used[r * n + j] {
                    self.used[r * n + i] = true;
                    self.used[r * n + j] = true;
                    out.round_mut(r).push((i, j));
                    break;
                }
                r += 1;
            }
        }
        true
    }
}

/// de Rijk-style presort: the *plan* is plain round-robin cyclic — the
/// descending-column-norm permutation is applied to the data once, at solve
/// setup, by the solver (which folds it into `V`, so no undo pass is
/// needed). Kept as its own strategy so stats/trace report the ordering the
/// user asked for.
#[derive(Debug, Default)]
pub struct ColumnNormPresort {
    planned_dim: Option<usize>,
    ring: Vec<usize>,
    spare: Vec<Vec<(usize, usize)>>,
}

impl ColumnNormPresort {
    /// A fresh strategy with empty scratch.
    pub fn new() -> ColumnNormPresort {
        ColumnNormPresort::default()
    }
}

impl OrderingStrategy for ColumnNormPresort {
    fn kind(&self) -> Ordering {
        Ordering::ColumnNormPresort
    }

    fn plan_sweep(&mut self, gram: &GramState, _sweep_index: usize, out: &mut Sweep) -> bool {
        let n = gram.dim();
        if self.planned_dim == Some(n) {
            return false;
        }
        fill_round_robin(n, out, &mut self.spare, &mut self.ring);
        self.planned_dim = Some(n);
        true
    }
}

/// Adapter for callers that bring a ready-made [`Sweep`] (the legacy
/// `SolveDriver::run` path and direct-engine tests): never replans, reports
/// no ordering name (stats show `""`).
#[derive(Debug, Default)]
pub struct Preplanned;

impl OrderingStrategy for Preplanned {
    fn kind(&self) -> Ordering {
        Ordering::RoundRobin
    }

    fn name(&self) -> &'static str {
        ""
    }

    fn plan_sweep(&mut self, _gram: &GramState, _sweep_index: usize, _out: &mut Sweep) -> bool {
        false
    }
}

/// Per-sweep rotation-threshold ramp, composable with any ordering.
///
/// Sweep `s` (1-based) skips pairs whose `|D_ij| ≤ tol(s)·√(D_ii·D_jj)`
/// with `tol(s) = max(PAIR_TOL, initial·decay^(s−1))` — coarse early sweeps
/// spend no rotations on covariances a later sweep would disturb anyway,
/// ramping down to the standard [`PAIR_TOL`] guard. While the ramp is above
/// the floor the driver suppresses the [`crate::Convergence::NoRotations`]
/// stopping rule (a coarse guard's "no rotations" is not convergence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSchedule {
    /// Sweep 1's relative threshold.
    pub initial: f64,
    /// Multiplicative decay per sweep (in `(0, 1)`).
    pub decay: f64,
}

impl ThresholdSchedule {
    /// A schedule starting at `initial` and multiplying by `decay` each
    /// sweep. Non-finite or out-of-range inputs are clamped to the default.
    pub fn new(initial: f64, decay: f64) -> ThresholdSchedule {
        let d = ThresholdSchedule::default();
        ThresholdSchedule {
            initial: if initial.is_finite() && initial > 0.0 { initial } else { d.initial },
            decay: if decay.is_finite() && decay > 0.0 && decay < 1.0 { decay } else { d.decay },
        }
    }

    /// The relative rotation threshold for 1-based sweep `s`, floored at
    /// [`PAIR_TOL`].
    pub fn tol(&self, sweep_index: usize) -> f64 {
        let s = sweep_index.max(1);
        let exp = (s - 1).min(i32::MAX as usize) as i32;
        (self.initial * self.decay.powi(exp)).max(PAIR_TOL)
    }

    /// Whether the ramp is still above the [`PAIR_TOL`] floor at sweep `s`
    /// (i.e. the threshold guard is coarser than the default pair guard).
    pub fn active(&self, sweep_index: usize) -> bool {
        self.tol(sweep_index) > PAIR_TOL
    }
}

impl Default for ThresholdSchedule {
    /// `initial = 1e-2`, `decay = 1e-2`: tol 1e-2, 1e-4, 1e-6, …, reaching
    /// the [`PAIR_TOL`] floor by sweep 8. Sweep 1's threshold sits above the
    /// `~1/√m` correlation scale of random columns, so the coarse sweeps
    /// actually defer near-orthogonal pairs, while the two-orders-per-sweep
    /// ramp stays below the iteration's own convergence trajectory and never
    /// blocks a rotation the tail sweeps need.
    fn default() -> ThresholdSchedule {
        ThresholdSchedule { initial: 1e-2, decay: 1e-2 }
    }
}

/// The per-solve schedule the [`crate::engine::SolveDriver`] consumes: a
/// planning strategy, its (reused) plan buffer, and an optional rotation
/// threshold ramp.
pub struct SweepSchedule<'a> {
    /// Plans each sweep's rounds (same plan buffer every call).
    pub strategy: &'a mut dyn OrderingStrategy,
    /// The plan buffer the strategy writes into and the engines read.
    pub plan: &'a mut Sweep,
    /// Optional per-sweep rotation-threshold ramp.
    pub threshold: Option<ThresholdSchedule>,
}

/// One instance of every strategy plus a dedicated plan buffer per strategy,
/// pooled inside a [`SweepWorkspace`] so repeated solves
/// replan without reallocating. Each strategy gets its *own* plan buffer —
/// a shared one would invalidate the once-per-dimension caches whenever the
/// selected ordering changes between solves.
#[derive(Debug, Default)]
pub struct PlanBuffers {
    cyclic: Cyclic,
    row: RowCyclic,
    greedy: SortedGreedy,
    presort: ColumnNormPresort,
    plan_cyclic: Sweep,
    plan_row: Sweep,
    plan_greedy: Sweep,
    plan_presort: Sweep,
}

impl PlanBuffers {
    /// Fresh, empty buffers (everything sized lazily on first plan).
    pub fn new() -> PlanBuffers {
        PlanBuffers::default()
    }

    /// Borrow the strategy and plan buffer for `kind`, ready to assemble a
    /// [`SweepSchedule`].
    pub fn schedule_parts(&mut self, kind: Ordering) -> (&mut dyn OrderingStrategy, &mut Sweep) {
        match kind {
            Ordering::RoundRobin => (&mut self.cyclic, &mut self.plan_cyclic),
            Ordering::RowCyclic => (&mut self.row, &mut self.plan_row),
            Ordering::SortedGreedy => (&mut self.greedy, &mut self.plan_greedy),
            Ordering::ColumnNormPresort => (&mut self.presort, &mut self.plan_presort),
        }
    }
}

/// Reusable per-solve scratch, handed to a solve through
/// [`crate::SolveRequest::with_workspace`]: the pooled [`PlanBuffers`], so a warm
/// workspace replans every later solve — of any shape — without
/// reallocating. The sweeps themselves rotate in place and need no scratch.
/// Results are bit-identical with a fresh or a reused workspace.
///
/// ```
/// use hj_core::{HestenesSvd, SvdOptions, SweepWorkspace};
/// use hj_matrix::gen;
///
/// let solver = HestenesSvd::new(SvdOptions::default());
/// let mut ws = SweepWorkspace::new(); // plan buffers sized by the first solve
/// let a = gen::uniform(30, 12, 17);
/// let warm = solver.singular_values_with_workspace(&a, &mut ws).unwrap();
/// let again = solver.singular_values_with_workspace(&a, &mut ws).unwrap();
/// assert_eq!(warm.values, again.values);
/// ```
#[derive(Debug, Default)]
pub struct SweepWorkspace {
    /// The pooled strategies and plan buffers (`None` while a solve has
    /// them checked out).
    plan: Option<Box<PlanBuffers>>,
}

impl SweepWorkspace {
    /// Create an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        SweepWorkspace::default()
    }

    /// Check out the pooled ordering scratch (fresh buffers the first time;
    /// the warmed pool on every later solve). Pair with
    /// [`SweepWorkspace::put_plan_buffers`].
    pub(crate) fn take_plan_buffers(&mut self) -> Box<PlanBuffers> {
        self.plan.take().unwrap_or_default()
    }

    /// Return checked-out ordering scratch to the pool for the next solve.
    pub(crate) fn put_plan_buffers(&mut self, buffers: Box<PlanBuffers>) {
        self.plan = Some(buffers);
    }
}

/// Compute the descending-column-norm permutation for
/// [`Ordering::ColumnNormPresort`]: `perm[k]` is the source column holding
/// the `k`-th largest `D_ii` (ties break by column index, so the
/// permutation — and therefore the whole solve — is deterministic).
pub fn column_norm_permutation(gram: &GramState, perm: &mut Vec<usize>) {
    let n = gram.dim();
    perm.clear();
    perm.extend(0..n);
    perm.sort_by(|&a, &b| gram.norm_sq(b).total_cmp(&gram.norm_sq(a)).then(a.cmp(&b)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_full_coverage(sweep: &Sweep, n: usize) {
        let mut seen = HashSet::new();
        for (i, j) in sweep.pairs() {
            assert!(i < j, "pairs must be (min, max): ({i},{j})");
            assert!(j < n);
            assert!(seen.insert((i, j)), "pair ({i},{j}) visited twice");
        }
        assert_eq!(seen.len(), n * (n - 1) / 2, "sweep must visit every pair for n={n}");
    }

    fn assert_rounds_disjoint(sweep: &Sweep) {
        for round in sweep.rounds() {
            let mut used = HashSet::new();
            for &(i, j) in round {
                assert!(used.insert(i), "index {i} reused within a round");
                assert!(used.insert(j), "index {j} reused within a round");
            }
        }
    }

    fn gram_for(n: usize, seed: u64) -> GramState {
        GramState::from_matrix(&hj_matrix::gen::uniform(2 * n + 3, n, seed))
    }

    #[test]
    fn round_robin_covers_all_pairs_even() {
        for n in [2usize, 4, 8, 32, 64] {
            let s = round_robin(n);
            assert_eq!(s.round_count(), n - 1);
            assert_full_coverage(&s, n);
            assert_rounds_disjoint(&s);
            for round in s.rounds() {
                assert_eq!(round.len(), n / 2);
            }
        }
    }

    #[test]
    fn round_robin_covers_all_pairs_odd() {
        for n in [3usize, 5, 7, 31] {
            let s = round_robin(n);
            assert_eq!(s.round_count(), n);
            assert_full_coverage(&s, n);
            assert_rounds_disjoint(&s);
        }
    }

    #[test]
    fn round_robin_degenerate() {
        assert_eq!(round_robin(0).pair_count(), 0);
        assert_eq!(round_robin(1).pair_count(), 0);
        let s = round_robin(2);
        assert_eq!(s.pair_count(), 1);
        assert_eq!(s.rounds()[0], vec![(0, 1)]);
    }

    #[test]
    fn row_cyclic_matches_algorithm_one_order() {
        let s = row_cyclic(4);
        let pairs: Vec<_> = s.pairs().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_full_coverage(&s, 4);
    }

    #[test]
    fn grouped_respects_group_size() {
        let s = round_robin(32);
        // The paper's configuration: groups of 8 pairs enter the architecture.
        let groups = s.grouped(8);
        assert!(groups.iter().all(|g| g.len() <= 8 && !g.is_empty()));
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 32 * 31 / 2);
        // Disjointness within groups is inherited from rounds.
        for g in &groups {
            let mut used = HashSet::new();
            for &(i, j) in g {
                assert!(used.insert(i) && used.insert(j));
            }
        }
    }

    #[test]
    fn grouped_iter_matches_grouped() {
        for n in [5usize, 8, 17, 32] {
            let s = round_robin(n);
            for group in [1usize, 3, 8] {
                let owned = s.grouped(group);
                let borrowed: Vec<&[(usize, usize)]> = s.grouped_iter(group).collect();
                assert_eq!(owned.len(), borrowed.len(), "n={n} group={group}");
                for (o, b) in owned.iter().zip(&borrowed) {
                    assert_eq!(o.as_slice(), *b);
                }
            }
        }
    }

    #[test]
    fn build_sweep_dispatches() {
        assert_eq!(build_sweep(Ordering::RoundRobin, 6), round_robin(6));
        assert_eq!(build_sweep(Ordering::RowCyclic, 6), row_cyclic(6));
        // With no Gram state the adaptive/presort plans degrade to cyclic.
        assert_eq!(build_sweep(Ordering::SortedGreedy, 6), round_robin(6));
        assert_eq!(build_sweep(Ordering::ColumnNormPresort, 6), round_robin(6));
    }

    #[test]
    fn names_and_parse_round_trip() {
        for kind in Ordering::ALL {
            assert_eq!(Ordering::parse(kind.name()), Some(kind));
        }
        assert_eq!(Ordering::parse("round-robin"), Some(Ordering::RoundRobin));
        assert_eq!(Ordering::parse("row"), Some(Ordering::RowCyclic));
        assert_eq!(Ordering::parse("sorted-greedy"), Some(Ordering::SortedGreedy));
        assert_eq!(Ordering::parse("column-presort"), Some(Ordering::ColumnNormPresort));
        assert_eq!(Ordering::parse("warp"), None);
        assert!(Ordering::SortedGreedy.adaptive());
        assert!(!Ordering::RoundRobin.adaptive());
        assert!(!Ordering::ColumnNormPresort.adaptive());
        for (i, kind) in Ordering::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(Ordering::from_index(i), Some(*kind));
        }
        assert_eq!(Ordering::from_index(Ordering::ALL.len()), None);
    }

    #[test]
    fn cyclic_strategy_is_bit_identical_to_round_robin() {
        for n in [2usize, 7, 8, 24] {
            let gram = gram_for(n, 5);
            let mut strat = Cyclic::new();
            let mut plan = Sweep::new();
            assert!(strat.plan_sweep(&gram, 1, &mut plan), "first call must plan");
            assert_eq!(plan, round_robin(n), "n={n}");
            // Later sweeps reuse the plan verbatim.
            assert!(!strat.plan_sweep(&gram, 2, &mut plan));
            assert_eq!(plan, round_robin(n));
        }
    }

    #[test]
    fn strategies_replan_on_dimension_change() {
        let mut strat = Cyclic::new();
        let mut plan = Sweep::new();
        assert!(strat.plan_sweep(&gram_for(6, 1), 1, &mut plan));
        assert!(strat.plan_sweep(&gram_for(9, 2), 1, &mut plan), "new dim must replan");
        assert_eq!(plan, round_robin(9));
    }

    #[test]
    fn greedy_covers_all_pairs_in_disjoint_rounds() {
        for (n, seed) in [(2usize, 1u64), (5, 2), (8, 3), (17, 4), (24, 5)] {
            let gram = gram_for(n, seed);
            let mut strat = SortedGreedy::new();
            let mut plan = Sweep::new();
            assert!(strat.plan_sweep(&gram, 1, &mut plan), "greedy replans every sweep");
            assert_full_coverage(&plan, n);
            assert_rounds_disjoint(&plan);
            assert!(strat.plan_sweep(&gram, 2, &mut plan));
            assert_full_coverage(&plan, n);
        }
    }

    #[test]
    fn greedy_puts_the_largest_covariance_first() {
        let gram = gram_for(9, 77);
        let mut best = (0, 1);
        let mut best_key = -1.0;
        for i in 0..9 {
            for j in i + 1..9 {
                let cov = gram.covariance(i, j);
                let key = cov * cov / (gram.norm_sq(i) * gram.norm_sq(j));
                if key > best_key {
                    best_key = key;
                    best = (i, j);
                }
            }
        }
        let mut strat = SortedGreedy::new();
        let mut plan = Sweep::new();
        strat.plan_sweep(&gram, 1, &mut plan);
        assert_eq!(plan.rounds()[0][0], best, "heaviest pair must open round 0");
    }

    #[test]
    fn greedy_is_deterministic() {
        let gram = gram_for(12, 9);
        let plan_of = |_: ()| {
            let mut strat = SortedGreedy::new();
            let mut plan = Sweep::new();
            strat.plan_sweep(&gram, 1, &mut plan);
            plan
        };
        assert_eq!(plan_of(()), plan_of(()));
    }

    #[test]
    fn presort_strategy_plans_cyclic_rounds() {
        let gram = gram_for(10, 3);
        let mut strat = ColumnNormPresort::new();
        let mut plan = Sweep::new();
        assert!(strat.plan_sweep(&gram, 1, &mut plan));
        assert_eq!(plan, round_robin(10));
        assert_eq!(strat.name(), "presort");
    }

    #[test]
    fn column_norm_permutation_sorts_descending() {
        let gram = gram_for(11, 13);
        let mut perm = Vec::new();
        column_norm_permutation(&gram, &mut perm);
        assert_eq!(perm.len(), 11);
        let mut seen: Vec<usize> = perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..11).collect::<Vec<_>>(), "must be a permutation");
        for w in perm.windows(2) {
            assert!(
                gram.norm_sq(w[0]) >= gram.norm_sq(w[1]),
                "norms must descend along the permutation"
            );
        }
    }

    #[test]
    fn threshold_schedule_ramps_down_to_pair_tol() {
        let th = ThresholdSchedule::default();
        assert!(th.tol(1) > th.tol(2));
        assert!(th.tol(2) > th.tol(3));
        assert!(th.active(1));
        // The ramp bottoms out exactly at the floor and stays there.
        assert_eq!(th.tol(40), PAIR_TOL);
        assert!(!th.active(40));
        // Sanitization: bad inputs fall back to the default schedule.
        assert_eq!(ThresholdSchedule::new(f64::NAN, 2.0), ThresholdSchedule::default());
        let custom = ThresholdSchedule::new(1e-2, 0.1);
        assert_eq!(custom.tol(1), 1e-2);
        assert!((custom.tol(2) - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn plan_buffers_hand_out_matching_parts() {
        let gram = gram_for(8, 21);
        let mut bufs = PlanBuffers::new();
        for kind in Ordering::ALL {
            let (strategy, plan) = bufs.schedule_parts(kind);
            assert_eq!(strategy.kind(), kind);
            strategy.plan_sweep(&gram, 1, plan);
            assert_full_coverage(plan, 8);
            assert_rounds_disjoint(plan);
        }
        // A second checkout of the same kind sees the cached plan.
        let (strategy, plan) = bufs.schedule_parts(Ordering::RoundRobin);
        assert!(!strategy.plan_sweep(&gram, 2, plan));
    }

    #[test]
    fn preplanned_never_replans() {
        let gram = gram_for(6, 2);
        let mut strat = Preplanned;
        let mut plan = round_robin(6);
        let before = plan.clone();
        assert!(!strat.plan_sweep(&gram, 1, &mut plan));
        assert_eq!(plan, before);
        assert_eq!(strat.name(), "");
    }

    #[test]
    fn replanning_recycles_round_vectors() {
        // After warm-up, greedy replanning must not grow the total capacity
        // footprint: recycled vectors are reused, not reallocated. We proxy
        // this by checking the spare pool absorbs and re-issues rounds.
        let gram = gram_for(16, 8);
        let mut strat = SortedGreedy::new();
        let mut plan = Sweep::new();
        strat.plan_sweep(&gram, 1, &mut plan);
        let rounds_before = plan.round_count();
        strat.plan_sweep(&gram, 2, &mut plan);
        // Same gram → same plan shape, rebuilt in place.
        assert_eq!(plan.round_count(), rounds_before);
    }
}
