//! The sequential single-sweep entry point and the per-sweep record.
//!
//! A *sweep* visits every column pair once in the order of its plan.
//! [`sweep_gram_only`] runs one sweep over the maintained covariance matrix
//! `D` (`O(n)` per pair) — what the paper's hardware does from the second
//! sweep onward, and all a sweep ever needs: the rotation parameters come
//! from `D` alone. A full `A = UΣVᵀ` factorization also accumulates the
//! rotations into `V` and forms the columns `B = A·V` once, after the sweep
//! loop ([`crate::engine::RotationTarget::full`]); no sweep streams the
//! `m`-long columns.
//!
//! The pair loop itself lives in the [`crate::engine::Sequential`] engine,
//! shared with every solver.

use crate::convergence::SweepRecord;
use crate::engine::{PairGuard, RotationTarget, Sequential, SweepEngine, SweepState};
use crate::gram::GramState;
use crate::ordering::Sweep;

/// Per-pair orthogonality guard used by the sweep drivers; pairs with
/// `|cov| ≤ PAIR_TOL·√(D_ii·D_jj)` are skipped. A few ulps above machine
/// epsilon: tight enough for 1e-14-level final accuracy, loose enough not to
/// churn on roundoff noise.
pub const PAIR_TOL: f64 = 1e-15;

/// Run one sweep over `D` only (no column data touched).
///
/// Returns the sweep's instrumentation record; `sweep_index` is 1-based and
/// only used to label the record.
pub fn sweep_gram_only(gram: &mut GramState, order: &Sweep, sweep_index: usize) -> SweepRecord {
    let mut state =
        SweepState { gram, target: RotationTarget::gram_only(), guard: PairGuard::default() };
    Sequential.sweep(&mut state, order, sweep_index)
}

pub(crate) fn finish_record(
    gram: &GramState,
    sweep_index: usize,
    applied: usize,
    skipped: usize,
) -> SweepRecord {
    // One fused triangle pass for all three metrics (bit-identical to the
    // three standalone passes this used to make).
    let sum = gram.off_summary();
    let n = gram.dim();
    let mean_abs_cov = if n < 2 { 0.0 } else { sum.abs_sum / ((n * (n - 1) / 2) as f64) };
    SweepRecord {
        sweep: sweep_index,
        mean_abs_cov,
        off_frobenius: (2.0 * sum.sum_sq).sqrt(),
        max_abs_cov: sum.max_abs,
        rotations_applied: applied,
        rotations_skipped: skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::Convergence;
    use crate::engine::SolveDriver;
    use crate::ordering::{round_robin, Sweep};
    use hj_matrix::{gen, norms, Matrix};

    #[test]
    fn gram_only_sweep_reduces_off_mass() {
        let a = gen::uniform(30, 8, 11);
        let mut g = GramState::from_matrix(&a);
        let order = round_robin(8);
        let before = g.off_frobenius();
        let rec = sweep_gram_only(&mut g, &order, 1);
        assert!(rec.off_frobenius < before);
        assert_eq!(rec.rotations_applied + rec.rotations_skipped, 8 * 7 / 2);
        assert_eq!(rec.sweep, 1);
    }

    #[test]
    fn repeated_sweeps_converge_to_diagonal() {
        let a = gen::uniform(20, 6, 3);
        let mut g = GramState::from_matrix(&a);
        let order = round_robin(6);
        (1..=10).for_each(|s| {
            sweep_gram_only(&mut g, &order, s);
        });
        let scale = g.trace() / 6.0;
        assert!(
            g.max_abs_covariance() <= 1e-13 * scale,
            "off-diagonal mass {} did not converge (scale {scale})",
            g.max_abs_covariance()
        );
    }

    #[test]
    fn row_cyclic_also_converges() {
        let a = gen::uniform(15, 5, 9);
        let mut g = GramState::from_matrix(&a);
        // Algorithm 1's literal loop nest, one pair per round, as a
        // caller-built plan.
        let rows = (0..5).flat_map(|i| (i + 1..5).map(move |j| vec![(i, j)])).collect();
        let order = Sweep::from_rounds(rows);
        (1..=10).for_each(|s| {
            sweep_gram_only(&mut g, &order, s);
        });
        assert!(g.max_abs_covariance() <= 1e-13 * g.trace() / 5.0);
    }

    fn full_run(a0: &Matrix, convergence: Convergence) -> (Matrix, GramState, Matrix) {
        let mut b = a0.clone();
        let mut g = GramState::from_matrix(&b);
        let mut v = Matrix::identity(a0.cols());
        let order = round_robin(a0.cols());
        let mut state = SweepState {
            gram: &mut g,
            target: RotationTarget::full(&mut b, &mut v),
            guard: PairGuard::default(),
        };
        SolveDriver { convergence, max_sweeps: 8 }.run(&mut Sequential, &mut state, &order);
        (b, g, v)
    }

    #[test]
    fn full_sweep_keeps_gram_consistent_with_columns() {
        let a = gen::uniform(25, 7, 4);
        let (b, g, _) = full_run(&a, Convergence::FixedSweeps(1));
        let fresh = GramState::from_matrix(&b);
        for p in 0..7 {
            for q in p..7 {
                assert!(
                    (g.covariance(p, q) - fresh.covariance(p, q)).abs() < 1e-10,
                    "D[{p}][{q}] inconsistent with the formed columns"
                );
            }
        }
    }

    #[test]
    fn full_sweep_accumulates_v_such_that_av_equals_b() {
        let a0 = gen::uniform(12, 5, 21);
        let (b, _, v) = full_run(&a0, Convergence::FixedSweeps(8));
        // V must stay orthogonal and satisfy A·V = B.
        assert!(norms::orthonormality_error(&v) < 1e-12);
        let av = a0.matmul(&v).unwrap();
        let diff = av.sub(&b).unwrap();
        assert!(norms::frobenius(&diff) < 1e-10 * norms::frobenius(&a0).max(1.0));
        // And B's columns are mutually orthogonal after convergence.
        let bg = GramState::from_matrix(&b);
        assert!(bg.max_abs_covariance() < 1e-12 * bg.trace() / 5.0);
    }

    #[test]
    fn sweep_on_orthogonal_input_applies_nothing() {
        let q = gen::random_orthonormal(16, 6, 2);
        let mut g = GramState::from_matrix(&q);
        let order = round_robin(6);
        let rec = sweep_gram_only(&mut g, &order, 1);
        assert_eq!(rec.rotations_applied, 0);
        assert_eq!(rec.rotations_skipped, 15);
    }
}
