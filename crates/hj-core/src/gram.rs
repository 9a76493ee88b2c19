//! The maintained covariance matrix `D` — the paper's key optimization.
//!
//! A naive Hestenes sweep recomputes `‖aᵢ‖²`, `‖aⱼ‖²`, and `aᵢᵀaⱼ` from the
//! full `m`-long columns for every pair, every sweep (`O(m·n²)` per sweep;
//! this is the "repeated calculations" the paper criticizes in the earlier
//! FPGA design \[12\]). The modified algorithm computes `D = AᵀA` **once** and
//! thereafter updates it in place after each rotation in `O(n)`:
//! when columns `i`, `j` are rotated, only row/column `i` and `j` of `D`
//! change, by the same plane rotation (Algorithm 1 lines 15–26).
//!
//! [`GramState`] owns that matrix and implements the update — with the
//! temporaries that the paper's pseudocode forgets (see DESIGN.md).

use crate::rotation::Rotation;
use hj_matrix::{Matrix, OffDiagonalSummary, PackedSymmetric};

/// The covariance matrix `D` of Algorithm 1, plus rotation bookkeeping.
///
/// ```
/// use hj_core::{GramState, rotation::textbook_params};
/// use hj_matrix::gen;
///
/// let a = gen::uniform(100, 8, 7);
/// let mut d = GramState::from_matrix(&a);          // O(m·n²), once
/// let rot = textbook_params(d.norm_sq(0), d.norm_sq(3), d.covariance(0, 3));
/// d.rotate(0, 3, &rot);                            // O(n), per rotation
/// assert_eq!(d.covariance(0, 3), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct GramState {
    d: PackedSymmetric,
}

impl GramState {
    /// Build `D = AᵀA` from a matrix — the work of the paper's Hestenes
    /// preprocessor in the first sweep — with the cache-blocked
    /// [`Matrix::gram`] kernel, on the calling thread.
    ///
    /// The build never splits across the rayon pool: on a shared 2-vCPU
    /// host a two-thread split of a 16384×64 build ran anywhere from half
    /// the one-thread time to no faster, depending on whether the second
    /// vCPU was free, so it bought little median time for a wide spread. Each entry is
    /// `ops::dot(col i, col j)`'s bits, whatever the pool size.
    pub fn from_matrix(a: &Matrix) -> Self {
        GramState { d: a.gram() }
    }

    /// Wrap an existing packed symmetric matrix (must be a Gram matrix, i.e.
    /// positive semidefinite, for the algorithm's invariants to hold).
    pub fn from_packed(d: PackedSymmetric) -> Self {
        GramState { d }
    }

    /// Dimension `n` (number of columns of the original matrix).
    #[inline]
    pub fn dim(&self) -> usize {
        self.d.dim()
    }

    /// Squared 2-norm of column `i` (diagonal entry `D_ii`).
    #[inline]
    pub fn norm_sq(&self, i: usize) -> f64 {
        self.d.get(i, i)
    }

    /// Covariance between columns `i` and `j`.
    #[inline]
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        self.d.get(i, j)
    }

    /// Borrow the underlying packed matrix.
    #[inline]
    pub fn packed(&self) -> &PackedSymmetric {
        &self.d
    }

    /// Mutable borrow of the underlying packed matrix — for the blocked
    /// engine's tiled write-back, which updates `D` entries in place.
    #[inline]
    pub(crate) fn packed_mut(&mut self) -> &mut PackedSymmetric {
        &mut self.d
    }

    /// Consume into the underlying packed matrix.
    pub fn into_packed(self) -> PackedSymmetric {
        self.d
    }

    /// O(1)-swap the maintained `D` with `buf` — the publish step of the
    /// double-buffered parallel round update ([`crate::parallel`]). `buf`
    /// must hold a same-dimension triangle (the new `D` after the round).
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn swap_packed(&mut self, buf: &mut PackedSymmetric) {
        assert_eq!(self.d.dim(), buf.dim(), "swap_packed: dimension mismatch");
        self.d.swap(buf);
    }

    /// Apply the plane rotation `rot` of column pair `(i, j)` to `D`
    /// (Algorithm 1 lines 15–26, with the required temporaries).
    ///
    /// Cost: `O(n)` — this is the work the paper's Update operator performs
    /// for the covariances, `n − 2` element-pair rotations plus the O(1)
    /// diagonal update. Runs on [`crate::kernel::rotate_packed`], the
    /// three-region slice kernel that is bit-identical to the scalar
    /// `get`/`set` traversal of "all k ≠ i, j".
    pub fn rotate(&mut self, i: usize, j: usize, rot: &Rotation) {
        crate::kernel::rotate_packed(&mut self.d, i, j, rot);
    }

    /// Mean absolute off-diagonal covariance — the paper's convergence metric
    /// (Figs. 10–11).
    pub fn mean_abs_covariance(&self) -> f64 {
        self.d.off_diagonal_mean_abs()
    }

    /// `off(D)`: Frobenius norm of the off-diagonal part.
    pub fn off_frobenius(&self) -> f64 {
        self.d.off_diagonal_frobenius()
    }

    /// Largest absolute off-diagonal covariance.
    pub fn max_abs_covariance(&self) -> f64 {
        self.d.off_diagonal_max_abs()
    }

    /// All three off-diagonal convergence reductions in one fused pass over
    /// the packed triangle (see [`PackedSymmetric::off_diagonal_summary`]);
    /// each field is bit-identical to the corresponding standalone metric.
    /// The per-sweep record uses this so instrumentation reads `D` once per
    /// sweep instead of three times.
    pub fn off_summary(&self) -> OffDiagonalSummary {
        self.d.off_diagonal_summary()
    }

    /// Trace of `D` (= `‖A‖_F²`), invariant under rotations.
    pub fn trace(&self) -> f64 {
        self.d.trace()
    }

    /// Singular values implied by the current diagonal: `σᵢ = √D_ii`,
    /// unsorted (Algorithm 1 lines 28–29). Negative diagonal dust from
    /// roundoff is clamped to zero.
    pub fn singular_values_unsorted(&self) -> Vec<f64> {
        (0..self.d.dim()).map(|i| self.d.get(i, i).max(0.0).sqrt()).collect()
    }

    /// One allocation-free `O(n)` pass over the diagonal of `D`, summarizing
    /// what the per-sweep health check needs: finiteness, the smallest entry
    /// (and where), and the largest magnitude. Unlike
    /// [`PackedSymmetric::diagonal`], this copies nothing — it is safe to
    /// call every sweep without breaking the engines' steady-state
    /// zero-allocation invariant.
    pub fn diagonal_scan(&self) -> DiagonalScan {
        let mut scan = DiagonalScan { finite: true, min: f64::INFINITY, argmin: 0, max_abs: 0.0 };
        for i in 0..self.d.dim() {
            let d = self.d.get(i, i);
            if !d.is_finite() {
                scan.finite = false;
                return scan;
            }
            scan.max_abs = scan.max_abs.max(d.abs());
            if d < scan.min {
                scan.min = d;
                scan.argmin = i;
            }
        }
        scan
    }
}

/// Summary of one [`GramState::diagonal_scan`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagonalScan {
    /// All diagonal entries are finite (when `false` the other fields stop
    /// at the first non-finite entry and are not meaningful).
    pub finite: bool,
    /// Smallest diagonal entry (`+∞` for an empty matrix).
    pub min: f64,
    /// Index of the smallest diagonal entry.
    pub argmin: usize,
    /// Largest absolute diagonal entry (0 for an empty matrix).
    pub max_abs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation::textbook_params;
    use hj_matrix::gen;

    /// Reference: rotate the actual matrix columns, recompute the Gram matrix
    /// from scratch, and compare against the in-place O(n) update.
    #[test]
    fn gram_update_matches_recomputation() {
        let mut a = gen::uniform(17, 6, 123);
        let mut g = GramState::from_matrix(&a);
        // Rotate a few pairs in a fixed order.
        for &(i, j) in &[(0usize, 3usize), (1, 2), (4, 5), (0, 1), (2, 5)] {
            let rot = textbook_params(g.norm_sq(i), g.norm_sq(j), g.covariance(i, j));
            g.rotate(i, j, &rot);
            a.column_pair(i, j).unwrap().rotate(rot.cos, rot.sin);
            let fresh = GramState::from_matrix(&a);
            for p in 0..6 {
                for q in p..6 {
                    let got = g.covariance(p, q);
                    let want = fresh.covariance(p, q);
                    assert!(
                        (got - want).abs() < 1e-16 * g.trace() + 1e-12,
                        "D[{p}][{q}] diverged after rotating ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn rotate_zeroes_target_covariance() {
        let a = gen::uniform(10, 4, 7);
        let mut g = GramState::from_matrix(&a);
        let rot = textbook_params(g.norm_sq(1), g.norm_sq(3), g.covariance(1, 3));
        g.rotate(1, 3, &rot);
        assert_eq!(g.covariance(1, 3), 0.0);
    }

    #[test]
    fn rotate_preserves_trace() {
        let a = gen::uniform(20, 8, 99);
        let mut g = GramState::from_matrix(&a);
        let before = g.trace();
        for &(i, j) in &[(0usize, 7usize), (2, 3), (1, 6)] {
            let rot = textbook_params(g.norm_sq(i), g.norm_sq(j), g.covariance(i, j));
            g.rotate(i, j, &rot);
        }
        assert!((g.trace() - before).abs() < 1e-12 * before);
    }

    #[test]
    fn rotate_reduces_off_mass() {
        // A single Jacobi rotation removes exactly 2·cov² from off(D)²; the
        // off-diagonal Frobenius norm must strictly decrease when cov ≠ 0.
        let a = gen::uniform(12, 5, 55);
        let mut g = GramState::from_matrix(&a);
        let before = g.off_frobenius();
        let rot = textbook_params(g.norm_sq(0), g.norm_sq(4), g.covariance(0, 4));
        assert!(g.covariance(0, 4) != 0.0);
        g.rotate(0, 4, &rot);
        assert!(g.off_frobenius() < before);
    }

    #[test]
    fn identity_rotation_only_zeroes_cov_when_cov_zero() {
        // Applying IDENTITY must leave D unchanged except D_ij (set to 0,
        // correct only if cov was already 0 — which is the only case callers
        // use it for).
        let mut d = PackedSymmetric::zeros(3);
        d.set(0, 0, 1.0);
        d.set(1, 1, 2.0);
        d.set(2, 2, 3.0);
        d.set(1, 2, 0.0);
        d.set(0, 1, 0.5);
        let mut g = GramState::from_packed(d);
        g.rotate(1, 2, &Rotation::IDENTITY);
        assert_eq!(g.covariance(0, 1), 0.5, "unrelated covariances untouched");
        assert_eq!(g.norm_sq(1), 2.0);
    }

    #[test]
    fn singular_values_clamp_negative_dust() {
        let mut d = PackedSymmetric::zeros(2);
        d.set(0, 0, 4.0);
        d.set(1, 1, -1e-18); // roundoff dust
        let g = GramState::from_packed(d);
        assert_eq!(g.singular_values_unsorted(), vec![2.0, 0.0]);
    }

    #[test]
    fn diagonal_scan_summarizes_without_allocating() {
        let mut d = PackedSymmetric::zeros(4);
        d.set(0, 0, 4.0);
        d.set(1, 1, -2.0);
        d.set(2, 2, 0.5);
        d.set(3, 3, 1.0);
        let scan = GramState::from_packed(d.clone()).diagonal_scan();
        assert!(scan.finite);
        assert_eq!(scan.min, -2.0);
        assert_eq!(scan.argmin, 1);
        assert_eq!(scan.max_abs, 4.0);

        d.set(2, 2, f64::NAN);
        assert!(!GramState::from_packed(d).diagonal_scan().finite);
    }

    #[test]
    fn accessors() {
        let a = gen::uniform(5, 3, 1);
        let g = GramState::from_matrix(&a);
        assert_eq!(g.dim(), 3);
        assert_eq!(g.packed().dim(), 3);
        let p = g.clone().into_packed();
        assert_eq!(p.dim(), 3);
    }
}
