use crate::ops::{dot_finish, dot_resume, DotAcc, DOT_LANES};
use crate::packed::row_offset;
use crate::{ColumnPair, MatrixError, PackedSymmetric, Result};
use std::ops::Range;

/// Rows per panel of the blocked Gram build ([`Matrix::gram`]): a
/// multiple of the dot's 16 lanes, so panel edges never split a lane
/// chunk, and small enough that a tile pair's columns stay cache-resident
/// while all its register tiles read them.
const GRAM_PANEL: usize = 1024;

/// Below this many rows in whole 16-row chunks the Gram build runs plain
/// per-entry dots: with so few chunks per dot, a register tile's set-up
/// and finish cost more than its shared loads save.
const GRAM_MIN_TILED_ROWS: usize = 64;

/// Dots per tile pair of the blocked Gram build. Their accumulators
/// (16 lanes each, 64 KiB at 512) carry over between panels on the stack.
const GRAM_TILE_DOTS: usize = 512;

/// A dense, column-major `rows × cols` matrix of `f64`.
///
/// Element `(r, c)` lives at `data[c * rows + r]`, so each column is a
/// contiguous slice. The Hestenes-Jacobi algorithm rotates pairs of columns,
/// and the paper's preprocessor streams columns through multiplier arrays;
/// column-major storage makes both access patterns unit-stride.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build a matrix from a column-major data buffer.
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::ShapeMismatch { rows, cols, len: data.len() });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a matrix from a row-major data buffer (transposing into the
    /// internal column-major layout).
    pub fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::ShapeMismatch { rows, cols, len: data.len() });
        }
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, data[r * cols + c]);
            }
        }
        Ok(m)
    }

    /// Build a matrix from row slices. Panics if the rows are ragged.
    ///
    /// Intended for tests and examples where the shape is statically known.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut m = Matrix::zeros(nrows, ncols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "ragged row {r}: expected {ncols} entries");
            for (c, &v) in row.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Build a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Number of rows (`m` in the paper's notation).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`n` in the paper's notation).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Read element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r]
    }

    /// Write element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[c * self.rows + r] = v;
    }

    /// Contiguous slice of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &[f64] {
        debug_assert!(c < self.cols);
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutable contiguous slice of column `c`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        debug_assert!(c < self.cols);
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Copy of row `r` (rows are strided in column-major storage).
    pub fn row(&self, r: usize) -> Vec<f64> {
        debug_assert!(r < self.rows);
        (0..self.cols).map(|c| self.get(r, c)).collect()
    }

    /// Borrow two *distinct* columns mutably as a [`ColumnPair`].
    ///
    /// Returns [`MatrixError::DegeneratePair`] when `i == j` and
    /// [`MatrixError::IndexOutOfBounds`] when either index is out of range.
    pub fn column_pair(&mut self, i: usize, j: usize) -> Result<ColumnPair<'_>> {
        if i == j {
            return Err(MatrixError::DegeneratePair(i));
        }
        let bound = self.cols;
        if i >= bound || j >= bound {
            return Err(MatrixError::IndexOutOfBounds { index: i.max(j), bound });
        }
        let rows = self.rows;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * rows);
        let lo_slice = &mut head[lo * rows..(lo + 1) * rows];
        let hi_slice = &mut tail[..rows];
        let (ci, cj) = if i < j { (lo_slice, hi_slice) } else { (hi_slice, lo_slice) };
        Ok(ColumnPair::new(i, j, ci, cj))
    }

    /// The full backing buffer in column-major order.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing buffer in column-major order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Swap the backing column-major buffer with `buf` in O(1).
    ///
    /// `buf` must hold exactly `rows·cols` entries; it becomes the matrix's
    /// new contents (interpreted column-major) and the old contents land in
    /// `buf`. This is the publish step of double-buffered column transforms:
    /// one scratch buffer serves every round with no per-call allocation.
    ///
    /// # Panics
    /// Panics when `buf.len() != rows * cols`.
    pub fn swap_data(&mut self, buf: &mut Vec<f64>) {
        assert_eq!(
            buf.len(),
            self.data.len(),
            "swap_data: buffer length must equal rows*cols = {}",
            self.data.len()
        );
        std::mem::swap(&mut self.data, buf);
    }

    /// The transpose `Aᵀ` as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for c in 0..self.cols {
            let col = self.col(c);
            for (r, &v) in col.iter().enumerate() {
                t.set(c, r, v);
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// A straightforward cache-aware triple loop (k-outer over rhs columns,
    /// axpy over contiguous lhs columns). This is the reference product used
    /// by tests and reconstruction checks, not a performance kernel.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for c in 0..rhs.cols {
            let rhs_col = rhs.col(c);
            let out_col = out.col_mut(c);
            for (k, &w) in rhs_col.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let lhs_col = self.col(k);
                for (r, &v) in lhs_col.iter().enumerate() {
                    out_col[r] += v * w;
                }
            }
        }
        Ok(out)
    }

    /// The Gram (covariance) matrix `D = AᵀA` in packed symmetric storage.
    ///
    /// This is exactly the matrix the paper's Hestenes preprocessor computes
    /// in the first sweep: diagonal entries are squared column 2-norms,
    /// off-diagonals are covariances between column pairs.
    ///
    /// The build is cache-blocked the way the paper's preprocessor reuses
    /// its operands. The triangle is cut into tile pairs: a row tile of a
    /// few columns `i` against a column tile of up to the rest of the
    /// triangle row, at most `GRAM_TILE_DOTS` dots in all. Each tile pair
    /// walks the matrix rows in panels of `GRAM_PANEL` (a multiple of the
    /// dot's 16 lanes), so every column of the pair is read from memory
    /// once and then reused from cache, and within a panel 2×2 register
    /// tiles share every column load between two dots. Each dot's
    /// accumulators carry over from panel to panel in row order and are
    /// finished with the dot's own tail and reduction, so every entry is
    /// bit-identical to `ops::dot(col i, col j)`. The accumulators live on
    /// the stack; nothing but the triangle is allocated. Matrices with
    /// fewer than `GRAM_MIN_TILED_ROWS` rows in whole 16-row chunks take
    /// one plain `ops::dot` per entry instead.
    pub fn gram(&self) -> PackedSymmetric {
        let n = self.cols;
        let mut d = PackedSymmetric::zeros(n);
        let out = d.as_mut_slice();
        let wide = self.rows / DOT_LANES * DOT_LANES;
        if wide < GRAM_MIN_TILED_ROWS {
            let mut at = 0;
            for i in 0..n {
                for j in i..n {
                    out[at] = crate::ops::dot(self.col(i), self.col(j));
                    at += 1;
                }
            }
            return d;
        }
        let panels = wide.div_ceil(GRAM_PANEL);
        if panels == 1 {
            // A single panel starts and finishes every dot in registers, so
            // it needs (and zeroes) no accumulator store.
            GramBuild { a: self, out, wide, acc: &mut [] }.tile_pairs(panels);
        } else {
            let mut acc = [[0.0; DOT_LANES]; GRAM_TILE_DOTS];
            GramBuild { a: self, out, wide, acc: &mut acc }.tile_pairs(panels);
        }
        d
    }

    /// Elementwise `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Elementwise `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Scale every element by `s`, in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// A new matrix equal to `s · self`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_in_place(s);
        out
    }

    /// Extract the `rows × k` submatrix consisting of the first `k` columns.
    pub fn leading_columns(&self, k: usize) -> Matrix {
        assert!(k <= self.cols, "cannot take {k} leading columns of a {}-column matrix", self.cols);
        let data = self.data[..k * self.rows].to_vec();
        Matrix { rows: self.rows, cols: k, data }
    }

    /// Swap columns `i` and `j` in place.
    pub fn swap_columns(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let rows = self.rows;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * rows);
        head[lo * rows..(lo + 1) * rows].swap_with_slice(&mut tail[..rows]);
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()))
    }

    /// Maximum absolute element (0 for an empty matrix), or `None` if any
    /// element is NaN or ±∞: input validation and the prescale exponent's
    /// scan in one pass.
    ///
    /// With the sign bit cleared, IEEE-754 bit patterns order like the
    /// values they encode, and every NaN or ∞ pattern is at least `∞`'s.
    /// So the pass is an integer max over eight independent lanes, which
    /// vectorizes, and the maximum is exact: on finite input the result
    /// has the same bits as [`Matrix::max_abs`].
    pub fn finite_max_abs(&self) -> Option<f64> {
        const MAGNITUDE: u64 = !(1 << 63);
        let mut lanes = [0u64; 8];
        let chunks = self.data.chunks_exact(lanes.len());
        let rest = chunks.remainder();
        for chunk in chunks {
            for (m, v) in lanes.iter_mut().zip(chunk) {
                *m = (*m).max(v.to_bits() & MAGNITUDE);
            }
        }
        for v in rest {
            lanes[0] = lanes[0].max(v.to_bits() & MAGNITUDE);
        }
        let max = lanes.into_iter().max().unwrap_or(0);
        (max < f64::INFINITY.to_bits()).then(|| f64::from_bits(max))
    }
}

/// State of one [`Matrix::gram`] build: the source, the packed triangle,
/// and the accumulators of the tile pair in flight.
struct GramBuild<'a> {
    a: &'a Matrix,
    out: &'a mut [f64],
    /// Rows in whole 16-row chunks; the rest is each dot's finish tail.
    wide: usize,
    /// Dot `(i0 + r, j0 + c)` of the tile pair in flight at `r·w + c`
    /// (`w` the column tile's width), carried between panels.
    acc: &'a mut [DotAcc],
}

impl GramBuild<'_> {
    /// Cut the triangle into tile pairs and run each over all
    /// `panels`: a row tile of as many columns as fit the dot budget
    /// against the whole rest of the triangle row (but at least one
    /// register tile), against column tiles filling the budget.
    fn tile_pairs(&mut self, panels: usize) {
        let n = self.a.cols;
        let mut i0 = 0;
        while i0 < n {
            let h = ((GRAM_TILE_DOTS / (n - i0)).max(2) & !1).min(n - i0);
            let w = ((GRAM_TILE_DOTS / h) & !1).min(n - i0);
            let it = i0..i0 + h;
            for j0 in (i0..n).step_by(w) {
                let jt = j0..(j0 + w).min(n);
                for p in 0..panels {
                    self.panel(&it, &jt, p, panels);
                }
            }
            i0 += h;
        }
    }

    /// Run panel `p` of `panels` over tile pair `it × jt` in 2×2 register
    /// tiles (narrower at odd edges). Column `j` runs from the diagonal,
    /// so only register tiles touching the upper triangle run; the one
    /// lower dot of a diagonal register tile is computed but never kept.
    fn panel(&mut self, it: &Range<usize>, jt: &Range<usize>, p: usize, panels: usize) {
        let rows = p * GRAM_PANEL..((p + 1) * GRAM_PANEL).min(self.wide);
        let step = (p == 0, p + 1 == panels);
        let w = jt.len();
        for i in it.clone().step_by(2) {
            for j in (jt.start.max(i)..jt.end).step_by(2) {
                let slot = (i - it.start) * w + (j - jt.start);
                match (it.end - i >= 2, jt.end - j >= 2) {
                    (true, true) => self.tile::<2, 2>(i, j, slot, w, &rows, step),
                    (true, false) => self.tile::<2, 1>(i, j, slot, w, &rows, step),
                    (false, true) => self.tile::<1, 2>(i, j, slot, w, &rows, step),
                    (false, false) => self.tile::<1, 1>(i, j, slot, w, &rows, step),
                }
            }
        }
    }

    /// Resume the `R × C` dots of columns `i.., j..` (accumulators at
    /// `slot`, rows `w` apart) over `rows`: start from zero on the first
    /// panel, and on the last finish each upper entry straight into `out`
    /// instead of parking it in `acc`.
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(
        &mut self,
        i: usize,
        j: usize,
        slot: usize,
        w: usize,
        rows: &Range<usize>,
        (first, last): (bool, bool),
    ) {
        let mut t = [[[0.0; DOT_LANES]; C]; R];
        if !first {
            for (r, tr) in t.iter_mut().enumerate() {
                let at = slot + r * w;
                tr.copy_from_slice(&self.acc[at..at + C]);
            }
        }
        let a = self.a;
        dot_resume(
            &mut t,
            std::array::from_fn(|r| &a.col(i + r)[rows.clone()]),
            std::array::from_fn(|c| &a.col(j + c)[rows.clone()]),
        );
        if !last {
            for (r, tr) in t.iter().enumerate() {
                let at = slot + r * w;
                self.acc[at..at + C].copy_from_slice(tr);
            }
            return;
        }
        let tail = self.wide..;
        let done = dot_finish(
            &t,
            std::array::from_fn(|r| &a.col(i + r)[tail.clone()]),
            std::array::from_fn(|c| &a.col(j + c)[tail.clone()]),
        );
        for (r, dr) in done.iter().enumerate() {
            let ii = i + r;
            // Offset of (ii, ii) in `out`; (ii, jj) follows at `jj − ii`.
            let row = row_offset(a.cols, ii);
            for (c, &v) in dr.iter().enumerate() {
                if j + c >= ii {
                    self.out[row + (j + c - ii)] = v;
                }
            }
        }
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for r in 0..show_rows {
            write!(f, "  ")?;
            for c in 0..show_cols {
                write!(f, "{:>12.5e} ", self.get(r, c))?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.shape(), (3, 2));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn col_major_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // column-major: [col0; col1]
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        assert_eq!(m.col(1), &[2.0, 4.0]);
        assert_eq!(m.row(1), vec![3.0, 4.0]);
    }

    #[test]
    fn swap_data_exchanges_buffers_without_copying() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut buf = vec![5.0, 6.0, 7.0, 8.0];
        let buf_ptr = buf.as_ptr();
        m.swap_data(&mut buf);
        assert_eq!(m.as_slice(), &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(buf, vec![1.0, 3.0, 2.0, 4.0]);
        assert!(std::ptr::eq(m.as_slice().as_ptr(), buf_ptr), "must be a pointer swap");
    }

    #[test]
    #[should_panic(expected = "swap_data")]
    fn swap_data_rejects_wrong_length() {
        let mut m = Matrix::zeros(2, 2);
        let mut buf = vec![0.0; 3];
        m.swap_data(&mut buf);
    }

    #[test]
    fn from_col_major_checks_shape() {
        assert!(Matrix::from_col_major(2, 2, vec![0.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_col_major(2, 2, vec![0.0; 5]),
            Err(MatrixError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn from_row_major_matches_from_rows() {
        let a = Matrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        let i2 = Matrix::identity(2);
        assert_eq!(i2.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(MatrixError::DimensionMismatch { .. })));
    }

    #[test]
    fn finite_max_abs_matches_max_abs_or_flags_non_finite() {
        let mut m = Matrix::zeros(7, 3);
        assert_eq!(m.finite_max_abs().map(f64::to_bits), Some(0.0f64.to_bits()));
        m.set(0, 0, -0.0);
        assert_eq!(m.finite_max_abs().map(f64::to_bits), Some(0.0f64.to_bits()));
        for (k, v) in [3.5, -7.25, 1e-310, -1e300, 2.0].into_iter().enumerate() {
            m.set(k % 7, (k * 5) % 3, v);
            assert_eq!(m.finite_max_abs().map(f64::to_bits), Some(m.max_abs().to_bits()));
        }
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = m.clone();
            b.set(6, 2, bad); // in the scalar remainder
            assert_eq!(b.finite_max_abs(), None);
            b.set(6, 2, 0.0);
            b.set(1, 0, bad); // in a lane chunk
            assert_eq!(b.finite_max_abs(), None);
        }
        assert_eq!(Matrix::zeros(0, 0).finite_max_abs().map(f64::to_bits), Some(0));
    }

    #[test]
    fn gram_is_ata() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let d = a.gram();
        let ata = a.transpose().matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((d.get(i, j) - ata.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn column_pair_borrows_disjoint() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        {
            let pair = m.column_pair(0, 2).unwrap();
            assert_eq!(pair.left(), &[1.0, 4.0]);
            assert_eq!(pair.right(), &[3.0, 6.0]);
        }
        {
            // reversed order must hand back the same columns, swapped roles
            let pair = m.column_pair(2, 0).unwrap();
            assert_eq!(pair.left(), &[3.0, 6.0]);
            assert_eq!(pair.right(), &[1.0, 4.0]);
        }
    }

    #[test]
    fn column_pair_rejects_degenerate_and_oob() {
        let mut m = Matrix::zeros(2, 3);
        assert!(matches!(m.column_pair(1, 1), Err(MatrixError::DegeneratePair(1))));
        assert!(matches!(m.column_pair(0, 3), Err(MatrixError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn swap_columns_works_both_orders() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.swap_columns(0, 1);
        assert_eq!(m.col(0), &[2.0, 4.0]);
        m.swap_columns(1, 0);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        m.swap_columns(1, 1); // no-op
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap(), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a).unwrap(), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.scaled(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn leading_columns_truncates() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let l = m.leading_columns(2);
        assert_eq!(l, Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 5.0]]));
    }

    #[test]
    fn from_diag_places_entries() {
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn max_abs_finds_extreme() {
        let m = Matrix::from_rows(&[&[1.0, -7.5], &[3.0, 2.0]]);
        assert_eq!(m.max_abs(), 7.5);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(s.lines().count() < 15, "debug output must truncate large matrices");
    }
}
