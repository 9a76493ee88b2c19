//! Vector primitives shared by the sweep kernels and the baselines.
//!
//! These are the scalar building blocks that map one-to-one onto the paper's
//! hardware operators: `dot` is what a column of the Hestenes preprocessor's
//! multiplier array computes, `axpy` is the body of a Householder update.

/// Accumulator lanes of [`dot`]: lane `l` sums the products at positions
/// `≡ l (mod 16)` of the 16-aligned prefix. As four 4-wide chains, each
/// mirrors the 4-layer multiplier array of the paper's preprocessor, and
/// running four side by side hides the FP add latency that a single chain
/// serializes on, so long dots run at multiplier throughput instead.
pub(crate) const DOT_LANES: usize = 16;

/// The running state of one [`dot`]: its sixteen accumulator lanes.
pub(crate) type DotAcc = [f64; DOT_LANES];

/// Dot product `x·y`. Panics in debug builds on length mismatch.
///
/// The body is two steps: a resume over the 16-aligned prefix (sixteen
/// accumulator lanes, four 4-wide chains) and a finish on the rest (4-row
/// chunks into lanes 0–3, a scalar tail, a fixed fold).
/// [`Matrix::gram`](crate::Matrix::gram) runs the same two steps panel by
/// panel, so its entries carry these exact bits.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let wide = x.len() / DOT_LANES * DOT_LANES;
    let mut acc = [[[0.0; DOT_LANES]; 1]; 1];
    dot_resume(&mut acc, [&x[..wide]], [&y[..wide]]);
    dot_finish(&acc, [&x[wide..]], [&y[wide..]])[0][0]
}

/// Resume `R × C` dots (`R`, `C` ≤ 2) over one more 16-aligned stretch
/// of rows: `acc[r][c]` continues `dot(xs[r], ys[c])`. Every lane adds its
/// products in row order with a separate multiply and add (no FMA
/// contraction, no re-association), so splitting a dot's prefix into
/// consecutive stretches leaves its bits unchanged, and each `x`/`y` chunk
/// loaded here feeds `C`/`R` products (the register tile of the blocked
/// Gram build).
///
/// Every slice must have the same length, a multiple of [`DOT_LANES`].
#[inline(always)]
pub(crate) fn dot_resume<const R: usize, const C: usize>(
    acc: &mut [[DotAcc; C]; R],
    xs: [&[f64]; R],
    ys: [&[f64]; C],
) {
    const { assert!(R >= 1 && R <= 2 && C >= 1 && C <= 2) };
    debug_assert!(xs.iter().chain(&ys).all(|s| s.len() == xs[0].len()));
    debug_assert_eq!(xs[0].len() % DOT_LANES, 0);
    // Named accumulators (the `R − 1`/`C − 1` ones alias the first when a
    // dimension is 1 and are neither updated nor written back) keep the
    // whole tile in vector registers.
    let (mut a00, mut a01, mut a10, mut a11) =
        (acc[0][0], acc[0][C - 1], acc[R - 1][0], acc[R - 1][C - 1]);
    let len = xs[0].len() / DOT_LANES * DOT_LANES;
    let (x0, x1, y0, y1) = (&xs[0][..len], &xs[R - 1][..len], &ys[0][..len], &ys[C - 1][..len]);
    for k in 0..len / DOT_LANES {
        let b = k * DOT_LANES;
        let (x0, y0) = (&x0[b..b + DOT_LANES], &y0[b..b + DOT_LANES]);
        lanes_mul_add(&mut a00, x0, y0);
        if C == 2 {
            lanes_mul_add(&mut a01, x0, &y1[b..b + DOT_LANES]);
        }
        if R == 2 {
            let x1 = &x1[b..b + DOT_LANES];
            lanes_mul_add(&mut a10, x1, y0);
            if C == 2 {
                lanes_mul_add(&mut a11, x1, &y1[b..b + DOT_LANES]);
            }
        }
    }
    acc[0][0] = a00;
    if C == 2 {
        acc[0][1] = a01;
    }
    if R == 2 {
        acc[1][0] = a10;
        if C == 2 {
            acc[1][1] = a11;
        }
    }
}

/// `a[l] += x[l] · y[l]` on every lane of one 16-element chunk.
#[inline(always)]
fn lanes_mul_add(a: &mut DotAcc, x: &[f64], y: &[f64]) {
    let (x, y): (&DotAcc, &DotAcc) = (x.try_into().unwrap(), y.try_into().unwrap());
    for l in 0..DOT_LANES {
        a[l] += x[l] * y[l];
    }
}

/// Finish `R × C` dots resumed over their 16-aligned prefix: `xs`/`ys`
/// are the remaining (fewer than 16) elements. Whole 4-chunks go to lanes
/// 0–3, the rest to a scalar tail; then each dot's lanes fold as four
/// 4-wide chains.
#[inline(always)]
pub(crate) fn dot_finish<const R: usize, const C: usize>(
    acc: &[[DotAcc; C]; R],
    xs: [&[f64]; R],
    ys: [&[f64]; C],
) -> [[f64; C]; R] {
    let k = xs[0].len();
    debug_assert!(k < DOT_LANES && xs.iter().chain(&ys).all(|s| s.len() == k));
    let (xs, ys) = (xs.map(|s| &s[..k]), ys.map(|s| &s[..k]));
    let mut a = *acc;
    let mut tail = [[0.0; C]; R];
    for b in (0..k / 4 * 4).step_by(4) {
        for (ar, x) in a.iter_mut().zip(xs) {
            for (a, y) in ar.iter_mut().zip(ys) {
                for u in 0..4 {
                    a[u] += x[b + u] * y[b + u];
                }
            }
        }
    }
    for t in k / 4 * 4..k {
        for (tr, x) in tail.iter_mut().zip(xs) {
            for (tail, y) in tr.iter_mut().zip(ys) {
                *tail += x[t] * y[t];
            }
        }
    }
    std::array::from_fn(|r| {
        std::array::from_fn(|c| {
            let a = &a[r][c];
            let fold: [f64; 4] = std::array::from_fn(|u| a[u] + a[4 + u] + a[8 + u] + a[12 + u]);
            fold[0] + fold[1] + fold[2] + fold[3] + tail[r][c]
        })
    })
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm(x: &[f64]) -> f64 {
    norm_sq(x).sqrt()
}

/// `y ← y + a·x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Scale `x` in place by `a`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for v in x {
        *v *= a;
    }
}

/// Numerically-robust 2-norm using the scaled-sum-of-squares trick
/// (LAPACK `dnrm2` style), immune to overflow/underflow of intermediate
/// squares. The Householder baseline uses this for its reflector norms.
pub fn robust_norm(x: &[f64]) -> f64 {
    let mut scale_v = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale_v < a {
                let r = scale_v / a;
                ssq = 1.0 + ssq * r * r;
                scale_v = a;
            } else {
                let r = a / scale_v;
                ssq += r * r;
            }
        }
    }
    scale_v * ssq.sqrt()
}

/// Relative difference `|a − b| / max(|a|, |b|, 1)` — the comparison metric
/// used by the cross-validation tests between SVD implementations.
#[inline]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Lane width of [`rotate_pair`]'s unrolled body. Four doubles fill one
/// AVX2 register (or two NEON registers); the paper's update kernel likewise
/// processes a fixed-width slab of column elements per cycle.
pub const ROTATE_LANES: usize = 4;

/// Apply the plane rotation `[c, s; −s, c]` to two equal-length column
/// slices in place (the paper's eqs. (11)–(12)):
///
/// ```text
/// x' = x·cos − y·sin
/// y' = x·sin + y·cos
/// ```
///
/// The body runs in [`ROTATE_LANES`]-wide chunks with a scalar tail so LLVM
/// reliably autovectorizes it; each element's arithmetic is exactly the
/// two-multiply-one-add/sub expression of the scalar loop, so the result is
/// **bit-identical** to rotating the elements one at a time (no
/// re-association, no FMA contraction — the kernel-compat tests pin this).
///
/// Panics in debug builds on a length mismatch.
#[inline]
pub fn rotate_pair(x: &mut [f64], y: &mut [f64], cos: f64, sin: f64) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let split = n - n % ROTATE_LANES;
    let (xh, xt) = x[..n].split_at_mut(split);
    let (yh, yt) = y[..n].split_at_mut(split);
    for (xs, ys) in xh.chunks_exact_mut(ROTATE_LANES).zip(yh.chunks_exact_mut(ROTATE_LANES)) {
        for l in 0..ROTATE_LANES {
            let a = xs[l];
            let b = ys[l];
            xs[l] = a * cos - b * sin;
            ys[l] = a * sin + b * cos;
        }
    }
    for (a, b) in xt.iter_mut().zip(yt.iter_mut()) {
        let xi = *a;
        let yj = *b;
        *a = xi * cos - yj * sin;
        *b = xi * sin + yj * cos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    /// The accumulation order `dot` keeps, written out as one scalar
    /// loop: lane `k mod 16` over the 16-aligned prefix, 4-row chunks into
    /// lanes 0–3, a scalar tail, then the fixed fold.
    fn dot_reference(x: &[f64], y: &[f64]) -> f64 {
        let (wide, quad) = (x.len() / 16 * 16, x.len() / 4 * 4);
        let mut lanes = [0.0; 16];
        for k in 0..quad {
            lanes[if k < wide { k % 16 } else { k % 4 }] += x[k] * y[k];
        }
        let mut tail = 0.0;
        for k in quad..x.len() {
            tail += x[k] * y[k];
        }
        let fold: Vec<f64> =
            (0..4).map(|u| lanes[u] + lanes[4 + u] + lanes[8 + u] + lanes[12 + u]).collect();
        fold[0] + fold[1] + fold[2] + fold[3] + tail
    }

    #[test]
    fn dot_is_bitwise_the_sixteen_lane_reference() {
        for len in 0..80 {
            let x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
            let y: Vec<f64> = (0..len).map(|i| (i as f64 * 0.11).cos() - 0.4).collect();
            assert_eq!(dot(&x, &y).to_bits(), dot_reference(&x, &y).to_bits(), "len {len}");
        }
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_short_vectors() {
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn robust_norm_handles_extremes() {
        // Plain sum of squares would overflow f64 here.
        let big = [1e200, 1e200];
        assert!((robust_norm(&big) - 1e200 * 2.0f64.sqrt()).abs() / 1e200 < 1e-12);
        // ... and underflow here.
        let small = [1e-200, 1e-200];
        assert!((robust_norm(&small) - 1e-200 * 2.0f64.sqrt()).abs() / 1e-200 < 1e-12);
        assert_eq!(robust_norm(&[]), 0.0);
        assert_eq!(robust_norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn robust_norm_matches_plain_in_normal_range() {
        let x = [3.0, -4.0, 12.0];
        assert!((robust_norm(&x) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn rotate_pair_matches_scalar_loop_bitwise() {
        // Lengths straddling the lane width, including 0 and odd tails.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 13, 64, 65] {
            let mut x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
            let mut y: Vec<f64> = (0..len).map(|i| (i as f64 * 0.11).cos() - 0.4).collect();
            let (mut xs, mut ys) = (x.clone(), y.clone());
            let theta: f64 = 0.71;
            let (c, s) = (theta.cos(), theta.sin());
            rotate_pair(&mut x, &mut y, c, s);
            for (a, b) in xs.iter_mut().zip(ys.iter_mut()) {
                let xi = *a;
                let yj = *b;
                *a = xi * c - yj * s;
                *b = xi * s + yj * c;
            }
            assert_eq!(x, xs, "len {len}");
            assert_eq!(y, ys, "len {len}");
        }
    }

    #[test]
    fn rel_diff_behaviour() {
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert!((rel_diff(100.0, 101.0) - 1.0 / 101.0).abs() < 1e-15);
        // Small absolute values are compared absolutely (denominator clamps at 1).
        assert_eq!(rel_diff(0.0, 1e-3), 1e-3);
    }
}
