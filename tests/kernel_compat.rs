//! Kernel-compat layer: pins the vectorized kernels against the scalar
//! paths they replaced.
//!
//! Compat policy (also documented in `hj_core::kernel`):
//!
//! * `kernel::batch_params` runs the exact `textbook_params` expression
//!   chain per lane, so it is **bitwise** equal to the scalar kernel — 0 ulp,
//!   well inside the ≤1 ulp budget. The sweep engine computes every
//!   rotation's parameters through it, so this pin guards the engine too.
//!   Against `hardware_params` it inherits the existing textbook↔hardware
//!   pin (≤1e-12 absolute on `cos`/`sin`,
//!   `tests/properties.rs::hardware_equals_textbook`) — the two scalar
//!   formulations legitimately differ by re-association.
//! * `ops::rotate_pair` (lane-chunked + scalar tail) and
//!   `kernel::rotate_packed` (three-region packed walk) keep the per-element
//!   expressions of the scalar loops unchanged, so both are **bitwise**
//!   equal to their references on every length and every pair, aligned or
//!   not.
//!
//! * `Matrix::gram` (cache-blocked, register-tiled) and
//!   `GramState::from_matrix` (its thread split) store, for every entry,
//!   **bitwise** the `ops::dot(col i, col j)` of the per-entry build they
//!   replaced, at any shape and any pool size.
//! * `Matrix::matmul_in_place` (row panels, register tiles) stores, for
//!   every entry, **bitwise** the scalar sum over `k` in order, from zero,
//!   of `b[r, k]·v[k, j]`, whatever the panel and tile edges.
//!
//! All strategies span twelve orders of magnitude in the norms (1e-6..1e6),
//! like the scalar rotation proptests.

use hjsvd::core::kernel::{batch_params, rotate_packed};
use hjsvd::core::rotation::{hardware_params, textbook_params, Rotation};
use hjsvd::core::GramState;
use hjsvd::matrix::{gen, ops, Matrix, PackedSymmetric};
use proptest::prelude::*;

/// A plausible (norm_i, norm_j, cov) triple satisfying Cauchy-Schwarz,
/// spanning twelve orders of magnitude in the norms.
fn gram_pair() -> impl Strategy<Value = (f64, f64, f64)> {
    (1e-6f64..1e6, 1e-6f64..1e6, -0.999f64..0.999)
        .prop_map(|(a, b, frac)| (a, b, frac * (a * b).sqrt()))
}

/// `Vec<_>` strategy: a length drawn from `range`, then that many draws of
/// `inner`. (The vendored proptest stand-in has no `prop::collection`.)
struct VecOf<S>(S, std::ops::Range<usize>);

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.1.clone().generate(rng);
        (0..len).map(|_| self.0.generate(rng)).collect()
    }
}

/// The per-entry Gram build, as bits: one `ops::dot` per packed entry.
fn gram_reference_bits(a: &Matrix) -> Vec<u64> {
    let n = a.cols();
    (0..n).flat_map(|i| (i..n).map(move |j| ops::dot(a.col(i), a.col(j)).to_bits())).collect()
}

/// Bits of `b · v`, column-major, each entry summed over `k` in order from
/// zero: the reference the in-place column product must reproduce.
fn product_reference_bits(b: &Matrix, v: &Matrix) -> Vec<u64> {
    let (m, n) = b.shape();
    let mut out = Vec::with_capacity(m * n);
    for j in 0..n {
        for r in 0..m {
            let mut s = 0.0;
            for k in 0..n {
                s += b.get(r, k) * v.get(k, j);
            }
            out.push(s.to_bits());
        }
    }
    out
}

/// `b ← b · v` through the in-place kernel, as bits.
fn product_bits(b: &Matrix, v: &Matrix) -> Vec<u64> {
    let mut out = b.clone();
    out.matmul_in_place(v).unwrap();
    out.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn bits(d: &PackedSymmetric) -> Vec<u64> {
    d.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Row counts straddling every edge of the blocked Gram build: the dot's
/// 16-row chunk and 4-row tail, the smallest register-tiled height (64),
/// the 1024-row panel, and a tall input several panels deep.
const GRAM_ROWS: [usize; 24] = [
    0, 1, 3, 4, 15, 16, 17, 47, 63, 64, 65, 67, 68, 69, 83, 255, 1023, 1024, 1025, 1027, 1043,
    2048, 2067, 3091,
];

/// Scalar reference for the packed rotation: the pre-kernel `get`/`set`
/// loop over every affected entry of the packed triangle.
fn rotate_packed_reference(d: &mut PackedSymmetric, i: usize, j: usize, rot: &Rotation) {
    let n = d.dim();
    let cov = d.get(i, j);
    let (ni, nj) = (d.get(i, i), d.get(j, j));
    d.set(i, i, ni - rot.t * cov);
    d.set(j, j, nj + rot.t * cov);
    d.set(i, j, 0.0);
    for k in 0..n {
        if k == i || k == j {
            continue;
        }
        let dik = d.get(k, i);
        let djk = d.get(k, j);
        d.set(k, i, dik * rot.cos - djk * rot.sin);
        d.set(k, j, dik * rot.sin + djk * rot.cos);
    }
}

proptest! {
    #[test]
    fn batched_params_are_bitwise_textbook(triples in VecOf(gram_pair(), 0..40)) {
        let ni: Vec<f64> = triples.iter().map(|t| t.0).collect();
        let nj: Vec<f64> = triples.iter().map(|t| t.1).collect();
        let cov: Vec<f64> = triples.iter().map(|t| t.2).collect();
        let mut cos = vec![0.0; triples.len()];
        let mut sin = vec![0.0; triples.len()];
        let mut t = vec![0.0; triples.len()];
        batch_params(&ni, &nj, &cov, &mut cos, &mut sin, &mut t);
        for (k, &(a, b, c)) in triples.iter().enumerate() {
            let scalar = textbook_params(a, b, c);
            prop_assert_eq!(cos[k].to_bits(), scalar.cos.to_bits(), "cos lane {}", k);
            prop_assert_eq!(sin[k].to_bits(), scalar.sin.to_bits(), "sin lane {}", k);
            prop_assert_eq!(t[k].to_bits(), scalar.t.to_bits(), "t lane {}", k);
        }
    }

    #[test]
    fn batched_params_match_hardware_formulation((a, b, c) in gram_pair()) {
        // The batch kernel is textbook bitwise; against the re-associated
        // hardware dataflow it carries the same pin the scalar kernels do.
        let mut cos = [0.0];
        let mut sin = [0.0];
        let mut t = [0.0];
        batch_params(&[a], &[b], &[c], &mut cos, &mut sin, &mut t);
        let hw = hardware_params(a, b, c);
        prop_assert!((cos[0] - hw.cos).abs() < 1e-12, "cos {} vs {}", cos[0], hw.cos);
        prop_assert!((sin[0] - hw.sin).abs() < 1e-12, "sin {} vs {}", sin[0], hw.sin);
    }

    #[test]
    fn batched_params_zero_covariance_is_identity(a in 1e-6f64..1e6, b in 1e-6f64..1e6) {
        let mut cos = [9.0];
        let mut sin = [9.0];
        let mut t = [9.0];
        batch_params(&[a], &[b], &[0.0], &mut cos, &mut sin, &mut t);
        prop_assert_eq!(cos[0], 1.0);
        prop_assert_eq!(sin[0], 0.0);
        prop_assert_eq!(t[0], 0.0);
    }

    #[test]
    fn paired_rotate_is_bitwise_scalar_on_any_length(
        len in 0usize..130,
        seed in 0u64..500,
        (a, b, c) in gram_pair(),
    ) {
        // Odd, prime, and non-multiple-of-lane lengths all take the scalar
        // tail; the chunked head must still produce the scalar loop's bits.
        let rot = textbook_params(a, b, c);
        let src = gen::uniform(len.max(1), 2, seed);
        let mut x: Vec<f64> = src.col(0)[..len].to_vec();
        let mut y: Vec<f64> = src.col(1)[..len].to_vec();
        let mut xs = x.clone();
        let mut ys = y.clone();
        ops::rotate_pair(&mut x, &mut y, rot.cos, rot.sin);
        for (p, q) in xs.iter_mut().zip(ys.iter_mut()) {
            let (xi, yj) = (*p, *q);
            *p = xi * rot.cos - yj * rot.sin;
            *q = xi * rot.sin + yj * rot.cos;
        }
        for k in 0..len {
            prop_assert_eq!(x[k].to_bits(), xs[k].to_bits(), "x[{}] at len {}", k, len);
            prop_assert_eq!(y[k].to_bits(), ys[k].to_bits(), "y[{}] at len {}", k, len);
        }
    }

    #[test]
    fn packed_rotation_is_bitwise_scalar_reference(
        n in 2usize..24,
        pair in 0usize..1000,
        seed in 0u64..300,
    ) {
        let pairs = n * (n - 1) / 2;
        let mut k = pair % pairs;
        let (mut i, mut j) = (0, 1);
        'outer: for p in 0..n {
            for q in (p + 1)..n {
                if k == 0 { i = p; j = q; break 'outer; }
                k -= 1;
            }
        }
        let a = gen::uniform(2 * n + 1, n, seed);
        let g = GramState::from_matrix(&a);
        let rot = textbook_params(g.norm_sq(i), g.norm_sq(j), g.covariance(i, j));
        let mut fast = g.packed().clone();
        let mut slow = g.packed().clone();
        rotate_packed(&mut fast, i, j, &rot);
        rotate_packed_reference(&mut slow, i, j, &rot);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "pair ({}, {}) n {}", i, j, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn blocked_gram_is_bitwise_per_entry_dot(
        pick in 0usize..GRAM_ROWS.len(),
        n in 1usize..34,
        seed in 0u64..1000,
    ) {
        // n up to 33 cuts the triangle into several row tiles with odd
        // (1-wide) register-tile edges.
        let a = gen::uniform(GRAM_ROWS[pick], n, seed);
        prop_assert_eq!(bits(&a.gram()), gram_reference_bits(&a), "{}x{}", a.rows(), n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn column_product_is_bitwise_the_ordered_sum(
        m in 1usize..70,
        n in 1usize..20,
        seed in 0u64..1000,
    ) {
        // m up to 69 leaves ragged 16-row panels, n up to 19 ragged
        // 4-column tiles; m < n and n = 1 are in range.
        let b = gen::uniform(m, n, seed);
        let v = gen::uniform(n, n, seed + 1);
        prop_assert_eq!(product_bits(&b, &v), product_reference_bits(&b, &v), "{}x{}", m, n);
    }
}

/// Panel and tile edges named one by one, plus a matrix wider than the
/// product's stack panel (its heap path).
#[test]
fn column_product_covers_panel_and_tile_edges() {
    let shapes = [(16, 4), (32, 8), (17, 5), (15, 3), (1, 1), (40, 1), (3, 9), (2, 37), (40, 300)];
    for (m, n) in shapes {
        let b = gen::uniform(m, n, (m * n) as u64);
        let v = gen::random_orthonormal(n, n, (m + n) as u64);
        assert_eq!(product_bits(&b, &v), product_reference_bits(&b, &v), "{m}x{n}");
    }
    let mut b = gen::uniform(4, 3, 1);
    assert!(b.matmul_in_place(&Matrix::zeros(3, 4)).is_err(), "V must be square");
    assert!(b.matmul_in_place(&Matrix::zeros(4, 4)).is_err(), "V must match B's columns");
}

/// Past 256 columns a tile pair no longer spans a whole triangle row, so
/// the column tiles split it; every entry keeps its per-entry bits.
#[test]
fn blocked_gram_crosses_column_tiles_bitwise() {
    for (m, n) in [(65, 513), (1041, 300)] {
        let a = gen::uniform(m, n, (m * n) as u64);
        assert_eq!(bits(&a.gram()), gram_reference_bits(&a), "{m}x{n}");
    }
}

/// `GramState::from_matrix` (the build every solve path uses) must store
/// the per-entry dot's bits whatever pool it runs in.
#[test]
fn gram_state_is_bitwise_in_pools_of_1_and_4_threads() {
    for (m, n) in [(1100, 48), (4101, 37), (300, 96)] {
        let a = gen::uniform(m, n, (m + n) as u64);
        let want = gram_reference_bits(&a);
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let g = pool.install(|| GramState::from_matrix(&a));
            assert_eq!(bits(g.packed()), want, "{m}x{n} at {threads} threads");
        }
    }
}
