//! Kernel-compat layer: pins the vectorized kernels introduced for the
//! engine-inversion fix against the scalar paths they replaced.
//!
//! Compat policy (also documented in `hj_core::kernel`):
//!
//! * `kernel::batch_params` runs the exact `textbook_params` expression
//!   chain per lane, so it is **bitwise** equal to the scalar kernel — 0 ulp,
//!   well inside the ≤1 ulp budget. Against `hardware_params` it inherits
//!   the existing textbook↔hardware pin (≤1e-12 absolute on `cos`/`sin`,
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
//!
//! All strategies span twelve orders of magnitude in the norms (1e-6..1e6),
//! like the scalar rotation proptests.

use hjsvd::core::kernel::{batch_params, rotate_packed};
use hjsvd::core::rotation::{hardware_params, textbook_params, Rotation};
use hjsvd::core::{EngineKind, GramState, HestenesSvd, SvdOptions};
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_fast_path_equals_sequential_bitwise(seed in 0u64..60, n in 2usize..20) {
        // Engine equivalence over the vectorized paths: under `for_dim`
        // every n here fits one tile, and the fast path must reproduce the
        // sequential engine's bits exactly — values, U, and V.
        let a = gen::uniform(2 * n + 3, n, seed);
        let seq = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        let blk =
            HestenesSvd::new(SvdOptions { engine: EngineKind::Blocked, ..Default::default() })
                .decompose(&a)
                .unwrap();
        prop_assert_eq!(&seq.singular_values, &blk.singular_values);
        prop_assert_eq!(seq.u.as_slice(), blk.u.as_slice());
        prop_assert_eq!(seq.v.as_slice(), blk.v.as_slice());
        prop_assert_eq!(blk.stats.tile_refills, 0, "single tile must never refill");
    }

    #[test]
    fn parallel_engine_matches_sequential_bitwise_on_one_thread(seed in 0u64..60, n in 2usize..16) {
        // The 1-thread fallback is the sequential engine, bit for bit. On
        // wider pools the engines legitimately differ in rounding, so this
        // pin only applies where the fallback engages.
        let a = gen::uniform(2 * n + 1, n, seed);
        let par =
            HestenesSvd::new(SvdOptions { engine: EngineKind::Parallel, ..Default::default() })
                .decompose(&a)
                .unwrap();
        if par.stats.threads != 1 {
            return Ok(());
        }
        let seq = HestenesSvd::new(SvdOptions::default()).decompose(&a).unwrap();
        prop_assert_eq!(&seq.singular_values, &par.singular_values);
        prop_assert_eq!(seq.u.as_slice(), par.u.as_slice());
        prop_assert_eq!(seq.v.as_slice(), par.v.as_slice());
        prop_assert_eq!(par.stats.parallel_dispatches, 0);
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
