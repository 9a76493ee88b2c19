//! Property tests at the edges of f64: column scales spanning
//! `1e-150..1e150`, rank-deficient inputs, duplicated columns — on the
//! sweep engine and, where spectra are compared, the SoA batch engine. The
//! contract under test is the guarded-numerics guarantee:
//! the guarded solver either converges with an entirely finite
//! factorization or fails loudly with a structured error. It never returns
//! NaN, and it never returns silently wrong values.

use hjsvd::core::{BatchDriver, BatchWorkspace, HestenesSvd, SvdOptions};
use hjsvd::matrix::{gen, Matrix};
use proptest::prelude::*;

/// Deterministic per-column decimal exponents in `[-150, 150]` from a seed.
fn column_exponents(seed: u64, n: usize) -> Vec<i32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 301) as i32 - 150
        })
        .collect()
}

fn scale_columns(a: &mut Matrix, exps: &[i32]) {
    for (k, &e) in exps.iter().enumerate() {
        let s = 10f64.powi(e);
        for v in a.col_mut(k) {
            *v *= s;
        }
    }
}

/// `Ok` must mean *every* output value is finite and the spectrum is sorted
/// descending and non-negative; anything else is only acceptable as an `Err`.
fn assert_finite_or_loud(a: &Matrix) -> Result<(), TestCaseError> {
    let solver = HestenesSvd::new(SvdOptions::default());
    match solver.decompose(a) {
        Err(_) => {} // loud failure is a valid outcome at the extremes
        Ok(svd) => {
            prop_assert!(
                svd.singular_values.iter().all(|v| v.is_finite() && *v >= 0.0),
                "non-finite or negative σ: {:?}",
                svd.singular_values
            );
            prop_assert!(
                svd.singular_values.windows(2).all(|w| w[0] >= w[1]),
                "σ not sorted descending"
            );
            prop_assert!(svd.u.as_slice().iter().all(|v| v.is_finite()), "NaN/∞ in U");
            prop_assert!(svd.v.as_slice().iter().all(|v| v.is_finite()), "NaN/∞ in V");
        }
    }
    // Values-only path: same solve, same guarantee.
    match solver.singular_values(a) {
        Err(_) => {}
        Ok(sv) => {
            prop_assert!(
                sv.values.iter().all(|v| v.is_finite() && *v >= 0.0),
                "values-only path produced non-finite σ"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn extreme_column_scales_never_yield_nan(
        (seed, n, extra_rows) in (any::<u64>(), 3usize..8, 1usize..12)
    ) {
        let m = n + extra_rows;
        let mut a = gen::uniform(m, n, seed);
        scale_columns(&mut a, &column_exponents(seed, n));
        assert_finite_or_loud(&a)?;
    }

    #[test]
    fn rank_deficient_extremes_never_yield_nan(
        (seed, n, extra_rows) in (any::<u64>(), 4usize..8, 1usize..10)
    ) {
        let m = n + extra_rows;
        let mut a = gen::uniform(m, n, seed);
        scale_columns(&mut a, &column_exponents(seed, n));
        // Duplicate a scaled column and zero another: rank ≤ n − 2, with
        // exactly repeated columns (the hardest case for a Jacobi pair —
        // the rotation angle is ±45° every visit).
        let dup = a.col(0).to_vec();
        a.col_mut(1).copy_from_slice(&dup);
        for v in a.col_mut(n - 1) {
            *v = 0.0;
        }
        assert_finite_or_loud(&a)?;
    }

    #[test]
    fn engines_agree_on_the_spectrum_when_all_converge(
        (seed, n) in (any::<u64>(), 3usize..7)
    ) {
        // Exponent span narrowed to ±75 (inside the prescaler's bit-exact
        // window): when the sweep engine and the SoA batch engine both
        // converge, they must agree — the spectrum is a property of the
        // input, not of the engine's arithmetic.
        let mut a = gen::uniform(n + 8, n, seed);
        let exps: Vec<i32> = column_exponents(seed, n).iter().map(|e| e / 2).collect();
        scale_columns(&mut a, &exps);
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch =
            BatchDriver::new(&solver).solve(&mut BatchWorkspace::new(), &[a.clone(), a.clone()]);
        let spectra: Vec<Vec<f64>> = std::iter::once(solver.singular_values(&a))
            .chain(batch)
            .filter_map(|sv| sv.ok().map(|sv| sv.values))
            .collect();
        for pair in spectra.windows(2) {
            let smax = pair[0].first().copied().unwrap_or(0.0).max(f64::MIN_POSITIVE);
            for (x, y) in pair[0].iter().zip(&pair[1]) {
                prop_assert!(
                    (x - y).abs() <= 1e-10 * smax,
                    "engines disagree: {x} vs {y} (σmax {smax})"
                );
            }
        }
    }
}
