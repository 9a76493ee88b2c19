//! Convergence behaviour across sizes, shapes, orderings, and stopping
//! rules — the integration-level counterpart of the paper's §VI-C.

use hjsvd::core::convergence::{Convergence, MAX_SWEEP_CAP};
use hjsvd::core::{HestenesSvd, SvdOptions};
use hjsvd::matrix::gen;

#[test]
fn mean_abs_covariance_decreases_monotonically() {
    for &n in &[16usize, 48, 96] {
        let a = gen::uniform(n, n, n as u64);
        let sv = HestenesSvd::new(SvdOptions::paper()).singular_values(&a).unwrap();
        for w in sv.history.windows(2) {
            assert!(
                w[1].mean_abs_cov <= w[0].mean_abs_cov * (1.0 + 1e-12),
                "n={n}: sweep {} regressed: {} → {}",
                w[1].sweep,
                w[0].mean_abs_cov,
                w[1].mean_abs_cov
            );
        }
    }
}

#[test]
fn larger_column_dimension_converges_slower() {
    // The paper's Fig. 10 ordering: at a fixed sweep, larger n has larger
    // residual covariance mass (relative to its own start).
    let run = |n: usize| {
        let a = gen::uniform(n, n, 5);
        let sv = HestenesSvd::new(SvdOptions::paper()).singular_values(&a).unwrap();
        let h = &sv.history;
        h[5].mean_abs_cov / h[0].mean_abs_cov.max(1e-300)
    };
    let r32 = run(32);
    let r128 = run(128);
    assert!(
        r128 > r32,
        "relative residual after 6 sweeps must grow with n: n=32 {r32:.3e}, n=128 {r128:.3e}"
    );
}

#[test]
fn row_dimension_barely_affects_convergence() {
    // The paper's Fig. 11: trajectories for fixed n, varying m, are nearly
    // identical. Compare the sweep count needed to converge.
    let sweeps_for = |m: usize| {
        let a = gen::uniform(m, 64, 9);
        HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap().sweeps
    };
    let s64 = sweeps_for(64);
    let s1024 = sweeps_for(1024);
    assert!(
        (s64 as i64 - s1024 as i64).abs() <= 2,
        "sweep counts should be close across m: {s64} vs {s1024}"
    );
}

#[test]
fn threshold_stopping_reaches_requested_precision() {
    let a = gen::uniform(40, 24, 3);
    for tol in [1e-6, 1e-10, 1e-14] {
        let opts =
            SvdOptions { convergence: Convergence::MaxCovariance { tol }, ..Default::default() };
        let sv = HestenesSvd::new(opts).singular_values(&a).unwrap();
        let last = sv.history.last().unwrap();
        let scale = {
            let g = hjsvd::core::GramState::from_matrix(&a);
            g.trace() / 24.0
        };
        assert!(
            last.max_abs_cov <= tol * scale,
            "tol {tol}: final max|cov| {} vs bound {}",
            last.max_abs_cov,
            tol * scale
        );
    }
}

#[test]
fn tighter_tolerance_needs_at_least_as_many_sweeps() {
    let a = gen::uniform(60, 32, 11);
    let sweeps_at = |tol: f64| {
        let opts =
            SvdOptions { convergence: Convergence::MaxCovariance { tol }, ..Default::default() };
        HestenesSvd::new(opts).singular_values(&a).unwrap().sweeps
    };
    assert!(sweeps_at(1e-14) >= sweeps_at(1e-6));
}

#[test]
fn no_rotations_rule_terminates() {
    let a = gen::uniform(30, 16, 13);
    let opts = SvdOptions { convergence: Convergence::NoRotations, ..Default::default() };
    let sv = HestenesSvd::new(opts).singular_values(&a).unwrap();
    assert!(sv.sweeps < 60, "NoRotations must terminate before the hard cap");
    assert_eq!(sv.history.last().unwrap().rotations_applied, 0);
}

#[test]
fn both_orderings_converge_to_same_spectrum() {
    // The cyclic order over A's columns reversed pairs A's own columns in
    // another order of disjoint rounds ((i, j) becomes (n−1−j, n−1−i)); the
    // spectrum must not depend on it.
    let a = gen::uniform(30, 18, 17);
    let mut reversed = a.clone();
    (0..9).for_each(|c| reversed.swap_columns(c, 17 - c));
    let solver = HestenesSvd::new(SvdOptions::default());
    let rr = solver.singular_values(&a).unwrap();
    let rc = solver.singular_values(&reversed).unwrap();
    for (x, y) in rr.values.iter().zip(&rc.values) {
        assert!((x - y).abs() < 1e-10 * x.max(1.0), "{x} vs {y}");
    }
}

#[test]
fn already_diagonal_input_converges_immediately() {
    let a = hjsvd::matrix::Matrix::from_diag(&[5.0, 3.0, 1.0]);
    let sv = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
    assert_eq!(sv.sweeps, 1, "diagonal input needs one (no-op) sweep");
    assert_eq!(sv.values, vec![5.0, 3.0, 1.0]);
}

#[test]
fn convergence_is_seed_robust() {
    // The 6-sweep budget must work across many random instances, not one
    // lucky draw.
    for seed in 0..20 {
        let a = gen::uniform(48, 32, 1000 + seed);
        let sv = HestenesSvd::new(SvdOptions::paper()).singular_values(&a).unwrap();
        let drop = sv.history.last().unwrap().mean_abs_cov / sv.history[0].mean_abs_cov.max(1e-300);
        assert!(drop < 1e-5, "seed {seed}: only dropped to {drop:.3e} after 6 sweeps");
    }
}

#[test]
fn solve_stops_at_the_fixed_point_with_the_same_spectrum() {
    // From sweep 24 on, every pair passes the per-pair guard, yet the largest
    // |D_ij| (5.1e-16) stays above what the default criterion asks for
    // (1e-14·trace/n = 4.0e-16). A sweep that rotates nothing leaves D as
    // it found it, so the solve stops there instead of idling to the cap.
    let a = gen::with_condition_number(128, 128, 1e6, 42);
    let sv = HestenesSvd::new(SvdOptions::default()).singular_values(&a).unwrap();
    assert_eq!(sv.sweeps, 24);
    let (last, busy) = sv.history.split_last().unwrap();
    assert_eq!(last.rotations_applied, 0);
    assert!(busy.iter().all(|r| r.rotations_applied > 0));
    assert!(last.max_abs_cov > 1e-14 * sv.values.iter().map(|s| s * s).sum::<f64>() / 128.0);
    // Running on to the cap (what a fixed sweep count still does) repeats
    // the idle sweep and returns the same spectrum, bit for bit.
    let capped = HestenesSvd::new(SvdOptions {
        convergence: Convergence::FixedSweeps(MAX_SWEEP_CAP),
        ..SvdOptions::default()
    })
    .singular_values(&a)
    .unwrap();
    assert_eq!(capped.sweeps, MAX_SWEEP_CAP);
    assert_eq!(capped.history[..24], sv.history[..]);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&capped.values), bits(&sv.values));
}
