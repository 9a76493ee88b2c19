//! Result checks. They run outside every timed region; a miss is a failed
//! operation.

use hj_matrix::{norms, Matrix};

/// Largest allowed `|σ_i − σ_i^ref|`, as a share of `σ_max^ref`, against the
/// Householder baseline.
pub const SPECTRUM_RTOL: f64 = 1e-10;

/// Largest allowed relative reconstruction error `‖A − UΣVᵀ‖_F / ‖A‖_F`
/// and largest allowed `max |QᵀQ − I|` for `U` and `V`.
pub const FACTOR_TOL: f64 = 1e-10;

/// The reference spectrum: Householder bidiagonalisation + implicit QR,
/// sorted descending.
pub fn reference_spectrum(a: &Matrix) -> Result<Vec<f64>, String> {
    let mut s =
        hj_baselines::householder::singular_values(a).map_err(|e| format!("reference: {e:?}"))?;
    s.sort_by(|x, y| y.total_cmp(x));
    Ok(s)
}

/// `got` agrees with the reference within [`SPECTRUM_RTOL`]`·σ_max`.
pub fn spectrum_matches(got: &[f64], reference: &[f64]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!("spectrum has {} values, reference {}", got.len(), reference.len()));
    }
    let smax = reference.first().copied().unwrap_or(0.0);
    let worst = got.iter().zip(reference).map(|(g, r)| (g - r).abs()).fold(0.0, f64::max);
    if worst.is_finite() && worst <= SPECTRUM_RTOL * smax {
        Ok(())
    } else {
        Err(format!(
            "spectrum off by {:.3e} of sigma_max (tolerance {SPECTRUM_RTOL:e})",
            worst / smax
        ))
    }
}

/// `U Σ Vᵀ` reconstructs `a` and `U`, `V` have orthonormal columns, all
/// within [`FACTOR_TOL`].
pub fn factors_ok(a: &Matrix, u: &Matrix, sigma: &[f64], v: &Matrix) -> Result<(), String> {
    let recon = norms::reconstruction_error(a, u, sigma, v);
    let ortho_u = norms::orthonormality_error(u);
    let ortho_v = norms::orthonormality_error(v);
    if recon <= FACTOR_TOL && ortho_u <= FACTOR_TOL && ortho_v <= FACTOR_TOL {
        Ok(())
    } else {
        Err(format!(
            "factors: reconstruction {recon:.3e}, U orthonormality {ortho_u:.3e}, V orthonormality {ortho_v:.3e} (tolerance {FACTOR_TOL:e})"
        ))
    }
}

/// `got` and `want` are the same `f64`s, bit for bit.
pub fn bit_identical(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    let same =
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("{what}: not bit-identical to the local result"))
    }
}
