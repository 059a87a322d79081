//! Vectorized Korhonen PDE stencil kernels.
//!
//! The two hot loops of [`crate::sim::EmWire`]'s explicit substep — the
//! face-flux gather and the interior control-volume update — compiled for
//! both AVX2 and plain scalar through [`dh_simd::dispatch!`]. Divisions
//! by the (loop-invariant) mesh spacings are replaced by multiplications
//! with reciprocal tables hoisted once per `advance` call: `vdivpd` is an
//! order of magnitude slower than `vmulpd` and would dominate the
//! vectorized stencil. Both backends execute the identical per-element
//! IEEE sequence, so trajectories are bit-identical under either, and
//! `EmWire::advance_reference` pins them bit for bit.

/// Face fluxes `F[i] = −κ[i]·((σ[i+1] − σ[i])·inv_dx[i] + g[i])` between
/// nodes `i` and `i+1`.
pub(crate) use self::kernels::{face_fluxes, interior_update};

mod kernels {
    dh_simd::dispatch! {
        /// Gathers the face fluxes for one substep.
        pub(crate) fn face_fluxes(
            flux: &mut [f64],
            sigma: &[f64],
            kappa: &[f64],
            g: &[f64],
            inv_face_dx: &[f64],
        ) {
            let n_faces = flux.len();
            assert_eq!(sigma.len(), n_faces + 1);
            assert_eq!(kappa.len(), n_faces);
            assert_eq!(g.len(), n_faces);
            assert_eq!(inv_face_dx.len(), n_faces);
            for i in 0..n_faces {
                flux[i] = -kappa[i] * ((sigma[i + 1] - sigma[i]) * inv_face_dx[i] + g[i]);
            }
        }
    }

    dh_simd::dispatch! {
        /// Applies the interior control-volume update
        /// `σ[i] += −dt·(F[i] − F[i−1])·inv_w[i]` (boundary nodes are
        /// handled separately by the caller).
        pub(crate) fn interior_update(
            sigma: &mut [f64],
            flux: &[f64],
            inv_widths: &[f64],
            dt: f64,
        ) {
            let n = sigma.len();
            assert_eq!(flux.len(), n - 1);
            assert_eq!(inv_widths.len(), n);
            for i in 1..n - 1 {
                sigma[i] += -dt * (flux[i] - flux[i - 1]) * inv_widths[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_are_bit_identical() {
        let n = 181;
        let sigma: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e8).collect();
        let kappa: Vec<f64> = (0..n - 1).map(|i| 1e-11 + i as f64 * 1e-14).collect();
        let g: Vec<f64> = (0..n - 1).map(|i| 1e13 + i as f64 * 1e10).collect();
        let inv_dx: Vec<f64> = (0..n - 1).map(|i| 1.0 / (1e-5 + i as f64 * 1e-8)).collect();
        let inv_w: Vec<f64> = (0..n).map(|i| 1.0 / (1e-5 + i as f64 * 1e-8)).collect();

        let run = || {
            let mut s = sigma.clone();
            let mut flux = vec![0.0; n - 1];
            face_fluxes(&mut flux, &s, &kappa, &g, &inv_dx);
            interior_update(&mut s, &flux, &inv_w, 1e-3);
            (s, flux)
        };
        let (s_auto, f_auto) = run();
        dh_simd::force_scalar(true);
        let (s_scalar, f_scalar) = run();
        dh_simd::force_scalar(false);
        for (a, b) in s_auto.iter().zip(&s_scalar) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in f_auto.iter().zip(&f_scalar) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
