//! Error-feedback (residual accumulation) for sparsified SGD.
//!
//! Top-k sparsification discards most gradient coordinates each step. The
//! standard fix — used by DGC (Lin et al., 2018) and analysed by Stich et
//! al. (2018) and Karimireddy et al. (2019) — is to keep the discarded part
//! as a local *residual* and add it back into the next step's gradient
//! before compressing. The paper inherits this mechanism from its TopK-SGD
//! baseline; without it sparsified training at ρ = 0.001 does not converge.
//!
//! Usage per iteration:
//! 1. [`ErrorFeedback::compensate`] — `g += residual` (in place),
//! 2. compress the compensated gradient,
//! 3. [`ErrorFeedback::absorb`] — store `g - transmitted` as the new
//!    residual.

use cloudtrain_tensor::ops;

use crate::SparseGrad;

/// Per-worker residual memory for error-compensated compression.
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// Creates a zeroed residual for gradients of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            residual: vec![0.0; dim],
        }
    }

    /// Gradient dimension this memory was created for.
    pub fn dim(&self) -> usize {
        self.residual.len()
    }

    /// Adds the stored residual into `grad` (step 1 above).
    ///
    /// # Panics
    /// Panics if `grad.len() != self.dim()`.
    pub fn compensate(&self, grad: &mut [f32]) {
        assert_eq!(grad.len(), self.dim(), "compensate: dimension mismatch");
        ops::add_assign(grad, &self.residual);
    }

    /// Records the new residual: the compensated gradient minus what was
    /// actually transmitted (step 3 above).
    ///
    /// # Panics
    /// Panics if `grad.len() != self.dim()` or the selection's dimension
    /// differs.
    pub fn absorb(&mut self, grad: &[f32], transmitted: &SparseGrad) {
        assert_eq!(grad.len(), self.dim(), "absorb: dimension mismatch");
        assert_eq!(
            transmitted.dim,
            self.dim(),
            "absorb: selection dimension mismatch"
        );
        self.residual.copy_from_slice(grad);
        ops::zero_at(&mut self.residual, &transmitted.indices);
    }

    /// Records the residual for a **lossy** transmission:
    /// `grad - densify(transmitted)`.
    ///
    /// With an exact selection (`transmitted.values[j] == grad[indices[j]]`)
    /// this equals [`Self::absorb`]. When the transmitted values were
    /// quantized (or otherwise perturbed), the per-coordinate transmission
    /// error stays in the residual instead of being silently dropped — so
    /// the mass-conservation ledger (`Σ compensated = Σ aggregated +
    /// Σ residual`) holds exactly even for lossy wire formats.
    ///
    /// # Panics
    /// Panics if `grad.len() != self.dim()`, the selection's dimension
    /// differs, or a selection index is out of range.
    pub fn absorb_lossy(&mut self, grad: &[f32], transmitted: &SparseGrad) {
        assert_eq!(grad.len(), self.dim(), "absorb_lossy: dimension mismatch");
        assert_eq!(
            transmitted.dim,
            self.dim(),
            "absorb_lossy: selection dimension mismatch"
        );
        self.residual.copy_from_slice(grad);
        for (v, i) in transmitted.values.iter().zip(&transmitted.indices) {
            self.residual[*i as usize] -= v;
        }
    }

    /// Current residual L2 norm (a convergence diagnostic: bounded residual
    /// norm is the premise of the error-feedback convergence proofs).
    pub fn residual_norm(&self) -> f32 {
        ops::l2_norm(&self.residual)
    }

    /// Read-only view of the residual.
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// Restores a previously captured residual (the inverse of
    /// [`Self::residual`]), so a worker resuming from a sharded checkpoint
    /// continues bitwise-identically instead of restarting error feedback
    /// from zeros.
    ///
    /// # Panics
    /// Panics if `residual.len() != self.dim()`.
    pub fn set_residual(&mut self, residual: &[f32]) {
        assert_eq!(
            residual.len(),
            self.dim(),
            "set_residual: dimension mismatch"
        );
        self.residual.copy_from_slice(residual);
    }

    /// Clears the residual (e.g. when switching to dense aggregation, as the
    /// DAWNBench schedule does after epoch 13).
    pub fn reset(&mut self) {
        ops::fill(&mut self.residual, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::topk_sort;

    #[test]
    fn compensate_then_absorb_conserves_mass() {
        // transmitted + residual must equal the compensated gradient.
        let mut ef = ErrorFeedback::new(6);
        let mut g = vec![5.0, -0.1, 0.2, -4.0, 0.05, 3.0];
        ef.compensate(&mut g);
        let s = topk_sort(&g, 2);
        ef.absorb(&g, &s);
        let mut recon = s.densify();
        ops::add_assign(&mut recon, ef.residual());
        assert_eq!(recon, g);
    }

    #[test]
    fn residual_carries_into_next_step() {
        let mut ef = ErrorFeedback::new(4);
        // Step 1: only the large coordinate is sent; small ones accumulate.
        let mut g1 = vec![10.0, 1.0, 1.0, 1.0];
        ef.compensate(&mut g1);
        let s1 = topk_sort(&g1, 1);
        assert_eq!(s1.indices, vec![0]);
        ef.absorb(&g1, &s1);
        assert_eq!(ef.residual(), &[0.0, 1.0, 1.0, 1.0]);

        // Step 2: the same small gradient again — compensation doubles it.
        let mut g2 = vec![0.0, 1.0, 1.0, 1.0];
        ef.compensate(&mut g2);
        assert_eq!(g2, vec![0.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn eventually_every_coordinate_is_transmitted() {
        // With constant gradients and error feedback, even coordinates
        // outside the top-k must eventually be sent (their residual grows).
        let mut ef = ErrorFeedback::new(3);
        let base = vec![3.0, 2.0, 1.0];
        let mut sent = [false; 3];
        for _ in 0..10 {
            let mut g = base.clone();
            ef.compensate(&mut g);
            let s = topk_sort(&g, 1);
            sent[s.indices[0] as usize] = true;
            ef.absorb(&g, &s);
        }
        assert_eq!(sent, [true, true, true]);
    }

    #[test]
    fn reset_clears_residual() {
        let mut ef = ErrorFeedback::new(2);
        let mut g = vec![1.0, 2.0];
        ef.compensate(&mut g);
        ef.absorb(&g, &topk_sort(&g, 1));
        assert!(ef.residual_norm() > 0.0);
        ef.reset();
        assert_eq!(ef.residual_norm(), 0.0);
    }

    #[test]
    fn set_residual_roundtrips_and_resumes_bitwise() {
        // Capture mid-stream residual, rebuild a fresh ErrorFeedback from
        // it, and check both instances stay bitwise-equal from then on —
        // the checkpoint-resume contract.
        let mut ef = ErrorFeedback::new(4);
        let mut g = vec![10.0, 1.0, -2.0, 1.0];
        ef.compensate(&mut g);
        ef.absorb(&g, &topk_sort(&g, 1));
        let captured: Vec<f32> = ef.residual().to_vec();

        let mut resumed = ErrorFeedback::new(4);
        resumed.set_residual(&captured);
        assert_eq!(resumed.residual(), ef.residual());

        let base = vec![0.5, -1.0, 2.0, 0.25];
        for e in [&mut ef, &mut resumed] {
            let mut g = base.clone();
            e.compensate(&mut g);
            let s = topk_sort(&g, 2);
            e.absorb(&g, &s);
        }
        assert_eq!(resumed.residual(), ef.residual());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn set_residual_dimension_mismatch_panics() {
        let mut ef = ErrorFeedback::new(3);
        ef.set_residual(&[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let ef = ErrorFeedback::new(3);
        let mut g = vec![0.0; 4];
        ef.compensate(&mut g);
    }

    /// The error-feedback cycle rides entirely on the tensor kernels
    /// (`add_assign`, `zero_at`); a multi-round compensate→compress→absorb
    /// cycle must be bitwise identical to a hand-rolled per-element
    /// reference.
    #[test]
    fn cycle_matches_scalar_reference_bitwise() {
        let d = 4 * cloudtrain_tensor::ops::LANES + 5;
        let mut ef = ErrorFeedback::new(d);
        let mut ref_residual = vec![0.0f32; d];
        for round in 0..4u32 {
            let base: Vec<f32> = (0..d)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2654435761).wrapping_add(round);
                    ((h % 2001) as f32 - 1000.0) * 1e-3
                })
                .collect();

            let mut g = base.clone();
            ef.compensate(&mut g);
            let s = topk_sort(&g, d / 3);
            ef.absorb(&g, &s);

            let mut g_ref = base;
            for (gi, ri) in g_ref.iter_mut().zip(&ref_residual) {
                *gi += ri;
            }
            assert_eq!(g, g_ref, "compensated gradients diverged");
            ref_residual.copy_from_slice(&g_ref);
            for &i in &s.indices {
                ref_residual[i as usize] = 0.0;
            }
            assert_eq!(ef.residual(), &ref_residual[..], "residuals diverged");
        }
    }
}
