//! Ridge linear regression from COVAR payloads.
//!
//! The training dataset is the join result, but it is never materialized:
//! the gradient of the ridge objective only needs `X^T X`, `X^T y` and the
//! tuple count, all of which are read off the (generalized) cofactor payload
//! maintained by the engine ([`crate::covar::DenseCovar`]).
//!
//! Two solvers are provided:
//!
//! * [`RidgeSolver::solve_closed_form`] — Cholesky solve of
//!   `(X^T X + λ I) θ = X^T y` (the intercept is not regularized),
//! * [`RidgeSolver::solve_gradient_descent`] — batch gradient descent with a
//!   warm start, matching the demo's behaviour of resuming convergence from
//!   the previous parameters after every bulk of updates; it descends in
//!   standardized coordinates built from the same moments, so features of
//!   any scale converge at one step size.

use crate::covar::DenseCovar;
use crate::linalg::{matvec, norm2, solve_spd};
use fivm_common::{FivmError, Result};

/// A trained ridge regression model over an expanded feature space.
#[derive(Clone, Debug, PartialEq)]
pub struct RidgeModel {
    /// Model parameters, aligned with the columns of the feature space
    /// (index 0 is the intercept).
    pub params: Vec<f64>,
    /// Column names, aligned with `params`.
    pub feature_names: Vec<String>,
    /// Training objective value (mean squared error + ridge penalty).
    pub objective: f64,
    /// Number of gradient-descent iterations performed (0 for closed form).
    pub iterations: usize,
}

impl RidgeModel {
    /// Predicts the label for a dense feature vector laid out like the
    /// feature space (the intercept column must be 1).
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.params
            .iter()
            .zip(features.iter())
            .map(|(p, x)| p * x)
            .sum()
    }
}

/// Configuration of the ridge solvers.
#[derive(Clone, Debug, PartialEq)]
pub struct RidgeSolver {
    /// Ridge regularization strength λ.
    pub lambda: f64,
    /// Gradient-descent step size, as a fraction of `1 / L` where `L`
    /// bounds the curvature of the standardized problem (any value in
    /// `(0, 2)` converges).
    pub learning_rate: f64,
    /// Maximum gradient-descent iterations per call.
    pub max_iterations: usize,
    /// Convergence threshold on the norm of the standardized gradient
    /// (relative to the count).
    pub tolerance: f64,
}

impl Default for RidgeSolver {
    fn default() -> Self {
        RidgeSolver {
            lambda: 1e-3,
            learning_rate: 1.0,
            max_iterations: 10_000,
            tolerance: 1e-9,
        }
    }
}

impl RidgeSolver {
    /// A solver with the given regularization and default descent settings.
    pub fn with_lambda(lambda: f64) -> Self {
        RidgeSolver {
            lambda,
            ..Default::default()
        }
    }

    /// The ridge objective `(‖y - Xθ‖² + λ‖θ₋₀‖²) / N` computed from the
    /// summary.
    pub fn objective(&self, covar: &DenseCovar, params: &[f64]) -> f64 {
        let n = covar.features.len();
        let xtx_theta = matvec(&covar.xtx, params, n);
        let mut quad = 0.0;
        let mut lin = 0.0;
        for i in 0..n {
            quad += params[i] * xtx_theta[i];
            lin += params[i] * covar.xty[i];
        }
        let penalty: f64 = params.iter().skip(1).map(|p| p * p).sum::<f64>() * self.lambda;
        let count = covar.count.max(1.0);
        (covar.yty - 2.0 * lin + quad + penalty) / count
    }

    /// Solves the normal equations `(X^T X + λ I) θ = X^T y` exactly.
    pub fn solve_closed_form(&self, covar: &DenseCovar) -> Result<RidgeModel> {
        if covar.count <= 0.0 {
            return Err(FivmError::Numerical(
                "cannot train a model on an empty training dataset".into(),
            ));
        }
        let n = covar.features.len();
        let mut a = covar.xtx.clone();
        for i in 1..n {
            a[i * n + i] += self.lambda;
        }
        // A tiny jitter on the intercept keeps the system positive definite
        // even for degenerate data.
        a[0] += 1e-12;
        let params = solve_spd(&a, &covar.xty, n)?;
        let objective = self.objective(covar, &params);
        Ok(RidgeModel {
            params,
            feature_names: (0..n).map(|i| covar.features.column_name(i)).collect(),
            objective,
            iterations: 0,
        })
    }

    /// Runs batch gradient descent, optionally warm-starting from previous
    /// parameters (the demo resumes convergence after every update bulk).
    ///
    /// The descent runs in standardized coordinates: every non-intercept
    /// column `x_j` becomes `(x_j − μ_j) / σ_j`, with the means and
    /// variances read off `xtx` (no data pass; a constant column is left
    /// as it is).  That is a linear change of variables `θ = A z`, and the
    /// objective — penalty included — is the same function of `θ`, so the
    /// minimizer is the one [`RidgeSolver::solve_closed_form`] finds.  In
    /// `z` the curvature has a unit diagonal and no intercept coupling, so
    /// one step size, `learning_rate / L` with `L` the curvature's largest
    /// absolute row sum, suits every feature whatever its scale.
    pub fn solve_gradient_descent(
        &self,
        covar: &DenseCovar,
        warm_start: Option<&[f64]>,
    ) -> Result<RidgeModel> {
        if covar.count <= 0.0 {
            return Err(FivmError::Numerical(
                "cannot train a model on an empty training dataset".into(),
            ));
        }
        let n = covar.features.len();
        let count = covar.count;
        // Second moments E[x_i x_j]; row 0 is the intercept, so E[x_j] = m(0, j).
        let m = |i: usize, j: usize| covar.xtx[i * n + j] / count;
        let (shift, scale): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|j| {
                let var = m(j, j) - m(0, j) * m(0, j);
                if j > 0 && var > 1e-12 * m(j, j) {
                    (m(0, j), var.sqrt())
                } else {
                    (0.0, 1.0)
                }
            })
            .unzip();
        // The standardized problem: curvature H = Aᵀ(XᵀX + λP)A / N and
        // right-hand side Aᵀ Xᵀy / N, column j of A being
        // (e_j − shift_j e_0) / scale_j.
        let mut h = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                h[i * n + j] = (m(i, j) - shift[i] * m(0, j) - shift[j] * m(i, 0)
                    + shift[i] * shift[j] * m(0, 0))
                    / (scale[i] * scale[j]);
            }
            if i > 0 {
                h[i * n + i] += self.lambda / (count * scale[i] * scale[i]);
            }
        }
        let rhs: Vec<f64> = (0..n)
            .map(|j| (covar.xty[j] - shift[j] * covar.xty[0]) / (count * scale[j]))
            .collect();
        let curvature = (0..n)
            .map(|i| h[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum::<f64>())
            .fold(f64::MIN_POSITIVE, f64::max);
        let step = self.learning_rate / curvature;

        // z = A⁻¹ θ.
        let mut z = match warm_start {
            Some(p) if p.len() == n => p.to_vec(),
            _ => vec![0.0; n],
        };
        for j in 1..n {
            z[0] += shift[j] * z[j];
            z[j] *= scale[j];
        }
        let mut iterations = 0;
        for _ in 0..self.max_iterations {
            let mut grad = matvec(&h, &z, n);
            for (g, r) in grad.iter_mut().zip(&rhs) {
                *g -= r;
            }
            if norm2(&grad) < self.tolerance {
                break;
            }
            for (zi, g) in z.iter_mut().zip(&grad) {
                *zi -= step * g;
            }
            iterations += 1;
        }
        // θ = A z.
        for j in 1..n {
            z[j] /= scale[j];
            z[0] -= shift[j] * z[j];
        }
        let objective = self.objective(covar, &z);
        Ok(RidgeModel {
            params: z,
            feature_names: (0..n).map(|i| covar.features.column_name(i)).collect(),
            objective,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_ring::{Cofactor, Ring};

    /// Builds a cofactor payload for rows generated by a known linear model
    /// `y = 2 + 3·x1 - x2` (no noise), attributes (x1, x2, y).
    fn synthetic_cofactor() -> Cofactor {
        let mut acc = Cofactor::zero();
        for i in 0..40 {
            let x1 = (i % 7) as f64;
            let x2 = ((i * 3) % 5) as f64;
            let y = 2.0 + 3.0 * x1 - x2;
            let t = Cofactor::lift(3, 0, x1)
                .mul(&Cofactor::lift(3, 1, x2))
                .mul(&Cofactor::lift(3, 2, y));
            acc.add_assign(&t);
        }
        acc
    }

    fn names() -> Vec<String> {
        vec!["x1".into(), "x2".into(), "y".into()]
    }

    #[test]
    fn closed_form_recovers_generating_model() {
        let covar = DenseCovar::from_cofactor(&synthetic_cofactor(), &names(), 2).unwrap();
        let model = RidgeSolver::with_lambda(1e-9)
            .solve_closed_form(&covar)
            .unwrap();
        assert!((model.params[0] - 2.0).abs() < 1e-5, "{:?}", model.params);
        assert!((model.params[1] - 3.0).abs() < 1e-5);
        assert!((model.params[2] + 1.0).abs() < 1e-5);
        assert!(model.objective < 1e-8);
        assert_eq!(model.feature_names[0], "(intercept)");
        assert_eq!(model.iterations, 0);
        // Prediction uses the intercept column.
        let pred = model.predict(&[1.0, 2.0, 1.0]);
        assert!((pred - (2.0 + 6.0 - 1.0)).abs() < 1e-4);
    }

    #[test]
    fn gradient_descent_converges_to_closed_form() {
        let covar = DenseCovar::from_cofactor(&synthetic_cofactor(), &names(), 2).unwrap();
        let solver = RidgeSolver {
            lambda: 1e-6,
            learning_rate: 0.5,
            max_iterations: 50_000,
            tolerance: 1e-12,
        };
        let exact = solver.solve_closed_form(&covar).unwrap();
        let gd = solver.solve_gradient_descent(&covar, None).unwrap();
        for (a, b) in exact.params.iter().zip(gd.params.iter()) {
            assert!((a - b).abs() < 1e-4, "exact={exact:?} gd={gd:?}");
        }
        assert!(gd.iterations > 0);
    }

    #[test]
    fn warm_start_resumes_quickly() {
        let covar = DenseCovar::from_cofactor(&synthetic_cofactor(), &names(), 2).unwrap();
        let solver = RidgeSolver {
            lambda: 1e-6,
            learning_rate: 0.5,
            max_iterations: 200_000,
            tolerance: 1e-10,
        };
        let cold = solver.solve_gradient_descent(&covar, None).unwrap();
        // Re-solving from the converged parameters takes (almost) no steps.
        let warm = solver
            .solve_gradient_descent(&covar, Some(&cold.params))
            .unwrap();
        assert!(warm.iterations <= cold.iterations / 10 + 1);
    }

    /// A warm start after a bulk of updates converges in a handful of
    /// iterations to the closed form, although the features' scales differ
    /// by 10⁶ (`x1` in the thousands, `x2` in the thousandths).
    #[test]
    fn warm_start_converges_across_feature_scales() {
        let cofactor = |rows: std::ops::Range<i32>| {
            let mut acc = Cofactor::zero();
            for i in rows {
                let x1 = 1000.0 * (i % 7) as f64;
                let x2 = 0.001 * ((i * 3) % 5) as f64;
                let noise = 0.01 * ((i * 11) % 13) as f64;
                let y = 2.0 + 0.003 * x1 - 400.0 * x2 + noise;
                acc.add_assign(
                    &Cofactor::lift(3, 0, x1)
                        .mul(&Cofactor::lift(3, 1, x2))
                        .mul(&Cofactor::lift(3, 2, y)),
                );
            }
            DenseCovar::from_cofactor(&acc, &names(), 2).unwrap()
        };
        let solver = RidgeSolver::default();
        let before = solver.solve_closed_form(&cofactor(0..400)).unwrap();
        let after = cofactor(0..500);
        let exact = solver.solve_closed_form(&after).unwrap();
        let warm = solver
            .solve_gradient_descent(&after, Some(&before.params))
            .unwrap();
        assert!(warm.iterations < 100, "{} iterations", warm.iterations);
        for (a, b) in warm.params.iter().zip(&exact.params) {
            assert!(
                (a - b).abs() <= 1e-6 * b.abs(),
                "gd={warm:?} exact={exact:?}"
            );
        }
    }

    #[test]
    fn ridge_penalty_shrinks_parameters() {
        let covar = DenseCovar::from_cofactor(&synthetic_cofactor(), &names(), 2).unwrap();
        let small = RidgeSolver::with_lambda(1e-9)
            .solve_closed_form(&covar)
            .unwrap();
        let large = RidgeSolver::with_lambda(1e4)
            .solve_closed_form(&covar)
            .unwrap();
        let norm = |m: &RidgeModel| m.params.iter().skip(1).map(|p| p * p).sum::<f64>();
        assert!(norm(&large) < norm(&small));
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let covar = DenseCovar::from_cofactor(&Cofactor::zero(), &names(), 2).unwrap();
        assert!(RidgeSolver::default().solve_closed_form(&covar).is_err());
        assert!(RidgeSolver::default()
            .solve_gradient_descent(&covar, None)
            .is_err());
    }
}
