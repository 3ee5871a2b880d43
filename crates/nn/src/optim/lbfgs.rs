//! Limited-memory BFGS (paper reference [34]).
//!
//! The reference DRIA implementation performs its gradient-matching descent
//! with L-BFGS (paper §8.1). This module provides a self-contained
//! minimiser for black-box objectives `f: ℝⁿ → ℝ` with caller-supplied
//! gradients, using the classic two-loop recursion and a backtracking
//! Armijo line search.

use gradsec_tensor::Tensor;

use crate::{NnError, Result};

/// Configuration for [`minimize`].
#[derive(Debug, Clone, Copy)]
pub struct LbfgsConfig {
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// History length `m` (number of curvature pairs kept).
    pub history: usize,
    /// Convergence threshold on the gradient's Euclidean norm.
    pub grad_tol: f32,
    /// Initial step length tried by the line search.
    pub initial_step: f32,
    /// Backtracking shrink factor in `(0, 1)`.
    pub backtrack: f32,
    /// Armijo sufficient-decrease constant in `(0, 1)`.
    pub armijo_c: f32,
    /// Maximum backtracking steps per iteration.
    pub max_line_search: usize,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        LbfgsConfig {
            max_iters: 100,
            history: 10,
            grad_tol: 1e-6,
            initial_step: 1.0,
            backtrack: 0.5,
            armijo_c: 1e-4,
            max_line_search: 20,
        }
    }
}

/// Outcome of an L-BFGS run.
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// The minimiser found.
    pub x: Tensor,
    /// Objective value at `x`.
    pub value: f32,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Whether the gradient-norm tolerance was reached.
    pub converged: bool,
}

/// Minimises `f` starting from `x0`.
///
/// The objective returns `(value, gradient)`; the gradient must have the
/// same shape as `x0`.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for non-positive iteration counts, empty
/// starting points, or an objective returning a wrongly-shaped gradient.
pub fn minimize<F>(f: F, x0: &Tensor, cfg: &LbfgsConfig) -> Result<LbfgsResult>
where
    F: Fn(&Tensor) -> (f32, Tensor),
{
    if cfg.max_iters == 0 || cfg.history == 0 {
        return Err(NnError::BadConfig {
            reason: "lbfgs max_iters and history must be positive".to_owned(),
        });
    }
    if x0.numel() == 0 {
        return Err(NnError::BadConfig {
            reason: "lbfgs starting point is empty".to_owned(),
        });
    }
    let n = x0.numel();
    let mut x = x0.clone();
    let (mut fx, mut grad) = f(&x);
    if grad.numel() != n {
        return Err(NnError::BadConfig {
            reason: format!(
                "objective returned gradient of {} elements for {n}-element x",
                grad.numel()
            ),
        });
    }
    // Curvature pairs (s_k, y_k, ρ_k), most recent last.
    let mut s_hist: Vec<Vec<f32>> = Vec::new();
    let mut y_hist: Vec<Vec<f32>> = Vec::new();
    let mut rho_hist: Vec<f32> = Vec::new();

    let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };

    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..cfg.max_iters {
        iterations += 1;
        let gnorm = grad.norm();
        if gnorm <= cfg.grad_tol {
            converged = true;
            break;
        }
        // Two-loop recursion: d = −H·∇f.
        let mut q: Vec<f32> = grad.data().to_vec();
        let k = s_hist.len();
        let mut alphas = vec![0.0f32; k];
        for i in (0..k).rev() {
            let a = rho_hist[i] * dot(&s_hist[i], &q);
            alphas[i] = a;
            for (qj, yj) in q.iter_mut().zip(&y_hist[i]) {
                *qj -= a * yj;
            }
        }
        // Initial Hessian scaling γ = sᵀy / yᵀy of the newest pair.
        if let (Some(s), Some(y)) = (s_hist.last(), y_hist.last()) {
            let sy = dot(s, y);
            let yy = dot(y, y);
            if yy > 0.0 && sy > 0.0 {
                let gamma = sy / yy;
                for qj in q.iter_mut() {
                    *qj *= gamma;
                }
            }
        }
        for i in 0..k {
            let beta = rho_hist[i] * dot(&y_hist[i], &q);
            for (qj, sj) in q.iter_mut().zip(&s_hist[i]) {
                *qj += sj * (alphas[i] - beta);
            }
        }
        // Direction d = −q; Armijo backtracking from the initial step.
        let dir_dot_grad = -dot(&q, grad.data());
        if dir_dot_grad >= 0.0 {
            // Not a descent direction (can happen with noisy objectives):
            // fall back to steepest descent.
            q.copy_from_slice(grad.data());
        }
        let descent = (-dot(&q, grad.data())).min(-f32::EPSILON);
        // Weak-Wolfe line search by bisection bracketing: Armijo for
        // sufficient decrease plus a curvature condition, which guarantees
        // sᵀy > 0 so every accepted step yields a usable curvature pair
        // (Armijo alone lets the history go stale and the search crawl).
        const WOLFE_C2: f32 = 0.9;
        let mut lo = 0.0f32;
        let mut hi = f32::INFINITY;
        let mut step = cfg.initial_step;
        let mut accepted = false;
        let mut fallback: Option<(Tensor, f32, Tensor)> = None;
        let mut new_x = x.clone();
        let mut new_fx = fx;
        let mut new_grad = grad.clone();
        for _ in 0..cfg.max_line_search {
            for ((nx, &xi), &qi) in new_x.data_mut().iter_mut().zip(x.data()).zip(q.iter()) {
                *nx = xi - step * qi;
            }
            let (val, g) = f(&new_x);
            let armijo_ok = val <= fx + cfg.armijo_c * step * descent;
            if !armijo_ok {
                // Too long: insufficient decrease.
                hi = step;
                step = 0.5 * (lo + hi);
                continue;
            }
            // Armijo holds — remember this point in case curvature never does.
            fallback = Some((new_x.clone(), val, g.clone()));
            let new_dir_deriv = -dot(&q, g.data());
            if new_dir_deriv < WOLFE_C2 * descent {
                // Too short: directional derivative still strongly negative.
                lo = step;
                step = if hi.is_finite() {
                    0.5 * (lo + hi)
                } else {
                    2.0 * step
                };
                continue;
            }
            new_fx = val;
            new_grad = g;
            accepted = true;
            break;
        }
        if !accepted {
            match fallback {
                // Settle for the best Armijo point found.
                Some((fx_x, fx_val, fx_g)) => {
                    new_x = fx_x;
                    new_fx = fx_val;
                    new_grad = fx_g;
                }
                // No decrease found at all — the local model is exhausted.
                None => break,
            }
        }
        // Store the curvature pair.
        let s: Vec<f32> = new_x
            .data()
            .iter()
            .zip(x.data())
            .map(|(a, b)| a - b)
            .collect();
        let y: Vec<f32> = new_grad
            .data()
            .iter()
            .zip(grad.data())
            .map(|(a, b)| a - b)
            .collect();
        let sy = dot(&s, &y);
        if sy > 1e-10 {
            if s_hist.len() == cfg.history {
                s_hist.remove(0);
                y_hist.remove(0);
                rho_hist.remove(0);
            }
            rho_hist.push(1.0 / sy);
            s_hist.push(s);
            y_hist.push(y);
        }
        x = new_x.clone();
        fx = new_fx;
        grad = new_grad;
    }
    Ok(LbfgsResult {
        x,
        value: fx,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        // f(x) = Σ (x_i − i)²
        let f = |x: &Tensor| -> (f32, Tensor) {
            let mut val = 0.0;
            let mut g = Tensor::zeros(x.dims());
            for (i, (&xi, gi)) in x.data().iter().zip(g.data_mut()).enumerate() {
                let d = xi - i as f32;
                val += d * d;
                *gi = 2.0 * d;
            }
            (val, g)
        };
        let x0 = Tensor::zeros(&[5]);
        let res = minimize(f, &x0, &LbfgsConfig::default()).unwrap();
        assert!(res.converged, "did not converge: {res:?}");
        for (i, &xi) in res.x.data().iter().enumerate() {
            assert!((xi - i as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn minimizes_rosenbrock() {
        // The classic banana function: minimum at (1, 1).
        let f = |x: &Tensor| -> (f32, Tensor) {
            let (a, b) = (x.data()[0], x.data()[1]);
            let val = (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2);
            let g = Tensor::from_vec(
                vec![
                    -2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                    200.0 * (b - a * a),
                ],
                &[2],
            )
            .unwrap();
            (val, g)
        };
        let x0 = Tensor::from_vec(vec![-1.2, 1.0], &[2]).unwrap();
        let cfg = LbfgsConfig {
            max_iters: 200,
            grad_tol: 1e-4,
            ..LbfgsConfig::default()
        };
        let res = minimize(f, &x0, &cfg).unwrap();
        assert!(
            (res.x.data()[0] - 1.0).abs() < 1e-2 && (res.x.data()[1] - 1.0).abs() < 1e-2,
            "ended at {:?} after {} iters",
            res.x.data(),
            res.iterations
        );
    }

    #[test]
    fn monotone_nonincreasing_value() {
        // The Armijo condition guarantees the final value is <= start.
        let f = |x: &Tensor| -> (f32, Tensor) {
            let v = x.norm_sq();
            (v, x.map(|xi| 2.0 * xi))
        };
        let x0 = Tensor::from_vec(vec![3.0, -4.0], &[2]).unwrap();
        let res = minimize(f, &x0, &LbfgsConfig::default()).unwrap();
        assert!(res.value <= 25.0);
        assert!(res.value < 1e-6);
    }

    #[test]
    fn rejects_bad_config() {
        let f = |x: &Tensor| (0.0f32, Tensor::zeros(x.dims()));
        let x0 = Tensor::zeros(&[2]);
        let bad = LbfgsConfig {
            max_iters: 0,
            ..LbfgsConfig::default()
        };
        assert!(minimize(f, &x0, &bad).is_err());
        assert!(minimize(f, &Tensor::zeros(&[0]), &LbfgsConfig::default()).is_err());
    }

    #[test]
    fn rejects_wrong_gradient_shape() {
        let f = |_: &Tensor| (1.0f32, Tensor::zeros(&[3]));
        let x0 = Tensor::zeros(&[2]);
        assert!(minimize(f, &x0, &LbfgsConfig::default()).is_err());
    }
}
