//! Data-Reconstruction Inference Attack (DRIA) — deep leakage from
//! gradients (Zhu et al., paper reference \[59\]).
//!
//! The attacker observes the victim's gradients `g*` (restricted to the
//! layers *not* protected by the enclave), knows the global model weights
//! `θ` (public in FL) and the sample's label, and minimises the gradient
//! matching objective
//!
//! ```text
//! D(x) = Σ_{l visible} ‖ dW_l(x; θ) − dW*_l ‖²
//! ```
//!
//! over a dummy input `x`, using Adam or L-BFGS (paper §3.2 / §8.1).
//!
//! ## Differentiating through the gradients
//!
//! `∇_x D` requires second-order information. With `c = g(x) − g*`
//! (zeroed on protected layers),
//!
//! ```text
//! ∇_x D = 2 · ∇_x ⟨g(x), c⟩          (c held constant)
//!        = 2 · d/dε [ ∇_x Loss(x; θ + ε·c) ]  at ε = 0,
//! ```
//!
//! which this implementation evaluates by central differences over the
//! *parameters* (two extra forward/backward passes at `θ ± ε·c`) —
//! Pearlmutter's Hessian-vector trick in its finite-difference form. Each
//! DRIA iteration therefore costs three forward/backward passes, no
//! higher-order autograd needed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gradsec_nn::gradient::GradientSnapshot;
use gradsec_nn::model::ModelWeights;
use gradsec_nn::optim::lbfgs::{minimize, LbfgsConfig};
use gradsec_nn::optim::{Adam, Optimizer};
use gradsec_nn::Sequential;
use gradsec_tensor::Tensor;

use crate::metrics::image_loss;
use crate::{AttackError, Result};

/// Which optimiser drives the gradient matching (paper §3.2: "Adam,
/// LBFGS, etc.").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriaOptimizer {
    /// Adam with the given learning rate.
    Adam {
        /// Step size.
        lr: f32,
    },
    /// L-BFGS (the reference implementation's choice, §8.1).
    Lbfgs,
}

/// DRIA configuration.
#[derive(Debug, Clone, Copy)]
pub struct DriaConfig {
    /// Optimisation iterations.
    pub iterations: usize,
    /// The optimiser.
    pub optimizer: DriaOptimizer,
    /// Relative step for the parameter-space central difference.
    pub hvp_epsilon: f32,
    /// Seed for the dummy-input initialisation.
    pub seed: u64,
    /// Clamp the dummy input into `[0, 1]` after each step (images live
    /// there).
    pub clamp: bool,
}

impl Default for DriaConfig {
    fn default() -> Self {
        DriaConfig {
            iterations: 120,
            optimizer: DriaOptimizer::Lbfgs,
            hvp_epsilon: 3e-3,
            seed: 0,
            clamp: true,
        }
    }
}

/// Outcome of a DRIA run.
#[derive(Debug, Clone)]
pub struct DriaOutcome {
    /// The attacker's reconstruction.
    pub reconstructed: Tensor,
    /// Euclidean distance to the true input — the paper's ImageLoss.
    pub image_loss: f32,
    /// Final gradient-matching objective value.
    pub final_objective: f32,
}

/// The victim-side step: computes the gradients the attacker can observe.
///
/// Runs one forward/backward on `(target, label)` and returns the full
/// snapshot; the caller masks it with the protected set.
///
/// # Errors
///
/// Propagates model errors.
pub(crate) fn victim_gradients(
    model: &mut Sequential,
    target: &Tensor,
    label: &Tensor,
) -> Result<GradientSnapshot> {
    let (_, snap) = model.forward_backward(target, label)?;
    Ok(snap)
}

/// Per-layer weights `1/(‖g*_l‖² + δ)` that balance the matching
/// objective across layers. Without this the dense head's large gradients
/// dominate and the optimiser ignores the convolutional gradients that
/// actually pin down the pixels (the same normalisation gradient-inversion
/// attacks use in the literature).
fn layer_weights(leaked: &GradientSnapshot, protected: &[usize]) -> Vec<f32> {
    leaked
        .iter()
        .map(|g| {
            if protected.contains(&g.layer) {
                0.0
            } else {
                1.0 / (g.dw.norm_sq() + g.db.norm_sq() + 1e-12)
            }
        })
        .collect()
}

/// Gradient-matching distance restricted to visible layers (per-layer
/// normalised), plus the weighted difference snapshot — which is exactly
/// `∂D/∂g`, the direction the HVP trick perturbs along.
fn visible_diff(
    current: &GradientSnapshot,
    leaked: &GradientSnapshot,
    weights: &[f32],
) -> Result<(f32, GradientSnapshot)> {
    let mut layers = Vec::new();
    let mut dist = 0.0f32;
    for ((a, b), &w) in current.iter().zip(leaked.iter()).zip(weights) {
        if a.layer != b.layer || a.dw.dims() != b.dw.dims() {
            return Err(AttackError::BadConfig {
                reason: "victim/attacker gradient snapshots disagree".to_owned(),
            });
        }
        let (dw, db) = if w == 0.0 {
            (Tensor::zeros(a.dw.dims()), Tensor::zeros(a.db.dims()))
        } else {
            (
                a.dw.zip_with(&b.dw, |x, y| x - y)?,
                a.db.zip_with(&b.db, |x, y| x - y)?,
            )
        };
        dist += w * (dw.norm_sq() + db.norm_sq());
        // c_l = w_l · (g_l − g*_l) = ∂D/∂g_l (up to the global factor 2).
        layers.push(gradsec_nn::gradient::LayerGradient {
            layer: a.layer,
            dw: dw.map(|v| v * w),
            db: db.map(|v| v * w),
        });
    }
    Ok((dist, GradientSnapshot::new(layers)))
}

/// Applies `θ ← θ₀ + α·c` where `c` is a gradient-shaped perturbation.
fn perturbed_weights(base: &ModelWeights, c: &GradientSnapshot, alpha: f32) -> ModelWeights {
    let mut layers = Vec::with_capacity(base.num_layers());
    for (lw, g) in base.iter().zip(c.iter()) {
        let w = lw.w.zip_with(&g.dw, |w, d| w + alpha * d).expect("shapes");
        let b = lw.b.zip_with(&g.db, |b, d| b + alpha * d).expect("shapes");
        layers.push(gradsec_nn::model::LayerWeights { w, b });
    }
    ModelWeights::new(layers)
}

/// Evaluates `(D(x), ∇_x D(x))` for the gradient-matching objective.
#[allow(clippy::too_many_arguments)]
fn objective(
    model: &mut Sequential,
    base_weights: &ModelWeights,
    weight_norm: f32,
    x: &Tensor,
    label: &Tensor,
    leaked: &GradientSnapshot,
    layer_w: &[f32],
    eps_rel: f32,
) -> Result<(f32, Tensor)> {
    // 1. Gradients of the dummy input under the unperturbed model.
    model.set_weights(base_weights)?;
    let (_, g_x) = model.forward_backward(x, label)?;
    let (dist_sq, c) = visible_diff(&g_x, leaked, layer_w)?;
    if dist_sq == 0.0 {
        // Perfect match (or nothing visible): zero gradient.
        return Ok((0.0, Tensor::zeros(x.dims())));
    }
    // 2. Central difference over parameters: ∇_x⟨g(x), c⟩ ≈
    //    (∇_x Loss(x; θ+εc) − ∇_x Loss(x; θ−εc)) / 2ε.
    // Perturbation sized relative to the parameter scale: f32 arithmetic
    // needs ‖ε·c‖ well above rounding noise yet small against ‖θ‖.
    let c_norm: f32 = c
        .iter()
        .map(|g| g.dw.norm_sq() + g.db.norm_sq())
        .sum::<f32>()
        .sqrt();
    let eps = eps_rel * (1.0 + weight_norm) / c_norm.max(1e-12);
    let up = perturbed_weights(base_weights, &c, eps);
    model.set_weights(&up)?;
    let logits = model.forward(x)?;
    let (_, delta) = model.loss().evaluate(&logits, label)?;
    let din_up = model.backward(&delta)?;
    let down = perturbed_weights(base_weights, &c, -eps);
    model.set_weights(&down)?;
    let logits = model.forward(x)?;
    let (_, delta) = model.loss().evaluate(&logits, label)?;
    let din_down = model.backward(&delta)?;
    let grad_x = din_up.zip_with(&din_down, |u, d| (u - d) / eps)?;
    Ok((dist_sq, grad_x))
}

/// Runs DRIA against a model state.
///
/// * `model` — architecture carrying the *global* weights the attacker
///   knows (the run restores them on exit),
/// * `target`/`label` — the victim's `(1, C, H, W)` sample (used only to
///   produce the leaked gradients and to score the reconstruction),
/// * `protected` — layer indices sheltered by GradSec this cycle.
///
/// # Errors
///
/// Returns [`AttackError::BadConfig`] for non-singleton batches and
/// propagates model failures.
pub fn run_dria(
    model: &mut Sequential,
    target: &Tensor,
    label: &Tensor,
    protected: &[usize],
    cfg: &DriaConfig,
) -> Result<DriaOutcome> {
    if target.dims().first() != Some(&1) {
        return Err(AttackError::BadConfig {
            reason: format!(
                "dria reconstructs one sample at a time, got batch {:?}",
                target.dims()
            ),
        });
    }
    let base_weights = model.weights();
    let weight_norm: f32 = base_weights
        .iter()
        .map(|lw| lw.w.norm_sq() + lw.b.norm_sq())
        .sum::<f32>()
        .sqrt();
    // The leak: the victim trains on the target; the attacker scrapes the
    // visible layer gradients.
    let leaked = victim_gradients(model, target, label)?;
    let layer_w = layer_weights(&leaked, protected);
    // Dummy input initialisation: mid-grey plus small noise converges
    // faster than uniform noise (standard DLG practice).
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut x = Tensor::zeros(target.dims());
    for v in x.data_mut() {
        *v = 0.5 + rng.random_range(-0.1..0.1);
    }
    let mut final_obj = f32::INFINITY;
    match cfg.optimizer {
        DriaOptimizer::Adam { lr } => {
            let mut adam = Adam::new(lr);
            for _ in 0..cfg.iterations {
                let (obj, grad) = objective(
                    model,
                    &base_weights,
                    weight_norm,
                    &x,
                    label,
                    &leaked,
                    &layer_w,
                    cfg.hvp_epsilon,
                )?;
                final_obj = obj;
                // D(x) = dist²; ∇D = 2·∇⟨g,c⟩.
                let scaled = grad.map(|g| 2.0 * g);
                adam.update(0, &mut x, &scaled);
                if cfg.clamp {
                    x.map_in_place(|v| v.clamp(0.0, 1.0));
                }
            }
        }
        DriaOptimizer::Lbfgs => {
            // L-BFGS needs interior mutability over the model.
            let model_cell = std::cell::RefCell::new(model);
            let f = |xt: &Tensor| -> (f32, Tensor) {
                let mut m = model_cell.borrow_mut();
                match objective(
                    &mut m,
                    &base_weights,
                    weight_norm,
                    xt,
                    label,
                    &leaked,
                    &layer_w,
                    cfg.hvp_epsilon,
                ) {
                    Ok((obj, grad)) => (obj, grad.map(|g| 2.0 * g)),
                    Err(_) => (f32::INFINITY, Tensor::zeros(xt.dims())),
                }
            };
            let lcfg = LbfgsConfig {
                max_iters: cfg.iterations,
                history: 8,
                grad_tol: 1e-7,
                ..LbfgsConfig::default()
            };
            let res = minimize(f, &x, &lcfg)?;
            x = res.x;
            final_obj = res.value;
            if cfg.clamp {
                x.map_in_place(|v| v.clamp(0.0, 1.0));
            }
            let m = model_cell.into_inner();
            m.set_weights(&base_weights)?;
            let loss = image_loss(&x, target)?;
            return Ok(DriaOutcome {
                reconstructed: x,
                image_loss: loss,
                final_objective: final_obj,
            });
        }
    }
    model.set_weights(&base_weights)?;
    let loss = image_loss(&x, target)?;
    Ok(DriaOutcome {
        reconstructed: x,
        image_loss: loss,
        final_objective: final_obj,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_data::{one_hot, Dataset, SyntheticCifar100};
    use gradsec_nn::zoo;

    fn small_conv_model(seed: u64) -> Sequential {
        use gradsec_nn::activation::Activation;
        use gradsec_nn::layer::{Conv2d, Dense};
        use gradsec_nn::loss::Loss;
        let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
        m.push(Box::new(
            Conv2d::new(1, 8, 8, 4, 3, 1, 1, Activation::Sigmoid, false, seed).unwrap(),
        ));
        m.push(Box::new(
            Dense::new(4 * 64, 4, Activation::Linear, seed + 1).unwrap(),
        ));
        m
    }

    fn tiny_target(seed: u64) -> (Tensor, Tensor) {
        let x = gradsec_tensor::init::uniform(&[1, 1, 8, 8], 0.0, 1.0, seed);
        let y = one_hot(&[1], 4);
        (x, y)
    }

    #[test]
    fn unprotected_reconstruction_beats_protected() {
        let mut model = small_conv_model(3);
        let (target, label) = tiny_target(5);
        let cfg = DriaConfig {
            iterations: 80,
            seed: 9,
            ..DriaConfig::default()
        };
        let open = run_dria(&mut model, &target, &label, &[], &cfg).unwrap();
        let shielded = run_dria(&mut model, &target, &label, &[0, 1], &cfg).unwrap();
        assert!(
            open.image_loss < shielded.image_loss,
            "open {} !< shielded {}",
            open.image_loss,
            shielded.image_loss
        );
        // With everything protected the objective is identically zero and
        // the dummy never moves from noise.
        assert_eq!(shielded.final_objective, 0.0);
    }

    #[test]
    fn adam_variant_also_reconstructs() {
        let mut model = small_conv_model(4);
        let (target, label) = tiny_target(6);
        let cfg = DriaConfig {
            iterations: 150,
            optimizer: DriaOptimizer::Adam { lr: 0.08 },
            seed: 2,
            ..DriaConfig::default()
        };
        let open = run_dria(&mut model, &target, &label, &[], &cfg).unwrap();
        // Random dummy in [0,1] vs target in [0,1] on 64 pixels has
        // expected distance ~sqrt(64/6) ≈ 3.3; reconstruction should do
        // clearly better.
        assert!(open.image_loss < 2.0, "image loss {}", open.image_loss);
    }

    #[test]
    fn model_weights_are_restored() {
        let mut model = small_conv_model(7);
        let before = model.weights();
        let (target, label) = tiny_target(8);
        let cfg = DriaConfig {
            iterations: 5,
            ..DriaConfig::default()
        };
        let _ = run_dria(&mut model, &target, &label, &[0], &cfg).unwrap();
        let after = model.weights();
        assert_eq!(before, after);
    }

    #[test]
    fn rejects_batched_targets() {
        let mut model = zoo::tiny_mlp(4, 4, 2, 1).unwrap();
        let x = Tensor::zeros(&[2, 4]);
        let y = one_hot(&[0, 1], 2);
        assert!(run_dria(&mut model, &x, &y, &[], &DriaConfig::default()).is_err());
    }

    #[test]
    fn lenet_smoke() {
        // Full LeNet-5 on a real synthetic CIFAR image, few iterations —
        // the full-strength run lives in the bench harness.
        let ds = SyntheticCifar100::new(4, 1);
        let s = ds.sample(0);
        let mut model = zoo::lenet5_with(10, 2).unwrap();
        let target = s.image.reshape(&[1, 3, 32, 32]).unwrap();
        let label = one_hot(&[s.label % 10], 10);
        let cfg = DriaConfig {
            iterations: 3,
            ..DriaConfig::default()
        };
        let out = run_dria(&mut model, &target, &label, &[1], &cfg).unwrap();
        assert!(out.image_loss.is_finite());
        assert_eq!(out.reconstructed.dims(), &[1, 3, 32, 32]);
    }
}
