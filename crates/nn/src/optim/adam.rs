//! Adam optimizer (Kingma & Ba, 2015 — paper reference [26]).

use std::collections::HashMap;

use gradsec_tensor::Tensor;

use crate::optim::Optimizer;

/// Adam with bias-corrected first/second moment estimates.
///
/// The DRIA attacker offers Adam as one of its optimisation back-ends for
/// gradient matching (paper §3.2: "through an optimisation algorithm
/// (Adam, LBFGS, …)").
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    state: HashMap<usize, AdamSlot>,
}

#[derive(Debug, Clone)]
struct AdamSlot {
    m: Tensor,
    v: Tensor,
    t: u32,
}

impl Adam {
    /// Creates Adam with the canonical hyper-parameters
    /// `β1 = 0.9, β2 = 0.999, ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Adam::with_params(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates Adam with explicit hyper-parameters.
    pub(crate) fn with_params(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            state: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn update(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor) {
        debug_assert_eq!(param.numel(), grad.numel());
        let s = self.state.entry(slot).or_insert_with(|| AdamSlot {
            m: Tensor::zeros(grad.dims()),
            v: Tensor::zeros(grad.dims()),
            t: 0,
        });
        s.t += 1;
        let b1t = 1.0 - self.beta1.powi(s.t as i32);
        let b2t = 1.0 - self.beta2.powi(s.t as i32);
        for (((m, v), p), &g) in
            s.m.data_mut()
                .iter_mut()
                .zip(s.v.data_mut())
                .zip(param.data_mut())
                .zip(grad.data())
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_magnitude_is_lr() {
        // With zero state, |Δ| ≈ lr regardless of gradient scale.
        for &g0 in &[0.001f32, 1.0, 1000.0] {
            let mut opt = Adam::new(0.1);
            let mut w = Tensor::zeros(&[1]);
            let g = Tensor::from_vec(vec![g0], &[1]).unwrap();
            opt.update(0, &mut w, &g);
            assert!(
                (w.data()[0].abs() - 0.1).abs() < 1e-3,
                "step for g={g0} was {}",
                w.data()[0]
            );
        }
    }

    #[test]
    fn descends_a_quadratic() {
        // Minimise f(x) = (x − 3)², ∇f = 2(x − 3).
        let mut opt = Adam::new(0.2);
        let mut x = Tensor::from_vec(vec![-5.0], &[1]).unwrap();
        for _ in 0..300 {
            let g = Tensor::from_vec(vec![2.0 * (x.data()[0] - 3.0)], &[1]).unwrap();
            opt.update(0, &mut x, &g);
        }
        assert!((x.data()[0] - 3.0).abs() < 0.05, "x = {}", x.data()[0]);
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = Adam::new(0.1);
        let g = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let mut a = Tensor::zeros(&[1]);
        opt.update(0, &mut a, &g);
        opt.update(0, &mut a, &g);
        let mut b = Tensor::zeros(&[1]);
        opt.update(1, &mut b, &g);
        // Slot 1 is on its first step; slot 0 on its second — different t.
        assert!(a.data()[0] != 2.0 * b.data()[0]);
    }
}
