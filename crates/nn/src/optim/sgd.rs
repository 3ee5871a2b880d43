//! Stochastic gradient descent.

use gradsec_tensor::Tensor;

use crate::optim::Optimizer;

/// Plain SGD, exactly the paper's equation (1):
/// `W^{t+1}_l = W^t_l − λ·dW_l` — the update whose observability from the
/// normal world constitutes *Flaw 1*.
///
/// # Example
///
/// ```
/// use gradsec_nn::optim::{Optimizer, Sgd};
/// use gradsec_tensor::Tensor;
///
/// let mut opt = Sgd::new(0.5);
/// let mut w = Tensor::from_vec(vec![1.0], &[1]).unwrap();
/// let g = Tensor::from_vec(vec![2.0], &[1]).unwrap();
/// opt.update(0, &mut w, &g);
/// assert_eq!(w.data(), &[0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _slot: usize, param: &mut Tensor, grad: &Tensor) {
        debug_assert_eq!(param.numel(), grad.numel());
        for (p, &g) in param.data_mut().iter_mut().zip(grad.data()) {
            *p -= self.lr * g;
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
    fn plain_sgd_is_eq1() {
        let mut opt = Sgd::new(0.1);
        let mut w = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![10.0, -10.0], &[2]).unwrap();
        opt.update(0, &mut w, &g);
        assert_eq!(w.data(), &[0.0, 3.0]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    fn weight_diff_recovers_gradient_flaw1() {
        // The attack the paper's Flaw 1 describes: dW = (W_t − W_{t+1})/λ.
        let lr = 0.05f32;
        let mut opt = Sgd::new(lr);
        let before = Tensor::from_vec(vec![0.3, -0.7, 1.1], &[3]).unwrap();
        let grad = Tensor::from_vec(vec![0.5, 0.25, -1.0], &[3]).unwrap();
        let mut after = before.clone();
        opt.update(0, &mut after, &grad);
        for i in 0..3 {
            let recovered = (before.data()[i] - after.data()[i]) / lr;
            assert!((recovered - grad.data()[i]).abs() < 1e-5);
        }
    }
}
