//! Property-based tests for the NN substrate.

use gradsec_nn::activation::Activation;
use gradsec_nn::layer::{Dense, Layer};
use gradsec_nn::loss::Loss;
use gradsec_nn::optim::{Optimizer, Sgd};
use gradsec_nn::zoo;
use gradsec_tensor::{init, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_gradient_check(inputs in 2usize..8, outputs in 2usize..6, seed in 0u64..500) {
        // Finite-difference validation of eq. (3) on random geometry.
        let mut l = Dense::new(inputs, outputs, Activation::Tanh, seed).unwrap();
        let x = init::uniform(&[2, inputs], -1.0, 1.0, seed + 1);
        let out = l.forward(x.clone()).unwrap();
        let dinput = l.backward(Tensor::ones(out.dims()), &out).unwrap();
        let eps = 1e-3f32;
        let loss = |l: &mut Dense, x: &Tensor| -> f32 {
            l.forward(x.clone()).unwrap().data().iter().sum()
        };
        for i in 0..x.numel().min(6) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
            prop_assert!((num - dinput.data()[i]).abs() < 0.05);
        }
    }

    #[test]
    fn cross_entropy_loss_is_nonnegative(n in 1usize..6, k in 2usize..8, seed in 0u64..500) {
        let logits = init::uniform(&[n, k], -3.0, 3.0, seed);
        let mut y = Tensor::zeros(&[n, k]);
        for i in 0..n {
            y.set(&[i, (seed as usize + i) % k], 1.0).unwrap();
        }
        let (loss, delta) = Loss::CategoricalCrossEntropy.evaluate(&logits, &y).unwrap();
        prop_assert!(loss >= 0.0);
        prop_assert!(delta.data().iter().all(|d| d.is_finite()));
        // Per-row delta sums vanish (softmax and one-hot both normalise).
        for i in 0..n {
            let s: f32 = delta.data()[i * k..(i + 1) * k].iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }

    #[test]
    fn sgd_step_is_linear_in_lr(lr in 0.001f32..0.5, g0 in -2.0f32..2.0) {
        let grad = Tensor::from_vec(vec![g0], &[1]).unwrap();
        let mut w = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        Sgd::new(lr).update(0, &mut w, &grad);
        prop_assert!((w.data()[0] - (1.0 - lr * g0)).abs() < 1e-5);
    }

    #[test]
    fn flaw1_recovers_gradients_for_any_lr(lr in 0.001f32..0.9, seed in 0u64..500) {
        // Weight-diffing (paper eq. 2) inverts any plain SGD step exactly.
        let mut model = zoo::tiny_mlp(4, 5, 3, seed).unwrap();
        let x = init::uniform(&[4, 4], -1.0, 1.0, seed + 1);
        let mut y = Tensor::zeros(&[4, 3]);
        for i in 0..4 {
            y.set(&[i, i % 3], 1.0).unwrap();
        }
        let before = model.weights();
        let mut opt = Sgd::new(lr);
        model.train_batch(x, &y, &mut opt).unwrap();
        let true_grads = model.gradient_snapshot().unwrap();
        let mut leaked = before.clone();
        leaked.add_scaled(&model.weights(), -1.0).unwrap();
        leaked.scale(1.0 / lr);
        let truth = true_grads.to_flat();
        let err = leaked
            .iter()
            .flat_map(|l| l.w.data().iter().chain(l.b.data()))
            .zip(&truth)
            .map(|(l, t)| (l - t) * (l - t))
            .sum::<f32>()
            .sqrt();
        let rel = err / (1.0 + truth.iter().map(|x| x * x).sum::<f32>().sqrt());
        prop_assert!(rel < 1e-2, "relative recovery error {rel}");
    }

    #[test]
    fn weights_roundtrip_preserves_forward(seed in 0u64..500) {
        let mut m1 = zoo::tiny_mlp(6, 8, 3, seed).unwrap();
        let mut m2 = zoo::tiny_mlp(6, 8, 3, seed + 99).unwrap();
        m2.set_weights(&m1.weights()).unwrap();
        let x = init::uniform(&[3, 6], -1.0, 1.0, seed + 1);
        let y1 = m1.forward(&x).unwrap();
        let y2 = m2.forward(&x).unwrap();
        prop_assert!(y1.approx_eq(&y2, 1e-6));
    }

    #[test]
    fn layer_footprints_are_consistent(inputs in 1usize..20, outputs in 1usize..20) {
        let l = Dense::new(inputs, outputs, Activation::Linear, 1).unwrap();
        prop_assert_eq!(l.param_count(), inputs * outputs + outputs);
        prop_assert_eq!(l.input_elems(), inputs);
        prop_assert_eq!(l.output_elems(), outputs);
        prop_assert_eq!(l.preact_elems(), outputs);
    }
}
