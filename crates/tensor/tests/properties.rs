//! Property-based tests for the tensor substrate.

use gradsec_tensor::ops::conv::{col2im, conv2d_forward_with, im2col, Conv2dGeometry};
use gradsec_tensor::ops::matmul::{matmul_nt_with, matmul_tn_with, matmul_with};
use gradsec_tensor::ops::pool::{maxpool_backward_with, maxpool_forward_with, PoolGeometry};
use gradsec_tensor::ops::reduce::softmax_rows;
use gradsec_tensor::{init, BackendKind, Tensor, TensorError};
use proptest::prelude::*;

// The algebraic properties are checked on the `Reference` backend; the
// backends' agreement is `backend_properties.rs`' question.
const REF: BackendKind = BackendKind::Reference;
type Res<T> = Result<T, TensorError>;

fn matmul(a: &Tensor, b: &Tensor) -> Res<Tensor> {
    matmul_with(a, b, REF)
}

fn matmul_nt(a: &Tensor, b: &Tensor) -> Res<Tensor> {
    matmul_nt_with(a, b, REF)
}

fn matmul_tn(a: &Tensor, b: &Tensor) -> Res<Tensor> {
    matmul_tn_with(a, b, REF)
}

fn add(a: &Tensor, b: &Tensor) -> Res<Tensor> {
    a.zip_with(b, |x, y| x + y)
}

fn sum(t: &Tensor) -> f32 {
    t.data().iter().sum()
}

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..8, 1usize..8, 1usize..8)
}

fn tensor_with(dims: Vec<usize>, seed: u64) -> Tensor {
    init::uniform(&dims, -2.0, 2.0, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative((m, k, n) in small_dims(), p in 1usize..6, seed in 0u64..1000) {
        let a = tensor_with(vec![m, k], seed);
        let b = tensor_with(vec![k, n], seed + 1);
        let c = tensor_with(vec![n, p], seed + 2);
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-2));
    }

    #[test]
    fn matmul_distributes_over_add((m, k, n) in small_dims(), seed in 0u64..1000) {
        let a = tensor_with(vec![m, k], seed);
        let b = tensor_with(vec![k, n], seed + 1);
        let c = tensor_with(vec![k, n], seed + 2);
        let lhs = matmul(&a, &add(&b, &c).unwrap()).unwrap();
        let rhs = add(&matmul(&a, &b).unwrap(), &matmul(&a, &c).unwrap()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-2));
    }

    #[test]
    fn transpose_variants_agree((m, k, n) in small_dims(), seed in 0u64..1000) {
        let a = tensor_with(vec![m, k], seed);
        let b = tensor_with(vec![k, n], seed + 1);
        let plain = matmul(&a, &b).unwrap();
        let via_nt = matmul_nt(&a, &b.transpose2d().unwrap()).unwrap();
        let via_tn = matmul_tn(&a.transpose2d().unwrap(), &b).unwrap();
        prop_assert!(plain.approx_eq(&via_nt, 1e-3));
        prop_assert!(plain.approx_eq(&via_tn, 1e-3));
    }

    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..4, h in 3usize..10, w in 3usize..10,
        k in 1usize..4, s in 1usize..3, p in 0usize..2, seed in 0u64..1000
    ) {
        prop_assume!(h + 2 * p >= k && w + 2 * p >= k);
        let geo = Conv2dGeometry::new(c, h, w, 2, k, s, p).unwrap();
        let x = tensor_with(vec![geo.in_len()], seed);
        let y = tensor_with(vec![geo.col_len()], seed + 1);
        let mut colx = vec![0.0; geo.col_len()];
        im2col(x.data(), &geo, &mut colx);
        let lhs: f32 = colx.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut imy = vec![0.0; geo.in_len()];
        col2im(y.data(), &geo, &mut imy);
        let rhs: f32 = x.data().iter().zip(&imy).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn conv_is_linear_in_input(
        c in 1usize..3, hw in 4usize..8, f in 1usize..4, seed in 0u64..1000
    ) {
        let geo = Conv2dGeometry::new(c, hw, hw, f, 3, 1, 1).unwrap();
        let x1 = tensor_with(vec![1, c, hw, hw], seed);
        let x2 = tensor_with(vec![1, c, hw, hw], seed + 1);
        let w = tensor_with(vec![f, c * 9], seed + 2);
        let b = Tensor::zeros(&[f]);
        let y_sum = conv2d_forward_with(&add(&x1, &x2).unwrap(), &w, &b, &geo, REF).unwrap();
        let sum_y = add(
            &conv2d_forward_with(&x1, &w, &b, &geo, REF).unwrap(),
            &conv2d_forward_with(&x2, &w, &b, &geo, REF).unwrap(),
        ).unwrap();
        prop_assert!(y_sum.approx_eq(&sum_y, 1e-2));
    }

    #[test]
    fn maxpool_roundtrip_preserves_error_mass(
        c in 1usize..4, hw in 2usize..8, seed in 0u64..1000
    ) {
        prop_assume!(hw >= 2);
        let geo = PoolGeometry::mp2(c, hw, hw).unwrap();
        let input = tensor_with(vec![1, c, hw, hw], seed);
        let (out, argmax) = maxpool_forward_with(&input, &geo, REF).unwrap();
        let delta = tensor_with(vec![1, c, geo.out_h, geo.out_w], seed + 1);
        let dinput = maxpool_backward_with(&delta, &argmax, &geo, REF).unwrap();
        // The backward pass scatters without loss: total error mass equal.
        prop_assert!((sum(&dinput) - sum(&delta)).abs() < 1e-3);
        // Pooling never invents values (for odd inputs the global max may
        // sit in an uncovered edge row, so only an upper bound holds).
        let in_max = input.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let out_max = out.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(out_max <= in_max + 1e-6);
        if hw % 2 == 0 {
            prop_assert!((out_max - in_max).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(r in 1usize..6, c in 1usize..10, seed in 0u64..1000) {
        let t = tensor_with(vec![r, c], seed);
        let s = softmax_rows(&t).unwrap();
        for i in 0..r {
            let row = &s.data()[i * c..(i + 1) * c];
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
            prop_assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn reshape_preserves_data(len in 1usize..64, seed in 0u64..1000) {
        let t = tensor_with(vec![len], seed);
        let r = t.reshape(&[1, len]).unwrap();
        prop_assert_eq!(t.data(), r.data());
    }

    #[test]
    fn distance_is_a_metric(len in 1usize..32, seed in 0u64..1000) {
        let a = tensor_with(vec![len], seed);
        let b = tensor_with(vec![len], seed + 1);
        let c = tensor_with(vec![len], seed + 2);
        let dab = a.distance(&b).unwrap();
        let dba = b.distance(&a).unwrap();
        prop_assert!((dab - dba).abs() < 1e-4); // symmetry
        prop_assert!(a.distance(&a).unwrap() < 1e-6); // identity
        let dac = a.distance(&c).unwrap();
        let dcb = c.distance(&b).unwrap();
        prop_assert!(dab <= dac + dcb + 1e-3); // triangle inequality
    }
}
