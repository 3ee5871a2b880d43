//! Model zoo — the two architectures of the paper's Table 4.
//!
//! | Model | Layers |
//! |---|---|
//! | LeNet-5 | 4× Conv2D(12 f, 5×5) + Dense(768→100) |
//! | AlexNet | 5× Conv2D(64/192/384/256/256, 3×3, MP2 on L1/L2/L5) + Dense(1024→4096→4096→100) |
//!
//! Note on padding: the paper's Table 4 lists `P = 0` for LeNet-5's L1 while
//! simultaneously reporting a 16×16×12 output for a 32×32×3 input under a
//! 5×5/2 kernel — only possible with Darknet's implicit `pad = k/2 = 2`.
//! We follow the *shapes* (which the memory model and the TEE footprints of
//! Table 6 depend on) and use `pad = 2`.

use crate::activation::Activation;
use crate::layer::{Conv2d, Dense};
use crate::loss::Loss;
use crate::model::Sequential;
use crate::Result;

/// Builds the paper's LeNet-5 variant for `classes` output classes.
///
/// Layers (Table 4): L1–L4 Conv2D with 12 filters (5×5; strides 2,2,1,1),
/// L5 Dense 768→`classes`.
///
/// # Errors
///
/// Propagates layer construction errors (zero classes).
pub fn lenet5_with(classes: usize, seed: u64) -> Result<Sequential> {
    let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
    // L1: 32x32x3 -> 16x16x12
    m.push(Box::new(Conv2d::new(
        3,
        32,
        32,
        12,
        5,
        2,
        2,
        Activation::Relu,
        false,
        seed,
    )?));
    // L2: 16x16x12 -> 8x8x12
    m.push(Box::new(Conv2d::new(
        12,
        16,
        16,
        12,
        5,
        2,
        2,
        Activation::Relu,
        false,
        seed + 1,
    )?));
    // L3: 8x8x12 -> 8x8x12
    m.push(Box::new(Conv2d::new(
        12,
        8,
        8,
        12,
        5,
        1,
        2,
        Activation::Relu,
        false,
        seed + 2,
    )?));
    // L4: 8x8x12 -> 8x8x12
    m.push(Box::new(Conv2d::new(
        12,
        8,
        8,
        12,
        5,
        1,
        2,
        Activation::Relu,
        false,
        seed + 3,
    )?));
    // L5: 768 -> classes
    m.push(Box::new(Dense::new(
        768,
        classes,
        Activation::Linear,
        seed + 4,
    )?));
    Ok(m)
}

/// The paper's LeNet-5 with the CIFAR-100 head (100 classes).
///
/// # Errors
///
/// Propagates layer construction errors.
pub fn lenet5(seed: u64) -> Result<Sequential> {
    lenet5_with(100, seed)
}

/// Builds the paper's AlexNet variant for `classes` output classes.
///
/// Layers (Table 4): five 3×3 convolutions (MP2 after L1, L2 and L5)
/// followed by Dense 1024→4096→4096→`classes`.
///
/// # Errors
///
/// Propagates layer construction errors (zero classes).
pub(crate) fn alexnet_with(classes: usize, seed: u64) -> Result<Sequential> {
    let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
    // L1: 32x32x3 -> conv 16x16x64 -> MP2 8x8x64
    m.push(Box::new(Conv2d::new(
        3,
        32,
        32,
        64,
        3,
        2,
        1,
        Activation::Relu,
        true,
        seed,
    )?));
    // L2: 8x8x64 -> conv 8x8x192 -> MP2 4x4x192
    m.push(Box::new(Conv2d::new(
        64,
        8,
        8,
        192,
        3,
        1,
        1,
        Activation::Relu,
        true,
        seed + 1,
    )?));
    // L3: 4x4x192 -> 4x4x384
    m.push(Box::new(Conv2d::new(
        192,
        4,
        4,
        384,
        3,
        1,
        1,
        Activation::Relu,
        false,
        seed + 2,
    )?));
    // L4: 4x4x384 -> 4x4x256
    m.push(Box::new(Conv2d::new(
        384,
        4,
        4,
        256,
        3,
        1,
        1,
        Activation::Relu,
        false,
        seed + 3,
    )?));
    // L5: 4x4x256 -> conv 4x4x256 -> MP2 2x2x256
    m.push(Box::new(Conv2d::new(
        256,
        4,
        4,
        256,
        3,
        1,
        1,
        Activation::Relu,
        true,
        seed + 4,
    )?));
    // L6: 1024 -> 4096
    m.push(Box::new(Dense::new(
        1024,
        4096,
        Activation::Relu,
        seed + 5,
    )?));
    // L7: 4096 -> 4096
    m.push(Box::new(Dense::new(
        4096,
        4096,
        Activation::Relu,
        seed + 6,
    )?));
    // L8: 4096 -> classes
    m.push(Box::new(Dense::new(
        4096,
        classes,
        Activation::Linear,
        seed + 7,
    )?));
    Ok(m)
}

/// The paper's AlexNet with the CIFAR-100 head (100 classes).
///
/// # Errors
///
/// Propagates layer construction errors.
pub fn alexnet(seed: u64) -> Result<Sequential> {
    alexnet_with(100, seed)
}

/// The paper's LeNet-5 with sigmoid activations instead of ReLU.
///
/// The DRIA/DLG attack requires a twice-differentiable model — Zhu et
/// al. explicitly replace ReLU with sigmoid "since DLG requires the model
/// to be twice differentiable" — so the Figure 5 experiments attack this
/// variant, exactly as the reference implementation the paper builds on
/// does. Architecture and shapes are identical to [`lenet5_with`].
///
/// # Errors
///
/// Propagates layer construction errors (zero classes).
pub fn lenet5_smooth_with(classes: usize, seed: u64) -> Result<Sequential> {
    let mut m = lenet5_with(classes, seed)?;
    // Rebuild with sigmoid activations (same geometry, same seeds).
    let mut smooth = Sequential::new(Loss::CategoricalCrossEntropy);
    smooth.push(Box::new(Conv2d::new(
        3,
        32,
        32,
        12,
        5,
        2,
        2,
        Activation::Sigmoid,
        false,
        seed,
    )?));
    smooth.push(Box::new(Conv2d::new(
        12,
        16,
        16,
        12,
        5,
        2,
        2,
        Activation::Sigmoid,
        false,
        seed + 1,
    )?));
    smooth.push(Box::new(Conv2d::new(
        12,
        8,
        8,
        12,
        5,
        1,
        2,
        Activation::Sigmoid,
        false,
        seed + 2,
    )?));
    smooth.push(Box::new(Conv2d::new(
        12,
        8,
        8,
        12,
        5,
        1,
        2,
        Activation::Sigmoid,
        false,
        seed + 3,
    )?));
    smooth.push(Box::new(Dense::new(
        768,
        classes,
        Activation::Linear,
        seed + 4,
    )?));
    // Keep the ReLU twin's weights so both variants are comparable.
    smooth.set_weights(&m.weights())?;
    m.clear_caches();
    Ok(smooth)
}

/// [`lenet5_smooth_with`] with the CIFAR-100 head.
///
/// # Errors
///
/// Propagates layer construction errors.
pub fn lenet5_smooth(seed: u64) -> Result<Sequential> {
    lenet5_smooth_with(100, seed)
}

/// A small two-layer MLP, used by tests and examples that do not need a
/// convolutional stack.
///
/// # Errors
///
/// Propagates layer construction errors (zero dims).
pub fn tiny_mlp(inputs: usize, hidden: usize, outputs: usize, seed: u64) -> Result<Sequential> {
    let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
    m.push(Box::new(Dense::new(
        inputs,
        hidden,
        Activation::Tanh,
        seed,
    )?));
    m.push(Box::new(Dense::new(
        hidden,
        outputs,
        Activation::Linear,
        seed + 1,
    )?));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;
    use gradsec_tensor::Tensor;

    #[test]
    fn lenet5_shapes_match_table4() {
        let mut m = lenet5(1).unwrap();
        assert_eq!(m.num_layers(), 5);
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 100]);
        // Per-layer output sizes per Table 4.
        let expected_out = [16 * 16 * 12, 8 * 8 * 12, 8 * 8 * 12, 8 * 8 * 12, 100];
        for (i, &e) in expected_out.iter().enumerate() {
            assert_eq!(m.layer(i).unwrap().output_elems(), e, "layer {}", i + 1);
        }
        // L5 (dense) input is the flattened 768 of Table 4.
        assert_eq!(m.layer(4).unwrap().input_elems(), 768);
    }

    #[test]
    fn lenet5_param_counts() {
        let m = lenet5(1).unwrap();
        // L1: 12 filters x 5x5x3 + 12 biases.
        assert_eq!(m.layer(0).unwrap().param_count(), 12 * 75 + 12);
        // L2-L4: 12 x 5x5x12 + 12.
        for i in 1..4 {
            assert_eq!(m.layer(i).unwrap().param_count(), 12 * 300 + 12);
        }
        // L5: the "fairly large number of parameters (76.8K)" of §8.3.
        assert_eq!(m.layer(4).unwrap().param_count(), 76_900);
    }

    #[test]
    fn alexnet_shapes_match_table4() {
        let mut m = alexnet(1).unwrap();
        assert_eq!(m.num_layers(), 8);
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 100]);
        let expected_out = [
            8 * 8 * 64,
            4 * 4 * 192,
            4 * 4 * 384,
            4 * 4 * 256,
            2 * 2 * 256,
            4096,
            4096,
            100,
        ];
        for (i, &e) in expected_out.iter().enumerate() {
            assert_eq!(m.layer(i).unwrap().output_elems(), e, "layer {}", i + 1);
        }
        assert_eq!(m.layer(5).unwrap().input_elems(), 1024);
    }

    #[test]
    fn conv_dense_split() {
        let m = alexnet(2).unwrap();
        for i in 0..5 {
            assert!(matches!(
                m.layer(i).unwrap().kind(),
                LayerKind::Conv2d { .. }
            ));
        }
        for i in 5..8 {
            assert!(matches!(
                m.layer(i).unwrap().kind(),
                LayerKind::Dense { .. }
            ));
        }
    }

    #[test]
    fn custom_class_counts() {
        let mut m = lenet5_with(2, 3).unwrap();
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        assert_eq!(m.forward(&x).unwrap().dims(), &[1, 2]);
    }

    #[test]
    fn tiny_mlp_works() {
        let mut m = tiny_mlp(4, 8, 3, 5).unwrap();
        let x = Tensor::zeros(&[2, 4]);
        assert_eq!(m.forward(&x).unwrap().dims(), &[2, 3]);
    }
}
