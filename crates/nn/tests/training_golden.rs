//! Golden bits for training, the way `gradsec-tensor`'s `tiled_golden`
//! pins kernels: one 64-bit digest per (model, backend) pair of every
//! loss and weight bit after three seeded `train_batch` steps, and of
//! the input gradient one full `forward` + `backward` returns after them.
//!
//! A training step may move its buffers around however it likes, but no
//! bit of what it computes. A change that moves one fails here and prints
//! the new table. The `tiled` row holds on every ISA: the process runs
//! whichever it resolved (`GRADSEC_TILED_ISA`, otherwise the best the host
//! has), and both kernel sets fuse each multiply-add, so they land the
//! same bits. The Sigmoid and Tanh models go through the platform's `exp`
//! and `tanh`; their rows were captured on x86-64 Linux.
//!
//! A property rides along: each activation's derivative read off its
//! output `A = f(Z)` equals `derivative(Z)` bit for bit on every f32
//! pattern, which is what lets a layer keep `A` and drop `Z`.

use gradsec_nn::activation::Activation;
use gradsec_nn::layer::{Conv2d, Dense};
use gradsec_nn::loss::Loss;
use gradsec_nn::optim::Sgd;
use gradsec_nn::{zoo, Sequential};
use gradsec_tensor::backend::Tiled;
use gradsec_tensor::{init, BackendKind, Tensor};
use proptest::prelude::*;

/// `(model, backend, digest)`, captured at commit af11ed0, while layers
/// still copied their inputs and kept `Z` beside `A`; the `lenet5` Tiled
/// row re-captured on AVX2 when dInput moved onto the GEMM core, and
/// landed by the portable kernel since it fuses as AVX2 does.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("lenet5", "reference", 0xd80aac3e408fe765),
    ("lenet5", "tiled", 0x58064d9c042609c4),
    ("dense_stack", "reference", 0xadd5655996d2efeb),
    ("pooled_conv", "reference", 0x67d796bfc63e74d3),
];

/// FNV-1a over the little-endian bytes of each word.
fn digest(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A seeded batch of `n` inputs shaped `sample` and one-hot labels.
fn batch(n: usize, sample: &[usize], classes: usize, seed: u64) -> (Tensor, Tensor) {
    let dims: Vec<usize> = std::iter::once(n).chain(sample.iter().copied()).collect();
    let x = init::uniform(&dims, -1.0, 1.0, seed);
    let mut y = Tensor::zeros(&[n, classes]);
    for i in 0..n {
        y.set(&[i, (7 * i + seed as usize) % classes], 1.0).unwrap();
    }
    (x, y)
}

/// Three SGD steps of `model` on batches of `n`, then one full backward:
/// the digest of every loss, weight and input-gradient bit.
fn trained_digest(mut model: Sequential, n: usize, sample: &[usize], classes: usize) -> u64 {
    let mut opt = Sgd::new(0.05);
    let mut words = Vec::new();
    for step in 0..3 {
        let (x, y) = batch(n, sample, classes, 100 + step);
        let stats = model.train_batch(x, &y, &mut opt).unwrap();
        words.push(stats.loss.to_bits());
    }
    for l in model.weights().iter() {
        words.extend(l.w.data().iter().chain(l.b.data()).map(|x| x.to_bits()));
    }
    let (x, y) = batch(n, sample, classes, 200);
    let logits = model.forward(&x).unwrap();
    let (_, delta) = model.loss().evaluate(&logits, &y).unwrap();
    let input_grad = model.backward(&delta).unwrap();
    assert_eq!(input_grad.dims(), x.dims());
    words.extend(input_grad.data().iter().map(|x| x.to_bits()));
    digest(words)
}

/// LeNet-5 with a 10-class head; six images make two conv bands.
fn lenet5(backend: BackendKind) -> u64 {
    let mut m = zoo::lenet5_with(10, 7).unwrap();
    m.set_backend(backend);
    trained_digest(m, 6, &[3, 32, 32], 10)
}

/// Dense layers through every activation.
fn dense_stack() -> u64 {
    let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
    m.push(Box::new(
        Dense::new(20, 16, Activation::Sigmoid, 1).unwrap(),
    ));
    m.push(Box::new(Dense::new(16, 12, Activation::Tanh, 2).unwrap()));
    m.push(Box::new(Dense::new(12, 8, Activation::Relu, 3).unwrap()));
    m.push(Box::new(Dense::new(8, 4, Activation::Linear, 4).unwrap()));
    trained_digest(m, 5, &[20], 4)
}

/// Pooled Tanh and Sigmoid convolutions into a dense head.
fn pooled_conv() -> u64 {
    let mut m = Sequential::new(Loss::CategoricalCrossEntropy);
    let tanh = Conv2d::new(3, 8, 8, 4, 3, 1, 1, Activation::Tanh, true, 5).unwrap();
    let sigmoid = Conv2d::new(4, 4, 4, 6, 3, 1, 1, Activation::Sigmoid, true, 6).unwrap();
    m.push(Box::new(tanh));
    m.push(Box::new(sigmoid));
    m.push(Box::new(Dense::new(24, 3, Activation::Linear, 7).unwrap()));
    trained_digest(m, 5, &[3, 8, 8], 3)
}

#[test]
fn training_bits_match_the_golden_table() {
    let got = [
        ("lenet5", "reference", lenet5(BackendKind::Reference)),
        ("lenet5", "tiled", lenet5(BackendKind::Tiled)),
        ("dense_stack", "reference", dense_stack()),
        ("pooled_conv", "reference", pooled_conv()),
    ];
    let table: Vec<String> = got
        .iter()
        .map(|(model, backend, d)| format!("    (\"{model}\", \"{backend}\", {d:#018x}),"))
        .collect();
    for (model, backend, d) in &got {
        let want = GOLDEN
            .iter()
            .find(|&&(m, b, _)| m == *model && b == *backend)
            .map(|&(_, _, d)| d);
        assert_eq!(
            want,
            Some(*d),
            "{model} on {backend} moved (Tiled ISA {}); this host's rows:\n{}",
            Tiled::auto().isa(),
            table.join("\n")
        );
    }
}

const ACTS: [Activation; 4] = [
    Activation::Linear,
    Activation::Relu,
    Activation::Sigmoid,
    Activation::Tanh,
];

/// `f'` read off `f(z)`, as the fused kernels write it, against `f'(z)`.
fn assert_output_derivative_exact(z: f32) {
    for act in ACTS {
        let a = act.fused().apply(z);
        assert_eq!(
            act.derivative_from_output(a).to_bits(),
            act.derivative(z).to_bits(),
            "{act} at z = {z:e} ({:#010x})",
            z.to_bits()
        );
    }
}

#[test]
fn output_derivative_is_exact_on_special_values() {
    let specials = [
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling NaN
        f32::from_bits(0xffc0_1234), // negative NaN with a payload
        f32::from_bits(1),           // smallest subnormal
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff), // largest subnormal
        -f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
        1.0,
        -1.0,
        88.72,
        -88.72,
        103.97,
        -103.97,
    ];
    for z in specials {
        assert_output_derivative_exact(z);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn output_derivative_is_exact_on_any_bit_pattern(bits in any::<u32>()) {
        assert_output_derivative_exact(f32::from_bits(bits));
    }
}
