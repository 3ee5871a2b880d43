//! Kernel-benchmark workloads: the model shapes and seeded operand
//! construction the `repro_kernels` gate bin times per op and per
//! backend (`target/kernel_scaling.json`).

use gradsec_tensor::ops::conv::Conv2dGeometry;
use gradsec_tensor::{init, Tensor};

/// The paper's evaluation batch size (Table 6 uses 32).
pub const BATCH: usize = 32;

/// The four conv geometries of the paper's LeNet-5 (zoo Table 4 shapes).
pub fn lenet5_conv_geometries() -> Vec<Conv2dGeometry> {
    vec![
        Conv2dGeometry::new(3, 32, 32, 12, 5, 2, 2).expect("lenet L1"),
        Conv2dGeometry::new(12, 16, 16, 12, 5, 2, 2).expect("lenet L2"),
        Conv2dGeometry::new(12, 8, 8, 12, 5, 1, 2).expect("lenet L3"),
        Conv2dGeometry::new(12, 8, 8, 12, 5, 1, 2).expect("lenet L4"),
    ]
}

/// The five conv geometries of the paper's AlexNet (zoo Table 4 shapes).
pub fn alexnet_conv_geometries() -> Vec<Conv2dGeometry> {
    vec![
        Conv2dGeometry::new(3, 32, 32, 64, 3, 2, 1).expect("alexnet L1"),
        Conv2dGeometry::new(64, 8, 8, 192, 3, 1, 1).expect("alexnet L2"),
        Conv2dGeometry::new(192, 4, 4, 384, 3, 1, 1).expect("alexnet L3"),
        Conv2dGeometry::new(384, 4, 4, 256, 3, 1, 1).expect("alexnet L4"),
        Conv2dGeometry::new(256, 4, 4, 256, 3, 1, 1).expect("alexnet L5"),
    ]
}

/// Forward-pass FLOPs of one conv layer over a batch: the im2col GEMM
/// performs `F·(C·K·K)·OH·OW` multiply-adds per image (bias adds are
/// noise at these shapes and ignored, as is conventional).
pub fn conv_forward_flops(geo: &Conv2dGeometry, batch: usize) -> f64 {
    let k2 = geo.in_channels * geo.kernel * geo.kernel;
    2.0 * (geo.out_channels * k2 * geo.out_h * geo.out_w * batch) as f64
}

/// Backward-pass FLOPs of one conv layer over a batch: the `dW` GEMM
/// (`Δ·colᵀ`) and the `dcol` GEMM (`Wᵀ·Δ`) each match the forward
/// GEMM's multiply-add count; `db` sums are noise.
pub fn conv_backward_flops(geo: &Conv2dGeometry, batch: usize) -> f64 {
    2.0 * conv_forward_flops(geo, batch)
}

/// FLOPs of an `(m×k)·(k×n)` matrix product: `2·m·k·n`.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * (m * k * n) as f64
}

/// One conv layer's pre-built, seeded operands.
#[derive(Debug, Clone)]
pub struct ConvOperands {
    /// The layer geometry.
    pub geo: Conv2dGeometry,
    /// `(BATCH, C, H, W)` input batch.
    pub input: Tensor,
    /// `(F, C·K·K)` filter matrix.
    pub weights: Tensor,
    /// `(F)` bias vector.
    pub bias: Tensor,
    /// `(BATCH, F, OH, OW)` upstream error for the backward pass.
    pub delta: Tensor,
}

/// Builds seeded operands for every layer of a conv stack.
pub fn conv_stack(geos: &[Conv2dGeometry], seed: u64) -> Vec<ConvOperands> {
    geos.iter()
        .enumerate()
        .map(|(l, &geo)| {
            let s = seed + 10 * l as u64;
            ConvOperands {
                geo,
                input: init::uniform(&[BATCH, geo.in_channels, geo.in_h, geo.in_w], -1.0, 1.0, s),
                weights: init::uniform(
                    &[geo.out_channels, geo.in_channels * geo.kernel * geo.kernel],
                    -0.5,
                    0.5,
                    s + 1,
                ),
                bias: init::uniform(&[geo.out_channels], -0.5, 0.5, s + 2),
                delta: init::uniform(
                    &[BATCH, geo.out_channels, geo.out_h, geo.out_w],
                    -1.0,
                    1.0,
                    s + 3,
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts_are_consistent() {
        let geo = Conv2dGeometry::new(3, 32, 32, 64, 3, 2, 1).unwrap();
        // 2 · F·C·K·K·OH·OW per image, linear in the batch.
        assert_eq!(
            conv_forward_flops(&geo, 1),
            2.0 * (64 * 3 * 3 * 3 * 16 * 16) as f64
        );
        assert_eq!(
            conv_forward_flops(&geo, BATCH),
            BATCH as f64 * conv_forward_flops(&geo, 1)
        );
        assert_eq!(
            conv_backward_flops(&geo, 4),
            2.0 * conv_forward_flops(&geo, 4)
        );
        assert_eq!(matmul_flops(2, 3, 4), 48.0);
    }

    #[test]
    fn stacks_build_with_matching_shapes() {
        for geos in [lenet5_conv_geometries(), alexnet_conv_geometries()] {
            let stack = conv_stack(&geos, 7);
            assert_eq!(stack.len(), geos.len());
            for l in &stack {
                assert_eq!(l.input.dims()[0], BATCH);
                assert_eq!(l.weights.dims()[0], l.geo.out_channels);
                assert_eq!(
                    l.delta.dims(),
                    &[BATCH, l.geo.out_channels, l.geo.out_h, l.geo.out_w]
                );
            }
        }
    }
}
