//! Kernel parity workloads: the model shapes and seeded operand
//! construction the `repro_kernels` gate runs per op on each backend.

use gradsec_tensor::ops::conv::Conv2dGeometry;
use gradsec_tensor::{init, Tensor};

/// The paper's evaluation batch size (Table 6 uses 32).
pub const BATCH: usize = 32;

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
    fn stacks_build_with_matching_shapes() {
        let geos = alexnet_conv_geometries();
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
