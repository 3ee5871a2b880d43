//! Golden bits for the `Tiled` backend, the way `wire_layout.rs` pins
//! bytes: one 64-bit digest of every output bit per op, on seeded
//! operands, called through [`TensorBackend`] on `Tiled::with_isa(isa)`
//! for every ISA the host runs.
//!
//! The parity suites only hold `Tiled` within rounding distance of
//! `Reference`; this one holds it to its own past. A kernel change that
//! moves any bit fails here and prints the rows that moved. Re-capture
//! them only on purpose, replacing just those rows — the rows that did
//! not move are the proof nothing else changed. Both kernel sets fuse
//! every multiply-add (IEEE 754 rounds a fused multiply-add exactly
//! once), so each op has one answer on every ISA and every host, and a
//! row that holds on one ISA but not another names a kernel that
//! diverged.
//!
//! Fused activations use ReLU so no digest depends on the host's `libm`.

use gradsec_tensor::backend::{FusedActivation, TensorBackend, Tiled, TiledIsa};
use gradsec_tensor::init;
use gradsec_tensor::ops::conv::Conv2dGeometry;
use gradsec_tensor::ops::pool::PoolGeometry;

/// `(op, digest)`: the AVX2 rows captured at commit 65fab6a (the
/// `conv2d_backward` row re-captured when dInput moved onto the GEMM
/// core), which the portable kernel lands since it fuses as AVX2 does.
/// The `conv2d_forward` row is the fused pass at `Identity` with no `Z`
/// kept.
const GOLDEN: &[(&str, u64)] = &[
    ("matmul", 0xb7a4f5036f979753),
    ("matmul_nt", 0xa9dd9e4e235cb1de),
    ("matmul_tn", 0x58725d9e77bfe301),
    ("conv2d_forward", 0x3dbda24146303564),
    ("conv2d_forward_fused", 0x4af3c1a2517ed000),
    ("conv2d_backward", 0x218ef68c1d08ee4f),
    ("dense_forward_fused", 0x95841621d634aea2),
    ("maxpool_forward", 0xb494803d02221424),
    ("maxpool_backward", 0x31c5724d06d7c09a),
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

fn bits<'a>(parts: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    digest(parts.into_iter().flatten().map(|x| x.to_bits()))
}

fn seeded(len: usize, seed: u64) -> Vec<f32> {
    init::uniform(&[len], -1.0, 1.0, seed).into_vec()
}

/// GEMM shape: a partial 6-row panel, a partial 16-column strip and a
/// shared dimension that crosses the 256-wide slab boundary.
const M: usize = 13;
const K: usize = 300;
const N: usize = 37;

/// LeNet-5 L2 (`k2 = 300`, two slabs, stride 2, pad 2) over three
/// images, and a stride-1 pad-1 layer over two.
fn conv_cases() -> Vec<(Conv2dGeometry, usize)> {
    vec![
        (Conv2dGeometry::new(12, 16, 16, 12, 5, 2, 2).unwrap(), 3),
        (Conv2dGeometry::new(3, 9, 11, 7, 3, 1, 1).unwrap(), 2),
    ]
}

fn conv_digests(t: &Tiled, out: &mut Vec<(&'static str, u64)>) {
    let (mut fwd, mut fused, mut bwd) = (Vec::new(), Vec::new(), Vec::new());
    for (case, (geo, n)) in conv_cases().into_iter().enumerate() {
        let s = 100 + 10 * case as u64;
        let input = seeded(n * geo.in_len(), s);
        let weights = seeded(geo.weight_len(), s + 1);
        let bias = seeded(geo.out_channels, s + 2);
        let delta = seeded(n * geo.out_len(), s + 3);

        let mut z = vec![0.0f32; n * geo.out_len()];
        let identity = FusedActivation::Identity;
        t.conv2d_forward_fused(&input, &weights, &bias, &mut [], &mut z, identity, &geo);
        fwd.push(z);

        let (mut z, mut a) = (
            vec![0.0f32; n * geo.out_len()],
            vec![0.0f32; n * geo.out_len()],
        );
        let act = FusedActivation::Relu;
        t.conv2d_forward_fused(&input, &weights, &bias, &mut z, &mut a, act, &geo);
        fused.extend([z, a]);

        let mut dw = vec![0.0f32; geo.weight_len()];
        let mut db = vec![0.0f32; geo.out_channels];
        let mut di = vec![0.0f32; input.len()];
        t.conv2d_backward(&input, &weights, &delta, &mut dw, &mut db, &mut di, &geo);
        bwd.extend([dw, db, di]);
    }
    out.push(("conv2d_forward", bits(fwd.iter().map(Vec::as_slice))));
    out.push((
        "conv2d_forward_fused",
        bits(fused.iter().map(Vec::as_slice)),
    ));
    out.push(("conv2d_backward", bits(bwd.iter().map(Vec::as_slice))));
}

/// Every op's digest on one ISA, in table order.
fn digests(isa: TiledIsa) -> Vec<(&'static str, u64)> {
    let t = Tiled::with_isa(isa);
    let mut out = Vec::new();

    let a = seeded(M * K, 1);
    let b = seeded(K * N, 2);
    let bt = seeded(N * K, 3);
    let at = seeded(K * M, 4);
    let mut c = vec![0.0f32; M * N];
    t.matmul(&a, &b, &mut c, M, K, N);
    out.push(("matmul", bits([c.as_slice()])));
    let mut c = vec![0.0f32; M * N];
    t.matmul_nt(&a, &bt, &mut c, M, K, N);
    out.push(("matmul_nt", bits([c.as_slice()])));
    let mut c = vec![0.0f32; M * N];
    t.matmul_tn(&at, &b, &mut c, M, K, N);
    out.push(("matmul_tn", bits([c.as_slice()])));

    conv_digests(&t, &mut out);

    let bias = seeded(N, 6);
    let (mut z, mut act) = (vec![0.0f32; M * N], vec![0.0f32; M * N]);
    t.dense_forward_fused(
        &a,
        &bt,
        &bias,
        &mut z,
        &mut act,
        FusedActivation::Relu,
        M,
        K,
        N,
    );
    out.push(("dense_forward_fused", bits([z.as_slice(), act.as_slice()])));

    let (n, geo) = (3, PoolGeometry::mp2(12, 16, 16).unwrap());
    let input = seeded(n * geo.channels * geo.in_h * geo.in_w, 7);
    let pooled = n * geo.channels * geo.out_h * geo.out_w;
    let (mut p, mut argmax) = (vec![0.0f32; pooled], vec![0u32; pooled]);
    t.maxpool_forward(&input, &mut p, &mut argmax, n, &geo);
    out.push((
        "maxpool_forward",
        digest(p.iter().map(|v| v.to_bits()).chain(argmax.iter().copied())),
    ));
    let delta = seeded(pooled, 8);
    let mut di = vec![0.0f32; input.len()];
    t.maxpool_backward(&delta, &argmax, &mut di, n, &geo);
    out.push(("maxpool_backward", bits([di.as_slice()])));

    out
}

#[test]
fn tiled_outputs_match_their_golden_bits() {
    let (mut moved, mut checked) = (Vec::new(), 0);
    for isa in TiledIsa::available_on_host() {
        let table = digests(isa);
        let ops = table.iter().map(|(op, _)| op);
        assert!(ops.eq(GOLDEN.iter().map(|(op, _)| op)), "one row per op");
        checked += table.len();
        moved.extend(
            (table.into_iter())
                .filter(|row| !GOLDEN.contains(row))
                .map(|(op, d)| format!("    ({op:?}, 0x{d:016x}), // on {isa}")),
        );
    }
    assert!(
        moved.is_empty(),
        "{} of {checked} Tiled digests moved; the rows on this tree:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
