//! Golden bits for the `Tiled` backend, the way `wire_layout.rs` pins
//! bytes: one 64-bit digest of every output bit per (op, ISA) pair, on
//! seeded operands, called through [`TensorBackend`] on
//! `Tiled::with_isa(isa)`.
//!
//! The parity suites only hold `Tiled` within rounding distance of
//! `Reference`; this one holds it to its own past. A kernel change that
//! moves any bit fails here and prints the new table. Re-capture it only
//! on purpose, replacing just the rows that moved — the rows that did
//! not are the proof nothing else changed. AVX2 rows are checked only
//! where the host runs AVX2+FMA; portable rows everywhere (the portable
//! kernel has no FMA contraction, so its bits are host-independent).
//!
//! Fused activations use ReLU so no digest depends on the host's `libm`.

use gradsec_tensor::backend::{FusedActivation, TensorBackend, Tiled, TiledIsa};
use gradsec_tensor::init;
use gradsec_tensor::ops::conv::Conv2dGeometry;
use gradsec_tensor::ops::pool::PoolGeometry;

/// `(op, isa, digest)`, captured at commit 65fab6a.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("matmul", "portable", 0xdaa18b31ba0b968a),
    ("matmul_nt", "portable", 0x94ac81fa0a98911e),
    ("matmul_tn", "portable", 0xe4f4616ba5074d21),
    ("matvec", "portable", 0x7ebd66168a066f2d),
    ("conv2d_forward", "portable", 0xe994da57e072b34f),
    ("conv2d_forward_fused", "portable", 0xc4380d2fa004cfbc),
    ("conv2d_backward", "portable", 0x7adcdfbd85892c67),
    ("dense_forward_fused", "portable", 0x3f2489e6c3060946),
    ("maxpool_forward", "portable", 0xb494803d02221424),
    ("maxpool_backward", "portable", 0x31c5724d06d7c09a),
    ("axpy", "portable", 0xd0fb4968d9b2736c),
    ("hadamard", "portable", 0xbf1cdc43e07302e3),
    ("scale", "portable", 0x79b575cd2a983f38),
    ("sum", "portable", 0x7a5c3732f90d6e19),
    ("dot", "portable", 0x183ee0e4396bfbb7),
    ("matmul", "avx2", 0xb7a4f5036f979753),
    ("matmul_nt", "avx2", 0xa9dd9e4e235cb1de),
    ("matmul_tn", "avx2", 0x58725d9e77bfe301),
    ("matvec", "avx2", 0x7ebd66168a066f2d),
    ("conv2d_forward", "avx2", 0x3dbda24146303564),
    ("conv2d_forward_fused", "avx2", 0x4af3c1a2517ed000),
    ("conv2d_backward", "avx2", 0x33faf098c823dcb6),
    ("dense_forward_fused", "avx2", 0x95841621d634aea2),
    ("maxpool_forward", "avx2", 0xb494803d02221424),
    ("maxpool_backward", "avx2", 0x31c5724d06d7c09a),
    ("axpy", "avx2", 0xd0fb4968d9b2736c),
    ("hadamard", "avx2", 0xbf1cdc43e07302e3),
    ("scale", "avx2", 0x79b575cd2a983f38),
    ("sum", "avx2", 0x7a5c3732f90d6e19),
    ("dot", "avx2", 0x183ee0e4396bfbb7),
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
/// Elementwise / reduction length: not a multiple of any lane count.
const LEN: usize = 1003;

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
        t.conv2d_forward(&input, &weights, &bias, &mut z, &geo);
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
    let x = seeded(K, 5);
    let mut c = vec![0.0f32; M * N];
    t.matmul(&a, &b, &mut c, M, K, N);
    out.push(("matmul", bits([c.as_slice()])));
    let mut c = vec![0.0f32; M * N];
    t.matmul_nt(&a, &bt, &mut c, M, K, N);
    out.push(("matmul_nt", bits([c.as_slice()])));
    let mut c = vec![0.0f32; M * N];
    t.matmul_tn(&at, &b, &mut c, M, K, N);
    out.push(("matmul_tn", bits([c.as_slice()])));
    let mut y = vec![0.0f32; M];
    t.matvec(&a, &x, &mut y, M, K);
    out.push(("matvec", bits([y.as_slice()])));

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

    let (u, v) = (seeded(LEN, 9), seeded(LEN, 10));
    let mut y = v.clone();
    t.axpy(0.375, &u, &mut y);
    out.push(("axpy", bits([y.as_slice()])));
    let mut h = vec![0.0f32; LEN];
    t.hadamard(&u, &v, &mut h);
    out.push(("hadamard", bits([h.as_slice()])));
    let mut s = vec![0.0f32; LEN];
    t.scale(-1.25, &u, &mut s);
    out.push(("scale", bits([s.as_slice()])));
    out.push(("sum", digest([t.sum(&u).to_bits()])));
    out.push(("dot", digest([t.dot(&u, &v).to_bits()])));
    out
}

#[test]
fn tiled_outputs_match_their_golden_bits() {
    let mut table = Vec::new();
    for isa in [TiledIsa::Portable, TiledIsa::Avx2] {
        for (op, d) in digests(isa) {
            table.push((op, isa.name(), d));
        }
    }
    let checked: Vec<_> = table
        .iter()
        .filter(|(_, isa, _)| *isa == "portable" || TiledIsa::Avx2.available())
        .collect();
    let moved: Vec<_> = checked
        .iter()
        .filter(|(op, isa, d)| !GOLDEN.contains(&(op, isa, *d)))
        .collect();
    if !moved.is_empty() {
        let rows: Vec<String> = table
            .iter()
            .map(|(op, isa, d)| format!("    ({op:?}, {isa:?}, 0x{d:016x}),"))
            .collect();
        panic!(
            "{} of {} Tiled digests moved: {moved:?}\nthe table on this tree:\n{}",
            moved.len(),
            checked.len(),
            rows.join("\n")
        );
    }
    assert_eq!(GOLDEN.len(), table.len(), "one row per (op, ISA) pair");
}
