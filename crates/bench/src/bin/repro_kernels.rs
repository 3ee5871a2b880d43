//! Kernel parity gate at paper scale: runs every hot-path op on the
//! LeNet-5 and AlexNet shapes (paper Table 4, batch 32) on `Reference`
//! and on `Tiled`, at the ISA this process resolved (printed on stdout;
//! `GRADSEC_TILED_ISA=portable` pins the other leg), and exits 1 naming
//! every entry whose `Tiled` output drifts past rounding distance from
//! `Reference`.
//!
//! Nothing here is timed and nothing is written: kernel speed is judged
//! by `benchmark/` alone, and `Tiled`'s exact bits by the `tiled_golden`
//! test in `crates/tensor`.

use gradsec_bench::kernels::{alexnet_conv_geometries, conv_stack, BATCH};
use gradsec_tensor::backend::{BackendKind, Tiled};
use gradsec_tensor::init;
use gradsec_tensor::ops::conv::{conv2d_backward_with, conv2d_forward_with, Conv2dGeometry};
use gradsec_tensor::ops::matmul::{matmul_nt_with, matmul_tn_with, matmul_with};
use gradsec_tensor::ops::pool::{maxpool_forward_with, PoolGeometry};

/// One table entry: an op at a model shape, run per backend.
struct Entry {
    op: &'static str,
    shape: &'static str,
    /// Runs the op on `backend`, returning every output it produces.
    run: Box<dyn Fn(BackendKind) -> Vec<f32>>,
}

/// Largest absolute difference relative to the largest output magnitude
/// (reassociation error is absolute per accumulation); NaN when either
/// side produced one.
fn drift(reference: &[f32], other: &[f32]) -> f32 {
    assert_eq!(reference.len(), other.len(), "backends disagree on shape");
    let scale = reference
        .iter()
        .chain(other.iter())
        .fold(1.0f32, |m, x| m.max(x.abs()));
    let worst = reference
        .iter()
        .zip(other)
        .map(|(r, t)| (r - t).abs())
        .max_by(f32::total_cmp)
        .unwrap_or(0.0);
    worst / scale
}

/// The gate's bound on [`drift`]. The op-level 1e-5 contract is enforced
/// by the `backend_properties` proptests on op-scale shapes; these
/// paper-scale shapes accumulate thousands of terms per output (k up to
/// 4096), so reassociation error is legitimately larger and this gate
/// allows 10x headroom — it exists to catch real kernel bugs (wrong
/// element, dropped term), not to re-pin the rounding bound.
const MAX_DRIFT: f32 = 1e-4;

/// Forward and backward over a whole conv *stack* (every conv layer of
/// one model, batch 32).
fn conv_stack_entries(name: &'static str, geos: Vec<Conv2dGeometry>, seed: u64) -> Vec<Entry> {
    let layers = conv_stack(&geos, seed);
    let fwd_layers = layers.clone();
    let forward = Entry {
        op: "conv2d_forward",
        shape: name,
        run: Box::new(move |backend| {
            let mut out = Vec::new();
            for l in &fwd_layers {
                out.extend(
                    conv2d_forward_with(&l.input, &l.weights, &l.bias, &l.geo, backend)
                        .expect("stack conv forward runs")
                        .into_vec(),
                );
            }
            out
        }),
    };
    let backward = Entry {
        op: "conv2d_backward",
        shape: name,
        run: Box::new(move |backend| {
            let mut out = Vec::new();
            for l in &layers {
                let (dw, db, di) =
                    conv2d_backward_with(&l.input, &l.weights, &l.delta, &l.geo, backend)
                        .expect("stack conv backward runs");
                out.extend(dw.into_vec());
                out.extend(db.into_vec());
                out.extend(di.into_vec());
            }
            out
        }),
    };
    vec![forward, backward]
}

fn dense_entries(name: &'static str, inputs: usize, outputs: usize, seed: u64) -> Vec<Entry> {
    let a = init::uniform(&[BATCH, inputs], -1.0, 1.0, seed);
    let w = init::uniform(&[outputs, inputs], -0.5, 0.5, seed + 1);
    let delta = init::uniform(&[BATCH, outputs], -1.0, 1.0, seed + 2);
    let (fa, fw) = (a.clone(), w.clone());
    let nt = Entry {
        op: "matmul_nt",
        shape: name,
        run: Box::new(move |backend| {
            matmul_nt_with(&fa, &fw, backend)
                .expect("dense forward matmul runs")
                .into_vec()
        }),
    };
    let td = delta.clone();
    let tn = Entry {
        op: "matmul_tn",
        shape: name,
        run: Box::new(move |backend| {
            matmul_tn_with(&td, &a, backend)
                .expect("dense dW matmul runs")
                .into_vec()
        }),
    };
    let nn = Entry {
        op: "matmul",
        shape: name,
        run: Box::new(move |backend| {
            matmul_with(&delta, &w, backend)
                .expect("dense dInput matmul runs")
                .into_vec()
        }),
    };
    vec![nt, tn, nn]
}

fn pool_entry(name: &'static str, geo: PoolGeometry, seed: u64) -> Entry {
    let input = init::uniform(&[BATCH, geo.channels, geo.in_h, geo.in_w], -1.0, 1.0, seed);
    Entry {
        op: "maxpool_forward",
        shape: name,
        run: Box::new(move |backend| {
            maxpool_forward_with(&input, &geo, backend)
                .expect("pool runs")
                .0
                .into_vec()
        }),
    }
}

fn entries() -> Vec<Entry> {
    let mut entries = Vec::new();
    // LeNet-5 L1 (Table 4): 32x32x3 -> 16x16x12, 5x5/2/2.
    entries.extend(conv_stack_entries(
        "lenet5_l1",
        vec![Conv2dGeometry::new(3, 32, 32, 12, 5, 2, 2).expect("lenet geometry")],
        10,
    ));
    // AlexNet L1 conv part: 32x32x3 -> 16x16x64, 3x3/2/1.
    entries.extend(conv_stack_entries(
        "alexnet_l1",
        vec![Conv2dGeometry::new(3, 32, 32, 64, 3, 2, 1).expect("alexnet geometry")],
        20,
    ));
    // The whole AlexNet conv stack (L1–L5).
    entries.extend(conv_stack_entries("alexnet", alexnet_conv_geometries(), 60));
    // LeNet-5 L5 dense head: 768 -> 100.
    entries.extend(dense_entries("lenet5_fc5", 768, 100, 30));
    // AlexNet FC7: 4096 -> 4096, the heaviest dense product per cycle.
    entries.extend(dense_entries("alexnet_fc7", 4096, 4096, 40));
    // AlexNet L1's fused MP2 pool on the 16x16x64 conv output.
    entries.push(pool_entry(
        "alexnet_l1",
        PoolGeometry::mp2(64, 16, 16).expect("pool geometry"),
        50,
    ));
    entries
}

fn main() {
    println!(
        "kernel parity (batch {BATCH}, tiled ISA: {}, bound {MAX_DRIFT:e} of the largest output)",
        Tiled::auto().isa()
    );
    println!("{:<18} {:<12} {:>10}", "op", "shape", "drift");
    let mut failures = Vec::new();
    for entry in entries() {
        let reference = (entry.run)(BackendKind::Reference);
        let tiled = (entry.run)(BackendKind::Tiled);
        let drift = drift(&reference, &tiled);
        println!("{:<18} {:<12} {drift:>10.3e}", entry.op, entry.shape);
        let within = drift <= MAX_DRIFT; // false for NaN
        if !within {
            failures.push(format!("{}/{}", entry.op, entry.shape));
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "FAIL: tiled output drifted past rounding distance from reference on {}",
            failures.join(", ")
        );
        std::process::exit(1);
    }
    println!("OK: tiled within rounding distance of reference on every entry");
}
