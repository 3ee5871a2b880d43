//! Kernel backend scaling repro: times every `TensorBackend` op on the
//! LeNet-5 and AlexNet hot-path shapes (paper Table 4, batch 32), checks
//! `Blocked` and `Tiled` parity against `Reference` and exports the
//! per-op table — including per-ISA `Tiled` columns and achieved
//! GFLOP/s — as JSON (`target/kernel_scaling.json` plus stdout).
//!
//! The `Tiled` backend is timed once per micro-kernel ISA the host can
//! run (`portable` always, `avx2` when detected) by steering the
//! backend's `GRADSEC_TILED_ISA` override between measurements; the
//! headline `tiled_s` column is the auto-selected ISA — what a
//! federation on this host actually executes.
//!
//! Exits non-zero when
//!
//! * any `Blocked` output, or any `Tiled` output on *either* ISA path,
//!   drifts past rounding distance from `Reference`, or
//! * the `Blocked` backend fails to reach [`MIN_ALEXNET_CONV_SPEEDUP`]×
//!   over `Reference` on the AlexNet conv2d forward pass, or
//! * the `Tiled` backend fails to reach the same bar over `Blocked` on
//!   that entry — the register-tiled/virtual-im2col headline win —
//!
//! so CI can use the binary as a kernel-performance gate.
//!
//! Environment:
//!
//! * `GRADSEC_KERNEL_REPS=n` — timed repetitions per entry (default 5;
//!   the median is reported).
//! * `GRADSEC_KERNEL_MIN_SPEEDUP=x` — override both speedup gates
//!   (default [`MIN_ALEXNET_CONV_SPEEDUP`]). Shared CI runners with
//!   noisy neighbours can compress relative speedups, so the per-push
//!   workflow runs with a tolerant bar while the scheduled paper-scale
//!   job keeps the full one; parity is always gated.

use std::time::Instant;

use gradsec_bench::kernels::{
    alexnet_conv_geometries, conv_backward_flops, conv_forward_flops, conv_stack, matmul_flops,
    ConvOperands, BATCH,
};
use gradsec_tee::cost::json_number;
use gradsec_tensor::backend::{BackendKind, Tiled, TiledIsa};
use gradsec_tensor::init;
use gradsec_tensor::ops::conv::{conv2d_backward_with, conv2d_forward_with, Conv2dGeometry};
use gradsec_tensor::ops::matmul::{matmul_nt_with, matmul_tn_with, matmul_with};
use gradsec_tensor::ops::pool::{maxpool_forward_with, PoolGeometry};

/// The acceptance threshold on the AlexNet conv2d forward entry, applied
/// both to Blocked-over-Reference and to Tiled-over-Blocked.
const MIN_ALEXNET_CONV_SPEEDUP: f64 = 1.3;

fn reps() -> usize {
    gradsec_bench::env::u64("GRADSEC_KERNEL_REPS", 5).max(1) as usize
}

fn min_speedup() -> f64 {
    gradsec_bench::env::f64("GRADSEC_KERNEL_MIN_SPEEDUP", MIN_ALEXNET_CONV_SPEEDUP)
}

/// One timed table entry: an op at a model shape, run per backend.
struct Entry {
    op: &'static str,
    shape: &'static str,
    /// Multiply-add FLOPs one run performs (0 for non-GEMM ops, which
    /// then report no GFLOP/s).
    flops: f64,
    /// Runs the op on `backend`, returning the output buffer used for
    /// the parity check.
    run: Box<dyn Fn(BackendKind) -> Vec<f32>>,
}

/// Median of `reps` timed runs (seconds) plus one output for parity.
fn measure(entry: &Entry, backend: BackendKind, reps: usize) -> (f64, Vec<f32>) {
    let output = (entry.run)(backend); // warm-up + parity sample
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let out = (entry.run)(backend);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(out);
            dt
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], output)
}

/// Times the `Tiled` backend pinned to `isa` by steering the backend's
/// environment override around the measurement (the kernels re-read it
/// per call, so this works in-process; the var is restored after).
fn measure_tiled_isa(entry: &Entry, isa: TiledIsa, reps: usize) -> (f64, Vec<f32>) {
    let saved = std::env::var("GRADSEC_TILED_ISA").ok();
    std::env::set_var("GRADSEC_TILED_ISA", isa.name());
    let result = measure(entry, BackendKind::Tiled, reps);
    match saved {
        Some(v) => std::env::set_var("GRADSEC_TILED_ISA", v),
        None => std::env::remove_var("GRADSEC_TILED_ISA"),
    }
    result
}

/// Achieved GFLOP/s, or `None` for untimed/non-GEMM entries.
fn gflops(flops: f64, secs: f64) -> Option<f64> {
    (flops > 0.0 && secs > 0.0).then(|| flops / secs / 1e9)
}

/// Relative parity judged against the largest output magnitude
/// (reassociation error is absolute per accumulation). The op-level
/// 1e-5 contract is enforced by the `backend_properties` proptests on
/// op-scale shapes; these paper-scale shapes accumulate thousands of
/// terms per output (k up to 4096), so reassociation error is
/// legitimately larger and this gate allows 10x headroom — it exists to
/// catch real kernel bugs (wrong element, dropped term), not to re-pin
/// the rounding bound.
fn parity_ok(reference: &[f32], other: &[f32]) -> bool {
    if reference.len() != other.len() {
        return false;
    }
    let scale = reference
        .iter()
        .chain(other.iter())
        .fold(1.0f32, |m, x| m.max(x.abs()));
    let tol = 1e-4 * scale;
    reference
        .iter()
        .zip(other)
        .all(|(r, b)| (r - b).abs() <= tol)
}

/// Aggregate entries timing a whole conv *stack* (every conv layer of one
/// model, batch 32) — the number a client cycle actually pays, and the
/// one the acceptance gates read for AlexNet.
fn conv_stack_entries(name: &'static str, geos: Vec<Conv2dGeometry>, seed: u64) -> Vec<Entry> {
    let fwd_flops: f64 = geos.iter().map(|g| conv_forward_flops(g, BATCH)).sum();
    let bwd_flops: f64 = geos.iter().map(|g| conv_backward_flops(g, BATCH)).sum();
    let layers: Vec<ConvOperands> = conv_stack(&geos, seed);
    let fwd_layers = layers.clone();
    let forward = Entry {
        op: "conv2d_forward",
        shape: name,
        flops: fwd_flops,
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
        flops: bwd_flops,
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

fn conv_entries(name: &'static str, geo: Conv2dGeometry, seed: u64) -> Vec<Entry> {
    let input = init::uniform(
        &[BATCH, geo.in_channels, geo.in_h, geo.in_w],
        -1.0,
        1.0,
        seed,
    );
    let weights = init::uniform(
        &[geo.out_channels, geo.in_channels * geo.kernel * geo.kernel],
        -0.5,
        0.5,
        seed + 1,
    );
    let bias = init::uniform(&[geo.out_channels], -0.5, 0.5, seed + 2);
    let delta = init::uniform(
        &[BATCH, geo.out_channels, geo.out_h, geo.out_w],
        -1.0,
        1.0,
        seed + 3,
    );
    let (fi, fw, fb) = (input.clone(), weights.clone(), bias.clone());
    let forward = Entry {
        op: "conv2d_forward",
        shape: name,
        flops: conv_forward_flops(&geo, BATCH),
        run: Box::new(move |backend| {
            conv2d_forward_with(&fi, &fw, &fb, &geo, backend)
                .expect("conv forward runs")
                .into_vec()
        }),
    };
    let backward = Entry {
        op: "conv2d_backward",
        shape: name,
        flops: conv_backward_flops(&geo, BATCH),
        run: Box::new(move |backend| {
            let (dw, db, di) = conv2d_backward_with(&input, &weights, &delta, &geo, backend)
                .expect("conv backward runs");
            let mut out = dw.into_vec();
            out.extend(db.into_vec());
            out.extend(di.into_vec());
            out
        }),
    };
    vec![forward, backward]
}

fn dense_entries(name: &'static str, inputs: usize, outputs: usize, seed: u64) -> Vec<Entry> {
    let a = init::uniform(&[BATCH, inputs], -1.0, 1.0, seed);
    let w = init::uniform(&[outputs, inputs], -0.5, 0.5, seed + 1);
    let delta = init::uniform(&[BATCH, outputs], -1.0, 1.0, seed + 2);
    let flops = matmul_flops(BATCH, inputs, outputs);
    let (fa, fw) = (a.clone(), w.clone());
    let nt = Entry {
        op: "matmul_nt",
        shape: name,
        flops,
        run: Box::new(move |backend| {
            matmul_nt_with(&fa, &fw, backend)
                .expect("dense forward matmul runs")
                .into_vec()
        }),
    };
    let (ta, td) = (a.clone(), delta.clone());
    let tn = Entry {
        op: "matmul_tn",
        shape: name,
        flops,
        run: Box::new(move |backend| {
            matmul_tn_with(&td, &ta, backend)
                .expect("dense dW matmul runs")
                .into_vec()
        }),
    };
    let nn = Entry {
        op: "matmul",
        shape: name,
        flops,
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
        flops: 0.0,
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
    entries.extend(conv_entries(
        "lenet5_l1",
        Conv2dGeometry::new(3, 32, 32, 12, 5, 2, 2).expect("lenet geometry"),
        10,
    ));
    // AlexNet L1 conv part: 32x32x3 -> 16x16x64, 3x3/2/1 (im2col-bound:
    // only 3 input channels, so the column build dominates the GEMM).
    entries.extend(conv_entries(
        "alexnet_l1",
        Conv2dGeometry::new(3, 32, 32, 64, 3, 2, 1).expect("alexnet geometry"),
        20,
    ));
    // The whole AlexNet conv stack (L1–L5) — the per-cycle conv cost and
    // the entry the acceptance gates read.
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

struct Row {
    op: &'static str,
    shape: &'static str,
    flops: f64,
    reference_s: f64,
    blocked_s: f64,
    tiled_portable_s: f64,
    tiled_avx2_s: Option<f64>,
    /// The auto-selected ISA's time — what a federation on this host runs.
    tiled_s: f64,
    speedup_blocked: f64,
    speedup_tiled: f64,
}

fn main() {
    let reps = reps();
    let min_speedup = min_speedup();
    let auto_isa = Tiled::auto().isa();
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    println!(
        "kernel backend scaling (batch {BATCH}, median of {reps} reps, tiled auto ISA: {auto_isa})"
    );
    println!(
        "{:<18} {:<12} {:>11} {:>11} {:>11} {:>7} {:>7} {:>9}",
        "op", "shape", "reference_s", "blocked_s", "tiled_s", "blk_x", "tld_x", "tld_gf/s"
    );
    for entry in entries() {
        let (ref_s, ref_out) = measure(&entry, BackendKind::Reference, reps);
        let (blk_s, blk_out) = measure(&entry, BackendKind::Blocked, reps);
        if !parity_ok(&ref_out, &blk_out) {
            failures.push(format!(
                "{}/{}: blocked output drifted past rounding distance from reference",
                entry.op, entry.shape
            ));
        }
        let mut tiled_portable_s = f64::NAN;
        let mut tiled_avx2_s = None;
        for isa in TiledIsa::available_on_host() {
            let (tld_s, tld_out) = measure_tiled_isa(&entry, isa, reps);
            if !parity_ok(&ref_out, &tld_out) {
                failures.push(format!(
                    "{}/{}: tiled[{isa}] output drifted past rounding distance from reference",
                    entry.op, entry.shape
                ));
            }
            match isa {
                TiledIsa::Portable => tiled_portable_s = tld_s,
                TiledIsa::Avx2 => tiled_avx2_s = Some(tld_s),
            }
        }
        let tiled_s = match auto_isa {
            TiledIsa::Portable => tiled_portable_s,
            TiledIsa::Avx2 => tiled_avx2_s.unwrap_or(tiled_portable_s),
        };
        let speedup_blocked = if blk_s > 0.0 { ref_s / blk_s } else { 1.0 };
        let speedup_tiled = if tiled_s > 0.0 { blk_s / tiled_s } else { 1.0 };
        let gf =
            gflops(entry.flops, tiled_s).map_or_else(|| "-".to_string(), |g| format!("{g:.2}"));
        println!(
            "{:<18} {:<12} {:>11.6} {:>11.6} {:>11.6} {:>6.2}x {:>6.2}x {:>9}",
            entry.op, entry.shape, ref_s, blk_s, tiled_s, speedup_blocked, speedup_tiled, gf
        );
        rows.push(Row {
            op: entry.op,
            shape: entry.shape,
            flops: entry.flops,
            reference_s: ref_s,
            blocked_s: blk_s,
            tiled_portable_s,
            tiled_avx2_s,
            tiled_s,
            speedup_blocked,
            speedup_tiled,
        });
    }

    let headline = rows
        .iter()
        .find(|r| r.op == "conv2d_forward" && r.shape == "alexnet")
        .expect("AlexNet conv forward entry present");
    if headline.speedup_blocked < min_speedup {
        failures.push(format!(
            "AlexNet conv2d forward blocked speedup {:.2}x below the {min_speedup}x gate",
            headline.speedup_blocked
        ));
    }
    if headline.speedup_tiled < min_speedup {
        failures.push(format!(
            "AlexNet conv2d forward tiled-over-blocked speedup {:.2}x below the {min_speedup}x gate",
            headline.speedup_tiled
        ));
    }

    let json_opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), json_number);
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                r#"    {{"op": "{}", "shape": "{}", "batch": {BATCH}, "reference_s": {}, "blocked_s": {}, "tiled_portable_s": {}, "tiled_avx2_s": {}, "tiled_s": {}, "speedup_blocked": {}, "speedup_tiled": {}, "gflops_tiled": {}}}"#,
                r.op,
                r.shape,
                json_number(r.reference_s),
                json_number(r.blocked_s),
                json_number(r.tiled_portable_s),
                json_opt(r.tiled_avx2_s),
                json_number(r.tiled_s),
                json_number(r.speedup_blocked),
                json_number(r.speedup_tiled),
                json_opt(gflops(r.flops, r.tiled_s)),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"gate\": {{\"op\": \"conv2d_forward\", \"shape\": \"alexnet\", \"min_speedup\": {min_speedup}, \"speedup\": {}, \"speedup_tiled\": {}, \"tiled_auto_isa\": \"{auto_isa}\"}},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        json_number(headline.speedup_blocked),
        json_number(headline.speedup_tiled),
        json_rows.join(",\n"),
    );
    let path = gradsec_bench::workspace_target().join("kernel_scaling.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!("{json}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "OK: backend parity holds; AlexNet conv forward: blocked {:.2}x over reference, tiled {:.2}x over blocked (gates >= {min_speedup}x)",
        headline.speedup_blocked, headline.speedup_tiled
    );
}
