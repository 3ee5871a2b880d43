//! Memory is flat over run length: after warm-up, a federation's live
//! heap does not grow with the rounds it has committed. The server holds
//! one global model and replaces it at every commit, so nothing a round
//! allocates outlives the next one. And a round's peak is flat over its
//! cohort: the commit folds each upload as it arrives, in whatever order,
//! and drops it, so a round holds about one upload per worker in flight —
//! on one shard of one worker, or on two shards of one worker each.
//!
//! This file is its own test binary with one test, because the counting
//! allocator below sees every allocation in the process: a second test
//! running concurrently would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gradsec::data::SyntheticMicro;
use gradsec::fl::codec::encode_weights;
use gradsec::fl::config::TrainingPlan;
use gradsec::fl::runner::Federation;
use gradsec::fl::CodecKind;
use gradsec::nn::optim::Sgd;
use gradsec::nn::zoo;
use gradsec::tensor::ops::threads;
use gradsec::tensor::{init, BackendKind, Tensor};

/// `System`, counting the bytes currently allocated through it.
struct Counting;

/// Live heap bytes, and their high-water mark since the test last reset
/// it. Statistics that publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts `size` more live bytes.
fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The in-round peak above the live heap before the second round of an
/// in-process delta-topk federation of `clients` clients of a 132 616-byte
/// model on `shards` shards of one worker each, all picked every round,
/// with the largest upload that round's clients sent.
fn round_peak(clients: usize, shards: usize) -> (usize, u64) {
    let plan = TrainingPlan {
        rounds: 2,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 3,
    };
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, 256, 5));
    let mut fed = Federation::builder(plan)
        .model(|| zoo::tiny_mlp(256, 128, 2, 9).expect("builds"))
        .clients(clients, data)
        .codec(CodecKind::DeltaTopK)
        .shards(shards)
        .build()
        .expect("federation builds");
    fed.run_round().expect("warm-up round commits");
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = fed.run_round().expect("round commits");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    fed.shutdown().expect("clean shutdown");
    let uploads = report.ledger.entries().iter();
    let term = uploads.map(|e| e.wire.upload_encoded_bytes).max();
    (peak, term.expect("a round bills its clients"))
}

/// The high-water mark of one LeNet-5 (10 classes) training step of 32
/// images on `backend`, inline on the calling thread, above the model,
/// its optimizer and the batch; and the step's layer-boundary
/// activations: the batch and every layer's output.
fn step_peak(backend: BackendKind) -> (usize, usize) {
    const IMAGES: usize = 32;
    threads::with_budget(1, || {
        let mut model = zoo::lenet5_with(10, 7).expect("builds");
        model.set_backend(backend);
        let mut opt = Sgd::new(0.05);
        let x = init::uniform(&[IMAGES, 3, 32, 32], 0.0, 1.0, 4);
        let mut y = Tensor::zeros(&[IMAGES, 10]);
        for i in 0..IMAGES {
            y.set(&[i, i % 10], 1.0).expect("in range");
        }
        // A first step warms the allocator and the model up; its caches
        // go.
        model.train_batch(x.clone(), &y, &mut opt).expect("trains");
        model.clear_caches();
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let boundary = x.numel() + IMAGES * model.iter().map(|l| l.output_elems()).sum::<usize>();
        model.train_batch(x, &y, &mut opt).expect("trains");
        let peak = PEAK.load(Ordering::Relaxed) - before;
        (peak, boundary * std::mem::size_of::<f32>())
    })
}

/// The high-water mark of one delta-topk encode of `tiny_mlp(256, 128,
/// 2)` drifted 1 % from its reference, above the live heap before it,
/// the returned payload included; and the bytes of one `f32` a
/// coefficient of its largest tensor.
fn encode_peak() -> (usize, usize) {
    let wide = zoo::tiny_mlp(256, 128, 2, 5).expect("builds").weights();
    let mut drifted = wide.clone();
    drifted.add_scaled(&wide, 0.01).expect("same shapes");
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let enc = encode_weights(CodecKind::DeltaTopK, 1, &drifted, Some((0, &wide)));
    let peak = PEAK.load(Ordering::Relaxed) - before;
    drop(enc);
    let largest = wide.iter().map(|l| l.w.numel().max(l.b.numel())).max();
    (
        peak,
        largest.expect("a model has layers") * std::mem::size_of::<f32>(),
    )
}

/// Live bytes after round 210 exceed those after round 60 by less than
/// 4 KiB on a 16-client federation of a 132 616-byte model. A server
/// that kept every committed global grew by one model a round here:
/// about 19.9 MB over those 150 rounds.
///
/// And a round's peak grows by less than a tenth of an upload a pick
/// from 32 to 256 picks, on one shard and on two: the commit folds each
/// upload as it arrives, in any order. A round that held its uploads
/// until the last one landed peaked about one upload (≈16.5 kB here)
/// higher a pick; one whose shard 1 waited for shard 0's slots, about
/// half an upload.
///
/// And a training step holds each layer-boundary activation once: one
/// LeNet-5 step of 32 images peaks below twice its boundary activations
/// (2 × 1 082 624 B) above its model, optimizer and batch, on both
/// backends. Reference peaks at about 1.45 MB, its convolutions
/// allocating their im2col buffers per call; while they came from a
/// pool, it peaked at about 1.31 MB above a live heap that held the
/// pool's parked buffers, about 0.15 MB more. A step whose layers each
/// copied their input and kept `Z` beside `A` peaked at about 2.6 MB
/// (Reference) and 2.9 MB (Tiled). On Tiled it peaks below 1.5 × those
/// activations (about 1.38 MB): its backward data pass is one GEMM per
/// phase over a padded frame of a band's errors. While that pass landed
/// `Wᵀ·Δ` in a column buffer for a band of four images first, the step
/// peaked at about 1.70 MB.
///
/// And a delta-topk encode of that model, drifted 1 %, peaks below two
/// `f32` planes of its 32 768-coefficient weight tensor (2 × 131 072 B),
/// the payload included: it holds one delta plane and indices for the
/// kept coefficients and their nearest rivals (about 173 kB in all). An
/// encoder that ranked an `n`-index permutation beside the delta plane
/// peaked at 278 897 B.
#[test]
fn live_heap_is_flat_after_warm_up() {
    for backend in BackendKind::ALL {
        let (peak, boundary) = step_peak(backend);
        assert!(
            peak < 2 * boundary,
            "a LeNet-5 step on {backend} peaked {peak} B above its batch, \
             not below twice its {boundary} B of boundary activations"
        );
        if backend == BackendKind::Tiled {
            assert!(
                2 * peak < 3 * boundary,
                "a LeNet-5 step on {backend} peaked {peak} B above its batch, \
                 not below 1.5 times its {boundary} B of boundary activations"
            );
        }
    }

    let (peak, plane) = encode_peak();
    assert!(
        peak < 2 * plane,
        "a delta-topk encode peaked {peak} B above the live heap, not below two \
         {plane}-byte planes of its largest tensor"
    );

    for shards in [1, 2] {
        let (small, _) = round_peak(32, shards);
        let (large, term) = round_peak(256, shards);
        let allowed = (256 - 32) * term as usize / 10;
        assert!(
            large < small + allowed,
            "on {shards} shard(s) the round peak grew from {small} B at 32 picks to \
             {large} B at 256, more than a tenth of a {term}-byte upload a pick"
        );
    }

    const WARM: u64 = 60;
    const ROUNDS: u64 = 210;
    let plan = TrainingPlan {
        rounds: ROUNDS,
        clients_per_round: 4,
        batches_per_cycle: 1,
        batch_size: 8,
        learning_rate: 0.05,
        seed: 3,
    };
    let data = Arc::new(SyntheticMicro::new(256, 2, 256, 5));
    let mut fed = Federation::builder(plan)
        .model(|| zoo::tiny_mlp(256, 128, 2, 9).expect("builds"))
        .clients(16, data)
        .build()
        .expect("federation builds");
    let mut warm = 0;
    for round in 1..=ROUNDS {
        fed.run_round().expect("round commits");
        if round == WARM {
            warm = LIVE.load(Ordering::Relaxed);
        }
    }
    let late = LIVE.load(Ordering::Relaxed);
    assert!(
        late < warm + 4096,
        "live heap grew from {warm} B after round {WARM} to {late} B after round {ROUNDS}"
    );
    fed.shutdown().expect("clean shutdown");
}
