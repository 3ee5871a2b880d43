//! Memory is flat over run length: after warm-up, a federation's live
//! heap does not grow with the rounds it has committed. The server holds
//! one global model and replaces it at every commit, so nothing a round
//! allocates outlives the next one.
//!
//! This file is its own test binary with one test, because the counting
//! allocator below sees every allocation in the process: a second test
//! running concurrently would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gradsec::data::SyntheticMicro;
use gradsec::fl::config::TrainingPlan;
use gradsec::fl::runner::Federation;
use gradsec::nn::zoo;

/// `System`, counting the bytes currently allocated through it.
struct Counting;

/// Live heap bytes. A statistic that publishes no other data, so
/// `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
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
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live bytes after round 210 exceed those after round 60 by less than
/// 4 KiB on a 16-client federation of a 132 616-byte model. A server
/// that kept every committed global grew by one model a round here:
/// about 19.9 MB over those 150 rounds.
#[test]
fn live_heap_is_flat_after_warm_up() {
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
