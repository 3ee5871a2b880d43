//! Reusable scratch buffers for the `Reference` backend's im2col/col2im
//! convolution kernels — the pool's only client (`Tiled` convolves
//! through virtual im2col and never checks a buffer out).
//!
//! One client cycle calls `conv2d_forward`/`conv2d_backward` once per
//! convolutional layer per batch; allocating the `(C·K·K) × (OH·OW)`
//! column matrix inside every call used to dominate the kernel bench for
//! small layers. Buffers are instead checked out of a process-wide pool
//! and returned after the kernel runs, so they are reused across calls —
//! including across the *fresh scoped threads* the banded conv path
//! spawns per call (a thread-local cache would die with each band
//! worker). Reuse is value-safe because every kernel fully overwrites
//! the region it uses (`im2col` writes every element; the `dcol` buffer
//! is `fill(0.0)`ed).
//!
//! The pool is bounded on both axes so long multi-shape federations
//! cannot accumulate unbounded scratch memory: at most
//! [`MAX_POOLED`] buffers are retained (a return beyond the cap is
//! dropped), and a buffer that has grown past [`MAX_RETAIN_ELEMS`]
//! elements is dropped on return instead of parked — oversized
//! one-off shapes (a paper-scale layer probed once) must not pin tens of
//! megabytes for the rest of the process. The two lock round-trips per
//! kernel call are nanoseconds against the micro/milliseconds the kernel
//! itself takes. A buffer held across a kernel panic is simply dropped,
//! never returned poisoned.
//!
//! Each checkout also bumps a thread-local counter (read through
//! [`crate::backend::thread_scratch_checkouts`]) so tests can assert how
//! much column scratch an op consumed — in particular that the `Tiled`
//! backend's virtual-im2col conv path checks out none at all.

use std::cell::Cell;
use std::sync::Mutex;

/// Maximum buffers retained in the pool; returns beyond this are dropped.
pub(crate) const MAX_POOLED: usize = 32;

/// Maximum elements a retained buffer may hold; larger returns are
/// dropped (16 MiB of `f32` per buffer).
pub(crate) const MAX_RETAIN_ELEMS: usize = 4 * 1024 * 1024;

static POOL: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

thread_local! {
    static CHECKOUTS: Cell<u64> = const { Cell::new(0) };
}

/// Column-scratch checkouts performed *by the calling thread* since it
/// started. Banded conv calls run their kernels on scoped worker
/// threads, so a caller observing its own counter across a single-band
/// (single-threaded) op sees exactly that op's scratch traffic.
pub(crate) fn thread_checkouts() -> u64 {
    CHECKOUTS.with(Cell::get)
}

fn checkout(col_len: usize) -> Vec<f32> {
    CHECKOUTS.with(|c| c.set(c.get() + 1));
    let mut buf = POOL
        .lock()
        .expect("scratch pool lock poisoned")
        .pop()
        .unwrap_or_default();
    if buf.len() < col_len {
        buf.resize(col_len, 0.0);
    }
    buf
}

fn give_back(buf: Vec<f32>) {
    if buf.capacity() > MAX_RETAIN_ELEMS {
        return;
    }
    let mut pool = POOL.lock().expect("scratch pool lock poisoned");
    if pool.len() < MAX_POOLED {
        pool.push(buf);
    }
}

/// Number of buffers currently parked in the pool (test observability).
#[cfg(test)]
fn pooled() -> usize {
    POOL.lock().expect("scratch pool lock poisoned").len()
}

/// Largest capacity currently parked in the pool (test observability).
#[cfg(test)]
fn pooled_max_capacity() -> usize {
    POOL.lock()
        .expect("scratch pool lock poisoned")
        .iter()
        .map(Vec::capacity)
        .max()
        .unwrap_or(0)
}

/// Runs `f` with a pooled column buffer of at least `col_len` elements
/// (the forward pass needs one buffer).
pub(crate) fn with_col<R>(col_len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = checkout(col_len);
    let out = f(&mut buf[..col_len]);
    give_back(buf);
    out
}

/// Runs `f` with two pooled column buffers of at least `col_len`
/// elements each (the backward pass needs `col` and `dcol`).
pub(crate) fn with_col_pair<R>(col_len: usize, f: impl FnOnce(&mut [f32], &mut [f32]) -> R) -> R {
    let mut col = checkout(col_len);
    let mut dcol = checkout(col_len);
    let out = f(&mut col[..col_len], &mut dcol[..col_len]);
    give_back(col);
    give_back(dcol);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_returned_and_reused_across_threads() {
        // Fill a buffer, return it, then observe the recycled contents
        // from a *different* thread — the cross-thread reuse the banded
        // conv path relies on. Kernels must overwrite what they read,
        // and do: this test documents that contract rather than clean
        // memory.
        with_col(8, |col| {
            assert_eq!(col.len(), 8);
            col.fill(7.0);
        });
        std::thread::spawn(|| {
            with_col(4, |col| {
                assert_eq!(col.len(), 4);
            });
        })
        .join()
        .expect("scratch thread joins");
        with_col_pair(16, |col, dcol| {
            assert_eq!(col.len(), 16);
            assert_eq!(dcol.len(), 16);
        });
    }

    #[test]
    fn pool_never_retains_more_than_the_cap() {
        // Churn far more buffers through the pool than the cap, from
        // nested checkouts so several are outstanding at once. The pool
        // is process-global and other tests run concurrently, so assert
        // the *invariant* (never above the cap), not an exact count.
        for _ in 0..3 {
            with_col_pair(64, |_, _| {
                with_col_pair(64, |_, _| {
                    for _ in 0..2 * MAX_POOLED {
                        with_col(32, |_| {});
                    }
                });
            });
            assert!(
                pooled() <= MAX_POOLED,
                "pool grew past cap: {} > {MAX_POOLED}",
                pooled()
            );
        }
    }

    #[test]
    fn oversized_returns_are_dropped_not_parked() {
        // A one-off paper-scale checkout must not pin its memory in the
        // pool. Invariant-style assertion again: no parked buffer may
        // ever exceed the retain bound, whatever other tests are doing.
        with_col(MAX_RETAIN_ELEMS + 1, |col| {
            assert_eq!(col.len(), MAX_RETAIN_ELEMS + 1);
        });
        assert!(
            pooled_max_capacity() <= MAX_RETAIN_ELEMS,
            "oversized buffer was parked: {} elements",
            pooled_max_capacity()
        );
    }

    #[test]
    fn checkouts_are_counted_per_thread() {
        let before = thread_checkouts();
        with_col(8, |_| {});
        with_col_pair(8, |_, _| {});
        assert_eq!(thread_checkouts() - before, 3);
        // Another thread's checkouts never leak into this thread's count.
        let here = thread_checkouts();
        std::thread::spawn(|| with_col(8, |_| {}))
            .join()
            .expect("counter thread joins");
        assert_eq!(thread_checkouts(), here);
    }
}
