//! One thread budget for everything that fans work out.
//!
//! The *budget* is a per-thread number: how many threads the code running
//! on this thread may keep busy, itself included — the whole host
//! ([`host`]) until someone divides it. Whoever fans out `k` ways (a
//! round's engine deals, transport client loops) runs each branch under
//! [`with_budget`]`(budget() / k, ..)`, so nested parallelism divides the
//! cores instead of multiplying the threads. The budget decides only
//! *who* computes a band, never how bands are cut or combined: no bit of
//! any result depends on it.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The host's available parallelism (at least 1), read once per process.
pub fn host() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// How many threads the calling thread may keep busy, itself included.
pub fn budget() -> usize {
    BUDGET.get().unwrap_or_else(host)
}

/// Runs `f` on the calling thread under a budget of `n` (at least 1),
/// restoring the previous budget afterwards — also when `f` unwinds.
pub fn with_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.set(self.0);
        }
    }
    let _restore = Restore(BUDGET.replace(Some(n.max(1))));
    f()
}

/// Runs `work` over every job and returns the results in job order. At
/// most [`budget`] threads walk the jobs, the caller being one of them
/// and each taking a contiguous range; a budget of 1 (or a single job)
/// runs inline. Band workers hold a budget of 1, and a panic in one
/// resumes on the caller.
pub(crate) fn for_each_band<J: Send, R: Send>(
    jobs: Vec<J>,
    work: impl Fn(J) -> R + Sync,
) -> Vec<R> {
    let threads = budget().min(jobs.len());
    if threads <= 1 {
        return jobs.into_iter().map(work).collect();
    }
    let per = jobs.len().div_ceil(threads);
    let walk = |range: Vec<J>| with_budget(1, || range.into_iter().map(&work).collect::<Vec<R>>());
    let mut jobs = jobs.into_iter();
    let mine: Vec<J> = jobs.by_ref().take(per).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads - 1);
        while jobs.len() > 0 {
            let range: Vec<J> = jobs.by_ref().take(per).collect();
            let walk = &walk;
            handles.push(s.spawn(move || walk(range)));
        }
        let mut out = walk(mine);
        for h in handles {
            out.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, FusedActivation};
    use crate::init;
    use crate::ops::conv::{
        conv2d_backward_params_with, conv2d_backward_with, conv2d_forward_fused_with,
        conv2d_forward_with, Conv2dGeometry,
    };
    use crate::ops::matmul::matmul_with;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    #[test]
    fn budget_defaults_to_the_host_and_nests() {
        assert_eq!(budget(), host());
        with_budget(3, || {
            assert_eq!(budget(), 3);
            with_budget(0, || assert_eq!(budget(), 1));
            assert_eq!(budget(), 3);
        });
        assert_eq!(budget(), host());
    }

    #[test]
    fn with_budget_restores_the_previous_value_when_f_unwinds() {
        with_budget(5, || {
            let unwound = std::panic::catch_unwind(|| with_budget(2, || panic!("boom")));
            assert!(unwound.is_err());
            assert_eq!(budget(), 5);
        });
    }

    /// Results in job order; one contiguous range per thread; never more
    /// threads than the budget, live or in total; the caller is one of
    /// them; nothing spawned at budget 1; band workers hold budget 1.
    #[test]
    fn bands_are_walked_in_ranges_by_at_most_budget_threads() {
        let caller = std::thread::current().id();
        for b in [1usize, 2, 3, 8] {
            for jobs in [0usize, 1, 2, 5, 8, 9] {
                let (live, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let seen = with_budget(b, || {
                    for_each_band((0..jobs).collect(), |j| {
                        high_water.fetch_max(live.fetch_add(1, SeqCst) + 1, SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, SeqCst);
                        (j, std::thread::current().id(), budget())
                    })
                });
                let order: Vec<usize> = seen.iter().map(|s| s.0).collect();
                assert_eq!(order, (0..jobs).collect::<Vec<_>>());
                let mut walkers: Vec<_> = seen.iter().map(|s| s.1).collect();
                walkers.dedup(); // one entry per contiguous range
                let threads = b.min(jobs).max(1);
                let ranges = jobs.div_ceil(jobs.div_ceil(threads).max(1));
                assert_eq!(walkers.len(), ranges, "budget {b}, {jobs} jobs");
                assert!(high_water.load(SeqCst) <= b, "budget {b}, {jobs} jobs");
                if let Some(first) = walkers.first() {
                    assert_eq!(*first, caller, "the caller walks the first range");
                }
                let distinct: std::collections::HashSet<_> = walkers.iter().collect();
                assert_eq!(distinct.len(), ranges, "a thread walked two ranges");
                let spawned = ranges.saturating_sub(1);
                assert!(b > 1 || spawned == 0, "budget 1 spawned {spawned} threads");
                let inner = if ranges > 1 { 1 } else { b };
                assert!(seen.iter().all(|s| s.2 == inner), "budget {b}, {jobs} jobs");
            }
        }
    }

    #[test]
    fn a_band_panic_resumes_on_the_caller_and_restores_its_budget() {
        with_budget(2, || {
            let unwound = std::panic::catch_unwind(|| {
                for_each_band(vec![0, 1, 2, 3], |j| assert!(j != 3, "band 3 failed"))
            });
            assert!(unwound.is_err());
            assert_eq!(budget(), 2);
        });
    }

    /// The budget decides who computes a band, never what it computes:
    /// every banded op is bit-equal under budgets 1, 2, 3 and 8, on
    /// every backend.
    #[test]
    fn banded_ops_are_bit_equal_under_any_budget() {
        let geo = Conv2dGeometry::new(3, 16, 16, 6, 3, 1, 1).unwrap();
        let n = 10; // bands of 4, 4 and 2 images
        let input = init::uniform(&[n, 3, 16, 16], -1.0, 1.0, 70);
        let weights = init::uniform(&[6, 27], -0.5, 0.5, 71);
        let bias = init::uniform(&[6], -0.5, 0.5, 72);
        let delta = init::uniform(&[n, 6, geo.out_h, geo.out_w], -1.0, 1.0, 73);
        let a = init::uniform(&[128, 96], -1.0, 1.0, 74);
        let b = init::uniform(&[96, 128], -1.0, 1.0, 75);
        for backend in BackendKind::ALL {
            let run = || {
                let z = conv2d_forward_with(&input, &weights, &bias, &geo, backend).unwrap();
                let fused = conv2d_forward_fused_with(
                    &input,
                    &weights,
                    &bias,
                    &geo,
                    FusedActivation::Sigmoid,
                    backend,
                )
                .unwrap();
                let back = conv2d_backward_with(&input, &weights, &delta, &geo, backend).unwrap();
                let params =
                    conv2d_backward_params_with(&input, &weights, &delta, &geo, backend).unwrap();
                let product = matmul_with(&a, &b, backend).unwrap();
                [
                    z, fused, back.0, back.1, back.2, params.0, params.1, product,
                ]
                .map(|t| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
            };
            let inline = with_budget(1, run);
            assert_eq!(inline[2..4], inline[5..7], "{backend} params-only dW/db");
            for budget in [2, 3, 8] {
                assert!(
                    with_budget(budget, run) == inline,
                    "{backend} diverged under budget {budget}"
                );
            }
        }
    }
}
