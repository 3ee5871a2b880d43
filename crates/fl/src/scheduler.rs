//! The protection scheduler — the hook through which GradSec's policies
//! drive the federation.
//!
//! Earlier revisions wired protection through an ad-hoc
//! `Box<dyn FnMut(u64) -> Vec<usize>>` closure. That shape cannot be
//! shared across the round engine's workers (`FnMut` needs exclusive
//! access) and hides *what* is scheduling behind an opaque closure. The
//! [`ProtectionScheduler`] trait replaces it: a stateless, `Send + Sync`
//! per-round draw that policies implement directly (see
//! `gradsec-core::policy`, which implements it for `ProtectionPolicy` and
//! the DarkneTZ baseline), so the same scheduler value can be consulted
//! concurrently by the server, every worker and any attacker simulation,
//! and all agree on a cycle's configuration.

/// Chooses the protected layer set for each FL cycle.
///
/// Implementations must be pure per round: calling
/// [`layers_for_round`](ProtectionScheduler::layers_for_round) twice with
/// the same round yields the same set. This is what makes federation runs
/// replayable and lets the parallel engine hand one scheduler to many
/// workers without synchronisation.
///
/// Indices past the global model's depth are clamped away by the
/// federation before the download is built, so a scheduler configured
/// for a deeper network degrades to sheltering the layers that exist.
pub trait ProtectionScheduler: Send + Sync {
    /// The layer indices to shelter during FL cycle `round`.
    fn layers_for_round(&self, round: u64) -> Vec<usize>;
}

/// Plain functions and closures schedule directly (the migration path for
/// code written against the old closure hook).
impl<F> ProtectionScheduler for F
where
    F: Fn(u64) -> Vec<usize> + Send + Sync,
{
    fn layers_for_round(&self, round: u64) -> Vec<usize> {
        self(round)
    }
}

/// The no-protection schedule (the unprotected baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NoProtection;

impl ProtectionScheduler for NoProtection {
    fn layers_for_round(&self, _round: u64) -> Vec<usize> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_scheduler<S: ProtectionScheduler>(s: &S, round: u64) -> Vec<usize> {
        s.layers_for_round(round)
    }

    #[test]
    fn closures_schedule() {
        let s = |round: u64| vec![round as usize % 3];
        assert_eq!(assert_scheduler(&s, 0), vec![0]);
        assert_eq!(assert_scheduler(&s, 7), vec![1]);
    }

    #[test]
    fn fixed_and_none() {
        assert!(NoProtection.layers_for_round(9).is_empty());
        let f = |_: u64| vec![1, 4];
        assert_eq!(f.layers_for_round(0), vec![1, 4]);
        assert_eq!(f.layers_for_round(99), vec![1, 4]);
    }

    #[test]
    fn schedulers_are_shareable_across_threads() {
        let s = std::sync::Arc::new(|_: u64| vec![2]);
        let draws: Vec<Vec<usize>> = std::thread::scope(|scope| {
            (0..4)
                .map(|r| {
                    let s = s.clone();
                    scope.spawn(move || s.layers_for_round(r))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(draws.iter().all(|d| d == &vec![2]));
    }
}
