//! Batch iteration with deterministic shuffling.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Produces shuffled index batches over a dataset, one epoch at a time.
///
/// # Example
///
/// ```
/// use gradsec_data::Batcher;
///
/// let batcher = Batcher::new(10, 4, 42);
/// let batches = batcher.epoch(0);
/// assert_eq!(batches.len(), 3); // 4 + 4 + 2
/// let all: usize = batches.iter().map(Vec::len).sum();
/// assert_eq!(all, 10);
/// ```
#[derive(Debug, Clone)]
pub struct Batcher {
    len: usize,
    batch_size: usize,
    seed: u64,
}

impl Batcher {
    /// Creates a batcher over `len` samples with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size == 0`.
    pub fn new(len: usize, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Batcher {
            len,
            batch_size,
            seed,
        }
    }

    /// Returns the shuffled batches for `epoch`; each epoch gets an
    /// independent but deterministic permutation.
    pub fn epoch(&self, epoch: u64) -> Vec<Vec<usize>> {
        let mut indices: Vec<usize> = (0..self.len).collect();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(epoch.wrapping_mul(0x9E37)));
        indices.shuffle(&mut rng);
        indices
            .chunks(self.batch_size)
            .map(|c| c.to_vec())
            .collect()
    }

    /// Returns the first `n` full batches of `epoch` (a fixed-size
    /// training slice; the reproduction's "one FL cycle = 10 batches"
    /// convention uses this).
    pub fn epoch_batches(&self, epoch: u64, n: usize) -> Vec<Vec<usize>> {
        self.epoch(epoch)
            .into_iter()
            .filter(|b| b.len() == self.batch_size)
            .take(n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_once() {
        let b = Batcher::new(23, 5, 1);
        let mut seen = [false; 23];
        for batch in b.epoch(0) {
            for i in batch {
                assert!(!seen[i], "index {i} repeated");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn epochs_shuffle_differently_but_deterministically() {
        let b = Batcher::new(50, 10, 2);
        assert_eq!(b.epoch(0), b.epoch(0));
        assert_ne!(b.epoch(0), b.epoch(1));
        let other_seed = Batcher::new(50, 10, 3);
        assert_ne!(b.epoch(0), other_seed.epoch(0));
    }

    #[test]
    fn fixed_slice_takes_full_batches_only() {
        let b = Batcher::new(10, 4, 5);
        let slice = b.epoch_batches(0, 5);
        // Only two full batches of 4 exist.
        assert_eq!(slice.len(), 2);
        assert!(slice.iter().all(|s| s.len() == 4));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let _ = Batcher::new(10, 0, 0);
    }
}
