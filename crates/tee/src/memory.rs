//! Bounded secure-memory pool.
//!
//! TrustZone secure memory is a scarce, fixed-size carveout — the paper
//! cites 3–5 MB as typical (§3.3) and treats the footprint of protected
//! layers as a first-class cost (Table 6's "TEE Memory Usage" column).
//! This pool enforces the budget, tracks live and peak usage, and fails
//! allocations exactly the way a real TA hits `TEE_ERROR_OUT_OF_MEMORY`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Result, TeeError};

/// Handle ids are drawn process-wide, so a handle never names a live
/// allocation of a pool other than the one that issued it.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Default pool budget: 4 MiB, the middle of the paper's 3–5 MB range.
pub const DEFAULT_BUDGET: usize = 4 * 1024 * 1024;

/// Handle to one live secure allocation.
///
/// Handles are move-only receipts; freeing consumes the handle, which makes
/// double-frees a compile-time error in straight-line code and a checked
/// runtime error otherwise.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct SecureAlloc {
    id: u64,
}

/// A fixed-budget secure memory pool with live/peak accounting.
#[derive(Debug)]
pub struct SecureMemory {
    budget: usize,
    in_use: usize,
    peak: usize,
    live: Vec<(u64, usize)>,
}

impl SecureMemory {
    /// Creates a pool with the given byte budget.
    pub fn with_budget(budget: usize) -> Self {
        SecureMemory {
            budget,
            in_use: 0,
            peak: 0,
            live: Vec::new(),
        }
    }

    /// Creates a pool with the paper-typical 4 MiB budget.
    pub(crate) fn new() -> Self {
        SecureMemory::with_budget(DEFAULT_BUDGET)
    }

    /// Live (currently allocated) bytes.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// High-water mark in bytes — the paper's "TEE Memory Usage (at exec)".
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Free bytes remaining.
    pub(crate) fn available(&self) -> usize {
        self.budget - self.in_use
    }

    /// Allocates `bytes` of secure memory.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::OutOfSecureMemory`] when the budget cannot cover
    /// the request — the same failure a real enclave hits when asked to
    /// protect more layers than the carveout can hold.
    pub fn alloc(&mut self, bytes: usize) -> Result<SecureAlloc> {
        if bytes > self.available() {
            return Err(TeeError::OutOfSecureMemory {
                requested: bytes,
                available: self.available(),
                budget: self.budget,
            });
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        self.live.push((id, bytes));
        Ok(SecureAlloc { id })
    }

    /// Releases an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadHandle`] when the handle does not belong to
    /// this pool (e.g. forged or already freed through another pool).
    pub fn free(&mut self, alloc: SecureAlloc) -> Result<()> {
        match self.live.iter().position(|&(id, _)| id == alloc.id) {
            Some(pos) => {
                let (_, bytes) = self.live.swap_remove(pos);
                self.in_use -= bytes;
                Ok(())
            }
            None => Err(TeeError::BadHandle { handle: alloc.id }),
        }
    }
}

impl Default for SecureMemory {
    fn default() -> Self {
        SecureMemory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut m = SecureMemory::with_budget(100);
        let a = m.alloc(40).unwrap();
        let b = m.alloc(30).unwrap();
        assert_eq!(m.in_use(), 70);
        assert_eq!(m.available(), 30);
        assert_eq!(m.peak(), 70);
        m.free(a).unwrap();
        assert_eq!(m.in_use(), 30);
        assert_eq!(m.peak(), 70, "peak survives frees");
        m.free(b).unwrap();
        assert_eq!(m.in_use(), 0);
    }

    #[test]
    fn oom_is_reported_with_context() {
        let mut m = SecureMemory::with_budget(50);
        let _a = m.alloc(40).unwrap();
        let err = m.alloc(20).unwrap_err();
        assert_eq!(
            err,
            TeeError::OutOfSecureMemory {
                requested: 20,
                available: 10,
                budget: 50
            }
        );
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut m = SecureMemory::with_budget(64);
        let a = m.alloc(64).unwrap();
        assert_eq!(m.available(), 0);
        m.free(a).unwrap();
        assert_eq!(m.available(), 64);
    }

    #[test]
    fn foreign_handle_rejected() {
        let mut m1 = SecureMemory::with_budget(100);
        let mut m2 = SecureMemory::with_budget(100);
        let a = m1.alloc(10).unwrap();
        let err = m2.free(a).unwrap_err();
        assert!(matches!(err, TeeError::BadHandle { .. }));
    }

    #[test]
    fn a_handle_from_another_pool_is_refused() {
        let mut a = SecureMemory::with_budget(100);
        let mut b = SecureMemory::with_budget(100);
        let foreign = a.alloc(10).unwrap();
        let own = b.alloc(30).unwrap();
        let err = b.free(foreign).unwrap_err();
        assert!(matches!(err, TeeError::BadHandle { .. }));
        assert_eq!(b.in_use(), 30, "a foreign free must not touch the pool");
        b.free(own).unwrap();
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    fn zero_sized_alloc_is_fine() {
        let mut m = SecureMemory::with_budget(10);
        let a = m.alloc(0).unwrap();
        assert_eq!(m.in_use(), 0);
        m.free(a).unwrap();
    }

    #[test]
    fn default_budget_matches_paper_range() {
        let mb = DEFAULT_BUDGET as f64 / (1024.0 * 1024.0);
        assert!((3.0..=5.0).contains(&mb));
    }
}
