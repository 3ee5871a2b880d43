//! # gradsec-tee
//!
//! A software simulator of ARM TrustZone with an OP-TEE-like trusted OS —
//! the execution substrate of the GradSec reproduction (Middleware '22).
//!
//! The paper deploys GradSec on a Raspberry Pi 3B+ with real TrustZone.
//! This crate reproduces the *architecture* that the paper's security and
//! performance arguments rest on:
//!
//! * [`monitor`] — the two processor worlds (§3.3, Figure 1) and the
//!   secure monitor (`SMC`) that switches between them and counts the
//!   crossings,
//! * [`memory`] — the bounded secure-memory pool (the paper's 3–5 MB limit)
//!   with live/peak tracking and out-of-memory errors,
//! * [`ta`] — GlobalPlatform-style trusted applications and sessions,
//! * [`crypto`] — SHA-256 and HMAC implemented from scratch (no
//!   external crypto dependencies),
//! * [`attestation`] — remote attestation of TA measurements (§7.3),
//! * [`cost`] — the deterministic cost model calibrated against the
//!   paper's Table 6 (user/kernel/allocation time, TEE memory).
//!
//! # Example
//!
//! ```
//! use gradsec_tee::memory::SecureMemory;
//!
//! # fn main() -> Result<(), gradsec_tee::TeeError> {
//! // A Pi-class TrustZone carveout: 4 MiB of secure memory.
//! let mut mem = SecureMemory::with_budget(4 * 1024 * 1024);
//! let buf = mem.alloc(1024)?;
//! assert_eq!(mem.in_use(), 1024);
//! mem.free(buf)?;
//! assert_eq!(mem.in_use(), 0);
//! assert_eq!(mem.peak(), 1024);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod cost;
pub mod crypto;
mod error;
pub mod memory;
pub mod monitor;
pub mod ta;

pub use error::TeeError;

/// Crate-wide result alias using [`TeeError`].
pub(crate) type Result<T> = std::result::Result<T, TeeError>;
