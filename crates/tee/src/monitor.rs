//! Secure monitor — the `SMC` gateway between worlds (paper Figure 1).
//!
//! Every transition between the Rich Execution Environment and the TEE
//! goes through the secure monitor, which refuses a crossing into the
//! world the caller is already in. World crossings are *the* per-batch
//! CPU cost of sheltering layers (each protected slice costs an entry and
//! an exit per batch); a cycle's crossings are billed by
//! [`crate::cost::SimClock`].

use std::fmt;

use crate::{Result, TeeError};

/// The two TrustZone execution worlds (paper §3.3, Figure 1).
///
/// The *normal* world runs the Rich Execution Environment (the untrusted
/// OS and legacy applications — in the paper's threat model, everything
/// the attacker can read). The *secure* world runs the trusted OS and the
/// trusted applications whose memory is hardware-shielded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum World {
    /// Rich Execution Environment — untrusted.
    Normal,
    /// Trusted Execution Environment — shielded.
    Secure,
}

impl World {
    /// `true` for [`World::Secure`].
    pub(crate) fn is_secure(self) -> bool {
        matches!(self, World::Secure)
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            World::Normal => f.write_str("normal"),
            World::Secure => f.write_str("secure"),
        }
    }
}

/// The secure monitor: tracks the current world and counts crossings.
#[derive(Debug, Clone)]
pub struct SecureMonitor {
    world: World,
    crossings: u64,
}

impl SecureMonitor {
    /// Creates a monitor starting in the normal world.
    pub fn new() -> Self {
        SecureMonitor {
            world: World::Normal,
            crossings: 0,
        }
    }

    /// The world currently executing.
    pub fn world(&self) -> World {
        self.world
    }

    /// Total crossings in either direction.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Issues an `SMC` into the secure world.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::WrongWorld`] when already in the secure world —
    /// a protocol bug in the caller, not a legal no-op, because a real
    /// monitor trap from the secure world has different semantics.
    pub fn smc_enter(&mut self) -> Result<()> {
        if self.world.is_secure() {
            return Err(TeeError::WrongWorld {
                op: "smc_enter",
                was: self.world,
            });
        }
        self.world = World::Secure;
        self.crossings += 1;
        Ok(())
    }

    /// Returns to the normal world.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::WrongWorld`] when already in the normal world.
    pub fn smc_exit(&mut self) -> Result<()> {
        if !self.world.is_secure() {
            return Err(TeeError::WrongWorld {
                op: "smc_exit",
                was: self.world,
            });
        }
        self.world = World::Normal;
        self.crossings += 1;
        Ok(())
    }
}

impl Default for SecureMonitor {
    fn default() -> Self {
        SecureMonitor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secure_predicate() {
        assert!(World::Secure.is_secure());
        assert!(!World::Normal.is_secure());
    }

    #[test]
    fn display_names() {
        assert_eq!(World::Normal.to_string(), "normal");
        assert_eq!(World::Secure.to_string(), "secure");
    }

    #[test]
    fn enter_exit_counts() {
        let mut m = SecureMonitor::new();
        assert_eq!(m.world(), World::Normal);
        m.smc_enter().unwrap();
        assert_eq!(m.world(), World::Secure);
        m.smc_exit().unwrap();
        assert_eq!(m.crossings(), 2);
    }

    #[test]
    fn double_enter_is_a_protocol_error() {
        let mut m = SecureMonitor::new();
        m.smc_enter().unwrap();
        assert!(matches!(m.smc_enter(), Err(TeeError::WrongWorld { .. })));
        m.smc_exit().unwrap();
        assert!(matches!(m.smc_exit(), Err(TeeError::WrongWorld { .. })));
    }
}
