//! Processor worlds (paper §3.3, Figure 1).

use std::fmt;

/// The two TrustZone execution worlds.
///
/// The *normal* world runs the Rich Execution Environment (the untrusted
/// OS and legacy applications — in the paper's threat model, everything
/// the attacker can read). The *secure* world runs the trusted OS and the
/// trusted applications whose memory is hardware-shielded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum World {
    /// Rich Execution Environment — untrusted.
    #[default]
    Normal,
    /// Trusted Execution Environment — shielded.
    Secure,
}

impl World {
    /// The other world.
    pub fn other(self) -> World {
        match self {
            World::Normal => World::Secure,
            World::Secure => World::Normal,
        }
    }

    /// `true` for [`World::Secure`].
    pub fn is_secure(self) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_is_involutive() {
        assert_eq!(World::Normal.other(), World::Secure);
        assert_eq!(World::Secure.other(), World::Normal);
        assert_eq!(World::Normal.other().other(), World::Normal);
    }

    #[test]
    fn secure_predicate() {
        assert!(World::Secure.is_secure());
        assert!(!World::Normal.is_secure());
    }

    #[test]
    fn default_is_normal() {
        assert_eq!(World::default(), World::Normal);
    }

    #[test]
    fn display_names() {
        assert_eq!(World::Normal.to_string(), "normal");
        assert_eq!(World::Secure.to_string(), "secure");
    }
}
