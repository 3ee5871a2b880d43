use std::fmt;

/// Errors produced by the TrustZone simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// The secure-memory pool cannot satisfy an allocation — the paper's
    /// central constraint (§3.3: "TA can only use few MBs of secure
    /// memory").
    OutOfSecureMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently free.
        available: usize,
        /// Pool budget.
        budget: usize,
    },
    /// An allocation handle was freed twice or never existed.
    BadHandle {
        /// The offending handle id.
        handle: u64,
    },
    /// A secure-world operation was attempted from the normal world (or
    /// vice versa).
    WrongWorld {
        /// Human-readable operation name.
        op: &'static str,
        /// The world the caller was in.
        was: crate::monitor::World,
    },
    /// Authentication/integrity check failed (tampered ciphertext, bad MAC,
    /// bad attestation signature).
    IntegrityViolation {
        /// What was being verified.
        context: &'static str,
    },
    /// No trusted application is installed under this identifier.
    NotFound {
        /// The TA identifier.
        id: String,
    },
    /// A session or TA identifier is unknown.
    NoSuchSession {
        /// The session id.
        session: u64,
    },
    /// The trusted application rejected a command.
    TaError {
        /// TA-specific error message.
        reason: String,
    },
    /// Invalid configuration value.
    BadConfig {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for TeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeeError::OutOfSecureMemory {
                requested,
                available,
                budget,
            } => write!(
                f,
                "out of secure memory: requested {requested} B, {available} B free of {budget} B budget"
            ),
            TeeError::BadHandle { handle } => write!(f, "bad allocation handle {handle}"),
            TeeError::WrongWorld { op, was } => {
                write!(f, "operation {op} not permitted from the {was} world")
            }
            TeeError::IntegrityViolation { context } => {
                write!(f, "integrity violation in {context}")
            }
            TeeError::NotFound { id } => write!(f, "no trusted application {id:?}"),
            TeeError::NoSuchSession { session } => write!(f, "no such session {session}"),
            TeeError::TaError { reason } => write!(f, "trusted application error: {reason}"),
            TeeError::BadConfig { reason } => write!(f, "bad config: {reason}"),
        }
    }
}

impl std::error::Error for TeeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_oom() {
        let e = TeeError::OutOfSecureMemory {
            requested: 100,
            available: 50,
            budget: 200,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("50"));
        assert!(s.contains("200"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TeeError>();
    }
}
