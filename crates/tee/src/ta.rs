//! Trusted applications and the GlobalPlatform-style session API
//! (paper Figure 1: host application → TEE client API → trusted
//! application behind the secure monitor).

use std::collections::HashMap;

use crate::crypto::sha256::sha256;
use crate::memory::SecureMemory;
use crate::monitor::SecureMonitor;
use crate::{Result, TeeError};

/// A 128-bit TA identifier, as in GlobalPlatform TEE specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uuid(pub [u8; 16]);

impl Uuid {
    /// Derives a stable UUID from a human-readable name (hash-based,
    /// version-5 flavoured).
    pub fn from_name(name: &str) -> Self {
        let d = sha256(name.as_bytes());
        let mut u = [0u8; 16];
        u.copy_from_slice(&d[..16]);
        Uuid(u)
    }

    /// Byte view.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl std::fmt::Display for Uuid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, b) in self.0.iter().enumerate() {
            if matches!(i, 4 | 6 | 8 | 10) {
                write!(f, "-")?;
            }
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A trusted application hosted by the secure OS.
///
/// Command semantics are TA-specific; `invoke` receives an opaque request
/// and returns an opaque response, like `TEEC_InvokeCommand` parameter
/// blobs.
pub trait TrustedApp: Send {
    /// The TA's identity.
    fn uuid(&self) -> Uuid;

    /// Human-readable name (diagnostics only).
    fn name(&self) -> &str;

    /// The bytes that remote attestation measures (the TA's "code").
    fn code(&self) -> &[u8];

    /// Handles one command inside the secure world.
    ///
    /// # Errors
    ///
    /// TA-specific failures surface as [`TeeError::TaError`].
    fn invoke(&mut self, command: u32, input: &[u8], memory: &mut SecureMemory) -> Result<Vec<u8>>;
}

/// The simulated trusted OS: owns the secure monitor, the secure memory
/// pool and the registered TAs, and mediates sessions from the normal
/// world.
pub struct TrustedOs {
    monitor: SecureMonitor,
    memory: SecureMemory,
    tas: HashMap<Uuid, Box<dyn TrustedApp>>,
    sessions: HashMap<u64, Uuid>,
    next_session: u64,
}

impl std::fmt::Debug for TrustedOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedOs")
            .field("tas", &self.tas.len())
            .field("sessions", &self.sessions.len())
            .field("memory_in_use", &self.memory.in_use())
            .finish()
    }
}

impl TrustedOs {
    /// Boots a trusted OS with the given secure-memory budget.
    pub fn with_budget(budget: usize) -> Self {
        TrustedOs {
            monitor: SecureMonitor::new(),
            memory: SecureMemory::with_budget(budget),
            tas: HashMap::new(),
            sessions: HashMap::new(),
            next_session: 1,
        }
    }

    /// Boots with the default 4 MiB budget.
    pub fn new() -> Self {
        TrustedOs::with_budget(crate::memory::DEFAULT_BUDGET)
    }

    /// Installs a TA image.
    pub fn register_ta(&mut self, ta: Box<dyn TrustedApp>) {
        self.tas.insert(ta.uuid(), ta);
    }

    /// Returns the measurement (SHA-256 of the code) of an installed TA,
    /// used by remote attestation.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NotFound`] for unknown UUIDs.
    pub fn measure_ta(&self, uuid: Uuid) -> Result<[u8; 32]> {
        let ta = self.tas.get(&uuid).ok_or_else(|| TeeError::NotFound {
            id: uuid.to_string(),
        })?;
        Ok(sha256(ta.code()))
    }

    /// Opens a session to a TA (one world round-trip).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NotFound`] for unknown UUIDs.
    pub fn open_session(&mut self, uuid: Uuid) -> Result<u64> {
        if !self.tas.contains_key(&uuid) {
            return Err(TeeError::NotFound {
                id: uuid.to_string(),
            });
        }
        self.monitor.smc_enter()?;
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(id, uuid);
        self.monitor.smc_exit()?;
        Ok(id)
    }

    /// Invokes a command on an open session (one world round-trip).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NoSuchSession`] for closed/unknown sessions and
    /// propagates TA failures.
    pub fn invoke(&mut self, session: u64, command: u32, input: &[u8]) -> Result<Vec<u8>> {
        let uuid = *self
            .sessions
            .get(&session)
            .ok_or(TeeError::NoSuchSession { session })?;
        self.monitor.smc_enter()?;
        let ta = self
            .tas
            .get_mut(&uuid)
            .expect("session points at a registered TA");
        let out = ta.invoke(command, input, &mut self.memory);
        self.monitor.smc_exit()?;
        out
    }

    /// Closes a session.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NoSuchSession`] for unknown sessions.
    pub fn close_session(&mut self, session: u64) -> Result<()> {
        self.sessions
            .remove(&session)
            .map(|_| ())
            .ok_or(TeeError::NoSuchSession { session })
    }

    /// The secure monitor (crossing statistics).
    pub fn monitor(&self) -> &SecureMonitor {
        &self.monitor
    }

    /// The secure memory pool.
    pub fn memory(&self) -> &SecureMemory {
        &self.memory
    }
}

impl Default for TrustedOs {
    fn default() -> Self {
        TrustedOs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy TA: command 0 echoes, command 1 allocates the input length.
    struct EchoTa {
        uuid: Uuid,
        code: Vec<u8>,
    }

    impl EchoTa {
        fn new() -> Self {
            EchoTa {
                uuid: Uuid::from_name("echo-ta"),
                code: b"echo-ta-code-v1".to_vec(),
            }
        }
    }

    impl TrustedApp for EchoTa {
        fn uuid(&self) -> Uuid {
            self.uuid
        }
        fn name(&self) -> &str {
            "echo"
        }
        fn code(&self) -> &[u8] {
            &self.code
        }
        fn invoke(
            &mut self,
            command: u32,
            input: &[u8],
            memory: &mut SecureMemory,
        ) -> Result<Vec<u8>> {
            match command {
                0 => Ok(input.to_vec()),
                1 => {
                    let a = memory.alloc(input.len())?;
                    let n = memory.in_use() as u64;
                    memory.free(a)?;
                    Ok(n.to_le_bytes().to_vec())
                }
                _ => Err(TeeError::TaError {
                    reason: format!("unknown command {command}"),
                }),
            }
        }
    }

    #[test]
    fn uuid_from_name_is_stable_and_distinct() {
        assert_eq!(Uuid::from_name("a"), Uuid::from_name("a"));
        assert_ne!(Uuid::from_name("a"), Uuid::from_name("b"));
        let s = Uuid::from_name("a").to_string();
        assert_eq!(s.matches('-').count(), 4);
    }

    #[test]
    fn session_lifecycle() {
        let mut os = TrustedOs::new();
        os.register_ta(Box::new(EchoTa::new()));
        let uuid = Uuid::from_name("echo-ta");
        let s = os.open_session(uuid).unwrap();
        let out = os.invoke(s, 0, b"hello").unwrap();
        assert_eq!(out, b"hello");
        os.close_session(s).unwrap();
        assert!(matches!(
            os.invoke(s, 0, b"x"),
            Err(TeeError::NoSuchSession { .. })
        ));
        // Each open/invoke crossed twice.
        assert_eq!(os.monitor().crossings(), 4);
    }

    #[test]
    fn unknown_ta_and_commands() {
        let mut os = TrustedOs::new();
        assert!(os.open_session(Uuid::from_name("ghost")).is_err());
        os.register_ta(Box::new(EchoTa::new()));
        let s = os.open_session(Uuid::from_name("echo-ta")).unwrap();
        assert!(matches!(
            os.invoke(s, 99, b""),
            Err(TeeError::TaError { .. })
        ));
    }

    #[test]
    fn ta_can_use_secure_memory() {
        let mut os = TrustedOs::with_budget(1024);
        os.register_ta(Box::new(EchoTa::new()));
        let s = os.open_session(Uuid::from_name("echo-ta")).unwrap();
        let out = os.invoke(s, 1, &[0u8; 100]).unwrap();
        assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 100);
        // Oversized alloc inside the TA surfaces the enclave OOM.
        assert!(matches!(
            os.invoke(s, 1, &vec![0u8; 4096]),
            Err(TeeError::OutOfSecureMemory { .. })
        ));
        // The failed invoke still exited the secure world cleanly.
        assert!(!os.monitor().world().is_secure());
    }

    #[test]
    fn measurement_is_code_hash() {
        let mut os = TrustedOs::new();
        os.register_ta(Box::new(EchoTa::new()));
        let m = os.measure_ta(Uuid::from_name("echo-ta")).unwrap();
        assert_eq!(m, sha256(b"echo-ta-code-v1"));
        assert!(os.measure_ta(Uuid::from_name("nope")).is_err());
    }
}
