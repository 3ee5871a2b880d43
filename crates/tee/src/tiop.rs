//! Trusted I/O path (paper §7.3).
//!
//! > "The client network interface could receive the model weights,
//! > related to the protected layers, from the FL server, and safely
//! > transfer them in the TEE secure memory throughout a secure channel."
//!
//! [`SecureChannel`] is that channel: an authenticated, sequenced,
//! encrypted pipe between the FL server and the client's enclave. Frames
//! carry a monotone sequence number under the MAC, so replay, reorder and
//! truncation are all detected — the properties the provisioning path
//! needs so protected weights never transit the normal world in clear.

use crate::crypto::chacha20::{xor_stream, KEY_LEN, NONCE_LEN};
use crate::crypto::hmac::{hmac_sha256, hmac_verify};
use crate::crypto::kdf::derive_key;
use crate::{Result, TeeError};

/// Which side of the channel an endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The FL server (initiator).
    Server,
    /// The FL client's enclave (responder).
    Client,
}

impl Role {
    fn send_label(self) -> &'static [u8] {
        match self {
            Role::Server => b"tiop-server-to-client",
            Role::Client => b"tiop-client-to-server",
        }
    }

    fn recv_label(self) -> &'static [u8] {
        match self {
            Role::Server => Role::Client.send_label(),
            Role::Client => Role::Server.send_label(),
        }
    }
}

/// One sealed frame on the wire (what the normal world sees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sequence number (covered by the MAC).
    pub seq: u64,
    /// Encrypted payload.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 over `seq ‖ ciphertext`.
    pub mac: Vec<u8>,
}

/// One endpoint of the trusted I/O path.
///
/// Both endpoints are constructed from the same shared secret (established
/// out-of-band through remote attestation — see
/// [`crate::attestation`]) and a role; directional keys are derived so
/// the two directions never share a keystream.
///
/// # Example
///
/// ```
/// use gradsec_tee::tiop::{Role, SecureChannel};
///
/// # fn main() -> Result<(), gradsec_tee::TeeError> {
/// let mut server = SecureChannel::established(b"shared-secret", Role::Server);
/// let mut client = SecureChannel::established(b"shared-secret", Role::Client);
/// let frame = server.seal(b"layer-2 weights");
/// assert_eq!(client.open(&frame)?, b"layer-2 weights");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SecureChannel {
    send_key: [u8; KEY_LEN],
    recv_key: [u8; KEY_LEN],
    send_seq: u64,
    recv_seq: u64,
}

fn nonce_for(seq: u64) -> [u8; NONCE_LEN] {
    let mut n = [0u8; NONCE_LEN];
    n[..8].copy_from_slice(&seq.to_le_bytes());
    n
}

impl SecureChannel {
    /// Builds an endpoint over an already-agreed shared secret.
    pub fn established(shared_secret: &[u8], role: Role) -> Self {
        SecureChannel {
            send_key: derive_key(shared_secret, role.send_label()),
            recv_key: derive_key(shared_secret, role.recv_label()),
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// Builds both ends of a channel at once — convenient for tests and
    /// for transports wiring the two roles inside one process.
    pub fn pair(shared_secret: &[u8]) -> (SecureChannel, SecureChannel) {
        (
            SecureChannel::established(shared_secret, Role::Server),
            SecureChannel::established(shared_secret, Role::Client),
        )
    }

    /// Encrypts and authenticates a payload, consuming one send sequence
    /// number.
    pub fn seal(&mut self, payload: &[u8]) -> Frame {
        let seq = self.send_seq;
        self.send_seq += 1;
        let mut ciphertext = payload.to_vec();
        xor_stream(&self.send_key, 1, &nonce_for(seq), &mut ciphertext);
        let mut mac_input = seq.to_le_bytes().to_vec();
        mac_input.extend_from_slice(&ciphertext);
        let mac = hmac_sha256(&self.send_key, &mac_input).to_vec();
        Frame {
            seq,
            ciphertext,
            mac,
        }
    }

    /// Verifies and decrypts the next frame.
    ///
    /// # Errors
    ///
    /// * [`TeeError::ChannelViolation`] — out-of-order or replayed frame,
    /// * [`TeeError::IntegrityViolation`] — MAC failure (tampered frame).
    pub fn open(&mut self, frame: &Frame) -> Result<Vec<u8>> {
        if frame.seq != self.recv_seq {
            return Err(TeeError::ChannelViolation {
                reason: format!(
                    "expected sequence {}, got {} (replay or reorder)",
                    self.recv_seq, frame.seq
                ),
            });
        }
        let mut mac_input = frame.seq.to_le_bytes().to_vec();
        mac_input.extend_from_slice(&frame.ciphertext);
        if !hmac_verify(&self.recv_key, &mac_input, &frame.mac) {
            return Err(TeeError::IntegrityViolation {
                context: "trusted i/o frame",
            });
        }
        self.recv_seq += 1;
        let mut plain = frame.ciphertext.clone();
        xor_stream(&self.recv_key, 1, &nonce_for(frame.seq), &mut plain);
        Ok(plain)
    }

    /// Number of frames sent so far.
    pub fn frames_sent(&self) -> u64 {
        self.send_seq
    }

    /// Number of frames received and verified so far.
    pub fn frames_received(&self) -> u64 {
        self.recv_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SecureChannel, SecureChannel) {
        (
            SecureChannel::established(b"secret", Role::Server),
            SecureChannel::established(b"secret", Role::Client),
        )
    }

    #[test]
    fn bidirectional_roundtrip() {
        let (mut s, mut c) = pair();
        let f1 = s.seal(b"weights");
        assert_eq!(c.open(&f1).unwrap(), b"weights");
        let f2 = c.seal(b"ack");
        assert_eq!(s.open(&f2).unwrap(), b"ack");
        assert_eq!(s.frames_sent(), 1);
        assert_eq!(s.frames_received(), 1);
    }

    #[test]
    fn ciphertext_hides_payload() {
        let (mut s, _) = pair();
        let f = s.seal(b"super secret layer weights");
        assert_ne!(f.ciphertext, b"super secret layer weights".to_vec());
    }

    #[test]
    fn replay_is_rejected() {
        let (mut s, mut c) = pair();
        let f = s.seal(b"m0");
        c.open(&f).unwrap();
        assert!(matches!(c.open(&f), Err(TeeError::ChannelViolation { .. })));
    }

    #[test]
    fn reorder_is_rejected() {
        let (mut s, mut c) = pair();
        let _f0 = s.seal(b"m0");
        let f1 = s.seal(b"m1");
        assert!(matches!(
            c.open(&f1),
            Err(TeeError::ChannelViolation { .. })
        ));
    }

    #[test]
    fn tampering_is_rejected() {
        let (mut s, mut c) = pair();
        let mut f = s.seal(b"m0");
        f.ciphertext[0] ^= 1;
        assert!(matches!(
            c.open(&f),
            Err(TeeError::IntegrityViolation { .. })
        ));
        // Sequence was not consumed by the failed open.
        let good = s.seal(b"m1");
        assert!(matches!(
            c.open(&good),
            Err(TeeError::ChannelViolation { .. })
        ));
    }

    #[test]
    fn wrong_secret_fails_mac() {
        let mut s = SecureChannel::established(b"secret-a", Role::Server);
        let mut c = SecureChannel::established(b"secret-b", Role::Client);
        let f = s.seal(b"m");
        assert!(c.open(&f).is_err());
    }

    #[test]
    fn directions_use_distinct_keystreams() {
        let (mut s, mut c) = pair();
        let fs = s.seal(b"same-payload");
        let fc = c.seal(b"same-payload");
        assert_eq!(fs.seq, fc.seq);
        assert_ne!(fs.ciphertext, fc.ciphertext);
    }

    #[test]
    fn many_frames_in_order() {
        let (mut s, mut c) = pair();
        for i in 0..100u32 {
            let f = s.seal(&i.to_le_bytes());
            assert_eq!(c.open(&f).unwrap(), i.to_le_bytes());
        }
        assert_eq!(c.frames_received(), 100);
    }
}
