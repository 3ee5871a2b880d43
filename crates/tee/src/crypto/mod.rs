//! Cryptographic primitives implemented from scratch.
//!
//! TA measurement and remote attestation rest on a hash and a MAC; since
//! the reproduction may not pull external crypto crates, both are
//! implemented here and validated against published test vectors:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256,
//! * [`hmac`] — RFC 2104 HMAC-SHA-256.
//!
//! These are *simulation-grade* implementations: correct and tested, but
//! not hardened against side channels (the simulated enclave has no
//! adversarial co-residency).

pub mod hmac;
pub mod sha256;

/// Constant-time byte-slice equality (length leaks, contents do not).
pub(crate) fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (&x, &y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
