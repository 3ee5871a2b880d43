//! Remote attestation (paper §7.3).
//!
//! > "RA allows the FL server to ensure that the client code is correctly
//! > executed in the TEE enclave. Despite the lack of native support for
//! > RA for TrustZone enclaves, support can be provided by leveraging
//! > novel solutions or by the incorporation of a hardware chip (e.g.,
//! > Trusted Platform Module)."
//!
//! We simulate the TPM-style design: each device holds an attestation key
//! provisioned at manufacture and shared with the verifier (a symmetric
//! simplification of an EK certificate chain). A quote binds the TA's
//! measurement to a verifier-chosen nonce, preventing replay. The FL
//! server uses [`verify_quote`] to gate client selection (paper Figure
//! 2-➊).

use crate::crypto::hmac::{hmac_sha256, hmac_verify};
use crate::ta::Uuid;
use crate::{Result, TeeError};

/// A SHA-256 measurement of TA code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement(pub [u8; 32]);

/// A verifier-issued freshness challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Challenge {
    /// Random nonce the quote must echo.
    pub nonce: [u8; 16],
}

impl Challenge {
    /// Creates a challenge from explicit nonce bytes (the verifier draws
    /// them from its RNG).
    pub fn new(nonce: [u8; 16]) -> Self {
        Challenge { nonce }
    }
}

/// A signed attestation quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Identity of the attested TA.
    pub ta: Uuid,
    /// The reported code measurement.
    pub measurement: Measurement,
    /// Echo of the verifier's nonce.
    pub nonce: [u8; 16],
    /// HMAC signature under the device attestation key.
    pub signature: [u8; 32],
}

fn quote_bytes(ta: Uuid, measurement: &Measurement, nonce: &[u8; 16]) -> Vec<u8> {
    let mut v = Vec::with_capacity(16 + 32 + 16);
    v.extend_from_slice(ta.as_bytes());
    v.extend_from_slice(&measurement.0);
    v.extend_from_slice(nonce);
    v
}

/// Produces a quote on the device (inside the TEE / TPM).
pub fn sign_quote(
    attestation_key: &[u8],
    ta: Uuid,
    measurement: Measurement,
    challenge: &Challenge,
) -> Quote {
    let signature = hmac_sha256(
        attestation_key,
        &quote_bytes(ta, &measurement, &challenge.nonce),
    );
    Quote {
        ta,
        measurement,
        nonce: challenge.nonce,
        signature,
    }
}

/// Verifies a quote on the FL server.
///
/// Checks, in order: nonce freshness, signature validity, and measurement
/// against the expected (whitelisted) TA code hash.
///
/// # Errors
///
/// Returns [`TeeError::IntegrityViolation`] naming the failed check.
pub fn verify_quote(
    attestation_key: &[u8],
    quote: &Quote,
    expected: Measurement,
    challenge: &Challenge,
) -> Result<()> {
    if quote.nonce != challenge.nonce {
        return Err(TeeError::IntegrityViolation {
            context: "attestation nonce (replay)",
        });
    }
    let msg = quote_bytes(quote.ta, &quote.measurement, &quote.nonce);
    if !hmac_verify(attestation_key, &msg, &quote.signature) {
        return Err(TeeError::IntegrityViolation {
            context: "attestation signature",
        });
    }
    if quote.measurement != expected {
        return Err(TeeError::IntegrityViolation {
            context: "attestation measurement (unexpected TA code)",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::sha256::sha256;

    fn setup() -> (Uuid, Measurement, Challenge) {
        (
            Uuid::from_name("gradsec-ta"),
            Measurement(sha256(b"gradsec-ta-code-v1")),
            Challenge::new([7u8; 16]),
        )
    }

    #[test]
    fn honest_quote_verifies() {
        let (ta, m, ch) = setup();
        let q = sign_quote(b"device-key", ta, m, &ch);
        assert!(verify_quote(b"device-key", &q, m, &ch).is_ok());
    }

    #[test]
    fn wrong_key_rejected() {
        let (ta, m, ch) = setup();
        let q = sign_quote(b"attacker-key", ta, m, &ch);
        let err = verify_quote(b"device-key", &q, m, &ch).unwrap_err();
        assert!(
            matches!(err, TeeError::IntegrityViolation { context } if context.contains("signature"))
        );
    }

    #[test]
    fn stale_nonce_rejected() {
        let (ta, m, _) = setup();
        let old = Challenge::new([1u8; 16]);
        let fresh = Challenge::new([2u8; 16]);
        let q = sign_quote(b"device-key", ta, m, &old);
        let err = verify_quote(b"device-key", &q, m, &fresh).unwrap_err();
        assert!(
            matches!(err, TeeError::IntegrityViolation { context } if context.contains("nonce"))
        );
    }

    #[test]
    fn modified_measurement_rejected() {
        let (ta, m, ch) = setup();
        let evil = Measurement(sha256(b"backdoored-ta"));
        // Device honestly signs the evil measurement; verifier's whitelist
        // catches it.
        let q = sign_quote(b"device-key", ta, evil, &ch);
        let err = verify_quote(b"device-key", &q, m, &ch).unwrap_err();
        assert!(
            matches!(err, TeeError::IntegrityViolation { context } if context.contains("measurement"))
        );
        // Forging the measurement field after signing breaks the signature.
        let mut forged = sign_quote(b"device-key", ta, evil, &ch);
        forged.measurement = m;
        let err = verify_quote(b"device-key", &forged, m, &ch).unwrap_err();
        assert!(
            matches!(err, TeeError::IntegrityViolation { context } if context.contains("signature"))
        );
    }

    #[test]
    fn quote_binds_ta_identity() {
        let (ta, m, ch) = setup();
        let mut q = sign_quote(b"device-key", ta, m, &ch);
        q.ta = Uuid::from_name("other-ta");
        assert!(verify_quote(b"device-key", &q, m, &ch).is_err());
    }
}
