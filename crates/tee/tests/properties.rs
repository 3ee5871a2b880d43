//! Property-based tests for the TrustZone simulator.

use gradsec_tee::crypto::hmac::{hmac_sha256, hmac_verify};
use gradsec_tee::crypto::sha256::{sha256, Sha256};
use gradsec_tee::memory::SecureMemory;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_verifies_itself_and_rejects_flips(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        data in proptest::collection::vec(any::<u8>(), 0..200),
        flip in 0usize..32
    ) {
        let mut tag = hmac_sha256(&key, &data);
        prop_assert!(hmac_verify(&key, &data, &tag));
        tag[flip] ^= 0x80;
        prop_assert!(!hmac_verify(&key, &data, &tag));
    }

    #[test]
    fn memory_accounting_invariants(ops in proptest::collection::vec((any::<bool>(), 1usize..2000), 1..60)) {
        let mut mem = SecureMemory::with_budget(8192);
        let mut live = Vec::new();
        let mut expected_in_use = 0usize;
        for (is_alloc, size) in ops {
            if is_alloc || live.is_empty() {
                match mem.alloc(size) {
                    Ok(h) => {
                        expected_in_use += size;
                        live.push((h, size));
                    }
                    Err(_) => prop_assert!(size > 8192 - expected_in_use),
                }
            } else {
                let (h, size) = live.pop().unwrap();
                expected_in_use -= size;
                mem.free(h).unwrap();
            }
            prop_assert_eq!(mem.in_use(), expected_in_use);
            prop_assert!(mem.in_use() <= 8192);
            prop_assert!(mem.peak() >= mem.in_use());
        }
    }
}
