//! Deterministic dataset splits.
//!
//! The attacks need disjoint index sets:
//!
//! * MIA needs *member* (`D1 ⊂ D`) and *non-member* (`D2 ⊄ D`) sets
//!   (paper §3.2),
//! * DPIA needs attacker train/validation/test gradient sets (paper §8.2),
//! * FL needs per-client shards.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Splits `0..len` into consecutive disjoint chunks of the given sizes
/// after a seeded shuffle.
///
/// # Panics
///
/// Panics when the sizes sum to more than `len`.
pub(crate) fn split_sizes(len: usize, sizes: &[usize], seed: u64) -> Vec<Vec<usize>> {
    let total: usize = sizes.iter().sum();
    assert!(
        total <= len,
        "split sizes sum to {total}, exceeding dataset length {len}"
    );
    let mut indices: Vec<usize> = (0..len).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let mut out = Vec::with_capacity(sizes.len());
    let mut start = 0;
    for &s in sizes {
        out.push(indices[start..start + s].to_vec());
        start += s;
    }
    out
}

/// Splits `0..len` into `shards` near-equal disjoint shards (FL client
/// data partitions).
///
/// # Panics
///
/// Panics when `shards == 0`.
pub fn shard(len: usize, shards: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(shards > 0, "shard count must be positive");
    let mut indices: Vec<usize> = (0..len).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(indices[start..start + size].to_vec());
        start += size;
    }
    out
}

/// The member/non-member split MIA requires: `n` member indices and `n`
/// non-member indices, disjoint.
///
/// # Panics
///
/// Panics when `2n > len`.
pub fn member_split(len: usize, n: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut parts = split_sizes(len, &[n, n], seed);
    let non_member = parts.pop().expect("two parts requested");
    let member = parts.pop().expect("two parts requested");
    (member, non_member)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn split_sizes_disjoint_and_sized() {
        let parts = split_sizes(100, &[30, 20, 10], 1);
        assert_eq!(parts[0].len(), 30);
        assert_eq!(parts[1].len(), 20);
        assert_eq!(parts[2].len(), 10);
        let all: HashSet<usize> = parts.iter().flatten().copied().collect();
        assert_eq!(all.len(), 60, "parts overlap");
    }

    #[test]
    #[should_panic(expected = "exceeding dataset length")]
    fn split_sizes_rejects_oversubscription() {
        let _ = split_sizes(10, &[6, 5], 0);
    }

    #[test]
    fn shards_partition_everything() {
        let parts = shard(101, 4, 2);
        assert_eq!(parts.len(), 4);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![26, 25, 25, 25]);
        let all: HashSet<usize> = parts.iter().flatten().copied().collect();
        assert_eq!(all.len(), 101);
    }

    #[test]
    fn member_split_disjoint() {
        let (m, nm) = member_split(100, 40, 3);
        assert_eq!(m.len(), 40);
        assert_eq!(nm.len(), 40);
        let ms: HashSet<usize> = m.into_iter().collect();
        assert!(nm.iter().all(|i| !ms.contains(i)));
    }

    #[test]
    fn deterministic() {
        assert_eq!(shard(50, 3, 7), shard(50, 3, 7));
        assert_ne!(shard(50, 3, 7), shard(50, 3, 8));
    }
}
