//! Property-based tests for [`ShardLayout`] itself.
//!
//! The layout's invariants were previously pinned only indirectly,
//! through sharded execution agreeing with flat execution; these
//! properties exercise the partition directly across the degenerate
//! corners — 0- and 1-client fleets, more shards than clients, shard
//! count 0 — where clamping and near-equal sizing must still hold.

use proptest::prelude::*;

use gradsec_fl::ShardLayout;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shard counts clamp into `1..=max(1, clients)` and the ranges
    /// partition `0..clients` contiguously with near-equal sizes.
    #[test]
    fn layout_partitions_contiguously_with_clamping(
        clients in 0usize..60,
        shards in 0usize..80,
    ) {
        let layout = ShardLayout::new(clients, shards);
        prop_assert_eq!(layout.num_clients(), clients);
        prop_assert!(layout.num_shards() >= 1);
        prop_assert!(layout.num_shards() <= clients.max(1));
        if (1..=clients).contains(&shards) {
            prop_assert_eq!(layout.num_shards(), shards);
        }
        // Contiguous cover of 0..clients, in order.
        let mut at = 0;
        let mut sizes = Vec::new();
        for s in 0..layout.num_shards() {
            let range = layout.range(s);
            prop_assert_eq!(range.start, at);
            at = range.end;
            sizes.push(range.len());
        }
        prop_assert_eq!(at, clients);
        // Near-equal: no two shards differ by more than one client, and
        // the remainder lands on the leading shards.
        let min = sizes.iter().copied().min().unwrap_or(0);
        let max = sizes.iter().copied().max().unwrap_or(0);
        prop_assert!(max - min <= 1, "sizes {sizes:?}");
        prop_assert!(
            sizes.windows(2).all(|w| w[0] >= w[1]),
            "remainder must lead: {sizes:?}"
        );
    }

    /// `shard_of` agrees with the ranges for every client.
    #[test]
    fn shard_of_matches_the_owning_range(
        clients in 1usize..60,
        shards in 0usize..80,
    ) {
        let layout = ShardLayout::new(clients, shards);
        for client in 0..clients {
            let s = layout.shard_of(client);
            prop_assert!(
                layout.range(s).contains(&client),
                "client {client} mapped to shard {s} ({:?})",
                layout.range(s)
            );
        }
    }

    /// `split_picks` preserves global order: concatenating the per-shard
    /// local lists (offsets restored) in shard order reproduces the
    /// global pick set exactly — including empty pick sets and picks
    /// concentrated in one shard.
    #[test]
    fn split_picks_roundtrips_any_pick_set(
        clients in 1usize..50,
        shards in 1usize..60,
        raw_picks in proptest::collection::btree_set(0usize..50, 0..24),
    ) {
        let picked: Vec<usize> = raw_picks.into_iter().filter(|&p| p < clients).collect();
        let layout = ShardLayout::new(clients, shards);
        let per_shard = layout.split_picks(&picked);
        prop_assert_eq!(per_shard.len(), layout.num_shards());
        let mut restored = Vec::new();
        for (s, locals) in per_shard.iter().enumerate() {
            let range = layout.range(s);
            for &local in locals {
                prop_assert!(local < range.len(), "local pick out of shard range");
                restored.push(range.start + local);
            }
        }
        prop_assert_eq!(restored, picked);
    }
}

/// The two fleet sizes too small for the proptest ranges above to dwell
/// on, pinned explicitly: the empty fleet and the singleton fleet.
#[test]
fn zero_and_one_client_fleets_degenerate_cleanly() {
    for shards in [0usize, 1, 3, 17] {
        let empty = ShardLayout::new(0, shards);
        assert_eq!(empty.num_shards(), 1);
        assert_eq!(empty.num_clients(), 0);
        assert_eq!(empty.range(0), 0..0);
        assert_eq!(empty.split_picks(&[]), vec![Vec::<usize>::new()]);

        let single = ShardLayout::new(1, shards);
        assert_eq!(single.num_shards(), 1);
        assert_eq!(single.num_clients(), 1);
        assert_eq!(single.range(0), 0..1);
        assert_eq!(single.shard_of(0), 0);
        assert_eq!(single.split_picks(&[0]), vec![vec![0]]);
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn shard_of_panics_past_the_fleet() {
    ShardLayout::new(4, 2).shard_of(4);
}
