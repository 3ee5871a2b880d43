//! Training plans (the hyper-parameters the server ships to clients,
//! Figure 2-➋).

use serde::{Deserialize, Serialize};

use crate::{FlError, Result};

/// The server-chosen federated training plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingPlan {
    /// Number of FL cycles (rounds) to run.
    pub rounds: u64,
    /// Clients sampled per round (after TEE/attestation filtering).
    pub clients_per_round: usize,
    /// Batches each client trains per cycle. The reproduction's timing
    /// convention (see `gradsec-tee::cost`) is 10 batches per cycle.
    pub batches_per_cycle: usize,
    /// Mini-batch size (the paper's Table 6 uses 32).
    pub batch_size: usize,
    /// SGD learning rate `λ` (paper eq. 1).
    pub learning_rate: f32,
    /// Master seed for selection and shuffling.
    pub seed: u64,
}

impl TrainingPlan {
    /// Validates plan invariants.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for zero counts or a non-positive
    /// learning rate.
    pub fn validate(&self) -> Result<()> {
        if self.rounds == 0 {
            return Err(FlError::BadConfig {
                reason: "rounds must be positive".to_owned(),
            });
        }
        if self.clients_per_round == 0 {
            return Err(FlError::BadConfig {
                reason: "clients_per_round must be positive".to_owned(),
            });
        }
        if self.batches_per_cycle == 0 || self.batch_size == 0 {
            return Err(FlError::BadConfig {
                reason: "batches_per_cycle and batch_size must be positive".to_owned(),
            });
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err(FlError::BadConfig {
                reason: format!("learning rate must be positive, got {}", self.learning_rate),
            });
        }
        Ok(())
    }
}

/// Which transport a built federation wires its clients onto.
///
/// Both speak the identical envelope protocol, so a run is
/// bit-identical whichever is chosen (asserted by
/// `tests/integration_transport.rs` and `tests/integration_mux.rs` at the
/// workspace root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TransportKind {
    /// Zero-copy in-process dispatch (the default): client cycles run on
    /// the execution engine's worker threads.
    #[default]
    InProcess,
    /// Multiplexed loopback TCP: the round exchange crosses one real
    /// socket per client, and the client sessions are served by a small
    /// fixed pool of event-loop threads over nonblocking sockets (see
    /// `transport::mux`) — the fan-in shape for tens of thousands of
    /// sessions on one host. Tuned via [`MuxOptions`].
    TcpMux,
}

/// Tuning knobs for the [`TransportKind::TcpMux`] transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxOptions {
    /// Event-loop threads serving the fleet; `0` (the default) means one
    /// per available core. Clamped to the session count.
    pub loops: usize,
    /// Bytes each event loop reads per nonblocking `read` call (the
    /// shared read scratch size). Must be positive.
    pub read_chunk: usize,
    /// Per-session write-queue bound in bytes: while a session has at
    /// least this many reply bytes queued, its reads pause until the
    /// peer drains the queue (backpressure instead of unbounded
    /// buffering). Must be positive and large enough for one encoded
    /// reply to make progress — replies themselves are never split
    /// across the bound, only delayed by it.
    pub write_bound: usize,
}

impl Default for MuxOptions {
    /// One loop per core, 64 KiB read chunks, 4 MiB write bound.
    fn default() -> Self {
        MuxOptions {
            loops: 0,
            read_chunk: 64 * 1024,
            write_bound: 4 * 1024 * 1024,
        }
    }
}

impl MuxOptions {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for a zero read chunk or write
    /// bound.
    pub fn validate(&self) -> Result<()> {
        if self.read_chunk == 0 {
            return Err(FlError::BadConfig {
                reason: "mux read_chunk must be positive".to_owned(),
            });
        }
        if self.write_bound == 0 {
            return Err(FlError::BadConfig {
                reason: "mux write_bound must be positive".to_owned(),
            });
        }
        Ok(())
    }

    /// The configured loop count, with `0` resolved to one loop per
    /// available core (at least one).
    pub fn effective_loops(&self) -> usize {
        if self.loops > 0 {
            return self.loops;
        }
        gradsec_tensor::ops::threads::host()
    }
}

/// How the training dataset is partitioned across the client fleet.
///
/// The choice rides the `ShardConfig` to distributed shard processes by
/// name (like backend and codec), so every execution path derives the
/// identical per-client partition from `(kind, dataset, plan seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PartitionKind {
    /// Seeded uniform shuffle into near-equal shards — every client sees
    /// an IID sample of the label distribution (the default, via
    /// `gradsec_data::split::shard`).
    #[default]
    Iid,
    /// Label-skewed non-IID shards: samples grouped by label and dealt
    /// as contiguous chunks, so each client holds as few distinct
    /// classes as its shard size allows (via
    /// `gradsec_data::split::shard_by_label`).
    ByLabel,
}

impl PartitionKind {
    /// Stable wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionKind::Iid => "iid",
            PartitionKind::ByLabel => "by-label",
        }
    }

    /// Parses a [`name`](Self::name) back; `None` for unknown names.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "iid" => Some(PartitionKind::Iid),
            "by-label" => Some(PartitionKind::ByLabel),
            _ => None,
        }
    }
}

/// How a registered client fleet is partitioned across engine shards.
///
/// The layout is *contiguous*: shard `s` owns clients
/// `[offset(s), offset(s+1))` in registration (id) order, near-equal in
/// size with the remainder spread over the first shards — the same
/// convention `gradsec_data::split::shard` uses for data. Contiguity is
/// what keeps a sharded run bit-identical to a flat one: walking shard
/// 0, 1, … visits clients in exactly the global order, so the server's
/// screening RNG stream and the global selection slots never notice the
/// partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardLayout {
    /// `shards + 1` cumulative offsets; `offsets[s]..offsets[s+1]` is
    /// shard `s`'s global client range.
    offsets: Vec<usize>,
}

impl ShardLayout {
    /// Partitions `num_clients` clients into `shards` contiguous shards.
    /// The shard count is clamped to `1..=max(1, num_clients)`, so asking
    /// for more shards than clients degrades to one client per shard.
    pub fn new(num_clients: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, num_clients.max(1));
        let base = num_clients / shards;
        let extra = num_clients % shards;
        let mut offsets = Vec::with_capacity(shards + 1);
        let mut at = 0;
        offsets.push(at);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            offsets.push(at);
        }
        ShardLayout { offsets }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total clients across all shards.
    pub fn num_clients(&self) -> usize {
        *self.offsets.last().expect("layout has at least one offset")
    }

    /// Shard `s`'s global client range.
    ///
    /// # Panics
    ///
    /// Panics when `s >= num_shards()`.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.offsets[s]..self.offsets[s + 1]
    }

    /// The shard owning global client `client`.
    ///
    /// # Panics
    ///
    /// Panics when `client >= num_clients()`.
    pub fn shard_of(&self, client: usize) -> usize {
        assert!(
            client < self.num_clients(),
            "client {client} out of range for {} clients",
            self.num_clients()
        );
        // Picks arrive sorted, so a linear bucket walk would do; binary
        // search keeps this robust to arbitrary order too.
        match self.offsets.binary_search(&client) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Splits a sorted global pick set into per-shard *local* pick lists,
    /// index-aligned with the shards.
    ///
    /// Global order is preserved: concatenating the per-shard lists
    /// (offset restored) in shard order reproduces `picked` exactly, which
    /// is what lets per-shard selection slots be assigned by prefix sums.
    ///
    /// # Panics
    ///
    /// Panics when a pick is `>= num_clients()` (schedules are validated
    /// by `selection::validate_picks` before they get here).
    pub fn split_picks(&self, picked: &[usize]) -> Vec<Vec<usize>> {
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.num_shards()];
        for &p in picked {
            let s = self.shard_of(p);
            per_shard[s].push(p - self.offsets[s]);
        }
        per_shard
    }
}

impl Default for TrainingPlan {
    /// The paper's evaluation defaults: batch 32, 10 batches per cycle.
    fn default() -> Self {
        TrainingPlan {
            rounds: 10,
            clients_per_round: 4,
            batches_per_cycle: 10,
            batch_size: 32,
            learning_rate: 0.05,
            seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let p = TrainingPlan::default();
        p.validate().unwrap();
        assert_eq!(p.batch_size, 32);
        assert_eq!(p.batches_per_cycle, 10);
    }

    #[test]
    fn shard_layout_partitions_contiguously() {
        let l = ShardLayout::new(10, 4);
        assert_eq!(l.num_shards(), 4);
        assert_eq!(l.num_clients(), 10);
        // Near-equal, remainder on the first shards, contiguous cover.
        assert_eq!(l.range(0), 0..3);
        assert_eq!(l.range(1), 3..6);
        assert_eq!(l.range(2), 6..8);
        assert_eq!(l.range(3), 8..10);
    }

    #[test]
    fn shard_layout_clamps_degenerate_counts() {
        assert_eq!(ShardLayout::new(3, 0).num_shards(), 1);
        assert_eq!(ShardLayout::new(3, 8).num_shards(), 3);
        let empty = ShardLayout::new(0, 4);
        assert_eq!(empty.num_shards(), 1);
        assert_eq!(empty.num_clients(), 0);
    }

    #[test]
    fn split_picks_preserves_global_order() {
        let l = ShardLayout::new(10, 4);
        let per_shard = l.split_picks(&[0, 2, 3, 6, 8, 9]);
        assert_eq!(per_shard, vec![vec![0, 2], vec![0], vec![0], vec![0, 1]]);
        // Restoring offsets in shard order reproduces the global picks.
        let mut restored = Vec::new();
        for (s, locals) in per_shard.iter().enumerate() {
            restored.extend(locals.iter().map(|&i| i + l.range(s).start));
        }
        assert_eq!(restored, vec![0, 2, 3, 6, 8, 9]);
    }

    #[test]
    fn mux_options_validate_and_resolve_loops() {
        let defaults = MuxOptions::default();
        defaults.validate().unwrap();
        assert!(defaults.effective_loops() >= 1);
        assert_eq!(
            MuxOptions {
                loops: 3,
                ..defaults
            }
            .effective_loops(),
            3
        );
        assert!(MuxOptions {
            read_chunk: 0,
            ..defaults
        }
        .validate()
        .is_err());
        assert!(MuxOptions {
            write_bound: 0,
            ..defaults
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validation_catches_zeroes() {
        for bad in [
            TrainingPlan {
                rounds: 0,
                ..TrainingPlan::default()
            },
            TrainingPlan {
                clients_per_round: 0,
                ..TrainingPlan::default()
            },
            TrainingPlan {
                batches_per_cycle: 0,
                ..TrainingPlan::default()
            },
            TrainingPlan {
                batch_size: 0,
                ..TrainingPlan::default()
            },
            TrainingPlan {
                learning_rate: 0.0,
                ..TrainingPlan::default()
            },
            TrainingPlan {
                learning_rate: -1.0,
                ..TrainingPlan::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
