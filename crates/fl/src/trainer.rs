//! Pluggable local-training strategies.
//!
//! The FL client delegates its per-cycle training loop to a
//! [`LocalTrainer`]. The plain strategy here trains entirely in the
//! normal world; the GradSec secure trainer (in `gradsec-core`) implements
//! the same trait but partitions layers across the TrustZone worlds.

use gradsec_data::{batch_of, Dataset};
use gradsec_nn::optim::Sgd;
use gradsec_nn::Sequential;
use gradsec_tee::cost::{ClientCycleCost, TimeBreakdown, WireBill};

use crate::Result;

/// Statistics of one local training cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleStats {
    /// Mean training loss over the cycle's batches.
    pub mean_loss: f32,
    /// Batches processed.
    pub batches: usize,
    /// Samples processed.
    pub samples: usize,
    /// Simulated time breakdown (all-zero for the plain trainer — only the
    /// enclave-partitioned trainer charges the cost model).
    pub time: TimeBreakdown,
    /// Peak TEE memory in bytes (0 for the plain trainer).
    pub tee_peak_bytes: usize,
    /// Secure-monitor crossings taken during the cycle (0 for the plain
    /// trainer) — feeds the round ledger's per-client accounting.
    pub crossings: u64,
}

impl CycleStats {
    /// The ledger entry for this cycle, attributed to `client_id`. This is
    /// what an [`UpdateUpload`](crate::message::UpdateUpload) carries over
    /// the wire so remote clients stay accountable.
    pub fn cost(&self, client_id: u64) -> ClientCycleCost {
        ClientCycleCost {
            client_id,
            time: self.time,
            crossings: self.crossings,
            tee_peak_bytes: self.tee_peak_bytes,
            // The wire bill is filled in server-side: only the endpoint
            // that framed the payloads knows the observed byte counts.
            wire: WireBill::default(),
        }
    }
}

/// A strategy that trains a model for one FL cycle on a client.
pub trait LocalTrainer: Send {
    /// Trains `model` in place over the given batches.
    ///
    /// `protected_layers` carries the server's GradSec configuration for
    /// this cycle; the plain trainer ignores it (and thereby *leaks* all
    /// gradients — it is the unprotected baseline).
    ///
    /// # Errors
    ///
    /// Propagates model/TEE failures.
    fn train_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected_layers: &[usize],
    ) -> Result<CycleStats>;
}

/// The unprotected baseline trainer: plain SGD in the normal world.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainSgdTrainer;

impl LocalTrainer for PlainSgdTrainer {
    fn train_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        _protected_layers: &[usize],
    ) -> Result<CycleStats> {
        let mut opt = Sgd::new(learning_rate);
        let mut loss_sum = 0.0f32;
        let mut samples = 0usize;
        for idx in batches {
            let (x, y) = batch_of(dataset, idx);
            let stats = model.train_batch(x, &y, &mut opt)?;
            loss_sum += stats.loss;
            samples += idx.len();
        }
        Ok(CycleStats {
            mean_loss: if batches.is_empty() {
                0.0
            } else {
                loss_sum / batches.len() as f32
            },
            batches: batches.len(),
            samples,
            time: TimeBreakdown::default(),
            tee_peak_bytes: 0,
            crossings: 0,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;

    /// Test double: a plain trainer that notes the kernel budget
    /// (`gradsec_tensor::ops::threads::budget`) each cycle trains under.
    pub(crate) struct BudgetRecorder(pub std::sync::Arc<std::sync::Mutex<Vec<usize>>>);

    impl LocalTrainer for BudgetRecorder {
        fn train_cycle(
            &mut self,
            model: &mut Sequential,
            dataset: &dyn Dataset,
            batches: &[Vec<usize>],
            learning_rate: f32,
            protected_layers: &[usize],
        ) -> Result<CycleStats> {
            let budget = gradsec_tensor::ops::threads::budget();
            self.0.lock().expect("no recorder panics").push(budget);
            PlainSgdTrainer.train_cycle(model, dataset, batches, learning_rate, protected_layers)
        }
    }

    /// How a [`Flaky`] trainer's one bad cycle goes wrong.
    #[derive(Clone, Copy)]
    pub(crate) enum Mishap {
        /// `train_cycle` returns an error.
        Fails,
        /// `train_cycle` panics.
        Panics,
    }

    /// Test double: a plain trainer whose `at`-th cycle (0-based) takes a
    /// training step — so the replica has moved — and then goes wrong.
    pub(crate) struct Flaky {
        at: usize,
        how: Mishap,
        cycles: usize,
    }

    impl Flaky {
        pub(crate) fn boxed(at: usize, how: Mishap) -> Box<dyn LocalTrainer> {
            Box::new(Flaky { at, how, cycles: 0 })
        }
    }

    impl LocalTrainer for Flaky {
        fn train_cycle(
            &mut self,
            model: &mut Sequential,
            dataset: &dyn Dataset,
            batches: &[Vec<usize>],
            learning_rate: f32,
            protected_layers: &[usize],
        ) -> Result<CycleStats> {
            let stats = PlainSgdTrainer.train_cycle(
                model,
                dataset,
                batches,
                learning_rate,
                protected_layers,
            )?;
            let nth = self.cycles;
            self.cycles += 1;
            if nth != self.at {
                return Ok(stats);
            }
            match self.how {
                Mishap::Fails => Err(crate::FlError::BadConfig {
                    reason: "flaky trainer".to_owned(),
                }),
                Mishap::Panics => panic!("flaky trainer"),
            }
        }
    }

    #[test]
    fn plain_trainer_reduces_loss() {
        let ds = SyntheticCifar100::with_classes(64, 2, 5);
        let mut model = zoo::tiny_mlp(3 * 32 * 32, 16, 2, 1).unwrap();
        let batches: Vec<Vec<usize>> = (0..8).map(|b| (b * 8..(b + 1) * 8).collect()).collect();
        let mut t = PlainSgdTrainer;
        let first = t.train_cycle(&mut model, &ds, &batches, 0.05, &[]).unwrap();
        let mut last = first;
        for _ in 0..10 {
            last = t.train_cycle(&mut model, &ds, &batches, 0.05, &[]).unwrap();
        }
        assert!(last.mean_loss < first.mean_loss, "{last:?} vs {first:?}");
        assert_eq!(last.batches, 8);
        assert_eq!(last.samples, 64);
        assert_eq!(last.tee_peak_bytes, 0);
    }

    #[test]
    fn empty_cycle_is_a_noop() {
        let ds = SyntheticCifar100::with_classes(8, 2, 5);
        let mut model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap();
        let before = model.weights();
        let stats = PlainSgdTrainer
            .train_cycle(&mut model, &ds, &[], 0.05, &[])
            .unwrap();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.mean_loss, 0.0);
        let after = model.weights();
        assert_eq!(before, after);
    }
}
