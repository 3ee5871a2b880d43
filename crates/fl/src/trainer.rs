//! Local training: one SGD batch loop, and which world each layer runs
//! in.
//!
//! The FL client delegates its per-cycle training loop to a
//! [`LocalTrainer`]. [`PlainSgdTrainer`] trains every layer in the
//! normal world and bills nothing; [`SecureTrainer`] trains the cycle's
//! protected layers in the simulated enclave and bills the calibrated
//! cost model (GradSec, §5); [`DefaultTrainer`], the builder's default,
//! picks between the two by the cycle's protected set. All three run the
//! same batch loop, so the arithmetic — and the committed model — is the
//! same in both worlds.
//!
//! A [`SecureTrainer`] cycle has three phases:
//!
//! 1. **Provisioning** — for each protected layer, secure memory for
//!    `W, dW, A_{l−1}, Z_l, δ_l` ([`layer_tee_bytes`]) is allocated from
//!    the bounded pool (a configuration that does not fit the device
//!    fails exactly like a real TA hitting `TEE_ERROR_OUT_OF_MEMORY`),
//!    charging the allocation clock.
//! 2. **Training** — the real SGD computation runs; the simulator charges
//!    each layer's MAC operations (`layer_cycle_macs`) to the user or
//!    kernel clock depending on placement, and each contiguous protected
//!    run ([`contiguous_runs`]) costs one enclave entry + exit per batch
//!    through the secure monitor.
//! 3. **Reporting** — the cycle's [`CycleStats`] carries the Table 6 row:
//!    user/kernel/allocation seconds and peak TEE bytes.
//!
//! [`estimate_cycle`] charges the same rules analytically, without
//! training.

use gradsec_data::{batch_of, Dataset};
use gradsec_nn::layer::{Layer, LayerKind};
use gradsec_nn::optim::Sgd;
use gradsec_nn::Sequential;
use gradsec_tee::cost::{ClientCycleCost, CostModel, SimClock, TimeBreakdown, WireBill};
use gradsec_tee::memory::{SecureMemory, DEFAULT_BUDGET};
use gradsec_tee::monitor::SecureMonitor;

use crate::{FlError, Result};

/// Statistics of one local training cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleStats {
    /// Mean training loss over the cycle's batches.
    pub mean_loss: f32,
    /// Batches processed.
    pub(crate) batches: usize,
    /// Samples processed.
    pub(crate) samples: usize,
    /// Simulated time breakdown (all-zero for the plain trainer — only the
    /// enclave-partitioned trainer charges the cost model).
    pub time: TimeBreakdown,
    /// Peak TEE memory in bytes (0 for the plain trainer; Table 6's "TEE
    /// Memory Usage (at exec)").
    pub tee_peak_bytes: usize,
    /// Secure-monitor crossings taken during the cycle (0 for the plain
    /// trainer) — feeds the round ledger's per-client accounting.
    pub crossings: u64,
}

impl CycleStats {
    /// The ledger entry for this cycle, attributed to `client_id`. This is
    /// what an [`UpdateUpload`](crate::message::UpdateUpload) carries over
    /// the wire so remote clients stay accountable.
    pub(crate) fn cost(&self, client_id: u64) -> ClientCycleCost {
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

/// The one SGD batch loop: trains `model` over `batches`, handing
/// `after_batch` each batch's sample count once its step is taken. The
/// returned stats bill nothing.
fn sgd_cycle(
    model: &mut Sequential,
    dataset: &dyn Dataset,
    batches: &[Vec<usize>],
    learning_rate: f32,
    mut after_batch: impl FnMut(usize) -> Result<()>,
) -> Result<CycleStats> {
    let mut opt = Sgd::new(learning_rate);
    let mut loss_sum = 0.0f32;
    let mut samples = 0usize;
    for idx in batches {
        let (x, y) = batch_of(dataset, idx);
        loss_sum += model.train_batch(x, &y, &mut opt)?.loss;
        samples += idx.len();
        after_batch(idx.len())?;
    }
    Ok(CycleStats {
        mean_loss: if batches.is_empty() {
            0.0
        } else {
            loss_sum / batches.len() as f32
        },
        batches: batches.len(),
        samples,
        ..CycleStats::default()
    })
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
        sgd_cycle(model, dataset, batches, learning_rate, |_| Ok(()))
    }
}

/// Bytes of secure memory needed to shelter one layer at a batch size:
/// the weights and their gradients (2 × `params`), the input `A_{l−1}`
/// and the pre-activation `Z_l` and error `δ_l` (`batch ×` their
/// elements), all `f32`. This is the paper's bill, not this host's
/// buffers: the layers keep no `Z_l`, but the enclave is charged it.
pub fn layer_tee_bytes(layer: &dyn Layer, batch: usize) -> usize {
    let params = layer.param_count();
    let activations = batch * (layer.input_elems() + 2 * layer.preact_elems());
    4 * (2 * params + activations)
}

/// Forward-pass MAC count of one layer for one sample.
///
/// Backward roughly doubles-and-a-half this (weight gradients + input
/// gradients), so the full per-sample cost is `3 ×` this value — the
/// convention the cost model was calibrated under.
pub(crate) fn layer_fwd_macs(layer: &dyn Layer) -> usize {
    match layer.kind() {
        LayerKind::Conv2d { filters, .. } => {
            let positions = layer.preact_elems() / filters.max(1);
            positions * (layer.param_count().saturating_sub(filters))
        }
        LayerKind::Dense { inputs, outputs } => inputs * outputs,
    }
}

/// Full (forward + backward) MAC count of one layer for one sample.
pub(crate) fn layer_cycle_macs(layer: &dyn Layer) -> usize {
    3 * layer_fwd_macs(layer)
}

/// Splits a layer set into maximal contiguous runs `(first, last)`,
/// sorted and deduplicated: the enclave slices one protected set
/// needs, each entered and left once per batch.
pub fn contiguous_runs(layers: &[usize]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut sorted: Vec<usize> = layers.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for l in sorted {
        match out.last_mut() {
            Some((_, end)) if *end + 1 == l => *end = l,
            _ => out.push((l, l)),
        }
    }
    out
}

/// Refuses a protected layer the model does not have.
fn check_layers(model: &Sequential, protected: &[usize]) -> Result<()> {
    let n = model.num_layers();
    match protected.iter().find(|&&l| l >= n) {
        Some(&bad) => Err(FlError::BadConfig {
            reason: format!("protected layer {bad} out of range for {n}-layer model"),
        }),
        None => Ok(()),
    }
}

/// Analytically estimates one cycle's Table 6 row — its time breakdown
/// and peak TEE bytes — without running any training: the deterministic
/// fast path of the paper-table reproductions.
///
/// # Errors
///
/// Returns [`FlError::BadConfig`] for out-of-range layers.
pub fn estimate_cycle(
    model: &Sequential,
    protected: &[usize],
    batches: usize,
    batch_size: usize,
    cost: &CostModel,
) -> Result<(TimeBreakdown, usize)> {
    check_layers(model, protected)?;
    let mut clock = SimClock::new();
    let mut peak = 0usize;
    for &l in protected {
        let layer = model.layer(l)?;
        clock.charge_layer_alloc(layer.param_count(), cost);
        peak += layer_tee_bytes(layer, batch_size);
    }
    let samples = (batches * batch_size) as f64;
    for (i, layer) in model.iter().enumerate() {
        let ops = layer_cycle_macs(layer) as f64 * samples;
        if protected.contains(&i) {
            clock.charge_secure_ops(ops, cost);
        } else {
            clock.charge_normal_ops(ops, cost);
        }
    }
    let runs = contiguous_runs(protected).len() as u64;
    clock.charge_crossings(2 * runs * batches as u64, cost);
    Ok((clock.breakdown(), peak))
}

/// The GradSec trainer: trains the cycle's protected layers in the
/// simulated enclave under a secure-memory budget, billing a cost model.
#[derive(Debug)]
pub struct SecureTrainer {
    cost: CostModel,
    budget: usize,
}

impl SecureTrainer {
    /// Creates a trainer with the Pi-calibrated cost model and the default
    /// 4 MiB enclave.
    pub fn new() -> Self {
        SecureTrainer {
            cost: CostModel::raspberry_pi3(),
            budget: DEFAULT_BUDGET,
        }
    }

    /// Overrides the secure-memory budget in bytes.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Runs one protected training cycle: [`LocalTrainer::train_cycle`]
    /// without the trait.
    ///
    /// # Errors
    ///
    /// * [`FlError::Tee`] with `OutOfSecureMemory` when the protected set
    ///   does not fit the enclave budget,
    /// * [`FlError::BadConfig`] for out-of-range layers,
    /// * model errors from training itself.
    pub fn run_cycle(
        &self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected: &[usize],
    ) -> Result<CycleStats> {
        check_layers(model, protected)?;
        let batch_size = batches.first().map(|b| b.len()).unwrap_or(0);
        let mut memory = SecureMemory::with_budget(self.budget);
        let mut monitor = SecureMonitor::new();
        let mut clock = SimClock::new();
        // Provisioning: allocate every protected layer's enclave residency.
        let mut held = Vec::new();
        for &l in protected {
            let layer = model.layer(l)?;
            held.push(memory.alloc(layer_tee_bytes(layer, batch_size))?);
            clock.charge_layer_alloc(layer.param_count(), &self.cost);
        }
        let ops_per_sample: Vec<usize> = model.iter().map(layer_cycle_macs).collect();
        let runs = contiguous_runs(protected).len();
        // Train for real, charging the clocks per batch.
        let mut stats = sgd_cycle(model, dataset, batches, learning_rate, |samples| {
            for (i, &ops) in ops_per_sample.iter().enumerate() {
                let total = (ops * samples) as f64;
                if protected.contains(&i) {
                    clock.charge_secure_ops(total, &self.cost);
                } else {
                    clock.charge_normal_ops(total, &self.cost);
                }
            }
            // One enclave entry + exit per contiguous protected run.
            for _ in 0..runs {
                monitor.smc_enter()?;
                monitor.smc_exit()?;
            }
            clock.charge_crossings(2 * runs as u64, &self.cost);
            Ok(())
        })?;
        stats.tee_peak_bytes = memory.peak();
        for alloc in held {
            memory.free(alloc)?;
        }
        stats.time = clock.breakdown();
        stats.crossings = clock.crossings();
        Ok(stats)
    }
}

impl Default for SecureTrainer {
    fn default() -> Self {
        SecureTrainer::new()
    }
}

impl LocalTrainer for SecureTrainer {
    fn train_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected_layers: &[usize],
    ) -> Result<CycleStats> {
        self.run_cycle(model, dataset, batches, learning_rate, protected_layers)
    }
}

/// The builder's default trainer: a cycle with nothing protected trains
/// as [`PlainSgdTrainer`] and bills nothing, any other as
/// [`SecureTrainer::new`]. The round's protected set alone decides where
/// a client trains, in this process and on shard servers alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultTrainer;

impl LocalTrainer for DefaultTrainer {
    fn train_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected_layers: &[usize],
    ) -> Result<CycleStats> {
        if protected_layers.is_empty() {
            PlainSgdTrainer.train_cycle(model, dataset, batches, learning_rate, &[])
        } else {
            SecureTrainer::new().run_cycle(model, dataset, batches, learning_rate, protected_layers)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::model::ModelWeights;
    use gradsec_nn::{zoo, BackendKind};
    use gradsec_tee::TeeError;

    fn batches(n: usize, size: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|b| (b * size..(b + 1) * size).collect())
            .collect()
    }

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

    /// Every bit a cycle leaves: the trained weights, the loss and the
    /// bill.
    fn bits(stats: &CycleStats, weights: &ModelWeights) -> Vec<u64> {
        let t = stats.time;
        let mut out = vec![
            u64::from(stats.mean_loss.to_bits()),
            stats.batches as u64,
            stats.samples as u64,
            t.user_s.to_bits(),
            t.kernel_s.to_bits(),
            t.alloc_s.to_bits(),
            stats.tee_peak_bytes as u64,
            stats.crossings,
        ];
        for layer in weights.iter() {
            let coeffs = layer.w.data().iter().chain(layer.b.data());
            out.extend(coeffs.map(|x| u64::from(x.to_bits())));
        }
        out
    }

    #[test]
    fn the_default_trainer_is_plain_or_secure_by_the_protected_set() {
        let ds = SyntheticCifar100::with_classes(64, 4, 3);
        for backend in BackendKind::ALL {
            let cycle =
                |trainer: &mut dyn LocalTrainer, protected: &[usize], plan: &[Vec<usize>]| {
                    let mut model = zoo::lenet5_with(4, 2).unwrap();
                    model.set_backend(backend);
                    let stats = trainer.train_cycle(&mut model, &ds, plan, 0.01, protected)?;
                    Ok::<_, FlError>(bits(&stats, &model.weights()))
                };
            let two = batches(2, 8);
            // Nothing protected: plain SGD, bit for bit, billing nothing.
            let plain = cycle(&mut PlainSgdTrainer, &[], &two).unwrap();
            assert_eq!(cycle(&mut DefaultTrainer, &[], &two).unwrap(), plain);
            assert_eq!(plain[3..8], [0; 5], "{backend}: plain bills nothing");
            // The paper's {L2, L5}: the secure trainer, bill included.
            let secure = cycle(&mut SecureTrainer::new(), &[1, 4], &two).unwrap();
            assert_eq!(cycle(&mut DefaultTrainer, &[1, 4], &two).unwrap(), secure);
            assert!(secure[3..8].iter().all(|&b| b > 0), "{backend}: billed");
            assert_eq!(plain[8..], secure[8..], "{backend}: same arithmetic");
            // The whole model at batch 64 overruns the default 4 MiB.
            let err = cycle(&mut DefaultTrainer, &[0, 1, 2, 3, 4], &batches(1, 64)).unwrap_err();
            assert!(
                matches!(err, FlError::Tee(TeeError::OutOfSecureMemory { .. })),
                "{backend}: {err}"
            );
        }
    }

    #[test]
    fn macs_match_calibration_convention() {
        // LeNet-5 fwd MACs: 4×230,400 + 76,800 = 998,400;
        // cycle MACs = 3× = 2,995,200 (the cost-model calibration).
        let m = zoo::lenet5(1).unwrap();
        let fwd: usize = m.iter().map(layer_fwd_macs).sum();
        assert_eq!(fwd, 998_400);
        let cycle: usize = m.iter().map(layer_cycle_macs).sum();
        assert_eq!(cycle, 2_995_200);
        assert_eq!(layer_fwd_macs(m.layer(0).unwrap()), 230_400);
        assert_eq!(layer_fwd_macs(m.layer(4).unwrap()), 76_800);
    }

    #[test]
    fn estimate_baseline_matches_table6() {
        let m = zoo::lenet5(1).unwrap();
        let cost = CostModel::raspberry_pi3();
        let (t, peak) = estimate_cycle(&m, &[], 10, 32, &cost).unwrap();
        assert!(
            (t.user_s - 2.191).abs() < 0.02,
            "baseline user {}",
            t.user_s
        );
        assert_eq!(t.kernel_s, 0.0);
        assert_eq!(t.alloc_s, 0.0);
        assert_eq!(peak, 0);
    }

    #[test]
    fn estimate_l2_row_matches_table6_shape() {
        // Paper L2 row: 1.672 + 0.652 + 0.34 (20% overhead), 0.565 MB.
        let m = zoo::lenet5(1).unwrap();
        let cost = CostModel::raspberry_pi3();
        let (t, peak) = estimate_cycle(&m, &[1], 10, 32, &cost).unwrap();
        let (base, _) = estimate_cycle(&m, &[], 10, 32, &cost).unwrap();
        let overhead = t.overhead_vs(&base);
        assert!(
            (5.0..40.0).contains(&overhead),
            "L2 overhead {overhead:.0}% out of the paper's ballpark (20%)"
        );
        let mb = peak as f64 / (1024.0 * 1024.0);
        assert!((mb - 0.565).abs() < 0.1, "L2 memory {mb:.3} MB");
    }

    #[test]
    fn estimate_l5_row_allocation_dominates() {
        // Paper L5 row: 212% overhead, almost all from the 4.68 s alloc.
        let m = zoo::lenet5(1).unwrap();
        let cost = CostModel::raspberry_pi3();
        let (t, _) = estimate_cycle(&m, &[4], 10, 32, &cost).unwrap();
        let (base, _) = estimate_cycle(&m, &[], 10, 32, &cost).unwrap();
        assert!(t.alloc_s > 4.0 && t.alloc_s < 5.5, "L5 alloc {}", t.alloc_s);
        let overhead = t.overhead_vs(&base);
        assert!(
            (180.0..260.0).contains(&overhead),
            "L5 overhead {overhead:.0}% (paper: 212%)"
        );
    }

    #[test]
    fn grouped_beats_darknetz_on_both_axes() {
        // The Table 1 comparison: GradSec {L2,L5} vs DarkneTZ L2..L5.
        let m = zoo::lenet5(1).unwrap();
        let cost = CostModel::raspberry_pi3();
        let (ours, our_mem) = estimate_cycle(&m, &[1, 4], 10, 32, &cost).unwrap();
        let (theirs, their_mem) = estimate_cycle(&m, &[1, 2, 3, 4], 10, 32, &cost).unwrap();
        let time_gain = (1.0 - ours.total_s() / theirs.total_s()) * 100.0;
        let mem_gain = (1.0 - our_mem as f64 / their_mem as f64) * 100.0;
        assert!(
            (2.0..20.0).contains(&time_gain),
            "time gain {time_gain:.1}% (paper: 8.3%)"
        );
        assert!(
            (20.0..40.0).contains(&mem_gain),
            "memory gain {mem_gain:.1}% (paper: 30%)"
        );
    }

    #[test]
    fn real_cycle_matches_estimate() {
        // The live trainer must charge exactly what the analytical
        // estimator predicts (same clocks, same rules).
        let ds = SyntheticCifar100::with_classes(64, 4, 3);
        let mut m = zoo::lenet5_with(4, 2).unwrap();
        let stats = SecureTrainer::new()
            .run_cycle(&mut m, &ds, &batches(2, 8), 0.01, &[1, 4])
            .unwrap();
        let m2 = zoo::lenet5_with(4, 2).unwrap();
        let (est, peak) = estimate_cycle(&m2, &[1, 4], 2, 8, &CostModel::raspberry_pi3()).unwrap();
        assert!((stats.time.total_s() - est.total_s()).abs() < 1e-9);
        assert_eq!(stats.tee_peak_bytes, peak);
        assert_eq!(stats.crossings, 2 * 2 * 2); // 2 runs × 2 batches × enter+exit
        assert!(stats.mean_loss.is_finite());
        assert_eq!(stats.samples, 16);
    }

    #[test]
    fn oversized_protection_hits_enclave_oom() {
        // A 256 KiB enclave cannot hold L1 (≈1.1 MB at batch 32).
        let ds = SyntheticCifar100::with_classes(64, 4, 3);
        let mut m = zoo::lenet5_with(4, 2).unwrap();
        let err = SecureTrainer::new()
            .with_budget(256 * 1024)
            .run_cycle(&mut m, &ds, &batches(1, 32), 0.01, &[0])
            .unwrap_err();
        assert!(matches!(
            err,
            FlError::Tee(TeeError::OutOfSecureMemory { .. })
        ));
    }

    #[test]
    fn out_of_range_layer_rejected() {
        let ds = SyntheticCifar100::with_classes(16, 2, 3);
        let mut m = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap();
        assert!(matches!(
            SecureTrainer::new().run_cycle(&mut m, &ds, &batches(1, 4), 0.01, &[7]),
            Err(FlError::BadConfig { .. })
        ));
        assert!(estimate_cycle(&m, &[7], 1, 4, &CostModel::free()).is_err());
    }

    #[test]
    fn unprotected_cycle_has_zero_enclave_cost() {
        let ds = SyntheticCifar100::with_classes(16, 2, 3);
        let mut m = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap();
        let s = SecureTrainer::new()
            .run_cycle(&mut m, &ds, &batches(2, 4), 0.05, &[])
            .unwrap();
        assert_eq!(s.time.kernel_s, 0.0);
        assert_eq!(s.time.alloc_s, 0.0);
        assert_eq!(s.tee_peak_bytes, 0);
        assert_eq!(s.crossings, 0);
        assert!(s.time.user_s > 0.0);
    }

    #[test]
    fn works_as_fl_local_trainer() {
        let ds = SyntheticCifar100::with_classes(32, 2, 3);
        let mut m = zoo::lenet5_with(2, 2).unwrap();
        let trainer: &mut dyn LocalTrainer = &mut SecureTrainer::new();
        let stats = trainer
            .train_cycle(&mut m, &ds, &batches(2, 8), 0.01, &[1])
            .unwrap();
        assert!(stats.tee_peak_bytes > 0);
        assert!(stats.time.kernel_s > 0.0);
    }
}
