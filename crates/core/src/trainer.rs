//! The GradSec secure trainer.
//!
//! Executes one FL cycle with the protected layers living in the simulated
//! enclave:
//!
//! 1. **Provisioning** — for each protected layer, secure memory for
//!    `W, dW, A_{l−1}, Z_l, δ_l` is allocated from the bounded pool (a
//!    configuration that does not fit the device fails exactly like a real
//!    TA hitting `TEE_ERROR_OUT_OF_MEMORY`), charging the allocation
//!    clock.
//! 2. **Training** — the real SGD computation runs (the arithmetic is
//!    identical in both worlds); the simulator charges each layer's MAC
//!    operations to the user or kernel clock depending on placement, and
//!    each contiguous protected run costs one enclave entry + exit per
//!    batch through the secure monitor.
//! 3. **Reporting** — the cycle's [`CycleReport`] carries the Table 6 row:
//!    user/kernel/allocation seconds and peak TEE bytes.

use gradsec_data::{batch_of, Dataset};
use gradsec_nn::layer::{Layer, LayerKind};
use gradsec_nn::optim::Sgd;
use gradsec_nn::Sequential;
use gradsec_tee::cost::{CostModel, SimClock, TimeBreakdown};
use gradsec_tee::memory::SecureMemory;
use gradsec_tee::monitor::SecureMonitor;

use crate::memory_model::layer_tee_bytes;
use crate::policy::ProtectionPolicy;
use crate::report::CycleReport;
use crate::{GradSecError, Result};

/// Forward-pass MAC count of one layer for one sample.
///
/// Backward roughly doubles-and-a-half this (weight gradients + input
/// gradients), so the full per-sample cost is `3 ×` this value — the
/// convention the cost model was calibrated under.
pub fn layer_fwd_macs(layer: &dyn Layer) -> usize {
    match layer.kind() {
        LayerKind::Conv2d { filters, .. } => {
            let positions = layer.preact_elems() / filters.max(1);
            positions * (layer.param_count().saturating_sub(filters))
        }
        LayerKind::Dense { inputs, outputs } => inputs * outputs,
    }
}

/// Full (forward + backward) MAC count of one layer for one sample.
pub fn layer_cycle_macs(layer: &dyn Layer) -> usize {
    3 * layer_fwd_macs(layer)
}

/// Splits a sorted protected set into maximal contiguous runs.
fn contiguous_runs(protected: &[usize]) -> Vec<(usize, usize)> {
    ProtectionPolicy::slices(protected)
}

/// Analytically estimates one cycle's Table 6 row without running any
/// training — the deterministic fast path used by the benchmark harness.
///
/// # Errors
///
/// Returns [`GradSecError::BadPolicy`] for out-of-range layers.
pub fn estimate_cycle(
    model: &Sequential,
    protected: &[usize],
    batches: usize,
    batch_size: usize,
    cost: &CostModel,
) -> Result<(TimeBreakdown, usize)> {
    let n = model.num_layers();
    if let Some(&bad) = protected.iter().find(|&&l| l >= n) {
        return Err(GradSecError::BadPolicy {
            reason: format!("layer {bad} out of range for {n}-layer model"),
        });
    }
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

/// The secure trainer: drop-in [`gradsec_fl::trainer::LocalTrainer`] that
/// executes the cycle under a given enclave budget and cost model.
#[derive(Debug)]
pub struct SecureTrainer {
    cost: CostModel,
    budget: usize,
    last_report: Option<CycleReport>,
}

impl SecureTrainer {
    /// Creates a trainer with the Pi-calibrated cost model and the default
    /// 4 MiB enclave.
    pub fn new() -> Self {
        SecureTrainer {
            cost: CostModel::raspberry_pi3(),
            budget: gradsec_tee::memory::DEFAULT_BUDGET,
            last_report: None,
        }
    }

    /// Overrides the secure-memory budget in bytes.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// The report of the most recent cycle.
    pub fn last_report(&self) -> Option<&CycleReport> {
        self.last_report.as_ref()
    }

    /// Runs one protected training cycle (the long-hand form of
    /// [`gradsec_fl::trainer::LocalTrainer::train_cycle`] that returns the
    /// full report).
    ///
    /// # Errors
    ///
    /// * [`GradSecError::Tee`] with `OutOfSecureMemory` when the protected
    ///   set does not fit the enclave budget,
    /// * [`GradSecError::BadPolicy`] for out-of-range layers,
    /// * model errors from training itself.
    pub fn run_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected: &[usize],
    ) -> Result<CycleReport> {
        let n = model.num_layers();
        if let Some(&bad) = protected.iter().find(|&&l| l >= n) {
            return Err(GradSecError::BadPolicy {
                reason: format!("layer {bad} out of range for {n}-layer model"),
            });
        }
        let batch_size = batches.first().map(|b| b.len()).unwrap_or(0);
        let mut memory = SecureMemory::with_budget(self.budget);
        let mut monitor = SecureMonitor::new();
        let mut clock = SimClock::new();
        // Provisioning: allocate every protected layer's enclave residency.
        let mut held = Vec::new();
        for &l in protected {
            let layer = model.layer(l)?;
            let bytes = layer_tee_bytes(layer, batch_size);
            let alloc = memory.alloc(bytes)?;
            clock.charge_layer_alloc(layer.param_count(), &self.cost);
            held.push(alloc);
        }
        // Pre-compute per-layer op counts.
        let ops_per_sample: Vec<usize> = model.iter().map(layer_cycle_macs).collect();
        let runs = contiguous_runs(protected);
        // Train for real, charging the clocks per batch.
        let mut opt = Sgd::new(learning_rate);
        let mut loss_sum = 0.0f32;
        let mut samples = 0usize;
        for idx in batches {
            let (x, y) = batch_of(dataset, idx);
            let stats = model
                .train_batch(x, &y, &mut opt)
                .map_err(GradSecError::from)?;
            loss_sum += stats.loss;
            samples += idx.len();
            for (i, &ops) in ops_per_sample.iter().enumerate() {
                let total = (ops * idx.len()) as f64;
                if protected.contains(&i) {
                    clock.charge_secure_ops(total, &self.cost);
                } else {
                    clock.charge_normal_ops(total, &self.cost);
                }
            }
            // One enclave entry + exit per contiguous protected run.
            for _ in &runs {
                monitor.smc_enter()?;
                monitor.smc_exit()?;
            }
            clock.charge_crossings(2 * runs.len() as u64, &self.cost);
        }
        let peak = memory.peak();
        for alloc in held {
            memory.free(alloc)?;
        }
        let report = CycleReport {
            protected: protected.to_vec(),
            times: clock.breakdown(),
            tee_peak_bytes: peak,
            crossings: clock.crossings(),
            mean_loss: if batches.is_empty() {
                0.0
            } else {
                loss_sum / batches.len() as f32
            },
            batches: batches.len(),
            samples,
        };
        self.last_report = Some(report.clone());
        Ok(report)
    }
}

impl Default for SecureTrainer {
    fn default() -> Self {
        SecureTrainer::new()
    }
}

impl gradsec_fl::trainer::LocalTrainer for SecureTrainer {
    fn train_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected_layers: &[usize],
    ) -> gradsec_fl::Result<gradsec_fl::trainer::CycleStats> {
        let report = self
            .run_cycle(model, dataset, batches, learning_rate, protected_layers)
            .map_err(|e| match e {
                GradSecError::Nn(e) => gradsec_fl::FlError::Nn(e),
                GradSecError::Tee(e) => gradsec_fl::FlError::Tee(e),
                other => gradsec_fl::FlError::BadConfig {
                    reason: other.to_string(),
                },
            })?;
        Ok(gradsec_fl::trainer::CycleStats {
            mean_loss: report.mean_loss,
            batches: report.batches,
            samples: report.samples,
            time: report.times,
            tee_peak_bytes: report.tee_peak_bytes,
            crossings: report.crossings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;
    use gradsec_tee::TeeError;

    fn batches(n: usize, size: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|b| (b * size..(b + 1) * size).collect())
            .collect()
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
        let mut t = SecureTrainer::new();
        let report = t
            .run_cycle(&mut m, &ds, &batches(2, 8), 0.01, &[1, 4])
            .unwrap();
        let m2 = zoo::lenet5_with(4, 2).unwrap();
        let (est, peak) = estimate_cycle(&m2, &[1, 4], 2, 8, &CostModel::raspberry_pi3()).unwrap();
        assert!((report.times.total_s() - est.total_s()).abs() < 1e-9);
        assert_eq!(report.tee_peak_bytes, peak);
        assert_eq!(report.crossings, 2 * 2 * 2); // 2 runs × 2 batches × enter+exit
        assert!(report.mean_loss.is_finite());
        assert_eq!(report.samples, 16);
    }

    #[test]
    fn oversized_protection_hits_enclave_oom() {
        // A 256 KiB enclave cannot hold L1 (≈1.1 MB at batch 32).
        let ds = SyntheticCifar100::with_classes(64, 4, 3);
        let mut m = zoo::lenet5_with(4, 2).unwrap();
        let mut t = SecureTrainer::new().with_budget(256 * 1024);
        let err = t
            .run_cycle(&mut m, &ds, &batches(1, 32), 0.01, &[0])
            .unwrap_err();
        assert!(matches!(
            err,
            GradSecError::Tee(TeeError::OutOfSecureMemory { .. })
        ));
    }

    #[test]
    fn out_of_range_layer_rejected() {
        let ds = SyntheticCifar100::with_classes(16, 2, 3);
        let mut m = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap();
        let mut t = SecureTrainer::new();
        assert!(matches!(
            t.run_cycle(&mut m, &ds, &batches(1, 4), 0.01, &[7]),
            Err(GradSecError::BadPolicy { .. })
        ));
        assert!(estimate_cycle(&m, &[7], 1, 4, &CostModel::free()).is_err());
    }

    #[test]
    fn unprotected_cycle_has_zero_enclave_cost() {
        let ds = SyntheticCifar100::with_classes(16, 2, 3);
        let mut m = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 1).unwrap();
        let mut t = SecureTrainer::new();
        let r = t.run_cycle(&mut m, &ds, &batches(2, 4), 0.05, &[]).unwrap();
        assert_eq!(r.times.kernel_s, 0.0);
        assert_eq!(r.times.alloc_s, 0.0);
        assert_eq!(r.tee_peak_bytes, 0);
        assert_eq!(r.crossings, 0);
        assert!(r.times.user_s > 0.0);
    }

    #[test]
    fn works_as_fl_local_trainer() {
        use gradsec_fl::trainer::LocalTrainer;
        let ds = SyntheticCifar100::with_classes(32, 2, 3);
        let mut m = zoo::lenet5_with(2, 2).unwrap();
        let mut t = SecureTrainer::new();
        let stats = t
            .train_cycle(&mut m, &ds, &batches(2, 8), 0.01, &[1])
            .unwrap();
        assert!(stats.tee_peak_bytes > 0);
        assert!(stats.time.kernel_s > 0.0);
        assert!(t.last_report().is_some());
    }
}
