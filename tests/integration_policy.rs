//! Policy-level integration: GradSec vs DarkneTZ semantics and the
//! headline Table 1 arithmetic.

use gradsec::core::memory_model::{layers_tee_mb, tcb_gain_percent};
use gradsec::core::policy::DarknetzPolicy;
use gradsec::core::trainer::estimate_cycle;
use gradsec::core::window::MovingWindow;
use gradsec::core::{GradSecError, ProtectionPolicy};
use gradsec::nn::zoo;
use gradsec::tee::cost::{CostModel, TimeBreakdown};

#[test]
fn darknetz_cannot_express_the_gradsec_config() {
    // The crux of the paper: {L2, L5} is legal for GradSec, illegal for
    // DarkneTZ, whose best answer is the full hull L2..L5.
    assert!(ProtectionPolicy::static_layers(&[1, 4]).is_ok());
    assert!(matches!(
        DarknetzPolicy::new(&[1, 4]),
        Err(GradSecError::NonContiguousSlice { .. })
    ));
    assert_eq!(
        DarknetzPolicy::covering(&[1, 4]).unwrap().layers(),
        vec![1, 2, 3, 4]
    );
}

#[test]
fn table1_gains_hold_end_to_end() {
    let model = zoo::lenet5(1).unwrap();
    let cost = CostModel::raspberry_pi3();
    let hull = DarknetzPolicy::covering(&[1, 4]).unwrap().layers();
    let (gs, _) = estimate_cycle(&model, &[1, 4], 10, 32, &cost).unwrap();
    let (dz, _) = estimate_cycle(&model, &hull, 10, 32, &cost).unwrap();
    // Static: paper −8.3% time, −30% TCB.
    let time_gain = (1.0 - gs.total_s() / dz.total_s()) * 100.0;
    assert!(
        (2.0..20.0).contains(&time_gain),
        "static time gain {time_gain:.1}%"
    );
    let tcb_gain = tcb_gain_percent(&model, &[1, 4], &hull, 32);
    assert!(
        (20.0..40.0).contains(&tcb_gain),
        "static TCB gain {tcb_gain:.1}%"
    );
    // Dynamic: paper −56.7% time, −8% TCB.
    let v_mw = [0.2, 0.1, 0.6, 0.1];
    let window = MovingWindow::new(2, 5, v_mw.to_vec(), 0).unwrap();
    let mut weighted = Vec::new();
    let mut worst: Vec<usize> = vec![];
    let mut worst_mb = 0.0;
    for (pos, &weight) in v_mw.iter().enumerate().take(window.positions()) {
        let layers = window.layers_at(pos);
        let (t, _) = estimate_cycle(&model, &layers, 10, 32, &cost).unwrap();
        weighted.push((t, weight));
        let mb = layers_tee_mb(&model, &layers, 32);
        if mb > worst_mb {
            worst_mb = mb;
            worst = layers;
        }
    }
    let avg = TimeBreakdown::weighted_average(&weighted);
    let dyn_time_gain = (1.0 - avg.total_s() / dz.total_s()) * 100.0;
    assert!(
        (40.0..70.0).contains(&dyn_time_gain),
        "dynamic time gain {dyn_time_gain:.1}%"
    );
    let dyn_tcb_gain = tcb_gain_percent(&model, &worst, &hull, 32);
    assert!(
        (2.0..15.0).contains(&dyn_tcb_gain),
        "dynamic TCB gain {dyn_tcb_gain:.1}%"
    );
}

#[test]
fn darknetz_baseline_runs_through_the_same_trainer() {
    use gradsec::core::trainer::SecureTrainer;
    use gradsec::data::SyntheticCifar100;
    let ds = SyntheticCifar100::with_classes(32, 4, 3);
    let hull = DarknetzPolicy::covering(&[1, 4]).unwrap();
    let mut model = zoo::lenet5_with(4, 7).unwrap();
    let batches: Vec<Vec<usize>> = vec![(0..8).collect()];
    let sheltered = hull.to_policy().protected_for_round(0, 5);
    assert_eq!(sheltered, vec![1, 2, 3, 4]);
    let stats = SecureTrainer::new()
        .run_cycle(&mut model, &ds, &batches, 0.05, &sheltered)
        .unwrap();
    // Four contiguous layers: one run, 2 crossings per batch.
    assert_eq!(stats.crossings, 2);
}

#[test]
fn whole_model_protection_may_exceed_small_enclaves() {
    // The motivation for selective protection (§3.3): small carveouts
    // cannot hold everything.
    let model = zoo::lenet5(1).unwrap();
    let all: Vec<usize> = (0..5).collect();
    let mb = layers_tee_mb(&model, &all, 32);
    assert!(mb > 3.0, "full LeNet-5 at batch 32 is {mb:.2} MB");
    // AlexNet is far beyond any TrustZone carveout.
    let alex = zoo::alexnet(1).unwrap();
    let all8: Vec<usize> = (0..8).collect();
    assert!(layers_tee_mb(&alex, &all8, 32) > 100.0);
}
