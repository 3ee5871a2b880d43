//! Quickstart: shelter two non-contiguous LeNet-5 layers in the simulated
//! enclave and train one FL cycle.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gradsec::core::memory_model::layers_tee_mb;
use gradsec::core::policy::ProtectionPolicy;
use gradsec::core::trainer::SecureTrainer;
use gradsec::data::SyntheticCifar100;
use gradsec::nn::zoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's flagship configuration: protect L2 (against DRIA) and
    // L5 (against MIA) — a non-contiguous pair DarkneTZ cannot express.
    let policy = ProtectionPolicy::static_layers(&[1, 4])?;
    let mut model = zoo::lenet5(42)?;
    policy.validate(model.num_layers())?;
    let protected = policy.protected_for_round(0, model.num_layers());
    println!(
        "Protecting layers {:?} (paper notation: L2 and L5)",
        protected.iter().map(|l| l + 1).collect::<Vec<_>>()
    );
    println!(
        "Estimated TEE memory at batch 32: {:.3} MB",
        layers_tee_mb(&model, &protected, 32)
    );

    // One training cycle with the protected layers inside the enclave.
    let dataset = SyntheticCifar100::new(320, 7);
    let batches: Vec<Vec<usize>> = (0..10).map(|b| (b * 32..(b + 1) * 32).collect()).collect();
    let trainer = SecureTrainer::new();
    let report = trainer.run_cycle(&mut model, &dataset, &batches, 0.05, &protected)?;

    println!("\nOne FL cycle (batch 32, 10 batches, Pi-3B+ cost model):");
    let t = report.time;
    println!(
        "  time      : {:.3}s + {:.3}s + {:.3}s",
        t.user_s, t.kernel_s, t.alloc_s
    );
    println!(
        "  TEE peak  : {:.3} MB",
        report.tee_peak_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("  crossings : {}", report.crossings);
    println!("  mean loss : {:.4}", report.mean_loss);

    // The unprotected baseline for comparison.
    let mut baseline_model = zoo::lenet5(42)?;
    let baseline = trainer.run_cycle(&mut baseline_model, &dataset, &batches, 0.05, &[])?;
    println!(
        "\nOverhead vs unprotected baseline: {:.0}% (paper reports 235% for L2+L5)",
        t.overhead_vs(&baseline.time)
    );
    Ok(())
}
