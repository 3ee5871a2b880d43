//! A full secure federated-learning deployment: a mixed device fleet is
//! screened by remote attestation, TEE-capable clients train with the
//! GradSec secure trainer, and the server aggregates across rounds.
//!
//! ```text
//! cargo run --release --example secure_fl_round
//! ```

use std::sync::Arc;

use gradsec::core::ProtectionPolicy;
use gradsec::data::SyntheticCifar100;
use gradsec::fl::client::DeviceProfile;
use gradsec::fl::config::TrainingPlan;
use gradsec::fl::runner::Federation;
use gradsec::fl::ExecutionEngine;
use gradsec::nn::zoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = Arc::new(SyntheticCifar100::with_classes(480, 8, 3));
    let plan = TrainingPlan {
        rounds: 5,
        clients_per_round: 3,
        batches_per_cycle: 4,
        batch_size: 16,
        learning_rate: 0.05,
        seed: 11,
    };
    // A realistic fleet: TrustZone phones, a legacy device without a TEE,
    // and a compromised device running modified TA code.
    let devices = vec![
        DeviceProfile::trustzone(0),
        DeviceProfile::trustzone(1),
        DeviceProfile::legacy(2),
        DeviceProfile::compromised(3),
        DeviceProfile::trustzone(4),
    ];
    // Server-side protection schedule: static {L2, L5}. Each round's
    // sheltered layers train in the enclave: the default trainer picks
    // the secure trainer whenever a round protects a layer.
    let policy = ProtectionPolicy::static_layers(&[1, 4])?;
    let mut fed = Federation::builder(plan)
        .model(|| zoo::lenet5_with(8, 21).expect("LeNet-5 builds"))
        .devices(devices, data)
        .scheduler(policy)
        .engine(ExecutionEngine::new(4))
        .build()?;

    println!("Running {} federated rounds…", fed.server().plan().rounds);
    let report = fed.run()?;
    for r in &report.rounds {
        println!(
            "round {}: clients {:?} protected {:?} mean loss {:.4}",
            r.round,
            r.participants,
            r.protected_layers.iter().map(|l| l + 1).collect::<Vec<_>>(),
            r.mean_loss
        );
    }
    println!("\nNote: clients 2 (no TEE) and 3 (failed attestation) never participate —");
    println!("the selection gate of the paper's Figure 2-(1).");
    let last = report.rounds.last().expect("rounds ran");
    let entry = last
        .ledger
        .entries()
        .first()
        .expect("participants recorded in the ledger");
    println!(
        "\nClient {} last cycle: {:.3}s simulated ({:.3}s user + {:.3}s kernel + {:.3}s alloc), TEE peak {:.3} MB",
        entry.client_id,
        entry.time.total_s(),
        entry.time.user_s,
        entry.time.kernel_s,
        entry.time.alloc_s,
        entry.tee_peak_bytes as f64 / (1024.0 * 1024.0),
    );
    fed.shutdown()?;
    Ok(())
}
