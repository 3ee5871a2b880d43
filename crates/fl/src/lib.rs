//! # gradsec-fl
//!
//! Federated-learning substrate for the GradSec reproduction: the server,
//! clients, aggregation and orchestration of Figure 2 in the paper.
//!
//! The workflow mirrors the paper's §5 exactly:
//!
//! 1. **Selection** — the server filters clients to TEE-capable devices and
//!    verifies a remote-attestation quote before admitting them to a cycle
//!    ([`selection`]).
//! 2. **Transmission** — the global model and training plan are shipped to
//!    the selected clients ([`message`]) over a pluggable [`transport`]
//!    (in-process by default; multiplexed sockets across processes).
//! 3. **Secure local training** — each client trains locally through a
//!    pluggable [`LocalTrainer`](trainer::LocalTrainer). The default
//!    trains the round's protected layers in the simulated enclave
//!    through GradSec's [`SecureTrainer`](trainer::SecureTrainer) and a
//!    cycle that protects nothing as plain SGD ([`trainer`]).
//! 4. **Upload & aggregation** — updates are FedAvg-combined
//!    ([`aggregate`]) into the next global model, which replaces the
//!    last; the server keeps no past global.
//!
//! One round driver ([`runner::RoundDriver`]) runs every cycle; the
//! clients live either in this process ([`runner::Federation`] — one
//! engine shard, or for 10⁴+ simulated clients many) or in real OS
//! processes ([`distributed::DistributedCoordinator`] driving
//! `shard-server` children over the envelope protocol) — same results
//! bit-for-bit, scaled-out wall clock. Imperfect fleets — stragglers,
//! dropouts, crashes, lossy links — are simulated by the seeded,
//! deterministic [`faults`] layer, with over-provisioned selection
//! keeping faulted rounds aggregating a full cohort. Hostile fleets —
//! update poisoners — are simulated by the equally-seeded [`adversary`]
//! layer, defended by robust aggregation ([`aggregate::Aggregator`]).
//!
//! # Example
//!
//! ```
//! use gradsec_data::SyntheticCifar100;
//! use gradsec_fl::config::TrainingPlan;
//! use gradsec_fl::runner::Federation;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), gradsec_fl::FlError> {
//! let data = Arc::new(SyntheticCifar100::with_classes(64, 4, 1));
//! let plan = TrainingPlan {
//!     rounds: 2,
//!     clients_per_round: 2,
//!     batches_per_cycle: 1,
//!     batch_size: 8,
//!     learning_rate: 0.01,
//!     seed: 7,
//! };
//! let mut fed = Federation::builder(plan)
//!     .model(|| gradsec_nn::zoo::tiny_mlp(3 * 32 * 32, 16, 4, 3).unwrap())
//!     .clients(3, data)
//!     .build()?;
//! let report = fed.run()?;
//! assert_eq!(report.rounds_completed, 2);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the epoll wrapper in `transport::poller` is the
// one sanctioned unsafe island (raw readiness syscalls behind a safe
// facade) and opts back in with a module-level `allow`. Everything else
// in the crate still fails to compile on `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod aggregate;
pub mod client;
pub mod codec;
pub mod config;
pub mod distributed;
pub mod engine;
mod error;
pub mod faults;
mod fleet;
pub mod message;
pub mod runner;
pub mod scheduler;
pub mod selection;
pub mod server;
pub mod trainer;
pub mod transport;
mod wire;

pub use adversary::AdversaryPlan;
pub use aggregate::Aggregator;
pub use codec::CodecKind;
pub use config::{MuxOptions, ShardLayout, TransportKind};
pub use distributed::DistributedCoordinator;
pub use engine::{ClientOutcome, ExecutionEngine};
pub use error::FlError;
pub use faults::{FaultPlan, LatencyModel};
pub use runner::ShardedFederation;
pub use scheduler::ProtectionScheduler;
pub use transport::{RemoteClient, ServerEndpoint};

/// Crate-wide result alias using [`FlError`].
pub type Result<T> = std::result::Result<T, FlError>;
