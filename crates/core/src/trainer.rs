//! The GradSec secure trainer and its analytical twin.
//!
//! Both live in [`gradsec_fl::trainer`], beside the plain trainer, so
//! that a federation's default trainer — in this process or on a shard
//! server — trains a cycle in the enclave whenever its round protects a
//! layer. They are re-exported
//! here under the names the paper's experiments use:
//! [`SecureTrainer`] executes the protected layers in the simulated
//! enclave, charging the calibrated cost model (user/kernel/allocation
//! time) and the bounded secure memory pool; [`estimate_cycle`] charges
//! the same rules without training, the deterministic fast path behind
//! Table 6.

pub use gradsec_fl::trainer::{estimate_cycle, SecureTrainer};
