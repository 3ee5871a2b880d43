//! # gradsec-data
//!
//! Synthetic dataset substrate for the GradSec reproduction.
//!
//! The paper evaluates on CIFAR-100 (DRIA, MIA) and LFW with a gender
//! property (DPIA). Neither dataset ships with this reproduction, so this
//! crate generates synthetic stand-ins that preserve what the attacks
//! exploit:
//!
//! * [`SyntheticCifar100`] — 32×32×3 images with strong class-conditioned
//!   structure (frequency gratings + blobs + per-sample noise). DRIA only
//!   needs inputs that are recoverable from convolutional gradients; MIA
//!   needs a dataset a model can overfit — both hold by construction.
//! * [`SyntheticLfw`] — face-like images with identity labels and a binary
//!   `property` (the paper's "gender") that adds a distinctive mid-level
//!   component, so batches containing the property measurably bias the
//!   aggregated gradients DPIA consumes.
//! * [`SyntheticMicro`] — a featherweight low-dimensional vector dataset
//!   for fleet-scale (10⁴+ client) federation runs, where CIFAR-sized
//!   samples would drown the measurement in pixel traffic.
//!
//! Everything is generated lazily and deterministically from a seed —
//! `sample(i)` is a pure function of `(seed, i)`.
//!
//! # Example
//!
//! ```
//! use gradsec_data::{Dataset, SyntheticCifar100};
//!
//! let ds = SyntheticCifar100::new(1000, 42);
//! assert_eq!(ds.len(), 1000);
//! let s = ds.sample(7);
//! assert_eq!(s.image.dims(), &[3, 32, 32]);
//! assert!(s.label < ds.num_classes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod batch;
mod dataset;
pub mod split;
mod synth_cifar;
mod synth_lfw;
mod synth_micro;

pub use batch::Batcher;
pub use dataset::{batch_of, one_hot, Dataset, Sample};
pub use synth_cifar::SyntheticCifar100;
pub use synth_lfw::SyntheticLfw;
pub use synth_micro::SyntheticMicro;
