//! FL clients and their devices.

use std::sync::Arc;

use gradsec_data::{Batcher, Dataset};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::Sequential;
use gradsec_tee::attestation::{sign_quote, Challenge, Measurement};
use gradsec_tee::ta::Uuid;
use gradsec_tensor::Tensor;

use crate::adversary::{Adversary, Persona};
use crate::message::{AttestationResponse, ModelDownload, UpdateUpload};
use crate::trainer::{CycleStats, LocalTrainer};
use crate::Result;

/// Hardware profile of a client device.
///
/// The paper's selection step (Figure 2-➊) discards devices without a TEE;
/// this profile is what that check inspects.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Whether the device has TrustZone at all.
    pub has_tee: bool,
    /// Secure-memory carveout in bytes (3–5 MB typical, paper §3.3).
    pub tee_budget: usize,
    /// Device attestation key (provisioned at manufacture; shared with the
    /// verifier in this symmetric simulation).
    ///
    /// The FL server verifies quotes against its provisioning registry —
    /// [`DeviceProfile::provisioned_key`] of the id the client reports in
    /// its transport handshake — so a device whose key differs from
    /// `provisioned_key(id)` fails screening, exactly as an unprovisioned
    /// device would in the field.
    pub attestation_key: Vec<u8>,
    /// The GradSec TA installed on this device, if any.
    pub ta: Option<InstalledTa>,
}

/// A TA installed on a device.
#[derive(Debug, Clone)]
pub struct InstalledTa {
    /// TA identity.
    pub uuid: Uuid,
    /// The TA code bytes (what attestation measures).
    pub code: Vec<u8>,
}

impl DeviceProfile {
    /// The attestation key provisioned for a device at manufacture. In
    /// this symmetric simulation the verifier (FL server) derives the same
    /// key from the device id — the registry a remote client is checked
    /// against after its transport handshake.
    pub fn provisioned_key(device_id: u64) -> Vec<u8> {
        format!("device-key-{device_id}").into_bytes()
    }

    /// A well-provisioned TrustZone device running the genuine GradSec TA.
    pub fn trustzone(device_id: u64) -> Self {
        DeviceProfile {
            has_tee: true,
            tee_budget: 4 * 1024 * 1024,
            attestation_key: Self::provisioned_key(device_id),
            ta: Some(InstalledTa {
                uuid: Uuid::from_name("gradsec-ta"),
                code: b"gradsec-ta-code-v1".to_vec(),
            }),
        }
    }

    /// A legacy device with no TEE.
    pub fn legacy(device_id: u64) -> Self {
        DeviceProfile {
            has_tee: false,
            tee_budget: 0,
            attestation_key: Self::provisioned_key(device_id),
            ta: None,
        }
    }

    /// A compromised device running modified TA code — its measurement
    /// will not match the server's whitelist.
    pub fn compromised(device_id: u64) -> Self {
        DeviceProfile {
            has_tee: true,
            tee_budget: 4 * 1024 * 1024,
            attestation_key: Self::provisioned_key(device_id),
            ta: Some(InstalledTa {
                uuid: Uuid::from_name("gradsec-ta"),
                code: b"gradsec-ta-code-BACKDOORED".to_vec(),
            }),
        }
    }
}

/// One federated-learning client: a device, a local data shard and a
/// model replica.
///
/// The replica is the client's only copy of the model. Between cycles
/// nothing reads what training left in it — [`run_cycle`](Self::run_cycle)
/// starts by overwriting it with the download — so a delta-topk session
/// parks its reference view there (see
/// [`ClientHandler`](crate::transport::ClientHandler)) instead of keeping
/// a second dense copy.
pub struct FlClient {
    id: u64,
    device: DeviceProfile,
    dataset: Arc<dyn Dataset>,
    shard: Vec<usize>,
    model: Sequential,
    trainer: Box<dyn LocalTrainer>,
    last_stats: Option<CycleStats>,
    adversary: Option<Adversary>,
}

impl std::fmt::Debug for FlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlClient")
            .field("id", &self.id)
            .field("has_tee", &self.device.has_tee)
            .field("shard_len", &self.shard.len())
            .finish()
    }
}

impl FlClient {
    /// Creates a client.
    pub fn new(
        id: u64,
        device: DeviceProfile,
        dataset: Arc<dyn Dataset>,
        shard: Vec<usize>,
        model: Sequential,
        trainer: Box<dyn LocalTrainer>,
    ) -> Self {
        FlClient {
            id,
            device,
            dataset,
            shard,
            model,
            trainer,
            last_stats: None,
            adversary: None,
        }
    }

    /// Client id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The device profile.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The local shard size.
    pub fn shard_len(&self) -> usize {
        self.shard.len()
    }

    /// Replaces the local trainer (e.g. swap the plain trainer for the
    /// GradSec secure trainer).
    pub fn set_trainer(&mut self, trainer: Box<dyn LocalTrainer>) {
        self.trainer = trainer;
    }

    /// Statistics of the most recent cycle.
    pub fn last_stats(&self) -> Option<&CycleStats> {
        self.last_stats.as_ref()
    }

    /// Assigns this client an adversarial persona (see
    /// [`crate::adversary`]). All persona behavior is confined to
    /// [`run_cycle`](Self::run_cycle) — attestation and the transport
    /// exchange stay honest, so screening and bit-identity are
    /// unaffected by *who* the client is, only by what it uploads.
    pub fn set_adversary(&mut self, adversary: Adversary) {
        self.adversary = Some(adversary);
    }

    /// This client's persona, if hostile.
    pub fn persona(&self) -> Option<Persona> {
        self.adversary.as_ref().map(|a| a.persona)
    }

    /// The replica's parameter tensors, flattened `[w0, b0, w1, b1, …]`
    /// and borrowed in place: the reference a delta download is decoded
    /// against.
    pub(crate) fn replica_tensors(&self) -> Vec<&Tensor> {
        let params = self.model.iter().map(|layer| layer.weights());
        params.flat_map(|(w, b)| [w, b]).collect()
    }

    /// Trades parameter tensors with `weights`, buffers and all: the
    /// replica ends up holding `weights`, nothing is copied or allocated.
    ///
    /// # Errors
    ///
    /// An architecture mismatch, before anything has moved.
    pub(crate) fn swap_weights(&mut self, weights: &mut ModelWeights) -> Result<()> {
        Ok(self.model.swap_weights(weights)?)
    }

    /// Responds to an attestation challenge. Devices without a TEE (or
    /// without the TA) answer with no quote and are filtered out by the
    /// server.
    pub fn attest(&self, challenge: &Challenge) -> AttestationResponse {
        let quote = match (&self.device.has_tee, &self.device.ta) {
            (true, Some(ta)) => {
                let m = Measurement(gradsec_tee::crypto::sha256::sha256(&ta.code));
                Some(sign_quote(
                    &self.device.attestation_key,
                    ta.uuid,
                    m,
                    challenge,
                ))
            }
            _ => None,
        };
        AttestationResponse { quote }
    }

    /// Runs one local training cycle from a model download and returns the
    /// update upload (Figure 2-➌/➍).
    ///
    /// # Errors
    ///
    /// Propagates model/TEE failures.
    pub fn run_cycle(&mut self, download: &ModelDownload) -> Result<UpdateUpload> {
        if self.persona() == Some(Persona::FreeRider) {
            return self.free_ride(download);
        }
        self.model.set_weights(&download.weights)?;
        let batcher = Batcher::new(
            self.shard.len(),
            download.plan.batch_size,
            download.plan.seed ^ self.id ^ download.round.wrapping_mul(0x9E37),
        );
        // Map shard-relative batch indices to dataset indices.
        let batches: Vec<Vec<usize>> = batcher
            .epoch_batches(download.round, download.plan.batches_per_cycle)
            .into_iter()
            .map(|b| b.into_iter().map(|i| self.shard[i]).collect())
            .collect();
        let stats = self.trainer.train_cycle(
            &mut self.model,
            self.dataset.as_ref(),
            &batches,
            download.plan.learning_rate,
            &download.protected_layers,
        )?;
        self.last_stats = Some(stats);
        self.model.clear_caches();
        // The gradients go with the caches: the next backward pass
        // re-creates them, and until then they are a model-sized buffer
        // held by every idle client of the fleet.
        self.model.zero_grads();
        let weights = match &self.adversary {
            Some(adv) => match adv.persona {
                Persona::Poisoner => adv.plan.poisoned(
                    self.id,
                    download.round,
                    &download.weights,
                    &self.model.weights(),
                )?,
                Persona::Scaler => adv.plan.scaled(&download.weights, &self.model.weights())?,
                Persona::Colluder => {
                    if let Some(log) = &adv.log {
                        log.observe(self.id, download.round, &download.weights);
                    }
                    self.model.weights()
                }
                Persona::FreeRider => unreachable!("free-riders return before training"),
            },
            None => self.model.weights(),
        };
        Ok(UpdateUpload {
            client_id: self.id,
            round: download.round,
            weights,
            num_samples: stats.samples.max(1),
            train_loss: stats.mean_loss,
            cost: stats.cost(self.id),
        })
    }

    /// The free-rider cycle: no training at all — echo the global
    /// weights back while claiming a full cycle's samples and zero
    /// compute cost. Deterministic by construction (no RNG, no batches).
    fn free_ride(&mut self, download: &ModelDownload) -> Result<UpdateUpload> {
        let claimed = (download.plan.batch_size * download.plan.batches_per_cycle).max(1);
        self.last_stats = Some(CycleStats::default());
        Ok(UpdateUpload {
            client_id: self.id,
            round: download.round,
            weights: download.weights.clone(),
            num_samples: claimed,
            train_loss: 0.0,
            cost: CycleStats::default().cost(self.id),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainingPlan;
    use crate::trainer::PlainSgdTrainer;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;
    use gradsec_tee::attestation::verify_quote;

    fn client(device: DeviceProfile) -> FlClient {
        let ds = Arc::new(SyntheticCifar100::with_classes(32, 2, 3));
        let model = zoo::tiny_mlp(3 * 32 * 32, 8, 2, 1).unwrap();
        FlClient::new(
            7,
            device,
            ds,
            (0..32).collect(),
            model,
            Box::new(PlainSgdTrainer),
        )
    }

    #[test]
    fn trustzone_device_attests_validly() {
        let c = client(DeviceProfile::trustzone(7));
        let ch = Challenge::new([1u8; 16]);
        let resp = c.attest(&ch);
        let quote = resp.quote.expect("tee device produces a quote");
        let expected = Measurement(gradsec_tee::crypto::sha256::sha256(b"gradsec-ta-code-v1"));
        verify_quote(b"device-key-7", &quote, expected, &ch).unwrap();
    }

    #[test]
    fn legacy_device_has_no_quote() {
        let c = client(DeviceProfile::legacy(7));
        assert!(c.attest(&Challenge::new([0u8; 16])).quote.is_none());
    }

    #[test]
    fn compromised_device_fails_verification() {
        let c = client(DeviceProfile::compromised(7));
        let ch = Challenge::new([1u8; 16]);
        let quote = c.attest(&ch).quote.unwrap();
        let expected = Measurement(gradsec_tee::crypto::sha256::sha256(b"gradsec-ta-code-v1"));
        assert!(verify_quote(b"device-key-7", &quote, expected, &ch).is_err());
    }

    #[test]
    fn personas_shape_the_upload() {
        use crate::adversary::{Adversary, AdversaryPlan, CollusionLog};

        let plan = TrainingPlan {
            rounds: 1,
            clients_per_round: 1,
            batches_per_cycle: 2,
            batch_size: 8,
            learning_rate: 0.05,
            seed: 11,
        };
        let scenario = Arc::new(AdversaryPlan::seeded(5).poisoners(1.0));
        let download = {
            let c = client(DeviceProfile::trustzone(7));
            ModelDownload {
                round: 0,
                weights: c.model.weights(),
                plan,
                protected_layers: vec![],
            }
        };

        let honest = client(DeviceProfile::trustzone(7))
            .run_cycle(&download)
            .unwrap();

        let mut poisoner = client(DeviceProfile::trustzone(7));
        poisoner.set_adversary(Adversary {
            persona: Persona::Poisoner,
            plan: scenario.clone(),
            log: None,
        });
        let poisoned = poisoner.run_cycle(&download).unwrap();
        assert_ne!(poisoned.weights, honest.weights);
        assert_eq!(poisoned.num_samples, honest.num_samples);

        let mut rider = client(DeviceProfile::trustzone(7));
        rider.set_adversary(Adversary {
            persona: Persona::FreeRider,
            plan: scenario.clone(),
            log: None,
        });
        let echoed = rider.run_cycle(&download).unwrap();
        assert_eq!(echoed.weights, download.weights);
        assert_eq!(echoed.num_samples, 16, "claims a full cycle's samples");

        let log = Arc::new(CollusionLog::default());
        let mut colluder = client(DeviceProfile::trustzone(7));
        colluder.set_adversary(Adversary {
            persona: Persona::Colluder,
            plan: scenario,
            log: Some(log.clone()),
        });
        let observed = colluder.run_cycle(&download).unwrap();
        assert_eq!(observed.weights, honest.weights, "colluders train honestly");
        assert_eq!(log.colluders(), vec![7]);
        assert_eq!(log.rounds_observed(), 1);
    }

    #[test]
    fn run_cycle_trains_and_uploads() {
        let mut c = client(DeviceProfile::trustzone(7));
        let plan = TrainingPlan {
            rounds: 1,
            clients_per_round: 1,
            batches_per_cycle: 2,
            batch_size: 8,
            learning_rate: 0.05,
            seed: 11,
        };
        let global = c.model.weights();
        let download = ModelDownload {
            round: 0,
            weights: global.clone(),
            plan,
            protected_layers: vec![],
        };
        let up = c.run_cycle(&download).unwrap();
        assert_eq!(up.client_id, 7);
        assert_eq!(up.num_samples, 16);
        assert_ne!(up.weights, global, "training must move the weights");
        assert!(c.last_stats().is_some());
        assert!(
            c.model.gradient_snapshot().is_none(),
            "an idle client holds no gradient buffers"
        );
    }
}
