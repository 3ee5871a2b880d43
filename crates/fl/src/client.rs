//! FL clients, their devices, and the models a fleet of them trains.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use gradsec_data::{Batcher, Dataset};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::Sequential;
use gradsec_tee::attestation::{sign_quote, Challenge, Measurement};
use gradsec_tee::ta::Uuid;

use crate::adversary::{Adversary, Persona};
use crate::codec::{flatten, identical, rebuild_all, EncodedWeights};
use crate::config::TrainingPlan;
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

/// The models a fleet's clients train, lent per cycle, and the delta
/// views they hold between cycles, shared per lockstep group.
///
/// Between cycles nothing reads what training left in a model — a cycle
/// starts by overwriting it with the download — so an idle client needs
/// none. A cycle borrows an idle replica ([`lend`](Self::lend)),
/// replicating the prototype only when none is idle, and hands it back
/// reset when it ends: the store holds as many replicas as cycles ever
/// overlapped, not one per client. A cycle that panics never hands its
/// replica back; it is dropped, not lent out dirty.
///
/// A delta-topk client's reference view is the decoded download it last
/// trained on. Decoding is a pure function of `(base view, payload)`, so
/// clients that hold the same base allocation and receive an identical
/// payload — a lockstep group — are handed one allocation
/// ([`view`](Self::view)), the client-side counterpart of the server's
/// per-group view.
pub(crate) struct ClientModels {
    replicas: Mutex<Replicas>,
    /// Every view handed out and possibly still held, with what it was
    /// decoded from.
    views: Mutex<Vec<Decoded>>,
    /// Replicas built so far.
    #[cfg(test)]
    built: std::sync::atomic::AtomicUsize,
    /// The view each client holds, as its handler last recorded it.
    #[cfg(test)]
    held: Mutex<std::collections::BTreeMap<u64, Weak<ModelWeights>>>,
}

struct Replicas {
    prototype: Sequential,
    idle: Vec<Sequential>,
}

/// A view and the `(base, payload)` it was decoded from. The base is held
/// weakly, which keeps its address from being reused while it is a key.
struct Decoded {
    base: Option<Weak<ModelWeights>>,
    payload: EncodedWeights,
    view: Weak<ModelWeights>,
}

impl Decoded {
    fn is(&self, base: Option<&Arc<ModelWeights>>, payload: &EncodedWeights) -> bool {
        let same_base = match (&self.base, base) {
            (None, None) => true,
            (Some(held), Some(base)) => std::ptr::eq(held.as_ptr(), Arc::as_ptr(base)),
            _ => false,
        };
        same_base && identical(&self.payload, payload)
    }

    /// Whether the view is still held and its base can still be named.
    fn is_live(&self) -> bool {
        self.view.strong_count() > 0 && self.base.as_ref().is_none_or(|b| b.strong_count() > 0)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Nothing panics while holding these locks; a poisoned one still
    // holds consistent state.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ClientModels {
    /// A store lending replicas of `prototype`.
    pub(crate) fn new(prototype: Sequential) -> Arc<Self> {
        Arc::new(ClientModels {
            replicas: Mutex::new(Replicas {
                prototype,
                idle: Vec::new(),
            }),
            views: Mutex::default(),
            #[cfg(test)]
            built: Default::default(),
            #[cfg(test)]
            held: Mutex::default(),
        })
    }

    /// Borrows an idle replica for one cycle, replicating the prototype
    /// when none is idle. Its weights are whatever the last cycle left.
    fn lend(&self) -> Lent<'_> {
        let mut replicas = lock(&self.replicas);
        let model = replicas.idle.pop().unwrap_or_else(|| {
            #[cfg(test)]
            self.built.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            replicas.prototype.replicate()
        });
        Lent {
            store: self,
            model: Some(model),
        }
    }

    /// The model `payload` decodes to against `base`: the live view
    /// already decoded from the same base allocation and an identical
    /// payload, or a new one. `payload` must have passed
    /// [`check_against`](crate::codec::check_against) against `base`.
    pub(crate) fn view(
        &self,
        base: Option<&Arc<ModelWeights>>,
        payload: EncodedWeights,
    ) -> Arc<ModelWeights> {
        let live = |views: &[Decoded]| {
            let found = views.iter().find(|d| d.is(base, &payload));
            found.and_then(|d| d.view.upgrade())
        };
        if let Some(view) = live(&lock(&self.views)) {
            return view;
        }
        let reference = base.map(|b| flatten(b));
        let decoded = Arc::new(rebuild_all(&payload, reference.as_deref()));
        let mut views = lock(&self.views);
        // Another thread may have decoded the same view meanwhile: the
        // first one stays, so the group still shares one allocation.
        if let Some(view) = live(&views) {
            return view;
        }
        views.retain(Decoded::is_live);
        views.push(Decoded {
            base: base.map(Arc::downgrade),
            payload,
            view: Arc::downgrade(&decoded),
        });
        decoded
    }

    /// How many replicas this store has built.
    #[cfg(test)]
    pub(crate) fn replicas_built(&self) -> usize {
        self.built.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The replicas idle right now: whether each is clean (no gradients).
    #[cfg(test)]
    pub(crate) fn idle_clean(&self) -> Vec<bool> {
        let replicas = lock(&self.replicas);
        let clean = |m: &Sequential| m.gradient_snapshot().is_none();
        replicas.idle.iter().map(clean).collect()
    }

    /// Records the view `client` holds now.
    #[cfg(test)]
    pub(crate) fn note_view(&self, client: u64, view: Option<&Arc<ModelWeights>>) {
        let mut held = lock(&self.held);
        match view {
            Some(view) => held.insert(client, Arc::downgrade(view)),
            None => held.remove(&client),
        };
    }

    /// The view every client holds, by client id.
    #[cfg(test)]
    pub(crate) fn views_held(&self) -> std::collections::BTreeMap<u64, Arc<ModelWeights>> {
        let held = lock(&self.held);
        let live = held.iter().filter_map(|(&id, v)| Some((id, v.upgrade()?)));
        live.collect()
    }
}

/// A replica borrowed for one cycle. Dropping it hands it back reset —
/// unless the cycle is unwinding from a panic, which discards it.
struct Lent<'a> {
    store: &'a ClientModels,
    model: Option<Sequential>,
}

impl Deref for Lent<'_> {
    type Target = Sequential;

    fn deref(&self) -> &Sequential {
        self.model.as_ref().expect("lent until dropped")
    }
}

impl DerefMut for Lent<'_> {
    fn deref_mut(&mut self) -> &mut Sequential {
        self.model.as_mut().expect("lent until dropped")
    }
}

impl Lent<'_> {
    /// Drops the caches and gradients: model-sized buffers that the next
    /// backward pass re-creates, and that an idle replica does not hold.
    fn reset(&mut self) {
        self.clear_caches();
        self.zero_grads();
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        self.reset();
        if let Some(model) = self.model.take() {
            lock(&self.store.replicas).idle.push(model);
        }
    }
}

/// One federated-learning client: a device, a local data shard and a
/// trainer. It holds no model: each cycle borrows one from its fleet's
/// `ClientModels` (a client built on its own gets a store of its own),
/// and a delta-topk session's reference view is held by its
/// [`ClientHandler`](crate::transport::ClientHandler).
pub struct FlClient {
    id: u64,
    device: DeviceProfile,
    dataset: Arc<dyn Dataset>,
    shard: Vec<usize>,
    models: Arc<ClientModels>,
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
    /// Creates a client that trains replicas of `model`.
    pub fn new(
        id: u64,
        device: DeviceProfile,
        dataset: Arc<dyn Dataset>,
        shard: Vec<usize>,
        model: Sequential,
        trainer: Box<dyn LocalTrainer>,
    ) -> Self {
        let models = ClientModels::new(model);
        FlClient::hosted(id, device, dataset, shard, models, trainer)
    }

    /// Creates a client of a fleet whose clients borrow from `models`.
    pub(crate) fn hosted(
        id: u64,
        device: DeviceProfile,
        dataset: Arc<dyn Dataset>,
        shard: Vec<usize>,
        models: Arc<ClientModels>,
        trainer: Box<dyn LocalTrainer>,
    ) -> Self {
        FlClient {
            id,
            device,
            dataset,
            shard,
            models,
            trainer,
            last_stats: None,
            adversary: None,
        }
    }

    /// The store this client's cycles borrow from.
    pub(crate) fn models(&self) -> &ClientModels {
        &self.models
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
        let ModelDownload {
            round,
            weights,
            plan,
            protected_layers,
        } = download;
        self.cycle(*round, weights, plan, protected_layers)
    }

    /// [`run_cycle`](Self::run_cycle) from the download's parts, its
    /// weights borrowed — a view a lockstep group shares is trained from
    /// where it lies. The cycle borrows a replica from the fleet's store,
    /// loads `global` into it with one `set_weights`, trains, builds the
    /// upload and hands the replica back reset.
    ///
    /// # Errors
    ///
    /// Propagates model/TEE failures.
    pub(crate) fn cycle(
        &mut self,
        round: u64,
        global: &ModelWeights,
        plan: &TrainingPlan,
        protected_layers: &[usize],
    ) -> Result<UpdateUpload> {
        if self.persona() == Some(Persona::FreeRider) {
            return Ok(self.free_ride(round, global, plan));
        }
        let mut model = self.models.lend();
        model.set_weights(global)?;
        let batcher = Batcher::new(
            self.shard.len(),
            plan.batch_size,
            plan.seed ^ self.id ^ round.wrapping_mul(0x9E37),
        );
        // Map shard-relative batch indices to dataset indices.
        let batches: Vec<Vec<usize>> = batcher
            .epoch_batches(round, plan.batches_per_cycle)
            .into_iter()
            .map(|b| b.into_iter().map(|i| self.shard[i]).collect())
            .collect();
        let stats = self.trainer.train_cycle(
            &mut model,
            self.dataset.as_ref(),
            &batches,
            plan.learning_rate,
            protected_layers,
        )?;
        self.last_stats = Some(stats);
        // Reset before the upload is built, as a client always has: heap
        // shape is a cost here, and the other order measured 13–26 %
        // slower `lenet_protected` set-ups.
        model.reset();
        let trained = model.weights();
        drop(model);
        let weights = match &self.adversary {
            Some(adv) => match adv.persona {
                Persona::Poisoner => adv.plan.poisoned(self.id, round, global, &trained)?,
                Persona::Scaler => adv.plan.scaled(global, &trained)?,
                Persona::Colluder => {
                    if let Some(log) = &adv.log {
                        log.observe(self.id, round, global);
                    }
                    trained
                }
                Persona::FreeRider => unreachable!("free-riders return before training"),
            },
            None => trained,
        };
        Ok(UpdateUpload {
            client_id: self.id,
            round,
            weights,
            num_samples: stats.samples.max(1),
            train_loss: stats.mean_loss,
            cost: stats.cost(self.id),
        })
    }

    /// The free-rider cycle: no training at all — echo the global
    /// weights back while claiming a full cycle's samples and zero
    /// compute cost. Deterministic by construction (no RNG, no batches).
    fn free_ride(
        &mut self,
        round: u64,
        global: &ModelWeights,
        plan: &TrainingPlan,
    ) -> UpdateUpload {
        let claimed = (plan.batch_size * plan.batches_per_cycle).max(1);
        self.last_stats = Some(CycleStats::default());
        UpdateUpload {
            client_id: self.id,
            round,
            weights: global.clone(),
            num_samples: claimed,
            train_loss: 0.0,
            cost: CycleStats::default().cost(self.id),
        }
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

    fn model() -> Sequential {
        zoo::tiny_mlp(3 * 32 * 32, 8, 2, 1).unwrap()
    }

    fn client(device: DeviceProfile) -> FlClient {
        let ds = Arc::new(SyntheticCifar100::with_classes(32, 2, 3));
        FlClient::new(
            7,
            device,
            ds,
            (0..32).collect(),
            model(),
            Box::new(PlainSgdTrainer),
        )
    }

    fn plan() -> TrainingPlan {
        TrainingPlan {
            rounds: 1,
            clients_per_round: 1,
            batches_per_cycle: 2,
            batch_size: 8,
            learning_rate: 0.05,
            seed: 11,
        }
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

        let scenario = Arc::new(AdversaryPlan::seeded(5).poisoners(1.0));
        let download = ModelDownload {
            round: 0,
            weights: model().weights(),
            plan: plan(),
            protected_layers: vec![],
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
        let global = model().weights();
        let download = ModelDownload {
            round: 0,
            weights: global.clone(),
            plan: plan(),
            protected_layers: vec![],
        };
        let up = c.run_cycle(&download).unwrap();
        assert_eq!(up.client_id, 7);
        assert_eq!(up.num_samples, 16);
        assert_ne!(up.weights, global, "training must move the weights");
        assert!(c.last_stats().is_some());
        assert_eq!(
            c.models().idle_clean(),
            [true],
            "the replica went back without gradient buffers"
        );
    }

    #[test]
    fn a_replica_whose_cycle_failed_or_panicked_is_never_lent_out_dirty() {
        use crate::trainer::tests::{Flaky, Mishap};
        use crate::transport::tests::bits;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let ds = Arc::new(SyntheticCifar100::with_classes(32, 2, 3));
        let member = |id: u64, models: &Arc<ClientModels>, trainer: Box<dyn LocalTrainer>| {
            let device = DeviceProfile::trustzone(id);
            let shard = (0..32).collect();
            FlClient::hosted(id, device, ds.clone(), shard, models.clone(), trainer)
        };
        let download = ModelDownload {
            round: 3,
            weights: zoo::tiny_mlp(3 * 32 * 32, 8, 2, 5).unwrap().weights(),
            plan: plan(),
            protected_layers: vec![],
        };
        let fresh = member(8, &ClientModels::new(model()), Box::new(PlainSgdTrainer))
            .run_cycle(&download)
            .unwrap();
        for how in [Mishap::Fails, Mishap::Panics] {
            let models = ClientModels::new(model());
            let mut flaky = member(7, &models, Flaky::boxed(0, how));
            let went_wrong = catch_unwind(AssertUnwindSafe(|| flaky.run_cycle(&download)));
            // An error hands the replica back reset; a panic drops it.
            let (failed, idle) = match how {
                Mishap::Fails => (matches!(went_wrong, Ok(Err(_))), vec![true]),
                Mishap::Panics => (went_wrong.is_err(), vec![]),
            };
            assert!(failed);
            assert_eq!(models.idle_clean(), idle);
            let next = member(8, &models, Box::new(PlainSgdTrainer))
                .run_cycle(&download)
                .unwrap();
            assert_eq!(bits(flatten(&next.weights)), bits(flatten(&fresh.weights)));
            assert_eq!(next.train_loss.to_bits(), fresh.train_loss.to_bits());
            assert_eq!(next, fresh);
            let built = match how {
                Mishap::Fails => 1,
                Mishap::Panics => 2,
            };
            assert_eq!(models.replicas_built(), built);
        }
    }
}
