//! FL clients, their devices, and the models a fleet of them trains.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use gradsec_data::{Batcher, Dataset};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::Sequential;
use gradsec_tee::attestation::{sign_quote, Challenge, Measurement};
use gradsec_tee::ta::Uuid;

use crate::adversary::AdversaryPlan;
use crate::config::TrainingPlan;
use crate::message::{AttestationResponse, ModelDownload, UpdateUpload};
use crate::trainer::LocalTrainer;
use crate::Result;

/// Hardware profile of a client device.
///
/// The paper's selection step (Figure 2-➊) discards devices without a TEE;
/// this profile is what that check inspects.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Device attestation key (provisioned at manufacture; shared with the
    /// verifier in this symmetric simulation).
    ///
    /// The FL server verifies quotes against its provisioning registry —
    /// [`DeviceProfile::provisioned_key`] of the id the client reports in
    /// its transport handshake — so a device whose key differs from
    /// `provisioned_key(id)` fails screening, exactly as an unprovisioned
    /// device would in the field.
    pub(crate) attestation_key: Vec<u8>,
    /// The GradSec TA installed in this device's TrustZone; `None` on a
    /// device without a TEE.
    pub(crate) ta: Option<InstalledTa>,
}

/// The genuine GradSec TA's code: what a TrustZone device installs, and
/// what every federation whitelists by its measurement.
pub(crate) const TA_CODE: &[u8] = b"gradsec-ta-code-v1";

/// The GradSec TA's identity, hashed from its name once per process: a
/// builder lists a profile per client, and a hash per profile cost a
/// 1 000-client fleet about a millisecond.
fn ta_uuid() -> Uuid {
    static UUID: OnceLock<Uuid> = OnceLock::new();
    *UUID.get_or_init(|| Uuid::from_name("gradsec-ta"))
}

/// A TA installed on a device.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InstalledTa {
    /// TA identity.
    pub(crate) uuid: Uuid,
    /// The TA code bytes (what attestation measures).
    pub(crate) code: Vec<u8>,
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
            attestation_key: Self::provisioned_key(device_id),
            ta: Some(InstalledTa {
                uuid: ta_uuid(),
                code: TA_CODE.to_vec(),
            }),
        }
    }

    /// A legacy device with no TEE.
    pub fn legacy(device_id: u64) -> Self {
        DeviceProfile {
            attestation_key: Self::provisioned_key(device_id),
            ta: None,
        }
    }

    /// A compromised device running modified TA code — its measurement
    /// will not match the server's whitelist.
    pub fn compromised(device_id: u64) -> Self {
        DeviceProfile {
            attestation_key: Self::provisioned_key(device_id),
            ta: Some(InstalledTa {
                uuid: ta_uuid(),
                code: b"gradsec-ta-code-BACKDOORED".to_vec(),
            }),
        }
    }
}

/// The models a fleet's clients train, lent per cycle, and the delta
/// downloads its clients open, memoised per lockstep group: the
/// client-side mirror of the server's `Broadcast`.
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
/// trained on. Opening, checking and decoding a frame is a pure function
/// of `(base view, frame bytes)`, so clients that hold the same base
/// allocation and receive the same bytes — a lockstep group — open it
/// once between them ([`download`](Self::download)): the group's first
/// member does the work, the others pay one byte comparison and are
/// handed the same view allocation. The store holds each view weakly,
/// with the frame bytes it was opened from, and only while a client
/// holds that view and its base can still be named.
pub(crate) struct ClientModels {
    replicas: Mutex<Replicas>,
    /// Every download opened and possibly still named, with what it was
    /// opened from.
    downloads: Mutex<Vec<Arc<Decoded>>>,
    /// Replicas built so far.
    #[cfg(test)]
    built: std::sync::atomic::AtomicUsize,
    /// Downloads opened, checked and decoded so far.
    #[cfg(test)]
    opened: std::sync::atomic::AtomicUsize,
    /// The view each client holds, as its handler last recorded it.
    #[cfg(test)]
    held: Mutex<std::collections::BTreeMap<u64, Weak<ModelWeights>>>,
}

struct Replicas {
    prototype: Sequential,
    idle: Vec<Sequential>,
}

/// What a download asks of a cycle, besides the model it decodes to.
#[derive(Debug, Clone)]
pub(crate) struct Opened {
    pub(crate) round: u64,
    pub(crate) plan: TrainingPlan,
    pub(crate) protected_layers: Vec<usize>,
    /// The epoch the download is stamped with.
    pub(crate) epoch: u64,
    /// The epoch of the view its delta bodies are coded against.
    pub(crate) base_epoch: Option<u64>,
}

/// A download and its view, or the refusal that opening it met.
pub(crate) type Accepted = std::result::Result<(Opened, Arc<ModelWeights>), String>;

/// A download opened against a base view, keyed by that base and the
/// frame bytes. The base is held weakly, which keeps its address from
/// being reused while it is a key; the view is held weakly too, so the
/// store never keeps one alive.
struct Decoded {
    base: Option<Weak<ModelWeights>>,
    frame: Vec<u8>,
    /// Set once, by the group's first member; a refusal is forgotten.
    opened: OnceLock<std::result::Result<(Opened, Weak<ModelWeights>), String>>,
}

impl Decoded {
    fn is(&self, base: Option<&Arc<ModelWeights>>, frame: &[u8]) -> bool {
        let same_base = match (&self.base, base) {
            (None, None) => true,
            (Some(held), Some(base)) => std::ptr::eq(held.as_ptr(), Arc::as_ptr(base)),
            _ => false,
        };
        same_base && self.frame == frame
    }

    /// Whether a client may still look this entry up: its base can still
    /// be named, and it is being opened or its view is still held.
    fn is_live(&self) -> bool {
        let named = self.base.as_ref().is_none_or(|b| b.strong_count() > 0);
        named
            && match self.opened.get() {
                None => true,
                Some(Ok((_, view))) => view.strong_count() > 0,
                Some(Err(_)) => false,
            }
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
            downloads: Mutex::default(),
            #[cfg(test)]
            built: Default::default(),
            #[cfg(test)]
            opened: Default::default(),
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

    /// The download `frame` holds for a client whose view is `base`: what
    /// the first client to bring the same bytes on the same base
    /// allocation made of it, or — for that first client — what `open`
    /// makes of it (it opens, checks and decodes the frame). Clients that
    /// arrive while it runs wait for it. A refusal is handed to them, and
    /// its entry is dead: the next lookup or [`prune`](Self::prune) drops
    /// it, so a later client opens the bytes again.
    pub(crate) fn download(
        &self,
        base: Option<&Arc<ModelWeights>>,
        frame: &[u8],
        open: impl FnOnce() -> Accepted,
    ) -> Accepted {
        let mut open = Some(open);
        loop {
            let entry = self.entry(base, frame);
            let mut fresh = None;
            let opened = entry.opened.get_or_init(|| {
                #[cfg(test)]
                self.opened
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let (opened, view) = open.take().expect("a client opens a frame once")()?;
                let held = Arc::downgrade(&view);
                fresh = Some(view);
                Ok((opened, held))
            });
            let (opened, view) = opened.as_ref().map_err(Clone::clone)?;
            if let Some(view) = fresh.or_else(|| view.upgrade()) {
                return Ok((opened.clone(), view));
            }
            // Every client that held the view dropped it (their cycles
            // failed) before this one could take it: the entry is dead,
            // and the next lookup drops it and opens the frame anew.
        }
    }

    /// The entry for `(base, frame)`, made if none is live.
    fn entry(&self, base: Option<&Arc<ModelWeights>>, frame: &[u8]) -> Arc<Decoded> {
        let mut downloads = lock(&self.downloads);
        downloads.retain(|d| d.is_live());
        if let Some(found) = downloads.iter().find(|d| d.is(base, frame)) {
            return Arc::clone(found);
        }
        let entry = Arc::new(Decoded {
            base: base.map(Arc::downgrade),
            frame: frame.to_vec(),
            opened: OnceLock::new(),
        });
        downloads.push(Arc::clone(&entry));
        entry
    }

    /// Drops every entry no client can look up any more: a client calls
    /// it once it let go of a view, so no entry outlives what names it.
    pub(crate) fn prune(&self) {
        lock(&self.downloads).retain(|d| d.is_live());
    }

    /// How many replicas this store has built.
    #[cfg(test)]
    pub(crate) fn replicas_built(&self) -> usize {
        self.built.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// How many downloads this store has opened, checked and decoded.
    #[cfg(test)]
    pub(crate) fn downloads_opened(&self) -> usize {
        self.opened.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// How many downloads this store keeps.
    #[cfg(test)]
    pub(crate) fn downloads_kept(&self) -> usize {
        lock(&self.downloads).len()
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
/// `ClientHandler`.
pub struct FlClient {
    id: u64,
    device: DeviceProfile,
    dataset: Arc<dyn Dataset>,
    shard: Vec<usize>,
    models: Arc<ClientModels>,
    trainer: Box<dyn LocalTrainer>,
    /// The scenario this client poisons its updates under, if it is a
    /// poisoner.
    poisoner: Option<Arc<AdversaryPlan>>,
}

impl std::fmt::Debug for FlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlClient")
            .field("id", &self.id)
            .field("has_tee", &self.device.ta.is_some())
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
            poisoner: None,
        }
    }

    /// The store this client's cycles borrow from.
    pub(crate) fn models(&self) -> &ClientModels {
        &self.models
    }

    /// Client id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Makes this client a poisoner under `plan` (see
    /// [`crate::adversary`]). Poisoning is confined to
    /// [`run_cycle`](Self::run_cycle) — attestation and the transport
    /// exchange stay honest, so screening and bit-identity are
    /// unaffected by *who* the client is, only by what it uploads.
    pub(crate) fn set_poisoner(&mut self, plan: Arc<AdversaryPlan>) {
        self.poisoner = Some(plan);
    }

    /// Responds to an attestation challenge. Devices without a TEE (and
    /// so without the TA) answer with no quote and are filtered out by the
    /// server.
    pub(crate) fn attest(&self, challenge: &Challenge) -> AttestationResponse {
        let quote = self.device.ta.as_ref().map(|ta| {
            let m = Measurement(gradsec_tee::crypto::sha256::sha256(&ta.code));
            sign_quote(&self.device.attestation_key, ta.uuid, m, challenge)
        });
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
        // Reset before the upload is built, as a client always has: heap
        // shape is a cost here, and the other order measured 13–26 %
        // slower `lenet_protected` set-ups.
        model.reset();
        let trained = model.weights();
        drop(model);
        let weights = match &self.poisoner {
            Some(plan) => plan.poisoned(self.id, round, global, &trained)?,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::flatten;
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
        poisoner.set_poisoner(scenario);
        let poisoned = poisoner.run_cycle(&download).unwrap();
        assert_ne!(poisoned.weights, honest.weights);
        assert_eq!(poisoned.num_samples, honest.num_samples);
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
        assert_eq!(
            c.models().idle_clean(),
            [true],
            "the replica went back without gradient buffers"
        );
    }

    #[test]
    fn concurrent_first_members_wait_for_one_open_and_keep_no_refusal() {
        use std::sync::Barrier;
        use std::time::Duration;

        let models = ClientModels::new(model());
        let opened = Opened {
            round: 0,
            plan: plan(),
            protected_layers: vec![],
            epoch: 0,
            base_epoch: None,
        };
        let members = |frame: &[u8], accept: &(dyn Fn() -> Accepted + Sync)| {
            let start = Barrier::new(3);
            std::thread::scope(|scope| {
                let open = || {
                    start.wait();
                    models.download(None, frame, || {
                        std::thread::sleep(Duration::from_millis(50));
                        accept()
                    })
                };
                let joined: Vec<_> = (0..3).map(|_| scope.spawn(open)).collect();
                let got: Vec<_> = joined.into_iter().map(|t| t.join().unwrap()).collect();
                got
            })
        };
        let view = || Ok((opened.clone(), Arc::new(model().weights())));
        let got = members(b"frame", &view);
        let views: Vec<_> = got.into_iter().map(|g| g.unwrap().1).collect();
        assert!(views.iter().all(|v| Arc::ptr_eq(v, &views[0])));
        assert_eq!((models.downloads_opened(), models.downloads_kept()), (1, 1));
        drop(views);
        models.prune();
        assert_eq!(models.downloads_kept(), 0, "no view, no entry");

        // Whether a member waits for a refusal or opens the frame again
        // after it was forgotten depends on timing; either way each is
        // refused and nothing is kept.
        let refuse = || Err("refused".to_owned());
        let got = members(b"other frame", &refuse);
        assert!(got.iter().all(|g| g.as_ref().unwrap_err() == "refused"));
        models.prune();
        assert_eq!(models.downloads_kept(), 0);
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
