//! Deterministic fault & straggler injection for the federation stack.
//!
//! Real fleets are never the ideal fleet the paper evaluates: clients are
//! slow (stragglers), intermittently unreachable (dropouts), permanently
//! gone (crashes), or sit behind lossy links that eat or mangle messages.
//! This module turns all of that into a *seeded, reproducible* simulation
//! layer threaded through the transport, the execution engine and the
//! runners:
//!
//! * [`FaultPlan`] — the configuration: per-client latency distributions
//!   on the simulated clock ([`LatencyModel`]), a per-round dropout
//!   probability, explicit crash-at-round entries, per-message
//!   drop/garble probabilities for the transport, a round deadline that
//!   turns slow clients into stragglers, and an over-provisioning spare
//!   count for selection.
//! * `FaultyEndpoint` — a [`ServerEndpoint`] wrapper injecting the
//!   transport-level faults around *any* backend (in-process or TCP),
//!   so a faulted run behaves identically whichever transport carries
//!   it.
//!
//! **Determinism.** Every fault decision is a pure function of
//! `(fault seed, client id, round-or-message index)` — no shared RNG
//! stream, no wall clock. Concurrent workers, shard layouts and
//! transports therefore all observe the *same* faults, and a faulted
//! round report is bit-identical for any `(shards, workers, transport)`
//! combination under the same seed (asserted by the faulted corners of
//! `tests/deployment_matrix.rs` and the `repro_gates` binary).

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::message::limits::{MAX_FIELD_BYTES, MAX_PLAN_ENTRIES};
use crate::message::{Envelope, HelloAck, MessageKind};
use crate::transport::ServerEndpoint;
use crate::wire::{wire_enum, wire_struct};
use crate::{FlError, Result};

/// A simulated network/compute latency distribution, drawn per
/// `(client, round)` on the simulated clock (seconds). The draw never
/// consumes a shared RNG stream, so it is independent of execution order.
///
/// A latency has an effect only against a round deadline
/// ([`FaultPlan::deadline_s`]): the engine draws it to decide who
/// straggles, and a plan without a deadline draws none, so its latency
/// changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LatencyModel {
    /// No added latency (the default).
    #[default]
    None,
    /// A constant latency in seconds.
    Fixed(f64),
    /// Exponential with the given mean — the classic long-tail straggler
    /// model.
    Exponential {
        /// Mean latency, seconds.
        mean_s: f64,
    },
}

impl LatencyModel {
    /// Draws one latency from the distribution using `rng`.
    fn draw(&self, rng: &mut StdRng) -> f64 {
        match *self {
            LatencyModel::None => 0.0,
            LatencyModel::Fixed(s) => s,
            LatencyModel::Exponential { mean_s } => {
                let u: f64 = rng.random();
                -mean_s * (1.0 - u).ln()
            }
        }
    }

    fn validate(&self) -> Result<()> {
        let bad = |reason: String| Err(FlError::BadConfig { reason });
        match *self {
            LatencyModel::None => Ok(()),
            LatencyModel::Fixed(s) => {
                if !s.is_finite() || s < 0.0 {
                    return bad(format!("fixed latency must be finite and >= 0, got {s}"));
                }
                Ok(())
            }
            LatencyModel::Exponential { mean_s } => {
                if !mean_s.is_finite() || mean_s < 0.0 {
                    return bad(format!(
                        "exponential latency mean must be finite and >= 0, got {mean_s}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Domain-separation salts: one per fault decision, so the latency draw
/// of a `(client, round)` never correlates with its dropout draw.
const SALT_LATENCY: u64 = 0x4C41_5445_4E43_5931; // "LATENCY1"
const SALT_DROPOUT: u64 = 0x4452_4F50_4F55_5431; // "DROPOUT1"
const SALT_MSG_DROP: u64 = 0x4D53_4744_524F_5031; // "MSGDROP1"
const SALT_MSG_GARBLE: u64 = 0x4D53_4747_4152_4231; // "MSGGARB1"

/// A private RNG for one fault decision: seeded from the plan seed, a
/// purpose salt, the client id and a per-purpose index, mixed through
/// SplitMix64 by `seed_from_u64`. Pure function of its inputs — this is
/// the whole determinism story.
pub(crate) fn decision_rng(seed: u64, salt: u64, client: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ salt.rotate_left(17)
            ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// The full fault configuration of one federation run.
///
/// Build one with [`FaultPlan::seeded`] and chain the knob setters;
/// install it with
/// [`FederationBuilder::faults`](crate::runner::FederationBuilder::faults).
/// An unconfigured knob injects nothing, so `FaultPlan::seeded(s)` alone
/// is a no-op plan (useful to turn on fault *tolerance* — over-provisioned
/// selection, non-fatal client failures — without injecting anything).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    latency: LatencyModel,
    client_latency: BTreeMap<u64, LatencyModel>,
    dropout: f64,
    crash_at: BTreeMap<u64, u64>,
    drop_prob: f64,
    garble_prob: f64,
    round_deadline_s: Option<f64>,
    spare: usize,
}

impl FaultPlan {
    /// A plan injecting nothing, rooted at `seed`. Every probabilistic
    /// knob derives its decisions from this seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the default latency distribution every client draws from.
    /// Inert without a [`deadline_s`](Self::deadline_s): latency is drawn
    /// only to find the round's stragglers.
    #[must_use]
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = model;
        self
    }

    /// Overrides the latency distribution for one client (per-client
    /// heterogeneous fleets: a few slow devices among fast ones).
    #[must_use]
    pub fn client_latency(mut self, client: u64, model: LatencyModel) -> Self {
        self.client_latency.insert(client, model);
        self
    }

    /// Probability that a client is unreachable for a whole round
    /// (fails screening and any training exchange of that round).
    #[must_use]
    pub fn dropout(mut self, prob: f64) -> Self {
        self.dropout = prob;
        self
    }

    /// Marks `client` as permanently dead from `round` onward (the
    /// crash-at-cycle model: the device leaves the fleet and never
    /// returns).
    #[must_use]
    pub fn crash_at(mut self, client: u64, round: u64) -> Self {
        self.crash_at.insert(client, round);
        self
    }

    /// Probability that any single attestation/training exchange is
    /// dropped by the transport (the request never reaches the client;
    /// the server sees a transport error).
    #[must_use]
    pub fn drop_messages(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Probability that a reply is garbled in flight (the payload is
    /// truncated, so decoding fails deterministically at the server).
    #[must_use]
    pub fn garble_replies(mut self, prob: f64) -> Self {
        self.garble_prob = prob;
        self
    }

    /// Round deadline on the *simulated* clock: a client whose injected
    /// latency plus simulated cycle time exceeds it is recorded as a
    /// straggler instead of a participant.
    #[must_use]
    pub fn deadline_s(mut self, seconds: f64) -> Self {
        self.round_deadline_s = Some(seconds);
        self
    }

    /// Over-provisions selection by `spare` extra clients per round: the
    /// server samples `clients_per_round + spare` and commits the first
    /// `clients_per_round` survivors in canonical (sorted-index) order,
    /// so faulted rounds still aggregate a full cohort when enough
    /// spares survive.
    #[must_use]
    pub fn spare(mut self, spare: usize) -> Self {
        self.spare = spare;
        self
    }

    /// The configured spare count.
    pub fn spare_count(&self) -> usize {
        self.spare
    }

    /// The configured round deadline, if any.
    pub(crate) fn round_deadline_s(&self) -> Option<f64> {
        self.round_deadline_s
    }

    /// Checks every knob is in range.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for probabilities outside `[0, 1]`,
    /// non-positive deadlines, or malformed latency distributions.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("dropout", self.dropout),
            ("drop_messages", self.drop_prob),
            ("garble_replies", self.garble_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(FlError::BadConfig {
                    reason: format!("{name} probability must be in [0, 1], got {p}"),
                });
            }
        }
        if let Some(d) = self.round_deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(FlError::BadConfig {
                    reason: format!("round deadline must be finite and positive, got {d}"),
                });
            }
        }
        self.latency.validate()?;
        for model in self.client_latency.values() {
            model.validate()?;
        }
        Ok(())
    }

    /// The simulated latency `client` experiences in `round` — a pure
    /// function of `(seed, client, round)`, identical on every worker,
    /// shard and transport.
    pub(crate) fn latency_s(&self, client: u64, round: u64) -> f64 {
        let model = self.client_latency.get(&client).unwrap_or(&self.latency);
        if *model == LatencyModel::None {
            return 0.0;
        }
        let mut rng = decision_rng(self.seed, SALT_LATENCY, client, round);
        model.draw(&mut rng)
    }

    /// Whether `client` is down for the whole of `round` — crashed at or
    /// before it, or dropped out for it.
    pub(crate) fn down(&self, client: u64, round: u64) -> bool {
        if self
            .crash_at
            .get(&client)
            .is_some_and(|&crash| round >= crash)
        {
            return true;
        }
        if self.dropout <= 0.0 {
            return false;
        }
        decision_rng(self.seed, SALT_DROPOUT, client, round).random_bool(self.dropout)
    }

    /// Whether the transport eats `client`'s `nth` faultable exchange.
    pub(crate) fn drops_message(&self, client: u64, nth: u64) -> bool {
        self.drop_prob > 0.0
            && decision_rng(self.seed, SALT_MSG_DROP, client, nth).random_bool(self.drop_prob)
    }

    /// Whether the transport garbles the reply of `client`'s `nth`
    /// faultable exchange.
    pub(crate) fn garbles_reply(&self, client: u64, nth: u64) -> bool {
        self.garble_prob > 0.0
            && decision_rng(self.seed, SALT_MSG_GARBLE, client, nth).random_bool(self.garble_prob)
    }
}

wire_enum!(
    LatencyModel, "latency model" {
        0 => None {},
        1 => Fixed { 0: s },
        3 => Exponential { mean_s },
    },
    validate = LatencyModel::validate
);

wire_struct!(
    FaultPlan {
        seed,
        latency,
        client_latency: list(MAX_PLAN_ENTRIES),
        dropout,
        crash_at: list(MAX_PLAN_ENTRIES),
        drop_prob,
        garble_prob,
        round_deadline_s,
        spare,
    },
    validate = |plan: &FaultPlan| {
        // A spare count is added to a cohort size: bounded like any
        // other length a peer can name.
        if plan.spare > MAX_FIELD_BYTES {
            return Err(FlError::BadConfig {
                reason: format!("spare count {} exceeds protocol maximum", plan.spare),
            });
        }
        plan.validate()
    }
);

/// The transport error a dropped/unreachable exchange synthesises. The
/// rendering is transport-independent on purpose: a faulted run must look
/// the same over TCP and in-process pipes.
fn injected_failure(what: &str) -> FlError {
    FlError::transport(
        format!("fault injection: {what}"),
        std::io::Error::new(std::io::ErrorKind::ConnectionAborted, "injected fault"),
    )
}

/// A [`ServerEndpoint`] wrapper injecting the plan's transport-level
/// faults around any backend.
///
/// The wrapper learns the client's identity from the `HelloAck` passing
/// through it, counts rounds by the attestation requests it sees (the
/// server screens every client exactly once per round), and reads the
/// round of a model download straight off the payload's leading bytes —
/// so every decision keys on `(client, round)` or `(client, message
/// index)` without touching a shared stream. `Hello` and `Goodbye`
/// always pass through untouched: fault injection must never break
/// session setup or teardown.
pub(crate) struct FaultyEndpoint {
    inner: Box<dyn ServerEndpoint>,
    plan: Arc<FaultPlan>,
    client: Option<u64>,
    attests_seen: u64,
    messages_seen: u64,
    /// The reply to the request in flight arrives truncated.
    garble: bool,
}

impl std::fmt::Debug for FaultyEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyEndpoint")
            .field("client", &self.client)
            .field("inner", &self.inner.descriptor())
            .finish()
    }
}

impl FaultyEndpoint {
    /// Wraps `inner` under `plan`.
    pub(crate) fn new(inner: Box<dyn ServerEndpoint>, plan: Arc<FaultPlan>) -> Self {
        FaultyEndpoint {
            inner,
            plan,
            client: None,
            attests_seen: 0,
            messages_seen: 0,
            garble: false,
        }
    }

    /// The round a faultable request belongs to. Attestation requests are
    /// counted (the server screens every client exactly once per round);
    /// a model download keys on the *same* counter its round's screening
    /// used, so "down for a whole round" holds by construction — the two
    /// exchanges of one round can never disagree, even if the server's
    /// round counter drifts from the screen count (a caller retrying
    /// `run_round` after a collapsed round screens again without the
    /// round number having advanced). Downloads driven without a
    /// preceding screen (raw engine harnesses) fall back to the round
    /// carried in the payload's leading 8 bytes.
    fn round_of(&mut self, request: &Envelope) -> u64 {
        match request.kind {
            // The download leads with the round in its first 8 payload
            // bytes, whatever codec packed the weights behind it.
            MessageKind::EncodedModelDownload => match self.attests_seen.checked_sub(1) {
                Some(screened) => screened,
                None => request
                    .payload
                    .first_chunk::<8>()
                    .map(|b| u64::from_le_bytes(*b))
                    .unwrap_or(0),
            },
            _ => {
                let round = self.attests_seen;
                self.attests_seen += 1;
                round
            }
        }
    }
}

impl ServerEndpoint for FaultyEndpoint {
    /// Decides the faults that stop a request — an injected failure is
    /// that exchange's result, with nothing to finish — and whether the
    /// reply, once collected, arrives garbled.
    fn begin(&mut self, request: &Envelope) -> Result<bool> {
        self.garble = false;
        if matches!(
            request.kind,
            MessageKind::AttestationRequest | MessageKind::EncodedModelDownload
        ) {
            let client = self.client.unwrap_or_default();
            let round = self.round_of(request);
            let nth = self.messages_seen;
            self.messages_seen += 1;
            if self.plan.down(client, round) {
                return Err(injected_failure("client is down this round"));
            }
            if self.plan.drops_message(client, nth) {
                return Err(injected_failure("exchange dropped in flight"));
            }
            self.garble = self.plan.garbles_reply(client, nth);
        }
        self.inner.begin(request)
    }

    fn finish(&mut self) -> Result<Envelope> {
        let mut reply = self.inner.finish()?;
        if reply.kind == MessageKind::HelloAck {
            if let Ok(ack) = reply.open::<HelloAck>(MessageKind::HelloAck) {
                self.client = Some(ack.client_id);
            }
        }
        if std::mem::take(&mut self.garble) {
            // Truncation is the one corruption every decoder detects
            // deterministically (a bit-flip inside f32 weight data would
            // decode fine and silently poison the aggregate).
            reply.payload.truncate(reply.payload.len() / 2);
        }
        Ok(reply)
    }

    fn notify(&mut self, message: Envelope) -> Result<()> {
        // Teardown messages are never faulted: shutdown must stay clean
        // even under the nastiest plan.
        self.inner.notify(message)
    }

    fn descriptor(&self) -> String {
        format!("faulty:{}", self.inner.descriptor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DeviceProfile, FlClient};
    use crate::trainer::PlainSgdTrainer;
    use crate::transport::inprocess::LocalEndpoint;
    use crate::transport::RemoteClient;
    use gradsec_data::SyntheticMicro;
    use gradsec_nn::zoo;

    fn endpoint(id: u64, plan: Arc<FaultPlan>) -> RemoteClient {
        let ds = std::sync::Arc::new(SyntheticMicro::new(8, 2, 4, 1));
        let client = FlClient::new(
            id,
            DeviceProfile::trustzone(id),
            ds,
            (0..8).collect(),
            zoo::tiny_mlp(4, 3, 2, 1).unwrap(),
            Box::new(PlainSgdTrainer),
        );
        let inner: Box<dyn ServerEndpoint> = Box::new(LocalEndpoint::new(client));
        RemoteClient::connect(Box::new(FaultyEndpoint::new(inner, plan))).unwrap()
    }

    #[test]
    fn draws_are_pure_functions_of_their_inputs() {
        let plan = FaultPlan::seeded(7)
            .latency(LatencyModel::Exponential { mean_s: 1.0 })
            .dropout(0.3)
            .drop_messages(0.2)
            .garble_replies(0.2);
        for client in 0..20u64 {
            for round in 0..5u64 {
                assert_eq!(plan.latency_s(client, round), plan.latency_s(client, round));
                assert_eq!(plan.down(client, round), plan.down(client, round));
                assert_eq!(
                    plan.drops_message(client, round),
                    plan.drops_message(client, round)
                );
            }
        }
        // Different seeds decorrelate.
        let other = FaultPlan::seeded(8).dropout(0.3);
        let a: Vec<bool> = (0..200).map(|c| plan.down(c, 0)).collect();
        let b: Vec<bool> = (0..200).map(|c| other.down(c, 0)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn latency_models_respect_their_supports() {
        let expo = FaultPlan::seeded(3).latency(LatencyModel::Exponential { mean_s: 2.0 });
        let fixed = FaultPlan::seeded(3).latency(LatencyModel::Fixed(0.25));
        for c in 0..100u64 {
            assert!(expo.latency_s(c, 1) >= 0.0);
            assert_eq!(fixed.latency_s(c, 1), 0.25);
            assert_eq!(FaultPlan::seeded(3).latency_s(c, 1), 0.0);
        }
    }

    #[test]
    fn per_client_latency_overrides_the_default() {
        let plan = FaultPlan::seeded(5)
            .latency(LatencyModel::Fixed(0.1))
            .client_latency(3, LatencyModel::Fixed(9.0));
        assert_eq!(plan.latency_s(0, 0), 0.1);
        assert_eq!(plan.latency_s(3, 0), 9.0);
    }

    #[test]
    fn crash_at_is_permanent_dropout_is_per_round() {
        let plan = FaultPlan::seeded(11).crash_at(2, 3);
        for round in 0..3 {
            assert!(!plan.down(2, round), "round {round}: not crashed yet");
        }
        for round in 3..8 {
            assert!(plan.down(2, round), "round {round}: crashed for good");
        }
        // A 100% dropout takes every round; 0% takes none.
        let all = FaultPlan::seeded(11).dropout(1.0);
        let none = FaultPlan::seeded(11).dropout(0.0);
        for round in 0..5 {
            assert!(all.down(0, round));
            assert!(!none.down(0, round));
        }
    }

    #[test]
    fn dropout_rate_lands_near_the_configured_probability() {
        let plan = FaultPlan::seeded(19).dropout(0.1);
        let down = (0..5000u64).filter(|&c| plan.down(c, 0)).count();
        let rate = down as f64 / 5000.0;
        assert!((0.07..0.13).contains(&rate), "rate {rate}");
    }

    #[test]
    fn validation_rejects_out_of_range_knobs() {
        assert!(FaultPlan::seeded(1).dropout(1.5).validate().is_err());
        assert!(FaultPlan::seeded(1).drop_messages(-0.1).validate().is_err());
        assert!(FaultPlan::seeded(1)
            .garble_replies(f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(1).deadline_s(0.0).validate().is_err());
        assert!(FaultPlan::seeded(1)
            .latency(LatencyModel::Exponential { mean_s: -1.0 })
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(1)
            .client_latency(0, LatencyModel::Fixed(-1.0))
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(1)
            .dropout(0.2)
            .drop_messages(0.1)
            .garble_replies(0.1)
            .deadline_s(3.0)
            .latency(LatencyModel::Exponential { mean_s: 1.0 })
            .spare(4)
            .validate()
            .is_ok());
    }

    #[test]
    fn decoding_validates_the_plan_and_bounds_its_spare_count() {
        use crate::message::{decode, encode};
        let valid = FaultPlan::seeded(3).spare(MAX_FIELD_BYTES);
        assert_eq!(decode::<FaultPlan>(&encode(&valid)).unwrap(), valid);
        // Both encode fine (plain data) and are refused on decode.
        let oversized = FaultPlan::seeded(3).spare(MAX_FIELD_BYTES + 1);
        let err = decode::<FaultPlan>(&encode(&oversized)).unwrap_err();
        assert!(err.to_string().contains("spare count"), "{err}");
        let invalid = FaultPlan::seeded(3).dropout(1.5);
        assert!(decode::<FaultPlan>(&encode(&invalid)).is_err());
    }

    #[test]
    fn faulty_endpoint_passes_handshake_and_learns_identity() {
        let plan = Arc::new(FaultPlan::seeded(1).dropout(1.0));
        // Even a 100%-dropout plan must let the handshake through.
        let remote = endpoint(42, plan);
        assert_eq!(remote.id(), 42);
        assert!(format!("{remote:?}").contains("\"faulty:"), "{remote:?}");
    }

    #[test]
    fn down_client_fails_attestation_exchanges() {
        use gradsec_tee::attestation::Challenge;
        let plan = Arc::new(FaultPlan::seeded(1).crash_at(7, 0));
        let mut remote = endpoint(7, plan);
        let err = remote.attest(&Challenge::new([0u8; 16])).unwrap_err();
        assert!(matches!(err, FlError::Transport { .. }), "{err:?}");
        assert!(err.to_string().contains("fault injection"), "{err}");
    }

    #[test]
    fn garbled_replies_fail_decoding_not_the_process() {
        use gradsec_tee::attestation::Challenge;
        let plan = Arc::new(FaultPlan::seeded(2).garble_replies(1.0));
        let mut remote = endpoint(1, plan);
        let err = remote.attest(&Challenge::new([0u8; 16])).unwrap_err();
        // Truncated payload: the typed decode fails cleanly.
        assert!(
            matches!(err, FlError::BadConfig { .. } | FlError::Protocol { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn screening_and_download_faults_agree_even_when_the_round_counter_drifts() {
        use crate::config::TrainingPlan;
        use crate::message::ModelDownload;
        use gradsec_tee::attestation::Challenge;
        // Client 7 crashes at round 1. Round 0 is healthy end to end;
        // after the second screen (round 1 → down), a download must be
        // rejected too — even though a retrying server would still stamp
        // the payload with its unadvanced round 0. The endpoint keys the
        // download on the same counter screening used, so the two
        // exchanges of one round can never disagree.
        let plan = Arc::new(FaultPlan::seeded(4).crash_at(7, 1));
        let mut remote = endpoint(7, plan);
        let download = ModelDownload {
            round: 0,
            weights: zoo::tiny_mlp(4, 3, 2, 1).unwrap().weights(),
            plan: TrainingPlan {
                rounds: 2,
                clients_per_round: 1,
                batches_per_cycle: 1,
                batch_size: 2,
                learning_rate: 0.05,
                seed: 1,
            },
            protected_layers: vec![],
        };
        remote.attest(&Challenge::new([0u8; 16])).unwrap();
        remote.train(&download).unwrap();
        let err = remote.attest(&Challenge::new([1u8; 16])).unwrap_err();
        assert!(err.to_string().contains("down"), "{err}");
        let err = remote.train(&download).unwrap_err();
        assert!(err.to_string().contains("down"), "{err}");
    }

    #[test]
    fn encoded_downloads_are_faulted_by_their_payload_round_peek() {
        use crate::config::TrainingPlan;
        use crate::message::ModelDownload;
        // No screening precedes these downloads, so the endpoint must
        // read the round from the payload's leading bytes — which at
        // protocol v4 belong to an *encoded* download. Client 3 crashes
        // at round 2: rounds 0 and 1 pass, round 2 is refused.
        let plan = Arc::new(FaultPlan::seeded(11).crash_at(3, 2));
        let mut remote = endpoint(3, plan);
        let tp = TrainingPlan {
            rounds: 3,
            clients_per_round: 1,
            batches_per_cycle: 1,
            batch_size: 2,
            learning_rate: 0.05,
            seed: 1,
        };
        let mut weights = zoo::tiny_mlp(4, 3, 2, 1).unwrap().weights();
        for round in 0..2u64 {
            let download = ModelDownload {
                round,
                weights: weights.clone(),
                plan: tp,
                protected_layers: vec![],
            };
            let upload = remote.train(&download).unwrap();
            assert!(upload.cost.wire.download_encoded_bytes > 0);
            weights = upload.weights;
        }
        let err = remote
            .train(&ModelDownload {
                round: 2,
                weights,
                plan: tp,
                protected_layers: vec![],
            })
            .unwrap_err();
        assert!(err.to_string().contains("down"), "{err}");
    }

    #[test]
    fn goodbye_is_never_faulted() {
        let plan = Arc::new(
            FaultPlan::seeded(3)
                .dropout(1.0)
                .drop_messages(1.0)
                .garble_replies(1.0),
        );
        let mut remote = endpoint(5, plan);
        remote.goodbye().unwrap();
    }
}
