//! Seeded adversarial client personas for hostile-fleet simulation.
//!
//! The fault layer ([`crate::faults`]) covers *failure*; this module
//! covers *malice*. An [`AdversaryPlan`] assigns each client a
//! [`Persona`] — update poisoner, update scaler, free-rider, or
//! colluding observer — as a **pure function of (scenario seed, client
//! id)**, using the same salted-RNG discipline as `faults::FaultPlan`:
//! no shared stream, no wall clock, so the same fleet is hostile in the
//! same way on every worker, shard, process and transport.
//!
//! Personas act entirely on the client side of the round exchange:
//!
//! * **Poisoner** — trains honestly, then uploads
//!   `global − strength·(trained − global) + noise`: the negated update
//!   plus seeded uniform noise, the classic sign-flip model-poisoning
//!   attack.
//! * **Scaler** — uploads `global + boost·(trained − global)`, the
//!   boosted-update (model replacement) attack.
//! * **Free-rider** — skips training entirely and echoes the downloaded
//!   global weights back, claiming a full cycle's samples.
//! * **Colluder** — trains honestly (so colluding fleets stay
//!   bit-identical across process boundaries) but records every global
//!   snapshot it observes into a shared [`CollusionLog`], which
//!   fleet-scale membership-inference harnesses in `gradsec_attacks`
//!   consume after the run.
//!
//! The server-side defenses live next door: robust aggregation in
//! [`crate::aggregate`] ([`crate::Aggregator`]) and per-client
//! [`ReputationBook`] scores accumulated from round outcomes and fed
//! back into selection.
//!
//! **Determinism.** Persona assignment and every poisoner noise draw
//! key on `(seed, salt, client, round)` through
//! [`crate::faults::decision_rng`]'s SplitMix64 mix. Nothing here
//! touches the server's selection/screening RNG stream — asserted by
//! `clean_fleet_consumes_no_server_rng` in the runner tests.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tensor::Tensor;

use crate::faults::decision_rng;
use crate::wire::wire_struct;
use crate::{FlError, Result};

/// Domain-separation salts for adversary decisions, disjoint from the
/// fault salts so a hostile fleet and a faulty fleet never correlate.
const SALT_PERSONA: u64 = 0x5045_5253_4F4E_4131; // "PERSONA1"
const SALT_POISON: u64 = 0x504F_4953_4F4E_5231; // "POISONR1"

/// The behavior a hostile client exhibits for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Persona {
    /// Sign-flips its update and adds seeded uniform noise.
    Poisoner,
    /// Boosts its update by a large factor (model replacement).
    Scaler,
    /// Skips training and echoes the global model back.
    FreeRider,
    /// Trains honestly but records global snapshots for offline
    /// membership-inference analysis.
    Colluder,
}

impl Persona {
    /// Short stable name, used in reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Persona::Poisoner => "poisoner",
            Persona::Scaler => "scaler",
            Persona::FreeRider => "free-rider",
            Persona::Colluder => "colluder",
        }
    }
}

/// The full adversarial scenario of one federation run: which fraction
/// of the fleet is hostile, in what mix, and how strongly.
///
/// Follows the `FaultPlan` pattern: seeded constructor, chained
/// `#[must_use]` knobs, [`validate`](Self::validate) called at assembly,
/// and a [`Wire`](crate::message::Wire) impl so distributed shard
/// processes re-derive the exact same personas from the `ShardConfig`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    seed: u64,
    poisoners: f64,
    scalers: f64,
    free_riders: f64,
    colluders: f64,
    poison_strength: f32,
    poison_noise: f32,
    scale_boost: f32,
}

impl AdversaryPlan {
    /// A quiet plan (no hostile clients) under `seed`, with default
    /// attack strengths: poison strength 1 (pure sign flip), poison
    /// noise 0.1, scale boost 8.
    pub fn seeded(seed: u64) -> Self {
        AdversaryPlan {
            seed,
            poisoners: 0.0,
            scalers: 0.0,
            free_riders: 0.0,
            colluders: 0.0,
            poison_strength: 1.0,
            poison_noise: 0.1,
            scale_boost: 8.0,
        }
    }

    /// Fraction of the fleet assigned [`Persona::Poisoner`].
    #[must_use]
    pub fn poisoners(mut self, fraction: f64) -> Self {
        self.poisoners = fraction;
        self
    }

    /// Fraction of the fleet assigned [`Persona::Scaler`].
    #[must_use]
    pub fn scalers(mut self, fraction: f64) -> Self {
        self.scalers = fraction;
        self
    }

    /// Fraction of the fleet assigned [`Persona::FreeRider`].
    #[must_use]
    pub fn free_riders(mut self, fraction: f64) -> Self {
        self.free_riders = fraction;
        self
    }

    /// Fraction of the fleet assigned [`Persona::Colluder`].
    #[must_use]
    pub fn colluders(mut self, fraction: f64) -> Self {
        self.colluders = fraction;
        self
    }

    /// Multiplier on the negated update a poisoner uploads.
    #[must_use]
    pub fn poison_strength(mut self, strength: f32) -> Self {
        self.poison_strength = strength;
        self
    }

    /// Half-width of the uniform noise a poisoner adds per coefficient.
    #[must_use]
    pub fn poison_noise(mut self, noise: f32) -> Self {
        self.poison_noise = noise;
        self
    }

    /// Multiplier on the update a scaler uploads.
    #[must_use]
    pub fn scale_boost(mut self, boost: f32) -> Self {
        self.scale_boost = boost;
        self
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when no persona fraction is positive — the plan changes
    /// nothing about the run.
    pub fn is_quiet(&self) -> bool {
        self.poisoners == 0.0
            && self.scalers == 0.0
            && self.free_riders == 0.0
            && self.colluders == 0.0
    }

    /// Checks every knob is in range.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for fractions outside `[0, 1]`, a
    /// mix summing past 1, or non-finite strengths.
    pub fn validate(&self) -> Result<()> {
        for (name, f) in [
            ("poisoners", self.poisoners),
            ("scalers", self.scalers),
            ("free_riders", self.free_riders),
            ("colluders", self.colluders),
        ] {
            if !(0.0..=1.0).contains(&f) || f.is_nan() {
                return Err(FlError::BadConfig {
                    reason: format!("{name} fraction must be in [0, 1], got {f}"),
                });
            }
        }
        let total = self.poisoners + self.scalers + self.free_riders + self.colluders;
        if total > 1.0 {
            return Err(FlError::BadConfig {
                reason: format!("persona fractions sum to {total} > 1"),
            });
        }
        for (name, v) in [
            ("poison_strength", self.poison_strength),
            ("poison_noise", self.poison_noise),
            ("scale_boost", self.scale_boost),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(FlError::BadConfig {
                    reason: format!("{name} must be finite and >= 0, got {v}"),
                });
            }
        }
        Ok(())
    }

    /// The persona of `client`, or `None` for an honest client — a pure
    /// function of `(seed, client)`, identical on every worker, shard,
    /// process and transport.
    pub fn persona_of(&self, client: u64) -> Option<Persona> {
        if self.is_quiet() {
            return None;
        }
        let u: f64 = decision_rng(self.seed, SALT_PERSONA, client, 0).random();
        let mut edge = self.poisoners;
        if u < edge {
            return Some(Persona::Poisoner);
        }
        edge += self.scalers;
        if u < edge {
            return Some(Persona::Scaler);
        }
        edge += self.free_riders;
        if u < edge {
            return Some(Persona::FreeRider);
        }
        edge += self.colluders;
        if u < edge {
            return Some(Persona::Colluder);
        }
        None
    }

    /// The ids of all hostile clients in a fleet of `n`.
    pub fn hostile_in(&self, n: u64) -> Vec<u64> {
        (0..n).filter(|&c| self.persona_of(c).is_some()).collect()
    }

    /// The poisoned weights `client` uploads in `round`:
    /// `global − strength·(trained − global) + noise`, where the noise
    /// is per-coefficient uniform in `[−noise, noise)` drawn from a
    /// private `(seed, client, round)` RNG.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Nn`] if `trained` and `global` disagree on
    /// architecture.
    pub fn poisoned(
        &self,
        client: u64,
        round: u64,
        global: &ModelWeights,
        trained: &ModelWeights,
    ) -> Result<ModelWeights> {
        let mut out = global.clone();
        out.add_scaled(global, self.poison_strength)?;
        out.add_scaled(trained, -self.poison_strength)?;
        if self.poison_noise > 0.0 {
            let mut rng = decision_rng(self.seed, SALT_POISON, client, round);
            let noise = uniform_like(global, &mut rng, self.poison_noise);
            out.add_scaled(&noise, 1.0)?;
        }
        Ok(out)
    }

    /// The boosted weights a scaler uploads:
    /// `global + boost·(trained − global)`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Nn`] if `trained` and `global` disagree on
    /// architecture.
    pub fn scaled(&self, global: &ModelWeights, trained: &ModelWeights) -> Result<ModelWeights> {
        let mut out = global.clone();
        out.scale(1.0 - self.scale_boost);
        out.add_scaled(trained, self.scale_boost)?;
        Ok(out)
    }
}

/// Weights shaped like `like` with every coefficient uniform in
/// `[−width, width)`, drawn in canonical layer order (w then b).
fn uniform_like(like: &ModelWeights, rng: &mut StdRng, width: f32) -> ModelWeights {
    let mut draw = |dims: &[usize]| {
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|_| {
                let u: f32 = rng.random();
                (2.0 * u - 1.0) * width
            })
            .collect();
        Tensor::from_vec(data, dims).expect("noise tensor mirrors an existing shape")
    };
    ModelWeights::new(
        like.iter()
            .map(|l| LayerWeights {
                w: draw(l.w.dims()),
                b: draw(l.b.dims()),
            })
            .collect(),
    )
}

wire_struct!(
    AdversaryPlan {
        seed,
        poisoners,
        scalers,
        free_riders,
        colluders,
        poison_strength,
        poison_noise,
        scale_boost,
    },
    validate = AdversaryPlan::validate
);

/// The view a client's adversarial behavior needs at cycle time: its
/// persona, the scenario knobs, and (for colluders assembled in the
/// coordinator process) the shared observation log.
#[derive(Debug, Clone)]
pub struct Adversary {
    /// This client's persona.
    pub persona: Persona,
    /// The scenario configuration.
    pub plan: Arc<AdversaryPlan>,
    /// Where colluders record global snapshots. `None` in shard-server
    /// processes — collusion records are an in-process observability
    /// artifact, never part of the round exchange, so their absence
    /// cannot perturb bit-identity.
    pub log: Option<Arc<CollusionLog>>,
}

#[derive(Debug, Default)]
struct CollusionRecords {
    colluders: BTreeSet<u64>,
    snapshots: BTreeMap<u64, ModelWeights>,
}

/// What a colluding coalition observed: which clients colluded and the
/// global model snapshot of every round any colluder participated in.
///
/// Keyed structures are ordered maps, so the recorded content is
/// independent of worker interleaving. Fleet-scale MIA harnesses in
/// `gradsec_attacks` consume the snapshot sequence after the run.
#[derive(Debug, Default)]
pub struct CollusionLog {
    inner: Mutex<CollusionRecords>,
}

impl CollusionLog {
    /// Records that `client` observed `global` in `round`.
    pub fn observe(&self, client: u64, round: u64, global: &ModelWeights) {
        let mut inner = self.inner.lock().expect("collusion log poisoned");
        inner.colluders.insert(client);
        inner
            .snapshots
            .entry(round)
            .or_insert_with(|| global.clone());
    }

    /// The colluding client ids seen so far, ascending.
    pub fn colluders(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("collusion log poisoned");
        inner.colluders.iter().copied().collect()
    }

    /// The observed `(round, global weights)` snapshots, round-ascending.
    pub fn snapshots(&self) -> Vec<(u64, ModelWeights)> {
        let inner = self.inner.lock().expect("collusion log poisoned");
        inner
            .snapshots
            .iter()
            .map(|(&r, w)| (r, w.clone()))
            .collect()
    }

    /// Number of distinct rounds observed.
    pub fn rounds_observed(&self) -> usize {
        self.inner
            .lock()
            .expect("collusion log poisoned")
            .snapshots
            .len()
    }
}

/// Per-client reputation accumulated from round outcomes and fed back
/// into selection: completing a round earns a point, straggling or
/// failing loses one, and clients whose score sinks below the threshold
/// are filtered from the eligible set *before* the selection shuffle —
/// the filter is a deterministic `retain`, so enabling reputation never
/// consumes extra RNG from the server stream.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReputationBook {
    threshold: i64,
    scores: BTreeMap<u64, i64>,
}

impl ReputationBook {
    /// An empty book: clients start at score 0 and stay eligible while
    /// their score is at least `threshold` (so a threshold of, say, −2
    /// tolerates two bad rounds before exclusion).
    pub fn new(threshold: i64) -> Self {
        ReputationBook {
            threshold,
            scores: BTreeMap::new(),
        }
    }

    /// The exclusion threshold.
    pub fn threshold(&self) -> i64 {
        self.threshold
    }

    /// `client`'s current score (0 if never seen).
    pub fn score(&self, client: u64) -> i64 {
        self.scores.get(&client).copied().unwrap_or(0)
    }

    /// Rewards `client` for completing a round.
    pub fn credit(&mut self, client: u64) {
        *self.scores.entry(client).or_insert(0) += 1;
    }

    /// Penalizes `client` for straggling or failing a round.
    pub fn debit(&mut self, client: u64) {
        *self.scores.entry(client).or_insert(0) -= 1;
    }

    /// Whether `client` may still be selected.
    pub fn eligible(&self, client: u64) -> bool {
        self.score(client) >= self.threshold
    }

    /// Number of clients with a recorded score.
    pub fn tracked(&self) -> usize {
        self.scores.len()
    }

    /// Applies one round of outcome feedback: every completing client
    /// is credited, every shed client debited, and every tracked client
    /// the round did *not* touch decays toward zero (`s ← s·3/4`,
    /// truncating toward zero, entries reaching zero forgotten).
    ///
    /// Decaying only the untouched keeps both halves of the feature
    /// honest: a device that churned away (or was excluded and is never
    /// selected again) sheds its debt within a few rounds and becomes
    /// eligible once more, while a persistent straggler — debited every
    /// round it appears in — never decays and stays below threshold.
    /// Decaying everyone each round would instead let an always-bad
    /// client oscillate around the threshold (truncation pulls `−1`
    /// back to `0` between debits) and erode earned credit.
    pub fn note_round(&mut self, completed: &[u64], shed: &[u64]) {
        for &c in completed {
            self.credit(c);
        }
        for &c in shed {
            self.debit(c);
        }
        self.scores.retain(|c, s| {
            if !completed.contains(c) && !shed.contains(c) {
                *s = *s * 3 / 4;
            }
            *s != 0
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{decode, encode};

    fn weights(v: f32) -> ModelWeights {
        ModelWeights::new(vec![LayerWeights {
            w: Tensor::full(&[2, 2], v),
            b: Tensor::full(&[2], v),
        }])
    }

    #[test]
    fn persona_assignment_is_pure_and_respects_fractions() {
        let plan = AdversaryPlan::seeded(9).poisoners(0.2).colluders(0.1);
        let n = 4000u64;
        let first: Vec<_> = (0..n).map(|c| plan.persona_of(c)).collect();
        let second: Vec<_> = (0..n).map(|c| plan.persona_of(c)).collect();
        assert_eq!(first, second);
        let poisoners = first
            .iter()
            .filter(|p| **p == Some(Persona::Poisoner))
            .count();
        let colluders = first
            .iter()
            .filter(|p| **p == Some(Persona::Colluder))
            .count();
        let frac = poisoners as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.03, "poisoner fraction {frac}");
        let frac = colluders as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.03, "colluder fraction {frac}");
        assert!(AdversaryPlan::seeded(9).persona_of(3).is_none());
    }

    #[test]
    fn different_seeds_pick_different_hostile_sets() {
        let a = AdversaryPlan::seeded(1).poisoners(0.3);
        let b = AdversaryPlan::seeded(2).poisoners(0.3);
        assert_ne!(a.hostile_in(256), b.hostile_in(256));
    }

    #[test]
    fn poisoned_flips_the_update_deterministically() {
        let plan = AdversaryPlan::seeded(7).poisoners(1.0).poison_noise(0.0);
        let global = weights(1.0);
        let trained = weights(1.5);
        let poisoned = plan.poisoned(0, 0, &global, &trained).unwrap();
        for l in poisoned.iter() {
            for &x in l.w.data() {
                assert!((x - 0.5).abs() < 1e-6, "expected 1 - 0.5 = 0.5, got {x}");
            }
        }
        let noisy = AdversaryPlan::seeded(7).poisoners(1.0).poison_noise(0.2);
        let a = noisy.poisoned(3, 5, &global, &trained).unwrap();
        let b = noisy.poisoned(3, 5, &global, &trained).unwrap();
        assert_eq!(a, b);
        let other_round = noisy.poisoned(3, 6, &global, &trained).unwrap();
        assert_ne!(a, other_round);
    }

    #[test]
    fn scaled_boosts_the_update() {
        let plan = AdversaryPlan::seeded(7).scalers(1.0).scale_boost(10.0);
        let global = weights(1.0);
        let trained = weights(1.1);
        let scaled = plan.scaled(&global, &trained).unwrap();
        for l in scaled.iter() {
            for &x in l.w.data() {
                assert!((x - 2.0).abs() < 1e-4, "expected 1 + 10*0.1 = 2, got {x}");
            }
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(AdversaryPlan::seeded(0).poisoners(1.5).validate().is_err());
        assert!(AdversaryPlan::seeded(0)
            .poisoners(0.6)
            .scalers(0.6)
            .validate()
            .is_err());
        assert!(AdversaryPlan::seeded(0)
            .poison_strength(f32::NAN)
            .validate()
            .is_err());
        assert!(AdversaryPlan::seeded(0)
            .poisoners(0.2)
            .scalers(0.1)
            .validate()
            .is_ok());
    }

    #[test]
    fn plan_round_trips_on_the_wire() {
        let plan = AdversaryPlan::seeded(42)
            .poisoners(0.25)
            .scalers(0.05)
            .free_riders(0.1)
            .colluders(0.1)
            .poison_strength(2.0)
            .poison_noise(0.05)
            .scale_boost(16.0);
        // `decode` also demands the plan consumed every byte.
        let back: AdversaryPlan = decode(&encode(&plan)).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn collusion_log_is_order_independent() {
        let log = CollusionLog::default();
        log.observe(5, 1, &weights(1.0));
        log.observe(2, 0, &weights(0.5));
        log.observe(5, 0, &weights(0.5));
        assert_eq!(log.colluders(), vec![2, 5]);
        assert_eq!(log.rounds_observed(), 2);
        let snaps = log.snapshots();
        assert_eq!(snaps[0].0, 0);
        assert_eq!(snaps[1].0, 1);
    }

    #[test]
    fn reputation_filters_after_threshold() {
        let mut book = ReputationBook::new(-2);
        assert!(book.eligible(7));
        book.debit(7);
        book.debit(7);
        assert!(book.eligible(7));
        book.debit(7);
        assert!(!book.eligible(7));
        book.credit(7);
        assert!(book.eligible(7));
        assert_eq!(book.score(7), -2);
        assert_eq!(book.tracked(), 1);
    }

    #[test]
    fn churned_device_decays_back_to_eligible() {
        // A device that straggled below threshold, then disappeared
        // (never selected again, so never touched by an outcome),
        // sheds its debt over a few rounds and regains eligibility.
        let mut book = ReputationBook::new(-2);
        for _ in 0..4 {
            book.note_round(&[], &[7]);
        }
        assert_eq!(book.score(7), -4);
        assert!(!book.eligible(7));
        let mut rounds = 0;
        while !book.eligible(7) {
            book.note_round(&[1], &[]); // other clients' round; 7 untouched
            rounds += 1;
            assert!(rounds < 16, "client 7 never recovered");
        }
        // −4 → −3 → −2: two decay rounds reach the −2 threshold.
        assert_eq!(rounds, 2);
        // Left alone, the debt is fully forgotten and the entry dropped.
        book.note_round(&[1], &[]);
        book.note_round(&[1], &[]);
        assert_eq!(book.score(7), 0);
        assert!(!book.scores.contains_key(&7), "zero score not forgotten");
    }

    #[test]
    fn persistent_straggler_never_decays_free() {
        // A client shed every round it appears in is touched every
        // round, so decay never applies: it crosses the threshold and
        // stays below it no matter how long the federation runs.
        let mut book = ReputationBook::new(-2);
        for round in 0..20 {
            book.note_round(&[1, 2], &[7]);
            if round >= 2 {
                assert!(!book.eligible(7), "straggler escaped at round {round}");
            }
        }
        assert_eq!(book.score(7), -20);
        // Completing clients keep their earned credit while active.
        assert_eq!(book.score(1), 20);
    }

    #[test]
    fn decay_erodes_idle_credit_toward_zero() {
        // Earned credit is not a permanent shield: a formerly-good
        // client that stops participating drifts back to the neutral
        // score instead of banking goodwill forever.
        let mut book = ReputationBook::new(-2);
        for _ in 0..5 {
            book.note_round(&[7], &[]);
        }
        assert_eq!(book.score(7), 5);
        for _ in 0..8 {
            book.note_round(&[1], &[]);
        }
        assert_eq!(book.score(7), 0);
        assert!(book.eligible(7));
    }
}
