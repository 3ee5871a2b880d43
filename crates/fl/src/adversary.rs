//! Seeded adversarial client personas for hostile-fleet simulation.
//!
//! The fault layer ([`crate::faults`]) covers *failure*; this module
//! covers *malice*. An [`AdversaryPlan`] assigns each client a
//! [`Persona`] — update poisoner, update scaler or free-rider — as a
//! **pure function of (scenario seed, client id)**, using the same
//! salted-RNG discipline as `faults::FaultPlan`: no shared stream, no
//! wall clock, so the same fleet is hostile in the same way on every
//! worker, shard, process and transport.
//!
//! Personas act entirely on the client side of the round exchange:
//!
//! * **Poisoner** — trains honestly, then uploads
//!   `global − strength·(trained − global) + noise`: the negated update
//!   plus seeded uniform noise, the classic sign-flip model-poisoning
//!   attack.
//! * **Scaler** — uploads `global + 8·(trained − global)`
//!   (`SCALE_BOOST`), the boosted-update (model replacement) attack.
//! * **Free-rider** — skips training entirely and echoes the downloaded
//!   global weights back, claiming a full cycle's samples.
//!
//! The server-side defense lives next door: robust aggregation in
//! [`crate::aggregate`] ([`crate::Aggregator`]).
//!
//! **Determinism.** Persona assignment and every poisoner noise draw
//! key on `(seed, salt, client, round)` through
//! `faults::decision_rng`'s SplitMix64 mix. Nothing here
//! touches the server's selection/screening RNG stream — asserted by
//! `clean_fleet_consumes_no_server_rng` in the runner tests.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use gradsec_nn::model::{LayerWeights, ModelWeights};
use gradsec_tensor::Tensor;

use crate::faults::decision_rng;
use crate::wire::wire_struct;
use crate::{FlError, Result};

/// Domain-separation salts for adversary decisions, disjoint from the
/// fault salts so a hostile fleet and a faulty fleet never correlate.
const SALT_PERSONA: u64 = 0x5045_5253_4F4E_4131; // "PERSONA1"
const SALT_POISON: u64 = 0x504F_4953_4F4E_5231; // "POISONR1"

/// The factor a [`Persona::Scaler`] multiplies its update by.
pub(crate) const SCALE_BOOST: f32 = 8.0;

/// The behavior a hostile client exhibits for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persona {
    /// Sign-flips its update and adds seeded uniform noise.
    Poisoner,
    /// Boosts its update by a large factor (model replacement).
    Scaler,
    /// Skips training and echoes the global model back.
    FreeRider,
}

/// The full adversarial scenario of one federation run: which fraction
/// of the fleet is hostile, in what mix, and how strongly.
///
/// Follows the `FaultPlan` pattern: seeded constructor, chained
/// `#[must_use]` knobs, [`validate`](Self::validate) called at assembly,
/// and a [`Wire`](crate::message::Wire) impl so distributed shard
/// processes re-derive the exact same personas from the `ShardConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryPlan {
    seed: u64,
    poisoners: f64,
    scalers: f64,
    free_riders: f64,
    poison_strength: f32,
    poison_noise: f32,
}

impl AdversaryPlan {
    /// A quiet plan (no hostile clients) under `seed`, with default
    /// attack strengths: poison strength 1 (pure sign flip), poison
    /// noise 0.1.
    pub fn seeded(seed: u64) -> Self {
        AdversaryPlan {
            seed,
            poisoners: 0.0,
            scalers: 0.0,
            free_riders: 0.0,
            poison_strength: 1.0,
            poison_noise: 0.1,
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

    /// `true` when no persona fraction is positive — the plan changes
    /// nothing about the run.
    pub(crate) fn is_quiet(&self) -> bool {
        self.poisoners == 0.0 && self.scalers == 0.0 && self.free_riders == 0.0
    }

    /// Checks every knob is in range.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for fractions outside `[0, 1]`, a
    /// mix summing past 1 by more than rounding, or non-finite strengths.
    pub fn validate(&self) -> Result<()> {
        for (name, f) in [
            ("poisoners", self.poisoners),
            ("scalers", self.scalers),
            ("free_riders", self.free_riders),
        ] {
            if !(0.0..=1.0).contains(&f) || f.is_nan() {
                return Err(FlError::BadConfig {
                    reason: format!("{name} fraction must be in [0, 1], got {f}"),
                });
            }
        }
        // Decimal fractions rarely sum to exactly 1.0 in binary
        // (0.34 + 0.56 + 0.10 is 1 + 2⁻⁵²), so allow a few ULPs of slack.
        let total = self.poisoners + self.scalers + self.free_riders;
        if total > 1.0 + 4.0 * f64::EPSILON {
            return Err(FlError::BadConfig {
                reason: format!("persona fractions sum to {total} > 1"),
            });
        }
        for (name, v) in [
            ("poison_strength", self.poison_strength),
            ("poison_noise", self.poison_noise),
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
    pub(crate) fn persona_of(&self, client: u64) -> Option<Persona> {
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
        None
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
    pub(crate) fn poisoned(
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
    /// `global + SCALE_BOOST·(trained − global)`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Nn`] if `trained` and `global` disagree on
    /// architecture.
    pub(crate) fn scaled(
        &self,
        global: &ModelWeights,
        trained: &ModelWeights,
    ) -> Result<ModelWeights> {
        let mut out = global.clone();
        out.scale(1.0 - SCALE_BOOST);
        out.add_scaled(trained, SCALE_BOOST)?;
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
        poison_strength,
        poison_noise,
    },
    validate = AdversaryPlan::validate
);

/// The view a client's adversarial behavior needs at cycle time: its
/// persona and the scenario knobs.
#[derive(Debug, Clone)]
pub struct Adversary {
    /// This client's persona.
    pub(crate) persona: Persona,
    /// The scenario configuration.
    pub(crate) plan: Arc<AdversaryPlan>,
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
        let plan = AdversaryPlan::seeded(9).poisoners(0.2).free_riders(0.1);
        let n = 4000u64;
        let first: Vec<_> = (0..n).map(|c| plan.persona_of(c)).collect();
        let second: Vec<_> = (0..n).map(|c| plan.persona_of(c)).collect();
        assert_eq!(first, second);
        let share = |persona| {
            let count = first.iter().filter(|p| **p == Some(persona)).count();
            count as f64 / n as f64
        };
        let frac = share(Persona::Poisoner);
        assert!((frac - 0.2).abs() < 0.03, "poisoner fraction {frac}");
        let frac = share(Persona::FreeRider);
        assert!((frac - 0.1).abs() < 0.03, "free-rider fraction {frac}");
        assert!(AdversaryPlan::seeded(9).persona_of(3).is_none());
    }

    #[test]
    fn different_seeds_pick_different_hostile_sets() {
        let a = AdversaryPlan::seeded(1).poisoners(0.3);
        let b = AdversaryPlan::seeded(2).poisoners(0.3);
        let hostile = |plan: &AdversaryPlan| -> Vec<u64> {
            (0..256).filter(|&c| plan.persona_of(c).is_some()).collect()
        };
        assert_ne!(hostile(&a), hostile(&b));
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
        let plan = AdversaryPlan::seeded(7).scalers(1.0);
        let global = weights(1.0);
        let trained = weights(1.1);
        let scaled = plan.scaled(&global, &trained).unwrap();
        for l in scaled.iter() {
            for &x in l.w.data() {
                assert!((x - 1.8).abs() < 1e-4, "expected 1 + 8*0.1 = 1.8, got {x}");
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
    fn a_mix_summing_to_one_is_accepted() {
        // 0.34 + 0.56 + 0.10 rounds to 1 + 2⁻⁵² in f64.
        let whole = AdversaryPlan::seeded(1)
            .poisoners(0.34)
            .scalers(0.56)
            .free_riders(0.10);
        whole.validate().unwrap();
        assert!((0..64).all(|c| whole.persona_of(c).is_some()));
        let over = AdversaryPlan::seeded(1)
            .poisoners(0.34)
            .scalers(0.57)
            .free_riders(0.10);
        assert!(over.validate().is_err(), "1.01 is still refused");
    }

    #[test]
    fn plan_round_trips_on_the_wire() {
        let plan = AdversaryPlan::seeded(42)
            .poisoners(0.25)
            .scalers(0.05)
            .free_riders(0.1)
            .poison_strength(2.0)
            .poison_noise(0.05);
        // `decode` also demands the plan consumed every byte.
        let back: AdversaryPlan = decode(&encode(&plan)).unwrap();
        assert_eq!(plan, back);
    }
}
