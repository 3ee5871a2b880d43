//! Seeded update poisoners for hostile-fleet simulation.
//!
//! The fault layer ([`crate::faults`]) covers *failure*; this module
//! covers *malice*. An [`AdversaryPlan`] decides whether each client is
//! an update poisoner as a **pure function of (scenario seed, client
//! id)**, using the same salted-RNG discipline as `faults::FaultPlan`:
//! no shared stream, no wall clock, so the same fleet is hostile in the
//! same way on every worker, shard, process and transport.
//!
//! A poisoner acts entirely on the client side of the round exchange: it
//! trains honestly, then uploads
//! `global − strength·(trained − global) + noise` — the negated update
//! plus seeded uniform noise, the classic sign-flip model-poisoning
//! attack.
//!
//! The server-side defense lives next door: robust aggregation in
//! [`crate::aggregate`] ([`crate::Aggregator`]).
//!
//! **Determinism.** The poisoner draw and every poisoner noise draw
//! key on `(seed, salt, client, round)` through
//! `faults::decision_rng`'s SplitMix64 mix. Nothing here
//! touches the server's selection/screening RNG stream — asserted by
//! `clean_fleet_consumes_no_server_rng` in the runner tests.

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

/// The full adversarial scenario of one federation run: which fraction
/// of the fleet poisons its updates, and how strongly.
///
/// Follows the `FaultPlan` pattern: seeded constructor, chained
/// `#[must_use]` knobs, [`validate`](Self::validate) called at assembly,
/// and a [`Wire`](crate::message::Wire) impl so distributed shard
/// processes re-derive the exact same poisoners from the `ShardConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryPlan {
    seed: u64,
    poisoners: f64,
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
            poison_strength: 1.0,
            poison_noise: 0.1,
        }
    }

    /// Fraction of the fleet that poisons its updates.
    #[must_use]
    pub fn poisoners(mut self, fraction: f64) -> Self {
        self.poisoners = fraction;
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

    /// Checks every knob is in range.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for a poisoner fraction outside
    /// `[0, 1]` or non-finite strengths.
    pub fn validate(&self) -> Result<()> {
        let f = self.poisoners;
        if !(0.0..=1.0).contains(&f) {
            return Err(FlError::BadConfig {
                reason: format!("poisoners fraction must be in [0, 1], got {f}"),
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

    /// Whether `client` poisons its updates — a pure function of
    /// `(seed, client)`, identical on every worker, shard, process and
    /// transport.
    pub(crate) fn poisons(&self, client: u64) -> bool {
        decision_rng(self.seed, SALT_PERSONA, client, 0).random::<f64>() < self.poisoners
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
        poison_strength,
        poison_noise,
    },
    validate = AdversaryPlan::validate
);

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
        let plan = AdversaryPlan::seeded(9).poisoners(0.2);
        let n = 4000u64;
        let first: Vec<_> = (0..n).map(|c| plan.poisons(c)).collect();
        let second: Vec<_> = (0..n).map(|c| plan.poisons(c)).collect();
        assert_eq!(first, second);
        let frac = first.iter().filter(|&&p| p).count() as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.03, "poisoner fraction {frac}");
        assert!(!AdversaryPlan::seeded(9).poisons(3));
        let all = AdversaryPlan::seeded(9).poisoners(1.0);
        assert!((0..64).all(|c| all.poisons(c)));
    }

    #[test]
    fn different_seeds_pick_different_hostile_sets() {
        let a = AdversaryPlan::seeded(1).poisoners(0.3);
        let b = AdversaryPlan::seeded(2).poisoners(0.3);
        let hostile =
            |plan: &AdversaryPlan| -> Vec<u64> { (0..256).filter(|&c| plan.poisons(c)).collect() };
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
    fn validate_rejects_bad_knobs() {
        assert!(AdversaryPlan::seeded(0).poisoners(1.5).validate().is_err());
        assert!(AdversaryPlan::seeded(0)
            .poisoners(f64::NAN)
            .validate()
            .is_err());
        assert!(AdversaryPlan::seeded(0)
            .poison_strength(f32::NAN)
            .validate()
            .is_err());
        assert!(AdversaryPlan::seeded(0)
            .poison_noise(-0.1)
            .validate()
            .is_err());
        assert!(AdversaryPlan::seeded(0).poisoners(1.0).validate().is_ok());
    }

    #[test]
    fn plan_round_trips_on_the_wire() {
        let plan = AdversaryPlan::seeded(42)
            .poisoners(0.25)
            .poison_strength(2.0)
            .poison_noise(0.05);
        // `decode` also demands the plan consumed every byte.
        let back: AdversaryPlan = decode(&encode(&plan)).unwrap();
        assert_eq!(plan, back);
    }
}
