//! The FL server.

use rand::rngs::StdRng;
use rand::SeedableRng;

use gradsec_nn::model::ModelWeights;
use gradsec_tee::attestation::Measurement;

use crate::adversary::ReputationBook;
use crate::aggregate::fedavg;
use crate::config::TrainingPlan;
use crate::message::{ModelDownload, UpdateUpload};
use crate::selection::{
    draw_challenge, sample_indices, screen_clients, screen_planned, ScreenPlan, ScreeningOutcome,
};
use crate::{FlError, Result};

/// The central FL server: owns the global model, screens and samples
/// clients and aggregates updates. It keeps no past global: an observer
/// that wants the trajectory (the long-term DPIA attacker, paper §3.2)
/// records each global itself, as a client that downloads it would.
#[derive(Debug)]
pub struct FlServer {
    plan: TrainingPlan,
    /// The current global model, replaced at every commit.
    global: ModelWeights,
    expected_measurement: Measurement,
    rng: StdRng,
    round: u64,
    spare: usize,
    screening_sample: Option<usize>,
    reputation: Option<ReputationBook>,
}

impl FlServer {
    /// Creates a server with the initial global model.
    ///
    /// `expected_measurement` is the whitelisted hash of the genuine
    /// GradSec TA; quotes reporting anything else are rejected during
    /// selection.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for an invalid plan.
    pub fn new(
        plan: TrainingPlan,
        initial: ModelWeights,
        expected_measurement: Measurement,
    ) -> Result<Self> {
        plan.validate()?;
        Ok(FlServer {
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
            global: initial,
            expected_measurement,
            round: 0,
            spare: 0,
            screening_sample: None,
            reputation: None,
        })
    }

    /// Over-provisions every round's selection by `spare` extra clients:
    /// [`select`](Self::select) samples `clients_per_round + spare`, and
    /// the runner commits the first `clients_per_round` *survivors* in
    /// canonical order — the slack that keeps faulted rounds aggregating
    /// a full cohort. Zero (the default) restores exact-`k` sampling.
    pub fn overprovision(&mut self, spare: usize) {
        self.spare = spare;
    }

    /// The configured selection spare count.
    pub fn spare(&self) -> usize {
        self.spare
    }

    /// Caps per-round screening at `m` uniformly-sampled candidates
    /// instead of the whole fleet, so selection cost stops being
    /// O(fleet). `None` (the default) or `m >= fleet` restores full
    /// screening with a bit-identical RNG stream — the sub-sample draw
    /// consumes nothing in that case.
    pub fn set_screening_sample(&mut self, m: Option<usize>) {
        self.screening_sample = m;
    }

    /// The configured screening sample cap, if any.
    pub fn screening_sample(&self) -> Option<usize> {
        self.screening_sample
    }

    /// Enables (or disables) reputation-based selection filtering.
    /// Clients whose accumulated score sinks below the book's threshold
    /// are removed from the eligible set before the selection shuffle —
    /// a deterministic `retain`, so the server's RNG stream is
    /// untouched by the feature being on.
    pub fn set_reputation(&mut self, book: Option<ReputationBook>) {
        self.reputation = book;
    }

    /// The reputation book, if selection filtering is enabled.
    pub fn reputation(&self) -> Option<&ReputationBook> {
        self.reputation.as_ref()
    }

    /// Feeds one round's outcome classes into the reputation book (a
    /// no-op when reputation is disabled). Deterministic: outcome
    /// classes are already canonical, ascending lists in every path.
    /// Besides crediting/debiting the touched clients, the book decays
    /// every *untouched* score toward zero, so churned devices recover
    /// eligibility while persistent stragglers stay caught (see
    /// [`ReputationBook::note_round`]).
    pub fn note_round_outcomes(&mut self, completed: &[usize], shed: &[usize]) {
        if let Some(book) = &mut self.reputation {
            let completed: Vec<u64> = completed.iter().map(|&g| g as u64).collect();
            let shed: Vec<u64> = shed.iter().map(|&g| g as u64).collect();
            book.note_round(&completed, &shed);
        }
    }

    /// The training plan.
    pub fn plan(&self) -> &TrainingPlan {
        &self.plan
    }

    /// The current global model.
    pub fn global(&self) -> &ModelWeights {
        &self.global
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Draws this round's screening plan for a fleet of `n` clients: the
    /// candidate set (all of `0..n`, or a uniform sub-sample when
    /// [`set_screening_sample`](Self::set_screening_sample) caps it) plus
    /// one challenge per candidate, in global candidate order.
    ///
    /// With full screening no sub-sample draw happens and the nonce
    /// stream is exactly what [`select`](Self::select) always consumed;
    /// with a cap, the same plan drives every fleet alike, so they
    /// cannot drift from each other.
    pub fn screen_plan(&mut self, n: usize) -> ScreenPlan {
        let candidates = match self.screening_sample {
            Some(m) if m < n => sample_indices(n, m, &mut self.rng),
            _ => (0..n).collect(),
        };
        let challenges = candidates
            .iter()
            .map(|_| draw_challenge(&mut self.rng))
            .collect();
        ScreenPlan {
            candidates,
            challenges,
        }
    }

    /// The sampling tail every selection path shares — keeping it single
    /// is part of the bit-identity guarantee across fleets.
    /// `outcomes` is index-aligned with the plan's candidates; samples
    /// `clients_per_round + spare` eligible *global* indices, returned in
    /// canonical (sorted) order.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoEligibleClients`] when nobody passes.
    pub fn sample_screened(
        &mut self,
        plan: &ScreenPlan,
        outcomes: &[ScreeningOutcome],
    ) -> Result<Vec<usize>> {
        use rand::seq::SliceRandom;
        let k = self.plan.clients_per_round + self.spare;
        let mut eligible: Vec<usize> = plan
            .candidates
            .iter()
            .zip(outcomes.iter())
            .filter(|(_, o)| **o == ScreeningOutcome::Eligible)
            .map(|(&g, _)| g)
            .collect();
        if let Some(book) = &self.reputation {
            // Reputation exclusion happens *before* the shuffle and is a
            // plain retain: no RNG is consumed whether or not the book
            // filters anyone, so enabling the feature on a clean fleet
            // leaves the selection stream bit-identical.
            eligible.retain(|&g| book.eligible(g as u64));
        }
        eligible.shuffle(&mut self.rng);
        eligible.truncate(k);
        eligible.sort_unstable();
        if eligible.is_empty() {
            return Err(FlError::NoEligibleClients { round: self.round });
        }
        Ok(eligible)
    }

    /// Screens all clients over their endpoints and samples this round's
    /// participants (Figure 2-➊).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoEligibleClients`] when nobody passes.
    pub fn select(&mut self, clients: &mut [crate::transport::RemoteClient]) -> Result<Vec<usize>> {
        let plan = self.screen_plan(clients.len());
        let outcomes = screen_planned(clients, self.expected_measurement, &plan);
        self.sample_screened(&plan, &outcomes)
    }

    /// Screens all clients, returning the per-client verdicts (used by
    /// examples and tests to show who was filtered and why).
    pub fn screen(
        &mut self,
        clients: &mut [crate::transport::RemoteClient],
    ) -> Vec<ScreeningOutcome> {
        screen_clients(clients, self.expected_measurement, &mut self.rng)
    }

    /// Builds the model download for the current round (Figure 2-➋).
    ///
    /// `protected_layers` is the GradSec configuration for this cycle
    /// (supplied by the protection scheduler in `gradsec-core`).
    pub fn download(&self, protected_layers: Vec<usize>) -> ModelDownload {
        ModelDownload {
            round: self.round,
            weights: self.global().clone(),
            plan: self.plan,
            protected_layers,
        }
    }

    /// Aggregates the round's updates into the next global model
    /// (Figure 2-➍) and commits it.
    ///
    /// # Errors
    ///
    /// Propagates aggregation failures (empty set, mismatches).
    pub fn aggregate(&mut self, updates: &[UpdateUpload]) -> Result<()> {
        let next = fedavg(updates)?;
        self.commit(next);
        Ok(())
    }

    /// Installs an already-aggregated global model — the commit half of
    /// [`aggregate`](Self::aggregate), used by the round driver after
    /// folding the round's [`PartialAggregate`] — replaces the global,
    /// dropping the outgoing one, and advances the round counter.
    ///
    /// [`PartialAggregate`]: crate::aggregate::PartialAggregate
    pub fn commit(&mut self, next: ModelWeights) {
        self.global = next;
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DeviceProfile, FlClient};
    use crate::trainer::PlainSgdTrainer;
    use crate::transport::inprocess::LocalEndpoint;
    use crate::transport::RemoteClient;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;
    use gradsec_tee::crypto::sha256::sha256;
    use std::sync::Arc;

    fn measurement() -> Measurement {
        Measurement(sha256(b"gradsec-ta-code-v1"))
    }

    fn plan() -> TrainingPlan {
        TrainingPlan {
            rounds: 2,
            clients_per_round: 2,
            batches_per_cycle: 1,
            batch_size: 4,
            learning_rate: 0.05,
            seed: 3,
        }
    }

    fn make_clients(devices: Vec<DeviceProfile>) -> Vec<RemoteClient> {
        let ds = Arc::new(SyntheticCifar100::with_classes(16, 2, 1));
        devices
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let client = FlClient::new(
                    i as u64,
                    d,
                    ds.clone(),
                    (0..16).collect(),
                    zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap(),
                    Box::new(PlainSgdTrainer),
                );
                RemoteClient::connect(Box::new(LocalEndpoint::new(client))).unwrap()
            })
            .collect()
    }

    #[test]
    fn selection_filters_and_samples() {
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        let mut server = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        let mut clients = make_clients(vec![
            DeviceProfile::trustzone(0),
            DeviceProfile::legacy(1),
            DeviceProfile::compromised(2),
            DeviceProfile::trustzone(3),
        ]);
        let picked = server.select(&mut clients).unwrap();
        assert_eq!(picked, vec![0, 3]);
    }

    #[test]
    fn empty_reputation_book_changes_nothing_including_the_rng_stream() {
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        let devices = || (0..6).map(DeviceProfile::trustzone).collect::<Vec<_>>();
        let mut plain = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        let mut with_book = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        with_book.set_reputation(Some(ReputationBook::new(-2)));
        // Several consecutive rounds of selection: the retain consumes
        // no RNG, so the streams stay aligned across rounds.
        for _ in 0..3 {
            let a = plain.select(&mut make_clients(devices())).unwrap();
            let b = with_book.select(&mut make_clients(devices())).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reputation_excludes_clients_below_threshold() {
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        let mut server = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        let mut book = ReputationBook::new(0);
        book.debit(0);
        book.debit(3);
        server.set_reputation(Some(book));
        let picked = server
            .select(&mut make_clients(
                (0..6).map(DeviceProfile::trustzone).collect(),
            ))
            .unwrap();
        assert!(!picked.contains(&0) && !picked.contains(&3), "{picked:?}");
        // Outcome recording feeds back in.
        server.note_round_outcomes(&picked, &[]);
        for &g in &picked {
            assert_eq!(server.reputation().unwrap().score(g as u64), 1);
        }
    }

    #[test]
    fn overprovisioned_selection_samples_k_plus_spare() {
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        let mut server = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        assert_eq!(server.spare(), 0);
        server.overprovision(1);
        assert_eq!(server.spare(), 1);
        let mut clients = make_clients(vec![
            DeviceProfile::trustzone(0),
            DeviceProfile::trustzone(1),
            DeviceProfile::trustzone(2),
            DeviceProfile::trustzone(3),
        ]);
        // k = 2, spare = 1 -> 3 sampled, sorted canonical order.
        let picked = server.select(&mut clients).unwrap();
        assert_eq!(picked.len(), 3);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn screening_sample_at_or_above_fleet_matches_full_screening() {
        // A cap that doesn't bind must consume the exact same RNG stream
        // as no cap at all — the sub-sample draw is skipped entirely — so
        // legacy runs and capped runs stay bit-identical.
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        let devices = || (0..5).map(DeviceProfile::trustzone).collect::<Vec<_>>();
        let mut reference = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        let reference_picked = reference.select(&mut make_clients(devices())).unwrap();
        for cap in [5usize, 6, 64] {
            let mut server = FlServer::new(plan(), model.weights(), measurement()).unwrap();
            server.set_screening_sample(Some(cap));
            assert_eq!(server.screening_sample(), Some(cap));
            let picked = server.select(&mut make_clients(devices())).unwrap();
            assert_eq!(picked, reference_picked, "cap {cap} diverged from full");
        }
    }

    #[test]
    fn screening_sample_caps_candidates_and_picks_within_them() {
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        let mut server = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        server.set_screening_sample(Some(3));
        let plan = server.screen_plan(64);
        assert_eq!(plan.candidates.len(), 3);
        assert_eq!(plan.challenges.len(), 3);
        // Candidates are a sorted subset of the fleet (global order).
        assert!(plan.candidates.windows(2).all(|w| w[0] < w[1]));
        assert!(plan.candidates.iter().all(|&g| g < 64));
        // Picks can only come from the screened candidates.
        let outcomes = vec![ScreeningOutcome::Eligible; 3];
        let picked = server.sample_screened(&plan, &outcomes).unwrap();
        assert!(picked.iter().all(|g| plan.candidates.contains(g)));
    }

    #[test]
    fn screen_plan_is_deterministic_across_servers() {
        // Same seed + same cap => same candidates and the same nonce for
        // each — the property the distributed coordinator leans on to
        // keep remote screening bit-identical to the flat reference.
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        for cap in [None, Some(7), Some(100)] {
            let mut a = FlServer::new(plan(), model.weights(), measurement()).unwrap();
            let mut b = FlServer::new(plan(), model.weights(), measurement()).unwrap();
            a.set_screening_sample(cap);
            b.set_screening_sample(cap);
            assert_eq!(a.screen_plan(40), b.screen_plan(40), "cap {cap:?}");
        }
    }

    #[test]
    fn selection_fails_without_tee_clients() {
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        let mut server = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        let mut clients = make_clients(vec![DeviceProfile::legacy(0)]);
        assert!(matches!(
            server.select(&mut clients),
            Err(FlError::NoEligibleClients { .. })
        ));
    }

    #[test]
    fn full_round_advances_the_global() {
        let model = zoo::tiny_mlp(3 * 32 * 32, 4, 2, 100).unwrap();
        let mut server = FlServer::new(plan(), model.weights(), measurement()).unwrap();
        let mut clients = make_clients(vec![
            DeviceProfile::trustzone(0),
            DeviceProfile::trustzone(1),
        ]);
        let before = server.global().clone();
        let picked = server.select(&mut clients).unwrap();
        let download = server.download(vec![]);
        let updates: Vec<_> = picked
            .into_iter()
            .map(|i| clients[i].train(&download).unwrap())
            .collect();
        server.aggregate(&updates).unwrap();
        assert_eq!(server.round(), 1);
        // The global model moved.
        assert_ne!(server.global(), &before);
    }

    #[test]
    fn invalid_plan_rejected() {
        let model = zoo::tiny_mlp(4, 4, 2, 1).unwrap();
        let bad = TrainingPlan {
            rounds: 0,
            ..plan()
        };
        assert!(FlServer::new(bad, model.weights(), measurement()).is_err());
    }
}
