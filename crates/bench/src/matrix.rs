//! The deployment matrix: one question — does this deployment commit
//! what the flat in-process run commits? — asked across fleet ×
//! deployment × codec × backend × fault plan × adversary plan ×
//! aggregator, plus the net, the local training plan, the protection
//! policy, the device mix and a screening cap. [`corners`] takes every
//! combination of the main axes' extremes; [`interior`] draws whole
//! cells from every value of every axis with a seed, and names each
//! section by that seed so a failing draw replays from it. Both yield [`Section`]s that carry
//! [`accounted`]'s bars, for [`hold`](crate::gate::hold).

use gradsec_fl::{AdversaryPlan, Aggregator, CodecKind, FaultPlan, LatencyModel};
use gradsec_nn::BackendKind;

use crate::gate::{accounted, Deployment, Local, Net, Policy, Scenario, Section, FLAT};

use Deployment::{InProcess, Mux, Processes, Trickle};

/// The matrix's fault plan: dropout, client 3 dead from round 1, lost
/// and garbled messages, and a latency tail past a deadline, with two
/// spares.
pub fn faults() -> FaultPlan {
    FaultPlan::seeded(0xFA417)
        .dropout(0.10)
        .crash_at(3, 1)
        .drop_messages(0.05)
        .garble_replies(0.05)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .deadline_s(1.5)
        .spare(2)
}

/// Every hostile persona at once: poisoners, scalers, free-riders and a
/// colluding coalition.
pub fn personas() -> AdversaryPlan {
    AdversaryPlan::seeded(0xAD5)
        .poisoners(0.2)
        .scalers(0.1)
        .free_riders(0.1)
        .colluders(0.1)
}

/// Where every corner runs: engine shards, the mux, shard servers.
const CORNER_PATHS: [Deployment; 3] = [InProcess(2, 2), Mux(2, 2), Processes(2, 2)];

/// Every combination of two extremes on six axes — fleet (all 4 clients
/// selected, or 6 of 24), codec (identity, delta-topk), backend
/// (reference, tiled), faults (none, [`faults`]), adversaries (none,
/// [`personas`]) and aggregator (FedAvg, median) — each over two rounds
/// of two sampled batches per cycle ([`Local::TwoSteps`]) and judged on
/// engine shards, the mux and shard servers: 64 sections.
pub fn corners() -> Vec<Section> {
    let corner = |mask: u32| {
        let on = |axis: u32| mask >> axis & 1 == 1;
        let (clients, cohort) = if on(0) { (24, 6) } else { (4, 4) };
        let scenario = Scenario {
            cohort,
            rounds: 2,
            local: Local::TwoSteps,
            codec: [CodecKind::Identity, CodecKind::DeltaTopK][usize::from(on(1))],
            backend: [BackendKind::Reference, BackendKind::Tiled][usize::from(on(2))],
            faults: on(3).then(faults),
            adversaries: on(4).then(personas),
            aggregator: [Aggregator::FedAvg, Aggregator::Median][usize::from(on(5))],
            ..Scenario::new(clients)
        };
        let name = format!("corner {scenario}");
        Section::new(name, scenario, CORNER_PATHS.into()).bars(accounted)
    };
    (0..64).map(corner).collect()
}

/// A seeded stream of draws (splitmix64).
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }

    fn coin(&mut self) -> bool {
        self.pick(&[false, true])
    }
}

/// `n` sections drawn from every value of every axis by `seed`, each
/// judged on two deployments it can run on. Draws are tamed where a value
/// would make the reference run itself fail: a trimmed mean needs three
/// updates, so a cohort of two or a faulted round (which may shed
/// clients) folds by median instead, and a mixed fleet is 6 of 24
/// clients, half of them TrustZone, screened uncapped.
pub fn interior(seed: u64, n: usize) -> Vec<Section> {
    let mut d = Draws(seed);
    let mut draw = |i: usize| {
        let clients = d.pick(&[4, 8, 24]);
        let mut s = Scenario {
            cohort: d.pick(&[clients, clients / 2]),
            rounds: d.pick(&[1, 2, 3]),
            net: d.pick(&[Net::Mlp(8), Net::Mlp(32), Net::LeNet]),
            local: d.pick(&[Local::OneStep, Local::TwoSteps]),
            policy: d.pick(&[Policy::Open, Policy::Secure, Policy::Window]),
            mixed: d.coin(),
            backend: d.pick(&BackendKind::ALL),
            faults: d.coin().then(faults),
            adversaries: d.coin().then(personas),
            aggregator: d.pick(&[
                Aggregator::FedAvg,
                Aggregator::TrimmedMean { trim: 1 },
                Aggregator::Median,
                Aggregator::NormClip { tau: 1.0 },
            ]),
            codec: d.pick(&[CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK]),
            ..Scenario::new(clients)
        };
        s.screening = d.coin().then_some((s.cohort + 2).min(clients));
        let few = s.faults.is_some() || s.cohort < 3;
        if few && matches!(s.aggregator, Aggregator::TrimmedMean { .. }) {
            s.aggregator = Aggregator::Median;
        }
        if s.mixed {
            (s.clients, s.cohort, s.screening) = (24, 6, None);
        }
        let kinds: [fn(usize, usize) -> Deployment; 4] = [InProcess, Mux, Trickle, Processes];
        let mut deployments = Vec::new();
        while deployments.len() < 2 {
            let deployment = d.pick(&kinds)(d.pick(&[1, 2, 3]), d.pick(&[1, 2, 4]));
            if s.runs_on(deployment) && deployment != FLAT && !deployments.contains(&deployment) {
                deployments.push(deployment);
            }
        }
        Section::new(format!("seed {seed} #{i} {s}"), s, deployments).bars(accounted)
    };
    (0..n).map(&mut draw).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The corners are the full product: no two share a scenario, and
    /// every one can run on every corner path.
    #[test]
    fn corners_are_sixty_four_distinct_scenarios() {
        let corners = corners();
        let mut names: Vec<&str> = corners.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 64);
        let runnable = |c: &Section| c.deployments.iter().all(|&d| c.scenario.runs_on(d));
        assert!(corners.iter().all(runnable));
    }

    /// One seed, one interior; another seed, another.
    #[test]
    fn the_interior_is_a_function_of_its_seed() {
        let drawn = |seed| -> Vec<String> {
            let cell = |s: Section| format!("{} {:?}", s.scenario, s.deployments);
            interior(seed, 8).into_iter().map(cell).collect()
        };
        assert_eq!(drawn(42), drawn(42));
        assert_ne!(drawn(42), drawn(43));
        for section in interior(42, 32) {
            assert_eq!(section.deployments.len(), 2);
            let s = &section.scenario;
            assert!(section
                .deployments
                .iter()
                .all(|&d| s.runs_on(d) && d != FLAT));
            assert!(s.cohort <= s.clients && s.screening.is_none_or(|m| m <= s.clients));
        }
    }
}
