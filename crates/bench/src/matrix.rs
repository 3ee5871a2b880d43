//! The deployment matrix: one question — does this deployment commit
//! what the flat in-process run commits? — asked across fleet ×
//! deployment × codec × backend × fault plan × adversary plan ×
//! aggregator, plus the net, the local training plan, the protection
//! policy, the device mix and a screening cap. [`corners`] takes every
//! combination of the main axes' extremes and the paper's policies on
//! every path that can run them; [`interior`] draws whole cells from
//! every value of every axis with a seed, and names each section by that
//! seed so a failing draw replays from it. Both yield [`Section`]s that
//! carry [`accounted`]'s bars, for [`hold`](crate::gate::hold).

use gradsec_fl::{AdversaryPlan, Aggregator, CodecKind, FaultPlan, LatencyModel};
use gradsec_nn::BackendKind;

use crate::gate::{
    accounted, codec_bars, faults_landed, Bars, Deployment, Local, Net, Outcome, Policy, Scenario,
    Section, FLAT,
};

use Deployment::{InProcess, Mux, Processes, Trickle};

/// The matrix's fault plan: dropout, client 3 dead from round 1, lost
/// and garbled messages, and a latency tail past a deadline, with two
/// spares. An unscheduled cycle trains plain and bills no simulated
/// time, so the latency alone decides a straggler: one client in three
/// overruns the deadline, so every faulted corner sheds stragglers and
/// failures both.
pub fn faults() -> FaultPlan {
    FaultPlan::seeded(0xFA417)
        .dropout(0.10)
        .crash_at(3, 1)
        .drop_messages(0.05)
        .garble_replies(0.05)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .deadline_s(0.55)
        .spare(2)
}

/// A fifth of the fleet poisoning its updates.
pub fn poisoners() -> AdversaryPlan {
    AdversaryPlan::seeded(0xAD5).poisoners(0.2)
}

/// Where every corner runs: engine shards, the mux, shard servers.
const CORNER_PATHS: [Deployment; 3] = [InProcess(2, 2), Mux(2, 2), Processes(2, 2)];

/// Where a policy corner runs: one wide engine, engine shards, the mux,
/// shard servers.
const POLICY_PATHS: [Deployment; 4] =
    [InProcess(1, 4), InProcess(2, 2), Mux(2, 2), Processes(2, 2)];

/// The corners: `product`'s 96, the paper's policies on both nets
/// (`policies`), and the fleets only a screen tells apart — the mixed
/// fleet, TrustZone clients in the enclave beside legacy and compromised
/// devices, and a screening cap — on every corner path.
pub fn corners() -> Vec<Section> {
    let fleet = Scenario {
        cohort: 4,
        rounds: 2,
        local: Local::TwoSteps,
        ..Scenario::new(8)
    };
    let mixed = Scenario {
        policy: Policy::Secure,
        mixed: true,
        ..fleet.clone()
    };
    let capped = Scenario {
        screening: Some(6),
        ..fleet
    };
    let mut corners = product();
    corners.extend(policies());
    corners.push(corner(mixed, CORNER_PATHS.into(), accounted));
    corners.push(corner(capped, CORNER_PATHS.into(), accounted));
    corners
}

/// A corner: its scenario names it, and `bars` judge its reference run.
fn corner(
    scenario: Scenario,
    paths: Vec<Deployment>,
    bars: fn(&Scenario, &Outcome) -> Bars,
) -> Section {
    Section::new(format!("corner {scenario}"), scenario, paths).bars(bars)
}

/// Every combination of two extremes on five axes — fleet (all 4 clients
/// selected, or 6 of 24), backend (reference, tiled), faults (none,
/// [`faults`]), adversaries (none, [`poisoners`]) and aggregator (FedAvg,
/// median) — under each codec (identity, int8, delta-topk), each over two
/// rounds of two sampled batches per cycle ([`Local::TwoSteps`]) and
/// judged on engine shards, the mux and shard servers: 96 sections. A
/// lossy corner trains the 32-wide MLP, whose weight tensors span several
/// of a robust rule's fixed-size coordinate reads and dwarf the codec's
/// metadata; a clean one whose whole fleet trains each round also carries
/// [`near_dense`]'s bars, and a faulted one [`faulted`]'s.
fn product() -> Vec<Section> {
    let cell = |codec: CodecKind, mask: u32| {
        let on = |axis: u32| mask >> axis & 1 == 1;
        let (clients, cohort) = if on(0) { (24, 6) } else { (4, 4) };
        let mut scenario = Scenario {
            cohort,
            rounds: 2,
            local: Local::TwoSteps,
            codec,
            backend: [BackendKind::Reference, BackendKind::Tiled][usize::from(on(1))],
            faults: on(2).then(faults),
            adversaries: on(3).then(poisoners),
            aggregator: [Aggregator::FedAvg, Aggregator::Median][usize::from(on(4))],
            ..Scenario::new(clients)
        };
        if codec != CodecKind::Identity {
            scenario.net = Net::Mlp(32);
        }
        // Clean, and every client trains every round: the last round is
        // the codec's steady state, which its byte bar is set for.
        let steady = cohort == clients && !on(2) && !on(3);
        let bars = match (on(2), steady) {
            (true, _) => faulted,
            (false, true) => near_dense,
            (false, false) => accounted,
        };
        corner(scenario, CORNER_PATHS.into(), bars)
    };
    let codecs = [CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK];
    let cells = codecs
        .into_iter()
        .flat_map(|codec| (0..32).map(move |mask| (codec, mask)));
    cells.map(|(codec, mask)| cell(codec, mask)).collect()
}

/// The paper's policies — [`Policy::Secure`], the net's static sheltered
/// set in the enclave (`{L2}` on the MLP, `{L2, L5}` on LeNet), and a
/// [`Policy::Window`] redrawn every round — on both nets and both
/// backends: three of four clients a round, twice, judged on
/// [`POLICY_PATHS`] and the MLP also on the trickle mux. Every path,
/// shard servers included, trains the scheduled layers in the enclave,
/// and [`accounted`] checks each ledger's bill.
fn policies() -> Vec<Section> {
    let cell = |net: Net, policy: Policy, backend: BackendKind| {
        let scenario = Scenario {
            cohort: 3,
            rounds: 2,
            net,
            local: Local::TwoSteps,
            policy,
            backend,
            ..Scenario::new(4)
        };
        let mut paths = Vec::from(POLICY_PATHS);
        if net == Net::Mlp(8) {
            paths.push(Trickle(1, 1));
        }
        corner(scenario, paths, accounted)
    };
    let mut cells = Vec::new();
    for net in [Net::Mlp(8), Net::LeNet] {
        for policy in [Policy::Secure, Policy::Window] {
            cells.extend(BackendKind::ALL.map(|backend| cell(net, policy, backend)));
        }
    }
    cells
}

/// A clean corner's bars: [`accounted`]'s and [`codec_bars`]'. Identity
/// bills raw bytes; every path reads a lossy term the same way, so a
/// misread is invisible to parity, and the codec's pinned distance from
/// the dense run catches it.
fn near_dense(s: &Scenario, outcome: &Outcome) -> Bars {
    let mut bars = accounted(s, outcome);
    bars.extend(codec_bars(s, outcome));
    bars
}

/// A faulted corner's bars: [`accounted`]'s and [`faults_landed`]'.
fn faulted(s: &Scenario, outcome: &Outcome) -> Bars {
    let mut bars = accounted(s, outcome);
    bars.extend(faults_landed(s, outcome));
    bars
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
/// judged on two deployments. Draws are tamed where a value would make
/// the reference run itself fail: a trimmed mean needs three
/// updates, so a cohort of two or a faulted round (which may shed
/// clients) folds by median instead; an enclave-billed LeNet cycle
/// outlasts [`faults`]' deadline, so a faulted LeNet draw shelters
/// nothing instead; and a mixed fleet is 6 of 24 clients, half of them
/// TrustZone, screened uncapped.
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
            adversaries: d.coin().then(poisoners),
            aggregator: d.pick(&[
                Aggregator::FedAvg,
                Aggregator::TrimmedMean { trim: 1 },
                Aggregator::Median,
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
            if deployment != FLAT && !deployments.contains(&deployment) {
                deployments.push(deployment);
            }
        }
        if s.faults.is_some() && s.net == Net::LeNet {
            s.policy = Policy::Open;
        }
        Section::new(format!("seed {seed} #{i} {s}"), s, deployments).bars(accounted)
    };
    (0..n).map(&mut draw).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::run;

    /// No two corners share a scenario.
    #[test]
    fn corners_are_one_hundred_and_six_distinct_scenarios() {
        let corners = corners();
        let mut names: Vec<&str> = corners.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 106);
    }

    /// Every deployment kind and every policy appear among the corners,
    /// as do the mixed fleet and poisoners on shard servers, a median
    /// corner and a screening cap, and every faulted corner judges that
    /// its faults landed: losing any fails here by name.
    #[test]
    fn corners_cover_every_path_policy_and_fleet() {
        let corners = corners();
        let path = |d: &Deployment| match d {
            InProcess(..) => "in-process",
            Mux(..) => "mux",
            Trickle(..) => "trickle",
            Processes(..) => "procs",
        };
        let policy = |s: &Scenario| match s.policy {
            Policy::Open => "open",
            Policy::Secure => "secure",
            Policy::Window => "window",
        };
        let mut covered: Vec<&str> = corners
            .iter()
            .flat_map(|c| c.deployments.iter().map(path))
            .chain(corners.iter().map(|c| policy(&c.scenario)))
            .collect();
        let procs = |c: &Section| c.deployments.iter().any(|d| path(d) == "procs");
        let mixed = corners.iter().any(|c| c.scenario.mixed && procs(c));
        covered.extend(mixed.then_some("mixed fleet on procs"));
        let hostile = corners
            .iter()
            .any(|c| c.scenario.adversaries.is_some() && procs(c));
        covered.extend(hostile.then_some("poisoners on procs"));
        let median = corners
            .iter()
            .any(|c| c.scenario.aggregator == Aggregator::Median);
        covered.extend(median.then_some("median"));
        let capped = corners.iter().any(|c| c.scenario.screening.is_some());
        covered.extend(capped.then_some("screening cap"));
        // Judged on a clean run, a faulted corner's bars name the faults
        // that did not land.
        let clean = run(&Scenario::new(4), FLAT);
        let judged = |c: &Section| c.bars.map_or(vec![], |bars| bars(&c.scenario, &clean));
        let landed = corners
            .iter()
            .filter(|c| c.scenario.faults.is_some())
            .all(|c| {
                judged(c)
                    .iter()
                    .any(|(cell, ..)| *cell == "stragglers landed")
            });
        covered.extend(landed.then_some("faults landed"));
        let every = [
            "in-process",
            "mux",
            "trickle",
            "procs",
            "open",
            "secure",
            "window",
            "mixed fleet on procs",
            "poisoners on procs",
            "median",
            "screening cap",
            "faults landed",
        ];
        let missing: Vec<&str> = every.into_iter().filter(|e| !covered.contains(e)).collect();
        assert!(missing.is_empty(), "the corners lost {missing:?}");
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
            assert!(!section.deployments.contains(&FLAT));
            assert!(s.cohort <= s.clients && s.screening.is_none_or(|m| m <= s.clients));
        }
    }
}
