//! Hostile-fleet integration: a federation with seeded adversarial
//! personas (update poisoners, scalers, free-riders, colluders) must be
//! bit-identical across every execution path — flat, sharded and
//! multi-process, over the in-process and multiplexed transports —
//! because persona assignment is a pure function of `(scenario seed,
//! client id)` and every transform is applied client-side: a named slice
//! of the deployment matrix (`deployment_matrix.rs`), judged by the same
//! gate. Robust aggregation must hold the committed model near the clean
//! reference where plain FedAvg is dragged away, and a colluding
//! coalition's observation log must feed the fleet-scale membership
//! inference harness.

use gradsec::attacks::fleet::{coalition_attack_auc, FleetMiaConfig};
use gradsec::fl::{AdversaryPlan, Aggregator};
use gradsec_bench::gate::Deployment::{InProcess, Mux, Processes};
use gradsec_bench::gate::{diffs, hold, run, Local, Scenario, Section, FLAT};
use gradsec_bench::matrix;

/// 6 of 16 clients a round, three rounds of two sampled batches per
/// cycle, clean.
fn fleet() -> Scenario {
    Scenario {
        cohort: 6,
        rounds: 3,
        local: Local::TwoSteps,
        ..Scenario::new(16)
    }
}

#[test]
fn hostile_fleet_is_bit_identical_across_runners_and_transports() {
    let hostile = Scenario {
        adversaries: Some(matrix::personas()),
        ..fleet()
    };
    let mut cells = vec![InProcess(1, 4), InProcess(3, 2)];
    cells.extend([Mux(1, 1), Mux(1, 4), Mux(3, 2)]);
    // The shard servers re-derive identical personas from the shipped plan.
    cells.extend([Processes(2, 2), Processes(4, 1)]);
    hold(&[Section::new("hostile", hostile, cells)]);
}

#[test]
fn robust_aggregation_holds_where_fedavg_degrades() {
    let clean = run(&fleet(), FLAT).1;
    // A third of the fleet poisons hard.
    let poisoned = AdversaryPlan::seeded(0xAD5)
        .poisoners(0.34)
        .poison_strength(4.0)
        .poison_noise(0.5);
    let drift = |aggregator: Aggregator| {
        let hostile = Scenario {
            adversaries: Some(poisoned.clone()),
            aggregator,
            ..fleet()
        };
        let weights = run(&hostile, FLAT).1;
        diffs(&weights, &clean).map(|d| d * d).sum::<f64>().sqrt()
    };
    let fedavg = drift(Aggregator::FedAvg);
    for robust in [Aggregator::Median, Aggregator::TrimmedMean { trim: 2 }] {
        let drift = drift(robust);
        assert!(
            drift < fedavg,
            "{} drifted {drift} from clean, fedavg {fedavg}",
            robust.name()
        );
    }
}

#[test]
fn collusion_log_feeds_fleet_scale_membership_inference() {
    // Every client colludes: the coalition observes each round's global
    // snapshot, and the pooled log drives the fleet MIA end to end.
    let colluding = Scenario {
        adversaries: Some(AdversaryPlan::seeded(0xAD5).colluders(1.0)),
        ..fleet()
    };
    let mut fed = colluding.federation().build().unwrap();
    fed.run().unwrap();
    let log = fed
        .collusion_log()
        .expect("adversarial run keeps a collusion log")
        .clone();
    fed.shutdown().unwrap();
    assert!(!log.colluders().is_empty(), "whole fleet colludes");
    let snapshots = log.snapshots();
    assert_eq!(snapshots.len(), log.rounds_observed());
    assert!(!snapshots.is_empty());

    let data = colluding.dataset();
    let members: Vec<usize> = (0..12).collect();
    let non_members: Vec<usize> = (data.len() - 12..data.len()).collect();
    let report = coalition_attack_auc(
        &mut colluding.model(),
        &snapshots,
        data.as_ref(),
        &members,
        &non_members,
        &[],
        &FleetMiaConfig::default(),
    )
    .unwrap();
    assert_eq!(report.per_round.len(), snapshots.len());
    assert_eq!(report.rows, snapshots.len() * 24);
    assert!((0.0..=1.0).contains(&report.pooled_auc));
}
