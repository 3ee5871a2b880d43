//! The fleet-scale gate: every way this workspace can deploy one
//! federation — engine shards, the multiplexed transport, shard-server
//! processes, under seeded chaos, lossy codecs and a hostile fleet —
//! must commit the bits of the flat in-process run, plus the few bars
//! that are not identities. One table on stdout, one row per cell; exits
//! 1 naming every failed cell. Takes no arguments; `GRADSEC_FULL=1` adds
//! the ~10k-session mux tier. How fast a round is belongs to `benchmark/`.

use gradsec_bench::gate::{
    codec_bars, diffs, grid, run, Bars, Deployment, Gate, Net, Outcome, Scenario, Section, FLAT,
};
use gradsec_bench::Profile;
use gradsec_fl::transport::poller::{fd_soft_limit, raise_fd_soft_limit};
use gradsec_fl::{AdversaryPlan, Aggregator, CodecKind, FaultPlan, LatencyModel};

use Deployment::{InProcess, Mux, Processes};

/// Clean sharding: 1/2/4/8 engine shards x 1/4 workers.
fn shards(n: usize) -> Section {
    let cells = grid(&[1, 2, 4, 8], &[1, 4], InProcess);
    Section::new(format!("shards {n}"), Scenario::new(n), cells)
}

/// A sixteenth of the fleet per round under a fixed fault seed: 10 %
/// dropout, lost and garbled messages, an exponential latency tail, a
/// straggler deadline, and spares so the cohort still fills.
fn chaotic(n: usize) -> Scenario {
    let plan = FaultPlan::seeded(0xFA417)
        .dropout(0.10)
        .drop_messages(0.05)
        .garble_replies(0.02)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .deadline_s(1.5)
        .spare(n / 64 + 8);
    Scenario {
        cohort: (n / 16).max(1),
        faults: Some(plan),
        ..Scenario::new(n)
    }
}

/// Seeded chaos over the sharding matrix; a chaos run in which nothing
/// landed, or a cohort went short, is a miss and not a pass.
fn chaos(n: usize) -> Section {
    fn bars(s: &Scenario, (report, _): &Outcome) -> Bars {
        let (mut shed, mut full) = (0, true);
        for r in &report.rounds {
            shed += r.stragglers.len() + r.failures.len();
            full &= r.participants.len() == s.cohort;
        }
        vec![
            ("chaos_landed", shed > 0, format!("{shed} shed")),
            ("cohorts_full", full, format!("cohort {}", s.cohort)),
        ]
    }
    let cells = shards(n).deployments;
    Section::new(format!("chaos {n}"), chaotic(n), cells).bars(bars)
}

/// The multiplexed transport: (1,4 shards) x (1,2,4 workers) clean, and
/// one faulted round — fault decisions are a function of seed, client
/// and message, never of what carries the bytes.
fn mux(n: usize) -> [Section; 2] {
    let cells = grid(&[1, 4], &[1, 2, 4], Mux);
    [
        Section::new(format!("mux {n}"), Scenario::new(n), cells),
        Section::new(format!("mux chaos {n}"), chaotic(n), vec![Mux(1, 2)]),
    ]
}

/// How many loopback sessions `RLIMIT_NOFILE` (raised as far as allowed)
/// can hold: two descriptors a session, plus headroom.
fn loopback_sessions() -> usize {
    let fds = raise_fd_soft_limit().or_else(fd_soft_limit);
    fds.map_or(usize::MAX, |fds| (fds.saturating_sub(64) / 2) as usize)
}

/// Three rounds on the wide model per codec, each equal across process
/// boundaries and judged by [`codec_bars`]; identity must also survive
/// the mux.
fn codecs(n: usize) -> Vec<Section> {
    let per_codec = |codec: CodecKind| {
        let mut scenario = Scenario::new(n);
        (scenario.rounds, scenario.net, scenario.codec) = (3, Net::Mlp(32), codec);
        let mut cells = vec![Processes(2, 2)];
        if codec == CodecKind::Identity {
            cells.push(Mux(1, 1));
        }
        let name = format!("codec {} {n}", codec.name());
        Section::new(name, scenario, cells).bars(codec_bars)
    };
    let kinds = [CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK];
    kinds.map(per_codec).into()
}

/// A sixteenth of the fleet per round, twice.
fn two_rounds(n: usize, screening: Option<usize>) -> Scenario {
    Scenario {
        cohort: (n / 16).max(1),
        rounds: 2,
        screening,
        ..Scenario::new(n)
    }
}

/// Real shard-server processes: (1,2,4) x (1,2,4) clean, the chaos
/// round at 2 and 4 processes, and two rounds under a screening cap.
fn processes(n: usize) -> [Section; 3] {
    let cells = grid(&[1, 2, 4], &[1, 2, 4], Processes);
    let pair = vec![Processes(2, 2), Processes(4, 2)];
    let capped = two_rounds(n, Some((n / 4).max(1)));
    let name = format!("procs screening cap {n}");
    [
        Section::new(format!("procs {n}"), Scenario::new(n), cells),
        Section::new(format!("procs chaos {n}"), chaotic(n), pair),
        Section::new(name, capped, vec![Processes(2, 2)]),
    ]
}

/// A SIGKILLed shard process downgrades to an excluded cohort: the next
/// round commits from the survivor and teardown stays clean.
fn killed_shard(gate: &mut Gate, n: usize) {
    let name = format!("procs killed shard {n}");
    let coord = two_rounds(n, None).distributed().shards(2).workers(2);
    let mut coord = coord.launch().expect("kill-run fleet launches");
    coord.run_round().expect("pre-kill round completes");
    coord.kill_shard(1).expect("kill delivers");
    let dead = coord.layout().range(1);
    let (survived, detail) = match coord.run_round() {
        Ok(r) => (
            !r.participants.is_empty() && r.participants.iter().all(|c| !dead.contains(c)),
            format!("{} committed", r.participants.len()),
        ),
        Err(e) => (false, e.to_string()),
    };
    gate.check(&name, "survivors commit", survived, &detail);
    let error = coord.shutdown().err().map(|e| e.to_string());
    let detail = error.as_deref().unwrap_or_default();
    gate.check(&name, "clean teardown", error.is_none(), detail);
}

/// 20 % poisoners under one scenario seed.
fn hostile_fleet(n: usize, aggregator: Aggregator, rounds: u64) -> Scenario {
    let plan = AdversaryPlan::seeded(0xAD5E)
        .poisoners(0.20)
        .poison_strength(8.0)
        .poison_noise(1.0);
    Scenario {
        cohort: (n / 16).max(5),
        rounds,
        adversaries: Some(plan),
        aggregator,
        ..Scenario::new(n)
    }
}

/// The robustness separation over 6 rounds — poisoned FedAvg lands more
/// than 0.2 (L2) from the clean run, trimmed mean and median within it
/// (measured ~0.5 against ~0.02: 2x margin both sides) — and one hostile
/// median round identical on every path.
fn hostile(n: usize) -> Vec<Section> {
    fn bars(s: &Scenario, (_, weights): &Outcome) -> Bars {
        let mut twin = s.clone();
        (twin.adversaries, twin.aggregator) = (None, Aggregator::FedAvg);
        let clean = run(&twin, FLAT).1;
        let l2 = diffs(weights, &clean).map(|d| d * d).sum::<f64>().sqrt();
        let (cell, held) = match s.aggregator {
            Aggregator::FedAvg => ("blows the 0.2 bound", l2 > 0.2),
            _ => ("holds the 0.2 bound", l2 <= 0.2),
        };
        vec![(cell, held, format!("{l2:.4} from clean"))]
    }
    let robustness = |aggregator: Aggregator| {
        let name = format!("hostile {} {n}", aggregator.name());
        Section::new(name, hostile_fleet(n, aggregator, 6), vec![]).bars(bars)
    };
    let trim = (n / 16).max(5) / 4;
    let trimmed = Aggregator::TrimmedMean { trim };
    let rules = [Aggregator::FedAvg, trimmed, Aggregator::Median];
    let mut sections: Vec<Section> = rules.map(robustness).into();
    let mut paths = vec![Mux(1, 4), InProcess(4, 2), InProcess(16, 2)];
    paths.extend([Processes(2, 2), Processes(4, 1)]);
    let scenario = hostile_fleet(n, Aggregator::Median, 1);
    sections.push(Section::new(format!("hostile paths {n}"), scenario, paths));
    sections
}

fn main() {
    let n = 1_000;
    let sessions = loopback_sessions();
    // Sections holding a mux cell run at what the descriptor limit holds.
    let muxed = n.min(sessions);
    let mut sections = vec![shards(n), shards(10 * n), chaos(n)];
    sections.extend(mux(muxed));
    if Profile::from_env().is_full() {
        sections.extend(mux((10 * n).min(sessions)));
    }
    sections.extend(codecs(muxed));
    sections.extend(processes(n));
    sections.extend(hostile(muxed));
    let mut gate = Gate::default();
    for section in &sections {
        gate.section(section);
    }
    killed_shard(&mut gate, n);
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cargo test` runs every section that spawns no process, not only compiles it.
    #[test]
    fn in_process_and_mux_sections_hold_at_64_clients() {
        let mut gate = Gate::default();
        for section in [shards(64), chaos(64)].iter().chain(&mux(64)) {
            gate.section(section);
        }
        assert!(!gate.failed(), "{:?}", gate.failures());
        assert_eq!(gate.cells(), 8 + (8 + 2) + 6 + 1);
    }
}
