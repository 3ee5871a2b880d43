//! The untraced pass — set-up, warm-up, timed rounds, teardown — that
//! every end-to-end metric comes from, and the correctness phase that
//! runs once per pass outside the timing.

use std::process::{Command, Stdio};
use std::time::Instant;

use gradsec_fl::runner::RoundReport;

use crate::metrics::Values;
use crate::procfs;
use crate::stats::median;
use crate::workload::{max_abs_divergence, Config, Runner, WARMUP_ROUNDS};
use crate::Res;

/// Fleets built per pass; `setup_s` is the median, so one slow connect
/// storm does not decide it.
const SETUP_REPEATS: usize = 9;

/// Rounds the correctness phase compares.
const CORRECTNESS_ROUNDS: usize = 3;

/// What one committed round contributes to the exact metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundFacts {
    pub wall_s: f64,
    pub wire_bytes: u64,
    pub selected: u64,
    pub completed: u64,
    pub committed: u64,
    pub sim_critical_path_s: f64,
    pub tee_peak_bytes: u64,
    pub crossings: u64,
}

impl RoundFacts {
    fn of(report: &RoundReport, wall_s: f64) -> RoundFacts {
        let completed = (report.participants.len() + report.surplus.len()) as u64;
        let shed = (report.stragglers.len() + report.failures.len()) as u64;
        RoundFacts {
            wall_s,
            wire_bytes: report.ledger.total_wire().encoded_bytes(),
            selected: completed + shed,
            completed,
            committed: report.participants.len() as u64,
            sim_critical_path_s: report.ledger.critical_path_s(),
            tee_peak_bytes: report.ledger.max_tee_peak_bytes() as u64,
            crossings: report.ledger.total_crossings(),
        }
    }
}

/// Runs and times one round.
pub fn timed_round(runner: &mut Runner) -> Res<RoundFacts> {
    let t = Instant::now();
    let report = runner.run_round()?;
    Ok(RoundFacts::of(&report, t.elapsed().as_secs_f64()))
}

/// Closed loop: round *r + 1* starts when round *r* has committed. Runs
/// until `seconds` have passed and at least `min_rounds` are done.
pub fn timed_rounds(runner: &mut Runner, seconds: f64, min_rounds: usize) -> Res<Vec<RoundFacts>> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        rounds.push(timed_round(runner)?);
    }
    Ok(rounds)
}

/// A fleet built and warmed up, with what that cost.
pub struct WarmRunner {
    pub runner: Runner,
    /// Builder start to end of warm-up, so work moved into lazy set-up
    /// still shows.
    pub setup_s: f64,
    /// The builder alone (for the distributed runner: process launch).
    pub build_s: f64,
    pub first_round_s: f64,
}

pub fn warm_up(build: impl FnOnce() -> Res<Runner>) -> Res<WarmRunner> {
    let start = Instant::now();
    let mut runner = build()?;
    let build_s = start.elapsed().as_secs_f64();
    let first_round_s = timed_round(&mut runner)?.wall_s;
    for _ in 1..WARMUP_ROUNDS {
        runner.run_round()?;
    }
    Ok(WarmRunner {
        runner,
        setup_s: start.elapsed().as_secs_f64(),
        build_s,
        first_round_s,
    })
}

pub fn timed_shutdown(runner: Runner) -> Res<f64> {
    let t = Instant::now();
    runner.shutdown()?;
    Ok(t.elapsed().as_secs_f64())
}

/// Everything one untraced pass measured.
pub struct PassResult {
    pub end_to_end: Values,
    pub rounds: Vec<RoundFacts>,
    pub setup_samples: Vec<f64>,
    pub first_round_s: f64,
    pub teardown_s: f64,
}

impl PassResult {
    pub fn round_samples(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.wall_s).collect()
    }
}

/// The exact metrics over the first `window` rounds: counts the program
/// made, which repeat exactly for one seed whatever the host's speed.
pub struct ExactFacts {
    pub wire_bytes_per_round: f64,
    pub completed_cycle_share: f64,
    pub failed_cycle_share: f64,
    pub sim_round_s: f64,
    pub tee_peak_mib: f64,
    pub crossings_per_round: f64,
}

impl ExactFacts {
    pub fn over(rounds: &[RoundFacts], window: usize) -> ExactFacts {
        let w = &rounds[..window.min(rounds.len())];
        let sum = |f: fn(&RoundFacts) -> u64| w.iter().map(f).sum::<u64>() as f64;
        let selected = sum(|r| r.selected);
        let completed = sum(|r| r.completed);
        ExactFacts {
            wire_bytes_per_round: sum(|r| r.wire_bytes) / w.len() as f64,
            completed_cycle_share: completed / selected,
            failed_cycle_share: (selected - completed) / selected,
            sim_round_s: median(&w.iter().map(|r| r.sim_critical_path_s).collect::<Vec<_>>()),
            tee_peak_mib: w.iter().map(|r| r.tee_peak_bytes).max().unwrap_or(0) as f64
                / (1024.0 * 1024.0),
            crossings_per_round: sum(|r| r.crossings) / w.len() as f64,
        }
    }
}

pub fn untraced_pass(cfg: &Config, seconds: f64) -> Res<PassResult> {
    let warm = warm_up(|| cfg.build_real())?;
    let mut setup_samples = vec![warm.setup_s];
    let first_round_s = warm.first_round_s;
    let mut runner = warm.runner;

    let cpu_before = procfs::cpu_seconds();
    let window = Instant::now();
    let rounds = timed_rounds(&mut runner, seconds, cfg.exact_rounds)?;
    let wall_s = window.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let mut teardown_samples = vec![timed_shutdown(runner)?];

    // The remaining set-ups run after the timed window, one fleet at a
    // time: no second fleet shares the window's memory or CPU, and on a
    // host that slows down under sustained load (README, "Noise") most
    // set-ups see the same regime the window saw.
    for _ in 1..SETUP_REPEATS {
        let warm = warm_up(|| cfg.build_real())?;
        setup_samples.push(warm.setup_s);
        teardown_samples.push(timed_shutdown(warm.runner)?);
    }

    let exact = ExactFacts::over(&rounds, cfg.exact_rounds);
    let committed: u64 = rounds.iter().map(|r| r.committed).sum();
    let mut v = Values::default();
    v.set("setup_s", median(&setup_samples));
    v.set(
        "round_s_p50",
        median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );
    v.set("client_cycles_per_s", committed as f64 / wall_s);
    v.set("cpu_s_per_round", cpu_s / rounds.len() as f64);
    v.set("peak_rss_mib", memory_pass(cfg)?);
    v.set("wire_bytes_per_round", exact.wire_bytes_per_round);
    v.set("completed_cycle_share", exact.completed_cycle_share);
    Ok(PassResult {
        end_to_end: v,
        rounds,
        setup_samples,
        first_round_s,
        teardown_s: median(&teardown_samples),
    })
}

/// The flag that makes `run` a memory pass.
pub const MEMORY_PASS_FLAG: &str = "memory-pass";

/// The peak resident memory of the workload, from a process of its own:
/// this binary again, same workload, seed and seconds, under one malloc
/// arena. With glibc's per-thread arenas the high-water mark of a fleet
/// is a function of which thread's arena a buffer happened to land in
/// (`lenet_protected` read 25–43 MiB at one seed); under one arena it is a
/// function of the program (17.4–17.9 MiB). The timed window cannot run
/// that way — one arena slows the two fleet workloads by a third — so
/// memory and time are measured by two processes of one pass.
fn memory_pass(cfg: &Config) -> Res<f64> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("run")
        .args(["--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .arg(format!("--{MEMORY_PASS_FLAG}"))
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output()?;
    if !out.status.success() {
        return Err(format!("memory pass failed: {}", out.status).into());
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Ok(text
        .trim()
        .parse()
        .map_err(|_| format!("memory pass printed '{text}', not a number"))?)
}

/// What the memory pass runs: set-up, warm-up and the exact window — a
/// round *count*, because a high-water mark grows with every round run
/// (transient buffers, the snapshot history) and a faster host must not
/// get to read a later one. Read while the fleet, shard servers included,
/// is alive.
pub fn memory_pass_main(cfg: &Config) -> Res<()> {
    let mut runner = warm_up(|| cfg.build_real())?.runner;
    timed_rounds(&mut runner, 0.0, cfg.exact_rounds)?;
    let peak_rss_mib = procfs::peak_rss_mib();
    runner.shutdown()?;
    println!("{peak_rss_mib}");
    Ok(())
}

/// The correctness phase's finding.
pub struct Verdict {
    pub correct: bool,
    /// Max-abs distance of the workload's model from its reference.
    pub divergence: f32,
    pub note: String,
}

/// Three rounds on the workload's own configuration against its
/// reference (same plan and seeds; flat, in-process, identity codec, one
/// client at a time). An identity-codec workload must match weights and
/// round reports bit for bit; a lossy one must stay within its pinned
/// bound. A round that errors fails the run through `?`.
pub fn correctness_phase(cfg: &Config) -> Res<Verdict> {
    let run = |mut runner: Runner| -> Res<_> {
        let reports = (0..CORRECTNESS_ROUNDS)
            .map(|_| runner.run_round())
            .collect::<Res<Vec<RoundReport>>>()?;
        let weights = runner.global().clone();
        runner.shutdown()?;
        Ok((reports, weights))
    };
    let (reports, weights) = run(cfg.build_real()?)?;
    let (ref_reports, ref_weights) = run(cfg.build_reference()?)?;
    let divergence = max_abs_divergence(&weights, &ref_weights)?;
    let (correct, note) = if cfg.codec.is_lossy() {
        (
            divergence <= cfg.divergence_bound,
            format!(
                "{} within {} of the identity reference: {divergence}",
                cfg.codec.name(),
                cfg.divergence_bound
            ),
        )
    } else {
        let same_weights = weights == ref_weights;
        let same_reports = reports == ref_reports;
        (
            same_weights && same_reports,
            format!("bit-identity: weights {same_weights}, round reports {same_reports}"),
        )
    };
    Ok(Verdict {
        correct,
        divergence,
        note,
    })
}
