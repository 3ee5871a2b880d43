//! The traced pass: the same fleet driven through a *staged* round —
//! the calls `run_round` makes, made one at a time from here with a span
//! around each — plus the probes. Every per-layer metric comes from this
//! pass; no end-to-end metric does.

use std::sync::Arc;
use std::time::Instant;

use gradsec_fl::aggregate::PartialAggregate;
use gradsec_fl::engine::ClientOutcome;
use gradsec_fl::selection::{screen_one, ScreeningOutcome};
use gradsec_fl::server::FlServer;
use gradsec_fl::transport::RemoteClient;
use gradsec_fl::{CodecKind, ExecutionEngine, FaultPlan, ProtectionScheduler};
use gradsec_nn::model::ModelWeights;
use gradsec_tee::attestation::Measurement;
use gradsec_tee::cost::RoundLedger;
use gradsec_tee::crypto::sha256::sha256;

use crate::json::{obj, Json};
use crate::metrics::Values;
use crate::pass::{
    correctness_phase, timed_rounds, timed_shutdown, warm_up, ExactFacts, RoundFacts,
};
use crate::probes::{self, Captured};
use crate::procfs;
use crate::span::{self_time_by_name, Tracer};
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::{Config, RunnerKind, IN_FLIGHT, WARMUP_ROUNDS};
use crate::Res;

/// Every this-many-th staged round of a fault-free workload runs `select`
/// and `execute` in their sequential long-hand, one span per client call.
const LONG_HAND_EVERY: usize = 10;

/// Fewest untraced rounds a runner is timed for, whatever the clock says.
const MIN_ROUNDS: usize = 5;

/// The workload's configuration on one round loop, untraced.
struct Untraced {
    kind: RunnerKind,
    build_s: f64,
    first_round_s: f64,
    teardown_s: f64,
    rounds: Vec<RoundFacts>,
    control_bytes_per_round: (f64, f64),
    cpu_s_per_round: f64,
    wall_s: f64,
    last: ModelWeights,
}

impl Untraced {
    fn samples(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.wall_s).collect()
    }

    fn p50(&self) -> f64 {
        median(&self.samples())
    }
}

fn untraced(cfg: &Config, kind: RunnerKind, seconds: f64, min_rounds: usize) -> Res<Untraced> {
    let warm = warm_up(|| cfg.build(kind))?;
    let mut runner = warm.runner;
    let bytes_before = runner.control_bytes();
    let cpu_before = procfs::cpu_seconds();
    let window = Instant::now();
    let rounds = timed_rounds(&mut runner, seconds, min_rounds)?;
    let wall_s = window.elapsed().as_secs_f64();
    let n = rounds.len() as f64;
    let cpu_s_per_round = (procfs::cpu_seconds() - cpu_before) / n;
    let bytes_after = runner.control_bytes();
    let last = runner.global().clone();
    Ok(Untraced {
        kind,
        build_s: warm.build_s,
        first_round_s: warm.first_round_s,
        teardown_s: timed_shutdown(runner)?,
        rounds,
        control_bytes_per_round: (
            (bytes_after.0 - bytes_before.0) as f64 / n,
            (bytes_after.1 - bytes_before.1) as f64 / n,
        ),
        cpu_s_per_round,
        wall_s,
        last,
    })
}

/// What one staged round leaves behind for the metrics.
struct StagedRound {
    long_hand: bool,
    attests: usize,
    committed: usize,
    crossings: u64,
}

/// The shadow server and the knobs `run_round` reads from its runner.
struct Stage<'a> {
    cfg: &'a Config,
    shadow: FlServer,
    measurement: Measurement,
    scheduler: Arc<dyn ProtectionScheduler>,
    engine: ExecutionEngine,
    tracer: Tracer,
}

impl Stage<'_> {
    /// One round through public calls only. The fast form makes the five
    /// calls `run_round` makes; the long hand (fault-free workloads only:
    /// every exchange completes) replaces `select` and `execute` by the
    /// per-client calls they are made of. Either way the shadow server
    /// commits what `run_round` would.
    fn round(
        &mut self,
        clients: &mut [RemoteClient],
        long_hand: bool,
        capture: bool,
    ) -> Res<(StagedRound, Option<Captured>)> {
        let round = self.shadow.round();
        let faults = self.cfg.faults.as_ref();
        let t = &mut self.tracer;
        let s_round = t.open("fl.runner.round", None, round);

        let s = t.open("fl.selection.select", Some(s_round), round);
        let (picked, attests) = if long_hand {
            let plan = self.shadow.screen_plan(clients.len());
            let outcomes: Vec<ScreeningOutcome> = plan
                .candidates
                .iter()
                .zip(plan.challenges.iter())
                .map(|(&i, challenge)| {
                    let a = t.open("fl.transport.attest_rtt", Some(s), round);
                    let outcome = screen_one(&mut clients[i], self.measurement, challenge);
                    t.close(a);
                    outcome
                })
                .collect();
            (
                self.shadow.sample_screened(&plan, &outcomes)?,
                plan.candidates.len(),
            )
        } else {
            let attests = self
                .cfg
                .screening_sample
                .map_or(clients.len(), |m| m.min(clients.len()));
            (self.shadow.select(clients)?, attests)
        };
        t.close(s);

        let n_layers = self.shadow.global().num_layers();
        let mut protected = self.scheduler.layers_for_round(round);
        protected.retain(|&l| l < n_layers);
        let s = t.open("fl.server.download", Some(s_round), round);
        let download = self.shadow.download(protected);
        t.close(s);

        let s = t.open("fl.engine.execute", Some(s_round), round);
        let (outcomes, ledger) = if long_hand {
            let mut ledger = RoundLedger::new();
            let mut outcomes = Vec::with_capacity(picked.len());
            for &ci in &picked {
                let c = t.open("fl.transport.train_rtt", Some(s), round);
                let upload = clients[ci].train(&download)?;
                t.close(c);
                ledger.record(upload.cost);
                outcomes.push(ClientOutcome::Completed(upload));
            }
            (outcomes, ledger)
        } else {
            self.engine
                .execute_cycles_with(clients, &picked, &download, faults)?
        };
        t.close(s);

        // The commit rule of `finish_round`: the first k completed
        // updates in selection order aggregate; without a fault plan any
        // failure fails the round.
        let k = self.cfg.plan.clients_per_round;
        let mut agg = PartialAggregate::new();
        let mut captured_upload = None;
        for (slot, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                ClientOutcome::Completed(upload) if agg.len() < k => {
                    if capture && captured_upload.is_none() {
                        captured_upload = Some(upload.clone());
                    }
                    agg.push(slot, upload);
                }
                ClientOutcome::Failed { error, .. } if faults.is_none() => return Err(error.into()),
                _ => {}
            }
        }
        let committed = agg.len();

        let s = t.open("fl.aggregate.fold", Some(s_round), round);
        let folded = agg.finish_with(self.cfg.aggregator, Some(self.shadow.global()))?;
        t.close(s);

        let s = t.open("fl.server.commit", Some(s_round), round);
        self.shadow.commit(folded.weights);
        t.close(s);
        t.close(s_round);

        let captured = captured_upload.map(|upload| Captured { download, upload });
        Ok((
            StagedRound {
                long_hand,
                attests,
                committed,
                crossings: ledger.total_crossings(),
            },
            captured,
        ))
    }
}

/// What the traced pass hands back.
pub struct TraceResult {
    pub per_layer: Values,
    pub correct: bool,
    pub notes: Vec<String>,
    /// Spans, the untraced runs, the layer shares and the top three, for
    /// `out/trace_<workload>.json` and the suite's result file.
    pub detail: Json,
    pub rounds: usize,
}

pub fn traced_pass(cfg: &Config, seconds: f64) -> Res<TraceResult> {
    let mut correct = true;
    let mut notes = Vec::new();
    let mut v = Values::default();

    // The workload's own runner with tracing off, and — where that runner
    // hands out no clients to stage — the flat runner the staged round is
    // checked against. Fault-free flat runs last long enough for the
    // replay to hold two long-hand rounds.
    let long_hand = cfg.faults.is_none();
    let min_flat_rounds = if long_hand {
        (if cfg.smoke { 1 } else { 2 }) * LONG_HAND_EVERY - WARMUP_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let (real, flat_run);
    let flat = if cfg.runner == RunnerKind::Flat {
        real = untraced(cfg, RunnerKind::Flat, seconds / 2.0, min_flat_rounds)?;
        &real
    } else {
        real = untraced(cfg, cfg.runner, seconds / 2.0, MIN_ROUNDS)?;
        flat_run = untraced(cfg, RunnerKind::Flat, seconds / 4.0, min_flat_rounds)?;
        &flat_run
    };
    let real = &real;

    // The staged replay of the flat run, round for round.
    let staged_rounds = WARMUP_ROUNDS + flat.rounds.len();
    let t = Instant::now();
    let mut fed = cfg.build_flat()?;
    let connect_s = t.elapsed().as_secs_f64();
    let measurement = Measurement(sha256(b"gradsec-ta-code-v1"));
    let mut shadow = FlServer::new(cfg.plan, fed.server().global().clone(), measurement)?;
    shadow.overprovision(cfg.faults.as_ref().map_or(0, FaultPlan::spare_count));
    shadow.set_screening_sample(cfg.screening_sample);
    let mut stage = Stage {
        cfg,
        shadow,
        measurement,
        scheduler: fed.scheduler().clone(),
        engine: fed.engine(),
        tracer: Tracer::new(),
    };
    let mut staged = Vec::with_capacity(staged_rounds);
    let mut captured = None;
    for i in 0..staged_rounds {
        let long_hand = long_hand && (i + 1).is_multiple_of(LONG_HAND_EVERY);
        // Capture from the last fast-form round: steady state, and the
        // clone stays out of every other round's self time.
        let capture = captured.is_none() && !long_hand && i + 2 >= staged_rounds;
        let (round, cap) = stage.round(fed.clients_mut(), long_hand, capture)?;
        staged.push(round);
        captured = captured.or(cap);
    }
    if stage.shadow.global() != &flat.last {
        correct = false;
        notes.push(format!(
            "staged round diverged from run_round after {staged_rounds} rounds"
        ));
    }
    let t = Instant::now();
    fed.shutdown()?;
    let goodbye_s = t.elapsed().as_secs_f64();
    let Stage { tracer, .. } = stage;

    // Staged spans, warm-up rounds excluded.
    let timed = |name: &str, long: bool| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name && s.round >= WARMUP_ROUNDS as u64)
            .filter(|s| staged[s.round as usize].long_hand == long)
            .map(|s| s.duration_s())
            .collect()
    };
    let fast = |name: &str| median(&timed(name, false));
    // 0 on a faulted workload, which stages no long-hand round.
    let long = |name: &str| match timed(name, true) {
        v if v.is_empty() => 0.0,
        v => median(&v),
    };
    let steady: Vec<&StagedRound> = staged[WARMUP_ROUNDS..].iter().collect();
    let select_s = fast("fl.selection.select");
    let download_s = fast("fl.server.download");
    let execute_s = fast("fl.engine.execute");
    let fold_s = fast("fl.aggregate.fold");
    let commit_s = fast("fl.server.commit");
    let staged_round_s = fast("fl.runner.round");
    let staged_calls_s = select_s + download_s + execute_s + fold_s + commit_s;
    let execute_seq_s = long("fl.engine.execute");
    let attests = median(&steady.iter().map(|r| r.attests as f64).collect::<Vec<_>>());
    let committed = median(
        &steady
            .iter()
            .map(|r| r.committed as f64)
            .collect::<Vec<_>>(),
    );
    let params = cfg.build_model()?.param_count() as f64;

    v.set("fl.selection.select_s", select_s);
    v.set("fl.selection.attests_per_round", attests);
    v.set("fl.selection.per_attest_s", select_s / attests);
    v.set("fl.server.download_s", download_s);
    v.set("fl.server.commit_s", commit_s);
    v.set("fl.engine.execute_s", execute_s);
    v.set(
        "fl.engine.parallel_efficiency",
        execute_seq_s / (IN_FLIGHT as f64 * execute_s),
    );
    v.set("fl.aggregate.fold_s", fold_s);
    v.set(
        "fl.aggregate.ns_per_coeff",
        fold_s * 1e9 / (committed * params),
    );
    v.set(
        "fl.transport.attest_rtt_s_p50",
        long("fl.transport.attest_rtt"),
    );
    v.set(
        "fl.transport.train_rtt_s_p50",
        long("fl.transport.train_rtt"),
    );
    v.set("fl.transport.connect_s", connect_s);
    v.set("fl.transport.goodbye_s", goodbye_s);
    v.set(
        "tee.crossings_per_round",
        median(
            &steady
                .iter()
                .map(|r| r.crossings as f64)
                .collect::<Vec<_>>(),
        ),
    );

    // The real runner's untraced rounds, and what its round loop adds to
    // the flat one. A workload reads 0 for the runners it does not use.
    let samples = real.samples();
    let tail = tail_percentile(samples.len());
    v.set(
        "fl.runner.round_s_tail",
        percentile(&samples, f64::from(tail.unwrap_or(50))),
    );
    v.set("fl.runner.tail_percentile", f64::from(tail.unwrap_or(50)));
    v.set("fl.runner.samples", samples.len() as f64);
    v.set("fl.runner.first_round_s", real.first_round_s);
    v.set("fl.runner.teardown_s", real.teardown_s);
    v.set("fl.runner.overhead_s", flat.p50() - staged_calls_s);
    v.set(
        "fl.runner.trace_overhead_pct",
        (staged_round_s / flat.p50() - 1.0) * 100.0,
    );
    let gap_s = real.p50() - flat.p50();
    let on = |kind: RunnerKind, value: f64| if cfg.runner == kind { value } else { 0.0 };
    v.set("fl.runner.shard_overhead_s", on(RunnerKind::Sharded, gap_s));
    let dist = |value: f64| on(RunnerKind::Distributed, value);
    v.set("fl.distributed.launch_s", dist(real.build_s));
    v.set("fl.distributed.overhead_s", dist(gap_s));
    v.set(
        "fl.distributed.ctl_bytes_out_per_round",
        dist(real.control_bytes_per_round.0),
    );
    v.set(
        "fl.distributed.ctl_bytes_in_per_round",
        dist(real.control_bytes_per_round.1),
    );
    v.set("fl.distributed.shutdown_s", dist(real.teardown_s));

    // Whole-round figures: the timed ones, from the workload's own
    // runner with tracing off, and those that read 0 on some workload.
    let committed_total: u64 = real.rounds.iter().map(|r| r.committed).sum();
    v.set("round_s_p50", real.p50());
    v.set("client_cycles_per_s", committed_total as f64 / real.wall_s);
    v.set("cpu_s_per_round", real.cpu_s_per_round);
    let exact = ExactFacts::over(&real.rounds, real.rounds.len());
    v.set("failed_cycle_share", exact.failed_cycle_share);
    v.set("sim_round_s", exact.sim_round_s);
    v.set("tee_peak_mib", exact.tee_peak_mib);

    let captured = captured.ok_or("no staged round completed an upload to capture")?;
    probes::run_all(cfg, &captured, &mut v)?;

    let verdict = correctness_phase(cfg)?;
    correct &= verdict.correct;
    notes.push(verdict.note);
    v.set("model_divergence", f64::from(verdict.divergence));

    // Where a round goes: measured spans outside `execute`, and inside it
    // each layer's probe cost times its calls per round, scaled to the
    // sequential execute span; what the probes do not explain is the
    // transport's (sockets, wake-ups, copies) and the endpoints'.
    let selected = cfg.selected_per_round() as f64;
    let batches = cfg.plan.batches_per_cycle as f64;
    let get = |name: &str| v.get(name).expect("set above or by the probes");
    let train_batch_s = get("nn.forward_s") + get("nn.backward_s") + get("nn.step_s");
    // Per exchange: the server encodes the download and decodes the
    // upload, the client the reverse (and under delta-topk the server
    // also decodes its own download to mirror the client's view).
    let codec_calls = if cfg.codec == CodecKind::DeltaTopK {
        (2.0, 3.0)
    } else {
        (2.0, 2.0)
    };
    let inside_execute = [
        (
            "fl.codec",
            selected
                * (codec_calls.0 * get("fl.codec.encode_s")
                    + codec_calls.1 * get("fl.codec.decode_s")),
        ),
        (
            "fl.message",
            selected * (get("fl.message.pack_s") + get("fl.message.open_s")),
        ),
        ("nn+tensor", selected * batches * train_batch_s),
        ("data", selected * batches * get("data.batch_s")),
        ("fl.client", selected * get("fl.client.overhead_s").max(0.0)),
    ];
    let explained: f64 = inside_execute.iter().map(|(_, s)| s).sum();
    let execute_share = execute_s / staged_round_s;
    let mut shares: Vec<(String, f64, &str)> = vec![
        ("fl.selection".into(), select_s / staged_round_s, "span"),
        (
            "fl.server".into(),
            (download_s + commit_s) / staged_round_s,
            "span",
        ),
        ("fl.aggregate".into(), fold_s / staged_round_s, "span"),
        (
            "fl.runner".into(),
            // Medians of spans do not add up exactly; the gap is the
            // runner's own time or, within noise of 0, nothing.
            (staged_round_s - staged_calls_s).max(0.0) / staged_round_s,
            "span",
        ),
    ];
    // Without a long hand the sequential cost of `execute` is bounded by
    // what its workers could have spent inside the parallel span.
    let execute_work_s = if long_hand {
        execute_seq_s
    } else {
        IN_FLIGHT as f64 * execute_s
    };
    let scale = execute_share / execute_work_s.max(explained);
    for (layer, s) in inside_execute {
        shares.push((layer.into(), s * scale, "probe"));
    }
    shares.push((
        "fl.transport+fl.engine".into(),
        (execute_work_s - explained).max(0.0) * scale,
        "remainder",
    ));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut runs = vec![real];
    if cfg.runner != RunnerKind::Flat {
        runs.push(flat);
    }
    let runners = Json::Arr(
        runs.iter()
            .map(|r| {
                obj(vec![
                    ("runner", Json::from(r.kind.name())),
                    ("is_workload_runner", Json::from(r.kind == cfg.runner)),
                    ("rounds", Json::from(r.rounds.len())),
                    ("round_s_p50", Json::from(r.p50())),
                    ("build_s", Json::from(r.build_s)),
                    ("first_round_s", Json::from(r.first_round_s)),
                    ("teardown_s", Json::from(r.teardown_s)),
                ])
            })
            .collect(),
    );
    let share_rows = |rows: &[(String, f64, &str)]| {
        Json::Arr(
            rows.iter()
                .map(|(layer, share, source)| {
                    obj(vec![
                        ("layer", Json::from(layer.as_str())),
                        ("share_of_round", Json::from(*share)),
                        ("source", Json::from(*source)),
                    ])
                })
                .collect(),
        )
    };
    let detail = obj(vec![
        ("staged_rounds", Json::from(staged_rounds)),
        ("staged_round_s_p50", Json::from(staged_round_s)),
        ("execute_seq_s_p50", Json::from(execute_seq_s)),
        ("runners", runners),
        ("layer_shares", share_rows(&shares)),
        ("top_three", share_rows(&shares[..3])),
        (
            "span_self_time_s",
            Json::Arr(
                self_time_by_name(tracer.spans())
                    .into_iter()
                    .map(|(name, s)| {
                        obj(vec![("span", Json::from(name)), ("self_s", Json::from(s))])
                    })
                    .collect(),
            ),
        ),
        ("spans", tracer.to_json()),
    ]);
    Ok(TraceResult {
        per_layer: v,
        correct,
        notes,
        detail,
        rounds: real.rounds.len(),
    })
}
