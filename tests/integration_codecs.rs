//! Update-codec parity: the encoded model-payload path must be
//! invisible when it should be and cheap when it may be. Named slices of
//! the deployment matrix (`deployment_matrix.rs`), judged by the same gate
//! and its `codec_bars`.
//!
//! * The identity codec keeps every deployment shape — flat, sharded,
//!   distributed — and both transports bit-identical to the dense
//!   reference, with and without seeded faults, and bills encoded == raw.
//! * The lossy codecs (`int8`, `delta-topk`) are deterministic pure
//!   functions of the run: the same bits on any transport, a shrunk
//!   steady-state round, and a pinned distance from the identity run.
//! * A delta-topk client's reference view is the decoded download it
//!   last trained on, and a failed cycle costs it the view: one dense
//!   re-send, the same on every topology.

use gradsec::data::Dataset;
use gradsec::fl::config::TransportKind;
use gradsec::fl::trainer::{CycleStats, LocalTrainer, PlainSgdTrainer};
use gradsec::fl::{CodecKind, ExecutionEngine, FaultPlan, FlError};
use gradsec::nn::Sequential;
use gradsec_bench::gate::Deployment::{Mux, Processes};
use gradsec_bench::gate::{
    codec_bars, drive, faults_landed, hold, Local, Net, Scenario, Section, FLAT,
};

/// The wide MLP, so codec metadata cannot mask payload: all 6 clients,
/// three rounds of two sampled batches per cycle.
fn wide(codec: CodecKind) -> Scenario {
    Scenario {
        rounds: 3,
        net: Net::Mlp(32),
        local: Local::TwoSteps,
        codec,
        ..Scenario::new(6)
    }
}

/// `wide(codec)` under dropout, garbling and one crash.
fn faulted(codec: CodecKind) -> Scenario {
    let plan = FaultPlan::seeded(0xFA417)
        .dropout(0.2)
        .garble_replies(0.1)
        .crash_at(3, 1)
        .deadline_s(30.0)
        .spare(2);
    Scenario {
        faults: Some(plan),
        ..wide(codec)
    }
}

#[test]
fn identity_codec_is_bit_identical_across_transports_and_shapes() {
    let cells = vec![Mux(1, 1), Mux(2, 2), Processes(2, 2)];
    let section = Section::new("identity", wide(CodecKind::Identity), cells);
    hold(&[section.bars(codec_bars)]);
}

#[test]
fn identity_codec_is_bit_identical_under_faults() {
    let section = Section::new("identity", faulted(CodecKind::Identity), vec![Mux(1, 1)]);
    hold(&[section.bars(faults_landed)]);
}

#[test]
fn lossy_codecs_are_deterministic_and_transport_invariant() {
    // FLAT against FLAT: a second run in one process repeats the first.
    let lossy = |codec: CodecKind| Section::new(codec.name(), wide(codec), vec![FLAT, Mux(1, 1)]);
    hold(&[lossy(CodecKind::Int8), lossy(CodecKind::DeltaTopK)]);
}

#[test]
fn lossy_codecs_shrink_bytes_and_stay_near_the_identity_run() {
    let lossy = |codec: CodecKind| Section::new(codec.name(), wide(codec), vec![]).bars(codec_bars);
    hold(&[lossy(CodecKind::Int8), lossy(CodecKind::DeltaTopK)]);
}

#[test]
fn delta_codec_survives_faulted_rounds_deterministically() {
    // Garbled replies and crashes desynchronize the delta codec's
    // reference views; the epoch handshake must recover (dense retry)
    // and stay a pure function of the fault seed on every transport.
    let section = Section::new("delta", faulted(CodecKind::DeltaTopK), vec![Mux(1, 1)]);
    hold(&[section.bars(faults_landed)]);
}

/// A plain trainer whose second cycle fails after its training step.
struct FailsSecondCycle(usize);

impl LocalTrainer for FailsSecondCycle {
    fn train_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected_layers: &[usize],
    ) -> Result<CycleStats, FlError> {
        let stats = PlainSgdTrainer.train_cycle(
            model,
            dataset,
            batches,
            learning_rate,
            protected_layers,
        )?;
        self.0 += 1;
        if self.0 == 2 {
            return Err(FlError::BadConfig {
                reason: "second cycle fails".to_owned(),
            });
        }
        Ok(stats)
    }
}

#[test]
fn a_failed_delta_cycle_costs_one_dense_download_on_every_topology() {
    const FLAKY: u64 = 2;
    let configured = || {
        wide(CodecKind::DeltaTopK)
            .federation()
            // Tolerance only: the failed cycle is recorded, not fatal.
            .faults(FaultPlan::seeded(1))
            .trainer(|id| match id {
                FLAKY => Box::new(FailsSecondCycle(0)),
                _ => Box::new(PlainSgdTrainer),
            })
    };
    let flat = drive("flat", configured());
    let sharded = configured().shards(2).engine(ExecutionEngine::new(2));
    let mux = configured().transport(TransportKind::TcpMux);
    for (shape, builder) in [("2 shards", sharded), ("mux", mux)] {
        let (report, weights) = drive(shape, builder);
        assert_eq!(report, flat.0, "{shape}: report");
        assert_eq!(weights, flat.1, "{shape}: weights");
    }
    let flat = flat.0;
    // Every client is picked every round, so the second cycle is round 1.
    assert_eq!(flat.rounds[1].failures, [FLAKY as usize]);
    let wire = |round: usize| flat.rounds[round].ledger.client(FLAKY).unwrap().wire;
    let dense = wire(0).download_encoded_bytes;
    // The client dropped its view with the failed cycle: round 2's delta
    // is refused and re-sent dense, and both frames are billed.
    let resent = wire(2).download_encoded_bytes;
    assert!(resent > dense, "round 2 billed {resent}, dense is {dense}");
    assert!((resent - dense) * 3 <= wire(2).download_raw_bytes);
}

#[test]
fn sessions_report_their_negotiated_codec() {
    let fed = wide(CodecKind::Int8).federation().build().unwrap();
    assert!(fed.clients().iter().all(|c| c.codec() == CodecKind::Int8));
    fed.shutdown().unwrap();
}
