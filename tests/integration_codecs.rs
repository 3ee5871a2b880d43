//! Update-codec parity: the encoded model-payload path must be
//! invisible when it should be and cheap when it may be.
//!
//! * The identity codec keeps every deployment shape — flat, sharded,
//!   distributed — and both transports — in-process, multiplexed
//!   TCP — bit-identical to the dense reference, with and without
//!   seeded faults, and bills encoded == raw bytes.
//! * The lossy codecs (`int8`, `delta-topk`) are deterministic pure
//!   functions of the run: the same codec produces the same bits on any
//!   transport and shape, shrinks the steady-state round's payload, and
//!   stays within a pinned divergence bound of the identity run.
//! * A delta-topk client's reference view is the decoded download it
//!   last trained on, and a failed cycle costs it the view: one dense
//!   re-send, the same on every topology.

use std::sync::Arc;

use gradsec::data::{Dataset, SyntheticMicro};
use gradsec::fl::config::{TrainingPlan, TransportKind};
use gradsec::fl::message::{DatasetSpec, ModelSpec};
use gradsec::fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec::fl::trainer::{CycleStats, LocalTrainer, PlainSgdTrainer};
use gradsec::fl::{CodecKind, DistributedCoordinator, ExecutionEngine, FaultPlan, FlError};
use gradsec::nn::model::ModelWeights;
use gradsec::nn::{zoo, Sequential};

const CLIENTS: usize = 6;
const DIM: usize = 32;
const HIDDEN: usize = 16;
const DATA_LEN: usize = 8 * CLIENTS;
const DATA_SEED: u64 = 5;
const MODEL_SEED: u64 = 21;

fn plan() -> TrainingPlan {
    TrainingPlan {
        rounds: 3,
        clients_per_round: CLIENTS,
        batches_per_cycle: 1,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 17,
    }
}

fn builder(codec: CodecKind) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(DATA_LEN, 2, DIM, DATA_SEED));
    Federation::builder(plan())
        .model(|| zoo::tiny_mlp(DIM, HIDDEN, 2, MODEL_SEED).unwrap())
        .clients(CLIENTS, data)
        .codec(codec)
}

fn run_flat(
    codec: CodecKind,
    transport: TransportKind,
    faults: Option<FaultPlan>,
) -> (FederationReport, ModelWeights) {
    let mut b = builder(codec).transport(transport);
    if let Some(f) = faults {
        b = b.faults(f);
    }
    let mut fed = b.build().unwrap();
    let report = fed.run().unwrap();
    let weights = fed.server().global().clone();
    fed.shutdown().unwrap();
    (report, weights)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::seeded(0xFA417)
        .dropout(0.2)
        .garble_replies(0.1)
        .crash_at(3, 1)
        .deadline_s(30.0)
        .spare(2)
}

fn max_abs_diff(a: &ModelWeights, b: &ModelWeights) -> f32 {
    a.iter()
        .zip(b.iter())
        .flat_map(|(x, y)| {
            x.w.data()
                .iter()
                .zip(y.w.data())
                .chain(x.b.data().iter().zip(y.b.data()))
        })
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f32, f32::max)
}

#[test]
fn identity_codec_is_bit_identical_across_transports_and_shapes() {
    let (ref_report, ref_weights) = run_flat(CodecKind::Identity, TransportKind::InProcess, None);
    assert_eq!(ref_report.rounds_completed, 3);
    // Identity bills the encoded column equal to the raw column.
    for round in &ref_report.rounds {
        let wire = round.ledger.total_wire();
        assert!(wire.encoded_bytes() > 0, "rounds must bill wire bytes");
        assert_eq!(wire.encoded_bytes(), wire.raw_bytes());
    }

    let transport = TransportKind::TcpMux;
    let (report, weights) = run_flat(CodecKind::Identity, transport, None);
    assert_eq!(report, ref_report, "{transport:?} diverged from reference");
    assert_eq!(weights, ref_weights);

    let mut sharded = builder(CodecKind::Identity)
        .transport(TransportKind::TcpMux)
        .shards(2)
        .engine(ExecutionEngine::new(2))
        .build_sharded()
        .unwrap();
    let report = sharded.run().unwrap();
    assert_eq!(report, ref_report, "sharded mux diverged from reference");
    assert_eq!(sharded.server().global(), &ref_weights);
    sharded.shutdown().unwrap();

    let mut coord = DistributedCoordinator::builder(plan())
        .clients(
            CLIENTS,
            DatasetSpec::Micro {
                len: DATA_LEN as u64,
                classes: 2,
                dim: DIM as u64,
                seed: DATA_SEED,
            },
        )
        .model(ModelSpec::TinyMlp {
            inputs: DIM as u64,
            hidden: HIDDEN as u64,
            outputs: 2,
            seed: MODEL_SEED,
        })
        .codec(CodecKind::Identity)
        .shards(2)
        .workers(2)
        .launch()
        .unwrap();
    let report = coord.run().unwrap();
    assert_eq!(report, ref_report, "distributed diverged from reference");
    assert_eq!(coord.server().global(), &ref_weights);
    coord.shutdown().unwrap();
}

#[test]
fn identity_codec_is_bit_identical_under_faults() {
    let (ref_report, ref_weights) = run_flat(
        CodecKind::Identity,
        TransportKind::InProcess,
        Some(fault_plan()),
    );
    let transport = TransportKind::TcpMux;
    let (report, weights) = run_flat(CodecKind::Identity, transport, Some(fault_plan()));
    assert_eq!(
        report, ref_report,
        "faulted {transport:?} diverged from reference"
    );
    assert_eq!(weights, ref_weights);
}

#[test]
fn lossy_codecs_are_deterministic_and_transport_invariant() {
    for codec in [CodecKind::Int8, CodecKind::DeltaTopK] {
        let (first, first_weights) = run_flat(codec, TransportKind::InProcess, None);
        let (again, again_weights) = run_flat(codec, TransportKind::InProcess, None);
        assert_eq!(first, again, "{} is not deterministic", codec.name());
        assert_eq!(first_weights, again_weights);
        let transport = TransportKind::TcpMux;
        let (report, weights) = run_flat(codec, transport, None);
        assert_eq!(
            report,
            first,
            "{} over {transport:?} diverged from in-process",
            codec.name()
        );
        assert_eq!(weights, first_weights);
    }
}

#[test]
fn lossy_codecs_shrink_bytes_and_stay_near_the_identity_run() {
    let (ref_report, ref_weights) = run_flat(CodecKind::Identity, TransportKind::InProcess, None);
    let dense = ref_report.rounds.last().unwrap().ledger.total_wire();
    for (codec, bound) in [(CodecKind::Int8, 0.02f32), (CodecKind::DeltaTopK, 0.10)] {
        let (report, weights) = run_flat(codec, TransportKind::InProcess, None);
        assert_eq!(report.rounds_completed, ref_report.rounds_completed);
        // Steady state is the last round: the delta codec's first
        // exchange is dense (no committed view yet).
        let wire = report.rounds.last().unwrap().ledger.total_wire();
        assert_eq!(wire.raw_bytes(), dense.raw_bytes());
        assert!(
            wire.encoded_bytes() * 3 <= wire.raw_bytes(),
            "{}: {} encoded vs {} raw is under 3x",
            codec.name(),
            wire.encoded_bytes(),
            wire.raw_bytes()
        );
        let divergence = max_abs_diff(&weights, &ref_weights);
        assert!(
            divergence <= bound,
            "{}: diverged {divergence} from the identity run (bound {bound})",
            codec.name()
        );
        assert!(divergence > 0.0, "{} should be lossy", codec.name());
    }
}

#[test]
fn delta_codec_survives_faulted_rounds_deterministically() {
    // Garbled replies and crashes desynchronize the delta codec's
    // reference views; the epoch handshake must recover (dense retry)
    // and stay a pure function of the fault seed on every transport.
    let (ref_report, ref_weights) = run_flat(
        CodecKind::DeltaTopK,
        TransportKind::InProcess,
        Some(fault_plan()),
    );
    assert!(ref_report.rounds_completed > 0);
    let transport = TransportKind::TcpMux;
    let (report, weights) = run_flat(CodecKind::DeltaTopK, transport, Some(fault_plan()));
    assert_eq!(
        report, ref_report,
        "faulted delta-topk over {transport:?} diverged"
    );
    assert_eq!(weights, ref_weights);
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
        builder(CodecKind::DeltaTopK)
            // Tolerance only: the failed cycle is recorded, not fatal.
            .faults(FaultPlan::seeded(1))
            .trainer(|id| match id {
                FLAKY => Box::new(FailsSecondCycle(0)),
                _ => Box::new(PlainSgdTrainer),
            })
    };
    let run = |builder: FederationBuilder| {
        let mut fed = builder.build().unwrap();
        let report = fed.run().unwrap();
        let weights = fed.server().global().clone();
        fed.shutdown().unwrap();
        (report, weights)
    };
    let (flat, flat_weights) = run(configured());
    let sharded = configured().shards(2).engine(ExecutionEngine::new(2));
    let mux = configured().transport(TransportKind::TcpMux);
    for (shape, builder) in [("2 shards", sharded), ("mux", mux)] {
        let (report, weights) = run(builder);
        assert_eq!(report, flat, "{shape}: report");
        assert_eq!(weights, flat_weights, "{shape}: weights");
    }
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
    let fed = builder(CodecKind::Int8).build().unwrap();
    assert!(fed.clients().iter().all(|c| c.codec() == CodecKind::Int8));
    fed.shutdown().unwrap();
}
