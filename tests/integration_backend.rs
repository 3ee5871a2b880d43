//! Backend invariance across the federation stack.
//!
//! The kernel backend is a *whole-run* policy: `FederationBuilder::
//! backend(...)` points the prototype model at one kernel set and every
//! replica a client's cycle borrows inherits it. Within one backend,
//! runs must stay bit-identical across engines, engine shards and
//! transports, faulted or not — named slices of the deployment matrix
//! (`deployment_matrix.rs`), judged by the same gate. Across backends only
//! f32 rounding may differ. LeNet-5 runs, so the conv, pool, dense and
//! elementwise kernels all count, not just matmul.

use gradsec::fl::FaultPlan;
use gradsec::nn::BackendKind;
use gradsec_bench::gate::Deployment::{InProcess, Mux};
use gradsec_bench::gate::{
    drive, grid, hold, run, Bars, Local, Net, Outcome, Scenario, Section, FLAT,
};

/// LeNet-5 on `backend`: 2 of 4 clients a round, twice, two sampled
/// batches per cycle.
fn lenet(backend: BackendKind) -> Scenario {
    Scenario {
        cohort: 2,
        rounds: 2,
        net: Net::LeNet,
        local: Local::TwoSteps,
        backend,
        ..Scenario::new(4)
    }
}

#[test]
fn runs_are_bit_identical_within_each_backend() {
    let mut cells = grid(&[1], &[2, 4], InProcess);
    cells.extend([InProcess(2, 1), InProcess(2, 2), InProcess(4, 2), Mux(2, 2)]);
    let per_backend = |b: BackendKind| Section::new(b.to_string(), lenet(b), cells.clone());
    hold(&BackendKind::ALL.map(per_backend));
}

/// Faulted runs are bit-identical within a backend too: the fault plan
/// is a pure function of its seed, and the backend only changes kernel
/// arithmetic, never control flow.
#[test]
fn faulted_runs_are_bit_identical_within_each_backend() {
    // The chaos must be real for the property to mean anything.
    fn injected(_: &Scenario, (report, _): &Outcome) -> Bars {
        let rounds = &report.rounds;
        let hit = rounds
            .iter()
            .any(|r| !r.failures.is_empty() || !r.surplus.is_empty());
        vec![("faults injected", hit, format!("{} rounds", rounds.len()))]
    }
    let faulted = |backend| {
        let scenario = Scenario {
            faults: Some(FaultPlan::seeded(41).dropout(0.3).spare(2)),
            ..lenet(backend)
        };
        let cells = vec![InProcess(2, 2), InProcess(4, 1)];
        Section::new(backend.to_string(), scenario, cells).bars(injected)
    };
    hold(&BackendKind::ALL.map(faulted));
}

/// The builder default is `Reference` and is bit-identical to passing
/// that kind explicitly; tiled runs land within kernel-rounding distance
/// of reference but are *not* required to match bits.
#[test]
fn backends_agree_within_rounding_and_default_is_reference() {
    // A scenario on the default backend leaves the builder's default alone.
    let (default_report, default_weights) = run(&lenet(BackendKind::default()), FLAT);
    let explicit = lenet(BackendKind::Reference).federation();
    let (ref_report, ref_weights) = drive(
        "explicit reference",
        explicit.backend(BackendKind::Reference),
    );
    assert_eq!(
        default_report, ref_report,
        "default backend is not `Reference`"
    );
    assert_eq!(default_weights, ref_weights);

    // The tiled backend (register-tiled GEMM, virtual-im2col conv,
    // fused activations — whichever micro-kernel ISA the host resolves)
    // honours the same whole-run contract: identical control flow,
    // kernel arithmetic within rounding distance of reference.
    let (tld_report, tld_weights) = run(&lenet(BackendKind::Tiled), FLAT);
    assert_eq!(tld_report.rounds_completed, ref_report.rounds_completed);
    for (r, t) in ref_report.rounds.iter().zip(&tld_report.rounds) {
        assert_eq!(
            r.participants, t.participants,
            "selection must not depend on backend"
        );
        assert!(
            (r.mean_loss - t.mean_loss).abs() < 1e-3,
            "round {}: loss {} vs {}",
            r.round,
            r.mean_loss,
            t.mean_loss
        );
    }
    for (a, t) in ref_weights.iter().zip(tld_weights.iter()) {
        assert!(
            a.w.approx_eq(&t.w, 1e-2),
            "tiled weights drifted past rounding distance"
        );
        assert!(a.b.approx_eq(&t.b, 1e-2));
    }
}
