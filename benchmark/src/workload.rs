//! The four workloads: what each configures, how one `--seed` becomes
//! its inputs, and how the same configuration is built on each runner.

use std::sync::Arc;

use gradsec_core::{ProtectionPolicy, SecureTrainer};
use gradsec_data::{Dataset, SyntheticCifar100, SyntheticMicro};
use gradsec_fl::config::{TrainingPlan, TransportKind};
use gradsec_fl::message::{DatasetSpec, ModelSpec};
use gradsec_fl::runner::{Federation, FederationBuilder, RoundReport};
use gradsec_fl::{
    AdversaryPlan, Aggregator, CodecKind, DistributedCoordinator, ExecutionEngine, FaultPlan,
    LatencyModel, MuxOptions, ShardedFederation,
};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::{zoo, BackendKind, Sequential};

use crate::json::{obj, Json};
use crate::Res;

/// Client exchanges in flight within a round, on every workload and
/// runner: two engine workers, or two shards of one worker, or two shard
/// processes of one worker — and two event loops under the mux. Constants,
/// not derived from the host, so two hosts run the same program.
pub const IN_FLIGHT: usize = 2;

/// Warm-up rounds before anything is timed: lazy set-up finishes, and
/// delta-topk gets past its dense first exchange.
pub const WARMUP_ROUNDS: usize = 2;

/// Smoke mode divides every fleet by this.
const SMOKE_FLEET_DIVISOR: usize = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload::LenetProtected,
    Workload::FleetMux1k,
    Workload::WideDeltaTopk,
    Workload::DistributedHostile,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LenetProtected,
    FleetMux1k,
    WideDeltaTopk,
    DistributedHostile,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::LenetProtected => "lenet_protected",
            Workload::FleetMux1k => "fleet_mux_1k",
            Workload::WideDeltaTopk => "wide_delta_topk",
            Workload::DistributedHostile => "distributed_hostile",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// Which round loop drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnerKind {
    /// `Federation`, [`IN_FLIGHT`] engine workers.
    Flat,
    /// `ShardedFederation`, [`IN_FLIGHT`] shards of one worker.
    Sharded,
    /// `DistributedCoordinator`, [`IN_FLIGHT`] processes of one worker.
    Distributed,
}

impl RunnerKind {
    pub fn name(self) -> &'static str {
        match self {
            RunnerKind::Flat => "flat",
            RunnerKind::Sharded => "sharded",
            RunnerKind::Distributed => "distributed",
        }
    }
}

/// SplitMix64 over the master seed and a label hash: one `--seed` fans
/// out into independent, stable seeds for plan, data, model, faults and
/// adversaries.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325; // FNV-1a
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = (master ^ h).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One workload, fully resolved: everything that decides what the
/// program under test computes.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// What the command line gave: with the workload's name, enough to
    /// build the same configuration in another process.
    pub seed: u64,
    pub seconds: u64,
    /// Smoke mode: fleets an eighth the size, two timed rounds, probes
    /// that only check the path.
    pub smoke: bool,
    pub clients: usize,
    pub plan: TrainingPlan,
    pub model: ModelSpec,
    pub data: DatasetSpec,
    pub runner: RunnerKind,
    pub transport: TransportKind,
    pub codec: CodecKind,
    pub backend: BackendKind,
    /// Layers sheltered every round by `SecureTrainer` (empty: plain SGD).
    pub protected: Vec<usize>,
    pub faults: Option<FaultPlan>,
    pub adversaries: Option<AdversaryPlan>,
    pub aggregator: Aggregator,
    pub screening_sample: Option<usize>,
    /// Timed rounds the exact metrics (bytes, completed share) are summed
    /// over — a function of `--seconds` alone, never of how fast the host
    /// is, so those metrics repeat exactly.
    pub exact_rounds: usize,
    /// Largest max-abs distance from the identity-codec reference the
    /// correctness phase accepts after its three rounds, pinned the way
    /// `repro_rounds` pins its own: about twice what seeds 7 and 11 show.
    /// 0 demands bit-identity.
    pub divergence_bound: f32,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: u64, smoke: bool) -> Config {
        let scale = |n: usize| {
            if smoke {
                (n / SMOKE_FLEET_DIVISOR).max(1)
            } else {
                n
            }
        };
        let plan = |clients_per_round: usize, batches_per_cycle: usize, batch_size: usize| {
            TrainingPlan {
                // Rounds are driven one at a time; the plan only has to
                // outlast any run.
                rounds: 1_000_000,
                clients_per_round,
                batches_per_cycle,
                batch_size,
                learning_rate: 0.05,
                seed: derive_seed(seed, "plan"),
            }
        };
        let micro = |clients: usize, dim: u64| DatasetSpec::Micro {
            len: 2 * clients as u64,
            classes: 2,
            dim,
            seed: derive_seed(seed, "data"),
        };
        let mlp = |inputs: u64, hidden: u64| ModelSpec::TinyMlp {
            inputs,
            hidden,
            outputs: 2,
            seed: derive_seed(seed, "model") >> 1, // tiny_mlp seeds layer 2 with seed + 1
        };
        // Exact-metric window per 10 s of `--seconds`: roughly a third of
        // the rounds the sizing host completes, so a host three times
        // slower still ends on the clock rather than on the count.
        let exact = |per_10s: u64| {
            if smoke {
                2
            } else {
                (per_10s * seconds).div_ceil(10).max(2) as usize
            }
        };
        let base = Config {
            workload,
            seed,
            seconds,
            smoke,
            clients: 0,
            plan: plan(1, 1, 2),
            model: mlp(8, 4),
            data: micro(1, 8),
            runner: RunnerKind::Flat,
            transport: TransportKind::InProcess,
            codec: CodecKind::Identity,
            backend: BackendKind::Reference,
            protected: Vec::new(),
            faults: None,
            adversaries: None,
            aggregator: Aggregator::FedAvg,
            screening_sample: None,
            exact_rounds: exact(10),
            divergence_bound: 0.0,
        };
        match workload {
            Workload::LenetProtected => {
                let clients = scale(8);
                Config {
                    clients,
                    plan: plan(clients, 2, 32),
                    model: ModelSpec::LeNet5 {
                        classes: 10,
                        seed: derive_seed(seed, "model") >> 8, // lenet5 offsets the seed per layer
                    },
                    data: DatasetSpec::Cifar {
                        len: 64 * clients as u64,
                        classes: 10,
                        seed: derive_seed(seed, "data"),
                    },
                    backend: BackendKind::Tiled,
                    // The paper's static policy {L2, L5}, zero-based.
                    protected: vec![1, 4],
                    ..base
                }
            }
            Workload::FleetMux1k => {
                let clients = scale(1000);
                Config {
                    clients,
                    plan: plan(clients, 1, 2),
                    model: mlp(8, 4),
                    data: micro(clients, 8),
                    transport: TransportKind::TcpMux,
                    exact_rounds: exact(30),
                    ..base
                }
            }
            Workload::WideDeltaTopk => {
                let clients = scale(256);
                Config {
                    clients,
                    plan: plan(clients, 1, 2),
                    model: mlp(256, 128),
                    data: micro(clients, 256),
                    runner: RunnerKind::Sharded,
                    codec: CodecKind::DeltaTopK,
                    exact_rounds: exact(25),
                    // Observed 0.0127 (seed 7) and 0.0240 (seed 11), at most
                    // 0.0275 over a dozen other seeds.
                    divergence_bound: 0.05,
                    ..base
                }
            }
            Workload::DistributedHostile => {
                let clients = scale(1000);
                let k = scale(250);
                Config {
                    clients,
                    plan: plan(k, 1, 2),
                    model: mlp(32, 16),
                    data: micro(clients, 32),
                    runner: RunnerKind::Distributed,
                    codec: CodecKind::Int8,
                    faults: Some(
                        FaultPlan::seeded(derive_seed(seed, "faults"))
                            .dropout(0.10)
                            .drop_messages(0.05)
                            .garble_replies(0.02)
                            .latency(LatencyModel::Exponential { mean_s: 0.5 })
                            .spare(scale(24)),
                    ),
                    adversaries: Some(
                        AdversaryPlan::seeded(derive_seed(seed, "adversaries")).poisoners(0.20),
                    ),
                    aggregator: Aggregator::TrimmedMean { trim: scale(62) },
                    screening_sample: Some(scale(500)),
                    exact_rounds: exact(250),
                    // Observed 0.0058 (seed 7) and 0.0048 (seed 11), at most
                    // 0.0063 over a dozen other seeds.
                    divergence_bound: 0.012,
                    ..base
                }
            }
        }
    }

    pub fn build_model(&self) -> Res<Sequential> {
        Config::model_from(self.model, self.backend)
    }

    pub fn build_dataset(&self) -> Arc<dyn Dataset> {
        match self.data {
            DatasetSpec::Micro {
                len,
                classes,
                dim,
                seed,
            } => Arc::new(SyntheticMicro::new(
                len as usize,
                classes as usize,
                dim as usize,
                seed,
            )),
            DatasetSpec::Cifar { len, classes, seed } => Arc::new(SyntheticCifar100::with_classes(
                len as usize,
                classes as usize,
                seed,
            )),
        }
    }

    /// The in-process builder every flat and sharded variant starts from.
    fn federation_builder(
        &self,
        transport: TransportKind,
        codec: CodecKind,
        engine: ExecutionEngine,
    ) -> FederationBuilder {
        let model = self.model;
        let backend = self.backend;
        let mut b = Federation::builder(self.plan)
            .model(move || {
                Config::model_from(model, backend).expect("the model spec built once already")
            })
            .clients(self.clients, self.build_dataset())
            .backend(self.backend)
            .codec(codec)
            .transport(transport)
            .mux(MuxOptions {
                loops: IN_FLIGHT,
                ..MuxOptions::default()
            })
            .engine(engine)
            .aggregator(self.aggregator);
        if !self.protected.is_empty() {
            let policy = ProtectionPolicy::static_layers(&self.protected)
                .expect("a non-empty static layer set is a valid policy");
            b = b
                .trainer(|_| Box::new(SecureTrainer::new()))
                .scheduler(policy);
        }
        if let Some(plan) = &self.faults {
            b = b.faults(plan.clone());
        }
        if let Some(plan) = &self.adversaries {
            b = b.adversaries(plan.clone());
        }
        if let Some(m) = self.screening_sample {
            b = b.screening_sample(m);
        }
        b
    }

    fn model_from(spec: ModelSpec, backend: BackendKind) -> Res<Sequential> {
        let mut model = match spec {
            ModelSpec::TinyMlp {
                inputs,
                hidden,
                outputs,
                seed,
            } => zoo::tiny_mlp(inputs as usize, hidden as usize, outputs as usize, seed)?,
            ModelSpec::LeNet5 { classes, seed } => zoo::lenet5_with(classes as usize, seed)?,
        };
        model.set_backend(backend);
        Ok(model)
    }

    /// The flat fleet on the workload's own transport and codec: what the
    /// staged round drives and is checked against.
    pub fn build_flat(&self) -> Res<Federation> {
        Ok(self
            .federation_builder(self.transport, self.codec, ExecutionEngine::new(IN_FLIGHT))
            .build()?)
    }

    /// The workload's configuration on `kind`'s round loop. Shard servers
    /// host in-process clients behind plain SGD trainers, so a distributed
    /// build bypasses both the workload's sockets and `SecureTrainer`'s
    /// simulated bill; the arithmetic it commits is the same.
    pub fn build(&self, kind: RunnerKind) -> Res<Runner> {
        Ok(match kind {
            RunnerKind::Flat => Runner::Flat(self.build_flat()?),
            RunnerKind::Sharded => Runner::Sharded(
                self.federation_builder(self.transport, self.codec, ExecutionEngine::new(1))
                    .shards(IN_FLIGHT)
                    .build_sharded()?,
            ),
            RunnerKind::Distributed => {
                let mut b = DistributedCoordinator::builder(self.plan)
                    .clients(self.clients, self.data)
                    .model(self.model)
                    .shards(IN_FLIGHT)
                    .workers(1)
                    .backend(self.backend)
                    .codec(self.codec)
                    .aggregator(self.aggregator);
                if !self.protected.is_empty() {
                    b = b.scheduler(
                        ProtectionPolicy::static_layers(&self.protected)
                            .expect("a non-empty static layer set is a valid policy"),
                    );
                }
                if let Some(plan) = &self.faults {
                    b = b.faults(plan.clone());
                }
                if let Some(plan) = &self.adversaries {
                    b = b.adversaries(plan.clone());
                }
                if let Some(m) = self.screening_sample {
                    b = b.screening_sample(m);
                }
                Runner::Distributed(b.launch()?)
            }
        })
    }

    /// The workload as it is defined: its own runner.
    pub fn build_real(&self) -> Res<Runner> {
        self.build(self.runner)
    }

    /// The correctness reference: same plan, seeds, backend, fault and
    /// adversary plans — on the flat runner, in process, identity codec,
    /// one client at a time.
    pub fn build_reference(&self) -> Res<Runner> {
        Ok(Runner::Flat(
            self.federation_builder(
                TransportKind::InProcess,
                CodecKind::Identity,
                ExecutionEngine::sequential(),
            )
            .build()?,
        ))
    }

    /// Clients selected per round, spares included.
    pub fn selected_per_round(&self) -> usize {
        self.plan.clients_per_round + self.faults.as_ref().map_or(0, FaultPlan::spare_count)
    }

    pub fn to_json(&self) -> Json {
        obj(vec![
            ("workload", Json::from(self.workload.name())),
            ("clients", Json::from(self.clients)),
            ("clients_per_round", Json::from(self.plan.clients_per_round)),
            ("selected_per_round", Json::from(self.selected_per_round())),
            ("batches_per_cycle", Json::from(self.plan.batches_per_cycle)),
            ("batch_size", Json::from(self.plan.batch_size)),
            (
                "learning_rate",
                Json::from(f64::from(self.plan.learning_rate)),
            ),
            ("model", Json::from(format!("{:?}", self.model))),
            ("data", Json::from(format!("{:?}", self.data))),
            ("runner", Json::from(self.runner.name())),
            ("in_flight", Json::from(IN_FLIGHT)),
            ("transport", Json::from(format!("{:?}", self.transport))),
            ("codec", Json::from(self.codec.name())),
            ("backend", Json::from(self.backend.name())),
            (
                "protected_layers",
                Json::from(self.protected.iter().map(|&l| l as u64).collect::<Vec<_>>()),
            ),
            ("aggregator", Json::from(self.aggregator.name())),
            (
                "screening_sample",
                self.screening_sample.map_or(Json::Null, Json::from),
            ),
            (
                "faults",
                self.faults
                    .as_ref()
                    .map_or(Json::Null, |f| Json::from(format!("{f:?}"))),
            ),
            (
                "adversaries",
                self.adversaries
                    .as_ref()
                    .map_or(Json::Null, |a| Json::from(format!("{a:?}"))),
            ),
            ("plan_seed", Json::from(format!("{:#x}", self.plan.seed))),
            ("warmup_rounds", Json::from(WARMUP_ROUNDS)),
            ("exact_rounds", Json::from(self.exact_rounds)),
            (
                "divergence_bound",
                Json::from(f64::from(self.divergence_bound)),
            ),
        ])
    }
}

/// A fleet on one of the three round loops, behind the calls they share.
pub enum Runner {
    Flat(Federation),
    Sharded(ShardedFederation),
    Distributed(DistributedCoordinator),
}

impl Runner {
    pub fn run_round(&mut self) -> Res<RoundReport> {
        Ok(match self {
            Runner::Flat(f) => f.run_round()?,
            Runner::Sharded(f) => f.run_round()?,
            Runner::Distributed(f) => f.run_round()?,
        })
    }

    pub fn global(&self) -> &ModelWeights {
        match self {
            Runner::Flat(f) => f.server().global(),
            Runner::Sharded(f) => f.server().global(),
            Runner::Distributed(f) => f.server().global(),
        }
    }

    /// Shard-control bytes `(sent, received)` so far; zero off the
    /// distributed runner.
    pub fn control_bytes(&self) -> (u64, u64) {
        match self {
            Runner::Distributed(f) => f.bytes_on_wire(),
            _ => (0, 0),
        }
    }

    pub fn shutdown(self) -> Res<()> {
        match self {
            Runner::Flat(f) => f.shutdown()?,
            Runner::Sharded(f) => f.shutdown()?,
            Runner::Distributed(f) => f.shutdown()?,
        }
        Ok(())
    }
}

/// Largest absolute coefficient difference between two models of one
/// architecture. A difference that is not a number wins over every number
/// — `f32::max` would drop it, and a model gone NaN would read as 0 — and
/// two models of different shapes have no distance at all.
pub fn max_abs_divergence(a: &ModelWeights, b: &ModelWeights) -> Res<f32> {
    if a.num_layers() != b.num_layers() {
        return Err(format!(
            "models differ in depth: {} against {} layers",
            a.num_layers(),
            b.num_layers()
        )
        .into());
    }
    let mut worst = 0.0f32;
    for (layer, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        for (p, q) in [(x.w.data(), y.w.data()), (x.b.data(), y.b.data())] {
            if p.len() != q.len() {
                return Err(format!(
                    "layer {layer} differs in size: {} against {} coefficients",
                    p.len(),
                    q.len()
                )
                .into());
            }
            for (p, q) in p.iter().zip(q) {
                let d = (p - q).abs();
                if d.is_nan() || d > worst {
                    worst = d;
                }
            }
            if worst.is_nan() {
                return Ok(worst);
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_pinned() {
        // These values are part of the benchmark's definition: changing
        // the derivation changes every workload's inputs.
        assert_eq!(derive_seed(7, "plan"), 0x1BCB_F2C4_173B_B906);
        assert_eq!(derive_seed(7, "data"), 0x42EF_76B0_B925_F8F8);
        assert_eq!(derive_seed(11, "plan"), 0x3EDE_8918_A75E_9525);
    }

    #[test]
    fn seeds_are_independent_per_label_and_per_master() {
        let labels = ["plan", "data", "model", "faults", "adversaries"];
        let mut seen = std::collections::BTreeSet::new();
        for master in [0u64, 1, 7, 11, u64::MAX] {
            for label in labels {
                assert!(seen.insert(derive_seed(master, label)));
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("alexnet"), None);
    }

    #[test]
    fn smoke_shrinks_fleets_not_shapes() {
        for w in WORKLOADS {
            let full = Config::new(w, 7, 10, false);
            let smoke = Config::new(w, 7, 10, true);
            assert_eq!(smoke.clients, (full.clients / 8).max(1), "{}", w.name());
            assert_eq!(smoke.model, full.model);
            assert_eq!(smoke.codec, full.codec);
            assert_eq!(smoke.exact_rounds, 2);
        }
    }

    fn weights(w: &[f32], b: &[f32]) -> ModelWeights {
        use gradsec_nn::model::LayerWeights;
        use gradsec_tensor::Tensor;
        ModelWeights::new(vec![LayerWeights {
            w: Tensor::from_vec(w.to_vec(), &[w.len()]).expect("a vector"),
            b: Tensor::from_vec(b.to_vec(), &[b.len()]).expect("a vector"),
        }])
    }

    #[test]
    fn divergence_is_the_largest_distance() {
        let a = weights(&[1.0, 2.0, 3.0], &[0.5]);
        let b = weights(&[1.0, 2.25, 2.9], &[0.0]);
        assert_eq!(max_abs_divergence(&a, &a).unwrap(), 0.0);
        assert_eq!(max_abs_divergence(&a, &b).unwrap(), 0.5);
    }

    #[test]
    fn a_nan_coefficient_is_not_a_divergence_of_zero() {
        let a = weights(&[1.0, 2.0, 3.0], &[0.5]);
        // Wherever it sits, before or after a finite difference.
        for nan_at in 0..3 {
            let mut w = [1.0, 2.5, 3.0];
            w[nan_at] = f32::NAN;
            let d = max_abs_divergence(&a, &weights(&w, &[0.5])).unwrap();
            assert!(d.is_nan(), "NaN at {nan_at} read as {d}");
            let within_bound = d <= 0.05;
            assert!(!within_bound, "and passes no bound");
        }
        let d = max_abs_divergence(&a, &weights(&[1.0, 2.0, 3.0], &[f32::INFINITY])).unwrap();
        assert_eq!(d, f32::INFINITY);
    }

    #[test]
    fn models_of_different_shapes_have_no_divergence() {
        let a = weights(&[1.0, 2.0, 3.0], &[0.5]);
        assert!(max_abs_divergence(&a, &weights(&[1.0, 2.0], &[0.5])).is_err());
        assert!(max_abs_divergence(&a, &weights(&[1.0, 2.0, 3.0], &[])).is_err());
        assert!(max_abs_divergence(&a, &ModelWeights::new(Vec::new())).is_err());
    }

    #[test]
    fn exact_window_depends_on_seconds_alone() {
        let a = Config::new(Workload::DistributedHostile, 7, 10, false);
        let b = Config::new(Workload::DistributedHostile, 11, 10, false);
        assert_eq!(a.exact_rounds, b.exact_rounds);
        assert_eq!(
            Config::new(Workload::DistributedHostile, 7, 5, false).exact_rounds,
            a.exact_rounds / 2
        );
    }
}
