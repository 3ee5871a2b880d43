//! The deployment gate: one [`Scenario`] describes a lightweight fleet
//! once and yields the one builder of its run, from recipes, one [`run`]
//! builds or launches it under a [`Deployment`], and one [`Gate`]
//! judges every deployment of a [`Section`] against the scenario's flat
//! in-process run — bit for bit — into a table. `repro_gates` prints that
//! table and exits 1 naming every failed cell; tests call [`hold`], which
//! panics with it. Gates gate; how fast a round is belongs to the
//! `benchmark/` package.

use std::fmt;

use gradsec_core::window::MovingWindow;
use gradsec_core::ProtectionPolicy;
use gradsec_fl::client::DeviceProfile;
use gradsec_fl::config::{MuxOptions, TrainingPlan, TransportKind};
use gradsec_fl::message::{DatasetSpec, ModelSpec};
use gradsec_fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec_fl::{AdversaryPlan, Aggregator, CodecKind, FaultPlan, ProtectionScheduler};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::BackendKind;

use crate::table::TextTable;

/// What a run leaves behind: its report and the final global model.
pub type Outcome = (FederationReport, ModelWeights);

/// The model every client trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// `tiny_mlp(dim, dim / 2, 2)` on `SyntheticMicro` features of width
    /// `dim`: 8, or 32 so codec metadata cannot mask payload.
    Mlp(usize),
    /// `lenet5_with(2)` on 2-class `SyntheticCifar100` images, so the
    /// conv, pool and dense kernels all run.
    LeNet,
}

impl Net {
    fn layers(self) -> usize {
        match self {
            Net::Mlp(_) => 2,
            Net::LeNet => 5,
        }
    }

    /// The paper's static policy: `{L2}` on the MLP, `{L2, L5}` on LeNet.
    fn sheltered(self) -> &'static [usize] {
        match self {
            Net::Mlp(_) => &[1],
            Net::LeNet => &[1, 4],
        }
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Net::Mlp(dim) => write!(f, "mlp{dim}"),
            Net::LeNet => f.write_str("lenet"),
        }
    }
}

/// Which layers each round shelters, and in what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No schedule: the builder's default.
    Open,
    /// The net's static paper policy. The builder's default trainer
    /// trains every protected cycle in `SecureTrainer`, so each ledger
    /// carries an enclave bill.
    Secure,
    /// A moving window of half the net's layers, redrawn every round and
    /// billed in the enclave alike.
    Window,
}

/// How much each client holds and trains per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Local {
    /// Two samples, one batch of two: a cycle is one step over the whole
    /// shard. Cheap enough for `repro_gates`' 10k-client fleets.
    OneStep,
    /// Sixteen samples, two batches of four: a cycle takes two steps on
    /// batches drawn from the shard by plan seed, client and round, so a
    /// deployment that draws other batches, or another number of them,
    /// commits other bits.
    TwoSteps,
}

impl Local {
    /// `(samples per client, batches per cycle, batch size)`.
    fn shape(self) -> (usize, usize, usize) {
        match self {
            Local::OneStep => (2, 1, 2),
            Local::TwoSteps => (16, 2, 4),
        }
    }
}

/// One fleet, described once. Everything not a field is fixed: 2
/// classes, data seed 5, model seed 13, plan seed 7, learning rate 0.05.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fleet size.
    pub clients: usize,
    /// Clients selected per round.
    pub cohort: usize,
    /// Rounds per run.
    pub rounds: u64,
    /// The model.
    pub net: Net,
    /// Each client's shard and local steps.
    pub local: Local,
    /// The protection schedule.
    pub policy: Policy,
    /// Every fourth client from the second a legacy device and every
    /// fourth from the third a compromised one, which screening must
    /// refuse alike on every path, shard servers included.
    pub mixed: bool,
    /// Kernel backend.
    pub backend: BackendKind,
    /// Seeded transport faults.
    pub faults: Option<FaultPlan>,
    /// Seeded update poisoners.
    pub adversaries: Option<AdversaryPlan>,
    /// Commit rule.
    pub aggregator: Aggregator,
    /// Update codec.
    pub codec: CodecKind,
    /// Per-round screening cap.
    pub screening: Option<usize>,
}

impl Scenario {
    /// The clean scenario: one round of the whole fleet, narrow MLP, one
    /// step per cycle, no schedule, FedAvg, dense payloads, nothing
    /// hostile.
    pub fn new(clients: usize) -> Self {
        Scenario {
            clients,
            cohort: clients,
            rounds: 1,
            net: Net::Mlp(8),
            local: Local::OneStep,
            policy: Policy::Open,
            mixed: false,
            backend: BackendKind::default(),
            faults: None,
            adversaries: None,
            aggregator: Aggregator::FedAvg,
            codec: CodecKind::Identity,
            screening: None,
        }
    }

    /// The training plan.
    fn plan(&self) -> TrainingPlan {
        let (_, batches_per_cycle, batch_size) = self.local.shape();
        TrainingPlan {
            rounds: self.rounds,
            clients_per_round: self.cohort,
            batches_per_cycle,
            batch_size,
            learning_rate: 0.05,
            seed: 7,
        }
    }

    /// The protection schedule, if any.
    fn protection(&self) -> Option<ProtectionPolicy> {
        let layers = self.net.layers();
        match self.policy {
            Policy::Open => None,
            Policy::Secure => Some(
                ProtectionPolicy::static_layers(self.net.sheltered())
                    .expect("a sheltered set is never empty"),
            ),
            Policy::Window => Some(ProtectionPolicy::dynamic(
                MovingWindow::uniform(layers / 2, layers, 13).expect("half the layers fit"),
            )),
        }
    }

    /// Whether `device` is a TrustZone device, the only kind screening
    /// admits.
    fn trusted(&self, device: usize) -> bool {
        !self.mixed || !matches!(device % 4, 1 | 2)
    }

    /// The fleet's samples: one shard per client.
    fn samples(&self) -> u64 {
        (self.local.shape().0 * self.clients) as u64
    }

    /// The dataset recipe: what a shard server rebuilds its range from,
    /// and what this process builds the fleet's dataset from.
    fn dataset_spec(&self) -> DatasetSpec {
        let (len, classes, seed) = (self.samples(), 2, 5);
        match self.net {
            Net::Mlp(dim) => DatasetSpec::Micro {
                len,
                classes,
                dim: dim as u64,
                seed,
            },
            Net::LeNet => DatasetSpec::Cifar { len, classes, seed },
        }
    }

    /// The model recipe, likewise.
    fn model_spec(&self) -> ModelSpec {
        match self.net {
            Net::Mlp(dim) => ModelSpec::TinyMlp {
                inputs: dim as u64,
                hidden: dim as u64 / 2,
                outputs: 2,
                seed: 13,
            },
            Net::LeNet => ModelSpec::LeNet5 {
                classes: 2,
                seed: 13,
            },
        }
    }

    /// This fleet's run, from its recipes: every [`Deployment`] builds
    /// or launches it.
    pub fn federation(&self) -> FederationBuilder {
        let device = |id: u64| match id % 4 {
            1 if self.mixed => DeviceProfile::legacy(id),
            2 if self.mixed => DeviceProfile::compromised(id),
            _ => DeviceProfile::trustzone(id),
        };
        let devices = (0..self.clients as u64).map(device).collect();
        let mut b = Federation::builder(self.plan())
            .model(self.model_spec())
            .devices(devices, self.dataset_spec())
            .aggregator(self.aggregator)
            .codec(self.codec);
        // The default backend is left to the builder's own default, which
        // `integration_edges` pins as `Reference`.
        if self.backend != BackendKind::default() {
            b = b.backend(self.backend);
        }
        if let Some(policy) = self.protection() {
            b = b.scheduler(policy);
        }
        if let Some(plan) = &self.faults {
            b = b.faults(plan.clone());
        }
        if let Some(plan) = &self.adversaries {
            b = b.adversaries(plan.clone());
        }
        if let Some(cap) = self.screening {
            b = b.screening_sample(cap);
        }
        b
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (clients, cohort, rounds, net) = (self.clients, self.cohort, self.rounds, self.net);
        let (samples, batches, batch_size) = self.local.shape();
        write!(
            f,
            "{clients}c/{cohort} x{rounds} {net} {batches}x{batch_size}/{samples}"
        )?;
        let policy = match self.policy {
            Policy::Open => "",
            Policy::Secure => " secure",
            Policy::Window => " window",
        };
        let codec = self.codec.name();
        write!(
            f,
            "{policy} {codec} {} {}",
            self.backend,
            self.aggregator.name()
        )?;
        if self.mixed {
            f.write_str(" mixed")?;
        }
        if self.faults.is_some() {
            f.write_str(" faulted")?;
        }
        if self.adversaries.is_some() {
            f.write_str(" hostile")?;
        }
        if let Some(cap) = self.screening {
            write!(f, " cap {cap}")?;
        }
        Ok(())
    }
}

/// Where a scenario's clients execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// This process, in-process transport: `(engine shards, workers)`.
    InProcess(usize, usize),
    /// This process, multiplexed loopback TCP: `(engine shards, workers)`.
    Mux(usize, usize),
    /// The multiplexed transport on two loops reading 7 bytes at a time
    /// (raised to `ENVELOPE_HEADER_LEN`) with a 256-byte write
    /// bound, so every payload frame straddles reads and replies park
    /// behind backpressure: `(engine shards, workers)`.
    Trickle(usize, usize),
    /// `shard-server` child processes: `(processes, workers each)`.
    Processes(usize, usize),
}

/// One shard, one worker, no socket: the reference of every section.
pub const FLAT: Deployment = Deployment::InProcess(1, 1);

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Deployment::InProcess(s, w) => write!(f, "in-process {s} shards x {w} workers"),
            Deployment::Mux(s, w) => write!(f, "mux {s} shards x {w} workers"),
            Deployment::Trickle(s, w) => write!(f, "trickle mux {s} shards x {w} workers"),
            Deployment::Processes(p, w) => write!(f, "{p} procs x {w} workers"),
        }
    }
}

/// `cell(a, b)` for every `a`, then every `b`.
pub fn grid(a: &[usize], b: &[usize], cell: fn(usize, usize) -> Deployment) -> Vec<Deployment> {
    let row = |&x| b.iter().map(move |&y| cell(x, y));
    a.iter().flat_map(row).collect()
}

/// A gate that cannot run has failed.
fn must<T>(what: &dyn fmt::Display, step: gradsec_fl::Result<T>) -> T {
    step.unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Runs `scenario` to completion under `deployment` and tears it down.
/// Panics when the fleet cannot be built, a round errors or teardown
/// is not clean.
pub fn run(scenario: &Scenario, deployment: Deployment) -> Outcome {
    let on = |transport, shards, workers| {
        let builder = scenario.federation().transport(transport);
        builder.shards(shards).workers(workers)
    };
    let trickle = MuxOptions {
        loops: 2,
        read_chunk: 7,
        write_bound: 256,
    };
    match deployment {
        Deployment::InProcess(s, w) => drive(deployment, on(TransportKind::InProcess, s, w)),
        Deployment::Mux(s, w) => drive(deployment, on(TransportKind::TcpMux, s, w)),
        Deployment::Trickle(s, w) => {
            drive(deployment, on(TransportKind::TcpMux, s, w).mux(trickle))
        }
        Deployment::Processes(p, w) => {
            let launched = on(TransportKind::InProcess, p, w).launch();
            let mut coordinator = must(&deployment, launched);
            let report = must(&deployment, coordinator.run());
            let weights = coordinator.server().global().clone();
            must(&deployment, coordinator.shutdown());
            (report, weights)
        }
    }
}

/// Builds, runs and tears down an in-process federation, panicking with
/// `what` on any error: every local deployment's path, and the way to run
/// one configured past what a scenario spells — a custom trainer, an
/// explicit default.
pub fn drive(what: impl fmt::Display, builder: FederationBuilder) -> Outcome {
    let mut fed = must(&what, builder.build());
    let report = must(&what, fed.run());
    let weights = fed.server().global().clone();
    must(&what, fed.shutdown());
    (report, weights)
}

/// Coefficient-wise differences between two models of one shape — the
/// one walk both distance bars (max-abs, L2) fold over.
pub fn diffs<'a>(a: &'a ModelWeights, b: &'a ModelWeights) -> impl Iterator<Item = f64> + 'a {
    a.iter().zip(b.iter()).flat_map(|(x, y)| {
        let w = x.w.data().iter().zip(y.w.data());
        w.chain(x.b.data().iter().zip(y.b.data()))
            .map(|(p, q)| f64::from(p - q))
    })
}

/// Bars beyond bit-identity on a reference outcome: `(cell, held, detail)`.
pub type Bars = Vec<(&'static str, bool, String)>;

/// What every run owes whatever its scenario: every round completed, one
/// ledger entry per selected client in id order, each round's layers as
/// the schedule drew them, no screened-out device committed, and under
/// any schedule an enclave bill — kernel and allocation time, crossings,
/// memory — whose critical path is positive and within its total.
pub fn accounted(s: &Scenario, (report, _): &Outcome) -> Bars {
    let schedule = s.protection();
    let (mut ledgers, mut layers, mut screened, mut billed) = (true, true, true, true);
    for r in &report.rounds {
        let ids: Vec<u64> = r.ledger.entries().iter().map(|e| e.client_id).collect();
        let shed = r.stragglers.len() + r.failures.len();
        let selected = r.participants.len() + r.surplus.len() + shed;
        ledgers &= ids.windows(2).all(|w| w[0] < w[1]) && ids.len() == selected;
        let drawn = schedule.as_ref().map(|p| p.layers_for_round(r.round));
        layers &= r.protected_layers == drawn.unwrap_or_default();
        screened &= r.participants.iter().all(|&c| s.trusted(c));
        let (time, path) = (r.ledger.total_time(), r.ledger.critical_path_s());
        billed &= schedule.is_none()
            || time.kernel_s > 0.0
                && time.alloc_s > 0.0
                && r.ledger.total_crossings() > 0
                && r.ledger.max_tee_peak_bytes() > 0
                && 0.0 < path
                && path <= time.total_s() + 1e-12;
    }
    let (done, ran) = (report.rounds_completed, report.rounds.len() as u64);
    let completed = done == s.rounds && ran == s.rounds;
    let rounds = format!("{} rounds", report.rounds.len());
    vec![
        (
            "rounds completed",
            completed,
            format!("{done} of {}", s.rounds),
        ),
        ("ledger per selected client", ledgers, rounds.clone()),
        ("layers as scheduled", layers, rounds.clone()),
        ("only TrustZone committed", screened, rounds.clone()),
        ("enclave billed", billed, rounds),
    ]
}

/// Seeded faults that landed — some client straggled past the deadline
/// and some failed — and a run that still committed: some round has
/// participants.
pub fn faults_landed(_: &Scenario, (report, _): &Outcome) -> Bars {
    let rounds = &report.rounds;
    let straggled: usize = rounds.iter().map(|r| r.stragglers.len()).sum();
    let failed: usize = rounds.iter().map(|r| r.failures.len()).sum();
    let committed = rounds.iter().filter(|r| !r.participants.is_empty()).count();
    vec![
        (
            "stragglers landed",
            straggled > 0,
            format!("{straggled} straggled"),
        ),
        ("failures landed", failed > 0, format!("{failed} failed")),
        (
            "a round committed",
            committed > 0,
            format!("{committed} of {} rounds", rounds.len()),
        ),
    ]
}

/// Identity bills every round's raw bytes, and some; a lossy codec bills
/// the dense run's raw bytes, shrinks the last (steady-state) round by
/// its bar — int8 3.0x (measured 3.40x), delta-topk 5.0x (measured 5.47x
/// with gap-coded indices, 3.91x before them: the bar sits a tenth under
/// the measurement and well over the old layout) — and lands within its
/// pinned max-abs distance of the dense run, but not on it.
pub fn codec_bars(s: &Scenario, (report, weights): &Outcome) -> Bars {
    let last_wire = |report: &FederationReport| {
        let last = report.rounds.last().expect("codec run has rounds");
        last.ledger.total_wire()
    };
    let wire = last_wire(report);
    if s.codec == CodecKind::Identity {
        let raw = report.rounds.iter().all(|r| {
            let wire = r.ledger.total_wire();
            wire.raw_bytes() > 0 && wire.encoded_bytes() == wire.raw_bytes()
        });
        return vec![("bytes == raw", raw, format!("{} B", wire.raw_bytes()))];
    }
    let mut twin = s.clone();
    twin.codec = CodecKind::Identity;
    let (dense_report, dense) = run(&twin, FLAT);
    let dense_raw = last_wire(&dense_report).raw_bytes();
    let distance = diffs(weights, &dense).fold(0.0, |m, d| d.abs().max(m));
    let (bar, bound) = match s.codec {
        CodecKind::Int8 => (3.0, 0.02),
        _ => (5.0, 0.10),
    };
    let ratio = wire.compression_ratio();
    let shrunk = report.rounds_completed == s.rounds && ratio >= bar;
    let within = 0.0 < distance && distance <= bound;
    vec![
        (
            "raw == dense raw",
            wire.raw_bytes() == dense_raw,
            format!("{} B, dense {dense_raw} B", wire.raw_bytes()),
        ),
        (
            "last-round bytes",
            shrunk,
            format!("{ratio:.2}x, bar {bar:.1}x"),
        ),
        ("distance", within, format!("{distance:.5}, bound {bound}")),
    ]
}

/// One table section: a scenario, the deployments that must reproduce
/// its flat in-process run, and extra bars on that run.
pub struct Section {
    /// Section name (first table column).
    pub name: String,
    /// The fleet.
    pub scenario: Scenario,
    /// The deployments judged against [`FLAT`].
    pub deployments: Vec<Deployment>,
    /// Bars beyond identity, if any.
    pub bars: Option<fn(&Scenario, &Outcome) -> Bars>,
}

impl Section {
    /// A section without extra bars.
    pub fn new(name: impl Into<String>, scenario: Scenario, deployments: Vec<Deployment>) -> Self {
        Section {
            name: name.into(),
            scenario,
            deployments,
            bars: None,
        }
    }

    /// The section with `bars` judged on its reference run.
    pub fn bars(self, bars: fn(&Scenario, &Outcome) -> Bars) -> Self {
        Section {
            bars: Some(bars),
            ..self
        }
    }
}

/// Collects named verdicts into a table.
pub struct Gate {
    table: TextTable,
    failures: Vec<String>,
}

impl Default for Gate {
    fn default() -> Self {
        Gate {
            table: TextTable::new(vec!["section", "cell", "verdict", "detail"]),
            failures: Vec::new(),
        }
    }
}

impl Gate {
    /// Records one verdict.
    pub fn check(&mut self, section: &str, cell: &str, held: bool, detail: &str) {
        let verdict = if held { "ok" } else { "FAILED" };
        self.table.row(vec![section, cell, verdict, detail]);
        if !held {
            self.failures.push(format!("{section} / {cell}"));
        }
    }

    /// Records whether `got` equals `reference` bit for bit, naming the
    /// half that diverged.
    fn identical(&mut self, section: &str, cell: &str, reference: &Outcome, got: &Outcome) {
        let detail = match (got.0 == reference.0, got.1 == reference.1) {
            (true, true) => "bit-identical",
            (false, true) => "report diverged",
            (true, false) => "weights diverged",
            (false, false) => "report and weights diverged",
        };
        self.check(section, cell, got == reference, detail);
    }

    /// Runs a section: its reference once, every deployment against it,
    /// then its extra bars.
    pub fn section(&mut self, section: &Section) {
        let Section { name, scenario, .. } = section;
        eprintln!("{name}…");
        let reference = run(scenario, FLAT);
        for &deployment in &section.deployments {
            let got = run(scenario, deployment);
            self.identical(name, &deployment.to_string(), &reference, &got);
        }
        let bars = section.bars.map_or(vec![], |b| b(scenario, &reference));
        for (cell, held, detail) in bars {
            self.check(name, cell, held, &detail);
        }
    }

    /// Every failed cell so far, as `section / cell`.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Whether any cell failed.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Rows recorded so far.
    pub fn cells(&self) -> usize {
        self.table.len()
    }

    /// Prints the table and exits 1 listing every failed cell, if any.
    pub fn finish(self) {
        print!("{}", self.table.render());
        if self.failed() {
            for cell in &self.failures {
                eprintln!("FAIL: {cell}");
            }
            std::process::exit(1);
        }
        println!("OK: all {} cells hold", self.cells());
    }
}

/// Runs every section and panics with the table and every failed cell
/// if any failed: [`Gate::finish`] for a test.
pub fn hold(sections: &[Section]) {
    let mut gate = Gate::default();
    for section in sections {
        gate.section(section);
    }
    let failed = gate.failures.join("\n  ");
    assert!(!gate.failed(), "{}failed:\n  {failed}", gate.table.render());
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gradsec_data::{Dataset, SyntheticCifar100, SyntheticMicro};
    use gradsec_nn::{zoo, Sequential};

    use super::*;

    fn outcome() -> Outcome {
        run(&Scenario::new(4), FLAT)
    }

    /// A diverging gate bin exits non-zero because these four kinds of
    /// miss each land in `failures` under their own cell name.
    #[test]
    fn gate_reports_each_kind_of_miss_by_cell_name() {
        let reference = outcome();
        let mut gate = Gate::default();
        gate.identical("s", "twin", &reference, &outcome());
        gate.check("s", "bar held", true, "");
        assert!(!gate.failed() && gate.failures().is_empty());
        assert_eq!(gate.cells(), 2);

        let mut bit = reference.clone();
        let mut layers: Vec<_> = bit.1.iter().cloned().collect();
        let w = &mut layers[0].w.data_mut()[0];
        *w = f32::from_bits(w.to_bits() ^ 1);
        bit.1 = ModelWeights::new(layers);
        let mut field = reference.clone();
        field.0.rounds[0].participants.pop();
        gate.identical("s", "weight bit", &reference, &bit);
        gate.identical("s", "report field", &reference, &field);
        gate.check("s", "byte bar", 2.9 >= 3.0, "2.90x, bar 3.0x");
        gate.check("s", "extra bar", false, "no fault landed");
        let missed = ["weight bit", "report field", "byte bar", "extra bar"];
        assert!(gate.failed());
        assert_eq!(gate.failures(), missed.map(|cell| format!("s / {cell}")));
        let table = gate.table.render();
        assert!(table.contains("weights diverged") && table.contains("report diverged"));
    }

    /// One literal per number: the recipes a shard server rebuilds from
    /// are the literals a closure-built fleet spells, and the fleet built
    /// in process from them commits the closure-built fleet's report and
    /// weights, bit for bit.
    #[test]
    fn scenario_recipes_and_in_process_fleet_are_one_literal() {
        let by_closures = |s: &Scenario, model: fn() -> Sequential, data: Arc<dyn Dataset>| {
            let closures = Federation::builder(s.plan())
                .model(model)
                .clients(s.clients, data);
            assert_eq!(drive("closures", closures), run(s, FLAT), "{s}");
        };
        for (dim, hidden) in [(8, 4), (32, 16)] {
            let mut s = Scenario::new(10);
            s.net = Net::Mlp(dim);
            let data = s.dataset_spec().build();
            let [len, classes, width] =
                [data.len(), data.num_classes(), data.image_dims().1].map(|v| v as u64);
            assert_eq!([len, classes, width], [20, 2, dim as u64]);
            let seed = 5;
            let recipe = DatasetSpec::Micro {
                len,
                classes,
                dim: width,
                seed,
            };
            assert_eq!(s.dataset_spec(), recipe);
            let (inputs, outputs, seed) = (dim as u64, 2, 13);
            let recipe = ModelSpec::TinyMlp {
                inputs,
                hidden,
                outputs,
                seed,
            };
            assert_eq!(s.model_spec(), recipe);
            let plan = s.plan();
            assert_eq!((plan.seed, plan.learning_rate), (7, 0.05));
            assert_eq!((plan.batches_per_cycle, plan.batch_size), (1, 2));
            let model: fn() -> Sequential = if dim == 8 {
                || zoo::tiny_mlp(8, 4, 2, 13).unwrap()
            } else {
                || zoo::tiny_mlp(32, 16, 2, 13).unwrap()
            };
            by_closures(&s, model, Arc::new(SyntheticMicro::new(20, 2, dim, 5)));
        }
        let stepped = Scenario {
            local: Local::TwoSteps,
            ..Scenario::new(10)
        };
        let plan = stepped.plan();
        assert_eq!((plan.batches_per_cycle, plan.batch_size), (2, 4));
        let spec = DatasetSpec::Micro {
            len: 160,
            classes: 2,
            dim: 8,
            seed: 5,
        };
        assert_eq!(stepped.dataset_spec(), spec);
        let lenet = Scenario {
            net: Net::LeNet,
            ..Scenario::new(10)
        };
        let data = lenet.dataset_spec().build();
        assert_eq!([data.len(), data.num_classes()], [20, 2]);
        let recipe = DatasetSpec::Cifar {
            len: 20,
            classes: 2,
            seed: 5,
        };
        assert_eq!(lenet.dataset_spec(), recipe);
        let recipe = ModelSpec::LeNet5 {
            classes: 2,
            seed: 13,
        };
        assert_eq!(lenet.model_spec(), recipe);
        let model = || zoo::lenet5_with(2, 13).unwrap();
        let data = Arc::new(SyntheticCifar100::with_classes(20, 2, 5));
        by_closures(&lenet, model, data);
    }
}
