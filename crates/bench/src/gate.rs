//! The fleet-scale gate: one [`Scenario`] describes a lightweight fleet
//! (synthetic-micro data, tiny MLP) once and yields both the in-process
//! and the multi-process builder for it, one [`run`] executes it under a
//! [`Deployment`], and one [`Gate`] judges every deployment against the
//! scenario's reference — bit for bit — into a table, then exits 1
//! naming every failed cell. Gates gate; how fast a round is belongs to
//! the `benchmark/` package.

use std::fmt;
use std::sync::Arc;

use gradsec_data::SyntheticMicro;
use gradsec_fl::config::{TrainingPlan, TransportKind};
use gradsec_fl::distributed::DistributedBuilder;
use gradsec_fl::message::{DatasetSpec, ModelSpec};
use gradsec_fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec_fl::{
    AdversaryPlan, Aggregator, CodecKind, DistributedCoordinator, ExecutionEngine, FaultPlan,
};
use gradsec_nn::model::{ModelWeights, Sequential};
use gradsec_nn::zoo;

use crate::table::TextTable;

/// What a run leaves behind: its report and the final global model.
pub type Outcome = (FederationReport, ModelWeights);

/// One fleet, described once. Everything not a field is fixed: two
/// samples per client, 2 classes, data seed 5, hidden width `dim / 2`,
/// model seed 13, plan seed 7, learning rate 0.05, one batch of 2.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Fleet size.
    pub clients: usize,
    /// Clients selected per round.
    pub cohort: usize,
    /// Rounds per run.
    pub rounds: u64,
    /// Model input width: 8, or 32 so codec metadata cannot mask payload.
    pub dim: usize,
    /// Seeded transport faults.
    pub faults: Option<FaultPlan>,
    /// Seeded hostile personas.
    pub adversaries: Option<AdversaryPlan>,
    /// Commit rule.
    pub aggregator: Aggregator,
    /// Update codec.
    pub codec: CodecKind,
    /// Per-round screening cap.
    pub screening: Option<usize>,
}

/// Applies the scenario's run options to either builder — they spell
/// the five setters alike.
macro_rules! configured {
    ($builder:expr, $s:expr) => {{
        let mut b = $builder.aggregator($s.aggregator).codec($s.codec);
        if let Some(plan) = &$s.faults {
            b = b.faults(plan.clone());
        }
        if let Some(plan) = &$s.adversaries {
            b = b.adversaries(plan.clone());
        }
        if let Some(cap) = $s.screening {
            b = b.screening_sample(cap);
        }
        b
    }};
}

impl Scenario {
    /// The clean scenario: one round of the whole fleet, narrow model,
    /// FedAvg, dense payloads, nothing hostile.
    pub fn new(clients: usize) -> Self {
        Scenario {
            clients,
            cohort: clients,
            rounds: 1,
            dim: 8,
            faults: None,
            adversaries: None,
            aggregator: Aggregator::FedAvg,
            codec: CodecKind::Identity,
            screening: None,
        }
    }

    /// The training plan.
    fn plan(&self) -> TrainingPlan {
        TrainingPlan {
            rounds: self.rounds,
            clients_per_round: self.cohort,
            batches_per_cycle: 1,
            batch_size: 2,
            learning_rate: 0.05,
            seed: 7,
        }
    }

    /// `SyntheticMicro`'s `[len, classes, dim, seed]`: the one literal
    /// behind both the recipe and the in-process dataset.
    fn micro(&self) -> [u64; 4] {
        [2 * self.clients as u64, 2, self.dim as u64, 5]
    }

    /// `tiny_mlp`'s `[inputs, hidden, outputs, seed]`, likewise.
    fn mlp(&self) -> [u64; 4] {
        [self.dim as u64, self.dim as u64 / 2, 2, 13]
    }

    /// The dataset recipe a shard server rebuilds its range from.
    fn dataset_spec(&self) -> DatasetSpec {
        let [len, classes, dim, seed] = self.micro();
        DatasetSpec::Micro {
            len,
            classes,
            dim,
            seed,
        }
    }

    /// The model recipe a shard server builds.
    fn model_spec(&self) -> ModelSpec {
        let [inputs, hidden, outputs, seed] = self.mlp();
        ModelSpec::TinyMlp {
            inputs,
            hidden,
            outputs,
            seed,
        }
    }

    fn dataset(&self) -> SyntheticMicro {
        let [len, classes, dim, seed] = self.micro();
        SyntheticMicro::new(len as usize, classes as usize, dim as usize, seed)
    }

    fn model(&self) -> Sequential {
        let [i, h, o, seed] = self.mlp();
        zoo::tiny_mlp(i as usize, h as usize, o as usize, seed).expect("tiny MLP builds")
    }

    /// The in-process federation of this fleet.
    pub fn federation(&self) -> FederationBuilder {
        let scenario = self.clone();
        let builder = Federation::builder(self.plan())
            .model(move || scenario.model())
            .clients(self.clients, Arc::new(self.dataset()));
        configured!(builder, self)
    }

    /// The shard-server federation of the same fleet.
    pub fn distributed(&self) -> DistributedBuilder {
        let builder = DistributedCoordinator::builder(self.plan())
            .clients(self.clients, self.dataset_spec())
            .model(self.model_spec());
        configured!(builder, self)
    }
}

/// Where a scenario's clients execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// This process, in-process transport: `(engine shards, workers)`.
    InProcess(usize, usize),
    /// This process, multiplexed loopback TCP: `(engine shards, workers)`.
    Mux(usize, usize),
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
            Deployment::Processes(p, w) => write!(f, "{p} procs x {w} workers"),
        }
    }
}

/// A gate that cannot run has failed.
fn must<T>(deployment: Deployment, step: gradsec_fl::Result<T>) -> T {
    step.unwrap_or_else(|e| panic!("{deployment}: {e}"))
}

/// Runs `scenario` to completion under `deployment` and tears it down.
/// Panics when the fleet cannot be built, a round errors or teardown
/// is not clean.
pub fn run(scenario: &Scenario, deployment: Deployment) -> Outcome {
    // Both drivers are `RoundDriver<_>`s over a fleet type this crate
    // cannot name, hence a macro rather than a generic function.
    macro_rules! drive {
        ($driver:expr) => {{
            let mut driver = must(deployment, $driver);
            let report = must(deployment, driver.run());
            let weights = driver.server().global().clone();
            must(deployment, driver.shutdown());
            (report, weights)
        }};
    }
    let local = |transport, shards, workers| {
        let builder = scenario.federation().transport(transport).shards(shards);
        builder.engine(ExecutionEngine::new(workers)).build()
    };
    match deployment {
        Deployment::InProcess(s, w) => drive!(local(TransportKind::InProcess, s, w)),
        Deployment::Mux(s, w) => drive!(local(TransportKind::TcpMux, s, w)),
        Deployment::Processes(p, w) => drive!(scenario.distributed().shards(p).workers(w).launch()),
    }
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

/// One table section: a scenario, the deployment whose outcome is its
/// reference, the deployments that must reproduce it, and extra bars.
pub struct Section {
    /// Section name (first table column).
    pub name: String,
    /// The fleet.
    pub scenario: Scenario,
    /// Whose outcome the others must equal.
    pub reference: Deployment,
    /// The deployments judged against the reference.
    pub deployments: Vec<Deployment>,
    /// Bars beyond identity, if any.
    pub bars: Option<fn(&Scenario, &Outcome) -> Bars>,
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
        let reference = run(scenario, section.reference);
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

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_data::Dataset;

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
    /// and the in-process dataset / model come from the same fields.
    #[test]
    fn scenario_recipes_and_in_process_fleet_are_one_literal() {
        for (dim, hidden) in [(8, 4), (32, 16)] {
            let mut s = Scenario::new(10);
            s.dim = dim;
            let data = s.dataset();
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
            let from_recipe = zoo::tiny_mlp(dim, hidden as usize, 2, 13).unwrap();
            assert_eq!(from_recipe.weights(), s.model().weights());
            let plan = s.plan();
            assert_eq!((plan.seed, plan.learning_rate), (7, 0.05));
            assert_eq!((plan.batches_per_cycle, plan.batch_size), (1, 2));
        }
    }
}
