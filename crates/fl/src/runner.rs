//! Federation orchestration: one round driver over a fleet of clients.
//!
//! A GradSec FL cycle is one fixed sequence (Figure 2): attest and
//! select ➊, download with the protected-layer set ➋, local train ➌,
//! aggregate ➍. [`RoundDriver`] is the only code that runs it. It owns
//! the [`FlServer`] (global model, round counter, the selection RNG), the
//! protection scheduler and the aggregation rule, and asks its fleet for
//! two things only: screen these candidates, execute these picks. Where
//! the clients live is the fleet's business, and there are two:
//!
//! * [`LocalFleet`] — handshaken [`RemoteClient`] endpoints in this
//!   process. [`FederationBuilder`] assembles the clients, wires each
//!   onto the configured [`TransportKind`] (zero-copy in-process dispatch
//!   by default, or multiplexed loopback TCP with the whole fleet served
//!   by a small event-loop pool) and partitions them into contiguous
//!   [`ShardLayout`] shards, each running its picks on its own
//!   [`ExecutionEngine`] pool. [`Federation`] is the driver over one, at
//!   any shard count; a `shard-server` process hosts one too.
//! * [`ProcessFleet`](crate::distributed::ProcessFleet) — `shard-server`
//!   child processes behind the shard-control protocol;
//!   [`DistributedCoordinator`](crate::distributed::DistributedCoordinator)
//!   is the driver over one.
//!
//! Every draw on the server RNG happens in the driver, fleets hand
//! outcomes back in selection order, and every round commits through
//! the one `finish_round`, so for any `(fleet, shards, workers,
//! transport)` combination the reports and final weights are
//! bit-identical.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use gradsec_data::{split, Dataset};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::{BackendKind, Sequential};
use gradsec_tee::attestation::Measurement;
use gradsec_tee::cost::RoundLedger;
use gradsec_tee::crypto::sha256::sha256;

use crate::adversary::{Adversary, AdversaryPlan, CollusionLog, ReputationBook};
use crate::aggregate::{Aggregator, PartialAggregate};
use crate::client::{ClientModels, DeviceProfile, FlClient};
use crate::codec::CodecKind;
use crate::config::{MuxOptions, PartitionKind, ShardLayout, TrainingPlan, TransportKind};
use crate::engine::{ClientOutcome, ExecutionEngine};
use crate::faults::{FaultPlan, FaultyEndpoint};
use crate::fleet::{Executed, Fleet};
use crate::message::ModelDownload;
use crate::scheduler::{NoProtection, ProtectionScheduler};
use crate::selection::{screen_planned, ScreenPlan, ScreeningOutcome};
use crate::server::FlServer;
use crate::trainer::{LocalTrainer, PlainSgdTrainer};
use crate::transport::inprocess::LocalEndpoint;
use crate::transport::mux::{MuxFleet, DEFAULT_JOIN_GRACE};
use crate::transport::poller::Poller;
use crate::transport::{tcp, RemoteClient, ServerEndpoint};
use crate::{FlError, Result};

/// Builds the prototype model whose replicas every client trains.
pub type ModelFactory = Box<dyn Fn() -> Sequential + Send + Sync>;

/// Builds a local trainer for a client id.
pub type TrainerFactory = Box<dyn Fn(u64) -> Box<dyn LocalTrainer> + Send + Sync>;

fn json_usize_list(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Per-round outcome.
///
/// Under a fault plan, one round's selected cohort partitions into four
/// disjoint groups: `participants` (committed into the aggregate),
/// `surplus` (over-provisioned spares that completed but were not
/// needed), `stragglers` (overran the round deadline on the simulated
/// clock) and `failures` (unreachable, dropped, garbled or crashed
/// exchanges). The `ledger` accounts *every* selected client — zero-cost
/// entries for failures. Without faults the last three groups are empty
/// and `participants` is the whole selection, exactly as before.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Indices of the clients whose updates were committed.
    pub participants: Vec<usize>,
    /// Over-provisioned clients that completed but were not needed (the
    /// first `clients_per_round` survivors in canonical order win).
    pub surplus: Vec<usize>,
    /// Clients whose simulated elapsed time overran the round deadline.
    pub stragglers: Vec<usize>,
    /// Clients whose exchange failed this round.
    pub failures: Vec<usize>,
    /// Mean training loss across committed participants.
    pub mean_loss: f32,
    /// The protected layers used this round.
    pub protected_layers: Vec<usize>,
    /// Per-client TEE accounting merged over the round (id-sorted, so
    /// identical whichever worker finished first) — one entry per
    /// selected client, success or not.
    pub ledger: RoundLedger,
}

impl RoundReport {
    /// Renders the report as a JSON object (hand-rolled: the vendored
    /// serde is a derive marker only), so repro binaries can export
    /// per-round results.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"round":{},"participants":{},"surplus":{},"stragglers":{},"failures":{},"mean_loss":{},"protected_layers":{},"ledger":{}}}"#,
            self.round,
            json_usize_list(&self.participants),
            json_usize_list(&self.surplus),
            json_usize_list(&self.stragglers),
            json_usize_list(&self.failures),
            gradsec_tee::cost::json_number(f64::from(self.mean_loss)),
            json_usize_list(&self.protected_layers),
            self.ledger.to_json(),
        )
    }
}

/// Whole-run outcome.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// Rounds completed.
    pub rounds_completed: u64,
    /// Per-round reports.
    pub rounds: Vec<RoundReport>,
}

impl FederationReport {
    /// Renders the whole run as a JSON object.
    pub fn to_json(&self) -> String {
        let rounds: Vec<String> = self.rounds.iter().map(RoundReport::to_json).collect();
        format!(
            r#"{{"rounds_completed":{},"rounds":[{}]}}"#,
            self.rounds_completed,
            rounds.join(",")
        )
    }
}

/// The run configuration both builders carry — everything that is the
/// same question whether the clients live in this process or in
/// `shard-server` children — and the one place it is validated and
/// turned into an [`FlServer`].
pub(crate) struct RunSetup {
    pub(crate) plan: TrainingPlan,
    pub(crate) scheduler: Arc<dyn ProtectionScheduler>,
    pub(crate) measurement: Measurement,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) adversaries: Option<Arc<AdversaryPlan>>,
    pub(crate) backend: BackendKind,
    pub(crate) codec: CodecKind,
    pub(crate) screening_sample: Option<usize>,
    pub(crate) aggregator: Aggregator,
    pub(crate) partition: PartitionKind,
    pub(crate) reputation: Option<ReputationBook>,
}

impl RunSetup {
    pub(crate) fn new(plan: TrainingPlan) -> Self {
        RunSetup {
            plan,
            scheduler: Arc::new(NoProtection),
            measurement: Measurement(sha256(b"gradsec-ta-code-v1")),
            faults: None,
            adversaries: None,
            backend: BackendKind::Reference,
            codec: CodecKind::Identity,
            screening_sample: None,
            aggregator: Aggregator::FedAvg,
            partition: PartitionKind::Iid,
            reputation: None,
        }
    }

    /// Validates the configuration and builds the server around the
    /// `initial` global model: over-provisioned by the fault plan's spare
    /// count, with the screening cap and reputation book installed.
    pub(crate) fn server(&mut self, initial: ModelWeights) -> Result<FlServer> {
        self.plan.validate()?;
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(plan) = &self.adversaries {
            plan.validate()?;
        }
        self.aggregator.validate()?;
        let mut server = FlServer::new(self.plan, initial, self.measurement)?;
        if let Some(plan) = &self.faults {
            server.overprovision(plan.spare_count());
        }
        server.set_screening_sample(self.screening_sample);
        server.set_reputation(self.reputation.take());
        Ok(server)
    }

    /// Puts `server` and `fleet` under the round driver.
    pub(crate) fn drive<F: Fleet>(self, server: FlServer, fleet: F) -> RoundDriver<F> {
        RoundDriver {
            server,
            fleet,
            scheduler: self.scheduler,
            aggregator: self.aggregator,
            fault_tolerant: self.faults.is_some(),
        }
    }
}

/// Builder for a [`Federation`].
pub struct FederationBuilder {
    setup: RunSetup,
    model_factory: Option<ModelFactory>,
    trainer_factory: TrainerFactory,
    dataset: Option<Arc<dyn Dataset>>,
    devices: Vec<DeviceProfile>,
    engine: ExecutionEngine,
    transport: TransportKind,
    mux: MuxOptions,
    shards: usize,
}

impl FederationBuilder {
    fn new(plan: TrainingPlan) -> Self {
        FederationBuilder {
            setup: RunSetup::new(plan),
            model_factory: None,
            trainer_factory: Box::new(|_| Box::new(PlainSgdTrainer)),
            dataset: None,
            devices: Vec::new(),
            engine: ExecutionEngine::sequential(),
            transport: TransportKind::InProcess,
            mux: MuxOptions::default(),
            shards: 1,
        }
    }

    /// Sets the model architecture factory.
    pub fn model<F>(mut self, f: F) -> Self
    where
        F: Fn() -> Sequential + Send + Sync + 'static,
    {
        self.model_factory = Some(Box::new(f));
        self
    }

    /// Adds `n` TrustZone-capable clients sharing `dataset` (sharded
    /// evenly).
    pub fn clients(mut self, n: usize, dataset: Arc<dyn Dataset>) -> Self {
        self.dataset = Some(dataset);
        self.devices = (0..n as u64).map(DeviceProfile::trustzone).collect();
        self
    }

    /// Uses an explicit device mix instead of all-TrustZone (for the
    /// hybrid-deployment scenarios of the paper's future work).
    pub fn devices(mut self, devices: Vec<DeviceProfile>, dataset: Arc<dyn Dataset>) -> Self {
        self.dataset = Some(dataset);
        self.devices = devices;
        self
    }

    /// Sets the per-client trainer factory (GradSec's secure trainer hooks
    /// in here).
    pub fn trainer<F>(mut self, f: F) -> Self
    where
        F: Fn(u64) -> Box<dyn LocalTrainer> + Send + Sync + 'static,
    {
        self.trainer_factory = Box::new(f);
        self
    }

    /// Sets the protection scheduler driving every round's sheltered
    /// layer set. Policies from `gradsec-core` implement
    /// [`ProtectionScheduler`] directly; plain `Fn(u64) -> Vec<usize>`
    /// closures work too.
    pub fn scheduler<S>(mut self, s: S) -> Self
    where
        S: ProtectionScheduler + 'static,
    {
        self.setup.scheduler = Arc::new(s);
        self
    }

    /// Sets the round-execution engine (worker pool size); defaults to
    /// sequential execution.
    pub fn engine(mut self, engine: ExecutionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the whitelisted TA measurement.
    pub fn measurement(mut self, m: Measurement) -> Self {
        self.setup.measurement = m;
        self
    }

    /// Selects the transport the fleet is wired onto (in-process by
    /// default; [`TransportKind::TcpMux`] puts every client behind a
    /// loopback socket served by a small event-loop pool — see
    /// [`mux`](Self::mux) for its knobs).
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Tunes the [`TransportKind::TcpMux`] transport: event-loop count
    /// (0 = one per core), read-chunk size and the per-session
    /// write-queue bound. Ignored by the in-process transport.
    pub fn mux(mut self, options: MuxOptions) -> Self {
        self.mux = options;
        self
    }

    /// Installs a deterministic fault plan: every client endpoint is
    /// wrapped in a [`FaultyEndpoint`] injecting the plan's transport
    /// faults, selection over-provisions by the plan's spare count, and
    /// rounds become fault-*tolerant* — failed and straggling clients are
    /// recorded in the round report (and billed to its ledger) instead of
    /// failing the round, as long as at least one update commits. Under
    /// the same plan seed a faulted run is bit-identical for any
    /// `(shards, workers, transport)` combination.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.setup.faults = Some(Arc::new(plan));
        self
    }

    /// Selects the tensor kernel backend for the whole federation run:
    /// the prototype model is pointed at it before replication, so every
    /// replica a cycle borrows trains through the same kernels on every
    /// shard and transport. Defaults to [`BackendKind::Reference`], the
    /// bit-identical-to-seed kernels.
    /// Runs are bit-identical *within* a backend for any
    /// `(shards, workers, transport)` combination; switching backends
    /// changes f32 rounding, not semantics.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.setup.backend = backend;
        self
    }

    /// Selects the update codec every session negotiates at handshake:
    /// how model downloads and update uploads are packed on the wire.
    /// [`CodecKind::Identity`] (the default) is bit-identical to the
    /// uncompressed payloads; [`CodecKind::Int8`] and
    /// [`CodecKind::DeltaTopK`] trade a pinned, deterministic amount of
    /// precision for 3×+ smaller rounds. The codec is part of the run's
    /// reproducibility key: runs with the same codec are bit-identical
    /// across shards, workers, transports and process boundaries.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.setup.codec = codec;
        self
    }

    /// Partitions the fleet into `shards` contiguous engine shards
    /// (clamped to the client count; defaults to 1), each running its
    /// selected clients on its own worker pool, all shards concurrently
    /// — sharding changes wall-clock scaling, never results.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Caps per-round screening at `m` uniformly-sampled candidates
    /// instead of the whole fleet (see
    /// [`FlServer::set_screening_sample`]), so per-round selection cost
    /// stops being O(fleet). The default — no cap — screens everyone
    /// with an RNG stream bit-identical to pre-cap builds. Runs with the
    /// same cap are bit-identical across shards, workers, transports and
    /// process boundaries; changing the cap changes which clients are
    /// screened, so it is part of the run's reproducibility key.
    pub fn screening_sample(mut self, m: usize) -> Self {
        self.setup.screening_sample = Some(m);
        self
    }

    /// Installs a deterministic adversarial scenario: each client's
    /// persona is a pure function of `(scenario seed, client id)` (see
    /// [`AdversaryPlan::persona_of`]), applied entirely client-side at
    /// cycle time — screening, selection and the transport exchange
    /// stay untouched, so a hostile run is bit-identical for any
    /// `(shards, workers, transport)` combination under the same
    /// scenario seed, and a quiet plan changes nothing at all.
    pub fn adversaries(mut self, plan: AdversaryPlan) -> Self {
        self.setup.adversaries = Some(Arc::new(plan));
        self
    }

    /// Selects the aggregation rule rounds commit with (see
    /// [`Aggregator`]); defaults to plain FedAvg. Coordinator-side
    /// state: it never crosses the wire, so flat, sharded and
    /// distributed runs of the same rule are bit-identical.
    pub fn aggregator(mut self, aggregator: Aggregator) -> Self {
        self.setup.aggregator = aggregator;
        self
    }

    /// Selects how the dataset is partitioned across clients (see
    /// [`PartitionKind`]); defaults to IID. Part of the run's
    /// reproducibility key.
    pub fn partition(mut self, partition: PartitionKind) -> Self {
        self.setup.partition = partition;
        self
    }

    /// Enables reputation-filtered selection: round outcomes accumulate
    /// per-client scores (+1 completed, −1 straggled/failed) and
    /// clients below `threshold` are excluded from future eligibility
    /// (see [`ReputationBook`]). The filter is a deterministic retain
    /// before the selection shuffle — it consumes no server RNG.
    pub fn reputation(mut self, threshold: i64) -> Self {
        self.setup.reputation = Some(ReputationBook::new(threshold));
        self
    }

    /// Assembles the federation: builds the fleet, wires it onto the
    /// configured transport, handshakes every endpoint and partitions it
    /// into the configured number of shards (one by default).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] when the model factory or dataset is
    /// missing or the plan is invalid; transport/handshake failures
    /// propagate as [`FlError::Transport`]/[`FlError::Protocol`].
    pub fn build(mut self) -> Result<Federation> {
        let model_factory = self
            .model_factory
            .take()
            .ok_or_else(|| FlError::BadConfig {
                reason: "model factory not set".to_owned(),
            })?;
        if self.devices.is_empty() {
            return Err(FlError::BadConfig {
                reason: "no clients configured".to_owned(),
            });
        }
        // One factory invocation builds the prototype, which the fleet's
        // store replicates once per cycle in flight, not once per client.
        // The run's kernel backend is set once here and rides along in
        // every replica.
        let mut prototype = model_factory();
        prototype.set_backend(self.setup.backend);
        let server = self.setup.server(prototype.weights())?;
        let collusion = self
            .setup
            .adversaries
            .as_ref()
            .map(|_| Arc::new(CollusionLog::default()));
        let total = self.devices.len();
        let fleet = self.host(prototype, 0, total, collusion)?;
        Ok(self.setup.drive(server, fleet))
    }

    /// Alias of [`build`](Self::build), for callers that spell out the
    /// multi-shard case.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](Self::build).
    pub fn build_sharded(self) -> Result<ShardedFederation> {
        self.build()
    }

    /// Builds the configured devices as clients `first_id..` of a
    /// `total_clients` federation, wires them onto the transport and
    /// handshakes them — the one client assembler, for
    /// [`build`](Self::build) and for a `shard-server` process hosting its
    /// range of a distributed fleet. The clients share one store that
    /// lends replicas of `prototype` to the cycles in flight.
    ///
    /// The data partition is derived for the *whole* federation and
    /// sub-ranged, and ids and personas are global, so a client is the
    /// same client wherever it is hosted.
    pub(crate) fn host(
        &mut self,
        prototype: Sequential,
        first_id: usize,
        total_clients: usize,
        collusion: Option<Arc<CollusionLog>>,
    ) -> Result<LocalFleet> {
        let dataset = self.dataset.clone().ok_or_else(|| FlError::BadConfig {
            reason: "dataset not set".to_owned(),
        })?;
        let mut partition = partition_dataset(
            dataset.as_ref(),
            total_clients,
            self.setup.partition,
            self.setup.plan.seed,
        );
        let models = ClientModels::new(prototype);
        let clients: Vec<FlClient> = std::mem::take(&mut self.devices)
            .into_iter()
            .zip(first_id..)
            .map(|(device, g)| {
                let mut client = FlClient::hosted(
                    g as u64,
                    device,
                    dataset.clone(),
                    std::mem::take(&mut partition[g]),
                    models.clone(),
                    (self.trainer_factory)(g as u64),
                );
                if let Some(plan) = &self.setup.adversaries {
                    if let Some(persona) = plan.persona_of(g as u64) {
                        client.set_adversary(Adversary {
                            persona,
                            plan: plan.clone(),
                            log: collusion.clone(),
                        });
                    }
                }
                client
            })
            .collect();
        let (clients, sessions) = wire_fleet(
            clients,
            self.transport,
            &self.mux,
            self.setup.faults.as_ref(),
            self.setup.codec,
        )?;
        Ok(LocalFleet {
            layout: ShardLayout::new(clients.len(), self.shards),
            clients,
            engine: self.engine,
            faults: self.setup.faults.clone(),
            sessions,
            measurement: self.setup.measurement,
            collusion,
            #[cfg(test)]
            models,
        })
    }
}

/// Derives the per-client data partition for `kind` over the whole
/// federation — every hosting path calls this one function with the
/// same arguments, so client `i` gets the identical local shard wherever
/// it runs.
fn partition_dataset(
    dataset: &dyn Dataset,
    clients: usize,
    kind: PartitionKind,
    seed: u64,
) -> Vec<Vec<usize>> {
    match kind {
        PartitionKind::Iid => split::shard(dataset.len(), clients, seed),
        PartitionKind::ByLabel => {
            let labels: Vec<usize> = (0..dataset.len())
                .map(|i| dataset.sample(i).label)
                .collect();
            split::shard_by_label(&labels, clients, seed)
        }
    }
}

/// Wires a built fleet onto `transport`, returning the handshaken
/// endpoints (id-ordered) plus, over sockets, the event-loop pool serving
/// their client side, for teardown to reap. With a fault plan, every
/// endpoint — whatever the transport — is wrapped in a [`FaultyEndpoint`]
/// before the handshake, so transport faults inject identically over
/// in-process pipes and multiplexed sockets (the fault layer lives
/// server-side, above the pipe).
fn wire_fleet(
    fleet: Vec<FlClient>,
    transport: TransportKind,
    mux: &MuxOptions,
    faults: Option<&Arc<FaultPlan>>,
    codec: CodecKind,
) -> Result<(Vec<RemoteClient>, Option<MuxFleet>)> {
    // Handshakes every accepted endpoint through one window and restores
    // fleet order: sockets are accepted in arrival order, the handshake
    // tells who is who.
    let greet = |endpoints: Vec<Box<dyn ServerEndpoint>>| -> Result<Vec<RemoteClient>> {
        let wrapped = endpoints.into_iter().map(|endpoint| match faults {
            Some(plan) => Box::new(FaultyEndpoint::new(endpoint, plan.clone())) as _,
            None => endpoint,
        });
        let mut remotes = RemoteClient::connect_all(wrapped.collect(), codec)?;
        remotes.sort_by_key(RemoteClient::id);
        Ok(remotes)
    };
    if transport == TransportKind::InProcess {
        let endpoints = fleet
            .into_iter()
            .map(|c| Box::new(LocalEndpoint::new(c)) as _);
        return Ok((greet(endpoints.collect())?, None));
    }
    let listener = tcp::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let n = fleet.len();
    // Every loop connects its whole share before it polls; outgrow the
    // std 128-slot backlog so no connect lands in kernel retry backoff.
    listener.deepen_backlog(n as u32 + 128);
    let sessions = MuxFleet::launch(addr, fleet, mux)?;
    // Accept ALL n connections before handshaking any of them. The event
    // loops connect their whole share before they start polling, so a
    // handshake attempted early would block on a session nobody is
    // serving yet — while the un-accepted remainder overflows the
    // listener backlog and stalls the loops' own connects: a deadlock.
    // Draining the backlog first breaks the cycle. Poll rather than block
    // in accept: a session that failed to connect would otherwise leave
    // build() waiting forever for a connection that will never arrive.
    // An empty backlog is waited on through the poller, which returns as
    // soon as a connection lands — or within a millisecond, to look at
    // the loops and the deadline again.
    listener.set_nonblocking(true)?;
    let mut backlog = Poller::new();
    listener.watch(&mut backlog, 0)?;
    let mut landed = Vec::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut endpoints: Vec<Box<dyn ServerEndpoint>> = Vec::with_capacity(n);
    while endpoints.len() < n {
        if let Some(endpoint) = listener.try_accept()? {
            endpoints.push(Box::new(endpoint));
            continue;
        }
        if let Some(e) = sessions.take_early_error() {
            return Err(e);
        }
        if std::time::Instant::now() > deadline {
            return Err(FlError::disconnected(
                "waiting for client connections during federation build",
            ));
        }
        backlog.wait(&mut landed, std::time::Duration::from_millis(1))?;
    }
    Ok((greet(endpoints)?, Some(sessions)))
}

/// A fleet of handshaken client endpoints in this process, partitioned
/// into contiguous engine shards (one shard: the flat federation). Built
/// by [`FederationBuilder`]; the scale-out shape for 10⁴+ simulated
/// clients is the same fleet with more shards.
pub struct LocalFleet {
    clients: Vec<RemoteClient>,
    layout: ShardLayout,
    engine: ExecutionEngine,
    faults: Option<Arc<FaultPlan>>,
    /// The event-loop pool behind a [`TransportKind::TcpMux`] fleet.
    sessions: Option<MuxFleet>,
    measurement: Measurement,
    collusion: Option<Arc<CollusionLog>>,
    /// The store every client of the fleet borrows from.
    #[cfg(test)]
    models: Arc<ClientModels>,
}

impl LocalFleet {
    /// The hosted endpoints, id-ordered (a `shard-server` relays raw
    /// attestation evidence from them instead of screening).
    pub(crate) fn clients_mut(&mut self) -> &mut [RemoteClient] {
        &mut self.clients
    }
}

impl Fleet for LocalFleet {
    const RUNNER: &'static str = "Federation";

    fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    fn screen(&mut self, plan: &ScreenPlan) -> Vec<ScreeningOutcome> {
        screen_planned(&mut self.clients, self.measurement, plan)
    }

    fn execute(&mut self, picked: &[usize], download: &ModelDownload) -> Result<Executed> {
        // Shards are contiguous sub-slices of the one client vector; each
        // runs its picks on its own worker pool, all shards concurrently
        // (a single shard runs straight on the calling thread's pool).
        let mut rest = self.clients.as_mut_slice();
        let mut jobs = Vec::with_capacity(self.layout.num_shards());
        for (s, picks) in self.layout.split_picks(picked).into_iter().enumerate() {
            let (shard, tail) = rest.split_at_mut(self.layout.range(s).len());
            rest = tail;
            jobs.push((shard, picks));
        }
        let per_shard = self
            .engine
            .shards_in(jobs, download, self.faults.as_deref())?;
        // Ledgers fold id-sorted; outcomes concatenate in shard order,
        // which — the layout being contiguous — restores exactly the
        // canonical global selection order the commit walks.
        let mut ledger = RoundLedger::new();
        let mut outcomes = Vec::with_capacity(picked.len());
        for (shard_outcomes, shard_ledger) in per_shard {
            outcomes.extend(shard_outcomes);
            ledger.merge(&shard_ledger);
        }
        Ok(Executed {
            outcomes,
            ledger,
            cohort_lost: false,
        })
    }

    /// Says goodbye over every endpoint, *drops* every endpoint, then
    /// reaps the event loops of a socket-backed fleet.
    ///
    /// The order matters: dropping the server-side endpoints closes their
    /// sockets before the join below, so a session whose goodbye was lost
    /// (dead peer, injected fault, broken pipe) sees EOF on its next
    /// readiness event and exits instead of holding its loop open. The
    /// join is additionally bounded by [`DEFAULT_JOIN_GRACE`] plus the
    /// loops' shutdown flag — watchdog discipline in a form one thread
    /// can apply to thousands of sessions.
    fn teardown(&mut self) -> Result<()> {
        let mut first_err = None;
        for mut client in std::mem::take(&mut self.clients) {
            if let Err(e) = client.goodbye() {
                first_err.get_or_insert(e);
            }
            // `client` drops here, hanging up its transport.
        }
        if let Some(fleet) = &mut self.sessions {
            if let Err(e) = fleet.join(DEFAULT_JOIN_GRACE) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// The one FL round loop: a server plus a fleet of clients, wherever
/// they live. [`Federation`] and
/// [`DistributedCoordinator`](crate::distributed::DistributedCoordinator)
/// are this type over their fleets.
pub struct RoundDriver<F: Fleet> {
    server: FlServer,
    pub(crate) fleet: F,
    scheduler: Arc<dyn ProtectionScheduler>,
    aggregator: Aggregator,
    /// A fault plan is installed: failed and straggling clients are
    /// recorded on the report instead of failing the round.
    fault_tolerant: bool,
}

/// A complete in-process federation: one server plus its client fleet,
/// reachable only through transport endpoints, on one engine shard or
/// many.
pub type Federation = RoundDriver<LocalFleet>;

/// Alias of [`Federation`], for callers that spell out the multi-shard
/// case.
pub type ShardedFederation = Federation;

impl<F: Fleet> std::fmt::Debug for RoundDriver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let layout = self.fleet.layout();
        f.debug_struct(F::RUNNER)
            .field("shards", &layout.num_shards())
            .field("clients", &layout.num_clients())
            .field("round", &self.server.round())
            .finish()
    }
}

impl<F: Fleet> RoundDriver<F> {
    /// The server (global model, round counter).
    pub fn server(&self) -> &FlServer {
        &self.server
    }

    /// How the fleet is partitioned into shards.
    pub fn layout(&self) -> &ShardLayout {
        self.fleet.layout()
    }

    /// The configured protection scheduler.
    pub fn scheduler(&self) -> &Arc<dyn ProtectionScheduler> {
        &self.scheduler
    }

    /// Runs one FL cycle — screen and select ➊, download ➋, local train
    /// on the fleet ➌, aggregate ➍ — and merges the TEE accounting
    /// carried on the uploads into the round ledger.
    ///
    /// # Errors
    ///
    /// Propagates selection, training and aggregation failures. Without a
    /// fault plan, when several clients fail in one round the error of the
    /// earliest client in selection order is returned; with one — or when
    /// the fleet lost a whole cohort with the process hosting it —
    /// failures and stragglers are tolerated and recorded on the report
    /// as long as at least one update commits
    /// ([`FlError::RoundCollapsed`] otherwise).
    pub fn run_round(&mut self) -> Result<RoundReport> {
        let round = self.server.round();
        let plan = self.server.screen_plan(self.fleet.layout().num_clients());
        let verdicts = self.fleet.screen(&plan);
        let picked = self.server.sample_screened(&plan, &verdicts)?;
        // Clamp the scheduler's draw to the global model's depth — a
        // policy configured for a deeper network shelters what exists
        // rather than failing the round (the semantics the old
        // closure hook had via `protected_for_round(round, n_layers)`).
        let n_layers = self.server.global().num_layers();
        let mut protected = self.scheduler.layers_for_round(round);
        protected.retain(|&l| l < n_layers);
        let download = self.server.download(protected);
        let executed = self.fleet.execute(&picked, &download)?;
        self.finish_round(round, picked, executed, download.protected_layers)
    }

    /// Commits one executed round: walks the outcomes in canonical
    /// (selection) order, aggregates the first `clients_per_round`
    /// completed updates, classifies the rest into surplus/straggler/
    /// failure groups and installs the new global model. Every fleet
    /// bottoms out here — sharing the commit path is part of the
    /// bit-identity guarantee.
    ///
    /// Without tolerance (no fault plan, no lost cohort) any failed
    /// outcome fails the round with the earliest failure in selection
    /// order — the strict contract healthy fleets always had. With it,
    /// failures and stragglers are merely recorded, and the round only
    /// errors when *no* update committed.
    fn finish_round(
        &mut self,
        round: u64,
        picked: Vec<usize>,
        executed: Executed,
        protected: Vec<usize>,
    ) -> Result<RoundReport> {
        let k = self.server.plan().clients_per_round;
        let mut agg = PartialAggregate::new();
        let mut participants = Vec::new();
        let mut surplus = Vec::new();
        let mut stragglers = Vec::new();
        let mut failures = Vec::new();
        let mut first_err: Option<FlError> = None;
        for (slot, (outcome, &ci)) in executed.outcomes.into_iter().zip(&picked).enumerate() {
            match outcome {
                ClientOutcome::Completed(upload) => {
                    if participants.len() < k {
                        agg.push_arrived(slot, upload);
                        participants.push(ci);
                    } else {
                        surplus.push(ci);
                    }
                }
                ClientOutcome::Straggler { .. } => stragglers.push(ci),
                ClientOutcome::Failed { error, .. } => {
                    failures.push(ci);
                    first_err.get_or_insert(error);
                }
            }
        }
        if !(self.fault_tolerant || executed.cohort_lost) {
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        if participants.is_empty() {
            // Prefer the earliest concrete failure; a collapse with no
            // failure at all means every survivor straggled — name that
            // rather than misdiagnosing it as a selection problem.
            return Err(first_err.unwrap_or(FlError::RoundCollapsed {
                round,
                stragglers: stragglers.len(),
                failures: failures.len(),
            }));
        }
        // Robust variants need the previous global as a reference point
        // (norm clipping measures drift against it).
        let outcome = agg.finish_with(self.aggregator, Some(self.server.global()))?;
        // Reputation accrues from outcome history: committed updates earn
        // credit, shed ones (stragglers and failures alike) earn debit. A
        // no-op unless a `ReputationBook` is installed on the server.
        let completed: Vec<usize> = participants.iter().chain(surplus.iter()).copied().collect();
        let shed: Vec<usize> = stragglers.iter().chain(failures.iter()).copied().collect();
        self.server.note_round_outcomes(&completed, &shed);
        self.server.commit(outcome.weights);
        Ok(RoundReport {
            round,
            participants,
            surplus,
            stragglers,
            failures,
            mean_loss: outcome.mean_loss,
            protected_layers: protected,
            ledger: executed.ledger,
        })
    }

    /// Runs the full plan.
    ///
    /// # Errors
    ///
    /// Propagates round failures.
    pub fn run(&mut self) -> Result<FederationReport> {
        let mut report = FederationReport::default();
        for _ in 0..self.server.plan().rounds {
            report.rounds.push(self.run_round()?);
            report.rounds_completed += 1;
        }
        Ok(report)
    }

    /// Tears the fleet down — goodbyes over every endpoint or shard
    /// channel, then joins/reaps whatever serves the clients. Called
    /// automatically on drop (best effort); call explicitly to observe
    /// teardown errors.
    ///
    /// # Errors
    ///
    /// Returns the first goodbye/join/exit failure encountered.
    pub fn shutdown(mut self) -> Result<()> {
        self.fleet.teardown()
    }
}

impl<F: Fleet> Drop for RoundDriver<F> {
    fn drop(&mut self) {
        let _ = self.fleet.teardown();
    }
}

impl Federation {
    /// Starts a builder.
    pub fn builder(plan: TrainingPlan) -> FederationBuilder {
        FederationBuilder::new(plan)
    }

    /// The clients' endpoint handles, id-ordered across all shards.
    pub fn clients(&self) -> &[RemoteClient] {
        &self.fleet.clients
    }

    /// Mutable endpoint access (tests drive exchanges through this).
    pub fn clients_mut(&mut self) -> &mut [RemoteClient] {
        self.fleet.clients_mut()
    }

    /// Number of engine shards.
    pub fn num_shards(&self) -> usize {
        self.fleet.layout.num_shards()
    }

    /// Total clients across all shards.
    pub fn num_clients(&self) -> usize {
        self.fleet.layout.num_clients()
    }

    /// The configured execution engine (each shard runs its own pool of
    /// this size).
    pub fn engine(&self) -> ExecutionEngine {
        self.fleet.engine
    }

    /// The colluding coalition's observation log, present when an
    /// adversarial scenario is installed (empty until a colluder
    /// participates in a round).
    pub fn collusion_log(&self) -> Option<&Arc<CollusionLog>> {
        self.fleet.collusion.as_ref()
    }

    /// [`run_round`](Self::run_round) through `engine` instead of the
    /// builder-configured one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_round`](Self::run_round).
    pub fn run_round_with(&mut self, engine: &ExecutionEngine) -> Result<RoundReport> {
        self.with_engine(engine, Self::run_round)
    }

    /// [`run`](Self::run) through `engine` instead of the
    /// builder-configured one.
    ///
    /// # Errors
    ///
    /// Propagates round failures.
    pub fn run_with(&mut self, engine: &ExecutionEngine) -> Result<FederationReport> {
        self.with_engine(engine, Self::run)
    }

    fn with_engine<T>(&mut self, engine: &ExecutionEngine, run: fn(&mut Self) -> T) -> T {
        let configured = std::mem::replace(&mut self.fleet.engine, *engine);
        let out = run(self);
        self.fleet.engine = configured;
        out
    }
}

#[cfg(test)]
mod split_phase;

#[cfg(test)]
mod two_views;

#[cfg(test)]
mod tests {
    use super::split_phase::one_by_one;
    use super::*;
    use gradsec_data::{SyntheticCifar100, SyntheticMicro};
    use gradsec_nn::zoo;
    use gradsec_tee::cost::ClientCycleCost;
    use gradsec_tensor::ops::threads;

    fn plan() -> TrainingPlan {
        TrainingPlan {
            rounds: 3,
            clients_per_round: 2,
            batches_per_cycle: 2,
            batch_size: 4,
            learning_rate: 0.05,
            seed: 1,
        }
    }

    fn dataset() -> Arc<SyntheticCifar100> {
        Arc::new(SyntheticCifar100::with_classes(64, 2, 2))
    }

    #[test]
    fn sequential_run_completes_all_rounds() {
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(3, dataset())
            .build()
            .unwrap();
        let initial = fed.server().global().clone();
        let report = fed.run().unwrap();
        assert_eq!(report.rounds_completed, 3);
        assert_eq!(fed.server().round(), 3);
        assert_ne!(fed.server().global(), &initial);
        fed.shutdown().unwrap();
    }

    #[test]
    fn parallel_run_matches_round_count() {
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .engine(ExecutionEngine::new(4))
            .build()
            .unwrap();
        let report = fed.run().unwrap();
        assert_eq!(report.rounds_completed, 3);
        for r in &report.rounds {
            assert_eq!(r.participants.len(), 2);
        }
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential() {
        let build = || {
            Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(4, dataset())
                .build()
                .unwrap()
        };
        let mut seq = build();
        let seq_report = seq.run_with(&ExecutionEngine::sequential()).unwrap();
        for workers in [2usize, 4] {
            let mut par = build();
            let par_report = par.run_with(&ExecutionEngine::new(workers)).unwrap();
            assert_eq!(seq_report, par_report, "{workers}-worker report diverged");
            assert_eq!(
                seq.server().global(),
                par.server().global(),
                "{workers}-worker weights diverged"
            );
        }
    }

    /// Remote sessions train on the mux's event-loop threads, which split
    /// the builder's kernel budget between them.
    #[test]
    fn mux_loops_divide_the_kernel_budget() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let recorder = seen.clone();
        let mut fed = threads::with_budget(8, || {
            Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(4, dataset())
                .transport(TransportKind::TcpMux)
                .mux(MuxOptions {
                    loops: 2,
                    ..MuxOptions::default()
                })
                .trainer(move |_| Box::new(crate::trainer::tests::BudgetRecorder(recorder.clone())))
                .build()
                .unwrap()
        });
        fed.run_round().unwrap();
        fed.shutdown().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![4; 2]);
    }

    #[test]
    fn sharded_run_is_bit_identical_to_flat() {
        let mut flat = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(5, dataset())
            .build()
            .unwrap();
        let flat_report = flat.run().unwrap();
        for shards in [1usize, 2, 5, 9] {
            let mut sharded = Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(5, dataset())
                .shards(shards)
                .engine(ExecutionEngine::new(2))
                .build_sharded()
                .unwrap();
            assert_eq!(sharded.num_shards(), shards.min(5));
            assert_eq!(sharded.num_clients(), 5);
            let report = sharded.run().unwrap();
            assert_eq!(report, flat_report, "{shards}-shard report diverged");
            assert_eq!(
                sharded.server().global(),
                flat.server().global(),
                "{shards}-shard weights diverged"
            );
            sharded.shutdown().unwrap();
        }
    }

    #[test]
    fn an_all_straggler_round_reports_collapse_not_selection_failure() {
        use crate::faults::{FaultPlan, LatencyModel};
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(3, dataset())
            .faults(
                FaultPlan::seeded(1)
                    .latency(LatencyModel::Fixed(10.0))
                    .deadline_s(1.0),
            )
            .build()
            .unwrap();
        let err = fed.run_round().unwrap_err();
        match err {
            FlError::RoundCollapsed {
                round: 0,
                stragglers,
                failures: 0,
            } => assert!(stragglers > 0),
            other => panic!("expected RoundCollapsed, got {other:?}"),
        }
    }

    #[test]
    fn a_store_builds_no_more_replicas_than_cycles_overlapped() {
        // Sixteen clients, all picked every round: at the parent every
        // client owned a replica, 16 of them whatever the topology.
        let configured = || {
            let plan = TrainingPlan {
                clients_per_round: 16,
                ..plan()
            };
            Federation::builder(plan)
                .model(|| zoo::tiny_mlp(64, 16, 2, 9).unwrap())
                .clients(16, Arc::new(SyntheticMicro::new(64, 2, 64, 2)))
        };
        let two_loops = MuxOptions {
            loops: 2,
            ..MuxOptions::default()
        };
        let cases = [
            ("sequential", configured(), 1),
            ("2 workers", configured().engine(ExecutionEngine::new(2)), 2),
            ("2 shards x 1", configured().shards(2), 2),
            (
                "TcpMux, 2 loops",
                configured().transport(TransportKind::TcpMux).mux(two_loops),
                2,
            ),
        ];
        for (what, builder, overlap) in cases {
            let mut fed = builder.build().unwrap();
            assert_eq!(fed.run().unwrap().rounds_completed, 3, "{what}");
            let built = fed.fleet.models.replicas_built();
            fed.shutdown().unwrap();
            assert!((1..=overlap).contains(&built), "{what}: {built} replicas");
        }
    }

    #[test]
    fn backend_selection_reaches_every_replica() {
        let run = |backend: Option<BackendKind>| {
            let mut b = Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(3, dataset());
            if let Some(kind) = backend {
                b = b.backend(kind);
            }
            let mut fed = b.build().unwrap();
            let report = fed.run().unwrap();
            let weights = fed.server().global().clone();
            fed.shutdown().unwrap();
            (report, weights)
        };
        // The builder default is `Reference` — bit-identical to passing
        // that kind explicitly.
        let (r_default, w_default) = run(None);
        let (r_ref, w_ref) = run(Some(BackendKind::Reference));
        assert_eq!(r_default, r_ref);
        assert_eq!(w_default, w_ref);
        // The tiled backend completes the same plan and lands within
        // kernel-rounding distance of the reference run.
        let (r_tld, w_tld) = run(Some(BackendKind::Tiled));
        assert_eq!(r_tld.rounds_completed, r_ref.rounds_completed);
        for (a, b) in w_ref.iter().zip(w_tld.iter()) {
            assert!(a.w.approx_eq(&b.w, 1e-2));
            assert!(a.b.approx_eq(&b.b, 1e-2));
        }
    }

    #[test]
    fn build_and_build_sharded_agree_at_any_shard_count() {
        // One builder path: `build()` accepts any shard count,
        // `build_sharded()` is the same call, and the shard count never
        // shows in the results.
        let run = |shards: usize, sharded: bool| {
            let builder = Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(5, dataset())
                .screening_sample(4)
                .shards(shards);
            let mut fed = if sharded {
                builder.build_sharded().unwrap()
            } else {
                builder.build().unwrap()
            };
            assert_eq!(fed.num_shards(), shards);
            let report = fed.run().unwrap();
            let weights = fed.server().global().clone();
            fed.shutdown().unwrap();
            (report, weights)
        };
        let reference = run(1, false);
        assert_eq!(reference.0.rounds_completed, 3);
        for (shards, sharded) in [(1, true), (3, false), (3, true)] {
            assert_eq!(
                run(shards, sharded),
                reference,
                "{shards} shards (build_sharded: {sharded}) diverged"
            );
        }
    }

    /// A fleet that answers from a script — no clients, no sockets — so
    /// the driver's own rules are tested in isolation.
    struct ScriptedFleet {
        layout: ShardLayout,
        outcome_of: fn(u64, &ModelDownload) -> ClientOutcome,
        cohort_lost: bool,
    }

    impl Fleet for ScriptedFleet {
        const RUNNER: &'static str = "Scripted";

        fn layout(&self) -> &ShardLayout {
            &self.layout
        }

        fn screen(&mut self, plan: &ScreenPlan) -> Vec<ScreeningOutcome> {
            vec![ScreeningOutcome::Eligible; plan.candidates.len()]
        }

        fn execute(&mut self, picked: &[usize], download: &ModelDownload) -> Result<Executed> {
            let mut ledger = RoundLedger::new();
            let outcomes = picked
                .iter()
                .map(|&client| {
                    ledger.record(ClientCycleCost::unbilled(client as u64));
                    (self.outcome_of)(client as u64, download).map(Into::into)
                })
                .collect();
            Ok(Executed {
                outcomes,
                ledger,
                cohort_lost: self.cohort_lost,
            })
        }

        fn teardown(&mut self) -> Result<()> {
            Ok(())
        }
    }

    /// A driver without a fault plan over `clients` scripted clients, all
    /// of them picked every round.
    fn scripted(
        clients: usize,
        outcome_of: fn(u64, &ModelDownload) -> ClientOutcome,
        cohort_lost: bool,
    ) -> RoundDriver<ScriptedFleet> {
        let mut setup = RunSetup::new(TrainingPlan {
            clients_per_round: clients,
            ..plan()
        });
        let initial = zoo::tiny_mlp(4, 4, 2, 1).unwrap().weights();
        let server = setup.server(initial).unwrap();
        let fleet = ScriptedFleet {
            layout: ShardLayout::new(clients, 1),
            outcome_of,
            cohort_lost,
        };
        setup.drive(server, fleet)
    }

    fn completed(client: u64, download: &ModelDownload) -> ClientOutcome {
        ClientOutcome::Completed(crate::message::UpdateUpload {
            client_id: client,
            round: download.round,
            weights: download.weights.clone(),
            num_samples: 4,
            train_loss: 0.5,
            cost: ClientCycleCost::unbilled(client),
        })
    }

    fn failed(client: u64) -> ClientOutcome {
        ClientOutcome::Failed {
            client,
            error: FlError::ClientFailure {
                client,
                reason: format!("client {client} broke"),
            },
        }
    }

    #[test]
    fn strict_rounds_return_the_earliest_failure_and_commit_nothing() {
        let mut driver = scripted(
            3,
            |client, download| match client {
                0 => completed(client, download),
                _ => failed(client),
            },
            false,
        );
        let before = driver.server().global().clone();
        let err = driver.run_round().unwrap_err();
        assert!(
            matches!(err, FlError::ClientFailure { client: 1, .. }),
            "{err}"
        );
        assert_eq!(driver.server().round(), 0);
        assert_eq!(driver.server().global(), &before);
    }

    #[test]
    fn a_lost_cohort_commits_from_the_survivors_without_a_fault_plan() {
        let mut driver = scripted(
            4,
            |client, download| match client {
                0 | 1 => completed(client, download),
                _ => failed(client),
            },
            true,
        );
        let report = driver.run_round().unwrap();
        assert_eq!(report.participants, vec![0, 1]);
        assert_eq!(report.failures, vec![2, 3]);
        assert!(report.stragglers.is_empty() && report.surplus.is_empty());
        assert_eq!(report.ledger.len(), 4);
        assert_eq!(driver.server().round(), 1);
    }

    #[test]
    fn a_round_of_stragglers_collapses_with_its_counts() {
        let mut driver = scripted(
            3,
            |client, _| ClientOutcome::Straggler {
                client,
                elapsed_s: 9.0,
            },
            false,
        );
        let err = driver.run_round().unwrap_err();
        assert!(
            matches!(
                err,
                FlError::RoundCollapsed {
                    round: 0,
                    stragglers: 3,
                    failures: 0
                }
            ),
            "{err}"
        );
        assert_eq!(driver.server().round(), 0);
    }

    #[test]
    fn broadcast_rounds_equal_the_per_client_path() {
        // 4 of 8 clients a round, so attempt counts drift apart even on a
        // healthy fleet; the fault plan adds lost requests (a failed cycle,
        // neither side commits) and truncated replies (only the client
        // commits: BASE_MISMATCH and a dense re-send on its next pick).
        let mut shed = 0;
        for codec in [CodecKind::Identity, CodecKind::Int8, CodecKind::DeltaTopK] {
            for faulted in [false, true] {
                let configured = || {
                    let builder = Federation::builder(TrainingPlan {
                        rounds: 6,
                        clients_per_round: 4,
                        ..plan()
                    })
                    .model(|| zoo::tiny_mlp(64, 16, 2, 9).unwrap())
                    .clients(8, Arc::new(SyntheticMicro::new(128, 2, 64, 2)))
                    .codec(codec);
                    if faulted {
                        builder.faults(
                            FaultPlan::seeded(23)
                                .drop_messages(0.1)
                                .garble_replies(0.2)
                                .spare(2),
                        )
                    } else {
                        builder
                    }
                };
                let mut reference = one_by_one(configured);
                let want = reference.run().unwrap();
                shed += want.rounds.iter().map(|r| r.failures.len()).sum::<usize>();
                for (shards, workers) in [(1, 1), (2, 2)] {
                    let mut fed = configured()
                        .shards(shards)
                        .engine(ExecutionEngine::new(workers))
                        .build()
                        .unwrap();
                    let what = format!("{codec:?}, {shards} shards x {workers}, faults: {faulted}");
                    assert_eq!(fed.run().unwrap(), want, "{what}: report");
                    assert_eq!(
                        fed.server().global(),
                        reference.server().global(),
                        "{what}: weights"
                    );
                }
            }
        }
        assert!(shed >= 3, "the fault plan shed {shed} cycles");
    }

    #[test]
    fn concurrent_federations_keep_their_payloads_apart() {
        // Two federations of one shape — same codec, same epochs, same
        // shard layout, different models — stepping through their rounds
        // at the same time. A payload reaching the wrong one would move
        // its weights off its solo run.
        let build = |seed: u64| {
            Federation::builder(TrainingPlan {
                clients_per_round: 4,
                ..plan()
            })
            .model(move || zoo::tiny_mlp(64, 16, 2, seed).unwrap())
            .clients(4, Arc::new(SyntheticMicro::new(64, 2, 64, seed)))
            .codec(CodecKind::DeltaTopK)
            .shards(2)
            .build()
            .unwrap()
        };
        let rounds = plan().rounds;
        let run = |seed: u64, before_round: &dyn Fn()| {
            let mut fed = build(seed);
            let reports: Vec<RoundReport> = (0..rounds)
                .map(|_| {
                    before_round();
                    fed.run_round().unwrap()
                })
                .collect();
            // Healthy, all picked every round, 2 shards: one group, so
            // every session ends on the same view allocation.
            let first = &fed.clients()[0];
            assert!(fed.clients().iter().all(|c| c.shares_view_with(first)));
            (reports, fed.server().global().clone())
        };
        let solo = [3u64, 4].map(|seed| run(seed, &|| ()));
        let barrier = std::sync::Barrier::new(2);
        let together = std::thread::scope(|s| {
            let step = || {
                barrier.wait();
            };
            [3u64, 4]
                .map(|seed| s.spawn(move || run(seed, &step)))
                .map(|h| h.join().unwrap())
        });
        assert!(solo == together);
        assert_ne!(solo[0].1, solo[1].1);
    }

    #[test]
    fn out_of_range_scheduled_layers_are_clamped() {
        // A scheduler configured for a deeper model shelters what
        // exists instead of failing the round.
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(2, dataset())
            .scheduler(|_: u64| vec![1, 6])
            .build()
            .unwrap();
        let r = fed.run_round().unwrap();
        assert_eq!(r.protected_layers, vec![1]);
    }

    #[test]
    fn scheduler_reaches_downloads() {
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(2, dataset())
            .scheduler(|round: u64| vec![round as usize % 2])
            .build()
            .unwrap();
        let r0 = fed.run_round().unwrap();
        assert_eq!(r0.protected_layers, vec![0]);
        let r1 = fed.run_round().unwrap();
        assert_eq!(r1.protected_layers, vec![1]);
    }

    #[test]
    fn mixed_fleet_excludes_non_tee() {
        let ds = dataset();
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .devices(
                vec![
                    DeviceProfile::trustzone(0),
                    DeviceProfile::legacy(1),
                    DeviceProfile::compromised(2),
                    DeviceProfile::trustzone(3),
                ],
                ds,
            )
            .build()
            .unwrap();
        let r = fed.run_round().unwrap();
        assert!(r.participants.iter().all(|&i| i == 0 || i == 3));
    }

    #[test]
    fn builder_validates() {
        assert!(Federation::builder(plan()).build().is_err());
        let no_clients = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(4, 4, 2, 1).unwrap())
            .build();
        assert!(no_clients.is_err());
    }

    #[test]
    fn round_report_exports_json() {
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(2, dataset())
            .build()
            .unwrap();
        let r = fed.run_round().unwrap();
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains(r#""round":0"#));
        assert!(json.contains(r#""participants":[0,1]"#));
        assert!(json.contains(r#""ledger":{"#));
        let report = FederationReport {
            rounds_completed: 1,
            rounds: vec![r],
        };
        assert!(report.to_json().contains(r#""rounds_completed":1"#));
    }

    #[test]
    fn clean_fleet_consumes_no_server_rng() {
        // Installing the adversary layer with a quiet plan (all
        // fractions zero) must leave every report and weight
        // bit-identical to a run that never heard of adversaries:
        // persona assignment draws from its own salted streams, never
        // the server's selection/screening RNG.
        let mut plain = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .build()
            .unwrap();
        let plain_report = plain.run().unwrap();
        let mut quiet = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .adversaries(AdversaryPlan::seeded(11))
            .build()
            .unwrap();
        let quiet_report = quiet.run().unwrap();
        assert_eq!(plain_report, quiet_report);
        assert_eq!(plain.server().global(), quiet.server().global());
        // A hostile fleet with reputation off still picks the same
        // participants every round: personas alter uploads, never the
        // server's sampling stream.
        let mut hostile = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .adversaries(AdversaryPlan::seeded(11).poisoners(0.5))
            .build()
            .unwrap();
        let hostile_report = hostile.run().unwrap();
        for (clean, dirty) in plain_report.rounds.iter().zip(hostile_report.rounds.iter()) {
            assert_eq!(clean.participants, dirty.participants);
        }
    }

    #[test]
    fn hostile_fleet_with_robust_aggregation_runs() {
        // End-to-end wiring check: personas, a robust aggregator, a
        // label-skewed partition and reputation all active at once.
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .adversaries(AdversaryPlan::seeded(3).poisoners(0.3).colluders(0.3))
            .aggregator(Aggregator::Median)
            .partition(PartitionKind::ByLabel)
            .reputation(-2)
            .build()
            .unwrap();
        let report = fed.run().unwrap();
        assert_eq!(report.rounds_completed, 3);
        let log = fed.collusion_log().expect("adversarial run keeps a log");
        // With a 30% colluder band over 4 clients the coalition may be
        // empty; either way the log observes at most one snapshot per
        // round.
        assert!(log.rounds_observed() <= 3);
    }

    #[test]
    fn training_improves_global_accuracy() {
        // End-to-end sanity: the federated model should learn the 2-class
        // synthetic task measurably.
        let ds = dataset();
        let mut fed = Federation::builder(TrainingPlan {
            rounds: 15,
            clients_per_round: 3,
            batches_per_cycle: 4,
            batch_size: 8,
            learning_rate: 0.05,
            seed: 5,
        })
        .model(|| zoo::tiny_mlp(3 * 32 * 32, 16, 2, 21).unwrap())
        .clients(3, ds.clone())
        .build()
        .unwrap();
        fed.run().unwrap();
        let mut model = zoo::tiny_mlp(3 * 32 * 32, 16, 2, 21).unwrap();
        model.set_weights(fed.server().global()).unwrap();
        let (x, y) = gradsec_data::batch_of(ds.as_ref(), &(0..64).collect::<Vec<_>>());
        let acc = model.accuracy(&x, &y).unwrap();
        assert!(acc > 0.7, "federated accuracy only {acc}");
    }
}
