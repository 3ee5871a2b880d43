//! Multi-process federation: shard-server processes driven by a wire
//! coordinator.
//!
//! An in-process [`Federation`] scales its fleet across engine shards
//! inside one process; this module promotes each shard to its own OS
//! process. [`DistributedCoordinator`] is the same
//! [`RoundDriver`] over a [`ProcessFleet`]: `shard-server` children (the
//! thin binary in `src/bin/shard_server.rs` over [`serve_shard`]), each
//! hosting one contiguous [`ShardLayout`] client range — a
//! [`LocalFleet`] built by the same assembler an in-process federation
//! uses — behind the existing envelope protocol, screened and executed
//! over loopback TCP:
//!
//! ```text
//!  coordinator process                    shard-server processes
//!  ┌─────────────────────────┐   TCP     ┌───────────────────────────┐
//!  │ FlServer (RNG, model,   │◄────────► │ shard 0: clients [0, a)   │
//!  │ history, sampling)      │  envelope │   engine × W workers      │
//!  │ ProtectionScheduler     │◄────────► │ shard 1: clients [a, b)   │
//!  │ quote verification      │   one     │   engine × W workers      │
//!  │ PartialAggregate fold   │◄────────► │ shard 2: clients [b, n)   │
//!  │ RoundLedger merge       │  channel  │   engine × W workers      │
//!  └─────────────────────────┘  per shard└───────────────────────────┘
//! ```
//!
//! The determinism contract is unchanged: because every RNG consumption
//! happens in the driver ([`FlServer::screen_plan`](crate::server::FlServer::screen_plan)
//! draws the candidate sub-sample and the attestation nonces in global
//! candidate order,
//! [`FlServer::sample_screened`](crate::server::FlServer::sample_screened)
//! does the single shuffle), because quote *verification* stays on the
//! coordinator against its own provisioning registry, and because shard
//! replies come back tagged with *global* selection slots and commit
//! through the driver's one `finish_round`, a distributed run over
//! `(S shard processes × W workers)` is bit-identical to the flat
//! in-process reference — gated by `repro_gates` and
//! `tests/integration_distributed.rs`.
//!
//! Shard-failure semantics: a shard process that crashes, hangs past the
//! reply deadline, or answers garbage is billed and excluded like a
//! straggler cohort — its picked clients become failed outcomes with
//! zero-cost ledger entries and the round commits from the surviving
//! shards. [`FlError::RoundCollapsed`] is raised only when *nothing*
//! commits. A dead shard stays dead (and is reaped at
//! [`shutdown`](RoundDriver::shutdown)); later rounds simply screen its
//! clients as unreachable.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use gradsec_data::{Dataset, SyntheticCifar100, SyntheticMicro};
use gradsec_nn::{zoo, BackendKind, Sequential};
use gradsec_tee::attestation::Measurement;
use gradsec_tee::cost::{ClientCycleCost, RoundLedger};

use crate::adversary::{AdversaryPlan, ReputationBook};
use crate::aggregate::{Aggregator, PartialAggregate};
use crate::client::DeviceProfile;
use crate::codec::CodecKind;
use crate::config::{PartitionKind, ShardLayout, TrainingPlan};
use crate::engine::{ClientOutcome, ExecutionEngine};
use crate::faults::FaultPlan;
use crate::fleet::{Executed, Fleet};
use crate::message::{
    check_version, ArrivedUpload, DatasetSpec, Envelope, MessageKind, ModelDownload, ModelSpec,
    ScreenProbe, ShardConfig, ShardConfigAck, ShardHello, ShardHelloAck, ShardOutcome,
    ShardOutcomeKind, ShardRound, ShardRoundReply, ShardScreen, ShardScreenReply, Wire,
    ENVELOPE_HEADER_LEN, PROTOCOL_VERSION,
};
use crate::runner::{Federation, LocalFleet, RoundDriver, RunSetup};
use crate::scheduler::ProtectionScheduler;
use crate::selection::{verify_evidence, ScreenPlan, ScreeningOutcome};
use crate::transport::mux::DEFAULT_JOIN_GRACE;
use crate::transport::tcp::{read_envelope, write_envelope};
use crate::{FlError, Result};

/// How long `launch` waits for every spawned shard-server to connect
/// back before declaring the fleet dead on arrival.
const CONNECT_GRACE: Duration = Duration::from_secs(60);

/// Environment variable overriding where the `shard-server` binary
/// lives (used by CI and the repro gates to pin an already-built one).
pub const SHARD_SERVER_ENV: &str = "GRADSEC_SHARD_SERVER";

// ---------------------------------------------------------------------
// Shard channel: blocking envelope I/O over one TCP stream.
// ---------------------------------------------------------------------

/// One framed envelope channel between the coordinator and a
/// shard-server process: the envelope header doubles as the length
/// prefix, exactly as on the per-client TCP transport. Counts bytes in
/// both directions so the repro gates can report wire overhead, and
/// supports a read deadline so a hung shard is detected rather than
/// waited on forever.
struct ShardChannel {
    stream: TcpStream,
    peer: String,
    /// Write scratch reused across frames (see `tcp::write_envelope`).
    scratch: BytesMut,
    bytes_out: u64,
    bytes_in: u64,
}

impl ShardChannel {
    fn new(stream: TcpStream) -> Result<Self> {
        stream
            .set_nodelay(true)
            .map_err(|e| FlError::transport("configuring shard channel", e))?;
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "shard <unknown>".to_owned(), |a| format!("shard {a}"));
        Ok(ShardChannel {
            stream,
            peer,
            scratch: BytesMut::new(),
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| FlError::transport("setting shard read deadline", e))
    }

    fn send(&mut self, envelope: &Envelope) -> Result<()> {
        write_envelope(&mut self.stream, &mut self.scratch, envelope, &self.peer)?;
        self.bytes_out += self.scratch.len() as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<Envelope> {
        let envelope = read_envelope(&mut self.stream, &self.peer)?;
        self.bytes_in += (ENVELOPE_HEADER_LEN + envelope.payload.len()) as u64;
        Ok(envelope)
    }
}

// ---------------------------------------------------------------------
// Shard-server binary resolution.
// ---------------------------------------------------------------------

/// Finds the `shard-server` binary: the [`SHARD_SERVER_ENV`] override,
/// then a sibling of the current executable (covers `cargo test`, whose
/// harness binaries live next to — or in `deps/` under — the bin
/// targets), and as a last resort a `cargo build` of the bin target
/// (covers `cargo run -p` of another package, which never builds this
/// crate's bins).
fn resolve_shard_server() -> Result<PathBuf> {
    if let Some(p) = std::env::var_os(SHARD_SERVER_ENV) {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(FlError::BadConfig {
            reason: format!(
                "{SHARD_SERVER_ENV} points at a missing file: {}",
                p.display()
            ),
        });
    }
    let exe = std::env::current_exe()
        .map_err(|e| FlError::transport("locating current executable", e))?;
    let name = format!("shard-server{}", std::env::consts::EXE_SUFFIX);
    let mut dirs: Vec<PathBuf> = Vec::new();
    if let Some(dir) = exe.parent() {
        dirs.push(dir.to_path_buf());
        // Test harness binaries live one level down, in target/<p>/deps.
        if dir.file_name().is_some_and(|n| n == "deps") {
            if let Some(parent) = dir.parent() {
                dirs.push(parent.to_path_buf());
            }
        }
    }
    for dir in &dirs {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    // Not built yet: build it. Profile follows the caller's own build.
    let release = exe.components().any(|c| c.as_os_str() == "release");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut cmd = Command::new(cargo);
    cmd.args(["build", "-p", "gradsec-fl", "--bin", "shard-server"]);
    if release {
        cmd.arg("--release");
    }
    let status = cmd
        .status()
        .map_err(|e| FlError::transport("building shard-server", e))?;
    if !status.success() {
        return Err(FlError::BadConfig {
            reason: format!("cargo build of shard-server failed: {status}"),
        });
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .or_else(|| {
            exe.ancestors()
                .find(|a| a.file_name().is_some_and(|n| n == "target"))
                .map(Path::to_path_buf)
        })
        .unwrap_or_else(|| PathBuf::from("target"));
    let built = target
        .join(if release { "release" } else { "debug" })
        .join(&name);
    if built.is_file() {
        Ok(built)
    } else {
        Err(FlError::BadConfig {
            reason: format!(
                "built shard-server not found at {} (set {SHARD_SERVER_ENV} to its path)",
                built.display()
            ),
        })
    }
}

// ---------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------

/// Configures and launches a [`DistributedCoordinator`].
///
/// Unlike [`FederationBuilder`](crate::runner::FederationBuilder) —
/// whose model/trainer factories are arbitrary closures — the
/// distributed builder takes *recipes* ([`DatasetSpec`], [`ModelSpec`])
/// that travel over the wire, because a shard-server process must
/// reconstruct the identical fleet from bytes alone. Shard servers
/// provision all-TrustZone [`DeviceProfile`]s and the plain SGD trainer
/// (the builder defaults); heterogeneous device mixes and custom
/// trainers stay in-process for now.
pub struct DistributedBuilder {
    setup: RunSetup,
    dataset: Option<DatasetSpec>,
    model: Option<ModelSpec>,
    clients: usize,
    shards: usize,
    workers: usize,
    reply_timeout: Option<Duration>,
}

impl DistributedBuilder {
    /// Starts a builder for `plan`.
    pub fn new(plan: TrainingPlan) -> Self {
        DistributedBuilder {
            setup: RunSetup::new(plan),
            dataset: None,
            model: None,
            clients: 0,
            shards: 1,
            workers: 1,
            reply_timeout: None,
        }
    }

    /// Sets the fleet: `n` clients sharing the dataset `spec`
    /// (partitioned by the same global derivation the flat reference
    /// uses — IID sharding by default, label-skewed via
    /// [`partition`](Self::partition)).
    pub fn clients(mut self, n: usize, spec: DatasetSpec) -> Self {
        self.clients = n;
        self.dataset = Some(spec);
        self
    }

    /// Sets the model recipe every process builds.
    pub fn model(mut self, spec: ModelSpec) -> Self {
        self.model = Some(spec);
        self
    }

    /// Number of shard-server processes to spawn (clamped to the client
    /// count, like [`ShardLayout::new`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Engine worker threads *per shard process* (`0` = one per core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the kernel backend every shard process uses.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.setup.backend = backend;
        self
    }

    /// Selects the update codec every shard's sessions negotiate
    /// (shipped by name in the [`ShardConfig`]; defaults to
    /// [`CodecKind::Identity`]).
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.setup.codec = codec;
        self
    }

    /// Installs a deterministic fault plan (shipped to every shard;
    /// selection over-provisions by the plan's spare count, exactly as
    /// in-process).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.setup.faults = Some(Arc::new(plan));
        self
    }

    /// Installs a deterministic adversarial scenario (shipped to every
    /// shard; persona assignment is a pure function of the scenario
    /// seed and the *global* client id, so the hostile subset is
    /// identical to an in-process run over the same plan).
    pub fn adversaries(mut self, plan: AdversaryPlan) -> Self {
        self.setup.adversaries = Some(Arc::new(plan));
        self
    }

    /// Selects the aggregation rule committed on the coordinator
    /// (defaults to plain FedAvg; robust variants defend against
    /// hostile uploads).
    pub fn aggregator(mut self, aggregator: Aggregator) -> Self {
        self.setup.aggregator = aggregator;
        self
    }

    /// Selects how the dataset is partitioned across clients (shipped
    /// by name in the [`ShardConfig`]; defaults to IID).
    pub fn partition(mut self, partition: PartitionKind) -> Self {
        self.setup.partition = partition;
        self
    }

    /// Enables reputation-filtered selection on the coordinator:
    /// clients whose accumulated outcome score falls below `threshold`
    /// stop being screened (see [`crate::adversary::ReputationBook`]).
    pub fn reputation(mut self, threshold: i64) -> Self {
        self.setup.reputation = Some(ReputationBook::new(threshold));
        self
    }

    /// Caps per-round screening at `m` sub-sampled candidates (see
    /// [`FlServer::set_screening_sample`]).
    pub fn screening_sample(mut self, m: usize) -> Self {
        self.setup.screening_sample = Some(m);
        self
    }

    /// Sets the protection scheduler driving every round's sheltered
    /// layer set.
    pub fn scheduler<S>(mut self, s: S) -> Self
    where
        S: ProtectionScheduler + 'static,
    {
        self.setup.scheduler = Arc::new(s);
        self
    }

    /// Overrides the whitelisted TA measurement.
    pub fn measurement(mut self, m: Measurement) -> Self {
        self.setup.measurement = m;
        self
    }

    /// Bounds how long the coordinator waits for any one shard reply; a
    /// shard that blows the deadline is billed and excluded like a
    /// crashed one. Unset (the default) waits indefinitely; zero is
    /// rejected at [`launch`](Self::launch).
    pub fn reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = Some(timeout);
        self
    }

    /// Spawns the shard-server processes, performs the shard-control
    /// handshake and configuration, and returns the ready coordinator.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] on invalid configuration,
    /// [`FlError::Transport`] when spawning/connecting fails, and
    /// [`FlError::Protocol`] on a handshake violation.
    pub fn launch(mut self) -> Result<DistributedCoordinator> {
        let dataset = self.dataset.ok_or(FlError::BadConfig {
            reason: "distributed federation needs a dataset spec".to_owned(),
        })?;
        let model = self.model.ok_or(FlError::BadConfig {
            reason: "distributed federation needs a model spec".to_owned(),
        })?;
        if self.clients == 0 {
            return Err(FlError::BadConfig {
                reason: "distributed federation needs at least one client".to_owned(),
            });
        }
        // std refuses a zero socket read timeout; unchecked, every shard
        // reply would fail and round 0 would retire the whole fleet.
        if self.reply_timeout.is_some_and(|t| t.is_zero()) {
            return Err(FlError::BadConfig {
                reason: "reply_timeout must be greater than zero".to_owned(),
            });
        }
        let init_weights = build_model(&model)?.weights();
        let server = self.setup.server(init_weights.clone())?;
        let layout = ShardLayout::new(self.clients, self.shards);
        // Everything but the shard's identity and range.
        let template = ShardConfig {
            shard_index: 0,
            range_start: 0,
            range_end: 0,
            total_clients: self.clients as u64,
            dataset,
            model,
            init_weights,
            plan: self.setup.plan,
            backend: self.setup.backend.name().to_owned(),
            codec: self.setup.codec.name().to_owned(),
            workers: self.workers as u64,
            measurement: self.setup.measurement,
            faults: self.setup.faults.as_deref().cloned(),
            partition: self.setup.partition.name().to_owned(),
            adversaries: self.setup.adversaries.as_deref().cloned(),
        };

        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| FlError::transport("binding coordinator listener", e))?;
        let addr: SocketAddr = listener
            .local_addr()
            .map_err(|e| FlError::transport("reading coordinator address", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| FlError::transport("configuring coordinator listener", e))?;
        let binary = resolve_shard_server()?;

        let fleet = ProcessFleet {
            measurement: self.setup.measurement,
            reply_timeout: self.reply_timeout,
            shards: Vec::with_capacity(layout.num_shards()),
            layout,
            torn_down: false,
        };
        // Under the driver before the first spawn, so any failure from
        // here on still tears the children down via its Drop.
        let mut coordinator = self.setup.drive(server, fleet);
        coordinator.fleet.spawn(&binary, addr)?;
        coordinator.fleet.connect(&listener, &template)?;
        Ok(coordinator)
    }
}

/// One shard-server process as the coordinator tracks it: the control
/// channel (dropped once the shard is declared dead) and the child
/// process handle.
struct ShardSlot {
    channel: Option<ShardChannel>,
    /// Bytes (out, in) the channel had carried when it was dropped.
    retired_bytes: (u64, u64),
    child: Child,
    reaped: bool,
    deliberately_killed: bool,
}

impl ShardSlot {
    /// Drops the channel, keeping its byte counters. Idempotent.
    fn retire(&mut self) {
        if let Some(ch) = self.channel.take() {
            self.retired_bytes = (ch.bytes_out, ch.bytes_in);
        }
    }

    /// Sends `msg` if the shard is still connected; a failed send
    /// retires the channel.
    fn send<T: Wire>(&mut self, kind: MessageKind, msg: &T) {
        if let Some(ch) = &mut self.channel {
            if ch.send(&Envelope::pack(kind, msg)).is_err() {
                self.retire();
            }
        }
    }

    /// Receives the shard's reply under `timeout` and opens it as `T`.
    /// Does *not* retire the channel on failure — the caller decides how
    /// a failure is billed.
    fn reply<T: Wire>(&mut self, expect: MessageKind, timeout: Option<Duration>) -> Result<T> {
        let channel = self
            .channel
            .as_mut()
            .ok_or_else(|| FlError::disconnected("shard channel already retired"))?;
        channel.set_read_timeout(timeout)?;
        let reply = channel.recv();
        let _ = channel.set_read_timeout(None);
        reply?.open(expect)
    }
}

/// A fleet whose clients live in `shard-server` child processes, one per
/// contiguous [`ShardLayout`] range, each behind its own control
/// channel. Launched by [`DistributedBuilder`].
pub struct ProcessFleet {
    layout: ShardLayout,
    measurement: Measurement,
    reply_timeout: Option<Duration>,
    shards: Vec<ShardSlot>,
    torn_down: bool,
}

/// Drives a fleet of `shard-server` processes through FL rounds — the
/// multi-process counterpart of an in-process [`Federation`], with the
/// identical determinism contract (see the [module docs](self)).
pub type DistributedCoordinator = RoundDriver<ProcessFleet>;

impl DistributedCoordinator {
    /// Starts a builder.
    pub fn builder(plan: TrainingPlan) -> DistributedBuilder {
        DistributedBuilder::new(plan)
    }

    /// Whether shard `s`'s process is still connected.
    pub fn shard_alive(&self, s: usize) -> bool {
        self.fleet
            .shards
            .get(s)
            .is_some_and(|slot| slot.channel.is_some())
    }

    /// Total envelope bytes `(sent, received)` across every shard
    /// channel this coordinator has driven, dead ones included.
    pub fn bytes_on_wire(&self) -> (u64, u64) {
        self.fleet.shards.iter().fold((0, 0), |(out, inn), slot| {
            let (o, i) = match &slot.channel {
                Some(ch) => (ch.bytes_out, ch.bytes_in),
                None => slot.retired_bytes,
            };
            (out + o, inn + i)
        })
    }

    /// Kills shard `s`'s process outright (SIGKILL) — the fault the
    /// stretch goal injects: the next round must bill and exclude the
    /// shard's cohort rather than fail the federation.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Transport`] when the kill itself fails.
    pub fn kill_shard(&mut self, s: usize) -> Result<()> {
        let slot = self.fleet.shards.get_mut(s).ok_or(FlError::BadConfig {
            reason: format!("no shard {s}"),
        })?;
        slot.deliberately_killed = true;
        slot.child
            .kill()
            .map_err(|e| FlError::transport(format!("killing shard {s}"), e))?;
        // Reap now so the child never lingers as a zombie.
        let _ = slot.child.wait();
        slot.reaped = true;
        slot.retire();
        Ok(())
    }
}

impl ProcessFleet {
    /// Spawns one shard-server per layout shard, pointed at `addr`.
    fn spawn(&mut self, binary: &Path, addr: SocketAddr) -> Result<()> {
        for _ in 0..self.layout.num_shards() {
            let child = Command::new(binary)
                .arg(addr.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| FlError::transport(format!("spawning {}", binary.display()), e))?;
            self.shards.push(ShardSlot {
                channel: None,
                retired_bytes: (0, 0),
                child,
                reaped: false,
                deliberately_killed: false,
            });
        }
        Ok(())
    }

    /// Accepts, handshakes and configures every spawned shard-server;
    /// `template` carries everything of the [`ShardConfig`] but the
    /// shard's index and range.
    fn connect(&mut self, listener: &TcpListener, template: &ShardConfig) -> Result<()> {
        // Accept one connection per shard; identity is assigned by
        // arrival order (shard servers are symmetric until
        // configured). Poll so a child that died before connecting
        // fails the launch instead of hanging it.
        let deadline = Instant::now() + CONNECT_GRACE;
        for s in 0..self.shards.len() {
            let stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        for slot in &mut self.shards {
                            if let Ok(Some(status)) = slot.child.try_wait() {
                                slot.reaped = true;
                                return Err(FlError::Protocol {
                                    reason: format!(
                                        "shard-server exited before connecting: {status}"
                                    ),
                                });
                            }
                        }
                        if Instant::now() > deadline {
                            return Err(FlError::disconnected(
                                "waiting for shard-server connections",
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(FlError::transport("accepting shard connection", e)),
                }
            };
            stream
                .set_nonblocking(false)
                .map_err(|e| FlError::transport("configuring shard stream", e))?;
            let mut channel = ShardChannel::new(stream)?;
            let hello: ShardHello = channel.recv()?.open(MessageKind::ShardHello)?;
            // Arrival order assigns shard identity, but the child
            // handles sit in *spawn* order — pair each connection
            // with its process via the hello's pid, or a later
            // kill/teardown would target the wrong child. Slots
            // before `s` are already paired, so only the tail is
            // searched (and swapped while both channels are None).
            let k = self.shards[s..]
                .iter()
                .position(|slot| u64::from(slot.child.id()) == hello.pid)
                .map(|offset| s + offset)
                .ok_or(FlError::Protocol {
                    reason: format!("connection from unknown shard-server pid {}", hello.pid),
                })?;
            self.shards.swap(s, k);
            check_version("shard-server", hello.version)?;
            channel.send(&Envelope::pack(
                MessageKind::ShardHelloAck,
                &ShardHelloAck {
                    version: PROTOCOL_VERSION,
                    shard_index: s as u64,
                },
            ))?;
            self.shards[s].channel = Some(channel);
        }
        // Configure all shards, then collect all acks: fleet wiring
        // is the expensive part and this pipelines it across
        // processes.
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let range = self.layout.range(s);
            let config = ShardConfig {
                shard_index: s as u64,
                range_start: range.start as u64,
                range_end: range.end as u64,
                ..template.clone()
            };
            slot.channel
                .as_mut()
                .expect("channel just installed")
                .send(&Envelope::pack(MessageKind::ShardConfig, &config))?;
        }
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let expected = self.layout.range(s).len();
            let ack: ShardConfigAck = slot.reply(MessageKind::ShardConfigAck, None)?;
            if ack.clients != expected as u64 {
                return Err(FlError::Protocol {
                    reason: format!(
                        "shard {s} wired {} clients, expected {expected}",
                        ack.clients
                    ),
                });
            }
        }
        Ok(())
    }
}

impl Fleet for ProcessFleet {
    const RUNNER: &'static str = "DistributedCoordinator";

    fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Fans the attestation challenges out to the owning shards (nonces
    /// were drawn by the driver) and verifies the relayed evidence here.
    fn screen(&mut self, plan: &ScreenPlan) -> Vec<ScreeningOutcome> {
        // Partition this round's candidates by owning shard, remembering
        // each probe's position in the global candidate order so the
        // outcome vector can be reassembled index-aligned.
        let num_shards = self.shards.len();
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        let mut probes: Vec<Vec<ScreenProbe>> = vec![Vec::new(); num_shards];
        for (ci, (&g, ch)) in plan.candidates.iter().zip(&plan.challenges).enumerate() {
            let s = self.layout.shard_of(g);
            positions[s].push(ci);
            probes[s].push(ScreenProbe {
                local: (g - self.layout.range(s).start) as u64,
                challenge: *ch,
            });
        }
        // Candidates on a dead (or newly failing) shard screen as
        // unreachable — the same verdict an in-process fleet gives a
        // client whose endpoint is gone.
        let mut outcomes = vec![ScreeningOutcome::Unreachable; plan.candidates.len()];
        for (slot, probes) in self.shards.iter_mut().zip(probes) {
            if !probes.is_empty() {
                slot.send(MessageKind::ShardScreen, &ShardScreen { probes });
            }
        }
        for (slot, positions) in self.shards.iter_mut().zip(&positions) {
            if positions.is_empty() || slot.channel.is_none() {
                continue;
            }
            match slot.reply::<ShardScreenReply>(MessageKind::ShardScreenReply, self.reply_timeout)
            {
                Ok(reply) if reply.evidence.len() == positions.len() => {
                    for (&ci, evidence) in positions.iter().zip(reply.evidence) {
                        let g = plan.candidates[ci];
                        outcomes[ci] = match evidence {
                            None => ScreeningOutcome::Unreachable,
                            Some(resp) => verify_evidence(
                                &DeviceProfile::provisioned_key(g as u64),
                                resp.quote,
                                self.measurement,
                                &plan.challenges[ci],
                            ),
                        };
                    }
                }
                _ => slot.retire(),
            }
        }
        outcomes
    }

    /// Broadcasts the download, collects the shard partials at their
    /// global slots, and bills a shard that died, hung or answered
    /// garbage as a lost cohort.
    fn execute(&mut self, picked: &[usize], download: &ModelDownload) -> Result<Executed> {
        // With a contiguous layout and sorted picks, shard s's picks
        // occupy the contiguous global slot range starting at the prefix
        // count — that is each reply's slot_base.
        let split = self.layout.split_picks(picked);
        let mut slot_base = Vec::with_capacity(split.len());
        let mut at = 0usize;
        for picks in &split {
            slot_base.push(at);
            at += picks.len();
        }
        for ((slot, picks), &base) in self.shards.iter_mut().zip(&split).zip(&slot_base) {
            if picks.is_empty() || slot.channel.is_none() {
                continue;
            }
            slot.send(
                MessageKind::ShardRound,
                &ShardRound {
                    download: download.clone(),
                    picks: picks.iter().map(|&p| p as u64).collect(),
                    slot_base: base as u64,
                },
            );
        }
        let mut slots: Vec<Option<ClientOutcome<ArrivedUpload>>> =
            (0..picked.len()).map(|_| None).collect();
        let mut ledger = RoundLedger::new();
        let mut cohort_lost = false;
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let (picks, base) = (&split[s], slot_base[s]);
            if picks.is_empty() {
                continue;
            }
            let applied = slot
                .reply::<ShardRoundReply>(MessageKind::ShardRoundReply, self.reply_timeout)
                .and_then(|reply| {
                    apply_shard_reply(reply, base, picks.len(), &mut slots, &mut ledger)
                })
                .is_ok();
            if !applied {
                // The whole cohort is billed and excluded, straggler
                // style: failed outcomes with zero-cost ledger entries.
                slot.retire();
                cohort_lost = true;
                let first = self.layout.range(s).start;
                for (j, &local) in picks.iter().enumerate() {
                    let client = (first + local) as u64;
                    ledger.record(ClientCycleCost::unbilled(client));
                    slots[base + j] = Some(ClientOutcome::Failed {
                        client,
                        error: FlError::ClientFailure {
                            client,
                            reason: format!("shard {s} process failed mid-round"),
                        },
                    });
                }
            }
        }
        let outcomes = slots
            .into_iter()
            .zip(picked)
            .map(|(outcome, &pick)| {
                outcome.unwrap_or_else(|| {
                    let client = pick as u64;
                    ledger.record(ClientCycleCost::unbilled(client));
                    ClientOutcome::Failed {
                        client,
                        error: FlError::ClientFailure {
                            client,
                            reason: "coordinator lost the client's outcome".to_owned(),
                        },
                    }
                })
            })
            .collect();
        Ok(Executed {
            outcomes,
            ledger,
            cohort_lost,
        })
    }

    /// Sends every live shard a Goodbye, drops the channels (so a shard
    /// that lost the goodbye observes EOF), then waits for the child
    /// processes under the same watchdog discipline as `MuxFleet::join` —
    /// bounded by [`DEFAULT_JOIN_GRACE`], kill-on-timeout, first error
    /// surfaced (deliberately killed shards excepted).
    fn teardown(&mut self) -> Result<()> {
        if self.torn_down {
            return Ok(());
        }
        self.torn_down = true;
        let mut first_err: Option<FlError> = None;
        for slot in &mut self.shards {
            if let Some(ch) = slot.channel.as_mut() {
                if let Err(e) = ch.send(&Envelope::control(MessageKind::Goodbye)) {
                    first_err.get_or_insert(e);
                }
            }
            // Dropping the channel closes the socket: a shard whose
            // goodbye was lost sees EOF and exits instead of hanging
            // the wait below.
            slot.retire();
        }
        let deadline = Instant::now() + DEFAULT_JOIN_GRACE;
        loop {
            let mut all_done = true;
            for slot in &mut self.shards {
                if slot.reaped {
                    continue;
                }
                match slot.child.try_wait() {
                    Ok(Some(status)) => {
                        slot.reaped = true;
                        if !status.success() && !slot.deliberately_killed {
                            first_err.get_or_insert(FlError::Protocol {
                                reason: format!("shard-server exited with {status}"),
                            });
                        }
                    }
                    Ok(None) => all_done = false,
                    Err(e) => {
                        slot.reaped = true;
                        first_err.get_or_insert(FlError::transport("waiting for shard-server", e));
                    }
                }
            }
            if all_done {
                break;
            }
            if Instant::now() > deadline {
                for slot in &mut self.shards {
                    if slot.reaped {
                        continue;
                    }
                    let _ = slot.child.kill();
                    let _ = slot.child.wait();
                    slot.reaped = true;
                    if !slot.deliberately_killed {
                        first_err.get_or_insert(FlError::Protocol {
                            reason: "shard-server ignored goodbye past the join grace; killed"
                                .to_owned(),
                        });
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// Validates and applies one shard's round reply: every slot must fall
/// in the shard's `[slot_base, slot_base + picks)` window exactly once
/// (full coverage — the shard accounts every pick, success or not).
/// Nothing is written to `slots`/`ledger` unless the whole reply
/// validates, so a garbled reply degrades to a clean cohort failure.
fn apply_shard_reply(
    reply: ShardRoundReply,
    slot_base: usize,
    picks: usize,
    slots: &mut [Option<ClientOutcome<ArrivedUpload>>],
    ledger: &mut RoundLedger,
) -> Result<()> {
    let mut seen = vec![false; picks];
    let mut mark = |slot: usize| -> Result<()> {
        let local =
            slot.checked_sub(slot_base)
                .filter(|&l| l < picks)
                .ok_or(FlError::Protocol {
                    reason: format!(
                        "shard reply slot {slot} outside [{slot_base}, {})",
                        slot_base + picks
                    ),
                })?;
        if std::mem::replace(&mut seen[local], true) {
            return Err(FlError::Protocol {
                reason: format!("shard reply repeats slot {slot}"),
            });
        }
        Ok(())
    };
    let ShardRoundReply {
        partial,
        others,
        ledger: shard_ledger,
    } = reply;
    for slot in partial.slots() {
        mark(slot)?;
    }
    for o in &others {
        mark(o.slot as usize)?;
    }
    if !seen.iter().all(|&s| s) {
        return Err(FlError::Protocol {
            reason: "shard reply does not account every pick".to_owned(),
        });
    }
    // The reply validated: its updates move into the slots, held once.
    for (slot, upload) in partial.into_terms() {
        slots[slot] = Some(ClientOutcome::Completed(upload.into()));
    }
    for o in others {
        let outcome = match o.kind {
            ShardOutcomeKind::Straggler { elapsed_s } => ClientOutcome::Straggler {
                client: o.client,
                elapsed_s,
            },
            ShardOutcomeKind::Failed { reason } => ClientOutcome::Failed {
                client: o.client,
                error: FlError::ClientFailure {
                    client: o.client,
                    reason,
                },
            },
        };
        slots[o.slot as usize] = Some(outcome);
    }
    ledger.merge(&shard_ledger);
    Ok(())
}

// ---------------------------------------------------------------------
// Shard-server side.
// ---------------------------------------------------------------------

/// Entry point for the `shard-server` binary: connects back to the
/// coordinator address in `args` and serves one shard until Goodbye.
///
/// # Errors
///
/// Returns [`FlError::BadConfig`] without an address argument and
/// propagates every serve failure.
pub fn shard_server_main(mut args: impl Iterator<Item = String>) -> Result<()> {
    let addr = args.next().ok_or(FlError::BadConfig {
        reason: "usage: shard-server <coordinator-addr>".to_owned(),
    })?;
    let stream = TcpStream::connect(&addr)
        .map_err(|e| FlError::transport(format!("connecting to coordinator {addr}"), e))?;
    serve_shard(stream)
}

/// Serves one shard over an established coordinator connection:
/// handshake, configuration, then screen/round requests until Goodbye.
/// This is the whole shard-server process in library form — the binary
/// only parses its address argument.
///
/// # Errors
///
/// Propagates handshake, configuration and transport failures (the
/// binary turns them into a nonzero exit, which the coordinator's
/// teardown surfaces).
pub fn serve_shard(stream: TcpStream) -> Result<()> {
    let mut channel = ShardChannel::new(stream)?;
    channel.send(&Envelope::pack(
        MessageKind::ShardHello,
        &ShardHello::current(),
    ))?;
    let ack: ShardHelloAck = channel.recv()?.open(MessageKind::ShardHelloAck)?;
    check_version("coordinator", ack.version)?;
    let config: ShardConfig =
        reported(channel.recv()?.open(MessageKind::ShardConfig), &mut channel)?;
    let mut fleet = reported(host_shard(&config), &mut channel)?;
    channel.send(&Envelope::pack(
        MessageKind::ShardConfigAck,
        &ShardConfigAck {
            clients: fleet.layout().num_clients() as u64,
        },
    ))?;
    loop {
        let request = channel.recv()?;
        match request.kind {
            MessageKind::ShardScreen => {
                // Raw evidence only: verification stays on the
                // coordinator, against its own provisioning registry.
                let screen: ShardScreen = request.open(MessageKind::ShardScreen)?;
                let clients = fleet.clients_mut();
                let evidence = screen
                    .probes
                    .iter()
                    .map(|probe| {
                        clients
                            .get_mut(probe.local as usize)
                            .and_then(|client| client.attest(&probe.challenge).ok())
                    })
                    .collect();
                channel.send(&Envelope::pack(
                    MessageKind::ShardScreenReply,
                    &ShardScreenReply { evidence },
                ))?;
            }
            MessageKind::ShardRound => {
                let round: ShardRound = request.open(MessageKind::ShardRound)?;
                let picks: Vec<usize> = round.picks.iter().map(|&p| p as usize).collect();
                let executed = reported(fleet.execute(&picks, &round.download), &mut channel)?;
                let reply = shard_round_reply(executed, round.slot_base as usize);
                channel.send(&Envelope::pack(MessageKind::ShardRoundReply, &reply))?;
            }
            MessageKind::Goodbye => {
                // Mirror the in-process teardown: goodbye every client
                // endpoint before exiting.
                let _ = fleet.teardown();
                return Ok(());
            }
            other => {
                return reported(
                    Err(FlError::Protocol {
                        reason: format!("unexpected {other:?} on shard control channel"),
                    }),
                    &mut channel,
                );
            }
        }
    }
}

/// Passes `result` through, first telling the coordinator why when it is
/// a failure this process is about to exit on.
fn reported<T>(result: Result<T>, channel: &mut ShardChannel) -> Result<T> {
    if let Err(e) = &result {
        let _ = channel.send(&Envelope::error(e.to_string()));
    }
    result
}

/// Materialises a [`DatasetSpec`] — both sides construct the identical
/// deterministic dataset from the recipe, so no sample crosses the wire.
fn build_dataset(spec: &DatasetSpec) -> Arc<dyn Dataset> {
    match *spec {
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

/// Materialises a [`ModelSpec`].
fn build_model(spec: &ModelSpec) -> Result<Sequential> {
    Ok(match *spec {
        ModelSpec::TinyMlp {
            inputs,
            hidden,
            outputs,
            seed,
        } => zoo::tiny_mlp(inputs as usize, hidden as usize, outputs as usize, seed)?,
        ModelSpec::LeNet5 { classes, seed } => zoo::lenet5_with(classes as usize, seed)?,
    })
}

/// Builds and handshakes the shard's client fleet from its config through
/// the same assembler as an in-process federation
/// ([`FederationBuilder::host`](crate::runner::FederationBuilder)):
/// all-TrustZone devices and plain SGD trainers (the builder defaults),
/// global client ids, the *global* data partition sub-ranged, personas
/// re-derived from the shipped scenario plan, and the fault wrapper
/// installed before the handshake.
fn host_shard(config: &ShardConfig) -> Result<LocalFleet> {
    if config.range_start > config.range_end || config.range_end > config.total_clients {
        return Err(FlError::BadConfig {
            reason: format!(
                "shard range [{}, {}) outside fleet of {}",
                config.range_start, config.range_end, config.total_clients
            ),
        });
    }
    let backend = BackendKind::parse(&config.backend).ok_or_else(|| FlError::BadConfig {
        reason: format!("unknown kernel backend {:?}", config.backend),
    })?;
    let codec = CodecKind::parse(&config.codec).ok_or_else(|| FlError::BadConfig {
        reason: format!("unknown update codec {:?}", config.codec),
    })?;
    let partition = PartitionKind::parse(&config.partition).ok_or_else(|| FlError::BadConfig {
        reason: format!("unknown partition kind {:?}", config.partition),
    })?;
    let mut prototype = build_model(&config.model)?;
    prototype.set_backend(backend);
    prototype.set_weights(&config.init_weights)?;
    let devices = (config.range_start..config.range_end)
        .map(DeviceProfile::trustzone)
        .collect();
    let mut builder = Federation::builder(config.plan)
        .devices(devices, build_dataset(&config.dataset))
        .engine(ExecutionEngine::new(config.workers as usize))
        .codec(codec)
        .partition(partition);
    if let Some(plan) = &config.faults {
        builder = builder.faults(plan.clone());
    }
    if let Some(plan) = &config.adversaries {
        builder = builder.adversaries(plan.clone());
    }
    // No collusion log in shard processes: it is an observability
    // artifact, and colluders train honestly, so its absence cannot
    // perturb the committed weights.
    builder.host(
        &prototype,
        config.range_start as usize,
        config.total_clients as usize,
        None,
    )
}

/// Repackages one executed round at its *global* slots: completed updates
/// into the [`PartialAggregate`], stragglers/failures into the tagged
/// overflow list, the shard ledger as-is. The updates go in as they
/// arrived; the control channel ships a partial dense, so each is
/// expanded into the reply's frame as that is written, one at a time.
fn shard_round_reply(executed: Executed, slot_base: usize) -> ShardRoundReply {
    let mut partial = PartialAggregate::new();
    let mut others = Vec::new();
    for (j, outcome) in executed.outcomes.into_iter().enumerate() {
        let slot = slot_base + j;
        match outcome {
            ClientOutcome::Completed(upload) => partial.push_arrived(slot, upload),
            ClientOutcome::Straggler { client, elapsed_s } => others.push(ShardOutcome {
                slot: slot as u64,
                client,
                kind: ShardOutcomeKind::Straggler { elapsed_s },
            }),
            ClientOutcome::Failed { client, error } => others.push(ShardOutcome {
                slot: slot as u64,
                client,
                kind: ShardOutcomeKind::Failed {
                    reason: error.to_string(),
                },
            }),
        }
    }
    ShardRoundReply {
        partial,
        others,
        ledger: executed.ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_reply_timeout_is_rejected_before_any_spawn() {
        let err = DistributedCoordinator::builder(TrainingPlan::default())
            .clients(
                8,
                DatasetSpec::Micro {
                    len: 64,
                    classes: 2,
                    dim: 4,
                    seed: 1,
                },
            )
            .model(ModelSpec::TinyMlp {
                inputs: 4,
                hidden: 4,
                outputs: 2,
                seed: 1,
            })
            .reply_timeout(Duration::ZERO)
            .launch()
            .unwrap_err();
        assert!(matches!(err, FlError::BadConfig { .. }), "{err}");
        assert!(err.to_string().contains("reply_timeout"), "{err}");
    }

    #[test]
    fn a_shard_server_refuses_a_coordinator_at_another_version() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let shard = std::thread::spawn(move || serve_shard(TcpStream::connect(addr).unwrap()));
        let mut channel = ShardChannel::new(listener.accept().unwrap().0).unwrap();
        let hello: ShardHello = channel
            .recv()
            .unwrap()
            .open(MessageKind::ShardHello)
            .unwrap();
        assert_eq!(hello.version, PROTOCOL_VERSION);
        channel
            .send(&Envelope::pack(
                MessageKind::ShardHelloAck,
                &ShardHelloAck {
                    version: PROTOCOL_VERSION + 1,
                    shard_index: 0,
                },
            ))
            .unwrap();
        let err = shard.join().unwrap().unwrap_err();
        assert!(matches!(err, FlError::Protocol { .. }), "{err}");
        let text = err.to_string();
        assert!(text.contains("coordinator"), "{text}");
        assert!(
            text.contains(&format!("version {},", PROTOCOL_VERSION + 1)),
            "{text}"
        );
        assert!(
            text.contains(&format!("speaks {PROTOCOL_VERSION}")),
            "{text}"
        );
    }
}
