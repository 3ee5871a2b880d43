//! Multi-process federation: shard-server processes driven by a wire
//! coordinator.
//!
//! An in-process [`Federation`] scales its fleet across engine shards
//! inside one process; this module promotes each shard to its own OS
//! process. The same [`FederationBuilder`] that
//! [`build`](FederationBuilder::build)s the one
//! [`launch`](FederationBuilder::launch)es the other, from the same
//! fields. [`DistributedCoordinator`] is the same [`RoundDriver`] over a
//! [`ProcessFleet`]: `shard-server` children (the thin binary in
//! `src/bin/shard_server.rs` over `serve_shard`), each hosting one
//! contiguous [`ShardLayout`] client range — a [`LocalFleet`] built by
//! the same builder and assembler an in-process federation uses, from
//! the recipes, plans and device profiles its [`ShardConfig`] carries —
//! behind the existing envelope protocol, screened and executed over
//! loopback TCP:
//!
//! ```text
//!  coordinator process                    shard-server processes
//!  ┌─────────────────────────┐   TCP     ┌───────────────────────────┐
//!  │ FlServer (RNG, global   │◄────────► │ shard 0: clients [0, a)   │
//!  │ model, sampling)        │  envelope │   engine × W workers      │
//!  │ ProtectionScheduler     │◄────────► │ shard 1: clients [a, b)   │
//!  │ quote verification      │   one     │   engine × W workers      │
//!  │ commit (FedAvg fold,    │◄────────► │ shard 2: clients [b, n)   │
//!  │  ledger from outcomes)  │  channel  │   engine × W workers      │
//!  └─────────────────────────┘  per shard└───────────────────────────┘
//! ```
//!
//! The control channel is framed exactly like a socket client session:
//! both of its ends are a [`FramedStream`], which also counts the bytes
//! [`bytes_on_wire`](DistributedCoordinator::bytes_on_wire) reports. The
//! coordinator accepts its shard servers through the same accept loop
//! that wires a mux fleet: it waits on the poller, and gives up at once
//! when a child exits before connecting.
//!
//! The determinism contract is unchanged: because every RNG consumption
//! happens in the driver ([`FlServer::screen_plan`](crate::server::FlServer::screen_plan)
//! draws the candidate sub-sample and the attestation nonces in global
//! candidate order,
//! [`FlServer::sample_screened`](crate::server::FlServer::sample_screened)
//! does the single shuffle), because quote *verification* stays on the
//! coordinator against its own provisioning registry, and because shard
//! replies come back as one outcome per pick, tagged with its *global*
//! selection slot and carrying its bill, and are handed, reply by reply,
//! to the driver's one commit, a distributed run over
//! `(S shard processes × W workers)` is bit-identical to the flat
//! in-process reference — gated by `repro_gates` and the shard-server
//! cells of `tests/deployment_matrix.rs`.
//!
//! Shard-failure semantics: a shard process that crashes or answers
//! garbage is billed and excluded like a straggler cohort — its picked
//! clients become failed outcomes, billed zero-cost entries, and the
//! round commits from the surviving shards. [`FlError::RoundCollapsed`] is raised only when *nothing*
//! commits. A dead shard stays dead (and is reaped at
//! [`shutdown`](RoundDriver::shutdown)); later rounds simply screen its
//! clients as unreachable.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gradsec_tee::attestation::Measurement;

use crate::client::DeviceProfile;
use crate::codec::flatten;
use crate::config::{ShardLayout, TrainingPlan, TransportKind};
use crate::engine::ClientOutcome;
use crate::fleet::{Collected, Executed, Fleet, Sink};
use crate::message::{
    check_version, ArrivedUpload, ArrivedWeights, DatasetSpec, Envelope, MessageKind,
    ModelDownload, ModelSpec, ScreenProbe, ShardConfig, ShardConfigAck, ShardHello, ShardHelloAck,
    ShardOutcome, ShardOutcomeKind, ShardRound, ShardRoundReply, ShardScreen, ShardScreenReply,
    Wire, PROTOCOL_VERSION,
};
use crate::runner::{Data, Federation, FederationBuilder, LocalFleet, Model, RoundDriver};
use crate::selection::{verify_evidence, ScreenPlan, ScreeningOutcome};
use crate::transport::mux::DEFAULT_JOIN_GRACE;
use crate::transport::tcp::{self, FramedStream, TcpListenerEndpoint};
use crate::{FlError, Result};

/// How long `launch` waits for every spawned shard-server to connect
/// back before declaring the fleet dead on arrival.
const CONNECT_GRACE: Duration = Duration::from_secs(60);

/// Environment variable overriding where the `shard-server` binary
/// lives (used by CI and the repro gates to pin an already-built one).
pub const SHARD_SERVER_ENV: &str = "GRADSEC_SHARD_SERVER";

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

impl FederationBuilder {
    /// Spawns one `shard-server` child process per shard, ships each its
    /// slice of the fleet, and returns the ready coordinator: the run
    /// [`build`](Self::build) assembles, with its clients in other
    /// processes. A shard server rebuilds its range from bytes alone, so
    /// everything it needs crosses in its [`ShardConfig`]: the recipes,
    /// the plan, the backend and codec as one-byte tags, the worker count
    /// (per process), the fault and adversary plans and the shard's slice
    /// of the device list. The scheduler, aggregator and screening cap
    /// stay on the coordinator, and shard servers train with the default
    /// trainer.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] on invalid configuration, and — by
    /// name, before anything is spawned — for an input that cannot cross
    /// to a shard server: a closure model, a built dataset, a custom
    /// [`trainer`](Self::trainer) or [`TransportKind::TcpMux`];
    /// [`FlError::Transport`] when spawning/connecting fails, and
    /// [`FlError::Protocol`] on a handshake violation.
    pub fn launch(self) -> Result<DistributedCoordinator> {
        let (model, dataset) = self.recipes()?;
        let init_weights = self.prototype()?.weights();
        let server = self.server(init_weights.clone())?;
        let layout = ShardLayout::new(self.devices.len(), self.shards);
        let config = |s: usize| {
            let range = layout.range(s);
            ShardConfig {
                shard_index: s as u64,
                range_start: range.start as u64,
                range_end: range.end as u64,
                total_clients: self.devices.len() as u64,
                dataset,
                model,
                init_weights: init_weights.clone(),
                plan: self.plan,
                backend: self.backend,
                codec: self.codec,
                workers: self.engine.workers as u64,
                faults: self.faults.as_deref().cloned(),
                adversaries: self.adversaries.as_deref().cloned(),
                devices: self.devices[range].to_vec(),
            }
        };
        let configs = (0..layout.num_shards()).map(config).collect();

        let listener = tcp::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let binary = resolve_shard_server()?;

        let fleet = ProcessFleet {
            measurement: self.measurement,
            shards: Vec::with_capacity(layout.num_shards()),
            layout,
            torn_down: false,
        };
        // Under the driver before the first spawn, so any failure from
        // here on still tears the children down via its Drop.
        let mut coordinator = self.drive(server, fleet);
        coordinator.fleet.spawn(&binary, addr)?;
        coordinator.fleet.connect(listener, configs)?;
        Ok(coordinator)
    }

    /// The model and dataset recipes a shard server rebuilds its range
    /// from, once every input is one that can cross to it.
    fn recipes(&self) -> Result<(ModelSpec, DatasetSpec)> {
        let refuse = |what: &str, instead: &str| FlError::BadConfig {
            reason: format!("launch: {what} cannot cross to a shard server; {instead}"),
        };
        let unset = |what: &str| FlError::BadConfig {
            reason: format!("{what} not set"),
        };
        let model = match &self.model {
            Some(Model::Recipe(spec)) => *spec,
            Some(Model::Closure(_)) => return Err(refuse("a closure model", "pass a ModelSpec")),
            None => return Err(unset("model")),
        };
        let dataset = match &self.dataset {
            Some(Data::Recipe(spec)) => *spec,
            Some(Data::Built(_)) => return Err(refuse("a built dataset", "pass a DatasetSpec")),
            None => return Err(unset("dataset")),
        };
        if self.trainer.is_some() {
            let instead = "shard servers train with DefaultTrainer";
            return Err(refuse("a custom trainer", instead));
        }
        if self.transport != TransportKind::InProcess {
            let instead = "shard servers host their clients in process";
            return Err(refuse("transport TcpMux", instead));
        }
        Ok((model, dataset))
    }
}

/// One shard-server process as the coordinator tracks it: the control
/// channel (dropped once the shard is declared dead) and the child
/// process handle.
struct ShardSlot {
    channel: Option<FramedStream>,
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
            self.retired_bytes = ch.bytes();
        }
    }

    /// Sends `envelope` if the shard is still connected; a failed send
    /// retires the channel.
    fn send(&mut self, envelope: &Envelope) {
        if let Some(ch) = &mut self.channel {
            if ch.send(envelope).is_err() {
                self.retire();
            }
        }
    }

    /// Receives the shard's reply and opens it as `T`. Does *not* retire
    /// the channel on failure — the caller decides how a failure is
    /// billed.
    fn reply<T: Wire>(&mut self, expect: MessageKind) -> Result<T> {
        let channel = self
            .channel
            .as_mut()
            .ok_or_else(|| FlError::disconnected("shard channel already retired"))?;
        channel.recv()?.open(expect)
    }
}

/// A fleet whose clients live in `shard-server` child processes, one per
/// contiguous [`ShardLayout`] range, each behind its own control
/// channel. Launched by [`FederationBuilder::launch`].
pub struct ProcessFleet {
    layout: ShardLayout,
    measurement: Measurement,
    shards: Vec<ShardSlot>,
    torn_down: bool,
}

/// Drives a fleet of `shard-server` processes through FL rounds — the
/// multi-process counterpart of an in-process [`Federation`], with the
/// identical determinism contract (see the [module docs](self)).
pub type DistributedCoordinator = RoundDriver<ProcessFleet>;

impl DistributedCoordinator {
    /// Alias of [`Federation::builder`], for callers that spell out the
    /// multi-process case: the one builder
    /// [`launch`](FederationBuilder::launch)es shard servers.
    pub fn builder(plan: TrainingPlan) -> FederationBuilder {
        Federation::builder(plan)
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
            let (o, i) = slot
                .channel
                .as_ref()
                .map_or(slot.retired_bytes, FramedStream::bytes);
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

#[cfg(test)]
thread_local! {
    /// Shard-server children this thread spawned.
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl ProcessFleet {
    /// Spawns one shard-server per layout shard, pointed at `addr`.
    fn spawn(&mut self, binary: &Path, addr: SocketAddr) -> Result<()> {
        for _ in 0..self.layout.num_shards() {
            #[cfg(test)]
            SPAWNED.set(SPAWNED.get() + 1);
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

    /// Accepts, handshakes and configures every spawned shard-server,
    /// shard `s` with `configs[s]`.
    fn connect(&mut self, listener: TcpListenerEndpoint, configs: Vec<ShardConfig>) -> Result<()> {
        // Accept one connection per shard; identity is assigned by
        // arrival order (shard servers are symmetric until configured).
        // A child that died before connecting fails the launch instead of
        // hanging it.
        let shards = &mut self.shards;
        let channels = listener.accept_all(
            shards.len(),
            Instant::now() + CONNECT_GRACE,
            "shard-server connections",
            || {
                shards.iter_mut().find_map(|slot| {
                    let status = slot.child.try_wait().ok().flatten()?;
                    slot.reaped = true;
                    Some(FlError::Protocol {
                        reason: format!("shard-server exited before connecting: {status}"),
                    })
                })
            },
        )?;
        for (s, mut channel) in channels.into_iter().enumerate() {
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
        for (slot, config) in self.shards.iter_mut().zip(configs) {
            slot.channel
                .as_mut()
                .expect("channel just installed")
                .send(&Envelope::pack(MessageKind::ShardConfig, &config))?;
        }
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let expected = self.layout.range(s).len();
            let ack: ShardConfigAck = slot.reply(MessageKind::ShardConfigAck)?;
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
                slot.send(&Envelope::pack(
                    MessageKind::ShardScreen,
                    &ShardScreen { probes },
                ));
            }
        }
        for (slot, positions) in self.shards.iter_mut().zip(&positions) {
            if positions.is_empty() || slot.channel.is_none() {
                continue;
            }
            match slot.reply::<ShardScreenReply>(MessageKind::ShardScreenReply) {
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

    /// Broadcasts the download, delivers each shard's outcomes at their
    /// global slots as its reply is read and validated, and bills a shard
    /// that died, hung or answered garbage as a lost cohort.
    fn execute(
        &mut self,
        picked: &[usize],
        download: &ModelDownload,
        sink: Sink<'_>,
    ) -> Result<Executed> {
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
            let picks: Vec<u64> = picks.iter().map(|&p| p as u64).collect();
            slot.send(&ShardRound::envelope(download, base as u64, &picks));
        }
        let mut cohort_lost = false;
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let (picks, base) = (&split[s], slot_base[s]);
            if picks.is_empty() {
                continue;
            }
            let applied = slot
                .reply::<ShardRoundReply>(MessageKind::ShardRoundReply)
                .and_then(|reply| {
                    apply_shard_reply(
                        reply,
                        download,
                        base,
                        &picked[base..base + picks.len()],
                        sink,
                    )
                })
                .is_ok();
            if !applied {
                // The whole cohort is billed and excluded, straggler
                // style: failed outcomes, which bill zero-cost entries.
                slot.retire();
                cohort_lost = true;
                let first = self.layout.range(s).start;
                for (j, &local) in picks.iter().enumerate() {
                    let client = (first + local) as u64;
                    let error = FlError::ClientFailure {
                        client,
                        reason: format!("shard {s} process failed mid-round"),
                    };
                    sink.deliver(base + j, ClientOutcome::Failed { client, error });
                }
            }
        }
        Ok(Executed { cohort_lost })
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

/// Validates and applies one shard's round reply. `picked` holds the
/// global ids of the shard's picks, in slot order from `slot_base`. Every
/// outcome's slot must fall in the shard's window exactly once (full
/// coverage — the shard accounts every pick, success or not), and every
/// client id the outcome names — its client, a term's `client_id`, a
/// bill's — must be the pick at that slot; every completed term must pass
/// [`check_shard_term`] against the round's `download`. So an accepted
/// reply bills each of its picks exactly once. Nothing reaches `sink`
/// unless the whole reply validates, so a garbled or hostile reply
/// degrades to a clean cohort failure; then every outcome goes to `sink`
/// before the next reply is read.
fn apply_shard_reply(
    reply: ShardRoundReply,
    download: &ModelDownload,
    slot_base: usize,
    picked: &[usize],
    sink: Sink<'_>,
) -> Result<()> {
    let mut seen = vec![false; picked.len()];
    let mut samples = 0usize;
    for o in &reply.outcomes {
        let slot = o.slot as usize;
        let local = slot
            .checked_sub(slot_base)
            .filter(|&l| l < picked.len())
            .ok_or(FlError::Protocol {
                reason: format!(
                    "shard reply slot {slot} outside [{slot_base}, {})",
                    slot_base + picked.len()
                ),
            })?;
        let pick = picked[local] as u64;
        let refuse = |what: &str, client: u64| FlError::Protocol {
            reason: format!("shard reply slot {slot}: {what} client {client}, not its pick {pick}"),
        };
        let (term, billed) = match &o.kind {
            ShardOutcomeKind::Completed(upload) => {
                (Some(upload.client_id), Some(upload.cost.client_id))
            }
            ShardOutcomeKind::Straggler { cost, .. } => (None, Some(cost.client_id)),
            ShardOutcomeKind::Failed { .. } => (None, None),
        };
        if let Some(client) = std::iter::once(o.client).chain(term).find(|&c| c != pick) {
            return Err(refuse("names", client));
        }
        if let Some(client) = billed.filter(|&c| c != pick) {
            return Err(refuse("bills", client));
        }
        if std::mem::replace(&mut seen[local], true) {
            return Err(FlError::Protocol {
                reason: format!("shard reply repeats slot {slot}"),
            });
        }
        if let ShardOutcomeKind::Completed(upload) = &o.kind {
            samples = check_shard_term(slot, upload, download, samples)?;
        }
    }
    if !seen.iter().all(|&s| s) {
        return Err(FlError::Protocol {
            reason: "shard reply does not account every pick".to_owned(),
        });
    }
    // The reply validated: its updates go to the commit, held once.
    for o in reply.outcomes {
        let client = o.client;
        let outcome = match o.kind {
            ShardOutcomeKind::Completed(upload) => ClientOutcome::Completed(upload),
            ShardOutcomeKind::Straggler { elapsed_s, cost } => ClientOutcome::Straggler {
                client,
                elapsed_s,
                cost,
            },
            ShardOutcomeKind::Failed { reason } => ClientOutcome::Failed {
                client,
                error: FlError::ClientFailure { client, reason },
            },
        };
        sink.deliver(o.slot as usize, outcome);
    }
    Ok(())
}

/// Refuses a completed shard term that no honest shard produces: a shape
/// other than the round's `download`, a NaN or ±inf coefficient, a sample
/// count that pushes the reply's running `total` past `usize`, or a claim
/// outside what one cycle of the round's plan trains on (zero included).
/// A term in wire form was checked as it decoded — every coefficient it
/// stands for is finite — against no model, so its dims are what is left
/// to check. Returns the new total.
fn check_shard_term(
    slot: usize,
    upload: &ArrivedUpload,
    download: &ModelDownload,
    total: usize,
) -> Result<usize> {
    let refuse = |what: String| FlError::Protocol {
        reason: format!("shard reply slot {slot}: {what}"),
    };
    let (w, want) = (&upload.weights, flatten(&download.weights));
    if w.tensors() != want.len() || (0..want.len()).any(|i| w.dims(i) != want[i].dims()) {
        return Err(refuse("shape differs from the round's download".to_owned()));
    }
    if let ArrivedWeights::Dense(weights) = &upload.weights {
        let mut coefficients = weights
            .iter()
            .flat_map(|l| l.w.data().iter().chain(l.b.data()));
        if let Some(x) = coefficients.find(|x| !x.is_finite()) {
            return Err(refuse(format!("non-finite coefficient {x}")));
        }
    }
    let total = total.checked_add(upload.num_samples).ok_or_else(|| {
        refuse(format!(
            "{} samples overflow the reply's sample total",
            upload.num_samples
        ))
    })?;
    download
        .plan
        .check_sample_claim(upload.num_samples)
        .map_err(refuse)?;
    Ok(total)
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
pub(crate) fn serve_shard(stream: TcpStream) -> Result<()> {
    let mut channel = FramedStream::new(stream)?;
    channel.send(&Envelope::pack(
        MessageKind::ShardHello,
        &ShardHello::current(),
    ))?;
    let ack: ShardHelloAck = channel.recv()?.open(MessageKind::ShardHelloAck)?;
    check_version("coordinator", ack.version)?;
    let config: ShardConfig =
        reported(channel.recv()?.open(MessageKind::ShardConfig), &mut channel)?;
    let mut fleet = reported(host_shard(config), &mut channel)?;
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
                let collected = Collected::new(picks.len());
                let sink = |slot, outcome| collected.put(slot, outcome);
                reported(
                    fleet.execute(&picks, &round.download, Sink::new(&sink)),
                    &mut channel,
                )?;
                let reply = shard_round_reply(collected.into_outcomes(), round.slot_base as usize);
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
fn reported<T>(result: Result<T>, channel: &mut FramedStream) -> Result<T> {
    if let Err(e) = &result {
        let _ = channel.send(&Envelope::error(e.to_string()));
    }
    result
}

/// Builds and handshakes the shard's client fleet from its config through
/// the same builder and assembler as an in-process federation
/// ([`FederationBuilder::host`](crate::runner::FederationBuilder)): the
/// device profiles it was sent and the default trainer, which shelters
/// each round's protected layers in the enclave, global client ids, the
/// *global* data partition sub-ranged, poisoners re-derived from the
/// shipped scenario plan, and the fault wrapper installed before the
/// handshake. The config's range, device count, tags and plan were
/// checked where it decoded.
fn host_shard(config: ShardConfig) -> Result<LocalFleet> {
    let mut builder = Federation::builder(config.plan)
        .model(config.model)
        .backend(config.backend)
        .devices(config.devices, config.dataset)
        .workers(config.workers as usize)
        .codec(config.codec);
    if let Some(plan) = config.faults {
        builder = builder.faults(plan);
    }
    if let Some(plan) = config.adversaries {
        builder = builder.adversaries(plan);
    }
    let mut prototype = builder.prototype()?;
    prototype.set_weights(&config.init_weights)?;
    builder.host(
        prototype,
        config.range_start as usize,
        config.total_clients as usize,
    )
}

/// Repackages one executed round's collected outcomes at their *global*
/// slots, each with its bill. The updates go in as they arrived, and the
/// reply's frame carries each in the form the term's `Wire` impl picks:
/// an int8 payload as it crossed the client's wire, a term leaning on
/// this shard's delta view expanded as the frame is written, one at a
/// time.
fn shard_round_reply(
    outcomes: Vec<ClientOutcome<ArrivedUpload>>,
    slot_base: usize,
) -> ShardRoundReply {
    let outcomes = outcomes.into_iter().enumerate().map(|(j, outcome)| {
        let (client, kind) = match outcome {
            ClientOutcome::Completed(upload) => {
                (upload.client_id, ShardOutcomeKind::Completed(upload))
            }
            ClientOutcome::Straggler {
                client,
                elapsed_s,
                cost,
            } => (client, ShardOutcomeKind::Straggler { elapsed_s, cost }),
            ClientOutcome::Failed { client, error } => {
                let reason = error.to_string();
                (client, ShardOutcomeKind::Failed { reason })
            }
        };
        let slot = (slot_base + j) as u64;
        ShardOutcome { slot, client, kind }
    });
    ShardRoundReply {
        outcomes: outcomes.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecKind;
    use gradsec_nn::BackendKind;

    /// A `ShardConfig` whose backend tag is past [`BackendKind::ALL`] —
    /// the retired `Blocked` backend's among them — or whose codec tag is
    /// unknown never decodes, and the error names the field, so a shard
    /// server never runs something other than what it was sent.
    #[test]
    fn a_shard_config_with_an_unknown_tag_is_refused_by_field() {
        use crate::message::{decode, encode};

        let model = ModelSpec::TinyMlp {
            inputs: 4,
            hidden: 4,
            outputs: 2,
            seed: 1,
        };
        let valid = ShardConfig {
            shard_index: 0,
            range_start: 0,
            range_end: 2,
            total_clients: 2,
            dataset: DatasetSpec::Micro {
                len: 16,
                classes: 2,
                dim: 4,
                seed: 1,
            },
            init_weights: model.build().unwrap().weights(),
            model,
            plan: TrainingPlan::default(),
            backend: BackendKind::Reference,
            codec: CodecKind::Identity,
            workers: 1,
            faults: None,
            adversaries: None,
            devices: (0..2).map(DeviceProfile::trustzone).collect(),
        };
        let bytes = encode(&valid);
        assert_eq!(decode::<ShardConfig>(&bytes).unwrap(), valid);
        // A field's tag is the one byte that moves when only it changes.
        let tag_of = |changed: ShardConfig| {
            let other = encode(&changed);
            let moved: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != other[i]).collect();
            assert_eq!(moved.len(), 1, "{moved:?}");
            moved[0]
        };
        let backend = tag_of(ShardConfig {
            backend: BackendKind::Tiled,
            ..valid.clone()
        });
        let codec = tag_of(ShardConfig {
            codec: CodecKind::Int8,
            ..valid.clone()
        });
        let past_all = BackendKind::ALL.len() as u8;
        for (at, tag, what) in [
            (backend, past_all, "kernel backend"),
            (backend, u8::MAX, "kernel backend"),
            (codec, 3, "update codec"),
            (codec, u8::MAX, "update codec"),
        ] {
            let mut hostile = bytes.clone();
            hostile[at] = tag;
            let err = decode::<ShardConfig>(&hostile).unwrap_err();
            let text = err.to_string();
            assert!(
                text.contains(what) && text.contains(&tag.to_string()),
                "{text}"
            );
        }
    }

    /// `launch` refuses, by name and before it spawns anything, each
    /// input that cannot cross to a shard server.
    #[test]
    fn launch_refuses_what_cannot_cross_to_a_shard_server() {
        use crate::trainer::PlainSgdTrainer;

        let model = ModelSpec::TinyMlp {
            inputs: 4,
            hidden: 4,
            outputs: 2,
            seed: 1,
        };
        let data = DatasetSpec::Micro {
            len: 16,
            classes: 2,
            dim: 4,
            seed: 1,
        };
        let recipes = || {
            Federation::builder(TrainingPlan::default())
                .model(model)
                .clients(4, data)
                .shards(2)
        };
        let cases = [
            (
                recipes().model(move || model.build().unwrap()),
                "a closure model cannot cross to a shard server; pass a ModelSpec",
            ),
            (
                recipes().clients(4, data.build()),
                "a built dataset cannot cross to a shard server; pass a DatasetSpec",
            ),
            (
                recipes().trainer(|_| Box::new(PlainSgdTrainer)),
                "a custom trainer cannot cross to a shard server; \
                 shard servers train with DefaultTrainer",
            ),
            (
                recipes().transport(TransportKind::TcpMux),
                "transport TcpMux cannot cross to a shard server; \
                 shard servers host their clients in process",
            ),
        ];
        for (builder, expected) in cases {
            let err = builder.launch().expect_err(expected);
            assert!(matches!(err, FlError::BadConfig { .. }), "{err}");
            assert!(err.to_string().contains(expected), "{expected}: {err}");
            assert_eq!(SPAWNED.get(), 0, "{expected}: a child was spawned");
        }
    }

    /// A shard reply whose completed term no honest shard produces, or
    /// whose outcome names or bills a client other than its slot's pick,
    /// is refused by slot before any slot is written — even when the
    /// reply's other term is sound. An accepted reply bills each of its
    /// picks exactly once.
    #[test]
    fn a_hostile_shard_term_is_refused_before_any_slot_is_written() {
        use crate::codec::{encode_weights, CheckedWeights};
        use crate::message::UpdateUpload;
        use gradsec_nn::model::{LayerWeights, ModelWeights};
        use gradsec_tee::cost::ClientCycleCost;
        use gradsec_tensor::Tensor;
        use std::sync::Mutex;

        let model = |w: Vec<f32>| {
            let n = w.len();
            ModelWeights::new(vec![LayerWeights {
                w: Tensor::from_vec(w, &[n]).unwrap(),
                b: Tensor::full(&[1], 0.5),
            }])
        };
        // One cycle of the round's plan trains on at most 2 × 4 samples.
        let download = ModelDownload {
            round: 0,
            weights: model(vec![0.0; 2]),
            plan: TrainingPlan {
                batches_per_cycle: 2,
                batch_size: 4,
                ..TrainingPlan::default()
            },
            protected_layers: vec![],
        };
        let term = |client: u64, weights: ModelWeights, num_samples: usize| {
            ArrivedUpload::from(UpdateUpload {
                client_id: client,
                round: 0,
                weights,
                num_samples,
                train_loss: 0.1,
                cost: ClientCycleCost::unbilled(client),
            })
        };
        // Client 8's update as a shard server ships an int8 one: the
        // payload that crossed the client's wire.
        let int8 = |coefficients: Vec<f32>| {
            let enc = encode_weights(CodecKind::Int8, 1, &model(coefficients), None);
            let checked = CheckedWeights::new(enc, None).unwrap();
            ArrivedUpload {
                weights: ArrivedWeights::Wire(Box::new(checked)),
                ..term(8, download.weights.clone(), 4)
            }
        };
        let dense =
            |coefficients: Vec<f32>, samples: usize| Ok(term(8, model(coefficients), samples));
        // Slots 2 and 3 are this shard's, picked for clients 7 and 8. Slot
        // 2 holds a sound term; slot 3 an update, or a straggler report
        // naming a client and carrying a bill for one.
        let picked = [7, 8];
        let reply = |third: std::result::Result<ArrivedUpload, (u64, u64)>| {
            let outcome = |slot, client, kind| ShardOutcome { slot, client, kind };
            let sound = term(7, model(vec![1.0; 2]), 4);
            let third = match third {
                Ok(upload) => outcome(3, 8, ShardOutcomeKind::Completed(upload)),
                Err((client, billed)) => outcome(
                    3,
                    client,
                    ShardOutcomeKind::Straggler {
                        elapsed_s: 2.0,
                        cost: ClientCycleCost::unbilled(billed),
                    },
                ),
            };
            ShardRoundReply {
                outcomes: vec![outcome(2, 7, ShardOutcomeKind::Completed(sound)), third],
            }
        };
        let fresh = || Mutex::new((0..4).map(|_| None).collect::<Vec<_>>());
        for sound in [
            dense(vec![1.0; 2], 4),
            dense(vec![1.0; 2], 8),
            Ok(int8(vec![1.0, -2.0])),
            Err((8, 8)),
        ] {
            let slots = fresh();
            let sink = |slot: usize, outcome| slots.lock().unwrap()[slot] = Some(outcome);
            apply_shard_reply(reply(sound), &download, 2, &picked, Sink::new(&sink)).unwrap();
            let slots: Vec<Option<ClientOutcome<ArrivedUpload>>> = slots.into_inner().unwrap();
            let billed: Vec<u64> = slots[2..]
                .iter()
                .map(|o| o.as_ref().expect("every slot arrived").bill().client_id)
                .collect();
            assert_eq!(billed, [7, 8]);
        }
        // Client 8's term, carrying client 1's bill.
        let billing_1 = ArrivedUpload {
            cost: ClientCycleCost::unbilled(1),
            ..term(8, model(vec![1.0; 2]), 4)
        };
        let cases = [
            (
                dense(vec![1.0; 3], 4),
                "shape differs from the round's download",
            ),
            (dense(vec![1.0, f32::NAN], 4), "coefficient NaN"),
            (dense(vec![f32::INFINITY, 1.0], 4), "coefficient inf"),
            (dense(vec![1.0, f32::NEG_INFINITY], 4), "coefficient -inf"),
            (dense(vec![1.0; 2], 0), "claims 0 samples"),
            (dense(vec![1.0; 2], 9), "claims 9 samples, outside 1..=8"),
            (dense(vec![1.0; 2], usize::MAX), "overflow the reply's"),
            // Checked as it decoded, but against no model: the dims are
            // the coordinator's to check.
            (
                Ok(int8(vec![1.0; 3])),
                "shape differs from the round's download",
            ),
            (
                Ok(term(9, model(vec![1.0; 2]), 4)),
                "names client 9, not its pick 8",
            ),
            (Err((9, 8)), "names client 9, not its pick 8"),
            // Either would bill client 1 twice and client 8 not at all.
            (Ok(billing_1), "bills client 1, not its pick 8"),
            (Err((8, 1)), "bills client 1, not its pick 8"),
        ];
        for (third, expected) in cases {
            let slots = fresh();
            let sink = |slot: usize, outcome| slots.lock().unwrap()[slot] = Some(outcome);
            let err = apply_shard_reply(reply(third), &download, 2, &picked, Sink::new(&sink))
                .expect_err(expected);
            let slots = slots.into_inner().unwrap();
            assert!(matches!(err, FlError::Protocol { .. }), "{err}");
            let text = err.to_string();
            assert!(
                text.contains("slot 3") && text.contains(expected),
                "{expected}: {text}"
            );
            assert!(slots.iter().all(Option::is_none), "{expected}");
        }
    }

    #[test]
    fn a_shard_server_refuses_a_coordinator_at_another_version() {
        let listener = tcp::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let shard = std::thread::spawn(move || serve_shard(TcpStream::connect(addr).unwrap()));
        let mut channel = listener.accept().unwrap();
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
