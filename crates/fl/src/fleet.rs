//! Where a federation's clients live.
//!
//! Every FL cycle is the same sequence (Figure 2 ➊–➍) and one
//! [`RoundDriver`](crate::runner::RoundDriver) runs it; what differs
//! between deployments is only *where* the screened and picked clients
//! execute. [`Fleet`] is that seam, with two implementations:
//!
//! * [`LocalFleet`](crate::runner::LocalFleet) — the clients are
//!   [`RemoteClient`](crate::transport::RemoteClient) endpoints in this
//!   process, partitioned into contiguous shards that run concurrently
//!   on the execution engine. One shard is the flat federation; a
//!   `shard-server` process hosts one too.
//! * [`ProcessFleet`](crate::distributed::ProcessFleet) — the clients
//!   live in `shard-server` child processes reached over the
//!   shard-control protocol.
//!
//! Either way a fleet hands the driver each outcome *as it lands*,
//! through a [`Sink`] keyed by global selection slot, with a completed
//! update *as it arrived* ([`ArrivedUpload`]): a local session's int8 or
//! sparse reply still in wire form, a shard server's int8 term as its
//! client sent it and its other terms dense. The driver's commit folds an
//! update among the round's first `k` completed ones as soon as it is
//! certain to be one — on arrival below slot `k`, else once every slot
//! below it has arrived — and drops the rest untouched; a fleet holds
//! nothing for the commit. The outcome is the bill too: the commit reads
//! the round ledger off the outcomes, so a fleet keeps no ledger beside
//! them.
//!
//! The module is private: the trait bounds the public driver but cannot
//! be named — or implemented — outside this crate.

use std::sync::Mutex;

use crate::config::ShardLayout;
use crate::engine::ClientOutcome;
use crate::message::{ArrivedUpload, ModelDownload};
use crate::selection::{ScreenPlan, ScreeningOutcome};
use crate::Result;

/// Where a fleet delivers each picked client's outcome: its global
/// selection slot and the outcome, a completed update in the form it
/// arrived in. Delivered once per slot, from whichever thread finished
/// the exchange, in no particular order. A newtype rather than the bare
/// closure reference, so the public trait names no crate-private type.
#[derive(Clone, Copy)]
pub struct Sink<'a>(&'a (dyn Fn(usize, ClientOutcome<ArrivedUpload>) + Sync));

impl<'a> Sink<'a> {
    pub(crate) fn new(deliver: &'a (dyn Fn(usize, ClientOutcome<ArrivedUpload>) + Sync)) -> Self {
        Sink(deliver)
    }

    /// Hands over the outcome of `slot`.
    pub(crate) fn deliver(self, slot: usize, outcome: ClientOutcome<ArrivedUpload>) {
        (self.0)(slot, outcome);
    }
}

/// What one round's execution hands back to the driver besides the
/// outcomes it delivered.
pub struct Executed {
    /// A whole cohort was lost with the machinery hosting it (a dead
    /// shard process) rather than client by client. The round then
    /// commits from the survivors even without a fault plan.
    pub cohort_lost: bool,
}

/// A sink that keeps every outcome at its slot, for a caller that wants a
/// whole run at once: the public eager calls and a shard server's reply.
pub(crate) struct Collected(Mutex<Vec<Option<ClientOutcome<ArrivedUpload>>>>);

impl Collected {
    /// Room for `slots` outcomes.
    pub(crate) fn new(slots: usize) -> Self {
        Collected(Mutex::new((0..slots).map(|_| None).collect()))
    }

    /// Keeps `outcome` at `slot`.
    pub(crate) fn put(&self, slot: usize, outcome: ClientOutcome<ArrivedUpload>) {
        self.0.lock().expect("no sink panics holding the slots")[slot] = Some(outcome);
    }

    /// The outcomes in slot order.
    pub(crate) fn into_outcomes(self) -> Vec<ClientOutcome<ArrivedUpload>> {
        let slots = self
            .0
            .into_inner()
            .expect("no sink panics holding the slots");
        let delivered = |o: Option<_>| o.expect("a fleet delivers every slot");
        slots.into_iter().map(delivered).collect()
    }
}

/// The clients of one federation, wherever they execute. The driver owns
/// the server, its RNG and the commit; a fleet only answers for its
/// clients, so no implementation can consume selection randomness or
/// reorder a commit.
pub trait Fleet {
    /// The runner's name in `Debug` output.
    const RUNNER: &'static str;

    /// How the clients are partitioned (one shard when they are not).
    fn layout(&self) -> &ShardLayout;

    /// Challenges every candidate of `plan`, returning the verdicts
    /// index-aligned with its candidates.
    fn screen(&mut self, plan: &ScreenPlan) -> Vec<ScreeningOutcome>;

    /// Runs the cycles of the clients in `picked` (sorted global indices)
    /// against `download`, handing `sink` each client's outcome — at its
    /// slot in `picked` — as it lands. Every slot is delivered exactly
    /// once before this returns `Ok`; on `Err` the driver abandons the
    /// round, whatever was delivered.
    ///
    /// # Errors
    ///
    /// Only for a malformed schedule; a failing client is an outcome.
    fn execute(
        &mut self,
        picked: &[usize],
        download: &ModelDownload,
        sink: Sink<'_>,
    ) -> Result<Executed>;

    /// Releases everything the fleet holds, returning the first failure.
    /// Idempotent: the driver calls it from `shutdown` and again on drop.
    ///
    /// # Errors
    ///
    /// Returns the first goodbye, join or exit failure encountered.
    fn teardown(&mut self) -> Result<()>;
}
