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
//! Either way a fleet hands the driver its completed updates *as they
//! arrived* ([`ArrivedUpload`]): a local session's int8 or sparse reply
//! still in wire form, a shard server's already dense. The driver's
//! commit moves the ones it folds into the partial aggregate, which
//! expands them, and drops the rest untouched.
//!
//! The module is private: the trait bounds the public driver but cannot
//! be named — or implemented — outside this crate.

use gradsec_tee::cost::RoundLedger;

use crate::config::ShardLayout;
use crate::engine::ClientOutcome;
use crate::message::{ArrivedUpload, ModelDownload};
use crate::selection::{ScreenPlan, ScreeningOutcome};
use crate::Result;

/// What one round's execution hands back to the driver.
pub struct Executed {
    /// One outcome per picked client, in selection order, every completed
    /// update still in the form it arrived in.
    pub(crate) outcomes: Vec<ClientOutcome<ArrivedUpload>>,
    /// One entry per picked client — zero-cost entries for failures.
    pub ledger: RoundLedger,
    /// A whole cohort was lost with the machinery hosting it (a dead
    /// shard process) rather than client by client. The round then
    /// commits from the survivors even without a fault plan.
    pub cohort_lost: bool,
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
    /// against `download`.
    ///
    /// # Errors
    ///
    /// Only for a malformed schedule; a failing client is an outcome.
    fn execute(&mut self, picked: &[usize], download: &ModelDownload) -> Result<Executed>;

    /// Releases everything the fleet holds, returning the first failure.
    /// Idempotent: the driver calls it from `shutdown` and again on drop.
    ///
    /// # Errors
    ///
    /// Returns the first goodbye, join or exit failure encountered.
    fn teardown(&mut self) -> Result<()>;
}
