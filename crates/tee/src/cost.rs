//! Deterministic cost model for simulated training time.
//!
//! The paper's Table 6 decomposes one FL training cycle into three parts:
//!
//! 1. **user time** — computation in the normal world,
//! 2. **kernel time** — computation inside the enclave plus the secure
//!    monitor crossings,
//! 3. **allocation time** — provisioning TEE memory for protected weights
//!    before training starts (dominant for the 76.8 K-parameter L5).
//!
//! Because this reproduction runs on arbitrary hardware rather than the
//! paper's Raspberry Pi 3B+, wall-clock timings would be meaningless to
//! compare. Instead the trainer charges a deterministic [`SimClock`]
//! through this [`CostModel`], whose constants are calibrated once against
//! the paper's baseline row (2.191 s user + 0.021 s kernel for LeNet-5,
//! batch 32) and the per-layer allocation column. The `benchmark`
//! package's `core.*` probes time a real protected cycle against this
//! clock.
//!
//! Calibration (documented so it can be re-derived):
//!
//! * One simulated cycle = 10 batches of 32 images. LeNet-5 forward+backward
//!   ≈ 2,995,200 MAC ops per image → 958.46 M ops per cycle; matching
//!   2.191 s gives **2.286 ns/op** in the normal world.
//! * Secure-world compute carries a 1.2× multiplier (enclave page-table and
//!   cache effects measured by DarkneTZ-class systems).
//! * One monitor crossing costs **3.2 ms** (full context/cache/TLB switch
//!   on the Pi-class core; fitted from Table 6's L3 row).
//! * Allocation: **60 µs per parameter + 0.1 s fixed per protected layer**;
//!   a two-point fit through Table 6's L2 (3,612 params → 0.34 s) and L5
//!   (76,900 params → 4.68 s) rows.

/// Cost constants for the simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Nanoseconds per MAC op in the normal world.
    pub(crate) ns_per_op_normal: f64,
    /// Nanoseconds per MAC op inside the enclave.
    pub(crate) ns_per_op_secure: f64,
    /// Nanoseconds per secure-monitor crossing (one direction).
    pub(crate) ns_per_crossing: f64,
    /// Allocation nanoseconds per protected parameter.
    pub(crate) alloc_ns_per_param: f64,
    /// Fixed allocation nanoseconds per protected layer.
    pub(crate) alloc_ns_fixed: f64,
}

impl CostModel {
    /// The Raspberry Pi 3B+ calibration used throughout the reproduction
    /// (see module docs for the derivation).
    pub fn raspberry_pi3() -> Self {
        CostModel {
            ns_per_op_normal: 2.286,
            ns_per_op_secure: 2.286 * 1.2,
            ns_per_crossing: 3.2e6,
            alloc_ns_per_param: 60_000.0,
            alloc_ns_fixed: 0.1e9,
        }
    }

    /// A zero-cost model (unit tests that only check accounting structure).
    pub fn free() -> Self {
        CostModel {
            ns_per_op_normal: 0.0,
            ns_per_op_secure: 0.0,
            ns_per_crossing: 0.0,
            alloc_ns_per_param: 0.0,
            alloc_ns_fixed: 0.0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::raspberry_pi3()
    }
}

/// The user/kernel/allocation decomposition of one training cycle, in
/// seconds (Table 6's three-way split).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Normal-world compute seconds.
    pub user_s: f64,
    /// Enclave compute + crossing seconds.
    pub kernel_s: f64,
    /// TEE memory provisioning seconds.
    pub alloc_s: f64,
}

impl TimeBreakdown {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.kernel_s + self.alloc_s
    }

    /// Percentage overhead relative to a baseline cycle — the paper's
    /// "(X% overhead)" annotation: `total/total_baseline − 1`, in percent.
    pub fn overhead_vs(&self, baseline: &TimeBreakdown) -> f64 {
        let b = baseline.total_s();
        if b == 0.0 {
            return 0.0;
        }
        (self.total_s() / b - 1.0) * 100.0
    }

    /// Weighted combination of several breakdowns — used for dynamic
    /// GradSec's `V_MW`-weighted average rows of Table 6.
    ///
    /// Weights need not be normalised; a zero total weight yields zeros.
    pub fn weighted_average(items: &[(TimeBreakdown, f64)]) -> TimeBreakdown {
        let total_w: f64 = items.iter().map(|(_, w)| w).sum();
        if total_w == 0.0 {
            return TimeBreakdown::default();
        }
        let mut out = TimeBreakdown::default();
        for (t, w) in items {
            out.user_s += t.user_s * w / total_w;
            out.kernel_s += t.kernel_s * w / total_w;
            out.alloc_s += t.alloc_s * w / total_w;
        }
        out
    }
}

/// The wire-bytes bill of one client's cycle: what the model payloads
/// actually cost on the wire under the session's update codec, next to
/// what they would have cost dense. Encoded bytes are the billable
/// column; the raw column exists so compression ratios can be reported
/// without re-encoding anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireBill {
    /// Encoded bytes of the model-download payload (server → client).
    pub download_encoded_bytes: u64,
    /// Dense-equivalent bytes of the same download payload.
    pub download_raw_bytes: u64,
    /// Encoded bytes of the update-upload payload (client → server).
    pub upload_encoded_bytes: u64,
    /// Dense-equivalent bytes of the same upload payload.
    pub upload_raw_bytes: u64,
}

impl WireBill {
    /// Total encoded bytes billed, both directions.
    pub fn encoded_bytes(&self) -> u64 {
        self.download_encoded_bytes + self.upload_encoded_bytes
    }

    /// Total dense-equivalent bytes, both directions.
    pub fn raw_bytes(&self) -> u64 {
        self.download_raw_bytes + self.upload_raw_bytes
    }

    /// `raw / encoded` — how many times smaller the codec made the
    /// round trip (1.0 for an empty bill).
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes() == 0 {
            return 1.0;
        }
        self.raw_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Folds another bill into this one.
    pub(crate) fn add(&mut self, other: &WireBill) {
        self.download_encoded_bytes += other.download_encoded_bytes;
        self.download_raw_bytes += other.download_raw_bytes;
        self.upload_encoded_bytes += other.upload_encoded_bytes;
        self.upload_raw_bytes += other.upload_raw_bytes;
    }
}

/// One client's accounted cost for a single FL cycle, as recorded into a
/// [`RoundLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClientCycleCost {
    /// The client the entry belongs to.
    pub client_id: u64,
    /// Simulated user/kernel/allocation seconds of the cycle.
    pub time: TimeBreakdown,
    /// Secure-monitor crossings taken during the cycle.
    pub crossings: u64,
    /// Peak TEE memory of the cycle in bytes.
    pub tee_peak_bytes: usize,
    /// The cycle's wire-bytes bill (zero when the exchange never ran or
    /// predates the codec layer).
    pub wire: WireBill,
}

impl ClientCycleCost {
    /// A zero-cost entry for `client_id` — what a failed or unreachable
    /// client is billed so the round ledger still accounts it without
    /// charging compute that never reached the server.
    pub fn unbilled(client_id: u64) -> Self {
        ClientCycleCost {
            client_id,
            ..ClientCycleCost::default()
        }
    }
}

/// Per-round TEE accounting: one entry per participating client, kept
/// sorted by client id so the ledger is deterministic regardless of the
/// order clients finished in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundLedger {
    entries: Vec<ClientCycleCost>,
}

impl RoundLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        RoundLedger::default()
    }

    /// Records one client's cycle cost, keeping entries ordered by client
    /// id. Re-recording a client id replaces its entry (a client trains at
    /// most once per round).
    pub fn record(&mut self, entry: ClientCycleCost) {
        match self
            .entries
            .binary_search_by_key(&entry.client_id, |e| e.client_id)
        {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Per-client entries, ordered by client id.
    pub fn entries(&self) -> &[ClientCycleCost] {
        &self.entries
    }

    /// The entry for one client, if it was billed this round.
    pub fn client(&self, client_id: u64) -> Option<&ClientCycleCost> {
        self.entries
            .binary_search_by_key(&client_id, |e| e.client_id)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Number of recorded clients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all clients' time breakdowns — the round's simulated
    /// device-time bill.
    pub fn total_time(&self) -> TimeBreakdown {
        let mut out = TimeBreakdown::default();
        for e in &self.entries {
            out.user_s += e.time.user_s;
            out.kernel_s += e.time.kernel_s;
            out.alloc_s += e.time.alloc_s;
        }
        out
    }

    /// The round's wall-clock lower bound under perfect client
    /// parallelism: the slowest participating client.
    pub fn critical_path_s(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.time.total_s())
            .fold(0.0, f64::max)
    }

    /// Total crossings across all clients.
    pub fn total_crossings(&self) -> u64 {
        self.entries.iter().map(|e| e.crossings).sum()
    }

    /// The largest single-client TEE footprint of the round.
    pub fn max_tee_peak_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.tee_peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Sum of all clients' wire bills — the round's byte totals in both
    /// the encoded (billable) and dense-equivalent columns.
    pub fn total_wire(&self) -> WireBill {
        let mut out = WireBill::default();
        for e in &self.entries {
            out.add(&e.wire);
        }
        out
    }

    /// Renders the ledger as a JSON object, so per-round accounting can
    /// be exported by repro binaries.
    pub fn to_json(&self) -> String {
        let num = json_number;
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    r#"{{"client_id":{},"user_s":{},"kernel_s":{},"alloc_s":{},"crossings":{},"tee_peak_bytes":{},"wire_encoded_bytes":{},"wire_raw_bytes":{}}}"#,
                    e.client_id,
                    num(e.time.user_s),
                    num(e.time.kernel_s),
                    num(e.time.alloc_s),
                    e.crossings,
                    e.tee_peak_bytes,
                    e.wire.encoded_bytes(),
                    e.wire.raw_bytes(),
                )
            })
            .collect();
        let total = self.total_time();
        let wire = self.total_wire();
        format!(
            r#"{{"entries":[{}],"total_user_s":{},"total_kernel_s":{},"total_alloc_s":{},"total_crossings":{},"critical_path_s":{},"total_wire_encoded_bytes":{},"total_wire_raw_bytes":{},"compression_ratio":{}}}"#,
            entries.join(","),
            num(total.user_s),
            num(total.kernel_s),
            num(total.alloc_s),
            self.total_crossings(),
            num(self.critical_path_s()),
            wire.encoded_bytes(),
            wire.raw_bytes(),
            num(wire.compression_ratio()),
        )
    }
}

/// Records each entry in turn, as [`RoundLedger::record`] does.
impl FromIterator<ClientCycleCost> for RoundLedger {
    fn from_iter<I: IntoIterator<Item = ClientCycleCost>>(entries: I) -> Self {
        let mut ledger = RoundLedger::new();
        entries.into_iter().for_each(|e| ledger.record(e));
        ledger
    }
}

/// Renders an `f64` as a JSON number (`null` for non-finite values) —
/// the one rule every hand-rolled JSON export in the workspace shares,
/// so formats cannot drift apart.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Accumulates simulated time for one training cycle.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    user_ns: f64,
    kernel_ns: f64,
    alloc_ns: f64,
    crossings: u64,
}

impl SimClock {
    /// A fresh, zeroed clock.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Charges `ops` MAC operations executed in the normal world.
    pub fn charge_normal_ops(&mut self, ops: f64, model: &CostModel) {
        self.user_ns += ops * model.ns_per_op_normal;
    }

    /// Charges `ops` MAC operations executed inside the enclave.
    pub fn charge_secure_ops(&mut self, ops: f64, model: &CostModel) {
        self.kernel_ns += ops * model.ns_per_op_secure;
    }

    /// Charges `n` secure-monitor crossings (kernel time).
    pub fn charge_crossings(&mut self, n: u64, model: &CostModel) {
        self.crossings += n;
        self.kernel_ns += n as f64 * model.ns_per_crossing;
    }

    /// Charges the provisioning of one protected layer of `params`
    /// parameters.
    pub fn charge_layer_alloc(&mut self, params: usize, model: &CostModel) {
        self.alloc_ns += params as f64 * model.alloc_ns_per_param + model.alloc_ns_fixed;
    }

    /// Crossings charged so far.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Snapshot of the accumulated times.
    pub fn breakdown(&self) -> TimeBreakdown {
        TimeBreakdown {
            user_s: self.user_ns / 1e9,
            kernel_s: self.kernel_ns / 1e9,
            alloc_s: self.alloc_ns / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// LeNet-5 fwd+bwd MAC ops/image under the calibration convention.
    const LENET_OPS_PER_IMAGE: f64 = 2_995_200.0;
    const CYCLE_IMAGES: f64 = 320.0; // 10 batches of 32

    #[test]
    fn baseline_calibration_matches_table6() {
        // All layers in the normal world: user ≈ 2.191 s.
        let m = CostModel::raspberry_pi3();
        let mut clock = SimClock::new();
        clock.charge_normal_ops(LENET_OPS_PER_IMAGE * CYCLE_IMAGES, &m);
        let t = clock.breakdown();
        assert!(
            (t.user_s - 2.191).abs() < 0.01,
            "baseline user time {} != 2.191",
            t.user_s
        );
        assert_eq!(t.kernel_s, 0.0);
    }

    #[test]
    fn l5_allocation_dominates_like_table6() {
        // L5 has 76,900 params -> alloc ≈ 4.71 s (paper: 4.68 s).
        let m = CostModel::raspberry_pi3();
        let mut clock = SimClock::new();
        clock.charge_layer_alloc(76_900, &m);
        let t = clock.breakdown();
        assert!((t.alloc_s - 4.68).abs() < 0.1, "alloc {}", t.alloc_s);
        // L2 has 3,612 params -> alloc ≈ 0.32 s (paper: 0.34 s).
        let mut clock = SimClock::new();
        clock.charge_layer_alloc(3_612, &m);
        let t = clock.breakdown();
        assert!((t.alloc_s - 0.34).abs() < 0.05, "alloc {}", t.alloc_s);
    }

    #[test]
    fn overhead_formula_matches_paper_annotation() {
        // Table 6's L5 row: 2.044 + 0.187 + 4.68 vs baseline 2.212 => 212%.
        let baseline = TimeBreakdown {
            user_s: 2.191,
            kernel_s: 0.021,
            alloc_s: 0.0,
        };
        let l5 = TimeBreakdown {
            user_s: 2.044,
            kernel_s: 0.187,
            alloc_s: 4.68,
        };
        let ovh = l5.overhead_vs(&baseline);
        assert!((ovh - 212.0).abs() < 2.0, "overhead {ovh}");
    }

    #[test]
    fn crossings_accumulate_kernel_time() {
        let m = CostModel::raspberry_pi3();
        let mut clock = SimClock::new();
        clock.charge_crossings(20, &m);
        assert_eq!(clock.crossings(), 20);
        let t = clock.breakdown();
        assert!((t.kernel_s - 0.064).abs() < 1e-9);
    }

    #[test]
    fn weighted_average_is_convex() {
        let a = TimeBreakdown {
            user_s: 1.0,
            kernel_s: 0.0,
            alloc_s: 0.0,
        };
        let b = TimeBreakdown {
            user_s: 3.0,
            kernel_s: 2.0,
            alloc_s: 4.0,
        };
        let avg = TimeBreakdown::weighted_average(&[(a, 1.0), (b, 3.0)]);
        assert!((avg.user_s - 2.5).abs() < 1e-9);
        assert!((avg.kernel_s - 1.5).abs() < 1e-9);
        assert!((avg.alloc_s - 3.0).abs() < 1e-9);
        // Degenerate weights.
        let zero = TimeBreakdown::weighted_average(&[(a, 0.0)]);
        assert_eq!(zero, TimeBreakdown::default());
        assert_eq!(
            TimeBreakdown::weighted_average(&[]),
            TimeBreakdown::default()
        );
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        let mut clock = SimClock::new();
        clock.charge_normal_ops(1e9, &m);
        clock.charge_secure_ops(1e9, &m);
        clock.charge_crossings(100, &m);
        clock.charge_layer_alloc(100_000, &m);
        assert_eq!(clock.breakdown().total_s(), 0.0);
    }

    #[test]
    fn ledger_orders_and_aggregates_clients() {
        let mut ledger = RoundLedger::new();
        let t = |u: f64| TimeBreakdown {
            user_s: u,
            kernel_s: u / 10.0,
            alloc_s: 0.0,
        };
        // Record out of order — entries come back sorted by client id.
        for (id, u, x, peak) in [
            (7u64, 3.0, 4u64, 100usize),
            (2, 1.0, 2, 300),
            (5, 2.0, 6, 200),
        ] {
            ledger.record(ClientCycleCost {
                client_id: id,
                time: t(u),
                crossings: x,
                tee_peak_bytes: peak,
                wire: WireBill::default(),
            });
        }
        let ids: Vec<u64> = ledger.entries().iter().map(|e| e.client_id).collect();
        assert_eq!(ids, vec![2, 5, 7]);
        assert!((ledger.total_time().user_s - 6.0).abs() < 1e-9);
        assert_eq!(ledger.total_crossings(), 12);
        assert_eq!(ledger.max_tee_peak_bytes(), 300);
        assert!((ledger.critical_path_s() - 3.3).abs() < 1e-9);
        // Re-recording replaces, never duplicates.
        ledger.record(ClientCycleCost {
            client_id: 5,
            time: t(9.0),
            crossings: 1,
            tee_peak_bytes: 1,
            wire: WireBill::default(),
        });
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.total_crossings(), 7);
    }

    #[test]
    fn unbilled_entries_cost_nothing_but_are_accounted() {
        let mut ledger = RoundLedger::new();
        ledger.record(ClientCycleCost::unbilled(9));
        ledger.record(ClientCycleCost {
            client_id: 4,
            time: TimeBreakdown {
                user_s: 1.0,
                kernel_s: 0.5,
                alloc_s: 0.0,
            },
            crossings: 3,
            tee_peak_bytes: 64,
            wire: WireBill::default(),
        });
        assert_eq!(ledger.len(), 2);
        let failed = ledger.client(9).expect("accounted");
        assert_eq!(failed.crossings, 0);
        assert_eq!(failed.time.total_s(), 0.0);
        assert_eq!(failed.tee_peak_bytes, 0);
        assert!(ledger.client(4).expect("billed").time.total_s() > 0.0);
        assert!(ledger.client(7).is_none());
        assert_eq!(ledger.total_crossings(), 3);
    }

    #[test]
    fn wire_bill_totals_and_ratio() {
        let mut ledger = RoundLedger::new();
        for (id, enc, raw) in [(1u64, 100u64, 400u64), (2, 300, 800)] {
            ledger.record(ClientCycleCost {
                client_id: id,
                wire: WireBill {
                    download_encoded_bytes: enc,
                    download_raw_bytes: raw,
                    upload_encoded_bytes: enc,
                    upload_raw_bytes: raw,
                },
                ..ClientCycleCost::default()
            });
        }
        let wire = ledger.total_wire();
        assert_eq!(wire.encoded_bytes(), 800);
        assert_eq!(wire.raw_bytes(), 2400);
        assert!((wire.compression_ratio() - 3.0).abs() < 1e-9);
        assert_eq!(WireBill::default().compression_ratio(), 1.0);
        let json = ledger.to_json();
        assert!(json.contains(r#""total_wire_encoded_bytes":800"#), "{json}");
        assert!(json.contains(r#""wire_raw_bytes":800"#), "{json}");
    }
}
