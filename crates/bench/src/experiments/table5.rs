//! Table 5 — DPIA AUC under static and dynamic GradSec.
//!
//! Methodology (paper §8.1–8.2):
//!
//! 1. Run a real FL training of LeNet-5 on the synthetic LFW dataset,
//!    observing the global model the server broadcasts at every cycle.
//! 2. Build the attacker's `D_grad`: for each cycle, gradients of
//!    auxiliary batches *with* and *without* the property, computed
//!    against that cycle's snapshot (the attacker's `b_adv_prop` /
//!    `b_adv_nonprop` simulation).
//! 3. Static rows: delete a fixed layer set's columns from every row.
//! 4. Dynamic rows: per cycle, delete the columns of the layers covered
//!    by the moving window that cycle; search `V_MW` on the validation
//!    cycles ("we retain the V_MW distribution of the worst instance")
//!    and report the test-cycle AUC.

use gradsec_attacks::dpia::{run_dpia, DpiaConfig, DpiaObservation};
use gradsec_core::search::{search_v_mw, VmwSearchOutcome};
use gradsec_core::window::MovingWindow;
use gradsec_data::{batch_of, Dataset, SyntheticLfw};
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::runner::Federation;
use gradsec_nn::gradient::GradientSnapshot;
use gradsec_nn::{zoo, Sequential};
use std::sync::Arc;

use crate::table::TextTable;
use crate::Profile;

/// One attacker row before protection is applied.
#[derive(Debug, Clone)]
pub struct RawRow {
    /// FL cycle the gradients belong to.
    pub cycle: u64,
    /// The gradient snapshot.
    pub snapshot: GradientSnapshot,
    /// Whether the probed batch contained the property.
    pub has_property: bool,
}

/// One dynamic-mode result row.
#[derive(Debug, Clone)]
pub struct DynamicRow {
    /// Window size.
    pub size: usize,
    /// The `V_MW` the search selected.
    pub v_mw: Vec<f64>,
    /// Validation AUC of the selected instance.
    pub val_auc: f32,
    /// Test AUC (the table's reported number).
    pub test_auc: f32,
    /// Candidates evaluated by the search.
    pub candidates: usize,
}

/// The full table.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Static rows: `(label, test AUC)`.
    pub static_rows: Vec<(String, f32)>,
    /// Dynamic rows per window size.
    pub dynamic_rows: Vec<DynamicRow>,
}

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Table5Config {
    /// FL cycles to run/observe.
    pub rounds: u64,
    /// Identities in the synthetic LFW task.
    pub identities: usize,
    /// Dataset size.
    pub dataset_len: usize,
    /// Attacker probes per cycle and per class (prop/non-prop).
    pub probes_per_cycle: usize,
    /// Probe batch size.
    pub probe_batch: usize,
    /// `V_MW` grid resolution (steps of `1/steps`).
    pub grid_steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl Table5Config {
    /// Profile-scaled configuration.
    pub fn for_profile(profile: Profile, seed: u64) -> Self {
        if profile.is_full() {
            Table5Config {
                rounds: 60,
                identities: 10,
                dataset_len: 1200,
                probes_per_cycle: 4,
                probe_batch: 16,
                grid_steps: 10,
                seed,
            }
        } else {
            Table5Config {
                rounds: 30,
                identities: 8,
                dataset_len: 600,
                probes_per_cycle: 3,
                probe_batch: 16,
                grid_steps: 4,
                seed,
            }
        }
    }
}

/// Runs the FL training and builds the attacker's raw rows.
pub fn build_rows(cfg: &Table5Config) -> (Vec<RawRow>, usize) {
    let data = Arc::new(SyntheticLfw::new(
        cfg.dataset_len,
        cfg.identities,
        0.5,
        cfg.seed,
    ));
    let identities = cfg.identities;
    let seed = cfg.seed;
    let plan = TrainingPlan {
        rounds: cfg.rounds,
        clients_per_round: 3,
        batches_per_cycle: 4,
        batch_size: 16,
        learning_rate: 0.05,
        seed,
    };
    let mut fed = Federation::builder(plan)
        .model(move || zoo::lenet5_with(identities, seed + 1).expect("LeNet-5 builds"))
        .clients(3, data.clone())
        .build()
        .expect("federation builds");
    // Partition probe indices by property.
    let mut prop_idx = Vec::new();
    let mut nonprop_idx = Vec::new();
    for i in 0..data.len() {
        match data.sample(i).property {
            Some(true) => prop_idx.push(i),
            _ => nonprop_idx.push(i),
        }
    }
    // The attacker observes each cycle's global as it is broadcast —
    // the server keeps none of them — and probes it with
    // property/non-property batches before the cycle's round runs.
    let mut probe: Sequential = zoo::lenet5_with(identities, seed + 1).expect("LeNet-5 builds");
    let mut rows = Vec::new();
    let half = cfg.probe_batch / 2;
    for cycle in 0..cfg.rounds {
        probe
            .set_weights(fed.server().global())
            .expect("weights fit");
        for rep in 0..cfg.probes_per_cycle {
            let offset = (cycle as usize * cfg.probes_per_cycle + rep) * cfg.probe_batch;
            // Property batch: the attacker's b_adv_prop — images carrying
            // the property.
            let with: Vec<usize> = (0..cfg.probe_batch)
                .map(|k| prop_idx[(offset + k) % prop_idx.len()])
                .collect();
            // Non-property batch (b_adv_nonprop).
            let without: Vec<usize> = (0..cfg.probe_batch)
                .map(|k| nonprop_idx[(offset + half + k) % nonprop_idx.len()])
                .collect();
            for (indices, has_property) in [(with, true), (without, false)] {
                let (x, y) = batch_of(data.as_ref(), &indices);
                let (_, g) = probe.forward_backward(&x, &y).expect("probe gradient");
                probe.zero_grads();
                rows.push(RawRow {
                    cycle,
                    snapshot: g,
                    has_property,
                });
            }
        }
        fed.run_round().expect("federation runs");
    }
    (rows, probe.num_layers())
}

/// Splits raw rows by cycle into train/validation/test observation sets
/// under a per-cycle protection function.
pub fn observations<F>(
    rows: &[RawRow],
    rounds: u64,
    protect: F,
) -> (
    Vec<DpiaObservation>,
    Vec<DpiaObservation>,
    Vec<DpiaObservation>,
)
where
    F: Fn(u64) -> Vec<usize>,
{
    let _ = rounds;
    let mut train = Vec::new();
    let mut val = Vec::new();
    let mut test = Vec::new();
    for r in rows {
        let obs = DpiaObservation {
            snapshot: r.snapshot.clone(),
            has_property: r.has_property,
            protected: protect(r.cycle),
        };
        // Interleaved by cycle: 3 train, 1 validation, 1 test. The test
        // cycles are unseen by both the attack model and the V_MW search,
        // and the interleaving spans the whole model evolution (DPIA is a
        // long-term attack).
        match r.cycle % 5 {
            0..=2 => train.push(obs),
            3 => val.push(obs),
            _ => test.push(obs),
        }
    }
    (train, val, test)
}

/// Runs the whole table.
pub fn run(profile: Profile, seed: u64) -> Table5 {
    let cfg = Table5Config::for_profile(profile, seed);
    let (rows, n_layers) = build_rows(&cfg);
    let dpia_cfg = DpiaConfig {
        raw_per_layer: 48,
        seed,
        ..DpiaConfig::default()
    };
    // Static rows (paper: None, L4, L3+L4, L3+L4+L5, L2+L3+L4+L5).
    let static_cfgs: [(&str, Vec<usize>); 5] = [
        ("None", vec![]),
        ("L4", vec![3]),
        ("L3+L4", vec![2, 3]),
        ("L3+L4+L5", vec![2, 3, 4]),
        ("L2+L3+L4+L5", vec![1, 2, 3, 4]),
    ];
    let mut static_rows = Vec::new();
    for (label, protected) in static_cfgs {
        let p = protected.clone();
        let (train, _, test) = observations(&rows, cfg.rounds, move |_| p.clone());
        let out = run_dpia(&train, &test, &dpia_cfg).expect("static dpia runs");
        static_rows.push((label.to_owned(), out.auc));
    }
    // Dynamic rows: V_MW search per window size.
    let mut dynamic_rows = Vec::new();
    for size in [2usize, 3, 4] {
        let outcome: VmwSearchOutcome =
            search_v_mw(size, n_layers, cfg.grid_steps, seed, |window| {
                let w = window.clone();
                let (train, val, _) =
                    observations(&rows, cfg.rounds, move |cycle| w.layers_for_round(cycle));
                run_dpia(&train, &val, &dpia_cfg)
                    .map(|o| o.auc)
                    .map_err(|e| gradsec_core::GradSecError::BadConfig {
                        reason: e.to_string(),
                    })
            })
            .expect("v_mw search runs");
        let best =
            MovingWindow::new(size, n_layers, outcome.v_mw.clone(), seed).expect("valid window");
        let w = best.clone();
        let (train, _, test) =
            observations(&rows, cfg.rounds, move |cycle| w.layers_for_round(cycle));
        let test_out = run_dpia(&train, &test, &dpia_cfg).expect("dynamic dpia runs");
        dynamic_rows.push(DynamicRow {
            size,
            v_mw: outcome.v_mw,
            val_auc: outcome.attack_score,
            test_auc: test_out.auc,
            candidates: outcome.evaluated,
        });
    }
    Table5 {
        static_rows,
        dynamic_rows,
    }
}

/// Renders the table in the paper's two-block layout.
pub fn render(t: &Table5) -> String {
    let mut out = String::new();
    out.push_str("Static GradSec\n");
    let mut st = TextTable::new(vec!["protected", "AUC"]);
    for (label, auc) in &t.static_rows {
        st.row(vec![label.clone(), format!("{auc:.3}")]);
    }
    out.push_str(&st.render());
    out.push_str("\nDynamic GradSec\n");
    let mut dt = TextTable::new(vec![
        "window",
        "best V_MW",
        "val AUC",
        "test AUC",
        "candidates",
    ]);
    for r in &t.dynamic_rows {
        let v: Vec<String> = r.v_mw.iter().map(|p| format!("{p:.2}")).collect();
        dt.row(vec![
            format!("MW={}", r.size),
            format!("[{}]", v.join(", ")),
            format!("{:.3}", r.val_auc),
            format!("{:.3}", r.test_auc),
            r.candidates.to_string(),
        ]);
    }
    out.push_str(&dt.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Table5Config {
        Table5Config {
            rounds: 10,
            identities: 4,
            dataset_len: 160,
            probes_per_cycle: 2,
            probe_batch: 8,
            grid_steps: 2,
            seed: 5,
        }
    }

    #[test]
    fn rows_cover_every_cycle_and_both_classes() {
        let cfg = tiny_cfg();
        let (rows, n_layers) = build_rows(&cfg);
        assert_eq!(n_layers, 5);
        assert_eq!(rows.len(), (cfg.rounds as usize) * cfg.probes_per_cycle * 2);
        for cycle in 0..cfg.rounds {
            let in_cycle: Vec<_> = rows.iter().filter(|r| r.cycle == cycle).collect();
            assert!(in_cycle.iter().any(|r| r.has_property));
            assert!(in_cycle.iter().any(|r| !r.has_property));
        }
    }

    /// FNV-1a over every raw row's gradient bits and property label, in
    /// row order.
    fn rows_digest(rows: &[RawRow]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in rows {
            for x in r.snapshot.to_flat() {
                eat(&x.to_bits().to_le_bytes());
            }
            eat(&[u8::from(r.has_property)]);
        }
        h
    }

    /// The attacker's rows are a pure function of the configuration: the
    /// snapshot each cycle probes is the global the server holds before
    /// that cycle's round, and this digest pins every bit of them.
    #[test]
    fn rows_are_pinned_bit_for_bit() {
        let (rows, _) = build_rows(&tiny_cfg());
        assert_eq!(rows_digest(&rows), 0x6810_7e2e_a0bf_936b);
    }

    #[test]
    fn observation_split_is_by_cycle() {
        let cfg = tiny_cfg();
        let (rows, _) = build_rows(&cfg);
        let (train, val, test) = observations(&rows, cfg.rounds, |_| vec![]);
        assert!(!train.is_empty() && !val.is_empty() && !test.is_empty());
        assert_eq!(train.len() + val.len() + test.len(), rows.len());
        // 10 rounds: cycles 0-5 train, 6-7 val, 8-9 test.
        assert_eq!(train.len(), 6 * 4);
        assert_eq!(val.len(), 2 * 4);
        assert_eq!(test.len(), 2 * 4);
    }

    #[test]
    fn unprotected_dpia_beats_chance_on_tiny_setup() {
        let cfg = tiny_cfg();
        let (rows, _) = build_rows(&cfg);
        let (train, _, test) = observations(&rows, cfg.rounds, |_| vec![]);
        let out = run_dpia(&train, &test, &DpiaConfig::default()).unwrap();
        assert!(out.auc > 0.6, "unprotected dpia auc {}", out.auc);
    }
}
