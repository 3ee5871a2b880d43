//! The differ: two suite results, the bounds of `BENCHMARK.json`, one
//! row per (metric, workload).

use std::path::Path;

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::Summary;
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs are spread wider than the bound and the two sides
    /// overlap: the pair cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The bound applied to the timed metrics `BENCHMARK.json` does not list:
/// the distance between the sizing host's two speed states leaves a single
/// pair of results nothing narrower (README, "Noise").
const TIMED_BOUND: f64 = 0.25;

/// A set-up time that moved by less than this is unchanged, whatever the
/// ratio says: the distributed workload sets up in some 20 ms, where one
/// scheduler tick is a tenth of the value.
const SETUP_FLOOR_S: f64 = 0.020;

/// Judges the change's runs `b` against the parent's runs `a`.
///
/// * medians closer than `floor` (an absolute distance): unchanged;
/// * every run of the change better than every run of the parent:
///   improved, whatever the spread;
/// * an exact metric (a count the program made) that got worse at all:
///   regressed — there is no noise to hide in;
/// * either side spread wider than the bound while the sides overlap:
///   unresolved, never "unchanged";
/// * median worse by more than the bound: regressed.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, exact: bool, floor: f64) -> Verdict {
    // Fold both directions into "lower is better".
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let flip = |v: &[f64]| Summary::of(&v.iter().map(|x| sign * x).collect::<Vec<_>>());
    let (a, b) = (flip(a), flip(b));
    if (b.median - a.median).abs() < floor {
        return Verdict::Unchanged;
    }
    if b.max < a.min {
        return Verdict::Improved;
    }
    let scale = a.median.abs();
    if exact {
        return if b.median > a.median {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    }
    let spread = |s: Summary| (s.max - s.min) / scale;
    let overlap = b.min <= a.max && a.min <= b.max;
    if overlap && (spread(a) > bound || spread(b) > bound) {
        return Verdict::Unresolved;
    }
    if (b.median - a.median) / scale > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Every pass of every set of one (workload, metric), pooled.
fn pooled(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let w = result
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let sets = w.get("end_to_end")?.get(metric)?.get("sets")?.as_arr()?;
    Some(
        sets.iter()
            .filter_map(|s| s.get("passes")?.as_arr())
            .flatten()
            .filter_map(Json::as_f64)
            .collect(),
    )
}

/// One of the workload's `exact` figures (`metrics::EXACT_FIGURES`).
fn exact_figure(result: &Json, workload: &str, name: &str) -> Option<f64> {
    result
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("exact")?
        .get(name)?
        .as_f64()
}

/// `b` against `a` in percent; a figure that was 0 has no ratio.
fn change(a: f64, b: f64) -> String {
    if a == b {
        "+0.00%".to_owned()
    } else if a == 0.0 {
        "n/a".to_owned()
    } else {
        format!("{:+.2}%", (b / a - 1.0) * 100.0)
    }
}

fn load(path: &Path) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

/// Prints one row per (metric, workload) and returns `false` — exit code
/// 1 — on any regression.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Res<bool> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let contract = load(Path::new("BENCHMARK.json"))?;
    let bound_of = |metric: &str| -> Option<f64> {
        contract
            .get("end_to_end")?
            .as_arr()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
            .get("bound")?
            .as_f64()
    };
    let same_seed = a.get("seed") == b.get("seed");
    if !same_seed {
        println!(
            "note: the two results used different seeds; exact metrics are compared \
             with their bound, exact figures not at all"
        );
    }
    println!(
        "{:<22} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut clean = true;
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("A has no workloads")?
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    for workload in workloads {
        for spec in metrics::untraced() {
            let bound = bound_of(spec.name).unwrap_or(TIMED_BOUND);
            let (Some(av), Some(bv)) = (
                pooled(&a, workload, spec.name),
                pooled(&b, workload, spec.name),
            ) else {
                return Err(format!("{workload}/{} missing from one side", spec.name).into());
            };
            let exact = same_seed && metrics::EXACT.contains(&spec.name);
            let floor = if spec.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let verdict = judge(&av, &bv, spec.better, bound, exact, floor);
            let (am, bm) = (Summary::of(&av).median, Summary::of(&bv).median);
            println!(
                "{workload:<22} {:<24} {am:>14.6} {bm:>14.6} {:>8} {:>6.1}%  {}",
                spec.name,
                change(am, bm),
                bound * 100.0,
                verdict.name()
            );
            clean &= verdict != Verdict::Regressed;
        }
        // The counts `BENCHMARK.json` cannot bound because they read 0
        // somewhere — the paper's training-time and TCB figures among
        // them. At one seed they repeat exactly, so any rise is a change.
        for spec in &metrics::EXACT_FIGURES {
            let (Some(av), Some(bv)) = (
                exact_figure(&a, workload, spec.name),
                exact_figure(&b, workload, spec.name),
            ) else {
                return Err(format!("{workload}/{} missing from one side", spec.name).into());
            };
            let verdict = if same_seed {
                judge(&[av], &[bv], spec.better, 0.0, true, 0.0).name()
            } else {
                "not compared"
            };
            println!(
                "{workload:<22} {:<24} {av:>14.6} {bv:>14.6} {:>8} {:>6.1}%  {verdict}",
                spec.name,
                change(av, bv),
                0.0
            );
            clean &= verdict != Verdict::Regressed.name();
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: f64 = 0.05;

    #[test]
    fn disjoint_better_runs_are_an_improvement_whatever_the_spread() {
        let a = [1.0, 1.3, 1.6];
        let b = [0.5, 0.7, 0.9];
        assert_eq!(
            judge(&a, &b, Better::Lower, BOUND, false, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            judge(&b, &a, Better::Higher, BOUND, false, 0.0),
            Verdict::Improved
        );
    }

    #[test]
    fn a_tight_pair_worse_by_more_than_the_bound_regressed() {
        let a = [1.00, 1.01, 1.02];
        let b = [1.09, 1.10, 1.11];
        assert_eq!(
            judge(&a, &b, Better::Lower, BOUND, false, 0.0),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            judge(&a, &b, Better::Higher, BOUND, false, 0.0),
            Verdict::Improved
        );
        // And a regression seen from the other side.
        assert_eq!(
            judge(&b, &a, Better::Higher, BOUND, false, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn within_the_bound_is_unchanged() {
        let a = [1.00, 1.01, 1.02];
        let b = [1.02, 1.03, 1.04];
        assert_eq!(
            judge(&a, &b, Better::Lower, BOUND, false, 0.0),
            Verdict::Unchanged
        );
    }

    #[test]
    fn overlapping_wide_runs_are_unresolved_not_unchanged() {
        let a = [1.0, 1.2, 1.4];
        let b = [1.1, 1.3, 1.5];
        assert_eq!(
            judge(&a, &b, Better::Lower, BOUND, false, 0.0),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_move_below_the_absolute_floor_is_unchanged() {
        let a = [0.020, 0.021, 0.022];
        let b = [0.030, 0.031, 0.032];
        assert_eq!(
            judge(&a, &b, Better::Lower, BOUND, false, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &b, Better::Lower, BOUND, false, 0.020),
            Verdict::Unchanged
        );
    }

    #[test]
    fn an_exact_figure_is_one_value_a_side_and_zero_may_stay_zero() {
        let verdict = |a: f64, b: f64| judge(&[a], &[b], Better::Lower, 0.0, true, 0.0);
        assert_eq!(verdict(0.0, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(0.745, 0.745), Verdict::Unchanged);
        assert_eq!(verdict(0.745, 1.49), Verdict::Regressed);
        assert_eq!(verdict(0.0, 0.001), Verdict::Regressed);
        assert_eq!(verdict(1.33, 1.0), Verdict::Improved);
        assert_eq!(change(0.0, 0.0), "+0.00%");
        assert_eq!(change(0.0, 0.5), "n/a");
        assert_eq!(change(2.0, 3.0), "+50.00%");
    }

    #[test]
    fn an_exact_metric_may_not_worsen_at_all() {
        let a = [0.931, 0.931, 0.931];
        let b = [0.930, 0.930, 0.930];
        assert_eq!(
            judge(&a, &b, Better::Higher, BOUND, true, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &a, Better::Higher, BOUND, true, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&b, &a, Better::Higher, BOUND, true, 0.0),
            Verdict::Improved
        );
    }
}
