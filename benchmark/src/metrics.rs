//! Every metric the benchmark reports, by name, unit and direction — the
//! same list `BENCHMARK.json` declares (a test holds the two together).

use std::collections::BTreeMap;

use crate::json::{obj, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the federation sees that this host can hold steady;
/// measured with tracing off. `BENCHMARK.json` bounds exactly these.
pub const END_TO_END: [MetricSpec; 4] = [
    lower("setup_s", "s"),
    lower("peak_rss_mib", "MiB"),
    lower("wire_bytes_per_round", "B"),
    higher("completed_cycle_share", "ratio"),
];

/// The timed end-to-end figures. Every untraced pass measures them and
/// the suite and `compare` report them beside the four above, but on the
/// sizing host two sets of runs of one commit cannot hold them within
/// 10 % (README, "Noise"), so by ISSUE 11's own rule they are demoted to
/// the per-layer list rather than kept with a loose bound.
pub const TIMED: [MetricSpec; 3] = [
    lower("round_s_p50", "s"),
    higher("client_cycles_per_s", "1/s"),
    lower("cpu_s_per_round", "s"),
];

/// Metrics that are counts the program made: identical between two runs
/// at one seed, or something changed.
pub const EXACT: [&str; 2] = ["wire_bytes_per_round", "completed_cycle_share"];

/// Whole-round counts that read exactly 0 on some workload, which a
/// relative bound cannot hold: every untraced pass writes them to its
/// `exact` object, the suite checks that they repeat from pass to pass,
/// and `compare` lets none of them worsen at one seed.
pub const EXACT_FIGURES: [MetricSpec; 5] = [
    lower("failed_cycle_share", "ratio"),
    lower("sim_round_s", "sim_s"),
    lower("tee_peak_mib", "MiB"),
    lower("crossings_per_round", "count"),
    lower("model_divergence", "max-abs"),
];

/// Everything an untraced pass reports, in display order.
pub fn untraced() -> impl Iterator<Item = &'static MetricSpec> {
    END_TO_END[..1]
        .iter()
        .chain(TIMED.iter())
        .chain(END_TO_END[1..].iter())
}

/// Single layers, from the traced pass. The last seven are whole-round
/// figures: four that read exactly 0 on some workload, which an
/// end-to-end metric with a relative bound may not, and the three timed
/// ones of [`TIMED`], here from the workload's own runner, untraced.
pub const PER_LAYER: [MetricSpec; 64] = [
    lower("tensor.conv_fwd_s", "s"),
    lower("tensor.conv_bwd_s", "s"),
    lower("tensor.matmul_s", "s"),
    higher("tensor.gflops", "GFLOP/s"),
    higher("tensor.fma_peak_gflops", "GFLOP/s"),
    higher("tensor.peak_share", "ratio"),
    lower("nn.forward_s", "s"),
    lower("nn.backward_s", "s"),
    lower("nn.step_s", "s"),
    lower("nn.replicate_s", "s"),
    lower("nn.weights_copy_s", "s"),
    lower("nn.param_bytes", "B"),
    lower("data.batch_s", "s"),
    lower("tee.sign_quote_s", "s"),
    lower("tee.verify_quote_s", "s"),
    higher("tee.sha256_mib_s", "MiB/s"),
    lower("tee.crossings_per_round", "count"),
    lower("core.secure_cycle_s", "s"),
    lower("core.plain_cycle_s", "s"),
    lower("core.secure_overhead_share", "ratio"),
    lower("core.sim_overhead_pct", "%"),
    lower("fl.selection.select_s", "s"),
    lower("fl.selection.attests_per_round", "count"),
    lower("fl.selection.per_attest_s", "s"),
    lower("fl.codec.encode_s", "s"),
    lower("fl.codec.decode_s", "s"),
    higher("fl.codec.ratio", "ratio"),
    lower("fl.message.pack_s", "s"),
    lower("fl.message.open_s", "s"),
    lower("fl.message.frame_bytes", "B"),
    lower("fl.transport.attest_rtt_s_p50", "s"),
    lower("fl.transport.train_rtt_s_p50", "s"),
    higher("fl.transport.reassemble_mib_s", "MiB/s"),
    higher("fl.transport.loopback_mib_s", "MiB/s"),
    lower("fl.transport.connect_s", "s"),
    lower("fl.transport.goodbye_s", "s"),
    lower("fl.client.cycle_s", "s"),
    lower("fl.client.overhead_s", "s"),
    lower("fl.engine.execute_s", "s"),
    higher("fl.engine.parallel_efficiency", "ratio"),
    lower("fl.aggregate.fold_s", "s"),
    lower("fl.aggregate.ns_per_coeff", "ns"),
    lower("fl.server.download_s", "s"),
    lower("fl.server.commit_s", "s"),
    lower("fl.runner.round_s_tail", "s"),
    higher("fl.runner.tail_percentile", "count"),
    higher("fl.runner.samples", "count"),
    lower("fl.runner.first_round_s", "s"),
    lower("fl.runner.teardown_s", "s"),
    lower("fl.runner.overhead_s", "s"),
    lower("fl.runner.shard_overhead_s", "s"),
    lower("fl.runner.trace_overhead_pct", "%"),
    lower("fl.distributed.launch_s", "s"),
    lower("fl.distributed.overhead_s", "s"),
    lower("fl.distributed.ctl_bytes_out_per_round", "B"),
    lower("fl.distributed.ctl_bytes_in_per_round", "B"),
    lower("fl.distributed.shutdown_s", "s"),
    lower("failed_cycle_share", "ratio"),
    lower("model_divergence", "max-abs"),
    lower("sim_round_s", "sim_s"),
    lower("tee_peak_mib", "MiB"),
    TIMED[0],
    TIMED[1],
    TIMED[2],
];

/// Metric values by name, filled in as they are measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The contract's `metrics` object: every metric of `specs`, in
    /// order, each with its unit. A metric that was never set is a bug in
    /// the benchmark, not a measurement.
    pub fn to_contract_json(&self, specs: &[MetricSpec]) -> Result<Json, String> {
        let mut pairs = Vec::with_capacity(specs.len());
        for spec in specs {
            let value = self
                .get(spec.name)
                .ok_or_else(|| format!("metric {} was never measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", spec.name));
            }
            pairs.push((
                spec.name,
                obj(vec![
                    ("value", Json::from(value)),
                    ("unit", Json::from(spec.unit)),
                ]),
            ));
        }
        Ok(obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Json, list: &str) -> Vec<(String, String, String)> {
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn specs(list: &[MetricSpec]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|s| {
                (
                    s.name.to_owned(),
                    s.unit.to_owned(),
                    s.better.name().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), specs(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), specs(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        assert_eq!(untraced().count(), END_TO_END.len() + TIMED.len());
        for spec in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(spec.name), "{} listed twice", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(spec
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn an_unmeasured_metric_fails_the_run() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        assert!(v.to_contract_json(&END_TO_END[..1]).is_ok());
        assert!(v.to_contract_json(&END_TO_END[..2]).is_err());
        v.set("peak_rss_mib", f64::NAN);
        assert!(v.to_contract_json(&END_TO_END[..2]).is_err());
    }
}
