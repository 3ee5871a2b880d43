//! One federated round, end to end and layer by layer. See README.md.
//!
//! ```text
//! gradsec-benchmark run --workload W --seed N --seconds S --trace 0|1   one pass
//! gradsec-benchmark run --workload W --seed N --seconds S --memory-pass   its peak memory (run by the pass itself)
//! gradsec-benchmark suite [--seed N] [--sets K] [--smoke]               every workload
//! gradsec-benchmark compare A.json B.json                               the differ
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod pass;
mod probes;
mod procfs;
mod span;
mod staged;
mod stats;
mod suite;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gradsec_fl::distributed::SHARD_SERVER_ENV;
use gradsec_fl::transport::poller::raise_fd_soft_limit;

use json::{obj, Json};
use metrics::{MetricSpec, END_TO_END, PER_LAYER};
use workload::{Config, Workload};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

pub const SCHEMA: &str = "gradsec-benchmark/1";

/// `BENCHMARK.json`'s `run_seconds`: what the driver passes, and what the
/// baselines were measured with.
const DEFAULT_SECONDS: u64 = 15;

/// Where traces and suite results go, relative to the checkout root the
/// benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// `--name value` pairs after the subcommand, plus bare arguments.
struct Args {
    flags: BTreeMap<String, String>,
    bare: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Res<Args> {
        let mut flags = BTreeMap::new();
        let mut bare = Vec::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(switch @ ("smoke" | pass::MEMORY_PASS_FLAG)) => {
                    flags.insert(switch.to_owned(), "1".to_owned());
                }
                Some(name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_owned(), value);
                }
                None => bare.push(arg),
            }
        }
        Ok(Args { flags, bare })
    }

    fn number(&self, name: &str, default: u64) -> Res<u64> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, got '{v}'").into()),
        }
    }

    fn smoke(&self) -> bool {
        self.flags.contains_key("smoke")
    }
}

/// One pass of one workload: the contract's unit of work. Prints the
/// contract's JSON object as the last line of standard output and, with
/// `--detail PATH`, writes everything else it measured to PATH.
fn run(args: &Args) -> Res<bool> {
    let name = args.flags.get("workload").ok_or("run needs --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = args.number("seed", 7)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let trace = args.number("trace", 0)? != 0;
    let cfg = Config::new(workload, seed, seconds, args.smoke());
    // Smoke mode times two rounds, whatever the clock says.
    let budget = if args.smoke() { 0.0 } else { seconds as f64 };
    // A thousand loopback sessions hold two descriptors each.
    raise_fd_soft_limit();
    if args.flags.contains_key(pass::MEMORY_PASS_FLAG) {
        pass::memory_pass_main(&cfg)?;
        return Ok(true);
    }

    let mut detail = vec![
        ("schema", Json::from(SCHEMA)),
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(trace)),
        ("smoke", Json::from(args.smoke())),
        ("host", host::fingerprint()),
        ("config", cfg.to_json()),
    ];
    // `specs` is what the contract's line carries; the detail file of an
    // untraced pass adds the timed figures the contract does not bound.
    let (correct, attempted, values, specs, detail_specs, notes) = if trace {
        let t = staged::traced_pass(&cfg, budget)?;
        std::fs::create_dir_all(OUT_DIR)?;
        let path = Path::new(OUT_DIR).join(format!("trace_{}.json", workload.name()));
        std::fs::write(&path, t.detail.render())?;
        eprintln!("trace written to {}", path.display());
        // The span list stays in the trace file; the result keeps the
        // tables derived from it.
        let summary: Vec<(String, Json)> = t
            .detail
            .as_obj()
            .expect("trace detail is an object")
            .iter()
            .filter(|(k, _)| k != "spans")
            .cloned()
            .collect();
        detail.push(("traced", Json::Obj(summary)));
        (
            t.correct,
            t.rounds,
            t.per_layer,
            &PER_LAYER[..],
            PER_LAYER.to_vec(),
            t.notes,
        )
    } else {
        let p = pass::untraced_pass(&cfg, budget)?;
        let verdict = pass::correctness_phase(&cfg)?;
        let exact = pass::ExactFacts::over(&p.rounds, cfg.exact_rounds);
        detail.push(("round_samples", Json::from(p.round_samples())));
        detail.push(("setup_samples", Json::from(p.setup_samples.clone())));
        detail.push(("first_round_s", Json::from(p.first_round_s)));
        detail.push(("teardown_s", Json::from(p.teardown_s)));
        detail.push((
            "exact",
            obj(vec![
                ("failed_cycle_share", Json::from(exact.failed_cycle_share)),
                ("sim_round_s", Json::from(exact.sim_round_s)),
                ("tee_peak_mib", Json::from(exact.tee_peak_mib)),
                ("crossings_per_round", Json::from(exact.crossings_per_round)),
                (
                    "model_divergence",
                    Json::from(f64::from(verdict.divergence)),
                ),
            ]),
        ));
        (
            verdict.correct,
            p.rounds.len(),
            p.end_to_end,
            &END_TO_END[..],
            metrics::untraced().copied().collect::<Vec<MetricSpec>>(),
            vec![verdict.note],
        )
    };
    for note in &notes {
        eprintln!("{}: {note}", workload.name());
    }
    let metrics = values.to_contract_json(specs)?;
    // An operation is a round; a round that errors has already failed
    // the run through `?`, so every attempted round committed.
    let result = obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(0u64)),
        ("metrics", metrics),
    ]);
    if let Some(path) = args.flags.get("detail") {
        detail.push(("correct", Json::from(correct)));
        detail.push(("attempted", Json::from(attempted)));
        detail.push(("notes", Json::from(notes)));
        detail.push(("metrics", values.to_contract_json(&detail_specs)?));
        std::fs::write(path, obj(detail).render())?;
    }
    println!("{}", result.render());
    Ok(correct)
}

/// The shard server `DistributedCoordinator` spawns is this package's
/// own `bench-shard-server`, built next to this binary; `run.sh` names
/// it explicitly, a bare invocation falls back to the sibling.
fn pin_shard_server() -> Res<()> {
    if std::env::var_os(SHARD_SERVER_ENV).is_none() {
        let sibling: PathBuf = std::env::current_exe()?.with_file_name(format!(
            "bench-shard-server{}",
            std::env::consts::EXE_SUFFIX
        ));
        std::env::set_var(SHARD_SERVER_ENV, sibling);
    }
    Ok(())
}

fn dispatch() -> Res<bool> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "suite".to_owned());
    let args = Args::parse(argv)?;
    if command == "compare" {
        let [a, b] = args.bare.as_slice() else {
            return Err("usage: compare A.json B.json".into());
        };
        return compare::compare_files(Path::new(a), Path::new(b));
    }
    host::refuse_ambient_config(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))?;
    pin_shard_server()?;
    match command.as_str() {
        "run" => run(&args),
        "suite" => suite::suite(
            args.number("seed", 7)?,
            args.number("seconds", DEFAULT_SECONDS)?,
            args.number("sets", 1)? as usize,
            args.smoke(),
        ),
        other => Err(format!("unknown command '{other}' (run, suite, compare)").into()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gradsec-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
