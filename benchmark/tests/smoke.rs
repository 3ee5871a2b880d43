//! `--smoke`: the full code path — every workload's untraced pass, its
//! correctness phase, its traced pass with staged rounds and probes,
//! then the differ on the result — on fleets an eighth the size and two
//! timed rounds per pass.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// A scratch checkout root: the benchmark writes under `benchmark/out`
/// of its working directory and reads `BENCHMARK.json` from it.
fn scratch_root(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::copy(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
        dir.join("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json at the repository root");
    dir
}

fn benchmark() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gradsec-benchmark"));
    cmd.env(
        "GRADSEC_SHARD_SERVER",
        env!("CARGO_BIN_EXE_bench-shard-server"),
    );
    cmd
}

#[test]
fn smoke_suite_runs_every_workload_end_to_end() {
    let root = scratch_root("smoke_suite");
    let start = Instant::now();
    let out = benchmark()
        .current_dir(&root)
        .args(["suite", "--smoke", "--seed", "11"])
        .output()
        .expect("suite starts");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "suite failed\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(elapsed < Duration::from_secs(15), "smoke took {elapsed:?}");
    for workload in [
        "lenet_protected",
        "fleet_mux_1k",
        "wide_delta_topk",
        "distributed_hostile",
    ] {
        assert!(
            stdout.contains(&format!("== {workload} (correct) ==")),
            "{workload} missing or incorrect\n{stdout}"
        );
        assert!(root
            .join(format!("benchmark/out/trace_{workload}.json"))
            .is_file());
    }
    for metric in ["setup_s", "round_s_p50", "fl.runner.trace_overhead_pct"] {
        assert!(stdout.contains(metric), "{metric} not printed");
    }

    // A result compared against itself regresses nowhere.
    let result = root.join("benchmark/out/result.json");
    let same = benchmark()
        .current_dir(&root)
        .arg("compare")
        .args([&result, &result])
        .output()
        .expect("compare starts");
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    assert_eq!(table.matches("unchanged").count(), 4 * (7 + 5), "{table}");

    // A change that doubles the TEE footprint — an exact figure outside
    // `BENCHMARK.json` — does not compare clean.
    let text = std::fs::read_to_string(&result).expect("result.json");
    let exact = text
        .find("\"exact\":")
        .expect("first workload's exact figures");
    let key = "\"tee_peak_mib\":";
    let from = exact + text[exact..].find(key).expect("tee_peak_mib") + key.len();
    let to = from + text[from..].find([',', '\n', '}']).expect("end of value");
    let value: f64 = text[from..to].trim().parse().expect("a number");
    assert!(value > 0.0, "lenet_protected shelters layers in the TEE");
    let worse = root.join("benchmark/out/worse.json");
    let doubled = format!("{}{}{}", &text[..from], value * 2.0, &text[to..]);
    std::fs::write(&worse, doubled).expect("worse.json");
    let differs = benchmark()
        .current_dir(&root)
        .arg("compare")
        .args([&result, &worse])
        .output()
        .expect("compare starts");
    let table = String::from_utf8_lossy(&differs.stdout);
    assert_eq!(differs.status.code(), Some(1), "{table}");
    assert_eq!(table.matches("regressed").count(), 1, "{table}");
}

#[test]
fn one_pass_prints_the_contract_object_last() {
    let root = scratch_root("smoke_pass");
    let out = benchmark()
        .current_dir(&root)
        .args(["run", "--smoke", "--workload", "distributed_hostile"])
        .args(["--seed", "7", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("pass starts");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    for key in [
        "\"correct\":true",
        "\"attempted\":",
        "\"failed\":0",
        "\"metrics\":{",
    ] {
        assert!(last.contains(key), "{key} missing from {last}");
    }
    assert!(last.contains("\"setup_s\":{\"value\":"));
}

#[test]
fn ambient_configuration_is_refused() {
    let root = scratch_root("smoke_env");
    let out = benchmark()
        .current_dir(&root)
        .env("GRADSEC_BACKEND", "blocked")
        .args(["run", "--smoke", "--workload", "lenet_protected"])
        .output()
        .expect("pass starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("GRADSEC_BACKEND"));
}
