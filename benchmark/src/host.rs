//! Where a result was measured, and the guarantee that nothing outside
//! the command line changed the program that was measured.

use std::process::{Command, Stdio};

use gradsec_fl::distributed::SHARD_SERVER_ENV;
use gradsec_fl::transport::poller::Poller;
use gradsec_tensor::backend::Tiled;

use crate::json::{obj, Json};
use crate::procfs;

/// `crates/` reads some twenty `GRADSEC_*` variables where they are used
/// (backend, codec, tiled ISA, poller, …); any of them would silently
/// change the measured program. Only the shard-server path, which
/// `run.sh` sets itself, is allowed through.
pub fn refuse_ambient_config(vars: impl Iterator<Item = String>) -> Result<(), String> {
    let offending: Vec<String> = vars
        .filter(|k| k.starts_with("GRADSEC_") && k != SHARD_SERVER_ENV)
        .collect();
    if offending.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with {} set: unset every GRADSEC_* variable except {}",
            offending.join(", "),
            SHARD_SERVER_ENV
        ))
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host fingerprint every result file carries.
pub fn fingerprint() -> Json {
    obj(vec![
        ("cpu_model", Json::from(procfs::cpu_model())),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("tiled_isa", Json::from(Tiled::auto().isa().name())),
        ("mux_poller", Json::from(Poller::new().kind())),
        // The driver's checkout is not a git repository; there this is
        // "unknown", and the baseline's own file name carries the PR.
        (
            "commit",
            Json::from(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(first_line_of("rustc", &["-V"]))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(names: &[&str]) -> impl Iterator<Item = String> {
        names
            .iter()
            .map(|s| (*s).to_owned())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn only_the_shard_server_path_may_be_set() {
        assert!(refuse_ambient_config(vars(&["PATH", "GRADSEC_SHARD_SERVER", "HOME"])).is_ok());
        let err =
            refuse_ambient_config(vars(&["GRADSEC_BACKEND", "PATH", "GRADSEC_CODEC"])).unwrap_err();
        assert!(err.contains("GRADSEC_BACKEND") && err.contains("GRADSEC_CODEC"));
    }

    #[test]
    fn fingerprint_names_every_field() {
        let f = fingerprint();
        for key in [
            "cpu_model",
            "nproc",
            "tiled_isa",
            "mux_poller",
            "commit",
            "rustc",
        ] {
            assert!(f.get(key).is_some(), "{key} missing");
        }
    }
}
