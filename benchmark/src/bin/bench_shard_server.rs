//! `gradsec_fl`'s shard-server entry point, built inside the benchmark
//! package so one `cargo build` yields everything a run spawns.

use std::process::ExitCode;

fn main() -> ExitCode {
    match gradsec_fl::distributed::shard_server_main(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-shard-server: {e}");
            ExitCode::FAILURE
        }
    }
}
