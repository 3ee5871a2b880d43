//! The shard-server process: hosts one contiguous shard of FL clients
//! behind the envelope protocol, driven by a
//! [`DistributedCoordinator`](gradsec_fl::distributed::DistributedCoordinator)
//! in another process.
//!
//! Usage: `shard-server <coordinator-addr>` — the process connects back
//! to the coordinator, receives its shard configuration over the
//! shard-control handshake, and serves screen/round requests until a
//! Goodbye (or EOF) ends the session. All logic lives in
//! [`gradsec_fl::distributed::shard_server_main`]; this binary only hands
//! it the arguments and maps the result to an exit code the
//! coordinator's teardown watchdog can observe.

use std::process::ExitCode;

fn main() -> ExitCode {
    match gradsec_fl::distributed::shard_server_main(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shard-server: {e}");
            ExitCode::FAILURE
        }
    }
}
