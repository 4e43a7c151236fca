//! The worker process of the `fleet_df` workload: speaks the
//! `skipper::dist` wire protocol over stdin/stdout until shutdown, like
//! the workspace's `skipper-worker`, but built by the benchmark's own
//! package so the benchmark needs no other build. Its local pool size
//! follows `SKIPPER_WORKERS`, which the benchmark sets to 1.

use std::process::ExitCode;

fn main() -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match skipper::dist::serve_connection(stdin.lock(), stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
