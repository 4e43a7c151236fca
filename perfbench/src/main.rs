//! `perfbench`: the SKiPPER workspace's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, computes every
//! reference output outside the timed region, sets up and measures for
//! `--seconds`, checks every output, and prints as its last line
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is the host-noise stamp. See `README.md`.

mod fleet;
mod host;
mod report;
mod serve;
mod stats;
mod trace;
mod track;

use std::process::ExitCode;

use report::{Args, Check};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", report::USAGE);
            return ExitCode::from(2);
        }
    };
    // Keep every CPU awake for the whole run, calibration included (see
    // `host::Spinners`).
    let spinners = host::Spinners::start();
    let stamp = host::Stamp::begin();
    let check = Check::new(args.workload);
    let measured = match args.workload {
        "track_dsl" => track::run(&args, &check),
        "serve_64cam" => serve::run(&args, &check),
        "fleet_df" => fleet::run(&args, &check),
        other => Err(format!("unknown workload {other}")),
    };
    let line = measured.and_then(|m| report::result_line(&check, args.trace, &m));
    let stamp = stamp.render();
    drop(spinners);
    match line {
        Ok(line) => {
            println!(
                "perfbench: workload={} seed={} trace={} attempted={} failed={} failed_share={} inputs={:016x} {}",
                args.workload,
                args.seed,
                u8::from(args.trace),
                check.attempted(),
                check.failed(),
                check.failed_share(),
                check.inputs(),
                stamp
            );
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
