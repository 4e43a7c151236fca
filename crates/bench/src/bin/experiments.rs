//! Command-line experiment runner.
//!
//! ```text
//! experiments                   # run everything
//! experiments e3 e4             # run selected experiments
//! experiments --backend pool e9 # host-side experiments on the pool backend
//! experiments --list            # print the experiment index
//! experiments --streams 256 e16 # serving experiment at a chosen scale
//! experiments --smoke e19       # small-geometry CI rung, floors off
//! ```
//!
//! `--backend {seq,pool,shard,dist,sim}` selects the execution
//! strategy for the host-side experiments (E9/E10/E11); the simulator
//! experiments (E1–E8, E12) always run the paper pipeline, and the
//! distributed ladder (E17) always compares pool, shard and worker
//! processes. `--streams N` sizes the serving experiment (E16, default
//! 128). `--smoke` shrinks the geometry-heavy experiments (E19) to a CI
//! scale with the speedup floors off. Exits with a nonzero status when
//! asked for an unknown experiment id or backend.

use skipper_bench::experiments as ex;
use skipper_bench::say;
use std::process::ExitCode;

fn print_index() {
    say!("available experiments:");
    for (id, title, _) in ex::INDEX {
        say!("  {id:<4} {title}");
    }
    say!("  all  run every experiment in order");
    say!("options:");
    say!("  --backend {{seq,pool,shard,dist,sim}}  host-side execution strategy (default pool)");
    say!(
        "  --streams N                      stream count for the serving experiment (default 128)"
    );
    say!("  --smoke                          small-geometry CI scale, speedup floors off (E19)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--backend` is handled up front: it configures the whole run,
    // wherever it appears on the command line. Every occurrence is
    // validated; the last one wins (the library's `set_backend` is
    // one-shot, so it is called exactly once, below).
    let mut rest: Vec<String> = Vec::new();
    let mut chosen: Option<ex::BackendChoice> = None;
    let mut streams: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let streams_value = if a == "--streams" {
            match it.next() {
                Some(v) => Some(v),
                None => {
                    eprintln!("--streams needs a positive count");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            a.strip_prefix("--streams=").map(str::to_string)
        };
        if let Some(v) = streams_value {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => {
                    streams = Some(n);
                    continue;
                }
                _ => {
                    eprintln!("--streams needs a positive count, got `{v}`");
                    return ExitCode::FAILURE;
                }
            }
        }
        if a == "--smoke" {
            ex::set_smoke();
            continue;
        }
        let value = if a == "--backend" || a == "-b" {
            match it.next() {
                Some(v) => Some(v),
                None => {
                    eprintln!("--backend needs a value (seq, pool, shard, dist or sim)");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            a.strip_prefix("--backend=").map(str::to_string)
        };
        match value {
            Some(v) => match v.parse::<ex::BackendChoice>() {
                Ok(choice) => chosen = Some(choice),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            None => rest.push(a),
        }
    }
    if let Some(choice) = chosen {
        ex::set_backend(choice);
    }
    if let Some(n) = streams {
        ex::set_streams(n);
    }
    if rest.is_empty() {
        ex::run_all();
        return ExitCode::SUCCESS;
    }
    // Arguments are processed in order, so `experiments e3 --list` runs
    // e3 and then prints the index.
    for a in &rest {
        match a.as_str() {
            "--list" | "-l" => print_index(),
            "all" => ex::run_all(),
            id => match ex::by_id(id) {
                Some(f) => f(),
                None => {
                    eprintln!("unknown experiment `{id}` (use --list to see e1..e19)");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    ExitCode::SUCCESS
}
