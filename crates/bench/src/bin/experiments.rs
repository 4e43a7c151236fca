//! Command-line experiment runner.
//!
//! ```text
//! experiments                   # run everything
//! experiments e3 e4             # run selected experiments
//! experiments --backend pool e9 # host-side experiments on the pool backend
//! experiments --list            # print the experiment index
//! ```
//!
//! `--backend {seq,pool,shard,sim}` selects the execution strategy for
//! the host-side experiments (E9–E11, E14, E15); the simulator
//! experiments (E1–E8, E12) always run the paper pipeline. Exits with a
//! nonzero status when asked for an unknown experiment id or backend.

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
    say!("  --backend {{seq,pool,shard,sim}}  host-side execution strategy (default pool)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--backend` is handled up front: it configures the whole run,
    // wherever it appears on the command line. Every occurrence is
    // validated; the last one wins (the library's `set_backend` is
    // one-shot, so it is called exactly once, below).
    let mut rest: Vec<String> = Vec::new();
    let mut chosen: Option<ex::BackendChoice> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let value = if a == "--backend" || a == "-b" {
            match it.next() {
                Some(v) => Some(v),
                None => {
                    eprintln!("--backend needs a value (seq, pool, shard or sim)");
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
                    eprintln!("unknown experiment `{id}` (use --list to see e1..e15)");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    ExitCode::SUCCESS
}
