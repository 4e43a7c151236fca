//! `skipperc` — the SKiPPER compiler driver.
//!
//! Compiles a Skipper-ML source (`.skp`) against the §4 application
//! kernel registry and runs the resulting stream program on a chosen
//! execution strategy, or emits its SynDEx schedule:
//!
//! ```text
//! skipperc examples/dsl/ccl.skp                       # run sequentially
//! skipperc examples/dsl/road.skp --backend pool       # shared worker pool
//! skipperc examples/dsl/tracking.skp --backend sim    # simulated ring
//! skipperc examples/dsl/ccl.skp --plan --workers 4    # SynDEx schedule
//! ```
//!
//! `--backend {seq,pool,shard,sim}` picks the strategy (default
//! `seq`), `--workers N` the degree (host strategies and the simulated
//! ring's processor count), `--frames N` the stream length (default 4).
//!
//! **Exit-code contract**: any failure — unreadable file, lex/parse
//! error, type error, uncompilable program, simulation error, bad flag —
//! prints one `file:line:col: stage: message` line on stderr and exits
//! nonzero. No input panics the driver (property-tested in
//! `tests/lang_no_panic.rs`).

use std::num::NonZeroUsize;
use std::process::ExitCode;

use skipper::{Backend, HostBackend, Workers};
use skipper_apps::kernels::app_registry;
// The no-panic contract covers the whole driver, a closed stdout included.
use skipper_bench::say;
use skipper_exec::{SimBackend, Value};
use skipper_lang::compile_source;

fn usage() {
    say!("usage: skipperc FILE.skp [options]");
    say!("  --backend {{seq,pool,shard,sim}}  execution strategy (default seq)");
    say!("  --workers N                            worker count / simulated processors");
    say!("  --frames N                             stream length (default 4)");
    say!("  --plan                                 print the SynDEx schedule and exit");
}

struct Options {
    file: Option<String>,
    backend: String,
    workers: Option<NonZeroUsize>,
    frames: usize,
    plan: bool,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        file: None,
        backend: "seq".to_string(),
        workers: None,
        frames: 4,
        plan: false,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        // Each option accepts both `--flag value` and `--flag=value`.
        let value_of = |flag: &str, a: &str, it: &mut dyn Iterator<Item = String>| {
            if a == flag {
                it.next().ok_or_else(|| format!("{flag} needs a value"))
            } else {
                Ok(a[flag.len() + 1..].to_string())
            }
        };
        if a == "--backend" || a.starts_with("--backend=") || a == "-b" {
            let key = if a == "-b" { "-b" } else { "--backend" };
            opts.backend = value_of(key, &a, &mut it)?;
        } else if a == "--workers" || a.starts_with("--workers=") {
            let v = value_of("--workers", &a, &mut it)?;
            opts.workers = Some(
                v.parse::<NonZeroUsize>()
                    .map_err(|_| format!("--workers needs a positive count, got `{v}`"))?,
            );
        } else if a == "--frames" || a.starts_with("--frames=") {
            let v = value_of("--frames", &a, &mut it)?;
            opts.frames = v
                .parse::<usize>()
                .map_err(|_| format!("--frames needs a count, got `{v}`"))?;
        } else if a == "--plan" {
            opts.plan = true;
        } else if a == "--help" || a == "-h" {
            usage();
            std::process::exit(0);
        } else if a.starts_with('-') {
            return Err(format!("unknown option `{a}`"));
        } else if opts.file.is_none() {
            opts.file = Some(a);
        } else {
            return Err(format!("unexpected argument `{a}` (one source file)"));
        }
    }
    Ok(opts)
}

/// Prints the SynDEx schedule of the compiled loop on an `nprocs`-ring.
fn emit_plan(
    prog: &skipper_lang::CompiledProgram,
    nprocs: usize,
) -> Result<(), skipper_exec::ExecError> {
    let sim = SimBackend::ring(nprocs);
    let exec = Backend::<_, Vec<Value>>::prepare(&sim, &prog.loop_program());
    let schedule = exec.statics()?.schedule();
    say!(
        "schedule on {nprocs}-processor ring: makespan {:.1} us/frame",
        schedule.makespan_ns as f64 / 1e3
    );
    for (p, order) in schedule.proc_order.iter().enumerate() {
        let spans: Vec<String> = order
            .iter()
            .map(|n| format!("n{}@{:.1}us", n.0, schedule.start_ns[n.0] as f64 / 1e3))
            .collect();
        say!("  P{p}: {} node(s)  {}", order.len(), spans.join(" "));
    }
    Ok(())
}

fn real_main() -> Result<(), String> {
    let opts = parse_args(std::env::args().skip(1).collect())?;
    let Some(file) = opts.file else {
        usage();
        return Err("no source file given".to_string());
    };
    let source = std::fs::read_to_string(&file).map_err(|e| format!("{file}: cannot read: {e}"))?;

    // Parse → typecheck → compile; every diagnostic renders as one
    // located line, prefixed with the file name.
    let registry = app_registry();
    let prog =
        compile_source(&registry, &source).map_err(|d| format!("{file}:{}", d.render(&source)))?;

    let workers = opts.workers.map_or(Workers::FromEnv, Workers::Exact);
    let nprocs = opts.workers.map_or(3, NonZeroUsize::get);

    if opts.plan {
        return emit_plan(&prog, nprocs).map_err(|e| format!("{file}: plan failed: {e:?}"));
    }

    let frames = prog.frames(opts.frames);
    say!(
        "{file}: source `{}`, {} frame(s), backend {}",
        prog.source_name(),
        frames.len(),
        opts.backend
    );
    let loop_prog = prog.loop_program();
    let (_z, outputs) = match opts.backend.as_str() {
        "sim" => SimBackend::ring(nprocs)
            .run(&loop_prog, frames)
            .map_err(|e| format!("{file}: simulation failed: {e:?}"))?,
        name => {
            let backend = HostBackend::configured(name, workers)
                .map_err(|e| format!("--backend: {e} or sim"))?;
            backend.run(&loop_prog, frames)
        }
    };
    for (i, y) in outputs.iter().enumerate() {
        // The registered show kernel observes the output (the paper's
        // display process); the driver prints its wire form.
        let _ = prog.show(y);
        say!("frame {i}: {y:?}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(line) => {
            eprintln!("{line}");
            ExitCode::FAILURE
        }
    }
}
