//! `fleet_df`: the `df` conformance farm spread over two worker
//! processes with `DistBackend::run_df_sharded`, one client in a closed
//! loop. The only workload whose frames travel through `wire` encoding
//! and pipe round trips.

use std::process::Command;
use std::time::Instant;

use skipper::conformance::{df_case, DfProg};
use skipper::receipt::receipted;
use skipper::wire::{decode_document, encode_document, ToWire};
use skipper::{Backend, DistBackend, PoolBackend, RunReceipt, SeqBackend, Workers};

use crate::report::{self, closed_loop, interleave, Args, Check, Metrics, Phase};
use crate::{host, stats, trace};

/// Worker processes in the fleet, each with a one-thread local pool.
const PROCESSES: usize = 2;
/// The farm degree of the `df` case.
const DEGREE: usize = 4;
const ITEMS: usize = 4096;
/// Distinct frames the loop rotates through.
const ROTATION: usize = 8;
/// Fresh set-ups per run, each measuring its share of the run;
/// `setup_s` is their median.
const SETUPS: usize = 15;

/// Spawns the fleet from the `perfbench-worker` binary built beside this
/// one, each worker sized by `SKIPPER_WORKERS=1`.
fn spawn_fleet() -> Result<DistBackend, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let worker = exe.with_file_name("perfbench-worker");
    DistBackend::spawn(PROCESSES, || {
        let mut cmd = Command::new(&worker);
        cmd.env("SKIPPER_WORKERS", "1");
        cmd
    })
    .map_err(|e| format!("spawning {}: {e}", worker.display()))
}

/// The frames' items, and each frame's fold and receipt on the pool,
/// computed before anything is timed.
fn inputs(seed: u64) -> (Vec<Vec<i64>>, Vec<(i64, RunReceipt)>) {
    let frames: Vec<Vec<i64>> = (0..ROTATION as u64)
        .map(|f| {
            (0..ITEMS as u64)
                .map(|i| (stats::mix(seed, f * ITEMS as u64 + i) % 1000) as i64)
                .collect()
        })
        .collect();
    let pool = PoolBackend::configured(Workers::exact(host::pool_workers()));
    let prog = df_case(DEGREE);
    let reference = frames
        .iter()
        .map(|xs| {
            receipted(&xs[..], || {
                Backend::<DfProg, &[i64]>::run(&pool, &prog, &xs[..])
            })
        })
        .collect();
    (frames, reference)
}

/// A closed-loop step: frame `k` of the rotation through the fleet,
/// timed inside its root span, checked against the pool's fold and
/// receipt.
fn fleet_step<'a>(
    dist: &'a DistBackend,
    frames: &'a [Vec<i64>],
    reference: &'a [(i64, RunReceipt)],
    check: &'a Check,
) -> impl FnMut(u64) -> u64 + 'a {
    move |k| {
        let i = k as usize % ROTATION;
        let (got, ns) = trace::root(|| dist.run_df_sharded(DEGREE, &frames[i]));
        let want = &reference[i];
        check.frame(k, got.as_ref().ok() == Some(want), || match &got {
            Ok(g) => format!("fold/receipt {g:?}, pool gave {want:?}"),
            Err(e) => format!("fleet error: {e}"),
        });
        ns
    }
}

/// This process's and its worker processes' peak resident memory, MB.
fn fleet_rss_mb() -> f64 {
    host::peak_rss_mb("self")
        + host::children()
            .iter()
            .map(|p| host::peak_rss_mb(p))
            .sum::<f64>()
}

pub fn run(args: &Args, check: &Check) -> Result<Metrics, String> {
    let (frames, reference) = inputs(args.seed);
    check.set_inputs(stats::fingerprint(&frames));
    if args.trace {
        return traced(args, &frames, &reference, check);
    }
    let mut setup = Vec::new();
    let mut windows = report::Windows::default();
    let mut rss = 0.0;
    for _ in 0..SETUPS {
        // Set-up: the worker processes and their handshakes, and a cold
        // lap over the rotation. Each set-up then measures its share of
        // the run (see `track`).
        report::on_fresh_thread(|| {
            let t0 = Instant::now();
            let dist = spawn_fleet()?;
            let mut step = fleet_step(&dist, &frames, &reference, check);
            for k in 0..ROTATION as u64 {
                step(k);
            }
            setup.push(t0.elapsed().as_secs_f64());
            windows.add(&closed_loop(args.seconds / SETUPS as f64, &mut step));
            rss = f64::max(rss, fleet_rss_mb());
            drop(step);
            dist.shutdown().map_err(|e| format!("fleet shutdown: {e}"))
        })?;
    }
    let (p50, p95) = windows.latency_ms()?;
    Ok(Metrics::from([
        ("setup_s", stats::median(&setup)),
        ("frame_ms_p50", p50),
        ("frame_ms_p95", p95),
        // One client in a closed loop: throughput is the reciprocal of
        // the median frame time; a mean would let host stalls in.
        ("frames_per_s", 1e3 / p50),
        ("peak_rss_mb", rss),
    ]))
}

/// The traced run: the kernel floor (the farm's declarative fold on one
/// thread), the wire codec and the one-item round trip, then alternating
/// blocks of the fleet loop with recording off and on.
fn traced(
    args: &Args,
    frames: &[Vec<i64>],
    reference: &[(i64, RunReceipt)],
    check: &Check,
) -> Result<Metrics, String> {
    let prog = df_case(DEGREE);
    let floor = closed_loop(args.seconds * 0.1, |k| {
        let i = k as usize % ROTATION;
        let (z, ns) =
            report::timed(|| Backend::<DfProg, &[i64]>::run(&SeqBackend, &prog, &frames[i][..]));
        check.frame(k, z == reference[i].0, || {
            format!("sequential fold {z}, pool gave {}", reference[i].0)
        });
        ns
    });
    let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), 0);
    let t = Instant::now();
    let mut k = 0;
    while t.elapsed().as_secs_f64() < args.seconds * 0.05 {
        let items = &frames[k % ROTATION];
        let (doc, e_ns) = report::timed(|| encode_document(&items.to_wire()));
        let (back, d_ns) = report::timed(|| decode_document(&doc));
        check.frame(
            k as u64,
            back.as_ref().ok() == Some(&items.to_wire()),
            || "wire round trip changed the frame's items".to_string(),
        );
        encode.push(e_ns as f64 / 1e3);
        decode.push(d_ns as f64 / 1e3);
        bytes = doc.len();
        k += 1;
    }
    let dist = spawn_fleet()?;
    let one: Vec<Vec<i64>> = frames.iter().map(|xs| xs[..1].to_vec()).collect();
    let one_ref: Vec<(i64, RunReceipt)> = one
        .iter()
        .map(|xs| {
            receipted(&xs[..], || {
                Backend::<DfProg, &[i64]>::run(&SeqBackend, &prog, &xs[..])
            })
        })
        .collect();
    let rtt = closed_loop(
        args.seconds * 0.05,
        fleet_step(&dist, &one, &one_ref, check),
    );
    let mut phases = [
        Phase::new(false, fleet_step(&dist, frames, reference, check)),
        Phase::new(true, fleet_step(&dist, frames, reference, check)),
    ];
    for p in &mut phases {
        p.warm(ROTATION as u64);
    }
    interleave(&mut phases, args.seconds * 0.8, 0.2, true);
    let [off, on] = &phases;
    let (off_p50, on_p50) = (off.p50_ms(), on.p50_ms());
    let cpu_per_frame = off.cpu_ms_per_frame();
    drop(phases);
    dist.shutdown()
        .map_err(|e| format!("fleet shutdown: {e}"))?;
    let spans = trace::take();
    trace::write_out(&format!("fleet_df-{}", args.seed), &spans, 2000);
    let floor_ms = stats::median(&stats::ns_to_ms(&floor));
    Ok(Metrics::from([
        ("kernel_floor_ms", floor_ms),
        ("skeleton.overhead_us", (off_p50 - floor_ms) * 1e3),
        ("floor_ratio", off_p50 / floor_ms),
        ("wire.frame_bytes", bytes as f64),
        ("wire.encode_us", stats::median(&encode)),
        ("wire.decode_us", stats::median(&decode)),
        (
            "dist.rtt_floor_us",
            stats::median(&stats::ns_to_ms(&rtt)) * 1e3,
        ),
        ("host.cpu_ms_per_frame", cpu_per_frame),
        ("trace.overhead_pct", report::overhead_pct(on_p50, off_p50)),
    ]))
}
