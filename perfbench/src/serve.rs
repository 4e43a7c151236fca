//! `serve_64cam`: 64 camera streams served by `skipper::serve` over one
//! pool. Each stream runs a road-following `scm` body (`apps::road` band
//! split, scan and merge) over its own 320×240 frames. A paced phase
//! offers every stream Poisson arrivals at 25 Hz (1600 frames/s in all)
//! and gives the latency percentiles, timed from each frame's due time
//! to its completion; a saturation phase offers the same streams every
//! frame at once and gives the throughput.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use skipper::serve::traffic;
use skipper::{
    serve, PoolBackend, Scm, ServeConfig, ServeOutcome, StreamSpec, TimedFrame, VecSource, Workers,
};
use skipper_apps::road::{detect_line_seq, merge_scans, scan_band};
use skipper_vision::line::{FittedLine, LinePoint};
use skipper_vision::split::{split_rows, RowBand};
use skipper_vision::synth::render_road_frame;
use skipper_vision::Image;

use crate::report::{closed_loop, Args, Check, Metrics};
use crate::{host, stats, trace};

const STREAMS: usize = 64;
const RATE_HZ: f64 = 25.0;
const WIDTH: usize = 320;
const HEIGHT: usize = 240;
/// The `scm` degree of the body: bands per frame.
const BANDS: usize = 4;
/// Distinct frames per stream; a stream cycles through its own.
const DISTINCT: usize = 4;
/// Frames per stream in one saturation round.
const ROUND_FRAMES: usize = 8;
/// Fresh set-ups per run, each measuring its share of the run;
/// `setup_s` is their median.
const SETUPS: usize = 15;

/// A stream's loop state: `(stream, frames served)`.
type State = (u64, u64);
type Pair = (State, Image<u8>);
type Frag = (State, RowBand);
type Part = (State, Vec<LinePoint>);
type Out = (State, Option<FittedLine>);
type Body = Scm<fn(&Pair, usize) -> Vec<Frag>, fn(Frag) -> Part, fn(Vec<Part>) -> Out>;

fn split(pair: &Pair, n: usize) -> Vec<Frag> {
    split_rows(&pair.1, n, 0)
        .into_iter()
        .map(|band| (pair.0, band))
        .collect()
}

fn scan((z, band): Frag) -> Part {
    (z, scan_band(band))
}

fn merge(parts: Vec<Part>) -> Out {
    let (stream, served) = parts.first().map_or((0, 0), |p| p.0);
    let line = merge_scans(parts.into_iter().map(|p| p.1).collect());
    ((stream, served + 1), line)
}

/// The stream-loop body: the road program's split, scan and merge,
/// threading the stream's frame count through the fragments.
fn body() -> Body {
    Scm::new(BANDS, split, scan, merge)
}

thread_local! {
    static COMPUTE_START: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn t_split(pair: &Pair, n: usize) -> Vec<Frag> {
    COMPUTE_START.with(|c| c.set(trace::now_ns()));
    split(pair, n)
}

/// Closes the body's `compute` span, opened by [`t_split`] on the same
/// worker thread (the engine runs one frame's body on one thread).
fn t_merge(parts: Vec<Part>) -> Out {
    let out = merge(parts);
    let (stream, served) = out.0;
    let start = COMPUTE_START.with(std::cell::Cell::get);
    trace::record(
        stream << 32 | (served - 1),
        "compute",
        "serve",
        start,
        trace::now_ns(),
    );
    out
}

fn traced_body() -> Body {
    Scm::new(BANDS, t_split, scan, t_merge)
}

/// Every stream's frames and their reference fits (the sequential
/// detector on one thread), computed before anything is timed.
struct Inputs {
    frames: Vec<Vec<Image<u8>>>,
    reference: Vec<Vec<Option<FittedLine>>>,
}

fn inputs(seed: u64) -> Inputs {
    let frames: Vec<Vec<Image<u8>>> = (0..STREAMS as u64)
        .map(|s| {
            (0..DISTINCT as u64)
                .map(|j| {
                    let r = stats::mix(seed, s * 64 + j);
                    let offset = (r % 81) as f64 - 40.0;
                    let curvature = ((r >> 8) % 61) as f64 / 100.0 - 0.3;
                    render_road_frame(WIDTH, HEIGHT, offset, curvature, r >> 16).0
                })
                .collect()
        })
        .collect();
    let reference = frames
        .iter()
        .map(|fs| fs.iter().map(detect_line_seq).collect())
        .collect();
    Inputs { frames, reference }
}

/// Checks every stream of a serve outcome against its reference: each
/// offered frame must have been served, in order, with the reference fit.
fn verify(
    outcome: &ServeOutcome<State, Option<FittedLine>>,
    offered: &[usize],
    inp: &Inputs,
    check: &Check,
) {
    for (s, (res, &n)) in outcome.streams.iter().zip(offered).enumerate() {
        if let Some(e) = &res.error {
            eprintln!("perfbench: serve_64cam stream {s}: worker error: {e}");
        }
        let state_ok = res.state == (s as u64, res.outputs.len() as u64) && res.error.is_none();
        for j in 0..n {
            let ok = state_ok && res.outputs.get(j) == Some(&inp.reference[s][j % DISTINCT]);
            check.frame((s as u64) << 32 | j as u64, ok, || {
                format!(
                    "stream {s} frame {j}: {} (served {} of {n}, rejected {})",
                    if j < res.outputs.len() {
                        "fit differs from the reference"
                    } else {
                        "not served"
                    },
                    res.outputs.len(),
                    res.rejected
                )
            });
        }
    }
}

/// One paced phase's measurements.
struct Paced {
    outcome: ServeOutcome<State, Option<FittedLine>>,
    /// Per frame: due time to the engine pulling the stream's next frame
    /// (which it does right after admitting this one), ns.
    admit_wait_ns: Vec<u64>,
    cpu_ms: f64,
    allocs: u64,
}

/// Serves every stream at 25 Hz Poisson arrivals for `seconds` of
/// arrivals. With `record_pulls` the sources timestamp each pull.
fn paced(
    backend: &PoolBackend,
    body: &Body,
    inp: &Inputs,
    seed: u64,
    seconds: f64,
    check: &Check,
    record_pulls: bool,
) -> Paced {
    let horizon_ns = (seconds * 1e9) as u64;
    let cap = (RATE_HZ * seconds * 3.0) as usize + 16;
    let mut streams = Vec::with_capacity(STREAMS);
    let mut offered = Vec::with_capacity(STREAMS);
    let mut dues = Vec::with_capacity(STREAMS);
    let mut pulls = Vec::with_capacity(STREAMS);
    for s in 0..STREAMS {
        let arrivals: Vec<u64> =
            traffic::poisson_arrivals_ns(stats::mix(seed, 5000 + s as u64), RATE_HZ, cap)
                .into_iter()
                .take_while(|&at| at < horizon_ns)
                .collect();
        let timed: Vec<TimedFrame<Image<u8>>> = traffic::timed(
            &arrivals,
            (0..arrivals.len()).map(|j| inp.frames[s][j % DISTINCT].clone()),
        );
        offered.push(timed.len());
        let init = (s as u64, 0);
        if record_pulls {
            let log = Rc::new(RefCell::new(Vec::with_capacity(timed.len() + 1)));
            pulls.push(Rc::clone(&log));
            let mut frames = timed.into_iter();
            streams.push(StreamSpec::new(init, move || {
                log.borrow_mut().push(trace::now_ns());
                frames.next()
            }));
        } else {
            streams.push(StreamSpec::new(init, VecSource::new(timed)));
        }
        dues.push(arrivals);
    }
    let (cpu0, allocs0) = (host::own_cpu_ms(), skipper_vision::pixel_alloc_count());
    let t_serve = trace::now_ns();
    let outcome = serve(backend, body, streams, ServeConfig::default());
    let cpu_ms = host::own_cpu_ms() - cpu0;
    let allocs = skipper_vision::pixel_alloc_count() - allocs0;
    verify(&outcome, &offered, inp, check);
    let mut admit_wait_ns = Vec::new();
    for (log, due) in pulls.iter().zip(&dues) {
        let log = log.borrow();
        for (k, &at) in due.iter().enumerate() {
            if let Some(&pulled) = log.get(k + 1) {
                admit_wait_ns.push(pulled.saturating_sub(t_serve).saturating_sub(at));
            }
        }
    }
    Paced {
        outcome,
        admit_wait_ns,
        cpu_ms,
        allocs,
    }
}

/// One saturation round: `ROUND_FRAMES` frames per stream, all available
/// at once under `Block` admission. Returns frames served per second.
fn saturate(backend: &PoolBackend, body: &Body, inp: &Inputs, frames: usize, check: &Check) -> f64 {
    let streams = (0..STREAMS)
        .map(|s| {
            let fs: Vec<Image<u8>> = (0..frames)
                .map(|j| inp.frames[s][j % DISTINCT].clone())
                .collect();
            StreamSpec::eager((s as u64, 0), VecSource::new(fs))
        })
        .collect();
    let outcome = serve(backend, body, streams, ServeConfig::default());
    verify(&outcome, &[frames; STREAMS], inp, check);
    outcome.report.throughput_fps()
}

pub fn run(args: &Args, check: &Check) -> Result<Metrics, String> {
    let inp = inputs(args.seed);
    let pixels: Vec<&[u8]> = inp.frames.iter().flatten().map(Image::as_slice).collect();
    check.set_inputs(stats::fingerprint(&pixels));
    if args.trace {
        return Ok(traced(args, &inp, check));
    }
    let mut setup = Vec::new();
    let mut windows = crate::report::Windows::default();
    let mut fps = Vec::new();
    let share = args.seconds / SETUPS as f64;
    for rep in 0..SETUPS as u64 {
        // Set-up: the pool's threads and a cold lap of one frame per
        // stream through the engine. Each set-up then measures its share
        // of the run (see `track`): a paced phase, then saturation rounds.
        crate::report::on_fresh_thread(|| {
            let t0 = Instant::now();
            let backend = PoolBackend::configured(Workers::exact(host::pool_workers()));
            let body = body();
            saturate(&backend, &body, &inp, 1, check);
            setup.push(t0.elapsed().as_secs_f64());
            let seed = stats::mix(args.seed, rep);
            let p = paced(&backend, &body, &inp, seed, share * 0.6, check, false);
            windows.add(&p.outcome.report.latencies_ns);
            let t = Instant::now();
            while t.elapsed().as_secs_f64() < share * 0.4 {
                fps.push(saturate(&backend, &body, &inp, ROUND_FRAMES, check));
            }
        });
    }
    let (p50, p95) = windows.latency_ms()?;
    Ok(Metrics::from([
        ("setup_s", stats::median(&setup)),
        ("frame_ms_p50", p50),
        ("frame_ms_p95", p95),
        ("frames_per_s", stats::median(&fps)),
        ("peak_rss_mb", host::peak_rss_mb("self")),
    ]))
}

/// The traced run: the kernel floor on one thread, then alternating
/// one-second paced phases with the plain body and sources, and with the
/// wrapped body (its `compute` span) and timestamping sources.
fn traced(args: &Args, inp: &Inputs, check: &Check) -> Metrics {
    let plain = body();
    let floor = closed_loop(args.seconds * 0.1, |k| {
        let s = k as usize % STREAMS;
        let j = (k as usize / STREAMS) % DISTINCT;
        let pair = ((s as u64, 0), inp.frames[s][j].clone());
        let t = Instant::now();
        let (_, line) = merge(split(&pair, BANDS).into_iter().map(scan).collect());
        let ns = t.elapsed().as_nanos() as u64;
        check.frame(k, line == inp.reference[s][j], || {
            format!("stream {s} frame {j}: fit differs")
        });
        ns
    });
    let backend = PoolBackend::configured(Workers::exact(host::pool_workers()));
    let wrapped = traced_body();
    saturate(&backend, &plain, inp, 1, check);
    // Alternating phases of about one second each, filling 90% of the run.
    let rounds = (args.seconds * 0.9 / 2.0).ceil().max(1.0) as u64;
    let chunk_s = args.seconds * 0.9 / (2 * rounds) as f64;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let seed = stats::mix(args.seed, round);
        off.push(paced(&backend, &plain, inp, seed, chunk_s, check, false));
        trace::set_enabled(true);
        on.push(paced(&backend, &wrapped, inp, seed, chunk_s, check, true));
        trace::set_enabled(false);
    }
    let spans = trace::take();
    trace::write_out(&format!("serve_64cam-{}", args.seed), &spans, 2000);
    let lat = |ps: &[Paced]| -> Vec<f64> {
        ps.iter()
            .flat_map(|p| {
                p.outcome
                    .report
                    .latencies_ns
                    .iter()
                    .map(|&ns| ns as f64 / 1e3)
            })
            .collect()
    };
    let (lat_off, lat_on) = (stats::median(&lat(&off)), stats::median(&lat(&on)));
    let compute = trace::durations_us(&spans, "compute");
    let compute_p50 = stats::median(&compute);
    let admit: Vec<f64> = on
        .iter()
        .flat_map(|p| p.admit_wait_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let admit_p50 = stats::median(&admit);
    let served: u64 = off.iter().map(|p| p.outcome.report.served).sum();
    let batches: u64 = off.iter().map(|p| p.outcome.report.batches).sum();
    let elapsed_on: u64 = on.iter().map(|p| p.outcome.report.elapsed_ns).sum();
    let floor_ms = stats::median(&stats::ns_to_ms(&floor));
    Metrics::from([
        ("kernel_floor_ms", floor_ms),
        (
            "arena.allocs_per_frame",
            off.iter().map(|p| p.allocs).sum::<u64>() as f64 / served.max(1) as f64,
        ),
        ("skeleton.overhead_us", lat_on - compute_p50),
        ("floor_ratio", lat_off / 1e3 / floor_ms),
        (
            "pool.busy_share",
            compute.iter().sum::<f64>() * 1e3
                / (host::pool_workers() as f64 * elapsed_on.max(1) as f64),
        ),
        ("serve.admit_wait_us", admit_p50),
        ("serve.compute_us", compute_p50),
        ("serve.residual_us", lat_on - admit_p50 - compute_p50),
        (
            "serve.frames_per_batch",
            served as f64 / batches.max(1) as f64,
        ),
        (
            "host.cpu_ms_per_frame",
            off.iter().map(|p| p.cpu_ms).sum::<f64>() / served.max(1) as f64,
        ),
        (
            "trace.overhead_pct",
            crate::report::overhead_pct(lat_on, lat_off),
        ),
    ])
}
