//! The benchmark's command line, its declared metrics, the correctness
//! gate, the timing loops every workload shares, and the result line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use crate::{host, stats, trace};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["track_dsl", "serve_64cam", "fleet_df"];

/// End-to-end metrics `(name, unit)`: every untraced run prints each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p95", "ms"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: every traced run prints each. A
/// layer the workload never calls into reads 0 (no calls, no time).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel_floor_ms", "ms"),
    ("arena.allocs_per_frame", "count"),
    ("skeleton.overhead_us", "us"),
    ("floor_ratio", "ratio"),
    ("pool.fanout_us", "us"),
    ("pool.join_us", "us"),
    ("pool.busy_share", "ratio"),
    ("df.units_per_frame", "count"),
    ("df.detect_us", "us"),
    ("df.accum_us", "us"),
    ("lang.compile_ms", "ms"),
    ("lang.body_overhead_us", "us"),
    ("serve.admit_wait_us", "us"),
    ("serve.compute_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.frames_per_batch", "count"),
    ("wire.frame_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("dist.rtt_floor_us", "us"),
    ("host.cpu_ms_per_frame", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <track_dsl|serve_64cam|fleet_df> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`; all four
    /// are required.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut argv = argv.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| **w == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The correctness gate: every frame's output is compared with its
/// reference, computed outside the timed region. Mismatches, errors and
/// rejections count as failed and are printed with the workload and the
/// frame index. Shared by reference, so every frame step of a run can report to it.
#[derive(Debug)]
pub struct Check {
    workload: &'static str,
    attempted: AtomicU64,
    failed: AtomicU64,
    inputs: AtomicU64,
}

impl Check {
    pub fn new(workload: &'static str) -> Check {
        Check {
            workload,
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            inputs: AtomicU64::new(0),
        }
    }

    /// Records the fingerprint of the generated inputs (see
    /// [`stats::fingerprint`]), printed in the stamp.
    pub fn set_inputs(&self, fingerprint: u64) {
        self.inputs.store(fingerprint, Relaxed);
    }

    /// The fingerprint of the generated inputs.
    pub fn inputs(&self) -> u64 {
        self.inputs.load(Relaxed)
    }

    /// Frames checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Relaxed)
    }

    /// Frames that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Relaxed)
    }

    /// Records one frame; `detail` is rendered only for a failure.
    pub fn frame(&self, index: u64, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Relaxed);
        if !ok && self.failed.fetch_add(1, Relaxed) < 20 {
            eprintln!(
                "perfbench: {} frame {index}: FAILED: {}",
                self.workload,
                detail()
            );
        }
    }

    /// Failed frames over attempted frames.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }
}

/// Runs `step(k)` for k = 0, 1, 2, ... until `seconds` have passed and
/// returns what each step measured (its frame latency in ns). Each frame
/// is submitted only after the previous one returned: one client.
pub fn closed_loop(seconds: f64, mut step: impl FnMut(u64) -> u64) -> Vec<u64> {
    let t0 = Instant::now();
    let mut lat = Vec::new();
    let mut k = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        lat.push(step(k));
        k += 1;
    }
    lat
}

/// Runs one set-up and its share of the run on a fresh client thread.
/// Where the scheduler places the client — which CPU, beside which other
/// thread — is then decided anew for every set-up and sampled as often as
/// everything else a set-up decides, instead of once per process.
pub fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join()).unwrap_or_else(|p| std::panic::resume_unwind(p))
}

/// Fewest frames a latency window holds: ten lie beyond its p95.
const MIN_WINDOW: usize = 200;

/// Per-window latency percentiles of a run. Each set-up's frames join
/// the open window, which closes at the first set-up boundary where it
/// holds at least 200 frames; a trailing remainder of fewer is not used.
/// Only the open window's latencies are kept, so the benchmark's own
/// bookkeeping adds a small, constant amount to `peak_rss_mb`.
#[derive(Debug, Default)]
pub struct Windows {
    open: Vec<u64>,
    p50_ms: Vec<f64>,
    p95_ms: Vec<f64>,
}

impl Windows {
    /// Adds one set-up's frame latencies (ns, in completion order).
    pub fn add(&mut self, lat_ns: &[u64]) {
        self.open.extend_from_slice(lat_ns);
        if self.open.len() >= MIN_WINDOW {
            let ms = stats::ns_to_ms(&self.open);
            self.p50_ms.push(stats::percentile(&ms, 50.0));
            self.p95_ms.push(stats::percentile(&ms, 95.0));
            self.open.clear();
        }
    }

    /// `(p50, p95)` in ms: each the median over the windows of that
    /// window's percentile.
    pub fn latency_ms(&self) -> Result<(f64, f64), String> {
        if self.p50_ms.is_empty() {
            return Err(format!(
                "no latency window of {MIN_WINDOW} frames was filled; run longer"
            ));
        }
        Ok((stats::median(&self.p50_ms), stats::median(&self.p95_ms)))
    }
}

/// Times one call, in ns.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// One variant of an interleaved comparison: a closed-loop frame step
/// plus what its blocks measured.
pub struct Phase<'a> {
    traced: bool,
    step: Box<dyn FnMut(u64) -> u64 + 'a>,
    next: u64,
    /// Frame latencies in ns.
    pub lat: Vec<u64>,
    /// CPU time of this process (and its children) during the blocks.
    pub cpu_ms: f64,
    /// `pixel_alloc_count` growth during the blocks.
    pub allocs: u64,
}

impl<'a> Phase<'a> {
    /// A variant whose blocks run with span recording on (`traced`) or
    /// off.
    pub fn new(traced: bool, step: impl FnMut(u64) -> u64 + 'a) -> Phase<'a> {
        Phase {
            traced,
            step: Box::new(step),
            next: 0,
            lat: Vec::new(),
            cpu_ms: 0.0,
            allocs: 0,
        }
    }

    /// Runs `frames` unmeasured frames: the cold lap before any block.
    pub fn warm(&mut self, frames: u64) {
        for k in 0..frames {
            (self.step)(k);
        }
    }

    /// Median frame latency in ms.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&stats::ns_to_ms(&self.lat))
    }

    /// CPU ms per frame over this variant's blocks.
    pub fn cpu_ms_per_frame(&self) -> f64 {
        self.cpu_ms / self.lat.len().max(1) as f64
    }

    /// Pixel-buffer allocations per frame over this variant's blocks.
    pub fn allocs_per_frame(&self) -> f64 {
        self.allocs as f64 / self.lat.len().max(1) as f64
    }
}

/// Runs the variants in alternating blocks of `block_s` seconds for
/// `seconds` in all, so slow drift in the host hits every variant alike.
/// Every frame gets a fresh global id for its spans.
pub fn interleave(phases: &mut [Phase<'_>], seconds: f64, block_s: f64, with_children: bool) {
    let cpu = || {
        if with_children {
            host::cpu_ms_with_children()
        } else {
            host::own_cpu_ms()
        }
    };
    let t0 = Instant::now();
    let mut frame_id = 1u64 << 40;
    while t0.elapsed().as_secs_f64() < seconds {
        for p in phases.iter_mut() {
            trace::set_enabled(p.traced);
            let (c0, a0) = (cpu(), skipper_vision::pixel_alloc_count());
            let tb = Instant::now();
            while tb.elapsed().as_secs_f64() < block_s {
                trace::set_frame(frame_id);
                frame_id += 1;
                let ns = (p.step)(p.next);
                p.lat.push(ns);
                p.next += 1;
            }
            trace::set_enabled(false);
            p.cpu_ms += cpu() - c0;
            p.allocs += skipper_vision::pixel_alloc_count() - a0;
        }
    }
}

/// Percent by which `traced` exceeds `untraced`.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced - untraced) / untraced.max(f64::MIN_POSITIVE) * 100.0
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every declared metric of the run's kind. A metric the workload did
/// not produce is an error for an end-to-end run and 0 for a traced run
/// (the layer was never called); an undeclared or non-finite value is
/// an error.
pub fn result_line(check: &Check, traced: bool, metrics: &Metrics) -> Result<String, String> {
    let declared = if traced { PER_LAYER } else { END_TO_END };
    for name in metrics.keys() {
        if !declared.iter().any(|(d, _)| d == name) {
            return Err(format!("metric {name} is not declared for this run kind"));
        }
    }
    let mut parts = Vec::new();
    for (name, unit) in declared {
        let value = match metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed() == 0 && check.attempted() > 0,
        check.attempted(),
        check.failed(),
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn declared_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn parse_requires_every_flag() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = Args::parse(argv("--workload fleet_df --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("fleet_df", 3, 2.0, true)
        );
        assert!(Args::parse(argv("--workload fleet_df --seed 3 --seconds 2")).is_err());
        assert!(Args::parse(argv("--workload nope --seed 3 --seconds 2 --trace 0")).is_err());
        assert!(Args::parse(argv("--workload fleet_df --seed 3 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn windows_close_at_set_up_boundaries_once_full() {
        let mut w = Windows::default();
        assert!(w.latency_ms().is_err());
        // Two short set-ups join one window; a third fills its own; the
        // short remainder is not used.
        w.add(&[1_000_000; 120]);
        w.add(&[1_000_000; 120]);
        w.add(&[3_000_000; 200]);
        w.add(&[9_000_000; 10]);
        assert_eq!(w.p50_ms, vec![1.0, 3.0]);
        assert_eq!(w.latency_ms().unwrap(), (1.0, 1.0));
    }

    #[test]
    fn result_line_lists_declared_metrics_only() {
        let check = Check::new("track_dsl");
        check.frame(0, true, String::new);
        let mut m: Metrics = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(&check, false, &m).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        m.remove("setup_s");
        assert!(result_line(&check, false, &m).is_err());
        m.insert("df.detect_us", 1.0);
        assert!(result_line(&check, false, &m).is_err());
        let traced = result_line(&check, true, &Metrics::new()).unwrap();
        assert!(traced.contains("\"trace.overhead_pct\": {\"value\": 0.0, \"unit\": \"%\"}"));
    }
}
