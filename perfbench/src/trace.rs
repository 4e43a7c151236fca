//! Spans recorded by the benchmark's own wrappers around the calls it
//! makes into each layer. Spans are kept in memory (one buffer per
//! thread, so recording never contends) and written out when the run
//! ends. Recording is off unless a traced phase switches it on; a
//! wrapper with recording off costs one atomic load.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The frame the span belongs to; spans of one frame share it.
    pub frame: u64,
    /// The layer call (`split`, `label`, `detect`, ...).
    pub name: &'static str,
    /// The span that caused this one (`""` for a frame's root span).
    pub parent: &'static str,
    /// Small dense id of the recording thread.
    pub tid: u32,
    /// Start, nanoseconds since the process's trace epoch.
    pub start: u64,
    /// End, nanoseconds since the process's trace epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

type Sink = Arc<Mutex<Vec<Span>>>;

static ON: AtomicBool = AtomicBool::new(false);
static FRAME: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static SINKS: Mutex<Vec<Sink>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: (u32, Sink) = {
        let sink: Sink = Arc::default();
        SINKS.lock().expect("span registry poisoned").push(Arc::clone(&sink));
        (NEXT_TID.fetch_add(1, Ordering::Relaxed), sink)
    };
}

/// Switches recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Whether recording is on.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Sets the frame id that [`span`] stamps on spans (closed loops run one
/// frame at a time, so one global id serves every thread).
pub fn set_frame(frame: u64) {
    FRAME.store(frame, Ordering::Relaxed);
}

/// Nanoseconds since the trace epoch (the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records a finished span on the calling thread's buffer, when
/// recording is on.
pub fn record(frame: u64, name: &'static str, parent: &'static str, start: u64, end: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|(tid, sink)| {
        sink.lock().expect("span buffer poisoned").push(Span {
            frame,
            name,
            parent,
            tid: *tid,
            start,
            end,
        });
    });
}

/// Runs `f` inside a span of the current frame.
pub fn span<R>(name: &'static str, parent: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let r = f();
    record(FRAME.load(Ordering::Relaxed), name, parent, start, now_ns());
    r
}

/// Runs one frame inside its root `run` span; returns the result and
/// the frame's wall time in ns (measured whether or not recording is on).
pub fn root<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = now_ns();
    let r = f();
    let end = now_ns();
    record(FRAME.load(Ordering::Relaxed), "run", "", start, end);
    (r, end - start)
}

/// Takes every recorded span from every thread, ordered by frame and
/// start time.
pub fn take() -> Vec<Span> {
    let mut all = Vec::new();
    for sink in SINKS.lock().expect("span registry poisoned").iter() {
        all.append(&mut sink.lock().expect("span buffer poisoned"));
    }
    all.sort_by_key(|s| (s.frame, s.start));
    all
}

/// Spans grouped by frame.
pub fn by_frame(spans: &[Span]) -> BTreeMap<u64, Vec<Span>> {
    let mut frames: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        frames.entry(s.frame).or_default().push(*s);
    }
    frames
}

/// Writes the spans of the first `max_frames` frames as JSON lines
/// `{frame, name, start, end, parent, tid}` to `out/trace-<tag>.jsonl`
/// in the benchmark's directory. A write failure is reported, not fatal:
/// the metrics do not depend on the file.
pub fn write_out(tag: &str, spans: &[Span], max_frames: usize) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{tag}.jsonl"));
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (_, frame) in by_frame(spans).iter().take(max_frames) {
            for s in frame {
                writeln!(
                    out,
                    "{{\"frame\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":\"{}\",\"tid\":{}}}",
                    s.frame, s.name, s.start, s.end, s.parent, s.tid
                )?;
            }
        }
        out.flush()
    });
    if let Err(e) = result {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Per-frame skeleton timings read from the spans of a fan-out/fan-in
/// frame: a `root` span around the whole run, optional `pre`/`post`
/// kernel spans before and after the parallel section, an optional
/// `dispatch` span around the skeleton call, and `compute` spans (plus
/// any other `chain` kernels) on the worker threads. All in µs.
#[derive(Debug, Default)]
pub struct FanStats {
    /// Frame wall time minus the kernel critical path.
    pub overhead_us: Vec<f64>,
    /// Dispatch entry to the first compute span.
    pub fanout_us: Vec<f64>,
    /// Last compute span to dispatch exit.
    pub join_us: Vec<f64>,
    /// Compute time over `threads` × frame wall time.
    pub busy_share: Vec<f64>,
    /// Sum of compute spans per frame.
    pub compute_sum_us: Vec<f64>,
    /// Compute spans per frame.
    pub units: Vec<f64>,
}

/// The span names of one fan-out/fan-in frame shape.
#[derive(Debug, Clone, Copy)]
pub struct FanShape {
    pub root: &'static str,
    pub pre: &'static str,
    pub dispatch: Option<&'static str>,
    pub compute: &'static str,
    pub chain: &'static [&'static str],
    pub post: &'static str,
}

/// Reads [`FanStats`] from spans grouped by frame; frames without a root
/// or compute span are skipped.
pub fn fan_stats(frames: &BTreeMap<u64, Vec<Span>>, shape: FanShape, threads: usize) -> FanStats {
    let mut st = FanStats::default();
    for spans in frames.values() {
        let find = |name: &str| spans.iter().find(|s| s.name == name);
        let Some(root) = find(shape.root) else {
            continue;
        };
        let compute: Vec<&Span> = spans.iter().filter(|s| s.name == shape.compute).collect();
        if compute.is_empty() {
            continue;
        }
        let pre = find(shape.pre);
        let post = find(shape.post);
        let dispatch = shape.dispatch.and_then(find);
        let first = compute.iter().map(|s| s.start).min().unwrap_or(root.start);
        let last = compute.iter().map(|s| s.end).max().unwrap_or(root.end);
        let entry = dispatch
            .map(|d| d.start)
            .or(pre.map(|p| p.end))
            .unwrap_or(root.start);
        let exit = dispatch
            .map(|d| d.end)
            .or(post.map(|p| p.start))
            .unwrap_or(root.end);
        let mut per_thread: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans
            .iter()
            .filter(|s| s.name == shape.compute || shape.chain.contains(&s.name))
        {
            *per_thread.entry(s.tid).or_default() += s.dur();
        }
        let parallel = per_thread.values().copied().max().unwrap_or(0);
        let critical = pre.map_or(0, Span::dur) + parallel + post.map_or(0, Span::dur);
        let compute_sum: u64 = compute.iter().map(|s| s.dur()).sum();
        let wall = root.dur().max(1);
        st.overhead_us.push((wall as f64 - critical as f64) / 1e3);
        st.fanout_us.push(first.saturating_sub(entry) as f64 / 1e3);
        st.join_us.push(exit.saturating_sub(last) as f64 / 1e3);
        st.busy_share
            .push(compute_sum as f64 / (threads as f64 * wall as f64));
        st.compute_sum_us.push(compute_sum as f64 / 1e3);
        st.units.push(compute.len() as f64);
    }
    st
}

/// Durations in µs of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, tid: u32, start: u64, end: u64) -> Span {
        Span {
            frame: 1,
            name,
            parent: "run",
            tid,
            start,
            end,
        }
    }

    #[test]
    fn fan_stats_reads_a_two_thread_frame() {
        let spans = vec![
            sp("run", 0, 0, 10_000),
            sp("split", 0, 0, 1_000),
            sp("label", 1, 2_000, 5_000),
            sp("label", 0, 2_500, 6_000),
            sp("merge", 0, 7_000, 9_000),
        ];
        let frames = by_frame(&spans);
        let shape = FanShape {
            root: "run",
            pre: "split",
            dispatch: None,
            compute: "label",
            chain: &[],
            post: "merge",
        };
        let st = fan_stats(&frames, shape, 2);
        // critical path = 1 + max(3, 3.5) + 2 = 6.5 µs of a 10 µs frame.
        assert_eq!(st.overhead_us, vec![3.5]);
        assert_eq!(st.fanout_us, vec![1.0]);
        assert_eq!(st.join_us, vec![1.0]);
        assert_eq!(st.compute_sum_us, vec![6.5]);
        assert_eq!(st.units, vec![2.0]);
        assert!((st.busy_share[0] - 6.5 / 20.0).abs() < 1e-12);
    }
}
