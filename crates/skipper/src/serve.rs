//! The frame-serving engine: many `itermem` streams over one dispatcher.
//!
//! The paper's applications each own their machine — one tracking loop,
//! one Transputer network. This module is the modern many-tenant
//! counterpart: one plain loop on the calling thread multiplexes N
//! concurrent stream-processing loops (each the Fig. 4 `itermem` pattern:
//! state `Z` threaded across frames `B`) over any [`Dispatch`], so a
//! workstation-class host can serve many cameras with one set of worker
//! threads.
//!
//! Architecture (one `serve` call). Each pass of the loop does four
//! things:
//!
//! 1. **Admit.** Frames whose (virtual) arrival time has come pass
//!    **admission control**: a global bound on admitted-but-incomplete
//!    frames ([`ServeConfig::max_in_flight`]) plus a per-stream
//!    waiting-queue bound ([`ServeConfig::per_stream_queue`]). When a bound
//!    is hit the [`AdmissionPolicy`] decides: `Reject` drops the frame at
//!    the door (counted per stream), `Block` holds it there — per-stream
//!    head-of-line only, so a stalled stream cannot starve its neighbours.
//! 2. **Collect.** Every stream with an admitted frame contributes one
//!    request, in stream order. A stream's state is taken out of its lane
//!    while its frame is in the round, so a stream has at most one frame
//!    in flight and its frames run in order.
//! 3. **Batch.** The requests are cut **across streams** into batches of
//!    at most [`ServeConfig::max_batch`] frames, amortising dispatch costs
//!    exactly where per-frame work is tiny.
//! 4. **Round and settle.** The batches run as the units of one farm
//!    round on the dispatcher (routed to lanes like any farm unit). Each
//!    frame runs the loop body's *declarative* semantics under
//!    `catch_unwind` and is timestamped as it completes — parallelism
//!    comes from serving frames concurrently, not from inside a frame.
//!    Settling returns each state to its lane, records the outputs and
//!    latencies (completion − arrival) and frees admission capacity.
//!
//! When nothing is ready the loop waits for the next arrival; when
//! nothing is pending it returns. The wait must end on time, and an OS
//! sleep wakes late by the thread's timer slack (50 µs by default on
//! Linux) — half of a small frame's latency. So the loop learns that
//! overshoot (a decaying maximum of how late its sleeps woke), sleeps the
//! gap minus it and spins the rest. No frame is admitted before its
//! arrival time; the price is the engine thread spinning for about one
//! timer slack per idle wait. The trade-off of rounds: a round lasts as
//! long as its slowest batch, and nothing is admitted while it runs.
//!
//! Frame payloads are **never cloned** inside the engine: a frame is
//! moved from its source into the request and lent to the round by
//! reference. With `Arc`-backed payloads (e.g. `skipper_vision::Image`)
//! even user-side fan-in clones are refcount bumps, so submitting a 4K
//! frame moves pointers, not pixels.
//!
//! Everything observable is deterministic for eager arrivals (all
//! `at_ns = 0`) on every dispatcher: admission order, rejection counts,
//! the whole batch trace and per-stream outputs are pure functions of the
//! inputs — the properties the unit tests and the serving conformance
//! axis pin down. Wall-clock latencies are metrics only.
//!
//! Frame arrivals are [`TimedFrame`]s pulled from any
//! [`FrameSource`]; [`traffic`] generates open-loop
//! arrival processes (Poisson, bursty, skewed rate ladders) on the
//! deterministic `rand` shim for saturation experiments (E16).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::backend::{map_units, Dispatch};
use crate::itermem::FrameSource;
use crate::program::Skeleton;

/// What happens to a frame that arrives while the engine is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Drop the frame at arrival and count it in
    /// [`StreamResult::rejected`] — the load-shedding regime of a
    /// real-time server that must stay current.
    Reject,
    /// Hold the frame at the door until capacity frees — lossless
    /// backpressure; arrival timestamps still drive latency accounting.
    #[default]
    Block,
}

/// Capacity and batching knobs for [`serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Global bound on frames admitted but not yet completed (waiting in
    /// a stream queue or running in the current round).
    pub max_in_flight: usize,
    /// Bound on each stream's admitted-but-unsubmitted waiting queue.
    pub per_stream_queue: usize,
    /// Most frames packed into one farm unit of a round (cross-stream
    /// batching).
    pub max_batch: usize,
    /// Reject-vs-block at the admission door.
    pub admission: AdmissionPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 64,
            per_stream_queue: 4,
            max_batch: 8,
            admission: AdmissionPolicy::Block,
        }
    }
}

/// A frame stamped with its (virtual) arrival time in nanoseconds from
/// the start of the `serve` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFrame<B> {
    /// Arrival offset in nanoseconds (0 = available immediately).
    pub at_ns: u64,
    /// The frame payload.
    pub frame: B,
}

impl<B> TimedFrame<B> {
    /// A frame arriving `at_ns` nanoseconds into the run.
    pub fn at(at_ns: u64, frame: B) -> Self {
        TimedFrame { at_ns, frame }
    }

    /// A frame available from the start (arrival time 0).
    pub fn eager(frame: B) -> Self {
        TimedFrame { at_ns: 0, frame }
    }
}

/// One stream to serve: the loop's initial state plus its arrival
/// process, any [`FrameSource`] of [`TimedFrame`]s.
pub struct StreamSpec<Z, B> {
    init: Z,
    source: Box<dyn FrameSource<TimedFrame<B>>>,
}

impl<Z, B> StreamSpec<Z, B> {
    /// A stream fed by an arbitrary timed source.
    pub fn new(init: Z, source: impl FrameSource<TimedFrame<B>> + 'static) -> Self {
        StreamSpec {
            init,
            source: Box::new(source),
        }
    }

    /// A stream whose frames are all available immediately — the closed
    /// feed the determinism tests and the conformance axis use.
    pub fn eager(init: Z, mut frames: impl FrameSource<B> + 'static) -> Self {
        StreamSpec::new(init, move || frames.next_frame().map(TimedFrame::eager))
    }

    /// A stream replaying a recorded arrival trace.
    pub fn timed(init: Z, arrivals: Vec<TimedFrame<B>>) -> Self
    where
        B: 'static,
    {
        StreamSpec::new(init, crate::itermem::VecSource::new(arrivals))
    }
}

impl<Z, B> std::fmt::Debug for StreamSpec<Z, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSpec").finish_non_exhaustive()
    }
}

/// Per-stream results of a [`serve`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamResult<Z, Y> {
    /// Final loop state after the last served frame.
    pub state: Z,
    /// One output per **served** frame, in frame order.
    pub outputs: Vec<Y>,
    /// Frames dropped at the admission door
    /// ([`AdmissionPolicy::Reject`] only).
    pub rejected: u64,
    /// `Some(panic message)` when the body panicked serving one of this
    /// stream's frames. The stream stops at the poisoned frame — `state`
    /// is the state *before* it, `outputs` covers the frames served
    /// before it — while every other stream keeps running.
    pub error: Option<String>,
}

/// Aggregate metrics of a [`serve`] run.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Frames served to completion across all streams.
    pub served: u64,
    /// Frames rejected at admission across all streams.
    pub rejected: u64,
    /// Frames whose body panicked (each poisons its stream; see
    /// [`StreamResult::error`]).
    pub failed: u64,
    /// Batches dispatched (each carrying up to `max_batch` frames).
    pub batches: u64,
    /// Wall-clock duration of the run.
    pub elapsed_ns: u64,
    /// Per-served-frame latency (completion − arrival), settle order:
    /// round by round, stream order within a round.
    pub latencies_ns: Vec<u64>,
    /// `(stream, seq)` composition of every batch, dispatch order — the
    /// trace the batching tests assert on, deterministic under eager
    /// arrivals.
    pub batch_trace: Vec<Vec<(usize, u64)>>,
    /// Lazily sorted copy of `latencies_ns`, built on the first
    /// percentile query and shared by all later ones.
    sorted_latencies: std::sync::OnceLock<Vec<u64>>,
}

impl ServeReport {
    /// Nearest-rank latency percentile (`p` in 0..=100) in nanoseconds;
    /// 0 when nothing was served.
    ///
    /// The first query sorts the latencies once and caches the result;
    /// subsequent queries are a rank lookup. The report is treated as
    /// read-only once the run has produced it — mutating `latencies_ns`
    /// after querying a percentile does not refresh the cache.
    pub fn latency_percentile_ns(&self, p: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let sorted = self.sorted_latencies.get_or_init(|| {
            let mut sorted = self.latencies_ns.clone();
            sorted.sort_unstable();
            sorted
        });
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Arithmetic mean of the per-frame latencies in nanoseconds; 0.0
    /// when nothing was served.
    pub fn latency_mean_ns(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        self.latencies_ns.iter().sum::<u64>() as f64 / self.latencies_ns.len() as f64
    }

    /// Served frames per second of wall-clock time.
    pub fn throughput_fps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.served as f64 * 1e9 / self.elapsed_ns as f64
    }
}

/// Everything a [`serve`] call produces.
#[derive(Debug)]
pub struct ServeOutcome<Z, Y> {
    /// Per-stream states, outputs and rejection counts, stream order.
    pub streams: Vec<StreamResult<Z, Y>>,
    /// Aggregate latency/throughput/batching metrics.
    pub report: ServeReport,
}

/// An admitted frame taken into a round: the stream's loop state, moved
/// out of its lane, paired with the frame. The round's jobs only borrow
/// it, so a panicking frame still leaves its pre-frame state here.
struct Request<Z, B> {
    stream: usize,
    seq: u64,
    at_ns: u64,
    pair: (Z, B),
}

/// Renders a caught panic payload as the stream's error message.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Per-stream lane state.
struct Lane<Z, B, Y> {
    source: Box<dyn FrameSource<TimedFrame<B>>>,
    /// Peeked arrival not yet past the admission door.
    head: Option<TimedFrame<B>>,
    source_done: bool,
    /// Admitted frames waiting for a round: `(seq, at_ns, frame)`.
    queue: VecDeque<(u64, u64, B)>,
    next_seq: u64,
    /// The loop state; `None` while the stream's frame is in a round.
    state: Option<Z>,
    rejected: u64,
    outputs: Vec<Y>,
    error: Option<String>,
}

impl<Z, B, Y> Lane<Z, B, Y> {
    fn new(spec: StreamSpec<Z, B>) -> Self {
        Lane {
            source: spec.source,
            head: None,
            source_done: false,
            queue: VecDeque::new(),
            next_seq: 0,
            state: Some(spec.init),
            rejected: 0,
            outputs: Vec::new(),
            error: None,
        }
    }

    /// Ensures `head` holds the next pending arrival, if any.
    fn peek(&mut self) {
        if self.head.is_none() && !self.source_done {
            self.head = self.source.next_frame();
            if self.head.is_none() {
                self.source_done = true;
            }
        }
    }

    /// Takes the lane's next admitted frame, with its state, into a round.
    fn request(&mut self, stream: usize) -> Option<Request<Z, B>> {
        let (seq, at_ns, frame) = self.queue.pop_front()?;
        let z = self.state.take().expect("stream state present");
        Some(Request {
            stream,
            seq,
            at_ns,
            pair: (z, frame),
        })
    }
}

/// The event loop's state (everything here lives on the calling thread).
struct Engine<Z, B, Y> {
    lanes: Vec<Lane<Z, B, Y>>,
    /// Frames admitted and not yet settled (queued or in the round).
    admitted_incomplete: usize,
    report: ServeReport,
}

impl<Z, B, Y> Engine<Z, B, Y> {
    /// One admission pass at virtual time `now_ns`: moves arrived frames
    /// past the door per the policy.
    fn admit(&mut self, now_ns: u64, cfg: &ServeConfig) {
        for i in 0..self.lanes.len() {
            loop {
                let global_full = self.admitted_incomplete >= cfg.max_in_flight;
                let lane = &mut self.lanes[i];
                lane.peek();
                let Some(h) = &lane.head else { break };
                if h.at_ns > now_ns {
                    break;
                }
                if global_full || lane.queue.len() >= cfg.per_stream_queue {
                    match cfg.admission {
                        AdmissionPolicy::Reject => {
                            lane.head = None;
                            lane.rejected += 1;
                            self.report.rejected += 1;
                            continue;
                        }
                        // Head-of-line for this stream only; neighbours
                        // keep being admitted.
                        AdmissionPolicy::Block => break,
                    }
                }
                let h = lane.head.take().expect("peeked head");
                let seq = lane.next_seq;
                lane.next_seq += 1;
                lane.queue.push_back((seq, h.at_ns, h.frame));
                self.admitted_incomplete += 1;
            }
        }
    }

    /// Settles one frame of a round: its slot frees and its state returns
    /// to the lane — the stepped state with the output and latency of a
    /// served frame, or the pre-frame state of a panicked one, which
    /// poisons the stream.
    fn settle(&mut self, req: Request<Z, B>, out: Result<(Z, Y), String>, done_ns: u64) {
        self.admitted_incomplete -= 1;
        let lane = &mut self.lanes[req.stream];
        match out {
            Ok((z, y)) => {
                lane.state = Some(z);
                lane.outputs.push(y);
                self.report.served += 1;
                self.report
                    .latencies_ns
                    .push(done_ns.saturating_sub(req.at_ns));
            }
            Err(error) => {
                lane.state = Some(req.pair.0);
                self.report.failed += 1;
                self.abandon(req.stream, error);
            }
        }
    }

    /// Poisons lane `i` after a frame panicked: records the error, then
    /// drops the lane's admitted-but-unserved queue and pending arrivals,
    /// releasing their admission slots so neighbours regain capacity and
    /// the run still terminates.
    fn abandon(&mut self, i: usize, error: String) {
        let lane = &mut self.lanes[i];
        lane.error = Some(error);
        self.admitted_incomplete -= lane.queue.len();
        lane.queue.clear();
        lane.head = None;
        lane.source_done = true;
    }
}

/// The longest single sleep of the idle wait: a far-off arrival is
/// approached in steps, each refreshing the learned slack.
const SLEEP_CAP_NS: u64 = 1_000_000;

/// The engine's idle wait: returns once `now_ns() >= at`, or after one
/// capped sleep when `at` is further off than [`SLEEP_CAP_NS`].
///
/// An OS sleep wakes late by up to the thread's timer slack (50 µs by
/// default on Linux), so sleeping the whole gap would make every frame
/// that arrives while the engine idles pay that slack before it is
/// admitted. Instead the wait sleeps the gap minus `slack`, the overshoot
/// learned so far, and spins out the rest. `slack` is a decaying maximum
/// of the observed overshoot: each wait sets it to
/// `max(over, slack − slack/8)`, capped at [`SLEEP_CAP_NS`], where `over`
/// is how late this wait's sleep woke (0 when it did not sleep, so a
/// slack inflated by one preempted sleep decays even when every gap is
/// shorter than it). Returns the updated slack.
fn wait_until(at: u64, slack: u64, now_ns: &impl Fn() -> u64) -> u64 {
    let start = now_ns();
    let sleep = at.saturating_sub(start).saturating_sub(slack);
    let ask = sleep.min(SLEEP_CAP_NS);
    let mut over = 0;
    if ask > 0 {
        std::thread::sleep(Duration::from_nanos(ask));
        over = (now_ns() - start).saturating_sub(ask);
    }
    // After a capped sleep the arrival is still far off: the next pass
    // waits again rather than spinning out the remainder.
    if ask == sleep {
        while now_ns() < at {
            std::hint::spin_loop();
        }
    }
    over.max(slack - slack / 8).min(SLEEP_CAP_NS)
}

/// Serves every stream to completion over `backend` and returns
/// per-stream results plus aggregate metrics.
///
/// `body` is the stream-loop body in the [`crate::itermem()`] shape —
/// any skeleton program mapping `&(Z, B)` to `(Z, Y)` — and runs its
/// declarative semantics once per frame inside a farm round on
/// `backend`: the engine's parallelism is *across* the frames of
/// different streams. The loop itself runs on the calling thread, in
/// passes of admit → collect → batch → round and settle (see the
/// [module docs](self)); a round lasts as long as its slowest batch, and
/// nothing is admitted while it runs. Between rounds the loop waits for
/// the next arrival by sleeping the gap minus the sleep overshoot it has
/// learned and spinning the rest, so an idle engine admits a frame at its
/// arrival time rather than one timer slack later, at the cost of
/// spinning about that long per idle wait.
///
/// Per-stream outputs are exactly those of a sequential prepared
/// `itermem` run over the admitted frames (the serving conformance axis);
/// under [`AdmissionPolicy::Block`] no frame is dropped, so they equal
/// the full sequential run. Under eager arrivals the whole
/// [`ServeReport::batch_trace`] is deterministic, on every dispatcher.
///
/// # Panics
///
/// When any [`ServeConfig`] bound is zero. A panic inside `body` does not
/// propagate: it poisons only its stream (see [`StreamResult::error`]).
///
/// # Example
///
/// ```
/// use skipper::{scm, serve, PoolBackend, ServeConfig, StreamSpec, Workers};
///
/// // Loop body: split the frame, square the halves, sum with the state.
/// let body = scm(
///     2,
///     |&(z, ref frame): &(u64, Vec<u64>), n| {
///         let mid = frame.len() / 2;
///         vec![(z, frame[..mid].to_vec()), (0, frame[mid..].to_vec())].into_iter().take(n).collect()
///     },
///     |(z, part): (u64, Vec<u64>)| z + part.iter().map(|x| x * x).sum::<u64>(),
///     |parts: Vec<u64>| {
///         let y: u64 = parts.iter().sum();
///         (y, y)
///     },
/// );
/// let backend = PoolBackend::configured(Workers::exact(2));
/// let streams = (0..4)
///     .map(|s| StreamSpec::eager(0u64, skipper::stream_of(vec![vec![s, s + 1], vec![s + 2]])))
///     .collect();
/// let outcome = serve(&backend, &body, streams, ServeConfig::default());
/// assert_eq!(outcome.report.served, 8);
/// assert_eq!(outcome.streams.len(), 4);
/// ```
pub fn serve<P, Z, B, Y>(
    backend: &dyn Dispatch,
    body: &P,
    streams: Vec<StreamSpec<Z, B>>,
    config: ServeConfig,
) -> ServeOutcome<Z, Y>
where
    P: for<'a> Skeleton<&'a (Z, B), Output = (Z, Y)> + Sync,
    Z: Send + Sync,
    B: Send + Sync,
    Y: Send,
{
    assert!(config.max_in_flight > 0, "max_in_flight must be positive");
    assert!(
        config.per_stream_queue > 0,
        "per_stream_queue must be positive"
    );
    assert!(config.max_batch > 0, "max_batch must be positive");
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let mut engine = Engine {
        lanes: streams.into_iter().map(Lane::new).collect(),
        admitted_incomplete: 0,
        report: ServeReport::default(),
    };
    let mut round = Vec::new();
    let mut slack = 0;
    loop {
        let now = now_ns();
        engine.admit(now, &config);
        round.extend(
            engine
                .lanes
                .iter_mut()
                .enumerate()
                .filter_map(|(i, lane)| lane.request(i)),
        );
        if round.is_empty() {
            // Nothing ready: wait for the next arrival, or finish when
            // nothing is pending. Heads are peeked by the admission pass.
            let heads = engine.lanes.iter().filter_map(|l| l.head.as_ref());
            match heads.map(|h| h.at_ns).min() {
                Some(at) => slack = wait_until(at, slack, &now_ns),
                None => break,
            }
            continue;
        }
        let batches: Vec<&[Request<Z, B>]> = round.chunks(config.max_batch).collect();
        for batch in &batches {
            let trace = batch.iter().map(|r| (r.stream, r.seq)).collect();
            engine.report.batch_trace.push(trace);
        }
        engine.report.batches += batches.len() as u64;
        let done = map_units(backend, batches.len(), batches.len(), |k| {
            let run = |req: &Request<Z, B>| {
                // Catch per-frame panics so one poisoned frame surfaces as
                // its stream's error instead of unwinding through the
                // round and taking down every other stream.
                let out = catch_unwind(AssertUnwindSafe(|| body.run_declarative(&req.pair)));
                (out.map_err(panic_message), now_ns())
            };
            batches[k].iter().map(run).collect::<Vec<_>>()
        });
        for (req, (out, done_ns)) in round.drain(..).zip(done.into_iter().flatten()) {
            engine.settle(req, out, done_ns);
        }
    }

    let mut report = engine.report;
    report.elapsed_ns = now_ns();
    let streams = engine
        .lanes
        .into_iter()
        .map(|lane| StreamResult {
            state: lane.state.expect("stream state settled"),
            outputs: lane.outputs,
            rejected: lane.rejected,
            error: lane.error,
        })
        .collect();
    ServeOutcome { streams, report }
}

/// Open-loop arrival-process generators on the deterministic `rand`
/// shim — the traffic side of the serving experiments (E16).
pub mod traffic {
    use super::TimedFrame;
    use rand::prelude::*;

    /// Cumulative Poisson arrival times in nanoseconds: exponential
    /// interarrivals at `rate_hz`, deterministic for a given seed.
    pub fn poisson_arrivals_ns(seed: u64, rate_hz: f64, n: usize) -> Vec<u64> {
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            // The draw is clamped away from 0.0: `ln(0)` is `-inf`, which
            // would push `t` (and every later arrival) to infinity. The
            // bundled shim's `gen_range` already excludes 0.0, but other
            // `rand` implementations can round a tiny uniform down to it,
            // so guard the draw itself rather than trust the generator.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0).max(f64::EPSILON);
            t += -u.ln() / rate_hz;
            out.push((t * 1e9) as u64);
        }
        out
    }

    /// Bursty arrivals: groups of `burst` frames land together, groups
    /// spaced by exponential gaps so the *average* rate stays `rate_hz`.
    pub fn bursty_arrivals_ns(seed: u64, rate_hz: f64, burst: usize, n: usize) -> Vec<u64> {
        assert!(burst > 0, "burst size must be positive");
        let gaps = poisson_arrivals_ns(seed, rate_hz / burst as f64, n.div_ceil(burst));
        (0..n).map(|k| gaps[k / burst]).collect()
    }

    /// A skewed per-stream rate ladder: stream `i` runs at
    /// `base_hz / (1 + i * skew)` — a few hot streams, a long cool tail.
    pub fn skewed_rates_hz(base_hz: f64, streams: usize, skew: f64) -> Vec<f64> {
        (0..streams)
            .map(|i| base_hz / (1.0 + i as f64 * skew))
            .collect()
    }

    /// Stamps frames with an arrival trace (frames beyond the trace are
    /// dropped, matching lengths is the caller's norm).
    pub fn timed<B>(arrivals: &[u64], frames: impl IntoIterator<Item = B>) -> Vec<TimedFrame<B>> {
        arrivals
            .iter()
            .zip(frames)
            .map(|(&at_ns, frame)| TimedFrame { at_ns, frame })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itermem::VecSource;
    use crate::program::{scm, Workers};
    use crate::{stream_of, PoolBackend, ShardBackend};

    /// The shared test body: `(z, b) -> (z + b, z + b)` as a 2-way scm
    /// (fn pointers, so the program is `Sync` and lifetime-polymorphic).
    pub(crate) fn running_sum() -> impl for<'a> Skeleton<&'a (u64, u64), Output = (u64, u64)> + Sync
    {
        fn split(pair: &(u64, u64), n: usize) -> Vec<(u64, u64)> {
            let mut parts = vec![(pair.0, pair.1 / 2), (0, pair.1 - pair.1 / 2)];
            parts.truncate(n.max(1));
            parts
        }
        fn compute(part: (u64, u64)) -> u64 {
            part.0 + part.1
        }
        fn merge(parts: Vec<u64>) -> (u64, u64) {
            let y: u64 = parts.iter().sum();
            (y, y)
        }
        scm(
            2,
            split as fn(&(u64, u64), usize) -> Vec<(u64, u64)>,
            compute as fn((u64, u64)) -> u64,
            merge as fn(Vec<u64>) -> (u64, u64),
        )
    }

    /// Sequential reference: fold the body over the frames.
    fn sequential<P>(body: &P, init: u64, frames: &[u64]) -> (u64, Vec<u64>)
    where
        P: for<'a> Skeleton<&'a (u64, u64), Output = (u64, u64)>,
    {
        let mut z = init;
        let mut outputs = Vec::new();
        for &b in frames {
            let (z2, y) = body.run_declarative(&(z, b));
            z = z2;
            outputs.push(y);
        }
        (z, outputs)
    }

    fn backend() -> PoolBackend {
        PoolBackend::configured(Workers::exact(2))
    }

    #[test]
    fn serves_one_stream_like_a_sequential_loop() {
        let body = running_sum();
        let frames = vec![1u64, 2, 3, 4, 5];
        let (z_ref, y_ref) = sequential(&body, 10, &frames);
        let outcome = serve(
            &backend(),
            &body,
            vec![StreamSpec::eager(10u64, stream_of(frames))],
            ServeConfig::default(),
        );
        assert_eq!(outcome.streams[0].state, z_ref);
        assert_eq!(outcome.streams[0].outputs, y_ref);
        assert_eq!(outcome.streams[0].rejected, 0);
        assert_eq!(outcome.report.served, 5);
        assert_eq!(outcome.report.latencies_ns.len(), 5);
    }

    #[test]
    fn block_policy_serves_every_frame_of_every_stream() {
        let body = running_sum();
        let per_stream: Vec<Vec<u64>> = (0..8u64).map(|s| (s..s + 5).collect()).collect();
        let streams = per_stream
            .iter()
            .map(|f| StreamSpec::eager(0u64, VecSource::new(f.clone())))
            .collect();
        let cfg = ServeConfig {
            max_in_flight: 3, // well under 8 streams × 5 frames
            per_stream_queue: 1,
            max_batch: 2,
            admission: AdmissionPolicy::Block,
        };
        let outcome = serve(&backend(), &body, streams, cfg);
        assert_eq!(outcome.report.served, 40);
        assert_eq!(outcome.report.rejected, 0);
        for (s, frames) in per_stream.iter().enumerate() {
            let (z_ref, y_ref) = sequential(&body, 0, frames);
            assert_eq!(outcome.streams[s].state, z_ref, "stream {s}");
            assert_eq!(outcome.streams[s].outputs, y_ref, "stream {s}");
            assert_eq!(outcome.streams[s].rejected, 0);
        }
    }

    #[test]
    fn reject_policy_drops_exactly_the_overflow_at_eager_arrival() {
        // 5 eager frames, queue bound 2: the first admission pass admits
        // frames 0 and 1 and must reject exactly 3 — deterministically,
        // because all five arrivals are processed before any completes.
        let body = running_sum();
        let streams = (0..4u64)
            .map(|_| StreamSpec::eager(0u64, stream_of(vec![1u64, 2, 3, 4, 5])))
            .collect();
        let cfg = ServeConfig {
            max_in_flight: 1024,
            per_stream_queue: 2,
            max_batch: 8,
            admission: AdmissionPolicy::Reject,
        };
        let outcome = serve(&backend(), &body, streams, cfg);
        let (z_ref, y_ref) = sequential(&body, 0, &[1, 2]);
        for s in 0..4 {
            assert_eq!(outcome.streams[s].rejected, 3, "stream {s}");
            assert_eq!(outcome.streams[s].outputs, y_ref, "stream {s}");
            assert_eq!(outcome.streams[s].state, z_ref, "stream {s}");
        }
        assert_eq!(outcome.report.served, 8);
        assert_eq!(outcome.report.rejected, 12);
    }

    #[test]
    fn global_bound_rejects_across_streams_in_stream_order() {
        // Global capacity 3, three streams with 2 eager frames each: the
        // admission pass sweeps lanes in order, so stream 0 admits both
        // frames, stream 1 admits one, stream 2 none.
        let body = running_sum();
        let streams = (0..3u64)
            .map(|_| StreamSpec::eager(0u64, stream_of(vec![7u64, 9])))
            .collect();
        let cfg = ServeConfig {
            max_in_flight: 3,
            per_stream_queue: 8,
            max_batch: 8,
            admission: AdmissionPolicy::Reject,
        };
        let outcome = serve(&backend(), &body, streams, cfg);
        let rejected: Vec<u64> = outcome.streams.iter().map(|s| s.rejected).collect();
        assert_eq!(rejected, vec![0, 1, 2]);
        assert_eq!(outcome.report.served, 3);
    }

    #[test]
    fn first_batch_composition_is_deterministic() {
        // 5 streams × 3 eager frames, max_batch 2: every pass collects one
        // frame per stream, in stream order, so the whole trace is a pure
        // function of the inputs — identical on every dispatcher.
        let body = running_sum();
        let streams = || {
            (0..5u64)
                .map(|s| StreamSpec::eager(0u64, stream_of(vec![s, s + 1, s + 2])))
                .collect()
        };
        let cfg = ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        };
        let expected: Vec<Vec<(usize, u64)>> = (0..3u64)
            .flat_map(|seq| {
                [
                    vec![(0, seq), (1, seq)],
                    vec![(2, seq), (3, seq)],
                    vec![(4, seq)],
                ]
            })
            .collect();
        let one = Workers::exact(1);
        let dispatchers: [(&str, Box<dyn Dispatch>); 3] = [
            ("pool(1)", Box::new(PoolBackend::configured(one))),
            ("pool(2)", Box::new(backend())),
            ("2 shards", Box::new(ShardBackend::configured(2, one))),
        ];
        for (name, d) in &dispatchers {
            let outcome = serve(d.as_ref(), &body, streams(), cfg);
            assert_eq!(outcome.report.batch_trace, expected, "{name}");
            assert_eq!(outcome.report.batches, 9, "{name}");
            assert_eq!(outcome.report.served, 15, "{name}");
        }
    }

    #[test]
    fn a_backlogged_stream_cannot_starve_its_neighbours() {
        // Stream 0 floods 64 eager frames; streams 1..4 bring 3 each.
        // The per-stream queue bound caps the flood's share of the global
        // window, so every neighbour frame is served (Block ⇒ lossless).
        let body = running_sum();
        let mut streams = vec![StreamSpec::eager(
            0u64,
            stream_of((0..64u64).collect::<Vec<_>>()),
        )];
        for s in 1..4u64 {
            streams.push(StreamSpec::eager(0u64, stream_of(vec![s, s + 1, s + 2])));
        }
        let cfg = ServeConfig {
            max_in_flight: 4,
            per_stream_queue: 2,
            max_batch: 4,
            admission: AdmissionPolicy::Block,
        };
        let outcome = serve(&backend(), &body, streams, cfg);
        assert_eq!(outcome.report.served, 64 + 9);
        assert_eq!(outcome.report.rejected, 0);
        for s in 1..4 {
            assert_eq!(outcome.streams[s].outputs.len(), 3, "stream {s}");
        }
    }

    #[test]
    fn timed_arrivals_respect_the_clock() {
        // One frame now, one far in the future: both served, and the
        // second frame's latency excludes the wait for its arrival.
        let body = running_sum();
        let streams = vec![StreamSpec::timed(
            0u64,
            vec![TimedFrame::at(0, 3), TimedFrame::at(2_000_000, 4)],
        )];
        let outcome = serve(&backend(), &body, streams, ServeConfig::default());
        assert_eq!(outcome.report.served, 2);
        let (z_ref, y_ref) = sequential(&body, 0, &[3, 4]);
        assert_eq!(outcome.streams[0].state, z_ref);
        assert_eq!(outcome.streams[0].outputs, y_ref);
        assert!(outcome.report.elapsed_ns >= 2_000_000);
    }

    #[test]
    fn no_frame_runs_before_its_arrival() {
        // The idle wait sleeps short of each arrival and spins the rest;
        // it must never let a frame run early. Gaps span a nanosecond, a
        // few µs (shorter than any learned slack), hundreds of µs and a
        // capped sleep beyond 1 ms.
        let ran = std::sync::Mutex::new(Vec::new());
        let body = crate::program::pure(|&(z, b): &(u64, u64)| {
            ran.lock().unwrap().push((b, Instant::now()));
            (z + b, z + b)
        });
        let offsets: [&[u64]; 3] = [
            &[1, 2_500_000],
            &[5_000, 9_000, 300_000, 301_000],
            &[0, 150_000, 700_000, 1_400_000],
        ];
        let mut due = Vec::new();
        let streams = (offsets.iter().enumerate())
            .map(|(s, ats)| {
                let frames = (ats.iter().enumerate())
                    .map(|(k, &at)| {
                        let id = (s * 100 + k) as u64;
                        due.push((id, at));
                        TimedFrame::at(at, id)
                    })
                    .collect();
                StreamSpec::timed(0u64, frames)
            })
            .collect();
        let before = Instant::now();
        let outcome = serve(&backend(), &body, streams, ServeConfig::default());
        assert_eq!(outcome.report.served, due.len() as u64);
        let ran = ran.into_inner().unwrap();
        for (id, at_ns) in due {
            let (_, run_at) = ran.iter().find(|r| r.0 == id).expect("frame ran");
            let since = run_at.duration_since(before).as_nanos() as u64;
            assert!(since >= at_ns, "frame {id} ran at {since} ns, due {at_ns}");
        }
    }

    #[test]
    fn empty_stream_set_returns_immediately() {
        let body = running_sum();
        let outcome = serve(&backend(), &body, Vec::new(), ServeConfig::default());
        assert_eq!(outcome.report.served, 0);
        assert!(outcome.streams.is_empty());
    }

    #[test]
    fn report_percentiles_and_throughput() {
        let report = ServeReport {
            served: 4,
            elapsed_ns: 2_000_000_000,
            latencies_ns: vec![40, 10, 30, 20],
            ..ServeReport::default()
        };
        assert_eq!(report.latency_percentile_ns(50.0), 20);
        assert_eq!(report.latency_percentile_ns(95.0), 40);
        assert_eq!(report.latency_percentile_ns(99.0), 40);
        assert!((report.throughput_fps() - 2.0).abs() < 1e-9);
        assert_eq!(ServeReport::default().latency_percentile_ns(99.0), 0);
    }

    /// Like [`running_sum`], but panics when a frame carries the payload
    /// 666 — the poisoned-frame fixture for the isolation test.
    fn poison_body() -> impl for<'a> Skeleton<&'a (u64, u64), Output = (u64, u64)> + Sync {
        fn split(pair: &(u64, u64), n: usize) -> Vec<(u64, u64)> {
            let mut parts = vec![*pair, (0, 0)];
            parts.truncate(n.max(1));
            parts
        }
        fn compute(part: (u64, u64)) -> u64 {
            assert!(part.1 != 666, "poison frame");
            part.0 + part.1
        }
        fn merge(parts: Vec<u64>) -> (u64, u64) {
            let y: u64 = parts.iter().sum();
            (y, y)
        }
        scm(
            2,
            split as fn(&(u64, u64), usize) -> Vec<(u64, u64)>,
            compute as fn((u64, u64)) -> u64,
            merge as fn(Vec<u64>) -> (u64, u64),
        )
    }

    #[test]
    fn a_poisoned_frame_fails_its_stream_not_the_run() {
        // Stream 1's second frame panics the body inside a round. On every
        // dispatcher the engine must keep serving the other streams to
        // completion, surface the panic as stream 1's error with its
        // pre-frame state, and still return (no hang, no engine panic).
        let body = poison_body();
        let feeds: Vec<Vec<u64>> = (0..4u64)
            .map(|s| {
                if s == 1 {
                    vec![1, 666, 3, 4]
                } else {
                    vec![s, s + 1, s + 2, s + 3]
                }
            })
            .collect();
        let dispatchers: [(&str, Box<dyn Dispatch>); 2] = [
            ("pool", Box::new(backend())),
            (
                "2 shards",
                Box::new(ShardBackend::configured(2, Workers::exact(1))),
            ),
        ];
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panics
        let streams = || {
            let eager = |f: &Vec<u64>| StreamSpec::eager(10u64, stream_of(f.clone()));
            feeds.iter().map(eager).collect()
        };
        let outcomes: Vec<_> = (dispatchers.iter())
            .map(|(name, d)| {
                (
                    name,
                    serve(d.as_ref(), &body, streams(), ServeConfig::default()),
                )
            })
            .collect();
        std::panic::set_hook(prev_hook);

        for (name, outcome) in outcomes {
            for s in [0usize, 2, 3] {
                let (z_ref, y_ref) = sequential(&body, 10, &feeds[s]);
                assert_eq!(outcome.streams[s].state, z_ref, "{name}: stream {s}");
                assert_eq!(outcome.streams[s].outputs, y_ref, "{name}: stream {s}");
                assert_eq!(outcome.streams[s].error, None, "{name}: stream {s}");
            }
            let poisoned = &outcome.streams[1];
            let (z_ref, y_ref) = sequential(&body, 10, &feeds[1][..1]);
            assert_eq!(poisoned.state, z_ref, "{name}: pre-poison state");
            assert_eq!(
                poisoned.outputs, y_ref,
                "{name}: outputs stop at the poison"
            );
            let err = poisoned.error.as_deref().expect("poisoned stream error");
            assert!(err.contains("poison frame"), "{name}: message {err}");
            assert_eq!(outcome.report.failed, 1, "{name}");
            assert_eq!(outcome.report.served, 3 * 4 + 1, "{name}");
        }
    }

    #[test]
    fn every_zero_bound_is_rejected_with_its_own_message() {
        let mut zeroed = [ServeConfig::default(); 3];
        zeroed[0].max_in_flight = 0;
        zeroed[1].per_stream_queue = 0;
        zeroed[2].max_batch = 0;
        let fields = ["max_in_flight", "per_stream_queue", "max_batch"];
        let body = running_sum();
        for (cfg, field) in zeroed.into_iter().zip(fields) {
            let streams = vec![StreamSpec::eager(0u64, stream_of(vec![1u64]))];
            let panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
                serve(&backend(), &body, streams, cfg)
            }))
            .expect_err("a zero bound must panic");
            assert_eq!(panic_message(panic), format!("{field} must be positive"));
        }
    }

    #[test]
    fn poisson_traffic_is_deterministic_and_monotone() {
        let a = traffic::poisson_arrivals_ns(7, 1000.0, 64);
        let b = traffic::poisson_arrivals_ns(7, 1000.0, 64);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(a, traffic::poisson_arrivals_ns(8, 1000.0, 64));
        // Mean interarrival should be in the right ballpark (1 ms).
        let mean = *a.last().unwrap() as f64 / 64.0;
        assert!((200_000.0..5_000_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn poisson_traffic_stays_finite_across_seeds() {
        // A zero uniform draw would make `ln` return -inf and saturate
        // every later arrival to u64::MAX; sweep seeds to pin the guard.
        for seed in 0..256u64 {
            let a = traffic::poisson_arrivals_ns(seed, 1e9, 32);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "seed {seed}");
            let last = *a.last().unwrap();
            // 32 gaps at 1 GHz mean rate: even the unluckiest draw
            // (u = EPSILON, gap ≈ 36.7 ns) stays far below this bound.
            assert!(last < 1_000_000, "seed {seed}: arrivals blew up ({last})");
        }
    }

    #[test]
    fn bursty_traffic_lands_in_groups() {
        let a = traffic::bursty_arrivals_ns(3, 4000.0, 4, 16);
        assert_eq!(a.len(), 16);
        for g in a.chunks(4) {
            assert!(g.iter().all(|&t| t == g[0]), "burst not simultaneous");
        }
        assert!(a[0] < a[15]);
    }

    #[test]
    fn skewed_rates_decay_from_base() {
        let rates = traffic::skewed_rates_hz(100.0, 4, 1.0);
        assert_eq!(rates.len(), 4);
        assert!((rates[0] - 100.0).abs() < 1e-9);
        assert!((rates[1] - 50.0).abs() < 1e-9);
        assert!(rates.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn timed_traffic_under_serve_matches_sequential() {
        // Poisson arrivals at a rate the pool can absorb: lossless under
        // Block, outputs equal the sequential fold.
        let body = running_sum();
        let n = 12;
        let streams: Vec<StreamSpec<u64, u64>> = (0..3u64)
            .map(|s| {
                let arrivals = traffic::poisson_arrivals_ns(s, 50_000.0, n);
                StreamSpec::timed(
                    0u64,
                    traffic::timed(&arrivals, (0..n as u64).map(|k| k + s)),
                )
            })
            .collect();
        let outcome = serve(&backend(), &body, streams, ServeConfig::default());
        assert_eq!(outcome.report.served, 3 * n as u64);
        for s in 0..3u64 {
            let frames: Vec<u64> = (0..n as u64).map(|k| k + s).collect();
            let (z_ref, y_ref) = sequential(&body, 0, &frames);
            assert_eq!(outcome.streams[s as usize].state, z_ref);
            assert_eq!(outcome.streams[s as usize].outputs, y_ref);
        }
    }
}

#[cfg(test)]
mod repro_hang {
    use super::*;
    use crate::program::Workers;
    use crate::{stream_of, PoolBackend};

    #[test]
    fn reject_exhaustion_wakes_the_task() {
        let body = tests::running_sum();
        // Stream 0 floods 2000 eager frames into a single global slot
        // under `Reject`: the first admission pass admits exactly one and
        // drops the rest at the door, exhausting the source while stream
        // 0's only frame waits for its round — the stream must still
        // finish once that frame settles, and serve() must return. Stream
        // 1's lone frame arrives after the flood completes and is served.
        let streams = vec![
            StreamSpec::eager(0u64, stream_of((0..2000u64).collect::<Vec<_>>())),
            StreamSpec::timed(0u64, vec![TimedFrame::at(1_000_000, 9)]),
        ];
        let cfg = ServeConfig {
            max_in_flight: 1,
            per_stream_queue: 1,
            max_batch: 1,
            admission: AdmissionPolicy::Reject,
        };
        let outcome = serve(
            &PoolBackend::configured(Workers::exact(2)),
            &body,
            streams,
            cfg,
        );
        // Reaching this point at all is the regression check; the counts
        // pin the deterministic admission outcome (same door semantics as
        // `global_bound_rejects_across_streams_in_stream_order`).
        assert_eq!(outcome.streams[0].outputs.len(), 1);
        assert_eq!(outcome.streams[0].rejected, 1999);
        assert_eq!(outcome.streams[1].outputs, vec![9]);
        assert_eq!(outcome.report.served, 2);
        assert_eq!(outcome.report.rejected, 1999);
    }
}
