//! Execution backends: interchangeable strategies for running a
//! [`Skeleton`] program.
//!
//! A backend is "where the program runs": the same program value can be
//! emulated sequentially ([`SeqBackend`]), executed on the host CPU, or —
//! via `skipper_exec::SimBackend` — lowered through process-network
//! expansion, SynDEx scheduling and macro-code generation onto the
//! simulated Transputer machine, exactly as the paper derives the
//! parallel implementation from the workstation emulation.
//!
//! On the host, **a backend is a [`Dispatch`]**. Each skeleton's parallel
//! implementation ([`Skeleton::run_on`]) is written once: the `df`/`scm`
//! farm round, the `tf` task round and the `itermem` frame loop live in
//! this module and in the skeleton types, and a dispatcher only answers
//! how many lanes a round's units are routed over and where a lane's jobs
//! run. [`ThreadBackend`], [`crate::PoolBackend`] and
//! [`crate::ShardBackend`] are the three dispatchers; every one of them is
//! a [`Backend`] for every program, and they share one prepared form,
//! [`HostExecutable`].
//!
//! # The prepare/run lifecycle
//!
//! SKiPPER compiles a skeleton program *offline* (PNT expansion, SynDEx
//! scheduling, macro-code generation) and then executes it *online* once
//! per frame at video rate. The API mirrors that split: every backend
//! separates the **prepare** phase (resolve the execution structure for
//! one program: worker counts, pool handles, lowering, scheduling) from
//! the **run** phase (execute one input through the prepared structure).
//!
//! - [`Backend::prepare`] compiles a program into an [`Executable`] —
//!   done once per program;
//! - [`Executable::run`] executes one input — done once per frame;
//! - [`Backend::run`] remains as the prepare-then-run convenience for
//!   one-shot execution.
//!
//! For the host backends preparation is cheap (it pins down the
//! dispatcher), so `Backend::run` costs about the same as a
//! prepared run. For `skipper_exec::SimBackend` preparation performs the
//! whole lowering/scheduling/macro-code pipeline, so a frame loop should
//! always prepare once and run many times:
//!
//! ```
//! use skipper::{df, Backend, Executable, PoolBackend, SeqBackend};
//!
//! let farm = df(4, |x: &u64| x * x, |z: u64, y| z + y, 0u64);
//! let backend = PoolBackend::new();
//! // Compile once. The input type is spelled out because a farm is a
//! // program over *two* input shapes (an item slice, or an `itermem`
//! // loop's `(state, frame)` pair) and `prepare` has no input argument
//! // to infer it from.
//! let exec = Backend::<_, &[u64]>::prepare(&backend, &farm);
//! for frame in 0..3u64 {
//!     let items: Vec<u64> = (0..=frame).collect();
//!     // ...run per frame: no per-run re-derivation of dispatch structure.
//!     assert_eq!(exec.run(&items[..]), SeqBackend.run(&farm, &items[..]));
//! }
//! ```
//!
//! # Choosing a backend
//!
//! A host backend is a [`Dispatch`] (except [`SeqBackend`], which runs the
//! declarative semantics):
//!
//! | Backend | Crate | Dispatch | Use it for |
//! |---|---|---|---|
//! | [`SeqBackend`] | `skipper` | — | debugging, golden results, reference semantics |
//! | [`ThreadBackend`] | `skipper` | 1 lane, fresh scoped threads | one-shot coarse-grained parallel runs on the host CPU |
//! | [`crate::PoolBackend`] | `skipper` | 1 lane, persistent pool, caller helps | repeated fine-grained runs: a persistent work-stealing pool amortises thread spawn cost |
//! | [`crate::ShardBackend`] | `skipper` | N lanes, one pool each | partition-routed runs over independent pools, the rehearsal of distribution |
//! | `SimBackend` | `skipper-exec` | — (lowers the program) | the paper pipeline: latency/scaling studies on a modelled machine |
//!
//! Every backend is held to the same contract by the reusable suite in
//! [`crate::conformance`], including a prepared-equivalence axis: one
//! executable, run repeatedly, must keep matching the golden results.
//!
//! ```
//! use skipper::{df, Backend, SeqBackend, ThreadBackend};
//!
//! let farm = df(4, |x: &u64| x * x, |z: u64, y| z + y, 0u64);
//! let xs: Vec<u64> = (1..=100).collect();
//! assert_eq!(
//!     ThreadBackend::new().run(&farm, &xs[..]),
//!     SeqBackend.run(&farm, &xs[..]),
//! );
//! ```

use crate::program::{Skeleton, Workers};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A program compiled by a [`Backend`] for repeated execution.
///
/// An executable is the run-many half of the prepare-once/run-many
/// contract: it holds everything the backend derived from the program
/// (the dispatcher a host run goes through — or, for the simulator
/// backend, the lowered process network, schedule and macro-code) and
/// executes one input per [`run`](Executable::run) call. Runs must be
/// independent: a prepared executable run `N` times must produce the
/// same results as `N` fresh [`Backend::run`] calls.
pub trait Executable<I> {
    /// What one run produces (matches the preparing backend's
    /// [`Backend::Output`]).
    type Output;

    /// Executes one input through the prepared program.
    fn run(&self, input: I) -> Self::Output;
}

/// An execution strategy for programs of type `P` over input `I`.
///
/// The trait is parameterised by the program type so that strategies with
/// extra requirements (such as the simulator backend, which needs
/// value-encodable inputs and returns `Result`) can implement it for the
/// program shapes they support, while [`SeqBackend`] and every
/// [`Dispatch`] backend accept every [`Skeleton`].
///
/// Implementors provide [`prepare`](Backend::prepare) — the compile
/// phase — and inherit [`run`](Backend::run) as the prepare-then-run
/// convenience.
pub trait Backend<P, I>
where
    P: Skeleton<I>,
{
    /// What a run produces: `P::Output` for infallible backends, a
    /// `Result` for fallible ones.
    type Output;

    /// The compiled form of a program on this backend. Borrows the
    /// program (and the backend) for `'p`.
    type Prepared<'p>: Executable<I, Output = Self::Output>
    where
        Self: 'p,
        P: 'p;

    /// Compiles `prog` for repeated execution on this strategy: the
    /// prepare-once half of the prepare/run lifecycle.
    fn prepare<'p>(&'p self, prog: &'p P) -> Self::Prepared<'p>;

    /// Runs `prog` on `input` under this strategy (prepare-then-run; for
    /// repeated runs of one program, [`prepare`](Backend::prepare) once
    /// and call [`Executable::run`] per input instead).
    fn run(&self, prog: &P, input: I) -> Self::Output {
        self.prepare(prog).run(input)
    }
}

/// A host dispatcher: where the independent jobs of one farm round run.
///
/// Every host backend but [`SeqBackend`] is a `Dispatch`, and every
/// skeleton's operational semantics ([`Skeleton::run_on`]) is written
/// once against this trait: a farm round routes its units to
/// [`lanes`](Dispatch::lanes) by a deterministic hash of their sequence
/// numbers (the identity for one lane), then asks each lane to
/// [`run_jobs`](Dispatch::run_jobs) that self-schedule over the lane's
/// units. The backends differ only in those two answers:
///
/// | Dispatcher | lanes | a lane's jobs run on |
/// |---|---|---|
/// | [`ThreadBackend`] | 1 | fresh crossbeam scoped threads |
/// | [`crate::PoolBackend`] | 1 | the persistent pool; the caller helps |
/// | [`crate::ShardBackend`] | N | shard `lane`'s pool; the coordinator parks |
///
/// Lanes run concurrently (lane 0 on the calling thread, the others on
/// scoped coordinator threads).
pub trait Dispatch: Sync + std::fmt::Debug {
    /// How many independent lanes farm units are routed over.
    fn lanes(&self) -> usize;

    /// Runs `job(0)`, …, `job(jobs - 1)` on lane `lane`, returning once
    /// all of them have finished; a panicking job is re-raised here.
    fn run_jobs(&self, lane: usize, jobs: usize, job: &(dyn Fn(usize) + Sync));

    /// How many jobs a farm round of a program built with degree
    /// `prog_degree` runs per lane. Only a [`ThreadBackend`] worker
    /// override changes it.
    fn degree(&self, prog_degree: usize) -> usize {
        prog_degree
    }
}

/// Runs `prog` on `input` through `dispatch`, or declaratively when
/// `dispatch` is `None` — the one switch between a program's two
/// semantics, for loop bodies that drive inner skeletons themselves.
pub fn run_with<P, I>(prog: &P, dispatch: Option<&dyn Dispatch>, input: I) -> P::Output
where
    P: Skeleton<I> + ?Sized,
{
    match dispatch {
        Some(d) => prog.run_on(d, input),
        None => prog.run_declarative(input),
    }
}

/// The lane farm unit `seq` is routed to: its logical
/// [`partition`](crate::receipt::partition) modulo the lane count, so
/// the mapping is a pure function of the sequence number (Bobpp-style
/// deterministic partitioning) and stable under re-sharding.
fn lane_of(seq: usize, lanes: usize) -> usize {
    if lanes == 1 {
        return 0;
    }
    (crate::receipt::partition(seq as u64) % lanes as u64) as usize
}

/// Runs `lane(0)`, …, `lane(d.lanes() - 1)` concurrently: lane 0 on the
/// calling thread, the others on scoped coordinator threads. A lane's
/// panic is re-raised once every lane has returned.
fn each_lane(d: &dyn Dispatch, lane: &(dyn Fn(usize) + Sync)) {
    let n = d.lanes();
    if n == 1 {
        return lane(0);
    }
    std::thread::scope(|s| {
        let others: Vec<_> = (1..n).map(|l| s.spawn(move || lane(l))).collect();
        lane(0);
        for h in others {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Chunk size for self-scheduling `len` units over `jobs` jobs: enough
/// chunks for dynamic balancing (≈4 per job), but at least 1 and at
/// most 1024 units per claim.
fn chunk_size(len: usize, jobs: usize) -> usize {
    (len / (4 * jobs.max(1))).clamp(1, 1024)
}

/// One `df`/`scm` farm round on `d`: `unit(i)` for every `i < units`,
/// results returned **in unit order**. Units are routed to lanes by
/// [`lane_of`]; on each lane, `d.degree(degree)` jobs claim chunks of
/// the lane's units from an atomic cursor (the self-scheduling workers
/// of paper Fig. 1, batched), keep their results, and store them into
/// the units' slots once, when the lane's units run out.
pub(crate) fn map_units<O: Send>(
    d: &dyn Dispatch,
    degree: usize,
    units: usize,
    unit: impl Fn(usize) -> O + Sync,
) -> Vec<O> {
    let lanes = d.lanes();
    let mut routes = vec![Vec::new(); lanes];
    for i in 0..units {
        routes[lane_of(i, lanes)].push(i);
    }
    let slots = Mutex::new((0..units).map(|_| None).collect::<Vec<Option<O>>>());
    let jobs = d.degree(degree);
    each_lane(d, &|lane| {
        let ids = &routes[lane];
        if ids.is_empty() {
            return;
        }
        let jobs = jobs.min(ids.len());
        let chunk = chunk_size(ids.len(), jobs);
        let next = AtomicUsize::new(0);
        d.run_jobs(lane, jobs, &|_| {
            let mut mine = Vec::new();
            loop {
                // Relaxed: the cursor only hands out disjoint claims;
                // results are published through `slots`' lock.
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= ids.len() {
                    break;
                }
                for &i in &ids[start..(start + chunk).min(ids.len())] {
                    mine.push((i, unit(i)));
                }
            }
            let mut slots = slots.lock().expect("unit slots poisoned");
            for (i, o) in mine {
                slots[i] = Some(o);
            }
        });
    });
    slots
        .into_inner()
        .expect("unit slots poisoned")
        .into_iter()
        .map(|o| o.expect("every unit produces a result"))
        .collect()
}

/// One `tf` round on `d`: root tasks are routed to lanes by [`lane_of`];
/// each lane keeps one task queue that `d.degree(degree)` jobs pop
/// from and push generated subtasks onto (subtasks stay on their root's
/// lane), until the lane's outstanding count reaches zero. Results are
/// returned in arrival order.
pub(crate) fn task_round<T: Send, O: Send>(
    d: &dyn Dispatch,
    degree: usize,
    roots: Vec<T>,
    work: impl Fn(T) -> (Vec<T>, Option<O>) + Sync,
) -> Vec<O> {
    let n = d.lanes();
    let mut queues: Vec<VecDeque<T>> = (0..n).map(|_| VecDeque::new()).collect();
    for (i, t) in roots.into_iter().enumerate() {
        queues[lane_of(i, n)].push_back(t);
    }
    // Per lane: queued + in-process tasks (0 means done), and the queue.
    let lanes: Vec<(AtomicUsize, Mutex<VecDeque<T>>)> = queues
        .into_iter()
        .map(|q| (AtomicUsize::new(q.len()), Mutex::new(q)))
        .collect();
    let out = Mutex::new(Vec::new());
    let jobs = d.degree(degree);
    each_lane(d, &|lane| {
        let (outstanding, queue) = &lanes[lane];
        if outstanding.load(Ordering::SeqCst) == 0 {
            return;
        }
        d.run_jobs(lane, jobs, &|_| {
            // Counts the popped task as completed even when `work`
            // unwinds: without this, a panicking task leaves
            // `outstanding` above zero forever and the sibling jobs
            // snooze instead of letting the panic reach the caller.
            struct TaskDone<'a>(&'a AtomicUsize);
            impl Drop for TaskDone<'_> {
                fn drop(&mut self) {
                    self.0.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let backoff = crossbeam::utils::Backoff::new();
            loop {
                let task = queue.lock().expect("task queue poisoned").pop_front();
                let Some(t) = task else {
                    if outstanding.load(Ordering::SeqCst) == 0 {
                        return;
                    }
                    backoff.snooze();
                    continue;
                };
                backoff.reset();
                let done = TaskDone(outstanding);
                let (new_tasks, result) = work(t);
                if !new_tasks.is_empty() {
                    outstanding.fetch_add(new_tasks.len(), Ordering::SeqCst);
                    queue.lock().expect("task queue poisoned").extend(new_tasks);
                }
                if let Some(o) = result {
                    out.lock().expect("task results poisoned").push(o);
                }
                // Completed AFTER children were registered.
                drop(done);
            }
        });
    });
    out.into_inner().expect("task results poisoned")
}

/// The sequential-emulation backend: runs the declarative semantics, the
/// executable specification of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqBackend;

/// A program prepared by a host backend: the program and the dispatcher
/// its runs go through (`None` for [`SeqBackend`], which runs the
/// declarative semantics). [`SeqBackend`], every [`Dispatch`] backend
/// and [`crate::HostBackend`] share this one type.
#[derive(Debug, Clone, Copy)]
pub struct HostExecutable<'p, P> {
    pub(crate) prog: &'p P,
    pub(crate) dispatch: Option<&'p dyn Dispatch>,
}

impl<P, I> Executable<I> for HostExecutable<'_, P>
where
    P: Skeleton<I>,
{
    type Output = P::Output;

    fn run(&self, input: I) -> P::Output {
        run_with(self.prog, self.dispatch, input)
    }
}

impl<P, I> Backend<P, I> for SeqBackend
where
    P: Skeleton<I>,
{
    type Output = P::Output;

    type Prepared<'p>
        = HostExecutable<'p, P>
    where
        Self: 'p,
        P: 'p;

    fn prepare<'p>(&'p self, prog: &'p P) -> HostExecutable<'p, P> {
        HostExecutable {
            prog,
            dispatch: None,
        }
    }
}

/// Every dispatcher is a backend for every program: preparing pins the
/// dispatcher, running calls [`Skeleton::run_on`].
impl<D, P, I> Backend<P, I> for D
where
    D: Dispatch,
    P: Skeleton<I>,
{
    type Output = P::Output;

    type Prepared<'p>
        = HostExecutable<'p, P>
    where
        Self: 'p,
        P: 'p;

    fn prepare<'p>(&'p self, prog: &'p P) -> HostExecutable<'p, P> {
        HostExecutable {
            prog,
            dispatch: Some(self),
        }
    }
}

/// The thread backend: runs the operational semantics on crossbeam scoped
/// threads, spawned afresh for every farm round.
///
/// By default each program runs with its own degree of parallelism (which
/// itself defaults to [`crate::default_workers`] when the program was
/// built with a worker count of 0); [`ThreadBackend::configured`] with
/// [`Workers::Exact`] overrides it for every program run through this
/// backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadBackend {
    workers: Workers,
}

impl ThreadBackend {
    /// A thread backend using each program's own degree of parallelism
    /// (equivalent to `ThreadBackend::configured(Workers::Default)`).
    pub fn new() -> Self {
        ThreadBackend::default()
    }

    /// A thread backend with the given worker configuration.
    /// [`Workers::Default`] runs each program with its own degree;
    /// [`Workers::Exact`] / [`Workers::FromEnv`] override it for every
    /// program run through this backend ([`Workers::FromEnv`] reads the
    /// environment when a farm round asks for its degree).
    ///
    /// The override controls how many threads a farm round runs, not the
    /// program's decomposition: an `scm` split still produces fragments
    /// according to the degree the program was built with, so its
    /// effective parallelism is capped by that fragment count.
    pub fn configured(workers: Workers) -> Self {
        ThreadBackend { workers }
    }

    /// The worker configuration this backend was built with.
    pub fn worker_config(&self) -> Workers {
        self.workers
    }
}

impl Dispatch for ThreadBackend {
    fn lanes(&self) -> usize {
        1
    }

    fn run_jobs(&self, _lane: usize, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        crossbeam::thread::scope(|s| {
            for j in 0..jobs {
                s.spawn(move |_| job(j));
            }
        })
        .expect("worker thread panicked");
    }

    fn degree(&self, prog_degree: usize) -> usize {
        self.workers.resolve().map_or(prog_degree, |n| n.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{df, scm, tf, PoolBackend, ShardBackend};
    use std::num::NonZeroUsize;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    /// A farm of each shape over units 0..8 whose unit 3 panics when
    /// `bomb` is set, run through `d` (declaratively when `None`).
    type PanicCase = (&'static str, fn(Option<&dyn Dispatch>, bool) -> u64);

    const PANIC_CASES: [PanicCase; 3] = [
        ("df", |d, bomb| {
            let farm = df(
                2,
                move |x: &u64| {
                    assert!(!(bomb && *x == 3), "boom");
                    *x
                },
                |z: u64, y| z + y,
                0u64,
            );
            run_with(&farm, d, &(0..8).collect::<Vec<u64>>()[..])
        }),
        ("scm", |d, bomb| {
            let prog = scm(
                2,
                |n: &u64, _| (0..*n).collect::<Vec<u64>>(),
                move |x: u64| {
                    assert!(!(bomb && x == 3), "boom");
                    x
                },
                |ps: Vec<u64>| ps.iter().sum::<u64>(),
            );
            run_with(&prog, d, &8)
        }),
        ("tf", |d, bomb| {
            let prog = tf(
                2,
                move |t: u64| {
                    assert!(!(bomb && t == 3), "boom");
                    (Vec::new(), Some(t))
                },
                |z: u64, o| z + o,
                0u64,
            );
            run_with(&prog, d, (0..8).collect::<Vec<u64>>())
        }),
    ];

    #[test]
    fn a_panicking_unit_reaches_the_caller_and_the_backend_survives() {
        // Runs on a helper thread so that a hang fails the test instead
        // of stalling the suite.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let dispatchers: [Box<dyn Dispatch>; 3] = [
                Box::new(ThreadBackend::new()),
                Box::new(PoolBackend::configured(Workers::exact(2))),
                Box::new(ShardBackend::configured(2, Workers::exact(2))),
            ];
            for d in &dispatchers {
                for (shape, run) in PANIC_CASES {
                    let d = Some(&**d);
                    let bombed = catch_unwind(AssertUnwindSafe(|| run(d, true)));
                    assert!(
                        bombed.is_err(),
                        "{shape} on {d:?}: the panic must reach the caller"
                    );
                    assert_eq!(
                        run(d, false),
                        run(None, false),
                        "{shape} on {d:?} after a panic"
                    );
                }
            }
            done.send(()).expect("the test thread waits");
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("every panicking run returned, and every rerun matched the golden result");
    }

    #[test]
    fn seq_and_thread_agree_on_a_farm() {
        let farm = df(4, |x: &u64| x * 3, |z: u64, y| z + y, 0u64);
        let xs: Vec<u64> = (0..200).collect();
        assert_eq!(
            SeqBackend.run(&farm, &xs[..]),
            ThreadBackend::new().run(&farm, &xs[..])
        );
    }

    #[test]
    fn worker_override_still_computes_the_same_result() {
        let farm = df(2, |x: &u64| x + 1, |z: u64, y| z + y, 0u64);
        let xs: Vec<u64> = (0..50).collect();
        let narrow = ThreadBackend::configured(Workers::exact(1));
        let wide = ThreadBackend::configured(Workers::exact(8));
        assert_eq!(narrow.run(&farm, &xs[..]), wide.run(&farm, &xs[..]));
        assert_eq!(narrow.worker_config().resolve(), NonZeroUsize::new(1));
        assert_eq!(ThreadBackend::new().worker_config(), Workers::Default);
    }

    #[test]
    fn prepared_executables_match_fresh_runs() {
        let farm = df(3, |x: &u64| x * 7 + 1, |z: u64, y| z + y, 5u64);
        // The input type annotation picks the slice-input `Skeleton` impl
        // (farms also run as `itermem` loop bodies over `&(Z, Vec<_>)`).
        let seq = Backend::<_, &[u64]>::prepare(&SeqBackend, &farm);
        let threads = ThreadBackend::new();
        let thr = Backend::<_, &[u64]>::prepare(&threads, &farm);
        for len in [0usize, 1, 17, 64] {
            let xs: Vec<u64> = (0..len as u64).collect();
            let golden = SeqBackend.run(&farm, &xs[..]);
            // Re-running one executable must keep matching fresh runs.
            assert_eq!(seq.run(&xs[..]), golden);
            assert_eq!(seq.run(&xs[..]), golden);
            assert_eq!(thr.run(&xs[..]), golden);
            assert_eq!(thr.run(&xs[..]), golden);
        }
    }

    #[test]
    fn prepared_thread_executable_pins_the_override() {
        let farm = df(2, |x: &u64| x + 2, |z: u64, y| z + y, 0u64);
        let narrow = ThreadBackend::configured(Workers::exact(1));
        let exec = Backend::<_, &[u64]>::prepare(&narrow, &farm);
        let xs: Vec<u64> = (0..30).collect();
        assert_eq!(exec.run(&xs[..]), SeqBackend.run(&farm, &xs[..]));
    }
}
