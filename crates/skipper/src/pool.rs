//! The pool backend: a persistent work-stealing thread pool.
//!
//! A real-time image loop (`itermem` at 25 Hz, or the repeated-run
//! harness in `skipper-bench`) runs a farm round per frame; spawning
//! threads for each round would cost more than the round's work.
//! [`PoolBackend`] creates a [`WorkerPool`] of OS threads once (when the
//! backend is built) and reuses it across `run` calls, so fine-grained
//! workloads pay no thread creation per frame.
//!
//! # Design
//!
//! - **Persistent workers.** [`WorkerPool::new`] spawns its threads up
//!   front; a run on [`PoolBackend`] never creates a thread.
//! - **Work stealing.** Each pool thread owns a job deque. Spawned jobs
//!   are distributed round-robin; a worker pops its own deque from the
//!   front and, when empty, steals from the *back* of a sibling's deque.
//!   The caller of [`WorkerPool::scope`] also helps: while waiting for its
//!   jobs it steals and runs queued work instead of blocking.
//! - **Chunked self-scheduling.** Within one skeleton run, farm workers
//!   claim *chunks* of the item range from a shared atomic cursor (the
//!   master/worker self-scheduling of paper Fig. 1, batched to keep
//!   per-item synchronisation off the hot path). The round itself is the
//!   one every host backend shares; [`PoolBackend`] only supplies the
//!   [`Dispatch`] that runs its jobs here.
//! - **Spin, then park, while the pool is busy.** Each scope entry
//!   times the interval since the previous one began. While that
//!   interval is shorter than the spin window (`SPIN_WINDOW`, 50 µs)
//!   the pool is *hot*: a worker that runs out of jobs polls for new
//!   ones for one window before it parks, and a joining caller polls
//!   its scope's pending count for one window before it parks. A round
//!   on a hot pool then wakes no thread through the kernel (no futex
//!   wake, no context switch), because `push` and a scope's last job
//!   notify only a parked thread. A *cold* pool, whose rounds are
//!   further apart than a window, parks at once and burns no CPU
//!   between rounds, so processes that share the machine keep its
//!   cores.
//! - **Scoped, borrowing jobs.** Skeleton runs borrow their input
//!   (`&[I]`) and user functions (`&C`), so jobs must be non-`'static`.
//!   [`WorkerPool::scope`] provides the same guarantee as
//!   [`std::thread::scope`]: it does not return until every job
//!   spawned in it has finished, which makes handing borrowed closures to
//!   the pool sound (see the `SAFETY` notes inline).
//!
//! # Semantics
//!
//! [`PoolBackend`] runs the operational semantics ([`Skeleton::run_on`])
//! shared by every [`Dispatch`] and is subject to the paper's side
//! condition: `tf` accumulation must be commutative
//! and associative, because task results are folded in arrival order.
//! The backend-conformance kit ([`crate::conformance`]) pins the
//! agreement with [`crate::SeqBackend`] golden results for every
//! skeleton.
//!
//! ```
//! use skipper::{df, Backend, PoolBackend, SeqBackend};
//!
//! let farm = df(4, |x: &u64| x * x, |z: u64, y| z + y, 0u64);
//! let xs: Vec<u64> = (1..=100).collect();
//! let pool = PoolBackend::new(); // threads created once...
//! for _ in 0..10 {
//!     // ...and reused for every run: no spawn cost per frame.
//!     assert_eq!(pool.run(&farm, &xs[..]), SeqBackend.run(&farm, &xs[..]));
//! }
//! ```

use crate::backend::{Backend, Dispatch, HostExecutable};
use crate::program::{Skeleton, Workers};
use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long an idle worker, or a joining caller, polls before it parks
/// on a hot pool; also the longest scope-to-scope interval at which the
/// pool counts as hot. It must sit above the round period of a
/// back-to-back frame loop and below that of a paced one, where a
/// spinning thread would only take a core from other processes.
/// Measured on a 2-vCPU guest with `perfbench`'s workloads: 98 % of
/// `track_dsl`'s scope intervals are under 50 µs (92 % within
/// 20–30 µs); of `fleet_df`'s worker processes, about 1 in 10 000 is
/// (nearly all are 100–500 µs); of `serve_64cam`, none (all ≥ 200 µs).
/// A park-and-wake round trip between two threads costs about 13 µs
/// there (`calib_handoff_us`).
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Polls `done` with spin-loop hints until it holds or `window` has
/// passed.
fn spin_until(window: Duration, done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() && start.elapsed() < window {
        std::hint::spin_loop();
    }
}

/// A type-erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pool state shared between the owner and its worker threads.
struct Shared {
    /// One job deque per worker thread (round-robin push, owner pops the
    /// front, thieves steal the back).
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep/wake bookkeeping. The fields of `polled` change only while
    /// this lock is held, so a worker that checks them under it before
    /// it parks cannot miss the wake-up that follows a change.
    status: Mutex<Status>,
    /// Signalled when a job is pushed while a worker is parked, and when
    /// shutdown begins.
    work_cv: Condvar,
    polled: Polled,
    /// Whether the last scope began within `SPIN_WINDOW` of the one
    /// before it. A hint only: it decides whether idle threads spin
    /// before they park, never whether they wake.
    hot: AtomicBool,
}

/// What spinning threads poll, read without the `status` lock. It has a
/// cache line of its own, so that the polling does not keep taking the
/// lock's line away from a thread that pushes or takes a job (on a
/// 2-vCPU guest, sharing it cost `track_dsl` about 0.4 µs of fan-out
/// per round).
#[repr(align(64))]
struct Polled {
    /// The number of queued-but-unclaimed jobs.
    ready: AtomicUsize,
    /// Set when the pool is dropped.
    shutdown: AtomicBool,
}

struct Status {
    /// Workers parked on `work_cv`.
    sleepers: usize,
}

impl Shared {
    /// Takes one job: worker `me` prefers the front of its own deque and
    /// steals from the back of its siblings' deques otherwise. `None`
    /// means every deque was empty at the time of the scan.
    ///
    /// Lock order is always `status` → queue (push does the same), which
    /// keeps the `ready` count exact: a job is never visible in a deque
    /// without its increment, so the decrement here cannot underflow.
    fn take_job(&self, me: usize) -> Option<Job> {
        let n = self.queues.len();
        let _status = self.status.lock().expect("pool status poisoned");
        if self.polled.ready.load(Ordering::Relaxed) == 0 {
            return None;
        }
        for k in 0..n {
            let i = (me + k) % n;
            let job = {
                let mut q = self.queues[i].lock().expect("pool queue poisoned");
                if k == 0 {
                    q.pop_front()
                } else {
                    q.pop_back()
                }
            };
            if let Some(job) = job {
                self.polled.ready.fetch_sub(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }
}

/// The worker-thread main loop: run jobs while any are queued; when
/// none are, poll for one `SPIN_WINDOW` if the pool is hot, then sleep
/// on the condvar; exit on shutdown.
fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(job) = shared.take_job(me) {
            job();
            continue;
        }
        if shared.hot.load(Ordering::Relaxed) {
            // Relaxed: a hint; the checks under the lock below decide.
            spin_until(SPIN_WINDOW, || {
                shared.polled.ready.load(Ordering::Relaxed) > 0
                    || shared.polled.shutdown.load(Ordering::Relaxed)
            });
        }
        let mut status = shared.status.lock().expect("pool status poisoned");
        loop {
            if shared.polled.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if shared.polled.ready.load(Ordering::Relaxed) > 0 {
                break;
            }
            status.sleepers += 1;
            status = shared.work_cv.wait(status).expect("pool status poisoned");
            status.sleepers -= 1;
        }
    }
}

/// Per-[`WorkerPool::scope`] completion state.
struct ScopeState {
    /// Jobs spawned in this scope that have not finished yet.
    pending: AtomicUsize,
    /// Whether the scope's caller is parked on `done_cv`; the job that
    /// takes `pending` to zero checks it under this lock.
    parked: Mutex<bool>,
    /// Signalled when `pending` drops to zero while the caller is parked.
    done_cv: Condvar,
    /// The first panic payload raised by a job of this scope.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A persistent pool of worker threads with scoped, borrowing job
/// submission — the execution substrate of [`PoolBackend`].
///
/// The pool is created once and reused; [`scope`](WorkerPool::scope) is
/// the only way to submit work, and it joins all of its jobs before
/// returning (so jobs may borrow from the caller's stack). Dropping the
/// pool shuts the threads down and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    rr: AtomicUsize,
    /// When the pool was built: the origin of `last_scope`.
    epoch: Instant,
    /// When the latest scope began, in nanoseconds since `epoch`
    /// (`u64::MAX` before the first).
    last_scope: AtomicU64,
}

impl WorkerPool {
    /// Spawns a pool of `threads` persistent workers.
    pub fn new(threads: NonZeroUsize) -> Self {
        let n = threads.get();
        let shared = Arc::new(Shared {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            status: Mutex::new(Status { sleepers: 0 }),
            work_cv: Condvar::new(),
            polled: Polled {
                ready: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
            },
            hot: AtomicBool::new(false),
        });
        let handles = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("skipper-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            rr: AtomicUsize::new(0),
            epoch: Instant::now(),
            last_scope: AtomicU64::new(u64::MAX),
        }
    }

    /// Number of persistent worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Workers parked on the pool's condvar right now.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.shared
            .status
            .lock()
            .expect("pool status poisoned")
            .sleepers
    }

    /// Queues a type-erased job round-robin and wakes the parked workers,
    /// if any.
    fn push(&self, job: Job) {
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        // Lock order `status` → queue, matching `Shared::take_job`.
        let status = self.shared.status.lock().expect("pool status poisoned");
        self.shared.queues[i]
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        self.shared.polled.ready.fetch_add(1, Ordering::Relaxed);
        // A worker that is not parked is running a job or spinning, and
        // finds this one without a wake-up: it checks `ready` under this
        // lock before it parks. Waking every parked worker (not one)
        // keeps the protocol simple; a round queues a handful of jobs.
        if status.sleepers > 0 {
            self.shared.work_cv.notify_all();
        }
    }

    /// Marks the pool hot when this scope begins within `SPIN_WINDOW`
    /// of the previous one, cold otherwise.
    fn note_scope_entry(&self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let prev = self.last_scope.swap(now, Ordering::Relaxed);
        let hot = prev != u64::MAX && now.saturating_sub(prev) < SPIN_WINDOW.as_nanos() as u64;
        self.shared.hot.store(hot, Ordering::Relaxed);
    }

    /// Runs `f` with a [`PoolScope`] on which borrowing jobs can be
    /// spawned; returns only after every spawned job has finished.
    ///
    /// While waiting, the calling thread *helps*: it steals queued jobs
    /// (of any scope) and runs them, so a pool is never idle while its
    /// owner blocks. If a job panics, the panic is re-raised here once
    /// all jobs of the scope have completed (as [`std::thread::scope`]
    /// does).
    pub fn scope<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'pool, 'scope>) -> R,
    {
        self.scope_inner(f, true)
    }

    /// Like [`WorkerPool::scope`], but the calling thread **parks**
    /// while waiting instead of helping run queued jobs.
    ///
    /// The helping behaviour of [`WorkerPool::scope`] is right when the
    /// caller is a long-lived thread (the `PoolBackend` master earns its
    /// keep between frames). It is wrong for the *ephemeral* lane
    /// coordinators of a [`crate::ShardBackend`] round: if a coordinator
    /// stole a compute job, per-frame pixel kernels would run — and lease
    /// arena buffers — on a thread that dies at the end of the run, so
    /// the buffers could never be recycled and every frame would pay a
    /// fresh allocation. Coordinators therefore use this variant, keeping
    /// all compute (and any thread-local frame arenas the kernels lease
    /// from) on the persistent pool workers.
    pub fn scope_park<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'pool, 'scope>) -> R,
    {
        self.scope_inner(f, false)
    }

    fn scope_inner<'pool, 'scope, F, R>(&'pool self, f: F, help: bool) -> R
    where
        F: FnOnce(&PoolScope<'pool, 'scope>) -> R,
    {
        self.note_scope_entry();
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            parked: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = PoolScope {
            pool: self,
            state: Arc::clone(&state),
            _marker: PhantomData,
        };
        // The wait must happen even when `f` itself panics mid-scope —
        // jobs borrowing the caller's stack may still be running — so it
        // lives in a drop guard.
        struct WaitGuard<'a> {
            pool: &'a WorkerPool,
            state: &'a ScopeState,
            help: bool,
        }
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.pool.wait_scope(self.state, self.help);
            }
        }
        let guard = WaitGuard {
            pool: self,
            state: &state,
            help,
        };
        let result = f(&scope);
        drop(guard);
        if let Some(payload) = state.panic.lock().expect("pool panic slot").take() {
            resume_unwind(payload);
        }
        result
    }

    /// Blocks until every job of `state`'s scope has finished. With
    /// `help` set, queued jobs are run in the meantime instead of
    /// sleeping; otherwise the caller only waits. On a hot pool the
    /// caller polls for one `SPIN_WINDOW` before it first parks.
    fn wait_scope(&self, state: &ScopeState, help: bool) {
        // Acquire pairs with the Release decrement of each finished job,
        // so their writes are visible once the count reads zero.
        let done = || state.pending.load(Ordering::Acquire) == 0;
        let mut spun = false;
        loop {
            if done() {
                return;
            }
            if help {
                if let Some(job) = self.shared.take_job(0) {
                    job();
                    continue;
                }
            }
            if !spun && self.shared.hot.load(Ordering::Relaxed) {
                spun = true;
                // A hint, like the worker's spin: new queued work ends the
                // poll early so a helping caller can take it.
                spin_until(SPIN_WINDOW, || {
                    done() || (help && self.shared.polled.ready.load(Ordering::Relaxed) > 0)
                });
                continue;
            }
            let mut parked = state.parked.lock().expect("scope parked flag poisoned");
            *parked = true;
            // The timeout re-checks for stealable jobs: our remaining
            // jobs may sit queued behind another scope's work.
            if !done() {
                parked = state
                    .done_cv
                    .wait_timeout(parked, Duration::from_millis(1))
                    .expect("scope parked flag poisoned")
                    .0;
            }
            *parked = false;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let _status = self.shared.status.lock().expect("pool status poisoned");
            self.shared.polled.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

/// Handle for spawning borrowing jobs inside [`WorkerPool::scope`].
///
/// `'scope` is invariant (as in `std::thread::Scope`): it is the lifetime
/// the spawned closures may borrow from, and it strictly outlives the
/// `scope` call.
pub struct PoolScope<'pool, 'scope> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    _marker: PhantomData<std::cell::Cell<&'scope mut ()>>,
}

impl<'scope> PoolScope<'_, 'scope> {
    /// Spawns `f` on the pool. The job may borrow anything that lives for
    /// `'scope`; the enclosing [`WorkerPool::scope`] call joins it before
    /// returning. Panics inside `f` are captured and re-raised by `scope`.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::Relaxed);
        let state = Arc::clone(&self.state);
        let wrapper = move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state
                    .panic
                    .lock()
                    .expect("pool panic slot")
                    .get_or_insert(payload);
            }
            // Release publishes the job's writes to the joining caller.
            if state.pending.fetch_sub(1, Ordering::Release) == 1 {
                // The caller sets `parked` and re-checks `pending` under
                // this lock before it waits, so the wake-up cannot be lost.
                if *state.parked.lock().expect("scope parked flag poisoned") {
                    state.done_cv.notify_all();
                }
            }
        };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(wrapper);
        // SAFETY: the job is type-erased to 'static only so it can sit in
        // the pool's 'static deques. It never outlives 'scope in practice:
        // `WorkerPool::scope` does not return (even on panic — see its
        // WaitGuard) until this scope's `pending` count, incremented above
        // before the job became visible to any worker, has dropped back to
        // zero, i.e. until the closure has been dropped or run to
        // completion. `'scope` is invariant, so it cannot be shrunk to
        // defeat that guarantee.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push(job);
    }
}

/// The pool execution strategy: persistent work-stealing threads, created
/// once per backend and shared by clones.
///
/// It is the one-lane host [`Dispatch`]: the real-time `itermem` loop,
/// per-frame farms and benchmark harnesses run **repeatedly on small
/// inputs** without spawning a thread per run.
///
/// The pool size defaults to [`Workers::FromEnv`] (the `SKIPPER_WORKERS`
/// environment variable, else [`std::thread::available_parallelism`]); it
/// bounds *physical* parallelism, while each program's own degree still
/// governs its decomposition and the number of jobs a round runs.
#[derive(Debug, Clone)]
pub struct PoolBackend {
    pool: Arc<WorkerPool>,
    config: Workers,
}

impl PoolBackend {
    /// A pool backend sized by the environment (equivalent to
    /// `PoolBackend::configured(Workers::FromEnv)`): `SKIPPER_WORKERS`
    /// persistent threads when the variable holds a positive integer,
    /// else [`crate::default_workers`].
    pub fn new() -> Self {
        PoolBackend::configured(Workers::FromEnv)
    }

    /// A pool backend with the given worker configuration. A pool always
    /// has a concrete size, so the configuration is resolved **here**
    /// (including any `SKIPPER_WORKERS` read for [`Workers::FromEnv`]).
    pub fn configured(workers: Workers) -> Self {
        PoolBackend {
            pool: Arc::new(WorkerPool::new(workers.resolve_or_default())),
            config: workers,
        }
    }

    /// The worker configuration this backend was built with (already
    /// resolved into the pool size — see [`threads`](PoolBackend::threads)
    /// for the concrete count).
    pub fn worker_config(&self) -> Workers {
        self.config
    }

    /// Number of persistent pool threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The underlying pool (shared with every clone of this backend).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

impl Default for PoolBackend {
    fn default() -> Self {
        PoolBackend::new()
    }
}

/// The pool's lane runs a round's jobs on the persistent workers and the
/// calling thread: the caller runs job 0 itself, after queueing jobs
/// 1.. on the pool, then helps run queued work while it waits. A
/// one-job round therefore never touches the pool — no queue push, no
/// wake-up, no scope — and a panic in job 0 still reaches the caller
/// only once the round's other jobs have finished.
///
/// When rounds come back to back (each begins within the pool's 50 µs
/// spin window of the previous one), idle workers poll for the next
/// round's jobs, and the caller for the round's end, before parking: such
/// a round wakes no thread through the kernel. Rounds further apart park
/// at once, so a paced or idle pool burns no CPU between them.
impl Dispatch for PoolBackend {
    fn lanes(&self) -> usize {
        1
    }

    fn run_jobs(&self, _lane: usize, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        match jobs {
            0 => {}
            1 => job(0),
            _ => self.pool.scope(|s| {
                for j in 1..jobs {
                    s.spawn(move || job(j));
                }
                job(0);
            }),
        }
    }
}

/// A backend selected at runtime among the host execution strategies
/// ([`crate::SeqBackend`], [`PoolBackend`], [`crate::ShardBackend`]) —
/// the CLI-friendly form used by `skipper-bench`'s `--backend` flag and
/// the examples.
///
/// ```
/// use skipper::{df, Backend, HostBackend};
///
/// let farm = df(2, |x: &u64| x + 1, |z: u64, y| z + y, 0u64);
/// let backend: HostBackend = "pool".parse().unwrap();
/// assert_eq!(backend.run(&farm, &[1, 2, 3][..]), 9);
/// ```
#[derive(Debug, Clone)]
pub enum HostBackend {
    /// Declarative emulation ([`crate::SeqBackend`]).
    Seq,
    /// Persistent work-stealing pool ([`PoolBackend`]).
    Pool(PoolBackend),
    /// Hash-partitioned shards over independent pools
    /// ([`crate::dist::ShardBackend`]); the CLI form uses two shards.
    Shard(crate::dist::ShardBackend),
}

impl HostBackend {
    /// Selects a host strategy by CLI name with an explicit worker
    /// configuration: `seq` ignores it, `pool` and `shard` size their
    /// pools with it as [`PoolBackend::configured`] and
    /// [`crate::ShardBackend::configured`] do. (`FromStr` is this with
    /// [`Workers::FromEnv`].)
    pub fn configured(kind: &str, workers: Workers) -> Result<Self, String> {
        match kind {
            "seq" => Ok(HostBackend::Seq),
            "pool" => Ok(HostBackend::Pool(PoolBackend::configured(workers))),
            "shard" => Ok(HostBackend::Shard(crate::dist::ShardBackend::configured(
                2, workers,
            ))),
            other => Err(format!(
                "unknown host backend `{other}` (expected seq, pool or shard)"
            )),
        }
    }

    /// The strategy's CLI name (`seq`, `pool` or `shard`).
    pub fn name(&self) -> &'static str {
        match self {
            HostBackend::Seq => "seq",
            HostBackend::Pool(_) => "pool",
            HostBackend::Shard(_) => "shard",
        }
    }
}

impl std::str::FromStr for HostBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HostBackend::configured(s, Workers::FromEnv)
    }
}

impl<P, I> Backend<P, I> for HostBackend
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
        let dispatch: Option<&dyn Dispatch> = match self {
            HostBackend::Seq => None,
            HostBackend::Pool(p) => Some(p),
            HostBackend::Shard(s) => Some(s),
        };
        HostExecutable { prog, dispatch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{df, itermem, pure, scm, tf, Compose, SeqBackend};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn df_on_pool_matches_seq() {
        let farm = df(4, |x: &u64| x * x + 1, |z: u64, y| z + y, 0u64);
        let xs: Vec<u64> = (0..500).collect();
        let pool = PoolBackend::configured(Workers::exact(4));
        assert_eq!(pool.run(&farm, &xs[..]), SeqBackend.run(&farm, &xs[..]));
    }

    #[test]
    fn pool_is_reused_across_runs() {
        let farm = df(4, |x: &u64| x + 7, |z: u64, y| z + y, 0u64);
        let xs: Vec<u64> = (0..64).collect();
        let pool = PoolBackend::configured(Workers::exact(3));
        let golden = SeqBackend.run(&farm, &xs[..]);
        for _ in 0..50 {
            assert_eq!(pool.run(&farm, &xs[..]), golden);
        }
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn single_thread_pool_degenerates_gracefully() {
        let pool = PoolBackend::configured(Workers::exact(1));
        let farm = df(8, |x: &u64| x * 2, |z: u64, y| z + y, 0u64);
        let xs: Vec<u64> = (0..100).collect();
        assert_eq!(pool.run(&farm, &xs[..]), SeqBackend.run(&farm, &xs[..]));
        let tree = tf(
            4,
            |d: u32| {
                if d > 0 {
                    (vec![d - 1, d - 1], Some(1u64))
                } else {
                    (vec![], Some(1u64))
                }
            },
            |z: u64, o| z + o,
            0u64,
        );
        assert_eq!(pool.run(&tree, vec![6]), SeqBackend.run(&tree, vec![6]));
    }

    #[test]
    fn scm_on_pool_preserves_fragment_order() {
        let prog = scm(
            4,
            |v: &Vec<u64>, _| v.iter().map(|&x| vec![x]).collect::<Vec<_>>(),
            |c: Vec<u64>| c,
            |ps: Vec<Vec<u64>>| ps.concat(),
        );
        let data: Vec<u64> = (0..20).rev().collect();
        let pool = PoolBackend::configured(Workers::exact(4));
        assert_eq!(pool.run(&prog, &data), data);
    }

    #[test]
    fn tf_generates_and_terminates_on_pool() {
        let quad = |s: u64| {
            if s > 16 {
                (vec![s / 4; 4], None)
            } else {
                (vec![], Some(s))
            }
        };
        let prog = tf(4, quad, |z: u64, o| z + o, 0u64);
        let pool = PoolBackend::configured(Workers::exact(4));
        assert_eq!(pool.run(&prog, vec![1024]), 1024);
    }

    #[test]
    fn empty_inputs_return_initial_values() {
        let pool = PoolBackend::configured(Workers::exact(2));
        let farm = df(3, |x: &i32| *x, |z: i32, y| z + y, 7);
        assert_eq!(pool.run(&farm, &[][..]), 7);
        let tree = tf(3, |x: u32| (Vec::new(), Some(x)), |z: u32, o| z + o, 9u32);
        assert_eq!(pool.run(&tree, Vec::new()), 9);
        let prog = scm(
            2,
            |_: &u32, _| Vec::<u32>::new(),
            |x: u32| x,
            |ps: Vec<u32>| ps.len(),
        );
        assert_eq!(pool.run(&prog, &0), 0);
    }

    #[test]
    fn then_and_nest_compose_on_the_pool() {
        let pool = PoolBackend::configured(Workers::exact(3));
        let prog = df(3, |x: &u64| x + 1, |z: u64, y| z + y, 0u64)
            .then(pure(|total: u64| format!("{total}")));
        assert_eq!(pool.run(&prog, &[1u64, 2, 3][..]), "9");
        let body = scm(
            3,
            |t: &(i64, i64), n| (0..n as i64).map(|k| t.0 + t.1 * k).collect::<Vec<_>>(),
            |x: i64| x * 2,
            |parts: Vec<i64>| {
                let s: i64 = parts.iter().sum();
                (s, s + 1)
            },
        );
        let loop_prog = itermem(body, 1i64);
        let frames = vec![1i64, 2, 3];
        assert_eq!(
            pool.run(&loop_prog, frames.clone()),
            SeqBackend.run(&loop_prog, frames)
        );
    }

    #[test]
    fn all_items_processed_exactly_once() {
        let counter = AtomicU64::new(0);
        let farm = df(
            8,
            |x: &u64| {
                counter.fetch_add(1, Ordering::Relaxed);
                *x
            },
            |z, y| z + y,
            0u64,
        );
        let xs: Vec<u64> = (0..1000).collect();
        let pool = PoolBackend::configured(Workers::exact(8));
        let total = pool.run(&farm, &xs[..]);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(total, xs.iter().sum::<u64>());
    }

    #[test]
    fn one_job_round_runs_on_the_calling_thread() {
        let pool = PoolBackend::configured(Workers::exact(2));
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        let record = |j: usize| {
            ran_on
                .lock()
                .unwrap()
                .push((j, std::thread::current().id()))
        };
        pool.run_jobs(0, 1, &record);
        assert_eq!(*ran_on.lock().unwrap(), vec![(0, caller)]);
        // In a wider round the caller runs job 0 itself.
        ran_on.lock().unwrap().clear();
        pool.run_jobs(0, 3, &record);
        let mut ran = ran_on.into_inner().unwrap();
        ran.sort_by_key(|r| r.0);
        assert_eq!(ran.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(ran[0].1, caller);
    }

    #[test]
    fn clones_share_one_pool() {
        let a = PoolBackend::configured(Workers::exact(2));
        let b = a.clone();
        assert!(std::ptr::eq(a.pool(), b.pool()));
        let farm = df(2, |x: &u64| *x, |z: u64, y| z + y, 0u64);
        assert_eq!(a.run(&farm, &[1, 2][..]), b.run(&farm, &[1, 2][..]));
    }

    #[test]
    fn concurrent_scopes_on_one_pool_are_isolated() {
        let backend = PoolBackend::configured(Workers::exact(4));
        let farm = df(4, |x: &u64| x * 3, |z: u64, y| z + y, 0u64);
        let xs: Vec<u64> = (0..200).collect();
        let golden = SeqBackend.run(&farm, &xs[..]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let backend = backend.clone();
                let farm = &farm;
                let xs = &xs;
                s.spawn(move || {
                    for _ in 0..20 {
                        assert_eq!(backend.run(farm, &xs[..]), golden);
                    }
                });
            }
        });
    }

    /// Runs one farm round on `pool`, a `df`, an `scm` or a `tf` one by
    /// `round`, and checks it against `SeqBackend`'s result.
    fn round_matches_seq(pool: &PoolBackend, round: u64) {
        match round % 3 {
            0 => {
                let farm = df(4, |x: &u64| x * x + round, |z: u64, y| z + y, 0u64);
                let xs: Vec<u64> = (0..16).collect();
                assert_eq!(pool.run(&farm, &xs[..]), SeqBackend.run(&farm, &xs[..]));
            }
            1 => {
                let split = scm(
                    3,
                    |n: &u64, k| (0..k as u64).map(|i| n + i).collect::<Vec<_>>(),
                    |x: u64| x * 3,
                    |ps: Vec<u64>| ps.iter().sum::<u64>(),
                );
                assert_eq!(pool.run(&split, &round), SeqBackend.run(&split, &round));
            }
            _ => {
                let tree = tf(
                    2,
                    |d: u64| match d {
                        0 => (vec![], Some(1u64)),
                        _ => (vec![d - 1, d - 1], None),
                    },
                    |z: u64, o| z + o,
                    round,
                );
                assert_eq!(pool.run(&tree, vec![3]), SeqBackend.run(&tree, vec![3]));
            }
        }
    }

    #[test]
    fn the_wake_protocol_survives_hot_and_cold_rounds() {
        // Runs on a helper thread so that a lost wake-up fails the test
        // instead of stalling the suite.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let gap = 4 * SPIN_WINDOW;
            for threads in [1, 4] {
                let pool = PoolBackend::configured(Workers::exact(threads));
                let hot = || pool.pool().shared.hot.load(Ordering::Relaxed);
                // Back-to-back rounds: the pool turns hot, and its workers
                // spin between rounds. An empty scope just before each
                // round keeps the pool hot however long a round takes in
                // this build profile.
                let mut hot_rounds = 0;
                for round in 0..1500 {
                    pool.pool().scope(|_| {});
                    round_matches_seq(&pool, round);
                    hot_rounds += usize::from(hot());
                }
                assert!(hot_rounds > 0, "{threads} threads: no round ran hot");
                // Rounds further apart than the window: the pool is cold,
                // and every round wakes parked workers.
                for round in 0..60 {
                    std::thread::sleep(gap);
                    round_matches_seq(&pool, round);
                    assert!(!hot(), "{threads} threads: a round after a gap ran hot");
                }
                // Bursts: workers switch between spinning and parking.
                for round in 0..20 {
                    for k in 0..75 {
                        round_matches_seq(&pool, round * 75 + k);
                    }
                    std::thread::sleep(gap);
                }
            }
            done.send(()).expect("the test thread waits");
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("every round returned and matched SeqBackend");
    }

    #[test]
    fn a_cold_pool_parks_its_workers() {
        let pool = PoolBackend::configured(Workers::exact(4));
        for round in 0..600 {
            pool.pool().scope(|_| {});
            round_matches_seq(&pool, round);
        }
        // Idle workers spin for at most one window, then park; a loaded
        // machine gets a generous time to schedule them.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.pool().sleepers() < pool.threads() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.pool().sleepers(), pool.threads());
    }

    #[test]
    fn host_backend_parses_and_runs() {
        let farm = df(2, |x: &u64| x + 1, |z: u64, y| z + y, 0u64);
        let xs = [1u64, 2, 3];
        let golden = SeqBackend.run(&farm, &xs[..]);
        for name in ["seq", "pool", "shard"] {
            let backend: HostBackend = name.parse().expect("parses");
            assert_eq!(backend.run(&farm, &xs[..]), golden, "backend {name}");
            assert!(!backend.name().is_empty());
        }
        assert!("simd".parse::<HostBackend>().is_err());
        assert!("thread".parse::<HostBackend>().is_err());
    }
}
