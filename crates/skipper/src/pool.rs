//! The pool backend: a persistent work-stealing thread pool.
//!
//! [`crate::ThreadBackend`] spawns fresh scoped threads on **every** `run`
//! call — faithful to the paper's process networks, but a real-time image
//! loop (`itermem` at 25 Hz, or the repeated-run harness in
//! `skipper-bench`) pays thread-creation cost per frame. [`PoolBackend`]
//! removes that overhead: a [`WorkerPool`] of OS threads is created once
//! (when the backend is built) and reused across `run` calls, so
//! fine-grained workloads amortise spawn cost to (almost) zero.
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
//! - **Scoped, borrowing jobs.** Skeleton runs borrow their input
//!   (`&[I]`) and user functions (`&C`), so jobs must be non-`'static`.
//!   [`WorkerPool::scope`] provides the same guarantee as
//!   `crossbeam::thread::scope`: it does not return until every job
//!   spawned in it has finished, which makes handing borrowed closures to
//!   the pool sound (see the `SAFETY` notes inline).
//!
//! # Semantics
//!
//! [`PoolBackend`] runs the same operational semantics
//! ([`Skeleton::run_on`]) as [`crate::ThreadBackend`] and is subject to
//! the same paper side condition: `tf` accumulation must be commutative
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A type-erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pool state shared between the owner and its worker threads.
struct Shared {
    /// One job deque per worker thread (round-robin push, owner pops the
    /// front, thieves steal the back).
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep/wake bookkeeping: the number of queued-but-unclaimed jobs and
    /// the shutdown flag, guarded together so wakeups cannot be lost.
    status: Mutex<Status>,
    /// Signalled whenever a job is pushed or shutdown begins.
    work_cv: Condvar,
}

struct Status {
    ready: usize,
    shutdown: bool,
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
        let mut status = self.status.lock().expect("pool status poisoned");
        if status.ready == 0 {
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
                status.ready -= 1;
                return Some(job);
            }
        }
        None
    }
}

/// The worker-thread main loop: run jobs while any are queued, sleep on
/// the condvar otherwise, exit on shutdown.
fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(job) = shared.take_job(me) {
            job();
            continue;
        }
        let mut status = shared.status.lock().expect("pool status poisoned");
        loop {
            if status.shutdown {
                return;
            }
            if status.ready > 0 {
                break;
            }
            status = shared.work_cv.wait(status).expect("pool status poisoned");
        }
    }
}

/// Per-[`WorkerPool::scope`] completion state.
struct ScopeState {
    /// Jobs spawned in this scope that have not finished yet.
    pending: Mutex<usize>,
    /// Signalled when `pending` drops to zero.
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
}

impl WorkerPool {
    /// Spawns a pool of `threads` persistent workers.
    pub fn new(threads: NonZeroUsize) -> Self {
        let n = threads.get();
        let shared = Arc::new(Shared {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            status: Mutex::new(Status {
                ready: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
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
        }
    }

    /// Number of persistent worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Queues a type-erased job round-robin and wakes a sleeping worker.
    fn push(&self, job: Job) {
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        // Lock order `status` → queue, matching `Shared::take_job`.
        let mut status = self.shared.status.lock().expect("pool status poisoned");
        self.shared.queues[i]
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        status.ready += 1;
        // notify_all keeps the wake protocol trivially live; skeleton runs
        // queue at most a handful of coarse jobs, so the cost is noise.
        self.shared.work_cv.notify_all();
    }

    /// Runs `f` with a [`PoolScope`] on which borrowing jobs can be
    /// spawned; returns only after every spawned job has finished.
    ///
    /// While waiting, the calling thread *helps*: it steals queued jobs
    /// (of any scope) and runs them, so a pool is never idle while its
    /// owner blocks. If a job panics, the panic is re-raised here once
    /// all jobs of the scope have completed (matching
    /// `crossbeam::thread::scope`'s propagation in the shim).
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
        let state = Arc::new(ScopeState {
            pending: Mutex::new(0),
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
    /// sleeping; otherwise the caller only waits.
    fn wait_scope(&self, state: &ScopeState, help: bool) {
        loop {
            if *state.pending.lock().expect("scope pending poisoned") == 0 {
                return;
            }
            if help {
                if let Some(job) = self.shared.take_job(0) {
                    job();
                    continue;
                }
            }
            let mut pending = state.pending.lock().expect("scope pending poisoned");
            while *pending != 0 {
                // The timeout re-checks for stealable jobs: our remaining
                // jobs may sit queued behind another scope's work.
                let (guard, timeout) = state
                    .done_cv
                    .wait_timeout(pending, Duration::from_millis(1))
                    .expect("scope pending poisoned");
                pending = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            if *pending == 0 {
                return;
            }
            drop(pending);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut status = self.shared.status.lock().expect("pool status poisoned");
            status.shutdown = true;
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
        *self.state.pending.lock().expect("scope pending poisoned") += 1;
        let state = Arc::clone(&self.state);
        let wrapper = move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state
                    .panic
                    .lock()
                    .expect("pool panic slot")
                    .get_or_insert(payload);
            }
            let mut pending = state.pending.lock().expect("scope pending poisoned");
            *pending -= 1;
            if *pending == 0 {
                state.done_cv.notify_all();
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
/// Prefer it over [`crate::ThreadBackend`] when the same (or successive)
/// programs run **repeatedly on small inputs** — the real-time `itermem`
/// loop, per-frame farms, benchmark harnesses — where per-run thread
/// spawning dominates. For one-shot coarse-grained runs the two backends
/// perform alike.
///
/// The pool size defaults to [`Workers::FromEnv`] (the `SKIPPER_WORKERS`
/// environment variable, else [`std::thread::available_parallelism`]); it
/// bounds *physical* parallelism, while each program's own degree still
/// governs its decomposition, exactly as with a
/// [`crate::ThreadBackend::configured`] worker override.
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
    /// (including any `SKIPPER_WORKERS` read for [`Workers::FromEnv`]):
    /// [`Workers::Default`] spawns [`crate::default_workers`] threads.
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

/// The pool's lane runs a round's jobs on the persistent workers, and
/// the calling thread helps run them while it waits.
impl Dispatch for PoolBackend {
    fn lanes(&self) -> usize {
        1
    }

    fn run_jobs(&self, _lane: usize, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        self.pool.scope(|s| {
            for j in 0..jobs {
                s.spawn(move || job(j));
            }
        });
    }
}

/// A backend selected at runtime among the host execution strategies
/// ([`crate::SeqBackend`], [`crate::ThreadBackend`], [`PoolBackend`]) —
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
    /// Scoped threads per run ([`crate::ThreadBackend`]).
    Thread(crate::ThreadBackend),
    /// Persistent work-stealing pool ([`PoolBackend`]).
    Pool(PoolBackend),
    /// Hash-partitioned shards over independent pools
    /// ([`crate::dist::ShardBackend`]); the CLI form uses two shards.
    Shard(crate::dist::ShardBackend),
}

impl HostBackend {
    /// Selects a host strategy by CLI name with an explicit worker
    /// configuration: `seq` ignores it, `thread` and `pool` apply it as
    /// [`crate::ThreadBackend::configured`] /
    /// [`PoolBackend::configured`] do. (`FromStr` keeps each backend's
    /// own default: no override for threads, `SKIPPER_WORKERS` for the
    /// pool.)
    pub fn configured(kind: &str, workers: Workers) -> Result<Self, String> {
        match kind {
            "seq" => Ok(HostBackend::Seq),
            "thread" | "threads" => Ok(HostBackend::Thread(crate::ThreadBackend::configured(
                workers,
            ))),
            "pool" => Ok(HostBackend::Pool(PoolBackend::configured(workers))),
            "shard" => Ok(HostBackend::Shard(crate::dist::ShardBackend::configured(
                2, workers,
            ))),
            other => Err(format!(
                "unknown host backend `{other}` (expected seq, thread, pool or shard)"
            )),
        }
    }

    /// The strategy's CLI name (`seq`, `thread`, `pool` or `shard`).
    pub fn name(&self) -> &'static str {
        match self {
            HostBackend::Seq => "seq",
            HostBackend::Thread(_) => "thread",
            HostBackend::Pool(_) => "pool",
            HostBackend::Shard(_) => "shard",
        }
    }
}

impl std::str::FromStr for HostBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "seq" => Ok(HostBackend::Seq),
            "thread" | "threads" => Ok(HostBackend::Thread(crate::ThreadBackend::new())),
            "pool" => Ok(HostBackend::Pool(PoolBackend::new())),
            "shard" => Ok(HostBackend::Shard(crate::dist::ShardBackend::new(2))),
            other => Err(format!(
                "unknown host backend `{other}` (expected seq, thread, pool or shard)"
            )),
        }
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
            HostBackend::Thread(t) => Some(t),
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
    use std::time::Instant;

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

    #[test]
    fn pool_beats_thread_spawn_on_repeated_fine_grained_runs() {
        // The tentpole claim: repeated runs over small inputs are faster on
        // the persistent pool than on per-run spawned threads. Generous
        // margin (pool must merely not lose) keeps this stable on loaded CI.
        let farm = df(4, |x: &u64| x.wrapping_mul(31) ^ x, |z: u64, y| z ^ y, 0u64);
        let xs: Vec<u64> = (0..128).collect();
        let runs = 100;
        let threads = crate::ThreadBackend::new();
        let pool = PoolBackend::new();
        // Warm both paths.
        let a = threads.run(&farm, &xs[..]);
        let b = pool.run(&farm, &xs[..]);
        assert_eq!(a, b);
        let t0 = Instant::now();
        for _ in 0..runs {
            std::hint::black_box(threads.run(&farm, &xs[..]));
        }
        let spawned = t0.elapsed();
        let t0 = Instant::now();
        for _ in 0..runs {
            std::hint::black_box(pool.run(&farm, &xs[..]));
        }
        let pooled = t0.elapsed();
        assert!(
            pooled <= spawned * 2,
            "pool lost badly on fine-grained repeated runs: pool {pooled:?} vs thread {spawned:?}"
        );
    }

    #[test]
    fn host_backend_parses_and_runs() {
        let farm = df(2, |x: &u64| x + 1, |z: u64, y| z + y, 0u64);
        let xs = [1u64, 2, 3];
        let golden = SeqBackend.run(&farm, &xs[..]);
        for name in ["seq", "thread", "pool", "shard"] {
            let backend: HostBackend = name.parse().expect("parses");
            assert_eq!(backend.run(&farm, &xs[..]), golden, "backend {name}");
            assert!(!backend.name().is_empty());
        }
        assert!("simd".parse::<HostBackend>().is_err());
    }
}
