//! The retargetable program description: the [`Skeleton`] trait and its
//! composition adapters.
//!
//! The paper's central claim is that **one** skeletal program description
//! serves two semantics: sequential emulation on a workstation and a
//! parallel implementation derived for the target machine. This module is
//! that claim rendered as an API: a [`Skeleton`] is a typed program value
//! ([`Scm`], [`Df`], [`Tf`], the
//! [`itermem`] loop, and the composition adapters [`Then`] / [`Pure`]),
//! and a [`Backend`](crate::Backend) is an interchangeable execution
//! strategy for it.
//!
//! Programs are built with the lowercase constructor functions, which
//! mirror the paper's Caml one-liners:
//!
//! ```
//! use skipper::{df, itermem, scm, Backend, SeqBackend, ThreadBackend};
//!
//! // df n comp acc z — a data farm, as a value.
//! let farm = df(4, |x: &u64| x * x, |z: u64, y| z + y, 0u64);
//! let xs: Vec<u64> = (1..=10).collect();
//! assert_eq!(SeqBackend.run(&farm, &xs[..]), ThreadBackend::new().run(&farm, &xs[..]));
//!
//! // itermem (scm ...) z0 — the paper's tracking-loop shape: a
//! // Split/Compute/Merge body nested in a stream loop with state memory.
//! let body = scm(
//!     2,
//!     |t: &(i64, i64), n| (0..n as i64).map(|k| (t.0, t.1 + k)).collect::<Vec<_>>(),
//!     |(z, b): (i64, i64)| z + b,
//!     |parts: Vec<i64>| (parts.iter().sum::<i64>(), parts.len() as i64),
//! );
//! let tracker = itermem(body, 0i64);
//! let frames = vec![1i64, 2, 3];
//! assert_eq!(
//!     SeqBackend.run(&tracker, frames.clone()),
//!     ThreadBackend::new().run(&tracker, frames),
//! );
//! ```

use crate::backend::Dispatch;
use crate::{Df, Scm, Tf};
use std::num::NonZeroUsize;

/// An argument-dependent cost model: maps the structural *size* of a
/// skeleton function's argument (element count for lists, 1 for scalars
/// — see `skipper_exec::Value::size` for the executive's measure) to the
/// abstract work units one call costs. Declared with
/// `with_cost_model` on [`crate::Df`], [`crate::Scm`] and [`crate::Tf`];
/// host backends ignore it, while `skipper_exec::SimBackend` plumbs it
/// into the lowering: `model(1)` becomes the worker nodes' static WCET
/// hint for the SynDEx scheduler, and the model itself becomes the
/// function's per-call cost for the executive's virtual clock
/// (`Registry::register_with_cost`).
///
/// A plain `fn` pointer so programs stay `Clone` + `Debug` and the model
/// survives lowering without capturing state.
pub type CostModel = fn(usize) -> u64;

/// The degree of parallelism used when a caller does not supply one:
/// [`std::thread::available_parallelism`], falling back to 1 when the
/// platform cannot report it.
pub fn default_workers() -> NonZeroUsize {
    std::thread::available_parallelism()
        .unwrap_or_else(|_| NonZeroUsize::new(1).expect("1 is nonzero"))
}

/// Resolves a caller-supplied worker count: zero selects
/// [`default_workers`], anything else is taken literally.
pub(crate) fn resolve_workers(workers: usize) -> NonZeroUsize {
    NonZeroUsize::new(workers).unwrap_or_else(default_workers)
}

/// The `SKIPPER_WORKERS` environment variable as a worker count, when it
/// holds a positive integer. This is the **single** environment read site
/// in the workspace; everything else goes through [`Workers`].
fn env_workers() -> Option<NonZeroUsize> {
    std::env::var("SKIPPER_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .and_then(NonZeroUsize::new)
}

/// The unified worker-count configuration accepted by every host backend
/// ([`crate::ThreadBackend::configured`], [`crate::PoolBackend::configured`],
/// [`crate::HostBackend::configured`]) and the [`crate::conformance`]
/// harness — one type replacing the pre-0.3 per-backend constructor zoo
/// (`with_workers`, `Option<NonZeroUsize>` vs `usize` accessors, scattered
/// `SKIPPER_WORKERS` reads).
///
/// The three policies:
///
/// - [`Workers::Default`] — the backend's natural default: no override on
///   [`crate::ThreadBackend`] (each program runs with its own degree),
///   [`default_workers`] threads on [`crate::PoolBackend`];
/// - [`Workers::Exact`] — exactly this many workers;
/// - [`Workers::FromEnv`] — the `SKIPPER_WORKERS` environment variable
///   when it holds a positive integer, else the `Default` behaviour.
///
/// ```
/// use skipper::{PoolBackend, ThreadBackend, Workers};
/// use std::num::NonZeroUsize;
///
/// let exact = Workers::Exact(NonZeroUsize::new(2).unwrap());
/// let pool = PoolBackend::configured(exact);
/// assert_eq!(pool.threads(), 2);
/// let threads = ThreadBackend::configured(exact);
/// assert_eq!(threads.worker_config(), exact);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Workers {
    /// The backend's natural default (no override / host parallelism).
    #[default]
    Default,
    /// Exactly this many workers.
    Exact(NonZeroUsize),
    /// `SKIPPER_WORKERS` when set to a positive integer, else the
    /// `Default` behaviour. Resolved when a backend is built (pool) or a
    /// program is prepared (threads), not when the config value is
    /// created.
    FromEnv,
}

impl Workers {
    /// Shorthand for `Workers::Exact` from a plain count.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero (use [`Workers::Default`] to mean "pick
    /// for me").
    pub fn exact(n: usize) -> Workers {
        Workers::Exact(NonZeroUsize::new(n).expect("Workers::exact needs a nonzero count"))
    }

    /// Resolves to an explicit override: `None` for `Default` (and for
    /// `FromEnv` when the variable is unset), `Some` otherwise.
    pub fn resolve(self) -> Option<NonZeroUsize> {
        match self {
            Workers::Default => None,
            Workers::Exact(n) => Some(n),
            Workers::FromEnv => env_workers(),
        }
    }

    /// Resolves to a concrete count, falling back to [`default_workers`]
    /// where [`resolve`](Workers::resolve) has no explicit override.
    pub fn resolve_or_default(self) -> NonZeroUsize {
        self.resolve().unwrap_or_else(default_workers)
    }
}

/// A typed skeletal program description over input `I`.
///
/// Exactly as in the paper, every program has **two** semantics, and the
/// operational one must stay equivalent to the declarative one (for
/// [`Tf`], whose results are folded in arrival order, this requires the
/// accumulation function to be commutative and associative; [`Df`] and
/// [`Scm`] combine their results in unit order and need no side
/// condition):
///
/// - [`run_declarative`](Skeleton::run_declarative) — the executable
///   specification, a pure combination of `map`/`fold`; and
/// - [`run_on`](Skeleton::run_on) — the parallel implementation, written
///   once against a [`Dispatch`], the host strategy that decides where
///   the jobs of each farm round run.
///
/// User code normally does not call these directly: it hands the program
/// to a [`Backend`](crate::Backend) (`SeqBackend`, `ThreadBackend`,
/// `PoolBackend`, `ShardBackend`, or `skipper_exec::SimBackend` for the
/// full SynDEx → simulator pipeline) and calls `backend.run(&prog, input)`.
pub trait Skeleton<I> {
    /// The program's result type.
    type Output;

    /// Declarative semantics: the executable specification.
    fn run_declarative(&self, input: I) -> Self::Output;

    /// Operational semantics: every farm round of the program runs its
    /// jobs through `dispatch` (which may override how many jobs a round
    /// runs, never the program's decomposition, e.g. the fragment count
    /// an `scm` split is asked for).
    fn run_on(&self, dispatch: &dyn Dispatch, input: I) -> Self::Output;
}

/// Sequential composition: `Then(a, b)` pipes the output of `a` into `b`.
///
/// Built with [`Compose::then`].
#[derive(Debug, Clone)]
pub struct Then<A, B> {
    /// First stage.
    pub(crate) first: A,
    /// Second stage, consuming the first stage's output.
    pub(crate) second: B,
}

impl<A, B> Then<A, B> {
    /// The first stage.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second stage.
    pub fn second(&self) -> &B {
        &self.second
    }
}

impl<In, A, B> Skeleton<In> for Then<A, B>
where
    A: Skeleton<In>,
    B: Skeleton<A::Output>,
{
    type Output = B::Output;

    fn run_declarative(&self, input: In) -> Self::Output {
        self.second
            .run_declarative(self.first.run_declarative(input))
    }

    fn run_on(&self, d: &dyn Dispatch, input: In) -> Self::Output {
        self.second.run_on(d, self.first.run_on(d, input))
    }
}

/// A plain sequential function lifted into the program algebra, so it can
/// participate in [`then`](Compose::then) pipelines and serve as an
/// `itermem` loop body.
#[derive(Debug, Clone)]
pub struct Pure<F> {
    pub(crate) f: F,
}

impl<F> Pure<F> {
    /// The wrapped function.
    pub fn get(&self) -> &F {
        &self.f
    }
}

/// Lifts a plain function into a [`Skeleton`] (both semantics are the
/// function itself).
pub fn pure<F>(f: F) -> Pure<F> {
    Pure { f }
}

impl<In, Out, F> Skeleton<In> for Pure<F>
where
    F: Fn(In) -> Out,
{
    type Output = Out;

    fn run_declarative(&self, input: In) -> Out {
        (self.f)(input)
    }

    fn run_on(&self, _d: &dyn Dispatch, input: In) -> Out {
        (self.f)(input)
    }
}

/// The `itermem` stream loop as a program value (Fig. 4).
///
/// The body is itself a [`Skeleton`] mapping `&(state, frame)` to
/// `(state', output)` — the paper's `let z', y = loop (z, inp x)`
/// contract — so a tracking loop is written `itermem(scm(...), z0)`.
/// Run over a finite stream `Vec<B>` of frames, it returns the final
/// state and the per-frame outputs.
///
/// (The push-driven runner with input/display callbacks used for live
/// emulation is [`crate::IterMem`]; this type is the composable program
/// form understood by every backend.)
#[derive(Debug, Clone)]
pub struct IterLoop<P, Z> {
    pub(crate) body: P,
    pub(crate) init: Z,
}

impl<P, Z> IterLoop<P, Z> {
    /// The loop body program.
    pub fn body(&self) -> &P {
        &self.body
    }

    /// The initial memory value (the paper's `z`).
    pub fn init(&self) -> &Z {
        &self.init
    }
}

/// Builds the `itermem` loop program: `body` maps `&(state, frame)` to
/// `(state', output)`, `init` is the initial memory value.
pub fn itermem<P, Z>(body: P, init: Z) -> IterLoop<P, Z> {
    IterLoop { body, init }
}

impl<P, Z, B, Y> Skeleton<Vec<B>> for IterLoop<P, Z>
where
    P: for<'a> Skeleton<&'a (Z, B), Output = (Z, Y)>,
    Z: Clone,
{
    type Output = (Z, Vec<Y>);

    fn run_declarative(&self, frames: Vec<B>) -> (Z, Vec<Y>) {
        let mut z = self.init.clone();
        let mut ys = Vec::with_capacity(frames.len());
        for (i, b) in frames.into_iter().enumerate() {
            crate::receipt::record_frame(i as u64);
            let pair = (z, b);
            let (z2, y) = self.body.run_declarative(&pair);
            z = z2;
            ys.push(y);
        }
        (z, ys)
    }

    fn run_on(&self, d: &dyn Dispatch, frames: Vec<B>) -> (Z, Vec<Y>) {
        let mut z = self.init.clone();
        let mut ys = Vec::with_capacity(frames.len());
        for (i, b) in frames.into_iter().enumerate() {
            crate::receipt::record_frame(i as u64);
            let pair = (z, b);
            let (z2, y) = self.body.run_on(d, &pair);
            z = z2;
            ys.push(y);
        }
        (z, ys)
    }
}

/// A stream loop as the body of an *outer* stream loop (nested
/// `itermem`): the outer frame is a burst `Vec<B>` of inner frames, run
/// through the inner loop **seeded with the carried outer state** — the
/// nesting continues one state thread across bursts, so the inner loop's
/// own `init` seeds only top-level runs. The per-burst output is the
/// inner loop's output vector.
impl<'a, P, Z, B, Y> Skeleton<&'a (Z, Vec<B>)> for IterLoop<P, Z>
where
    P: for<'x> Skeleton<&'x (Z, B), Output = (Z, Y)>,
    Z: Clone,
    B: Clone,
{
    type Output = (Z, Vec<Y>);

    fn run_declarative(&self, t: &'a (Z, Vec<B>)) -> (Z, Vec<Y>) {
        let mut z = t.0.clone();
        let mut ys = Vec::with_capacity(t.1.len());
        for (i, b) in t.1.iter().enumerate() {
            crate::receipt::record_frame(i as u64);
            let pair = (z, b.clone());
            let (z2, y) = self.body.run_declarative(&pair);
            z = z2;
            ys.push(y);
        }
        (z, ys)
    }

    fn run_on(&self, d: &dyn Dispatch, t: &'a (Z, Vec<B>)) -> (Z, Vec<Y>) {
        let mut z = t.0.clone();
        let mut ys = Vec::with_capacity(t.1.len());
        for (i, b) in t.1.iter().enumerate() {
            crate::receipt::record_frame(i as u64);
            let pair = (z, b.clone());
            let (z2, y) = self.body.run_on(d, &pair);
            z = z2;
            ys.push(y);
        }
        (z, ys)
    }
}

/// Composition adapters shared by every program type.
pub trait Compose: Sized {
    /// Pipes this program's output into `next`.
    fn then<Next>(self, next: Next) -> Then<Self, Next> {
        Then {
            first: self,
            second: next,
        }
    }

    /// Nests this program as the loop body of an [`itermem`] stream loop
    /// with initial state `init` (sugar for `itermem(self, init)`).
    fn nest<Z>(self, init: Z) -> IterLoop<Self, Z> {
        itermem(self, init)
    }
}

impl<S, C, M> Compose for Scm<S, C, M> {}
impl<C, A, Z> Compose for Df<C, A, Z> {}
impl<W, A, Z> Compose for Tf<W, A, Z> {}
impl<F> Compose for Pure<F> {}
impl<A, B> Compose for Then<A, B> {}
impl<P, Z> Compose for IterLoop<P, Z> {}

/// Builds a [`Df`] (data-farming) program:
/// `df : int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c`.
/// A `workers` count of 0 selects [`default_workers`].
pub fn df<C, A, Z>(workers: usize, comp: C, acc: A, init: Z) -> Df<C, A, Z> {
    Df::new(workers, comp, acc, init)
}

/// Builds an [`Scm`] (split/compute/merge) program:
/// `scm : int -> ('a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd) -> 'a -> 'd`.
/// A `workers` count of 0 selects [`default_workers`].
pub fn scm<S, C, M>(workers: usize, split: S, compute: C, merge: M) -> Scm<S, C, M> {
    Scm::new(workers, split, compute, merge)
}

/// Builds a [`Tf`] (task-farming) program: like [`df`], but each worker
/// may generate fresh task packets. A `workers` count of 0 selects
/// [`default_workers`].
pub fn tf<W, A, Z>(workers: usize, worker: W, acc: A, init: Z) -> Tf<W, A, Z> {
    Tf::new(workers, worker, acc, init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, SeqBackend, ThreadBackend};

    #[test]
    fn then_pipes_stages() {
        let prog = df(3, |x: &u64| x + 1, |z: u64, y| z + y, 0u64)
            .then(pure(|total: u64| format!("{total}")));
        let xs = [1u64, 2, 3];
        assert_eq!(SeqBackend.run(&prog, &xs[..]), "9");
        assert_eq!(ThreadBackend::new().run(&prog, &xs[..]), "9");
    }

    #[test]
    fn itermem_threads_state_through_scm_body() {
        // State = running sum; frame = an integer; body fans the frame out
        // over 3 compute nodes and merges back (state', output).
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
        let (z_seq, ys_seq) = SeqBackend.run(&loop_prog, frames.clone());
        let (z_par, ys_par) = ThreadBackend::new().run(&loop_prog, frames);
        assert_eq!(z_seq, z_par);
        assert_eq!(ys_seq, ys_par);
        assert_eq!(ys_seq.len(), 3);
    }

    #[test]
    fn nest_is_itermem_sugar() {
        let body = pure(|t: &(u32, u32)| (t.0 + t.1, t.0));
        let a = body.clone().nest(5u32);
        let b = itermem(body, 5u32);
        assert_eq!(
            SeqBackend.run(&a, vec![1u32, 2, 3]),
            SeqBackend.run(&b, vec![1u32, 2, 3])
        );
    }

    #[test]
    fn default_workers_is_nonzero() {
        assert!(default_workers().get() >= 1);
        assert_eq!(resolve_workers(7).get(), 7);
        assert_eq!(resolve_workers(0), default_workers());
    }

    #[test]
    fn workers_config_resolves_per_policy() {
        assert_eq!(Workers::Default.resolve(), None);
        assert_eq!(Workers::Default.resolve_or_default(), default_workers());
        assert_eq!(Workers::exact(6).resolve(), NonZeroUsize::new(6));
        assert_eq!(
            Workers::exact(6),
            Workers::Exact(NonZeroUsize::new(6).unwrap())
        );
        // FromEnv honours SKIPPER_WORKERS when set, falls back to the
        // default otherwise; either way it resolves to something usable.
        let from_env = Workers::FromEnv.resolve_or_default();
        match env_workers() {
            Some(n) => assert_eq!(from_env, n),
            None => assert_eq!(from_env, default_workers()),
        }
        assert_eq!(Workers::default(), Workers::Default);
    }

    #[test]
    fn workers_exact_rejects_zero() {
        let caught = std::panic::catch_unwind(|| Workers::exact(0));
        assert!(caught.is_err(), "Workers::exact(0) must panic");
    }

    #[test]
    fn pure_ignores_worker_override() {
        let p = pure(|x: i32| x * 3);
        assert_eq!(ThreadBackend::configured(Workers::exact(5)).run(&p, 2), 6);
        assert_eq!(SeqBackend.run(&p, 2), 6);
    }
}
