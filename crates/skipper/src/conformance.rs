//! The backend conformance kit: one reusable contract suite for every
//! [`Backend`] implementation.
//!
//! The paper's central claim — one skeletal program, interchangeable
//! execution strategies — only holds if every backend produces the
//! **same results** as the declarative specification. In the spirit of
//! consumer-driven contract testing, this module is that contract written
//! once: a fixed repertoire of program cases (all four skeletons, the
//! `then` pipeline, and the stream-loop compositions `itermem(scm)`,
//! `itermem(df)`, `itermem(tf)`, nested `itermem(itermem(..))` and
//! then-inside-loop), a fixed input matrix (empty, singleton, regular and
//! skewed inputs — including empty frames inside non-empty streams), and
//! a sweep over worker counts (1, 2, the host default, and
//! `SKIPPER_WORKERS` when set). Golden results always come from
//! [`SeqBackend`].
//!
//! Any backend is checked through the [`Backend`] impls it already has:
//! the kit takes every [`Conformant`] backend — one that can prepare and
//! run each case program — and needs no harness code from it. A run may
//! return its output bare (the host backends), as a `Result` (`SimBackend`
//! in `skipper_exec`, whose lowering can fail), or together with the
//! receipt the run computed itself ([`crate::DistBackend`], whose worker
//! processes compute it); [`Outcome`] reads all three, and a failed run
//! fails its case. Each case program implements [`Catalog`] once: its
//! name on a process fleet's wire, its farm degree, and how an entry of
//! its input matrix becomes a run's input. The program cases are
//! deliberately built from plain `fn` pointers so their types are
//! nameable and lowerable by every backend, and the farm accumulators are
//! commutative-associative (the paper's stated side condition for farm
//! equivalence).
//!
//! ```
//! use skipper::conformance::assert_backend_conforms;
//! use skipper::PoolBackend;
//!
//! assert_backend_conforms(&PoolBackend::new());
//! ```

use crate::backend::{Backend, Dispatch, Executable};
use crate::dist::{DistBackend, DistError};
use crate::pool::PoolBackend;
use crate::program::{default_workers, Skeleton, Workers};
use crate::receipt::{receipted, Receipted, RunReceipt};
use crate::wire::{FromWire, ToWire};
use crate::{Df, IterLoop, Pure, Scm, SeqBackend, Tf, Then};
use std::fmt::{Debug, Display};

/// The `df` conformance program type.
pub type DfProg = Df<fn(&i64) -> i64, fn(i64, i64) -> i64, i64>;

/// The `scm` conformance program type.
pub type ScmProg = Scm<
    fn(&Vec<i64>, usize) -> Vec<Vec<i64>>,
    fn(Vec<i64>) -> Vec<i64>,
    fn(Vec<Vec<i64>>) -> Vec<i64>,
>;

/// The `tf` conformance program type.
pub type TfProg = Tf<fn(u64) -> (Vec<u64>, Option<u64>), fn(u64, u64) -> u64, u64>;

/// The `then`-pipeline conformance program type (a farm piped into a
/// lifted function).
pub type ThenProg = Then<DfProg, Pure<fn(i64) -> (i64, i64)>>;

/// The loop body of the `itermem` conformance program.
pub type LoopBody = Scm<
    fn(&(i64, i64), usize) -> Vec<(i64, i64)>,
    fn((i64, i64)) -> i64,
    fn(Vec<i64>) -> (i64, i64),
>;

/// The `itermem(scm(...))` conformance program type — the paper's
/// tracking-loop shape.
pub type LoopProg = IterLoop<LoopBody, i64>;

fn df_comp(x: &i64) -> i64 {
    x * x + 3
}

fn df_acc(z: i64, y: i64) -> i64 {
    z + y
}

/// The `df` case: a commutative-associative sum over squared items.
pub fn df_case(workers: usize) -> DfProg {
    crate::df(workers, df_comp as _, df_acc as _, 10)
}

// Round-robin split: always exactly `n` fragments, which is what the
// statically-expanded simulator process network requires. (`&Vec` rather
// than `&[_]` because the splitter's argument fixes the skeleton's sized
// input type parameter `I`.)
#[allow(clippy::ptr_arg)]
fn scm_split(v: &Vec<i64>, n: usize) -> Vec<Vec<i64>> {
    let mut out = vec![Vec::new(); n];
    for (i, &x) in v.iter().enumerate() {
        out[i % n].push(x);
    }
    out
}

fn scm_comp(chunk: Vec<i64>) -> Vec<i64> {
    chunk.iter().map(|x| x * 3 - 1).collect()
}

// The merge sorts, making it insensitive to fragment arrival order: the
// same case then drives every backend, including simulated ones.
// Preserving the *order* of fragments is pinned separately by the pool
// unit tests.
fn scm_merge(parts: Vec<Vec<i64>>) -> Vec<i64> {
    let mut flat = parts.concat();
    flat.sort_unstable();
    flat
}

/// The `scm` case: round-robin split, per-item affine map, order-
/// insensitive merge.
pub fn scm_case(workers: usize) -> ScmProg {
    crate::scm(workers, scm_split as _, scm_comp as _, scm_merge as _)
}

fn tf_work(t: u64) -> (Vec<u64>, Option<u64>) {
    if t >= 8 {
        (vec![t / 2, t / 3], Some(t))
    } else {
        (vec![], Some(t))
    }
}

fn tf_acc(z: u64, o: u64) -> u64 {
    z.wrapping_add(o.wrapping_mul(31))
}

/// The `tf` case: a divide-and-conquer task tree with a commutative fold.
pub fn tf_case(workers: usize) -> TfProg {
    crate::tf(workers, tf_work as _, tf_acc as _, 0)
}

fn then_post(total: i64) -> (i64, i64) {
    (total, total % 7)
}

/// The `then` case: [`df_case`] piped into a lifted post-processing
/// function.
pub fn then_case(workers: usize) -> ThenProg {
    use crate::Compose;
    df_case(workers).then(crate::pure(then_post as _))
}

fn loop_split(t: &(i64, i64), n: usize) -> Vec<(i64, i64)> {
    (0..n as i64).map(|k| (t.0 + k, t.1)).collect()
}

fn loop_comp(p: (i64, i64)) -> i64 {
    p.0 * 2 + p.1
}

fn loop_merge(parts: Vec<i64>) -> (i64, i64) {
    let s: i64 = parts.iter().sum();
    (s, s - 1)
}

/// The bare stream-loop body of [`itermem_case`] — the `(state, frame) →
/// (state', output)` program shape [`crate::serve::serve`] consumes.
pub fn loop_body_case(workers: usize) -> LoopBody {
    crate::scm(workers, loop_split as _, loop_comp as _, loop_merge as _)
}

/// The initial loop state [`itermem_case`] carries (and the serving axis
/// must seed each stream with).
pub const LOOP_CASE_INIT: i64 = 5;

/// The `itermem` case: an `scm` body nested in the Fig. 4 stream loop,
/// threading state across frames.
pub fn itermem_case(workers: usize) -> LoopProg {
    crate::itermem(loop_body_case(workers), LOOP_CASE_INIT)
}

/// The `itermem(df(...))` conformance program type — a data farm as the
/// stream-loop body, with the carried state seeding the accumulator.
pub type LoopDfProg = IterLoop<DfProg, i64>;

/// The `itermem(df)` case: each frame is an item list farmed out and
/// folded into the tracked state.
pub fn itermem_df_case(workers: usize) -> LoopDfProg {
    crate::itermem(df_case(workers), 100)
}

/// The `itermem(tf(...))` conformance program type — a task farm as the
/// stream-loop body.
pub type LoopTfProg = IterLoop<TfProg, u64>;

/// The `itermem(tf)` case: each frame is a list of root tasks elaborated
/// into the tracked state.
pub fn itermem_tf_case(workers: usize) -> LoopTfProg {
    crate::itermem(tf_case(workers), 7)
}

/// The nested-loop conformance program type: an inner `itermem(scm)` as
/// the body of an outer stream loop (each outer frame is a burst of inner
/// frames, continuing one state thread).
pub type NestedLoopProg = IterLoop<LoopProg, i64>;

/// The nested-loop case.
pub fn nested_loop_case(workers: usize) -> NestedLoopProg {
    crate::itermem(itermem_case(workers), 9)
}

fn loop_then_post(t: (i64, i64)) -> (i64, i64) {
    (t.0 + 1, t.1 * 5)
}

/// The then-inside-loop conformance program type: an `scm` body piped
/// into a lifted post-processing function, inside the stream loop.
pub type LoopThenProg = IterLoop<Then<LoopBody, Pure<fn((i64, i64)) -> (i64, i64)>>, i64>;

/// The then-inside-loop case.
pub fn itermem_then_case(workers: usize) -> LoopThenProg {
    use crate::Compose;
    crate::itermem(
        crate::scm(workers, loop_split as _, loop_comp as _, loop_merge as _)
            .then(crate::pure(loop_then_post as _)),
        3,
    )
}

/// A program of the case catalog, implemented once by each of the nine
/// case program types: the name a process fleet's `job` message gives it,
/// how it is built and at what farm degree, and how an entry of its input
/// matrix becomes a run's input. The kit, the fleet master
/// ([`DistBackend`]'s [`Backend`] impl) and the fleet worker
/// ([`crate::dist::serve_connection`]) all read it.
pub trait Catalog: Sized + for<'a> Skeleton<Self::Input<'a>, Output = Self::Out> {
    /// The case's name on the wire.
    const CASE: &'static str;
    /// Builds the case at a farm degree (e.g. [`df_case`]).
    const BUILD: fn(usize) -> Self;
    /// An entry of the case's input matrix, as the wire carries it.
    type Entry: Debug + ToWire + FromWire;
    /// The input a run takes.
    type Input<'a>: ToWire;
    /// What a run returns.
    type Out: PartialEq + Debug + ToWire + FromWire;

    /// The farm degree the case was built with.
    fn degree(&self) -> usize;

    /// The run input `entry` stands for.
    fn input(entry: &Self::Entry) -> Self::Input<'_>;

    /// Runs the case on a process fleet: by default, as one job on one
    /// worker process.
    fn run_on_fleet(
        &self,
        fleet: &DistBackend,
        input: Self::Input<'_>,
    ) -> Result<Receipted<Self::Out>, DistError> {
        fleet.run_case(Self::CASE, self.degree(), &input)
    }
}

impl Catalog for DfProg {
    const CASE: &'static str = "df";
    const BUILD: fn(usize) -> Self = df_case;
    type Entry = Vec<i64>;
    type Input<'a> = &'a [i64];
    type Out = i64;

    fn degree(&self) -> usize {
        self.workers()
    }

    fn input(entry: &Vec<i64>) -> &[i64] {
        entry
    }

    /// The farm's items are spread over every worker process
    /// ([`DistBackend::run_df_sharded`]).
    fn run_on_fleet(&self, fleet: &DistBackend, xs: &[i64]) -> Result<Receipted<i64>, DistError> {
        let (output, receipt) = fleet.run_df_sharded(self.workers(), xs)?;
        Ok(Receipted { output, receipt })
    }
}

impl Catalog for ScmProg {
    const CASE: &'static str = "scm";
    const BUILD: fn(usize) -> Self = scm_case;
    type Entry = Vec<i64>;
    type Input<'a> = &'a Vec<i64>;
    type Out = Vec<i64>;

    fn degree(&self) -> usize {
        self.workers()
    }

    fn input(entry: &Vec<i64>) -> &Vec<i64> {
        entry
    }
}

impl Catalog for TfProg {
    const CASE: &'static str = "tf";
    const BUILD: fn(usize) -> Self = tf_case;
    type Entry = Vec<u64>;
    type Input<'a> = Vec<u64>;
    type Out = u64;

    fn degree(&self) -> usize {
        self.workers()
    }

    fn input(entry: &Vec<u64>) -> Vec<u64> {
        entry.clone()
    }
}

impl Catalog for ThenProg {
    const CASE: &'static str = "then";
    const BUILD: fn(usize) -> Self = then_case;
    type Entry = Vec<i64>;
    type Input<'a> = &'a [i64];
    type Out = (i64, i64);

    fn degree(&self) -> usize {
        self.first().workers()
    }

    fn input(entry: &Vec<i64>) -> &[i64] {
        entry
    }
}

impl Catalog for LoopProg {
    const CASE: &'static str = "itermem";
    const BUILD: fn(usize) -> Self = itermem_case;
    type Entry = Vec<i64>;
    type Input<'a> = Vec<i64>;
    type Out = (i64, Vec<i64>);

    fn degree(&self) -> usize {
        self.body().workers()
    }

    fn input(entry: &Vec<i64>) -> Vec<i64> {
        entry.clone()
    }
}

impl Catalog for LoopDfProg {
    const CASE: &'static str = "itermem_df";
    const BUILD: fn(usize) -> Self = itermem_df_case;
    type Entry = Vec<Vec<i64>>;
    type Input<'a> = Vec<Vec<i64>>;
    type Out = (i64, Vec<i64>);

    fn degree(&self) -> usize {
        self.body().workers()
    }

    fn input(entry: &Vec<Vec<i64>>) -> Vec<Vec<i64>> {
        entry.clone()
    }
}

impl Catalog for LoopTfProg {
    const CASE: &'static str = "itermem_tf";
    const BUILD: fn(usize) -> Self = itermem_tf_case;
    type Entry = Vec<Vec<u64>>;
    type Input<'a> = Vec<Vec<u64>>;
    type Out = (u64, Vec<u64>);

    fn degree(&self) -> usize {
        self.body().workers()
    }

    fn input(entry: &Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        entry.clone()
    }
}

impl Catalog for NestedLoopProg {
    const CASE: &'static str = "nested_loop";
    const BUILD: fn(usize) -> Self = nested_loop_case;
    type Entry = Vec<Vec<i64>>;
    type Input<'a> = Vec<Vec<i64>>;
    type Out = (i64, Vec<Vec<i64>>);

    fn degree(&self) -> usize {
        self.body().body().workers()
    }

    fn input(entry: &Vec<Vec<i64>>) -> Vec<Vec<i64>> {
        entry.clone()
    }
}

impl Catalog for LoopThenProg {
    const CASE: &'static str = "itermem_then";
    const BUILD: fn(usize) -> Self = itermem_then_case;
    type Entry = Vec<i64>;
    type Input<'a> = Vec<i64>;
    type Out = (i64, Vec<i64>);

    fn degree(&self) -> usize {
        self.body().first().workers()
    }

    fn input(entry: &Vec<i64>) -> Vec<i64> {
        entry.clone()
    }
}

/// How the kit reads what one run returned: the output, with the receipt
/// the run computed itself if it returned one, or the error that failed
/// the run (failing to execute a case *is* a conformance failure).
pub trait Outcome<T> {
    /// The output and the run's own receipt, or the run's error.
    fn settle(self) -> Result<(T, Option<RunReceipt>), String>;
}

/// A bare output, as the host backends return it.
impl<T> Outcome<T> for T {
    fn settle(self) -> Result<(T, Option<RunReceipt>), String> {
        Ok((self, None))
    }
}

/// A fallible run's result, e.g. `SimBackend`'s.
impl<T, E: Display> Outcome<T> for Result<T, E> {
    fn settle(self) -> Result<(T, Option<RunReceipt>), String> {
        self.map(|out| (out, None)).map_err(|e| e.to_string())
    }
}

/// A fallible run that brings its own receipt, e.g. [`DistBackend`]'s.
impl<T, E: Display> Outcome<T> for Result<Receipted<T>, E> {
    fn settle(self) -> Result<(T, Option<RunReceipt>), String> {
        self.map(|r| (r.output, Some(r.receipt)))
            .map_err(|e| e.to_string())
    }
}

/// A backend that can prepare and run every program of the case catalog,
/// with a run result [`Outcome`] can read: the kit's bound. It is
/// implemented for every such backend, so a backend conforms through the
/// [`Backend`] impls it already has. `Debug` names the backend in failure
/// messages.
pub trait Conformant:
    Debug
    + for<'a> Backend<DfProg, &'a [i64], Output: Outcome<i64>>
    + for<'a> Backend<ScmProg, &'a Vec<i64>, Output: Outcome<Vec<i64>>>
    + Backend<TfProg, Vec<u64>, Output: Outcome<u64>>
    + for<'a> Backend<ThenProg, &'a [i64], Output: Outcome<(i64, i64)>>
    + Backend<LoopProg, Vec<i64>, Output: Outcome<(i64, Vec<i64>)>>
    + Backend<LoopDfProg, Vec<Vec<i64>>, Output: Outcome<(i64, Vec<i64>)>>
    + Backend<LoopTfProg, Vec<Vec<u64>>, Output: Outcome<(u64, Vec<u64>)>>
    + Backend<NestedLoopProg, Vec<Vec<i64>>, Output: Outcome<(i64, Vec<Vec<i64>>)>>
    + Backend<LoopThenProg, Vec<i64>, Output: Outcome<(i64, Vec<i64>)>>
{
}

impl<B> Conformant for B where
    B: ?Sized
        + Debug
        + for<'a> Backend<DfProg, &'a [i64], Output: Outcome<i64>>
        + for<'a> Backend<ScmProg, &'a Vec<i64>, Output: Outcome<Vec<i64>>>
        + Backend<TfProg, Vec<u64>, Output: Outcome<u64>>
        + for<'a> Backend<ThenProg, &'a [i64], Output: Outcome<(i64, i64)>>
        + Backend<LoopProg, Vec<i64>, Output: Outcome<(i64, Vec<i64>)>>
        + Backend<LoopDfProg, Vec<Vec<i64>>, Output: Outcome<(i64, Vec<i64>)>>
        + Backend<LoopTfProg, Vec<Vec<u64>>, Output: Outcome<(u64, Vec<u64>)>>
        + Backend<NestedLoopProg, Vec<Vec<i64>>, Output: Outcome<(i64, Vec<Vec<i64>>)>>
        + Backend<LoopThenProg, Vec<i64>, Output: Outcome<(i64, Vec<i64>)>>
{
}

/// Runs one case on `backend` and asserts every output equal to
/// [`SeqBackend`]'s: each entry of `matrix` fresh through
/// [`Backend::run`], under a receipt scope, then — the
/// **prepared-equivalence axis** — the matrix twice on one
/// [`Backend::prepare`]d executable, so state leaking from one run into
/// the next, or a per-run re-derivation going wrong, shows. Returns each
/// fresh run's receipt: the one the run brought back itself if any, else
/// the scope's.
fn check<P, B>(prog: &P, backend: &B, matrix: &[P::Entry]) -> Vec<RunReceipt>
where
    P: Catalog,
    B: ?Sized + Debug + for<'a> Backend<P, P::Input<'a>, Output: Outcome<P::Out>>,
{
    let (case, workers) = (P::CASE, prog.degree());
    let on = |entry: &P::Entry| format!("on `{backend:?}` (workers={workers}, input {entry:?})");
    let golden = |entry: &P::Entry| SeqBackend.run(prog, P::input(entry));
    let receipts = matrix
        .iter()
        .map(|entry| {
            let mut own = None;
            let (out, scoped) = receipted(entry, || {
                let (out, receipt) = backend
                    .run(prog, P::input(entry))
                    .settle()
                    .unwrap_or_else(|e| panic!("{case} run failed {}: {e}", on(entry)));
                own = receipt;
                out
            });
            assert_eq!(
                out,
                golden(entry),
                "{case} conformance failed {}",
                on(entry)
            );
            own.unwrap_or(scoped)
        })
        .collect();
    let exec = backend.prepare(prog);
    for (k, entry) in matrix.iter().chain(matrix).enumerate() {
        let (out, _) = exec
            .run(P::input(entry))
            .settle()
            .unwrap_or_else(|e| panic!("{case} prepared run #{k} failed {}: {e}", on(entry)));
        assert_eq!(
            out,
            golden(entry),
            "{case} prepared-conformance failed {}, run #{k}: a prepared executable must keep \
             matching fresh golden runs",
            on(entry)
        );
    }
    receipts
}

/// [`check`]s one case on `a` and, when given, on `b`, and asserts their
/// receipts equal entry by entry.
fn check_pair<P, A, B>(prog: &P, a: &A, b: Option<&B>, matrix: &[P::Entry])
where
    P: Catalog,
    A: ?Sized + Debug + for<'a> Backend<P, P::Input<'a>, Output: Outcome<P::Out>>,
    B: ?Sized + Debug + for<'a> Backend<P, P::Input<'a>, Output: Outcome<P::Out>>,
{
    let receipts = check(prog, a, matrix);
    let Some(b) = b else {
        return;
    };
    let pairs = receipts.into_iter().zip(check(prog, b, matrix));
    for (entry, (ra, rb)) in matrix.iter().zip(pairs) {
        assert_eq!(
            ra,
            rb,
            "{} receipts diverged between `{a:?}` and `{b:?}` (workers={}, input {entry:?})",
            P::CASE,
            prog.degree()
        );
    }
}

/// Every case of the catalog, at every [`worker_counts`] entry, on `a`
/// and, when given, on `b` ([`check_pair`]).
fn sweep<A, B>(a: &A, b: Option<&B>)
where
    A: ?Sized + Conformant,
    B: ?Sized + Conformant,
{
    for &w in &worker_counts() {
        check_pair(&df_case(w), a, b, &list_inputs());
        check_pair(&scm_case(w), a, b, &list_inputs());
        check_pair(&tf_case(w), a, b, &root_inputs());
        check_pair(&then_case(w), a, b, &list_inputs());
        check_pair(&itermem_case(w), a, b, &frame_inputs());
        check_pair(&itermem_df_case(w), a, b, &list_frame_inputs());
        check_pair(&itermem_tf_case(w), a, b, &root_frame_inputs());
        check_pair(&nested_loop_case(w), a, b, &burst_inputs());
        check_pair(&itermem_then_case(w), a, b, &frame_inputs());
    }
}

/// Runs the full contract: every skeleton and composition case —
/// including `df`/`tf` as stream-loop bodies, nested loops and
/// then-inside-loop pipelines — across the whole input matrix and every
/// [`worker_counts`] entry, asserting agreement with [`SeqBackend`]
/// golden results; then the **prepared-equivalence axis**, where each
/// case is prepared once and its whole input matrix is run **twice** on
/// the one executable. Panics on the first divergence, naming the case,
/// the backend, the worker count and the input.
pub fn assert_backend_conforms<B: ?Sized + Conformant>(backend: &B) {
    sweep(backend, None::<&SeqBackend>);
}

/// The **receipt axis** of the contract: both backends must pass
/// [`assert_backend_conforms`], and for every case, every input of the
/// matrix and every [`worker_counts`] entry their fresh runs must leave
/// the same full [`RunReceipt`] — equal `input_hash` (they hashed the
/// same canonical bytes), equal `trace_hash` (they made the same logical
/// scheduling decisions) and equal `output_hash`.
///
/// Each run is made under a [`crate::receipt`] scope on the calling
/// thread, which is right for every in-process backend: the canonical
/// trace is recorded at dispatch on the master thread. A run that brings
/// its own receipt wins over the scope: [`DistBackend`]'s runs return
/// the receipts its worker *processes* computed and shipped back over the
/// wire, and the axis holds those to equality too.
pub fn assert_receipts_match<A, B>(a: &A, b: &B)
where
    A: ?Sized + Conformant,
    B: ?Sized + Conformant,
{
    sweep(a, Some(b));
}

/// The worker counts the suite sweeps: 1 (degenerate scheduling), 2, the
/// host default ([`default_workers`]) and the environment override
/// ([`Workers::FromEnv`]), deduplicated — i.e.
/// [`worker_counts_with`]`(Workers::FromEnv)`.
pub fn worker_counts() -> Vec<usize> {
    worker_counts_with(Workers::FromEnv)
}

/// The worker counts the suite sweeps for an explicit [`Workers`]
/// configuration: 1 (degenerate scheduling), 2, the host default
/// ([`default_workers`]) and whatever `configured` resolves to,
/// deduplicated.
pub fn worker_counts_with(configured: Workers) -> Vec<usize> {
    let mut counts = vec![
        1,
        2,
        default_workers().get(),
        configured.resolve_or_default().get(),
    ];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The item-list input matrix: empty, singleton, regular, and a skewed
/// list exercising dynamic balancing.
fn list_inputs() -> Vec<Vec<i64>> {
    vec![
        Vec::new(),
        vec![41],
        (0..40).collect(),
        vec![900, 1, 2, 3, 700, 4, 5, 6, 800, 7],
    ]
}

/// The task-root input matrix for `tf`: empty, a leaf-only singleton, a
/// generating singleton, and several mixed roots.
fn root_inputs() -> Vec<Vec<u64>> {
    vec![Vec::new(), vec![5], vec![100], vec![64, 3, 17, 200, 9]]
}

/// The frame-stream input matrix for `itermem`: empty, single-frame, and
/// a short stream.
fn frame_inputs() -> Vec<Vec<i64>> {
    vec![Vec::new(), vec![7], vec![1, -2, 3, -4, 5]]
}

/// The frame-stream matrix for `itermem(df)`: empty stream, a single
/// empty frame, a singleton frame, and a stream mixing regular, empty and
/// skewed frames.
fn list_frame_inputs() -> Vec<Vec<Vec<i64>>> {
    vec![
        Vec::new(),
        vec![Vec::new()],
        vec![vec![41]],
        vec![(0..12).collect(), Vec::new(), vec![900, 1, 2, 700, 3]],
    ]
}

/// The frame-stream matrix for `itermem(tf)`: empty stream, one empty
/// frame, and streams of root-task lists.
fn root_frame_inputs() -> Vec<Vec<Vec<u64>>> {
    vec![
        Vec::new(),
        vec![Vec::new()],
        vec![vec![5]],
        vec![vec![64, 3], Vec::new(), vec![17, 200, 9]],
    ]
}

/// The burst matrix for nested loops: empty stream, one empty burst, and
/// bursts of inner frames.
fn burst_inputs() -> Vec<Vec<Vec<i64>>> {
    vec![
        Vec::new(),
        vec![Vec::new()],
        vec![vec![7]],
        vec![vec![1, -2], Vec::new(), vec![3, -4, 5]],
    ]
}

/// The serving conformance axis: N streams served *concurrently* through
/// [`crate::serve::serve`] over one shared dispatcher must each yield the
/// final state and per-frame outputs of a **sequential prepared run** of
/// the same `itermem` loop — admission control, batching and
/// multiplexing must be observably transparent.
///
/// Uses [`AdmissionPolicy::Block`](crate::AdmissionPolicy::Block)
/// (lossless, so the full stream is served) and eager arrivals (so the
/// schedule is deterministic), sweeping the same worker counts and the
/// `frame_inputs`-derived stream matrix as the rest of the kit.
pub fn assert_serving_conforms(backend: &dyn Dispatch) {
    use crate::serve::{serve, AdmissionPolicy, ServeConfig, StreamSpec};
    let cases = frame_inputs();
    for &workers in &worker_counts() {
        // Goldens: one prepared sequential executable of the same loop,
        // run once per input case.
        let prog = itermem_case(workers);
        let seq = <SeqBackend as Backend<LoopProg, Vec<i64>>>::prepare(&SeqBackend, &prog);
        let goldens: Vec<(i64, Vec<i64>)> = cases.iter().map(|f| seq.run(f.clone())).collect();
        let body = loop_body_case(workers);
        // Enough streams to multiplex every input case several times over.
        let n_streams = cases.len() * 6;
        let streams = (0..n_streams)
            .map(|s| {
                StreamSpec::eager(
                    LOOP_CASE_INIT,
                    crate::stream_of(cases[s % cases.len()].clone()),
                )
            })
            .collect();
        let config = ServeConfig {
            max_in_flight: 8,
            per_stream_queue: 2,
            max_batch: 4,
            admission: AdmissionPolicy::Block,
        };
        let outcome = serve(backend, &body, streams, config);
        assert_eq!(
            outcome.report.rejected, 0,
            "serving conformance: Block policy must be lossless (workers={workers})"
        );
        let total: usize = (0..n_streams).map(|s| cases[s % cases.len()].len()).sum();
        assert_eq!(
            outcome.report.served as usize, total,
            "serving conformance: every frame must be served (workers={workers})"
        );
        for (s, result) in outcome.streams.iter().enumerate() {
            let golden = &goldens[s % cases.len()];
            assert_eq!(
                (result.state, result.outputs.clone()),
                *golden,
                "serving conformance failed on stream {s} (workers={workers}, {} frame(s))",
                cases[s % cases.len()].len()
            );
        }
    }
}

/// The **differential axis**: two independently constructed stream
/// programs claimed equivalent — e.g. a DSL-compiled `itermem` loop and
/// its handwritten counterpart (`skipperc`'s compiled-vs-handwritten
/// contract) — must agree with `p`'s declarative run on every host
/// strategy, and must leave **identical run receipts** (input hash,
/// dispatch trace, output hash) on each, per input case, across the
/// standard [`worker_counts`] sweep.
///
/// Strategies exercised: declarative, then every [`Dispatch`] host
/// backend — a pool and two shards — sized to each worker count.
pub fn assert_programs_equivalent<P, Q, I, O>(label: &str, p: &P, q: &Q, inputs: &[I])
where
    P: crate::Skeleton<I, Output = O>,
    Q: crate::Skeleton<I, Output = O>,
    I: Clone + crate::wire::ToWire,
    O: PartialEq + std::fmt::Debug + crate::wire::ToWire,
{
    use crate::{run_with, ShardBackend};

    for &workers in &worker_counts() {
        let w = Workers::exact(workers);
        let pool = PoolBackend::configured(w);
        let shard = ShardBackend::configured(2, w);
        let strategies: [(&str, Option<&dyn Dispatch>); 3] = [
            ("declarative", None),
            ("pooled", Some(&pool)),
            ("sharded", Some(&shard)),
        ];
        for (case, input) in inputs.iter().enumerate() {
            let golden = p.run_declarative(input.clone());
            for (strategy, d) in strategies {
                let (po, pr) = receipted(input, || run_with(p, d, input.clone()));
                let (qo, qr) = receipted(input, || run_with(q, d, input.clone()));
                assert_eq!(
                    po, golden,
                    "{label}: left program diverged from its declarative golden \
                     ({strategy}, case {case}, workers={workers})"
                );
                assert_eq!(
                    qo, golden,
                    "{label}: right program diverged from the left's declarative golden \
                     ({strategy}, case {case}, workers={workers})"
                );
                assert_eq!(
                    pr, qr,
                    "{label}: receipts diverged between the two programs \
                     ({strategy}, case {case}, workers={workers})"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, UnwindSafe};

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce() + UnwindSafe) -> String {
        let payload = catch_unwind(f).expect_err("the kit must panic");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    #[test]
    fn seq_backend_conforms_to_itself() {
        assert_backend_conforms(&SeqBackend);
    }

    #[test]
    fn a_program_is_equivalent_to_itself_on_every_strategy() {
        let prog = itermem_case(3);
        assert_programs_equivalent("itermem(scm) self-pair", &prog, &prog, &frame_inputs());
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn the_differential_axis_catches_a_divergent_pair() {
        // Same loop shape, different farm degree: outputs agree but the
        // dispatch traces (and so the receipts) must not.
        assert_programs_equivalent(
            "itermem(scm) degree mismatch",
            &itermem_case(3),
            &itermem_case(4),
            &frame_inputs(),
        );
    }

    #[test]
    fn worker_counts_start_at_one_and_are_strictly_increasing() {
        let counts = worker_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
        assert!(counts.contains(&default_workers().get()));
    }

    #[test]
    fn case_constructors_respect_the_worker_degree() {
        assert_eq!(df_case(3).workers(), 3);
        assert_eq!(scm_case(5).workers(), 5);
        assert_eq!(tf_case(2).workers(), 2);
        assert_eq!(itermem_case(4).body().workers(), 4);
    }

    /// A deliberately broken `df` backend. With `drop_seed`, fresh runs
    /// lose the accumulator's initial value. Its prepared executable runs
    /// true over the first pass of the matrix, then drifts, as one that
    /// leaks state from run to run would.
    #[derive(Debug)]
    struct Broken {
        drop_seed: bool,
    }

    struct Drifting<'p> {
        prog: &'p DfProg,
        runs: Cell<usize>,
    }

    impl<'a> Executable<&'a [i64]> for Drifting<'_> {
        type Output = i64;

        fn run(&self, xs: &'a [i64]) -> i64 {
            let k = self.runs.replace(self.runs.get() + 1);
            SeqBackend.run(self.prog, xs) + (k / list_inputs().len()) as i64
        }
    }

    impl<'a> Backend<DfProg, &'a [i64]> for Broken {
        type Output = i64;

        type Prepared<'p> = Drifting<'p>;

        fn prepare<'p>(&'p self, prog: &'p DfProg) -> Drifting<'p> {
            let runs = Cell::new(0);
            Drifting { prog, runs }
        }

        fn run(&self, prog: &DfProg, xs: &'a [i64]) -> i64 {
            let seed = if self.drop_seed { *prog.init() } else { 0 };
            self.prepare(prog).run(xs) - seed
        }
    }

    #[test]
    fn a_divergent_backend_is_caught() {
        let prog = df_case(2);
        let broken = Broken { drop_seed: true };
        let msg = panic_message(|| drop(check(&prog, &broken, &list_inputs())));
        assert!(msg.contains("df conformance failed"), "{msg}");
        assert!(msg.contains("Broken") && msg.contains("workers=2"), "{msg}");
        // The prepared axis alone: every fresh run is right, and the
        // first pass over the matrix too; the second pass drifts.
        let leaky = Broken { drop_seed: false };
        let msg = panic_message(|| drop(check(&prog, &leaky, &list_inputs())));
        assert!(
            msg.contains("df prepared-conformance failed") && msg.contains("run #4"),
            "{msg}"
        );
    }

    /// Runs every program declaratively, as [`SeqBackend`] does in the
    /// caller's receipt scope, and brings back its own receipt: Seq's,
    /// with one output-hash bit flipped.
    #[derive(Debug)]
    struct Flipped;

    struct FlippedRun<'p, P>(&'p P);

    impl<P, I> Executable<I> for FlippedRun<'_, P>
    where
        P: Skeleton<I, Output: ToWire>,
        I: Clone + ToWire,
    {
        type Output = Result<Receipted<P::Output>, std::convert::Infallible>;

        fn run(&self, input: I) -> Self::Output {
            let (_, mut receipt) = receipted(&input, || SeqBackend.run(self.0, input.clone()));
            receipt.output_hash ^= 1;
            let output = SeqBackend.run(self.0, input);
            Ok(Receipted { output, receipt })
        }
    }

    impl<P, I> Backend<P, I> for Flipped
    where
        P: Skeleton<I, Output: ToWire>,
        I: Clone + ToWire,
    {
        type Output = Result<Receipted<P::Output>, std::convert::Infallible>;

        type Prepared<'p>
            = FlippedRun<'p, P>
        where
            P: 'p;

        fn prepare<'p>(&'p self, prog: &'p P) -> FlippedRun<'p, P> {
            FlippedRun(prog)
        }
    }

    #[test]
    fn the_receipt_axis_catches_one_flipped_output_hash_bit() {
        // Its outputs are right, so the backend conforms, and the kit's
        // scope records what Seq's would; only its own receipts, which
        // win over the scope's, are off.
        assert_backend_conforms(&Flipped);
        let msg = panic_message(|| assert_receipts_match(&SeqBackend, &Flipped));
        assert!(msg.contains("df receipts diverged"), "{msg}");
    }

    #[test]
    fn loop_body_cases_thread_state_across_frames() {
        // The itermem(df) case really threads state: a farm body seeded by
        // the carried accumulator makes each frame's output depend on all
        // previous frames.
        let prog = itermem_df_case(2);
        let frames = vec![vec![1i64, 2], vec![3]];
        let (z, ys) = SeqBackend.run(&prog, frames);
        // Frame 1: 100 + (1+3) + (4+3) = 111; frame 2: 111 + (9+3) = 123.
        assert_eq!(ys, vec![111, 123]);
        assert_eq!(z, 123);
        // Nested loops continue one state thread across bursts: with equal
        // initial states, bursting the frames must not change the result
        // (the inner loop's own init is only honoured at top level).
        let flat = itermem_case(2);
        let nested = crate::itermem(itermem_case(2), *flat.init());
        let (zn, _) = SeqBackend.run(&nested, vec![vec![1i64, -2], vec![3]]);
        let (zf, _) = SeqBackend.run(&flat, vec![1i64, -2, 3]);
        assert_eq!(
            zn, zf,
            "a nested loop over bursts must equal the flat loop over the same frames"
        );
    }
}
