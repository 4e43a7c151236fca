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
//! A backend plugs in by implementing [`ConformanceHarness`] — `name`
//! plus one short method per program case, run fresh and prepared
//! (nineteen in all), because a `Backend` impl is per program type and a
//! generic suite cannot quantify over all of them. Implementations for
//! [`SeqBackend`] (self-check), [`crate::PoolBackend`],
//! [`crate::ShardBackend`] and [`crate::HostBackend`] live here;
//! `skipper_exec` provides one for its `SimBackend`. The program cases are deliberately built from plain `fn`
//! pointers so their types are nameable and lowerable by every backend,
//! and the farm accumulators are commutative-associative (the paper's
//! stated side condition for farm equivalence).
//!
//! ```
//! use skipper::conformance::assert_backend_conforms;
//! use skipper::PoolBackend;
//!
//! assert_backend_conforms(&PoolBackend::new());
//! ```

use crate::backend::{Backend, Dispatch, Executable};
use crate::pool::PoolBackend;
use crate::program::{default_workers, Workers};
use crate::receipt::{receipted, RunReceipt};
use crate::{Df, IterLoop, Pure, Scm, SeqBackend, Tf, Then};

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
// Fragment-*order* preservation is pinned separately by the thread/pool
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

/// One backend's adapter into the conformance suite.
///
/// Each method runs the given conformance program on this backend and
/// returns the plain output (fallible backends are expected to unwrap —
/// failing to execute a conformance case *is* a conformance failure).
///
/// The `*_prepared` methods are the **prepared-equivalence axis**: each
/// must call `Backend::prepare` exactly once for the given program and
/// run every input of `runs` through that one executable (in order,
/// returning one output per input). The kit passes each input of the
/// matrix twice, so an executable that leaks state between runs — or
/// re-derives it wrongly — diverges from the golden results.
pub trait ConformanceHarness {
    /// Backend name used in assertion messages.
    fn name(&self) -> String;

    /// Runs the [`df_case`] program.
    fn run_df(&self, prog: &DfProg, xs: &[i64]) -> i64;

    /// Runs the [`scm_case`] program.
    #[allow(clippy::ptr_arg)] // `&Vec` is the program's input type: `Skeleton<&I>` needs `I: Sized`.
    fn run_scm(&self, prog: &ScmProg, input: &Vec<i64>) -> Vec<i64>;

    /// Runs the [`tf_case`] program.
    fn run_tf(&self, prog: &TfProg, roots: Vec<u64>) -> u64;

    /// Runs the [`then_case`] pipeline.
    fn run_then(&self, prog: &ThenProg, xs: &[i64]) -> (i64, i64);

    /// Runs the [`itermem_case`] stream loop.
    fn run_itermem(&self, prog: &LoopProg, frames: Vec<i64>) -> (i64, Vec<i64>);

    /// Runs the [`itermem_df_case`] stream loop (a farm as the body).
    fn run_itermem_df(&self, prog: &LoopDfProg, frames: Vec<Vec<i64>>) -> (i64, Vec<i64>);

    /// Runs the [`itermem_tf_case`] stream loop (a task farm as the body).
    fn run_itermem_tf(&self, prog: &LoopTfProg, frames: Vec<Vec<u64>>) -> (u64, Vec<u64>);

    /// Runs the [`nested_loop_case`] (a stream loop as the body of
    /// another).
    fn run_nested_loop(&self, prog: &NestedLoopProg, bursts: Vec<Vec<i64>>)
        -> (i64, Vec<Vec<i64>>);

    /// Runs the [`itermem_then_case`] (a `then` pipeline as the body).
    fn run_itermem_then(&self, prog: &LoopThenProg, frames: Vec<i64>) -> (i64, Vec<i64>);

    /// Prepares the [`df_case`] program once and runs every input of
    /// `runs` on the one executable.
    fn run_df_prepared(&self, prog: &DfProg, runs: &[Vec<i64>]) -> Vec<i64>;

    /// Prepares the [`scm_case`] program once and runs every input.
    fn run_scm_prepared(&self, prog: &ScmProg, runs: &[Vec<i64>]) -> Vec<Vec<i64>>;

    /// Prepares the [`tf_case`] program once and runs every input.
    fn run_tf_prepared(&self, prog: &TfProg, runs: &[Vec<u64>]) -> Vec<u64>;

    /// Prepares the [`then_case`] pipeline once and runs every input.
    fn run_then_prepared(&self, prog: &ThenProg, runs: &[Vec<i64>]) -> Vec<(i64, i64)>;

    /// Prepares the [`itermem_case`] loop once and runs every stream.
    fn run_itermem_prepared(&self, prog: &LoopProg, runs: &[Vec<i64>]) -> Vec<(i64, Vec<i64>)>;

    /// Prepares the [`itermem_df_case`] loop once and runs every stream.
    fn run_itermem_df_prepared(
        &self,
        prog: &LoopDfProg,
        runs: &[Vec<Vec<i64>>],
    ) -> Vec<(i64, Vec<i64>)>;

    /// Prepares the [`itermem_tf_case`] loop once and runs every stream.
    fn run_itermem_tf_prepared(
        &self,
        prog: &LoopTfProg,
        runs: &[Vec<Vec<u64>>],
    ) -> Vec<(u64, Vec<u64>)>;

    /// Prepares the [`nested_loop_case`] once and runs every burst
    /// stream.
    fn run_nested_loop_prepared(
        &self,
        prog: &NestedLoopProg,
        runs: &[Vec<Vec<i64>>],
    ) -> Vec<(i64, Vec<Vec<i64>>)>;

    /// Prepares the [`itermem_then_case`] once and runs every stream.
    fn run_itermem_then_prepared(
        &self,
        prog: &LoopThenProg,
        runs: &[Vec<i64>],
    ) -> Vec<(i64, Vec<i64>)>;
}

macro_rules! host_harness {
    ($ty:ty, $name:expr) => {
        impl ConformanceHarness for $ty {
            fn name(&self) -> String {
                $name.to_string()
            }

            fn run_df(&self, prog: &DfProg, xs: &[i64]) -> i64 {
                self.run(prog, xs)
            }

            fn run_scm(&self, prog: &ScmProg, input: &Vec<i64>) -> Vec<i64> {
                self.run(prog, input)
            }

            fn run_tf(&self, prog: &TfProg, roots: Vec<u64>) -> u64 {
                self.run(prog, roots)
            }

            fn run_then(&self, prog: &ThenProg, xs: &[i64]) -> (i64, i64) {
                self.run(prog, xs)
            }

            fn run_itermem(&self, prog: &LoopProg, frames: Vec<i64>) -> (i64, Vec<i64>) {
                self.run(prog, frames)
            }

            fn run_itermem_df(&self, prog: &LoopDfProg, frames: Vec<Vec<i64>>) -> (i64, Vec<i64>) {
                self.run(prog, frames)
            }

            fn run_itermem_tf(&self, prog: &LoopTfProg, frames: Vec<Vec<u64>>) -> (u64, Vec<u64>) {
                self.run(prog, frames)
            }

            fn run_nested_loop(
                &self,
                prog: &NestedLoopProg,
                bursts: Vec<Vec<i64>>,
            ) -> (i64, Vec<Vec<i64>>) {
                self.run(prog, bursts)
            }

            fn run_itermem_then(&self, prog: &LoopThenProg, frames: Vec<i64>) -> (i64, Vec<i64>) {
                self.run(prog, frames)
            }

            fn run_df_prepared(&self, prog: &DfProg, runs: &[Vec<i64>]) -> Vec<i64> {
                let exec = <Self as Backend<DfProg, &[i64]>>::prepare(self, prog);
                runs.iter().map(|xs| exec.run(&xs[..])).collect()
            }

            fn run_scm_prepared(&self, prog: &ScmProg, runs: &[Vec<i64>]) -> Vec<Vec<i64>> {
                let exec = <Self as Backend<ScmProg, &Vec<i64>>>::prepare(self, prog);
                runs.iter().map(|xs| exec.run(xs)).collect()
            }

            fn run_tf_prepared(&self, prog: &TfProg, runs: &[Vec<u64>]) -> Vec<u64> {
                let exec = <Self as Backend<TfProg, Vec<u64>>>::prepare(self, prog);
                runs.iter().map(|roots| exec.run(roots.clone())).collect()
            }

            fn run_then_prepared(&self, prog: &ThenProg, runs: &[Vec<i64>]) -> Vec<(i64, i64)> {
                let exec = <Self as Backend<ThenProg, &[i64]>>::prepare(self, prog);
                runs.iter().map(|xs| exec.run(&xs[..])).collect()
            }

            fn run_itermem_prepared(
                &self,
                prog: &LoopProg,
                runs: &[Vec<i64>],
            ) -> Vec<(i64, Vec<i64>)> {
                let exec = <Self as Backend<LoopProg, Vec<i64>>>::prepare(self, prog);
                runs.iter().map(|frames| exec.run(frames.clone())).collect()
            }

            fn run_itermem_df_prepared(
                &self,
                prog: &LoopDfProg,
                runs: &[Vec<Vec<i64>>],
            ) -> Vec<(i64, Vec<i64>)> {
                let exec = <Self as Backend<LoopDfProg, Vec<Vec<i64>>>>::prepare(self, prog);
                runs.iter().map(|frames| exec.run(frames.clone())).collect()
            }

            fn run_itermem_tf_prepared(
                &self,
                prog: &LoopTfProg,
                runs: &[Vec<Vec<u64>>],
            ) -> Vec<(u64, Vec<u64>)> {
                let exec = <Self as Backend<LoopTfProg, Vec<Vec<u64>>>>::prepare(self, prog);
                runs.iter().map(|frames| exec.run(frames.clone())).collect()
            }

            fn run_nested_loop_prepared(
                &self,
                prog: &NestedLoopProg,
                runs: &[Vec<Vec<i64>>],
            ) -> Vec<(i64, Vec<Vec<i64>>)> {
                let exec = <Self as Backend<NestedLoopProg, Vec<Vec<i64>>>>::prepare(self, prog);
                runs.iter().map(|bursts| exec.run(bursts.clone())).collect()
            }

            fn run_itermem_then_prepared(
                &self,
                prog: &LoopThenProg,
                runs: &[Vec<i64>],
            ) -> Vec<(i64, Vec<i64>)> {
                let exec = <Self as Backend<LoopThenProg, Vec<i64>>>::prepare(self, prog);
                runs.iter().map(|frames| exec.run(frames.clone())).collect()
            }
        }
    };
}

host_harness!(SeqBackend, "SeqBackend");
host_harness!(PoolBackend, "PoolBackend");
host_harness!(crate::HostBackend, "HostBackend");
host_harness!(crate::dist::ShardBackend, "ShardBackend");

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

/// Checks the `df` contract for one worker count.
pub fn check_df<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = df_case(workers);
    for xs in list_inputs() {
        let golden = SeqBackend.run(&prog, &xs[..]);
        let got = h.run_df(&prog, &xs[..]);
        assert_eq!(
            got,
            golden,
            "df conformance failed on `{}` (workers={workers}, {} item(s))",
            h.name(),
            xs.len()
        );
    }
}

/// Checks the `scm` contract for one worker count.
pub fn check_scm<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = scm_case(workers);
    for xs in list_inputs() {
        let golden = SeqBackend.run(&prog, &xs);
        let got = h.run_scm(&prog, &xs);
        assert_eq!(
            got,
            golden,
            "scm conformance failed on `{}` (workers={workers}, {} item(s))",
            h.name(),
            xs.len()
        );
    }
}

/// Checks the `tf` contract for one worker count.
pub fn check_tf<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = tf_case(workers);
    for roots in root_inputs() {
        let golden = SeqBackend.run(&prog, roots.clone());
        let got = h.run_tf(&prog, roots.clone());
        assert_eq!(
            got,
            golden,
            "tf conformance failed on `{}` (workers={workers}, {} root(s))",
            h.name(),
            roots.len()
        );
    }
}

/// Checks the `then`-composition contract for one worker count.
pub fn check_then<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = then_case(workers);
    for xs in list_inputs() {
        let golden = SeqBackend.run(&prog, &xs[..]);
        let got = h.run_then(&prog, &xs[..]);
        assert_eq!(
            got,
            golden,
            "then conformance failed on `{}` (workers={workers}, {} item(s))",
            h.name(),
            xs.len()
        );
    }
}

/// Checks the `itermem`-nesting contract for one worker count.
pub fn check_itermem<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = itermem_case(workers);
    for frames in frame_inputs() {
        let golden = SeqBackend.run(&prog, frames.clone());
        let got = h.run_itermem(&prog, frames.clone());
        assert_eq!(
            got,
            golden,
            "itermem conformance failed on `{}` (workers={workers}, {} frame(s))",
            h.name(),
            frames.len()
        );
    }
}

/// Checks the `itermem(df)` contract for one worker count.
pub fn check_itermem_df<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = itermem_df_case(workers);
    for frames in list_frame_inputs() {
        let golden = SeqBackend.run(&prog, frames.clone());
        let got = h.run_itermem_df(&prog, frames.clone());
        assert_eq!(
            got,
            golden,
            "itermem(df) conformance failed on `{}` (workers={workers}, {} frame(s))",
            h.name(),
            frames.len()
        );
    }
}

/// Checks the `itermem(tf)` contract for one worker count.
pub fn check_itermem_tf<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = itermem_tf_case(workers);
    for frames in root_frame_inputs() {
        let golden = SeqBackend.run(&prog, frames.clone());
        let got = h.run_itermem_tf(&prog, frames.clone());
        assert_eq!(
            got,
            golden,
            "itermem(tf) conformance failed on `{}` (workers={workers}, {} frame(s))",
            h.name(),
            frames.len()
        );
    }
}

/// Checks the nested-loop contract for one worker count.
pub fn check_nested_loop<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = nested_loop_case(workers);
    for bursts in burst_inputs() {
        let golden = SeqBackend.run(&prog, bursts.clone());
        let got = h.run_nested_loop(&prog, bursts.clone());
        assert_eq!(
            got,
            golden,
            "nested-loop conformance failed on `{}` (workers={workers}, {} burst(s))",
            h.name(),
            bursts.len()
        );
    }
}

/// Checks the then-inside-loop contract for one worker count.
pub fn check_itermem_then<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = itermem_then_case(workers);
    for frames in frame_inputs() {
        let golden = SeqBackend.run(&prog, frames.clone());
        let got = h.run_itermem_then(&prog, frames.clone());
        assert_eq!(
            got,
            golden,
            "then-inside-loop conformance failed on `{}` (workers={workers}, {} frame(s))",
            h.name(),
            frames.len()
        );
    }
}

/// Doubles an input matrix: the prepared axis runs every input twice on
/// one executable, so state leaking from any run into the next — or a
/// per-run re-derivation going wrong — shows up as a divergence.
fn doubled<T: Clone>(inputs: Vec<T>) -> Vec<T> {
    let mut runs = inputs.clone();
    runs.extend(inputs);
    runs
}

/// Shared assertion for the prepared axis: one output per run, each
/// matching the per-input [`SeqBackend`] golden result.
fn check_prepared_outputs<In, Out>(
    name: &str,
    case: &str,
    workers: usize,
    runs: &[In],
    got: &[Out],
    golden: impl Fn(&In) -> Out,
) where
    Out: PartialEq + std::fmt::Debug,
{
    assert_eq!(
        got.len(),
        runs.len(),
        "{case} prepared-conformance on `{name}` returned {} output(s) for {} run(s) \
         (workers={workers})",
        got.len(),
        runs.len()
    );
    for (k, (input, out)) in runs.iter().zip(got).enumerate() {
        assert_eq!(
            *out,
            golden(input),
            "{case} prepared-conformance failed on `{name}` (workers={workers}, run #{k}): \
             a prepared executable must keep matching fresh golden runs",
        );
    }
}

/// Checks the prepared-equivalence contract for the `df` case.
pub fn check_df_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = df_case(workers);
    let runs = doubled(list_inputs());
    let got = h.run_df_prepared(&prog, &runs);
    check_prepared_outputs(&h.name(), "df", workers, &runs, &got, |xs| {
        SeqBackend.run(&prog, &xs[..])
    });
}

/// Checks the prepared-equivalence contract for the `scm` case.
pub fn check_scm_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = scm_case(workers);
    let runs = doubled(list_inputs());
    let got = h.run_scm_prepared(&prog, &runs);
    check_prepared_outputs(&h.name(), "scm", workers, &runs, &got, |xs| {
        SeqBackend.run(&prog, xs)
    });
}

/// Checks the prepared-equivalence contract for the `tf` case.
pub fn check_tf_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = tf_case(workers);
    let runs = doubled(root_inputs());
    let got = h.run_tf_prepared(&prog, &runs);
    check_prepared_outputs(&h.name(), "tf", workers, &runs, &got, |roots| {
        SeqBackend.run(&prog, roots.clone())
    });
}

/// Checks the prepared-equivalence contract for the `then` case.
pub fn check_then_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = then_case(workers);
    let runs = doubled(list_inputs());
    let got = h.run_then_prepared(&prog, &runs);
    check_prepared_outputs(&h.name(), "then", workers, &runs, &got, |xs| {
        SeqBackend.run(&prog, &xs[..])
    });
}

/// Checks the prepared-equivalence contract for the `itermem` case.
pub fn check_itermem_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = itermem_case(workers);
    let runs = doubled(frame_inputs());
    let got = h.run_itermem_prepared(&prog, &runs);
    check_prepared_outputs(&h.name(), "itermem", workers, &runs, &got, |frames| {
        SeqBackend.run(&prog, frames.clone())
    });
}

/// Checks the prepared-equivalence contract for the `itermem(df)` case.
pub fn check_itermem_df_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = itermem_df_case(workers);
    let runs = doubled(list_frame_inputs());
    let got = h.run_itermem_df_prepared(&prog, &runs);
    check_prepared_outputs(&h.name(), "itermem(df)", workers, &runs, &got, |frames| {
        SeqBackend.run(&prog, frames.clone())
    });
}

/// Checks the prepared-equivalence contract for the `itermem(tf)` case.
pub fn check_itermem_tf_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = itermem_tf_case(workers);
    let runs = doubled(root_frame_inputs());
    let got = h.run_itermem_tf_prepared(&prog, &runs);
    check_prepared_outputs(&h.name(), "itermem(tf)", workers, &runs, &got, |frames| {
        SeqBackend.run(&prog, frames.clone())
    });
}

/// Checks the prepared-equivalence contract for the nested-loop case.
pub fn check_nested_loop_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = nested_loop_case(workers);
    let runs = doubled(burst_inputs());
    let got = h.run_nested_loop_prepared(&prog, &runs);
    check_prepared_outputs(&h.name(), "nested-loop", workers, &runs, &got, |bursts| {
        SeqBackend.run(&prog, bursts.clone())
    });
}

/// Checks the prepared-equivalence contract for the then-inside-loop
/// case.
pub fn check_itermem_then_prepared<H: ConformanceHarness>(h: &H, workers: usize) {
    let prog = itermem_then_case(workers);
    let runs = doubled(frame_inputs());
    let got = h.run_itermem_then_prepared(&prog, &runs);
    check_prepared_outputs(
        &h.name(),
        "then-inside-loop",
        workers,
        &runs,
        &got,
        |frames| SeqBackend.run(&prog, frames.clone()),
    );
}

/// Runs the full contract: every skeleton and composition case —
/// including `df`/`tf` as stream-loop bodies, nested loops and
/// then-inside-loop pipelines — across the whole input matrix and every
/// [`worker_counts`] entry, asserting agreement with [`SeqBackend`]
/// golden results; then the **prepared-equivalence axis**, where each
/// case is prepared once and its whole input matrix is run **twice** on
/// the one executable. Panics with a case-identifying message on the
/// first divergence.
pub fn assert_backend_conforms<H: ConformanceHarness>(h: &H) {
    for &workers in &worker_counts() {
        check_df(h, workers);
        check_scm(h, workers);
        check_tf(h, workers);
        check_then(h, workers);
        check_itermem(h, workers);
        check_itermem_df(h, workers);
        check_itermem_tf(h, workers);
        check_nested_loop(h, workers);
        check_itermem_then(h, workers);
        check_df_prepared(h, workers);
        check_scm_prepared(h, workers);
        check_tf_prepared(h, workers);
        check_then_prepared(h, workers);
        check_itermem_prepared(h, workers);
        check_itermem_df_prepared(h, workers);
        check_itermem_tf_prepared(h, workers);
        check_nested_loop_prepared(h, workers);
        check_itermem_then_prepared(h, workers);
    }
}

/// The **receipt axis** of the contract: every conformance case run
/// under a [`crate::receipt`] scope, yielding the output *plus* a
/// [`RunReceipt`].
///
/// The default methods wrap the plain [`ConformanceHarness`] runs in
/// [`receipted`] on the calling thread — correct for every in-process
/// backend, because the canonical trace is recorded at dispatch on the
/// master thread. [`crate::DistBackend`] overrides them to return the
/// receipts its worker *processes* computed and shipped back over the
/// wire — which is the whole point of the axis: the receipts must still
/// be identical.
pub trait ReceiptHarness: ConformanceHarness {
    /// Runs the [`df_case`] under a receipt scope.
    fn receipt_df(&self, prog: &DfProg, xs: &[i64]) -> (i64, RunReceipt) {
        receipted(xs, || self.run_df(prog, xs))
    }

    /// Runs the [`scm_case`] under a receipt scope.
    #[allow(clippy::ptr_arg)] // `&Vec` is the program's input type.
    fn receipt_scm(&self, prog: &ScmProg, input: &Vec<i64>) -> (Vec<i64>, RunReceipt) {
        receipted(input, || self.run_scm(prog, input))
    }

    /// Runs the [`tf_case`] under a receipt scope.
    fn receipt_tf(&self, prog: &TfProg, roots: Vec<u64>) -> (u64, RunReceipt) {
        receipted(&roots, || self.run_tf(prog, roots.clone()))
    }

    /// Runs the [`then_case`] under a receipt scope.
    fn receipt_then(&self, prog: &ThenProg, xs: &[i64]) -> ((i64, i64), RunReceipt) {
        receipted(xs, || self.run_then(prog, xs))
    }

    /// Runs the [`itermem_case`] under a receipt scope.
    fn receipt_itermem(&self, prog: &LoopProg, frames: Vec<i64>) -> ((i64, Vec<i64>), RunReceipt) {
        receipted(&frames, || self.run_itermem(prog, frames.clone()))
    }

    /// Runs the [`itermem_df_case`] under a receipt scope.
    fn receipt_itermem_df(
        &self,
        prog: &LoopDfProg,
        frames: Vec<Vec<i64>>,
    ) -> ((i64, Vec<i64>), RunReceipt) {
        receipted(&frames, || self.run_itermem_df(prog, frames.clone()))
    }

    /// Runs the [`itermem_tf_case`] under a receipt scope.
    fn receipt_itermem_tf(
        &self,
        prog: &LoopTfProg,
        frames: Vec<Vec<u64>>,
    ) -> ((u64, Vec<u64>), RunReceipt) {
        receipted(&frames, || self.run_itermem_tf(prog, frames.clone()))
    }

    /// Runs the [`nested_loop_case`] under a receipt scope.
    fn receipt_nested_loop(
        &self,
        prog: &NestedLoopProg,
        bursts: Vec<Vec<i64>>,
    ) -> ((i64, Vec<Vec<i64>>), RunReceipt) {
        receipted(&bursts, || self.run_nested_loop(prog, bursts.clone()))
    }

    /// Runs the [`itermem_then_case`] under a receipt scope.
    fn receipt_itermem_then(
        &self,
        prog: &LoopThenProg,
        frames: Vec<i64>,
    ) -> ((i64, Vec<i64>), RunReceipt) {
        receipted(&frames, || self.run_itermem_then(prog, frames.clone()))
    }
}

impl ReceiptHarness for SeqBackend {}
impl ReceiptHarness for PoolBackend {}
impl ReceiptHarness for crate::HostBackend {}
impl ReceiptHarness for crate::dist::ShardBackend {}

/// Asserts the receipt axis across two harnesses: for every conformance
/// case, every input of the matrix and every [`worker_counts`] entry,
/// both backends must produce the same output **and** the same full
/// [`RunReceipt`] — equal `input_hash` (they hashed the same canonical
/// bytes), equal `trace_hash` (they made the same logical scheduling
/// decisions) and equal `output_hash`. Panics with a case-identifying
/// message on the first divergence.
pub fn assert_receipts_match<A: ReceiptHarness, B: ReceiptHarness>(a: &A, b: &B) {
    fn check<O: PartialEq + std::fmt::Debug>(
        case: &str,
        workers: usize,
        names: (&str, &str),
        (ao, ar): (O, RunReceipt),
        (bo, br): (O, RunReceipt),
    ) {
        assert_eq!(
            ao, bo,
            "{case} outputs diverged between `{}` and `{}` (workers={workers})",
            names.0, names.1
        );
        assert_eq!(
            ar, br,
            "{case} receipts diverged between `{}` and `{}` (workers={workers})",
            names.0, names.1
        );
    }
    let names = (a.name(), b.name());
    let names = (names.0.as_str(), names.1.as_str());
    for &workers in &worker_counts() {
        let prog = df_case(workers);
        for xs in list_inputs() {
            check(
                "df",
                workers,
                names,
                a.receipt_df(&prog, &xs),
                b.receipt_df(&prog, &xs),
            );
        }
        let prog = scm_case(workers);
        for xs in list_inputs() {
            check(
                "scm",
                workers,
                names,
                a.receipt_scm(&prog, &xs),
                b.receipt_scm(&prog, &xs),
            );
        }
        let prog = tf_case(workers);
        for roots in root_inputs() {
            check(
                "tf",
                workers,
                names,
                a.receipt_tf(&prog, roots.clone()),
                b.receipt_tf(&prog, roots),
            );
        }
        let prog = then_case(workers);
        for xs in list_inputs() {
            check(
                "then",
                workers,
                names,
                a.receipt_then(&prog, &xs),
                b.receipt_then(&prog, &xs),
            );
        }
        let prog = itermem_case(workers);
        for frames in frame_inputs() {
            check(
                "itermem",
                workers,
                names,
                a.receipt_itermem(&prog, frames.clone()),
                b.receipt_itermem(&prog, frames),
            );
        }
        let prog = itermem_df_case(workers);
        for frames in list_frame_inputs() {
            check(
                "itermem(df)",
                workers,
                names,
                a.receipt_itermem_df(&prog, frames.clone()),
                b.receipt_itermem_df(&prog, frames),
            );
        }
        let prog = itermem_tf_case(workers);
        for frames in root_frame_inputs() {
            check(
                "itermem(tf)",
                workers,
                names,
                a.receipt_itermem_tf(&prog, frames.clone()),
                b.receipt_itermem_tf(&prog, frames),
            );
        }
        let prog = nested_loop_case(workers);
        for bursts in burst_inputs() {
            check(
                "nested loop",
                workers,
                names,
                a.receipt_nested_loop(&prog, bursts.clone()),
                b.receipt_nested_loop(&prog, bursts),
            );
        }
        let prog = itermem_then_case(workers);
        for frames in frame_inputs() {
            check(
                "itermem(then)",
                workers,
                names,
                a.receipt_itermem_then(&prog, frames.clone()),
                b.receipt_itermem_then(&prog, frames),
            );
        }
    }
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

    #[test]
    fn a_divergent_backend_is_caught() {
        // A deliberately broken harness: drops the df initial accumulator.
        struct Broken;
        impl ConformanceHarness for Broken {
            fn name(&self) -> String {
                "Broken".into()
            }
            fn run_df(&self, prog: &DfProg, xs: &[i64]) -> i64 {
                SeqBackend.run(prog, xs) - prog.init()
            }
            fn run_scm(&self, prog: &ScmProg, input: &Vec<i64>) -> Vec<i64> {
                SeqBackend.run(prog, input)
            }
            fn run_tf(&self, prog: &TfProg, roots: Vec<u64>) -> u64 {
                SeqBackend.run(prog, roots)
            }
            fn run_then(&self, prog: &ThenProg, xs: &[i64]) -> (i64, i64) {
                SeqBackend.run(prog, xs)
            }
            fn run_itermem(&self, prog: &LoopProg, frames: Vec<i64>) -> (i64, Vec<i64>) {
                SeqBackend.run(prog, frames)
            }
            fn run_itermem_df(&self, prog: &LoopDfProg, frames: Vec<Vec<i64>>) -> (i64, Vec<i64>) {
                SeqBackend.run(prog, frames)
            }
            fn run_itermem_tf(&self, prog: &LoopTfProg, frames: Vec<Vec<u64>>) -> (u64, Vec<u64>) {
                SeqBackend.run(prog, frames)
            }
            fn run_nested_loop(
                &self,
                prog: &NestedLoopProg,
                bursts: Vec<Vec<i64>>,
            ) -> (i64, Vec<Vec<i64>>) {
                SeqBackend.run(prog, bursts)
            }
            fn run_itermem_then(&self, prog: &LoopThenProg, frames: Vec<i64>) -> (i64, Vec<i64>) {
                SeqBackend.run(prog, frames)
            }
            fn run_df_prepared(&self, prog: &DfProg, runs: &[Vec<i64>]) -> Vec<i64> {
                // Divergent on the prepared axis only: the second pass
                // over the matrix drifts, as a state-leaking executable
                // would.
                runs.iter()
                    .enumerate()
                    .map(|(k, xs)| SeqBackend.run(prog, &xs[..]) + (k / 4) as i64)
                    .collect()
            }
            fn run_scm_prepared(&self, prog: &ScmProg, runs: &[Vec<i64>]) -> Vec<Vec<i64>> {
                runs.iter().map(|xs| SeqBackend.run(prog, xs)).collect()
            }
            fn run_tf_prepared(&self, prog: &TfProg, runs: &[Vec<u64>]) -> Vec<u64> {
                runs.iter()
                    .map(|roots| SeqBackend.run(prog, roots.clone()))
                    .collect()
            }
            fn run_then_prepared(&self, prog: &ThenProg, runs: &[Vec<i64>]) -> Vec<(i64, i64)> {
                runs.iter()
                    .map(|xs| SeqBackend.run(prog, &xs[..]))
                    .collect()
            }
            fn run_itermem_prepared(
                &self,
                prog: &LoopProg,
                runs: &[Vec<i64>],
            ) -> Vec<(i64, Vec<i64>)> {
                runs.iter()
                    .map(|frames| SeqBackend.run(prog, frames.clone()))
                    .collect()
            }
            fn run_itermem_df_prepared(
                &self,
                prog: &LoopDfProg,
                runs: &[Vec<Vec<i64>>],
            ) -> Vec<(i64, Vec<i64>)> {
                runs.iter()
                    .map(|frames| SeqBackend.run(prog, frames.clone()))
                    .collect()
            }
            fn run_itermem_tf_prepared(
                &self,
                prog: &LoopTfProg,
                runs: &[Vec<Vec<u64>>],
            ) -> Vec<(u64, Vec<u64>)> {
                runs.iter()
                    .map(|frames| SeqBackend.run(prog, frames.clone()))
                    .collect()
            }
            fn run_nested_loop_prepared(
                &self,
                prog: &NestedLoopProg,
                runs: &[Vec<Vec<i64>>],
            ) -> Vec<(i64, Vec<Vec<i64>>)> {
                runs.iter()
                    .map(|bursts| SeqBackend.run(prog, bursts.clone()))
                    .collect()
            }
            fn run_itermem_then_prepared(
                &self,
                prog: &LoopThenProg,
                runs: &[Vec<i64>],
            ) -> Vec<(i64, Vec<i64>)> {
                runs.iter()
                    .map(|frames| SeqBackend.run(prog, frames.clone()))
                    .collect()
            }
        }
        let caught = std::panic::catch_unwind(|| check_df(&Broken, 2));
        assert!(caught.is_err(), "the kit must flag a divergent backend");
        // The prepared axis catches state leaking across runs of one
        // executable: the first matrix pass is golden, the second drifts.
        let caught = std::panic::catch_unwind(|| check_df_prepared(&Broken, 2));
        assert!(
            caught.is_err(),
            "the prepared axis must flag run-to-run divergence"
        );
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
