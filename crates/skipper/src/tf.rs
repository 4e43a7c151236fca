//! The `tf` (task-farming) skeleton.
//!
//! "A generalisation of the `df` one, in which each worker can recursively
//! generate new packets to be processed. Its main use is for implementing
//! the so-called divide-and-conquer algorithms" (paper §2 — declared but
//! not further discussed there; we implement it fully).
//!
//! The operational semantics keeps a shared task pool; workers pop a task,
//! may push freshly generated tasks, and emit optional results to the
//! accumulating master. Termination is detected when the pool is empty
//! *and* no worker still holds a task.

use crate::backend::{task_round, Dispatch};
use crate::program::{resolve_workers, Skeleton};
use std::num::NonZeroUsize;

/// The task-farming skeleton.
///
/// `W` maps one task to `(new_tasks, optional_result)`; `A` folds results
/// into the accumulator. As with [`crate::Df`], parallel/sequential
/// equivalence requires a commutative-associative `A`.
///
/// # Example
///
/// ```
/// use skipper::{tf, Backend, PoolBackend};
/// // Count the nodes of an implicit binary tree of depth 4.
/// let prog = tf(
///     4,
///     |d: u32| {
///         let children = if d > 0 { vec![d - 1, d - 1] } else { vec![] };
///         (children, Some(1u32))
///     },
///     |z, c| z + c,
///     0u32,
/// );
/// assert_eq!(PoolBackend::new().run(&prog, vec![4]), 31);
/// ```
#[derive(Debug, Clone)]
pub struct Tf<W, A, Z> {
    workers: NonZeroUsize,
    worker: W,
    acc: A,
    init: Z,
    cost_hint: u64,
    cost_model: Option<crate::program::CostModel>,
}

impl<W, A, Z> Tf<W, A, Z> {
    /// Creates a task farm with `workers` workers; 0 selects
    /// [`crate::default_workers`].
    pub fn new(workers: usize, worker: W, acc: A, init: Z) -> Self {
        Tf {
            workers: resolve_workers(workers),
            worker,
            acc,
            init,
            cost_hint: 0,
            cost_model: None,
        }
    }

    /// Declares the abstract work units one `worker` call costs (0 =
    /// unknown). Host backends ignore the hint; `skipper_exec::SimBackend`
    /// plumbs it into the lowered worker nodes' WCET hints for the SynDEx
    /// scheduler and into the executive's per-call cost model.
    pub fn with_cost_hint(mut self, units: u64) -> Self {
        self.cost_hint = units;
        self
    }

    /// Declares an **argument-dependent** cost model for one `worker`
    /// call (see [`crate::program::CostModel`]): the dynamic cost follows
    /// the task's structural size, while `model(1)` serves as the static
    /// WCET hint for the SynDEx scheduler.
    pub fn with_cost_model(mut self, model: crate::program::CostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// The declared per-call work units (0 = unknown).
    pub fn cost_hint(&self) -> u64 {
        self.cost_hint
    }

    /// The declared argument-dependent cost model, if any.
    pub fn cost_model(&self) -> Option<crate::program::CostModel> {
        self.cost_model
    }

    /// Degree of parallelism.
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// The task-elaboration function.
    pub fn worker_fn(&self) -> &W {
        &self.worker
    }

    /// The accumulation function.
    pub fn acc_fn(&self) -> &A {
        &self.acc
    }

    /// The initial accumulator.
    pub fn init(&self) -> &Z {
        &self.init
    }
}

/// The program-description semantics: shared task pool with work
/// generation; results folded in arrival order (so the parallel result
/// matches the declarative one only for commutative-associative `acc`).
impl<T, O, W, A, Z> Skeleton<Vec<T>> for Tf<W, A, Z>
where
    W: Fn(T) -> (Vec<T>, Option<O>) + Sync,
    A: Fn(Z, O) -> Z,
    Z: Clone,
    T: Send,
    O: Send,
{
    type Output = Z;

    fn run_declarative(&self, tasks: Vec<T>) -> Z {
        crate::receipt::record_assigns(tasks.len());
        crate::spec::tf(
            self.workers(),
            |t| (self.worker)(t),
            |z, o| (self.acc)(z, o),
            self.init.clone(),
            tasks,
        )
    }

    fn run_on(&self, d: &dyn Dispatch, tasks: Vec<T>) -> Z {
        fold_on(self, d, tasks, self.init.clone())
    }
}

/// The host task-farm round folding into an explicit `seed` accumulator
/// (the loop-body form threads the carried state through here).
fn fold_on<T, O, W, A, Z>(farm: &Tf<W, A, Z>, d: &dyn Dispatch, tasks: Vec<T>, seed: Z) -> Z
where
    W: Fn(T) -> (Vec<T>, Option<O>) + Sync,
    A: Fn(Z, O) -> Z,
    T: Send,
    O: Send,
{
    // The canonical trace logs the *root* tasks at dispatch (subtask
    // elaboration happens inside a partition and is not traced).
    crate::receipt::record_assigns(tasks.len());
    task_round(d, farm.workers(), tasks, &farm.worker)
        .into_iter()
        .fold(seed, |z, o| (farm.acc)(z, o))
}

/// A task farm as an [`crate::itermem()`] loop body: the input is the loop's
/// `&(state, frame)` pair, the frame being this iteration's root tasks.
///
/// As with the `df` loop body, the **carried state plays the accumulator
/// role**: the frame's task tree is elaborated with the threaded state as
/// the accumulator seed, and the per-frame output is the updated
/// accumulator. The farm's own `init` seeds only non-loop runs. Root
/// tasks are cloned out of the borrowed frame (`T: Clone`).
impl<'a, T, O, W, A, Z> Skeleton<&'a (Z, Vec<T>)> for Tf<W, A, Z>
where
    W: Fn(T) -> (Vec<T>, Option<O>) + Sync,
    A: Fn(Z, O) -> Z,
    Z: Clone,
    T: Clone + Send,
    O: Send,
{
    type Output = (Z, Z);

    fn run_declarative(&self, t: &'a (Z, Vec<T>)) -> (Z, Z) {
        crate::receipt::record_assigns(t.1.len());
        let z = crate::spec::tf(
            self.workers(),
            |task| (self.worker)(task),
            |z, o| (self.acc)(z, o),
            t.0.clone(),
            t.1.clone(),
        );
        (z.clone(), z)
    }

    fn run_on(&self, d: &dyn Dispatch, t: &'a (Z, Vec<T>)) -> (Z, Z) {
        let z = fold_on(self, d, t.1.clone(), t.0.clone());
        (z.clone(), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, PoolBackend, SeqBackend};

    /// Quadtree-style division: a "region" of size s splits into 4 regions
    /// of size s/4 until small, then reports its size.
    fn quad(s: u64) -> (Vec<u64>, Option<u64>) {
        if s > 16 {
            (vec![s / 4; 4], None)
        } else {
            (vec![], Some(s))
        }
    }

    #[test]
    fn par_equals_seq_for_commutative_acc() {
        let tf = Tf::new(4, quad, |z, o| z + o, 0u64);
        assert_eq!(
            PoolBackend::new().run(&tf, vec![1024]),
            SeqBackend.run(&tf, vec![1024])
        );
    }

    #[test]
    fn leaf_mass_is_conserved() {
        // 1024 splits into 4x256 ... down to 4^3 leaves of 16: total 1024.
        let tf = Tf::new(8, quad, |z, o| z + o, 0u64);
        assert_eq!(PoolBackend::new().run(&tf, vec![1024]), 1024);
    }

    #[test]
    fn empty_task_list_returns_init() {
        let tf = Tf::new(2, quad, |z, o| z + o, 99u64);
        assert_eq!(PoolBackend::new().run(&tf, Vec::new()), 99);
    }

    #[test]
    fn pure_df_workload_reduces_to_farm() {
        // No task generates children: tf degenerates to df.
        let tf = Tf::new(4, |x: u64| (Vec::new(), Some(x * 3)), |z, o| z + o, 0u64);
        let expected: u64 = (0..100).map(|x| x * 3).sum();
        let tasks: Vec<u64> = (0..100).collect();
        assert_eq!(PoolBackend::new().run(&tf, tasks), expected);
    }

    #[test]
    fn tasks_with_no_result_contribute_nothing() {
        let tf = Tf::new(
            2,
            |x: u32| {
                if x % 2 == 0 {
                    (Vec::new(), Some(x))
                } else {
                    (Vec::new(), None)
                }
            },
            |z, o| z + o,
            0u32,
        );
        let tasks: Vec<u32> = (0..10).collect();
        assert_eq!(PoolBackend::new().run(&tf, tasks), 2 + 4 + 6 + 8);
    }

    #[test]
    fn deep_generation_chain_terminates() {
        // Each task spawns exactly one child until depth 0 — worst case for
        // termination detection (pool is often empty while work exists).
        let tf = Tf::new(
            4,
            |d: u32| {
                if d > 0 {
                    (vec![d - 1], None)
                } else {
                    (vec![], Some(1u32))
                }
            },
            |z, o| z + o,
            0u32,
        );
        assert_eq!(PoolBackend::new().run(&tf, vec![500]), 1);
    }

    #[test]
    fn many_roots_many_workers() {
        let tf = Tf::new(8, quad, |z, o| z + o, 0u64);
        let roots = vec![256u64; 16];
        assert_eq!(
            PoolBackend::new().run(&tf, roots.clone()),
            SeqBackend.run(&tf, roots)
        );
    }

    #[test]
    fn zero_workers_selects_the_default() {
        let tf = Tf::new(0, quad, |z: u64, o: u64| z + o, 0u64);
        assert_eq!(tf.workers(), crate::default_workers().get());
        assert_eq!(PoolBackend::new().run(&tf, vec![64]), 64);
    }

    #[test]
    fn cost_hint_round_trips() {
        let tf = Tf::new(4, quad, |z: u64, o: u64| z + o, 0u64);
        assert_eq!(tf.cost_hint(), 0);
        assert_eq!(tf.with_cost_hint(123).cost_hint(), 123);
    }
}
