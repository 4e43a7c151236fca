//! The `df` (data-farming) skeleton.
//!
//! "An abstraction of the processor farm model, devoted to irregular
//! data-parallelism. Its implementation relies on a master process
//! dynamically dispatching data packets to a pool of worker processes and
//! accumulating partial results until each input data is processed"
//! (paper §2).
//!
//! The operational semantics is the shared host farm round
//! ([`Skeleton::run_on`]): self-scheduling workers claim chunks of items
//! from a shared atomic cursor — the thread-pool equivalent of the
//! master/worker process network of Fig. 1, with the same load-balancing
//! behaviour: a worker claims the next chunk the moment it finishes the
//! previous one — and the master folds the results **in item order**, so
//! every backend agrees with the declarative semantics for any `acc`.

use crate::backend::{map_units, Dispatch};
use crate::program::{resolve_workers, Skeleton};
use std::num::NonZeroUsize;

/// The data-farming skeleton.
///
/// Type parameters are the user's sequential functions: `C` computes one
/// item, `A` folds one result into the accumulator (paper signature
/// `df : int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c`).
///
/// # Example
///
/// ```
/// use skipper::{df, Backend, PoolBackend};
/// let farm = df(3, |s: &String| s.len(), |z, l| z + l, 0usize);
/// let words = vec!["skeleton".to_string(), "farm".to_string()];
/// assert_eq!(PoolBackend::new().run(&farm, &words[..]), 12);
/// ```
#[derive(Debug, Clone)]
pub struct Df<C, A, Z> {
    workers: NonZeroUsize,
    comp: C,
    acc: A,
    init: Z,
    cost_hint: u64,
    cost_model: Option<crate::program::CostModel>,
}

impl<C, A, Z> Df<C, A, Z> {
    /// Creates a farm with `workers` workers; 0 selects
    /// [`crate::default_workers`].
    pub fn new(workers: usize, comp: C, acc: A, init: Z) -> Self {
        Df {
            workers: resolve_workers(workers),
            comp,
            acc,
            init,
            cost_hint: 0,
            cost_model: None,
        }
    }

    /// Declares the abstract work units one `comp` call costs (0 =
    /// unknown). Host backends ignore the hint; `skipper_exec::SimBackend`
    /// plumbs it into the lowered process network (as the worker nodes'
    /// WCET hints for the SynDEx scheduler) and into the executive's
    /// per-call cost model via `Registry::register_with_cost`.
    pub fn with_cost_hint(mut self, units: u64) -> Self {
        self.cost_hint = units;
        self
    }

    /// Declares an **argument-dependent** cost model: the abstract work
    /// units one `comp` call costs as a function of its argument's
    /// structural size (see [`crate::program::CostModel`]). Host backends
    /// ignore it; `skipper_exec::SimBackend` registers it as the
    /// function's per-call cost model for the executive's virtual clock
    /// and stamps `model(1)` onto the lowered worker nodes as the static
    /// WCET hint for the SynDEx scheduler. When both a model and a
    /// [`with_cost_hint`](Df::with_cost_hint) value are declared, the
    /// model drives the dynamic cost and the larger of `model(1)` and the
    /// hint drives the static schedule.
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

    /// The per-item computation function.
    pub fn compute_fn(&self) -> &C {
        &self.comp
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

/// The program-description semantics of a farm over an item slice.
///
/// The paper requires a commutative and associative `acc` "since the
/// accumulation order in the parallel case is intrinsically
/// unpredictable". Here the parallel round buffers each item's result and
/// folds them in item order, so it equals the declarative result for any
/// `acc`.
impl<'a, I, O, C, A, Z> Skeleton<&'a [I]> for Df<C, A, Z>
where
    C: Fn(&I) -> O + Sync,
    A: Fn(Z, O) -> Z,
    Z: Clone,
    I: Sync,
    O: Send,
{
    type Output = Z;

    fn run_declarative(&self, xs: &'a [I]) -> Z {
        crate::receipt::record_assigns(xs.len());
        crate::spec::df(self.workers(), &self.comp, &self.acc, self.init.clone(), xs)
    }

    fn run_on(&self, d: &dyn Dispatch, xs: &'a [I]) -> Z {
        fold_on(self, d, xs, self.init.clone())
    }
}

/// The host farm round folding into an explicit `seed` accumulator (the
/// loop-body form threads the carried state through here).
fn fold_on<I, O, C, A, Z>(farm: &Df<C, A, Z>, d: &dyn Dispatch, xs: &[I], seed: Z) -> Z
where
    C: Fn(&I) -> O + Sync,
    A: Fn(Z, O) -> Z,
    I: Sync,
    O: Send,
{
    // The canonical trace logs the farm round at dispatch, on the
    // calling thread — identically on every backend.
    crate::receipt::record_assigns(xs.len());
    let comp = &farm.comp;
    map_units(d, farm.workers(), xs.len(), |i| comp(&xs[i]))
        .into_iter()
        .fold(seed, |z, o| (farm.acc)(z, o))
}

/// A farm as an [`crate::itermem()`] loop body (the paper's tracking-loop
/// regime): the input is the loop's `&(state, frame)` pair, with the frame
/// being this iteration's item list.
///
/// The **carried state plays the accumulator role**: each frame's results
/// are folded into the state threaded from the previous iteration, and the
/// per-frame output is the updated accumulator — so `itermem(df(...), z0)`
/// is "accumulate every frame's detections into the tracked state". The
/// farm's own `init` seeds only non-loop runs.
impl<'a, I, O, C, A, Z> Skeleton<&'a (Z, Vec<I>)> for Df<C, A, Z>
where
    C: Fn(&I) -> O + Sync,
    A: Fn(Z, O) -> Z,
    Z: Clone,
    I: Sync,
    O: Send,
{
    type Output = (Z, Z);

    fn run_declarative(&self, t: &'a (Z, Vec<I>)) -> (Z, Z) {
        crate::receipt::record_assigns(t.1.len());
        let z = crate::spec::df(self.workers(), &self.comp, &self.acc, t.0.clone(), &t.1);
        (z.clone(), z)
    }

    fn run_on(&self, d: &dyn Dispatch, t: &'a (Z, Vec<I>)) -> (Z, Z) {
        let z = fold_on(self, d, &t.1, t.0.clone());
        (z.clone(), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, PoolBackend, SeqBackend, ShardBackend, Workers};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn seq_matches_spec() {
        let farm = Df::new(4, |x: &i64| x * 2, |z, y| z + y, 0);
        let xs: Vec<i64> = (1..=10).collect();
        assert_eq!(
            SeqBackend.run(&farm, &xs[..]),
            crate::spec::df(4, |x: &i64| x * 2, |z, y| z + y, 0, &xs)
        );
    }

    #[test]
    fn par_equals_seq_for_commutative_acc() {
        let farm = Df::new(4, |x: &u64| x * x, |z, y| z + y, 0u64);
        let xs: Vec<u64> = (0..500).collect();
        assert_eq!(
            PoolBackend::new().run(&farm, &xs[..]),
            SeqBackend.run(&farm, &xs[..])
        );
    }

    #[test]
    fn non_commutative_acc_folds_in_item_order_on_every_host_backend() {
        // String concatenation is associative but NOT commutative.
        let farm = Df::new(
            4,
            |x: &u32| x.to_string(),
            |z: String, y: String| z + &y,
            String::new(),
        );
        let dispatchers: [Box<dyn Dispatch>; 3] = [
            Box::new(PoolBackend::configured(Workers::exact(1))),
            Box::new(PoolBackend::configured(Workers::exact(4))),
            Box::new(ShardBackend::configured(2, Workers::exact(2))),
        ];
        for len in [0u32, 1, 7, 64, 300] {
            let xs: Vec<u32> = (0..len).collect();
            let golden = SeqBackend.run(&farm, &xs[..]);
            for d in &dispatchers {
                assert_eq!(farm.run_on(&**d, &xs[..]), golden, "{d:?}, {len} items");
            }
        }
    }

    #[test]
    fn empty_input_returns_initial() {
        let farm = Df::new(2, |x: &i32| *x, |z: i32, y| z + y, 7);
        assert_eq!(PoolBackend::new().run(&farm, &[][..]), 7);
        assert_eq!(SeqBackend.run(&farm, &[][..]), 7);
    }

    #[test]
    fn single_item_single_worker() {
        let farm = Df::new(1, |x: &i32| x + 1, |z: i32, y| z + y, 0);
        assert_eq!(PoolBackend::new().run(&farm, &[41][..]), 42);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let farm = Df::new(16, |x: &i32| *x, |z: i32, y| z + y, 0);
        assert_eq!(PoolBackend::new().run(&farm, &[1, 2, 3][..]), 6);
    }

    #[test]
    fn pool_wider_than_program_degree_is_fine() {
        let farm = Df::new(1, |x: &u64| *x, |z: u64, y| z + y, 0u64);
        let xs: Vec<u64> = (0..100).collect();
        let wide = PoolBackend::configured(Workers::exact(8));
        assert_eq!(wide.run(&farm, &xs[..]), SeqBackend.run(&farm, &xs[..]));
    }

    #[test]
    fn all_items_processed_exactly_once() {
        let counter = AtomicU64::new(0);
        let farm = Df::new(
            8,
            |x: &u64| {
                counter.fetch_add(1, Ordering::Relaxed);
                *x
            },
            |z, y| z + y,
            0u64,
        );
        let xs: Vec<u64> = (0..1000).collect();
        let total = PoolBackend::new().run(&farm, &xs[..]);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(total, xs.iter().sum::<u64>());
    }

    #[test]
    fn dynamic_balancing_beats_static_on_skew() {
        // One huge item and many small ones: with dynamic scheduling the
        // small items flow to the idle workers. We check wall-clock is far
        // below the serial sum of sleeps.
        let xs: Vec<u64> = std::iter::once(40)
            .chain(std::iter::repeat_n(2, 40))
            .collect();
        let farm = Df::new(
            4,
            |ms: &u64| {
                std::thread::sleep(Duration::from_millis(*ms));
                *ms
            },
            |z, y| z + y,
            0u64,
        );
        // Four pool threads, so the sleeping jobs overlap however many
        // cores the host has.
        let pool = PoolBackend::configured(Workers::exact(4));
        let t0 = std::time::Instant::now();
        let total = pool.run(&farm, &xs[..]);
        let elapsed = t0.elapsed();
        assert_eq!(total, 40 + 40 * 2);
        let serial = Duration::from_millis(total);
        assert!(
            elapsed < serial * 3 / 4,
            "farm showed no speedup: {elapsed:?} vs serial {serial:?}"
        );
    }

    #[test]
    fn nesting_a_farm_inside_a_farm_works() {
        // The paper's SKiPPER-I cannot nest skeletons; the Rust library can.
        let inner_sums: Vec<Vec<u64>> = (0..8).map(|i| (0..=i).collect()).collect();
        let inner_pool = PoolBackend::configured(Workers::exact(2));
        let outer = Df::new(
            2,
            |v: &Vec<u64>| {
                let inner = Df::new(2, |x: &u64| *x, |z, y| z + y, 0u64);
                inner_pool.run(&inner, &v[..])
            },
            |z, y| z + y,
            0u64,
        );
        let expected: u64 = inner_sums.iter().flatten().sum();
        assert_eq!(PoolBackend::new().run(&outer, &inner_sums[..]), expected);
    }

    #[test]
    fn zero_workers_selects_the_default() {
        let farm = Df::new(0, |x: &i32| *x, |z: i32, y: i32| z + y, 0);
        assert_eq!(farm.workers(), crate::default_workers().get());
        assert_eq!(PoolBackend::new().run(&farm, &[1, 2, 3][..]), 6);
    }

    #[test]
    fn cost_hint_defaults_to_unknown_and_is_builder_settable() {
        let farm = Df::new(4, |x: &u64| x * x, |z: u64, y: u64| z + y, 0u64);
        assert_eq!(farm.cost_hint(), 0);
        let hinted = farm.with_cost_hint(250_000);
        assert_eq!(hinted.cost_hint(), 250_000);
        // The hint is advisory on host backends: results are unchanged.
        let xs: Vec<u64> = (0..32).collect();
        assert_eq!(
            PoolBackend::new().run(&hinted, &xs[..]),
            SeqBackend.run(&hinted, &xs[..])
        );
    }
}
