//! The `scm` (Split, Compute, Merge) skeleton.
//!
//! "Encompasses … patterns dedicated to regular, data-parallel processing"
//! (paper §2): the input domain is decomposed into sub-domains, each
//! sub-domain is processed independently with the same function, and the
//! results are merged. The paper assigns fragments to workers statically,
//! which is why it reserves `scm` for *regular* workloads and brings in
//! `df` when per-item cost varies. On the host, fragments go through the
//! same self-scheduling farm round as [`crate::Df`] items, and the partial
//! results are merged in fragment order, so the result is the same.

use crate::backend::{map_units, Dispatch};
use crate::program::{resolve_workers, Skeleton};
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// The Split/Compute/Merge skeleton.
///
/// Paper signature:
/// `scm : int -> ('a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd) -> 'a -> 'd`.
/// The split function also receives `n` (the degree of parallelism) so it
/// can produce one fragment per processor.
///
/// # Example
///
/// ```
/// use skipper::{scm, Backend, PoolBackend};
/// let prog = scm(
///     4,
///     |v: &Vec<u32>, n| v.chunks(v.len().div_ceil(n)).map(<[u32]>::to_vec).collect(),
///     |chunk: Vec<u32>| chunk.iter().sum::<u32>(),
///     |partials: Vec<u32>| partials.iter().sum::<u32>(),
/// );
/// let data: Vec<u32> = (1..=100).collect();
/// assert_eq!(PoolBackend::new().run(&prog, &data), 5050);
/// ```
#[derive(Debug, Clone)]
pub struct Scm<S, C, M> {
    workers: NonZeroUsize,
    split: S,
    compute: C,
    merge: M,
    cost_hint: u64,
    cost_model: Option<crate::program::CostModel>,
}

impl<S, C, M> Scm<S, C, M> {
    /// Creates an `scm` instance with `workers` compute processes; 0
    /// selects [`crate::default_workers`].
    pub fn new(workers: usize, split: S, compute: C, merge: M) -> Self {
        Scm {
            workers: resolve_workers(workers),
            split,
            compute,
            merge,
            cost_hint: 0,
            cost_model: None,
        }
    }

    /// Declares the abstract work units one `compute` call costs (0 =
    /// unknown). Host backends ignore the hint; `skipper_exec::SimBackend`
    /// plumbs it into the lowered compute nodes' WCET hints for the SynDEx
    /// scheduler and into the executive's per-call cost model.
    pub fn with_cost_hint(mut self, units: u64) -> Self {
        self.cost_hint = units;
        self
    }

    /// Declares an **argument-dependent** cost model for one `compute`
    /// call (see [`crate::program::CostModel`]): the dynamic cost follows
    /// the fragment's structural size, while `model(1)` serves as the
    /// static WCET hint for the SynDEx scheduler.
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

    /// The domain-decomposition function.
    pub fn split_fn(&self) -> &S {
        &self.split
    }

    /// The per-fragment computation function.
    pub fn compute_fn(&self) -> &C {
        &self.compute
    }

    /// The result-merging function.
    pub fn merge_fn(&self) -> &M {
        &self.merge
    }
}

/// The program-description semantics: fragments are farmed out like
/// [`crate::Df`] items and the partial results are merged in fragment
/// order, so the parallel result always equals the declarative one.
impl<'a, I, F, P, R, S, C, M> Skeleton<&'a I> for Scm<S, C, M>
where
    S: Fn(&I, usize) -> Vec<F>,
    C: Fn(F) -> P + Sync,
    M: Fn(Vec<P>) -> R,
    F: Send,
    P: Send,
{
    type Output = R;

    fn run_declarative(&self, x: &'a I) -> R {
        if crate::receipt::trace_active() {
            // The canonical trace logs one assignment per fragment. The
            // splitter is called once more to count them; like the rest
            // of the skeleton contract, it must be a pure function.
            crate::receipt::record_assigns((self.split)(x, self.workers()).len());
        }
        crate::spec::scm(self.workers(), &self.split, &self.compute, &self.merge, x)
    }

    fn run_on(&self, d: &dyn Dispatch, x: &'a I) -> R {
        let frags = (self.split)(x, self.workers());
        crate::receipt::record_assigns(frags.len());
        // Each fragment is claimed by exactly one job, which moves it out.
        let frags: Vec<Mutex<Option<F>>> = frags.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let compute = &self.compute;
        let partials = map_units(d, self.workers(), frags.len(), |i| {
            let f = frags[i].lock().expect("fragment slot poisoned").take();
            compute(f.expect("each fragment is claimed once"))
        });
        (self.merge)(partials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, PoolBackend, SeqBackend};
    use std::time::Duration;

    // `&Vec` (not `&[_]`) is deliberate: the splitter's argument type fixes
    // the skeleton's input type parameter `I`, which must be sized.
    #[allow(clippy::ptr_arg)]
    fn chunk_split(v: &Vec<u64>, n: usize) -> Vec<Vec<u64>> {
        if v.is_empty() {
            return Vec::new();
        }
        v.chunks(v.len().div_ceil(n)).map(<[u64]>::to_vec).collect()
    }

    #[test]
    fn par_equals_seq() {
        let scm = Scm::new(
            4,
            chunk_split,
            |c: Vec<u64>| c.iter().map(|x| x * x).sum::<u64>(),
            |ps: Vec<u64>| ps.iter().sum::<u64>(),
        );
        let data: Vec<u64> = (0..1000).collect();
        assert_eq!(
            PoolBackend::new().run(&scm, &data),
            SeqBackend.run(&scm, &data)
        );
    }

    #[test]
    fn matches_declarative_spec() {
        let data: Vec<u64> = (0..64).collect();
        let scm = Scm::new(
            3,
            chunk_split,
            |c: Vec<u64>| c.len(),
            |ps: Vec<usize>| ps.into_iter().sum::<usize>(),
        );
        let spec = crate::spec::scm(
            3,
            chunk_split,
            |c: Vec<u64>| c.len(),
            |ps: Vec<usize>| ps.into_iter().sum::<usize>(),
            &data,
        );
        assert_eq!(PoolBackend::new().run(&scm, &data), spec);
    }

    #[test]
    fn merge_sees_fragment_order() {
        // Merge concatenates; order must be the split order even though
        // workers finish out of order.
        let scm = Scm::new(
            4,
            |v: &Vec<u64>, _| v.iter().map(|&x| vec![x]).collect::<Vec<_>>(),
            |c: Vec<u64>| {
                std::thread::sleep(Duration::from_millis(c[0] % 7));
                c
            },
            |ps: Vec<Vec<u64>>| ps.concat(),
        );
        let data: Vec<u64> = (0..20).rev().collect();
        assert_eq!(PoolBackend::new().run(&scm, &data), data);
    }

    #[test]
    fn empty_split_merges_empty() {
        let scm = Scm::new(
            2,
            |_: &u32, _| Vec::<u32>::new(),
            |x: u32| x,
            |ps: Vec<u32>| ps.len(),
        );
        assert_eq!(PoolBackend::new().run(&scm, &0), 0);
        assert_eq!(SeqBackend.run(&scm, &0), 0);
    }

    #[test]
    fn more_fragments_than_workers() {
        let scm = Scm::new(
            2,
            |v: &Vec<u64>, _| v.iter().map(|&x| vec![x]).collect::<Vec<_>>(),
            |c: Vec<u64>| c[0] * 2,
            |ps: Vec<u64>| ps.iter().sum::<u64>(),
        );
        let data: Vec<u64> = (1..=9).collect();
        assert_eq!(PoolBackend::new().run(&scm, &data), 90);
    }

    #[test]
    fn zero_workers_selects_the_default() {
        let scm = Scm::new(
            0,
            |_: &u32, n: usize| vec![1u32; n],
            |x: u32| x,
            |ps: Vec<u32>| ps.len(),
        );
        assert_eq!(scm.workers(), crate::default_workers().get());
        assert_eq!(
            PoolBackend::new().run(&scm, &0),
            crate::default_workers().get()
        );
    }

    #[test]
    fn cost_hint_round_trips() {
        let scm = Scm::new(
            3,
            chunk_split,
            |c: Vec<u64>| c.iter().sum::<u64>(),
            |ps: Vec<u64>| ps.iter().sum::<u64>(),
        );
        assert_eq!(scm.cost_hint(), 0);
        assert_eq!(scm.with_cost_hint(9_000).cost_hint(), 9_000);
    }
}
