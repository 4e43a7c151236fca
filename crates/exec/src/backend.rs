//! The simulator backend: running [`Skeleton`] programs through the full
//! paper pipeline.
//!
//! [`SimBackend`] is the execution strategy that runs a skeleton program
//! on the modelled machine (next to `skipper::SeqBackend`'s emulation
//! and the host dispatchers such as `skipper::PoolBackend`): it lowers
//! the program through [`skipper_net::pnt`] template expansion, SynDEx
//! scheduling and macro-code generation, then interprets the generated
//! executive on the simulated Transputer machine with real application
//! values — so the one-line program that runs on a host pool also runs,
//! unmodified, on the modelled parallel machine.
//!
//! ```
//! use skipper::{df, Backend, SeqBackend};
//! use skipper_exec::SimBackend;
//!
//! let farm = df(4, |x: &i64| x * x, |z: i64, y| z + y, 0i64);
//! let xs: Vec<i64> = (1..=10).collect();
//! let simulated = SimBackend::ring(5).run(&farm, &xs[..]).expect("farm runs");
//! assert_eq!(simulated, SeqBackend.run(&farm, &xs[..]));
//! ```
//!
//! # Prepare once, run many
//!
//! Exactly as SKiPPER compiles offline and executes per frame at video
//! rate, [`Backend::prepare`] performs the **whole compilation pipeline
//! once** — lowering, SynDEx scheduling, macro-code generation — and
//! hands back a [`SimExecutable`] (or [`SimLoopExecutable`] for `itermem`
//! programs) whose `run` only resets per-run simulator state and
//! re-interprets the cached macro-code. A frame loop over a prepared
//! executable therefore pays lowering and scheduling exactly once (the
//! [`lowering_count`] probe pins this), while `Backend::run` remains the
//! prepare-then-run convenience for one-shot execution:
//!
//! ```
//! use skipper::{df, Backend, Executable, SeqBackend};
//! use skipper_exec::SimBackend;
//!
//! let farm = df(3, |x: &i64| x + 1, |z: i64, y| z + y, 0i64);
//! let backend = SimBackend::ring(4);
//! // Lower + schedule + codegen once. The input type is spelled out
//! // because a farm is a program over two input shapes (an item slice,
//! // or an `itermem` loop's `(state, frame)` pair).
//! let exec = Backend::<_, &[i64]>::prepare(&backend, &farm);
//! for frame in 1..=3i64 {
//!     let items: Vec<i64> = (0..frame).collect();
//!     let simulated = exec.run(&items[..]).expect("prepared farm runs");
//!     assert_eq!(simulated, SeqBackend.run(&farm, &items[..]));
//! }
//! ```
//!
//! Lowering notes (all consistent with the paper's side conditions):
//!
//! - `df`/`tf` results are accumulated in **arrival order** by the farm
//!   master, so simulated results equal the declarative semantics only for
//!   commutative-associative accumulation functions — the same requirement
//!   the paper states for the parallel implementation;
//! - farms lower onto either farm PNT shape
//!   ([`SimBackend::with_farm_shape`]): the star expansion addresses
//!   workers point-to-point over the simulator's store-and-forward links,
//!   while [`skipper_net::FarmShape::Ring`] expands Fig. 1's explicit
//!   `M->W`/`W->M` router processes, co-locates them with their workers,
//!   and relays farm traffic hop-by-hop along the chain at application
//!   level;
//! - an `scm` split function must produce exactly `workers` fragments
//!   (the process network has one statically-placed compute node per
//!   fragment); any other count fails the run with
//!   [`ExecError::BadShape`];
//! - a `tf` root task's subtree is elaborated depth-first on the worker it
//!   is dispatched to (dynamic balancing happens across root tasks);
//! - `itermem` programs run one graph iteration per frame, with the state
//!   threaded through a `MEM` node exactly as in Fig. 4. Every skeleton of
//!   the repertoire can head the loop body over the `(state, frame)`
//!   tuple: `scm(...)` bodies split the tuple itself, while `df(...)` /
//!   `tf(...)` bodies treat the frame as the iteration's item (task) list
//!   and use the **carried state as the accumulator seed** (the
//!   executive's seeded-master protocol; outputs are the updated
//!   accumulator). A nested `itermem(...)` body — whose trip count is
//!   data-dependent — is elaborated sequentially on its host processor,
//!   like a `tf` subtree. A bare [`Pure`] body cannot lower — its
//!   by-reference input has no executive encoding — and fails with the
//!   dedicated [`ExecError::PureLoopBody`];
//! - a program's `with_cost_hint` declaration (e.g.
//!   [`skipper::Df::with_cost_hint`]) is plumbed through the lowering:
//!   stamped onto the lowered worker nodes as WCET hints for the SynDEx
//!   scheduler (inspectable via [`SimBackend::plan`]) and registered as
//!   the function's per-call cost model
//!   ([`Registry::register_with_cost`]) for the executive's virtual
//!   clock. An **argument-dependent** `with_cost_model` declaration
//!   (e.g. [`skipper::Df::with_cost_model`]) goes further: the executive
//!   evaluates the model on each actual argument's [`Value::size`], and
//!   `model(1)` serves as the static WCET hint for the scheduler.

use crate::executive::{run_prepared, ExecConfig, ExecError, ExecReport, SimStatics};
use crate::registry::Registry;
use crate::sim_value::SimValue;
use crate::value::Value;
use skipper::{Df, IterLoop, Pure, Scm, Skeleton, Tf, Then};
use skipper_net::dtype::DataType;
use skipper_net::graph::{NodeId, NodeKind, ProcessNetwork};
use skipper_net::pnt::{expand_df, expand_itermem, expand_scm, DfTypes, IterMemTypes, ScmTypes};
use skipper_net::FarmShape;
use skipper_syndex::schedule::{schedule_with, Schedule, Strategy};
use skipper_syndex::Architecture;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use transvision::sim::SimConfig;
use transvision::topology::ProcId;

fn internal(e: impl std::fmt::Display) -> ExecError {
    ExecError::Internal(e.to_string())
}

fn decode<T: SimValue>(v: &Value, what: &str) -> Result<T, ExecError> {
    T::from_value(v).ok_or_else(|| {
        ExecError::Internal(format!("{what}: cannot decode {} value", v.type_name()))
    })
}

/// One fragment of a lowered program: a subgraph consuming its encoded
/// input on `entry` port 0 and producing its encoded output on `exit`
/// port 0.
#[derive(Debug, Clone, Copy)]
pub struct Fragment {
    /// Dataflow entry node.
    pub entry: NodeId,
    /// Dataflow exit node.
    pub exit: NodeId,
}

/// Shared state threaded through a lowering pass.
pub struct Lowering<'a> {
    net: &'a mut ProcessNetwork,
    reg: &'a mut Registry,
    farm_init: &'a mut HashMap<usize, Value>,
    workers: &'a mut Vec<NodeId>,
    /// `(router, worker)` co-location pairs: each ring router must be
    /// mapped onto its worker's processor (Fig. 1 places one `M->W`/`W->M`
    /// pair per worker processor).
    colocated: &'a mut Vec<(NodeId, NodeId)>,
    /// Farm PNT shape the backend lowers with.
    shape: FarmShape,
    counter: &'a mut usize,
}

impl Lowering<'_> {
    /// A registry/function name unique within this lowering.
    fn fresh(&mut self, role: &str) -> String {
        let id = *self.counter;
        *self.counter += 1;
        format!("p{id}_{role}")
    }

    /// Records the ring routers of a freshly expanded farm as co-located
    /// with their workers (no-op for star farms, which have none).
    fn colocate_routers(&mut self, h: &skipper_net::pnt::FarmHandles) {
        for routers in [&h.routers_mw, &h.routers_wm] {
            for (i, &r) in routers.iter().enumerate() {
                self.colocated.push((r, h.workers[i]));
            }
        }
    }

    /// Registers `f` under `name`, carrying the program's declared cost
    /// into the executive's cost model
    /// ([`Registry::register_with_cost`]) when one was given. An
    /// argument-dependent `cost_model` wins over a constant `cost_hint`:
    /// the model is evaluated on the first actual argument's
    /// [`Value::size`] at every call.
    fn register_costed(
        &mut self,
        name: &str,
        cost_hint: u64,
        cost_model: Option<skipper::CostModel>,
        f: impl Fn(&[Value]) -> Vec<Value> + Send + Sync + 'static,
    ) {
        if let Some(model) = cost_model {
            self.reg.register_with_cost(name, f, move |args| {
                model(args.first().map(Value::size).unwrap_or(0))
            });
        } else if cost_hint > 0 {
            self.reg.register_with_cost(name, f, move |_| cost_hint);
        } else {
            self.reg.register(name, f);
        }
    }

    /// Stamps the program's declared per-call cost onto the lowered
    /// compute nodes, so the SynDEx scheduler sees real WCET hints
    /// instead of zero-cost placeholders. With an argument-dependent
    /// model, the static hint is the model evaluated at size 1 (or the
    /// constant hint when that is larger): the scheduler has no actual
    /// arguments to measure, so a nominal unit-size argument stands in.
    fn hint_nodes(
        &mut self,
        nodes: &[NodeId],
        cost_hint: u64,
        cost_model: Option<skipper::CostModel>,
    ) {
        let effective = cost_model.map(|m| m(1)).unwrap_or(0).max(cost_hint);
        if effective > 0 {
            for &node in nodes {
                self.net.set_cost_hint(node, effective);
            }
        }
    }

    // The public construction surface for out-of-crate lowerings: the
    // DSL compiler (`skipper-lang`'s `compile` module) lowers its
    // compiled loop bodies through [`SimLowerBody`] like any skeleton,
    // but lives outside this crate. These accessors expose exactly the
    // node/edge/registry operations the in-crate lowerings use — a
    // custom body is glue nodes around fragments produced by the
    // [`SimLower`] impls of the ordinary skeleton shapes.

    /// A registry/function name unique within this lowering.
    pub fn fresh_name(&mut self, role: &str) -> String {
        self.fresh(role)
    }

    /// Adds a user-function node named `name` to the network. The
    /// function itself must be registered under the same name
    /// ([`Lowering::register_fn`] or [`Lowering::register_costed_fn`]).
    pub fn add_user_fn(&mut self, name: &str) -> NodeId {
        self.net.add_node(NodeKind::UserFn(name.to_string()), name)
    }

    /// Connects `from`'s output port 0 to `to`'s input port `to_port`
    /// carrying a `ty`-named data type.
    ///
    /// # Errors
    ///
    /// [`ExecError::Internal`] if either endpoint does not exist or the
    /// input port is already driven.
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        to_port: usize,
        ty: &str,
    ) -> Result<(), ExecError> {
        self.net
            .add_data_edge(from, 0, to, to_port, named(ty))
            .map_err(internal)
    }

    /// Registers `f` under `name` with no cost declaration.
    pub fn register_fn(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Vec<Value> + Send + Sync + 'static,
    ) {
        self.reg.register(name, f);
    }

    /// Registers `f` under `name`, carrying a cost declaration exactly
    /// as the in-crate skeleton lowerings do (see the private
    /// `register_costed`): an argument-dependent `cost_model` wins over
    /// a constant `cost_hint`.
    pub fn register_costed_fn(
        &mut self,
        name: &str,
        cost_hint: u64,
        cost_model: Option<skipper::CostModel>,
        f: impl Fn(&[Value]) -> Vec<Value> + Send + Sync + 'static,
    ) {
        self.register_costed(name, cost_hint, cost_model, f);
    }
}

/// A program shape [`SimBackend`] knows how to lower into a process
/// network: [`Df`], [`Scm`], [`Tf`], [`Pure`] and [`Then`] pipelines of
/// them ([`IterLoop`] is handled at the top level, since a stream loop
/// wraps the whole graph).
pub trait SimLower<I>: Skeleton<I> {
    /// Expands this program into `lw`, registering its sequential
    /// functions, and returns the fragment's dataflow endpoints — or the
    /// [`ExecError`] explaining why this shape has no machine encoding.
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError>;
}

/// A program shape that can head an `itermem` loop body on the
/// simulator: the loop machinery lowers the body through this trait
/// rather than [`SimLower`] directly, so that shapes *without* a machine
/// encoding — a bare [`Pure`] function over the by-reference
/// `(state, frame)` tuple — surface a dedicated, diagnosable
/// [`ExecError::PureLoopBody`] at lowering time instead of an opaque
/// trait-bound failure.
pub trait SimLowerBody<Z, B>: for<'x> Skeleton<&'x (Z, B)> {
    /// Lowers this loop body into `lw`, or reports why it cannot lower.
    fn lower_body(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError>;
}

impl<Z, B, C, A, Z2> SimLowerBody<Z, B> for Df<C, A, Z2>
where
    Df<C, A, Z2>: for<'x> SimLower<&'x (Z, B)>,
{
    fn lower_body(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        <Self as SimLower<&(Z, B)>>::lower(self, lw)
    }
}

impl<Z, B, S, C, M> SimLowerBody<Z, B> for Scm<S, C, M>
where
    Scm<S, C, M>: for<'x> SimLower<&'x (Z, B)>,
{
    fn lower_body(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        <Self as SimLower<&(Z, B)>>::lower(self, lw)
    }
}

impl<Z, B, W, A, Z2> SimLowerBody<Z, B> for Tf<W, A, Z2>
where
    Tf<W, A, Z2>: for<'x> SimLower<&'x (Z, B)>,
{
    fn lower_body(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        <Self as SimLower<&(Z, B)>>::lower(self, lw)
    }
}

impl<Z, B, P, Z2> SimLowerBody<Z, B> for IterLoop<P, Z2>
where
    IterLoop<P, Z2>: for<'x> SimLower<&'x (Z, B)>,
{
    fn lower_body(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        <Self as SimLower<&(Z, B)>>::lower(self, lw)
    }
}

impl<Z, B, A, B2> SimLowerBody<Z, B> for Then<A, B2>
where
    Then<A, B2>: for<'x> SimLower<&'x (Z, B)>,
{
    fn lower_body(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        <Self as SimLower<&(Z, B)>>::lower(self, lw)
    }
}

/// The ROADMAP's unlowerable case, made diagnosable: a bare `pure(...)`
/// loop body types as a host-side [`Skeleton`] but has no executive
/// encoding for its by-reference `(state, frame)` input, so lowering it
/// fails with [`ExecError::PureLoopBody`] (message pinned by test).
impl<Z, B, Y, F> SimLowerBody<Z, B> for Pure<F>
where
    F: for<'x> Fn(&'x (Z, B)) -> (Z, Y),
{
    fn lower_body(&self, _lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        Err(ExecError::PureLoopBody)
    }
}

fn named(t: &str) -> DataType {
    DataType::named(t)
}

/// Expands a `df` farm into the network with the backend's farm shape,
/// registering its compute/accumulate functions. Shared by the slice
/// (one-shot) and loop-body lowerings — the node structure and functions
/// are identical; only the master's accumulator seeding differs, and that
/// is decided at run time by the input's shape (list vs `(state, items)`
/// tuple).
fn lower_df_nodes<I, O, C, A, Z>(prog: &Df<C, A, Z>, lw: &mut Lowering<'_>) -> Fragment
where
    C: Fn(&I) -> O + Clone + Send + Sync + 'static,
    A: Fn(Z, O) -> Z + Clone + Send + Sync + 'static,
    I: SimValue,
    O: SimValue,
    Z: SimValue,
{
    let comp_name = lw.fresh("df_comp");
    let acc_name = lw.fresh("df_acc");
    let h = expand_df(
        lw.net,
        prog.workers(),
        &comp_name,
        &acc_name,
        DfTypes {
            item: named("item"),
            result: named("result"),
            acc: named("acc"),
        },
        lw.shape,
    );
    let comp = prog.compute_fn().clone();
    lw.register_costed(
        &comp_name,
        prog.cost_hint(),
        prog.cost_model(),
        move |args| {
            let item = I::from_value(&args[0]).expect("df item decodes");
            vec![comp(&item).to_value()]
        },
    );
    let acc = prog.acc_fn().clone();
    lw.reg.register(&acc_name, move |args| {
        let z = Z::from_value(&args[0]).expect("df accumulator decodes");
        let o = O::from_value(&args[1]).expect("df result decodes");
        vec![acc(z, o).to_value()]
    });
    lw.farm_init.insert(h.instance, prog.init().to_value());
    lw.hint_nodes(&h.workers, prog.cost_hint(), prog.cost_model());
    lw.workers.extend(h.workers.iter().copied());
    lw.colocate_routers(&h);
    Fragment {
        entry: h.master,
        exit: h.master,
    }
}

/// Wraps a farm fragment for loop-body use: the master's output `z'`
/// becomes the `(state', output)` pair the Fig. 4 `unpair` contract
/// expects (both components are the updated accumulator — see the
/// matching `Skeleton<&(Z, Vec<_>)>` impls in `skipper`).
fn state_pair_exit(lw: &mut Lowering<'_>, farm: Fragment) -> Fragment {
    let name = lw.fresh("state_pair");
    let node = lw
        .net
        .add_node(NodeKind::UserFn(name.clone()), name.clone());
    lw.reg.register(&name, |args| {
        vec![Value::tuple(vec![args[0].clone(), args[0].clone()])]
    });
    lw.net
        .add_data_edge(farm.exit, 0, node, 0, named("state"))
        .expect("fragment endpoints exist");
    Fragment {
        entry: farm.entry,
        exit: node,
    }
}

impl<I, O, C, A, Z> SimLower<&[I]> for Df<C, A, Z>
where
    C: Fn(&I) -> O + Clone + Send + Sync + 'static,
    A: Fn(Z, O) -> Z + Clone + Send + Sync + 'static,
    I: SimValue + Sync,
    O: SimValue + Send,
    Z: SimValue + Clone,
{
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        Ok(lower_df_nodes(self, lw))
    }
}

/// A data farm as an `itermem` loop body: the `(state, frame)` tuple
/// arrives on the master, whose accumulator is seeded by the carried
/// state (the executive's seeded-master protocol).
impl<I, O, C, A, Z> SimLower<&(Z, Vec<I>)> for Df<C, A, Z>
where
    C: Fn(&I) -> O + Clone + Send + Sync + 'static,
    A: Fn(Z, O) -> Z + Clone + Send + Sync + 'static,
    I: SimValue + Sync,
    O: SimValue + Send,
    Z: SimValue + Clone,
{
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        let farm = lower_df_nodes(self, lw);
        Ok(state_pair_exit(lw, farm))
    }
}

impl<I, F, P, R, S, C, M> SimLower<&I> for Scm<S, C, M>
where
    S: Fn(&I, usize) -> Vec<F> + Clone + Send + Sync + 'static,
    C: Fn(F) -> P + Clone + Send + Sync + 'static,
    M: Fn(Vec<P>) -> R + Clone + Send + Sync + 'static,
    I: SimValue,
    F: SimValue + Send,
    P: SimValue + Send,
    R: SimValue,
{
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        let n = self.workers();
        let split_name = lw.fresh("scm_split");
        let comp_name = lw.fresh("scm_comp");
        let merge_name = lw.fresh("scm_merge");
        let h = expand_scm(
            lw.net,
            n,
            &split_name,
            &comp_name,
            &merge_name,
            ScmTypes {
                input: named("input"),
                fragment: named("fragment"),
                partial: named("partial"),
                output: named("output"),
            },
        );
        let split = self.split_fn().clone();
        lw.reg.register(&split_name, move |args| {
            let x = I::from_value(&args[0]).expect("scm input decodes");
            let frags = split(&x, n);
            // The statically-expanded network has exactly `n` compute
            // nodes, so any other fragment count cannot be published.
            // Returning the short list (or an empty one, when too many
            // fragments would otherwise be silently dropped) makes the
            // executive fail the run with `ExecError::BadShape` instead
            // of panicking or losing work items.
            if frags.len() > n {
                return vec![Value::list(Vec::new())];
            }
            vec![Value::list(frags.iter().map(SimValue::to_value).collect())]
        });
        let compute = self.compute_fn().clone();
        lw.register_costed(
            &comp_name,
            self.cost_hint(),
            self.cost_model(),
            move |args| {
                let f = F::from_value(&args[0]).expect("scm fragment decodes");
                vec![compute(f).to_value()]
            },
        );
        let merge = self.merge_fn().clone();
        lw.reg.register(&merge_name, move |args| {
            let parts: Vec<P> = args[0]
                .as_list()
                .expect("scm partials arrive as a list")
                .iter()
                .map(|v| P::from_value(v).expect("scm partial decodes"))
                .collect();
            vec![merge(parts).to_value()]
        });
        lw.hint_nodes(&h.workers, self.cost_hint(), self.cost_model());
        lw.workers.extend(h.workers.iter().copied());
        Ok(Fragment {
            entry: h.split,
            exit: h.merge,
        })
    }
}

/// Expands a `tf` task farm into the network (shared by the owned-task
/// and loop-body lowerings, as with [`lower_df_nodes`]).
fn lower_tf_nodes<T, O, W, A, Z>(prog: &Tf<W, A, Z>, lw: &mut Lowering<'_>) -> Fragment
where
    W: Fn(T) -> (Vec<T>, Option<O>) + Clone + Send + Sync + 'static,
    A: Fn(Z, O) -> Z + Clone + Send + Sync + 'static,
    T: SimValue,
    O: SimValue,
    Z: SimValue,
{
    let worker_name = lw.fresh("tf_worker");
    let acc_name = lw.fresh("tf_acc");
    let h = expand_df(
        lw.net,
        prog.workers(),
        &worker_name,
        &acc_name,
        DfTypes {
            item: named("task"),
            result: DataType::list(named("result")),
            acc: named("acc"),
        },
        lw.shape,
    );
    let worker = prog.worker_fn().clone();
    lw.register_costed(
        &worker_name,
        prog.cost_hint(),
        prog.cost_model(),
        move |args| {
            // Depth-first elaboration of this root task's subtree (the
            // same order as `skipper::spec::tf` within one subtree).
            let root = T::from_value(&args[0]).expect("tf task decodes");
            let mut stack = vec![root];
            let mut results: Vec<Value> = Vec::new();
            while let Some(t) = stack.pop() {
                let (new_tasks, result) = worker(t);
                stack.extend(new_tasks.into_iter().rev());
                if let Some(o) = result {
                    results.push(o.to_value());
                }
            }
            vec![Value::list(results)]
        },
    );
    let acc = prog.acc_fn().clone();
    lw.reg.register(&acc_name, move |args| {
        let z = Z::from_value(&args[0]).expect("tf accumulator decodes");
        let folded = args[1]
            .as_list()
            .expect("tf subtree results arrive as a list")
            .iter()
            .map(|v| O::from_value(v).expect("tf result decodes"))
            .fold(z, &acc);
        vec![folded.to_value()]
    });
    lw.farm_init.insert(h.instance, prog.init().to_value());
    lw.hint_nodes(&h.workers, prog.cost_hint(), prog.cost_model());
    lw.workers.extend(h.workers.iter().copied());
    lw.colocate_routers(&h);
    Fragment {
        entry: h.master,
        exit: h.master,
    }
}

impl<T, O, W, A, Z> SimLower<Vec<T>> for Tf<W, A, Z>
where
    W: Fn(T) -> (Vec<T>, Option<O>) + Clone + Send + Sync + 'static,
    A: Fn(Z, O) -> Z + Clone + Send + Sync + 'static,
    T: SimValue + Send,
    O: SimValue + Send,
    Z: SimValue + Clone,
{
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        Ok(lower_tf_nodes(self, lw))
    }
}

/// A task farm as an `itermem` loop body: the frame's root tasks are
/// elaborated with the carried state seeding the accumulator.
impl<T, O, W, A, Z> SimLower<&(Z, Vec<T>)> for Tf<W, A, Z>
where
    W: Fn(T) -> (Vec<T>, Option<O>) + Clone + Send + Sync + 'static,
    A: Fn(Z, O) -> Z + Clone + Send + Sync + 'static,
    T: SimValue + Clone + Send,
    O: SimValue + Send,
    Z: SimValue + Clone,
{
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        let farm = lower_tf_nodes(self, lw);
        Ok(state_pair_exit(lw, farm))
    }
}

/// A stream loop as the body of an *outer* stream loop (nested
/// `itermem`). The inner loop's trip count is data-dependent — one body
/// run per element of the outer frame — so it cannot be unrolled into the
/// static process network; like a `tf` root task's subtree, the whole
/// burst is elaborated sequentially on the processor the node is mapped
/// to, seeded with the carried state.
impl<P, Z, B, Y> SimLower<&(Z, Vec<B>)> for IterLoop<P, Z>
where
    P: for<'x> Skeleton<&'x (Z, B), Output = (Z, Y)> + Clone + Send + Sync + 'static,
    Z: SimValue + Clone + Send + Sync,
    B: SimValue + Clone + Send + Sync,
    Y: SimValue,
{
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        let name = lw.fresh("inner_loop");
        let node = lw
            .net
            .add_node(NodeKind::UserFn(name.clone()), name.clone());
        let inner = self.clone();
        lw.reg.register(&name, move |args| {
            let pair = <(Z, Vec<B>)>::from_value(&args[0]).expect("inner loop input decodes");
            vec![inner.run_declarative(&pair).to_value()]
        });
        Ok(Fragment {
            entry: node,
            exit: node,
        })
    }
}

impl<In, Out, F> SimLower<In> for Pure<F>
where
    F: Fn(In) -> Out + Clone + Send + Sync + 'static,
    In: SimValue,
    Out: SimValue,
{
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        let name = lw.fresh("fn");
        let node = lw
            .net
            .add_node(NodeKind::UserFn(name.clone()), name.clone());
        let f = self.get().clone();
        lw.reg.register(&name, move |args| {
            let x = In::from_value(&args[0]).expect("function input decodes");
            vec![f(x).to_value()]
        });
        Ok(Fragment {
            entry: node,
            exit: node,
        })
    }
}

impl<In, A, B> SimLower<In> for Then<A, B>
where
    A: SimLower<In>,
    B: SimLower<<A as Skeleton<In>>::Output>,
{
    fn lower(&self, lw: &mut Lowering<'_>) -> Result<Fragment, ExecError> {
        let fa = self.first().lower(lw)?;
        let fb = self.second().lower(lw)?;
        lw.net
            .add_data_edge(fa.exit, 0, fb.entry, 0, named("link"))
            .expect("fragment endpoints exist");
        Ok(Fragment {
            entry: fa.entry,
            exit: fb.exit,
        })
    }
}

/// Encoding of a top-level program input (by shape: slices, references,
/// owned values).
pub trait SimInput {
    /// A lifetime-free tag naming this input's shape — [`SliceInput<T>`]
    /// for `&[T]`, [`RefInput<T>`] for `&T`, the type itself for owned
    /// inputs. A prepared [`SimExecutable`] is typed with the shape its
    /// program was compiled for, so handing it a differently-shaped
    /// input (a scalar into a farm, a `(state, items)` seed tuple into a
    /// one-shot lowering) is a compile error rather than a runtime
    /// [`ExecError::BadShape`] — while borrows of any lifetime still
    /// run, because the tag carries none.
    type Shape: 'static;

    /// Encodes the input as the value the graph's `Input` node produces.
    fn encode_input(&self) -> Value;
}

/// The [`SimInput::Shape`] tag of an item-slice input `&[T]`.
pub struct SliceInput<T>(std::marker::PhantomData<fn(T)>);

/// The [`SimInput::Shape`] tag of a by-reference input `&T`.
pub struct RefInput<T>(std::marker::PhantomData<fn(T)>);

impl<T: SimValue> SimInput for &[T] {
    type Shape = SliceInput<T>;

    fn encode_input(&self) -> Value {
        Value::list(self.iter().map(SimValue::to_value).collect())
    }
}

impl<T: SimValue> SimInput for &T {
    type Shape = RefInput<T>;

    fn encode_input(&self) -> Value {
        (*self).to_value()
    }
}

impl<T: SimValue> SimInput for Vec<T> {
    type Shape = Vec<T>;

    fn encode_input(&self) -> Value {
        Value::list(self.iter().map(SimValue::to_value).collect())
    }
}

// Owned scalar/compound inputs (the `Pure` program shape takes its input
// by value): encoded exactly like their [`SimValue`] form. Written per
// concrete type rather than as a blanket so the `Vec<T>`/`&T` impls
// above stay coherent.
macro_rules! impl_owned_sim_input {
    ($($t:ty),* $(,)?) => {$(
        impl SimInput for $t {
            type Shape = $t;

            fn encode_input(&self) -> Value {
                self.to_value()
            }
        }
    )*};
}

impl_owned_sim_input!(
    (),
    bool,
    f64,
    String,
    i8,
    i16,
    i32,
    i64,
    u8,
    u16,
    u32,
    u64,
    usize,
    isize
);

impl<A: SimValue, B: SimValue> SimInput for (A, B) {
    type Shape = (A, B);

    fn encode_input(&self) -> Value {
        self.to_value()
    }
}

impl<A: SimValue, B: SimValue, C: SimValue> SimInput for (A, B, C) {
    type Shape = (A, B, C);

    fn encode_input(&self) -> Value {
        self.to_value()
    }
}

impl<A: SimValue, B: SimValue, C: SimValue, D: SimValue> SimInput for (A, B, C, D) {
    type Shape = (A, B, C, D);

    fn encode_input(&self) -> Value {
        self.to_value()
    }
}

impl<T: SimValue> SimInput for Option<T> {
    type Shape = Option<T>;

    fn encode_input(&self) -> Value {
        self.to_value()
    }
}

/// The simulator execution strategy: the program is expanded into a
/// process network, mapped onto a T9000-class machine (a ring of
/// `nprocs` processors, or a single processor), compiled to per-processor
/// macro-code and interpreted on the [`transvision`] discrete-event
/// simulator.
///
/// The skeleton's control nodes run on `P0`; its worker nodes are pinned
/// round-robin over `P1..`, reproducing the paper's master/workers
/// placement. Run results come back as `Result`, since lowering, mapping
/// or simulation can fail ([`ExecError`]).
#[derive(Debug, Clone)]
pub struct SimBackend {
    nprocs: usize,
    config: SimConfig,
    farm_shape: FarmShape,
}

impl SimBackend {
    /// A backend simulating a ring of `nprocs` T9000-class processors
    /// (1 means a single processor). An `nprocs` of 0 is accepted at
    /// construction — a machine description is just data — but every
    /// lowering on it fails with [`ExecError::EmptyMachine`].
    pub fn ring(nprocs: usize) -> Self {
        SimBackend {
            nprocs,
            config: SimConfig::default(),
            farm_shape: FarmShape::Star,
        }
    }

    /// A backend simulating a single processor (the machine-side
    /// equivalent of sequential emulation).
    pub fn single() -> Self {
        SimBackend::ring(1)
    }

    /// Replaces the simulated machine timing model.
    pub fn with_sim_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the farm PNT shape programs are lowered with:
    /// [`FarmShape::Star`] (the default) addresses workers point-to-point
    /// over the simulator's store-and-forward links, while
    /// [`FarmShape::Ring`] expands Fig. 1's explicit `M->W`/`W->M` router
    /// processes and relays farm traffic hop-by-hop along the worker
    /// chain at application level.
    pub fn with_farm_shape(mut self, shape: FarmShape) -> Self {
        self.farm_shape = shape;
        self
    }

    /// The farm PNT shape this backend lowers with.
    pub fn farm_shape(&self) -> FarmShape {
        self.farm_shape
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Lowering precondition: the machine must have at least one
    /// processor.
    fn require_procs(&self) -> Result<(), ExecError> {
        if self.nprocs == 0 {
            return Err(ExecError::EmptyMachine);
        }
        Ok(())
    }

    /// The paper's placement policy: control nodes pinned to `P0`, worker
    /// nodes round-robin on `P1..` (everything on `P0` when simulating a
    /// single processor), and ring routers co-located with their workers.
    fn placement(
        &self,
        net: &ProcessNetwork,
        workers: &[NodeId],
        colocated: &[(NodeId, NodeId)],
    ) -> (Architecture, HashMap<NodeId, ProcId>, Strategy) {
        if self.nprocs == 1 {
            (
                Architecture::single_t9000(),
                HashMap::new(),
                Strategy::SingleProc,
            )
        } else {
            let arch = Architecture::ring_t9000(self.nprocs);
            let worker_set: HashSet<NodeId> = workers.iter().copied().collect();
            let mut pins = HashMap::new();
            for node in net.nodes() {
                if !worker_set.contains(&node.id) {
                    pins.insert(node.id, ProcId(0));
                }
            }
            for (i, &w) in workers.iter().enumerate() {
                pins.insert(w, ProcId(1 + i % (self.nprocs - 1)));
            }
            for &(node, with) in colocated {
                let p = pins.get(&with).copied().unwrap_or(ProcId(0));
                pins.insert(node, p);
            }
            (arch, pins, Strategy::MinFinish)
        }
    }

    /// Lowers and schedules a one-shot program: the offline pipeline up
    /// to (and including) the SynDEx schedule, shared by
    /// [`SimBackend::plan`] (which stops here) and
    /// [`SimBackend::compile`] (which goes on to macro-code).
    fn lower_and_schedule<I, P>(
        &self,
        prog: &P,
    ) -> Result<(LoweredOneShot, Architecture, Schedule), ExecError>
    where
        P: SimLower<I>,
    {
        self.require_procs()?;
        let lowered = lower_one_shot(prog, self.farm_shape)?;
        let (arch, pins, strategy) =
            self.placement(&lowered.net, &lowered.workers, &lowered.colocated);
        let sched = schedule_with(&lowered.net, &arch, &pins, strategy)
            .map_err(|e| ExecError::Sim(format!("scheduling failed: {e}")))?;
        Ok((lowered, arch, sched))
    }

    /// Compiles a one-shot program down to interpretable macro-code: the
    /// prepare-once half of the pipeline (lowering → placement → SynDEx
    /// scheduling → macro-code generation), shared by
    /// [`Backend::prepare`] and [`Backend::run`].
    fn compile<I, P>(&self, prog: &P) -> Result<CompiledSim, ExecError>
    where
        P: SimLower<I>,
    {
        let (lowered, arch, sched) = self.lower_and_schedule::<I, P>(prog)?;
        let progs = skipper_syndex::macrocode::generate(&lowered.net, &sched, &arch);
        // Bind the input/output endpoints ONCE, here, against rebindable
        // slots: a run only stores the frame into `input_slot` and takes
        // the result out of `output_slot` — the registry itself is never
        // cloned or re-registered per frame (the zero-copy run contract,
        // pinned by the registry_probe test).
        let mut reg = lowered.reg;
        let input_slot: Arc<Mutex<Option<Value>>> = Arc::new(Mutex::new(None));
        let output_slot: Arc<Mutex<Option<Value>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&input_slot);
        reg.register("simbackend_input", move |_| {
            vec![slot
                .lock()
                .expect("input slot")
                .clone()
                .expect("input bound before run")]
        });
        let slot = Arc::clone(&output_slot);
        reg.register("simbackend_output", move |args| {
            *slot.lock().expect("output slot") = Some(args[0].clone());
            vec![]
        });
        let stat = SimStatics::analyze(
            lowered.net,
            sched,
            progs,
            arch.topology().clone(),
            Arc::new(reg),
            &lowered.farm_init,
        )?;
        Ok(CompiledSim {
            stat: Arc::new(stat),
            config: self.config,
            input_slot,
            output_slot,
            run_lock: Mutex::new(()),
        })
    }

    /// Lowers a one-shot program and returns the SynDEx schedule this
    /// backend would execute it with — without running it (macro-code is
    /// not generated). The schedule's predicted makespan reflects the
    /// program's [`with_cost_hint`](skipper::Df::with_cost_hint) and
    /// [`with_cost_model`](skipper::Df::with_cost_model) declarations,
    /// which the lowering stamps onto the worker nodes as WCET hints.
    pub fn plan<I, P>(&self, prog: &P) -> Result<Schedule, ExecError>
    where
        P: SimLower<I>,
    {
        Ok(self.lower_and_schedule::<I, P>(prog)?.2)
    }
}

/// A one-shot program compiled for repeated simulation: the full
/// run-invariant context ([`SimStatics`]: network, registry, schedule,
/// macro-code, topology, farm tables) behind one `Arc`, plus the
/// rebindable input/output **slots** its endpoint functions were bound
/// against at compile time. A run stores the encoded frame into the
/// input slot, re-interprets the cached macro-code with fresh simulator
/// state, and takes the result from the output slot — zero registry
/// clones, zero network/schedule/macro-code copies per frame.
struct CompiledSim {
    stat: Arc<SimStatics>,
    config: SimConfig,
    /// Per-run frame binding read by the `simbackend_input` endpoint.
    input_slot: Arc<Mutex<Option<Value>>>,
    /// Per-run result binding written by the `simbackend_output` endpoint.
    output_slot: Arc<Mutex<Option<Value>>>,
    /// Runs share the slots above, so concurrent `run` calls on one
    /// executable are serialised (the contract stays `&self`).
    run_lock: Mutex<()>,
}

impl CompiledSim {
    /// One online run: rebind the input slot, interpret the cached
    /// macro-code for a single graph iteration, take the output slot.
    fn run_value(&self, encoded: Value) -> Result<Value, ExecError> {
        let _guard = self.run_lock.lock().expect("run lock");
        *self.input_slot.lock().expect("input slot") = Some(encoded);
        self.output_slot.lock().expect("output slot").take();
        let config = ExecConfig {
            iterations: 1,
            frame_clock: None,
            sim: self.config,
        };
        let run = run_prepared(&self.stat, &HashMap::new(), &config);
        // Unbind the frame either way: a slot must never pin a frame's
        // payload past its run.
        self.input_slot.lock().expect("input slot").take();
        run?;
        let v = self.output_slot.lock().expect("output slot").take();
        v.ok_or_else(|| ExecError::Internal("program produced no output".into()))
    }
}

/// A one-shot program prepared by [`SimBackend`] (see
/// [`Backend::prepare`]): lowering, scheduling and macro-code generation
/// already happened, exactly once; every [`Executable::run`] call only
/// simulates. A preparation failure (e.g. [`ExecError::EmptyMachine`])
/// is carried inside and handed back on every run.
///
/// `Shape` is the [`SimInput::Shape`] tag of the input the program was
/// prepared for: it pins the compiled network's encoding, so an
/// executable prepared over item slices cannot be handed a scalar (or a
/// `(state, items)` seed tuple) by accident — the mismatch is a compile
/// error, not a runtime [`ExecError::BadShape`]. The tag is
/// lifetime-free, so inputs borrowed for any lifetime run.
pub struct SimExecutable<Shape, Out> {
    inner: Result<CompiledSim, ExecError>,
    _io: std::marker::PhantomData<fn(Shape) -> Out>,
}

impl<Shape, Out> SimExecutable<Shape, Out> {
    fn new(inner: Result<CompiledSim, ExecError>) -> Self {
        SimExecutable {
            inner,
            _io: std::marker::PhantomData,
        }
    }

    /// The prepared statics every run of this executable follows — the
    /// network, its SynDEx schedule (the compiled counterpart of
    /// [`SimBackend::plan`]) and the macro-code — or the preparation
    /// error. All of it is computed once, at prepare time.
    pub fn statics(&self) -> Result<&SimStatics, ExecError> {
        match &self.inner {
            Ok(c) => Ok(&c.stat),
            Err(e) => Err(e.clone()),
        }
    }
}

impl<Shape, Out> std::fmt::Debug for SimExecutable<Shape, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimExecutable")
            .field("prepared", &self.inner.is_ok())
            .finish()
    }
}

impl<In, Out> Executable<In> for SimExecutable<In::Shape, Out>
where
    In: SimInput,
    Out: SimValue,
{
    type Output = Result<Out, ExecError>;

    fn run(&self, input: In) -> Result<Out, ExecError> {
        let compiled = self.inner.as_ref().map_err(Clone::clone)?;
        let out = compiled.run_value(input.encode_input())?;
        decode(&out, "prepared program result")
    }
}

/// A one-shot program lowered to a process network with `Input`/`Output`
/// endpoints wired around the program fragment. The registry holds the
/// program's own functions; the `simbackend_input`/`simbackend_output`
/// endpoint functions are bound by the caller.
struct LoweredOneShot {
    net: ProcessNetwork,
    reg: Registry,
    workers: Vec<NodeId>,
    colocated: Vec<(NodeId, NodeId)>,
    farm_init: HashMap<usize, Value>,
}

/// Counts every program lowering this process has performed (one-shot
/// and loop lowerings alike): the prepare-once contract's observable.
/// The prepared-reuse tests snapshot it around a prepare-then-run-many
/// sequence and assert the delta is exactly one.
static LOWERINGS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Total number of program lowerings performed by this process so far —
/// a monotonic probe for asserting the prepare-once/run-many contract
/// (compare deltas around a prepare + N runs sequence).
pub fn lowering_count() -> usize {
    LOWERINGS.load(std::sync::atomic::Ordering::Relaxed)
}

fn lower_one_shot<I, P>(prog: &P, shape: FarmShape) -> Result<LoweredOneShot, ExecError>
where
    P: SimLower<I>,
{
    LOWERINGS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut net = ProcessNetwork::new("simbackend");
    let mut reg = Registry::new();
    let mut farm_init = HashMap::new();
    let mut workers = Vec::new();
    let mut colocated = Vec::new();
    let mut counter = 0usize;
    let frag = prog.lower(&mut Lowering {
        net: &mut net,
        reg: &mut reg,
        farm_init: &mut farm_init,
        workers: &mut workers,
        colocated: &mut colocated,
        shape,
        counter: &mut counter,
    })?;
    let inp = net.add_node(NodeKind::Input("simbackend_input".into()), "input");
    let out = net.add_node(NodeKind::Output("simbackend_output".into()), "output");
    net.add_data_edge(inp, 0, frag.entry, 0, named("input"))
        .map_err(internal)?;
    net.add_data_edge(frag.exit, 0, out, 0, named("output"))
        .map_err(internal)?;
    Ok(LoweredOneShot {
        net,
        reg,
        workers,
        colocated,
        farm_init,
    })
}

use skipper::{Backend, Executable};

/// Every lowerable one-shot program ([`Df`], [`Scm`], [`Tf`], [`Pure`]
/// and [`Then`] pipelines of them) prepares into a [`SimExecutable`]
/// typed by its input's shape.
impl<P, In> Backend<P, In> for SimBackend
where
    P: SimLower<In>,
    In: SimInput,
    P::Output: SimValue,
{
    type Output = Result<P::Output, ExecError>;

    type Prepared<'p>
        = SimExecutable<In::Shape, P::Output>
    where
        Self: 'p,
        P: 'p;

    fn prepare<'p>(&'p self, prog: &'p P) -> SimExecutable<In::Shape, P::Output> {
        SimExecutable::new(self.compile::<In, _>(prog))
    }
}

impl SimBackend {
    /// Runs an `itermem` stream loop and returns the outputs **together
    /// with the executive report** (virtual-time trace, per-frame
    /// latencies, processor utilisations) — the measurement face of
    /// `Backend::run` for loop programs, used by the latency experiments.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`]; additionally, an empty frame stream is an
    /// [`ExecError::Internal`] here because nothing is simulated (the
    /// `Backend::run` wrapper short-circuits that case instead).
    pub fn run_loop_with_report<P, Z, B, Y>(
        &self,
        prog: &IterLoop<P, Z>,
        frames: Vec<B>,
    ) -> Result<((Z, Vec<Y>), ExecReport), ExecError>
    where
        P: SimLowerBody<Z, B> + for<'x> Skeleton<&'x (Z, B), Output = (Z, Y)>,
        Z: SimValue + Clone,
        B: SimValue,
        Y: SimValue,
    {
        let exec: SimLoopExecutable<Z, B, Y> =
            SimLoopExecutable::new(self.compile_loop(prog), prog.init().clone());
        exec.run_with_report(frames)
    }

    /// Compiles an `itermem` stream loop down to interpretable
    /// macro-code: the body is lowered and wrapped in the Fig. 4
    /// `pair`/`MEM`/`unpair` harness, then scheduled and code-generated —
    /// all exactly once, shared by every run of the returned state.
    fn compile_loop<P, Z, B>(&self, prog: &IterLoop<P, Z>) -> Result<CompiledSimLoop, ExecError>
    where
        P: SimLowerBody<Z, B>,
    {
        self.require_procs()?;
        LOWERINGS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut net = ProcessNetwork::new("simbackend-itermem");
        let mut reg = Registry::new();
        let mut farm_init = HashMap::new();
        let mut workers = Vec::new();
        let mut colocated = Vec::new();
        let mut counter = 0usize;
        let frag = prog.body().lower_body(&mut Lowering {
            net: &mut net,
            reg: &mut reg,
            farm_init: &mut farm_init,
            workers: &mut workers,
            colocated: &mut colocated,
            shape: self.farm_shape,
            counter: &mut counter,
        })?;
        // Fig. 4 port contract around the body fragment: `pair` packs
        // (frame on port 0, state on port 1) into the body's input tuple;
        // `unpair` splits the body's (state', output) tuple back onto
        // (output on port 0, next state on port 1). All four harness
        // functions are bound HERE, once, against rebindable slots — a
        // run only swaps the frame vector in and takes the state/output
        // slots back out (zero registry clones per stream).
        let pair = net.add_node(NodeKind::UserFn("simbackend_pair".into()), "pair");
        reg.register("simbackend_pair", |args| {
            vec![Value::tuple(vec![args[1].clone(), args[0].clone()])]
        });
        let unpair = net.add_node(NodeKind::UserFn("simbackend_unpair".into()), "unpair");
        net.add_data_edge(pair, 0, frag.entry, 0, named("state-frame"))
            .map_err(internal)?;
        net.add_data_edge(frag.exit, 0, unpair, 0, named("state-output"))
            .map_err(internal)?;
        let h = expand_itermem(
            &mut net,
            "simbackend_grab",
            "simbackend_show",
            pair,
            unpair,
            IterMemTypes {
                input: named("frame"),
                state: named("state"),
                output: named("output"),
            },
        )
        .map_err(internal)?;
        let frames_slot: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
        let state_slot: Arc<Mutex<Option<Value>>> = Arc::new(Mutex::new(None));
        let outputs_slot: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
        let slot = Arc::clone(&state_slot);
        reg.register("simbackend_unpair", move |args| {
            let t = args[0]
                .as_tuple()
                .expect("loop body must produce a (state, output) tuple");
            *slot.lock().expect("state slot") = Some(t[0].clone());
            vec![t[1].clone(), t[0].clone()]
        });
        let slot = Arc::clone(&frames_slot);
        reg.register("simbackend_grab", move |args| {
            let frames = slot.lock().expect("frames slot");
            let k = args[0].as_int().unwrap_or(0).unsigned_abs() as usize;
            vec![frames[k.min(frames.len() - 1)].clone()]
        });
        let slot = Arc::clone(&outputs_slot);
        reg.register("simbackend_show", move |args| {
            slot.lock().expect("output slot").push(args[0].clone());
            vec![]
        });
        let (arch, pins, strategy) = self.placement(&net, &workers, &colocated);
        let sched = schedule_with(&net, &arch, &pins, strategy)
            .map_err(|e| ExecError::Sim(format!("scheduling failed: {e}")))?;
        let progs = skipper_syndex::macrocode::generate(&net, &sched, &arch);
        let stat = SimStatics::analyze(
            net,
            sched,
            progs,
            arch.topology().clone(),
            Arc::new(reg),
            &farm_init,
        )?;
        Ok(CompiledSimLoop {
            base: CompiledSim {
                stat: Arc::new(stat),
                config: self.config,
                input_slot: Arc::new(Mutex::new(None)),
                output_slot: Arc::new(Mutex::new(None)),
                run_lock: Mutex::new(()),
            },
            mem: h.mem,
            frames_slot,
            state_slot,
            outputs_slot,
        })
    }
}

/// An `itermem` program compiled for repeated simulation, the loop
/// counterpart of [`CompiledSim`]: the lowered body with its Fig. 4
/// harness behind one `Arc` of statics, plus the rebindable slots the
/// harness endpoints (`grab`/`unpair`/`show`) were bound against at
/// compile time. Per run, only the frame vector is swapped in and the
/// `MEM` initial value seeded — the registry, network, schedule and
/// macro-code are shared untouched.
struct CompiledSimLoop {
    /// The compiled form shared with the one-shot path (statics, config,
    /// run lock; the one-shot input/output slots are unused here).
    base: CompiledSim,
    /// The Fig. 4 `MEM` node, seeded per run with the loop's initial
    /// state.
    mem: NodeId,
    /// Per-run frame vector read by the `simbackend_grab` endpoint.
    frames_slot: Arc<Mutex<Vec<Value>>>,
    /// Latest loop state written by the `simbackend_unpair` endpoint.
    state_slot: Arc<Mutex<Option<Value>>>,
    /// Per-frame outputs appended by the `simbackend_show` endpoint.
    outputs_slot: Arc<Mutex<Vec<Value>>>,
}

impl CompiledSimLoop {
    /// One online stream run: one graph iteration per encoded frame,
    /// with the state memory seeded by `mem0`. Returns the final state,
    /// the per-frame outputs and the executive report.
    fn run_frames(
        &self,
        frames: Vec<Value>,
        mem0: Value,
    ) -> Result<(Value, Vec<Value>, ExecReport), ExecError> {
        let _guard = self.base.run_lock.lock().expect("run lock");
        let iterations = frames.len();
        *self.frames_slot.lock().expect("frames slot") = frames;
        self.state_slot.lock().expect("state slot").take();
        self.outputs_slot.lock().expect("output slot").clear();
        let mut mem_init = HashMap::new();
        mem_init.insert(self.mem, mem0);
        let config = ExecConfig {
            iterations,
            frame_clock: None,
            sim: self.base.config,
        };
        let run = run_prepared(&self.base.stat, &mem_init, &config);
        // Release the frame payloads either way: the slot must never pin
        // a stream's frames past its run (the Vec keeps its capacity, so
        // the buffer itself is recycled across runs).
        self.frames_slot.lock().expect("frames slot").clear();
        let report = run?;
        let z_value = self
            .state_slot
            .lock()
            .expect("state slot")
            .take()
            .ok_or_else(|| ExecError::Internal("loop produced no final state".into()))?;
        let ys = std::mem::take(&mut *self.outputs_slot.lock().expect("output slot"));
        Ok((z_value, ys, report))
    }
}

/// An `itermem` stream-loop program prepared by [`SimBackend`] (see
/// [`Backend::prepare`]): body lowering, scheduling and macro-code
/// generation already happened, exactly once; every
/// [`Executable::run`] over a frame stream only resets per-run simulator
/// state (frame source, output sink, `MEM` seed) and re-interprets the
/// cached macro-code. [`run_with_report`](SimLoopExecutable::run_with_report)
/// additionally surfaces the executive report for latency studies.
/// `B` is the frame type the loop was prepared for, pinned at prepare
/// time for the same reason as [`SimExecutable`]'s `In`.
pub struct SimLoopExecutable<Z, B, Y> {
    inner: Result<CompiledSimLoop, ExecError>,
    init: Z,
    _io: std::marker::PhantomData<fn(Vec<B>) -> Y>,
}

impl<Z, B, Y> SimLoopExecutable<Z, B, Y> {
    fn new(inner: Result<CompiledSimLoop, ExecError>, init: Z) -> Self {
        SimLoopExecutable {
            inner,
            init,
            _io: std::marker::PhantomData,
        }
    }

    /// The prepared statics every run of this executable follows
    /// (network, schedule, macro-code), or the preparation error.
    pub fn statics(&self) -> Result<&SimStatics, ExecError> {
        match &self.inner {
            Ok(c) => Ok(&c.base.stat),
            Err(e) => Err(e.clone()),
        }
    }
}

impl<Z, B, Y> std::fmt::Debug for SimLoopExecutable<Z, B, Y> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLoopExecutable")
            .field("prepared", &self.inner.is_ok())
            .finish()
    }
}

impl<Z, B, Y> SimLoopExecutable<Z, B, Y>
where
    Z: SimValue + Clone,
    B: SimValue,
    Y: SimValue,
{
    /// Runs one frame stream and returns the outputs **together with the
    /// executive report** (virtual-time trace, per-frame latencies,
    /// processor utilisations) — the measurement face of
    /// [`Executable::run`], used by the latency experiments.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`]; additionally, an empty frame stream is an
    /// [`ExecError::Internal`] here because nothing is simulated (the
    /// [`Executable::run`] wrapper short-circuits that case instead).
    pub fn run_with_report(&self, frames: Vec<B>) -> Result<((Z, Vec<Y>), ExecReport), ExecError> {
        let compiled = self.inner.as_ref().map_err(Clone::clone)?;
        if frames.is_empty() {
            return Err(ExecError::Internal(
                "cannot simulate a loop over an empty frame stream".into(),
            ));
        }
        let encoded: Vec<Value> = frames.iter().map(SimValue::to_value).collect();
        let (z_value, ys, report) = compiled.run_frames(encoded, self.init.to_value())?;
        let z = decode(&z_value, "itermem final state")?;
        let ys = ys
            .iter()
            .map(|v| decode(v, "itermem output"))
            .collect::<Result<Vec<Y>, _>>()?;
        Ok(((z, ys), report))
    }
}

impl<Z, B, Y> Executable<Vec<B>> for SimLoopExecutable<Z, B, Y>
where
    Z: SimValue + Clone,
    B: SimValue,
    Y: SimValue,
{
    type Output = Result<(Z, Vec<Y>), ExecError>;

    fn run(&self, frames: Vec<B>) -> Result<(Z, Vec<Y>), ExecError> {
        if let Err(e) = &self.inner {
            return Err(e.clone());
        }
        if frames.is_empty() {
            return Ok((self.init.clone(), Vec::new()));
        }
        self.run_with_report(frames).map(|(out, _)| out)
    }
}

impl<P, Z, B, Y> Backend<IterLoop<P, Z>, Vec<B>> for SimBackend
where
    P: SimLowerBody<Z, B> + for<'x> Skeleton<&'x (Z, B), Output = (Z, Y)>,
    Z: SimValue + Clone,
    B: SimValue,
    Y: SimValue,
{
    type Output = Result<(Z, Vec<Y>), ExecError>;

    type Prepared<'p>
        = SimLoopExecutable<Z, B, Y>
    where
        Self: 'p,
        IterLoop<P, Z>: 'p;

    fn prepare<'p>(&'p self, prog: &'p IterLoop<P, Z>) -> SimLoopExecutable<Z, B, Y> {
        SimLoopExecutable::new(self.compile_loop(prog), prog.init().clone())
    }
}

/// [`SimBackend`]'s adapter into the shared backend-conformance kit
/// ([`skipper::conformance`]): every conformance case must lower,
/// schedule, simulate and agree with the sequential golden results —
/// a failure to execute *is* a conformance failure.
impl skipper::conformance::ConformanceHarness for SimBackend {
    fn name(&self) -> String {
        format!(
            "SimBackend::ring({})[{} farms]",
            self.nprocs,
            match self.farm_shape {
                FarmShape::Star => "star",
                FarmShape::Ring => "ring",
            }
        )
    }

    fn run_df(&self, prog: &skipper::conformance::DfProg, xs: &[i64]) -> i64 {
        self.run(prog, xs).expect("df case lowers and simulates")
    }

    fn run_scm(&self, prog: &skipper::conformance::ScmProg, input: &Vec<i64>) -> Vec<i64> {
        self.run(prog, input)
            .expect("scm case lowers and simulates")
    }

    fn run_tf(&self, prog: &skipper::conformance::TfProg, roots: Vec<u64>) -> u64 {
        self.run(prog, roots).expect("tf case lowers and simulates")
    }

    fn run_then(&self, prog: &skipper::conformance::ThenProg, xs: &[i64]) -> (i64, i64) {
        self.run(prog, xs).expect("then case lowers and simulates")
    }

    fn run_itermem(
        &self,
        prog: &skipper::conformance::LoopProg,
        frames: Vec<i64>,
    ) -> (i64, Vec<i64>) {
        self.run(prog, frames)
            .expect("itermem case lowers and simulates")
    }

    fn run_itermem_df(
        &self,
        prog: &skipper::conformance::LoopDfProg,
        frames: Vec<Vec<i64>>,
    ) -> (i64, Vec<i64>) {
        self.run(prog, frames)
            .expect("itermem(df) case lowers and simulates")
    }

    fn run_itermem_tf(
        &self,
        prog: &skipper::conformance::LoopTfProg,
        frames: Vec<Vec<u64>>,
    ) -> (u64, Vec<u64>) {
        self.run(prog, frames)
            .expect("itermem(tf) case lowers and simulates")
    }

    fn run_nested_loop(
        &self,
        prog: &skipper::conformance::NestedLoopProg,
        bursts: Vec<Vec<i64>>,
    ) -> (i64, Vec<Vec<i64>>) {
        self.run(prog, bursts)
            .expect("nested-loop case lowers and simulates")
    }

    fn run_itermem_then(
        &self,
        prog: &skipper::conformance::LoopThenProg,
        frames: Vec<i64>,
    ) -> (i64, Vec<i64>) {
        self.run(prog, frames)
            .expect("then-inside-loop case lowers and simulates")
    }

    fn run_df_prepared(&self, prog: &skipper::conformance::DfProg, runs: &[Vec<i64>]) -> Vec<i64> {
        let exec = Backend::<_, &[i64]>::prepare(self, prog);
        runs.iter()
            .map(|xs| exec.run(&xs[..]).expect("prepared df case simulates"))
            .collect()
    }

    fn run_scm_prepared(
        &self,
        prog: &skipper::conformance::ScmProg,
        runs: &[Vec<i64>],
    ) -> Vec<Vec<i64>> {
        let exec = Backend::<_, &Vec<i64>>::prepare(self, prog);
        runs.iter()
            .map(|xs| exec.run(xs).expect("prepared scm case simulates"))
            .collect()
    }

    fn run_tf_prepared(&self, prog: &skipper::conformance::TfProg, runs: &[Vec<u64>]) -> Vec<u64> {
        let exec = Backend::<_, Vec<u64>>::prepare(self, prog);
        runs.iter()
            .map(|roots| exec.run(roots.clone()).expect("prepared tf case simulates"))
            .collect()
    }

    fn run_then_prepared(
        &self,
        prog: &skipper::conformance::ThenProg,
        runs: &[Vec<i64>],
    ) -> Vec<(i64, i64)> {
        let exec = Backend::<_, &[i64]>::prepare(self, prog);
        runs.iter()
            .map(|xs| exec.run(&xs[..]).expect("prepared then case simulates"))
            .collect()
    }

    fn run_itermem_prepared(
        &self,
        prog: &skipper::conformance::LoopProg,
        runs: &[Vec<i64>],
    ) -> Vec<(i64, Vec<i64>)> {
        let exec = Backend::<_, Vec<i64>>::prepare(self, prog);
        runs.iter()
            .map(|frames| {
                exec.run(frames.clone())
                    .expect("prepared itermem case simulates")
            })
            .collect()
    }

    fn run_itermem_df_prepared(
        &self,
        prog: &skipper::conformance::LoopDfProg,
        runs: &[Vec<Vec<i64>>],
    ) -> Vec<(i64, Vec<i64>)> {
        let exec = Backend::<_, Vec<Vec<i64>>>::prepare(self, prog);
        runs.iter()
            .map(|frames| {
                exec.run(frames.clone())
                    .expect("prepared itermem(df) case simulates")
            })
            .collect()
    }

    fn run_itermem_tf_prepared(
        &self,
        prog: &skipper::conformance::LoopTfProg,
        runs: &[Vec<Vec<u64>>],
    ) -> Vec<(u64, Vec<u64>)> {
        let exec = Backend::<_, Vec<Vec<u64>>>::prepare(self, prog);
        runs.iter()
            .map(|frames| {
                exec.run(frames.clone())
                    .expect("prepared itermem(tf) case simulates")
            })
            .collect()
    }

    fn run_nested_loop_prepared(
        &self,
        prog: &skipper::conformance::NestedLoopProg,
        runs: &[Vec<Vec<i64>>],
    ) -> Vec<(i64, Vec<Vec<i64>>)> {
        let exec = Backend::<_, Vec<Vec<i64>>>::prepare(self, prog);
        runs.iter()
            .map(|bursts| {
                exec.run(bursts.clone())
                    .expect("prepared nested-loop case simulates")
            })
            .collect()
    }

    fn run_itermem_then_prepared(
        &self,
        prog: &skipper::conformance::LoopThenProg,
        runs: &[Vec<i64>],
    ) -> Vec<(i64, Vec<i64>)> {
        let exec = Backend::<_, Vec<i64>>::prepare(self, prog);
        runs.iter()
            .map(|frames| {
                exec.run(frames.clone())
                    .expect("prepared then-inside-loop case simulates")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper::{df, itermem, pure, scm, tf, Compose, SeqBackend};

    #[test]
    fn df_on_sim_matches_seq() {
        let farm = df(4, |x: &i64| x * x, |z: i64, y| z + y, 0i64);
        let xs: Vec<i64> = (1..=20).collect();
        for nprocs in [1usize, 3, 5] {
            let sim = SimBackend::ring(nprocs).run(&farm, &xs[..]).expect("runs");
            assert_eq!(sim, SeqBackend.run(&farm, &xs[..]), "nprocs={nprocs}");
        }
    }

    #[test]
    fn df_empty_input_returns_init_through_sim() {
        let farm = df(3, |x: &i64| *x, |z: i64, y| z + y, 41i64);
        let sim = SimBackend::ring(4).run(&farm, &[][..]).expect("runs");
        assert_eq!(sim, 41);
    }

    #[test]
    fn scm_on_sim_matches_seq() {
        // Round-robin split: always exactly n fragments.
        let prog = scm(
            3,
            |v: &Vec<i64>, n| {
                let mut out = vec![Vec::new(); n];
                for (i, &x) in v.iter().enumerate() {
                    out[i % n].push(x);
                }
                out
            },
            |chunk: Vec<i64>| chunk.iter().map(|x| x * 2).sum::<i64>(),
            |parts: Vec<i64>| parts.iter().sum::<i64>(),
        );
        let data: Vec<i64> = (0..50).collect();
        for nprocs in [1usize, 4] {
            let sim = SimBackend::ring(nprocs).run(&prog, &data).expect("runs");
            assert_eq!(sim, SeqBackend.run(&prog, &data), "nprocs={nprocs}");
        }
    }

    #[test]
    fn tf_on_sim_matches_seq() {
        let prog = tf(
            4,
            |s: u64| {
                if s > 16 {
                    (vec![s / 4; 4], None)
                } else {
                    (vec![], Some(s))
                }
            },
            |z: u64, o| z + o,
            0u64,
        );
        let roots = vec![1024u64, 256, 64];
        let sim = SimBackend::ring(5).run(&prog, roots.clone()).expect("runs");
        assert_eq!(sim, SeqBackend.run(&prog, roots));
    }

    #[test]
    fn scm_split_count_mismatch_is_an_error_not_a_panic() {
        // The doc-style chunk splitter yields fewer than n fragments for
        // short inputs (2 items, n=4 -> 2 chunks); the run must fail
        // gracefully with an ExecError, never abort.
        let prog = scm(
            4,
            |v: &Vec<i64>, n| {
                v.chunks(v.len().div_ceil(n))
                    .map(<[i64]>::to_vec)
                    .collect::<Vec<_>>()
            },
            |chunk: Vec<i64>| chunk.iter().sum::<i64>(),
            |parts: Vec<i64>| parts.iter().sum::<i64>(),
        );
        let short: Vec<i64> = vec![1, 2];
        let err = SimBackend::ring(3).run(&prog, &short).unwrap_err();
        assert!(matches!(err, ExecError::BadShape { .. }), "got {err}");
        // Too many fragments must not be silently dropped either.
        let over = scm(
            2,
            |v: &Vec<i64>, _| v.iter().map(|&x| vec![x]).collect::<Vec<_>>(),
            |chunk: Vec<i64>| chunk.iter().sum::<i64>(),
            |parts: Vec<i64>| parts.iter().sum::<i64>(),
        );
        let long: Vec<i64> = (0..5).collect();
        let err = SimBackend::ring(3).run(&over, &long).unwrap_err();
        assert!(matches!(err, ExecError::BadShape { .. }), "got {err}");
    }

    #[test]
    fn then_pipeline_runs_on_sim() {
        let prog =
            df(3, |x: &i64| x + 1, |z: i64, y| z + y, 0i64).then(pure(|total: i64| total * 10));
        let xs: Vec<i64> = (1..=5).collect();
        let sim = SimBackend::ring(4).run(&prog, &xs[..]).expect("runs");
        assert_eq!(sim, SeqBackend.run(&prog, &xs[..]));
    }

    #[test]
    fn itermem_scm_loop_threads_state_on_sim() {
        // The paper's tracking-loop shape: an scm body nested in itermem.
        let body = scm(
            2,
            |t: &(i64, i64), n| {
                (0..n as i64)
                    .map(|k| (t.0, t.1 + k))
                    .collect::<Vec<(i64, i64)>>()
            },
            |(z, b): (i64, i64)| z + b,
            |parts: Vec<i64>| {
                let s: i64 = parts.iter().sum();
                (s, s * 2)
            },
        );
        let prog = itermem(body, 7i64);
        let frames = vec![1i64, 2, 3, 4];
        for nprocs in [1usize, 3] {
            let sim = SimBackend::ring(nprocs)
                .run(&prog, frames.clone())
                .expect("runs");
            assert_eq!(
                sim,
                SeqBackend.run(&prog, frames.clone()),
                "nprocs={nprocs}"
            );
        }
    }

    #[test]
    fn sim_backend_passes_the_conformance_kit() {
        for nprocs in [1usize, 4] {
            skipper::conformance::assert_backend_conforms(&SimBackend::ring(nprocs));
        }
    }

    #[test]
    fn cost_hint_changes_the_sim_schedule() {
        let cheap = df(4, |x: &i64| *x, |z: i64, y| z + y, 0i64);
        let costly = cheap.clone().with_cost_hint(5_000_000);
        let backend = SimBackend::ring(3);
        let plan_cheap = backend.plan::<&[i64], _>(&cheap).expect("cheap plan");
        let plan_costly = backend.plan::<&[i64], _>(&costly).expect("costly plan");
        assert!(
            plan_costly.makespan_ns > plan_cheap.makespan_ns,
            "a per-call cost hint must lengthen the predicted schedule: \
             {} ns (hinted) vs {} ns (unhinted)",
            plan_costly.makespan_ns,
            plan_cheap.makespan_ns
        );
        // The hint is advisory for results: the simulated run still agrees
        // with the declarative semantics.
        let xs: Vec<i64> = (1..=12).collect();
        assert_eq!(
            backend.run(&costly, &xs[..]).expect("costly farm runs"),
            SeqBackend.run(&costly, &xs[..])
        );
    }

    #[test]
    fn itermem_empty_stream_returns_init() {
        let body = scm(
            2,
            |t: &(i64, i64), n| vec![t.0 + t.1; n],
            |x: i64| x,
            |parts: Vec<i64>| (parts[0], parts[1]),
        );
        let prog = itermem(body, 9i64);
        let sim = SimBackend::ring(3).run(&prog, Vec::new()).expect("runs");
        assert_eq!(sim, (9, Vec::new()));
    }

    #[test]
    fn itermem_df_loop_threads_state_on_sim() {
        // A farm as the loop body: the carried state seeds the master's
        // accumulator each frame (the seeded-master protocol).
        let prog = itermem(df(3, |x: &i64| x * x, |z: i64, y| z + y, 0i64), 5i64);
        let frames: Vec<Vec<i64>> = vec![vec![1, 2, 3], Vec::new(), vec![4], vec![5, 6]];
        for nprocs in [1usize, 2, 4] {
            for shape in [FarmShape::Star, FarmShape::Ring] {
                let backend = SimBackend::ring(nprocs).with_farm_shape(shape);
                let sim = backend.run(&prog, frames.clone()).expect("runs");
                assert_eq!(
                    sim,
                    SeqBackend.run(&prog, frames.clone()),
                    "nprocs={nprocs} shape={shape:?}"
                );
            }
        }
    }

    #[test]
    fn itermem_tf_loop_on_sim_matches_seq() {
        let body = tf(
            2,
            |s: u64| {
                if s > 8 {
                    (vec![s / 2, s / 3], Some(s))
                } else {
                    (vec![], Some(s))
                }
            },
            |z: u64, o| z.wrapping_add(o),
            0u64,
        );
        let prog = itermem(body, 3u64);
        let frames: Vec<Vec<u64>> = vec![vec![40, 9], Vec::new(), vec![100]];
        let sim = SimBackend::ring(3)
            .run(&prog, frames.clone())
            .expect("runs");
        assert_eq!(sim, SeqBackend.run(&prog, frames));
    }

    #[test]
    fn nested_loop_lowers_and_matches_seq() {
        // itermem(itermem(scm)) — the inner loop is elaborated as one
        // sequential composite node.
        let body = scm(
            2,
            |t: &(i64, i64), n| (0..n as i64).map(|k| (t.0 + k, t.1)).collect::<Vec<_>>(),
            |(a, b): (i64, i64)| a * 2 + b,
            |parts: Vec<i64>| {
                let s: i64 = parts.iter().sum();
                (s, s - 1)
            },
        );
        let prog = itermem(itermem(body, 0i64), 11i64);
        let bursts: Vec<Vec<i64>> = vec![vec![1, -2], Vec::new(), vec![3]];
        let sim = SimBackend::ring(3)
            .run(&prog, bursts.clone())
            .expect("runs");
        assert_eq!(sim, SeqBackend.run(&prog, bursts));
    }

    #[test]
    fn then_headed_by_df_inside_loop_lowers() {
        // df.then(pure) as a loop body: the farm's (state', output) pair
        // flows through the lifted post-processing stage.
        let body = df(2, |x: &i64| x + 1, |z: i64, y| z + y, 0i64)
            .then(pure(|t: (i64, i64)| (t.0, t.1 * 10)));
        let prog = itermem(body, 4i64);
        let frames: Vec<Vec<i64>> = vec![vec![1, 2], vec![3]];
        let sim = SimBackend::ring(3)
            .run(&prog, frames.clone())
            .expect("runs");
        assert_eq!(sim, SeqBackend.run(&prog, frames));
    }

    #[test]
    fn ring_farm_shape_passes_the_conformance_kit() {
        // The Fig. 1 explicit-router PNT must satisfy the same contract
        // as the star expansion. Only the degenerate 1-worker-proc chain
        // is swept here; the canonical full instantiation (ring(2) and
        // ring(4), both shapes) lives in tests/conformance.rs.
        skipper::conformance::assert_backend_conforms(
            &SimBackend::ring(2).with_farm_shape(FarmShape::Ring),
        );
    }

    #[test]
    fn ring_farm_lowering_pins_routers_with_their_workers() {
        let farm = df(3, |x: &i64| *x, |z: i64, y| z + y, 0i64);
        let backend = SimBackend::ring(4).with_farm_shape(FarmShape::Ring);
        let plan = backend.plan::<&[i64], _>(&farm).expect("plans");
        let lowered = lower_one_shot::<&[i64], _>(&farm, FarmShape::Ring).expect("lowers");
        assert_eq!(
            lowered.colocated.len(),
            6,
            "one M->W and one W->M per worker"
        );
        for &(router, worker) in &lowered.colocated {
            assert_eq!(
                plan.proc_of(router),
                plan.proc_of(worker),
                "router {router} must sit on its worker's processor"
            );
        }
    }

    #[test]
    fn ring_zero_is_a_lowering_error() {
        let backend = SimBackend::ring(0);
        let farm = df(2, |x: &i64| *x, |z: i64, y| z + y, 0i64);
        let err = backend.run(&farm, &[1i64, 2][..]).unwrap_err();
        assert!(matches!(err, ExecError::EmptyMachine), "got {err:?}");
        assert_eq!(
            err.to_string(),
            "cannot lower onto a machine with no processors (SimBackend::ring(0))"
        );
        let err = backend.plan::<&[i64], _>(&farm).unwrap_err();
        assert!(matches!(err, ExecError::EmptyMachine));
        // Loops too — even the empty-stream shortcut must not mask it.
        let prog = itermem(df(2, |x: &i64| *x, |z: i64, y| z + y, 0i64), 0i64);
        let err = backend.run(&prog, Vec::<Vec<i64>>::new()).unwrap_err();
        assert!(matches!(err, ExecError::EmptyMachine));
    }

    #[test]
    fn bare_pure_loop_body_fails_lowering_with_a_dedicated_error() {
        // The ROADMAP gap, closed: a bare pure(...) loop body now types
        // as a SimBackend program but fails lowering with a dedicated,
        // message-pinned error instead of an opaque trait-bound failure.
        let prog = itermem(pure(|t: &(i64, i64)| (t.0 + t.1, t.0)), 0i64);
        let err = SimBackend::ring(3).run(&prog, vec![1i64, 2]).unwrap_err();
        assert!(matches!(err, ExecError::PureLoopBody), "got {err:?}");
        assert_eq!(
            err.to_string(),
            "a bare pure(...) loop body cannot be lowered: its by-reference \
             (state, frame) input has no executive encoding — wrap it in an \
             scm/df/tf skeleton head"
        );
        // The prepared path defers the same error to every run.
        let exec = Backend::<_, Vec<i64>>::prepare(&SimBackend::ring(3), &prog);
        let err = exec.run(vec![1i64]).unwrap_err();
        assert!(matches!(err, ExecError::PureLoopBody));
        let err = exec.statics().unwrap_err();
        assert!(matches!(err, ExecError::PureLoopBody));
        // An empty stream is still short-circuited before lowering is
        // consulted on `run` — but the prepared error wins.
        let err = exec.run(Vec::<i64>::new()).unwrap_err();
        assert!(matches!(err, ExecError::PureLoopBody));
    }

    #[test]
    fn cost_model_changes_the_sim_schedule_and_virtual_time() {
        // An argument-dependent cost model must reach the SynDEx
        // scheduler (as the model evaluated at unit size) ...
        let flat = df(
            4,
            |v: &Vec<i64>| v.iter().sum::<i64>(),
            |z: i64, y| z + y,
            0i64,
        );
        let modelled = flat.clone().with_cost_model(|size| size as u64 * 400_000);
        let backend = SimBackend::ring(3);
        let plan_flat = backend.plan::<&[Vec<i64>], _>(&flat).expect("flat plan");
        let plan_modelled = backend
            .plan::<&[Vec<i64>], _>(&modelled)
            .expect("modelled plan");
        assert!(
            plan_modelled.makespan_ns > plan_flat.makespan_ns,
            "a cost model must lengthen the predicted schedule: \
             {} ns (modelled) vs {} ns (flat)",
            plan_modelled.makespan_ns,
            plan_flat.makespan_ns
        );
        // ... and the executive's virtual clock, where it is evaluated on
        // each actual argument's size: bigger items take longer simulated
        // time under the same schedule.
        let small: Vec<Vec<i64>> = vec![vec![1; 2]; 6];
        let large: Vec<Vec<i64>> = vec![vec![1; 40]; 6];
        let t_small = backend
            .run_loop_with_report(&itermem(modelled.clone(), 0i64), vec![small.clone()])
            .expect("small frames simulate")
            .1
            .mean_latency_ns();
        let t_large = backend
            .run_loop_with_report(&itermem(modelled.clone(), 0i64), vec![large.clone()])
            .expect("large frames simulate")
            .1
            .mean_latency_ns();
        assert!(
            t_large > t_small,
            "virtual time must follow argument size: {t_large} ns (40-elem items) \
             vs {t_small} ns (2-elem items)"
        );
        // The model is advisory for results: simulated output still
        // agrees with the declarative semantics.
        assert_eq!(
            backend
                .run(&modelled, &large[..])
                .expect("modelled farm runs"),
            SeqBackend.run(&modelled, &large[..])
        );
        // Round-trip of the builder.
        assert!(flat.cost_model().is_none());
        assert_eq!(modelled.cost_model().map(|m| m(3)), Some(1_200_000));
    }

    #[test]
    fn prepared_executable_reuses_one_schedule_across_runs() {
        let farm = df(3, |x: &i64| x * 2 + 1, |z: i64, y| z + y, 4i64);
        let backend = SimBackend::ring(4);
        let exec = Backend::<_, &[i64]>::prepare(&backend, &farm);
        let plan = backend.plan::<&[i64], _>(&farm).expect("plans");
        // The executable's schedule is the plan, computed once at prepare
        // time; runs of different inputs share it.
        assert_eq!(
            exec.statics().expect("prepared").schedule().makespan_ns,
            plan.makespan_ns
        );
        for len in [0i64, 1, 7, 20] {
            let xs: Vec<i64> = (0..len).collect();
            assert_eq!(
                exec.run(&xs[..]).expect("prepared farm runs"),
                SeqBackend.run(&farm, &xs[..]),
                "len={len}"
            );
        }
        assert_eq!(
            exec.statics().expect("prepared").schedule().makespan_ns,
            plan.makespan_ns
        );
    }

    #[test]
    fn prepared_loop_executable_reuses_state_machinery_between_streams() {
        let prog = itermem(df(2, |x: &i64| x * x, |z: i64, y| z + y, 0i64), 5i64);
        let backend = SimBackend::ring(3).with_farm_shape(FarmShape::Ring);
        let exec = Backend::<_, Vec<Vec<i64>>>::prepare(&backend, &prog);
        let streams: Vec<Vec<Vec<i64>>> = vec![
            vec![vec![1, 2, 3], Vec::new(), vec![4]],
            Vec::new(),
            vec![vec![9]],
            vec![vec![1, 2, 3], Vec::new(), vec![4]], // repeat: no state leak
        ];
        for frames in streams {
            assert_eq!(
                exec.run(frames.clone()).expect("prepared loop runs"),
                SeqBackend.run(&prog, frames.clone()),
                "frames={frames:?}"
            );
        }
        // The report face works on the prepared form too.
        let ((z, ys), report) = exec
            .run_with_report(vec![vec![1i64, 2], vec![3]])
            .expect("reportable run");
        assert_eq!((z, ys), SeqBackend.run(&prog, vec![vec![1i64, 2], vec![3]]));
        assert_eq!(report.latencies_ns.len(), 2);
    }

    #[test]
    fn ring_shape_lengthens_the_plan_over_star() {
        // Application-level relaying puts router processes on the
        // schedule: the ring plan cannot be shorter than the star plan
        // for the same costed farm.
        let farm = df(3, |x: &i64| *x, |z: i64, y| z + y, 0i64).with_cost_hint(100_000);
        let star = SimBackend::ring(4)
            .plan::<&[i64], _>(&farm)
            .expect("star plan");
        let ring = SimBackend::ring(4)
            .with_farm_shape(FarmShape::Ring)
            .plan::<&[i64], _>(&farm)
            .expect("ring plan");
        assert!(
            ring.makespan_ns >= star.makespan_ns,
            "ring {} vs star {}",
            ring.makespan_ns,
            star.makespan_ns
        );
    }
}
