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
//! // The SynDEx schedule every run follows: one node order per processor.
//! let schedule = exec.statics().expect("prepared").schedule();
//! assert_eq!(schedule.proc_order.len(), 4);
//! ```
//!
//! # One lowering
//!
//! As in SKiPPER, each skeleton is expanded exactly once into its process
//! network template. Every lowerable program implements [`SimLower`],
//! whose one method returns a [`SimPlan`]: a farm (`df` or `tf`),
//! split/compute/merge, a single node, `then`, or a stage that carries
//! its input around an inner plan (the DSL body's environment). One
//! private expander turns any plan into PNT nodes, and one private
//! compile routine places, schedules and code-generates one-shot programs
//! and `itermem` loops alike.
//!
//! Notes on the lowering (all consistent with the paper's side conditions):
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
//!   data-dependent — and a bare [`Pure`] body are each one node,
//!   elaborated sequentially on their host processor, like a `tf`
//!   subtree;
//! - a program's `with_cost_hint` declaration (e.g.
//!   [`skipper::Df::with_cost_hint`]) is plumbed through the lowering:
//!   stamped onto the lowered worker nodes as WCET hints for the SynDEx
//!   scheduler (inspectable via [`SimExecutable::statics`]) and
//!   registered as the function's per-call cost model
//!   ([`Registry::register_with_cost`]) for the executive's virtual
//!   clock. An **argument-dependent** `with_cost_model` declaration
//!   (e.g. [`skipper::Df::with_cost_model`]) goes further: the executive
//!   evaluates the model on each actual argument's [`Value::size`], and
//!   `model(1)` serves as the static WCET hint for the scheduler.

use crate::executive::{run_prepared, ExecConfig, ExecError, ExecReport, SimStatics};
use crate::registry::{NativeFn, Registry};
use crate::sim_value::SimValue;
use crate::value::Value;
use skipper::{Backend, CostModel, Df, Executable, IterLoop, Pure, Scm, Skeleton, Tf, Then};
use skipper_net::dtype::DataType;
use skipper_net::graph::{NodeId, NodeKind, ProcessNetwork};
use skipper_net::pnt::{expand_df, expand_itermem, expand_scm, DfTypes, IterMemTypes, ScmTypes};
use skipper_net::FarmShape;
use skipper_syndex::schedule::{schedule_with, Strategy};
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

fn named(t: &str) -> DataType {
    DataType::named(t)
}

/// A program's declared per-call cost: a constant WCET hint (0: none)
/// and an optional argument-dependent model, which wins over the hint.
#[derive(Clone, Copy, Default)]
struct Cost {
    hint: u64,
    model: Option<CostModel>,
}

impl Cost {
    fn new(hint: u64, model: Option<CostModel>) -> Cost {
        Cost { hint, model }
    }
}

/// The two farms of the repertoire, which share Fig. 1's template.
#[derive(Clone, Copy)]
enum FarmKind {
    /// `df`: workers map items to results.
    Data,
    /// `tf`: workers elaborate a root task's subtree into a result list.
    Task,
}

/// The process-network structure of a lowered program, with its
/// sequential functions bound: what [`SimLower::lower`] returns and the
/// backend's expander turns into PNT nodes. Node ids, function names
/// (`p{k}_{role}`) and edges are assigned at expansion, in plan order.
pub struct SimPlan(Form);

enum Form {
    /// Fig. 1's master and `workers` workers: `compute` on every worker,
    /// `acc` on the master, seeded by `init` (or, for an `(state, items)`
    /// input, by the state).
    Farm {
        kind: FarmKind,
        workers: usize,
        compute: NativeFn,
        acc: NativeFn,
        init: Value,
        cost: Cost,
    },
    /// Split, `workers` compute nodes, merge.
    Scm {
        workers: usize,
        split: NativeFn,
        compute: NativeFn,
        merge: NativeFn,
        cost: Cost,
    },
    /// One process running `f`.
    Node {
        role: String,
        f: NativeFn,
        cost: Cost,
    },
    /// `first`'s exit feeds `second`'s entry over a `link`-typed edge.
    Then {
        first: Box<Form>,
        second: Box<Form>,
        link: &'static str,
    },
    /// `before`, then `feed → inner → store`, with `before`'s output also
    /// fanned around `inner` to the store's port 1 (see
    /// [`SimPlan::around`]).
    Around {
        before: Box<Form>,
        feed: Box<Form>,
        into: &'static str,
        inner: Box<Form>,
        out: &'static str,
        store: Box<Form>,
    },
}

impl SimPlan {
    /// One process running `f`, registered under a fresh `p{k}_{role}`
    /// name with a constant per-call `cost_hint` for the executive's
    /// clock (0: none).
    pub fn node(
        role: impl Into<String>,
        cost_hint: u64,
        f: impl Fn(&[Value]) -> Vec<Value> + Send + Sync + 'static,
    ) -> SimPlan {
        SimPlan(Form::Node {
            role: role.into(),
            f: Arc::new(f),
            cost: Cost::new(cost_hint, None),
        })
    }

    /// `self`, then `next` on its output over a `link`-typed edge.
    #[must_use]
    pub fn then(self, next: SimPlan, link: &'static str) -> SimPlan {
        SimPlan(Form::Then {
            first: Box::new(self.0),
            second: Box::new(next.0),
            link,
        })
    }

    /// `self`, then a stage that carries its output around `inner`:
    /// `feed` (a node reading `self`'s output over an `env` edge) computes
    /// `inner`'s input, sent over an `into` edge; `store` receives
    /// `inner`'s output on port 0 (an `out` edge) and `self`'s output
    /// again on port 1 (an `env` edge).
    #[must_use]
    pub fn around(
        self,
        feed: SimPlan,
        into: &'static str,
        inner: SimPlan,
        out: &'static str,
        store: SimPlan,
    ) -> SimPlan {
        SimPlan(Form::Around {
            before: Box::new(self.0),
            feed: Box::new(feed.0),
            into,
            inner: Box::new(inner.0),
            out,
            store: Box::new(store.0),
        })
    }
}

/// A program shape [`SimBackend`] knows how to lower into a process
/// network: [`Df`], [`Scm`], [`Tf`], [`Pure`] and [`Then`] pipelines of
/// them as one-shot programs, and the same shapes (plus a nested
/// [`IterLoop`]) over an `itermem` body's `(state, frame)` tuple.
pub trait SimLower<I>: Skeleton<I> {
    /// This program's process-network structure.
    fn lower(&self) -> SimPlan;
}

/// A data farm over an item slice. The loop-body lowering below shares
/// its nodes and functions: the master's accumulator seeding is decided
/// at run time by the input's shape (an item list or a `(state, items)`
/// tuple).
impl<I, O, C, A, Z> SimLower<&[I]> for Df<C, A, Z>
where
    C: Fn(&I) -> O + Clone + Send + Sync + 'static,
    A: Fn(Z, O) -> Z + Clone + Send + Sync + 'static,
    I: SimValue + Sync,
    O: SimValue + Send,
    Z: SimValue + Clone,
{
    fn lower(&self) -> SimPlan {
        let comp = self.compute_fn().clone();
        let acc = self.acc_fn().clone();
        SimPlan(Form::Farm {
            kind: FarmKind::Data,
            workers: self.workers(),
            compute: Arc::new(move |args: &[Value]| {
                let item = I::from_value(&args[0]).expect("df item decodes");
                vec![comp(&item).to_value()]
            }),
            acc: Arc::new(move |args: &[Value]| {
                let z = Z::from_value(&args[0]).expect("df accumulator decodes");
                let o = O::from_value(&args[1]).expect("df result decodes");
                vec![acc(z, o).to_value()]
            }),
            init: self.init().to_value(),
            cost: Cost::new(self.cost_hint(), self.cost_model()),
        })
    }
}

/// A task farm over owned root tasks (shared with the loop-body
/// lowering, as the data farm's is).
impl<T, O, W, A, Z> SimLower<Vec<T>> for Tf<W, A, Z>
where
    W: Fn(T) -> (Vec<T>, Option<O>) + Clone + Send + Sync + 'static,
    A: Fn(Z, O) -> Z + Clone + Send + Sync + 'static,
    T: SimValue + Send,
    O: SimValue + Send,
    Z: SimValue + Clone,
{
    fn lower(&self) -> SimPlan {
        let worker = self.worker_fn().clone();
        let acc = self.acc_fn().clone();
        SimPlan(Form::Farm {
            kind: FarmKind::Task,
            workers: self.workers(),
            compute: Arc::new(move |args: &[Value]| {
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
            }),
            acc: Arc::new(move |args: &[Value]| {
                let z = Z::from_value(&args[0]).expect("tf accumulator decodes");
                let folded = args[1]
                    .as_list()
                    .expect("tf subtree results arrive as a list")
                    .iter()
                    .map(|v| O::from_value(v).expect("tf result decodes"))
                    .fold(z, &acc);
                vec![folded.to_value()]
            }),
            init: self.init().to_value(),
            cost: Cost::new(self.cost_hint(), self.cost_model()),
        })
    }
}

/// A farm as an `itermem` body: the master's output `z'` becomes the
/// `(state', output)` pair the Fig. 4 `unpair` contract expects (both
/// components are the updated accumulator — see the matching
/// `Skeleton<&(Z, Vec<_>)>` impls in `skipper`).
fn state_paired(farm: SimPlan) -> SimPlan {
    let pair = SimPlan::node("state_pair", 0, |args| {
        vec![Value::tuple(vec![args[0].clone(), args[0].clone()])]
    });
    farm.then(pair, "state")
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
    fn lower(&self) -> SimPlan {
        state_paired(SimLower::<&[I]>::lower(self))
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
    fn lower(&self) -> SimPlan {
        let n = self.workers();
        let split = self.split_fn().clone();
        let compute = self.compute_fn().clone();
        let merge = self.merge_fn().clone();
        SimPlan(Form::Scm {
            workers: n,
            split: Arc::new(move |args: &[Value]| {
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
            }),
            compute: Arc::new(move |args: &[Value]| {
                let f = F::from_value(&args[0]).expect("scm fragment decodes");
                vec![compute(f).to_value()]
            }),
            merge: Arc::new(move |args: &[Value]| {
                let parts: Vec<P> = args[0]
                    .as_list()
                    .expect("scm partials arrive as a list")
                    .iter()
                    .map(|v| P::from_value(v).expect("scm partial decodes"))
                    .collect();
                vec![merge(parts).to_value()]
            }),
            cost: Cost::new(self.cost_hint(), self.cost_model()),
        })
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
    fn lower(&self) -> SimPlan {
        state_paired(SimLower::<Vec<T>>::lower(self))
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
    fn lower(&self) -> SimPlan {
        let inner = self.clone();
        SimPlan::node("inner_loop", 0, move |args| {
            let pair = <(Z, Vec<B>)>::from_value(&args[0]).expect("inner loop input decodes");
            vec![inner.run_declarative(&pair).to_value()]
        })
    }
}

impl<In, Out, F> SimLower<In> for Pure<F>
where
    F: Fn(In) -> Out + Clone + Send + Sync + 'static,
    In: SimValue,
    Out: SimValue,
{
    fn lower(&self) -> SimPlan {
        let f = self.get().clone();
        SimPlan::node("fn", 0, move |args| {
            let x = In::from_value(&args[0]).expect("function input decodes");
            vec![f(x).to_value()]
        })
    }
}

/// A function over a loop body's by-reference `(state, frame)` tuple:
/// one node that decodes the pair and calls the function on a borrow of
/// it, as the nested-loop lowering does.
impl<Z, B, Out, F> SimLower<&(Z, B)> for Pure<F>
where
    F: for<'x> Fn(&'x (Z, B)) -> Out + Clone + Send + Sync + 'static,
    Z: SimValue,
    B: SimValue,
    Out: SimValue,
{
    fn lower(&self) -> SimPlan {
        let f = self.get().clone();
        SimPlan::node("fn", 0, move |args| {
            let pair = <(Z, B)>::from_value(&args[0]).expect("function input decodes");
            vec![f(&pair).to_value()]
        })
    }
}

impl<In, A, B> SimLower<In> for Then<A, B>
where
    A: SimLower<In>,
    B: SimLower<<A as Skeleton<In>>::Output>,
{
    fn lower(&self) -> SimPlan {
        self.first().lower().then(self.second().lower(), "link")
    }
}

/// Dataflow endpoints of an expanded plan: its input arrives on `entry`
/// port 0, its output leaves `exit` port 0.
#[derive(Debug, Clone, Copy)]
struct Ends {
    entry: NodeId,
    exit: NodeId,
}

/// Turns plans into process-network nodes, registering every node's
/// function, and collects what placement needs.
struct Expander {
    net: ProcessNetwork,
    reg: Registry,
    farm_init: HashMap<usize, Value>,
    /// Worker nodes, pinned round-robin on `P1..`.
    workers: Vec<NodeId>,
    /// `(router, worker)` co-location pairs: each ring router must be
    /// mapped onto its worker's processor (Fig. 1 places one `M->W`/`W->M`
    /// pair per worker processor).
    colocated: Vec<(NodeId, NodeId)>,
    shape: FarmShape,
    counter: usize,
}

impl Expander {
    fn new(name: &str, shape: FarmShape) -> Self {
        Expander {
            net: ProcessNetwork::new(name),
            reg: Registry::new(),
            farm_init: HashMap::new(),
            workers: Vec::new(),
            colocated: Vec::new(),
            shape,
            counter: 0,
        }
    }

    /// A registry/function name unique within this lowering.
    fn fresh(&mut self, role: &str) -> String {
        let id = self.counter;
        self.counter += 1;
        format!("p{id}_{role}")
    }

    fn edge(&mut self, from: NodeId, to: NodeId, port: usize, ty: &str) -> Result<(), ExecError> {
        self.net
            .add_data_edge(from, 0, to, port, named(ty))
            .map_err(internal)
    }

    /// Registers `f` under `name`, carrying the program's declared cost
    /// into the executive's cost model: an argument-dependent model is
    /// evaluated on the first actual argument's [`Value::size`] at every
    /// call, and wins over a constant hint.
    fn bind(&mut self, name: &str, f: NativeFn, cost: Cost) {
        let call = move |args: &[Value]| f(args);
        if let Some(model) = cost.model {
            self.reg.register_with_cost(name, call, move |args| {
                model(args.first().map(Value::size).unwrap_or(0))
            });
        } else if cost.hint > 0 {
            let hint = cost.hint;
            self.reg.register_with_cost(name, call, move |_| hint);
        } else {
            self.reg.register(name, call);
        }
    }

    /// Stamps the declared per-call cost onto the compute nodes, so the
    /// SynDEx scheduler sees real WCET hints instead of zero-cost
    /// placeholders. With an argument-dependent model, the static hint is
    /// the model evaluated at size 1 (or the constant hint when that is
    /// larger): the scheduler has no actual arguments to measure, so a
    /// nominal unit-size argument stands in.
    fn hint(&mut self, nodes: &[NodeId], cost: Cost) {
        let effective = cost.model.map(|m| m(1)).unwrap_or(0).max(cost.hint);
        if effective > 0 {
            for &node in nodes {
                self.net.set_cost_hint(node, effective);
            }
        }
    }

    fn expand(&mut self, form: Form) -> Result<Ends, ExecError> {
        match form {
            Form::Farm {
                kind,
                workers,
                compute,
                acc,
                init,
                cost,
            } => {
                let (comp_role, acc_role, item, result) = match kind {
                    FarmKind::Data => ("df_comp", "df_acc", named("item"), named("result")),
                    FarmKind::Task => (
                        "tf_worker",
                        "tf_acc",
                        named("task"),
                        DataType::list(named("result")),
                    ),
                };
                let comp_name = self.fresh(comp_role);
                let acc_name = self.fresh(acc_role);
                let types = DfTypes {
                    item,
                    result,
                    acc: named("acc"),
                };
                let h = expand_df(
                    &mut self.net,
                    workers,
                    &comp_name,
                    &acc_name,
                    types,
                    self.shape,
                );
                self.bind(&comp_name, compute, cost);
                self.bind(&acc_name, acc, Cost::default());
                self.farm_init.insert(h.instance, init);
                self.hint(&h.workers, cost);
                self.workers.extend(&h.workers);
                for routers in [&h.routers_mw, &h.routers_wm] {
                    for (&router, &worker) in routers.iter().zip(&h.workers) {
                        self.colocated.push((router, worker));
                    }
                }
                Ok(Ends {
                    entry: h.master,
                    exit: h.master,
                })
            }
            Form::Scm {
                workers,
                split,
                compute,
                merge,
                cost,
            } => {
                let split_name = self.fresh("scm_split");
                let comp_name = self.fresh("scm_comp");
                let merge_name = self.fresh("scm_merge");
                let types = ScmTypes {
                    input: named("input"),
                    fragment: named("fragment"),
                    partial: named("partial"),
                    output: named("output"),
                };
                let h = expand_scm(
                    &mut self.net,
                    workers,
                    &split_name,
                    &comp_name,
                    &merge_name,
                    types,
                );
                self.bind(&split_name, split, Cost::default());
                self.bind(&comp_name, compute, cost);
                self.bind(&merge_name, merge, Cost::default());
                self.hint(&h.workers, cost);
                self.workers.extend(&h.workers);
                Ok(Ends {
                    entry: h.split,
                    exit: h.merge,
                })
            }
            Form::Node { role, f, cost } => {
                let name = self.fresh(&role);
                let node = self
                    .net
                    .add_node(NodeKind::UserFn(name.clone()), name.clone());
                self.bind(&name, f, cost);
                Ok(Ends {
                    entry: node,
                    exit: node,
                })
            }
            Form::Then {
                first,
                second,
                link,
            } => {
                let a = self.expand(*first)?;
                let b = self.expand(*second)?;
                self.edge(a.exit, b.entry, 0, link)?;
                Ok(Ends {
                    entry: a.entry,
                    exit: b.exit,
                })
            }
            Form::Around {
                before,
                feed,
                into,
                inner,
                out,
                store,
            } => {
                let env = self.expand(*before)?;
                let feed = self.expand(*feed)?;
                self.edge(env.exit, feed.entry, 0, "env")?;
                let inner = self.expand(*inner)?;
                self.edge(feed.exit, inner.entry, 0, into)?;
                let store = self.expand(*store)?;
                self.edge(inner.exit, store.entry, 0, out)?;
                self.edge(env.exit, store.entry, 1, "env")?;
                Ok(Ends {
                    entry: env.entry,
                    exit: store.exit,
                })
            }
        }
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
    ($([$($g:ident),*] $t:ty),* $(,)?) => {$(
        impl<$($g: SimValue),*> SimInput for $t {
            type Shape = $t;

            fn encode_input(&self) -> Value {
                self.to_value()
            }
        }
    )*};
}

impl_owned_sim_input!(
    [] (), [] bool, [] f64, [] String, [] i8, [] i16, [] i32, [] i64, [] u8, [] u16, [] u32,
    [] u64, [] usize, [] isize, [A, B] (A, B), [A, B, C] (A, B, C), [A, B, C, D] (A, B, C, D),
    [T] Option<T>,
);

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
            farm_shape: FarmShape::Star,
        }
    }

    /// A backend simulating a single processor (the machine-side
    /// equivalent of sequential emulation).
    pub fn single() -> Self {
        SimBackend::ring(1)
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

    /// The paper's placement policy: control nodes pinned to `P0`, worker
    /// nodes round-robin on `P1..` (everything on `P0` when simulating a
    /// single processor), and ring routers co-located with their workers.
    fn placement(&self, x: &Expander) -> (Architecture, HashMap<NodeId, ProcId>, Strategy) {
        if self.nprocs == 1 {
            (
                Architecture::single_t9000(),
                HashMap::new(),
                Strategy::SingleProc,
            )
        } else {
            let arch = Architecture::ring_t9000(self.nprocs);
            let worker_set: HashSet<NodeId> = x.workers.iter().copied().collect();
            let mut pins = HashMap::new();
            for node in x.net.nodes() {
                if !worker_set.contains(&node.id) {
                    pins.insert(node.id, ProcId(0));
                }
            }
            for (i, &w) in x.workers.iter().enumerate() {
                pins.insert(w, ProcId(1 + i % (self.nprocs - 1)));
            }
            for &(node, with) in &x.colocated {
                let p = pins.get(&with).copied().unwrap_or(ProcId(0));
                pins.insert(node, p);
            }
            (arch, pins, Strategy::MinFinish)
        }
    }

    /// The offline pipeline, once per prepared program: expand `plan`,
    /// let `wire` add the harness around its endpoints (binding the
    /// harness functions against the slots it returns), then place,
    /// schedule with SynDEx and generate macro-code.
    fn compile<S>(
        &self,
        net_name: &str,
        plan: SimPlan,
        wire: impl FnOnce(&mut Expander, Ends) -> Result<S, ExecError>,
    ) -> Result<Compiled<S>, ExecError> {
        if self.nprocs == 0 {
            return Err(ExecError::EmptyMachine);
        }
        LOWERINGS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut x = Expander::new(net_name, self.farm_shape);
        let ends = x.expand(plan.0)?;
        let slots = wire(&mut x, ends)?;
        let (arch, pins, strategy) = self.placement(&x);
        let sched = schedule_with(&x.net, &arch, &pins, strategy)
            .map_err(|e| ExecError::Sim(format!("scheduling failed: {e}")))?;
        let progs = skipper_syndex::macrocode::generate(&x.net, &sched, &arch);
        let stat = SimStatics::analyze(
            x.net,
            sched,
            progs,
            arch.topology().clone(),
            Arc::new(x.reg),
            &x.farm_init,
        )?;
        Ok(Compiled {
            stat: Arc::new(stat),
            slots,
            run_lock: Mutex::new(()),
        })
    }
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

/// A program compiled for repeated simulation: the full run-invariant
/// context ([`SimStatics`]: network, registry, schedule, macro-code,
/// topology, farm tables) behind one `Arc`, plus the rebindable `slots`
/// its harness functions were bound against at compile time. A run
/// fills the slots, re-interprets the cached macro-code with fresh
/// simulator state and empties them — zero registry clones, zero
/// network/schedule/macro-code copies per frame (the zero-copy run
/// contract, pinned by the `registry_probe` test).
struct Compiled<S> {
    stat: Arc<SimStatics>,
    slots: S,
    /// Runs share the slots, so concurrent `run` calls on one executable
    /// are serialised (the contract stays `&self`).
    run_lock: Mutex<()>,
}

/// The slots of a one-shot program's `Input`/`Output` endpoints.
struct OneShotSlots {
    /// The frame read by the `simbackend_input` endpoint.
    input: Arc<Mutex<Option<Value>>>,
    /// The result written by the `simbackend_output` endpoint.
    output: Arc<Mutex<Option<Value>>>,
}

impl OneShotSlots {
    /// Wires `Input`/`Output` endpoints around the program.
    fn wire(x: &mut Expander, ends: Ends) -> Result<Self, ExecError> {
        let inp = x
            .net
            .add_node(NodeKind::Input("simbackend_input".into()), "input");
        let out = x
            .net
            .add_node(NodeKind::Output("simbackend_output".into()), "output");
        x.edge(inp, ends.entry, 0, "input")?;
        x.edge(ends.exit, out, 0, "output")?;
        let slots = OneShotSlots {
            input: Arc::new(Mutex::new(None)),
            output: Arc::new(Mutex::new(None)),
        };
        let slot = Arc::clone(&slots.input);
        x.reg.register("simbackend_input", move |_| {
            vec![slot
                .lock()
                .expect("input slot")
                .clone()
                .expect("input bound before run")]
        });
        let slot = Arc::clone(&slots.output);
        x.reg.register("simbackend_output", move |args| {
            *slot.lock().expect("output slot") = Some(args[0].clone());
            vec![]
        });
        Ok(slots)
    }
}

impl Compiled<OneShotSlots> {
    /// One online run: rebind the input slot, interpret the cached
    /// macro-code for a single graph iteration, take the output slot.
    fn run_value(&self, encoded: Value) -> Result<(Value, ExecReport), ExecError> {
        let _guard = self.run_lock.lock().expect("run lock");
        *self.slots.input.lock().expect("input slot") = Some(encoded);
        self.slots.output.lock().expect("output slot").take();
        let config = ExecConfig {
            iterations: 1,
            frame_clock: None,
            sim: SimConfig::default(),
        };
        let run = run_prepared(&self.stat, &HashMap::new(), &config);
        // Unbind the frame either way: a slot must never pin a frame's
        // payload past its run.
        self.slots.input.lock().expect("input slot").take();
        let report = run?;
        let v = self.slots.output.lock().expect("output slot").take();
        v.map(|v| (v, report))
            .ok_or_else(|| ExecError::Internal("program produced no output".into()))
    }
}

/// The slots of an `itermem` loop's Fig. 4 harness.
struct LoopSlots {
    /// The Fig. 4 `MEM` node, seeded per run with the loop's initial
    /// state.
    mem: NodeId,
    /// Per-run frame vector read by the `simbackend_grab` endpoint.
    frames: Arc<Mutex<Vec<Value>>>,
    /// Latest loop state written by the `simbackend_unpair` endpoint.
    state: Arc<Mutex<Option<Value>>>,
    /// Per-frame outputs appended by the `simbackend_show` endpoint.
    outputs: Arc<Mutex<Vec<Value>>>,
}

impl LoopSlots {
    /// Wraps the loop body in the Fig. 4 port contract: `pair` packs
    /// (frame on port 0, state on port 1) into the body's input tuple;
    /// `unpair` splits the body's (state', output) tuple back onto
    /// (output on port 0, next state on port 1), around a `MEM` node.
    fn wire(x: &mut Expander, ends: Ends) -> Result<Self, ExecError> {
        let pair = x
            .net
            .add_node(NodeKind::UserFn("simbackend_pair".into()), "pair");
        x.reg.register("simbackend_pair", |args| {
            vec![Value::tuple(vec![args[1].clone(), args[0].clone()])]
        });
        let unpair = x
            .net
            .add_node(NodeKind::UserFn("simbackend_unpair".into()), "unpair");
        x.edge(pair, ends.entry, 0, "state-frame")?;
        x.edge(ends.exit, unpair, 0, "state-output")?;
        let h = expand_itermem(
            &mut x.net,
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
        let slots = LoopSlots {
            mem: h.mem,
            frames: Arc::new(Mutex::new(Vec::new())),
            state: Arc::new(Mutex::new(None)),
            outputs: Arc::new(Mutex::new(Vec::new())),
        };
        let slot = Arc::clone(&slots.state);
        x.reg.register("simbackend_unpair", move |args| {
            let t = args[0]
                .as_tuple()
                .expect("loop body must produce a (state, output) tuple");
            *slot.lock().expect("state slot") = Some(t[0].clone());
            vec![t[1].clone(), t[0].clone()]
        });
        let slot = Arc::clone(&slots.frames);
        x.reg.register("simbackend_grab", move |args| {
            let frames = slot.lock().expect("frames slot");
            let k = args[0].as_int().unwrap_or(0).unsigned_abs() as usize;
            vec![frames[k.min(frames.len() - 1)].clone()]
        });
        let slot = Arc::clone(&slots.outputs);
        x.reg.register("simbackend_show", move |args| {
            slot.lock().expect("output slot").push(args[0].clone());
            vec![]
        });
        Ok(slots)
    }
}

impl Compiled<LoopSlots> {
    /// One online stream run: one graph iteration per encoded frame,
    /// with the state memory seeded by `mem0`. Returns the final state,
    /// the per-frame outputs and the executive report.
    fn run_frames(
        &self,
        frames: Vec<Value>,
        mem0: Value,
    ) -> Result<(Value, Vec<Value>, ExecReport), ExecError> {
        let _guard = self.run_lock.lock().expect("run lock");
        let iterations = frames.len();
        *self.slots.frames.lock().expect("frames slot") = frames;
        self.slots.state.lock().expect("state slot").take();
        self.slots.outputs.lock().expect("output slot").clear();
        let mut mem_init = HashMap::new();
        mem_init.insert(self.slots.mem, mem0);
        let config = ExecConfig {
            iterations,
            frame_clock: None,
            sim: SimConfig::default(),
        };
        let run = run_prepared(&self.stat, &mem_init, &config);
        // Release the frame payloads either way: the slot must never pin
        // a stream's frames past its run (the Vec keeps its capacity, so
        // the buffer itself is recycled across runs).
        self.slots.frames.lock().expect("frames slot").clear();
        let report = run?;
        let z_value = self
            .slots
            .state
            .lock()
            .expect("state slot")
            .take()
            .ok_or_else(|| ExecError::Internal("loop produced no final state".into()))?;
        let ys = std::mem::take(&mut *self.slots.outputs.lock().expect("output slot"));
        Ok((z_value, ys, report))
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
    inner: Result<Compiled<OneShotSlots>, ExecError>,
    _io: std::marker::PhantomData<fn(Shape) -> Out>,
}

impl<Shape, Out> SimExecutable<Shape, Out> {
    /// The prepared statics every run of this executable follows — the
    /// network, its SynDEx schedule and the macro-code — or the
    /// preparation error. All of it is computed once, at prepare time.
    /// The schedule's predicted makespan reflects the program's
    /// [`with_cost_hint`](skipper::Df::with_cost_hint) and
    /// [`with_cost_model`](skipper::Df::with_cost_model) declarations,
    /// which the lowering stamps onto the worker nodes as WCET hints.
    pub fn statics(&self) -> Result<&SimStatics, ExecError> {
        self.inner.as_ref().map(|c| &*c.stat).map_err(Clone::clone)
    }

    /// Runs one input and returns the output **together with the
    /// executive report** (virtual-time trace, end time, processor
    /// utilisations): the measurement face of [`Executable::run`].
    pub fn run_with_report<In>(&self, input: In) -> Result<(Out, ExecReport), ExecError>
    where
        In: SimInput<Shape = Shape>,
        Out: SimValue,
    {
        let compiled = self.inner.as_ref().map_err(Clone::clone)?;
        let (out, report) = compiled.run_value(input.encode_input())?;
        Ok((decode(&out, "prepared program result")?, report))
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
        self.run_with_report(input).map(|(out, _)| out)
    }
}

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
        SimExecutable {
            inner: self.compile("simbackend", prog.lower(), OneShotSlots::wire),
            _io: std::marker::PhantomData,
        }
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
    inner: Result<Compiled<LoopSlots>, ExecError>,
    init: Z,
    _io: std::marker::PhantomData<fn(Vec<B>) -> Y>,
}

impl<Z, B, Y> SimLoopExecutable<Z, B, Y> {
    /// The prepared statics every run of this executable follows
    /// (network, schedule, macro-code), or the preparation error.
    pub fn statics(&self) -> Result<&SimStatics, ExecError> {
        self.inner.as_ref().map(|c| &*c.stat).map_err(Clone::clone)
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
        self.inner.as_ref().map_err(Clone::clone)?;
        if frames.is_empty() {
            return Ok((self.init.clone(), Vec::new()));
        }
        self.run_with_report(frames).map(|(out, _)| out)
    }
}

impl<P, Z, B, Y> Backend<IterLoop<P, Z>, Vec<B>> for SimBackend
where
    P: for<'x> SimLower<&'x (Z, B)> + for<'x> Skeleton<&'x (Z, B), Output = (Z, Y)>,
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
        let body = <P as SimLower<&(Z, B)>>::lower(prog.body());
        SimLoopExecutable {
            inner: self.compile("simbackend-itermem", body, LoopSlots::wire),
            init: prog.init().clone(),
            _io: std::marker::PhantomData,
        }
    }
}

/// A conformance case must lower, schedule and simulate: failing to
/// execute *is* a conformance failure.
fn simulated<T>(run: Result<T, ExecError>) -> T {
    run.unwrap_or_else(|e| panic!("conformance case failed on the simulator: {e}"))
}

// [`SimBackend`]'s adapter into the shared backend-conformance kit
// ([`skipper::conformance`]): every case must agree with the sequential
// golden results.
skipper::host_harness!(
    SimBackend,
    |b| format!(
        "SimBackend::ring({})[{} farms]",
        b.nprocs,
        match b.farm_shape {
            FarmShape::Star => "star",
            FarmShape::Ring => "ring",
        }
    ),
    simulated
);

#[cfg(test)]
mod tests {
    use super::*;
    use skipper::{df, itermem, pure, scm, tf, Compose, SeqBackend};

    /// The predicted makespan of `prog` prepared over `In` on `backend`.
    fn makespan<P, In>(backend: &SimBackend, prog: &P) -> u64
    where
        P: SimLower<In>,
        In: SimInput,
        P::Output: SimValue,
    {
        Backend::<P, In>::prepare(backend, prog)
            .statics()
            .expect("prepares")
            .schedule()
            .makespan_ns
    }

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
        let plan_cheap = makespan::<_, &[i64]>(&backend, &cheap);
        let plan_costly = makespan::<_, &[i64]>(&backend, &costly);
        assert!(
            plan_costly > plan_cheap,
            "a per-call cost hint must lengthen the predicted schedule: \
             {plan_costly} ns (hinted) vs {plan_cheap} ns (unhinted)"
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
        let exec = Backend::<_, &[i64]>::prepare(&backend, &farm);
        let plan = exec.statics().expect("plans").schedule();
        // The program is expanded first, so its node ids are the
        // compiled network's.
        let mut lowered = Expander::new("probe", FarmShape::Ring);
        lowered
            .expand(SimLower::<&[i64]>::lower(&farm).0)
            .expect("lowers");
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
        let exec = Backend::<_, &[i64]>::prepare(&backend, &farm);
        assert!(matches!(exec.statics(), Err(ExecError::EmptyMachine)));
        // Loops too — even the empty-stream shortcut must not mask it.
        let prog = itermem(df(2, |x: &i64| *x, |z: i64, y| z + y, 0i64), 0i64);
        let err = backend.run(&prog, Vec::<Vec<i64>>::new()).unwrap_err();
        assert!(matches!(err, ExecError::EmptyMachine));
    }

    #[test]
    fn bare_pure_loop_body_lowers_to_one_node() {
        // A bare pure(...) body over the by-reference (state, frame)
        // tuple is one node that decodes the pair and calls the
        // function on a borrow of it.
        let prog = itermem(pure(|t: &(i64, i64)| (t.0 + t.1, t.0 * 3 - t.1)), 2i64);
        let frames = vec![1i64, -2, 5, 7];
        let golden = SeqBackend.run(&prog, frames.clone());
        for nprocs in [1usize, 3] {
            for shape in [FarmShape::Star, FarmShape::Ring] {
                let backend = SimBackend::ring(nprocs).with_farm_shape(shape);
                let fresh = backend.run(&prog, frames.clone()).expect("fresh run");
                assert_eq!(fresh, golden, "fresh, nprocs={nprocs} shape={shape:?}");
                let exec = Backend::<_, Vec<i64>>::prepare(&backend, &prog);
                for lap in 0..2 {
                    let prepared = exec.run(frames.clone()).expect("prepared run");
                    assert_eq!(
                        prepared, golden,
                        "prepared lap {lap}, nprocs={nprocs} shape={shape:?}"
                    );
                }
            }
        }
        let err = SimBackend::ring(0).run(&prog, frames).unwrap_err();
        assert!(matches!(err, ExecError::EmptyMachine), "got {err:?}");
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
        let plan_flat = makespan::<_, &[Vec<i64>]>(&backend, &flat);
        let plan_modelled = makespan::<_, &[Vec<i64>]>(&backend, &modelled);
        assert!(
            plan_modelled > plan_flat,
            "a cost model must lengthen the predicted schedule: \
             {plan_modelled} ns (modelled) vs {plan_flat} ns (flat)"
        );
        // ... and the executive's virtual clock, where it is evaluated on
        // each actual argument's size: bigger items take longer simulated
        // time under the same schedule.
        let small: Vec<Vec<i64>> = vec![vec![1; 2]; 6];
        let large: Vec<Vec<i64>> = vec![vec![1; 40]; 6];
        let looped = itermem(modelled.clone(), 0i64);
        let exec = Backend::<_, Vec<Vec<Vec<i64>>>>::prepare(&backend, &looped);
        let t_small = exec
            .run_with_report(vec![small.clone()])
            .expect("small frames simulate")
            .1
            .mean_latency_ns();
        let t_large = exec
            .run_with_report(vec![large.clone()])
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
        let plan = makespan::<_, &[i64]>(&backend, &farm);
        // The executable's schedule is the plan, computed once at prepare
        // time; runs of different inputs share it.
        assert_eq!(
            exec.statics().expect("prepared").schedule().makespan_ns,
            plan
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
            plan
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
        let star = makespan::<_, &[i64]>(&SimBackend::ring(4), &farm);
        let ring =
            makespan::<_, &[i64]>(&SimBackend::ring(4).with_farm_shape(FarmShape::Ring), &farm);
        assert!(ring >= star, "ring {ring} vs star {star}");
    }
}
