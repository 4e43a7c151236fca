//! Compiling Skipper-ML text to typed [`Skeleton`] programs.
//!
//! This module is the bridge the ROADMAP calls "making the ML front-end
//! the single source of truth": a DSL program — the paper's §3 Caml
//! subset, parsed by [`crate::parser`] and typed by [`crate::types`] —
//! is lowered to a real [`skipper`] program value that runs unmodified
//! on every backend (`SeqBackend`, `PoolBackend`, `ShardBackend`, and
//! `skipper-exec`'s `SimBackend`).
//!
//! # Shape of a compilable program
//!
//! A program is a sequence of top-level `let` bindings ending in `main`,
//! which must be a fully applied `itermem`:
//!
//! ```text
//! let nproc = 4;;
//! let loop (state, im) =
//!   let r = scm nproc (split_bands nproc) label_band merge_bands im in
//!   (state, r);;
//! let main = itermem camera loop display () 0;;
//! ```
//!
//! Every leaf function (`camera`, `split_bands`, …) is a **kernel**: a
//! named Rust function over executive [`Value`]s registered in a
//! [`KernelRegistry`] together with its DSL type signature. The
//! registry's signatures seed the typechecker, so a program is fully
//! type-checked against the kernels it will actually call before
//! anything is lowered — [`compile_program`] runs
//! [`crate::types::check_program`] internally and never compiles
//! untyped text.
//!
//! The loop body is compiled to a [`CompiledBody`]: a short sequence of
//! steps (kernel calls and `df`/`scm`/`tf` skeleton stages) over an
//! environment of frame-local values. `CompiledBody` implements the same
//! execution traits as any handwritten body — [`Skeleton`] (run on any
//! host [`Dispatch`]) and [`SimLower`] (one [`SimPlan`] for the simulated
//! machine, built from the same skeleton values) — and each skeleton
//! stage executes through the very same `skipper::{df, scm, tf}` entry
//! points a handwritten program uses, so a compiled program's dispatch
//! **receipts** ([`skipper::receipted`]) are bit-identical to the
//! handwritten equivalent's. The whole program is then just
//! `itermem(body, init)` ([`CompiledProgram::loop_program`]).
//!
//! # What is rejected, and how
//!
//! Compilation is total over type-checked input: any construct outside
//! the compilable fragment (first-class use of a kernel, arithmetic on
//! per-frame data, a nested `itermem`, a partially applied skeleton, …)
//! is reported as a spanned [`Diagnostic`] at [`Stage::Expand`] — never
//! a panic. The only panics in this module are kernel-contract
//! violations: a *registered Rust kernel* returning a value that
//! contradicts its own declared signature, which no DSL text can cause.

use crate::ast::{Expr, ExprKind, Pattern, Program};
use crate::diag::{Diagnostic, Span, Stage};
use crate::types::{check_program, parse_type, Type, TypeEnv};
use skipper::{df, itermem, run_with, scm, tf, Dispatch, IterLoop, Skeleton};
use skipper_exec::{SimLower, SimPlan, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registered kernel body: a named Rust function over executive
/// values.
pub type KernelFn = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// A registered frame source: called with the program's source argument
/// and a frame index, returns the frame or `None` at end of stream.
pub type SourceFn = Arc<dyn Fn(&Value, u64) -> Option<Value> + Send + Sync>;

/// A registered kernel: name, declared DSL signature, derived arity and
/// cost hint.
#[derive(Clone)]
struct KernelEntry {
    signature: String,
    arity: usize,
    cost_hint: u64,
    f: KernelFn,
}

#[derive(Clone)]
struct SourceEntry {
    signature: String,
    f: SourceFn,
}

/// The kernel vocabulary a DSL program compiles against: named Rust
/// functions over [`Value`]s, each carrying the DSL type signature it is
/// type-checked under. Shared between `skipperc` and the apps crate so
/// one registry serves both the driver and the differential tests.
///
/// # Values inside a frame
///
/// A kernel whose result is a named DSL type (`window`, `band`, …) or a
/// list of one returns it as a [`Value::native`] (a list as a
/// `Value::list` of natives), so the next kernel of the frame borrows
/// the Rust value instead of decoding it. Scalars, tuples and lists
/// themselves are never wrapped. A compiled body encodes its
/// `(state, output)` result with [`Value::structural`], so no native
/// leaves a frame: the carried state, outputs, receipts and the display
/// sink see plain values only. A kernel therefore accepts either form of
/// each argument — natives from other kernels, structural values from
/// sources, constants and the carried state.
#[derive(Clone, Default)]
pub struct KernelRegistry {
    kernels: BTreeMap<String, KernelEntry>,
    sources: BTreeMap<String, SourceEntry>,
    constants: BTreeMap<String, (String, Value)>,
}

/// Counts the curried parameters of a declared signature
/// (`int -> image -> band list` has arity 2).
fn arity_of(t: &Type) -> usize {
    match t {
        Type::Fun(_, r) => 1 + arity_of(r),
        _ => 0,
    }
}

impl KernelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers kernel `name` with DSL type `signature`; the kernel's
    /// arity is the signature's curried-parameter count.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] when the signature does not parse as a type, or
    /// when it declares no parameters (use
    /// [`register_constant`](Self::register_constant) for values).
    pub fn register(
        &mut self,
        name: &str,
        signature: &str,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> Result<(), Diagnostic> {
        self.register_costed(name, signature, 0, f)
    }

    /// Registers kernel `name` carrying a per-call WCET `cost_hint` for
    /// the SynDEx scheduler (see [`skipper::Df::with_cost_hint`]).
    ///
    /// # Errors
    ///
    /// As [`register`](Self::register).
    pub fn register_costed(
        &mut self,
        name: &str,
        signature: &str,
        cost_hint: u64,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> Result<(), Diagnostic> {
        let arity = arity_of(&parse_type(signature)?);
        if arity == 0 {
            return Err(Diagnostic::global(
                Stage::Expand,
                format!("kernel `{name}` must take at least one argument (signature `{signature}`); register values with register_constant"),
            ));
        }
        self.kernels.insert(
            name.to_string(),
            KernelEntry {
                signature: signature.to_string(),
                arity,
                cost_hint,
                f: Arc::new(f),
            },
        );
        Ok(())
    }

    /// Registers a frame source. Sources have an ordinary function
    /// signature in the DSL (`itermem`'s first argument applies them to
    /// the program's source argument), but the driver invokes them once
    /// per frame with a frame index, stopping at the first `None`.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] when the signature does not parse.
    pub fn register_source(
        &mut self,
        name: &str,
        signature: &str,
        f: impl Fn(&Value, u64) -> Option<Value> + Send + Sync + 'static,
    ) -> Result<(), Diagnostic> {
        parse_type(signature)?;
        self.sources.insert(
            name.to_string(),
            SourceEntry {
                signature: signature.to_string(),
                f: Arc::new(f),
            },
        );
        Ok(())
    }

    /// Registers a named constant (e.g. a structured initial state no
    /// DSL literal can spell).
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] when the signature does not parse.
    pub fn register_constant(
        &mut self,
        name: &str,
        signature: &str,
        value: Value,
    ) -> Result<(), Diagnostic> {
        parse_type(signature)?;
        self.constants
            .insert(name.to_string(), (signature.to_string(), value));
        Ok(())
    }

    /// The typing environment for programs over this registry: the
    /// skeleton signatures plus one declaration per kernel, source and
    /// constant.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] when any stored signature fails to re-parse.
    pub fn type_env(&self) -> Result<TypeEnv, Diagnostic> {
        let mut env = TypeEnv::with_skeletons();
        for (name, k) in &self.kernels {
            env.declare(name, &k.signature)?;
        }
        for (name, s) in &self.sources {
            env.declare(name, &s.signature)?;
        }
        for (name, (sig, _)) in &self.constants {
            env.declare(name, sig)?;
        }
        Ok(env)
    }
}

impl std::fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelRegistry")
            .field("kernels", &self.kernels.keys().collect::<Vec<_>>())
            .field("sources", &self.sources.keys().collect::<Vec<_>>())
            .field("constants", &self.constants.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// A registered Rust kernel broke the signature it was registered
/// under. The typechecker verified the *program* against the declared
/// signatures, so this is unreachable from DSL text — it means the
/// `KernelRegistry` entry itself is buggy, which is a host-code defect
/// on par with any other Rust panic.
#[cold]
fn kernel_contract_violation(kernel: &str, expected: &str, got: &Value) -> ! {
    panic!("kernel `{kernel}` violated its registered signature: expected {expected}, got {got:?}")
}

/// A kernel with zero or more constant arguments already applied
/// (partial application like `split_bands nproc` closes over constants
/// at compile time).
#[derive(Clone)]
struct KernelCall {
    name: Arc<str>,
    f: KernelFn,
    pre: Vec<Value>,
    remaining: usize,
    cost_hint: u64,
}

impl KernelCall {
    fn call(&self, rest: &[Value]) -> Value {
        if self.pre.is_empty() {
            return (self.f)(rest);
        }
        let mut args = Vec::with_capacity(self.pre.len() + rest.len());
        args.extend(self.pre.iter().cloned());
        args.extend(rest.iter().cloned());
        (self.f)(&args)
    }

    fn call_list(&self, rest: &[Value]) -> Vec<Value> {
        let v = self.call(rest);
        match v.as_list() {
            Some(xs) => xs.to_vec(),
            None => kernel_contract_violation(&self.name, "a list", &v),
        }
    }
}

impl std::fmt::Debug for KernelCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}+{}", self.name, self.remaining, self.pre.len())
    }
}

/// A frame-local value reference: how a step argument is produced from
/// the body environment (`slot 0` = carried state, `slot 1` = frame,
/// `slot 2+` = earlier step results).
#[derive(Debug, Clone, PartialEq)]
enum Operand {
    Slot(usize),
    Const(Value),
    Tuple(Vec<Operand>),
    List(Vec<Operand>),
    Proj(Box<Operand>, usize),
}

impl Operand {
    /// Tuple constructor, folding all-constant components.
    fn tuple(ops: Vec<Operand>) -> Operand {
        if ops.iter().all(|o| matches!(o, Operand::Const(_))) {
            let vs = ops
                .into_iter()
                .map(|o| match o {
                    Operand::Const(v) => v,
                    _ => unreachable!("all components are constants"),
                })
                .collect();
            Operand::Const(Value::tuple(vs))
        } else {
            Operand::Tuple(ops)
        }
    }

    /// List constructor, folding all-constant elements.
    fn list(ops: Vec<Operand>) -> Operand {
        if ops.iter().all(|o| matches!(o, Operand::Const(_))) {
            let vs = ops
                .into_iter()
                .map(|o| match o {
                    Operand::Const(v) => v,
                    _ => unreachable!("all elements are constants"),
                })
                .collect();
            Operand::Const(Value::list(vs))
        } else {
            Operand::List(ops)
        }
    }

    /// Projection constructor with a peephole: projecting a syntactic
    /// tuple selects the component directly.
    fn proj(op: Operand, k: usize) -> Operand {
        match op {
            Operand::Tuple(ops) if k < ops.len() => ops[k].clone(),
            Operand::Const(ref v) => match v.as_tuple() {
                Some(t) if k < t.len() => Operand::Const(t[k].clone()),
                _ => Operand::Proj(Box::new(op), k),
            },
            _ => Operand::Proj(Box::new(op), k),
        }
    }

    /// The constant value of an environment-independent operand.
    fn const_value(&self) -> Option<Value> {
        match self {
            Operand::Slot(_) => None,
            Operand::Const(v) => Some(v.clone()),
            Operand::Tuple(ops) => Some(Value::tuple(
                ops.iter()
                    .map(Operand::const_value)
                    .collect::<Option<Vec<_>>>()?,
            )),
            Operand::List(ops) => Some(Value::list(
                ops.iter()
                    .map(Operand::const_value)
                    .collect::<Option<Vec<_>>>()?,
            )),
            Operand::Proj(op, k) => {
                let v = op.const_value()?;
                v.as_tuple().and_then(|t| t.get(*k).cloned())
            }
        }
    }

    /// Materialises the operand against a frame environment.
    fn resolve(&self, env: &[Value]) -> Value {
        match self {
            Operand::Slot(i) => env[*i].clone(),
            Operand::Const(v) => v.clone(),
            Operand::Tuple(ops) => Value::tuple(ops.iter().map(|o| o.resolve(env)).collect()),
            Operand::List(ops) => Value::list(ops.iter().map(|o| o.resolve(env)).collect()),
            Operand::Proj(op, k) => {
                let v = op.resolve(env);
                match v.as_tuple() {
                    Some(t) if *k < t.len() => t[*k].clone(),
                    _ => kernel_contract_violation("<proj>", "a tuple", &v),
                }
            }
        }
    }
}

/// One compiled body step; executing a step appends its result to the
/// frame environment.
#[derive(Clone)]
enum Step {
    /// Plain kernel call.
    Call { f: KernelCall, args: Vec<Operand> },
    /// `df n comp acc z xs` — a data farm.
    Df {
        workers: usize,
        comp: KernelCall,
        acc: KernelCall,
        seed: Operand,
        items: Operand,
    },
    /// `scm n split comp merge x` — split/compute/merge.
    Scm {
        workers: usize,
        split: KernelCall,
        comp: KernelCall,
        merge: KernelCall,
        input: Operand,
    },
    /// `tf n worker acc z tasks` — a task farm.
    Tf {
        workers: usize,
        worker: KernelCall,
        acc: KernelCall,
        seed: Operand,
        tasks: Operand,
    },
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Call { f: k, .. } => write!(f, "call {}", k.name),
            Step::Df { comp, workers, .. } => write!(f, "df[{workers}] {}", comp.name),
            Step::Scm { comp, workers, .. } => write!(f, "scm[{workers}] {}", comp.name),
            Step::Tf {
                worker, workers, ..
            } => write!(f, "tf[{workers}] {}", worker.name),
        }
    }
}

/// A compiled `itermem` loop body: steps over a frame environment,
/// ending in the structurally encoded `(state', output)` pair. Runs
/// anywhere a handwritten body runs — declaratively, on any host
/// [`Dispatch`], or lowered onto the simulated machine — and its
/// skeleton steps call the same `skipper` entry points a handwritten
/// program would, making dispatch receipts comparable across the two.
#[derive(Clone)]
pub struct CompiledBody {
    steps: Arc<Vec<Step>>,
    result: (Operand, Operand),
}

impl std::fmt::Debug for CompiledBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.steps.iter()).finish()
    }
}

impl CompiledBody {
    /// Runs the steps, each skeleton step through `dispatch` (declaratively
    /// when `None`), and encodes the result structurally: natives stay
    /// inside the frame.
    fn run(&self, input: &(Value, Value), dispatch: Option<&dyn Dispatch>) -> (Value, Value) {
        let mut env = Vec::with_capacity(2 + self.steps.len());
        env.extend([input.0.clone(), input.1.clone()]);
        for step in self.steps.iter() {
            let v = match step {
                Step::Call { f, args } => {
                    let vals: Vec<Value> = args.iter().map(|a| a.resolve(&env)).collect();
                    f.call(&vals)
                }
                Step::Df {
                    workers,
                    comp,
                    acc,
                    seed,
                    items,
                } => {
                    let seed_v = seed.resolve(&env);
                    let items_v = items.resolve(&env);
                    let Some(xs) = items_v.as_list() else {
                        kernel_contract_violation("<df items>", "a list", &items_v)
                    };
                    let prog = df_value(comp, acc, *workers, seed_v);
                    run_with(&prog, dispatch, xs)
                }
                Step::Scm {
                    workers,
                    split,
                    comp,
                    merge,
                    input: inp,
                } => {
                    let x = inp.resolve(&env);
                    let prog = scm_value(split, comp, merge, *workers);
                    run_with(&prog, dispatch, &x)
                }
                Step::Tf {
                    workers,
                    worker,
                    acc,
                    seed,
                    tasks,
                } => {
                    let seed_v = seed.resolve(&env);
                    let tasks_v = tasks.resolve(&env);
                    let ts = match tasks_v.as_list() {
                        Some(ts) => ts.to_vec(),
                        None => kernel_contract_violation("<tf tasks>", "a list", &tasks_v),
                    };
                    let prog = tf_value(worker, acc, *workers, seed_v);
                    run_with(&prog, dispatch, ts)
                }
            };
            env.push(v);
        }
        (
            self.result.0.resolve(&env).structural(),
            self.result.1.resolve(&env).structural(),
        )
    }
}

/// The concrete [`skipper::Df`] value a `df` step executes or lowers.
fn df_value(
    comp: &KernelCall,
    acc: &KernelCall,
    workers: usize,
    seed: Value,
) -> skipper::Df<
    impl Fn(&Value) -> Value + Clone + Send + Sync + 'static,
    impl Fn(Value, Value) -> Value + Clone + Send + Sync + 'static,
    Value,
> {
    let hint = comp.cost_hint;
    let c = comp.clone();
    let a = acc.clone();
    df(
        workers,
        move |x: &Value| c.call(std::slice::from_ref(x)),
        move |z: Value, y: Value| a.call(&[z, y]),
        seed,
    )
    .with_cost_hint(hint)
}

/// The concrete [`skipper::Scm`] value an `scm` step executes or lowers.
#[allow(clippy::type_complexity)]
fn scm_value(
    split: &KernelCall,
    comp: &KernelCall,
    merge: &KernelCall,
    workers: usize,
) -> skipper::Scm<
    impl Fn(&Value, usize) -> Vec<Value> + Clone + Send + Sync + 'static,
    impl Fn(Value) -> Value + Clone + Send + Sync + 'static,
    impl Fn(Vec<Value>) -> Value + Clone + Send + Sync + 'static,
> {
    let hint = comp.cost_hint;
    let s = split.clone();
    let c = comp.clone();
    let m = merge.clone();
    scm(
        workers,
        move |x: &Value, _n: usize| s.call_list(std::slice::from_ref(x)),
        move |f: Value| c.call(&[f]),
        move |parts: Vec<Value>| m.call(&[Value::list(parts)]),
    )
    .with_cost_hint(hint)
}

/// The concrete [`skipper::Tf`] value a `tf` step executes or lowers.
#[allow(clippy::type_complexity)]
fn tf_value(
    worker: &KernelCall,
    acc: &KernelCall,
    workers: usize,
    seed: Value,
) -> skipper::Tf<
    impl Fn(Value) -> (Vec<Value>, Option<Value>) + Clone + Send + Sync + 'static,
    impl Fn(Value, Value) -> Value + Clone + Send + Sync + 'static,
    Value,
> {
    let hint = worker.cost_hint;
    let w = worker.clone();
    let a = acc.clone();
    tf(
        workers,
        move |t: Value| {
            let r = w.call(&[t]);
            let Some(pair) = r.as_tuple().filter(|p| p.len() == 2) else {
                kernel_contract_violation(&w.name, "a (tasks, result) pair", &r)
            };
            let Some(ts) = pair[0].as_list() else {
                kernel_contract_violation(&w.name, "a task list", &pair[0])
            };
            (ts.to_vec(), Some(pair[1].clone()))
        },
        move |z: Value, y: Value| a.call(&[z, y]),
        seed,
    )
    .with_cost_hint(hint)
}

impl<'a> Skeleton<&'a (Value, Value)> for CompiledBody {
    type Output = (Value, Value);

    fn run_declarative(&self, input: &'a (Value, Value)) -> (Value, Value) {
        self.run(input, None)
    }

    fn run_on(&self, d: &dyn Dispatch, input: &'a (Value, Value)) -> (Value, Value) {
        self.run(input, Some(d))
    }
}

/// Lowers the body onto the simulated machine. The environment crosses
/// the graph as a `Value::List`; each step contributes either one glue
/// node (kernel call) or a feed node, the ordinary plan of the step's
/// skeleton (via its `SimLower` impl), and a store node, with the
/// carried environment fanned around the skeleton
/// ([`SimPlan::around`]).
impl SimLower<&(Value, Value)> for CompiledBody {
    fn lower(&self) -> SimPlan {
        let mut plan = SimPlan::node("dsl_env", 0, |args| {
            let t = args[0]
                .as_tuple()
                .expect("loop body input is a (state, frame) tuple");
            vec![Value::list(vec![t[0].clone(), t[1].clone()])]
        });
        for step in self.steps.iter() {
            plan = match step {
                Step::Call { f, args } => {
                    let role = format!("dsl_call_{}", f.name);
                    let (f, args) = (f.clone(), args.clone());
                    let call = SimPlan::node(role, f.cost_hint, move |ins| {
                        let env = env_of(&ins[0]);
                        let vals: Vec<Value> = args.iter().map(|a| a.resolve(&env)).collect();
                        let v = f.call(&vals);
                        vec![pushed(env, v)]
                    });
                    plan.then(call, "env")
                }
                Step::Df {
                    workers,
                    comp,
                    acc,
                    seed,
                    items,
                } => {
                    let feed = feed_node("dsl_df_feed", seed.clone(), items.clone());
                    let farm = df_value(comp, acc, *workers, Value::Unit);
                    let inner = SimLower::<&(Value, Vec<Value>)>::lower(&farm);
                    plan.around(
                        feed,
                        "state-items",
                        inner,
                        "state-pair",
                        store_node("dsl_df_store"),
                    )
                }
                Step::Scm {
                    workers,
                    split,
                    comp,
                    merge,
                    input,
                } => {
                    let input = input.clone();
                    let feed = SimPlan::node("dsl_scm_feed", 0, move |ins| {
                        vec![input.resolve(&env_of(&ins[0]))]
                    });
                    let inner = SimLower::<&Value>::lower(&scm_value(split, comp, merge, *workers));
                    // The merge node's output is the merged value itself.
                    let store = SimPlan::node("dsl_scm_store", 0, |ins| {
                        vec![pushed(env_of(&ins[1]), ins[0].clone())]
                    });
                    plan.around(feed, "input", inner, "merged", store)
                }
                Step::Tf {
                    workers,
                    worker,
                    acc,
                    seed,
                    tasks,
                } => {
                    let feed = feed_node("dsl_tf_feed", seed.clone(), tasks.clone());
                    let farm = tf_value(worker, acc, *workers, Value::Unit);
                    let inner = SimLower::<&(Value, Vec<Value>)>::lower(&farm);
                    plan.around(
                        feed,
                        "state-tasks",
                        inner,
                        "state-pair",
                        store_node("dsl_tf_store"),
                    )
                }
            };
        }
        let result = self.result.clone();
        let finish = SimPlan::node("dsl_result", 0, move |ins| {
            let env = env_of(&ins[0]);
            vec![Value::tuple(vec![
                result.0.resolve(&env).structural(),
                result.1.resolve(&env).structural(),
            ])]
        });
        plan.then(finish, "env")
    }
}

/// Decodes the environment list a glue node receives.
fn env_of(v: &Value) -> Vec<Value> {
    v.as_list()
        .expect("dsl environment crosses the machine as a list")
        .to_vec()
}

/// The environment with one more slot.
fn pushed(mut env: Vec<Value>, v: Value) -> Value {
    env.push(v);
    Value::list(env)
}

/// A feed node computing a seeded farm's `(seed, items)` input from the
/// environment.
fn feed_node(role: &str, seed: Operand, items: Operand) -> SimPlan {
    SimPlan::node(role, 0, move |ins| {
        let env = env_of(&ins[0]);
        vec![Value::tuple(vec![seed.resolve(&env), items.resolve(&env)])]
    })
}

/// A store node appending a `df`/`tf` farm's result to the carried
/// environment. Port 0 receives the farm's `(state', state')` pair (see
/// the farm loop-body lowerings in `skipper-exec`), port 1 the
/// environment fanned around the farm.
fn store_node(role: &str) -> SimPlan {
    SimPlan::node(role, 0, |ins| {
        let pair = ins[0]
            .as_tuple()
            .expect("farm loop-body exit is a state pair");
        vec![pushed(env_of(&ins[1]), pair[0].clone())]
    })
}

/// A whole compiled program: the frame source, the compiled loop body,
/// the initial state, and the display sink.
pub struct CompiledProgram {
    source_name: String,
    source: SourceFn,
    source_arg: Value,
    body: CompiledBody,
    init: Value,
    show_name: String,
    show: KernelCall,
}

impl std::fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("source", &self.source_name)
            .field("body", &self.body)
            .field("show", &self.show_name)
            .finish()
    }
}

impl CompiledProgram {
    /// The program as a [`skipper`] value: `itermem(body, init)`. Runs
    /// on any backend a handwritten `IterLoop` runs on.
    #[must_use]
    pub fn loop_program(&self) -> IterLoop<CompiledBody, Value> {
        itermem(self.body.clone(), self.init.clone())
    }

    /// The compiled loop body.
    #[must_use]
    pub fn body(&self) -> &CompiledBody {
        &self.body
    }

    /// The loop's initial state.
    #[must_use]
    pub fn init(&self) -> &Value {
        &self.init
    }

    /// Materialises up to `max_frames` frames from the program's source
    /// kernel (applied to the program's source argument, per frame
    /// index), stopping early at end of stream.
    #[must_use]
    pub fn frames(&self, max_frames: usize) -> Vec<Value> {
        (0..max_frames as u64)
            .map_while(|i| (self.source)(&self.source_arg, i))
            .collect()
    }

    /// Applies the program's display sink to one loop output.
    #[must_use]
    pub fn show(&self, output: &Value) -> Value {
        self.show.call(std::slice::from_ref(output))
    }

    /// The registered name of the frame source.
    #[must_use]
    pub fn source_name(&self) -> &str {
        &self.source_name
    }
}

/// What a name denotes during compilation.
#[derive(Clone)]
enum CVal {
    /// A frame-environment value (constants fold into it).
    Op(Operand),
    /// A (possibly partially applied) kernel.
    Kernel(KernelCall),
    /// A frame source (only legal as `itermem`'s first argument).
    Source(String),
    /// A user-defined function (only legal as `itermem`'s loop).
    Fun(Expr),
    /// One of the four skeleton binders.
    Skel(SkelName),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SkelName {
    Df,
    Scm,
    Tf,
    IterMem,
}

fn err(span: Span, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(Stage::Expand, message, span)
}

/// The compilation context: the registry plus the compile-time meaning
/// of every name in scope.
struct Compiler<'r> {
    registry: &'r KernelRegistry,
    globals: BTreeMap<String, CVal>,
}

impl<'r> Compiler<'r> {
    fn new(registry: &'r KernelRegistry) -> Self {
        let mut globals = BTreeMap::new();
        globals.insert("df".to_string(), CVal::Skel(SkelName::Df));
        globals.insert("scm".to_string(), CVal::Skel(SkelName::Scm));
        globals.insert("tf".to_string(), CVal::Skel(SkelName::Tf));
        globals.insert("itermem".to_string(), CVal::Skel(SkelName::IterMem));
        for (name, k) in &registry.kernels {
            globals.insert(
                name.clone(),
                CVal::Kernel(KernelCall {
                    name: Arc::from(name.as_str()),
                    f: Arc::clone(&k.f),
                    pre: Vec::new(),
                    remaining: k.arity,
                    cost_hint: k.cost_hint,
                }),
            );
        }
        for name in registry.sources.keys() {
            globals.insert(name.clone(), CVal::Source(name.clone()));
        }
        for (name, (_, v)) in &registry.constants {
            globals.insert(name.clone(), CVal::Op(Operand::Const(v.clone())));
        }
        Compiler { registry, globals }
    }

    fn lookup(
        &self,
        locals: &[(String, CVal)],
        name: &str,
        span: Span,
    ) -> Result<CVal, Diagnostic> {
        if let Some((_, v)) = locals.iter().rev().find(|(n, _)| n == name) {
            return Ok(v.clone());
        }
        self.globals.get(name).cloned().ok_or_else(|| {
            err(
                span,
                format!("`{name}` is not a kernel, constant or earlier binding"),
            )
        })
    }

    /// Walks an expression to its compile-time meaning. `steps` is the
    /// step list of the loop body being compiled, or `None` at top
    /// level (where kernel calls and skeletons cannot run).
    #[allow(clippy::too_many_lines)]
    fn walk(
        &self,
        expr: &Expr,
        locals: &mut Vec<(String, CVal)>,
        steps: &mut Option<&mut Vec<Step>>,
    ) -> Result<CVal, Diagnostic> {
        match &expr.kind {
            ExprKind::Var(name) => self.lookup(locals, name, expr.span),
            ExprKind::Int(i) => Ok(CVal::Op(Operand::Const(Value::Int(*i)))),
            ExprKind::Float(x) => Ok(CVal::Op(Operand::Const(Value::Float(*x)))),
            ExprKind::Bool(b) => Ok(CVal::Op(Operand::Const(Value::Bool(*b)))),
            ExprKind::Str(s) => Ok(CVal::Op(Operand::Const(Value::str(s)))),
            ExprKind::Unit => Ok(CVal::Op(Operand::Const(Value::Unit))),
            ExprKind::Tuple(es) => {
                let ops = es
                    .iter()
                    .map(|e| {
                        let v = self.walk(e, locals, steps)?;
                        self.operand(v, e.span)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(CVal::Op(Operand::tuple(ops)))
            }
            ExprKind::List(es) => {
                let ops = es
                    .iter()
                    .map(|e| {
                        let v = self.walk(e, locals, steps)?;
                        self.operand(v, e.span)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(CVal::Op(Operand::list(ops)))
            }
            ExprKind::Lambda(..) => Ok(CVal::Fun(expr.clone())),
            ExprKind::Let { pat, value, body } => {
                let v = self.walk(value, locals, steps)?;
                let mark = locals.len();
                self.bind(pat, v, locals)?;
                let r = self.walk(body, locals, steps);
                locals.truncate(mark);
                r
            }
            ExprKind::If(c, t, e) => {
                let cv = self.walk(c, locals, steps)?;
                match self.operand(cv, c.span)?.const_value() {
                    Some(Value::Bool(true)) => self.walk(t, locals, steps),
                    Some(Value::Bool(false)) => self.walk(e, locals, steps),
                    _ => Err(err(
                        c.span,
                        "`if` conditions must be compile-time constants in compiled programs \
                         (move per-frame branching into a kernel)",
                    )),
                }
            }
            ExprKind::BinOp(op, l, r) => {
                let lv = self.walk(l, locals, steps)?;
                let rv = self.walk(r, locals, steps)?;
                let lop = self.operand(lv, l.span)?;
                let rop = self.operand(rv, r.span)?;
                match (lop.const_value(), rop.const_value()) {
                    (Some(a), Some(b)) => Ok(CVal::Op(Operand::Const(fold_binop(
                        *op, &a, &b, expr.span,
                    )?))),
                    _ => Err(err(
                        expr.span,
                        "arithmetic on per-frame values is not supported in compiled \
                         programs (register a kernel for it)",
                    )),
                }
            }
            ExprKind::App(..) => self.walk_app(expr, locals, steps),
        }
    }

    /// A compile-time value as a frame operand (kernels, sources and
    /// functions are not first-class data in compiled programs).
    fn operand(&self, v: CVal, span: Span) -> Result<Operand, Diagnostic> {
        match v {
            CVal::Op(op) => Ok(op),
            CVal::Kernel(k) => Err(err(
                span,
                format!(
                    "kernel `{}` is not first-class data in compiled programs; apply it fully",
                    k.name
                ),
            )),
            CVal::Source(name) => Err(err(
                span,
                format!("source `{name}` may only be used as itermem's input function"),
            )),
            CVal::Fun(_) => Err(err(
                span,
                "functions are not first-class data in compiled programs; register a kernel",
            )),
            CVal::Skel(_) => Err(err(span, "skeletons must be fully applied")),
        }
    }

    fn bind(
        &self,
        pat: &Pattern,
        v: CVal,
        locals: &mut Vec<(String, CVal)>,
    ) -> Result<(), Diagnostic> {
        match pat {
            Pattern::Var(name, _) => {
                locals.push((name.clone(), v));
                Ok(())
            }
            Pattern::Wildcard(_) | Pattern::Unit(_) => Ok(()),
            Pattern::Tuple(ps, span) => {
                let op = self.operand(v, *span)?;
                for (i, p) in ps.iter().enumerate() {
                    self.bind(p, CVal::Op(Operand::proj(op.clone(), i)), locals)?;
                }
                Ok(())
            }
        }
    }

    /// An argument that must be a fully-applied-later kernel of
    /// `remaining` parameters (skeleton function positions).
    fn kernel_arg(
        &self,
        e: &Expr,
        locals: &mut Vec<(String, CVal)>,
        steps: &mut Option<&mut Vec<Step>>,
        remaining: usize,
        role: &str,
    ) -> Result<KernelCall, Diagnostic> {
        match self.walk(e, locals, steps)? {
            CVal::Kernel(k) if k.remaining == remaining => Ok(k),
            CVal::Kernel(k) => Err(err(
                e.span,
                format!(
                    "{role} must be a kernel of {remaining} remaining parameter(s); `{}` has {}",
                    k.name, k.remaining
                ),
            )),
            CVal::Fun(_) => Err(err(
                e.span,
                format!("{role} must be a registered kernel, not an inline function"),
            )),
            _ => Err(err(e.span, format!("{role} must be a registered kernel"))),
        }
    }

    /// A skeleton's degree argument: a compile-time positive integer.
    fn degree_arg(
        &self,
        e: &Expr,
        locals: &mut Vec<(String, CVal)>,
        steps: &mut Option<&mut Vec<Step>>,
    ) -> Result<usize, Diagnostic> {
        let v = self.walk(e, locals, steps)?;
        match self.operand(v, e.span)?.const_value() {
            Some(Value::Int(n)) if n > 0 => Ok(n as usize),
            Some(v) => Err(err(
                e.span,
                format!("a skeleton's degree must be a positive integer constant, got {v:?}"),
            )),
            None => Err(err(
                e.span,
                "a skeleton's degree must be a compile-time constant",
            )),
        }
    }

    fn operand_arg(
        &self,
        e: &Expr,
        locals: &mut Vec<(String, CVal)>,
        steps: &mut Option<&mut Vec<Step>>,
    ) -> Result<Operand, Diagnostic> {
        let v = self.walk(e, locals, steps)?;
        self.operand(v, e.span)
    }

    #[allow(clippy::too_many_lines)]
    fn walk_app(
        &self,
        expr: &Expr,
        locals: &mut Vec<(String, CVal)>,
        steps: &mut Option<&mut Vec<Step>>,
    ) -> Result<CVal, Diagnostic> {
        let (head, args) = expr.uncurry_app();
        let head_v = self.walk(head, locals, steps)?;
        match head_v {
            CVal::Kernel(k) => {
                if args.len() < k.remaining {
                    // Partial application closes over constants only:
                    // the partially applied kernel must be meaningful
                    // away from any particular frame (e.g. as an scm
                    // split function on the simulated machine).
                    let mut k = k;
                    for a in args {
                        let op = self.operand_arg(a, locals, steps)?;
                        let Some(v) = op.const_value() else {
                            return Err(err(
                                a.span,
                                "arguments of a partially applied kernel must be \
                                 compile-time constants",
                            ));
                        };
                        k.pre.push(v);
                        k.remaining -= 1;
                    }
                    return Ok(CVal::Kernel(k));
                }
                if args.len() > k.remaining {
                    return Err(err(
                        expr.span,
                        format!(
                            "kernel `{}` takes {} argument(s), got {}",
                            k.name,
                            k.remaining,
                            args.len()
                        ),
                    ));
                }
                let arg_ops = args
                    .iter()
                    .map(|a| self.operand_arg(a, locals, steps))
                    .collect::<Result<Vec<_>, _>>()?;
                match steps {
                    Some(steps) => {
                        steps.push(Step::Call {
                            f: k,
                            args: arg_ops,
                        });
                        Ok(CVal::Op(Operand::Slot(1 + steps.len())))
                    }
                    None => Err(err(
                        expr.span,
                        "kernels can only be called inside the itermem loop body",
                    )),
                }
            }
            CVal::Skel(skel) => self.walk_skel(skel, expr, &args, locals, steps),
            CVal::Source(name) => Err(err(
                head.span,
                format!("source `{name}` may only be used as itermem's input function"),
            )),
            CVal::Fun(_) => Err(err(
                head.span,
                "calling user-defined functions inside compiled programs is not \
                 supported; register a kernel or inline the definition",
            )),
            CVal::Op(_) => Err(err(head.span, "this expression is not a function")),
        }
    }

    fn walk_skel(
        &self,
        skel: SkelName,
        expr: &Expr,
        args: &[&Expr],
        locals: &mut Vec<(String, CVal)>,
        steps: &mut Option<&mut Vec<Step>>,
    ) -> Result<CVal, Diagnostic> {
        if skel == SkelName::IterMem {
            return Err(err(
                expr.span,
                "nested `itermem` is not supported; a program has exactly one \
                 itermem, at `main`",
            ));
        }
        if args.len() != 5 {
            return Err(err(
                expr.span,
                format!(
                    "skeletons must be fully applied in compiled programs (expected \
                     5 arguments, got {})",
                    args.len()
                ),
            ));
        }
        let workers = self.degree_arg(args[0], locals, steps)?;
        let step = match skel {
            SkelName::Df => Step::Df {
                workers,
                comp: self.kernel_arg(args[1], locals, steps, 1, "a df compute function")?,
                acc: self.kernel_arg(args[2], locals, steps, 2, "a df accumulator")?,
                seed: self.operand_arg(args[3], locals, steps)?,
                items: self.operand_arg(args[4], locals, steps)?,
            },
            SkelName::Scm => Step::Scm {
                workers,
                split: self.kernel_arg(args[1], locals, steps, 1, "an scm split function")?,
                comp: self.kernel_arg(args[2], locals, steps, 1, "an scm compute function")?,
                merge: self.kernel_arg(args[3], locals, steps, 1, "an scm merge function")?,
                input: self.operand_arg(args[4], locals, steps)?,
            },
            SkelName::Tf => Step::Tf {
                workers,
                worker: self.kernel_arg(args[1], locals, steps, 1, "a tf worker function")?,
                acc: self.kernel_arg(args[2], locals, steps, 2, "a tf accumulator")?,
                seed: self.operand_arg(args[3], locals, steps)?,
                tasks: self.operand_arg(args[4], locals, steps)?,
            },
            SkelName::IterMem => unreachable!("handled above"),
        };
        match steps {
            Some(steps) => {
                steps.push(step);
                Ok(CVal::Op(Operand::Slot(1 + steps.len())))
            }
            None => Err(err(
                expr.span,
                "skeletons may only be applied inside the itermem loop body",
            )),
        }
    }

    /// Compiles the loop function (one parameter, the `(state, frame)`
    /// pair) to a [`CompiledBody`].
    fn compile_body(&self, fun: &Expr) -> Result<CompiledBody, Diagnostic> {
        let ExprKind::Lambda(pat, body) = &fun.kind else {
            return Err(err(
                fun.span,
                "the itermem loop must be a function of the (state, frame) pair",
            ));
        };
        let mut locals: Vec<(String, CVal)> = Vec::new();
        match pat {
            Pattern::Tuple(ps, _) if ps.len() == 2 => {
                self.bind(&ps[0], CVal::Op(Operand::Slot(0)), &mut locals)?;
                self.bind(&ps[1], CVal::Op(Operand::Slot(1)), &mut locals)?;
            }
            Pattern::Var(name, _) => {
                locals.push((
                    name.clone(),
                    CVal::Op(Operand::Tuple(vec![Operand::Slot(0), Operand::Slot(1)])),
                ));
            }
            Pattern::Wildcard(_) => {}
            other => {
                return Err(err(
                    other.span(),
                    "the loop parameter must be a (state, frame) pair pattern or a variable",
                ));
            }
        }
        let mut step_list: Vec<Step> = Vec::new();
        let mut steps = Some(&mut step_list);
        let result_v = self.walk(body, &mut locals, &mut steps)?;
        let op = self.operand(result_v, body.span)?;
        let result = (Operand::proj(op.clone(), 0), Operand::proj(op, 1));
        Ok(CompiledBody {
            steps: Arc::new(step_list),
            result,
        })
    }

    /// Walks a top-level item body (no steps may be emitted here).
    fn walk_top(&self, e: &Expr) -> Result<CVal, Diagnostic> {
        let mut locals = Vec::new();
        let mut steps: Option<&mut Vec<Step>> = None;
        self.walk(e, &mut locals, &mut steps)
    }

    /// A top-level value that must be a compile-time constant.
    fn const_arg(&self, e: &Expr, what: &str) -> Result<Value, Diagnostic> {
        let v = self.walk_top(e)?;
        let op = self.operand(v, e.span)?;
        op.const_value()
            .ok_or_else(|| err(e.span, format!("{what} must be a constant expression")))
    }
}

/// Constant-folds a binary operation on two literal values.
fn fold_binop(
    op: crate::ast::BinOp,
    a: &Value,
    b: &Value,
    span: Span,
) -> Result<Value, Diagnostic> {
    use crate::ast::BinOp as B;
    let bad = || {
        err(
            span,
            format!("operator `{op}` is not defined on {a:?} and {b:?} at compile time"),
        )
    };
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(match op {
            B::Add => Value::Int(x.wrapping_add(*y)),
            B::Sub => Value::Int(x.wrapping_sub(*y)),
            B::Mul => Value::Int(x.wrapping_mul(*y)),
            B::Div => {
                if *y == 0 {
                    return Err(err(span, "division by zero in constant expression"));
                }
                Value::Int(x.wrapping_div(*y))
            }
            B::Eq => Value::Bool(x == y),
            B::Ne => Value::Bool(x != y),
            B::Lt => Value::Bool(x < y),
            B::Gt => Value::Bool(x > y),
            B::Le => Value::Bool(x <= y),
            B::Ge => Value::Bool(x >= y),
        }),
        (Value::Float(x), Value::Float(y)) => Ok(match op {
            B::Add => Value::Float(x + y),
            B::Sub => Value::Float(x - y),
            B::Mul => Value::Float(x * y),
            B::Div => Value::Float(x / y),
            B::Eq => Value::Bool(x == y),
            B::Ne => Value::Bool(x != y),
            B::Lt => Value::Bool(x < y),
            B::Gt => Value::Bool(x > y),
            B::Le => Value::Bool(x <= y),
            B::Ge => Value::Bool(x >= y),
        }),
        (Value::Bool(x), Value::Bool(y)) => match op {
            B::Eq => Ok(Value::Bool(x == y)),
            B::Ne => Ok(Value::Bool(x != y)),
            _ => Err(bad()),
        },
        _ => Err(bad()),
    }
}

/// Compiles a type-checked program against `registry` into a
/// [`CompiledProgram`].
///
/// The program is type-checked here, first, against the registry's
/// declared signatures ([`KernelRegistry::type_env`]); compilation never
/// sees untyped text. `main` must be a fully applied
/// `itermem read loop show z0 x` where `read` is a registered source,
/// `loop` a unary function over the `(state, frame)` pair, `show` a
/// registered unary kernel, and `z0`/`x` constant expressions.
///
/// # Errors
///
/// A spanned [`Diagnostic`] for any type error or any construct outside
/// the compilable fragment (see the module docs); malformed input never
/// panics.
pub fn compile_program(
    registry: &KernelRegistry,
    program: &Program,
) -> Result<CompiledProgram, Diagnostic> {
    let env = registry.type_env()?;
    check_program(&env, program)?;
    let mut compiler = Compiler::new(registry);
    let mut main = None;
    for item in &program.items {
        if item.name == "main" {
            main = Some(item);
            continue;
        }
        let meaning = if item.params.is_empty() && !matches!(item.body.kind, ExprKind::Lambda(..)) {
            compiler.walk_top(&item.body)?
        } else {
            CVal::Fun(item.as_lambda())
        };
        compiler.globals.insert(item.name.clone(), meaning);
    }
    let Some(main) = main else {
        return Err(Diagnostic::global(
            Stage::Expand,
            "program has no `main`; expected `let main = itermem read loop show z0 x;;`",
        ));
    };
    if !main.params.is_empty() {
        return Err(err(main.span, "`main` must not take parameters"));
    }
    let (head, args) = main.body.uncurry_app();
    let is_itermem = matches!(compiler.walk_top(head), Ok(CVal::Skel(SkelName::IterMem)));
    if !is_itermem || args.len() != 5 {
        return Err(err(
            main.body.span,
            "`main` must be a fully applied `itermem read loop show z0 x`",
        ));
    }
    let source_name = match compiler.walk_top(args[0])? {
        CVal::Source(name) => name,
        _ => {
            return Err(err(
                args[0].span,
                "itermem's input must be a registered frame source",
            ));
        }
    };
    let source = Arc::clone(&compiler.registry.sources[&source_name].f);
    let loop_fun = match compiler.walk_top(args[1])? {
        CVal::Fun(f) => f,
        CVal::Kernel(k) => {
            return Err(err(
                args[1].span,
                format!(
                    "the itermem loop must be a DSL function so it can be compiled; \
                     `{}` is an opaque kernel",
                    k.name
                ),
            ));
        }
        _ => {
            return Err(err(
                args[1].span,
                "the itermem loop must be a function of the (state, frame) pair",
            ));
        }
    };
    let body = compiler.compile_body(&loop_fun)?;
    let show = match compiler.walk_top(args[2])? {
        CVal::Kernel(k) if k.remaining == 1 => k,
        _ => {
            return Err(err(
                args[2].span,
                "itermem's display must be a registered kernel of one parameter",
            ));
        }
    };
    let init = compiler.const_arg(args[3], "the initial state")?;
    let source_arg = compiler.const_arg(args[4], "the source argument")?;
    Ok(CompiledProgram {
        source_name,
        source,
        source_arg,
        body,
        init,
        show_name: show.name.to_string(),
        show,
    })
}

/// Parses, type-checks and compiles DSL source text in one step — the
/// `skipperc` front door.
///
/// # Errors
///
/// The first [`Diagnostic`] from any stage (lex/parse/type/compile).
pub fn compile_source(
    registry: &KernelRegistry,
    source: &str,
) -> Result<CompiledProgram, Diagnostic> {
    let program = crate::parser::parse_program(source)?;
    compile_program(registry, &program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper::{Backend, PoolBackend, ShardBackend, Workers};
    use skipper_exec::SimBackend;
    use skipper_net::graph::{EdgeKind, NodeKind, ProcessNetwork};
    use skipper_net::validate::is_well_formed;
    use skipper_net::FarmShape;

    fn int(v: &Value) -> i64 {
        v.as_int().expect("int value")
    }

    /// A registry of small integer kernels exercising every step shape.
    fn registry() -> KernelRegistry {
        let mut r = KernelRegistry::new();
        // Source: frame i is the integer i (first 4 frames).
        r.register_source("ints", "unit -> int", |_, i| {
            (i < 4).then(|| Value::Int(i as i64))
        })
        .expect("source registers");
        // Source: frame i is the list [i, i+1, i+2].
        r.register_source("lists", "unit -> int list", |_, i| {
            let i = i as i64;
            (i < 3).then(|| Value::list(vec![Value::Int(i), Value::Int(i + 1), Value::Int(i + 2)]))
        })
        .expect("source registers");
        r.register("double", "int -> int", |a| Value::Int(2 * int(&a[0])))
            .expect("kernel registers");
        r.register("add", "int -> int -> int", |a| {
            Value::Int(int(&a[0]) + int(&a[1]))
        })
        .expect("kernel registers");
        // nsplit k x = [x, x+1, ..., x+k-1]
        r.register("nsplit", "int -> int -> int list", |a| {
            let (k, x) = (int(&a[0]), int(&a[1]));
            Value::list((0..k).map(|j| Value::Int(x + j)).collect())
        })
        .expect("kernel registers");
        r.register("sum_list", "int list -> int", |a| {
            Value::Int(a[0].as_list().expect("list").iter().map(int).sum())
        })
        .expect("kernel registers");
        r.register("show", "int -> unit", |_| Value::Unit)
            .expect("kernel registers");
        r
    }

    const SCM_SRC: &str = "\
let loop (z, x) =
  let y = scm 2 (nsplit 2) double sum_list x in
  let z2 = add z y in
  (z2, y);;
let main = itermem ints loop show 0 ();;
";

    const DF_SRC: &str = "\
let loop (z, xs) = (df 2 double add z xs, z);;
let main = itermem lists loop show 0 ();;
";

    fn expect_compile(src: &str) -> CompiledProgram {
        match compile_source(&registry(), src) {
            Ok(p) => p,
            Err(d) => panic!("compiles: {}", d.render(src)),
        }
    }

    fn expect_diag(src: &str) -> Diagnostic {
        compile_source(&registry(), src).expect_err("must be rejected")
    }

    #[test]
    fn scm_program_runs_on_every_host_strategy() {
        let prog = expect_compile(SCM_SRC);
        let frames = prog.frames(10);
        assert_eq!(frames.len(), 4, "source ends after 4 frames");
        // Frame x: split -> [x, x+1], double -> [2x, 2x+2], sum -> 4x+2.
        let want_ys: Vec<i64> = (0..4).map(|x| 4 * x + 2).collect();
        let want_z: i64 = want_ys.iter().sum();
        let lp = prog.loop_program();
        let (z, ys) = lp.run_declarative(frames.clone());
        assert_eq!(int(&z), want_z);
        assert_eq!(ys.iter().map(int).collect::<Vec<_>>(), want_ys);
        let w = Workers::exact(2);
        let pool = PoolBackend::configured(w);
        let shards = ShardBackend::configured(2, w);
        assert_eq!(pool.run(&lp, frames.clone()), (z.clone(), ys.clone()));
        assert_eq!(shards.run(&lp, frames.clone()), (z.clone(), ys.clone()));
        let mut zs = prog.init().clone();
        let mut ys3 = Vec::new();
        for f in &frames {
            let (z2, y) = pool.run(prog.body(), &(zs, f.clone()));
            zs = z2;
            ys3.push(y);
        }
        assert_eq!((zs, ys3), (z, ys));
    }

    #[test]
    fn df_program_matches_hand_computation() {
        let prog = expect_compile(DF_SRC);
        let frames = prog.frames(10);
        assert_eq!(frames.len(), 3);
        let (z, ys) = prog.loop_program().run_declarative(frames);
        // Frame i contributes 2*(i + i+1 + i+2) = 6i + 6 to the running sum.
        assert_eq!(int(&z), 6 + 12 + 18);
        // Output is the state *before* the frame's farm.
        assert_eq!(ys.iter().map(int).collect::<Vec<_>>(), vec![0, 6, 18]);
    }

    #[test]
    fn compiled_body_lowers_onto_the_simulated_machine() {
        for src in [SCM_SRC, DF_SRC] {
            let prog = expect_compile(src);
            let frames = prog.frames(10);
            let want = prog.loop_program().run_declarative(frames.clone());
            let got = SimBackend::ring(3)
                .run(&prog.loop_program(), frames)
                .expect("simulates");
            assert_eq!(got, want, "sim output differs for {src}");
        }
    }

    #[test]
    fn show_applies_the_display_kernel() {
        let prog = expect_compile(SCM_SRC);
        assert_eq!(prog.show(&Value::Int(7)), Value::Unit);
        assert_eq!(prog.source_name(), "ints");
    }

    #[test]
    fn inline_functions_are_rejected_with_a_span() {
        let d = expect_diag(
            "let loop (z, x) = (z, scm 2 (nsplit 2) (fun v -> v) sum_list x);;\n\
             let main = itermem ints loop show 0 ();;\n",
        );
        assert_eq!(d.stage, Stage::Expand);
        assert!(d.span.is_some(), "diagnostic carries a span");
        assert!(
            d.message.contains("registered kernel"),
            "unexpected message: {}",
            d.message
        );
    }

    #[test]
    fn per_frame_arithmetic_is_rejected() {
        let d = expect_diag(
            "let loop (z, x) = (z, x + 1);;\nlet main = itermem ints loop show 0 ();;\n",
        );
        assert_eq!(d.stage, Stage::Expand);
        assert!(d.message.contains("register a kernel"), "{}", d.message);
    }

    #[test]
    fn non_constant_partial_application_is_rejected() {
        let d = expect_diag(
            "let loop (z, x) = (z, scm 2 (nsplit x) double sum_list x);;\n\
             let main = itermem ints loop show 0 ();;\n",
        );
        assert!(
            d.message.contains("compile-time constants"),
            "{}",
            d.message
        );
    }

    #[test]
    fn non_constant_degree_is_rejected() {
        let d = expect_diag(
            "let loop (z, xs) = (df xs double add z xs, z);;\n\
             let main = itermem lists loop show 0 ();;\n",
        );
        // `df xs …` fails typing (degree must be int), so the guard that
        // matters is: a *well-typed* frame-dependent degree is rejected at
        // compile stage.
        let d2 = expect_diag(
            "let loop (z, x) = (z, df x double add 0 [1]);;\n\
             let main = itermem ints loop show 0 ();;\n",
        );
        assert!(d.stage == Stage::Type || d.stage == Stage::Expand);
        assert_eq!(d2.stage, Stage::Expand);
        assert!(
            d2.message.contains("compile-time constant"),
            "{}",
            d2.message
        );
    }

    #[test]
    fn nested_skeleton_rejected() {
        // Well-typed, but SKiPPER-I forbids nesting: a skeleton argument
        // must be a registered kernel.
        let d = expect_diag(
            "let loop (z, xs) = (df 2 (scm 2 (nsplit 2) double sum_list) add z xs, z);;\n\
             let main = itermem lists loop show 0 ();;\n",
        );
        assert_eq!(d.stage, Stage::Expand);
        assert!(
            d.message
                .contains("skeletons must be fully applied in compiled programs"),
            "{}",
            d.message
        );
    }

    #[test]
    fn missing_main_is_reported() {
        let d = expect_diag("let x = 1;;\n");
        assert!(d.message.contains("no `main`"), "{}", d.message);
    }

    #[test]
    fn non_itermem_main_is_reported() {
        let d = expect_diag("let main = show 1;;\n");
        assert!(
            d.message.contains("fully applied `itermem"),
            "{}",
            d.message
        );
    }

    #[test]
    fn constant_folding_covers_arithmetic_and_division_by_zero() {
        let prog = expect_compile(
            "let k = (2 + 3) * 4;;\n\
             let loop (z, x) = (z, k);;\n\
             let main = itermem ints loop show 0 ();;\n",
        );
        let (_, ys) = prog.loop_program().run_declarative(prog.frames(1));
        assert_eq!(int(&ys[0]), 20);
        let d = expect_diag(
            "let k = 1 / 0;;\nlet loop (z, x) = (z, k);;\n\
             let main = itermem ints loop show 0 ();;\n",
        );
        assert!(d.message.contains("division by zero"), "{}", d.message);
    }

    #[test]
    fn parse_and_type_errors_surface_as_diagnostics() {
        let parse = expect_diag("let main = ;;\n");
        assert_eq!(parse.stage, Stage::Parse);
        let ty = expect_diag("let main = itermem ints show show 0 ();;\n");
        assert_eq!(ty.stage, Stage::Type);
        // Fig. 4's loop returns (next state, output); the swapped
        // (output, state) pair fails against itermem's signature.
        let swapped = expect_diag(
            "let loop (z, xs) = (xs, add z (sum_list xs));;\n\
             let main = itermem lists loop show 0 ();;\n",
        );
        assert_eq!(swapped.stage, Stage::Type);
    }

    // Skeleton expansion (Fig. 2): a compiled program prepared on
    // `SimBackend` lowers into the process network that is then scheduled
    // and run. These tests pin the shape of that network and the
    // diagnostics raised before it is built.

    /// The paper's tracker kernels (§4), integer-valued.
    fn tracker_registry() -> KernelRegistry {
        let mut r = KernelRegistry::new();
        let sig = "tracker signature parses";
        r.register_source("read_img", "dims -> image", |_, k| {
            (k < 3).then(|| Value::Int(k as i64 + 1))
        })
        .expect(sig);
        r.register("get_windows", "int -> state -> image -> window list", |a| {
            let (n, s, im) = (int(&a[0]), int(&a[1]), int(&a[2]));
            Value::list((0..n).map(|i| Value::Int(im + s % 5 + i)).collect())
        })
        .expect(sig);
        r.register("detect_mark", "window -> mark", |a| {
            Value::Int(int(&a[0]) * 3)
        })
        .expect(sig);
        r.register("accum_marks", "mark list -> mark -> mark list", |a| {
            let mut list = a[0].as_list().expect("marks list").to_vec();
            list.push(a[1].clone());
            Value::list(list)
        })
        .expect(sig);
        r.register("predict", "mark list -> state * marks_out", |a| {
            let total: i64 = a[0].as_list().expect("marks list").iter().map(int).sum();
            Value::tuple(vec![Value::Int(total % 11), Value::Int(total)])
        })
        .expect(sig);
        r.register("display_marks", "marks_out -> unit", |_| Value::Unit)
            .expect(sig);
        r.register_constant("empty_list", "mark list", Value::list(Vec::new()))
            .expect(sig);
        r.register_constant("s0", "state", Value::Int(0))
            .expect(sig);
        r.register_constant("dims512", "dims", Value::Int(512))
            .expect(sig);
        r
    }

    const TRACKER_SRC: &str = r#"
        let nproc = 8;;
        let loop (state, im) =
          let ws = get_windows nproc state im in
          let marks = df nproc detect_mark accum_marks empty_list ws in
          predict marks;;
        let main = itermem read_img loop display_marks s0 dims512;;
    "#;

    fn compile_with(registry: &KernelRegistry, src: &str) -> CompiledProgram {
        compile_source(registry, src).unwrap_or_else(|d| panic!("compiles: {}", d.render(src)))
    }

    /// Prepares `prog` on `sim` (skeleton expansion, Fig. 2), checks the simulated run against the
    /// declarative one, and returns the expanded network.
    fn sim_network(prog: &CompiledProgram, sim: &SimBackend) -> ProcessNetwork {
        let exec = Backend::<_, Vec<Value>>::prepare(sim, &prog.loop_program());
        let net = exec.statics().expect("expands").net().clone();
        let frames = prog.frames(10);
        let want = prog.loop_program().run_declarative(frames.clone());
        assert_eq!(
            sim.run(&prog.loop_program(), frames).expect("simulates"),
            want
        );
        net
    }

    fn count(net: &ProcessNetwork, pred: impl Fn(&NodeKind) -> bool) -> usize {
        net.nodes_where(pred).count()
    }

    #[test]
    fn paper_tracker_expands_to_expected_network() {
        let prog = compile_with(&tracker_registry(), TRACKER_SRC);
        let net = sim_network(&prog, &SimBackend::ring(4));
        // The itermem frame: input + output + mem + state/frame pair +
        // unpair = 5. The loop body: env + get_windows + df feed + master +
        // 8 workers + state pair + df store + predict + result = 16.
        assert_eq!(net.len(), 21);
        for kernel in ["get_windows", "predict"] {
            let calls = count(&net, |k| {
                k.function_name().is_some_and(|f| f.ends_with(kernel))
            });
            assert_eq!(calls, 1, "{kernel}");
        }
        assert_eq!(count(&net, |k| matches!(k, NodeKind::Master(_))), 1);
        assert_eq!(count(&net, |k| matches!(k, NodeKind::Worker(_))), 8);
        assert_eq!(count(&net, |k| matches!(k, NodeKind::Mem)), 1);
        assert!(
            is_well_formed(&net),
            "{:?}",
            skipper_net::validate::validate(&net)
        );
        // The itermem loop is closed by one *memory* edge (invisible to
        // topo_order), but the embedded df farm is cyclic by design:
        // master <-> worker data edges both ways.
        let mem_edges = net
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Memory)
            .count();
        assert_eq!(mem_edges, 1);
        assert!(net.topo_order().is_err());
    }

    #[test]
    fn ring_shape_adds_routers() {
        let prog = compile_with(&tracker_registry(), TRACKER_SRC);
        let routers = |shape| {
            let net = sim_network(&prog, &SimBackend::ring(4).with_farm_shape(shape));
            assert!(is_well_formed(&net));
            count(&net, |k| {
                matches!(k, NodeKind::RouterMw | NodeKind::RouterWm)
            })
        };
        assert_eq!(routers(FarmShape::Star), 0);
        assert_eq!(routers(FarmShape::Ring), 16, "8 M->W + 8 W->M routers");
    }

    #[test]
    fn scm_inside_loop_expands() {
        let mut r = KernelRegistry::new();
        let sig = "scm signature parses";
        r.register_source("grab", "cfg -> image", |_, k| {
            (k < 3).then(|| Value::Int(k as i64))
        })
        .expect(sig);
        r.register("split_rows", "image -> band list", |a| {
            Value::list((0..4).map(|j| Value::Int(int(&a[0]) + j)).collect())
        })
        .expect(sig);
        r.register("sobel", "band -> band", |a| Value::Int(2 * int(&a[0])))
            .expect(sig);
        r.register("merge_rows", "band list -> image", |a| {
            Value::Int(a[0].as_list().expect("bands").iter().map(int).sum())
        })
        .expect(sig);
        r.register("finish", "st -> image -> st * out", |a| {
            let s = int(&a[0]) + int(&a[1]);
            Value::tuple(vec![Value::Int(s), Value::Int(s)])
        })
        .expect(sig);
        r.register("show", "out -> unit", |_| Value::Unit)
            .expect(sig);
        r.register_constant("s0", "st", Value::Int(0)).expect(sig);
        r.register_constant("cfg", "cfg", Value::Unit).expect(sig);
        let prog = compile_with(
            &r,
            r#"
            let nproc = 4;;
            let loop (state, im) =
              let bands = scm nproc split_rows sobel merge_rows im in
              finish state bands;;
            let main = itermem grab loop show s0 cfg;;
            "#,
        );
        let net = sim_network(&prog, &SimBackend::ring(3));
        assert_eq!(count(&net, |k| matches!(k, NodeKind::Split(_))), 1);
        assert_eq!(count(&net, |k| matches!(k, NodeKind::Merge(_))), 1);
        let comps = count(&net, |k| {
            k.function_name().is_some_and(|f| f.ends_with("scm_comp"))
        });
        assert_eq!(comps, 4);
        // The itermem frame (input + output + mem + pair + unpair = 5) and
        // the loop body: env + scm feed + split + 4 comps + merge + scm
        // store + finish + result = 11.
        assert_eq!(net.len(), 16);
        assert!(is_well_formed(&net));
    }

    #[test]
    fn swapped_state_position_is_a_type_error() {
        // Fig. 4's contract is loop : 'c * 'b -> 'c * 'd — the next state
        // comes FIRST in the result pair. A loop returning (output, state)
        // must be rejected by type checking against itermem's signature.
        let mut r = tracker_registry();
        r.register("work", "state -> image -> marks_out * state", |a| {
            Value::tuple(vec![a[1].clone(), a[0].clone()])
        })
        .expect("work signature parses");
        let err = compile_source(
            &r,
            r#"
            let loop (state, im) =
              let r = work state im in
              r;;
            let main = itermem read_img loop display_marks s0 dims512;;
            "#,
        )
        .unwrap_err();
        assert_eq!(err.stage, Stage::Type);
        assert!(err.message.contains("mismatch"), "{}", err.message);
    }
}
