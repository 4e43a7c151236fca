//! The distributed executive: running macro-code on the simulated machine.
//!
//! This is the run-time half of the SynDEx contract: the per-processor
//! macro-programs are interpreted over the [`transvision`] simulator, with
//! *real application values* carried in the messages so that results can be
//! compared bit-for-bit with sequential emulation.
//!
//! Two communication regimes coexist, as in the paper's "mixed
//! static/dynamic scheduling of communications":
//!
//! - **static** edges execute exactly the `SEND`/`RECV` sequence fixed by
//!   the scheduler;
//! - **farm instances** (`df`) run their master/worker protocol
//!   *dynamically*: the master dispatches one work item to whichever worker
//!   is idle, accumulates results in arrival order, then broadcasts
//!   end-of-work markers — reproducing the dynamic load balancing of the
//!   Fig. 1 process network.
//!
//! Both farm PNT shapes are executable. With
//! [`skipper_net::FarmShape::Star`], messages are addressed point-to-point
//! and physical multi-hop routing is provided by the simulator's
//! store-and-forward links (which play the role of the `M->W`/`W->M`
//! router processes). With [`skipper_net::FarmShape::Ring`] — Fig. 1's
//! explicit-router PNT — forwarding is an *application-level* activity:
//! each worker processor relays items travelling down the chain and
//! results climbing back up (the internal `RingState` protocol), paying CPU
//! setup cost per hop exactly as the paper's router processes do; a drain
//! acknowledgement circulates back to the master so successive graph
//! iterations cannot overlap on the chain.

use crate::registry::{Registry, UnknownFunction};
use crate::value::Value;
use skipper_net::graph::{EdgeKind, NodeId, NodeKind, ProcessNetwork};
use skipper_syndex::macrocode::{MacroOp, MacroProgram};
use skipper_syndex::schedule::Schedule;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use transvision::cost::Ns;
use transvision::sim::{Action, Behavior, ProcView, SimConfig, SimReport, Simulation, TagFilter};
use transvision::stream::FrameClock;
use transvision::topology::{ProcId, Topology};

/// Executive failure modes.
///
/// `Clone` so a prepared executable ([`crate::SimExecutable`]) whose
/// compilation failed can hand the same error back on every run.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// A node referenced an unregistered function.
    UnknownFunction(String),
    /// An edge value was needed before being produced.
    MissingValue {
        /// Index into `net.edges()`.
        edge: usize,
    },
    /// A node produced/consumed values of an unexpected shape.
    BadShape {
        /// The offending node.
        node: NodeId,
        /// Description of the mismatch.
        what: String,
    },
    /// No initial state was supplied for a `MEM` node.
    MissingMemInit(NodeId),
    /// No initial accumulator was supplied for a farm instance.
    MissingFarmInit {
        /// The skeleton instance id.
        instance: usize,
    },
    /// A farm has workers both on and off the master's processor.
    MixedFarmPlacement {
        /// The farm's master node.
        master: NodeId,
    },
    /// The target machine has no processors (`SimBackend::ring(0)`).
    EmptyMachine,
    /// The node kind is not executable (e.g. ring-farm routers).
    UnsupportedNode {
        /// The offending node.
        node: NodeId,
        /// Why it cannot run.
        what: String,
    },
    /// The underlying simulation failed (deadlock, limits, routing).
    Sim(String),
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ExecError::MissingValue { edge } => write!(f, "value for edge {edge} not produced"),
            ExecError::BadShape { node, what } => write!(f, "bad value shape at {node}: {what}"),
            ExecError::MissingMemInit(n) => write!(f, "missing initial state for MEM node {n}"),
            ExecError::MissingFarmInit { instance } => {
                write!(
                    f,
                    "missing initial accumulator for farm instance {instance}"
                )
            }
            ExecError::MixedFarmPlacement { master } => write!(
                f,
                "farm of master {master} has workers both on and off the master's processor"
            ),
            ExecError::EmptyMachine => write!(
                f,
                "cannot lower onto a machine with no processors (SimBackend::ring(0))"
            ),
            ExecError::UnsupportedNode { node, what } => {
                write!(f, "node {node} not executable: {what}")
            }
            ExecError::Sim(s) => write!(f, "simulation failed: {s}"),
            ExecError::Internal(s) => write!(f, "internal executive error: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<UnknownFunction> for ExecError {
    fn from(e: UnknownFunction) -> Self {
        ExecError::UnknownFunction(e.0)
    }
}

/// Executive run parameters.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of graph iterations (video frames) to execute.
    pub iterations: usize,
    /// When set, `Input` nodes wait for the frame clock (25 Hz video).
    pub frame_clock: Option<FrameClock>,
    /// Simulator configuration (machine timing).
    pub sim: SimConfig,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            iterations: 1,
            frame_clock: None,
            sim: SimConfig::default(),
        }
    }
}

/// Result of an executive run.
#[derive(Debug)]
pub struct ExecReport {
    /// The raw simulation report (trace, utilisations, end time).
    pub sim: SimReport,
    /// Per-iteration latency: output completion minus frame arrival (or
    /// input production when unclocked). Missing iterations are skipped.
    pub latencies_ns: Vec<Ns>,
}

impl ExecReport {
    /// Mean per-iteration latency (0 when nothing was measured).
    pub fn mean_latency_ns(&self) -> Ns {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        self.latencies_ns.iter().sum::<Ns>() / self.latencies_ns.len() as Ns
    }
}

/// Per-farm runtime information derived from the network + schedule.
#[derive(Debug, Clone)]
struct FarmRt {
    compute: String,
    acc: String,
    init: Value,
    master_proc: ProcId,
    worker_procs: Vec<ProcId>,
    /// All workers co-located with the master: run items inline.
    local: bool,
    /// Fig. 1 ring-shaped instance (the PNT has `M->W`/`W->M` router
    /// processes): farm traffic is relayed hop-by-hop along the worker
    /// chain by the workers themselves, instead of being addressed
    /// point-to-point.
    ring: bool,
    base_tag: u32,
}

impl FarmRt {
    fn result_tag(&self) -> u32 {
        self.base_tag
    }

    fn item_tag(&self, widx: usize) -> u32 {
        self.base_tag + 1 + widx as u32
    }

    /// The end-of-drain acknowledgement circulated up a ring farm's
    /// worker chain (the last tag of this instance's 1024-tag window).
    fn ack_tag(&self) -> u32 {
        self.base_tag + 1023
    }

    /// Where worker `widx`'s upstream (towards-master) messages go.
    fn upstream_of(&self, widx: usize) -> ProcId {
        if widx == 0 {
            self.master_proc
        } else {
            self.worker_procs[widx - 1]
        }
    }

    /// The processor farm traffic enters on (the first worker of the ring
    /// chain; in star mode the master addresses workers directly).
    fn first_hop(&self) -> ProcId {
        self.worker_procs[0]
    }
}

/// Everything about a scheduled program that is **identical across
/// runs**: the process network, the SynDEx schedule, the per-processor
/// macro-code, the machine topology, the function registry and the
/// derived farm-protocol tables. Built once by [`SimStatics::analyze`]
/// (the prepare-time half of the executive) and shared by reference
/// count from then on — [`run_prepared`] only allocates per-run
/// interpreter state, never re-deriving or deep-cloning any of this.
pub struct SimStatics {
    net: ProcessNetwork,
    schedule: Schedule,
    programs: Vec<MacroProgram>,
    topo: Topology,
    registry: Arc<Registry>,
    farms: HashMap<NodeId, FarmRt>,
    /// Worker node → (master, logical worker index). `None` marks an
    /// inactive worker: a surplus worker node on a processor that already
    /// hosts one (only one worker process runs per processor, as on the
    /// real machine), or any worker of a local farm.
    farm_by_worker: HashMap<NodeId, (NodeId, Option<usize>)>,
    farm_internal_edges: HashSet<usize>,
}

impl SimStatics {
    /// The process network every run of this prepared program executes.
    pub fn net(&self) -> &ProcessNetwork {
        &self.net
    }

    /// The SynDEx schedule every run of this prepared program follows.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The generated per-processor macro-code, indexed by processor.
    pub fn programs(&self) -> &[MacroProgram] {
        &self.programs
    }
}

impl std::fmt::Debug for SimStatics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimStatics")
            .field("procs", &self.programs.len())
            .field("farms", &self.farms.len())
            .finish()
    }
}

/// Immutable context shared by all processor behaviours of one run: the
/// prepared statics plus the few per-run knobs ([`ExecConfig`]). The
/// `Deref` lets behaviour code reach the static tables (`.net`,
/// `.farms`, …) without caring which side of the prepare/run split a
/// field lives on.
struct Shared {
    stat: Arc<SimStatics>,
    clock: Option<FrameClock>,
    cost: transvision::cost::CostModel,
    iterations: usize,
}

impl std::ops::Deref for Shared {
    type Target = SimStatics;

    fn deref(&self) -> &SimStatics {
        &self.stat
    }
}

#[derive(Debug, Default)]
struct SharedLog {
    input_marks: Vec<(usize, Ns)>,
    output_marks: Vec<(usize, Ns)>,
    error: Option<ExecError>,
}

#[derive(Debug)]
enum MasterSub {
    Dispatch,
    AwaitResult,
    /// Ring farms: all ends sent, waiting for the drain ack to climb back
    /// up the worker chain before publishing the result.
    AwaitAck,
    Local,
}

struct MasterState {
    master: NodeId,
    items: VecDeque<Value>,
    idle: Vec<usize>,
    outstanding: usize,
    acc: Option<Value>,
    ends_sent: usize,
    sub: MasterSub,
}

#[derive(Debug)]
enum WorkerSub {
    Start,
    AwaitItem,
    Computed(Value),
}

struct WorkerState {
    worker: NodeId,
    master: NodeId,
    widx: usize,
    sub: WorkerSub,
}

#[derive(Debug)]
enum RingSub {
    /// Decide: drain finished (send the ack) or wait for the next message.
    AwaitMsg,
    /// A farm message arrived: deliver, compute, or relay it.
    Classify,
    /// Local computation finished; send the result upstream.
    Computed(Value),
    /// Drain ack sent upstream; leave the farm phase.
    AckSent,
}

/// One worker of a **ring-shaped** farm: it plays both its own `Worker`
/// role and the `M->W`/`W->M` router roles of its processor (Fig. 1),
/// relaying items addressed further down the chain and results/acks
/// climbing back up, until its own end marker and the downstream drain
/// ack have both arrived.
struct RingState {
    worker: NodeId,
    master: NodeId,
    widx: usize,
    own_end: bool,
    downstream_done: bool,
    sub: RingSub,
}

enum Phase {
    Fetch,
    AfterRecv { edge: usize },
    AfterInputWait { node: NodeId },
    Master(MasterState),
    Worker(WorkerState),
    Ring(RingState),
    Halted,
}

/// One processor's executive interpreter. The macro-code it interprets
/// lives in the shared statics (`shared.programs[prog].ops`) — the
/// behaviour holds an index, not a per-run copy of the program.
struct ProcBehavior {
    me: ProcId,
    prog: usize,
    shared: Rc<Shared>,
    log: Rc<RefCell<SharedLog>>,
    mem: HashMap<NodeId, Value>,
    env: HashMap<usize, Value>,
    iter: usize,
    pc: usize,
    phase: Phase,
}

impl ProcBehavior {
    fn cost_of(&self, name: &str, args: &[Value], fallback_ns: Ns) -> Ns {
        match self.shared.registry.cost_units(name, args) {
            Some(units) => self.shared.cost.work_ns(units),
            None => fallback_ns,
        }
    }

    /// Collects input values of `node` (non-farm data edges, port order).
    fn gather(&self, node: NodeId) -> Result<Vec<Value>, ExecError> {
        let mut ins: Vec<(usize, usize)> = self
            .shared
            .net
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                e.to == node
                    && e.kind == EdgeKind::Data
                    && !self.shared.farm_internal_edges.contains(i)
            })
            .map(|(i, e)| (e.to_port, i))
            .collect();
        ins.sort_unstable();
        ins.iter()
            .map(|&(_, i)| {
                self.env
                    .get(&i)
                    .cloned()
                    .ok_or(ExecError::MissingValue { edge: i })
            })
            .collect()
    }

    /// Publishes `outputs` (indexed by out-port) on all non-farm out-edges
    /// of `node` (data and memory).
    fn publish(&mut self, node: NodeId, outputs: &[Value]) -> Result<(), ExecError> {
        let targets: Vec<(usize, usize)> = self
            .shared
            .net
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, e)| e.from == node && !self.shared.farm_internal_edges.contains(i))
            .map(|(i, e)| (i, e.from_port))
            .collect();
        for (i, port) in targets {
            let v = outputs.get(port).ok_or_else(|| ExecError::BadShape {
                node,
                what: format!(
                    "node produced {} output(s) but port {port} is connected",
                    outputs.len()
                ),
            })?;
            self.env.insert(i, v.clone());
        }
        Ok(())
    }

    /// Iteration boundary: move memory-edge values into MEM state.
    fn commit_memory(&mut self) -> Result<(), ExecError> {
        let commits: Vec<(usize, NodeId)> = self
            .shared
            .net
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.kind == EdgeKind::Memory && self.shared.schedule.proc_of(e.to) == self.me
            })
            .map(|(i, e)| (i, e.to))
            .collect();
        for (i, mem_node) in commits {
            let v = self
                .env
                .get(&i)
                .cloned()
                .ok_or(ExecError::MissingValue { edge: i })?;
            self.mem.insert(mem_node, v);
        }
        Ok(())
    }

    fn exec_input(
        &mut self,
        node: NodeId,
        now_ns: Ns,
        fallback_ns: Ns,
    ) -> Result<Action<Value>, ExecError> {
        let name = self
            .shared
            .net
            .node(node)
            .kind
            .function_name()
            .expect("input carries a function")
            .to_string();
        // Input functions receive the iteration index and the current
        // virtual time, so a video source can grab the *latest* frame
        // (frame dropping when the pipeline lags, as on the real machine).
        let args = [Value::Int(self.iter as i64), Value::Int(now_ns as i64)];
        let outputs = self.shared.registry.call(&name, &args)?;
        self.publish(node, &outputs)?;
        self.log.borrow_mut().input_marks.push((self.iter, now_ns));
        let cost = self.cost_of(&name, &args, fallback_ns);
        self.phase = Phase::Fetch;
        Ok(Action::Compute {
            label: name,
            cost_ns: cost,
        })
    }

    /// Executes a `Comp` op. Returns `None` when the phase changed and the
    /// main loop should continue (farm entry), otherwise the timing action.
    fn exec_comp(
        &mut self,
        node: NodeId,
        fallback_ns: Ns,
        now_ns: Ns,
    ) -> Result<Option<Action<Value>>, ExecError> {
        let shared = Rc::clone(&self.shared);
        match &shared.net.node(node).kind {
            NodeKind::Input(_) => {
                if let Some(clock) = self.shared.clock {
                    let due = clock.frame_time(self.iter as u64);
                    if now_ns < due {
                        self.phase = Phase::AfterInputWait { node };
                        return Ok(Some(Action::Wait { until_ns: due }));
                    }
                }
                Ok(Some(self.exec_input(node, now_ns, fallback_ns)?))
            }
            NodeKind::Output(name) => {
                let args = self.gather(node)?;
                let outputs = self.shared.registry.call(name, &args)?;
                self.publish(node, &outputs)?;
                let cost = self.cost_of(name, &args, fallback_ns);
                self.log
                    .borrow_mut()
                    .output_marks
                    .push((self.iter, now_ns + cost));
                Ok(Some(Action::Compute {
                    label: name.clone(),
                    cost_ns: cost,
                }))
            }
            NodeKind::UserFn(name) => {
                let args = self.gather(node)?;
                let outputs = self.shared.registry.call(name, &args)?;
                let cost = self.cost_of(name, &args, fallback_ns);
                self.publish(node, &outputs)?;
                Ok(Some(Action::Compute {
                    label: name.clone(),
                    cost_ns: cost,
                }))
            }
            NodeKind::Split(name) => {
                let args = self.gather(node)?;
                let outputs = self.shared.registry.call(name, &args)?;
                let list = outputs
                    .first()
                    .and_then(|v| v.as_list().map(<[Value]>::to_vec))
                    .ok_or_else(|| ExecError::BadShape {
                        node,
                        what: "split function must return one list".into(),
                    })?;
                let cost = self.cost_of(name, &args, fallback_ns);
                self.publish(node, &list)?;
                Ok(Some(Action::Compute {
                    label: name.clone(),
                    cost_ns: cost,
                }))
            }
            NodeKind::Merge(name) => {
                let parts = self.gather(node)?;
                let args = [Value::list(parts)];
                let outputs = self.shared.registry.call(name, &args)?;
                let cost = self.cost_of(name, &args, fallback_ns);
                self.publish(node, &outputs)?;
                Ok(Some(Action::Compute {
                    label: name.clone(),
                    cost_ns: cost,
                }))
            }
            NodeKind::Mem => {
                let v = self
                    .mem
                    .get(&node)
                    .cloned()
                    .ok_or(ExecError::MissingMemInit(node))?;
                self.publish(node, &[v])?;
                Ok(Some(Action::Compute {
                    label: "mem".into(),
                    cost_ns: 0,
                }))
            }
            NodeKind::Master(_) => {
                let farm = shared
                    .farms
                    .get(&node)
                    .ok_or_else(|| ExecError::Internal(format!("no farm for master {node}")))?;
                let inputs = self.gather(node)?;
                let first = inputs.first().ok_or_else(|| ExecError::BadShape {
                    node,
                    what: "master needs an input".into(),
                })?;
                // A farm may be seeded *dynamically*: a loop-body farm
                // receives the `(state, items)` pair of the Fig. 4 loop
                // contract and uses the carried state as its accumulator
                // seed, while a plain farm receives the bare item list
                // and seeds from the static per-instance init table.
                let (seed, items): (Value, VecDeque<Value>) = match first {
                    Value::Tuple(t) => match &t[..] {
                        [z, items_v] => match items_v.as_list() {
                            Some(list) => (z.clone(), list.iter().cloned().collect()),
                            None => {
                                return Err(ExecError::BadShape {
                                    node,
                                    what: "seeded master input must be (state, item list)".into(),
                                })
                            }
                        },
                        _ => {
                            return Err(ExecError::BadShape {
                                node,
                                what: "seeded master input must be a 2-tuple".into(),
                            })
                        }
                    },
                    other => match other.as_list() {
                        Some(list) => (farm.init.clone(), list.iter().cloned().collect()),
                        None => {
                            return Err(ExecError::BadShape {
                                node,
                                what: "master input must be a list or a (state, items) tuple"
                                    .into(),
                            })
                        }
                    },
                };
                let sub = if farm.local {
                    MasterSub::Local
                } else {
                    MasterSub::Dispatch
                };
                self.phase = Phase::Master(MasterState {
                    master: node,
                    items,
                    idle: (0..farm.worker_procs.len()).rev().collect(),
                    outstanding: 0,
                    acc: Some(seed),
                    ends_sent: 0,
                    sub,
                });
                Ok(None)
            }
            NodeKind::Worker(_) => {
                let (master, widx) = *self
                    .shared
                    .farm_by_worker
                    .get(&node)
                    .ok_or_else(|| ExecError::Internal(format!("no farm for worker {node}")))?;
                let Some(widx) = widx else {
                    // Inactive worker: local farm, or surplus worker node
                    // on a processor that already runs one.
                    return Ok(Some(Action::Compute {
                        label: "worker-idle".into(),
                        cost_ns: 0,
                    }));
                };
                let farm = &self.shared.farms[&master];
                if farm.ring {
                    let last = widx + 1 == farm.worker_procs.len();
                    self.phase = Phase::Ring(RingState {
                        worker: node,
                        master,
                        widx,
                        own_end: false,
                        downstream_done: last,
                        sub: RingSub::AwaitMsg,
                    });
                } else {
                    self.phase = Phase::Worker(WorkerState {
                        worker: node,
                        master,
                        widx,
                        sub: WorkerSub::Start,
                    });
                }
                Ok(None)
            }
            // The routers' forwarding work is performed by the ring relay
            // phase entered at the worker node of the same processor (see
            // `RingState`); the router nodes themselves exist for
            // structural and mapping fidelity with Fig. 1.
            NodeKind::RouterMw | NodeKind::RouterWm => Ok(Some(Action::Compute {
                label: "router".into(),
                cost_ns: 0,
            })),
        }
    }

    fn master_step(
        &mut self,
        mut ms: MasterState,
        view: &ProcView<'_, Value>,
    ) -> Result<Option<Action<Value>>, ExecError> {
        let master = ms.master;
        // Borrow the farm tables through a refcount bump on the shared
        // context — the per-step `FarmRt` deep clone was hot-path cost.
        let shared = Rc::clone(&self.shared);
        let farm = &shared.farms[&master];
        match ms.sub {
            MasterSub::Dispatch => {
                if !ms.items.is_empty() && !ms.idle.is_empty() {
                    let w = ms.idle.pop().expect("idle non-empty");
                    let item = ms.items.pop_front().expect("items non-empty");
                    ms.outstanding += 1;
                    let bytes = item.byte_size();
                    // Ring farms: everything enters the worker chain at
                    // its head and is relayed to the addressed worker.
                    let to = if farm.ring {
                        farm.first_hop()
                    } else {
                        farm.worker_procs[w]
                    };
                    let tag = farm.item_tag(w);
                    self.phase = Phase::Master(ms);
                    return Ok(Some(Action::Send {
                        to,
                        tag,
                        bytes,
                        payload: item,
                    }));
                }
                if ms.outstanding > 0 {
                    ms.sub = MasterSub::AwaitResult;
                    self.phase = Phase::Master(ms);
                    return Ok(Some(Action::Recv {
                        from: None,
                        tag: TagFilter::Exact(farm.result_tag()),
                    }));
                }
                if ms.ends_sent < farm.worker_procs.len() {
                    let w = ms.ends_sent;
                    ms.ends_sent += 1;
                    let to = if farm.ring {
                        farm.first_hop()
                    } else {
                        farm.worker_procs[w]
                    };
                    let tag = farm.item_tag(w);
                    self.phase = Phase::Master(ms);
                    return Ok(Some(Action::Send {
                        to,
                        tag,
                        bytes: 1,
                        payload: Value::End,
                    }));
                }
                if farm.ring {
                    // Wait for the drain ack so the chain is quiescent
                    // before the next graph iteration reuses its tags.
                    ms.sub = MasterSub::AwaitAck;
                    self.phase = Phase::Master(ms);
                    return Ok(Some(Action::Recv {
                        from: Some(farm.first_hop()),
                        tag: TagFilter::Exact(farm.ack_tag()),
                    }));
                }
                let result = ms.acc.take().expect("accumulator present");
                self.publish(master, &[result])?;
                self.phase = Phase::Fetch;
                Ok(None)
            }
            MasterSub::AwaitAck => {
                view.last_message
                    .ok_or_else(|| ExecError::Internal("master awaited ring ack, none".into()))?;
                let result = ms.acc.take().expect("accumulator present");
                self.publish(master, &[result])?;
                self.phase = Phase::Fetch;
                Ok(None)
            }
            MasterSub::AwaitResult => {
                let msg = view
                    .last_message
                    .ok_or_else(|| ExecError::Internal("master awaited result, none".into()))?;
                let pair = msg.payload.as_tuple().ok_or_else(|| ExecError::BadShape {
                    node: master,
                    what: "worker result must be (index, value)".into(),
                })?;
                let widx = pair[0].as_int().ok_or_else(|| ExecError::BadShape {
                    node: master,
                    what: "worker index must be an int".into(),
                })? as usize;
                let result = pair[1].clone();
                ms.idle.push(widx);
                ms.outstanding -= 1;
                let prev = ms.acc.take().expect("accumulator present");
                let args = [prev, result];
                let outputs = self.shared.registry.call(&farm.acc, &args)?;
                let new_acc = outputs
                    .into_iter()
                    .next()
                    .ok_or_else(|| ExecError::BadShape {
                        node: master,
                        what: "accumulation function must return one value".into(),
                    })?;
                let cost = self.cost_of(&farm.acc, &args, 0);
                ms.acc = Some(new_acc);
                ms.sub = MasterSub::Dispatch;
                self.phase = Phase::Master(ms);
                Ok(Some(Action::Compute {
                    label: farm.acc.clone(),
                    cost_ns: cost,
                }))
            }
            MasterSub::Local => {
                if let Some(item) = ms.items.pop_front() {
                    let args = [item];
                    let outputs = self.shared.registry.call(&farm.compute, &args)?;
                    let r = outputs
                        .into_iter()
                        .next()
                        .ok_or_else(|| ExecError::BadShape {
                            node: master,
                            what: "compute function must return one value".into(),
                        })?;
                    let comp_cost = self.cost_of(&farm.compute, &args, 0);
                    let prev = ms.acc.take().expect("accumulator present");
                    let acc_args = [prev, r];
                    let acc_out = self.shared.registry.call(&farm.acc, &acc_args)?;
                    let new_acc =
                        acc_out
                            .into_iter()
                            .next()
                            .ok_or_else(|| ExecError::BadShape {
                                node: master,
                                what: "accumulation function must return one value".into(),
                            })?;
                    let acc_cost = self.cost_of(&farm.acc, &acc_args, 0);
                    ms.acc = Some(new_acc);
                    self.phase = Phase::Master(ms);
                    return Ok(Some(Action::Compute {
                        label: farm.compute.clone(),
                        cost_ns: comp_cost + acc_cost,
                    }));
                }
                let result = ms.acc.take().expect("accumulator present");
                self.publish(master, &[result])?;
                self.phase = Phase::Fetch;
                Ok(None)
            }
        }
    }

    fn worker_step(
        &mut self,
        mut ws: WorkerState,
        view: &ProcView<'_, Value>,
    ) -> Result<Option<Action<Value>>, ExecError> {
        let shared = Rc::clone(&self.shared);
        let farm = &shared.farms[&ws.master];
        match ws.sub {
            WorkerSub::Start => {
                let tag = farm.item_tag(ws.widx);
                ws.sub = WorkerSub::AwaitItem;
                self.phase = Phase::Worker(ws);
                Ok(Some(Action::Recv {
                    from: Some(farm.master_proc),
                    tag: TagFilter::Exact(tag),
                }))
            }
            WorkerSub::AwaitItem => {
                let msg = view
                    .last_message
                    .ok_or_else(|| ExecError::Internal("worker awaited item, none".into()))?;
                if msg.payload.is_end() {
                    self.phase = Phase::Fetch;
                    return Ok(None);
                }
                let args = [msg.payload.clone()];
                let outputs = self.shared.registry.call(&farm.compute, &args)?;
                let r = outputs
                    .into_iter()
                    .next()
                    .ok_or_else(|| ExecError::BadShape {
                        node: ws.worker,
                        what: "compute function must return one value".into(),
                    })?;
                let cost = self.cost_of(&farm.compute, &args, 0);
                let label = farm.compute.clone();
                ws.sub = WorkerSub::Computed(r);
                self.phase = Phase::Worker(ws);
                Ok(Some(Action::Compute {
                    label,
                    cost_ns: cost,
                }))
            }
            WorkerSub::Computed(r) => {
                let payload = Value::tuple(vec![Value::Int(ws.widx as i64), r]);
                let bytes = payload.byte_size();
                let to = farm.master_proc;
                let tag = farm.result_tag();
                ws.sub = WorkerSub::Start;
                self.phase = Phase::Worker(ws);
                Ok(Some(Action::Send {
                    to,
                    tag,
                    bytes,
                    payload,
                }))
            }
        }
    }

    /// One step of the ring relay protocol (Fig. 1's `M->W`/`W->M`
    /// routers folded into the worker process of each chain processor).
    ///
    /// Invariant used for termination: links deliver in FIFO order and
    /// the master sends end markers only after the last item, so by the
    /// time this worker holds its own end marker *and* the downstream
    /// drain ack, no farm message can still be in flight through it —
    /// forwarding the ack upstream is then safe.
    fn ring_step(
        &mut self,
        mut rs: RingState,
        view: &ProcView<'_, Value>,
    ) -> Result<Option<Action<Value>>, ExecError> {
        let shared = Rc::clone(&self.shared);
        let farm = &shared.farms[&rs.master];
        let upstream = farm.upstream_of(rs.widx);
        match std::mem::replace(&mut rs.sub, RingSub::AwaitMsg) {
            RingSub::AwaitMsg => {
                if rs.own_end && rs.downstream_done {
                    rs.sub = RingSub::AckSent;
                    self.phase = Phase::Ring(rs);
                    return Ok(Some(Action::Send {
                        to: upstream,
                        tag: farm.ack_tag(),
                        bytes: 1,
                        payload: Value::End,
                    }));
                }
                // Match only this instance's 1024-tag window: messages for
                // *later* static operations of this processor must stay
                // queued, not be consumed by the farm phase.
                rs.sub = RingSub::Classify;
                self.phase = Phase::Ring(rs);
                Ok(Some(Action::Recv {
                    from: None,
                    tag: TagFilter::Range {
                        lo: farm.base_tag,
                        hi: farm.ack_tag(),
                    },
                }))
            }
            RingSub::Classify => {
                let msg = view.last_message.ok_or_else(|| {
                    ExecError::Internal("ring worker awaited farm message, none".into())
                })?;
                let tag = msg.tag;
                let payload = msg.payload.clone();
                if tag == farm.ack_tag() {
                    rs.downstream_done = true;
                    self.phase = Phase::Ring(rs);
                    return Ok(None);
                }
                if tag == farm.result_tag() {
                    // A result climbing towards the master: relay it.
                    let bytes = payload.byte_size();
                    self.phase = Phase::Ring(rs);
                    return Ok(Some(Action::Send {
                        to: upstream,
                        tag,
                        bytes,
                        payload,
                    }));
                }
                let target = (tag - farm.base_tag - 1) as usize;
                if target == rs.widx {
                    if payload.is_end() {
                        rs.own_end = true;
                        self.phase = Phase::Ring(rs);
                        return Ok(None);
                    }
                    let args = [payload];
                    let outputs = self.shared.registry.call(&farm.compute, &args)?;
                    let r = outputs
                        .into_iter()
                        .next()
                        .ok_or_else(|| ExecError::BadShape {
                            node: rs.worker,
                            what: "compute function must return one value".into(),
                        })?;
                    let cost = self.cost_of(&farm.compute, &args, 0);
                    let label = farm.compute.clone();
                    rs.sub = RingSub::Computed(r);
                    self.phase = Phase::Ring(rs);
                    return Ok(Some(Action::Compute {
                        label,
                        cost_ns: cost,
                    }));
                }
                // An item or end marker addressed further down the chain.
                let downstream = *farm.worker_procs.get(rs.widx + 1).ok_or_else(|| {
                    ExecError::Internal(format!(
                        "ring relay at the end of the chain received a message for worker {target}"
                    ))
                })?;
                let bytes = payload.byte_size();
                self.phase = Phase::Ring(rs);
                Ok(Some(Action::Send {
                    to: downstream,
                    tag,
                    bytes,
                    payload,
                }))
            }
            RingSub::Computed(r) => {
                let payload = Value::tuple(vec![Value::Int(rs.widx as i64), r]);
                let bytes = payload.byte_size();
                let tag = farm.result_tag();
                self.phase = Phase::Ring(rs);
                Ok(Some(Action::Send {
                    to: upstream,
                    tag,
                    bytes,
                    payload,
                }))
            }
            RingSub::AckSent => {
                self.phase = Phase::Fetch;
                Ok(None)
            }
        }
    }

    fn try_next(&mut self, view: &ProcView<'_, Value>) -> Result<Action<Value>, ExecError> {
        loop {
            match std::mem::replace(&mut self.phase, Phase::Fetch) {
                Phase::Halted => {
                    self.phase = Phase::Halted;
                    return Ok(Action::Halt);
                }
                Phase::AfterRecv { edge } => {
                    let msg = view.last_message.ok_or_else(|| {
                        ExecError::Internal("recv completed without message".into())
                    })?;
                    self.env.insert(edge, msg.payload.clone());
                }
                Phase::AfterInputWait { node } => {
                    return self.exec_input(node, view.now_ns, 0);
                }
                Phase::Master(ms) => {
                    if let Some(a) = self.master_step(ms, view)? {
                        return Ok(a);
                    }
                }
                Phase::Worker(ws) => {
                    if let Some(a) = self.worker_step(ws, view)? {
                        return Ok(a);
                    }
                }
                Phase::Ring(rs) => {
                    if let Some(a) = self.ring_step(rs, view)? {
                        return Ok(a);
                    }
                }
                Phase::Fetch => {
                    let shared = Rc::clone(&self.shared);
                    let ops = &shared.programs[self.prog].ops;
                    if self.pc >= ops.len() {
                        self.commit_memory()?;
                        self.env.clear();
                        self.iter += 1;
                        self.pc = 0;
                        if self.iter >= self.shared.iterations || ops.is_empty() {
                            self.phase = Phase::Halted;
                            return Ok(Action::Halt);
                        }
                        continue;
                    }
                    // Interpret the op in place: the macro-code stays in
                    // the shared statics, nothing is cloned per fetch.
                    let op = &ops[self.pc];
                    self.pc += 1;
                    match *op {
                        MacroOp::Recv { edge, from, tag } => {
                            self.phase = Phase::AfterRecv { edge };
                            return Ok(Action::Recv {
                                from: Some(from),
                                tag: TagFilter::Exact(tag),
                            });
                        }
                        MacroOp::Send { edge, to, tag, .. } => {
                            let v = self
                                .env
                                .get(&edge)
                                .cloned()
                                .ok_or(ExecError::MissingValue { edge })?;
                            let bytes = v.byte_size();
                            return Ok(Action::Send {
                                to,
                                tag,
                                bytes,
                                payload: v,
                            });
                        }
                        MacroOp::Comp { node, cost_ns, .. } => {
                            if let Some(a) = self.exec_comp(node, cost_ns, view.now_ns)? {
                                return Ok(a);
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Behavior<Value> for ProcBehavior {
    fn next(&mut self, view: ProcView<'_, Value>) -> Action<Value> {
        match self.try_next(&view) {
            Ok(a) => a,
            Err(e) => {
                let mut log = self.log.borrow_mut();
                if log.error.is_none() {
                    log.error = Some(e);
                }
                self.phase = Phase::Halted;
                Action::Halt
            }
        }
    }
}

/// Runs `iterations` of the scheduled process graph on the simulated
/// machine.
///
/// - `mem_init` supplies the initial state of every `MEM` node;
/// - `farm_init` supplies the initial accumulator of every farm instance
///   (keyed by skeleton instance id).
///
/// # Errors
///
/// Any [`ExecError`]; in particular [`ExecError::Sim`] wraps simulator
/// deadlocks and limit violations.
#[allow(clippy::too_many_arguments)]
pub fn run_simulated(
    net: &ProcessNetwork,
    schedule: &Schedule,
    programs: &[MacroProgram],
    topo: Topology,
    registry: Arc<Registry>,
    mem_init: &HashMap<NodeId, Value>,
    farm_init: &HashMap<usize, Value>,
    config: &ExecConfig,
) -> Result<ExecReport, ExecError> {
    let stat = Arc::new(SimStatics::analyze(
        net.clone(),
        schedule.clone(),
        programs.to_vec(),
        topo,
        registry,
        farm_init,
    )?);
    run_prepared(&stat, mem_init, config)
}

impl SimStatics {
    /// Derives the run-invariant executive context from a scheduled
    /// program: validates and indexes every farm instance, classifies
    /// farm-internal edges, and takes ownership of the network, schedule,
    /// macro-code, topology and registry. This is prepare-time work —
    /// a compiled executable calls it once and every run shares the
    /// result by `Arc`.
    ///
    /// # Errors
    ///
    /// Farm-shape violations ([`ExecError::MixedFarmPlacement`],
    /// [`ExecError::MissingFarmInit`]) and internal invariant breaches.
    pub fn analyze(
        net: ProcessNetwork,
        schedule: Schedule,
        programs: Vec<MacroProgram>,
        topo: Topology,
        registry: Arc<Registry>,
        farm_init: &HashMap<usize, Value>,
    ) -> Result<SimStatics, ExecError> {
        assert!(
            net.edges().len() < 1_000_000,
            "edge indices must stay below the farm tag space"
        );
        // Farm runtime info.
        let mut farms = HashMap::new();
        let mut farm_by_worker = HashMap::new();
        let mut farm_instances = HashSet::new();
        for node in net.nodes() {
            if let NodeKind::Master(acc) = &node.kind {
                let inst = node
                    .instance
                    .ok_or_else(|| ExecError::Internal("master without instance".into()))?;
                farm_instances.insert(inst);
                let worker_nodes: Vec<NodeId> = net
                    .nodes()
                    .iter()
                    .filter(|n| n.instance == Some(inst) && matches!(n.kind, NodeKind::Worker(_)))
                    .map(|n| n.id)
                    .collect();
                let compute = worker_nodes
                    .first()
                    .and_then(|&w| net.node(w).kind.function_name())
                    .ok_or_else(|| ExecError::Internal("farm without workers".into()))?
                    .to_string();
                let master_proc = schedule.proc_of(node.id);
                let all_procs: Vec<ProcId> =
                    worker_nodes.iter().map(|&w| schedule.proc_of(w)).collect();
                let any_remote = all_procs.iter().any(|&p| p != master_proc);
                let any_colocated = all_procs.contains(&master_proc);
                if any_remote && any_colocated {
                    return Err(ExecError::MixedFarmPlacement { master: node.id });
                }
                let local = !any_remote;
                // One logical worker per processor: the first worker node on a
                // processor is active; any surplus is inactive.
                let mut worker_procs: Vec<ProcId> = Vec::new();
                let mut assignment: Vec<Option<usize>> = Vec::with_capacity(worker_nodes.len());
                for &p in &all_procs {
                    if local || worker_procs.contains(&p) {
                        assignment.push(None);
                    } else {
                        worker_procs.push(p);
                        assignment.push(Some(worker_procs.len() - 1));
                    }
                }
                let init = farm_init
                    .get(&inst)
                    .cloned()
                    .ok_or(ExecError::MissingFarmInit { instance: inst })?;
                // Router nodes mark a Fig. 1 ring-shaped instance: the farm
                // protocol then relays messages along the worker chain.
                let ring = net.nodes().iter().any(|n| {
                    n.instance == Some(inst)
                        && matches!(n.kind, NodeKind::RouterMw | NodeKind::RouterWm)
                });
                if worker_procs.len() > 1022 {
                    return Err(ExecError::Internal(format!(
                        "farm instance {inst} spans {} processors, exceeding its 1024-tag window",
                        worker_procs.len()
                    )));
                }
                let farm = FarmRt {
                    compute,
                    acc: acc.clone(),
                    init,
                    master_proc,
                    worker_procs,
                    local,
                    ring,
                    base_tag: 1_000_000 + inst as u32 * 1024,
                };
                for (&w, &widx) in worker_nodes.iter().zip(&assignment) {
                    farm_by_worker.insert(w, (node.id, widx));
                }
                farms.insert(node.id, farm);
            }
        }
        let farm_internal_edges: HashSet<usize> = net
            .edges()
            .iter()
            .enumerate()
            .filter(
                |(_, e)| match (net.node(e.from).instance, net.node(e.to).instance) {
                    (Some(a), Some(b)) => a == b && farm_instances.contains(&a),
                    _ => false,
                },
            )
            .map(|(i, _)| i)
            .collect();
        Ok(SimStatics {
            net,
            schedule,
            programs,
            topo,
            registry,
            farms,
            farm_by_worker,
            farm_internal_edges,
        })
    }
}

/// Runs `config.iterations` of a prepared program ([`SimStatics`]) on the
/// simulated machine. The statics are shared by reference count; only
/// the per-run interpreter state (environments, MEM seeds, the simulator
/// itself) is allocated here — this is the zero-copy run-many half of
/// the prepare/run contract.
///
/// # Errors
///
/// Any [`ExecError`]; in particular [`ExecError::Sim`] wraps simulator
/// deadlocks and limit violations.
pub fn run_prepared(
    stat: &Arc<SimStatics>,
    mem_init: &HashMap<NodeId, Value>,
    config: &ExecConfig,
) -> Result<ExecReport, ExecError> {
    let shared = Rc::new(Shared {
        stat: Arc::clone(stat),
        clock: config.frame_clock,
        cost: config.sim.cost,
        iterations: config.iterations,
    });
    let log = Rc::new(RefCell::new(SharedLog::default()));
    let mut sim = Simulation::<Value>::new(stat.topo.clone(), config.sim);
    for (idx, prog) in stat.programs.iter().enumerate() {
        // Initial MEM states hosted on this processor.
        let mem: HashMap<NodeId, Value> = mem_init
            .iter()
            .filter(|(&n, _)| stat.schedule.proc_of(n) == prog.proc)
            .map(|(&n, v)| (n, v.clone()))
            .collect();
        sim.set_behavior(
            prog.proc,
            ProcBehavior {
                me: prog.proc,
                prog: idx,
                shared: Rc::clone(&shared),
                log: Rc::clone(&log),
                mem,
                env: HashMap::new(),
                iter: 0,
                pc: 0,
                phase: Phase::Fetch,
            },
        );
    }
    let sim_result = sim.run();
    let mut log = Rc::try_unwrap(log)
        .map_err(|_| ExecError::Internal("log still shared".into()))?
        .into_inner();
    if let Some(e) = log.error.take() {
        return Err(e);
    }
    let sim_report = sim_result.map_err(|e| ExecError::Sim(e.to_string()))?;
    // Per-iteration processing latency: output completion minus the time
    // the input was actually grabbed. (With a frame clock, grabs never run
    // ahead of frame arrival; when the pipeline lags, the grab happens late
    // and the latency measures processing, not queueing — the backlog shows
    // up as frame decimation instead, as on the real platform.)
    let mut latencies = Vec::new();
    for k in 0..config.iterations {
        let base = log
            .input_marks
            .iter()
            .filter(|(i, _)| *i == k)
            .map(|&(_, t)| t)
            .min();
        let out = log
            .output_marks
            .iter()
            .filter(|(i, _)| *i == k)
            .map(|&(_, t)| t)
            .max();
        if let (Some(b), Some(o)) = (base, out) {
            latencies.push(o.saturating_sub(b));
        }
    }
    Ok(ExecReport {
        sim: sim_report,
        latencies_ns: latencies,
    })
}
