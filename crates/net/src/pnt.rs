//! Skeleton expansion: instantiating process network templates.
//!
//! Each function below reproduces one of the paper's PNTs:
//!
//! - [`expand_df`] — Fig. 1: a `Master` process dispatching items to `n`
//!   `Worker` processes, either directly (star shape) or through the
//!   `M->W` / `W->M` router chains of the ring-connected Transvision
//!   configuration;
//! - [`expand_scm`] — the Split/Compute/Merge geometric template;
//! - [`expand_itermem`] — Fig. 4: the stream loop with a `MEM` process
//!   delaying the state by one iteration.

use crate::dtype::DataType;
use crate::graph::{GraphError, NodeId, NodeKind, ProcessNetwork};

/// Physical flavour of a farm template (the paper's PNTs are written per
/// target architecture; Fig. 1 shows the ring one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FarmShape {
    /// Master directly connected to every worker (star/fully-connected
    /// machines).
    Star,
    /// Fig. 1: master and workers on a ring, with `M->W` and `W->M` router
    /// processes on every worker processor.
    Ring,
}

/// Concrete edge types of a `df` instance (post type inference).
///
/// Mirrors the paper's signature
/// `df : int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c`.
#[derive(Debug, Clone, PartialEq)]
pub struct DfTypes {
    /// `'a` — items dispatched to workers.
    pub item: DataType,
    /// `'b` — per-item results returned by workers.
    pub result: DataType,
    /// `'c` — the accumulator / final result.
    pub acc: DataType,
}

/// Node handles of an expanded farm.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmHandles {
    /// The master control node — both dataflow entry (takes `'a list`) and
    /// exit (emits `'c`).
    pub master: NodeId,
    /// The worker nodes, in index order.
    pub workers: Vec<NodeId>,
    /// Ring `M->W` routers (empty for star shape).
    pub routers_mw: Vec<NodeId>,
    /// Ring `W->M` routers (empty for star shape).
    pub routers_wm: Vec<NodeId>,
    /// The skeleton instance id.
    pub instance: usize,
}

/// Expands a `df` (data-farming) template into `net`.
///
/// `compute` and `acc` are the names of the user's sequential functions
/// (the paper's `detect_mark` / `accum_marks`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn expand_df(
    net: &mut ProcessNetwork,
    n: usize,
    compute: &str,
    acc: &str,
    types: DfTypes,
    shape: FarmShape,
) -> FarmHandles {
    assert!(n > 0, "a farm needs at least one worker");
    let inst = net.fresh_instance();
    let prefix = format!("df{inst}");
    let master = net.add_instance_node(
        NodeKind::Master(acc.to_string()),
        format!("{prefix}.master[{acc}]"),
        inst,
    );
    let mut workers = Vec::with_capacity(n);
    let mut routers_mw = Vec::new();
    let mut routers_wm = Vec::new();
    match shape {
        FarmShape::Star => {
            for i in 0..n {
                let w = net.add_instance_node(
                    NodeKind::Worker(compute.to_string()),
                    format!("{prefix}.worker{i}"),
                    inst,
                );
                net.add_data_edge(master, 1 + i, w, 0, types.item.clone())
                    .expect("nodes exist");
                net.add_data_edge(w, 0, master, 1 + i, types.result.clone())
                    .expect("nodes exist");
                workers.push(w);
            }
        }
        FarmShape::Ring => {
            // Fig. 1: router chains M->W (outbound) and W->M (inbound),
            // one router pair per worker processor.
            let mut prev_mw = master;
            for i in 0..n {
                let mw = net.add_instance_node(NodeKind::RouterMw, format!("{prefix}.mw{i}"), inst);
                net.add_data_edge(prev_mw, 1, mw, 0, types.item.clone())
                    .expect("nodes exist");
                let w = net.add_instance_node(
                    NodeKind::Worker(compute.to_string()),
                    format!("{prefix}.worker{i}"),
                    inst,
                );
                net.add_data_edge(mw, 1, w, 0, types.item.clone())
                    .expect("nodes exist");
                routers_mw.push(mw);
                workers.push(w);
                prev_mw = mw;
            }
            let mut prev_wm = master;
            for (i, &w) in workers.iter().enumerate() {
                let wm = net.add_instance_node(NodeKind::RouterWm, format!("{prefix}.wm{i}"), inst);
                net.add_data_edge(wm, 0, prev_wm, 2, types.result.clone())
                    .expect("nodes exist");
                net.add_data_edge(w, 0, wm, 1, types.result.clone())
                    .expect("nodes exist");
                routers_wm.push(wm);
                prev_wm = wm;
            }
        }
    }
    FarmHandles {
        master,
        workers,
        routers_mw,
        routers_wm,
        instance: inst,
    }
}

/// Concrete edge types of an `scm` instance:
/// `scm : int -> ('a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd) -> 'a -> 'd`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScmTypes {
    /// `'a` — whole-domain input.
    pub input: DataType,
    /// `'b` — sub-domain sent to each compute node.
    pub fragment: DataType,
    /// `'c` — per-fragment result.
    pub partial: DataType,
    /// `'d` — merged result.
    pub output: DataType,
}

/// Node handles of an expanded `scm`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScmHandles {
    /// The splitter (dataflow entry).
    pub split: NodeId,
    /// The compute nodes.
    pub workers: Vec<NodeId>,
    /// The merger (dataflow exit).
    pub merge: NodeId,
    /// The skeleton instance id.
    pub instance: usize,
}

/// Expands an `scm` (split/compute/merge) template into `net`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn expand_scm(
    net: &mut ProcessNetwork,
    n: usize,
    split: &str,
    compute: &str,
    merge: &str,
    types: ScmTypes,
) -> ScmHandles {
    assert!(n > 0, "scm needs at least one compute node");
    let inst = net.fresh_instance();
    let prefix = format!("scm{inst}");
    let split_n = net.add_instance_node(
        NodeKind::Split(split.to_string()),
        format!("{prefix}.split[{split}]"),
        inst,
    );
    let merge_n = net.add_instance_node(
        NodeKind::Merge(merge.to_string()),
        format!("{prefix}.merge[{merge}]"),
        inst,
    );
    let mut workers = Vec::with_capacity(n);
    for i in 0..n {
        let w = net.add_instance_node(
            NodeKind::UserFn(compute.to_string()),
            format!("{prefix}.comp{i}"),
            inst,
        );
        net.add_data_edge(split_n, i, w, 0, types.fragment.clone())
            .expect("nodes exist");
        net.add_data_edge(w, 0, merge_n, i, types.partial.clone())
            .expect("nodes exist");
        workers.push(w);
    }
    ScmHandles {
        split: split_n,
        workers,
        merge: merge_n,
        instance: inst,
    }
}

/// Concrete edge types of an `itermem` instance (Fig. 4):
/// `itermem : ('a -> 'b) -> ('c * 'b -> 'c * 'd) -> ('d -> unit) -> 'c -> 'a -> unit`.
#[derive(Debug, Clone, PartialEq)]
pub struct IterMemTypes {
    /// `'b` — per-iteration input produced by `inp`.
    pub input: DataType,
    /// `'c` — the looped state (memory).
    pub state: DataType,
    /// `'d` — per-iteration output consumed by `out`.
    pub output: DataType,
}

/// Node handles of an expanded `itermem`.
#[derive(Debug, Clone, PartialEq)]
pub struct IterMemHandles {
    /// The stream input node wrapping `inp`.
    pub input: NodeId,
    /// The `MEM` delay node.
    pub mem: NodeId,
    /// The stream output node wrapping `out`.
    pub output: NodeId,
    /// The skeleton instance id.
    pub instance: usize,
}

/// Expands an `itermem` template around an existing loop body.
///
/// `loop_entry` must accept the per-iteration input on port 0 and the state
/// on port 1; `loop_exit` must produce the per-iteration output on port 0
/// and the next state on port 1 (this is the `(z', y) = loop (z, inp x)`
/// contract of Fig. 4).
///
/// # Errors
///
/// Returns [`GraphError::UnknownNode`] if the loop endpoints are not in
/// `net`.
pub fn expand_itermem(
    net: &mut ProcessNetwork,
    inp: &str,
    out: &str,
    loop_entry: NodeId,
    loop_exit: NodeId,
    types: IterMemTypes,
) -> Result<IterMemHandles, GraphError> {
    let inst = net.fresh_instance();
    let prefix = format!("itermem{inst}");
    let input = net.add_instance_node(
        NodeKind::Input(inp.to_string()),
        format!("{prefix}.inp[{inp}]"),
        inst,
    );
    let output = net.add_instance_node(
        NodeKind::Output(out.to_string()),
        format!("{prefix}.out[{out}]"),
        inst,
    );
    let mem = net.add_instance_node(NodeKind::Mem, format!("{prefix}.mem"), inst);
    net.add_data_edge(input, 0, loop_entry, 0, types.input.clone())?;
    net.add_data_edge(mem, 0, loop_entry, 1, types.state.clone())?;
    net.add_data_edge(loop_exit, 0, output, 0, types.output.clone())?;
    net.add_memory_edge(loop_exit, 1, mem, 0, types.state.clone())?;
    Ok(IterMemHandles {
        input,
        mem,
        output,
        instance: inst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;

    fn int_types() -> DfTypes {
        DfTypes {
            item: DataType::Int,
            result: DataType::Int,
            acc: DataType::Int,
        }
    }

    #[test]
    fn df_star_structure() {
        let mut net = ProcessNetwork::new("t");
        let h = expand_df(&mut net, 4, "comp", "acc", int_types(), FarmShape::Star);
        assert_eq!(h.workers.len(), 4);
        assert!(h.routers_mw.is_empty());
        assert_eq!(net.len(), 5); // master + 4 workers

        // Master connects to every worker both ways.
        for &w in &h.workers {
            assert!(net.successors(h.master).contains(&w));
            assert!(net.successors(w).contains(&h.master));
        }
        assert!(
            net.topo_order().is_err(),
            "farm graphs are cyclic by design"
        );
    }

    #[test]
    fn df_ring_matches_fig1() {
        // Fig. 1 with n workers: 1 master + n workers + n M->W + n W->M.
        let mut net = ProcessNetwork::new("t");
        let h = expand_df(&mut net, 3, "comp", "acc", int_types(), FarmShape::Ring);
        assert_eq!(net.len(), 1 + 3 * 3);
        assert_eq!(h.routers_mw.len(), 3);
        assert_eq!(h.routers_wm.len(), 3);
        // Outbound chain: master -> mw0 -> mw1 -> mw2.
        assert!(net.successors(h.master).contains(&h.routers_mw[0]));
        assert!(net.successors(h.routers_mw[0]).contains(&h.routers_mw[1]));
        assert!(net.successors(h.routers_mw[1]).contains(&h.routers_mw[2]));
        // Each mw feeds its local worker.
        for i in 0..3 {
            assert!(net.successors(h.routers_mw[i]).contains(&h.workers[i]));
            assert!(net.successors(h.workers[i]).contains(&h.routers_wm[i]));
        }
        // Inbound chain: wm2 -> wm1 -> wm0 -> master.
        assert!(net.successors(h.routers_wm[2]).contains(&h.routers_wm[1]));
        assert!(net.successors(h.routers_wm[0]).contains(&h.master));
    }

    #[test]
    fn df_workers_carry_function_name() {
        let mut net = ProcessNetwork::new("t");
        let h = expand_df(
            &mut net,
            2,
            "detect_mark",
            "accum_marks",
            int_types(),
            FarmShape::Star,
        );
        for &w in &h.workers {
            assert_eq!(net.node(w).kind.function_name(), Some("detect_mark"));
        }
        assert!(net.node(h.master).label.contains("accum_marks"));
    }

    #[test]
    fn scm_structure_is_acyclic_fork_join() {
        let mut net = ProcessNetwork::new("t");
        let h = expand_scm(
            &mut net,
            4,
            "split_rows",
            "sobel",
            "merge_rows",
            ScmTypes {
                input: DataType::Image,
                fragment: DataType::Image,
                partial: DataType::Image,
                output: DataType::Image,
            },
        );
        assert_eq!(net.len(), 6);
        assert_eq!(net.successors(h.split).len(), 4);
        assert_eq!(net.predecessors(h.merge).len(), 4);
        assert!(net.topo_order().is_ok());
    }

    #[test]
    fn itermem_memory_edge_closes_loop() {
        let mut net = ProcessNetwork::new("t");
        let body = net.add_node(NodeKind::UserFn("loop".into()), "loop");
        let h = expand_itermem(
            &mut net,
            "read_img",
            "display_marks",
            body,
            body,
            IterMemTypes {
                input: DataType::Image,
                state: DataType::named("state"),
                output: DataType::list(DataType::named("mark")),
            },
        )
        .unwrap();
        // Data edges: input->body, mem->body, body->output; memory: body->mem.
        let mem_edges: Vec<_> = net
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Memory)
            .collect();
        assert_eq!(mem_edges.len(), 1);
        assert_eq!(mem_edges[0].to, h.mem);
        assert!(
            net.topo_order().is_ok(),
            "memory edge must not create a data cycle"
        );
        assert_eq!(net.predecessors(body).len(), 2);
    }

    #[test]
    fn ring_farm_node_and_edge_counts() {
        // Fig. 1 with n workers: nodes = master + n workers + n M->W +
        // n W->M; edges = the M->W chain (n), mw->worker drops (n),
        // worker->wm feeds (n) and the W->M chain (n).
        for n in [1usize, 2, 5] {
            let mut net = ProcessNetwork::new("t");
            let h = expand_df(&mut net, n, "comp", "acc", int_types(), FarmShape::Ring);
            assert_eq!(net.len(), 1 + 3 * n, "nodes for n={n}");
            assert_eq!(net.edges().len(), 4 * n, "edges for n={n}");
            assert_eq!(h.workers.len(), n);
            assert_eq!(h.routers_mw.len(), n);
            assert_eq!(h.routers_wm.len(), n);
        }
    }

    #[test]
    fn degenerate_one_worker_ring_is_a_two_hop_chain() {
        // n = 1: master -> mw0 -> worker0 -> wm0 -> master, one router
        // pair, no router-to-router links.
        let mut net = ProcessNetwork::new("t");
        let h = expand_df(&mut net, 1, "comp", "acc", int_types(), FarmShape::Ring);
        assert_eq!(net.len(), 4);
        assert_eq!(net.successors(h.master), vec![h.routers_mw[0]]);
        assert_eq!(net.successors(h.routers_mw[0]), vec![h.workers[0]]);
        assert_eq!(net.successors(h.workers[0]), vec![h.routers_wm[0]]);
        assert_eq!(net.successors(h.routers_wm[0]), vec![h.master]);
    }

    #[test]
    fn ring_farm_wired_to_stream_io_is_well_formed() {
        // Every ring-farm node must pass structural validation once the
        // farm is wired into a stream pipeline: the chain edges are
        // farm-internal (dynamically scheduled) and thus exempt from the
        // static acyclicity requirement.
        let mut net = ProcessNetwork::new("t");
        let inp = net.add_node(NodeKind::Input("cam".into()), "cam");
        let h = expand_df(&mut net, 3, "comp", "acc", int_types(), FarmShape::Ring);
        let out = net.add_node(NodeKind::Output("disp".into()), "disp");
        net.add_data_edge(inp, 0, h.master, 0, DataType::list(DataType::Int))
            .unwrap();
        net.add_data_edge(h.master, 0, out, 0, DataType::Int)
            .unwrap();
        let issues = crate::validate::validate(&net);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn df_zero_workers_panics() {
        let mut net = ProcessNetwork::new("t");
        let _ = expand_df(&mut net, 0, "c", "a", int_types(), FarmShape::Star);
    }

    #[test]
    fn instances_are_distinct() {
        let mut net = ProcessNetwork::new("t");
        let h1 = expand_df(&mut net, 2, "c", "a", int_types(), FarmShape::Star);
        let h2 = expand_df(&mut net, 2, "c", "a", int_types(), FarmShape::Star);
        assert_ne!(h1.instance, h2.instance);
        assert_ne!(net.node(h1.master).label, net.node(h2.master).label);
    }
}
