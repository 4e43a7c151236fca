//! Skeleton expansion of compiled programs (Fig. 2's "skeleton expansion"
//! stage): a program compiled against a [`KernelRegistry`] is prepared
//! on `skipper-exec`'s `SimBackend`, which lowers it into the process
//! network that is then scheduled and run. These tests pin the shape of
//! that network and the diagnostics raised before it is built.

mod tests {
    use crate::compile::{compile_source, CompiledProgram, KernelRegistry};
    use crate::diag::Stage;
    use skipper::{Backend, Skeleton};
    use skipper_exec::{SimBackend, Value};
    use skipper_net::graph::{EdgeKind, NodeKind, ProcessNetwork};
    use skipper_net::validate::is_well_formed;
    use skipper_net::FarmShape;

    fn int(v: &Value) -> i64 {
        v.as_int().expect("int value")
    }

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

    fn compile(registry: &KernelRegistry, src: &str) -> CompiledProgram {
        compile_source(registry, src).unwrap_or_else(|d| panic!("compiles: {}", d.render(src)))
    }

    /// Expands `prog` on `sim`, checks the simulated run against the
    /// declarative one, and returns the expanded network.
    fn expand(prog: &CompiledProgram, sim: &SimBackend) -> ProcessNetwork {
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
        let prog = compile(&tracker_registry(), TRACKER_SRC);
        let net = expand(&prog, &SimBackend::ring(4));
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
        let prog = compile(&tracker_registry(), TRACKER_SRC);
        let routers = |shape| {
            let net = expand(&prog, &SimBackend::ring(4).with_farm_shape(shape));
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
        let prog = compile(
            &r,
            r#"
            let nproc = 4;;
            let loop (state, im) =
              let bands = scm nproc split_rows sobel merge_rows im in
              finish state bands;;
            let main = itermem grab loop show s0 cfg;;
            "#,
        );
        let net = expand(&prog, &SimBackend::ring(3));
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
    fn missing_main_reported() {
        let err = compile_source(&tracker_registry(), "let x = 1;;").unwrap_err();
        assert!(err.message.contains("no `main`"), "{}", err.message);
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
