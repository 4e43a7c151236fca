//! The experiment harness: one function per paper artefact (`--list`
//! prints the index). Each prints a paper-style table.

use crate::pipeline;
use skipper_apps::handcrafted::run_handcrafted;
use skipper_apps::tracker_sim::run_tracker_sim;
use skipper_apps::tracking::Mode;
use skipper_apps::{ccl, road, workloads};
use skipper_net::dtype::DataType;
use skipper_net::graph::{NodeKind, ProcessNetwork};
use skipper_net::pnt::{expand_df, DfTypes, FarmShape};
use skipper_syndex::analysis::check_deadlock_free;
use skipper_syndex::macrocode::generate;
use skipper_syndex::schedule::{schedule_with, Strategy};
use skipper_syndex::Architecture;
use skipper_vision::synth::{random_blobs, render_road_frame, Occlusion, Scene, SceneConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use transvision::cost::MS;
use transvision::stream::FrameClock;

fn header(id: &str, title: &str) {
    say!("\n=== {id}: {title} ===");
}

/// The execution strategy selected with the CLI's `--backend` flag for
/// the host-side experiments (E9, E10, E11).
///
/// `Sim` routes a program through `skipper_exec::SimBackend` where its
/// value types are encodable; experiments whose payloads are host-only
/// (e.g. `Image` buffers) say so and fall back to the declarative
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// `SeqBackend`: declarative emulation.
    Seq,
    /// `PoolBackend`: one persistent work-stealing pool for all runs
    /// (the default).
    #[default]
    Pool,
    /// `ShardBackend`: two partition-routed worker pools.
    Shard,
    /// `SimBackend`: the simulated Transputer machine, where lowerable.
    Sim,
}

impl std::str::FromStr for BackendChoice {
    type Err = String;

    // Deliberately not delegated to `HostBackend::from_str`: that
    // constructor *instantiates* the backend it names (parsing "pool"
    // would spawn a persistent thread pool), while a CLI flag must parse
    // without side effects. Keep the two name tables in sync.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "seq" => Ok(BackendChoice::Seq),
            "pool" => Ok(BackendChoice::Pool),
            "shard" => Ok(BackendChoice::Shard),
            "sim" => Ok(BackendChoice::Sim),
            other => Err(format!(
                "unknown backend `{other}` (expected seq, pool, shard or sim)"
            )),
        }
    }
}

static CHOICE: std::sync::OnceLock<BackendChoice> = std::sync::OnceLock::new();

/// Selects the backend for subsequent host-side experiments. The first
/// call wins (the CLI calls it once, before running anything).
pub fn set_backend(choice: BackendChoice) {
    let _ = CHOICE.set(choice);
}

/// The selected backend ([`BackendChoice::Pool`] when none was given).
pub fn backend() -> BackendChoice {
    CHOICE.get().copied().unwrap_or_default()
}

/// The selected choice as a runnable host backend (`Sim` maps to the
/// declarative semantics: the workstation-emulation side of the paper's
/// pipeline; simulator-specific paths handle `Sim` themselves).
fn host_backend() -> skipper::HostBackend {
    match backend() {
        BackendChoice::Seq | BackendChoice::Sim => skipper::HostBackend::Seq,
        BackendChoice::Pool => skipper::HostBackend::Pool(skipper::PoolBackend::new()),
        BackendChoice::Shard => skipper::HostBackend::Shard(skipper::ShardBackend::new(2)),
    }
}

/// The experiment index: id, one-line title, runner.
pub const INDEX: [(&str, &str, fn()); 14] = [
    ("e1", "df process network template (Fig. 1)", e1),
    (
        "e2",
        "environment pipeline (Fig. 2): ML source -> executive",
        e2,
    ),
    ("e3", "vehicle tracker latency on ring(8)", e3),
    ("e4", "latency vs number of processors", e4),
    ("e5", "generated executive vs hand-crafted version", e5),
    ("e6", "dynamic farming (df) vs static split (scm)", e6),
    ("e7", "itermem (Fig. 4): state memory across iterations", e7),
    ("e8", "emulation == parallel execution (real tracker)", e8),
    ("e9", "connected-component labelling (scm)", e9),
    ("e10", "road following: white-line detection (scm)", e10),
    ("e11", "tf (task farming): quadtree region splitting", e11),
    ("e12", "AAA mapper: makespan and deadlock freedom", e12),
    (
        "e14",
        "tracking loop on a ring farm: predicted vs simulated vs host wall-clock",
        e14,
    ),
    (
        "e15",
        "prepare once, run many: per-frame amortisation (pool & sim)",
        e15,
    ),
];

/// Looks up an experiment runner by id (`"e1"`..`"e15"`).
pub fn by_id(id: &str) -> Option<fn()> {
    INDEX
        .iter()
        .find(|(name, _, _)| *name == id)
        .map(|&(_, _, f)| f)
}

/// The default 512×512 single-vehicle scene.
pub fn default_scene(vehicles: usize) -> Arc<Scene> {
    Arc::new(Scene::with_vehicles(
        SceneConfig {
            noise_amplitude: 8,
            seed: 5,
            ..SceneConfig::default()
        },
        vehicles,
    ))
}

/// E1 — Fig. 1: structure of the expanded `df` PNT (ring shape) and its
/// mapping onto a ring.
pub fn e1() {
    header(
        "E1",
        "df process network template (Fig. 1, ring of 8 workers)",
    );
    let mut net = ProcessNetwork::new("fig1");
    let inp = net.add_node(NodeKind::Input("xs".into()), "xs");
    let h = expand_df(
        &mut net,
        8,
        "comp",
        "acc",
        DfTypes {
            item: DataType::named("'a"),
            result: DataType::named("'b"),
            acc: DataType::named("'c"),
        },
        FarmShape::Ring,
    );
    let out = net.add_node(NodeKind::Output("result".into()), "result");
    net.add_data_edge(inp, 0, h.master, 0, DataType::list(DataType::named("'a")))
        .expect("nodes exist");
    net.add_data_edge(h.master, 0, out, 0, DataType::named("'c"))
        .expect("nodes exist");
    let masters = net
        .nodes_where(|k| matches!(k, NodeKind::Master(_)))
        .count();
    let workers = net
        .nodes_where(|k| matches!(k, NodeKind::Worker(_)))
        .count();
    let mw = net.nodes_where(|k| matches!(k, NodeKind::RouterMw)).count();
    let wm = net.nodes_where(|k| matches!(k, NodeKind::RouterWm)).count();
    say!("process            count   (paper Fig. 1)");
    say!("Master             {masters:>5}   1");
    say!("Worker<comp>       {workers:>5}   n = 8");
    say!("M->W routers       {mw:>5}   n = 8");
    say!("W->M routers       {wm:>5}   n = 8");
    say!("edges              {:>5}", net.edges().len());
    // Map the star variant (the executable one) onto a ring(9).
    let mut star = ProcessNetwork::new("fig1-star");
    let sinp = star.add_node(NodeKind::Input("xs".into()), "xs");
    let sh = expand_df(
        &mut star,
        8,
        "comp",
        "acc",
        DfTypes {
            item: DataType::named("'a"),
            result: DataType::named("'b"),
            acc: DataType::named("'c"),
        },
        FarmShape::Star,
    );
    let sout = star.add_node(NodeKind::Output("r".into()), "r");
    star.add_data_edge(sinp, 0, sh.master, 0, DataType::list(DataType::named("'a")))
        .expect("nodes exist");
    star.add_data_edge(sh.master, 0, sout, 0, DataType::named("'c"))
        .expect("nodes exist");
    for &w in &sh.workers {
        star.set_cost_hint(w, 100_000);
    }
    let arch = Architecture::ring_t9000(9);
    let sched = skipper_syndex::schedule::schedule(&star, &arch).expect("schedulable");
    let used: std::collections::HashSet<_> = sched.mapping.iter().collect();
    say!(
        "star variant mapped onto ring(9): {} processors used, predicted makespan {:.2} ms",
        used.len(),
        sched.makespan_ns as f64 / MS as f64
    );
}

/// E2 — Fig. 2: the full environment pipeline on one source program, with
/// emulation-vs-execution equality.
pub fn e2() {
    use skipper_exec::SimBackend;
    header(
        "E2",
        "environment pipeline (Fig. 2): ML source -> executive",
    );
    let (_, exec) = pipeline::prepare_mini_tracker(&SimBackend::ring(3)).expect("compiles");
    let net = exec.statics().expect("prepared").net();
    say!(
        "source     : {} bytes of Skipper-ML",
        pipeline::MINI_TRACKER_ML.len()
    );
    say!("type check : ok (skeleton signatures of paper section 2)");
    say!(
        "expansion  : {} processes, {} channels, {} farm instance(s)",
        net.len(),
        net.edges().len(),
        net.nodes_where(|k| matches!(k, NodeKind::Master(_)))
            .count()
    );
    let frames = 6;
    let emu = pipeline::emulate_mini_tracker(frames).expect("emulation succeeds");
    for nprocs in [1usize, 3, 5] {
        let (out, report) =
            pipeline::simulate_mini_tracker(&SimBackend::ring(nprocs), frames).expect("runs");
        let eq = if out == emu { "==" } else { "!=" };
        say!(
            "executive on {nprocs} proc(s): outputs {eq} emulation, makespan {:.3} ms, {} messages",
            report.sim.end_ns as f64 / MS as f64,
            report.sim.delivered,
        );
        assert_eq!(
            out, emu,
            "executive must match the executable specification"
        );
    }
}

/// E3 — §4 latencies: tracking ≈30 ms, reinitialisation ≈110 ms on a ring
/// of 8 T9000-class processors at 25 Hz 512×512.
pub fn e3() {
    header("E3", "vehicle tracker latency on ring(8) @ 512x512, 25 Hz");
    let mut scene = Scene::with_vehicles(
        SceneConfig {
            noise_amplitude: 8,
            seed: 5,
            ..SceneConfig::default()
        },
        1,
    );
    // An occlusion forces extra reinitialisation frames mid-run.
    scene.add_occlusion(Occlusion {
        vehicle: 0,
        t0: 8.0 / 25.0,
        t1: 11.0 / 25.0,
        hidden_marks: 2,
    });
    let report = run_tracker_sim(Arc::new(scene), 8, 20).expect("tracker runs");
    let clock = FrameClock::hz(25.0);
    let track = report.mean_latency_in(Mode::Tracking).unwrap_or(0);
    let reinit = report.mean_latency_in(Mode::Init).unwrap_or(0);
    say!("phase            latency (ms)   paper (ms)   frames kept");
    say!(
        "tracking         {:>10.1}   {:>10}   1 in {}",
        track as f64 / MS as f64,
        30,
        clock.decimation(track)
    );
    say!(
        "reinitialisation {:>10.1}   {:>10}   1 in {}",
        reinit as f64 / MS as f64,
        110,
        clock.decimation(reinit)
    );
    say!(
        "ratio reinit/tracking: {:.2} (paper: {:.2})",
        reinit as f64 / track.max(1) as f64,
        110.0 / 30.0
    );
    let reinits = report
        .frames
        .iter()
        .filter(|f| f.mode == Mode::Init)
        .count();
    say!(
        "frames: {} total, {} in reinitialisation",
        report.frames.len(),
        reinits
    );
}

/// E4 — processor sweep: "almost instantaneous to get variant versions
/// with different numbers of processors".
///
/// Tracking-mode latency is dominated by the sequential stages (frame
/// acquisition, window extraction, prediction) so it barely moves with the
/// machine size — the farm-heavy reinitialisation phase is where extra
/// processors pay, and it is reported alongside.
pub fn e4() {
    header("E4", "latency vs number of processors (tracking / reinit)");
    say!("procs   tracking (ms)   reinit (ms)   reinit speedup");
    let mut base = None;
    for nprocs in [1usize, 2, 4, 8, 12, 16] {
        let mut scene = Scene::with_vehicles(
            SceneConfig {
                noise_amplitude: 8,
                seed: 5,
                ..SceneConfig::default()
            },
            1,
        );
        // Keep marks hidden for a few frames so several reinitialisation
        // frames are measured.
        scene.add_occlusion(Occlusion {
            vehicle: 0,
            t0: 2.0 / 25.0,
            t1: 6.0 / 25.0,
            hidden_marks: 2,
        });
        let report = run_tracker_sim(Arc::new(scene), nprocs, 8).expect("tracker runs");
        let track = report.mean_latency_in(Mode::Tracking).unwrap_or(0);
        let reinit = report.mean_latency_in(Mode::Init).unwrap_or(0);
        let b = *base.get_or_insert(reinit as f64);
        say!(
            "{nprocs:>5}   {:>13.1}   {:>11.1}   {:>14.2}",
            track as f64 / MS as f64,
            reinit as f64 / MS as f64,
            b / reinit.max(1) as f64
        );
    }
}

/// E5 — skeleton executive vs hand-crafted message-passing tracker.
pub fn e5() {
    header("E5", "generated executive vs hand-crafted parallel version");
    let skel = run_tracker_sim(default_scene(1), 8, 10).expect("tracker runs");
    let hand = run_handcrafted(default_scene(1), 8, 10).expect("handcrafted runs");
    let s = skel.exec.mean_latency_ns() as f64 / MS as f64;
    let h = hand.mean_latency_ns() as f64 / MS as f64;
    say!("version        mean latency (ms)");
    say!("skeleton       {s:>17.1}");
    say!("hand-crafted   {h:>17.1}");
    say!(
        "overhead factor: {:.2} (paper: \"similar performances\")",
        s / h
    );
}

/// E6 — df vs scm under workload imbalance (the §2 motivation for `df`),
/// measured as simulated makespan on a T9000-class ring(5): master/splitter
/// on P0, 4 workers on P1–P4, identical item costs for both skeletons.
///
/// Simulated time makes the comparison deterministic: it does not depend
/// on how many CPUs the host has or what else runs on them.
pub fn e6() {
    header(
        "E6",
        "dynamic farming (df) vs static split (scm) under imbalance",
    );
    say!("cv      df makespan (ms)   scm makespan (ms)   scm/df");
    for cv in [0.0f64, 0.5, 1.0, 2.0, 4.0] {
        // Item costs shaped like a data-dependent window list, sorted by
        // decreasing cost — adversarial for static contiguous chunking.
        let mut items = workloads::skewed_units(16, 60_000.0, cv, 11);
        items.sort_unstable_by(|a, b| b.cmp(a));
        let df = sim_df_makespan(&items) / MS as f64;
        let scm = sim_scm_makespan(&items) / MS as f64;
        say!("{cv:>4.1}   {df:>16.2}   {scm:>17.2}   {:>6.2}", scm / df);
        // Regular items give static chunking nothing to lose (scm/df is
        // 0.99 at cv 0); from moderate skew on, stranded heavy items must
        // make the static split the slower one.
        assert!(
            cv < 0.5 || scm > df,
            "cv {cv}: df must beat scm under skew (df {df:.2} ms, scm {scm:.2} ms)"
        );
    }
    say!("(scm/df > 1 means dynamic balancing wins)");
}

/// Simulated makespan of a 4-worker `df` farm over `items` (work units).
fn sim_df_makespan(items: &[u64]) -> f64 {
    use skipper_exec::{run_simulated, ExecConfig, Registry, Value};
    use transvision::topology::ProcId;
    let mut net = ProcessNetwork::new("e6-df");
    let inp = net.add_node(NodeKind::Input("items".into()), "items");
    let h = expand_df(
        &mut net,
        4,
        "work",
        "combine",
        DfTypes {
            item: DataType::Int,
            result: DataType::Int,
            acc: DataType::Int,
        },
        FarmShape::Star,
    );
    let out = net.add_node(NodeKind::Output("sink".into()), "sink");
    net.add_data_edge(inp, 0, h.master, 0, DataType::list(DataType::Int))
        .expect("nodes exist");
    net.add_data_edge(h.master, 0, out, 0, DataType::Int)
        .expect("nodes exist");
    let arch = Architecture::ring_t9000(5);
    let mut pins = HashMap::new();
    for n in [inp, h.master, out] {
        pins.insert(n, ProcId(0));
    }
    for (i, &w) in h.workers.iter().enumerate() {
        pins.insert(w, ProcId(1 + i));
    }
    let sched = schedule_with(&net, &arch, &pins, Strategy::MinFinish).expect("schedules");
    let progs = generate(&net, &sched, &arch);
    let mut reg = Registry::new();
    let owned: Vec<i64> = items.iter().map(|&u| u as i64).collect();
    reg.register("items", move |_| {
        vec![Value::list(owned.iter().map(|&u| Value::Int(u)).collect())]
    });
    reg.register_with_cost(
        "work",
        |args| vec![args[0].clone()],
        |args| args[0].as_int().unwrap_or(0).unsigned_abs(),
    );
    reg.register("combine", |args| vec![args[1].clone()]);
    reg.register("sink", |_| vec![]);
    let mut farm_init = HashMap::new();
    farm_init.insert(h.instance, Value::Int(0));
    let report = run_simulated(
        &net,
        &sched,
        &progs,
        arch.topology().clone(),
        Arc::new(reg),
        &HashMap::new(),
        &farm_init,
        &ExecConfig::default(),
    )
    .expect("df farm runs");
    report.sim.end_ns as f64
}

/// Simulated makespan of a static 4-chunk `scm` over the same items.
fn sim_scm_makespan(items: &[u64]) -> f64 {
    use skipper_exec::{run_simulated, ExecConfig, Registry, Value};
    use skipper_net::pnt::{expand_scm, ScmTypes};
    use transvision::topology::ProcId;
    let mut net = ProcessNetwork::new("e6-scm");
    let inp = net.add_node(NodeKind::Input("items".into()), "items");
    let h = expand_scm(
        &mut net,
        4,
        "chunk4",
        "work_chunk",
        "gather",
        ScmTypes {
            input: DataType::list(DataType::Int),
            fragment: DataType::list(DataType::Int),
            partial: DataType::Int,
            output: DataType::Int,
        },
    );
    let out = net.add_node(NodeKind::Output("sink".into()), "sink");
    net.add_data_edge(inp, 0, h.split, 0, DataType::list(DataType::Int))
        .expect("nodes exist");
    net.add_data_edge(h.merge, 0, out, 0, DataType::Int)
        .expect("nodes exist");
    let arch = Architecture::ring_t9000(5);
    let mut pins = HashMap::new();
    for n in [inp, h.split, h.merge, out] {
        pins.insert(n, ProcId(0));
    }
    for (i, &w) in h.workers.iter().enumerate() {
        pins.insert(w, ProcId(1 + i));
    }
    let sched = schedule_with(&net, &arch, &pins, Strategy::MinFinish).expect("schedules");
    let progs = generate(&net, &sched, &arch);
    let mut reg = Registry::new();
    let owned: Vec<i64> = items.iter().map(|&u| u as i64).collect();
    reg.register("items", move |_| {
        vec![Value::list(owned.iter().map(|&u| Value::Int(u)).collect())]
    });
    reg.register("chunk4", |args| {
        let list = args[0].as_list().expect("item list");
        let per = list.len().div_ceil(4);
        vec![Value::list(
            list.chunks(per.max(1))
                .map(|c| Value::list(c.to_vec()))
                .collect(),
        )]
    });
    reg.register_with_cost(
        "work_chunk",
        |args| {
            let sum: i64 = args[0]
                .as_list()
                .expect("chunk")
                .iter()
                .map(|v| v.as_int().unwrap_or(0))
                .sum();
            vec![Value::Int(sum)]
        },
        |args| {
            args[0]
                .as_list()
                .map(|c| {
                    c.iter()
                        .map(|v| v.as_int().unwrap_or(0).unsigned_abs())
                        .sum()
                })
                .unwrap_or(0)
        },
    );
    reg.register("gather", |args| {
        let sum: i64 = args[0]
            .as_list()
            .expect("partials")
            .iter()
            .map(|v| v.as_int().unwrap_or(0))
            .sum();
        vec![Value::Int(sum)]
    });
    reg.register("sink", |_| vec![]);
    let report = run_simulated(
        &net,
        &sched,
        &progs,
        arch.topology().clone(),
        Arc::new(reg),
        &HashMap::new(),
        &HashMap::new(),
        &ExecConfig::default(),
    )
    .expect("scm pipeline runs");
    report.sim.end_ns as f64
}

/// E7 — Fig. 4: itermem state threading across iterations on the
/// simulator.
pub fn e7() {
    use skipper_exec::SimBackend;
    header(
        "E7",
        "itermem (Fig. 4): state memory across stream iterations",
    );
    let frames = 6;
    let emu = pipeline::emulate_mini_tracker(frames).expect("emulation succeeds");
    let (out, report) =
        pipeline::simulate_mini_tracker(&SimBackend::ring(3), frames).expect("simulation succeeds");
    say!("iteration   displayed value   latency (us)");
    for (k, (v, lat)) in out.iter().zip(&report.latencies_ns).enumerate() {
        say!("{k:>9}   {v:>15}   {:>12.1}", *lat as f64 / 1e3);
    }
    assert_eq!(out, emu);
    say!(
        "simulated outputs equal the Fig. 4 executable specification: {}",
        out == emu
    );
}

/// E8 — sequential emulation equivalence for the *real* tracker.
pub fn e8() {
    header(
        "E8",
        "emulation == parallel execution (real tracker, seeded scene)",
    );
    let scene = default_scene(1);
    let frames = 6;
    let seq = run_tracker_sim(Arc::clone(&scene), 1, frames).expect("sequential runs");
    let par = run_tracker_sim(Arc::clone(&scene), 8, frames).expect("parallel runs");
    let a: Vec<_> = seq.frames.iter().map(|f| (f.mode, f.marks)).collect();
    let b: Vec<_> = par.frames.iter().map(|f| (f.mode, f.marks)).collect();
    say!("frames compared : {frames}");
    say!("identical       : {}", a == b);
    say!(
        "sequential mean latency {:.1} ms, parallel {:.1} ms",
        seq.exec.mean_latency_ns() as f64 / MS as f64,
        par.exec.mean_latency_ns() as f64 / MS as f64
    );
    assert_eq!(a, b);
}

/// E9 — connected-component labelling via scm, on the `--backend`
/// selected host strategy.
pub fn e9() {
    header("E9", "connected-component labelling (scm) on 512x512 blobs");
    let img = random_blobs(512, 512, 80, 42);
    let expected = ccl::count_components_seq(&img);
    let chosen = host_backend();
    if backend() == BackendChoice::Sim {
        say!("(image payloads are host-only; --backend sim falls back to seq emulation)");
    }
    say!("backend: {}", chosen.name());
    say!("components (sequential reference): {expected}");
    say!("bands   components   wall time (ms)   speedup");
    let mut base = None;
    for n in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let count = ccl::count_components_on(&chosen, &img, n);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        let b = *base.get_or_insert(dt);
        say!("{n:>5}   {count:>10}   {dt:>14.1}   {:>7.2}", b / dt);
        assert_eq!(count, expected);
    }
}

/// E10 — road following by white-line detection via scm, on the
/// `--backend` selected host strategy. The frame loop runs through **one
/// prepared executable** ([`road::detect_lines_stream_on`]): the
/// detection program is compiled for the backend once, each frame pays
/// only the run cost.
pub fn e10() {
    header("E10", "road following: white-line detection (scm, 4 bands)");
    let chosen = host_backend();
    if backend() == BackendChoice::Sim {
        say!("(image payloads are host-only; --backend sim falls back to seq emulation)");
    }
    say!(
        "backend: {} (program prepared once for the whole stream)",
        chosen.name()
    );
    let mut frames = Vec::new();
    let mut truths = Vec::new();
    for k in 0..8 {
        let off = -60.0 + 17.0 * k as f64;
        let curv = 0.05 * (k % 3) as f64;
        let (img, truth) = render_road_frame(512, 384, off, curv, k);
        frames.push(img);
        truths.push((off, curv, truth));
    }
    let lines = road::detect_lines_stream_on(&chosen, &frames, 4);
    say!("frame   offset(px)   curvature   est bottom x   true bottom x   err(px)");
    let mut worst = 0.0f64;
    for (k, (line, &(off, curv, truth))) in lines.iter().zip(&truths).enumerate() {
        let est = line.as_ref().expect("line found").x_at(383.0);
        let err = (est - truth).abs();
        worst = worst.max(err);
        say!("{k:>5}   {off:>10.1}   {curv:>9.2}   {est:>12.1}   {truth:>13.1}   {err:>7.2}");
    }
    say!("worst-case error: {worst:.2} px");
}

/// E11 — the tf skeleton: divide-and-conquer region splitting.
pub fn e11() {
    header("E11", "tf (task farming): quadtree region splitting");
    let img = random_blobs(256, 256, 30, 7);
    let img = Arc::new(img);
    // A region splits while it mixes foreground and background.
    let split = {
        let img = Arc::clone(&img);
        move |r: (usize, usize, usize, usize)| {
            let (x, y, w, h) = r;
            let sub = img.crop(x, y, w, h);
            let fg = sub.count_above(0);
            let uniform = fg == 0 || fg == sub.len();
            if uniform || w <= 8 || h <= 8 {
                (Vec::new(), Some(1u64))
            } else {
                let (hw, hh) = (w / 2, h / 2);
                (
                    vec![
                        (x, y, hw, hh),
                        (x + hw, y, w - hw, hh),
                        (x, y + hh, hw, h - hh),
                        (x + hw, y + hh, w - hw, h - hh),
                    ],
                    None,
                )
            }
        }
    };
    let chosen = host_backend();
    let sim = backend() == BackendChoice::Sim;
    if sim {
        // Simulated output stays a pure function of the program: the
        // column is the run's virtual end time, not host time.
        say!("backend: sim (ring of workers+1 T9000s)");
        say!("workers   leaf regions   simulated time (ms)");
    } else {
        say!("backend: {}", chosen.name());
        say!("workers   leaf regions   wall time (ms)");
    }
    let mut counts = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        use skipper::Backend;
        let tf = skipper::tf(workers, split.clone(), |z: u64, o: u64| z + o, 0u64);
        let roots = vec![(0, 0, 256, 256)];
        let (leaves, ms) = if sim {
            // Regions are (x, y, w, h) tuples, which the executive can
            // encode — the same tf value runs on the modelled machine.
            let machine = skipper_exec::SimBackend::ring(workers + 1);
            let (leaves, report) = Backend::<_, Vec<_>>::prepare(&machine, &tf)
                .run_with_report(roots)
                .expect("tf lowers, schedules and simulates");
            (leaves, report.sim.end_ns as f64 / 1e6)
        } else {
            let t0 = Instant::now();
            let leaves = chosen.run(&tf, roots);
            (leaves, t0.elapsed().as_secs_f64() * 1e3)
        };
        say!("{workers:>7}   {leaves:>12}   {ms:>14.2}");
        counts.push(leaves);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "leaf count is schedule-independent"
    );
}

/// E12 — the SynDEx contract: mapping quality and deadlock freedom.
pub fn e12() {
    header(
        "E12",
        "AAA mapper: makespan vs round-robin; deadlock freedom",
    );
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let mut wins = 0usize;
    let mut total_ratio = 0.0f64;
    let mut checked = 0usize;
    let cases = 60usize;
    for case in 0..cases {
        // Random layered pipeline graph.
        let layers = rng.gen_range(2..6);
        let mut net = ProcessNetwork::new(format!("g{case}"));
        let mut prev: Vec<skipper_net::graph::NodeId> = Vec::new();
        for l in 0..layers {
            let width = rng.gen_range(1..5);
            let mut cur = Vec::new();
            for w in 0..width {
                let id = net.add_node(NodeKind::UserFn(format!("f{l}_{w}")), format!("f{l}_{w}"));
                net.set_cost_hint(id, rng.gen_range(10_000..2_000_000));
                for &p in &prev {
                    if rng.gen_bool(0.6) {
                        net.add_data_edge(p, 0, id, 0, DataType::Image)
                            .expect("nodes exist");
                    }
                }
                cur.push(id);
            }
            prev = cur;
        }
        let arch = match case % 3 {
            0 => Architecture::ring_t9000(4),
            1 => Architecture::ring_t9000(8),
            _ => Architecture::now_workstations(4),
        };
        let aaa =
            schedule_with(&net, &arch, &HashMap::new(), Strategy::MinFinish).expect("schedulable");
        let rr =
            schedule_with(&net, &arch, &HashMap::new(), Strategy::RoundRobin).expect("schedulable");
        if aaa.makespan_ns <= rr.makespan_ns {
            wins += 1;
        }
        total_ratio += rr.makespan_ns as f64 / aaa.makespan_ns.max(1) as f64;
        for s in [&aaa, &rr] {
            let progs = generate(&net, s, &arch);
            check_deadlock_free(&progs, 2).expect("generated executive is deadlock-free");
            checked += 1;
        }
    }
    say!("random graphs            : {cases}");
    say!("AAA <= round-robin       : {wins}/{cases}");
    say!(
        "mean makespan ratio RR/AAA: {:.2}",
        total_ratio / cases as f64
    );
    say!("executives deadlock-free : {checked}/{checked}");
}

/// E14 — the paper's flagship regime end-to-end: the real-time tracking
/// loop (`itermem(df(...))`, a farm threading tracked state across
/// frames) lowered onto Fig. 1's ring-shaped farm PNT and simulated on a
/// ring of T9000s, against the SynDEx predicted makespan and the host
/// backend's wall clock — with results pinned equal to sequential
/// emulation.
pub fn e14() {
    use skipper::{df, itermem, Backend, Executable, SeqBackend};
    use skipper_exec::SimBackend;
    use skipper_net::FarmShape;
    header(
        "E14",
        "tracking loop on a ring farm: predicted vs simulated vs host wall-clock",
    );
    // Per-frame "windows": skewed synthetic workloads (one heavy window
    // per frame, as a tracked vehicle produces), tracked state = the
    // running detection accumulator.
    const COST_UNITS: u64 = 40_000;
    let frames: Vec<Vec<u64>> = (0..6)
        .map(|k| {
            let mut w: Vec<u64> = vec![COST_UNITS / 8; 9];
            w[(k * 3) % 9] = COST_UNITS;
            w
        })
        .collect();
    // The detection burns real CPU (for the host wall-clock column) and
    // masks its checksum into the executive's i64 wire range.
    let body = df(
        4,
        |&u: &u64| workloads::spin(u) & 0x7fff_ffff,
        |z: u64, y: u64| z.wrapping_add(y) & 0x7fff_ffff,
        0u64,
    )
    .with_cost_hint(COST_UNITS / 4);
    let tracker = itermem(body.clone(), 0u64);
    let golden = SeqBackend.run(&tracker, frames.clone());
    let host = host_backend();
    // The host tracker is prepared once, outside the machine-size sweep.
    let host_exec = Backend::<_, Vec<Vec<u64>>>::prepare(&host, &tracker);
    say!(
        "frames: {}, windows/frame: 9, host backend: {}",
        frames.len(),
        host.name()
    );
    say!("nprocs   predicted/frame (us)   simulated/frame (us)   host (us/frame)");
    for nprocs in [2usize, 3, 5] {
        let sim = SimBackend::ring(nprocs).with_farm_shape(FarmShape::Ring);
        // One prepared loop executable per machine size: its schedule is
        // the per-frame prediction, its report the simulated latency.
        let sim_exec = Backend::<_, Vec<Vec<u64>>>::prepare(&sim, &tracker);
        let plan_us = sim_exec
            .statics()
            .expect("tracking loop schedules on the ring")
            .schedule()
            .makespan_ns as f64
            / 1e3;
        let (out, report) = sim_exec
            .run_with_report(frames.clone())
            .expect("tracking loop simulates on the ring farm");
        assert_eq!(
            out, golden,
            "simulated tracking loop must equal sequential emulation"
        );
        let t0 = Instant::now();
        let host_out = host_exec.run(frames.clone());
        let host_us = t0.elapsed().as_secs_f64() * 1e6 / frames.len() as f64;
        assert_eq!(host_out, golden);
        say!(
            "{nprocs:>6}   {plan_us:>20.1}   {:>20.1}   {host_us:>15.1}",
            report.mean_latency_ns() as f64 / 1e3,
        );
    }
    say!("(simulated results bit-equal to sequential emulation on every ring size)");
}

fn amort_window(u: &u64) -> u64 {
    u.wrapping_mul(2654435761) ^ (u >> 3)
}

fn amort_acc(z: u64, y: u64) -> u64 {
    z.wrapping_add(y)
}

/// The prepare-once/run-many workload's frame stream: `n` pseudo-random
/// 16-window frames.
fn amortisation_frames(n: usize) -> Vec<Vec<u64>> {
    (0..n)
        .map(|k| {
            (0..16)
                .map(|i| ((k * 31 + i * 7) % 97 + 3) as u64)
                .collect()
        })
        .collect()
}

type AmortisationFarm = skipper::Df<fn(&u64) -> u64, fn(u64, u64) -> u64, u64>;

/// The prepare-once/run-many workload's detection farm.
fn amortisation_farm() -> AmortisationFarm {
    skipper::df(4, amort_window as _, amort_acc as _, 0u64).with_cost_hint(20_000)
}

/// E15 — the prepare-once/run-many contract measured: a per-frame
/// detection farm at video rate, comparing the **fresh path** (engine
/// setup and/or compilation paid per frame: a new `PoolBackend` per
/// frame on the host, a full lower/schedule/codegen per frame on the
/// simulator) against **one prepared executable** driving the whole
/// stream. Honours `--backend pool` / `--backend sim`; other choices
/// report the pool table (the host amortisation story).
pub fn e15() {
    use skipper::{Backend, Executable, PoolBackend, SeqBackend};
    use skipper_exec::SimBackend;
    header("E15", "prepare once, run many: per-frame amortisation");
    const FRAMES: usize = 120;
    let frames = amortisation_frames(FRAMES);
    let farm = amortisation_farm();
    let golden: Vec<u64> = frames
        .iter()
        .map(|f| SeqBackend.run(&farm, &f[..]))
        .collect();
    say!("frames: {FRAMES}, windows/frame: 16");
    say!("path            prepare (us)   fresh (us/frame)   prepared (us/frame)   fresh/prepared");
    if backend() == BackendChoice::Sim {
        let sim = SimBackend::ring(4);
        // Fresh path: every frame pays lowering + scheduling + macro-code
        // generation + simulation.
        let t0 = Instant::now();
        for (f, g) in frames.iter().zip(&golden) {
            assert_eq!(&sim.run(&farm, &f[..]).expect("fresh farm simulates"), g);
        }
        let fresh = t0.elapsed().as_secs_f64() * 1e6 / FRAMES as f64;
        // Prepared path: compile once, simulate per frame.
        let t0 = Instant::now();
        let exec = Backend::<_, &[u64]>::prepare(&sim, &farm);
        let prepare_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        for (f, g) in frames.iter().zip(&golden) {
            assert_eq!(&exec.run(&f[..]).expect("prepared farm simulates"), g);
        }
        let prepared = t0.elapsed().as_secs_f64() * 1e6 / FRAMES as f64;
        say!(
            "sim (ring 4)    {prepare_us:>12.1}   {fresh:>16.1}   {prepared:>19.1}   {:>14.2}",
            fresh / prepared
        );
        assert!(
            prepared < fresh,
            "prepared steady-state frame latency ({prepared:.1} us) must be strictly below \
             the fresh-run path ({fresh:.1} us) on a {FRAMES}-frame stream"
        );
    } else {
        // Fresh path: a new engine (pool) is built for every frame — the
        // one-shot cost Bobpp-style persistent engines amortise away.
        let t0 = Instant::now();
        for (f, g) in frames.iter().zip(&golden) {
            assert_eq!(&PoolBackend::new().run(&farm, &f[..]), g);
        }
        let fresh = t0.elapsed().as_secs_f64() * 1e6 / FRAMES as f64;
        // Prepared path: one pool, one executable, N frames.
        let t0 = Instant::now();
        let pool = PoolBackend::new();
        let exec = Backend::<_, &[u64]>::prepare(&pool, &farm);
        let prepare_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        for (f, g) in frames.iter().zip(&golden) {
            assert_eq!(&exec.run(&f[..]), g);
        }
        let prepared = t0.elapsed().as_secs_f64() * 1e6 / FRAMES as f64;
        say!(
            "pool ({} thr)    {prepare_us:>12.1}   {fresh:>16.1}   {prepared:>19.1}   {:>14.2}",
            pool.threads(),
            fresh / prepared
        );
        assert!(
            prepared < fresh,
            "prepared steady-state frame latency ({prepared:.1} us) must be strictly below \
             the per-frame engine-setup path ({fresh:.1} us) on a {FRAMES}-frame stream"
        );
    }
    say!("(fresh/prepared > 1 is the amortisation the prepared pipeline buys)");
}

/// Runs every experiment in order.
pub fn run_all() {
    for (_, _, f) in INDEX {
        f();
    }
}

#[cfg(test)]
mod tests {
    // The experiment functions assert their own invariants; smoke-test the
    // cheap ones so regressions surface in `cargo test`.
    #[test]
    fn e1_smoke() {
        super::e1();
    }

    #[test]
    fn e2_smoke() {
        super::e2();
    }

    #[test]
    fn e6_smoke() {
        super::e6();
    }

    #[test]
    fn e7_smoke() {
        super::e7();
    }

    #[test]
    fn e12_smoke() {
        super::e12();
    }

    #[test]
    fn e14_smoke() {
        super::e14();
    }

    #[test]
    fn e15_smoke() {
        // Default backend choice → the pool amortisation path.
        super::e15();
    }
}
