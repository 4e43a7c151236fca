//! The tracker on the simulated Transvision platform.
//!
//! Builds the paper's process network (Fig. 2 pipeline inside the Fig. 4
//! loop), schedules it with the SynDEx-like back-end onto a T9000-class
//! ring, and executes it with real frames through the distributed
//! executive — the path that reproduces the §4 latency measurements.

use crate::costs;
use crate::tracking::{
    self, accum_marks, detect_marks, init_state, Mark, Mode, TrackState, TrackerConfig,
};
use skipper_exec::{run_simulated, ExecConfig, ExecError, ExecReport, Registry, Value};
use skipper_net::dtype::DataType;
use skipper_net::graph::{NodeId, NodeKind, ProcessNetwork};
use skipper_net::pnt::{expand_df, DfTypes, FarmHandles, FarmShape};
use skipper_syndex::macrocode::generate;
use skipper_syndex::schedule::{schedule_with, Strategy};
use skipper_syndex::Architecture;
use skipper_vision::synth::Scene;
use skipper_vision::window::Window;
use skipper_vision::Image;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use transvision::cost::Ns;
use transvision::stream::FrameClock;
use transvision::topology::ProcId;

/// The tracker's process network with its interesting node handles.
#[derive(Debug, Clone)]
pub struct TrackerNet {
    /// The network.
    pub net: ProcessNetwork,
    /// `read_img` input node.
    pub input: NodeId,
    /// `display_marks` output node.
    pub output: NodeId,
    /// The state `MEM` node.
    pub mem: NodeId,
    /// `get_windows` node.
    pub get_windows: NodeId,
    /// `predict` node.
    pub predict: NodeId,
    /// The detection farm.
    pub farm: FarmHandles,
}

/// Builds the tracker network with a detection farm of `workers` workers.
pub fn build_tracker_net(workers: usize) -> TrackerNet {
    let mut net = ProcessNetwork::new("vehicle-tracker");
    let input = net.add_node(NodeKind::Input("read_img".into()), "read_img");
    let output = net.add_node(NodeKind::Output("display_marks".into()), "display_marks");
    let mem = net.add_node(NodeKind::Mem, "mem[state]");
    let gw = net.add_node(NodeKind::UserFn("get_windows".into()), "get_windows");
    let farm = expand_df(
        &mut net,
        workers,
        "detect_mark",
        "accum_marks",
        DfTypes {
            item: DataType::named("window"),
            result: DataType::list(DataType::named("mark")),
            acc: DataType::list(DataType::named("mark")),
        },
        FarmShape::Star,
    );
    let predict = net.add_node(NodeKind::UserFn("predict".into()), "predict");
    // state + frame -> get_windows
    net.add_data_edge(mem, 0, gw, 0, DataType::named("state"))
        .expect("nodes exist");
    net.add_data_edge(input, 0, gw, 1, DataType::Image)
        .expect("nodes exist");
    // windows -> farm -> predict (which also reads the state)
    net.add_data_edge(
        gw,
        0,
        farm.master,
        0,
        DataType::list(DataType::named("window")),
    )
    .expect("nodes exist");
    net.add_data_edge(mem, 0, predict, 0, DataType::named("state"))
        .expect("nodes exist");
    net.add_data_edge(
        farm.master,
        0,
        predict,
        1,
        DataType::list(DataType::named("mark")),
    )
    .expect("nodes exist");
    // predict -> (state', display)
    net.add_memory_edge(predict, 0, mem, 0, DataType::named("state"))
        .expect("nodes exist");
    net.add_data_edge(
        predict,
        1,
        output,
        0,
        DataType::list(DataType::named("mark")),
    )
    .expect("nodes exist");
    // Static cost hints for the mapper (work units).
    let frame_px = 512 * 512u64;
    net.set_cost_hint(input, costs::READ_UNITS_PER_PX * frame_px);
    net.set_cost_hint(gw, costs::GETWIN_UNITS_PER_PX * frame_px);
    for &w in &farm.workers {
        net.set_cost_hint(w, costs::DETECT_UNITS_PER_PX * frame_px / workers as u64);
    }
    net.set_cost_hint(predict, costs::PREDICT_UNITS);
    net.set_cost_hint(output, costs::DISPLAY_UNITS);
    TrackerNet {
        net,
        input,
        output,
        mem,
        get_windows: gw,
        predict,
        farm,
    }
}

/// Per-frame record emitted by the simulated tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Frame index.
    pub frame: u64,
    /// Mode the frame was processed in (mode of the windows searched).
    pub mode: Mode,
    /// Number of marks displayed.
    pub marks: usize,
}

/// Result of a simulated tracker run.
#[derive(Debug)]
pub struct TrackerSimReport {
    /// Executive report (latencies, trace, utilisations).
    pub exec: ExecReport,
    /// Per-frame mode/marks records, in frame order.
    pub frames: Vec<FrameRecord>,
}

impl TrackerSimReport {
    /// Mean latency over frames processed in the given mode.
    pub fn mean_latency_in(&self, mode: Mode) -> Option<Ns> {
        let lats: Vec<Ns> = self
            .frames
            .iter()
            .zip(&self.exec.latencies_ns)
            .filter(|(f, _)| f.mode == mode)
            .map(|(_, &l)| l)
            .collect();
        if lats.is_empty() {
            None
        } else {
            Some(lats.iter().sum::<Ns>() / lats.len() as Ns)
        }
    }
}

/// Builds the executive registry bridging the tracker's functions to
/// [`Value`]s, rendering frames from `scene`.
pub fn tracker_registry(scene: Arc<Scene>, records: Arc<Mutex<Vec<FrameRecord>>>) -> Registry {
    let mut reg = Registry::new();
    let frame_px = {
        let c = scene.config();
        (c.width * c.height) as u64
    };
    {
        let scene = Arc::clone(&scene);
        reg.register_with_cost(
            "read_img",
            move |args| {
                // Grab the newest frame available at the current virtual
                // time (args[1]) — the 25 Hz video interface of the
                // platform; a lagging pipeline skips frames.
                let now_ns = args[1].as_int().expect("virtual time").max(0) as u64;
                let frame = now_ns / 40_000_000;
                let img = scene.render(frame as f64 / 25.0);
                let bytes = img.len() as u64;
                vec![Value::opaque("image", img, bytes)]
            },
            move |_| costs::READ_UNITS_PER_PX * frame_px,
        );
    }
    {
        let records = Arc::clone(&records);
        reg.register_with_cost(
            "get_windows",
            move |args| {
                let state = args[0].downcast_ref::<TrackState>().expect("state payload");
                let img = args[1].downcast_ref::<Image<u8>>().expect("image payload");
                records.lock().expect("records lock").push(FrameRecord {
                    frame: state.frame,
                    mode: state.mode,
                    marks: 0,
                });
                let windows = tracking::get_windows(state, img);
                let items = windows
                    .into_iter()
                    .map(|w| {
                        let bytes = costs::window_bytes(&w);
                        Value::opaque("window", w, bytes)
                    })
                    .collect();
                vec![Value::list(items)]
            },
            move |_| costs::GETWIN_UNITS_PER_PX * frame_px,
        );
    }
    reg.register_with_cost(
        "detect_mark",
        |args| {
            let w = args[0].downcast_ref::<Window>().expect("window payload");
            let marks = detect_marks(w);
            let bytes = costs::marks_bytes(marks.len());
            vec![Value::opaque("marks", marks, bytes)]
        },
        |args| {
            args[0]
                .downcast_ref::<Window>()
                .map_or(1000, costs::detect_units)
        },
    );
    reg.register_with_cost(
        "accum_marks",
        |args| {
            let acc = args[0].downcast_ref::<Vec<Mark>>().expect("acc payload");
            let ms = args[1].downcast_ref::<Vec<Mark>>().expect("marks payload");
            let merged = accum_marks(acc.clone(), ms.clone());
            let bytes = costs::marks_bytes(merged.len());
            vec![Value::opaque("marks", merged, bytes)]
        },
        |_| costs::ACCUM_UNITS,
    );
    reg.register_with_cost(
        "predict",
        |args| {
            let state = args[0].downcast_ref::<TrackState>().expect("state payload");
            let marks = args[1].downcast_ref::<Vec<Mark>>().expect("marks payload");
            let (next, display) = tracking::predict(state, marks.clone());
            let dbytes = costs::marks_bytes(display.len());
            vec![
                Value::opaque("state", next, costs::STATE_BYTES),
                Value::opaque("marks", display, dbytes),
            ]
        },
        |_| costs::PREDICT_UNITS,
    );
    {
        let records = Arc::clone(&records);
        reg.register_with_cost(
            "display_marks",
            move |args| {
                let marks = args[0].downcast_ref::<Vec<Mark>>().expect("marks payload");
                if let Some(last) = records.lock().expect("records lock").last_mut() {
                    last.marks = marks.len();
                }
                vec![]
            },
            |_| costs::DISPLAY_UNITS,
        );
    }
    reg
}

/// Runs the tracker for `frames` frames on a simulated ring of `nprocs`
/// T9000-class processors (P0 hosts video I/O, the farm master and the
/// sequential stages; P1… host the detection workers). With `nprocs == 1`
/// everything runs on one processor (the sequential platform).
///
/// # Errors
///
/// Propagates scheduling and executive failures.
pub fn run_tracker_sim(
    scene: Arc<Scene>,
    nprocs: usize,
    frames: usize,
) -> Result<TrackerSimReport, ExecError> {
    assert!(nprocs >= 1, "need at least one processor");
    let workers = nprocs.saturating_sub(1).max(1);
    let t = build_tracker_net(workers);
    let arch = if nprocs == 1 {
        Architecture::single_t9000()
    } else {
        Architecture::ring_t9000(nprocs)
    };
    let mut pins = HashMap::new();
    for n in [
        t.input,
        t.output,
        t.mem,
        t.get_windows,
        t.predict,
        t.farm.master,
    ] {
        pins.insert(n, ProcId(0));
    }
    if nprocs > 1 {
        for (i, &w) in t.farm.workers.iter().enumerate() {
            pins.insert(w, ProcId(1 + i % (nprocs - 1)));
        }
    } else {
        for &w in &t.farm.workers {
            pins.insert(w, ProcId(0));
        }
    }
    let sched = schedule_with(&t.net, &arch, &pins, Strategy::MinFinish)
        .map_err(|e| ExecError::Internal(e.to_string()))?;
    let progs = generate(&t.net, &sched, &arch);
    let records = Arc::new(Mutex::new(Vec::new()));
    let reg = tracker_registry(Arc::clone(&scene), Arc::clone(&records));

    let scfg = scene.config();
    // The reinitialisation split is fixed at 8 windows (the paper's machine
    // size), independent of the simulated machine, so results are
    // bit-identical across machine sizes.
    let tcfg = TrackerConfig {
        nproc: 8,
        n_vehicles: scene.vehicle_count(),
        width: scfg.width,
        height: scfg.height,
        focal_px: scfg.focal_px,
        ..TrackerConfig::default()
    };
    let mut mem_init = HashMap::new();
    mem_init.insert(
        t.mem,
        Value::opaque("state", init_state(tcfg), costs::STATE_BYTES),
    );
    let mut farm_init = HashMap::new();
    farm_init.insert(
        t.farm.instance,
        Value::opaque("marks", Vec::<Mark>::new(), 8),
    );
    let config = ExecConfig {
        iterations: frames,
        frame_clock: Some(FrameClock::hz(25.0)),
        sim: transvision::SimConfig::default(),
    };
    let exec = run_simulated(
        &t.net,
        &sched,
        &progs,
        arch.topology().clone(),
        Arc::new(reg),
        &mem_init,
        &farm_init,
        &config,
    )?;
    let frames_log = Arc::try_unwrap(records)
        .map_err(|_| ExecError::Internal("records still shared".into()))?
        .into_inner()
        .expect("records lock");
    Ok(TrackerSimReport {
        exec,
        frames: frames_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_vision::synth::{Occlusion, Scene, SceneConfig};
    use transvision::cost::MS;

    fn scene() -> Arc<Scene> {
        Arc::new(Scene::with_vehicles(
            SceneConfig {
                noise_amplitude: 8,
                seed: 5,
                ..SceneConfig::default()
            },
            1,
        ))
    }

    #[test]
    fn network_is_well_formed() {
        let t = build_tracker_net(7);
        assert!(skipper_net::validate::is_well_formed(&t.net));
        // input + output + mem + gw + predict + master + 7 workers = 13.
        assert_eq!(t.net.len(), 13);
    }

    #[test]
    fn tracker_runs_on_ring8_with_sane_latencies() {
        let report = run_tracker_sim(scene(), 8, 6).unwrap();
        assert_eq!(report.frames.len(), 6);
        assert_eq!(report.exec.latencies_ns.len(), 6);
        // Frame 0 is reinitialisation; later frames are tracking.
        assert_eq!(report.frames[0].mode, Mode::Init);
        assert_eq!(report.frames[3].mode, Mode::Tracking);
        let reinit = report.mean_latency_in(Mode::Init).unwrap();
        let tracking = report.mean_latency_in(Mode::Tracking).unwrap();
        assert!(
            reinit > 2 * tracking,
            "reinit {} ms vs tracking {} ms",
            reinit / MS,
            tracking / MS
        );
        // Shape check against the paper's numbers (30 / 110 ms), in
        // generous windows.
        assert!(
            (10 * MS..80 * MS).contains(&tracking),
            "{} ms",
            tracking / MS
        );
        assert!((50 * MS..300 * MS).contains(&reinit), "{} ms", reinit / MS);
    }

    #[test]
    fn tracker_tracks_marks_on_simulator() {
        let report = run_tracker_sim(scene(), 5, 5).unwrap();
        // Once locked, three marks are displayed each frame.
        assert!(
            report.frames[2..].iter().all(|f| f.marks == 3),
            "{:?}",
            report.frames
        );
    }

    #[test]
    fn single_processor_run_matches_parallel_results() {
        let a = run_tracker_sim(scene(), 1, 4).unwrap();
        let b = run_tracker_sim(scene(), 6, 4).unwrap();
        let ma: Vec<_> = a.frames.iter().map(|f| (f.mode, f.marks)).collect();
        let mb: Vec<_> = b.frames.iter().map(|f| (f.mode, f.marks)).collect();
        assert_eq!(ma, mb, "sequential and parallel executions agree");
        // And the parallel machine is faster.
        assert!(b.exec.mean_latency_ns() < a.exec.mean_latency_ns());
    }

    #[test]
    fn occlusion_forces_reinit_mode_on_simulator() {
        let mut sc = Scene::with_vehicles(
            SceneConfig {
                noise_amplitude: 8,
                seed: 5,
                ..SceneConfig::default()
            },
            1,
        );
        sc.add_occlusion(Occlusion {
            vehicle: 0,
            t0: 3.0 / 25.0,
            t1: 5.0 / 25.0,
            hidden_marks: 2,
        });
        let report = run_tracker_sim(Arc::new(sc), 6, 8).unwrap();
        let reinits = report
            .frames
            .iter()
            .filter(|f| f.mode == Mode::Init)
            .count();
        assert!(reinits >= 2, "{:?}", report.frames);
    }
}
