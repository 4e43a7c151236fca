//! Cross-crate integration of the vehicle tracker: sequential
//! specification, pool backend and simulated platform must all agree.

use skipper::{Backend, PoolBackend};
use skipper_apps::tracker_sim::run_tracker_sim;
use skipper_apps::tracking::{
    detection_farm, init_state, loop_step_prepared, loop_step_seq, Mode, TrackerConfig,
};
use skipper_vision::synth::{Scene, SceneConfig};
use skipper_vision::Window;
use std::sync::Arc;

fn scene() -> Scene {
    Scene::with_vehicles(
        SceneConfig {
            width: 256,
            height: 256,
            focal_px: 350.0,
            noise_amplitude: 6,
            seed: 9,
            ..SceneConfig::default()
        },
        1,
    )
}

fn tracker_cfg() -> TrackerConfig {
    TrackerConfig {
        nproc: 8,
        n_vehicles: 1,
        width: 256,
        height: 256,
        focal_px: 350.0,
        ..TrackerConfig::default()
    }
}

#[test]
fn specification_and_pool_backend_agree() {
    let sc = scene();
    let farm = detection_farm(tracker_cfg().nproc);
    let pool = PoolBackend::new();
    let exec = Backend::<_, &[Window]>::prepare(&pool, &farm);
    let mut a = init_state(tracker_cfg());
    let mut b = init_state(tracker_cfg());
    for k in 0..8 {
        let img = sc.render(k as f64 / 25.0);
        let (na, ma) = loop_step_seq(&a, &img);
        let (nb, mb) = loop_step_prepared(&exec, &b, &img);
        assert_eq!(ma, mb, "frame {k}");
        assert_eq!(na, nb, "frame {k}");
        a = na;
        b = nb;
    }
    assert_eq!(a.mode, Mode::Tracking, "tracker locked by frame 8");
}

#[test]
fn simulated_platform_results_are_machine_independent() {
    let sc = Arc::new(scene());
    let r1 = run_tracker_sim(Arc::clone(&sc), 1, 5).unwrap();
    let r4 = run_tracker_sim(Arc::clone(&sc), 4, 5).unwrap();
    let r8 = run_tracker_sim(sc, 8, 5).unwrap();
    let key = |r: &skipper_apps::tracker_sim::TrackerSimReport| {
        r.frames
            .iter()
            .map(|f| (f.mode, f.marks))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&r1), key(&r4));
    assert_eq!(key(&r4), key(&r8));
}

#[test]
fn parallel_machines_reduce_latency() {
    let sc = Arc::new(scene());
    let r1 = run_tracker_sim(Arc::clone(&sc), 1, 4).unwrap();
    let r8 = run_tracker_sim(sc, 8, 4).unwrap();
    assert!(
        r8.exec.mean_latency_ns() < r1.exec.mean_latency_ns(),
        "8 procs {} vs 1 proc {}",
        r8.exec.mean_latency_ns(),
        r1.exec.mean_latency_ns()
    );
}
