//! Runs every workload briefly through the `perfbench` binary and checks
//! the result line against `BENCHMARK.json`: every declared metric is
//! printed, every output is correct, a second seed changes the inputs
//! but not the metric names, and a traced run measures the per-layer
//! metrics of its workload.

use std::collections::{BTreeMap, HashMap};
use std::process::Command;
use std::sync::{Mutex, OnceLock};

const WORKLOADS: [&str; 3] = ["track_dsl", "serve_64cam", "fleet_df"];

/// What one run printed: the stamp's input fingerprint, the result's
/// counts, and its metrics by name.
#[derive(Debug, Clone)]
struct Outcome {
    inputs: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Reads the `"name": ...` entries of one array in `BENCHMARK.json`.
fn declared(array: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{array}\""))
        .expect("array is declared");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

/// Parses the result line (the format `perfbench` writes).
fn parse_result(line: &str) -> (bool, u64, u64, BTreeMap<String, (f64, String)>) {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
        line[at..]
            .split([',', '}'])
            .next()
            .expect("value")
            .trim()
            .to_string()
    };
    let correct = field("correct") == "true";
    let attempted = field("attempted")
        .parse()
        .expect("attempted is a whole number");
    let failed = field("failed").parse().expect("failed is a whole number");
    let metrics_at = line.find("\"metrics\": {").expect("metrics present") + 12;
    let mut metrics = BTreeMap::new();
    for entry in line[metrics_at..].split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name").to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .expect("value")
            .split(',')
            .next()
            .unwrap();
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .expect("unit")
            .split('"')
            .next()
            .unwrap();
        metrics.insert(
            name,
            (value.parse().expect("numeric value"), unit.to_string()),
        );
    }
    (correct, attempted, failed, metrics)
}

/// Runs a workload for 4 s (runs are serialised and cached: each one
/// uses every CPU).
fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    type Cache = Mutex<HashMap<(String, u64, bool), Outcome>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let key = (workload.to_string(), seed, trace);
    if let Some(o) = cache.get(&key) {
        return o.clone();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "4",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let stamp = lines[lines.len() - 2];
    let inputs = stamp
        .split("inputs=")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .expect("stamp has the input fingerprint")
        .to_string();
    assert!(
        [
            "steal_share=",
            "others_running=",
            "loadavg=",
            "calib_alu_ms=",
            "calib_handoff_us=",
            "calib_walk_ns="
        ]
        .iter()
        .all(|field| stamp.contains(field)),
        "{stamp}"
    );
    let (correct, attempted, failed, metrics) = parse_result(lines[lines.len() - 1]);
    let o = Outcome {
        inputs,
        correct,
        attempted,
        failed,
        metrics,
    };
    cache.insert(key, o.clone());
    o
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let names = declared("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for w in WORKLOADS {
        let o = run(w, 1, false);
        assert!(o.correct && o.failed == 0 && o.attempted > 0, "{w}: {o:?}");
        let got: Vec<&String> = o.metrics.keys().collect();
        let mut want: Vec<&String> = names.iter().collect();
        want.sort();
        assert_eq!(got, want, "{w}");
        for (name, (value, unit)) in &o.metrics {
            assert!(valid_name(name), "{w}: {name}");
            assert!(
                unit.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit}"
            );
            assert!(value.is_finite() && *value > 0.0, "{w}: {name} = {value}");
        }
    }
}

#[test]
fn a_second_seed_changes_the_inputs_but_not_the_metric_names() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 1, false), run(w, 2, false));
        assert_ne!(a.inputs, b.inputs, "{w}: seed 2 must generate other inputs");
        assert_eq!(
            run(w, 1, false).inputs,
            a.inputs,
            "{w}: a seed fixes the inputs"
        );
        assert!(a.metrics.keys().eq(b.metrics.keys()), "{w}");
        assert!(b.correct && b.failed == 0, "{w} seed 2: {b:?}");
    }
}

#[test]
fn a_traced_run_measures_the_per_layer_metrics_of_its_workload() {
    let names = declared("per_layer");
    let own: [(&str, &[&str]); 3] = [
        (
            "track_dsl",
            &[
                "kernel_floor_ms",
                "arena.allocs_per_frame",
                "skeleton.overhead_us",
                "floor_ratio",
                "pool.fanout_us",
                "pool.join_us",
                "pool.busy_share",
                "df.units_per_frame",
                "df.detect_us",
                "df.accum_us",
                "lang.compile_ms",
                "host.cpu_ms_per_frame",
            ],
        ),
        (
            "serve_64cam",
            &[
                "kernel_floor_ms",
                "skeleton.overhead_us",
                "floor_ratio",
                "pool.busy_share",
                "serve.admit_wait_us",
                "serve.compute_us",
                "serve.frames_per_batch",
                "host.cpu_ms_per_frame",
            ],
        ),
        (
            "fleet_df",
            &[
                "kernel_floor_ms",
                "skeleton.overhead_us",
                "floor_ratio",
                "wire.frame_bytes",
                "wire.encode_us",
                "wire.decode_us",
                "dist.rtt_floor_us",
                "host.cpu_ms_per_frame",
            ],
        ),
    ];
    for (w, measured) in own {
        let o = run(w, 1, true);
        assert!(o.correct && o.failed == 0, "{w}: {o:?}");
        let mut want: Vec<&String> = names.iter().collect();
        want.sort();
        assert!(
            o.metrics.keys().eq(want),
            "{w}: every per-layer metric is printed"
        );
        for m in measured {
            let (v, _) = o.metrics[*m];
            assert!(v.is_finite() && v > 0.0, "{w}: {m} = {v}");
        }
        assert!(o.metrics["trace.overhead_pct"].0.is_finite(), "{w}");
    }
    // Steady state of the arena contract: no pixel buffer is allocated
    // once the cold lap has run.
    assert_eq!(
        run("serve_64cam", 1, true).metrics["arena.allocs_per_frame"].0,
        0.0
    );
}
