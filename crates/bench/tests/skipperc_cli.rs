//! `skipperc`'s command-line contract, mirroring the experiments CLI:
//! good sources exit 0 on every backend; any failure — broken source,
//! missing file, bad flag — exits nonzero with a **single located
//! diagnostic line** on stderr, never a panic. `--plan` output is pinned
//! by golden files in `tests/fixtures/plan/`: a lowering change that
//! renumbers a node or moves it in the schedule fails here. Regenerate
//! them only for a deliberate change to the lowered networks:
//! `REGEN_PLAN_FIXTURES=1 cargo test -p skipper-bench --test skipperc_cli`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/dsl")
        .join(name)
}

fn skipperc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_skipperc"))
        .args(args)
        .output()
        .expect("skipperc binary spawns")
}

#[test]
fn every_example_runs_on_every_backend() {
    for src in ["ccl.skp", "road.skp", "tracking.skp"] {
        for backend in ["seq", "pool", "shard", "sim"] {
            let path = example(src);
            let out = skipperc(&[
                path.to_str().unwrap(),
                "--backend",
                backend,
                "--workers",
                "2",
                "--frames",
                "2",
            ]);
            assert!(
                out.status.success(),
                "{src} on {backend} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains("frame 1:"),
                "{src} on {backend}: expected per-frame output, got:\n{stdout}"
            );
        }
    }
}

#[test]
fn plan_emits_a_schedule() {
    let path = example("tracking.skp");
    let out = skipperc(&[path.to_str().unwrap(), "--plan", "--workers", "4"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("makespan") && stdout.contains("P3:"),
        "expected a 4-processor schedule, got:\n{stdout}"
    );
}

fn plan_fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/plan")
        .join(format!("{name}.txt"))
}

#[test]
fn plan_output_matches_the_golden_fixtures() {
    let regen = std::env::var_os("REGEN_PLAN_FIXTURES").is_some_and(|v| v == "1");
    for name in ["ccl", "road", "tracking"] {
        let path = example(&format!("{name}.skp"));
        let out = skipperc(&[path.to_str().unwrap(), "--plan", "--workers", "4"]);
        assert!(
            out.status.success(),
            "{name} --plan failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let live = String::from_utf8(out.stdout).expect("plan output is UTF-8");
        let fixture = plan_fixture(name);
        if regen {
            std::fs::write(&fixture, &live).expect("write plan fixture");
            continue;
        }
        let committed = std::fs::read_to_string(&fixture)
            .unwrap_or_else(|e| panic!("missing plan fixture {}: {e}", fixture.display()));
        assert_eq!(
            live, committed,
            "`{name}.skp --plan --workers 4` differs from its golden fixture — \
             the lowered network or its schedule changed (regenerate with \
             REGEN_PLAN_FIXTURES=1 only if that is intended)"
        );
    }
}

#[test]
fn broken_source_exits_nonzero_with_one_located_line() {
    let path = example("broken.skp");
    let out = skipperc(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "broken source must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "exactly one diagnostic line, got:\n{stderr}"
    );
    // file:line:col: stage: message — and definitely not a panic.
    assert!(
        lines[0].contains("broken.skp:") && lines[0].contains("type error:"),
        "located type diagnostic expected, got: {}",
        lines[0]
    );
    assert!(
        !stderr.contains("panicked"),
        "driver must never panic: {stderr}"
    );
}

#[test]
fn missing_file_and_bad_flags_exit_nonzero() {
    let out = skipperc(&["no/such/file.skp"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let path = example("ccl.skp");
    let out = skipperc(&[path.to_str().unwrap(), "--backend", "transputer"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown host backend"));

    let out = skipperc(&[path.to_str().unwrap(), "--workers", "0"]);
    assert_eq!(out.status.code(), Some(1));

    let out = skipperc(&[]);
    assert_eq!(out.status.code(), Some(1));
}
