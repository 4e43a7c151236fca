//! The `experiments` binary stops quietly when its reader goes away:
//! `experiments … | head` must exit without a "failed printing to
//! stdout" panic, whether the pipe closes after the first line or before
//! anything is written. E1 alone prints all its lines before a reader
//! could go away; E2 prints after a compile and a simulated run, so its
//! lines meet a closed pipe. The binary also refuses the backend and
//! options of the retired wall-clock rungs, exiting nonzero before it
//! runs anything.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments binary spawns")
}

/// Waits for `child` to exit and returns its stderr. The deadline only
/// turns a hang into a failure; it bounds nothing that passes.
fn finish(mut child: Child, args: &[&str]) -> String {
    let mut stderr = child.stderr.take().expect("piped stderr");
    let drain = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + Duration::from_secs(300);
    while child.try_wait().expect("wait on experiments").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("experiments {args:?} did not exit after its stdout closed");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drain.join().expect("stderr reader")
}

#[test]
fn a_closed_stdout_does_not_panic() {
    for args in [&["--list"][..], &["--backend", "sim", "e1", "e2"][..]] {
        // The reader takes one line, then goes away.
        let mut child = spawn(args);
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut first)
            .expect("read the first line");
        assert!(!first.is_empty(), "experiments {args:?} printed nothing");
        let stderr = finish(child, args);
        assert!(
            !stderr.contains("panicked"),
            "{args:?} after one line:\n{stderr}"
        );

        // The reader is gone before the first write.
        let mut child = spawn(args);
        drop(child.stdout.take());
        let stderr = finish(child, args);
        assert!(
            !stderr.contains("panicked"),
            "{args:?} with no reader:\n{stderr}"
        );
    }
}

#[test]
fn retired_backends_and_options_are_refused() {
    for (args, message) in [
        (&["--backend", "dist", "e9"][..], "unknown backend `dist`"),
        (&["--smoke", "e1"][..], "unknown experiment `--smoke`"),
        (
            &["--streams", "4", "e1"][..],
            "unknown experiment `--streams`",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn the_index_lists_no_host_wall_clock_rungs() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--list")
        .output()
        .expect("experiments binary runs");
    assert!(out.status.success());
    let index = String::from_utf8_lossy(&out.stdout);
    assert!(index.contains("e15"), "{index}");
    for gone in ["e16", "e17", "e18", "e19", "--streams", "--smoke", "dist"] {
        assert!(!index.contains(gone), "--list still names {gone}:\n{index}");
    }
}
