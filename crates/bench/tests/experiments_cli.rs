//! The `experiments` binary stops quietly when its reader goes away:
//! `experiments … | head` must exit without a "failed printing to
//! stdout" panic, whether the pipe closes after the first line or before
//! anything is written. E1 alone prints all its lines before a reader
//! could go away; E2 prints after a compile and a simulated run, so its
//! lines meet a closed pipe.

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
