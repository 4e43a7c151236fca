//! Connected-component labelling with the scm skeleton (paper ref [7]).
//!
//! ```text
//! cargo run --release --example ccl_farm            # persistent pool
//! cargo run --release --example ccl_farm -- shard   # two pools
//! cargo run --release --example ccl_farm -- seq     # declarative spec
//! ```
//!
//! The optional argument picks the host execution strategy
//! ([`skipper::HostBackend`]); labelling many frames reuses the pool's
//! threads instead of spawning per call.

use skipper::HostBackend;
use skipper_apps::ccl::{count_components_on, count_components_seq};
use skipper_vision::synth::random_blobs;
use std::time::Instant;

fn main() {
    let backend: HostBackend = std::env::args()
        .nth(1)
        .as_deref()
        .unwrap_or("pool")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let img = random_blobs(512, 512, 80, 42);
    let reference = count_components_seq(&img);
    println!("512x512 random blob field, {reference} components");
    println!("backend: {}\n", backend.name());
    println!("bands   components   wall-time (ms)");
    for n in [1, 2, 4, 8, 16] {
        let t0 = Instant::now();
        let count = count_components_on(&backend, &img, n);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{n:>5}   {count:>10}   {ms:>13.2}");
        assert_eq!(count, reference, "parallel labelling must agree");
    }
}
