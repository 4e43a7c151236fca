//! Quickstart: the four SKiPPER skeletons as programs, run through
//! interchangeable backends.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use skipper::{df, itermem, scm, tf, Backend, PoolBackend, SeqBackend};

fn main() {
    let seq = SeqBackend;
    let pool = PoolBackend::new();

    // df — data farming: irregular items, dynamic load balancing.
    let farm = df(4, |s: &String| s.len(), |z, l| z + l, 0usize);
    let words: Vec<String> = ["skeleton", "based", "parallel", "programming"]
        .iter()
        .map(ToString::to_string)
        .collect();
    println!("df   : total length = {}", pool.run(&farm, &words[..]));
    assert_eq!(pool.run(&farm, &words[..]), seq.run(&farm, &words[..]));

    // scm — split/compute/merge: regular geometric decomposition.
    let sum = scm(
        4,
        |v: &Vec<u64>, n| v.chunks(v.len().div_ceil(n)).map(<[u64]>::to_vec).collect(),
        |chunk: Vec<u64>| chunk.iter().sum::<u64>(),
        |partials: Vec<u64>| partials.into_iter().sum::<u64>(),
    );
    let data: Vec<u64> = (1..=100).collect();
    println!("scm  : sum 1..=100 = {}", pool.run(&sum, &data));

    // tf — task farming: divide and conquer with work generation.
    let leaves = tf(
        4,
        |depth: u32| {
            if depth == 0 {
                (vec![], Some(1u64))
            } else {
                (vec![depth - 1, depth - 1], None)
            }
        },
        |z, n| z + n,
        0u64,
    );
    println!(
        "tf   : leaves of a depth-10 binary tree = {}",
        pool.run(&leaves, vec![10])
    );

    // itermem — stream loop with state memory (Fig. 4), here with an scm
    // body: the paper's tracking-loop shape `itermem(scm(...), z0)`.
    let body = scm(
        2,
        |t: &(i64, i64), n| (0..n as i64).map(|k| t.0 + t.1 + k).collect::<Vec<_>>(),
        |x: i64| x,
        |parts: Vec<i64>| {
            let s: i64 = parts.iter().sum();
            (s, s)
        },
    );
    let tracker = itermem(body, 0i64);
    let frames = vec![1i64, 2, 3, 4, 5];
    let (final_state, outputs) = pool.run(&tracker, frames);
    println!("itermem: per-frame outputs = {outputs:?}, final state = {final_state}");
}
