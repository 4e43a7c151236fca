//! The SKiPPER evaluation harness.
//!
//! [`experiments`] reproduces every figure and quantitative claim of the
//! paper (`experiments --list` prints the index); [`pipeline`] is the
//! end-to-end environment demo used by E2/E7 and the integration tests. The
//! `experiments` binary runs them from the command line; wall-clock
//! performance is measured by the separate `perfbench` package.

/// `println!` that shrugs off a closed stdout: `experiments … | head`
/// and `skipperc … | head` stop printing quietly when the reader goes
/// away instead of panicking with "failed printing to stdout".
#[macro_export]
macro_rules! say {
    ($($t:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($t)*);
    }};
}

pub mod experiments;
pub mod pipeline;
