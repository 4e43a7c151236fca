//! SKiPPER: a skeleton-based parallel programming environment for
//! real-time image processing — a full reproduction in Rust.
//!
//! This umbrella crate re-exports the whole environment (Sérot, Ginhac,
//! Dérutin, PaCT-99):
//!
//! | Layer | Crate | Paper counterpart |
//! |---|---|---|
//! | skeleton library | [`skipper`] | the scm/df/tf/itermem repertoire (§2) |
//! | ML front-end | [`skipper_lang`] | the custom Caml compiler (§3) |
//! | process networks | [`skipper_net`] | PNTs and skeleton expansion (Fig. 1/4) |
//! | AAA back-end | [`skipper_syndex`] | SynDEx mapping/scheduling (§3) |
//! | executive | [`skipper_exec`] | the m4 macro-code + kernel primitives (§3) |
//! | platform | [`transvision`] | the Transputer machine (simulated) |
//! | image processing | [`skipper_vision`] | the sequential C functions |
//! | applications | [`skipper_apps`] | tracking, CCL, road following (§4) |
//!
//! See `README.md` for a tour; `experiments --list` (in
//! `skipper-bench`) prints the index of paper experiments.
//!
//! # Quickstart
//!
//! A program is written once as a [`skipper::Skeleton`] value and handed
//! to an interchangeable [`skipper::Backend`] — sequential emulation,
//! host threads, or the full SynDEx-to-simulator pipeline
//! (`skipper_exec::SimBackend`):
//!
//! ```
//! use skipper::{df, Backend, SeqBackend, ThreadBackend};
//! let farm = df(4, |x: &u64| x * x, |z: u64, y| z + y, 0u64);
//! let xs: Vec<u64> = (1..=10).collect();
//! assert_eq!(
//!     ThreadBackend::new().run(&farm, &xs[..]),
//!     SeqBackend.run(&farm, &xs[..]),
//! );
//! ```

pub use skipper;
pub use skipper_apps;
pub use skipper_exec;
pub use skipper_lang;
pub use skipper_net;
pub use skipper_syndex;
pub use skipper_vision;
pub use transvision;
