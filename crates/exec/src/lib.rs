//! The SKiPPER distributed executive.
//!
//! "This executive takes the form of processor-independent programs (m4
//! macro-code, one per processor) which are finally transformed into
//! compilable code by simply inlining a set of kernel primitives. The code
//! of these primitives — which basically support thread creation,
//! communication and synchronisation — is the only platform-dependant part
//! of the programming environment" (paper §3).
//!
//! Here the "kernel primitives" are provided by the [`transvision`]
//! discrete-event simulator, and the macro-code generated by
//! [`skipper_syndex`] is *interpreted* with real application data:
//!
//! - [`value::Value`] — the dynamic values messages carry (scalars, lists,
//!   opaque application payloads with modelled wire sizes);
//! - [`registry::Registry`] — name → native-function bindings for the
//!   user's sequential functions, with optional data-dependent cost models;
//! - [`executive`] — the per-processor interpreter, including the dynamic
//!   master/worker protocol of `df` farms and the `MEM` state machinery of
//!   `itermem`, plus per-iteration latency measurement.
//!
//! Real-thread (non-simulated) parallel execution of skeletons lives in
//! the `skipper` crate; this crate is the virtual-time twin used for the
//! paper's latency and scaling experiments. The [`backend::SimBackend`]
//! execution strategy makes the whole pipeline reachable from a one-line
//! `skipper` program: `SimBackend::ring(5).run(&prog, input)` expands,
//! schedules, generates and interprets it on the modelled machine — and
//! `SimBackend::prepare(&prog)` performs that compilation **once**,
//! returning a [`backend::SimExecutable`] whose per-run cost is
//! simulation only (the paper's compile-offline/execute-per-frame
//! regime; see [`backend::lowering_count`]). Every lowerable program
//! implements [`backend::SimLower`], whose one method returns a
//! structural [`backend::SimPlan`] that the backend expands into the
//! process network.

pub mod backend;
pub mod executive;
pub mod registry;
pub mod sim_value;
pub mod value;

pub use backend::{
    lowering_count, RefInput, SimBackend, SimExecutable, SimInput, SimLoopExecutable, SimLower,
    SimPlan, SliceInput,
};
pub use executive::{run_prepared, run_simulated, ExecConfig, ExecError, ExecReport, SimStatics};
pub use registry::{registry_clone_count, Registry};
pub use sim_value::SimValue;
pub use value::Value;
