//! SKiPPER skeletons as a Rust library.
//!
//! This crate is the modern-library rendering of the paper's skeleton
//! repertoire for real-time image processing (Sérot, Ginhac, Dérutin,
//! PaCT-99). A program is written **once** as a typed [`Skeleton`] value
//! and then handed to an interchangeable [`Backend`] — the API form of the
//! paper's central claim that one skeletal description serves both
//! sequential emulation on a workstation and a parallel implementation
//! derived for the target machine.
//!
//! The repertoire (paper §2), each a higher-order construct coordinating
//! user-supplied sequential functions:
//!
//! | Skeleton | Pattern | Constructor |
//! |---|---|---|
//! | [`Scm`] | regular, geometric data parallelism (Split/Compute/Merge) | [`scm()`](scm()) |
//! | [`Df`]  | irregular data parallelism with dynamic load balancing (data farming) | [`df()`](df()) |
//! | [`Tf`]  | divide-and-conquer: workers generate new packets (task farming) | [`tf()`](tf()) |
//! | [`IterLoop`] | stream iteration with inter-frame state memory (Fig. 4) | [`itermem()`](itermem()) |
//!
//! Programs compose: [`Compose::then`] pipelines two programs, and
//! [`itermem()`](itermem()) nests any program as a tracking-loop body, so
//! the paper's applications read as `itermem(scm(...), z0)`.
//!
//! # Quickstart
//!
//! ```
//! use skipper::{df, Backend, PoolBackend, SeqBackend};
//!
//! // df 4 (·²) (+) 0 [1..=100] — irregular work, dynamic balancing.
//! let farm = df(4, |x: &u64| x * x, |z: u64, y: u64| z + y, 0u64);
//! let xs: Vec<u64> = (1..=100).collect();
//! assert_eq!(
//!     PoolBackend::new().run(&farm, &xs[..]),
//!     SeqBackend.run(&farm, &xs[..]),
//! );
//! ```
//!
//! # Choosing a backend
//!
//! - [`SeqBackend`] runs the *declarative* semantics — the executable
//!   specification, a pure combination of `map`/`fold` calls usable for
//!   sequential emulation and debugging on a workstation.
//! - Every other host backend is a [`Dispatch`]: the *operational*
//!   semantics ([`Skeleton::run_on`]) is written once, and a dispatcher
//!   only says where the jobs of each farm round run.
//! - [`PoolBackend`] runs them on a **persistent work-stealing thread
//!   pool** created once per backend (the modern stand-in for the
//!   paper's Transputer process networks), so a frame loop pays no
//!   thread spawn per farm round. The pool is sized by a [`Workers`]
//!   value ([`PoolBackend::configured`]; `SKIPPER_WORKERS`, else
//!   [`std::thread::available_parallelism`], by default), while each
//!   program's own degree governs how many jobs a round runs.
//! - `SimBackend` (in the `skipper-exec` crate) lowers the same program
//!   through process-network expansion, SynDEx scheduling and macro-code
//!   generation, and executes it on the simulated Transputer machine —
//!   the full paper pipeline, used for latency and scaling studies.
//! - [`ShardBackend`] is the dispatcher with N lanes: it routes farm units
//!   over **N independent worker pools** by a deterministic item hash
//!   ([`receipt::partition`]) — the single-machine rehearsal of
//!   distribution.
//! - [`DistBackend`] runs master and workers as
//!   **separate OS processes** speaking the canonical [`wire`] encoding
//!   over stdin/stdout pipes, with handshake, version check and orderly
//!   shutdown (see [`dist`]). Closures cannot cross a process boundary,
//!   so it is a [`Backend`] for the programs of the case catalog
//!   ([`conformance::Catalog`]), and each run returns the receipt its
//!   worker process computed.
//!
//! [`HostBackend`] selects among the host strategies at runtime (e.g.
//! from a CLI flag), and every backend is validated against the shared
//! contract suite in [`conformance`] — including the **receipt axis**
//! ([`conformance::assert_receipts_match`]): every run can record a
//! canonical trace and fold it into a
//! [`RunReceipt`] whose `trace_hash`/`output_hash`
//! must agree across backends and processes (see [`receipt`]).
//!
//! Every backend splits execution into a **prepare** phase
//! ([`Backend::prepare`], compiling the program into an [`Executable`]:
//! the pinned dispatcher on the host backends, the full
//! lowering/scheduling/macro-code pipeline on the simulator) and a
//! **run** phase ([`Executable::run`], one input per call);
//! [`Backend::run`] is the prepare-then-run convenience. Frame loops
//! should prepare once and run once per frame — the paper's
//! compile-offline/execute-per-frame regime.
//!
//! The pre-0.2 per-skeleton `run_seq`/`run_par` shims have been removed;
//! all execution goes through a backend's `run`.
//!
//! # Equivalence requirements
//!
//! As in the paper, the implementor of the operational semantics must prove
//! it equivalent to the declarative one. The paper requires [`Df`] and
//! [`Tf`] accumulation functions to be **commutative and associative**
//! ("since the accumulation order in the parallel case is intrinsically
//! unpredictable"). Here every host `df` round folds its results in item
//! order, so [`Df`] needs no side condition; [`Tf`] folds in arrival
//! order and keeps it. The [`spec`] module contains the paper's one-line
//! Caml declarative definitions transliterated to Rust, used as the
//! reference semantics in property tests.

pub mod backend;
pub mod conformance;
pub mod df;
pub mod dist;
pub mod itermem;
pub mod pool;
pub mod program;
pub mod receipt;
pub mod scm;
pub mod serve;
pub mod spec;
pub mod tf;
pub mod wire;

pub use backend::{run_with, Backend, Dispatch, Executable, HostExecutable, SeqBackend};
pub use df::Df;
pub use dist::{DistBackend, DistError, ShardBackend};
pub use itermem::{frames_from_fn, stream_of, BoundedSource, FrameSource, IterMem, VecSource};
pub use pool::{HostBackend, PoolBackend, WorkerPool};
pub use program::{
    default_workers, df, itermem, pure, scm, tf, Compose, CostModel, IterLoop, Pure, Skeleton,
    Then, Workers,
};
pub use receipt::{receipted, Receipted, RunReceipt};
pub use scm::Scm;
pub use serve::{
    serve, AdmissionPolicy, ServeConfig, ServeOutcome, ServeReport, StreamResult, StreamSpec,
    TimedFrame,
};
pub use tf::Tf;
