//! Skipper-ML: the specification-language front-end of SKiPPER.
//!
//! The original environment starts from "a purely functional specification
//! of the algorithm … in ML language", processed by "a custom caml
//! compiler \[which\] performs parsing and polymorphic type-checking" before
//! skeleton expansion into a process graph (paper §3, Fig. 2). This crate
//! is that compiler:
//!
//! - [`token`] / [`parser`]: lexer and recursive-descent parser for the
//!   Caml subset the paper's programs use;
//! - [`types`]: Hindley–Milner inference (Algorithm W) with the skeleton
//!   signatures of §2 pre-installed, plus a signature parser for declaring
//!   the application's sequential ("C") functions;
//! - [`eval`]: a call-by-value interpreter — the *sequential emulation*
//!   path that lets users debug the algorithm on a workstation, and the
//!   independent reference every compiled run is checked against;
//! - [`compile`]: the one lowering of a typed program, to a runnable
//!   [`skipper`] skeleton value (`skipperc`'s core) against a
//!   [`compile::KernelRegistry`] of named sequential functions. The
//!   same value runs on the host backends and, through `skipper-exec`'s
//!   `SimBackend`, expands into the process network that is scheduled
//!   and executed on the simulated machine;
//! - [`diag`]: source-located diagnostics shared by every pass.
//!
//! # Example
//!
//! ```
//! use skipper_lang::{parser::parse_program, types::{check_program, TypeEnv}};
//! let src = "let double = fun x -> x + x;;";
//! let prog = parse_program(src).unwrap();
//! let types = check_program(&TypeEnv::with_skeletons(), &prog).unwrap();
//! assert_eq!(types.scheme_of("double").unwrap().ty.to_string(), "int -> int");
//! ```

pub mod ast;
pub mod compile;
pub mod diag;
pub mod eval;
#[cfg(test)]
mod expand;
pub mod parser;
pub mod token;
pub mod types;

pub use compile::{compile_program, compile_source, CompiledBody, CompiledProgram, KernelRegistry};
pub use diag::{Diagnostic, Span};
pub use parser::{parse_expr, parse_program};
pub use types::{check_program, parse_type, Type, TypeEnv};
