#![warn(missing_docs)]
//! Synthetic program model and workload generator for the FDIP
//! reproduction.
//!
//! The paper evaluates on the public IPC-1 traces (server / client / SPEC).
//! This crate substitutes a **synthetic program model**: a generated static
//! code image (functions, basic blocks, branch wiring) plus stochastic
//! branch-behaviour models, executed by a deterministic engine that yields
//! the committed-path instruction stream.
//!
//! The substitution is documented in `DESIGN.md` §2. It is deliberately
//! *stronger* than a trace for this paper's purposes: because the whole
//! static code image exists, the simulator's wrong-path fetches, pre-decode
//! (post-fetch correction), and BTB prefetching all operate on real
//! instruction bytes — something a committed-path trace cannot provide.
//!
//! # Examples
//!
//! Build a tiny program by hand and execute it:
//!
//! ```
//! use fdip_program::{Program, ProgramBuilder, ExecutionEngine};
//! use fdip_program::workload::{Workload, WorkloadFamily};
//!
//! let wl = Workload::family_default("demo", WorkloadFamily::Spec, 42);
//! let program = wl.build();
//! let mut engine = ExecutionEngine::new(&program, 7);
//! let first = engine.step();
//! assert_eq!(first.pc, program.entry());
//! ```

mod behavior;
mod builder;
pub mod cfg;
pub mod codec;
mod engine;
mod image;
pub mod workload;

pub use behavior::{BranchBehavior, IndirectSelect};
pub use builder::{ProgramBuilder, ProgramParams};
pub use cfg::{CfgBlock, CfgError, CfgFunction, CfgProgram, Terminator};
pub use codec::{program_from_json, program_to_json, CodecError};
pub use engine::ExecutionEngine;
pub use image::{CodeImage, Program};
