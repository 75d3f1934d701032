#![warn(missing_docs)]
//! Shared vocabulary types for the FDIP (Fetch-Directed Instruction
//! Prefetching) reproduction.
//!
//! This crate defines the few concepts every other crate in the workspace
//! speaks: instruction addresses ([`Addr`]), the fixed-length instruction
//! model the paper assumes ([`InstrKind`], [`StaticInstr`], [`DynInstr`]),
//! and block-geometry constants (cache line, FTQ block, BTB set sizes).
//!
//! The paper models fixed-length 32-bit instructions (§IV); every address
//! is 4-byte aligned and a 32-byte FTQ block holds exactly 8 instructions.
//!
//! # Examples
//!
//! ```
//! use fdip_types::{Addr, INSTR_BYTES, FTQ_BLOCK_BYTES};
//!
//! let pc = Addr::new(0x1_0040);
//! assert_eq!(pc.ftq_block(), Addr::new(0x1_0040));
//! assert_eq!(pc.next_instr(), Addr::new(0x1_0044));
//! assert_eq!(FTQ_BLOCK_BYTES / INSTR_BYTES, 8);
//! ```

mod addr;
mod instr;

pub use addr::{Addr, BTB_SET_BYTES, CACHE_LINE_BYTES, FTQ_BLOCK_BYTES, INSTR_BYTES};
pub use instr::{BranchKind, DynInstr, InstrKind, OpClass, StaticInstr};

/// Simulation time, in core clock cycles.
pub type Cycle = u64;
