//! # icfp-isa — SimISA
//!
//! The compact load/store RISC instruction set used throughout the iCFP
//! (HPCA 2009) reproduction.  The paper evaluates on Alpha AXP binaries; this
//! reproduction substitutes a synthetic but structurally equivalent ISA (see
//! `DESIGN.md`, substitution table).  What the evaluated mechanisms care about
//! is exactly what SimISA captures:
//!
//! * register data dependences (two sources, one destination),
//! * instruction *classes* and their execution latencies (ALU, fp-add,
//!   int/fp multiply, load, store, branch),
//! * memory addresses for loads and stores,
//! * control flow (branch direction + target behaviour).
//!
//! SimISA instructions also carry enough information to be executed
//! *functionally* ([`exec`]) so that the timing models can be checked against
//! an architectural golden model (same final register/memory state).
//!
//! ```
//! use icfp_isa::{DynInst, Op, Reg};
//!
//! let add = DynInst::alu(Op::Add, Reg::int(3), Reg::int(1), Reg::int(2));
//! assert_eq!(add.latency(), 1);
//! assert!(add.dst.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod exec;
pub mod fxmap;
pub mod inst;
pub mod reg;
pub mod source;
pub mod trace;
pub mod trace_file;
mod trace_v2;

pub use digest::{fnv1a, inst_mix, Fnv1a, InstDigest};
pub use exec::{ArchState, FunctionalMemory};
pub use inst::{DynInst, MemWidth, Op, OpClass};
pub use reg::{Reg, RegClass, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};
pub use source::{
    block_digest_at, block_digest_of, ArenaSource, InstReader, Residency, TraceBlock, TraceCursor,
    TraceSource, TraceSourceError, WarmStore, DEFAULT_BLOCK_INSTS,
};
pub use trace::{Trace, TraceBuilder, TraceStats};
pub use trace_file::{TraceFile, TraceFileWriter, TraceFormat, TRACE_MAGIC, TRACE_MAGIC_V2};

/// A dynamic-instruction sequence number: position in the dynamic stream.
///
/// iCFP uses sequence numbers relative to the last checkpoint to order
/// register writers (Section 3.1 of the paper); the simulator additionally
/// uses the absolute dynamic position for statistics and for the golden-model
/// comparison.
pub type InstSeq = u64;

/// A byte address in the simulated address space.
pub type Addr = u64;

/// A 64-bit architectural value.
pub type Value = u64;

/// A simulation cycle number.
pub type Cycle = u64;
