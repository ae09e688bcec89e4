//! Scan-chain infrastructure for scan-chain implemented fault injection (SCIFI).
//!
//! This crate models the built-in test logic that the GOOFI paper (DSN 2003)
//! uses to inject faults into the Thor RD microprocessor: IEEE 1149.1-style
//! boundary and internal scan chains, the TAP controller state machine, a
//! debug-event unit programmed through the scan chains, and the host-side
//! *test card* that shifts bits in and out of a target device.
//!
//! The central abstraction is [`ScanTarget`]: any device (for this
//! reproduction, the `thor` and `riscv` CPU simulators) that exposes named
//! scan chains can be driven by a [`TestCard`], which in turn is what the
//! GOOFI framework's SCIFI algorithm talks to.
//!
//! The crate also holds what every CPU core behind a card shares, so each
//! core and the one generic test-card port in `goofi-core` use the same
//! types: the [`DebugUnit`] that fires fault triggers, the paged
//! copy-on-write main [`Memory`] that snapshots share and the memoized
//! memory digest reads page by page, and the core skeleton [`Core`]. A
//! core is `Core<I>` around its ISA half `I` ([`Isa`], [`IsaChains`]):
//! the skeleton holds the machine state, the run loop, its fetch prologue
//! and [`AccessLog`], reset, the shared half of rejoining a fault-free
//! run, and the boundary and debug chains, each once.
//!
//! [`plan`] is the one grammar of the `key=value` drill specs and the one
//! source of seeded draws behind every self-injection drill: the link and
//! wedge fault models here, and the network and worker-kill drills of the
//! campaign service.
//!
//! # Example
//!
//! ```
//! use scanchain::{BitVec, ChainLayout, CellAccess};
//!
//! // Describe a tiny chain with a writable 8-bit register and a read-only flag.
//! let layout = ChainLayout::builder("demo")
//!     .cell("REG", 8, CellAccess::ReadWrite)
//!     .cell("FLAG", 1, CellAccess::ReadOnly)
//!     .build();
//! assert_eq!(layout.total_bits(), 9);
//!
//! let mut bits = BitVec::zeros(layout.total_bits());
//! layout.write_cell(&mut bits, "REG", 0xA5).unwrap();
//! assert_eq!(layout.read_cell(&bits, "REG").unwrap(), 0xA5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod chain;
mod cpu;
mod debug;
mod error;
mod link;
mod memory;
pub mod plan;
mod tap;
mod testcard;
mod wedge;

pub use bitvec::BitVec;
pub use chain::{CellAccess, CellDef, ChainLayout, ChainLayoutBuilder};
pub use cpu::{
    AccessLog, Core, Detection, Isa, IsaChains, StopReason, BOUNDARY_CHAIN, DEBUG_CHAIN, PORT_COUNT,
};
pub use debug::{BusEvent, DebugCondition, DebugEvent, DebugUnit, DEBUG_SLOTS};
pub use error::ScanError;
pub use link::{LinkFault, LinkFaultConfig, LinkFaultCounts, LinkFaultModel};
pub use memory::{Memory, MemoryError, DEFAULT_MEMORY_WORDS, PAGE_WORDS};
pub use tap::{TapController, TapInstruction, TapState};
pub use testcard::{ScanTarget, TestCard, TestCardStats};
pub use wedge::{RecoveryDepth, WedgeConfig, WedgeCounts, WedgeKind, WedgeModel};
