//! A Thor-RD-like microprocessor simulator — the GOOFI target system.
//!
//! The GOOFI paper (DSN 2003) demonstrates scan-chain implemented fault
//! injection (SCIFI) on the Thor RD, a radiation-hardened CPU from SAAB
//! Ericsson Space with parity-protected instruction and data caches and
//! IEEE 1149.1 test logic giving access to "almost all of the state elements"
//! of the chip. The real chip (and its proprietary ISA) is not available, so
//! this crate provides a behaviourally equivalent substitute:
//!
//! * a 32-bit load/store ISA with an assembler ([`asm`]) so realistic
//!   workloads can be written;
//! * parity-protected direct-mapped instruction and data caches ([`cache`](Cache));
//! * a set of hardware error detection mechanisms ([`Detection`]): cache
//!   parity, illegal opcode, memory access violation, control-flow checking,
//!   arithmetic overflow, division by zero, and software (assertion) traps;
//! * internal, cache, boundary and debug scan chains exposing every state
//!   element, with the same read-only/writable split the paper describes
//!   ([`Cpu`] implements [`scanchain::ScanTarget`]);
//! * a debug-event unit (breakpoints via scan chains) and cycle-accounting
//!   watchdog, which provide GOOFI's fault triggers and termination
//!   conditions.
//!
//! # Quick start
//!
//! ```
//! use thor::{asm, Cpu, StopReason};
//!
//! let image = asm::assemble(r#"
//!         ldi  r1, 20
//!         ldi  r2, 22
//!         add  r3, r1, r2
//!         st   r0, r3, 100     ; mem[100] = r3
//!         halt
//! "#).unwrap();
//! let mut cpu = Cpu::new(Default::default());
//! cpu.load_image(&image).unwrap();
//! assert_eq!(cpu.run(1_000), StopReason::Halted);
//! assert_eq!(cpu.memory().read_raw(100).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod cache;
mod cpu;
mod edm;
mod isa;
pub mod scan;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use cpu::{Cpu, CpuConfig, StopReason, ThorIsa};
pub use edm::{Detection, EdmSet};
pub use isa::{decode, encode, DecodeError, Instr, Opcode, Reg};
pub use scan::ChainSet;
pub use scanchain::{Memory, MemoryError, PAGE_WORDS, PORT_COUNT};
