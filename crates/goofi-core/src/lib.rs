//! GOOFI — the Generic Object-Oriented Fault Injection framework.
//!
//! This crate is the Rust reproduction of the tool presented in *GOOFI:
//! Generic Object-Oriented Fault Injection Tool* (Aidemark, Vinter,
//! Folkesson, Karlsson — DSN 2003). The paper's three-layer architecture
//! maps onto this workspace as follows:
//!
//! | paper (Java)                       | here (Rust)                          |
//! |------------------------------------|--------------------------------------|
//! | GUI layer                          | typed campaign builders + [`monitor`] (CLI/API) |
//! | `FaultInjectionAlgorithms` class   | [`algorithms`] (generic functions) + abstract methods on [`TargetAccess`] |
//! | `Framework` template class         | [`framework::NullTarget`] + the documented [`TargetAccess`] trait |
//! | `TargetSystemInterface` subclasses | [`card::CardTarget`] over a core's ISA half (`goofi-thor`, `goofi-riscv`) |
//! | SQL database layer                 | [`dbio`] over the `goofidb` crate    |
//!
//! The Java abstract class becomes a trait: concrete fault-injection
//! algorithms such as [`algorithms::faultinjector_scifi`] are written purely
//! in terms of the abstract building blocks (`init_test_card`,
//! `load_workload`, `run_workload`, `read_scan_chain`, …), which is what
//! makes them reusable across target systems — the paper's core claim.
//!
//! A campaign flows through the paper's four phases:
//!
//! 1. **Configuration** — describe a target system ([`campaign::TargetSystemData`]).
//! 2. **Set-up** — build a [`campaign::Campaign`]: workload, fault
//!    locations/times (sampled from a [`fault::FaultSpace`]), fault models,
//!    termination conditions, logging mode.
//! 3. **Fault injection** — run [`algorithms`] through the campaign engine
//!    in [`runner`] (serial, parallel, resumed or sharded), logging every
//!    experiment to the database.
//! 4. **Analysis** — query the `LoggedSystemState` table (`goofi-analysis`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod campaign;
pub mod card;
pub mod conformance;
pub mod dbio;
mod error;
pub mod fault;
pub mod framework;
pub mod fsck;
pub mod golden;
pub mod journal;
pub mod link;
pub mod logging;
pub mod monitor;
pub mod policy;
pub mod preinject;
pub mod runner;
pub mod service;
pub mod supervisor;
mod target;
pub mod telemetry;
pub mod trigger;
pub mod vfs;

pub use error::GoofiError;
pub use target::{
    readout_restore, readout_snapshot, DetectionInfo, ReadoutSnapshot, RunBudget, RunEvent,
    TargetAccess, TargetSnapshot,
};

/// Convenience alias used throughout the framework.
pub type Result<T> = std::result::Result<T, GoofiError>;
