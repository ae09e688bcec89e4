//! `goofibench`: one command that measures GOOFI campaign throughput end
//! to end — on both CPUs, serial, in-process parallel and through the
//! campaign service — checks every result against a slow-path oracle,
//! and, in a separate traced run, attributes the wall time to the layers
//! the campaigns cross. See `BENCHMARK.md` for the workloads, the metrics
//! and how to run it.
//!
//! - [`probe`]: outside-in timing decorators ([`probe::TimedTarget`],
//!   [`probe::TimedVfs`], [`probe::CountingNet`]) and the per-layer
//!   [`probe::Ledger`] they report into;
//! - [`workload`]: the four workloads, their set-up, the oracle and the
//!   closed campaign loop;
//! - [`report`]: `results.json`, span files and the result line;
//! - [`stats`] and [`json`]: the small helpers both binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod probe;
pub mod report;
pub mod stats;
pub mod workload;
