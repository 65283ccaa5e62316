//! End-to-end and per-layer benchmark of the ibp simulator.
//!
//! `ibp-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! runs one workload (see [`workloads`]) through the simulator's public
//! API in fresh child processes, checks every simulated cell against a
//! sequential reference, and prints its metrics; the last line of stdout
//! is one JSON object. `README.md` in this directory describes the
//! workloads, the metrics and the measured baseline.

#![forbid(unsafe_code)]

pub mod bench;
pub mod child;
pub mod json;
pub mod provenance;
pub mod spans;
pub mod stats;
pub mod workloads;
