//! Trace-driven simulation of indirect-branch predictors.
//!
//! This crate drives [`ibp_core`] predictors over [`ibp_workload`] traces
//! and reproduces the paper's evaluation methodology:
//!
//! * [`simulate`] — score one predictor over one trace (predict → compare →
//!   update per indirect branch, §2's protocol); [`simulate_source`] and
//!   [`simulate_source_multi`] are the streaming forms, folding over a
//!   chunked [`ibp_trace::EventSource`] in constant memory;
//! * [`Suite`] — the 17-benchmark suite with per-benchmark rates and the
//!   paper's group averages (`AVG`, `AVG-OO`, …, Table 3 semantics);
//! * [`engine`] — the memoizing sweep engine: flattens (config ×
//!   benchmark) grids into one parallel work queue and never simulates the
//!   same pair twice across the experiments of one process;
//! * [`probe`] — the predictor-internals probe layer (`IBP_PROBE`):
//!   occupancy/aliasing snapshots and per-site miss attribution sampled
//!   into the run journal, byte-identical results on or off;
//! * [`trace_cache`] — the persistent binary trace corpus cache: each
//!   `(benchmark, events)` trace of 50k events or more is generated once
//!   into an IBPB segment under `results/.cache/traces/` and replayed at
//!   memory speed by every later suite, materialised or streamed, with
//!   byte-identical results;
//! * [`faults`] — deterministic fault injection (`IBP_FAULTS`): named
//!   panic and I/O sites firing on one-shot occurrence schedules, which
//!   exercise the containment layer — a contained worker panic retries
//!   its cell inline with byte-identical results;
//! * [`report`] — plain-text and CSV rendering of result tables;
//! * [`experiments`] — one runner per figure/table of the paper (the
//!   `ibp-bench` binaries are thin wrappers over these).
//!
//! # Example
//!
//! ```
//! use ibp_core::PredictorConfig;
//! use ibp_sim::simulate;
//! use ibp_workload::Benchmark;
//!
//! let trace = Benchmark::Ixx.trace_with_len(20_000);
//! let mut p = PredictorConfig::practical(3, 1024, 4).build();
//! let run = simulate(&trace, p.as_mut());
//! assert_eq!(run.indirect, 20_000);
//! assert!(run.misprediction_rate() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod experiments;
pub mod faults;
mod parallel;
pub mod probe;
pub mod report;
mod run;
mod suite;
pub mod trace_cache;

pub use parallel::parallel_map;
pub use run::{
    simulate, simulate_kernel, simulate_source, simulate_source_kernels, simulate_source_multi,
    simulate_warm, RunStats,
};
pub use suite::{Suite, SuiteResult};

/// Serialises the unit tests that touch process-global state: armed fault
/// sites, the journal sink, and the engine and trace-cache counters whose
/// exact deltas they assert. Every such test holds this one guard,
/// so none of them observes another's faults or counts.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
