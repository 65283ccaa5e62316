//! The benchmark suite: traces, per-benchmark rates, group averages.

use std::sync::OnceLock;

use ibp_core::Predictor;
use ibp_trace::{EventSource, Trace, TraceStats};
use ibp_workload::{Benchmark, BenchmarkGroup};

use crate::parallel::parallel_map;
use crate::run::{simulate_source, RunStats};

/// Default indirect-branch events per benchmark trace. Overridable with the
/// `IBP_EVENTS` environment variable (experiments read it once at startup).
pub(crate) fn default_events() -> u64 {
    static EVENTS: OnceLock<u64> = OnceLock::new();
    *EVENTS.get_or_init(|| match std::env::var("IBP_EVENTS") {
        Ok(raw) => match raw.parse() {
            Ok(events) => events,
            Err(_) => {
                eprintln!(
                    "warning: ignoring invalid IBP_EVENTS={raw:?} \
                     (expected an unsigned integer); using 120000"
                );
                120_000
            }
        },
        Err(_) => 120_000,
    })
}

/// Above this trace length, suites stream by default instead of
/// materialising (a materialised 17-benchmark suite at 250k events is
/// already several hundred MB with interleaved conditionals).
pub(crate) const STREAM_THRESHOLD: u64 = 250_000;

/// `IBP_STREAM` override: `0` forces materialised suites, `1` forces
/// streaming; unset picks by trace length.
fn stream_override() -> Option<bool> {
    static MODE: OnceLock<Option<bool>> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("IBP_STREAM") {
        Ok(raw) => match raw.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => {
                eprintln!(
                    "warning: ignoring invalid IBP_STREAM={raw:?} \
                     (expected 0 or 1); choosing by trace length"
                );
                None
            }
        },
        Err(_) => None,
    })
}

/// Whether a suite of `events`-long traces streams (regenerates events
/// chunk by chunk per consumer) rather than materialising whole traces.
pub(crate) fn streaming_enabled(events: u64) -> bool {
    stream_override().unwrap_or(events > STREAM_THRESHOLD)
}

/// How a suite holds one benchmark's events.
#[derive(Debug)]
enum TraceHandle {
    /// The whole trace in memory — generated once, reused by every
    /// consumer. The default at moderate lengths.
    Materialized(Trace),
    /// No stored events: each consumer pulls a fresh chunked generator
    /// pass. Memory stays constant in the trace length.
    Streamed,
}

/// A set of benchmark traces reused across predictor configurations.
///
/// At moderate lengths (up to [`STREAM_THRESHOLD`], or forced via
/// `IBP_STREAM=0`) traces are generated once and materialised. Beyond
/// that (or with `IBP_STREAM=1`) the suite holds no events at all:
/// consumers pull chunked, resumable generator passes through
/// [`source`](Suite::source), which makes million-event suites run in
/// constant memory. Both modes produce event-identical streams.
#[derive(Debug)]
pub struct Suite {
    entries: Vec<(Benchmark, TraceHandle)>,
    events: u64,
}

impl Suite {
    /// Builds all 17 benchmarks at the default trace length
    /// (120k indirect branches, or `IBP_EVENTS`).
    #[must_use]
    pub fn new() -> Self {
        Suite::with_benchmarks(&Benchmark::ALL)
    }

    /// Builds the given benchmarks at the default trace length.
    #[must_use]
    pub fn with_benchmarks(benchmarks: &[Benchmark]) -> Self {
        Suite::with_benchmarks_and_len(benchmarks, default_events())
    }

    /// Builds the given benchmarks with `events` indirect branches each
    /// (materialised or streamed per the `IBP_STREAM` policy).
    #[must_use]
    pub fn with_benchmarks_and_len(benchmarks: &[Benchmark], events: u64) -> Self {
        Suite::with_streaming(benchmarks, events, streaming_enabled(events))
    }

    /// Like [`with_benchmarks_and_len`](Suite::with_benchmarks_and_len),
    /// with the scheduling mode chosen by the caller instead of the
    /// `IBP_STREAM` policy: `streamed` suites hold no events. Harnesses
    /// use this to drive both modes within one process.
    #[must_use]
    pub fn with_streaming(benchmarks: &[Benchmark], events: u64, streamed: bool) -> Self {
        let mut span =
            ibp_obs::span!("generate_traces", benchmarks = benchmarks.len(), events = events);
        span.note("mode", if streamed { "streamed" } else { "materialized" });
        span.note(
            "trace_cache",
            if crate::trace_cache::engaged(events) {
                "on"
            } else {
                "off"
            },
        );
        let entries = if streamed {
            benchmarks
                .iter()
                .map(|&b| (b, TraceHandle::Streamed))
                .collect()
        } else {
            parallel_map(benchmarks, |&b| {
                let trace = crate::trace_cache::trace_for(b, events)
                    .unwrap_or_else(|| b.trace_with_len(events));
                (b, TraceHandle::Materialized(trace))
            })
        };
        Suite { entries, events }
    }

    /// The indirect-branch event count each trace was generated with.
    /// Together with the benchmark this identifies a trace exactly (trace
    /// generation is a pure function of both), which is what makes
    /// cross-suite memoization in [`crate::engine`] sound.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether this suite streams (holds no materialised traces).
    #[must_use]
    pub fn streamed(&self) -> bool {
        self.entries
            .iter()
            .any(|(_, h)| matches!(h, TraceHandle::Streamed))
    }

    /// All benchmarks in the suite, in construction order.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        self.entries.iter().map(|(b, _)| *b).collect()
    }

    fn handle(&self, benchmark: Benchmark) -> &TraceHandle {
        &self
            .entries
            .iter()
            .find(|(b, _)| *b == benchmark)
            .unwrap_or_else(|| panic!("benchmark {benchmark} not in suite"))
            .1
    }

    /// The materialised trace for a benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark is not part of this suite, or if the suite
    /// streams (use [`source`](Suite::source) / [`stats`](Suite::stats),
    /// which work in both modes).
    #[must_use]
    pub fn trace(&self, benchmark: Benchmark) -> &Trace {
        match self.handle(benchmark) {
            TraceHandle::Materialized(trace) => trace,
            TraceHandle::Streamed => panic!(
                "benchmark {benchmark} is streamed (suite built at {} events); \
                 use Suite::source or Suite::stats",
                self.events
            ),
        }
    }

    /// A fresh event source replaying the benchmark's trace: a cursor over
    /// the materialised trace, or a new generator pass when streaming.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark is not part of this suite.
    #[must_use]
    pub fn source(&self, benchmark: Benchmark) -> Box<dyn EventSource + '_> {
        match self.handle(benchmark) {
            TraceHandle::Materialized(trace) => Box::new(trace.cursor()),
            TraceHandle::Streamed => match crate::trace_cache::source_for(benchmark, self.events) {
                Some(replay) => Box::new(replay),
                None => Box::new(benchmark.source(self.events)),
            },
        }
    }

    /// The benchmark's [`TraceStats`], computed incrementally in streaming
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark is not part of this suite.
    #[must_use]
    pub fn stats(&self, benchmark: Benchmark) -> TraceStats {
        TraceStats::from_source(&mut *self.source(benchmark))
            .expect("suite sources cannot fail")
    }

    /// Runs a fresh predictor (from `make`) over every benchmark, in
    /// parallel.
    #[must_use]
    pub fn run<F>(&self, make: F) -> SuiteResult
    where
        F: Fn() -> Box<dyn Predictor> + Sync,
    {
        let benchmarks = self.benchmarks();
        let rates = parallel_map(&benchmarks, |&b| {
            let mut p = make();
            let stats = simulate_source(&mut *self.source(b), p.as_mut(), 0)
                .expect("suite sources cannot fail");
            (b, stats)
        });
        SuiteResult { runs: rates }
    }
}

impl Default for Suite {
    fn default() -> Self {
        Suite::new()
    }
}

/// Per-benchmark results of one predictor configuration over a [`Suite`].
#[derive(Debug, Clone)]
pub struct SuiteResult {
    runs: Vec<(Benchmark, RunStats)>,
}

impl SuiteResult {
    /// Assembles a result from per-benchmark stats (used by the sweep
    /// engine, which fills in memoized runs).
    pub(crate) fn from_runs(runs: Vec<(Benchmark, RunStats)>) -> Self {
        SuiteResult { runs }
    }

    /// The run statistics for one benchmark, if it was part of the suite.
    #[must_use]
    pub fn stats(&self, benchmark: Benchmark) -> Option<RunStats> {
        self.runs
            .iter()
            .find(|(b, _)| *b == benchmark)
            .map(|(_, r)| *r)
    }

    /// The misprediction rate for one benchmark, if present.
    #[must_use]
    pub fn rate(&self, benchmark: Benchmark) -> Option<f64> {
        self.stats(benchmark).map(|r| r.misprediction_rate())
    }

    /// All `(benchmark, misprediction rate)` pairs in suite order.
    #[must_use]
    pub fn rates(&self) -> Vec<(Benchmark, f64)> {
        self.runs
            .iter()
            .map(|(b, r)| (*b, r.misprediction_rate()))
            .collect()
    }

    /// The paper's group average: the arithmetic mean of per-benchmark
    /// misprediction rates over the group members present in this suite.
    /// `None` when no member is present.
    #[must_use]
    pub fn group_rate(&self, group: BenchmarkGroup) -> Option<f64> {
        let rates: Vec<f64> = self
            .runs
            .iter()
            .filter(|(b, _)| group.contains(*b))
            .map(|(_, r)| r.misprediction_rate())
            .collect();
        if rates.is_empty() {
            None
        } else {
            Some(rates.iter().sum::<f64>() / rates.len() as f64)
        }
    }

    /// Shorthand for the headline `AVG` group rate.
    ///
    /// # Panics
    ///
    /// Panics if no `AVG` member is present in the suite.
    #[must_use]
    pub fn avg(&self) -> f64 {
        self.group_rate(BenchmarkGroup::Avg)
            .expect("AVG members present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::PredictorConfig;

    fn tiny_suite() -> Suite {
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Xlisp], 5_000)
    }

    #[test]
    fn suite_holds_requested_benchmarks() {
        let s = tiny_suite();
        assert_eq!(s.benchmarks(), vec![Benchmark::Ixx, Benchmark::Xlisp]);
        assert_eq!(s.trace(Benchmark::Ixx).indirect_count(), 5_000);
    }

    #[test]
    #[should_panic(expected = "not in suite")]
    fn missing_benchmark_panics() {
        let s = tiny_suite();
        let _ = s.trace(Benchmark::Gcc);
    }

    #[test]
    fn run_reports_all_benchmarks() {
        let s = tiny_suite();
        let r = s.run(|| PredictorConfig::btb_2bc().build());
        assert!(r.rate(Benchmark::Ixx).is_some());
        assert!(r.rate(Benchmark::Xlisp).is_some());
        assert!(r.rate(Benchmark::Gcc).is_none());
        assert_eq!(r.rates().len(), 2);
    }

    #[test]
    fn group_rate_averages_members() {
        let s = tiny_suite();
        let r = s.run(|| PredictorConfig::btb_2bc().build());
        // Both benchmarks are AVG members; the group rate is their mean.
        let avg = r.group_rate(BenchmarkGroup::Avg).unwrap();
        let expect = (r.rate(Benchmark::Ixx).unwrap() + r.rate(Benchmark::Xlisp).unwrap()) / 2.0;
        assert!((avg - expect).abs() < 1e-12);
        assert!((r.avg() - expect).abs() < 1e-12);
        // No infrequent benchmark present.
        assert!(r.group_rate(BenchmarkGroup::AvgInfreq).is_none());
    }

    #[test]
    fn long_suites_stream_without_materialising() {
        // Construction is free: no generation happens until a source is
        // pulled, and then only chunk by chunk. Pin the trace cache off so
        // pulling a 250k source here does not write a segment file into
        // the crate's working directory.
        let _guard = crate::test_guard();
        crate::trace_cache::override_policy(Some(false));
        let s = Suite::with_benchmarks_and_len(&[Benchmark::Ixx], STREAM_THRESHOLD + 1);
        assert!(s.streamed());
        assert_eq!(s.benchmarks(), vec![Benchmark::Ixx]);
        let mut src = s.source(Benchmark::Ixx);
        assert_eq!(src.remaining_indirect(), Some(STREAM_THRESHOLD + 1));
        let mut chunk = ibp_trace::TraceChunk::default();
        let more = src.fill(&mut chunk, 64).unwrap();
        assert!(more);
        assert_eq!(chunk.indirect_count(), 64);
        drop(src);
        crate::trace_cache::override_policy(None);
    }

    #[test]
    #[should_panic(expected = "use Suite::source")]
    fn streamed_trace_access_panics() {
        let s = Suite::with_benchmarks_and_len(&[Benchmark::Ixx], STREAM_THRESHOLD + 1);
        let _ = s.trace(Benchmark::Ixx);
    }

    #[test]
    fn stats_match_trace_stats_in_materialized_mode() {
        let s = tiny_suite();
        let direct = s.trace(Benchmark::Ixx).stats();
        let via_suite = s.stats(Benchmark::Ixx);
        assert_eq!(direct.indirect_branches, via_suite.indirect_branches);
        assert_eq!(direct.distinct_sites, via_suite.distinct_sites);
        assert_eq!(direct.sites, via_suite.sites);
    }

    #[test]
    fn two_level_beats_btb_on_suite() {
        let s = tiny_suite();
        let btb = s.run(|| PredictorConfig::btb_2bc().build());
        let tl = s.run(|| PredictorConfig::unconstrained(4).build());
        assert!(tl.avg() < btb.avg(), "{} vs {}", tl.avg(), btb.avg());
    }
}
