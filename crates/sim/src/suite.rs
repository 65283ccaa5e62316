//! The benchmark suite: traces, per-benchmark rates, group averages.

use std::path::{Path, PathBuf};

use ibp_core::{FoldKernel, Predictor};
use ibp_trace::{EventSource, Trace, TraceStats};
use ibp_workload::{Benchmark, BenchmarkGroup};

use crate::parallel::parallel_map;
use crate::run::{simulate_kernel, RunStats};

/// Above this trace length, suites stream instead of materialising (a
/// materialised 17-benchmark suite at 250k events is already several
/// hundred MB with interleaved conditionals).
pub(crate) const STREAM_THRESHOLD: u64 = 250_000;

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
/// At moderate lengths (up to 250,000 events) traces are generated
/// once and materialised. Beyond that the suite holds no events at all:
/// consumers pull chunked, resumable generator passes through
/// [`source`](Suite::source), which makes million-event suites run in
/// constant memory. Both modes produce event-identical streams.
#[derive(Debug)]
pub struct Suite {
    entries: Vec<(Benchmark, TraceHandle)>,
    events: u64,
    /// The trace corpus root traces are replayed from, if any.
    corpus: Option<PathBuf>,
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
        Suite::with_benchmarks_and_len(benchmarks, ibp_obs::knobs().events)
    }

    /// Builds the given benchmarks with `events` indirect branches each:
    /// streamed beyond 250,000 events, materialised up to that,
    /// and replayed from the default trace corpus when it engages
    /// ([`trace_cache::default_corpus`](crate::trace_cache::default_corpus)).
    #[must_use]
    pub fn with_benchmarks_and_len(benchmarks: &[Benchmark], events: u64) -> Self {
        let corpus = crate::trace_cache::default_corpus(events);
        Suite::with_streaming(benchmarks, events, events > STREAM_THRESHOLD, corpus.as_deref())
    }

    /// Like [`with_benchmarks_and_len`](Suite::with_benchmarks_and_len),
    /// with the scheduling mode and the trace corpus chosen by the caller:
    /// `streamed` suites hold no events, and `corpus` is the root whose
    /// segments every trace is replayed from (`None` generates directly).
    /// Harnesses use this to drive both modes, with and without a corpus,
    /// within one process.
    #[must_use]
    pub fn with_streaming(
        benchmarks: &[Benchmark],
        events: u64,
        streamed: bool,
        corpus: Option<&Path>,
    ) -> Self {
        let mut span =
            ibp_obs::span!("generate_traces", benchmarks = benchmarks.len(), events = events);
        span.note("mode", if streamed { "streamed" } else { "materialized" });
        span.note("trace_cache", if corpus.is_some() { "on" } else { "off" });
        let entries = if streamed {
            benchmarks
                .iter()
                .map(|&b| (b, TraceHandle::Streamed))
                .collect()
        } else {
            parallel_map(benchmarks, |&b| {
                let trace = corpus
                    .and_then(|root| crate::trace_cache::trace_at(root, b, events))
                    .unwrap_or_else(|| b.trace_with_len(events));
                (b, TraceHandle::Materialized(trace))
            })
        };
        Suite {
            entries,
            events,
            corpus: corpus.map(Path::to_path_buf),
        }
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
            TraceHandle::Streamed => match self
                .corpus
                .as_deref()
                .and_then(|root| crate::trace_cache::source_at(root, benchmark, self.events))
            {
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
            let mut kernel = FoldKernel::from_boxed(make());
            let stats = simulate_kernel(&mut *self.source(b), &mut kernel, 0)
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
        // pulled, and then only chunk by chunk. The default constructor
        // picks the mode; the pulled source comes from a corpus-less twin
        // so that a 250k source here writes no segment file into the
        // crate's working directory.
        let events = STREAM_THRESHOLD + 1;
        let s = Suite::with_benchmarks_and_len(&[Benchmark::Ixx], events);
        assert!(s.streamed());
        assert!(!Suite::with_benchmarks_and_len(&[Benchmark::Ixx], 5_000).streamed());
        assert_eq!(s.benchmarks(), vec![Benchmark::Ixx]);
        let s = Suite::with_streaming(&[Benchmark::Ixx], events, true, None);
        let mut src = s.source(Benchmark::Ixx);
        assert_eq!(src.remaining_indirect(), Some(events));
        let mut chunk = ibp_trace::TraceChunk::default();
        let more = src.fill(&mut chunk, 64).unwrap();
        assert!(more);
        assert_eq!(chunk.indirect_count(), 64);
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
