//! The scoring pipeline checked against predictors whose answers are known.
//!
//! A `ReplayOracle` holds the trace's indirect-target sequence: `predict`
//! answers for the next target and `update` advances the index, so it stays
//! aligned through any warm-up. Folded under `FoldKernel::Dyn` through each
//! of the four public `simulate*` entry points, over materialised and streamed
//! traces, at every probe level, with the trace cache off and on, it must
//! score exactly `events − warmup` events. The exact oracle must hit every
//! one; one always predicting a wrong target must miss every one as
//! wrong-target, and one never predicting must miss every one as no-entry.
//! That catches a scorer that miscounts the warm-up, scores `None` as a
//! hit, or shifts the miss taxonomy.
//!
//! The journal sink, which carries the probe level, is process-global, so
//! every test here holds one serial lock.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use ibp_core::{FoldKernel, Predictor, Snapshot, TableSnapshot};
use ibp_obs::json::Json;
use ibp_obs::{journal, Kind, Record};
use ibp_sim::probe::{Attribution, ProbePolicy};
use ibp_sim::{
    simulate, simulate_attributed, simulate_kernel, simulate_source_multi, trace_cache, RunStats,
};
use ibp_trace::{Addr, EventSource, Trace, TraceEvent};
use ibp_workload::Benchmark;

const EVENTS: u64 = 3_000;

const ENTRY_POINTS: [&str; 4] = [
    "simulate",
    "simulate_source_multi",
    "simulate_kernel",
    "simulate_attributed",
];

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Exact,
    Wrong,
    Silent,
}

#[derive(Debug, Clone)]
struct ReplayOracle {
    targets: Vec<Addr>,
    next: usize,
    answer: Answer,
}

impl Predictor for ReplayOracle {
    fn predict(&self, _pc: Addr) -> Option<Addr> {
        let target = self.targets[self.next];
        match self.answer {
            Answer::Exact => Some(target),
            Answer::Wrong => Some(Addr::new(target.raw() ^ 4)),
            Answer::Silent => None,
        }
    }

    fn update(&mut self, _pc: Addr, _actual: Addr) {
        self.next += 1;
    }

    fn reset(&mut self) {
        self.next = 0;
    }

    fn name(&self) -> String {
        format!("replay oracle ({:?})", self.answer)
    }

    /// A trivial snapshot, so probed runs write their `probe` records.
    fn snapshot(&self) -> Option<Snapshot> {
        Some(Snapshot::single("oracle", TableSnapshot::default()))
    }
}

/// One way of reading a benchmark's events; `Some` corpus replays them
/// from the trace cache.
enum Feed {
    Materialised(Trace),
    Streamed(Benchmark, Option<PathBuf>),
}

impl Feed {
    fn source(&self) -> Box<dyn EventSource + '_> {
        match self {
            Feed::Materialised(trace) => Box::new(trace.cursor()),
            Feed::Streamed(b, None) => Box::new(b.source(EVENTS)),
            Feed::Streamed(b, Some(corpus)) => {
                Box::new(trace_cache::source_at(corpus, *b, EVENTS).expect("corpus writable"))
            }
        }
    }
}

/// Folds a fresh copy of `oracle` through entry point `entry` over
/// `feed`; `None` when the entry point cannot express the run (the façade
/// takes neither a source nor a warm-up).
fn fold(
    entry: usize,
    feed: &Feed,
    oracle: &ReplayOracle,
    warmup: u64,
) -> Option<(RunStats, Option<Attribution>)> {
    let mut boxed: Box<dyn Predictor> = Box::new(oracle.clone());
    let mut source = feed.source();
    let source = &mut *source;
    let out = match (entry, feed) {
        (0, Feed::Materialised(trace)) if warmup == 0 => (simulate(trace, boxed.as_mut()), None),
        (0, _) => return None,
        (1, _) => (
            simulate_source_multi(source, &mut [boxed.as_mut()], warmup).expect("source")[0],
            None,
        ),
        (2, _) => {
            let mut kernel = FoldKernel::from_boxed(boxed);
            (
                simulate_kernel(source, &mut kernel, warmup).expect("source"),
                None,
            )
        }
        _ => {
            let mut kernel = FoldKernel::from_boxed(boxed);
            let (stats, attribution) =
                simulate_attributed(source, &mut kernel, warmup).expect("source");
            (stats, Some(attribution))
        }
    };
    Some(out)
}

/// The class counts of the run's `end` probe record.
fn journaled_attribution(records: &[Record]) -> Attribution {
    let end = records
        .iter()
        .find(|r| r.kind == Kind::Probe && r.field_str("point") == Some("end"))
        .expect("an end probe record");
    let attr = end
        .field("attribution")
        .expect("attribution on the end record");
    let count = |key: &str| attr.get(key).and_then(Json::as_u64).expect(key);
    Attribution {
        hits: count("hits"),
        wrong_target: count("wrong_target"),
        no_entry: count("no_entry"),
        cold: count("cold"),
        capacity: count("capacity"),
        ..Attribution::default()
    }
}

fn check_grid(answer: Answer) {
    let _guard = serial();
    let corpus = std::env::temp_dir().join(format!("ibp-oracle-{}-{answer:?}", std::process::id()));
    let _ = std::fs::remove_dir_all(&corpus);
    let mut runs = 0;
    for benchmark in [Benchmark::Ixx, Benchmark::Gcc] {
        let trace = benchmark.trace_with_len(EVENTS);
        let targets = trace.events().iter().filter_map(|e| match e {
            TraceEvent::Indirect(b) => Some(b.target),
            TraceEvent::Cond(_) => None,
        });
        let oracle = ReplayOracle {
            targets: targets.collect(),
            next: 0,
            answer,
        };
        let cached = trace_cache::trace_at(&corpus, benchmark, EVENTS).expect("corpus writable");
        let feeds = [
            ("materialised", Feed::Materialised(trace)),
            ("streamed", Feed::Streamed(benchmark, None)),
            ("cached materialised", Feed::Materialised(cached)),
            (
                "cached streamed",
                Feed::Streamed(benchmark, Some(corpus.clone())),
            ),
        ];
        for ((feed_label, feed), policy) in feeds
            .iter()
            .flat_map(|f| [ProbePolicy::Off, ProbePolicy::On, ProbePolicy::Deep].map(|p| (f, p)))
        {
            for (entry, warmup) in (0..ENTRY_POINTS.len()).flat_map(|e| [(e, 0), (e, 137)]) {
                let label = format!(
                    "{benchmark} {feed_label} {policy:?} {} warmup {warmup}",
                    ENTRY_POINTS[entry]
                );
                let (out, records) =
                    journal::capture(policy, || fold(entry, feed, &oracle, warmup));
                let Some((stats, attribution)) = out else {
                    continue;
                };
                runs += 1;
                let scored = EVENTS - warmup;
                let mut expected = Attribution::default();
                match answer {
                    Answer::Exact => expected.hits = scored,
                    Answer::Wrong => expected.wrong_target = scored,
                    // No key fingerprint: no cold/capacity split.
                    Answer::Silent => expected.no_entry = scored,
                }
                assert_eq!(stats.indirect, scored, "{label}: scored events");
                assert_eq!(
                    stats.mispredicted,
                    scored - expected.hits,
                    "{label}: misses"
                );
                let probes = records.iter().filter(|r| r.kind == Kind::Probe).count();
                if let Some(mut attribution) = attribution {
                    let sites = std::mem::take(&mut attribution.sites);
                    assert_eq!(attribution, expected, "{label}: attribution");
                    assert_eq!(sites.is_empty(), answer == Answer::Exact, "{label}: sites");
                    assert_eq!(probes, 0, "{label}: an attributed run journals no probes");
                } else if policy.on() {
                    assert_eq!(
                        journaled_attribution(&records),
                        expected,
                        "{label}: journal"
                    );
                } else {
                    assert_eq!(probes, 0, "{label}: probes off");
                }
            }
        }
    }
    // 2 benchmarks × 4 feeds × 3 probe levels × 3 entry points × 2
    // warm-ups, plus the façade over the materialised feeds at warm-up 0.
    assert_eq!(runs, 2 * 4 * 3 * 3 * 2 + 2 * 2 * 3);
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn replay_oracle_scores_zero_mispredictions_everywhere() {
    check_grid(Answer::Exact);
}

#[test]
fn always_wrong_oracle_scores_all_wrong_target() {
    check_grid(Answer::Wrong);
}

#[test]
fn silent_oracle_scores_all_no_entry() {
    check_grid(Answer::Silent);
}
