//! Trace-corpus-cache equivalence: replaying cached `.ibpb` segments must
//! be observationally identical to generating traces directly — for every
//! benchmark, every scheduling mode, cold and warm.

use std::path::{Path, PathBuf};

use ibp_core::PredictorConfig;
use ibp_sim::engine;
use ibp_sim::trace_cache;
use ibp_sim::{Suite, SuiteResult};
use ibp_trace::collect_source;
use ibp_workload::Benchmark;

const EVENTS: u64 = 6_000;

/// The trace-cache counters asserted here are process-wide; the tests in
/// this binary must not interleave.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ibp-trace-cache-equivalence-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A config sample covering the kernel families: a BTB, a practical
/// two-level table and a hybrid.
fn sample_configs() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::btb_2bc(),
        PredictorConfig::practical(3, 1024, 4),
        PredictorConfig::hybrid(5, 1, 2048, 4),
    ]
}

/// Runs the config sample over the materialised `suite` and over a
/// streamed suite of the same traces from the same `corpus` — the two
/// scheduling modes every result must be identical across — with the memo
/// cache cleared so every cell simulates live.
fn run_all_modes(suite: &Suite, corpus: Option<&Path>) -> Vec<(&'static str, Vec<SuiteResult>)> {
    let streamed = Suite::with_streaming(&Benchmark::ALL, EVENTS, true, corpus);
    [("materialised", suite), ("streamed", &streamed)]
        .into_iter()
        .map(|(label, suite)| {
            engine::clear_memo_cache();
            (label, engine::run_configs(suite, sample_configs()))
        })
        .collect()
}

fn assert_identical(
    baseline: &[(&'static str, Vec<SuiteResult>)],
    other: &[(&'static str, Vec<SuiteResult>)],
    round: &str,
) {
    for ((mode, base), (_, got)) in baseline.iter().zip(other) {
        for (config, (b, g)) in sample_configs().iter().zip(base.iter().zip(got)) {
            for benchmark in Benchmark::ALL {
                assert_eq!(
                    b.stats(benchmark),
                    g.stats(benchmark),
                    "{round}/{mode}: {benchmark} diverges under {}",
                    config.cache_key()
                );
            }
        }
    }
}

#[test]
fn cached_replay_is_identical_across_all_benchmarks_and_modes() {
    let _guard = serial();
    let root = scratch_root("modes");
    let corpus = Some(root.as_path());

    // Baseline: no corpus, traces generated directly.
    let baseline_suite = Suite::with_streaming(&Benchmark::ALL, EVENTS, false, None);
    let baseline = run_all_modes(&baseline_suite, None);

    // Cold round: every segment generated and published.
    let before_cold = trace_cache::stats();
    let cold_suite = Suite::with_streaming(&Benchmark::ALL, EVENTS, false, corpus);
    let cold_delta = trace_cache::stats().since(before_cold);
    assert_eq!(
        cold_delta.misses,
        Benchmark::ALL.len() as u64,
        "cold build generates one segment per benchmark"
    );
    let cold = run_all_modes(&cold_suite, corpus);
    assert_identical(&baseline, &cold, "cold");

    // Warm round: a fresh suite replays every segment from disk.
    let before_warm = trace_cache::stats();
    let warm_suite = Suite::with_streaming(&Benchmark::ALL, EVENTS, false, corpus);
    let warm_delta = trace_cache::stats().since(before_warm);
    assert_eq!(warm_delta.misses, 0, "warm build regenerates nothing");
    assert_eq!(
        warm_delta.hits,
        Benchmark::ALL.len() as u64,
        "warm build replays every benchmark"
    );
    let warm = run_all_modes(&warm_suite, corpus);
    assert_identical(&baseline, &warm, "warm");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn streamed_replay_matches_the_generator_event_for_event() {
    let _guard = serial();
    let root = scratch_root("streamed");

    for benchmark in [Benchmark::Ixx, Benchmark::Gcc, Benchmark::Eqn] {
        let mut replay =
            trace_cache::source_at(&root, benchmark, EVENTS).expect("corpus writable");
        let replayed = collect_source(&mut replay).expect("replay");
        let direct = benchmark.trace_with_len(EVENTS);
        assert_eq!(replayed.events(), direct.events(), "{benchmark}");
        assert_eq!(replayed.instructions(), direct.instructions(), "{benchmark}");
        assert_eq!(replayed.cond_count(), direct.cond_count(), "{benchmark}");
        assert_eq!(replayed.name(), direct.name(), "{benchmark}");
    }

    let _ = std::fs::remove_dir_all(&root);
}
