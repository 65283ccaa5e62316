//! Engine-level fault-containment equivalence: in both scheduling modes
//! (materialised and streamed suites), an injected worker panic (at the
//! first, middle, or last armed occurrence) and each I/O fault site must
//! fire exactly once and end in the unfaulted run's exact tables plus —
//! where the journal survives — at least one `degraded` record. Never a
//! process abort, never a wrong number. The grid covers every site
//! `faults::sites()` registers.
//!
//! The tests serialise on a local mutex: fault arming and the journal
//! sink are process-global.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ibp_core::PredictorConfig;
use ibp_obs::{journal, Kind, ProbePolicy, Record};
use ibp_sim::engine::{self, Sweep};
use ibp_sim::{faults, trace_cache, Suite, SuiteResult};
use ibp_workload::Benchmark;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Ixx, Benchmark::Xlisp];
const EVENTS: u64 = 6_000;

/// The panic site the first test drives.
const PANIC_SITE: &str = "parallel.worker";

/// The I/O sites the second test drives.
const IO_SITES: [&str; 4] = [
    "trace_cache.write",
    "trace_cache.rename",
    "trace_cache.read",
    "journal.write",
];

/// The scheduling modes: materialised suites fold one cell per queue
/// item, streamed suites fold one benchmark group per item.
const MODES: [(&str, bool); 2] = [("materialised", false), ("streamed", true)];

fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many `degraded` events a captured journal holds.
fn degraded_count(records: &[Record]) -> usize {
    records
        .iter()
        .filter(|r| r.kind == Kind::Event && r.name == "degraded")
        .count()
}

/// One sweep over a BTB, an unbounded two-level config and a hybrid.
fn run_sweep(suite: &Suite) -> String {
    let results: Vec<SuiteResult> = Sweep::new(suite)
        .config(PredictorConfig::btb_2bc())
        .config(PredictorConfig::unconstrained(3))
        .config(PredictorConfig::hybrid(6, 2, 256, 4))
        .run();
    let mut out = String::new();
    for (i, r) in results.iter().enumerate() {
        for &b in &BENCHMARKS {
            let s = r.stats(b).expect("every benchmark simulated");
            out.push_str(&format!(
                "{i},{},{},{}\n",
                b.name(),
                s.indirect,
                s.mispredicted
            ));
        }
    }
    out
}

fn baseline() -> String {
    engine::clear_memo_cache();
    run_sweep(&Suite::with_streaming(&BENCHMARKS, EVENTS, false, None))
}

/// Arms `spec`, runs one sweep with a capturing journal, disarms, and
/// returns (tables, times the site fired, degraded records journaled).
fn faulted_pass(suite: &Suite, site: &str, spec: &str) -> (String, u64, usize) {
    let armed = faults::arm(spec).expect("valid spec");
    engine::clear_memo_cache();
    let (tables, records) = journal::capture(ProbePolicy::Off, || run_sweep(suite));
    let fired = faults::fired(site);
    drop(armed);
    (tables, fired, degraded_count(&records))
}

#[test]
fn the_grid_covers_every_registered_site() {
    let registered: Vec<&str> = faults::sites().iter().map(|s| s.name).collect();
    let mut covered = vec![PANIC_SITE];
    covered.extend(IO_SITES);
    assert_eq!(covered, registered, "a registered fault site is missing from the grid");
}

#[test]
fn worker_panics_at_first_mid_and_last_occurrence_degrade_without_divergence() {
    let _serial = serial();
    let baseline = baseline();
    let site = PANIC_SITE;

    for (mode, streamed) in MODES {
        let suite = Suite::with_streaming(&BENCHMARKS, EVENTS, streamed, None);

        // Probe pass: arm far beyond reach to count how many times the
        // site is consulted in this mode, without firing. That pins the
        // first / middle / last occurrence targets to this exact
        // workload instead of a guessed queue length.
        let armed = faults::arm(&format!("{site}@1000000000")).expect("probe spec");
        engine::clear_memo_cache();
        let clean = run_sweep(&suite);
        let occurrences = faults::seen(site);
        drop(armed);
        assert_eq!(clean, baseline, "{mode}: clean pass must match");
        assert!(occurrences >= 1, "{mode}: site must be on this mode's path");

        let mut targets = vec![1, (occurrences / 2).max(1), occurrences];
        targets.dedup();
        for target in targets {
            let (tables, fired, degraded) = faulted_pass(&suite, site, &format!("{site}@{target}"));
            assert_eq!(fired, 1, "{mode} {site}@{target} must fire exactly once");
            assert_eq!(
                tables, baseline,
                "{mode} {site}@{target}: degraded tables must be byte-identical"
            );
            assert!(
                degraded >= 1,
                "{mode} {site}@{target}: the retry must journal a degraded record"
            );
        }
    }
}

#[test]
fn io_faults_warn_and_continue_without_divergence() {
    let _serial = serial();
    // All trace-cache traffic lands in a scratch corpus.
    let scratch = std::env::temp_dir().join(format!("ibp-fault-itest-{}", std::process::id()));
    let corpus = scratch.join("traces");
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    // The trace-cache sites fire at suite construction (materialised) or
    // when a group opens its source (streamed), so every pass builds its
    // suite fresh inside the armed window.
    engine::clear_memo_cache();
    let baseline = run_sweep(&Suite::with_streaming(&BENCHMARKS, EVENTS, false, Some(&corpus)));

    for (mode, streamed) in MODES {
        for site in IO_SITES {
            // A hit segment skips the write/publish path, so those passes
            // start from an empty corpus. Verification runs once per
            // process per segment, so forget it to re-reach the read path.
            trace_cache::forget_verified();
            let corpus = match site {
                "trace_cache.write" | "trace_cache.rename" => scratch.join(format!("{mode}-{site}")),
                _ => corpus.clone(),
            };
            let armed = faults::arm(&format!("{site}@1")).expect("valid spec");
            engine::clear_memo_cache();
            let (tables, records) = journal::capture(ProbePolicy::Off, || {
                run_sweep(&Suite::with_streaming(&BENCHMARKS, EVENTS, streamed, Some(&corpus)))
            });
            let fired = faults::fired(site);
            drop(armed);

            assert_eq!(fired, 1, "{mode} {site} must fire exactly once");
            assert_eq!(
                tables, baseline,
                "{mode} {site}: tables must be byte-identical"
            );
            if site != "journal.write" {
                // The journal fault disables the journal itself — its clean
                // outcome is the warn, not a record.
                assert!(
                    degraded_count(&records) >= 1,
                    "{mode} {site}: warn-and-continue must journal a degraded record"
                );
            }
        }
    }

    let _ = std::fs::remove_dir_all(&scratch);
}
