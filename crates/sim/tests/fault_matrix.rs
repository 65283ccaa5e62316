//! Engine-level fault-containment equivalence: in both scheduling modes
//! (materialised and streamed suites), an injected worker panic (at the
//! first, middle, or last armed occurrence) and each I/O fault site must
//! end in the unfaulted run's exact tables plus — where the journal
//! survives — at least one `degraded` record. Never a process abort,
//! never a wrong number.
//!
//! The tests serialise on a local mutex: fault arming, the trace-cache
//! overrides, and the journal sink are process-global.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ibp_core::PredictorConfig;
use ibp_obs::{self as obs, Kind, Record};
use ibp_sim::engine::{self, Sweep};
use ibp_sim::{faults, trace_cache, Suite, SuiteResult};
use ibp_workload::Benchmark;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Ixx, Benchmark::Xlisp];
const EVENTS: u64 = 6_000;

/// The scheduling modes: materialised suites fold one cell per queue
/// item, streamed suites fold one benchmark group per item.
const MODES: [(&str, bool); 2] = [("materialised", false), ("streamed", true)];

fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A journal sink the test can read back after `uninstall`.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn degraded_count(&self) -> usize {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8_lossy(&bytes)
            .lines()
            .filter_map(|l| Record::parse(l).ok())
            .filter(|r| r.kind == Kind::Event && r.name == "degraded")
            .count()
    }
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
    run_sweep(&Suite::with_streaming(&BENCHMARKS, EVENTS, false))
}

/// Arms `spec`, runs one sweep with a capturing journal, disarms, and
/// returns (tables, times the site fired, degraded records journaled).
fn faulted_pass(suite: &Suite, site: &str, spec: &str) -> (String, u64, usize) {
    faults::override_spec(Some(spec)).expect("valid spec");
    let buf = SharedBuf::default();
    obs::journal::install_writer(Box::new(buf.clone()));
    engine::clear_memo_cache();
    let tables = run_sweep(suite);
    obs::journal::uninstall();
    let fired = faults::fired(site);
    faults::override_spec(None).expect("disarm");
    (tables, fired, buf.degraded_count())
}

#[test]
fn worker_panics_at_first_mid_and_last_occurrence_degrade_without_divergence() {
    let _serial = serial();
    let baseline = baseline();
    let site = "parallel.worker";

    for (mode, streamed) in MODES {
        let suite = Suite::with_streaming(&BENCHMARKS, EVENTS, streamed);

        // Probe pass: arm far beyond reach to count how many times the
        // site is consulted in this mode, without firing. That pins the
        // first / middle / last occurrence targets to this exact
        // workload instead of a guessed queue length.
        faults::override_spec(Some(&format!("{site}@1000000000"))).expect("probe spec");
        engine::clear_memo_cache();
        let clean = run_sweep(&suite);
        let occurrences = faults::seen(site);
        faults::override_spec(None).expect("disarm probe");
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
    // All trace-cache traffic lands in scratch under an explicit root.
    let scratch = std::env::temp_dir().join(format!("ibp-fault-itest-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    trace_cache::override_root(Some(scratch.join("traces")));
    trace_cache::override_policy(Some(true));

    // The trace-cache sites fire at suite construction (materialised) or
    // when a group opens its source (streamed), so every pass builds its
    // suite fresh inside the armed window.
    engine::clear_memo_cache();
    let baseline = run_sweep(&Suite::with_streaming(&BENCHMARKS, EVENTS, false));

    for (mode, streamed) in MODES {
        for site in [
            "trace_cache.write",
            "trace_cache.rename",
            "trace_cache.read",
            "journal.write",
        ] {
            match site {
                // A hit segment skips the write/publish path; purge so the
                // pass regenerates. Verification runs once per process per
                // segment, so forget to re-reach the read path.
                "trace_cache.write" | "trace_cache.rename" => trace_cache::purge(),
                "trace_cache.read" => trace_cache::forget_verified(),
                _ => {}
            }
            faults::override_spec(Some(&format!("{site}@1"))).expect("valid spec");
            let buf = SharedBuf::default();
            obs::journal::install_writer(Box::new(buf.clone()));
            engine::clear_memo_cache();
            let suite = Suite::with_streaming(&BENCHMARKS, EVENTS, streamed);
            let tables = run_sweep(&suite);
            obs::journal::uninstall();
            let fired = faults::fired(site);
            faults::override_spec(None).expect("disarm");

            assert_eq!(fired, 1, "{mode} {site} must fire exactly once");
            assert_eq!(
                tables, baseline,
                "{mode} {site}: tables must be byte-identical"
            );
            if site != "journal.write" {
                // The journal fault disables the journal itself — its clean
                // outcome is the warn, not a record.
                assert!(
                    buf.degraded_count() >= 1,
                    "{mode} {site}: warn-and-continue must journal a degraded record"
                );
            }
        }
    }

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&scratch);
}
