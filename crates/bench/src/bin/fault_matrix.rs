//! Sweeps the fault × scheduling-mode grid and asserts containment.
//!
//! Usage: `fault_matrix [--events N]` (default: 20000 events). For every
//! registered injection site (see `ibp_sim::faults::SITES`) under each
//! scheduling mode — materialised suites (one queue item per cell) and
//! streamed suites (one queue item per benchmark group) — the harness
//! arms the fault at its first occurrence, runs a small sweep (on a fresh
//! suite build, so the trace-cache I/O sites are on the path), and checks
//! that:
//!
//! * the process does not abort, and
//! * the result tables are byte-identical to the unfaulted materialised
//!   baseline — a fault may cost wall time (a `degraded` journal event
//!   records the retry or fallback), never correctness.
//!
//! Each cell is rated `ok (degraded)` when the fault fired and the engine
//! logged a degraded event, `ok (contained)` when it fired and was
//! absorbed by a warn-and-continue path (e.g. the journal disabling
//! itself), `ok (not hit)` when the site is off that mode's code path,
//! and `DIVERGED` — a failure, nonzero exit — when tables differ.
//!
//! All output lands in a scratch directory (the harness sets the
//! trace-cache root before any cache is touched and gives every journal
//! an explicit path), so runs never dirty a working tree.

use std::path::PathBuf;
use std::process::ExitCode;

use ibp_core::PredictorConfig;
use ibp_obs as obs;
use ibp_sim::engine::{self, Sweep};
use ibp_sim::{faults, trace_cache, Suite, SuiteResult};
use ibp_workload::Benchmark;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Ixx, Benchmark::Xlisp];

fn usage() -> ! {
    eprintln!("usage: fault_matrix [--events N]");
    std::process::exit(2);
}

/// The scheduling modes, as (label, streamed).
const MODES: [(&str, bool); 2] = [("materialised", false), ("streamed", true)];

/// One full pass: fresh suite (so trace-cache I/O is on the path) and the
/// three-config sweep. Returns the canonical table rendering.
fn run_pass(events: u64, streamed: bool) -> String {
    let suite = Suite::with_streaming(&BENCHMARKS, events, streamed);
    let results = Sweep::new(&suite)
        .config(PredictorConfig::btb_2bc())
        .config(PredictorConfig::unconstrained(3))
        .config(PredictorConfig::hybrid(6, 2, 256, 4))
        .run();
    render(&results)
}

fn render(results: &[SuiteResult]) -> String {
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

/// Counts `degraded` events in one cell's journal. A journal the injected
/// fault itself disabled reads as zero — that is the warn-and-continue
/// outcome, not an error.
fn degraded_events(path: &std::path::Path) -> usize {
    match obs::read_journal(path) {
        Ok(records) => records
            .iter()
            .filter(|r| r.kind == obs::Kind::Event && r.name == "degraded")
            .count(),
        Err(_) => 0,
    }
}

fn main() -> ExitCode {
    let mut events: u64 = 20_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--events" => {
                events = args.next().and_then(|n| n.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --events needs a number");
                    usage()
                });
            }
            _ => usage(),
        }
    }

    // Everything — trace cache, journals — lands in scratch.
    let scratch = std::env::temp_dir().join(format!("ibp-fault-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    trace_cache::override_root(Some(scratch.join("traces")));
    // Force the trace cache on below its normal threshold so its I/O
    // sites are exercised at harness-sized event counts.
    trace_cache::override_policy(Some(true));

    eprintln!(
        "== fault matrix: {} sites x {} modes ({events} events) ==",
        faults::sites().len(),
        MODES.len()
    );

    // Unfaulted materialised baseline: the truth every faulted cell must
    // reproduce byte-identically.
    engine::clear_memo_cache();
    let baseline = run_pass(events, false);

    let mut failures = 0usize;
    let mut grid: Vec<(String, Vec<String>)> = Vec::new();
    for site in faults::sites() {
        let mut row = Vec::new();
        for (label, streamed) in MODES {
            // Site prep: make the armed code path reachable again.
            match site.name {
                // A hit segment skips the write/publish path; purge so
                // the pass regenerates (and re-writes) its segments.
                "trace_cache.write" | "trace_cache.rename" => trace_cache::purge(),
                // Verification only runs once per process per segment.
                "trace_cache.read" => trace_cache::forget_verified(),
                _ => {}
            }
            engine::clear_memo_cache();
            let journal: PathBuf = scratch.join(format!("journal-{label}-{}.jsonl", site.name));
            let _ = std::fs::remove_file(&journal);
            obs::journal::install(&journal).expect("install journal");

            faults::override_spec(Some(&format!("{}@1", site.name))).expect("registered site");
            let table = run_pass(events, streamed);
            let fired = faults::fired(site.name);
            faults::override_spec(None).expect("disarm");
            obs::journal::uninstall();

            let verdict = if table != baseline {
                failures += 1;
                "DIVERGED".to_string()
            } else if fired == 0 {
                "ok (not hit)".to_string()
            } else if degraded_events(&journal) > 0 {
                "ok (degraded)".to_string()
            } else {
                "ok (contained)".to_string()
            };
            row.push(verdict);
        }
        grid.push((site.name.to_string(), row));
    }
    trace_cache::override_policy(None);
    trace_cache::override_root(None);

    println!("{:<20} {:<16} {:<16}", "site", MODES[0].0, MODES[1].0);
    for (site, row) in &grid {
        println!("{site:<20} {:<16} {:<16}", row[0], row[1]);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    if failures > 0 {
        eprintln!("error: {failures} cell(s) diverged from the unfaulted baseline");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "all {} cells contained: tables byte-identical to baseline",
        grid.len() * MODES.len()
    );
    ExitCode::SUCCESS
}
