//! Deterministic fault injection for the containment layer (`IBP_FAULTS`).
//!
//! The simulator promises that a worker panic or a failed cache write
//! costs wall time, never correctness: `parallel_map` contains a panic and
//! retries the cell inline, and every trace-cache or journal I/O failure
//! warns and falls back. That promise is only worth having if it is exercised, so this module
//! lets a run arm faults at *named sites* that fire at a deterministic
//! occurrence count — every failure is reproducible from the spec alone.
//!
//! # Spec grammar
//!
//! `IBP_FAULTS` is a semicolon-separated list of clauses:
//!
//! ```text
//! IBP_FAULTS="parallel.worker@3;trace_cache.read"
//! ```
//!
//! * `<site>` — arm `site` to fire at its first occurrence;
//! * `<site>@<n>` — arm `site` to fire at its `n`-th occurrence (1-based);
//! * `seed=<s>` — derive the occurrence for every armed site without an
//!   explicit `@<n>` from `s` (a cheap deterministic mix of seed and site
//!   name), so one integer explores many schedules reproducibly.
//!
//! Unset or empty means injection is off (the only extra cost on hot
//! paths is one relaxed atomic load). A malformed spec warns and leaves
//! injection off — a bad knob must never corrupt a measurement run.
//! Tests arm their own spec with [`arm`].
//!
//! Each armed site fires **exactly once** per arming: the n-th call to
//! [`should_fire`] for that site returns true, every other call false.
//! One-shot semantics are what make the inline retry safe to drive under
//! injection — the retry never re-trips the same fault.
//!
//! The registered sites are listed in [`SITES`]; the `fault_matrix`
//! integration test sweeps all of them under every scheduling mode.

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread panics (`fire_panic`).
    Panic,
    /// An I/O operation fails with an injected error (`io_error`).
    Io,
}

/// One registered injection point.
#[derive(Debug, Clone, Copy)]
pub struct FaultSite {
    /// Site name as written in the spec (e.g. `parallel.worker`).
    pub name: &'static str,
    /// What firing does.
    pub kind: FaultKind,
    /// Where the site lives and what failing there exercises.
    pub what: &'static str,
}

/// Every site a spec can arm. The `fault_matrix` test covers this table.
pub const SITES: &[FaultSite] = &[
    FaultSite {
        name: "parallel.worker",
        kind: FaultKind::Panic,
        what: "parallel_map item fold panics; retried inline on the calling path",
    },
    FaultSite {
        name: "trace_cache.write",
        kind: FaultKind::Io,
        what: "trace segment encode/write fails; falls back to direct generation",
    },
    FaultSite {
        name: "trace_cache.rename",
        kind: FaultKind::Io,
        what: "trace segment publish rename fails; tmp cleaned, falls back to direct generation",
    },
    FaultSite {
        name: "trace_cache.read",
        kind: FaultKind::Io,
        what: "trace segment verification reads corrupt; segment evicted and regenerated",
    },
    FaultSite {
        name: "journal.write",
        kind: FaultKind::Io,
        what: "journal sink write fails; journal disables itself with a warning, run continues",
    },
];

/// The registered sites (spec vocabulary), for harnesses and `--help`
/// style listings.
#[must_use]
pub fn sites() -> &'static [FaultSite] {
    SITES
}

fn site_known(name: &str) -> bool {
    SITES.iter().any(|s| s.name == name)
}

/// One armed site: fire at exactly the `fire_at`-th occurrence.
#[derive(Debug, Clone)]
struct Arm {
    fire_at: u64,
    seen: u64,
    fired: u64,
}

#[derive(Debug, Clone, Default)]
struct Plan {
    arms: HashMap<&'static str, Arm>,
}

impl Plan {
    fn is_armed(&self) -> bool {
        !self.arms.is_empty()
    }
}

/// Whether any fault site is armed — the hot-path gate.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn plan() -> &'static Mutex<Plan> {
    static PLAN: OnceLock<Mutex<Plan>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let (parsed, warning) = plan_for(ibp_obs::knobs().faults.clone());
        if let Some(warning) = warning {
            eprintln!("{warning}");
        }
        apply(&parsed);
        Mutex::new(parsed)
    })
}

/// Resolves a raw `IBP_FAULTS` spec into the plan it arms, with the
/// warning to print when it is malformed (it then arms nothing).
fn plan_for(spec: Option<String>) -> (Plan, Option<String>) {
    ibp_obs::resolve_knob(
        "IBP_FAULTS",
        spec,
        "clauses like site@n;seed=s",
        Plan::default(),
        parse_spec,
    )
}

fn lock_plan() -> std::sync::MutexGuard<'static, Plan> {
    plan().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes a plan's derived state: the hot-path flag and the journal
/// write-fault hook (the journal lives below this
/// crate, so injection reaches it through `ibp_obs`'s hook slot).
fn apply(p: &Plan) {
    ACTIVE.store(p.is_armed(), Ordering::Relaxed);
    if p.arms.contains_key("journal.write") {
        ibp_obs::journal::set_fault_hook(Some(Box::new(|| io_error("journal.write"))));
    } else {
        ibp_obs::journal::set_fault_hook(None);
    }
}

/// A cheap deterministic mix (splitmix64 over seed ⊕ site bytes) mapping
/// a seed to a small 1-based occurrence, so `seed=<s>` explores early,
/// mid and late firings without hand-written `@<n>` clauses.
fn derive_occurrence(seed: u64, site: &str) -> u64 {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &b in site.as_bytes() {
        x = x.wrapping_add(u64::from(b)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
    }
    (x % 8) + 1
}

fn parse_spec(raw: &str) -> Result<Plan, String> {
    let mut plan = Plan::default();
    let mut seed: Option<u64> = None;
    let mut unseeded: Vec<&'static str> = Vec::new();
    for clause in raw.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        if let Some(value) = clause.strip_prefix("seed=") {
            seed = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|_| format!("seed wants an integer, got {value:?}"))?,
            );
            continue;
        }
        let (name, occurrence) = match clause.split_once('@') {
            Some((name, n)) => {
                let n: u64 = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("occurrence in {clause:?} is not an integer"))?;
                if n == 0 {
                    return Err(format!("occurrence in {clause:?} is 1-based, got 0"));
                }
                (name.trim(), Some(n))
            }
            None => (clause, None),
        };
        let Some(site) = SITES.iter().find(|s| s.name == name) else {
            let known: Vec<&str> = SITES.iter().map(|s| s.name).collect();
            return Err(format!("unknown site {name:?} (known: {})", known.join(", ")));
        };
        match occurrence {
            Some(n) => {
                plan.arms.insert(site.name, Arm { fire_at: n, seen: 0, fired: 0 });
            }
            None => unseeded.push(site.name),
        }
    }
    for name in unseeded {
        let fire_at = seed.map_or(1, |s| derive_occurrence(s, name));
        plan.arms.insert(name, Arm { fire_at, seen: 0, fired: 0 });
    }
    Ok(plan)
}

/// Whether any site is armed. One relaxed load — the only cost injection
/// adds to an unarmed run.
#[must_use]
pub fn active() -> bool {
    // Touch the plan once so env parsing (and hook installation) happens
    // before the first hot-path check races it.
    let _ = plan();
    ACTIVE.load(Ordering::Relaxed)
}

/// Counts one occurrence of `site` and reports whether the armed fault
/// fires *now* (exactly once, at the configured occurrence).
#[must_use]
pub fn should_fire(site: &'static str) -> bool {
    debug_assert!(site_known(site), "unregistered fault site {site:?}");
    if !active() {
        return false;
    }
    let mut plan = lock_plan();
    let Some(arm) = plan.arms.get_mut(site) else {
        return false;
    };
    arm.seen += 1;
    if arm.seen == arm.fire_at {
        arm.fired += 1;
        return true;
    }
    false
}

/// Panics with a recognisable payload when `site` fires. Call from code
/// that runs under a `catch_unwind` containment boundary.
pub fn fire_panic(site: &'static str) {
    if should_fire(site) {
        panic!("injected fault: {site}");
    }
}

/// The injected I/O error when `site` fires, `None` otherwise.
#[must_use]
pub fn io_error(site: &'static str) -> Option<io::Error> {
    should_fire(site)
        .then(|| io::Error::other(format!("injected fault: {site} (no space left on device)")))
}

/// How many times `site` has fired since the plan was (re)armed.
#[must_use]
pub fn fired(site: &str) -> u64 {
    plan()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .arms
        .get(site)
        .map_or(0, |a| a.fired)
}

/// How many occurrences of `site` have been counted since the plan was
/// (re)armed. Harness plumbing: arm a site far beyond its occurrence
/// count, run clean, and `seen` tells you how many chances it had — the
/// honest way to target "the last chunk".
#[must_use]
pub fn seen(site: &str) -> u64 {
    plan()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .arms
        .get(site)
        .map_or(0, |a| a.seen)
}

/// A spec armed by [`arm`]. Dropping it restores the `IBP_FAULTS` plan
/// with fresh counters — also when the code that armed it panics, so a
/// failed test cannot leave a fault armed for the next one.
#[derive(Debug)]
#[must_use = "dropping the guard disarms the spec at once"]
pub struct Armed(());

impl Drop for Armed {
    fn drop(&mut self) {
        install(plan_for(ibp_obs::knobs().faults.clone()).0);
    }
}

/// Arms `spec` for this process (counters zeroed) until the returned
/// guard drops. Guards do not nest: arming replaces whatever plan is in
/// force, and any guard's drop restores the `IBP_FAULTS` plan.
///
/// # Errors
///
/// Returns the parse error message for a malformed spec; the plan in
/// force stays armed.
pub fn arm(spec: &str) -> Result<Armed, String> {
    install(parse_spec(spec)?);
    Ok(Armed(()))
}

fn install(next: Plan) {
    let mut guard = lock_plan();
    apply(&next);
    *guard = next;
}

/// Renders a panic payload (from `catch_unwind` or a failed join) as the
/// human-readable detail string carried on the fault report.
#[must_use]
pub fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_guard;

    #[test]
    fn unarmed_by_default_and_cheap() {
        let _guard = test_guard();
        assert!(!should_fire("trace_cache.write"));
        assert_eq!(fired("trace_cache.write"), 0);
    }

    #[test]
    fn fires_exactly_once_at_the_nth_occurrence() {
        let _guard = test_guard();
        let _armed = arm("trace_cache.write@3").unwrap();
        assert!(!should_fire("trace_cache.write"));
        assert!(!should_fire("trace_cache.write"));
        assert!(should_fire("trace_cache.write"));
        assert!(!should_fire("trace_cache.write"));
        assert_eq!(fired("trace_cache.write"), 1);
        assert_eq!(seen("trace_cache.write"), 4);
    }

    #[test]
    fn unarmed_sites_do_not_fire() {
        let _guard = test_guard();
        let _armed = arm("trace_cache.rename@1").unwrap();
        assert!(!should_fire("trace_cache.read"));
        assert!(io_error("trace_cache.write").is_none());
    }

    #[test]
    fn io_error_carries_the_site_name() {
        let _guard = test_guard();
        let _armed = arm("trace_cache.write").unwrap();
        let e = io_error("trace_cache.write").expect("armed at occurrence 1");
        assert!(e.to_string().contains("trace_cache.write"));
        assert!(io_error("trace_cache.write").is_none(), "one-shot");
    }

    #[test]
    fn seed_derives_occurrences_deterministically() {
        let _guard = test_guard();
        let a = derive_occurrence(42, "trace_cache.write");
        let b = derive_occurrence(42, "trace_cache.write");
        assert_eq!(a, b);
        assert!((1..=8).contains(&a));
        let _armed = arm("seed=42;trace_cache.write").unwrap();
        for _ in 0..a.saturating_sub(1) {
            assert!(!should_fire("trace_cache.write"));
        }
        assert!(should_fire("trace_cache.write"));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _guard = test_guard();
        assert!(arm("no.such.site@1").is_err());
        assert!(arm("parallel.worker@0").is_err());
        assert!(arm("watchdog=250").is_err(), "retired term");
        assert!(arm("seed=banana").is_err());
        assert!(arm("parallel.worker@two").is_err());
        assert!(!active(), "a rejected spec arms nothing");
    }

    #[test]
    fn dropping_the_guard_disarms_even_on_panic() {
        let _guard = test_guard();
        let outcome = std::panic::catch_unwind(|| {
            let _armed = arm("trace_cache.write@1").unwrap();
            panic!("test body fails while armed");
        });
        assert!(outcome.is_err());
        assert!(!active());
        assert!(io_error("trace_cache.write").is_none());
    }

    /// `site@n` for every armed site, sorted: a plan rendered for
    /// comparison.
    fn armed_sites(plan: &Plan) -> String {
        let mut arms: Vec<String> = plan
            .arms
            .iter()
            .map(|(site, arm)| format!("{site}@{}", arm.fire_at))
            .collect();
        arms.sort();
        arms.join(";")
    }

    /// Resolves the environment `{name: raw}` through both resolvers:
    /// the knobs, the fault plan, and every warning either would print.
    fn resolve(name: &str, raw: Option<&str>) -> (ibp_obs::Knobs, Plan, Vec<String>) {
        let (knobs, mut warnings) =
            ibp_obs::Knobs::resolve(|n| raw.filter(|_| n == name).map(str::to_string));
        let (plan, warning) = plan_for(knobs.faults.clone());
        warnings.extend(warning);
        (knobs, plan, warnings)
    }

    /// The contract every knob keeps, over the pure resolvers: unset,
    /// empty and whitespace-only values give the default silently, a
    /// valid value is used, and an invalid one gives the default plus
    /// exactly one warning naming the knob. `IBP_RESULTS` and `IBP_TRACE`
    /// take any non-blank value as a path, so they have no invalid case.
    /// `IBP_FAULTS` runs through both resolvers: `ibp_obs` keeps the raw
    /// spec and [`plan_for`] parses it against the registered sites.
    #[test]
    fn knob_contract() {
        type Reading = fn(&ibp_obs::Knobs, &Plan) -> String;
        // (knob, valid value, what it resolves to, invalid value, reading)
        let cases: [(&str, &str, &str, Option<&str>, Reading); 6] = [
            ("IBP_EVENTS", "2000", "2000", Some("1e3"), |k, _| k.events.to_string()),
            ("IBP_RESULTS", "out", "out", None, |k, _| k.results.display().to_string()),
            ("IBP_LOG", "2", "2", Some("yes"), |k, _| k.log.to_string()),
            ("IBP_TRACE", "t.jsonl", "Some(\"t.jsonl\")", None, |k, _| format!("{:?}", k.trace)),
            ("IBP_PROBE", "deep", "deep", Some("full"), |k, _| k.probe.as_str().to_string()),
            ("IBP_FAULTS", "parallel.worker@3", "parallel.worker@3", Some("x@1"), |_, p| {
                armed_sites(p)
            }),
        ];
        for (name, valid, want, invalid, read) in cases {
            let (k, p, _) = resolve(name, None);
            let default = read(&k, &p);
            assert_ne!(want, default, "{name}: the valid case must differ from the default");
            for raw in [None, Some(""), Some("  "), Some(valid)] {
                let (k, p, warnings) = resolve(name, raw);
                let expect = if raw == Some(valid) { want } else { &default };
                assert_eq!(read(&k, &p), expect, "{name}={raw:?}");
                assert!(warnings.is_empty(), "{name}={raw:?}: {warnings:?}");
            }
            if let Some(bad) = invalid {
                let (k, p, warnings) = resolve(name, Some(bad));
                assert_eq!(read(&k, &p), default, "{name}={bad:?}");
                assert_eq!(warnings.len(), 1, "{name}={bad:?}: {warnings:?}");
                let head = format!("warning: ignoring invalid {name}={bad:?}");
                assert!(warnings[0].starts_with(&head), "{}", warnings[0]);
            }
        }
        // The warnings keep their exact wording, with and without a reason.
        assert_eq!(
            resolve("IBP_PROBE", Some("full")).2,
            ["warning: ignoring invalid IBP_PROBE=\"full\" \
              (expected 0, 1 or \"deep\"); using the default"]
        );
        assert_eq!(
            resolve("IBP_FAULTS", Some("parallel.worker@0")).2,
            ["warning: ignoring invalid IBP_FAULTS=\"parallel.worker@0\": \
              occurrence in \"parallel.worker@0\" is 1-based, got 0 \
              (expected clauses like site@n;seed=s); using the default"]
        );
        // `IBP_TRACE=1` names a journal under the results root.
        let journal = resolve("IBP_TRACE", Some("1")).0.trace.expect("journal path");
        assert!(journal.starts_with("results/journal"), "{}", journal.display());
    }

    #[test]
    fn panic_detail_extracts_common_payloads() {
        assert_eq!(panic_detail(&"boom"), "boom");
        assert_eq!(panic_detail(&"boom".to_string()), "boom");
        assert_eq!(panic_detail(&42u32), "opaque panic payload");
    }

    #[test]
    fn every_registered_site_has_a_unique_name() {
        for (i, a) in SITES.iter().enumerate() {
            for b in &SITES[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }
}
