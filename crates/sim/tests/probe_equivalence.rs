//! The probe layer's promise, pinned end to end: scored results are
//! identical with probes off, on and deep — probe counters are write-only
//! side state the prediction path never reads — and deep probing
//! attributes every scored event.
//!
//! The journal sink, which carries the probe level, is process-global, so
//! every test here holds one serial lock.

use std::sync::{Mutex, MutexGuard};

use ibp_core::PredictorConfig;
use ibp_obs::json::Json;
use ibp_obs::{journal, Kind, Record};
use ibp_sim::probe::ProbePolicy;
use ibp_sim::{simulate_warm, RunStats};
use ibp_workload::Benchmark;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `body` with the journal captured at probe level `policy`,
/// returning the emitted probe records in emission order.
fn probes_under(policy: ProbePolicy, body: impl FnOnce()) -> Vec<Record> {
    let (_, records) = journal::capture(policy, body);
    records.into_iter().filter(|r| r.kind == Kind::Probe).collect()
}

#[test]
fn results_byte_identical_probes_off_on_deep() {
    let _guard = serial();
    let trace = Benchmark::Ixx.trace_with_len(6_000);
    for cfg in [
        PredictorConfig::btb_2bc(),
        PredictorConfig::unconstrained(3),
        PredictorConfig::practical(3, 1024, 4),
        PredictorConfig::bpst(3, 0, 128, 2),
    ] {
        let run = || simulate_warm(&trace, cfg.build().as_mut(), 500);
        let per_policy: Vec<RunStats> = [ProbePolicy::Off, ProbePolicy::On, ProbePolicy::Deep]
            .into_iter()
            .map(|policy| journal::capture(policy, run).0)
            .collect();
        assert_eq!(per_policy[0], per_policy[1], "{}: on != off", cfg.cache_key());
        assert_eq!(per_policy[0], per_policy[2], "{}: deep != off", cfg.cache_key());
    }
}

#[test]
fn deep_probe_emits_attribution_split() {
    let _guard = serial();
    let trace = Benchmark::Edg.trace_with_len(6_000);
    let cfg = PredictorConfig::practical(2, 256, 4);
    let records = probes_under(ProbePolicy::Deep, || {
        let mut p = cfg.build();
        simulate_warm(&trace, p.as_mut(), 500);
    });
    let end = records
        .iter()
        .find(|r| r.field("point").and_then(Json::as_str) == Some("end"))
        .expect("end probe record");
    let attr = end.field("attribution").expect("attribution on end record");
    let scored = 5_500;
    let hits = attr.get("hits").and_then(Json::as_u64).expect("hits");
    let wrong = attr.get("wrong_target").and_then(Json::as_u64).expect("wrong_target");
    let no_entry = attr.get("no_entry").and_then(Json::as_u64).expect("no_entry");
    assert_eq!(hits + wrong + no_entry, scored, "every scored event attributed");
    let cold = attr.get("cold").and_then(Json::as_u64).expect("cold");
    let capacity = attr.get("capacity").and_then(Json::as_u64).expect("capacity");
    assert_eq!(cold + capacity, no_entry, "deep splits every no-entry miss");
    assert!(end.field("top_sites").and_then(Json::as_arr).is_some());
}

#[test]
fn probe_free_run_emits_no_probe_records() {
    let _guard = serial();
    let trace = Benchmark::Ixx.trace_with_len(1_000);
    let records = probes_under(ProbePolicy::Off, || {
        let mut p = PredictorConfig::btb().build();
        simulate_warm(&trace, p.as_mut(), 0);
    });
    assert!(records.is_empty());
}
