//! The fold-kernel layer's one promise: replacing the per-event
//! dyn-dispatch fold with the monomorphized chunk kernels changes *nothing*
//! observable — not the scored `RunStats`, not the probe payloads, under
//! any probe level.
//!
//! The grid test drives every benchmark through every kernel family (BTB,
//! tagless, set-associative, fully-associative, unbounded, a fig17 hybrid,
//! a BPST metapredictor) plus a `Dyn`-fallback extension predictor; the
//! probe tests pin payload equality under `IBP_PROBE=deep` and scored
//! stats under all three probe levels.
//!
//! The journal sink (which carries the probe level) is process-global, and
//! `probes_under` captures every probe record emitted while it runs, so
//! every test in this file holds one serial lock.

use std::sync::{Mutex, MutexGuard};

use ibp_core::ext::CascadePredictor;
use ibp_core::{
    CompressedKeySpec, FoldKernel, Predictor, PredictorConfig, TwoLevelPredictor,
};
use ibp_obs::json::Json;
use ibp_obs::{journal, Kind, Record};
use ibp_sim::probe::ProbePolicy;
use ibp_sim::{simulate_kernel, simulate_source, RunStats};
use ibp_workload::Benchmark;

/// The representative configuration set: one per table organisation the
/// paper sweeps, plus both hybrid arbitration schemes. Every one of these
/// monomorphizes.
fn kernel_configs() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::btb_2bc(),
        PredictorConfig::compressed_unbounded(3)
            .with_entries(512)
            .with_associativity(ibp_core::Associativity::Tagless),
        PredictorConfig::practical(3, 1024, 4),
        PredictorConfig::compressed_unbounded(2)
            .with_entries(256)
            .with_associativity(ibp_core::Associativity::Full),
        PredictorConfig::compressed_unbounded(4),
        PredictorConfig::hybrid(6, 2, 256, 4),
        PredictorConfig::bpst(3, 0, 128, 2),
    ]
}

/// A three-stage cascade from the extension zoo: no config kind maps to
/// it, so it exercises the boxed `Dyn` fallback arm end to end.
fn dyn_fallback() -> Box<dyn Predictor> {
    Box::new(CascadePredictor::new(vec![
        TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(6), 128, 4),
        TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(3), 128, 4),
        TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(1), 256, 4),
    ]))
}

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The legacy result: the pre-kernel per-event dyn-dispatch fold.
fn legacy(
    trace: &ibp_trace::Trace,
    predictor: &mut (dyn Predictor + 'static),
    warmup: u64,
) -> RunStats {
    simulate_source(&mut trace.cursor(), predictor, warmup).expect("in-memory source")
}

/// Every benchmark × every kernel family × warmups 0 and 150: the
/// monomorphized fold must reproduce the dyn fold's `RunStats` exactly.
#[test]
fn kernel_matches_dyn_fold_on_every_benchmark() {
    let _guard = serial();
    let traces: Vec<(Benchmark, ibp_trace::Trace)> = Benchmark::ALL
        .iter()
        .map(|&b| (b, b.trace_with_len(2_500)))
        .collect();
    for cfg in kernel_configs() {
        for (b, trace) in &traces {
            for warmup in [0u64, 150] {
                let expected = legacy(trace, cfg.build().as_mut(), warmup);
                let mut kernel = cfg.build_kernel();
                assert!(
                    kernel.is_monomorphized(),
                    "test premise: {} must monomorphize",
                    cfg.cache_key()
                );
                let got = simulate_kernel(&mut trace.cursor(), &mut kernel, warmup)
                    .expect("in-memory source");
                assert_eq!(
                    got,
                    expected,
                    "{} on {b} with warmup {warmup} diverges",
                    cfg.cache_key()
                );
            }
        }
    }
}

/// The `Dyn` fallback arm: a predictor no config kind covers still runs
/// through the kernel driver and still matches the legacy fold.
#[test]
fn dyn_fallback_arm_matches_legacy_fold() {
    let _guard = serial();
    for b in [Benchmark::Ixx, Benchmark::SelfVm, Benchmark::Gcc] {
        let trace = b.trace_with_len(3_000);
        for warmup in [0u64, 200] {
            let expected = legacy(&trace, dyn_fallback().as_mut(), warmup);
            let mut kernel = FoldKernel::from_boxed(dyn_fallback());
            assert!(!kernel.is_monomorphized());
            let got = simulate_kernel(&mut trace.cursor(), &mut kernel, warmup)
                .expect("in-memory source");
            assert_eq!(got, expected, "dyn fallback on {b} warmup {warmup} diverges");
        }
    }
}

/// Runs `body` under a journal captured at probe level `policy`,
/// returning the probe records it emitted.
fn probes_under(policy: ProbePolicy, body: impl FnOnce()) -> Vec<Record> {
    let (_, records) = journal::capture(policy, body);
    records.into_iter().filter(|r| r.kind == Kind::Probe).collect()
}

/// The comparable payload of a probe record.
fn payload(r: &Record) -> (String, Vec<(String, Json)>) {
    (r.name.clone(), r.fields.clone())
}

/// `IBP_PROBE=deep`: the kernel fast path must feed the probe layer the
/// exact same samples, attribution splits and top sites as the dyn fold —
/// fingerprints, warm/interval/end points, everything in the payload.
#[test]
fn deep_probe_payloads_identical_kernel_vs_dyn() {
    let _guard = serial();
    let trace = Benchmark::Edg.trace_with_len(6_000);
    for cfg in [
        PredictorConfig::practical(2, 256, 4),
        PredictorConfig::hybrid(5, 1, 256, 4),
        PredictorConfig::bpst(3, 0, 128, 2),
    ] {
        let via_dyn = probes_under(ProbePolicy::Deep, || {
            legacy(&trace, cfg.build().as_mut(), 500);
        });
        let via_kernel = probes_under(ProbePolicy::Deep, || {
            let mut kernel = cfg.build_kernel();
            simulate_kernel(&mut trace.cursor(), &mut kernel, 500).expect("in-memory source");
        });
        assert!(!via_dyn.is_empty(), "{}: no probe records", cfg.cache_key());
        assert_eq!(
            via_dyn.iter().map(payload).collect::<Vec<_>>(),
            via_kernel.iter().map(payload).collect::<Vec<_>>(),
            "{}: deep probe payloads diverge between folds",
            cfg.cache_key()
        );
    }
}

/// The kernel fold — the one scheduling mode every cell runs on —
/// produces the same scored stats as the legacy dyn fold under all three
/// probe levels.
#[test]
fn all_sched_modes_match_under_every_probe_level() {
    let _guard = serial();
    let trace = Benchmark::Eqn.trace_with_len(5_000);
    for policy in [ProbePolicy::Off, ProbePolicy::On, ProbePolicy::Deep] {
        let mut results: Vec<(String, RunStats, RunStats)> = Vec::new();
        probes_under(policy, || {
            for cfg in [
                PredictorConfig::btb_2bc(),
                PredictorConfig::hybrid(6, 2, 256, 4),
            ] {
                let expected = legacy(&trace, cfg.build().as_mut(), 300);
                let mut kernel = cfg.build_kernel();
                let got = simulate_kernel(&mut trace.cursor(), &mut kernel, 300)
                    .expect("in-memory source");
                results.push((cfg.cache_key(), got, expected));
            }
        });
        for (label, got, expected) in results {
            assert_eq!(got, expected, "{label} diverges under {policy:?}");
        }
    }
}
