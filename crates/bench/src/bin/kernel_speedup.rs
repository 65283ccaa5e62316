//! Measures the monomorphized chunk-fold kernel against the legacy
//! per-event dyn-dispatch fold and records the comparison.
//!
//! Usage: `kernel_speedup [experiment...]` (default: `fig2 fig17`). Each
//! experiment runs twice in-process — once with `FoldKernel` demoted to
//! the boxed `dyn Predictor` fallback, once with the monomorphized
//! variants — with the memo cache cleared before each pass so both do the
//! full simulation work. Every cell folds on one thread, so the delta is
//! the per-event dispatch cost. The two table sets must be byte-identical (the run aborts otherwise); wall time and
//! events/sec go to stderr, `results/kernel_speedup.csv`,
//! `results/manifest.csv` and, with `IBP_TRACE`, one `kernel_speedup`
//! journal event per experiment.

use std::fs;
use std::time::Instant;

use ibp_bench::ExperimentMetrics;
use ibp_obs as obs;
use ibp_sim::engine;
use ibp_sim::override_kernel;

fn usage() -> ! {
    eprintln!("usage: kernel_speedup [experiment...]");
    std::process::exit(2);
}

fn main() {
    let mut ids: Vec<String> = std::env::args().skip(1).collect();
    if ids.iter().any(|a| a.starts_with('-')) {
        usage();
    }
    if ids.is_empty() {
        ids = vec!["fig2".to_string(), "fig17".to_string()];
    }
    let experiments: Vec<_> = ids
        .iter()
        .map(|id| {
            ibp_sim::experiments::by_id(id).unwrap_or_else(|| panic!("unknown experiment id {id}"))
        })
        .collect();

    eprintln!(
        "== kernel speedup: {} (single-thread folds) ==",
        ids.join(", ")
    );
    let suite = ibp_bench::full_suite();

    let mut all_metrics: Vec<ExperimentMetrics> = Vec::new();
    let mut csv =
        String::from("experiment,fold,wall_seconds,simulated_events,events_per_sec,speedup\n");
    let mut failures = 0usize;
    for experiment in &experiments {
        let mut passes = Vec::new();
        for (label, kernel_on) in [("legacy", false), ("kernel", true)] {
            override_kernel(Some(kernel_on));
            // Both passes must simulate from scratch — results cached by
            // the first pass would turn the second into a no-op and the
            // comparison into noise.
            engine::clear_memo_cache();
            let t0 = Instant::now();
            let (tables, metrics) = ibp_bench::run_instrumented(experiment, &suite);
            let wall = t0.elapsed();
            eprintln!(
                "{}/{label}: {wall:.2?} ({} events, {:.0} events/s)",
                experiment.id,
                metrics.engine.simulated_events,
                metrics.events_per_sec()
            );
            let pass_csv: String = tables.iter().map(ibp_sim::report::Table::to_csv).collect();
            passes.push((wall, metrics, pass_csv));
        }
        let (legacy_wall, legacy_metrics, legacy_csv) = &passes[0];
        let (kernel_wall, kernel_metrics, kernel_csv) = &passes[1];
        assert_eq!(
            legacy_csv, kernel_csv,
            "{}: kernel results diverge from the legacy dyn fold — equivalence bug",
            experiment.id
        );
        eprintln!("{}: result tables identical across folds", experiment.id);

        let speedup = legacy_wall.as_secs_f64() / kernel_wall.as_secs_f64().max(1e-9);
        eprintln!(
            "{}: speedup {speedup:.2}x ({:.2?} -> {:.2?})",
            experiment.id, legacy_wall, kernel_wall
        );
        if speedup < 1.2 {
            eprintln!(
                "{}: below the 1.2x target — rerun on an unloaded machine before \
                 reading much into it",
                experiment.id
            );
            failures += 1;
        }
        obs::event!(
            "kernel_speedup",
            experiment = experiment.id,
            legacy_us = u64::try_from(legacy_wall.as_micros()).unwrap_or(u64::MAX),
            kernel_us = u64::try_from(kernel_wall.as_micros()).unwrap_or(u64::MAX),
            legacy_events_per_sec = legacy_metrics.events_per_sec(),
            kernel_events_per_sec = kernel_metrics.events_per_sec(),
            speedup = speedup
        );
        csv.push_str(&format!(
            "{id},legacy,{:.3},{},{:.0},1.00\n{id},kernel,{:.3},{},{:.0},{speedup:.2}\n",
            legacy_wall.as_secs_f64(),
            legacy_metrics.engine.simulated_events,
            legacy_metrics.events_per_sec(),
            kernel_wall.as_secs_f64(),
            kernel_metrics.engine.simulated_events,
            kernel_metrics.events_per_sec(),
            id = experiment.id,
        ));
        all_metrics.extend(passes.into_iter().map(|(_, m, _)| m));
    }
    override_kernel(None);

    match ibp_bench::write_manifest(&all_metrics) {
        Ok(path) => eprintln!("runtime manifest written to {}", path.display()),
        Err(e) => obs::warn!("could not write manifest.csv: {e}"),
    }
    let dir = ibp_bench::results_dir();
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("kernel_speedup.csv");
        match fs::write(&path, csv) {
            Ok(()) => eprintln!("speedup record written to {}", path.display()),
            Err(e) => obs::warn!("could not write kernel_speedup.csv: {e}"),
        }
    }
    obs::flush();
    if failures > 0 {
        std::process::exit(1);
    }
}
