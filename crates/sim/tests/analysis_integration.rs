//! Integration tests of the analysis layer over real synthetic benchmarks:
//! the miss taxonomy that `simulate_attributed` returns, and the pattern
//! census.

use ibp_core::{CompressedKeySpec, FoldKernel, PredictorConfig, TwoLevelPredictor};
use ibp_sim::analysis::pattern_census;
use ibp_sim::probe::Attribution;
use ibp_sim::{simulate, simulate_attributed, RunStats};
use ibp_trace::Trace;
use ibp_workload::Benchmark;

fn attribute(trace: &Trace, mut kernel: FoldKernel) -> (RunStats, Attribution) {
    simulate_attributed(&mut trace.cursor(), &mut kernel, 0).expect("in-memory source")
}

fn full_assoc(path: usize, entries: usize) -> TwoLevelPredictor {
    TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(path), entries)
}

#[test]
fn classification_is_exhaustive_and_consistent() {
    let trace = Benchmark::Porky.trace_with_len(15_000);
    for (entries, p) in [(256usize, 2usize), (4096, 3)] {
        let (attributed, breakdown) =
            attribute(&trace, FoldKernel::TwoLevel(full_assoc(p, entries)));
        assert_eq!(breakdown.total(), 15_000);
        assert_eq!(
            breakdown.cold + breakdown.capacity,
            breakdown.no_entry,
            "every no-entry miss is cold or capacity"
        );

        let stats = simulate(&trace, &mut full_assoc(p, entries));
        assert_eq!(
            attributed, stats,
            "classification must not change behaviour"
        );
        assert_eq!(breakdown.total() - breakdown.hits, stats.mispredicted);
    }
}

#[test]
fn capacity_misses_vanish_with_table_size() {
    // The §5.1 observation: growing the table converts capacity misses into
    // hits, leaving wrong-target and cold misses.
    let trace = Benchmark::Ixx.trace_with_len(20_000);
    let capacity_at = |entries: usize| {
        attribute(&trace, FoldKernel::TwoLevel(full_assoc(3, entries)))
            .1
            .capacity_rate()
    };
    let small = capacity_at(64);
    let large = capacity_at(16_384);
    assert!(small > large, "capacity {small} at 64 vs {large} at 16K");
    assert!(large < 0.01, "large tables should have ~no capacity misses");
}

#[test]
fn unbounded_has_zero_capacity_class() {
    let trace = Benchmark::Eqn.trace_with_len(10_000);
    let p = TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(4));
    let (_, b) = attribute(&trace, FoldKernel::TwoLevel(p));
    assert_eq!(b.capacity, 0);
    assert!(b.cold > 0);
}

#[test]
fn per_site_misses_sum_to_total() {
    let trace = Benchmark::Gcc.trace_with_len(10_000);
    let cfg = PredictorConfig::practical(3, 1024, 4);
    let (attributed, b) = attribute(&trace, cfg.build_kernel());
    let sites = b.top_sites(usize::MAX);
    assert_eq!(
        sites.len(),
        b.sites.len(),
        "every site with a miss is listed"
    );
    let total_miss: u64 = sites.iter().map(|(_, s)| s.total()).sum();

    let stats = simulate(&trace, cfg.build().as_mut());
    assert_eq!(attributed, stats);
    assert_eq!(total_miss, stats.mispredicted);
    // No site misses more often than it executes.
    let trace_stats = trace.stats();
    for (pc, s) in &sites {
        let executions = trace_stats
            .sites
            .iter()
            .find(|site| site.pc.raw() == *pc)
            .map_or(0, |site| site.executions);
        assert!(s.total() <= executions, "site {pc:#x}");
    }
    // Sorted by miss volume.
    for w in sites.windows(2) {
        assert!(w[0].1.total() >= w[1].1.total());
    }
}

#[test]
fn census_shape_matches_paper_claims() {
    // §5.1: pattern count at p = 0 equals the active site count, and grows
    // by one to two orders of magnitude by p = 12.
    let trace = Benchmark::Ixx.trace_with_len(30_000);
    let p0 = pattern_census(&trace, 0);
    let p12 = pattern_census(&trace, 12);
    assert_eq!(p0, trace.stats().distinct_sites);
    assert!(
        p12 > p0 * 5,
        "pattern explosion expected: {p0} at p=0 vs {p12} at p=12"
    );
}

#[test]
fn misses_concentrate_on_polymorphic_sites() {
    let trace = Benchmark::Jhm.trace_with_len(15_000);
    let trace_stats = trace.stats();
    let (_, b) = attribute(&trace, PredictorConfig::btb_2bc().build_kernel());
    // The top miss site must be polymorphic in the trace.
    let (top, _) = b.top_sites(1)[0];
    let site_info = trace_stats
        .sites
        .iter()
        .find(|s| s.pc.raw() == top)
        .expect("top site in stats");
    assert!(
        site_info.distinct_targets > 1,
        "top BTB miss site should be polymorphic"
    );
}
