//! Deeper simulation analytics: the pattern census.
//!
//! Miss classification and per-site breakdowns come from the probe layer's
//! one taxonomy, [`crate::probe::Attribution`], which
//! [`crate::simulate_attributed`] returns for any kernel. Together they
//! reproduce the *analytical* observations scattered through the
//! paper's prose — e.g. §5.1's "p = 2 wins at table size 256 with a
//! misprediction rate of 12.5 %, 3.6 % of which is due to capacity misses"
//! and "*ixx* generates 203 different patterns for path length p = 0 …
//! and ends up with 9403 patterns for p = 12".

use ibp_core::{ChunkScorer, FoldKernel, TwoLevelPredictor};
use ibp_trace::io::TraceIoError;
use ibp_trace::{chunk_events, EventSource, Trace, TraceChunk};

/// Counts the distinct `(branch, path)` patterns a trace generates at a
/// given path length — the paper's §5.1 pattern-census (203 patterns at
/// `p = 0` up to 9403 at `p = 12` for *ixx*).
#[must_use]
pub fn pattern_census(trace: &Trace, path_len: usize) -> usize {
    pattern_census_source(&mut trace.cursor(), path_len).expect("in-memory source cannot fail")
}

/// Streaming form of [`pattern_census`]: table growth is bounded by the
/// number of distinct patterns, never the trace length.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
pub fn pattern_census_source<S: EventSource + ?Sized>(
    source: &mut S,
    path_len: usize,
) -> Result<usize, TraceIoError> {
    let mut kernel = FoldKernel::TwoLevel(TwoLevelPredictor::unconstrained(
        path_len,
        ibp_core::HistorySharing::GLOBAL,
    ));
    // An infinite warmup keeps every event unscored: the kernel fold then
    // trains the table without ever probing it.
    let mut scorer = ChunkScorer::new(u64::MAX);
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        kernel.fold_chunk(chunk.events(), &mut scorer);
        if !more {
            break;
        }
    }
    let FoldKernel::TwoLevel(predictor) = kernel else {
        unreachable!("the census kernel is built as a two-level predictor")
    };
    Ok(predictor.stored_patterns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Attribution;
    use crate::{simulate_attributed, RunStats};
    use ibp_core::CompressedKeySpec;
    use ibp_trace::{Addr, BranchKind};

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    /// A trace cycling through n distinct monomorphic sites.
    fn cycling_trace(sites: u32, rounds: u32) -> Trace {
        let mut t = Trace::new("cycle");
        for _ in 0..rounds {
            for s in 0..sites {
                t.push_indirect(a(0x100 + s * 4), a(0x9000 + s * 4), BranchKind::Switch);
            }
        }
        t
    }

    fn attribute(trace: &Trace, mut kernel: FoldKernel) -> (RunStats, Attribution) {
        simulate_attributed(&mut trace.cursor(), &mut kernel, 0).expect("in-memory source")
    }

    fn classify(trace: &Trace, predictor: TwoLevelPredictor) -> Attribution {
        attribute(trace, FoldKernel::TwoLevel(predictor)).1
    }

    #[test]
    fn unbounded_tables_have_no_capacity_misses() {
        let t = cycling_trace(16, 10);
        let b = classify(
            &t,
            TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(0)),
        );
        assert_eq!(b.capacity, 0);
        assert_eq!(b.cold, 16);
        assert_eq!(b.no_entry, 16);
        assert_eq!(b.wrong_target, 0);
        assert_eq!(b.hits, 16 * 9);
        assert_eq!(b.total(), 160);
    }

    #[test]
    fn thrashing_table_shows_capacity_misses() {
        // 16 sites cycling through a 4-entry LRU: every access after the
        // first round is a capacity miss.
        let t = cycling_trace(16, 10);
        let b = classify(
            &t,
            TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(0), 4),
        );
        assert_eq!(b.cold, 16);
        assert_eq!(b.capacity, 16 * 9);
        assert_eq!(b.hits, 0);
        assert!((b.capacity_rate() - 0.9).abs() < 1e-12);
        assert!((b.misprediction_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_target_class_detected() {
        // One site alternating targets: BTB-style predictor keeps the key
        // resident but mispredicts half the time.
        let mut t = Trace::new("alt");
        for i in 0..40u32 {
            t.push_indirect(a(0x100), a(0x9000 + (i % 2) * 4), BranchKind::Switch);
        }
        let b = classify(
            &t,
            TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(0)),
        );
        assert_eq!(b.cold, 1);
        assert_eq!(b.capacity, 0);
        assert!(b.wrong_target > 10);
    }

    #[test]
    fn per_site_attribution() {
        // Site A monomorphic, site B alternating: B owns the misses.
        let mut t = Trace::new("two");
        for i in 0..30u32 {
            t.push_indirect(a(0x100), a(0x9000), BranchKind::Switch);
            t.push_indirect(a(0x200), a(0xA000 + (i % 2) * 4), BranchKind::Switch);
        }
        let (_, b) = attribute(&t, ibp_core::PredictorConfig::btb().build_kernel());
        let sites = b.top_sites(usize::MAX);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].0, 0x200);
        assert_eq!(sites[0].1.total(), 30);
        assert_eq!(sites[1].0, 0x100);
        assert_eq!(sites[1].1.total(), 1, "only the cold miss");
    }

    #[test]
    fn pattern_census_grows_with_path_length() {
        let trace = {
            let mut t = Trace::new("mix");
            for i in 0..400u32 {
                let s = i % 5;
                let target = 0x9000 + ((i * 7 + s) % 6) * 4;
                t.push_indirect(a(0x100 + s * 4), a(target), BranchKind::Switch);
            }
            t
        };
        let p0 = pattern_census(&trace, 0);
        let p2 = pattern_census(&trace, 2);
        let p6 = pattern_census(&trace, 6);
        assert_eq!(p0, 5);
        assert!(p2 > p0);
        assert!(p6 >= p2);
    }

    #[test]
    fn breakdown_totals_match_plain_simulation() {
        let t = cycling_trace(8, 6);
        let (attributed, b) = attribute(
            &t,
            FoldKernel::TwoLevel(TwoLevelPredictor::full_assoc(
                CompressedKeySpec::practical(1),
                8,
            )),
        );
        let mut plain = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(1), 8);
        let stats = crate::simulate(&t, &mut plain);
        assert_eq!(attributed, stats);
        assert_eq!(b.total(), stats.indirect);
        assert_eq!(b.cold + b.capacity, b.no_entry);
        assert!((b.misprediction_rate() - stats.misprediction_rate()).abs() < 1e-12);
    }
}
