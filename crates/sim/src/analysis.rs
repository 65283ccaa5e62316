//! Deeper simulation analytics: miss classification, per-site breakdowns
//! and pattern censuses.
//!
//! These reproduce the *analytical* observations scattered through the
//! paper's prose — e.g. §5.1's "p = 2 wins at table size 256 with a
//! misprediction rate of 12.5 %, 3.6 % of which is due to capacity misses"
//! and "*ixx* generates 203 different patterns for path length p = 0 …
//! and ends up with 9403 patterns for p = 12".

use std::collections::{HashMap, HashSet};

use ibp_core::{
    fold_two_level_chunk, ChunkScorer, FoldKernel, Predictor, ProbeSink, TwoLevelPredictor,
};
use ibp_trace::io::TraceIoError;
use ibp_trace::{chunk_events, Addr, EventSource, Trace, TraceChunk};

/// Misprediction breakdown by cause for a two-level predictor.
///
/// Every scored indirect branch falls into exactly one class:
///
/// * **hit** — predicted correctly;
/// * **wrong target** — the key was in the table but held another target
///   (the branch genuinely changed behaviour, or the 2bc rule is mid
///   transition);
/// * **capacity** — the key had been trained earlier but was evicted
///   (capacity or conflict, depending on the organisation);
/// * **cold** — the key had never been trained (compulsory / warm-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissBreakdown {
    /// Correct predictions.
    pub hits: u64,
    /// Mispredictions with the pattern present.
    pub wrong_target: u64,
    /// Mispredictions because the pattern was evicted.
    pub capacity: u64,
    /// Mispredictions because the pattern was never seen.
    pub cold: u64,
}

impl MissBreakdown {
    /// Scored branches.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.wrong_target + self.capacity + self.cold
    }

    /// Total misprediction rate.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.wrong_target + self.capacity + self.cold) as f64 / total as f64
        }
    }

    /// The capacity/conflict component of the misprediction rate — the
    /// quantity the paper attributes in §5.1.
    #[must_use]
    pub fn capacity_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.capacity as f64 / total as f64
        }
    }

    /// The compulsory (cold) component of the misprediction rate.
    #[must_use]
    pub fn cold_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.cold as f64 / total as f64
        }
    }
}

/// Simulates a two-level predictor while classifying every misprediction.
///
/// The classifier shadows the predictor with an ever-seen key set (via
/// [`TwoLevelPredictor::key_fingerprint`]): a missing key that *was* seen
/// is a capacity/conflict miss, a missing key never seen is a cold miss.
/// For unbounded tables the capacity class is structurally zero.
pub fn simulate_classified(trace: &Trace, predictor: &mut TwoLevelPredictor) -> MissBreakdown {
    simulate_classified_source(&mut trace.cursor(), predictor)
        .expect("in-memory source cannot fail")
}

/// Streaming form of [`simulate_classified`]: folds the classifier over a
/// chunked [`EventSource`] in bounded memory (apart from the ever-seen key
/// set, which grows with the number of distinct patterns, not events).
///
/// # Errors
///
/// Propagates the source's I/O or parse failures (in-memory sources are
/// infallible).
pub fn simulate_classified_source<S: EventSource + ?Sized>(
    source: &mut S,
    predictor: &mut TwoLevelPredictor,
) -> Result<MissBreakdown, TraceIoError> {
    // The kernel fold computes the key fingerprint before each fused
    // lookup+train step and reports score-then-note_trained — the same
    // order the old hand-rolled loop classified in, on the monomorphized
    // fast path.
    let mut sink = ClassifySink::default();
    let mut scorer = ChunkScorer::probed(0, &mut sink, None);
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        fold_two_level_chunk(predictor, chunk.events(), &mut scorer);
        if !more {
            break;
        }
    }
    Ok(sink.breakdown)
}

/// A [`ProbeSink`] that classifies every scored event into the
/// [`MissBreakdown`] taxonomy via the ever-seen fingerprint set.
#[derive(Debug, Default)]
struct ClassifySink {
    seen: HashSet<u64>,
    breakdown: MissBreakdown,
}

impl ProbeSink for ClassifySink {
    fn wants_fingerprint(&self) -> bool {
        true
    }

    fn score(&mut self, _pc: Addr, predicted: Option<Addr>, actual: Addr, fp: Option<u64>) {
        match predicted {
            Some(p) if p == actual => self.breakdown.hits += 1,
            Some(_) => self.breakdown.wrong_target += 1,
            None if fp.is_some_and(|key| self.seen.contains(&key)) => self.breakdown.capacity += 1,
            None => self.breakdown.cold += 1,
        }
    }

    fn note_trained(&mut self, fp: Option<u64>) {
        if let Some(key) = fp {
            self.seen.insert(key);
        }
    }

    fn sample(&mut self, _point: &str, _predictor: &dyn Predictor) {}
}

/// Per-site misprediction statistics from one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteMisses {
    /// The branch site.
    pub pc: Addr,
    /// Scored executions.
    pub executions: u64,
    /// Mispredicted executions.
    pub mispredicted: u64,
}

impl SiteMisses {
    /// The site's misprediction rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executions as f64
        }
    }
}

/// Folds a [`FoldKernel`] over a chunked [`EventSource`] and returns
/// per-site misprediction counts, sorted by descending misprediction
/// volume. Memory is bounded by the chunk size plus one accumulator per
/// distinct site.
///
/// Useful for the "which sites dominate the misses" question that drives
/// the paper's focus on a handful of megamorphic branches.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures (in-memory sources are
/// infallible).
pub fn simulate_per_site<S: EventSource + ?Sized>(
    source: &mut S,
    kernel: &mut FoldKernel,
) -> Result<Vec<SiteMisses>, TraceIoError> {
    let mut sink = SiteSink::default();
    let mut scorer = ChunkScorer::probed(0, &mut sink, None);
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        kernel.fold_chunk(chunk.events(), &mut scorer);
        if !more {
            break;
        }
    }
    let mut out: Vec<SiteMisses> = sink
        .per_site
        .into_iter()
        .map(|(pc, (executions, mispredicted))| SiteMisses {
            pc,
            executions,
            mispredicted,
        })
        .collect();
    out.sort_by(|a, b| b.mispredicted.cmp(&a.mispredicted).then(a.pc.cmp(&b.pc)));
    Ok(out)
}

/// A [`ProbeSink`] accumulating per-site execution/misprediction counts.
#[derive(Debug, Default)]
struct SiteSink {
    per_site: HashMap<Addr, (u64, u64)>,
}

impl ProbeSink for SiteSink {
    fn wants_fingerprint(&self) -> bool {
        false
    }

    fn score(&mut self, pc: Addr, predicted: Option<Addr>, actual: Addr, _fp: Option<u64>) {
        let entry = self.per_site.entry(pc).or_insert((0, 0));
        entry.0 += 1;
        if predicted != Some(actual) {
            entry.1 += 1;
        }
    }

    fn note_trained(&mut self, _fp: Option<u64>) {}

    fn sample(&mut self, _point: &str, _predictor: &dyn Predictor) {}
}

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
    let mut predictor =
        TwoLevelPredictor::unconstrained(path_len, ibp_core::HistorySharing::GLOBAL);
    // An infinite warmup keeps every event unscored: the kernel fold then
    // trains the table without ever probing it, exactly like the old
    // update-only loop.
    let mut scorer = ChunkScorer::new(u64::MAX);
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        fold_two_level_chunk(&mut predictor, chunk.events(), &mut scorer);
        if !more {
            return Ok(predictor.stored_patterns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::CompressedKeySpec;
    use ibp_trace::BranchKind;

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

    #[test]
    fn unbounded_tables_have_no_capacity_misses() {
        let t = cycling_trace(16, 10);
        let mut p = TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(0));
        let b = simulate_classified(&t, &mut p);
        assert_eq!(b.capacity, 0);
        assert_eq!(b.cold, 16);
        assert_eq!(b.wrong_target, 0);
        assert_eq!(b.hits, 16 * 9);
        assert_eq!(b.total(), 160);
    }

    #[test]
    fn thrashing_table_shows_capacity_misses() {
        // 16 sites cycling through a 4-entry LRU: every access after the
        // first round is a capacity miss.
        let t = cycling_trace(16, 10);
        let mut p = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(0), 4);
        let b = simulate_classified(&t, &mut p);
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
        let mut p = TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(0));
        let b = simulate_classified(&t, &mut p);
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
        let mut k = ibp_core::PredictorConfig::btb().build_kernel();
        let sites = simulate_per_site(&mut t.cursor(), &mut k).expect("in-memory source");
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].pc, a(0x200));
        assert!(sites[0].rate() > 0.9);
        assert!(sites[1].rate() < 0.1);
        assert_eq!(sites[0].executions, 30);
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
        let mut classified = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(1), 8);
        let b = simulate_classified(&t, &mut classified);
        let mut plain = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(1), 8);
        let stats = crate::simulate(&t, &mut plain);
        assert_eq!(b.total(), stats.indirect);
        assert!((b.misprediction_rate() - stats.misprediction_rate()).abs() < 1e-12);
    }
}
