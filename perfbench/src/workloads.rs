//! The benchmark's workloads: which predictor configurations each one
//! sweeps, at which trace length, and which of the paper's numbers its
//! fixed configurations reproduce.
//!
//! Every workload runs over the 17 canonical benchmarks. The seed draws
//! only the sampled configurations; the fixed ones are the same for every
//! seed. The sampling grids are copied here (not imported from
//! `ibp_sim::experiments`) so that a change to a figure's grid cannot
//! silently change what the benchmark measures.

use std::collections::HashSet;

use ibp_core::{Associativity, PredictorConfig, MAX_PATH};

/// Trace length of the two sweeps: the simulator's canonical length.
pub const SWEEP_EVENTS: u64 = 120_000;

/// Trace length of `cold-stream`: just above the 250k-event threshold
/// beyond which suites stream instead of materialising.
pub const COLD_EVENTS: u64 = 262_144;

/// Figure 16's table sizes.
const FIG16_SIZES: [usize; 9] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
/// Figure 11's table sizes (its path lengths are 0-4, 6, 8, 10 and 12).
const FIG11_SIZES: [usize; 11] = [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
/// Figure 17's per-component sizes and largest path length.
const FIG17_SIZES: [usize; 2] = [2048, 8192];
const FIG17_MAX_P: usize = 12;

/// Short-path configurations `cold-stream` samples.
const SHORT_PATH_SAMPLES: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `summary`'s headline configurations plus sampled bounded two-level
    /// predictors and hybrids: flat set-indexed tables and metapredictor
    /// arbitration, no hashing.
    HybridSweep,
    /// Figure 9's unconstrained path-length sweep plus sampled
    /// fully-associative LRU tables: every probe hashes a path key.
    PathSweep,
    /// BTBs and short-path predictors over a streamed suite whose corpus
    /// is generated from scratch in every run: the trace cache's write
    /// side.
    ColdStream,
}

/// A headline number of the paper that a workload reproduces: the AVG
/// misprediction rate of the best of `candidates` (`summary`'s
/// best-over-paths rule) against `paper`.
pub struct PaperRow {
    /// What the row is.
    pub label: &'static str,
    /// The configurations whose best AVG rate is the measured value.
    pub candidates: Vec<PredictorConfig>,
    /// The paper's AVG misprediction rate, as a fraction.
    pub paper: f64,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HybridSweep,
        Workload::PathSweep,
        Workload::ColdStream,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::HybridSweep => "hybrid-sweep",
            Workload::PathSweep => "path-sweep",
            Workload::ColdStream => "cold-stream",
        }
    }

    /// The workload with this name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Indirect-branch events per benchmark trace.
    #[must_use]
    pub fn default_events(self) -> u64 {
        match self {
            Workload::HybridSweep | Workload::PathSweep => SWEEP_EVENTS,
            Workload::ColdStream => COLD_EVENTS,
        }
    }

    /// Whether the suite streams from a corpus generated in every run
    /// (rather than materialising from a warm corpus).
    #[must_use]
    pub fn cold(self) -> bool {
        self == Workload::ColdStream
    }

    /// The configurations the workload sweeps for `seed`: the fixed ones
    /// first, then the seeded sample. No two share a cache key.
    #[must_use]
    pub fn configs(self, seed: u64) -> Vec<PredictorConfig> {
        let mut rng = SplitMix64::new(seed ^ fnv1a(self.name().as_bytes()));
        let mut picked = Picked::default();
        // Each stratum contributes one draw, and p = 0 (a BTB, several
        // times cheaper than any path-indexed table) is left out of the
        // samples, so every seed sweeps a similar amount of work: the
        // spread between seeds stays within the host's own noise.
        match self {
            Workload::HybridSweep => {
                picked.extend(summary_configs());
                for assoc in [
                    Associativity::Tagless,
                    Associativity::Ways(2),
                    Associativity::Ways(4),
                ] {
                    picked.sample(&mut rng, fig16_grid(assoc), 1);
                }
                picked.sample(&mut rng, fig17_grid(PredictorConfig::hybrid), 1);
                picked.sample(&mut rng, fig17_grid(PredictorConfig::bpst), 1);
            }
            Workload::PathSweep => {
                picked.extend(fig9_configs());
                for paths in [&[1, 2, 3][..], &[4, 6], &[8, 10], &[12]] {
                    picked.sample(&mut rng, fig11_grid(paths), 1);
                }
            }
            Workload::ColdStream => {
                picked.extend([PredictorConfig::btb(), PredictorConfig::btb_2bc()]);
                picked.sample(&mut rng, short_path_grid(), SHORT_PATH_SAMPLES);
            }
        }
        picked.configs
    }

    /// The paper's numbers this workload's fixed configurations reproduce.
    #[must_use]
    pub fn paper_rows(self) -> Vec<PaperRow> {
        let row = |label, candidates, paper| PaperRow {
            label,
            candidates,
            paper,
        };
        match self {
            // `experiments::summary`'s five headline rows.
            Workload::HybridSweep => vec![
                row("ideal BTB (2bc)", vec![PredictorConfig::btb_2bc()], 0.249),
                row("two-level, 1K 4-way", practical_1k(), 0.098),
                row("two-level, 8K 4-way", practical_8k(), 0.073),
                row("hybrid, 1K total 4-way", hybrid_1k(), 0.0898),
                row("hybrid, 8K total 4-way", hybrid_8k(), 0.0595),
            ],
            // Figure 9's anchors: a BTB at p = 0, p = 3, and the minimum.
            Workload::PathSweep => vec![
                row(
                    "unconstrained p=0",
                    vec![PredictorConfig::unconstrained(0)],
                    0.249,
                ),
                row(
                    "unconstrained p=3",
                    vec![PredictorConfig::unconstrained(3)],
                    0.078,
                ),
                row("unconstrained best p", fig9_configs(), 0.058),
            ],
            // Figure 2's anchors.
            Workload::ColdStream => vec![
                row("BTB", vec![PredictorConfig::btb()], 0.281),
                row("BTB-2bc", vec![PredictorConfig::btb_2bc()], 0.249),
            ],
        }
    }
}

/// The single-thread kernel families of the per-layer `core.*` metrics.
/// Pairs isolate one cost each: `unbounded_p3` vs `unbounded_p12` the key
/// length, and the three p = 3 tables the table kind.
#[must_use]
pub fn core_families() -> Vec<(&'static str, PredictorConfig)> {
    vec![
        ("btb2bc", PredictorConfig::btb_2bc()),
        ("unbounded_p3", PredictorConfig::unconstrained(3)),
        ("unbounded_p12", PredictorConfig::unconstrained(12)),
        ("lru_p6_1k", PredictorConfig::full_assoc(6, 1024)),
        ("setassoc_p3_1k_4w", PredictorConfig::practical(3, 1024, 4)),
        ("tagless_p3_1k", PredictorConfig::tagless(3, 1024)),
        // 2 x 2048 entries: 4K in total, like summary's "8K total" rows.
        ("hybrid_p5p1_4k_4w", PredictorConfig::hybrid(5, 1, 2048, 4)),
    ]
}

fn practical_1k() -> Vec<PredictorConfig> {
    (1..=4)
        .map(|p| PredictorConfig::practical(p, 1024, 4))
        .collect()
}

fn practical_8k() -> Vec<PredictorConfig> {
    (2..=6)
        .map(|p| PredictorConfig::practical(p, 8192, 4))
        .collect()
}

fn hybrid_1k() -> Vec<PredictorConfig> {
    (2..=4)
        .map(|p| PredictorConfig::hybrid(p, 1, 512, 4))
        .collect()
}

fn hybrid_8k() -> Vec<PredictorConfig> {
    (4..=7)
        .map(|p| PredictorConfig::hybrid(p, 2, 4096, 4))
        .collect()
}

/// Every configuration `experiments::summary` runs, in its order.
fn summary_configs() -> Vec<PredictorConfig> {
    let mut configs = vec![PredictorConfig::btb_2bc()];
    configs.extend(practical_1k());
    configs.extend(practical_8k());
    configs.extend(hybrid_1k());
    configs.extend(hybrid_8k());
    configs
}

fn fig9_configs() -> Vec<PredictorConfig> {
    (0..=MAX_PATH).map(PredictorConfig::unconstrained).collect()
}

/// One panel of Figure 16: practical predictors of one associativity
/// over path length (p >= 1) x size.
fn fig16_grid(assoc: Associativity) -> Vec<PredictorConfig> {
    (1..=12)
        .flat_map(|p| {
            FIG16_SIZES
                .iter()
                .map(move |&size| PredictorConfig::practical(p, size, 1).with_associativity(assoc))
        })
        .collect()
}

/// Figure 17's off-diagonal hybrids with p >= 1, arbitrated as `make`
/// builds them (confidence counters or BPST).
fn fig17_grid(make: fn(usize, usize, usize, usize) -> PredictorConfig) -> Vec<PredictorConfig> {
    let mut grid = Vec::new();
    for size in FIG17_SIZES {
        for p1 in 1..=FIG17_MAX_P {
            for p2 in (1..=FIG17_MAX_P).filter(|&p2| p2 != p1) {
                grid.push(make(p1, p2, size, 4));
            }
        }
    }
    grid
}

/// Figure 11's fully-associative LRU tables at the given path lengths,
/// over every size.
fn fig11_grid(paths: &[usize]) -> Vec<PredictorConfig> {
    FIG11_SIZES
        .iter()
        .flat_map(|&size| {
            paths
                .iter()
                .map(move |&p| PredictorConfig::full_assoc(p, size))
        })
        .collect()
}

/// Short-path (p <= 3) 4-way predictors: bounded tables, so the peak
/// memory of a `cold-stream` run does not depend on the seed.
fn short_path_grid() -> Vec<PredictorConfig> {
    let mut grid = Vec::new();
    for p in 1..=3 {
        for size in [512, 1024, 2048, 4096] {
            grid.push(PredictorConfig::practical(p, size, 4));
        }
    }
    grid
}

/// Configurations picked so far, unique by cache key.
#[derive(Default)]
struct Picked {
    configs: Vec<PredictorConfig>,
    keys: HashSet<String>,
}

impl Picked {
    fn push(&mut self, cfg: PredictorConfig) -> bool {
        let fresh = self.keys.insert(cfg.cache_key());
        if fresh {
            self.configs.push(cfg);
        }
        fresh
    }

    fn extend(&mut self, configs: impl IntoIterator<Item = PredictorConfig>) {
        for cfg in configs {
            self.push(cfg);
        }
    }

    /// Adds `k` configurations drawn without replacement from `grid`,
    /// skipping any already picked.
    fn sample(&mut self, rng: &mut SplitMix64, mut grid: Vec<PredictorConfig>, k: usize) {
        let mut added = 0;
        while added < k && !grid.is_empty() {
            let i = rng.below(grid.len());
            if self.push(grid.swap_remove(i)) {
                added += 1;
            }
        }
    }
}

/// SplitMix64: a small, well-mixed generator, so the configurations a
/// seed draws do not depend on any library's RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_configs_other_seed_other_sample() {
        for w in Workload::ALL {
            let keys = |seed| -> Vec<String> {
                w.configs(seed)
                    .iter()
                    .map(PredictorConfig::cache_key)
                    .collect()
            };
            assert_eq!(keys(1), keys(1));
            assert_ne!(keys(1), keys(2), "{}", w.name());
        }
    }

    #[test]
    fn fixed_configs_lead_and_keys_are_unique() {
        let hybrid = Workload::HybridSweep.configs(5);
        assert_eq!(hybrid.len(), 17 + 5);
        assert_eq!(
            hybrid[0].cache_key(),
            PredictorConfig::btb_2bc().cache_key()
        );
        let path = Workload::PathSweep.configs(5);
        assert_eq!(path.len(), MAX_PATH + 1 + 4);
        let cold = Workload::ColdStream.configs(5);
        assert_eq!(cold.len(), 2 + SHORT_PATH_SAMPLES);
        for configs in [hybrid, path, cold] {
            let keys: HashSet<String> = configs.iter().map(PredictorConfig::cache_key).collect();
            assert_eq!(keys.len(), configs.len());
        }
    }

    #[test]
    fn paper_rows_use_only_swept_configs() {
        for w in Workload::ALL {
            let swept: HashSet<String> = w
                .configs(9)
                .iter()
                .map(PredictorConfig::cache_key)
                .collect();
            for row in w.paper_rows() {
                for cfg in &row.candidates {
                    assert!(
                        swept.contains(&cfg.cache_key()),
                        "{}: {}",
                        w.name(),
                        row.label
                    );
                }
            }
        }
    }
}
