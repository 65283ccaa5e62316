//! Whole-suite workload checks: every benchmark generates, its ratios
//! match the paper's Tables 1–2 inputs, and the suites' relative
//! difficulty ordering holds.

use ibp::core::PredictorConfig;
use ibp::sim::{simulate, Suite};
use ibp::trace::{CoverageLevel, TraceEvent};
use ibp::workload::{Benchmark, BenchmarkGroup, GENERATOR_VERSION};

#[test]
fn all_benchmarks_generate_with_configured_ratios() {
    for b in Benchmark::ALL {
        let cfg = b.config();
        let trace = b.trace_with_len(8_000);
        assert_eq!(trace.indirect_count(), 8_000, "{b}");
        let instr = trace.instructions_per_indirect();
        assert!(
            (instr - cfg.instr_per_indirect).abs() / cfg.instr_per_indirect < 0.02,
            "{b}: instr/ind {instr} vs {}",
            cfg.instr_per_indirect
        );
        let cond = trace.cond_per_indirect();
        assert!(
            (cond - cfg.cond_per_indirect).abs() / cfg.cond_per_indirect.max(1.0) < 0.02,
            "{b}: cond/ind {cond} vs {}",
            cfg.cond_per_indirect
        );
    }
}

#[test]
fn site_counts_respect_table_inputs() {
    for b in [
        Benchmark::Xlisp,
        Benchmark::Go,
        Benchmark::Perl,
        Benchmark::Ixx,
    ] {
        let trace = b.trace_with_len(20_000);
        let stats = trace.stats();
        assert!(
            stats.distinct_sites <= b.config().sites,
            "{b}: {} sites vs configured {}",
            stats.distinct_sites,
            b.config().sites
        );
    }
    // The SPEC interpreters are dominated by a handful of sites (paper:
    // xlisp 3 sites at 95 %, go 2).
    let xlisp = Benchmark::Xlisp.trace_with_len(20_000).stats();
    assert!(xlisp.active_sites(CoverageLevel::P95) <= 8);
}

#[test]
fn oo_programs_have_virtual_call_majorities_where_expected() {
    let idl = Benchmark::Idl.trace_with_len(10_000).stats();
    let eqn = Benchmark::Eqn.trace_with_len(10_000).stats();
    // Table 1: idl 93 % virtual, eqn 34 %.
    assert!(idl.virtual_fraction > 0.7, "idl {}", idl.virtual_fraction);
    assert!(eqn.virtual_fraction < 0.6, "eqn {}", eqn.virtual_fraction);
    assert!(idl.virtual_fraction > eqn.virtual_fraction);
}

#[test]
fn difficulty_ordering_tracks_the_paper() {
    // Table A-1's unconstrained BTB column orders benchmarks by intrinsic
    // BTB difficulty; check a few well-separated pairs.
    let suite = Suite::with_benchmarks_and_len(
        &[
            Benchmark::Idl,
            Benchmark::Ijpeg,
            Benchmark::Gcc,
            Benchmark::M88ksim,
        ],
        25_000,
    );
    let btb = suite.run(|| PredictorConfig::btb_2bc().build());
    let rate = |b| btb.rate(b).unwrap();
    assert!(rate(Benchmark::Idl) < 0.08, "idl should be easy");
    assert!(rate(Benchmark::Ijpeg) < 0.05, "ijpeg should be easy");
    assert!(rate(Benchmark::Gcc) > 0.30, "gcc should be hard");
    assert!(rate(Benchmark::M88ksim) > 0.45, "m88ksim should be hardest");
}

#[test]
fn group_averages_are_means_of_members() {
    let suite =
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Eqn, Benchmark::Gcc], 10_000);
    let result = suite.run(|| PredictorConfig::btb_2bc().build());
    let oo = result.group_rate(BenchmarkGroup::AvgOo).unwrap();
    let expected =
        (result.rate(Benchmark::Ixx).unwrap() + result.rate(Benchmark::Eqn).unwrap()) / 2.0;
    assert!((oo - expected).abs() < 1e-12);
}

/// The generator version [`PINNED_DIGESTS`] were recorded at.
const PINNED_GENERATOR_VERSION: u32 = 1;

/// Events per benchmark the digests cover.
const PINNED_EVENTS: u64 = 2_000;

/// FNV-1a digest of every event (indirect and conditional, in order) of
/// each benchmark's `PINNED_EVENTS`-long trace, in `Benchmark::ALL` order.
const PINNED_DIGESTS: [(&str, u64); 17] = [
    ("idl", 0xf096709caffe4b27),
    ("jhm", 0x339bab3ee20fd54a),
    ("self", 0x8a08477322357526),
    ("troff", 0x8eb0a5764f1c46d1),
    ("lcom", 0xa029b328d8f6bccf),
    ("porky", 0x8a757e55f90bf79c),
    ("ixx", 0xbd90e1ffed17d3c9),
    ("eqn", 0xaa7740b29ca67f38),
    ("beta", 0xae2dd3b95bf85849),
    ("xlisp", 0x74ffef1ab9c758e2),
    ("perl", 0x22a625aeb20e940c),
    ("edg", 0x46d720e71bf00a90),
    ("gcc", 0x35b48308f3480fd7),
    ("m88ksim", 0x454011e1275c1b21),
    ("vortex", 0x28cb133917cccb63),
    ("ijpeg", 0x7a16fce4edce9edb),
    ("go", 0x3ad9b137df732d86),
];

/// FNV-1a over each event's kind, addresses and outcome.
fn event_digest(events: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for event in events {
        let (tag, pc, target, detail) = match event {
            TraceEvent::Indirect(b) => (0u8, b.pc, b.target, b.kind as u8),
            TraceEvent::Cond(b) => (1u8, b.pc, b.target, u8::from(b.taken)),
        };
        eat(&[tag, detail]);
        eat(&pc.raw().to_le_bytes());
        eat(&target.raw().to_le_bytes());
    }
    hash
}

/// The trace corpus cache replays a segment as long as the benchmark's
/// `fingerprint()` is unchanged, and the fingerprint covers the
/// generator's parameters and `GENERATOR_VERSION`, not its code. This pin
/// is what catches a generator code change that forgot the version bump:
/// every event of every benchmark is digested and compared with the
/// values recorded at `PINNED_GENERATOR_VERSION`.
#[test]
fn generator_output_is_pinned_to_its_version() {
    let got: Vec<(&str, u64)> = Benchmark::ALL
        .iter()
        .map(|b| (b.name(), event_digest(b.trace_with_len(PINNED_EVENTS).events())))
        .collect();
    let changed: Vec<&str> = got
        .iter()
        .zip(PINNED_DIGESTS)
        .filter(|(g, p)| **g != *p)
        .map(|(g, _)| g.0)
        .collect();
    let repin: String = got
        .iter()
        .map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),\n"))
        .collect();
    assert!(
        changed.is_empty() && GENERATOR_VERSION == PINNED_GENERATOR_VERSION,
        "generator output changed for {changed:?} (GENERATOR_VERSION {GENERATOR_VERSION}, \
         pinned at {PINNED_GENERATOR_VERSION}): bump GENERATOR_VERSION and re-pin.\n\
         Current digests:\n{repin}"
    );
}

#[test]
fn paper_trace_lengths_usable() {
    // `paper_event_count` values can drive a (scaled) full run.
    for b in Benchmark::ALL {
        assert!(b.paper_event_count() >= 32_975);
    }
    let mini = Benchmark::Ijpeg.trace_with_len(Benchmark::Ijpeg.paper_event_count() / 8);
    assert!(simulate(&mini, PredictorConfig::btb_2bc().build().as_mut()).indirect > 0);
}
