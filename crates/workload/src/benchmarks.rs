//! The paper's benchmark suite as synthetic presets.

use std::fmt;

use ibp_trace::Trace;

use crate::mix::KindMix;
use crate::program::{ProgramConfig, ProgramSource};

/// One of the 17 benchmarks of the paper's Tables 1–2, as a calibrated
/// synthetic workload.
///
/// The per-benchmark parameters (site counts, instruction ratios, kind mix)
/// come straight from the tables; the behavioural knobs (monomorphism,
/// dominant-target skew, transition determinism, noise) are calibrated so
/// each program's *unconstrained BTB-2bc* misprediction rate and rough
/// two-level predictability land near the paper's Figure 2 / Table A-1
/// values. See `EXPERIMENTS.md` for measured-vs-paper numbers.
///
/// # Example
///
/// ```
/// use ibp_workload::{Benchmark, BenchmarkGroup};
///
/// assert!(Benchmark::Idl.is_object_oriented());
/// assert!(!Benchmark::Gcc.is_object_oriented());
/// assert_eq!(Benchmark::ALL.len(), 17);
/// assert_eq!(BenchmarkGroup::Avg.members().len(), 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Benchmark {
    /// SunSoft's IDL compiler (C++).
    Idl,
    /// Java High-level Class Modifier (C++).
    Jhm,
    /// The Self-93 virtual machine (C++).
    SelfVm,
    /// GNU groff (C++).
    Troff,
    /// A compiler for a hardware description language (C++).
    Lcom,
    /// The SUIF scalar optimizer (C++).
    Porky,
    /// An IDL parser from the Fresco X11 library (C++).
    Ixx,
    /// The eqn equation typesetter (C++).
    Eqn,
    /// The BETA compiler (written in BETA).
    Beta,
    /// SPECint95 xlisp interpreter (C).
    Xlisp,
    /// SPECint95 perl interpreter (C).
    Perl,
    /// The EDG C++ front end (C).
    Edg,
    /// SPECint95 gcc (C).
    Gcc,
    /// SPECint95 m88ksim (C, infrequent indirect branches).
    M88ksim,
    /// SPECint95 vortex (C, infrequent indirect branches).
    Vortex,
    /// SPECint95 ijpeg (C, infrequent indirect branches).
    Ijpeg,
    /// SPECint95 go (C, infrequent indirect branches).
    Go,
}

impl Benchmark {
    /// All benchmarks, OO programs first, in the paper's table order.
    pub const ALL: [Benchmark; 17] = [
        Benchmark::Idl,
        Benchmark::Jhm,
        Benchmark::SelfVm,
        Benchmark::Troff,
        Benchmark::Lcom,
        Benchmark::Porky,
        Benchmark::Ixx,
        Benchmark::Eqn,
        Benchmark::Beta,
        Benchmark::Xlisp,
        Benchmark::Perl,
        Benchmark::Edg,
        Benchmark::Gcc,
        Benchmark::M88ksim,
        Benchmark::Vortex,
        Benchmark::Ijpeg,
        Benchmark::Go,
    ];

    /// The benchmark's display name (as used in the paper).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Idl => "idl",
            Benchmark::Jhm => "jhm",
            Benchmark::SelfVm => "self",
            Benchmark::Troff => "troff",
            Benchmark::Lcom => "lcom",
            Benchmark::Porky => "porky",
            Benchmark::Ixx => "ixx",
            Benchmark::Eqn => "eqn",
            Benchmark::Beta => "beta",
            Benchmark::Xlisp => "xlisp",
            Benchmark::Perl => "perl",
            Benchmark::Edg => "edg",
            Benchmark::Gcc => "gcc",
            Benchmark::M88ksim => "m88ksim",
            Benchmark::Vortex => "vortex",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::Go => "go",
        }
    }

    /// Whether the benchmark belongs to the object-oriented suite
    /// (Table 1).
    #[must_use]
    pub fn is_object_oriented(self) -> bool {
        matches!(
            self,
            Benchmark::Idl
                | Benchmark::Jhm
                | Benchmark::SelfVm
                | Benchmark::Troff
                | Benchmark::Lcom
                | Benchmark::Porky
                | Benchmark::Ixx
                | Benchmark::Eqn
                | Benchmark::Beta
        )
    }

    /// Whether the paper classifies the benchmark as executing indirect
    /// branches very infrequently (> 1000 instructions per indirect branch;
    /// excluded from `AVG`).
    #[must_use]
    pub fn is_infrequent(self) -> bool {
        matches!(
            self,
            Benchmark::M88ksim | Benchmark::Vortex | Benchmark::Ijpeg | Benchmark::Go
        )
    }

    /// The dynamic indirect-branch count the paper traced for this program
    /// (Tables 1–2), for full-scale runs.
    #[must_use]
    pub fn paper_event_count(self) -> u64 {
        match self {
            Benchmark::Idl => 1_883_641,
            Benchmark::Jhm => 6_000_000,
            Benchmark::SelfVm => 1_000_000,
            Benchmark::Troff => 1_110_592,
            Benchmark::Lcom => 1_737_751,
            Benchmark::Porky => 5_392_890,
            Benchmark::Ixx => 212_035,
            Benchmark::Eqn => 296_425,
            Benchmark::Beta => 1_005_995,
            Benchmark::Xlisp => 6_000_000,
            Benchmark::Perl => 300_000,
            Benchmark::Edg => 548_893,
            Benchmark::Gcc => 864_838,
            Benchmark::M88ksim => 300_000,
            Benchmark::Vortex => 3_000_000,
            Benchmark::Ijpeg => 32_975,
            Benchmark::Go => 549_656,
        }
    }

    /// The calibrated generator configuration for this benchmark.
    #[must_use]
    pub fn config(self) -> ProgramConfig {
        let mut c = ProgramConfig::new(self.name());
        // Structural parameters straight from Tables 1–2.
        let (sites, instr, cond) = match self {
            Benchmark::Idl => (543, 47.0, 6.0),
            Benchmark::Jhm => (155, 47.0, 5.0),
            Benchmark::SelfVm => (1855, 56.0, 7.0),
            Benchmark::Troff => (161, 90.0, 13.0),
            Benchmark::Lcom => (328, 97.0, 10.0),
            Benchmark::Porky => (285, 138.0, 19.0),
            Benchmark::Ixx => (203, 139.0, 18.0),
            Benchmark::Eqn => (114, 159.0, 25.0),
            Benchmark::Beta => (376, 188.0, 23.0),
            Benchmark::Xlisp => (13, 69.0, 11.0),
            Benchmark::Perl => (24, 113.0, 17.0),
            Benchmark::Edg => (350, 149.0, 23.0),
            Benchmark::Gcc => (166, 176.0, 31.0),
            Benchmark::M88ksim => (17, 1827.0, 233.0),
            Benchmark::Vortex => (37, 3480.0, 525.0),
            Benchmark::Ijpeg => (60, 5770.0, 441.0),
            Benchmark::Go => (14, 56355.0, 7123.0),
        };
        c.sites = sites;
        c.instr_per_indirect = instr;
        c.cond_per_indirect = cond;
        c.kind_mix = match self {
            Benchmark::Idl => KindMix::object_oriented(0.93),
            Benchmark::Jhm => KindMix::object_oriented(0.94),
            Benchmark::SelfVm => KindMix::object_oriented(0.76),
            Benchmark::Troff => KindMix::object_oriented(0.74),
            Benchmark::Lcom => KindMix::object_oriented(0.60),
            Benchmark::Porky => KindMix::object_oriented(0.71),
            Benchmark::Ixx => KindMix::object_oriented(0.47),
            Benchmark::Eqn => KindMix::object_oriented(0.34),
            Benchmark::Beta => KindMix::object_oriented(0.50),
            _ => KindMix::c_style(),
        };
        // Behavioural calibration. Anchors: each benchmark's unconstrained
        // BTB-2bc misprediction (Figure 2 / Table A-1 first column) and its
        // best large-table two-level rate (Table A-1 fullassoc column).
        // Knob roles: `class_skew`/`mono_fraction`/`classes` set the BTB
        // rate; `deviation`/`noise` and the mode/melody geometry set the
        // two-level floor; `method_pool` sets how much history is needed.
        match self {
            Benchmark::Idl => {
                c.mono_fraction = 0.72;
                c.class_skew = 0.92;
                c.classes = 6;
                c.deviation = 0.003;
                c.noise = 0.004;
                c.modes = 10;
                c.mode_reps = (2, 6);
                c.method_pool = Some(48);
            }
            Benchmark::Jhm => {
                c.mono_fraction = 0.55;
                c.class_skew = 0.78;
                c.classes = 8;
                c.deviation = 0.010;
                c.noise = 0.085;
                c.modes = 14;
                c.melody_len = (2, 4);
                c.mode_reps = (1, 2);
            }
            Benchmark::SelfVm => {
                c.mono_fraction = 0.25;
                c.class_skew = 0.30;
                c.classes = 10;
                c.deviation = 0.015;
                c.noise = 0.100;
                c.modes = 24;
                c.idioms = 150;
                c.idiom_families = 20;
                c.melody_len = (2, 5);
                c.mode_reps = (1, 2);
                c.method_pool = Some(90);
            }
            Benchmark::Troff => {
                c.mono_fraction = 0.50;
                c.class_skew = 0.76;
                c.classes = 8;
                c.deviation = 0.010;
                c.noise = 0.070;
                c.melody_len = (2, 5);
                c.mode_reps = (1, 2);
            }
            Benchmark::Lcom => {
                c.mono_fraction = 0.70;
                c.class_skew = 0.90;
                c.classes = 6;
                c.deviation = 0.005;
                c.noise = 0.012;
                c.mode_reps = (2, 5);
            }
            Benchmark::Porky => {
                c.mono_fraction = 0.32;
                c.class_skew = 0.58;
                c.classes = 8;
                c.deviation = 0.010;
                c.noise = 0.040;
                c.melody_len = (3, 6);
                c.mode_reps = (1, 2);
            }
            Benchmark::Ixx => {
                c.mono_fraction = 0.00;
                c.class_skew = 0.00;
                c.classes = 16;
                c.deviation = 0.010;
                c.noise = 0.050;
                c.melody_len = (3, 6);
                c.mode_reps = (1, 2);
                c.method_pool = Some(12);
            }
            Benchmark::Eqn => {
                c.mono_fraction = 0.15;
                c.class_skew = 0.20;
                c.classes = 10;
                c.deviation = 0.015;
                c.noise = 0.130;
                c.melody_len = (1, 3);
                c.mode_reps = (1, 1);
            }
            Benchmark::Beta => {
                c.mono_fraction = 0.15;
                c.class_skew = 0.22;
                c.classes = 10;
                c.deviation = 0.008;
                c.noise = 0.020;
                c.mode_reps = (2, 6);
            }
            Benchmark::Xlisp => {
                c.mono_fraction = 0.35;
                c.class_skew = 0.78;
                c.classes = 5;
                c.deviation = 0.005;
                c.noise = 0.012;
                c.modes = 6;
                c.idioms = 10;
                c.idiom_families = 3;
                c.melody_len = (3, 6);
                c.mode_reps = (2, 5);
                c.method_pool = Some(6);
            }
            Benchmark::Perl => {
                c.mono_fraction = 0.00;
                c.class_skew = 0.45;
                c.classes = 8;
                c.deviation = 0.002;
                c.noise = 0.004;
                c.modes = 8;
                c.mode_reps = (2, 5);
                c.method_pool = Some(10);
            }
            Benchmark::Edg => {
                c.mono_fraction = 0.10;
                c.class_skew = 0.24;
                c.classes = 10;
                c.deviation = 0.015;
                c.noise = 0.130;
                c.modes = 24;
                c.idioms = 40;
                c.idiom_families = 10;
                c.melody_len = (2, 4);
                c.mode_reps = (1, 1);
            }
            Benchmark::Gcc => {
                c.mono_fraction = 0.00;
                c.class_skew = 0.00;
                c.classes = 20;
                c.deviation = 0.015;
                c.noise = 0.090;
                c.modes = 28;
                c.idioms = 96;
                c.idiom_families = 16;
                c.melody_len = (2, 5);
                c.mode_reps = (1, 1);
                c.method_pool = Some(20);
            }
            Benchmark::M88ksim => {
                c.mono_fraction = 0.00;
                c.class_skew = 0.03;
                c.classes = 12;
                c.deviation = 0.004;
                c.noise = 0.016;
                c.modes = 10;
                c.idioms = 16;
                c.idiom_families = 4;
                c.method_pool = Some(12);
            }
            Benchmark::Vortex => {
                c.mono_fraction = 0.30;
                c.class_skew = 0.60;
                c.classes = 8;
                c.deviation = 0.010;
                c.noise = 0.090;
                c.modes = 10;
                c.melody_len = (2, 4);
                c.mode_reps = (1, 2);
                c.method_pool = Some(14);
            }
            Benchmark::Ijpeg => {
                c.mono_fraction = 0.90;
                c.class_skew = 0.97;
                c.classes = 4;
                c.deviation = 0.003;
                c.noise = 0.006;
                c.modes = 8;
            }
            Benchmark::Go => {
                c.mono_fraction = 0.20;
                c.class_skew = 0.52;
                c.classes = 6;
                c.deviation = 0.080;
                c.noise = 0.280;
                c.modes = 12;
                c.idioms = 12;
                c.idiom_families = 4;
                c.melody_len = (1, 1);
                c.mode_reps = (1, 1);
                c.method_pool = Some(8);
            }
        }
        // Activity count scales with program size.
        c.activities = (c.sites / 2).clamp(24, 256);
        // SPEC interpreters are dominated by very few sites.
        c.site_zipf = match self {
            Benchmark::Xlisp | Benchmark::Go | Benchmark::M88ksim => 1.6,
            Benchmark::Perl | Benchmark::Vortex | Benchmark::Ijpeg => 1.3,
            Benchmark::SelfVm => 0.7,
            _ => 1.0,
        };
        // Long global phases add the slow drift that makes very long
        // histories pay a re-warm-up cost.
        c.phase_events = Some(match self {
            Benchmark::SelfVm | Benchmark::Gcc | Benchmark::Edg => 40_000,
            _ => 60_000,
        });
        c
    }

    /// A default-length trace (120k indirect branches), deterministic per
    /// benchmark.
    #[must_use]
    pub fn trace(self) -> Trace {
        self.config().generate()
    }

    /// A trace with exactly `events` indirect branches.
    #[must_use]
    pub fn trace_with_len(self, events: u64) -> Trace {
        self.config().build().generate_with_len(events)
    }

    /// A streaming source producing exactly `events` indirect branches,
    /// event-for-event identical to
    /// [`trace_with_len`](Benchmark::trace_with_len) but in chunk-bounded
    /// memory.
    #[must_use]
    pub fn source(self, events: u64) -> ProgramSource {
        self.config().build().source(events)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_trace::CoverageLevel;

    #[test]
    fn all_names_unique() {
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn oo_and_infrequent_partition() {
        let oo = Benchmark::ALL
            .iter()
            .filter(|b| b.is_object_oriented())
            .count();
        let infreq = Benchmark::ALL.iter().filter(|b| b.is_infrequent()).count();
        assert_eq!(oo, 9);
        assert_eq!(infreq, 4);
        // No OO benchmark is infrequent.
        assert!(Benchmark::ALL
            .iter()
            .all(|b| !(b.is_object_oriented() && b.is_infrequent())));
    }

    #[test]
    fn configs_are_valid() {
        for b in Benchmark::ALL {
            b.config().validate();
        }
    }

    #[test]
    fn ratios_match_tables() {
        // Spot-check two benchmarks' generated ratios against Tables 1–2.
        let t = Benchmark::Troff.trace_with_len(20_000);
        assert!((t.instructions_per_indirect() - 90.0).abs() < 2.0);
        assert!((t.cond_per_indirect() - 13.0).abs() < 0.2);
        let t = Benchmark::Gcc.trace_with_len(20_000);
        assert!((t.instructions_per_indirect() - 176.0).abs() < 2.0);
    }

    #[test]
    fn spec_benchmarks_are_site_dominated() {
        // go: 2 sites cover 95 % in the paper; our synthetic version should
        // be dominated by a handful. The exact count depends on the RNG
        // stream, so the bound is loose.
        let t = Benchmark::Go.trace_with_len(20_000);
        let s = t.stats();
        assert!(
            s.active_sites(CoverageLevel::P95) <= 8,
            "go 95% sites = {}",
            s.active_sites(CoverageLevel::P95)
        );
    }

    #[test]
    fn traces_are_deterministic_across_calls() {
        let a = Benchmark::Eqn.trace_with_len(5_000);
        let b = Benchmark::Eqn.trace_with_len(5_000);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::SelfVm.to_string(), "self");
        assert_eq!(Benchmark::Gcc.to_string(), "gcc");
    }

    #[test]
    fn paper_event_counts_positive() {
        for b in Benchmark::ALL {
            assert!(b.paper_event_count() > 0);
        }
    }
}
