//! The benchmark command: prepares isolated inputs, computes the
//! reference, runs timed child processes for `--seconds`, checks every
//! cell they report, and prints the metrics.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use ibp_core::PredictorConfig;
use ibp_sim::RunStats;
use ibp_workload::{Benchmark, BenchmarkGroup};

use crate::child::{Cell, Report};
use crate::json::{number, quote};
use crate::provenance::Provenance;
use crate::spans::Tracer;
use crate::stats::{median, quartiles};
use crate::workloads::{core_families, Workload};

/// A metric's name and unit, as `BENCHMARK.json` lists them.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The metrics a user of the simulator sees, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s"),
    def("events_per_s", "1/s"),
    def("wall_s", "s"),
    def("peak_rss_mb", "MB"),
    def("correct_cells_pct", "%"),
    def("paper_gap_pp", "pp"),
];

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 18] = [
    def("workload.gen_ns_per_event", "ns/event"),
    def("trace.encode_ns_per_event", "ns/event"),
    def("trace.decode_ns_per_event", "ns/event"),
    def("trace.verify_ns_per_byte", "ns/byte"),
    def("trace_cache.hit_ratio", "ratio"),
    def("trace_cache.read_amp", "ratio"),
    def("core.btb2bc.ns_per_event", "ns/event"),
    def("core.unbounded_p3.ns_per_event", "ns/event"),
    def("core.unbounded_p12.ns_per_event", "ns/event"),
    def("core.lru_p6_1k.ns_per_event", "ns/event"),
    def("core.setassoc_p3_1k_4w.ns_per_event", "ns/event"),
    def("core.tagless_p3_1k.ns_per_event", "ns/event"),
    def("core.hybrid_p5p1_4k_4w.ns_per_event", "ns/event"),
    def("engine.util", "ratio"),
    def("engine.degraded_cells", "count"),
    def("shard.gain_pct", "%"),
    def("component.gain_pct", "%"),
    def("obs.trace_overhead_pct", "%"),
];

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the sampled configurations.
    pub seed: u64,
    /// How long the timed children run, in seconds.
    pub seconds: u64,
    /// Print per-layer metrics (a traced run) instead of end-to-end ones.
    pub trace: bool,
    /// Events per benchmark trace (the workload's length unless a test
    /// asks for a tiny one).
    pub events: u64,
    /// The benchmark's own directory for corpus, reference and records.
    pub work: PathBuf,
    /// Corrupt one reference cell, to show the correctness gate fires.
    pub perturb_reference: bool,
}

/// The usage line.
pub const USAGE: &str = "usage: ibp-perfbench --workload <hybrid-sweep|path-sweep|cold-stream> \
     --seed <n> --seconds <n> --trace <0|1> [--events <n>] [--work <dir>] [--perturb-reference]";

impl Options {
    /// Parses the benchmark's arguments.
    ///
    /// # Errors
    ///
    /// Describes the first bad or missing argument.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut flags: HashMap<&str, &str> = HashMap::new();
        let mut perturb_reference = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--perturb-reference" => perturb_reference = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--events" | "--work" => {
                    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    flags.insert(flag, value);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let name = flags.get("--workload").ok_or("--workload is required")?;
        let workload =
            Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let number = |flag: &str, default: u64| -> Result<u64, String> {
            flags.get(flag).map_or(Ok(default), |v| {
                v.parse()
                    .map_err(|_| format!("{flag} expects an unsigned integer, got {v:?}"))
            })
        };
        let trace = match number("--trace", 0)? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace expects 0 or 1, got {t}")),
        };
        let events = number("--events", workload.default_events())?;
        if events == 0 {
            return Err("--events must be positive".into());
        }
        Ok(Options {
            workload,
            seed: number("--seed", 1)?,
            seconds: number("--seconds", 10)?,
            trace,
            events,
            work: flags.get("--work").map_or_else(
                || Path::new(env!("CARGO_MANIFEST_DIR")).join("work"),
                PathBuf::from,
            ),
            perturb_reference,
        })
    }
}

/// Knob settings a timed child runs under, on top of the isolated base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Variant {
    /// The simulator's defaults.
    Default,
    /// `IBP_SHARDS=0`: no site-sharded pipeline.
    NoShards,
    /// `IBP_COMPONENTS=0`: no component-parallel pipeline.
    NoComponents,
    /// `IBP_TRACE=<file>`: the simulator's own journal on.
    Traced,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::NoShards => "no_shards",
            Variant::NoComponents => "no_components",
            Variant::Traced => "traced",
        }
    }
}

/// One timed child's measurements.
struct Sample {
    /// Set-up and sweep times less stolen time (see `child::timed`).
    setup_s: f64,
    sweep_s: f64,
    /// The same phases in plain wall time.
    setup_wall_s: f64,
    sweep_wall_s: f64,
    events_per_s: f64,
    rss_mb: f64,
    hit_ratio: f64,
    read_amp: f64,
    degraded: f64,
}

/// Cells checked against the reference.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    /// A few mismatches, for the record.
    examples: Vec<String>,
}

impl Gate {
    /// Checks that `cells` holds exactly the reference's value for every
    /// expected cell; a cell missing from `cells` fails.
    fn check(&mut self, expected: &[(String, String)], reference: &CellMap, cells: &[Cell]) {
        let got: HashMap<(&str, &str), RunStats> = cells
            .iter()
            .map(|c| ((c.key.as_str(), c.benchmark.as_str()), c.stats))
            .collect();
        for (key, bench) in expected {
            self.attempted += 1;
            let want = reference.get(&(key.clone(), bench.clone()));
            let have = got.get(&(key.as_str(), bench.as_str()));
            if want.is_none() || want != have {
                self.failed += 1;
                if self.examples.len() < 5 {
                    self.examples
                        .push(format!("{key} x {bench}: {have:?} != reference {want:?}"));
                }
            }
        }
    }

    /// Counts every expected cell of a child that reported nothing.
    fn lose(&mut self, expected: usize, why: &str) {
        self.attempted += expected as u64;
        self.failed += expected as u64;
        if self.examples.len() < 5 {
            self.examples.push(why.to_string());
        }
    }
}

type CellMap = HashMap<(String, String), RunStats>;

struct Runner<'a> {
    opts: &'a Options,
    exe: PathBuf,
    /// The `IBP_RESULTS` root the children use: only the corpus lives here.
    root: PathBuf,
    tracer: Tracer,
    journals: PathBuf,
    children: u64,
}

impl Runner<'_> {
    /// The `IBP_*` variables a child of `variant` runs with. Every other
    /// `IBP_*` variable of the caller's environment is removed.
    fn env(&self, variant: Variant) -> Vec<(&'static str, String)> {
        let mut env = vec![
            ("IBP_RESULTS", self.root.display().to_string()),
            ("IBP_CACHE", "0".to_string()),
            ("IBP_EVENTS", self.opts.events.to_string()),
        ];
        if self.opts.workload.cold() {
            // Streaming is the default above 250k events; stating it keeps
            // tiny test runs on the same path.
            env.push(("IBP_STREAM", "1".to_string()));
        }
        match variant {
            Variant::Default => {}
            Variant::NoShards => env.push(("IBP_SHARDS", "0".to_string())),
            Variant::NoComponents => env.push(("IBP_COMPONENTS", "0".to_string())),
            Variant::Traced => {
                let journal = self.journals.join(format!("child-{}.jsonl", self.children));
                env.push(("IBP_TRACE", journal.display().to_string()));
            }
        }
        env
    }

    /// Leaves the results root holding only the trace corpus (nothing at
    /// all for `cold-stream`): no journal for the shard scheduler to read,
    /// no result cache.
    fn isolate(&self) -> Result<(), String> {
        let io = |e: std::io::Error| format!("cannot prepare {}: {e}", self.root.display());
        if self.opts.workload.cold() {
            match std::fs::remove_dir_all(&self.root) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io(e)),
            }
        }
        std::fs::create_dir_all(self.root.join(".cache").join("traces")).map_err(io)?;
        for (dir, keep) in [
            (self.root.clone(), ".cache"),
            (self.root.join(".cache"), "traces"),
        ] {
            for entry in std::fs::read_dir(&dir).map_err(io)?.flatten() {
                if entry.file_name() != keep {
                    let path = entry.path();
                    let removed = if path.is_dir() {
                        std::fs::remove_dir_all(&path)
                    } else {
                        std::fs::remove_file(&path)
                    };
                    removed.map_err(io)?;
                }
            }
        }
        Ok(())
    }

    /// Runs one child process and parses its report; its spans join the
    /// run's trace under a span for the child.
    fn child(&mut self, role: &str, variant: Variant) -> Result<Report, String> {
        let span = self
            .tracer
            .enter(format!("child.{role}.{}", variant.name()));
        let offset = self.tracer.elapsed_ns();
        let env = self.env(variant);
        self.children += 1;
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child")
            .arg(role)
            .args(["--workload", self.opts.workload.name()])
            .args(["--seed", &self.opts.seed.to_string()])
            .args(["--events", &self.opts.events.to_string()])
            .arg("--work")
            .arg(&self.opts.work)
            .current_dir(&self.opts.work)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("IBP_") {
                cmd.env_remove(key);
            }
        }
        cmd.envs(env.iter().map(|(k, v)| (k, v)));
        let output = cmd
            .output()
            .map_err(|e| format!("cannot start child {role}: {e}"));
        if let Some((_, journal)) = env.iter().find(|(k, _)| *k == "IBP_TRACE") {
            let _ = std::fs::remove_file(journal);
        }
        let output = output?;
        if !output.status.success() {
            self.tracer.exit(span, 0);
            return Err(format!(
                "child {role} ({}) failed: {}",
                variant.name(),
                output.status
            ));
        }
        let report = Report::parse(&String::from_utf8_lossy(&output.stdout));
        self.tracer.exit(span, 0);
        let report = report?;
        let spans = report.spans.clone();
        self.tracer.adopt(span, offset, spans);
        Ok(report)
    }
}

/// What a run measured, ready to print.
pub struct Outcome {
    /// Whether every cell matched the reference.
    pub correct: bool,
    /// The full record, for the log and the records directory.
    pub record: String,
    /// The one-line JSON result, printed last.
    pub result: String,
    /// `name = value unit` lines.
    pub table: String,
}

/// Mean |measured − paper| in percentage points over the workload's paper
/// rows, each measured as the best AVG rate among its candidates.
fn paper_gap_pp(workload: Workload, cells: &CellMap) -> f64 {
    let avg_rate = |cfg: &PredictorConfig| -> f64 {
        let rates: Vec<f64> = Benchmark::ALL
            .iter()
            .filter(|&&b| BenchmarkGroup::Avg.contains(b))
            .filter_map(|b| cells.get(&(cfg.cache_key(), b.name().to_string())))
            .map(RunStats::misprediction_rate)
            .collect();
        rates.iter().sum::<f64>() / rates.len().max(1) as f64
    };
    let rows = workload.paper_rows();
    let total: f64 = rows
        .iter()
        .map(|row| {
            let best = row
                .candidates
                .iter()
                .map(avg_rate)
                .fold(f64::INFINITY, f64::min);
            (best - row.paper).abs() * 100.0
        })
        .sum();
    total / rows.len() as f64
}

fn cell_map(cells: Vec<Cell>) -> CellMap {
    cells
        .into_iter()
        .map(|c| ((c.key, c.benchmark), c.stats))
        .collect()
}

fn pct_gain(new: f64, base: f64) -> f64 {
    if base > 0.0 {
        (new / base - 1.0) * 100.0
    } else {
        0.0
    }
}

type Samples = BTreeMap<Variant, Vec<Sample>>;

/// One measurement of every child of `variant`.
fn pick(samples: &Samples, variant: Variant, f: fn(&Sample) -> f64) -> Vec<f64> {
    samples
        .get(&variant)
        .map_or_else(Vec::new, |s| s.iter().map(f).collect())
}

/// The per-layer metrics, in [`PER_LAYER`] order, from the traced run's
/// spans and the timed children of every variant.
fn per_layer_values(tr: &Tracer, samples: &Samples, nproc: usize) -> Vec<f64> {
    let eps = |v| median(&pick(samples, v, |s| s.events_per_s));
    let wall = |v| median(&pick(samples, v, |s| s.setup_s + s.sweep_s));
    let cell_s = tr.total("engine.cell").0 as f64 / 1e9;
    let sweep_s = median(&pick(samples, Variant::Default, |s| s.sweep_s));
    let mut values = vec![
        tr.ns_per_work("workload.gen"),
        tr.ns_per_work("trace.encode"),
        tr.ns_per_work("trace.decode"),
        tr.ns_per_work("trace.verify"),
        median(&pick(samples, Variant::Default, |s| s.hit_ratio)),
        median(&pick(samples, Variant::Default, |s| s.read_amp)),
    ];
    values.extend(
        core_families()
            .iter()
            .map(|(name, _)| tr.ns_per_work(&format!("core.{name}"))),
    );
    values.extend([
        if sweep_s > 0.0 {
            cell_s / (nproc as f64 * sweep_s)
        } else {
            0.0
        },
        samples.values().flatten().map(|s| s.degraded).sum(),
        pct_gain(eps(Variant::Default), eps(Variant::NoShards)),
        pct_gain(eps(Variant::Default), eps(Variant::NoComponents)),
        pct_gain(wall(Variant::Traced), wall(Variant::Default)),
    ]);
    values
}

/// Every child's samples per variant, with their quartiles, as JSON
/// members.
fn samples_json(samples: &Samples) -> String {
    samples
        .iter()
        .map(|(variant, list)| {
            let series = |f: fn(&Sample) -> f64| {
                let v: Vec<f64> = list.iter().map(f).collect();
                let q = quartiles(&v);
                format!(
                    "{{\"values\": [{}], \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                    v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(", "),
                    number(q[0]),
                    number(median(&v)),
                    number(q[2])
                )
            };
            format!(
                "{}: {{\"setup_s\": {}, \"sweep_s\": {}, \"setup_wall_s\": {}, \"sweep_wall_s\": {}, \
                 \"events_per_s\": {}, \"peak_rss_mb\": {}}}",
                quote(variant.name()),
                series(|s| s.setup_s),
                series(|s| s.sweep_s),
                series(|s| s.setup_wall_s),
                series(|s| s.sweep_wall_s),
                series(|s| s.events_per_s),
                series(|s| s.rss_mb)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Runs the benchmark.
///
/// # Errors
///
/// Describes a failure that leaves nothing to report: the work directory
/// cannot be prepared, or the corpus or reference child fails.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("cannot create {}: {e}", opts.work.display()))?;
    let work = opts
        .work
        .canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", opts.work.display()))?;
    let opts = &Options {
        work: work.clone(),
        ..opts.clone()
    };
    let source_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let prov = Provenance::collect(&source_root.canonicalize().unwrap_or(source_root));
    let kind = if opts.workload.cold() { "cold" } else { "warm" };
    let mut runner = Runner {
        opts,
        exe: std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?,
        root: work.join(format!("results-{kind}-{}", opts.events)),
        tracer: Tracer::new(),
        journals: work.join("journals"),
        children: 0,
    };
    let run_span = runner.tracer.enter(format!("run.{}", opts.workload.name()));

    // Inputs and reference, outside the timed region.
    runner.isolate()?;
    if !opts.workload.cold() {
        runner.child("corpus", Variant::Default)?;
    }
    let mut reference = cell_map(runner.child("reference", Variant::Default)?.cells);
    let configs = opts.workload.configs(opts.seed);
    let expected: Vec<(String, String)> = configs
        .iter()
        .flat_map(|c| {
            Benchmark::ALL
                .iter()
                .map(move |b| (c.cache_key(), b.name().to_string()))
        })
        .collect();
    if opts.perturb_reference {
        let first = reference
            .get_mut(&expected[0])
            .expect("the reference holds every expected cell");
        first.mispredicted += 1;
    }

    // Timed children, round-robin over the variants, for `--seconds`: a
    // round starts only if one as long as the last still fits, so a run
    // overshoots by at most the noise in one round's length.
    let variants: &[Variant] = if opts.trace {
        &[
            Variant::Default,
            Variant::NoShards,
            Variant::NoComponents,
            Variant::Traced,
        ]
    } else {
        &[Variant::Default]
    };
    let mut gate = Gate::default();
    let mut samples = Samples::new();
    let mut output_cells: Option<CellMap> = None;
    let timed = Instant::now();
    loop {
        let round = Instant::now();
        for &variant in variants {
            runner.isolate()?;
            let report = match runner.child("sweep", variant) {
                Ok(report) => report,
                Err(why) => {
                    gate.lose(expected.len(), &why);
                    continue;
                }
            };
            gate.check(&expected, &reference, &report.cells);
            let m = |name| report.metric(name);
            let setup_s = m("setup_s")?;
            let sweep_s = m("sweep_s")?;
            let lookups = m("tc_hits")? + m("tc_misses")?;
            let corpus = m("corpus_bytes")?;
            samples.entry(variant).or_default().push(Sample {
                setup_s,
                sweep_s,
                setup_wall_s: m("setup_wall_s")?,
                sweep_wall_s: m("sweep_wall_s")?,
                events_per_s: expected.len() as f64 * opts.events as f64 / sweep_s,
                rss_mb: m("peak_rss_kib")? * 1024.0 / 1e6,
                hit_ratio: if lookups > 0.0 {
                    m("tc_hits")? / lookups
                } else {
                    0.0
                },
                read_amp: if corpus > 0.0 {
                    m("tc_bytes_read")? / corpus
                } else {
                    0.0
                },
                degraded: m("engine_degraded_cells")?,
            });
            if variant == Variant::Default && output_cells.is_none() {
                output_cells = Some(cell_map(report.cells));
            }
        }
        if (timed.elapsed() + round.elapsed()).as_secs_f64() > opts.seconds as f64 {
            break;
        }
    }

    if opts.trace {
        runner.isolate()?;
        match runner.child("layers", Variant::Default) {
            Ok(report) => gate.check(&expected, &reference, &report.cells),
            Err(why) => gate.lose(expected.len(), &why),
        }
    }
    runner.tracer.exit(run_span, 0);

    let correct = gate.failed == 0;
    let metrics: Vec<(&MetricDef, f64)> = if opts.trace {
        PER_LAYER
            .iter()
            .zip(per_layer_values(&runner.tracer, &samples, prov.nproc))
            .collect()
    } else {
        let cells = output_cells.as_ref().unwrap_or(&reference);
        let values = [
            median(&pick(&samples, Variant::Default, |s| s.setup_s)),
            median(&pick(&samples, Variant::Default, |s| s.events_per_s)),
            median(&pick(&samples, Variant::Default, |s| s.setup_s + s.sweep_s)),
            median(&pick(&samples, Variant::Default, |s| s.rss_mb)),
            100.0 * (gate.attempted - gate.failed) as f64 / gate.attempted.max(1) as f64,
            paper_gap_pp(opts.workload, cells),
        ];
        END_TO_END.iter().zip(values).collect()
    };

    let failed_cells_pct = 100.0 * gate.failed as f64 / gate.attempted.max(1) as f64;
    let mut table = String::new();
    for (m, v) in &metrics {
        let _ = writeln!(table, "{:<40} {:>18} {}", m.name, number(*v), m.unit);
    }
    let _ = writeln!(
        table,
        "{:<40} {:>18} % ({} of {} cells)",
        "failed_cells_pct",
        number(failed_cells_pct),
        gate.failed,
        gate.attempted
    );

    let metrics_json = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(*v),
                quote(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        gate.attempted.max(1),
        gate.failed
    );

    let env = runner
        .env(Variant::Default)
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let sample_json = samples_json(&samples);
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"events\": {}, \"seconds\": {}, \"trace\": {}, \
         \"configs\": {}, \"cells_per_child\": {}, {}, \"ibp_env\": {{{env}}}, \
         \"children\": {}, \"failed_cells_pct\": {}, \"failures\": [{}], \"samples\": {{{sample_json}}}, \
         \"result\": {result}}}",
        quote(opts.workload.name()),
        opts.seed,
        opts.events,
        opts.seconds,
        u8::from(opts.trace),
        configs.len(),
        expected.len(),
        prov.json_members(),
        runner.children,
        number(failed_cells_pct),
        gate.examples.iter().map(|e| quote(e)).collect::<Vec<_>>().join(", "),
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let records = work.join("records");
    std::fs::create_dir_all(&records)
        .and_then(|()| std::fs::write(records.join(format!("{stem}.json")), format!("{record}\n")))
        .map_err(|e| format!("cannot write the record: {e}"))?;
    if opts.trace {
        runner
            .tracer
            .write_jsonl(&work.join("spans").join(format!("{stem}.jsonl")))
            .map_err(|e| format!("cannot write the spans: {e}"))?;
    }
    Ok(Outcome {
        correct,
        record,
        result,
        table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_arguments_and_rejects_bad_ones() {
        let o = Options::parse(&args(&[
            "--workload",
            "path-sweep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload, Workload::PathSweep);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.events),
            (7, 3, true, 120_000)
        );
        assert!(Options::parse(&args(&["--workload", "nope"])).is_err());
        assert!(Options::parse(&args(&["--seed", "1"])).is_err());
        assert!(Options::parse(&args(&["--workload", "cold-stream", "--trace", "2"])).is_err());
        assert!(Options::parse(&args(&["--workload", "cold-stream", "--bogus"])).is_err());
    }

    #[test]
    fn gate_counts_mismatched_and_missing_cells() {
        let stats = |m| RunStats {
            indirect: 100,
            mispredicted: m,
        };
        let key = |k: &str, b: &str| (k.to_string(), b.to_string());
        let expected = vec![key("a", "ixx"), key("b", "ixx"), key("c", "ixx")];
        let reference: CellMap = expected
            .iter()
            .cloned()
            .zip([stats(1), stats(2), stats(3)])
            .collect();
        let cell = |k: &str, m| Cell {
            key: k.into(),
            benchmark: "ixx".into(),
            stats: stats(m),
        };
        let mut gate = Gate::default();
        gate.check(&expected, &reference, &[cell("a", 1), cell("b", 9)]);
        assert_eq!((gate.attempted, gate.failed), (3, 2));
        gate.lose(3, "crashed");
        assert_eq!((gate.attempted, gate.failed), (6, 5));
    }
}
