//! The work the benchmark does inside the simulator, one role per child
//! process.
//!
//! The simulator reads each `IBP_*` knob once per process and keeps its
//! memo cache and verified-segment set for the life of the process, so
//! every measurement runs in a fresh child with an environment the parent
//! chose: a timed sweep starts exactly like a figure binary does. A child
//! reports to the parent on stdout, one tab-separated record per line:
//!
//! * `m <name> <value>`: a measurement;
//! * `c <config key> <benchmark> <indirect> <mispredicted>`: one cell's
//!   [`RunStats`];
//! * `s <id> <parent|-> <name> <start_ns> <end_ns> <work>`: one span.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ibp_core::{ChunkScorer, Predictor, PredictorConfig};
use ibp_sim::{engine, parallel_map, simulate_kernel, simulate_source_multi, trace_cache};
use ibp_sim::{RunStats, Suite};
use ibp_trace::{chunk_events, verify_binary, write_binary_source, BinarySource};
use ibp_trace::{EventSource, TraceChunk};
use ibp_workload::Benchmark;

use crate::spans::{Span, Tracer};
use crate::workloads::{core_families, fnv1a, Workload};

/// What a child process reported.
#[derive(Debug, Default)]
pub struct Report {
    /// Measurements by name.
    pub metrics: BTreeMap<String, f64>,
    /// Cells in report order.
    pub cells: Vec<Cell>,
    /// Spans, indices local to the child.
    pub spans: Vec<Span>,
}

/// One (configuration, benchmark) simulation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// [`PredictorConfig::cache_key`].
    pub key: String,
    /// Benchmark name.
    pub benchmark: String,
    /// The cell's statistics.
    pub stats: RunStats,
}

impl Report {
    /// Parses a child's stdout.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("malformed child record {line:?}");
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match fields.as_slice() {
                ["m", name, value] => {
                    let value = value.parse().map_err(|_| bad())?;
                    report.metrics.insert((*name).to_string(), value);
                }
                ["c", key, benchmark, indirect, mispredicted] => report.cells.push(Cell {
                    key: (*key).to_string(),
                    benchmark: (*benchmark).to_string(),
                    stats: RunStats {
                        indirect: num(indirect)?,
                        mispredicted: num(mispredicted)?,
                    },
                }),
                ["s", _id, parent, name, start, end, work] => report.spans.push(Span {
                    name: (*name).to_string(),
                    start_ns: num(start)?,
                    end_ns: num(end)?,
                    parent: match *parent {
                        "-" => None,
                        p => Some(usize::try_from(num(p)?).map_err(|_| bad())?),
                    },
                    work: num(work)?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(report)
    }

    /// A measurement the child must have reported.
    ///
    /// # Errors
    ///
    /// Names the missing measurement.
    pub fn metric(&self, name: &str) -> Result<f64, String> {
        self.metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("child reported no {name}"))
    }
}

/// Output buffered until the child ends, then written in one piece.
#[derive(Default)]
struct Out(String);

impl Out {
    fn metric(&mut self, name: &str, value: f64) {
        let _ = writeln!(self.0, "m\t{name}\t{value:?}");
    }

    fn cell(&mut self, cfg: &PredictorConfig, benchmark: Benchmark, stats: RunStats) {
        let _ = writeln!(
            self.0,
            "c\t{}\t{}\t{}\t{}",
            cfg.cache_key(),
            benchmark.name(),
            stats.indirect,
            stats.mispredicted
        );
    }

    fn spans(&mut self, spans: &[Span]) {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                self.0,
                "s\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.work
            );
        }
    }
}

/// Arguments every child role takes.
pub struct ChildArgs {
    /// The workload.
    pub workload: Workload,
    /// The configuration seed.
    pub seed: u64,
    /// Events per benchmark trace.
    pub events: u64,
    /// The benchmark's work directory.
    pub work: PathBuf,
}

/// Runs child role `role`, printing its report.
///
/// # Errors
///
/// Describes an unknown role or a failed step.
pub fn run(role: &str, args: &ChildArgs) -> Result<(), String> {
    let mut out = Out::default();
    match role {
        "corpus" => corpus(args),
        "reference" => reference(args, &mut out)?,
        "sweep" => sweep(args, &mut out),
        "layers" => layers(args, &mut out)?,
        _ => return Err(format!("unknown child role {role:?}")),
    }
    print!("{}", out.0);
    Ok(())
}

/// Makes sure the corpus under `$IBP_RESULTS` holds a verified segment
/// for every benchmark, generating missing ones.
fn corpus(args: &ChildArgs) {
    parallel_map(&Benchmark::ALL, |&b| {
        drop(trace_cache::source_for(b, args.events))
    });
}

/// Builds the suite the way a figure binary does: from the warm corpus
/// (verify + decode) for the sweeps; for `cold-stream`, by generating and
/// publishing every segment, then streaming from them.
fn setup(args: &ChildArgs) -> Suite {
    if args.workload.cold() {
        parallel_map(&Benchmark::ALL, |&b| {
            drop(trace_cache::source_for(b, args.events))
        });
    }
    Suite::with_benchmarks_and_len(&Benchmark::ALL, args.events)
}

/// Bytes of every segment file under the corpus root.
fn corpus_bytes() -> u64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    walk(&path)
                } else if path.extension().is_some_and(|x| x == "ibpb") {
                    e.metadata().map_or(0, |m| m.len())
                } else {
                    0
                }
            })
            .sum()
    }
    let root =
        std::env::var_os("IBP_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from);
    walk(&root.join(".cache").join("traces"))
}

/// CPU seconds the hypervisor has stolen from this machine since boot,
/// summed over all CPUs: the `steal` column of `/proc/stat`, in USER_HZ
/// ticks (100 per second on every Linux architecture the simulator
/// builds for); 0 where the kernel does not report it.
fn stolen_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .map_or(0.0, |ticks: f64| ticks / 100.0)
}

/// Times a phase that keeps every core busy, in wall seconds and in
/// seconds the machine actually ran: the wall time less the time the
/// hypervisor stole, spread over the cores. On a shared virtual host
/// another tenant's load shows up as steal, which would otherwise move
/// every timing by tens of percent from one minute to the next.
fn timed<R>(nproc: f64, f: impl FnOnce() -> R) -> (R, f64, f64) {
    let steal = stolen_cpu_s();
    let start = Instant::now();
    let result = f();
    let wall = start.elapsed().as_secs_f64();
    // Steal is counted in 10 ms ticks: the clamp keeps one tick landing
    // in a very short phase from driving its time to zero.
    let ran = wall - (stolen_cpu_s() - steal) / nproc;
    (result, wall, ran.clamp(wall / 2.0, wall))
}

/// The process's peak resident set (`VmHWM`), in KiB; 0 where `/proc`
/// does not report it.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One timed run: set up, sweep every configuration through the engine,
/// report the times, the cells and the layer counters.
fn sweep(args: &ChildArgs, out: &mut Out) {
    let configs = args.workload.configs(args.seed);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64;
    let tc0 = trace_cache::stats();
    let eng0 = engine::stats();
    let (suite, setup_wall_s, setup_s) = timed(nproc, || setup(args));
    let (results, sweep_wall_s, sweep_s) =
        timed(nproc, || engine::run_configs(&suite, configs.clone()));
    let tc = trace_cache::stats().since(tc0);
    let eng = engine::stats().since(eng0);

    out.metric("setup_s", setup_s);
    out.metric("sweep_s", sweep_s);
    out.metric("setup_wall_s", setup_wall_s);
    out.metric("sweep_wall_s", sweep_wall_s);
    out.metric("peak_rss_kib", peak_rss_kib() as f64);
    out.metric("corpus_bytes", corpus_bytes() as f64);
    out.metric("tc_hits", tc.hits as f64);
    out.metric("tc_misses", tc.misses as f64);
    out.metric("tc_bytes_read", tc.bytes_read as f64);
    out.metric("engine_degraded_cells", eng.degraded_cells as f64);
    for (cfg, result) in configs.iter().zip(&results) {
        for b in suite.benchmarks() {
            out.cell(
                cfg,
                b,
                result.stats(b).expect("every suite benchmark has a result"),
            );
        }
    }
}

/// Where the reference cells of this binary are memoized: keyed by a hash
/// of the executable, so a rebuilt simulator never reuses stale results.
fn reference_file(args: &ChildArgs) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    Ok(args
        .work
        .join("reference")
        .join(format!("{:016x}", fnv1a(&bytes)))
        .join(format!("{}-{}.tsv", args.workload.name(), args.events)))
}

/// The sequential reference for every cell of the workload: the legacy
/// per-event fold ([`simulate_source_multi`], which is
/// [`ibp_sim::simulate_source`] for several predictors sharing one pass)
/// over a fresh [`Benchmark::source`] generator pass. It bypasses the
/// engine, the kernels, the trace cache and both parallel pipelines.
/// Cells computed once are memoized per executable and reused.
fn reference(args: &ChildArgs, out: &mut Out) -> Result<(), String> {
    let path = reference_file(args)?;
    let mut known: HashMap<(String, String), RunStats> = HashMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for cell in Report::parse(&text)?.cells {
            known.insert((cell.key, cell.benchmark), cell.stats);
        }
    }
    let configs = args.workload.configs(args.seed);
    let missing: Vec<&PredictorConfig> = configs
        .iter()
        .filter(|cfg| {
            Benchmark::ALL
                .iter()
                .any(|b| !known.contains_key(&(cfg.cache_key(), b.name().to_string())))
        })
        .collect();
    if !missing.is_empty() {
        let per_bench = fold_in_parallel(&Benchmark::ALL, |&b| {
            let mut predictors: Vec<Box<dyn Predictor>> =
                missing.iter().map(|c| c.build()).collect();
            let mut lanes: Vec<&mut (dyn Predictor + 'static)> =
                predictors.iter_mut().map(|p| &mut **p).collect();
            simulate_source_multi(&mut b.source(args.events), &mut lanes, 0)
                .expect("generator sources cannot fail")
        });
        let mut fresh = Out::default();
        for (&b, stats) in Benchmark::ALL.iter().zip(per_bench) {
            for (cfg, s) in missing.iter().zip(stats) {
                fresh.cell(cfg, b, s);
                known.insert((cfg.cache_key(), b.name().to_string()), s);
            }
        }
        append(&path, &fresh.0)?;
    }
    for cfg in &configs {
        for b in Benchmark::ALL {
            out.cell(cfg, b, known[&(cfg.cache_key(), b.name().to_string())]);
        }
    }
    Ok(())
}

/// Maps `f` over `items` on all cores with plain scoped threads (not the
/// engine's pool, which the reference must not depend on), in order.
fn fold_in_parallel<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker panicked"))
            .collect()
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Appends `text` to `path`, creating it and its directory.
fn append(path: &Path, text: &str) -> Result<(), String> {
    use std::io::Write as _;
    let dir = path.parent().expect("reference files live in a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Drains `source` chunk by chunk, returning the indirect events read.
fn drain(source: &mut dyn EventSource) -> Result<u64, String> {
    let mut chunk = TraceChunk::default();
    let mut events = 0;
    loop {
        let more = source
            .fill(&mut chunk, chunk_events())
            .map_err(|e| e.to_string())?;
        events += black_box(chunk.indirect_count());
        if !more {
            return Ok(events);
        }
    }
}

/// The traced per-layer measurements, all on this one thread: generation,
/// IBPB encode / verify / decode and the `core.*` kernel families per
/// benchmark, then every cell of the workload folded alone through
/// `simulate_kernel` (the engine's utilisation numerator; its results are
/// checked like any other cell).
fn layers(args: &ChildArgs, out: &mut Out) -> Result<(), String> {
    let mut tr = Tracer::new();
    let families = core_families();
    let codec = tr.enter("layers.codec_and_core");
    for b in Benchmark::ALL {
        let events = args.events;
        tr.time("workload.gen", || (drain(&mut b.source(events)), events))?;
        let trace = b.trace_with_len(events);
        let mut sink = Cursor::new(Vec::new());
        tr.time("trace.encode", || {
            (write_binary_source(&mut trace.cursor(), &mut sink), events)
        })
        .map_err(|e| e.to_string())?;
        let bytes = sink.into_inner();
        let len = bytes.len() as u64;
        tr.time("trace.verify", || (verify_binary(&bytes[..]), len))
            .map_err(|e| e.to_string())?;
        tr.time("trace.decode", || {
            let decoded = BinarySource::new(&bytes[..])
                .map_err(|e| e.to_string())
                .and_then(|mut src| drain(&mut src));
            (decoded, events)
        })?;
        drop(bytes);

        let mut chunks = Vec::new();
        let mut cursor = trace.cursor();
        loop {
            let mut chunk = TraceChunk::default();
            let more = cursor
                .fill(&mut chunk, chunk_events())
                .map_err(|e| e.to_string())?;
            chunks.push(chunk);
            if !more {
                break;
            }
        }
        for (name, cfg) in &families {
            tr.time(&format!("core.{name}"), || {
                let mut kernel = cfg.build_kernel();
                let mut scorer = ChunkScorer::new(0);
                for chunk in &chunks {
                    kernel.fold_chunk(chunk.events(), &mut scorer);
                }
                black_box((scorer.indirect(), scorer.mispredicted()));
                ((), events)
            });
        }
    }
    tr.exit(codec, 0);

    let util = tr.enter("layers.engine_cells");
    let suite = tr.time("suite.setup", || (setup(args), 0));
    for cfg in args.workload.configs(args.seed) {
        for b in suite.benchmarks() {
            let stats = tr.time("engine.cell", || {
                let mut kernel = cfg.build_kernel();
                let stats = simulate_kernel(&mut *suite.source(b), &mut kernel, 0);
                (stats, args.events)
            });
            out.cell(&cfg, b, stats.map_err(|e| e.to_string())?);
        }
    }
    tr.exit(util, 0);
    out.spans(tr.spans());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_the_line_protocol() {
        let mut out = Out::default();
        out.metric("setup_s", 0.25);
        let cfg = PredictorConfig::btb_2bc();
        out.cell(
            &cfg,
            Benchmark::Ixx,
            RunStats {
                indirect: 10,
                mispredicted: 3,
            },
        );
        let spans = vec![
            Span {
                name: "a".into(),
                start_ns: 0,
                end_ns: 9,
                parent: None,
                work: 1,
            },
            Span {
                name: "b".into(),
                start_ns: 1,
                end_ns: 2,
                parent: Some(0),
                work: 5,
            },
        ];
        out.spans(&spans);
        let report = Report::parse(&out.0).unwrap();
        assert_eq!(report.metric("setup_s"), Ok(0.25));
        assert_eq!(report.cells[0].key, cfg.cache_key());
        assert_eq!(report.cells[0].stats.mispredicted, 3);
        assert_eq!(report.spans, spans);
        assert!(Report::parse("c\tonly-two").is_err());
    }
}
