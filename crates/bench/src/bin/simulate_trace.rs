//! Simulate any predictor over an external trace file.
//!
//! This is the bridge to real trace-generation tools: dump your program's
//! indirect branches in the IBPT text format (see `ibp_trace::io`) from
//! Pin/DynamoRIO/QEMU/gem5/ChampSim, then:
//!
//! ```text
//! simulate_trace trace.ibpt --predictor practical --path 3 --entries 1024 --ways 4
//! simulate_trace trace.ibpt --predictor hybrid --path 5 --path2 1 --entries 4096
//! simulate_trace trace.ibpt --predictor btb2bc --per-site
//! simulate_trace trace.ibpt --sweep            # path-length sweep
//! ```
//!
//! With `--classify`, mispredictions are broken down into wrong-target /
//! capacity / cold classes (hybrids, which have no single table key, into
//! wrong-target / no-entry). One attributed pass of the configured
//! predictor feeds the misprediction line, `--classify` and `--per-site`.
//!
//! The trace file is never materialised: every pass streams it through a
//! chunked [`TextSource`], so arbitrarily long traces simulate in constant
//! memory (multi-pass modes like `--sweep` re-read the file).
//!
//! Both trace formats are accepted and auto-detected by magic bytes: the
//! IBPT text format and the IBPB binary segment format that
//! `export_trace --binary` and the trace corpus cache produce.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::process::ExitCode;

use ibp_core::{Associativity, PredictorConfig};
use ibp_sim::{simulate_attributed, simulate_kernel};
use ibp_trace::io::TextSource;
use ibp_trace::{looks_binary, Addr, BinarySource, EventSource, TraceStats};

struct Args {
    trace: String,
    predictor: String,
    path: usize,
    path2: usize,
    entries: Option<usize>,
    ways: String,
    per_site: bool,
    classify: bool,
    sweep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trace: String::new(),
        predictor: "practical".to_string(),
        path: 3,
        path2: 1,
        entries: Some(1024),
        ways: "4".to_string(),
        per_site: false,
        classify: false,
        sweep: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--predictor" => args.predictor = value("--predictor")?,
            "--path" => {
                args.path = value("--path")?
                    .parse()
                    .map_err(|_| "bad --path".to_string())?;
            }
            "--path2" => {
                args.path2 = value("--path2")?
                    .parse()
                    .map_err(|_| "bad --path2".to_string())?;
            }
            "--entries" => {
                let v = value("--entries")?;
                args.entries = if v == "unbounded" {
                    None
                } else {
                    Some(v.parse().map_err(|_| "bad --entries".to_string())?)
                };
            }
            "--ways" => args.ways = value("--ways")?,
            "--per-site" => args.per_site = true,
            "--classify" => args.classify = true,
            "--sweep" => args.sweep = true,
            "--help" | "-h" => return Err("help".to_string()),
            other if args.trace.is_empty() && !other.starts_with('-') => {
                args.trace = other.to_string();
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_empty() {
        return Err("no trace file given".to_string());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: simulate_trace <trace.ibpt|trace.ibpb> [options]\n\
         \n\
         options:\n\
           --predictor <btb|btb2bc|unconstrained|practical|tagless|fullassoc|hybrid>\n\
           --path <N>         path length (default 3)\n\
           --path2 <N>        second path length for hybrids (default 1)\n\
           --entries <N|unbounded>  table entries (default 1024; hybrids: per component)\n\
           --ways <N|full|tagless>  set associativity (default 4)\n\
           --per-site         print the ten worst-predicted sites\n\
           --classify         break misses into wrong-target/capacity/cold (hybrids: no-entry)\n\
           --sweep            run a path-length sweep instead of one config"
    );
}

fn build(args: &Args) -> Result<PredictorConfig, String> {
    let assoc = match args.ways.as_str() {
        "tagless" => Associativity::Tagless,
        "full" => Associativity::Full,
        n => Associativity::Ways(n.parse().map_err(|_| "bad --ways".to_string())?),
    };
    let cfg = match args.predictor.as_str() {
        "btb" => PredictorConfig::btb(),
        "btb2bc" => PredictorConfig::btb_2bc(),
        "unconstrained" => PredictorConfig::unconstrained(args.path),
        "practical" => PredictorConfig::compressed_unbounded(args.path).with_associativity(assoc),
        "tagless" => PredictorConfig::compressed_unbounded(args.path)
            .with_associativity(Associativity::Tagless),
        "fullassoc" => {
            PredictorConfig::compressed_unbounded(args.path).with_associativity(Associativity::Full)
        }
        "hybrid" => {
            let mut c =
                PredictorConfig::hybrid(args.path, args.path2, 1, 1).with_associativity(assoc);
            if let Some(n) = args.entries {
                c = c.with_entries(n);
            }
            return Ok(c);
        }
        other => return Err(format!("unknown predictor {other}")),
    };
    Ok(match args.entries {
        Some(n) if args.predictor != "btb" && args.predictor != "btb2bc" => cfg.with_entries(n),
        Some(n) if args.predictor.starts_with("btb") => PredictorConfig::btb_bounded(n)
            .with_update_rule(if args.predictor == "btb" {
                ibp_core::UpdateRule::Always
            } else {
                ibp_core::UpdateRule::TwoBitCounter
            }),
        _ => cfg,
    })
}

/// Opens one streaming pass over the trace file (header and metadata
/// prologue already consumed), sniffing the magic bytes to pick the
/// text (IBPT) or binary (IBPB) decoder.
fn open(path: &str) -> Result<Box<dyn EventSource>, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut magic = [0u8; 4];
    let got = file
        .read(&mut magic)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    file.seek(SeekFrom::Start(0))
        .map_err(|e| format!("cannot rewind {path}: {e}"))?;
    if looks_binary(&magic[..got]) {
        Ok(Box::new(BinarySource::new(file).map_err(|e| e.to_string())?))
    } else {
        Ok(Box::new(TextSource::new(file).map_err(|e| e.to_string())?))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    // First pass: name and summary statistics, streamed.
    let (name, stats) = match open(&args.trace).and_then(|mut src| {
        let name = src.name().to_string();
        TraceStats::from_source(&mut *src)
            .map(|stats| (name, stats))
            .map_err(|e| e.to_string())
    }) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "trace {:?}: {} indirect branches, {} sites",
        name, stats.indirect_branches, stats.distinct_sites
    );

    if args.sweep {
        println!("\n{:>3} {:>12}", "p", "mispredict");
        for p in 0..=12usize {
            let sweep_args = Args {
                path: p,
                predictor: "practical".to_string(),
                trace: args.trace.clone(),
                ways: args.ways.clone(),
                ..args
            };
            let mut kernel = build(&sweep_args).expect("sweep config").build_kernel();
            let run = open(&args.trace)
                .and_then(|mut src| {
                    simulate_kernel(&mut *src, &mut kernel, 0).map_err(|e| e.to_string())
                })
                .expect("sweep pass");
            println!("{p:>3} {:>11.2}%", run.misprediction_rate() * 100.0);
        }
        return ExitCode::SUCCESS;
    }

    let mut kernel = match build(&args) {
        Ok(c) => c.build_kernel(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("predictor: {}", kernel.as_predictor().name());
    let (run, attribution) = match open(&args.trace).and_then(|mut src| {
        simulate_attributed(&mut *src, &mut kernel, 0).map_err(|e| e.to_string())
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "misprediction: {:.2}% ({} of {})",
        run.misprediction_rate() * 100.0,
        run.mispredicted,
        run.indirect
    );

    if args.classify {
        let a = &attribution;
        let pct = |count: u64| a.share(count) * 100.0;
        // The cold/capacity split covers every no-entry miss exactly when
        // the predictor exposes a key fingerprint (hybrids do not).
        if a.cold + a.capacity == a.no_entry {
            println!(
                "breakdown: wrong-target {:.2}%, capacity {:.2}%, cold {:.2}%",
                pct(a.wrong_target),
                pct(a.capacity),
                pct(a.cold)
            );
        } else {
            println!(
                "breakdown: wrong-target {:.2}%, no-entry {:.2}%",
                pct(a.wrong_target),
                pct(a.no_entry)
            );
        }
    }

    if args.per_site {
        println!("\nworst-predicted sites:");
        for (pc, misses) in attribution.top_sites(10) {
            let pc = Addr::new(pc);
            let executions = stats
                .sites
                .iter()
                .find(|s| s.pc == pc)
                .map_or(0, |s| s.executions);
            println!(
                "  {}  {:>8} execs  {:>8} misses  {:>6.2}%",
                pc,
                executions,
                misses.total(),
                misses.total() as f64 / executions.max(1) as f64 * 100.0
            );
        }
    }
    ExitCode::SUCCESS
}
