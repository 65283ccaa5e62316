use std::process::ExitCode;

use ibp_perfbench::bench::{self, Options, USAGE};
use ibp_perfbench::child::{self, ChildArgs};
use ibp_perfbench::workloads::Workload;

/// `child <role> --workload <w> --seed <n> --events <n> --work <dir>`:
/// the form in which the benchmark re-executes its own binary.
fn child_main(args: &[String]) -> Result<(), String> {
    let (role, rest) = args.split_first().ok_or("child needs a role")?;
    let value = |flag: &str| -> Result<&str, String> {
        rest.iter()
            .position(|a| a == flag)
            .and_then(|i| rest.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("child {role} needs {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("bad {flag}"))
    };
    let args = ChildArgs {
        workload: Workload::from_name(value("--workload")?).ok_or("unknown workload")?,
        seed: number("--seed")?,
        events: number("--events")?,
        work: value("--work")?.into(),
    };
    child::run(role, &args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return match child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ibp-perfbench child: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ibp-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench::run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.table);
            println!("record {}", outcome.record);
            println!("{}", outcome.result);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("ibp-perfbench: cells differ from the reference; see the record above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ibp-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
