//! Command-line entry of the end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! Prints one `name = value unit` line per metric, then the result object
//! as the last line of standard output. Exits 1 when any run fails the
//! correctness gate and 2 on a usage error.

use perfbench::{Config, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <cold-large|warm-batch|gossip|sweep-small> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke";

fn parse(args: &[String]) -> Result<Option<Config>, String> {
    if args == ["--smoke"] {
        return Ok(None);
    }
    let mut cfg = Config {
        workload: Workload::ColdLarge,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(Some(cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            return match perfbench::smoke(1) {
                Ok(()) => {
                    println!("smoke ok: every workload passed its gate and emitted every metric");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("smoke failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.context {
        println!("# {line}");
    }
    for failure in &outcome.failures {
        eprintln!("FAIL {failure}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
