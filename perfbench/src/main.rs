//! Command line of the EEVFS benchmark.
//!
//! ```text
//! eevfs-perfbench --workload <paper-grid|sim-replay|loopback> --seed <n>
//!                 --seconds <s> --trace <0|1> [--scratch <dir>] [--tiny]
//! ```
//!
//! Prints the result as one JSON object on the last line of standard
//! output. Exits 1 without a result on an operational failure, and 1
//! after printing `"correct": false` when a correctness check fails.

use eevfs_perfbench::{run, Options, Size, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::PaperGrid,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::FULL,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            opts.size = Size::TINY;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scratch" => opts.scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", opts.seconds));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = outcome.metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    for m in &outcome.metrics.0 {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for violation in &outcome.violations {
        eprintln!("perfbench: CHECK FAILED: {violation}");
    }
    println!("{}", outcome.to_json_line());
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
