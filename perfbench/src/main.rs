//! The Hypernel simulator's performance benchmark.
//!
//! ```text
//! hypernel-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`campaign-corpus`, `untar-monitored` or
//! `table1-3mode`) for about `--seconds` of host time, checks its
//! outputs, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones. See `README.md` beside this package for the definitions.

#![forbid(unsafe_code)]

mod campaign;
mod layers;
mod report;
mod table1;
mod untar;

use std::process::ExitCode;

const USAGE: &str =
    "usage: hypernel-perfbench --workload <campaign-corpus|untar-monitored|table1-3mode> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for `{flag}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "campaign-corpus" => campaign::run,
        "untar-monitored" => untar::run,
        "table1-3mode" => table1::run,
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let mut outcome = run(args.seed, args.seconds, args.traced);
    println!("{}", outcome.result_line(args.traced));
    ExitCode::SUCCESS
}
