//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON line: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! nonzero when a correctness gate fails or an operation failed.
//! `--emit benchmark|catalog` prints the generated `BENCHMARK.json` or
//! `catalog.json` instead.

use std::process::ExitCode;
use tensordash_perfbench::{catalog, run, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::new("");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, what] = args.as_slice() {
        if flag == "--emit" {
            match what.as_str() {
                "benchmark" => print!("{}", catalog::benchmark_json()),
                "catalog" => print!("{}", catalog::catalog_json()),
                other => {
                    eprintln!("perfbench: --emit takes benchmark or catalog, not `{other}`");
                    return ExitCode::from(2);
                }
            }
            return ExitCode::SUCCESS;
        }
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.human());
            println!("{}", outcome.json_line(opts.trace));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
