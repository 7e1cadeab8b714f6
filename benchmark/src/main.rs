//! `rpcv-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! [--quick] [--out DIR]`, or `--manifest` / `--describe` to print
//! `BENCHMARK.json` / the README's metric tables from the catalogue.
//!
//! Prints every metric as `workload  name  value  unit`, then — as the last
//! line of standard output — the result object the driver reads.  Exits
//! non-zero when a correctness check fails.

use std::process::ExitCode;

use rpcv_benchmark::{execute, metrics, Options};

fn usage() -> ExitCode {
    eprintln!(
        "usage: rpcv-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] \
         [--out DIR] | --manifest | --describe"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--manifest" => {
                print!("{}", metrics::manifest_json());
                return ExitCode::SUCCESS;
            }
            "--describe" => {
                print!("{}", metrics::describe_markdown());
                return ExitCode::SUCCESS;
            }
            "--quick" => {
                opts.quick = true;
                continue;
            }
            _ => {}
        }
        let Some(value) = args.next() else { return usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                opts.workload = value;
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| opts.seconds = v).is_ok(),
            "--trace" => {
                opts.trace = value == "1";
                value == "0" || value == "1"
            }
            "--out" => {
                opts.out = Some(value.into());
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    if opts.workload.is_empty() {
        return usage();
    }
    match execute(&opts) {
        Ok(outcome) => {
            for (m, v) in &outcome.metrics {
                println!("{}  {}  {}  {}", opts.workload, m.name, v, m.unit);
            }
            for violation in &outcome.violations {
                eprintln!("FAILED CHECK: {violation}");
            }
            println!("{}", outcome.result_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
