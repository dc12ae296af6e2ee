//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric as `name value unit`, any failed check, and as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Exits 1 when a check failed and 2 on bad arguments.

use std::process::ExitCode;

use perfbench::bench::{self, Args, EXTRA_WORKLOADS, WORKLOADS};

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known: Vec<&str> = WORKLOADS.iter().chain(&EXTRA_WORKLOADS).copied().collect();
    if !known.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", known.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|"),
                EXTRA_WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = bench::run(&args).expect("workload names are validated");
    println!(
        "workload {} seed {} trace {} repetitions {}",
        args.workload, args.seed, args.trace as u8, report.passes
    );
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{:32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for b in &report.boundaries {
        println!("boundary {b}");
    }
    for a in &report.advisories {
        println!("ADVISORY {a}");
    }
    for f in &report.checks.failures {
        println!("FAILED {f}");
    }
    println!("{}", bench::result_json(&report));
    if report.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
