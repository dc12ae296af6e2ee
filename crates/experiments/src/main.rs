//! Command-line entry point for regenerating the paper's tables and figures,
//! and for the parallel scenario-sweep benchmark.
//!
//! ```text
//! nimbus-experiments <experiment...|all|list> [--quick] [--out DIR]
//! nimbus-experiments sweep [--quick] [--threads N] [--out PATH] [--timings PATH] [--scheme SPEC]... [--ecn SPEC]
//! nimbus-experiments sweep-check --baseline PATH --current PATH [--threshold FRAC]
//! ```
//!
//! `--scheme` takes a [`SchemeSpec`](nimbus_experiments::SchemeSpec) string
//! — a bare CCA (`cubic`, `constant(24M)`) or a Nimbus wrapper composition
//! (`nimbus(competitive=reno,delay=copa,mu=learned)`) — and may be repeated
//! to replace the sweep's scheme axis.  `--ecn` takes an
//! [`EcnSpec`](nimbus_experiments::EcnSpec) string (`off`, `classic`,
//! `l4s`, `step(<duration>)`) and runs every cell with that marking
//! profile on the primary bottleneck.
//!
//! `sweep-check` fails (exit 1) when any cell's events/sec regressed more
//! than the threshold (default 0.3 = 30%) versus the baseline, unless the
//! `SWEEP_REGRESSION_OK` environment variable is set (for intentional
//! changes that re-baseline).

use nimbus_experiments::{
    run_experiment, EcnSpec, ExperimentResult, SchemeSpec, SweepConfig, ALL_EXPERIMENTS,
    SCHEME_GRAMMAR,
};
use std::path::PathBuf;

fn run_sweep_command(args: &[String]) -> ! {
    let mut cfg = SweepConfig {
        quick: args.iter().any(|a| a == "--quick"),
        ..SweepConfig::default()
    };
    // A flag present without its value operand is an error, not a silent no-op.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n > 0 => cfg.threads = Some(n),
            _ => {
                eprintln!(
                    "invalid or missing --threads value: {}",
                    args.get(i + 1).map(String::as_str).unwrap_or("<none>")
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--out") {
        match args.get(i + 1) {
            Some(out) => cfg.out = PathBuf::from(out),
            None => {
                eprintln!("--out requires a path");
                std::process::exit(2);
            }
        }
    }
    // Optional per-cell wall-time dump in flamegraph folded-stack format.
    let timings_path = match args.iter().position(|a| a == "--timings") {
        Some(i) => match args.get(i + 1) {
            Some(p) => Some(PathBuf::from(p)),
            None => {
                eprintln!("--timings requires a path");
                std::process::exit(2);
            }
        },
        None => None,
    };
    // Repeated `--scheme SPEC` flags replace the matrix's scheme axis.
    let mut schemes: Vec<SchemeSpec> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--scheme" {
            match args.get(i + 1) {
                Some(text) => match text.parse::<SchemeSpec>() {
                    Ok(spec) => schemes.push(spec),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                },
                None => {
                    eprintln!("--scheme requires a spec string, e.g. 'nimbus(competitive=reno)'");
                    std::process::exit(2);
                }
            }
        }
    }
    if !schemes.is_empty() {
        cfg.schemes = Some(schemes);
    }
    if let Some(i) = args.iter().position(|a| a == "--ecn") {
        match args.get(i + 1).map(|v| v.parse::<EcnSpec>()) {
            Some(Ok(ecn)) => cfg.ecn = Some(ecn),
            Some(Err(e)) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
            None => {
                eprintln!("--ecn requires a marking spec: off, classic, l4s, or step(<duration>)");
                std::process::exit(2);
            }
        }
    }
    match nimbus_experiments::run_sweep(&cfg) {
        Ok(report) => {
            println!("{}", nimbus_experiments::sweep::report_table(&report));
            println!("wrote {}", cfg.out.display());
            if let Some(path) = timings_path {
                let folded = nimbus_experiments::sweep::folded_timings(&report);
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    if let Err(e) = std::fs::create_dir_all(parent) {
                        eprintln!("cannot create {}: {e}", parent.display());
                        std::process::exit(1);
                    }
                }
                match std::fs::write(&path, folded) {
                    Ok(()) => println!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("cannot write {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_sweep_check_command(args: &[String]) -> ! {
    let arg_value = |flag: &str| -> Option<&String> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        })
    };
    let baseline_path = PathBuf::from(
        arg_value("--baseline")
            .map(String::as_str)
            .unwrap_or("BENCH_sweep.json"),
    );
    let Some(current_path) = arg_value("--current").map(PathBuf::from) else {
        eprintln!("sweep-check requires --current PATH (a freshly written sweep report)");
        std::process::exit(2);
    };
    let threshold = match arg_value("--threshold") {
        Some(v) => {
            let t = v.parse::<f64>().unwrap_or(f64::NAN);
            // A fraction, not a percentage: `--threshold 30` would make the
            // gate silently unsatisfiable (ratio < 1 - 30), so reject it.
            if !(t > 0.0 && t < 1.0) {
                eprintln!("invalid --threshold {v}: expected a fraction in (0, 1), e.g. 0.3 = 30%");
                std::process::exit(2);
            }
            t
        }
        None => 0.3,
    };
    let read = |path: &PathBuf| {
        nimbus_experiments::sweep::read_report(path).unwrap_or_else(|e| {
            eprintln!("cannot read sweep report {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let baseline = read(&baseline_path);
    let current = read(&current_path);
    // Always show the full comparison, worst cell first: when a regression
    // does appear later, the trail starts in this CI log, not in the JSON.
    print!(
        "{}",
        nimbus_experiments::sweep::ratio_table(&baseline, &current)
    );
    let regressions = nimbus_experiments::sweep::perf_regressions(&baseline, &current, threshold);
    if regressions.is_empty() {
        println!(
            "sweep-check ok: no cell regressed more than {:.0}% vs {}",
            threshold * 100.0,
            baseline_path.display()
        );
        std::process::exit(0);
    }
    eprintln!(
        "sweep-check: {} cell(s) regressed more than {:.0}% vs {}:",
        regressions.len(),
        threshold * 100.0,
        baseline_path.display()
    );
    for r in &regressions {
        eprintln!("  {r}");
    }
    if std::env::var_os("SWEEP_REGRESSION_OK").is_some() {
        eprintln!("SWEEP_REGRESSION_OK set: accepting the regression (re-baseline intended)");
        std::process::exit(0);
    }
    eprintln!("set SWEEP_REGRESSION_OK=1 to accept an intentional change");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: nimbus-experiments <experiment...|all|list> [--quick] [--out DIR]");
        eprintln!(
            "       nimbus-experiments sweep [--quick] [--threads N] [--out PATH] [--timings PATH] [--scheme SPEC]... [--ecn SPEC]"
        );
        eprintln!(
            "       nimbus-experiments sweep-check --baseline PATH --current PATH [--threshold FRAC]"
        );
        eprintln!("scheme specs:");
        for line in SCHEME_GRAMMAR.lines() {
            eprintln!("  {line}");
        }
        eprintln!("ecn specs: off, classic, l4s, step(<duration>) e.g. step(5ms)");
        eprintln!("experiments: {}", ALL_EXPERIMENTS.join(", "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let name = args[0].clone();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(ExperimentResult::default_output_dir);

    if name == "sweep" {
        run_sweep_command(&args[1..]);
    }

    if name == "sweep-check" {
        run_sweep_check_command(&args[1..]);
    }

    if name == "list" {
        for e in ALL_EXPERIMENTS {
            println!("{e}");
        }
        return;
    }

    // Every leading non-flag argument is an experiment name, so one
    // invocation can regenerate a family: `l4s_pulse l4s_coexistence --quick`.
    let names: Vec<&str> = {
        let mut names = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {}
                "--out" => i += 1,
                a if a.starts_with("--") => {
                    eprintln!("unknown flag: {a}");
                    std::process::exit(2);
                }
                a => names.push(a),
            }
            i += 1;
        }
        names
    };
    let to_run: Vec<&str> = if names.contains(&"all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        names
    };

    let mut failed = false;
    for exp in to_run {
        let started = std::time::Instant::now();
        match run_experiment(exp, quick) {
            Some(result) => {
                println!("{}", result.to_table());
                match result.write_json(&out_dir) {
                    Ok(path) => println!("wrote {}", path.display()),
                    Err(e) => eprintln!("warning: could not write JSON for {exp}: {e}"),
                }
                if let Err(e) = result.write_csv(&out_dir) {
                    eprintln!("warning: could not write CSV for {exp}: {e}");
                }
                println!(
                    "({exp} finished in {:.1} s)\n",
                    started.elapsed().as_secs_f64()
                );
            }
            None => {
                eprintln!("unknown experiment: {exp}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
