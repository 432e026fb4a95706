//! `bitempo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints every metric by name with its unit, then one
//! JSON result line. `--noise <sets> <runs>` is the repeatability study,
//! `--print-manifest` renders `BENCHMARK.json`, `--smoke` shrinks a run for
//! the tests.

use bitempo_benchmark::{manifest, measure, noise, run, RunArgs};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bitempo-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke]\n       bitempo-benchmark --noise <sets> <runs> [--seconds <s>] [--workload <name>]\n       bitempo-benchmark --print-manifest",
        manifest::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn number<'a>(it: &mut impl Iterator<Item = &'a String>) -> Option<u64> {
    it.next().and_then(|v| v.parse().ok())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut noise_study = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => match it.next() {
                Some(w) => args.workload = w.clone(),
                None => return usage(),
            },
            "--seed" => match number(&mut it) {
                Some(n) => args.seed = n,
                None => return usage(),
            },
            "--seconds" => match number(&mut it) {
                Some(n) if n >= 1 => args.seconds = n,
                _ => return usage(),
            },
            // `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--noise" => match (number(&mut it), number(&mut it)) {
                (Some(sets), Some(runs)) if sets >= 1 && runs >= 1 => {
                    noise_study = Some((sets as usize, runs as usize))
                }
                _ => return usage(),
            },
            "--print-manifest" => {
                print!("{}", manifest::manifest_json());
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    if let Some((sets, runs)) = noise_study {
        return match noise::study(sets, runs, args.seconds, &args.workload) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("noise study failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if !manifest::WORKLOADS.iter().any(|w| w.name == args.workload) {
        return usage();
    }
    // Timings of an unoptimized build say nothing about the program.
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("refusing to measure a debug build: use `cargo run --release` (or --smoke)");
        return ExitCode::from(2);
    }

    println!(
        "workload {} seed {} seconds {} trace {} ({} hardware threads)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let in_result_line = manifest::result_line_metrics(args.trace);
    for m in &manifest::printed(args.trace) {
        let note = if m.applies(&args.workload) == manifest::Applies::No {
            " (does not apply to this workload)"
        } else if in_result_line.iter().any(|r| r.name == m.name) {
            ""
        } else {
            " (demoted: no bound, not in the result line)"
        };
        println!("metric {} = {} {}{note}", m.name, out.printed(m), m.unit);
    }
    println!("ops_attempted {} ops_failed {}", out.attempted, out.failed);
    for why in &out.failures {
        println!("failure: {why}");
    }
    println!("{}", measure::result_line(&out, &in_result_line));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
