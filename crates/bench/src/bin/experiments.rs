//! The experiment driver: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <id>                 run one experiment (ids: `experiments list`)
//! experiments run-all              run every experiment in registry order
//! experiments list                 list experiment ids
//! options:
//!   --h <f>        TPC-H scale factor (default 0.002)
//!   --m <f>        history scale (default 0.002)
//!   --out <path>   write markdown to a file instead of stdout
//! ```
//!
//! A missing or malformed option value, an unknown option or a second
//! command prints the usage and exits 2; an unknown id or a failed
//! experiment exits 1.

use bitempo_bench::experiments::{run_experiment, EXPERIMENTS};
use bitempo_bench::BenchConfig;

/// The command, the configuration and the output path `args` ask for, or
/// `None` when they are not well formed.
fn parse(args: &[String]) -> Option<(String, BenchConfig, Option<String>)> {
    // A scale factor: a finite number above zero.
    let scale = |v: Option<&String>| v?.parse().ok().filter(|f: &f64| f.is_finite() && *f > 0.0);
    let mut cfg = BenchConfig::default_scale();
    let (mut command, mut out_path) = (None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--h" => cfg.h = scale(args.next())?,
            "--m" => cfg.m = scale(args.next())?,
            "--out" => out_path = Some(args.next()?.clone()),
            flag if flag.starts_with("--") => return None,
            id if command.is_none() => command = Some(id.to_string()),
            _ => return None,
        }
    }
    Some((command?, cfg, out_path))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, cfg, out_path)) = parse(&args) else {
        eprintln!(
            "usage: experiments <id|run-all|list> [--h <f>] [--m <f>] [--out <path>]\nids: {}",
            EXPERIMENTS.map(|(id, _)| id).join(" ")
        );
        std::process::exit(2);
    };

    let ids: Vec<&str> = match command.as_str() {
        "list" => {
            for (id, _) in EXPERIMENTS {
                println!("{id}");
            }
            return;
        }
        "run-all" => EXPERIMENTS.map(|(id, _)| id).to_vec(),
        id => vec![id],
    };

    let mut output = format!(
        "# TPC-BiH measured results (h = {}, m = {})\n\n",
        cfg.h, cfg.m
    );
    for id in ids {
        eprintln!("running {id} ...");
        match run_experiment(id, &cfg) {
            Ok(report) => output.push_str(&report.to_markdown()),
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    match out_path {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(&path).parent() {
                std::fs::create_dir_all(parent).expect("create output directory");
            }
            std::fs::write(&path, output).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => print!("{output}"),
    }
}
