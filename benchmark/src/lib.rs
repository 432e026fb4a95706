//! The repo benchmark: four workloads over the bitemporal stack, measured
//! from outside the crates by timing calls into their public functions.
//! See `README.md` for the definitions and `../BENCHMARK.json` for the
//! declared metrics.
//!
//! Module -> layer: [`query`] drives `dbgen`, `histgen`, `engine` (and
//! through it `storage`, `tindex`), `query`/`workloads`; [`serve`] and
//! [`probes`] drive `engine`, `wal`, `txn`, `shard`; [`trace`] records the
//! traced run's spans and [`layers`] reads per-layer numbers off them;
//! [`measure`] reduces latencies to the end-to-end metrics; [`manifest`]
//! declares everything; [`noise`] is the repeatability study.

pub mod layers;
pub mod manifest;
pub mod measure;
pub mod noise;
pub mod probes;
pub mod query;
pub mod serve;
pub mod stats;
pub mod trace;

use bitempo_core::{Error, Result};
use measure::Outcome;
use std::path::PathBuf;

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    /// The op stream is a pure function of this.
    pub seed: u64,
    /// Selects the amount of (fixed) work: rounds = rounds-per-second x seconds.
    pub seconds: u64,
    /// The traced run: 1 client, per-layer metrics, chrome-trace file.
    pub trace: bool,
    /// Tiny data and 3 rounds, for the tests.
    pub smoke: bool,
}

/// The benchmark's directory: where `cargo run` says the manifest is, else
/// where it was when this was compiled.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// This process's scratch directory for WAL files, created empty.
pub fn tmp_dir() -> Result<PathBuf> {
    let dir = bench_dir()
        .join("target/bench_tmp")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Removes this process's scratch directory.
pub fn clean_tmp() {
    let dir = bench_dir().join("target/bench_tmp");
    let _ = std::fs::remove_dir_all(dir.join(std::process::id().to_string()));
    // Gone too once the last concurrent run has left.
    let _ = std::fs::remove_dir(dir);
}

/// Writes `results/<workload>.trace.json`.
pub fn write_trace(workload: &str, spans: &[trace::Span], ops_per_cell: usize) -> Result<()> {
    let dir = bench_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    let written = trace::write_chrome_trace(&path, spans, ops_per_cell)?;
    println!(
        "trace: wrote {written} of {} spans (first {ops_per_cell} ops per cell) to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}

/// Runs one workload and returns what it measured. `Err` means the run
/// could not complete; wrong answers and metrics that break what the
/// manifest declares for the workload are counted in the outcome.
pub fn run(args: &RunArgs) -> Result<Outcome> {
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        manifest::QUERY_SCAN | manifest::QUERY_INDEX => query::run(args, &mut out),
        manifest::SERVE_TXN | manifest::SERVE_SHARDED => serve::run(args, &mut out),
        other => Err(Error::Invalid(format!("unknown workload `{other}`"))),
    };
    clean_tmp();
    result?;
    out.set("peak_rss_mib", measure::peak_rss_mib());
    out.check_declared(&args.workload, &manifest::printed(args.trace));
    Ok(out)
}
