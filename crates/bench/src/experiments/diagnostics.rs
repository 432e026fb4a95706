//! Extension reports that are not paper artifacts: morsel-parallel scan
//! `scaling`, `faults` injected layer by layer, and the traced `explain`.

use super::{cell, grid, ALL};
use crate::report::FigureReport;
use crate::runner::{BenchConfig, Instance};
use bitempo_core::fault::{FaultKind, FaultPlan, FaultyReader};
use bitempo_core::obs::{self, TraceLog};
use bitempo_core::{Error, Result};
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::SystemKind;
use bitempo_histgen::{read_archive_with_retry, Archive};
use bitempo_workloads::{bitemporal, key, range, tpch, tt, Ctx};

/// Morsel-parallel scan scaling: the full-history scan (T5 All Versions)
/// per engine at 1, 2, and 4 scan workers over the *same* loaded instance.
/// Not a paper artifact — the paper's systems were measured single-threaded
/// (§5.1); this report shows what the archetypes gain from intra-query
/// parallelism while returning bit-identical results.
pub fn scaling(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut report = FigureReport::new(
        "scaling",
        "Morsel-Parallel Scan Scaling (Full-History Scans)",
        "µs",
    );
    // Two full-history scans per engine: T5 (ORDERS, the paper's yardstick)
    // and the same scan over LINEITEM — the largest table, where the
    // per-scan dispatch cost is best amortized. Timings only: the access
    // paths are the same at every worker count.
    let untraced = cfg.with_trace(false);
    for w in [1, 2, 4] {
        inst.workers = w;
        inst.retune(&TuningConfig::none())?;
        let plural = if w == 1 { "" } else { "s" };
        let cells = [
            cell(format!("ORDERS, {w} worker{plural}"), |c, _| tt::t5_all(c)),
            cell(format!("LINEITEM, {w} worker{plural}"), |c, _| {
                c.scan(c.t.lineitem, &SysSpec::All, &AppSpec::All, &[])
            }),
        ];
        grid(&untraced, &inst, &mut report, ALL, "", &cells)?;
    }
    let speedups: Vec<String> = report
        .series
        .iter()
        .map(|s| {
            let lineitem = s.points.iter().filter(|(x, _)| x.starts_with("LINEITEM"));
            let micros: Vec<f64> = lineitem.map(|(_, us)| *us).collect();
            let last = micros.last().expect("one median per worker count");
            format!("{} {:.2}x", s.label, micros[0] / last.max(1e-9))
        })
        .collect();
    // Per-scan work counters for the biggest table, straight from ScanOutput.
    let engine = inst.engine(SystemKind::A);
    let lineitem = engine.resolve("lineitem")?;
    let out = engine.scan(lineitem, &SysSpec::All, &AppSpec::All, &[])?;
    report.note(format!(
        "Host available_parallelism = {}. LINEITEM full-history speedup at 4 workers \
         over 1 worker: {} (bounded by the host core count; on a single-core host \
         the expected value is ~1.0x and any shortfall is pure dispatch overhead). Results \
         are identical at every worker count (morsel-order merge). System A LINEITEM \
         full-history scan: {} morsels, {} versions visited, {} pruned, {} index probes.",
        bitempo_engine::api::default_workers(),
        speedups.join(", "),
        out.metrics.morsels,
        out.metrics.rows_visited,
        out.metrics.versions_pruned,
        out.metrics.index_probes,
    ));
    Ok(report)
}

/// Fault-injection scenario report (not a paper artifact): exercises the
/// hardened pipeline end to end. Layer 1 corrupts a serialized generator
/// archive and shows the checksummed v2 reader detecting it, then recovers
/// a transiently-faulty read through the retry loop; layer 2 injects a
/// worker panic into the morsel layer of every engine and shows containment
/// plus clean recovery after retuning; layer 3 forces a query timeout and
/// shows the failure landing as an error cell instead of aborting the run.
pub fn faults(cfg: &BenchConfig) -> Result<FigureReport> {
    let mut report = FigureReport::new("faults", "Fault Injection and Graceful Degradation", "µs");

    // Layer 1a: a single bit flip in the archive stream must be caught by
    // the v2 per-transaction checksums, never parsed into bad data.
    let mut inst = Instance::build(cfg, &TuningConfig::none())?;
    let mut bytes = Vec::new();
    inst.history.archive.write_to(&mut bytes)?;
    let flip = FaultPlan::none().with(FaultKind::BitFlip {
        offset: (bytes.len() / 2) as u64,
        mask: 0x10,
    });
    report.faults.injected += flip.len() as u64;
    let mut reader = FaultyReader::new(&bytes[..], flip);
    match Archive::read_from(&mut reader) {
        Err(Error::Archive(_)) => {
            report.faults.detected += 1;
            report.note("archive bit flip: detected by the v2 checksums (Error::Archive)");
        }
        Err(e) => return Err(e),
        Ok(_) => report.note("archive bit flip: NOT detected — checksum hole"),
    }

    // Layer 1b: a transient read fault is absorbed by the retry path and
    // the payload survives intact.
    report.faults.injected += 1;
    let reread = read_archive_with_retry(
        || {
            let plan = FaultPlan::none().with(FaultKind::TransientAt(64));
            let mut r = FaultyReader::new(&bytes[..], plan);
            Archive::read_from(&mut r)
        },
        3,
    )?;
    if reread.transactions.len() == inst.history.archive.transactions.len() {
        report.faults.recovered += 1;
        report.note("archive transient fault: recovered by retry, payload intact");
    }

    // Layer 2: inject a worker panic into morsel 0 of every engine's
    // sequential scan; containment must surface it as WorkerPanicked.
    inst.workers = 2;
    inst.retune(&TuningConfig::none().with_panic_morsel(0))?;
    for kind in SystemKind::ALL {
        report.faults.injected += 1;
        let engine = inst.engine(kind);
        let orders = engine.resolve("orders")?;
        match engine.scan(orders, &SysSpec::All, &AppSpec::All, &[]) {
            Err(Error::WorkerPanicked { morsel, .. }) => {
                report.faults.detected += 1;
                report.note(format!("{kind}: worker panic contained at morsel {morsel}"));
            }
            Err(e) => return Err(e),
            Ok(_) => report.note(format!("{kind}: injected panic did not fire")),
        }
    }
    // Recovery: clear the injection and the same scans run clean.
    inst.retune(&TuningConfig::none())?;
    let t5 = [cell("T5 after panic recovery", |c, _| tt::t5_all(c))];
    grid(cfg, &inst, &mut report, ALL, "after recovery", &t5)?;
    let clean = report.series.iter().filter(|s| s.errors.is_empty()).count();
    report.faults.recovered += clean as u64;

    // Layer 3: a zero wall-clock budget forces a timeout; the cell degrades
    // to ERR and the run keeps going.
    report.faults.injected += 1;
    let t1 = [cell("T1 under zero budget", |c, p| {
        tt::t1(c, SysSpec::Current, AppSpec::AsOf(p.app_mid))
    })];
    let (zero_budget, system_a) = (cfg.with_timeout(0), &[SystemKind::A]);
    grid(
        &zero_budget,
        &inst,
        &mut report,
        system_a,
        "forced timeout",
        &t1,
    )?;
    Ok(report)
}

/// `explain`: one representative query per workload class (T, H, K, R, B),
/// measured per engine with tracing forced on so every timing cell carries
/// its access-path breakdown — which partition was read, whether an index
/// or a full scan resolved it, and how many versions were visited, pruned,
/// and emitted (the paper's §5 discussion, made inspectable). Also exports
/// a chrome-trace JSON of one traced pass to `results/explain.trace.json`
/// for about:tracing / Perfetto.
pub fn explain(cfg: &BenchConfig) -> Result<FigureReport> {
    let cfg = cfg.with_trace(true);
    let inst = Instance::build(&cfg, &TuningConfig::key_time())?;
    let mut report = FigureReport::new(
        "explain",
        "Access-path explain: one query per class (key+time index)",
        "µs",
    );
    let cells = [
        cell("T: T1 sys+app point", |c, p| {
            tt::t1(c, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_mid))
        }),
        cell("H: TPC-H Q6 app travel", |c, p| {
            tpch::run_query(c, 6, &tpch::Tt::app(p.app_mid))
        }),
        cell("K: K1 hot customer", |c, p| {
            key::k1(c, &p.hot_customer, SysSpec::All, AppSpec::All)
        }),
        cell("R: R1 audit range", |c, _| range::r1(c)),
        cell("B: B3 point/point past", |c, p| {
            bitemporal::b3_variant(c, 2, 55, p.app_mid, p.sys_initial)
        }),
    ];
    grid(&cfg, &inst, &mut report, ALL, "", &cells)?;
    // One extra traced pass per engine feeds the chrome-trace export;
    // errors here were already footnoted by the measured cells above.
    let mut combined = TraceLog::default();
    for kind in SystemKind::ALL {
        let ctx = Ctx::new(inst.engine(kind))?;
        obs::enable();
        for (_, query) in &cells {
            let _ = query(&ctx, &inst.params);
        }
        combined.merge(obs::disable());
    }
    if combined.scans.is_empty() {
        return Err(Error::Invalid(
            "explain: the traced pass recorded no ScanTrace, so there is no access-path \
             breakdown to report"
                .into(),
        ));
    }
    let path = std::path::Path::new("results/explain.trace.json");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, combined.to_chrome_trace())?;
    report.note(format!(
        "Chrome-trace timeline written to {} (load in about:tracing or Perfetto).",
        path.display()
    ));
    report.note(
        "Read next to paper §5: T1 resolves via the time index where the engine exposes one, \
         K1 via key lookup, R1/B3 fall back to partition scans; the breakdown shows which \
         partitions each architecture touches and how many versions it prunes.",
    );
    Ok(report)
}
