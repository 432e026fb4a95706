//! §5.2's architecture analysis: what each layout stores per version, gated
//! on the bytes its key structures and tuning indexes hold.

use crate::report::{FigureReport, Series};
use crate::runner::{BenchConfig, Instance};
use bitempo_core::{Error, Result};
use bitempo_engine::api::TuningConfig;
use bitempo_engine::SystemKind;

/// Ceiling on the resident bytes an engine's key → open-version structure
/// holds per open version (`BitemporalEngine::key_structures_footprint`),
/// the gate of the `arch` experiment, set 10 % over the largest value
/// measured across `--h` 0.0005 … 0.012. Every layout answers from the same
/// system PK index, a packed B+Tree whose leaves store the key as integer
/// cells flat beside the 32-bit slots (8 B per key column + 4 B, plus
/// nodes and separators; no per-key allocation), so one ceiling holds for
/// all four: 24.0–26.1 B on A, B and D, whose loads insert into it, at
/// every scale, and 20.4–21.0 B on C, whose delta merge rebuilds it in
/// full nodes.
const KEY_STRUCTURE_BYTES_CEILING: f64 = 29.0;

/// Ceiling on the resident bytes an engine's Key+Time tuning indexes hold
/// (`KeyStructuresFootprint::tuning_index_bytes`) per index entry on A and B
/// and per stored version on D, the `arch` experiment's second gate, set
/// like the first (the same sweep, at `--m` / `--h` from 0.25 to 4, and the
/// repo benchmark's `--h 0.008 --m 0.016`). `apply_tuning` builds each index in bulk, so an
/// entry is 8 B per index column + a 4 B slot in a full leaf. D indexes
/// every version three times in its one table (application start, system
/// start, key + system start): 56.7–58.3 B per version. A and B index open
/// versions once and history versions three times, so per version their
/// figure grows with the history's share of the table, i.e. with `--m` /
/// `--h` (15.9–24.5 B for `--m` / `--h` from 0.25 to 4); per entry (open +
/// 3 × closed versions) it barely does: 14.9–16.3 B. C ignores the tuning.
fn tuning_index_bytes_ceiling(kind: SystemKind) -> f64 {
    match kind {
        SystemKind::A | SystemKind::B => 18.0,
        SystemKind::C => 0.0,
        SystemKind::D => 65.0,
    }
}

/// §5.2: the architecture analysis — what each layout stores per version,
/// under the Key+Time tuning so that its indexes are priced too (nothing
/// else reported here depends on the tuning). Fails when an engine's key
/// structures outgrow `KEY_STRUCTURE_BYTES_CEILING` or its tuning indexes
/// `tuning_index_bytes_ceiling`.
pub fn architecture(cfg: &BenchConfig) -> Result<FigureReport> {
    let inst = Instance::build(cfg, &TuningConfig::key_time())?;
    let mut report = FigureReport::new("arch", "Architecture Analysis (§5.2)", "rows");
    for kind in SystemKind::ALL {
        let engine = inst.engine(kind);
        let mut s = Series::new(kind.name());
        let (mut open, mut closed) = (0, 0);
        for name in bitempo_dbgen::TPCH_TABLES {
            let id = engine.resolve(name)?;
            let st = engine.stats(id);
            s.push(format!("{name} current"), st.current_rows as f64);
            s.push(format!("{name} history"), st.history_rows as f64);
            open += st.current_rows;
            closed += st.history_rows;
        }
        let versions = open + closed;
        let fp = engine.key_structures_footprint();
        let per_open = fp.key_bytes_per_open_version();
        s.push("key structures B / open version", per_open);
        let per_version = fp.tuning_index_bytes as f64 / versions.max(1) as f64;
        s.push("Key+Time tuning indexes B / version", per_version);
        let (tuning_gated, unit) = match kind {
            SystemKind::A | SystemKind::B => {
                let entries = open + 3 * closed;
                let per_entry = fp.tuning_index_bytes as f64 / entries.max(1) as f64;
                s.push("Key+Time tuning indexes B / index entry", per_entry);
                (per_entry, "index entry")
            }
            SystemKind::C | SystemKind::D => (per_version, "version"),
        };
        report.add(s);
        report.note(format!("{}: {}", kind.name(), engine.architecture()));
        let addressed = match kind {
            SystemKind::C => "column fragments",
            SystemKind::A | SystemKind::B | SystemKind::D => "heap slot arrays",
        };
        report.note(format!(
            "{}: key structures {:.1} KiB for {} open versions ({per_open:.0} B each); \
             {addressed} {:.1} KiB",
            kind.name(),
            fp.key_bytes as f64 / 1024.0,
            fp.open_versions,
            fp.heap_bytes as f64 / 1024.0
        ));
        report.note(format!(
            "{}: Key+Time tuning indexes {:.1} KiB over {versions} versions \
             ({per_version:.1} B each)",
            kind.name(),
            fp.tuning_index_bytes as f64 / 1024.0,
        ));
        if per_open > KEY_STRUCTURE_BYTES_CEILING {
            return Err(Error::Invalid(format!(
                "{kind}: key structures hold {per_open:.0} resident bytes per open version, \
                 over the {KEY_STRUCTURE_BYTES_CEILING} B ceiling: {fp:?}"
            )));
        }
        let ceiling = tuning_index_bytes_ceiling(kind);
        if tuning_gated > ceiling {
            return Err(Error::Invalid(format!(
                "{kind}: Key+Time tuning indexes hold {tuning_gated:.1} resident bytes per \
                 {unit}, over the {ceiling} B ceiling: {fp:?}"
            )));
        }
    }
    Ok(report)
}
