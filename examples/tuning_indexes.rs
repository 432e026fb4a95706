//! The tuning study in miniature (paper §5.1/§5.3.2): measure the same
//! temporal queries under the out-of-the-box, Time-Index, Key+Time and
//! GiST settings on all four engine archetypes, and watch which access
//! paths the "optimizers" actually pick.
//!
//! ```text
//! cargo run --release -p bitempo-examples --bin tuning_indexes
//! ```

use bitempo_bench::runner::{measure, BenchConfig, Instance};
use bitempo_engine::api::{AppSpec, SysSpec, TuningConfig};
use bitempo_engine::SystemKind;
use bitempo_workloads::{key, tt, Ctx};

fn main() -> bitempo_core::Result<()> {
    let cfg = BenchConfig {
        h: 0.001,
        m: 0.001,
        repetitions: 5,
        discard: 1,
        batch_size: 1,
        workers: bitempo_engine::api::default_workers(),
        trace: false,
    };
    let mut inst = Instance::build(&cfg, &TuningConfig::none())?;
    let p = inst.params.clone();

    let settings: Vec<(&str, TuningConfig)> = vec![
        ("no index", TuningConfig::none()),
        ("Time Index", TuningConfig::time()),
        ("Key+Time", TuningConfig::key_time()),
        (
            "GiST",
            TuningConfig {
                time_index: true,
                key_time_index: true,
                gist: true,
                ..Default::default()
            },
        ),
    ];

    println!(
        "{:<12} {:<10} {:>14} {:>14} {:>14}",
        "setting", "system", "T1 sys µs", "K1 past µs", "K1 access path"
    );
    for (label, tuning) in settings {
        inst.retune(&tuning)?;
        for kind in SystemKind::ALL {
            let engine = inst.engine(kind);
            let ctx = Ctx::new(engine)?;
            let t1 = measure(&cfg, || {
                tt::t1(&ctx, SysSpec::AsOf(p.sys_mid), AppSpec::AsOf(p.app_late))
            })?;
            let k1 = measure(&cfg, || {
                key::k1(
                    &ctx,
                    &p.hot_customer,
                    SysSpec::AsOf(p.sys_initial),
                    AppSpec::All,
                )
            })?;
            // Peek at the plan the engine chose for the K1 probe.
            let access = engine
                .lookup_key(
                    ctx.t.customer,
                    &p.hot_customer,
                    &SysSpec::AsOf(p.sys_initial),
                    &AppSpec::All,
                )?
                .access;
            println!(
                "{:<12} {:<10} {:>14.1} {:>14.1}   {:?}",
                label,
                kind.name(),
                t1.micros(),
                k1.micros(),
                access
            );
        }
        println!();
    }

    println!(
        "observations to look for (paper §5.3.2, §5.5.1): indexes pay off only for\n\
         selective probes; System C never uses them; System B keeps its reconstruction\n\
         cost even when an index is chosen; GiST never beats the B-Tree."
    );
    Ok(())
}
