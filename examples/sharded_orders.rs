//! Sharded orders: serve one bitemporal table from a hash-partitioned
//! cluster, commit across shards atomically, and time-travel through a
//! globally consistent snapshot.
//!
//! ```text
//! cargo run -p bitempo-examples --bin sharded_orders
//! ```

use bitempo_core::{
    AppDate, AppPeriod, Column, DataType, Key, Row, Schema, TableDef, TemporalClass, Value,
};
use bitempo_engine::api::{AppSpec, SysSpec};
use bitempo_engine::{build_engine, BitemporalEngine, SystemKind};
use bitempo_shard::Cluster;
use bitempo_wal::Checkpoint;
use bitempo_workloads::sharding::shard_of;

const SHARDS: usize = 4;

fn main() -> bitempo_core::Result<()> {
    // A cluster bootstraps from any single-engine checkpoint: the image
    // is partitioned row-by-row with the same stable hash the router
    // uses, so every key lands on the shard that will own it.
    let mut seed = build_engine(SystemKind::A);
    let def = TableDef::new(
        "orders",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("qty", DataType::Int),
        ]),
        vec![0],
        TemporalClass::Bitemporal,
        Some("valid_time"),
    )?;
    let orders = seed.create_table(def)?;
    let jan = AppDate::from_ymd(2024, 1, 1);
    for id in 0..8 {
        seed.insert(
            orders,
            Row::new(vec![Value::Int(id), Value::Int(100)]),
            Some(AppPeriod::since(jan)),
        )?;
    }
    seed.commit();
    let base = Checkpoint::capture(seed.as_mut(), &[orders], 0)?;

    // Four shards, each its own engine + transaction manager. Passing a
    // WAL per slot would make each shard independently durable; the
    // example keeps them in memory.
    let cluster =
        Cluster::from_checkpoint(SystemKind::A, &base, (0..SHARDS).map(|_| None).collect())?;
    for id in 0..8 {
        println!(
            "order {id} lives on shard {}",
            shard_of(&Key::int(id), SHARDS)
        );
    }

    // A single-key transaction routes to one shard: no coordination
    // beyond drawing the global commit timestamp.
    let mut txn = cluster.begin()?;
    txn.update(orders, &Key::int(1), &[(1, Value::Int(150))], None)?;
    let t1 = txn.commit()?;
    println!("\nsingle-shard update committed at global time {t1}");

    // Orders 0 and 1 hash to different shards, so this commit runs
    // two-phase: prepare records on both WAL streams, then a decision.
    // Either both shards show it or neither does — never a torn pair.
    let mut txn = cluster.begin()?;
    txn.update(orders, &Key::int(0), &[(1, Value::Int(0))], None)?;
    txn.update(orders, &Key::int(1), &[(1, Value::Int(151))], None)?;
    let t2 = txn.commit()?;
    println!("cross-shard update committed at global time {t2}");

    // A conflicting writer loses first-committer-wins, exactly like the
    // single-engine serving layer — the validation spans shards.
    let mut stale = cluster.begin()?;
    let mut winner = cluster.begin()?;
    winner.update(orders, &Key::int(2), &[(1, Value::Int(2))], None)?;
    winner.commit()?;
    stale.update(orders, &Key::int(2), &[(1, Value::Int(999))], None)?;
    match stale.commit() {
        Err(bitempo_core::Error::Conflict(_)) => println!("stale writer aborted (FCW)"),
        other => panic!("expected a conflict, got {other:?}"),
    }

    // Reads pin ONE global timestamp and fan out: every shard is cut
    // `AS OF` the same instant, so the snapshot is a prefix of the
    // global commit order — no shard can show a transaction another
    // shard is missing.
    let snap = cluster.snapshot();
    let read = snap.read()?;
    let view = read.view();
    println!("\ncurrent state pinned at {}:", read.at());
    let mut rows = view
        .scan(orders, &SysSpec::Current, &AppSpec::All, &[])?
        .rows;
    rows.sort();
    for row in &rows {
        println!("  {row}");
    }

    // Time travel works across the cluster too: `AS OF t1` is the
    // moment before the cross-shard pair landed.
    let at_t1 = view.scan(orders, &SysSpec::AsOf(t1), &AppSpec::All, &[])?;
    let qty = |rows: &[Row], id: i64| {
        rows.iter()
            .find(|r| r.get(0) == &Value::Int(id))
            .map(|r| r.get(1).clone())
            .expect("order present")
    };
    println!(
        "order 1 qty: {} as of {t1}, {} now",
        qty(&at_t1.rows, 1),
        qty(&rows, 1)
    );
    assert_eq!(qty(&at_t1.rows, 1), Value::Int(150));
    assert_eq!(qty(&rows, 1), Value::Int(151));
    assert_eq!(qty(&rows, 0), Value::Int(0), "cross-shard pair is atomic");
    drop(read);

    let c = cluster.counters();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    println!(
        "\ncluster counters: {} committed ({} single-shard, {} cross-shard), {} conflicts",
        c.committed(),
        load(&c.single_shard),
        load(&c.cross_shard),
        load(&c.conflicts)
    );
    println!("\nsharded_orders OK");
    Ok(())
}
