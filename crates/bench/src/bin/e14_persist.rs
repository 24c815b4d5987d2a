//! E14p — td-persist durability tax and recovery speed. Writes
//! `BENCH_persist.json`.
//!
//! Two questions a deployment has to answer before turning durability
//! on:
//!
//! * **What does ingest pay per `SyncPolicy`?** One record per ingest
//!   call against real files (`DirStorage` in a temp dir, real
//!   `fsync`), versus the plain in-memory backend as the intercept.
//!   `EveryRecord` pays an fsync per call and is measured on a
//!   shorter stream; the group-commit policies amortize it.
//! * **How fast is recovery per WAL record?** Crash with an
//!   ever-longer un-checkpointed tail (no cadence checkpoints, so the
//!   whole history replays) and time `DurableAggregate::open`. The
//!   ns/record figure is what sizes `checkpoint_every_records`: tail
//!   length × that rate is your restart budget.
//!
//! fsync cost is wildly filesystem-dependent (tmpfs vs ext4 vs a
//! battery-backed controller), so every row carries the host stamp.

use std::time::Instant;

use td_bench::Table;
use td_counters::ExpCounter;
use td_decay::{Exponential, Time};
use td_persist::{
    DirStorage, DurabilityOptions, DurableAggregate, MemStorage, StoreOptions, SyncPolicy,
};

/// Same bursty generator as E12/E13: ~10 items per tick.
fn bursty_items(n: usize) -> Vec<(Time, u64)> {
    let mut items = Vec::with_capacity(n);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut t = 0u64;
    while items.len() < n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += 1 + x % 3;
        let burst = 1 + (x >> 17) % 20;
        for j in 0..burst {
            if items.len() == n {
                break;
            }
            items.push((t, (x >> 23).wrapping_add(j) % 8));
        }
    }
    items
}

fn make_backend() -> ExpCounter {
    ExpCounter::new(Exponential::new(0.001))
}

struct IngestRow {
    policy: String,
    items: usize,
    ns_per_item: f64,
}

/// One `observe` call per item — each call is one WAL record, so the
/// per-record sync policies bite exactly once per item.
fn ingest_ns_per_item(dir: &std::path::Path, sync: SyncPolicy, items: &[(Time, u64)]) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let storage = DirStorage::open(dir).expect("open bench dir");
    let opts = DurabilityOptions {
        store: StoreOptions {
            segment_bytes: 1 << 20,
            sync,
        },
        checkpoint_every_records: 4096,
    };
    let (mut agg, _) =
        DurableAggregate::open(Box::new(storage), opts, make_backend).expect("fresh open");
    let t0 = Instant::now();
    for &(t, f) in items {
        agg.observe(t, f).expect("durable observe");
    }
    let ns = t0.elapsed().as_nanos() as f64 / items.len() as f64;
    std::hint::black_box(agg.query(items.last().unwrap().0 + 1));
    let _ = std::fs::remove_dir_all(dir);
    ns
}

fn baseline_ns_per_item(items: &[(Time, u64)]) -> f64 {
    let mut b = make_backend();
    let t0 = Instant::now();
    for &(t, f) in items {
        b.observe(t, f);
    }
    let ns = t0.elapsed().as_nanos() as f64 / items.len() as f64;
    std::hint::black_box(b.query(items.last().unwrap().0 + 1));
    ns
}

struct RecoveryRow {
    tail_records: usize,
    recover_ms: f64,
    ns_per_record: f64,
}

/// Logs `n` records with checkpoints disabled, crashes, and times the
/// full-tail replay. In-memory storage isolates parse+replay cost from
/// disk read speed.
fn recovery_row(items: &[(Time, u64)]) -> RecoveryRow {
    let opts = DurabilityOptions {
        store: StoreOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::EveryN(1024),
        },
        checkpoint_every_records: u64::MAX,
    };
    let mem = MemStorage::new();
    {
        let (mut agg, _) =
            DurableAggregate::open(Box::new(mem.clone()), opts, make_backend).expect("fresh open");
        for &(t, f) in items {
            agg.observe(t, f).expect("durable observe");
        }
        agg.flush().expect("flush");
    }
    let dead = mem.crashed();
    let t0 = Instant::now();
    let (agg, stats) =
        DurableAggregate::open(Box::new(dead), opts, make_backend).expect("recovery");
    let elapsed = t0.elapsed();
    assert_eq!(
        stats.records_replayed,
        items.len() as u64,
        "full tail replays"
    );
    assert_eq!(stats.entries_applied, items.len() as u64);
    std::hint::black_box(agg.inner().query(items.last().unwrap().0 + 1));
    RecoveryRow {
        tail_records: items.len(),
        recover_ms: elapsed.as_secs_f64() * 1e3,
        ns_per_record: elapsed.as_nanos() as f64 / items.len() as f64,
    }
}

fn main() {
    let host_parallelism = td_bench::host_parallelism();
    let cpu = td_bench::cpu_model();
    println!("E14p: td-persist durability tax, cpu={cpu}\n");

    let dir = std::env::temp_dir().join(format!("e14_persist_{}", std::process::id()));

    // Ingest vs sync policy. EveryRecord pays a real fsync per call —
    // keep its stream short so the bench stays interactive.
    let long = bursty_items(50_000);
    let short = bursty_items(2_000);
    let mut ingest_rows = vec![IngestRow {
        policy: "none (in-memory)".into(),
        items: long.len(),
        ns_per_item: baseline_ns_per_item(&long),
    }];
    for (name, sync, items) in [
        ("EveryRecord", SyncPolicy::EveryRecord, &short),
        ("EveryN(64)", SyncPolicy::EveryN(64), &long),
        (
            "IntervalTicks(1024)",
            SyncPolicy::IntervalTicks(1024),
            &long,
        ),
    ] {
        ingest_rows.push(IngestRow {
            policy: name.into(),
            items: items.len(),
            ns_per_item: ingest_ns_per_item(&dir, sync, items),
        });
    }

    let mut table = Table::new(&["sync policy", "items", "ingest ns/item"]);
    for r in &ingest_rows {
        table.row(&[
            r.policy.clone(),
            format!("{}", r.items),
            format!("{:.0}", r.ns_per_item),
        ]);
    }
    table.print();

    // Recovery vs WAL tail length.
    let mut recovery_rows = Vec::new();
    for n in [1_000usize, 10_000, 100_000] {
        recovery_rows.push(recovery_row(&bursty_items(n)));
    }

    let mut rtable = Table::new(&["WAL tail (records)", "recover ms", "ns/record"]);
    for r in &recovery_rows {
        rtable.row(&[
            format!("{}", r.tail_records),
            format!("{:.2}", r.recover_ms),
            format!("{:.0}", r.ns_per_record),
        ]);
    }
    println!("\nRecovery time vs un-checkpointed WAL tail:\n");
    rtable.print();

    let host = td_bench::hostinfo::json_fragment();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {host_parallelism},\n  \"cpu\": \"{cpu}\",\n  \"ingest\": [\n"
    ));
    for (i, r) in ingest_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"sync\": \"{}\", \"items\": {}, \"ns_per_item\": {:.1}, {host}}}{}\n",
            r.policy,
            r.items,
            r.ns_per_item,
            if i + 1 == ingest_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in recovery_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tail_records\": {}, \"recover_ms\": {:.3}, \"ns_per_record\": {:.1}, \
             {host}}}{}\n",
            r.tail_records,
            r.recover_ms,
            r.ns_per_record,
            if i + 1 == recovery_rows.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = "BENCH_persist.json";
    std::fs::write(path, &json).expect("write BENCH_persist.json");
    println!("\nwrote {path}");
}
