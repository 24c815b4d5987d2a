//! Surviving process death: wrap a summary in the td-persist WAL +
//! checkpoint store, kill it, and recover the exact state — first a
//! single counter on real files, then the sharded serving engine with
//! a simulated hard crash (only fsynced bytes survive).
//!
//! ```sh
//! cargo run --release --example durable_ingest
//! ```

use td_ceh::CascadedEh;
use td_decay::{Exponential, StreamAggregate};
use td_persist::{
    DirStorage, DurabilityOptions, DurableAggregate, MemStorage, StoreOptions, SyncPolicy,
};
use td_shard::{DurabilityConfig, ShardedAggregate, SupervisorOptions};

fn main() {
    // ── One summary on real files ───────────────────────────────────
    // DirStorage is a plain directory: WAL segments, checkpoint
    // envelopes, and a manifest, all checksummed. EveryN(8) group
    // commit: a crash loses at most the last 7 acknowledged items.
    let dir = std::env::temp_dir().join(format!("durable_ingest_{}", std::process::id()));
    let opts = DurabilityOptions {
        store: StoreOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::EveryN(8),
        },
        checkpoint_every_records: 64,
    };
    let make = || CascadedEh::new(Exponential::new(0.01), 0.1);

    let before = {
        let storage = DirStorage::open(&dir).expect("open data dir");
        let (mut agg, stats) =
            DurableAggregate::open(Box::new(storage), opts, make).expect("fresh open");
        assert_eq!(stats.checkpoints_restored, 0, "first open starts empty");
        for t in 0..500u64 {
            agg.observe(t, 1 + t % 4).expect("durable ingest");
        }
        agg.flush().expect("fsync the tail"); // clean shutdown
        agg.query(501)
        // dropped here — the "process" is gone, only the files remain
    };

    let storage = DirStorage::open(&dir).expect("reopen data dir");
    let (agg, stats) = DurableAggregate::open(Box::new(storage), opts, make).expect("recover");
    // Both durable engines report recovery the same way: the store's
    // one restore-and-replay loop fills in the report.
    println!(
        "single summary : {} checkpoint restored, {} WAL records replayed, {} entries applied",
        stats.checkpoints_restored, stats.records_replayed, stats.entries_applied
    );
    let after = agg.query(501);
    assert_eq!(before.to_bits(), after.to_bits(), "recovery is bit-exact");
    println!("single summary : query(501) = {after:.3} (bit-identical to pre-crash)");
    drop(agg);
    let _ = std::fs::remove_dir_all(&dir);

    // ── The sharded engine, killed mid-stream ───────────────────────
    // MemStorage tracks written vs fsynced bytes separately, so
    // `crashed()` is an honest power-cut: whatever was not yet durable
    // is gone. Workers append each drained chunk to the WAL *before*
    // applying it, so the log always covers the served state.
    let mem = MemStorage::new();
    let sup = SupervisorOptions {
        checkpoint_every_chunks: 4,
        ..SupervisorOptions::default()
    };
    let (mut engine, rec) = ShardedAggregate::durable(
        3,
        sup.clone(),
        DurabilityConfig::new(Box::new(mem.clone())),
        make,
    )
    .expect("fresh durable engine");
    assert_eq!(rec.records_replayed, 0, "nothing to recover yet");

    let mut t = 0u64;
    for i in 0..30_000u64 {
        if i % 6 == 0 {
            t += 1;
        }
        engine.observe(t, 1 + i % 3);
    }
    let live = engine.query(t + 1);
    engine.flush_wal().expect("fsync all shards");
    drop(engine); // SIGKILL, power cut, OOM — same thing from here on

    let dead = mem.crashed();
    let (engine, rec) =
        ShardedAggregate::durable(3, sup, DurabilityConfig::new(Box::new(dead)), make)
            .expect("recover the engine");
    println!(
        "sharded engine : {} shard checkpoints, {} WAL records replayed, {} entries applied, \
         resumed at t={}",
        rec.checkpoints_restored, rec.records_replayed, rec.entries_applied, rec.resumed_at
    );
    let recovered = engine.query(t + 1);
    assert_eq!(
        live.to_bits(),
        recovered.to_bits(),
        "engine recovery is bit-exact"
    );
    println!("sharded engine : query(t+1) = {recovered:.3} (bit-identical to pre-crash)");

    // The recovered engine keeps serving: stats expose the durability
    // gauges (records since last checkpoint, un-checkpointed WAL tail).
    let stats = engine.shard_stats();
    println!(
        "gauges         : checkpoint_age = {:?}, wal_tail_len = {}",
        stats.iter().map(|s| s.checkpoint_age).collect::<Vec<_>>(),
        stats[0].wal_tail_len,
    );
}
