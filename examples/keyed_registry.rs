//! One decayed aggregate per tenant, a million tenants: the
//! `td-registry` keyed layer under zipf traffic — slab storage, lazy
//! advance, decay-aware eviction — then killed and recovered two ways
//! (one segmented checkpoint, and the keyed WAL).
//!
//! ```sh
//! cargo run --release --example keyed_registry
//! ```

use td_decay::checkpoint::Checkpoint;
use td_decay::{Exponential, Time};
use td_forward::ForwardDecaySum;
use td_persist::{DurabilityOptions, DurableAggregate, MemStorage, StoreOptions, SyncPolicy};
use td_registry::{KeyedRegistry, RegistryOptions};

const N_KEYS: u64 = 1_000_000;
const OPS: usize = 2_000_000;
const BATCH: usize = 512;
const LAMBDA: f64 = 0.01;

fn make_backend() -> ForwardDecaySum<Exponential> {
    ForwardDecaySum::new(Exponential::new(LAMBDA))
}

/// Zipf-ish keyed traffic (log-uniform rank: a hot head, a long cold
/// tail), in time-sorted `BATCH`-sized batches.
fn traffic(ops: usize, seed: u64) -> Vec<(u64, Time, u64)> {
    let mut x = seed | 1;
    let ln_n = (N_KEYS as f64).ln();
    let mut t = 1u64;
    let mut items = Vec::with_capacity(ops);
    for i in 0..ops {
        if i % BATCH == 0 {
            t += 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let key = ((u * ln_n).exp() as u64).min(N_KEYS - 1);
        items.push((key, t, x % 100 + 1));
    }
    items
}

fn main() {
    // ── A million tenants under zipf traffic ────────────────────────
    // Eviction: once a key's remaining decayed mass certifiably cannot
    // exceed 1e-6, its slot is recycled; the dropped mass is accounted
    // into the registry's error envelope, never silently lost.
    let mut reg = KeyedRegistry::new(
        RegistryOptions {
            expected_keys: N_KEYS as usize,
            eviction_threshold: 1e-6,
            sweep_per_ingest: 8,
            ..RegistryOptions::default()
        },
        make_backend,
    );
    let items = traffic(OPS, 0x5EED);
    let t0 = std::time::Instant::now();
    for chunk in items.chunks(BATCH) {
        reg.observe_keyed_batch(chunk);
    }
    let ingest = t0.elapsed();
    let now = items.last().unwrap().1 + 1;

    let stats = reg.stats();
    println!(
        "ingested {OPS} observations across {} live keys in {:.2}s ({:.0} ns/op)",
        stats.live_keys,
        ingest.as_secs_f64(),
        ingest.as_nanos() as f64 / OPS as f64
    );
    println!(
        "resident: {:.1} MiB ({:.0} bytes/key); sweep: {} evictions, {:.3e} mass accounted",
        stats.resident_bytes as f64 / (1 << 20) as f64,
        stats.resident_bytes as f64 / stats.live_keys as f64,
        stats.evictions,
        stats.evicted_mass
    );

    println!("\nhottest tenants (key, observations):");
    for (key, touches) in reg.top_touched(5) {
        let ans = reg.query_key(key, now);
        println!(
            "  key {key:>7}: {touches:>6} obs, decayed mass {:.3}",
            ans.estimate
        );
    }

    // ── Kill + recover, way 1: one segmented checkpoint ─────────────
    // The whole slab persists as a single envelope (header + packed
    // per-slot block), never one file per key.
    let mk_small = || {
        KeyedRegistry::new(
            RegistryOptions {
                expected_keys: 4096,
                ..RegistryOptions::default()
            },
            make_backend,
        )
    };
    let mut small = mk_small();
    for chunk in items[..200_000].chunks(BATCH) {
        small.observe_keyed_batch(chunk);
    }
    let bytes = small.save_checkpoint();
    let probe_keys: Vec<u64> = (0..8).chain([31_337, 999_999]).collect();
    let before: Vec<f64> = probe_keys
        .iter()
        .map(|&k| small.query_key(k, now).estimate)
        .collect();
    drop(small); // the process dies here

    let mut recovered = mk_small();
    recovered
        .restore_checkpoint(&bytes)
        .expect("restore the checkpoint envelope");
    println!(
        "\ncheckpoint recovery: one {} KiB envelope, {} keys back",
        bytes.len() / 1024,
        recovered.len()
    );
    for (i, &k) in probe_keys.iter().enumerate() {
        let after = recovered.query_key(k, now).estimate;
        assert_eq!(after.to_bits(), before[i].to_bits(), "key {k} diverged");
    }
    println!("checkpoint recovery: probe keys bit-identical to pre-crash answers");

    // ── Kill + recover, way 2: the keyed WAL ────────────────────────
    // DurableAggregate::open_keyed logs every keyed observation (kind-2
    // WAL entries) before applying it, so a crash between checkpoints
    // loses nothing that was acknowledged under the sync policy.
    let wal_mem = MemStorage::new();
    let opts = DurabilityOptions {
        store: StoreOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::EveryRecord,
        },
        checkpoint_every_records: u64::MAX, // force recovery through the WAL
    };
    let mk_reg = || {
        KeyedRegistry::new(
            RegistryOptions {
                expected_keys: 1024,
                ..RegistryOptions::default()
            },
            make_backend,
        )
    };
    let (mut durable, _) =
        DurableAggregate::open_keyed(Box::new(wal_mem.clone()), opts, mk_reg).expect("fresh open");
    for chunk in items[..20_000].chunks(BATCH) {
        durable
            .observe_keyed_batch(chunk)
            .expect("durable keyed ingest");
    }
    let wal_before: Vec<f64> = probe_keys
        .iter()
        .map(|&k| durable.inner().query_key(k, now).estimate)
        .collect();
    drop(durable); // hard kill: no flush, no checkpoint

    let (replayed, stats) =
        DurableAggregate::open_keyed(Box::new(wal_mem.crashed()), opts, mk_reg).expect("recover");
    println!(
        "\nWAL recovery: replayed {} records ({} keyed entries) into a fresh registry",
        stats.records_replayed, stats.entries_applied
    );
    assert_eq!(
        stats.entries_applied,
        replayed.inner().stats().touches_total
    );
    for (i, &k) in probe_keys.iter().enumerate() {
        let after = replayed.inner().query_key(k, now).estimate;
        assert_eq!(after.to_bits(), wal_before[i].to_bits(), "key {k} diverged");
    }
    println!("WAL recovery: probe keys bit-identical to pre-crash answers");
}
