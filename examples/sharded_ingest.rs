//! Sharded serving: spread one decayed-sum workload across worker-owned
//! backend shards, query the epoch-cached merged summary, and watch the
//! cache pay for itself on a read-heavy phase — then kill a shard
//! mid-stream and watch the engine keep serving certified answers.
//!
//! ```sh
//! cargo run --release --example sharded_ingest
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use td_ceh::CascadedEh;
use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{ErrorBound, Polynomial, StorageAccounting, StreamAggregate, Time};
use td_shard::{ShardHealth, ShardedAggregate, SupervisorOptions};

fn main() {
    // Four shards, each a private cascaded-EH under POLYD(1) decay.
    // Every shard sees a disjoint substream; the §6 merge property is
    // what lets their summaries fold back into one answer.
    let mut engine =
        ShardedAggregate::with_options(4, 4096, || CascadedEh::new(Polynomial::new(1.0), 0.05));

    // Ingest phase: 200k items over 20k ticks. Keyed ingest pins each
    // key's whole substream to one shard (useful when the backend is
    // later swapped for a per-key sketch); the workers drain their
    // rings concurrently and pay the backend's *batched* ingest cost.
    let mut t = 0u64;
    for i in 0..200_000u64 {
        if i % 10 == 0 {
            t += 1;
        }
        let key = i % 64;
        engine.observe_keyed(key, t, 1 + key % 4);
    }

    // First query: the coordinator waits for every shard to catch up,
    // snapshots, advances the clones to the shared clock, and merges.
    // This build is cached against the per-shard epoch vector.
    let est = engine.query(t + 1);
    println!("decayed sum at t+1        : {est:.3}");
    println!("reported error envelope   : {:?}", engine.error_bound());

    // Read-heavy phase: 1 write per 100 reads. Only the writes advance
    // a shard epoch, so ~99% of queries are served from the cache
    // without touching a worker.
    for q in 0..1_000u64 {
        if q % 100 == 99 {
            t += 1;
            engine.observe(t, 7);
        }
        std::hint::black_box(engine.query(t + 1));
    }
    let (hits, rebuilds) = engine.cache_stats();
    println!("read-heavy phase          : {hits} cache hits, {rebuilds} merge rebuilds");

    // Shutdown folds every shard into one plain backend — nothing in
    // flight is dropped, and the result is an ordinary CascadedEh. A
    // worker that died past recovery would surface here as a typed
    // ShardError instead of a panic.
    let merged = engine.into_merged().expect("no shard failed");
    println!("merged summary at t+1     : {:.3}", merged.query(t + 1));

    kill_a_shard_and_keep_serving();
}

/// Fault-tolerance demo: a supervised engine whose workers checkpoint
/// after every chunk. One backend is rigged to panic mid-stream; its
/// restart budget is zero, so the shard quarantines — and queries keep
/// flowing, served from the dead shard's last checkpoint with the error
/// envelope widened by the mass the checkpoint does not cover.
fn kill_a_shard_and_keep_serving() {
    println!("\n-- kill a shard, keep serving --");
    let opts = SupervisorOptions {
        max_restarts: 0, // force quarantine instead of self-healing
        ..SupervisorOptions::default()
    };
    let batches = Arc::new(AtomicU64::new(0));
    let trigger = Arc::clone(&batches);
    let mut engine = ShardedAggregate::supervised(4, opts, move || Unreliable {
        inner: CascadedEh::new(Polynomial::new(1.0), 0.05),
        batches: Arc::clone(&trigger),
    });

    let mut t = 0u64;
    for i in 0..100_000u64 {
        if i % 10 == 0 {
            t += 1;
        }
        engine.observe(t, 1);
    }

    let ans = engine.try_query(t + 1).expect("barrier did not wedge");
    println!("degraded answer at t+1    : {:.3}", ans.value);
    println!("widened envelope          : {:?}", ans.bound);
    println!("dead shards               : {:?}", ans.degraded);
    for st in engine.shard_stats() {
        if st.health != ShardHealth::Live {
            println!(
                "shard {} is {:?} after {} panic(s): {}",
                st.shard,
                st.health,
                st.panics,
                st.last_panic.as_deref().unwrap_or("<none>")
            );
        }
    }
    // The envelope is still a certificate: value ∈ [truth·(1−l), truth·(1+u)].
    let truth_ceiling = ans.value / (1.0 - ans.bound.lower);
    println!("certified truth ceiling   : {truth_ceiling:.3}");
}

/// A backend that panics on its 40th applied chunk (across all shards)
/// — the kind of rare data-dependent crash supervision exists for.
#[derive(Clone)]
struct Unreliable {
    inner: CascadedEh<Polynomial>,
    batches: Arc<AtomicU64>,
}

impl StreamAggregate for Unreliable {
    fn observe(&mut self, t: Time, f: u64) {
        self.inner.observe(t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        if self.batches.fetch_add(1, Ordering::SeqCst) + 1 == 40 {
            panic!("simulated data-dependent crash");
        }
        self.inner.observe_batch(items)
    }
    fn advance(&mut self, t: Time) {
        self.inner.advance(t)
    }
    fn query(&self, t: Time) -> f64 {
        self.inner.query(t)
    }
    fn merge_from(&mut self, other: &Self) {
        self.inner.merge_from(&other.inner)
    }
    fn error_bound(&self) -> ErrorBound {
        self.inner.error_bound()
    }
}

impl StorageAccounting for Unreliable {
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

impl Checkpoint for Unreliable {
    fn save_checkpoint(&self) -> Vec<u8> {
        self.inner.save_checkpoint()
    }
    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.inner.restore_checkpoint(bytes)
    }
}
