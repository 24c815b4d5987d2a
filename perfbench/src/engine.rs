//! What the two engine workloads share: access to the shard engine
//! behind a reorder stage (plain or adapted), and the per-layer
//! numbers read from a traced round.

use std::collections::BTreeMap;

use td_decay::checkpoint::RestoreError;
use td_decay::{ErrorBound, StreamAggregate, Time};
use td_shard::{ShardHealth, ShardStats, ShardedAggregate};

use crate::stats::{median, quantile};
use crate::trace::{self, Kind, Layer, ThreadTrace, Timed};

/// The shard engine's own counters, reachable through its adapter.
pub trait Engine: StreamAggregate {
    fn shard_stats(&self) -> Vec<ShardStats>;
    fn cache_stats(&self) -> (u64, u64);
    fn flush_wal(&self) -> Result<(), RestoreError>;
    fn publish_watermark(&self, w: Time);
}

impl<B: StreamAggregate + Clone + Send + 'static> Engine for ShardedAggregate<B> {
    fn shard_stats(&self) -> Vec<ShardStats> {
        ShardedAggregate::shard_stats(self)
    }
    fn cache_stats(&self) -> (u64, u64) {
        ShardedAggregate::cache_stats(self)
    }
    fn flush_wal(&self) -> Result<(), RestoreError> {
        ShardedAggregate::flush_wal(self)
    }
    fn publish_watermark(&self, w: Time) {
        ShardedAggregate::publish_watermark(self, w)
    }
}

impl<E: Engine + Layer> Engine for Timed<E> {
    fn shard_stats(&self) -> Vec<ShardStats> {
        self.0.shard_stats()
    }
    fn cache_stats(&self) -> (u64, u64) {
        self.0.cache_stats()
    }
    fn flush_wal(&self) -> Result<(), RestoreError> {
        self.0.flush_wal()
    }
    fn publish_watermark(&self, w: Time) {
        self.0.publish_watermark(w)
    }
}

/// Whether every shard is live and never panicked.
pub fn healthy(stats: &[ShardStats]) -> bool {
    stats
        .iter()
        .all(|s| s.health == ShardHealth::Live && s.panics == 0 && s.lost_mass == 0)
}

/// One query answer kept for the oracle: how many batches (or
/// arrivals) had been ingested, the query tick, the answer.
#[derive(Clone, Copy, Debug)]
pub struct Answered {
    pub ingested: usize,
    pub watermark: Time,
    pub q: Time,
    pub value: f64,
    pub bound: ErrorBound,
}

/// Engine counters sampled around the timed phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub blocked: u64,
    pub hits: u64,
    pub rebuilds: u64,
}

impl Counters {
    pub fn read<E: Engine>(e: &E) -> Self {
        let (hits, rebuilds) = e.cache_stats();
        Counters {
            blocked: e.shard_stats().iter().map(|s| s.blocked_pushes).sum(),
            hits,
            rebuilds,
        }
    }
}

/// The per-layer numbers of one traced engine round. `backend` is the
/// metric prefix of the backend layer (`ceh` or `forward`).
pub fn layer_metrics(
    traces: &[ThreadTrace],
    backend: &str,
    items: u64,
    wall_s: f64,
    before: Counters,
    after: Counters,
) -> BTreeMap<String, f64> {
    let per_item = |ns: u64| ns as f64 / items as f64;
    let producer = |k| trace::merged(traces, Some(false), k);
    let worker = |k| trace::merged(traces, Some(true), k);
    // Storage calls run on the worker, except the end-of-round WAL
    // flush on the producer.
    let all = |k| trace::merged(traces, None, k);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    put(
        "reorder.self_ns_per_item",
        per_item(producer(Kind::Reorder).self_ns),
    );
    put(
        "shard.submit_ns_per_item",
        per_item(producer(Kind::ShardSubmit).self_ns),
    );
    put(
        "shard.blocked_pushes",
        (after.blocked - before.blocked) as f64,
    );
    let busy: u64 = traces
        .iter()
        .filter(|t| t.is_worker())
        .map(|t| t.top_ns)
        .sum();
    put("shard.worker_busy_frac", busy as f64 / 1e9 / wall_s);
    let mut q = producer(Kind::ShardQuery).per_request_us();
    put("shard.query_self_us_p50", median(&mut q));
    put("shard.query_self_us_p99", quantile(&mut q, 0.99));
    let (hits, rebuilds) = (after.hits - before.hits, after.rebuilds - before.rebuilds);
    put(
        "shard.cache_hit_ratio",
        hits as f64 / (hits + rebuilds).max(1) as f64,
    );
    let save = worker(Kind::Save);
    put("shard.ckpt_saves", save.calls as f64);
    put("shard.ckpt_save_us_p50", median(&mut save.samples_us()));

    put(
        &format!("{backend}.observe_batch_ns_per_item"),
        per_item(worker(Kind::ObserveBatch).total_ns),
    );
    let query = producer(Kind::Query);
    put(
        &format!("{backend}.query_ns"),
        query.total_ns as f64 / query.calls.max(1) as f64,
    );
    if backend == "ceh" {
        put(
            "ceh.merge_us_p50",
            median(&mut producer(Kind::Merge).per_request_us()),
        );
    }

    let append = all(Kind::Append);
    if append.calls > 0 {
        put("persist.appends", append.calls as f64);
        put("persist.append_us_p50", median(&mut append.samples_us()));
        put(
            "persist.wal_bytes_per_item",
            append.bytes as f64 / items as f64,
        );
        let sync = all(Kind::Sync);
        put("persist.syncs", sync.calls as f64);
        put("persist.sync_us_p50", median(&mut sync.samples_us()));
        let write = all(Kind::WriteAtomic);
        put("persist.ckpt_write_us_p50", median(&mut write.samples_us()));
        put(
            "persist.ckpt_bytes",
            write.bytes as f64 / write.calls.max(1) as f64,
        );
    }
    m
}
