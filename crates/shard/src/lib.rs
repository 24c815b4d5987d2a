//! Sharded multi-core ingest/query engine over any [`StreamAggregate`],
//! with supervised workers, checkpoint/restore recovery, and degraded
//! serving under shard failures.
//!
//! The paper's §6 merge property — summaries of disjoint substreams
//! combine into a summary of the union, within a (possibly widened)
//! error envelope — is exactly what makes a decay summary *shardable*:
//! split the stream across N private backend shards, each owned by one
//! worker thread, and fold snapshots back together only when someone
//! asks a question. PR 1's `merge_from` and PR 2's `certify_sharded`
//! proved the algebra; this crate turns it into wall-clock throughput
//! — and keeps the answers *certified* even while shards are dying.
//!
//! # Architecture
//!
//! ```text
//!             ┌─ SPSC ring ─▶ worker 0 ─ owns B (shard 0) ─ checkpoint
//!  caller ────┼─ SPSC ring ─▶ worker 1 ─ owns B (shard 1) ─ checkpoint
//!  (observe)  └─ SPSC ring ─▶ worker 2 ─ owns B (shard 2) ─ checkpoint
//!                                  │
//!  caller (query) ── barrier ──────┴──▶ snapshot · advance · merge_from
//!                      │                 └──▶ epoch-cached merged B
//!                      └─ deadline / dead shards ──▶ degraded fold
//!                                                    (widened envelope)
//! ```
//!
//! * **Ingest** partitions items round-robin (or by key hash) and pushes
//!   them onto bounded lock-free SPSC rings (`vendor/spsc`). Each worker
//!   drains its ring in chunks and feeds its private backend through the
//!   amortized [`StreamAggregate::observe_batch`] path.
//! * **Queries** run at a sequence-number barrier: the coordinator waits
//!   until every live shard's `applied` counter catches up to its
//!   `submitted` counter, then snapshots each shard, advances the clones
//!   to the shared clock, and folds them with `merge_from`. The merged
//!   summary is epoch-cached, so the merge is paid once per *state
//!   change*, not once per query.
//!
//! # Fault tolerance
//!
//! Every engine is supervised: [`supervised`](ShardedAggregate::supervised)
//! and [`durable`](ShardedAggregate::durable) both take a [`Checkpoint`]
//! backend. Each worker applies every chunk under `catch_unwind`,
//! **inside** its backend mutex guard so a panic never poisons the
//! lock, and keeps a restart point on a configurable cadence: a typed
//! copy of its backend, refreshed with `clone_from`. A restart, the
//! skip of a poison-pill chunk and the degraded fold of a dead shard
//! all restore it through one function, which encodes the copy with
//! the trait's checksummed encoding and restores from those bytes, so
//! the checksum guards every restore; a durable engine falls back to
//! the shard's on-disk checkpoint only when it holds the same state.
//! Durable engines also encode once per cadence for disk, and recover
//! through `td_persist::DurableStore`'s one restore-and-replay loop,
//! replaying each WAL record as one drained chunk. On a panic the
//! worker restores the restart point in place, replays the failed
//! chunk, and carries on — a deterministic "poison pill" chunk that
//! panics again on replay is skipped with its mass accounted as lost.
//! When recovery is impossible (restarts exhausted, or the restart
//! point fails restore — e.g. corruption detected by its checksum) the
//! shard is **quarantined**: its worker exits, subsequent pushes to it
//! are rerouted to live shards, and its partial state is never folded
//! into an answer again.
//!
//! Queries keep working throughout. [`try_query`](ShardedAggregate::try_query)
//! waits at the barrier with a deadline (a wedged shard surfaces as the
//! typed [`QueryError::Wedged`] instead of a hang); when shards are
//! quarantined it folds the *live* snapshots plus each dead shard's
//! restart point, and widens the reported [`ErrorBound`] by the **mass
//! at risk** — every unit of mass that was submitted but is not covered
//! by any folded state is weight the answer may be missing (an
//! [`Envelope`] `under` term), so the answer's self-reported envelope
//! still provably covers the truth; a reopened durable shard that loses
//! its restart point loses history of unknown mass, and the envelope
//! becomes unbounded. The same widening covers mass dropped by the
//! [`BackpressurePolicy::DropNewest`] policy and mass lost during
//! recovery. Degraded answers carry the list of dead shards in
//! [`Answer::degraded`].
//!
//! # Semantics
//!
//! `ShardedAggregate<B>` implements `StreamAggregate` itself and
//! preserves the workspace-wide conventions exactly: ticks are
//! non-decreasing (enforced at the coordinator so a contract violation
//! panics on the caller's thread, not inside a worker), an item observed
//! at the query tick is invisible (§2.1 — snapshots are advanced *to*
//! the shared clock, which never folds at-tick mass), and
//! `error_bound()` is read from the live merged summary so k-way merge
//! fan-in widening (k·ε for the EH family) is reported automatically.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{Envelope, ErrorBound, StorageAccounting, StreamAggregate, Time};
use td_persist::{
    keyed_entry_error, DurableStore, RecoveryReport, Storage, StoreOptions, WalEntry,
};

/// How many messages a worker drains per ring pop (and the batch fed to
/// `observe_batch`). Large enough to amortize the per-chunk atomics and
/// the backend's per-batch setup; small enough to keep barriers snappy.
const DRAIN_BATCH: usize = 1024;

/// How many pushed messages wake an idle worker before its park
/// timeout. A quarter chunk: a batched push (hundreds of items per
/// shard) wakes the worker every time, while single-item ingest pays
/// one wake-up per quarter chunk — waking per message made single-item
/// `observe` about 3× slower.
const WAKE_AFTER: usize = DRAIN_BATCH / 4;

/// Default ring capacity per shard (messages, rounded up to a power of
/// two by the ring). ~96 KiB of in-flight items per shard.
const DEFAULT_RING_CAPACITY: usize = 4096;

/// How long an idle worker parks between ring polls. Bounds the extra
/// latency a barrier can observe when it races a worker going idle.
const IDLE_PARK: Duration = Duration::from_micros(100);

/// Pads (and aligns) its contents to a 64-byte cache line, so two
/// logically independent hot counters never share a line. The per-shard
/// epoch counters are the motivating case: each worker Release-stores
/// its own `applied` epoch on every drained chunk while the coordinator
/// Acquire-polls all of them in barrier loops — without padding,
/// neighbouring shards' epochs (or the epoch and the fields packed next
/// to it) land on one line and every store invalidates every poller.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Shard health as stored in the shared atomic.
const HEALTH_LIVE: u8 = 0;
const HEALTH_FAILED: u8 = 1;
const HEALTH_QUARANTINED: u8 = 2;

/// What the coordinator does when a shard's ring stays full.
///
/// The ring is strictly FIFO, so "drop oldest" is not implementable
/// without the worker's cooperation; the two available policies are to
/// wait or to shed the *newest* (not yet enqueued) items.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Spin (unparking the worker) until space frees up. Never drops;
    /// each stall event is counted in [`ShardStats::blocked_pushes`].
    #[default]
    Block,
    /// Give up on the items that did not fit. Dropped messages and mass
    /// are counted per shard ([`ShardStats::dropped_msgs`] /
    /// [`ShardStats::dropped_mass`]) and every subsequent query's error
    /// envelope is widened by the dropped mass — shed load is *never*
    /// silently wrong.
    DropNewest,
}

/// Lifecycle state of one shard, as reported by
/// [`ShardedAggregate::shard_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Ingesting and serving normally.
    Live,
    /// The worker panicked and is restoring from its checkpoint. A
    /// transient state: it resolves to `Live` (restart succeeded) or
    /// `Quarantined`.
    Failed,
    /// Permanently out of service: the worker has exited, pushes are
    /// rerouted, and queries fold the shard's last checkpoint instead
    /// of its (possibly torn) live state.
    Quarantined,
}

fn health_of(v: u8) -> ShardHealth {
    match v {
        HEALTH_LIVE => ShardHealth::Live,
        HEALTH_FAILED => ShardHealth::Failed,
        _ => ShardHealth::Quarantined,
    }
}

/// Per-shard counters exposed by [`ShardedAggregate::shard_stats`].
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Current lifecycle state.
    pub health: ShardHealth,
    /// Messages pushed onto the shard's ring.
    pub submitted: u64,
    /// Messages fully applied to the shard's backend.
    pub applied: u64,
    /// Ring-full stall events under [`BackpressurePolicy::Block`].
    pub blocked_pushes: u64,
    /// Messages shed by [`BackpressurePolicy::DropNewest`] or rerouting
    /// fallbacks (never enqueued).
    pub dropped_msgs: u64,
    /// Observation mass of the shed messages.
    pub dropped_mass: u64,
    /// Enqueued mass permanently lost during panic recovery (the gap
    /// between the restored checkpoint and the crash, plus any
    /// poison-pill chunk skipped on replay).
    pub lost_mass: u64,
    /// Worker panics caught (including replay panics).
    pub panics: u64,
    /// Successful checkpoint restarts.
    pub restarts: u64,
    /// Chunks applied since this shard's last checkpoint — the replay
    /// exposure a panic (or, for durable engines, a process death)
    /// would pay right now. Bounded by
    /// [`SupervisorOptions::checkpoint_every_chunks`].
    pub checkpoint_age: u64,
    /// WAL records logged but not yet superseded by *every* shard's
    /// on-disk checkpoint — the replay a restart from disk would pay.
    /// 0 when the engine has no [`DurabilityConfig`]. Reported
    /// identically on every shard (the WAL is shared).
    pub wal_tail_len: u64,
    /// Payload of the most recent panic (and/or restore failure).
    pub last_panic: Option<String>,
}

/// A worker failure surfaced by [`ShardedAggregate::into_merged`].
#[derive(Clone, Debug)]
pub struct ShardError {
    /// Which shard failed.
    pub shard: usize,
    /// The captured panic payload (or a description of the failure).
    pub payload: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} failed: {}", self.shard, self.payload)
    }
}

impl std::error::Error for ShardError {}

/// Why [`ShardedAggregate::try_query`] could not produce an answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A shard neither caught up to the barrier nor quarantined before
    /// the deadline — its worker is wedged (stuck inside the backend).
    /// The shard index is reported so an operator can decide whether to
    /// wait, restart the process, or route around it; the trait-level
    /// [`StreamAggregate::query`] falls back to serving the wedged
    /// shard from its checkpoint.
    Wedged {
        /// The shard that missed the deadline.
        shard: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Wedged { shard } => {
                write!(f, "shard {shard} missed the barrier deadline (wedged)")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A query answer with its provenance: the estimate, the error envelope
/// the engine certifies for it (widened if state was missing), and the
/// shards that could not contribute live state.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The decayed-sum estimate.
    pub value: f64,
    /// The envelope certified for `value` against the *full* stream's
    /// truth — mass at risk from dead shards, shed load, and recovery
    /// losses is already folded into the `lower` side.
    pub bound: ErrorBound,
    /// Shards whose live state was unavailable (quarantined or treated
    /// as dead for this query). Empty for a fully healthy answer.
    pub degraded: Vec<usize>,
    /// The tick up to which this answer is complete. For an engine fed
    /// in order this is the clock high-water mark (the query barrier
    /// guarantees everything submitted is applied). For an engine
    /// fronted by a `td-reorder` stage it is the published watermark
    /// `W`: in-bound items with `t > W` may still be buffered upstream
    /// and are legitimately absent from the answer.
    pub complete_up_to: Time,
}

/// Supervision knobs for [`ShardedAggregate::supervised`].
#[derive(Clone, Debug)]
pub struct SupervisorOptions {
    /// How many checkpoint restarts a shard gets before quarantine.
    pub max_restarts: u64,
    /// Checkpoint after every N successfully applied chunks (min 1).
    /// 1 (the default) makes restarts lossless for non-deterministic
    /// panics: the checkpoint always covers everything before the
    /// failed chunk, and the failed chunk itself is replayed. The
    /// in-memory checkpoint is a typed copy of the backend (a
    /// `clone_from`, no encoding), so outside durable engines raising
    /// N saves little and only adds recovery exposure (up to N−1
    /// chunks of applied mass at risk, visible as
    /// [`ShardStats::checkpoint_age`]).
    /// [Durable](ShardedAggregate::durable) engines also encode and
    /// write each checkpoint to disk; there a large N is the usual
    /// setting, since every chunk is in the WAL anyway and the
    /// checkpoint only bounds replay length.
    pub checkpoint_every_chunks: u64,
    /// How long a query barrier waits for a shard before reporting it
    /// [`QueryError::Wedged`].
    pub barrier_deadline: Duration,
    /// Ring-full behavior on ingest.
    pub backpressure: BackpressurePolicy,
    /// Per-shard ring capacity (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Background fsync cadence for [durable](ShardedAggregate::durable)
    /// engines: a worker whose ring has gone idle flushes any unsynced
    /// WAL tail once per this interval. Batched sync policies
    /// ([`SyncPolicy::EveryN`](td_persist::SyncPolicy::EveryN),
    /// [`SyncPolicy::IntervalTicks`](td_persist::SyncPolicy::IntervalTicks))
    /// advance their durability clock on *logged traffic* — if the
    /// stream falls silent right after an unsynced append, those bytes
    /// would otherwise stay exposed indefinitely. `None` disables the
    /// tick (exposure until the next record or
    /// [`flush_wal`](ShardedAggregate::flush_wal)).
    pub wal_flush_idle: Option<Duration>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            max_restarts: 3,
            checkpoint_every_chunks: 1,
            barrier_deadline: Duration::from_secs(1),
            backpressure: BackpressurePolicy::Block,
            ring_capacity: DEFAULT_RING_CAPACITY,
            wal_flush_idle: Some(Duration::from_millis(100)),
        }
    }
}

/// Optional persistence for a [supervised](ShardedAggregate::durable)
/// engine: where the WAL + checkpoint store lives and how it batches
/// fsyncs. See `td-persist` for the on-disk format and recovery
/// algorithm.
pub struct DurabilityConfig {
    /// The storage backend — [`td_persist::DirStorage`] for real
    /// directories, [`td_persist::MemStorage`] in tests.
    pub storage: Box<dyn Storage>,
    /// WAL segment size and [`td_persist::SyncPolicy`].
    pub options: StoreOptions,
}

impl DurabilityConfig {
    /// Durability on `storage` with default store options (1 MiB
    /// segments, fsync every record).
    pub fn new(storage: Box<dyn Storage>) -> Self {
        DurabilityConfig {
            storage,
            options: StoreOptions::default(),
        }
    }
}

/// The wire format between coordinator and workers. `Copy`, so the ring
/// can move whole slices with one atomic release per chunk.
#[derive(Clone, Copy, Debug)]
enum Msg {
    Observe(Time, u64),
    Advance(Time),
}

fn msg_to_entry(m: &Msg) -> WalEntry {
    match *m {
        Msg::Observe(t, f) => WalEntry::Observe(t, f),
        Msg::Advance(t) => WalEntry::Advance(t),
    }
}

fn msg_mass(m: &Msg) -> u64 {
    match m {
        Msg::Observe(_, f) => *f,
        Msg::Advance(_) => 0,
    }
}

fn slice_mass(msgs: &[Msg]) -> u64 {
    msgs.iter().map(msg_mass).fold(0u64, u64::saturating_add)
}

/// Checkpoint capability as plain function pointers, so the engine can
/// store it without a `B: Checkpoint` bound on the struct itself (and
/// without boxing): the pointers are instantiated once, where the
/// engine is built.
struct CkptFns<B> {
    save: fn(&B) -> Vec<u8>,
    restore: fn(&mut B, &[u8]) -> Result<(), RestoreError>,
}

impl<B> Clone for CkptFns<B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<B> Copy for CkptFns<B> {}

/// A saved good state of one shard's backend: a typed copy, refreshed
/// with `clone_from` on the checkpoint cadence. Bytes are only made
/// from it where bytes are consumed — see [`restore_restart_point`].
struct CkptRecord<B> {
    snapshot: B,
    /// Observation mass applied since the engine was built when the
    /// restart point was taken. `submitted_mass − mass` is the shard's
    /// mass at risk if it dies and must be served from this point.
    mass: u64,
    /// Whether the store's checkpoint of this shard (durable engines)
    /// holds this same state: set when a cadence save lands, and at
    /// open when the shard replayed no WAL tail.
    on_disk: bool,
}

/// The mass at risk once it is unknown: sums saturate here, and an
/// answer missing it is unbounded below.
const UNKNOWN_MASS: u64 = u64::MAX;

/// State shared between the coordinator and one worker.
struct ShardState<B> {
    /// The worker's private backend. Uncontended in steady state: the
    /// worker locks it per drained chunk, the coordinator only at
    /// snapshot/merge time (which the barrier has already quiesced).
    backend: Mutex<B>,
    /// Messages fully applied to `backend`. This is the shard's
    /// *epoch*: any state change moves it, so cache validity is "the
    /// epoch vector I built from is the epoch vector I see now".
    /// Cache-line-padded: the worker stores it per drained chunk while
    /// the coordinator polls every shard's copy in barrier loops.
    applied: CachePadded<AtomicU64>,
    /// Set (after the final message is pushed) to ask the worker to
    /// drain the ring completely and exit.
    shutdown: AtomicBool,
    /// [`HEALTH_LIVE`] / [`HEALTH_FAILED`] / [`HEALTH_QUARANTINED`].
    health: AtomicU8,
    /// Panics caught in this worker (including replay panics).
    panics: AtomicU64,
    /// Successful checkpoint restarts.
    restarts: AtomicU64,
    /// Enqueued mass permanently lost during recovery.
    lost_mass: AtomicU64,
    /// Chunks applied since the last checkpoint (mirror of the
    /// worker-local counter, published for `shard_stats`).
    ckpt_age: AtomicU64,
    /// The restart point: the last good checkpoint.
    ckpt: Mutex<CkptRecord<B>>,
    /// Whether the restart point holds history recovered from disk,
    /// whose mass the store does not keep.
    recovered: bool,
    /// Checkpoint capability.
    ckpt_ops: CkptFns<B>,
    /// The shared WAL + checkpoint store (durable engines only), which
    /// keeps this shard's replay bookkeeping.
    store: Option<Arc<Mutex<DurableStore>>>,
    /// This shard's index: the WAL and checkpoint shard field.
    shard: u32,
    /// Most recent panic payload / failure description.
    last_panic: Mutex<Option<String>>,
}

impl<B> ShardState<B> {
    fn note_failure(&self, text: String) {
        let mut slot = self.last_panic.lock().expect("panic-note mutex");
        *slot = Some(text);
    }

    /// The one restore path of the restart point, shared by a restart,
    /// a poison-pill skip and a dead shard's fold. Restores `target`
    /// from the typed copy through its checkpoint bytes, so the
    /// checksum guards it; if those fail, from the on-disk checkpoint,
    /// but only when that holds the same state. Returns the mass the
    /// restored state covers.
    fn restore_restart_point(&self, target: &mut B) -> Result<u64, RestoreError> {
        let fns = self.ckpt_ops;
        let rec = self.ckpt.lock().expect("checkpoint mutex");
        let Err(e) = (fns.restore)(target, &(fns.save)(&rec.snapshot)) else {
            return Ok(rec.mass);
        };
        let twin = match &self.store {
            Some(store) if rec.on_disk => {
                let store = store.lock().expect("durable store mutex");
                store.read_shard_checkpoint(self.shard).ok().flatten()
            }
            _ => None,
        };
        match twin {
            Some(ck) if (fns.restore)(target, &ck.envelope).is_ok() => {
                self.note_failure(format!(
                    "in-memory checkpoint corrupt ({e}); restored from disk"
                ));
                Ok(rec.mass)
            }
            _ => Err(e),
        }
    }
}

/// Coordinator-side handle to one shard.
struct Shard<B> {
    state: Arc<ShardState<B>>,
    tx: spsc::Producer<Msg>,
    /// Messages pushed onto the ring. Written only by the coordinator
    /// (`&mut self` ingest), read by `&self` barriers — hence atomic.
    /// Padded to its own line so barrier polls of one shard's progress
    /// never contend with ingest stores into a neighbour's counters.
    submitted: CachePadded<AtomicU64>,
    /// Observation mass pushed onto the ring. Same single-writer
    /// pattern as `submitted`, padded for the same reason.
    submitted_mass: CachePadded<AtomicU64>,
    /// Ring-full stall events under the blocking policy.
    blocked_pushes: AtomicU64,
    /// Messages shed (never enqueued).
    dropped_msgs: AtomicU64,
    /// Observation mass of the shed messages.
    dropped_mass: AtomicU64,
    /// Messages pushed since the worker was last woken.
    unwoken: usize,
    worker: Option<JoinHandle<()>>,
    /// The worker's thread handle, for unparking it out of idle sleep.
    thread: Thread,
}

/// The epoch-cached merged serving summary.
struct Cache<B> {
    merged: Option<B>,
    /// Per-shard `applied` counters the cached summary was built from.
    /// Entries are cache-line-padded like the live epoch counters they
    /// mirror, so validity re-checks walk one line per shard.
    epochs: Vec<CachePadded<u64>>,
    /// Queries served straight from the cache.
    hits: u64,
    /// Cache (re)builds: one snapshot+advance+merge sweep each.
    rebuilds: u64,
    /// The envelope reported with the most recent answer — what
    /// `error_bound()` falls back to when the engine is degraded and
    /// has no live merged summary to read from.
    last_bound: Option<ErrorBound>,
}

/// N worker-owned shards of backend `B` behind one `StreamAggregate`
/// surface. See the crate docs for the architecture and failure model.
pub struct ShardedAggregate<B> {
    shards: Vec<Shard<B>>,
    backpressure: BackpressurePolicy,
    barrier_deadline: Duration,
    /// Next round-robin target.
    rr_next: usize,
    /// Global clock high-water mark (max time ever submitted). Atomic
    /// because `&self` queries read it while only `&mut self` writes it.
    last_t: AtomicU64,
    cache: Mutex<Cache<B>>,
    /// Reusable per-shard partition buffers for batched ingest.
    scratch: Vec<Vec<Msg>>,
    /// A pristine backend from the same `make` closure as the shards:
    /// the restore target for dead shards' checkpoints, the fold base
    /// when nothing survives, and the source of the per-unit weight cap
    /// that prices missing mass.
    template: B,
    /// Mass at risk inherited from engines folded in by `merge_from`.
    extra_risk: AtomicU64,
    /// The shared WAL + checkpoint store (durable engines only).
    durable_store: Option<Arc<Mutex<DurableStore>>>,
    /// The watermark published by an upstream `td-reorder` stage
    /// (monotone max). Atomics because the reorder hook publishes
    /// through `&mut self` while `&self` queries read it.
    watermark: AtomicU64,
    /// Whether a watermark was ever published (distinguishes "no
    /// reorder stage: complete to the clock" from "stage at W = 0").
    watermark_published: AtomicBool,
}

/// Everything a worker needs beyond its ring consumer.
struct WorkerCtx<B> {
    state: Arc<ShardState<B>>,
    max_restarts: u64,
    checkpoint_every: u64,
    /// Idle-flush cadence (see [`SupervisorOptions::wal_flush_idle`]).
    wal_flush_idle: Option<Duration>,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Advances `parts` to the shared clock `t_sync` (0: never advanced)
/// and folds them with `merge_from`; `empty` is the fold base when no
/// part survives.
fn merge_at<B: StreamAggregate>(parts: Vec<B>, t_sync: Time, empty: impl FnOnce() -> B) -> B {
    let mut it = parts.into_iter();
    let mut merged = it.next().unwrap_or_else(empty);
    if t_sync > 0 {
        merged.advance(t_sync);
    }
    for mut p in it {
        if t_sync > 0 {
            p.advance(t_sync);
        }
        merged.merge_from(&p);
    }
    merged
}

/// Applies one drained chunk: coalesce runs of observations into
/// `observe_batch` calls (advances cut the run).
fn apply_chunk<B: StreamAggregate>(backend: &mut B, buf: &[Msg], items: &mut Vec<(Time, u64)>) {
    items.clear();
    for &msg in buf {
        match msg {
            Msg::Observe(t, f) => items.push((t, f)),
            Msg::Advance(t) => {
                if !items.is_empty() {
                    backend.observe_batch(items);
                    items.clear();
                }
                backend.advance(t);
            }
        }
    }
    if !items.is_empty() {
        backend.observe_batch(items);
    }
    items.clear();
}

/// Panic recovery: restore the restart point in place and replay the
/// failed chunk. Returns `true` if the shard is healthy again.
///
/// `applied_mass` is the worker's running total of applied observation
/// mass; on success it is rewound to the restart point and replayed
/// forward, with any unreplayable difference added to `lost_mass`.
fn try_recover<B: StreamAggregate + Clone>(
    ctx: &WorkerCtx<B>,
    backend: &mut B,
    buf: &[Msg],
    items: &mut Vec<(Time, u64)>,
    batch_mass: u64,
    applied_mass: &mut u64,
) -> bool {
    if ctx.state.restarts.load(Ordering::Relaxed) >= ctx.max_restarts {
        let mut note = ctx.state.last_panic.lock().expect("panic-note mutex");
        let panic = note.take().unwrap_or_default();
        *note = Some(format!("{panic} (restart budget exhausted)"));
        return false;
    }
    let restore = |backend: &mut B| {
        let restored = ctx.state.restore_restart_point(backend);
        restored.map_err(|e| {
            ctx.state
                .note_failure(format!("checkpoint restore failed: {e}"))
        })
    };
    let Ok(mass) = restore(backend) else {
        return false;
    };
    // Mass applied after the restart point was taken is gone for good —
    // the ring no longer holds those messages. (Zero at the default
    // checkpoint-every-chunk cadence.)
    let gap = applied_mass.saturating_sub(mass);
    ctx.state.lost_mass.fetch_add(gap, Ordering::Release);
    *applied_mass = mass;
    // Replay the failed chunk against the restored state.
    match catch_unwind(AssertUnwindSafe(|| apply_chunk(backend, buf, items))) {
        Ok(()) => {
            *applied_mass = applied_mass.saturating_add(batch_mass);
            true
        }
        Err(payload) => {
            // Deterministic poison pill: the chunk dies on clean state
            // too. Skip it (with its mass accounted) rather than
            // crash-looping.
            ctx.state.panics.fetch_add(1, Ordering::Relaxed);
            if restore(backend).is_err() {
                return false;
            }
            ctx.state.note_failure(format!(
                "poison chunk skipped after replay panic: {}",
                panic_text(payload)
            ));
            ctx.state.lost_mass.fetch_add(batch_mass, Ordering::Release);
            true
        }
    }
}

/// The worker: drain the ring in chunks, apply under `catch_unwind`,
/// checkpoint on cadence, self-heal from panics, publish progress
/// through `applied`. On shutdown it drains the ring to empty before
/// exiting, so no submitted item is ever dropped; on quarantine it
/// exits immediately and the coordinator stops routing to it.
fn worker_loop<B: StreamAggregate + Clone>(ctx: WorkerCtx<B>, mut rx: spsc::Consumer<Msg>) {
    let mut buf: Vec<Msg> = Vec::with_capacity(DRAIN_BATCH);
    let mut items: Vec<(Time, u64)> = Vec::with_capacity(DRAIN_BATCH);
    // Cumulative observation mass applied to the backend. Worker-local:
    // only recovery and checkpointing need it.
    let mut applied_mass: u64 = 0;
    let mut chunks_since_ckpt: u64 = 0;
    let mut last_idle_flush = Instant::now();
    loop {
        buf.clear();
        if rx.pop_chunk(&mut buf, DRAIN_BATCH) == 0 {
            if ctx.state.shutdown.load(Ordering::Acquire) {
                // The shutdown flag is stored *after* the final push, so
                // seeing it (Acquire) means every in-flight item is
                // already visible through the ring: one more empty pop
                // proves the ring is drained for good.
                if rx.pop_chunk(&mut buf, DRAIN_BATCH) == 0 {
                    break;
                }
            } else {
                // Background fsync tick: batched sync policies advance
                // on logged traffic, so a stream that goes silent right
                // after an unsynced append would leave those bytes
                // exposed indefinitely. Once per cadence, an idle
                // worker makes any silent-but-dirty WAL tail durable.
                if let (Some(store), Some(cadence)) = (&ctx.state.store, ctx.wal_flush_idle) {
                    if last_idle_flush.elapsed() >= cadence {
                        let mut store = store.lock().expect("durable store mutex");
                        if store.unsynced_records() > 0 {
                            if let Err(e) = store.flush() {
                                ctx.state
                                    .note_failure(format!("idle WAL flush failed: {e}"));
                            }
                        }
                        drop(store);
                        last_idle_flush = Instant::now();
                    }
                }
                thread::park_timeout(IDLE_PARK);
                continue;
            }
        }
        let batch_mass = slice_mass(&buf);
        // Write-ahead: the chunk is in the log before it can touch the
        // backend. A shard that cannot persist its history anymore is
        // quarantined — its in-memory state would otherwise silently
        // run ahead of what a restart could rebuild. Chunk boundaries
        // are record boundaries, so recovery replays the same
        // `apply_chunk` calls; the chunk is encoded straight from the
        // ring's messages.
        if let Some(store) = &ctx.state.store {
            let logged = store
                .lock()
                .expect("durable store mutex")
                .append_record(ctx.state.shard, buf.iter().map(msg_to_entry));
            if let Err(e) = logged {
                ctx.state.note_failure(format!("WAL append failed: {e}"));
                ctx.state.lost_mass.fetch_add(batch_mass, Ordering::Release);
                ctx.state
                    .health
                    .store(HEALTH_QUARANTINED, Ordering::Release);
                break;
            }
        }
        let survived = {
            // The panic is caught *inside* the guard scope, so the
            // guard is always dropped on the normal path and the mutex
            // is never poisoned.
            let mut backend = ctx
                .state
                .backend
                .lock()
                .expect("backend mutex unpoisonable");
            match catch_unwind(AssertUnwindSafe(|| {
                apply_chunk(&mut *backend, &buf, &mut items)
            })) {
                Ok(()) => {
                    applied_mass = applied_mass.saturating_add(batch_mass);
                    chunks_since_ckpt += 1;
                    ctx.state
                        .ckpt_age
                        .store(chunks_since_ckpt, Ordering::Relaxed);
                    if chunks_since_ckpt >= ctx.checkpoint_every {
                        // Disk first: the restart point only advances
                        // once its on-disk twin landed, so a restore can
                        // fall back from one to the other with shared
                        // mass bookkeeping. A failed disk write keeps
                        // the older restart point, which no longer
                        // claims the disk copy (the write may have half
                        // landed), and retries next chunk. Only the
                        // disk copy is encoded; the restart point is
                        // typed.
                        let saved = ctx.state.store.as_ref().map_or(Ok(()), |store| {
                            let envelope = (ctx.state.ckpt_ops.save)(&backend);
                            store
                                .lock()
                                .expect("durable store mutex")
                                .save_shard_checkpoint(ctx.state.shard, &envelope)
                        });
                        let mut rec = ctx.state.ckpt.lock().expect("checkpoint mutex");
                        match saved {
                            Ok(()) => {
                                rec.snapshot.clone_from(&backend);
                                rec.mass = applied_mass;
                                rec.on_disk = true;
                                chunks_since_ckpt = 0;
                                ctx.state.ckpt_age.store(0, Ordering::Relaxed);
                            }
                            Err(e) => {
                                rec.on_disk = false;
                                ctx.state
                                    .note_failure(format!("durable checkpoint failed: {e}"));
                            }
                        }
                    }
                    true
                }
                Err(payload) => {
                    ctx.state.panics.fetch_add(1, Ordering::Relaxed);
                    ctx.state.note_failure(panic_text(payload));
                    ctx.state.health.store(HEALTH_FAILED, Ordering::Release);
                    let recovered = try_recover(
                        &ctx,
                        &mut backend,
                        &buf,
                        &mut items,
                        batch_mass,
                        &mut applied_mass,
                    );
                    if recovered {
                        chunks_since_ckpt = 0;
                        ctx.state.ckpt_age.store(0, Ordering::Relaxed);
                        ctx.state.restarts.fetch_add(1, Ordering::Relaxed);
                        ctx.state.health.store(HEALTH_LIVE, Ordering::Release);
                    } else {
                        ctx.state
                            .health
                            .store(HEALTH_QUARANTINED, Ordering::Release);
                    }
                    recovered
                }
            }
        };
        if !survived {
            // Quarantined: exit without publishing progress for the
            // failed chunk. Dropping `rx` closes the ring, and the
            // coordinator routes around this shard from now on.
            break;
        }
        // Release-publish progress only after the backend mutation (or
        // recovery) is complete; the coordinator's Acquire read in the
        // barrier pairs with this.
        ctx.state
            .applied
            .fetch_add(buf.len() as u64, Ordering::Release);
    }
}

impl<B> Shard<B> {
    fn health(&self) -> u8 {
        self.state.health.load(Ordering::Acquire)
    }

    /// Pushes messages subject to the backpressure policy, accounting
    /// everything: enqueued messages/mass in `submitted*`, shed
    /// messages/mass in `dropped*`. Never blocks on a quarantined
    /// shard.
    fn push_all(&mut self, msgs: &[Msg], policy: BackpressurePolicy) {
        let mut sent = 0usize;
        if self.health() != HEALTH_QUARANTINED {
            let mut stalled = false;
            while sent < msgs.len() {
                let n = self.tx.push_slice(&msgs[sent..]);
                sent += n;
                if sent == msgs.len() {
                    break;
                }
                if n > 0 {
                    stalled = false;
                    continue;
                }
                // Ring full. A quarantined worker will never drain it.
                if self.health() == HEALTH_QUARANTINED {
                    break;
                }
                match policy {
                    BackpressurePolicy::Block => {
                        if !stalled {
                            self.blocked_pushes.fetch_add(1, Ordering::Relaxed);
                            stalled = true;
                        }
                        self.thread.unpark();
                        thread::yield_now();
                    }
                    BackpressurePolicy::DropNewest => break,
                }
            }
        }
        if sent > 0 {
            self.submitted.fetch_add(sent as u64, Ordering::Release);
            self.submitted_mass
                .fetch_add(slice_mass(&msgs[..sent]), Ordering::Release);
            // Wake an idle worker once `WAKE_AFTER` messages wait for
            // it, not after its park timeout: the ring would fill while
            // it sleeps.
            self.unwoken += sent;
            if self.unwoken >= WAKE_AFTER {
                self.unwoken = 0;
                self.thread.unpark();
            }
        }
        let rest = &msgs[sent..];
        if !rest.is_empty() {
            self.dropped_msgs
                .fetch_add(rest.len() as u64, Ordering::Relaxed);
            self.dropped_mass
                .fetch_add(slice_mass(rest), Ordering::Relaxed);
        }
    }
}

/// SplitMix64 finalizer: a full-avalanche integer hash, so adjacent
/// keys spread across shards.
fn hash_key(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<B: StreamAggregate + Checkpoint + Clone + Send + 'static> ShardedAggregate<B> {
    /// Spawns a **supervised** engine: workers checkpoint their
    /// backends on the configured cadence and self-heal from panics by
    /// restoring the last good checkpoint and replaying the failed
    /// chunk (see the crate docs for the full failure model).
    pub fn supervised(shards: usize, opts: SupervisorOptions, make: impl Fn() -> B) -> Self {
        Self::build(shards, opts, &make, None)
    }

    /// Spawns a supervised engine whose state **survives process
    /// death**: every drained chunk is appended to a write-ahead log
    /// before it is applied, checkpoints are mirrored to disk on the
    /// [`SupervisorOptions::checkpoint_every_chunks`] cadence, and
    /// opening the same storage again recovers newest-checkpoint +
    /// WAL-tail replay into the exact state the workers held (see
    /// `td-persist` for the format and the crash-consistency
    /// argument).
    ///
    /// Returns the engine plus a [`RecoveryReport`] describing what
    /// was found on disk (all zeros for a fresh directory). Recovery
    /// damage surfaces as a typed [`RestoreError`] — torn mid-file
    /// records, unloadable checkpoints, truncation gaps and keyed
    /// (kind-2) histories all refuse deterministically rather than
    /// serving a silently shortened history.
    ///
    /// `make` must construct the same backend configuration the store
    /// was originally run with (configuration is never persisted,
    /// matching the [`Checkpoint`] contract).
    pub fn durable(
        shards: usize,
        opts: SupervisorOptions,
        durability: DurabilityConfig,
        make: impl Fn() -> B,
    ) -> Result<(Self, RecoveryReport), RestoreError> {
        let mut backends: Vec<B> = (0..shards).map(|_| make()).collect();
        let (mut chunk, mut items) = (Vec::new(), Vec::new());
        let mut tails = vec![false; shards];
        // A record is one drained chunk, so `apply_chunk` reproduces
        // the exact batched call pattern the worker applied and the
        // recovered state is bit-identical.
        let (store, report) = DurableStore::open(
            durability.storage,
            durability.options,
            &mut backends,
            |backend, rec| {
                tails[rec.shard as usize] = true;
                chunk.clear();
                for e in &rec.entries {
                    chunk.push(match *e {
                        WalEntry::Observe(t, f) => Msg::Observe(t, f),
                        WalEntry::Advance(t) => Msg::Advance(t),
                        // Keys were never resolved to shards, so a
                        // keyed history has no shard-level meaning.
                        WalEntry::ObserveKeyed(..) => return Err(keyed_entry_error()),
                    });
                }
                apply_chunk(backend, &chunk, &mut items);
                Ok(())
            },
        )?;
        let eng = Self::build(shards, opts, &make, Some((store, backends, tails)));
        eng.last_t.store(report.resumed_at, Ordering::Release);
        Ok((eng, report))
    }

    /// Spawns one worker per shard. Every shard must be built from the
    /// *same* configuration (same decay, ε, caps): `merge_from` asserts
    /// compatibility when the serving summary is folded. `durable`
    /// carries an opened store, the backends it recovered and, per
    /// shard, whether a WAL tail was replayed on top of its checkpoint.
    fn build(
        shards: usize,
        opts: SupervisorOptions,
        make: &dyn Fn() -> B,
        durable: Option<(DurableStore, Vec<B>, Vec<bool>)>,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let ckpt_ops = CkptFns {
            save: B::save_checkpoint,
            restore: B::restore_checkpoint,
        };
        let template = make();
        // Per shard: the backend, whether it holds recovered history,
        // and whether the store's checkpoint of the shard holds it too.
        let (durable_store, seeds): (_, Vec<(B, bool, bool)>) = match durable {
            Some((store, backends, tails)) => {
                let seeds = (0..shards as u32)
                    .zip(backends)
                    .zip(tails)
                    .map(|((i, b), tail)| (b, store.entries_applied(i) > 0, !tail))
                    .collect();
                (Some(Arc::new(Mutex::new(store))), seeds)
            }
            None => (None, (0..shards).map(|_| (make(), false, false)).collect()),
        };
        let mut handles = Vec::with_capacity(shards);
        for (i, (backend, recovered, on_disk)) in seeds.into_iter().enumerate() {
            let (tx, rx) = spsc::ring::<Msg>(opts.ring_capacity);
            // Seed the restart point with the opening backend, so a
            // shard that dies before its first save still restores to a
            // valid state with its whole submitted mass at risk.
            let initial = CkptRecord {
                snapshot: backend.clone(),
                mass: 0,
                on_disk,
            };
            let state = Arc::new(ShardState {
                backend: Mutex::new(backend),
                applied: CachePadded::new(AtomicU64::new(0)),
                shutdown: AtomicBool::new(false),
                health: AtomicU8::new(HEALTH_LIVE),
                panics: AtomicU64::new(0),
                restarts: AtomicU64::new(0),
                lost_mass: AtomicU64::new(0),
                ckpt_age: AtomicU64::new(0),
                ckpt: Mutex::new(initial),
                recovered,
                ckpt_ops,
                store: durable_store.clone(),
                shard: i as u32,
                last_panic: Mutex::new(None),
            });
            let ctx = WorkerCtx {
                state: Arc::clone(&state),
                max_restarts: opts.max_restarts,
                checkpoint_every: opts.checkpoint_every_chunks.max(1),
                wal_flush_idle: opts.wal_flush_idle,
            };
            let worker = thread::Builder::new()
                .name(format!("td-shard-{i}"))
                .spawn(move || worker_loop(ctx, rx))
                .expect("spawn shard worker");
            let thread = worker.thread().clone();
            handles.push(Shard {
                state,
                tx,
                submitted: CachePadded::new(AtomicU64::new(0)),
                submitted_mass: CachePadded::new(AtomicU64::new(0)),
                blocked_pushes: AtomicU64::new(0),
                dropped_msgs: AtomicU64::new(0),
                dropped_mass: AtomicU64::new(0),
                unwoken: 0,
                worker: Some(worker),
                thread,
            });
        }
        ShardedAggregate {
            scratch: (0..shards).map(|_| Vec::new()).collect(),
            shards: handles,
            backpressure: opts.backpressure,
            barrier_deadline: opts.barrier_deadline,
            rr_next: 0,
            last_t: AtomicU64::new(0),
            cache: Mutex::new(Cache {
                merged: None,
                epochs: Vec::new(),
                hits: 0,
                rebuilds: 0,
                last_bound: None,
            }),
            template,
            extra_risk: AtomicU64::new(0),
            durable_store,
            watermark: AtomicU64::new(0),
            watermark_published: AtomicBool::new(false),
        }
    }
}

impl<B: StreamAggregate + Clone + Send + 'static> ShardedAggregate<B> {
    /// Records the watermark `W` of an upstream reordering stage
    /// (monotone: a lower `w` never regresses it). Published next to
    /// the applied-epoch counters so every [`Answer`] can report
    /// "complete up to `W`". [`reordered`](Self::reordered) installs
    /// this as the stage's watermark hook automatically.
    pub fn publish_watermark(&self, w: Time) {
        self.watermark.fetch_max(w, Ordering::AcqRel);
        self.watermark_published.store(true, Ordering::Release);
    }

    /// The most recently published reorder watermark, or `None` when no
    /// reordering stage has ever published one.
    pub fn watermark(&self) -> Option<Time> {
        if self.watermark_published.load(Ordering::Acquire) {
            Some(self.watermark.load(Ordering::Acquire))
        } else {
            None
        }
    }

    /// The tick up to which served answers are complete: the published
    /// watermark when a reordering stage fronts this engine, otherwise
    /// the clock high-water mark (the query barrier guarantees that
    /// everything submitted in order is applied).
    pub fn complete_up_to(&self) -> Time {
        self.watermark()
            .unwrap_or_else(|| self.last_t.load(Ordering::Acquire))
    }

    /// Wraps this engine in a bounded-lateness
    /// [`Reorderer`](td_reorder::Reorderer): out-of-order items are
    /// buffered per source, released to `observe_batch` in sorted order
    /// once the watermark `W = max_seen − allowed_lateness` passes
    /// them, and beyond-bound items follow `policy`. The stage's
    /// watermark hook publishes `W` into this engine
    /// ([`publish_watermark`](Self::publish_watermark)), so
    /// [`try_query`](Self::try_query) answers report
    /// `complete_up_to = W`.
    ///
    /// `decay` must match the decay the shard backends aggregate under;
    /// it prices the envelope widening of folded late mass. `sources`
    /// is the number of independent arrival sequences (each gets its
    /// own reorder buffer).
    pub fn reordered(
        self,
        decay: Box<dyn td_decay::DecayFunction>,
        allowed_lateness: u64,
        policy: td_reorder::LatenessPolicy,
        sources: usize,
    ) -> td_reorder::Reorderer<Self> {
        td_reorder::Reorderer::with_sources(self, decay, allowed_lateness, policy, sources)
            .on_watermark(Box::new(|eng: &mut Self, w| eng.publish_watermark(w)))
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// `(hits, rebuilds)` of the epoch cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = self.cache.lock().expect("cache poisoned");
        (c.hits, c.rebuilds)
    }

    /// Per-shard health and accounting counters. Cheap (atomic reads);
    /// safe to poll from monitoring.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let wal_tail_len = self
            .durable_store
            .as_ref()
            .map_or(0, |s| s.lock().expect("durable store mutex").wal_tail_len());
        self.shards
            .iter()
            .enumerate()
            .map(|(i, sh)| ShardStats {
                shard: i,
                health: health_of(sh.health()),
                submitted: sh.submitted.load(Ordering::Acquire),
                applied: sh.state.applied.load(Ordering::Acquire),
                blocked_pushes: sh.blocked_pushes.load(Ordering::Relaxed),
                dropped_msgs: sh.dropped_msgs.load(Ordering::Relaxed),
                dropped_mass: sh.dropped_mass.load(Ordering::Relaxed),
                lost_mass: sh.state.lost_mass.load(Ordering::Acquire),
                panics: sh.state.panics.load(Ordering::Relaxed),
                restarts: sh.state.restarts.load(Ordering::Relaxed),
                checkpoint_age: sh.state.ckpt_age.load(Ordering::Relaxed),
                wal_tail_len,
                last_panic: sh
                    .state
                    .last_panic
                    .lock()
                    .expect("panic-note mutex")
                    .clone(),
            })
            .collect()
    }

    /// Forces every record appended so far onto durable storage,
    /// regardless of the configured [`SyncPolicy`](td_persist::SyncPolicy).
    /// No-op (Ok) on engines built without durability. Call after a
    /// [`query`](StreamAggregate::query) barrier to guarantee that
    /// everything the answer reflects would survive a crash.
    pub fn flush_wal(&self) -> Result<(), RestoreError> {
        match &self.durable_store {
            Some(s) => s.lock().expect("durable store mutex").flush(),
            None => Ok(()),
        }
    }

    fn note_time(&mut self, t: Time) {
        let last = self.last_t.load(Ordering::Relaxed);
        assert!(t >= last, "time went backwards: {t} < {last}");
        self.last_t.store(t, Ordering::Release);
    }

    /// The round-robin target of the next item, advancing the cursor:
    /// the cursor's shard, or [`route`](Self::route)'s fallback only
    /// when that shard is quarantined. The cursor wraps by compare, so
    /// the per-item path has no division.
    fn next_round_robin(&mut self) -> usize {
        let i = self.rr_next;
        self.rr_next = if i + 1 == self.shards.len() { 0 } else { i + 1 };
        if self.shards[i].health() == HEALTH_QUARANTINED {
            self.route(i)
        } else {
            i
        }
    }

    /// The next ingest target: `preferred` if live, else the next live
    /// shard after it (wrapping). Returns `preferred` itself when every
    /// shard is quarantined — `push_all` then accounts the drop.
    fn route(&self, preferred: usize) -> usize {
        let n = self.shards.len();
        for off in 0..n {
            let i = (preferred + off) % n;
            if self.shards[i].health() != HEALTH_QUARANTINED {
                return i;
            }
        }
        preferred
    }

    /// Routes one item to the shard owning `key`'s substream. Under
    /// failures the key's shard may be quarantined; the item is then
    /// rerouted to the next live shard (key locality is best-effort
    /// once shards start dying, mass accounting is not).
    pub fn observe_keyed(&mut self, key: u64, t: Time, f: u64) {
        self.note_time(t);
        let i = self.route((hash_key(key) % self.shards.len() as u64) as usize);
        let policy = self.backpressure;
        self.shards[i].push_all(&[Msg::Observe(t, f)], policy);
    }

    /// Waits until every live shard has applied everything submitted to
    /// it. Returns the indices of quarantined shards (which will never
    /// catch up and are excluded from the wait). `Err(i)` means shard
    /// `i` hit `deadline` while neither caught-up nor quarantined.
    /// Shards in `skip` are not waited on.
    fn barrier_check(
        &self,
        deadline: Option<Instant>,
        skip: &[usize],
    ) -> Result<Vec<usize>, usize> {
        let mut dead = Vec::new();
        for (i, sh) in self.shards.iter().enumerate() {
            if skip.contains(&i) {
                continue;
            }
            let target = sh.submitted.load(Ordering::Acquire);
            let mut spins = 0u32;
            loop {
                if sh.health() == HEALTH_QUARANTINED {
                    dead.push(i);
                    break;
                }
                if sh.state.applied.load(Ordering::Acquire) >= target {
                    break;
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(i);
                    }
                }
                sh.thread.unpark();
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
        Ok(dead)
    }

    /// Mass that no folded state can ever cover again: shed load
    /// (DropNewest / all-dead rerouting), recovery losses, and risk
    /// inherited from merged-in engines. Widens *every* answer.
    fn widening_mass(&self) -> u64 {
        let mut m = self.extra_risk.load(Ordering::Acquire);
        for sh in &self.shards {
            m = m
                .saturating_add(sh.state.lost_mass.load(Ordering::Acquire))
                .saturating_add(sh.dropped_mass.load(Ordering::Acquire));
        }
        m
    }

    /// Snapshots live shards (skipping `dead`, whose restart points
    /// are folded instead), advances everything to the shared clock,
    /// and folds into one summary. Returns the summary and the total
    /// mass at risk (uncovered dead-shard mass + global widening mass,
    /// [`UNKNOWN_MASS`] once a dead shard's recovered history is lost).
    fn fold_parts(&self, dead: &[usize]) -> (B, u64) {
        let t_sync = self.last_t.load(Ordering::Acquire);
        let mut parts: Vec<B> = Vec::with_capacity(self.shards.len());
        let mut risk = self.widening_mass();
        for (i, sh) in self.shards.iter().enumerate() {
            if dead.contains(&i) {
                let submitted_mass = sh.submitted_mass.load(Ordering::Acquire);
                let mut b = self.template.clone();
                // A failed restore (corruption) is *detected*: the
                // restart point is discarded and the whole submitted
                // mass goes at risk instead of being silently wrong —
                // with a recovered history the store kept no mass for,
                // an unknown amount.
                let missing = match sh.state.restore_restart_point(&mut b) {
                    Ok(covered) => {
                        parts.push(b);
                        submitted_mass.saturating_sub(covered)
                    }
                    Err(_) if sh.state.recovered => UNKNOWN_MASS,
                    Err(_) => submitted_mass,
                };
                risk = risk.saturating_add(missing);
            } else {
                parts.push(
                    sh.state
                        .backend
                        .lock()
                        .expect("backend mutex unpoisonable")
                        .snapshot(),
                );
            }
        }
        (merge_at(parts, t_sync, || self.template.clone()), risk)
    }

    /// Refreshes (or reuses) the epoch-cached merged summary. Callers
    /// must have barriered and verified that no shard is quarantined.
    fn refreshed_cache(&self) -> MutexGuard<'_, Cache<B>> {
        let mut cache = self.cache.lock().expect("cache poisoned");
        let fresh = self
            .shards
            .iter()
            .map(|sh| CachePadded::new(sh.state.applied.load(Ordering::Acquire)))
            .collect::<Vec<_>>();
        if cache.merged.is_none() || cache.epochs != fresh {
            cache.merged = Some(self.fold_parts(&[]).0);
            cache.epochs = fresh;
            cache.rebuilds += 1;
        } else {
            cache.hits += 1;
        }
        cache
    }

    /// The one query path: barrier (bounded by `deadline`; `wedged`
    /// shards count as dead), then the healthy epoch-cached summary or
    /// a fold of live snapshots and dead shards' checkpoints with the
    /// mass at risk as missing weight (DESIGN.md §9, "Envelopes"), then
    /// the `last_bound` update. `Err(i)`: shard `i` missed the deadline.
    /// `t = None` asks for the envelope alone: a NaN-valued answer when
    /// healthy, `Ok(None)` when degraded.
    fn serve(
        &self,
        t: Option<Time>,
        deadline: Option<Instant>,
        wedged: &[usize],
    ) -> Result<Option<Answer>, usize> {
        let mut dead = self.barrier_check(deadline, wedged)?;
        dead.extend_from_slice(wedged);
        dead.sort_unstable();
        dead.dedup();
        let healthy = dead.is_empty() && self.widening_mass() == 0;
        if t.is_none() && !healthy {
            return Ok(None);
        }
        let answer = |merged: &B, risk: u64| {
            let value = t.map_or(f64::NAN, |t| merged.query(t));
            let mut env = Envelope::from(merged.error_bound());
            if risk > 0 {
                let mass = if risk == UNKNOWN_MASS {
                    f64::INFINITY
                } else {
                    risk as f64
                };
                env = env.missing(mass, self.template.unit_weight_cap());
            }
            Answer {
                value,
                bound: env.to_bound(value),
                degraded: dead.clone(),
                complete_up_to: self.complete_up_to(),
            }
        };
        if healthy {
            let mut cache = self.refreshed_cache();
            let ans = answer(cache.merged.as_ref().expect("refreshed_cache builds it"), 0);
            cache.last_bound = Some(ans.bound);
            return Ok(Some(ans));
        }
        let (merged, risk) = self.fold_parts(&dead);
        let ans = answer(&merged, risk);
        self.cache.lock().expect("cache poisoned").last_bound = Some(ans.bound);
        Ok(Some(ans))
    }

    /// The full-fidelity query path: barrier with a deadline, then
    /// either the healthy epoch-cached answer or a degraded answer
    /// folded from live snapshots plus dead shards' checkpoints, with
    /// the envelope widened by the mass at risk.
    ///
    /// `Err(QueryError::Wedged)` means some shard neither caught up nor
    /// quarantined within
    /// [`SupervisorOptions::barrier_deadline`] — the caller decides
    /// whether to retry, give up, or accept a checkpoint-served answer
    /// via the trait-level [`StreamAggregate::query`].
    pub fn try_query(&self, t: Time) -> Result<Answer, QueryError> {
        let deadline = Instant::now() + self.barrier_deadline;
        match self.serve(Some(t), Some(deadline), &[]) {
            Ok(ans) => Ok(ans.expect("a query tick always answers")),
            Err(shard) => Err(QueryError::Wedged { shard }),
        }
    }

    /// Shuts the workers down (each drains its ring to empty first),
    /// joins them, and folds the shard backends into one owned summary.
    /// Nothing submitted before the call is lost.
    ///
    /// A shard that panicked past recovery surfaces as
    /// `Err(`[`ShardError`]`)` carrying the shard index and the
    /// captured panic payload — never a coordinator-side panic. All
    /// workers are joined before returning either way.
    pub fn into_merged(mut self) -> Result<B, ShardError> {
        let t_sync = self.last_t.load(Ordering::Acquire);
        let shards = std::mem::take(&mut self.shards);
        // Signal everyone before joining anyone, so a failure in one
        // shard cannot leave another's worker spinning forever.
        for sh in &shards {
            sh.state.shutdown.store(true, Ordering::Release);
            sh.thread.unpark();
        }
        let mut first_err: Option<ShardError> = None;
        let mut backends: Vec<B> = Vec::with_capacity(shards.len());
        for (i, mut sh) in shards.into_iter().enumerate() {
            if let Some(h) = sh.worker.take() {
                if h.join().is_err() && first_err.is_none() {
                    // Workers catch panics internally; an unwinding
                    // join means the supervisor machinery itself died.
                    first_err = Some(ShardError {
                        shard: i,
                        payload: "worker thread panicked outside the supervised region".into(),
                    });
                    continue;
                }
            }
            if sh.health() == HEALTH_QUARANTINED {
                if first_err.is_none() {
                    let payload = sh
                        .state
                        .last_panic
                        .lock()
                        .expect("panic-note mutex")
                        .clone()
                        .unwrap_or_else(|| "quarantined".into());
                    first_err = Some(ShardError { shard: i, payload });
                }
                continue;
            }
            match Arc::try_unwrap(sh.state) {
                Ok(state) => backends.push(
                    state
                        .backend
                        .into_inner()
                        .expect("backend mutex unpoisonable"),
                ),
                Err(_) => {
                    if first_err.is_none() {
                        first_err = Some(ShardError {
                            shard: i,
                            payload: "worker exited but still holds shard state".into(),
                        });
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(merge_at(backends, t_sync, || self.template.clone()))
    }
}

impl<B: StreamAggregate + Clone + Send + 'static> StreamAggregate for ShardedAggregate<B> {
    fn observe(&mut self, t: Time, f: u64) {
        self.note_time(t);
        let i = self.next_round_robin();
        let policy = self.backpressure;
        self.shards[i].push_all(&[Msg::Observe(t, f)], policy);
    }

    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let Some(&(last, _)) = items.last() else {
            return;
        };
        // Validate the whole batch on the caller's thread: a violation
        // inside a worker would kill the shard and hang later barriers.
        let mut prev = self.last_t.load(Ordering::Relaxed);
        for &(t, _) in items {
            assert!(
                t >= prev,
                "batch times must be non-decreasing: {t} < {prev}"
            );
            prev = t;
        }
        self.note_time(last);
        for buf in &mut self.scratch {
            buf.clear();
        }
        for &(t, f) in items {
            let i = self.next_round_robin();
            self.scratch[i].push(Msg::Observe(t, f));
        }
        let policy = self.backpressure;
        for (sh, buf) in self.shards.iter_mut().zip(&self.scratch) {
            if !buf.is_empty() {
                sh.push_all(buf, policy);
            }
        }
    }

    fn batched_ingest_amortizes(&self) -> bool {
        true // one queue handoff per shard per batch, not per item
    }

    fn advance(&mut self, t: Time) {
        self.note_time(t);
        let policy = self.backpressure;
        for sh in &mut self.shards {
            sh.push_all(&[Msg::Advance(t)], policy);
        }
    }

    /// Never hangs and never panics on shard failure: healthy engines
    /// serve the epoch-cached merged summary; degraded engines fold
    /// live snapshots plus dead shards' checkpoints; a shard that
    /// misses the barrier deadline is treated as dead *for this query*
    /// and served from its checkpoint too. Use
    /// [`try_query`](ShardedAggregate::try_query) to receive the
    /// envelope and the degraded-shard list alongside the value.
    fn query(&self, t: Time) -> f64 {
        let mut wedged: Vec<usize> = Vec::new();
        loop {
            let deadline = Instant::now() + self.barrier_deadline;
            match self.serve(Some(t), Some(deadline), &wedged) {
                Ok(ans) => return ans.expect("a query tick always answers").value,
                Err(shard) => wedged.push(shard),
            }
        }
    }

    /// Folds another sharded engine's summary into the first live shard
    /// of this one. Both engines are quiesced at their barriers; both
    /// sides are advanced to the later of the two clocks first (the
    /// folded-in mass is strictly past by then, so visibility is
    /// unchanged). Mass at risk in `other` (dead shards, shed load)
    /// carries over into this engine's widening mass.
    fn merge_from(&mut self, other: &Self) {
        let self_dead = self
            .barrier_check(None, &[])
            .expect("no deadline, cannot wedge");
        let other_dead = other
            .barrier_check(None, &[])
            .expect("no deadline, cannot wedge");
        let t_common = self
            .last_t
            .load(Ordering::Acquire)
            .max(other.last_t.load(Ordering::Acquire));
        let (mut theirs, their_risk) = other.fold_parts(&other_dead);
        if t_common > 0 {
            theirs.advance(t_common);
        }
        let target = (0..self.shards.len())
            .find(|i| !self_dead.contains(i))
            .expect("no live shard left to merge into");
        {
            let mut backend = self.shards[target]
                .state
                .backend
                .lock()
                .expect("backend mutex unpoisonable");
            if t_common > 0 {
                backend.advance(t_common);
            }
            backend.merge_from(&theirs);
        }
        let risk = self.extra_risk.get_mut();
        *risk = risk.saturating_add(their_risk);
        self.last_t.store(t_common, Ordering::Release);
        // The fold changed the target shard without moving its applied
        // counter: drop the cached summary explicitly.
        let cache = self.cache.get_mut().expect("cache poisoned");
        cache.merged = None;
        cache.epochs.clear();
        cache.last_bound = None;
    }

    /// The serving envelope. Healthy engines read it from the merged
    /// summary (merge fan-in widening, k·ε for the EH family, is
    /// already folded into its state). Degraded engines report the
    /// widened envelope of the most recent answer — issue a query
    /// first; with no answer to stand on the envelope is unbounded.
    fn error_bound(&self) -> ErrorBound {
        let deadline = Instant::now() + self.barrier_deadline;
        match self.serve(None, Some(deadline), &[]) {
            Ok(Some(ans)) => ans.bound,
            _ => self
                .cache
                .lock()
                .expect("cache poisoned")
                .last_bound
                .unwrap_or_else(ErrorBound::unbounded),
        }
    }

    fn unit_weight_cap(&self) -> f64 {
        self.template.unit_weight_cap()
    }
}

impl<B: StreamAggregate + Clone + Send + 'static> StorageAccounting for ShardedAggregate<B> {
    /// Total bits across the live shards (the cache is serving state,
    /// not summary state, and is excluded — it duplicates the shards;
    /// quarantined shards' torn state is excluded too).
    fn storage_bits(&self) -> u64 {
        let dead = self
            .barrier_check(None, &[])
            .expect("no deadline, cannot wedge");
        self.shards
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, sh)| {
                sh.state
                    .backend
                    .lock()
                    .expect("backend mutex unpoisonable")
                    .storage_bits()
            })
            .sum()
    }
}

impl<B> Drop for ShardedAggregate<B> {
    fn drop(&mut self) {
        for sh in &mut self.shards {
            sh.state.shutdown.store(true, Ordering::Release);
            sh.thread.unpark();
            if let Some(h) = sh.worker.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use td_counters::{ExactDecayedSum, ExpCounter};
    use td_decay::{Constant, DecayFunction, Exponential, Polynomial};
    use td_persist::MemStorage;
    use td_wbmh::Wbmh;

    /// A deterministic interleaved stream with bursts and silences.
    fn stream(n: usize) -> Vec<(Time, u64)> {
        let mut out = Vec::with_capacity(n);
        let mut t = 1u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += x % 3;
            out.push((t, 1 + x % 7));
        }
        out
    }

    /// A backend wrapper that panics once, on the Nth `observe_batch`
    /// call across all clones sharing the trigger.
    #[derive(Clone, Debug)]
    struct PanicOnNth<B> {
        inner: B,
        calls: Arc<AtomicU64>,
        fire_at: u64,
    }

    impl<B> PanicOnNth<B> {
        fn wrap(inner: B, calls: Arc<AtomicU64>, fire_at: u64) -> Self {
            PanicOnNth {
                inner,
                calls,
                fire_at,
            }
        }
    }

    impl<B: StorageAccounting> StorageAccounting for PanicOnNth<B> {
        fn storage_bits(&self) -> u64 {
            self.inner.storage_bits()
        }
    }

    impl<B: StreamAggregate + Clone> StreamAggregate for PanicOnNth<B> {
        fn observe(&mut self, t: Time, f: u64) {
            self.inner.observe(t, f)
        }
        fn observe_batch(&mut self, items: &[(Time, u64)]) {
            if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.fire_at {
                panic!("injected fault");
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
        fn unit_weight_cap(&self) -> f64 {
            self.inner.unit_weight_cap()
        }
    }

    impl<B: StreamAggregate + Checkpoint + Clone> Checkpoint for PanicOnNth<B> {
        fn save_checkpoint(&self) -> Vec<u8> {
            self.inner.save_checkpoint()
        }
        fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.inner.restore_checkpoint(bytes)
        }
    }

    #[test]
    fn matches_single_backend_exp_counter() {
        let items = stream(2000);
        let mut single = ExpCounter::new(Exponential::new(0.01));
        let mut sharded = ShardedAggregate::supervised(4, SupervisorOptions::default(), || {
            ExpCounter::new(Exponential::new(0.01))
        });
        for &(t, f) in &items {
            single.observe(t, f);
            sharded.observe(t, f);
        }
        let probe = items.last().unwrap().0 + 3;
        let got = sharded.query(probe);
        let want = single.query(probe);
        assert!(
            (got - want).abs() <= want.abs() * 1e-9 + 1e-9,
            "sharded {got} vs single {want}"
        );
    }

    #[test]
    fn matches_single_backend_wbmh_within_envelope() {
        let items = stream(3000);
        let mut single = Wbmh::new(Polynomial::new(1.0), 0.1, 1 << 30);
        let mut sharded = ShardedAggregate::supervised(3, SupervisorOptions::default(), || {
            Wbmh::new(Polynomial::new(1.0), 0.1, 1 << 30)
        });
        single.observe_batch(&items);
        sharded.observe_batch(&items);
        let probe = items.last().unwrap().0 + 5;
        let got = sharded.query(probe);
        let exact: f64 = items
            .iter()
            .map(|&(t, f)| f as f64 * Polynomial::new(1.0).weight(probe - t))
            .sum();
        let env = sharded.error_bound();
        assert!(
            env.admits(got, exact, 1e-9),
            "sharded WBMH {got} outside envelope {env:?} of exact {exact}"
        );
    }

    #[test]
    fn empty_and_at_tick_conventions() {
        let mut s = ShardedAggregate::supervised(3, SupervisorOptions::default(), || {
            ExpCounter::new(Exponential::new(0.5))
        });
        assert_eq!(s.query(5), 0.0);
        s.observe(7, 3);
        assert_eq!(s.query(7), 0.0, "at-tick mass must be invisible (§2.1)");
        assert!(s.query(8) > 0.0);
    }

    #[test]
    fn epoch_cache_hits_until_state_changes() {
        let mut s = ShardedAggregate::supervised(4, SupervisorOptions::default(), || {
            ExpCounter::new(Exponential::new(0.1))
        });
        s.observe_batch(&stream(500));
        let _ = s.query(10_000);
        let _ = s.query(10_001);
        let _ = s.query(10_002);
        let (hits, rebuilds) = s.cache_stats();
        assert_eq!(rebuilds, 1, "idle queries must reuse the cached merge");
        assert_eq!(hits, 2);
        s.observe(20_000, 1);
        let _ = s.query(20_001);
        let (_, rebuilds) = s.cache_stats();
        assert_eq!(rebuilds, 2, "new mass must invalidate the cache");
    }

    #[test]
    fn keyed_ingest_accounts_all_mass() {
        let mut s = ShardedAggregate::supervised(
            4,
            SupervisorOptions {
                ring_capacity: 64,
                ..SupervisorOptions::default()
            },
            || ExactDecayedSum::new(Constant),
        );
        let mut total = 0u64;
        for i in 0..1000u64 {
            let f = 1 + i % 5;
            s.observe_keyed(i % 17, 1 + i / 10, f);
            total += f;
        }
        assert_eq!(s.query(1000), total as f64);
    }

    #[test]
    fn into_merged_drains_everything_without_a_barrier() {
        // Push a big burst and immediately tear down: the workers must
        // drain their rings fully before exiting, so every item lands.
        let items = stream(20_000);
        let total: u64 = items.iter().map(|&(_, f)| f).sum();
        let mut s = ShardedAggregate::supervised(
            4,
            SupervisorOptions {
                ring_capacity: 256,
                ..SupervisorOptions::default()
            },
            || ExactDecayedSum::new(Constant),
        );
        s.observe_batch(&items);
        let merged = s.into_merged().expect("no shard failed");
        let probe = items.last().unwrap().0 + 1;
        assert_eq!(merged.query(probe), total as f64, "items were dropped");
    }

    #[test]
    fn merge_from_combines_two_engines() {
        let items = stream(1000);
        let (a_items, b_items): (Vec<_>, Vec<_>) =
            items.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let a_items: Vec<(Time, u64)> = a_items.into_iter().map(|(_, &x)| x).collect();
        let b_items: Vec<(Time, u64)> = b_items.into_iter().map(|(_, &x)| x).collect();

        let mut a = ShardedAggregate::supervised(2, SupervisorOptions::default(), || {
            ExpCounter::new(Exponential::new(0.02))
        });
        let mut b = ShardedAggregate::supervised(3, SupervisorOptions::default(), || {
            ExpCounter::new(Exponential::new(0.02))
        });
        a.observe_batch(&a_items);
        b.observe_batch(&b_items);
        a.merge_from(&b);

        let mut single = ExpCounter::new(Exponential::new(0.02));
        single.observe_batch(&items);
        let probe = items.last().unwrap().0 + 2;
        let got = a.query(probe);
        let want = single.query(probe);
        assert!(
            (got - want).abs() <= want.abs() * 1e-9 + 1e-9,
            "merged engines {got} vs single {want}"
        );
    }

    #[test]
    fn advance_reclaims_and_is_broadcast() {
        let mut s = ShardedAggregate::supervised(2, SupervisorOptions::default(), || {
            ExactDecayedSum::new(td_decay::SlidingWindow::new(10))
        });
        for t in 1..=50u64 {
            s.observe(t, 1);
        }
        s.advance(1000);
        assert_eq!(s.query(1001), 0.0, "window-expired mass must be gone");
        assert!(s.storage_bits() == 0, "expired state must be reclaimed");
    }

    #[test]
    fn supervised_restart_recovers_losslessly() {
        // A one-shot panic on some worker's 5th chunk. With the
        // checkpoint-every-chunk default the restore covers everything
        // before the failed chunk, and the replay (which no longer
        // fires) reapplies the chunk itself: zero mass lost.
        let items = stream(8_000);
        let calls = Arc::new(AtomicU64::new(0));
        let trigger = Arc::clone(&calls);
        let mut s = ShardedAggregate::supervised(4, SupervisorOptions::default(), move || {
            PanicOnNth::wrap(ExactDecayedSum::new(Constant), Arc::clone(&trigger), 5)
        });
        let mut single = ExactDecayedSum::new(Constant);
        single.observe_batch(&items);
        // Small pushes so workers drain many chunks (the panic needs a
        // chunk boundary to fire between checkpoints).
        for chunk in items.chunks(64) {
            s.observe_batch(chunk);
        }
        let probe = items.last().unwrap().0 + 1;
        let ans = s.try_query(probe).expect("barrier must not wedge");
        assert_eq!(ans.value, single.query(probe), "restart lost mass");
        assert!(ans.degraded.is_empty(), "recovered shard is not degraded");
        let stats = s.shard_stats();
        let restarts: u64 = stats.iter().map(|st| st.restarts).sum();
        let panics: u64 = stats.iter().map(|st| st.panics).sum();
        assert_eq!(restarts, 1, "exactly one restart: {stats:?}");
        assert!(panics >= 1);
        assert!(stats.iter().all(|st| st.health == ShardHealth::Live));
        assert!(stats.iter().all(|st| st.lost_mass == 0));
        assert!(
            stats.iter().any(|st| st
                .last_panic
                .as_deref()
                .is_some_and(|p| p.contains("injected fault"))),
            "panic payload must be captured"
        );
    }

    /// No restarts: the first panic quarantines its shard.
    fn no_restarts() -> SupervisorOptions {
        SupervisorOptions {
            max_restarts: 0,
            ..SupervisorOptions::default()
        }
    }

    #[test]
    fn panic_past_the_restart_budget_quarantines_and_widens() {
        let items = stream(4_000);
        let calls = Arc::new(AtomicU64::new(0));
        let trigger = Arc::clone(&calls);
        let mut s = ShardedAggregate::supervised(4, no_restarts(), move || {
            PanicOnNth::wrap(ExactDecayedSum::new(Constant), Arc::clone(&trigger), 4)
        });
        let mut single = ExactDecayedSum::new(Constant);
        single.observe_batch(&items);
        for chunk in items.chunks(64) {
            s.observe_batch(chunk);
        }
        let probe = items.last().unwrap().0 + 1;
        let ans = s.try_query(probe).expect("barrier must not wedge");
        assert_eq!(ans.degraded.len(), 1, "one shard must be quarantined");
        let truth = single.query(probe);
        assert!(
            ans.bound.admits(ans.value, truth, 1e-9),
            "degraded answer {} with bound {:?} must cover truth {}",
            ans.value,
            ans.bound,
            truth
        );
        // The dead shard's restart point is folded; what the answer
        // misses is exactly the mass submitted past it, plus the mass
        // of pushes that raced the quarantine and were shed.
        let dead = &s.shards[ans.degraded[0]];
        let past =
            dead.submitted_mass.load(Ordering::Acquire) - dead.state.ckpt.lock().unwrap().mass;
        assert!(past > 0);
        let missing = past + s.widening_mass();
        assert_eq!(truth - ans.value, missing as f64);
        let under = ans.value * ans.bound.lower / (1.0 - ans.bound.lower);
        assert!(
            (under - missing as f64).abs() <= 1e-6 * missing as f64,
            "the envelope prices {under}, not the {missing} missing"
        );
        let stats = s.shard_stats();
        assert_eq!(
            stats
                .iter()
                .filter(|st| st.health == ShardHealth::Quarantined)
                .count(),
            1
        );
        // The engine keeps serving through the trait path too.
        assert_eq!(s.query(probe + 1), ans.value);
    }

    #[test]
    fn default_policy_never_drops() {
        // Tiny rings + a burst far larger than their capacity: the
        // blocking policy must stall (counted) rather than shed.
        let items = stream(30_000);
        let total: u64 = items.iter().map(|&(_, f)| f).sum();
        let opts = SupervisorOptions {
            ring_capacity: 16,
            ..SupervisorOptions::default()
        };
        let mut s = ShardedAggregate::supervised(3, opts, || ExactDecayedSum::new(Constant));
        s.observe_batch(&items);
        let stats = s.shard_stats();
        assert!(
            stats
                .iter()
                .all(|st| st.dropped_msgs == 0 && st.dropped_mass == 0),
            "Block policy must never drop: {stats:?}"
        );
        assert!(
            stats.iter().map(|st| st.blocked_pushes).sum::<u64>() > 0,
            "a 16-slot ring under a 30k burst must have stalled"
        );
        let probe = items.last().unwrap().0 + 1;
        let merged = s.into_merged().expect("no shard failed");
        assert_eq!(merged.query(probe), total as f64);
    }

    #[test]
    fn drop_newest_accounts_and_widens() {
        let items = stream(10_000);
        let opts = SupervisorOptions {
            ring_capacity: 16,
            backpressure: BackpressurePolicy::DropNewest,
            ..SupervisorOptions::default()
        };
        let mut s = ShardedAggregate::supervised(2, opts, || ExactDecayedSum::new(Constant));
        s.observe_batch(&items);
        let stats = s.shard_stats();
        let dropped_mass: u64 = stats.iter().map(|st| st.dropped_mass).sum();
        assert!(dropped_mass > 0, "a 16-slot ring must have shed load");
        let probe = items.last().unwrap().0 + 1;
        let ans = s.try_query(probe).expect("no wedge");
        let truth: u64 = items.iter().map(|&(_, f)| f).sum();
        assert!(
            ans.bound.lower > 0.0,
            "shed load must widen the envelope: {:?}",
            ans.bound
        );
        assert!(
            ans.bound.admits(ans.value, truth as f64, 1e-9),
            "widened bound {:?} must cover truth {} (got {})",
            ans.bound,
            truth,
            ans.value
        );
    }

    /// A backend whose `observe_batch` blocks until released — wedges
    /// its worker without panicking.
    #[derive(Clone)]
    struct Wedgeable {
        inner: ExactDecayedSum<Constant>,
        release: Arc<AtomicBool>,
    }

    impl StorageAccounting for Wedgeable {
        fn storage_bits(&self) -> u64 {
            self.inner.storage_bits()
        }
    }

    impl StreamAggregate for Wedgeable {
        fn observe(&mut self, t: Time, f: u64) {
            self.inner.observe(t, f)
        }
        fn observe_batch(&mut self, items: &[(Time, u64)]) {
            while !self.release.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(1));
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
    }

    impl Checkpoint for Wedgeable {
        fn save_checkpoint(&self) -> Vec<u8> {
            self.inner.save_checkpoint()
        }
        fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.inner.restore_checkpoint(bytes)
        }
    }

    #[test]
    fn wedged_barrier_is_a_typed_error_not_a_hang() {
        let release = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&release);
        let opts = SupervisorOptions {
            barrier_deadline: Duration::from_millis(25),
            ..SupervisorOptions::default()
        };
        let mut s = ShardedAggregate::supervised(2, opts, move || Wedgeable {
            inner: ExactDecayedSum::new(Constant),
            release: Arc::clone(&r),
        });
        s.observe(5, 3);
        s.observe(5, 4);
        let err = s.try_query(6).expect_err("a wedged shard must surface");
        let QueryError::Wedged { shard } = err;
        assert!(shard < 2);
        // Unwedge so teardown joins cleanly.
        release.store(true, Ordering::Release);
        let merged = s.into_merged().expect("released workers finish");
        assert_eq!(merged.query(6), 7.0);
    }

    #[test]
    fn into_merged_surfaces_worker_failure_as_typed_error() {
        let items = stream(2_000);
        let calls = Arc::new(AtomicU64::new(0));
        let trigger = Arc::clone(&calls);
        let mut s = ShardedAggregate::supervised(3, no_restarts(), move || {
            PanicOnNth::wrap(ExactDecayedSum::new(Constant), Arc::clone(&trigger), 3)
        });
        for chunk in items.chunks(64) {
            s.observe_batch(chunk);
        }
        let err = s.into_merged().expect_err("quarantine must surface");
        assert!(err.shard < 3);
        assert!(
            err.payload.contains("injected fault"),
            "payload must carry the panic message, got: {}",
            err.payload
        );
    }

    #[test]
    fn reordered_engine_publishes_watermark_and_reports_completeness() {
        use td_reorder::LatenessPolicy;

        let engine = ShardedAggregate::supervised(3, SupervisorOptions::default(), || {
            ExpCounter::new(Exponential::new(0.01))
        });
        assert_eq!(engine.watermark(), None);
        let mut staged = engine.reordered(
            Box::new(Exponential::new(0.01)),
            4,
            LatenessPolicy::Reject,
            2,
        );
        // Two sources with bounded skew; the reorder stage must feed
        // each shard a sorted substream (workers assert this) and
        // publish W into the engine.
        for i in 1..=50u64 {
            staged.push(0, i * 2, 1).unwrap();
            staged.push(1, i * 2 - 1, 2).unwrap();
        }
        assert_eq!(staged.inner().watermark(), Some(100 - 4));
        staged.flush();
        assert_eq!(staged.inner().watermark(), Some(100));
        let ans = staged.inner().try_query(101).expect("healthy engine");
        assert_eq!(ans.complete_up_to, 100);

        // Lock-step reference: the same items sorted, one backend.
        let mut single = ExpCounter::new(Exponential::new(0.01));
        for t in 1..=100u64 {
            single.observe(t, if t % 2 == 0 { 1 } else { 2 });
        }
        let want = single.query(101);
        assert!(
            (ans.value - want).abs() <= want.abs() * 1e-9 + 1e-9,
            "reordered sharded {} vs single {want}",
            ans.value
        );

        // Beyond-bound items surface as typed errors, not shard panics.
        let err = staged.push(0, 10, 5).unwrap_err();
        assert_eq!(err.watermark, 100);
        let healthy = staged
            .inner()
            .shard_stats()
            .iter()
            .all(|s| s.health == ShardHealth::Live && s.panics == 0);
        assert!(healthy, "late item must never reach a worker");
    }

    #[test]
    fn unfronted_engine_is_complete_to_its_clock() {
        let mut engine = ShardedAggregate::supervised(2, SupervisorOptions::default(), || {
            ExpCounter::new(Exponential::new(0.02))
        });
        for (t, f) in stream(200) {
            engine.observe(t, f);
        }
        let t_last = engine.last_t.load(Ordering::Acquire);
        let ans = engine.try_query(t_last + 1).expect("healthy engine");
        assert_eq!(ans.complete_up_to, t_last);
    }

    #[test]
    fn idle_flush_makes_silent_wal_tail_durable_within_cadence() {
        use td_persist::SyncPolicy;
        let make = || ExactDecayedSum::new(Exponential::new(0.01));
        // Build a 1-shard durable engine where traffic never advances
        // the durability clock (IntervalTicks(MAX): only the very
        // first record syncs, as the baseline) and checkpoints are off
        // — any durability past record 1 can only come from the idle
        // flush tick. Queries barrier between observes, forcing
        // separate chunks, hence separate WAL records.
        let run = |cadence: Option<Duration>| {
            let mem = MemStorage::new();
            let opts = SupervisorOptions {
                checkpoint_every_chunks: u64::MAX,
                wal_flush_idle: cadence,
                ..SupervisorOptions::default()
            };
            let durability = DurabilityConfig {
                storage: Box::new(mem.clone()),
                options: StoreOptions {
                    sync: SyncPolicy::IntervalTicks(u64::MAX),
                    ..StoreOptions::default()
                },
            };
            let (mut eng, _) = ShardedAggregate::durable(1, opts, durability, make).unwrap();
            for t in 0..4u64 {
                eng.observe(t, 1);
                let _ = eng.query(t + 1);
            }
            (mem, eng)
        };
        let durable_entries = |mem: &MemStorage| {
            let rec = td_persist::recover(&mem.crashed(), 1).unwrap();
            rec.tail_for(0).map(|r| r.entries.len() as u64).sum::<u64>()
        };

        // Control: no idle tick. The silent tail stays dirty — a crash
        // keeps only the baseline-synced first record.
        let (mem_off, eng_off) = run(None);
        thread::sleep(Duration::from_millis(120));
        assert_eq!(
            durable_entries(&mem_off),
            1,
            "without the idle tick the silent tail must stay unsynced"
        );
        drop(eng_off);

        // With the tick: the dirty tail goes durable within ~one
        // cadence, no flush_wal() call anywhere.
        let (mem_on, eng_on) = run(Some(Duration::from_millis(10)));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut durable_now = durable_entries(&mem_on);
        while durable_now < 4 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
            durable_now = durable_entries(&mem_on);
        }
        assert_eq!(
            durable_now, 4,
            "silent-but-dirty WAL tail was not fsynced within the idle cadence"
        );
        drop(eng_on);
    }

    /// A fresh store of `shards` shards on `mem`, written directly.
    fn raw_store(mem: &MemStorage, shards: usize) -> DurableStore {
        let mut fresh: Vec<_> = (0..shards)
            .map(|_| ExactDecayedSum::new(Exponential::new(0.01)))
            .collect();
        let opened = DurableStore::open(
            Box::new(mem.clone()),
            StoreOptions::default(),
            &mut fresh,
            |_, _| unreachable!("a fresh store has no records"),
        );
        opened.expect("fresh store").0
    }

    #[test]
    fn durable_refuses_a_keyed_store_before_replay() {
        // The kind-2 history `DurableAggregate::open_keyed` logs.
        let mem = MemStorage::new();
        {
            let mut store = raw_store(&mem, 1);
            store
                .append_record(0, [WalEntry::ObserveKeyed(7, 10, 3)])
                .expect("append");
            store.flush().expect("flush");
        }
        let opened = ShardedAggregate::durable(
            1,
            SupervisorOptions::default(),
            DurabilityConfig::new(Box::new(mem.crashed())),
            || ExactDecayedSum::new(Exponential::new(0.01)),
        );
        assert!(matches!(opened, Err(RestoreError::Invariant(_))));
    }

    #[test]
    fn durable_refuses_a_keyed_entry_in_a_later_shards_tail() {
        // Two shards of plain history; shard 1 checkpoints, then a
        // keyed entry lands in its tail. The replay of shard 1's tail
        // must refuse it, after shard 0's records replayed cleanly.
        let mem = MemStorage::new();
        {
            let mut store = raw_store(&mem, 2);
            let mut one = ExactDecayedSum::new(Exponential::new(0.01));
            store.append_record(0, [WalEntry::Observe(1, 2)]).unwrap();
            store.append_record(1, [WalEntry::Observe(2, 3)]).unwrap();
            one.observe(2, 3);
            store
                .save_shard_checkpoint(1, &one.save_checkpoint())
                .unwrap();
            store.append_record(0, [WalEntry::Observe(3, 1)]).unwrap();
            store
                .append_record(1, [WalEntry::ObserveKeyed(7, 4, 5)])
                .unwrap();
            store.flush().unwrap();
        }
        let opened = ShardedAggregate::durable(
            2,
            SupervisorOptions::default(),
            DurabilityConfig::new(Box::new(mem.crashed())),
            || ExactDecayedSum::new(Exponential::new(0.01)),
        );
        match opened {
            Err(e) => assert_eq!(e, td_persist::keyed_entry_error()),
            Ok(_) => panic!("a keyed entry in shard 1's tail must refuse the open"),
        }
    }

    #[test]
    fn durable_engine_recovers_bit_identically_after_crash() {
        let mem = MemStorage::new();
        let make = || ExactDecayedSum::new(Exponential::new(0.01));
        let opts = || SupervisorOptions {
            checkpoint_every_chunks: 4,
            ..SupervisorOptions::default()
        };
        let (mut eng, fresh) = ShardedAggregate::durable(
            3,
            opts(),
            DurabilityConfig::new(Box::new(mem.clone())),
            make,
        )
        .expect("fresh directory opens");
        assert_eq!(fresh.checkpoints_restored, 0);
        assert_eq!(fresh.records_replayed, 0);
        assert_eq!(fresh.resumed_at, 0);

        let data = stream(500);
        let t_last = data.last().expect("nonempty").0;
        for &(t, f) in &data {
            eng.observe(t, f);
        }
        eng.advance(t_last + 5);
        let before = eng.query(t_last + 6); // barrier: everything applied
        eng.flush_wal().expect("flush");
        drop(eng); // process death: only fsynced bytes survive

        let (eng2, rec) = ShardedAggregate::durable(
            3,
            opts(),
            DurabilityConfig::new(Box::new(mem.crashed())),
            make,
        )
        .expect("recovery");
        assert!(
            rec.checkpoints_restored > 0 || rec.records_replayed > 0,
            "the run must have left something on disk"
        );
        assert_eq!(rec.resumed_at, t_last + 5);
        // 500 observes + one Advance broadcast to each of 3 shards.
        assert_eq!(rec.entries_applied, 503);
        let after = eng2.query(t_last + 6);
        assert_eq!(
            before.to_bits(),
            after.to_bits(),
            "recovered answer must be bit-identical: {before} vs {after}"
        );

        // The recovered engine keeps working: ingest must resume from
        // the recovered clock without tripping the monotonicity check.
        let mut eng2 = eng2;
        eng2.observe(t_last + 7, 9);
        let grown = eng2.query(t_last + 8);
        assert!(grown > after * Exponential::new(0.01).weight(2));
    }

    #[test]
    fn checkpoint_age_and_wal_tail_surface_in_stats() {
        // Undurable engines report zeros.
        let mut plain = ShardedAggregate::supervised(2, SupervisorOptions::default(), || {
            ExactDecayedSum::new(Constant)
        });
        plain.observe(1, 1);
        plain.query(2);
        for s in plain.shard_stats() {
            assert_eq!(s.wal_tail_len, 0);
        }

        // A durable engine with cadence 1 checkpoints every chunk, so
        // after a full barrier every shard's age gauge drains to zero
        // and the WAL tail shrinks to at most `shards - 1` records:
        // seqs are global, so the freshest record of *another* shard
        // can sit above this shard's covered watermark even though its
        // own checkpoint supersedes it. (The worker writes its
        // checkpoint just after bumping `applied`, hence the grace
        // loop.)
        let mem = MemStorage::new();
        let opts = SupervisorOptions {
            checkpoint_every_chunks: 1,
            ..SupervisorOptions::default()
        };
        let (mut eng, _) = ShardedAggregate::durable(
            2,
            opts,
            DurabilityConfig::new(Box::new(mem.clone())),
            || ExactDecayedSum::new(Constant),
        )
        .expect("fresh open");
        for (t, f) in stream(64) {
            eng.observe(t, f);
        }
        let t_last = eng.last_t.load(Ordering::Acquire);
        eng.query(t_last + 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = eng.shard_stats();
            if stats
                .iter()
                .all(|s| s.checkpoint_age == 0 && s.wal_tail_len <= 1)
            {
                break;
            }
            assert!(Instant::now() < deadline, "gauges never drained: {stats:?}");
            thread::yield_now();
        }
    }

    /// Counts `save_checkpoint` calls across all clones, flipping one
    /// bit in the envelope of every save whose number lies in `flip`.
    #[derive(Clone, Debug)]
    struct CountSaves<B> {
        inner: B,
        saves: Arc<AtomicU64>,
        flip: Range<u64>,
    }

    impl<B: StorageAccounting> StorageAccounting for CountSaves<B> {
        fn storage_bits(&self) -> u64 {
            self.inner.storage_bits()
        }
    }

    impl<B: StreamAggregate> StreamAggregate for CountSaves<B> {
        fn observe(&mut self, t: Time, f: u64) {
            self.inner.observe(t, f)
        }
        fn observe_batch(&mut self, items: &[(Time, u64)]) {
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
        fn unit_weight_cap(&self) -> f64 {
            self.inner.unit_weight_cap()
        }
    }

    impl<B: Checkpoint> Checkpoint for CountSaves<B> {
        fn save_checkpoint(&self) -> Vec<u8> {
            let n = self.saves.fetch_add(1, Ordering::SeqCst) + 1;
            let mut bytes = self.inner.save_checkpoint();
            if self.flip.contains(&n) {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
            }
            bytes
        }
        fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.inner.restore_checkpoint(bytes)
        }
    }

    /// A `make` closure over counted exact counters that corrupt their
    /// saves numbered in `flip` and panic on the `fire_at`-th batch (0:
    /// never).
    fn counted(
        saves: &Arc<AtomicU64>,
        fire_at: u64,
        flip: Range<u64>,
    ) -> impl Fn() -> PanicOnNth<CountSaves<ExactDecayedSum<Constant>>> {
        let saves = Arc::clone(saves);
        let calls = Arc::new(AtomicU64::new(0));
        move || {
            let inner = CountSaves {
                inner: ExactDecayedSum::new(Constant),
                saves: Arc::clone(&saves),
                flip: flip.clone(),
            };
            PanicOnNth::wrap(inner, Arc::clone(&calls), fire_at)
        }
    }

    #[test]
    fn restart_point_is_encoded_only_where_bytes_are_consumed() {
        let items = stream(8_000);
        let truth: u64 = items.iter().map(|&(_, f)| f).sum();
        let probe = items.last().unwrap().0 + 1;

        // Healthy supervised ingest and queries encode nothing: the
        // restart point is a typed copy.
        let saves = Arc::new(AtomicU64::new(0));
        let mut s =
            ShardedAggregate::supervised(2, SupervisorOptions::default(), counted(&saves, 0, 0..0));
        for chunk in items.chunks(64) {
            s.observe_batch(chunk);
        }
        assert_eq!(s.query(probe), truth as f64);
        assert_eq!(
            saves.load(Ordering::SeqCst),
            0,
            "healthy ingest encoded a checkpoint"
        );

        // A restart encodes the snapshot once, restores through the
        // checksum, and still heals losslessly.
        let saves = Arc::new(AtomicU64::new(0));
        let mut s =
            ShardedAggregate::supervised(2, SupervisorOptions::default(), counted(&saves, 5, 0..0));
        for chunk in items.chunks(64) {
            s.observe_batch(chunk);
        }
        let ans = s.try_query(probe).expect("no wedge");
        assert_eq!(ans.value, truth as f64, "restart lost mass");
        assert!(ans.degraded.is_empty());
        let stats = s.shard_stats();
        assert_eq!(stats.iter().map(|st| st.restarts).sum::<u64>(), 1);
        assert!(stats
            .iter()
            .all(|st| st.lost_mass == 0 && st.health == ShardHealth::Live));
        assert_eq!(saves.load(Ordering::SeqCst), 1, "one restart, one encoding");

        // A bit flipped on the way to bytes is caught by the checksum:
        // the shard quarantines instead of restoring garbage.
        let saves = Arc::new(AtomicU64::new(0));
        let mut s =
            ShardedAggregate::supervised(2, SupervisorOptions::default(), counted(&saves, 5, 1..2));
        for chunk in items.chunks(64) {
            s.observe_batch(chunk);
        }
        let ans = s.try_query(probe).expect("no wedge");
        assert_eq!(ans.degraded.len(), 1, "the corrupt restart must quarantine");
        assert!(ans.bound.admits(ans.value, truth as f64, 1e-9));
        let victim = &s.shard_stats()[ans.degraded[0]];
        assert_eq!(victim.health, ShardHealth::Quarantined);
        assert!(
            victim
                .last_panic
                .as_deref()
                .is_some_and(|p| p.contains("checksum")),
            "corruption must surface as a checksum failure: {:?}",
            victim.last_panic
        );
    }

    #[test]
    fn durable_engine_encodes_once_per_checkpoint_cadence() {
        let saves = Arc::new(AtomicU64::new(0));
        let opts = SupervisorOptions {
            checkpoint_every_chunks: 4,
            ..SupervisorOptions::default()
        };
        let durability = DurabilityConfig::new(Box::new(MemStorage::new()));
        let (mut eng, _) = ShardedAggregate::durable(1, opts, durability, counted(&saves, 0, 0..0))
            .expect("fresh store");
        // A barrier after each observe makes every item its own chunk.
        for t in 1..=12u64 {
            eng.observe(t, 1);
            assert_eq!(eng.query(t + 1), t as f64);
        }
        assert_eq!(saves.load(Ordering::SeqCst), 3, "12 chunks at cadence 4");
    }

    #[test]
    fn durable_restart_falls_back_to_the_disk_checkpoint() {
        // Cadence 1 and a barrier after each observe: item k is chunk
        // k, and its durable checkpoint is save k. The 6th batch panics;
        // the restart encodes the in-memory restart point as save 6,
        // which is corrupted, so the restore must come from disk (save
        // 5, written at the same cadence point).
        let saves = Arc::new(AtomicU64::new(0));
        let opts = SupervisorOptions {
            checkpoint_every_chunks: 1,
            ..SupervisorOptions::default()
        };
        let durability = DurabilityConfig::new(Box::new(MemStorage::new()));
        let (mut eng, _) = ShardedAggregate::durable(1, opts, durability, counted(&saves, 6, 6..7))
            .expect("fresh store");
        for t in 1..=10u64 {
            eng.observe(t, 1);
            assert_eq!(eng.query(t + 1), t as f64);
        }
        let st = &eng.shard_stats()[0];
        assert_eq!(st.health, ShardHealth::Live);
        assert_eq!(st.restarts, 1);
        assert_eq!(st.lost_mass, 0);
        assert!(
            st.last_panic
                .as_deref()
                .is_some_and(|p| p.contains("in-memory checkpoint corrupt")
                    && p.contains("restored from disk")),
            "the restart must name the disk restore: {:?}",
            st.last_panic
        );
    }

    /// The `under` weight an exact counter's answer admits to missing,
    /// read back from its widened lower bound (unit weight cap 1).
    fn missing_weight(ans: &Answer) -> f64 {
        ans.value * ans.bound.lower / (1.0 - ans.bound.lower)
    }

    /// A `shards`-way durable engine over `mem` at cadence `every`, built
    /// from `counted(saves, fire_at, flip)`.
    fn counted_durable(
        shards: usize,
        mem: &MemStorage,
        every: u64,
        saves: &Arc<AtomicU64>,
        fire_at: u64,
        flip: Range<u64>,
    ) -> (
        ShardedAggregate<PanicOnNth<CountSaves<ExactDecayedSum<Constant>>>>,
        RecoveryReport,
    ) {
        let opts = SupervisorOptions {
            checkpoint_every_chunks: every,
            ..SupervisorOptions::default()
        };
        let durability = DurabilityConfig::new(Box::new(mem.clone()));
        ShardedAggregate::durable(shards, opts, durability, counted(saves, fire_at, flip))
            .expect("store opens")
    }

    #[test]
    fn durable_restart_refuses_a_disk_checkpoint_older_than_its_restart_point() {
        // Cadence 4, a barrier per observe: the store's checkpoint
        // holds items 1..=8 and the WAL tail items 9 and 10.
        let mem = MemStorage::new();
        let saves = Arc::new(AtomicU64::new(0));
        let (mut eng, _) = counted_durable(1, &mem, 4, &saves, 0, 0..0);
        for t in 1..=10u64 {
            eng.observe(t, 1);
            assert_eq!(eng.query(t + 1), t as f64);
        }
        eng.flush_wal().expect("flush");
        drop(eng);
        // Reopened, the restart point is checkpoint plus tail. The
        // first batch after the two replayed ones panics and the
        // restart's encoding (the first save since open) is corrupt.
        // The disk checkpoint lacks the tail, so restoring it would
        // lose the tail uncounted: the shard must quarantine instead,
        // and the fold serves the restart point.
        let saves = Arc::new(AtomicU64::new(0));
        let (mut eng, rec) = counted_durable(1, &mem.crashed(), 4, &saves, 3, 1..2);
        assert_eq!((rec.checkpoints_restored, rec.records_replayed), (1, 2));
        eng.observe(11, 1);
        let ans = eng.try_query(12).expect("no wedge");
        assert_eq!(ans.degraded, vec![0]);
        assert_eq!(ans.value, 10.0, "the fold serves checkpoint and tail");
        assert!(ans.bound.admits(ans.value, 11.0, 1e-9), "{ans:?}");
        assert!((missing_weight(&ans) - 1.0).abs() < 1e-9, "{ans:?}");
    }

    #[test]
    fn durable_dead_shard_that_loses_its_recovered_history_is_unbounded() {
        // Two shards whose whole history (20 items of mass 50, one
        // chunk each, round-robin) is in the WAL: no checkpoint.
        let mem = MemStorage::new();
        let saves = Arc::new(AtomicU64::new(0));
        let (mut eng, _) = counted_durable(2, &mem, u64::MAX, &saves, 0, 0..0);
        for t in 1..=20u64 {
            eng.observe(t, 50);
            assert_eq!(eng.query(t + 1), (50 * t) as f64);
        }
        eng.flush_wal().expect("flush");
        drop(eng);
        // Reopened with every save corrupt, the first batch after the
        // 20 replayed ones panics on shard 0. Its restart point cannot
        // be restored anywhere, so its 500 recovered units are gone,
        // and no counter knows how many there were.
        let saves = Arc::new(AtomicU64::new(0));
        let (mut eng, rec) = counted_durable(2, &mem.crashed(), u64::MAX, &saves, 21, 1..u64::MAX);
        assert_eq!(rec.records_replayed, 20);
        eng.observe(21, 1);
        let ans = eng.try_query(22).expect("no wedge");
        assert_eq!(ans.degraded, vec![0]);
        assert_eq!(ans.value, 500.0, "the live shard's history");
        assert!(ans.bound.admits(ans.value, 1001.0, 1e-9), "{ans:?}");
        assert_eq!(ans.bound.lower, 1.0, "missing mass of unknown size");
    }

    #[test]
    fn durable_dead_shard_folds_the_disk_checkpoint_when_its_encoding_fails() {
        // Cadence 1 and a barrier per observe: save k is chunk k's
        // disk checkpoint. Batch 6 panics with no restart budget, and
        // the fold's encoding of the restart point (save 6) is
        // corrupt, so the fold must serve the disk checkpoint (save 5),
        // which holds the same state, with its mass covered.
        let saves = Arc::new(AtomicU64::new(0));
        let opts = SupervisorOptions {
            checkpoint_every_chunks: 1,
            ..no_restarts()
        };
        let durability = DurabilityConfig::new(Box::new(MemStorage::new()));
        let (mut eng, _) = ShardedAggregate::durable(1, opts, durability, counted(&saves, 6, 6..7))
            .expect("fresh store");
        for t in 1..=5u64 {
            eng.observe(t, 1);
            assert_eq!(eng.query(t + 1), t as f64);
        }
        eng.observe(6, 1);
        let ans = eng.try_query(7).expect("no wedge");
        assert_eq!(ans.degraded, vec![0]);
        assert_eq!(ans.value, 5.0, "the disk checkpoint holds items 1..=5");
        assert!(ans.bound.admits(ans.value, 6.0, 1e-9), "{ans:?}");
        assert!((missing_weight(&ans) - 1.0).abs() < 1e-9, "{ans:?}");
    }

    #[test]
    fn round_robin_assignment_survives_odd_batches_and_quarantine() {
        // Reference model: the cursor advances once per item; a
        // quarantined preferred shard falls through to the next live one.
        fn expect(lens: &[usize], dead: &[usize], cursor: &mut usize, counts: &mut [u64]) {
            let n = counts.len();
            for _ in 0..lens.iter().sum::<usize>() {
                let mut i = *cursor;
                while dead.contains(&i) {
                    i = (i + 1) % n;
                }
                counts[i] += 1;
                *cursor = (*cursor + 1) % n;
            }
        }
        let lens = [1usize, 2, 4, 5, 7, 1, 10, 1_000, 1_024, 3_001];
        let push = |eng: &mut ShardedAggregate<_>, t: &mut Time| {
            for (k, &len) in lens.iter().enumerate() {
                let batch: Vec<(Time, u64)> = (0..len).map(|_| (*t, 1)).collect();
                if len == 1 && k % 2 == 0 {
                    eng.observe(*t, 1);
                } else {
                    eng.observe_batch(&batch);
                }
                *t += 1;
            }
        };
        let submitted = |eng: &ShardedAggregate<_>| -> Vec<u64> {
            eng.shard_stats().iter().map(|st| st.submitted).collect()
        };

        let engine = |fire_at| {
            let calls = Arc::new(AtomicU64::new(0));
            ShardedAggregate::supervised(3, no_restarts(), move || {
                PanicOnNth::wrap(ExactDecayedSum::new(Constant), Arc::clone(&calls), fire_at)
            })
        };

        // All shards live.
        let mut eng = engine(0);
        let (mut cursor, mut counts, mut t) = (0, vec![0u64; 3], 1);
        push(&mut eng, &mut t);
        expect(&lens, &[], &mut cursor, &mut counts);
        assert_eq!(submitted(&eng), counts);

        // Shard 1 quarantined by the second batch (one item per shard,
        // serialised by barriers), then the same pushes again.
        let mut eng = engine(2);
        eng.observe(1, 1);
        let _ = eng.query(2);
        eng.observe(1, 1);
        assert_eq!(eng.try_query(2).expect("no wedge").degraded, vec![1]);
        let (mut cursor, mut counts, mut t) = (2, vec![1u64, 1, 0], 1);
        push(&mut eng, &mut t);
        expect(&lens, &[1], &mut cursor, &mut counts);
        assert_eq!(submitted(&eng), counts);
        assert!(eng.shard_stats().iter().all(|st| st.dropped_msgs == 0));
    }
}
