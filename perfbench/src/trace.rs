//! Span recording from outside the library.
//!
//! Spans come from two places only: call-site timers in the benchmark's
//! producer loop, and the two adapters below, which the benchmark places
//! between layers. Each thread keeps a stack of open spans and folds
//! every closed span into per-kind totals on the spot (no span log), so
//! a layer's *self* time is its span minus the child spans it covers on
//! the same thread. Worker threads hand their totals to a global sink
//! when they exit.
//!
//! Tracing's own cost is measured once at start-up ([`calibrate`]) and
//! taken out of every span, so spans around calls of a few tens of ns
//! (registry probes, single-item observes) report the call, not the
//! timer.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use td_ceh::CascadedEh;
use td_decay::storage::StorageAccounting;
use td_decay::{Checkpoint, DecayFunction, ErrorBound, RestoreError, StreamAggregate, Time};
use td_forward::ForwardDecaySum;
use td_persist::Storage;
use td_shard::ShardedAggregate;

/// A timed boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One end-to-end query request (producer call site).
    Request,
    /// `Reorderer::push_batch` (producer call site).
    Reorder,
    /// Ingest into the shard coordinator (route, ring push, blocked spin).
    ShardSubmit,
    /// The shard engine's query path (barrier, cache, widen).
    ShardQuery,
    /// Backend `observe_batch`.
    ObserveBatch,
    /// Backend single-item `observe`.
    Observe,
    /// Backend `query` / `error_bound`.
    Query,
    /// Backend `snapshot` / `advance` / `merge_from` (cache rebuild).
    Merge,
    /// Backend `save_checkpoint`.
    Save,
    /// `KeyedRegistry::observe_keyed_batch` (producer call site).
    RegistryIngest,
    /// `KeyedRegistry::query_key` (producer call site).
    RegistryQuery,
    /// `Storage::append` (WAL).
    Append,
    /// `Storage::sync` (WAL fsync).
    Sync,
    /// `Storage::write_atomic` (checkpoint and manifest files).
    WriteAtomic,
}

const KINDS: usize = Kind::WriteAtomic as usize + 1;

/// Kinds whose top-level spans keep one duration sample each, for
/// percentiles.
const SAMPLED: [Kind; 4] = [Kind::Save, Kind::Append, Kind::Sync, Kind::WriteAtomic];

/// Totals for one kind on one thread.
#[derive(Clone, Debug, Default)]
pub struct KindStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Bytes moved through storage spans.
    pub bytes: u64,
    /// Durations of top-level spans, for [`SAMPLED`] kinds.
    pub samples_ns: Vec<u64>,
    /// Per request: the self time this kind spent inside one
    /// [`Kind::Request`] span (only requests where it ran).
    pub per_request_ns: Vec<u64>,
}

/// Everything one thread recorded.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Thread name (`td-shard-N` for shard workers).
    pub name: String,
    pub kinds: [KindStats; KINDS],
    /// Time covered by the thread's outermost spans.
    pub top_ns: u64,
}

impl KindStats {
    /// [`samples_ns`](Self::samples_ns) in µs.
    pub fn samples_us(&self) -> Vec<f64> {
        self.samples_ns.iter().map(|&n| n as f64 / 1e3).collect()
    }

    /// [`per_request_ns`](Self::per_request_ns) in µs.
    pub fn per_request_us(&self) -> Vec<f64> {
        self.per_request_ns
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect()
    }
}

/// Kind `k` over the shard workers (`Some(true)`), the other threads
/// (`Some(false)`) or all threads (`None`).
pub fn merged(traces: &[ThreadTrace], workers: Option<bool>, k: Kind) -> KindStats {
    let mut out = KindStats::default();
    for t in traces
        .iter()
        .filter(|t| workers.is_none_or(|w| t.is_worker() == w))
    {
        let s = t.kind(k);
        out.calls += s.calls;
        out.total_ns += s.total_ns;
        out.self_ns += s.self_ns;
        out.bytes += s.bytes;
        out.samples_ns.extend(&s.samples_ns);
        out.per_request_ns.extend(&s.per_request_ns);
    }
    out
}

impl ThreadTrace {
    pub fn kind(&self, k: Kind) -> &KindStats {
        &self.kinds[k as usize]
    }

    pub fn is_worker(&self) -> bool {
        self.name.starts_with("td-shard-")
    }

    fn is_empty(&self) -> bool {
        self.kinds.iter().all(|k| k.calls == 0)
    }
}

struct Frame {
    kind: Kind,
    start: Instant,
    child_ns: u64,
    /// Spans closed directly inside this one.
    children: u64,
    /// Spans closed inside this one at any depth.
    descendants: u64,
    /// Whether recording was on when the span opened.
    live: bool,
}

#[derive(Default)]
struct Local {
    frames: Vec<Frame>,
    trace: ThreadTrace,
    open_requests: u32,
    in_request: [u64; KINDS],
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.trace.is_empty() {
            let mut t = std::mem::take(&mut self.trace);
            t.name = thread_name();
            if let Ok(mut sink) = SINK.lock() {
                sink.push(t);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());
/// What an empty span reports as its own duration, in ns.
static INNER_NS: AtomicU64 = AtomicU64::new(0);
/// What an empty span adds to the span around it, in ns.
static OUTER_NS: AtomicU64 = AtomicU64::new(0);

fn thread_name() -> String {
    std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string()
}

/// Turns recording on or off for spans opened from now on, on every
/// thread.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Runs `f` inside a span of `kind`.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    span_bytes(kind, 0, f)
}

/// [`span`] that also credits `bytes` to the kind.
#[inline]
pub fn span_bytes<R>(kind: Kind, bytes: u64, f: impl FnOnce() -> R) -> R {
    let live = RECORDING.load(Ordering::Relaxed);
    LOCAL.with(|l| {
        l.borrow_mut().frames.push(Frame {
            kind,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
            descendants: 0,
            live,
        })
    });
    let r = f();
    let end = Instant::now();
    LOCAL.with(|l| l.borrow_mut().close(end, bytes));
    r
}

impl Local {
    fn close(&mut self, end: Instant, bytes: u64) {
        let f = self.frames.pop().expect("span closed twice");
        let dur = end.duration_since(f.start).as_nanos() as u64;
        // Take out tracing's own cost: this span's timer pair, and what
        // each span nested in it added.
        let inner = INNER_NS.load(Ordering::Relaxed);
        let outer = OUTER_NS.load(Ordering::Relaxed);
        let total = dur.saturating_sub(inner + f.descendants * outer);
        let own = dur
            .saturating_sub(f.child_ns)
            .saturating_sub(inner + f.children * outer.saturating_sub(inner));
        match self.frames.last_mut() {
            Some(parent) => {
                parent.child_ns += dur;
                parent.children += 1;
                parent.descendants += 1 + f.descendants;
            }
            None if f.live => self.trace.top_ns += total,
            None => {}
        }
        if !f.live {
            return;
        }
        let k = &mut self.trace.kinds[f.kind as usize];
        k.calls += 1;
        k.total_ns += total;
        k.self_ns += own;
        k.bytes += bytes;
        if self.frames.is_empty() && SAMPLED.contains(&f.kind) {
            k.samples_ns.push(total);
        }
        if f.kind == Kind::Request {
            self.open_requests -= 1;
            for (i, acc) in self.in_request.iter_mut().enumerate() {
                if *acc > 0 {
                    self.trace.kinds[i].per_request_ns.push(*acc);
                    *acc = 0;
                }
            }
        } else if self.open_requests > 0 {
            self.in_request[f.kind as usize] += own;
        }
    }
}

/// A [`Kind::Request`] span: child self times inside it are also
/// collected per request.
pub fn request<R>(f: impl FnOnce() -> R) -> R {
    if RECORDING.load(Ordering::Relaxed) {
        LOCAL.with(|l| l.borrow_mut().open_requests += 1);
    }
    span(Kind::Request, f)
}

/// Takes everything recorded so far: the calling thread's totals plus
/// those handed over by exited threads.
pub fn drain() -> Vec<ThreadTrace> {
    let mut out = std::mem::take(&mut *SINK.lock().expect("trace sink poisoned"));
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.trace.is_empty() {
            let mut t = std::mem::take(&mut l.trace);
            t.name = thread_name();
            out.push(t);
        }
    });
    out
}

/// Runs `f` in a span when `on`, bare otherwise (call-site timers).
#[inline]
pub fn maybe<R>(on: bool, kind: Kind, f: impl FnOnce() -> R) -> R {
    if on {
        span(kind, f)
    } else {
        f()
    }
}

/// The span kinds an adapted layer reports under.
pub trait Layer {
    const INGEST: Kind;
    const INGEST_ONE: Kind;
    const QUERY: Kind;
    const MERGE: Kind;
}

impl<B> Layer for ShardedAggregate<B> {
    const INGEST: Kind = Kind::ShardSubmit;
    const INGEST_ONE: Kind = Kind::ShardSubmit;
    const QUERY: Kind = Kind::ShardQuery;
    // `advance` pushes clock messages to the workers, like ingest.
    const MERGE: Kind = Kind::ShardSubmit;
}

impl<G: DecayFunction> Layer for CascadedEh<G> {
    const INGEST: Kind = Kind::ObserveBatch;
    const INGEST_ONE: Kind = Kind::Observe;
    const QUERY: Kind = Kind::Query;
    const MERGE: Kind = Kind::Merge;
}

impl<G: DecayFunction> Layer for ForwardDecaySum<G> {
    const INGEST: Kind = Kind::ObserveBatch;
    const INGEST_ONE: Kind = Kind::Observe;
    const QUERY: Kind = Kind::Query;
    const MERGE: Kind = Kind::Merge;
}

/// Forwards every call to `B`, timing it as a span of `B`'s layer.
#[derive(Clone)]
pub struct Timed<B>(pub B);

impl<B: StorageAccounting> StorageAccounting for Timed<B> {
    fn storage_bits(&self) -> u64 {
        self.0.storage_bits()
    }
}

impl<B: StreamAggregate + Layer> StreamAggregate for Timed<B> {
    fn observe(&mut self, t: Time, f: u64) {
        span(B::INGEST_ONE, || self.0.observe(t, f))
    }

    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        span(B::INGEST, || self.0.observe_batch(items))
    }

    fn batched_ingest_amortizes(&self) -> bool {
        self.0.batched_ingest_amortizes()
    }

    fn advance(&mut self, t: Time) {
        span(B::MERGE, || self.0.advance(t))
    }

    fn query(&self, t: Time) -> f64 {
        span(B::QUERY, || self.0.query(t))
    }

    fn merge_from(&mut self, other: &Self) {
        span(B::MERGE, || self.0.merge_from(&other.0))
    }

    fn error_bound(&self) -> ErrorBound {
        span(B::QUERY, || self.0.error_bound())
    }

    // Every backend here snapshots by `Clone` (the trait default).
    fn snapshot(&self) -> Self
    where
        Self: Clone,
    {
        span(B::MERGE, || self.clone())
    }
}

impl<B: Checkpoint + Layer> Checkpoint for Timed<B> {
    fn save_checkpoint(&self) -> Vec<u8> {
        span(Kind::Save, || self.0.save_checkpoint())
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.0.restore_checkpoint(bytes)
    }
}

/// Forwards every call to the wrapped storage, timing the write path.
pub struct TimedStorage<S>(pub S);

impl<S: Storage> Storage for TimedStorage<S> {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.0.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        span_bytes(Kind::Append, bytes.len() as u64, || {
            self.0.append(name, bytes)
        })
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        span_bytes(Kind::WriteAtomic, bytes.len() as u64, || {
            self.0.write_atomic(name, bytes)
        })
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        span(Kind::Sync, || self.0.sync(name))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.0.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.0.list()
    }
}

/// Measures tracing's own cost on this thread and takes it out of
/// every span closed from now on. Returns `(inner, outer)` in ns: what
/// an empty span reports as its own duration, and what it adds to the
/// span around it. Each is the median over batches of empty spans.
pub fn calibrate() -> (u64, u64) {
    const SPANS: u32 = 1000;
    let (mut inner, mut outer) = (Vec::new(), Vec::new());
    set_recording(true);
    for _ in 0..51 {
        let t = Instant::now();
        for _ in 0..SPANS {
            span(Kind::Query, || std::hint::black_box(()));
        }
        outer.push(t.elapsed().as_nanos() as f64 / f64::from(SPANS));
        let t = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().trace));
        let q = t.kind(Kind::Query);
        inner.push(q.total_ns as f64 / q.calls as f64);
    }
    set_recording(false);
    let inner = crate::stats::median(&mut inner).round() as u64;
    let outer = (crate::stats::median(&mut outer).round() as u64).max(inner);
    INNER_NS.store(inner, Ordering::Relaxed);
    OUTER_NS.store(outer, Ordering::Relaxed);
    (inner, outer)
}

/// Median cost of one `Instant::now()` pair, in ns.
pub fn timer_ns() -> f64 {
    let mut v: Vec<f64> = (0..20_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut v)
}
