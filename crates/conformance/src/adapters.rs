//! Systems under test: adapters that put a backend, a supervised
//! engine, a reorder stage, a durable store, or a keyed registry behind
//! the certifier's [`Sut`] surface — plus the deterministic fault injector
//! and the kill-at-any-byte crash sweep. Adapters nest (a reorder stage
//! in front of a faulted engine; a keyed registry inside a durable
//! store), which is how disturbance axes stack.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{DecayFunction, ErrorBound, StorageAccounting, StreamAggregate, Time};
use td_persist::wal::{parse_segment_name, RECORD_HEADER};
use td_persist::{DurableAggregate, MemStorage};
use td_registry::KeyedRegistry;
use td_reorder::{LatenessPolicy, Reorderer};
use td_shard::{ShardHealth, ShardedAggregate, SupervisorOptions};

use crate::certify::{
    drive, panic_message, Answer, Damage, DamageKind, DynAggregate, DynOracle, Event, Repro, RunId,
    Stats, Sut, TruthKind,
};

fn unsupported(ev: &Event) -> Result<bool, String> {
    Err(format!("event {ev:?} is not supported by this system"))
}

/// Applies an in-order ingest event to any backend.
fn apply<A: StreamAggregate + ?Sized>(a: &mut A, ev: &Event) -> Result<bool, String> {
    match ev {
        Event::Observe(t, f) => a.observe(*t, *f),
        Event::Batch(items) => a.observe_batch(items),
        Event::Advance(t) => a.advance(*t),
        _ => return unsupported(ev),
    }
    Ok(true)
}

/// Forwards the [`StreamAggregate`] surface of a wrapper to its inner
/// backend (merging never happens behind these adapters).
macro_rules! forward_aggregate {
    ([$($gen:tt)*] $ty:ty, $inner:tt) => {
        impl<$($gen)*> StorageAccounting for $ty {
            fn storage_bits(&self) -> u64 {
                self.$inner.storage_bits()
            }
        }
        impl<$($gen)*> StreamAggregate for $ty {
            fn observe(&mut self, t: Time, f: u64) {
                self.$inner.observe(t, f)
            }
            fn observe_batch(&mut self, items: &[(Time, u64)]) {
                self.$inner.observe_batch(items)
            }
            fn batched_ingest_amortizes(&self) -> bool {
                self.$inner.batched_ingest_amortizes()
            }
            fn advance(&mut self, t: Time) {
                self.$inner.advance(t)
            }
            fn query(&self, t: Time) -> f64 {
                self.$inner.query(t)
            }
            fn merge_from(&mut self, _other: &Self) {
                unimplemented!("certification adapters never merge")
            }
            fn error_bound(&self) -> ErrorBound {
                self.$inner.error_bound()
            }
            fn unit_weight_cap(&self) -> f64 {
                self.$inner.unit_weight_cap()
            }
        }
    };
}

/// A single backend fed in order; answers with its own envelope.
pub struct Plain(pub DynAggregate);

forward_aggregate!([] Plain, 0);

impl Sut for Plain {
    fn ingest(&mut self, ev: &Event) -> Result<bool, String> {
        apply(&mut *self.0, ev)
    }
    fn query(&self, t: Time) -> Result<Answer, String> {
        Ok(Answer::of(self.0.query(t), self.0.error_bound()))
    }
    fn finish(&self, stats: &mut Stats) -> Result<(), String> {
        stats.storage_bits = self.0.storage_bits();
        Ok(())
    }
}

/// Shard split (§6): observations are dealt round-robin across `k`
/// summaries, every shard is advanced past each observation tick so
/// all share a clock (the WBMH merge precondition), and each answer
/// comes from merging the parts — under the merged, widened envelope.
pub struct Merged<B> {
    parts: Vec<B>,
    next: usize,
}

impl<B: StreamAggregate + Clone> Merged<B> {
    /// `k ≥ 2` parts built by `make`.
    pub fn new(k: usize, make: impl Fn() -> B) -> Self {
        assert!(k >= 2, "a shard split needs >= 2 parts");
        Merged {
            parts: (0..k).map(|_| make()).collect(),
            next: 0,
        }
    }
}

impl<B: StreamAggregate + Clone> Sut for Merged<B> {
    fn ingest(&mut self, ev: &Event) -> Result<bool, String> {
        let k = self.parts.len();
        match ev {
            Event::Observe(t, f) => {
                for (i, p) in self.parts.iter_mut().enumerate() {
                    if i == self.next {
                        p.observe(*t, *f);
                    } else {
                        p.advance(*t);
                    }
                }
                self.next = (self.next + 1) % k;
            }
            Event::Batch(items) => {
                let mut per: Vec<Vec<(Time, u64)>> = vec![Vec::new(); k];
                for &item in items {
                    per[self.next].push(item);
                    self.next = (self.next + 1) % k;
                }
                for (p, mine) in self.parts.iter_mut().zip(per) {
                    if !mine.is_empty() {
                        p.observe_batch(&mine);
                    }
                    if let Some(&(t, _)) = items.last() {
                        p.advance(t);
                    }
                }
            }
            Event::Advance(t) => self.parts.iter_mut().for_each(|p| p.advance(*t)),
            _ => return unsupported(ev),
        }
        Ok(true)
    }
    fn query(&self, t: Time) -> Result<Answer, String> {
        let mut m = self.parts[0].clone();
        for p in &self.parts[1..] {
            m.merge_from(p);
        }
        Ok(Answer::of(m.query(t), m.error_bound()))
    }
}

/// What the injected fault does to the victim shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// One panic; the supervisor restores the last checkpoint, replays
    /// the failed chunk, and the shard heals: all shards live, nothing
    /// degraded, no lost mass at the end.
    Restart,
    /// One panic with a zero restart budget: the shard is quarantined
    /// and every later answer is served degraded, from the victim's
    /// last checkpoint, inside a widened envelope.
    Quarantine,
    /// One panic, with one bit flipped at a seeded offset in every
    /// checkpoint the victim saved: the restore must *detect* it
    /// (checksum) and quarantine — never silently restore.
    CorruptCheckpoint {
        /// Which bit to flip, modulo the checkpoint length in bits.
        bit_offset: u64,
    },
}

/// A fully deterministic description of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Identifies the plan in messages; does not affect behavior.
    pub seed: u64,
    /// Which shard's worker dies (0-based).
    pub victim: usize,
    /// The victim panics when its cumulative applied observation count
    /// crosses this threshold — counted per item, so the trigger point
    /// is independent of chunking and timing.
    pub panic_after_items: u64,
    /// What happens around the panic.
    pub mode: FaultMode,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultPlan {{ seed: {:#x}, victim: {}, panic_after_items: {}, mode: {:?} }}",
            self.seed, self.victim, self.panic_after_items, self.mode
        )
    }
}

/// Arms one [`FaultPlan`] and hands out [`FaultyBackend`] wrappers that
/// carry it into the engine's worker threads.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Items applied by the victim so far.
    applied: AtomicU64,
    /// The panic fires exactly once, so the post-restore replay of the
    /// same chunk goes through.
    fired: AtomicBool,
    /// The engine calls `make` once for the coordinator's template and
    /// then once per shard, in order: instance `v + 1` is shard `v`.
    instances: AtomicUsize,
}

impl FaultInjector {
    /// Arms `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            applied: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            instances: AtomicUsize::new(0),
        })
    }

    /// Whether the armed panic has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Wraps a backend factory so each constructed backend knows its
    /// instance index. Pass the result to
    /// [`ShardedAggregate::supervised`].
    pub fn factory<B, F>(self: &Arc<Self>, make: F) -> impl Fn() -> FaultyBackend<B>
    where
        F: Fn() -> B,
    {
        let injector = Arc::clone(self);
        move || FaultyBackend {
            inner: make(),
            instance: injector.instances.fetch_add(1, Ordering::SeqCst),
            injector: Arc::clone(&injector),
        }
    }

    fn is_victim(&self, instance: usize) -> bool {
        instance == self.plan.victim + 1
    }
}

/// A transparent wrapper that injects the armed fault of its
/// [`FaultInjector`] into the victim shard's ingest path. Clones keep
/// their instance identity — harmless, because the engine only calls
/// `observe_batch` (the trigger site) on worker-owned originals.
#[derive(Clone)]
pub struct FaultyBackend<B> {
    inner: B,
    injector: Arc<FaultInjector>,
    instance: usize,
}

impl<B: StorageAccounting> StorageAccounting for FaultyBackend<B> {
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

impl<B: StreamAggregate + Clone> StreamAggregate for FaultyBackend<B> {
    fn observe(&mut self, t: Time, f: u64) {
        self.inner.observe(t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let inj = &self.injector;
        if inj.is_victim(self.instance) {
            let n = items.len() as u64;
            let before = inj.applied.fetch_add(n, Ordering::SeqCst);
            if before + n >= inj.plan.panic_after_items && !inj.fired.swap(true, Ordering::SeqCst) {
                panic!("injected fault: {}", inj.plan);
            }
        }
        self.inner.observe_batch(items)
    }
    fn batched_ingest_amortizes(&self) -> bool {
        self.inner.batched_ingest_amortizes()
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

impl<B: StreamAggregate + Checkpoint + Clone> Checkpoint for FaultyBackend<B> {
    fn save_checkpoint(&self) -> Vec<u8> {
        let mut bytes = self.inner.save_checkpoint();
        if let FaultMode::CorruptCheckpoint { bit_offset } = self.injector.plan.mode {
            if self.injector.is_victim(self.instance) && !bytes.is_empty() {
                let bit = bit_offset % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        bytes
    }
    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.inner.restore_checkpoint(bytes)
    }
}

/// A supervised `shards`-way engine with one [`FaultPlan`] armed.
/// Every answer — healthy, mid-failure, degraded — is judged inside
/// the envelope the engine reports for it; at the end the fault must
/// have fired and the engine must sit in the mode's terminal state.
pub struct Faulted<B> {
    engine: ShardedAggregate<FaultyBackend<B>>,
    injector: Arc<FaultInjector>,
    /// The latest query tick (the terminal probe).
    last_query: Cell<Time>,
}

impl<B: StreamAggregate + Checkpoint + Clone + Send + 'static> Faulted<B> {
    /// Arms `plan` in a fresh supervised engine over `make` backends.
    pub fn new(plan: FaultPlan, shards: usize, make: impl Fn() -> B) -> Self {
        assert!(plan.victim < shards, "victim must be a real shard");
        let opts = SupervisorOptions {
            max_restarts: match plan.mode {
                FaultMode::Quarantine => 0,
                _ => SupervisorOptions::default().max_restarts,
            },
            ..SupervisorOptions::default()
        };
        let injector = FaultInjector::new(plan);
        Faulted {
            engine: ShardedAggregate::supervised(shards, opts, injector.factory(make)),
            injector,
            last_query: Cell::new(0),
        }
    }

    /// Tells the engine how complete its answers are (the reorder
    /// stage's published watermark).
    pub fn publish_watermark(&mut self, w: Time) {
        self.engine.publish_watermark(w)
    }
}

forward_aggregate!([B: StreamAggregate + Checkpoint + Clone + Send + 'static] Faulted<B>, engine);

impl<B: StreamAggregate + Checkpoint + Clone + Send + 'static> Sut for Faulted<B> {
    fn ingest(&mut self, ev: &Event) -> Result<bool, String> {
        apply(&mut self.engine, ev)
    }

    fn query(&self, t: Time) -> Result<Answer, String> {
        let ans = self.engine.try_query(t).map_err(|e| format!("{e}"))?;
        self.last_query.set(t);
        Ok(Answer {
            degraded: ans.degraded.contains(&self.injector.plan.victim),
            complete_up_to: Some(ans.complete_up_to),
            ..Answer::of(ans.value, ans.bound)
        })
    }

    fn fired(&self) -> Option<bool> {
        Some(self.injector.fired())
    }

    fn finish(&self, stats: &mut Stats) -> Result<(), String> {
        let plan = self.injector.plan;
        if !self.injector.fired() {
            return Err(format!(
                "the armed fault never fired — {plan} is past the victim's share of the \
                 stream, so this run certified nothing"
            ));
        }
        let victim = &self.engine.shard_stats()[plan.victim];
        let ans = self
            .engine
            .try_query(self.last_query.get())
            .map_err(|e| format!("{e}"))?;
        let healed = victim.restarts >= 1 && victim.health == ShardHealth::Live;
        let quarantined = victim.health == ShardHealth::Quarantined;
        let listed = ans.degraded.contains(&plan.victim);
        let why = match plan.mode {
            FaultMode::Restart if !healed => format!("expected a healed restart, got {victim:?}"),
            // Healed means fully healed: checkpoint-per-chunk restarts
            // are lossless, so nothing may be left degraded or lost.
            FaultMode::Restart if !ans.degraded.is_empty() || victim.lost_mass != 0 => format!(
                "restart must heal completely: degraded {:?}, lost_mass {}",
                ans.degraded, victim.lost_mass
            ),
            FaultMode::Restart => return Ok(()),
            _ if !quarantined => format!("expected quarantine, got {victim:?}"),
            _ if !listed || stats.degraded == 0 => format!(
                "quarantined victim missing from the degraded answers {:?}",
                ans.degraded
            ),
            // The victim's uncovered mass is at risk: an exact
            // envelope over a degraded answer would be a silent lie.
            FaultMode::Quarantine if ans.bound.lower <= 0.0 => format!(
                "quarantine must widen the envelope for the at-risk mass, got {:?}",
                ans.bound
            ),
            FaultMode::CorruptCheckpoint { .. }
                if !victim
                    .last_panic
                    .as_deref()
                    .is_some_and(|p| p.contains("checksum")) =>
            {
                format!(
                    "corruption was not detected as a checksum failure: {:?}",
                    victim.last_panic
                )
            }
            _ => return Ok(()),
        };
        Err(why)
    }
}

/// How a reorder stage is configured for one run.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// The lateness policy.
    pub policy: LatenessPolicy,
    /// Allowed lateness in ticks.
    pub bound: u64,
    /// Independent arrival sources.
    pub sources: usize,
}

/// A bounded-lateness reorder stage in front of an inner system. Each
/// arrival's fate and the stage's watermark must match the stream's
/// independent simulation; `Reject` answers come from the inner system
/// (accepted-substream truth), `Fold` answers from the stage's widened
/// envelope (all-items truth at their true timestamps).
pub struct Staged<A: StreamAggregate> {
    r: Reorderer<A>,
    rejected: u64,
    /// Items buffered in the stage at the first answer after a fault
    /// fired (a run whose fault hit an empty stage is vacuous).
    buffered_at_fire: Cell<Option<u64>>,
}

impl<A: StreamAggregate + Sut> Staged<A> {
    /// Puts `inner` behind a stage pricing folds with `decay`.
    pub fn new(inner: A, decay: Box<dyn DecayFunction>, stage: Stage) -> Self {
        Staged {
            r: Reorderer::with_sources(inner, decay, stage.bound, stage.policy, stage.sources),
            rejected: 0,
            buffered_at_fire: Cell::new(None),
        }
    }

    /// Publishes each watermark advance to the inner system.
    pub fn on_watermark(mut self, hook: td_reorder::WatermarkHook<A>) -> Self {
        self.r = self.r.on_watermark(hook);
        self
    }
}

impl<A: StreamAggregate + Sut> Sut for Staged<A> {
    fn ingest(&mut self, ev: &Event) -> Result<bool, String> {
        let policy = self.r.policy();
        let (counts, wm) = match *ev {
            Event::Arrive {
                source,
                t,
                f,
                late,
                wm,
            } => {
                let counts = match (self.r.push(source, t, f), late, policy) {
                    (Ok(()), false, _) | (Ok(()), true, LatenessPolicy::Fold) => true,
                    (Err(e), false, _) => return Err(format!("on-time arrival refused: {e}")),
                    (Ok(()), true, _) => {
                        return Err(format!(
                            "beyond-bound arrival at t={t} (watermark {wm}) accepted under \
                             {policy:?} — the answer was silently altered"
                        ))
                    }
                    (Err(e), true, LatenessPolicy::Reject) => {
                        if (e.time, e.value, e.watermark) != (t, f, wm) {
                            return Err(format!("LatenessError mis-describes the arrival: {e}"));
                        }
                        self.rejected += f;
                        false
                    }
                    (Err(e), true, LatenessPolicy::Fold) => {
                        return Err(format!("Fold refused a late arrival: {e}"))
                    }
                };
                (counts, wm)
            }
            Event::Flush { wm } => {
                self.r.flush();
                (true, wm)
            }
            _ => return unsupported(ev),
        };
        if self.r.watermark() != wm {
            return Err(format!(
                "stage watermark {} diverged from the simulated {wm}",
                self.r.watermark()
            ));
        }
        Ok(counts)
    }

    fn query(&self, t: Time) -> Result<Answer, String> {
        let ans = match self.r.policy() {
            LatenessPolicy::Fold => {
                let (v, b) = self.r.query_with_bound(t);
                Answer::of(v, b)
            }
            LatenessPolicy::Reject => Sut::query(self.r.inner(), t)?,
        };
        if let Some(c) = ans.complete_up_to.filter(|&c| c != self.r.watermark()) {
            return Err(format!(
                "completeness {c} diverged from the published watermark {}",
                self.r.watermark()
            ));
        }
        if self.r.inner().fired() == Some(true) && self.buffered_at_fire.get().is_none() {
            self.buffered_at_fire
                .set(Some(self.r.stats().buffered_items));
        }
        Ok(ans)
    }

    fn fired(&self) -> Option<bool> {
        self.r.inner().fired()
    }

    fn finish(&self, stats: &mut Stats) -> Result<(), String> {
        let s = self.r.stats();
        if s.rejected_mass != self.rejected {
            return Err(format!(
                "stage reports rejected mass {}, the simulation {}",
                s.rejected_mass, self.rejected
            ));
        }
        let stray = match self.r.policy() {
            LatenessPolicy::Reject => s.folded_mass,
            LatenessPolicy::Fold => s.rejected_mass,
        };
        if stray != 0 || s.buffered_items != 0 {
            return Err(format!("stage accounting off after flush: {s:?}"));
        }
        if self.fired().is_some() && self.buffered_at_fire.get().is_none_or(|n| n == 0) {
            return Err(
                "the fault fired with the reorder stage empty — the buffered-mass \
                        path was never exercised"
                    .into(),
            );
        }
        self.r.inner().finish(stats)
    }
}

/// A keyed registry: keyed events route per key, and each key's answer
/// carries the registry's eviction slack as missing weight.
pub struct Keyed<X: StreamAggregate>(pub KeyedRegistry<X>);

fn key_answer<X: StreamAggregate>(reg: &KeyedRegistry<X>, key: u64, t: Time) -> Answer {
    let a = reg.query_key(key, t);
    Answer {
        envelope: a.envelope(),
        ..Answer::of(a.estimate, a.bound)
    }
}

fn registry_stats<X: StreamAggregate>(reg: &KeyedRegistry<X>, stats: &mut Stats) {
    stats.evictions = reg.evictions();
}

impl<X: StreamAggregate> Sut for Keyed<X> {
    fn ingest(&mut self, ev: &Event) -> Result<bool, String> {
        match ev {
            Event::Keyed(items) => match items.as_slice() {
                &[(k, t, f)] => self.0.observe_keyed(k, t, f),
                _ => self.0.observe_keyed_batch(items),
            },
            // Lazy: only the registry clock moves.
            Event::Advance(t) => self.0.advance_clock(*t),
            _ => return apply(&mut self.0, ev),
        }
        Ok(true)
    }
    fn query(&self, t: Time) -> Result<Answer, String> {
        Ok(Answer::of(self.0.query(t), self.0.error_bound()))
    }
    fn query_key(&self, key: u64, t: Time) -> Result<Answer, String> {
        Ok(key_answer(&self.0, key, t))
    }
    fn finish(&self, stats: &mut Stats) -> Result<(), String> {
        registry_stats(&self.0, stats);
        Ok(())
    }
}

/// Logs and applies one keyed ingest call.
type KeyedIngest<B> = fn(&mut DurableAggregate<B>, &[(u64, Time, u64)]) -> Result<(), RestoreError>;

/// The keyed surface of a durable store's backend.
pub struct KeyedOps<B: Checkpoint> {
    observe: KeyedIngest<B>,
    query: fn(&B, u64, Time) -> Answer,
    stats: fn(&B, &mut Stats),
}

impl<X: StreamAggregate + Checkpoint> KeyedOps<KeyedRegistry<X>> {
    /// Keyed ingest and per-key answers for a durable keyed registry.
    pub fn registry() -> Self {
        KeyedOps {
            observe: |d, items| d.observe_keyed_batch(items),
            query: key_answer,
            stats: registry_stats,
        }
    }
}

/// A [`DurableAggregate`]: every ingest call is logged before it is
/// applied; answers come from memory.
pub struct Durable<B: Checkpoint> {
    /// The wrapped store.
    pub agg: DurableAggregate<B>,
    /// Keyed ingest and answers, for keyed backends.
    pub keyed: Option<KeyedOps<B>>,
}

impl<B: Checkpoint> Sut for Durable<B> {
    fn ingest(&mut self, ev: &Event) -> Result<bool, String> {
        match (ev, &self.keyed) {
            (Event::Observe(t, f), _) => self.agg.observe(*t, *f),
            (Event::Batch(items), _) => self.agg.observe_batch(items),
            (Event::Advance(t), _) => self.agg.advance(*t),
            (Event::Keyed(items), Some(k)) => (k.observe)(&mut self.agg, items),
            _ => return unsupported(ev),
        }
        .map_err(|e| format!("durable ingest failed: {e}"))?;
        Ok(true)
    }
    fn query(&self, t: Time) -> Result<Answer, String> {
        Ok(Answer::of(self.agg.query(t), self.agg.error_bound()))
    }
    fn query_key(&self, key: u64, t: Time) -> Result<Answer, String> {
        let k = self.keyed.as_ref().ok_or("not a keyed store")?;
        Ok((k.query)(self.agg.inner(), key, t))
    }
    fn finish(&self, stats: &mut Stats) -> Result<(), String> {
        if let Some(k) = &self.keyed {
            (k.stats)(self.agg.inner(), stats);
        }
        Ok(())
    }
}

/// Opens a durable system on a store, reporting the flattened entries
/// recovery reconstructed.
pub type Open = dyn Fn(MemStorage) -> Result<(Box<dyn Sut>, u64), RestoreError>;

/// Which damage points a crash sweep visits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Damages {
    /// Every `stride`-th byte of every durable file, truncated there
    /// and with one bit flipped there (`1` is kill-at-every-byte).
    Stride(usize),
    /// Only this point (`None`: the never-crashed and undamaged runs).
    Only(Option<Damage>),
}

/// Where the frame headers of one undamaged durable file start, each
/// [`RECORD_HEADER`] bytes long: every WAL record's, found by walking
/// the records' length fields, or, for a checkpoint or manifest, its
/// envelope header and the fields right behind it.
fn header_starts(file: &str, bytes: &[u8]) -> Vec<usize> {
    if parse_segment_name(file).is_none() {
        return vec![0];
    }
    let mut starts = Vec::new();
    let mut off = 0usize;
    while off + RECORD_HEADER <= bytes.len() {
        starts.push(off);
        let len = u64::from_le_bytes(bytes[off + 16..off + 24].try_into().expect("len field"));
        off = usize::try_from(len)
            .ok()
            .and_then(|len| (off + RECORD_HEADER).checked_add(len))
            .unwrap_or(usize::MAX);
    }
    starts
}

/// Kill-at-any-byte: runs `events` into a fresh store (the never-crashed
/// run is certified too), crashes it — only fsynced bytes survive —
/// then damages the snapshot at each selected point. Every recovery
/// must either refuse with a typed `RestoreError` or reconstruct a
/// whole-call prefix of the history whose remainder, replayed by
/// [`drive`], certifies against the full stream's truth. The undamaged
/// snapshot must recover everything.
pub fn crash_sweep(
    open: &Open,
    oracle: &dyn Fn() -> DynOracle,
    kind: TruthKind,
    events: &[Event],
    run: &RunId,
    damages: &Damages,
) -> Result<Stats, Repro> {
    let mut boundaries = vec![0u64];
    for ev in events {
        boundaries.push(boundaries[boundaries.len() - 1] + ev.entries());
    }
    let total = boundaries[events.len()];
    let recover = |storage: MemStorage, damage: Option<Damage>| -> Result<Option<u64>, Repro> {
        let run = RunId {
            damage,
            ..run.clone()
        };
        let fail = |detail: String| Repro::new(&run, 0, None, detail);
        let (mut sut, applied) = match catch_unwind(AssertUnwindSafe(|| open(storage))) {
            Err(p) => return Err(fail(format!("recovery panicked: {}", panic_message(&*p)))),
            Ok(Err(_typed)) => return Ok(None),
            Ok(Ok(pair)) => pair,
        };
        // The first event index at this entry count: queries between
        // equal boundaries are still ahead of the recovered state.
        let idx = boundaries.partition_point(|&b| b < applied);
        if boundaries.get(idx) != Some(&applied) {
            return Err(fail(format!(
                "recovered {applied} entries: not a whole-call boundary of {total} logged"
            )));
        }
        drive(&mut *sut, oracle, kind, events, idx, &run)?;
        Ok(Some(total - applied))
    };

    let mem = MemStorage::new();
    let (mut sut, _) = open(mem.clone())
        .map_err(|e| Repro::new(run, 0, None, format!("fresh open failed: {e}")))?;
    let mut stats = drive(&mut *sut, oracle, kind, events, 0, run)?;
    drop(sut);
    let snapshot = mem.crashed();
    match recover(snapshot.clone(), None)? {
        Some(0) => {}
        lost => {
            return Err(Repro::new(
                run,
                0,
                None,
                format!("undamaged recovery must be complete, got {lost:?} entries lost"),
            ))
        }
    }

    let mut points = Vec::new();
    match damages {
        Damages::Only(d) => points.extend(d.clone()),
        Damages::Stride(stride) => {
            for (file, bytes) in snapshot.durable_files() {
                stats.durable_bytes += bytes.len();
                let headers = header_starts(&file, &bytes);
                for offset in (0..bytes.len()).step_by((*stride).max(1)) {
                    points.push(Damage {
                        file: file.clone(),
                        kind: DamageKind::Truncate(offset),
                    });
                    // A header byte gets every bit flipped: its length
                    // field decides how the reader classifies damage,
                    // so each bit of it, magic and sequence matters.
                    // Elsewhere the flipped bit rotates with the offset
                    // so a full sweep hits low and high bits of every
                    // field.
                    let in_header = headers
                        .iter()
                        .any(|&h| (h..h + RECORD_HEADER).contains(&offset));
                    let bits = if in_header {
                        stats.header_bytes += 1;
                        0..8
                    } else {
                        let bit = (offset % 8) as u64;
                        bit..bit + 1
                    };
                    for bit in bits {
                        points.push(Damage {
                            file: file.clone(),
                            kind: DamageKind::BitFlip(offset as u64 * 8 + bit),
                        });
                    }
                }
            }
        }
    }
    for d in points {
        let damaged = match d.kind {
            DamageKind::Truncate(o) => snapshot.truncated_at(&d.file, o),
            DamageKind::BitFlip(b) => snapshot.bit_flipped(&d.file, b),
        };
        stats.sweeps += 1;
        match recover(damaged, Some(d))? {
            None => stats.refused += 1,
            Some(_) => stats.recovered += 1,
        }
    }
    Ok(stats)
}
