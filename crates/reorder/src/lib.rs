//! Bounded-lateness reordering in front of any [`StreamAggregate`].
//!
//! Every backend in this workspace asserts non-decreasing observation
//! times — the paper's model (§2) and the precondition of every bucket
//! invariant downstream. Real traces are not sorted: arrivals from many
//! clients interleave with bounded skew. This crate closes the gap with
//! the standard streaming-systems construction (cf. MillWheel/Dataflow
//! watermarks, and the adversarial-arrival model of Braverman et al.):
//!
//! * items are buffered in one **calendar wheel** shared by all sources
//!   (a calendar queue, R. Brown, CACM 1988): a ring of buckets, each
//!   covering a power-of-two width of ticks and appended to in arrival
//!   order;
//! * a **watermark** `W = max_seen − allowed_lateness` advances as new
//!   maxima arrive;
//! * every buffered item with `t ≤ W` is released to the wrapped
//!   backend's [`observe_batch`](StreamAggregate::observe_batch) in
//!   `(t, arrival)` order — so the downstream summary sees exactly the
//!   stable sort of the arrival stream and keeps its non-decreasing
//!   invariant *bit for bit* (same coalescing, same f64 summation
//!   order as a sorted sequential replay).
//!
//! Every buffered item has `W < t ≤ max_seen`, a span of at most
//! `allowed_lateness` ticks. The ring grows toward one bucket per tick
//! of that live span but never past the number of buffered items, so a
//! huge bound does not pre-allocate; the bucket width is the smallest
//! power of two with which the ring reaches across the span. A release
//! walks the buckets from the previous watermark up to the new one, so
//! it visits about `ΔW · len / span + 1` buckets: one per tick on a
//! dense stream, a couple per push on a sparse one. With one tick per
//! bucket each bucket is handed over as it stands — already in arrival
//! order, so the batch is the stable sort with no comparison; wider
//! buckets stable-sort their due items by `t`. A due range longer than
//! the ring (an [`advance`](Reorderer::advance) or
//! [`flush`](Reorderer::flush) jump) visits every bucket once and
//! stable-sorts just that batch. Every walk skips empty buckets 64 at a
//! time through an occupancy bitmap, which also bounds the cost of a
//! ring that never shrinks: after a burst has grown it, a sparse tail
//! walks its narrower buckets.
//!
//! Items arriving with `t < W` are **late beyond the bound** and are
//! never silently applied at their (no longer admissible) timestamp.
//! The [`LatenessPolicy`] decides:
//!
//! * [`Reject`](LatenessPolicy::Reject) — the item is dropped and a
//!   typed [`LatenessError`] is returned; the answer then tracks the
//!   stream *minus exactly the rejected mass* (certified by
//!   `td-conformance`'s lateness matrix).
//! * [`Fold`](LatenessPolicy::Fold) — the item is applied at the
//!   current watermark tick `W`, and the stage adds the folded mass
//!   times the decay's [`displacement_cap`](DecayFunction::displacement_cap)
//!   to its [`Envelope`] (see [`Reorderer::query_with_bound`]). The
//!   answer stays inside the *widened* envelope against an oracle fed
//!   the true-timestamp stream.
//!
//! The stage is deliberately synchronous and unsharded: `td-shard`
//! composes it in front of its coordinator (one reorder buffer per
//! ingest source, watermark published next to the applied-epoch
//! counters) so queries can report "complete up to `W`".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;

use td_decay::{DecayFunction, Envelope, ErrorBound, StreamAggregate, Time};

/// What to do with an item whose timestamp is below the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatenessPolicy {
    /// Drop the item and surface a typed [`LatenessError`]. The served
    /// aggregate is then the aggregate of the stream minus exactly the
    /// rejected mass — nothing is applied at a wrong time.
    Reject,
    /// Apply the item at the current watermark tick `W` (the earliest
    /// still-admissible time) and widen the reported [`ErrorBound`] by
    /// the worst-case weight displacement. Mass is never lost, accuracy
    /// degrades honestly.
    Fold,
}

/// A typed rejection: the item's timestamp fell below the watermark
/// under [`LatenessPolicy::Reject`].
///
/// Carries everything needed to account for the loss: the item itself,
/// the watermark that outran it, and the configured bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatenessError {
    /// The item's (true) timestamp.
    pub time: Time,
    /// The item's value — the mass lost by the rejection.
    pub value: u64,
    /// The source index the item arrived on.
    pub source: usize,
    /// The watermark at rejection time; the item was `watermark − time`
    /// ticks too late.
    pub watermark: Time,
    /// The configured lateness bound.
    pub allowed_lateness: u64,
}

impl fmt::Display for LatenessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "late beyond bound: item (t = {}, f = {}) on source {} arrived {} \
             ticks behind watermark {} (allowed lateness {})",
            self.time,
            self.value,
            self.source,
            self.watermark.saturating_sub(self.time),
            self.watermark,
            self.allowed_lateness,
        )
    }
}

impl std::error::Error for LatenessError {}

/// Sortedness scan for the `push_batch` fast path. Branchless within
/// fixed-size blocks (a short-circuiting `windows(2).all` defeats the
/// autovectorizer and tripled the zero-lateness stage overhead in e12),
/// early-out between blocks so a shuffled batch still bails quickly.
#[inline]
fn is_non_decreasing(items: &[(Time, u64)]) -> bool {
    const BLOCK: usize = 128;
    let n = items.len();
    let mut i = 1;
    while i < n {
        let end = (i + BLOCK).min(n);
        let mut ok = true;
        for (a, b) in items[i - 1..end - 1].iter().zip(&items[i..end]) {
            ok &= a.0 <= b.0;
        }
        if !ok {
            return false;
        }
        i = end;
    }
    true
}

/// The smallest ring the wheel allocates: below this, growth steps
/// cost more than the buckets they save.
const MIN_RING: usize = 16;

/// Observable counters of a [`Reorderer`] — cheap copies, safe to poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReorderStats {
    /// The current watermark `W`: served answers are complete up to it.
    pub watermark: Time,
    /// The largest timestamp seen on any source.
    pub max_seen: Time,
    /// Items currently buffered (arrived, not yet released).
    pub buffered_items: u64,
    /// Total mass currently buffered.
    pub buffered_mass: u64,
    /// Items released downstream so far.
    pub released_items: u64,
    /// Mass applied at the watermark tick under
    /// [`LatenessPolicy::Fold`].
    pub folded_mass: u64,
    /// Mass dropped under [`LatenessPolicy::Reject`].
    pub rejected_mass: u64,
}

/// One fold event: `mass` units applied at watermark `tick` instead of
/// their true (earlier) timestamps, kept for the query-time `under`
/// term. Same-tick folds coalesce: the list grows with *distinct* fold
/// ticks, not folded items.
#[derive(Debug, Clone, Copy)]
struct FoldEvent {
    tick: Time,
    mass: u64,
}

/// A watermark hook: invoked with `(&mut inner, W)` after every
/// watermark advance. See [`Reorderer::on_watermark`].
pub type WatermarkHook<A> = Box<dyn FnMut(&mut A, Time) + Send>;

/// The bounded-lateness reordering stage. See the crate docs for the
/// model; see [`Reorderer::push`] for the per-item semantics.
pub struct Reorderer<A: StreamAggregate> {
    inner: A,
    decay: Box<dyn DecayFunction>,
    allowed_lateness: u64,
    policy: LatenessPolicy,
    sources: usize,
    /// The calendar wheel: bucket `(t >> shift) mod ring.len()` holds
    /// the buffered items of its ticks in arrival order. The length is
    /// 0 or a power of two; emptied buckets keep their capacity.
    ring: Vec<Vec<(Time, u64)>>,
    /// log2 of a bucket's width in ticks: 0 while the ring holds one
    /// bucket per live tick, larger once the span outruns the items.
    shift: u32,
    /// One bit per bucket, set while the bucket holds items.
    occupied: Vec<u64>,
    max_seen: Time,
    watermark: Time,
    buffered_items: u64,
    buffered_mass: u64,
    released_items: u64,
    rejected_mass: u64,
    folded_mass: u64,
    folds: Vec<FoldEvent>,
    /// Every fold's over-count, as a running `over` term.
    displaced: Envelope,
    /// The release batch (capacity reused).
    batch: Vec<(Time, u64)>,
    /// The envelope of the most recent answer (folded widening is
    /// query-time dependent; `error_bound` reports the last one).
    last_bound: Cell<Option<ErrorBound>>,
    /// Invoked with the wrapped backend after every watermark advance —
    /// the hook `td-shard` uses to publish `W` next to its epoch
    /// counters.
    on_watermark: Option<WatermarkHook<A>>,
}

impl<A: StreamAggregate + fmt::Debug> fmt::Debug for Reorderer<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reorderer")
            .field("inner", &self.inner)
            .field("allowed_lateness", &self.allowed_lateness)
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<A: StreamAggregate> Reorderer<A> {
    /// A single-source stage in front of `inner`.
    ///
    /// `decay` must be the same decay function `inner` aggregates under
    /// — it prices the envelope widening of folded mass. The watermark
    /// starts at 0: nothing is late before anything has been seen.
    pub fn new(
        inner: A,
        decay: Box<dyn DecayFunction>,
        allowed_lateness: u64,
        policy: LatenessPolicy,
    ) -> Self {
        Self::with_sources(inner, decay, allowed_lateness, policy, 1)
    }

    /// A stage buffering `sources` independent arrival sequences in one
    /// calendar wheel: items of every source share the wheel's
    /// buckets, so equal ticks from different sources release in
    /// arrival order. The watermark is global: `max_seen` over *all*
    /// sources minus the bound, so one fast source ages out the others'
    /// skew budget exactly as in the shared-clock model of §6.
    pub fn with_sources(
        inner: A,
        decay: Box<dyn DecayFunction>,
        allowed_lateness: u64,
        policy: LatenessPolicy,
        sources: usize,
    ) -> Self {
        assert!(sources >= 1, "need at least one source");
        Reorderer {
            inner,
            decay,
            allowed_lateness,
            policy,
            sources,
            ring: Vec::new(),
            shift: 0,
            occupied: Vec::new(),
            max_seen: 0,
            watermark: 0,
            buffered_items: 0,
            buffered_mass: 0,
            released_items: 0,
            rejected_mass: 0,
            folded_mass: 0,
            folds: Vec::new(),
            displaced: Envelope::from(ErrorBound::exact()),
            batch: Vec::new(),
            last_bound: Cell::new(None),
            on_watermark: None,
        }
    }

    /// Installs a hook invoked with `(&mut inner, W)` after every
    /// watermark advance (including [`flush`](Reorderer::flush)).
    /// `td-shard` uses this to publish `W` alongside its applied-epoch
    /// counters so queries can report "complete up to `W`".
    pub fn on_watermark(mut self, hook: WatermarkHook<A>) -> Self {
        self.on_watermark = Some(hook);
        self
    }

    /// The current watermark: answers are complete up to `W`; items
    /// with `t ≤ W` have all been released downstream.
    pub fn watermark(&self) -> Time {
        self.watermark
    }

    /// The configured lateness bound.
    pub fn allowed_lateness(&self) -> u64 {
        self.allowed_lateness
    }

    /// The configured policy for beyond-bound items.
    pub fn policy(&self) -> LatenessPolicy {
        self.policy
    }

    /// Current counters (buffered/released/folded/rejected mass).
    pub fn stats(&self) -> ReorderStats {
        ReorderStats {
            watermark: self.watermark,
            max_seen: self.max_seen,
            buffered_items: self.buffered_items,
            buffered_mass: self.buffered_mass,
            released_items: self.released_items,
            folded_mass: self.folded_mass,
            rejected_mass: self.rejected_mass,
        }
    }

    /// The wrapped backend (answers are complete up to
    /// [`watermark`](Reorderer::watermark) only).
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Feeds one item from `source`. The full per-item semantics:
    ///
    /// * `t ≥ W` — **on time** (an item exactly at the watermark is on
    ///   time: `W` itself is still admissible, since releases are
    ///   non-decreasing up to `W`). The item is buffered; if it raises
    ///   `max_seen`, the watermark advances to
    ///   `max_seen − allowed_lateness` and everything `≤ W` is released
    ///   downstream in `(t, arrival)` order.
    /// * `t < W` — **late beyond the bound**; dispatched to the
    ///   [`LatenessPolicy`]. `Reject` drops the item and returns the
    ///   typed error; `Fold` applies it at tick `W`, records the
    ///   envelope widening, and returns `Ok`.
    pub fn push(&mut self, source: usize, t: Time, f: u64) -> Result<(), LatenessError> {
        assert!(
            source < self.sources,
            "source {source} out of range ({} sources)",
            self.sources
        );
        if t < self.watermark {
            return self.handle_late(source, t, f);
        }
        // The new watermark comes first, so the ring is sized for the
        // span this item leaves behind, not the one it closes.
        let from = self.watermark;
        if t > self.max_seen {
            self.max_seen = t;
            self.watermark = from.max(t.saturating_sub(self.allowed_lateness));
        }
        let raised = self.watermark > from;
        if t > self.watermark {
            self.insert(t, f);
            if raised {
                self.release(from);
            }
        } else {
            // Due on arrival: the item sits at the old watermark, or it
            // raised the watermark to itself (zero lateness). What the
            // raise releases is older and goes first; what stays
            // buffered is later. The item never visits the wheel.
            if raised {
                self.release(from);
            }
            self.released_items += 1;
            self.inner.observe_batch(&[(t, f)]);
        }
        if raised {
            self.fire_watermark();
        }
        Ok(())
    }

    /// Feeds a `(time, value)` batch from `source` — items need *not*
    /// be sorted (that is the point of the stage), but an in-order feed
    /// at `allowed_lateness == 0` with empty buffers takes a fast path
    /// whose shape is picked by the backend's own
    /// [`batched_ingest_amortizes`](StreamAggregate::batched_ingest_amortizes)
    /// hint:
    ///
    /// * per-item backends get a fused loop — one monotonicity compare
    ///   folded into each (inlined) `observe` call, no second pass over
    ///   the batch, which is what keeps the zero-lateness stage inside
    ///   the e12 gate (≤ 1.10× raw batched ingest);
    /// * batch-kernel backends keep their `observe_batch` amortization:
    ///   the sortedness scan runs in small sub-blocks immediately ahead
    ///   of the block it admits, so the block is still in L1 when the
    ///   kernel reads it back.
    ///
    /// Either way the items handled fast are bit-equivalent to per-item
    /// [`push`](Reorderer::push) calls; everything from the first
    /// out-of-order position on falls back to exactly that.
    ///
    /// Under [`LatenessPolicy::Reject`] the first beyond-bound item
    /// aborts the batch (earlier items are applied) and its error is
    /// returned.
    pub fn push_batch(
        &mut self,
        source: usize,
        items: &[(Time, u64)],
    ) -> Result<(), LatenessError> {
        let Some(&(first_t, _)) = items.first() else {
            return Ok(());
        };
        let mut rest = items;
        if self.allowed_lateness == 0 && self.buffered_items == 0 && first_t >= self.max_seen {
            let mut prev_t = first_t;
            let mut taken = 0usize;
            if self.inner.batched_ingest_amortizes() {
                const BLOCK: usize = 64;
                while taken < items.len() {
                    let block = &items[taken..(taken + BLOCK).min(items.len())];
                    if !(prev_t <= block[0].0 && is_non_decreasing(block)) {
                        break;
                    }
                    prev_t = block[block.len() - 1].0;
                    self.inner.observe_batch(block);
                    taken += block.len();
                }
            } else {
                for &(t, f) in items {
                    if t < prev_t {
                        break;
                    }
                    self.inner.observe(t, f);
                    prev_t = t;
                    taken += 1;
                }
            }
            if taken > 0 {
                self.released_items += taken as u64;
                self.max_seen = prev_t;
                if prev_t > self.watermark {
                    self.watermark = prev_t;
                    self.fire_watermark();
                }
                rest = &items[taken..];
            }
        }
        for &(t, f) in rest {
            self.push(source, t, f)?;
        }
        Ok(())
    }

    /// A watermark heartbeat: declares that `source`s will produce no
    /// item with `t < t_punct − allowed_lateness` anymore — exactly as
    /// if an (empty) item at `t_punct` had arrived. Advances `max_seen`
    /// and the watermark, releases eligible items, and advances the
    /// wrapped backend's clock to `W` so time-expired state is
    /// reclaimed during silence. A punctuation below `max_seen` is a
    /// no-op (watermarks never regress).
    pub fn advance(&mut self, t_punct: Time) {
        if t_punct > self.max_seen {
            self.max_seen = t_punct;
        }
        let w = self.max_seen.saturating_sub(self.allowed_lateness);
        if w > self.watermark {
            let from = std::mem::replace(&mut self.watermark, w);
            self.release(from);
            self.inner.advance(self.watermark);
            self.fire_watermark();
        }
    }

    /// Forces the watermark to `max_seen` and drains every buffer:
    /// afterwards answers are complete up to everything that has
    /// arrived. Items arriving later with `t < max_seen` are then late
    /// (the watermark never regresses). Use before shutdown or before a
    /// query that must reflect all accepted items.
    pub fn flush(&mut self) {
        let from = self.watermark;
        self.watermark = from.max(self.max_seen);
        self.release(from);
        self.fire_watermark();
    }

    /// Flushes and returns the wrapped backend.
    pub fn into_inner(mut self) -> A {
        self.flush();
        self.inner
    }

    /// The wrapped backend's answer at `t` — complete up to the
    /// watermark only (buffered items are not visible; call
    /// [`flush`](Reorderer::flush) first for a complete answer). The
    /// envelope of this answer (widened for folded mass) is cached for
    /// [`error_bound`](Reorderer::error_bound).
    pub fn query(&self, t: Time) -> f64 {
        self.query_with_bound(t).0
    }

    /// The answer at `t` with its certified envelope: the wrapped
    /// backend's bound, every fold's over-count, and as missing weight
    /// the folds at ticks `≥ t`, not yet visible (DESIGN.md §9,
    /// "Envelopes"). With no folds it is the backend's own bound.
    pub fn query_with_bound(&self, t: Time) -> (f64, ErrorBound) {
        let est = self.inner.query(t);
        let unseen: u64 = self
            .folds
            .iter()
            .rev()
            .take_while(|ev| ev.tick >= t)
            .map(|ev| ev.mass)
            .sum();
        let bound = Envelope {
            bound: self.inner.error_bound(),
            ..self.displaced
        }
        .missing(unseen as f64, self.decay.weight_cap())
        .to_bound(est);
        self.last_bound.set(Some(bound));
        (est, bound)
    }

    /// The envelope of the most recent answer. With folded mass the
    /// widening depends on the query tick, so issue a query first; with
    /// no folds this is the wrapped backend's own envelope.
    pub fn error_bound(&self) -> ErrorBound {
        if self.folds.is_empty() {
            return self.inner.error_bound();
        }
        self.last_bound.get().unwrap_or_else(ErrorBound::unbounded)
    }

    fn handle_late(&mut self, source: usize, t: Time, f: u64) -> Result<(), LatenessError> {
        match self.policy {
            LatenessPolicy::Reject => {
                self.rejected_mass += f;
                Err(LatenessError {
                    time: t,
                    value: f,
                    source,
                    watermark: self.watermark,
                    allowed_lateness: self.allowed_lateness,
                })
            }
            LatenessPolicy::Fold => {
                let w = self.watermark;
                // The buffer never holds items ≤ W (released eagerly),
                // so observing at W keeps the backend non-decreasing.
                self.inner.observe(w, f);
                self.folded_mass += f;
                self.displaced = self
                    .displaced
                    .excess(f as f64, self.decay.displacement_cap(w - t));
                match self.folds.last_mut() {
                    Some(ev) if ev.tick == w => ev.mass += f,
                    _ => self.folds.push(FoldEvent { tick: w, mass: f }),
                }
                Ok(())
            }
        }
    }

    /// Buffers an on-time item (`W < t ≤ max_seen`) in its bucket,
    /// first re-sizing the wheel if the live span `max_seen − W` has
    /// outgrown the ring's reach or a longer ring would narrow buckets
    /// that enough items now fill.
    #[inline]
    fn insert(&mut self, t: Time, f: u64) {
        let span = self.max_seen - self.watermark;
        let len = self.ring.len();
        if len == 0
            || (span - 1) >> self.shift >= len as u64
            || ((len as u64) < span && len <= self.buffered_items as usize)
        {
            self.regrow(span);
        }
        let i = ((t >> self.shift) & (self.ring.len() as u64 - 1)) as usize;
        let bucket = &mut self.ring[i];
        if bucket.is_empty() {
            self.occupied[i / 64] |= 1 << (i % 64);
        }
        bucket.push((t, f));
        self.buffered_items += 1;
        self.buffered_mass += f;
    }

    /// Re-sizes the wheel for a live span of `span` ticks: the ring
    /// grows toward one bucket per tick but never past the buffered
    /// item count (and never shrinks), and the bucket width is the
    /// smallest power of two with which the ring reaches across the
    /// span. Every buffered item is re-bucketed; the items at one tick
    /// share a bucket before and after and are moved in order, so each
    /// tick's arrival order survives.
    #[cold]
    fn regrow(&mut self, span: u64) {
        let items = (self.buffered_items as usize + 1).next_power_of_two();
        let ticks = usize::try_from(span)
            .ok()
            .and_then(usize::checked_next_power_of_two)
            .unwrap_or(usize::MAX);
        let len = ticks.min(items).max(MIN_RING).max(self.ring.len());
        let mut shift = 0;
        while (span - 1) >> shift >= len as u64 {
            shift += 1;
        }
        let old = std::mem::replace(&mut self.ring, (0..len).map(|_| Vec::new()).collect());
        self.occupied = vec![0; len.div_ceil(64)];
        self.shift = shift;
        let mask = len as u64 - 1;
        for bucket in old {
            for &(t, f) in &bucket {
                let i = ((t >> shift) & mask) as usize;
                self.ring[i].push((t, f));
                self.occupied[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Releases every buffered item in `(from, W]` downstream as one
    /// batch, in `(t, arrival)` order — the *stable* sort of the
    /// arrival stream, so same-tick coalescing and f64 summation order
    /// match a sorted sequential replay exactly.
    ///
    /// A due range spanning no more buckets than the ring has visits
    /// them once each, in tick order; no two of them alias, so each
    /// bucket's `≤ W` items lie in its own width of ticks, already in
    /// order when that width is one tick and stable-sorted by `t`
    /// otherwise. A longer range visits every bucket once and
    /// stable-sorts the whole batch by `t`. Either sort keeps a tick's
    /// items in arrival order: they never leave their bucket. The walk
    /// skips empty buckets 64 at a time through the occupancy bits.
    fn release(&mut self, from: Time) {
        if self.buffered_items == 0 {
            return;
        }
        let (w, len, shift) = (self.watermark, self.ring.len(), self.shift);
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        let (first, last) = ((from + 1) >> shift, w >> shift);
        let jump = last - first >= len as u64;
        let (mut i, visits) = if jump {
            (0, len)
        } else {
            (
                (first & (len as u64 - 1)) as usize,
                (last - first + 1) as usize,
            )
        };
        let buffered = self.buffered_items as usize;
        let mut left = visits;
        while left > 0 && batch.len() < buffered {
            // Skip to the next occupied bucket, stopping at the end of
            // the word, of the ring and of the due range.
            let bits = self.occupied[i / 64] >> (i % 64);
            let skip = if bits == 0 {
                (64 - i % 64).min(len - i)
            } else {
                bits.trailing_zeros() as usize
            };
            if skip > 0 {
                let skip = skip.min(left);
                left -= skip;
                i = (i + skip) & (len - 1);
                continue;
            }
            let bucket = &mut self.ring[i];
            let before = batch.len();
            batch.extend(bucket.iter().filter(|&&(t, _)| t <= w));
            if batch.len() - before == bucket.len() {
                bucket.clear();
                self.occupied[i / 64] &= !(1 << (i % 64));
            } else {
                bucket.retain(|&(t, _)| t > w);
            }
            if shift > 0 && !jump && batch.len() - before > 1 {
                batch[before..].sort_by_key(|&(t, _)| t);
            }
            left -= 1;
            i = (i + 1) & (len - 1);
        }
        if jump {
            batch.sort_by_key(|&(t, _)| t);
        }
        if !batch.is_empty() {
            self.buffered_items -= batch.len() as u64;
            self.buffered_mass -= batch.iter().map(|&(_, f)| f).sum::<u64>();
            self.released_items += batch.len() as u64;
            self.inner.observe_batch(&batch);
        }
        self.batch = batch;
    }

    fn fire_watermark(&mut self) {
        if let Some(hook) = self.on_watermark.as_mut() {
            hook(&mut self.inner, self.watermark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_counters::ExactDecayedSum;
    use td_decay::Exponential;

    fn stage(
        lateness: u64,
        policy: LatenessPolicy,
    ) -> Reorderer<ExactDecayedSum<Box<dyn DecayFunction>>> {
        Reorderer::new(
            ExactDecayedSum::new(Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>),
            Box::new(Exponential::new(0.01)),
            lateness,
            policy,
        )
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut r = stage(4, LatenessPolicy::Reject);
        for t in 1..=20u64 {
            r.push(0, t, 1).unwrap();
        }
        // Watermark trails max_seen by the bound; items ≤ 16 released.
        assert_eq!(r.watermark(), 16);
        assert_eq!(r.stats().buffered_items, 4);
        r.flush();
        assert_eq!(r.stats().buffered_items, 0);
        let mut direct =
            ExactDecayedSum::new(Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>);
        for t in 1..=20u64 {
            direct.observe(t, 1);
        }
        assert_eq!(r.query(25).to_bits(), direct.query(25).to_bits());
    }

    #[test]
    fn shuffle_within_bound_is_exact() {
        let mut r = stage(8, LatenessPolicy::Reject);
        // 1..=16 arriving with a skew of up to 5 < 8.
        let arrivals = [3u64, 1, 2, 5, 4, 7, 6, 8, 10, 9, 12, 11, 14, 13, 16, 15];
        for &t in &arrivals {
            r.push(0, t, t).unwrap();
        }
        r.flush();
        let mut direct =
            ExactDecayedSum::new(Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>);
        for t in 1..=16u64 {
            direct.observe(t, t);
        }
        assert_eq!(r.query(20).to_bits(), direct.query(20).to_bits());
        assert_eq!(r.stats().rejected_mass, 0);
    }

    #[test]
    fn reject_surfaces_typed_error_and_loses_exactly_that_mass() {
        let mut r = stage(2, LatenessPolicy::Reject);
        r.push(0, 10, 5).unwrap();
        assert_eq!(r.watermark(), 8);
        let err = r.push(0, 3, 7).unwrap_err();
        assert_eq!(err.time, 3);
        assert_eq!(err.value, 7);
        assert_eq!(err.watermark, 8);
        assert_eq!(r.stats().rejected_mass, 7);
        r.flush();
        let mut direct =
            ExactDecayedSum::new(Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>);
        direct.observe(10, 5);
        assert_eq!(r.query(12).to_bits(), direct.query(12).to_bits());
    }

    #[test]
    fn fold_applies_at_watermark_and_widens_upper() {
        let mut r = stage(2, LatenessPolicy::Fold);
        r.push(0, 10, 5).unwrap();
        r.push(0, 3, 7).unwrap(); // late: folded at W = 8
        r.flush();
        let (est, bound) = r.query_with_bound(12);
        // The folded item sits at 8, the true one at 3 — overestimate.
        let g = Exponential::new(0.01);
        let truth = 5.0 * g.weight(2) + 7.0 * g.weight(9);
        assert!(est > truth);
        assert!(bound.upper > 0.0, "fold must widen the upper side");
        assert!(bound.admits(est, truth, 1e-9), "{bound:?} vs {truth}");
        assert_eq!(r.stats().folded_mass, 7);
    }

    #[test]
    fn fold_at_query_tick_widens_lower() {
        let mut r = stage(0, LatenessPolicy::Fold);
        r.push(0, 10, 5).unwrap();
        r.push(0, 9, 3).unwrap(); // folded at W = 10
                                  // Query exactly at the fold tick: the fold is invisible (§2.1)
                                  // but the true item (t = 9) is visible — underestimate risk.
        let (est, bound) = r.query_with_bound(10);
        let g = Exponential::new(0.01);
        let truth = 3.0 * g.weight(1);
        assert!(est < truth);
        assert!(bound.lower > 0.0, "at-tick fold must widen the lower side");
        assert!(bound.admits(est, truth, 1e-9), "{bound:?} vs {truth}");
    }

    #[test]
    fn sparse_ticks_widen_buckets_instead_of_walking_ticks() {
        // Items 10^4 ticks apart under a bound of 10^8: ~10^4 buffered
        // over a span of 10^8 ticks. The ring stays within twice the
        // buffered count and its buckets widen until it reaches across
        // the span, so each push's release visits a couple of buckets
        // rather than 10^4 ticks' worth.
        let mut r = stage(100_000_000, LatenessPolicy::Reject);
        for i in 1..=30_000u64 {
            r.push(0, i * 10_000, 1).unwrap();
        }
        let span = r.stats().max_seen - r.watermark();
        let buffered = r.stats().buffered_items;
        let len = r.ring.len() as u64;
        assert!(len <= 2 * buffered.next_power_of_two(), "{len} buckets");
        assert!((span - 1) >> r.shift < len, "ring does not reach the span");
        assert!(10_000 >> r.shift <= 2, "buckets of 2^{} ticks", r.shift);
        let occupied: u32 = r.occupied.iter().map(|w| w.count_ones()).sum();
        let nonempty = r.ring.iter().filter(|b| !b.is_empty()).count();
        assert_eq!(occupied as usize, nonempty);
    }

    #[test]
    fn watermark_hook_fires_monotonically() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut r = stage(3, LatenessPolicy::Reject).on_watermark(Box::new(move |_, w| {
            let prev = seen2.swap(w, Ordering::Relaxed);
            assert!(w >= prev, "watermark regressed: {w} < {prev}");
        }));
        for t in [5u64, 2, 9, 9, 14, 11] {
            let _ = r.push(0, t, 1);
        }
        r.flush();
        assert_eq!(seen.load(Ordering::Relaxed), 14);
    }
}
