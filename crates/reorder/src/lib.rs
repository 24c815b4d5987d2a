//! Bounded-lateness reordering in front of any [`StreamAggregate`].
//!
//! Every backend in this workspace asserts non-decreasing observation
//! times — the paper's model (§2) and the precondition of every bucket
//! invariant downstream. Real traces are not sorted: arrivals from many
//! clients interleave with bounded skew. This crate closes the gap with
//! the standard streaming-systems construction (cf. MillWheel/Dataflow
//! watermarks, and the adversarial-arrival model of Braverman et al.):
//!
//! * items are buffered in a **per-source min-heap** keyed by timestamp;
//! * a **watermark** `W = max_seen − allowed_lateness` advances as new
//!   maxima arrive;
//! * every buffered item with `t ≤ W` is released to the wrapped
//!   backend's [`observe_batch`](StreamAggregate::observe_batch) in
//!   `(t, arrival)` order — so the downstream summary sees exactly the
//!   stable sort of the arrival stream and keeps its non-decreasing
//!   invariant *bit for bit* (same coalescing, same f64 summation
//!   order as a sorted sequential replay).
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
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// A buffered item: ordered by `(t, seq)` so equal-timestamp items
/// release in arrival order — the stable sort of the input, which keeps
/// f64 summation order identical to a sorted sequential replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    t: Time,
    seq: u64,
    f: u64,
}

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
    heaps: Vec<BinaryHeap<Reverse<Pending>>>,
    seq: u64,
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
    /// Scratch for sorted release batches (capacity reused).
    scratch: Vec<Pending>,
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

    /// A stage buffering `sources` independent arrival sequences, each
    /// in its own min-heap. The watermark is global: `max_seen` over
    /// *all* sources minus the bound, so one fast source ages out the
    /// others' skew budget exactly as in the shared-clock model of §6.
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
            heaps: (0..sources).map(|_| BinaryHeap::new()).collect(),
            seq: 0,
            max_seen: 0,
            watermark: 0,
            buffered_items: 0,
            buffered_mass: 0,
            released_items: 0,
            rejected_mass: 0,
            folded_mass: 0,
            folds: Vec::new(),
            displaced: Envelope::from(ErrorBound::exact()),
            scratch: Vec::new(),
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
            source < self.heaps.len(),
            "source {source} out of range ({} sources)",
            self.heaps.len()
        );
        if t < self.watermark {
            return self.handle_late(source, t, f);
        }
        let seq = self.seq;
        self.seq += 1;
        self.heaps[source].push(Reverse(Pending { t, seq, f }));
        self.buffered_items += 1;
        self.buffered_mass += f;
        if t > self.max_seen {
            self.max_seen = t;
            let w = self.max_seen.saturating_sub(self.allowed_lateness);
            if w > self.watermark {
                self.watermark = w;
                self.release();
                self.fire_watermark();
                return Ok(());
            }
        }
        // No watermark motion, but the item itself may sit exactly at
        // `W` (releasable immediately).
        if t <= self.watermark {
            self.release();
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
                self.seq += taken as u64;
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
            self.watermark = w;
            self.release();
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
        if self.max_seen > self.watermark {
            self.watermark = self.max_seen;
        }
        if self.buffered_items > 0 {
            self.release();
        }
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

    /// Drains every heap's `≤ W` prefix, merges the drained items into
    /// one `(t, seq)`-sorted batch, and feeds it downstream. The `seq`
    /// tiebreak makes this the *stable* sort of the arrival stream, so
    /// same-tick coalescing and f64 summation order match a sorted
    /// sequential replay exactly.
    fn release(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut batch = std::mem::take(&mut self.batch);
        scratch.clear();
        batch.clear();
        for heap in &mut self.heaps {
            while let Some(&Reverse(p)) = heap.peek() {
                if p.t > self.watermark {
                    break;
                }
                heap.pop();
                scratch.push(p);
            }
        }
        if !scratch.is_empty() {
            scratch.sort_unstable();
            batch.extend(scratch.iter().map(|p| (p.t, p.f)));
            self.buffered_items -= scratch.len() as u64;
            self.buffered_mass -= batch.iter().map(|&(_, f)| f).sum::<u64>();
            self.released_items += scratch.len() as u64;
            self.inner.observe_batch(&batch);
        }
        self.scratch = scratch;
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
