//! Multi-tenant keyed registry: millions of per-key decayed aggregates
//! in slab storage with lazy advance and decay-aware eviction.
//!
//! The paper's guarantees are per-aggregate; production rate-limiters
//! consult a *map* of them — one decayed counter per user, per link,
//! per tenant. [`KeyedRegistry`] is that layer, built so its cost is
//! dominated by layout and indexing rather than aggregation:
//!
//! - **Slab storage.** Per-key backend state lives in a dense
//!   `Vec<B>` arena addressed by `u32` slot, with per-slot metadata
//!   (key, generation, touch counters) in parallel SoA columns. No
//!   per-key `Box`, no pointer chasing: a hot-key batch walks
//!   contiguous cache lines.
//! - **Lazy advance.** [`KeyedRegistry::advance`] moves one registry
//!   clock and touches *no* slots. Each backend carries its own notion
//!   of time and answers queries at any `t` at or past its last
//!   observation, so a 10M-key registry pays for its active set, not
//!   its population — there is never a global advance pass.
//! - **Decay-aware eviction.** An incremental sweep (K slots per
//!   ingest call, round-robin cursor — no stop-the-world) retires keys
//!   whose remaining decayed mass can no longer exceed a threshold.
//!   The certified upper bound on everything an evicted key could
//!   still have answered is accumulated into a registry-level slack,
//!   so whole-registry answers stay honest: the reported
//!   [`ErrorBound`] widens by exactly the mass that was dropped.
//!   Evicted keys resurrect as fresh slots (generation bumped, state
//!   re-made) — a recycled slot can never leak a prior tenant's mass.
//! - **One segmented checkpoint.** [`Checkpoint`] for the whole
//!   registry writes a single envelope — one header plus a packed
//!   block of per-slot records — instead of millions of tiny per-key
//!   envelopes, and restores to an observably identical twin.
//!
use std::cell::Cell;
use std::sync::Arc;

use td_decay::checkpoint::{
    fingerprint, Checkpoint, CheckpointReader, CheckpointWriter, RestoreError,
};
use td_decay::{ErrorBound, StorageAccounting, StreamAggregate, Time};
use td_persist::KeyedCheckpoint;

mod index;

use index::KeyIndex;

/// Checkpoint payload tag for [`KeyedRegistry`] (backends use ≤ 12,
/// `td-persist` wrappers 0xD7/0xD8).
pub const TAG_REGISTRY: u8 = 20;

/// Fan-out for the un-keyed [`StreamAggregate`] facade: plain
/// `observe(t, f)` routes to key `hash(f) % AUTO_FANOUT`, so the
/// registry composes with every single-stream harness (certification,
/// recovery, sharding) while still exercising the multi-key machinery.
/// Pinned in checkpoints as `fanout=64`.
const AUTO_FANOUT: u64 = 64;

/// Tuning knobs for a [`KeyedRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryOptions {
    /// Keys the index is pre-sized for (it grows past this freely).
    pub expected_keys: usize,
    /// Evict a key once the certified upper bound on everything it
    /// could still answer drops to this value or below. `0.0`
    /// disables eviction (the sweep never runs).
    pub eviction_threshold: f64,
    /// Slots visited by the incremental eviction sweep per ingest
    /// call. Bounds per-call sweep work; a full pass over `S` slots
    /// completes within `S / sweep_per_ingest` ingest calls.
    pub sweep_per_ingest: usize,
    /// Keep a log of evicted keys (testing / ops aid; not part of the
    /// checkpoint).
    pub record_evictions: bool,
}

impl Default for RegistryOptions {
    fn default() -> Self {
        RegistryOptions {
            expected_keys: 1024,
            eviction_threshold: 0.0,
            sweep_per_ingest: 8,
            record_evictions: false,
        }
    }
}

impl RegistryOptions {
    /// Fingerprint of the knobs that shape observable state — pinned
    /// inside checkpoints so a restore onto a differently-configured
    /// registry is refused instead of silently diverging.
    fn config_pin(&self) -> u64 {
        fingerprint(&format!(
            "registry v1 threshold={:016x} sweep={} fanout={}",
            self.eviction_threshold.to_bits(),
            self.sweep_per_ingest,
            AUTO_FANOUT,
        ))
    }
}

/// A per-key answer: the estimate plus everything needed to judge it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyAnswer {
    /// The backend's decayed estimate for this key (0.0 for a key the
    /// registry has never seen or has evicted).
    pub estimate: f64,
    /// The backend's own relative envelope for the estimate.
    pub bound: ErrorBound,
    /// Additive slack from eviction: the certified upper bound on the
    /// total decayed mass the registry has dropped across *all*
    /// evicted keys. Any key's true value can exceed its estimate by
    /// at most this much on account of eviction.
    pub evicted_slack: f64,
}

impl KeyAnswer {
    /// Does `truth` sit inside this answer's envelope (relative bound
    /// plus eviction slack plus `slop` for float noise)?
    pub fn admits(&self, truth: f64, slop: f64) -> bool {
        self.bound
            .admits(self.estimate, truth, slop + self.evicted_slack)
    }
}

/// A point-in-time summary of registry occupancy and sweep activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistryStats {
    /// Keys currently resident.
    pub live_keys: usize,
    /// Slots allocated (live + free-listed).
    pub slots: usize,
    /// Keys retired by the eviction sweep since construction.
    pub evictions: u64,
    /// Certified upper bound on total decayed mass dropped by
    /// eviction.
    pub evicted_mass: f64,
    /// Slots visited by the incremental sweep (its total work).
    pub sweep_visits: u64,
    /// Observations ingested across all keys.
    pub touches_total: u64,
    /// Bytes resident: slab columns + states + index + free list.
    pub resident_bytes: usize,
}

/// Hot per-slot ingest metadata: both fields are written on every
/// observation of the slot, so they share one 16-byte record (one
/// cache line touch instead of two column misses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotMeta {
    /// Observations ingested (drives `top_touched`).
    touches: u64,
    /// Stream time of the slot's last observation.
    last_touch: Time,
}

/// A keyed map of independent per-key decayed aggregates in slab
/// storage. See the crate docs for the design.
pub struct KeyedRegistry<B: StreamAggregate> {
    opts: RegistryOptions,
    /// Dense arena of per-key backend state, addressed by slot.
    states: Vec<B>,
    // --- SoA metadata columns, parallel to `states` ---
    /// Owning key per slot (meaningful only where `occupied`).
    keys: Vec<u64>,
    /// Slot generation, bumped on eviction: a resurrected key gets a
    /// visibly different (key, generation) identity.
    gens: Vec<u32>,
    /// Hot per-slot ingest metadata, one cache line's worth per slot
    /// (touches and last-touch travel together: every ingest writes
    /// both, so splitting them into separate columns would double the
    /// random-access misses on the hot path).
    meta: Vec<SlotMeta>,
    /// Whether the slot currently holds a live key.
    occupied: Vec<bool>,
    /// key → slot.
    idx: KeyIndex,
    /// Reusable slots, most recently freed last (LIFO reuse keeps the
    /// allocation order deterministic).
    free: Vec<u32>,
    /// Registry stream clock: max time seen across observe/advance.
    clock: Time,
    started: bool,
    /// Certified upper bound on total decayed mass dropped by
    /// eviction (monotone; never decreases).
    evicted_mass: f64,
    evictions: u64,
    /// Round-robin position of the incremental sweep.
    sweep_cursor: u32,
    sweep_visits: u64,
    touches_total: u64,
    /// Evicted keys, newest last (only when `record_evictions`).
    eviction_log: Vec<u64>,
    /// Constructor for fresh per-key state (every slot must be
    /// identically configured or merges/restores would be unsound).
    make: Arc<dyn Fn() -> B + Send + Sync>,
    /// Envelope computed by the latest whole-registry `query` (the
    /// `StreamAggregate` contract reports it via `error_bound`).
    last_bound: Cell<ErrorBound>,
    /// Scratch for `observe_keyed_batch`: `slot << 32 | input index`
    /// packed into one `u64` so the grouping sort compares single
    /// words instead of field-by-field tuples.
    scratch: Vec<u64>,
    /// Scratch for a single slot's run of items.
    run_items: Vec<(Time, u64)>,
}

impl<B: StreamAggregate> KeyedRegistry<B> {
    /// A registry whose per-key state is built by `make`. Every call
    /// to `make` must produce an identically-configured backend.
    pub fn new(opts: RegistryOptions, make: impl Fn() -> B + Send + Sync + 'static) -> Self {
        assert!(
            opts.sweep_per_ingest >= 1,
            "sweep_per_ingest must be at least 1"
        );
        assert!(
            opts.eviction_threshold >= 0.0 && opts.eviction_threshold.is_finite(),
            "eviction_threshold must be finite and non-negative"
        );
        let idx = KeyIndex::with_capacity(opts.expected_keys);
        // Pre-size the slab columns to the expected population: growth
        // past this still works (Vec doubling), but a correctly-sized
        // registry never pays a GB-scale arena realloc-and-copy, and
        // resident bytes stay at the population's actual footprint
        // instead of the next power of two.
        let cap = opts.expected_keys;
        KeyedRegistry {
            opts,
            states: Vec::with_capacity(cap),
            keys: Vec::with_capacity(cap),
            gens: Vec::with_capacity(cap),
            meta: Vec::with_capacity(cap),
            occupied: Vec::with_capacity(cap),
            idx,
            free: Vec::new(),
            clock: 0,
            started: false,
            evicted_mass: 0.0,
            evictions: 0,
            sweep_cursor: 0,
            sweep_visits: 0,
            touches_total: 0,
            eviction_log: Vec::new(),
            make: Arc::new(make),
            last_bound: Cell::new(ErrorBound::exact()),
            scratch: Vec::new(),
            run_items: Vec::new(),
        }
    }

    /// Keys currently resident.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// True when no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.idx.len() == 0
    }

    /// Whether `key` is currently resident (evicted keys are not).
    pub fn contains_key(&self, key: u64) -> bool {
        self.idx.find(key).is_some()
    }

    /// The registry stream clock (max time seen).
    pub fn clock(&self) -> Time {
        self.clock
    }

    /// Keys retired by the eviction sweep.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Certified upper bound on total decayed mass dropped by
    /// eviction.
    pub fn evicted_mass(&self) -> f64 {
        self.evicted_mass
    }

    /// Evicted keys, newest last (empty unless
    /// [`RegistryOptions::record_evictions`]).
    pub fn eviction_log(&self) -> &[u64] {
        &self.eviction_log
    }

    /// Occupancy and sweep summary.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            live_keys: self.idx.len(),
            slots: self.states.len(),
            evictions: self.evictions,
            evicted_mass: self.evicted_mass,
            sweep_visits: self.sweep_visits,
            touches_total: self.touches_total,
            resident_bytes: self.resident_bytes(),
        }
    }

    /// Bytes resident in the slab, index, and free list. Counts vector
    /// capacities (what the allocator actually holds), not lengths.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_slot = size_of::<B>()   // states
            + size_of::<u64>()          // keys
            + size_of::<u32>()          // gens
            + size_of::<SlotMeta>()     // touches + last_touch
            + size_of::<bool>(); // occupied
        size_of::<Self>()
            + self.states.capacity() * per_slot
            + self.idx.capacity() * (size_of::<u64>() + size_of::<u32>())
            + self.free.capacity() * size_of::<u32>()
            + self.eviction_log.capacity() * size_of::<u64>()
            + self.scratch.capacity() * size_of::<u64>()
            + self.run_items.capacity() * size_of::<(Time, u64)>()
    }

    /// Records weight `f` for `key` at stream time `t`. Time must be
    /// non-decreasing across calls (the registry shares one stream
    /// clock; per-key times inherit monotonicity from it).
    pub fn observe_keyed(&mut self, key: u64, t: Time, f: u64) {
        self.note_time(t);
        let slot = match self.idx.find(key) {
            Some(s) => s,
            None => self.alloc_slot(key),
        };
        let i = slot as usize;
        self.states[i].observe(t, f);
        let m = &mut self.meta[i];
        m.touches += 1;
        m.last_touch = t;
        self.touches_total += 1;
        self.sweep();
    }

    /// Batched keyed ingest. `items` must be sorted by time
    /// (non-decreasing); keys may interleave freely. Items are
    /// regrouped by slot — so each backend sees one contiguous,
    /// locality-friendly run — using a stable (slot, input-order)
    /// sort, which preserves per-key time order.
    pub fn observe_keyed_batch(&mut self, items: &[(u64, Time, u64)]) {
        if items.is_empty() {
            return;
        }
        assert!(
            items.windows(2).all(|w| w[0].1 <= w[1].1),
            "observe_keyed_batch requires non-decreasing times"
        );
        self.note_time(items[items.len() - 1].1);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.reserve(items.len());
        for (i, &(key, _, _)) in items.iter().enumerate() {
            let slot = match self.idx.find(key) {
                Some(s) => s,
                None => self.alloc_slot(key),
            };
            scratch.push((slot as u64) << 32 | i as u64);
        }
        // `slot << 32 | input index` words are distinct, so the
        // unstable sort is deterministic; the input-index low bits
        // tie-break preserves each key's time order.
        scratch.sort_unstable();
        let mut run_items = std::mem::take(&mut self.run_items);
        let mut pos = 0;
        while pos < scratch.len() {
            let slot = scratch[pos] >> 32;
            let mut end = pos + 1;
            while end < scratch.len() && scratch[end] >> 32 == slot {
                end += 1;
            }
            let i = slot as usize;
            if end - pos == 1 {
                // Mirror the call shape a loop of single observes
                // would make — keeps the naive-twin comparison
                // bit-exact for backends where batch ≠ loop.
                let (_, t, f) = items[scratch[pos] as u32 as usize];
                self.states[i].observe(t, f);
                self.meta[i].last_touch = t;
            } else {
                run_items.clear();
                run_items.extend(
                    scratch[pos..end]
                        .iter()
                        .map(|&w| (items[w as u32 as usize].1, items[w as u32 as usize].2)),
                );
                self.states[i].observe_batch(&run_items);
                self.meta[i].last_touch = run_items[run_items.len() - 1].0;
            }
            self.meta[i].touches += (end - pos) as u64;
            self.touches_total += (end - pos) as u64;
            pos = end;
        }
        self.scratch = scratch;
        self.run_items = run_items;
        self.sweep();
    }

    /// Advances the registry clock to `t`. Lazy by design: no slot is
    /// touched — each backend is advanced only when it is next
    /// observed or queried.
    pub fn advance_clock(&mut self, t: Time) {
        self.note_time(t);
    }

    /// The decayed answer for `key` at time `t`, with its envelope.
    /// Never-seen and evicted keys answer 0 with an exact per-key
    /// bound; the eviction slack still applies (the key may have been
    /// evicted carrying up to `evicted_slack` of mass).
    pub fn query_key(&self, key: u64, t: Time) -> KeyAnswer {
        match self.idx.find(key) {
            Some(s) => {
                let st = &self.states[s as usize];
                KeyAnswer {
                    estimate: st.query(t),
                    bound: st.error_bound(),
                    evicted_slack: self.evicted_mass,
                }
            }
            None => KeyAnswer {
                estimate: 0.0,
                bound: ErrorBound::exact(),
                evicted_slack: self.evicted_mass,
            },
        }
    }

    /// The `n` most-observed resident keys as `(key, touches)`,
    /// most-touched first (key ascending as the deterministic
    /// tie-break).
    pub fn top_touched(&self, n: usize) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = (0..self.states.len())
            .filter(|&i| self.occupied[i])
            .map(|i| (self.keys[i], self.meta[i].touches))
            .collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Iterates `(key, touches, last_touch)` over resident keys in
    /// slot order.
    pub fn iter_keys(&self) -> impl Iterator<Item = (u64, u64, Time)> + '_ {
        (0..self.states.len())
            .filter(|&i| self.occupied[i])
            .map(|i| (self.keys[i], self.meta[i].touches, self.meta[i].last_touch))
    }

    fn note_time(&mut self, t: Time) {
        assert!(
            !self.started || t >= self.clock,
            "time went backwards: {} < {}",
            t,
            self.clock
        );
        self.started = true;
        self.clock = t;
    }

    /// Finds a slot for a new key: pops the free list (resetting the
    /// recycled state to fresh) or grows the slab.
    fn alloc_slot(&mut self, key: u64) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                // A resurrected key starts from zero: the previous
                // tenant's state is replaced, never advanced-and-
                // reused, so no prior mass can leak across tenants.
                self.states[i] = (self.make)();
                self.meta[i] = SlotMeta::default();
                s
            }
            None => {
                let s = u32::try_from(self.states.len()).expect("slab exceeds u32 slots");
                assert!(s != u32::MAX, "slab exceeds u32 slots");
                self.states.push((self.make)());
                self.keys.push(0);
                self.gens.push(0);
                self.meta.push(SlotMeta::default());
                self.occupied.push(false);
                s
            }
        };
        let i = slot as usize;
        self.keys[i] = key;
        self.occupied[i] = true;
        self.idx.insert(key, slot);
        slot
    }

    /// The incremental eviction sweep: visit up to K slots past the
    /// cursor, retiring any whose certified remaining mass is at or
    /// below the threshold. O(K) per ingest call, no stop-the-world.
    fn sweep(&mut self) {
        if self.opts.eviction_threshold <= 0.0 {
            return;
        }
        let n = self.states.len() as u32;
        if n == 0 {
            return;
        }
        let k = (self.opts.sweep_per_ingest as u32).min(n);
        for _ in 0..k {
            let i = self.sweep_cursor % n;
            self.sweep_cursor = (self.sweep_cursor + 1) % n;
            self.sweep_visits += 1;
            if !self.occupied[i as usize] {
                continue;
            }
            let st = &self.states[i as usize];
            let bound = st.error_bound();
            if !bound.is_bounded() {
                // No certified envelope, no certified eviction.
                continue;
            }
            // Upper bound on everything this key could still answer.
            // `query(clock)` excludes same-tick items (§2.1 strict
            // past) but they surface at clock+1, so take the max of
            // both; for any later T the true remaining mass only
            // decays further.
            let est = st.query(self.clock).max(st.query(self.clock + 1));
            let ub = est * (1.0 + bound.upper);
            if ub <= self.opts.eviction_threshold {
                self.evict(i, ub);
            }
        }
    }

    fn evict(&mut self, slot: u32, mass_ub: f64) {
        let i = slot as usize;
        let key = self.keys[i];
        self.evicted_mass += mass_ub;
        self.evictions += 1;
        self.occupied[i] = false;
        self.gens[i] = self.gens[i].wrapping_add(1);
        let removed = self.idx.remove(key);
        debug_assert_eq!(removed, Some(slot));
        self.free.push(slot);
        if self.opts.record_evictions {
            self.eviction_log.push(key);
        }
    }

    /// The auto-fanout key for the un-keyed facade.
    fn auto_key(&self, f: u64) -> u64 {
        index::hash_key(f ^ 0xA07C_5EED_u64) % AUTO_FANOUT
    }
}

impl<B: StreamAggregate + Clone> Clone for KeyedRegistry<B> {
    fn clone(&self) -> Self {
        KeyedRegistry {
            opts: self.opts.clone(),
            states: self.states.clone(),
            keys: self.keys.clone(),
            gens: self.gens.clone(),
            meta: self.meta.clone(),
            occupied: self.occupied.clone(),
            idx: self.idx.clone(),
            free: self.free.clone(),
            clock: self.clock,
            started: self.started,
            evicted_mass: self.evicted_mass,
            evictions: self.evictions,
            sweep_cursor: self.sweep_cursor,
            sweep_visits: self.sweep_visits,
            touches_total: self.touches_total,
            eviction_log: self.eviction_log.clone(),
            make: Arc::clone(&self.make),
            last_bound: self.last_bound.clone(),
            scratch: Vec::new(),
            run_items: Vec::new(),
        }
    }
}

impl<B: StreamAggregate> std::fmt::Debug for KeyedRegistry<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedRegistry")
            .field("live_keys", &self.idx.len())
            .field("slots", &self.states.len())
            .field("clock", &self.clock)
            .field("evictions", &self.evictions)
            .field("evicted_mass", &self.evicted_mass)
            .finish_non_exhaustive()
    }
}

impl<B: StreamAggregate> StorageAccounting for KeyedRegistry<B> {
    fn storage_bits(&self) -> u64 {
        self.resident_bytes() as u64 * 8
    }
}

/// The un-keyed facade: the registry is itself a [`StreamAggregate`]
/// whose plain `observe(t, f)` routes to key `hash(f) % AUTO_FANOUT`
/// and whose `query(t)` sums the live population. This is what lets
/// the existing single-stream harnesses — certification, kill-at-
/// every-byte recovery, `ShardedAggregate` — drive the multi-key
/// machinery unchanged.
impl<B: StreamAggregate> StreamAggregate for KeyedRegistry<B> {
    fn observe(&mut self, t: Time, f: u64) {
        let key = self.auto_key(f);
        self.observe_keyed(key, t, f);
    }

    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        if items.is_empty() {
            return;
        }
        let mut keyed = Vec::with_capacity(items.len());
        keyed.extend(items.iter().map(|&(t, f)| (self.auto_key(f), t, f)));
        self.observe_keyed_batch(&keyed);
    }

    fn advance(&mut self, t: Time) {
        self.advance_clock(t);
    }

    fn query(&self, t: Time) -> f64 {
        let mut total = 0.0;
        let mut worst = ErrorBound::exact();
        for i in 0..self.states.len() {
            if self.occupied[i] {
                total += self.states[i].query(t);
                let b = self.states[i].error_bound();
                worst.lower = worst.lower.max(b.lower);
                worst.upper = worst.upper.max(b.upper);
            }
        }
        // Eviction only ever *removes* mass, so it widens the lower
        // side alone. With per-key relative bound ε and dropped mass
        // E: truth ≤ est/(1-ε_low) + E ≤ ... rearranged into relative
        // form, lower' = ε_low + (1+ε_up)·E/est suffices because
        // truth_resident ≥ est/(1+ε_up). When the estimate is ~0 the
        // relative form degenerates; lower = 1.0 (truth·(1-1) = 0 ≤
        // est) stays sound for non-negative aggregates.
        let bound = if self.evicted_mass > 0.0 {
            if total > f64::MIN_POSITIVE {
                ErrorBound {
                    lower: worst.lower + (1.0 + worst.upper) * self.evicted_mass / total,
                    upper: worst.upper,
                }
            } else {
                ErrorBound {
                    lower: 1.0,
                    upper: worst.upper,
                }
            }
        } else {
            worst
        };
        self.last_bound.set(bound);
        total
    }

    fn merge_from(&mut self, other: &Self)
    where
        Self: Sized,
    {
        for j in 0..other.states.len() {
            if !other.occupied[j] {
                continue;
            }
            let key = other.keys[j];
            let slot = match self.idx.find(key) {
                Some(s) => s,
                None => self.alloc_slot(key),
            };
            let i = slot as usize;
            self.states[i].merge_from(&other.states[j]);
            self.meta[i].touches += other.meta[j].touches;
            self.meta[i].last_touch = self.meta[i].last_touch.max(other.meta[j].last_touch);
        }
        self.touches_total += other.touches_total;
        self.clock = self.clock.max(other.clock);
        self.started |= other.started;
        self.evicted_mass += other.evicted_mass;
        self.evictions += other.evictions;
        self.sweep_visits += other.sweep_visits;
        if self.opts.record_evictions {
            self.eviction_log.extend_from_slice(&other.eviction_log);
        }
    }

    fn error_bound(&self) -> ErrorBound {
        self.last_bound.get()
    }
}

impl<B: StreamAggregate + Checkpoint> KeyedCheckpoint for KeyedRegistry<B> {
    fn observe_keyed(&mut self, key: u64, t: Time, f: u64) {
        KeyedRegistry::observe_keyed(self, key, t, f);
    }

    fn observe_keyed_batch(&mut self, items: &[(u64, Time, u64)]) {
        KeyedRegistry::observe_keyed_batch(self, items);
    }
}

/// One segmented envelope for the whole registry: a fixed header
/// followed by a packed block of per-slot records (generation,
/// occupancy, and — for live slots — key, touch metadata, and the
/// backend's own checkpoint bytes), then the free list. This is the
/// "millions of tiny envelopes → one segmented checkpoint" compaction:
/// a 1M-key registry persists as one checksummed file, not 1M.
impl<B: StreamAggregate + Checkpoint> Checkpoint for KeyedRegistry<B> {
    fn save_checkpoint(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new(TAG_REGISTRY);
        // --- header ---
        w.put_u64(self.opts.config_pin());
        w.put_u64(self.clock);
        w.put_bool(self.started);
        w.put_f64(self.evicted_mass);
        w.put_u64(self.evictions);
        w.put_u64(self.sweep_visits);
        w.put_u64(self.touches_total);
        w.put_u32(self.sweep_cursor);
        w.put_u32(self.states.len() as u32);
        // --- packed slot block ---
        for i in 0..self.states.len() {
            w.put_u32(self.gens[i]);
            w.put_bool(self.occupied[i]);
            if self.occupied[i] {
                w.put_u64(self.keys[i]);
                w.put_u64(self.meta[i].touches);
                w.put_u64(self.meta[i].last_touch);
                w.put_bytes(&self.states[i].save_checkpoint());
            }
        }
        // --- free list (order preserved: reuse order is part of the
        // deterministic behavior a restored twin must replay) ---
        w.put_u32(self.free.len() as u32);
        for &s in &self.free {
            w.put_u32(s);
        }
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let mut r = CheckpointReader::open(bytes, TAG_REGISTRY)?;
        let pin = r.get_u64()?;
        if pin != self.opts.config_pin() {
            return Err(RestoreError::Invariant(format!(
                "registry configuration mismatch: checkpoint pin {pin:#x}, ours {:#x}",
                self.opts.config_pin()
            )));
        }
        let clock = r.get_u64()?;
        let started = r.get_bool()?;
        let evicted_mass = r.get_f64()?;
        if !evicted_mass.is_finite() || evicted_mass < 0.0 {
            return Err(RestoreError::Invariant(format!(
                "non-finite or negative evicted mass {evicted_mass}"
            )));
        }
        let evictions = r.get_u64()?;
        let sweep_visits = r.get_u64()?;
        let touches_total = r.get_u64()?;
        let sweep_cursor = r.get_u32()?;
        // Every slot record holds at least its generation and
        // occupancy (5 bytes): a count past that is damage, refused
        // before it sizes the columns below.
        let slot_count = r.get_u32()?;
        let slot_count = r.count(u64::from(slot_count), 5)?;

        let mut states = Vec::with_capacity(slot_count);
        let mut keys = vec![0u64; slot_count];
        let mut gens = vec![0u32; slot_count];
        let mut meta = vec![SlotMeta::default(); slot_count];
        let mut occupied = vec![false; slot_count];
        let mut idx = KeyIndex::with_capacity(slot_count.max(self.opts.expected_keys));
        let mut live = 0usize;
        for i in 0..slot_count {
            gens[i] = r.get_u32()?;
            occupied[i] = r.get_bool()?;
            if occupied[i] {
                keys[i] = r.get_u64()?;
                meta[i].touches = r.get_u64()?;
                meta[i].last_touch = r.get_u64()?;
                if meta[i].last_touch > clock {
                    return Err(RestoreError::Invariant(format!(
                        "slot {i} last_touch {} past registry clock {clock}",
                        meta[i].last_touch
                    )));
                }
                let mut st = (self.make)();
                st.restore_checkpoint(r.get_bytes()?)?;
                states.push(st);
                if idx.find(keys[i]).is_some() {
                    return Err(RestoreError::Invariant(format!(
                        "duplicate key {:#x} in slot block",
                        keys[i]
                    )));
                }
                idx.insert(keys[i], i as u32);
                live += 1;
            } else {
                states.push((self.make)());
            }
        }
        let free_len = r.get_u32()? as usize;
        if free_len != slot_count - live {
            return Err(RestoreError::Invariant(format!(
                "free list length {free_len} does not cover the {} vacant slots",
                slot_count - live
            )));
        }
        let mut free = Vec::with_capacity(free_len);
        let mut seen = vec![false; slot_count];
        for _ in 0..free_len {
            let s = r.get_u32()? as usize;
            if s >= slot_count || occupied[s] || seen[s] {
                return Err(RestoreError::Invariant(format!(
                    "free list entry {s} is out of range, occupied, or repeated"
                )));
            }
            seen[s] = true;
            free.push(s as u32);
        }
        r.finish()?;

        self.states = states;
        self.keys = keys;
        self.gens = gens;
        self.meta = meta;
        self.occupied = occupied;
        self.idx = idx;
        self.free = free;
        self.clock = clock;
        self.started = started;
        self.evicted_mass = evicted_mass;
        self.evictions = evictions;
        self.sweep_cursor = sweep_cursor;
        self.sweep_visits = sweep_visits;
        self.touches_total = touches_total;
        self.eviction_log.clear();
        self.last_bound.set(ErrorBound::exact());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use td_counters::ExpCounter;
    use td_decay::Exponential;
    use td_forward::ForwardDecaySum;

    fn reg(threshold: f64) -> KeyedRegistry<ForwardDecaySum<Exponential>> {
        let opts = RegistryOptions {
            eviction_threshold: threshold,
            sweep_per_ingest: 4,
            record_evictions: true,
            ..RegistryOptions::default()
        };
        KeyedRegistry::new(opts, || ForwardDecaySum::new(Exponential::new(0.05)))
    }

    #[test]
    fn slot_count_past_the_payload_is_truncated_not_allocated() {
        // A checksum-valid envelope whose header claims u32::MAX slots
        // and carries none: refused before the columns are sized.
        let opts = RegistryOptions::default();
        let mut w = CheckpointWriter::new(TAG_REGISTRY);
        w.put_u64(opts.config_pin());
        w.put_u64(0); // clock
        w.put_bool(false); // started
        w.put_f64(0.0); // evicted mass
        for _ in 0..3 {
            w.put_u64(0); // evictions, sweep visits, touches
        }
        w.put_u32(0); // sweep cursor
        w.put_u32(u32::MAX); // slot count
        let bytes = w.seal();
        let mut r = KeyedRegistry::new(opts, || ForwardDecaySum::new(Exponential::new(0.05)));
        assert_eq!(r.restore_checkpoint(&bytes), Err(RestoreError::Truncated));
    }

    #[test]
    fn keyed_answers_match_independent_backends() {
        let mut r = reg(0.0);
        let mut twin: HashMap<u64, ForwardDecaySum<Exponential>> = HashMap::new();
        let mut t = 0u64;
        for step in 0..5000u64 {
            let key = (step * step + 7) % 37;
            t += step % 3;
            r.observe_keyed(key, t, step % 100 + 1);
            twin.entry(key)
                .or_insert_with(|| ForwardDecaySum::new(Exponential::new(0.05)))
                .observe(t, step % 100 + 1);
        }
        assert_eq!(r.len(), twin.len());
        for (&key, backend) in &twin {
            let ans = r.query_key(key, t + 5);
            let want = backend.query(t + 5);
            assert_eq!(
                ans.estimate.to_bits(),
                want.to_bits(),
                "key {key} diverged from its independent backend"
            );
            assert_eq!(ans.evicted_slack, 0.0);
        }
    }

    #[test]
    fn batch_matches_loop_of_singles() {
        let mut batched = reg(0.0);
        let mut looped = reg(0.0);
        let mut items = Vec::new();
        let mut t = 0u64;
        for step in 0..2000u64 {
            t += step % 2;
            items.push(((step * 13) % 29, t, step % 50 + 1));
        }
        batched.observe_keyed_batch(&items);
        for &(k, t, f) in &items {
            looped.observe_keyed(k, t, f);
        }
        for key in 0..29u64 {
            let a = batched.query_key(key, t + 1).estimate;
            let b = looped.query_key(key, t + 1).estimate;
            // Forward-decay batch ingest is the same fold as the loop.
            assert_eq!(a.to_bits(), b.to_bits(), "key {key}");
        }
        assert_eq!(batched.stats().touches_total, items.len() as u64);
    }

    #[test]
    fn lazy_advance_touches_no_slots() {
        let mut r = reg(0.0);
        for key in 0..100u64 {
            r.observe_keyed(key, 10, 5);
        }
        let touches_before: Vec<SlotMeta> = r.meta.clone();
        r.advance_clock(1_000_000);
        assert_eq!(r.meta, touches_before);
        assert_eq!(r.clock(), 1_000_000);
        // Queries still work at the advanced clock.
        let ans = r.query_key(42, 1_000_000);
        assert!(ans.estimate >= 0.0 && ans.estimate.is_finite());
    }

    #[test]
    fn eviction_retires_decayed_keys_and_accounts_mass() {
        let mut r = reg(1e-6);
        // A burst of keys at t=0, then one hot key driven far forward:
        // λ=0.05 ⇒ mass ~ e^{-0.05·Δ}; Δ=1000 ⇒ ~2e-22, far below
        // threshold.
        for key in 0..64u64 {
            r.observe_keyed(key, 0, 10);
        }
        for t in 0..2000u64 {
            r.observe_keyed(999, t, 1);
        }
        assert!(r.evictions() > 0, "sweep never evicted a dead key");
        assert!(r.evicted_mass() > 0.0);
        assert!(r.contains_key(999));
        // Evicted keys answer zero with the global slack attached.
        let gone = r
            .eviction_log()
            .iter()
            .copied()
            .find(|&k| k != 999)
            .expect("log records evicted keys");
        let ans = r.query_key(gone, 2000);
        assert_eq!(ans.estimate, 0.0);
        assert_eq!(ans.evicted_slack, r.evicted_mass());
        // The slack really does cover the dropped truth: each evicted
        // key's remaining mass at eviction was ≤ its accounted bound.
        assert!(ans.admits(10.0 * (-0.05f64 * 2000.0).exp(), 1e-12));
    }

    #[test]
    fn resurrected_key_starts_fresh() {
        let mut r = reg(1e-6);
        r.observe_keyed(7, 0, 1000);
        // Drive time forward via another key until 7 is evicted.
        let mut t = 0;
        while r.contains_key(7) {
            t += 50;
            r.observe_keyed(1, t, 1);
            assert!(t < 100_000, "key 7 never evicted");
        }
        let slots_before = r.stats().slots;
        r.observe_keyed(7, t, 3);
        // Slot reuse, not growth...
        assert_eq!(r.stats().slots, slots_before);
        // ...and the resurrected key's answer equals a fresh backend's.
        let mut fresh = ForwardDecaySum::new(Exponential::new(0.05));
        fresh.observe(t, 3);
        assert_eq!(
            r.query_key(7, t + 1).estimate.to_bits(),
            fresh.query(t + 1).to_bits(),
            "resurrected key saw a prior tenant's mass"
        );
        assert_eq!(r.meta[r.idx.find(7).unwrap() as usize].touches, 1);
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        let mut r = reg(1e-6);
        for step in 0..3000u64 {
            r.observe_keyed((step * 31) % 101, step / 2, step % 40 + 1);
        }
        let bytes = r.save_checkpoint();
        let mut twin = reg(1e-6);
        twin.restore_checkpoint(&bytes).unwrap();
        assert_eq!(twin.len(), r.len());
        assert_eq!(twin.evictions(), r.evictions());
        assert_eq!(twin.evicted_mass().to_bits(), r.evicted_mass().to_bits());
        for key in 0..101u64 {
            let a = r.query_key(key, 2000);
            let b = twin.query_key(key, 2000);
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "key {key}");
        }
        // And the twins stay in lock-step through further ingest
        // (free-list order, sweep cursor, and clock all restored).
        for step in 0..500u64 {
            let (k, t, f) = ((step * 7) % 101, 1500 + step, step % 9 + 1);
            r.observe_keyed(k, t, f);
            twin.observe_keyed(k, t, f);
        }
        assert_eq!(twin.evictions(), r.evictions());
        for key in 0..101u64 {
            assert_eq!(
                r.query_key(key, 2100).estimate.to_bits(),
                twin.query_key(key, 2100).estimate.to_bits(),
                "post-restore divergence on key {key}"
            );
        }
    }

    #[test]
    fn restore_refuses_config_mismatch_and_corruption() {
        let mut r = reg(1e-6);
        r.observe_keyed(1, 0, 5);
        let bytes = r.save_checkpoint();
        let mut other = reg(0.5); // different threshold ⇒ different pin
        match other.restore_checkpoint(&bytes) {
            Err(RestoreError::Invariant(why)) => {
                assert!(why.contains("configuration mismatch"), "{why}")
            }
            other => panic!("expected config-pin refusal, got {other:?}"),
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            reg(1e-6).restore_checkpoint(&flipped),
            Err(RestoreError::Checksum)
        ));
    }

    #[test]
    fn unkeyed_facade_sums_population_within_bound() {
        let mut r = reg(0.0);
        let mut oracle = ForwardDecaySum::new(Exponential::new(0.05));
        for step in 0..4000u64 {
            let (t, f) = (step / 4, step % 64 + 1);
            StreamAggregate::observe(&mut r, t, f);
            oracle.observe(t, f);
        }
        let est = StreamAggregate::query(&r, 1000);
        let truth = oracle.query(1000);
        let bound = StreamAggregate::error_bound(&r);
        assert!(
            bound.admits(est, truth, 1e-9 * truth.abs().max(1.0)),
            "facade sum {est} not within {bound:?} of single-stream {truth}"
        );
    }

    #[test]
    fn eviction_widens_whole_registry_lower_bound() {
        let mut r = reg(1e-3);
        for key in 0..32u64 {
            r.observe_keyed(key, 0, 100);
        }
        for t in 1..3000u64 {
            r.observe_keyed(0, t, 1);
        }
        assert!(r.evictions() > 0);
        let est = StreamAggregate::query(&r, 3000);
        let bound = StreamAggregate::error_bound(&r);
        // Truth includes all the evicted keys' residual mass.
        let residual = 31.0 * 100.0 * (-0.05f64 * 3000.0).exp();
        let hot: f64 = (1..3000u64)
            .map(|t| (-0.05 * (3000 - t) as f64).exp())
            .sum();
        assert!(
            bound.admits(est, hot + residual, 1e-9 * (hot + residual).max(1.0)),
            "widened bound {bound:?} rejects truth (est {est}, truth {})",
            hot + residual
        );
        assert!(bound.lower > ErrorBound::symmetric(0.0).lower);
    }

    #[test]
    fn merge_combines_disjoint_substreams() {
        let mut a = reg(0.0);
        let mut b = reg(0.0);
        let mut whole = reg(0.0);
        for step in 0..2000u64 {
            let (k, t, f) = (step % 17, step / 2, step % 10 + 1);
            if k % 2 == 0 {
                a.observe_keyed(k, t, f);
            } else {
                b.observe_keyed(k, t, f);
            }
            whole.observe_keyed(k, t, f);
        }
        a.merge_from(&b);
        assert_eq!(a.len(), whole.len());
        for k in 0..17u64 {
            assert_eq!(
                a.query_key(k, 1200).estimate.to_bits(),
                whole.query_key(k, 1200).estimate.to_bits(),
                "key {k}"
            );
        }
    }

    #[test]
    fn works_with_backward_histogram_backends_too() {
        // The registry is backend-generic: ExpCounter (backward,
        // ε-approximate) per key.
        let opts = RegistryOptions::default();
        let mut r = KeyedRegistry::new(opts, || ExpCounter::new(Exponential::new(0.05)));
        for step in 0..1000u64 {
            r.observe_keyed(step % 11, step, 1);
        }
        for key in 0..11u64 {
            let ans = r.query_key(key, 1000);
            assert!(ans.estimate.is_finite() && ans.estimate >= 0.0);
            assert!(ans.bound.is_bounded());
        }
    }

    #[test]
    fn durable_registry_recovers_bit_identical_from_keyed_wal() {
        use td_persist::{DurabilityOptions, DurableAggregate, MemStorage};
        let mem = MemStorage::new();
        let opts = DurabilityOptions {
            checkpoint_every_records: 16,
            ..DurabilityOptions::default()
        };
        let make = || reg(1e-6);
        let (mut durable, _) =
            DurableAggregate::open_keyed(Box::new(mem.clone()), opts, make).unwrap();
        let mut twin = reg(1e-6);
        let mut batch = Vec::new();
        for step in 0..400u64 {
            let (k, t, f) = ((step * 11) % 53, step, step % 8 + 1);
            if step % 5 == 4 {
                batch.push((k, t, f));
                if batch.len() == 8 {
                    durable.observe_keyed_batch(&batch).unwrap();
                    twin.observe_keyed_batch(&batch);
                    batch.clear();
                }
            } else {
                durable.observe_keyed(k, t, f).unwrap();
                twin.observe_keyed(k, t, f);
            }
        }
        // Kill the process: only synced bytes survive (EveryRecord
        // policy, so everything logged is durable).
        let (recovered, stats) =
            DurableAggregate::open_keyed(Box::new(mem.crashed()), opts, make).unwrap();
        assert!(stats.restored_checkpoint);
        assert_eq!(recovered.inner().evictions(), twin.evictions());
        for k in 0..53u64 {
            assert_eq!(
                recovered.inner().query_key(k, 500).estimate.to_bits(),
                twin.query_key(k, 500).estimate.to_bits(),
                "key {k} diverged after crash recovery"
            );
        }
    }

    #[test]
    fn unkeyed_open_refuses_keyed_wal() {
        use td_decay::RestoreError;
        use td_persist::{DurabilityOptions, DurableAggregate, MemStorage};
        let mem = MemStorage::new();
        let opts = DurabilityOptions::default();
        let (mut durable, _) =
            DurableAggregate::open_keyed(Box::new(mem.clone()), opts, || reg(0.0)).unwrap();
        durable.observe_keyed(7, 1, 2).unwrap();
        // Re-opening the same store through the un-keyed entry point
        // must refuse: replaying keyed history through plain observe
        // would collapse the keys.
        match DurableAggregate::open(Box::new(mem.crashed()), opts, || reg(0.0)) {
            Err(RestoreError::Invariant(why)) => assert!(why.contains("keyed"), "{why}"),
            other => panic!("expected keyed-WAL refusal, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn top_touched_ranks_by_touches() {
        let mut r = reg(0.0);
        for rep in 0..10u64 {
            for key in 0..(10 - rep) {
                r.observe_keyed(key, rep, 1);
            }
        }
        let top = r.top_touched(3);
        assert_eq!(top, vec![(0, 10), (1, 9), (2, 8)]);
    }
}
