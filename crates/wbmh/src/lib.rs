//! Weight-Based Merging Histograms (WBMH) — the paper's main algorithmic
//! contribution (§5, Lemma 5.1).
//!
//! A WBMH aggregates the stream into buckets whose **time boundaries are
//! determined by the decay function, the accuracy target ε, and the
//! clock — never by the stream**. The age axis is split into regions
//! `[b_i, b_{i+1} − 1]` inside which all weights agree to a `(1 + ε)`
//! factor (computed by [`td_decay::RegionSchedule`]); the open bucket is
//! sealed on a fixed cadence of `b_1 − 1` ticks, and two adjacent sealed
//! buckets merge exactly when their combined age span fits inside a
//! single region at the current time.
//!
//! Applicability: the decay must satisfy §5's condition that
//! `g(x)/g(x+1)` is non-increasing — then items co-bucketed within a
//! `(1+ε)` weight band *stay* within it forever. Exponential and
//! polynomial decay qualify; sliding windows do not (and the constructor
//! checks).
//!
//! Why it matters: the bucket count is `O(ε⁻¹ log D(g))` where
//! `D(g) = g(1)/g(N)`. For POLYD that is `O(α ε⁻¹ log N)` buckets whose
//! boundaries cost nothing per stream, and with the approximate counters
//! of `td-counters::approx` the total is `O(log N · log log N)` bits —
//! nearly as cheap as exponential decay and quadratically cheaper than
//! the `O(log² N)` cascaded-EH bound (experiment E6). For EXPD,
//! `log D(g) = Θ(N)` and WBMH degenerates — the paper's reason to keep
//! both algorithms around.
//!
//! This module reproduces the paper's §5 worked trace (`g = 1/x²`,
//! `1 + ε = 5`) *exactly*; see `paper_trace_matches_section_5`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use td_counters::approx::ApproxCount;
use td_decay::properties::check_ratio_monotone;
use td_decay::soa::{dot_counts, dot_mass, CHUNK};
use td_decay::storage::{bits_for_count, StorageAccounting};
use td_decay::{DecayFunction, RegionSchedule, Time};

/// How a query weights the items of a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WbmhEstimator {
    /// Weight the whole bucket at its end (newest-item) time: one-sided,
    /// `S <= S' <= (1+ε)·S` for exact counts.
    #[default]
    Paper,
    /// Weight the bucket at the geometric mean of its end- and
    /// start-time weights: two-sided, within `sqrt(1+ε)` each way.
    Geometric,
}

/// How bucket counts are stored.
#[derive(Debug, Clone)]
enum BucketCount {
    Exact(u64),
    Approx(ApproxCount),
}

impl BucketCount {
    fn value(&self) -> f64 {
        match self {
            BucketCount::Exact(c) => *c as f64,
            BucketCount::Approx(a) => a.value(),
        }
    }

    fn absorb(&mut self, f: u64) {
        match self {
            BucketCount::Exact(c) => *c = c.saturating_add(f),
            BucketCount::Approx(a) => a.absorb(f),
        }
    }

    fn merge(&self, other: &Self) -> Self {
        match (self, other) {
            (BucketCount::Exact(a), BucketCount::Exact(b)) => {
                BucketCount::Exact(a.saturating_add(*b))
            }
            (BucketCount::Approx(a), BucketCount::Approx(b)) => {
                BucketCount::Approx(ApproxCount::merge(a, b))
            }
            _ => unreachable!("count modes never mix within one histogram"),
        }
    }

    fn storage_bits(&self) -> u64 {
        match self {
            BucketCount::Exact(c) => bits_for_count(*c),
            BucketCount::Approx(a) => a.storage_bits(),
        }
    }
}

/// One WBMH bucket.
///
/// `start`/`end` are **partition-cell boundaries** — deterministic
/// functions of `(g, ε, T)` — which is what makes every structural
/// decision stream-independent (§5). `first_item`/`last_item` record
/// the actual item extent for reporting and for weighting the open
/// bucket.
#[derive(Debug, Clone)]
struct WbmhBucket {
    start: Time,
    end: Time,
    first_item: Time,
    last_item: Time,
    count: BucketCount,
}

/// Column storage for the two [`BucketCount`] modes. The mode is fixed
/// at construction (histograms never mix count modes), so queries can
/// match on it once and stream the matching column.
#[derive(Debug, Clone)]
enum CountCols {
    Exact(Vec<u64>),
    Approx {
        epsilon: f64,
        value: Vec<f64>,
        depth: Vec<u32>,
    },
}

/// Structure-of-arrays storage for the sealed bucket list, oldest
/// first: each [`WbmhBucket`] field lives in its own contiguous column
/// (see `td_decay::soa` for the layout rationale). Queries stream the
/// item-extent columns straight into the decay kernels with zero
/// gather, and the merge pass compacts in place with two cursors
/// instead of rebuilding a deque. WBMH never expires buckets — they
/// only merge — so unlike `BucketColumns` no head offset is needed: the
/// merge sweep *is* the compaction.
#[derive(Debug, Clone)]
struct WbmhColumns {
    start: Vec<Time>,
    end: Vec<Time>,
    first_item: Vec<Time>,
    last_item: Vec<Time>,
    counts: CountCols,
}

impl WbmhColumns {
    fn new(count_epsilon: Option<f64>) -> Self {
        let counts = match count_epsilon {
            None => CountCols::Exact(Vec::new()),
            Some(epsilon) => CountCols::Approx {
                epsilon,
                value: Vec::new(),
                depth: Vec::new(),
            },
        };
        Self {
            start: Vec::new(),
            end: Vec::new(),
            first_item: Vec::new(),
            last_item: Vec::new(),
            counts,
        }
    }

    fn len(&self) -> usize {
        self.start.len()
    }

    fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// Oldest-item arrival times, oldest bucket first.
    fn first_items(&self) -> &[Time] {
        &self.first_item
    }

    /// Newest-item arrival times — non-decreasing (buckets are ordered
    /// and item extents disjoint), so query prefixes binary-search it.
    fn last_items(&self) -> &[Time] {
        &self.last_item
    }

    /// The (start, end) partition-cell span of bucket `i` — all the
    /// merge rule ever looks at.
    fn span(&self, i: usize) -> (Time, Time) {
        (self.start[i], self.end[i])
    }

    fn count_value(&self, i: usize) -> f64 {
        match &self.counts {
            CountCols::Exact(c) => c[i] as f64,
            CountCols::Approx { value, .. } => value[i],
        }
    }

    fn count_storage_bits(&self, i: usize) -> u64 {
        match &self.counts {
            CountCols::Exact(c) => bits_for_count(c[i]),
            CountCols::Approx {
                epsilon,
                value,
                depth,
            } => ApproxCount::from_parts(value[i], depth[i], *epsilon).storage_bits(),
        }
    }

    /// Reconstructs bucket `i` in AoS form (cold paths only:
    /// checkpointing, snapshots, cross-histogram merges).
    fn get(&self, i: usize) -> WbmhBucket {
        let count = match &self.counts {
            CountCols::Exact(c) => BucketCount::Exact(c[i]),
            CountCols::Approx {
                epsilon,
                value,
                depth,
            } => BucketCount::Approx(ApproxCount::from_parts(value[i], depth[i], *epsilon)),
        };
        WbmhBucket {
            start: self.start[i],
            end: self.end[i],
            first_item: self.first_item[i],
            last_item: self.last_item[i],
            count,
        }
    }

    fn push_back(&mut self, b: WbmhBucket) {
        self.start.push(b.start);
        self.end.push(b.end);
        self.first_item.push(b.first_item);
        self.last_item.push(b.last_item);
        match (&mut self.counts, b.count) {
            (CountCols::Exact(c), BucketCount::Exact(n)) => c.push(n),
            (CountCols::Approx { value, depth, .. }, BucketCount::Approx(a)) => {
                value.push(a.value());
                depth.push(a.depth());
            }
            _ => unreachable!("count modes never mix within one histogram"),
        }
    }

    /// Folds bucket `src` into bucket `dst` — the same min/max-span and
    /// [`BucketCount::merge`] rule as the AoS pair merge.
    fn fold(&mut self, dst: usize, src: usize) {
        self.start[dst] = self.start[dst].min(self.start[src]);
        self.end[dst] = self.end[dst].max(self.end[src]);
        self.first_item[dst] = self.first_item[dst].min(self.first_item[src]);
        self.last_item[dst] = self.last_item[dst].max(self.last_item[src]);
        match &mut self.counts {
            CountCols::Exact(c) => c[dst] = c[dst].saturating_add(c[src]),
            CountCols::Approx {
                epsilon,
                value,
                depth,
            } => {
                let a = ApproxCount::from_parts(value[dst], depth[dst], *epsilon);
                let b = ApproxCount::from_parts(value[src], depth[src], *epsilon);
                let m = ApproxCount::merge(&a, &b);
                value[dst] = m.value();
                depth[dst] = m.depth();
            }
        }
    }

    /// Moves bucket `src` into slot `dst` (the compaction shift of the
    /// in-place merge sweep). No-op when the cursors coincide.
    fn shift(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        self.start[dst] = self.start[src];
        self.end[dst] = self.end[src];
        self.first_item[dst] = self.first_item[src];
        self.last_item[dst] = self.last_item[src];
        match &mut self.counts {
            CountCols::Exact(c) => c[dst] = c[src],
            CountCols::Approx { value, depth, .. } => {
                value[dst] = value[src];
                depth[dst] = depth[src];
            }
        }
    }

    fn truncate(&mut self, len: usize) {
        self.start.truncate(len);
        self.end.truncate(len);
        self.first_item.truncate(len);
        self.last_item.truncate(len);
        match &mut self.counts {
            CountCols::Exact(c) => c.truncate(len),
            CountCols::Approx { value, depth, .. } => {
                value.truncate(len);
                depth.truncate(len);
            }
        }
    }
}

/// A precomputed lookup table over the (stream-independent) region
/// schedule answering "what is the first region at least `len` ticks
/// long?" in one binary search.
///
/// The §5 merge rule admits a pair iff the region containing the
/// union's newest age is long enough to hold the union's whole span —
/// so the *earliest* time a pair `(a, c)` can ever merge is
/// `union_end + b_i` for the first region `i` whose length fits the
/// union. Regions whose length is not a running maximum can never be
/// "first fit" for any span (an earlier, longer region wins), so the
/// table keeps only the strict running maxima of region length: it is
/// ascending in both length and boundary, and a single
/// `partition_point` answers the query. This replaces the per-pair
/// `region_of` + `region_span` recomputation the merge cascade used to
/// do on every scan.
#[derive(Debug, Clone)]
struct MergeLadder {
    /// `(region_len, b_i)` at strict running maxima of finite-region
    /// length, ascending in both components.
    steps: Vec<(Time, Time)>,
    /// Start age of the final, open-ended region.
    last_b: Time,
}

impl MergeLadder {
    fn new(schedule: &RegionSchedule) -> Self {
        let mut steps = Vec::new();
        let mut best = 0;
        for i in 0..schedule.num_regions() - 1 {
            let (start, end) = schedule.region_span(i);
            let end = end.expect("finite region");
            let len = end - start + 1;
            if len > best {
                best = len;
                steps.push((len, start));
            }
        }
        let last_b = schedule.boundary(schedule.num_regions() - 1);
        Self { steps, last_b }
    }

    /// Start age `b_i` of the first finite region at least `len` ticks
    /// long, if any.
    fn first_boundary_fitting(&self, len: Time) -> Option<Time> {
        let i = self.steps.partition_point(|&(l, _)| l < len);
        self.steps.get(i).map(|&(_, b)| b)
    }
}

/// A view of one bucket's time span and (possibly approximate) count,
/// as returned by [`Wbmh::bucket_spans`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketView {
    /// Arrival time of the bucket's oldest item.
    pub start: Time,
    /// Arrival time of the bucket's newest item.
    pub end: Time,
    /// The stored count (exact or rounded).
    pub count: f64,
}

/// A weight-based merging histogram for a ratio-monotone decay function.
///
/// # Examples
///
/// ```
/// use td_wbmh::Wbmh;
/// use td_decay::Polynomial;
/// let mut h = Wbmh::new(Polynomial::new(1.0), 0.1, 1 << 20);
/// for t in 1..=1000 {
///     h.observe(t, 1);
/// }
/// let est = h.query(1001);
/// let exact: f64 = (1..=1000u64).map(|t| 1.0 / (1001 - t) as f64).sum();
/// assert!(est >= exact * (1.0 - 1e-9));
/// assert!(est <= exact * 1.1 + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Wbmh<G> {
    decay: G,
    epsilon: f64,
    schedule: RegionSchedule,
    /// Seal cadence: the open cell covers `[k·p, (k+1)·p − 1]`.
    seal_period: Time,
    /// Whether buckets entirely past the last schedule boundary may
    /// still merge (true only when the decay has nullified there).
    merge_beyond_schedule: bool,
    /// Approximation parameter for approximate bucket counts, if any.
    count_epsilon: Option<f64>,
    /// Sealed buckets, oldest first, in structure-of-arrays columns.
    buckets: WbmhColumns,
    /// The open (unsealed) bucket, if any.
    open: Option<WbmhBucket>,
    /// Items at the most recent tick, kept outside the histogram so a
    /// query at that tick can exclude them exactly (§2.1 convention).
    pending: Option<(Time, u64)>,
    /// Seals since the last merge pass; the pass is amortized (it runs
    /// every ~#buckets/8 seals, and always on an explicit `advance`),
    /// deferring merges never violates the ε band — it only keeps the
    /// histogram transiently finer than canonical.
    seals_since_pass: usize,
    /// The precomputed first-fit lookup over the region schedule.
    ladder: MergeLadder,
    /// Exact earliest time any currently adjacent sealed pair may merge
    /// (`Time::MAX` when none ever can; 0 means "unknown — recompute at
    /// the next pass"). A merge pass scheduled before this time is
    /// provably a no-op and is skipped without scanning the buckets;
    /// skipping changes no observable state, so structure stays
    /// bit-identical to running the pass. Maintained exactly: it is
    /// refreshed after every real pass, and lowered when a seal appends
    /// a bucket (the only other event that creates an adjacent pair).
    next_merge_at: Time,
    last_t: Time,
    started: bool,
}

impl<G: DecayFunction> Wbmh<G> {
    /// A WBMH with exact bucket counts.
    ///
    /// `max_age` is the operational lifetime: the region schedule is
    /// precomputed for ages up to `max_age`, and buckets older than the
    /// last boundary stop merging (choose `max_age` at least as large as
    /// the stream you will run; for POLYD the schedule costs only
    /// `O(ε⁻¹ α log max_age)` entries).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite/positive, `max_age == 0`, or
    /// the decay fails the §5 ratio-monotonicity audit on
    /// `1..=min(max_age, 4096)` (use `td-ceh` for such decays).
    pub fn new(decay: G, epsilon: f64, max_age: Time) -> Self {
        Self::build(decay, epsilon, max_age, None)
    }

    /// A WBMH whose bucket counts use the §5 adaptive-precision ladder
    /// with parameter `count_epsilon` — the configuration achieving the
    /// `O(log N · log log N)` bits of Lemma 5.1. The overall estimate
    /// error becomes `(1+ε)·(1+count_epsilon·π²/6) − 1`.
    ///
    /// # Panics
    ///
    /// As [`Wbmh::new`], plus if `count_epsilon` is not finite/positive.
    pub fn with_approx_counts(decay: G, epsilon: f64, max_age: Time, count_epsilon: f64) -> Self {
        assert!(
            count_epsilon.is_finite() && count_epsilon > 0.0,
            "count_epsilon must be finite and positive, got {count_epsilon}"
        );
        Self::build(decay, epsilon, max_age, Some(count_epsilon))
    }

    fn build(decay: G, epsilon: f64, max_age: Time, count_epsilon: Option<f64>) -> Self {
        assert!(
            check_ratio_monotone(&decay, max_age.min(4096)),
            "{} is not ratio-monotone (g(x)/g(x+1) must be non-increasing, §5); \
             use the cascaded EH instead",
            decay.describe()
        );
        let schedule = RegionSchedule::compute(&decay, epsilon, max_age);
        let seal_period = schedule.seal_period();
        let last = schedule.boundary(schedule.num_regions() - 1);
        let merge_beyond_schedule = decay.weight(last) == 0.0;
        let ladder = MergeLadder::new(&schedule);
        Self {
            decay,
            epsilon,
            schedule,
            seal_period,
            merge_beyond_schedule,
            count_epsilon,
            buckets: WbmhColumns::new(count_epsilon),
            open: None,
            pending: None,
            seals_since_pass: 0,
            ladder,
            next_merge_at: 0,
            last_t: 0,
            started: false,
        }
    }

    /// The decay function being tracked.
    pub fn decay(&self) -> &G {
        &self.decay
    }

    /// The accuracy parameter ε of the region schedule.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The precomputed, stream-independent region schedule.
    pub fn schedule(&self) -> &RegionSchedule {
        &self.schedule
    }

    /// The open-bucket seal cadence `b_1 − 1` (ticks).
    pub fn seal_period(&self) -> Time {
        self.seal_period
    }

    /// Number of stored buckets (sealed + open; pending tick excluded).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len() + usize::from(self.open.is_some())
    }

    fn fresh_count(&self, f: u64) -> BucketCount {
        match self.count_epsilon {
            None => BucketCount::Exact(f),
            Some(eps) => {
                let mut a = ApproxCount::zero(eps);
                a.absorb(f);
                BucketCount::Approx(a)
            }
        }
    }

    /// Folds the pending tick into its seal cell, sealing the open
    /// bucket when the cell changes.
    fn fold_pending(&mut self) {
        let Some((t, f)) = self.pending.take() else {
            return;
        };
        match &mut self.open {
            // `t` lies in the open cell iff `t <= open.end`: times are
            // monotone, so `t >= open.start` always holds, and the
            // single comparison replaces two divisions on the per-tick
            // hot path (the quotient is only needed when a new cell
            // actually opens, below).
            Some(open) if t <= open.end => {
                open.last_item = t;
                open.count.absorb(f);
            }
            _ => {
                if let Some(done) = self.open.take() {
                    self.buckets.push_back(done);
                    self.seals_since_pass += 1;
                    self.note_sealed_pair();
                }
                let cell = t / self.seal_period;
                self.open = Some(WbmhBucket {
                    start: cell * self.seal_period,
                    end: cell * self.seal_period + self.seal_period - 1,
                    first_item: t,
                    last_item: t,
                    count: self.fresh_count(f),
                });
            }
        }
    }

    /// True when the pair (older `a`, newer `c`) may merge at time
    /// `now` — the paper's §5 merge rule: there is a region `i` with
    /// `b_i <= now − c.end` and `now − a.start <= b_{i+1} − 1`.
    ///
    /// Reference implementation: the hot paths use
    /// [`Self::may_merge_hinted`]; this plain form remains as the
    /// brute-force ground truth for the `pair_next_merge` exactness
    /// test.
    #[cfg_attr(not(test), allow(dead_code))]
    fn may_merge(&self, a: (Time, Time), c: (Time, Time), now: Time) -> bool {
        let union_end = a.1.max(c.1);
        let union_start = a.0.min(c.0);
        if union_end >= now {
            return false;
        }
        let newest_age = now - union_end;
        let oldest_age = now - union_start;
        let region = self.schedule.region_of(newest_age);
        match self.schedule.region_span(region) {
            (_, Some(end)) => oldest_age <= end,
            (_, None) => self.merge_beyond_schedule,
        }
    }

    /// [`Self::may_merge`] with a region hint threaded through a sweep:
    /// returns the verdict plus the region index to hint the next pair
    /// with. Sweeps visit pairs in decreasing-age order, so the hinted
    /// walk is amortized O(1) where the plain lookup binary-searches —
    /// and the verdict is identical (`region_of_near` is exact).
    fn may_merge_hinted(
        &self,
        a: (Time, Time),
        c: (Time, Time),
        now: Time,
        hint: usize,
    ) -> (bool, usize) {
        let union_end = a.1.max(c.1);
        let union_start = a.0.min(c.0);
        if union_end >= now {
            return (false, hint);
        }
        let newest_age = now - union_end;
        let oldest_age = now - union_start;
        let region = self.schedule.region_of_near(newest_age, hint);
        debug_assert_eq!(region, self.schedule.region_of(newest_age));
        let ok = match self.schedule.region_span(region) {
            (_, Some(end)) => oldest_age <= end,
            (_, None) => self.merge_beyond_schedule,
        };
        (ok, region)
    }

    /// The smallest time strictly after `now` at which the pair
    /// (older `a`, newer `c`) may merge, or `Time::MAX` if it never
    /// can. Exact with respect to [`Self::may_merge`].
    fn pair_next_merge(&self, a: (Time, Time), c: (Time, Time), now: Time) -> Time {
        let e = a.1.max(c.1);
        let s = a.0.min(c.0);
        let len = e - s + 1;
        match self.ladder.first_boundary_fitting(len) {
            Some(b) => {
                let t0 = e.saturating_add(b);
                if t0 > now {
                    // The union's first-fit region is still ahead: the
                    // very first opportunity is when the newest age
                    // reaches that region's start.
                    return t0;
                }
                self.pair_next_merge_slow(e, s, len, now)
            }
            // No finite region fits; the open-ended tail region fits
            // everything (when the decay has nullified there).
            None if self.merge_beyond_schedule => e.saturating_add(self.ladder.last_b).max(now + 1),
            None => Time::MAX,
        }
    }

    /// Slow path of [`Self::pair_next_merge`], for a pair whose first
    /// opportunity is already behind `now` (it sat in a merge "gap"):
    /// walk the regions from the one containing the union's age at
    /// `now + 1` until one is long enough and its window is still open.
    fn pair_next_merge_slow(&self, e: Time, s: Time, len: Time, now: Time) -> Time {
        let mut i = self.schedule.region_of((now + 1).saturating_sub(e).max(1));
        loop {
            let (start, end) = self.schedule.region_span(i);
            match end {
                Some(end) => {
                    // Feasible times for region i: now' − e ≥ start and
                    // now' − s ≤ end, i.e. [e + start, s + end].
                    if end - start + 1 >= len && s.saturating_add(end) > now {
                        return e.saturating_add(start).max(now + 1);
                    }
                    i += 1;
                }
                None => {
                    return if self.merge_beyond_schedule {
                        e.saturating_add(start).max(now + 1)
                    } else {
                        Time::MAX
                    };
                }
            }
        }
    }

    /// Refreshes [`Self::next_merge_at`] as the exact minimum over all
    /// adjacent sealed pairs, as seen from time `now`. Only called
    /// after a *futile* merge pass — while passes keep merging,
    /// `next_merge_at` stays 0 ("ripe, don't bother") and no pair scan
    /// runs.
    fn recompute_next_merge(&mut self, now: Time) {
        let mut next = Time::MAX;
        for i in 0..self.buckets.len().saturating_sub(1) {
            let t = self.pair_next_merge(self.buckets.span(i), self.buckets.span(i + 1), now);
            next = next.min(t);
        }
        self.next_merge_at = next;
    }

    /// Lowers [`Self::next_merge_at`] for the pair a fresh seal just
    /// created at the back of the bucket list (the only event outside a
    /// merge pass that creates an adjacent pair).
    fn note_sealed_pair(&mut self) {
        // In the "ripe" state the bound is already 0 — nothing a new
        // pair could lower.
        if self.next_merge_at == 0 {
            return;
        }
        let n = self.buckets.len();
        if n < 2 {
            return;
        }
        let t = self.pair_next_merge(self.buckets.span(n - 2), self.buckets.span(n - 1), 0);
        self.next_merge_at = self.next_merge_at.min(t);
    }

    /// Runs one merge sweep at time `now`; returns whether anything
    /// merged.
    ///
    /// The sweep is oldest-to-newest with an accumulator: "merge at `i`
    /// and re-check `i` against its next neighbour" is exactly "keep
    /// folding the next bucket into the accumulator until it stops
    /// fitting, then flush" — same sequence of [`Self::may_merge`]
    /// decisions as the index-walking formulation, but O(len) per sweep
    /// with no mid-deque removals (each `remove` used to shift half the
    /// deque, which dominated ingest once the bucket list grew into the
    /// hundreds).
    ///
    /// One sweep reaches the canonical fixpoint in steady ingest: once a
    /// flush decides a pair cannot merge, growing the younger side only
    /// moves the union's newest age *younger* (an equal-or-shorter
    /// region) while the span grows, so the verdict cannot flip within
    /// the sweep — and any opportunity a sweep does miss (the rule only
    /// loosens as `now` advances) is picked up by a later pass.
    /// [`Wbmh::merge_from`], whose transient overlapping unions break
    /// the monotonicity argument, loops this to fixpoint explicitly.
    ///
    /// The sweep runs in place over the columns with two cursors: the
    /// accumulator lives in slot `write`, unmergeable buckets shift
    /// down to close the gaps, and one `truncate` drops the tail — no
    /// allocation, no deque rebuild ("merge at `i` and re-check `i`" is
    /// exactly this fold, see above).
    fn merge_pass(&mut self, now: Time) -> bool {
        let n = self.buckets.len();
        if n == 0 {
            return false;
        }
        let mut merged_any = false;
        let mut write = 0usize;
        // Oldest buckets first: ages only fall along the sweep, so
        // thread the region hint through it.
        let mut hint = self.schedule.num_regions() - 1;
        for read in 1..n {
            let (ok, region) =
                self.may_merge_hinted(self.buckets.span(write), self.buckets.span(read), now, hint);
            hint = region;
            if ok {
                // min/max span handles nested/overlapping pairs that
                // arise transiently after `merge_from`.
                self.buckets.fold(write, read);
                merged_any = true;
            } else {
                write += 1;
                self.buckets.shift(write, read);
            }
        }
        self.buckets.truncate(write + 1);
        merged_any
    }

    /// Seals the open bucket purely by clock: its cell closes once `now`
    /// has moved past it, even with no new arrivals.
    fn seal_by_clock(&mut self, now: Time) {
        if let Some(open) = &self.open {
            if now > open.end {
                let done = self.open.take().expect("checked above");
                self.buckets.push_back(done);
                self.seals_since_pass += 1;
                self.note_sealed_pair();
            }
        }
    }

    /// Advances the histogram's clock to `t`, folding pending items and
    /// running the stream-independent seal/merge schedule to its
    /// canonical state at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previous observation.
    pub fn advance(&mut self, t: Time) {
        self.advance_inner(t, true);
    }

    fn advance_inner(&mut self, t: Time, force_pass: bool) {
        if self.started {
            assert!(
                t >= self.last_t,
                "time went backwards: {t} < {}",
                self.last_t
            );
        }
        self.started = true;
        if let Some((pt, _)) = self.pending {
            if pt < t {
                self.fold_pending();
            }
        }
        self.seal_by_clock(t);
        if force_pass || self.seals_since_pass >= (self.buckets.len() / 8).max(4) {
            // `next_merge_at` is a *lower bound* on the earliest time
            // any adjacent pair may merge (0 when unknown): a pass
            // scheduled before it would scan every pair and merge
            // nothing, so skip the scan. The reset of
            // `seals_since_pass` mirrors what the no-op pass would
            // have done. The bound is computed lazily — only after a
            // pass that merged *nothing* — because that is the one
            // situation where skipping pays: a busy stream whose
            // passes keep merging would otherwise spend more on the
            // exact-minimum bookkeeping (an O(buckets) scan of
            // `pair_next_merge` after every pass) than the skips it
            // enables could ever save.
            if t < self.next_merge_at {
                self.seals_since_pass = 0;
            } else {
                let merged = self.merge_pass(t);
                self.seals_since_pass = 0;
                if merged {
                    self.next_merge_at = 0;
                } else {
                    self.recompute_next_merge(t);
                }
            }
        }
        self.last_t = t;
    }

    /// Ingests an item of value `f` at time `t` (non-decreasing `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previous observation.
    pub fn observe(&mut self, t: Time, f: u64) {
        self.advance_inner(t, false);
        if f == 0 {
            return; // zero values carry no mass and cost no state
        }
        match &mut self.pending {
            Some((pt, pf)) if *pt == t => *pf = pf.saturating_add(f),
            _ => self.pending = Some((t, f)),
        }
    }

    /// Ingests a burst of `(time, value)` items sorted by non-decreasing
    /// time, bit-identical in end state to sequential
    /// [`observe`](Self::observe) calls.
    ///
    /// The fold/seal/merge machinery of `advance_inner` runs once per
    /// *distinct tick*; a same-tick run pre-coalesces into a single
    /// pending update. (Equivalence is structural: on a repeated tick
    /// the sequential loop's extra `advance_inner` calls cannot fold
    /// pending — same tick — seal, or trip the merge throttle, whose
    /// counter only moves on seals, so they are no-ops.)
    ///
    /// # Panics
    ///
    /// Panics if any time precedes its predecessor.
    pub fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.advance_inner(t, false);
            let mut mass = 0u64;
            while i < items.len() && items[i].0 == t {
                mass = mass.saturating_add(items[i].1);
                i += 1;
            }
            if mass == 0 {
                continue;
            }
            match &mut self.pending {
                Some((pt, pf)) if *pt == t => *pf = pf.saturating_add(mass),
                _ => self.pending = Some((t, mass)),
            }
        }
    }

    /// Merges another WBMH's contents into this one — the distributed-
    /// streams operation. Because the bucket boundaries are functions of
    /// `(g, ε, T)` only (§5), two WBMHs over the same configuration that
    /// have been [`Wbmh::advance`]d to the same time have *aligned*
    /// partitions (any two buckets coincide, nest, or overlap on whole
    /// cells). The union of the two bucket lists is therefore itself a
    /// valid (transiently finer-than-canonical) WBMH state: every bucket
    /// keeps the `(1+ε)` weight band it was formed under, so the merged
    /// estimate keeps the **single**-histogram `(1+ε)` bound — merging
    /// does not compound errors. The regular merge pass then compacts
    /// the union wherever the §5 region rule allows (overlapping buckets
    /// whose union span does not currently fit one region stay separate,
    /// which costs at most a transient 2× in bucket count, never
    /// accuracy).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms differ in schedule (decay/ε/max_age),
    /// count mode, or current time (`advance` both to the same tick
    /// first).
    pub fn merge_from(&mut self, other: &Wbmh<G>) {
        assert_eq!(
            self.schedule, other.schedule,
            "region schedules differ (decay/epsilon/max_age must match)"
        );
        assert_eq!(
            self.count_epsilon.is_some(),
            other.count_epsilon.is_some(),
            "count modes differ"
        );
        assert_eq!(
            self.last_t, other.last_t,
            "advance both histograms to the same tick before merging"
        );
        let mut all: Vec<WbmhBucket> = (0..self.buckets.len())
            .map(|i| self.buckets.get(i))
            .chain((0..other.buckets.len()).map(|i| other.buckets.get(i)))
            .collect();
        all.sort_by_key(|b| (b.start, b.end));
        let mut cols = WbmhColumns::new(self.count_epsilon);
        for b in all {
            cols.push_back(b);
        }
        self.buckets = cols;
        // Open buckets, if both exist, are in the same (current) cell.
        self.open = match (self.open.take(), &other.open) {
            (Some(mut a), Some(b)) => {
                debug_assert_eq!(a.start, b.start, "open cells must align");
                a.last_item = a.last_item.max(b.last_item);
                a.first_item = a.first_item.min(b.first_item);
                a.count = a.count.merge(&b.count);
                Some(a)
            }
            (a, b) => a.or_else(|| b.clone()),
        };
        // Pendings are at the shared current tick.
        self.pending = match (self.pending, other.pending) {
            (Some((ta, fa)), Some((tb, fb))) => {
                debug_assert_eq!(ta, tb);
                Some((ta, fa + fb))
            }
            (a, b) => a.or(b),
        };
        self.started |= other.started;
        // Transient overlapping unions from the interleave can cascade
        // across sweeps, so compact to fixpoint here (steady ingest
        // needs only the single sweep — see `merge_pass`).
        while self.merge_pass(self.last_t) {}
        self.seals_since_pass = 0;
        self.recompute_next_merge(self.last_t);
    }

    /// The decaying-sum estimate with the default one-sided estimator.
    pub fn query(&self, t: Time) -> f64 {
        self.query_with(t, WbmhEstimator::Paper)
    }

    /// The decaying-sum estimate with an explicit weighting rule.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last observed time.
    pub fn query_with(&self, t: Time, estimator: WbmhEstimator) -> f64 {
        assert!(
            !self.started || t >= self.last_t,
            "query time {t} precedes last observation {}",
            self.last_t
        );
        // Sealed buckets are weighted at their newest item (which is
        // their effective end: items never escape the cell, so
        // `last_item <= end` always); the open bucket likewise. Both
        // stay within the region's (1+ε) band. The decay kernel
        // consumes the `last_item` column directly — it is
        // non-decreasing, so the §2.1 exclusion of items at/after `t`
        // is one binary search for the live prefix, with zero gather
        // or copy.
        let lasts = self.buckets.last_items();
        let live = lasts.partition_point(|&l| l < t);
        let mut total: f64 = match (estimator, &self.buckets.counts) {
            (WbmhEstimator::Paper, CountCols::Exact(c)) => {
                dot_counts(&self.decay, t, &lasts[..live], &c[..live])
            }
            (WbmhEstimator::Paper, CountCols::Approx { value, .. }) => {
                dot_mass(&self.decay, t, &lasts[..live], &value[..live])
            }
            (WbmhEstimator::Geometric, _) => self.dot_geometric(t, live),
        };
        // The open bucket is a single scalar term.
        if let Some(open) = &self.open {
            if open.last_item < t {
                let we = self.decay.weight(t - open.last_item);
                total += match estimator {
                    WbmhEstimator::Paper => open.count.value() * we,
                    WbmhEstimator::Geometric => {
                        let ws = self.decay.weight(t - open.first_item);
                        open.count.value() * (we * ws).sqrt()
                    }
                };
            }
        }
        if let Some((pt, pf)) = self.pending {
            if pt < t {
                total += pf as f64 * self.decay.weight(t - pt);
            }
        }
        total
    }

    /// The geometric-mean dot product over the live sealed prefix:
    /// end- and start-age weights evaluated chunk-by-chunk through
    /// [`DecayFunction::weight_from_ends`] into stack scratch, then
    /// combined as `count · sqrt(w_end · w_start)`.
    fn dot_geometric(&self, t: Time, live: usize) -> f64 {
        let lasts = &self.buckets.last_items()[..live];
        let firsts = &self.buckets.first_items()[..live];
        let mut w_end = [0.0f64; CHUNK];
        let mut w_start = [0.0f64; CHUNK];
        let mut total = 0.0;
        let mut i = 0;
        while i < live {
            let n = CHUNK.min(live - i);
            self.decay
                .weight_from_ends(t, &lasts[i..i + n], &mut w_end[..n]);
            self.decay
                .weight_from_ends(t, &firsts[i..i + n], &mut w_start[..n]);
            for j in 0..n {
                total += self.buckets.count_value(i + j) * (w_end[j] * w_start[j]).sqrt();
            }
            i += n;
        }
        total
    }

    /// The *item extents* and counts of all stored buckets, oldest first
    /// (sealed, then open, then the pending tick if present) — the
    /// groups the §5 trace quotes. Structural (cell) boundaries are the
    /// deterministic partition and are not exposed per bucket.
    pub fn bucket_spans(&self) -> Vec<BucketView> {
        let mut v: Vec<BucketView> = (0..self.buckets.len())
            .map(|i| BucketView {
                start: self.buckets.first_items()[i],
                end: self.buckets.last_items()[i],
                count: self.buckets.count_value(i),
            })
            .collect();
        if let Some(open) = &self.open {
            v.push(BucketView {
                start: open.first_item,
                end: open.last_item,
                count: open.count.value(),
            });
        }
        if let Some((pt, pf)) = self.pending {
            v.push(BucketView {
                start: pt,
                end: pt,
                count: pf as f64,
            });
        }
        v
    }

    /// The worst-case relative error of the current configuration: the
    /// region band `(1+ε)` composed with the approximate-count ladder
    /// bound, minus one.
    pub fn error_bound(&self) -> f64 {
        let count_factor = match self.count_epsilon {
            None => 1.0,
            Some(eps) => 1.0 + eps * std::f64::consts::PI.powi(2) / 6.0,
        };
        (1.0 + self.epsilon) * count_factor - 1.0
    }
}

/// A plain view of a WBMH's **per-stream** state: bucket spans and
/// counts, the open bucket, and the pending tick. The shared
/// configuration (decay function, ε, region schedule, count mode) is
/// deliberately *not* included — §2.3's storage argument is exactly
/// that it is shared across all streams. It is for inspection and
/// comparison; a histogram is saved and restored through its
/// [`Checkpoint`](td_decay::checkpoint::Checkpoint) encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct WbmhSnapshot {
    /// Clock state at snapshot time.
    pub last_t: Time,
    /// Sealed buckets then the open bucket (if any), oldest first:
    /// `(start, end, first_item, last_item, count_value, merge_depth)`.
    /// `merge_depth` is 0 for exact counts.
    pub buckets: Vec<(Time, Time, Time, Time, f64, u32)>,
    /// Whether the final entry of `buckets` is the open bucket.
    pub has_open: bool,
    /// The pending (current-tick) items, if any.
    pub pending: Option<(Time, u64)>,
    /// Merge-pass throttle state (part of the state, so two
    /// histograms that compare equal replay the deterministic schedule
    /// tick-for-tick).
    pub seals_since_pass: usize,
}

impl<G: DecayFunction> Wbmh<G> {
    /// Captures the per-stream state.
    pub fn snapshot(&self) -> WbmhSnapshot {
        let encode = |b: &WbmhBucket| {
            let (value, depth) = match &b.count {
                BucketCount::Exact(c) => (*c as f64, 0),
                BucketCount::Approx(a) => (a.value(), a.depth()),
            };
            (b.start, b.end, b.first_item, b.last_item, value, depth)
        };
        let mut buckets: Vec<_> = (0..self.buckets.len())
            .map(|i| encode(&self.buckets.get(i)))
            .collect();
        let has_open = self.open.is_some();
        if let Some(open) = &self.open {
            buckets.push(encode(open));
        }
        WbmhSnapshot {
            last_t: self.last_t,
            buckets,
            has_open,
            pending: self.pending,
            seals_since_pass: self.seals_since_pass,
        }
    }
}

/// Checkpoint tag for [`Wbmh`].
const TAG_WBMH: u8 = 8;

impl<G: DecayFunction> td_decay::checkpoint::Checkpoint for Wbmh<G> {
    fn save_checkpoint(&self) -> Vec<u8> {
        use td_decay::checkpoint::{fingerprint, CheckpointWriter};
        let mut w = CheckpointWriter::new(TAG_WBMH);
        // Configuration pins: the schedule is derived from (g, ε,
        // max_age), so pinning ε, the decay description, the seal
        // period, and the schedule extent catches any mismatch that
        // would silently reinterpret bucket spans.
        w.put_u64(self.epsilon.to_bits());
        match self.count_epsilon {
            None => w.put_bool(false),
            Some(ce) => {
                w.put_bool(true);
                w.put_u64(ce.to_bits());
            }
        }
        w.put_u64(fingerprint(&self.decay.describe()));
        w.put_u64(self.seal_period);
        w.put_u64(self.schedule.num_regions() as u64);
        w.put_u64(self.schedule.boundary(self.schedule.num_regions() - 1));
        // Per-stream state.
        w.put_u64(self.last_t);
        w.put_bool(self.started);
        w.put_u64(self.seals_since_pass as u64);
        match self.pending {
            None => w.put_bool(false),
            Some((t, f)) => {
                w.put_bool(true);
                w.put_u64(t);
                w.put_u64(f);
            }
        }
        let encode = |w: &mut CheckpointWriter, b: &WbmhBucket| {
            w.put_u64(b.start);
            w.put_u64(b.end);
            w.put_u64(b.first_item);
            w.put_u64(b.last_item);
            match &b.count {
                BucketCount::Exact(c) => w.put_u64(*c),
                BucketCount::Approx(a) => {
                    w.put_u64(a.value().to_bits());
                    w.put_u32(a.depth());
                }
            }
        };
        w.put_u64(self.buckets.len() as u64);
        for i in 0..self.buckets.len() {
            encode(&mut w, &self.buckets.get(i));
        }
        match &self.open {
            None => w.put_bool(false),
            Some(b) => {
                w.put_bool(true);
                encode(&mut w, b);
            }
        }
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), td_decay::RestoreError> {
        use td_decay::checkpoint::{fingerprint, CheckpointReader, RestoreError};
        let mut r = CheckpointReader::open(bytes, TAG_WBMH)?;
        if r.get_u64()? != self.epsilon.to_bits() {
            return Err(RestoreError::Invariant(format!(
                "epsilon mismatch: receiver has {}",
                self.epsilon
            )));
        }
        let has_ce = r.get_bool()?;
        let ce_bits = if has_ce { Some(r.get_u64()?) } else { None };
        if ce_bits != self.count_epsilon.map(f64::to_bits) {
            return Err(RestoreError::Invariant("count mode mismatch".into()));
        }
        if r.get_u64()? != fingerprint(&self.decay.describe()) {
            return Err(RestoreError::Invariant(format!(
                "decay mismatch: receiver is {}",
                self.decay.describe()
            )));
        }
        if r.get_u64()? != self.seal_period
            || r.get_u64()? != self.schedule.num_regions() as u64
            || r.get_u64()? != self.schedule.boundary(self.schedule.num_regions() - 1)
        {
            return Err(RestoreError::Invariant(
                "region schedule mismatch (different max_age?)".into(),
            ));
        }
        let last_t = r.get_u64()?;
        let started = r.get_bool()?;
        let seals_since_pass = r.get_u64()? as usize;
        let pending = if r.get_bool()? {
            let t = r.get_u64()?;
            let f = r.get_u64()?;
            if t > last_t {
                return Err(RestoreError::Invariant(format!(
                    "pending tick {t} newer than checkpoint clock {last_t}"
                )));
            }
            Some((t, f))
        } else {
            None
        };
        let count_epsilon = self.count_epsilon;
        let decode = |r: &mut CheckpointReader| -> Result<WbmhBucket, RestoreError> {
            let start = r.get_u64()?;
            let end = r.get_u64()?;
            let first_item = r.get_u64()?;
            let last_item = r.get_u64()?;
            let count = match count_epsilon {
                None => BucketCount::Exact(r.get_u64()?),
                Some(ce) => {
                    let value = f64::from_bits(r.get_u64()?);
                    let depth = r.get_u32()?;
                    if !value.is_finite() || value < 0.0 {
                        return Err(RestoreError::Invariant(format!(
                            "invalid count value {value}"
                        )));
                    }
                    BucketCount::Approx(ApproxCount::from_parts(value, depth, ce))
                }
            };
            if start > end || first_item < start || last_item > end || first_item > last_item {
                return Err(RestoreError::Invariant(format!(
                    "bucket items [{first_item}, {last_item}] escape cell [{start}, {end}]"
                )));
            }
            Ok(WbmhBucket {
                start,
                end,
                first_item,
                last_item,
                count,
            })
        };
        let n = r.get_u64()?;
        let mut buckets = WbmhColumns::new(count_epsilon);
        let mut prev_end: Option<Time> = None;
        for i in 0..n {
            let b = decode(&mut r)?;
            if let Some(pe) = prev_end {
                if b.start <= pe {
                    return Err(RestoreError::Invariant(format!(
                        "buckets {} and {i} overlap or run backwards",
                        i.saturating_sub(1)
                    )));
                }
            }
            prev_end = Some(b.end);
            buckets.push_back(b);
        }
        let open = if r.get_bool()? {
            let b = decode(&mut r)?;
            if let Some(pe) = prev_end {
                if b.start <= pe {
                    return Err(RestoreError::Invariant(
                        "open bucket overlaps sealed buckets".into(),
                    ));
                }
            }
            Some(b)
        } else {
            None
        };
        r.finish()?;
        if !started && (last_t != 0 || !buckets.is_empty() || open.is_some() || pending.is_some()) {
            return Err(RestoreError::Invariant(
                "unstarted histogram carries state".into(),
            ));
        }
        self.buckets = buckets;
        self.open = open;
        self.pending = pending;
        self.seals_since_pass = seals_since_pass;
        // 0 = "unknown — recompute at the next merge pass"; skipping is
        // only an optimization, so this keeps structure bit-identical.
        self.next_merge_at = 0;
        self.last_t = last_t;
        self.started = started;
        Ok(())
    }
}

impl<G: DecayFunction> td_decay::StreamAggregate for Wbmh<G> {
    fn observe(&mut self, t: Time, f: u64) {
        Wbmh::observe(self, t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        Wbmh::observe_batch(self, items)
    }
    fn batched_ingest_amortizes(&self) -> bool {
        true // expiry/merge cascade shared per distinct tick
    }
    fn advance(&mut self, t: Time) {
        Wbmh::advance(self, t)
    }
    fn query(&self, t: Time) -> f64 {
        Wbmh::query(self, t)
    }
    /// See [`Wbmh::merge_from`]: both histograms must have been advanced
    /// to the same tick.
    fn merge_from(&mut self, other: &Self) {
        Wbmh::merge_from(self, other)
    }
    fn unit_weight_cap(&self) -> f64 {
        self.decay.weight_cap()
    }
    fn error_bound(&self) -> td_decay::ErrorBound {
        // With exact bucket counts the Paper estimator weights every
        // item at its bucket's newest age, so the answer is one-sided
        // high within the region band. Approximate counts can round in
        // either direction, making the envelope symmetric. The chunked
        // weight kernel perturbs each bucket weight by at most its
        // documented relative error κ (DESIGN.md §12), widening both
        // sides by κ — ten-plus decimal orders below any ε.
        let kappa = self.decay.kernel_relative_error();
        let bound = Wbmh::error_bound(self);
        if self.count_epsilon.is_none() {
            td_decay::ErrorBound {
                lower: kappa,
                upper: bound + kappa,
            }
        } else {
            td_decay::ErrorBound::symmetric(bound + kappa)
        }
    }
}

impl<G: DecayFunction> StorageAccounting for Wbmh<G> {
    fn storage_bits(&self) -> u64 {
        // Per-stream state: one count per bucket plus a 2-bit presence/
        // alignment tag per occupied partition cell. Bucket *boundaries*
        // are functions of (g, ε, T) shared across all streams and are
        // not charged (§2.3, §5).
        let per_bucket_overhead = 2;
        let mut bits: u64 = (0..self.buckets.len())
            .map(|i| self.buckets.count_storage_bits(i) + per_bucket_overhead)
            .sum();
        if let Some(open) = &self.open {
            bits += open.count.storage_bits() + per_bucket_overhead;
        }
        if let Some((_, pf)) = self.pending {
            bits += bits_for_count(pf);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_counters::ExactDecayedSum;
    use td_decay::{Exponential, Polynomial};

    /// The paper's §5 trace: g(x) = 1/x², 1+ε = 5, one item per tick
    /// starting at t = 0. Bucket *time spans* at each quoted T must
    /// match the quoted weight groups exactly.
    #[test]
    fn paper_trace_matches_section_5() {
        let mut h = Wbmh::new(Polynomial::new(2.0), 4.0, 1 << 20);
        assert_eq!(h.schedule().boundary(1), 3);
        assert_eq!(h.schedule().boundary(2), 7);
        assert_eq!(h.schedule().boundary(3), 16);
        assert_eq!(h.seal_period(), 2);

        let mut fed = 0u64;
        let feed_until = |h: &mut Wbmh<Polynomial>, t_query: Time, fed: &mut u64| {
            while *fed < t_query {
                h.observe(*fed, 1);
                *fed += 1;
            }
            h.advance(t_query);
        };
        let spans = |h: &Wbmh<Polynomial>| -> Vec<(Time, Time)> {
            h.bucket_spans().iter().map(|b| (b.start, b.end)).collect()
        };

        // T=1: "(1)" → items {0}.
        feed_until(&mut h, 1, &mut fed);
        assert_eq!(spans(&h), vec![(0, 0)]);
        // T=2: "(1, 1/4)" → {0,1} in one bucket.
        feed_until(&mut h, 2, &mut fed);
        assert_eq!(spans(&h), vec![(0, 1)]);
        // T=3: "(1); (1/4, 1/9)" → {2} and {0,1}.
        feed_until(&mut h, 3, &mut fed);
        assert_eq!(spans(&h), vec![(0, 1), (2, 2)]);
        // T=4: "(1,1/4); (1/9,1/16)" → {2,3} and {0,1}.
        feed_until(&mut h, 4, &mut fed);
        assert_eq!(spans(&h), vec![(0, 1), (2, 3)]);
        // T=6: "(1,1/4); (1/9..1/36)" → {4,5} and {0..3}.
        feed_until(&mut h, 6, &mut fed);
        assert_eq!(spans(&h), vec![(0, 3), (4, 5)]);
        // T=8: "(1,1/4); (1/9,1/16); (1/25..1/64)" → {6,7},{4,5},{0..3}.
        feed_until(&mut h, 8, &mut fed);
        assert_eq!(spans(&h), vec![(0, 3), (4, 5), (6, 7)]);
        // T=9: "(1); (1/4,1/9); (1/16,1/25); (1/36..1/81)"
        //      → {8},{6,7},{4,5},{0..3}.
        feed_until(&mut h, 9, &mut fed);
        assert_eq!(spans(&h), vec![(0, 3), (4, 5), (6, 7), (8, 8)]);
        // T=10: "(1,1/4); (1/9..1/36); (1/49..1/100)"
        //      → {8,9},{4..7},{0..3}.
        feed_until(&mut h, 10, &mut fed);
        assert_eq!(spans(&h), vec![(0, 3), (4, 7), (8, 9)]);
    }

    /// The paper's stream-independence claim (§5): "the count in each
    /// bucket depends on the stream, but the boundaries of each bucket
    /// do not". Two streams with identical arrival times but completely
    /// different values must produce identical bucket time-partitions.
    #[test]
    fn boundaries_are_value_independent() {
        let mk = || Wbmh::new(Polynomial::new(1.0), 0.2, 1 << 20);
        let mut ones = mk();
        let mut wild = mk();
        for t in 0..=2_000u64 {
            if t % 3 != 2 {
                ones.observe(t, 1);
                wild.observe(t, 1 + (t * t) % 97);
            }
        }
        ones.advance(2_001);
        wild.advance(2_001);
        let sa: Vec<(Time, Time)> = ones
            .bucket_spans()
            .iter()
            .map(|b| (b.start, b.end))
            .collect();
        let sb: Vec<(Time, Time)> = wild
            .bucket_spans()
            .iter()
            .map(|b| (b.start, b.end))
            .collect();
        assert_eq!(sa, sb, "bucket boundaries must not depend on values");
        // Counts, of course, differ.
        let ca: f64 = ones.bucket_spans().iter().map(|b| b.count).sum();
        let cb: f64 = wild.bucket_spans().iter().map(|b| b.count).sum();
        assert!(cb > ca);
    }

    /// The merge-pass skip is sound only if `pair_next_merge` never
    /// overshoots the true first merge opportunity (a late bound would
    /// delay merges and change structure). Brute-force `may_merge` over
    /// a time window and compare against the ladder-computed answer for
    /// every adjacent pair of a live histogram.
    #[test]
    fn pair_next_merge_is_exact_against_brute_force() {
        let mut h = Wbmh::new(Polynomial::new(1.0), 0.3, 1 << 16);
        let mut x = 9u64;
        for t in 1..=2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.observe(t, 1 + x % 4);
        }
        let now = h.last_t;
        let horizon = now + 4_000;
        let mut checked = 0;
        for i in 0..h.buckets.len() - 1 {
            let (a, c) = (h.buckets.span(i), h.buckets.span(i + 1));
            let got = h.pair_next_merge(a, c, now);
            let brute = ((now + 1)..=horizon).find(|&t| h.may_merge(a, c, t));
            match brute {
                Some(t) => {
                    assert_eq!(got, t, "pair {i}: ladder answer disagrees with may_merge");
                    checked += 1;
                }
                None => assert!(
                    got > horizon,
                    "pair {i}: ladder predicts merge at {got} but may_merge never fires by {horizon}"
                ),
            }
        }
        assert!(checked > 0, "no pair merged within the brute-force window");
    }

    /// With identical occupancy patterns the *entire* structure —
    /// including merge cascades — is reproducible tick for tick.
    #[test]
    fn structure_is_deterministic() {
        let mk = || Wbmh::new(Polynomial::new(2.0), 0.5, 1 << 16);
        let mut a = mk();
        let mut b = mk();
        let mut x = 5u64;
        for t in 0..=3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(4) {
                a.observe(t, 2);
                b.observe(t, 2);
            } else {
                a.advance(t);
                b.advance(t);
            }
        }
        let sa: Vec<(Time, Time)> = a.bucket_spans().iter().map(|v| (v.start, v.end)).collect();
        let sb: Vec<(Time, Time)> = b.bucket_spans().iter().map(|v| (v.start, v.end)).collect();
        assert_eq!(sa, sb);
    }

    fn audit_accuracy<G: DecayFunction + Clone>(g: G, eps: f64, n: u64, seed: u64) {
        let mut h = Wbmh::new(g.clone(), eps, 1 << 22);
        let mut exact = ExactDecayedSum::new(g);
        let mut x = seed;
        for t in 1..=n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 5;
            h.observe(t, f);
            exact.observe(t, f);
            if t % 479 == 0 || t == n {
                let truth = exact.query(t + 1);
                let est = h.query(t + 1);
                assert!(
                    est >= truth * (1.0 - 1e-9),
                    "t={t}: est={est} < truth={truth}"
                );
                assert!(
                    est <= truth * (1.0 + eps) + 1e-9,
                    "t={t}: est={est} > (1+{eps})·truth={truth}"
                );
            }
        }
    }

    #[test]
    fn one_sided_bound_polynomial() {
        audit_accuracy(Polynomial::new(1.0), 0.1, 5_000, 11);
        audit_accuracy(Polynomial::new(2.0), 0.25, 5_000, 12);
        audit_accuracy(Polynomial::new(0.5), 0.05, 5_000, 13);
    }

    #[test]
    fn one_sided_bound_exponential() {
        // WBMH is storage-inefficient for EXPD but still correct.
        audit_accuracy(Exponential::new(0.01), 0.1, 3_000, 14);
    }

    #[test]
    fn approx_counts_respect_combined_bound() {
        let g = Polynomial::new(1.0);
        let (eps, ceps) = (0.1, 0.05);
        let mut h = Wbmh::with_approx_counts(g, eps, 1 << 22, ceps);
        let mut exact = ExactDecayedSum::new(g);
        let mut x = 99u64;
        for t in 1..=8_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 5;
            h.observe(t, f);
            exact.observe(t, f);
        }
        let truth = exact.query(8_001);
        let est = h.query(8_001);
        let bound = h.error_bound();
        let rel = (est - truth) / truth;
        assert!(
            rel >= -bound - 1e-9 && rel <= bound + 1e-9,
            "rel={rel}, bound={bound}"
        );
    }

    #[test]
    fn bucket_count_is_logarithmic_for_polyd() {
        let eps = 0.5;
        let mut h1 = Wbmh::new(Polynomial::new(2.0), eps, 1 << 22);
        for t in 1..=(1u64 << 12) {
            h1.observe(t, 1);
        }
        h1.advance(1 << 12);
        let n12 = h1.num_buckets();
        let mut h2 = Wbmh::new(Polynomial::new(2.0), eps, 1 << 22);
        for t in 1..=(1u64 << 18) {
            h2.observe(t, 1);
        }
        h2.advance(1 << 18);
        let n18 = h2.num_buckets();
        assert!(n18 as f64 <= 2.5 * n12 as f64, "n12={n12}, n18={n18}");
        let regions = h2.schedule().num_regions();
        assert!(n18 <= 3 * regions + 4, "n18={n18}, regions={regions}");
    }

    #[test]
    fn storage_grows_subquadratically() {
        // Lemma 5.1: WBMH-with-approx-counts bits grow ~ log N·log log N.
        let run = |n: u64| -> u64 {
            let mut h = Wbmh::with_approx_counts(Polynomial::new(1.0), 0.2, 1 << 26, 0.1);
            for t in 1..=n {
                h.observe(t, 1);
            }
            h.advance(n + 1);
            h.storage_bits()
        };
        let b12 = run(1 << 12);
        let b24 = run(1 << 24);
        let ratio = b24 as f64 / b12 as f64;
        assert!(ratio < 3.5, "ratio={ratio} (b12={b12}, b24={b24})");
        assert!(ratio > 1.3, "ratio={ratio}");
    }

    #[test]
    fn sparse_stream_with_long_gaps() {
        let g = Polynomial::new(1.5);
        let mut h = Wbmh::new(g, 0.2, 1 << 22);
        let mut exact = ExactDecayedSum::new(g);
        let times = [1u64, 2, 3, 1000, 1001, 50_000, 50_001, 200_000];
        for &t in &times {
            h.observe(t, 10);
            exact.observe(t, 10);
        }
        let (est, truth) = (h.query(200_001), exact.query(200_001));
        assert!(est >= truth * (1.0 - 1e-9));
        assert!(est <= truth * 1.2 + 1e-9, "{est} vs {truth}");
    }

    #[test]
    fn merge_from_distributed_sites() {
        let g = Polynomial::new(1.0);
        let eps = 0.1;
        let mk = || Wbmh::new(g, eps, 1 << 20);
        let mut site_a = mk();
        let mut site_b = mk();
        let mut exact = ExactDecayedSum::new(g);
        let mut x = 31337u64;
        let n = 10_000u64;
        for t in 0..=n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 5;
            exact.observe(t, f);
            if x.is_multiple_of(2) {
                site_a.observe(t, f);
                site_b.advance(t);
            } else {
                site_b.observe(t, f);
                site_a.advance(t);
            }
        }
        site_a.advance(n + 1);
        site_b.advance(n + 1);
        site_a.merge_from(&site_b);
        let truth = exact.query(n + 1);
        let est = site_a.query(n + 1);
        assert!(est >= truth * (1.0 - 1e-9), "{est} < {truth}");
        assert!(est <= truth * (1.0 + eps) + 1e-9, "{est} > (1+eps){truth}");
        // Bucket structure stays canonical (no blow-up from merging).
        let regions = site_a.schedule().num_regions();
        assert!(site_a.num_buckets() <= 3 * regions + 4);
    }

    #[test]
    #[should_panic(expected = "same tick")]
    fn merge_from_rejects_time_skew() {
        let mk = || Wbmh::new(Polynomial::new(1.0), 0.1, 1 << 10);
        let mut a = mk();
        let mut b = mk();
        a.observe(5, 1);
        b.observe(9, 1);
        a.merge_from(&b);
    }

    #[test]
    fn query_excludes_pending_tick() {
        let mut h = Wbmh::new(Polynomial::new(1.0), 0.5, 1 << 10);
        h.observe(5, 3);
        assert_eq!(h.query(5), 0.0);
        assert!((h.query(6) - 3.0).abs() < 1e-12);
    }

    /// Restores `h`'s checkpoint into a fresh `make()` and checks the
    /// restored state's snapshot and re-saved bytes against `h`'s.
    fn checkpoint_round_trip<G: DecayFunction>(h: &Wbmh<G>, make: impl Fn() -> Wbmh<G>) -> Wbmh<G> {
        use td_decay::checkpoint::Checkpoint;
        let bytes = h.save_checkpoint();
        let mut restored = make();
        restored
            .restore_checkpoint(&bytes)
            .expect("own checkpoint restores");
        assert_eq!(h.snapshot(), restored.snapshot());
        assert_eq!(bytes, restored.save_checkpoint());
        restored
    }

    #[test]
    fn checkpoint_round_trip_exact_counts() {
        let g = Polynomial::new(1.0);
        let make = || Wbmh::new(g, 0.1, 1 << 20);
        let mut h = make();
        for t in 1..=5_000u64 {
            h.observe(t, 1 + t % 3);
        }
        let restored = checkpoint_round_trip(&h, make);
        assert_eq!(h.query(5_001), restored.query(5_001));
        // And both continue identically.
        let mut a = h;
        let mut b = restored;
        for t in 5_001..=6_000u64 {
            a.observe(t, t % 2);
            b.observe(t, t % 2);
        }
        assert_eq!(a.query(6_001), b.query(6_001));
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn checkpoint_round_trip_approx_counts() {
        let g = Polynomial::new(2.0);
        let make = || Wbmh::with_approx_counts(g, 0.2, 1 << 20, 0.1);
        let mut h = make();
        for t in 1..=3_000u64 {
            h.observe(t, 2);
        }
        let restored = checkpoint_round_trip(&h, make);
        assert!(
            h.snapshot().buckets.iter().any(|b| b.5 > 0),
            "counts merged"
        );
        assert_eq!(h.query(3_001), restored.query(3_001));
        assert_eq!(h.storage_bits(), restored.storage_bits());
        let mut a = h;
        let mut b = restored;
        for t in 3_001..=4_000u64 {
            a.observe(t, 1 + t % 3);
            b.observe(t, 1 + t % 3);
        }
        assert_eq!(a.query(4_001), b.query(4_001));
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn empty_checkpoint_round_trip() {
        let make = || Wbmh::new(Polynomial::new(1.0), 0.5, 1 << 10);
        let restored = checkpoint_round_trip(&make(), make);
        assert_eq!(restored.query(100), 0.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Wbmh::new(Polynomial::new(1.0), 0.5, 1 << 10);
        assert_eq!(h.query(100), 0.0);
        assert_eq!(h.num_buckets(), 0);
        assert_eq!(h.storage_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "not ratio-monotone")]
    fn rejects_sliding_window() {
        use td_decay::SlidingWindow;
        let _ = Wbmh::new(SlidingWindow::new(100), 0.1, 1 << 10);
    }

    #[test]
    fn geometric_estimator_is_two_sided_and_tighter() {
        let g = Polynomial::new(1.0);
        let mut h = Wbmh::new(g, 0.5, 1 << 22);
        let mut exact = ExactDecayedSum::new(g);
        for t in 1..=20_000u64 {
            h.observe(t, 1);
            exact.observe(t, 1);
        }
        let truth = exact.query(20_001);
        let paper = h.query_with(20_001, WbmhEstimator::Paper);
        let geo = h.query_with(20_001, WbmhEstimator::Geometric);
        assert!((geo - truth).abs() <= (paper - truth).abs());
        let band = (1.5f64).sqrt();
        assert!(geo <= truth * band + 1e-9 && geo >= truth / band - 1e-9);
    }
}
