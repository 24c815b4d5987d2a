//! The domination-based Exponential Histogram for general values.

use td_decay::storage::{bits_for_count, bits_for_timestamp, StorageAccounting};
use td_decay::{BucketColumns, ColumnsView, Time};

use crate::bucket::{estimate_strict_past_cols, estimate_window_cols, Bucket, Estimator};
use crate::WindowSketch;

/// An Exponential Histogram driven by the merge rule exactly as
/// Cohen–Strauss characterize it (§4.1):
///
/// > *two consecutive buckets are merged if the combined count of the
/// > merged buckets is dominated by the total count of all more-recent
/// > buckets*
///
/// concretely: adjacent buckets `a` (older) and `b` (newer) merge when
/// `count(a) + count(b) <= ε · Σ(counts of buckets newer than b)`.
///
/// Properties (all verified by tests):
///
/// * **general values** — each tick may carry any `u64` value, giving
///   the paper's §2.1 generalization to polynomial values for free;
/// * **persistent dominance** — once created, a merged bucket's count
///   stays `<= ε ×` the (only ever growing) count of newer items, so a
///   window straddler always costs at most an ε fraction of the true
///   in-window count. Single-tick buckets never straddle, so unmerged
///   bulk arrivals never contribute error;
/// * **logarithmic size** — any two adjacent unmerged buckets grow the
///   suffix count by a `(1 + ε)` factor, so there are
///   `O(ε⁻¹ log(total))` buckets.
///
/// # Examples
///
/// ```
/// use td_eh::{DominationEh, WindowSketch};
/// let mut eh = DominationEh::new(0.1, None);
/// eh.observe(1, 500);  // bulk arrival
/// eh.observe(2, 1);
/// assert_eq!(eh.live_total(), 501);
/// assert!((eh.query_window(3, 2) - 501.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DominationEh {
    epsilon: f64,
    window: Option<Time>,
    /// Buckets, oldest first, as structure-of-arrays columns (see
    /// `td_decay::soa`): queries stream the boundary columns straight
    /// into the decay kernels, and front expiry is an amortized head-
    /// offset bump instead of a deque rotation.
    buckets: BucketColumns,
    live_total: u64,
    last_t: Time,
    started: bool,
    /// Inserts since the last merge pass (the pass is amortized: it
    /// costs O(#buckets) and runs every ~#buckets/4 inserts, so the
    /// amortized cost per insert is O(1) — the §4.2 claim — at the
    /// price of at most 25% transiently-unmerged extra buckets).
    inserts_since_merge: usize,
    /// Number of single-site histograms folded into this one (1 for a
    /// freshly built summary). A k-site union certifies a `k·ε`
    /// envelope, so the certified bound widens with each merge.
    sites: u32,
    /// Mass observed exactly at `last_t`, so the unified-aggregate
    /// `query(T)` can exclude items at `T` itself (§2.1).
    at_last: u64,
}

impl DominationEh {
    /// A histogram targeting relative error `epsilon`, optionally
    /// expiring items older than `window` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1]` or `window == Some(0)`.
    pub fn new(epsilon: f64, window: Option<Time>) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0,1], got {epsilon}"
        );
        assert!(window != Some(0), "window must be positive");
        Self {
            epsilon,
            window,
            buckets: BucketColumns::new(),
            live_total: 0,
            last_t: 0,
            started: false,
            inserts_since_merge: 0,
            sites: 1,
            at_last: 0,
        }
    }

    /// The configured window, if any.
    pub fn window(&self) -> Option<Time> {
        self.window
    }

    /// How many single-site histograms this summary unions (1 until
    /// [`merge_from`](Self::merge_from) is used). The certified
    /// relative-error envelope is `sites · ε`.
    pub fn sites(&self) -> u32 {
        self.sites
    }

    /// Forces the deferred merge pass to run now (tests and storage
    /// audits call this to measure the canonical size).
    pub fn force_canonicalize(&mut self) {
        self.canonicalize();
        self.inserts_since_merge = 0;
    }

    /// Number of live buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The live bucket list, oldest first (inspection and equivalence
    /// testing).
    pub fn buckets(&self) -> Vec<Bucket> {
        self.buckets
            .iter()
            .map(|(start, end, count)| Bucket { start, end, count })
            .collect()
    }

    /// The time of the most recent observation.
    pub fn last_time(&self) -> Time {
        self.last_t
    }

    fn expire(&mut self, now: Time) {
        if let Some(w) = self.window {
            let cutoff = now.saturating_sub(w);
            while let Some((_, end, count)) = self.buckets.front() {
                if end < cutoff {
                    self.live_total -= count;
                    self.buckets.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// One merge pass, newest → oldest, with a running suffix count.
    /// Merges cascade naturally: a merged bucket is immediately
    /// re-considered against its next-older neighbour under the same
    /// suffix count.
    fn canonicalize(&mut self) {
        if self.buckets.len() < 2 {
            return;
        }
        let mut idx = self.buckets.len() - 1;
        // suffix = total count of buckets strictly newer than `idx`.
        let mut suffix: f64 = 0.0;
        while idx > 0 {
            let (n_start, n_end, n_count) = self.buckets.get(idx);
            let (o_start, o_end, o_count) = self.buckets.get(idx - 1);
            let combined = o_count + n_count;
            // Never fold at-tick mass (end == last_t) into a bucket
            // spanning earlier ticks: `query` excludes the §2.1 at-tick
            // mass exactly by skipping whole buckets, which requires
            // age-0 mass to stay in single-tick buckets. Only reachable
            // after a cross-site merge interleaves bucket lists — within
            // one site the sole at-tick bucket is the newest and its
            // zero suffix already blocks the merge.
            let mixes_at_tick = n_end == self.last_t && o_end < n_end;
            if !mixes_at_tick && (combined as f64) <= self.epsilon * suffix {
                self.buckets.set(
                    idx - 1,
                    o_start.min(n_start),
                    o_end.max(n_end),
                    o_count.saturating_add(n_count),
                );
                self.buckets.remove(idx);
                // The merged bucket sits at idx − 1; re-examine it
                // against its next-older neighbour with the same suffix.
                idx -= 1;
            } else {
                suffix += n_count as f64;
                idx -= 1;
            }
        }
    }

    /// Merges another histogram's contents into this one — the
    /// distributed-streams operation (cf. Gibbons–Tirthapura, the
    /// paper's reference \[12\]): summaries built at k sites over disjoint
    /// substreams combine into a summary of the union.
    ///
    /// Bucket lists are interleaved by end time and re-canonicalized.
    /// Each incoming multi-tick bucket was ε-dominated by newer items in
    /// its *origin* stream, and union only adds newer mass, so after
    /// merging `k` histograms every window estimate carries a `k·ε`
    /// relative bound (build the site histograms with `ε/k` for an
    /// end-to-end ε; the merge test pins this).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms were built with different `epsilon`
    /// or different expiry windows.
    pub fn merge_from(&mut self, other: &DominationEh) {
        assert!(
            (self.epsilon - other.epsilon).abs() < f64::EPSILON,
            "cannot merge histograms with different epsilon"
        );
        assert_eq!(self.window, other.window, "expiry windows differ");
        if other.buckets.is_empty() {
            return;
        }
        let mut merged = BucketColumns::with_capacity(self.buckets.len() + other.buckets.len());
        let mut a = self.buckets.iter().peekable();
        let mut b = other.buckets.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) => {
                    if x.1 <= y.1 {
                        merged.push_back(x.0, x.1, x.2);
                        a.next();
                    } else {
                        merged.push_back(y.0, y.1, y.2);
                        b.next();
                    }
                }
                (Some(_), None) => {
                    for (s, e, c) in a.by_ref() {
                        merged.push_back(s, e, c);
                    }
                    break;
                }
                (None, Some(_)) => {
                    for (s, e, c) in b.by_ref() {
                        merged.push_back(s, e, c);
                    }
                    break;
                }
                (None, None) => break,
            }
        }
        drop(a);
        drop(b);
        self.buckets = merged;
        self.live_total = self.live_total.saturating_add(other.live_total);
        // Compare against the PRE-merge tick: after taking the max,
        // `other.last_t > self.last_t` is unsatisfiable and a strictly
        // newer site would wrongly keep this site's stale at-tick mass.
        let old_last = self.last_t;
        self.last_t = self.last_t.max(other.last_t);
        self.started |= other.started;
        self.sites = self.sites.saturating_add(other.sites);
        match other.last_t.cmp(&old_last) {
            std::cmp::Ordering::Greater => self.at_last = other.at_last,
            std::cmp::Ordering::Equal => self.at_last = self.at_last.saturating_add(other.at_last),
            std::cmp::Ordering::Less => {}
        }
        self.expire(self.last_t);
        self.canonicalize();
        self.inserts_since_merge = 0;
    }

    /// Estimates a window count with an explicit straddler rule,
    /// streaming the columns directly — the SoA layout never wraps, so
    /// there is no copy on any path.
    pub fn query_window_with(&self, t: Time, w: Time, estimator: Estimator) -> f64 {
        estimate_window_cols(
            self.buckets.starts(),
            self.buckets.ends(),
            self.buckets.counts(),
            t,
            w,
            estimator,
        )
    }

    /// Adds `mass > 0` at the (already advanced-to) tick `t`: coalesce
    /// into the newest bucket when it is single-tick at `t`, otherwise
    /// open a fresh bucket and maybe run the amortized merge pass.
    ///
    /// The merge counter ticks per *new bucket*, not per item, so
    /// same-tick coalescing never re-triggers the pass.
    fn add_mass(&mut self, t: Time, f: u64) {
        match self.buckets.back() {
            Some((start, end, count)) if start == t && end == t => {
                self.buckets
                    .set_count(self.buckets.len() - 1, count.saturating_add(f));
            }
            _ => {
                self.buckets.push_back(t, t, f);
                self.inserts_since_merge += 1;
                if self.inserts_since_merge >= (self.buckets.len() / 4).max(8) {
                    self.canonicalize();
                    self.inserts_since_merge = 0;
                }
            }
        }
        self.live_total = self.live_total.saturating_add(f);
        self.at_last = self.at_last.saturating_add(f);
    }
}

impl WindowSketch for DominationEh {
    /// Ingests a bulk value `f` at time `t` (non-decreasing `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previous observation.
    fn observe(&mut self, t: Time, f: u64) {
        self.advance(t);
        if f == 0 {
            return;
        }
        self.add_mass(t, f);
    }

    /// Ingests a sorted burst, bit-identical in end state to the
    /// sequential loop: clock advance and expiry run once per distinct
    /// tick; the run's first non-zero item replays
    /// [`add_mass`](Self::add_mass) (so the amortized merge pass fires
    /// exactly when the sequential loop's would, seeing the same back-
    /// bucket count); the run's remaining mass folds straight into the
    /// back bucket, which is the only effect the sequential loop's later
    /// same-tick calls can have (`canonicalize` never merges the newest
    /// bucket — its suffix count is zero — so the back bucket survives
    /// any pass unchanged and stays single-tick at `t`).
    ///
    /// # Panics
    ///
    /// Panics if any time precedes its predecessor.
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.advance(t);
            let mut opened = false;
            let mut rest = 0u64;
            while i < items.len() && items[i].0 == t {
                let f = items[i].1;
                if f > 0 {
                    if opened {
                        rest = rest.saturating_add(f);
                    } else {
                        self.add_mass(t, f);
                        opened = true;
                    }
                }
                i += 1;
            }
            if rest > 0 {
                if let Some((_, _, count)) = self.buckets.back() {
                    self.buckets
                        .set_count(self.buckets.len() - 1, count.saturating_add(rest));
                }
                self.live_total = self.live_total.saturating_add(rest);
                self.at_last = self.at_last.saturating_add(rest);
            }
        }
    }

    fn advance(&mut self, t: Time) {
        if self.started {
            assert!(
                t >= self.last_t,
                "time went backwards: {t} < {}",
                self.last_t
            );
        }
        if !self.started || t > self.last_t {
            self.at_last = 0;
        }
        self.started = true;
        self.last_t = t;
        self.expire(t);
    }

    fn query_window(&self, t: Time, w: Time) -> f64 {
        self.query_window_with(t, w, Estimator::Halved)
    }

    fn live_total(&self) -> u64 {
        self.live_total
    }

    fn buckets(&self) -> Vec<Bucket> {
        DominationEh::buckets(self)
    }

    fn columns(&self) -> ColumnsView<'_> {
        ColumnsView::from(&self.buckets)
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl td_decay::StreamAggregate for DominationEh {
    fn observe(&mut self, t: Time, f: u64) {
        WindowSketch::observe(self, t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        WindowSketch::observe_batch(self, items)
    }
    fn batched_ingest_amortizes(&self) -> bool {
        true // same-tick mass coalesced before the merge cascade
    }
    fn advance(&mut self, t: Time) {
        WindowSketch::advance(self, t)
    }
    /// The live-total estimate: a window query spanning the whole
    /// elapsed stream (ages `1..=t`), i.e. the sliding-window decayed
    /// sum this sketch maintains. Mass observed exactly at `t` is
    /// excluded (§2.1) *before* estimation — at-tick buckets are dropped
    /// whole (`canonicalize` keeps age-0 mass single-tick) — so the ε
    /// envelope applies to the strictly-past quantity being reported,
    /// not to past-plus-burst mass with a subtraction on top.
    fn query(&self, t: Time) -> f64 {
        if t == self.last_t && self.at_last > 0 {
            estimate_strict_past_cols(
                self.buckets.starts(),
                self.buckets.ends(),
                self.buckets.counts(),
                t,
                self.at_last,
                Estimator::Halved,
            )
        } else {
            self.query_window(t, t)
        }
    }
    fn merge_from(&mut self, other: &Self) {
        DominationEh::merge_from(self, other)
    }
    fn error_bound(&self) -> td_decay::ErrorBound {
        // A k-site union certifies k·ε (see merge_from); queries are
        // symmetric because a straddling oldest bucket can land on
        // either side of the true suffix count.
        td_decay::ErrorBound::symmetric(self.sites as f64 * self.epsilon)
    }
    fn unit_weight_cap(&self) -> f64 {
        1.0 // a (windowed) count: every live item weighs 1
    }
}

impl StorageAccounting for DominationEh {
    fn storage_bits(&self) -> u64 {
        // Per bucket: one timestamp plus an exact count.
        let span = self.last_t;
        self.buckets
            .counts()
            .iter()
            .map(|&c| bits_for_timestamp(span) + bits_for_count(c))
            .sum()
    }
}

/// Checkpoint tag for [`DominationEh`].
const TAG_DOMINATION: u8 = 6;

impl td_decay::checkpoint::Checkpoint for DominationEh {
    fn save_checkpoint(&self) -> Vec<u8> {
        use td_decay::checkpoint::CheckpointWriter;
        let mut w = CheckpointWriter::new(TAG_DOMINATION);
        w.put_f64(self.epsilon); // configuration pins
        match self.window {
            None => w.put_u8(0),
            Some(win) => {
                w.put_u8(1);
                w.put_u64(win);
            }
        }
        w.put_u64(self.live_total);
        w.put_u64(self.last_t);
        w.put_bool(self.started);
        w.put_u64(self.inserts_since_merge as u64);
        w.put_u32(self.sites);
        w.put_u64(self.at_last);
        // Serialized from the columns in the original AoS field order
        // (start, end, count per bucket): byte-stable across the SoA
        // refactor, pinned by the golden-checkpoint fixtures.
        w.put_u64(self.buckets.len() as u64);
        for (start, end, count) in self.buckets.iter() {
            w.put_u64(start);
            w.put_u64(end);
            w.put_u64(count);
        }
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), td_decay::RestoreError> {
        use td_decay::checkpoint::{CheckpointReader, RestoreError};
        let mut r = CheckpointReader::open(bytes, TAG_DOMINATION)?;
        let eps = r.get_f64()?;
        let window = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            b => return Err(RestoreError::Invariant(format!("bad window tag {b}"))),
        };
        if eps.to_bits() != self.epsilon.to_bits() || window != self.window {
            return Err(RestoreError::Invariant(format!(
                "config mismatch: checkpoint (ε={eps}, window={window:?}), \
                 receiver (ε={}, window={:?})",
                self.epsilon, self.window
            )));
        }
        let live_total = r.get_u64()?;
        let last_t = r.get_u64()?;
        let started = r.get_bool()?;
        let inserts_since_merge = r.get_u64()? as usize;
        let sites = r.get_u32()?;
        let at_last = r.get_u64()?;
        if sites == 0 {
            return Err(RestoreError::Invariant("zero sites".into()));
        }
        let n = r.get_u64()?;
        let n = r.count(n, 24)?;
        let mut buckets = BucketColumns::with_capacity(n);
        let mut sum = 0u64;
        for i in 0..n {
            let start = r.get_u64()?;
            let end = r.get_u64()?;
            let count = r.get_u64()?;
            if start > end || end > last_t {
                return Err(RestoreError::Invariant(format!(
                    "bucket {i} spans [{start}, {end}] beyond clock {last_t}"
                )));
            }
            if count == 0 {
                return Err(RestoreError::Invariant(format!("bucket {i} is empty")));
            }
            if let Some((_, prev_end, _)) = buckets.back() {
                // Cross-site merges interleave by end time and may nest
                // intervals, so only end-ordering is invariant.
                if prev_end > end {
                    return Err(RestoreError::Invariant(format!(
                        "bucket {i} ends before bucket {}",
                        i - 1
                    )));
                }
            }
            sum = sum.saturating_add(count);
            buckets.push_back(start, end, count);
        }
        r.finish()?;
        if sum != live_total {
            return Err(RestoreError::Invariant(format!(
                "bucket mass {sum} disagrees with live_total {live_total}"
            )));
        }
        self.buckets = buckets;
        self.live_total = live_total;
        self.last_t = last_t;
        self.started = started;
        self.inserts_since_merge = inserts_since_merge;
        self.sites = sites;
        self.at_last = at_last;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every multi-tick (merged) bucket is dominated: its count is at
    /// most ε × the total count of strictly newer buckets, measured NOW
    /// (dominance only strengthens as newer items arrive).
    fn assert_dominance(eh: &DominationEh) {
        let buckets = eh.buckets();
        let mut suffix = 0u64;
        for i in (0..buckets.len()).rev() {
            let b = buckets[i];
            if b.start != b.end {
                assert!(
                    b.count as f64 <= eh.epsilon * suffix as f64 + 1e-9,
                    "bucket {i} ({b:?}) not dominated by suffix {suffix}"
                );
            }
            suffix += b.count;
        }
    }

    #[test]
    fn dense_unit_stream_accuracy() {
        let eps = 0.1;
        let mut eh = DominationEh::new(eps, None);
        for t in 1..=20_000u64 {
            eh.observe(t, 1);
            if t % 1009 == 0 {
                assert_dominance(&eh);
            }
        }
        assert_dominance(&eh);
        for w in [1u64, 10, 100, 1_000, 10_000, 19_999] {
            let est = eh.query_window(20_001, w);
            let truth = w as f64;
            assert!(
                (est - truth).abs() <= eps * truth + 1.0,
                "w={w}: est={est}, truth={truth}"
            );
        }
    }

    #[test]
    fn bulk_values_accuracy() {
        let eps = 0.05;
        let mut eh = DominationEh::new(eps, None);
        let mut items: Vec<(Time, u64)> = Vec::new();
        let mut x = 98765u64;
        for t in 1..=10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 50; // bulk values 0..49
            eh.observe(t, f);
            items.push((t, f));
        }
        for w in [50u64, 500, 5_000, 9_999] {
            let truth: u64 = items
                .iter()
                .filter(|&&(t, _)| t >= 10_001 - w)
                .map(|&(_, f)| f)
                .sum();
            let est = eh.query_window(10_001, w);
            assert!(
                (est - truth as f64).abs() <= eps * truth as f64 + 25.0,
                "w={w}: est={est}, truth={truth}"
            );
        }
    }

    #[test]
    fn bucket_count_logarithmic_in_total() {
        let eps = 0.1;
        let mut eh = DominationEh::new(eps, None);
        for t in 1..=(1u64 << 16) {
            eh.observe(t, 1);
        }
        let n = eh.num_buckets() as f64;
        // O(ε⁻¹ log total): generous bound 4·(1/ε)·log2(total).
        let bound = 4.0 * (1.0 / eps) * 16.0;
        assert!(n <= bound, "n={n}, bound={bound}");
    }

    #[test]
    fn huge_single_burst_then_trickle() {
        // A 10^6 burst followed by unit arrivals: the burst bucket is
        // single-tick so window queries around it are exact.
        let mut eh = DominationEh::new(0.1, None);
        eh.observe(100, 1_000_000);
        for t in 101..=200u64 {
            eh.observe(t, 1);
        }
        // Window covering only the trickle.
        let est = eh.query_window(201, 100);
        assert!((est - 100.0).abs() <= 0.1 * 100.0 + 1.0, "est={est}");
        // Window covering everything.
        let est_all = eh.query_window(201, 101);
        let truth = 1_000_100.0;
        assert!((est_all - truth).abs() <= 0.1 * truth, "est={est_all}");
    }

    #[test]
    fn window_mode_expires() {
        let mut eh = DominationEh::new(0.1, Some(100));
        for t in 1..=10_000u64 {
            eh.observe(t, 3);
        }
        assert!(eh.live_total() <= 3 * 200);
        let est = eh.query_window(10_001, 100);
        let truth = 300.0;
        assert!((est - truth).abs() <= 0.1 * truth + 3.0, "est={est}");
    }

    #[test]
    fn same_tick_accumulation() {
        let mut eh = DominationEh::new(0.1, None);
        for _ in 0..10 {
            eh.observe(5, 7);
        }
        assert_eq!(eh.live_total(), 70);
        assert_eq!(eh.num_buckets(), 1);
        assert_eq!(eh.query_window(6, 1), 70.0);
    }

    #[test]
    fn estimate_is_exact_when_no_straddler() {
        let mut eh = DominationEh::new(0.25, None);
        for t in 1..=1000u64 {
            eh.observe(t, 2);
        }
        // Whole-history window: every bucket fully inside.
        let est = eh.query_window(1001, 1000);
        assert_eq!(est, 2000.0);
    }

    #[test]
    fn merge_from_combines_disjoint_sites() {
        // Two sites see interleaved substreams of one logical stream;
        // the merged histogram must estimate union windows within 2ε.
        let eps = 0.05;
        let mut site_a = DominationEh::new(eps, None);
        let mut site_b = DominationEh::new(eps, None);
        let mut items: Vec<(Time, u64)> = Vec::new();
        let mut x = 4242u64;
        for t in 1..=20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 6;
            items.push((t, f));
            if x.is_multiple_of(2) {
                site_a.observe(t, f);
            } else {
                site_b.observe(t, f);
            }
        }
        site_a.merge_from(&site_b);
        assert_eq!(
            site_a.live_total(),
            items.iter().map(|&(_, f)| f).sum::<u64>()
        );
        for w in [100u64, 1_000, 10_000, 19_999] {
            let truth: u64 = items
                .iter()
                .filter(|&&(t, _)| t >= 20_001 - w)
                .map(|&(_, f)| f)
                .sum();
            let est = site_a.query_window(20_001, w);
            assert!(
                (est - truth as f64).abs() <= 2.0 * eps * truth as f64 + 12.0,
                "w={w}: est={est}, truth={truth}"
            );
        }
    }

    #[test]
    fn merge_from_newer_site_replaces_at_tick_mass() {
        // Site b's last tick (20) is strictly newer than site a's (10):
        // the merged summary's at-tick mass must be b's alone — keeping
        // a's stale tick-10 mass would subtract strictly-past items
        // from the merged landmark answer.
        let mut a = DominationEh::new(0.1, None);
        for t in 1..=10u64 {
            a.observe(t, 5);
        }
        let mut b = DominationEh::new(0.1, None);
        for t in 1..=20u64 {
            b.observe(t, 3);
        }
        a.merge_from(&b);
        // Landmark query at the merged tick: everything except the
        // 3 units at tick 20 is strictly past and counted exactly.
        let truth = (10 * 5 + 20 * 3 - 3) as f64;
        assert_eq!(td_decay::StreamAggregate::query(&a, 20), truth);
        // One tick later the burst becomes visible too.
        assert_eq!(td_decay::StreamAggregate::query(&a, 21), truth + 3.0);
    }

    #[test]
    fn merge_from_same_tick_sums_at_tick_mass() {
        let mut a = DominationEh::new(0.1, None);
        let mut b = DominationEh::new(0.1, None);
        for t in 1..=20u64 {
            a.observe(t, 2);
            b.observe(t, 7);
        }
        a.merge_from(&b);
        let truth = (19 * 2 + 19 * 7) as f64;
        assert_eq!(td_decay::StreamAggregate::query(&a, 20), truth);
    }

    #[test]
    fn at_tick_burst_does_not_leak_estimation_error() {
        // Small past mass, then a huge burst at the query tick: the
        // answer must stay within ε of the (small) past truth — the
        // burst is excluded before estimation, so its mass never
        // contributes estimation error.
        let eps = 0.1;
        let mut eh = DominationEh::new(eps, None);
        for t in 1..=50u64 {
            eh.observe(t, 1);
        }
        eh.observe(51, 1_000_000);
        let got = td_decay::StreamAggregate::query(&eh, 51);
        assert!((got - 50.0).abs() <= eps * 50.0 + 1e-9, "got={got}");
    }

    #[test]
    fn merge_from_empty_is_noop() {
        let mut a = DominationEh::new(0.1, None);
        a.observe(1, 5);
        let b = DominationEh::new(0.1, None);
        a.merge_from(&b);
        assert_eq!(a.live_total(), 5);
    }

    #[test]
    #[should_panic(expected = "different epsilon")]
    fn merge_from_rejects_mismatched_epsilon() {
        let mut a = DominationEh::new(0.1, None);
        let b = DominationEh::new(0.2, None);
        a.merge_from(&b);
    }

    #[test]
    fn zeros_are_free() {
        let mut eh = DominationEh::new(0.1, None);
        for t in 1..=1000 {
            eh.observe(t, 0);
        }
        assert_eq!(eh.num_buckets(), 0);
        assert_eq!(eh.live_total(), 0);
    }
}
