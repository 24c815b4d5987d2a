//! Cascaded Exponential Histograms (CEH): decaying sums under **any**
//! decay function (paper §4.2, Theorem 1).
//!
//! Theorem 1 observes that, by summation by parts (paper Eq. 3), a
//! decaying sum under any non-increasing `g` is a *positively weighted*
//! combination of sliding-window counts:
//!
//! ```text
//! S_g(T) = g(N)·S_SLIWIN_N(T) + Σ_i (g(N−i) − g(N+1−i))·S_SLIWIN_{N−i}(T)
//! ```
//!
//! and each window count is available, to within `(1±ε)`, from a single
//! Exponential Histogram (Lemma 4.1). Substituting the EH's estimates
//! collapses the N-term sum to one term per *bucket* (paper Eq. 4);
//! Abel-summing once more gives the equivalent evaluation implemented
//! here:
//!
//! ```text
//! S'_g(T) = Σ_j C_j · g(T − e_j)
//! ```
//!
//! where `e_j` is bucket `j`'s end time. (The module tests pin the
//! paper's own 8/5/3/2 worked example to guard this reading of Eq. 4 —
//! the `C_j` there are *suffix* counts, and the two forms are equal.)
//!
//! The estimate is **one-sided**: every item is weighted at its bucket's
//! end time, so `S_g(T) <= S'_g(T) <= (1+ε)·S_g(T)` whenever the
//! underlying sketch guarantees that any bucket old enough to straddle a
//! window boundary counts at most an ε fraction of the newer items
//! (both `td-eh` variants do). Storage is the sketch's —
//! `O(ε⁻¹ log² N)` bits — for any decay function, which is what makes
//! sliding windows the "hardest" decay in the paper's sense.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use td_decay::soa::{dot_counts, dot_counts_midpoint};
use td_decay::storage::StorageAccounting;
use td_decay::{DecayFunction, Time};
use td_eh::{DominationEh, WindowSketch};

/// How the cascaded query weights each bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CehEstimator {
    /// Weight the whole bucket at its end time — the paper's Eq. (4).
    /// One-sided: never underestimates, overestimates by at most `(1+ε)`.
    #[default]
    Paper,
    /// Weight the bucket at the average of its start- and end-time
    /// weights — a two-sided heuristic with roughly half the error on
    /// smooth decays (not covered by the Theorem 1 bound; measured in
    /// experiment E4).
    Midpoint,
}

/// A decaying sum under an arbitrary decay function, maintained through
/// a cascaded Exponential Histogram (Theorem 1).
///
/// Generic over the window sketch `S`; the default [`DominationEh`]
/// accepts bulk per-tick values. The constructor wires the sketch's
/// expiry window to the decay's horizon automatically (a SLIWIN decay
/// expires buckets; POLYD keeps the whole history live, as §2.3's
/// definition of `N` prescribes).
///
/// # Examples
///
/// ```
/// use td_ceh::CascadedEh;
/// use td_decay::Polynomial;
/// let mut s = CascadedEh::new(Polynomial::new(1.0), 0.1);
/// for t in 1..=100 {
///     s.observe(t, 1);
/// }
/// let est = s.query(101);
/// let exact: f64 = (1..=100u64).map(|t| 1.0 / (101 - t) as f64).sum();
/// assert!(est >= exact * (1.0 - 1e-9));
/// assert!(est <= exact * 1.1 + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct CascadedEh<G, S = DominationEh> {
    decay: G,
    sketch: S,
}

impl<G: DecayFunction> CascadedEh<G, DominationEh> {
    /// A cascaded histogram for `decay` targeting relative error
    /// `epsilon`, over a [`DominationEh`] sketch.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1]`.
    pub fn new(decay: G, epsilon: f64) -> Self {
        let window = decay.horizon();
        Self {
            decay,
            sketch: DominationEh::new(epsilon, window),
        }
    }
}

impl<G: DecayFunction> CascadedEh<G, DominationEh> {
    /// Merges another cascaded histogram's sketch into this one
    /// (distributed sites over disjoint substreams; see
    /// [`DominationEh::merge_from`] for the `k·ε` error composition).
    ///
    /// The decay functions must be identical; this is checked by the
    /// sketch configuration (ε, expiry window) plus the decay
    /// description string — supply genuinely equal decays.
    ///
    /// # Panics
    ///
    /// Panics if the decay descriptions, ε, or windows differ.
    pub fn merge_from(&mut self, other: &CascadedEh<G, DominationEh>) {
        assert_eq!(
            self.decay.describe(),
            other.decay.describe(),
            "decay functions differ"
        );
        self.sketch.merge_from(&other.sketch);
    }
}

impl<G: DecayFunction, S: WindowSketch> CascadedEh<G, S> {
    /// Wraps an existing window sketch (e.g. a [`td_eh::ClassicEh`] for
    /// strictly 0/1 streams).
    pub fn with_sketch(decay: G, sketch: S) -> Self {
        Self { decay, sketch }
    }

    /// The decay function being tracked.
    pub fn decay(&self) -> &G {
        &self.decay
    }

    /// The underlying window sketch.
    pub fn sketch(&self) -> &S {
        &self.sketch
    }

    /// Ingests an item of value `f` at time `t` (non-decreasing `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previous observation, or (for
    /// [`td_eh::ClassicEh`] sketches) if `f > 1`.
    pub fn observe(&mut self, t: Time, f: u64) {
        self.sketch.observe(t, f);
    }

    /// Ingests a burst of `(time, value)` items sorted by non-decreasing
    /// time, delegating to the sketch's amortized batch path (same end
    /// state as sequential [`observe`](Self::observe) calls).
    ///
    /// # Panics
    ///
    /// Panics if any time precedes its predecessor.
    pub fn observe_batch(&mut self, items: &[(Time, u64)]) {
        self.sketch.observe_batch(items);
    }

    /// Advances the sketch's clock to `t` without ingesting, expiring
    /// buckets past the decay horizon (for finite-horizon decays).
    pub fn advance(&mut self, t: Time) {
        self.sketch.advance(t);
    }

    /// The live prefix of the sketch's bucket columns with `end < t`:
    /// items at or after the query time are excluded (§2.1). Ends are
    /// non-decreasing, so the prefix boundary is a binary search — the
    /// query kernels then stream the borrowed columns directly into
    /// [`DecayFunction::weight_batch`] with zero gather or copy.
    fn live_prefix(&self, t: Time) -> td_decay::ColumnsView<'_> {
        let cols = self.sketch.columns();
        let live = cols.ends.partition_point(|&e| e < t);
        td_decay::ColumnsView {
            starts: &cols.starts[..live],
            ends: &cols.ends[..live],
            counts: &cols.counts[..live],
        }
    }

    /// The decaying-sum estimate `S'_g(T)` of Eq. (4), with the default
    /// one-sided estimator.
    pub fn query(&self, t: Time) -> f64 {
        self.query_with(t, CehEstimator::Paper)
    }

    /// The decaying-sum estimate with an explicit bucket-weighting rule.
    pub fn query_with(&self, t: Time, estimator: CehEstimator) -> f64 {
        let live = self.live_prefix(t);
        match estimator {
            CehEstimator::Paper => dot_counts(&self.decay, t, live.ends, live.counts),
            CehEstimator::Midpoint => {
                dot_counts_midpoint(&self.decay, t, live.starts, live.ends, live.counts)
            }
        }
    }

    /// Evaluates the same bucket snapshot under several decay functions
    /// in one traversal (the cascaded structure is decay-agnostic: one
    /// sketch serves any number of decays, which is the practical payoff
    /// of Theorem 1). One `weight_batch` call per decay over the shared
    /// age column.
    pub fn query_many(&self, t: Time, decays: &[&dyn DecayFunction]) -> Vec<f64> {
        let live = self.live_prefix(t);
        decays
            .iter()
            .map(|g| dot_counts(*g, t, live.ends, live.counts))
            .collect()
    }

    /// Number of live buckets in the sketch.
    pub fn num_buckets(&self) -> usize {
        self.sketch.columns().ends.len()
    }

    /// The decaying-sum estimate with bucket **ages quantized** to the
    /// multiplicative `(1+δ)` grid — the paper's closing §5 remark
    /// (attributed to Y. Matias): for polynomial decay a constant-factor
    /// error in a time boundary is only a constant-factor error in that
    /// bucket's contribution, so boundaries need just
    /// `O(log log N + log(1/δ))` bits instead of `log N`.
    ///
    /// Ages are rounded **down** to the grid (weights rounded up), so
    /// the estimate stays one-sided:
    /// `S <= estimate <= (1+ε)·(1+δ)^α·S` for `g(x) = x^{-α}`
    /// ([`CascadedEh::quantized_boundary_bits`] gives the matching
    /// storage account; the E13 ablation measures both).
    pub fn query_quantized(&self, t: Time, delta: f64) -> f64 {
        assert!(
            delta.is_finite() && delta > 0.0,
            "delta must be finite and positive, got {delta}"
        );
        let base = (1.0 + delta).ln();
        let mut total = 0.0;
        let live = self.live_prefix(t);
        for (&e, &c) in live.ends.iter().zip(live.counts) {
            let age = (t - e) as f64;
            // Round the age down to the (1+δ) grid (grid index 0 = age 1).
            let idx = (age.ln() / base).floor().max(0.0);
            let q_age = (base * idx).exp().round().max(1.0) as Time;
            total += c as f64 * self.decay.weight(q_age.min(t - e));
        }
        total
    }

    /// Storage bits for the quantized-boundary representation: per
    /// bucket, a `(1+δ)` grid index over ages up to `max_age` —
    /// `⌈log₂ log_{1+δ}(max_age)⌉` bits — plus the exact count (compare
    /// with [`StorageAccounting::storage_bits`], which charges a full
    /// `log₂ N` timestamp per bucket).
    pub fn quantized_boundary_bits(&self, delta: f64, max_age: Time) -> u64 {
        let grid_points = ((max_age.max(2) as f64).ln() / (1.0 + delta).ln()).ceil();
        let idx_bits = td_decay::storage::bits_for_count(grid_points as u64);
        self.sketch
            .columns()
            .counts
            .iter()
            .map(|&c| idx_bits + td_decay::storage::bits_for_count(c))
            .sum()
    }
}

impl<G: DecayFunction, S: WindowSketch + StorageAccounting> StorageAccounting for CascadedEh<G, S> {
    fn storage_bits(&self) -> u64 {
        self.sketch.storage_bits()
    }
}

/// Checkpoint tag for [`CascadedEh`] over a [`DominationEh`] sketch.
const TAG_CEH: u8 = 7;

impl<G: DecayFunction> td_decay::checkpoint::Checkpoint for CascadedEh<G, DominationEh> {
    fn save_checkpoint(&self) -> Vec<u8> {
        use td_decay::checkpoint::{fingerprint, CheckpointWriter};
        let mut w = CheckpointWriter::new(TAG_CEH);
        w.put_u64(fingerprint(&self.decay.describe())); // configuration pin
        w.put_bytes(&self.sketch.save_checkpoint());
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), td_decay::RestoreError> {
        use td_decay::checkpoint::{fingerprint, CheckpointReader, RestoreError};
        let mut r = CheckpointReader::open(bytes, TAG_CEH)?;
        let fp = r.get_u64()?;
        if fp != fingerprint(&self.decay.describe()) {
            return Err(RestoreError::Invariant(format!(
                "decay mismatch: receiver is {}",
                self.decay.describe()
            )));
        }
        let inner = r.get_bytes()?.to_vec();
        r.finish()?;
        self.sketch.restore_checkpoint(&inner)
    }
}

impl<G: DecayFunction> td_decay::StreamAggregate for CascadedEh<G, DominationEh> {
    fn observe(&mut self, t: Time, f: u64) {
        CascadedEh::observe(self, t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        CascadedEh::observe_batch(self, items)
    }
    fn batched_ingest_amortizes(&self) -> bool {
        true // per-level clock advance shared per distinct tick
    }
    fn advance(&mut self, t: Time) {
        CascadedEh::advance(self, t)
    }
    fn query(&self, t: Time) -> f64 {
        CascadedEh::query(self, t)
    }
    fn merge_from(&mut self, other: &Self) {
        CascadedEh::merge_from(self, other)
    }
    fn unit_weight_cap(&self) -> f64 {
        self.decay.weight_cap()
    }
    fn error_bound(&self) -> td_decay::ErrorBound {
        // Theorem 1's one-sided [S, (1+ε)S] envelope; a k-site union
        // widens the over-count side to k·ε (the under side stays 0:
        // every item is represented by a bucket at least as old). The
        // chunked weight kernel perturbs each bucket weight by at most
        // its documented relative error κ (DESIGN.md §12), so both
        // sides widen by κ — ten-plus decimal orders below any ε.
        let kappa = self.decay.kernel_relative_error();
        let eps = self.sketch.sites() as f64 * self.sketch.epsilon();
        td_decay::ErrorBound {
            lower: kappa,
            upper: eps + kappa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_counters::ExactDecayedSum;
    use td_decay::{ClosureDecay, Exponential, Polynomial, SlidingWindow, TableDecay};
    use td_eh::ClassicEh;

    /// The paper's §4.2 worked example: consecutive weights 8, 5, 3, 2.
    /// With one item per tick at t = 0..4 and T = 4, the decaying count
    /// is 8f(3) + 5f(2) + 3f(1) + 2f(0); with single-tick buckets the
    /// cascaded estimate must be exact.
    #[test]
    fn paper_eq4_worked_example() {
        let g = TableDecay::new(vec![8.0, 8.0, 5.0, 3.0, 2.0], 0.0).unwrap();
        let mut ceh = CascadedEh::new(g.clone(), 0.5);
        let f = [1u64, 0, 1, 1]; // f(0), f(1), f(2), f(3)
        for (t, &v) in f.iter().enumerate() {
            ceh.observe(t as Time, v);
        }
        let want = 8.0 * f[3] as f64 + 5.0 * f[2] as f64 + 3.0 * f[1] as f64 + 2.0 * f[0] as f64;
        assert_eq!(ceh.query(4), want);
    }

    /// The example's explicit grouping: with buckets {f(0),f(1)},
    /// {f(2)}, {f(3)} the estimate is 2[f0..f3] + (5−2)[f2+f3] +
    /// (8−5)[f3] in suffix form, which must equal the collapsed
    /// per-bucket form Σ C_j·g(T−e_j).
    #[test]
    fn paper_eq4_grouping_identity() {
        let g = TableDecay::new(vec![8.0, 8.0, 5.0, 3.0, 2.0], 0.0).unwrap();
        // Per-bucket: 2·g(4−1=3)... bucket [0,1] ends at 1 → age 3;
        // bucket [2] age 2; bucket [3] age 1.
        let per_bucket = 2.0 * g.weight(3) + g.weight(2) + g.weight(1);
        // Suffix form: g(3)·D0 + (g(2)−g(3))·D1 + (g(1)−g(2))·D2 with
        // D0 = 4, D1 = 2, D2 = 1.
        let d = [4.0, 2.0, 1.0];
        let suffix = g.weight(3) * d[0]
            + (g.weight(2) - g.weight(3)) * d[1]
            + (g.weight(1) - g.weight(2)) * d[2];
        assert_eq!(per_bucket, suffix);
        assert_eq!(per_bucket, 19.0);
    }

    fn drive_and_audit<G: DecayFunction + Clone>(g: G, eps: f64, n: u64, seed: u64) {
        let mut ceh = CascadedEh::new(g.clone(), eps);
        let mut exact = ExactDecayedSum::new(g);
        let mut x = seed;
        for t in 1..=n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 4;
            ceh.observe(t, f);
            exact.observe(t, f);
            if t % 251 == 0 || t == n {
                let truth = exact.query(t + 1);
                let est = ceh.query(t + 1);
                assert!(
                    est >= truth * (1.0 - 1e-9),
                    "t={t}: est={est} < truth={truth}"
                );
                assert!(
                    est <= truth * (1.0 + eps) + 1e-9,
                    "t={t}: est={est} > (1+eps)·truth={truth}"
                );
            }
        }
    }

    #[test]
    fn one_sided_bound_polynomial() {
        drive_and_audit(Polynomial::new(1.0), 0.1, 4_000, 42);
        drive_and_audit(Polynomial::new(2.0), 0.05, 4_000, 43);
    }

    #[test]
    fn one_sided_bound_exponential() {
        drive_and_audit(Exponential::new(0.01), 0.1, 4_000, 44);
    }

    #[test]
    fn one_sided_bound_sliding_window() {
        drive_and_audit(SlidingWindow::new(256), 0.1, 4_000, 45);
    }

    #[test]
    fn one_sided_bound_staircase() {
        let stair = ClosureDecay::new(|age| match age {
            0..=9 => 1.0,
            10..=99 => 0.5,
            100..=999 => 0.1,
            _ => 0.01,
        })
        .with_name("STAIRCASE");
        drive_and_audit(stair, 0.1, 4_000, 46);
    }

    #[test]
    fn classic_sketch_for_binary_streams() {
        let g = Polynomial::new(1.5);
        let sketch = ClassicEh::new(0.05, None);
        let mut ceh = CascadedEh::with_sketch(g, sketch);
        let mut exact = ExactDecayedSum::new(g);
        let mut x = 7u64;
        for t in 1..=5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x.is_multiple_of(3) as u64;
            ceh.observe(t, f);
            exact.observe(t, f);
        }
        let (est, truth) = (ceh.query(5_001), exact.query(5_001));
        assert!(est >= truth * (1.0 - 1e-9), "{est} vs {truth}");
        assert!(est <= truth * 1.2, "{est} vs {truth}");
    }

    #[test]
    fn midpoint_estimator_is_closer_on_smooth_decay() {
        let g = Polynomial::new(1.0);
        let mut ceh = CascadedEh::new(g, 0.2);
        let mut exact = ExactDecayedSum::new(g);
        for t in 1..=10_000u64 {
            ceh.observe(t, 1);
            exact.observe(t, 1);
        }
        let truth = exact.query(10_001);
        let paper = ceh.query_with(10_001, CehEstimator::Paper);
        let mid = ceh.query_with(10_001, CehEstimator::Midpoint);
        assert!((mid - truth).abs() <= (paper - truth).abs());
    }

    #[test]
    fn quantized_ages_stay_one_sided_within_band() {
        // §5 closing remark: POLYD contribution error is a constant
        // factor of the boundary error.
        for alpha in [1.0, 2.0] {
            let g = Polynomial::new(alpha);
            let (eps, delta) = (0.1, 0.25);
            let mut ceh = CascadedEh::new(g, eps);
            let mut exact = ExactDecayedSum::new(g);
            let mut x = 5u64;
            for t in 1..=20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let f = x % 4;
                ceh.observe(t, f);
                exact.observe(t, f);
            }
            let truth = exact.query(20_001);
            let est = ceh.query_quantized(20_001, delta);
            let band = (1.0 + eps) * (1.0 + delta).powf(alpha);
            assert!(
                est >= truth * (1.0 - 1e-9),
                "alpha={alpha}: {est} < {truth}"
            );
            assert!(
                est <= truth * band + 1e-9,
                "alpha={alpha}: {est} > {band}*{truth}"
            );
            // And the boundary storage is far below the full-timestamp
            // accounting.
            use td_decay::storage::StorageAccounting;
            assert!(
                ceh.quantized_boundary_bits(delta, 1 << 40) < ceh.storage_bits(),
                "quantized boundaries must be cheaper"
            );
        }
    }

    #[test]
    fn query_many_matches_individual_queries() {
        let mut ceh = CascadedEh::new(Polynomial::new(1.0), 0.1);
        for t in 1..=1_000u64 {
            ceh.observe(t, 1 + t % 3);
        }
        let g1 = Polynomial::new(1.0);
        let g2 = Exponential::new(0.01);
        let g3 = SlidingWindow::new(100);
        let many = ceh.query_many(1_001, &[&g1, &g2, &g3]);
        let one1 = ceh.query_with(1_001, CehEstimator::Paper);
        assert!((many[0] - one1).abs() < 1e-9);
        assert!(many[1] > 0.0 && many[2] > 0.0);
    }

    #[test]
    fn merge_from_distributed_sites() {
        let g = Polynomial::new(1.0);
        let eps = 0.05;
        let mut whole = CascadedEh::new(g, eps);
        let mut a = CascadedEh::new(g, eps);
        let mut b = CascadedEh::new(g, eps);
        let mut exact = ExactDecayedSum::new(g);
        let mut x = 21u64;
        for t in 1..=8_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 5;
            whole.observe(t, f);
            exact.observe(t, f);
            if x.is_multiple_of(2) {
                a.observe(t, f);
            } else {
                b.observe(t, f);
            }
        }
        a.merge_from(&b);
        let truth = exact.query(8_001);
        let est = a.query(8_001);
        // Two sites → 2ε one-sided bound.
        assert!(est >= truth * (1.0 - 1e-9), "{est} < {truth}");
        assert!(est <= truth * (1.0 + 2.0 * eps) + 1e-9, "{est} vs {truth}");
    }

    #[test]
    fn sliwin_horizon_wires_expiry() {
        let mut ceh = CascadedEh::new(SlidingWindow::new(100), 0.1);
        for t in 1..=100_000u64 {
            ceh.observe(t, 1);
        }
        // The sketch must not retain the whole history.
        assert!(ceh.sketch().live_total() <= 300);
    }

    #[test]
    fn empty_query_is_zero() {
        let ceh = CascadedEh::new(Polynomial::new(1.0), 0.1);
        assert_eq!(ceh.query(10), 0.0);
    }

    #[test]
    fn excludes_items_at_query_time() {
        let mut ceh = CascadedEh::new(Polynomial::new(1.0), 0.1);
        ceh.observe(5, 3);
        assert_eq!(ceh.query(5), 0.0);
        assert!(ceh.query(6) > 0.0);
    }
}
