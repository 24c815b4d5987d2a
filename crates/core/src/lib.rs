//! The unified `timedecay` API: time-decaying stream aggregates with
//! automatic, storage-optimal backend selection.
//!
//! This crate ties the whole workspace together. Pick a decay function,
//! build a [`DecayedSum`] (or one of the composite aggregates re-exported
//! from `td-aggregates`), feed `(time, value)` pairs, query any time —
//! the paper's decision table (§8) picks the cheapest backend that still
//! carries a `(1+ε)` guarantee:
//!
//! | decay class | backend | storage bits |
//! |---|---|---|
//! | constant (no decay) | exact counter | `Θ(log n)` |
//! | `EXPD_λ` | quantized EXPD counter (Eq. 1) | `Θ(log N)` |
//! | `SLIWIN_W` | cascaded EH | `Θ(ε⁻¹ log² N)` |
//! | ratio-monotone (e.g. `POLYD_α`) | WBMH + approx counters | `O(log N·log log N)` |
//! | anything else | cascaded EH (Thm 1) | `O(ε⁻¹ log² N)` |
//!
//! ```
//! use td_core::{DecayedSum, Polynomial};
//!
//! let mut sum = DecayedSum::builder(Polynomial::new(1.0))
//!     .epsilon(0.05)
//!     .build();
//! for t in 1..=1_000u64 {
//!     sum.observe(t, 1);
//! }
//! let est = sum.query(1_001);
//! let exact: f64 = (1..=1000u64).map(|t| 1.0 / (1001 - t) as f64).sum();
//! assert!((est - exact).abs() <= 0.06 * exact);
//! assert_eq!(sum.backend_name(), "wbmh");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use td_counters::{ExpCounter, PolyExpCounter, QuantizedExpCounter};
use td_decay::storage::bits_for_count;

pub use td_aggregates::{
    DecayedAverage, DecayedCount, DecayedLpNorm, DecayedQuantile, DecayedSampler, DecayedVariance,
};
pub use td_ceh::{CascadedEh, CehEstimator};
pub use td_counters as counters;
pub use td_decay::{
    ClosureDecay, Constant, DecayClass, DecayFunction, Exponential, LogDecay, MaxOf,
    PolyExponential, Polynomial, ProductOf, RegionSchedule, Scaled, ShiftedPolynomial,
    SlidingWindow, StorageAccounting, StreamAggregate, SumOf, TableDecay, Time,
};
pub use td_eh::{ClassicEh, DominationEh, WindowSketch};
pub use td_sketch as sketch;
pub use td_wbmh::{Wbmh, WbmhEstimator};

/// Which summation backend a [`DecayedSum`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Pick by the decay function's [`DecayClass`] (the §8 table).
    #[default]
    Auto,
    /// Force the cascaded Exponential Histogram (works for any decay).
    ForceCeh,
    /// Force the weight-based merging histogram (requires a
    /// ratio-monotone decay; the builder panics otherwise).
    ForceWbmh,
    /// Force the exact store-everything baseline (for audits).
    ForceExact,
}

/// The decay function held by a [`DecayedSum`] backend: the closed
/// forms the §8 table dispatches on are stored *unboxed*, so their
/// weight evaluation — in particular the
/// [`DecayFunction::weight_batch`] query kernel — runs as a monomorphic
/// loop instead of one virtual call behind `Box<dyn DecayFunction>`;
/// everything else falls back to the boxed [`AnyDecay::Dyn`] variant
/// (still only one virtual call per *query* thanks to the batch
/// kernel).
pub enum AnyDecay {
    /// `g(x) = 1` (no decay).
    Constant(Constant),
    /// `g(x) = exp(-λx)` (EXPD).
    Exp(Exponential),
    /// `g(x) = 1` for `x <= W`, else 0 (SLIWIN).
    Sliding(SlidingWindow),
    /// `g(x) = x^k e^{-λx} / k!` (§3.4).
    PolyExp(PolyExponential),
    /// Any other decay, behind one level of virtual dispatch.
    Dyn(Box<dyn DecayFunction>),
}

impl AnyDecay {
    /// Wraps a boxed decay, unboxing it when its [`DecayClass`] names a
    /// closed form whose reconstruction is *bit-identical* to the
    /// original on a set of probe ages. The probe guards against
    /// wrappers (e.g. [`Scaled`]) whose class hints at the inner shape
    /// while the weights differ — those stay safely boxed.
    pub fn from_box(decay: Box<dyn DecayFunction>) -> Self {
        fn faithful(original: &dyn DecayFunction, rebuilt: &dyn DecayFunction) -> bool {
            const PROBES: [Time; 8] = [0, 1, 2, 3, 10, 100, 10_000, 1 << 30];
            PROBES
                .iter()
                .all(|&x| original.weight(x) == rebuilt.weight(x))
        }
        match decay.classify() {
            DecayClass::Constant if faithful(&*decay, &Constant) => AnyDecay::Constant(Constant),
            DecayClass::Exponential { lambda } => {
                let g = Exponential::new(lambda);
                if faithful(&*decay, &g) {
                    AnyDecay::Exp(g)
                } else {
                    AnyDecay::Dyn(decay)
                }
            }
            DecayClass::SlidingWindow { window } => {
                let g = SlidingWindow::new(window);
                if faithful(&*decay, &g) {
                    AnyDecay::Sliding(g)
                } else {
                    AnyDecay::Dyn(decay)
                }
            }
            DecayClass::PolyExponential { degree, lambda } => {
                let g = PolyExponential::new(degree, lambda);
                if faithful(&*decay, &g) {
                    AnyDecay::PolyExp(g)
                } else {
                    AnyDecay::Dyn(decay)
                }
            }
            _ => AnyDecay::Dyn(decay),
        }
    }
}

impl DecayFunction for AnyDecay {
    fn weight(&self, age: Time) -> f64 {
        match self {
            AnyDecay::Constant(g) => g.weight(age),
            AnyDecay::Exp(g) => g.weight(age),
            AnyDecay::Sliding(g) => g.weight(age),
            AnyDecay::PolyExp(g) => g.weight(age),
            AnyDecay::Dyn(g) => g.weight(age),
        }
    }
    // One match, then the concrete family's monomorphic kernel.
    fn weight_batch(&self, ages: &[Time], out: &mut [f64]) {
        match self {
            AnyDecay::Constant(g) => g.weight_batch(ages, out),
            AnyDecay::Exp(g) => g.weight_batch(ages, out),
            AnyDecay::Sliding(g) => g.weight_batch(ages, out),
            AnyDecay::PolyExp(g) => g.weight_batch(ages, out),
            AnyDecay::Dyn(g) => g.weight_batch(ages, out),
        }
    }
    fn horizon(&self) -> Option<Time> {
        match self {
            AnyDecay::Constant(g) => g.horizon(),
            AnyDecay::Exp(g) => g.horizon(),
            AnyDecay::Sliding(g) => g.horizon(),
            AnyDecay::PolyExp(g) => g.horizon(),
            AnyDecay::Dyn(g) => g.horizon(),
        }
    }
    fn classify(&self) -> DecayClass {
        match self {
            AnyDecay::Constant(g) => g.classify(),
            AnyDecay::Exp(g) => g.classify(),
            AnyDecay::Sliding(g) => g.classify(),
            AnyDecay::PolyExp(g) => g.classify(),
            AnyDecay::Dyn(g) => g.classify(),
        }
    }
    fn describe(&self) -> String {
        match self {
            AnyDecay::Constant(g) => g.describe(),
            AnyDecay::Exp(g) => g.describe(),
            AnyDecay::Sliding(g) => g.describe(),
            AnyDecay::PolyExp(g) => g.describe(),
            AnyDecay::Dyn(g) => g.describe(),
        }
    }
}

/// The selected backend (one variant per row of the §8 table).
enum Backend {
    /// Constant decay: a plain exact counter. Tracks the mass observed
    /// at the newest tick separately so `query(T)` can exclude items at
    /// `T` itself (§2.1) exactly like every decaying backend does.
    Plain {
        /// Saturating running total of everything observed.
        total: u64,
        /// Newest observation tick.
        last_t: Time,
        /// Mass observed exactly at `last_t`.
        at_last: u64,
    },
    /// Exponential decay: the Eq. 1 counter (quantized to the precision
    /// the target ε warrants).
    Exp(QuantizedExpCounter),
    /// Polyexponential decay (§3.4): k + 1 pipelined counters, exact.
    PolyExp(PolyExpCounter),
    /// Cascaded EH (Theorem 1).
    Ceh(CascadedEh<AnyDecay>),
    /// Weight-based merging histogram (§5) with approximate counters.
    Wbmh(Box<Wbmh<AnyDecay>>),
    /// Exact baseline.
    Exact(td_counters::ExactDecayedSum<AnyDecay>),
}

/// Builder for [`DecayedSum`].
///
/// Defaults: `epsilon = 0.05`, `max_age = 2^40` (the WBMH schedule
/// horizon), `backend = Auto`.
pub struct DecayedSumBuilder {
    decay: Box<dyn DecayFunction>,
    epsilon: f64,
    max_age: Time,
    choice: BackendChoice,
}

impl DecayedSumBuilder {
    /// Target relative error ε (default 0.05).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1]`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0,1], got {epsilon}"
        );
        self.epsilon = epsilon;
        self
    }

    /// The operational lifetime for WBMH schedules (default `2^40`
    /// ticks). Streams longer than this still work but old buckets stop
    /// merging; see [`Wbmh::new`].
    pub fn max_age(mut self, max_age: Time) -> Self {
        assert!(max_age > 0, "max_age must be positive");
        self.max_age = max_age;
        self
    }

    /// Override the automatic backend selection.
    pub fn backend(mut self, choice: BackendChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Builds the sum.
    ///
    /// # Panics
    ///
    /// Panics if [`BackendChoice::ForceWbmh`] is combined with a decay
    /// that is not ratio-monotone.
    pub fn build(self) -> DecayedSum {
        let class = self.decay.classify();
        let backend = match (self.choice, class) {
            (BackendChoice::ForceExact, _) => Backend::Exact(td_counters::ExactDecayedSum::new(
                AnyDecay::from_box(self.decay),
            )),
            (BackendChoice::ForceCeh, _) => Backend::Ceh(CascadedEh::new(
                AnyDecay::from_box(self.decay),
                self.epsilon,
            )),
            (BackendChoice::ForceWbmh, _) => Backend::Wbmh(Box::new(Wbmh::with_approx_counts(
                AnyDecay::from_box(self.decay),
                self.epsilon,
                self.max_age,
                self.epsilon,
            ))),
            (BackendChoice::Auto, DecayClass::Constant) => Backend::Plain {
                total: 0,
                last_t: 0,
                at_last: 0,
            },
            (BackendChoice::Auto, DecayClass::Exponential { lambda }) => {
                // Quantize to the precision the ε target warrants: the
                // relative drift per operation is ~2^{1−m}.
                let mantissa = ((2.0 / self.epsilon).log2().ceil() as u32 + 8).clamp(8, 52);
                Backend::Exp(QuantizedExpCounter::new(Exponential::new(lambda), mantissa))
            }
            (BackendChoice::Auto, DecayClass::RatioMonotone) => {
                Backend::Wbmh(Box::new(Wbmh::with_approx_counts(
                    AnyDecay::from_box(self.decay),
                    self.epsilon,
                    self.max_age,
                    self.epsilon,
                )))
            }
            (BackendChoice::Auto, DecayClass::PolyExponential { degree, lambda }) => {
                Backend::PolyExp(PolyExpCounter::new(degree, lambda))
            }
            (BackendChoice::Auto, DecayClass::SlidingWindow { .. }) => Backend::Ceh(
                CascadedEh::new(AnyDecay::from_box(self.decay), self.epsilon),
            ),
            (BackendChoice::Auto, DecayClass::General) => {
                // The Theorem 1 guarantee needs a genuinely non-increasing
                // weight function; audit custom decays before trusting
                // them to the histogram (fail loudly, not silently wrong).
                assert!(
                    td_decay::properties::is_non_increasing(&self.decay, self.max_age.min(4096),),
                    "{} is not non-increasing — not a decay function in the \
                     paper's §2 sense (polyexponential shapes have their own \
                     backend via DecayClass::PolyExponential)",
                    self.decay.describe()
                );
                Backend::Ceh(CascadedEh::new(
                    AnyDecay::from_box(self.decay),
                    self.epsilon,
                ))
            }
        };
        DecayedSum { backend }
    }
}

fn self_backend_name(b: &Backend) -> &'static str {
    match b {
        Backend::Plain { .. } => "plain",
        Backend::Exp(_) => "exp-counter",
        Backend::PolyExp(_) => "polyexp-pipeline",
        Backend::Ceh(_) => "ceh",
        Backend::Wbmh(_) => "wbmh",
        Backend::Exact(_) => "exact",
    }
}

/// A time-decaying sum (Problem 2.1) with automatic backend selection.
///
/// See the crate docs for the selection table and an end-to-end
/// example.
pub struct DecayedSum {
    backend: Backend,
}

impl DecayedSum {
    /// Starts building a decayed sum for `decay`.
    pub fn builder<G: DecayFunction + 'static>(decay: G) -> DecayedSumBuilder {
        DecayedSumBuilder {
            decay: Box::new(decay),
            epsilon: 0.05,
            max_age: 1 << 40,
            choice: BackendChoice::Auto,
        }
    }

    /// Convenience: build with defaults.
    pub fn new<G: DecayFunction + 'static>(decay: G) -> Self {
        Self::builder(decay).build()
    }

    /// Ingests an item of value `f` at time `t` (non-decreasing `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previous observation.
    pub fn observe(&mut self, t: Time, f: u64) {
        match &mut self.backend {
            // Saturate rather than wrap/panic: a landmark counter fed
            // past u64::MAX pins at the ceiling (queries stay monotone).
            Backend::Plain {
                total,
                last_t,
                at_last,
            } => {
                // Same ordered-arrival contract as every other backend:
                // silently folding out-of-order mass into `at_last`
                // would wrongly hide it from `query(last_t)`.
                assert!(t >= *last_t, "time went backwards: {t} < {last_t}");
                *total = total.saturating_add(f);
                if t > *last_t {
                    *last_t = t;
                    *at_last = f;
                } else {
                    *at_last = at_last.saturating_add(f);
                }
            }
            Backend::Exp(c) => c.observe(t, f),
            Backend::PolyExp(c) => c.observe(t, f),
            Backend::Ceh(c) => c.observe(t, f),
            Backend::Wbmh(w) => w.observe(t, f),
            Backend::Exact(e) => e.observe(t, f),
        }
    }

    /// Ingests a burst of `(time, value)` items sorted by non-decreasing
    /// time, via the selected backend's amortized batch path (same end
    /// state as sequential [`observe`](Self::observe) calls).
    ///
    /// # Panics
    ///
    /// Panics if any time precedes its predecessor.
    pub fn observe_batch(&mut self, items: &[(Time, u64)]) {
        match &mut self.backend {
            Backend::Plain {
                total,
                last_t,
                at_last,
            } => {
                for &(t, f) in items {
                    assert!(t >= *last_t, "time went backwards: {t} < {last_t}");
                    *total = total.saturating_add(f);
                    if t > *last_t {
                        *last_t = t;
                        *at_last = f;
                    } else {
                        *at_last = at_last.saturating_add(f);
                    }
                }
            }
            Backend::Exp(c) => c.observe_batch(items),
            Backend::PolyExp(c) => c.observe_batch(items),
            Backend::Ceh(c) => c.observe_batch(items),
            Backend::Wbmh(w) => w.observe_batch(items),
            Backend::Exact(e) => e.observe_batch(items),
        }
    }

    /// The decaying-sum estimate `S'_g(T)` (items at `T` excluded,
    /// §2.1).
    pub fn query(&self, t: Time) -> f64 {
        match &self.backend {
            // §2.1: items at the query time itself are not yet visible,
            // even under constant decay.
            Backend::Plain {
                total,
                last_t,
                at_last,
            } => {
                if t > *last_t {
                    *total as f64
                } else {
                    total.saturating_sub(*at_last) as f64
                }
            }
            Backend::Exp(c) => c.query(t),
            Backend::PolyExp(c) => c.query(t),
            Backend::Ceh(c) => c.query(t),
            Backend::Wbmh(w) => w.query(t),
            Backend::Exact(e) => e.query(t),
        }
    }

    /// Merges another sum's state into this one — the distributed-
    /// streams operation, available when both sums use the same backend
    /// and configuration. WBMH backends must be [`DecayedSum::advance`]d
    /// to the same tick first; histogram backends widen their error to
    /// `k·ε` after merging `k` sites (WBMH keeps `ε`; counters stay
    /// exact) — see the per-backend `merge_from` docs.
    ///
    /// # Panics
    ///
    /// Panics if the backends or their configurations differ.
    pub fn merge_from(&mut self, other: &DecayedSum) {
        match (&mut self.backend, &other.backend) {
            (
                Backend::Plain {
                    total,
                    last_t,
                    at_last,
                },
                Backend::Plain {
                    total: ot,
                    last_t: olt,
                    at_last: oal,
                },
            ) => {
                *total = total.saturating_add(*ot);
                match (*olt).cmp(last_t) {
                    std::cmp::Ordering::Greater => {
                        *last_t = *olt;
                        *at_last = *oal;
                    }
                    std::cmp::Ordering::Equal => *at_last = at_last.saturating_add(*oal),
                    std::cmp::Ordering::Less => {}
                }
            }
            (Backend::Exp(a), Backend::Exp(b)) => a.merge_from(b),
            (Backend::PolyExp(a), Backend::PolyExp(b)) => a.merge_from(b),
            (Backend::Ceh(a), Backend::Ceh(b)) => a.merge_from(b),
            (Backend::Wbmh(a), Backend::Wbmh(b)) => a.merge_from(b),
            (Backend::Exact(a), Backend::Exact(b)) => a.merge_from(b),
            _ => panic!(
                "cannot merge different backends ({} vs {})",
                self_backend_name(&self.backend),
                self_backend_name(&other.backend)
            ),
        }
    }

    /// Advances the clock to `t` without ingesting, propagated to every
    /// backend: WBMH runs its deterministic seal/merge schedule, the
    /// CEH and exact backends expire horizon-passed state (so storage
    /// shrinks during ingest silence), and the counters fold their
    /// pending tick forward. Only the plain landmark counter is
    /// genuinely clock-free.
    pub fn advance(&mut self, t: Time) {
        match &mut self.backend {
            Backend::Plain {
                last_t, at_last, ..
            } => {
                // Advancing past the newest tick makes its mass
                // queryable (it is now strictly in the past).
                if t > *last_t {
                    *last_t = t;
                    *at_last = 0;
                }
            }
            Backend::Exp(c) => c.advance(t),
            Backend::PolyExp(c) => c.advance(t),
            Backend::Ceh(c) => c.advance(t),
            Backend::Wbmh(w) => w.advance(t),
            Backend::Exact(e) => e.advance(t),
        }
    }

    /// The summary backend answers are delegated to (`None` for the
    /// plain constant-decay counter).
    fn delegate(&self) -> Option<&dyn StreamAggregate> {
        match &self.backend {
            Backend::Plain { .. } => None,
            Backend::Exp(c) => Some(c),
            Backend::PolyExp(c) => Some(c),
            Backend::Ceh(c) => Some(c),
            Backend::Wbmh(w) => Some(&**w),
            Backend::Exact(e) => Some(e),
        }
    }

    /// Which backend was selected: `"plain"`, `"exp-counter"`, `"ceh"`,
    /// `"wbmh"`, or `"exact"`.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Plain { .. } => "plain",
            Backend::Exp(_) => "exp-counter",
            Backend::PolyExp(_) => "polyexp-pipeline",
            Backend::Ceh(_) => "ceh",
            Backend::Wbmh(_) => "wbmh",
            Backend::Exact(_) => "exact",
        }
    }
}

impl StreamAggregate for DecayedSum {
    fn observe(&mut self, t: Time, f: u64) {
        DecayedSum::observe(self, t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        DecayedSum::observe_batch(self, items)
    }
    fn batched_ingest_amortizes(&self) -> bool {
        match &self.backend {
            Backend::Plain { .. } | Backend::Exp(_) => false,
            Backend::PolyExp(c) => c.batched_ingest_amortizes(),
            Backend::Ceh(c) => c.batched_ingest_amortizes(),
            Backend::Wbmh(w) => w.batched_ingest_amortizes(),
            Backend::Exact(e) => e.batched_ingest_amortizes(),
        }
    }
    fn advance(&mut self, t: Time) {
        DecayedSum::advance(self, t)
    }
    fn query(&self, t: Time) -> f64 {
        DecayedSum::query(self, t)
    }
    fn merge_from(&mut self, other: &Self) {
        DecayedSum::merge_from(self, other)
    }
    fn error_bound(&self) -> td_decay::ErrorBound {
        self.delegate()
            .map_or_else(td_decay::ErrorBound::exact, |b| b.error_bound())
    }
    fn unit_weight_cap(&self) -> f64 {
        self.delegate().map_or(1.0, |b| b.unit_weight_cap())
    }
}

impl DecayedCount for DecayedSum {
    fn observe(&mut self, t: Time, f: u64) {
        DecayedSum::observe(self, t, f);
    }
    fn query(&self, t: Time) -> f64 {
        DecayedSum::query(self, t)
    }
}

impl StorageAccounting for DecayedSum {
    fn storage_bits(&self) -> u64 {
        match (&self.backend, self.delegate()) {
            (Backend::Plain { total, .. }, _) => bits_for_count(*total),
            (_, b) => b.map_or(0, |b| b.storage_bits()),
        }
    }
}

/// Checkpoint tag for [`DecayedSum`].
const TAG_DECAYED_SUM: u8 = 9;

impl td_decay::checkpoint::Checkpoint for DecayedSum {
    fn save_checkpoint(&self) -> Vec<u8> {
        use td_decay::checkpoint::CheckpointWriter;
        let mut w = CheckpointWriter::new(TAG_DECAYED_SUM);
        // One byte selects the backend variant; delegating backends nest
        // their own sealed checkpoint so corruption inside the payload is
        // still caught by the inner checksum.
        match &self.backend {
            Backend::Plain {
                total,
                last_t,
                at_last,
            } => {
                w.put_u8(0);
                w.put_u64(*total);
                w.put_u64(*last_t);
                w.put_u64(*at_last);
            }
            Backend::Exp(c) => {
                w.put_u8(1);
                w.put_bytes(&c.save_checkpoint());
            }
            Backend::PolyExp(c) => {
                w.put_u8(2);
                w.put_bytes(&c.save_checkpoint());
            }
            Backend::Ceh(c) => {
                w.put_u8(3);
                w.put_bytes(&c.save_checkpoint());
            }
            Backend::Wbmh(h) => {
                w.put_u8(4);
                w.put_bytes(&h.save_checkpoint());
            }
            Backend::Exact(e) => {
                w.put_u8(5);
                w.put_bytes(&e.save_checkpoint());
            }
        }
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), td_decay::RestoreError> {
        use td_decay::checkpoint::{CheckpointReader, RestoreError};
        let mut r = CheckpointReader::open(bytes, TAG_DECAYED_SUM)?;
        let variant = r.get_u8()?;
        match (&mut self.backend, variant) {
            (
                Backend::Plain {
                    total,
                    last_t,
                    at_last,
                },
                0,
            ) => {
                let t = r.get_u64()?;
                let lt = r.get_u64()?;
                let al = r.get_u64()?;
                if al > t {
                    return Err(RestoreError::Invariant(format!(
                        "at-tick mass {al} exceeds total {t}"
                    )));
                }
                r.finish()?;
                *total = t;
                *last_t = lt;
                *at_last = al;
                Ok(())
            }
            (Backend::Exp(c), 1) => {
                let inner = r.get_bytes()?.to_vec();
                r.finish()?;
                c.restore_checkpoint(&inner)
            }
            (Backend::PolyExp(c), 2) => {
                let inner = r.get_bytes()?.to_vec();
                r.finish()?;
                c.restore_checkpoint(&inner)
            }
            (Backend::Ceh(c), 3) => {
                let inner = r.get_bytes()?.to_vec();
                r.finish()?;
                c.restore_checkpoint(&inner)
            }
            (Backend::Wbmh(h), 4) => {
                let inner = r.get_bytes()?.to_vec();
                r.finish()?;
                h.restore_checkpoint(&inner)
            }
            (Backend::Exact(e), 5) => {
                let inner = r.get_bytes()?.to_vec();
                r.finish()?;
                e.restore_checkpoint(&inner)
            }
            (backend, v) => Err(RestoreError::Invariant(format!(
                "backend mismatch: receiver is {}, checkpoint variant {v}",
                self_backend_name(backend)
            ))),
        }
    }
}

// Keep the plain (f64) exponential counter exported for users who want
// the raw Eq. 1 recurrence without quantization.
pub use td_counters::ExpCounter as RawExpCounter;
const _: fn() = || {
    // Compile-time check that the raw counter stays object-compatible
    // with the aggregate backend trait.
    fn assert_impl<T: DecayedCount>() {}
    assert_impl::<ExpCounter>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use td_counters::ExactDecayedSum;

    #[test]
    fn auto_selection_follows_the_table() {
        assert_eq!(DecayedSum::new(Constant).backend_name(), "plain");
        assert_eq!(
            DecayedSum::new(Exponential::new(0.1)).backend_name(),
            "exp-counter"
        );
        assert_eq!(
            DecayedSum::new(SlidingWindow::new(100)).backend_name(),
            "ceh"
        );
        assert_eq!(DecayedSum::new(Polynomial::new(2.0)).backend_name(), "wbmh");
        assert_eq!(
            DecayedSum::new(ClosureDecay::new(|a| 1.0 / (1.0 + (a as f64).sqrt()))).backend_name(),
            "ceh"
        );
    }

    #[test]
    fn polyexp_routes_to_pipeline_and_is_exact() {
        use td_decay::PolyExponential;
        let g = PolyExponential::new(2, 0.05);
        let mut s = DecayedSum::new(g);
        assert_eq!(s.backend_name(), "polyexp-pipeline");
        let mut exact = ExactDecayedSum::new(g);
        for t in 1..=2_000u64 {
            let f = 1 + t % 4;
            s.observe(t, f);
            exact.observe(t, f);
        }
        let (a, b) = (s.query(2_001), exact.query(2_001));
        assert!((a - b).abs() <= 1e-6 * b.max(1.0), "{a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "not non-increasing")]
    fn auto_rejects_increasing_closure() {
        let bad = ClosureDecay::new(|age| age as f64);
        let _ = DecayedSum::new(bad);
    }

    #[test]
    fn force_overrides() {
        let s = DecayedSum::builder(Polynomial::new(1.0))
            .backend(BackendChoice::ForceCeh)
            .build();
        assert_eq!(s.backend_name(), "ceh");
        let s = DecayedSum::builder(Polynomial::new(1.0))
            .backend(BackendChoice::ForceExact)
            .build();
        assert_eq!(s.backend_name(), "exact");
    }

    #[test]
    #[should_panic(expected = "not ratio-monotone")]
    fn force_wbmh_rejects_sliding_window() {
        let _ = DecayedSum::builder(SlidingWindow::new(10))
            .backend(BackendChoice::ForceWbmh)
            .build();
    }

    fn audit<G: DecayFunction + Clone + 'static>(g: G, eps: f64, band: f64) {
        let mut s = DecayedSum::builder(g.clone()).epsilon(eps).build();
        let mut exact = ExactDecayedSum::new(g);
        let mut x = 77u64;
        for t in 1..=3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 4;
            s.observe(t, f);
            exact.observe(t, f);
        }
        let (est, truth) = (s.query(3_001), exact.query(3_001));
        assert!(
            (est - truth).abs() <= band * truth + 1e-9,
            "{}: {est} vs {truth}",
            s.backend_name()
        );
    }

    #[test]
    fn every_auto_backend_is_accurate() {
        audit(Exponential::new(0.01), 0.05, 0.05);
        audit(SlidingWindow::new(512), 0.05, 0.05);
        audit(Polynomial::new(1.0), 0.05, 0.15); // ε band × count ladder
        audit(Constant, 0.05, 1e-9);
    }

    #[test]
    fn storage_ordering_matches_the_paper() {
        // For polynomial decay over the same stream: exp-counter is not
        // applicable, but WBMH must beat CEH, and both must beat exact.
        let g = Polynomial::new(1.0);
        let mk = |choice| {
            let mut s = DecayedSum::builder(g).epsilon(0.1).backend(choice).build();
            for t in 1..=20_000u64 {
                s.observe(t, 1);
            }
            StorageAccounting::storage_bits(&s)
        };
        let wbmh = mk(BackendChoice::Auto);
        let ceh = mk(BackendChoice::ForceCeh);
        let exact = mk(BackendChoice::ForceExact);
        assert!(wbmh < ceh, "wbmh={wbmh}, ceh={ceh}");
        assert!(ceh < exact, "ceh={ceh}, exact={exact}");
    }

    #[test]
    fn merge_from_same_backend() {
        // WBMH route.
        let g = Polynomial::new(1.0);
        let mk = || DecayedSum::builder(g).epsilon(0.1).build();
        let mut a = mk();
        let mut b = mk();
        let mut exact = ExactDecayedSum::new(g);
        for t in 1..=3_000u64 {
            let f = 1 + t % 3;
            exact.observe(t, f);
            if t % 2 == 0 {
                a.observe(t, f);
                b.advance(t);
            } else {
                b.observe(t, f);
                a.advance(t);
            }
        }
        a.advance(3_001);
        b.advance(3_001);
        a.merge_from(&b);
        let (est, truth) = (a.query(3_001), exact.query(3_001));
        assert!((est - truth).abs() <= 0.2 * truth, "{est} vs {truth}");

        // Exponential-counter route.
        let ge = Exponential::new(0.01);
        let mut ca = DecayedSum::new(ge);
        let mut cb = DecayedSum::new(ge);
        ca.observe(1, 10);
        cb.observe(5, 20);
        ca.merge_from(&cb);
        let want = 10.0 * ge.weight(9) + 20.0 * ge.weight(5);
        let got = ca.query(10);
        assert!((got - want).abs() <= 1e-3 * want, "{got} vs {want}");
    }

    #[test]
    #[should_panic(expected = "cannot merge different backends")]
    fn merge_from_rejects_backend_mismatch() {
        let mut a = DecayedSum::new(Exponential::new(0.1));
        let b = DecayedSum::new(Polynomial::new(1.0));
        a.merge_from(&b);
    }

    #[test]
    fn builder_validation() {
        let b = DecayedSum::builder(Polynomial::new(1.0)).epsilon(0.5);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn builder_rejects_bad_epsilon() {
        let _ = DecayedSum::builder(Polynomial::new(1.0)).epsilon(0.0);
    }

    #[test]
    fn plain_backend_saturates_instead_of_overflowing() {
        let mut s = DecayedSum::new(Constant);
        assert_eq!(s.backend_name(), "plain");
        s.observe(1, u64::MAX);
        s.observe(2, u64::MAX);
        s.observe(3, 7);
        // The running total pins at the ceiling; queries stay monotone
        // and finite rather than wrapping around to a tiny count.
        assert_eq!(s.query(4), u64::MAX as f64);
        // Merging two saturated sums also stays pinned.
        let mut other = DecayedSum::new(Constant);
        other.observe(1, u64::MAX);
        s.merge_from(&other);
        assert_eq!(s.query(5), u64::MAX as f64);
        // Batched ingest takes the same saturating path.
        let mut b = DecayedSum::new(Constant);
        b.observe_batch(&[(1, u64::MAX), (1, u64::MAX), (2, 3)]);
        assert_eq!(b.query(3), u64::MAX as f64);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn plain_backend_rejects_out_of_order_times() {
        let mut s = DecayedSum::new(Constant);
        assert_eq!(s.backend_name(), "plain");
        s.observe(10, 1);
        s.observe(5, 1);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn plain_backend_rejects_out_of_order_batch() {
        let mut s = DecayedSum::new(Constant);
        s.observe_batch(&[(10, 1), (5, 1)]);
    }

    #[test]
    fn advance_propagates_and_storage_shrinks() {
        // A sliding-window CEH full of items, then a long silent
        // period: `advance` must reach the underlying histogram so
        // expired buckets are dropped and the footprint shrinks without
        // any further `observe`.
        let mut s = DecayedSum::builder(SlidingWindow::new(100))
            .epsilon(0.1)
            .build();
        assert_eq!(s.backend_name(), "ceh");
        for t in 1..=5_000u64 {
            s.observe(t, 3);
        }
        let loaded = StorageAccounting::storage_bits(&s);
        s.advance(50_000);
        let drained = StorageAccounting::storage_bits(&s);
        assert!(
            drained < loaded,
            "storage did not shrink after advance: {drained} vs {loaded}"
        );
        assert_eq!(s.query(50_001), 0.0);

        // Same check on the exact baseline (its deque must prune).
        let mut e = DecayedSum::builder(SlidingWindow::new(100))
            .backend(BackendChoice::ForceExact)
            .build();
        for t in 1..=5_000u64 {
            e.observe(t, 3);
        }
        let loaded = StorageAccounting::storage_bits(&e);
        e.advance(50_000);
        assert!(StorageAccounting::storage_bits(&e) < loaded);
        assert_eq!(e.query(50_001), 0.0);
    }

    #[test]
    fn batched_ingest_matches_sequential_per_backend() {
        // Exact query equality for every backend the §8 table can
        // select: the batch path runs the same machinery once per
        // distinct tick, so estimates are identical, not merely close.
        let decays: Vec<Box<dyn Fn() -> DecayedSum>> = vec![
            Box::new(|| DecayedSum::new(Constant)),
            Box::new(|| DecayedSum::new(Exponential::new(0.05))),
            Box::new(|| DecayedSum::new(SlidingWindow::new(64))),
            Box::new(|| DecayedSum::new(Polynomial::new(1.5))),
            Box::new(|| DecayedSum::new(td_decay::PolyExponential::new(2, 0.03))),
            Box::new(|| {
                DecayedSum::builder(Polynomial::new(1.0))
                    .backend(BackendChoice::ForceExact)
                    .build()
            }),
        ];
        let mut items = Vec::new();
        let mut x = 9u64;
        let mut t = 0u64;
        for _ in 0..800 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += x % 3; // repeated ticks exercise coalescing
            items.push((t.max(1), x % 20));
        }
        for mk in &decays {
            let mut seq = mk();
            let mut bat = mk();
            for &(t, f) in &items {
                seq.observe(t, f);
            }
            bat.observe_batch(&items);
            let t_end = items.last().unwrap().0 + 1;
            let (a, b) = (seq.query(t_end), bat.query(t_end));
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "{}: {a} vs {b}",
                seq.backend_name()
            );
        }
    }

    #[test]
    fn any_decay_unboxes_closed_forms_but_not_wrappers() {
        use td_decay::Scaled;
        // Closed forms round-trip to monomorphic variants.
        assert!(matches!(
            AnyDecay::from_box(Box::new(Exponential::new(0.2))),
            AnyDecay::Exp(_)
        ));
        assert!(matches!(
            AnyDecay::from_box(Box::new(SlidingWindow::new(9))),
            AnyDecay::Sliding(_)
        ));
        // A scaled constant still classifies as `Constant` but weighs
        // `factor ≠ 1` — the faithfulness probe must keep it boxed
        // rather than silently replacing it with the unit constant.
        let unboxed = AnyDecay::from_box(Box::new(Scaled::new(Constant, 3.0)));
        assert!(matches!(unboxed, AnyDecay::Dyn(_)));
        assert_eq!(unboxed.weight(5), 3.0);
    }
}
