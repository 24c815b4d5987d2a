//! The unified [`StreamAggregate`] interface every backend implements.
//!
//! The paper develops one algorithm per decay family — the Eq. 1 EXPD
//! counter (§3.1), pipelined counters (§3.4), exponential histograms
//! (§3.2), cascaded EHs (Theorem 1), and WBMH (§5) — and this workspace
//! implements each in its own crate. `StreamAggregate` is the single
//! ingest/query surface they all share, so serving code can hold *any*
//! of them behind one generic bound and switch backends without
//! touching call sites.
//!
//! The trait's shape is driven by the stream-serving hot path:
//!
//! * [`observe_batch`](StreamAggregate::observe_batch) lets backends
//!   amortize per-item bookkeeping over a burst: same-tick mass is
//!   coalesced before it touches the structure, clock advancement and
//!   merge/canonicalize passes run once per distinct tick rather than
//!   once per item. Every backend guarantees batch ingestion leaves the
//!   summary in **exactly** the state sequential
//!   [`observe`](StreamAggregate::observe) calls would (bit-identical
//!   bucket lists for the histograms; the counters differ only by f64
//!   summation order, bounded by ~1e-15 relative).
//! * [`advance`](StreamAggregate::advance) moves the clock without
//!   observing mass, so expired state is reclaimed during ingest
//!   silence (satellite of §2.3's storage accounting).
//! * [`merge_from`](StreamAggregate::merge_from) is the distributed
//!   counterpart (§6): combine summaries of disjoint substreams.

use crate::func::Time;
use crate::storage::StorageAccounting;

/// The relative-error envelope a summary certifies for its
/// [`query`](StreamAggregate::query) answers.
///
/// An estimate `est` of a true decayed sum `v ≥ 0` satisfies the bound
/// when `v · (1 − lower) ≤ est ≤ v · (1 + upper)`. The paper's
/// guarantees map onto this shape directly: Theorem 1's cascaded EH
/// answers in `[S, (1+ε)S]` (`lower = 0`, `upper = ε`), the §3.1
/// quantized counter is symmetric, and exact backends are `(0, 0)`.
///
/// Bounds are *state-dependent*, not static: merging widens the
/// histogram envelopes (k-way fan-in costs k·ε, §6) and quantized
/// counters accumulate one half-ulp per rounding, so the certifier
/// reads the envelope from the live summary rather than from the
/// construction-time ε.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBound {
    /// Maximum relative under-estimate: `est ≥ v · (1 − lower)`.
    pub lower: f64,
    /// Maximum relative over-estimate: `est ≤ v · (1 + upper)`.
    pub upper: f64,
}

impl ErrorBound {
    /// The exact envelope: the answer equals the true decayed sum (up
    /// to f64 summation order).
    pub fn exact() -> Self {
        ErrorBound {
            lower: 0.0,
            upper: 0.0,
        }
    }

    /// A symmetric `±eps` relative envelope.
    pub fn symmetric(eps: f64) -> Self {
        ErrorBound {
            lower: eps,
            upper: eps,
        }
    }

    /// The one-sided `[v, (1+eps)·v]` envelope of Theorem 1: never an
    /// under-estimate.
    pub fn one_sided(eps: f64) -> Self {
        ErrorBound {
            lower: 0.0,
            upper: eps,
        }
    }

    /// An unbounded envelope, for summaries with no relative guarantee
    /// (e.g. decayed variance in its cancellation regime).
    pub fn unbounded() -> Self {
        ErrorBound {
            lower: f64::INFINITY,
            upper: f64::INFINITY,
        }
    }

    /// Whether this envelope makes any relative-error promise at all.
    pub fn is_bounded(&self) -> bool {
        self.lower.is_finite() && self.upper.is_finite()
    }

    /// Checks `est` against the envelope around true value `truth`,
    /// with `slop` absolute tolerance absorbing f64 summation noise.
    pub fn admits(&self, est: f64, truth: f64, slop: f64) -> bool {
        Envelope::from(*self).admits(est, truth, slop)
    }
}

/// An answer's certified envelope: the applied summary's relative
/// [`ErrorBound`] plus the decayed weight the answer may be missing
/// (`under`: lost, shed, evicted or not-yet-visible mass) or may
/// over-count (`over`: mass folded forward in time). It certifies
/// `(truth − under)·(1 − lower) ≤ est ≤ (truth + over)·(1 + upper)`.
///
/// Serving layers add terms instead of rewriting the relative bound, so
/// they stack in any order; [`to_bound`](Envelope::to_bound) is the one
/// place terms become relative. Derivations: DESIGN.md §9, "Envelopes".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// The relative bound of the summary that produced the answer.
    pub bound: ErrorBound,
    /// Decayed weight the answer may be missing.
    pub under: f64,
    /// Decayed weight the answer may over-count.
    pub over: f64,
}

impl From<ErrorBound> for Envelope {
    fn from(bound: ErrorBound) -> Self {
        Envelope {
            bound,
            under: 0.0,
            over: 0.0,
        }
    }
}

impl Envelope {
    /// Adds `mass` units the answer may miss, each weighing ≤ `cap`
    /// (no mass adds nothing, even under an unbounded cap).
    pub fn missing(mut self, mass: f64, cap: f64) -> Self {
        self.under += if mass == 0.0 { 0.0 } else { mass * cap };
        self
    }

    /// Adds `mass` units the answer may over-count by ≤ `cap` each.
    pub fn excess(mut self, mass: f64, cap: f64) -> Self {
        self.over += if mass == 0.0 { 0.0 } else { mass * cap };
        self
    }

    /// Checks `est` against the envelope around `truth`, with `slop`
    /// absolute tolerance for f64 summation noise. An unbounded side or
    /// term voids the envelope, as in [`ErrorBound::admits`].
    pub fn admits(&self, est: f64, truth: f64, slop: f64) -> bool {
        let ErrorBound { lower, upper } = self.bound;
        if !(self.bound.is_bounded() && self.under.is_finite() && self.over.is_finite()) {
            return true;
        }
        // The summarized value lies in [truth − under, truth + over].
        let low = if lower <= 1.0 {
            truth - self.under
        } else {
            truth + self.over
        };
        est >= low * (1.0 - lower) - slop && est <= (truth + self.over) * (1.0 + upper) + slop
    }

    /// The relative bound certifying `est`:
    /// `l' = 1 − est/(est/(1−l) + under)` and
    /// `u' = u + over·(1+u)/(est/(1+u) − over)`, each side unbounded
    /// (`l' = 1`, `u' = ∞`) where its formula degenerates.
    pub fn to_bound(&self, est: f64) -> ErrorBound {
        let ErrorBound { lower: l, upper: u } = self.bound;
        let ceiling = est / (1.0 - l) + self.under;
        // The floor's subtraction cancels when it is tiny next to
        // `est/(1+u)`: shave that quotient's rounding off first.
        let top = est / (1.0 + u);
        let floor = top - self.over - 4.0 * f64::EPSILON * top;
        ErrorBound {
            lower: if self.under == 0.0 {
                l
            } else if l < 1.0 && self.under.is_finite() && ceiling > 0.0 {
                1.0 - est / ceiling
            } else {
                1.0
            },
            upper: if self.over == 0.0 {
                u
            } else if u.is_finite() && self.over.is_finite() && floor > 0.0 {
                u + self.over * (1.0 + u) / floor
            } else {
                f64::INFINITY
            },
        }
    }
}

/// A time-decaying stream summary: one ingest/query surface shared by
/// every backend in the workspace.
///
/// [`StorageAccounting`] is a supertrait rather than a duplicated
/// `storage_bits` method, so importing both traits never makes the
/// call ambiguous.
///
/// # Time model
///
/// Ticks are non-decreasing: `observe`, `observe_batch`, and `advance`
/// must be called with `t` at least the largest time previously seen.
/// Items inside one `observe_batch` call must likewise be sorted by
/// non-decreasing time. Queries at time `t` weight an item observed at
/// `ti < t` by `g(t - ti)`.
pub trait StreamAggregate: StorageAccounting {
    /// Feeds one item of value `f` observed at time `t`.
    fn observe(&mut self, t: Time, f: u64);

    /// Feeds a burst of `(time, value)` items, sorted by non-decreasing
    /// time.
    ///
    /// Result-equivalent to calling [`observe`](Self::observe) once per
    /// item, but amortized: backends coalesce same-tick mass and run
    /// their clock/merge machinery once per distinct tick. The default
    /// is the sequential loop; every backend in this workspace
    /// overrides it.
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        for &(t, f) in items {
            self.observe(t, f);
        }
    }

    /// Whether [`observe_batch`](Self::observe_batch) carries a batch
    /// kernel that amortizes *real work* across a run — bucket-walks
    /// shared per distinct tick, reserve-once appends, SoA decay
    /// columns — as opposed to saving only per-call overhead over an
    /// inlined [`observe`](Self::observe) loop.
    ///
    /// Pass-through stages use this to pick an ingest strategy. A fused
    /// per-item loop is free for a per-item backend but costs a batch
    /// kernel its amortization (8× on the quantized counter); scanning
    /// sub-blocks ahead of batched ingestion preserves the kernel but
    /// taxes an ultra-cheap per-item backend with a second pass over
    /// the batch. Backends overriding `observe_batch` with a genuine
    /// kernel should override this to `true`; the default matches the
    /// default loop.
    fn batched_ingest_amortizes(&self) -> bool {
        false
    }

    /// Advances the summary's clock to `t` without observing any mass,
    /// letting time-expired state be dropped (e.g. sliding-window
    /// buckets during ingest silence).
    fn advance(&mut self, t: Time);

    /// The decayed sum estimate `Σ f_i · g(t - t_i)` at time `t`
    /// (items at `t` itself are not yet visible, matching §2.1).
    fn query(&self, t: Time) -> f64;

    /// Folds `other` — a summary of a *disjoint* substream under the
    /// same decay function and parameters — into `self` (§6).
    ///
    /// # Panics
    ///
    /// Panics if the two summaries' parameters are incompatible, or for
    /// the rare backend with no merge algorithm (`ClassicEh`).
    fn merge_from(&mut self, other: &Self)
    where
        Self: Sized;

    /// The relative-error envelope this summary's current state
    /// certifies for [`query`](Self::query) answers.
    ///
    /// Defaults to [`ErrorBound::exact`]; approximate backends
    /// override it with their theorem-given bound (widened by merges
    /// and quantization events as their state demands). Conformance
    /// tooling reads the envelope from here rather than hard-coding it
    /// per backend.
    fn error_bound(&self) -> ErrorBound {
        ErrorBound::exact()
    }

    /// A sound cap on one strictly-past unit's weight in answers, what
    /// an [`Envelope`] charges per missing unit: `∞` (always sound)
    /// unless the backend forwards its decay's
    /// [`weight_cap`](crate::DecayFunction::weight_cap).
    fn unit_weight_cap(&self) -> f64 {
        f64::INFINITY
    }

    /// A point-in-time copy of the summary, safe to query and
    /// [`merge_from`](Self::merge_from) independently of the original.
    ///
    /// This is the hook the sharded engine (`td-shard`) uses to build
    /// merged serving summaries: each worker's private shard is
    /// snapshotted under a sequence-number barrier and the clones are
    /// folded off the ingest path. Every backend in this workspace is a
    /// plain-old-data value (bucket lists, counters), so the default —
    /// `Clone::clone` — is both correct and cheap relative to a merge;
    /// a backend with shared interior state would override this to
    /// detach it. `Sized` keeps `dyn StreamAggregate` object-safe.
    fn snapshot(&self) -> Self
    where
        Self: Sized + Clone,
    {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy exact aggregate, checking the trait is implementable and
    /// the default `observe_batch` loops.
    struct Plain {
        total: u64,
        last_t: Time,
    }

    impl StorageAccounting for Plain {
        fn storage_bits(&self) -> u64 {
            128
        }
    }

    impl StreamAggregate for Plain {
        fn observe(&mut self, t: Time, f: u64) {
            assert!(t >= self.last_t);
            self.last_t = t;
            self.total += f;
        }
        fn advance(&mut self, t: Time) {
            assert!(t >= self.last_t);
            self.last_t = t;
        }
        fn query(&self, _t: Time) -> f64 {
            self.total as f64
        }
        fn merge_from(&mut self, other: &Self) {
            self.total += other.total;
            self.last_t = self.last_t.max(other.last_t);
        }
    }

    #[test]
    fn error_bound_default_and_admits() {
        let p = Plain {
            total: 7,
            last_t: 3,
        };
        assert_eq!(p.error_bound(), ErrorBound::exact());

        let one = ErrorBound::one_sided(0.1);
        assert!(one.admits(100.0, 100.0, 1e-9));
        assert!(one.admits(110.0, 100.0, 1e-9));
        assert!(!one.admits(111.0, 100.0, 1e-9));
        assert!(!one.admits(99.0, 100.0, 1e-9));

        let sym = ErrorBound::symmetric(0.1);
        assert!(sym.admits(91.0, 100.0, 1e-9));
        assert!(!sym.admits(89.0, 100.0, 1e-9));

        assert!(ErrorBound::unbounded().admits(1e30, 1.0, 0.0));
        assert!(!ErrorBound::unbounded().is_bounded());
    }

    #[test]
    fn default_batch_is_sequential() {
        let mut a = Plain {
            total: 0,
            last_t: 0,
        };
        let mut b = Plain {
            total: 0,
            last_t: 0,
        };
        let items = [(1u64, 2u64), (1, 3), (4, 5)];
        for &(t, f) in &items {
            a.observe(t, f);
        }
        b.observe_batch(&items);
        assert_eq!(a.query(5), b.query(5));
        assert_eq!(a.last_t, b.last_t);
    }
}
