//! The [`DecayFunction`] trait and its classification hints.

/// Discrete time, measured in ticks since an arbitrary epoch.
///
/// The paper assumes time is discretized and obtains integral values
/// (§2); every structure in this workspace uses `u64` ticks.
pub type Time = u64;

/// Structural classification of a decay function.
///
/// Downstream code uses this hint to pick the storage-optimal backend
/// (paper summary, §8):
///
/// * exponential decay — a single (quantized) counter, Θ(log N) bits
///   (Lemma 3.1);
/// * sliding windows — an Exponential Histogram, Θ(log²N) bits (\[9\]);
/// * ratio-monotone sub-exponential decay (e.g. polynomial) — a
///   weight-based merging histogram, O(log N · log log N) bits
///   (Lemma 5.1);
/// * anything else — a cascaded Exponential Histogram, O(log²N) bits
///   (Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayClass {
    /// `g(x) = 1` for all ages: no decay at all.
    Constant,
    /// `g(x) = exp(-λx)` with the given `λ > 0`.
    Exponential {
        /// The rate parameter λ.
        lambda: f64,
    },
    /// `g(x) = 1` for `x <= window`, `0` afterwards.
    SlidingWindow {
        /// The window length W, in ticks.
        window: Time,
    },
    /// `g(x) = x^k e^{-λx} / k!` (§3.4) — *not* non-increasing for
    /// `k >= 1`, but trackable exactly by `k + 1` pipelined exponential
    /// counters (`td-counters::pipeline`).
    PolyExponential {
        /// The polynomial degree k.
        degree: u32,
        /// The rate parameter λ.
        lambda: f64,
    },
    /// `g(x)/g(x+1)` is non-increasing in `x` (WBMH-applicable, §5), but
    /// the function is not one of the closed forms above. Polynomial decay
    /// is the canonical member.
    RatioMonotone,
    /// No structural guarantee; only the cascaded-EH algorithm of
    /// Theorem 1 applies.
    General,
}

/// A decay function: a non-increasing, non-negative weight of elapsed age.
///
/// `weight(x)` is the paper's `g(x)`. Implementations must satisfy, for
/// all ages `x`:
///
/// * `weight(x) >= 0`,
/// * `weight(x + 1) <= weight(x)` (non-increasing),
/// * `weight` is a pure function of `x` (no interior mutability).
///
/// Violations are not undefined behaviour — everything stays safe — but
/// the approximation guarantees of the histogram algorithms assume them,
/// and [`crate::properties::is_non_increasing`] can audit a candidate.
///
/// The trait is object-safe; summaries typically hold a
/// `Box<dyn DecayFunction>` or are generic over `G: DecayFunction`.
pub trait DecayFunction {
    /// The weight `g(x)` assigned to an item of age `x` ticks.
    fn weight(&self, age: Time) -> f64;

    /// Evaluates `g` over a batch of ages in one call: `out[i] =
    /// weight(ages[i])`.
    ///
    /// This is the query-side kernel: histogram queries collect bucket
    /// ages into a scratch buffer and evaluate all weights at once, so a
    /// decay function dispatched through `&dyn DecayFunction` pays one
    /// virtual call per *query* instead of one per *bucket*, and the
    /// closed-form families get a tight monomorphic loop the compiler
    /// can unroll/vectorize. Overrides must be pointwise identical to
    /// `weight` (the default simply loops).
    ///
    /// # Panics
    ///
    /// Panics if `ages.len() != out.len()`.
    fn weight_batch(&self, ages: &[Time], out: &mut [f64]) {
        assert_eq!(ages.len(), out.len(), "age/weight buffer length mismatch");
        for (o, &a) in out.iter_mut().zip(ages) {
            *o = self.weight(a);
        }
    }

    /// Evaluates `g(t − end)` over a bucket-boundary column in one call:
    /// `out[i] = weight(t − ends[i])` — the zero-gather query kernel.
    ///
    /// Histogram queries hand the structure-of-arrays `end` column (see
    /// [`crate::soa`]) straight to this method instead of materializing
    /// an age `Vec` first; the default converts fixed-width chunks into
    /// a stack buffer and feeds [`DecayFunction::weight_batch`], so the
    /// closed-form families' chunked kernels apply with no per-query
    /// heap traffic and one virtual dispatch per chunk.
    ///
    /// Caller contract: `ends[i] <= t`. Violations clamp the age at 0
    /// (the saturating difference) rather than wrapping; query paths
    /// slice off at-tick buckets before calling.
    ///
    /// # Panics
    ///
    /// Panics if `ends.len() != out.len()`.
    fn weight_from_ends(&self, t: Time, ends: &[Time], out: &mut [f64]) {
        assert_eq!(ends.len(), out.len(), "end/weight buffer length mismatch");
        let mut ages = [0u64; 64];
        let mut i = 0;
        while i < ends.len() {
            let n = (ends.len() - i).min(64);
            for (a, &e) in ages[..n].iter_mut().zip(&ends[i..i + n]) {
                *a = t.saturating_sub(e);
            }
            self.weight_batch(&ages[..n], &mut out[i..i + n]);
            i += n;
        }
    }

    /// The documented relative divergence bound between the chunked
    /// batch kernels ([`DecayFunction::weight_batch`] /
    /// [`DecayFunction::weight_from_ends`]) and the scalar
    /// [`DecayFunction::weight`] closed form.
    ///
    /// `0.0` (the default) means the batch path is exactly pointwise
    /// identical to `weight`. Families whose batch kernels use the
    /// fast chunked transcendentals (see [`crate::soa`]) return their
    /// measured ULP bound here, and backends fold it into the
    /// `error_bound` they report, so a certified envelope remains
    /// truthful under kernel drift. Weights below
    /// [`crate::soa::NEGLIGIBLE_WEIGHT`] are exempt (both sides are
    /// treated as zero there).
    fn kernel_relative_error(&self) -> f64 {
        0.0
    }

    /// The horizon `N(g) = argmax_x g(x) > 0` (§2.3): the largest age that
    /// still carries positive weight, or `None` when the support is
    /// infinite (as for exponential and polynomial decay).
    fn horizon(&self) -> Option<Time> {
        None
    }

    /// `sup_{x ≥ 1} g(x)`, what an [`crate::Envelope`] charges per
    /// missing unit: `g(1)`, but `∞` for polyexponential decay, which
    /// peaks near age `k/λ` (§3.4). DESIGN.md §9, "Envelopes".
    fn weight_cap(&self) -> f64 {
        match self.classify() {
            DecayClass::PolyExponential { .. } => f64::INFINITY,
            _ => self.weight(1),
        }
    }

    /// `sup_{a ≥ 1} [g(a) − g(a + d)]`, what an [`crate::Envelope`]
    /// charges per unit folded `d` ticks forward: the sup sits at
    /// `a = 1` for ratio-monotone decay; any other `g` gaps by at most
    /// [`weight_cap`](Self::weight_cap).
    fn displacement_cap(&self, d: Time) -> f64 {
        match self.classify() {
            DecayClass::Constant => 0.0,
            DecayClass::Exponential { .. } | DecayClass::RatioMonotone => {
                (self.weight(1) - self.weight(1 + d)).max(0.0)
            }
            _ => self.weight_cap(),
        }
    }

    /// A structural classification hint used for backend selection.
    ///
    /// The default is [`DecayClass::General`]; closed-form families
    /// override this. Returning a stronger class than the function
    /// satisfies voids the storage/accuracy guarantees of the selected
    /// backend, so custom implementations should be conservative (or use
    /// [`crate::properties::check_ratio_monotone`] to certify
    /// [`DecayClass::RatioMonotone`] numerically).
    fn classify(&self) -> DecayClass {
        DecayClass::General
    }

    /// Human-readable name used in experiment tables and error messages.
    fn describe(&self) -> String {
        "custom".to_string()
    }
}

impl<G: DecayFunction + ?Sized> DecayFunction for &G {
    fn weight(&self, age: Time) -> f64 {
        (**self).weight(age)
    }
    fn weight_batch(&self, ages: &[Time], out: &mut [f64]) {
        (**self).weight_batch(ages, out)
    }
    fn weight_from_ends(&self, t: Time, ends: &[Time], out: &mut [f64]) {
        (**self).weight_from_ends(t, ends, out)
    }
    fn kernel_relative_error(&self) -> f64 {
        (**self).kernel_relative_error()
    }
    fn horizon(&self) -> Option<Time> {
        (**self).horizon()
    }
    fn weight_cap(&self) -> f64 {
        (**self).weight_cap()
    }
    fn displacement_cap(&self, d: Time) -> f64 {
        (**self).displacement_cap(d)
    }
    fn classify(&self) -> DecayClass {
        (**self).classify()
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
}

impl<G: DecayFunction + ?Sized> DecayFunction for Box<G> {
    fn weight(&self, age: Time) -> f64 {
        (**self).weight(age)
    }
    fn weight_batch(&self, ages: &[Time], out: &mut [f64]) {
        (**self).weight_batch(ages, out)
    }
    fn weight_from_ends(&self, t: Time, ends: &[Time], out: &mut [f64]) {
        (**self).weight_from_ends(t, ends, out)
    }
    fn kernel_relative_error(&self) -> f64 {
        (**self).kernel_relative_error()
    }
    fn horizon(&self) -> Option<Time> {
        (**self).horizon()
    }
    fn weight_cap(&self) -> f64 {
        (**self).weight_cap()
    }
    fn displacement_cap(&self, d: Time) -> f64 {
        (**self).displacement_cap(d)
    }
    fn classify(&self) -> DecayClass {
        (**self).classify()
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exponential;

    #[test]
    fn trait_is_object_safe() {
        let g: Box<dyn DecayFunction> = Box::new(Exponential::new(0.5));
        assert!(g.weight(3) > 0.0);
        assert_eq!(g.horizon(), None);
    }

    #[test]
    fn references_delegate() {
        let g = Exponential::new(0.25);
        let r: &dyn DecayFunction = &g;
        assert_eq!(r.weight(7), g.weight(7));
        assert_eq!(r.classify(), g.classify());
        assert_eq!(r.describe(), g.describe());
    }
}
