//! Bounded-precision approximate counts (paper §5).
//!
//! The WBMH storage bound relies on keeping each bucket count *only
//! approximately*: a count is held as a floating-point value whose
//! mantissa width is bounded, and every merge rounds the sum back to that
//! width. The paper's refinement makes the width depend on the *depth* of
//! the merge in the summation tree: rounding at depth `i` uses
//! `β_i = ε / i²` (so `Σ β_i < ε·π²/6` converges and `N` need not be
//! known in advance), for `log(1/β_i) = log(1/ε) + 2·log(i)` mantissa
//! bits.

use td_decay::storage::{bits_for_quantized_float, StorageAccounting};

/// Rounds `x` to `bits` significant mantissa bits (round-to-nearest).
///
/// `bits = 0` is clamped to 1 (a bare power of two); values that are
/// zero, infinite, or NaN pass through unchanged.
///
/// ```
/// use td_counters::approx::round_to_mantissa;
/// assert_eq!(round_to_mantissa(1023.0, 4), 1024.0);
/// assert_eq!(round_to_mantissa(100.0, 52), 100.0);
/// assert_eq!(round_to_mantissa(0.0, 3), 0.0);
/// ```
pub fn round_to_mantissa(x: f64, bits: u32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let bits = bits.clamp(1, 52);
    // Scale so the value lies in [2^(bits-1), 2^bits), round to an
    // integer there, and scale back.
    let e = x.abs().log2().floor() as i32;
    let shift = bits as i32 - 1 - e;
    let scaled = x * (shift as f64).exp2();
    scaled.round() * (-shift as f64).exp2()
}

/// A non-negative count stored with bounded mantissa precision and a
/// merge-depth tag, implementing the §5 adaptive rounding ladder.
///
/// An exact count enters at depth 0; [`ApproxCount::merge`] of two counts
/// takes depth `max(d_a, d_b) + 1` and rounds to
/// `⌈log₂(1/β_depth)⌉ = ⌈log₂(1/ε) + 2·log₂(depth)⌉` mantissa bits. By
/// the telescoping argument of §5 the stored value is within
/// `Π_{i<=depth}(1 + β_i) <= 1 + ε·π²/6` of the true sum — the unit tests
/// and the WBMH property tests verify the bound empirically.
///
/// # Examples
///
/// ```
/// use td_counters::ApproxCount;
/// let a = ApproxCount::exact(1000, 0.01);
/// let b = ApproxCount::exact(999, 0.01);
/// let c = ApproxCount::merge(&a, &b);
/// let err = (c.value() - 1999.0).abs() / 1999.0;
/// assert!(err <= 0.01 * 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxCount {
    value: f64,
    depth: u32,
    epsilon: f64,
}

impl ApproxCount {
    /// An exact count at merge depth 0.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite and strictly positive.
    pub fn exact(count: u64, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be finite and positive, got {epsilon}"
        );
        Self {
            value: count as f64,
            depth: 0,
            epsilon,
        }
    }

    /// A zero count (identity for [`ApproxCount::merge`]).
    pub fn zero(epsilon: f64) -> Self {
        Self::exact(0, epsilon)
    }

    /// Reassembles a count from its stored parts (as `td-wbmh` keeps
    /// them in its columns and checkpoints). The value is trusted to be
    /// a previously rounded output of this ladder at the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite/positive or `value` is
    /// negative/non-finite.
    pub fn from_parts(value: f64, depth: u32, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be finite and positive, got {epsilon}"
        );
        assert!(
            value.is_finite() && value >= 0.0,
            "count value must be finite and non-negative, got {value}"
        );
        Self {
            value,
            depth,
            epsilon,
        }
    }

    /// The stored (rounded) value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The merge depth: the height of the summation tree that produced
    /// this count.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The mantissa width (bits) used when rounding at depth `i` with
    /// parameter `epsilon`: `⌈log₂(i²/ε)⌉`, clamped to `[1, 52]`.
    pub fn mantissa_bits_at(epsilon: f64, depth: u32) -> u32 {
        if depth == 0 {
            return 52; // exact entries are not rounded
        }
        let beta = epsilon / (depth as f64 * depth as f64);
        ((1.0 / beta).log2().ceil() as i64).clamp(1, 52) as u32
    }

    /// Adds `count` fresh (depth-0) items into this count *without*
    /// increasing the depth: absorbing raw arrivals into an open bucket
    /// is exact (only merges round).
    pub fn absorb(&mut self, count: u64) {
        self.value += count as f64;
    }

    /// Merges two counts: sums the values, takes depth
    /// `max(d_a, d_b) + 1`, and rounds to the ladder width for that
    /// depth.
    ///
    /// # Panics
    ///
    /// Panics if the two counts were built with different `epsilon`
    /// (mixing ladders voids the telescoping error bound).
    pub fn merge(a: &Self, b: &Self) -> Self {
        assert!(
            (a.epsilon - b.epsilon).abs() < f64::EPSILON,
            "cannot merge ApproxCounts with different epsilon ({} vs {})",
            a.epsilon,
            b.epsilon
        );
        let depth = a.depth.max(b.depth) + 1;
        let bits = Self::mantissa_bits_at(a.epsilon, depth);
        Self {
            value: round_to_mantissa(a.value + b.value, bits),
            depth,
            epsilon: a.epsilon,
        }
    }

    /// The worst-case relative error bound accumulated so far:
    /// `Π_{i=1..depth} (1 + ε/i²) − 1`.
    pub fn error_bound(&self) -> f64 {
        let mut bound = 1.0;
        for i in 1..=self.depth {
            bound *= 1.0 + self.epsilon / (i as f64 * i as f64);
        }
        bound - 1.0
    }
}

impl StorageAccounting for ApproxCount {
    fn storage_bits(&self) -> u64 {
        // Mantissa at the current depth's ladder width plus exponent bits
        // for magnitudes up to 2^64 (counts are bounded by elapsed time ×
        // max value, and the exponent cost is the log log N term of
        // Lemma 5.1).
        let bits = Self::mantissa_bits_at(self.epsilon, self.depth.max(1));
        bits_for_quantized_float(bits as u64, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_preserves_magnitude() {
        for bits in 1..=52 {
            let x = 123456789.0f64;
            let r = round_to_mantissa(x, bits);
            let rel = (r - x).abs() / x;
            assert!(
                rel <= (-(bits as f64 - 1.0)).exp2(),
                "bits={bits}: rel={rel}"
            );
        }
    }

    #[test]
    fn rounding_idempotent() {
        for bits in [1, 4, 10, 23] {
            let x = round_to_mantissa(987654.321, bits);
            assert_eq!(round_to_mantissa(x, bits), x, "bits={bits}");
        }
    }

    #[test]
    fn rounding_handles_subnormal_range() {
        let tiny = f64::MIN_POSITIVE * 8.0;
        let r = round_to_mantissa(tiny, 3);
        assert!(r > 0.0 && r.is_finite());
    }

    #[test]
    fn exact_entries_are_exact() {
        let a = ApproxCount::exact(u32::MAX as u64, 0.1);
        assert_eq!(a.value(), u32::MAX as f64);
        assert_eq!(a.depth(), 0);
        assert_eq!(a.error_bound(), 0.0);
    }

    #[test]
    fn merge_error_stays_within_ladder_bound() {
        // Balanced binary merge of 2^12 counts of 3: depth 12.
        let eps = 0.05;
        let mut layer: Vec<ApproxCount> = (0..4096).map(|_| ApproxCount::exact(3, eps)).collect();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|c| ApproxCount::merge(&c[0], &c[1]))
                .collect();
        }
        let total = layer[0];
        let truth = 3.0 * 4096.0;
        let rel = (total.value() - truth).abs() / truth;
        assert!(
            rel <= total.error_bound() + 1e-12,
            "rel={rel}, bound={}",
            total.error_bound()
        );
        // The ladder bound itself is ≤ ε·π²/6.
        assert!(total.error_bound() <= eps * std::f64::consts::PI.powi(2) / 6.0 + 1e-12);
    }

    #[test]
    fn skewed_merge_chain() {
        // Left-deep chain of 1000 merges — depth grows linearly, the
        // ladder keeps the product bounded.
        let eps = 0.02;
        let mut acc = ApproxCount::exact(1, eps);
        for _ in 0..1000 {
            acc = ApproxCount::merge(&acc, &ApproxCount::exact(1, eps));
        }
        let truth = 1001.0;
        let rel = (acc.value() - truth).abs() / truth;
        assert!(rel <= acc.error_bound() + 1e-12, "rel={rel}");
        assert!(acc.error_bound() < eps * 2.0);
    }

    #[test]
    fn absorb_is_exact() {
        let mut a = ApproxCount::exact(0, 0.5);
        for _ in 0..1000 {
            a.absorb(1);
        }
        assert_eq!(a.value(), 1000.0);
        assert_eq!(a.depth(), 0);
    }

    #[test]
    fn storage_grows_with_depth_only_logarithmically() {
        let eps = 0.01;
        let shallow = ApproxCount::mantissa_bits_at(eps, 1);
        let deep = ApproxCount::mantissa_bits_at(eps, 1 << 20);
        // 2·log2(2^20) = 40 extra bits over the depth-1 width.
        assert_eq!(deep - shallow, 40);
    }

    #[test]
    #[should_panic(expected = "different epsilon")]
    fn merge_rejects_mixed_ladders() {
        let a = ApproxCount::exact(1, 0.1);
        let b = ApproxCount::exact(1, 0.2);
        let _ = ApproxCount::merge(&a, &b);
    }
}
