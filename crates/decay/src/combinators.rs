//! Combinators that build new decay functions from existing ones.
//!
//! All four combinators preserve the §2 requirements: if the operands are
//! non-negative and non-increasing, so is the result. Classification is
//! conservative — combinators report [`DecayClass::General`] except where
//! a stronger class is provably preserved. The envelope caps
//! ([`DecayFunction::weight_cap`], [`DecayFunction::displacement_cap`])
//! are combined from the operands' caps by the combinator's own rule, so
//! a polyexponential operand, which peaks past age 1, is never priced at
//! `g(1)`.

use crate::func::{DecayClass, DecayFunction, Time};

/// `g'(x) = c · g(x)` for a constant `c > 0`.
///
/// Scaling does not change which items dominate a decayed sum, but it is
/// convenient for building mixtures and for normalizing table decays. All
/// structural properties (horizon, ratio monotonicity) are preserved, so
/// the inner classification passes through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaled<G> {
    inner: G,
    factor: f64,
}

impl<G: DecayFunction> Scaled<G> {
    /// Scales `inner` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and strictly positive.
    pub fn new(inner: G, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive, got {factor}"
        );
        Self { inner, factor }
    }
}

impl<G: DecayFunction> DecayFunction for Scaled<G> {
    fn weight(&self, age: Time) -> f64 {
        self.factor * self.inner.weight(age)
    }

    fn horizon(&self) -> Option<Time> {
        self.inner.horizon()
    }

    fn weight_cap(&self) -> f64 {
        self.factor * self.inner.weight_cap()
    }

    fn displacement_cap(&self, d: Time) -> f64 {
        self.factor * self.inner.displacement_cap(d)
    }

    fn classify(&self) -> DecayClass {
        match self.inner.classify() {
            // A scaled constant/EXPD/SLIWIN is no longer literally that
            // closed form, but scaling preserves ratio monotonicity.
            DecayClass::Constant => DecayClass::Constant,
            DecayClass::Exponential { .. } | DecayClass::RatioMonotone => DecayClass::RatioMonotone,
            // SLIWIN is not ratio-monotone (∞ jump at the window edge),
            // and scaling does not repair that; a scaled polyexponential
            // is still polyexponential-shaped but the pipeline backend
            // keys on the exact closed form, so stay conservative.
            DecayClass::SlidingWindow { .. }
            | DecayClass::PolyExponential { .. }
            | DecayClass::General => DecayClass::General,
        }
    }

    fn describe(&self) -> String {
        format!("{} * {}", self.factor, self.inner.describe())
    }
}

/// `g'(x) = g1(x) + g2(x)`.
///
/// Sums of decay functions are decay functions; they model mixtures such
/// as "a sliding window plus a slow polynomial tail". Sums do *not*
/// generally preserve ratio monotonicity, so the result is classified
/// [`DecayClass::General`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumOf<G1, G2> {
    a: G1,
    b: G2,
}

impl<G1: DecayFunction, G2: DecayFunction> SumOf<G1, G2> {
    /// The pointwise sum of `a` and `b`.
    pub fn new(a: G1, b: G2) -> Self {
        Self { a, b }
    }
}

impl<G1: DecayFunction, G2: DecayFunction> DecayFunction for SumOf<G1, G2> {
    fn weight(&self, age: Time) -> f64 {
        self.a.weight(age) + self.b.weight(age)
    }

    fn horizon(&self) -> Option<Time> {
        match (self.a.horizon(), self.b.horizon()) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        }
    }

    fn weight_cap(&self) -> f64 {
        self.a.weight_cap() + self.b.weight_cap()
    }

    fn displacement_cap(&self, d: Time) -> f64 {
        self.a.displacement_cap(d) + self.b.displacement_cap(d)
    }

    fn describe(&self) -> String {
        format!("({} + {})", self.a.describe(), self.b.describe())
    }
}

/// `g'(x) = g1(x) · g2(x)`.
///
/// Products of non-increasing non-negative functions are non-increasing
/// and non-negative. The workhorse use is truncation: multiplying any
/// decay by a [`crate::SlidingWindow`] gives its W-truncated variant.
/// Products of ratio-monotone functions are ratio-monotone (the per-step
/// ratio is the product of two non-increasing per-step ratios), which the
/// classification exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductOf<G1, G2> {
    a: G1,
    b: G2,
}

impl<G1: DecayFunction, G2: DecayFunction> ProductOf<G1, G2> {
    /// The pointwise product of `a` and `b`.
    pub fn new(a: G1, b: G2) -> Self {
        Self { a, b }
    }
}

impl<G1: DecayFunction, G2: DecayFunction> DecayFunction for ProductOf<G1, G2> {
    fn weight(&self, age: Time) -> f64 {
        self.a.weight(age) * self.b.weight(age)
    }

    fn horizon(&self) -> Option<Time> {
        match (self.a.horizon(), self.b.horizon()) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (Some(x), None) | (None, Some(x)) => Some(x),
            (None, None) => None,
        }
    }

    fn classify(&self) -> DecayClass {
        let ratio_monotone = |c: &DecayClass| {
            matches!(
                c,
                DecayClass::Constant | DecayClass::Exponential { .. } | DecayClass::RatioMonotone
            )
        };
        let (ca, cb) = (self.a.classify(), self.b.classify());
        if ratio_monotone(&ca) && ratio_monotone(&cb) {
            DecayClass::RatioMonotone
        } else {
            DecayClass::General
        }
    }

    fn weight_cap(&self) -> f64 {
        product(self.a.weight_cap(), self.b.weight_cap())
    }

    /// Ratio-monotone products gap most at age 1 (the trait default);
    /// otherwise `gh` gaps by at most `sup g · gap(h) + sup h · gap(g)`
    /// (the product rule), and never by more than its own cap.
    fn displacement_cap(&self, d: Time) -> f64 {
        if self.classify() == DecayClass::RatioMonotone {
            return (self.weight(1) - self.weight(1 + d)).max(0.0);
        }
        let (wa, wb) = (self.a.weight_cap(), self.b.weight_cap());
        let gap = product(wa, self.b.displacement_cap(d)) + product(wb, self.a.displacement_cap(d));
        gap.min(self.weight_cap())
    }

    fn describe(&self) -> String {
        format!("({} * {})", self.a.describe(), self.b.describe())
    }
}

/// `g'(x) = max(g1(x), g2(x))`.
///
/// The pointwise maximum of two decay functions; useful for "whichever
/// view retains more of this event" policies. Classified
/// [`DecayClass::General`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxOf<G1, G2> {
    a: G1,
    b: G2,
}

impl<G1: DecayFunction, G2: DecayFunction> MaxOf<G1, G2> {
    /// The pointwise maximum of `a` and `b`.
    pub fn new(a: G1, b: G2) -> Self {
        Self { a, b }
    }
}

impl<G1: DecayFunction, G2: DecayFunction> DecayFunction for MaxOf<G1, G2> {
    fn weight(&self, age: Time) -> f64 {
        self.a.weight(age).max(self.b.weight(age))
    }

    fn horizon(&self) -> Option<Time> {
        match (self.a.horizon(), self.b.horizon()) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        }
    }

    fn weight_cap(&self) -> f64 {
        self.a.weight_cap().max(self.b.weight_cap())
    }

    /// Where `a` is the larger operand, `max(a, b)` drops by at most
    /// `a`'s own gap (and symmetrically), so the larger gap caps it.
    fn displacement_cap(&self, d: Time) -> f64 {
        self.a.displacement_cap(d).max(self.b.displacement_cap(d))
    }

    fn describe(&self) -> String {
        format!("max({}, {})", self.a.describe(), self.b.describe())
    }
}

/// A cap product where a zero factor wins over an infinite one: a
/// constant operand has no gap (`displacement_cap` 0), and that stays
/// zero against a polyexponential operand's unbounded `weight_cap`.
fn product(x: f64, y: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        0.0
    } else {
        x * y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{properties, Exponential, Polynomial, SlidingWindow};

    #[test]
    fn scaled_preserves_shape() {
        let g = Scaled::new(Polynomial::new(2.0), 10.0);
        assert_eq!(g.weight(1), 10.0);
        assert_eq!(g.weight(2), 2.5);
        assert_eq!(g.classify(), DecayClass::RatioMonotone);
        assert!(properties::is_non_increasing(&g, 1_000));
    }

    #[test]
    fn sum_combines_horizons() {
        let g = SumOf::new(SlidingWindow::new(10), SlidingWindow::new(20));
        assert_eq!(g.horizon(), Some(20));
        assert_eq!(g.weight(5), 2.0);
        assert_eq!(g.weight(15), 1.0);
        assert_eq!(g.weight(25), 0.0);
        assert!(properties::is_non_increasing(&g, 100));
    }

    #[test]
    fn product_truncates() {
        // Polynomial decay truncated to a 50-tick window.
        let g = ProductOf::new(Polynomial::new(1.0), SlidingWindow::new(50));
        assert_eq!(g.horizon(), Some(50));
        assert!(g.weight(50) > 0.0);
        assert_eq!(g.weight(51), 0.0);
        // Truncation breaks ratio monotonicity (SLIWIN operand).
        assert_eq!(g.classify(), DecayClass::General);
    }

    #[test]
    fn product_of_ratio_monotone_is_ratio_monotone() {
        let g = ProductOf::new(Polynomial::new(1.0), Exponential::new(0.01));
        assert_eq!(g.classify(), DecayClass::RatioMonotone);
        assert!(properties::check_ratio_monotone(&g, 2_000));
    }

    #[test]
    fn caps_cover_a_polyexponential_operand() {
        use crate::PolyExponential;
        let p = || PolyExponential::new(2, 0.03);
        let check = |name: &str, g: &dyn DecayFunction| {
            let ages = 1..=10_000u64;
            let peak = ages.clone().map(|a| g.weight(a)).fold(0.0, f64::max);
            assert!(peak > g.weight(1), "{name}: the peak must sit past age 1");
            assert!(g.weight_cap() >= peak, "{name}: weight_cap below max g");
            for d in [1u64, 10, 67, 1_000] {
                let gap = ages
                    .clone()
                    .map(|a| g.weight(a) - g.weight(a + d))
                    .fold(0.0, f64::max);
                assert!(
                    g.displacement_cap(d) >= gap,
                    "{name}: displacement_cap({d}) below max gap {gap}"
                );
            }
        };
        check("scaled", &Scaled::new(p(), 3.0));
        check("sum", &SumOf::new(p(), Exponential::new(0.01)));
        check("product", &ProductOf::new(p(), SlidingWindow::new(5_000)));
        check("max", &MaxOf::new(Polynomial::new(1.0), p()));
    }

    #[test]
    fn caps_of_monotone_operands_stay_at_age_one() {
        let g = Scaled::new(Polynomial::new(2.0), 10.0);
        assert_eq!(g.weight_cap(), g.weight(1));
        let g = SumOf::new(SlidingWindow::new(10), Polynomial::new(1.0));
        assert_eq!(g.weight_cap(), g.weight(1));
        let g = ProductOf::new(Polynomial::new(1.0), Exponential::new(0.01));
        assert_eq!(g.weight_cap(), g.weight(1));
        assert_eq!(g.displacement_cap(7), g.weight(1) - g.weight(8));
        let g = MaxOf::new(SlidingWindow::new(5), Polynomial::new(1.0));
        assert_eq!(g.weight_cap(), g.weight(1));
    }

    #[test]
    fn max_takes_upper_envelope() {
        let g = MaxOf::new(
            SlidingWindow::new(5),
            Scaled::new(Polynomial::new(1.0), 0.5),
        );
        assert_eq!(g.weight(3), 1.0); // window dominates inside
        assert_eq!(g.weight(10), 0.05); // polynomial tail outside
        assert_eq!(g.horizon(), None);
        assert!(properties::is_non_increasing(&g, 1_000));
    }
}
