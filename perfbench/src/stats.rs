//! Order statistics and answer-quality arithmetic.

use td_decay::ErrorBound;

/// The `p`-quantile (nearest rank) of `v`, which it sorts. 0 when empty.
pub fn quantile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Absolute tolerance for f64 summation-order noise between a summary
/// and the oracle (the conformance harness uses the same).
pub fn slop(truth: f64) -> f64 {
    1e-9 * truth.abs().max(1.0)
}

/// One checked answer.
#[derive(Clone, Copy, Debug)]
pub struct Check {
    pub estimate: f64,
    pub bound: ErrorBound,
    /// Additive slack on both sides (registry eviction slack).
    pub slack: f64,
}

/// What the oracle said about a batch of answers.
#[derive(Clone, Debug, Default)]
pub struct Quality {
    pub checked: u64,
    pub failed: u64,
    pub rel_errors: Vec<f64>,
    pub widths: Vec<f64>,
}

impl Quality {
    /// Judges `c` against the exact `truth`: inside its certified
    /// envelope or failed; its relative error; its envelope width
    /// `(upper − lower) / estimate`, where `[lower, upper]` is the range
    /// of truths the answer certifies.
    pub fn record(&mut self, c: Check, truth: f64) {
        self.checked += 1;
        let tol = slop(truth) + c.slack;
        if !c.bound.admits(c.estimate, truth, tol) {
            self.failed += 1;
        }
        if truth > 0.0 {
            self.rel_errors.push((c.estimate - truth).abs() / truth);
        }
        if c.estimate > 0.0 {
            let lo = ((c.estimate - c.slack) / (1.0 + c.bound.upper)).max(0.0);
            let hi = if c.bound.lower < 1.0 {
                (c.estimate + c.slack) / (1.0 - c.bound.lower)
            } else {
                f64::INFINITY
            };
            self.widths.push((hi - lo) / c.estimate);
        }
    }

    pub fn absorb(&mut self, other: Quality) {
        self.checked += other.checked;
        self.failed += other.failed;
        self.rel_errors.extend(other.rel_errors);
        self.widths.extend(other.widths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn one_sided_width_is_epsilon_over_one_plus_epsilon() {
        let mut q = Quality::default();
        let c = Check {
            estimate: 110.0,
            bound: ErrorBound::one_sided(0.1),
            slack: 0.0,
        };
        q.record(c, 100.0);
        assert_eq!(q.failed, 0);
        assert!((q.widths[0] - (1.0 - 1.0 / 1.1)).abs() < 1e-12);
        assert!((q.rel_errors[0] - 0.1).abs() < 1e-12);
        q.record(c, 120.0);
        assert_eq!(q.failed, 1);
    }
}
