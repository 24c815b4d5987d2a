//! Brute-force reference implementations of the paper's aggregates.
//!
//! The oracle retains every `(t_i, f_i)` and evaluates
//! `Σ f_i · g(T − t_i)` directly (§2.1's defining sum), so its answers
//! are ground truth up to f64 summation — no buckets, no quantization,
//! no amortization. Every certified backend is differentially tested
//! against it: the backend's answer must land inside the theorem-given
//! relative-error envelope of the oracle's.
//!
//! [`Oracle`] covers decayed sum, count, average, and variance over a
//! value stream; [`CoordOracle`] covers decayed L_p norms over a
//! coordinate stream; selection/quantile distributions come from
//! [`Oracle::selection_distribution`] and [`Oracle::quantile`].

use td_decay::storage::StorageAccounting;
use td_decay::{DecayFunction, ErrorBound, StreamAggregate, Time};

/// The store-everything reference aggregate.
///
/// Implements [`StreamAggregate`] (with `query` = decayed sum and an
/// exact error bound) so it can be driven through the same replay loop
/// as the backends under test, and benchmarked on the same harness.
pub struct Oracle<G> {
    decay: G,
    /// Every observation, in arrival order (times non-decreasing).
    items: Vec<(Time, u64)>,
    last_t: Time,
    started: bool,
    /// `None`: backward decay, item weight `g(T − t_i)`. `Some(L)`:
    /// forward decay (Cormode et al.) against landmark `L`, item weight
    /// `g(T − L) / g(t_i − L)` — ground truth for the `td-forward`
    /// family under non-exponential decays (for exponentials the two
    /// models coincide and the backward oracle is used directly).
    forward_from: Option<Time>,
}

impl<G: DecayFunction> Oracle<G> {
    /// An empty oracle for the given decay function.
    pub fn new(decay: G) -> Self {
        Self {
            decay,
            items: Vec::new(),
            last_t: 0,
            started: false,
            forward_from: None,
        }
    }

    /// An empty oracle evaluating the *forward* decay model against
    /// `landmark`: item weight `g(T − L) / g(t_i − L)` instead of
    /// `g(T − t_i)`. All aggregate evaluators (sum, count, average,
    /// variance, selection) weigh items this way; items observed before
    /// the landmark are rejected at evaluation time (u64 underflow).
    pub fn forward(decay: G, landmark: Time) -> Self {
        let mut o = Self::new(decay);
        o.forward_from = Some(landmark);
        o
    }

    /// The per-item weight at query time `t` under the configured model.
    fn weight_at(&self, t: Time, ti: Time) -> f64 {
        match self.forward_from {
            None => self.decay.weight(t - ti),
            Some(l) => self.decay.weight(t - l) / self.decay.weight(ti - l),
        }
    }

    /// The decay function.
    pub fn decay(&self) -> &G {
        &self.decay
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no observation has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Records one item (non-decreasing `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously observed time.
    pub fn observe(&mut self, t: Time, f: u64) {
        assert!(
            !self.started || t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.started = true;
        self.last_t = t;
        self.items.push((t, f));
    }

    /// Records a sorted burst (one bulk append after validating the
    /// batch's time order once, rather than item-by-item).
    ///
    /// # Panics
    ///
    /// Panics if the batch is not sorted by non-decreasing time or
    /// starts before a previously observed time.
    pub fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let Some(&(first, _)) = items.first() else {
            return;
        };
        assert!(
            !self.started || first >= self.last_t,
            "time went backwards: {first} < {}",
            self.last_t
        );
        // A load-only validation sweep followed by one bulk memcpy: the
        // sortedness scan has no stores (it vectorizes and predicts
        // perfectly), and `extend_from_slice` amortizes the capacity
        // check once per batch instead of per push. The clock and
        // started flag move once per batch, not per item.
        assert!(
            items.windows(2).all(|w| w[0].0 <= w[1].0),
            "batch items must be sorted by non-decreasing time"
        );
        self.items.extend_from_slice(items);
        self.started = true;
        self.last_t = items.last().expect("non-empty").0;
    }

    /// Records an item that arrives out of time order, at its true
    /// timestamp — the truth behind a reorder stage. Items stay sorted
    /// and the clock does not move.
    pub fn observe_late(&mut self, t: Time, f: u64) {
        let at = self.items.partition_point(|&(ti, _)| ti <= t);
        self.items.insert(at, (t, f));
    }

    /// Advances the clock (the oracle never drops state — it is the
    /// ground truth — but it enforces the non-decreasing time model).
    pub fn advance(&mut self, t: Time) {
        assert!(
            !self.started || t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.started = true;
        self.last_t = t;
    }

    /// The exact decayed sum `Σ_{t_i < T} f_i · g(T − t_i)`.
    pub fn decayed_sum(&self, t: Time) -> f64 {
        self.weighted_fold(t, |f| f)
    }

    /// The exact decayed count `Σ_{t_i < T} g(T − t_i)` (every item
    /// contributes one unit of presence, §7).
    pub fn decayed_count(&self, t: Time) -> f64 {
        self.weighted_fold(t, |_| 1)
    }

    /// The exact decayed average `decayed_sum / decayed_count`, or
    /// `None` when no item carries positive weight at `t`.
    pub fn decayed_average(&self, t: Time) -> Option<f64> {
        let den = self.decayed_count(t);
        if den <= 0.0 {
            return None;
        }
        Some(self.decayed_sum(t) / den)
    }

    /// The exact decayed second moment `Σ f_i² · g(T − t_i)`.
    pub fn decayed_sum_of_squares(&self, t: Time) -> f64 {
        self.items
            .iter()
            .filter(|&&(ti, _)| ti < t)
            .map(|&(ti, f)| (f as f64) * (f as f64) * self.weight_at(t, ti))
            .sum()
    }

    /// The exact decayed variance `Σgf² − (Σgf)²/Σg` (non-negative by
    /// Cauchy–Schwarz; clamped against f64 cancellation).
    pub fn decayed_variance(&self, t: Time) -> f64 {
        let w = self.decayed_count(t);
        if w <= 0.0 {
            return 0.0;
        }
        let s = self.decayed_sum(t);
        (self.decayed_sum_of_squares(t) - s * s / w).max(0.0)
    }

    /// The exact time-decayed selection distribution (§7): each
    /// retained value paired with its probability of being drawn by a
    /// weight-proportional sampler at time `t`. Probabilities for
    /// repeated values are merged; the result is sorted by value and
    /// sums to 1 (empty when nothing carries weight).
    pub fn selection_distribution(&self, t: Time) -> Vec<(u64, f64)> {
        let mut mass: Vec<(u64, f64)> = Vec::new();
        for &(ti, f) in self.items.iter().filter(|&&(ti, _)| ti < t) {
            let w = self.weight_at(t, ti);
            if w <= 0.0 {
                continue;
            }
            match mass.binary_search_by_key(&f, |&(v, _)| v) {
                Ok(i) => mass[i].1 += w,
                Err(i) => mass.insert(i, (f, w)),
            }
        }
        let total: f64 = mass.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        for m in &mut mass {
            m.1 /= total;
        }
        mass
    }

    /// The exact decayed `p`-quantile (§7): the smallest retained value
    /// whose cumulative decayed weight reaches `p` of the total, or
    /// `None` when nothing carries weight.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn quantile(&self, t: Time, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        let dist = self.selection_distribution(t);
        if dist.is_empty() {
            return None;
        }
        let mut acc = 0.0;
        for &(v, w) in &dist {
            acc += w;
            if acc >= p - 1e-12 {
                return Some(v);
            }
        }
        Some(dist.last().unwrap().0)
    }

    fn weighted_fold(&self, t: Time, value: impl Fn(u64) -> u64) -> f64 {
        self.items
            .iter()
            .filter(|&&(ti, _)| ti < t)
            .map(|&(ti, f)| value(f) as f64 * self.weight_at(t, ti))
            .sum()
    }
}

impl<G: DecayFunction> StorageAccounting for Oracle<G> {
    fn storage_bits(&self) -> u64 {
        // One (timestamp, value) pair per retained item — the Θ(n)
        // floor every sketch in the workspace is measured against.
        self.items.len() as u64 * 128
    }
}

impl<G: DecayFunction> StreamAggregate for Oracle<G> {
    fn observe(&mut self, t: Time, f: u64) {
        Oracle::observe(self, t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        Oracle::observe_batch(self, items)
    }
    fn batched_ingest_amortizes(&self) -> bool {
        true // reserve-once append with one validation sweep
    }
    fn advance(&mut self, t: Time) {
        Oracle::advance(self, t)
    }
    fn query(&self, t: Time) -> f64 {
        Oracle::decayed_sum(self, t)
    }
    fn merge_from(&mut self, other: &Self) {
        // Disjoint substreams: interleave by time to restore sorted
        // arrival order.
        let mut merged = Vec::with_capacity(self.items.len() + other.items.len());
        let (mut a, mut b) = (self.items.iter().peekable(), other.items.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    if x.0 <= y.0 {
                        merged.push(x);
                        a.next();
                    } else {
                        merged.push(y);
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref());
                    break;
                }
                (None, None) => break,
            }
        }
        self.items = merged;
        self.last_t = self.last_t.max(other.last_t);
        self.started |= other.started;
        assert_eq!(
            self.forward_from, other.forward_from,
            "merging oracles with different decay models"
        );
    }
    fn error_bound(&self) -> ErrorBound {
        ErrorBound::exact()
    }
}

/// Reference for the decayed L_p norm (§7's vector reduction): retains
/// every `(t, coordinate, amount)` and evaluates
/// `(Σ_j (Σ_i f_{ij} g(T − t_i))^p)^{1/p}` directly.
pub struct CoordOracle<G> {
    decay: G,
    items: Vec<(Time, u64, u64)>,
}

impl<G: DecayFunction> CoordOracle<G> {
    /// An empty coordinate oracle.
    pub fn new(decay: G) -> Self {
        Self {
            decay,
            items: Vec::new(),
        }
    }

    /// Records `amount` on `coord` at time `t`.
    pub fn observe(&mut self, t: Time, coord: u64, amount: u64) {
        self.items.push((t, coord, amount));
    }

    /// The exact decayed L_p norm at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `p < 1` or not finite.
    pub fn lp_norm(&self, t: Time, p: f64) -> f64 {
        assert!(p.is_finite() && p >= 1.0, "p must be >= 1, got {p}");
        let mut per_coord: Vec<(u64, f64)> = Vec::new();
        for &(ti, c, f) in self.items.iter().filter(|&&(ti, _, _)| ti < t) {
            let w = f as f64 * self.decay.weight(t - ti);
            match per_coord.binary_search_by_key(&c, |&(k, _)| k) {
                Ok(i) => per_coord[i].1 += w,
                Err(i) => per_coord.insert(i, (c, w)),
            }
        }
        per_coord
            .iter()
            .map(|&(_, v)| v.abs().powf(p))
            .sum::<f64>()
            .powf(1.0 / p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_decay::{Exponential, Polynomial, SlidingWindow};

    #[test]
    fn sum_matches_hand_computation() {
        let mut o = Oracle::new(Exponential::new(0.5));
        o.observe(1, 2);
        o.observe(3, 4);
        let want = 2.0 * (-0.5f64 * 4.0).exp() + 4.0 * (-0.5f64 * 2.0).exp();
        assert!((o.decayed_sum(5) - want).abs() < 1e-12);
        // §2.1: items at the query tick are excluded.
        assert_eq!(Oracle::new(Exponential::new(0.5)).decayed_sum(9), 0.0);
        let mut p = Oracle::new(Exponential::new(0.5));
        p.observe(7, 3);
        assert_eq!(p.decayed_sum(7), 0.0);
    }

    #[test]
    fn average_and_variance() {
        let mut o = Oracle::new(SlidingWindow::new(100));
        o.observe(1, 10);
        o.observe(2, 20);
        let avg = o.decayed_average(3).unwrap();
        assert!((avg - 15.0).abs() < 1e-12);
        // var = E[f²] − E[f]² scaled by total weight: Σgf² − (Σgf)²/Σg
        let want = (100.0 + 400.0) - (30.0f64 * 30.0) / 2.0;
        assert!((o.decayed_variance(3) - want).abs() < 1e-12);
        assert_eq!(o.decayed_average(200), None);
    }

    #[test]
    fn quantile_and_selection() {
        let mut o = Oracle::new(SlidingWindow::new(100));
        for (t, f) in [(1, 5), (2, 1), (3, 9), (4, 5)] {
            o.observe(t, f);
        }
        let dist = o.selection_distribution(5);
        assert_eq!(dist.len(), 3); // values 1, 5, 9 with 5 merged
        assert!((dist.iter().map(|&(_, w)| w).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(o.quantile(5, 0.5), Some(5));
        assert_eq!(o.quantile(5, 0.0), Some(1));
        assert_eq!(o.quantile(5, 1.0), Some(9));
        assert_eq!(Oracle::new(SlidingWindow::new(5)).quantile(1, 0.5), None);
    }

    #[test]
    fn lp_norm_matches_hand_computation() {
        let mut o = CoordOracle::new(Polynomial::new(1.0));
        o.observe(1, 0, 3);
        o.observe(2, 1, 4);
        let (w0, w1): (f64, f64) = (3.0 / 2.0, 4.0 / 1.0);
        let want = (w0 * w0 + w1 * w1).sqrt();
        assert!((o.lp_norm(3, 2.0) - want).abs() < 1e-12);
    }

    #[test]
    fn forward_mode_weighs_by_landmark_ratio() {
        let g = Polynomial::new(2.0);
        let mut o = Oracle::forward(g, 0);
        o.observe(2, 3);
        o.observe(4, 5);
        let want = 3.0 * g.weight(8) / g.weight(2) + 5.0 * g.weight(8) / g.weight(4);
        assert!((o.decayed_sum(8) - want).abs() <= 1e-12 * want);
        // For exponential decay the forward and backward models agree.
        let e = Exponential::new(0.3);
        let mut fwd = Oracle::forward(e, 0);
        let mut back = Oracle::new(e);
        for (t, f) in [(1u64, 4u64), (3, 2), (7, 9)] {
            fwd.observe(t, f);
            back.observe(t, f);
        }
        let (a, b) = (fwd.decayed_sum(10), back.decayed_sum(10));
        assert!((a - b).abs() <= 1e-12 * b);
    }

    #[test]
    fn merge_restores_sorted_order() {
        let g = Exponential::new(0.1);
        let mut a = Oracle::new(g);
        let mut b = Oracle::new(g);
        let mut whole = Oracle::new(g);
        for t in 1..=50u64 {
            let f = t % 5;
            whole.observe(t, f);
            if t % 2 == 0 {
                a.observe(t, f)
            } else {
                b.observe(t, f)
            }
        }
        StreamAggregate::merge_from(&mut a, &b);
        assert!((a.decayed_sum(60) - whole.decayed_sum(60)).abs() < 1e-12);
        assert!(a.items.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
