//! The store-everything ground truth.

use std::collections::VecDeque;

use td_decay::storage::{bits_for_count, bits_for_timestamp, StorageAccounting};
use td_decay::{DecayFunction, Time};

/// An exact decayed sum that stores every item — the Ω(N)-storage
/// baseline (Lemmas 3.1 and 3.2 show this is unavoidable for exactness)
/// and the ground truth that every approximation experiment audits
/// against.
///
/// Items with zero weight (ages past the horizon of `g`) are pruned
/// lazily, so for finite-horizon decays (sliding windows) the live set
/// stays bounded by the window length.
///
/// # Examples
///
/// ```
/// use td_counters::ExactDecayedSum;
/// use td_decay::Polynomial;
/// let mut s = ExactDecayedSum::new(Polynomial::new(1.0));
/// s.observe(1, 10);
/// s.observe(3, 1);
/// // S(4) = 10·g(3) + 1·g(1) = 10/3 + 1
/// assert!((s.query(4) - (10.0 / 3.0 + 1.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ExactDecayedSum<G> {
    decay: G,
    /// Observed `(time, total value at that time)` pairs, oldest first.
    items: VecDeque<(Time, u64)>,
    last_t: Time,
    started: bool,
}

impl<G: DecayFunction> ExactDecayedSum<G> {
    /// An empty exact sum under decay `g`.
    pub fn new(decay: G) -> Self {
        Self {
            decay,
            items: VecDeque::new(),
            last_t: 0,
            started: false,
        }
    }

    /// The decay function being tracked.
    pub fn decay(&self) -> &G {
        &self.decay
    }

    /// Ingests an item of value `f` at time `t` (non-decreasing `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously observed time.
    pub fn observe(&mut self, t: Time, f: u64) {
        self.advance(t);
        if f == 0 {
            return;
        }
        match self.items.back_mut() {
            Some((bt, bf)) if *bt == t => *bf = bf.saturating_add(f),
            _ => self.items.push_back((t, f)),
        }
    }

    /// Ingests a burst of `(time, value)` items, sorted by
    /// non-decreasing time — identical end state to sequential
    /// [`observe`](Self::observe) calls, but each distinct tick costs
    /// one clock advance / prune and at most one deque push: same-tick
    /// mass is coalesced before it touches the store.
    ///
    /// # Panics
    ///
    /// Panics if any time precedes its predecessor.
    pub fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.advance(t);
            let mut mass = 0u64;
            while i < items.len() && items[i].0 == t {
                mass = mass.saturating_add(items[i].1);
                i += 1;
            }
            if mass == 0 {
                continue;
            }
            match self.items.back_mut() {
                Some((bt, bf)) if *bt == t => *bf = bf.saturating_add(mass),
                _ => self.items.push_back((t, mass)),
            }
        }
    }

    /// Advances the clock to `t` without ingesting mass, pruning items
    /// that fell past the decay horizon.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously observed time.
    pub fn advance(&mut self, t: Time) {
        if self.started {
            assert!(
                t >= self.last_t,
                "time went backwards: {t} < {}",
                self.last_t
            );
        }
        self.started = true;
        self.last_t = t;
        self.prune(t);
    }

    /// Drops items that can never again carry positive weight.
    fn prune(&mut self, now: Time) {
        if let Some(h) = self.decay.horizon() {
            while let Some(&(t, _)) = self.items.front() {
                // The item's age only grows; once past the horizon its
                // weight is 0 forever.
                if now.saturating_sub(t) > h {
                    self.items.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// Merges another exact sum's items into this one (the baseline's
    /// distributed operation — trivially exact).
    pub fn merge_from(&mut self, other: &ExactDecayedSum<G>) {
        let mut merged: VecDeque<(Time, u64)> =
            VecDeque::with_capacity(self.items.len() + other.items.len());
        let mut a = self.items.iter().copied().peekable();
        let mut b = other.items.iter().copied().peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x.0 <= y.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (t, f) = if take_a {
                a.next().expect("peeked")
            } else {
                b.next().expect("peeked")
            };
            match merged.back_mut() {
                Some((bt, bf)) if *bt == t => *bf = bf.saturating_add(f),
                _ => merged.push_back((t, f)),
            }
        }
        self.items = merged;
        self.last_t = self.last_t.max(other.last_t);
        self.started |= other.started;
        self.prune(self.last_t);
    }

    /// The exact decayed sum `S_g(T) = Σ_{t_i < T} f_i · g(T − t_i)`.
    pub fn query(&self, t: Time) -> f64 {
        self.items
            .iter()
            .filter(|&&(ti, _)| ti < t)
            .map(|&(ti, f)| f as f64 * self.decay.weight(t - ti))
            .sum()
    }

    /// The exact decayed count of *items* (each item weighted by `g`
    /// regardless of value): the denominator of the decaying average
    /// (Problem 2.2) when fed `(t, 1)` per item.
    pub fn query_weight_total(&self, t: Time) -> f64 {
        self.items
            .iter()
            .filter(|&&(ti, _)| ti < t)
            .map(|&(ti, f)| f as f64 * self.decay.weight(t - ti))
            .sum()
    }

    /// Number of live (non-pruned) arrival times.
    pub fn live_items(&self) -> usize {
        self.items.len()
    }
}

impl<G: DecayFunction> td_decay::StreamAggregate for ExactDecayedSum<G> {
    fn observe(&mut self, t: Time, f: u64) {
        ExactDecayedSum::observe(self, t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        ExactDecayedSum::observe_batch(self, items)
    }
    fn batched_ingest_amortizes(&self) -> bool {
        true // reserve-once append (2× over per-item pushes in e12)
    }
    fn advance(&mut self, t: Time) {
        ExactDecayedSum::advance(self, t)
    }
    fn query(&self, t: Time) -> f64 {
        ExactDecayedSum::query(self, t)
    }
    fn merge_from(&mut self, other: &Self) {
        ExactDecayedSum::merge_from(self, other)
    }
}

impl<G: DecayFunction> StorageAccounting for ExactDecayedSum<G> {
    fn storage_bits(&self) -> u64 {
        // Each live item: one timestamp + one exact value.
        self.items
            .iter()
            .map(|&(t, f)| bits_for_timestamp(t) + bits_for_count(f))
            .sum()
    }
}

/// Checkpoint tag for [`ExactDecayedSum`].
const TAG_EXACT: u8 = 4;

impl<G: DecayFunction> td_decay::checkpoint::Checkpoint for ExactDecayedSum<G> {
    fn save_checkpoint(&self) -> Vec<u8> {
        use td_decay::checkpoint::{fingerprint, CheckpointWriter};
        let mut w = CheckpointWriter::new(TAG_EXACT);
        w.put_u64(fingerprint(&self.decay.describe())); // configuration pin
        w.put_u64(self.last_t);
        w.put_bool(self.started);
        w.put_u64(self.items.len() as u64);
        for &(t, f) in &self.items {
            w.put_u64(t);
            w.put_u64(f);
        }
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), td_decay::RestoreError> {
        use td_decay::checkpoint::{fingerprint, CheckpointReader, RestoreError};
        let mut r = CheckpointReader::open(bytes, TAG_EXACT)?;
        let fp = r.get_u64()?;
        if fp != fingerprint(&self.decay.describe()) {
            return Err(RestoreError::Invariant(format!(
                "decay mismatch: receiver is {}",
                self.decay.describe()
            )));
        }
        let last_t = r.get_u64()?;
        let started = r.get_bool()?;
        let n = r.get_u64()?;
        let n = r.count(n, 16)?;
        let mut items = std::collections::VecDeque::with_capacity(n);
        let mut prev: Option<Time> = None;
        for _ in 0..n {
            let t = r.get_u64()?;
            let f = r.get_u64()?;
            if let Some(p) = prev {
                if t <= p {
                    return Err(RestoreError::Invariant(format!(
                        "item times not strictly increasing: {t} after {p}"
                    )));
                }
            }
            if t > last_t {
                return Err(RestoreError::Invariant(format!(
                    "item at {t} newer than checkpoint clock {last_t}"
                )));
            }
            if f == 0 {
                return Err(RestoreError::Invariant("zero-mass item".into()));
            }
            prev = Some(t);
            items.push_back((t, f));
        }
        r.finish()?;
        if !started && (last_t != 0 || !items.is_empty()) {
            return Err(RestoreError::Invariant(
                "unstarted sum carries state".into(),
            ));
        }
        self.items = items;
        self.last_t = last_t;
        self.started = started;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_decay::{Exponential, Polynomial, SlidingWindow};

    #[test]
    fn simple_weighted_sum() {
        let mut s = ExactDecayedSum::new(SlidingWindow::new(5));
        for t in 1..=10 {
            s.observe(t, 1);
        }
        // At T = 11, ages 1..=10; window keeps ages <= 5 → items t=6..10.
        assert_eq!(s.query(11), 5.0);
    }

    #[test]
    fn excludes_items_at_query_time() {
        let mut s = ExactDecayedSum::new(Exponential::new(0.5));
        s.observe(4, 3);
        assert_eq!(s.query(4), 0.0);
        assert!(s.query(5) > 0.0);
    }

    #[test]
    fn prunes_beyond_horizon() {
        let mut s = ExactDecayedSum::new(SlidingWindow::new(10));
        for t in 1..=1000 {
            s.observe(t, 1);
        }
        assert!(s.live_items() <= 11);
        assert_eq!(s.query(1001), 10.0);
    }

    #[test]
    fn no_pruning_for_infinite_support() {
        let mut s = ExactDecayedSum::new(Polynomial::new(2.0));
        for t in 1..=100 {
            s.observe(t, 1);
        }
        assert_eq!(s.live_items(), 100);
    }

    #[test]
    fn merges_same_tick_values() {
        let mut s = ExactDecayedSum::new(Polynomial::new(1.0));
        s.observe(7, 2);
        s.observe(7, 3);
        assert_eq!(s.live_items(), 1);
        assert!((s.query(8) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_from_interleaves() {
        let g = Polynomial::new(1.0);
        let mut a = ExactDecayedSum::new(g);
        let mut b = ExactDecayedSum::new(g);
        let mut whole = ExactDecayedSum::new(g);
        for t in 1..=100u64 {
            whole.observe(t, t % 5);
            if t % 2 == 0 {
                a.observe(t, t % 5);
            } else {
                b.observe(t, t % 5);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.query(101), whole.query(101));
        assert_eq!(a.live_items(), whole.live_items());
    }

    #[test]
    fn storage_grows_linearly() {
        let mut s = ExactDecayedSum::new(Polynomial::new(1.0));
        for t in 1..=64 {
            s.observe(t, 1);
        }
        let b64 = s.storage_bits();
        for t in 65..=128 {
            s.observe(t, 1);
        }
        assert!(s.storage_bits() > b64 + 64); // at least a bit per item
    }
}
