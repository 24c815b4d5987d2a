//! The classic exponential-decay counter (paper Eq. 1, §3.1).

use td_decay::checkpoint::{Checkpoint, CheckpointReader, CheckpointWriter, RestoreError};
use td_decay::storage::{bits_for_quantized_float, bits_for_timestamp, StorageAccounting};
use td_decay::{Exponential, Time};

use crate::approx::round_to_mantissa;

/// The classic EXPD counter: `C ← f + e^{-λ} C` (paper Eq. 1).
///
/// Tracks the decaying sum `S(T) = Σ_{t_i < T} f_i · e^{-λ(T - t_i)}`
/// exactly (up to f64 arithmetic) in O(1) words. The quantized sibling
/// [`QuantizedExpCounter`] restricts the mantissa to show Lemma 3.1's
/// Θ(log N)-bit storage claim.
///
/// Following the paper's query convention (§2.1), `query(T)` sums over
/// items **strictly before** `T`; items observed *at* `T` enter the sum
/// only for later query times. Observation times must be non-decreasing.
///
/// # Examples
///
/// ```
/// use td_counters::ExpCounter;
/// use td_decay::Exponential;
/// let mut c = ExpCounter::new(Exponential::new(0.5));
/// c.observe(1, 1);
/// c.observe(2, 1);
/// // S(3) = e^{-0.5·2} + e^{-0.5·1}
/// let expect = (-1.0f64).exp() + (-0.5f64).exp();
/// assert!((c.query(3) - expect).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ExpCounter {
    decay: Exponential,
    /// Decayed sum of items strictly older than `upto`, referenced at
    /// time `upto`.
    sum_before: f64,
    /// Raw sum of values observed exactly at `upto`.
    at_upto: f64,
    upto: Time,
    started: bool,
}

impl ExpCounter {
    /// An empty counter for the given exponential decay.
    pub fn new(decay: Exponential) -> Self {
        Self {
            decay,
            sum_before: 0.0,
            at_upto: 0.0,
            upto: 0,
            started: false,
        }
    }

    /// The decay function being tracked.
    pub fn decay(&self) -> Exponential {
        self.decay
    }

    /// Ingests an item of value `f` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously observed time (the stream
    /// model is ordered arrivals, §2).
    pub fn observe(&mut self, t: Time, f: u64) {
        self.advance(t);
        self.at_upto += f as f64;
    }

    /// Ingests a burst of `(time, value)` items, sorted by
    /// non-decreasing time — bit-identical to sequential
    /// [`observe`](Self::observe) calls, but the `e^{-λΔ}` rescale runs
    /// once per *distinct tick* instead of being re-checked per item.
    ///
    /// # Panics
    ///
    /// Panics if any time precedes its predecessor (within the batch or
    /// against earlier observations).
    pub fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.advance(t); // one rescale per distinct tick
            while i < items.len() && items[i].0 == t {
                self.at_upto += items[i].1 as f64;
                i += 1;
            }
        }
    }

    /// Moves the reference point forward to `t` without ingesting,
    /// applying the pending `e^{-λΔ}` fade.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously observed time.
    pub fn advance(&mut self, t: Time) {
        if !self.started {
            self.started = true;
            self.upto = t;
            return;
        }
        assert!(t >= self.upto, "time went backwards: {} < {}", t, self.upto);
        if t > self.upto {
            let fade = (-self.decay.lambda() * (t - self.upto) as f64).exp();
            self.sum_before = (self.sum_before + self.at_upto) * fade;
            self.at_upto = 0.0;
            self.upto = t;
        }
    }

    /// Merges another counter's state into this one (distributed
    /// sites over disjoint substreams): both states are brought to the
    /// later of the two reference times and the decayed masses add —
    /// exact, because exponential decay composes multiplicatively.
    ///
    /// # Panics
    ///
    /// Panics if the decay rates differ.
    pub fn merge_from(&mut self, other: &ExpCounter) {
        assert!(
            (self.decay.lambda() - other.decay.lambda()).abs() < f64::EPSILON,
            "cannot merge counters with different rates"
        );
        if !other.started {
            return;
        }
        if !self.started {
            *self = other.clone();
            return;
        }
        let t = self.upto.max(other.upto);
        self.advance(t);
        // Bring the other counter's mass to the common reference time.
        let fade = (-self.decay.lambda() * (t - other.upto) as f64).exp();
        if t > other.upto {
            self.sum_before += (other.sum_before + other.at_upto) * fade;
        } else {
            self.sum_before += other.sum_before;
            self.at_upto += other.at_upto;
        }
    }

    /// The decaying sum `S(T) = Σ_{t_i < T} f_i e^{-λ(T - t_i)}`.
    ///
    /// # Panics
    ///
    /// Panics if `T` precedes the last observed time.
    pub fn query(&self, t: Time) -> f64 {
        if !self.started {
            return 0.0;
        }
        assert!(
            t >= self.upto,
            "query time {} precedes last observation {}",
            t,
            self.upto
        );
        let base = if t > self.upto {
            self.sum_before + self.at_upto
        } else {
            self.sum_before
        };
        base * (-self.decay.lambda() * (t - self.upto) as f64).exp()
    }
}

impl StorageAccounting for ExpCounter {
    fn storage_bits(&self) -> u64 {
        // Two f64 accumulators plus the reference timestamp.
        2 * 64 + bits_for_timestamp(self.upto)
    }
}

impl td_decay::StreamAggregate for ExpCounter {
    fn observe(&mut self, t: Time, f: u64) {
        ExpCounter::observe(self, t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        ExpCounter::observe_batch(self, items)
    }
    fn advance(&mut self, t: Time) {
        ExpCounter::advance(self, t)
    }
    fn query(&self, t: Time) -> f64 {
        ExpCounter::query(self, t)
    }
    fn merge_from(&mut self, other: &Self) {
        ExpCounter::merge_from(self, other)
    }
    fn unit_weight_cap(&self) -> f64 {
        td_decay::DecayFunction::weight_cap(&self.decay)
    }
}

/// [`ExpCounter`] with an explicitly bounded mantissa.
///
/// After every state change the accumulator is rounded to
/// `mantissa_bits` significant bits, so the whole per-stream state is
/// `mantissa + exponent + timestamp` bits — the Θ(log N) upper bound of
/// Lemma 3.1 made concrete. With `m` mantissa bits, `n` sequential
/// updates keep the relative error within roughly `n · 2^{-m}`
/// (experiment E2 measures the actual accuracy-vs-bits trade-off).
#[derive(Debug, Clone)]
pub struct QuantizedExpCounter {
    inner: ExpCounter,
    mantissa_bits: u32,
    /// Rounding events applied so far — each compounds at most one
    /// `2^{-m}` relative error into the accumulator, so the certified
    /// envelope is `(1 + 2^{-m})^roundings − 1` (Lemma 3.1's
    /// accuracy-for-bits trade made stateful).
    roundings: u64,
}

impl QuantizedExpCounter {
    /// A quantized counter with the given mantissa width (clamped to
    /// `[1, 52]`).
    pub fn new(decay: Exponential, mantissa_bits: u32) -> Self {
        Self {
            inner: ExpCounter::new(decay),
            mantissa_bits: mantissa_bits.clamp(1, 52),
            roundings: 0,
        }
    }

    /// The mantissa width in bits.
    pub fn mantissa_bits(&self) -> u32 {
        self.mantissa_bits
    }

    /// Ingests an item of value `f` at time `t`, then rounds the state.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously observed time.
    pub fn observe(&mut self, t: Time, f: u64) {
        self.inner.observe(t, f);
        self.inner.sum_before = round_to_mantissa(self.inner.sum_before, self.mantissa_bits);
        self.inner.at_upto = round_to_mantissa(self.inner.at_upto, self.mantissa_bits);
        self.roundings += 1;
    }

    /// Ingests a burst of `(time, value)` items, sorted by
    /// non-decreasing time.
    ///
    /// Amortized twice over: the `e^{-λΔ}` rescale *and* the mantissa
    /// rounding each run once per distinct tick instead of once per
    /// item. Because same-tick mass accumulates un-rounded before the
    /// single rounding, a batched result can differ from the sequential
    /// one by at most the roundings skipped — i.e. batching is slightly
    /// *more* accurate, never worse.
    ///
    /// # Panics
    ///
    /// Panics if any time precedes its predecessor.
    pub fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let mut i = 0;
        while i < items.len() {
            let t = items[i].0;
            self.inner.advance(t);
            while i < items.len() && items[i].0 == t {
                self.inner.at_upto += items[i].1 as f64;
                i += 1;
            }
            self.inner.sum_before = round_to_mantissa(self.inner.sum_before, self.mantissa_bits);
            self.inner.at_upto = round_to_mantissa(self.inner.at_upto, self.mantissa_bits);
            self.roundings += 1;
        }
    }

    /// Moves the reference point forward to `t` without ingesting (see
    /// [`ExpCounter::advance`]), re-rounding the faded accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes a previously observed time.
    pub fn advance(&mut self, t: Time) {
        self.inner.advance(t);
        self.inner.sum_before = round_to_mantissa(self.inner.sum_before, self.mantissa_bits);
        self.inner.at_upto = round_to_mantissa(self.inner.at_upto, self.mantissa_bits);
        self.roundings += 1;
    }

    /// The decaying sum estimate (see [`ExpCounter::query`]).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last observed time.
    pub fn query(&self, t: Time) -> f64 {
        self.inner.query(t)
    }

    /// Merges another quantized counter (see [`ExpCounter::merge_from`]),
    /// re-rounding the result to this counter's mantissa.
    ///
    /// # Panics
    ///
    /// Panics if the decay rates differ.
    pub fn merge_from(&mut self, other: &QuantizedExpCounter) {
        self.inner.merge_from(&other.inner);
        self.inner.sum_before = round_to_mantissa(self.inner.sum_before, self.mantissa_bits);
        self.inner.at_upto = round_to_mantissa(self.inner.at_upto, self.mantissa_bits);
        self.roundings += other.roundings + 1;
    }
}

impl StorageAccounting for QuantizedExpCounter {
    fn storage_bits(&self) -> u64 {
        // One quantized accumulator pair + the timestamp. Exponent range:
        // magnitudes from e^{-λN} up to N·maxvalue; 2^±1024 covers f64.
        2 * bits_for_quantized_float(self.mantissa_bits as u64, 1024)
            + bits_for_timestamp(self.inner.upto)
    }
}

impl td_decay::StreamAggregate for QuantizedExpCounter {
    fn observe(&mut self, t: Time, f: u64) {
        QuantizedExpCounter::observe(self, t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        QuantizedExpCounter::observe_batch(self, items)
    }
    fn batched_ingest_amortizes(&self) -> bool {
        true // mantissa rounding runs once per distinct tick (8× in e12)
    }
    fn advance(&mut self, t: Time) {
        QuantizedExpCounter::advance(self, t)
    }
    fn query(&self, t: Time) -> f64 {
        QuantizedExpCounter::query(self, t)
    }
    fn merge_from(&mut self, other: &Self) {
        QuantizedExpCounter::merge_from(self, other)
    }
    fn unit_weight_cap(&self) -> f64 {
        td_decay::DecayFunction::weight_cap(&self.inner.decay)
    }
    fn error_bound(&self) -> td_decay::ErrorBound {
        // Each rounding perturbs the state by ≤ 2^{-m} relative, and
        // the perturbations compound: (1 + 2^{-m})^n − 1.
        let per = (-(self.mantissa_bits as f64)).exp2();
        td_decay::ErrorBound::symmetric((self.roundings as f64 * per.ln_1p()).exp_m1())
    }
}

/// Checkpoint tag for [`ExpCounter`].
const TAG_EXP: u8 = 1;
/// Checkpoint tag for [`QuantizedExpCounter`].
const TAG_QEXP: u8 = 2;

/// Writes the four per-stream fields shared by both counter flavours.
fn write_exp_state(w: &mut CheckpointWriter, c: &ExpCounter) {
    w.put_f64(c.decay.lambda()); // configuration pin
    w.put_f64(c.sum_before);
    w.put_f64(c.at_upto);
    w.put_u64(c.upto);
    w.put_bool(c.started);
}

/// Reads and validates the shared counter fields into `c`.
fn read_exp_state(r: &mut CheckpointReader<'_>, c: &mut ExpCounter) -> Result<(), RestoreError> {
    let lambda = r.get_f64()?;
    if lambda.to_bits() != c.decay.lambda().to_bits() {
        return Err(RestoreError::Invariant(format!(
            "decay rate mismatch: checkpoint λ={lambda}, receiver λ={}",
            c.decay.lambda()
        )));
    }
    let sum_before = r.get_f64()?;
    let at_upto = r.get_f64()?;
    let upto = r.get_u64()?;
    let started = r.get_bool()?;
    for v in [sum_before, at_upto] {
        if !v.is_finite() || v < 0.0 {
            return Err(RestoreError::Invariant(format!(
                "non-finite or negative sum {v}"
            )));
        }
    }
    if !started && (sum_before != 0.0 || at_upto != 0.0 || upto != 0) {
        return Err(RestoreError::Invariant(
            "unstarted counter carries state".into(),
        ));
    }
    c.sum_before = sum_before;
    c.at_upto = at_upto;
    c.upto = upto;
    c.started = started;
    Ok(())
}

impl Checkpoint for ExpCounter {
    fn save_checkpoint(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new(TAG_EXP);
        write_exp_state(&mut w, self);
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let mut r = CheckpointReader::open(bytes, TAG_EXP)?;
        read_exp_state(&mut r, self)?;
        r.finish()
    }
}

impl Checkpoint for QuantizedExpCounter {
    fn save_checkpoint(&self) -> Vec<u8> {
        let mut w = CheckpointWriter::new(TAG_QEXP);
        w.put_u32(self.mantissa_bits); // configuration pin
        w.put_u64(self.roundings);
        write_exp_state(&mut w, &self.inner);
        w.seal()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let mut r = CheckpointReader::open(bytes, TAG_QEXP)?;
        let m = r.get_u32()?;
        if m != self.mantissa_bits {
            return Err(RestoreError::Invariant(format!(
                "mantissa width mismatch: checkpoint {m}, receiver {}",
                self.mantissa_bits
            )));
        }
        self.roundings = r.get_u64()?;
        read_exp_state(&mut r, &mut self.inner)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactDecayedSum;

    #[test]
    fn matches_exact_baseline() {
        let g = Exponential::new(0.1);
        let mut c = ExpCounter::new(g);
        let mut exact = ExactDecayedSum::new(g);
        let mut t = 0;
        for step in 0..500u64 {
            t += 1 + step % 3; // irregular arrival times
            let f = step % 5;
            c.observe(t, f);
            exact.observe(t, f);
            let q = t + 1 + step % 7;
            let (got, want) = (c.query(q), exact.query(q));
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "t={q}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn query_excludes_items_at_query_time() {
        let mut c = ExpCounter::new(Exponential::new(1.0));
        c.observe(5, 7);
        assert_eq!(c.query(5), 0.0);
        assert!((c.query(6) - 7.0 * (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn empty_counter_is_zero() {
        let c = ExpCounter::new(Exponential::new(0.5));
        assert_eq!(c.query(100), 0.0);
    }

    #[test]
    fn recurrence_form_matches_paper_eq_1() {
        // S(t) = f(t) + e^{-λ} S(t−1), with query(T) = S(T−1) decayed one
        // tick: drive both forms over a dense 0/1 stream.
        let lambda = 0.3f64;
        let fade = (-lambda).exp();
        let mut s = 0.0;
        let mut c = ExpCounter::new(Exponential::new(lambda));
        for t in 0..200u64 {
            let f = (t * 7 % 3 == 0) as u64;
            s = f as f64 + fade * s; // paper Eq. 1 at time t
            c.observe(t, f);
            // paper S_EXPD(t) includes items at t with weight 1; our
            // query(t+1) sees them with weight e^{-λ}: compare there.
            assert!((c.query(t + 1) - s * fade).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_unordered_arrivals() {
        let mut c = ExpCounter::new(Exponential::new(0.5));
        c.observe(10, 1);
        c.observe(9, 1);
    }

    #[test]
    fn quantized_error_shrinks_with_mantissa() {
        let g = Exponential::new(0.05);
        let mut exact = ExactDecayedSum::new(g);
        let mut coarse = QuantizedExpCounter::new(g, 8);
        let mut fine = QuantizedExpCounter::new(g, 30);
        for t in 1..=2000u64 {
            let f = 1 + t % 4;
            exact.observe(t, f);
            coarse.observe(t, f);
            fine.observe(t, f);
        }
        let want = exact.query(2001);
        let err = |got: f64| (got - want).abs() / want;
        assert!(err(fine.query(2001)) < err(coarse.query(2001)).max(1e-12));
        assert!(err(fine.query(2001)) < 1e-6);
        assert!(err(coarse.query(2001)) < 0.05);
    }

    #[test]
    fn merge_from_is_exact() {
        let g = Exponential::new(0.02);
        let mut whole = ExpCounter::new(g);
        let mut a = ExpCounter::new(g);
        let mut b = ExpCounter::new(g);
        let mut x = 5u64;
        for t in 1..=2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = x % 9;
            whole.observe(t, f);
            if x.is_multiple_of(2) {
                a.observe(t, f);
            } else {
                b.observe(t, f);
            }
        }
        a.merge_from(&b);
        let (m, w) = (a.query(2_001), whole.query(2_001));
        assert!((m - w).abs() <= 1e-9 * w.max(1.0), "{m} vs {w}");
    }

    #[test]
    fn merge_from_empty_sides() {
        let g = Exponential::new(0.1);
        let mut a = ExpCounter::new(g);
        let empty = ExpCounter::new(g);
        a.observe(3, 7);
        a.merge_from(&empty);
        assert!((a.query(4) - 7.0 * (-0.1f64).exp()).abs() < 1e-12);
        let mut b = ExpCounter::new(g);
        b.merge_from(&a);
        assert!((b.query(4) - a.query(4)).abs() < 1e-12);
    }

    #[test]
    fn quantized_storage_is_logarithmic() {
        let c = QuantizedExpCounter::new(Exponential::new(0.1), 16);
        let full = ExpCounter::new(Exponential::new(0.1));
        assert!(c.storage_bits() < full.storage_bits());
    }
}
