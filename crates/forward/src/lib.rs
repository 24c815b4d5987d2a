//! Forward-decay moment accumulators: O(1) ingest for **any** decay.
//!
//! The backward model of Cohen & Strauss weighs an item observed at `tᵢ`
//! by `g(T − tᵢ)` at query time `T`; every backward backend in this
//! workspace pays per-item histogram maintenance (bucket merges, cascade
//! rotation) to approximate `Σ fᵢ·g(T − tᵢ)`. *Forward decay* (Cormode,
//! Shkapenyuk, Srivastava, Xu) fixes a landmark `L` and weighs the item
//! by the ratio `g(T − L) / g(tᵢ − L)` instead: the per-item factor
//! `r(tᵢ) = 1/g(tᵢ − L)` is known **at ingest time**, so maintaining the
//! g-weighted moments
//!
//! ```text
//! mⱼ = Σ fᵢʲ · r(tᵢ),   j ∈ {0, 1, 2}
//! ```
//!
//! is a straight-line multiply-add per item — no buckets at all — and a
//! query just renormalizes by `g(T − L)`. For exponential decay the two
//! models coincide exactly (`e^{−λ(T−L)}/e^{−λ(tᵢ−L)} = e^{−λ(T−tᵢ)}`);
//! for every other family forward decay is a different, self-consistent
//! semantics that trades the backward guarantee for O(1) ingest and O(1)
//! words of state.
//!
//! # Backends
//!
//! * [`ForwardDecaySum`] — `g(T−L)·m₁`, the forward decayed sum.
//! * [`ForwardDecayAverage`] — `m₁/m₀`; the renormalizer cancels, so the
//!   answer is landmark-invariant and matches the backward average under
//!   exponential decay exactly.
//! * [`ForwardDecayVariance`] — `g(T−L)·(m₂ − m₁²/m₀)`, clamped at 0.
//!
//! All three sit behind the full [`StreamAggregate`] trait (strict-past
//! §2.1 query semantics via a main/at-tick moment split, mergeable,
//! checkpointable) so they drop into the shard engine, the reorder
//! stage, and the fault harness unchanged.
//!
//! # Overflow safety: landmark rotation
//!
//! The raw accumulators grow like `r(t − L)`, which for exponential
//! decay is `e^{λ(t−L)}` — unbounded streams would overflow. When the
//! decay classifies as [`DecayClass::Exponential`] the engine *rotates*
//! the landmark: once `λ(t − L)` crosses a threshold (default
//! [`DEFAULT_ROTATION_EXPONENT`] nats) all six moments are rescaled by
//! `g(L′ − L)` in one pass and the landmark advances. The rescale is
//! exact for exponentials (rounding is charged to the error budget) and
//! steps in ≤ threshold-nat increments so the factor never leaves the
//! normal f64 range, even across long silences. Non-exponential decays
//! admit no exact rescale, so they pin `L = 0` forever — merges share a
//! landmark by construction — and the constructor checks the configured
//! [`max_time`](ForwardDecaySum::with_max_time) leaves f64 headroom.
//! Finite-horizon decays (`g(x) = 0` somewhere) have no forward form
//! (the reciprocal diverges) and are rejected at construction.
//!
//! # Error accounting
//!
//! Every backend reports an honest, state-dependent
//! [`error_bound`](StreamAggregate::error_bound): a unit-in-last-place
//! budget accumulated per arithmetic event (3 per item, one per moment;
//! 3 per clock fold; 2 per landmark rotation; a fan-in surcharge per
//! merge) plus twice the decay family's
//! [`kernel_relative_error`](DecayFunction::kernel_relative_error) for
//! the batched ingest and query renormalization kernels. Positive-sum
//! accumulation keeps true rounding far below this worst-case bound; the
//! conformance matrix certifies every query inside it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use td_decay::checkpoint::{
    fingerprint, Checkpoint, CheckpointReader, CheckpointWriter, RestoreError,
};
use td_decay::soa::{forward_weights, CHUNK};
use td_decay::storage::{bits_for_count, bits_for_timestamp};
use td_decay::{DecayClass, DecayFunction, ErrorBound, StorageAccounting, StreamAggregate, Time};

/// Default time horizon the fixed-landmark (non-exponential) mode is
/// headroom-checked against at construction: `r(max_time) = 1/g(max_time)`
/// must leave room for a full stream of mass on top (2^44 ticks ≈ 557
/// years of milliseconds).
pub const DEFAULT_MAX_TIME: Time = 1 << 44;

/// Default landmark-rotation threshold in nats for exponential decays:
/// rotate once the incoming per-item scale `e^{λ(t−L)}` would exceed
/// `e^500` ≈ 7·10²¹⁷, leaving ~90 decimal orders of headroom for the
/// accumulated mass before f64 overflow.
pub const DEFAULT_ROTATION_EXPONENT: f64 = 500.0;

/// Ceiling for the per-item scale the fixed-landmark headroom check
/// admits at `max_time`: `1/g(max_time)` above this would leave fewer
/// than ~48 decimal orders for the mass itself.
const HEADROOM_CEILING: f64 = 1e260;

/// ULP-budget charges (see crate docs): per item accumulated, per
/// at-tick fold, per landmark rotation, and the merge fan-in surcharge.
const BUDGET_PER_ITEM: f64 = 3.0;
const BUDGET_PER_FOLD: f64 = 3.0;
const BUDGET_PER_ROTATION: f64 = 2.0;
const BUDGET_PER_MERGE: f64 = 8.0;
/// Flat query-side charge (two weight evaluations, two multiplies, the
/// moment-combination arithmetic) folded into every reported bound.
const BUDGET_QUERY: f64 = 32.0;

/// Checkpoint tags for the forward family (9 and below are taken by the
/// backward backends; see `crates/*/src/*.rs`).
const TAG_FORWARD_SUM: u8 = 10;
const TAG_FORWARD_AVG: u8 = 11;
const TAG_FORWARD_VAR: u8 = 12;

/// Landmark management mode, derived from [`DecayFunction::classify`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Exponential decay: the landmark rotates to keep `λ(t − L)` below
    /// the configured threshold; the rescale `g(L′ − L)` is exact.
    Rotating {
        /// The decay rate, cached from `classify()`.
        lambda: f64,
    },
    /// Any other strictly-positive decay: no exact rescale exists, so
    /// the landmark is pinned at 0 and headroom is checked up front.
    Fixed,
}

/// The shared forward-decay engine: six f64 moments (main + at-tick for
/// j = 0, 1, 2), a landmark, a clock, and an error budget.
#[derive(Debug, Clone)]
struct ForwardEngine<G> {
    decay: G,
    mode: Mode,
    rotation_exponent: f64,
    max_time: Time,
    landmark: Time,
    last_t: Time,
    started: bool,
    /// Moments over items strictly before `last_t` (the §2.1 past).
    main: [f64; 3],
    /// Moments over items exactly at `last_t`, excluded from queries at
    /// `T = last_t` and folded into `main` on the next clock advance.
    at_tick: [f64; 3],
    rotations: u64,
    budget: f64,
}

impl<G: DecayFunction> ForwardEngine<G> {
    fn new(decay: G, max_time: Time, rotation_exponent: f64) -> Self {
        assert!(
            decay.horizon().is_none(),
            "forward decay requires strictly positive weights at every age; \
             finite-horizon decay {} has no forward form (1/g diverges)",
            decay.describe()
        );
        assert!(
            rotation_exponent.is_finite() && rotation_exponent > 0.0 && rotation_exponent <= 700.0,
            "rotation exponent must be in (0, 700] nats, got {rotation_exponent}"
        );
        let mode = match decay.classify() {
            DecayClass::Exponential { lambda } => Mode::Rotating { lambda },
            _ => {
                let w = decay.weight(max_time);
                let r = 1.0 / w;
                assert!(
                    w > 0.0 && r.is_finite() && r < HEADROOM_CEILING,
                    "fixed-landmark forward decay {} lacks f64 headroom at \
                     max_time {max_time}: 1/g = {r:e} (ceiling {HEADROOM_CEILING:e})",
                    decay.describe()
                );
                Mode::Fixed
            }
        };
        Self {
            decay,
            mode,
            rotation_exponent,
            max_time,
            landmark: 0,
            last_t: 0,
            started: false,
            main: [0.0; 3],
            at_tick: [0.0; 3],
            rotations: 0,
            budget: 0.0,
        }
    }

    /// First observation: anchor the clock, and (rotating mode) the
    /// landmark, at the stream's first tick for maximal headroom.
    fn start(&mut self, t: Time) {
        self.started = true;
        self.last_t = t;
        if let Mode::Rotating { .. } = self.mode {
            self.landmark = t;
        }
    }

    fn fold_at_tick(&mut self) {
        for j in 0..3 {
            self.main[j] += self.at_tick[j];
            self.at_tick[j] = 0.0;
        }
        self.budget += BUDGET_PER_FOLD;
    }

    fn needs_rotation(&self, t: Time) -> bool {
        match self.mode {
            Mode::Rotating { lambda } => {
                lambda * ((t - self.landmark) as f64) > self.rotation_exponent
            }
            Mode::Fixed => false,
        }
    }

    /// Advance the landmark until `λ(t − L) ≤ threshold`, rescaling all
    /// moments by `g(L′ − L)` in ≤ threshold-nat steps so each factor
    /// stays a normal f64 (a single rescale across a long silence could
    /// underflow to 0 while the renormalized mass is still finite).
    fn rotate_towards(&mut self, t: Time) {
        let Mode::Rotating { lambda } = self.mode else {
            return;
        };
        let step = (((self.rotation_exponent / lambda).floor()) as u64).max(1);
        while lambda * ((t - self.landmark) as f64) > self.rotation_exponent {
            // Dead-mass fast-forward: once every moment has decayed
            // below the normal range, rescaling can never bring it back
            // and the renormalized answer is < 2^-1022 — dead for every
            // envelope. Zero it and jump the landmark to `t` instead of
            // walking a potentially astronomic silence (scenario clocks
            // reach 10^16 ticks) in threshold steps. The cutoff must be
            // `< MIN_POSITIVE`, not `== 0.0`: for thresholds below
            // ln 2 the per-step factor exceeds ½, and round-to-nearest
            // then keeps the smallest subnormal alive forever
            // (5e-324 × 0.61 rounds back up to 5e-324), which turned
            // this loop into an effectively unbounded walk.
            if self
                .main
                .iter()
                .chain(self.at_tick.iter())
                .all(|m| m.abs() < f64::MIN_POSITIVE)
            {
                self.main = [0.0; 3];
                self.at_tick = [0.0; 3];
                self.landmark = t;
                break;
            }
            let dl = step.min(t - self.landmark);
            let factor = self.decay.weight(dl);
            for m in &mut self.main {
                *m *= factor;
            }
            for m in &mut self.at_tick {
                *m *= factor;
            }
            self.landmark += dl;
            self.rotations += 1;
            self.budget += BUDGET_PER_ROTATION;
        }
    }

    fn advance_to(&mut self, t: Time) {
        if !self.started {
            self.start(t);
            return;
        }
        assert!(
            t >= self.last_t,
            "time went backwards: advance({t}) after {}",
            self.last_t
        );
        if t > self.last_t {
            self.rotate_towards(t);
            self.fold_at_tick();
            self.last_t = t;
        }
    }

    fn accumulate(&mut self, r: f64, f: u64) {
        let fv = f as f64;
        self.at_tick[0] += r;
        self.at_tick[1] += fv * r;
        self.at_tick[2] += (fv * fv) * r;
    }

    /// Scalar ingest routes through the same [`forward_weights`] kernel
    /// as the batched path (a 1-element dispatch), so per-item and
    /// batched feeds of the same stream produce bit-identical state —
    /// the reorder-equivalence law every backend in the workspace obeys.
    fn observe_one(&mut self, t: Time, f: u64) {
        self.advance_to(t);
        let mut r = [0.0f64; 1];
        forward_weights(&self.decay, self.landmark, &[t], &mut r);
        self.accumulate(r[0], f);
        self.budget += BUDGET_PER_ITEM;
    }

    /// Batched ingest: gather up to [`CHUNK`] distinct ticks, evaluate
    /// their reciprocal weights through one [`forward_weights`] kernel
    /// dispatch, then multiply-add each same-tick run. Segments that
    /// would cross a rotation threshold fall back to the scalar path
    /// (rare: once per `threshold/λ` ticks at the default threshold).
    fn ingest_batch(&mut self, items: &[(Time, u64)]) {
        if items.is_empty() {
            return;
        }
        if !self.started {
            self.start(items[0].0);
        }
        let n = items.len();
        let mut ticks = [0u64; CHUNK];
        let mut ends = [0usize; CHUNK];
        let mut w = [0.0f64; CHUNK];
        let mut i = 0usize;
        while i < n {
            let seg_start = i;
            let mut k = 0usize;
            let mut prev = self.last_t;
            while i < n && k < CHUNK {
                let t = items[i].0;
                assert!(t >= prev, "time went backwards: observe({t}) after {prev}");
                prev = t;
                while i < n && items[i].0 == t {
                    i += 1;
                }
                ticks[k] = t;
                ends[k] = i;
                k += 1;
            }
            if self.needs_rotation(ticks[k - 1]) {
                for &(t, f) in &items[seg_start..i] {
                    self.observe_one(t, f);
                }
                continue;
            }
            forward_weights(&self.decay, self.landmark, &ticks[..k], &mut w[..k]);
            let mut idx = seg_start;
            for j in 0..k {
                if ticks[j] > self.last_t {
                    self.fold_at_tick();
                    self.last_t = ticks[j];
                }
                let r = w[j];
                for &(_, f) in &items[idx..ends[j]] {
                    self.accumulate(r, f);
                }
                self.budget += BUDGET_PER_ITEM * (ends[j] - idx) as f64 + 2.0;
                idx = ends[j];
            }
        }
    }

    /// The §2.1 strict-past moment selection: items at exactly `t` are
    /// excluded; items at `last_t < t` have aged into the past.
    fn bases(&self, t: Time) -> [f64; 3] {
        if self.started {
            assert!(
                t >= self.last_t,
                "query({t}) before the last observation at {}",
                self.last_t
            );
        }
        let mut b = self.main;
        if t > self.last_t {
            for (bj, aj) in b.iter_mut().zip(self.at_tick) {
                *bj += aj;
            }
        }
        b
    }

    /// Renormalize a moment combination by `g(t − L)`. Rotating mode
    /// factors the weight as `g(t − last_t) · g(last_t − L)` — rotation
    /// keeps the second exponent below the threshold and the first
    /// underflows only when the true answer does; a direct `g(t − L)`
    /// could underflow while the product with a large moment is still
    /// representable.
    fn renorm(&self, t: Time, x: f64) -> f64 {
        match self.mode {
            Mode::Rotating { .. } => {
                let inner = self.decay.weight(self.last_t - self.landmark);
                self.decay.weight(t.saturating_sub(self.last_t)) * (inner * x)
            }
            Mode::Fixed => self.decay.weight(t - self.landmark) * x,
        }
    }

    fn sum_at(&self, t: Time) -> f64 {
        let b = self.bases(t);
        self.renorm(t, b[1])
    }

    fn average_at(&self, t: Time) -> f64 {
        let b = self.bases(t);
        if b[0] <= 0.0 {
            return 0.0;
        }
        b[1] / b[0]
    }

    fn variance_at(&self, t: Time) -> f64 {
        let b = self.bases(t);
        if b[0] <= 0.0 {
            return 0.0;
        }
        let centered = (b[2] - b[1] * (b[1] / b[0])).max(0.0);
        self.renorm(t, centered)
    }

    /// The accumulated worst-case relative rounding bound (crate docs).
    fn rel_bound(&self) -> f64 {
        (self.budget + BUDGET_QUERY) * f64::EPSILON + 2.0 * self.decay.kernel_relative_error()
    }

    fn merge_with(&mut self, other: &Self) {
        assert_eq!(
            self.decay.describe(),
            other.decay.describe(),
            "merging forward accumulators with different decay functions"
        );
        if !other.started {
            self.budget += other.budget;
            return;
        }
        if !self.started {
            self.landmark = other.landmark;
            self.last_t = other.last_t;
            self.started = true;
            self.main = other.main;
            self.at_tick = other.at_tick;
            self.rotations = other.rotations;
            self.budget += other.budget + BUDGET_PER_MERGE;
            return;
        }
        // Landmark reconciliation: the smaller-landmark side's moments
        // are in units of 1/g(t − L_small); multiplying them by
        // g(L_big − L_small) re-expresses them against L_big (exact for
        // exponentials, the only rotating mode; fixed mode pins L = 0 so
        // both sides agree by construction).
        let (mut o_main, mut o_at) = (other.main, other.at_tick);
        match self.landmark.cmp(&other.landmark) {
            core::cmp::Ordering::Less => {
                let f = self.decay.weight(other.landmark - self.landmark);
                for m in self.main.iter_mut().chain(self.at_tick.iter_mut()) {
                    *m *= f;
                }
                self.landmark = other.landmark;
                self.budget += BUDGET_PER_ROTATION;
            }
            core::cmp::Ordering::Greater => {
                let f = self.decay.weight(self.landmark - other.landmark);
                for m in o_main.iter_mut().chain(o_at.iter_mut()) {
                    *m *= f;
                }
                self.budget += BUDGET_PER_ROTATION;
            }
            core::cmp::Ordering::Equal => {}
        }
        // Clock reconciliation: whichever side's at-tick bucket is
        // strictly in the merged past gets folded (§2.1).
        match other.last_t.cmp(&self.last_t) {
            core::cmp::Ordering::Less => {
                for j in 0..3 {
                    self.main[j] += o_main[j] + o_at[j];
                }
            }
            core::cmp::Ordering::Equal => {
                for j in 0..3 {
                    self.main[j] += o_main[j];
                    self.at_tick[j] += o_at[j];
                }
            }
            core::cmp::Ordering::Greater => {
                self.fold_at_tick();
                self.last_t = other.last_t;
                for (mj, oj) in self.main.iter_mut().zip(o_main) {
                    *mj += oj;
                }
                self.at_tick = o_at;
            }
        }
        self.rotations += other.rotations;
        self.budget += other.budget + BUDGET_PER_MERGE;
    }

    fn storage_bits(&self) -> u64 {
        6 * 64
            + bits_for_timestamp(self.last_t)
            + bits_for_timestamp(self.landmark)
            + bits_for_count(self.rotations)
            + 64 // error budget
    }

    /// Configuration pin stored in checkpoints: decay identity plus the
    /// two knobs that change numeric behavior.
    fn config_pin(&self) -> u64 {
        fingerprint(&format!(
            "{}|max_time={}|rotation_exponent={}",
            self.decay.describe(),
            self.max_time,
            self.rotation_exponent
        ))
    }

    fn save_into(&self, tag: u8) -> Vec<u8> {
        let mut w = CheckpointWriter::new(tag);
        w.put_u64(self.config_pin());
        w.put_u64(self.landmark);
        w.put_u64(self.last_t);
        w.put_bool(self.started);
        w.put_u64(self.rotations);
        w.put_f64(self.budget);
        for m in self.main.iter().chain(self.at_tick.iter()) {
            w.put_f64(*m);
        }
        w.seal()
    }

    fn restore_from(&mut self, tag: u8, bytes: &[u8]) -> Result<(), RestoreError> {
        let mut r = CheckpointReader::open(bytes, tag)?;
        let fp = r.get_u64()?;
        if fp != self.config_pin() {
            return Err(RestoreError::Invariant(format!(
                "configuration mismatch: checkpoint pin {fp:#018x} != receiver {:#018x}",
                self.config_pin()
            )));
        }
        let landmark = r.get_u64()?;
        let last_t = r.get_u64()?;
        let started = r.get_bool()?;
        let rotations = r.get_u64()?;
        let budget = r.get_f64()?;
        let mut moments = [0.0f64; 6];
        for m in &mut moments {
            *m = r.get_f64()?;
        }
        r.finish()?;
        if !budget.is_finite() || budget < 0.0 {
            return Err(RestoreError::Invariant(format!(
                "error budget must be finite and non-negative, got {budget}"
            )));
        }
        for m in &moments {
            if !m.is_finite() || *m < 0.0 {
                return Err(RestoreError::Invariant(format!(
                    "moments must be finite and non-negative, got {m}"
                )));
            }
        }
        if started {
            if landmark > last_t {
                return Err(RestoreError::Invariant(format!(
                    "landmark {landmark} ahead of clock {last_t}"
                )));
            }
            if self.mode == Mode::Fixed && landmark != 0 {
                return Err(RestoreError::Invariant(format!(
                    "fixed-landmark decay with nonzero landmark {landmark}"
                )));
            }
        } else if landmark != 0
            || last_t != 0
            || rotations != 0
            || budget != 0.0
            || moments.iter().any(|m| *m != 0.0)
        {
            return Err(RestoreError::Invariant(
                "unstarted accumulator carries state".into(),
            ));
        }
        self.landmark = landmark;
        self.last_t = last_t;
        self.started = started;
        self.rotations = rotations;
        self.budget = budget;
        self.main.copy_from_slice(&moments[..3]);
        self.at_tick.copy_from_slice(&moments[3..]);
        Ok(())
    }
}

macro_rules! forward_backend {
    ($(#[$doc:meta])* $name:ident, $tag:expr, $query:ident, $bound:expr, $cap:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name<G> {
            core: ForwardEngine<G>,
        }

        impl<G: DecayFunction> $name<G> {
            /// Builds the accumulator with [`DEFAULT_MAX_TIME`] headroom
            /// and the [`DEFAULT_ROTATION_EXPONENT`] threshold.
            ///
            /// # Panics
            ///
            /// If the decay has a finite horizon (no forward form), or a
            /// fixed-landmark decay lacks f64 headroom at the default
            /// `max_time`.
            pub fn new(decay: G) -> Self {
                Self::with_max_time(decay, DEFAULT_MAX_TIME)
            }

            /// Builds the accumulator headroom-checked against a custom
            /// time horizon (fixed-landmark mode only; rotating mode has
            /// no horizon). Observing past `max_time` voids the overflow
            /// guarantee.
            pub fn with_max_time(decay: G, max_time: Time) -> Self {
                Self {
                    core: ForwardEngine::new(decay, max_time, DEFAULT_ROTATION_EXPONENT),
                }
            }

            /// Overrides the landmark-rotation threshold (nats). Smaller
            /// thresholds rotate more often — the stability proptests use
            /// this to force hundreds of rotations on short streams.
            ///
            /// # Panics
            ///
            /// If `nats` is not in `(0, 700]`, or the accumulator has
            /// already started observing.
            pub fn with_rotation_exponent(mut self, nats: f64) -> Self {
                assert!(
                    !self.core.started,
                    "rotation threshold must be set before the first observation"
                );
                assert!(
                    nats.is_finite() && nats > 0.0 && nats <= 700.0,
                    "rotation exponent must be in (0, 700] nats, got {nats}"
                );
                self.core.rotation_exponent = nats;
                self
            }

            /// The decay function this accumulator weighs by.
            pub fn decay(&self) -> &G {
                &self.core.decay
            }

            /// The current landmark `L`.
            pub fn landmark(&self) -> Time {
                self.core.landmark
            }

            /// How many landmark rotations have rescaled the moments.
            pub fn rotations(&self) -> u64 {
                self.core.rotations
            }
        }

        impl<G: DecayFunction> StorageAccounting for $name<G> {
            fn storage_bits(&self) -> u64 {
                self.core.storage_bits()
            }
        }

        impl<G: DecayFunction> StreamAggregate for $name<G> {
            fn observe(&mut self, t: Time, f: u64) {
                self.core.observe_one(t, f);
            }

            fn observe_batch(&mut self, items: &[(Time, u64)]) {
                self.core.ingest_batch(items);
            }

            fn batched_ingest_amortizes(&self) -> bool {
                true
            }

            fn advance(&mut self, t: Time) {
                self.core.advance_to(t);
            }

            fn query(&self, t: Time) -> f64 {
                self.core.$query(t)
            }

            fn merge_from(&mut self, other: &Self) {
                self.core.merge_with(&other.core);
            }

            fn error_bound(&self) -> ErrorBound {
                let bound: fn(&ForwardEngine<G>) -> ErrorBound = $bound;
                bound(&self.core)
            }

            fn unit_weight_cap(&self) -> f64 {
                let cap: fn(&ForwardEngine<G>) -> f64 = $cap;
                cap(&self.core)
            }
        }

        impl<G: DecayFunction> Checkpoint for $name<G> {
            fn save_checkpoint(&self) -> Vec<u8> {
                self.core.save_into($tag)
            }

            fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
                self.core.restore_from($tag, bytes)
            }
        }
    };
}

forward_backend!(
    /// Forward decayed sum: `g(T−L)·Σ fᵢ/g(tᵢ−L)`.
    ///
    /// Under exponential decay this equals the backward decayed sum
    /// `Σ fᵢ·e^{−λ(T−tᵢ)}` exactly (modulo the reported rounding
    /// budget); under any other decay it is the forward-model sum.
    ForwardDecaySum,
    TAG_FORWARD_SUM,
    sum_at,
    |core| ErrorBound::symmetric(core.rel_bound()),
    // A unit weighs the backward g(T − t) under exponential decay, else
    // g(T − L)/g(t − L) ≤ 1.
    |core| match core.decay.classify() {
        DecayClass::Exponential { .. } => core.decay.weight_cap(),
        _ => core.decay.weight_cap().max(1.0),
    }
);

forward_backend!(
    /// Forward decayed average: `m₁/m₀`. The renormalizer cancels, so
    /// the answer is landmark-invariant; returns 0 on an empty past.
    /// The bound doubles the sum budget (a quotient of two rounded
    /// positive sums).
    ForwardDecayAverage,
    TAG_FORWARD_AVG,
    average_at,
    |core| ErrorBound::symmetric(2.0 * core.rel_bound()),
    |_core| f64::INFINITY
);

forward_backend!(
    /// Forward decayed variance: `g(T−L)·(m₂ − m₁²/m₀)`, clamped at 0.
    ///
    /// Reports [`ErrorBound::unbounded`]: the subtraction can cancel
    /// catastrophically when the variance is small relative to `m₂`, so
    /// no *relative* guarantee exists. The absolute error stays within
    /// `~2·budget·ε` of the second moment `g(T−L)·m₂`; conformance
    /// certifies against that absolute envelope
    /// (`TruthKind::Variance`).
    ForwardDecayVariance,
    TAG_FORWARD_VAR,
    variance_at,
    |_core| ErrorBound::unbounded(),
    |_core| f64::INFINITY
);

#[cfg(test)]
mod tests {
    use super::*;
    use td_decay::{Constant, Exponential, LogDecay, Polynomial, SlidingWindow};

    /// Brute-force forward-model reference: Σ over retained items of
    /// fʲ·g(T−L)/g(tᵢ−L), strict past.
    struct Reference<G> {
        decay: G,
        landmark: Time,
        items: Vec<(Time, u64)>,
    }

    impl<G: DecayFunction> Reference<G> {
        fn forward(decay: G, landmark: Time) -> Self {
            Self {
                decay,
                landmark,
                items: Vec::new(),
            }
        }

        fn moment(&self, t: Time, j: u32) -> f64 {
            self.items
                .iter()
                .filter(|&&(ti, _)| ti < t)
                .map(|&(ti, f)| {
                    (f as f64).powi(j as i32) * self.decay.weight(t - self.landmark)
                        / self.decay.weight(ti - self.landmark)
                })
                .sum()
        }

        fn sum(&self, t: Time) -> f64 {
            self.moment(t, 1)
        }

        fn average(&self, t: Time) -> f64 {
            let den = self.moment(t, 0);
            if den <= 0.0 {
                0.0
            } else {
                self.moment(t, 1) / den
            }
        }

        fn variance(&self, t: Time) -> f64 {
            let w = self.moment(t, 0);
            if w <= 0.0 {
                return 0.0;
            }
            (self.moment(t, 2) - self.moment(t, 1).powi(2) / w).max(0.0)
        }
    }

    fn stream(seed: u64, n: usize, max_gap: u64) -> Vec<(Time, u64)> {
        let mut x = seed | 1;
        let mut t = 5u64;
        let mut items = Vec::new();
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += x % (max_gap + 1);
            items.push((t, x >> 32 & 0xff));
        }
        items
    }

    #[test]
    fn exp_sum_matches_backward_reference() {
        let lam = 0.05;
        let mut agg = ForwardDecaySum::new(Exponential::new(lam));
        let items = stream(7, 500, 9);
        let mut exact: Vec<(Time, u64)> = Vec::new();
        for &(t, f) in &items {
            agg.observe(t, f);
            exact.push((t, f));
        }
        let last = items.last().unwrap().0;
        for probe in [last, last + 1, last + 40, last + 900] {
            let want: f64 = exact
                .iter()
                .filter(|&&(ti, _)| ti < probe)
                .map(|&(ti, f)| f as f64 * (-(lam) * (probe - ti) as f64).exp())
                .sum();
            let got = agg.query(probe);
            assert!(
                (got - want).abs() <= 1e-9 * want.abs() + 1e-12,
                "probe {probe}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn poly_family_matches_forward_reference() {
        let mk = || Polynomial::new(1.5);
        let mut sum = ForwardDecaySum::new(mk());
        let mut avg = ForwardDecayAverage::new(mk());
        let mut var = ForwardDecayVariance::new(mk());
        let mut reference = Reference::forward(mk(), 0);
        let items = stream(13, 400, 31);
        sum.observe_batch(&items);
        avg.observe_batch(&items);
        var.observe_batch(&items);
        reference.items = items.clone();
        let last = items.last().unwrap().0;
        for probe in [last, last + 3, last + 1000] {
            let tol = |x: f64| 1e-9 * x.abs() + 1e-9;
            let (s, a, v) = (sum.query(probe), avg.query(probe), var.query(probe));
            assert!((s - reference.sum(probe)).abs() <= tol(reference.sum(probe)));
            assert!((a - reference.average(probe)).abs() <= tol(reference.average(probe)));
            assert!((v - reference.variance(probe)).abs() <= tol(reference.variance(probe)));
        }
    }

    #[test]
    fn at_tick_items_are_excluded_until_the_clock_moves() {
        let mut agg = ForwardDecaySum::new(Exponential::new(0.1));
        agg.observe(10, 4);
        agg.observe(20, 6);
        // Query at the burst tick sees only the strictly-past item.
        let at_tick = agg.query(20);
        let want = 4.0 * (-0.1f64 * 10.0).exp();
        assert!((at_tick - want).abs() <= 1e-12 * want);
        // One tick later both items are past.
        let after = agg.query(21);
        let want_after = 4.0 * (-0.1f64 * 11.0).exp() + 6.0 * (-0.1f64).exp();
        assert!((after - want_after).abs() <= 1e-12 * want_after);
    }

    #[test]
    fn forced_rotation_preserves_answers() {
        let lam = 0.25;
        let items = stream(99, 600, 3);
        let mut rotated = ForwardDecaySum::new(Exponential::new(lam)).with_rotation_exponent(1.0);
        let mut plain = ForwardDecaySum::new(Exponential::new(lam));
        for &(t, f) in &items {
            rotated.observe(t, f);
            plain.observe(t, f);
        }
        assert!(
            rotated.rotations() >= 100,
            "expected ≥100 forced rotations, got {}",
            rotated.rotations()
        );
        let probe = items.last().unwrap().0 + 2;
        let (a, b) = (rotated.query(probe), plain.query(probe));
        assert!(a.is_finite() && b.is_finite());
        assert!((a - b).abs() <= 1e-9 * b.abs() + 1e-12, "{a} vs {b}");
    }

    #[test]
    fn batched_equals_scalar_even_across_rotations() {
        for rot in [1.5, DEFAULT_ROTATION_EXPONENT] {
            let items = stream(3, 800, 5);
            let mut single =
                ForwardDecaySum::new(Exponential::new(0.2)).with_rotation_exponent(rot);
            let mut batched =
                ForwardDecaySum::new(Exponential::new(0.2)).with_rotation_exponent(rot);
            for &(t, f) in &items {
                single.observe(t, f);
            }
            batched.observe_batch(&items);
            let probe = items.last().unwrap().0 + 1;
            let (a, b) = (single.query(probe), batched.query(probe));
            assert!(
                (a - b).abs() <= 1e-11 * a.abs().max(1e-300),
                "rot {rot}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn merge_reconciles_unequal_landmarks() {
        let lam = 0.3;
        let mk = || ForwardDecaySum::new(Exponential::new(lam)).with_rotation_exponent(2.0);
        let items = stream(21, 500, 4);
        let mid = items.len() / 2;
        let mut left = mk();
        let mut right = mk();
        let mut whole = mk();
        left.observe_batch(&items[..mid]);
        right.observe_batch(&items[mid..]);
        whole.observe_batch(&items);
        assert_ne!(left.landmark(), right.landmark(), "landmarks should differ");
        let mut merged = left.clone();
        merged.merge_from(&right);
        let probe = items.last().unwrap().0 + 1;
        let (a, b) = (merged.query(probe), whole.query(probe));
        assert!((a - b).abs() <= 1e-9 * b.abs() + 1e-12, "{a} vs {b}");
        // And the §2.1 at-tick split survives the merge.
        let burst = items.last().unwrap().0;
        let (a0, b0) = (merged.query(burst), whole.query(burst));
        assert!((a0 - b0).abs() <= 1e-9 * b0.abs() + 1e-12, "{a0} vs {b0}");
    }

    #[test]
    fn long_silence_rotates_in_normal_steps() {
        let mut agg = ForwardDecaySum::new(Exponential::new(1.0));
        agg.observe(1, 1000);
        // 10_000 nats of silence: a single rescale factor would be
        // e^{-10000} = 0; stepped rotation must land on exactly 0 mass
        // without ever producing inf/NaN.
        agg.observe(10_001, 7);
        let got = agg.query(10_002);
        let want = 7.0 * (-1.0f64).exp();
        assert!(got.is_finite());
        assert!((got - want).abs() <= 1e-9 * want, "{got} vs {want}");
    }

    #[test]
    fn subnormal_mass_fast_forwards_below_half_nat_thresholds() {
        // Regression: with a rotation threshold under ln 2 the per-step
        // rescale factor exceeds ½, and round-to-nearest keeps the
        // smallest subnormal alive forever (5e-324 × e^{-0.5} rounds
        // back up to 5e-324). The dead-mass fast-forward must cut off
        // at the normal/subnormal boundary, or this astronomic jump
        // walks ~2×10^14 fifty-tick steps instead of ~1.6k.
        let mut agg = ForwardDecaySum::new(Exponential::new(0.01)).with_rotation_exponent(0.5);
        agg.observe(1, 204_800_000);
        agg.observe(10_479_206_400_000_001, 5_120_000);
        assert!(
            agg.rotations() < 5_000,
            "rotation walk did not fast-forward: {} steps",
            agg.rotations()
        );
        assert_eq!(agg.landmark(), 10_479_206_400_000_001);
        let got = agg.query(10_479_206_400_000_002);
        let want = 5_120_000.0 * (-0.01f64).exp();
        assert!((got - want).abs() <= 1e-9 * want, "{got} vs {want}");
    }

    #[test]
    fn average_is_landmark_invariant_and_constant_decay_works() {
        let mut avg = ForwardDecayAverage::new(Constant);
        avg.observe_batch(&[(1, 2), (2, 4), (3, 6)]);
        assert!((avg.query(10) - 4.0).abs() <= 1e-12);
        let mut log = ForwardDecaySum::new(LogDecay::new(64));
        log.observe_batch(&[(1, 2), (2, 4)]);
        assert!(log.query(5).is_finite());
    }

    #[test]
    #[should_panic(expected = "no forward form")]
    fn finite_horizon_decays_are_rejected() {
        let _ = ForwardDecaySum::new(SlidingWindow::new(100));
    }

    #[test]
    #[should_panic(expected = "lacks f64 headroom")]
    fn fixed_landmark_headroom_is_checked() {
        // α = 20 at 2^44 ticks: (2^44)^20 ≈ 10^264 > ceiling.
        let _ = ForwardDecaySum::new(Polynomial::new(20.0));
    }

    #[test]
    fn error_bound_admits_the_truth() {
        let lam = 0.4;
        let items = stream(5, 2_000, 2);
        let mut agg = ForwardDecaySum::new(Exponential::new(lam)).with_rotation_exponent(0.5);
        agg.observe_batch(&items);
        assert!(agg.rotations() >= 100);
        let probe = items.last().unwrap().0 + 1;
        let truth: f64 = items
            .iter()
            .map(|&(ti, f)| f as f64 * (-(lam) * (probe - ti) as f64).exp())
            .sum();
        let bound = agg.error_bound();
        assert!(bound.is_bounded());
        assert!(
            bound.admits(agg.query(probe), truth, 1e-12),
            "query {} outside bound of truth {truth}",
            agg.query(probe)
        );
    }

    #[test]
    fn checkpoint_roundtrips_bit_identically() {
        let items = stream(11, 300, 6);
        let mut var = ForwardDecayVariance::new(Polynomial::new(1.0));
        var.observe_batch(&items);
        let bytes = var.save_checkpoint();
        let mut fresh = ForwardDecayVariance::new(Polynomial::new(1.0));
        fresh.restore_checkpoint(&bytes).unwrap();
        assert_eq!(fresh.save_checkpoint(), bytes);
        let probe = items.last().unwrap().0 + 9;
        assert_eq!(var.query(probe).to_bits(), fresh.query(probe).to_bits());
        assert_eq!(var.storage_bits(), fresh.storage_bits());
    }

    #[test]
    fn checkpoint_config_and_tag_mismatches_are_typed_errors() {
        let mut sum = ForwardDecaySum::new(Exponential::new(0.1));
        sum.observe(5, 3);
        let bytes = sum.save_checkpoint();
        // Different λ → fingerprint mismatch.
        let mut other = ForwardDecaySum::new(Exponential::new(0.2));
        assert!(matches!(
            other.restore_checkpoint(&bytes),
            Err(RestoreError::Invariant(_))
        ));
        // Different rotation threshold → fingerprint mismatch.
        let mut knob = ForwardDecaySum::new(Exponential::new(0.1)).with_rotation_exponent(9.0);
        assert!(matches!(
            knob.restore_checkpoint(&bytes),
            Err(RestoreError::Invariant(_))
        ));
        // Sum bytes into an average → tag mismatch.
        let mut avg = ForwardDecayAverage::new(Exponential::new(0.1));
        assert!(avg.restore_checkpoint(&bytes).is_err());
    }

    #[test]
    fn unstarted_checkpoint_must_carry_no_state() {
        let empty = ForwardDecaySum::new(Exponential::new(0.1));
        let bytes = empty.save_checkpoint();
        let mut fresh = ForwardDecaySum::new(Exponential::new(0.1));
        fresh.restore_checkpoint(&bytes).unwrap();
        assert_eq!(fresh.query(100), 0.0);
    }
}
