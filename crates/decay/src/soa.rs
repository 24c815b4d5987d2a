//! Structure-of-arrays bucket storage and chunked query kernels.
//!
//! Every histogram backend in the workspace used to keep its buckets as
//! an array-of-structs `VecDeque<Bucket>`: queries gathered ages into
//! per-query `Vec`s (pointer-chasing plus an allocation) before the
//! [`DecayFunction::weight_batch`] kernel could run, and structural
//! passes (expiry, merge cascades) shuffled 24-byte structs around.
//! This module is the layout-level fix (DESIGN.md §12):
//!
//! * [`BucketColumns`] stores the bucket fields as three parallel
//!   contiguous `Vec`s (`start`, `end`, `count`) with an amortized
//!   head offset for O(1) front expiry, so query kernels stream the
//!   boundary column directly — zero gather, zero per-query copy.
//! * [`dot_counts`] / [`dot_mass`] evaluate `Σ count_i · g(T − end_i)`
//!   by feeding fixed-width chunks of the *column itself* through
//!   [`DecayFunction::weight_from_ends`], using a stack scratch buffer:
//!   one virtual dispatch per [`CHUNK`] buckets, no heap traffic.
//! * The closed-form decay families override their batch kernels with
//!   fixed-width [`LANES`]-wide loops over the helpers below
//!   ([`exp_lane`], [`ln_lane`]) — autovectorization-friendly safe
//!   Rust with an exact scalar tail, no external SIMD crates.
//!
//! # Kernel accuracy contract
//!
//! The chunked transcendental kernels are *not* bit-identical to the
//! `std` scalar math the [`DecayFunction::weight`] closed forms use:
//! each family documents its divergence through
//! [`DecayFunction::kernel_relative_error`], and backends fold that
//! bound into their reported `error_bound`. The workspace-wide law
//! (see `proptest_laws`) is
//!
//! ```text
//! |weight_batch(x) − weight(x)| ≤ kernel_relative_error() · weight(x)
//! ```
//!
//! with both sides treated as zero below [`NEGLIGIBLE_WEIGHT`] (the
//! exponential kernel clamps its argument rather than descending into
//! subnormals; see [`exp_lane`]).

use crate::func::{DecayFunction, Time};

/// Lane width of the fixed-width kernel loops (`f64x4`-style): wide
/// enough for 256-bit autovectorization, small enough that the scalar
/// tail (≤ 3 elements) is noise.
pub const LANES: usize = 4;

/// Buckets per stack scratch buffer in the chunked dot-product helpers:
/// one `weight_from_ends` dispatch (virtual for `dyn` decays) covers
/// this many buckets.
pub const CHUNK: usize = 64;

/// Weights below this are treated as exactly zero by the kernel
/// accuracy contract: the fast exponential kernel clamps its argument
/// at −[`EXP_ARG_CLAMP`] instead of descending into subnormals, so two
/// implementations may disagree on values ≤ `exp(−708)` ≈ 3.3e−308.
pub const NEGLIGIBLE_WEIGHT: f64 = 1e-290;

/// The exponent magnitude at which [`exp_lane`] clamps: `exp(±708)` is
/// the last comfortably-normal magnitude (min positive normal is
/// ≈ 2.2e−308).
pub const EXP_ARG_CLAMP: f64 = 708.0;

// ---------------------------------------------------------------------
// Fast transcendental lanes (division-free Taylor/Estrin for exp,
// Cephes-derived rational for ln; safe Rust, branch-light so
// LANES-wide loops can vectorize).
// ---------------------------------------------------------------------

/// `1.5 · 2^52`: adding then subtracting forces round-to-nearest-even
/// to the nearest integer for |x| < 2^51 without an `fn round` call.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

// exp: division-free degree-13 Taylor polynomial on r ∈ [−ln2/2, ln2/2].
// Truncation |r|^14/14! ≲ 4e-18 relative on the reduced range, well
// inside the 4·EPS kernel contract; Estrin grouping keeps the critical
// path short so the LANES-wide loop pipelines instead of serializing on
// the division a Cephes-style rational tail would need.
const EXP_C1: f64 = 6.93145751953125e-1; // ln2 high part
const EXP_C2: f64 = 1.428_606_820_309_417_3e-6; // ln2 low part
const EXP_T2: f64 = 0.5; // 1/2!
const EXP_T3: f64 = 1.6666666666666666e-1; // 1/3!
const EXP_T4: f64 = 4.1666666666666664e-2; // 1/4!
const EXP_T5: f64 = 8.333333333333333e-3; // 1/5!
const EXP_T6: f64 = 1.388_888_888_888_889e-3; // 1/6!
const EXP_T7: f64 = 1.984126984126984e-4; // 1/7!
const EXP_T8: f64 = 2.48015873015873e-5; // 1/8!
const EXP_T9: f64 = 2.7557319223985893e-6; // 1/9!
const EXP_T10: f64 = 2.755731922398589e-7; // 1/10!
const EXP_T11: f64 = 2.505210838544172e-8; // 1/11!
const EXP_T12: f64 = 2.08767569878681e-9; // 1/12!
const EXP_T13: f64 = 1.6059043836821613e-10; // 1/13!

/// One lane of the chunked exponential kernel: `e^x` for
/// `x ∈ [−EXP_ARG_CLAMP, EXP_ARG_CLAMP]` (arguments outside are clamped,
/// keeping the result monotone and ≥ `exp(−708)` > 0).
///
/// Within a couple of ULP of the correctly-rounded result (measured ≤ 2
/// ULP against `f64::exp` over dense sweeps; the equivalence tests
/// enforce [`DecayFunction::kernel_relative_error`]). `exp_lane(0.0)`
/// is exactly `1.0`.
#[inline(always)]
pub fn exp_lane(x: f64) -> f64 {
    let x = x.clamp(-EXP_ARG_CLAMP, EXP_ARG_CLAMP);
    // n = round(x / ln2), branchlessly.
    let shifted = x.mul_add(std::f64::consts::LOG2_E, ROUND_MAGIC);
    let n = shifted - ROUND_MAGIC;
    // r = x − n·ln2, with ln2 split for an exact-ish reduction.
    let r = n.mul_add(-EXP_C2, n.mul_add(-EXP_C1, x));
    // Estrin evaluation of the degree-13 Taylor series: pair adjacent
    // terms, then combine with r², r⁴, r⁸ powers. No division.
    //
    // `mul_add` everywhere: with an FMA unit each pair is one fused
    // instruction; without one it lowers to the (slow but *identical
    // in value*) libm fma, so results are bit-stable across targets.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let t01 = 1.0 + r;
    let t23 = r.mul_add(EXP_T3, EXP_T2);
    let t45 = r.mul_add(EXP_T5, EXP_T4);
    let t67 = r.mul_add(EXP_T7, EXP_T6);
    let t89 = r.mul_add(EXP_T9, EXP_T8);
    let t1011 = r.mul_add(EXP_T11, EXP_T10);
    let t1213 = r.mul_add(EXP_T13, EXP_T12);
    let lo = r2.mul_add(t23, t01);
    let mid = r2.mul_add(t67, t45);
    let hi = r2.mul_add(t1011, t89);
    let e = r8.mul_add(r4.mul_add(t1213, hi), r4.mul_add(mid, lo));
    // e^x = e · 2^n. |n| ≤ 1022 after the clamp, so the biased exponent
    // stays in the normal range. `shifted` still carries n in its low
    // mantissa bits (ROUND_MAGIC ≡ 0 mod 2^12 there), so the scale is
    // one integer add+shift — no f64→i64 conversion, which SSE2 has no
    // packed form of and which would otherwise scalarize the lane loop.
    let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    e * scale
}

// ln: Cephes `log.c` rational approximation on m ∈ [√½·2, √2] − 1.
const LN_P: [f64; 6] = [
    1.018_756_638_045_809_3e-4,
    4.974_949_949_767_47e-1,
    4.705_791_198_788_817,
    1.449_892_253_416_109_3e1,
    1.793_686_785_078_198_3e1,
    7.708_387_337_558_854,
];
const LN_Q: [f64; 5] = [
    // Monic: leading 1.0 implied.
    1.128_735_871_891_674_6e1,
    4.522_791_458_375_322_5e1,
    8.298_752_669_127_767e1,
    7.115_447_506_185_639e1,
    2.312_516_201_267_653_3e1,
];
const LN2_HI: f64 = 0.693359375;
const LN2_LO: f64 = -2.121_944_400_546_905_7e-4;

/// One lane of the chunked natural-log kernel: `ln x` for positive
/// normal `x` (histogram ages are integers ≥ 1, so no zero/subnormal
/// handling is needed). Within ~1 ULP of `f64::ln`.
#[inline(always)]
pub fn ln_lane(x: f64) -> f64 {
    debug_assert!(x >= 1.0, "ln_lane is only defined for ages >= 1");
    let bits = x.to_bits();
    // x = m · 2^e with m ∈ [1, 2).
    let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // Re-center to m ∈ [√½, √2] so z = m − 1 is small.
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let z = m - 1.0;
    let y = z * z;
    // Horner with plain mul/add: `mul_add` lowers to a libm call when
    // the fma target feature is absent, which defeats the point.
    let p = ((((LN_P[0] * z + LN_P[1]) * z + LN_P[2]) * z + LN_P[3]) * z + LN_P[4]) * z + LN_P[5];
    let q = ((((z + LN_Q[0]) * z + LN_Q[1]) * z + LN_Q[2]) * z + LN_Q[3]) * z + LN_Q[4];
    let ef = e as f64;
    let r = z * y * (p / q) - 0.5 * y + z;
    r + ef * LN2_LO + ef * LN2_HI
}

// ---------------------------------------------------------------------
// Chunked dot-product helpers over bucket columns.
// ---------------------------------------------------------------------

/// `Σ counts[i] · g(t − ends[i])` streamed straight off the columns:
/// fixed-size stack scratch, one `weight_from_ends` dispatch per
/// [`CHUNK`] buckets, no heap allocation.
///
/// Caller contract: `ends[i] < t` for all `i` (query paths slice off
/// the at-tick suffix first; `weight_from_ends` clamps ages at 0 on
/// violation rather than wrapping).
pub fn dot_counts<G: DecayFunction + ?Sized>(g: &G, t: Time, ends: &[Time], counts: &[u64]) -> f64 {
    assert_eq!(ends.len(), counts.len(), "column length mismatch");
    let mut total = 0.0;
    let mut w = [0.0f64; CHUNK];
    for (ec, cc) in ends.chunks(CHUNK).zip(counts.chunks(CHUNK)) {
        let wc = &mut w[..ec.len()];
        g.weight_from_ends(t, ec, wc);
        let mut acc = 0.0;
        for (wi, &ci) in wc.iter().zip(cc) {
            acc += ci as f64 * *wi;
        }
        total += acc;
    }
    total
}

/// [`dot_counts`] for real-valued masses (WBMH's approximate bucket
/// counts): `Σ mass[i] · g(t − ends[i])`.
pub fn dot_mass<G: DecayFunction + ?Sized>(g: &G, t: Time, ends: &[Time], mass: &[f64]) -> f64 {
    assert_eq!(ends.len(), mass.len(), "column length mismatch");
    let mut total = 0.0;
    let mut w = [0.0f64; CHUNK];
    for (ec, mc) in ends.chunks(CHUNK).zip(mass.chunks(CHUNK)) {
        let wc = &mut w[..ec.len()];
        g.weight_from_ends(t, ec, wc);
        let mut acc = 0.0;
        for (wi, &mi) in wc.iter().zip(mc) {
            acc += mi * *wi;
        }
        total += acc;
    }
    total
}

/// Midpoint variant: `Σ counts[i] · (g(t − ends[i]) + g(t − starts[i]))/2`
/// — the cascaded-EH `Estimator::Midpoint` path, still zero-gather.
pub fn dot_counts_midpoint<G: DecayFunction + ?Sized>(
    g: &G,
    t: Time,
    starts: &[Time],
    ends: &[Time],
    counts: &[u64],
) -> f64 {
    assert_eq!(ends.len(), counts.len(), "column length mismatch");
    assert_eq!(starts.len(), ends.len(), "column length mismatch");
    let mut total = 0.0;
    let mut we = [0.0f64; CHUNK];
    let mut ws = [0.0f64; CHUNK];
    for ((ec, sc), cc) in ends
        .chunks(CHUNK)
        .zip(starts.chunks(CHUNK))
        .zip(counts.chunks(CHUNK))
    {
        let wec = &mut we[..ec.len()];
        let wsc = &mut ws[..ec.len()];
        g.weight_from_ends(t, ec, wec);
        g.weight_from_ends(t, sc, wsc);
        let mut acc = 0.0;
        for i in 0..ec.len() {
            acc += cc[i] as f64 * (0.5 * (wec[i] + wsc[i]));
        }
        total += acc;
    }
    total
}

/// Forward-decay ingest kernel (Cormode et al.): `out[i] = 1 / g(ticks[i] − landmark)`
/// — the per-item scale a forward-decay moment accumulator adds at
/// ingest, so that a query at `T` renormalizes by `g(T − landmark)` and
/// recovers the weight `g(T − landmark) / g(tᵢ − landmark)`.
///
/// Chunked through [`DecayFunction::weight_batch`] with a fixed-size
/// stack age buffer (one virtual dispatch per [`CHUNK`] ticks), then a
/// reciprocal sweep — same dispatch economics as the dot-product
/// helpers above. The reciprocal inherits the family's
/// [`DecayFunction::kernel_relative_error`] plus half an ULP.
///
/// Caller contract: `ticks[i] >= landmark` (panics on violation — a
/// forward accumulator never scales an item older than its landmark)
/// and `g` strictly positive at every requested age (finite-horizon
/// decays have no forward form; the reciprocal would be `inf`).
pub fn forward_weights<G: DecayFunction + ?Sized>(
    g: &G,
    landmark: Time,
    ticks: &[Time],
    out: &mut [f64],
) {
    assert_eq!(ticks.len(), out.len(), "tick/weight buffer length mismatch");
    let mut ages = [0u64; CHUNK];
    for (tc, oc) in ticks.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
        let ac = &mut ages[..tc.len()];
        for (a, &t) in ac.iter_mut().zip(tc) {
            *a = t
                .checked_sub(landmark)
                .expect("forward_weights: tick precedes landmark");
        }
        g.weight_batch(ac, oc);
        for o in oc.iter_mut() {
            *o = 1.0 / *o;
        }
    }
}

// ---------------------------------------------------------------------
// BucketColumns
// ---------------------------------------------------------------------

/// Structure-of-arrays bucket store: `start`, `end`, `count` as three
/// parallel contiguous `Vec`s, oldest bucket first.
///
/// Logical index `i` (0 = oldest live bucket) maps to physical index
/// `head + i`; [`BucketColumns::pop_front`] just bumps `head`, and the
/// dead prefix is compacted away once it exceeds both a fixed floor and
/// half the physical length — amortized O(1) expiry without the
/// wrap-around split a `VecDeque` imposes on every slice access. The
/// column accessors ([`starts`](Self::starts) etc.) always return the
/// *live* range as single contiguous slices, which is what lets query
/// kernels stream them with zero gather.
#[derive(Debug, Clone, Default)]
pub struct BucketColumns {
    head: usize,
    start: Vec<Time>,
    end: Vec<Time>,
    count: Vec<u64>,
}

/// Compact the dead prefix only once it is at least this long (and at
/// least half the physical storage), so short-lived pops never trigger
/// memmoves.
const COMPACT_MIN_HEAD: usize = 32;

impl BucketColumns {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `cap` buckets per column.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            head: 0,
            start: Vec::with_capacity(cap),
            end: Vec::with_capacity(cap),
            count: Vec::with_capacity(cap),
        }
    }

    /// Number of live buckets.
    pub fn len(&self) -> usize {
        self.start.len() - self.head
    }

    /// Whether no bucket is live.
    pub fn is_empty(&self) -> bool {
        self.head == self.start.len()
    }

    /// Drops all buckets.
    pub fn clear(&mut self) {
        self.head = 0;
        self.start.clear();
        self.end.clear();
        self.count.clear();
    }

    /// The live `start` column, oldest first.
    pub fn starts(&self) -> &[Time] {
        &self.start[self.head..]
    }

    /// The live `end` column, oldest first.
    pub fn ends(&self) -> &[Time] {
        &self.end[self.head..]
    }

    /// The live `count` column, oldest first.
    pub fn counts(&self) -> &[u64] {
        &self.count[self.head..]
    }

    /// The bucket at logical index `i` as `(start, end, count)`.
    pub fn get(&self, i: usize) -> (Time, Time, u64) {
        let p = self.head + i;
        (self.start[p], self.end[p], self.count[p])
    }

    /// Overwrites the bucket at logical index `i`.
    pub fn set(&mut self, i: usize, start: Time, end: Time, count: u64) {
        let p = self.head + i;
        self.start[p] = start;
        self.end[p] = end;
        self.count[p] = count;
    }

    /// Sets only the count of the bucket at logical index `i` (burst
    /// coalescing into the newest bucket).
    pub fn set_count(&mut self, i: usize, count: u64) {
        let p = self.head + i;
        self.count[p] = count;
    }

    /// Appends a bucket at the newest end.
    pub fn push_back(&mut self, start: Time, end: Time, count: u64) {
        self.start.push(start);
        self.end.push(end);
        self.count.push(count);
    }

    /// The oldest bucket, if any.
    pub fn front(&self) -> Option<(Time, Time, u64)> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// The newest bucket, if any.
    pub fn back(&self) -> Option<(Time, Time, u64)> {
        let n = self.len();
        (n > 0).then(|| self.get(n - 1))
    }

    /// Removes the oldest bucket (amortized O(1): bumps the head
    /// offset, compacting only when the dead prefix has grown past
    /// `COMPACT_MIN_HEAD` and half the physical length).
    pub fn pop_front(&mut self) -> Option<(Time, Time, u64)> {
        if self.is_empty() {
            return None;
        }
        let out = self.get(0);
        self.head += 1;
        if self.head >= COMPACT_MIN_HEAD && self.head * 2 >= self.start.len() {
            self.compact();
        }
        Some(out)
    }

    /// Removes the bucket at logical index `i`, shifting newer buckets
    /// down (O(live − i) contiguous moves per column; merge cascades use
    /// this on indices near the newest end).
    pub fn remove(&mut self, i: usize) -> (Time, Time, u64) {
        let p = self.head + i;
        let out = (
            self.start.remove(p),
            self.end.remove(p),
            self.count.remove(p),
        );
        (out.0, out.1, out.2)
    }

    /// Moves the live range back to physical offset 0.
    fn compact(&mut self) {
        self.start.drain(..self.head);
        self.end.drain(..self.head);
        self.count.drain(..self.head);
        self.head = 0;
    }

    /// Iterates the live buckets as `(start, end, count)`, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (Time, Time, u64)> + '_ {
        self.starts()
            .iter()
            .zip(self.ends())
            .zip(self.counts())
            .map(|((&s, &e), &c)| (s, e, c))
    }

    /// Heap bytes currently held by the three columns (capacity, not
    /// live length — mirrors what a storage accountant should charge).
    pub fn capacity(&self) -> usize {
        self.start.capacity()
    }
}

/// Borrowed view of the live bucket columns of a histogram — what
/// window sketches expose so cascaded queries can stream boundaries
/// with zero gather (see `td_eh::WindowSketch::columns`).
#[derive(Debug, Clone, Copy)]
pub struct ColumnsView<'a> {
    /// Oldest-first `start` column.
    pub starts: &'a [Time],
    /// Oldest-first `end` column.
    pub ends: &'a [Time],
    /// Oldest-first `count` column.
    pub counts: &'a [u64],
}

impl<'a> From<&'a BucketColumns> for ColumnsView<'a> {
    fn from(c: &'a BucketColumns) -> Self {
        ColumnsView {
            starts: c.starts(),
            ends: c.ends(),
            counts: c.counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, Polynomial};

    #[test]
    fn push_pop_head_offset() {
        let mut c = BucketColumns::new();
        for i in 0..100u64 {
            c.push_back(i, i, i + 1);
        }
        assert_eq!(c.len(), 100);
        for i in 0..40u64 {
            assert_eq!(c.pop_front(), Some((i, i, i + 1)));
        }
        assert_eq!(c.len(), 60);
        assert_eq!(c.starts().len(), 60);
        assert_eq!(c.front(), Some((40, 40, 41)));
        assert_eq!(c.back(), Some((99, 99, 100)));
        // Columns stay consistent views after compaction kicked in.
        assert_eq!(c.starts()[0], 40);
        assert_eq!(c.counts()[59], 100);
    }

    #[test]
    fn remove_shifts_newer_buckets() {
        let mut c = BucketColumns::new();
        for i in 0..5u64 {
            c.push_back(i, i, 10 + i);
        }
        assert_eq!(c.remove(2), (2, 2, 12));
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(2), (3, 3, 13));
        assert_eq!(c.ends(), &[0, 1, 3, 4]);
    }

    #[test]
    fn pop_everything_then_reuse() {
        let mut c = BucketColumns::new();
        for round in 0..3 {
            for i in 0..50u64 {
                c.push_back(i, i, 1);
            }
            while c.pop_front().is_some() {}
            assert!(c.is_empty(), "round {round}");
            assert_eq!(c.len(), 0);
        }
    }

    #[test]
    fn exp_lane_tracks_std_exp() {
        let mut worst = 0.0f64;
        for i in 0..70_000 {
            let x = -(i as f64) * 0.01; // 0 … −700
            let got = exp_lane(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
        }
        assert!(worst <= 4.0 * f64::EPSILON, "worst rel err {worst:e}");
        assert_eq!(exp_lane(0.0), 1.0);
    }

    #[test]
    fn exp_lane_clamps_instead_of_subnormals() {
        let w = exp_lane(-10_000.0);
        assert!(w > 0.0 && w < NEGLIGIBLE_WEIGHT);
        // Monotone floor: clamped region is constant, never increasing.
        assert_eq!(exp_lane(-10_000.0), exp_lane(-20_000.0));
    }

    #[test]
    fn ln_lane_tracks_std_ln() {
        let mut worst = 0.0f64;
        for i in 1..200_000u64 {
            let x = i as f64;
            let got = ln_lane(x);
            let want = x.ln();
            if want == 0.0 {
                assert_eq!(got, 0.0, "ln(1)");
                continue;
            }
            worst = worst.max(((got - want) / want).abs());
        }
        assert!(worst <= 4.0 * f64::EPSILON, "worst rel err {worst:e}");
    }

    #[test]
    fn dot_counts_matches_scalar_loop() {
        let g = Exponential::new(0.01);
        let t = 10_000u64;
        let ends: Vec<Time> = (0..500).map(|i| i * 17 % 9_999).collect();
        let counts: Vec<u64> = (0..500).map(|i| i % 7 + 1).collect();
        let got = dot_counts(&g, t, &ends, &counts);
        let want: f64 = ends
            .iter()
            .zip(&counts)
            .map(|(&e, &c)| c as f64 * g.weight(t - e))
            .sum();
        assert!((got - want).abs() <= 1e-12 * want.abs());
    }

    #[test]
    fn dot_midpoint_matches_scalar_loop() {
        let g = Polynomial::new(1.0);
        let t = 5_000u64;
        let starts: Vec<Time> = (0..300).map(|i| i * 13 % 4_000).collect();
        let ends: Vec<Time> = starts.iter().map(|&s| s + 17).collect();
        let counts: Vec<u64> = (0..300).map(|i| i % 5 + 1).collect();
        let got = dot_counts_midpoint(&g, t, &starts, &ends, &counts);
        let want: f64 = (0..300)
            .map(|i| counts[i] as f64 * 0.5 * (g.weight(t - ends[i]) + g.weight(t - starts[i])))
            .sum();
        assert!((got - want).abs() <= 1e-12 * want.abs());
    }

    #[test]
    fn forward_weights_matches_scalar_reciprocal() {
        let landmark = 1_000u64;
        let ticks: Vec<Time> = (0..200).map(|i| landmark + i * 31).collect();
        let mut out = vec![0.0; ticks.len()];
        for g in [
            Box::new(Exponential::new(0.01)) as Box<dyn DecayFunction>,
            Box::new(Polynomial::new(1.0)),
        ] {
            forward_weights(g.as_ref(), landmark, &ticks, &mut out);
            for (&t, &r) in ticks.iter().zip(&out) {
                let want = 1.0 / g.weight(t - landmark);
                assert!(
                    (r - want).abs() <= 1e-12 * want,
                    "{}: tick {t}: got {r}, want {want}",
                    g.describe()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "tick precedes landmark")]
    fn forward_weights_rejects_pre_landmark_ticks() {
        let g = Exponential::new(0.01);
        let mut out = [0.0; 1];
        forward_weights(&g, 10, &[9], &mut out);
    }
}
