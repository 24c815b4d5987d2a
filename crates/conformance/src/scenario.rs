//! Deterministic, seeded stream-scenario generation — no wall clock,
//! no global RNG state: a `(family, seed, n)` triple always produces
//! the same op sequence, so every certifier failure is replayable from
//! the `(scenario name, seed)` pair it reports.
//!
//! The families target the structured corner cases where time-decay
//! sketches are known to fail (bursts, long silences, boundary-aligned
//! arrivals — cf. Braverman et al.), plus the paper's own adversarial
//! Theorem 2 burst family and batch-boundary/shard-split stressors.

use td_decay::Time;
use td_stream::LowerBoundFamily;

/// One step of a replayable stream scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Feed one item.
    Observe(Time, u64),
    /// Feed a sorted burst through the amortized batch path.
    ObserveBatch(Vec<(Time, u64)>),
    /// Advance the clock without mass (exercises mid-silence pruning).
    Advance(Time),
    /// Check the backend's answer against the oracle at this tick.
    Query(Time),
}

/// A named, seeded, fully deterministic op sequence.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Family name (stable across releases — failures cite it).
    pub name: String,
    /// The seed the family was generated from.
    pub seed: u64,
    /// The ops, with all observation times non-decreasing.
    pub ops: Vec<Op>,
}

impl Scenario {
    /// The largest time mentioned by any op.
    pub fn max_time(&self) -> Time {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Observe(t, _) => *t,
                Op::ObserveBatch(items) => items.last().map(|&(t, _)| t).unwrap_or(0),
                Op::Advance(t) => *t,
                Op::Query(t) => *t,
            })
            .max()
            .unwrap_or(0)
    }
}

/// SplitMix64 — the standard 64-bit seeded generator; tiny, fast, and
/// deterministic across platforms (no wall clock anywhere).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// Evenly spaced arrivals with random values — the baseline family.
pub fn uniform(seed: u64, n: usize) -> Scenario {
    let mut rng = Rng::new(seed ^ 0x1);
    let mut ops = Vec::with_capacity(n + n / 16 + 2);
    let mut t: Time = 0;
    for i in 0..n {
        t += rng.range(1, 3);
        ops.push(Op::Observe(t, rng.below(16)));
        if i % 16 == 15 {
            ops.push(Op::Query(t + rng.range(1, 4)));
        }
    }
    ops.push(Op::Query(t + 1));
    ops.push(Op::Query(t + 100));
    Scenario {
        name: "uniform".into(),
        seed,
        ops,
    }
}

/// Heavy same-tick bursts separated by variable gaps; bursts alternate
/// between the single-item and the amortized batch ingest path.
pub fn bursty(seed: u64, n: usize) -> Scenario {
    let mut rng = Rng::new(seed ^ 0x2);
    let mut ops = Vec::new();
    let mut t: Time = 0;
    let mut fed = 0usize;
    while fed < n {
        t += rng.range(1, 64);
        let burst = rng.range(5, 40).min((n - fed) as u64) as usize;
        let tick_items: Vec<(Time, u64)> = (0..burst).map(|_| (t, 1 + rng.below(8))).collect();
        if rng.below(2) == 0 {
            ops.push(Op::ObserveBatch(tick_items));
        } else {
            for &(t, f) in &tick_items {
                ops.push(Op::Observe(t, f));
            }
        }
        fed += burst;
        // Query right at the burst tick (§2.1 edge: the burst itself
        // must be invisible) and shortly after.
        ops.push(Op::Query(t));
        ops.push(Op::Query(t + rng.range(1, 16)));
    }
    Scenario {
        name: "bursty".into(),
        seed,
        ops,
    }
}

/// A dense prefix, then a long ingest silence probed by mid-silence
/// queries after explicit `advance` calls, then a small resumption.
pub fn long_silence(seed: u64, n: usize) -> Scenario {
    let mut rng = Rng::new(seed ^ 0x3);
    let mut ops = Vec::new();
    let mut t: Time = 0;
    let head = (n * 3) / 4;
    for _ in 0..head {
        t += rng.range(1, 2);
        ops.push(Op::Observe(t, rng.below(10)));
    }
    // Silence spanning ~32× the ingest period, with queries between
    // advances (post-advance queries are the satellite the issue
    // names: expired state must be reclaimed *and* still answered).
    let silence = (t * 32).max(1_000);
    for step in 1..=4u64 {
        let s = t + step * silence / 4;
        ops.push(Op::Advance(s));
        ops.push(Op::Query(s + 1));
        ops.push(Op::Query(s + silence / 8));
    }
    t += silence;
    for _ in 0..(n - head).max(4) {
        t += rng.range(1, 2);
        ops.push(Op::Observe(t, rng.below(10)));
    }
    ops.push(Op::Query(t + 1));
    Scenario {
        name: "long-silence".into(),
        seed,
        ops,
    }
}

/// Arrivals pinned to powers of two and multiples of 256 — the
/// boundary-aligned corner where bucket seals, region boundaries, and
/// window cutoffs all coincide; queried exactly on the boundaries.
pub fn boundary_aligned(seed: u64, n: usize) -> Scenario {
    let mut rng = Rng::new(seed ^ 0x4);
    let mut ticks: Vec<Time> = Vec::new();
    let mut p: Time = 1;
    while p < (n as Time) * 4 {
        ticks.push(p);
        p *= 2;
    }
    let mut m: Time = 256;
    while m < (n as Time) * 4 {
        ticks.push(m);
        m += 256;
    }
    ticks.sort_unstable();
    ticks.dedup();
    let mut ops = Vec::new();
    for &t in &ticks {
        ops.push(Op::Observe(t, 1 + rng.below(4)));
        // On-boundary query (item at t excluded), then off-by-one.
        ops.push(Op::Query(t));
        ops.push(Op::Query(t + 1));
    }
    let last = *ticks.last().unwrap_or(&1);
    ops.push(Op::Query(last + 255));
    ops.push(Op::Query(last + 256));
    Scenario {
        name: "boundary-aligned".into(),
        seed,
        ops,
    }
}

/// The Theorem 2 adversarial burst family (`crates/stream`): bursts
/// carrying secret bits at geometrically spaced paper-times, probed at
/// the paper's dominance points. `k = 40, α = 1` — the configuration
/// restoring the > 4 dominance margin (see `LowerBoundFamily`).
pub fn adversarial_theorem2(seed: u64) -> Scenario {
    let mut rng = Rng::new(seed ^ 0x5);
    // r = 5 keeps k^{2i} inside the u64 clock at k = 40.
    let bits: Vec<u8> = (0..5).map(|_| 1 + rng.below(2) as u8).collect();
    let fam = LowerBoundFamily::new(40, 1.0, bits);
    let mut ops: Vec<Op> = Vec::new();
    let arrivals = fam.arrivals();
    ops.push(Op::ObserveBatch(arrivals.clone()));
    // Queries at every probe point, plus just after the last arrival.
    let t_last = arrivals.last().map(|&(t, _)| t).unwrap_or(0);
    ops.push(Op::Query(t_last + 1));
    for i in 1..=fam.r() as u32 {
        ops.push(Op::Query(fam.probe_time(i)));
    }
    Scenario {
        name: "adversarial-theorem2".into(),
        seed,
        ops,
    }
}

/// How far the out-of-order generator's skew may wander relative to
/// batch boundaries. The legacy sub-case is kept bit-for-bit (same RNG
/// draws, same ops, same family name) so every seed ever cited in a
/// failure repro replays identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewExtent {
    /// The original `out-of-order-batch` behavior: timestamps jittered
    /// inside a 4-tick window confined to one batch, with only the
    /// boundary *tick* shared across batches half the time.
    WithinBatch,
    /// Generation-time skew spanning several batches: one long
    /// jittered run is sorted globally, then split at random points —
    /// so a single tick run straddles multiple `observe_batch` calls
    /// and batch boundaries carry no alignment information at all.
    CrossBatch,
}

/// The generalized out-of-order family (ISSUE 7 satellite): sorted
/// batches whose generation-time skew is confined to one batch
/// ([`SkewExtent::WithinBatch`], the legacy sub-case) or spans several
/// ([`SkewExtent::CrossBatch`]). Ingested ops are always sorted, as the
/// trait demands — *arrival*-order lateness is `td-reorder`'s domain
/// and is exercised by the arrival families below
/// ([`late_arrival_catalogue`]).
pub fn out_of_order(seed: u64, n: usize, skew: SkewExtent) -> Scenario {
    match skew {
        SkewExtent::WithinBatch => {
            let mut rng = Rng::new(seed ^ 0x6);
            let mut ops = Vec::new();
            let mut t: Time = 1;
            let mut fed = 0usize;
            while fed < n {
                let len = rng.range(8, 24).min((n - fed) as u64) as usize;
                // Jittered timestamps inside a small window, then sorted —
                // "out of order within batch" at generation time, sorted (as
                // the trait demands) at ingest time.
                let mut items: Vec<(Time, u64)> = (0..len)
                    .map(|_| (t + rng.below(4), 1 + rng.below(6)))
                    .collect();
                items.sort_by_key(|&(ti, _)| ti);
                let t_end = items.last().unwrap().0;
                ops.push(Op::ObserveBatch(items));
                fed += len;
                if rng.below(3) == 0 {
                    ops.push(Op::Query(t_end + rng.range(1, 8)));
                }
                // Start the next batch at the PREVIOUS end tick (same tick
                // split across batches) half the time.
                t = if rng.below(2) == 0 {
                    t_end
                } else {
                    t_end + rng.range(1, 8)
                };
            }
            ops.push(Op::Query(t + 9));
            Scenario {
                name: "out-of-order-batch".into(),
                seed,
                ops,
            }
        }
        SkewExtent::CrossBatch => {
            // A fresh RNG stream (^0x16): this sub-case must not
            // perturb the legacy one's draws.
            let mut rng = Rng::new(seed ^ 0x16);
            // One long jittered run: base ticks advance slowly while
            // the jitter window (16 ticks) spans several of the 5–20
            // item batches the run is later split into.
            let mut raw: Vec<(Time, u64)> = Vec::with_capacity(n);
            let mut base: Time = 1;
            for _ in 0..n {
                base += rng.below(2);
                raw.push((base + rng.below(16), 1 + rng.below(6)));
            }
            raw.sort_by_key(|&(ti, _)| ti);
            let mut ops = Vec::new();
            let mut i = 0usize;
            while i < raw.len() {
                let len = rng.range(5, 20).min((raw.len() - i) as u64) as usize;
                let chunk = raw[i..i + len].to_vec();
                let t_end = chunk.last().unwrap().0;
                ops.push(Op::ObserveBatch(chunk));
                i += len;
                if rng.below(3) == 0 {
                    // Query inside the still-live jitter window: later
                    // batches will deliver ticks ≤ this query time.
                    ops.push(Op::Query(t_end + 1));
                }
            }
            let t_last = raw.last().map(|&(ti, _)| ti).unwrap_or(1);
            ops.push(Op::Query(t_last + 9));
            Scenario {
                name: "out-of-order-cross-batch".into(),
                seed,
                ops,
            }
        }
    }
}

/// The legacy within-batch sub-case, name and op sequence unchanged:
/// sorted batches whose tick runs straddle batch boundaries, so
/// same-tick coalescing must work *across* `observe_batch` calls.
pub fn out_of_order_batch(seed: u64, n: usize) -> Scenario {
    out_of_order(seed, n, SkewExtent::WithinBatch)
}

/// The cross-batch sub-case: one jittered window split across many
/// batches (see [`SkewExtent::CrossBatch`]).
pub fn out_of_order_cross_batch(seed: u64, n: usize) -> Scenario {
    out_of_order(seed, n, SkewExtent::CrossBatch)
}

/// The full catalogue at one seed: every named family the certifier
/// runs. `n` scales stream length (tier-1 keeps it small; the
/// exhaustive `--ignored` mode turns it up).
pub fn catalogue(seed: u64, n: usize) -> Vec<Scenario> {
    vec![
        uniform(seed, n),
        bursty(seed, n),
        long_silence(seed, n),
        boundary_aligned(seed, n),
        adversarial_theorem2(seed),
        out_of_order_batch(seed, n),
        // Appended last so positional indexing of the older families
        // (tests pick bursty as index 1) stays valid.
        out_of_order_cross_batch(seed, n),
    ]
}

/// One out-of-order arrival: an item with true timestamp `t` and value
/// `f` showing up on ingest source `source` at this position of the
/// arrival sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The ingest source (per-source reorder buffer) the item arrives
    /// on.
    pub source: usize,
    /// The item's true timestamp.
    pub t: Time,
    /// The item's value.
    pub f: u64,
}

/// A seeded out-of-arrival-order stream: the lateness counterpart of
/// [`Scenario`]. Regenerating the named family at `seed` always
/// reproduces the same arrival sequence.
#[derive(Debug, Clone)]
pub struct LateStream {
    /// Family name (repro lines cite it).
    pub name: String,
    /// The seed the family was generated from.
    pub seed: u64,
    /// How many ingest sources the arrivals are spread over.
    pub sources: usize,
    /// The `allowed_lateness` this family is tuned against: the
    /// within-bound family never crosses it, the knife-edge families
    /// sit exactly on either side of it.
    pub bound: u64,
    /// Mid-stream queries fire after every this-many arrivals.
    pub checkpoint_every: usize,
    /// The arrival sequence.
    pub arrivals: Vec<Arrival>,
}

impl LateStream {
    /// Largest true timestamp in the stream (0 when empty).
    pub fn max_time(&self) -> Time {
        self.arrivals.iter().map(|a| a.t).max().unwrap_or(0)
    }
}

/// Tail-free skew: every item's arrival delay is at most `bound`, so
/// (provably) no arrival is ever late — the watermark when an item
/// arrives is at most its own timestamp. The family certifies that
/// in-bound reordering is *exact*: same released stream as a stable
/// sort, no widening, no rejections.
pub fn late_uniform_within(seed: u64, n: usize, bound: u64) -> LateStream {
    let mut rng = Rng::new(seed ^ 0x7);
    let sources = 3usize;
    let mut items: Vec<(Time, u64, u64)> = Vec::with_capacity(n); // (t, delay, f)
    let mut t: Time = 1;
    for _ in 0..n {
        t += rng.range(1, 3);
        items.push((t, rng.below(bound + 1), 1 + rng.below(6)));
    }
    // Arrival order: stable sort by (t + delay). An item arriving at
    // key `t + d ≤ t + bound` can only see max_seen ≤ its own key, so
    // W ≤ t: never late.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| items[i].0 + items[i].1);
    let arrivals = order
        .into_iter()
        .map(|i| Arrival {
            source: rng.below(sources as u64) as usize,
            t: items[i].0,
            f: items[i].2,
        })
        .collect();
    LateStream {
        name: "late-uniform-within".into(),
        seed,
        sources,
        bound,
        checkpoint_every: 16,
        arrivals,
    }
}

/// Heavy-tail delay distribution: most items trail the frontier by a
/// small skew, but a geometric tail throws some far beyond the bound —
/// the family that actually exercises the Reject/Fold policies on
/// genuinely late mass.
pub fn late_heavy_tail(seed: u64, n: usize, bound: u64) -> LateStream {
    let mut rng = Rng::new(seed ^ 0x8);
    let sources = 3usize;
    let mut items: Vec<(Time, u64, u64)> = Vec::with_capacity(n);
    let mut t: Time = 1;
    for _ in 0..n {
        t += rng.range(1, 3);
        // ~1 in 6 items draws from the tail: delay in
        // (bound, 3·bound + 1] — far enough past the watermark to be
        // late with near-certainty under the dense frontier.
        let delay = if rng.below(6) == 0 {
            bound + 1 + rng.below(2 * bound + 1)
        } else {
            rng.below(bound / 2 + 1)
        };
        items.push((t, delay, 1 + rng.below(6)));
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| items[i].0 + items[i].1);
    let arrivals = order
        .into_iter()
        .map(|i| Arrival {
            source: rng.below(sources as u64) as usize,
            t: items[i].0,
            f: items[i].2,
        })
        .collect();
    LateStream {
        name: "late-heavy-tail".into(),
        seed,
        sources,
        bound,
        checkpoint_every: 16,
        arrivals,
    }
}

/// Knife-edge adversarial, inside: after each frontier advance, echo an
/// item at **exactly** the watermark (`t = max_seen − bound`). The `t
/// == W` edge is on-time by contract; one off-by-one in the stage's
/// comparison and this family rejects half its mass.
pub fn late_just_inside(seed: u64, n: usize, bound: u64) -> LateStream {
    knife_edge(seed, 0x9, n, bound, 0, "late-just-inside")
}

/// Knife-edge adversarial, outside: the echo sits at `W − 1`, one tick
/// below the watermark — late by the narrowest possible margin, every
/// time. Under `Reject` all echoes bounce; under `Fold` each is folded
/// with the smallest nonzero weight gap.
pub fn late_just_outside(seed: u64, n: usize, bound: u64) -> LateStream {
    knife_edge(seed, 0xA, n, bound, 1, "late-just-outside")
}

fn knife_edge(seed: u64, salt: u64, n: usize, bound: u64, below_w: u64, name: &str) -> LateStream {
    let mut rng = Rng::new(seed ^ salt);
    let sources = 2usize;
    let mut arrivals = Vec::with_capacity(n);
    // Start the frontier far enough out that W − below_w never
    // underflows.
    let mut frontier: Time = bound + below_w + 2;
    while arrivals.len() < n {
        frontier += rng.range(1, 4);
        arrivals.push(Arrival {
            source: 0,
            t: frontier,
            f: 1 + rng.below(6),
        });
        if arrivals.len() < n {
            // The echo, pinned to the watermark the frontier item just
            // set: W = frontier − bound.
            arrivals.push(Arrival {
                source: 1,
                t: frontier - bound - below_w,
                f: 1 + rng.below(6),
            });
        }
    }
    LateStream {
        name: name.into(),
        seed,
        sources,
        bound,
        checkpoint_every: 16,
        arrivals,
    }
}

/// The full lateness catalogue at one seed: every named arrival family
/// the certifier runs, tuned to `bound` ticks of allowed lateness.
pub fn late_arrival_catalogue(seed: u64, n: usize, bound: u64) -> Vec<LateStream> {
    vec![
        late_uniform_within(seed, n, bound),
        late_heavy_tail(seed, n, bound),
        late_just_inside(seed, n, bound),
        late_just_outside(seed, n, bound),
    ]
}

/// Whether `stream` contains at least one arrival the prefix-max
/// simulation predicts to be late under `bound`. Used by the matrix
/// tests to prove the tail families actually exercise the policies.
pub fn has_late_arrivals(stream: &LateStream) -> bool {
    let mut max_seen: Time = 0;
    let mut wm: Time = 0;
    let mut late = false;
    for a in &stream.arrivals {
        if a.t < wm {
            late = true;
        } else {
            max_seen = max_seen.max(a.t);
            wm = max_seen.saturating_sub(stream.bound);
        }
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times_non_decreasing(ops: &[Op]) -> bool {
        let mut last: Time = 0;
        for op in ops {
            let ts: Vec<Time> = match op {
                Op::Observe(t, _) => vec![*t],
                Op::ObserveBatch(items) => items.iter().map(|&(t, _)| t).collect(),
                Op::Advance(t) => vec![*t],
                Op::Query(_) => continue, // queries may look back
            };
            for t in ts {
                if t < last {
                    return false;
                }
                last = t;
            }
        }
        true
    }

    #[test]
    fn generation_is_deterministic() {
        for sc in [uniform(7, 100), bursty(7, 100), long_silence(7, 100)] {
            let again = match sc.name.as_str() {
                "uniform" => uniform(7, 100),
                "bursty" => bursty(7, 100),
                _ => long_silence(7, 100),
            };
            assert_eq!(sc.ops, again.ops, "{} not deterministic", sc.name);
        }
    }

    #[test]
    fn all_families_keep_time_ordered() {
        for sc in catalogue(0xDEAD_BEEF, 200) {
            assert!(times_non_decreasing(&sc.ops), "{} out of order", sc.name);
            assert!(
                sc.ops.iter().any(|op| matches!(op, Op::Query(_))),
                "{} never queries",
                sc.name
            );
        }
    }

    /// FNV-1a over the Debug rendering of an op list — a cheap frozen
    /// fingerprint for replayability regressions.
    fn ops_fingerprint(ops: &[Op]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{ops:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    #[test]
    fn out_of_order_batch_legacy_sub_case_is_frozen() {
        // The within-batch sub-case is the pre-generalization
        // `out-of-order-batch` family: seeds cited in old failure
        // repros must replay the exact same op sequence forever.
        let sc = out_of_order(7, 160, SkewExtent::WithinBatch);
        assert_eq!(sc.name, "out-of-order-batch");
        assert_eq!(sc.ops, out_of_order_batch(7, 160).ops);
        assert_eq!(
            ops_fingerprint(&sc.ops),
            LEGACY_OOO_FINGERPRINT,
            "legacy out-of-order-batch ops changed — old repro seeds no longer replay"
        );
    }

    const LEGACY_OOO_FINGERPRINT: u64 = 0xbe6e_89f5_a984_e93f;

    #[test]
    fn cross_batch_skew_straddles_batch_boundaries() {
        let sc = out_of_order_cross_batch(11, 300);
        assert_eq!(sc.name, "out-of-order-cross-batch");
        assert!(times_non_decreasing(&sc.ops));
        // At least one tick value must appear in two different batches:
        // the jitter window spans several batch splits, so sorted runs
        // straddle `observe_batch` boundaries.
        let mut straddles = 0;
        let mut last_end: Option<Time> = None;
        for op in &sc.ops {
            if let Op::ObserveBatch(items) = op {
                if let (Some(prev), Some(&(first, _))) = (last_end, items.first()) {
                    if first == prev {
                        straddles += 1;
                    }
                }
                last_end = items.last().map(|&(t, _)| t);
            }
        }
        assert!(straddles > 0, "no tick run straddles a batch boundary");
    }

    #[test]
    fn families_are_deterministic() {
        for (a, b) in late_arrival_catalogue(42, 120, 8)
            .into_iter()
            .zip(late_arrival_catalogue(42, 120, 8))
        {
            assert_eq!(a.arrivals, b.arrivals, "{} not deterministic", a.name);
        }
    }

    #[test]
    fn uniform_within_never_goes_late() {
        for seed in [1, 7, 99] {
            let s = late_uniform_within(seed, 200, 6);
            assert!(
                !has_late_arrivals(&s),
                "within-bound family produced a late arrival at seed {seed}"
            );
        }
    }

    #[test]
    fn tail_and_knife_edge_families_do_go_late() {
        for seed in [1, 7, 99] {
            assert!(has_late_arrivals(&late_heavy_tail(seed, 200, 6)));
            assert!(has_late_arrivals(&late_just_outside(seed, 200, 6)));
        }
    }

    #[test]
    fn just_inside_sits_exactly_on_the_watermark() {
        // Every echo is on-time (t == W), and would be late if the
        // bound were one tick tighter — the family really is on the
        // knife edge.
        let s = late_just_inside(5, 100, 6);
        assert!(!has_late_arrivals(&s), "just-inside echoes went late");
        let tightened = LateStream {
            bound: s.bound - 1,
            ..s.clone()
        };
        assert!(
            has_late_arrivals(&tightened),
            "just-inside echoes are not on the edge"
        );
    }
}
