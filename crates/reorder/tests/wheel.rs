//! The calendar wheel's release order under the shapes that stress it:
//! a ring that grows while it holds items, `advance` and `flush` jumps
//! longer than the ring, sources interleaving equal ticks, sparse ticks
//! under a bound far larger than their spacing, a burst followed by a
//! sparse tail, and a bound far larger than any ring. Each case compares the released stream
//! item for item against the stable sort of the arrivals, and a decayed
//! sum fed through the stage `to_bits` against a sorted replay.

use td_counters::ExactDecayedSum;
use td_decay::{DecayFunction, Exponential, StorageAccounting, StreamAggregate, Time};
use td_reorder::{LatenessPolicy, Reorderer};

/// A backend that records exactly what reaches it and enforces the
/// non-decreasing contract on every call.
#[derive(Clone, Default)]
struct Recorder {
    items: Vec<(Time, u64)>,
    last_t: Time,
}

impl StorageAccounting for Recorder {
    fn storage_bits(&self) -> u64 {
        (self.items.len() * 128) as u64
    }
}

impl StreamAggregate for Recorder {
    fn observe(&mut self, t: Time, f: u64) {
        assert!(t >= self.last_t, "released {t} after {}", self.last_t);
        self.last_t = t;
        self.items.push((t, f));
    }
    fn advance(&mut self, t: Time) {
        assert!(
            t >= self.last_t,
            "clock went back to {t} from {}",
            self.last_t
        );
        self.last_t = t;
    }
    fn query(&self, _t: Time) -> f64 {
        0.0
    }
    fn merge_from(&mut self, _other: &Self) {
        unimplemented!()
    }
}

#[derive(Clone, Copy)]
enum Step {
    Push(usize, Time, u64),
    Advance(Time),
    Flush,
}

fn decay() -> Exponential {
    Exponential::new(0.001)
}

fn exact() -> ExactDecayedSum<Box<dyn DecayFunction>> {
    ExactDecayedSum::new(Box::new(decay()) as Box<dyn DecayFunction>)
}

fn play<A: StreamAggregate>(r: &mut Reorderer<A>, steps: &[Step]) {
    for &step in steps {
        match step {
            Step::Push(source, t, f) => r
                .push(source, t, f)
                .unwrap_or_else(|e| panic!("on-time arrival refused: {e}")),
            Step::Advance(t) => r.advance(t),
            Step::Flush => r.flush(),
        }
    }
    r.flush();
}

/// Runs `steps` through a recording stage and an exact-sum stage and
/// checks both against the stable sort of the pushed items.
fn certify(lateness: u64, sources: usize, steps: &[Step]) {
    fn stage<A: StreamAggregate>(inner: A, lateness: u64, sources: usize) -> Reorderer<A> {
        let policy = LatenessPolicy::Reject;
        Reorderer::with_sources(inner, Box::new(decay()), lateness, policy, sources)
    }
    let mut sorted: Vec<(Time, u64)> = steps
        .iter()
        .filter_map(|s| match *s {
            Step::Push(_, t, f) => Some((t, f)),
            _ => None,
        })
        .collect();
    sorted.sort_by_key(|&(t, _)| t); // stable: arrival order within a tick

    let mut rec = stage(Recorder::default(), lateness, sources);
    play(&mut rec, steps);
    assert_eq!(rec.stats().buffered_items, 0);
    assert_eq!(rec.stats().released_items, sorted.len() as u64);
    assert!(
        rec.inner().items == sorted,
        "released stream != stable sort"
    );

    let mut staged = stage(exact(), lateness, sources);
    play(&mut staged, steps);
    let mut direct = exact();
    for &(t, f) in &sorted {
        direct.observe(t, f);
    }
    let end = sorted.last().map_or(0, |&(t, _)| t);
    for q in [end, end + 1, end + 1000] {
        assert_eq!(
            staged.query(q).to_bits(),
            direct.query(q).to_bits(),
            "answer at {q} differs from the sorted replay"
        );
    }
}

/// A small deterministic generator (splitmix64).
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Items at `ticks`, each delayed by up to `skew` arrival positions'
/// worth of ticks, so none is late under a bound `≥ skew`.
fn shuffled(ticks: &[Time], skew: u64, rng: &mut Mix) -> Vec<(Time, u64)> {
    let mut keyed: Vec<(Time, Time, u64)> = ticks
        .iter()
        .map(|&t| (t + rng.below(skew + 1), t, 1 + rng.below(9)))
        .collect();
    keyed.sort_by_key(|&(k, _, _)| k);
    keyed.into_iter().map(|(_, t, f)| (t, f)).collect()
}

#[test]
fn ring_grows_while_holding_items() {
    // Ticks 7 apart under a bound of 5,000: the live span (5,000 ticks)
    // outruns the buffered count (~700), so the ring starts small,
    // buckets hold several ticks, and it doubles repeatedly with
    // hundreds of items inside.
    let mut rng = Mix(1);
    let ticks: Vec<Time> = (1..4000).map(|i| i * 7).collect();
    let steps: Vec<Step> = shuffled(&ticks, 5000, &mut rng)
        .into_iter()
        .map(|(t, f)| Step::Push(0, t, f))
        .collect();
    certify(5000, 1, &steps);

    // Dense ticks: the ring reaches the span and buckets hold one tick.
    let ticks: Vec<Time> = (0..20_000).map(|i| 100 + i / 5).collect();
    let steps: Vec<Step> = shuffled(&ticks, 300, &mut rng)
        .into_iter()
        .map(|(t, f)| Step::Push(rng.below(2) as usize, t, f))
        .collect();
    certify(300, 2, &steps);
}

#[test]
fn advance_and_flush_jumps_longer_than_the_ring() {
    let mut rng = Mix(2);
    let mut steps = Vec::new();
    // Sparse items under a huge bound: the ring stays at a few buckets
    // while the due range of each jump spans millions of ticks.
    let mut base = 10;
    for round in 0..6u64 {
        let ticks: Vec<Time> = (0..40).map(|i| base + i * 997 + round).collect();
        for (t, f) in shuffled(&ticks, 30_000, &mut rng) {
            steps.push(Step::Push(0, t, f));
        }
        let last = ticks[ticks.len() - 1];
        if round % 2 == 0 {
            // Releases the older half of the buffer only.
            steps.push(Step::Advance(last + (1 << 20) - 20_000));
        } else {
            steps.push(Step::Flush);
        }
        base = last + (1 << 20);
    }
    certify(1 << 20, 1, &steps);

    // Dense ticks, then a punctuation far past everything buffered.
    let ticks: Vec<Time> = (0..3000).map(|i| 50 + i / 3).collect();
    let mut steps: Vec<Step> = shuffled(&ticks, 40, &mut rng)
        .into_iter()
        .map(|(t, f)| Step::Push(0, t, f))
        .collect();
    steps.push(Step::Advance(1 << 30));
    steps.push(Step::Push(0, (1 << 30) - 40, 5));
    steps.push(Step::Push(0, (1 << 30) - 39, 6));
    certify(64, 1, &steps);
}

#[test]
fn two_sources_interleave_equal_ticks() {
    let mut rng = Mix(3);
    let mut steps = Vec::new();
    for tick in 1..500u64 {
        // Both sources report the same ticks, out of order and with
        // different values, alternating arrivals.
        for k in 0..4 {
            let t = tick.saturating_sub(rng.below(6));
            steps.push(Step::Push(k % 2, t.max(1), 10 * tick + k as u64));
        }
    }
    certify(8, 2, &steps);
}

#[test]
fn sparse_ticks_under_a_wide_bound() {
    // Nanosecond-like ticks ~10^4 apart under a bound of 10^8: thousands
    // of items buffered over a span far wider than the ring, so buckets
    // are thousands of ticks wide and hold several ticks each.
    let mut rng = Mix(4);
    let ticks: Vec<Time> = (1..6000).map(|i| i * 10_000 + rng.below(3)).collect();
    let steps: Vec<Step> = shuffled(&ticks, 2_000_000, &mut rng)
        .into_iter()
        .map(|(t, f)| Step::Push(rng.below(2) as usize, t, f))
        .collect();
    certify(100_000_000, 2, &steps);

    // Equal ticks in pairs and triples inside the wide buckets.
    let ticks: Vec<Time> = (0..6000).map(|i| 1 + (i / 3) * 4_999).collect();
    let steps: Vec<Step> = shuffled(&ticks, 50_000, &mut rng)
        .into_iter()
        .map(|(t, f)| Step::Push(0, t, f))
        .collect();
    certify(10_000_000, 1, &steps);

    // Clusters of four adjacent ticks, fifty items each, 10^4 ticks
    // apart under a bound a tenth of the stream: a cluster shares one
    // wide bucket, its items arrive interleaved across ticks, and each
    // release stable-sorts the bucket.
    let ticks: Vec<Time> = (0..100_000)
        .map(|i| 1 + (i / 200) * 10_000 + i % 4)
        .collect();
    let steps: Vec<Step> = shuffled(&ticks, 3, &mut rng)
        .into_iter()
        .map(|(t, f)| Step::Push(rng.below(2) as usize, t, f))
        .collect();
    certify(500_000, 2, &steps);
}

#[test]
fn burst_then_sparse_tail() {
    // A dense burst grows the ring to thousands of narrow buckets; the
    // sparse tail after it walks them mostly empty, and a final advance
    // jumps across the whole ring.
    let mut rng = Mix(5);
    let mut ticks: Vec<Time> = (0..8000).map(|i| 1 + i / 4).collect();
    ticks.extend((1..500).map(|i| 2000 + i * 3_001));
    let mut steps: Vec<Step> = shuffled(&ticks, 1500, &mut rng)
        .into_iter()
        .map(|(t, f)| Step::Push(rng.below(2) as usize, t, f))
        .collect();
    steps.push(Step::Advance(1 << 32));
    certify(1 << 20, 2, &steps);
}

#[test]
fn huge_bound_allocates_by_items_not_by_ticks() {
    // A per-tick ring of 2^39 buckets would abort on allocation; the
    // wheel sizes by buffered items and finishes at once.
    let steps = [
        Step::Push(0, 1 << 39, 3),
        Step::Push(0, 1, 2),
        Step::Push(0, (1 << 39) - 5, 4),
        Step::Push(0, 1, 1),
    ];
    certify(1 << 40, 1, &steps);
    let steps = [Step::Push(0, 1, 2), Step::Push(0, 1 << 39, 3)];
    certify(1 << 40, 1, &steps);
}

#[test]
fn zero_lateness_push_releases_on_arrival() {
    // At a bound of 0 every on-time item is due as it arrives: one that
    // raises the watermark, one at it, and an equal-tick item from the
    // other source. Items below the watermark are late: `Reject` drops
    // them with a typed error, `Fold` applies them at the watermark.
    // The model: what reaches the backend is the arrival stream with
    // each late item dropped or clamped to the watermark.
    let mut rng = Mix(6);
    let mut arrivals = Vec::new();
    let mut t: Time = 0;
    for _ in 0..3000 {
        t += rng.below(3);
        let late = rng.below(10) == 0 && t > 0;
        let at = if late { t - 1 - rng.below(t.min(5)) } else { t };
        arrivals.push((rng.below(2) as usize, at, 1 + rng.below(9)));
    }
    for policy in [LatenessPolicy::Reject, LatenessPolicy::Fold] {
        let decay = || Box::new(decay()) as Box<dyn DecayFunction>;
        let mut rec = Reorderer::with_sources(Recorder::default(), decay(), 0, policy, 2);
        let mut staged = Reorderer::with_sources(exact(), decay(), 0, policy, 2);
        let (mut want, mut w) = (Vec::new(), 0);
        for &(source, t, f) in &arrivals {
            let refused = rec.push(source, t, f).is_err();
            assert_eq!(staged.push(source, t, f).is_err(), refused);
            if t >= w {
                want.push((t, f));
                w = t;
            } else if policy == LatenessPolicy::Fold {
                want.push((w, f));
            } else {
                assert!(refused, "late item at {t} under W = {w} was accepted");
            }
            assert_eq!(rec.stats().buffered_items, 0, "an item waited at bound 0");
            assert_eq!(rec.watermark(), w);
        }
        assert!(
            rec.inner().items == want,
            "{policy:?}: released stream != arrivals"
        );
        let mut direct = exact();
        for &(t, f) in &want {
            direct.observe(t, f);
        }
        for q in [w, w + 1, w + 1000] {
            assert_eq!(
                staged.query(q).to_bits(),
                direct.query(q).to_bits(),
                "{policy:?}: answer at {q} differs from the replay"
            );
        }
    }
}
