//! Seeded input generators. The program under test only ever sees the
//! generated items; every stream is a pure function of its seed.

use td_decay::Time;

/// SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A derived seed for `(seed, stream, round)`.
pub fn subseed(seed: u64, stream: u64, round: u64) -> u64 {
    mix(mix(seed ^ 0x7065_7266_6265_6E63).wrapping_add(stream) ^ mix(round.wrapping_add(1)))
}

/// An in-order stream with bursty timestamps, stored as a pool of
/// batches that repeats with its tick span added each period, so a run
/// of any length replays it without generating items while timed.
pub struct BurstyPool {
    batches: Vec<Vec<(Time, u64)>>,
    span: Time,
}

impl BurstyPool {
    /// `batches` batches of `batch_len` items. Each tick carries a burst
    /// of log-uniform size in `[1, max_burst]`; one to four ticks pass
    /// between bursts.
    pub fn new(rng: &mut Rng, batches: usize, batch_len: usize, max_burst: u64) -> Self {
        let total = batches * batch_len;
        let mut items = Vec::with_capacity(total);
        let mut t: Time = 1;
        let ln_max = (max_burst as f64).ln();
        while items.len() < total {
            let burst = ((rng.unit() * ln_max).exp() as usize).max(1);
            for _ in 0..burst.min(total - items.len()) {
                items.push((t, 1 + rng.below(16)));
            }
            t += 1 + rng.below(4);
        }
        BurstyPool {
            batches: items.chunks(batch_len).map(<[_]>::to_vec).collect(),
            span: t,
        }
    }

    /// Copies batch `b` of the endless stream into `out`.
    pub fn batch_into(&self, b: usize, out: &mut Vec<(Time, u64)>) {
        let offset = (b / self.batches.len()) as Time * self.span;
        out.clear();
        out.extend(
            self.batches[b % self.batches.len()]
                .iter()
                .map(|&(t, f)| (t + offset, f)),
        );
    }
}

/// An in-order backfill followed by an out-of-order live stream.
pub struct LateStream {
    /// `(tick, value)` of the backfill, in tick order.
    pub backfill: Vec<(Time, u64)>,
    /// `(true tick, value)` of the live stream, in arrival order. Every
    /// live tick is after the last backfill tick.
    pub arrivals: Vec<(Time, u64)>,
    /// Arrival key `t + delay` per live arrival (non-decreasing).
    pub keys: Vec<Time>,
    /// `(tick, total mass)` over backfill and live items, by tick.
    pub tick_mass: Vec<(Time, u64)>,
}

impl LateStream {
    /// The last backfill tick.
    pub fn backfill_end(&self) -> Time {
        self.backfill.last().map_or(0, |x| x.0)
    }
}

/// `backfill` in-order items, then `n` live items; `1..2·per_tick`
/// items per tick throughout. Each live item is delayed by up to
/// `bound` ticks, except a `late_frac` share delayed by
/// `bound + 1 ..= bound + tail` ticks; arrival order is by
/// `t + delay`. A live item delayed by at most `bound` is never behind
/// the watermark `max_seen − bound` when it arrives.
pub fn late_stream(
    rng: &mut Rng,
    backfill: usize,
    n: usize,
    per_tick: u64,
    bound: u64,
    late_frac: f64,
    tail: u64,
) -> LateStream {
    let mut s = LateStream {
        backfill: Vec::with_capacity(backfill),
        arrivals: Vec::with_capacity(n),
        keys: Vec::with_capacity(n),
        tick_mass: Vec::new(),
    };
    let burst = |rng: &mut Rng, left: usize| ((1 + rng.below(2 * per_tick - 1)) as usize).min(left);
    let mut t = 1;
    while s.backfill.len() < backfill {
        let mut mass = 0;
        for _ in 0..burst(rng, backfill - s.backfill.len()) {
            let f = 1 + rng.below(16);
            s.backfill.push((t, f));
            mass += f;
        }
        s.tick_mass.push((t, mass));
        t += 1;
    }

    // Live items wait in a ring of per-key buckets; once tick `t` is
    // generated no later item can have key `t`, so that bucket is
    // released in generation order (a stable sort by key, in O(n)).
    let ring = (bound + tail + 1) as usize;
    let mut pending: Vec<Vec<(Time, u64)>> = vec![Vec::new(); ring];
    fn release(s: &mut LateStream, key: Time, bucket: &mut Vec<(Time, u64)>) {
        s.keys.extend(std::iter::repeat_n(key, bucket.len()));
        s.arrivals.append(bucket);
    }
    let mut made = 0;
    while made < n {
        let items = burst(rng, n - made);
        let mut mass = 0;
        for _ in 0..items {
            let f = 1 + rng.below(16);
            let delay = if rng.unit() < late_frac {
                bound + 1 + rng.below(tail)
            } else {
                rng.below(bound + 1)
            };
            pending[((t + delay) % ring as Time) as usize].push((t, f));
            mass += f;
        }
        made += items;
        s.tick_mass.push((t, mass));
        release(&mut s, t, &mut pending[(t % ring as Time) as usize]);
        t += 1;
    }
    for key in t..t + ring as Time {
        release(&mut s, key, &mut pending[(key % ring as Time) as usize]);
    }
    s
}

/// Zipf ranks over `1..=n` with exponent `s`, by inverse CDF with a
/// guide table (one bucket per rank on average, so a draw reads a
/// couple of entries instead of a binary search's twenty).
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let guide = (0..n)
            .map(|k| cdf.partition_point(|&c| c < k as f64 / n as f64) as u32)
            .collect();
        Zipf { cdf, guide }
    }

    /// A rank in `1..=n` (1 is the most frequent).
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let last = self.cdf.len() - 1;
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i as u32 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed() {
        let a = late_stream(&mut Rng::new(7), 3_000, 10_000, 16, 64, 0.01, 256);
        let b = late_stream(&mut Rng::new(7), 3_000, 10_000, 16, 64, 0.01, 256);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.backfill, b.backfill);
        assert_eq!(a.arrivals.len(), 10_000);
        assert_eq!(a.backfill.len(), 3_000);
        assert!(a.backfill.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.arrivals.iter().all(|x| x.0 > a.backfill_end()));
        assert!(a.keys.windows(2).all(|w| w[0] <= w[1]));
        let in_bound = a
            .arrivals
            .iter()
            .zip(&a.keys)
            .filter(|(x, &k)| k - x.0 <= 64)
            .count();
        assert!(in_bound > 9_800 && in_bound < 10_000, "{in_bound} in bound");
        let total: u64 = a.arrivals.iter().chain(&a.backfill).map(|x| x.1).sum();
        assert_eq!(total, a.tick_mass.iter().map(|x| x.1).sum::<u64>());
    }

    #[test]
    fn pool_replays_in_order() {
        let pool = BurstyPool::new(&mut Rng::new(3), 4, 256, 64);
        let mut prev = 0;
        let mut buf = Vec::new();
        for b in 0..12 {
            pool.batch_into(b, &mut buf);
            assert_eq!(buf.len(), 256);
            assert!(buf[0].0 >= prev && buf.windows(2).all(|w| w[0].0 <= w[1].0));
            prev = buf[255].0;
        }
    }

    #[test]
    fn zipf_matches_its_cdf() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(1);
        let draws: Vec<u32> = (0..100_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| (1..=1000).contains(&r)));
        let ones = draws.iter().filter(|&&r| r == 1).count() as f64 / 1e5;
        assert!(
            (ones - z.cdf[0]).abs() < 0.01,
            "rank 1 drew {ones}, expected {}",
            z.cdf[0]
        );
    }
}
