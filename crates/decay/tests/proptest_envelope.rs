//! Property tests of the one envelope algebra: serving layers stacked in
//! random order — shard missing mass, reorder displacement, registry
//! eviction — each add their [`Envelope`] term, and the truth must stay
//! admitted both by the additive envelope and by its one conversion to a
//! relative bound.
//!
//! The model is a single query tick `T` over a random stream. Each layer
//! rewrites the multiset of items the next layer (and finally the
//! summary) sees, and adds exactly the term the production layer adds:
//!
//! * **shard loss** drops items, `missing(mass, weight_cap)`;
//! * **reorder fold** moves items before a watermark `W` to `W`, each
//!   `excess(f, displacement_cap(W − t))`, plus `missing(mass,
//!   weight_cap)` when `W ≥ T` (the fold is not yet visible);
//! * **registry eviction** drops items, `missing(w, 1.0)` where `w` is
//!   the weight the evicted key would still answer at `T`.
//!
//! The summary then answers anywhere inside its own relative bound
//! around the value of what it saw — often at an edge, and folds often
//! land at `T − 1` or `T`, where the caps are attained. Layer boundaries optionally collapse
//! the envelope through `to_bound` first, as a stage stacked on another
//! serving layer does.

use proptest::prelude::*;
use td_decay::{
    Constant, DecayFunction, Envelope, ErrorBound, Exponential, PolyExponential, Polynomial,
    SlidingWindow, Time,
};

/// xorshift64, so one `u64` seed drives a whole case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn decay(rng: &mut Rng) -> Box<dyn DecayFunction> {
    match rng.below(5) {
        0 => Box::new(Exponential::new(0.001 + rng.unit())),
        1 => Box::new(Polynomial::new(0.1 + 3.0 * rng.unit())),
        2 => Box::new(PolyExponential::new(
            1 + rng.below(3) as u32,
            0.01 + 0.5 * rng.unit(),
        )),
        3 => Box::new(SlidingWindow::new(1 + rng.below(200))),
        _ => Box::new(Constant),
    }
}

/// `Σ f · g(T − t)` over the strict past of `T` (§2.1).
fn value(g: &dyn DecayFunction, items: &[(Time, u64)], t_q: Time) -> f64 {
    items
        .iter()
        .filter(|&&(t, _)| t < t_q)
        .map(|&(t, f)| f as f64 * g.weight(t_q - t))
        .sum()
}

/// Splits off a random subset of `items` (each with probability ~1/3).
fn take_some(rng: &mut Rng, items: &mut Vec<(Time, u64)>) -> Vec<(Time, u64)> {
    let mut taken = Vec::new();
    items.retain(|&it| {
        let take = rng.below(3) == 0;
        if take {
            taken.push(it);
        }
        !take
    });
    taken
}

fn mass(items: &[(Time, u64)]) -> f64 {
    items.iter().map(|&(_, f)| f as f64).sum()
}

/// Runs one stacked case; returns `(est, truth, envelope)`.
fn stacked_case(seed: u64) -> (f64, f64, Envelope) {
    let mut rng = Rng(seed | 1);
    let g = decay(&mut rng);
    let t_q = 1 + rng.below(400);
    let n = 1 + rng.below(60) as usize;
    let raw: Vec<(Time, u64)> = (0..n)
        .map(|_| (rng.below(t_q + 20), 1 + rng.below(100)))
        .collect();
    let truth = value(&*g, &raw, t_q);

    // Layers in stream order (outermost first); each yields the terms
    // it adds, applied innermost first below.
    let mut seen = raw;
    let mut layers: Vec<(Envelope, bool)> = Vec::new();
    for _ in 0..rng.below(7) {
        let terms = Envelope::from(ErrorBound::exact());
        let terms = match rng.below(3) {
            0 => {
                let lost = take_some(&mut rng, &mut seen);
                terms.missing(mass(&lost), g.weight_cap())
            }
            1 => {
                let w = match rng.below(3) {
                    0 => t_q - 1,
                    1 => t_q,
                    _ => rng.below(t_q + 20),
                };
                let (folded, kept): (Vec<_>, Vec<_>) = take_some(&mut rng, &mut seen)
                    .into_iter()
                    .partition(|&(t, _)| t < w);
                seen.extend(kept);
                seen.extend(folded.iter().map(|&(_, f)| (w, f)));
                let terms = folded.iter().fold(terms, |e, &(t, f)| {
                    e.excess(f as f64, g.displacement_cap(w - t))
                });
                if w >= t_q {
                    terms.missing(mass(&folded), g.weight_cap())
                } else {
                    terms
                }
            }
            _ => {
                let evicted = take_some(&mut rng, &mut seen);
                terms.missing(value(&*g, &evicted, t_q), 1.0)
            }
        };
        layers.push((terms, rng.below(2) == 0));
    }

    // The summary answers inside its own bound around what it saw.
    let base = ErrorBound {
        lower: 0.5 * rng.unit(),
        upper: 0.5 * rng.unit(),
    };
    let v = value(&*g, &seen, t_q);
    let at = match rng.below(3) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.unit(),
    };
    let est = v * (1.0 - base.lower + at * (base.lower + base.upper));

    let mut env = Envelope::from(base);
    for (terms, collapse) in layers.into_iter().rev() {
        env = Envelope {
            bound: env.bound,
            under: env.under + terms.under,
            over: env.over + terms.over,
        };
        if collapse {
            env = Envelope::from(env.to_bound(est));
        }
    }
    (est, truth, env)
}

proptest! {
    /// Each case runs a batch of stacked models: one is microseconds,
    /// and the tight corners (a fold at `T − 1` answered at the upper
    /// edge) need a few thousand draws to turn up reliably.
    #[test]
    fn stacked_layers_admit_the_truth(base in any::<u64>()) {
        for i in 0..256u64 {
            let seed = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let (est, truth, env) = stacked_case(seed);
            let slop = 1e-9 * truth.abs().max(1.0);
            prop_assert!(
                env.admits(est, truth, slop),
                "seed {seed}: {env:?} rejects truth {truth} for est {est}"
            );
            let bound = env.to_bound(est);
            prop_assert!(
                bound.admits(est, truth, slop),
                "seed {seed}: to_bound {bound:?} of {env:?} rejects truth {truth} for est {est}"
            );
        }
    }

    /// With no additive terms the envelope is its relative bound, and
    /// conversion is the identity.
    #[test]
    fn termless_envelope_is_its_bound(
        lower in 0.0f64..1.0,
        upper in 0.0f64..1.0,
        est in 0.0f64..1e6,
        truth in 0.0f64..1e6,
    ) {
        let bound = ErrorBound { lower, upper };
        let env = Envelope::from(bound);
        prop_assert_eq!(env.to_bound(est), bound);
        prop_assert_eq!(env.admits(est, truth, 1e-9), bound.admits(est, truth, 1e-9));
    }
}
