//! Property tests for the distributed-merge and snapshot surfaces:
//! arbitrary stream splits must merge back to (approximately) the
//! whole-stream summary, and snapshots must round-trip exactly.

use proptest::prelude::*;
use td_conformance::Oracle;
use td_counters::{ExactDecayedSum, ExpCounter, PolyExpCounter, QuantizedExpCounter};
use td_decay::checkpoint::Checkpoint;
use td_eh::{DominationEh, WindowSketch};
use timedecay::{CascadedEh, Constant, DecayFunction, Exponential, Polynomial, Wbmh};

/// A random stream plus a random site assignment for each item.
fn split_stream_strategy() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    proptest::collection::vec((1u64..4, 0u64..8, any::<bool>()), 10..300).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(dt, f, site)| {
                t += dt;
                (t, f, site)
            })
            .collect()
    })
}

/// A random stream dealt across three sites.
fn three_site_stream() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((1u64..4, 0u64..8, 0u64..3), 10..300).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(dt, f, site)| {
                t += dt;
                (t, f, site)
            })
            .collect()
    })
}

/// Certified 3-way merge associativity: the stream is dealt across
/// three shards (every shard's clock mirrored through `advance` so
/// merge preconditions hold), then folded in both association orders —
/// `(s0 ⊕ s1) ⊕ s2` and `s0 ⊕ (s1 ⊕ s2)`. Each fold's answer must land
/// inside the envelope the *merged summary itself* certifies via
/// `StreamAggregate::error_bound`, checked against the exact oracle of
/// the whole stream.
fn certify_three_way_split<A, G>(
    make: impl Fn() -> A,
    decay: G,
    items: &[(u64, u64, u64)],
) -> Result<(), String>
where
    A: timedecay::StreamAggregate + Clone,
    G: DecayFunction,
{
    let mut oracle = Oracle::new(decay);
    let mut shards: Vec<A> = (0..3).map(|_| make()).collect();
    for &(t, f, site) in items {
        oracle.observe(t, f);
        for (i, s) in shards.iter_mut().enumerate() {
            if i == site as usize {
                s.observe(t, f);
            } else {
                s.advance(t);
            }
        }
    }
    let t_end = items.last().map(|&(t, _, _)| t).unwrap_or(1) + 1;
    for s in shards.iter_mut() {
        s.advance(t_end);
    }

    let mut left = shards[0].clone();
    left.merge_from(&shards[1]);
    left.merge_from(&shards[2]);

    let mut tail = shards[1].clone();
    tail.merge_from(&shards[2]);
    let mut right = shards[0].clone();
    right.merge_from(&tail);

    let truth = oracle.decayed_sum(t_end);
    let slop = 1e-9 * truth.abs().max(1.0);
    for (label, merged) in [("(s0+s1)+s2", &left), ("s0+(s1+s2)", &right)] {
        let est = merged.query(t_end);
        let bound = merged.error_bound();
        if !bound.admits(est, truth, slop) {
            return Err(format!(
                "{label}: est {est} outside envelope [-{}, +{}] of truth {truth}",
                bound.lower, bound.upper
            ));
        }
    }
    Ok(())
}

proptest! {
    /// Exponential counters merge exactly.
    #[test]
    fn exp_counter_merge_is_exact(items in split_stream_strategy(), lambda in 0.001f64..0.5) {
        let g = Exponential::new(lambda);
        let mut whole = ExpCounter::new(g);
        let mut a = ExpCounter::new(g);
        let mut b = ExpCounter::new(g);
        for &(t, f, site) in &items {
            whole.observe(t, f);
            if site {
                a.observe(t, f);
            } else {
                b.observe(t, f);
            }
        }
        a.merge_from(&b);
        let t_end = items.last().map(|&(t, _, _)| t).unwrap_or(1) + 1;
        let (m, w) = (a.query(t_end), whole.query(t_end));
        prop_assert!((m - w).abs() <= 1e-9 * w.max(1.0), "{m} vs {w}");
    }

    /// Polyexponential pipelines merge exactly.
    #[test]
    fn polyexp_merge_is_exact(items in split_stream_strategy(), k in 0u32..4) {
        let lambda = 0.05;
        let mut whole = PolyExpCounter::new(k, lambda);
        let mut a = PolyExpCounter::new(k, lambda);
        let mut b = PolyExpCounter::new(k, lambda);
        for &(t, f, site) in &items {
            whole.observe(t, f);
            if site {
                a.observe(t, f);
            } else {
                b.observe(t, f);
            }
        }
        a.merge_from(&b);
        let t_end = items.last().map(|&(t, _, _)| t).unwrap_or(1) + 10;
        let (m, w) = (a.query(t_end), whole.query(t_end));
        prop_assert!((m - w).abs() <= 1e-9 * w.abs().max(1.0), "{m} vs {w}");
    }

    /// Two merged domination EHs answer window queries within 2ε of the
    /// union's truth.
    #[test]
    fn domination_eh_merge_within_band(items in split_stream_strategy(), eps in 0.05f64..0.5) {
        let mut a = DominationEh::new(eps, None);
        let mut b = DominationEh::new(eps, None);
        for &(t, f, site) in &items {
            if site {
                a.observe(t, f);
            } else {
                b.observe(t, f);
            }
        }
        a.merge_from(&b);
        let t_end = items.last().map(|&(t, _, _)| t).unwrap_or(1) + 1;
        let mut w = 1u64;
        while w < t_end {
            let truth: u64 = items
                .iter()
                .filter(|&&(t, _, _)| t + w >= t_end)
                .map(|&(_, f, _)| f)
                .sum();
            let est = a.query_window(t_end, w);
            prop_assert!(
                (est - truth as f64).abs() <= 2.0 * eps * truth as f64 + 8.0,
                "w={w}: est={est}, truth={truth}"
            );
            w *= 2;
        }
    }

    /// Merged WBMHs keep the single-histogram one-sided ε band.
    #[test]
    fn wbmh_merge_keeps_single_band(
        items in split_stream_strategy(),
        eps in 0.1f64..0.5,
        alpha in 0.5f64..2.5,
    ) {
        let g = Polynomial::new(alpha);
        let mut a = Wbmh::new(g, eps, 1 << 16);
        let mut b = Wbmh::new(g, eps, 1 << 16);
        let mut exact = ExactDecayedSum::new(g);
        for &(t, f, site) in &items {
            exact.observe(t, f);
            if site {
                a.observe(t, f);
                b.advance(t);
            } else {
                b.observe(t, f);
                a.advance(t);
            }
        }
        let t_end = items.last().map(|&(t, _, _)| t).unwrap_or(1) + 1;
        a.advance(t_end);
        b.advance(t_end);
        a.merge_from(&b);
        let truth = exact.query(t_end);
        let est = a.query(t_end);
        prop_assert!(est >= truth * (1.0 - 1e-9), "{est} < {truth}");
        prop_assert!(est <= truth * (1.0 + eps) + 1e-9, "{est} > (1+{eps}){truth}");
    }

    /// CEH merge: one-sided within 2ε (two sites).
    #[test]
    fn ceh_merge_within_two_eps(items in split_stream_strategy(), eps in 0.05f64..0.5) {
        let g = Polynomial::new(1.0);
        let mut a = CascadedEh::new(g, eps);
        let mut b = CascadedEh::new(g, eps);
        let mut exact = ExactDecayedSum::new(g);
        for &(t, f, site) in &items {
            exact.observe(t, f);
            if site {
                a.observe(t, f);
            } else {
                b.observe(t, f);
            }
        }
        a.merge_from(&b);
        let t_end = items.last().map(|&(t, _, _)| t).unwrap_or(1) + 1;
        let truth = exact.query(t_end);
        let est = a.query(t_end);
        prop_assert!(est >= truth * (1.0 - 1e-9), "{est} < {truth}");
        prop_assert!(est <= truth * (1.0 + 2.0 * eps) + 1e-9, "{est} vs {truth}");
    }

    /// 3-way associativity, exact counters: both folds land inside the
    /// certified envelope (which is exact up to f64 order).
    #[test]
    fn three_way_split_certifies_exact_sum(items in three_site_stream(), alpha in 0.5f64..2.5) {
        let g = Polynomial::new(alpha);
        certify_three_way_split(|| ExactDecayedSum::new(g), g, &items)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// 3-way associativity, §3.1 exponential counter.
    #[test]
    fn three_way_split_certifies_exp_counter(items in three_site_stream(), lambda in 0.001f64..0.5) {
        let g = Exponential::new(lambda);
        certify_three_way_split(|| ExpCounter::new(g), g, &items)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// 3-way associativity, quantized counter: the envelope widens with
    /// accumulated roundings (merges included) and must still hold.
    #[test]
    fn three_way_split_certifies_quantized_counter(
        items in three_site_stream(),
        m in 12u32..24,
    ) {
        let g = Exponential::new(0.05);
        certify_three_way_split(|| QuantizedExpCounter::new(g, m), g, &items)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// 3-way associativity, §3.4 pipelined counters.
    #[test]
    fn three_way_split_certifies_polyexp(items in three_site_stream(), k in 0u32..4) {
        let g = timedecay::PolyExponential::new(k, 0.05);
        certify_three_way_split(|| PolyExpCounter::new(k, 0.05), g, &items)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// 3-way associativity, Theorem 1 cascaded EH: the three-site
    /// fan-in widens the one-sided envelope to 3ε.
    #[test]
    fn three_way_split_certifies_ceh(items in three_site_stream(), eps in 0.05f64..0.5) {
        let g = Polynomial::new(1.0);
        certify_three_way_split(|| CascadedEh::new(g, eps), g, &items)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// 3-way associativity, §5 WBMH (mirrored clocks are the merge
    /// precondition — `certify_three_way_split` maintains them).
    #[test]
    fn three_way_split_certifies_wbmh(items in three_site_stream(), eps in 0.1f64..0.5) {
        let g = Polynomial::new(1.0);
        certify_three_way_split(|| Wbmh::new(g, eps, 1 << 16), g, &items)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// 3-way associativity, §3.2 domination EH as a landmark counter.
    #[test]
    fn three_way_split_certifies_domination_eh(items in three_site_stream(), eps in 0.05f64..0.5) {
        certify_three_way_split(|| DominationEh::new(eps, None), Constant, &items)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Checkpoint save/restore is an exact round-trip at arbitrary cut
    /// points, and the restored histogram continues identically.
    #[test]
    fn wbmh_snapshot_round_trip(
        items in split_stream_strategy(),
        cut in 0.1f64..0.9,
        approx in any::<bool>(),
    ) {
        let g = Polynomial::new(1.0);
        let make = || {
            if approx {
                Wbmh::with_approx_counts(g, 0.2, 1 << 16, 0.1)
            } else {
                Wbmh::new(g, 0.2, 1 << 16)
            }
        };
        let mut h = make();
        let cut_idx = ((items.len() as f64) * cut) as usize;
        for &(t, f, _) in &items[..cut_idx] {
            h.observe(t, f);
        }
        let mut restored = make();
        restored
            .restore_checkpoint(&h.save_checkpoint())
            .expect("own checkpoint restores");
        prop_assert_eq!(h.snapshot(), restored.snapshot());
        for &(t, f, _) in &items[cut_idx..] {
            h.observe(t, f);
            restored.observe(t, f);
        }
        let t_end = items.last().map(|&(t, _, _)| t).unwrap_or(1) + 1;
        prop_assert_eq!(h.query(t_end), restored.query(t_end));
        prop_assert_eq!(h.snapshot(), restored.snapshot());
    }
}
