//! Property (ISSUE 7, satellite): **reordered equals sorted.** Any
//! within-bound shuffle of any scenario family's observations, pushed
//! through a `td-reorder` stage, must be indistinguishable — released
//! stream element-for-element, answers bit-for-bit — from a sorted
//! replay of the same items into the same backend.
//!
//! Two layers:
//!
//! * a recording backend proves the released stream *is* the stable
//!   sort of the arrival sequence (same items, same order, and
//!   non-decreasing timestamps enforced on every call — the "bit-for-bit
//!   non-decreasing invariant downstream");
//! * every backend in the lateness matrix then answers queries with
//!   `to_bits`-identical f64s under the shuffled-and-reordered feed vs
//!   the sorted feed — not "within the envelope": *identical*.

use proptest::prelude::*;
use td_conformance::{catalogue, Op, Plain, Rng};
use td_decay::{StorageAccounting, StreamAggregate, Time};
use td_reorder::{LatenessPolicy, Reorderer};

/// Flattens a scenario's observations to `(t, f)` items, dropping
/// queries and advances (the stage drives the inner clock itself).
fn items_of(ops: &[Op]) -> Vec<(Time, u64)> {
    let mut items = Vec::new();
    for op in ops {
        match op {
            Op::Observe(t, f) => items.push((*t, *f)),
            Op::ObserveBatch(batch) => items.extend_from_slice(batch),
            _ => {}
        }
    }
    items
}

/// A within-bound shuffle: each item is delayed by at most `bound`
/// arrival keys, so no arrival can ever be late (the watermark when it
/// arrives is at most its own timestamp — see `late_uniform_within`).
fn shuffle_within_bound(items: &[(Time, u64)], bound: u64, rng: &mut Rng) -> Vec<(Time, u64)> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    let keys: Vec<Time> = items
        .iter()
        .map(|&(t, _)| t + rng.below(bound + 1))
        .collect();
    order.sort_by_key(|&i| keys[i]);
    order.into_iter().map(|i| items[i]).collect()
}

/// A backend that records exactly what reaches it and enforces the
/// non-decreasing contract on every single call.
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
        assert!(
            t >= self.last_t,
            "released stream went backwards: {t} after {}",
            self.last_t
        );
        self.last_t = t;
        self.items.push((t, f));
    }
    fn advance(&mut self, t: Time) {
        assert!(
            t >= self.last_t,
            "clock went backwards: {t} after {}",
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

proptest! {
    /// Layer 1: the released stream is the stable sort of the arrivals,
    /// for every family in the catalogue.
    #[test]
    fn released_stream_is_the_stable_sort(
        seed in 0u64..1_000_000,
        bound_pick in 0usize..3,
    ) {
        let bound = [2u64, 7, 23][bound_pick];
        for scenario in catalogue(seed, 80) {
            let items = items_of(&scenario.ops);
            if items.is_empty() {
                continue;
            }
            let mut rng = Rng::new(seed ^ 0xB0);
            let arrivals = shuffle_within_bound(&items, bound, &mut rng);

            let mut r = Reorderer::with_sources(
                Recorder::default(),
                Box::new(td_decay::Constant),
                bound,
                LatenessPolicy::Reject,
                3,
            );
            for &(t, f) in &arrivals {
                let source = rng.below(3) as usize;
                prop_assert!(
                    r.push(source, t, f).is_ok(),
                    "{} seed {seed} bound {bound}: within-bound arrival (t={t}) went late",
                    scenario.name
                );
            }
            r.flush();

            let mut sorted = arrivals.clone();
            sorted.sort_by_key(|&(t, _)| t); // stable: arrival order within a tick
            prop_assert_eq!(
                &r.inner().items,
                &sorted,
                "{} seed {} bound {}: released stream != stable sort",
                scenario.name,
                seed,
                bound
            );
        }
    }

    /// Layer 2: every backend in the lateness matrix answers with
    /// bit-identical f64s under the reordered feed vs a sorted per-item
    /// replay — across all families, bounds, and query offsets.
    #[test]
    fn reordered_equals_sorted_for_every_backend(
        seed in 0u64..1_000_000,
        bound_pick in 0usize..3,
        case_pick in 0usize..10,
    ) {
        let bound = [2u64, 7, 23][bound_pick];
        let matrix = td_conformance::default_lateness_matrix();
        let case = &matrix[case_pick % matrix.len()];
        for scenario in catalogue(seed, 80) {
            let items = items_of(&scenario.ops);
            if items.is_empty() {
                continue;
            }
            let mut rng = Rng::new(seed ^ 0xB1);
            let arrivals = shuffle_within_bound(&items, bound, &mut rng);

            let mut r = Reorderer::with_sources(
                Plain(case.backend().expect("lateness rows wrap one backend")),
                case.stage_decay().expect("lateness rows carry a stage decay"),
                bound,
                LatenessPolicy::Reject,
                3,
            );
            for &(t, f) in &arrivals {
                let source = rng.below(3) as usize;
                prop_assert!(r.push(source, t, f).is_ok());
            }
            r.flush();

            let mut direct = Plain(case.backend().expect("backend"));
            let mut sorted = arrivals.clone();
            sorted.sort_by_key(|&(t, _)| t);
            for &(t, f) in &sorted {
                direct.observe(t, f);
            }

            // Probes start at the clock (both replicas sit at t_max):
            // some backends (WBMH) refuse to look further back.
            let t_max = scenario.max_time();
            for q in [t_max, t_max + 1, t_max + 7, t_max + 100] {
                prop_assert_eq!(
                    r.query(q).to_bits(),
                    direct.query(q).to_bits(),
                    "{}+{} seed {} bound {}: answers diverged at q={} \
                     (reordered {} vs sorted {})",
                    case.name,
                    scenario.name,
                    seed,
                    bound,
                    q,
                    r.query(q),
                    direct.query(q)
                );
            }
        }
    }
}
