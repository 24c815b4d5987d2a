//! Property (ISSUE 10 satellite): **the keyed registry is
//! indistinguishable from a naive `HashMap<key, B>` twin**.
//!
//! A seeded keyed trace (singles, locality-sorted batches, lazy
//! advances) replays into a `KeyedRegistry<B>` and into one
//! independent backend per key, mirroring the registry's exact ingest
//! call shapes (a batch's per-key run of one item becomes `observe`,
//! longer runs become `observe_batch`). Every per-key answer must be
//! **bit-identical** — the slab, the open-addressing index, lazy
//! advance, and batch regrouping may not perturb a single ULP — for
//! three backend families, with a checkpoint/restore cut mid-trace,
//! and across slot reuse when eviction retires and resurrects keys.

use std::collections::HashMap;

use proptest::prelude::*;
use td_counters::ExpCounter;
use td_decay::{Checkpoint, Exponential, Polynomial, StreamAggregate, Time};
use td_forward::ForwardDecaySum;
use td_registry::{KeyedRegistry, RegistryOptions};

/// One op of a keyed trace.
#[derive(Debug, Clone)]
enum KOp {
    One(u64, Time, u64),
    Batch(Vec<(u64, Time, u64)>),
    Advance(Time),
}

/// Deterministic keyed trace: times non-decreasing, keys fanned by a
/// xorshift stream. `family` picks the op mix: 0 = singles only,
/// 1 = batch-heavy, 2 = advance-heavy (long lazy gaps).
fn keyed_trace(seed: u64, n_keys: u64, n: usize, family: usize) -> Vec<KOp> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut t = 1u64;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let r = step();
        t += r % 4;
        match (family, r % 10) {
            (1, 0..=5) => {
                // Batch of 2..=17 items, times non-decreasing inside.
                let len = 2 + (step() % 16) as usize;
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    let s = step();
                    t += s % 2;
                    items.push((s % n_keys, t, s % 1000 + 1));
                }
                ops.push(KOp::Batch(items));
            }
            (2, 0..=2) => {
                t += 50 + step() % 200;
                ops.push(KOp::Advance(t));
            }
            _ => {
                let s = step();
                ops.push(KOp::One(s % n_keys, t, s % 1000 + 1));
            }
        }
    }
    ops
}

/// Applies one op to the naive twin, mirroring the registry's ingest
/// call shapes exactly: batches group into per-key runs (the registry
/// sorts by slot, so each key's items in a batch form one run in
/// arrival order), and one-item runs go through `observe`.
fn twin_apply<B: StreamAggregate>(twins: &mut HashMap<u64, B>, make: &impl Fn() -> B, op: &KOp) {
    match op {
        KOp::One(k, t, f) => twins.entry(*k).or_insert_with(make).observe(*t, *f),
        KOp::Batch(items) => {
            let mut runs: Vec<(u64, Vec<(Time, u64)>)> = Vec::new();
            for &(k, t, f) in items {
                match runs.iter_mut().find(|(rk, _)| *rk == k) {
                    Some((_, run)) => run.push((t, f)),
                    None => runs.push((k, vec![(t, f)])),
                }
            }
            for (k, run) in runs {
                let b = twins.entry(k).or_insert_with(make);
                if run.len() == 1 {
                    b.observe(run[0].0, run[0].1);
                } else {
                    b.observe_batch(&run);
                }
            }
        }
        KOp::Advance(_) => {
            // Lazy: the registry touches no slot on advance, so the
            // twin backends must not be advanced either.
        }
    }
}

fn reg_apply<B: StreamAggregate>(reg: &mut KeyedRegistry<B>, op: &KOp) {
    match op {
        KOp::One(k, t, f) => reg.observe_keyed(*k, *t, *f),
        KOp::Batch(items) => reg.observe_keyed_batch(items),
        KOp::Advance(t) => reg.advance_clock(*t),
    }
}

fn last_time(ops: &[KOp]) -> Time {
    ops.iter()
        .map(|op| match op {
            KOp::One(_, t, _) => *t,
            KOp::Batch(items) => items.last().map(|&(_, t, _)| t).unwrap_or(0),
            KOp::Advance(t) => *t,
        })
        .max()
        .unwrap_or(1)
}

/// Replays `ops` into both sides (no eviction) and demands
/// bit-identical per-key answers at several probe times. With
/// `cut = Some(i)`, the registry is checkpointed and restored into a
/// fresh instance after op `i` — the restored slab must continue
/// bit-for-bit.
fn check_twin<B>(
    make: impl Fn() -> B + Send + Sync + Clone + 'static,
    ops: &[KOp],
    n_keys: u64,
    cut: Option<usize>,
) where
    B: StreamAggregate + Checkpoint + 'static,
{
    let opts = RegistryOptions {
        expected_keys: 8, // force index growth mid-trace
        ..RegistryOptions::default()
    };
    let mut reg = KeyedRegistry::new(opts.clone(), make.clone());
    let mut twins: HashMap<u64, B> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        reg_apply(&mut reg, op);
        twin_apply(&mut twins, &make, op);
        if cut == Some(i) {
            let bytes = reg.save_checkpoint();
            let mut fresh = KeyedRegistry::new(opts.clone(), make.clone());
            fresh
                .restore_checkpoint(&bytes)
                .expect("clean checkpoint restores");
            reg = fresh;
        }
    }
    let last = last_time(ops);
    for probe in [last + 1, last + 7, last + 60] {
        for k in 0..n_keys {
            let got = reg.query_key(k, probe).estimate;
            let want = twins.get(&k).map_or(0.0, |b| b.query(probe));
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "key {} at q={}: registry {} vs twin {}",
                k,
                probe,
                got,
                want
            );
        }
    }
    prop_assert_eq!(reg.len(), twins.len(), "resident key count diverged");
}

proptest! {
    /// Three backend families × three trace families: never-evicted
    /// keys answer bit-identically to their standalone twins.
    #[test]
    fn registry_is_bit_identical_to_naive_twin(
        seed in 0u64..1_000_000,
        n_keys in 1u64..40,
        family in 0usize..3,
    ) {
        let ops = keyed_trace(seed, n_keys, 300, family);
        check_twin(
            || ForwardDecaySum::new(Exponential::new(0.02)),
            &ops, n_keys, None,
        );
        check_twin(
            || ForwardDecaySum::new(Polynomial::new(1.0)),
            &ops, n_keys, None,
        );
        check_twin(
            || ExpCounter::new(Exponential::new(0.05)),
            &ops, n_keys, None,
        );
    }

    /// A checkpoint/restore cut anywhere in the trace is invisible:
    /// the restored slab continues bit-for-bit.
    #[test]
    fn checkpoint_cut_mid_trace_is_invisible(
        seed in 0u64..1_000_000,
        n_keys in 1u64..24,
        family in 0usize..3,
        cut_pct in 0usize..100,
    ) {
        let ops = keyed_trace(seed, n_keys, 200, family);
        let cut = Some(ops.len() * cut_pct / 100);
        check_twin(
            || ForwardDecaySum::new(Exponential::new(0.02)),
            &ops, n_keys, cut,
        );
        check_twin(
            || ExpCounter::new(Exponential::new(0.05)),
            &ops, n_keys, cut,
        );
    }

    /// Slot reuse is safe: under aggressive eviction, retired slots are
    /// recycled for new keys, yet every key the sweep never touched
    /// still answers bit-identically, and resurrected keys restart
    /// from a fresh state (answer ≤ twin, which kept full history).
    #[test]
    fn slot_reuse_under_eviction_never_corrupts_survivors(
        seed in 0u64..1_000_000,
        n_keys in 4u64..48,
    ) {
        // Advance-heavy traces + fast decay => keys decay to dust and
        // the sweep retires them.
        let ops = keyed_trace(seed, n_keys, 300, 2);
        let make = || ForwardDecaySum::new(Exponential::new(0.2));
        let mut reg = KeyedRegistry::new(
            RegistryOptions {
                expected_keys: 4,
                eviction_threshold: 1e-3,
                sweep_per_ingest: 8,
                record_evictions: true,
            },
            make,
        );
        let mut twins: HashMap<u64, ForwardDecaySum<Exponential>> = HashMap::new();
        for op in &ops {
            reg_apply(&mut reg, op);
            twin_apply(&mut twins, &make, op);
        }
        let evicted: std::collections::HashSet<u64> =
            reg.eviction_log().iter().copied().collect();
        prop_assert_eq!(reg.evictions() as usize, reg.eviction_log().len());
        let probe = last_time(&ops) + 1;
        let slack = reg.evicted_mass();
        for k in 0..n_keys {
            let got = reg.query_key(k, probe).estimate;
            let want = twins.get(&k).map_or(0.0, |b| b.query(probe));
            if !evicted.contains(&k) {
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "never-evicted key {} corrupted by slot reuse",
                    k
                );
            } else {
                // Evicted (possibly resurrected) keys only ever *lose*
                // mass, and never more than the accounted slack.
                prop_assert!(
                    got <= want + 1e-9 * want.abs().max(1.0),
                    "evicted key {} answers {} above its twin {}",
                    k, got, want
                );
                prop_assert!(
                    want - got <= slack + 1e-9 * want.abs().max(1.0),
                    "evicted key {} lost {} but only {} is accounted",
                    k, want - got, slack
                );
            }
        }
    }
}
