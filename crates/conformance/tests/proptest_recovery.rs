//! Property tests of recovery determinism (`td-persist`).
//!
//! Two properties, over every time-ordered family in the scenario
//! catalogue, a seeded crash point, and a seeded checkpoint cadence:
//!
//! * **Double recovery is bit-identical.** Opening the same crashed
//!   bytes twice yields the same `RecoveryReport` and byte-identical
//!   state (compared through `save_checkpoint`, the full state
//!   serialization). Recovery has no hidden nondeterminism — no
//!   iteration-order, time, or address dependence.
//! * **Recover-then-ingest matches a never-crashed twin.** A summary
//!   that ingests a prefix, dies (fsync-per-record, so the prefix is
//!   fully durable), recovers, and then ingests the suffix answers
//!   every probe `to_bits`-identically to a twin that lived through
//!   the whole stream. Replay reproduces the exact call shape of the
//!   original ingest, so this holds bit-for-bit even for amortizing
//!   sketches, not merely within ε.

use proptest::prelude::*;
use td_ceh::CascadedEh;
use td_conformance::{catalogue, Op, Scenario};
use td_counters::ExactDecayedSum;
use td_decay::checkpoint::Checkpoint;
use td_decay::{Exponential, StreamAggregate, Time};
use td_persist::{DurabilityOptions, DurableAggregate, MemStorage, StoreOptions, SyncPolicy};

fn opts(checkpoint_every_records: u64) -> DurabilityOptions {
    DurabilityOptions {
        store: StoreOptions {
            // Tiny segments force rotation + multi-segment recovery.
            segment_bytes: 512,
            sync: SyncPolicy::EveryRecord,
        },
        checkpoint_every_records,
    }
}

fn apply<B: StreamAggregate + ?Sized>(b: &mut B, op: &Op) {
    match op {
        Op::Observe(t, f) => b.observe(*t, *f),
        Op::ObserveBatch(items) => b.observe_batch(items),
        Op::Advance(t) => b.advance(*t),
        Op::Query(_) => {}
    }
}

fn apply_durable<B: StreamAggregate + Checkpoint>(d: &mut DurableAggregate<B>, op: &Op) {
    match op {
        Op::Observe(t, f) => d.observe(*t, *f).expect("mem storage never fails"),
        Op::ObserveBatch(items) => d.observe_batch(items).expect("mem storage never fails"),
        Op::Advance(t) => d.advance(*t).expect("mem storage never fails"),
        Op::Query(_) => {}
    }
}

/// Runs both properties for one backend family on one scenario.
fn check<B, F>(make: F, scenario: &Scenario, split_pct: usize, cadence: u64, label: &str)
where
    B: StreamAggregate + Checkpoint,
    F: Fn() -> B + Copy,
{
    let ops: Vec<&Op> = scenario
        .ops
        .iter()
        .filter(|op| !matches!(op, Op::Query(_)))
        .collect();
    let split = ops.len() * split_pct / 100;
    let t_end = scenario.max_time();
    let probes: [Time; 3] = [t_end + 1, t_end + 17, t_end + 160];

    // The doomed run: prefix only, then the process dies.
    let mem = MemStorage::new();
    {
        let (mut doomed, _) =
            DurableAggregate::open(Box::new(mem.clone()), opts(cadence), make).expect("fresh open");
        for op in &ops[..split] {
            apply_durable(&mut doomed, op);
        }
    }
    let dead = mem.crashed();

    // Property 1: double recovery, bit-identical.
    let (mut recovered, stats_a) =
        DurableAggregate::open(Box::new(dead.clone()), opts(cadence), make)
            .unwrap_or_else(|e| panic!("{label}/{}: recovery A failed: {e}", scenario.name));
    let (second, stats_b) = DurableAggregate::open(Box::new(dead), opts(cadence), make)
        .unwrap_or_else(|e| panic!("{label}/{}: recovery B failed: {e}", scenario.name));
    assert_eq!(
        stats_a, stats_b,
        "{label}/{}: two recoveries reported different stats",
        scenario.name
    );
    assert_eq!(
        recovered.inner().save_checkpoint(),
        second.inner().save_checkpoint(),
        "{label}/{}: two recoveries produced different state bytes",
        scenario.name
    );

    // fsync-per-record + clean crash: nothing may be lost.
    let total_prefix: u64 = ops[..split]
        .iter()
        .map(|op| match op {
            Op::Observe(..) | Op::Advance(_) => 1,
            Op::ObserveBatch(items) => items.len() as u64,
            Op::Query(_) => 0,
        })
        .sum();
    assert_eq!(
        stats_a.entries_applied, total_prefix,
        "{label}/{}: lossless crash lost entries",
        scenario.name
    );

    // Property 2: recover-then-ingest == never-crashed twin, to_bits.
    let mut twin = make();
    for op in &ops[..split] {
        apply(&mut twin, op);
    }
    for op in &ops[split..] {
        apply_durable(&mut recovered, op);
        apply(&mut twin, op);
    }
    for t in probes {
        let a = recovered.query(t);
        let b = twin.query(t);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}/{}: split {split_pct}% cadence {cadence}: recovered \
             query({t}) = {a} but the never-crashed twin says {b}",
            scenario.name
        );
    }
}

proptest! {
    /// Both determinism properties across the catalogue's families, an
    /// exact backend and a Theorem-1 sketch, seeded crash points and
    /// checkpoint cadences.
    #[test]
    fn recovery_is_deterministic_and_matches_the_never_crashed_twin(
        seed in 0u64..1_000_000,
        split_pct in 0usize..101,
        cadence in 1u64..32,
        pick in 0usize..2,
    ) {
        for scenario in catalogue(seed, 60) {
            match pick {
                0 => check(
                    || ExactDecayedSum::new(Exponential::new(0.01)),
                    &scenario,
                    split_pct,
                    cadence,
                    "exact/exp",
                ),
                _ => check(
                    || CascadedEh::new(Exponential::new(0.01), 0.1),
                    &scenario,
                    split_pct,
                    cadence,
                    "ceh/exp",
                ),
            }
        }
    }
}
