//! `late-durable`: two interleaved sources with up to 64 ticks of skew
//! and ~1% of items beyond the bound (folded), through the reorder stage
//! into a one-shard durable engine over exponential forward decay. The
//! WAL and checkpoints go to `DirStorage` in a fresh directory inside
//! the checkout. One query per 16,384 items. Set-up backfills in-order
//! history straight into the engine and includes a cold start from the
//! store it wrote; every round ends by dropping the engine, reopening
//! the store and comparing answers bit for bit.
//!
//! The backfill bypasses the reorder stage because a folding stage's
//! envelope widening lives only in the stage: a store that holds folded
//! mass and is reopened under a fresh stage serves answers that no
//! envelope covers. The restart in set-up therefore crosses no fold.

use std::path::{Path, PathBuf};
use std::time::Instant;

use td_conformance::oracle::Oracle;
use td_decay::{DecayFunction, Exponential, RestoreError, Time};
use td_forward::ForwardDecaySum;
use td_persist::{recover, DirStorage, Storage, StoreOptions, SyncPolicy};
use td_reorder::{LatenessPolicy, Reorderer};
use td_shard::{DurabilityConfig, ShardedAggregate, SupervisorOptions};

use crate::cpu;
use crate::engine::{healthy, layer_metrics, Answered, Counters, Engine};
use crate::gen::{late_stream, subseed, LateStream, Rng};
use crate::stats::{quantile, Check};
use crate::trace::{self, Kind, Timed, TimedStorage};
use crate::{Round, Workload};

const BATCH: usize = 1024;
const BACKFILL_ITEMS: usize = 1024 * BATCH;
const TIMED_ITEMS: usize = 8192 * BATCH;
/// Batches per query. Each query is a barrier that waits for the
/// worker to log and apply everything submitted; its wait is mostly
/// cross-CPU wake-up latency, which swings with the host's load.
const QUERY_EVERY: usize = 16;
const PER_TICK: u64 = 64;
const BOUND: u64 = 64;
const LATE_FRAC: f64 = 0.01;
const LATE_TAIL: u64 = 256;
const HALF_LIFE: Time = 4096;
/// The check folds the oracle's history into one decayed carry once it
/// holds this many ticks, so an answer costs O(FOLD_TICKS), not
/// O(history). Exponential decay factors exactly, up to rounding far
/// below `stats::slop`.
const FOLD_TICKS: usize = 1024;
const SOURCES: usize = 2;
/// Chunks between durable checkpoints (a few per round).
const CHECKPOINT_EVERY_CHUNKS: u64 = 4096;
/// The store lives on the host's disk, whose fsync latency measures the
/// host, not the code: no WAL fsync falls inside a round's timed phase
/// (no sync cadence, no segment rotation, no idle flush). Appends keep
/// the whole write path (encode, checksum, syscalls); traced rounds
/// price one `flush_wal` after the timed phase.
const SYNC_EVERY_RECORDS: u64 = 1 << 30;
const SEGMENT_BYTES: u64 = 1 << 30;

type Fwd = ForwardDecaySum<Exponential>;

fn backend() -> Fwd {
    ForwardDecaySum::new(Exponential::with_half_life(HALF_LIFE))
}

fn decay() -> Box<dyn DecayFunction> {
    Box::new(Exponential::with_half_life(HALF_LIFE))
}

fn options() -> SupervisorOptions {
    SupervisorOptions {
        checkpoint_every_chunks: CHECKPOINT_EVERY_CHUNKS,
        wal_flush_idle: None,
        ..SupervisorOptions::default()
    }
}

fn store_options() -> StoreOptions {
    StoreOptions {
        sync: SyncPolicy::EveryN(SYNC_EVERY_RECORDS),
        segment_bytes: SEGMENT_BYTES,
    }
}

pub struct LateDurable {
    seed: u64,
    scratch: PathBuf,
}

impl LateDurable {
    pub fn new(seed: u64, scratch: &str) -> Self {
        LateDurable {
            seed,
            scratch: PathBuf::from(scratch),
        }
    }
}

/// Builds the engine over `dir`, plain or adapted.
trait Build: Engine + Sized {
    fn open(dir: &Path) -> Result<Self, RestoreError>;
}

impl Build for ShardedAggregate<Fwd> {
    fn open(dir: &Path) -> Result<Self, RestoreError> {
        let cfg = DurabilityConfig {
            storage: Box::new(DirStorage::open(dir)?),
            options: store_options(),
        };
        Ok(ShardedAggregate::durable(1, options(), cfg, backend)?.0)
    }
}

impl Build for Timed<ShardedAggregate<Timed<Fwd>>> {
    fn open(dir: &Path) -> Result<Self, RestoreError> {
        let cfg = DurabilityConfig {
            storage: Box::new(TimedStorage(DirStorage::open(dir)?)),
            options: store_options(),
        };
        Ok(Timed(
            ShardedAggregate::durable(1, options(), cfg, || Timed(backend()))?.0,
        ))
    }
}

fn stage<E: Build + 'static>(e: E) -> Reorderer<E> {
    Reorderer::with_sources(e, decay(), BOUND, LatenessPolicy::Fold, SOURCES)
        .on_watermark(Box::new(|e: &mut E, w| e.publish_watermark(w)))
}

impl Workload for LateDurable {
    fn threads(&self) -> usize {
        2
    }

    fn round(&mut self, index: u64, traced: bool) -> Result<Round, String> {
        let stream = late_stream(
            &mut Rng::new(subseed(self.seed, 2, index)),
            BACKFILL_ITEMS,
            TIMED_ITEMS,
            PER_TICK,
            BOUND,
            LATE_FRAC,
            LATE_TAIL,
        );
        let dir = self
            .scratch
            .join(format!("late-durable-{}-{index}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let result = if traced {
            drive::<Timed<ShardedAggregate<Timed<Fwd>>>>(&stream, &dir, true)
        } else {
            drive::<ShardedAggregate<Fwd>>(&stream, &dir, false)
        };
        let _ = std::fs::remove_dir_all(&dir);
        let (mut round, answers) = result.map_err(|e| format!("store: {e}"))?;
        check(&stream, &answers, &mut round);
        Ok(round)
    }
}

fn drive<E: Build + 'static>(
    stream: &LateStream,
    dir: &Path,
    traced: bool,
) -> Result<(Round, Vec<Answered>), RestoreError> {
    let mut round = Round::default();
    let timed = &stream.arrivals;

    // Set-up: build, backfill, drop, then a timed cold start from disk.
    let t0 = Instant::now();
    let mut e = cpu::on_worker_cpu(|| E::open(dir))?;
    for batch in stream.backfill.chunks(BATCH) {
        e.observe_batch(batch);
    }
    // A query is a barrier: every backfilled item is applied and logged.
    let _ = e.query(stream.backfill_end());
    drop(e);
    let build_s = t0.elapsed().as_secs_f64();
    // Traced rounds count the WAL entries the reopen replays (untimed).
    let tail_entries: usize = if traced {
        let rec = recover(&DirStorage::open(dir)? as &dyn Storage, 1)?;
        rec.tail_for(0).map(|rec| rec.entries.len()).sum()
    } else {
        0
    };
    let t_reopen = Instant::now();
    let engine = cpu::on_worker_cpu(|| E::open(dir))?;
    let reopen_s = t_reopen.elapsed().as_secs_f64();
    let mut r = stage(engine);
    // Live items start after the backfill: punctuate the stage there so
    // nothing is released below the recovered clock.
    r.advance(stream.backfill_end() + BOUND);
    round.setup_s = build_s + reopen_s;

    let before = Counters::read(r.inner());
    let folded_before = r.stats().folded_mass;
    let mut answers = Vec::with_capacity(TIMED_ITEMS / BATCH / QUERY_EVERY);
    let mut buffered = Vec::with_capacity(answers.capacity());
    trace::set_recording(traced);
    let t1 = Instant::now();
    for (j, batch) in timed.chunks(BATCH).enumerate() {
        if trace::maybe(traced, Kind::Reorder, || r.push_batch(j % SOURCES, batch)).is_err() {
            round.failed += 1;
        }
        if (j + 1).is_multiple_of(QUERY_EVERY) {
            let w = r.watermark();
            let tq = Instant::now();
            let (value, bound) = if traced {
                trace::request(|| r.query_with_bound(w + 1))
            } else {
                r.query_with_bound(w + 1)
            };
            round.latencies_us.push(tq.elapsed().as_secs_f64() * 1e6);
            buffered.push(r.stats().buffered_items as f64);
            answers.push(Answered {
                ingested: (j + 1) * BATCH,
                watermark: w,
                q: w + 1,
                value,
                bound,
            });
        }
    }
    round.timed_s = t1.elapsed().as_secs_f64();
    round.threads = crate::threads_now();
    trace::set_recording(false);

    round.items = TIMED_ITEMS as u64;
    round.state_bytes = r.inner().storage_bits() as f64 / 8.0;
    let after = Counters::read(r.inner());
    let folded = r.stats().folded_mass - folded_before;
    if !healthy(&r.inner().shard_stats()) {
        round.failed += 1;
    }

    // Restart check: everything released, logged, dropped, reopened.
    r.flush();
    let q_end = r.watermark() + 1;
    let before_drop = r.inner().query(q_end);
    // Traced rounds price one WAL fsync, outside the timed phase. A
    // clean restart needs none: the reopen reads what the drop wrote.
    if traced {
        trace::set_recording(true);
        let flushed = r.inner().flush_wal();
        trace::set_recording(false);
        flushed?;
    }
    drop(r);
    let traces = trace::drain();
    let reopened = cpu::on_worker_cpu(|| E::open(dir))?;
    if reopened.query(q_end).to_bits() != before_drop.to_bits() {
        eprintln!(
            "late-durable: recovered answer {} != {before_drop} before the drop",
            reopened.query(q_end)
        );
        round.failed += 1;
    }
    drop(reopened);
    round.attempted = (TIMED_ITEMS / BATCH + answers.len() + 1) as u64;

    if traced {
        round.layers = layer_metrics(
            &traces,
            "forward",
            round.items,
            round.timed_s,
            before,
            after,
        );
        let mass: u64 = timed.iter().map(|a| a.1).sum();
        round.layers.insert(
            "reorder.buffered_items_p99".into(),
            quantile(&mut buffered, 0.99),
        );
        round.layers.insert(
            "reorder.folded_mass_frac".into(),
            folded as f64 / mass as f64,
        );
        round.layers.insert(
            "persist.replay_ns_per_entry".into(),
            reopen_s * 1e9 / tail_entries.max(1) as f64,
        );
    }
    Ok((round, answers))
}

/// Judges every answer against the truth it is accountable for: the
/// backfill and all arrived live items with `t ≤ W`, at their true
/// ticks (folded ones included). The oracle takes every tick's total
/// mass in tick order; live items with `t ≤ W` that had not yet arrived
/// are then subtracted. Ticks before `carry_at` live in `carry`, their
/// decayed sum at `carry_at` (see [`FOLD_TICKS`]).
fn check(stream: &LateStream, answers: &[Answered], round: &mut Round) {
    let g = Exponential::with_half_life(HALF_LIFE);
    let mut oracle = Oracle::new(Exponential::with_half_life(HALF_LIFE));
    let (mut carry, mut carry_at) = (0.0, 0);
    let mut fed = 0;
    for a in answers {
        if oracle.len() >= FOLD_TICKS {
            // Every fed tick is ≤ a.watermark < a.q, and queries never
            // go back in time.
            carry = carry * g.weight(a.q - carry_at) + oracle.decayed_sum(a.q);
            carry_at = a.q;
            oracle = Oracle::new(Exponential::with_half_life(HALF_LIFE));
        }
        while fed < stream.tick_mass.len() && stream.tick_mass[fed].0 <= a.watermark {
            let (t, m) = stream.tick_mass[fed];
            oracle.observe(t, m);
            fed += 1;
        }
        let mut missing = 0.0;
        let horizon = a.watermark + BOUND + LATE_TAIL;
        for (j, &key) in stream.keys.iter().enumerate().skip(a.ingested) {
            if key > horizon {
                break;
            }
            let (t, f) = stream.arrivals[j];
            if t <= a.watermark {
                missing += f as f64 * g.weight(a.q - t);
            }
        }
        let truth = carry * g.weight(a.q - carry_at) + oracle.decayed_sum(a.q) - missing;
        round.quality.record(
            Check {
                estimate: a.value,
                bound: a.bound,
                slack: 0.0,
            },
            truth,
        );
    }
}
