//! `ingest-inorder`: one in-order source with bursty ticks through a
//! pass-through reorder stage into a one-shard supervised engine over a
//! cascaded EH under polynomial decay g = 1/x (Theorem 1). One query per
//! 2^16 items, so backend `observe_batch`, the coordinator → ring →
//! worker hand-off and the per-chunk in-memory checkpoint do the work.

use std::time::Instant;

use td_ceh::CascadedEh;
use td_conformance::oracle::Oracle;
use td_decay::{DecayFunction, Polynomial, Time};
use td_reorder::{LatenessPolicy, Reorderer};
use td_shard::{ShardedAggregate, SupervisorOptions};

use crate::cpu;
use crate::engine::{healthy, layer_metrics, Answered, Counters, Engine};
use crate::gen::{subseed, BurstyPool, Rng};
use crate::stats::Check;
use crate::trace::{self, Kind, Timed};
use crate::{Round, Workload};

const BATCH: usize = 1024;
const POOL_BATCHES: usize = 512;
const MAX_BURST: u64 = 512;
const WARM_BATCHES: usize = 4096;
const TIMED_BATCHES: usize = 16384;
const QUERY_EVERY: usize = 64;
const EPSILON: f64 = 0.05;

type Ceh = CascadedEh<Polynomial>;

/// g(x) = 1/x, the decay of [`Polynomial::new(1.0)`], evaluated as one
/// division: the oracle's truth for this workload at a fraction of the
/// cost of `powf`.
struct InverseAge;

impl DecayFunction for InverseAge {
    fn weight(&self, age: Time) -> f64 {
        1.0 / age.max(1) as f64
    }
}

fn backend() -> Ceh {
    CascadedEh::new(Polynomial::new(1.0), EPSILON)
}

pub struct InOrder {
    seed: u64,
}

impl InOrder {
    pub fn new(seed: u64) -> Self {
        InOrder { seed }
    }
}

impl Workload for InOrder {
    fn threads(&self) -> usize {
        2
    }

    fn round(&mut self, index: u64, traced: bool) -> Result<Round, String> {
        let pool = BurstyPool::new(
            &mut Rng::new(subseed(self.seed, 1, index)),
            POOL_BATCHES,
            BATCH,
            MAX_BURST,
        );
        let decay = || Box::new(Polynomial::new(1.0));
        let (mut round, answers) =
            if traced {
                drive(&pool, true, || {
                    let eng = ShardedAggregate::supervised(1, SupervisorOptions::default(), || {
                        Timed(backend())
                    });
                    Reorderer::new(Timed(eng), decay(), 0, LatenessPolicy::Fold)
                        .on_watermark(Box::new(|e: &mut Timed<_>, w| e.publish_watermark(w)))
                })
            } else {
                drive(&pool, false, || {
                    ShardedAggregate::supervised(1, SupervisorOptions::default(), backend)
                        .reordered(decay(), 0, LatenessPolicy::Fold, 1)
                })
            };

        // The oracle replays the same batches, one entry per tick run.
        let mut oracle = Oracle::new(InverseAge);
        let mut buf = Vec::with_capacity(BATCH);
        let mut fed = 0;
        for a in &answers {
            while fed < a.ingested {
                pool.batch_into(fed, &mut buf);
                for run in buf.chunk_by(|x, y| x.0 == y.0) {
                    oracle.observe(run[0].0, run.iter().map(|x| x.1).sum());
                }
                fed += 1;
            }
            let truth = oracle.decayed_sum(a.q);
            round.quality.record(
                Check {
                    estimate: a.value,
                    bound: a.bound,
                    slack: 0.0,
                },
                truth,
            );
        }
        Ok(round)
    }
}

fn drive<A: Engine>(
    pool: &BurstyPool,
    traced: bool,
    build: impl FnOnce() -> Reorderer<A>,
) -> (Round, Vec<Answered>) {
    let mut round = Round::default();
    let mut buf: Vec<(Time, u64)> = Vec::with_capacity(BATCH);

    let t0 = Instant::now();
    let mut r = cpu::on_worker_cpu(build);
    for b in 0..WARM_BATCHES {
        pool.batch_into(b, &mut buf);
        if r.push_batch(0, &buf).is_err() {
            round.failed += 1;
        }
    }
    let _ = r.query(r.watermark() + 1);
    round.setup_s = t0.elapsed().as_secs_f64();

    let before = Counters::read(r.inner());
    let mut answers = Vec::with_capacity(TIMED_BATCHES / QUERY_EVERY);
    trace::set_recording(traced);
    let t1 = Instant::now();
    for b in WARM_BATCHES..WARM_BATCHES + TIMED_BATCHES {
        pool.batch_into(b, &mut buf);
        if trace::maybe(traced, Kind::Reorder, || r.push_batch(0, &buf)).is_err() {
            round.failed += 1;
        }
        if (b + 1 - WARM_BATCHES).is_multiple_of(QUERY_EVERY) {
            let q = r.watermark() + 1;
            let tq = Instant::now();
            let (value, bound) = if traced {
                trace::request(|| r.query_with_bound(q))
            } else {
                r.query_with_bound(q)
            };
            round.latencies_us.push(tq.elapsed().as_secs_f64() * 1e6);
            answers.push(Answered {
                ingested: b + 1,
                watermark: q - 1,
                q,
                value,
                bound,
            });
        }
    }
    round.timed_s = t1.elapsed().as_secs_f64();
    round.threads = crate::threads_now();
    trace::set_recording(false);

    round.items = (TIMED_BATCHES * BATCH) as u64;
    round.attempted = (TIMED_BATCHES + answers.len()) as u64;
    round.state_bytes = r.inner().storage_bits() as f64 / 8.0;
    let after = Counters::read(r.inner());
    if !healthy(&r.inner().shard_stats()) {
        round.failed += 1;
    }
    drop(r);
    let traces = trace::drain();
    if traced {
        round.layers = layer_metrics(&traces, "ceh", round.items, round.timed_s, before, after);
    }
    (round, answers)
}
