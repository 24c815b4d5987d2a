//! `keyed-zipf`: a rate limiter's update-then-check over a keyed
//! registry of exponential forward-decay sums. Keys come from a Zipf
//! distribution over a 1M-key universe, with eviction on. Each request
//! is one 256-item `observe_keyed_batch` at a new tick plus one block of
//! 64 `query_key` lookups of keys it just updated; a full registry
//! checkpoint is saved once per round. No shard, reorder or WAL: the
//! index, the slab, scalar forward `observe`, the eviction sweep and the
//! snapshot do the work. Follows the time-fading per-item setting of
//! Cafaro et al. (FDCMSS).

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use td_conformance::oracle::Oracle;
use td_decay::{Checkpoint, DecayFunction, Exponential, StreamAggregate, Time};
use td_forward::ForwardDecaySum;
use td_registry::{KeyedRegistry, RegistryOptions};

use crate::gen::{mix, subseed, Rng, Zipf};
use crate::stats::Check;
use crate::trace::{self, Kind, Timed};
use crate::{Round, Workload};

const UNIVERSE: usize = 1 << 20;
const ZIPF_S: f64 = 1.1;
const REQ_ITEMS: usize = 256;
const REQ_QUERIES: usize = 64;
const WARM_REQS: usize = 8192;
const TIMED_REQS: usize = 32768;
const CHECKPOINT_AT: usize = TIMED_REQS / 2;
/// One tick per request.
const HALF_LIFE: Time = 64;
const EVICT_BELOW: f64 = 0.5;
const SWEEP_PER_INGEST: usize = 256;
const EXPECTED_KEYS: usize = 1 << 14;
/// Answers on keys whose Zipf rank is a multiple of this are checked
/// against the oracle: a fixed cross-section from warm to cold keys.
const TRACK_STRIDE: u32 = 64;
/// The oracle drops a tracked key's items once their weight is below
/// `e^-PRUNE_NATS`; the dropped mass times that weight is added to the
/// tolerance (below 1e-12 here).
const PRUNE_NATS: f64 = 40.0;

fn decay() -> Exponential {
    Exponential::with_half_life(HALF_LIFE)
}

fn options() -> RegistryOptions {
    RegistryOptions {
        expected_keys: EXPECTED_KEYS,
        eviction_threshold: EVICT_BELOW,
        sweep_per_ingest: SWEEP_PER_INGEST,
        ..RegistryOptions::default()
    }
}

pub struct KeyedZipf {
    seed: u64,
    zipf: Zipf,
}

impl KeyedZipf {
    pub fn new(seed: u64) -> Self {
        KeyedZipf {
            seed,
            zipf: Zipf::new(UNIVERSE, ZIPF_S),
        }
    }
}

/// One round's requests: a Zipf rank and a value per item.
struct Requests {
    ranks: Vec<u32>,
    values: Vec<u8>,
    salt: u64,
}

impl Requests {
    fn key(&self, rank: u32) -> u64 {
        mix(rank as u64 ^ self.salt)
    }

    /// Request `i` as registry items at tick `i + 1`.
    fn batch_into(&self, i: usize, out: &mut Vec<(u64, Time, u64)>) {
        let lo = i * REQ_ITEMS;
        out.clear();
        out.extend(
            self.ranks[lo..lo + REQ_ITEMS]
                .iter()
                .zip(&self.values[lo..lo + REQ_ITEMS])
                .map(|(&r, &f)| (self.key(r), i as Time + 1, f as u64)),
        );
    }

    /// The ranks request `i` checks: every fourth item's key.
    fn queried(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.ranks[i * REQ_ITEMS..(i + 1) * REQ_ITEMS]
            .iter()
            .step_by(REQ_ITEMS / REQ_QUERIES)
            .copied()
    }
}

/// A checked answer: request index, the key's rank, the answer.
struct Answered {
    request: usize,
    rank: u32,
    check: Check,
}

impl Workload for KeyedZipf {
    fn threads(&self) -> usize {
        1
    }

    fn round(&mut self, index: u64, traced: bool) -> Result<Round, String> {
        let mut rng = Rng::new(subseed(self.seed, 3, index));
        let n = (WARM_REQS + TIMED_REQS) * REQ_ITEMS;
        let reqs = Requests {
            ranks: (0..n).map(|_| self.zipf.sample(&mut rng)).collect(),
            values: (0..n).map(|_| 1 + rng.below(4) as u8).collect(),
            salt: rng.next_u64(),
        };
        let (mut round, answers) = if traced {
            drive(&reqs, true, index, || Timed(ForwardDecaySum::new(decay())))
        } else {
            drive(&reqs, false, index, || ForwardDecaySum::new(decay()))
        };
        check(&reqs, &answers, &mut round);
        Ok(round)
    }
}

fn drive<B: StreamAggregate + Checkpoint + 'static>(
    reqs: &Requests,
    traced: bool,
    index: u64,
    make: fn() -> B,
) -> (Round, Vec<Answered>) {
    let mut round = Round::default();
    let mut buf = Vec::with_capacity(REQ_ITEMS);

    let t0 = Instant::now();
    let mut reg = KeyedRegistry::new(options(), make);
    for i in 0..WARM_REQS {
        reqs.batch_into(i, &mut buf);
        reg.observe_keyed_batch(&buf);
    }
    round.setup_s = t0.elapsed().as_secs_f64();

    let evictions_before = reg.evictions();
    let mut answers = Vec::new();
    let mut saved = (0usize, 0.0f64);
    let mut snapshot = None;
    let mut keys = [0u64; REQ_QUERIES];
    trace::set_recording(traced);
    let t1 = Instant::now();
    for i in WARM_REQS..WARM_REQS + TIMED_REQS {
        reqs.batch_into(i, &mut buf);
        trace::maybe(traced, Kind::RegistryIngest, || {
            reg.observe_keyed_batch(&buf)
        });
        let q = i as Time + 2;
        for (k, rank) in keys.iter_mut().zip(reqs.queried(i)) {
            *k = reqs.key(rank);
        }
        let tq = Instant::now();
        let block = |reg: &KeyedRegistry<B>| {
            keys.map(|k| trace::maybe(traced, Kind::RegistryQuery, || reg.query_key(k, q)))
        };
        let got = if traced {
            trace::request(|| block(&reg))
        } else {
            block(&reg)
        };
        round.latencies_us.push(tq.elapsed().as_secs_f64() * 1e6);
        for (a, rank) in got.iter().zip(reqs.queried(i)) {
            if rank % TRACK_STRIDE == 0 {
                answers.push(Answered {
                    request: i,
                    rank,
                    check: Check {
                        estimate: a.estimate,
                        bound: a.bound,
                        slack: a.evicted_slack,
                    },
                });
            }
        }
        if i - WARM_REQS + 1 == CHECKPOINT_AT {
            let ts = Instant::now();
            let bytes = reg.save_checkpoint();
            saved = (bytes.len(), ts.elapsed().as_secs_f64());
            if index == 0 {
                snapshot = Some(bytes);
            }
        }
    }
    round.timed_s = t1.elapsed().as_secs_f64();
    round.threads = crate::threads_now();
    trace::set_recording(false);

    // Once per run: the snapshot restores to a twin that saves the same
    // bytes.
    if let Some(bytes) = snapshot {
        let mut twin = KeyedRegistry::new(options(), make);
        round.attempted += 1;
        if twin.restore_checkpoint(&bytes).is_err() || twin.save_checkpoint() != bytes {
            eprintln!("keyed-zipf: registry checkpoint did not restore to an identical twin");
            round.failed += 1;
        }
    }

    round.items = (TIMED_REQS * REQ_ITEMS) as u64;
    round.attempted += (TIMED_REQS * (1 + REQ_QUERIES) + 1) as u64;
    let resident = reg.resident_bytes();
    round.state_bytes = resident as f64;
    let traces = trace::drain();
    let m = &mut round.layers;
    if traced {
        let sum = |k| trace::merged(&traces, None, k);
        let items = round.items as f64;
        let observe = sum(Kind::Observe);
        let query = sum(Kind::Query);
        let reg_query = sum(Kind::RegistryQuery);
        m.insert(
            "registry.ingest_self_ns_per_item".into(),
            sum(Kind::RegistryIngest).self_ns as f64 / items,
        );
        m.insert(
            "registry.query_self_ns".into(),
            reg_query.self_ns as f64 / reg_query.calls.max(1) as f64,
        );
        m.insert(
            "forward.observe_ns".into(),
            observe.total_ns as f64 / observe.calls.max(1) as f64,
        );
        m.insert(
            "forward.observe_batch_ns_per_item".into(),
            sum(Kind::ObserveBatch).total_ns as f64 / (items - observe.calls as f64).max(1.0),
        );
        m.insert(
            "forward.query_ns".into(),
            query.total_ns as f64 / query.calls.max(1) as f64,
        );
        m.insert("registry.live_keys".into(), reg.len() as f64);
        m.insert(
            "registry.bytes_per_live_key".into(),
            resident as f64 / reg.len().max(1) as f64,
        );
        m.insert(
            "registry.evictions".into(),
            (reg.evictions() - evictions_before) as f64,
        );
        let mass: u64 = reqs.values.iter().map(|&f| f as u64).sum();
        m.insert(
            "registry.evicted_slack_frac".into(),
            reg.evicted_mass() / mass as f64,
        );
    } else {
        // Call-site timer: no adapter inside, so untraced rounds carry it.
        m.insert(
            "registry.ckpt_save_mb_per_s".into(),
            saved.0 as f64 / 1e6 / saved.1,
        );
    }
    (round, answers)
}

/// Replays the requests and judges every answer on a tracked key
/// against an exact oracle of that key's recent items.
fn check(reqs: &Requests, answers: &[Answered], round: &mut Round) {
    let g = decay();
    let horizon = (PRUNE_NATS / g.lambda()).ceil() as Time;
    let mut windows: HashMap<u32, (VecDeque<(Time, u64)>, u64)> = HashMap::new();
    let mut next = 0;
    for i in 0..WARM_REQS + TIMED_REQS {
        let t = i as Time + 1;
        let lo = i * REQ_ITEMS;
        for (&rank, &f) in reqs.ranks[lo..lo + REQ_ITEMS]
            .iter()
            .zip(&reqs.values[lo..])
        {
            if rank % TRACK_STRIDE != 0 {
                continue;
            }
            let (w, _) = windows.entry(rank).or_default();
            match w.back_mut() {
                Some(last) if last.0 == t => last.1 += f as u64,
                _ => w.push_back((t, f as u64)),
            }
        }
        while next < answers.len() && answers[next].request == i {
            let a = &answers[next];
            let q = t + 1;
            let (w, dropped) = windows
                .get_mut(&a.rank)
                .expect("a queried key was observed");
            while w.front().is_some_and(|&(ti, _)| q - ti > horizon) {
                *dropped += w.pop_front().expect("front exists").1;
            }
            let mut oracle = Oracle::new(decay());
            for &(ti, f) in w.iter() {
                oracle.observe(ti, f);
            }
            let tail = *dropped as f64 * g.weight(horizon);
            let mut check = a.check;
            check.slack += tail;
            round.quality.record(check, oracle.decayed_sum(q));
            next += 1;
        }
    }
}
