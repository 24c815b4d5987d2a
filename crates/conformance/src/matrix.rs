//! Every certification case as a row of the one certifier.
//!
//! A [`Case`] names a system under test (built from the adapters), the
//! truth it answers, and the stream transforms its disturbances need:
//! value caps, key fan-out, terminal probes, late arrivals. Rows keep
//! the names, families and seeds of the five matrices they came from;
//! [`stacked_cases`] holds the rows that combine axes, and
//! [`canaries`] the seeded bugs that must fail closed. [`replay`] finds
//! a row by the name in a [`Repro`] line and re-runs it.

use std::fmt;
use std::rc::Rc;

use td_ceh::CascadedEh;
use td_counters::{ExactDecayedSum, ExpCounter, PolyExpCounter, QuantizedExpCounter};
use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{
    Constant, DecayFunction, Exponential, LogDecay, PolyExponential, Polynomial, SlidingWindow,
    StreamAggregate, Time,
};
use td_eh::{ClassicEh, DominationEh};
use td_forward::{ForwardDecaySum, DEFAULT_MAX_TIME};
use td_persist::{DurabilityOptions, DurableAggregate, StoreOptions, SyncPolicy};
use td_registry::{KeyedRegistry, RegistryOptions};
use td_reorder::LatenessPolicy;
use td_shard::ShardedAggregate;
use td_wbmh::Wbmh;

use crate::adapters::{
    crash_sweep, Damages, Durable, FaultMode, FaultPlan, Faulted, Keyed, KeyedOps, Merged, Open,
    Plain, Stage, Staged,
};
use crate::certify::{
    drive, Answer, DynAggregate, DynOracle, Event, Repro, RunId, Stats, Sut, TruthKind,
};
use crate::oracle::Oracle;
use crate::scenario::{catalogue, late_arrival_catalogue, LateStream, Op, Rng, Scenario};

/// Salt decorrelating the per-observation key stream from the ops the
/// scenario generator drew from the same seed.
const KEYER_SALT: u64 = 0x6B65_7965_645F_7631; // "keyed_v1"

/// Which matrix a row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// In-order replay into one backend (29 rows).
    InOrder,
    /// Shard split and merge (§6).
    Split,
    /// Supervised engine with an injected worker fault (8 rows).
    Fault,
    /// Reorder stage under late arrivals (11 rows).
    Lateness,
    /// Kill-at-any-byte durable store (12 rows).
    Recovery,
    /// Keyed registry, per-key truth (4 rows).
    Registry,
    /// Seeded bugs that must fail.
    Canary,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Suite::InOrder => "inorder",
            Suite::Split => "split",
            Suite::Fault => "fault",
            Suite::Lateness => "lateness",
            Suite::Recovery => "recovery",
            Suite::Registry => "registry",
            Suite::Canary => "canary",
        })
    }
}

/// A generated input stream: in-order ops or out-of-order arrivals.
#[derive(Debug, Clone)]
pub enum Stream {
    /// A scenario family (time-sorted ops).
    Ops(Scenario),
    /// An arrival family for a reorder stage.
    Late(LateStream),
}

impl Stream {
    fn max_time(&self) -> Time {
        match self {
            Stream::Ops(s) => s.max_time(),
            Stream::Late(s) => s.max_time(),
        }
    }

    fn items(&self) -> u64 {
        match self {
            Stream::Ops(s) => s
                .ops
                .iter()
                .map(|op| match op {
                    Op::Observe(..) => 1,
                    Op::ObserveBatch(items) => items.len() as u64,
                    _ => 0,
                })
                .sum(),
            Stream::Late(s) => s.arrivals.len() as u64,
        }
    }
}

/// A query appended after the stream.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// At the last ingest tick (the §2.1 at-tick exclusion).
    LastIngest,
    /// This many ticks past the stream's horizon.
    After(u64),
}

enum Maker {
    Fresh(Box<dyn Fn(Option<Stage>) -> Box<dyn Sut>>),
    Crash(Box<Open>),
}

/// One row: a system under test, its truth, and the stream transforms
/// of its disturbance axes.
pub struct Case {
    /// The matrix the row belongs to.
    pub suite: Suite,
    /// Display name (`backend/decay` convention).
    pub name: &'static str,
    /// What whole-stream answers estimate.
    pub truth: TruthKind,
    /// Clamp for observed values (restricted-domain backends).
    pub value_cap: Option<u64>,
    /// Skip streams reaching past this horizon (finite `max_age`).
    max_time: Option<Time>,
    /// Key fan-out: observations get keys from a stream seeded by the
    /// scenario seed, and queries judge every key seen.
    keys: Option<u64>,
    /// Lateness policies the row runs under; non-empty rows take
    /// arrival streams.
    policies: Vec<LatenessPolicy>,
    /// Skip streams with fewer items (a fault that could never fire).
    min_items: u64,
    inline_queries: bool,
    probes: Vec<Probe>,
    oracle: Box<dyn Fn() -> DynOracle>,
    backend: Option<Rc<dyn Fn() -> DynAggregate>>,
    stage_decay: Option<Rc<dyn Fn() -> Box<dyn DecayFunction>>>,
    sut: Maker,
}

/// Store tuning for crash sweeps: tiny segments so rotation and
/// multi-segment recovery happen in short streams, fsync every record
/// so the snapshot holds everything, and a checkpoint cadence that
/// leaves both checkpoints and a live WAL tail at kill time.
fn sweep_options() -> DurabilityOptions {
    DurabilityOptions {
        store: StoreOptions {
            segment_bytes: 1024,
            sync: SyncPolicy::EveryRecord,
        },
        checkpoint_every_records: 16,
    }
}

impl Case {
    fn new(
        suite: Suite,
        name: &'static str,
        oracle: impl Fn() -> DynOracle + 'static,
        sut: Maker,
    ) -> Self {
        Case {
            suite,
            name,
            truth: TruthKind::Sum,
            value_cap: None,
            max_time: None,
            keys: None,
            policies: Vec::new(),
            min_items: 0,
            inline_queries: true,
            probes: Vec::new(),
            oracle: Box::new(oracle),
            backend: None,
            stage_decay: None,
            sut,
        }
    }

    fn fresh(f: impl Fn(Option<Stage>) -> Box<dyn Sut> + 'static) -> Maker {
        Maker::Fresh(Box::new(f))
    }

    /// One backend fed in order.
    pub fn inorder(
        name: &'static str,
        backend: impl Fn() -> DynAggregate + 'static,
        oracle: impl Fn() -> DynOracle + 'static,
    ) -> Self {
        let backend: Rc<dyn Fn() -> DynAggregate> = Rc::new(backend);
        let b = Rc::clone(&backend);
        Case {
            backend: Some(backend),
            ..Case::new(
                Suite::InOrder,
                name,
                oracle,
                Case::fresh(move |_| Box::new(Plain(b()))),
            )
        }
    }

    /// `k` parts dealt round-robin and merged for every answer; queried
    /// at the last ingest tick and past the horizon.
    pub fn split<B: StreamAggregate + Clone + 'static>(
        name: &'static str,
        k: usize,
        make: impl Fn() -> B + 'static,
        oracle: impl Fn() -> DynOracle + 'static,
    ) -> Self {
        let sut = Case::fresh(move |_| Box::new(Merged::new(k, &make)));
        Case {
            inline_queries: false,
            probes: vec![Probe::LastIngest, Probe::After(7)],
            ..Case::new(Suite::Split, name, oracle, sut)
        }
    }

    /// A supervised engine with `plan` armed; a terminal probe runs
    /// past the horizon once the engine has settled.
    pub fn fault<B: StreamAggregate + Checkpoint + Clone + Send + 'static>(
        name: &'static str,
        plan: FaultPlan,
        shards: usize,
        make: impl Fn() -> B + 'static,
        oracle: impl Fn() -> DynOracle + 'static,
    ) -> Self {
        let sut = Case::fresh(move |_| Box::new(Faulted::new(plan, shards, &make)));
        Case {
            probes: vec![Probe::After(7)],
            // Round-robin gives the victim ~1/shards of the stream;
            // leave a margin so the trigger provably trips.
            min_items: (plan.panic_after_items + 2) * shards as u64,
            ..Case::new(Suite::Fault, name, oracle, sut)
        }
    }

    /// A backend behind a reorder stage, under both policies.
    pub fn lateness(
        name: &'static str,
        backend: impl Fn() -> DynAggregate + 'static,
        decay: impl Fn() -> Box<dyn DecayFunction> + 'static,
    ) -> Self {
        let backend: Rc<dyn Fn() -> DynAggregate> = Rc::new(backend);
        let decay: Rc<dyn Fn() -> Box<dyn DecayFunction>> = Rc::new(decay);
        let (b, d, d2) = (Rc::clone(&backend), Rc::clone(&decay), Rc::clone(&decay));
        let sut = Case::fresh(move |stage| {
            let stage = stage.expect("lateness rows replay arrival streams");
            Box::new(Staged::new(Plain(b()), d(), stage))
        });
        Case {
            policies: vec![LatenessPolicy::Reject, LatenessPolicy::Fold],
            backend: Some(backend),
            stage_decay: Some(decay),
            ..Case::new(Suite::Lateness, name, move || Oracle::new(d2()), sut)
        }
    }

    /// A reorder stage in front of a faulted engine: the worker dies
    /// while out-of-order mass is still buffered upstream (`Reject`).
    pub fn reordered_fault<B: StreamAggregate + Checkpoint + Clone + Send + 'static>(
        name: &'static str,
        plan: FaultPlan,
        shards: usize,
        make: impl Fn() -> B + 'static,
        decay: impl Fn() -> Box<dyn DecayFunction> + 'static,
    ) -> Self {
        let decay: Rc<dyn Fn() -> Box<dyn DecayFunction>> = Rc::new(decay);
        let d = Rc::clone(&decay);
        assert!(
            !matches!(plan.mode, FaultMode::CorruptCheckpoint { .. }),
            "corruption is checkpoint-level, not stage-level"
        );
        let sut = Case::fresh(move |stage| {
            let stage = stage.expect("reordered rows replay arrival streams");
            let engine = Faulted::new(plan, shards, &make);
            Box::new(
                Staged::new(engine, decay(), stage)
                    .on_watermark(Box::new(|e: &mut Faulted<B>, w| e.publish_watermark(w))),
            )
        });
        Case {
            policies: vec![LatenessPolicy::Reject],
            min_items: (plan.panic_after_items + 2) * shards as u64,
            ..Case::new(Suite::Fault, name, move || Oracle::new(d()), sut)
        }
    }

    fn crash(
        name: &'static str,
        oracle: impl Fn() -> DynOracle + 'static,
        open: impl Fn(td_persist::MemStorage) -> Result<(Box<dyn Sut>, u64), RestoreError> + 'static,
    ) -> Self {
        Case {
            inline_queries: false,
            probes: vec![Probe::After(1), Probe::After(64)],
            ..Case::new(Suite::Recovery, name, oracle, Maker::Crash(Box::new(open)))
        }
    }

    /// A durable store over `make` backends, killed at every byte.
    pub fn recovery<B: Checkpoint + 'static>(
        name: &'static str,
        make: impl Fn() -> B + 'static,
        oracle: impl Fn() -> DynOracle + 'static,
    ) -> Self {
        Case::crash(name, oracle, move |mem| {
            let (agg, st) = DurableAggregate::open(Box::new(mem), sweep_options(), &make)?;
            Ok((Box::new(Durable { agg, keyed: None }), st.entries_applied))
        })
    }

    /// A keyed registry fed `n_keys`-way fan-out, every key judged
    /// against its own exact oracle.
    pub fn registry<X: StreamAggregate + 'static>(
        name: &'static str,
        n_keys: u64,
        make: impl Fn() -> KeyedRegistry<X> + 'static,
        oracle: impl Fn() -> DynOracle + 'static,
    ) -> Self {
        Case {
            keys: Some(n_keys),
            ..Case::new(
                Suite::Registry,
                name,
                oracle,
                Case::fresh(move |_| Box::new(Keyed(make()))),
            )
        }
    }

    /// A keyed registry behind `DurableAggregate::open_keyed`, killed at
    /// every byte, every key judged against its own exact oracle.
    pub fn keyed_recovery<X: StreamAggregate + Checkpoint + 'static>(
        name: &'static str,
        n_keys: u64,
        make: impl Fn() -> KeyedRegistry<X> + 'static,
        oracle: impl Fn() -> DynOracle + 'static,
    ) -> Self {
        Case {
            keys: Some(n_keys),
            ..Case::crash(name, oracle, move |mem| {
                let (agg, st) =
                    DurableAggregate::open_keyed(Box::new(mem), sweep_options(), &make)?;
                let keyed = Some(KeyedOps::registry());
                Ok((Box::new(Durable { agg, keyed }), st.entries_applied))
            })
        }
    }

    /// Sets a value clamp.
    pub fn with_value_cap(mut self, cap: u64) -> Self {
        self.value_cap = Some(cap);
        self
    }

    /// Sets a horizon limit.
    pub fn with_max_time(mut self, t: Time) -> Self {
        self.max_time = Some(t);
        self
    }

    /// Sets the truth kind.
    pub fn with_truth(mut self, truth: TruthKind) -> Self {
        self.truth = truth;
        self
    }

    fn with_probes_only(mut self, probes: Vec<Probe>) -> Self {
        self.inline_queries = false;
        self.probes = probes;
        self
    }

    fn in_suite(mut self, suite: Suite) -> Self {
        self.suite = suite;
        self
    }

    /// `suite:name` — the `case=` field of a repro line.
    pub fn id(&self) -> String {
        format!("{}:{}", self.suite, self.name)
    }

    /// A fresh bare backend, for rows built on one.
    pub fn backend(&self) -> Option<DynAggregate> {
        self.backend.as_ref().map(|b| b())
    }

    /// A fresh copy of the reorder stage's decay (lateness rows).
    pub fn stage_decay(&self) -> Option<Box<dyn DecayFunction>> {
        self.stage_decay.as_ref().map(|d| d())
    }

    /// The events this row replays for `stream`.
    pub fn events(&self, stream: &Stream) -> Vec<Event> {
        let cap = self.value_cap.unwrap_or(u64::MAX);
        let sc = match stream {
            Stream::Late(ls) => return late_events(ls, cap),
            Stream::Ops(sc) => sc,
        };
        let mut keyer = Rng::new(sc.seed ^ KEYER_SALT);
        let mut key = |n: u64| keyer.below(n);
        let query = |t| match self.keys {
            Some(_) => Event::QueryKeys(t),
            None => Event::Query(t),
        };
        let mut out = Vec::with_capacity(sc.ops.len() + self.probes.len());
        let mut last_ingest = None;
        for op in &sc.ops {
            let ev = match (op, self.keys) {
                (Op::Observe(t, f), None) => Event::Observe(*t, (*f).min(cap)),
                (Op::Observe(t, f), Some(n)) => Event::Keyed(vec![(key(n), *t, (*f).min(cap))]),
                (Op::ObserveBatch(items), None) => {
                    Event::Batch(items.iter().map(|&(t, f)| (t, f.min(cap))).collect())
                }
                (Op::ObserveBatch(items), Some(n)) => Event::Keyed(
                    items
                        .iter()
                        .map(|&(t, f)| (key(n), t, f.min(cap)))
                        .collect(),
                ),
                (Op::Advance(t), _) => Event::Advance(*t),
                (Op::Query(t), _) => {
                    if self.inline_queries {
                        out.push(query(*t));
                    }
                    continue;
                }
            };
            last_ingest = last_ingest.max(Some(ev.time()));
            out.push(ev);
        }
        for p in &self.probes {
            match *p {
                Probe::LastIngest => out.extend(last_ingest.map(query)),
                Probe::After(d) => out.push(query(sc.max_time() + d)),
            }
        }
        out
    }

    /// What a run of this row on `stream` reports itself as.
    pub fn run_id(&self, stream: &Stream, n: usize, policy: Option<LatenessPolicy>) -> RunId {
        let (family, seed, bound) = match stream {
            Stream::Ops(s) => (&s.name, s.seed, None),
            Stream::Late(s) => (&s.name, s.seed, Some(s.bound)),
        };
        RunId {
            case: self.id(),
            family: family.clone(),
            seed,
            n,
            bound,
            policy,
            damage: None,
        }
    }

    /// Certifies one stream, or `None` when this row skips it (wrong
    /// input kind, past the horizon, too short to trip the fault).
    /// `n` is the length the stream was generated with (repro lines
    /// regenerate it); `damages` selects crash-sweep points.
    pub fn run(
        &self,
        stream: &Stream,
        n: usize,
        policy: Option<LatenessPolicy>,
        damages: &Damages,
    ) -> Option<Result<Stats, Repro>> {
        let late = matches!(stream, Stream::Late(_));
        if late == self.policies.is_empty()
            || self.max_time.is_some_and(|m| stream.max_time() > m)
            || stream.items() < self.min_items
        {
            return None;
        }
        let run = self.run_id(stream, n, policy);
        let events = self.events(stream);
        Some(match &self.sut {
            Maker::Fresh(make) => {
                let stage = match stream {
                    Stream::Late(ls) => Some(Stage {
                        policy: policy.expect("arrival streams run under a policy"),
                        bound: ls.bound,
                        sources: ls.sources,
                    }),
                    Stream::Ops(_) => None,
                };
                drive(
                    &mut *make(stage),
                    &*self.oracle,
                    self.truth,
                    &events,
                    0,
                    &run,
                )
            }
            Maker::Crash(open) => {
                crash_sweep(&**open, &*self.oracle, self.truth, &events, &run, damages)
            }
        })
    }
}

/// Lowers an arrival family to events, simulating the watermark
/// independently of any stage: `W = max_seen − bound` over on-time
/// arrivals, an arrival below `W` is late. Queries every
/// `checkpoint_every` arrivals sit at the watermark edge and one past
/// it (buffered items all have `t > W`, so they are invisible to the
/// truth there too); after the flush, two probes past the horizon.
fn late_events(s: &LateStream, cap: u64) -> Vec<Event> {
    let (mut max_seen, mut wm) = (0, 0);
    let mut out = Vec::new();
    for (i, a) in s.arrivals.iter().enumerate() {
        let late = a.t < wm;
        if !late {
            max_seen = max_seen.max(a.t);
            wm = max_seen.saturating_sub(s.bound);
        }
        out.push(Event::Arrive {
            source: a.source,
            t: a.t,
            f: a.f.min(cap),
            late,
            wm,
        });
        if (i + 1) % s.checkpoint_every == 0 {
            out.extend([Event::Query(wm), Event::Query(wm + 1)]);
        }
    }
    out.push(Event::Flush { wm: max_seen });
    out.extend([Event::Query(max_seen + 1), Event::Query(max_seen + 13)]);
    out
}

/// What a [`Sweep`] certified.
#[derive(Debug, Default)]
pub struct Report {
    /// Clean runs.
    pub runs: Vec<(RunId, Stats)>,
    /// Every violation, in run order.
    pub failures: Vec<Repro>,
}

impl Report {
    /// Panics with every repro line unless the sweep ran something and
    /// certified all of it.
    pub fn assert_clean(&self) {
        assert!(
            !self.runs.is_empty() || !self.failures.is_empty(),
            "sweep ran no cases"
        );
        let lines: Vec<String> = self.failures.iter().map(|r| r.to_string()).collect();
        assert!(
            lines.is_empty(),
            "{} certification failure(s):\n{}",
            lines.len(),
            lines.join("\n")
        );
    }
}

/// Runs rows over generated streams: every seed's scenario catalogue
/// (or arrival catalogue at each lateness bound) at length `n`.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Catalogue seeds.
    pub seeds: Vec<u64>,
    /// Stream length parameter.
    pub n: usize,
    /// Allowed lateness the arrival families are tuned to.
    pub bounds: Vec<u64>,
    /// Crash-sweep points.
    pub damages: Damages,
}

impl Sweep {
    /// `seeds × n`, lateness bound 6, crash sweeps at a prime stride.
    pub fn new(seeds: &[u64], n: usize) -> Self {
        Sweep {
            seeds: seeds.to_vec(),
            n,
            bounds: vec![6],
            damages: Damages::Stride(7),
        }
    }

    /// Certifies every row against every stream it takes.
    pub fn run(&self, cases: &[Case]) -> Report {
        let mut report = Report::default();
        for &seed in &self.seeds {
            let ops: Vec<Stream> = catalogue(seed, self.n)
                .into_iter()
                .map(Stream::Ops)
                .collect();
            let late: Vec<Stream> = self
                .bounds
                .iter()
                .flat_map(|&b| late_arrival_catalogue(seed, self.n, b))
                .map(Stream::Late)
                .collect();
            for case in cases {
                let (streams, policies) = match case.policies.as_slice() {
                    [] => (&ops, vec![None]),
                    ps => (&late, ps.iter().copied().map(Some).collect()),
                };
                for stream in streams {
                    for &policy in &policies {
                        match case.run(stream, self.n, policy, &self.damages) {
                            None => {}
                            Some(Ok(stats)) => {
                                let run = case.run_id(stream, self.n, policy);
                                report.runs.push((run, stats));
                            }
                            Some(Err(r)) => report.failures.push(r),
                        }
                    }
                }
            }
        }
        report
    }
}

/// Re-runs the case a repro line names, on the regenerated stream, at
/// the same damage point. `Err` when the line names no known case or
/// family.
pub fn replay(run: &RunId) -> Result<Result<Stats, Repro>, String> {
    let cases = all_cases();
    let case = cases
        .iter()
        .find(|c| c.id() == run.case)
        .ok_or_else(|| format!("no case `{}`", run.case))?;
    let stream = match run.bound {
        Some(b) => late_arrival_catalogue(run.seed, run.n, b)
            .into_iter()
            .find(|s| s.name == run.family)
            .map(Stream::Late),
        None => catalogue(run.seed, run.n)
            .into_iter()
            .find(|s| s.name == run.family)
            .map(Stream::Ops),
    }
    .ok_or_else(|| format!("no family `{}` at seed {:#x}", run.family, run.seed))?;
    case.run(
        &stream,
        run.n,
        run.policy,
        &Damages::Only(run.damage.clone()),
    )
    .ok_or_else(|| format!("case `{}` skips this stream", run.case))
}

/// Every registered row: the five matrices, the stacked rows, and the
/// canaries.
pub fn all_cases() -> Vec<Case> {
    let mut all = default_matrix();
    all.extend(default_fault_matrix());
    all.extend(default_lateness_matrix());
    all.extend(default_recovery_matrix());
    all.extend(default_registry_matrix());
    all.extend(stacked_cases());
    all.extend(canaries());
    all
}

const WBMH_MAX_AGE: Time = 1 << 41;

fn boxed<G: DecayFunction + 'static>(g: G) -> Box<dyn DecayFunction> {
    Box::new(g)
}

fn exp(lambda: f64) -> Exponential {
    Exponential::new(lambda)
}

fn poly(alpha: f64) -> Polynomial {
    Polynomial::new(alpha)
}

fn window(w: u64) -> SlidingWindow {
    SlidingWindow::new(w)
}

/// The backward-decay oracle of `g`.
fn backward<G: DecayFunction + Copy + 'static>(g: G) -> impl Fn() -> DynOracle {
    move || Oracle::new(boxed(g))
}

/// The forward-decay oracle of `g` (landmark 0).
fn forward<G: DecayFunction + Copy + 'static>(g: G) -> impl Fn() -> DynOracle {
    move || Oracle::forward(boxed(g), 0)
}

fn plan(seed: u64, victim: usize, panic_after_items: u64, mode: FaultMode) -> FaultPlan {
    FaultPlan {
        seed,
        victim,
        panic_after_items,
        mode,
    }
}

fn registry_opts(eviction_threshold: f64) -> RegistryOptions {
    RegistryOptions {
        expected_keys: 32,
        eviction_threshold,
        sweep_per_ingest: 4,
        record_evictions: false,
    }
}

// Backends over a boxed decay, shared by the in-order and lateness rows.
fn exact<G: DecayFunction + 'static>(g: G) -> DynAggregate {
    Box::new(ExactDecayedSum::new(boxed(g)))
}

fn ceh<G: DecayFunction + 'static>(g: G) -> DynAggregate {
    Box::new(CascadedEh::new(boxed(g), 0.1))
}

fn wbmh<G: DecayFunction + 'static>(g: G) -> DynAggregate {
    Box::new(Wbmh::new(boxed(g), 0.1, WBMH_MAX_AGE))
}

fn auto<G: DecayFunction + Copy + Send + Sync + 'static>(g: G) -> DynAggregate {
    use td_core::{BackendChoice, DecayedSum};
    Box::new(
        DecayedSum::builder(g)
            .epsilon(0.1)
            .backend(BackendChoice::Auto)
            .build(),
    )
}

fn sharded<G: Copy + Send + 'static, B: StreamAggregate + Clone + Send + 'static>(
    g: G,
    make: fn(G) -> B,
) -> DynAggregate {
    Box::new(ShardedAggregate::new(3, move || make(g)))
}

/// An in-order row: backend and backward oracle over the same decay.
fn row<G: DecayFunction + Copy + 'static>(
    name: &'static str,
    g: G,
    b: fn(G) -> DynAggregate,
) -> Case {
    Case::inorder(name, move || b(g), backward(g))
}

/// An in-order row judged by the forward-decay oracle, up to the fixed
/// landmark's headroom horizon.
fn fwd_row<G: DecayFunction + Copy + 'static>(
    name: &'static str,
    g: G,
    b: fn(G) -> DynAggregate,
) -> Case {
    Case::inorder(name, move || b(g), forward(g)).with_max_time(DEFAULT_MAX_TIME)
}

/// The in-order matrix: every `StreamAggregate` backend in the
/// workspace paired with a decay it supports and the oracle of the
/// same decay. Horizons are capped only where the backend is built
/// with a finite `max_age`; domains only where the paper restricts
/// them (classic EH counts 0/1 items).
pub fn default_matrix() -> Vec<Case> {
    use td_aggregates::{DecayedAverage, DecayedVariance};
    use td_forward::{ForwardDecayAverage, ForwardDecayVariance};
    use TruthKind::{Average, Variance};
    vec![
        // Exact store-nothing-lost baselines, one per decay family.
        row("exact/exp", exp(0.01), exact),
        row("exact/poly1", poly(1.0), exact),
        row("exact/sliding256", window(256), exact),
        row("exact/log64", LogDecay::new(64), exact),
        // §3.1 exponential counters, exact and quantized; §3.4
        // pipelined counters under the matching polyexponential.
        row("exp-counter", exp(0.01), |g| Box::new(ExpCounter::new(g))),
        row("quantized-exp/m20", exp(0.01), |g| {
            Box::new(QuantizedExpCounter::new(g, 20))
        }),
        row("polyexp-pipeline/k2", PolyExponential::new(2, 0.03), |_| {
            Box::new(PolyExpCounter::new(2, 0.03))
        }),
        // Theorem 1 cascaded EH across decay families.
        row("ceh/exp", exp(0.01), ceh),
        row("ceh/poly1", poly(1.0), ceh),
        row("ceh/sliding256", window(256), ceh),
        // §5 WBMH (ratio-monotone decay), exact and approximate counts.
        row("wbmh/poly1", poly(1.0), wbmh).with_max_time(WBMH_MAX_AGE / 2),
        row("wbmh/poly1-approx-counts", poly(1.0), |g| {
            Box::new(Wbmh::with_approx_counts(boxed(g), 0.1, WBMH_MAX_AGE, 0.05))
        })
        .with_max_time(WBMH_MAX_AGE / 2),
        // §3.2 exponential histograms as landmark counters (constant
        // decay): domination variant takes bulk mass, classic is 0/1.
        row("domination-eh/landmark", Constant, |_| {
            Box::new(DominationEh::new(0.1, None))
        }),
        row("classic-eh/landmark", Constant, |_| {
            Box::new(ClassicEh::new(0.1, None))
        })
        .with_value_cap(1),
        // The §8 dispatch facade: Auto picks the table's backend.
        row("core-auto/exp", exp(0.01), auto),
        row("core-auto/poly1", poly(1.0), auto),
        row("core-auto/sliding256", window(256), auto),
        // §7 compound aggregates: ratio (average) and three-sums
        // reduction (variance).
        row("average/ceh-poly2", poly(2.0), |g| {
            Box::new(DecayedAverage::ceh(g, 0.05))
        })
        .with_truth(Average),
        row("variance/ceh-sliding512", window(512), |g| {
            Box::new(DecayedVariance::ceh(g, 0.05))
        })
        .with_truth(Variance { budget: 0.5 }),
        // The td-shard engine: three worker shards fed round-robin,
        // answers from the epoch-cached merged summary under its own
        // (merge-widened) envelope.
        row("sharded-exp-counter/x3", exp(0.01), |g| {
            sharded(g, ExpCounter::new)
        }),
        row("sharded-ceh/exp-x3", exp(0.01), |g| {
            sharded(g, |g| CascadedEh::new(g, 0.1))
        }),
        row("sharded-wbmh/poly1-x3", poly(1.0), |g| {
            sharded(g, |g| Wbmh::new(g, 0.1, WBMH_MAX_AGE))
        })
        .with_max_time(WBMH_MAX_AGE / 2),
        // Forward decay: for exponentials forward ≡ backward, so those
        // rows certify against the backward oracle — one with the
        // rotation threshold forced low so landmark rotations fire in
        // tier-1 streams. Other decays are a different model, judged
        // by the forward-mode oracle.
        row("forward-sum/exp", exp(0.01), |g| {
            Box::new(ForwardDecaySum::new(g))
        }),
        row("forward-sum/exp-rotating", exp(0.01), |g| {
            Box::new(ForwardDecaySum::new(g).with_rotation_exponent(2.0))
        }),
        fwd_row("forward-sum/poly1", poly(1.0), |g| {
            Box::new(ForwardDecaySum::new(g))
        }),
        fwd_row("forward-sum/log64", LogDecay::new(64), |g| {
            Box::new(ForwardDecaySum::new(g))
        }),
        fwd_row("forward-average/poly2", poly(2.0), |g| {
            Box::new(ForwardDecayAverage::new(g))
        })
        .with_truth(Average),
        fwd_row("forward-variance/poly1", poly(1.0), |g| {
            Box::new(ForwardDecayVariance::new(g))
        })
        .with_truth(Variance { budget: 1e-6 }),
        row("sharded-forward/exp-x3", exp(0.01), |g| {
            sharded(g, ForwardDecaySum::new)
        }),
    ]
}

/// A fault row whose backend and backward oracle share decay `g`.
fn fault<G: DecayFunction + Copy + Send + 'static, B>(
    name: &'static str,
    plan: FaultPlan,
    shards: usize,
    g: G,
    make: fn(G) -> B,
) -> Case
where
    B: StreamAggregate + Checkpoint + Clone + Send + 'static,
{
    Case::fault(name, plan, shards, move || make(g), backward(g))
}

/// The fault matrix: every [`FaultMode`] against an exact backend
/// (restart and quarantine accounting is exactly checkable), a
/// Theorem-1 sketch (widening composes with its ε-envelope), and a
/// forward accumulator, with corruption on backends whose checkpoints
/// carry real structure.
pub fn default_fault_matrix() -> Vec<Case> {
    use FaultMode::{CorruptCheckpoint as Corrupt, Quarantine, Restart};
    let (e, c) = (exp(0.01), Constant);
    let exact = |name, p| fault(name, p, 4, c, ExactDecayedSum::new);
    let ceh = |name, p| fault(name, p, 3, e, |g| CascadedEh::new(g, 0.1));
    let fwd = |name, p| fault(name, p, 3, e, ForwardDecaySum::new);
    let bit = |bit_offset| Corrupt { bit_offset };
    vec![
        exact("restart/exact-constant", plan(0xFA_0001, 1, 12, Restart)),
        fault(
            "restart/exp-counter",
            plan(0xFA_0002, 0, 10, Restart),
            3,
            e,
            ExpCounter::new,
        ),
        exact(
            "quarantine/exact-constant",
            plan(0xFA_0003, 2, 9, Quarantine),
        ),
        ceh("quarantine/ceh-exp", plan(0xFA_0004, 1, 11, Quarantine)),
        exact(
            "corrupt-ckpt/exact-constant",
            plan(0xFA_0005, 0, 13, bit(123)),
        ),
        ceh("corrupt-ckpt/ceh-exp", plan(0xFA_0006, 2, 9, bit(7777))),
        fwd("restart/forward-exp", plan(0xFA_0007, 1, 10, Restart)),
        fwd("quarantine/forward-exp", plan(0xFA_0008, 0, 11, Quarantine)),
    ]
}

/// A lateness row: backend, stage decay and truth over decay `g`.
fn late<G: DecayFunction + Copy + 'static>(
    name: &'static str,
    g: G,
    b: fn(G) -> DynAggregate,
) -> Case {
    Case::lateness(name, move || b(g), move || boxed(g))
}

/// The lateness matrix: each backend × decay pair behind a reorder
/// stage, under both policies. Truth is backward decay, so forward
/// accumulators appear only under exponential decay (forward ≡
/// backward there).
pub fn default_lateness_matrix() -> Vec<Case> {
    vec![
        late("exact/exp", exp(0.01), exact),
        late("exact/sliding256", window(256), exact),
        late("exp-counter", exp(0.01), |g| Box::new(ExpCounter::new(g))),
        late("quantized-exp/m20", exp(0.01), |g| {
            Box::new(QuantizedExpCounter::new(g, 20))
        }),
        late("ceh/exp", exp(0.01), ceh),
        late("ceh/poly1", poly(1.0), ceh),
        late("wbmh/poly1", poly(1.0), wbmh),
        // Constant decay: folding is exact (zero weight gap) — the
        // envelope must not widen at all.
        late("domination-eh/landmark", Constant, |_| {
            Box::new(DominationEh::new(0.1, None))
        }),
        late("core-auto/exp", exp(0.01), auto),
        late("forward-sum/exp", exp(0.01), |g| {
            Box::new(ForwardDecaySum::new(g))
        }),
        // The stage in front of the threaded serving engine.
        late("sharded-exp-counter/x3", exp(0.01), |g| {
            sharded(g, ExpCounter::new)
        }),
    ]
}

/// A recovery row whose backend and backward oracle share decay `g`.
fn rec<G: DecayFunction + Copy + 'static, B: Checkpoint + 'static>(
    name: &'static str,
    g: G,
    make: fn(G) -> B,
) -> Case {
    Case::recovery(name, move || make(g), backward(g))
}

/// The recovery matrix: every checkpoint-capable summary family under
/// a decay it supports, plus the registry through its un-keyed facade
/// (observations routed to `hash(f) % AUTO_FANOUT` keys, population
/// answers).
pub fn default_recovery_matrix() -> Vec<Case> {
    vec![
        rec("exact/exp", exp(0.01), ExactDecayedSum::new),
        rec("exact/sliding256", window(256), ExactDecayedSum::new),
        rec("exact/log64", LogDecay::new(64), ExactDecayedSum::new),
        rec("exp-counter", exp(0.01), ExpCounter::new),
        rec("quantized-exp/m20", exp(0.01), |g| {
            QuantizedExpCounter::new(g, 20)
        }),
        rec("polyexp-pipeline/k2", PolyExponential::new(2, 0.03), |_| {
            PolyExpCounter::new(2, 0.03)
        }),
        rec("ceh/exp", exp(0.01), |g| CascadedEh::new(g, 0.1)),
        rec("ceh/poly1", poly(1.0), |g| CascadedEh::new(g, 0.1)),
        rec("wbmh/poly1", poly(1.0), |g| Wbmh::new(g, 0.1, WBMH_MAX_AGE)),
        rec("domination-eh/landmark", Constant, |_| {
            DominationEh::new(0.1, None)
        }),
        rec("forward-sum/exp", exp(0.01), ForwardDecaySum::new),
        rec("registry/forward-sum-exp", exp(0.01), |g| {
            let opts = RegistryOptions {
                expected_keys: 32,
                ..RegistryOptions::default()
            };
            KeyedRegistry::new(opts, move || ForwardDecaySum::new(g))
        }),
    ]
}

/// A registry row: 13-way fan-out, per-key backends and oracles over
/// decay `g`.
fn reg<G, B>(name: &'static str, threshold: f64, g: G, make: fn(G) -> B) -> Case
where
    G: DecayFunction + Copy + Send + Sync + 'static,
    B: StreamAggregate + 'static,
{
    Case::registry(
        name,
        13,
        move || KeyedRegistry::new(registry_opts(threshold), move || make(g)),
        backward(g),
    )
}

/// The registry matrix: forward-decay backends (exponential with and
/// without eviction, polynomial) and a backward counter, every key
/// judged against its own exact oracle inside the eviction-widened
/// envelope.
pub fn default_registry_matrix() -> Vec<Case> {
    let fwd_poly = || KeyedRegistry::new(registry_opts(0.0), || ForwardDecaySum::new(poly(1.0)));
    vec![
        reg(
            "registry/forward-sum-exp",
            0.0,
            exp(0.01),
            ForwardDecaySum::new,
        ),
        // Aggressive decay plus a live eviction threshold: keys go
        // quiet, the sweep retires them, and every later answer must
        // still be admitted by the eviction-widened envelope.
        reg(
            "registry/forward-sum-exp-evicting",
            1e-6,
            exp(0.05),
            ForwardDecaySum::new,
        ),
        Case::registry(
            "registry/forward-sum-poly1",
            13,
            fwd_poly,
            forward(poly(1.0)),
        )
        .with_max_time(DEFAULT_MAX_TIME),
        reg("registry/exp-counter", 0.0, exp(0.05), ExpCounter::new),
    ]
}

/// A three-way split row whose parts and oracle share decay `g`.
fn split<G: DecayFunction + Copy + 'static, B: StreamAggregate + Clone + 'static>(
    name: &'static str,
    g: G,
    make: fn(G) -> B,
) -> Case {
    Case::split(name, 3, move || make(g), backward(g))
}

/// Rows that stack disturbance axes, and the reprises the exhaustive
/// sweeps add:
///
/// * an evicting keyed registry behind `DurableAggregate::open_keyed`,
///   killed at every byte, every key judged against its own oracle;
/// * reorder stage × worker fault, the panic striking while
///   out-of-order mass is buffered;
/// * shard split × merge over five summary families;
/// * a rotation-heavy forward accumulator and a high-fan-out,
///   hot-eviction registry at three fan-outs.
pub fn stacked_cases() -> Vec<Case> {
    use FaultMode::{Quarantine, Restart};
    let (e, c) = (exp(0.01), Constant);
    let exact = |name, plan| {
        Case::reordered_fault(
            name,
            plan,
            3,
            move || ExactDecayedSum::new(c),
            move || boxed(c),
        )
    };
    let counter = |name, plan| {
        Case::reordered_fault(name, plan, 3, move || ExpCounter::new(e), move || boxed(e))
    };
    let hot = |name, n_keys| {
        let opts = RegistryOptions {
            expected_keys: 8,
            eviction_threshold: 1e-5,
            sweep_per_ingest: 64,
            record_evictions: false,
        };
        Case::registry(
            name,
            n_keys,
            move || KeyedRegistry::new(opts.clone(), || ForwardDecaySum::new(exp(0.05))),
            backward(exp(0.05)),
        )
    };
    let evicting = || KeyedRegistry::new(registry_opts(1e-6), || ForwardDecaySum::new(exp(0.05)));
    vec![
        Case::keyed_recovery(
            "registry-durable/forward-sum-exp-evicting",
            13,
            evicting,
            backward(exp(0.05)),
        ),
        exact(
            "reordered-restart/exact-constant",
            plan(0xFB_0001, 1, 10, Restart),
        ),
        exact(
            "reordered-quarantine/exact-constant",
            plan(0xFB_0002, 0, 10, Quarantine),
        ),
        counter(
            "reordered-restart/exp-counter",
            plan(0xFB_0003, 1, 10, Restart),
        ),
        counter(
            "reordered-quarantine/exp-counter",
            plan(0xFB_0004, 0, 10, Quarantine),
        ),
        split("ceh/exp-x3", e, |g| CascadedEh::new(g, 0.1)),
        split("exp-counter-x3", e, ExpCounter::new),
        split("domination-eh/landmark-x3", c, |_| {
            DominationEh::new(0.1, None)
        }),
        split("wbmh/poly1-x3", poly(1.0), |g| Wbmh::new(g, 0.1, 1 << 30)),
        split("forward-sum/exp-x3", e, ForwardDecaySum::new),
        // Half a nat per rotation: a rescale roughly every 50 ticks.
        row("forward-sum/exp-rot0.5", e, |g| {
            Box::new(ForwardDecaySum::new(g).with_rotation_exponent(0.5))
        }),
        hot("registry/forward-sum-exp-hot-k3", 3),
        hot("registry/forward-sum-exp-hot-k64", 64),
        hot("registry/forward-sum-exp-hot-k257", 257),
    ]
}

/// A WBMH whose heaviest bucket (by decayed share at the probe) is
/// multiplied fifty-fold before its first answer.
struct CorruptBucket(std::cell::RefCell<Wbmh<Polynomial>>);

impl Sut for CorruptBucket {
    fn ingest(&mut self, ev: &Event) -> Result<bool, String> {
        let w = self.0.get_mut();
        match ev {
            Event::Observe(t, f) => w.observe(*t, *f),
            Event::Batch(items) => w.observe_batch(items),
            Event::Advance(t) => w.advance(*t),
            _ => return Err(format!("unsupported event {ev:?}")),
        }
        Ok(true)
    }
    fn query(&self, t: Time) -> Result<Answer, String> {
        let mut snap = self.0.borrow().snapshot();
        let share = |i: usize| {
            let (_, _, _, last_item, count, _) = snap.buckets[i];
            count * poly(1.0).weight(t.saturating_sub(last_item).max(1))
        };
        let victim = (0..snap.buckets.len())
            .max_by(|&a, &b| share(a).total_cmp(&share(b)))
            .ok_or("no bucket to corrupt")?;
        snap.buckets[victim].4 *= 50.0;
        let w = Wbmh::restore(poly(1.0), 0.1, 1 << 30, None, &snap);
        Ok(Answer::of(w.query(t), StreamAggregate::error_bound(&w)))
    }
}

/// An exact constant-decay backend whose restore swallows every error
/// and keeps a fresh state — a restore path that skipped the checksum.
#[derive(Clone)]
struct Unchecked(ExactDecayedSum<Constant>);

impl td_decay::StorageAccounting for Unchecked {
    fn storage_bits(&self) -> u64 {
        self.0.storage_bits()
    }
}

impl StreamAggregate for Unchecked {
    fn observe(&mut self, t: Time, f: u64) {
        self.0.observe(t, f)
    }
    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        self.0.observe_batch(items)
    }
    fn advance(&mut self, t: Time) {
        self.0.advance(t)
    }
    fn query(&self, t: Time) -> f64 {
        self.0.query(t)
    }
    fn merge_from(&mut self, other: &Self) {
        self.0.merge_from(&other.0)
    }
    fn error_bound(&self) -> td_decay::ErrorBound {
        self.0.error_bound()
    }
}

impl Checkpoint for Unchecked {
    fn save_checkpoint(&self) -> Vec<u8> {
        self.0.save_checkpoint()
    }
    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let _ = self.0.restore_checkpoint(bytes);
        Ok(())
    }
}

/// Seeded bugs the certifier must catch, each with a [`Repro`] that
/// replays to the same failing tick:
///
/// * a WBMH with one corrupted bucket (uniform family, seed 42);
/// * a reorder stage configured looser than the stream's bound, which
///   silently accepts beyond-bound mass (heavy-tail family, bound 4);
/// * a corrupted checkpoint restored without its checksum check, so a
///   dead worker "heals" with its mass silently gone;
/// * a registry carrying a million phantom units on one key.
pub fn canaries() -> Vec<Case> {
    use FaultMode::CorruptCheckpoint;
    type C = Case;
    vec![
        C::new(
            Suite::Canary,
            "wbmh-corrupt-bucket",
            backward(poly(1.0)),
            Case::fresh(|_| Box::new(CorruptBucket(Wbmh::new(poly(1.0), 0.1, 1 << 30).into()))),
        )
        .with_probes_only(vec![Probe::After(1)]),
        Case {
            policies: vec![LatenessPolicy::Reject],
            ..C::new(
                Suite::Canary,
                "reorder-wrong-bound",
                backward(exp(0.01)),
                Case::fresh(|stage| {
                    let stage = Stage {
                        bound: 400,
                        ..stage.expect("arrival streams")
                    };
                    let b = Plain(Box::new(ExactDecayedSum::new(boxed(exp(0.01)))));
                    Box::new(Staged::new(b, boxed(exp(0.01)), stage))
                }),
            )
        },
        C::fault(
            "corrupt-ckpt-unchecked",
            plan(0xFA_0009, 0, 13, CorruptCheckpoint { bit_offset: 123 }),
            4,
            || Unchecked(ExactDecayedSum::new(Constant)),
            backward(Constant),
        )
        .in_suite(Suite::Canary),
        C::registry(
            "registry-phantom-mass",
            5,
            || {
                let mut r = KeyedRegistry::new(RegistryOptions::default(), || {
                    ForwardDecaySum::new(exp(0.01))
                });
                r.observe_keyed(0, 0, 1_000_000);
                r
            },
            backward(exp(0.01)),
        )
        .in_suite(Suite::Canary),
    ]
}
