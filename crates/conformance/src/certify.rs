//! The one lock-step certifier: [`drive`] replays an [`Event`] stream
//! into a system under test ([`Sut`]) and the exact [`Oracle`] side by
//! side, and judges every answer by one rule — the answer's
//! [`Envelope`] (relative bound plus additive missing / over-counted
//! weight), with one [`slop`] for f64 summation noise. The first
//! violation stops the run and becomes a [`Repro`]: a one-line,
//! parseable description that regenerates the same stream, re-runs the
//! same case, and reaches the same failing tick.
//!
//! Disturbances never get their own loop: they are adapters around the
//! system under test (`crate::adapters`) or transforms of the event
//! stream (`crate::matrix`), so any combination of them replays here.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

use td_decay::{DecayFunction, Envelope, ErrorBound, StreamAggregate, Time};
use td_reorder::LatenessPolicy;

use crate::oracle::Oracle;

/// A backend under test, behind the object-safe trait surface.
pub type DynAggregate = Box<dyn StreamAggregate>;

/// The reference oracle with a type-erased decay (the blanket
/// `DecayFunction for Box<G>` impl makes the boxed decay a first-class
/// `G`).
pub type DynOracle = Oracle<Box<dyn DecayFunction>>;

/// One step of a certification run.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One in-order item.
    Observe(Time, u64),
    /// A sorted burst through the batched ingest path.
    Batch(Vec<(Time, u64)>),
    /// Keyed items `(key, t, f)`, time-sorted; one ingest call.
    Keyed(Vec<(u64, Time, u64)>),
    /// A clock advance without mass.
    Advance(Time),
    /// An out-of-arrival-order item on ingest `source`, with the fate
    /// and watermark an independent prefix-max simulation predicts:
    /// `late` items fall below the watermark, `wm` is the watermark
    /// after this arrival.
    Arrive {
        /// Ingest source (per-source reorder buffer).
        source: usize,
        /// True timestamp.
        t: Time,
        /// Value.
        f: u64,
        /// Predicted beyond-bound.
        late: bool,
        /// Predicted watermark after the arrival.
        wm: Time,
    },
    /// Drain a reorder stage; `wm` is the predicted final watermark.
    Flush {
        /// Predicted watermark after the drain.
        wm: Time,
    },
    /// Judge the whole-stream answer at this tick.
    Query(Time),
    /// Judge every key seen so far, each against its own oracle.
    QueryKeys(Time),
}

impl Event {
    /// The tick this event happens at (repro lines cite it).
    pub fn time(&self) -> Time {
        match self {
            Event::Observe(t, _) | Event::Advance(t) | Event::Query(t) | Event::QueryKeys(t) => *t,
            Event::Batch(items) => items.last().map_or(0, |&(t, _)| t),
            Event::Keyed(items) => items.last().map_or(0, |&(_, t, _)| t),
            Event::Arrive { t, .. } => *t,
            Event::Flush { wm } => *wm,
        }
    }

    /// Entries this event logs in a durable store (one per item, one
    /// per advance; queries log nothing).
    pub fn entries(&self) -> u64 {
        match self {
            Event::Observe(..) | Event::Advance(_) | Event::Arrive { .. } => 1,
            Event::Batch(items) => items.len() as u64,
            Event::Keyed(items) => items.len() as u64,
            Event::Flush { .. } | Event::Query(_) | Event::QueryKeys(_) => 0,
        }
    }
}

/// Which ground-truth quantity a whole-stream answer estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TruthKind {
    /// The decayed sum `Σ f_i · g(T − t_i)` (§2.1).
    Sum,
    /// The decayed average (§7.2) — a ratio of two estimates.
    Average,
    /// The decayed variance (§7.3). No relative guarantee exists in
    /// the cancellation regime, so when the answer's envelope is
    /// unbounded it is judged against the absolute budget
    /// `|est − V| ≤ budget · Σ g·f²` (the paper's `O(ε·Σgf²)`).
    Variance {
        /// The absolute-error budget as a fraction of the decayed
        /// second moment.
        budget: f64,
    },
}

/// An answer as the system under test certifies it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// The estimate.
    pub value: f64,
    /// The envelope the system certifies it with: its relative bound
    /// plus additive weight it may miss (e.g. evicted keys) or
    /// over-count.
    pub envelope: Envelope,
    /// Served without some shard's live state.
    pub degraded: bool,
    /// The tick the answer claims completeness up to, when the system
    /// reports one.
    pub complete_up_to: Option<Time>,
}

impl Answer {
    /// A plain answer: value and relative envelope, nothing else.
    pub fn of(value: f64, bound: ErrorBound) -> Self {
        Answer {
            value,
            envelope: Envelope::from(bound),
            degraded: false,
            complete_up_to: None,
        }
    }

    /// The one judging rule: does `truth` sit inside this answer's
    /// envelope, up to [`slop`]?
    pub fn admits(&self, truth: f64) -> bool {
        self.envelope.admits(self.value, truth, slop(truth))
    }
}

/// Absolute tolerance absorbing f64 summation-order noise between the
/// system under test and the oracle (they sum in different orders).
pub fn slop(truth: f64) -> f64 {
    1e-9 * truth.abs().max(1.0)
}

/// A system under test, as the certifier sees it. Adapters implement it
/// around backends, engines, stages, and stores; an `Err` is a
/// contract violation and ends the run with a [`Repro`].
pub trait Sut {
    /// Applies one ingest event. `Ok(true)` when its items count
    /// toward the truth (a rejected late arrival does not).
    fn ingest(&mut self, ev: &Event) -> Result<bool, String>;

    /// The whole-stream answer at `t`.
    fn query(&self, t: Time) -> Result<Answer, String>;

    /// The answer for one key at `t` (keyed systems only).
    fn query_key(&self, _key: u64, _t: Time) -> Result<Answer, String> {
        Err("not a keyed system".into())
    }

    /// Whether an armed fault has fired (`None`: no fault armed).
    fn fired(&self) -> Option<bool> {
        None
    }

    /// End-of-run checks; records what the run covered into `stats`.
    fn finish(&self, _stats: &mut Stats) -> Result<(), String> {
        Ok(())
    }
}

/// What a clean run covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Query events answered.
    pub queries: usize,
    /// Answers judged (a keyed query judges one per key).
    pub checks: usize,
    /// Answers served degraded.
    pub degraded: usize,
    /// Largest relative error over answers with nonzero truth.
    pub max_rel_err: f64,
    /// The system's storage footprint after the replay.
    pub storage_bits: u64,
    /// Keys evicted during the run (keyed systems).
    pub evictions: u64,
    /// Damage points swept (crash runs).
    pub sweeps: usize,
    /// Damage points that recovered and certified.
    pub recovered: usize,
    /// Damage points refused with a typed `RestoreError`.
    pub refused: usize,
    /// Durable bytes the sweep covered.
    pub durable_bytes: usize,
    /// Frame-header bytes among them, swept at every bit rather than
    /// one.
    pub header_bytes: usize,
}

/// How a store was damaged after the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamageKind {
    /// The file ends at this byte offset — a torn write.
    Truncate(usize),
    /// This bit is flipped — media corruption.
    BitFlip(u64),
}

/// One damage point of a crash sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Damage {
    /// The damaged file.
    pub file: String,
    /// What was done to it.
    pub kind: DamageKind,
}

impl fmt::Display for Damage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DamageKind::Truncate(o) => write!(f, "{}:truncate@{o}", self.file),
            DamageKind::BitFlip(b) => write!(f, "{}:bitflip@{b}", self.file),
        }
    }
}

impl FromStr for Damage {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        let (file, kind) = s.rsplit_once(':').ok_or("damage needs file:kind")?;
        let kind = match kind.split_once('@') {
            Some(("truncate", o)) => DamageKind::Truncate(o.parse().map_err(|e| format!("{e}"))?),
            Some(("bitflip", b)) => DamageKind::BitFlip(b.parse().map_err(|e| format!("{e}"))?),
            _ => return Err(format!("unknown damage `{kind}`")),
        };
        Ok(Damage {
            file: file.to_string(),
            kind,
        })
    }
}

/// Everything that identifies one run: the case, the stream, and the
/// disturbance parameters that are not fixed by the case.
#[derive(Debug, Clone, PartialEq)]
pub struct RunId {
    /// `suite:name` of the matrix row.
    pub case: String,
    /// Stream family name.
    pub family: String,
    /// The seed the family was generated from.
    pub seed: u64,
    /// The length parameter the family was generated with.
    pub n: usize,
    /// Allowed lateness the arrival family was tuned to (late streams).
    pub bound: Option<u64>,
    /// Lateness policy of the stage (late streams).
    pub policy: Option<LatenessPolicy>,
    /// Damage applied after the crash (crash runs; `None` for the
    /// never-crashed and undamaged runs).
    pub damage: Option<Damage>,
}

/// A certified violation: the run, the first failing tick, the key
/// when a per-key answer failed, and what went wrong. `Display` is one
/// line that [`FromStr`] parses back; `crate::matrix::replay` (and the
/// `repro` binary) re-run it.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The run that failed.
    pub run: Box<RunId>,
    /// The first failing tick.
    pub tick: Time,
    /// The failing key, for per-key answers.
    pub key: Option<u64>,
    /// What went wrong (single line).
    pub detail: String,
}

impl Repro {
    /// A violation of `run` at `tick`.
    pub fn new(run: &RunId, tick: Time, key: Option<u64>, detail: impl Into<String>) -> Self {
        Repro {
            run: Box::new(run.clone()),
            tick,
            key,
            detail: detail.into().replace(['\n', '\r'], " "),
        }
    }
}

impl fmt::Display for Repro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.run;
        write!(
            f,
            "repro case={} family={} seed={:#x} n={}",
            r.case, r.family, r.seed, r.n
        )?;
        if let Some(b) = r.bound {
            write!(f, " bound={b}")?;
        }
        if let Some(p) = r.policy {
            write!(f, " policy={p:?}")?;
        }
        if let Some(d) = &r.damage {
            write!(f, " damage={d}")?;
        }
        write!(f, " tick={}", self.tick)?;
        if let Some(k) = self.key {
            write!(f, " key={k}")?;
        }
        write!(f, " :: {}", self.detail)
    }
}

impl std::error::Error for Repro {}

impl FromStr for Repro {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (head, detail) = s.split_once(" :: ").unwrap_or((s, ""));
        let mut fields = head.split_whitespace();
        if fields.next() != Some("repro") {
            return Err("a repro line starts with `repro`".into());
        }
        let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
        for tok in fields {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad field `{tok}`"))?;
            kv.insert(k, v);
        }
        let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing `{k}`"));
        let num = |k: &str| -> Result<u64, String> {
            let v = get(k)?;
            match v.strip_prefix("0x") {
                Some(h) => u64::from_str_radix(h, 16),
                None => v.parse(),
            }
            .map_err(|e| format!("{k}: {e}"))
        };
        let policy = match kv.get("policy") {
            None => None,
            Some(&"Reject") => Some(LatenessPolicy::Reject),
            Some(&"Fold") => Some(LatenessPolicy::Fold),
            Some(p) => return Err(format!("unknown policy `{p}`")),
        };
        Ok(Repro {
            run: Box::new(RunId {
                case: get("case")?.to_string(),
                family: get("family")?.to_string(),
                seed: num("seed")?,
                n: num("n")? as usize,
                bound: kv.contains_key("bound").then(|| num("bound")).transpose()?,
                policy,
                damage: kv.get("damage").map(|d| d.parse()).transpose()?,
            }),
            tick: num("tick")?,
            key: kv.contains_key("key").then(|| num("key")).transpose()?,
            detail: detail.to_string(),
        })
    }
}

/// Judges `ans` against the oracle's `kind` truth at `t`.
fn judge(kind: TruthKind, oracle: &DynOracle, t: Time, mut ans: Answer) -> (f64, bool) {
    let truth = match kind {
        TruthKind::Sum => oracle.decayed_sum(t),
        TruthKind::Average => oracle.decayed_average(t).unwrap_or(0.0),
        TruthKind::Variance { budget } => {
            if !ans.envelope.bound.is_bounded() {
                // The absolute budget, as equal under / over terms.
                let b = budget * oracle.decayed_sum_of_squares(t);
                let e = ans.envelope;
                ans.envelope = Envelope {
                    bound: ErrorBound::exact(),
                    under: e.under + b,
                    over: e.over + b,
                };
            }
            oracle.decayed_variance(t)
        }
    };
    (truth, ans.admits(truth))
}

/// Replays `events` into `sut` and a fresh truth built from `oracle`,
/// in lock-step, judging every answer. Events before `start` feed the
/// truth only — the system already holds them (a recovered store
/// resuming mid-stream). Panics anywhere in the system are caught and
/// reported as a [`Repro`] at the tick being replayed.
pub fn drive(
    sut: &mut dyn Sut,
    oracle: &dyn Fn() -> DynOracle,
    kind: TruthKind,
    events: &[Event],
    start: usize,
    run: &RunId,
) -> Result<Stats, Repro> {
    let mut tick: Time = 0;
    let mut key: Option<u64> = None;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut whole = oracle();
        let mut keys: BTreeMap<u64, DynOracle> = BTreeMap::new();
        let mut stats = Stats::default();
        for (i, ev) in events.iter().enumerate() {
            tick = ev.time();
            let live = i >= start;
            let (t, keyed) = match ev {
                Event::Query(t) => (*t, false),
                Event::QueryKeys(t) => (*t, true),
                _ => {
                    let counts = !live || sut.ingest(ev).map_err(|e| (None, e))?;
                    if counts {
                        match ev {
                            Event::Observe(t, f) => whole.observe(*t, *f),
                            Event::Batch(items) => whole.observe_batch(items),
                            Event::Keyed(items) => {
                                for &(k, t, f) in items {
                                    keys.entry(k).or_insert_with(oracle).observe(t, f);
                                    whole.observe(t, f);
                                }
                            }
                            Event::Advance(t) => StreamAggregate::advance(&mut whole, *t),
                            Event::Arrive { t, f, .. } => whole.observe_late(*t, *f),
                            _ => {}
                        }
                    }
                    continue;
                }
            };
            if !live {
                continue;
            }
            stats.queries += 1;
            let judged: Vec<(Option<u64>, &DynOracle, TruthKind)> = if keyed {
                keys.iter()
                    .map(|(&k, o)| (Some(k), o, TruthKind::Sum))
                    .collect()
            } else {
                vec![(None, &whole, kind)]
            };
            for (k, o, kind) in judged {
                key = k;
                let ans = match k {
                    Some(k) => sut.query_key(k, t),
                    None => sut.query(t),
                }
                .map_err(|e| (k, e))?;
                let (truth, ok) = judge(kind, o, t, ans);
                stats.checks += 1;
                stats.degraded += usize::from(ans.degraded);
                if truth.abs() > 1e-9 {
                    let rel = (ans.value - truth).abs() / truth.abs();
                    stats.max_rel_err = stats.max_rel_err.max(rel);
                }
                if !ok {
                    let e = ans.envelope;
                    return Err((
                        k,
                        format!(
                            "answer {:.9e} outside its envelope [-{}, +{}] \
                             - {:e} / + {:e} around truth {truth:.9e}{}",
                            ans.value,
                            e.bound.lower,
                            e.bound.upper,
                            e.under,
                            e.over,
                            if ans.degraded { " (degraded)" } else { "" }
                        ),
                    ));
                }
            }
            key = None;
        }
        sut.finish(&mut stats).map_err(|e| (None, e))?;
        Ok(stats)
    }));
    match outcome {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err((k, detail))) => Err(Repro::new(run, tick, k, detail)),
        Err(payload) => Err(Repro::new(
            run,
            tick,
            key,
            format!("panicked: {}", panic_message(&*payload)),
        )),
    }
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
