//! Differential conformance harness for the workspace's time-decayed
//! summaries (Cohen & Strauss, PODS 2003): one lock-step certifier
//! that checks the paper's (1±ε) envelopes under every disturbance the
//! serving stack adds, alone or stacked.
//!
//! * [`oracle`] — brute-force references that retain every `(t_i, f_i)`
//!   and evaluate `Σ f_i · g(T − t_i)` directly: ground truth for
//!   decayed sum/count/average/variance, L_p norms, and the
//!   selection/quantile distributions of §7.
//! * [`scenario`] — deterministic, seeded stream families (uniform,
//!   bursty, long-silence, boundary-aligned, the Theorem 2 adversarial
//!   bursts, batch-boundary stressors) and out-of-arrival-order
//!   families (tail skew, watermark knife edges). No wall clock: a
//!   `(family, seed, n)` triple always reproduces the same stream.
//! * [`certify`] — the certifier: [`drive`] replays an [`Event`] stream
//!   into a system under test ([`Sut`]) and the exact oracle in
//!   lock-step and judges every answer by one rule, its relative
//!   envelope plus an additive slack. The first violation becomes a
//!   [`Repro`] whose one-line `Display` parses back through `FromStr`.
//! * [`adapters`] — the disturbances as systems under test: shard
//!   split and merge (§6), a supervised engine with a seeded worker
//!   fault, a bounded-lateness reorder stage, a durable store killed
//!   and damaged at every byte ([`adapters::crash_sweep`]), and a keyed
//!   registry with per-key truth. Adapters nest, so axes stack.
//! * [`matrix`] — every case as a row ([`Case`]): the in-order, fault,
//!   lateness, recovery and registry matrices, the stacked rows (an
//!   evicting keyed registry behind a keyed WAL killed at every byte;
//!   a fault under a reorder stage), and the seeded-bug canaries.
//!   [`replay`] re-runs the row a repro line names; the `repro` binary
//!   does the same from a pasted line.
//!
//! Run tier-1 with `cargo test -p td-conformance`; the exhaustive
//! sweeps (more seeds, longer streams, kill at every byte) are behind
//! `cargo test -p td-conformance -- --ignored`. Replay a failure with
//! `cargo run -p td-conformance --bin repro -- '<repro line>'`.

pub mod adapters;
pub mod certify;
pub mod matrix;
pub mod oracle;
pub mod scenario;

pub use adapters::{Damages, FaultInjector, FaultMode, FaultPlan, Plain};
pub use certify::{
    drive, Answer, Damage, DamageKind, DynAggregate, DynOracle, Event, Repro, RunId, Stats, Sut,
    TruthKind,
};
pub use matrix::{
    all_cases, canaries, default_fault_matrix, default_lateness_matrix, default_matrix,
    default_recovery_matrix, default_registry_matrix, replay, stacked_cases, Case, Report, Stream,
    Suite, Sweep,
};
pub use oracle::{CoordOracle, Oracle};
pub use scenario::{
    catalogue, has_late_arrivals, late_arrival_catalogue, out_of_order, Arrival, LateStream, Op,
    Rng, Scenario, SkewExtent,
};
