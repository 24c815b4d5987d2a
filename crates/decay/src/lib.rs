//! Decay functions for time-decaying stream aggregation.
//!
//! This crate implements the decay-function model of Cohen & Strauss,
//! *"Maintaining Time-Decaying Stream Aggregates"* (PODS 2003). A decay
//! function is a non-increasing `g(x) >= 0` defined for ages `x >= 0`; at
//! current time `T`, a data item observed at time `t` carries weight
//! `g(T - t)`.
//!
//! The families discussed by the paper are all provided:
//!
//! * [`Exponential`] — `g(x) = exp(-λx)` (EXPD, paper §3.1),
//! * [`SlidingWindow`] — `g(x) = 1` for `x <= W`, else `0` (SLIWIN, §3.2),
//! * [`Polynomial`] — `g(x) = x^{-α}` (POLYD, §3.3),
//! * [`LogDecay`] — `g(x) = 1/ln(e + x/s)`, the sub-polynomial family
//!   the paper's §5 notes WBMH handles in sub-logarithmic buckets,
//! * [`ShiftedPolynomial`] — `g(x) = (x + s)^{-α}`, a POLYD variant that is
//!   finite at age zero,
//! * [`PolyExponential`] — `g(x) = x^k e^{-λx} / k!` (§3.4),
//! * [`Constant`] — `g(x) = 1` (the landmark / no-decay baseline),
//! * [`TableDecay`] and [`ClosureDecay`] — arbitrary user decays,
//! * combinators [`Scaled`], [`SumOf`], [`ProductOf`], [`MaxOf`].
//!
//! Two structural properties drive algorithm selection downstream:
//!
//! 1. the **horizon** `N(g) = max { x : g(x) > 0 }` (paper §2.3), and
//! 2. **ratio monotonicity**: whether `g(x) / g(x + 1)` is non-increasing
//!    in `x` (paper §5) — the applicability condition for weight-based
//!    merging histograms (WBMH).
//!
//! [`regions::RegionSchedule`] computes the WBMH region boundaries
//! `b_1, b_2, ...` of paper §5 from any decay function; they depend only on
//! `(g, ε)` and the current time, never on the stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod checkpoint;
pub mod combinators;
pub mod exponential;
pub mod func;
pub mod polyexp;
pub mod polynomial;
pub mod properties;
pub mod regions;
pub mod sliding;
pub mod soa;
pub mod storage;
pub mod table;

pub use aggregate::{Envelope, ErrorBound, StreamAggregate};
pub use checkpoint::{Checkpoint, RestoreError};
pub use combinators::{MaxOf, ProductOf, Scaled, SumOf};
pub use exponential::Exponential;
pub use func::{DecayClass, DecayFunction, Time};
pub use polyexp::PolyExponential;
pub use polynomial::{LogDecay, Polynomial, ShiftedPolynomial};
pub use regions::RegionSchedule;
pub use sliding::SlidingWindow;
pub use soa::{forward_weights, BucketColumns, ColumnsView};
pub use storage::StorageAccounting;
pub use table::{ClosureDecay, Constant, TableDecay};
