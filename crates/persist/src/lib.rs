//! # td-persist — decayed-aggregate state that survives process death
//!
//! The paper's summaries compress an unbounded past; if the process
//! dies, that past cannot be rebuilt from the stream. This crate is
//! the persistence tier: an append-only segment WAL of ingest calls
//! plus a checkpoint store of `Checkpoint` envelopes, glued together
//! by a manifest that makes "newest valid state" deterministic.
//!
//! * [`Storage`] — the tiny object-safe backend trait, with
//!   [`DirStorage`] (real files + fsync) and [`MemStorage`] (a test
//!   double that models the written-vs-durable split and can replay a
//!   crash at any byte).
//! * [`wal`] — record framing (format 2): length-prefixed,
//!   XXH64-checksummed frames of varint-packed entries (about 3 bytes
//!   an entry for nearby ticks and small values) in rotated segments,
//!   with the torn-tail vs torn-record damage policy. Format-1 records
//!   are refused as `RestoreError::Version(1)`.
//! * [`store`] — [`DurableStore`]: group-committed appends behind a
//!   [`SyncPolicy`], each shard's replay bookkeeping, atomic
//!   checkpoint + manifest writes, WAL truncation, the deterministic
//!   [`recover`] algorithm, and the one restore-and-replay loop
//!   ([`DurableStore::open`]) both durable engines recover through,
//!   each passing its own call-shape rule and getting a
//!   [`RecoveryReport`] back.
//! * [`durable`] — [`DurableAggregate`]: wrap any `Checkpoint` backend
//!   so every ingest call is logged before it is applied, and
//!   reopening the store replays history into a bit-identical state.
//!
//! The whole tier is certified by the conformance crate's
//! kill-at-any-byte sweep: truncation or single-bit corruption at
//! every persisted byte offset must yield either an oracle-matching
//! recovered state or a typed `RestoreError` — never a silently wrong
//! answer.

pub mod durable;
pub mod storage;
pub mod store;
pub mod wal;

pub use durable::{DurabilityOptions, DurableAggregate, KeyedCheckpoint};
pub use storage::{DirStorage, MemStorage, Storage};
pub use store::{
    keyed_entry_error, recover, DurableStore, Recovered, RecoveryReport, ShardCheckpoint,
    StoreOptions, SyncPolicy, PERSIST_FORMAT_VERSION,
};
pub use wal::{WalEntry, WalRecord};
