//! [`DurableAggregate`]: one backend + one [`DurableStore`] — the
//! single-summary durability wrapper.
//!
//! Every ingest *call* is logged as exactly one WAL record before it
//! touches the in-memory state, and recovery replays surviving records
//! through the same call shape (a 1-entry record through
//! `observe`/`advance`, an n-entry record through `observe_batch`).
//! Because every backend's batched ingest is bit-identical to its
//! sequential ingest only *per call pattern* (amortization decisions
//! key off batch boundaries), reproducing the call shape is what makes
//! two recoveries from the same bytes — and a recovered process vs a
//! never-crashed twin — `to_bits`-identical, not merely close. That
//! call-shape rule is all this wrapper adds to recovery: the store's
//! one restore-and-replay loop ([`DurableStore::open`]) runs it, and
//! the store keeps the replay bookkeeping it stamps into checkpoints.
//!
//! Ingest methods are fallible (`Result<_, RestoreError>`): a summary
//! that cannot persist its history must say so at the call site, not
//! panic inside a trait method with no error channel. The read side
//! (`query`, `error_bound`) is infallible and hits only memory.

use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{ErrorBound, Time};

use crate::storage::Storage;
use crate::store::{keyed_entry_error, DurableStore, RecoveryReport, StoreOptions};
use crate::wal::{WalEntry, WalRecord};

/// Tuning for a [`DurableAggregate`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// WAL segment size and fsync policy.
    pub store: StoreOptions,
    /// Write a checkpoint (and truncate the superseded WAL tail) every
    /// this many logged records. Larger = cheaper ingest, longer
    /// replay after a crash.
    pub checkpoint_every_records: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            store: StoreOptions::default(),
            checkpoint_every_records: 64,
        }
    }
}

/// A checkpointable backend that also ingests *keyed* observations —
/// the contract `td-registry`'s `KeyedRegistry` fulfills so a whole
/// multi-tenant registry can sit behind one WAL + one segmented
/// checkpoint. Keyed ingest is logged as kind-2 WAL entries; recovery
/// replays them with the same call shape through these methods.
pub trait KeyedCheckpoint: Checkpoint {
    /// Records weight `f` for `key` at time `t`.
    fn observe_keyed(&mut self, key: u64, t: Time, f: u64);

    /// Records a time-sorted keyed batch (one ingest call).
    fn observe_keyed_batch(&mut self, items: &[(u64, Time, u64)]) {
        for &(key, t, f) in items {
            self.observe_keyed(key, t, f);
        }
    }
}

/// A decayed-stream summary whose history survives process death. The
/// store keeps the replay bookkeeping; this wrapper keeps only the
/// checkpoint cadence.
pub struct DurableAggregate<B: Checkpoint> {
    inner: B,
    store: DurableStore,
    opts: DurabilityOptions,
    records_since_ckpt: u64,
}

impl<B: Checkpoint> DurableAggregate<B> {
    /// Opens (or creates) a durable summary on `storage`. `make`
    /// builds the backend with its configuration — configuration is
    /// never persisted (matching the `Checkpoint` contract), so the
    /// caller must construct the same backend it originally ran.
    ///
    /// Recovery: [`DurableStore::open`] restores the newest valid
    /// checkpoint into the fresh backend and replays the surviving WAL
    /// tail in call-shape order. Any damage maps to a typed
    /// [`RestoreError`], and so does a keyed (kind-2) entry — an `Ok`
    /// return is certified replay-complete up to
    /// [`RecoveryReport::entries_applied`].
    pub fn open(
        storage: Box<dyn Storage>,
        opts: DurabilityOptions,
        make: impl FnOnce() -> B,
    ) -> Result<(Self, RecoveryReport), RestoreError> {
        let mut shape = CallShape::default();
        Self::open_with(storage, opts, make, |inner, rec| {
            shape.replay(inner, rec, |_, _| Err(keyed_entry_error()))
        })
    }

    fn open_with(
        storage: Box<dyn Storage>,
        opts: DurabilityOptions,
        make: impl FnOnce() -> B,
        replay: impl FnMut(&mut B, &WalRecord) -> Result<(), RestoreError>,
    ) -> Result<(Self, RecoveryReport), RestoreError> {
        let mut shards = [make()];
        let (store, report) = DurableStore::open(storage, opts.store, &mut shards, replay)?;
        let [inner] = shards;
        let durable = DurableAggregate {
            inner,
            store,
            opts,
            records_since_ckpt: 0,
        };
        Ok((durable, report))
    }

    /// Logs `entries` as one WAL record, applies them through `apply`,
    /// then runs the cadence checkpoint — strictly **after** the record
    /// is applied: a checkpoint claiming `covered_seq = N` must embody
    /// all N records, or recovery would silently drop record N's effect.
    fn logged<I>(&mut self, entries: I, apply: impl FnOnce(&mut B)) -> Result<(), RestoreError>
    where
        I: ExactSizeIterator<Item = WalEntry>,
    {
        self.store.append_record(0, entries)?;
        self.records_since_ckpt += 1;
        apply(&mut self.inner);
        if self.records_since_ckpt >= self.opts.checkpoint_every_records.max(1) {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    /// Logs then applies one observation. An `Err` from the append
    /// means the observation was **not** applied — the summary never
    /// runs ahead of its log. An `Err` from the post-apply cadence
    /// checkpoint leaves the observation applied *and* logged (the
    /// state is recoverable; only the WAL-truncation maintenance
    /// failed).
    pub fn observe(&mut self, t: Time, f: u64) -> Result<(), RestoreError> {
        self.logged([WalEntry::Observe(t, f)].into_iter(), |b| b.observe(t, f))
    }

    /// Logs then applies a sorted batch as one WAL record. An empty
    /// batch logs nothing. A 1-item batch is logged and applied as a
    /// plain [`observe`](Self::observe) call so replay reproduces the
    /// exact call shape. Error contract as [`observe`](Self::observe).
    pub fn observe_batch(&mut self, items: &[(Time, u64)]) -> Result<(), RestoreError> {
        match items {
            [] => Ok(()),
            &[(t, f)] => self.observe(t, f),
            _ => {
                let entries = items.iter().map(|&(t, f)| WalEntry::Observe(t, f));
                self.logged(entries, |b| b.observe_batch(items))
            }
        }
    }

    /// Logs then applies a clock advance. Error contract as
    /// [`observe`](Self::observe).
    pub fn advance(&mut self, t: Time) -> Result<(), RestoreError> {
        self.logged([WalEntry::Advance(t)].into_iter(), |b| b.advance(t))
    }

    /// The decayed-sum estimate at `t` (memory only, infallible).
    pub fn query(&self, t: Time) -> f64 {
        self.inner.query(t)
    }

    /// The backend's self-reported error envelope.
    pub fn error_bound(&self) -> ErrorBound {
        self.inner.error_bound()
    }

    /// Writes a checkpoint covering everything logged so far and
    /// truncates the superseded WAL tail.
    pub fn checkpoint_now(&mut self) -> Result<(), RestoreError> {
        self.store
            .save_shard_checkpoint(0, &self.inner.save_checkpoint())?;
        self.records_since_ckpt = 0;
        Ok(())
    }

    /// Forces all logged records durable regardless of the sync
    /// policy (e.g. before a planned shutdown).
    pub fn flush(&mut self) -> Result<(), RestoreError> {
        self.store.flush()
    }

    /// Flattened ingest entries the in-memory state reflects.
    pub fn entries_applied(&self) -> u64 {
        self.store.entries_applied(0)
    }

    /// Records logged since the last checkpoint truncated the WAL —
    /// the replay a restart would pay right now.
    pub fn wal_tail_len(&self) -> u64 {
        self.store.wal_tail_len()
    }

    /// Read access to the wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps the in-memory summary, abandoning the store handle.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: KeyedCheckpoint> DurableAggregate<B> {
    /// [`open`](Self::open) for keyed backends: recovery additionally
    /// replays kind-2 (keyed) WAL entries through
    /// [`KeyedCheckpoint::observe_keyed`] /
    /// [`KeyedCheckpoint::observe_keyed_batch`] with the original call
    /// shape. Un-keyed histories open fine too (the keyed API is a
    /// superset).
    pub fn open_keyed(
        storage: Box<dyn Storage>,
        opts: DurabilityOptions,
        make: impl FnOnce() -> B,
    ) -> Result<(Self, RecoveryReport), RestoreError> {
        let mut shape = CallShape::default();
        Self::open_with(storage, opts, make, |inner, rec| {
            shape.replay(inner, rec, |inner, items| {
                match *items {
                    [(key, t, f)] => inner.observe_keyed(key, t, f),
                    _ => inner.observe_keyed_batch(items),
                }
                Ok(())
            })
        })
    }

    /// Logs then applies one keyed observation. Error contract as
    /// [`observe`](Self::observe).
    pub fn observe_keyed(&mut self, key: u64, t: Time, f: u64) -> Result<(), RestoreError> {
        self.logged([WalEntry::ObserveKeyed(key, t, f)].into_iter(), |b| {
            b.observe_keyed(key, t, f)
        })
    }

    /// Logs then applies a time-sorted keyed batch as one WAL record.
    /// A 1-item batch is logged and applied as a plain
    /// [`observe_keyed`](Self::observe_keyed) call so replay
    /// reproduces the exact call shape. Error contract as
    /// [`observe`](Self::observe).
    pub fn observe_keyed_batch(&mut self, items: &[(u64, Time, u64)]) -> Result<(), RestoreError> {
        match items {
            [] => Ok(()),
            &[(key, t, f)] => self.observe_keyed(key, t, f),
            _ => {
                let entries = items
                    .iter()
                    .map(|&(key, t, f)| WalEntry::ObserveKeyed(key, t, f));
                self.logged(entries, |b| b.observe_keyed_batch(items))
            }
        }
    }
}

/// Replays records with the call shape that logged them, gathering
/// each record's items into buffers reused across records.
#[derive(Default)]
struct CallShape {
    observed: Vec<(Time, u64)>,
    keyed: Vec<(u64, Time, u64)>,
}

impl CallShape {
    /// One observe is one `observe` call, an all-observe run one
    /// `observe_batch`, an all-keyed run one `keyed` call (which sees
    /// a 1-item slice for a single keyed entry). Mixed records are
    /// never written today; they replay entry by entry rather than
    /// refusing.
    fn replay<B: Checkpoint>(
        &mut self,
        inner: &mut B,
        rec: &WalRecord,
        mut keyed: impl FnMut(&mut B, &[(u64, Time, u64)]) -> Result<(), RestoreError>,
    ) -> Result<(), RestoreError> {
        self.observed.clear();
        self.keyed.clear();
        for e in &rec.entries {
            match *e {
                WalEntry::Observe(t, f) => self.observed.push((t, f)),
                WalEntry::ObserveKeyed(key, t, f) => self.keyed.push((key, t, f)),
                WalEntry::Advance(_) => {}
            }
        }
        let n = rec.entries.len();
        if self.observed.len() == n {
            match *self.observed {
                [] => {}
                [(t, f)] => inner.observe(t, f),
                _ => inner.observe_batch(&self.observed),
            }
        } else if self.keyed.len() == n {
            keyed(inner, &self.keyed)?;
        } else {
            for e in &rec.entries {
                match *e {
                    WalEntry::Observe(t, f) => inner.observe(t, f),
                    WalEntry::Advance(t) => inner.advance(t),
                    WalEntry::ObserveKeyed(key, t, f) => keyed(inner, &[(key, t, f)])?,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use td_counters::ExactDecayedSum;
    use td_decay::Exponential;

    fn make() -> ExactDecayedSum<Exponential> {
        ExactDecayedSum::new(Exponential::new(0.05))
    }

    fn opens(
        mem: &MemStorage,
        opts: DurabilityOptions,
    ) -> (
        DurableAggregate<ExactDecayedSum<Exponential>>,
        RecoveryReport,
    ) {
        DurableAggregate::open(Box::new(mem.clone()), opts, make).unwrap()
    }

    #[test]
    fn crash_and_recover_matches_never_crashed_twin() {
        let mem = MemStorage::new();
        let opts = DurabilityOptions {
            checkpoint_every_records: 5,
            ..DurabilityOptions::default()
        };
        let (mut durable, stats) = opens(&mem, opts);
        assert_eq!(stats.entries_applied, 0);

        let mut twin = make();
        for i in 0..23u64 {
            let t = i * 3;
            durable.observe(t, i + 1).unwrap();
            twin.observe(t, i + 1);
        }
        durable.observe_batch(&[(70, 5), (70, 6), (71, 7)]).unwrap();
        twin.observe_batch(&[(70, 5), (70, 6), (71, 7)]);
        durable.advance(80).unwrap();
        twin.advance(80);

        // The process dies; only synced bytes survive.
        let (recovered, stats) = opens(&mem.crashed(), opts);
        assert_eq!(stats.entries_applied, 23 + 3 + 1);
        assert_eq!(stats.checkpoints_restored, 1);
        assert_eq!(
            recovered.query(90).to_bits(),
            twin.query(90).to_bits(),
            "recovered state must be bit-identical to the never-crashed twin"
        );
    }

    #[test]
    fn two_recoveries_from_the_same_bytes_are_bit_identical() {
        let mem = MemStorage::new();
        let opts = DurabilityOptions::default();
        let (mut durable, _) = opens(&mem, opts);
        for i in 0..40u64 {
            durable.observe(i, i % 7 + 1).unwrap();
        }
        let dead = mem.crashed();
        let (a, sa) = opens(&dead, opts);
        let (b, sb) = opens(&dead, opts);
        assert_eq!(sa, sb);
        for t in [40u64, 55, 100] {
            assert_eq!(a.query(t).to_bits(), b.query(t).to_bits());
        }
    }

    #[test]
    fn failed_append_leaves_state_unchanged() {
        let mem = MemStorage::new();
        let (mut durable, _) = opens(&mem, DurabilityOptions::default());
        durable.observe(1, 10).unwrap();
        let before = durable.query(5);
        mem.set_fail_writes(Some(std::io::ErrorKind::StorageFull));
        let err = durable.observe(2, 99).unwrap_err();
        assert_eq!(err, RestoreError::Io(std::io::ErrorKind::StorageFull));
        assert_eq!(
            durable.query(5).to_bits(),
            before.to_bits(),
            "a rejected observe must not leak into the summary"
        );
        mem.set_fail_writes(None);
        durable.observe(2, 99).unwrap();
    }

    #[test]
    fn checkpoint_cadence_bounds_the_wal_tail() {
        let mem = MemStorage::new();
        let opts = DurabilityOptions {
            checkpoint_every_records: 8,
            ..DurabilityOptions::default()
        };
        let (mut durable, _) = opens(&mem, opts);
        for i in 0..100u64 {
            durable.observe(i, 1).unwrap();
            assert!(
                durable.wal_tail_len() <= 8,
                "tail {} after {} records",
                durable.wal_tail_len(),
                i + 1
            );
        }
    }

    #[test]
    fn recovery_reports_the_crash_tail_position() {
        let mem = MemStorage::new();
        let (mut durable, _) = opens(&mem, DurabilityOptions::default());
        for i in 0..4u64 {
            durable.observe(i, 2).unwrap();
        }
        // Tear the last record: recovery keeps 3, reports the tear.
        let files = mem.crashed().durable_files();
        let (wal_name, wal_bytes) = files
            .iter()
            .find(|(n, _)| n.starts_with("wal-"))
            .expect("one segment");
        let cut = mem.truncated_at(wal_name, wal_bytes.len() - 3);
        let (recovered, stats) = opens(&cut, DurabilityOptions::default());
        assert_eq!(stats.entries_applied, 3);
        assert!(stats.crash_tail.is_some());
        let mut twin = make();
        for i in 0..3u64 {
            twin.observe(i, 2);
        }
        assert_eq!(recovered.query(10).to_bits(), twin.query(10).to_bits());
    }
}
