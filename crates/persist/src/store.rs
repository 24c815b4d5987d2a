//! The durable store: segment WAL + checkpoint files + manifest, with
//! deterministic recovery.
//!
//! # On-disk layout (flat namespace of one [`Storage`])
//!
//! * `wal-<index:012>.seg` — append-only segments of WAL records
//!   (format in [`crate::wal`]); rotated once a segment reaches
//!   [`StoreOptions::segment_bytes`]. The old segment is fsynced
//!   *before* the first append to its successor, so a crash tail can
//!   only ever sit in the **last** segment — damage anywhere else is
//!   corruption and maps to [`RestoreError::TornRecord`].
//! * `ckpt-<shard:06>-<seq:012>.tdcp` — one TDCP-framed checkpoint
//!   wrapper per shard: format version, shard index, the global
//!   sequence number the state covers, the flattened-entry count it
//!   reflects, and the backend's own checksummed envelope nested
//!   inside. Written with `write_atomic`, so a crash leaves the old
//!   file or the new one, never a blend.
//! * `manifest.tdcp` — TDCP-framed map shard → newest checkpoint
//!   sequence, also atomically replaced. The manifest makes "newest
//!   valid" deterministic: recovery loads exactly what it names and
//!   only falls back to older candidates (guarded by the gap check
//!   below) when the named file is damaged.
//!
//! # Recovery algorithm
//!
//! 1. Read every segment in index order. A damaged record in the last
//!    segment's tail is a crash tail (reading stops, position is
//!    reported); anywhere else it is `TornRecord`.
//! 2. Parse the manifest; per shard, load the checkpoint it names,
//!    falling back to older on-disk candidates if that file is
//!    damaged (keeping the first error in case no candidate loads).
//! 3. **Gap check:** surviving record sequences must be contiguous,
//!    and every shard's covered sequence must reach the oldest
//!    surviving record (`covered ≥ first_seq − 1`). This is what makes
//!    fallback sound: if the WAL tail superseded by the *newest*
//!    checkpoint was already truncated, an older checkpoint cannot be
//!    silently patched over the hole — recovery refuses with a typed
//!    error instead.
//! 4. Replay ([`DurableStore::open`], the one restore-and-replay
//!    loop): restore each shard's envelope, then walk the surviving
//!    records once, in sequence order, handing each record with
//!    `seq > covered` to its shard through the engine's call-shape
//!    closure. The same walk seeds each shard's replay bookkeeping.
//!
//! # Crash-consistency argument
//!
//! Appends are acknowledged at the [`SyncPolicy`] boundary; a crash
//! loses at most the unsynced suffix, which reading maps to an honest
//! crash tail (callers see exactly how much history survived via
//! covered sequences + replay counts — never a silently shortened
//! answer). Checkpoint and manifest writes are atomic replaces ordered
//! checkpoint → manifest → cleanup, so every crash point leaves either
//! the old consistent view or the new one. Segment deletion runs last
//! and only removes segments whose every record is covered by **all**
//! shards' manifest-visible checkpoints.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use td_decay::checkpoint::{Checkpoint, CheckpointReader, CheckpointWriter, RestoreError};
use td_decay::Time;

use crate::storage::Storage;
use crate::wal::{
    encode_record, parse_segment_name, read_segment, segment_name, TailStop, WalEntry, WalRecord,
};

/// On-disk format version pinned into every checkpoint wrapper and the
/// manifest. Bump on any layout change; recovery refuses newer
/// versions with [`RestoreError::Version`] instead of guessing.
pub const PERSIST_FORMAT_VERSION: u32 = 2;

/// TDCP tag of the per-shard checkpoint wrapper envelope.
const CKPT_WRAPPER_TAG: u8 = 0xD7;
/// TDCP tag of the manifest envelope.
const MANIFEST_TAG: u8 = 0xD8;

const MANIFEST_NAME: &str = "manifest.tdcp";

/// When appended WAL records are made durable (`fsync`).
///
/// Group commit: records are always *written* immediately; the policy
/// only sets the durability boundary, i.e. how much acknowledged
/// ingest a crash may lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record — loses nothing, pays an fsync per
    /// ingest call.
    EveryRecord,
    /// Sync after every `n` records — a crash loses at most the last
    /// `n − 1` records.
    EveryN(u64),
    /// Sync whenever logged stream time has advanced by at least this
    /// many ticks since the last sync — bounds loss by stream time
    /// rather than record count.
    IntervalTicks(u64),
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Rotate to a fresh WAL segment once the current one reaches this
    /// many bytes.
    pub segment_bytes: u64,
    /// The fsync batching policy.
    pub sync: SyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::EveryRecord,
        }
    }
}

/// A shard's recovered checkpoint: the nested backend envelope plus
/// the replay bookkeeping pinned next to it. Only the store builds
/// one, when it reads a checkpoint back; the bookkeeping it carries is
/// what [`DurableStore::save_shard_checkpoint`] stamped from the
/// shard's own.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    /// Global WAL sequence the state covers: every record of this
    /// shard with `seq <= covered_seq` is already reflected.
    pub covered_seq: u64,
    /// Flattened ingest entries the state reflects — recovery reports
    /// `entries_applied` totals from this so callers know exactly how
    /// much history the restored state embodies.
    pub entries_applied: u64,
    /// The newest stream tick the state has seen — lets a recovered
    /// engine resume its clock high-water mark without decoding the
    /// backend envelope.
    pub last_tick: Time,
    /// The backend's own TDCP envelope (as produced by
    /// `Checkpoint::save_checkpoint`).
    pub envelope: Vec<u8>,
}

/// One shard's replay bookkeeping: how much logged history its state
/// reflects. Appends advance it, checkpoints stamp it, and
/// [`DurableStore::open`] seeds it from the checkpoint plus the
/// replayed tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Progress {
    /// Global seq of the shard's newest logged record: the cover point
    /// of its next checkpoint.
    covered_seq: u64,
    /// Flattened ingest entries the state reflects.
    entries_applied: u64,
    /// The newest tick the shard has logged.
    last_tick: Time,
}

impl Progress {
    /// Accounts one logged record of `entries` entries, the largest
    /// tick among them `max_tick`.
    fn advance(&mut self, seq: u64, entries: u64, max_tick: Option<Time>) {
        self.covered_seq = seq;
        self.entries_applied += entries;
        if let Some(t) = max_tick {
            self.last_tick = self.last_tick.max(t);
        }
    }
}

/// What [`DurableStore::open`] found and rebuilt: the recovery report
/// of every durable engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards restored from an on-disk checkpoint (the others replayed
    /// from empty).
    pub checkpoints_restored: usize,
    /// WAL records replayed across all shards.
    pub records_replayed: u64,
    /// Flattened ingest entries the recovered state reflects, over
    /// all shards — the caller's position in the original stream.
    pub entries_applied: u64,
    /// `(segment, byte offset)` where a torn trailing write was
    /// dropped, if the process died mid-append. Honest-loss report:
    /// entries logged past this point were not yet durable.
    pub crash_tail: Option<(u64, u64)>,
    /// The newest tick any shard has logged: the clock high-water mark
    /// a recovered engine resumes at (0 for a fresh store).
    pub resumed_at: Time,
}

/// The read-side result of [`recover`]: everything needed to rebuild
/// in-memory state, plus bookkeeping the write path resumes from.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Per-shard checkpoint (index = shard), `None` if the shard has
    /// never checkpointed.
    pub checkpoints: Vec<Option<ShardCheckpoint>>,
    /// Every surviving WAL record, in sequence order. Replay for shard
    /// `i` filters `rec.shard == i && rec.seq > covered_seq(i)`.
    pub records: Vec<WalRecord>,
    /// Where reading stopped early: `(segment index, byte offset)` of
    /// a crash tail in the final segment, if any. Honest-loss report —
    /// everything before it was recovered.
    pub crash_tail: Option<(u64, u64)>,
    /// Largest sequence number in use (surviving records and covered
    /// sequences both count); appends resume at `last_seq + 1`.
    pub last_seq: u64,
    /// `(segment index, max record seq or 0, intact byte length)` per
    /// surviving segment, in index order — write-path bookkeeping.
    pub segments: Vec<(u64, u64, u64)>,
}

impl Recovered {
    /// The records shard `i` must replay on top of its checkpoint, in
    /// sequence order.
    pub fn tail_for(&self, shard: u32) -> impl Iterator<Item = &WalRecord> {
        let covered = self.checkpoints[shard as usize]
            .as_ref()
            .map_or(0, |c| c.covered_seq);
        self.records
            .iter()
            .filter(move |r| r.shard == shard && r.seq > covered)
    }
}

fn ckpt_name(shard: u32, seq: u64) -> String {
    format!("ckpt-{shard:06}-{seq:012}.tdcp")
}

fn parse_ckpt_name(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix("ckpt-")?.strip_suffix(".tdcp")?;
    let (shard, seq) = rest.split_once('-')?;
    if shard.len() != 6 || seq.len() != 12 {
        return None;
    }
    Some((shard.parse().ok()?, seq.parse().ok()?))
}

fn encode_ckpt_wrapper(shard: u32, progress: &Progress, envelope: &[u8]) -> Vec<u8> {
    let mut w = CheckpointWriter::new(CKPT_WRAPPER_TAG);
    w.put_u32(PERSIST_FORMAT_VERSION);
    w.put_u32(shard);
    w.put_u64(progress.covered_seq);
    w.put_u64(progress.entries_applied);
    w.put_u64(progress.last_tick);
    w.put_bytes(envelope);
    w.seal()
}

fn decode_ckpt_wrapper(
    bytes: &[u8],
    shard: u32,
    seq: u64,
) -> Result<ShardCheckpoint, RestoreError> {
    let mut r = CheckpointReader::open(bytes, CKPT_WRAPPER_TAG)?;
    let version = r.get_u32()?;
    if version != PERSIST_FORMAT_VERSION {
        return Err(RestoreError::Version(
            version.min(u32::from(u16::MAX)) as u16
        ));
    }
    let got_shard = r.get_u32()?;
    let covered_seq = r.get_u64()?;
    let entries_applied = r.get_u64()?;
    let last_tick = r.get_u64()?;
    let envelope = r.get_bytes()?.to_vec();
    r.finish()?;
    if got_shard != shard || covered_seq != seq {
        return Err(RestoreError::Invariant(format!(
            "checkpoint file for shard {shard} seq {seq} claims shard {got_shard} seq {covered_seq}"
        )));
    }
    Ok(ShardCheckpoint {
        covered_seq,
        entries_applied,
        last_tick,
        envelope,
    })
}

fn encode_manifest(ckpt_seq: &[u64]) -> Vec<u8> {
    let mut w = CheckpointWriter::new(MANIFEST_TAG);
    w.put_u32(PERSIST_FORMAT_VERSION);
    w.put_u32(ckpt_seq.len() as u32);
    for &s in ckpt_seq {
        w.put_u64(s);
    }
    w.seal()
}

fn decode_manifest(bytes: &[u8]) -> Result<Vec<u64>, RestoreError> {
    let mut r = CheckpointReader::open(bytes, MANIFEST_TAG)?;
    let version = r.get_u32()?;
    if version != PERSIST_FORMAT_VERSION {
        return Err(RestoreError::Version(
            version.min(u32::from(u16::MAX)) as u16
        ));
    }
    let n = r.get_u32()?;
    let n = r.count(u64::from(n), 8)?;
    let mut seqs = Vec::with_capacity(n);
    for _ in 0..n {
        seqs.push(r.get_u64()?);
    }
    r.finish()?;
    Ok(seqs)
}

/// Read-side recovery over any [`Storage`]: parses segments, resolves
/// the newest valid checkpoint per shard, and runs the gap check. A
/// WAL record, checkpoint file or manifest for a shard at or past
/// `shard_count` is a typed [`RestoreError::Invariant`]. Pure — never
/// writes, so it can run against damaged test doubles.
pub fn recover(storage: &dyn Storage, shard_count: u32) -> Result<Recovered, RestoreError> {
    let names = storage.list().map_err(RestoreError::from)?;

    // --- segments, in index order ----------------------------------
    let mut seg_indices: Vec<u64> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
    seg_indices.sort_unstable();
    let mut records: Vec<WalRecord> = Vec::new();
    let mut crash_tail = None;
    let mut segments = Vec::with_capacity(seg_indices.len());
    let last_idx = seg_indices.last().copied();
    for &idx in &seg_indices {
        let bytes = storage
            .read(&segment_name(idx))
            .map_err(RestoreError::from)?;
        let read = read_segment(idx, &bytes)?;
        if let TailStop::CrashTail { offset } = read.tail {
            if Some(idx) != last_idx {
                // Bytes exist in later segments, so this damage cannot
                // be the crash tail: rotation fsyncs a segment before
                // its successor is born.
                return Err(RestoreError::TornRecord {
                    segment: idx,
                    offset,
                });
            }
            crash_tail = Some((idx, offset));
        }
        if let Some(r) = read.records.iter().find(|r| r.shard >= shard_count) {
            return Err(RestoreError::Invariant(format!(
                "WAL record {} is for shard {} but the store was opened with \
                 {shard_count} shards",
                r.seq, r.shard
            )));
        }
        let max_seq = read.records.last().map_or(0, |r| r.seq);
        segments.push((idx, max_seq, read.intact_len));
        records.extend(read.records);
    }

    // --- manifest ---------------------------------------------------
    let manifest = match storage.read(MANIFEST_NAME) {
        Ok(bytes) => match decode_manifest(&bytes) {
            Ok(seqs) => Some(seqs),
            // A newer format must refuse, not guess.
            Err(e @ RestoreError::Version(_)) => return Err(e),
            // Damaged manifest: fall back to scanning on-disk
            // candidates; the gap check keeps the fallback honest.
            Err(_) => None,
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };
    if let Some(seqs) = &manifest {
        if seqs.len() != shard_count as usize {
            return Err(RestoreError::Invariant(format!(
                "manifest lists {} shards but the store was opened with {shard_count}",
                seqs.len()
            )));
        }
    }

    // --- checkpoint candidates per shard ---------------------------
    let mut candidates: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for n in &names {
        if let Some((shard, seq)) = parse_ckpt_name(n) {
            if shard >= shard_count {
                return Err(RestoreError::Invariant(format!(
                    "checkpoint file for shard {shard} but the store was opened \
                     with {shard_count} shards"
                )));
            }
            candidates.entry(shard).or_default().push(seq);
        }
    }
    for seqs in candidates.values_mut() {
        seqs.sort_unstable_by(|a, b| b.cmp(a)); // newest first
    }

    let mut checkpoints: Vec<Option<ShardCheckpoint>> = Vec::new();
    for shard in 0..shard_count {
        let named = manifest.as_ref().map(|m| m[shard as usize]);
        let cands = candidates.get(&shard).cloned().unwrap_or_default();
        // Try the manifest-named seq first (when present and nonzero),
        // then every on-disk candidate newest-first.
        let mut order: Vec<u64> = Vec::new();
        if let Some(s) = named {
            if s != 0 {
                order.push(s);
            }
        }
        for s in cands {
            if !order.contains(&s) {
                order.push(s);
            }
        }
        let mut chosen = None;
        let mut first_err: Option<RestoreError> = None;
        for seq in &order {
            match storage.read(&ckpt_name(shard, *seq)) {
                Ok(bytes) => match decode_ckpt_wrapper(&bytes, shard, *seq) {
                    Ok(c) => {
                        chosen = Some(c);
                        break;
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    if first_err.is_none() {
                        first_err = Some(RestoreError::Io(std::io::ErrorKind::NotFound));
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        if chosen.is_none() {
            if let Some(e) = first_err {
                // The manifest (or the disk) promised a checkpoint and
                // none of the candidates is loadable: refuse with the
                // typed reason rather than silently starting empty.
                return Err(e);
            }
        }
        checkpoints.push(chosen);
    }

    // --- gap check --------------------------------------------------
    for pair in records.windows(2) {
        if pair[0].seq.checked_add(1) != Some(pair[1].seq) {
            return Err(RestoreError::Invariant(format!(
                "WAL sequence gap: record {} followed by {}",
                pair[0].seq, pair[1].seq
            )));
        }
    }
    if let Some(first) = records.first() {
        for (shard, ckpt) in checkpoints.iter().enumerate() {
            let covered = ckpt.as_ref().map_or(0, |c| c.covered_seq);
            if covered + 1 < first.seq {
                return Err(RestoreError::Invariant(format!(
                    "WAL gap: shard {shard} checkpoint covers seq {covered} but the \
                     oldest surviving WAL record is seq {} — records in between \
                     were truncated against a newer checkpoint that is no longer \
                     loadable",
                    first.seq
                )));
            }
        }
    }

    for (shard, ckpt) in checkpoints.iter().enumerate() {
        let base = ckpt.as_ref().map_or(0, |c| c.entries_applied);
        let logged: u64 = records
            .iter()
            .filter(|r| r.shard as usize == shard)
            .map(|r| r.entries.len() as u64)
            .sum();
        if base.checked_add(logged).is_none() {
            return Err(RestoreError::Invariant(format!(
                "shard {shard} checkpoint claims {base} entries applied, past any \
                 history the log can extend"
            )));
        }
    }

    let last_seq = records.last().map_or(0, |r| r.seq).max(
        checkpoints
            .iter()
            .flatten()
            .map(|c| c.covered_seq)
            .max()
            .unwrap_or(0),
    );

    Ok(Recovered {
        checkpoints,
        records,
        crash_tail,
        last_seq,
        segments,
    })
}

/// The typed refusal an un-keyed engine's replay returns for a keyed
/// (kind-2) entry: replaying it without its key would silently
/// collapse every key into one stream.
pub fn keyed_entry_error() -> RestoreError {
    RestoreError::Invariant(
        "WAL holds keyed (kind-2) entries; only DurableAggregate::open_keyed replays them"
            .to_string(),
    )
}

/// The write-side store: owns a [`Storage`], appends WAL records under
/// the configured [`SyncPolicy`], keeps each shard's replay
/// bookkeeping, writes checkpoints + manifest, and truncates
/// superseded segments.
pub struct DurableStore {
    storage: Box<dyn Storage>,
    opts: StoreOptions,
    shard_count: u32,
    next_seq: u64,
    cur_segment: u64,
    cur_len: u64,
    unsynced_records: u64,
    last_sync_tick: Option<Time>,
    /// Per shard: what its state reflects, stamped into its next
    /// checkpoint.
    progress: Vec<Progress>,
    /// Per shard: the covered sequence of its newest written
    /// checkpoint (0 = none), as the manifest lists it.
    checkpointed: Vec<u64>,
    /// Segment index → max record seq it holds (0 = none yet).
    segments: BTreeMap<u64, u64>,
    /// Working space [`encode_record`] builds each frame in.
    frame: Vec<u8>,
}

impl DurableStore {
    /// Opens the store and rebuilds every shard's state into `shards`
    /// (one freshly built backend per shard, configured as the store
    /// was originally run): runs [`recover`], repairs a crash tail in
    /// the final segment (atomically rewriting it to its intact prefix
    /// so future appends don't bury damage mid-file), then runs the
    /// one restore-and-replay loop — restore each shard's checkpoint,
    /// then walk the surviving records once, handing each record a
    /// shard has not yet covered to `replay` with that shard's
    /// backend. `replay` is the engine's call-shape rule; an error
    /// from it (say [`keyed_entry_error`] from an un-keyed engine)
    /// aborts the open. The same walk seeds each shard's bookkeeping,
    /// and the write path resumes after the last surviving record.
    pub fn open<B: Checkpoint>(
        storage: Box<dyn Storage>,
        opts: StoreOptions,
        shards: &mut [B],
        mut replay: impl FnMut(&mut B, &WalRecord) -> Result<(), RestoreError>,
    ) -> Result<(Self, RecoveryReport), RestoreError> {
        assert!(!shards.is_empty(), "need at least one shard");
        let shard_count = u32::try_from(shards.len()).expect("shard count fits in u32");
        let recovered = recover(&storage, shard_count)?;

        if let Some((seg, _)) = recovered.crash_tail {
            let &(_, _, intact) = recovered
                .segments
                .iter()
                .find(|&&(i, _, _)| i == seg)
                .expect("crash-tail segment is listed");
            let name = segment_name(seg);
            if intact == 0 {
                storage.remove(&name).map_err(RestoreError::from)?;
            } else {
                let bytes = storage.read(&name).map_err(RestoreError::from)?;
                storage
                    .write_atomic(&name, &bytes[..intact as usize])
                    .map_err(RestoreError::from)?;
            }
        }

        let mut segments: BTreeMap<u64, u64> = BTreeMap::new();
        for &(idx, max_seq, intact) in &recovered.segments {
            let repaired_away = recovered.crash_tail.is_some_and(|(s, _)| s == idx) && intact == 0;
            if !repaired_away {
                segments.insert(idx, max_seq);
            }
        }
        let cur_segment = segments.keys().next_back().copied().unwrap_or(0);
        let cur_len = recovered
            .segments
            .iter()
            .find(|&&(i, _, _)| i == cur_segment)
            .map_or(0, |&(_, _, intact)| intact);

        // The restore-and-replay loop.
        let mut progress = vec![Progress::default(); shards.len()];
        let mut checkpointed = vec![0; shards.len()];
        let mut report = RecoveryReport {
            checkpoints_restored: 0,
            records_replayed: 0,
            entries_applied: 0,
            crash_tail: recovered.crash_tail,
            resumed_at: 0,
        };
        for (i, ckpt) in recovered.checkpoints.iter().enumerate() {
            if let Some(c) = ckpt {
                shards[i].restore_checkpoint(&c.envelope)?;
                progress[i] = Progress {
                    covered_seq: c.covered_seq,
                    entries_applied: c.entries_applied,
                    last_tick: c.last_tick,
                };
                checkpointed[i] = c.covered_seq;
                report.checkpoints_restored += 1;
            }
        }
        for rec in &recovered.records {
            let i = rec.shard as usize;
            let p = &mut progress[i];
            if rec.seq <= p.covered_seq {
                continue;
            }
            replay(&mut shards[i], rec)?;
            let max_tick = rec.entries.iter().map(WalEntry::time).max();
            p.advance(rec.seq, rec.entries.len() as u64, max_tick);
            report.records_replayed += 1;
        }
        report.entries_applied = progress.iter().map(|p| p.entries_applied).sum();
        report.resumed_at = progress.iter().map(|p| p.last_tick).max().unwrap_or(0);

        let store = DurableStore {
            storage,
            opts,
            shard_count,
            next_seq: recovered.last_seq + 1,
            cur_segment,
            cur_len,
            unsynced_records: 0,
            last_sync_tick: None,
            progress,
            checkpointed,
            segments,
            frame: Vec::new(),
        };
        Ok((store, report))
    }

    /// Appends one WAL record for `shard`, applies the sync policy,
    /// and advances the shard's bookkeeping. Returns the record's
    /// global sequence number. The entries are encoded as they are
    /// iterated, into a buffer the store reuses; it keeps room for the
    /// widest entries (31 bytes each) of the largest record appended
    /// so far. On an error the bookkeeping stays where it was.
    pub fn append_record<I>(&mut self, shard: u32, entries: I) -> Result<u64, RestoreError>
    where
        I: IntoIterator,
        I::Item: Borrow<WalEntry>,
        I::IntoIter: ExactSizeIterator,
    {
        assert!(shard < self.shard_count, "shard {shard} out of range");
        let seq = self.next_seq;
        let entries = entries.into_iter();
        let n = entries.len() as u64;
        let (frame, max_tick) = encode_record(seq, shard, entries, &mut self.frame);
        let name = segment_name(self.cur_segment);
        self.storage.append(&name, frame)?;
        self.next_seq += 1;
        self.cur_len += frame.len() as u64;
        self.unsynced_records += 1;
        self.segments.insert(self.cur_segment, seq);

        match self.opts.sync {
            SyncPolicy::EveryRecord => self.sync_current()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced_records >= n.max(1) {
                    self.sync_current()?;
                }
            }
            SyncPolicy::IntervalTicks(dt) => {
                if let Some(t) = max_tick {
                    match self.last_sync_tick {
                        None => {
                            // First logged tick: set the baseline and
                            // make it durable so the interval bound
                            // holds from the very start.
                            self.sync_current()?;
                            self.last_sync_tick = Some(t);
                        }
                        Some(prev) if t.saturating_sub(prev) >= dt.max(1) => {
                            self.sync_current()?;
                            self.last_sync_tick = Some(t);
                        }
                        Some(_) => {}
                    }
                }
            }
        }

        if self.cur_len >= self.opts.segment_bytes {
            // Pin the finished segment before its successor exists, so
            // crash tails are confined to the last segment.
            self.sync_current()?;
            self.cur_segment += 1;
            self.cur_len = 0;
        }
        self.progress[shard as usize].advance(seq, n, max_tick);
        Ok(seq)
    }

    fn sync_current(&mut self) -> Result<(), RestoreError> {
        self.storage.sync(&segment_name(self.cur_segment))?;
        self.unsynced_records = 0;
        Ok(())
    }

    /// Forces all appended records durable regardless of policy.
    pub fn flush(&mut self) -> Result<(), RestoreError> {
        self.sync_current()
    }

    /// Writes `shard`'s checkpoint — the backend's `envelope` plus the
    /// shard's bookkeeping, covering everything it has logged —
    /// publishes it in the manifest, and truncates WAL segments every
    /// shard has superseded. A shard that has logged nothing yet
    /// writes nothing.
    pub fn save_shard_checkpoint(
        &mut self,
        shard: u32,
        envelope: &[u8],
    ) -> Result<(), RestoreError> {
        assert!(shard < self.shard_count, "shard {shard} out of range");
        let progress = self.progress[shard as usize];
        let seq = progress.covered_seq;
        if seq == 0 {
            return Ok(());
        }
        let old = self.checkpointed[shard as usize];
        self.storage.write_atomic(
            &ckpt_name(shard, seq),
            &encode_ckpt_wrapper(shard, &progress, envelope),
        )?;
        self.checkpointed[shard as usize] = seq;
        self.storage
            .write_atomic(MANIFEST_NAME, &encode_manifest(&self.checkpointed))?;
        if old != 0 && old != seq {
            self.storage.remove(&ckpt_name(shard, old))?;
        }
        self.truncate_superseded()?;
        Ok(())
    }

    fn truncate_superseded(&mut self) -> Result<(), RestoreError> {
        let min_covered = self.min_covered();
        let doomed: Vec<u64> = self
            .segments
            .iter()
            .filter(|&(&idx, &max_seq)| {
                idx != self.cur_segment && max_seq != 0 && max_seq <= min_covered
            })
            .map(|(&idx, _)| idx)
            .collect();
        for idx in doomed {
            self.storage.remove(&segment_name(idx))?;
            self.segments.remove(&idx);
        }
        Ok(())
    }

    /// The sequence every shard's checkpoint covers — records at or
    /// below it are eligible for truncation.
    pub fn min_covered(&self) -> u64 {
        self.checkpointed.iter().copied().min().unwrap_or(0)
    }

    /// Records logged but not yet superseded by every shard's
    /// checkpoint — the replay exposure a restart would pay.
    pub fn wal_tail_len(&self) -> u64 {
        (self.next_seq - 1).saturating_sub(self.min_covered())
    }

    /// Records appended since the last fsync — the loss exposure of
    /// the current [`SyncPolicy`].
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced_records
    }

    /// Number of live WAL segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The next global sequence number an append would receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Flattened ingest entries `shard`'s state reflects: its
    /// checkpoint's count plus every entry logged since.
    pub fn entries_applied(&self, shard: u32) -> u64 {
        self.progress[shard as usize].entries_applied
    }

    /// Reads back `shard`'s newest on-disk checkpoint (the one this
    /// store wrote or recovered), or `None` if the shard has never
    /// checkpointed. The in-process fallback path when an in-memory
    /// checkpoint turns out to be corrupt.
    pub fn read_shard_checkpoint(
        &self,
        shard: u32,
    ) -> Result<Option<ShardCheckpoint>, RestoreError> {
        assert!(shard < self.shard_count, "shard {shard} out of range");
        let seq = self.checkpointed[shard as usize];
        if seq == 0 {
            return Ok(None);
        }
        let bytes = self.storage.read(&ckpt_name(shard, seq))?;
        decode_ckpt_wrapper(&bytes, shard, seq).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use td_counters::ExactDecayedSum;
    use td_decay::Exponential;

    type Exact = ExactDecayedSum<Exponential>;

    fn obs(t: Time, f: u64) -> WalEntry {
        WalEntry::Observe(t, f)
    }

    fn boxed(s: &MemStorage) -> Box<dyn Storage> {
        Box::new(s.clone())
    }

    fn exact() -> Exact {
        ExactDecayedSum::new(Exponential::new(0.05))
    }

    /// Opens `shards` exact backends on `storage`, replaying entry by
    /// entry.
    fn open_exact(
        storage: &MemStorage,
        opts: StoreOptions,
        shards: usize,
    ) -> Result<(DurableStore, Vec<Exact>, RecoveryReport), RestoreError> {
        let mut backends: Vec<Exact> = (0..shards).map(|_| exact()).collect();
        let (store, report) = DurableStore::open(boxed(storage), opts, &mut backends, |b, rec| {
            for e in &rec.entries {
                match *e {
                    WalEntry::Observe(t, f) => b.observe(t, f),
                    WalEntry::Advance(t) => b.advance(t),
                    WalEntry::ObserveKeyed(..) => return Err(keyed_entry_error()),
                }
            }
            Ok(())
        })?;
        Ok((store, backends, report))
    }

    fn open(storage: &MemStorage, opts: StoreOptions, shards: usize) -> DurableStore {
        open_exact(storage, opts, shards).expect("store opens").0
    }

    #[test]
    fn manifest_with_an_impossible_count_is_truncated_not_allocated() {
        // A checksum-valid 31-byte manifest claiming u32::MAX seqs: the
        // count must be refused before it sizes anything.
        let mut w = CheckpointWriter::new(MANIFEST_TAG);
        w.put_u32(PERSIST_FORMAT_VERSION);
        w.put_u32(u32::MAX);
        let bytes = w.seal();
        assert_eq!(bytes.len(), 31);
        assert_eq!(decode_manifest(&bytes), Err(RestoreError::Truncated));
        let mem = MemStorage::new();
        mem.write_atomic(MANIFEST_NAME, &bytes).unwrap();
        // Recovery treats it as a damaged manifest and scans instead.
        assert!(recover(&mem, 1).is_ok());
    }

    #[test]
    fn segment_holding_a_version_1_record_opens_as_version_1() {
        let mem = MemStorage::new();
        mem.append(&segment_name(0), &crate::wal::tests::v1_frame())
            .unwrap();
        mem.sync(&segment_name(0)).unwrap();
        let err = open_exact(&mem, StoreOptions::default(), 1)
            .err()
            .expect("a v1 segment must not open");
        assert_eq!(err, RestoreError::Version(1));
        // Nothing was repaired or removed on the way out.
        assert_eq!(
            mem.read(&segment_name(0)).unwrap(),
            crate::wal::tests::v1_frame()
        );
    }

    #[test]
    fn append_checkpoint_crash_recover_round_trip() {
        let mem = MemStorage::new();
        let mut store = open(&mem, StoreOptions::default(), 1);
        for i in 0..6u64 {
            store.append_record(0, [obs(i, i + 1)]).unwrap();
        }
        store.save_shard_checkpoint(0, b"envelope-bytes").unwrap();
        for i in 6..10u64 {
            store.append_record(0, [obs(i, i + 1)]).unwrap();
        }

        let dead = mem.crashed();
        let rec = recover(&dead, 1).unwrap();
        let c = rec.checkpoints[0].as_ref().unwrap();
        assert_eq!(c.covered_seq, 6);
        assert_eq!(c.entries_applied, 6);
        assert_eq!(c.envelope, b"envelope-bytes");
        let tail: Vec<u64> = rec.tail_for(0).map(|r| r.seq).collect();
        assert_eq!(tail, vec![7, 8, 9, 10]);
        let tail_entries: u64 = rec.tail_for(0).map(|r| r.entries.len() as u64).sum();
        assert_eq!(c.entries_applied + tail_entries, 10);
        assert_eq!(store.entries_applied(0), 10);
        assert_eq!(rec.last_seq, 10);
    }

    #[test]
    fn rotation_confines_crash_tails_and_truncation_drops_superseded() {
        let mem = MemStorage::new();
        let opts = StoreOptions {
            segment_bytes: 128, // a couple of records per segment
            sync: SyncPolicy::EveryRecord,
        };
        let mut store = open(&mem, opts, 1);
        for i in 0..15u64 {
            store.append_record(0, [obs(i, 1)]).unwrap();
        }
        assert!(store.segment_count() > 2, "rotation must have happened");
        let before = store.segment_count();
        store.save_shard_checkpoint(0, &[1, 2, 3]).unwrap();
        assert!(
            store.segment_count() < before,
            "superseded segments removed"
        );
        for i in 15..20u64 {
            store.append_record(0, [obs(i, 1)]).unwrap();
        }
        assert_eq!(store.wal_tail_len(), 5);

        let rec = recover(&mem.crashed(), 1).unwrap();
        let tail: Vec<u64> = rec.tail_for(0).map(|r| r.seq).collect();
        assert_eq!(tail, vec![16, 17, 18, 19, 20]);
    }

    #[test]
    fn reopen_resumes_sequence_numbers() {
        let mem = MemStorage::new();
        let mut store = open(&mem, StoreOptions::default(), 1);
        store.append_record(0, [obs(1, 1)]).unwrap();
        store.append_record(0, [obs(2, 2)]).unwrap();
        drop(store);

        let dead = mem.crashed();
        assert_eq!(recover(&dead, 1).unwrap().last_seq, 2);
        let mut store = open(&dead, StoreOptions::default(), 1);
        let seq = store.append_record(0, [obs(3, 3)]).unwrap();
        assert_eq!(seq, 3);
    }

    #[test]
    fn records_of_shards_past_the_opened_count_are_refused() {
        // Nine records round-robin over three shards, no checkpoint (so
        // no manifest or checkpoint file names the count either).
        let mem = MemStorage::new();
        let mut store = open(&mem, StoreOptions::default(), 3);
        for i in 0..9u64 {
            store.append_record((i % 3) as u32, [obs(i, 1)]).unwrap();
        }
        drop(store);

        let dead = mem.crashed();
        let want = RestoreError::Invariant(
            "WAL record 2 is for shard 1 but the store was opened with 1 shards".into(),
        );
        assert_eq!(recover(&dead, 1).err(), Some(want.clone()));
        assert_eq!(
            open_exact(&dead, StoreOptions::default(), 1).err(),
            Some(want)
        );
        let (_, _, report) = open_exact(&dead, StoreOptions::default(), 3).unwrap();
        assert_eq!(report.records_replayed, 9);
    }

    #[test]
    fn every_n_sync_loses_at_most_the_unsynced_tail() {
        let mem = MemStorage::new();
        let opts = StoreOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::EveryN(4),
        };
        let mut store = open(&mem, opts, 1);
        for i in 0..10u64 {
            store.append_record(0, [obs(i, 1)]).unwrap();
        }
        // 10 appends, sync at 4 and 8: two unsynced records die with
        // the crash — and recovery sees exactly the first 8.
        assert_eq!(store.unsynced_records(), 2);
        let rec = recover(&mem.crashed(), 1).unwrap();
        assert_eq!(rec.records.len(), 8);
        assert_eq!(rec.crash_tail, None, "clean record boundary, not a tear");

        // The live (non-crashed) view still has all 10.
        let rec_live = recover(&mem, 1).unwrap();
        assert_eq!(rec_live.records.len(), 10);
    }

    #[test]
    fn interval_ticks_syncs_on_stream_time() {
        let mem = MemStorage::new();
        let opts = StoreOptions {
            segment_bytes: 1 << 20,
            sync: SyncPolicy::IntervalTicks(10),
        };
        let mut store = open(&mem, opts, 1);
        store.append_record(0, [obs(0, 1)]).unwrap(); // baseline: synced
        store.append_record(0, [obs(5, 1)]).unwrap(); // +5: not synced
        assert_eq!(store.unsynced_records(), 1);
        store.append_record(0, [obs(12, 1)]).unwrap(); // +12: synced
        assert_eq!(store.unsynced_records(), 0);
        let rec = recover(&mem.crashed(), 1).unwrap();
        assert_eq!(rec.records.len(), 3);
    }

    #[test]
    fn corrupt_newest_checkpoint_with_truncated_wal_is_a_typed_gap() {
        let mem = MemStorage::new();
        let opts = StoreOptions {
            segment_bytes: 96,
            sync: SyncPolicy::EveryRecord,
        };
        let mut store = open(&mem, opts, 1);
        for i in 0..10u64 {
            store.append_record(0, [obs(i, 1)]).unwrap();
        }
        store.save_shard_checkpoint(0, &[9; 16]).unwrap();
        for i in 10..12u64 {
            store.append_record(0, [obs(i, 1)]).unwrap();
        }
        // Segments holding records <= 10 were truncated. Now damage
        // the only checkpoint: recovery must refuse, not serve the
        // shortened history.
        let name = ckpt_name(0, 10);
        let len = mem.crashed().read(&name).unwrap().len();
        let damaged = mem.bit_flipped(&name, (len as u64 / 2) * 8);
        let err = recover(&damaged, 1).unwrap_err();
        assert!(
            matches!(err, RestoreError::Checksum),
            "manifest names the checkpoint; its damage is the typed reason: {err}"
        );
    }

    #[test]
    fn damaged_manifest_falls_back_to_scanning_checkpoints() {
        let mem = MemStorage::new();
        let mut store = open(&mem, StoreOptions::default(), 1);
        for i in 0..4u64 {
            store.append_record(0, [obs(i, 1)]).unwrap();
        }
        store.save_shard_checkpoint(0, b"env").unwrap();
        for i in 4..6u64 {
            store.append_record(0, [obs(i, 1)]).unwrap();
        }
        let damaged = mem.bit_flipped(MANIFEST_NAME, 8 * 30);
        let rec = recover(&damaged, 1).unwrap();
        assert_eq!(rec.checkpoints[0].as_ref().unwrap().covered_seq, 4);
        let tail: Vec<u64> = rec.tail_for(0).map(|r| r.seq).collect();
        assert_eq!(tail, vec![5, 6]);
    }

    #[test]
    fn crash_tail_is_repaired_on_reopen() {
        let mem = MemStorage::new();
        let mut store = open(&mem, StoreOptions::default(), 1);
        store.append_record(0, [obs(1, 1)]).unwrap();
        store.append_record(0, [obs(2, 2)]).unwrap();
        let full = mem.crashed().read(&segment_name(0)).unwrap();
        // Kill mid-second-record.
        let cut = mem.truncated_at(&segment_name(0), full.len() - 5);

        let (mut store2, _, report) = open_exact(&cut, StoreOptions::default(), 1).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert!(report.crash_tail.is_some());
        // New appends land after the repaired prefix; the next
        // recovery is clean.
        let seq = store2.append_record(0, [obs(3, 3)]).unwrap();
        assert_eq!(
            seq, 2,
            "seq of the torn record is reused — it never happened"
        );
        let rec2 = recover(&cut.crashed(), 1).unwrap();
        assert_eq!(rec2.records.len(), 2);
        assert_eq!(rec2.crash_tail, None);
    }

    #[test]
    fn multi_shard_truncation_waits_for_the_slowest_shard() {
        let mem = MemStorage::new();
        let opts = StoreOptions {
            segment_bytes: 96,
            sync: SyncPolicy::EveryRecord,
        };
        let mut store = open(&mem, opts, 2);
        for i in 0..8u64 {
            store.append_record((i % 2) as u32, [obs(i, 1)]).unwrap();
        }
        let before = store.segment_count();
        store.save_shard_checkpoint(0, b"a").unwrap();
        // Shard 1 has no checkpoint: min covered is 0, nothing may go.
        assert_eq!(store.segment_count(), before);
        store.save_shard_checkpoint(1, b"b").unwrap();
        assert!(store.segment_count() < before);
        // And recovery still works for both shards.
        let rec = recover(&mem.crashed(), 2).unwrap();
        let covered: Vec<(u64, u64)> = rec
            .checkpoints
            .iter()
            .map(|c| {
                c.as_ref()
                    .map(|c| (c.covered_seq, c.entries_applied))
                    .unwrap()
            })
            .collect();
        assert_eq!(covered, vec![(7, 4), (8, 4)]);
    }

    #[test]
    fn reopen_seeds_each_shards_bookkeeping_from_checkpoint_and_tail() {
        // An interleaved 3-shard history: records of every shard,
        // multi-entry and advance-only records, shard 0 checkpointed
        // mid-history, shard 1 checkpointed early, shard 2 never.
        let mem = MemStorage::new();
        let (mut store, mut live, _) = open_exact(&mem, StoreOptions::default(), 3).unwrap();
        let log = |store: &mut DurableStore, live: &mut [Exact], shard: usize, e: &[WalEntry]| {
            store.append_record(shard as u32, e).unwrap();
            for &e in e {
                match e {
                    WalEntry::Observe(t, f) => live[shard].observe(t, f),
                    WalEntry::Advance(t) => live[shard].advance(t),
                    WalEntry::ObserveKeyed(..) => unreachable!("un-keyed history"),
                }
            }
        };
        log(&mut store, &mut live, 1, &[obs(1, 4), obs(2, 5)]);
        log(&mut store, &mut live, 0, &[obs(3, 1)]);
        store
            .save_shard_checkpoint(1, &live[1].save_checkpoint())
            .unwrap();
        log(&mut store, &mut live, 2, &[obs(4, 2), obs(4, 3), obs(9, 1)]);
        log(&mut store, &mut live, 0, &[WalEntry::Advance(7)]);
        log(&mut store, &mut live, 1, &[obs(8, 6)]);
        log(&mut store, &mut live, 0, &[obs(8, 2), obs(11, 3)]);
        store
            .save_shard_checkpoint(0, &live[0].save_checkpoint())
            .unwrap();
        log(&mut store, &mut live, 2, &[WalEntry::Advance(12)]);
        log(&mut store, &mut live, 0, &[WalEntry::Advance(20)]);
        log(&mut store, &mut live, 1, &[obs(13, 1)]);
        let held = store.progress.clone();
        assert_eq!(
            held,
            vec![
                Progress {
                    covered_seq: 8,
                    entries_applied: 5,
                    last_tick: 20
                },
                Progress {
                    covered_seq: 9,
                    entries_applied: 4,
                    last_tick: 13
                },
                Progress {
                    covered_seq: 7,
                    entries_applied: 4,
                    last_tick: 12
                },
            ]
        );

        let dead = mem.crashed();
        let (mut reopened, backends, report) =
            open_exact(&dead, StoreOptions::default(), 3).unwrap();
        assert_eq!(reopened.progress, held);
        assert_eq!(report.checkpoints_restored, 2);
        // Shard 0 replays 1 record past its checkpoint, shard 1 two,
        // shard 2 all of its two.
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.entries_applied, 5 + 4 + 4);
        assert_eq!(report.resumed_at, 20);
        for (b, l) in backends.iter().zip(&live) {
            assert_eq!(b.query(30).to_bits(), l.query(30).to_bits());
        }

        // The first checkpoint after the reopen writes what the live
        // store would have written.
        for shard in 0..3u32 {
            let envelope = backends[shard as usize].save_checkpoint();
            reopened.save_shard_checkpoint(shard, &envelope).unwrap();
            let c = reopened.read_shard_checkpoint(shard).unwrap().unwrap();
            let want = held[shard as usize];
            assert_eq!(
                (c.covered_seq, c.entries_applied, c.last_tick),
                (want.covered_seq, want.entries_applied, want.last_tick),
                "shard {shard}"
            );
            assert_eq!(c.envelope, envelope);
        }
    }

    #[test]
    fn ckpt_names_parse_back() {
        assert_eq!(parse_ckpt_name(&ckpt_name(3, 17)), Some((3, 17)));
        assert_eq!(parse_ckpt_name("ckpt-3-17.tdcp"), None);
        assert_eq!(parse_ckpt_name("wal-000000000001.seg"), None);
    }
}
