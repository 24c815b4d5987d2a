//! Write-ahead-log record framing and segment reading.
//!
//! # Record format (version 2)
//!
//! Every WAL record is one length-prefixed, checksummed frame with the
//! same 32-byte header layout as the TDCP envelopes
//! (`td_decay::checkpoint`), under a WAL magic:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TDW2"
//! 4       8     seq    u64 LE — global record sequence number
//! 12      4     shard  u32 LE — owning shard index
//! 16      8     len    u64 LE — payload length in bytes
//! 24      8     XXH64 of the payload, seeded with XXH64(bytes [0, 24))
//! 32      len   payload: n entries
//! ```
//!
//! Every entry has one shape: a kind byte — 0 observe, 1 advance,
//! 2 keyed observe — then, for kind 2 only, the key as an LEB128
//! varint, then the zigzag-LEB128 difference `t − t_prev` from the
//! previous entry of the same record (`t_prev` starts at 0), then `f`
//! as an LEB128 varint (0 for advance). A chunk of nearby ticks and
//! small values costs about 3 bytes an entry. The walk is safe because
//! the record checksum is verified before any entry byte is
//! interpreted, and it refuses a varint that runs past the payload,
//! past 10 bytes, or past 64 bits. A record is one unit of the logging
//! engine's call shape. For `DurableAggregate` it is one ingest *call*
//! — a single `observe`/`advance` is a 1-entry record, an
//! `observe_batch` an n-entry record. For the sharded engine it is one
//! chunk a shard worker drained from its ring, replayed as that worker
//! applied it. Either way replay reproduces the exact call pattern, and
//! recovered state is bit-identical to the never-crashed twin.
//!
//! A version-1 record (magic `TDWL`: FNV-1a checksum, fixed-width
//! entries) is refused with [`RestoreError::Version`]`(1)`; it is never
//! read as a crash tail or a torn record.
//!
//! # Damage policy
//!
//! The checksum is verified before any field is trusted, so a
//! corrupted length prefix cannot cause a misparse. A damaged record
//! is classified by *where* it sits:
//!
//! * its claimed extent reaches or passes the end of the segment →
//!   **crash tail**: the write was cut short by the kill. Reading stops
//!   cleanly at the record boundary and reports how many records
//!   survived — honest, typed loss the caller can account for.
//! * intact bytes *follow* the damaged record → [`RestoreError::
//!   TornRecord`]: a pure crash-truncation can never leave bytes after
//!   the torn write, so this is media corruption and recovery must
//!   refuse rather than skip-and-continue (skipping would silently
//!   drop acknowledged ingest from the middle of the history).

use std::borrow::Borrow;

use td_decay::checkpoint::RestoreError;
use td_decay::Time;

/// Magic prefix of every WAL record.
pub const WAL_MAGIC: [u8; 4] = *b"TDW2";

/// Magic prefix of a version-1 record, refused as
/// [`RestoreError::Version`]`(1)`.
const WAL_MAGIC_V1: [u8; 4] = *b"TDWL";

/// Bytes in a record header (magic + seq + shard + len + checksum).
pub const RECORD_HEADER: usize = 32;

/// The fewest bytes an entry takes (kind, Δt, f): a payload of `n`
/// bytes holds at most `n / MIN_ENTRY_BYTES` entries.
const MIN_ENTRY_BYTES: usize = 3;

/// The most bytes an entry takes: kind, then three 10-byte varints.
const MAX_ENTRY_BYTES: usize = 31;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(acc: u64, v: u64) -> u64 {
    (acc ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 of `bytes` under `seed` (Y. Collet's xxHash, 64-bit variant):
/// four independent lanes over 32-byte stripes, so the hash keeps pace
/// with the write path instead of serialising on one multiply per byte.
fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut rest = bytes;
    let mut h = if rest.len() >= 32 {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        while rest.len() >= 32 {
            for (i, lane) in v.iter_mut().enumerate() {
                *lane = xxh_round(*lane, read_u64(&rest[8 * i..]));
            }
            rest = &rest[32..];
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        h ^= xxh_round(0, read_u64(rest));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h ^= u64::from(word).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The checksum a record frame stores at bytes [24, 32): XXH64 of the
/// payload, seeded with XXH64 of the header bytes [0, 24).
pub fn record_checksum(header: &[u8], payload: &[u8]) -> u64 {
    xxh64(payload, xxh64(&header[..24], 0))
}

/// Writes `v` as an LEB128 varint at `buf[at..]`, returning the index
/// one past it.
#[inline]
fn put_varint(buf: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
}

/// Reads the LEB128 varint at `*p`, advancing `*p` past it. `None` if
/// it runs past `bytes`, past 10 bytes, or past 64 bits.
fn get_varint(bytes: &[u8], p: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for i in 0..10 {
        let b = *bytes.get(*p + i)?;
        // The 10th byte holds bit 63 only.
        if i == 9 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7F) << (7 * i);
        if b < 0x80 {
            *p += i + 1;
            return Some(v);
        }
    }
    None
}

/// One logged ingest step. A WAL record carries a run of these; replay
/// feeds a 1-entry record through `observe`/`advance` and an n-entry
/// record through `observe_batch`, mirroring the original call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalEntry {
    /// `observe(t, f)`.
    Observe(Time, u64),
    /// `advance(t)`.
    Advance(Time),
    /// `observe_keyed(key, t, f)` — multi-tenant keyed ingest
    /// (`td-registry`).
    ObserveKeyed(u64, Time, u64),
}

impl WalEntry {
    /// The stream tick this entry carries.
    pub fn time(&self) -> Time {
        match *self {
            WalEntry::Observe(t, _) | WalEntry::Advance(t) | WalEntry::ObserveKeyed(_, t, _) => t,
        }
    }

    /// Writes the entry at `buf[at..]`, its tick taken relative to
    /// `*prev` (which becomes its own tick); returns the index one past
    /// it. `buf` must have [`MAX_ENTRY_BYTES`] bytes from `at`.
    #[inline]
    fn encode_at(self, prev: &mut Time, buf: &mut [u8], at: usize) -> usize {
        let (kind, key, t, f) = match self {
            WalEntry::Observe(t, f) => (0, None, t, f),
            WalEntry::Advance(t) => (1, None, t, 0),
            WalEntry::ObserveKeyed(key, t, f) => (2, Some(key), t, f),
        };
        let dt = t.wrapping_sub(*prev) as i64;
        let dt = ((dt << 1) ^ (dt >> 63)) as u64;
        *prev = t;
        buf[at] = kind;
        let mut at = at + 1;
        if let Some(key) = key {
            at = put_varint(buf, at, key);
        }
        at = put_varint(buf, at, dt);
        put_varint(buf, at, f)
    }

    /// Decodes the entry at `payload[*p..]`, advancing `*p` past it;
    /// its tick is relative to `*prev`. Only called on
    /// checksum-verified payloads, so a failure is a format violation,
    /// not media damage.
    fn decode(payload: &[u8], p: &mut usize, prev: &mut Time) -> Option<Self> {
        let kind = *payload.get(*p)?;
        *p += 1;
        let key = match kind {
            0 | 1 => 0,
            2 => get_varint(payload, p)?,
            _ => return None,
        };
        let z = get_varint(payload, p)?;
        let dt = ((z >> 1) as i64) ^ -((z & 1) as i64);
        let t = prev.wrapping_add(dt as u64);
        let f = get_varint(payload, p)?;
        *prev = t;
        match kind {
            0 => Some(WalEntry::Observe(t, f)),
            1 if f == 0 => Some(WalEntry::Advance(t)),
            2 => Some(WalEntry::ObserveKeyed(key, t, f)),
            _ => None,
        }
    }
}

/// Encodes one record frame for `entries` at the front of `scratch`
/// and returns it with the record's largest tick (`None` when it has
/// no entries): the header, the entries written in place, then the
/// length and checksum patched in. `scratch` is working space, sized
/// for the widest possible entries and never shrunk, so a reused
/// buffer costs neither an allocation nor a fill per record. Entries
/// may be borrowed or produced on the fly (say, mapped from a drained
/// chunk), so no entry list need exist.
pub(crate) fn encode_record<I>(
    seq: u64,
    shard: u32,
    entries: I,
    scratch: &mut Vec<u8>,
) -> (&[u8], Option<Time>)
where
    I: IntoIterator,
    I::Item: Borrow<WalEntry>,
    I::IntoIter: ExactSizeIterator,
{
    let entries = entries.into_iter();
    let room = RECORD_HEADER + entries.len() * MAX_ENTRY_BYTES;
    if scratch.len() < room {
        scratch.resize(room, 0);
    }
    let (mut at, mut prev, mut max_tick) = (RECORD_HEADER, 0, None);
    for e in entries {
        let e = *e.borrow();
        max_tick = max_tick.max(Some(e.time()));
        at = e.encode_at(&mut prev, scratch, at);
    }
    let buf = &mut scratch[..at];
    buf[..4].copy_from_slice(&WAL_MAGIC);
    buf[4..12].copy_from_slice(&seq.to_le_bytes());
    buf[12..16].copy_from_slice(&shard.to_le_bytes());
    buf[16..24].copy_from_slice(&((at - RECORD_HEADER) as u64).to_le_bytes());
    let (head, payload) = buf.split_at_mut(RECORD_HEADER);
    let sum = record_checksum(head, payload);
    head[24..].copy_from_slice(&sum.to_le_bytes());
    (buf, max_tick)
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global, strictly-increasing, contiguous sequence number.
    pub seq: u64,
    /// Index of the shard whose ingest this record carries.
    pub shard: u32,
    /// The logged ingest steps, in call order.
    pub entries: Vec<WalEntry>,
}

impl WalRecord {
    /// Serializes the record into its on-disk frame.
    pub fn encode(&self) -> Vec<u8> {
        encode_record(self.seq, self.shard, &self.entries, &mut Vec::new())
            .0
            .to_vec()
    }
}

/// Why a segment read stopped before the last byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStop {
    /// Every byte parsed into intact records.
    Clean,
    /// A damaged or incomplete record at `offset` whose extent reached
    /// the end of the segment — the crash tail. Records before it are
    /// intact and were returned.
    CrashTail {
        /// Byte offset of the damaged trailing record.
        offset: u64,
    },
}

/// The result of reading one segment: the intact prefix of records and
/// how the read ended.
#[derive(Debug, Clone)]
pub struct SegmentRead {
    /// Intact records, in file order.
    pub records: Vec<WalRecord>,
    /// Whether the segment ended cleanly or in a crash tail.
    pub tail: TailStop,
    /// Byte offset one past the last intact record — where appends
    /// would resume after truncating a crash tail.
    pub intact_len: u64,
}

/// Decodes all records in `bytes` (one whole segment file), applying
/// the damage policy above. `segment` is the segment index used in
/// [`RestoreError::TornRecord`] context.
pub fn read_segment(segment: u64, bytes: &[u8]) -> Result<SegmentRead, RestoreError> {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.starts_with(&WAL_MAGIC_V1) {
            return Err(RestoreError::Version(1));
        }
        match decode_one(rest) {
            Ok((rec, used)) => {
                records.push(rec);
                off += used;
            }
            Err(claimed_end) => {
                // Damaged record. Crash tail iff its claimed extent is
                // not fully contained strictly inside the segment —
                // i.e. no intact bytes can follow it.
                let tail_is_crash = match claimed_end {
                    Some(end) => off.saturating_add(end) >= bytes.len(),
                    // Header unreadable/mismatched: length prefix can't
                    // be trusted, so treat "reaches end" as unknowable.
                    // A short header IS the end; a full header with a
                    // bad checksum but more bytes after its claimed
                    // extent is handled above. Here the claimed extent
                    // itself was undecodable (short header), which only
                    // happens at the true end of the file.
                    None => true,
                };
                if tail_is_crash {
                    return Ok(SegmentRead {
                        records,
                        tail: TailStop::CrashTail { offset: off as u64 },
                        intact_len: off as u64,
                    });
                }
                return Err(RestoreError::TornRecord {
                    segment,
                    offset: off as u64,
                });
            }
        }
    }
    Ok(SegmentRead {
        records,
        tail: TailStop::Clean,
        intact_len: off as u64,
    })
}

/// Decodes the record at the start of `bytes`. On success returns the
/// record and its total frame length. On damage returns
/// `Err(claimed_end)`: `Some(total frame length the header claims)`
/// when the header was complete enough to read a length, `None` when
/// even the header is short.
#[allow(clippy::result_large_err)]
fn decode_one(bytes: &[u8]) -> Result<(WalRecord, usize), Option<usize>> {
    if bytes.len() < RECORD_HEADER {
        return Err(None);
    }
    let len = u64::from_le_bytes(bytes[16..24].try_into().expect("len field"));
    // Cap the claimed extent so a corrupted length can't overflow
    // usize arithmetic; anything past the buffer is "reaches end".
    let claimed = (len as u128 + RECORD_HEADER as u128).min(u128::from(u64::MAX)) as usize;
    if bytes.len() < claimed {
        return Err(Some(claimed));
    }
    let payload = &bytes[RECORD_HEADER..claimed];
    let stored = u64::from_le_bytes(bytes[24..32].try_into().expect("sum field"));
    if bytes[..4] != WAL_MAGIC || stored != record_checksum(bytes, payload) {
        return Err(Some(claimed));
    }
    let seq = u64::from_le_bytes(bytes[4..12].try_into().expect("seq field"));
    let shard = u32::from_le_bytes(bytes[12..16].try_into().expect("shard field"));
    let mut entries = Vec::with_capacity(payload.len() / MIN_ENTRY_BYTES);
    let (mut p, mut prev) = (0usize, 0);
    while p < payload.len() {
        match WalEntry::decode(payload, &mut p, &mut prev) {
            Some(e) => entries.push(e),
            // Checksum passed but the entry walk failed (unknown kind
            // byte, a varint that overruns the payload or 64 bits): a
            // future or malformed format, not media damage. Surface as
            // a torn record so recovery refuses deterministically
            // instead of misreplaying.
            None => return Err(Some(claimed)),
        }
    }
    Ok((
        WalRecord {
            seq,
            shard,
            entries,
        },
        claimed,
    ))
}

/// Segment file name for `index` — zero-padded so lexicographic
/// [`Storage::list`](crate::Storage::list) order is numeric order.
pub fn segment_name(index: u64) -> String {
    format!("wal-{index:012}.seg")
}

/// Parses a [`segment_name`] back to its index.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn rec(seq: u64, shard: u32, n: usize) -> WalRecord {
        WalRecord {
            seq,
            shard,
            entries: (0..n)
                .map(|i| {
                    if i % 3 == 2 {
                        WalEntry::Advance(100 + i as u64)
                    } else {
                        WalEntry::Observe(100 + i as u64, 7 * i as u64 + 1)
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn round_trip_multiple_records() {
        let recs = vec![rec(1, 0, 1), rec(2, 3, 5), rec(3, 1, 0)];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        let read = read_segment(0, &bytes).unwrap();
        assert_eq!(read.records, recs);
        assert_eq!(read.tail, TailStop::Clean);
        assert_eq!(read.intact_len, bytes.len() as u64);
    }

    #[test]
    fn every_truncation_is_a_clean_crash_tail() {
        let recs = vec![rec(1, 0, 2), rec(2, 0, 4)];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        let first_len = recs[0].encode().len();
        for cut in 0..bytes.len() {
            let read = read_segment(0, &bytes[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}: unexpected error {e}"));
            let survivors = if cut >= first_len { 1 } else { 0 };
            assert_eq!(read.records.len(), survivors, "cut at {cut}");
            if cut == 0 || cut == first_len || cut == bytes.len() {
                assert_eq!(read.tail, TailStop::Clean, "cut at {cut}");
            } else {
                assert!(
                    matches!(read.tail, TailStop::CrashTail { .. }),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn bit_flip_midfile_is_torn_record_never_silent() {
        let recs = vec![rec(1, 0, 2), rec(2, 0, 3)];
        let mut clean = Vec::new();
        for r in &recs {
            clean.extend_from_slice(&r.encode());
        }
        let first_len = recs[0].encode().len();
        for bit in 0..(first_len * 8) {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            match read_segment(7, &bytes) {
                // A flip in the first record with the second intact
                // behind it must be typed corruption with context.
                Err(RestoreError::TornRecord {
                    segment: 7,
                    offset: 0,
                }) => {}
                // ...unless the flip inflated the length field so the
                // claimed extent swallows the rest of the file — then
                // it is indistinguishable from a torn trailing write.
                Ok(read) => {
                    assert_eq!(read.records.len(), 0, "bit {bit}");
                    assert!(
                        matches!(read.tail, TailStop::CrashTail { offset: 0 }),
                        "bit {bit}: {:?}",
                        read.tail
                    );
                }
                Err(e) => panic!("bit {bit}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_trailing_record_stops_cleanly() {
        let recs = vec![rec(1, 0, 2), rec(2, 0, 3)];
        let mut clean = Vec::new();
        for r in &recs {
            clean.extend_from_slice(&r.encode());
        }
        let first_len = recs[0].encode().len();
        for bit in (first_len * 8)..(clean.len() * 8) {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            match read_segment(0, &bytes) {
                Ok(read) => {
                    assert_eq!(read.records, recs[..1], "bit {bit}");
                    assert_eq!(
                        read.tail,
                        TailStop::CrashTail {
                            offset: first_len as u64
                        },
                        "bit {bit}"
                    );
                }
                // A flip that *shrinks* the length field leaves bytes
                // after the (now shorter) claimed extent — a crash can
                // never shrink a length prefix, so typed corruption at
                // the record boundary is the honest answer.
                Err(RestoreError::TornRecord { segment: 0, offset }) => {
                    assert_eq!(offset, first_len as u64, "bit {bit}");
                }
                Err(e) => panic!("bit {bit}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn keyed_entries_round_trip_mixed_widths() {
        let recs = vec![
            WalRecord {
                seq: 1,
                shard: 0,
                entries: vec![
                    WalEntry::ObserveKeyed(0xDEAD_BEEF, 10, 3),
                    WalEntry::ObserveKeyed(u64::MAX, 11, u64::MAX),
                ],
            },
            WalRecord {
                seq: 2,
                shard: 0,
                entries: vec![
                    WalEntry::Observe(12, 5),
                    WalEntry::ObserveKeyed(7, 13, 1),
                    WalEntry::Advance(14),
                ],
            },
        ];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        let read = read_segment(0, &bytes).unwrap();
        assert_eq!(read.records, recs);
        assert_eq!(read.tail, TailStop::Clean);
        // Width accounting, kind + [key] + zigzag Δt + f per entry:
        // record 1: 1+5+1+1 (key 0xDEADBEEF, Δt 10, f 3) and
        // 1+10+1+10 (key and f u64::MAX, Δt 1); record 2: 1+1+1,
        // 1+1+1+1 and 1+1+1 (advance writes f = 0).
        assert_eq!(bytes.len(), 2 * RECORD_HEADER + (8 + 22) + (3 + 4 + 3));
    }

    #[test]
    fn extreme_ticks_and_values_round_trip() {
        // Δt spans the whole u64 range both ways; values hit every
        // varint width.
        let entries = vec![
            WalEntry::Observe(u64::MAX, u64::MAX),
            WalEntry::Observe(0, 0),
            WalEntry::Advance(1 << 63),
            WalEntry::ObserveKeyed(0, (1 << 63) - 1, 1 << 63),
            WalEntry::Observe(127, 128),
            WalEntry::Observe(63, 16_383),
            WalEntry::ObserveKeyed(u64::MAX, 64, 16_384),
        ];
        let r = WalRecord {
            seq: u64::MAX,
            shard: u32::MAX,
            entries,
        };
        let read = read_segment(0, &r.encode()).unwrap();
        assert_eq!(read.records, vec![r]);
    }

    #[test]
    fn xxh64_matches_the_reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog", 0),
            0x0B24_2D36_1FDA_71BC
        );
    }

    /// A frame whose checksum covers an arbitrary payload.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&WAL_MAGIC);
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = record_checksum(&frame, payload);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn checksummed_but_misaligned_payload_is_refused() {
        // A frame whose checksum is valid but whose payload cuts an
        // entry short cannot come from encode(); the entry walk must
        // refuse it rather than misreplay. With intact bytes behind
        // it, that refusal is a typed TornRecord.
        let mut payload = vec![0; MAX_ENTRY_BYTES];
        let end = WalEntry::ObserveKeyed(9, 1 << 40, 11).encode_at(&mut 0, &mut payload, 0);
        assert!(end > 4);
        payload.truncate(4); // mid-Δt varint
        let frame = sealed(&payload);

        // Alone at the end of the segment it is indistinguishable from
        // a torn trailing write: clean crash tail.
        let read = read_segment(0, &frame).unwrap();
        assert!(read.records.is_empty());
        assert_eq!(read.tail, TailStop::CrashTail { offset: 0 });

        // With an intact record after it: corruption, typed.
        let mut bytes = frame.clone();
        bytes.extend_from_slice(&rec(2, 0, 1).encode());
        assert!(matches!(
            read_segment(3, &bytes),
            Err(RestoreError::TornRecord {
                segment: 3,
                offset: 0
            })
        ));
    }

    /// A version-1 frame: `TDWL`, FNV-1a-64 over header ++ payload,
    /// one 17-byte observe entry `(kind 0, t = 10, f = 3)`.
    pub(crate) fn v1_frame() -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(b"TDWL");
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&17u64.to_le_bytes());
        let mut payload = vec![0u8];
        payload.extend_from_slice(&10u64.to_le_bytes());
        payload.extend_from_slice(&3u64.to_le_bytes());
        let fnv = frame
            .iter()
            .chain(&payload)
            .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
        frame.extend_from_slice(&fnv.to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn version_1_record_is_refused_as_version_1() {
        // Alone, truncated, followed by a v2 record or behind one, a v1
        // record is a version refusal — never a crash tail or a torn
        // record.
        let v1 = v1_frame();
        for bytes in [
            v1.clone(),
            v1[..20].to_vec(),
            [v1.clone(), rec(2, 0, 1).encode()].concat(),
            [rec(1, 0, 2).encode(), v1.clone()].concat(),
        ] {
            assert_eq!(
                read_segment(0, &bytes).unwrap_err(),
                RestoreError::Version(1)
            );
        }
    }

    #[test]
    fn empty_segment_reads_clean() {
        let read = read_segment(0, &[]).unwrap();
        assert!(read.records.is_empty());
        assert_eq!(read.tail, TailStop::Clean);
    }

    #[test]
    fn segment_names_sort_numerically_and_parse_back() {
        let names: Vec<String> = [0, 1, 9, 10, 11, 100, 999_999]
            .iter()
            .map(|&i| segment_name(i))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names);
        for (i, n) in [0u64, 1, 9, 10, 11, 100, 999_999].iter().zip(&names) {
            assert_eq!(parse_segment_name(n), Some(*i));
        }
        assert_eq!(parse_segment_name("wal-123.seg"), None);
        assert_eq!(parse_segment_name("ckpt-0-1.tdcp"), None);
    }
}
