//! Write-ahead-log record framing and segment reading.
//!
//! # Record format
//!
//! Every WAL record is one length-prefixed, checksummed frame, reusing
//! the TDCP framing discipline (`td_decay::checkpoint`) with a WAL
//! magic:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TDWL"
//! 4       8     seq    u64 LE — global record sequence number
//! 12      4     shard  u32 LE — owning shard index
//! 16      8     len    u64 LE — payload length in bytes
//! 24      8     FNV-1a-64 checksum over bytes [0, 24) ++ payload
//! 32      len   payload: n × 17-byte entries
//! ```
//!
//! Payload entries are self-describing and kind-width encoded: kinds
//! 0 (observe) and 1 (advance) are 17 bytes — `kind` u8, `t` u64 LE,
//! `f` u64 LE (`f` is ignored for advance and written as 0) — and
//! kind 2 (keyed observe) is 25 bytes: `kind` u8, `key` u64 LE, `t`
//! u64 LE, `f` u64 LE. The walk is safe because the record checksum
//! is verified before any entry byte is interpreted. One record
//! corresponds to one ingest *call* — a single `observe`/`advance` is
//! a 1-entry record, an `observe_batch` an n-entry record — so replay
//! reproduces the exact call pattern and recovered state is
//! bit-identical to the never-crashed twin.
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

use td_decay::checkpoint::RestoreError;
use td_decay::Time;

/// Magic prefix of every WAL record.
pub const WAL_MAGIC: [u8; 4] = *b"TDWL";

/// Bytes in a record header (magic + seq + shard + len + checksum).
pub const RECORD_HEADER: usize = 32;

/// Bytes per un-keyed payload entry (kind + t + f).
pub const ENTRY_BYTES: usize = 17;

/// Bytes per keyed payload entry (kind + key + t + f).
pub const KEYED_ENTRY_BYTES: usize = 25;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
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

    fn encode_into(self, out: &mut Vec<u8>) {
        match self {
            WalEntry::Observe(t, f) => {
                out.push(0);
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&f.to_le_bytes());
            }
            WalEntry::Advance(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&0u64.to_le_bytes());
            }
            WalEntry::ObserveKeyed(key, t, f) => {
                out.push(2);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(self) -> usize {
        match self {
            WalEntry::Observe(..) | WalEntry::Advance(..) => ENTRY_BYTES,
            WalEntry::ObserveKeyed(..) => KEYED_ENTRY_BYTES,
        }
    }

    /// Decodes the entry at the front of `bytes`, returning it and the
    /// bytes it consumed. Only called on checksum-verified payloads,
    /// so any failure here is a format violation, not media damage.
    fn decode(bytes: &[u8]) -> Result<(Self, usize), RestoreError> {
        let short = || RestoreError::Invariant("short WAL entry".to_string());
        let kind = *bytes.first().ok_or_else(short)?;
        match kind {
            0 | 1 => {
                if bytes.len() < ENTRY_BYTES {
                    return Err(short());
                }
                let t = Time::from_le_bytes(bytes[1..9].try_into().expect("entry t"));
                let f = u64::from_le_bytes(bytes[9..17].try_into().expect("entry f"));
                let e = if kind == 0 {
                    WalEntry::Observe(t, f)
                } else {
                    WalEntry::Advance(t)
                };
                Ok((e, ENTRY_BYTES))
            }
            2 => {
                if bytes.len() < KEYED_ENTRY_BYTES {
                    return Err(short());
                }
                let key = u64::from_le_bytes(bytes[1..9].try_into().expect("entry key"));
                let t = Time::from_le_bytes(bytes[9..17].try_into().expect("entry t"));
                let f = u64::from_le_bytes(bytes[17..25].try_into().expect("entry f"));
                Ok((WalEntry::ObserveKeyed(key, t, f), KEYED_ENTRY_BYTES))
            }
            k => Err(RestoreError::Invariant(format!(
                "unknown WAL entry kind {k}"
            ))),
        }
    }
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
        let mut payload = Vec::with_capacity(self.entries.iter().map(|e| e.encoded_len()).sum());
        for &e in &self.entries {
            e.encode_into(&mut payload);
        }
        let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
        out.extend_from_slice(&WAL_MAGIC);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = fnv1a64(fnv1a64(FNV_OFFSET, &out), &payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&payload);
        out
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
                    Some(end) => off + end >= bytes.len(),
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
    let actual = fnv1a64(fnv1a64(FNV_OFFSET, &bytes[..24]), payload);
    if stored != actual || bytes[..4] != WAL_MAGIC {
        return Err(Some(claimed));
    }
    let seq = u64::from_le_bytes(bytes[4..12].try_into().expect("seq field"));
    let shard = u32::from_le_bytes(bytes[12..16].try_into().expect("shard field"));
    let mut entries = Vec::with_capacity(payload.len() / ENTRY_BYTES);
    let mut p = 0usize;
    while p < payload.len() {
        match WalEntry::decode(&payload[p..]) {
            Ok((e, used)) => {
                entries.push(e);
                p += used;
            }
            // Checksum passed but the entry walk failed (unknown kind
            // byte or a width that overruns the payload): a future or
            // malformed format, not media damage. Surface as a torn
            // record so recovery refuses deterministically instead of
            // misreplaying.
            Err(_) => return Err(Some(claimed)),
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
mod tests {
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
        // Width accounting: 2×25 and 17+25+17 payloads.
        assert_eq!(
            bytes.len(),
            2 * RECORD_HEADER + 2 * KEYED_ENTRY_BYTES + (2 * ENTRY_BYTES + KEYED_ENTRY_BYTES)
        );
    }

    #[test]
    fn checksummed_but_misaligned_payload_is_refused() {
        // A frame whose checksum is valid but whose payload cuts a
        // keyed entry short cannot come from encode(); the entry walk
        // must refuse it rather than misreplay. With intact bytes
        // behind it, that refusal is a typed TornRecord.
        let mut payload = Vec::new();
        WalEntry::ObserveKeyed(9, 10, 11).encode_into(&mut payload);
        payload.truncate(20); // mid-entry
        let mut frame = Vec::new();
        frame.extend_from_slice(&WAL_MAGIC);
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = fnv1a64(fnv1a64(FNV_OFFSET, &frame), &payload);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(&payload);

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
