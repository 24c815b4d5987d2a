//! Checkpoint/restore as a trait capability on [`StreamAggregate`].
//!
//! Every backend that participates in fault-tolerant sharded serving
//! (`td-shard`) can serialize its **per-stream state** into a
//! versioned, length-prefixed, checksummed byte envelope and later
//! rebuild itself from those bytes. The shared configuration (decay
//! function, ε, region schedules) is deliberately *not* encoded —
//! §2.3's storage argument is that configuration is shared across all
//! streams — so [`Checkpoint::restore_checkpoint`] takes `&mut self`
//! on an already-configured instance and refuses bytes whose recorded
//! configuration fingerprint disagrees with the receiver's.
//!
//! # Envelope layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TDCP"
//! 4       2     format version (little-endian u16, currently 1)
//! 6       8     payload length (little-endian u64)
//! 14      8     FNV-1a-64 checksum over bytes [0, 14) ++ [22, ..)
//! 22      n     payload (backend tag byte, then backend-specific fields)
//! ```
//!
//! The checksum covers every byte of the envelope except itself, and
//! decoding verifies it **before** interpreting any other field: a
//! single-bit flip anywhere — magic, version, length, payload, or the
//! checksum field itself — therefore always surfaces as
//! [`RestoreError::Checksum`], never as a misparse. (FNV-1a absorbs
//! each byte with an xor followed by a multiply by an odd prime, so two
//! equal-length inputs differing in exactly one byte always hash
//! differently.)

use std::fmt;

use crate::aggregate::StreamAggregate;

/// Magic prefix of every checkpoint envelope.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"TDCP";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Envelope header size in bytes (magic + version + length + checksum).
const HEADER: usize = 22;

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The byte string is shorter than its header or recorded payload
    /// length claims.
    Truncated,
    /// The FNV-1a-64 checksum does not match the envelope contents
    /// (any corruption — including of the magic, version, or length
    /// fields — reports here, because the checksum is verified first).
    Checksum,
    /// The envelope is intact but written by an unknown format version.
    Version(u16),
    /// The envelope decodes but violates a structural invariant of the
    /// backend (wrong backend tag, mismatched configuration
    /// fingerprint, non-canonical bucket lists, decreasing timestamps,
    /// non-finite counts, ...).
    Invariant(String),
    /// The storage layer failed while reading or writing persisted
    /// state (`td-persist`). Carries the [`std::io::ErrorKind`] so
    /// callers can distinguish a missing file from a permission error
    /// without string matching.
    Io(std::io::ErrorKind),
    /// A write-ahead-log record failed its checksum in the *middle* of
    /// a segment — bytes follow the damaged record, which a pure
    /// crash-truncation can never produce, so this is corruption (a
    /// torn or bit-flipped record), not an honest torn tail. Recovery
    /// refuses to skip it: applying later records over a hole would
    /// silently serve a wrong answer.
    TornRecord {
        /// Index of the WAL segment holding the damaged record.
        segment: u64,
        /// Byte offset of the record header within that segment.
        offset: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Truncated => write!(f, "checkpoint truncated"),
            RestoreError::Checksum => write!(f, "checkpoint checksum mismatch"),
            RestoreError::Version(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (expected {CHECKPOINT_VERSION})"
                )
            }
            RestoreError::Invariant(why) => write!(f, "checkpoint invariant violated: {why}"),
            RestoreError::Io(kind) => write!(f, "persistence I/O error: {kind}"),
            RestoreError::TornRecord { segment, offset } => {
                write!(
                    f,
                    "torn WAL record in segment {segment} at byte offset {offset} \
                     (bytes follow the damaged record: corruption, not a crash tail)"
                )
            }
        }
    }
}

impl From<std::io::Error> for RestoreError {
    fn from(e: std::io::Error) -> Self {
        RestoreError::Io(e.kind())
    }
}

impl std::error::Error for RestoreError {}

/// Serializable per-stream state: a versioned, checksummed snapshot of
/// everything the backend accumulated from its stream, restorable onto
/// any identically-configured instance.
pub trait Checkpoint: StreamAggregate {
    /// Encodes the per-stream state into a self-validating envelope.
    fn save_checkpoint(&self) -> Vec<u8>;

    /// Replaces this instance's per-stream state with the checkpointed
    /// one. The receiver must be configured identically (same decay,
    /// ε, caps) to the instance that saved the bytes; a mismatch is
    /// reported as [`RestoreError::Invariant`], corruption as
    /// [`RestoreError::Checksum`] or [`RestoreError::Truncated`].
    ///
    /// On error the receiver's state is unspecified (it may be
    /// partially overwritten); callers should discard it.
    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError>;
}

/// FNV-1a-64 over one byte chunk, continuing from `state`.
fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// FNV-1a-64 offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a-64 fingerprint of a string — used to pin configuration
/// (decay `describe()` strings) inside checkpoints without serializing
/// unserializable closures.
pub fn fingerprint(s: &str) -> u64 {
    fnv1a64(FNV_OFFSET, s.as_bytes())
}

/// Little-endian payload writer producing a sealed envelope.
///
/// Numeric fields are fixed-width little-endian; `f64` round-trips via
/// [`f64::to_bits`] so restored state is bit-identical.
pub struct CheckpointWriter {
    buf: Vec<u8>,
}

impl CheckpointWriter {
    /// Starts a payload whose first byte is the backend `tag`
    /// (each implementor picks a unique constant).
    pub fn new(tag: u8) -> Self {
        let mut w = CheckpointWriter {
            buf: Vec::with_capacity(64),
        };
        w.put_u8(tag);
        w
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern (bit-identical round
    /// trip, NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed byte string (e.g. a nested envelope).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Wraps the payload in the magic/version/length/checksum envelope.
    pub fn seal(self) -> Vec<u8> {
        let payload = self.buf;
        let mut out = Vec::with_capacity(HEADER + payload.len());
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = fnv1a64(fnv1a64(FNV_OFFSET, &out), &payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// Payload reader over a verified envelope.
pub struct CheckpointReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CheckpointReader<'a> {
    /// Verifies the envelope (checksum first, then magic, version, and
    /// length) and the leading backend tag, returning a reader
    /// positioned after the tag.
    pub fn open(bytes: &'a [u8], expect_tag: u8) -> Result<Self, RestoreError> {
        if bytes.len() < HEADER {
            return Err(RestoreError::Truncated);
        }
        // Checksum FIRST: any single-bit corruption — wherever it
        // lands — must report as Checksum, not as a misparse of the
        // field it happened to hit.
        let recorded = u64::from_le_bytes(bytes[14..22].try_into().expect("8 bytes"));
        let actual = fnv1a64(fnv1a64(FNV_OFFSET, &bytes[..14]), &bytes[HEADER..]);
        if recorded != actual {
            return Err(RestoreError::Checksum);
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            return Err(RestoreError::Invariant("bad magic".into()));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(RestoreError::Version(version));
        }
        let len = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
        if len != (bytes.len() - HEADER) as u64 {
            return Err(RestoreError::Truncated);
        }
        let mut r = CheckpointReader {
            buf: &bytes[HEADER..],
            pos: 0,
        };
        let tag = r.get_u8()?;
        if tag != expect_tag {
            return Err(RestoreError::Invariant(format!(
                "backend tag mismatch: checkpoint carries tag {tag}, receiver expects {expect_tag}"
            )));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        if self.buf.len() - self.pos < n {
            return Err(RestoreError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, RestoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, RestoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, RestoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, RestoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, RestoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(RestoreError::Invariant(format!("bad bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], RestoreError> {
        let n = self.get_u64()?;
        if n > self.buf.len() as u64 {
            return Err(RestoreError::Truncated);
        }
        self.take(n as usize)
    }

    /// Validates a decoded element count against the payload left to
    /// read, at `min_bytes` per element: a count the remaining bytes
    /// cannot hold is [`RestoreError::Truncated`], so decoders can size
    /// buffers from it without trusting it.
    pub fn count(&self, n: u64, min_bytes: usize) -> Result<usize, RestoreError> {
        let left = (self.buf.len() - self.pos) / min_bytes.max(1);
        if n > left as u64 {
            return Err(RestoreError::Truncated);
        }
        Ok(n as usize)
    }

    /// Asserts the payload was fully consumed (trailing garbage would
    /// mean the encoder and decoder disagree on the schema).
    pub fn finish(self) -> Result<(), RestoreError> {
        if self.pos != self.buf.len() {
            return Err(RestoreError::Invariant(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// An eq-ability note: CheckpointReader::open is used in `assert_eq!`
// in the tests below, so RestoreError derives PartialEq; reader
// equality itself is never needed.
impl PartialEq for CheckpointReader<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf && self.pos == other.pos
    }
}

impl fmt::Debug for CheckpointReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CheckpointReader(pos {} of {})",
            self.pos,
            self.buf.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = CheckpointWriter::new(7);
        w.put_u64(0xDEAD_BEEF);
        w.put_f64(1.5);
        w.put_bool(true);
        w.put_bytes(b"nested");
        w.seal()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        let mut r = CheckpointReader::open(&bytes, 7).unwrap();
        assert_eq!(r.get_u64().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"nested");
        r.finish().unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_a_checksum_error() {
        let bytes = sample();
        for bit in 0..bytes.len() * 8 {
            let mut c = bytes.clone();
            c[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                CheckpointReader::open(&c, 7),
                Err(RestoreError::Checksum),
                "flip of bit {bit} not detected as checksum mismatch"
            );
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample();
        assert_eq!(
            CheckpointReader::open(&bytes[..10], 7).err(),
            Some(RestoreError::Truncated)
        );
        assert_eq!(
            CheckpointReader::open(&[], 7).err(),
            Some(RestoreError::Truncated)
        );
    }

    #[test]
    fn wrong_tag_is_invariant() {
        let bytes = sample();
        assert!(matches!(
            CheckpointReader::open(&bytes, 8),
            Err(RestoreError::Invariant(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_invariant() {
        let bytes = sample();
        let r = CheckpointReader::open(&bytes, 7).unwrap();
        assert!(matches!(r.finish(), Err(RestoreError::Invariant(_))));
    }

    #[test]
    fn fingerprint_distinguishes_strings() {
        assert_ne!(fingerprint("EXPD(0.01)"), fingerprint("EXPD(0.02)"));
        assert_eq!(fingerprint("x"), fingerprint("x"));
    }

    /// Every variant matched WITHOUT a wildcard arm: adding a
    /// `RestoreError` variant fails this match at compile time, forcing
    /// every call site that triages restore failures to be revisited
    /// rather than silently funnelling the new variant into a `_` arm.
    fn triage(e: &RestoreError) -> &'static str {
        match e {
            RestoreError::Truncated => "truncated",
            RestoreError::Checksum => "checksum",
            RestoreError::Version(_) => "version",
            RestoreError::Invariant(_) => "invariant",
            RestoreError::Io(_) => "io",
            RestoreError::TornRecord { .. } => "torn-record",
        }
    }

    #[test]
    fn every_variant_is_matchable_and_displays_context() {
        let all = [
            RestoreError::Truncated,
            RestoreError::Checksum,
            RestoreError::Version(9),
            RestoreError::Invariant("x".into()),
            RestoreError::Io(std::io::ErrorKind::NotFound),
            RestoreError::TornRecord {
                segment: 3,
                offset: 1441,
            },
        ];
        let mut seen: Vec<&'static str> = all.iter().map(triage).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), all.len(), "triage must distinguish variants");

        let io = RestoreError::Io(std::io::ErrorKind::PermissionDenied);
        assert!(io.to_string().contains("permission denied"), "{io}");
        let torn = RestoreError::TornRecord {
            segment: 3,
            offset: 1441,
        };
        let msg = torn.to_string();
        assert!(
            msg.contains("segment 3") && msg.contains("1441"),
            "TornRecord display must carry the segment/offset repro: {msg}"
        );
    }

    #[test]
    fn io_errors_convert_with_their_kind() {
        let e: RestoreError =
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read").into();
        assert_eq!(e, RestoreError::Io(std::io::ErrorKind::UnexpectedEof));
    }
}
