//! Decode conformance for every persisted format in the workspace:
//! checkpoint envelopes of every backend and the keyed registry, WAL
//! segments, shard checkpoints, and the store manifest.
//!
//! Four contracts:
//!
//! * **Round-trip is bit-identical.** `restore(save(b))` onto an
//!   identically-configured fresh instance re-saves to the same bytes,
//!   answers with the same f64 bits, and accounts the same storage.
//! * **Corruption is always detected.** Any single-bit flip anywhere in
//!   a checkpoint (every bit for small ones, a seeded sample for large
//!   ones) is rejected as `RestoreError::Checksum` — a decode order
//!   that reads unverified bytes fails this too.
//! * **Configuration mismatches are typed errors.**
//! * **Arbitrary bytes never panic or abort.** A seeded mutator flips
//!   bits, overwrites every 4- and 8-byte field with 0 and with all
//!   ones, and truncates — then re-seals the checksum, so the damage
//!   reaches the field decoders — and every decode must return `Ok` or
//!   a typed `RestoreError`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use td_ceh::CascadedEh;
use td_conformance::{catalogue, Op, Rng, Scenario};
use td_core::{BackendChoice, DecayedSum};
use td_counters::{ExactDecayedSum, ExpCounter, PolyExpCounter, QuantizedExpCounter};
use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{DecayFunction, Exponential, Polynomial, SlidingWindow, StreamAggregate, Time};
use td_eh::{ClassicEh, DominationEh};
use td_forward::{ForwardDecaySum, ForwardDecayVariance};
use td_wbmh::Wbmh;

const WBMH_MAX_AGE: Time = 1 << 41;

/// One checkpointable backend under test: a factory for
/// identically-configured instances, a value clamp for
/// restricted-domain backends, and a horizon cap for finite-`max_age`
/// ones.
struct RtCase {
    name: &'static str,
    value_cap: Option<u64>,
    max_time: Option<Time>,
    make: Box<dyn Fn() -> Box<dyn Checkpoint>>,
}

fn rt(name: &'static str, make: impl Fn() -> Box<dyn Checkpoint> + 'static) -> RtCase {
    RtCase {
        name,
        value_cap: None,
        max_time: None,
        make: Box::new(make),
    }
}

fn boxed<G: DecayFunction + 'static>(g: G) -> Box<dyn DecayFunction> {
    Box::new(g)
}

/// Every backend with a `Checkpoint` impl, same configurations as the
/// conformance matrix.
fn cases() -> Vec<RtCase> {
    vec![
        rt("exp-counter", || {
            Box::new(ExpCounter::new(Exponential::new(0.01)))
        }),
        rt("quantized-exp/m20", || {
            Box::new(QuantizedExpCounter::new(Exponential::new(0.01), 20))
        }),
        rt("polyexp-pipeline/k2", || {
            Box::new(PolyExpCounter::new(2, 0.03))
        }),
        rt("exact/exp", || {
            Box::new(ExactDecayedSum::new(boxed(Exponential::new(0.01))))
        }),
        rt("exact/sliding256", || {
            Box::new(ExactDecayedSum::new(boxed(SlidingWindow::new(256))))
        }),
        rt("domination-eh", || Box::new(DominationEh::new(0.1, None))),
        RtCase {
            value_cap: Some(1),
            ..rt("classic-eh", || Box::new(ClassicEh::new(0.1, None)))
        },
        rt("ceh/exp", || {
            Box::new(CascadedEh::new(boxed(Exponential::new(0.01)), 0.1))
        }),
        RtCase {
            max_time: Some(WBMH_MAX_AGE / 2),
            ..rt("wbmh/poly1", || {
                Box::new(Wbmh::new(boxed(Polynomial::new(1.0)), 0.1, WBMH_MAX_AGE))
            })
        },
        rt("core-auto/exp", || {
            Box::new(
                DecayedSum::builder(Exponential::new(0.01))
                    .epsilon(0.1)
                    .backend(BackendChoice::Auto)
                    .build(),
            )
        }),
        rt("core-auto/poly1", || {
            Box::new(
                DecayedSum::builder(Polynomial::new(1.0))
                    .epsilon(0.1)
                    .backend(BackendChoice::Auto)
                    .build(),
            )
        }),
        rt("forward-sum/exp", || {
            Box::new(ForwardDecaySum::new(Exponential::new(0.01)))
        }),
        rt("forward-sum/exp-rotating", || {
            Box::new(ForwardDecaySum::new(Exponential::new(0.01)).with_rotation_exponent(2.0))
        }),
        RtCase {
            max_time: Some(td_forward::DEFAULT_MAX_TIME),
            ..rt("forward-sum/poly1", || {
                Box::new(ForwardDecaySum::new(Polynomial::new(1.0)))
            })
        },
        RtCase {
            max_time: Some(td_forward::DEFAULT_MAX_TIME),
            ..rt("forward-variance/poly1", || {
                Box::new(ForwardDecayVariance::new(Polynomial::new(1.0)))
            })
        },
    ]
}

fn replay(b: &mut dyn Checkpoint, scenario: &Scenario, cap: Option<u64>) {
    let cap = cap.unwrap_or(u64::MAX);
    for op in &scenario.ops {
        match op {
            Op::Observe(t, f) => b.observe(*t, (*f).min(cap)),
            Op::ObserveBatch(items) => {
                let capped: Vec<(Time, u64)> =
                    items.iter().map(|&(t, f)| (t, f.min(cap))).collect();
                b.observe_batch(&capped);
            }
            Op::Advance(t) => b.advance(*t),
            Op::Query(_) => {}
        }
    }
}

#[test]
fn roundtrip_is_bit_identical_across_the_catalogue() {
    for case in cases() {
        for seed in [1u64, 7, 23] {
            for scenario in catalogue(seed, 160) {
                if let Some(limit) = case.max_time {
                    if scenario.max_time() > limit {
                        continue;
                    }
                }
                let mut original = (case.make)();
                replay(&mut *original, &scenario, case.value_cap);
                let bytes = original.save_checkpoint();

                let mut restored = (case.make)();
                restored.restore_checkpoint(&bytes).unwrap_or_else(|e| {
                    panic!(
                        "{} on `{}` seed {:#x}: clean restore failed: {e}",
                        case.name, scenario.name, scenario.seed
                    )
                });

                assert_eq!(
                    restored.save_checkpoint(),
                    bytes,
                    "{} on `{}` seed {:#x}: restored state re-saves differently",
                    case.name,
                    scenario.name,
                    scenario.seed
                );
                assert_eq!(
                    original.storage_bits(),
                    restored.storage_bits(),
                    "{} on `{}` seed {:#x}: storage accounting diverged",
                    case.name,
                    scenario.name,
                    scenario.seed
                );
                for dt in [1u64, 5, 1000] {
                    let t = scenario.max_time() + dt;
                    assert_eq!(
                        original.query(t).to_bits(),
                        restored.query(t).to_bits(),
                        "{} on `{}` seed {:#x}: answers diverged at t={t}",
                        case.name,
                        scenario.name,
                        scenario.seed
                    );
                }
            }
        }
    }
}

#[test]
fn every_single_bit_corruption_is_rejected_as_checksum() {
    for case in cases() {
        // One representative non-trivial state per backend (bursty
        // family: real bucket structure, multiple classes).
        let scenario = catalogue(5, 160)
            .into_iter()
            .filter(|s| case.max_time.is_none_or(|limit| s.max_time() <= limit))
            .nth(1)
            .expect("catalogue has families within the horizon");
        let mut b = (case.make)();
        replay(&mut *b, &scenario, case.value_cap);
        let bytes = b.save_checkpoint();
        // Every bit for small checkpoints, a 256-offset seeded sample
        // for large ones; fresh restore target per offset so a corrupt
        // restore cannot contaminate the next probe.
        let offsets = corruption_offsets(0xC0DE ^ bytes.len() as u64, bytes.len(), 256);
        certify_corruption_detected(case.name, &bytes, offsets, |corrupt| {
            (case.make)().restore_checkpoint(corrupt)
        });
    }
}

/// Cross-configuration restores must be rejected as typed errors, not
/// silently mis-adopted: a checkpoint is only valid on an identically-
/// configured instance.
#[test]
fn config_mismatch_is_a_typed_error() {
    let mut a = CascadedEh::new(boxed(Exponential::new(0.01)), 0.1);
    a.observe(5, 3);
    let bytes = a.save_checkpoint();
    let mut wrong_decay = CascadedEh::new(boxed(Exponential::new(0.02)), 0.1);
    assert!(
        wrong_decay.restore_checkpoint(&bytes).is_err(),
        "restore onto a different decay must be rejected"
    );
    let mut counter = ExpCounter::new(Exponential::new(0.01));
    counter.observe(5, 3);
    let mut other = QuantizedExpCounter::new(Exponential::new(0.01), 20);
    assert!(
        other
            .restore_checkpoint(&counter.save_checkpoint())
            .is_err(),
        "restore across backend kinds must be rejected (wrong tag)"
    );
    let mut fwd = ForwardDecaySum::new(Exponential::new(0.01));
    fwd.observe(5, 3);
    let fwd_bytes = fwd.save_checkpoint();
    let mut wrong_lambda = ForwardDecaySum::new(Exponential::new(0.02));
    assert!(
        wrong_lambda.restore_checkpoint(&fwd_bytes).is_err(),
        "forward restore onto a different decay must be rejected"
    );
    let mut wrong_rotation =
        ForwardDecaySum::new(Exponential::new(0.01)).with_rotation_exponent(2.0);
    assert!(
        wrong_rotation.restore_checkpoint(&fwd_bytes).is_err(),
        "forward restore onto a different rotation threshold must be rejected"
    );
    let mut wrong_kind = ForwardDecayVariance::new(Exponential::new(0.01));
    assert!(
        wrong_kind.restore_checkpoint(&fwd_bytes).is_err(),
        "forward restore across moment kinds must be rejected (wrong tag)"
    );
}

/// Requires every listed single-bit flip of `bytes` to be rejected by
/// `restore` as [`RestoreError::Checksum`] — the envelope checksum is
/// verified before anything else is read.
fn certify_corruption_detected(
    name: &str,
    bytes: &[u8],
    bit_offsets: impl IntoIterator<Item = u64>,
    mut restore: impl FnMut(&[u8]) -> Result<(), RestoreError>,
) {
    let nbits = bytes.len() as u64 * 8;
    for off in bit_offsets {
        let bit = off % nbits;
        let mut corrupt = bytes.to_vec();
        corrupt[(bit / 8) as usize] ^= 1 << (bit % 8);
        match restore(&corrupt) {
            Err(RestoreError::Checksum) => {}
            other => panic!("`{name}` bit {bit} of {nbits}: corruption decoded as {other:?}"),
        }
    }
}

/// Every bit for small checkpoints, `limit` seeded offsets otherwise.
fn corruption_offsets(seed: u64, nbytes: usize, limit: usize) -> Vec<u64> {
    let nbits = nbytes as u64 * 8;
    if nbits <= limit as u64 {
        return (0..nbits).collect();
    }
    let mut rng = Rng::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
    (0..limit).map(|_| rng.below(nbits)).collect()
}

fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A checksummed frame: `sealed` bytes at the front carry the header
/// the checksum covers, then the 8-byte checksum, then the payload.
#[derive(Clone, Copy)]
struct Frame {
    /// Header bytes before the checksum (TDCP 14, TDWL 24).
    sealed: usize,
    /// Offset of the little-endian payload-length field.
    len_at: usize,
}

const TDCP: Frame = Frame {
    sealed: 14,
    len_at: 6,
};
const TDWL: Frame = Frame {
    sealed: 24,
    len_at: 16,
};

impl Frame {
    fn payload(self) -> usize {
        self.sealed + 8
    }

    /// Recomputes the checksum over the (mutated) header and payload.
    fn reseal(self, bytes: &mut [u8]) {
        let (head, rest) = bytes.split_at_mut(self.sealed);
        let sum = fnv1a64(fnv1a64(FNV_OFFSET, head), &rest[8..]);
        rest[..8].copy_from_slice(&sum.to_le_bytes());
    }

    /// Seeded damage to one frame: bit flips, every 4- and 8-byte field
    /// overwritten with zeros and with ones, and truncations (length
    /// field fixed up) — each re-sealed.
    fn mutants(self, frame: &[u8], seed: u64) -> Vec<Vec<u8>> {
        let mut rng = Rng::new(seed);
        let body = self.payload()..frame.len();
        let mut out = Vec::new();
        let mut push = |mut m: Vec<u8>| {
            self.reseal(&mut m);
            out.push(m);
        };
        for _ in 0..64 {
            let mut m = frame.to_vec();
            let bit = rng.below(m.len() as u64 * 8);
            m[(bit / 8) as usize] ^= 1 << (bit % 8);
            push(m);
        }
        let fields = (4..self.sealed).chain(body.clone());
        for at in fields {
            for width in [4, 8] {
                for fill in [0x00, 0xFF] {
                    let end = (at + width).min(frame.len());
                    let mut m = frame.to_vec();
                    if at < self.sealed {
                        // Header fields must not spill into the checksum.
                        m[at..end.min(self.sealed)].fill(fill);
                    } else {
                        m[at..end].fill(fill);
                    }
                    push(m);
                }
            }
        }
        for _ in 0..16 {
            let keep = body.start + rng.below(body.len() as u64 + 1) as usize;
            let mut m = frame[..keep].to_vec();
            let len = (keep - body.start) as u64;
            m[self.len_at..self.len_at + 8].copy_from_slice(&len.to_le_bytes());
            push(m);
        }
        out
    }
}

/// Decodes every mutant; a panic (or abort) fails the sweep.
fn sweep(name: &str, mutants: Vec<Vec<u8>>, mut decode: impl FnMut(&[u8])) {
    for (i, m) in mutants.iter().enumerate() {
        if catch_unwind(AssertUnwindSafe(|| decode(m))).is_err() {
            panic!(
                "`{name}` mutant #{i} ({} bytes) panicked the decoder",
                m.len()
            );
        }
    }
}

#[test]
fn arbitrary_byte_decode_sweep_never_panics() {
    use td_persist::{
        DurabilityOptions, DurableAggregate, MemStorage, Storage, StoreOptions, SyncPolicy,
    };
    use td_registry::{KeyedRegistry, RegistryOptions};

    // Every checkpoint backend, one non-trivial state each.
    for case in cases() {
        let scenario = catalogue(11, 120)
            .into_iter()
            .filter(|s| case.max_time.is_none_or(|limit| s.max_time() <= limit))
            .nth(1)
            .expect("a family within the horizon");
        let mut b = (case.make)();
        replay(&mut *b, &scenario, case.value_cap);
        let bytes = b.save_checkpoint();
        // One receiver per backend: building some (WBMH region
        // schedules) costs far more than a restore.
        let mut target = (case.make)();
        sweep(case.name, TDCP.mutants(&bytes, 0xDEC0), |m| {
            let _ = target.restore_checkpoint(m);
        });
    }

    // The keyed registry envelope, with live, evicted and free slots.
    let make_reg = || {
        let opts = RegistryOptions {
            eviction_threshold: 1e-3,
            sweep_per_ingest: 4,
            ..RegistryOptions::default()
        };
        KeyedRegistry::new(opts, || ForwardDecaySum::new(Exponential::new(0.5)))
    };
    let mut reg = make_reg();
    for i in 0..200u64 {
        reg.observe_keyed(i % 7 + (i / 50) * 7, i * 3, 1 + i % 4);
    }
    assert!(reg.evictions() > 0, "registry input has evicted slots");
    let mut target = make_reg();
    let mutants = TDCP.mutants(&reg.save_checkpoint(), 0xDEC1);
    sweep("registry", mutants, |m| {
        let _ = target.restore_checkpoint(m);
    });

    // A durable store: WAL segments, shard checkpoints, the manifest.
    let opts = DurabilityOptions {
        store: StoreOptions {
            segment_bytes: 512,
            sync: SyncPolicy::EveryRecord,
        },
        checkpoint_every_records: 8,
    };
    let make = || ExactDecayedSum::new(Exponential::new(0.01));
    let mem = MemStorage::new();
    {
        let (mut d, _) = DurableAggregate::open(Box::new(mem.clone()), opts, make).expect("open");
        for t in 1..60u64 {
            d.observe(t, t % 5 + 1).expect("ingest");
        }
    }
    let store = mem.crashed();
    let files = store.durable_files();
    for prefix in ["wal-", "ckpt-", "manifest"] {
        assert!(
            files.iter().any(|(n, _)| n.starts_with(prefix)),
            "no {prefix} file"
        );
    }
    for (name, bytes) in files {
        // A WAL segment is mutated in its first record, whose header
        // says where it ends; the records after it stay intact.
        let (frame, end) = if name.starts_with("wal-") {
            let len = u64::from_le_bytes(bytes[16..24].try_into().expect("len field"));
            (TDWL, TDWL.payload() + len as usize)
        } else {
            (TDCP, bytes.len())
        };
        let mutants = frame
            .mutants(&bytes[..end], 0xDEC2)
            .into_iter()
            .map(|mut m| {
                m.extend_from_slice(&bytes[end..]);
                m
            })
            .collect();
        sweep(&name, mutants, |m| {
            let damaged = store.crashed();
            damaged.write_atomic(&name, m).expect("write");
            let _ = td_persist::recover(&damaged, 1);
            let _ = DurableAggregate::open(Box::new(damaged), opts, make);
        });
    }
}
