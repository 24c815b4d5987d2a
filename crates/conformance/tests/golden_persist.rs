//! Golden on-disk durability fixtures: a complete `td-persist` store —
//! WAL segment(s), checkpoint envelope, manifest — captured from a
//! known-good build is committed under `tests/golden/persist/v<N>/`,
//! one directory per on-disk format version `N`, and every later build
//! must either recover it **exactly** (same entry count, same query
//! bits) or refuse it with the *typed* `RestoreError::Version(_)` —
//! never a silent mis-recovery. Stores of older versions stay committed
//! and checked, so a format bump proves it refuses them typed.
//!
//! This pins the durable format end to end: the 32-byte WAL record
//! header and entry packing, the `ckpt-*.tdcp` envelope (including
//! `PERSIST_FORMAT_VERSION`), and the `manifest.tdcp` pointer file. A
//! build may change in-memory layout freely, but the bytes it writes
//! and the bytes it accepts are contract.
//!
//! Regenerate the current version's fixtures (only when deliberately
//! re-baselining the on-disk format, from a build whose format is the
//! one being pinned; older versions' directories are left alone):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p td-conformance --test golden_persist
//! ```

use std::fs;
use std::path::PathBuf;

use td_ceh::CascadedEh;
use td_conformance::{catalogue, Op, Scenario};
use td_counters::ExactDecayedSum;
use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{Exponential, StreamAggregate, Time};
use td_persist::{
    DurabilityOptions, DurableAggregate, MemStorage, Storage, StoreOptions, SyncPolicy,
    PERSIST_FORMAT_VERSION,
};

const QUERY_OFFSETS: [u64; 3] = [1, 5, 1000];

/// `(entries_applied, query bits at the probe ticks)` from a live run.
type DriveResult = (u64, Vec<(Time, u64)>);
/// Query closure over the recovered backend.
type QueryFn = Box<dyn Fn(Time) -> f64>;
/// Durable replay of one scenario into a fresh store.
type RunFn = Box<dyn Fn(MemStorage, &Scenario) -> DriveResult>;

/// Fixed tuning for every fixture: small segments force rotation (so
/// the fixture pins multi-segment recovery), and a cadence co-prime to
/// the scenario's record count leaves both a checkpoint *and* a live
/// WAL tail on disk — the fixture pins the record format too.
fn opts() -> DurabilityOptions {
    DurabilityOptions {
        store: StoreOptions {
            segment_bytes: 1024,
            sync: SyncPolicy::EveryRecord,
        },
        checkpoint_every_records: 17,
    }
}

struct GoldenCase {
    name: &'static str,
    run: RunFn,
}

/// Ingests the scenario durably and returns `(entries_applied, query
/// bits at the probe ticks)` from the live (pre-crash) aggregate.
fn drive<B, F>(make: F, storage: MemStorage, scenario: &Scenario) -> DriveResult
where
    B: StreamAggregate + Checkpoint,
    F: FnOnce() -> B,
{
    let (mut agg, _) = DurableAggregate::open(Box::new(storage), opts(), make).expect("fresh open");
    let mut entries = 0u64;
    for op in &scenario.ops {
        match op {
            Op::Observe(t, f) => {
                agg.observe(*t, *f).expect("mem append");
                entries += 1;
            }
            Op::ObserveBatch(items) => {
                agg.observe_batch(items).expect("mem append");
                entries += items.len() as u64;
            }
            Op::Advance(t) => {
                agg.advance(*t).expect("mem append");
                entries += 1;
            }
            Op::Query(_) => {}
        }
    }
    let queries = QUERY_OFFSETS
        .iter()
        .map(|dt| {
            let t = scenario.max_time() + dt;
            (t, agg.query(t).to_bits())
        })
        .collect();
    (entries, queries)
}

fn cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            name: "exact/exp",
            run: Box::new(|storage, sc| {
                drive(|| ExactDecayedSum::new(Exponential::new(0.01)), storage, sc)
            }),
        },
        GoldenCase {
            name: "ceh/exp",
            run: Box::new(|storage, sc| {
                drive(|| CascadedEh::new(Exponential::new(0.01), 0.1), storage, sc)
            }),
        },
    ]
}

/// Opening the fixture store must use the same backend constructors.
fn reopen(
    name: &str,
    storage: MemStorage,
) -> Result<(QueryFn, td_persist::RecoveryReport), RestoreError> {
    match name {
        "exact/exp" => {
            let (agg, stats) = DurableAggregate::open(Box::new(storage), opts(), || {
                ExactDecayedSum::new(Exponential::new(0.01))
            })?;
            Ok((Box::new(move |t| agg.inner().query(t)), stats))
        }
        "ceh/exp" => {
            let (agg, stats) = DurableAggregate::open(Box::new(storage), opts(), || {
                CascadedEh::new(Exponential::new(0.01), 0.1)
            })?;
            Ok((Box::new(move |t| agg.inner().query(t)), stats))
        }
        other => panic!("unknown golden case {other}"),
    }
}

/// The bursty family: multi-class bucket structure, batch and scalar
/// ingest, long enough at n=160 to rotate 1 KiB segments and cross
/// several checkpoint cadences.
fn fixture_scenario() -> Scenario {
    catalogue(5, 160).into_iter().nth(1).expect("bursty family")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/persist"))
}

/// Every committed format version, oldest first; the current one must
/// be among them.
fn fixture_versions() -> Vec<u32> {
    let mut versions: Vec<u32> = fs::read_dir(golden_dir())
        .expect("golden persist dir")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name();
            name.to_str()?.strip_prefix('v')?.parse().ok()
        })
        .collect();
    versions.sort_unstable();
    assert!(
        versions.contains(&PERSIST_FORMAT_VERSION),
        "no golden store for the current format version {PERSIST_FORMAT_VERSION}"
    );
    versions
}

#[test]
fn golden_store_recovers_exactly_or_fails_typed() {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let versions = if regen {
        vec![PERSIST_FORMAT_VERSION]
    } else {
        fixture_versions()
    };
    for version in versions {
        check_version(version, regen);
    }
}

fn check_version(version: u32, regen: bool) {
    let scenario = fixture_scenario();
    for case in cases() {
        let dir = golden_dir()
            .join(format!("v{version}"))
            .join(case.name.replace('/', "_"));
        let expect_path = dir.join("expect.manifest");

        if regen {
            fs::create_dir_all(&dir).expect("create fixture dir");
            // Clear stale files so the fixture is exactly one store.
            for entry in fs::read_dir(&dir).expect("read fixture dir") {
                fs::remove_file(entry.expect("dir entry").path()).expect("clear stale fixture");
            }
            let mem = MemStorage::new();
            let (entries, queries) = (case.run)(mem.clone(), &scenario);
            let mut expect = format!("format_version={PERSIST_FORMAT_VERSION}\n");
            expect.push_str(&format!("entries={entries}\n"));
            for (name, bytes) in mem.crashed().durable_files() {
                expect.push_str(&format!("f {} {}\n", name, bytes.len()));
                fs::write(dir.join(&name), bytes).expect("write fixture file");
            }
            for (t, bits) in queries {
                expect.push_str(&format!("q {t} {bits}\n"));
            }
            fs::write(&expect_path, expect).expect("write expect.manifest");
            continue;
        }

        let expect = fs::read_to_string(&expect_path).unwrap_or_else(|e| {
            panic!(
                "missing golden store fixture {} ({e}); regenerate with GOLDEN_REGEN=1 \
                 only from a build whose on-disk format is the pinned one",
                expect_path.display()
            )
        });
        let mut pinned_version = None;
        let mut want_entries = None;
        let mut queries: Vec<(Time, u64)> = Vec::new();
        let mem = MemStorage::new();
        for line in expect.lines() {
            if let Some(v) = line.strip_prefix("format_version=") {
                pinned_version = Some(v.parse::<u32>().expect("format_version u32"));
            } else if let Some(v) = line.strip_prefix("entries=") {
                want_entries = Some(v.parse::<u64>().expect("entries u64"));
            } else if let Some(rest) = line.strip_prefix("f ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("file name");
                let len: usize = parts.next().expect("file len").parse().expect("len usize");
                let bytes = fs::read(dir.join(name)).unwrap_or_else(|e| {
                    panic!("golden store file {name} listed in manifest but unreadable: {e}")
                });
                assert_eq!(
                    bytes.len(),
                    len,
                    "{}: fixture file {name} resized",
                    case.name
                );
                mem.write_atomic(name, &bytes).expect("load fixture file");
            } else if let Some(rest) = line.strip_prefix("q ") {
                let mut parts = rest.split_whitespace();
                let t: Time = parts.next().unwrap().parse().unwrap();
                let bits: u64 = parts.next().unwrap().parse().unwrap();
                queries.push((t, bits));
            }
        }
        let pinned_version = pinned_version.expect("expect.manifest format_version line");
        let want_entries = want_entries.expect("expect.manifest entries line");
        assert_eq!(
            pinned_version, version,
            "{}: fixture under v{version}/ pins format_version={pinned_version}",
            case.name
        );

        match reopen(case.name, mem) {
            Ok((query, stats)) => {
                // Accepted ⇒ the fixture's version must be the current
                // one, recovery must be lossless (the fixture was synced
                // per record and closed cleanly), and every recorded
                // answer must reproduce bit-for-bit.
                assert_eq!(
                    pinned_version, PERSIST_FORMAT_VERSION,
                    "{}: reader accepted a fixture pinned at a different \
                     format version — version gate is broken",
                    case.name
                );
                assert!(
                    stats.crash_tail.is_none(),
                    "{}: clean fixture read as torn",
                    case.name
                );
                assert_eq!(
                    stats.entries_applied, want_entries,
                    "{}: golden store recovered a different entry count",
                    case.name
                );
                for (t, want) in queries {
                    let got = query(t);
                    assert_eq!(
                        got.to_bits(),
                        want,
                        "{}: query({t}) after golden recovery = {got}, want {} — \
                         recovered state drifted from the pinned format",
                        case.name,
                        f64::from_bits(want)
                    );
                }
            }
            // A deliberate format bump may refuse old stores, but only
            // with the typed version error, and only when the pinned
            // version really is older.
            Err(RestoreError::Version(v)) => {
                assert_ne!(
                    pinned_version, PERSIST_FORMAT_VERSION,
                    "{}: current-version fixture refused as Version({v})",
                    case.name
                );
                assert_eq!(
                    u32::from(v),
                    pinned_version,
                    "{}: a v{pinned_version} store refused as Version({v})",
                    case.name
                );
            }
            Err(e) => panic!(
                "{}: golden store rejected with non-version error {e} — a valid \
                 committed store must recover or fail Version",
                case.name
            ),
        }
    }
}
