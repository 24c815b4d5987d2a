//! Every certification matrix through the one certifier: in-order,
//! shard split, fault, lateness, recovery and registry rows, the
//! stacked rows, and the seeded-bug canaries — each failure a one-line
//! `repro ...` that the `repro` binary replays to the same tick.
//!
//! Tier-1 (`cargo test -p td-conformance --test certify`) runs small
//! seed sets. The exhaustive sweeps (`-- --ignored`, one per suite,
//! named `<suite>_exhaustive*`) turn up seeds and stream lengths and
//! kill stores at every byte. Test names start with their suite, so
//! `cargo test --test certify fault_` selects one suite.

use std::sync::Once;

use td_conformance::{
    canaries, catalogue, default_fault_matrix, default_lateness_matrix, default_matrix,
    default_recovery_matrix, default_registry_matrix, drive, has_late_arrivals,
    late_arrival_catalogue, replay, scenario, stacked_cases, Case, Damages, DynOracle, Event,
    LateStream, Oracle, Plain, Repro, RunId, Stream, Suite, Sweep, TruthKind,
};
use td_decay::{ErrorBound, Exponential, Polynomial, SlidingWindow, StreamAggregate, Time};
use td_reorder::LatenessPolicy;

/// Injected worker panics are expected; keep their backtraces out of
/// the output so a real failure stays visible.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn stacked(suite: Suite, name_part: &str) -> Vec<Case> {
    stacked_cases()
        .into_iter()
        .filter(|c| c.suite == suite && c.name.contains(name_part))
        .collect()
}

/// Runs `cases` under `sweep`, requiring every run clean and every run
/// to have answered queries; returns the clean runs.
fn certify(sweep: &Sweep, cases: &[Case]) -> Vec<(RunId, td_conformance::Stats)> {
    let report = sweep.run(cases);
    report.assert_clean();
    for (run, stats) in &report.runs {
        assert!(stats.queries > 0, "{run:?}: no queries ran");
    }
    report.runs
}

#[test]
fn matrices_keep_their_rows() {
    let counts = [
        default_matrix().len(),
        default_fault_matrix().len(),
        default_lateness_matrix().len(),
        default_recovery_matrix().len(),
        default_registry_matrix().len(),
    ];
    assert_eq!(counts, [29, 8, 11, 12, 4]);
    let all = td_conformance::all_cases();
    let mut ids: Vec<String> = all.iter().map(|c| c.id()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), all.len(), "row ids must be unique");
}

#[test]
fn inorder_tier1() {
    certify(&Sweep::new(&[1, 2], 160), &default_matrix());
}

#[test]
#[ignore = "exhaustive sweep: run with `cargo test -p td-conformance -- --ignored`"]
fn inorder_exhaustive() {
    let seeds: Vec<u64> = (0..16).collect();
    certify(&Sweep::new(&seeds, 1_000), &default_matrix());
}

/// Every forward-decay row plus a rotation-heavy reprise (half a nat
/// per rotation) over the full seed set.
#[test]
#[ignore = "exhaustive sweep: run with `cargo test -p td-conformance -- --ignored`"]
fn inorder_exhaustive_forward() {
    let mut rows: Vec<Case> = default_matrix()
        .into_iter()
        .filter(|c| c.name.contains("forward"))
        .collect();
    rows.extend(stacked(Suite::InOrder, "rot0.5"));
    assert!(rows.len() >= 8, "forward rows missing");
    let seeds: Vec<u64> = (0..16).collect();
    certify(&Sweep::new(&seeds, 1_000), &rows);
}

/// The empty/at-tick query convention, pinned across every in-order
/// row: a never-observed summary answers 0.0, and an item observed at
/// the query tick is not yet visible (§2.1).
#[test]
fn inorder_empty_and_at_tick_query_convention_is_uniform() {
    for case in default_matrix() {
        let mut backend = case.backend().expect("in-order rows wrap one backend");
        assert_eq!(backend.query(5), 0.0, "{}: empty must answer 0", case.name);
        backend.observe(7, 3u64.min(case.value_cap.unwrap_or(u64::MAX)));
        assert_eq!(backend.query(7), 0.0, "{}: at-tick item visible", case.name);
        if !matches!(case.truth, TruthKind::Variance { .. }) {
            assert!(
                backend.query(8) > 0.0,
                "{}: item invisible later",
                case.name
            );
        }
    }
}

/// The ε-sweep regression: for ε ∈ {0.5, 0.1, 0.01} the observed worst
/// relative error stays within ε, and storage grows no faster than the
/// theorem curves (Theorem 1's `O(ε⁻¹ log² N)` for the cascaded EH,
/// Lemma 5.1's logarithmic bucket count for WBMH), checked as growth
/// ratios.
#[test]
fn inorder_eps_sweep_error_and_storage_track_the_theorems() {
    use td_ceh::CascadedEh;
    use td_wbmh::Wbmh;

    let epsilons = [0.5, 0.1, 0.01];
    let stream = Stream::Ops(scenario::uniform(3, 800));
    let (mut ceh_bits, mut wbmh_bits) = (Vec::new(), Vec::new());
    for &eps in &epsilons {
        let rows = [
            Case::inorder(
                "ceh-sweep",
                move || Box::new(CascadedEh::new(SlidingWindow::new(512), eps)),
                || Oracle::new(Box::new(SlidingWindow::new(512))),
            ),
            Case::inorder(
                "wbmh-sweep",
                move || Box::new(Wbmh::new(Polynomial::new(1.0), eps, 1 << 30)),
                || Oracle::new(Box::new(Polynomial::new(1.0))),
            ),
        ];
        for (row, bits) in rows.iter().zip([&mut ceh_bits, &mut wbmh_bits]) {
            let stats = row
                .run(&stream, 800, None, &Damages::Stride(1))
                .expect("runs")
                .unwrap_or_else(|r| panic!("{r}"));
            assert!(
                stats.max_rel_err <= eps,
                "{} eps={eps}: max rel err {} exceeds ε",
                row.name,
                stats.max_rel_err
            );
            bits.push(stats.storage_bits as f64);
        }
    }
    // Tightening ε 50× may grow storage at most linearly in 1/ε (with
    // polylog headroom), and never shrink it.
    let budget_ratio = epsilons[0] / epsilons[2];
    for (name, bits) in [("ceh", &ceh_bits), ("wbmh", &wbmh_bits)] {
        assert!(
            bits[2] <= bits[0] * budget_ratio * 1.5,
            "{name}: storage grew faster than 1/ε: {bits:?}"
        );
        assert!(bits[0] <= bits[2], "{name}: storage shrank: {bits:?}");
    }
}

fn exp_oracle() -> DynOracle {
    Oracle::new(Box::new(Exponential::new(0.02)))
}

fn uniform_events(seed: u64, n: usize) -> Vec<Event> {
    let case = Case::inorder("events", || Box::new(exp_oracle()), exp_oracle);
    case.events(&Stream::Ops(scenario::uniform(seed, n)))
}

fn test_run() -> RunId {
    RunId {
        case: "inorder:test".into(),
        family: "uniform".into(),
        seed: 5,
        n: 100,
        bound: None,
        policy: None,
        damage: None,
    }
}

#[test]
fn oracle_certifies_against_itself() {
    let mut sut = Plain(Box::new(exp_oracle()));
    let evs = uniform_events(11, 200);
    let stats = drive(&mut sut, &exp_oracle, TruthKind::Sum, &evs, 0, &test_run())
        .expect("oracle vs oracle must certify");
    assert!(stats.queries > 0);
    assert!(stats.max_rel_err < 1e-12);
}

#[test]
fn certifier_catches_a_broken_backend() {
    // A deliberately wrong backend: doubles every value.
    struct Doubler(DynOracle);
    impl td_decay::StorageAccounting for Doubler {
        fn storage_bits(&self) -> u64 {
            self.0.storage_bits()
        }
    }
    impl StreamAggregate for Doubler {
        fn observe(&mut self, t: Time, f: u64) {
            self.0.observe(t, f * 2);
        }
        fn advance(&mut self, t: Time) {
            StreamAggregate::advance(&mut self.0, t);
        }
        fn query(&self, t: Time) -> f64 {
            self.0.query(t)
        }
        fn merge_from(&mut self, _other: &Self) {
            unimplemented!()
        }
        fn error_bound(&self) -> ErrorBound {
            ErrorBound::symmetric(0.1)
        }
    }
    let evs = uniform_events(5, 100);
    let mut sut = Plain(Box::new(Doubler(exp_oracle())));
    let err = drive(&mut sut, &exp_oracle, TruthKind::Sum, &evs, 0, &test_run())
        .expect_err("a 2x-wrong backend must fail certification");
    assert_eq!(*err.run, test_run());
    assert!(
        evs.contains(&Event::Query(err.tick)),
        "fails at a query tick"
    );
    assert!(err.detail.contains("outside its envelope"), "{err}");
}

#[test]
fn repro_lines_round_trip_through_from_str() {
    use td_conformance::{Damage, DamageKind};
    let late = RunId {
        case: "lateness:exact/exp".into(),
        family: "late-heavy-tail".into(),
        seed: 0xBEEF,
        n: 200,
        bound: Some(4),
        policy: Some(LatenessPolicy::Fold),
        damage: None,
    };
    let crash = RunId {
        damage: Some(Damage {
            file: "wal-000000000000.seg".into(),
            kind: DamageKind::Truncate(137),
        }),
        ..test_run()
    };
    for r in [
        Repro::new(&test_run(), 321, None, "boom\nsecond line"),
        Repro::new(&late, 7, Some(12), "x :: y"),
        Repro::new(&crash, 0, None, "recovery panicked"),
    ] {
        let line = r.to_string();
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(line.parse::<Repro>(), Ok(r), "{line}");
    }
}

#[test]
fn registry_key_fan_out_is_deterministic() {
    let rows = default_registry_matrix();
    let stream = Stream::Ops(scenario::bursty(3, 300));
    assert_eq!(rows[0].events(&stream), rows[0].events(&stream));
    assert!(rows[0]
        .events(&stream)
        .iter()
        .any(|e| matches!(e, Event::Keyed(items) if items.iter().any(|&(k, ..)| k > 0))));
}

#[test]
fn split_tier1() {
    certify(&Sweep::new(&[9], 200), &stacked(Suite::Split, ""));
}

#[test]
fn fault_tier1() {
    quiet_injected_panics();
    let runs = certify(&Sweep::new(&[3, 11], 160), &default_fault_matrix());
    assert!(
        runs.len() >= 2 * 6,
        "sweep was mostly vacuous: {}",
        runs.len()
    );
}

#[test]
#[ignore = "exhaustive fault sweep; run in the nightly CI job"]
fn fault_exhaustive() {
    quiet_injected_panics();
    let seeds = [0, 1, 2, 5, 7, 13, 42, 99, 1234, 0xBEEF];
    certify(&Sweep::new(&seeds, 400), &default_fault_matrix());
}

/// The shard panic fires while the reorder stage in front of the engine
/// still holds buffered out-of-order items (a run whose stage was empty
/// at the panic is rejected as vacuous).
#[test]
fn fault_tier1_reordered() {
    quiet_injected_panics();
    let sweep = Sweep {
        bounds: vec![8],
        ..Sweep::new(&[3, 11], 200)
    };
    let runs = certify(&sweep, &stacked(Suite::Fault, "reordered"));
    assert!(runs.len() >= 2 * 8, "reordered sweep was mostly vacuous");
}

#[test]
#[ignore = "exhaustive reordered fault sweep; run in the nightly CI job"]
fn fault_exhaustive_reordered() {
    quiet_injected_panics();
    let sweep = Sweep {
        bounds: vec![8],
        ..Sweep::new(&[0, 1, 2, 5, 7, 13, 42, 99], 600)
    };
    certify(&sweep, &stacked(Suite::Fault, "reordered"));
}

fn lateness_sweep(seeds: &[u64], n: usize, bounds: &[u64]) {
    let sweep = Sweep {
        bounds: bounds.to_vec(),
        ..Sweep::new(seeds, n)
    };
    let late = seeds.iter().any(|&s| {
        bounds.iter().any(|&b| {
            late_arrival_catalogue(s, n, b)
                .iter()
                .any(has_late_arrivals)
        })
    });
    assert!(late, "lateness sweep exercised no genuinely late arrivals");
    certify(&sweep, &default_lateness_matrix());
}

#[test]
fn lateness_tier1() {
    lateness_sweep(&[1, 2], 160, &[6]);
}

#[test]
#[ignore = "exhaustive lateness sweep: run with `cargo test -p td-conformance -- --ignored`"]
fn lateness_exhaustive() {
    let seeds: Vec<u64> = (0..12).collect();
    lateness_sweep(&seeds, 800, &[1, 6, 40]);
}

/// Every byte of every durable file, on the cheapest exact backend.
#[test]
fn recovery_every_byte_exact_exp() {
    let rows: Vec<Case> = default_recovery_matrix()
        .into_iter()
        .filter(|c| c.name == "exact/exp")
        .collect();
    let sweep = Sweep {
        damages: Damages::Stride(1),
        ..Sweep::new(&[0xD1E], 40)
    };
    for (run, stats) in certify(&sweep, &rows) {
        assert_eq!(stats.sweeps, 2 * stats.durable_bytes, "{}", run.family);
        assert!(stats.recovered > 0, "{}: nothing recovered", run.family);
        assert!(stats.refused > 0, "{}: nothing refused", run.family);
    }
}

/// The full matrix plus the keyed durable registry at a prime stride:
/// every backend family meets every scenario family, hitting every
/// byte-region class (headers, lengths, payloads, checksums,
/// checkpoint envelopes, manifest).
#[test]
fn recovery_tier1() {
    let mut rows = default_recovery_matrix();
    rows.extend(stacked(Suite::Recovery, ""));
    for (run, stats) in certify(&Sweep::new(&[0xA11CE], 60), &rows) {
        assert!(stats.recovered > 0, "{run:?}: nothing recovered");
    }
}

/// The nightly job: every recovery row, the keyed durable registry
/// included, at stride 1 over more seeds and longer streams.
#[test]
#[ignore = "exhaustive kill-at-every-byte sweep; run in the nightly CI job"]
fn recovery_exhaustive() {
    let mut rows = default_recovery_matrix();
    rows.extend(stacked(Suite::Recovery, ""));
    let sweep = Sweep {
        damages: Damages::Stride(1),
        ..Sweep::new(&[0x1, 0x5EED, 0xDEAD_BEEF], 120)
    };
    for (run, stats) in certify(&sweep, &rows) {
        assert_eq!(stats.sweeps, 2 * stats.durable_bytes, "{run:?}");
    }
}

#[test]
fn registry_tier1() {
    for (run, stats) in certify(&Sweep::new(&[1, 2], 160), &default_registry_matrix()) {
        assert!(stats.checks >= stats.queries, "{run:?}: keys unchecked");
    }
}

/// The eviction row must actually evict in tier-1, or its widened
/// envelope arm is dead code.
#[test]
fn registry_evicting_case_actually_evicts() {
    let rows: Vec<Case> = default_registry_matrix()
        .into_iter()
        .filter(|c| c.name.contains("evicting"))
        .collect();
    let runs = certify(&Sweep::new(&[0, 1, 2, 3], 400), &rows);
    let evictions: u64 = runs.iter().map(|(_, s)| s.evictions).sum();
    assert!(evictions > 0, "eviction row never evicted");
}

#[test]
#[ignore = "exhaustive sweep: run with `cargo test -p td-conformance -- --ignored`"]
fn registry_exhaustive() {
    let seeds: Vec<u64> = (0..16).collect();
    certify(&Sweep::new(&seeds, 1_000), &default_registry_matrix());
}

/// Many keys, a hot eviction threshold, and a sweep that visits every
/// slot almost every call, at three fan-outs.
#[test]
#[ignore = "exhaustive sweep: run with `cargo test -p td-conformance -- --ignored`"]
fn registry_exhaustive_hot() {
    let seeds: Vec<u64> = (0..12).collect();
    certify(&Sweep::new(&seeds, 800), &stacked(Suite::Registry, "hot"));
}

fn canary(name: &str) -> Case {
    canaries()
        .into_iter()
        .find(|c| c.name == name)
        .expect("canary exists")
}

/// Runs a canary on `stream`, which must fail with a repro.
fn caught(name: &str, stream: Stream, n: usize, policy: Option<LatenessPolicy>) -> Repro {
    canary(name)
        .run(&stream, n, policy, &Damages::Stride(7))
        .expect("canary runs this stream")
        .expect_err("the seeded bug must fail closed")
}

/// One bucket of a WBMH corrupted fifty-fold must fail certification
/// with the replayable seed, family and probe tick.
#[test]
fn corrupting_one_bucket_is_caught_with_replayable_seed() {
    let sc = scenario::uniform(42, 400);
    let probe = sc.max_time() + 1;
    let err = caught("wbmh-corrupt-bucket", Stream::Ops(sc.clone()), 400, None);
    assert_eq!((err.run.seed, err.run.family.as_str()), (42, "uniform"));
    assert_eq!(err.tick, probe);
    let line = err.to_string();
    assert!(
        line.contains("seed=0x2a") && line.contains("family=uniform"),
        "{line}"
    );
    // The pristine histogram certifies the same stream.
    let pristine = default_matrix()
        .into_iter()
        .find(|c| c.name == "wbmh/poly1")
        .expect("row");
    let ok = pristine.run(&Stream::Ops(sc), 400, None, &Damages::Stride(7));
    assert!(matches!(ok, Some(Ok(_))), "pristine histogram must certify");
}

/// A stage configured looser than the stream's bound silently accepts
/// beyond-bound mass; the simulated fates catch it. The correct stage
/// certifies the same stream (with rejections), and a stream declared
/// with the loose bound certifies too.
#[test]
fn a_stage_with_the_wrong_bound_is_caught() {
    let stream = late_arrival_catalogue(7, 200, 4)
        .into_iter()
        .find(|s| s.name == "late-heavy-tail")
        .expect("heavy-tail family exists");
    assert!(has_late_arrivals(&stream));
    let reject = Some(LatenessPolicy::Reject);
    let err = caught(
        "reorder-wrong-bound",
        Stream::Late(stream.clone()),
        200,
        reject,
    );
    // The loose stage holds back a watermark the simulation has
    // already advanced, then accepts mass the simulation rejects.
    assert!(err.detail.contains("watermark"), "{err}");
    assert_eq!(err.run.bound, Some(4));

    let exact = &default_lateness_matrix()[0];
    let loose = LateStream {
        bound: 400,
        ..stream.clone()
    };
    for s in [stream, loose] {
        let ok = exact.run(&Stream::Late(s), 200, reject, &Damages::Stride(7));
        assert!(matches!(ok, Some(Ok(_))), "{ok:?}");
    }
}

/// Every seeded bug fails closed, and its repro line parses back and
/// replays — through the library and through the `repro` binary — to
/// the same failing tick.
#[test]
fn canary_repros_replay_to_the_same_tick() {
    quiet_injected_panics();
    let heavy = late_arrival_catalogue(7, 200, 4)
        .into_iter()
        .find(|s| s.name == "late-heavy-tail")
        .expect("family");
    let corrupt = catalogue(3, 160)
        .into_iter()
        .find(|s| s.name == "uniform")
        .expect("family");
    let repros = [
        caught(
            "wbmh-corrupt-bucket",
            Stream::Ops(scenario::uniform(42, 400)),
            400,
            None,
        ),
        caught(
            "reorder-wrong-bound",
            Stream::Late(heavy),
            200,
            Some(LatenessPolicy::Reject),
        ),
        caught("corrupt-ckpt-unchecked", Stream::Ops(corrupt), 160, None),
        caught(
            "registry-phantom-mass",
            Stream::Ops(scenario::uniform(42, 300)),
            300,
            None,
        ),
    ];
    assert_eq!(repros.len(), canaries().len());
    for r in repros {
        let line = r.to_string();
        let parsed: Repro = line.parse().unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(parsed, r);
        let again = replay(&parsed.run)
            .expect("replayable")
            .expect_err("fails again");
        assert_eq!((&again.run, again.tick, again.key), (&r.run, r.tick, r.key));

        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(&line)
            .output()
            .expect("run the repro binary");
        let printed = String::from_utf8_lossy(&out.stdout);
        let back: Repro = printed
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{e}: {printed}"));
        assert_eq!((&back.run, back.tick, back.key), (&r.run, r.tick, r.key));
        assert_eq!(
            out.status.code(),
            Some(1),
            "repro exits 1 on a reproduced failure"
        );
    }
}
