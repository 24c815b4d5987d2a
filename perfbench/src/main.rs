//! The repository benchmark: three closed-loop workloads through the
//! production pipeline, priced end to end (untraced) and layer by layer
//! (traced). See `README.md` in this directory for the workloads and for
//! which end-to-end metric each layer metric should move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! A run repeats fixed-size *rounds* until `--seconds` of timed work are
//! done. Each round builds its pipeline from scratch (timed as set-up),
//! runs a fixed amount of work (timed), and then checks every answer it
//! got against an exact oracle (untimed). Fixed-size rounds make each
//! round's answers a function of the seed alone, not of how fast the
//! machine happened to be. The last line of standard output is the
//! JSON result.

mod cpu;
mod durable;
mod engine;
mod gen;
mod inorder;
mod keyed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, quantile, Quality};

/// End-to-end metrics with a bound, in the result's `metrics`: (name,
/// unit). Two more are printed beside them without a bound:
/// `query_p99_us`, whose samples beyond p99 are mostly the host
/// descheduling a thread the query waits on, and `failed_frac`, which
/// must be 0 and is carried by the result's `attempted` / `failed`.
const END_TO_END: [(&str, &str); 6] = [
    ("ingest_mitems_per_s", "Mitems/s"),
    ("query_p50_us", "us"),
    ("setup_s", "s"),
    ("state_bytes", "bytes"),
    ("rel_error_p99", "ratio"),
    ("envelope_width_p50", "ratio"),
];

/// Per-layer metrics: (name, unit). Layers a workload does not run
/// report 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("reorder.self_ns_per_item", "ns"),
    ("reorder.buffered_items_p99", "count"),
    ("reorder.folded_mass_frac", "ratio"),
    ("shard.submit_ns_per_item", "ns"),
    ("shard.blocked_pushes", "count"),
    ("shard.worker_busy_frac", "ratio"),
    ("shard.query_self_us_p50", "us"),
    ("shard.query_self_us_p99", "us"),
    ("shard.cache_hit_ratio", "ratio"),
    ("shard.ckpt_saves", "count"),
    ("shard.ckpt_save_us_p50", "us"),
    ("ceh.observe_batch_ns_per_item", "ns"),
    ("ceh.merge_us_p50", "us"),
    ("ceh.query_ns", "ns"),
    ("forward.observe_batch_ns_per_item", "ns"),
    ("forward.observe_ns", "ns"),
    ("forward.query_ns", "ns"),
    ("persist.appends", "count"),
    ("persist.append_us_p50", "us"),
    ("persist.wal_bytes_per_item", "bytes"),
    ("persist.syncs", "count"),
    ("persist.sync_us_p50", "us"),
    ("persist.ckpt_write_us_p50", "us"),
    ("persist.ckpt_bytes", "bytes"),
    ("persist.replay_ns_per_entry", "ns"),
    ("registry.ingest_self_ns_per_item", "ns"),
    ("registry.query_self_ns", "ns"),
    ("registry.live_keys", "count"),
    ("registry.bytes_per_live_key", "bytes"),
    ("registry.evictions", "count"),
    ("registry.evicted_slack_frac", "ratio"),
    ("registry.ckpt_save_mb_per_s", "MB/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.timer_ns", "ns"),
];

/// A run needs at least this many query requests (so ≥ 20 samples lie
/// beyond p99) and this many rounds (so set-up has a median).
const MIN_REQUESTS: usize = 2000;
const MIN_ROUNDS: usize = 3;
/// Stop starting rounds after this much wall time, whatever the counts.
const WALL_CAP_S: f64 = 130.0;
/// A latency metric must not be built from calls faster than this.
const TIMING_FLOOR_US: f64 = 1.0;

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub items: u64,
    pub timed_s: f64,
    /// One latency per query request, in µs.
    pub latencies_us: Vec<f64>,
    pub quality: Quality,
    /// Operations issued: ingest calls, query requests, restart checks.
    pub attempted: u64,
    /// Calls that returned an error, recovered-state mismatches, and
    /// unhealthy shards (answers outside their envelope are counted in
    /// `quality`).
    pub failed: u64,
    pub state_bytes: f64,
    /// Threads the process ran at the end of the timed phase.
    pub threads: usize,
    /// Per-layer values this round could measure.
    pub layers: BTreeMap<String, f64>,
}

/// One workload: the threads it runs and its round.
pub trait Workload {
    /// Threads a round runs at once: the producer plus shard workers.
    fn threads(&self) -> usize;
    fn round(&mut self, index: u64, traced: bool) -> Result<Round, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scratch: ".bench_run".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v == "1",
            "--scratch" => a.scratch = v,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn make_workload(a: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match a.workload.as_str() {
        "ingest-inorder" => Box::new(inorder::InOrder::new(a.seed)),
        "late-durable" => Box::new(durable::LateDurable::new(a.seed, &a.scratch)),
        "keyed-zipf" => Box::new(keyed::KeyedZipf::new(a.seed)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Threads this process runs now, from `/proc/self/status`; 0 where
/// the count is unavailable.
pub fn threads_now() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// All digits, as measured; JSON has no infinities.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let timer_ns = trace::timer_ns();
    let mut workload = make_workload(&args)?;
    let nproc = td_bench::host_parallelism();
    let threads = workload.threads();
    if threads > nproc {
        return Err(format!(
            "workload `{}` runs {threads} threads but only {nproc} are available",
            args.workload
        ));
    }
    let cpus = cpu::place(threads)?;
    println!(
        "provenance {{\"commit\": {}, \"source_digest\": {}, \"cpu\": {}, \"nproc\": {nproc}, \
         \"seed\": {}, \"profile\": {}, \"threads\": {threads}, \"pinned_cpus\": {cpus:?}, \
         \"workload\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        json_str(&std::env::var("PERFBENCH_SOURCE_DIGEST").unwrap_or_else(|_| "unknown".into())),
        json_str(&td_bench::cpu_model()),
        args.seed,
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&args.workload),
        args.seconds,
        u8::from(args.trace),
    );
    if args.trace {
        let (inner, outer) = trace::calibrate();
        println!(
            "tracing cost taken out of every span: {inner} ns inside it, {outer} ns around it"
        );
    }

    // Round 0 warms the process up (allocator, page tables, caches): its
    // answers are checked but its timings are dropped. Traced runs then
    // alternate untraced and traced rounds, so the tracing overhead
    // compares rounds measured side by side.
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::<Round>::new(), Vec::<Round>::new());
    let mut warmup = None;
    let mut errors = 0u64;
    for index in 0.. {
        let tracing = args.trace && index > 0 && index % 2 == 0;
        match workload.round(index, tracing) {
            Ok(r) if r.threads > threads => {
                return Err(format!(
                    "round {index} ran {} threads, more than the {threads} the workload declares",
                    r.threads
                ));
            }
            Ok(r) => {
                println!(
                    "round {index}{}: setup {:.4} s, {:.3} Mitems/s over {:.3} s, {} requests, p50 {:.3} us",
                    match (index, tracing) {
                        (0, _) => " (warm-up, not counted)",
                        (_, true) => " (traced)",
                        _ => "",
                    },
                    r.setup_s,
                    r.items as f64 / r.timed_s / 1e6,
                    r.timed_s,
                    r.latencies_us.len(),
                    median(&mut r.latencies_us.clone()),
                );
                match (index, tracing) {
                    (0, _) => warmup = Some(r),
                    (_, true) => traced.push(r),
                    _ => plain.push(r),
                }
            }
            Err(e) => {
                eprintln!("round {index} failed: {e}");
                errors += 1;
            }
        }
        let timed: f64 = plain.iter().chain(&traced).map(|r| r.timed_s).sum();
        let requests: usize = plain.iter().map(|r| r.latencies_us.len()).sum();
        let enough = timed >= args.seconds
            && plain.len() >= MIN_ROUNDS
            && (!args.trace || traced.len() >= MIN_ROUNDS)
            && (args.trace || requests >= MIN_REQUESTS);
        if enough || errors > 0 || started.elapsed().as_secs_f64() > WALL_CAP_S {
            break;
        }
    }
    if plain.is_empty() {
        return Err("no round completed".into());
    }

    let mut quality = Quality::default();
    let (mut attempted, mut failed) = (errors, errors);
    for r in plain.iter_mut().chain(&mut traced).chain(&mut warmup) {
        attempted += r.attempted;
        failed += r.failed;
        quality.absorb(std::mem::take(&mut r.quality));
    }
    failed += quality.failed;

    let mut latencies: Vec<f64> = plain.iter().flat_map(|r| r.latencies_us.clone()).collect();
    let query_p50 = median(&mut latencies);
    if query_p50 < TIMING_FLOOR_US {
        return Err(format!(
            "query latency median {query_p50:.3} us is under the {TIMING_FLOOR_US} us timing \
             floor (timer pair costs {timer_ns} ns): single calls this short cannot be timed steadily"
        ));
    }
    let rate = |rs: &[Round]| {
        let mut v: Vec<f64> = rs
            .iter()
            .map(|r| r.items as f64 / r.timed_s / 1e6)
            .collect();
        median(&mut v)
    };
    let per_round = |rs: &[Round], f: fn(&Round) -> f64| {
        let mut v: Vec<f64> = rs.iter().map(f).collect();
        median(&mut v)
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let pick = |rs: &[Round]| {
                let mut v: Vec<f64> = rs
                    .iter()
                    .filter_map(|r| r.layers.get(name).copied())
                    .collect();
                (!v.is_empty()).then(|| median(&mut v))
            };
            let value = match name {
                "trace.overhead_frac" => 1.0 - rate(&traced) / rate(&plain),
                "trace.timer_ns" => timer_ns,
                _ => pick(&traced).or_else(|| pick(&plain)).unwrap_or(0.0),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let q = &mut quality;
        for (name, unit) in END_TO_END {
            let value = match name {
                "ingest_mitems_per_s" => rate(&plain),
                "query_p50_us" => query_p50,
                "setup_s" => per_round(&plain, |r| r.setup_s),
                // A mean: each round's end state is one draw from its
                // own seeded stream, and a mean of them is steadier.
                "state_bytes" => {
                    plain.iter().map(|r| r.state_bytes).sum::<f64>() / plain.len() as f64
                }
                "rel_error_p99" => quantile(&mut q.rel_errors, 0.99),
                "envelope_width_p50" => median(&mut q.widths),
                _ => unreachable!("every end-to-end metric has a rule"),
            };
            metrics.push((name, value, unit));
        }
    }

    println!(
        "rounds {} untraced + {} traced, {} requests, {} answers checked, {} threads at most, {:.1} s wall",
        plain.len(),
        traced.len(),
        latencies.len(),
        quality.checked,
        plain.iter().chain(&traced).map(|r| r.threads).max().unwrap_or(0),
        started.elapsed().as_secs_f64()
    );
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    if !args.trace {
        let p99 = quantile(&mut latencies, 0.99);
        println!("{:<36} {p99:>16.6} us (no bound)", "query_p99_us");
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "{:<36} {failed_frac:>16.6} ratio (must be 0)",
        "failed_frac"
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
