//! Thread placement. A run pins the producer to one CPU and every shard
//! worker to another, so the two threads never share a CPU because the
//! scheduler happened to place a woken worker beside the producer. The
//! worker is spawned by the library; it inherits the affinity of the
//! thread that spawns it, so the producer builds engines from inside
//! [`on_worker_cpu`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// `cpu_set_t`: 1,024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

static PRODUCER: AtomicUsize = AtomicUsize::new(usize::MAX);
static WORKER: AtomicUsize = AtomicUsize::new(usize::MAX);

fn allowed() -> Result<Vec<usize>, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
        .collect())
}

fn pin(cpu: usize) {
    if cpu == usize::MAX {
        return;
    }
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread. `cpu` came from the allowed set,
    // so the call cannot leave the thread without a CPU.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(
        rc,
        0,
        "sched_setaffinity({cpu}): {}",
        std::io::Error::last_os_error()
    );
}

/// Pins the calling (producer) thread to the first CPU it may run on,
/// and reserves the next one for shard workers when `threads` is 2.
/// Returns the CPUs chosen.
pub fn place(threads: usize) -> Result<Vec<usize>, String> {
    let cpus: Vec<usize> = allowed()?.into_iter().take(threads).collect();
    if cpus.len() < threads {
        return Err(format!(
            "{threads} threads need {threads} CPUs, {} allowed",
            cpus.len()
        ));
    }
    PRODUCER.store(cpus[0], Ordering::Relaxed);
    WORKER.store(*cpus.get(1).unwrap_or(&usize::MAX), Ordering::Relaxed);
    pin(cpus[0]);
    Ok(cpus)
}

/// Runs `f` (which spawns shard workers) on the worker CPU, then moves
/// the calling thread back to the producer CPU.
pub fn on_worker_cpu<R>(f: impl FnOnce() -> R) -> R {
    pin(WORKER.load(Ordering::Relaxed));
    let r = f();
    pin(PRODUCER.load(Ordering::Relaxed));
    r
}
