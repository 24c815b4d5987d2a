//! Host identification stamped into every benchmark JSON row.
//!
//! Throughput numbers are meaningless without the machine they were
//! measured on: the committed `BENCH_throughput.json` baseline gates
//! runs on whatever host reads it, and a row copied out of the file
//! must still say where it came from. Rather than relying on a header
//! field readers may drop when they copy single rows around, every row
//! carries the `host_parallelism` and CPU model it was measured under.

/// The number of hardware threads the benchmark process may use
/// (`std::thread::available_parallelism`, so cgroup/affinity limits are
/// respected), with 1 as the conservative fallback.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo` (`"unknown"` off Linux or
/// when the field is absent), JSON-safe: quotes and backslashes are
/// stripped rather than escaped.
pub fn cpu_model() -> String {
    let raw = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    raw.lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            if key.trim() == "model name" {
                Some(value.trim().to_string())
            } else {
                None
            }
        })
        .unwrap_or_else(|| "unknown".to_string())
        .chars()
        .filter(|c| *c != '"' && *c != '\\')
        .collect()
}

/// The `"host_parallelism": …, "cpu": "…"` JSON fragment every
/// benchmark row embeds (no leading/trailing separators).
pub fn json_fragment() -> String {
    format!(
        "\"host_parallelism\": {}, \"cpu\": \"{}\"",
        host_parallelism(),
        cpu_model()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_positive() {
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn cpu_model_is_json_safe() {
        let m = cpu_model();
        assert!(!m.is_empty());
        assert!(!m.contains('"') && !m.contains('\\'));
    }

    #[test]
    fn fragment_shape() {
        let f = json_fragment();
        assert!(f.starts_with("\"host_parallelism\": "));
        assert!(f.contains("\"cpu\": \""));
    }
}
