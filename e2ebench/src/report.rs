//! Metric collection, the result line, and small shared helpers.

use crate::trace::{Tracer, LAYERS};
use jrsnd_sim::metrics::MetricsSnapshot;
use std::collections::BTreeMap;

/// What one workload run produced.
pub struct Run {
    /// Operations per pass: sessions, or physical pairs.
    pub attempted: u64,
    /// Outcome digest of one pass.
    pub digest: u64,
    /// Worker threads the measured calls used.
    pub workers: usize,
    /// Measured passes.
    pub passes: usize,
    /// The metrics of this mode (end-to-end or per-layer).
    pub metrics: Metrics,
}

/// Named metric values.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

/// Registry counters recorded beside the span times, by name.
const REGISTRY: [&str; 13] = [
    "dsss.scan_correlations",
    "dsss.sync_hits",
    "dsss.frames_failed",
    "ecc.blocks_encoded",
    "ecc.blocks_decoded",
    "crypto.hashes",
    "crypto.cache_hits",
    "wire.frames_parsed",
    "engine.shared_scan_passes",
    "scale.events",
    "network.physical_pairs",
    "network.dndp_pairs",
    "network.mndp_pairs",
];

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Per-layer self times and `other_s` from a traced replay, after
    /// checking that they add up to its wall time; also writes the spans
    /// to `e2ebench-trace/<workload>.spans.csv`.
    pub fn attribution(&mut self, tracer: &Tracer, workload: &str) -> Result<(), String> {
        let a = tracer
            .attribute()
            .map_err(|e| format!("attribution check: {e}"))?;
        for layer in LAYERS {
            if let Some(name) = layer.metric() {
                self.set(name, a.self_s(layer));
            }
        }
        self.set("other_s", a.other_s());
        let path = std::path::Path::new("e2ebench-trace").join(format!("{workload}.spans.csv"));
        tracer
            .write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Moves every metric of `other` into `self`.
    pub fn merge(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The registry counters of interest from `snap`.
    pub fn registry(&mut self, snap: &MetricsSnapshot) {
        for name in REGISTRY {
            self.set(name, snap.counter(name).unwrap_or(0) as f64);
        }
    }

    /// Fails unless every registry counter equals `other`'s: the counts
    /// must repeat exactly from one pass to the next.
    pub fn same_registry(&self, other: &Metrics) -> Result<(), String> {
        for name in REGISTRY {
            if self.get(name) != other.get(name) {
                return Err(format!(
                    "registry counter {name} did not repeat: {:?} vs {:?}",
                    self.get(name),
                    other.get(name)
                ));
            }
        }
        Ok(())
    }
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `wanted` workers, capped at the online CPUs.
pub fn workers(wanted: usize) -> usize {
    wanted.min(nproc())
}

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}

/// The process's peak resident set so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    // Linux's 64-bit `struct rusage`: two `timeval`s (four longs), then
    // fourteen longs starting with `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a live, writable buffer exactly the size of the
    // C `struct rusage`, so the kernel writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage[4] as f64 / 1024.0
}
