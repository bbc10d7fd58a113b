//! Measurement plumbing owned by the benchmark: a tallying allocator,
//! in-memory span records with self-time accounting, percentile helpers,
//! and the process's peak resident set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Counts heap allocations (alloc + realloc + alloc_zeroed) on every
/// thread of the process, so `*.allocs_per_job` is a measured count.
pub struct TallyingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Allocations made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time this process has used so far, over all its threads, in
/// seconds; 0 where the clock is unavailable. Time the hypervisor stole
/// from its vCPU is not counted.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (64-bit Linux layout).
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_s() -> f64 {
    0.0
}

/// The host's CPU time so far, in ticks summed over CPUs, as (stolen by
/// the hypervisor, total); zeros when `/proc` is unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Nearest-rank quantile of an ascending slice; `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` and returns its `q` quantile.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// One span recorded from the benchmark's side of a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span in the same recorder; 0 for a root.
    pub parent: usize,
    pub job: u64,
}

impl SpanRec {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The instant span timestamps count from, fixed on first use.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Spans one recorder keeps; later spans are counted, not stored, so a
/// traced run's memory and span file stay bounded.
const MAX_SPANS: usize = 100_000;

/// Span records of one thread (or one phase), kept in memory until the
/// run ends. A disabled recorder records nothing.
pub struct Spans {
    enabled: bool,
    pub recs: Vec<SpanRec>,
    pub dropped: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        epoch();
        Self {
            enabled,
            recs: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a finished span; returns its parent handle for children
    /// (0 when recording is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        if self.recs.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let ns = |t: Instant| t.saturating_duration_since(epoch()).as_nanos() as u64;
        self.recs.push(SpanRec {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            job,
        });
        self.recs.len()
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Spans) {
        self.dropped += other.dropped;
        let base = self.recs.len();
        self.recs.extend(other.recs.into_iter().map(|mut r| {
            if r.parent != 0 {
                r.parent += base;
            }
            r
        }));
    }

    /// Mean self time (µs) per span name, grouped by layer: each
    /// span's duration minus the time its direct children cover.
    pub fn self_time_us(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if r.parent != 0 {
                child_ns[r.parent - 1] += r.end_ns - r.start_ns;
            }
        }
        let mut sums: BTreeMap<_, (u64, u64)> = BTreeMap::new();
        for (r, children) in self.recs.iter().zip(child_ns) {
            let own = (r.end_ns - r.start_ns).saturating_sub(children);
            let e = sums.entry((r.layer(), r.name)).or_default();
            e.0 += own;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (ns, n))| (k, ns as f64 / 1e3 / n as f64))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                i + 1,
                r.name,
                r.start_ns,
                r.end_ns,
                r.parent,
                r.job
            )?;
        }
        out.flush()
    }
}

/// Latency counts in logarithmic bins 0.1% wide, for quantiles pooled
/// over a whole phase in fixed memory. Infinite (failed) samples count
/// only in the total, so they rank above every finite one.
pub struct LogHistogram {
    bins: Vec<u32>,
    total: u64,
}

impl LogHistogram {
    /// Bins per factor e of latency: 0.1% relative resolution.
    const PER_E: f64 = 1000.0;
    /// Latencies from 0.01 µs to about 10^8 µs get bins of their own.
    const MIN_US: f64 = 0.01;
    const BINS: usize = 23_100;

    pub fn new() -> Self {
        Self {
            bins: vec![0; Self::BINS],
            total: 0,
        }
    }

    pub fn record(&mut self, latency_us: f64) {
        self.total += 1;
        if !latency_us.is_finite() {
            return;
        }
        let bin = ((latency_us.max(Self::MIN_US) / Self::MIN_US).ln() * Self::PER_E) as usize;
        self.bins[bin.min(Self::BINS - 1)] += 1;
    }

    /// Samples recorded, failed ones included.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank `q` quantile, as its bin's geometric centre; `NaN`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bin, &n) in self.bins.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return Self::MIN_US * ((bin as f64 + 0.5) / Self::PER_E).exp();
            }
        }
        f64::INFINITY
    }
}
