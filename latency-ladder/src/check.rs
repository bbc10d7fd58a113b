//! The correctness gate: every report the program returns is
//! fingerprinted as it arrives and, after the timed phase, compared with
//! an in-process `QueryJob::execute` of the same job.
//!
//! Fingerprints stream to a file under `latency-ladder/out/` rather
//! than memory, so the benchmark's own footprint does not grow with the
//! number of jobs a run completes and `peak_rss_mib` stays the
//! program's.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::num::NonZeroU32;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tcast::{fingerprint64, QueryReport, WireEncode};

use crate::gen::Workload;

/// A report's full wire encoding.
pub fn encoded(report: &QueryReport) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    report.encode(&mut buf);
    buf
}

/// 32-bit fingerprint (folded FNV-1a) of an encoded report.
pub fn fingerprint_of(encoded: &[u8]) -> NonZeroU32 {
    let h = fingerprint64(encoded);
    NonZeroU32::new((h ^ (h >> 32)) as u32).unwrap_or(NonZeroU32::MIN)
}

/// Fingerprint of a report's full wire encoding.
pub fn fingerprint(report: &QueryReport) -> NonZeroU32 {
    fingerprint_of(&encoded(report))
}

/// Directory for the run's own output files (fingerprints, spans).
pub fn out_dir() -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "out"].iter().collect()
}

/// Report fingerprints of consecutive job indices from `first`, one
/// `u32` a job on disk (0 where the job failed).
pub struct Fingerprints {
    first: u64,
    jobs: u64,
    path: PathBuf,
    out: BufWriter<File>,
}

impl Fingerprints {
    pub fn new(first: u64) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("fps-{}-{n}.bin", std::process::id()));
        let out = BufWriter::new(File::create(&path)?);
        Ok(Self {
            first,
            jobs: 0,
            path,
            out,
        })
    }

    /// Records the next job's report fingerprint, or its failure.
    pub fn push(&mut self, fingerprint: Option<NonZeroU32>) {
        let v = fingerprint.map_or(0, NonZeroU32::get);
        self.out
            .write_all(&v.to_le_bytes())
            .expect("fingerprint file is writable");
        self.jobs += 1;
    }

    /// The job index the next [`Self::push`] records.
    pub fn next_index(&self) -> u64 {
        self.first + self.jobs
    }

    /// Re-executes every completed job in-process and compares report
    /// fingerprints, a block at a time over all CPUs. Jobs that repeat
    /// an already executed job (same [`Workload::source`]) reuse its
    /// expected fingerprint. Returns the first mismatching job index.
    pub fn verify(&mut self, workload: Workload, seed: u64) -> Result<Result<(), u64>, String> {
        const BLOCK: usize = 1 << 16;
        self.out
            .flush()
            .map_err(|e| format!("flush fingerprints: {e}"))?;
        let mut input = BufReader::new(
            File::open(&self.path).map_err(|e| format!("reopen fingerprints: {e}"))?,
        );
        let mut expected: HashMap<u64, NonZeroU32> = HashMap::new();
        let mut bytes = vec![0u8; 4 * BLOCK];
        let mut base = self.first;
        let mut left = self.jobs;
        while left > 0 {
            let n = left.min(BLOCK as u64) as usize;
            input
                .read_exact(&mut bytes[..4 * n])
                .map_err(|e| format!("read fingerprints: {e}"))?;
            let got: Vec<(u64, NonZeroU32)> = (base..)
                .zip(bytes[..4 * n].chunks_exact(4))
                .filter_map(|(i, b)| {
                    NonZeroU32::new(u32::from_le_bytes([b[0], b[1], b[2], b[3]])).map(|fp| (i, fp))
                })
                .collect();
            if expected.len() > CACHE_LIMIT {
                expected.clear();
            }
            let mut missing: Vec<u64> = got
                .iter()
                .map(|&(i, _)| workload.source(seed, i))
                .filter(|src| !expected.contains_key(src))
                .collect();
            missing.sort_unstable();
            missing.dedup();
            expected.extend(execute_all(workload, seed, &missing));
            if let Some(&(i, _)) = got
                .iter()
                .find(|&&(i, fp)| expected[&workload.source(seed, i)] != fp)
            {
                return Ok(Err(i));
            }
            base += n as u64;
            left -= n as u64;
        }
        Ok(Ok(()))
    }
}

/// Expected fingerprints kept across blocks; beyond this many the map
/// starts over, so the gate's memory stays bounded.
const CACHE_LIMIT: usize = 1 << 16;

/// Executes jobs `indices` in-process, spread over all CPUs.
fn execute_all(workload: Workload, seed: u64, indices: &[u64]) -> Vec<(u64, NonZeroU32)> {
    let chunk = indices.len().div_ceil(crate::stack::nproc()).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = indices
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&i| (i, fingerprint(&workload.job(seed, i).execute())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verifier thread panicked"))
            .collect()
    })
}

impl Drop for Fingerprints {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
