//! The timed phases: each drives one workload's stack for a fixed
//! time, records one latency per unit the caller waits on, and keeps a
//! fingerprint of every report for the correctness gate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tcast::QueryReport;
use tcast_net::{ClusterBatch, NetClient, NetError};
use tcast_service::{JobError, JobOutput, JobResult, QueryService};

use crate::check::{encoded, fingerprint_of, Fingerprints};
use crate::gen::{Arrivals, Workload};
use crate::probe::{quantile_of, LogHistogram, Spans};
use crate::stack::ClusterStack;

/// Jobs per `engine-batch` wave.
const WAVE: usize = 128;
/// `queries_per_job` is the mean over this many jobs at the head of the
/// stream, so it is an exact count for a given seed.
pub const QUERY_SAMPLE_JOBS: u64 = 32_768;
/// `cluster-open` arrival rate (jobs/s): about half the rate at which
/// its backlog started to grow on a 2-CPU host (6,500/s held, 8,000/s
/// did not), then fixed.
pub const CLUSTER_RATE: f64 = 3_500.0;
/// The open loop is invalid when its generator ran systematically late:
/// its median send lag exceeded this. (Its p99 is reported, not gated:
/// on a virtual machine a sleeping thread's p99 wake-up lag alone is
/// milliseconds.)
pub const MAX_GEN_LAG_P50_US: f64 = 1_000.0;
/// ... or when more jobs than this were still unanswered when it
/// stopped sending.
pub const MAX_BACKLOG_END: u64 = 64;

/// Report counters summed over completed jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub jobs: u64,
    pub queries: u64,
    pub rounds: u64,
    pub retry_queries: u64,
    pub defense_queries: u64,
    pub report_bytes: u64,
    /// Queries over the completed jobs among the stream's first
    /// [`QUERY_SAMPLE_JOBS`], and how many those were.
    pub head_queries: u64,
    pub head_jobs: u64,
}

/// What one timed phase measured.
pub struct Phase {
    /// Latency per unit waited on; a failed unit has infinite latency,
    /// so it misses every limit.
    pub latency: LogHistogram,
    /// How long the phase sent work.
    pub seconds: f64,
    pub attempted: u64,
    pub failures: BTreeMap<&'static str, u64>,
    pub fingerprints: Fingerprints,
    pub tally: Tally,
    /// How late each send was: after its due time in the open loop,
    /// after the previous completion in a closed loop (recorded there
    /// only when tracing).
    pub gen_lag_us: Vec<f32>,
    pub backlog_end: u64,
    pub spans: Spans,
}

impl Phase {
    fn new(seconds: f64, trace: bool, first: u64) -> Self {
        Self {
            latency: LogHistogram::new(),
            seconds,
            attempted: 0,
            failures: BTreeMap::new(),
            fingerprints: Fingerprints::new(first).expect("fingerprint file under out/"),
            tally: Tally::default(),
            gen_lag_us: Vec::new(),
            backlog_end: 0,
            spans: Spans::new(trace),
        }
    }

    /// Records job `index` of a stream starting at `first`.
    fn job_result(&mut self, first: u64, index: u64, result: Result<&QueryReport, &'static str>) {
        self.attempted += 1;
        match result {
            Ok(report) => {
                let encoded = encoded(report);
                self.fingerprints.push(Some(fingerprint_of(&encoded)));
                let bytes = encoded.len();
                let t = &mut self.tally;
                t.jobs += 1;
                t.queries += report.queries;
                t.rounds += u64::from(report.rounds);
                t.retry_queries += report.retry_queries;
                t.defense_queries += report.defense_queries;
                t.report_bytes += bytes as u64;
                if index - first < QUERY_SAMPLE_JOBS {
                    t.head_queries += report.queries;
                    t.head_jobs += 1;
                }
            }
            Err(kind) => {
                self.fingerprints.push(None);
                *self.failures.entry(kind).or_insert(0) += 1;
            }
        }
    }
}

pub fn job_error_kind(e: &JobError) -> &'static str {
    match e {
        JobError::Panicked(_) => "panicked",
        JobError::DeadlineExceeded => "deadline",
        JobError::QuotaExceeded => "quota",
    }
}

pub fn net_error_kind(e: &NetError) -> &'static str {
    match e {
        NetError::Job(j) => job_error_kind(j),
        NetError::Busy => "busy",
        NetError::ServerShutdown => "shutdown",
        NetError::ConnectionLost(_) => "connection",
        NetError::Handshake { .. } => "handshake",
        NetError::Protocol(_) => "protocol",
    }
}

pub fn service_report(result: &JobResult) -> Result<&QueryReport, &'static str> {
    match result {
        Ok(JobOutput::Report(r)) => Ok(r),
        Ok(_) => Err("not-a-report"),
        Err(e) => Err(job_error_kind(e)),
    }
}

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// `unloaded-wire`: one caller, one job in flight, timed from send to
/// report.
pub fn wire_phase(client: &NetClient, seed: u64, first: u64, seconds: f64, trace: bool) -> Phase {
    let origin = Instant::now();
    let mut phase = Phase::new(seconds, trace, first);
    let mut index = first;
    let mut last_done = origin;
    while origin.elapsed().as_secs_f64() < seconds {
        let job = Workload::UnloadedWire.job(seed, index);
        let t0 = Instant::now();
        let handle = client.submit_one(job);
        let t1 = Instant::now();
        let result = handle.wait();
        let t2 = Instant::now();
        let root = phase.spans.record("bench.job", 0, index, t0, t2);
        phase.spans.record("net.submit", root, index, t0, t1);
        phase.spans.record("net.wait", root, index, t1, t2);
        if trace {
            phase.gen_lag_us.push(us(last_done, t0) as f32);
        }
        let latency = if result.is_ok() {
            us(t0, t2)
        } else {
            f64::INFINITY
        };
        phase.latency.record(latency);
        phase.job_result(first, index, result.as_ref().map_err(net_error_kind));
        index += 1;
        last_done = Instant::now();
    }
    phase
}

/// `engine-batch`: 128-job waves into an in-process service, timed per
/// wave.
pub fn engine_phase(
    service: &QueryService,
    seed: u64,
    first: u64,
    seconds: f64,
    trace: bool,
) -> Phase {
    let origin = Instant::now();
    let mut phase = Phase::new(seconds, trace, first);
    let mut index = first;
    let mut last_done = origin;
    while origin.elapsed().as_secs_f64() < seconds {
        let jobs = (index..index + WAVE as u64)
            .map(|i| Workload::EngineBatch.job(seed, i))
            .collect();
        let t0 = Instant::now();
        let submitted = service.submit(jobs);
        let t1 = Instant::now();
        let results = match submitted {
            Ok(batch) => batch.wait(),
            Err(_) => Vec::new(),
        };
        let t2 = Instant::now();
        let root = phase.spans.record("bench.wave", 0, index, t0, t2);
        phase.spans.record("service.submit", root, index, t0, t1);
        phase.spans.record("service.wait", root, index, t1, t2);
        if trace {
            phase.gen_lag_us.push(us(last_done, t0) as f32);
        }
        let mut wave_ok = results.len() == WAVE;
        for k in 0..WAVE {
            let result = results.get(k).map_or(Err("refused"), service_report);
            wave_ok &= result.is_ok();
            phase.job_result(first, index + k as u64, result);
        }
        let latency = if wave_ok { us(t0, t2) } else { f64::INFINITY };
        phase.latency.record(latency);
        index += WAVE as u64;
        last_done = Instant::now();
    }
    phase
}

/// One job handed from the generator to the collector.
struct InFlight {
    index: u64,
    due: Instant,
    submitted: (Instant, Instant),
    batch: ClusterBatch,
}

/// `cluster-open`: Poisson arrivals at [`CLUSTER_RATE`] from one
/// generator thread; one collector thread waits each job in order, so
/// latency is in-order delivery latency from the scheduled send time.
/// The generator sleeps until the next due time and then sends every
/// job that is due.
pub fn cluster_phase(
    stack: &ClusterStack,
    seed: u64,
    first: u64,
    seconds: f64,
    trace: bool,
) -> Phase {
    let origin = Instant::now();
    let completed = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let (mut phase, (lag_us, backlog)) = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut phase = Phase::new(seconds, trace, first);
            for f in rx {
                let result = f
                    .batch
                    .wait()
                    .pop()
                    .unwrap_or(Err(NetError::Protocol("empty cluster batch".into())));
                let done = Instant::now();
                let root = phase.spans.record("bench.job", 0, f.index, f.due, done);
                let (s0, s1) = f.submitted;
                phase.spans.record("cluster.submit", root, f.index, s0, s1);
                phase.spans.record("cluster.wait", root, f.index, s1, done);
                let latency = if result.is_ok() {
                    us(f.due, done)
                } else {
                    f64::INFINITY
                };
                phase.latency.record(latency);
                phase.job_result(first, f.index, result.as_ref().map_err(net_error_kind));
                completed.fetch_add(1, Ordering::Relaxed);
            }
            phase
        });

        let mut arrivals = Arrivals::new(seed ^ first, CLUSTER_RATE);
        let mut due_s = arrivals.next_due_s();
        let mut index = first;
        let mut lag_us = Vec::new();
        while due_s < seconds {
            let wake = Duration::from_secs_f64(due_s);
            if let Some(sleep) = wake.checked_sub(origin.elapsed()) {
                std::thread::sleep(sleep);
            }
            while due_s <= origin.elapsed().as_secs_f64() && due_s < seconds {
                let job = Workload::ClusterOpen.job(seed, index);
                let due = origin + Duration::from_secs_f64(due_s);
                let s0 = Instant::now();
                let batch = stack.cluster.submit(vec![job]);
                let s1 = Instant::now();
                lag_us.push(us(due, s0) as f32);
                tx.send(InFlight {
                    index,
                    due,
                    submitted: (s0, s1),
                    batch,
                })
                .expect("collector outlives the generator");
                index += 1;
                due_s = arrivals.next_due_s();
            }
        }
        let backlog = (index - first).saturating_sub(completed.load(Ordering::Relaxed));
        drop(tx);
        let phase = collector.join().expect("collector thread panicked");
        (phase, (lag_us, backlog))
    });
    phase.gen_lag_us = lag_us;
    phase.backlog_end = backlog;
    phase
}

/// Whether an open-loop phase kept up with its schedule.
pub fn open_loop_valid(phase: &Phase) -> Result<(), String> {
    let lag: Vec<f64> = phase.gen_lag_us.iter().map(|&l| f64::from(l)).collect();
    let lag_p50 = quantile_of(&lag, 0.5);
    if lag_p50 > MAX_GEN_LAG_P50_US {
        return Err(format!(
            "generator fell behind: send lag p50 {lag_p50:.0} us > {MAX_GEN_LAG_P50_US} us"
        ));
    }
    if phase.backlog_end > MAX_BACKLOG_END {
        return Err(format!(
            "backlog grew: {} jobs unanswered when sending stopped (> {MAX_BACKLOG_END})",
            phase.backlog_end
        ));
    }
    Ok(())
}
