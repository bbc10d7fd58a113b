//! The ladder: the workload's own job stream replayed one job at a time
//! through each layer — `core` (`QueryJob::execute`), `service`
//! (in-process `QueryService`), `net` (loopback `NetClient`), `tenant`
//! (authenticated `NetClient`) and `cluster` (1-shard `ShardedClient`) —
//! so each rung's increment over the one below is that layer's cost.
//! Consecutive jobs go to the rungs in turn, so a drift in the host's
//! speed moves every rung alike instead of showing as an increment.
//!
//! An obs step follows: blocks of jobs alternate between the tenant
//! rung's server, with the program's span recording off, and a server
//! with trace export on over a tenanted service with an SLO tracker.
//! Metric scrapes and trace exports are timed against the latter.

use std::time::Instant;

use tcast::QueryReport;
use tcast_net::{
    fetch_metrics_text, fetch_trace_export, ClusterConfig, NetClient, NetClientConfig, NetError,
    ShardedClient,
};
use tcast_service::{MetricsRegistry, QueryJob};

use crate::check::{fingerprint, Fingerprints};
use crate::gen::Workload;
use crate::probe::{allocs, median, quantile_of, Spans};
use crate::run::{net_error_kind, service_report};
use crate::stack::{bind_exporting, tenant_auth, LadderStack};

/// Bring-ups timed per connect metric.
const CONNECTS: usize = 9;
/// Untimed jobs per rung before the timed replay.
const RUNG_WARMUP: u64 = 200;
/// Blocks per side of the obs step; each traced block ends with one
/// metric scrape and one trace export.
const OBS_BLOCKS: usize = 16;
/// Jobs per obs block.
const OBS_BLOCK_JOBS: u64 = 250;
/// Most traces one export asks for.
const EXPORT_MAX: u32 = 64;
/// A series only a service with an SLO tracker attached exposes.
const SLO_SERIES: &str = "tcast_slo_error_budget_remaining";

/// One rung's measurements.
pub struct Rung {
    pub name: &'static str,
    /// The rung this one adds a layer to; its increment is over that.
    pub base: Option<&'static str>,
    pub latencies_us: Vec<f64>,
    pub allocs_per_job: f64,
}

impl Rung {
    pub fn p50(&self) -> f64 {
        quantile_of(&self.latencies_us, 0.5)
    }

    pub fn p99(&self) -> f64 {
        quantile_of(&self.latencies_us, 0.99)
    }
}

/// Everything the ladder measured.
pub struct Ladder {
    pub rungs: Vec<Rung>,
    pub net_bytes_per_job: f64,
    pub net_frames_per_job: f64,
    pub net_busy_resends: u64,
    pub net_out_of_order: u64,
    pub net_jobs: u64,
    pub connect_us: f64,
    pub auth_connect_us: f64,
    pub tenant_queue_wait_us: f64,
    pub tenant_quota_rejections: u64,
    pub tenant_jobs: u64,
    pub cluster_events: u64,
    pub obs: ObsStep,
    pub spans: Spans,
    pub fingerprints: Fingerprints,
}

/// What the obs step measured.
#[derive(Default)]
pub struct ObsStep {
    /// Authenticated job latencies with span recording off, and with it
    /// on behind the exporting server.
    pub off_us: Vec<f64>,
    pub on_us: Vec<f64>,
    pub scrape_us: Vec<f64>,
    pub scrape_bytes: Vec<f64>,
    pub export_us: Vec<f64>,
    pub traces: u64,
}

impl Ladder {
    pub fn rung(&self, name: &str) -> &Rung {
        self.rungs
            .iter()
            .find(|r| r.name == name)
            .expect("every rung is measured")
    }

    /// A rung's p50 increment over its base rung (its whole p50 for the
    /// bottom rung).
    pub fn increment_p50(&self, name: &str) -> f64 {
        let r = self.rung(name);
        r.p50() - r.base.map_or(0.0, |b| self.rung(b).p50())
    }
}

type Submit<'a> = Box<dyn FnMut(QueryJob) -> Result<QueryReport, &'static str> + 'a>;

/// How one rung takes a job through its layer and every layer below.
struct RungCall<'a> {
    name: &'static str,
    base: Option<&'static str>,
    span: &'static str,
    submit: Submit<'a>,
}

/// Median microseconds to run `f` over [`CONNECTS`] tries.
fn time_median_us<T>(mut f: impl FnMut() -> T, mut after: impl FnMut(T)) -> f64 {
    let times: Vec<f64> = (0..CONNECTS)
        .map(|_| {
            let t0 = Instant::now();
            let v = f();
            let us = t0.elapsed().as_secs_f64() * 1e6;
            after(v);
            us
        })
        .collect();
    median(&times)
}

fn close_client(client: Result<NetClient, NetError>) {
    if let Ok(client) = client {
        client.close();
    }
}

/// Replays `workload`'s stream from job `first` round-robin over the
/// rungs for `seconds`, after [`RUNG_WARMUP`] untimed jobs per rung.
fn replay(
    workload: Workload,
    seed: u64,
    first: u64,
    seconds: f64,
    calls: &mut [RungCall],
) -> (Vec<Rung>, Spans, Fingerprints) {
    let mut next = first;
    for k in 0..calls.len() * RUNG_WARMUP as usize {
        let _ = (calls[k % calls.len()].submit)(workload.job(seed, next));
        next += 1;
    }
    let mut spans = Spans::new(true);
    let mut fingerprints = Fingerprints::new(next).expect("fingerprint file under out/");
    let mut latencies = vec![Vec::new(); calls.len()];
    let mut allocated = vec![0u64; calls.len()];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for (k, call) in calls.iter_mut().enumerate() {
            let job = workload.job(seed, next);
            let a0 = allocs();
            let t0 = Instant::now();
            let result = (call.submit)(job);
            let t1 = Instant::now();
            allocated[k] += allocs() - a0;
            spans.record(call.span, 0, next, t0, t1);
            match result {
                Ok(report) => {
                    latencies[k].push((t1 - t0).as_secs_f64() * 1e6);
                    fingerprints.push(Some(fingerprint(&report)));
                }
                Err(_) => {
                    latencies[k].push(f64::INFINITY);
                    fingerprints.push(None);
                }
            }
            next += 1;
        }
    }
    let rungs = calls
        .iter()
        .zip(latencies)
        .zip(allocated)
        .map(|((call, latencies_us), allocated)| Rung {
            name: call.name,
            base: call.base,
            allocs_per_job: allocated as f64 / latencies_us.len().max(1) as f64,
            latencies_us,
        })
        .collect();
    (rungs, spans, fingerprints)
}

/// Runs `n` jobs of `workload`'s stream through `client` one at a
/// time, timing each and recording its report for the correctness gate.
fn timed_jobs(
    client: &NetClient,
    workload: Workload,
    seed: u64,
    n: u64,
    latencies_us: &mut Vec<f64>,
    fingerprints: &mut Fingerprints,
) {
    for _ in 0..n {
        let job = workload.job(seed, fingerprints.next_index());
        let t0 = Instant::now();
        let result = client.submit_one(job).wait();
        let t1 = Instant::now();
        match result {
            Ok(report) => {
                latencies_us.push((t1 - t0).as_secs_f64() * 1e6);
                fingerprints.push(Some(fingerprint(&report)));
            }
            Err(_) => {
                latencies_us.push(f64::INFINITY);
                fingerprints.push(None);
            }
        }
    }
}

/// The obs step: [`OBS_BLOCKS`] blocks of authenticated jobs through the
/// tenant rung's server, with span recording off, alternating with as
/// many through a freshly bound exporting server over the SLO-tracked
/// service, with recording on. Each traced block ends with a timed
/// metric scrape and trace export against its server; the scrape must
/// carry the SLO series and the exports must return traces.
fn obs_step(
    workload: Workload,
    seed: u64,
    stack: &LadderStack,
    auth: &NetClientConfig,
    spans: &mut Spans,
    fingerprints: &mut Fingerprints,
) -> Result<ObsStep, String> {
    let mut step = ObsStep::default();
    let off = NetClient::connect(stack.tenant_server.local_addr(), auth.clone())
        .map_err(|e| format!("obs connect: {e}"))?;
    for _ in 0..OBS_BLOCKS {
        timed_jobs(
            &off,
            workload,
            seed,
            OBS_BLOCK_JOBS,
            &mut step.off_us,
            fingerprints,
        );

        let server = bind_exporting(&stack.obs_service)?;
        let addr = server.local_addr();
        let on = NetClient::connect(addr, auth.clone()).map_err(|e| format!("obs connect: {e}"))?;
        timed_jobs(
            &on,
            workload,
            seed,
            OBS_BLOCK_JOBS,
            &mut step.on_us,
            fingerprints,
        );
        on.close();

        let t0 = Instant::now();
        let text = fetch_metrics_text(addr, auth).map_err(|e| format!("obs scrape: {e}"))?;
        let t1 = Instant::now();
        let traces =
            fetch_trace_export(addr, auth, EXPORT_MAX).map_err(|e| format!("obs export: {e}"))?;
        let t2 = Instant::now();
        server.shutdown();
        if !text.contains(SLO_SERIES) {
            return Err(format!("obs scrape lacks {SLO_SERIES}"));
        }
        spans.record("cluster.scrape", 0, text.len() as u64, t0, t1);
        spans.record("obs.trace_export", 0, traces.len() as u64, t1, t2);
        step.scrape_us.push((t1 - t0).as_secs_f64() * 1e6);
        step.scrape_bytes.push(text.len() as f64);
        step.export_us.push((t2 - t1).as_secs_f64() * 1e6);
        step.traces += traces.len() as u64;
    }
    off.close();
    if step.traces == 0 {
        return Err("obs trace exports returned no traces".into());
    }
    Ok(step)
}

/// Runs the ladder for about `seconds` over `workload`'s stream from job
/// `first`, then times connects, then runs the obs step.
pub fn run(workload: Workload, seed: u64, first: u64, seconds: f64) -> Result<Ladder, String> {
    let stack = LadderStack::up()?;
    let addr = stack.server.local_addr();
    let tenant_addr = stack.tenant_server.local_addr();
    let plain = NetClientConfig::default();
    let auth_config = NetClientConfig::default().with_auth(tenant_auth());

    let registry = MetricsRegistry::new();
    let counters = registry.net_counters("ladder/net");
    let client = NetClient::connect_instrumented(addr, plain.clone(), counters)
        .map_err(|e| format!("ladder connect: {e}"))?;
    let tenant_client = NetClient::connect(tenant_addr, auth_config.clone())
        .map_err(|e| format!("ladder tenant connect: {e}"))?;
    let cluster = ShardedClient::connect([addr], ClusterConfig::default())
        .map_err(|e| format!("ladder cluster connect: {e}"))?;

    let service = &stack.service;
    let mut calls = [
        RungCall {
            name: "core",
            base: None,
            span: "core.execute",
            submit: Box::new(|job: QueryJob| Ok(job.execute())),
        },
        RungCall {
            name: "service",
            base: Some("core"),
            span: "service.rtt",
            submit: Box::new(|job| match service.submit(vec![job]) {
                Ok(batch) => {
                    let result = batch.wait().pop().ok_or("empty batch")?;
                    service_report(&result).cloned()
                }
                Err(_) => Err("refused"),
            }),
        },
        RungCall {
            name: "net",
            base: Some("service"),
            span: "net.rtt",
            submit: Box::new(|job| {
                client
                    .submit_one(job)
                    .wait()
                    .map_err(|e| net_error_kind(&e))
            }),
        },
        RungCall {
            name: "tenant",
            base: Some("net"),
            span: "tenant.rtt",
            submit: Box::new(|job| {
                tenant_client
                    .submit_one(job)
                    .wait()
                    .map_err(|e| net_error_kind(&e))
            }),
        },
        RungCall {
            name: "cluster",
            base: Some("net"),
            span: "cluster.rtt",
            submit: Box::new(|job| {
                cluster
                    .submit(vec![job])
                    .wait()
                    .pop()
                    .ok_or("empty batch")?
                    .map_err(|e| net_error_kind(&e))
            }),
        },
    ];
    let (rungs, mut spans, mut fingerprints) = replay(workload, seed, first, seconds, &mut calls);
    drop(calls);

    let net = rungs.iter().find(|r| r.name == "net").expect("net rung");
    let net_jobs = net.latencies_us.len() as u64 + RUNG_WARMUP;
    let wire = &registry.snapshot().net_rows[0];
    let per_job = |d: u64| d as f64 / net_jobs as f64;
    let net_bytes_per_job = per_job(wire.bytes_in + wire.bytes_out);
    let net_frames_per_job = per_job(wire.frames_in + wire.frames_out);
    let net_busy_resends = client.busy_resends();
    let net_out_of_order = client.out_of_order_responses();
    let cluster_events = cluster.events().len() as u64;
    client.close();
    tenant_client.close();
    cluster.close();

    let connect_us = time_median_us(|| NetClient::connect(addr, plain.clone()), close_client);
    let auth_us = time_median_us(
        || NetClient::connect(tenant_addr, auth_config.clone()),
        close_client,
    );

    let tenant_rows = stack.tenant_service.metrics().tenant_rows;
    let tenant_queue_wait_us = tenant_rows
        .first()
        .map_or(0.0, |row| row.queue_wait_us.mean());
    let tenant_quota_rejections = tenant_rows.iter().map(|r| r.quota_rejections).sum();
    let tenant_jobs = tenant_rows.iter().map(|r| r.jobs).sum();

    let obs = obs_step(
        workload,
        seed,
        &stack,
        &auth_config,
        &mut spans,
        &mut fingerprints,
    )?;
    stack.down();

    Ok(Ladder {
        rungs,
        net_bytes_per_job,
        net_frames_per_job,
        net_busy_resends,
        net_out_of_order,
        net_jobs,
        connect_us,
        auth_connect_us: auth_us - connect_us,
        tenant_queue_wait_us,
        tenant_quota_rejections,
        tenant_jobs,
        cluster_events,
        obs,
        spans,
        fingerprints,
    })
}

/// The printable ladder: each rung's p50/p99 and its p50 increment
/// over its base rung.
pub fn table(ladder: &Ladder) -> String {
    let mut out = String::from("rung      base      p50_us    p99_us    +p50_us  allocs/job\n");
    for r in &ladder.rungs {
        out.push_str(&format!(
            "{:<9} {:<9} {:>8.2}  {:>8.2}  {:>+8.2}  {:>9.1}\n",
            r.name,
            r.base.unwrap_or("-"),
            r.p50(),
            r.p99(),
            ladder.increment_p50(r.name),
            r.allocs_per_job
        ));
    }
    out
}
