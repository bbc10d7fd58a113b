//! Run-to-completion on the server I/O thread: a lone small `Submit`
//! that finds the service queue empty runs inline instead of going
//! through a worker. None of that may show to a client. Reports stay
//! bit-identical to `QueryJob::execute` whichever path a job took; a job
//! that arrives behind queued work still waits its DRR turn; deadlines,
//! quotas and metrics behave exactly as on the worker path.
//!
//! Whether a job ran inline is read off the service's dequeue-batch
//! count: only a worker claim records one.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proptest::prelude::*;

use tcast::{CaptureModel, ChannelSpec, CollisionModel, LossConfig, QueryReport, RetryPolicy};
use tcast_net::{NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, TenantAuth};
use tcast_service::{
    AlgorithmSpec, Batch, JobError, JobOutput, QueryJob, QueryService, ServiceConfig, SubmitOptions,
};
use tcast_tenant::{TenantRegistry, TenantSpec};

fn serve(service: &Arc<QueryService>) -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        service.clone(),
        NetServerConfig::default().with_io_threads(1),
    )
    .expect("bind ephemeral port")
}

fn connect(server: &NetServer, config: NetClientConfig) -> NetClient {
    NetClient::connect(server.local_addr(), config).expect("connect")
}

/// A job drawn from every algorithm and four channel flavours, with a
/// population on both sides of the inline size bound (256).
fn job(seed: u64, n: usize, knobs: u64) -> QueryJob {
    let algorithm = AlgorithmSpec::ALL[(knobs % AlgorithmSpec::ALL.len() as u64) as usize];
    let x = (seed as usize) % (n + 1);
    let t = 1 + (knobs as usize >> 4) % 16;
    let spec = match (knobs >> 8) % 4 {
        0 => ChannelSpec::ideal(n, x, CollisionModel::OnePlus),
        1 => ChannelSpec::ideal(
            n,
            x,
            CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.5 }),
        ),
        2 => ChannelSpec::lossy(n, x, CollisionModel::OnePlus, LossConfig::default()),
        _ => ChannelSpec::lossy(
            n,
            x,
            CollisionModel::two_plus_default(),
            LossConfig::default(),
        )
        .with_retry(RetryPolicy::verified(2)),
    }
    .seeded(seed, seed.rotate_left(23) | 1);
    QueryJob::new(algorithm, spec, t, seed ^ 0x5DEE_CE66)
}

fn report(result: Result<QueryReport, NetError>) -> QueryReport {
    result.expect("remote job succeeded")
}

/// Dequeue batches the service's workers claimed so far.
fn worker_claims(service: &QueryService) -> u64 {
    service.metrics().batch_size.count()
}

/// Parks the service's only worker inside a task until the returned
/// sender fires, so everything submitted meanwhile stays queued.
fn park_worker(service: &QueryService) -> (Batch, Sender<()>) {
    let (started_tx, started_rx) = channel::<()>();
    let (release_tx, release_rx) = channel::<()>();
    let gate: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
        started_tx.send(()).ok();
        release_rx.recv().ok();
        JobOutput::Value(0.0)
    });
    let batch = service
        .submit_tasks("gate", vec![gate])
        .expect("service open");
    started_rx.recv().expect("gate reached the worker");
    (batch, release_tx)
}

/// Polls until the service queue holds `jobs` jobs.
fn await_queued(service: &QueryService, jobs: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.queued_jobs() != jobs {
        assert!(Instant::now() < deadline, "queue never reached {jobs} jobs");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// An in-process job pushed into the queue behind the parked worker.
fn queued_job() -> QueryJob {
    job(7, 96, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Jobs sent one at a time to an idle service run inline (except
    /// those over the size bound); the same jobs sent while a job is
    /// queued go through the workers. Both match in-process execution
    /// bit for bit.
    #[test]
    fn inline_and_queued_reports_match_in_process_execution(
        seeds in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let jobs: Vec<QueryJob> = seeds
            .iter()
            .map(|&s| job(s, 1 + (s >> 40) as usize % 320, s.rotate_left(32)))
            .collect();
        let expected: Vec<QueryReport> = jobs.iter().map(QueryJob::execute).collect();
        let oversized = jobs.iter().filter(|j| j.channel.n > 256).count() as u64;

        let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
        let server = serve(&service);
        let client = connect(&server, NetClientConfig::default());

        let inline: Vec<QueryReport> = jobs
            .iter()
            .map(|j| report(client.submit_one(*j).wait()))
            .collect();
        prop_assert_eq!(&inline, &expected);
        prop_assert_eq!(worker_claims(&service), oversized, "small lone jobs ran inline");

        let (gate, release) = park_worker(&service);
        let blocker = service.submit(vec![queued_job()]).expect("service open");
        let pending = client.submit(jobs.clone());
        await_queued(&service, 1 + jobs.len());
        release.send(()).unwrap();
        gate.wait();
        blocker.wait();
        let queued: Vec<QueryReport> = pending.wait().into_iter().map(report).collect();
        prop_assert_eq!(&queued, &expected);

        client.close();
        server.shutdown();
    }
}

#[test]
fn a_wire_submit_behind_a_queued_job_keeps_its_drr_turn() {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
    let server = serve(&service);
    let client = connect(&server, NetClientConfig::default());
    let order = Arc::new(Mutex::new(Vec::new()));

    let (gate, release) = park_worker(&service);
    let tagger = order.clone();
    let queued = service
        .submit_with(
            vec![queued_job()],
            SubmitOptions::new().watched(Arc::new(move |_, _| tagger.lock().push("queued"))),
        )
        .expect("service open");
    // The wire job finds one job queued, so it must queue behind it
    // rather than run inline on the I/O thread.
    let wire_job = job(11, 64, 1);
    let handle = client.submit_one(wire_job);
    await_queued(&service, 2);
    release.send(()).unwrap();
    gate.wait();
    assert_eq!(report(handle.wait()), wire_job.execute());
    order.lock().push("wire");
    queued.wait();

    assert_eq!(*order.lock(), vec!["queued", "wire"]);
    client.close();
    server.shutdown();
}

#[test]
fn a_zero_deadline_job_still_expires_over_the_wire() {
    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
    let server = serve(&service);
    let client = connect(&server, NetClientConfig::default());

    let expired = job(3, 96, 0).with_deadline(Duration::ZERO);
    match client.submit_one(expired).wait() {
        Err(NetError::Job(JobError::DeadlineExceeded)) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(worker_claims(&service), 0, "the job was settled inline");
    let snap = service.metrics();
    let row = snap.rows.iter().find(|r| r.label == "2tBins").unwrap();
    assert_eq!((row.jobs, row.deadline_exceeded), (1, 1));

    client.close();
    server.shutdown();
}

#[test]
fn inline_jobs_release_their_tenant_quota() {
    const BURST: usize = 6;
    let mut registry = TenantRegistry::new();
    // No refill: exactly BURST jobs ever pass admission.
    let tenant = registry.register(
        TenantSpec::new("t", b"tenant-key".to_vec())
            .rate(0.0, BURST as f64)
            .max_in_flight(2),
    );
    let registry = Arc::new(registry);
    let service = Arc::new(QueryService::with_tenants(
        ServiceConfig::with_workers(1),
        registry.clone(),
    ));
    let server = serve(&service);
    let client = connect(
        &server,
        NetClientConfig::default().with_auth(TenantAuth::new("t", b"tenant-key".to_vec())),
    );

    for i in 0..BURST as u64 {
        let j = job(i, 96, i);
        assert_eq!(report(client.submit_one(j).wait()), j.execute());
        assert_eq!(registry.in_flight(tenant), 0, "job {i} released its slot");
    }
    assert_eq!(worker_claims(&service), 0, "every job ran inline");
    // The bucket is empty: the next inline admission is refused with the
    // typed quota failure, and nothing stays charged.
    match client.submit_one(job(99, 96, 0)).wait() {
        Err(NetError::Job(JobError::QuotaExceeded)) => {}
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    assert_eq!(registry.in_flight(tenant), 0);
    let snap = service.metrics();
    let row = snap.tenant_rows.iter().find(|r| r.tenant == "t").unwrap();
    assert_eq!((row.jobs, row.quota_rejections), (BURST as u64, 1));

    client.close();
    server.shutdown();
}

#[test]
fn inline_metrics_match_the_worker_path() {
    let jobs: Vec<QueryJob> = (0..24u64).map(|i| job(i, 40 + i as usize, i)).collect();

    let worker_side = QueryService::new(ServiceConfig::with_workers(1));
    for j in &jobs {
        worker_side.submit(vec![*j]).expect("service open").wait();
    }
    let want = worker_side.metrics();

    let service = Arc::new(QueryService::new(ServiceConfig::with_workers(1)));
    let server = serve(&service);
    let client = connect(&server, NetClientConfig::default());
    for j in &jobs {
        report(client.submit_one(*j).wait());
    }
    let got = service.metrics();
    assert_eq!(worker_claims(&service), 0, "every job ran inline");

    let per_label = |s: &tcast_service::MetricsSnapshot| {
        s.rows
            .iter()
            .map(|r| {
                (
                    r.label.clone(),
                    r.jobs,
                    r.queries,
                    r.verdict_yes,
                    r.latency_us.count(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(per_label(&got), per_label(&want));
    assert_eq!(got.queue_wait_us.count(), want.queue_wait_us.count());
    assert_eq!(got.queue_wait_us.count(), jobs.len() as u64);

    client.close();
    server.shutdown();
}
