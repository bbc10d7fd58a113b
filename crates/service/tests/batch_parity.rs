//! Service batch dequeueing is bit-identical to job-at-a-time execution.
//!
//! Workers now claim up to `ServiceConfig::batch_size` jobs per scheduler
//! pass and run them over pooled engine buffers. None of that may show in
//! the results: for every batch size (including 1, the pre-batch
//! behaviour), every report must equal the job's own serial
//! `QueryJob::execute()` — across algorithms, lossy/ideal channels, retry
//! budgets, and tenanted vs plain services.

use std::sync::Arc;

use proptest::prelude::*;

use tcast::{ChannelSpec, CollisionModel, LossConfig};
use tcast_service::{AlgorithmSpec, JobOutput, JobResult, QueryJob, QueryService, ServiceConfig};
use tcast_tenant::{TenantRegistry, TenantSpec};

/// A mixed workload touching every algorithm, both channel flavours, and
/// a sprinkle of retry budgets — deterministic in `seed`.
fn workload(seed: u64, jobs: usize) -> Vec<QueryJob> {
    (0..jobs)
        .map(|i| {
            let alg = AlgorithmSpec::ALL[i % AlgorithmSpec::ALL.len()];
            let n = 16 + (i % 3) * 24;
            let x = (seed as usize).wrapping_add(7 * i) % (n + 1);
            let t = 1 + (i % 9);
            let s = seed.wrapping_add(i as u64);
            let spec = if i % 2 == 0 {
                ChannelSpec::ideal(n, x, CollisionModel::two_plus_default())
            } else {
                ChannelSpec::lossy(n, x, CollisionModel::OnePlus, LossConfig::default())
            }
            .seeded(s, s.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let job = QueryJob::new(alg, spec, t, s ^ 0xD6E8_FEB8_6659_FD93);
            if i % 5 == 0 {
                job.with_retry_budget(4)
            } else {
                job
            }
        })
        .collect()
}

fn reports(results: Vec<JobResult>) -> Vec<tcast::QueryReport> {
    results
        .into_iter()
        .map(|r| match r.expect("job succeeds") {
            JobOutput::Report(rep) => rep,
            other => panic!("expected report, got {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched service execution reproduces serial per-job execution
    /// bit-for-bit at batch sizes 1, 7, and 64, plain and tenanted.
    #[test]
    fn service_batches_are_bit_identical_to_serial_execution(
        seed in any::<u64>(),
        batch_pick in 0usize..3,
        workers in 1usize..4,
        tenanted in any::<bool>(),
    ) {
        let batch_size = [1usize, 7, 64][batch_pick];
        let jobs = workload(seed, 48);
        let expected: Vec<_> = jobs.iter().map(|j| j.execute()).collect();

        let mut config = ServiceConfig::with_workers(workers);
        config.batch_size = batch_size;
        let (service, jobs) = if tenanted {
            let mut registry = TenantRegistry::new();
            let alice = registry.register(TenantSpec::new("alice", [1u8; 32]).weight(2));
            let bob = registry.register(TenantSpec::new("bob", [2u8; 32]));
            let jobs = jobs
                .into_iter()
                .enumerate()
                .map(|(i, j)| j.with_tenant(if i % 2 == 0 { alice } else { bob }))
                .collect::<Vec<_>>();
            (
                QueryService::with_tenants(config, Arc::new(registry)),
                jobs,
            )
        } else {
            (QueryService::new(config), jobs)
        };

        let got = reports(service.submit(jobs).expect("service open").wait());
        service.shutdown();
        prop_assert_eq!(&got, &expected, "batch_size {} diverged", batch_size);
    }
}

/// The batch-size distribution reaches the metrics snapshot, and the
/// service-wide queue-wait summary counts every executed job.
#[test]
fn batch_metrics_surface_in_the_snapshot() {
    let mut config = ServiceConfig::with_workers(1);
    config.batch_size = 7;
    let service = QueryService::new(config);
    let jobs = workload(11, 21);
    let n = jobs.len() as u64;
    let _ = service.submit(jobs).expect("service open").wait();
    let snap = service.shutdown();
    assert_eq!(
        snap.queue_wait_us.count(),
        n,
        "one queue-wait sample per job"
    );
    assert!(snap.batch_size.count() > 0, "at least one batch claimed");
    assert!(
        snap.batch_size.max() <= 7.0,
        "no batch exceeds the configured size (got {})",
        snap.batch_size.max()
    );
    let text = snap.to_prometheus();
    assert!(
        text.contains("tcast_queue_wait_microseconds_count"),
        "{text}"
    );
    assert!(text.contains("tcast_batch_size_jobs_count"), "{text}");
}
