//! Bring-up and tear-down of the stack each workload drives. Every
//! stack runs on loopback inside this process.

use std::sync::Arc;
use std::time::Instant;

use tcast_net::{
    ClusterConfig, NetClient, NetClientConfig, NetServer, NetServerConfig, ShardedClient,
    TenantAuth,
};
use tcast_obs::{Objective, SloTracker, TraceCollectorConfig};
use tcast_service::{QueryService, ServiceConfig};
use tcast_tenant::{TenantRegistry, TenantSpec};

/// The one tenant `cluster-open` and the ladder's tenant rung
/// authenticate as.
pub const TENANT: &str = "ladder";
const TENANT_KEY: &[u8] = b"latency-ladder-shared-key";

/// Worker threads per service where a workload uses "workers = nproc":
/// the CPUs this process may run on, so 1 once it is pinned.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restricts the calling thread, and so every thread it starts later,
/// to the first CPU it may run on, and returns that CPU; `None` where
/// the affinity call is missing or fails. On a virtual machine with a
/// few vCPUs of a shared host, a loopback pipeline spread over two vCPUs
/// pays for cross-vCPU wake-ups and hypervisor steal that come and go
/// between runs; on one vCPU its handoffs are plain context switches.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let size = WORDS * std::mem::size_of::<u64>();
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

pub fn tenant_auth() -> TenantAuth {
    TenantAuth::new(TENANT, TENANT_KEY)
}

/// A tenant registry holding [`TENANT`] with quotas far above any rate
/// the benchmark offers, so admission runs but never refuses.
fn registry() -> Arc<TenantRegistry> {
    let mut reg = TenantRegistry::new();
    reg.register(
        TenantSpec::new(TENANT, TENANT_KEY)
            .rate(1.0e6, 1.0e5)
            .max_in_flight(1 << 16),
    );
    Arc::new(reg)
}

fn bind(service: &Arc<QueryService>, config: NetServerConfig) -> Result<NetServer, String> {
    NetServer::bind("127.0.0.1:0", service.clone(), config).map_err(|e| format!("bind: {e}"))
}

/// A tenanted service with an SLO tracker attached to its metrics.
fn observed_service(config: ServiceConfig) -> Arc<QueryService> {
    let service = Arc::new(QueryService::with_tenants(config, registry()));
    service
        .metrics_registry()
        .attach_slo(Arc::new(SloTracker::new(vec![
            Objective::latency("e2e-latency", 50_000.0, 0.99),
            Objective::verdicts("verdicts", 0.99),
            Objective::auth("auth", 0.99),
        ])));
    service
}

/// Binds a server (1 I/O thread) whose tail-sampling trace collector
/// serves trace exports. While such a server is up its collector is an
/// installed `tcast-obs` sink, so span recording is on process-wide;
/// shutting it down turns recording off again.
pub fn bind_exporting(service: &Arc<QueryService>) -> Result<NetServer, String> {
    bind(
        service,
        NetServerConfig::default()
            .with_io_threads(1)
            .with_trace_export(TraceCollectorConfig::default()),
    )
}

/// Brings a stack up `reps` times, tearing down all but the last, and
/// returns the last one with the median bring-up time in seconds.
pub fn timed_setup<S>(
    reps: usize,
    up: impl Fn() -> Result<S, String>,
    down: impl Fn(S),
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(stack) = last.take() {
            down(stack);
        }
        let t0 = Instant::now();
        last = Some(up()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let stack = last.expect("at least one bring-up");
    Ok((stack, crate::probe::median(&times)))
}

/// `unloaded-wire`: loopback `NetClient` (1 connection) → `NetServer`
/// (1 I/O thread) → `QueryService` (workers = nproc, no cache).
pub struct WireStack {
    pub service: Arc<QueryService>,
    pub server: NetServer,
    pub client: NetClient,
}

impl WireStack {
    pub fn up() -> Result<Self, String> {
        let service = Arc::new(QueryService::new(ServiceConfig::with_workers(nproc())));
        let server = bind(&service, NetServerConfig::default().with_io_threads(1))?;
        let client = NetClient::connect(server.local_addr(), NetClientConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Self {
            service,
            server,
            client,
        })
    }

    pub fn down(self) {
        self.client.close();
        self.server.shutdown();
    }
}

/// `cluster-open`: one authenticated tenant through a load-aware,
/// SLO-penalised `ShardedClient` over two loopback shards, each a
/// `NetServer` (1 I/O thread, trace export on) over a tenanted
/// `QueryService` (1 worker, SLO tracker, 1024-report session cache).
pub struct ClusterStack {
    pub shards: Vec<(NetServer, Arc<QueryService>)>,
    pub cluster: ShardedClient,
}

pub const CLUSTER_SHARDS: usize = 2;

impl ClusterStack {
    pub fn up() -> Result<Self, String> {
        let mut shards = Vec::with_capacity(CLUSTER_SHARDS);
        let mut addrs = Vec::with_capacity(CLUSTER_SHARDS);
        for _ in 0..CLUSTER_SHARDS {
            let service = observed_service(ServiceConfig::with_workers(1).with_session_cache(1024));
            let server = bind_exporting(&service)?;
            addrs.push(server.local_addr());
            shards.push((server, service));
        }
        let cluster = ShardedClient::connect(
            addrs,
            ClusterConfig::default()
                .with_client(NetClientConfig::default().with_auth(tenant_auth()))
                .with_load_aware(true)
                .with_slo_penalty(true),
        )
        .map_err(|e| format!("cluster connect: {e}"))?;
        Ok(Self { shards, cluster })
    }

    pub fn down(self) {
        self.cluster.close();
        for (server, _service) in self.shards {
            server.shutdown();
        }
    }
}

/// `engine-batch`: an in-process `QueryService` (workers = nproc), no
/// wire.
pub fn engine_up() -> Result<QueryService, String> {
    Ok(QueryService::new(ServiceConfig::with_workers(nproc())))
}

/// The ladder's rungs below the workload: an in-process service
/// (workers = nproc) fronted by a plain server, a tenanted service and
/// server for the authenticated rung, and a tenanted service with an
/// SLO tracker for the obs step, which binds it behind an exporting
/// server ([`bind_exporting`]) only while it measures.
pub struct LadderStack {
    pub service: Arc<QueryService>,
    pub server: NetServer,
    pub tenant_service: Arc<QueryService>,
    pub tenant_server: NetServer,
    pub obs_service: Arc<QueryService>,
}

impl LadderStack {
    pub fn up() -> Result<Self, String> {
        let service = Arc::new(QueryService::new(ServiceConfig::with_workers(nproc())));
        let server = bind(&service, NetServerConfig::default().with_io_threads(1))?;
        let tenant_service = Arc::new(QueryService::with_tenants(
            ServiceConfig::with_workers(nproc()),
            registry(),
        ));
        let tenant_server = bind(
            &tenant_service,
            NetServerConfig::default().with_io_threads(1),
        )?;
        Ok(Self {
            service,
            server,
            tenant_service,
            tenant_server,
            obs_service: observed_service(ServiceConfig::with_workers(nproc())),
        })
    }

    pub fn down(self) {
        self.server.shutdown();
        self.tenant_server.shutdown();
    }
}
