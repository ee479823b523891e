//! The loopback-TCP prototype workload: a cluster of in-process daemons
//! under `eevfs_runtime::loadgen`'s closed-loop clients.

use crate::report::check;
use eevfs_runtime::loadgen::{self, LoadConfig, LoadReport};
use eevfs_runtime::server::ClusterStats;
use eevfs_runtime::store::file_pattern;
use eevfs_runtime::{ClusterHandle, ResilienceOptions, RuntimeConfig, SpanSink};
use sim_core::SimDuration;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::record::Trace;

/// File population of the prototype.
pub const FILES: u32 = 64;
/// Size of every file, bytes.
pub const FILE_BYTES: u64 = 256 * 1024;
/// Files the server prefetches into the buffer areas.
pub const PREFETCH: u32 = 16;
/// Closed-loop clients, one thread each, no think time.
pub const CLIENTS: usize = 2;
/// Virtual seconds per wall second. At this scale a modelled spin-up
/// sleeps microseconds, so latencies measure the program, not the model.
pub const TIME_SCALE: f64 = 1e6;
/// Files read back with `get_verified` after the measured phase.
pub const VERIFIED_READS: u32 = 8;

/// The prototype's configuration with its store under `root`.
pub fn runtime_config(root: PathBuf, spans: Option<SpanSink>) -> RuntimeConfig {
    RuntimeConfig {
        nodes: 2,
        data_disks_per_node: 2,
        prefetch_k: PREFETCH,
        replication: 1,
        idle_threshold: SimDuration::from_secs(5),
        time_scale: TIME_SCALE,
        root_dir: root,
        disk_spec: disk_model::DiskSpec::ata133_type1(),
        client_deadline: Duration::from_secs(10),
        resilience: ResilienceOptions {
            spans,
            ..ResilienceOptions::default()
        },
    }
}

/// Boots a cluster for `trace` with its store under `root`.
pub fn start(root: &Path, trace: &Trace, spans: Option<SpanSink>) -> Result<ClusterHandle, String> {
    ClusterHandle::start(runtime_config(root.to_path_buf(), spans), trace)
        .map_err(|e| format!("start loopback cluster: {e}"))
}

/// Closed-loop load for at least `seconds`, issued in blocks of
/// `per_client` requests per client. Each block is one `loadgen::run`
/// with fresh client threads, so a block is also a fresh draw of thread
/// placement on the host's cores.
pub fn load(
    cluster: &ClusterHandle,
    seconds: f64,
    per_client: usize,
    seed: u64,
) -> Result<Vec<LoadReport>, String> {
    let addr = cluster
        .server_addr()
        .map_err(|e| format!("server addr: {e}"))?;
    let mut blocks = Vec::new();
    let t0 = Instant::now();
    while blocks.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let block = blocks.len() as u64;
        blocks.push(loadgen::run(
            addr,
            &LoadConfig {
                clients: CLIENTS,
                requests_per_client: per_client,
                think: Duration::ZERO,
                deadline_us: 0,
                files: FILES,
                seed: seed.wrapping_add(block.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                request_timeout: Duration::from_secs(30),
            },
        ));
    }
    Ok(blocks)
}

/// Folds load blocks into one report.
pub fn merge(blocks: &[LoadReport]) -> LoadReport {
    let mut total = LoadReport::default();
    for r in blocks {
        total.sent += r.sent;
        total.completed += r.completed;
        total.busy += r.busy;
        total.shed += r.shed;
        total.errors += r.errors;
        total.latencies.extend_from_slice(&r.latencies);
        total.elapsed += r.elapsed;
    }
    total
}

/// Requests the client-side report counts as failed, refused, or shed.
pub fn failed(report: &LoadReport) -> u64 {
    report.busy + report.shed + report.errors
}

/// Checks both ledgers of a load window and reads a seeded sample of
/// files back through `get_verified`.
pub fn check_cluster(
    cluster: &mut ClusterHandle,
    report: &LoadReport,
    window: &ClusterStats,
    seed: u64,
    violations: &mut Vec<String>,
) {
    check(violations, report.ledger_closes(), || {
        format!("load report ledger open: {report:?}")
    });
    check(violations, failed(report) == 0, || {
        format!("{} requests failed, refused or shed", failed(report))
    });
    check(
        violations,
        window.offered == window.admitted + window.rejected + window.shed
            && window.admitted == window.completed + window.node_shed + window.request_errors,
        || format!("server ledger open: {window:?}"),
    );
    check(violations, window.request_errors == 0, || {
        format!("server counted {} request errors", window.request_errors)
    });
    check(violations, window.completed == report.completed, || {
        format!(
            "server completed {} GETs, clients {}",
            window.completed, report.completed
        )
    });
    let expect = file_pattern(0, FILE_BYTES).len();
    for i in 0..VERIFIED_READS {
        let file = (seed.wrapping_add(u64::from(i) * 7) % u64::from(FILES)) as u32;
        match cluster.get_verified(file) {
            Ok(r) => check(violations, r.data.len() == expect, || {
                format!("file {file}: {} bytes, expected {expect}", r.data.len())
            }),
            Err(e) => violations.push(format!("get_verified({file}): {e}")),
        }
    }
}

/// Reads cluster statistics, as a benchmark error on failure.
pub fn stats(cluster: &mut ClusterHandle) -> Result<ClusterStats, String> {
    cluster.stats().map_err(|e| format!("cluster stats: {e}"))
}
