//! The traced run: per-layer metrics, each timed or counted from outside
//! the layer by calling its public functions on the workload's inputs.
//!
//! The simulator layers are profiled on the selected workload's own
//! traces (for `loopback`, the trace the prototype is set up with). The
//! prototype layers (codec, store, server, node) exist only in the
//! loopback setting, so every traced run profiles them there. Nothing
//! here feeds an end-to-end metric: those come from untraced runs.

use crate::des::{self, DesInputs, DesRun, RunKind};
use crate::loopback;
use crate::report::{check, median, timed, Metrics, Outcome};
use crate::{des_inputs, grid_artifact, store_root, Options, Workload, HELD_OUT_SEED};
use eevfs::config::{BufferPolicy, ClusterSpec};
use eevfs::placement::place;
use eevfs::prefetch::{plan_topk, predict_benefit, PrefetchPlan};
use eevfs::replication::replicate;
use eevfs::RunMetrics;
use eevfs_runtime::proto::Message;
use eevfs_runtime::server::SpanKind;
use eevfs_runtime::store::{file_pattern, FileStore};
use eevfs_runtime::{ClusterHandle, SpanSink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::popularity::PopularityTable;
use workload::record::Trace;

/// Trace-event kinds counted per request; anything else is `other`.
pub const EVENT_KINDS: [&str; 19] = [
    "RequestArrive",
    "RequestQueued",
    "SpinupWait",
    "RequestServe",
    "TierServe",
    "RequestComplete",
    "DiskTransition",
    "PrefetchFile",
    "SleepDecision",
    "IdleRealized",
    "RpcSend",
    "RpcDropped",
    "RpcRetry",
    "RpcHedge",
    "RpcComplete",
    "CorruptionDetected",
    "ScrubPass",
    "JournalReplay",
    "NodeRestart",
];

/// Energy-ledger power-state rows reported per request.
pub const LEDGER_STATES: [&str; 9] = [
    "disks-active",
    "disks-idle",
    "disks-standby",
    "disks-spinup",
    "disks-spindown",
    "base-power",
    "ssd-tier",
    "meter-residual",
    "rounding-carry",
];

/// Plain-versus-observed repetitions behind `obs.overhead_pct`.
const OVERHEAD_REPS: usize = 3;

/// Runs the whole per-layer profile for `opts.workload`.
pub fn profile(opts: &Options) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut v = Vec::new();

    // workload: trace generation, on the workload's own specs.
    let (mut inputs, gen) = timed(|| des_inputs(opts.workload, opts.size, opts.seed));
    let generated: usize = inputs.traces.iter().map(Trace::len).sum();
    m.push("workload.generate_s", gen.as_secs_f64(), "s");
    m.push(
        "workload.generate_ns_per_req",
        gen.as_secs_f64() * 1e9 / generated as f64,
        "ns",
    );
    if opts.workload == Workload::PaperGrid {
        // The grid pass has no powered run; profile one per cell.
        let powered: Vec<DesRun> = inputs
            .runs
            .iter()
            .filter(|r| r.kind == RunKind::Pf)
            .map(|r| DesRun {
                kind: RunKind::Powered,
                ..r.clone()
            })
            .collect();
        inputs.runs.extend(powered);
    }

    // eevfs.plan: the planning steps every run performs before its loop.
    let plan_s: f64 = inputs
        .runs
        .iter()
        .map(|r| timed(|| plan(&inputs.cluster, r, &inputs.traces[r.trace])).1)
        .sum::<Duration>()
        .as_secs_f64();
    m.push("eevfs.plan_s", plan_s, "s");

    // eevfs.driver: one pass, split by configuration.
    let pass = des::pass(&inputs);
    des::check_pass(&inputs, &pass, &mut v);
    for (kind, name) in [
        (RunKind::Pf, "driver.run_s.pf"),
        (RunKind::Npf, "driver.run_s.npf"),
        (RunKind::Powered, "driver.run_s.powered"),
    ] {
        let s: Duration = inputs
            .runs
            .iter()
            .zip(&pass.wall)
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, w)| *w)
            .sum();
        m.push(name, s.as_secs_f64(), "s");
    }
    let run_s: f64 = pass.wall.iter().sum::<Duration>().as_secs_f64();
    m.push(
        "driver.ns_per_req",
        (run_s - plan_s) * 1e9 / pass.requests as f64,
        "ns",
    );

    // The primary runs: the paper's default operating point.
    let primary = |kind: RunKind| -> Result<usize, String> {
        let trace = match opts.workload {
            Workload::PaperGrid => inputs.labels.iter().position(|l| l == "K=70"),
            _ => Some(0),
        };
        inputs
            .runs
            .iter()
            .position(|r| r.kind == kind && Some(r.trace) == trace)
            .ok_or_else(|| format!("no primary {kind:?} run"))
    };
    let pf = primary(RunKind::Pf)?;
    let powered = primary(RunKind::Powered)?;
    let observed = des::observe(&inputs, &inputs.runs[pf], &pass.metrics[pf], &mut v);
    let requests = inputs.traces[inputs.runs[pf].trace].len() as f64;

    let mut counts = vec![0u64; EVENT_KINDS.len() + 1];
    for e in &observed.events {
        let debug = format!("{:?}", e.kind);
        let name = debug.split([' ', '{', '(']).next().unwrap_or("");
        let i = EVENT_KINDS.iter().position(|k| *k == name);
        counts[i.unwrap_or(EVENT_KINDS.len())] += 1;
    }
    for (i, c) in counts.iter().enumerate() {
        let kind = EVENT_KINDS.get(i).copied().unwrap_or("other");
        m.push(
            format!("obs.events_per_req.{kind}"),
            *c as f64 / requests,
            "1/req",
        );
    }
    m.push(
        "obs.overhead_pct",
        observation_overhead_pct(&inputs, pf, &mut v),
        "%",
    );

    model_counters(&mut m, &pass.metrics[pf], &pass.metrics[powered], requests);

    // eevfs-audit on the observed primary PF run.
    let n = observed.spans.len().max(1) as f64;
    for (name, f) in [
        (
            "audit.queue_ms_per_req",
            (|s| s.queue_us) as fn(&eevfs_audit::RequestSpan) -> u64,
        ),
        ("audit.dispatch_ms_per_req", |s| s.dispatch_us),
        ("audit.spinup_ms_per_req", |s| s.spinup_us),
        ("audit.transfer_ms_per_req", |s| s.transfer_us),
    ] {
        let total: u64 = observed.spans.iter().map(f).sum();
        m.push(name, total as f64 / 1e3 / n, "sim_ms");
    }
    for state in LEDGER_STATES {
        let j = observed
            .ledger
            .state_rows
            .iter()
            .find(|r| r.name == state)
            .map(|r| r.joules);
        check(&mut v, j.is_some(), || {
            format!("ledger has no `{state}` row")
        });
        m.push(
            format!("audit.joules_per_req.{state}"),
            j.unwrap_or(f64::NAN) / n,
            "sim_J",
        );
    }
    drop(observed);

    // serialise: the workload's artifact through the serde_json shim.
    let (artifact, ser) = if opts.workload == Workload::PaperGrid {
        let (a, d) = timed(|| grid_artifact(&inputs, &pass));
        (a?, d)
    } else {
        let (a, d) = timed(|| serde_json::to_string(&pass.metrics));
        (a.map_err(|e| format!("serialise run metrics: {e}"))?, d)
    };
    m.push("serialise.s", ser.as_secs_f64(), "s");
    m.push("serialise.mb", artifact.len() as f64 / 1e6, "MB");
    drop(artifact);

    runtime_layers(opts, &mut m, &mut v)?;

    // The paper's figures on this seed and on the held-out seed.
    let seed_figures = des::sim_figures(&inputs, &pass);
    drop(inputs);
    let held = des_inputs(opts.workload, opts.size, HELD_OUT_SEED);
    let held_pass = des::pass(&held);
    des::check_pass(&held, &held_pass, &mut v);
    let held_figures = des::sim_figures(&held, &held_pass);
    for (prefix, f) in [("seed", seed_figures), ("heldout", held_figures)] {
        m.push(
            format!("{prefix}.sim_joules_per_req"),
            f.joules_per_req,
            "sim_J",
        );
        m.push(
            format!("{prefix}.sim_energy_pf_over_npf"),
            f.energy_pf_over_npf,
            "ratio",
        );
        m.push(
            format!("{prefix}.sim_response_p50_s"),
            f.response_p50_s,
            "sim_s",
        );
        m.push(
            format!("{prefix}.sim_response_p99_s"),
            f.response_p99_s,
            "sim_s",
        );
    }

    Ok(Outcome {
        attempted: pass.requests,
        failed: pass.metrics.iter().map(des::failed_requests).sum(),
        violations: v,
        metrics: m,
    })
}

/// The planning steps the driver runs before its event loop, called
/// through their public functions on the run's own inputs.
fn plan(cluster: &ClusterSpec, run: &DesRun, trace: &Trace) {
    let cfg = &run.cfg;
    let disks = cluster.data_disk_counts();
    let popularity = PopularityTable::from_trace(trace);
    let placement = place(cfg.placement, &popularity, &disks);
    let replicas = replicate(&placement, cfg.replication.max(1) as usize, &disks);
    let caps: Vec<u64> = cluster
        .nodes
        .iter()
        .map(|n| n.buffer_disk.capacity_bytes)
        .collect();
    let prefetch = match cfg.buffer {
        BufferPolicy::PrefetchTopK { k } => {
            plan_topk(k, &popularity, &placement, &trace.file_sizes, &caps)
        }
        _ => PrefetchPlan::empty(cluster.node_count()),
    };
    let data_specs: Vec<&[disk_model::DiskSpec]> = cluster
        .nodes
        .iter()
        .map(|n| n.data_disks.as_slice())
        .collect();
    let buffer_specs: Vec<&disk_model::DiskSpec> =
        cluster.nodes.iter().map(|n| &n.buffer_disk).collect();
    let benefit = predict_benefit(
        trace,
        &placement,
        &prefetch,
        &data_specs,
        &buffer_specs,
        cfg,
    );
    black_box((replicas, benefit));
}

/// `100 × (observed / plain − 1)` over the medians of a few wall times of
/// the primary PF run with and without a recorder.
fn observation_overhead_pct(inputs: &DesInputs, pf: usize, v: &mut Vec<String>) -> f64 {
    let run = &inputs.runs[pf];
    let mut plain = Vec::with_capacity(OVERHEAD_REPS);
    let mut observed = Vec::with_capacity(OVERHEAD_REPS);
    for _ in 0..OVERHEAD_REPS {
        let (m, d) = timed(|| des::execute(inputs, run));
        plain.push(d.as_secs_f64());
        let o = des::observe(inputs, run, &m, v);
        observed.push(o.wall.as_secs_f64());
    }
    100.0 * (median(&observed) / median(&plain) - 1.0)
}

/// Model counters read exactly from `RunMetrics`.
fn model_counters(m: &mut Metrics, pf: &RunMetrics, powered: &RunMetrics, requests: f64) {
    m.push("driver.buffer_hit_rate", pf.hit_rate(), "ratio");
    m.push(
        "driver.spin_ups_per_req",
        pf.spun_up_requests as f64 / requests,
        "1/req",
    );
    m.push(
        "driver.writes_buffered_per_req",
        pf.writes_buffered as f64 / requests,
        "1/req",
    );
    m.push("driver.destages", pf.destages as f64, "count");
    m.push(
        "power.sleep_decisions_per_req",
        powered.prediction.sleeps as f64 / requests,
        "1/req",
    );
    m.push(
        "power.prediction_accuracy",
        powered.prediction.accuracy(),
        "ratio",
    );
    let tier = powered.tier;
    let lookups = tier.dram_hits + tier.dram_misses;
    m.push(
        "tier.dram_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            tier.dram_hits as f64 / lookups as f64
        },
        "ratio",
    );
}

/// Median wall time of `iters` calls of `f`, microseconds.
fn micro_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The prototype's layers in the loopback setting: codec and store
/// micro-timings, then the same load with and without the span sink.
fn runtime_layers(opts: &Options, m: &mut Metrics, v: &mut Vec<String>) -> Result<(), String> {
    let iters = opts.size.micro_iters;
    let data = file_pattern(1, loopback::FILE_BYTES);
    let file_data = Message::FileData {
        req_id: 1,
        file: 1,
        data: data.clone().into(),
    };
    let frame = file_data.encode();
    let body = frame.slice(4..);
    match Message::decode(body.clone()) {
        Ok(decoded) => check(v, decoded == file_data, || {
            "FileData did not survive an encode/decode round trip".into()
        }),
        Err(e) => v.push(format!("decode FileData: {e:?}")),
    }
    m.push(
        "proto.encode_us.file_data",
        micro_us(iters, || file_data.encode()),
        "us",
    );
    m.push(
        "proto.decode_us.file_data",
        micro_us(iters, || Message::decode(body.clone())),
        "us",
    );
    let get = Message::Get {
        req_id: 1,
        file: 1,
        client_port: 1,
        deadline_us: 0,
        priority: 0,
    };
    // A Get frame encodes in well under a microsecond: time batches.
    const BATCH: usize = 1000;
    let batch_us = micro_us(iters, || {
        for _ in 0..BATCH {
            black_box(get.encode());
        }
    });
    m.push("proto.encode_us.get", batch_us / BATCH as f64, "us");

    let store_dir = store_root(opts, "store-probe");
    let store = FileStore::create(&store_dir, 1).map_err(|e| format!("create store: {e}"))?;
    let store_files = 16u32;
    for f in 0..store_files {
        store
            .create_file(0, f, loopback::FILE_BYTES)
            .and_then(|_| store.prefetch(0, f))
            .map_err(|e| format!("populate store: {e}"))?;
    }
    let mut next = 0u32;
    let mut read = |buffer: bool| {
        next = (next + 1) % store_files;
        let r = if buffer {
            store.read_buffer(next)
        } else {
            store.read_data(0, next)
        };
        r.map(|d| d == file_pattern(next, loopback::FILE_BYTES))
    };
    let mut store_ok = true;
    let data_us = micro_us(iters, || store_ok &= read(false).unwrap_or(false));
    let buffer_us = micro_us(iters, || store_ok &= read(true).unwrap_or(false));
    check(v, store_ok, || {
        "a store read returned wrong contents".into()
    });
    m.push("store.read_data_us", data_us, "us");
    m.push("store.read_buffer_us", buffer_us, "us");
    let _ = std::fs::remove_dir_all(&store_dir);

    let trace = workload::synthetic::generate(&des::loopback_spec(opts.size, opts.seed));
    let sink: SpanSink = Arc::default();
    let mut plain = loopback::start(&store_root(opts, "probe"), &trace, None)?;
    let traced = loopback::start(&store_root(opts, "probe-spans"), &trace, Some(sink.clone()));
    let probe = match traced {
        Ok(mut traced) => {
            let probe = span_probe(opts, &mut plain, &mut traced, &sink, v);
            traced.shutdown();
            probe
        }
        Err(e) => Err(e),
    };
    plain.shutdown();
    let probe = probe?;
    let served = probe.completed.max(1) as f64;
    m.push("server.sends_per_req", probe.sends as f64 / served, "1/req");
    m.push(
        "server.retries_per_req",
        probe.retries as f64 / served,
        "1/req",
    );
    let w = &probe.window;
    let lookups = (w.hits + w.misses).max(1) as f64;
    m.push("node.hit_rate", w.hits as f64 / lookups, "ratio");
    m.push("node.spin_ups_per_req", w.spin_ups as f64 / served, "1/req");
    m.push("runtime.span_overhead_pct", probe.overhead_pct, "%");
    Ok(())
}

/// What the span probe measured on the cluster with the span sink.
struct SpanProbe {
    completed: u64,
    window: eevfs_runtime::server::ClusterStats,
    /// Span-sink `Send` and `Retry` records inside the load window.
    sends: u64,
    retries: u64,
    /// Median block mean latency with the sink over that without, as a
    /// percentage above 100.
    overhead_pct: f64,
}

/// Loads two identical clusters, one recording spans, in alternating
/// blocks for half the run length, so host-speed drift reaches both
/// alike; then checks both clusters' ledgers.
fn span_probe(
    opts: &Options,
    plain: &mut ClusterHandle,
    traced: &mut ClusterHandle,
    sink: &SpanSink,
    v: &mut Vec<String>,
) -> Result<SpanProbe, String> {
    let recorded = || {
        sink.lock()
            .map(|s| s.len())
            .map_err(|_| "span sink poisoned")
    };
    let first = recorded()?;
    let (plain0, traced0) = (loopback::stats(plain)?, loopback::stats(traced)?);
    let (mut plain_blocks, mut traced_blocks) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut block = 0u64;
    while block == 0 || t0.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let seed = opts.seed.wrapping_add(block);
        // A zero-length phase is exactly one block.
        plain_blocks.extend(loopback::load(
            plain,
            0.0,
            opts.size.block_per_client,
            seed,
        )?);
        traced_blocks.extend(loopback::load(
            traced,
            0.0,
            opts.size.block_per_client,
            seed,
        )?);
        block += 1;
    }
    let plain_window = loopback::stats(plain)? - plain0;
    let window = loopback::stats(traced)? - traced0;
    let last = recorded()?;
    let plain_report = loopback::merge(&plain_blocks);
    let report = loopback::merge(&traced_blocks);
    loopback::check_cluster(plain, &plain_report, &plain_window, opts.seed, v);
    loopback::check_cluster(traced, &report, &window, opts.seed, v);

    let (mut sends, mut retries) = (0, 0);
    let spans = sink.lock().map_err(|_| "span sink poisoned")?;
    for span in &spans[first..last] {
        match span.kind {
            SpanKind::Send => sends += 1,
            SpanKind::Retry => retries += 1,
            _ => {}
        }
    }
    let mean_ms = |blocks: &[eevfs_runtime::LoadReport]| {
        let means: Vec<f64> = blocks
            .iter()
            .map(|b| {
                let total: Duration = b.latencies.iter().sum();
                total.as_secs_f64() * 1e3 / b.latencies.len().max(1) as f64
            })
            .collect();
        median(&means)
    };
    Ok(SpanProbe {
        completed: report.completed,
        window,
        sends,
        retries,
        overhead_pct: 100.0 * (mean_ms(&traced_blocks) / mean_ms(&plain_blocks) - 1.0),
    })
}
