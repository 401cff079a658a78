//! Per-layer probes: each one times calls into a single layer's public
//! functions from outside, on the workload's own inputs.

use crate::events::{self, Event};
use crate::host::Counters;
use crate::report::Report;
use crate::stats::median;
use crate::workload::diba_config;
use dpc_alg::diba::{node_action_into, DibaRun, NodeParams, NodeScratch};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::workload::Cluster;
use dpc_runtime::wire::{BatchEntry, BatchWriter, DataBatch, EntryKind, Reassembly};
use dpc_runtime::NodeReport;
use dpc_topology::Graph;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each micro-probe keeps repeating its call.
const PROBE_TIME: Duration = Duration::from_millis(200);

/// Repeats `f` until [`PROBE_TIME`] has passed; returns seconds per call.
fn per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed() < PROBE_TIME {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// `/proc/self/io` counts read/write-family syscalls only: the socket
/// carriers move bytes with `send`/`recv` (std's `TcpStream`), which it
/// does not see, so these counts cover eventfd wakes and file I/O.
const SYSCALL_LABEL: &str = "process-wide /proc/self/io; socket send/recv not counted";

/// Timed reactor deployments of one shape: the wall time of each and the
/// process counters accumulated across them.
#[derive(Debug, Clone, Default)]
pub struct ReactorSamples {
    /// Wall time of each deployment (seconds).
    pub walls: Vec<f64>,
    /// Process-wide counter growth summed over the deployments.
    pub counters: Counters,
    /// Rounds each deployment ran.
    pub rounds: usize,
}

impl ReactorSamples {
    /// Adds one deployment.
    pub fn add(&mut self, wall: f64, delta: &Counters) {
        self.walls.push(wall);
        self.counters.add(delta);
    }
}

/// Reactor metrics from capped deployments of `n` agents on `shards`
/// shards. `bringup_s` is subtracted from each deployment (it includes its
/// first round) so the per-round cost covers steady rounds only.
pub fn reactor_metrics(
    report: &mut Report,
    s: &ReactorSamples,
    n: usize,
    shards: usize,
    bringup_s: f64,
    lockstep_ns: f64,
) {
    let deployments = s.walls.len().max(1) as f64;
    let rounds = (s.rounds.max(2) - 1) as f64;
    let per_deployment: Vec<f64> = s
        .walls
        .iter()
        .map(|w| (w - bringup_s) / (n as f64 * rounds) * 1e9)
        .collect();
    let ns = median(&per_deployment);
    report
        .layer("runtime.reactor.ns_per_node_round", Some(ns), "ns")
        .label("deployment wall time less bring-up")
        .spread(&per_deployment);
    let wall: f64 = s.walls.iter().sum();
    let per_round = |x: u64| x as f64 / (deployments * s.rounds.max(1) as f64);
    report
        .layer(
            "runtime.reactor.cpu_util",
            Some(s.counters.cpu_s / (wall * shards as f64)),
            "ratio",
        )
        .label("process CPU / (wall x pinned shards)");
    report
        .layer(
            "runtime.reactor.read_syscalls_per_round",
            Some(per_round(s.counters.syscr)),
            "count",
        )
        .label(SYSCALL_LABEL);
    report
        .layer(
            "runtime.reactor.write_syscalls_per_round",
            Some(per_round(s.counters.syscw)),
            "count",
        )
        .label(SYSCALL_LABEL);
    report
        .layer(
            "runtime.reactor.ctx_switches_per_round",
            Some(per_round(s.counters.ctx_switches)),
            "count",
        )
        .label("process-wide getrusage");
    report.layer(
        "runtime.lockstep.ns_per_node_round",
        Some(lockstep_ns),
        "ns",
    );
    report
        .layer(
            "runtime.reactor_over_lockstep",
            Some(ns / lockstep_ns),
            "ratio",
        )
        .label("transport cost over the thread-free floor");
}

/// Message metrics of the deterministic lockstep pass.
pub fn agent_metrics(report: &mut Report, reports: &[NodeReport]) {
    let node_rounds: u64 = reports.iter().map(|r| r.rounds as u64).sum();
    let msgs: u64 = reports.iter().map(|r| r.msgs_sent).sum();
    let heartbeats: u64 = reports.iter().map(|r| r.heartbeats_sent).sum();
    report
        .layer(
            "runtime.agent.msgs_per_node_round",
            Some(msgs as f64 / node_rounds.max(1) as f64),
            "count",
        )
        .label("deterministic lockstep pass");
    report
        .layer(
            "runtime.agent.heartbeat_frac",
            Some(heartbeats as f64 / msgs.max(1) as f64),
            "ratio",
        )
        .label("deterministic lockstep pass");
}

/// Wire encode/decode cost on one round of the workload's traffic: one
/// `Data` entry per directed edge, grouped into one batch per shard pair
/// exactly as the reactor's carriers group them, with `e` taken from the
/// workload's own states.
pub fn wire_metrics(report: &mut Report, graph: &Graph, shards: usize, states: &[(f64, f64)]) {
    let cuts = graph.shard_offsets(shards);
    let shard_of = |v: usize| cuts.partition_point(|&c| c <= v) - 1;
    let mut carriers: Vec<Vec<BatchEntry>> = vec![Vec::new(); shards * shards];
    for v in 0..graph.len() {
        for (slot, &peer) in graph.neighbors(v).iter().enumerate() {
            carriers[shard_of(v) * shards + shard_of(peer)].push(BatchEntry {
                slot: slot as u32,
                e: states[v].1,
                transfer: -1e-3 * slot as f64,
                settled: false,
                kind: EntryKind::Data,
            });
        }
    }
    let entries: usize = carriers.iter().map(Vec::len).sum();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); carriers.len()];
    let encode = per_call(|| {
        for (entries, buf) in carriers.iter().zip(bufs.iter_mut()) {
            buf.clear();
            let mut w = BatchWriter::new();
            for e in entries {
                w.push(buf, 7, *e, true);
            }
            w.seal(buf);
        }
        black_box(&bufs);
    });
    let bytes: usize = bufs.iter().map(Vec::len).sum();
    let mut batch = DataBatch::default();
    let decode = per_call(|| {
        let mut decoded = 0usize;
        for buf in &bufs {
            let mut r = Reassembly::new();
            r.push(buf);
            while let Some(_kind) = r.next_frame_into(&mut batch).expect("well-formed frames") {
                decoded += batch.entries.len();
            }
        }
        assert_eq!(decoded, entries);
    });
    report.layer(
        "runtime.wire.encode_ns_per_entry",
        Some(encode / entries as f64 * 1e9),
        "ns",
    );
    report.layer(
        "runtime.wire.decode_ns_per_entry",
        Some(decode / entries as f64 * 1e9),
        "ns",
    );
    report
        .layer(
            "runtime.wire.bytes_per_node_round",
            Some(bytes as f64 / graph.len() as f64),
            "B",
        )
        .label("computed: one encoded round of Data entries");
}

/// The DiBA kernel on the workload's own `(p, e)` states.
pub fn kernel_metric(
    report: &mut Report,
    problem: &PowerBudgetProblem,
    graph: &Graph,
    params: &NodeParams,
    states: &[(f64, f64)],
) {
    let neigh: Vec<Vec<f64>> = (0..graph.len())
        .map(|v| graph.neighbors(v).iter().map(|&j| states[j].1).collect())
        .collect();
    let mut scratch = NodeScratch::with_capacity(graph.max_degree());
    let sweep = per_call(|| {
        for (v, &(p, e)) in states.iter().enumerate() {
            black_box(node_action_into(
                problem.utility(v),
                p,
                e,
                &neigh[v],
                params,
                &mut scratch,
            ));
        }
    });
    report.layer(
        "alg.diba.kernel_ns_per_node",
        Some(sweep / states.len() as f64 * 1e9),
        "ns",
    );
}

/// The synchronous engine's round rate (`DibaRun::step`, one thread) from
/// a cold start of the workload's problem.
pub fn engine_metric(report: &mut Report, problem: &PowerBudgetProblem, graph: &Graph) {
    let mut run = DibaRun::new(problem.clone(), graph.clone(), diba_config())
        .expect("the workload's problem is valid");
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while rounds < 16 || t0.elapsed() < PROBE_TIME {
        run.step();
        rounds += 1;
    }
    report.layer(
        "alg.diba.rounds_per_s",
        Some(rounds as f64 / t0.elapsed().as_secs_f64()),
        "rounds/s",
    );
}

/// Cost of applying generated events (`set_budget`/`replace_utilities`)
/// to a warm copy of `run`; the copy is made outside the timed call.
pub fn apply_metric(report: &mut Report, run: &DibaRun, cluster: &mut Cluster, seed: u64) {
    let evs: Vec<Event> = events::generate(cluster, run.problem().budget().0, 40, seed);
    let mut times = Vec::with_capacity(evs.len());
    for ev in &evs {
        let mut warm = run.clone();
        let t0 = Instant::now();
        events::apply(&mut warm, ev).expect("generated events are valid");
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(&warm);
    }
    report
        .layer("alg.diba.apply_event_us", Some(median(&times)), "us")
        .spread(&times);
}

/// The oracle's solve time (it stays outside every timed region).
pub fn oracle_metric(report: &mut Report, problem: &PowerBudgetProblem) {
    let t = per_call(|| {
        black_box(dpc_alg::centralized::solve(problem));
    });
    report.layer("alg.centralized.solve_ms", Some(t * 1e3), "ms");
}
