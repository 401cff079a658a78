//! The cold workloads: whole-cluster deployments on the reactor, from a
//! cold start, in a closed loop (one deployment at a time).
//!
//! Each run first settles, untimed, everything deterministic about the
//! trajectory (oracle, exact rounds to ε, the settle reference) and then
//! alternates two timed operations until the time is up:
//!
//! * an **ε deployment** capped at `rounds_to_eps` — its wall time, from
//!   the deployment call until every agent stopped, is the time to ε, and
//!   the allocation it returns must itself meet ε;
//! * a **settle deployment**, uncapped, until every agent exits through
//!   convergence quorum (1k workloads only).

use crate::eps::{Oracle, DRIFT_TOL_W_PER_NODE};
use crate::host::Counters;
use crate::layers::{self, ReactorSamples};
use crate::reference::{rounds_to_eps, sampled_pass, with_cap, AtEps, Executor, Sampled};
use crate::report::Report;
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::workload::{diba_config, runtime_config, Workload, SETTLE_ROUND_CAP};
use dpc_alg::diba::DibaRun;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::workload::Cluster;
use dpc_net::timing::{neighbor_round, LinkTiming};
use dpc_runtime::cluster::{node_specs, RuntimeConfig};
use dpc_runtime::lockstep::run_lockstep;
use dpc_runtime::reactor::run_reactor_cluster;
use dpc_runtime::{NodeReport, NodeSpec, RuntimeError};
use dpc_topology::Graph;
use std::time::{Duration, Instant};

/// Sampled-pass shape `(every, caps)` per workload: the 1k workloads run
/// uncapped to quorum (it is their settle reference) sampled every 16
/// rounds; the 10k torus, where nothing settles, samples every 4 rounds
/// (two bisection runs instead of four) up to a cap just past the ~580
/// rounds ε takes there, retrying once with a longer cap.
fn search_shape(w: Workload) -> (usize, &'static [usize]) {
    if w.settles() {
        (16, &[SETTLE_ROUND_CAP])
    } else {
        (4, &[768, 2048])
    }
}

/// Rounds of the lockstep probe that times the executor where the
/// reference passes run on the reactor.
const LOCKSTEP_PROBE_ROUNDS: usize = 64;

/// Fewest timed operations of each kind, whatever the time budget.
const MIN_OPS: usize = 3;

/// A settle deployment runs every this many ε deployments: it costs about
/// five of them, and `time_to_eps_s` is the gated number.
const SETTLE_EVERY: usize = 3;

/// Set-up repetitions behind `setup_s`.
fn setup_reps(w: Workload) -> usize {
    if w.servers() > 1024 {
        3
    } else {
        5
    }
}

/// Everything a cold run deploys.
pub struct Inputs {
    pub graph: Graph,
    pub problem: PowerBudgetProblem,
    pub cluster: Cluster,
    pub specs: Vec<NodeSpec>,
    pub rt: RuntimeConfig,
}

/// Wall times of the set-up repetitions.
#[derive(Default)]
pub struct SetupTimes {
    total: Vec<f64>,
    topology: Vec<f64>,
    specs: Vec<f64>,
    bringup: Vec<f64>,
}

/// Set-up: topology build, `node_specs`, and reactor bring-up (a one-round
/// deployment of the same cluster), repeated and timed.
pub fn set_up(
    w: Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Inputs, SetupTimes), RuntimeError> {
    let (cluster, problem) = w.problem(seed);
    let rt = runtime_config();
    let mut times = SetupTimes::default();
    let mut built = None;
    for _ in 0..setup_reps(w) {
        let t0 = Instant::now();
        let graph = tracer.span("topology.build", 0, || w.topology(seed));
        let t1 = Instant::now();
        let specs = tracer.span("runtime.cluster.node_specs", 0, || {
            node_specs(&problem, &graph, diba_config(), &rt)
        })?;
        let t2 = Instant::now();
        let one_round = with_cap(&specs, 1, 0);
        tracer.span("runtime.reactor.bringup", 0, || {
            run_reactor_cluster(one_round, &graph, &rt)
        })?;
        let t3 = Instant::now();
        times.total.push((t3 - t0).as_secs_f64());
        times.topology.push((t1 - t0).as_secs_f64());
        times.specs.push((t2 - t1).as_secs_f64());
        times.bringup.push((t3 - t2).as_secs_f64());
        built = Some((graph, specs));
    }
    let (graph, specs) = built.expect("at least one set-up rep");
    Ok((
        Inputs {
            graph,
            problem,
            cluster,
            specs,
            rt,
        },
        times,
    ))
}

/// The untimed deterministic facts every operation is checked against.
struct Truth {
    oracle: Oracle,
    sampled: Sampled,
    at_eps: Option<AtEps>,
}

/// Compares reactor reports with lockstep reports bit for bit.
fn bitwise_mismatch(got: &[NodeReport], want: &[NodeReport]) -> Option<String> {
    got.iter().zip(want).find_map(|(g, r)| {
        let same = g.p.to_bits() == r.p.to_bits()
            && g.e.to_bits() == r.e.to_bits()
            && g.rounds == r.rounds
            && g.converged == r.converged;
        (!same).then(|| {
            format!(
                "reactor differs from lockstep at node {}: p {} vs {}, rounds {} vs {}",
                g.node, g.p, r.p, g.rounds, r.rounds
            )
        })
    })
}

fn drift(reports: &[NodeReport], budget: f64) -> f64 {
    let sum_p: f64 = reports.iter().map(|r| r.p).sum();
    let sum_e: f64 = reports.iter().map(|r| r.e).sum();
    (sum_e - (sum_p - budget)).abs()
}

/// The checks every deployment must pass, whichever kind.
fn check(
    w: Workload,
    truth: &Truth,
    outcome: &Result<Vec<NodeReport>, RuntimeError>,
    reference: &[NodeReport],
    what: &str,
) -> Option<String> {
    let reports = match outcome {
        Ok(r) => r,
        Err(e) => return Some(format!("{what}: deployment error: {e}")),
    };
    let powers: Vec<f64> = reports.iter().map(|r| r.p).collect();
    let j = truth.oracle.judge(&powers);
    let drift = drift(reports, truth.oracle.budget());
    if let Some((r, sum_p)) = truth.sampled.first_overshoot() {
        Some(format!(
            "sum p = {sum_p} W exceeded the budget at sampled round {r}"
        ))
    } else if !j.within {
        Some(format!(
            "{what}: outside ε (sum p {:.1} W of {:.1} W, utility gap {:.3}%)",
            j.sum_p,
            truth.oracle.budget(),
            j.gap_pct
        ))
    } else if drift > DRIFT_TOL_W_PER_NODE * reports.len() as f64 {
        Some(format!("{what}: residual drift {drift:e} W"))
    } else if w.pins_lockstep() {
        bitwise_mismatch(reports, reference).map(|m| format!("{what}: {m}"))
    } else {
        None
    }
}

/// What the timed loop measured.
#[derive(Default)]
struct Measured {
    eps: Latencies,
    settle: Latencies,
    reactor: ReactorSamples,
    /// Σ msgs_sent of each ε deployment that returned.
    eps_msgs: Vec<u64>,
    /// Wall time of every settle deployment, failed or not.
    settle_walls: Vec<f64>,
}

/// One timed deployment of `specs`; process counters are read just outside
/// the timed region.
pub fn deploy(
    inputs: &Inputs,
    specs: Vec<NodeSpec>,
    tracer: &mut Tracer,
    name: &'static str,
    op: u64,
) -> (Result<Vec<NodeReport>, RuntimeError>, f64, Counters) {
    let before = Counters::now();
    let open = tracer.begin(name, op);
    let t0 = Instant::now();
    let outcome = tracer.span("runtime.reactor.run_reactor_cluster", op, || {
        run_reactor_cluster(specs, &inputs.graph, &inputs.rt)
    });
    let wall = t0.elapsed().as_secs_f64();
    tracer.end(open);
    let delta = Counters::now().since(&before);
    (outcome.map(|run| run.reports), wall, delta)
}

/// The closed loop: ε deployments with a settle deployment after every
/// [`SETTLE_EVERY`]th, for `seconds` (and at least [`MIN_OPS`] of each).
fn measure(
    w: Workload,
    inputs: &Inputs,
    truth: &Truth,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Measured {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut m = Measured::default();
    if truth.at_eps.is_none() && !w.settles() {
        // Nothing to deploy: the one cold start this run stands for failed.
        m.eps.record(None);
        report.operation(Some("ε not reached within the search cap".to_string()));
        return m;
    }
    let mut op = 0u64;
    let mut rounds = 0usize;
    let enough = |m: &Measured| {
        let eps = m.eps.samples().len() >= MIN_OPS || truth.at_eps.is_none();
        let settle = m.settle.samples().len() >= MIN_OPS || !w.settles();
        eps && settle
    };
    while !enough(&m) || Instant::now() < deadline {
        rounds += 1;
        if let Some(at) = &truth.at_eps {
            op += 1;
            m.reactor.rounds = at.round;
            let specs = with_cap(&inputs.specs, at.round, 0);
            let (outcome, wall, delta) = deploy(inputs, specs, tracer, "op.cold_eps", op);
            if let Ok(reports) = &outcome {
                m.eps_msgs.push(reports.iter().map(|r| r.msgs_sent).sum());
            }
            let failure = tracer.span("bench.check", op, || {
                check(w, truth, &outcome, &at.reports, "ε deployment")
            });
            m.eps.record(failure.is_none().then_some(wall));
            m.reactor.add(wall, &delta);
            report.operation(failure);
        }
        if w.settles() && (rounds.is_multiple_of(SETTLE_EVERY) || truth.at_eps.is_none()) {
            op += 1;
            let specs = inputs.specs.clone();
            let (outcome, wall, _) = deploy(inputs, specs, tracer, "op.cold_settle", op);
            let mut failure = tracer.span("bench.check", op, || {
                check(
                    w,
                    truth,
                    &outcome,
                    &truth.sampled.reports,
                    "settle deployment",
                )
            });
            if let Ok(reports) = &outcome {
                if failure.is_none() && !reports.iter().all(|r| r.converged) {
                    failure = Some("settle deployment: quorum never formed".to_string());
                }
            }
            if truth.at_eps.is_none() {
                // ε is never reached: this deployment missed every ε limit.
                m.eps.record(None);
            }
            m.settle.record(failure.is_none().then_some(wall));
            m.settle_walls.push(wall);
            report.operation(failure);
        }
    }
    m
}

/// Runs a cold workload for about `seconds`, then fills `report`. A traced
/// run spends half the time untraced and half traced, and reports the
/// difference as the tracing overhead.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), RuntimeError> {
    let (mut inputs, setup) = set_up(w, seed, tracer)?;
    let oracle = tracer.span("alg.centralized.solve", 0, || {
        Oracle::solve(&inputs.problem)
    });
    let lockstep = |specs: Vec<NodeSpec>| run_lockstep(specs, &inputs.graph);
    let reactor = |specs: Vec<NodeSpec>| {
        run_reactor_cluster(specs, &inputs.graph, &inputs.rt).map(|run| run.reports)
    };
    let (exec, name): (Executor, _) = if w.pins_lockstep() {
        (&lockstep, "runtime.lockstep.reference")
    } else {
        (&reactor, "runtime.reactor.reference")
    };
    let (every, caps) = search_shape(w);
    let (mut sampled, mut at_eps) = (None, None);
    for &cap in caps {
        let pass = tracer.span(name, 0, || {
            sampled_pass(exec, &inputs.specs, cap, every, &oracle)
        })?;
        at_eps = tracer.span(name, 0, || {
            rounds_to_eps(exec, &inputs.specs, &oracle, &pass)
        })?;
        sampled = Some(pass);
        if at_eps.is_some() {
            break;
        }
    }
    let mut sampled = sampled.expect("at least one sampled pass");
    sampled.drop_traces();
    let reset = crate::host::reset_peak_rss();
    let truth = Truth {
        oracle,
        sampled,
        at_eps,
    };

    let m = if traced {
        let plain = measure(
            w,
            &inputs,
            &truth,
            seconds / 2.0,
            &mut Tracer::new(false),
            report,
        );
        let spanned = measure(w, &inputs, &truth, seconds / 2.0, tracer, report);
        let (a, b) = if truth.at_eps.is_some() {
            (plain.eps.median(), spanned.eps.median())
        } else {
            (plain.settle.median(), spanned.settle.median())
        };
        report
            .layer("bench.trace_overhead_pct", Some(100.0 * (b / a - 1.0)), "%")
            .label("traced minus untraced deployment time, same run");
        crate::host::record_peak_rss(report, reset);
        layer_metrics(w, seed, &mut inputs, &truth, &setup, &spanned, report);
        plain
    } else {
        let m = measure(w, &inputs, &truth, seconds, tracer, report);
        crate::host::record_peak_rss(report, reset);
        m
    };
    end_to_end(w, &inputs, &truth, &setup, &m, report);
    Ok(())
}

fn end_to_end(
    w: Workload,
    inputs: &Inputs,
    truth: &Truth,
    setup: &SetupTimes,
    m: &Measured,
    report: &mut Report,
) {
    let t_eps = m.eps.median();
    let r_eps = truth.at_eps.as_ref().map(|a| a.round as f64);
    report
        .e2e("time_to_eps_s", Some(t_eps), "s")
        .spread(m.eps.samples());
    if w.settles() {
        report
            .e2e("time_to_settle_s", Some(m.settle.median()), "s")
            .spread(m.settle.samples());
    }
    report
        .e2e("rounds_to_eps", r_eps, "rounds")
        .label(if r_eps.is_some() {
            "exact"
        } else {
            "ε never reached"
        });
    let settle_j = truth.sampled.reports.iter().all(|r| r.converged).then(|| {
        let powers: Vec<f64> = truth.sampled.reports.iter().map(|r| r.p).collect();
        truth.oracle.judge(&powers)
    });
    if w.settles() {
        report
            .e2e(
                "rounds_to_settle",
                Some(truth.sampled.rounds() as f64),
                "rounds",
            )
            .label(if settle_j.is_some() {
                "exact"
            } else {
                "quorum never formed"
            });
    }
    report.e2e("rounds_per_s", r_eps.map(|r| r / t_eps), "rounds/s");
    if let Some(j) = settle_j.filter(|_| w.settles()) {
        report.e2e("exit_gap_pct", Some(j.gap_pct), "%");
        report.e2e("exit_max_dev_w", Some(j.max_dev_w), "W");
    }
    report.e2e(
        "failed_frac",
        Some(report.failed as f64 / report.attempted.max(1) as f64),
        "ratio",
    );
    report
        .e2e("setup_s", Some(median(&setup.total)), "s")
        .spread(&setup.total);

    if m.settle.samples().iter().any(|t| t.is_infinite()) {
        report.notes.push(format!(
            "settle deployments that failed still took a median {:.6} s of wall time \
             (counted as +inf above)",
            median(&m.settle_walls)
        ));
    }
    if let (Some(at), Some(lo), Some(hi)) = (
        &truth.at_eps,
        m.eps_msgs.iter().min(),
        m.eps_msgs.iter().max(),
    ) {
        let reference: u64 = at.reports.iter().map(|r| r.msgs_sent).sum();
        report.notes.push(format!(
            "msgs_sent over {} capped reactor deployments: {lo}..{hi} (reference run: {reference}); \
             message counts come from the deterministic pass",
            m.eps_msgs.len()
        ));
    }

    // Calibration: the paper's Table 4.2 network model beside the round
    // cost measured on loopback.
    let model_us = neighbor_round(inputs.graph.max_degree(), LinkTiming::measured_10gbe()).0 * 1e6;
    let measured = r_eps.map(|r| t_eps / r * 1e6);
    report.notes.push(format!(
        "calibration: model neighbor_round(max_degree={}, measured_10gbe) = {model_us:.1} us/round; \
         measured loopback reactor = {} us/round (time_to_eps_s / rounds_to_eps, {} shards, {} servers)",
        inputs.graph.max_degree(),
        measured.map_or("n/a".to_string(), |v| format!("{v:.1}")),
        crate::host::cores(),
        inputs.graph.len()
    ));
}

/// Reports the set-up layers (topology, `node_specs`, reactor bring-up)
/// from the set-up repetitions; returns the median bring-up time.
pub fn setup_metrics(report: &mut Report, setup: &SetupTimes) -> f64 {
    report
        .layer("topology.build_s", Some(median(&setup.topology)), "s")
        .spread(&setup.topology);
    report
        .layer(
            "runtime.cluster.node_specs_s",
            Some(median(&setup.specs)),
            "s",
        )
        .spread(&setup.specs);
    let bringup = median(&setup.bringup);
    report
        .layer("runtime.reactor.bringup_s", Some(bringup), "s")
        .label("one-round deployment")
        .spread(&setup.bringup);
    bringup
}

/// A lockstep run of the cluster capped at `rounds`: its cost in ns per
/// node-round, and its (deterministic) reports.
pub fn lockstep_probe(inputs: &Inputs, rounds: usize) -> (f64, Vec<NodeReport>) {
    let t0 = Instant::now();
    let reports = run_lockstep(with_cap(&inputs.specs, rounds, 0), &inputs.graph)
        .expect("lockstep probe of a valid cluster");
    let ns = t0.elapsed().as_secs_f64() / (inputs.graph.len() * rounds) as f64 * 1e9;
    (ns, reports)
}

fn layer_metrics(
    w: Workload,
    seed: u64,
    inputs: &mut Inputs,
    truth: &Truth,
    setup: &SetupTimes,
    m: &Measured,
    report: &mut Report,
) {
    let n = inputs.graph.len();
    let shards = crate::host::cores();
    let bringup = setup_metrics(report, setup);

    // The states the workload actually visits: at ε when it is reached,
    // else where the sampled pass ended.
    let states: Vec<(f64, f64)> = match &truth.at_eps {
        Some(at) => at.reports.iter().map(|r| (r.p, r.e)).collect(),
        None => truth.sampled.reports.iter().map(|r| (r.p, r.e)).collect(),
    };
    // Lockstep timing and message counts: from the reference passes where
    // they ran on lockstep, else from a short lockstep probe.
    let probe;
    let (lockstep_ns, deterministic) = if w.pins_lockstep() {
        let node_rounds: usize = truth.sampled.reports.iter().map(|r| r.rounds).sum();
        (
            truth.sampled.run_s / node_rounds.max(1) as f64 * 1e9,
            &truth.sampled.reports,
        )
    } else {
        let (ns, reports) = lockstep_probe(inputs, LOCKSTEP_PROBE_ROUNDS);
        probe = reports;
        (ns, &probe)
    };
    if truth.at_eps.is_some() {
        layers::reactor_metrics(report, &m.reactor, n, shards, bringup, lockstep_ns);
    }
    layers::wire_metrics(report, &inputs.graph, shards, &states);
    layers::agent_metrics(report, deterministic);
    if let (Some(at), true) = (&truth.at_eps, w.settles()) {
        report
            .layer(
                "runtime.agent.useful_round_frac",
                Some(at.round as f64 / truth.sampled.rounds() as f64),
                "ratio",
            )
            .label("rounds_to_eps / rounds_to_settle");
    }
    let run = DibaRun::new(inputs.problem.clone(), inputs.graph.clone(), diba_config())
        .expect("the workload's problem is valid");
    layers::kernel_metric(
        report,
        &inputs.problem,
        &inputs.graph,
        &inputs.specs[0].params,
        &states,
    );
    layers::engine_metric(report, &inputs.problem, &inputs.graph);
    layers::apply_metric(report, &run, &mut inputs.cluster, seed);
    layers::oracle_metric(report, &inputs.problem);
}
