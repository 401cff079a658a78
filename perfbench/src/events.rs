//! The warm workload: a seeded event sequence applied to a settled
//! `DibaRun`, each event followed by `run_to_rest` (closed loop — the next
//! event is applied only once the previous one has settled).
//!
//! The runtime has no event path yet, so this workload drives the solver
//! engine; the reactor and the wire do no work here.

use crate::cold;
use crate::eps::{Judgement, Oracle, DRIFT_TOL_W_PER_NODE};
use crate::layers;
use crate::reference::with_cap;
use crate::report::Report;
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::workload::{diba_config, Workload};
use dpc_alg::diba::DibaRun;
use dpc_alg::problem::AlgError;
use dpc_models::units::Watts;
use dpc_models::workload::Cluster;
use dpc_models::QuadraticUtility;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Events per pass: p90 keeps 16 samples beyond it, and the share of each
/// kind of event varies little from seed to seed.
pub const EVENTS: usize = 160;

/// Timed repetitions of each event's ε operation per pass (each on its own
/// copy of the warm run): the operation takes well under a millisecond,
/// so one sample per pass would leave its median at the mercy of noise.
const EPS_REPS: usize = 5;

/// `run_to_rest` stopping rule: the defaults of `dpc replay`.
const REST_TOL_W: f64 = 1e-2;
const REST_STABLE: usize = 10;
const REST_MAX: usize = 200_000;

/// Setup repetitions behind `setup_s`.
const SETUP_REPS: usize = 5;

/// `setup_s` counts the initial cold `run_to_rest` at this many rounds (its
/// measured time per round times this): the rounds it really takes vary
/// with the seed's cluster, from about 1 600 to 2 450, which would swamp
/// any change in the cost of setting up.
const SETUP_REF_ROUNDS: f64 = 2048.0;

/// Largest budget step, as a share of the current budget.
const MAX_STEP: f64 = 0.08;
/// Smallest budget step, so every budget event really moves the budget.
const MIN_STEP: f64 = 0.02;

/// One warm event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A new cluster budget (watts).
    Budget(f64),
    /// New utilities for a few servers (a workload phase change).
    Phase(Vec<(usize, QuadraticUtility)>),
}

/// The seeded event sequence: every fourth event is a phase change on one
/// to four servers (new curves drawn by `Cluster::churn`), the others are
/// budget steps of a seeded 2–8 %, each toward `base_budget` (a cut when
/// above it, a raise otherwise), so the budget oscillates about its set
/// point and cuts and raises stay equally frequent whatever the seed. The
/// round counts of the kinds of event differ several-fold, so fixing their
/// shares keeps the medians from jumping between seeds. Same seed and
/// cluster, same events.
pub fn generate(cluster: &mut Cluster, base_budget: f64, count: usize, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_e7e7_0000_0001);
    let n = cluster.len();
    let mut budget = base_budget;
    (0..count)
        .map(|k| {
            if k % 4 == 3 {
                let servers = rng.gen_range(1..=4usize);
                let changes = (0..servers)
                    .map(|_| {
                        let i = rng.gen_range(0..n);
                        cluster.churn(i);
                        (i, cluster.workloads()[i].learned)
                    })
                    .collect();
                Event::Phase(changes)
            } else {
                let step = rng.gen_range(MIN_STEP..MAX_STEP);
                budget *= if budget > base_budget {
                    1.0 - step
                } else {
                    1.0 + step
                };
                Event::Budget(budget)
            }
        })
        .collect()
}

/// Applies one event through the engine's warm entry points.
pub fn apply(run: &mut DibaRun, event: &Event) -> Result<(), AlgError> {
    match event {
        Event::Budget(p) => run.set_budget(Watts(*p)),
        Event::Phase(changes) => run.replace_utilities(changes),
    }
}

fn apply_traced(
    run: &mut DibaRun,
    event: &Event,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(), AlgError> {
    let name = match event {
        Event::Budget(_) => "alg.diba.set_budget",
        Event::Phase(_) => "alg.diba.replace_utilities",
    };
    tracer.span(name, op, || apply(run, event))
}

/// What the untimed preparation pass learned about one event.
struct Prepared {
    oracle: Oracle,
    /// Exact rounds from the event to ε, `None` if never reached before
    /// rest.
    rounds_to_eps: Option<usize>,
    /// Exact rounds from the event to rest, `None` if not within
    /// [`REST_MAX`].
    rounds_to_rest: Option<usize>,
    /// First round at which the total power went back above the budget
    /// after having been within it.
    overshoot: Option<usize>,
    /// The allocation at rest, judged in full.
    at_rest: Judgement,
}

/// Untimed: the event's oracle, its exact rounds to ε and to rest, stepping
/// the run one round at a time to rest (by `run_to_rest`'s own rule) and
/// checking feasibility every round. `run` ends where the timed settle
/// operation will end, at rest after the event; a rejected event leaves it
/// as it was.
///
/// A budget cut leaves the previous allocation above the new budget by
/// construction; the rounds spent shedding that power are part of the time
/// to ε (ε requires feasibility). Going back above the budget once within
/// it is a failure.
fn prepare(run: &mut DibaRun, event: &Event) -> Result<Prepared, AlgError> {
    let mut probe = run.clone();
    apply(&mut probe, event)?;
    let oracle = Oracle::solve(probe.problem());
    let mut overshoot = None;
    let mut was_feasible = false;
    let mut rounds_to_eps = None;
    let mut rounds_to_rest = None;
    let mut rounds = 0;
    let mut stable = 0;
    loop {
        let j = oracle.judge_totals(probe.total_power().0, probe.total_utility());
        if was_feasible && !j.feasible && overshoot.is_none() {
            overshoot = Some(rounds);
        }
        was_feasible |= j.feasible;
        if j.within && rounds_to_eps.is_none() {
            rounds_to_eps = Some(rounds);
        }
        if rounds_to_rest.is_some() || rounds == REST_MAX {
            break;
        }
        probe.step();
        rounds += 1;
        if probe.last_max_step() < REST_TOL_W {
            stable += 1;
            if stable >= REST_STABLE {
                rounds_to_rest = Some(rounds);
            }
        } else {
            stable = 0;
        }
    }
    let powers: Vec<f64> = probe.allocation().powers().iter().map(|w| w.0).collect();
    *run = probe;
    Ok(Prepared {
        at_rest: oracle.judge(&powers),
        oracle,
        rounds_to_eps,
        rounds_to_rest,
        overshoot,
    })
}

/// Timing of one event in one pass; `None` where the operation failed.
struct Timed {
    eps_s: Option<f64>,
    settle_s: Option<f64>,
}

/// One event: the ε operation on a copy of the run (copied outside the
/// timed region), then the settle operation on the run itself.
fn timed_event(
    run: &mut DibaRun,
    event: &Event,
    prep: &Prepared,
    tracer: &mut Tracer,
    op: u64,
) -> (Timed, Option<String>) {
    let mut failure = None;
    let mut fail = |why: String| {
        failure.get_or_insert(why);
    };
    if let Some(r) = prep.overshoot {
        fail(format!(
            "sum p went back above the budget {r} rounds after the event"
        ));
    }

    // ε: apply, then exactly rounds_to_eps rounds.
    let mut eps_s = None;
    if let Some(r_eps) = prep.rounds_to_eps {
        let mut times = Vec::with_capacity(EPS_REPS);
        for _ in 0..EPS_REPS {
            let mut warm = run.clone();
            let open = tracer.begin("op.event_eps", op);
            let t0 = Instant::now();
            let applied = apply_traced(&mut warm, event, tracer, op);
            tracer.span("alg.diba.run", op, || warm.run(r_eps));
            let t = t0.elapsed().as_secs_f64();
            tracer.end(open);
            let powers: Vec<f64> = warm.allocation().powers().iter().map(|w| w.0).collect();
            match applied {
                Err(e) => fail(format!("event rejected: {e}")),
                Ok(()) if !prep.oracle.judge(&powers).within => {
                    fail(format!("run capped at rounds_to_eps={r_eps} misses ε"))
                }
                Ok(()) => times.push(t),
            }
        }
        eps_s = (times.len() == EPS_REPS).then(|| median(&times));
    } else {
        fail("ε not reached after the event".to_string());
    }

    // Settle: apply, then run_to_rest.
    let open = tracer.begin("op.event_settle", op);
    let t0 = Instant::now();
    let applied = apply_traced(run, event, tracer, op);
    let rest = tracer.span("alg.diba.run_to_rest", op, || {
        run.run_to_rest(REST_TOL_W, REST_STABLE, REST_MAX)
    });
    let t = t0.elapsed().as_secs_f64();
    tracer.end(open);
    let powers: Vec<f64> = run.allocation().powers().iter().map(|w| w.0).collect();
    let j = prep.oracle.judge(&powers);
    let drift = run.invariant_drift();
    let mut settle_s = None;
    if let Err(e) = applied {
        fail(format!("event rejected: {e}"));
    } else if rest.is_none() {
        fail(format!(
            "run_to_rest did not settle within {REST_MAX} rounds"
        ));
    } else if !j.within {
        fail(format!("settled outside ε: gap {:.3}%", j.gap_pct));
    } else if drift > DRIFT_TOL_W_PER_NODE * powers.len() as f64 {
        fail(format!("residual drift {drift:e} W"));
    } else if rest != prep.rounds_to_rest {
        fail(format!(
            "settle rounds {rest:?} differ from the untimed pass {:?}",
            prep.rounds_to_rest
        ));
    } else {
        settle_s = Some(t);
    }
    let timed = Timed {
        eps_s: eps_s.filter(|_| failure.is_none()),
        settle_s: settle_s.filter(|_| failure.is_none()),
    };
    (timed, failure)
}

/// Latencies of the timed passes.
struct Passes {
    eps: Latencies,
    settle: Latencies,
    count: usize,
}

/// Timed passes over the same events from the same warm start until
/// `seconds` have gone (the first pass always completes; a later one may
/// stop part-way); each event's latency is its median over its passes, a
/// failure in any pass making it `+∞`.
fn passes(
    warm_start: &DibaRun,
    events: &[Event],
    preps: &[Result<Prepared, AlgError>],
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Passes {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut eps: Vec<Vec<f64>> = vec![Vec::new(); events.len()];
    let mut settle: Vec<Vec<f64>> = vec![Vec::new(); events.len()];
    let mut op = 0u64;
    let mut count = 0;
    while count == 0 || Instant::now() < deadline {
        let mut run = warm_start.clone();
        for (k, (ev, prep)) in events.iter().zip(preps).enumerate() {
            if count > 0 && Instant::now() >= deadline {
                break;
            }
            op += 1;
            let (timed, failure) = match prep {
                Ok(prep) => timed_event(&mut run, ev, prep, tracer, op),
                Err(e) => {
                    report.operation(Some(format!("event rejected: {e}")));
                    eps[k].push(f64::INFINITY);
                    settle[k].push(f64::INFINITY);
                    continue;
                }
            };
            report.operation(failure);
            eps[k].push(timed.eps_s.unwrap_or(f64::INFINITY));
            settle[k].push(timed.settle_s.unwrap_or(f64::INFINITY));
        }
        count += 1;
    }
    let mut out = Passes {
        eps: Latencies::default(),
        settle: Latencies::default(),
        count,
    };
    for k in 0..events.len() {
        let worst = |xs: &[f64]| xs.iter().any(|x| x.is_infinite());
        out.eps.record((!worst(&eps[k])).then(|| median(&eps[k])));
        out.settle
            .record((!worst(&settle[k])).then(|| median(&settle[k])));
    }
    out
}

/// Runs the warm workload for about `seconds`, then fills `report`. A
/// traced run spends half the time untraced and half traced, and reports
/// the difference as the tracing overhead.
pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &mut Tracer, report: &mut Report) {
    let w = Workload::EventsRr1k;
    let (mut cluster, problem) = w.problem(seed);

    // Set-up: DibaRun::new plus the initial cold run_to_rest, the rest
    // counted at SETUP_REF_ROUNDS rounds.
    let graph = tracer.span("topology.build", 0, || w.topology(seed));
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut warm_start = None;
    let mut rest_rounds = 0;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut run = tracer
            .span("alg.diba.new", 0, || {
                DibaRun::new(problem.clone(), graph.clone(), diba_config())
            })
            .expect("the generated problem is valid");
        let t1 = Instant::now();
        let rest = tracer.span("alg.diba.run_to_rest", 0, || {
            run.run_to_rest(REST_TOL_W, REST_STABLE, REST_MAX)
        });
        let t2 = Instant::now();
        rest_rounds = rest.expect("the cold start settles");
        let rest_s = (t2 - t1).as_secs_f64();
        setup_s.push((t1 - t0).as_secs_f64() + rest_s / rest_rounds as f64 * SETUP_REF_ROUNDS);
        setup_raw_s.push((t2 - t0).as_secs_f64());
        warm_start = Some(run);
    }
    let warm_start = warm_start.expect("at least one setup rep");

    let events = generate(&mut cluster.clone(), problem.budget().0, EVENTS, seed);
    // Every event prepared untimed, each from the state its timed
    // operations start at: where the previous event came to rest.
    let mut chain = warm_start.clone();
    let preps: Vec<Result<Prepared, AlgError>> = events
        .iter()
        .map(|ev| tracer.span("bench.prepare", 0, || prepare(&mut chain, ev)))
        .collect();

    let reset = crate::host::reset_peak_rss();
    let p = if traced {
        let plain = passes(
            &warm_start,
            &events,
            &preps,
            seconds / 2.0,
            &mut Tracer::new(false),
            report,
        );
        let spanned = passes(&warm_start, &events, &preps, seconds / 2.0, tracer, report);
        crate::host::record_peak_rss(report, reset);
        let overhead = 100.0 * (spanned.eps.median() / plain.eps.median() - 1.0);
        report
            .layer("bench.trace_overhead_pct", Some(overhead), "%")
            .label("traced minus untraced time_to_eps_s, same run");
        layer_metrics(report, seed, &warm_start, &mut cluster, tracer);
        plain
    } else {
        let p = passes(&warm_start, &events, &preps, seconds, tracer, report);
        crate::host::record_peak_rss(report, reset);
        p
    };
    report.notes.push(format!(
        "timed passes over the {EVENTS} events: {}",
        p.count
    ));

    let prepared: Vec<&Prepared> = preps.iter().flatten().collect();
    let rounds = |f: fn(&Prepared) -> Option<usize>| -> Vec<f64> {
        preps
            .iter()
            .map(|p| match p {
                Ok(p) => f(p).map_or(f64::INFINITY, |r| r as f64),
                Err(_) => f64::INFINITY,
            })
            .collect()
    };
    let r_eps = rounds(|p| p.rounds_to_eps);
    let r_settle = rounds(|p| p.rounds_to_rest);
    if traced {
        let rest_over_eps: Vec<f64> = r_settle
            .iter()
            .zip(&r_eps)
            .filter(|(_, &e)| e > 0.0)
            .map(|(s, e)| s / e)
            .collect();
        report
            .layer(
                "alg.diba.rest_over_eps",
                Some(median(&rest_over_eps)),
                "ratio",
            )
            .label("median over events with rounds_to_eps > 0");
    }

    let t_eps = p.eps.median();
    let rounds_eps = median(&r_eps);
    report
        .e2e("time_to_eps_s", Some(t_eps), "s")
        .spread(p.eps.samples());
    tail_metric(report, "time_to_eps", &p.eps);
    report
        .e2e("time_to_settle_s", Some(p.settle.median()), "s")
        .spread(p.settle.samples());
    tail_metric(report, "time_to_settle", &p.settle);
    report
        .e2e("rounds_to_eps", Some(rounds_eps), "rounds")
        .label("median over events");
    report
        .e2e("rounds_to_settle", Some(median(&r_settle)), "rounds")
        .label("median over events");
    report.e2e("rounds_per_s", Some(rounds_eps / t_eps), "rounds/s");
    let gaps: Vec<f64> = prepared.iter().map(|p| p.at_rest.gap_pct).collect();
    let devs: Vec<f64> = prepared.iter().map(|p| p.at_rest.max_dev_w).collect();
    report
        .e2e("exit_gap_pct", Some(median(&gaps)), "%")
        .label("median over events");
    report
        .e2e("exit_max_dev_w", Some(median(&devs)), "W")
        .label("median over events");
    report.e2e(
        "failed_frac",
        Some(report.failed as f64 / report.attempted.max(1) as f64),
        "ratio",
    );
    report
        .e2e("setup_s", Some(median(&setup_s)), "s")
        .label("DibaRun::new + cold run_to_rest, the rest scaled to a fixed round count")
        .spread(&setup_s);
    report
        .e2e("setup_raw_s", Some(median(&setup_raw_s)), "s")
        .label("DibaRun::new + cold run_to_rest as run")
        .spread(&setup_raw_s);
    report
        .e2e("setup_rest_rounds", Some(rest_rounds as f64), "rounds")
        .label("exact: the initial cold run_to_rest");
}

/// Reports the highest percentile of `lat` with ten samples beyond it as
/// `<stem>_p<pct>_s`, or the p90 slot as refused.
fn tail_metric(report: &mut Report, stem: &str, lat: &Latencies) {
    match lat.tail() {
        Some(t) => {
            report.e2e(&format!("{stem}_p{}_s", t.pct), Some(t.value), "s");
        }
        None => {
            report
                .e2e(&format!("{stem}_p90_s"), None, "s")
                .label("refused: fewer than ten samples beyond p90");
        }
    }
}

/// Per-layer probes on the warm workload's cluster. The reactor and the
/// lockstep executor do no work in this workload; they are probed with the
/// cold workloads' set-up and cold deployments of the same cluster capped
/// at [`PROBE_ROUNDS`], so the traced run reports every layer.
fn layer_metrics(
    report: &mut Report,
    seed: u64,
    warm: &DibaRun,
    cluster: &mut Cluster,
    tracer: &mut Tracer,
) {
    const PROBE_ROUNDS: usize = 512;
    const PROBE_DEPLOYMENTS: u64 = 3;

    let (inputs, setup) =
        cold::set_up(Workload::EventsRr1k, seed, tracer).expect("set-up of a valid cluster");
    let bringup = cold::setup_metrics(report, &setup);
    let (lockstep_ns, lockstep) = cold::lockstep_probe(&inputs, PROBE_ROUNDS);
    let mut samples = layers::ReactorSamples {
        rounds: PROBE_ROUNDS,
        ..Default::default()
    };
    for op in 1..=PROBE_DEPLOYMENTS {
        let capped = with_cap(&inputs.specs, PROBE_ROUNDS, 0);
        let (outcome, wall, delta) = cold::deploy(&inputs, capped, tracer, "op.reactor_probe", op);
        outcome.expect("reactor probe");
        samples.add(wall, &delta);
    }
    let shards = crate::host::cores();
    let n = inputs.graph.len();
    layers::reactor_metrics(report, &samples, n, shards, bringup, lockstep_ns);
    let states: Vec<(f64, f64)> = lockstep.iter().map(|r| (r.p, r.e)).collect();
    layers::wire_metrics(report, &inputs.graph, shards, &states);
    layers::agent_metrics(report, &lockstep);
    layers::kernel_metric(
        report,
        warm.problem(),
        &inputs.graph,
        &warm.params(),
        &warm.node_states(),
    );
    layers::engine_metric(report, &inputs.problem, &inputs.graph);
    layers::apply_metric(report, warm, cluster, seed);
    layers::oracle_metric(report, &inputs.problem);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(seed: u64) -> Vec<Event> {
        let (mut cluster, problem) = Workload::EventsRr1k.problem(3);
        generate(&mut cluster, problem.budget().0, EVENTS, seed)
    }

    #[test]
    fn the_untimed_pass_rests_where_run_to_rest_does() {
        let w = Workload::EventsRr1k;
        let (mut cluster, problem) = w.problem(3);
        let mut run = DibaRun::new(problem.clone(), w.topology(3), diba_config()).unwrap();
        run.run_to_rest(REST_TOL_W, REST_STABLE, REST_MAX)
            .expect("the cold start settles");
        let mut chain = run.clone();
        let powers =
            |r: &DibaRun| -> Vec<f64> { r.allocation().powers().iter().map(|w| w.0).collect() };
        for event in generate(&mut cluster, problem.budget().0, 4, 5) {
            let prep = prepare(&mut chain, &event).unwrap();
            apply(&mut run, &event).unwrap();
            let rest = run.run_to_rest(REST_TOL_W, REST_STABLE, REST_MAX);
            assert!(rest.is_some());
            assert_eq!(prep.rounds_to_rest, rest);
            assert!(prep.rounds_to_eps <= rest);
            assert_eq!(prep.overshoot, None);
            assert_eq!(
                powers(&chain),
                powers(&run),
                "prepare ends where run_to_rest does"
            );
            assert_eq!(prep.oracle.judge(&powers(&run)), prep.at_rest);
        }
    }

    #[test]
    fn the_seeded_event_generator_is_deterministic() {
        let a = events(11);
        assert_eq!(a, events(11));
        assert_ne!(a, events(12));
        assert_eq!(a.len(), EVENTS);
        let phases = a.iter().filter(|e| matches!(e, Event::Phase(_))).count();
        assert_eq!(phases, EVENTS / 4);
        let base = Workload::EventsRr1k.problem(3).1.budget().0;
        let mut prev = base;
        for e in &a {
            if let Event::Budget(p) = e {
                let step = (p / prev - 1.0).abs();
                assert!(
                    (MIN_STEP - 1e-12..=MAX_STEP + 1e-12).contains(&step),
                    "step {step}"
                );
                assert!((p / base - 1.0).abs() <= MAX_STEP);
                assert_eq!(
                    *p < prev,
                    prev > base,
                    "each step heads back to the set point"
                );
                prev = *p;
            }
        }
    }
}
