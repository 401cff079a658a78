//! Untimed reference passes on the lockstep executor, and the exact
//! rounds-to-ε search built on them.
//!
//! Trajectories are deterministic and the reactor reproduces the lockstep
//! executor bitwise, so everything about *which* round an allocation
//! reaches ε can be settled here, outside any timed region. A round cap
//! only decides when agents stop, never what they compute, so a run capped
//! at round `r` ends holding exactly the state of round `r` of the uncapped
//! trajectory.
//!
//! The passes take the executor as an argument: the lockstep executor at
//! 1k servers (where it is also the bitwise reference of every timed
//! run), the reactor itself at 10k, where lockstep's single thread would
//! take most of a run's time budget.

use crate::eps::{Judgement, Oracle};
use dpc_runtime::{NodeReport, NodeSpec, RuntimeError};
use std::time::Instant;

/// Runs a whole cluster from its specs to completion.
pub type Executor<'a> = &'a dyn Fn(Vec<NodeSpec>) -> Result<Vec<NodeReport>, RuntimeError>;

/// Copies `specs` with every agent capped at `cap` rounds and tracing
/// every `sample_every` rounds (0 = off).
pub fn with_cap(specs: &[NodeSpec], cap: usize, sample_every: usize) -> Vec<NodeSpec> {
    specs
        .iter()
        .map(|s| NodeSpec {
            max_rounds: cap,
            sample_every,
            ..s.clone()
        })
        .collect()
}

/// Per-node powers once round `r` has run, read from a pass sampled every
/// `every` rounds (`r` a multiple of `every`). An agent that had already
/// left holds its final power.
fn powers_at(reports: &[NodeReport], every: usize, r: usize) -> Vec<f64> {
    reports
        .iter()
        .map(|rep| {
            if rep.rounds < r {
                rep.p
            } else {
                let sample = rep.trace[r / every - 1];
                debug_assert_eq!(sample.round, r, "samples at every multiple");
                sample.p
            }
        })
        .collect()
}

/// A lockstep pass with its sampled rounds judged against the oracle.
pub struct Sampled {
    /// Final per-node reports (traces included until [`Sampled::drop_traces`]).
    pub reports: Vec<NodeReport>,
    /// Judgement of the launch state (round 0).
    pub initial: Judgement,
    /// `(round, judgement)` for every sampled round, ascending.
    pub judged: Vec<(usize, Judgement)>,
    /// Sampling interval used.
    pub every: usize,
    /// Wall time of the run itself (seconds).
    pub run_s: f64,
}

impl Sampled {
    /// Last round any agent ran.
    pub fn rounds(&self) -> usize {
        self.reports.iter().map(|r| r.rounds).max().unwrap_or(0)
    }

    /// Drops the per-round samples once they have been judged: they are
    /// the largest buffers a run holds, and `peak_rss_mb` should see the
    /// program's memory, not the benchmark's.
    pub fn drop_traces(&mut self) {
        for r in &mut self.reports {
            r.trace = Vec::new();
        }
    }

    /// First sampled round whose total power exceeded the budget.
    pub fn first_overshoot(&self) -> Option<(usize, f64)> {
        self.judged
            .iter()
            .find(|(_, j)| !j.feasible)
            .map(|&(r, j)| (r, j.sum_p))
    }
}

/// Runs `specs` capped at `cap` rounds, sampled every `every` rounds, and
/// judges each sample.
pub fn sampled_pass(
    exec: Executor,
    specs: &[NodeSpec],
    cap: usize,
    every: usize,
    oracle: &Oracle,
) -> Result<Sampled, RuntimeError> {
    let initial: Vec<f64> = specs.iter().map(|s| s.p).collect();
    let t0 = Instant::now();
    let reports = exec(with_cap(specs, cap, every))?;
    let run_s = t0.elapsed().as_secs_f64();
    let last = reports.iter().map(|r| r.rounds).max().unwrap_or(0);
    let judged = (every..=last)
        .step_by(every)
        .map(|r| (r, oracle.judge(&powers_at(&reports, every, r))))
        .collect();
    Ok(Sampled {
        initial: oracle.judge(&initial),
        reports,
        judged,
        every,
        run_s,
    })
}

/// The first round whose allocation meets ε, with the reports of a run
/// capped there (the reference a capped reactor run must equal).
pub struct AtEps {
    /// Rounds to ε.
    pub round: usize,
    /// Reports of the run capped at `round`.
    pub reports: Vec<NodeReport>,
}

/// Smallest `r` in `(lo, hi]` with `pred(r)`, given `pred(hi)` holds and
/// `pred(lo)` does not, by bisection.
fn first_true<E>(
    mut lo: usize,
    mut hi: usize,
    mut pred: impl FnMut(usize) -> Result<bool, E>,
) -> Result<usize, E> {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// Finds the exact rounds-to-ε of `specs`: the sampled pass names the first
/// sampled round `S` within ε; bisection over runs capped inside
/// `(S − every, S]` pins the round. The result is the first round within ε
/// provided ε does not come and go again inside one sampling interval —
/// the small-cluster test checks it against a per-round scan. `None` when
/// no sampled round reaches ε.
pub fn rounds_to_eps(
    exec: Executor,
    specs: &[NodeSpec],
    oracle: &Oracle,
    sampled: &Sampled,
) -> Result<Option<AtEps>, RuntimeError> {
    let capped = |r: usize| exec(with_cap(specs, r, 0));
    if sampled.initial.within {
        return Ok(Some(AtEps {
            round: 0,
            reports: capped(0)?,
        }));
    }
    let Some(&(s, _)) = sampled.judged.iter().find(|(_, j)| j.within) else {
        return Ok(None);
    };
    // Keep the reports of the latest capped run found within ε: when the
    // bisection ends there, no extra run is needed.
    let mut best: Option<AtEps> = None;
    let round = first_true(s - sampled.every, s, |r| -> Result<bool, RuntimeError> {
        let reports = capped(r)?;
        let powers: Vec<f64> = reports.iter().map(|rep| rep.p).collect();
        let within = oracle.judge(&powers).within;
        if within {
            best = Some(AtEps { round: r, reports });
        }
        Ok(within)
    })?;
    match best {
        Some(at) if at.round == round => Ok(Some(at)),
        _ => Ok(Some(AtEps {
            round,
            reports: capped(round)?,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{diba_config, runtime_config};
    use dpc_alg::problem::PowerBudgetProblem;
    use dpc_models::units::Watts;
    use dpc_models::QuadraticUtility;
    use dpc_runtime::cluster::node_specs;
    use dpc_runtime::lockstep::run_lockstep;
    use dpc_topology::Graph;

    /// Eight hand-written servers on a ring: two steep, two flat, four in
    /// between, capped well below their joint peak so slack has to travel.
    fn hand_built() -> (PowerBudgetProblem, Graph) {
        let curves = [
            (-40.0, 1.10, -0.0020),
            (-35.0, 1.00, -0.0018),
            (-20.0, 0.55, -0.0009),
            (-18.0, 0.50, -0.0008),
            (-25.0, 0.70, -0.0012),
            (-22.0, 0.65, -0.0011),
            (-30.0, 0.85, -0.0015),
            (-28.0, 0.80, -0.0014),
        ];
        let utilities = curves
            .iter()
            .map(|&(a, b, c)| QuadraticUtility::new(a, b, c, Watts(90.0), Watts(250.0)).unwrap())
            .collect();
        let problem = PowerBudgetProblem::new(utilities, Watts(8.0 * 150.0)).unwrap();
        (problem, Graph::ring(8))
    }

    #[test]
    fn exact_search_matches_a_per_round_scan() {
        let (problem, graph) = hand_built();
        let oracle = Oracle::solve(&problem);
        let specs = node_specs(&problem, &graph, diba_config(), &runtime_config()).unwrap();
        let cap = 4000;
        let lockstep = |s: Vec<NodeSpec>| run_lockstep(s, &graph);

        // Brute force: judge every single round.
        let every_round = sampled_pass(&lockstep, &specs, cap, 1, &oracle).unwrap();
        let truth = every_round
            .judged
            .iter()
            .find(|(_, j)| j.within)
            .map(|&(r, _)| r)
            .expect("the hand-built cluster reaches ε");
        assert!(
            truth > 16,
            "ε after {truth} rounds is too early to test bisection"
        );

        for every in [1, 4, 5, 16, 64] {
            let sampled = sampled_pass(&lockstep, &specs, cap, every, &oracle).unwrap();
            let at = rounds_to_eps(&lockstep, &specs, &oracle, &sampled)
                .unwrap()
                .expect("found");
            assert_eq!(at.round, truth, "sampling every {every}");
            let powers: Vec<f64> = at.reports.iter().map(|r| r.p).collect();
            assert!(oracle.judge(&powers).within);
            assert_eq!(at.reports[0].rounds, truth);
        }
    }

    #[test]
    fn bisection_finds_the_boundary() {
        for boundary in 1..=16 {
            let got = first_true::<()>(0, 16, |r| Ok(r >= boundary)).unwrap();
            assert_eq!(got, boundary);
        }
    }
}
