//! Transport-equivalence regression tests — the headline invariant.
//!
//! The same seeded problem must converge to matching allocations whether it
//! runs on the simulator ([`AsyncDibaRun`] at its synchronous limit), the
//! in-process channel transport, or real TCP loopback sockets. The two
//! runtime transports execute bit-identical logic over exact lockstep
//! delivery, so their allocations must agree *bitwise*; the simulator
//! differs only in its barrier-boost continuation schedule, so it must
//! agree within the cross-substrate tolerance the repo already uses for
//! the thread prototype.

use dpc_alg::diba::DibaConfig;
use dpc_alg::diba_async::{AsyncConfig, AsyncDibaRun};
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::ClusterBuilder;
use dpc_runtime::cluster::{run_cluster, ClusterOutcome, RuntimeConfig, ShardCount, TransportKind};
use dpc_runtime::NodeReport;
use dpc_topology::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Worst per-node disagreement tolerated between the runtime and the
/// simulator (watts). Same order as the thread-prototype bound in
/// `tests/end_to_end.rs`; the substrates share the per-round math but not
/// the boost schedule, so they settle at slightly different barrier points.
const CROSS_SUBSTRATE_TOL: f64 = 12.0;

fn seeded_problem(n: usize, seed: u64, budget: f64) -> PowerBudgetProblem {
    let cluster = ClusterBuilder::new(n).seed(seed).build();
    PowerBudgetProblem::new(cluster.utilities(), Watts(budget)).unwrap()
}

fn runtime_config(transport: TransportKind) -> RuntimeConfig {
    RuntimeConfig {
        transport,
        ..RuntimeConfig::default()
    }
}

/// The simulator pushed to its synchronous limit: every node acts every
/// round and every message arrives with exactly one round of staleness —
/// the same information pattern the lockstep runtime produces.
fn simulator_allocation(problem: &PowerBudgetProblem, graph: &Graph, rounds: usize) -> Vec<f64> {
    let net = AsyncConfig {
        activation: 1.0,
        delay_prob: 0.0,
        max_delay: 1,
        seed: 0,
    };
    let mut sim = AsyncDibaRun::new(problem.clone(), graph.clone(), DibaConfig::default(), net)
        .expect("simulator construction");
    sim.run(rounds);
    sim.allocation().powers().iter().map(|w| w.0).collect()
}

fn check_outcome(outcome: &ClusterOutcome, problem: &PowerBudgetProblem, drift_tol: f64) {
    assert!(
        outcome.converged,
        "cluster did not reach convergence quorum"
    );
    assert!(
        outcome.drift <= drift_tol,
        "residual invariant drifted by {} W (tolerance {drift_tol})",
        outcome.drift
    );
    assert!(
        problem.is_feasible(&outcome.allocation, Watts(1e-3)),
        "converged allocation infeasible"
    );
}

fn worst_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn inproc_matches_simulator_and_reproduces_exactly() {
    let n = 8;
    let problem = seeded_problem(n, 42, 170.0 * n as f64);
    let graph = Graph::ring(n);
    let rt = runtime_config(TransportKind::InProcess);

    let first = run_cluster(problem.clone(), graph.clone(), DibaConfig::default(), &rt).unwrap();
    let second = run_cluster(problem.clone(), graph.clone(), DibaConfig::default(), &rt).unwrap();
    check_outcome(&first, &problem, 1e-6);

    // Bitwise reproducibility: two invocations of the same seeded problem
    // take identical trajectories (lockstep delivery leaves no room for
    // scheduling to leak into the math).
    let alloc_1: Vec<f64> = first.allocation.powers().iter().map(|w| w.0).collect();
    let alloc_2: Vec<f64> = second.allocation.powers().iter().map(|w| w.0).collect();
    assert_eq!(alloc_1, alloc_2, "in-process run is not reproducible");
    assert_eq!(first.rounds, second.rounds);

    let sim = simulator_allocation(&problem, &graph, first.rounds.max(2_000));
    let gap = worst_gap(&alloc_1, &sim);
    assert!(
        gap < CROSS_SUBSTRATE_TOL,
        "in-process vs simulator allocations diverge by {gap} W"
    );
}

#[test]
fn headline_three_way_equivalence_inproc_tcp_simulator() {
    let n = 8;
    let problem = seeded_problem(n, 7, 170.0 * n as f64);
    let graph = Graph::ring(n);

    let inproc = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &runtime_config(TransportKind::InProcess),
    )
    .unwrap();
    let tcp = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &runtime_config(TransportKind::Tcp),
    )
    .unwrap();
    check_outcome(&inproc, &problem, 1e-6);
    check_outcome(&tcp, &problem, 1e-3);

    // The two transports run the identical program over exact lockstep
    // delivery, so the trajectories — and thus the allocations — are
    // bitwise equal.
    let inproc_alloc: Vec<f64> = inproc.allocation.powers().iter().map(|w| w.0).collect();
    let tcp_alloc: Vec<f64> = tcp.allocation.powers().iter().map(|w| w.0).collect();
    assert_eq!(
        inproc_alloc, tcp_alloc,
        "in-process and TCP loopback allocations differ"
    );
    assert_eq!(inproc.rounds, tcp.rounds);

    let sim = simulator_allocation(&problem, &graph, inproc.rounds.max(2_000));
    let gap = worst_gap(&inproc_alloc, &sim);
    assert!(
        gap < CROSS_SUBSTRATE_TOL,
        "runtime vs simulator allocations diverge by {gap} W"
    );
}

fn reactor_config(shards: usize) -> RuntimeConfig {
    RuntimeConfig {
        transport: TransportKind::Reactor,
        shards: ShardCount::Fixed(shards),
        ..RuntimeConfig::default()
    }
}

fn allocation_of(outcome: &ClusterOutcome) -> Vec<f64> {
    outcome.allocation.powers().iter().map(|w| w.0).collect()
}

#[test]
fn lockstep_and_reactor_match_inproc_bitwise() {
    let n = 8;
    let problem = seeded_problem(n, 42, 170.0 * n as f64);
    let graph = Graph::ring(n);

    let inproc = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &runtime_config(TransportKind::InProcess),
    )
    .unwrap();
    let lockstep = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &runtime_config(TransportKind::Lockstep),
    )
    .unwrap();
    // Three shards on an 8-ring force cross-shard edges, so real epoll
    // sockets carry part of the mesh.
    let reactor = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &reactor_config(3),
    )
    .unwrap();
    check_outcome(&inproc, &problem, 1e-6);
    check_outcome(&lockstep, &problem, 1e-6);
    check_outcome(&reactor, &problem, 1e-6);

    // All four substrates execute the identical per-round program over
    // round-aligned FIFO delivery: the trajectories agree bitwise.
    let base = allocation_of(&inproc);
    assert_eq!(
        base,
        allocation_of(&lockstep),
        "lockstep executor diverged from the in-process mesh"
    );
    assert_eq!(
        base,
        allocation_of(&reactor),
        "reactor substrate diverged from the in-process mesh"
    );
    assert_eq!(inproc.rounds, lockstep.rounds);
    assert_eq!(inproc.rounds, reactor.rounds);
    assert_eq!(inproc.msgs_sent, lockstep.msgs_sent);
    assert_eq!(inproc.msgs_sent, reactor.msgs_sent);

    let threads = reactor
        .runtime_threads
        .expect("reactor reports its thread count");
    assert!(
        threads < n as u32,
        "reactor used {threads} threads for {n} agents — thread-per-node leak"
    );
}

#[test]
fn reactor_allocation_is_invariant_to_shard_count() {
    let n = 12;
    let problem = seeded_problem(n, 9, 168.0 * n as f64);
    let graph = Graph::ring_with_chords(n, 2);

    let mut baseline: Option<Vec<f64>> = None;
    for shards in [1, 2, 4] {
        let outcome = run_cluster(
            problem.clone(),
            graph.clone(),
            DibaConfig::default(),
            &reactor_config(shards),
        )
        .unwrap();
        check_outcome(&outcome, &problem, 1e-6);
        let alloc = allocation_of(&outcome);
        match &baseline {
            None => baseline = Some(alloc),
            Some(base) => assert_eq!(
                base, &alloc,
                "reactor allocation changed between shard counts (shards={shards})"
            ),
        }
    }
}

/// Mid-size pin of the coalesced wire path: at N = 256 the four shards
/// exchange thousands of batch entries per round over every carrier
/// flavor (self loops, mem pipes, sockets), and the allocation and the
/// deterministic counters must still be bitwise the serial lockstep
/// reference.
#[test]
fn coalesced_reactor_matches_lockstep_at_n256() {
    let n = 256;
    let problem = seeded_problem(n, 11, 170.0 * n as f64);
    let graph = Graph::torus(16, 16).unwrap();

    let lockstep = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &runtime_config(TransportKind::Lockstep),
    )
    .unwrap();
    let reactor = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &reactor_config(4),
    )
    .unwrap();
    check_outcome(&lockstep, &problem, 1e-6);
    check_outcome(&reactor, &problem, 1e-6);
    assert_eq!(
        allocation_of(&lockstep),
        allocation_of(&reactor),
        "coalesced reactor diverged from the lockstep reference at N=256"
    );
    assert_eq!(lockstep.rounds, reactor.rounds);
    assert_eq!(lockstep.msgs_sent, reactor.msgs_sent);
    assert_eq!(lockstep.heartbeats, reactor.heartbeats);
}

/// `--shards auto` is a performance policy, not a semantic one: whatever
/// shard count it picks must produce the same allocation as any pinned
/// count (the shard-invariance test above covers the pinned side).
#[test]
fn auto_shard_count_picks_the_same_allocation_as_fixed() {
    let n = 24;
    let problem = seeded_problem(n, 13, 169.0 * n as f64);
    let graph = Graph::ring_with_chords(n, 3);

    let auto = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &RuntimeConfig {
            transport: TransportKind::Reactor,
            shards: ShardCount::Auto,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    let fixed = run_cluster(
        problem.clone(),
        graph.clone(),
        DibaConfig::default(),
        &reactor_config(2),
    )
    .unwrap();
    check_outcome(&auto, &problem, 1e-6);
    let picked = auto.shards_used.expect("reactor reports its shard count");
    assert!(picked >= 1);
    assert_eq!(
        allocation_of(&auto),
        allocation_of(&fixed),
        "auto-tuned shard count changed the allocation (picked {picked})"
    );
    assert_eq!(auto.rounds, fixed.rounds);
    assert_eq!(auto.msgs_sent, fixed.msgs_sent);
}

/// The scale acceptance check: one process hosts the 10 240-agent bench
/// torus on the reactor, thread count stays O(shards), and the allocation
/// is bitwise the lockstep reference. Minutes of wall clock — run
/// explicitly with `cargo test --release -- --ignored ten_thousand`.
#[test]
#[ignore = "10k-agent scale check; run with --ignored"]
fn reactor_hosts_ten_thousand_agents_bitwise_equal_to_lockstep() {
    let n = 10_240;
    let problem = seeded_problem(n, 1, 170.0 * n as f64);
    let graph = Graph::torus(80, 128).unwrap();
    let config = DibaConfig::default();
    let rt_lockstep = RuntimeConfig {
        max_rounds: 6_000,
        ..runtime_config(TransportKind::Lockstep)
    };
    let rt_reactor = RuntimeConfig {
        max_rounds: 6_000,
        ..reactor_config(4)
    };

    let lockstep = run_cluster(problem.clone(), graph.clone(), config, &rt_lockstep).unwrap();
    let reactor = run_cluster(problem.clone(), graph.clone(), config, &rt_reactor).unwrap();

    assert_eq!(
        allocation_of(&lockstep),
        allocation_of(&reactor),
        "10k-agent reactor diverged from the lockstep reference"
    );
    let threads = reactor
        .runtime_threads
        .expect("reactor reports its thread count");
    assert!(
        threads < 64,
        "10k agents took {threads} threads — not a readiness runtime"
    );
}

/// A 1 µs round deadline makes the reactor's round check force the receive
/// pass of every agent it finds waiting on another shard for a whole
/// check period, so late entries are consumed rounds behind and links back
/// up past the inline mailbox into the spill store (thousands of forced
/// passes and hundreds of spilled links per run at this size in a debug
/// build); silent peers get pruned. However degraded the schedule, the run
/// must end with every agent reporting — no panic, no hang.
#[test]
fn reactor_survives_a_microsecond_round_deadline() {
    let n = 1024;
    let problem = seeded_problem(n, 17, 170.0 * n as f64);
    let graph = Graph::torus(128, 8).unwrap();
    for shards in [1, 2] {
        let outcome = run_cluster(
            problem.clone(),
            graph.clone(),
            DibaConfig::default(),
            &RuntimeConfig {
                round_timeout: Duration::from_micros(1),
                max_rounds: 200,
                ..reactor_config(shards)
            },
        )
        .unwrap();
        assert_eq!(outcome.reports.len(), n, "shards={shards}");
        for (i, r) in outcome.reports.iter().enumerate() {
            assert_eq!(r.node, i);
            assert!(r.rounds <= 200, "node {i} ran {} rounds", r.rounds);
            assert!(r.p.is_finite() && r.e.is_finite(), "node {i}: {r:?}");
        }
    }
}

/// One of the scale-out graph families at `n ≤ 64`, picked by `family`.
fn family_graph(family: usize, size: usize, seed: u64) -> (&'static str, Graph) {
    match family {
        0 => ("ring", Graph::ring(6 + size % 59)),
        1 => (
            "torus",
            Graph::torus(3 + size % 6, 3 + size / 6 % 6).unwrap(),
        ),
        2 => ("hypercube", Graph::hypercube(2 + (size % 5) as u32)),
        _ => {
            let n = 2 * (4 + size % 29);
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = Graph::random_regular(n, 3 + size % 2, &mut rng, 200)
                .expect("random regular graph");
            ("random-regular", graph)
        }
    }
}

/// The report fields lockstep defines deterministically, with `p`/`e`
/// compared bit for bit.
fn deterministic_fields(r: &NodeReport) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        r.node,
        r.p.to_bits(),
        r.e.to_bits(),
        r.rounds,
        r.converged,
        r.msgs_sent,
        r.msgs_received,
        r.heartbeats_sent,
        &r.pruned,
        &r.trace,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reactor ≡ lockstep on every deterministic report field — not just
    /// the allocation — across the graph families and shard counts that
    /// split them every which way, run to quorum. Pins the goodbye, drain
    /// and end-of-stream bookkeeping along with the arithmetic.
    #[test]
    fn reactor_reports_equal_lockstep_on_every_family_and_shard_count(
        family in 0usize..4,
        size in 0usize..1_000,
        shard_pick in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let (name, graph) = family_graph(family, size, seed);
        let n = graph.len();
        let shards = [1, 2, 3, 5][shard_pick];
        let problem = seeded_problem(n, seed, 168.0 * n as f64);
        let rt = |transport| RuntimeConfig {
            transport,
            sample_every: 7,
            ..reactor_config(shards)
        };
        let lockstep = run_cluster(
            problem.clone(),
            graph.clone(),
            DibaConfig::default(),
            &rt(TransportKind::Lockstep),
        )
        .unwrap();
        let reactor = run_cluster(problem, graph, DibaConfig::default(), &rt(TransportKind::Reactor))
            .unwrap();
        prop_assert!(lockstep.converged, "{} n={} seed={} never reached quorum", name, n, seed);
        for (a, b) in lockstep.reports.iter().zip(&reactor.reports) {
            prop_assert_eq!(
                deterministic_fields(a),
                deterministic_fields(b),
                "{} n={} shards={} seed={}",
                name,
                n,
                shards,
                seed
            );
        }
    }
}

/// Reactor ≡ lockstep on every deterministic report field when a shard's
/// interior agents — stepped in an id-order sweep over the block's ready
/// bitmap — span several bitmap words and a partial tail word: one shard
/// holds all 156 agents of a 12×13 torus (words of 64, 64 and 28 agents),
/// three split it into blocks with a boundary on both sides.
#[test]
fn reactor_reports_equal_lockstep_across_multi_word_interior_sweeps() {
    let graph = Graph::torus(12, 13).unwrap();
    let n = graph.len();
    let problem = seeded_problem(n, 23, 168.0 * n as f64);
    let run = |transport, shards| {
        let rt = RuntimeConfig {
            transport,
            sample_every: 7,
            ..reactor_config(shards)
        };
        run_cluster(problem.clone(), graph.clone(), DibaConfig::default(), &rt).unwrap()
    };
    let lockstep = run(TransportKind::Lockstep, 1);
    assert!(lockstep.converged, "the torus reaches quorum");
    for shards in [1, 3] {
        let reactor = run(TransportKind::Reactor, shards);
        assert_eq!(reactor.reports.len(), n);
        for (a, b) in lockstep.reports.iter().zip(&reactor.reports) {
            assert_eq!(
                deterministic_fields(a),
                deterministic_fields(b),
                "{shards} shards"
            );
        }
    }
}

/// Reactor ≡ lockstep on every deterministic report field when the round
/// cap cuts through the goodbye wave: an agent reaches quorum in its last
/// round while neighbors end at the cap in that same round, in whatever
/// order the reactor happens to step them.
#[test]
fn capped_reactor_reports_equal_lockstep_through_the_goodbye_wave() {
    let graph = Graph::torus(8, 8).unwrap();
    let n = graph.len();
    let problem = seeded_problem(n, 11, 168.0 * n as f64);
    let run = |transport, shards, max_rounds| {
        let rt = RuntimeConfig {
            transport,
            max_rounds,
            ..reactor_config(shards)
        };
        run_cluster(problem.clone(), graph.clone(), DibaConfig::default(), &rt).unwrap()
    };
    let uncapped = RuntimeConfig::default().max_rounds;
    let full = run(TransportKind::Lockstep, 1, uncapped);
    assert!(full.converged, "the uncapped run reaches quorum");
    // Caps at the rounds agents say goodbye in, spread over the wave.
    let mut caps: Vec<usize> = full.reports.iter().map(|r| r.rounds).collect();
    caps.sort_unstable();
    caps.dedup();
    assert!(caps.len() > 1, "the goodbye wave spans rounds");
    for &cap in caps.iter().step_by(caps.len().div_ceil(12)) {
        let lockstep = run(TransportKind::Lockstep, 1, cap);
        for shards in [1, 2] {
            let reactor = run(TransportKind::Reactor, shards, cap);
            for (a, b) in lockstep.reports.iter().zip(&reactor.reports) {
                assert_eq!(
                    deterministic_fields(a),
                    deterministic_fields(b),
                    "cap {cap}, {shards} shards"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_seeds_converge_and_match_the_simulator(
        seed in 0u64..1_000,
        n in 6usize..=10,
    ) {
        let problem = seeded_problem(n, seed, 165.0 * n as f64);
        let graph = Graph::ring(n);
        let outcome = run_cluster(
            problem.clone(),
            graph.clone(),
            DibaConfig::default(),
            &runtime_config(TransportKind::InProcess),
        )
        .unwrap();
        prop_assert!(outcome.converged, "seed {seed} n {n} did not converge");
        prop_assert!(outcome.drift <= 1e-6, "drift {} W", outcome.drift);
        let total = outcome.total_power().0;
        prop_assert!(
            total <= 165.0 * n as f64 + 1e-6,
            "budget violated: {total}"
        );

        let alloc: Vec<f64> = outcome.allocation.powers().iter().map(|w| w.0).collect();
        let sim = simulator_allocation(&problem, &graph, outcome.rounds.max(2_000));
        let gap = worst_gap(&alloc, &sim);
        prop_assert!(
            gap < CROSS_SUBSTRATE_TOL,
            "seed {} n {}: runtime vs simulator diverge by {} W",
            seed,
            n,
            gap
        );
    }
}
