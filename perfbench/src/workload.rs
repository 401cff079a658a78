//! The workloads and the inputs each one generates from its seed.
//!
//! The program under test only ever receives generated inputs: a
//! `ClusterBuilder` seed, a topology from the topology builders, and (for
//! the warm workload) a generated event list.

use dpc_alg::diba::DibaConfig;
use dpc_alg::exec::Threads;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;
use dpc_models::workload::{Cluster, ClusterBuilder};
use dpc_runtime::cluster::{RuntimeConfig, ShardCount, TransportKind};
use dpc_topology::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-server share of the cluster budget (watts), the paper's setting.
pub const WATTS_PER_SERVER: f64 = 170.0;

/// Round budget of an uncapped deployment: far above the slowest quorum
/// seen at 1k servers (~22k rounds on the ring), so a deployment that
/// stops here has genuinely failed to settle.
pub const SETTLE_ROUND_CAP: usize = 100_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1024 servers, random 4-regular graph, cold start on the reactor.
    ColdRr1k,
    /// The same cluster on the paper's default ring.
    ColdRing1k,
    /// 10 240 servers on an 80×128 torus, deployments capped at ε.
    ScaleTorus10k,
    /// The `cold-rr-1k` cluster kept warm on `DibaRun`, fed events.
    EventsRr1k,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdRr1k,
        Workload::ColdRing1k,
        Workload::ScaleTorus10k,
        Workload::EventsRr1k,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRr1k => "cold-rr-1k",
            Workload::ColdRing1k => "cold-ring-1k",
            Workload::ScaleTorus10k => "scale-torus-10k",
            Workload::EventsRr1k => "events-rr-1k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cluster size.
    pub fn servers(self) -> usize {
        match self {
            Workload::ScaleTorus10k => 10_240,
            _ => 1024,
        }
    }

    /// Whether deployments also run uncapped until convergence quorum
    /// (the 10k torus cannot settle within a run; its stopping rule never
    /// fires before the cap).
    pub fn settles(self) -> bool {
        !matches!(self, Workload::ScaleTorus10k)
    }

    /// Whether timed reactor runs are pinned bitwise to the lockstep
    /// executor (the 1k workloads).
    pub fn pins_lockstep(self) -> bool {
        self.servers() <= 1024
    }

    /// Builds the workload's topology from the seed.
    pub fn topology(self, seed: u64) -> Graph {
        match self {
            Workload::ColdRing1k => Graph::ring(self.servers()),
            Workload::ScaleTorus10k => Graph::torus(80, 128).expect("80x128 is a valid torus"),
            Workload::ColdRr1k | Workload::EventsRr1k => {
                let mut rng = StdRng::seed_from_u64(seed);
                Graph::random_regular(self.servers(), 4, &mut rng, 200)
                    .expect("a random 4-regular graph on 1024 nodes exists")
            }
        }
    }

    /// The seeded cluster and its capping problem.
    pub fn problem(self, seed: u64) -> (Cluster, PowerBudgetProblem) {
        let n = self.servers();
        let cluster = ClusterBuilder::new(n).seed(seed).build();
        let problem =
            PowerBudgetProblem::new(cluster.utilities(), Watts(WATTS_PER_SERVER * n as f64))
                .expect("170 W per server covers idle power");
        (cluster, problem)
    }
}

/// Algorithm knobs: the defaults, with the round engine pinned to one
/// thread so no workload runs more threads than cores.
pub fn diba_config() -> DibaConfig {
    DibaConfig {
        threads: Threads::Fixed(1),
        ..DibaConfig::default()
    }
}

/// Runtime knobs: the reactor pinned to one shard per core (not `auto`).
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        transport: TransportKind::Reactor,
        shards: ShardCount::Fixed(crate::host::cores()),
        max_rounds: SETTLE_ROUND_CAP,
        ..RuntimeConfig::default()
    }
}
