//! `BENCH_dynamic.json`: warm-started re-convergence vs cold restart
//! across event magnitudes (the `dpc replay --bench` sweep).
//!
//! Each cell replays a synthetic 12-event timeline against a warm
//! [`mod@dpc_sim::replay`] run at one cluster size × event-magnitude class
//! (small ≈ 1 % budget moves and single-node churn, medium ≈ 5 % moves,
//! large ≈ 20 % swings plus drains), recording per-event rounds-to-rest
//! for the warm run *and* for a cold start on the identical mutated
//! instance. The headline numbers are the p50/p99 of those two round
//! distributions: warm starting must beat cold restarting at both
//! percentiles for small-magnitude events ([`DynamicBenchReport::warm_beats_cold`]).
//!
//! Round counts are deterministic (same seed → same cells). Only
//! `events_per_sec` — measured over the warm path alone, initial settle
//! excluded — and `host_parallelism` vary across hosts, and the JSON
//! labels them as host-dependent.

use dpc_models::units::Watts;
use dpc_models::vm::VmSpec;
use dpc_sim::replay::{
    replay, ReplayConfig, ReplayReport, Scenario, ScenarioEvent, SettleCriterion, TimedEvent,
};
use std::time::Instant;

/// Event-magnitude class of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Magnitude {
    /// ≈1 % budget moves and single-node VM/phase churn — the regime the
    /// warm start is designed for.
    Small,
    /// ≈5 % budget moves and multi-node churn.
    Medium,
    /// ≈20 % budget swings, drains, and bursts of churn.
    Large,
}

impl Magnitude {
    /// Stable identifier used in reports.
    pub fn key(self) -> &'static str {
        match self {
            Magnitude::Small => "small",
            Magnitude::Medium => "medium",
            Magnitude::Large => "large",
        }
    }

    /// Sweep order.
    pub const ALL: [Magnitude; 3] = [Magnitude::Small, Magnitude::Medium, Magnitude::Large];
}

/// One sweep cell: cluster size × magnitude class.
#[derive(Debug, Clone, PartialEq)]
pub struct DynCell {
    /// Cluster size.
    pub servers: usize,
    /// Event-magnitude class.
    pub magnitude: Magnitude,
    /// Number of event groups replayed.
    pub events: usize,
    /// Rounds of the initial cold settle (the baseline the cold column
    /// re-pays on every event).
    pub initial_rounds: usize,
    /// Median warm rounds-to-rest per event.
    pub warm_p50: usize,
    /// 99th-percentile warm rounds-to-rest.
    pub warm_p99: usize,
    /// Median cold rounds-to-rest on the mutated instance.
    pub cold_p50: usize,
    /// 99th-percentile cold rounds-to-rest.
    pub cold_p99: usize,
    /// Warm events re-converged per second (host-dependent; warm path
    /// only, initial settle excluded).
    pub events_per_sec: f64,
    /// Every event group re-settled feasibly with a clean ledger.
    pub all_settled: bool,
}

/// The `BENCH_dynamic.json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicBenchReport {
    /// Workload seed.
    pub seed: u64,
    /// `std::thread::available_parallelism` of the measuring host.
    pub host_parallelism: usize,
    /// The sweep cells, sizes × magnitudes.
    pub cells: Vec<DynCell>,
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[usize], p: f64) -> usize {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl DynamicBenchReport {
    /// The acceptance gate: for every small-magnitude cell, warm
    /// re-convergence beats the cold restart at p50 AND p99, and every
    /// cell settled cleanly.
    pub fn warm_beats_cold(&self) -> bool {
        self.cells.iter().all(|c| c.all_settled)
            && self
                .cells
                .iter()
                .filter(|c| c.magnitude == Magnitude::Small)
                .all(|c| c.warm_p50 < c.cold_p50 && c.warm_p99 < c.cold_p99)
    }

    /// Renders the report as pretty-printed JSON (hand-rolled — the
    /// workspace carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"dynamic\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str(&format!(
            "  \"warm_beats_cold\": {},\n",
            self.warm_beats_cold()
        ));
        out.push_str("  \"note\": \"events_per_sec is host-dependent; round counts are deterministic per seed\",\n");
        out.push_str("  \"cells\": [\n");
        for (k, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"servers\": {}, \"magnitude\": \"{}\", \"events\": {}, \
                 \"initial_rounds\": {}, \"warm_p50\": {}, \"warm_p99\": {}, \
                 \"cold_p50\": {}, \"cold_p99\": {}, \"events_per_sec\": {:.2}, \
                 \"all_settled\": {}}}{}\n",
                c.servers,
                c.magnitude.key(),
                c.events,
                c.initial_rounds,
                c.warm_p50,
                c.warm_p99,
                c.cold_p50,
                c.cold_p99,
                c.events_per_sec,
                c.all_settled,
                if k + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders a human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "dynamic re-convergence: warm start vs cold restart, seed {}, {} hw threads\n\n\
             {:>8}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>10}  settled\n",
            self.seed,
            self.host_parallelism,
            "servers",
            "magnitude",
            "warm p50",
            "warm p99",
            "cold p50",
            "cold p99",
            "events/s",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:>8}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>10.2}  {}\n",
                c.servers,
                c.magnitude.key(),
                c.warm_p50,
                c.warm_p99,
                c.cold_p50,
                c.cold_p99,
                c.events_per_sec,
                if c.all_settled { "ok" } else { "STUCK" },
            ));
        }
        out.push_str(&format!(
            "\nwarm beats cold (small events, p50 & p99): {}\n",
            if self.warm_beats_cold() { "yes" } else { "NO" }
        ));
        out
    }
}

/// Builds the 12-event timeline of one magnitude class for an `n`-server
/// cluster with base budget `base` watts. Node picks are deterministic in
/// `n` (spread across the ring) and every sequence is valid under the
/// scenario parser's static rules.
fn timeline(mag: Magnitude, n: usize, base: f64) -> Vec<TimedEvent> {
    let at = |t: usize, event: ScenarioEvent| TimedEvent {
        at: t as f64,
        event,
    };
    let budget = |t: usize, frac: f64| at(t, ScenarioEvent::SetBudget(Watts(base * frac)));
    let vm = |share: f64, mb: f64| VmSpec {
        share,
        memory_boundedness: mb,
    };
    let (a, b, c) = (n / 7, 2 * n / 5, 3 * n / 4);
    match mag {
        Magnitude::Small => vec![
            budget(1, 0.99),
            at(
                2,
                ScenarioEvent::Phase {
                    node: a,
                    memory_boundedness: 0.85,
                },
            ),
            budget(3, 1.0),
            at(
                4,
                ScenarioEvent::VmArrive {
                    node: b,
                    vm: vm(0.3, 0.3),
                },
            ),
            budget(5, 0.995),
            at(6, ScenarioEvent::VmDepart { node: b }),
            budget(7, 1.005),
            at(
                8,
                ScenarioEvent::Phase {
                    node: c,
                    memory_boundedness: 0.25,
                },
            ),
            budget(9, 0.99),
            at(
                10,
                ScenarioEvent::VmArrive {
                    node: a,
                    vm: vm(0.2, 0.6),
                },
            ),
            budget(11, 1.0),
            at(12, ScenarioEvent::VmDepart { node: a }),
        ],
        Magnitude::Medium => vec![
            budget(1, 0.95),
            at(
                2,
                ScenarioEvent::VmArrive {
                    node: a,
                    vm: vm(0.6, 0.2),
                },
            ),
            at(
                3,
                ScenarioEvent::VmArrive {
                    node: b,
                    vm: vm(0.5, 0.7),
                },
            ),
            budget(4, 1.0),
            at(
                5,
                ScenarioEvent::Phase {
                    node: c,
                    memory_boundedness: 0.9,
                },
            ),
            budget(6, 0.95),
            at(7, ScenarioEvent::VmDepart { node: a }),
            budget(8, 1.05),
            at(
                9,
                ScenarioEvent::VmArrive {
                    node: c,
                    vm: vm(0.4, 0.1),
                },
            ),
            budget(10, 1.0),
            at(11, ScenarioEvent::VmDepart { node: b }),
            budget(12, 0.95),
        ],
        Magnitude::Large => vec![
            budget(1, 0.8),
            at(2, ScenarioEvent::Drain { node: a }),
            budget(3, 1.0),
            at(
                4,
                ScenarioEvent::VmArrive {
                    node: b,
                    vm: vm(0.9, 0.1),
                },
            ),
            budget(5, 0.8),
            at(6, ScenarioEvent::Restore { node: a }),
            budget(7, 1.2),
            at(8, ScenarioEvent::Drain { node: c }),
            budget(9, 0.85),
            at(10, ScenarioEvent::Restore { node: c }),
            budget(11, 1.0),
            at(12, ScenarioEvent::VmDepart { node: b }),
        ],
    }
}

/// The scenario of one sweep cell: a chordal ring (the large-cluster CLI
/// default) at 170 W/server, the same sizing as the fault sweep.
fn scenario_for(mag: Magnitude, servers: usize, seed: u64) -> Scenario {
    let base = 170.0 * servers as f64;
    Scenario {
        servers,
        seed,
        topology: "chords".to_string(),
        budget: Watts(base),
        events: timeline(mag, servers, base),
    }
}

/// Measures one sweep cell.
fn measure_cell(mag: Magnitude, servers: usize, seed: u64, settle: SettleCriterion) -> DynCell {
    let scenario = scenario_for(mag, servers, seed);

    // Round counts: warm and cold per event, deterministic.
    let counted = replay(
        &scenario,
        &ReplayConfig {
            settle,
            compare_cold: true,
            ..ReplayConfig::default()
        },
    )
    .expect("bench scenarios are statically valid");

    // Wall time: warm path only. The zero-event replay isolates the
    // initial settle so it can be subtracted out of the full warm run.
    let baseline = Scenario {
        events: Vec::new(),
        ..scenario.clone()
    };
    let warm_only = ReplayConfig {
        settle,
        compare_cold: false,
        ..ReplayConfig::default()
    };
    let t0 = Instant::now();
    replay(&baseline, &warm_only).expect("baseline scenario is valid");
    let settle_time = t0.elapsed();
    let t1 = Instant::now();
    replay(&scenario, &warm_only).expect("bench scenarios are statically valid");
    let full_time = t1.elapsed();
    let event_secs = (full_time.as_secs_f64() - settle_time.as_secs_f64()).max(1e-9);

    let report = &counted.report;
    let mut warm: Vec<usize> = report.events.iter().filter_map(|e| e.warm_rounds).collect();
    let mut cold: Vec<usize> = report.events.iter().filter_map(|e| e.cold_rounds).collect();
    warm.sort_unstable();
    cold.sort_unstable();
    let complete = warm.len() == report.events.len() && cold.len() == report.events.len();
    DynCell {
        servers,
        magnitude: mag,
        events: report.events.len(),
        initial_rounds: report.initial_rounds.unwrap_or(settle.max_rounds),
        warm_p50: percentile(&warm, 50.0),
        warm_p99: percentile(&warm, 99.0),
        cold_p50: percentile(&cold, 50.0),
        cold_p99: percentile(&cold, 99.0),
        events_per_sec: report.events.len() as f64 / event_secs,
        all_settled: report.all_settled() && complete,
    }
}

/// Runs the full sweep: every magnitude class at every cluster size.
pub fn run(sizes: &[usize], seed: u64) -> DynamicBenchReport {
    let settle = SettleCriterion::default();
    let mut cells = Vec::with_capacity(sizes.len() * Magnitude::ALL.len());
    for &servers in sizes {
        for mag in Magnitude::ALL {
            cells.push(measure_cell(mag, servers, seed, settle));
        }
    }
    DynamicBenchReport {
        seed,
        host_parallelism: dpc_alg::exec::host_parallelism(),
        cells,
    }
}

/// Replays one scenario with the default bench criterion — the
/// `dpc replay --scenario` path (scenario mode, not sweep mode).
pub fn replay_scenario(
    scenario: &Scenario,
    compare_cold: bool,
) -> Result<ReplayReport, dpc_alg::problem::AlgError> {
    let outcome = replay(
        scenario,
        &ReplayConfig {
            compare_cold,
            ..ReplayConfig::default()
        },
    )?;
    Ok(outcome.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timelines_are_valid_scenarios() {
        // Round-trip every generated timeline through the strict parser
        // invariants by replaying it at small scale.
        for mag in Magnitude::ALL {
            let s = scenario_for(mag, 64, 3);
            let out = replay(&s, &ReplayConfig::default()).unwrap();
            assert!(
                out.report.all_settled(),
                "{mag:?}: {}",
                out.report.to_table()
            );
        }
    }

    #[test]
    fn small_events_warm_beats_cold_at_small_scale() {
        let cell = measure_cell(Magnitude::Small, 200, 0, SettleCriterion::default());
        assert!(cell.all_settled);
        assert!(
            cell.warm_p50 < cell.cold_p50 && cell.warm_p99 < cell.cold_p99,
            "warm p50/p99 {}/{} vs cold {}/{}",
            cell.warm_p50,
            cell.warm_p99,
            cell.cold_p50,
            cell.cold_p99
        );
    }

    #[test]
    fn report_renders_both_ways() {
        let report = DynamicBenchReport {
            seed: 0,
            host_parallelism: 8,
            cells: vec![DynCell {
                servers: 100,
                magnitude: Magnitude::Small,
                events: 12,
                initial_rounds: 900,
                warm_p50: 40,
                warm_p99: 120,
                cold_p50: 800,
                cold_p99: 1000,
                events_per_sec: 55.0,
                all_settled: true,
            }],
        };
        assert!(report.warm_beats_cold());
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"dynamic\""));
        assert!(json.contains("\"warm_beats_cold\": true"));
        assert!(report.to_table().contains("small"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&[7], 50.0), 7);
    }
}
