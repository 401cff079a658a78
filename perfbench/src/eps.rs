//! The ε criterion, judged against the centralized oracle.
//!
//! ε is the paper's "99 % of optimal": the allocation is feasible
//! (`Σp ≤ P + 1 µW`) and its total utility is within 1 % of the oracle's —
//! the test `DibaRun::run_until_within` applies. The per-node
//! `equiv_eps_watts` clause is deliberately not part of it: the runtime's
//! barrier margin keeps about 0.75 % of the budget unallocated, so no node
//! ever lands within 0.05 W of its oracle share (see README.md). The
//! largest per-node deviation is reported instead, never gated on.

use dpc_alg::centralized;
use dpc_alg::problem::PowerBudgetProblem;
use dpc_models::units::Watts;

/// Relative utility shortfall ε allows.
pub const EPS_REL: f64 = 0.01;

/// Budget overshoot still counted as feasible (watts).
pub const FEAS_TOL_W: f64 = 1e-6;

/// Largest residual drift `|Σe − (Σp − P)|` an operation may end with,
/// per server (watts): float rounding over tens of thousands of rounds
/// stays orders of magnitude below it, lost slack mass does not.
pub const DRIFT_TOL_W_PER_NODE: f64 = 1e-9;

/// What the oracle says about one allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// Total power (watts).
    pub sum_p: f64,
    /// `sum_p ≤ P + FEAS_TOL_W`.
    pub feasible: bool,
    /// Utility shortfall against the oracle, in percent.
    pub gap_pct: f64,
    /// Largest `|p_i − p_i*|` (watts).
    pub max_dev_w: f64,
    /// Feasible and within [`EPS_REL`] of the oracle's utility.
    pub within: bool,
}

/// The centralized optimum of one problem instance.
pub struct Oracle {
    problem: PowerBudgetProblem,
    utility: f64,
    powers: Vec<f64>,
}

impl Oracle {
    /// Solves `problem` exactly (`dpc_alg::centralized::solve`).
    pub fn solve(problem: &PowerBudgetProblem) -> Oracle {
        let solution = centralized::solve(problem);
        Oracle {
            utility: problem.total_utility(&solution.allocation),
            powers: solution.allocation.powers().iter().map(|w| w.0).collect(),
            problem: problem.clone(),
        }
    }

    /// The budget `P`.
    pub fn budget(&self) -> f64 {
        self.problem.budget().0
    }

    /// Judges an allocation given as per-node watts.
    pub fn judge(&self, powers: &[f64]) -> Judgement {
        assert_eq!(powers.len(), self.powers.len(), "allocation size");
        let utility: f64 = self
            .problem
            .utilities()
            .iter()
            .zip(powers)
            .map(|(u, &p)| u.value(Watts(p)))
            .sum();
        let max_dev_w = powers
            .iter()
            .zip(&self.powers)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        self.verdict(powers.iter().sum(), utility, max_dev_w)
    }

    /// Judges from totals alone (the per-node deviation reads `NaN`).
    pub fn judge_totals(&self, sum_p: f64, utility: f64) -> Judgement {
        self.verdict(sum_p, utility, f64::NAN)
    }

    fn verdict(&self, sum_p: f64, utility: f64, max_dev_w: f64) -> Judgement {
        let gap = (self.utility - utility).abs() / self.utility.abs().max(1e-12);
        let feasible = sum_p <= self.budget() + FEAS_TOL_W;
        Judgement {
            sum_p,
            feasible,
            gap_pct: 100.0 * (self.utility - utility) / self.utility.abs().max(1e-12),
            max_dev_w,
            within: feasible && gap < EPS_REL,
        }
    }
}
