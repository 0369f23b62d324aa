//! Run a system to completion and collect the full evaluation report:
//! statistics, serializability verdict, opacity verdict.

use pushpull_core::error::MachineError;
use pushpull_core::opacity::{check_trace, OpacityVerdict};
use pushpull_core::serializability::{check_machine, SerializabilityReport};
use pushpull_tm::driver::{SystemStats, TmSystem};

use crate::scheduler::{run, RandomSched, RunOutcome};

/// Everything a finished run tells us.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Scheduling outcome.
    pub outcome: RunOutcome,
    /// Commit/abort/blocked statistics.
    pub stats: SystemStats,
    /// Serializability oracle verdict.
    pub serializability: SerializabilityReport,
    /// Opacity fragment verdict.
    pub opacity: OpacityVerdict,
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<22} commits={:<5} aborts={:<5} blocked={:<5} ticks={:<7} abort-rate={:>5.1}% serializable={} opaque={}",
            self.algorithm,
            self.stats.commits,
            self.stats.aborts,
            self.stats.blocked_ticks,
            self.outcome.ticks,
            self.stats.abort_rate() * 100.0,
            self.serializability.is_serializable(),
            self.opacity.is_opaque(),
        )
    }
}

/// Runs `sys` to completion under a seeded random scheduler and produces
/// the full report.
///
/// # Errors
///
/// Propagates unexpected machine errors.
pub fn run_reported<T: TmSystem>(
    sys: &mut T,
    seed: u64,
    max_ticks: usize,
) -> Result<RunReport, MachineError> {
    let outcome = run(sys, &mut RandomSched::new(seed), max_ticks)?;
    let m = sys.machine();
    Ok(RunReport {
        algorithm: sys.name(),
        outcome,
        stats: sys.stats(),
        serializability: check_machine(m),
        opacity: check_trace(&m.trace()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::lang::Code;
    use pushpull_spec::kvmap::{KvMap, MapMethod};
    use pushpull_tm::boosting::BoostingSystem;

    #[test]
    fn report_carries_all_verdicts() {
        let mut sys = BoostingSystem::new(
            KvMap::new(),
            vec![
                vec![Code::method(MapMethod::Put(1, 1))],
                vec![Code::method(MapMethod::Put(2, 2))],
            ],
        );
        let report = run_reported(&mut sys, 7, 10_000).unwrap();
        assert!(report.outcome.completed);
        assert_eq!(report.stats.commits, 2);
        assert!(report.serializability.is_serializable());
        assert!(report.opacity.is_opaque());
        let line = report.to_string();
        assert!(line.contains("boosting"));
        assert!(line.contains("serializable=true"));
    }
}
