//! Multi-seed sweeps with aggregate statistics — the machinery behind the
//! EXPERIMENTS.md tables. Each cell of a reported table is a mean ± σ
//! over independently seeded schedulers on identical workloads.

use pushpull_tm::driver::SystemStats;

/// Aggregate of a statistic across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std_dev: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Aggregate {
    /// Aggregates a sample set. Empty input yields all-zero with `n = 0`.
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            mean,
            std_dev: var.sqrt(),
            min,
            max,
            n,
        }
    }
}

impl std::fmt::Display for Aggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}±{:.1}", self.mean, self.std_dev)
    }
}

/// The runs of one algorithm/workload cell across seeds; each statistic's
/// [`Aggregate`] is computed when asked.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Label of the cell (algorithm/workload).
    pub label: String,
    /// Each seed's statistics and ticks to completion, in seed order.
    pub runs: Vec<(SystemStats, usize)>,
}

impl SweepResult {
    /// Aggregates one statistic of every run.
    pub fn aggregate(&self, stat: impl Fn(&SystemStats) -> f64) -> Aggregate {
        let samples: Vec<f64> = self.runs.iter().map(|(s, _)| stat(s)).collect();
        Aggregate::of(&samples)
    }

    /// Aggregates the ticks to completion.
    pub fn ticks(&self) -> Aggregate {
        let samples: Vec<f64> = self.runs.iter().map(|&(_, t)| t as f64).collect();
        Aggregate::of(&samples)
    }
}

impl std::fmt::Display for SweepResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = |stat: fn(&SystemStats) -> u64| self.aggregate(|s| stat(s) as f64);
        write!(
            f,
            "{:<34} commits={:<12} aborts={:<12} abort-rate={:>6.1}%  ticks={:<14} streak={:<9} degr={} locks={}/{}",
            self.label,
            count(|s| s.commits).to_string(),
            count(|s| s.aborts).to_string(),
            self.aggregate(SystemStats::abort_rate).mean * 100.0,
            self.ticks().to_string(),
            count(|s| s.max_abort_streak).to_string(),
            count(|s| s.degradations),
            count(|s| s.lock_contended),
            count(|s| s.lock_acquires),
        )?;
        // Only service-front-end runs (sessions multiplexed) print the
        // session tail, so other sweep tables stay byte-compatible with
        // older logs.
        if self.runs.iter().any(|(s, _)| s.sessions > 0) {
            write!(f, " sessions={}", count(|s| s.sessions))?;
        }
        // And only runs that actually nested scopes print the nesting
        // tail, keeping flat sweep tables byte-compatible.
        if self.runs.iter().any(|(s, _)| s.scopes_opened > 0) {
            write!(
                f,
                " scopes={} (merged={} aborted={} open={} comp={} undo={})",
                count(|s| s.scopes_opened),
                count(|s| s.scopes_merged),
                count(|s| s.scopes_aborted),
                count(|s| s.open_commits),
                count(|s| s.compensations_replayed),
                count(|s| s.undo_inverses),
            )?;
        }
        Ok(())
    }
}

/// Runs `make_and_run` once per seed (it returns the run's stats and
/// tick count) and collects the runs.
pub fn sweep(
    label: impl Into<String>,
    seeds: impl IntoIterator<Item = u64>,
    make_and_run: impl FnMut(u64) -> (SystemStats, usize),
) -> SweepResult {
    SweepResult {
        label: label.into(),
        runs: seeds.into_iter().map(make_and_run).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{run, RandomSched};
    use crate::workload::WorkloadSpec;
    use pushpull_core::lang::Code;
    use pushpull_spec::counter::{Counter, CtrMethod};
    use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};

    #[test]
    fn aggregate_math() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0]);
        assert!((a.mean - 2.0).abs() < 1e-12);
        assert!((a.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.n, 3);
        let empty = Aggregate::of(&[]);
        assert_eq!(empty.n, 0);
        let single = Aggregate::of(&[5.0]);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn sweep_line_is_pinned_byte_for_byte() {
        // Synthetic runs with every counter the line prints non-zero, so
        // both optional tails (sessions and scopes) render.
        let result = sweep("server/pinned", [1u64, 3], |k| {
            let stats = SystemStats {
                commits: 4 * k,
                aborts: k,
                degradations: k - 1,
                max_abort_streak: k,
                lock_acquires: 20 * k,
                lock_contended: k,
                sessions: 5 * k,
                scopes_opened: 6 * k,
                scopes_merged: 2 * k,
                scopes_aborted: k,
                open_commits: k,
                compensations_replayed: k - 1,
                undo_inverses: 2 * k,
                ..SystemStats::default()
            };
            (stats, 10 + 2 * k as usize)
        });
        assert_eq!(
            result.to_string(),
            concat!(
                "server/pinned                      commits=8.0±5.7      aborts=2.0±1.4      ",
                "abort-rate=  20.0%  ticks=14.0±2.8       streak=2.0±1.4   degr=1.0±1.4 ",
                "locks=2.0±1.4/40.0±28.3 sessions=10.0±7.1 scopes=12.0±8.5 ",
                "(merged=4.0±2.8 aborted=2.0±1.4 open=2.0±1.4 comp=1.0±1.4 undo=4.0±2.8)",
            )
        );
    }

    #[test]
    fn sweep_runs_per_seed() {
        let spec = WorkloadSpec {
            threads: 2,
            txns_per_thread: 2,
            ops_per_txn: 2,
            ..Default::default()
        };
        let result = sweep("counter/optimistic", 1..=5, |seed| {
            let mut sys = OptimisticSystem::new(
                Counter::new(),
                spec.counter_programs(),
                ReadPolicy::Snapshot,
            );
            let out = run(&mut sys, &mut RandomSched::new(seed), 1_000_000).unwrap();
            assert!(out.completed);
            (sys.stats(), out.ticks)
        });
        let commits = result.aggregate(|s| s.commits as f64);
        assert_eq!(commits.n, 5);
        assert!((commits.mean - 4.0).abs() < 1e-9, "4 txns always commit");
        let line = result.to_string();
        assert!(line.contains("counter/optimistic"));
        // Flat workloads never nest, and the table stays byte-compatible.
        assert_eq!(result.aggregate(|s| s.scopes_opened as f64).max, 0.0);
        assert!(!line.contains("scopes="));
        let _ = Code::method(CtrMethod::Get); // silence unused import pathologies
    }

    #[test]
    fn sweep_carries_nesting_counters() {
        let result = sweep("counter/nested", 1..=3, |seed| {
            let programs = (0..2i64)
                .map(|t| {
                    vec![Code::seq(
                        Code::method(CtrMethod::Add(t + 1)),
                        Code::tx(Code::method(CtrMethod::Get)),
                    )]
                })
                .collect();
            let mut sys = OptimisticSystem::new(Counter::new(), programs, ReadPolicy::Snapshot);
            let out = run(&mut sys, &mut RandomSched::new(seed), 1_000_000).unwrap();
            assert!(out.completed);
            (sys.stats(), out.ticks)
        });
        assert!(
            result.aggregate(|s| s.scopes_opened as f64).mean > 0.0,
            "tx markers must open scopes: {result}"
        );
        assert!(result.aggregate(|s| s.scopes_merged as f64).mean > 0.0);
        assert!(result.to_string().contains("scopes="), "{result}");
    }
}
