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

/// Aggregated results of one algorithm/workload cell across seeds.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Label of the cell (algorithm/workload).
    pub label: String,
    /// Commits per run.
    pub commits: Aggregate,
    /// Aborts per run.
    pub aborts: Aggregate,
    /// Abort rate per run.
    pub abort_rate: Aggregate,
    /// Ticks to completion per run.
    pub ticks: Aggregate,
    /// Contention-manager degradations (solo-mode escalations) per run.
    pub degradations: Aggregate,
    /// Longest single-thread consecutive-abort streak per run.
    pub max_abort_streak: Aggregate,
    /// Shared-log shard-lock acquisitions per run.
    pub lock_acquires: Aggregate,
    /// Shared-log shard-lock acquisitions that had to wait per run.
    pub lock_contended: Aggregate,
    /// Logical sessions multiplexed by the service front-end per run.
    pub sessions: Aggregate,
    /// Group-commit batches sealed per run.
    pub group_batches: Aggregate,
    /// Transactions committed through group-commit batches per run.
    pub group_txns: Aggregate,
    /// Shard-lock acquisitions amortized away by batching per run.
    pub group_locks_saved: Aggregate,
    /// Commit-ready transactions that fell back to the per-transaction
    /// path per run.
    pub group_fallbacks: Aggregate,
    /// Nested scopes opened (closed, open and checkpoint) per run.
    pub scopes_opened: Aggregate,
    /// Closed scopes merged into their parent per run.
    pub scopes_merged: Aggregate,
    /// Nested scopes aborted (suffix rewound) per run.
    pub scopes_aborted: Aggregate,
    /// Open-nested children committed to `G` per run.
    pub open_commits: Aggregate,
    /// Compensating transactions replayed on parent aborts per run.
    pub compensations_replayed: Aggregate,
    /// Inverse operations derived for undo programs per run.
    pub undo_inverses: Aggregate,
}

impl std::fmt::Display for SweepResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<34} commits={:<12} aborts={:<12} abort-rate={:>6.1}%  ticks={:<14} streak={:<9} degr={} locks={}/{}",
            self.label,
            self.commits.to_string(),
            self.aborts.to_string(),
            self.abort_rate.mean * 100.0,
            self.ticks.to_string(),
            self.max_abort_streak.to_string(),
            self.degradations,
            self.lock_contended,
            self.lock_acquires,
        )?;
        // Only service-front-end runs (sessions multiplexed or batches
        // sealed) print the group-commit tail, so other sweep tables stay
        // byte-compatible with older logs.
        if self.group_batches.max > 0.0 || self.sessions.max > 0.0 {
            write!(
                f,
                " sessions={} batches={} (txns={} saved={} fb={})",
                self.sessions,
                self.group_batches,
                self.group_txns,
                self.group_locks_saved,
                self.group_fallbacks,
            )?;
        }
        // And only runs that actually nested scopes print the nesting
        // tail, keeping flat sweep tables byte-compatible.
        if self.scopes_opened.max > 0.0 {
            write!(
                f,
                " scopes={} (merged={} aborted={} open={} comp={} undo={})",
                self.scopes_opened,
                self.scopes_merged,
                self.scopes_aborted,
                self.open_commits,
                self.compensations_replayed,
                self.undo_inverses,
            )?;
        }
        Ok(())
    }
}

/// Runs `make_and_run` once per seed (it returns the run's stats and
/// tick count) and aggregates.
pub fn sweep(
    label: impl Into<String>,
    seeds: impl IntoIterator<Item = u64>,
    mut make_and_run: impl FnMut(u64) -> (SystemStats, usize),
) -> SweepResult {
    let mut commits = Vec::new();
    let mut aborts = Vec::new();
    let mut rates = Vec::new();
    let mut ticks = Vec::new();
    let mut degradations = Vec::new();
    let mut streaks = Vec::new();
    let mut acquires = Vec::new();
    let mut contended = Vec::new();
    let mut sessions = Vec::new();
    let mut g_batches = Vec::new();
    let mut g_txns = Vec::new();
    let mut g_saved = Vec::new();
    let mut g_fallbacks = Vec::new();
    let mut n_opened = Vec::new();
    let mut n_merged = Vec::new();
    let mut n_aborted = Vec::new();
    let mut n_open_commits = Vec::new();
    let mut n_compensations = Vec::new();
    let mut n_undo = Vec::new();
    for seed in seeds {
        let (stats, t) = make_and_run(seed);
        commits.push(stats.commits as f64);
        aborts.push(stats.aborts as f64);
        rates.push(stats.abort_rate());
        ticks.push(t as f64);
        degradations.push(stats.degradations as f64);
        streaks.push(stats.max_abort_streak as f64);
        acquires.push(stats.lock_acquires as f64);
        contended.push(stats.lock_contended as f64);
        sessions.push(stats.sessions as f64);
        g_batches.push(stats.group_batches as f64);
        g_txns.push(stats.group_txns as f64);
        g_saved.push(stats.group_locks_saved as f64);
        g_fallbacks.push(stats.group_fallbacks as f64);
        n_opened.push(stats.scopes_opened as f64);
        n_merged.push(stats.scopes_merged as f64);
        n_aborted.push(stats.scopes_aborted as f64);
        n_open_commits.push(stats.open_commits as f64);
        n_compensations.push(stats.compensations_replayed as f64);
        n_undo.push(stats.undo_inverses as f64);
    }
    SweepResult {
        label: label.into(),
        commits: Aggregate::of(&commits),
        aborts: Aggregate::of(&aborts),
        abort_rate: Aggregate::of(&rates),
        ticks: Aggregate::of(&ticks),
        degradations: Aggregate::of(&degradations),
        max_abort_streak: Aggregate::of(&streaks),
        lock_acquires: Aggregate::of(&acquires),
        lock_contended: Aggregate::of(&contended),
        sessions: Aggregate::of(&sessions),
        group_batches: Aggregate::of(&g_batches),
        group_txns: Aggregate::of(&g_txns),
        group_locks_saved: Aggregate::of(&g_saved),
        group_fallbacks: Aggregate::of(&g_fallbacks),
        scopes_opened: Aggregate::of(&n_opened),
        scopes_merged: Aggregate::of(&n_merged),
        scopes_aborted: Aggregate::of(&n_aborted),
        open_commits: Aggregate::of(&n_open_commits),
        compensations_replayed: Aggregate::of(&n_compensations),
        undo_inverses: Aggregate::of(&n_undo),
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
        assert_eq!(result.commits.n, 5);
        assert!(
            (result.commits.mean - 4.0).abs() < 1e-9,
            "4 txns always commit"
        );
        let line = result.to_string();
        assert!(line.contains("counter/optimistic"));
        // Flat workloads never nest, and the table stays byte-compatible.
        assert_eq!(result.scopes_opened.max, 0.0);
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
            result.scopes_opened.mean > 0.0,
            "tx markers must open scopes: {result}"
        );
        assert!(result.scopes_merged.mean > 0.0);
        assert!(result.to_string().contains("scopes="), "{result}");
    }
}
