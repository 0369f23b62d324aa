//! What the benchmark reads from the product's public counters, summed
//! over the epochs of a pass, and the process-level readings.

use pushpull_core::machine::Machine;
use pushpull_core::spec::SeqSpec;
use pushpull_tm::driver::SystemStats;

use crate::alloc::AllocCounts;
use crate::stats::ratio;

/// Public counters of the systems a pass drained, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Committed transactions (`SystemStats::commits`).
    pub commits: u64,
    /// Aborted attempts (`SystemStats::aborts`).
    pub aborts: u64,
    /// Ticks a driver reported as blocked.
    pub blocked_ticks: u64,
    /// Ticks the drivers ran.
    pub ticks: u64,
    /// Shard-lock acquisitions.
    pub lock_acquires: u64,
    /// Acquisitions that found the lock held.
    pub lock_contended: u64,
    /// Criteria evaluations served from a shard snapshot.
    pub snap_reads: u64,
    /// Snapshot validation races.
    pub snap_retries: u64,
    /// Snapshot reads that fell back to the lock.
    pub snap_fallbacks: u64,
    /// Arena slots allocated.
    pub arena_capacity: u64,
    /// Appends that reused a freed arena slot.
    pub arena_reused: u64,
    /// Group-commit batches sealed.
    pub group_batches: u64,
    /// Transactions committed through a batch.
    pub group_txns: u64,
    /// Commit-ready transactions the batch path refused.
    pub group_fallbacks: u64,
    /// `SeqSpec::allowed` queries the criteria made.
    pub allowed_queries: u64,
    /// Mover queries the criteria made.
    pub mover_queries: u64,
    /// Criteria obligations violated (each one denies a rule).
    pub violated: u64,
    /// Allocations of the threads that built and drained the systems.
    pub allocs: AllocCounts,
}

impl Counters {
    /// Adds one drained system: its driver statistics, its machine's
    /// criteria audit, the ticks it ran and what its threads allocated.
    pub fn add<S: SeqSpec>(
        &mut self,
        stats: &SystemStats,
        machine: &Machine<S>,
        ticks: u64,
        allocs: AllocCounts,
    ) {
        let audit = machine.audit();
        self.commits += stats.commits;
        self.aborts += stats.aborts;
        self.blocked_ticks += stats.blocked_ticks;
        self.ticks += ticks;
        self.lock_acquires += stats.lock_acquires;
        self.lock_contended += stats.lock_contended;
        self.snap_reads += stats.snap_reads;
        self.snap_retries += stats.snap_retries;
        self.snap_fallbacks += stats.snap_fallbacks;
        self.arena_capacity += stats.arena_capacity;
        self.arena_reused += stats.arena_reused;
        let g = machine.group_stats();
        self.group_batches += g.batches;
        self.group_txns += g.batched_txns;
        self.group_fallbacks += stats.group_fallbacks;
        self.allowed_queries += audit.allowed_queries;
        self.mover_queries += audit.mover_queries;
        self.violated += audit.violated.values().sum::<u64>();
        self.allocs += allocs;
    }

    /// Adds `other`'s counts to this one's.
    pub fn merge(&mut self, other: &Counters) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.blocked_ticks += other.blocked_ticks;
        self.ticks += other.ticks;
        self.lock_acquires += other.lock_acquires;
        self.lock_contended += other.lock_contended;
        self.snap_reads += other.snap_reads;
        self.snap_retries += other.snap_retries;
        self.snap_fallbacks += other.snap_fallbacks;
        self.arena_capacity += other.arena_capacity;
        self.arena_reused += other.arena_reused;
        self.group_batches += other.group_batches;
        self.group_txns += other.group_txns;
        self.group_fallbacks += other.group_fallbacks;
        self.allowed_queries += other.allowed_queries;
        self.mover_queries += other.mover_queries;
        self.violated += other.violated;
        self.allocs += other.allocs;
    }

    /// `n` per committed transaction.
    pub fn per_txn(&self, n: u64) -> f64 {
        ratio(n as f64, self.commits as f64)
    }

    /// The counts the determinism tests compare: everything a
    /// single-threaded rung must repeat exactly.
    pub fn repeatable(&self) -> [u64; 7] {
        [
            self.commits,
            self.aborts,
            self.lock_acquires,
            self.allowed_queries,
            self.mover_queries,
            self.allocs.count,
            self.ticks,
        ]
    }
}

/// The process's resident high-water mark in MiB (`VmHWM`). Each workload
/// runs in a process of its own, so the mark is the workload's.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.5);
    }
}
