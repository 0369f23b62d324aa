//! Pluggable contention management: *when to retry, how long to wait,
//! and when to stop being polite*.
//!
//! The §6/§7 algorithm classes differ in which rules they take after a
//! criterion fails, but every driver also needs a *liveness* policy —
//! how long to wait on a blocked rule before aborting, and how soon to
//! retry an aborted transaction. PR 1 buried that policy in per-driver
//! magic constants (a blocked-streak threshold per driver); this module
//! makes it a first-class, pluggable [`ContentionManager`] shared by all
//! ten drivers:
//!
//! * [`ImmediateRetry`] — the naive baseline: retry at once, wait
//!   forever. Reproduces the checkpoint commit livelock PR 1 patched
//!   around, so the regression tests can show the default resolves it.
//! * [`GracefulDegradation`] — the default: bounded backoff below a
//!   retry budget, then *degrade* — escalate the starving transaction to
//!   solo (irrevocable-style) execution behind a global degrade token,
//!   generalizing both the §7 HTM→boosting fallback and the blocked-
//!   streak hack.
//!
//! Drivers talk to the policy through a per-thread [`Governor`], which
//! also owns the degradation token protocol, the injected kill/stall
//! faults of the [`FaultHook`](pushpull_core::FaultHook) layer, and the
//! starvation metrics reported as [`StarvationReport`].
//!
//! ## Degradation protocol
//!
//! When the policy answers [`Recovery::Degrade`], the thread's governor
//! (whose driver has just rolled the transaction back, releasing every
//! pushed-uncommitted operation) competes for a single shared token.
//! While a degraded thread holds the token, every other thread whose
//! transaction holds no pushed-uncommitted operations *parks*; threads
//! that do hold pushed state keep running until their own policy makes
//! them give up and roll back (a [`WaitVerdict::GiveUp`] is guaranteed
//! eventually for every non-naive policy), after which they park too.
//! The degraded thread therefore converges to running alone and commits.
//! Parking is bounded by a safety valve ([`TOKEN_PARK_PATIENCE`]): a
//! parked thread that holds a driver-level resource (an abstract lock,
//! say) the degraded thread needs would otherwise deadlock the protocol.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pushpull_core::faults::BoundaryFault;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::TxnHandle;

use crate::driver::SystemStats;

/// What a thread should do after an abort, as decided by the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Begin the retry immediately.
    Retry,
    /// Park for this many scheduler ticks before retrying.
    Backoff(u64),
    /// Escalate to degraded (solo) execution behind the degrade token.
    Degrade,
}

/// Whether a blocked thread should keep waiting or roll back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitVerdict {
    /// Stay blocked; retry the rule next tick.
    Wait,
    /// Stop waiting: abort the transaction and retry.
    GiveUp,
}

/// A contention-management policy, shared by every thread of a system.
///
/// Implementations must be deterministic functions of their inputs and
/// their own state (tick counts, never wall clocks), and `Sync` — the
/// parallel harness consults them from concurrent workers.
pub trait ContentionManager: std::fmt::Debug + Send + Sync {
    /// Short policy name (for reports and sweep labels).
    fn name(&self) -> &'static str;

    /// Called after `tid`'s `streak`-th consecutive abort (`streak ≥ 1`).
    fn after_abort(&self, tid: ThreadId, streak: u32) -> Recovery;

    /// Called after `tid` has been blocked for `blocked_streak`
    /// consecutive ticks (`blocked_streak ≥ 1`) on a rule it may
    /// legitimately give up on.
    fn on_blocked(&self, tid: ThreadId, blocked_streak: u32) -> WaitVerdict;
}

/// Blocked-streak patience shared by the bounded policies: the value the
/// pre-contention-manager drivers hard-coded.
pub const DEFAULT_PATIENCE: u32 = 24;

/// Ticks a thread parked by the degrade token waits before proceeding
/// anyway — the safety valve that keeps a parked lock-holder from
/// deadlocking the degraded thread.
pub const TOKEN_PARK_PATIENCE: u32 = 64;

/// Retry immediately, wait forever: the policy every naive driver
/// implicitly had, kept as the adversarial baseline. Under symmetric
/// conflicts it livelocks (see the checkpoint regression test); the
/// harness watchdog is what catches it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImmediateRetry;

impl ContentionManager for ImmediateRetry {
    fn name(&self) -> &'static str {
        "immediate-retry"
    }

    fn after_abort(&self, _tid: ThreadId, _streak: u32) -> Recovery {
        Recovery::Retry
    }

    fn on_blocked(&self, _tid: ThreadId, _blocked_streak: u32) -> WaitVerdict {
        WaitVerdict::Wait
    }
}

/// The default policy: bounded backoff below a retry budget, then
/// escalate the starving transaction to degraded (solo) execution — the
/// §7 "fall back from HTM to something that cannot lose" move,
/// generalized to every driver.
#[derive(Debug, Clone, Copy)]
pub struct GracefulDegradation {
    /// Consecutive aborts tolerated before degrading.
    pub retry_budget: u32,
    /// Blocked ticks tolerated before giving up.
    pub patience: u32,
}

impl GracefulDegradation {
    /// The default budget/patience.
    pub fn new() -> Self {
        Self {
            retry_budget: 8,
            patience: DEFAULT_PATIENCE,
        }
    }
}

impl Default for GracefulDegradation {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentionManager for GracefulDegradation {
    fn name(&self) -> &'static str {
        "graceful-degradation"
    }

    fn after_abort(&self, _tid: ThreadId, streak: u32) -> Recovery {
        if streak >= self.retry_budget {
            Recovery::Degrade
        } else {
            Recovery::Backoff(u64::from(streak.min(4)))
        }
    }

    fn on_blocked(&self, _tid: ThreadId, blocked_streak: u32) -> WaitVerdict {
        if blocked_streak >= self.patience {
            WaitVerdict::GiveUp
        } else {
            WaitVerdict::Wait
        }
    }
}

/// The policy every driver runs unless told otherwise.
pub fn default_manager() -> Arc<dyn ContentionManager> {
    Arc::new(GracefulDegradation::default())
}

/// Starvation metrics accumulated by a system's governors.
#[derive(Debug, Clone, PartialEq)]
pub struct StarvationReport {
    /// The longest run of consecutive aborts any single thread suffered.
    pub max_consecutive_aborts: u64,
    /// 99th percentile of aborts-before-commit over committed
    /// transactions (0 when nothing committed).
    pub p99_retries_to_commit: f64,
    /// Transactions escalated to degraded execution.
    pub degradations: u64,
    /// Committed transactions sampled for the percentile.
    pub commits_sampled: usize,
}

#[derive(Debug, Default)]
struct MetricsInner {
    retries_to_commit: Vec<u32>,
    max_consecutive_aborts: u64,
    degradations: u64,
}

/// The per-system half of contention management: the policy, the
/// degrade token and the starvation metrics, shared by every thread's
/// [`Governor`] through an `Arc`.
#[derive(Debug)]
pub struct ContentionState {
    cm: Arc<dyn ContentionManager>,
    /// Degrade token: 0 when free, `tid + 1` when held.
    token: AtomicUsize,
    metrics: Mutex<MetricsInner>,
}

impl ContentionState {
    /// Fresh shared state running `cm`.
    pub fn new(cm: Arc<dyn ContentionManager>) -> Arc<Self> {
        Arc::new(Self {
            cm,
            token: AtomicUsize::new(0),
            metrics: Mutex::new(MetricsInner::default()),
        })
    }

    /// One governor per model thread.
    pub fn governors(self: &Arc<Self>, n: usize) -> Vec<Governor> {
        (0..n).map(|t| Governor::new(self, ThreadId(t))).collect()
    }

    /// A fresh state (same policy, zeroed token and metrics) for system
    /// clones, which must share nothing with the original.
    pub fn fork(&self) -> Arc<Self> {
        Self::new(Arc::clone(&self.cm))
    }

    /// The accumulated starvation metrics.
    pub fn report(&self) -> StarvationReport {
        let m = self.metrics.lock().expect("contention metrics poisoned");
        let mut samples = m.retries_to_commit.clone();
        samples.sort_unstable();
        let p99 = if samples.is_empty() {
            0.0
        } else {
            let idx = ((samples.len() - 1) as f64 * 0.99).ceil() as usize;
            f64::from(samples[idx])
        };
        StarvationReport {
            max_consecutive_aborts: m.max_consecutive_aborts,
            p99_retries_to_commit: p99,
            degradations: m.degradations,
            commits_sampled: samples.len(),
        }
    }

    /// Folds the starvation counters into a stats value (called from
    /// [`Driver::stats`](crate::driver::Driver::stats)).
    pub fn fold_into(&self, stats: &mut SystemStats) {
        let r = self.report();
        stats.degradations = r.degradations;
        stats.max_abort_streak = r.max_consecutive_aborts;
    }
}

/// What the governor decides a thread should do this tick, before the
/// driver runs any rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The thread has no transactions left.
    Done,
    /// Park this tick (backoff, injected stall, or yielding to a
    /// degraded thread); report `Tick::Blocked`.
    Park,
    /// An injected fault killed the transaction: the driver must roll it
    /// back through its own abort path.
    Kill,
    /// Run the tick normally.
    Run,
}

/// The per-thread half of contention management. Drivers call
/// [`Governor::gate`] at the top of every tick, [`Governor::on_abort`]
/// from their abort paths, [`Governor::on_blocked`] from their wait
/// paths, and [`Governor::on_commit`] after a commit.
#[derive(Debug)]
pub struct Governor {
    shared: Arc<ContentionState>,
    tid: ThreadId,
    /// Consecutive aborts (reset on commit).
    streak: u32,
    /// Consecutive blocked ticks (reset on progress/abort/commit).
    blocked_streak: u32,
    /// Aborts since the last commit.
    retries: u32,
    /// Remaining backoff ticks.
    backoff: u64,
    /// Remaining injected-stall ticks.
    stall: u64,
    /// Ticks spent parked waiting on another thread's degrade token.
    parked: u32,
    /// This thread decided to degrade and is competing for the token.
    degrade_pending: bool,
    /// This thread holds the degrade token.
    degraded: bool,
}

impl Governor {
    fn new(shared: &Arc<ContentionState>, tid: ThreadId) -> Self {
        Self {
            shared: Arc::clone(shared),
            tid,
            streak: 0,
            blocked_streak: 0,
            retries: 0,
            backoff: 0,
            stall: 0,
            parked: 0,
            degrade_pending: false,
            degraded: false,
        }
    }

    /// The shared contention state this governor reports to.
    pub fn shared(&self) -> &Arc<ContentionState> {
        &self.shared
    }

    fn token_ticket(&self) -> usize {
        self.tid.0 + 1
    }

    fn release_token(&mut self) {
        if self.degraded {
            self.degraded = false;
            let _ = self.shared.token.compare_exchange(
                self.token_ticket(),
                0,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
        self.degrade_pending = false;
    }

    /// Decides this tick before the driver runs any rule: counts down
    /// backoff and injected stalls, fires injected kill/stall faults at
    /// the rule boundary, and runs the degrade-token protocol.
    pub fn gate<S: SeqSpec>(&mut self, h: &TxnHandle<S>) -> Gate {
        if h.is_done() {
            self.release_token();
            return Gate::Done;
        }
        if self.stall > 0 {
            self.stall -= 1;
            return Gate::Park;
        }
        if self.backoff > 0 {
            self.backoff -= 1;
            return Gate::Park;
        }
        match h.fault_at_boundary() {
            Some(BoundaryFault::Kill) => return Gate::Kill,
            Some(BoundaryFault::Stall(k)) => {
                self.stall = k;
                if self.stall > 0 {
                    self.stall -= 1;
                    return Gate::Park;
                }
            }
            None => {}
        }
        if self.degrade_pending {
            let claimed = self
                .shared
                .token
                .compare_exchange(0, self.token_ticket(), Ordering::AcqRel, Ordering::Relaxed)
                .is_ok();
            if claimed {
                self.degrade_pending = false;
                self.degraded = true;
            } else {
                return Gate::Park;
            }
        }
        if !self.degraded {
            let holder = self.shared.token.load(Ordering::Acquire);
            let has_pushed = h.local().iter().any(|e| e.flag.is_pushed());
            if holder != 0 && !has_pushed {
                // Yield to the degraded thread — but never forever: a
                // parked thread may hold a driver-level lock the
                // degraded thread needs.
                self.parked += 1;
                if self.parked <= TOKEN_PARK_PATIENCE {
                    return Gate::Park;
                }
            }
        }
        self.parked = 0;
        Gate::Run
    }

    /// Records an abort and applies the policy's recovery decision.
    /// Call from the driver's abort path, *after* the transaction has
    /// been rolled back (so pushed-uncommitted state is released before
    /// any degradation parks other threads).
    pub fn on_abort(&mut self) {
        self.streak += 1;
        self.retries += 1;
        self.blocked_streak = 0;
        {
            let mut m = self
                .shared
                .metrics
                .lock()
                .expect("contention metrics poisoned");
            m.max_consecutive_aborts = m.max_consecutive_aborts.max(u64::from(self.streak));
        }
        if self.degraded {
            // Already running solo; keep the token and retry at once.
            return;
        }
        match self.shared.cm.after_abort(self.tid, self.streak) {
            Recovery::Retry => {}
            Recovery::Backoff(ticks) => self.backoff = ticks,
            Recovery::Degrade => {
                if !self.degrade_pending {
                    self.degrade_pending = true;
                    self.shared
                        .metrics
                        .lock()
                        .expect("contention metrics poisoned")
                        .degradations += 1;
                }
            }
        }
    }

    /// Records one blocked tick and asks the policy whether to keep
    /// waiting. On [`WaitVerdict::GiveUp`] the driver must roll the
    /// transaction back through its abort path.
    pub fn on_blocked(&mut self) -> WaitVerdict {
        self.blocked_streak += 1;
        self.shared.cm.on_blocked(self.tid, self.blocked_streak)
    }

    /// Records rule progress (resets the blocked streak).
    pub fn on_progress(&mut self) {
        self.blocked_streak = 0;
    }

    /// Records a commit: samples retries-to-commit, resets the streaks
    /// and releases the degrade token.
    pub fn on_commit(&mut self) {
        {
            let mut m = self
                .shared
                .metrics
                .lock()
                .expect("contention metrics poisoned");
            m.retries_to_commit.push(self.retries);
        }
        self.streak = 0;
        self.blocked_streak = 0;
        self.retries = 0;
        self.release_token();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_retry_never_yields() {
        let cm = ImmediateRetry;
        assert_eq!(cm.after_abort(ThreadId(0), 1000), Recovery::Retry);
        assert_eq!(cm.on_blocked(ThreadId(0), 1000), WaitVerdict::Wait);
    }

    #[test]
    fn degradation_fires_at_the_budget() {
        let cm = GracefulDegradation::new();
        let b = cm.retry_budget;
        assert!(matches!(
            cm.after_abort(ThreadId(0), b - 1),
            Recovery::Backoff(_)
        ));
        assert_eq!(cm.after_abort(ThreadId(0), b), Recovery::Degrade);
    }

    #[test]
    fn governor_token_protocol_is_exclusive() {
        let state = ContentionState::new(Arc::new(GracefulDegradation::new()));
        let mut govs = state.governors(2);
        // Simulate both threads deciding to degrade.
        for g in &mut govs {
            for _ in 0..GracefulDegradation::new().retry_budget {
                g.on_abort();
            }
        }
        assert!(govs[0].degrade_pending && govs[1].degrade_pending);
        assert_eq!(state.report().degradations, 2);
        // First claimer wins the token; the second must keep pending.
        assert!(state
            .token
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok());
        assert!(state
            .token
            .compare_exchange(0, 2, Ordering::AcqRel, Ordering::Relaxed)
            .is_err());
    }

    #[test]
    fn report_percentile_and_fork() {
        let state = ContentionState::new(Arc::new(ImmediateRetry));
        let mut g = state.governors(1).remove(0);
        for retries in [0u32, 0, 1, 9] {
            for _ in 0..retries {
                g.on_abort();
            }
            g.on_commit();
        }
        let r = state.report();
        assert_eq!(r.commits_sampled, 4);
        assert_eq!(r.max_consecutive_aborts, 9);
        assert_eq!(r.p99_retries_to_commit, 9.0);
        // A fork shares the policy but none of the counters.
        assert_eq!(state.fork().report().commits_sampled, 0);
    }
}
