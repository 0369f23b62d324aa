//! Contention management: *when to retry, how long to wait, and when to
//! stop being polite*.
//!
//! The §6/§7 algorithm classes differ in which rules they take after a
//! criterion fails, but every driver also needs a *liveness* policy —
//! how long to wait on a blocked rule before aborting, and how soon to
//! retry an aborted transaction. That policy lies outside the model, so
//! it is one value, [`ContentionPolicy`], shared by all ten drivers:
//!
//! * [`ContentionPolicy::DEFAULT`] — bounded backoff below a retry
//!   budget, then *degrade* — escalate the starving transaction to solo
//!   (irrevocable-style) execution behind a global degrade token,
//!   generalizing both the §7 HTM→boosting fallback and a per-driver
//!   blocked-streak threshold.
//! * [`ContentionPolicy::IMMEDIATE_RETRY`] — the naive baseline: retry
//!   at once, wait forever. It reproduces the checkpoint commit
//!   livelock, so the regression tests can show the default resolves it.
//!
//! Only the skeleton talks to the policy, through a per-thread `Governor`:
//! [`Driver`](crate::driver::Driver) turns each tick's
//! [`Outcome`](crate::driver::Outcome) into the governor's calls, so no
//! algorithm sees it. The governor also owns the degradation token
//! protocol, the injected kill/stall faults of the
//! [`FaultHook`](pushpull_core::FaultHook) layer, and the thread's own
//! degradation and abort-streak counters, which
//! [`Driver::stats`](crate::driver::Driver::stats) folds in.
//!
//! ## Degradation protocol
//!
//! When a thread's abort streak reaches the retry budget, its governor
//! (whose skeleton has just rolled the transaction back, releasing every
//! pushed-uncommitted operation) competes for a single shared token.
//! While a degraded thread holds the token, every other thread whose
//! transaction holds no pushed-uncommitted operations *parks*; threads
//! that do hold pushed state keep running until their own policy makes
//! them give up and roll back (a give-up is guaranteed
//! eventually under a bounded patience), after which they park too.
//! The degraded thread therefore converges to running alone and commits.
//! Parking is bounded by a safety valve ([`TOKEN_PARK_PATIENCE`]): a
//! parked thread that holds a driver-level resource (an abstract lock,
//! say) the degraded thread needs would otherwise deadlock the protocol.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pushpull_core::faults::BoundaryFault;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::TxnHandle;

use crate::driver::SystemStats;

/// Whether a blocked thread should keep waiting or roll back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitVerdict {
    /// Stay blocked; retry the rule next tick.
    Wait,
    /// Stop waiting: abort the transaction and retry.
    GiveUp,
}

/// The contention policy every thread of a system runs: how many
/// consecutive aborts to tolerate before degrading, and how many blocked
/// ticks before giving up. Deterministic by construction — it reads tick
/// and abort counts, never wall clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionPolicy {
    /// Consecutive aborts tolerated before degrading; below it a thread
    /// backs off `min(streak, 4)` ticks. `None`: retry at once, never
    /// degrade.
    pub retry_budget: Option<u32>,
    /// Blocked ticks tolerated before giving up. `None`: wait forever.
    pub patience: Option<u32>,
}

impl ContentionPolicy {
    /// The policy every driver runs unless told otherwise: bounded
    /// backoff below a retry budget of 8, then escalate the starving
    /// transaction to degraded (solo) execution — the §7 "fall back from
    /// HTM to something that cannot lose" move, generalized to every
    /// driver — and give up on a wait after 24 blocked ticks.
    pub const DEFAULT: Self = Self {
        retry_budget: Some(8),
        patience: Some(24),
    };

    /// Retry immediately, wait forever: the policy every naive driver
    /// implicitly had, kept as the adversarial baseline. Under symmetric
    /// conflicts it livelocks (see the checkpoint regression test); the
    /// harness watchdog is what catches it.
    pub const IMMEDIATE_RETRY: Self = Self {
        retry_budget: None,
        patience: None,
    };
}

/// Ticks a thread parked by the degrade token waits before proceeding
/// anyway — the safety valve that keeps a parked lock-holder from
/// deadlocking the degraded thread.
pub const TOKEN_PARK_PATIENCE: u32 = 64;

/// The per-system half of contention management: the policy and the
/// degrade token, shared by every thread's [`Governor`] through an `Arc`.
#[derive(Debug)]
pub(crate) struct ContentionState {
    policy: ContentionPolicy,
    /// Degrade token: 0 when free, `tid + 1` when held.
    token: AtomicUsize,
}

impl ContentionState {
    /// Fresh shared state running `policy`, with a free token.
    pub(crate) fn new(policy: ContentionPolicy) -> Arc<Self> {
        Arc::new(Self {
            policy,
            token: AtomicUsize::new(0),
        })
    }

    /// The policy this state runs.
    pub(crate) fn policy(&self) -> ContentionPolicy {
        self.policy
    }

    /// One governor per model thread.
    pub(crate) fn governors(self: &Arc<Self>, n: usize) -> Vec<Governor> {
        (0..n).map(|t| Governor::new(self, ThreadId(t))).collect()
    }
}

/// What the governor decides a thread should do this tick, before the
/// algorithm runs any rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// The thread has no transactions left.
    Done,
    /// Park this tick (backoff, injected stall, or yielding to a
    /// degraded thread); report `Tick::Blocked`.
    Park,
    /// An injected fault killed the transaction: the skeleton rolls it
    /// back through the algorithm's abort path.
    Kill,
    /// Run the tick normally.
    Run,
}

/// The per-thread half of contention management. The skeleton's tick
/// calls [`Governor::gate`] before the algorithm's step and one of
/// [`Governor::on_progress`], [`Governor::on_commit`],
/// [`Governor::on_blocked`] or [`Governor::on_abort`] after it.
#[derive(Debug)]
pub(crate) struct Governor {
    shared: Arc<ContentionState>,
    tid: ThreadId,
    /// Consecutive aborts (reset on commit).
    streak: u32,
    /// Consecutive blocked ticks (reset on progress/abort/commit).
    blocked_streak: u32,
    /// The longest abort streak this thread suffered.
    max_streak: u32,
    /// Times this thread decided to degrade.
    degradations: u64,
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
            max_streak: 0,
            degradations: 0,
            backoff: 0,
            stall: 0,
            parked: 0,
            degrade_pending: false,
            degraded: false,
        }
    }

    /// This thread's contention counters: its degradations and its
    /// longest abort streak, the rest zero. [`SystemStats`]' `Add` sums
    /// the first and merges the second by `max`.
    pub(crate) fn stats(&self) -> SystemStats {
        SystemStats {
            degradations: self.degradations,
            max_abort_streak: u64::from(self.max_streak),
            ..SystemStats::default()
        }
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

    /// Decides this tick before the algorithm runs any rule: counts down
    /// backoff and injected stalls, fires injected kill/stall faults at
    /// the rule boundary, and runs the degrade-token protocol.
    pub(crate) fn gate<S: SeqSpec>(&mut self, h: &TxnHandle<S>) -> Gate {
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

    /// Records an abort and applies the policy: back off below the retry
    /// budget, degrade at it. The skeleton calls it once per abort, full
    /// or partial, *after* the transaction has been rolled back (so
    /// pushed-uncommitted state is released before any degradation parks
    /// other threads).
    pub(crate) fn on_abort(&mut self) {
        self.streak += 1;
        self.max_streak = self.max_streak.max(self.streak);
        self.blocked_streak = 0;
        if self.degraded {
            // Already running solo; keep the token and retry at once.
            return;
        }
        match self.shared.policy.retry_budget {
            Some(budget) if self.streak < budget => self.backoff = u64::from(self.streak.min(4)),
            Some(_) if !self.degrade_pending => {
                self.degrade_pending = true;
                self.degradations += 1;
            }
            _ => {}
        }
    }

    /// Records one blocked tick and asks the policy whether to keep
    /// waiting. On [`WaitVerdict::GiveUp`] the skeleton rolls the
    /// transaction back through the algorithm's abort path.
    pub(crate) fn on_blocked(&mut self) -> WaitVerdict {
        self.blocked_streak += 1;
        match self.shared.policy.patience {
            Some(p) if self.blocked_streak >= p => WaitVerdict::GiveUp,
            _ => WaitVerdict::Wait,
        }
    }

    /// Records rule progress (resets the blocked streak).
    pub(crate) fn on_progress(&mut self) {
        self.blocked_streak = 0;
    }

    /// Records a commit: resets the streaks and releases the degrade
    /// token.
    pub(crate) fn on_commit(&mut self) {
        self.streak = 0;
        self.blocked_streak = 0;
        self.release_token();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_retry_never_yields() {
        let state = ContentionState::new(ContentionPolicy::IMMEDIATE_RETRY);
        let mut g = state.governors(1).remove(0);
        for _ in 0..1000 {
            g.on_abort();
            assert_eq!(g.on_blocked(), WaitVerdict::Wait);
        }
        assert_eq!((g.backoff, g.degrade_pending), (0, false));
        assert_eq!(g.stats().max_abort_streak, 1000);
    }

    #[test]
    fn degradation_fires_at_the_budget() {
        let state = ContentionState::new(ContentionPolicy::DEFAULT);
        let mut g = state.governors(1).remove(0);
        let budget = ContentionPolicy::DEFAULT.retry_budget.unwrap();
        for _ in 1..budget {
            g.on_abort();
            assert!(g.backoff > 0 && !g.degrade_pending);
        }
        g.on_abort();
        assert!(g.degrade_pending);
        assert_eq!(g.stats().degradations, 1);
    }

    #[test]
    fn governor_token_protocol_is_exclusive() {
        let state = ContentionState::new(ContentionPolicy::DEFAULT);
        let mut govs = state.governors(2);
        // Simulate both threads deciding to degrade.
        for g in &mut govs {
            for _ in 0..ContentionPolicy::DEFAULT.retry_budget.unwrap() {
                g.on_abort();
            }
        }
        assert!(govs[0].degrade_pending && govs[1].degrade_pending);
        let total: SystemStats = govs.iter().map(Governor::stats).sum();
        assert_eq!(total.degradations, 2);
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
}
