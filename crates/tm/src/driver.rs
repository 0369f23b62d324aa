//! The common interface of transactional-memory systems built on the
//! PUSH/PULL machine, and the one skeleton that hosts an algorithm on it.
//!
//! Each algorithm class of §6 is a *system*: a machine plus whatever
//! implementation state the algorithm keeps (abstract locks, version
//! clocks, dependency sets, …). A system makes progress in *ticks*: one
//! tick performs a bounded burst of machine rules on behalf of one
//! thread. Schedulers — random, round-robin, or the exhaustive model
//! checker in `pushpull-harness` — decide which thread ticks next, which
//! is precisely how interleavings arise in the model.
//!
//! §6 distinguishes its classes by *which PUSH/PULL rules fire when* and
//! by the metadata each keeps — nothing else. The code is cut the same
//! way: an [`Algorithm`] is shared metadata + per-thread state + one
//! [`step`](Algorithm::step), which says what the tick did as an
//! [`Outcome`], and one [`abort`](Algorithm::abort), which is the class's
//! own rollback; [`Driver`] is everything about *hosting* it that is the
//! same for all ten — building the machine, the transaction lifecycle
//! (turning each outcome into the [`Tick`], the per-thread counters and
//! the contention governor's calls, and taking every abort through one
//! site), statistics folding, cloning, the per-thread worker split and
//! what a system exposes of its machine ([`TmSystem`]). A denied rule has
//! one meaning, given there too: a criterion violation or
//! `NoAllowedResult` that `step` returns is the transaction's abort (a
//! wait-out on a thread that [never aborts](Algorithm::never_aborts)), so
//! a step hands every denial it has no other reaction to back with `?`,
//! and `tick` returns structural errors only. A system declares no rule
//! pattern: which rules fire is observed on its runs (the criteria audit
//! and the golden rule traces).
//!
//! Systems are `Clone` so the model checker can branch on scheduler
//! choices; all shared implementation state therefore lives *inside* the
//! system value (no `Arc` aliasing).

use std::sync::Arc;

use pushpull_core::error::MachineError;
use pushpull_core::machine::Machine;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};

use crate::contention::{ContentionPolicy, ContentionState, Gate, Governor, WaitVerdict};

/// The outcome of one scheduler tick on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// Applied at least one rule; more work remains.
    Progress,
    /// The thread's current transaction committed.
    Committed,
    /// The thread's current transaction aborted (and was re-begun).
    Aborted,
    /// The thread cannot make progress right now (e.g. waiting on a lock
    /// or on a dependency); schedule someone else.
    Blocked,
    /// The thread has no transactions left.
    Done,
}

/// What one [`Algorithm::step`] did. [`Driver`] alone turns it into the
/// [`Tick`], the thread's commit/abort/blocked counters and the
/// contention governor's calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Applied at least one rule; more work remains.
    Progress,
    /// The transaction committed (and the algorithm released whatever
    /// metadata it held for it).
    Committed,
    /// The transaction must be rolled back in full, through
    /// [`Algorithm::abort`].
    Abort,
    /// The algorithm already rolled back part of the transaction (the §7
    /// partial HTM rewind) and carries on from there: an abort with
    /// nothing left for [`Algorithm::abort`] to undo.
    PartialAbort,
    /// Blocked on a conflict, waiting within the contention policy's
    /// patience; once the policy gives up, the transaction is rolled back
    /// as for [`Outcome::Abort`].
    Wait,
    /// Blocked on a conflict the algorithm always waits out, without
    /// asking the policy (the pessimistic commit token, the irrevocable
    /// thread).
    WaitOut,
}

/// A transactional-memory system driving a PUSH/PULL machine.
///
/// A system *hands out its machine*: everything machine-level — the
/// fault hook, the trace switch, shard configuration, lock/group/nesting
/// counters, the handles [`commit_held`](pushpull_core::commit_held)
/// takes — is reached through [`machine`](TmSystem::machine) /
/// [`machine_mut`](TmSystem::machine_mut) rather than forwarded method by
/// method. Implementors are [`Driver`] (the ten §6/§7 algorithm classes
/// of this crate are aliases of it) and `pushpull_server::TxnServer`.
pub trait TmSystem {
    /// The sequential specification of the machine this system drives.
    type MachineSpec: SeqSpec;

    /// Ticks one thread, performing a bounded burst of machine rules.
    ///
    /// # Errors
    ///
    /// Structural errors only (a missing thread, operation or scope, a
    /// wrong flag, …). A denied rule — a criterion violation or
    /// `NoAllowedResult` — is the system's own to take back (abort, retry
    /// or block) and is reported through [`Tick`].
    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError>;

    /// Number of threads in the system.
    fn thread_count(&self) -> usize;

    /// Have all threads completed all of their transactions?
    fn is_done(&self) -> bool;

    /// Short human-readable algorithm name (for reports).
    fn name(&self) -> &'static str;

    /// Accumulated statistics: the system's own per-thread counters plus
    /// the machine-owned ones (see [`fold_machine_counters`]).
    fn stats(&self) -> SystemStats;

    /// The underlying machine (for oracles, traces, audits, counters and
    /// the `&self` configuration seams such as
    /// [`Machine::set_fault_hook`]).
    fn machine(&self) -> &Machine<Self::MachineSpec>;

    /// The underlying machine, mutably (resharding, its handles for
    /// [`commit_held`](pushpull_core::commit_held)).
    fn machine_mut(&mut self) -> &mut Machine<Self::MachineSpec>;

    /// Reshards the machine's shared log into `shards` footprint-addressed
    /// segments (see [`Machine::set_log_shards`]). Sharding changes the
    /// *cost* of the shared-rule critical sections, never their verdicts.
    fn set_log_shards(&mut self, shards: usize) {
        self.machine_mut().set_log_shards(shards);
    }
}

/// A worker closure for one model thread: each call performs one tick on
/// that thread, touching only its own [`TxnHandle`] and per-thread driver
/// state (plus, for PUSH/UNPUSH/PULL/UNPULL/CMT, the short critical
/// section inside [`GlobalState`]). Workers from one system may therefore
/// run on distinct OS threads concurrently.
///
/// [`TxnHandle`]: pushpull_core::TxnHandle
/// [`GlobalState`]: pushpull_core::GlobalState
pub type Worker<'a> = Box<dyn FnMut() -> Result<Tick, MachineError> + Send + 'a>;

/// A [`TmSystem`] whose state splits into per-thread workers that may run
/// concurrently on OS threads.
///
/// The contract is the lock discipline of the decomposed machine: a
/// worker's APP/UNAPP steps must not enter any system-wide critical
/// section — only the shared-log rules (PUSH/UNPUSH/PULL/UNPULL/CMT) and
/// whatever algorithm-specific shared metadata the driver keeps (abstract
/// locks, version clocks, …) may synchronize, each behind its own
/// short-held lock. `workers()[i]` ticks model thread `i`; calling it is
/// equivalent to `tick(ThreadId(i))` up to interleaving.
pub trait ParallelSystem: TmSystem {
    /// Splits the system into one worker per model thread.
    fn workers(&mut self) -> Vec<Worker<'_>>;
}

/// One §6/§7 algorithm class: its shared metadata (the value itself),
/// its per-thread state, and its rule pattern. [`Driver`] hosts it.
///
/// `step` and `abort` touch only the calling thread's [`TxnHandle`] and
/// its per-thread state, plus whatever `&self` metadata the algorithm
/// guards behind its own short-held locks — the lock discipline
/// [`ParallelSystem`] documents.
pub trait Algorithm {
    /// The sequential specification the algorithm runs over.
    type Spec: SeqSpec;
    /// Per-thread algorithm state (phase, read sets, dependencies, …),
    /// owned by exactly one worker.
    type Thread: Default;

    /// Short human-readable algorithm name (for reports).
    fn name(&self) -> &'static str;

    /// One tick of the algorithm's rule pattern on a thread the
    /// contention governor let run, reporting what it did.
    ///
    /// # Errors
    ///
    /// A criterion violation or `NoAllowedResult` is a denial, and
    /// [`Driver`] turns it into [`Outcome::Abort`] (or
    /// [`Outcome::WaitOut`] where [`never_aborts`](Self::never_aborts));
    /// every other error is structural and comes back from
    /// [`TmSystem::tick`] unchanged.
    fn step(
        &self,
        h: &mut TxnHandle<Self::Spec>,
        t: &mut Self::Thread,
    ) -> Result<Outcome, MachineError>;

    /// Rolls the thread's transaction back in full through the class's
    /// own rollback: the back rules and re-begin
    /// ([`TxnHandle::abort_and_retry`]), the release of its metadata and
    /// the reset of its per-thread state. [`Driver`] calls it for an
    /// [`Outcome::Abort`], a policy give-up and an injected kill alike,
    /// then counts the abort.
    ///
    /// # Errors
    ///
    /// As [`TmSystem::tick`].
    fn abort(
        &self,
        h: &mut TxnHandle<Self::Spec>,
        t: &mut Self::Thread,
    ) -> Result<(), MachineError>;

    /// Called when the governor finds the thread out of transactions
    /// (the pessimistic driver drops a commit token it may still hold).
    fn on_done(&self, _h: &TxnHandle<Self::Spec>) {}

    /// Does this thread never roll back? An injected kill on such a
    /// thread degenerates to a stall of one tick (§6.4's irrevocable
    /// transaction).
    fn never_aborts(&self, _tid: ThreadId) -> bool {
        false
    }
}

/// One model thread's driver-side slot: the counters the skeleton keeps
/// for every algorithm plus the algorithm's own per-thread state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot<T> {
    /// Commits, aborts and blocked ticks of this thread.
    stats: SystemStats,
    /// The algorithm's per-thread state.
    local: T,
}

/// The begin/running phase most optimistic-style algorithms keep per
/// thread: a transaction first takes its snapshot, then runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Needs its begin-time snapshot.
    #[default]
    Begin,
    /// Applying operations.
    Running,
}

/// The skeleton hosting an [`Algorithm`] on a [`Machine`]: the one
/// implementor of [`TmSystem`] and [`ParallelSystem`] in this crate. The
/// ten public system names (`OptimisticSystem`, `BoostingSystem`, …) are
/// aliases of `Driver<…>`, each adding its own `new`; all run
/// [`ContentionPolicy::DEFAULT`] unless [`Driver::with_policy`] says
/// otherwise.
#[derive(Debug)]
pub struct Driver<A: Algorithm> {
    machine: Machine<A::Spec>,
    alg: A,
    threads: Vec<Slot<A::Thread>>,
    contention: Arc<ContentionState>,
    governors: Vec<Governor>,
}

impl<A: Algorithm> Driver<A> {
    /// Hosts `alg` on a fresh machine over `spec`, running `programs[i]`
    /// on thread `i` under the default contention policy.
    pub(crate) fn host(
        alg: A,
        spec: A::Spec,
        programs: Vec<Vec<Code<<A::Spec as SeqSpec>::Method>>>,
    ) -> Self {
        let mut machine = Machine::new(spec);
        let n = programs.len();
        for p in programs {
            machine.add_thread(p);
        }
        let contention = ContentionState::new(ContentionPolicy::DEFAULT);
        let governors = contention.governors(n);
        Self {
            machine,
            alg,
            threads: std::iter::repeat_with(Slot::default).take(n).collect(),
            contention,
            governors,
        }
    }

    /// The same system running `policy`, with a free token and fresh
    /// governors. Call it before the first tick.
    pub fn with_policy(mut self, policy: ContentionPolicy) -> Self {
        self.contention = ContentionState::new(policy);
        self.governors = self.contention.governors(self.threads.len());
        self
    }

    /// The underlying machine (for oracles, traces, invariant checks).
    pub fn machine(&self) -> &Machine<A::Spec> {
        &self.machine
    }

    /// Accumulated statistics: per-thread counters and the governors'
    /// contention counters merged, the machine-owned counters folded in.
    pub fn stats(&self) -> SystemStats {
        let governors = self.governors.iter().map(Governor::stats);
        let mut stats: SystemStats = self.threads.iter().map(|t| t.stats).chain(governors).sum();
        fold_machine_counters(&self.machine, &mut stats);
        stats
    }

    /// One thread's algorithm state, mutably.
    pub(crate) fn local_mut(&mut self, tid: ThreadId) -> &mut A::Thread {
        &mut self.threads[tid.0].local
    }

    /// The algorithm's per-thread states, in thread order.
    pub(crate) fn locals(&self) -> impl Iterator<Item = &A::Thread> {
        self.threads.iter().map(|t| &t.local)
    }
}

impl<A> Clone for Driver<A>
where
    A: Algorithm + Clone,
    A::Thread: Clone,
    Machine<A::Spec>: Clone,
{
    /// Deep copy sharing nothing with the original: the clone runs the
    /// same policy with a free token and fresh governors.
    fn clone(&self) -> Self {
        let contention = ContentionState::new(self.contention.policy());
        let governors = contention.governors(self.threads.len());
        Self {
            machine: self.machine.clone(),
            alg: self.alg.clone(),
            threads: self.threads.clone(),
            contention,
            governors,
        }
    }
}

/// One tick of one thread: the governor's gate, then the algorithm's
/// step, then the transaction lifecycle — the single function behind
/// both [`TmSystem::tick`] and [`ParallelSystem::workers`], and the one
/// place that interprets a denied rule, counts commits, aborts and
/// blocked ticks, tells the governor, and rolls a transaction back.
fn tick_thread<A: Algorithm>(
    alg: &A,
    h: &mut TxnHandle<A::Spec>,
    t: &mut Slot<A::Thread>,
    gov: &mut Governor,
) -> Result<Tick, MachineError> {
    // A kill or a denied rule rolls the transaction back, unless the
    // thread never rolls back: then it is waited out.
    let refused = if alg.never_aborts(h.tid()) {
        Outcome::WaitOut
    } else {
        Outcome::Abort
    };
    let outcome = match gov.gate(h) {
        Gate::Done => {
            alg.on_done(h);
            return Ok(Tick::Done);
        }
        Gate::Park => Outcome::WaitOut,
        Gate::Kill => refused,
        Gate::Run => match alg.step(h, &mut t.local) {
            Ok(outcome) => outcome,
            Err(MachineError::Criterion(_) | MachineError::NoAllowedResult(_)) => refused,
            Err(e) => return Err(e),
        },
    };
    let roll_back = match outcome {
        Outcome::Progress => {
            gov.on_progress();
            return Ok(Tick::Progress);
        }
        Outcome::Committed => {
            t.stats.commits += 1;
            gov.on_commit();
            return Ok(Tick::Committed);
        }
        Outcome::WaitOut => {
            t.stats.blocked_ticks += 1;
            return Ok(Tick::Blocked);
        }
        Outcome::Wait => {
            t.stats.blocked_ticks += 1;
            if gov.on_blocked() == WaitVerdict::Wait {
                return Ok(Tick::Blocked);
            }
            true
        }
        Outcome::Abort => true,
        Outcome::PartialAbort => false,
    };
    if roll_back {
        alg.abort(h, &mut t.local)?;
    }
    // Counted after the rollback, so pushed-uncommitted state is released
    // before any degradation the governor decides parks other threads.
    t.stats.aborts += 1;
    gov.on_abort();
    Ok(Tick::Aborted)
}

impl<A: Algorithm> TmSystem for Driver<A> {
    type MachineSpec = A::Spec;

    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError> {
        tick_thread(
            &self.alg,
            self.machine.handle_mut(tid)?,
            &mut self.threads[tid.0],
            &mut self.governors[tid.0],
        )
    }

    fn thread_count(&self) -> usize {
        self.machine.thread_count()
    }

    fn is_done(&self) -> bool {
        (0..self.machine.thread_count()).all(|t| {
            self.machine
                .thread(ThreadId(t))
                .map(|t| t.is_done())
                .unwrap_or(true)
        })
    }

    fn name(&self) -> &'static str {
        self.alg.name()
    }

    fn stats(&self) -> SystemStats {
        Driver::stats(self)
    }

    fn machine(&self) -> &Machine<A::Spec> {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine<A::Spec> {
        &mut self.machine
    }
}

impl<A> ParallelSystem for Driver<A>
where
    A: Algorithm + Sync,
    A::Thread: Send,
    TxnHandle<A::Spec>: Send,
{
    fn workers(&mut self) -> Vec<Worker<'_>> {
        let alg = &self.alg;
        self.machine
            .handles_mut()
            .iter_mut()
            .zip(self.threads.iter_mut())
            .zip(self.governors.iter_mut())
            .map(|((h, t), gov)| Box::new(move || tick_thread(alg, h, t, gov)) as Worker<'_>)
            .collect()
    }
}

/// Statistics every system accumulates, for the example tables, the
/// sweeps and the ledger's per-layer metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Blocked ticks (lock or dependency waits).
    pub blocked_ticks: u64,
    /// Transactions escalated to degraded (solo/irrevocable-style)
    /// execution by the contention policy.
    pub degradations: u64,
    /// The longest run of consecutive aborts any single thread suffered
    /// (merged by `max`, not summed).
    pub max_abort_streak: u64,
    /// Shard-lock acquisitions in the machine's shared log.
    pub lock_acquires: u64,
    /// Shard-lock acquisitions that found the lock already held and had
    /// to block (a direct read on log contention).
    pub lock_contended: u64,
    /// Always zero, like the four fields after it: what they counted no
    /// longer exists, and they stay only because `ledger/` reads them.
    pub snap_reads: u64,
    /// Always zero (see [`Self::snap_reads`]).
    pub snap_retries: u64,
    /// Always zero (see [`Self::snap_reads`]).
    pub snap_fallbacks: u64,
    /// Always zero (see [`Self::snap_reads`]).
    pub arena_capacity: u64,
    /// Always zero (see [`Self::snap_reads`]).
    pub arena_reused: u64,
    /// Logical sessions the service front-end multiplexed (zero outside
    /// `pushpull-server` runs).
    pub sessions: u64,
    /// Commit-ready transactions the service front-end's held commit
    /// refused and committed on the per-transaction path instead: a
    /// coarse route or coarse mode, a live nested scope, a registered
    /// compensation, or nothing to commit. (A multi-shard transaction
    /// commits in a held section too.)
    pub group_fallbacks: u64,
    /// Nested scopes entered (peeled `tx`/`otx` redexes, explicit scopes,
    /// checkpoint markers).
    pub scopes_opened: u64,
    /// Closed scopes merged into their parent on commit.
    pub scopes_merged: u64,
    /// Scopes aborted via partial rewind (the parent survived).
    pub scopes_aborted: u64,
    /// Open-nested children committed straight to the shared log.
    pub open_commits: u64,
    /// Compensating transactions replayed by aborting parents.
    pub compensations_replayed: u64,
    /// Inverse operations derived by the spec's undo oracle (boosting
    /// undo-log accounting plus open-nesting compensation planning).
    pub undo_inverses: u64,
}

/// Folds the machine-owned shared counters — shard locks, nested
/// scopes — into `stats`:
/// the common tail of [`Driver::stats`] and the service front-end's
/// `stats()`, so a new machine counter lands in every system at once.
pub fn fold_machine_counters<S: SeqSpec>(machine: &Machine<S>, stats: &mut SystemStats) {
    let (acquires, contended) = machine.lock_stats();
    stats.lock_acquires = acquires;
    stats.lock_contended = contended;
    let n = machine.nesting_stats();
    stats.scopes_opened = n.scopes_opened;
    stats.scopes_merged = n.scopes_merged;
    stats.scopes_aborted = n.scopes_aborted;
    stats.open_commits = n.open_commits;
    stats.compensations_replayed = n.compensations_replayed;
    stats.undo_inverses = n.undo_inverses;
}

impl SystemStats {
    /// Abort rate: aborts / (commits + aborts), or 0 when idle.
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

impl std::ops::Add for SystemStats {
    type Output = SystemStats;

    fn add(self, rhs: SystemStats) -> SystemStats {
        SystemStats {
            commits: self.commits + rhs.commits,
            aborts: self.aborts + rhs.aborts,
            blocked_ticks: self.blocked_ticks + rhs.blocked_ticks,
            degradations: self.degradations + rhs.degradations,
            max_abort_streak: self.max_abort_streak.max(rhs.max_abort_streak),
            lock_acquires: self.lock_acquires + rhs.lock_acquires,
            lock_contended: self.lock_contended + rhs.lock_contended,
            snap_reads: self.snap_reads + rhs.snap_reads,
            snap_retries: self.snap_retries + rhs.snap_retries,
            snap_fallbacks: self.snap_fallbacks + rhs.snap_fallbacks,
            arena_capacity: self.arena_capacity + rhs.arena_capacity,
            arena_reused: self.arena_reused + rhs.arena_reused,
            sessions: self.sessions + rhs.sessions,
            group_fallbacks: self.group_fallbacks + rhs.group_fallbacks,
            scopes_opened: self.scopes_opened + rhs.scopes_opened,
            scopes_merged: self.scopes_merged + rhs.scopes_merged,
            scopes_aborted: self.scopes_aborted + rhs.scopes_aborted,
            open_commits: self.open_commits + rhs.open_commits,
            compensations_replayed: self.compensations_replayed + rhs.compensations_replayed,
            undo_inverses: self.undo_inverses + rhs.undo_inverses,
        }
    }
}

impl std::iter::Sum for SystemStats {
    fn sum<I: Iterator<Item = SystemStats>>(iter: I) -> SystemStats {
        iter.fold(SystemStats::default(), std::ops::Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::error::{Clause, CriterionViolation, Rule};
    use pushpull_core::toy::{CounterMethod, ToyCounter};

    type Handle = TxnHandle<ToyCounter>;

    /// An algorithm whose every step fails with `error`; its per-thread
    /// state counts the rollbacks the skeleton runs.
    #[derive(Debug)]
    struct Failing {
        error: MachineError,
        never_aborts: bool,
    }

    impl Algorithm for Failing {
        type Spec = ToyCounter;
        type Thread = u32;

        fn name(&self) -> &'static str {
            "failing"
        }

        fn step(&self, _: &mut Handle, _: &mut u32) -> Result<Outcome, MachineError> {
            Err(self.error.clone())
        }

        fn abort(&self, _: &mut Handle, rollbacks: &mut u32) -> Result<(), MachineError> {
            *rollbacks += 1;
            Ok(())
        }

        fn never_aborts(&self, _: ThreadId) -> bool {
            self.never_aborts
        }
    }

    /// A denial from `step` is the skeleton's abort — one rollback,
    /// counted, and told to the governor — or a blocked tick on a thread
    /// that never aborts; any other error comes back from `tick` as is.
    #[test]
    fn tick_alone_interprets_a_denial() {
        let t = ThreadId(0);
        let (rule, clause, detail) = (Rule::Push, Clause::Ii, String::new());
        let criterion = MachineError::Criterion(CriterionViolation {
            rule,
            clause,
            detail,
        });
        let (no_result, structural) = (
            MachineError::NoAllowedResult(t),
            MachineError::NoSuchStep(t),
        );
        let cases = [
            (criterion.clone(), false, Ok(Tick::Aborted)),
            (no_result.clone(), false, Ok(Tick::Aborted)),
            (criterion, true, Ok(Tick::Blocked)),
            (no_result, true, Ok(Tick::Blocked)),
            (structural.clone(), false, Err(structural.clone())),
            (structural.clone(), true, Err(structural)),
        ];
        for (error, never_aborts, expected) in cases {
            let alg = Failing {
                error,
                never_aborts,
            };
            let program = vec![Code::method(CounterMethod::Inc)];
            let mut sys = Driver::host(alg, ToyCounter::with_bound(4), vec![program]);
            let tick = sys.tick(t);
            assert_eq!(tick, expected, "never aborts: {never_aborts}");
            let (aborted, blocked) = (tick == Ok(Tick::Aborted), tick == Ok(Tick::Blocked));
            assert_eq!(sys.locals().next(), Some(&u32::from(aborted)), "rollbacks");
            let stats = sys.stats();
            assert_eq!(stats.aborts, u64::from(aborted));
            assert_eq!(stats.max_abort_streak, u64::from(aborted), "the governor's");
            assert_eq!(stats.blocked_ticks, u64::from(blocked));
        }
    }
}
