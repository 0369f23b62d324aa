//! The transaction server: session multiplexing onto a bounded worker
//! pool, with per-shard group commit.
//!
//! # Architecture
//!
//! [`TxnServer`] owns one [`Machine`] with `workers × slots_per_worker`
//! machine threads. Worker `w` exclusively owns the handle slots
//! `[w·K, (w+1)·K)` **and** its own pre-dealt session queue (see
//! [`assign_sessions`]), so a tick of
//! one worker never touches another worker's state — the sequential
//! [`TmSystem::tick`] drive and the OS-thread [`ParallelSystem`] drive
//! run the very same per-worker function.
//!
//! One worker tick performs, in order:
//!
//! 1. **arrival** — in open-loop mode (`arrival_period > 0`), sessions
//!    become runnable on the worker's tick clock regardless of capacity,
//!    so queueing delay shows up in measured latency;
//! 2. **admission** — free slots bind the next runnable sessions and
//!    enqueue their transaction bodies (`Begin`);
//! 3. **apply** — each busy slot APPlies its remaining operations
//!    (`Op`), failing the session cleanly if the spec refuses a result
//!    (e.g. a bank overdraft: retrying could never succeed);
//! 4. **commit** — commit-ready slots are scheduled in destination-shard
//!    order and each eligible transaction commits as *one uninterleaved
//!    held section* over its own shards (its PUSHes and its CMT under one
//!    acquisition of each, see [`pushpull_core::group`]): through
//!    [`commit_group`] — one section and one contiguous stamp range per
//!    shard batch, then one section per multi-shard transaction — or,
//!    with batching off, through [`commit_held`] one transaction at a
//!    time. Either way no thread ever observes a session's uncommitted
//!    operation, so a preempted committer makes its peers wait on a mutex
//!    instead of spending their retry budget, and a denied attempt is
//!    aborted and restarted inside its section in both modes. The
//!    scheduling order is computed identically with batching on or off,
//!    which is why the two modes produce bit-identical traces — and the
//!    same transaction ids.
//!
//! Conflict-denied transactions are retried with a refreshed committed
//! view, up to `max_retries`; a session that spends the budget fails
//! with its last denial instead of wedging the server. The refresh
//! ([`pull_committed_lenient`]) pulls what the session's script can touch
//! — the committed operations on the keys its methods declare — under the
//! locks of those keys' shards only, so a retrying session holds no lock
//! its peers' disjoint sessions need. A session is admitted with *no*
//! refresh: one at admission was measured and lost (EXPERIMENTS.md
//! "Ablation verdicts" — next to nothing where sessions share keys, a
//! lock and a scan per session where they do not).
//!
//! # What the commit counters count
//!
//! * [`SessionOutcome::Committed`]`::batched` — the commit went through
//!   [`commit_group`] (batching on), whatever the size of its batch.
//! * [`GroupStats`](pushpull_core::GroupStats) (`group_batches`,
//!   `group_txns`, … in [`SystemStats`]) — the held sections
//!   [`commit_group`] sealed with at least one commit and the
//!   transactions in them; a multi-shard transaction's section is a batch
//!   of one. All zero with batching off: [`commit_held`] tallies nothing.
//! * `group_fallbacks` — with batching on, transactions [`commit_group`]
//!   reported `Ineligible` and the server committed on the unheld
//!   per-transaction path instead: coarse-routed, nested or compensating
//!   ones, whose commit takes shard locks of its own.

use std::collections::VecDeque;
use std::sync::Arc;

use pushpull_core::error::MachineError;
use pushpull_core::machine::Machine;
use pushpull_core::op::{ThreadId, TxnId};
use pushpull_core::spec::SeqSpec;
use pushpull_core::{commit_group, commit_held, GroupTxnResult, TxnHandle};
use pushpull_tm::driver::{
    fold_machine_counters, ParallelSystem, SystemStats, Tick, TmSystem, Worker,
};
use pushpull_tm::util::pull_committed_lenient;

use crate::session::{assign_sessions, SessionEnd, SessionId, SessionScript};

/// Server shape and policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker count (the bounded pool; one model thread per worker in
    /// the [`TmSystem`] sense).
    pub workers: usize,
    /// Handle slots each worker owns — the worker's concurrent-session
    /// capacity.
    pub slots_per_worker: usize,
    /// Batch commit-ready slots per destination shard through
    /// [`commit_group`] (`false` commits each through a held section of
    /// its own, [`commit_held`]).
    pub group_commit: bool,
    /// Conflict-induced retries a session may spend before it fails.
    pub max_retries: u64,
    /// `0`: closed loop — a session becomes runnable when a slot frees.
    /// `k > 0`: open loop — one session becomes runnable every `k` ticks
    /// of its worker's clock, regardless of capacity.
    pub arrival_period: u64,
    /// Seed for the admission assignment (see
    /// [`assign_sessions`]).
    pub seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            slots_per_worker: 8,
            group_commit: true,
            max_retries: 32,
            arrival_period: 0,
            seed: 0x5E55_10AD,
        }
    }
}

/// How one session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The session's transaction committed.
    Committed {
        /// The committed machine transaction.
        txn: TxnId,
        /// Through [`commit_group`] (vs one transaction at a time)?
        batched: bool,
        /// Conflict retries spent before success.
        retries: u64,
        /// Worker ticks from the session becoming runnable to the
        /// commit, inclusive.
        latency: u64,
    },
    /// The client closed with `Abort`; the work was rewound and dropped.
    Aborted {
        /// The aborted machine transaction.
        txn: TxnId,
    },
    /// The session failed: spec refusal or retry budget exhausted.
    Failed {
        /// The terminal error.
        error: MachineError,
    },
}

impl SessionOutcome {
    /// Did the session commit?
    pub fn is_committed(&self) -> bool {
        matches!(self, SessionOutcome::Committed { .. })
    }
}

/// One worker slot.
#[derive(Debug)]
enum Slot {
    /// Free: can admit a session.
    Idle,
    /// Permanently lost: the handle wedged mid-rewind (`abandon()`
    /// returned an error) and cannot host another session.
    Dead,
    /// Hosting a session.
    Busy(Active),
}

/// A session bound to a slot.
#[derive(Debug)]
struct Active {
    /// Index into the server's script table.
    session: usize,
    /// Operations applied so far in the current attempt.
    applied: usize,
    /// Conflict retries spent.
    retries: u64,
    /// Worker-clock tick at which the session became runnable.
    admitted_at: u64,
}

/// Per-worker state: the pre-dealt session queue, slot table, clock and
/// counters. Deliberately not generic — it holds no methods — so the
/// outcome type stays spec-independent.
#[derive(Debug)]
struct WorkerState {
    /// Sessions dealt to this worker, not yet runnable.
    upcoming: VecDeque<usize>,
    /// Runnable sessions awaiting a slot (open-loop mode only).
    arrived: VecDeque<(usize, u64)>,
    /// Total sessions moved to `arrived` (open-loop due accounting).
    arrived_count: usize,
    slots: Vec<Slot>,
    /// This worker's tick clock.
    now: u64,
    /// The error that killed the last slot, used to fail drained
    /// sessions once every slot is dead.
    dead_error: Option<MachineError>,
    stats: SystemStats,
    outcomes: Vec<(SessionId, SessionOutcome)>,
}

impl WorkerState {
    fn new(queue: Vec<usize>, slots: usize) -> Self {
        Self {
            upcoming: queue.into(),
            arrived: VecDeque::new(),
            arrived_count: 0,
            slots: (0..slots).map(|_| Slot::Idle).collect(),
            now: 0,
            dead_error: None,
            stats: SystemStats::default(),
            outcomes: Vec::new(),
        }
    }

    fn is_done(&self) -> bool {
        self.upcoming.is_empty()
            && self.arrived.is_empty()
            && self
                .slots
                .iter()
                .all(|s| matches!(s, Slot::Idle | Slot::Dead))
    }

    /// Records a finished session.
    fn finish(&mut self, session: usize, outcome: SessionOutcome) {
        self.stats.sessions += 1;
        self.outcomes.push((SessionId(session as u64), outcome));
    }
}

/// Commits the session in slot `k` and frees the slot.
fn finish_commit(w: &mut WorkerState, k: usize, txn: TxnId, batched: bool) {
    let Slot::Busy(a) = std::mem::replace(&mut w.slots[k], Slot::Idle) else {
        unreachable!("commit on a non-busy slot");
    };
    let latency = w.now - a.admitted_at + 1;
    w.stats.commits += 1;
    w.finish(
        a.session,
        SessionOutcome::Committed {
            txn,
            batched,
            retries: a.retries,
            latency,
        },
    );
}

/// Fails the session in slot `k` terminally: abandon the transaction if
/// the handle still can, else mark the slot dead.
fn fail_session<S: SeqSpec>(
    w: &mut WorkerState,
    k: usize,
    h: &mut TxnHandle<S>,
    error: MachineError,
) {
    let Slot::Busy(a) = std::mem::replace(&mut w.slots[k], Slot::Idle) else {
        unreachable!("failure on a non-busy slot");
    };
    w.stats.aborts += 1;
    if let Err(wedge) = h.abandon() {
        // The rewind itself failed: the handle is left mid-rewind and
        // can never host a session again.
        w.slots[k] = Slot::Dead;
        w.dead_error = Some(wedge);
    }
    w.finish(a.session, SessionOutcome::Failed { error });
}

/// Handles a conflict denial on slot `k`: abort-and-retry, or fail the
/// session once the retry budget is spent. `restarted` says the abort
/// already happened (the group path aborts in-view before reporting).
///
/// The surviving slot is queued on `needs_pull` instead of pulling the
/// committed view here: the refresh must wait until the *whole* commit
/// stage has run, so a denied transaction observes the same committed
/// prefix whether its peers committed through one batch (all sealed
/// before `commit_group` returned) or one at a time after its turn.
/// Pulling eagerly is exactly the batched-vs-single divergence the
/// equivalence suite would catch.
fn conflict_retry<S: SeqSpec>(
    w: &mut WorkerState,
    k: usize,
    h: &mut TxnHandle<S>,
    denied: MachineError,
    restarted: bool,
    needs_pull: &mut Vec<usize>,
    cfg: &ServerConfig,
) -> Result<(), MachineError> {
    w.stats.aborts += 1;
    let over_budget = match &mut w.slots[k] {
        Slot::Busy(a) => {
            a.retries += 1;
            a.retries > cfg.max_retries
        }
        _ => unreachable!("conflict on a non-busy slot"),
    };
    if over_budget {
        // `fail_session` counts its own abort; ours covered this denial.
        w.stats.aborts -= 1;
        fail_session(w, k, h, denied);
        return Ok(());
    }
    if !restarted {
        if let Err(wedge) = h.abort_and_retry() {
            w.stats.aborts -= 1;
            fail_session(w, k, h, wedge);
            return Ok(());
        }
    }
    if let Slot::Busy(a) = &mut w.slots[k] {
        a.applied = 0;
    }
    needs_pull.push(k);
    Ok(())
}

/// Commits slot `k` on the unheld per-transaction path: the transaction
/// was reported ineligible for a held section (coarse-routed, nested or
/// compensating — its commit takes shard locks of its own).
fn commit_unheld<S: SeqSpec>(
    w: &mut WorkerState,
    k: usize,
    h: &mut TxnHandle<S>,
    needs_pull: &mut Vec<usize>,
    cfg: &ServerConfig,
) -> Result<(), MachineError> {
    match h.push_all_and_commit() {
        Ok(txn) => {
            finish_commit(w, k, txn, false);
            Ok(())
        }
        Err(e) if e.is_criterion() => conflict_retry(w, k, h, e, false, needs_pull, cfg),
        Err(e) => Err(e),
    }
}

/// One tick of one worker — the single drive function shared by the
/// sequential [`TmSystem::tick`] and the OS-thread
/// [`ParallelSystem::workers`] paths.
fn tick_worker<S: SeqSpec>(
    handles: &mut [TxnHandle<S>],
    w: &mut WorkerState,
    scripts: &[SessionScript<S::Method>],
    cfg: &ServerConfig,
) -> Result<Tick, MachineError> {
    w.now += 1;
    let now = w.now;
    let commits_before = w.stats.commits;
    let aborts_before = w.stats.aborts;
    let mut progressed = false;

    // 1. Arrival (open loop): sessions become runnable on the clock.
    // `checked_div` is None exactly in the closed-loop case (period 0).
    if let Some(q) = now.checked_div(cfg.arrival_period) {
        let due = q as usize + 1;
        while w.arrived_count < due {
            match w.upcoming.pop_front() {
                Some(s) => {
                    w.arrived.push_back((s, now));
                    w.arrived_count += 1;
                }
                None => break,
            }
        }
    }

    // 2. Admission: bind runnable sessions to free slots.
    for (k, slot) in w.slots.iter_mut().enumerate() {
        if !matches!(slot, Slot::Idle) {
            continue;
        }
        let next = if cfg.arrival_period > 0 {
            w.arrived.pop_front()
        } else {
            w.upcoming.pop_front().map(|s| (s, now))
        };
        let Some((s, at)) = next else { break };
        let h = &mut handles[k];
        debug_assert!(h.is_done(), "idle slot holds a live transaction");
        h.enqueue(scripts[s].program());
        *slot = Slot::Busy(Active {
            session: s,
            applied: 0,
            retries: 0,
            admitted_at: at,
        });
        progressed = true;
    }

    // 3. Apply: APP each busy slot's remaining operations.
    let mut ready: Vec<usize> = Vec::new();
    let mut needs_pull: Vec<usize> = Vec::new();
    for (k, h) in handles.iter_mut().enumerate() {
        let (session, applied) = match &w.slots[k] {
            Slot::Busy(a) => (a.session, a.applied),
            _ => continue,
        };
        let script = &scripts[session];
        let mut cursor = applied;
        let mut verdict: Result<(), MachineError> = Ok(());
        while cursor < script.ops.len() {
            match h.app_method(&script.ops[cursor]) {
                Ok(_) => {
                    cursor += 1;
                    progressed = true;
                }
                Err(e) => {
                    verdict = Err(e);
                    break;
                }
            }
        }
        if let Slot::Busy(a) = &mut w.slots[k] {
            a.applied = cursor;
        }
        match verdict {
            Ok(()) => {
                match script.end {
                    // Client-requested abort: rewind and drop, no retry.
                    SessionEnd::Abort => {
                        let txn = h.txn();
                        h.abandon()?;
                        let Slot::Busy(a) = std::mem::replace(&mut w.slots[k], Slot::Idle) else {
                            unreachable!()
                        };
                        w.stats.aborts += 1;
                        w.finish(a.session, SessionOutcome::Aborted { txn });
                    }
                    SessionEnd::Commit => ready.push(k),
                }
            }
            // The spec refuses every result (e.g. an overdraft): no
            // retry could ever succeed — fail the session cleanly.
            Err(e @ MachineError::NoAllowedResult(_)) => {
                fail_session(w, k, h, e);
            }
            // An injected APP denial behaves like any conflict.
            Err(e) if e.is_criterion() => conflict_retry(w, k, h, e, false, &mut needs_pull, cfg)?,
            Err(e) => return Err(e),
        }
    }

    // 4. Commit stage. Scheduling order is destination-shard order for
    // single-shard-routable transactions, slot order for the rest —
    // computed the same way whether batching is on or off, so the two
    // modes replay identical traces.
    ready.sort_by_key(|&k| match handles[k].group_route() {
        Some(shard) => (0usize, shard, k),
        None => (1usize, 0, k),
    });
    // Every eligible transaction commits inside a held section, batched
    // per shard or one by one: no other thread ever observes a session's
    // uncommitted operation in either mode.
    let results: Vec<GroupTxnResult> = if cfg.group_commit {
        let mut lent: Vec<Option<&mut TxnHandle<S>>> = handles.iter_mut().map(Some).collect();
        let mut batch: Vec<&mut TxnHandle<S>> = ready
            .iter()
            .map(|&k| lent[k].take().expect("ready slots are distinct"))
            .collect();
        let results = commit_group(&mut batch).results;
        results.into_iter().map(|(_tid, r)| r).collect()
    } else {
        ready
            .iter()
            .map(|&k| commit_held(&mut handles[k]))
            .collect()
    };
    for (k, result) in ready.into_iter().zip(results) {
        let h = &mut handles[k];
        match result {
            GroupTxnResult::Committed(txn) => {
                finish_commit(w, k, txn, cfg.group_commit);
            }
            GroupTxnResult::Aborted { denied, .. } => {
                conflict_retry(w, k, h, denied, true, &mut needs_pull, cfg)?;
            }
            GroupTxnResult::Wedged(e) => return Err(e),
            GroupTxnResult::Ineligible => {
                w.stats.group_fallbacks += u64::from(cfg.group_commit);
                commit_unheld(w, k, h, &mut needs_pull, cfg)?;
            }
        }
    }

    // Refresh denied slots' committed views only now, after the whole
    // stage: every retrying transaction observes the same committed
    // prefix regardless of whether its peers committed through one batch
    // or one at a time.
    for k in needs_pull {
        if matches!(w.slots[k], Slot::Busy(_)) {
            pull_committed_lenient(&mut handles[k])?;
        }
    }

    // 5. Drain: with every slot dead, queued sessions can never run —
    // fail them with the error that killed the pool instead of hanging.
    if !w.slots.is_empty() && w.slots.iter().all(|s| matches!(s, Slot::Dead)) {
        let error = w.dead_error.clone().expect("dead slots record their error");
        while let Some((s, _)) = w.arrived.pop_front() {
            let error = error.clone();
            w.finish(s, SessionOutcome::Failed { error });
        }
        while let Some(s) = w.upcoming.pop_front() {
            let error = error.clone();
            w.finish(s, SessionOutcome::Failed { error });
        }
    }

    if w.stats.commits > commits_before {
        Ok(Tick::Committed)
    } else if w.stats.aborts > aborts_before {
        Ok(Tick::Aborted)
    } else if progressed {
        Ok(Tick::Progress)
    } else if w.is_done() {
        Ok(Tick::Done)
    } else {
        w.stats.blocked_ticks += 1;
        Ok(Tick::Blocked)
    }
}

/// The transactional service front-end (see the module docs).
#[derive(Debug)]
pub struct TxnServer<S: SeqSpec> {
    machine: Machine<S>,
    scripts: Arc<Vec<SessionScript<S::Method>>>,
    config: ServerConfig,
    workers: Vec<WorkerState>,
}

impl<S: SeqSpec> TxnServer<S> {
    /// Builds a server over `spec` serving `scripts`, with the admission
    /// schedule fixed by `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.slots_per_worker` is zero.
    pub fn new(spec: S, scripts: Vec<SessionScript<S::Method>>, config: ServerConfig) -> Self {
        assert!(config.workers > 0, "server needs at least one worker");
        assert!(
            config.slots_per_worker > 0,
            "workers need at least one slot"
        );
        let mut machine = Machine::new(spec);
        for _ in 0..config.workers * config.slots_per_worker {
            machine.add_thread(Vec::new());
        }
        let workers = assign_sessions(scripts.len(), config.workers, config.seed)
            .into_iter()
            .map(|q| WorkerState::new(q, config.slots_per_worker))
            .collect();
        Self {
            machine,
            scripts: Arc::new(scripts),
            config,
            workers,
        }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine<S> {
        &self.machine
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Per-session outcomes recorded so far, sorted by session id.
    pub fn outcomes(&self) -> Vec<(SessionId, &SessionOutcome)> {
        let mut out: Vec<_> = self
            .workers
            .iter()
            .flat_map(|w| w.outcomes.iter().map(|(s, o)| (*s, o)))
            .collect();
        out.sort_by_key(|(s, _)| *s);
        out
    }

    /// Accumulated statistics: worker counters summed, the machine-owned
    /// counters folded in (see [`fold_machine_counters`]), and the
    /// group-commit family read from the machine.
    pub fn stats(&self) -> SystemStats {
        let mut stats: SystemStats = self.workers.iter().map(|w| w.stats).sum();
        fold_machine_counters(&self.machine, &mut stats);
        let g = self.machine.group_stats();
        stats.group_batches = g.batches;
        stats.group_txns = g.batched_txns;
        stats.group_locks_saved = g.locks_saved;
        stats.group_hist = g.size_hist;
        stats
    }
}

impl<S: SeqSpec> TmSystem for TxnServer<S> {
    type MachineSpec = S;

    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError> {
        let w = tid.0;
        if w >= self.workers.len() {
            return Err(MachineError::NoSuchThread(tid));
        }
        let k = self.config.slots_per_worker;
        let handles = &mut self.machine.handles_mut()[w * k..(w + 1) * k];
        tick_worker(handles, &mut self.workers[w], &self.scripts, &self.config)
    }

    fn thread_count(&self) -> usize {
        self.workers.len()
    }

    fn is_done(&self) -> bool {
        self.workers.iter().all(WorkerState::is_done)
    }

    fn name(&self) -> &'static str {
        "txn-server"
    }

    fn stats(&self) -> SystemStats {
        TxnServer::stats(self)
    }

    fn machine(&self) -> &Machine<S> {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine<S> {
        &mut self.machine
    }
}

impl<S> ParallelSystem for TxnServer<S>
where
    S: SeqSpec + Send + Sync + 'static,
    S::Method: Send + Sync,
    S::Ret: Send + Sync,
    S::State: Send + Sync,
{
    fn workers(&mut self) -> Vec<Worker<'_>> {
        let cfg = self.config;
        let scripts = Arc::clone(&self.scripts);
        self.machine
            .handles_mut()
            .chunks_mut(cfg.slots_per_worker)
            .zip(self.workers.iter_mut())
            .map(|(chunk, w)| {
                let scripts = Arc::clone(&scripts);
                Box::new(move || tick_worker(chunk, w, &scripts, &cfg)) as Worker<'_>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::kvmap::{KvMap, MapMethod};
    use pushpull_spec::queue::{QueueMethod, QueueSpec};

    fn drive<S: SeqSpec>(sys: &mut TxnServer<S>, budget: usize) {
        let n = sys.thread_count();
        for i in 0..budget {
            if sys.is_done() {
                return;
            }
            sys.tick(ThreadId(i % n)).unwrap();
        }
        panic!("server did not drain within {budget} ticks");
    }

    fn disjoint_scripts(n: usize) -> Vec<SessionScript<MapMethod>> {
        (0..n as u64)
            .map(|s| SessionScript::commit(vec![MapMethod::Put(s, s as i64), MapMethod::Get(s)]))
            .collect()
    }

    #[test]
    fn all_sessions_commit_and_batches_amortize_locks() {
        let mut sys = TxnServer::new(
            KvMap::new(),
            disjoint_scripts(64),
            ServerConfig {
                workers: 2,
                slots_per_worker: 8,
                ..ServerConfig::default()
            },
        );
        drive(&mut sys, 10_000);
        let stats = sys.stats();
        assert_eq!(stats.sessions, 64);
        assert_eq!(stats.commits, 64);
        assert!(sys.outcomes().iter().all(|(_, o)| o.is_committed()));
        assert!(stats.group_batches > 0, "nothing batched");
        assert_eq!(stats.group_txns, 64, "every commit should batch");
        assert!(stats.group_locks_saved > 0);
        // Full slots, synchronized sessions: batches of 8 land in the
        // 5–8 bucket.
        assert!(stats.group_hist[3] > 0, "hist: {:?}", stats.group_hist);
        assert!(
            stats.lock_acquires < stats.commits,
            "batched disjoint load must average below one lock per commit \
             ({} acquires / {} commits)",
            stats.lock_acquires,
            stats.commits
        );
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn unbatched_mode_commits_identically_but_pays_per_txn_locks() {
        let make = |group_commit| {
            let mut sys = TxnServer::new(
                KvMap::new(),
                disjoint_scripts(32),
                ServerConfig {
                    workers: 2,
                    slots_per_worker: 4,
                    group_commit,
                    ..ServerConfig::default()
                },
            );
            drive(&mut sys, 10_000);
            sys
        };
        let on = make(true);
        let off = make(false);
        assert_eq!(
            format!("{:?}", on.machine().committed_txns()),
            format!("{:?}", off.machine().committed_txns()),
        );
        assert_eq!(
            on.machine().trace().render(),
            off.machine().trace().render()
        );
        assert_eq!(off.stats().group_batches, 0);
        assert!(off.stats().lock_acquires > on.stats().lock_acquires);
    }

    #[test]
    fn abort_sessions_are_rewound_not_committed() {
        let scripts = vec![
            SessionScript::commit(vec![MapMethod::Put(0, 1)]),
            SessionScript::abort(vec![MapMethod::Put(1, 2)]),
        ];
        let mut sys = TxnServer::new(
            KvMap::new(),
            scripts,
            ServerConfig {
                workers: 1,
                slots_per_worker: 2,
                ..ServerConfig::default()
            },
        );
        drive(&mut sys, 1_000);
        let outcomes = sys.outcomes();
        assert!(matches!(
            outcomes[0].1,
            SessionOutcome::Committed { batched: true, .. }
        ));
        assert!(matches!(outcomes[1].1, SessionOutcome::Aborted { .. }));
        assert_eq!(sys.machine().committed_txns().len(), 1);
    }

    #[test]
    fn spec_refusal_fails_the_session_without_livelock() {
        // The bounded queue's universe is {1}: enqueueing 9 has no
        // allowed result, so the session must fail cleanly, not retry
        // forever.
        let scripts = vec![
            SessionScript::commit(vec![QueueMethod::Enq(1)]),
            SessionScript::commit(vec![QueueMethod::Enq(9)]),
        ];
        let mut sys = TxnServer::new(
            QueueSpec::bounded(vec![1], 4),
            scripts,
            ServerConfig {
                workers: 1,
                slots_per_worker: 2,
                ..ServerConfig::default()
            },
        );
        drive(&mut sys, 1_000);
        let outcomes = sys.outcomes();
        assert!(outcomes[0].1.is_committed());
        assert!(matches!(
            outcomes[1].1,
            SessionOutcome::Failed {
                error: MachineError::NoAllowedResult(_)
            }
        ));
        assert_eq!(sys.stats().sessions, 2);
    }

    #[test]
    fn contended_sessions_retry_to_completion() {
        // Every session read-modify-writes the same key: heavy conflict,
        // everyone still commits through the retry loop.
        let scripts: Vec<_> = (0..12)
            .map(|s| SessionScript::commit(vec![MapMethod::Get(0), MapMethod::Put(0, s)]))
            .collect();
        let mut sys = TxnServer::new(
            KvMap::new(),
            scripts,
            ServerConfig {
                workers: 2,
                slots_per_worker: 3,
                ..ServerConfig::default()
            },
        );
        drive(&mut sys, 100_000);
        let stats = sys.stats();
        assert_eq!(stats.commits, 12, "aborts: {}", stats.aborts);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn open_loop_arrivals_queue_behind_capacity() {
        let mut sys = TxnServer::new(
            KvMap::new(),
            disjoint_scripts(8),
            ServerConfig {
                workers: 1,
                slots_per_worker: 1,
                arrival_period: 1,
                ..ServerConfig::default()
            },
        );
        drive(&mut sys, 10_000);
        assert_eq!(sys.stats().commits, 8);
        let committed = |(_, o): (SessionId, &SessionOutcome)| match o {
            SessionOutcome::Committed { latency, .. } => Some(*latency),
            _ => None,
        };
        let lat: Vec<u64> = sys.outcomes().into_iter().filter_map(committed).collect();
        assert_eq!(lat.len(), 8);
        // One slot, one arrival per tick: later sessions queue, so the
        // maximum latency strictly exceeds the minimum.
        assert!(lat.iter().max() > lat.iter().min(), "latencies: {lat:?}");
    }

    #[test]
    fn deterministic_replay_per_seed() {
        let make = |seed| {
            let mut sys = TxnServer::new(
                KvMap::new(),
                disjoint_scripts(24),
                ServerConfig {
                    workers: 3,
                    slots_per_worker: 2,
                    seed,
                    ..ServerConfig::default()
                },
            );
            drive(&mut sys, 10_000);
            (
                sys.machine().trace().render(),
                format!("{:?}", sys.outcomes()),
            )
        };
        assert_eq!(make(7), make(7), "same seed must replay identically");
        assert_ne!(
            make(7).0,
            make(8).0,
            "different admission seeds should schedule differently"
        );
    }
}
