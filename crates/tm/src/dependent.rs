//! Dependent transactions and early release (Ramadan et al. \[30\],
//! Herlihy et al. \[14\]) — paper §6.5, the deliberately *non-opaque*
//! corner of the design space.
//!
//! Rule pattern:
//!
//! * transactions may **PULL the uncommitted** effects another
//!   transaction has PUSHed early (early release = "T′ performing a
//!   PUSH(op) and T checking whether it is able to PULL(op)");
//! * a transaction that pulled an uncommitted `op` of `T′` becomes
//!   *dependent* on `T′`: CMT criterion (iii) blocks its commit until
//!   `T′` commits;
//! * if `T′` aborts (its operations vanish from the shared log via
//!   UNPUSH), the dependent transaction must *detangle*: it "must only
//!   move backwards (via back rules) insofar as to detangle from T′" —
//!   implemented here as a partial rewind that UNAPPs/UNPULLs from the
//!   tail just until the vanished operation can be UNPULLed, then rolls
//!   forward again.
//!
//! With `eager_release` enabled, transactions opportunistically PUSH each
//! operation right after APP (skipping pushes whose criteria fail), which
//! is what makes their uncommitted effects visible for others to pull.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::log::{GlobalFlag, LocalFlag};
use pushpull_core::op::{OpId, ThreadId, TxnId};
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};

use crate::driver::{Algorithm, Driver, Outcome, Phase};
use crate::util::fork_mutex;

/// A dependent-transactions system.
///
/// # Examples
///
/// ```
/// use pushpull_tm::dependent::DependentSystem;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::counter::{Counter, CtrMethod};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = DependentSystem::new(
///     Counter::new(),
///     vec![
///         vec![Code::method(CtrMethod::Add(1))],
///         vec![Code::method(CtrMethod::Get)],
///     ],
///     true, // eager release
/// );
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type DependentSystem<S> = Driver<Dependent<S>>;

/// The dependent-transactions algorithm: the early-release switch and
/// the forced-abort test hook — the only cross-thread driver state.
#[derive(Debug)]
pub struct Dependent<S> {
    eager_release: bool,
    forced_aborts: Mutex<Vec<ThreadId>>,
    spec: PhantomData<fn() -> S>,
}

impl<S> Clone for Dependent<S> {
    fn clone(&self) -> Self {
        Self {
            eager_release: self.eager_release,
            forced_aborts: fork_mutex(&self.forced_aborts),
            spec: PhantomData,
        }
    }
}

/// Per-thread driver state, owned by exactly one worker.
#[derive(Debug, Clone, Default)]
pub struct DepThread {
    phase: Phase,
    /// Uncommitted operations this thread has pulled, with their owner.
    /// Ordered so the commit phase resolves dependencies in a
    /// deterministic (OpId) order under deterministic schedulers.
    deps: BTreeMap<OpId, TxnId>,
    partial_detangles: u64,
}

/// Pulls every pullable global operation (committed or not) not yet in
/// the local log, recording dependencies for uncommitted ones. An entry
/// that vanishes between the snapshot and the PULL (a racing UNPUSH) is
/// simply skipped.
fn pull_everything<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    t: &mut DepThread,
) -> Result<(), MachineError> {
    let own_txn = h.txn();
    let candidates: Vec<(OpId, TxnId, GlobalFlag)> = h
        .global_snapshot()
        .iter()
        .filter(|e| e.op.txn != own_txn && !h.local().contains_id(e.op.id))
        .map(|e| (e.op.id, e.op.txn, e.flag))
        .collect();
    for (id, owner, flag) in candidates {
        match h.pull(id) {
            Ok(()) => {
                if flag == GlobalFlag::Uncommitted {
                    t.deps.insert(id, owner);
                }
            }
            Err(MachineError::Criterion(_)) | Err(MachineError::NoSuchOp(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// UNAPP that rewinds across closed-scope bases: when the tail entry
/// lies below the innermost scope's floor, that scope is necessarily
/// empty, so popping it is event-free and the parent entry becomes
/// reachable — exactly what the flat (scope-less) rendering of the same
/// program would rewind.
fn unapp_through_scopes<S: SeqSpec>(h: &mut TxnHandle<S>) -> Result<OpId, MachineError> {
    loop {
        match h.unapp() {
            Err(MachineError::NothingToUnapply(_)) if h.scope_depth() > 0 => h.abort_nested()?,
            other => return other,
        }
    }
}

/// Partially rewinds from the tail until `dep` can be UNPULLed — "move
/// backwards only insofar as to detangle".
fn detangle<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    t: &mut DepThread,
    dep: OpId,
) -> Result<(), MachineError> {
    loop {
        match h.unpull(dep) {
            Ok(()) => {
                t.partial_detangles += 1;
                return Ok(());
            }
            Err(MachineError::Criterion(_)) => {
                // Something later depends on it: peel one entry off
                // the tail and try again.
                let last = h
                    .local()
                    .entries()
                    .last()
                    .map(|e| (e.op.id, e.flag.clone()));
                match last {
                    None => return Err(MachineError::NoSuchOp(dep)),
                    Some((id, LocalFlag::Pulled)) if id != dep => {
                        h.unpull(id)?;
                        t.deps.remove(&id);
                    }
                    Some((_, LocalFlag::Pushed { .. })) => {
                        let id = h.local().entries().last().unwrap().op.id;
                        h.unpush(id)?;
                        unapp_through_scopes(h)?;
                    }
                    Some((_, LocalFlag::NotPushed { .. })) => {
                        unapp_through_scopes(h)?;
                    }
                    Some((_, LocalFlag::Pulled)) => {
                        // The dep itself is last but still refused:
                        // impossible (criterion (i) of UNPULL only
                        // concerns the rest of the log) — bail out.
                        return Err(MachineError::NoSuchOp(dep));
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

impl<S: SeqSpec> Algorithm for Dependent<S> {
    type Spec = S;
    type Thread = DepThread;

    fn name(&self) -> &'static str {
        "dependent"
    }

    /// One dependent-transactions tick. PULLs and detangles take the
    /// machine's short critical sections; everything else runs on the
    /// thread's own handle.
    fn step(&self, h: &mut TxnHandle<S>, t: &mut DepThread) -> Result<Outcome, MachineError> {
        {
            let mut forced = self
                .forced_aborts
                .lock()
                .expect("forced-abort list poisoned");
            if let Some(pos) = forced.iter().position(|f| *f == h.tid()) {
                forced.remove(pos);
                return Ok(Outcome::Abort);
            }
        }
        if t.phase == Phase::Begin {
            pull_everything(h, t)?;
            t.phase = Phase::Running;
            return Ok(Outcome::Progress);
        }
        let options = h.step_options()?;
        if !options.is_empty() {
            pull_everything(h, t)?;
            let method = options[0].0.clone();
            let op = match h.app_method(&method) {
                Ok(op) => op,
                Err(MachineError::NoAllowedResult(_)) => return Ok(Outcome::Abort),
                Err(e) if e.is_criterion() => return Ok(Outcome::Abort),
                Err(e) => return Err(e),
            };
            if self.eager_release {
                // Early release: publish if the criteria allow it.
                match h.push(op) {
                    Ok(()) | Err(MachineError::Criterion(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            return Ok(Outcome::Progress);
        }
        // Commit phase: resolve dependencies first.
        let dep_list: Vec<(OpId, TxnId)> = t.deps.iter().map(|(o, x)| (*o, *x)).collect();
        for (dep, _owner) in dep_list {
            match h.global_snapshot().entry(dep).map(|e| e.flag) {
                Some(GlobalFlag::Committed) => {
                    t.deps.remove(&dep);
                }
                // Still live: wait for it. The contention policy decides
                // when waiting turns into giving up — that is what breaks
                // cyclic dependencies.
                Some(GlobalFlag::Uncommitted) => return Ok(Outcome::Wait),
                None => {
                    // The dependency aborted: cascade — detangle from it. If
                    // the partial rewind cannot reach the vanished entry
                    // (racing interleavings can wedge it), fall back to a
                    // full abort.
                    return match detangle(h, t, dep) {
                        Ok(()) => {
                            t.deps.remove(&dep);
                            Ok(Outcome::Progress)
                        }
                        Err(MachineError::NoSuchOp(_)) | Err(MachineError::Criterion(_)) => {
                            Ok(Outcome::Abort)
                        }
                        Err(e) => Err(e),
                    };
                }
            }
        }
        match h.push_all_and_commit() {
            Ok(_) => {
                t.deps.clear();
                t.phase = Phase::Begin;
                Ok(Outcome::Committed)
            }
            Err(e) if e.is_criterion() => Ok(Outcome::Abort),
            Err(e) => Err(e),
        }
    }

    fn abort(&self, h: &mut TxnHandle<S>, t: &mut DepThread) -> Result<(), MachineError> {
        h.abort_and_retry()?;
        t.deps.clear();
        t.phase = Phase::Begin;
        Ok(())
    }
}

impl<S: SeqSpec> DependentSystem<S> {
    /// Creates a system running `programs[i]` on thread `i`. With
    /// `eager_release`, operations are opportunistically PUSHed right
    /// after APP so that other transactions can pull them before commit.
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>, eager_release: bool) -> Self {
        let alg = Dependent {
            eager_release,
            forced_aborts: Mutex::new(Vec::new()),
            spec: PhantomData,
        };
        Driver::host(alg, spec, programs)
    }

    /// Partial rewinds performed to detangle from aborted dependencies.
    pub fn partial_detangles(&self) -> u64 {
        self.locals().map(|t| t.partial_detangles).sum()
    }

    /// Current dependencies of a thread (uncommitted pulled operations).
    pub fn dependencies(&self, tid: ThreadId) -> Vec<(OpId, TxnId)> {
        self.locals()
            .nth(tid.0)
            .expect("thread index in range")
            .deps
            .iter()
            .map(|(o, t)| (*o, *t))
            .collect()
    }

    /// Forces the thread's current transaction to abort at its next tick
    /// (used to trigger dependency cascades in tests and examples).
    pub fn force_abort(&mut self, tid: ThreadId) {
        self.algorithm()
            .forced_aborts
            .lock()
            .expect("forced-abort list poisoned")
            .push(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Tick, TmSystem};
    use crate::util::run_round_robin;
    use pushpull_core::op::ThreadId;
    use pushpull_core::opacity::{check_trace, OpacityVerdict};
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::counter::{Counter, CtrMethod, CtrRet};

    #[test]
    fn dependency_established_and_commit_gated() {
        let mut sys = DependentSystem::new(
            Counter::new(),
            vec![
                vec![Code::method(CtrMethod::Add(1))], // T0: releases early
                vec![Code::method(CtrMethod::Get)],    // T1: reads uncommitted
            ],
            true,
        );
        // T0 applies and (eagerly) pushes its add — uncommitted.
        sys.tick(ThreadId(0)).unwrap(); // begin
        sys.tick(ThreadId(0)).unwrap(); // app + push
                                        // T1 pulls it and reads 1 before T0 commits.
        sys.tick(ThreadId(1)).unwrap(); // begin: pulls uncommitted add
        assert_eq!(sys.dependencies(ThreadId(1)).len(), 1);
        sys.tick(ThreadId(1)).unwrap(); // app get -> observes 1
                                        // T1 at commit: dependency uncommitted -> Blocked.
        assert_eq!(sys.tick(ThreadId(1)).unwrap(), Tick::Blocked);
        // T0 commits; T1 can now commit.
        while sys.machine().thread(ThreadId(0)).unwrap().commits() == 0 {
            sys.tick(ThreadId(0)).unwrap();
        }
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        // The run is NOT opaque (uncommitted pull)…
        assert!(!check_trace(&sys.machine().trace()).is_opaque());
        // …but it is serializable.
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
        // And T1 really observed the uncommitted value.
        let committed = sys.machine().committed_txns();
        let get_txn = committed.iter().find(|t| t.thread == ThreadId(1)).unwrap();
        assert_eq!(get_txn.ops[0].ret, CtrRet::Val(1));
    }

    #[test]
    fn aborted_dependency_cascades() {
        let mut sys = DependentSystem::new(
            Counter::new(),
            vec![
                vec![Code::method(CtrMethod::Add(1))],
                vec![Code::method(CtrMethod::Get)],
            ],
            true,
        );
        sys.tick(ThreadId(0)).unwrap(); // begin
        sys.tick(ThreadId(0)).unwrap(); // app + push
        sys.tick(ThreadId(1)).unwrap(); // begin: pull uncommitted
        sys.tick(ThreadId(1)).unwrap(); // get -> 1
                                        // T0 aborts: its add vanishes from G.
        sys.force_abort(ThreadId(0));
        sys.tick(ThreadId(0)).unwrap();
        // T1 must detangle: its get(=1) depends on the vanished add, so
        // the partial rewind unapplies the get, then unpulls.
        let t = sys.tick(ThreadId(1)).unwrap();
        assert_eq!(t, Tick::Progress);
        assert!(sys.partial_detangles() >= 1);
        assert!(sys.dependencies(ThreadId(1)).is_empty());
        // Everyone still finishes, serializably.
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn without_eager_release_runs_are_opaque() {
        let mut sys = DependentSystem::new(
            Counter::new(),
            vec![
                vec![Code::method(CtrMethod::Add(1))],
                vec![Code::method(CtrMethod::Get)],
            ],
            false,
        );
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(check_trace(&sys.machine().trace()), OpacityVerdict::Opaque);
    }
}
