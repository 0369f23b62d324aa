//! Optimistic (lazy-publication) transactions — TL2 \[6\], TinySTM \[8\],
//! Intel STM \[31\]; paper §6.2.
//!
//! Rule pattern:
//!
//! * at begin: **PULL** the committed shared state (the snapshot — "there
//!   are never uncommitted operations" to observe);
//! * during the run: **APP** locally only; nothing is shared;
//! * at commit: at an uninterleaved moment, check PUSH criterion (ii) on
//!   all effects (real systems approximate this with read/write sets;
//!   here the checked machine evaluates the criterion exactly), **PUSH**
//!   everything in order (criterion (i) trivial) and **CMT**;
//! * on conflict: **UNAPP** repeatedly — "needn't UNPUSH" — and retry.
//!
//! Two read-validation flavours are provided, mirroring the design space:
//! *snapshot* (reads come only from the begin-time snapshot; staleness is
//! discovered at commit, TL2-style) and *refresh* (re-pull committed
//! effects before every APP, an incremental-validation TinySTM flavour).

use std::marker::PhantomData;

use pushpull_core::error::MachineError;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};

use crate::driver::{Algorithm, Driver, Outcome, Phase};
use crate::util::pull_committed_lenient;

/// Read-validation flavour of the optimistic system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Pull committed state once at begin; validate lazily at commit
    /// (TL2-style).
    #[default]
    Snapshot,
    /// Additionally re-pull committed effects before every APP
    /// (TinySTM-style incremental validation; fewer doomed executions).
    Refresh,
}

/// An optimistic system over any specification.
///
/// # Examples
///
/// ```
/// use pushpull_tm::optimistic::{OptimisticSystem, ReadPolicy};
/// use pushpull_tm::driver::{Tick, TmSystem};
/// use pushpull_spec::counter::{Counter, CtrMethod};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = OptimisticSystem::new(
///     Counter::new(),
///     vec![
///         vec![Code::method(CtrMethod::Add(1))],
///         vec![Code::method(CtrMethod::Add(1))],
///     ],
///     ReadPolicy::Snapshot,
/// );
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type OptimisticSystem<S> = Driver<Optimistic<S>>;

/// The optimistic algorithm: no cross-thread metadata at all, only the
/// read policy; per thread, the begin/running [`Phase`].
#[derive(Debug, Clone)]
pub struct Optimistic<S> {
    policy: ReadPolicy,
    spec: PhantomData<fn() -> S>,
}

impl<S: SeqSpec> Algorithm for Optimistic<S> {
    type Spec = S;
    type Thread = Phase;

    fn name(&self) -> &'static str {
        match self.policy {
            ReadPolicy::Snapshot => "optimistic-snapshot",
            ReadPolicy::Refresh => "optimistic-refresh",
        }
    }

    /// One optimistic tick, touching only the thread's own [`TxnHandle`]
    /// and phase — the whole fast path (APP, local bookkeeping) runs
    /// without any system-wide lock.
    fn step(&self, h: &mut TxnHandle<S>, phase: &mut Phase) -> Result<Outcome, MachineError> {
        if *phase == Phase::Begin {
            // Begin-time snapshot: PULL all committed operations.
            pull_committed_lenient(h)?;
            *phase = Phase::Running;
            return Ok(Outcome::Progress);
        }
        // Raw stepping flattens tx/otx markers; settle first so nested
        // scopes open and merge exactly as under the settling executors.
        h.settle()?;
        // Commit as soon as CMT criterion (i) — fin(c) — holds: for
        // straight-line code that is exactly "no method remains", and it
        // terminates looping programs `(c)*` (which always offer another
        // iteration) by taking the skip branch.
        if h.can_finish()? {
            // Commit phase: PUSH everything in APP order, then CMT.
            return match h.push_all_and_commit() {
                Ok(_) => {
                    *phase = Phase::Begin;
                    Ok(Outcome::Committed)
                }
                Err(e) if e.is_criterion() => Ok(Outcome::Abort),
                Err(e) => Err(e),
            };
        }
        if self.policy == ReadPolicy::Refresh {
            pull_committed_lenient(h)?;
        }
        // Resolve program nondeterminism by taking the LAST step option —
        // `(method, continuation)` as a pair, since the same method name
        // can appear in both a loop-iteration continuation and an exit
        // continuation. `step(c₁;c₂)` lists loop-iteration continuations
        // before the continuations that exit toward the mandatory
        // remainder, so the lazy choice always makes progress toward
        // `fin`; picking the first option would iterate `(c)*` on the
        // left of a `;` forever.
        let (method, cont) = h
            .step_options()?
            .pop()
            .ok_or(MachineError::NoSuchStep(h.tid()))?;
        let ret = match h.allowed_results(&method)?.into_iter().next() {
            Some(r) => r,
            None => return Ok(Outcome::Abort), // doomed local view: retry
        };
        match h.app(method, cont, ret) {
            Ok(_) => Ok(Outcome::Progress),
            Err(MachineError::NoAllowedResult(_)) => Ok(Outcome::Abort),
            Err(e) if e.is_criterion() => Ok(Outcome::Abort),
            Err(e) => Err(e),
        }
    }

    fn abort(&self, h: &mut TxnHandle<S>, phase: &mut Phase) -> Result<(), MachineError> {
        // §6.2: "simply perform UNAPP repeatedly and needn't UNPUSH" —
        // nothing was pushed; rewinding also unpulls the stale snapshot.
        h.abort_and_retry()?;
        *phase = Phase::Begin;
        Ok(())
    }
}

impl<S: SeqSpec> OptimisticSystem<S> {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// given read policy.
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>, policy: ReadPolicy) -> Self {
        let alg = Optimistic {
            policy,
            spec: PhantomData,
        };
        Driver::host(alg, spec, programs)
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
    use pushpull_spec::counter::{Counter, CtrMethod};
    use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

    #[test]
    fn commuting_adds_commit_without_aborts() {
        let mut sys = OptimisticSystem::new(
            Counter::new(),
            vec![
                vec![Code::method(CtrMethod::Add(1))],
                vec![Code::method(CtrMethod::Add(2))],
            ],
            ReadPolicy::Snapshot,
        );
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn conflicting_reads_retry_and_stay_serializable() {
        // Both threads read then write the same location: the classic
        // lost-update workload. At most one can win each round; the other
        // must abort and retry with the fresh value.
        let prog = || {
            vec![Code::seq_all(vec![
                Code::method(MemMethod::Read(Loc(0))),
                Code::method(MemMethod::Write(Loc(0), 1)),
            ])]
        };
        let mut sys =
            OptimisticSystem::new(RwMem::new(), vec![prog(), prog()], ReadPolicy::Snapshot);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
    }

    #[test]
    fn stale_snapshot_aborts_at_commit() {
        // T1 snapshots, T0 commits an inc, T1's get(=0) then fails commit
        // validation (PUSH criterion (iii)) and retries observing 1.
        let mut sys = OptimisticSystem::new(
            Counter::new(),
            vec![
                vec![Code::method(CtrMethod::Add(1))],
                vec![Code::method(CtrMethod::Get)],
            ],
            ReadPolicy::Snapshot,
        );
        // T1 snapshot + app (observes 0).
        sys.tick(ThreadId(1)).unwrap();
        sys.tick(ThreadId(1)).unwrap();
        // T0 runs to commit.
        while sys.machine().thread(ThreadId(0)).unwrap().commits() == 0 {
            sys.tick(ThreadId(0)).unwrap();
        }
        // T1 commit attempt must abort, then succeed on retry.
        let t = sys.tick(ThreadId(1)).unwrap();
        assert_eq!(t, Tick::Aborted);
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.stats().aborts, 1);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
        // The committed get observed 1.
        let committed = sys.machine().committed_txns();
        let get_txn = committed.iter().find(|t| t.thread == ThreadId(1)).unwrap();
        assert_eq!(get_txn.ops[0].ret, pushpull_spec::counter::CtrRet::Val(1));
    }

    #[test]
    fn optimistic_runs_are_opaque() {
        // §6.1: optimistic transactions never PULL uncommitted effects.
        let prog = || {
            vec![Code::seq_all(vec![
                Code::method(CtrMethod::Get),
                Code::method(CtrMethod::Add(1)),
            ])]
        };
        let mut sys =
            OptimisticSystem::new(Counter::new(), vec![prog(), prog()], ReadPolicy::Refresh);
        run_round_robin(&mut sys, 4000);
        assert_eq!(check_trace(&sys.machine().trace()), OpacityVerdict::Opaque);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn refresh_policy_sees_later_commits() {
        let mut sys = OptimisticSystem::new(
            Counter::new(),
            vec![
                vec![Code::method(CtrMethod::Add(1))],
                vec![Code::method(CtrMethod::Get)],
            ],
            ReadPolicy::Refresh,
        );
        // T1 takes its snapshot first…
        sys.tick(ThreadId(1)).unwrap();
        // …then T0 commits an inc…
        while sys.machine().thread(ThreadId(0)).unwrap().commits() == 0 {
            sys.tick(ThreadId(0)).unwrap();
        }
        // …and T1's APP-time refresh pulls it in: no abort needed.
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.stats().aborts, 0);
    }
}
