//! Irrevocable transactions (Welc et al. \[34\]) — the mixed
//! optimistic/pessimistic model of paper §6.4: "there is at most one
//! pessimistic ('irrevocable') transaction and many optimistic
//! transactions. The pessimistic transaction PUSHes its effects
//! instantaneously after APP."
//!
//! The irrevocable thread never rolls back: when its eager PUSH meets a
//! foreign uncommitted operation (an optimistic transaction mid-commit),
//! it *waits* — the optimist either commits or, failing validation
//! against the irrevocable thread's published effects, aborts, clearing
//! the way. Optimistic threads behave exactly as in
//! [`crate::optimistic`].

use std::marker::PhantomData;

use pushpull_core::error::MachineError;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};

use crate::driver::{Algorithm, Driver, Outcome, Phase};
use crate::util::pull_committed_lenient;

/// A system with one irrevocable thread among optimistic ones.
///
/// # Examples
///
/// ```
/// use pushpull_tm::irrevocable::IrrevocableSystem;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::rwmem::{RwMem, MemMethod, Loc};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = IrrevocableSystem::new(
///     RwMem::new(),
///     vec![
///         vec![Code::method(MemMethod::Write(Loc(0), 1))], // irrevocable
///         vec![Code::method(MemMethod::Write(Loc(1), 2))], // optimistic
///     ],
///     ThreadId(0),
/// );
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.irrevocable_aborts(), 0);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type IrrevocableSystem<S> = Driver<Irrevocable<S>>;

/// The irrevocable algorithm: which thread is the pessimistic one. No
/// cross-thread driver state exists at all — the machine's global log is
/// the only shared structure.
#[derive(Debug, Clone)]
pub struct Irrevocable<S> {
    irrevocable: ThreadId,
    spec: PhantomData<fn() -> S>,
}

/// Per-thread driver state, owned by exactly one worker.
#[derive(Debug, Clone, Default)]
pub struct IrrThread {
    phase: Phase,
    /// Aborts taken while irrevocable — must stay zero.
    irrevocable_aborts: u64,
}

impl<S: SeqSpec> Algorithm for Irrevocable<S> {
    type Spec = S;
    type Thread = IrrThread;

    fn name(&self) -> &'static str {
        "irrevocable"
    }

    /// One tick for one thread. An optimistic thread APPs and commits
    /// with PUSH*;CMT. The irrevocable thread APPs and PUSHes eagerly on
    /// its own handle, and every denial it meets is waited out (the
    /// skeleton never aborts it, see [`Algorithm::never_aborts`]) and
    /// retried next tick.
    fn step(&self, h: &mut TxnHandle<S>, t: &mut IrrThread) -> Result<Outcome, MachineError> {
        if t.phase == Phase::Begin {
            pull_committed_lenient(h)?;
            t.phase = Phase::Running;
            return Ok(Outcome::Progress);
        }
        let irrevocable = h.tid() == self.irrevocable;
        let options = h.step_options()?;
        if options.is_empty() {
            // The irrevocable thread pushed everything already, so its CMT
            // can only meet an injected denial.
            if irrevocable {
                h.commit()?;
            } else {
                h.push_all_and_commit()?;
            }
            t.phase = Phase::Begin;
            return Ok(Outcome::Committed);
        }
        let method = options[0].0.clone();
        if !irrevocable {
            h.app_method(&method)?;
            return Ok(Outcome::Progress);
        }
        // Refresh committed view, then APP;PUSH eagerly. An APP denial is
        // a racing commit that shifted the committed prefix between our
        // PULL and APP (or an injected one): transient.
        pull_committed_lenient(h)?;
        let op = h.app_method(&method)?;
        match h.push(op) {
            Ok(()) => Ok(Outcome::Progress),
            // An optimistic transaction is mid-commit: undo the APP and
            // wait it out, to retry the same method.
            Err(e) if e.is_criterion() => {
                h.unapp()?;
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// The optimistic threads' abort path; neither the governor nor the
    /// irrevocable thread's own step routes the irrevocable thread here
    /// (see [`Algorithm::never_aborts`]), and should anything ever do so,
    /// [`IrrevocableSystem::irrevocable_aborts`] counts it.
    fn abort(&self, h: &mut TxnHandle<S>, t: &mut IrrThread) -> Result<(), MachineError> {
        if h.tid() == self.irrevocable {
            t.irrevocable_aborts += 1;
        }
        h.abort_and_retry()?;
        t.phase = Phase::Begin;
        Ok(())
    }

    fn never_aborts(&self, tid: ThreadId) -> bool {
        tid == self.irrevocable
    }
}

impl<S: SeqSpec> IrrevocableSystem<S> {
    /// Creates a system where thread `irrevocable` runs pessimistically
    /// (eager PUSH, never aborts) and all others run optimistically.
    ///
    /// # Panics
    ///
    /// Panics if `irrevocable` is out of range for `programs`.
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>, irrevocable: ThreadId) -> Self {
        assert!(
            irrevocable.0 < programs.len(),
            "irrevocable thread out of range"
        );
        let alg = Irrevocable {
            irrevocable,
            spec: PhantomData,
        };
        Driver::host(alg, spec, programs)
    }

    /// Aborts taken by the irrevocable thread — must always be zero; kept
    /// as an observable so tests state it as an assertion, not an
    /// assumption.
    pub fn irrevocable_aborts(&self) -> u64 {
        self.locals().map(|t| t.irrevocable_aborts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TmSystem;
    use crate::util::run_round_robin;
    use pushpull_core::op::ThreadId;
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

    fn rw_prog(l: u32, v: i64) -> Vec<Code<MemMethod>> {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Write(Loc(l), v)),
        ])]
    }

    #[test]
    fn irrevocable_never_aborts_under_conflict() {
        // Irrevocable and two optimists all read-modify-write loc 0.
        let mut sys = IrrevocableSystem::new(
            RwMem::new(),
            vec![rw_prog(0, 1), rw_prog(0, 2), rw_prog(0, 3)],
            ThreadId(0),
        );
        run_round_robin(&mut sys, 8000);
        assert_eq!(sys.stats().commits, 3);
        assert_eq!(sys.irrevocable_aborts(), 0);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
    }

    #[test]
    fn irrevocable_pushes_eagerly() {
        let mut sys = IrrevocableSystem::new(
            RwMem::new(),
            vec![rw_prog(0, 1), rw_prog(1, 2)],
            ThreadId(0),
        );
        // Tick irrevocable through begin + first op.
        sys.tick(ThreadId(0)).unwrap();
        sys.tick(ThreadId(0)).unwrap();
        let names = sys.machine().trace().rule_names(ThreadId(0));
        assert_eq!(
            names.last(),
            Some(&"PUSH"),
            "APP must be followed immediately by PUSH"
        );
        run_round_robin(&mut sys, 4000);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn optimists_abort_against_irrevocable_effects() {
        // Force the optimist to observe a stale loc 0, then the
        // irrevocable thread writes it; the optimist must abort at least
        // once and still commit eventually.
        let mut sys = IrrevocableSystem::new(
            RwMem::new(),
            vec![rw_prog(0, 1), rw_prog(0, 2)],
            ThreadId(0),
        );
        // Optimist snapshots and reads first.
        sys.tick(ThreadId(1)).unwrap(); // begin
        sys.tick(ThreadId(1)).unwrap(); // read loc0 = 0
                                        // Irrevocable runs to commit.
        while sys.machine().thread(ThreadId(0)).unwrap().commits() == 0 {
            sys.tick(ThreadId(0)).unwrap();
        }
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(sys.stats().aborts >= 1);
        assert_eq!(sys.irrevocable_aborts(), 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }
}
