//! Strict two-phase locking over read/write memory — the lock-based
//! atomic sections the paper cites as pessimistic \[4\] (Cherem, Chilimbi
//! & Gulwani: inferring locks for atomic sections), §6.3's family.
//!
//! Rule pattern: acquire the location's lock in the right mode
//! (shared for reads — readers run in parallel, the refinement
//! exclusive-keyed boosting cannot express), then **APP;PUSH** eagerly;
//! locks are held to CMT (strictness); deadlocks abort (UNPUSH;UNAPP).
//!
//! Because reads hold shared locks, a pushed `Read` can still meet a
//! foreign uncommitted `Read` of the same location in PUSH criterion
//! (ii) — reads move across reads, so the criterion holds; writes never
//! meet anything, the exclusive lock fenced them. The audit tests verify
//! this pattern: a 2PL run discharges PUSH obligations but never
//! violates one.

use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::{Code, TxnHandle};
use pushpull_ds::rwlocks::{Mode, RwLockTable, RwOutcome};
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

use crate::driver::{Algorithm, Driver, Outcome};
use crate::util::{fork_mutex, pull_committed_lenient};

/// A strict two-phase-locking system over [`RwMem`].
///
/// # Examples
///
/// ```
/// use pushpull_tm::twophase::TwoPhaseLocking;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::rwmem::{MemMethod, Loc};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = TwoPhaseLocking::new(vec![
///     vec![Code::method(MemMethod::Read(Loc(0)))],
///     vec![Code::method(MemMethod::Read(Loc(0)))], // readers share
/// ]);
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// assert_eq!(sys.stats().blocked_ticks, 0, "shared reads never block");
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type TwoPhaseLocking = Driver<TwoPhase>;

/// Strict 2PL: the shared lock table — the algorithm's only cross-thread
/// state, behind a short-held mutex. There is no per-thread state.
#[derive(Debug)]
pub struct TwoPhase {
    locks: Mutex<RwLockTable<Loc>>,
}

impl Clone for TwoPhase {
    fn clone(&self) -> Self {
        Self {
            locks: fork_mutex(&self.locks),
        }
    }
}

impl Algorithm for TwoPhase {
    type Spec = RwMem;
    type Thread = ();

    fn name(&self) -> &'static str {
        "two-phase-locking"
    }

    /// One 2PL tick: the lock table is consulted briefly per access; APP
    /// runs on the thread's own handle with no system-wide lock.
    fn step(&self, h: &mut TxnHandle<RwMem>, _: &mut ()) -> Result<Outcome, MachineError> {
        let txn = h.txn();
        let options = h.step_options()?;
        if options.is_empty() {
            let committed = match h.commit() {
                Ok(committed) => committed,
                // Natural CMT failures cannot happen (everything was pushed
                // under locks); an injected denial aborts like a deadlock.
                Err(e) if e.is_criterion() => return Ok(Outcome::Abort),
                Err(e) => return Err(e),
            };
            self.locks
                .lock()
                .expect("lock table poisoned")
                .release_all(committed);
            return Ok(Outcome::Committed);
        }
        let method = options[0].0;
        let (loc, mode) = match method {
            MemMethod::Read(l) => (l, Mode::Shared),
            MemMethod::Write(l, _) => (l, Mode::Exclusive),
        };
        match self
            .locks
            .lock()
            .expect("lock table poisoned")
            .try_lock(txn, loc, mode)
        {
            RwOutcome::Granted => {}
            RwOutcome::Busy { .. } => return Ok(Outcome::Wait),
            RwOutcome::WouldDeadlock => return Ok(Outcome::Abort),
        }
        // Lock held: refresh committed view, then APP;PUSH eagerly.
        pull_committed_lenient(h)?;
        let op = match h.app_method(&method) {
            Ok(op) => op,
            Err(MachineError::NoAllowedResult(_)) => return Ok(Outcome::Abort),
            Err(e) if e.is_criterion() => return Ok(Outcome::Abort),
            Err(e) => return Err(e),
        };
        match h.push(op) {
            Ok(()) => Ok(Outcome::Progress),
            Err(e) if e.is_criterion() => {
                // Shared-read vs shared-read pushes always commute, so
                // this only fires for exotic interleavings the lock order
                // didn't cover; treat as a wait.
                h.unapp()?;
                Ok(Outcome::Wait)
            }
            Err(e) => Err(e),
        }
    }

    fn abort(&self, h: &mut TxnHandle<RwMem>, _: &mut ()) -> Result<(), MachineError> {
        let txn = h.txn();
        h.abort_and_retry()?;
        self.locks
            .lock()
            .expect("lock table poisoned")
            .release_all(txn);
        Ok(())
    }
}

impl TwoPhaseLocking {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// default contention policy.
    pub fn new(programs: Vec<Vec<Code<MemMethod>>>) -> Self {
        let alg = TwoPhase {
            locks: Mutex::new(RwLockTable::new()),
        };
        Driver::host(alg, RwMem::new(), programs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TmSystem;
    use crate::util::run_round_robin;
    use pushpull_core::error::{Clause, Rule};
    use pushpull_core::op::ThreadId;
    use pushpull_core::opacity::{check_trace, OpacityVerdict};
    use pushpull_core::serializability::check_machine;

    fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Write(Loc(l), v)),
        ])]
    }

    #[test]
    fn readers_run_in_parallel() {
        let prog = || vec![Code::method(MemMethod::Read(Loc(0)))];
        let mut sys = TwoPhaseLocking::new(vec![prog(), prog(), prog()]);
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 3);
        assert_eq!(sys.stats().blocked_ticks, 0);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn writers_serialize_and_never_violate_push_criteria() {
        let mut sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(0, 2)]);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(
            sys.stats().blocked_ticks > 0,
            "second RMW must wait on the lock"
        );
        let audit = sys.machine().audit();
        assert_eq!(audit.violated_count(Rule::Push, Clause::Ii), 0);
        assert_eq!(audit.violated_count(Rule::Push, Clause::Iii), 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn upgrade_deadlock_breaks_via_abort() {
        // Both threads read loc 0 then write it: shared-then-upgrade is
        // the classic conversion deadlock; one must abort.
        let mut sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(0, 2)]);
        // Interleave the reads first.
        sys.tick(ThreadId(0)).unwrap();
        sys.tick(ThreadId(1)).unwrap();
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(
            sys.stats().aborts >= 1,
            "conversion deadlock must abort someone"
        );
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn runs_are_opaque() {
        let mut sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(1, 2)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(check_trace(&sys.machine().trace()), OpacityVerdict::Opaque);
    }

    #[test]
    fn random_interleavings_serializable() {
        for seed in 1..=15u64 {
            let mut state = seed;
            let mut sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3)]);
            let mut ticks = 0;
            while !sys.is_done() {
                let mut x = state.max(1);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                state = x;
                sys.tick(ThreadId((x % 3) as usize)).unwrap();
                ticks += 1;
                assert!(ticks < 1_000_000, "seed {seed} diverged");
            }
            assert_eq!(sys.stats().commits, 3, "seed {seed}");
            assert!(
                check_machine(sys.machine()).is_serializable(),
                "seed {seed}"
            );
        }
    }
}
