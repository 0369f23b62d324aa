//! A simulated best-effort hardware TM (Intel Haswell-style \[17\],
//! IBM \[16\]) over read/write memory.
//!
//! The model observes an HTM through exactly two behaviours (§7): word
//! granularity *eager* conflict detection (the first conflicting access
//! between two live transactions aborts one of them) and lazy publication
//! (buffered writes become visible at commit). In PUSH/PULL terms: APP
//! during the run, eager conflicts tracked by
//! [`HtmConflicts`] (the simulated
//! cache-coherence machinery), PUSH*;CMT at commit, UNAPP* on abort.
//!
//! This is the substitution for real TSX/POWER hardware recorded in
//! DESIGN.md: conflict granularity, eagerness and the abort signal are
//! what the model can see, and those are preserved.

use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::{Code, TxnHandle};
use pushpull_ds::memory::HtmConflicts;
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

use crate::driver::{Algorithm, Driver, Outcome, Phase};
use crate::util::{fork_mutex, pull_committed_lenient};

/// A simulated-HTM system over [`RwMem`].
///
/// # Examples
///
/// ```
/// use pushpull_tm::htm::HtmSystem;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::rwmem::{MemMethod, Loc};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = HtmSystem::new(vec![
///     vec![Code::method(MemMethod::Write(Loc(0), 1))],
///     vec![Code::method(MemMethod::Write(Loc(1), 2))],
/// ]);
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type HtmSystem = Driver<Htm>;

/// The simulated HTM: its cache-coherence machinery — the algorithm's
/// only cross-thread state, behind a short-held mutex. Per thread, the
/// begin/running [`Phase`].
#[derive(Debug)]
pub struct Htm {
    tracker: Mutex<HtmConflicts<Loc>>,
}

impl Clone for Htm {
    fn clone(&self) -> Self {
        Self {
            tracker: fork_mutex(&self.tracker),
        }
    }
}

impl Algorithm for Htm {
    type Spec = RwMem;
    type Thread = Phase;

    fn name(&self) -> &'static str {
        "htm-sim"
    }

    /// One HTM tick: the conflict tracker is consulted briefly per
    /// access; APP runs on the thread's own handle with no system-wide
    /// lock.
    fn step(&self, h: &mut TxnHandle<RwMem>, phase: &mut Phase) -> Result<Outcome, MachineError> {
        if *phase == Phase::Begin {
            pull_committed_lenient(h)?;
            *phase = Phase::Running;
            return Ok(Outcome::Progress);
        }
        let txn = h.txn();
        let options = h.step_options()?;
        if options.is_empty() {
            // Commit: publish the write buffer, then CMT; clear the
            // access tracker either way.
            return match h.push_all_and_commit() {
                Ok(committed) => {
                    self.tracker
                        .lock()
                        .expect("conflict tracker poisoned")
                        .clear(committed);
                    *phase = Phase::Begin;
                    Ok(Outcome::Committed)
                }
                Err(e) if e.is_criterion() => Ok(Outcome::Abort),
                Err(e) => Err(e),
            };
        }
        let method = options[0].0;
        // Injected hardware faults: a capacity overflow or a spurious
        // coherence conflict aborts the transaction exactly as the real
        // best-effort hardware would, before the access is even recorded.
        if h.fault_at_htm_access().is_some() {
            return Ok(Outcome::Abort);
        }
        // Eager word-granularity conflict detection: the access that
        // closes a conflict aborts its own transaction (requester-loses,
        // as on real best-effort HTMs).
        let access = {
            let mut tr = self.tracker.lock().expect("conflict tracker poisoned");
            match method {
                MemMethod::Read(l) => tr.record_read(txn, l),
                MemMethod::Write(l, _) => tr.record_write(txn, l),
            }
        };
        if access.is_err() {
            return Ok(Outcome::Abort);
        }
        match h.app_method(&method) {
            Ok(_) => Ok(Outcome::Progress),
            Err(MachineError::NoAllowedResult(_)) => Ok(Outcome::Abort),
            Err(e) if e.is_criterion() => Ok(Outcome::Abort),
            Err(e) => Err(e),
        }
    }

    fn abort(&self, h: &mut TxnHandle<RwMem>, phase: &mut Phase) -> Result<(), MachineError> {
        let txn = h.txn();
        h.abort_and_retry()?;
        self.tracker
            .lock()
            .expect("conflict tracker poisoned")
            .clear(txn);
        *phase = Phase::Begin;
        Ok(())
    }
}

impl HtmSystem {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// default contention policy.
    pub fn new(programs: Vec<Vec<Code<MemMethod>>>) -> Self {
        let alg = Htm {
            tracker: Mutex::new(HtmConflicts::new()),
        };
        Driver::host(alg, RwMem::new(), programs)
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

    fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Write(Loc(l), v)),
        ])]
    }

    #[test]
    fn disjoint_words_run_in_parallel() {
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(1, 2)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn word_conflicts_abort_eagerly() {
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(0, 2)]);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(
            sys.stats().aborts >= 1,
            "same-word RMWs must conflict eagerly"
        );
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn htm_runs_are_opaque() {
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(1, 2), rmw(0, 3)]);
        run_round_robin(&mut sys, 4000);
        assert_eq!(check_trace(&sys.machine().trace()), OpacityVerdict::Opaque);
    }

    #[test]
    fn conflict_aborts_before_any_inconsistent_app() {
        // The eager tracker fires BEFORE the APP, so the trace contains no
        // APP whose observation the conflicting write could invalidate.
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(0, 2)]);
        // T0 reads loc0.
        sys.tick(ThreadId(0)).unwrap();
        sys.tick(ThreadId(0)).unwrap();
        // T1 tries to read then write loc0: read shares fine…
        sys.tick(ThreadId(1)).unwrap();
        sys.tick(ThreadId(1)).unwrap();
        // …but T1's write to loc0 conflicts with T0's read: abort.
        let t = sys.tick(ThreadId(1)).unwrap();
        assert_eq!(t, Tick::Aborted);
    }
}
