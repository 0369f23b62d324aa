//! Pessimistic transactions in the style of Matveev & Shavit \[25\]
//! (paper §6.3): write operations are *delayed* to the commit phase, and
//! commit phases are serialized, so "write transactions appear to occur
//! instantaneously at the commit point: all write operations are PUSHed
//! just before CMT, with no interleaved transactions. Consequently, read
//! operations perform PULL only on committed effects."
//!
//! The commit-phase serialization is realized with a *commit token*: a
//! thread entering its commit phase takes the token, performs
//! PUSH*… CMT in one burst, and releases it. Because writers only ever
//! publish while holding the token, PUSH criterion (ii) meets no foreign
//! uncommitted operations — writers never abort. Read-only transactions
//! validate at commit like everyone else; a reader that raced a writer
//! re-runs (our multiversion-free approximation of MS-TM's abort-free
//! readers, recorded in DESIGN.md).

use std::marker::PhantomData;
use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};

use crate::driver::{Algorithm, Driver, Outcome};
use crate::util::{fork_mutex, pull_committed_lenient};

/// A Matveev–Shavit-style pessimistic system.
///
/// # Examples
///
/// ```
/// use pushpull_tm::pessimistic::MatveevShavitSystem;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::rwmem::{RwMem, MemMethod, Loc};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let mut sys = MatveevShavitSystem::new(
///     RwMem::new(),
///     vec![
///         vec![Code::method(MemMethod::Write(Loc(0), 1))],
///         vec![Code::method(MemMethod::Write(Loc(0), 2))],
///     ],
/// );
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type MatveevShavitSystem<S> = Driver<MatveevShavit<S>>;

/// The pessimistic algorithm's only metadata: the commit token.
#[derive(Debug)]
pub struct MatveevShavit<S> {
    /// Which thread holds the commit token, if any. The token is the
    /// algorithm's single serialization point; workers touch it only in
    /// their commit phase.
    token: Mutex<Option<ThreadId>>,
    spec: PhantomData<fn() -> S>,
}

impl<S> Clone for MatveevShavit<S> {
    fn clone(&self) -> Self {
        Self {
            token: fork_mutex(&self.token),
            spec: PhantomData,
        }
    }
}

/// Per-thread state: has the current transaction pulled its snapshot?
#[derive(Debug, Clone, Default)]
pub struct MsThread {
    started: bool,
}

impl<S: SeqSpec> Algorithm for MatveevShavit<S> {
    type Spec = S;
    type Thread = MsThread;

    fn name(&self) -> &'static str {
        "pessimistic-ms"
    }

    /// One tick: APP and local bookkeeping run lock-free; only the
    /// commit burst contends on the token.
    fn step(&self, h: &mut TxnHandle<S>, t: &mut MsThread) -> Result<Outcome, MachineError> {
        if !t.started {
            // Reads PULL committed effects only.
            pull_committed_lenient(h)?;
            t.started = true;
            return Ok(Outcome::Progress);
        }
        let options = h.step_options()?;
        if !options.is_empty() {
            // Apply locally (writes are buffered — delayed to commit).
            let method = options[0].0.clone();
            h.app_method(&method)?;
            return Ok(Outcome::Progress);
        }
        // Commit phase: take the token so the PUSH*;CMT burst is
        // uninterleaved.
        {
            let mut tok = self.token.lock().expect("token lock poisoned");
            match *tok {
                // The commit-token wait deliberately does NOT consult the
                // contention policy: MS writers never abort, and the token
                // is released within the holder's same tick, so the wait
                // is always short and bounded.
                Some(holder) if holder != h.tid() => return Ok(Outcome::WaitOut),
                _ => *tok = Some(h.tid()),
            }
        }
        let result = h.push_all_and_commit();
        // Released before the result is read: a reader that raced a
        // writer aborts and re-runs on fresh state.
        *self.token.lock().expect("token lock poisoned") = None;
        result?;
        t.started = false;
        Ok(Outcome::Committed)
    }

    fn abort(&self, h: &mut TxnHandle<S>, t: &mut MsThread) -> Result<(), MachineError> {
        h.abort_and_retry()?;
        t.started = false;
        Ok(())
    }

    fn on_done(&self, h: &TxnHandle<S>) {
        let mut tok = self.token.lock().expect("token lock poisoned");
        if *tok == Some(h.tid()) {
            *tok = None;
        }
    }
}

impl<S: SeqSpec> MatveevShavitSystem<S> {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// default contention policy.
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>) -> Self {
        let alg = MatveevShavit {
            token: Mutex::new(None),
            spec: PhantomData,
        };
        Driver::host(alg, spec, programs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::run_round_robin;
    use pushpull_core::opacity::{check_trace, OpacityVerdict};
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

    #[test]
    fn write_only_transactions_never_abort() {
        let progs: Vec<_> = (0..4)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Write(Loc(t), 1)),
                    Code::method(MemMethod::Write(Loc(t + 4), 2)),
                ])]
            })
            .collect();
        let mut sys = MatveevShavitSystem::new(RwMem::new(), progs);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 4);
        assert_eq!(sys.stats().aborts, 0, "MS writers never abort");
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn even_conflicting_writers_never_abort() {
        // Blind writes to the SAME location: writes are total, pushes
        // under the token meet no uncommitted ops — still no aborts.
        let prog = |v: i64| vec![Code::method(MemMethod::Write(Loc(0), v))];
        let mut sys = MatveevShavitSystem::new(RwMem::new(), vec![prog(1), prog(2)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn runs_are_opaque() {
        let prog = |l: u32| {
            vec![Code::seq_all(vec![
                Code::method(MemMethod::Read(Loc(l))),
                Code::method(MemMethod::Write(Loc(l), 1)),
            ])]
        };
        let mut sys = MatveevShavitSystem::new(RwMem::new(), vec![prog(0), prog(1)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(check_trace(&sys.machine().trace()), OpacityVerdict::Opaque);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn racing_reader_rolls_forward() {
        // Reader reads loc 0; writer writes loc 0. If the reader's
        // snapshot went stale it re-runs; either way both commit and the
        // run is serializable.
        let mut sys = MatveevShavitSystem::new(
            RwMem::new(),
            vec![
                vec![Code::method(MemMethod::Read(Loc(0)))],
                vec![Code::method(MemMethod::Write(Loc(0), 9))],
            ],
        );
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert!(check_machine(sys.machine()).is_serializable());
    }
}
