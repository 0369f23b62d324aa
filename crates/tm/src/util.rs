//! Small helpers shared by the algorithm drivers: the lenient committed
//! refresh, and the one locked step of boosting, 2PL and §7's boosted
//! half, which takes a method's declared footprint as its abstract locks.

use std::hash::Hash;
use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::op::TxnId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::TxnHandle;
use pushpull_ds::rwlocks::{Mode, RwLockTable, RwOutcome};

use crate::driver::Outcome;
#[cfg(test)]
use pushpull_spec::rwmem::MemMethod;

/// Pulls the *committed* global operations the thread's transaction can
/// still touch and does not hold yet, in global-log order, skipping
/// (rather than failing on) operations whose PULL criteria do not hold —
/// the lenient snapshot refresh drivers perform before applying an
/// operation ([`TxnHandle::pull_committed_lenient`]: one snapshot, under
/// the locks of the shards the transaction's declared keys route to, of
/// the committed operations on those keys and of every one that declares
/// none — everything, under every shard lock, when a method it can reach
/// declares none — then one PULL per operation with no lock). Committed
/// operations the spec declares read-only stay in `G` when it has one
/// initial state: they could change no state the local view holds.
///
/// An operation skipped or left out leaves the local view behind the
/// shared view; any resulting inconsistency surfaces later as a PUSH
/// criterion (iii) failure, which the drivers treat as a conflict.
/// Returns the number of operations pulled.
///
/// Takes the thread's own [`TxnHandle`], so concurrent workers can refresh
/// their snapshots without serializing through the whole machine.
///
/// # Errors
///
/// Propagates only structural errors; criterion failures are skipped by
/// design.
pub fn pull_committed_lenient<S: SeqSpec>(h: &mut TxnHandle<S>) -> Result<usize, MachineError> {
    h.pull_committed_lenient()
}

/// One operation under locks — boosting's, 2PL's and mixed's boosted
/// half. The locks are the spec's footprint ([`SeqSpec::method_keys`]):
/// each key in `mode`, then the whole object (`None`) shared; a method
/// that declares no footprint (a map's `Size`) takes the whole object
/// exclusive. A busy lock waits, a would-be deadlock aborts. By footprint
/// law 1 a granted set orders every pair that does not commute, so the
/// APP;PUSH that follows is denied only by an injected fault, and a
/// denial goes back to the skeleton with `?`.
///
/// All requests of a step share one hold of the table mutex. A grant
/// clears the requester's waits-for edge, so re-requesting held keys
/// drops the edge a refusal recorded; the refused request, repeated in
/// the same hold, records it again (its cycle check walks from the
/// holder and never reads the requester's edge) before anyone else looks.
pub(crate) fn locked_step<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    locks: &Mutex<RwLockTable<Option<u64>>>,
    mode: Mode,
    method: &S::Method,
) -> Result<Outcome, MachineError> {
    let txn = h.txn();
    let footprint = h.spec().method_keys(method);
    let outcome = {
        let mut table = locks.lock().expect("lock table poisoned");
        match &footprint {
            Some(keys) => keys
                .iter()
                .map(|k| table.try_lock(txn, Some(*k), mode))
                .find(|o| *o != RwOutcome::Granted)
                .unwrap_or_else(|| table.try_lock(txn, None, Mode::Shared)),
            None => table.try_lock(txn, None, Mode::Exclusive),
        }
    };
    match outcome {
        RwOutcome::Granted => {}
        // The contention policy decides how long to tolerate lock-wait
        // livelocks the waits-for graph cannot see.
        RwOutcome::Busy { .. } => return Ok(Outcome::Wait),
        RwOutcome::WouldDeadlock => return Ok(Outcome::Abort),
    }
    // Implicit PULL: refresh the committed shared view (the paper's "the
    // local view is the same as the shared view").
    pull_committed_lenient(h)?;
    let op = h.app_method(method)?;
    h.push(op)?;
    Ok(Outcome::Progress)
}

/// Releases every grant `txn` holds in a driver's lock table.
pub(crate) fn release_all<K: Eq + Hash>(locks: &Mutex<RwLockTable<K>>, txn: TxnId) {
    locks.lock().expect("lock table poisoned").release_all(txn);
}

/// Deep-copies a driver's mutex-guarded metadata for a system clone,
/// which must share nothing with the original.
pub(crate) fn fork_mutex<T: Clone>(m: &Mutex<T>) -> Mutex<T> {
    Mutex::new(m.lock().expect("driver metadata lock poisoned").clone())
}

/// Drives `sys` round-robin, one tick per thread in turn, until done.
///
/// # Panics
///
/// Panics on a machine error or when `max_ticks` is exhausted.
#[cfg(test)]
pub(crate) fn run_round_robin<T: crate::driver::TmSystem>(sys: &mut T, max_ticks: usize) {
    let n = sys.thread_count();
    for i in 0..max_ticks {
        if sys.is_done() {
            return;
        }
        let _ = sys.tick(pushpull_core::op::ThreadId(i % n)).unwrap();
    }
    panic!("system did not terminate within {max_ticks} ticks");
}

/// A read-modify-write of location `l`: the contended memory program of
/// the tests.
#[cfg(test)]
pub(crate) fn rmw(l: u32, v: i64) -> Vec<pushpull_core::Code<MemMethod>> {
    use pushpull_core::Code;
    use pushpull_spec::rwmem::Loc;
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

/// Drives `sys` until done, each tick on a thread a seeded xorshift
/// picks.
///
/// # Panics
///
/// Panics on a machine error or when `max_ticks` is exhausted.
#[cfg(test)]
pub(crate) fn run_seeded<T: crate::driver::TmSystem>(sys: &mut T, seed: u64, max_ticks: usize) {
    let n = sys.thread_count() as u64;
    let mut x = seed;
    for _ in 0..max_ticks {
        if sys.is_done() {
            return;
        }
        x = x.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let _ = sys
            .tick(pushpull_core::op::ThreadId((x % n) as usize))
            .unwrap();
    }
    panic!("seed {seed}: system did not terminate within {max_ticks} ticks");
}

/// Ticks `tid` until a tick is not [`Tick::Blocked`](crate::driver::Tick)
/// (a contention back-off parks a thread after an abort) and returns it.
///
/// # Panics
///
/// Panics on a machine error or after 64 blocked ticks in a row.
#[cfg(test)]
pub(crate) fn next_unblocked_tick<T: crate::driver::TmSystem>(
    sys: &mut T,
    tid: pushpull_core::op::ThreadId,
) -> crate::driver::Tick {
    for _ in 0..64 {
        let tick = sys.tick(tid).unwrap();
        if tick != crate::driver::Tick::Blocked {
            return tick;
        }
    }
    panic!("thread {tid:?} stayed blocked for 64 ticks");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::lang::Code;
    use pushpull_core::machine::Machine;
    use pushpull_core::toy::{CounterMethod, ToyCounter};

    #[test]
    fn lenient_pull_skips_conflicting_ops() {
        let mut m = Machine::new(ToyCounter::with_bound(4));
        let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        // a commits an inc; b's local log then holds a stale get, which
        // conflicts with it.
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        // b observes get()=0 against its empty local view (stale).
        m.app_auto(b).unwrap();
        // Pulling a's committed inc now violates PULL (iii): b's get(=0)
        // does not move right of inc. Lenient pull skips it.
        let pulled = pull_committed_lenient(m.handle_mut(b).unwrap()).unwrap();
        assert_eq!(pulled, 0);
    }

    #[test]
    fn lenient_pull_takes_everything_when_clean() {
        let mut m = Machine::new(ToyCounter::with_bound(4));
        let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        let pulled = pull_committed_lenient(m.handle_mut(b).unwrap()).unwrap();
        assert_eq!(pulled, 1);
    }
}
