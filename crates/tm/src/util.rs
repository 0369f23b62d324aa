//! Small helpers shared by the algorithm drivers.

use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::spec::SeqSpec;
use pushpull_core::TxnHandle;

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
        // a commits enough incs to exceed what b's local log can absorb…
        // actually: make b's local log conflict by giving it a stale get.
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
