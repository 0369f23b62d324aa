//! Property-based differential tests: the lock table against a reference
//! model, over arbitrary request sequences.
//!
//! Cases are generated with the seeded [`Xorshift64`] PRNG, so every run
//! checks the same case set and failures reproduce exactly.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pushpull_core::op::TxnId;
use pushpull_core::rng::Xorshift64;
use pushpull_ds::rwlocks::{Mode, RwLockTable, RwOutcome};

/// One key's holders in the model.
#[derive(Debug, Default)]
struct Holders {
    writer: Option<TxnId>,
    readers: BTreeSet<TxnId>,
}

/// The lock table never grants a key to two writers, or to a writer
/// beside a foreign reader; every refusal names an incompatible holder
/// (a foreign writer first, otherwise the smallest foreign reader) and
/// reports a deadlock exactly when waiting on it would close a waits-for
/// cycle; and release frees everything.
#[test]
fn lock_manager_exclusivity() {
    let mut rng = Xorshift64::new(0xD5_04);
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for case in 0..128 {
        let n_acts = rng.gen_index(100);
        let mut table: RwLockTable<u8> = RwLockTable::new();
        let mut model: BTreeMap<u8, Holders> = BTreeMap::new();
        let mut waiting: HashMap<TxnId, TxnId> = HashMap::new();
        for _ in 0..n_acts {
            let txn = TxnId(rng.next_u64() % 4);
            if rng.gen_bool(0.67) {
                let k = (rng.next_u64() % 8) as u8;
                let mode = if rng.gen_bool(0.5) {
                    Mode::Shared
                } else {
                    Mode::Exclusive
                };
                let h = model.entry(k).or_default();
                let foreign_writer = h.writer.filter(|w| *w != txn);
                let incompatible = match mode {
                    Mode::Shared => foreign_writer,
                    Mode::Exclusive => {
                        foreign_writer.or_else(|| h.readers.iter().copied().find(|r| *r != txn))
                    }
                };
                let outcome = table.try_lock(txn, k, mode);
                seen.insert(match outcome {
                    RwOutcome::Granted => "granted",
                    RwOutcome::Busy { .. } => "busy",
                    RwOutcome::WouldDeadlock => "deadlock",
                });
                match incompatible {
                    None => {
                        assert_eq!(outcome, RwOutcome::Granted, "case {case}");
                        match mode {
                            Mode::Shared => {
                                h.readers.insert(txn);
                            }
                            Mode::Exclusive => {
                                h.readers.remove(&txn);
                                h.writer = Some(txn);
                            }
                        }
                        waiting.remove(&txn);
                    }
                    Some(holder) => {
                        let mut cur = Some(holder);
                        let mut hops = 0;
                        while cur.is_some_and(|c| c != txn) && hops <= waiting.len() {
                            cur = cur.and_then(|c| waiting.get(&c).copied());
                            hops += 1;
                        }
                        if cur == Some(txn) {
                            assert_eq!(outcome, RwOutcome::WouldDeadlock, "case {case}");
                        } else {
                            assert_eq!(outcome, RwOutcome::Busy { holder }, "case {case}");
                            waiting.insert(txn, holder);
                        }
                    }
                }
                if h.writer.is_none() && h.readers.is_empty() {
                    model.remove(&k);
                }
            } else {
                table.release_all(txn);
                for h in model.values_mut() {
                    h.readers.remove(&txn);
                    if h.writer == Some(txn) {
                        h.writer = None;
                    }
                }
                model.retain(|_, h| h.writer.is_some() || !h.readers.is_empty());
                waiting.remove(&txn);
            }
            for (k, h) in &model {
                assert_eq!(table.writer(k), h.writer, "case {case}: key {k}");
                if let Some(w) = h.writer {
                    assert!(
                        h.readers.iter().all(|r| *r == w),
                        "case {case}: writer beside a foreign reader on {k}"
                    );
                }
            }
            assert_eq!(table.locked_count(), model.len(), "case {case}");
        }
    }
    assert_eq!(seen.len(), 3, "every outcome occurs: {seen:?}");
}
