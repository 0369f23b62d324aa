//! Property-based differential tests: the substrate data structures
//! against `std` reference models, over arbitrary operation sequences.
//!
//! Cases are generated with the seeded [`Xorshift64`] PRNG, so every run
//! checks the same case set and failures reproduce exactly.

use std::collections::{BTreeMap, HashMap};

use pushpull_core::rng::Xorshift64;
use pushpull_ds::skiplist::SkipListMap;

#[derive(Debug, Clone)]
enum MapAction {
    Insert(u16, i32),
    Remove(u16),
    Get(u16),
}

fn actions(rng: &mut Xorshift64, max_len: usize) -> Vec<MapAction> {
    let len = rng.gen_index(max_len.max(1));
    (0..len)
        .map(|_| {
            let k = (rng.next_u64() % 64) as u16;
            match rng.gen_range(0..3) {
                0 => MapAction::Insert(k, rng.next_u64() as i32),
                1 => MapAction::Remove(k),
                _ => MapAction::Get(k),
            }
        })
        .collect()
}

#[test]
fn skiplist_matches_btreemap() {
    let mut rng = Xorshift64::new(0xD5_01);
    for case in 0..128 {
        let ops = actions(&mut rng, 200);
        let seed = rng.next_u64() | 1;
        let mut sl = SkipListMap::with_seed(seed);
        let mut model: BTreeMap<u16, i32> = BTreeMap::new();
        for op in &ops {
            match op {
                MapAction::Insert(k, v) => {
                    assert_eq!(sl.insert(*k, *v), model.insert(*k, *v), "case {case}")
                }
                MapAction::Remove(k) => assert_eq!(sl.remove(k), model.remove(k), "case {case}"),
                MapAction::Get(k) => assert_eq!(sl.get(k), model.get(k), "case {case}"),
            }
            assert_eq!(sl.len(), model.len(), "case {case}");
        }
        // Iteration agrees, in order.
        let a: Vec<(u16, i32)> = sl.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<(u16, i32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b, "case {case}");
    }
}

/// Skip-list structure is independent of operation interleaving with
/// no-op queries: gets never perturb state.
#[test]
fn skiplist_gets_are_pure() {
    let mut rng = Xorshift64::new(0xD5_03);
    for case in 0..128 {
        let keys: Vec<u16> = (0..rng.gen_range(1..50))
            .map(|_| rng.next_u64() as u16)
            .collect();
        let mut sl = SkipListMap::new();
        for (i, k) in keys.iter().enumerate() {
            sl.insert(*k, i);
        }
        let before: Vec<(u16, usize)> = sl.iter().map(|(k, v)| (*k, *v)).collect();
        for k in &keys {
            let _ = sl.get(k);
            let _ = sl.contains_key(k);
        }
        let after: Vec<(u16, usize)> = sl.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(before, after, "case {case}");
    }
}

/// The abstract lock manager never double-grants a key and always
/// fully releases.
#[test]
fn lock_manager_exclusivity() {
    use pushpull_core::op::TxnId;
    use pushpull_ds::locks::{AbstractLockManager, LockOutcome};

    let mut rng = Xorshift64::new(0xD5_04);
    for case in 0..128 {
        let n_acts = rng.gen_index(100);
        let mut mgr: AbstractLockManager<u8> = AbstractLockManager::new();
        let mut model: HashMap<u8, u64> = HashMap::new(); // key -> txn
        for _ in 0..n_acts {
            let t = (rng.next_u64() % 4) as u8;
            if rng.gen_bool(0.67) {
                let k = (rng.next_u64() % 8) as u8;
                let txn = TxnId(u64::from(t));
                match mgr.try_lock(txn, k) {
                    LockOutcome::Acquired => {
                        assert!(!model.contains_key(&k), "case {case}: double grant of {k}");
                        model.insert(k, u64::from(t));
                    }
                    LockOutcome::AlreadyHeld => {
                        assert_eq!(model.get(&k), Some(&u64::from(t)), "case {case}");
                    }
                    LockOutcome::Busy { owner } => {
                        assert_eq!(model.get(&k).copied(), Some(owner.0), "case {case}");
                    }
                    LockOutcome::WouldDeadlock { .. } => {
                        assert!(model.contains_key(&k), "case {case}");
                    }
                }
            } else {
                mgr.release_all(TxnId(u64::from(t)));
                model.retain(|_, owner| *owner != u64::from(t));
            }
            assert_eq!(mgr.locked_count(), model.len(), "case {case}");
        }
    }
}
