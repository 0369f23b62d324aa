//! `SeqSpec::denote` / `denote_from` against a reference fold.
//!
//! The denotation `⟦ℓ⟧` is carried in a [`StateSet`] — inline for one
//! state, insertion-ordered, de-duplicating by scan. The reference below
//! is the textbook fold over `std::collections::HashSet`, written here so
//! that it shares nothing with the product: on random logs over bounded
//! specs — allowed and disallowed alike — the two must be equal *as sets*,
//! and the `StateSet` must list no state twice.

use std::collections::HashSet;

use pushpull_core::op::{Op, OpId, TxnId};
use pushpull_core::rng::Xorshift64;
use pushpull_core::spec::{observable_rets, SeqSpec, StateSet};
use pushpull_core::toy::TwoStartCounter;
use pushpull_spec::bank::Bank;
use pushpull_spec::kvmap::KvMap;
use pushpull_spec::rwmem::{Loc, RwMem};

type Log<S> = Vec<Op<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>>;

/// `⟦from · ops⟧` as the definition reads: step a copy of every state by
/// every operation, collecting the post-states it accepts in a hashed set.
fn reference_from<S: SeqSpec>(
    spec: &S,
    from: HashSet<S::State>,
    ops: &[Op<S::Method, S::Ret>],
) -> HashSet<S::State> {
    ops.iter().fold(from, |states, op| {
        let posts = states.iter().filter_map(|s| {
            let mut post = s.clone();
            spec.apply(&mut post, &op.method, &op.ret).then_some(post)
        });
        posts.collect()
    })
}

fn as_hashed<S: SeqSpec>(set: &StateSet<S::State>) -> HashSet<S::State> {
    let hashed: HashSet<S::State> = set.iter().cloned().collect();
    assert_eq!(hashed.len(), set.len(), "a StateSet lists a state twice");
    hashed
}

/// A random log over the spec's method universe: each return is drawn
/// from the ones the method can observe *somewhere* in the state
/// universe, so a log is often — not always — disallowed part-way.
fn random_log<S: SeqSpec>(spec: &S, rng: &mut Xorshift64, max_len: usize) -> Log<S> {
    let methods = spec.method_universe().expect("bounded spec");
    let universe = spec.state_universe().expect("bounded spec");
    let len = rng.gen_index(max_len + 1);
    (0..len)
        .map(|i| {
            let m = methods[rng.gen_index(methods.len())].clone();
            let rets = observable_rets(spec, &universe, &m);
            let r = rets[rng.gen_index(rets.len())].clone();
            Op::new(OpId(i as u64), TxnId(0), m, r)
        })
        .collect()
}

/// Checks `logs` random logs; returns how many were `(allowed, disallowed)`.
fn agrees_with_reference<S: SeqSpec>(spec: &S, seed: u64, logs: usize) -> (usize, usize) {
    let mut rng = Xorshift64::new(seed);
    let initial: HashSet<S::State> = spec.initial_states().into_iter().collect();
    let (mut allowed, mut disallowed) = (0, 0);
    for _ in 0..logs {
        let log = random_log(spec, &mut rng, 6);
        let whole = spec.denote(&log);
        let expected = reference_from(spec, initial.clone(), &log);
        assert_eq!(as_hashed::<S>(&whole), expected, "denote on {log:?}");
        assert_eq!(spec.allowed(&log), !expected.is_empty());
        if expected.is_empty() {
            disallowed += 1;
        } else {
            allowed += 1;
        }
        // Any split point: ⟦ℓ⟧ = denote_from(⟦ℓ[..k]⟧, ℓ[k..]).
        let k = rng.gen_index(log.len() + 1);
        let prefix = spec.denote(&log[..k]);
        let resumed = spec.denote_from(&prefix, &log[k..]);
        assert_eq!(resumed, whole, "denote_from at {k} on {log:?}");
        let resumed_ref = reference_from(spec, as_hashed::<S>(&prefix), &log[k..]);
        assert_eq!(as_hashed::<S>(&resumed), resumed_ref);
    }
    (allowed, disallowed)
}

#[test]
fn denotations_equal_the_hashset_fold_on_random_logs() {
    let counts = [
        agrees_with_reference(&KvMap::bounded(vec![1, 2], vec![7, 8]), 0xD1FF_0001, 600),
        agrees_with_reference(&Bank::bounded(vec![0, 1], 2), 0xD1FF_0002, 600),
        agrees_with_reference(
            &RwMem::bounded(vec![Loc(0), Loc(1)], vec![0, 1]),
            0xD1FF_0003,
            600,
        ),
        agrees_with_reference(&TwoStartCounter::new([3, 1], 4), 0xD1FF_0004, 600),
    ];
    for (allowed, disallowed) in counts {
        assert!(
            allowed >= 50 && disallowed >= 50,
            "{allowed} allowed / {disallowed} disallowed"
        );
    }
    let total: usize = counts.iter().map(|(a, d)| a + d).sum();
    assert!(total >= 2_000);
}
