//! Inverse operations — how real systems *implement* UNPUSH.
//!
//! The model's UNPUSH removes an operation from the shared log; §4 notes
//! it is "typically implemented via inverse operations (such as `remove`
//! on an element that had been `added`)", and Figure 2's abort path calls
//! "the appropriate inverse operation". Each specification declares its
//! inverses in [`SeqSpec::inverse`](pushpull_core::SeqSpec::inverse);
//! this module states, and its tests check, the law that makes the
//! implementation strategy sound:
//!
//! > applying `op` and then `inverse(op)` denotes the same states as
//! > applying nothing.
//!
//! (That is why removing `op` from the log — what UNPUSH does — and
//! appending the inverse — what the implementation does — agree up to
//! `≼` for logs whose suffix commutes with `op`, i.e. exactly under
//! UNPUSH criterion (i).)
//!
//! Operations whose observation cannot be undone (a `Get` pinning a
//! value) are their own inverses in the trivial sense that they do not
//! change state; operations that *destroy information* (an absolute
//! `Write` over an unknown previous value) have no context-free inverse,
//! which is precisely why word-based STMs keep undo-logs — the inverse
//! is manufactured from the recorded previous value, as
//! [`MemInverse`](crate::rwmem::MemInverse) shows with `Prev`-carrying
//! rets.

#[cfg(test)]
mod tests {
    use pushpull_core::op::{Op, OpId, TxnId};
    use pushpull_core::spec::{OpInverse, SeqSpec, StateSet};

    /// The inverse law: `⟦ℓ · op · op⁻¹⟧ = ⟦ℓ⟧` whenever `ℓ · op` is
    /// allowed — checked over the whole bounded state universe by
    /// running from every state. [`OpInverse::ReadOnly`] carries its own
    /// obligation: `⟦ℓ · op⟧ = ⟦ℓ⟧` (the operation must be
    /// state-preserving). None of the checked operations is
    /// [`OpInverse::NotInvertible`].
    fn check_inverse_law<S: SeqSpec>(spec: &S, ops: &[Op<S::Method, S::Ret>]) {
        let universe = spec.state_universe().expect("bounded spec");
        for op in ops {
            let inv = match spec.inverse(op) {
                OpInverse::Inverse(im, ir) => Some(Op::new(OpId(op.id.0 + 1000), TxnId(0), im, ir)),
                OpInverse::ReadOnly => None,
                OpInverse::NotInvertible => panic!("{:?}/{:?} has no inverse", op.method, op.ret),
            };
            for s in &universe {
                let start: StateSet<_> = std::iter::once(s.clone()).collect();
                let fwd = spec.denote_from(&start, std::slice::from_ref(op));
                if fwd.is_empty() {
                    continue; // op not allowed here
                }
                match &inv {
                    Some(inv) => {
                        let round = spec.denote_from(&fwd, std::slice::from_ref(inv));
                        assert_eq!(
                            round, start,
                            "inverse law fails for {:?}/{:?} from {:?}",
                            op.method, op.ret, s
                        );
                    }
                    None => assert_eq!(
                        fwd, start,
                        "read-only law fails for {:?}/{:?} from {:?}",
                        op.method, op.ret, s
                    ),
                }
            }
        }
    }

    #[test]
    fn set_inverses_satisfy_the_law() {
        use crate::set::{ops as o, SetSpec};
        let spec = SetSpec::bounded(vec![1, 2]);
        let ops = vec![
            o::add(0, 0, 1, true),
            o::add(1, 0, 1, false),
            o::remove(2, 0, 2, true),
            o::remove(3, 0, 2, false),
            o::contains(4, 0, 1, true),
        ];
        check_inverse_law(&spec, &ops);
    }

    #[test]
    fn map_inverses_satisfy_the_law() {
        use crate::kvmap::{ops as o, KvMap};
        let spec = KvMap::bounded(vec![1, 2], vec![10, 20]);
        let ops = vec![
            o::put(0, 0, 1, 10, None),
            o::put(1, 0, 1, 20, Some(10)),
            o::remove(2, 0, 2, Some(20)),
            o::remove(3, 0, 2, None),
            o::get(4, 0, 1, Some(10)),
        ];
        check_inverse_law(&spec, &ops);
    }

    #[test]
    fn counter_inverses_satisfy_the_law() {
        use crate::counter::{ops as o, Counter};
        let spec = Counter::with_universe(5);
        let ops = vec![o::add(0, 0, 2), o::add(1, 0, -3), o::get(2, 0, 1)];
        check_inverse_law(&spec, &ops);
    }

    #[test]
    fn bank_inverses_satisfy_the_law() {
        use crate::bank::{ops as o, Bank};
        let spec = Bank::bounded(vec![1], 6);
        let ops = vec![
            o::deposit(0, 0, 1, 2),
            o::withdraw(1, 0, 1, 3, true),
            o::balance(2, 0, 1, 4),
        ];
        check_inverse_law(&spec, &ops);
    }

    #[test]
    fn mem_inverse_satisfies_the_law() {
        use crate::rwmem::{ops as o, Loc, MemInverse};
        let spec = MemInverse::bounded(vec![Loc(0), Loc(1)], vec![0, 1, 2]);
        let ops = vec![
            o::undo_write(0, 0, 0, 2, 0),
            o::undo_write(1, 0, 0, 1, 2),
            o::undo_write(2, 0, 1, 0, 1),
            o::undo_read(3, 0, 1, 0),
        ];
        check_inverse_law(&spec, &ops);
    }

    /// Figure 2's abort path as the implementation sees it: a boosted put
    /// aborts by applying the inverse put/remove to the base object —
    /// equivalently, removing the op from the log. Both views agree.
    #[test]
    fn unpush_agrees_with_inverse_application() {
        use crate::kvmap::{ops as o, KvMap};
        let spec = KvMap::new();
        // Log with an op to "unpush": [put(1,10,None), put(2,20,None)].
        let with_op = vec![o::put(0, 0, 1, 10, None), o::put(1, 1, 2, 20, None)];
        // View 1 (the model): remove put(2) from the log.
        let unpushed = vec![with_op[0].clone()];
        // View 2 (the implementation): append the inverse of put(2).
        let OpInverse::Inverse(im, ir) = spec.inverse(&with_op[1]) else {
            panic!("a put that inserted is invertible");
        };
        let mut inversed = with_op.clone();
        inversed.push(Op::new(OpId(99), TxnId(1), im, ir));
        assert_eq!(spec.denote(&unpushed), spec.denote(&inversed));
    }
}
