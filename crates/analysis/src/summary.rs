//! Conservative per-transaction summaries of `Code<M>` programs, derived
//! by walking the syntax with the paper's `step`/`fin` equations.
//!
//! A [`TxnSummary`] records the transaction's *method footprint* (every
//! method it may invoke, via [`Code::reachable_methods`]).
//! [`ProgramSummary`] aggregates a whole thread set: the union footprint
//! the mover matrix ranges over.

use pushpull_core::lang::Code;

/// Conservative static facts about one transaction body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSummary<M> {
    /// Thread index the transaction runs on.
    pub thread: usize,
    /// Index of the transaction within its thread's program list.
    pub index: usize,
    /// Every method the transaction may invoke (deduplicated, in first
    /// syntactic occurrence order).
    pub footprint: Vec<M>,
}

/// Summarizes one transaction body.
pub fn summarize_txn<M: Clone + PartialEq>(
    thread: usize,
    index: usize,
    code: &Code<M>,
) -> TxnSummary<M> {
    TxnSummary {
        thread,
        index,
        footprint: code.reachable_methods(),
    }
}

/// Static facts about a whole thread set (`programs[t][i]` is thread
/// `t`'s `i`-th transaction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSummary<M> {
    /// One summary per transaction, in (thread, index) order.
    pub txns: Vec<TxnSummary<M>>,
    /// Union of all footprints (deduplicated, first-occurrence order) —
    /// the method alphabet the mover matrix ranges over.
    pub footprint: Vec<M>,
    /// Number of threads.
    pub threads: usize,
}

/// Summarizes a thread set.
pub fn summarize<M: Clone + PartialEq>(programs: &[Vec<Code<M>>]) -> ProgramSummary<M> {
    let mut txns = Vec::new();
    let mut footprint: Vec<M> = Vec::new();
    for (thread, progs) in programs.iter().enumerate() {
        for (index, code) in progs.iter().enumerate() {
            let s = summarize_txn(thread, index, code);
            for m in &s.footprint {
                if !footprint.contains(m) {
                    footprint.push(m.clone());
                }
            }
            txns.push(s);
        }
    }
    ProgramSummary {
        txns,
        footprint,
        threads: programs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(s: &'static str) -> Code<&'static str> {
        Code::method(s)
    }

    #[test]
    fn txn_summary_collects_footprint_and_shape() {
        let c = Code::seq(m("a"), Code::star(Code::choice(m("b"), m("a"))));
        let s = summarize_txn(0, 0, &c);
        assert_eq!(s.footprint, vec!["a", "b"]);
    }

    #[test]
    fn program_summary_unions_footprints() {
        let programs = vec![
            vec![m("a"), Code::seq(m("b"), m("a"))],
            vec![Code::star(m("c"))],
        ];
        let s = summarize(&programs);
        assert_eq!(s.txns.len(), 3);
        assert_eq!(s.footprint, vec!["a", "b", "c"]);
        assert_eq!(s.threads, 2);
    }

    #[test]
    fn empty_thread_set_requires_nothing() {
        let s = summarize::<&str>(&[]);
        assert!(s.txns.is_empty());
        assert!(s.footprint.is_empty());
    }
}
