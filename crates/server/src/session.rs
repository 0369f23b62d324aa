//! Session ids, session scripts and the deterministic seeded admission
//! assignment.
//!
//! A *session* is one logical client: a straight-line transaction body
//! (its operations in order) plus how the client closes it — `Commit` or
//! `Abort`. The server multiplexes many more sessions than it has worker
//! slots; [`assign_sessions`] fixes, at construction time, which worker
//! serves which sessions and in what order, from a seed alone, so a run
//! is replayable without any shared admission queue for parallel workers
//! to race on.

use pushpull_core::lang::Code;
use pushpull_core::rng::Xorshift64;

/// A logical client session id — dense indices assigned by the server at
/// construction, stable across retries of the session's transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// How a session closes its transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// Close with `Commit`.
    Commit,
    /// Close with `Abort` (the client discards the work).
    Abort,
}

/// One logical client session: a straight-line transaction body and its
/// closing request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionScript<M> {
    /// The transaction's operations, in order.
    pub ops: Vec<M>,
    /// How the session closes.
    pub end: SessionEnd,
}

impl<M: Clone> SessionScript<M> {
    /// A session that applies `ops` and commits.
    pub fn commit(ops: Vec<M>) -> Self {
        Self {
            ops,
            end: SessionEnd::Commit,
        }
    }

    /// A session that applies `ops` and then aborts.
    pub fn abort(ops: Vec<M>) -> Self {
        Self {
            ops,
            end: SessionEnd::Abort,
        }
    }

    /// Flattens a *straight-line* program (a `Seq`/`Method` chain, as the
    /// workload generators emit) into a committing session. Choice and
    /// loop structure is not representable in a script; such programs
    /// belong on a driver, not the service front-end.
    pub fn from_code(code: &Code<M>) -> Self
    where
        M: PartialEq,
    {
        Self::commit(code.reachable_methods())
    }

    /// The transaction body as machine code (a straight-line sequence).
    pub fn program(&self) -> Code<M> {
        Code::seq_all(self.ops.iter().cloned().map(Code::method))
    }
}

/// Deterministic seeded admission: shuffles session indices `0..sessions`
/// with a seeded Fisher–Yates pass and deals them round-robin to
/// `workers` queues. Every worker's queue order — hence the whole
/// admission schedule — is a pure function of `(sessions, workers,
/// seed)`.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn assign_sessions(sessions: usize, workers: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(workers > 0, "a server needs at least one worker");
    let mut order: Vec<usize> = (0..sessions).collect();
    let mut rng = Xorshift64::new(seed);
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..(i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (k, s) in order.into_iter().enumerate() {
        queues[k % workers].push(s);
    }
    queues
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_spec::kvmap::MapMethod;

    #[test]
    fn from_code_flattens_straight_line_programs() {
        let code = Code::seq_all(vec![
            Code::method(MapMethod::Put(3, 9)),
            Code::method(MapMethod::Get(3)),
        ]);
        let s = SessionScript::from_code(&code);
        assert_eq!(s.ops, vec![MapMethod::Put(3, 9), MapMethod::Get(3)]);
        assert_eq!(s.end, SessionEnd::Commit);
    }

    #[test]
    fn session_ids_render_with_an_s_prefix() {
        assert_eq!(SessionId(7).to_string(), "s7");
    }

    #[test]
    fn assignment_is_a_seeded_partition() {
        let queues = assign_sessions(100, 3, 42);
        assert_eq!(queues.iter().map(Vec::len).sum::<usize>(), 100);
        let mut all: Vec<usize> = queues.concat();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        // Replayable: same inputs, same deal.
        assert_eq!(queues, assign_sessions(100, 3, 42));
        // Seed-sensitive: a different seed deals differently.
        assert_ne!(queues, assign_sessions(100, 3, 43));
    }
}
