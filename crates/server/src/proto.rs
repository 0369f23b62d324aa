//! The service wire protocol: what a client session sends and what the
//! server answers.
//!
//! The shapes follow the classic executor-event style of transactional
//! RPC servers: a session opens a transaction (`Begin`), streams its
//! operations (`Op`), and closes with `Commit` or `Abort`; the server
//! answers each lifecycle edge with one [`TxnResponse`]. Responses carry
//! the machine-level transaction id so a client (or a test) can correlate
//! a session with the committed-transaction record and the trace.

use pushpull_core::error::MachineError;
use pushpull_core::op::TxnId;

/// A logical client session id — dense indices assigned by the server at
/// construction, stable across retries of the session's transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One client request on a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRequest<M> {
    /// Open a transaction on this session.
    Begin,
    /// Apply one operation inside the open transaction.
    Op(M),
    /// Commit the open transaction (the server may batch it through the
    /// per-shard group-commit path).
    Commit,
    /// Abort the open transaction without retrying it.
    Abort,
}

/// One server response on a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnResponse {
    /// `Begin` accepted: the session is bound to a worker slot and a
    /// fresh machine transaction.
    Began {
        /// The session.
        session: SessionId,
        /// The machine transaction id running the session's first attempt.
        txn: TxnId,
    },
    /// All of the session's operations applied locally (APP); the
    /// transaction is commit-ready.
    Acked {
        /// The session.
        session: SessionId,
        /// Operations applied in this attempt.
        applied: usize,
    },
    /// `Commit` succeeded.
    Committed {
        /// The session.
        session: SessionId,
        /// The committed machine transaction id.
        txn: TxnId,
        /// Did the commit go through a group-commit batch (as opposed to
        /// the per-transaction fallback)?
        batched: bool,
        /// Conflict-induced retries before this attempt succeeded.
        retries: u64,
    },
    /// `Abort` honoured: the transaction was rewound and dropped.
    Aborted {
        /// The session.
        session: SessionId,
        /// The aborted machine transaction id.
        txn: TxnId,
    },
    /// The session failed: the spec refused an operation outright or
    /// the retry budget ran out.
    Failed {
        /// The session.
        session: SessionId,
        /// The terminal error.
        error: MachineError,
    },
}

impl TxnResponse {
    /// The session this response belongs to.
    pub fn session(&self) -> SessionId {
        match self {
            TxnResponse::Began { session, .. }
            | TxnResponse::Acked { session, .. }
            | TxnResponse::Committed { session, .. }
            | TxnResponse::Aborted { session, .. }
            | TxnResponse::Failed { session, .. } => *session,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_core::op::ThreadId;

    #[test]
    fn responses_name_their_session() {
        let s = SessionId(7);
        assert_eq!(
            TxnResponse::Began {
                session: s,
                txn: TxnId(1)
            }
            .session(),
            s
        );
        assert_eq!(
            TxnResponse::Failed {
                session: s,
                error: MachineError::NoSuchThread(ThreadId(0)),
            }
            .session(),
            s
        );
        assert_eq!(s.to_string(), "s7");
    }
}
