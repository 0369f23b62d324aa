//! Error types for the PUSH/PULL machine.
//!
//! Every rule of Figure 5 comes with *criteria*. The checked machine turns
//! each criterion into a runtime check; a failed check yields a
//! [`CriterionViolation`] identifying the rule and clause exactly as the
//! paper names them ("PUSH criterion (ii)" etc.), which is what a user
//! proving their algorithm correct needs to see.

use std::error::Error;
use std::fmt;

use crate::op::{OpId, ThreadId};

/// The seven PUSH/PULL rules (Figure 5), ordered as declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// APPly an operation locally.
    App,
    /// UNAPPly: rewind the most recent unpushed local operation.
    UnApp,
    /// PUSH an operation to the shared log.
    Push,
    /// UNPUSH: recall an operation from the shared log.
    UnPush,
    /// PULL another transaction's operation into the local view.
    Pull,
    /// UNPULL: discard knowledge of a pulled operation.
    UnPull,
    /// CMT: commit the transaction.
    Cmt,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::App => "APP",
            Rule::UnApp => "UNAPP",
            Rule::Push => "PUSH",
            Rule::UnPush => "UNPUSH",
            Rule::Pull => "PULL",
            Rule::UnPull => "UNPULL",
            Rule::Cmt => "CMT",
        };
        f.write_str(s)
    }
}

/// Which clause of a rule's premise failed, using the paper's numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Clause {
    /// Criterion (i).
    I,
    /// Criterion (ii).
    Ii,
    /// Criterion (iii).
    Iii,
    /// Criterion (iv).
    Iv,
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Clause::I => "(i)",
            Clause::Ii => "(ii)",
            Clause::Iii => "(iii)",
            Clause::Iv => "(iv)",
        };
        f.write_str(s)
    }
}

/// A failed rule criterion: the serializability proof obligation that the
/// attempted step does not discharge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriterionViolation {
    /// The rule whose premise failed.
    pub rule: Rule,
    /// The clause, in the paper's numbering.
    pub clause: Clause,
    /// Human-readable explanation with the offending operation(s).
    pub detail: String,
}

impl fmt::Display for CriterionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} criterion {} violated: {}",
            self.rule, self.clause, self.detail
        )
    }
}

impl Error for CriterionViolation {}

/// Errors returned by machine rule applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The thread index does not name a live thread.
    NoSuchThread(ThreadId),
    /// The operation id was not found where the rule requires it.
    NoSuchOp(OpId),
    /// The operation exists but carries the wrong flag for this rule
    /// (e.g. UNPUSH of an `npshd` entry).
    WrongFlag {
        /// The operation in question.
        op: OpId,
        /// What the rule required.
        expected: &'static str,
        /// What was found.
        found: &'static str,
    },
    /// A rule criterion failed (the serializability obligation).
    Criterion(CriterionViolation),
    /// The thread has no remaining transaction to run.
    ThreadFinished(ThreadId),
    /// APP was attempted but `step(c)` offers no such `(m, c′)` pair.
    NoSuchStep(ThreadId),
    /// APP could not resolve any allowed return value for the method.
    NoAllowedResult(ThreadId),
    /// UNAPP on a thread whose last own entry is not `npshd`
    /// (or whose local log is empty).
    NothingToUnapply(ThreadId),
    /// A nested-scope exit (`commit_nested` / `abort_nested` /
    /// `abort_to_checkpoint`) was requested on a thread with no scope
    /// open at the required position.
    NoScope(ThreadId),
    /// An open-nested scope tried to commit, but the spec declares one
    /// of its operations non-invertible, so no compensating transaction
    /// can be registered with the parent.
    NotInvertible {
        /// The thread whose open scope could not commit.
        thread: ThreadId,
        /// The operation with no spec-defined inverse.
        op: OpId,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NoSuchThread(t) => write!(f, "no such thread {t}"),
            MachineError::NoSuchOp(id) => write!(f, "no such operation {id}"),
            MachineError::WrongFlag {
                op,
                expected,
                found,
            } => {
                write!(
                    f,
                    "operation {op} has flag {found}, rule requires {expected}"
                )
            }
            MachineError::Criterion(v) => v.fmt(f),
            MachineError::ThreadFinished(t) => {
                write!(f, "thread {t} has finished all transactions")
            }
            MachineError::NoSuchStep(t) => write!(f, "no matching step(c) entry for thread {t}"),
            MachineError::NoAllowedResult(t) => {
                write!(
                    f,
                    "no allowed return value for the chosen method on thread {t}"
                )
            }
            MachineError::NothingToUnapply(t) => {
                write!(f, "last local entry of thread {t} is not npshd")
            }
            MachineError::NoScope(t) => {
                write!(f, "thread {t} has no nested scope open at that position")
            }
            MachineError::NotInvertible { thread, op } => {
                write!(
                    f,
                    "open-nested commit on thread {thread}: operation {op} \
                     has no spec-defined inverse"
                )
            }
        }
    }
}

impl Error for MachineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MachineError::Criterion(v) => Some(v),
            _ => None,
        }
    }
}

impl From<CriterionViolation> for MachineError {
    fn from(v: CriterionViolation) -> Self {
        MachineError::Criterion(v)
    }
}

impl MachineError {
    /// Convenience constructor for a criterion violation.
    pub fn criterion(rule: Rule, clause: Clause, detail: impl Into<String>) -> Self {
        MachineError::Criterion(CriterionViolation {
            rule,
            clause,
            detail: detail.into(),
        })
    }

    /// Is this a criterion violation (as opposed to a structural misuse)?
    pub fn is_criterion(&self) -> bool {
        matches!(self, MachineError::Criterion(_))
    }
}

/// Result alias for machine operations.
pub type MachineResult<T> = Result<T, MachineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_paper() {
        let v = CriterionViolation {
            rule: Rule::Push,
            clause: Clause::Ii,
            detail: "op #3 cannot move right of #5".into(),
        };
        assert_eq!(
            v.to_string(),
            "PUSH criterion (ii) violated: op #3 cannot move right of #5"
        );
    }

    #[test]
    fn machine_error_source_chains_to_violation() {
        let err = MachineError::criterion(Rule::Cmt, Clause::Iii, "pulled op uncommitted");
        assert!(err.is_criterion());
        assert!(matches!(&err, MachineError::Criterion(v) if v.rule == Rule::Cmt));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn non_criterion_errors_have_no_source() {
        let err = MachineError::NoSuchOp(OpId(3));
        assert!(!err.is_criterion());
        assert!(std::error::Error::source(&err).is_none());
        assert!(err.to_string().contains("#3"));
    }
}
