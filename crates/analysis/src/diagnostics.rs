//! Rustc-style diagnostics for the spec certifier: a severity, a lint
//! name, an optional span *into a workload's `Code` tree*, and a rendered
//! report.
//!
//! Spans are structural paths ([`PathStep`]) from a transaction's root
//! to the offending subterm, so they survive pretty-printing and name
//! the exact grammar node.

use std::fmt;

use pushpull_core::lang::Code;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing.
    Note,
    /// Probably a mistake; the run will still be serializable.
    Warning,
    /// The program or declaration is wrong (e.g. a transaction that can
    /// never commit).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One structural step from a `Code` node to one of its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathStep {
    /// Left operand of `c₁ ; c₂`.
    SeqL,
    /// Right operand of `c₁ ; c₂`.
    SeqR,
    /// Left operand of `c₁ + c₂`.
    ChoiceL,
    /// Right operand of `c₁ + c₂`.
    ChoiceR,
    /// Body of `(c)*`.
    Star,
    /// Body of `tx c`.
    Tx,
    /// Body of `otx c` (an open-nested scope).
    OpenTx,
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PathStep::SeqL => "seq.0",
            PathStep::SeqR => "seq.1",
            PathStep::ChoiceL => "choice.0",
            PathStep::ChoiceR => "choice.1",
            PathStep::Star => "star",
            PathStep::Tx => "tx",
            PathStep::OpenTx => "otx",
        })
    }
}

/// A location inside a thread set: which transaction, and where in its
/// body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Thread index.
    pub thread: usize,
    /// Transaction index within the thread.
    pub txn: usize,
    /// Structural path from the transaction's root to the subterm; empty
    /// means the whole body.
    pub path: Vec<PathStep>,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread {}, txn {}", self.thread, self.txn)?;
        if !self.path.is_empty() {
            write!(f, ", at ")?;
            for (i, step) in self.path.iter().enumerate() {
                if i > 0 {
                    write!(f, ".")?;
                }
                write!(f, "{step}")?;
            }
        }
        Ok(())
    }
}

/// The path to the first syntactic occurrence of method `m` in `code`,
/// if any.
pub fn find_method<M: PartialEq>(code: &Code<M>, m: &M) -> Option<Vec<PathStep>> {
    fn go<M: PartialEq>(code: &Code<M>, m: &M, path: &mut Vec<PathStep>) -> bool {
        match code {
            Code::Skip => false,
            Code::Method(n) => n == m,
            Code::Seq(a, b) => {
                path.push(PathStep::SeqL);
                if go(a, m, path) {
                    return true;
                }
                path.pop();
                path.push(PathStep::SeqR);
                if go(b, m, path) {
                    return true;
                }
                path.pop();
                false
            }
            Code::Choice(a, b) => {
                path.push(PathStep::ChoiceL);
                if go(a, m, path) {
                    return true;
                }
                path.pop();
                path.push(PathStep::ChoiceR);
                if go(b, m, path) {
                    return true;
                }
                path.pop();
                false
            }
            Code::Star(a) => {
                path.push(PathStep::Star);
                if go(a, m, path) {
                    return true;
                }
                path.pop();
                false
            }
            Code::Tx(a) => {
                path.push(PathStep::Tx);
                if go(a, m, path) {
                    return true;
                }
                path.pop();
                false
            }
            Code::OpenTx(a) => {
                path.push(PathStep::OpenTx);
                if go(a, m, path) {
                    return true;
                }
                path.pop();
                false
            }
        }
    }
    let mut path = Vec::new();
    go(code, m, &mut path).then_some(path)
}

/// One certifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable lint name (e.g. `unsound-mover-override`).
    pub lint: &'static str,
    /// One-line description of the finding.
    pub message: String,
    /// Where it is, when it points into a program (see
    /// [`certify_in`](crate::certify_in)).
    pub span: Option<Span>,
    /// The offending subterm, pretty-printed.
    pub snippet: Option<String>,
    /// Extra context lines, rendered as `= note:` trailers.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with no span (e.g. a declaration-level finding).
    pub fn global(severity: Severity, lint: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity,
            lint,
            message: message.into(),
            span: None,
            snippet: None,
            notes: Vec::new(),
        }
    }

    /// Appends a `= note:` trailer (builder style).
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.lint, self.message)?;
        if let Some(span) = &self.span {
            writeln!(f, "  --> {span}")?;
        }
        if let Some(snippet) = &self.snippet {
            writeln!(f, "   |")?;
            for line in snippet.lines() {
                writeln!(f, "   | {line}")?;
            }
            writeln!(f, "   |")?;
        }
        for note in &self.notes {
            writeln!(f, "   = note: {note}")?;
        }
        Ok(())
    }
}

/// Renders a batch of diagnostics plus a `N errors, M warnings` footer —
/// the shape of a compiler run's stderr.
pub fn render_report(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    out.push_str(&format!(
        "{errors} error{}, {warnings} warning{}\n",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(s: &'static str) -> Code<&'static str> {
        Code::method(s)
    }

    /// Follows a structural path from `code`; `None` if the path does not
    /// fit the tree.
    fn resolve<'c, M>(code: &'c Code<M>, path: &[PathStep]) -> Option<&'c Code<M>> {
        let mut cur = code;
        for step in path {
            cur = match (step, cur) {
                (PathStep::SeqL, Code::Seq(a, _)) => a,
                (PathStep::SeqR, Code::Seq(_, b)) => b,
                (PathStep::ChoiceL, Code::Choice(a, _)) => a,
                (PathStep::ChoiceR, Code::Choice(_, b)) => b,
                (PathStep::Star, Code::Star(a)) => a,
                (PathStep::Tx, Code::Tx(a)) => a,
                (PathStep::OpenTx, Code::OpenTx(a)) => a,
                _ => return None,
            };
        }
        Some(cur)
    }

    #[test]
    fn resolve_follows_paths() {
        let c = Code::tx(Code::seq(m("a"), Code::star(Code::choice(m("b"), m("c")))));
        let sub = resolve(
            &c,
            &[
                PathStep::Tx,
                PathStep::SeqR,
                PathStep::Star,
                PathStep::ChoiceR,
            ],
        );
        assert_eq!(sub, Some(&m("c")));
        assert_eq!(resolve(&c, &[PathStep::Star]), None, "wrong shape");
        assert_eq!(resolve(&c, &[]), Some(&c));
    }

    #[test]
    fn find_method_returns_first_occurrence_path() {
        let c = Code::tx(Code::seq(m("a"), Code::choice(m("b"), m("a"))));
        let path = find_method(&c, &"b").unwrap();
        assert_eq!(resolve(&c, &path), Some(&m("b")));
        assert_eq!(
            find_method(&c, &"a").unwrap(),
            vec![PathStep::Tx, PathStep::SeqL]
        );
        assert!(find_method(&c, &"zz").is_none());
    }

    #[test]
    fn rendering_is_rustc_shaped() {
        let d = Diagnostic {
            span: Some(Span {
                thread: 1,
                txn: 0,
                path: vec![PathStep::SeqR],
            }),
            snippet: Some("size()".into()),
            ..Diagnostic::global(
                Severity::Warning,
                "coarse-forcing",
                "`size()` declares no footprint",
            )
            .with_note("declare a key class if the method's footprint is expressible")
        };
        let text = d.to_string();
        assert!(text.starts_with("warning[coarse-forcing]:"), "{text}");
        assert!(text.contains("--> thread 1, txn 0, at seq.1"), "{text}");
        assert!(text.contains("| size()"), "{text}");
        assert!(text.contains("= note: declare a key class"), "{text}");
        let report = render_report(&[d]);
        assert!(report.ends_with("0 errors, 1 warning\n"), "{report}");
    }
}
