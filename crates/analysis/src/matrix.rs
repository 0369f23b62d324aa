//! The static mover/conflict matrix: every ordered method pair of a
//! finite alphabet, resolved through the spec's *method-level* mover
//! oracle ([`SeqSpec::method_mover`]) and cached.
//!
//! A cell holds three-valued knowledge:
//!
//! * `Some(true)` — `m₁ ◁ m₂` holds for **every** observable return
//!   pair, so any runtime mover query between operations of these
//!   methods is guaranteed to pass;
//! * `Some(false)` — some return pair refutes the mover (the runtime
//!   outcome depends on the actual returns);
//! * `None` — the spec cannot decide at the method level (no override
//!   and no finite state universe).
//!
//! The linter's PULL-cycle scan reads only `Some(true)` cells as
//! proven; the certifier compares every cell with the exhaustive
//! derivation.

use std::fmt;

use pushpull_core::spec::{method_mover_exhaustive, SeqSpec};

/// A cached method-level mover matrix over a finite method alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoverMatrix<M> {
    alphabet: Vec<M>,
    cells: Vec<Option<bool>>,
}

impl<M: Clone + Eq> MoverMatrix<M> {
    /// Builds the matrix by querying `spec.method_mover` once per ordered
    /// pair of the (deduplicated) alphabet.
    pub fn build<S: SeqSpec<Method = M>>(spec: &S, methods: &[M]) -> Self {
        let mut alphabet: Vec<M> = Vec::new();
        for m in methods {
            if !alphabet.contains(m) {
                alphabet.push(m.clone());
            }
        }
        let n = alphabet.len();
        let mut cells = Vec::with_capacity(n * n);
        for m1 in &alphabet {
            for m2 in &alphabet {
                cells.push(spec.method_mover(m1, m2));
            }
        }
        Self { alphabet, cells }
    }

    /// Builds the *ground-truth* matrix by running the exhaustive
    /// Definition 4.1 derivation ([`method_mover_exhaustive`]) over
    /// `universe` for every ordered pair of the (deduplicated) alphabet
    /// — bypassing any `method_mover` override. Every cell is decided
    /// (`Some`); this is what the whole-spec certifier checks the
    /// declared matrix against.
    pub fn build_exhaustive<S: SeqSpec<Method = M>>(
        spec: &S,
        universe: &[S::State],
        methods: &[M],
    ) -> Self {
        let mut alphabet: Vec<M> = Vec::new();
        for m in methods {
            if !alphabet.contains(m) {
                alphabet.push(m.clone());
            }
        }
        let n = alphabet.len();
        let mut cells = Vec::with_capacity(n * n);
        for m1 in &alphabet {
            for m2 in &alphabet {
                cells.push(Some(method_mover_exhaustive(spec, universe, m1, m2)));
            }
        }
        Self { alphabet, cells }
    }

    /// The raw row-major cells (alphabet order), for serialization into
    /// a [`SpecCertificate`](crate::SpecCertificate).
    pub fn cells(&self) -> &[Option<bool>] {
        &self.cells
    }

    fn index(&self, m: &M) -> Option<usize> {
        self.alphabet.iter().position(|a| a == m)
    }

    /// The cached verdict for `m₁ ◁ m₂`; `None` also when either method
    /// is outside the alphabet.
    pub fn query(&self, m1: &M, m2: &M) -> Option<bool> {
        let i = self.index(m1)?;
        let j = self.index(m2)?;
        self.cells[i * self.alphabet.len() + j]
    }

    /// Is `m₁ ◁ m₂` proven for every observable return pair?
    pub fn proven(&self, m1: &M, m2: &M) -> bool {
        self.query(m1, m2) == Some(true)
    }

    /// The deduplicated method alphabet, in first-occurrence order.
    pub fn alphabet(&self) -> &[M] {
        &self.alphabet
    }

    /// Number of methods in the alphabet.
    pub fn len(&self) -> usize {
        self.alphabet.len()
    }

    /// Is the alphabet empty?
    pub fn is_empty(&self) -> bool {
        self.alphabet.is_empty()
    }

    /// Number of ordered pairs proven (`Some(true)` cells).
    pub fn proven_pairs(&self) -> usize {
        self.cells.iter().filter(|c| **c == Some(true)).count()
    }
}

impl<M: Clone + Eq + fmt::Display> MoverMatrix<M> {
    /// Renders the matrix as a table: `✓` proven mover, `✗` refuted at
    /// the method level (return-dependent), `?` undecided.
    pub fn render(&self) -> String {
        let names: Vec<String> = self.alphabet.iter().map(|m| m.to_string()).collect();
        let width = names.iter().map(String::len).max().unwrap_or(1).max(1);
        let mut out = String::new();
        out.push_str(&format!("{:>width$} │", "◁"));
        for name in &names {
            out.push_str(&format!(" {name:^width$}"));
        }
        out.push('\n');
        out.push_str(&format!("{:─>width$}─┼", ""));
        for _ in &names {
            out.push_str(&format!("─{:─^width$}", ""));
        }
        out.push('\n');
        for (i, name) in names.iter().enumerate() {
            out.push_str(&format!("{name:>width$} │"));
            for j in 0..names.len() {
                let mark = match self.cells[i * names.len() + j] {
                    Some(true) => "✓",
                    Some(false) => "✗",
                    None => "?",
                };
                out.push_str(&format!(" {mark:^width$}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_spec::counter::{Counter, CtrMethod};
    use pushpull_spec::kvmap::{KvMap, MapMethod};

    #[test]
    fn counter_matrix_is_fully_proven_without_get() {
        let spec = Counter::new();
        let matrix = MoverMatrix::build(&spec, &[CtrMethod::Add(1), CtrMethod::Add(2)]);
        assert_eq!(matrix.proven_pairs(), 4);
        assert_eq!(matrix.len(), 2);
    }

    #[test]
    fn kvmap_matrix_mixes_verdicts() {
        let spec = KvMap::new();
        let alphabet = vec![
            MapMethod::Put(0, 1),
            MapMethod::Get(0),
            MapMethod::Get(1),
            MapMethod::Put(0, 1), // duplicate: deduped
        ];
        let matrix = MoverMatrix::build(&spec, &alphabet);
        assert_eq!(matrix.len(), 3);
        // Same key, write vs read: refuted at the method level.
        assert_eq!(
            matrix.query(&MapMethod::Put(0, 1), &MapMethod::Get(0)),
            Some(false)
        );
        // Distinct keys: proven.
        assert!(matrix.proven(&MapMethod::Put(0, 1), &MapMethod::Get(1)));
        assert!(matrix.proven_pairs() < 9);
        // Outside the alphabet: unknown, not proven.
        assert_eq!(matrix.query(&MapMethod::Get(7), &MapMethod::Get(7)), None);
    }

    #[test]
    fn render_marks_all_three_verdicts() {
        let spec = KvMap::new();
        let matrix = MoverMatrix::build(&spec, &[MapMethod::Put(0, 1), MapMethod::Get(0)]);
        let table = matrix.render();
        assert!(table.contains('✓'), "{table}");
        assert!(table.contains('✗'), "{table}");
    }
}
