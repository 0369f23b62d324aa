//! Whole-spec inference: the ground-truth mover matrix and the minimal
//! sound footprint assignment, derived exhaustively from a spec's
//! denotational semantics alone.
//!
//! The certifier ([`mod@crate::certify`]) never trusts a hand-written
//! [`method_mover`](pushpull_core::spec::SeqSpec::method_mover) or
//! [`method_keys`](pushpull_core::spec::SeqSpec::method_keys) override.
//! Instead, for any spec that exposes both a finite
//! [`state_universe`](pushpull_core::spec::SeqSpec::state_universe) and a
//! finite [`method_universe`](pushpull_core::spec::SeqSpec::method_universe),
//! this module reruns Definition 4.1 over every ordered method pair
//! (via [`MoverMatrix::build_exhaustive`]) and then reads the *minimal
//! sound footprint assignment* off the resulting conflict graph: two
//! methods may share a key class only if some order of some observable
//! return pair fails to commute, so the connected components of the
//! "not both-mover" graph are exactly the coarsest sound sharding — any
//! finer split would put a conflicting pair on different shards.

use pushpull_core::spec::{observable_rets, SeqSpec};

use crate::matrix::MoverMatrix;

/// Everything inference learns about a spec: the exhaustive mover
/// matrix over the method universe, the conflict-graph components
/// (= minimal sound footprint assignment), and per-method structural
/// facts the certifier uses to grade findings.
#[derive(Debug, Clone)]
pub struct InferredSpec<M> {
    /// The deduplicated method universe, in declaration order. All the
    /// parallel `Vec`s below are indexed by position in this alphabet.
    pub methods: Vec<M>,
    /// The ground-truth mover matrix: every cell decided (`Some`) by the
    /// exhaustive Definition 4.1 derivation, bypassing overrides.
    pub matrix: MoverMatrix<M>,
    /// Conflict-graph component id per method: `components[i] ==
    /// components[j]` iff `i` and `j` are connected through pairs that
    /// fail to commute. Methods in different components provably
    /// commute (transitively through both-movers), so distinct
    /// components may live on distinct shards — this is the minimal
    /// sound footprint cover.
    pub components: Vec<usize>,
    /// Is the method a both-mover against *every* method (itself
    /// included)? Such methods conflict with nothing; routing them
    /// anywhere is sound, so the certifier skips them when judging
    /// whether a declared cover is needlessly coarse.
    pub conflict_free: Vec<bool>,
    /// Does the method observe exactly one return value across the
    /// whole universe? For single-return methods the exhaustive mover
    /// is immune to universe-bound artifacts on the *return* side of
    /// the quantifier, which upgrades some findings from note to
    /// warning (see [`mod@crate::certify`]).
    pub single_ret: Vec<bool>,
}

impl<M: Clone + Eq> InferredSpec<M> {
    /// Position of `m` in [`InferredSpec::methods`].
    pub fn index(&self, m: &M) -> Option<usize> {
        self.methods.iter().position(|x| x == m)
    }

    /// Number of distinct conflict components.
    pub fn component_count(&self) -> usize {
        let mut seen: Vec<usize> = Vec::new();
        for &c in &self.components {
            if !seen.contains(&c) {
                seen.push(c);
            }
        }
        seen.len()
    }
}

/// Derives the ground truth for `spec`, or `None` when the spec does not
/// expose both finite universes (such specs cannot be certified
/// exhaustively; their overrides remain trusted-but-unchecked).
pub fn infer<S: SeqSpec>(spec: &S) -> Option<InferredSpec<S::Method>> {
    let states = spec.state_universe()?;
    let methods_raw = spec.method_universe()?;
    let matrix = MoverMatrix::build_exhaustive(spec, &states, &methods_raw);
    let methods: Vec<S::Method> = matrix.alphabet().to_vec();
    let n = methods.len();

    // Conflict graph: edge iff NOT both-mover. Union-find the components.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let both_mover = |i: usize, j: usize| {
        matrix.proven(&methods[i], &methods[j]) && matrix.proven(&methods[j], &methods[i])
    };
    for i in 0..n {
        for j in (i + 1)..n {
            if !both_mover(i, j) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    // Canonicalize to dense component ids in first-occurrence order.
    let mut components = vec![usize::MAX; n];
    let mut next_id = 0;
    for i in 0..n {
        let root = find(&mut parent, i);
        if components[root] == usize::MAX {
            components[root] = next_id;
            next_id += 1;
        }
        components[i] = components[root];
    }

    let conflict_free: Vec<bool> = (0..n).map(|i| (0..n).all(|j| both_mover(i, j))).collect();
    let single_ret: Vec<bool> = methods
        .iter()
        .map(|m| observable_rets(spec, &states, m).len() == 1)
        .collect();

    Some(InferredSpec {
        methods,
        matrix,
        components,
        conflict_free,
        single_ret,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_spec::counter::Counter;
    use pushpull_spec::kvmap::KvMap;

    #[test]
    fn unbounded_spec_cannot_be_inferred() {
        assert!(infer(&Counter::new()).is_none());
    }

    #[test]
    fn counter_universe_is_one_component() {
        let spec = Counter::with_universe(2);
        let inf = infer(&spec).expect("bounded counter must infer");
        assert!(!inf.methods.is_empty());
        // Get conflicts with Add(k≠0), so everything funnels into the
        // component holding Get — plus possibly a conflict-free island
        // for Add(0) (both-mover with everything keeps its own id only
        // if nothing drags it in).
        let n = inf.methods.len();
        assert_eq!(inf.components.len(), n);
        assert_eq!(inf.conflict_free.len(), n);
        // Every cell of the exhaustive matrix is decided.
        assert!(inf.matrix.cells().iter().all(Option::is_some));
    }

    #[test]
    fn kvmap_components_split_by_key() {
        let spec = KvMap::bounded(vec![0, 1], vec![1]);
        let inf = infer(&spec).expect("bounded kvmap must infer");
        use pushpull_spec::kvmap::MapMethod;
        let (Some(p0), Some(p1)) = (
            inf.index(&MapMethod::Put(0, 1)),
            inf.index(&MapMethod::Put(1, 1)),
        ) else {
            panic!("universe must include Put on both keys: {:?}", inf.methods);
        };
        // Size conflicts with writes on every key, merging the key
        // components through it — but writes on distinct keys must
        // still commute pairwise.
        assert!(inf
            .matrix
            .proven(&MapMethod::Put(0, 1), &MapMethod::Put(1, 1)));
        assert!(inf
            .matrix
            .proven(&MapMethod::Put(1, 1), &MapMethod::Put(0, 1)));
        let _ = (p0, p1);
    }
}
