//! The statement set every slice result carries: a deduplicated `Vec` in
//! a *canonical* order — BFS (distance) order for CI slices, sorted order
//! for CS slices — so equality is deterministic and order-sensitive, and
//! iteration allocates nothing.

use thinslice_ir::StmtRef;
use thinslice_util::FxHashSet;

/// A deduplicated, canonically ordered set of statements in a slice.
///
/// Stored as a plain `Vec` (no hash table): batch queries produce millions
/// of these, and the order — BFS from the seed for CI slices, sorted for
/// CS slices — is part of each engine's contract, so building a hash set
/// per query would cost without informing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmtSet {
    stmts: Vec<StmtRef>,
}

impl StmtSet {
    /// Wraps an already-deduplicated, canonically ordered statement list.
    pub fn from_ordered(stmts: Vec<StmtRef>) -> StmtSet {
        StmtSet { stmts }
    }

    /// Number of statements in the set.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the set is empty (possible only for unreachable seeds).
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Whether the set contains `stmt`. Linear scan: slices are small
    /// relative to the graph, and callers needing many membership tests
    /// should take [`StmtSet::to_hash_set`] once.
    pub fn contains(&self, stmt: StmtRef) -> bool {
        self.stmts.contains(&stmt)
    }

    /// The statements in canonical order (BFS order for CI slices, sorted
    /// for CS slices).
    pub fn in_order(&self) -> &[StmtRef] {
        &self.stmts
    }

    /// Iterates the statements in canonical order.
    pub fn iter(&self) -> std::slice::Iter<'_, StmtRef> {
        self.stmts.iter()
    }

    /// The statements as a hash set, for repeated membership tests or set
    /// algebra.
    pub fn to_hash_set(&self) -> FxHashSet<StmtRef> {
        self.stmts.iter().copied().collect()
    }

    /// Whether every statement of `self` is in `other` (order-insensitive).
    pub fn is_subset(&self, other: &StmtSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let big = other.to_hash_set();
        self.stmts.iter().all(|s| big.contains(s))
    }
}

impl<'a> IntoIterator for &'a StmtSet {
    type Item = &'a StmtRef;
    type IntoIter = std::slice::Iter<'a, StmtRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.stmts.iter()
    }
}

impl From<Vec<StmtRef>> for StmtSet {
    fn from(stmts: Vec<StmtRef>) -> StmtSet {
        StmtSet::from_ordered(stmts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::{BlockId, Loc, MethodId, StmtRef};

    fn s(m: usize, i: usize) -> StmtRef {
        StmtRef {
            method: MethodId::new(m),
            loc: Loc {
                block: BlockId::new(0),
                index: i as u32,
            },
        }
    }

    #[test]
    fn membership_and_order() {
        let set = StmtSet::from_ordered(vec![s(0, 2), s(0, 0), s(1, 1)]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert!(set.contains(s(0, 0)));
        assert!(!set.contains(s(2, 0)));
        assert_eq!(set.in_order()[0], s(0, 2), "insertion order is preserved");
    }

    #[test]
    fn subset_ignores_order() {
        let small = StmtSet::from_ordered(vec![s(0, 1), s(0, 0)]);
        let big = StmtSet::from_ordered(vec![s(0, 0), s(0, 1), s(0, 2)]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
    }

    #[test]
    fn equality_is_order_sensitive() {
        let a = StmtSet::from_ordered(vec![s(0, 0), s(0, 1)]);
        let b = StmtSet::from_ordered(vec![s(0, 1), s(0, 0)]);
        assert_ne!(a, b, "canonical order is part of the contract");
        assert_eq!(a.to_hash_set(), b.to_hash_set());
    }
}
