//! The statement set every slice result carries: deduplicated dense
//! statement ids into the answering graph's shared statement table, in a
//! *canonical* order — BFS (distance) order for CI slices, sorted order
//! for CS slices — so equality is deterministic and order-sensitive, and
//! iteration allocates nothing.

use std::sync::Arc;
use thinslice_ir::StmtRef;
use thinslice_util::FxHashSet;

/// A deduplicated, canonically ordered set of statements in a slice.
///
/// Stored as 4-byte dense ids into the frozen graph's table of display
/// statements (`FrozenSdg::stmt_table` in `thinslice_sdg`), which every
/// answer over that graph shares: batch queries produce millions of
/// statements, and an id is a third of a [`StmtRef`]. The answer keeps
/// its table alive, so it still names its statements after the session
/// that answered it has moved on to an edited program. The order — BFS
/// from the seed for CI slices, sorted for CS slices — is part of each
/// engine's contract, so building a hash set per query would cost without
/// informing.
#[derive(Clone, Default)]
pub struct StmtSet {
    /// Indexes into `table`, in canonical order.
    ids: Vec<u32>,
    /// The statements the ids name, ascending.
    table: Arc<[StmtRef]>,
}

impl StmtSet {
    /// Wraps deduplicated, canonically ordered dense ids into `table`.
    pub(crate) fn from_ids(ids: Vec<u32>, table: &Arc<[StmtRef]>) -> StmtSet {
        StmtSet {
            ids,
            table: Arc::clone(table),
        }
    }

    /// Wraps an already-deduplicated, canonically ordered statement list
    /// over a table of its own: the test-only reference slicers' answers.
    #[cfg(test)]
    pub(crate) fn from_ordered(stmts: Vec<StmtRef>) -> StmtSet {
        let mut table = stmts.clone();
        table.sort_unstable();
        let ids = stmts
            .iter()
            .map(|s| table.binary_search(s).expect("in the table") as u32)
            .collect();
        StmtSet {
            ids,
            table: table.into(),
        }
    }

    /// The table the ids index.
    #[cfg(test)]
    pub(crate) fn table(&self) -> &Arc<[StmtRef]> {
        &self.table
    }

    /// Number of statements in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty (possible only for unreachable seeds).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the set contains `stmt`: a binary search of the table, then
    /// a linear scan of the ids. Callers needing many membership tests
    /// should take [`StmtSet::to_hash_set`] once.
    pub fn contains(&self, stmt: StmtRef) -> bool {
        self.table
            .binary_search(&stmt)
            .is_ok_and(|id| self.ids.contains(&(id as u32)))
    }

    /// Iterates the statements, by value, in canonical order (BFS order
    /// for CI slices, sorted for CS slices).
    pub fn iter(&self) -> StmtIter<'_> {
        StmtIter {
            ids: self.ids.iter(),
            table: &self.table,
        }
    }

    /// The statements as a hash set, for repeated membership tests or set
    /// algebra.
    pub fn to_hash_set(&self) -> FxHashSet<StmtRef> {
        self.iter().collect()
    }

    /// Whether every statement of `self` is in `other` (order-insensitive).
    pub fn is_subset(&self, other: &StmtSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let big = other.to_hash_set();
        self.iter().all(|s| big.contains(&s))
    }
}

/// Equal when both list the same statements in the same order: compared
/// id by id when both share one table, statement by statement otherwise.
impl PartialEq for StmtSet {
    fn eq(&self, other: &StmtSet) -> bool {
        if Arc::ptr_eq(&self.table, &other.table) {
            self.ids == other.ids
        } else {
            self.len() == other.len() && self.iter().eq(other.iter())
        }
    }
}

impl Eq for StmtSet {}

impl std::fmt::Debug for StmtSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StmtSet")
            .field("stmts", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// The statements of a [`StmtSet`], by value, in canonical order.
#[derive(Debug, Clone)]
pub struct StmtIter<'a> {
    ids: std::slice::Iter<'a, u32>,
    table: &'a [StmtRef],
}

impl Iterator for StmtIter<'_> {
    type Item = StmtRef;

    fn next(&mut self) -> Option<StmtRef> {
        self.ids.next().map(|&id| self.table[id as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for StmtIter<'_> {}

impl<'a> IntoIterator for &'a StmtSet {
    type Item = StmtRef;
    type IntoIter = StmtIter<'a>;
    fn into_iter(self) -> StmtIter<'a> {
        self.iter()
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
        assert_eq!(
            set.iter().next(),
            Some(s(0, 2)),
            "insertion order is preserved"
        );
        assert_eq!(set.iter().len(), 3);
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

    #[test]
    fn the_same_statements_over_different_tables_are_equal() {
        let small: Arc<[StmtRef]> = vec![s(0, 1), s(0, 2)].into();
        let large: Arc<[StmtRef]> = vec![s(0, 0), s(0, 1), s(0, 2), s(1, 0)].into();
        let a = StmtSet::from_ids(vec![1, 0], &small);
        let b = StmtSet::from_ids(vec![2, 1], &large);
        assert_eq!(a, b);
        assert_ne!(a, StmtSet::from_ids(vec![1, 2], &large));
        assert_eq!(a, StmtSet::from_ordered(vec![s(0, 2), s(0, 1)]));
    }

    #[test]
    fn the_same_ids_over_tables_of_different_statements_differ() {
        let one: Arc<[StmtRef]> = vec![s(0, 0), s(0, 1)].into();
        let other: Arc<[StmtRef]> = vec![s(0, 0), s(0, 2)].into();
        let a = StmtSet::from_ids(vec![0, 1], &one);
        let b = StmtSet::from_ids(vec![0, 1], &other);
        assert_ne!(a, b);
        assert!(!a.is_subset(&b));
        assert!(!b.contains(s(0, 1)));
        // Over one table the ids decide.
        assert_eq!(a, StmtSet::from_ids(vec![0, 1], &one));
        assert_ne!(a, StmtSet::from_ids(vec![1, 0], &one));
    }

    #[test]
    fn debug_prints_statements() {
        let table: Arc<[StmtRef]> = vec![s(0, 0), s(3, 7)].into();
        let set = StmtSet::from_ids(vec![1, 0], &table);
        let want = format!("StmtSet {{ stmts: {:?} }}", vec![s(3, 7), s(0, 0)]);
        assert_eq!(format!("{set:?}"), want);
        assert_eq!(format!("{:?}", StmtSet::default()), "StmtSet { stmts: [] }");
    }
}
