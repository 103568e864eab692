//! The dependence-graph node set every slice result carries.

use thinslice_sdg::NodeId;

/// The visited dependence-graph nodes of a slice, in the graph's
/// *external* (pre-freeze) numbering.
///
/// Stored as a sorted, deduplicated `Vec` — the node-level counterpart of
/// [`crate::StmtSet`]. Equality, [`NodeSet::len`] and
/// [`NodeSet::contains`] have set meaning, and [`NodeSet::iter`] yields
/// ascending ids. The frozen-graph slicers build it by draining a bitset
/// keyed by external id, so a query pays neither hashing nor a comparison
/// sort for its node set; see [`NodeSet::from_sorted`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    nodes: Vec<NodeId>,
}

impl NodeSet {
    /// Wraps a strictly ascending node list.
    ///
    /// # Panics
    ///
    /// In debug builds, if `nodes` is not strictly ascending.
    pub fn from_sorted(nodes: Vec<NodeId>) -> NodeSet {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "NodeSet::from_sorted needs strictly ascending ids"
        );
        NodeSet { nodes }
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the set contains `n` (binary search).
    pub fn contains(&self, n: &NodeId) -> bool {
        self.nodes.binary_search(n).is_ok()
    }

    /// Iterates the nodes in ascending id order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.nodes.iter()
    }
}

/// Collects in any order, with duplicates: sorts and deduplicates.
impl FromIterator<NodeId> for NodeSet {
    fn from_iter<It: IntoIterator<Item = NodeId>>(iter: It) -> NodeSet {
        let mut nodes: Vec<NodeId> = iter.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        NodeSet { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use thinslice_util::SmallRng;

    fn ids(raw: &[usize]) -> Vec<NodeId> {
        raw.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn sets_from_any_insertion_order_are_equal() {
        let base = ids(&[0, 3, 7, 64, 65, 900]);
        let want = NodeSet::from_sorted(base.clone());
        for seed in 0..16u64 {
            let mut rng = SmallRng::new(seed);
            let mut shuffled = base.clone();
            // Duplicates are folded too.
            shuffled.extend_from_slice(&base[..rng.range_usize(0, base.len())]);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.range_usize(0, i + 1));
            }
            let got: NodeSet = shuffled.into_iter().collect();
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(got.iter().copied().collect::<Vec<_>>(), base);
        }
        assert_eq!(NodeSet::default(), std::iter::empty().collect());
    }

    #[test]
    fn contains_agrees_with_a_hash_set_for_every_id() {
        for seed in 0..16u64 {
            let mut rng = SmallRng::new(seed ^ 0x6e0d);
            let raw: Vec<usize> = (0..rng.range_usize(0, 60))
                .map(|_| rng.range_usize(0, 300))
                .collect();
            let set: NodeSet = ids(&raw).into_iter().collect();
            let reference: HashSet<NodeId> = ids(&raw).into_iter().collect();
            assert_eq!(set.len(), reference.len());
            assert_eq!(set.is_empty(), reference.is_empty());
            for i in 0..320 {
                let n = NodeId::new(i);
                assert_eq!(set.contains(&n), reference.contains(&n), "{n:?}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_input_is_rejected_in_debug_builds() {
        NodeSet::from_sorted(ids(&[4, 2]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_input_is_rejected_in_debug_builds() {
        NodeSet::from_sorted(ids(&[2, 2]));
    }
}
