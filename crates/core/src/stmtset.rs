//! The statement set every slice result carries: deduplicated dense
//! statement ids into the answering graph's shared statement table, in a
//! *canonical* order — BFS (distance) order for CI slices, sorted order
//! for CS slices — so equality is deterministic and order-sensitive, and
//! iteration allocates nothing.
//!
//! Every set is a view of the emission log of the walk that answered it.
//! A walk records each statement once, as (dense id, lanes that newly
//! emit it), in walk order, and [`StmtSet::lanes`] gives every lane a
//! bitmap over the log by a 64×64 bit transpose per block of 64 entries.
//! A lane's ids are the log's entries that hold its bit, in log order. A
//! single CI walk is a walk of one lane that emits every entry of its log
//! ([`StmtSet::from_ids`]).

use std::sync::Arc;
use thinslice_ir::StmtRef;
use thinslice_util::FxHashSet;

/// Bits per bitmap word: each word covers one block of this many log
/// entries.
const BLOCK: usize = u64::BITS as usize;

/// A deduplicated, canonically ordered set of statements in a slice.
///
/// Stored as 4-byte dense ids into the frozen graph's table of display
/// statements (`FrozenSdg::stmt_table` in `thinslice_sdg`), which every
/// answer over that graph shares: batch queries produce millions of
/// statements, and an id is a third of a [`StmtRef`]. The answer keeps
/// its table alive, so it still names its statements after the session
/// that answered it has moved on to an edited program, or been dropped.
/// The order — BFS from the seed for CI slices, sorted for CS slices — is
/// part of each engine's contract, so building a hash set per query would
/// cost without informing.
///
/// The answers of one walk share memory: each is a view of the walk's
/// emission log and of its own lane's bitmap over it, both allocated once
/// per walk, and cloning a set copies no ids. A walk of `L` lanes over a
/// log of `n` entries keeps `4n` bytes of log and `L·⌈n/64⌉` bitmap
/// words, about `4 + L/8` bytes per entry, against 4 bytes per answer
/// statement for a list of ids per lane. So a group's views keep less
/// than such lists only while its entries average more than `1 + L/32`
/// lanes, 3 for a group of 64: a group of 64 full slices of a scale-4
/// generated program keeps about 99 kB against 382 kB, but a group of
/// slices that share few statements keeps up to a few times more. A
/// single walk's answer keeps one bitmap word per 64 statements beside
/// its log. A view kept alone keeps its whole group's log and bitmaps
/// alive.
#[derive(Clone, Default)]
pub struct StmtSet {
    /// The answering walk's emission log: dense ids into `table`.
    log: Arc<[u32]>,
    /// One word per block of `log` for each lane of the walk, lane by
    /// lane: bit `j` of lane `l`'s word `b` says that entry `64b + j`
    /// is in lane `l`'s answer.
    bits: Arc<[u64]>,
    /// This set's lane, and the number of entries that hold its bit.
    lane: usize,
    len: usize,
    /// The statements the ids name, ascending.
    table: Arc<[StmtRef]>,
}

/// Transposes a 64×64 bit matrix in place: bit `j` of `rows[i]` and bit
/// `i` of `rows[j]` trade places. Each round swaps the two off-diagonal
/// blocks of every diagonal block twice its width, from 32 down to 1
/// (Hacker's Delight, §7-3).
fn transpose(rows: &mut [u64; BLOCK]) {
    let mut width = BLOCK / 2;
    // The low `width` bits of every `2 * width`-bit field.
    let mut low = u64::MAX >> width;
    while width > 0 {
        for pair in rows.chunks_exact_mut(2 * width) {
            let (top, bottom) = pair.split_at_mut(width);
            for (a, b) in top.iter_mut().zip(bottom) {
                let t = ((*a >> width) ^ *b) & low;
                *a ^= t << width;
                *b ^= t;
            }
        }
        width /= 2;
        low ^= low << width;
    }
}

impl StmtSet {
    /// Wraps deduplicated, canonically ordered dense ids into `table`: the
    /// answer of a walk of one lane, which emits every entry it logs.
    pub(crate) fn from_ids(ids: &[u32], table: &Arc<[StmtRef]>) -> StmtSet {
        StmtSet {
            log: ids.into(),
            bits: (0..ids.len())
                .step_by(BLOCK)
                .map(|at| u64::MAX >> BLOCK.saturating_sub(ids.len() - at))
                .collect(),
            lane: 0,
            len: ids.len(),
            table: Arc::clone(table),
        }
    }

    /// The answers of a lane walk of `lanes` queries, lane by lane, from
    /// its emission log: entry `k` says that the lanes set in `masks[k]`
    /// emit dense id `ids[k]` of `table`. Lane `l`'s answer lists the ids
    /// of the entries holding bit `l`, in log order, so the log must name
    /// each id at most once per lane, in each lane's canonical order.
    ///
    /// Each block of 64 entries is transposed into one word per lane. The
    /// log and the bitmaps are each copied into one allocation, which
    /// every answer shares.
    pub(crate) fn lanes(
        ids: &[u32],
        masks: &[u64],
        lanes: usize,
        table: &Arc<[StmtRef]>,
    ) -> Vec<StmtSet> {
        assert_eq!(ids.len(), masks.len(), "one mask per log entry");
        let blocks = masks.len().div_ceil(BLOCK);
        let mut bits: Arc<[u64]> = std::iter::repeat_n(0, lanes * blocks).collect();
        let words = Arc::get_mut(&mut bits).expect("a new allocation has one owner");
        let mut block = [0u64; BLOCK];
        for (b, chunk) in masks.chunks(BLOCK).enumerate() {
            block[..chunk.len()].copy_from_slice(chunk);
            block[chunk.len()..].fill(0);
            transpose(&mut block);
            for (l, &word) in block[..lanes].iter().enumerate() {
                words[l * blocks + b] = word;
            }
        }
        let log: Arc<[u32]> = ids.into();
        (0..lanes)
            .map(|lane| {
                let words = &bits[lane * blocks..][..blocks];
                StmtSet {
                    log: Arc::clone(&log),
                    bits: Arc::clone(&bits),
                    lane,
                    len: words.iter().map(|w| w.count_ones() as usize).sum(),
                    table: Arc::clone(table),
                }
            })
            .collect()
    }

    /// Wraps an already-deduplicated, canonically ordered statement list
    /// over a table of its own: the test-only reference slicers' answers.
    #[cfg(test)]
    pub(crate) fn from_ordered(stmts: Vec<StmtRef>) -> StmtSet {
        let mut table = stmts.clone();
        table.sort_unstable();
        let ids: Vec<u32> = stmts
            .iter()
            .map(|s| table.binary_search(s).expect("in the table") as u32)
            .collect();
        StmtSet::from_ids(&ids, &table.into())
    }

    /// The table the ids index.
    #[cfg(test)]
    pub(crate) fn table(&self) -> &Arc<[StmtRef]> {
        &self.table
    }

    /// The dense ids, in canonical order.
    fn ids(&self) -> IdIter<'_> {
        let blocks = self.log.len().div_ceil(BLOCK);
        let (&word, words) = self.bits[self.lane * blocks..][..blocks]
            .split_first()
            .unwrap_or((&0, &[]));
        IdIter {
            words: words.iter(),
            log: &self.log,
            base: 0,
            word,
            left: self.len,
        }
    }

    /// Number of statements in the set.
    pub fn len(&self) -> usize {
        self.ids().len()
    }

    /// Whether the set is empty (possible only for unreachable seeds).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the set contains `stmt`: a binary search of the table, then
    /// a linear scan of the ids. Callers needing many membership tests
    /// should take [`StmtSet::to_hash_set`] once.
    pub fn contains(&self, stmt: StmtRef) -> bool {
        (self.table.binary_search(&stmt)).is_ok_and(|id| self.ids().any(|d| d == id as u32))
    }

    /// Iterates the statements, by value, in canonical order (BFS order
    /// for CI slices, sorted for CS slices).
    pub fn iter(&self) -> StmtIter<'_> {
        StmtIter {
            ids: self.ids(),
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

/// Equal when both list the same statements in the same order, whatever
/// walks answered them: compared id by id when both share one table,
/// statement by statement otherwise.
impl PartialEq for StmtSet {
    fn eq(&self, other: &StmtSet) -> bool {
        self.len() == other.len()
            && if Arc::ptr_eq(&self.table, &other.table) {
                self.ids().eq(other.ids())
            } else {
                self.iter().eq(other.iter())
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

/// A set's dense ids, in canonical order: the lane's bitmap words after
/// the current one, the log, the log index of the current word's first
/// bit, the current word's bits not yet read, and the number of ids left.
#[derive(Debug, Clone)]
struct IdIter<'a> {
    words: std::slice::Iter<'a, u64>,
    log: &'a [u32],
    base: usize,
    word: u64,
    left: usize,
}

impl Iterator for IdIter<'_> {
    type Item = u32;

    // Runs once per statement, mostly in other crates' loops over answers
    // (the CLI, the daemon's renderer), which inline it only when marked:
    // a call per statement made iterating a view nearly twice as slow.
    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            self.word = *self.words.next()?;
            self.base += BLOCK;
        }
        let j = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        self.left -= 1;
        Some(self.log[self.base + j])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for IdIter<'_> {}

/// The statements of a [`StmtSet`], by value, in canonical order.
#[derive(Debug, Clone)]
pub struct StmtIter<'a> {
    ids: IdIter<'a>,
    table: &'a [StmtRef],
}

impl Iterator for StmtIter<'_> {
    type Item = StmtRef;

    #[inline]
    fn next(&mut self) -> Option<StmtRef> {
        self.ids.next().map(|id| self.table[id as usize])
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
    use thinslice_util::SmallRng;

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
        let a = StmtSet::from_ids(&[1, 0], &small);
        let b = StmtSet::from_ids(&[2, 1], &large);
        assert_eq!(a, b);
        assert_ne!(a, StmtSet::from_ids(&[1, 2], &large));
        assert_eq!(a, StmtSet::from_ordered(vec![s(0, 2), s(0, 1)]));
    }

    #[test]
    fn the_same_ids_over_tables_of_different_statements_differ() {
        let one: Arc<[StmtRef]> = vec![s(0, 0), s(0, 1)].into();
        let other: Arc<[StmtRef]> = vec![s(0, 0), s(0, 2)].into();
        let a = StmtSet::from_ids(&[0, 1], &one);
        let b = StmtSet::from_ids(&[0, 1], &other);
        assert_ne!(a, b);
        assert!(!a.is_subset(&b));
        assert!(!b.contains(s(0, 1)));
        // Over one table the ids decide.
        assert_eq!(a, StmtSet::from_ids(&[0, 1], &one));
        assert_ne!(a, StmtSet::from_ids(&[1, 0], &one));
    }

    #[test]
    fn debug_prints_statements() {
        let table: Arc<[StmtRef]> = vec![s(0, 0), s(3, 7)].into();
        let set = StmtSet::from_ids(&[1, 0], &table);
        let want = format!("StmtSet {{ stmts: {:?} }}", vec![s(3, 7), s(0, 0)]);
        assert_eq!(format!("{set:?}"), want);
        assert_eq!(format!("{:?}", StmtSet::default()), "StmtSet { stmts: [] }");
    }

    /// The transpose one bit at a time.
    fn naive_transpose(rows: &[u64; BLOCK]) -> [u64; BLOCK] {
        let mut out = [0u64; BLOCK];
        for (i, row) in rows.iter().enumerate() {
            for (j, col) in out.iter_mut().enumerate() {
                *col |= (row >> j & 1) << i;
            }
        }
        out
    }

    #[test]
    fn transpose_matches_the_bit_by_bit_transpose() {
        let mut rng = SmallRng::new(0x7a05_b175);
        let mut cases: Vec<[u64; BLOCK]> = vec![[0; BLOCK], [u64::MAX; BLOCK]];
        cases.extend((0..BLOCK).map(|k| {
            let mut rows = [0; BLOCK];
            rows[k] = 1 << (BLOCK - 1 - k);
            rows
        }));
        cases.extend((0..200).map(|_| std::array::from_fn(|_| rng.next_u64())));
        for rows in cases {
            let mut got = rows;
            transpose(&mut got);
            assert_eq!(got, naive_transpose(&rows), "{rows:x?}");
            transpose(&mut got);
            assert_eq!(got, rows, "a transpose is its own inverse");
        }
    }

    #[test]
    fn lane_views_list_their_lanes_log_entries() {
        // Each lane's view against the log read one entry at a time, for
        // logs on both sides of a block boundary and masks of no lane,
        // every lane, one lane per entry, and seeded random lanes.
        let table: Arc<[StmtRef]> = (0..100).map(|i| s(i / 10, i % 10)).collect();
        let mut rng = SmallRng::new(0x10_9f00d);
        for entries in [0, 1, 63, 64, 65, 200] {
            for lanes in [1, 2, 63, 64] {
                let every = u64::MAX >> (BLOCK - lanes);
                let ids: Vec<u32> = (0..entries).map(|k| (k * 7 % 100) as u32).collect();
                for pattern in ["none", "every", "single", "random"] {
                    let masks: Vec<u64> = (0..entries)
                        .map(|k| match pattern {
                            "none" => 0,
                            "every" => every,
                            "single" => 1 << (k * 5 % lanes),
                            _ => rng.next_u64() & every,
                        })
                        .collect();
                    let views = StmtSet::lanes(&ids, &masks, lanes, &table);
                    assert_eq!(views.len(), lanes);
                    for (l, view) in views.iter().enumerate() {
                        let at = format!("{entries} entries, lane {l} of {lanes}, {pattern}");
                        let want: Vec<u32> = (ids.iter().zip(&masks))
                            .filter(|&(_, m)| m >> l & 1 == 1)
                            .map(|(&d, _)| d)
                            .collect();
                        assert_eq!(view.ids().collect::<Vec<_>>(), want, "{at}");
                        assert_eq!(view.len(), want.len(), "{at}");
                        assert_eq!(view.iter().len(), want.len(), "{at}");
                        let single = StmtSet::from_ids(&want, &table);
                        assert_eq!(*view, single, "{at}");
                        assert_eq!(single, *view, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_single_walks_answer_lists_its_whole_log() {
        let table: Arc<[StmtRef]> = (0..100).map(|i| s(i / 10, i % 10)).collect();
        for entries in [0, 1, 63, 64, 65, 128, 200] {
            let ids: Vec<u32> = (0..entries).map(|k| (k * 7 % 100) as u32).collect();
            let set = StmtSet::from_ids(&ids, &table);
            assert_eq!(set.ids().collect::<Vec<_>>(), ids, "{entries} entries");
            assert_eq!((set.len(), set.iter().len()), (entries, entries));
            assert_eq!(set.bits.len(), entries.div_ceil(BLOCK));
        }
    }

    #[test]
    fn lane_views_answer_like_single_walk_answers() {
        let table: Arc<[StmtRef]> = vec![s(0, 0), s(0, 1), s(1, 0), s(2, 5)].into();
        // Lane 0 emits 3, 0, 2; lane 1 emits 2, 3; lane 2 emits nothing.
        let (ids, masks) = ([3, 0, 2, 3], [0b001, 0b001, 0b011, 0b010]);
        let views = StmtSet::lanes(&ids, &masks, 3, &table);
        let [view, other, empty] = &views[..] else {
            panic!("one view per lane")
        };
        let single = StmtSet::from_ids(&[3, 0, 2], &table);
        assert_eq!(*view, single);
        // The same statements over a table of other ids.
        let wider: Arc<[StmtRef]> = vec![s(0, 0), s(0, 1), s(0, 2), s(1, 0), s(2, 5)].into();
        assert_eq!(*view, StmtSet::from_ids(&[4, 0, 3], &wider));
        assert_eq!(StmtSet::from_ids(&[4, 0, 3], &wider), *view);
        assert_ne!(*view, StmtSet::from_ids(&[0, 3, 2], &table), "order counts");
        assert_ne!(*view, StmtSet::from_ids(&[0, 3, 4], &wider), "order counts");
        assert_ne!(*view, *other);
        assert_eq!(*other, StmtSet::from_ids(&[2, 3], &table));
        assert_eq!((view.len(), view.iter().len()), (3, 3));
        assert!(!view.is_empty());
        assert!(view.contains(s(2, 5)) && view.contains(s(0, 0)));
        assert!(!view.contains(s(0, 1)) && !view.contains(s(9, 9)));
        assert_eq!(view.to_hash_set(), single.to_hash_set());
        assert!(other.is_subset(view) && !view.is_subset(other));
        assert!(view.is_subset(&single) && single.is_subset(view));
        assert_eq!(format!("{view:?}"), format!("{single:?}"));
        assert_eq!(view.iter().collect::<Vec<_>>(), [s(2, 5), s(0, 0), s(1, 0)]);
        // A lane that emitted nothing.
        assert!(empty.is_empty());
        assert_eq!((empty.len(), empty.iter().next()), (0, None));
        assert_eq!(*empty, StmtSet::default());
        assert!(empty.is_subset(view) && !empty.contains(s(0, 0)));
        assert_eq!(format!("{empty:?}"), "StmtSet { stmts: [] }");
        // A clone shares the log.
        assert_eq!(view.clone(), *view);
    }
}
