//! A dense, growable bitset keyed by typed indices.

use crate::Idx;
use std::fmt;
use std::marker::PhantomData;

const WORD_BITS: usize = 64;

/// A dense bitset over a typed index domain.
///
/// Used for points-to sets, reachability sets and slice membership. The set
/// grows on demand; all operations are O(words).
///
/// # Examples
///
/// ```
/// use thinslice_util::BitSet;
///
/// let mut s: BitSet<usize> = BitSet::new();
/// assert!(s.insert(3));
/// assert!(!s.insert(3));
/// assert!(s.contains(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet<I: Idx = usize> {
    words: Vec<u64>,
    _marker: PhantomData<fn(I)>,
}

impl<I: Idx> Default for BitSet<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Idx> BitSet<I> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            words: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates an empty set sized for a domain of `n` elements.
    pub fn with_domain_size(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(WORD_BITS)],
            _marker: PhantomData,
        }
    }

    fn ensure(&mut self, word: usize) {
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
    }

    /// Inserts `index`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, index: I) -> bool {
        let i = index.index();
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.ensure(w);
        let mask = 1u64 << b;
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        newly
    }

    /// Removes `index`; returns `true` if it was present.
    pub fn remove(&mut self, index: I) -> bool {
        let i = index.index();
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Whether `index` is in the set.
    pub fn contains(&self, index: I) -> bool {
        let i = index.index();
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.count_ones()
    }

    /// Number of set bits, summed word-at-a-time with hardware popcount.
    ///
    /// This is the bulk cardinality fast path the wavefront slicer uses
    /// between levels: no per-element iteration, just one `count_ones` per
    /// 64-element word.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Adds all elements of `other`; returns `true` if anything changed.
    pub fn union_with(&mut self, other: &Self) -> bool {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Adds all elements of `other`, recording every *newly added* element
    /// into `delta`; returns `true` if anything changed.
    ///
    /// This is the primitive behind difference propagation in the points-to
    /// solver: the worklist carries only the bits that actually changed.
    pub fn union_with_delta(&mut self, other: &Self, delta: &mut Self) -> bool {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (i, (a, &b)) in self.words.iter_mut().zip(&other.words).enumerate() {
            let fresh = b & !*a;
            if fresh != 0 {
                changed = true;
                *a |= b;
                delta.ensure(i);
                delta.words[i] |= fresh;
            }
        }
        changed
    }

    /// Keeps only elements also in `other`.
    pub fn intersect_with(&mut self, other: &Self) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Removes all elements of `other` from `self`.
    pub fn subtract(&mut self, other: &Self) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= !other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Whether the two sets share any element.
    pub fn intersects(&self, other: &Self) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &a)| a & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Drains the set into `out` in increasing index order, clearing every
    /// word it visits. One pass over the words: the wavefront slicer uses
    /// this to turn a level's discovery bits into a node list and reset the
    /// set for the next level without a second clearing pass.
    pub fn drain_into(&mut self, out: &mut Vec<I>) {
        self.drain_words(0, self.words.len(), out);
    }

    /// [`Self::drain_into`] restricted to the words that hold `lo..=hi`:
    /// O(words spanned + elements drained) however large the set's domain.
    /// Elements that share a boundary word with `lo` or `hi` are drained
    /// too; words outside the span are left untouched. A caller that knows
    /// the least and greatest element it inserted uses this to read a
    /// sparse set back in sorted order — and leave it empty — without a
    /// full scan.
    pub fn drain_span_into(&mut self, lo: I, hi: I, out: &mut Vec<I>) {
        let end = (hi.index() / WORD_BITS + 1).min(self.words.len());
        self.drain_words(lo.index() / WORD_BITS, end, out);
    }

    fn drain_words(&mut self, start: usize, end: usize, out: &mut Vec<I>) {
        if start >= end {
            return;
        }
        for (wi, w) in self.words[start..end].iter_mut().enumerate() {
            let mut bits = *w;
            *w = 0;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push(I::from_usize((start + wi) * WORD_BITS + b));
            }
        }
    }

    /// The raw 64-bit words backing the set, for exact-fidelity
    /// serialization. Word `w` holds elements `w*64 .. w*64+63`; trailing
    /// zero words are preserved (they participate in `Eq`/`Hash`).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a set from raw words previously taken via [`Self::as_words`].
    pub fn from_words(words: Vec<u64>) -> Self {
        Self {
            words,
            _marker: PhantomData,
        }
    }

    /// Iterates over the elements in increasing index order.
    pub fn iter(&self) -> BitSetIter<'_, I> {
        BitSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            _marker: PhantomData,
        }
    }
}

impl<I: Idx> fmt::Debug for BitSet<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|i| i.index()))
            .finish()
    }
}

impl<I: Idx> FromIterator<I> for BitSet<I> {
    fn from_iter<It: IntoIterator<Item = I>>(iter: It) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl<I: Idx> Extend<I> for BitSet<I> {
    fn extend<It: IntoIterator<Item = I>>(&mut self, iter: It) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over [`BitSet`] elements, produced by [`BitSet::iter`].
pub struct BitSetIter<'a, I: Idx> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    _marker: PhantomData<fn(I)>,
}

impl<I: Idx> Iterator for BitSetIter<'_, I> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(I::from_usize(self.word_idx * WORD_BITS + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmallRng;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut s: BitSet = BitSet::new();
        assert!(s.insert(100));
        assert!(s.contains(100));
        assert!(!s.contains(99));
        assert!(s.remove(100));
        assert!(!s.remove(100));
        assert!(s.is_empty());
    }

    #[test]
    fn union_reports_change() {
        let mut a: BitSet = [1usize, 2].into_iter().collect();
        let b: BitSet = [2usize, 3].into_iter().collect();
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn intersect_and_subtract() {
        let mut a: BitSet = [1usize, 2, 3, 64, 65].into_iter().collect();
        let b: BitSet = [2usize, 64].into_iter().collect();
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![2, 64]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3, 65]);
    }

    #[test]
    fn intersects_and_subset() {
        let a: BitSet = [1usize, 70].into_iter().collect();
        let b: BitSet = [70usize].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        let empty: BitSet = BitSet::new();
        assert!(!a.intersects(&empty));
        assert!(empty.is_subset(&a));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let elems = [0usize, 63, 64, 127, 128, 500];
        let s: BitSet = elems.into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), elems.to_vec());
    }

    #[test]
    fn count_ones_agrees_with_iteration_across_word_boundaries() {
        let elems = [0usize, 1, 62, 63, 64, 65, 126, 127, 128, 191, 192, 1000];
        let s: BitSet = elems.into_iter().collect();
        assert_eq!(s.count_ones(), elems.len());
        assert_eq!(s.count_ones(), s.iter().count());
        assert_eq!(BitSet::<usize>::new().count_ones(), 0);
    }

    #[test]
    fn bulk_ops_handle_mismatched_domains() {
        // `a` spans one word, `b` grew far past it: union must grow `a`,
        // subtract/intersect must not index out of bounds in either
        // direction.
        let mut a: BitSet = [3usize, 63].into_iter().collect();
        let b: BitSet = [63usize, 64, 500].into_iter().collect();
        assert!(a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 63, 64, 500]);

        let mut wide: BitSet = [0usize, 64, 500].into_iter().collect();
        let narrow: BitSet = [0usize].into_iter().collect();
        wide.subtract(&narrow);
        assert_eq!(wide.iter().collect::<Vec<_>>(), vec![64, 500]);
        let mut shrink = narrow.clone();
        shrink.subtract(&wide);
        assert_eq!(shrink.iter().collect::<Vec<_>>(), vec![0]);
        shrink.intersect_with(&wide);
        assert!(shrink.is_empty());
    }

    #[test]
    fn domain_growth_preserves_existing_bits() {
        let mut s: BitSet = BitSet::with_domain_size(64);
        assert!(s.insert(63));
        // Inserting past the sized domain grows the word array.
        assert!(s.insert(64));
        assert!(s.insert(4096));
        assert!(s.contains(63) && s.contains(64) && s.contains(4096));
        assert_eq!(s.count_ones(), 3);
        s.clear();
        assert!(s.is_empty());
        assert!(s.insert(4096), "clear keeps the grown allocation usable");
    }

    #[test]
    fn drain_into_empties_in_order() {
        let elems = [0usize, 63, 64, 127, 128, 300];
        let mut s: BitSet = elems.into_iter().collect();
        let mut out = Vec::new();
        s.drain_into(&mut out);
        assert_eq!(out, elems.to_vec());
        assert!(s.is_empty());
        // Draining an already-empty set appends nothing.
        s.drain_into(&mut out);
        assert_eq!(out.len(), elems.len());
    }

    #[test]
    fn drain_span_into_visits_only_the_spanned_words() {
        let mut s: BitSet = [70usize, 130, 200, 640].into_iter().collect();
        let mut out = Vec::new();
        // 130..=200 spans words 2..=3; 200's word also holds nothing else,
        // 70 (word 1) and 640 (word 10) stay.
        s.drain_span_into(130, 200, &mut out);
        assert_eq!(out, vec![130, 200]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![70, 640]);
        // A boundary word is drained whole, and a span past the domain is
        // clamped.
        out.clear();
        s.drain_span_into(64, 5000, &mut out);
        assert_eq!(out, vec![70, 640]);
        assert!(s.is_empty());
        // Inverted and empty spans drain nothing.
        s.insert(3);
        out.clear();
        s.drain_span_into(200, 100, &mut out);
        assert!(out.is_empty());
        s.drain_span_into(3, 3, &mut out);
        assert_eq!(out, vec![3]);
        let mut empty: BitSet = BitSet::new();
        empty.drain_span_into(0, 1000, &mut out);
        assert_eq!(out, vec![3], "an empty set drains nothing");
    }

    #[test]
    fn drain_span_into_sorts_any_insertion_order() {
        for seed in 0..24u64 {
            let mut rng = SmallRng::new(seed ^ 0xd7a1);
            let mut s: BitSet = BitSet::new();
            let mut reference = BTreeSet::new();
            let (mut lo, mut hi) = (usize::MAX, 0);
            for _ in 0..rng.range_usize(1, 80) {
                let v = rng.range_usize(0, 2000);
                s.insert(v);
                reference.insert(v);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let mut out = Vec::new();
            s.drain_span_into(lo, hi, &mut out);
            assert_eq!(out, reference.into_iter().collect::<Vec<_>>());
            assert!(s.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn matches_btreeset_semantics() {
        // Deterministic randomized differential test against BTreeSet.
        for seed in 0..24u64 {
            let mut rng = SmallRng::new(seed);
            let mut bs: BitSet = BitSet::new();
            let mut reference = BTreeSet::new();
            for _ in 0..200 {
                let v = rng.range_usize(0, 300);
                if rng.bool() {
                    assert_eq!(
                        bs.insert(v),
                        reference.insert(v),
                        "insert {v} (seed {seed})"
                    );
                } else {
                    assert_eq!(
                        bs.remove(v),
                        reference.remove(&v),
                        "remove {v} (seed {seed})"
                    );
                }
            }
            assert_eq!(bs.len(), reference.len());
            assert_eq!(
                bs.iter().collect::<Vec<_>>(),
                reference.into_iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn union_is_set_union() {
        for seed in 0..24u64 {
            let mut rng = SmallRng::new(seed ^ 0xabcd);
            let a: BTreeSet<usize> = (0..rng.range_usize(0, 50))
                .map(|_| rng.range_usize(0, 200))
                .collect();
            let b: BTreeSet<usize> = (0..rng.range_usize(0, 50))
                .map(|_| rng.range_usize(0, 200))
                .collect();
            let mut x: BitSet = a.iter().copied().collect();
            let y: BitSet = b.iter().copied().collect();
            x.union_with(&y);
            let expect: Vec<_> = a.union(&b).copied().collect();
            assert_eq!(x.iter().collect::<Vec<_>>(), expect, "seed {seed}");
        }
    }

    #[test]
    fn union_with_delta_records_exactly_the_new_bits() {
        for seed in 0..24u64 {
            let mut rng = SmallRng::new(seed ^ 0x5eed);
            let a: BTreeSet<usize> = (0..rng.range_usize(0, 60))
                .map(|_| rng.range_usize(0, 300))
                .collect();
            let b: BTreeSet<usize> = (0..rng.range_usize(0, 60))
                .map(|_| rng.range_usize(0, 300))
                .collect();
            let mut x: BitSet = a.iter().copied().collect();
            let y: BitSet = b.iter().copied().collect();
            let mut delta: BitSet = BitSet::new();
            let changed = x.union_with_delta(&y, &mut delta);
            let expect_delta: Vec<_> = b.difference(&a).copied().collect();
            assert_eq!(
                delta.iter().collect::<Vec<_>>(),
                expect_delta,
                "seed {seed}"
            );
            assert_eq!(changed, !expect_delta.is_empty());
            let expect_union: Vec<_> = a.union(&b).copied().collect();
            assert_eq!(x.iter().collect::<Vec<_>>(), expect_union);
            // Accumulation: a second union with the same set adds nothing.
            let mut delta2: BitSet = BitSet::new();
            assert!(!x.union_with_delta(&y, &mut delta2));
            assert!(delta2.is_empty());
        }
    }
}
