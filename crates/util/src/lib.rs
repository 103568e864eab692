#![warn(missing_docs)]

//! Small data-structure utilities shared by the thin-slicing crates.
//!
//! The analysis crates index almost everything densely (classes, methods,
//! variables, statements, abstract objects…). This crate provides:
//!
//! * [`new_index!`] — a macro declaring a typed index newtype,
//! * [`IdxVec`] — a `Vec` indexed by such a newtype,
//! * [`BitSet`] — a dense bitset used for points-to sets and slice sets,
//! * [`codec`] — a hand-rolled binary codec (varints, section tables,
//!   xxHash64 checksums) backing the persistent snapshot format,
//! * [`Worklist`] — a FIFO worklist with membership dedup,
//! * [`FxHashMap`]/[`FxHashSet`] — fast non-DoS-resistant hashing for the
//!   analyses' internal tables,
//! * [`par`] — the default worker-thread count for batched queries and
//!   its `THINSLICE_THREADS` override,
//! * [`govern`] — resource budgets, cancellation and truncation labels
//!   shared by every analysis stage,
//! * [`telemetry`] — tracing spans, a metrics registry and JSON run
//!   reports, zero-cost when disabled,
//! * [`RunCtx`] — the run-wide context bundling telemetry + budget,
//!   threaded as one parameter through every pipeline stage,
//! * [`SmallRng`] — a deterministic PRNG for generators and tests,
//! * [`panic_message`] — the text of a caught panic, for the batch
//!   engine's and the daemon's panic isolation.
//!
//! # Examples
//!
//! ```
//! use thinslice_util::{new_index, IdxVec};
//!
//! new_index!(pub struct NodeId);
//! let mut names: IdxVec<NodeId, String> = IdxVec::new();
//! let n = names.push("entry".to_string());
//! assert_eq!(names[n], "entry");
//! ```

mod bitset;
pub mod codec;
mod fx;
pub mod govern;
mod idxvec;
pub mod par;
mod rng;
pub mod runctx;
pub mod telemetry;
mod worklist;

pub use bitset::{BitSet, BitSetIter};
pub use codec::{ByteReader, ByteWriter, CodecError, SnapshotReader, SnapshotWriter};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use govern::{Budget, CancelToken, Completeness, ExhaustReason, Meter, Outcome};
pub use idxvec::IdxVec;
pub use rng::SmallRng;
pub use runctx::RunCtx;
pub use telemetry::{
    FlightEvent, FlightKind, FlightRecorder, Histogram, MetricsRegistry, RunReport, Telemetry,
};
pub use worklist::Worklist;

/// The message of a caught panic: its `&str` or `String` payload, or a
/// placeholder for a payload of any other type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Types usable as dense indices into [`IdxVec`] and [`BitSet`].
///
/// Implemented automatically by [`new_index!`]; implement it manually only
/// for types that are already small dense integers.
pub trait Idx: Copy + Eq + std::hash::Hash + std::fmt::Debug + 'static {
    /// Builds an index from a raw `usize`.
    fn from_usize(i: usize) -> Self;
    /// Returns the raw `usize` behind the index.
    fn index(self) -> usize;
}

impl Idx for usize {
    #[inline]
    fn from_usize(i: usize) -> Self {
        i
    }
    #[inline]
    fn index(self) -> usize {
        self
    }
}

impl Idx for u32 {
    #[inline]
    fn from_usize(i: usize) -> Self {
        u32::try_from(i).expect("index exceeds u32")
    }
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Declares a dense index newtype wrapping a `u32`.
///
/// The generated type implements [`Idx`], ordering and formatting traits, and
/// a `const fn new` plus `raw()` accessor.
///
/// # Examples
///
/// ```
/// use thinslice_util::{new_index, Idx};
/// new_index!(pub struct BlockId);
/// let b = BlockId::new(3);
/// assert_eq!(b.index(), 3);
/// assert_eq!(format!("{b:?}"), "BlockId(3)");
/// ```
#[macro_export]
macro_rules! new_index {
    ($(#[$meta:meta])* $vis:vis struct $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name(u32);

        impl $name {
            /// Creates the index from a raw `usize`.
            ///
            /// # Panics
            ///
            /// Panics if `i` does not fit in a `u32`.
            #[inline]
            $vis fn new(i: usize) -> Self {
                assert!(i <= u32::MAX as usize, "index exceeds u32");
                Self(i as u32)
            }

            /// Returns the raw numeric value.
            #[inline]
            #[allow(dead_code)] // part of the generated API; not every index type uses it
            $vis fn raw(self) -> u32 {
                self.0
            }
        }

        impl $crate::Idx for $name {
            #[inline]
            fn from_usize(i: usize) -> Self {
                Self::new(i)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    new_index!(pub struct TestId);

    #[test]
    fn new_index_roundtrip() {
        let t = TestId::new(42);
        assert_eq!(t.index(), 42);
        assert_eq!(t.raw(), 42);
        assert_eq!(TestId::from_usize(42), t);
    }

    #[test]
    fn new_index_ordering() {
        assert!(TestId::new(1) < TestId::new(2));
        assert_eq!(TestId::new(7), TestId::new(7));
    }

    #[test]
    fn new_index_display() {
        assert_eq!(TestId::new(9).to_string(), "9");
        assert_eq!(format!("{:?}", TestId::new(9)), "TestId(9)");
    }

    #[test]
    #[should_panic(expected = "index exceeds u32")]
    fn new_index_overflow_panics() {
        let _ = TestId::new(u32::MAX as usize + 1);
    }
}
