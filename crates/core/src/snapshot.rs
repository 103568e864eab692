//! Warm-start snapshot persistence: content-hash-keyed session files.
//!
//! An [`AnalysisSession`]'s stage artifacts (program, points-to, frozen
//! graphs with their tabulation index) are pure functions of the source
//! text and the points-to configuration, so once built they can be
//! persisted and adopted by any later process analysing the same
//! sources. The file format is the versioned section container of
//! [`thinslice_util::SnapshotWriter`]: magic, format version, the program
//! content hash as the key, a section table, and a trailing whole-file
//! checksum.
//!
//! The contract at every integration point is *fallback, never failure*:
//! a missing file, a truncated or bit-flipped file, a version skew, a key
//! or configuration mismatch, or a failed integrity cross-check all make
//! [`SnapshotStore::load`] return `None`, and the caller builds from
//! sources exactly as it would have without a snapshot directory. A
//! restored session answers every query bit-identically to a freshly
//! built one; nothing downstream can observe which path produced it.

use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use crate::session::AnalysisSession;
use thinslice_pta::PtaConfig;
use thinslice_util::{FxHasher, RunCtx};

/// Magic bytes of a session snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSNP";

/// Version of the session snapshot format. Bumped on any section layout
/// change; files carrying any other version are discarded and rebuilt.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The 16-hex-digit content hash of a source set: an order-sensitive
/// FxHash over every file name and text. Deterministic across runs and
/// platforms; this is the snapshot key and file stem, and matches the
/// slice daemon's program key for the same sources.
pub fn source_hash(sources: &[(&str, &str)]) -> String {
    let mut h = FxHasher::default();
    for (name, text) in sources {
        name.hash(&mut h);
        text.hash(&mut h);
    }
    format!("{:016x}", h.finish())
}

/// Outcome of [`SnapshotStore::try_load`].
#[derive(Debug)]
pub enum SnapshotLoad {
    /// No snapshot file exists for this key.
    Missing,
    /// A file existed but failed validation — truncation, a bit flip,
    /// version skew, or a key/config/integrity mismatch. Treat it as
    /// stale; the caller may [`SnapshotStore::invalidate`] it.
    Discarded,
    /// Warm start succeeded; the session answers queries bit-identically
    /// to a freshly built one.
    Loaded(Box<AnalysisSession>),
}

/// A directory of warm-start snapshots, one `<key>.tsnap` file per
/// program content hash.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> SnapshotStore {
        SnapshotStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a snapshot keyed `key` lives at.
    pub fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.tsnap"))
    }

    /// Persists `session`'s built stages under `key`, atomically (write
    /// to a temp file, then rename). Returns the byte size written, or
    /// `None` when the session declined to snapshot (a truncated stage)
    /// or any I/O step failed — persistence is best-effort and never
    /// surfaces an error to the query path.
    pub fn save(&self, session: &AnalysisSession, key: &str) -> Option<u64> {
        let bytes = session.write_snapshot(key)?;
        fs::create_dir_all(&self.dir).ok()?;
        let tmp = self.dir.join(format!(".{key}.tsnap.tmp"));
        fs::write(&tmp, &bytes).ok()?;
        if fs::rename(&tmp, self.path(key)).is_err() {
            let _ = fs::remove_file(&tmp);
            return None;
        }
        Some(bytes.len() as u64)
    }

    /// Attempts a warm start from the snapshot keyed `key`. Any missing
    /// file, corruption, version skew, or integrity mismatch returns
    /// `None`; the caller then builds from sources.
    pub fn load(&self, key: &str, config: PtaConfig, ctx: RunCtx) -> Option<AnalysisSession> {
        match self.try_load(key, config, ctx) {
            SnapshotLoad::Loaded(session) => Some(*session),
            SnapshotLoad::Missing | SnapshotLoad::Discarded => None,
        }
    }

    /// Like [`SnapshotStore::load`], but distinguishes "no file" from
    /// "file present but unusable" so callers can count corruption
    /// discards separately from plain cache misses. Both non-loaded
    /// outcomes still mean the same thing operationally: build from
    /// sources.
    pub fn try_load(&self, key: &str, config: PtaConfig, ctx: RunCtx) -> SnapshotLoad {
        let Ok(bytes) = fs::read(self.path(key)) else {
            return SnapshotLoad::Missing;
        };
        match AnalysisSession::from_snapshot(&bytes, key, config, ctx) {
            Some(session) => SnapshotLoad::Loaded(Box::new(session)),
            None => SnapshotLoad::Discarded,
        }
    }

    /// Removes the snapshot keyed `key` (e.g. when a reload supersedes
    /// the sources it was built from). Returns whether a file was
    /// removed.
    pub fn invalidate(&self, key: &str) -> bool {
        fs::remove_file(self.path(key)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_hash_is_order_and_content_sensitive() {
        let a = source_hash(&[("a.mj", "class A {}"), ("b.mj", "class B {}")]);
        let b = source_hash(&[("b.mj", "class B {}"), ("a.mj", "class A {}")]);
        let c = source_hash(&[("a.mj", "class A {}"), ("b.mj", "class B { }")]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            source_hash(&[("a.mj", "class A {}"), ("b.mj", "class B {}")])
        );
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn store_paths_are_key_addressed() {
        let store = SnapshotStore::new("/tmp/snaps");
        assert_eq!(
            store.path("00ff"),
            PathBuf::from("/tmp/snaps").join("00ff.tsnap")
        );
    }
}
