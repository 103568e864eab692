//! Snapshot codecs for dependence graphs (warm-start persistence).
//!
//! A dependence graph is persisted in one encoding: the [`FrozenSdg`]'s
//! primary arrays — heap mode, CSR offsets and edges, and node kinds —
//! plus its [`DownConsumers`] tabulation index when that has been built.
//! The decoder hands the arrays to the same constructor
//! [`Sdg::freeze`](crate::Sdg::freeze) ends in, which derives the dense
//! display numbering and the statement map, so a restored graph answers
//! every query in the same order as the one that was frozen. No growable
//! graph is stored, and none is rebuilt from a decoded one: queries walk
//! the decoded graph, and an edit compares the graph it rebuilds from the
//! program with it ([`FrozenSdg::is_freeze_of`]).
//!
//! The encoding is canonical: encoding the same graph twice yields the
//! same bytes, and a decoded graph re-encodes to its input.
//!
//! The decoded arrays are indexed by queries, and by the derivation,
//! without bounds reasoning of their own, so the decoder checks every
//! value later used as an index — CSR offsets, node ids, the index's keys,
//! offsets and consumers — and returns [`CodecError::Malformed`] on the
//! first violation. A file whose checksum passes but whose structure is
//! wrong is then discarded at restore instead of panicking a query.

use crate::csr::{DownConsumers, FrozenSdg};
use crate::node::{Edge, EdgeKind, NodeId, NodeKind};
use crate::HeapMode;
use thinslice_ir::snap::{decode_stmt_ref, encode_stmt_ref};
use thinslice_pta::{CgNode, PartId};
use thinslice_util::{ByteReader, ByteWriter, CodecError, Idx};

fn mode_tag(m: HeapMode) -> u8 {
    match m {
        HeapMode::DirectEdges => 0,
        HeapMode::Parameters => 1,
    }
}

fn d_mode(r: &mut ByteReader) -> Result<HeapMode, CodecError> {
    match r.u8()? {
        0 => Ok(HeapMode::DirectEdges),
        1 => Ok(HeapMode::Parameters),
        _ => Err(CodecError::Malformed("heap mode")),
    }
}

fn node_kind(w: &mut ByteWriter, k: NodeKind) {
    let cg = |w: &mut ByteWriter, n: CgNode| w.vu64(n.index() as u64);
    let nid = |w: &mut ByteWriter, n: NodeId| w.vu64(n.index() as u64);
    let part = |w: &mut ByteWriter, p: PartId| w.vu64(p.index() as u64);
    match k {
        NodeKind::Stmt(n, s) => {
            w.u8(0);
            cg(w, n);
            encode_stmt_ref(w, s);
        }
        NodeKind::Entry(n) => {
            w.u8(1);
            cg(w, n);
        }
        NodeKind::FormalParam(n, i) => {
            w.u8(2);
            cg(w, n);
            w.vu64(u64::from(i));
        }
        NodeKind::ActualParam(site, i) => {
            w.u8(3);
            nid(w, site);
            w.vu64(u64::from(i));
        }
        NodeKind::RetMerge(n) => {
            w.u8(4);
            cg(w, n);
        }
        NodeKind::FormalIn(n, p) => {
            w.u8(5);
            cg(w, n);
            part(w, p);
        }
        NodeKind::FormalOut(n, p) => {
            w.u8(6);
            cg(w, n);
            part(w, p);
        }
        NodeKind::ActualIn(site, p) => {
            w.u8(7);
            nid(w, site);
            part(w, p);
        }
        NodeKind::ActualOut(site, p) => {
            w.u8(8);
            nid(w, site);
            part(w, p);
        }
        NodeKind::MethodHeap(n, p) => {
            w.u8(9);
            cg(w, n);
            part(w, p);
        }
    }
}

fn d_node_kind(r: &mut ByteReader) -> Result<NodeKind, CodecError> {
    Ok(match r.u8()? {
        0 => NodeKind::Stmt(r.vidx()?, decode_stmt_ref(r)?),
        1 => NodeKind::Entry(r.vidx()?),
        2 => NodeKind::FormalParam(r.vidx()?, r.vu64()? as u32),
        3 => NodeKind::ActualParam(r.vidx()?, r.vu64()? as u32),
        4 => NodeKind::RetMerge(r.vidx()?),
        5 => NodeKind::FormalIn(r.vidx()?, r.vidx()?),
        6 => NodeKind::FormalOut(r.vidx()?, r.vidx()?),
        7 => NodeKind::ActualIn(r.vidx()?, r.vidx()?),
        8 => NodeKind::ActualOut(r.vidx()?, r.vidx()?),
        9 => NodeKind::MethodHeap(r.vidx()?, r.vidx()?),
        _ => return Err(CodecError::Malformed("node kind")),
    })
}

/// A [`NodeId`] as a dense `u32` (the CSR arrays already cap node and
/// edge counts at `u32`, so this cannot truncate on any freezable graph).
fn nid32(n: NodeId) -> u32 {
    u32::try_from(n.index()).expect("node id fits in u32")
}

fn d_nid32(v: u32) -> NodeId {
    NodeId::new(v as usize)
}

/// One byte per edge kind. `Flow`'s `excluded_from_thin` flag is folded
/// into the tag (0/1) so the hot arrays stay branch-light; only param
/// edges carry a payload (the call site), written to a separate trailing
/// varint stream.
fn edge_tag(k: &EdgeKind) -> u8 {
    match k {
        EdgeKind::Flow {
            excluded_from_thin: false,
        } => 0,
        EdgeKind::Flow {
            excluded_from_thin: true,
        } => 1,
        EdgeKind::Control => 2,
        EdgeKind::Call => 3,
        EdgeKind::ParamIn { .. } => 4,
        EdgeKind::ParamOut { .. } => 5,
        EdgeKind::Summary => 6,
    }
}

/// Writes a flat edge slice as struct-of-arrays: dense `u32` targets,
/// raw tag bytes, then the param-edge call sites as varints. Decoding
/// pays one bounds check per array instead of one branchy varint per
/// element, which is where most of the warm-start time used to go.
fn encode_edges(edges: &[Edge], w: &mut ByteWriter) {
    let targets: Vec<u32> = edges.iter().map(|e| nid32(e.target)).collect();
    w.u32s(&targets);
    for e in edges {
        w.u8(edge_tag(&e.kind));
    }
    for e in edges {
        if let EdgeKind::ParamIn { site } | EdgeKind::ParamOut { site } = e.kind {
            w.vu64(site.index() as u64);
        }
    }
}

/// Decodes a flat edge array written by `encode_edges`, with one past the
/// largest node id any edge holds (target or call site), so a caller that
/// learns the node count later can range-check every id without a second
/// pass over the edges.
fn decode_edges(r: &mut ByteReader) -> Result<(Vec<Edge>, usize), CodecError> {
    let targets = r.u32s()?;
    // The tag bytes borrow from the reader's buffer, but the param-site
    // stream after them needs the cursor back, so copy them out first.
    let tags = r.raw(targets.len())?.to_vec();
    let mut edges = Vec::with_capacity(targets.len());
    let mut ids_below = 0usize;
    for (&target, &tag) in targets.iter().zip(&tags) {
        ids_below = ids_below.max(target as usize + 1);
        let kind = match tag {
            0 => EdgeKind::Flow {
                excluded_from_thin: false,
            },
            1 => EdgeKind::Flow {
                excluded_from_thin: true,
            },
            2 => EdgeKind::Control,
            3 => EdgeKind::Call,
            4 | 5 => {
                let site: NodeId = r.vidx()?;
                ids_below = ids_below.max(site.index() + 1);
                if tag == 4 {
                    EdgeKind::ParamIn { site }
                } else {
                    EdgeKind::ParamOut { site }
                }
            }
            6 => EdgeKind::Summary,
            _ => return Err(CodecError::Malformed("edge kind")),
        };
        edges.push(Edge {
            target: d_nid32(target),
            kind,
        });
    }
    Ok((edges, ids_below))
}

/// Checks CSR row offsets: `rows + 1` entries, starting at 0, never
/// decreasing, ending at `len` (the length of the array they index).
fn check_offsets(offsets: &[u32], rows: usize, len: usize) -> bool {
    // Folds without short-circuiting, so the scan vectorises.
    offsets.len() == rows + 1
        && offsets[0] == 0
        && offsets[rows] as usize == len
        && offsets
            .iter()
            .zip(&offsets[1..])
            .fold(true, |ok, (a, b)| ok & (a <= b))
}

/// Encodes the tabulation's down-edge index, a [`DownConsumers`], as four
/// dense `u32` arrays: call sites, exits, offsets, consumers.
fn encode_down(down: &DownConsumers, w: &mut ByteWriter) {
    let sites: Vec<u32> = down.keys.iter().map(|&(site, _)| nid32(site)).collect();
    let exits: Vec<u32> = down.keys.iter().map(|&(_, exit)| nid32(exit)).collect();
    w.u32s(&sites);
    w.u32s(&exits);
    w.u32s(&down.offsets);
    let consumers: Vec<u32> = down.consumers.iter().map(|&c| nid32(c)).collect();
    w.u32s(&consumers);
}

/// Decodes an index written by [`encode_down`] for a graph of
/// `node_count` nodes. Rejects keys that are not strictly ascending (the
/// lookup binary-searches them), offsets that leave the consumer array,
/// and consumer ids outside the graph.
fn decode_down(r: &mut ByteReader, node_count: usize) -> Result<DownConsumers, CodecError> {
    let sites = r.u32s()?;
    let exits = r.u32s()?;
    if sites.len() != exits.len() {
        return Err(CodecError::Malformed("down key arrays"));
    }
    let keys: Vec<(NodeId, NodeId)> = sites
        .iter()
        .zip(&exits)
        .map(|(&s, &e)| (d_nid32(s), d_nid32(e)))
        .collect();
    if !keys.windows(2).all(|w| w[0] < w[1]) {
        return Err(CodecError::Malformed("down keys not ascending"));
    }
    let offsets = r.u32s()?;
    let consumers: Vec<NodeId> = r.u32s()?.into_iter().map(d_nid32).collect();
    if !check_offsets(&offsets, keys.len(), consumers.len()) {
        return Err(CodecError::Malformed("down offsets"));
    }
    if consumers.iter().any(|c| c.index() >= node_count) {
        return Err(CodecError::Malformed("down consumer id"));
    }
    Ok(DownConsumers {
        keys,
        offsets,
        consumers,
    })
}

/// Encodes a [`FrozenSdg`]'s primary arrays — heap mode, CSR offsets and
/// edges, node kinds — plus the cached [`DownConsumers`] index if it has
/// been built. The hot arrays use the bulk struct-of-arrays layouts
/// (`encode_edges`, [`ByteWriter::u32s`]).
pub fn encode_frozen(f: &FrozenSdg, w: &mut ByteWriter) {
    w.u8(mode_tag(f.mode));
    w.u32s(&f.offsets);
    encode_edges(&f.edges, w);
    w.vusize(f.kinds.len());
    for &k in &f.kinds {
        node_kind(w, k);
    }
    match f.down.get() {
        Some(down) => {
            w.bool(true);
            encode_down(down, w);
        }
        None => w.bool(false),
    }
}

/// Decodes a graph written by [`encode_frozen`] and derives the rest of it
/// as [`Sdg::freeze`](crate::Sdg::freeze) does. A serialized
/// [`DownConsumers`] index is seeded into the lazy cache, so the first
/// context-sensitive query after a warm start pays no index-build cost.
///
/// The graph's node count is the length of its node-kind array; the
/// decoder rejects, as [`CodecError::Malformed`], offsets that are not a
/// CSR over the edge array, edge targets and embedded site ids at or past
/// the node count, and an index that does not fit the graph (see
/// `decode_down`).
pub fn decode_frozen(r: &mut ByteReader) -> Result<FrozenSdg, CodecError> {
    // No check takes a separate pass over the edges: decoding them
    // already records the largest id they hold.
    let mode = d_mode(r)?;
    let offsets = r.u32s()?;
    let (edges, edge_ids) = decode_edges(r)?;
    let n = r.vusize()?;
    let mut kinds = Vec::with_capacity(n.min(r.remaining()));
    let mut kind_ids = 0usize;
    for _ in 0..n {
        let kind = d_node_kind(r)?;
        if let Some(site) = kind.site() {
            kind_ids = kind_ids.max(site.index() + 1);
        }
        kinds.push(kind);
    }
    if !check_offsets(&offsets, n, edges.len()) {
        return Err(CodecError::Malformed("csr offsets"));
    }
    if edge_ids > n {
        return Err(CodecError::Malformed("csr edge node id"));
    }
    if kind_ids > n {
        return Err(CodecError::Malformed("node kind site id"));
    }
    let down = if r.bool()? {
        Some(decode_down(r, n)?)
    } else {
        None
    };
    let f = FrozenSdg::from_parts(mode, offsets, edges, kinds);
    if let Some(down) = down {
        let _ = f.down.set(down);
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::DepGraph;
    use crate::{build_ci, build_cs, Sdg};
    use thinslice_ir::compile;
    use thinslice_pta::{ModRef, Pta, PtaConfig};

    const SRC: &str = r#"
        class Main {
            static void main() {
                Box b = new Box();
                b.set(7);
                int v = b.get();
                if (v > 3) { print(v); } else { print(0); }
            }
        }
        class Box {
            int val;
            void set(int v) { this.val = v; }
            int get() { return this.val; }
        }
    "#;

    fn graphs() -> (Sdg, Sdg) {
        let program = compile(&[("t.mj", SRC)]).unwrap();
        let pta = Pta::analyze(&program, PtaConfig::default());
        let modref = ModRef::compute(&program, &pta);
        (build_ci(&program, &pta), build_cs(&program, &pta, &modref))
    }

    fn encode(f: &FrozenSdg) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_frozen(f, &mut w);
        w.into_bytes()
    }

    /// Same primary arrays, and the same derived answers for every node.
    fn assert_frozen_identical(a: &FrozenSdg, b: &FrozenSdg) {
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.kinds, b.kinds);
        assert_eq!(a.stmt_table(), b.stmt_table());
        for i in 0..a.node_count() {
            let n = NodeId::new(i);
            assert_eq!(a.display_stmt(n), b.display_stmt(n));
            assert_eq!(a.display_dense(n), b.display_dense(n));
            if let Some(s) = a.node(n).as_stmt() {
                assert_eq!(a.stmt_nodes_of(s), b.stmt_nodes_of(s));
            }
        }
    }

    #[test]
    fn snapshot_repeated_node_kinds_are_no_freeze_of_the_source() {
        let (ci, _) = graphs();
        let f = ci.freeze();
        assert!(f.is_freeze_of(&ci));
        let mut bad = f.clone();
        bad.kinds[1] = bad.kinds[0];
        // The decoder does not check kinds for uniqueness. The comparison
        // an edit runs tells the graph from its source, so the edit
        // replaces it.
        let decoded = decode_frozen(&mut ByteReader::new(&encode(&bad))).unwrap();
        assert!(!decoded.is_freeze_of(&ci));
    }

    #[test]
    fn frozen_roundtrip_preserves_arrays_and_queries() {
        let (ci, cs) = graphs();
        for f in [ci.freeze(), cs.freeze()] {
            let bytes = encode(&f);
            let mut r = ByteReader::new(&bytes);
            let back = decode_frozen(&mut r).unwrap();
            assert!(r.is_at_end());
            assert_frozen_identical(&f, &back);
            assert_eq!(
                encode(&back),
                bytes,
                "a decoded graph re-encodes to its input"
            );
            // Query surface: same deps in the same order for every node.
            for i in 0..f.node_count() {
                let n = NodeId::new(i);
                assert_eq!(f.deps(n), back.deps(n));
                assert_eq!(f.node(n), back.node(n));
            }
        }
    }

    #[test]
    fn frozen_roundtrip_carries_down_consumers_seed() {
        let (_, cs) = graphs();
        let f = cs.freeze();
        // Force-build the index, then snapshot: the restored graph must
        // answer down_consumers() without rebuilding (we check equality of
        // the index contents via lookups over every key).
        let built = f.down_consumers().clone();
        let mut w = ByteWriter::new();
        encode_frozen(&f, &mut w);
        let bytes = w.into_bytes();
        let back = decode_frozen(&mut ByteReader::new(&bytes)).unwrap();
        let seeded = back.down.get().expect("down index seeded from snapshot");
        assert_eq!(built.keys, seeded.keys);
        assert_eq!(built.offsets, seeded.offsets);
        assert_eq!(built.consumers, seeded.consumers);

        // Without the force-build, the flag is absent and the restored
        // graph builds the identical index lazily.
        let f2 = cs.freeze();
        let mut w2 = ByteWriter::new();
        encode_frozen(&f2, &mut w2);
        let bytes2 = w2.into_bytes();
        let back2 = decode_frozen(&mut ByteReader::new(&bytes2)).unwrap();
        assert!(back2.down.get().is_none());
        let lazy = back2.down_consumers();
        assert_eq!(built.keys, lazy.keys);
        assert_eq!(built.offsets, lazy.offsets);
        assert_eq!(built.consumers, lazy.consumers);
    }

    /// Encodes `f` after `tamper` edits a copy of it, then decodes.
    fn decode_tampered(
        f: &FrozenSdg,
        tamper: impl FnOnce(&mut FrozenSdg),
    ) -> Result<(), CodecError> {
        let mut bad = f.clone();
        tamper(&mut bad);
        let mut w = ByteWriter::new();
        encode_frozen(&bad, &mut w);
        let bytes = w.into_bytes();
        decode_frozen(&mut ByteReader::new(&bytes)).map(|_| ())
    }

    /// The frozen CI graph of [`SRC`], with its down-edge index built so
    /// the embedded index is part of the encoding.
    fn frozen_ci() -> FrozenSdg {
        let f = graphs().0.freeze();
        f.down_consumers();
        assert!(
            decode_tampered(&f, |_| {}).is_ok(),
            "untampered graph decodes"
        );
        f
    }

    fn assert_malformed(got: Result<(), CodecError>, what: &'static str) {
        assert_eq!(got, Err(CodecError::Malformed(what)));
    }

    #[test]
    fn snapshot_rejects_csr_offsets_of_the_wrong_length() {
        let f = frozen_ci();
        let got = decode_tampered(&f, |g| {
            let last = *g.offsets.last().unwrap();
            g.offsets.push(last);
        });
        assert_malformed(got, "csr offsets");
    }

    #[test]
    fn snapshot_rejects_csr_offsets_not_starting_at_zero() {
        let f = frozen_ci();
        let got = decode_tampered(&f, |g| {
            // Raise the leading zero run to 1: still non-decreasing and
            // still ending at the edge count.
            for o in g.offsets.iter_mut().take_while(|o| **o == 0) {
                *o = 1;
            }
        });
        assert_malformed(got, "csr offsets");
    }

    #[test]
    fn snapshot_rejects_decreasing_csr_offsets() {
        let f = frozen_ci();
        let got = decode_tampered(&f, |g| {
            let n = g.kinds.len();
            let i = (1..n).find(|&i| g.offsets[i] < g.offsets[i + 1]).unwrap();
            g.offsets[i] = g.offsets[i + 1] + 1;
        });
        assert_malformed(got, "csr offsets");
    }

    #[test]
    fn snapshot_rejects_csr_offsets_not_ending_at_the_edge_count() {
        let f = frozen_ci();
        let got = decode_tampered(&f, |g| {
            g.edges.pop();
        });
        assert_malformed(got, "csr offsets");
    }

    #[test]
    fn snapshot_rejects_edge_targets_outside_the_graph() {
        let f = frozen_ci();
        let n = f.kinds.len();
        let got = decode_tampered(&f, |g| g.edges[0].target = NodeId::new(n));
        assert_malformed(got, "csr edge node id");
    }

    #[test]
    fn snapshot_rejects_edge_call_sites_outside_the_graph() {
        let f = frozen_ci();
        let n = f.kinds.len();
        let got = decode_tampered(&f, |g| {
            let e = g
                .edges
                .iter_mut()
                .find(|e| matches!(e.kind, EdgeKind::ParamIn { .. }))
                .expect("the program has calls");
            e.kind = EdgeKind::ParamIn {
                site: NodeId::new(n),
            };
        });
        assert_malformed(got, "csr edge node id");
    }

    #[test]
    fn snapshot_rejects_node_kind_call_sites_outside_the_graph() {
        let f = frozen_ci();
        let n = f.kinds.len();
        let got = decode_tampered(&f, |g| {
            let k = g
                .kinds
                .iter_mut()
                .find(|k| matches!(k, NodeKind::ActualParam(..)))
                .expect("the program passes arguments");
            if let NodeKind::ActualParam(_, i) = *k {
                *k = NodeKind::ActualParam(NodeId::new(n), i);
            }
        });
        assert_malformed(got, "node kind site id");
    }

    /// Encodes `f` with one id, stored by `place`, widened to 2^32 — a
    /// 5-byte varint no `u32` index holds. `place` stores `u32::MAX` and
    /// `u32::MAX - 1` in two encodings (5-byte varints too); the first
    /// byte where they differ starts the varint to overwrite.
    fn encode_with_wide_id(f: &FrozenSdg, place: impl Fn(&mut FrozenSdg, NodeId)) -> Vec<u8> {
        let encode = |id: u32| {
            let mut g = f.clone();
            place(&mut g, NodeId::new(id as usize));
            let mut w = ByteWriter::new();
            encode_frozen(&g, &mut w);
            w.into_bytes()
        };
        let (mut bytes, other) = (encode(u32::MAX), encode(u32::MAX - 1));
        let at = bytes.iter().zip(&other).position(|(a, b)| a != b).unwrap();
        let mut wide = ByteWriter::new();
        wide.vu64(1 << 32);
        bytes.splice(at..at + 5, wide.into_bytes());
        bytes
    }

    #[test]
    fn snapshot_rejects_edge_call_site_ids_wider_than_u32() {
        let bytes = encode_with_wide_id(&frozen_ci(), |g, site| {
            let e = g
                .edges
                .iter_mut()
                .find(|e| matches!(e.kind, EdgeKind::ParamIn { .. }))
                .expect("the program has calls");
            e.kind = EdgeKind::ParamIn { site };
        });
        let got = decode_frozen(&mut ByteReader::new(&bytes)).map(|_| ());
        assert_malformed(got, "index");
    }

    #[test]
    fn snapshot_rejects_node_kind_call_site_ids_wider_than_u32() {
        let bytes = encode_with_wide_id(&frozen_ci(), |g, site| {
            let k = g
                .kinds
                .iter_mut()
                .find(|k| matches!(k, NodeKind::ActualParam(..)))
                .expect("the program passes arguments");
            if let NodeKind::ActualParam(_, i) = *k {
                *k = NodeKind::ActualParam(site, i);
            }
        });
        let got = decode_frozen(&mut ByteReader::new(&bytes)).map(|_| ());
        assert_malformed(got, "index");
    }

    #[test]
    fn snapshot_rejects_a_node_kind_array_of_the_wrong_length() {
        // The node count is the kind array's length, so a short kind
        // array shows as offsets that do not fit it.
        let f = frozen_ci();
        let got = decode_tampered(&f, |g| {
            g.kinds.pop();
        });
        assert_malformed(got, "csr offsets");
    }

    fn decode_down_tampered(
        down: &DownConsumers,
        n: usize,
        tamper: impl FnOnce(&mut DownConsumers),
    ) -> Result<DownConsumers, CodecError> {
        let mut bad = down.clone();
        tamper(&mut bad);
        let mut w = ByteWriter::new();
        encode_down(&bad, &mut w);
        let bytes = w.into_bytes();
        decode_down(&mut ByteReader::new(&bytes), n)
    }

    /// The CS graph's index, which has several keys.
    fn down_index() -> (DownConsumers, usize) {
        let f = graphs().1.freeze();
        let down = f.down_consumers().clone();
        assert!(down.keys.len() >= 2, "the program has several call sites");
        let n = f.kinds.len();
        assert!(decode_down_tampered(&down, n, |_| {}).is_ok());
        (down, n)
    }

    #[test]
    fn snapshot_rejects_down_keys_out_of_order() {
        let (down, n) = down_index();
        let got = decode_down_tampered(&down, n, |d| d.keys.swap(0, 1));
        assert_eq!(
            got.unwrap_err(),
            CodecError::Malformed("down keys not ascending")
        );
        let got = decode_down_tampered(&down, n, |d| d.keys[1] = d.keys[0]);
        assert_eq!(
            got.unwrap_err(),
            CodecError::Malformed("down keys not ascending")
        );
    }

    #[test]
    fn snapshot_rejects_down_offsets_outside_the_consumers() {
        let (down, n) = down_index();
        let got = decode_down_tampered(&down, n, |d| {
            *d.offsets.last_mut().unwrap() += 1;
        });
        assert_eq!(got.unwrap_err(), CodecError::Malformed("down offsets"));
        let got = decode_down_tampered(&down, n, |d| {
            d.offsets.pop();
        });
        assert_eq!(got.unwrap_err(), CodecError::Malformed("down offsets"));
    }

    #[test]
    fn snapshot_rejects_down_consumers_outside_the_graph() {
        let (down, n) = down_index();
        let got = decode_down_tampered(&down, n, |d| d.consumers[0] = NodeId::new(n));
        assert_eq!(got.unwrap_err(), CodecError::Malformed("down consumer id"));
    }

    #[test]
    fn snapshot_rejects_an_embedded_index_that_does_not_fit_its_graph() {
        // The frozen graph's embedded index is checked against the graph's
        // own node count.
        let (_, cs) = graphs();
        let f = cs.freeze();
        f.down_consumers();
        let n = f.kinds.len();
        let got = decode_tampered(&f, |g| {
            let mut down = g.down.take().unwrap();
            down.consumers[0] = NodeId::new(n);
            let _ = g.down.set(down);
        });
        assert_eq!(got, Err(CodecError::Malformed("down consumer id")));
    }

    #[test]
    fn snapshot_rejects_truncated_graph_bytes() {
        // The CS graph, with its index embedded: every strict prefix of
        // the encoding ends inside some array, or before the index flag.
        let f = graphs().1.freeze();
        f.down_consumers();
        let bytes = encode(&f);
        for cut in 0..bytes.len() {
            assert!(
                decode_frozen(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "cut at {cut} of {}",
                bytes.len()
            );
        }
    }
}
