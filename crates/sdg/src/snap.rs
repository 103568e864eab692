//! Snapshot codecs for dependence graphs (warm-start persistence).
//!
//! Three artifacts round-trip through here: the growable [`Sdg`] (encoded
//! as a replay script — node kinds in intern order plus per-node edge
//! lists — so decoding through [`Sdg::intern`]/[`Sdg::add_edge`] rebuilds
//! every internal index byte-identically), the [`FrozenSdg`] CSR arrays
//! (written verbatim, including the BFS permutation, so a restored graph
//! answers every query in the same order as the one that was frozen), and
//! the [`DownConsumers`] tabulation index (the memo seed the
//! context-sensitive slicer would otherwise rebuild on first use).
//!
//! All encodings are canonical: hash maps are written with sorted keys and
//! verbatim per-key payloads, so encoding the same graph twice yields the
//! same bytes and a decoded graph re-encodes to its input.
//!
//! The frozen graph and the index are decoded into arrays that queries
//! index without bounds reasoning of their own, so their decoders check
//! every value later used as an index — CSR offsets, node ids, the
//! permutation, display ids — and return [`CodecError::Malformed`] on the
//! first violation. A file whose checksum passes but whose structure is
//! wrong is then discarded at restore instead of panicking a query.

use crate::csr::{DownConsumers, FrozenSdg, NO_DISPLAY};
use crate::node::{Edge, EdgeKind, NodeId, NodeKind};
use crate::{HeapMode, Sdg};
use std::sync::OnceLock;
use thinslice_ir::snap::{decode_stmt_ref, encode_stmt_ref};
use thinslice_ir::StmtRef;
use thinslice_pta::{CgNode, PartId};
use thinslice_util::{ByteReader, ByteWriter, CodecError, FxHashMap, Idx, IdxVec};

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

/// Encodes a growable [`Sdg`]: heap mode, node kinds in intern order, then
/// the per-node dependence lists as a degree array plus one flat
/// struct-of-arrays edge block (see `encode_edges`).
pub fn encode_sdg(sdg: &Sdg, w: &mut ByteWriter) {
    w.u8(mode_tag(sdg.mode()));
    w.vusize(sdg.node_count());
    for (_, &kind) in sdg.nodes() {
        node_kind(w, kind);
    }
    let degrees: Vec<u32> = sdg
        .nodes()
        .map(|(id, _)| u32::try_from(sdg.deps(id).len()).expect("node degree fits in u32"))
        .collect();
    w.u32s(&degrees);
    let flat: Vec<Edge> = sdg
        .nodes()
        .flat_map(|(id, _)| sdg.deps(id).iter().copied())
        .collect();
    encode_edges(&flat, w);
}

/// Decodes a graph written by [`encode_sdg`] by replaying its node
/// interning, which rebuilds every internal index (node map, statement
/// map, instance map) exactly as the original build did, then adopting
/// the flat edge block directly: the encoder wrote lists that
/// [`Sdg::add_edge`] had already deduplicated, so restore skips the
/// per-edge dedup scan.
pub fn decode_sdg(r: &mut ByteReader) -> Result<Sdg, CodecError> {
    let mode = d_mode(r)?;
    let mut sdg = Sdg::empty(mode);
    let n = r.vusize()?;
    let cap = n.min(r.remaining());
    sdg.nodes = IdxVec::with_capacity(cap);
    sdg.deps = IdxVec::with_capacity(cap);
    sdg.node_of.reserve(cap);
    sdg.nodes_of_stmt.reserve(cap);
    for i in 0..n {
        let id = sdg.intern(d_node_kind(r)?);
        if id.index() != i {
            return Err(CodecError::Malformed("duplicate sdg node"));
        }
    }
    let degrees = r.u32s()?;
    if degrees.len() != n {
        return Err(CodecError::Malformed("sdg degree array"));
    }
    let (edges, _) = decode_edges(r)?;
    let total: usize = degrees.iter().map(|&d| d as usize).sum();
    if total != edges.len() {
        return Err(CodecError::Malformed("sdg edge count"));
    }
    let mut rest = edges.as_slice();
    for (i, &deg) in degrees.iter().enumerate() {
        let (list, tail) = rest.split_at(deg as usize);
        rest = tail;
        sdg.deps[NodeId::new(i)] = list.to_vec();
    }
    sdg.edge_count = total;
    Ok(sdg)
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

/// Checks that `perm` and `inv` are inverse permutations of `0..n`.
fn check_permutation(perm: &[NodeId], inv: &[NodeId], n: usize) -> bool {
    perm.len() == n
        && inv.len() == n
        && perm.iter().enumerate().fold(true, |ok, (i, p)| {
            ok & inv.get(p.index()).is_some_and(|e| e.index() == i)
        })
}

/// The call-site id a node kind embeds, if any.
fn kind_site(k: &NodeKind) -> Option<NodeId> {
    match *k {
        NodeKind::ActualParam(site, _)
        | NodeKind::ActualIn(site, _)
        | NodeKind::ActualOut(site, _) => Some(site),
        _ => None,
    }
}

/// Encodes a [`DownConsumers`] index (the tabulation memo seed) as four
/// dense `u32` arrays: call sites, exits, offsets, consumers.
pub fn encode_down(down: &DownConsumers, w: &mut ByteWriter) {
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
pub fn decode_down(r: &mut ByteReader, node_count: usize) -> Result<DownConsumers, CodecError> {
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

/// Encodes a [`FrozenSdg`]'s CSR arrays verbatim — including the BFS
/// permutation and the dense display-statement numbering — plus the cached
/// [`DownConsumers`] index if it has been built. The hot arrays use the
/// bulk struct-of-arrays layouts (`encode_edges`, [`ByteWriter::u32s`]).
pub fn encode_frozen(f: &FrozenSdg, w: &mut ByteWriter) {
    w.u8(mode_tag(f.mode));
    w.u32s(&f.offsets);
    encode_edges(&f.edges, w);
    w.vusize(f.kinds.len());
    for &k in &f.kinds {
        node_kind(w, k);
    }
    w.vusize(f.display.len());
    for d in &f.display {
        match d {
            Some(s) => {
                w.bool(true);
                encode_stmt_ref(w, *s);
            }
            None => w.bool(false),
        }
    }
    w.u32s(&f.display_idx);
    w.vusize(f.display_stmts.len());
    for &s in &f.display_stmts {
        encode_stmt_ref(w, s);
    }
    let mut stmts: Vec<&StmtRef> = f.nodes_of_stmt.keys().collect();
    stmts.sort();
    w.vusize(stmts.len());
    for s in stmts {
        encode_stmt_ref(w, *s);
        let nodes: Vec<u32> = f.nodes_of_stmt[s].iter().map(|&n| nid32(n)).collect();
        w.u32s(&nodes);
    }
    let perm: Vec<u32> = f.perm.iter().map(|&p| nid32(p)).collect();
    w.u32s(&perm);
    let inv: Vec<u32> = f.inv.iter().map(|&p| nid32(p)).collect();
    w.u32s(&inv);
    match f.down.get() {
        Some(down) => {
            w.bool(true);
            encode_down(down, w);
        }
        None => w.bool(false),
    }
}

/// Decodes a graph written by [`encode_frozen`]. A serialized
/// [`DownConsumers`] index is seeded into the lazy cache, so the first
/// context-sensitive query after a warm start pays no index-build cost.
///
/// The graph's node count is the length of its node-kind array; the
/// decoder rejects, as [`CodecError::Malformed`], offsets that are not a
/// CSR over the edge array, edge targets and embedded site ids at or past
/// the node count, per-node arrays of another length, display ids outside
/// the display-statement table, a `perm`/`inv` pair that is not a pair of
/// inverse permutations, and statement instance ids outside the graph.
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
        if let Some(site) = kind_site(&kind) {
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
    if r.vusize()? != n {
        return Err(CodecError::Malformed("display array length"));
    }
    let mut display = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        display.push(if r.bool()? {
            Some(decode_stmt_ref(r)?)
        } else {
            None
        });
    }
    let display_idx = r.u32s()?;
    if display_idx.len() != n {
        return Err(CodecError::Malformed("display array length"));
    }
    let n_display_stmts = r.vusize()?;
    // `NO_DISPLAY` is `u32::MAX`, so `d + 1` wraps it to 0: one
    // comparison per entry accepts the sentinel and every id below the
    // statement count.
    const _: () = assert!(NO_DISPLAY == u32::MAX);
    if !display_idx.iter().fold(true, |ok, &d| {
        ok & (d.wrapping_add(1) as usize <= n_display_stmts)
    }) {
        return Err(CodecError::Malformed("display index"));
    }
    let mut display_stmts = Vec::with_capacity(n_display_stmts.min(r.remaining()));
    for _ in 0..n_display_stmts {
        display_stmts.push(decode_stmt_ref(r)?);
    }
    let n_stmts = r.vusize()?;
    let mut nodes_of_stmt: FxHashMap<StmtRef, Vec<NodeId>> =
        FxHashMap::with_capacity_and_hasher(n_stmts.min(r.remaining()), Default::default());
    for _ in 0..n_stmts {
        let s = decode_stmt_ref(r)?;
        let nodes: Vec<NodeId> = r.u32s()?.into_iter().map(d_nid32).collect();
        if nodes.iter().any(|id| id.index() >= n) {
            return Err(CodecError::Malformed("statement node id"));
        }
        nodes_of_stmt.insert(s, nodes);
    }
    let perm: Vec<NodeId> = r.u32s()?.into_iter().map(d_nid32).collect();
    let inv: Vec<NodeId> = r.u32s()?.into_iter().map(d_nid32).collect();
    if !check_permutation(&perm, &inv, n) {
        return Err(CodecError::Malformed("node permutation"));
    }
    let down = OnceLock::new();
    if r.bool()? {
        let _ = down.set(decode_down(r, n)?);
    }
    Ok(FrozenSdg {
        mode,
        offsets,
        edges,
        kinds,
        display,
        display_idx,
        display_stmts,
        nodes_of_stmt,
        perm,
        inv,
        down,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::DepGraph;
    use crate::{build_ci, build_cs};
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

    fn roundtrip_sdg(g: &Sdg) -> Sdg {
        let mut w = ByteWriter::new();
        encode_sdg(g, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_sdg(&mut r).unwrap();
        assert!(r.is_at_end());
        back
    }

    fn assert_frozen_identical(a: &FrozenSdg, b: &FrozenSdg) {
        assert_eq!(a.mode, b.mode);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.kinds, b.kinds);
        assert_eq!(a.display, b.display);
        assert_eq!(a.display_idx, b.display_idx);
        assert_eq!(a.display_stmts, b.display_stmts);
        assert_eq!(a.nodes_of_stmt, b.nodes_of_stmt);
        assert_eq!(a.perm, b.perm);
        assert_eq!(a.inv, b.inv);
    }

    #[test]
    fn sdg_replay_roundtrip_is_identical() {
        for g in [graphs().0, graphs().1] {
            let back = roundtrip_sdg(&g);
            assert!(g.same_graph(&back));
            // The replay must also rebuild the derived indexes: freezing
            // both graphs yields byte-identical CSR arrays.
            assert_frozen_identical(&g.freeze(), &back.freeze());
        }
    }

    #[test]
    fn sdg_encode_is_deterministic() {
        let (ci, _) = graphs();
        let (ci2, _) = graphs();
        let mut w1 = ByteWriter::new();
        let mut w2 = ByteWriter::new();
        encode_sdg(&ci, &mut w1);
        encode_sdg(&ci2, &mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn frozen_roundtrip_preserves_arrays_and_queries() {
        let (ci, cs) = graphs();
        for f in [ci.freeze(), cs.freeze()] {
            let mut w = ByteWriter::new();
            encode_frozen(&f, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = decode_frozen(&mut r).unwrap();
            assert!(r.is_at_end());
            assert_frozen_identical(&f, &back);
            // Query surface: same deps in the same order for every node,
            // same permutation mapping.
            for i in 0..f.node_count() {
                let n = NodeId::new(i);
                assert_eq!(f.deps(n), back.deps(n));
                assert_eq!(f.node(n), back.node(n));
                assert_eq!(f.display_stmt(n), back.display_stmt(n));
                assert_eq!(f.to_internal(n), back.to_internal(n));
                assert_eq!(f.to_external(n), back.to_external(n));
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

    #[test]
    fn snapshot_rejects_display_arrays_of_the_wrong_length() {
        let f = frozen_ci();
        assert_malformed(
            decode_tampered(&f, |g| {
                g.display.pop();
            }),
            "display array length",
        );
        assert_malformed(
            decode_tampered(&f, |g| {
                g.display_idx.pop();
            }),
            "display array length",
        );
    }

    #[test]
    fn snapshot_rejects_display_ids_outside_the_statement_table() {
        let f = frozen_ci();
        let got = decode_tampered(&f, |g| {
            let i = g.display_idx.iter().position(|&d| d != NO_DISPLAY).unwrap();
            g.display_idx[i] = u32::try_from(g.display_stmts.len()).unwrap();
        });
        assert_malformed(got, "display index");
        // The sentinel itself stays legal.
        let ok = decode_tampered(&f, |g| {
            let i = g.display_idx.iter().position(|&d| d != NO_DISPLAY).unwrap();
            g.display_idx[i] = NO_DISPLAY;
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn snapshot_rejects_permutation_entries_outside_the_graph() {
        // Every `perm` entry set to 0xFFFF_FFF0: before this check, the
        // restore succeeded and the first query indexed far out of bounds.
        let f = frozen_ci();
        let got = decode_tampered(&f, |g| {
            for p in g.perm.iter_mut() {
                *p = NodeId::new(0xFFFF_FFF0);
            }
        });
        assert_malformed(got, "node permutation");
    }

    #[test]
    fn snapshot_rejects_a_permutation_that_does_not_invert() {
        let f = frozen_ci();
        // Swapping two `perm` entries keeps it a permutation of 0..n, but
        // `inv` no longer undoes it.
        let got = decode_tampered(&f, |g| g.perm.swap(0, 1));
        assert_malformed(got, "node permutation");
        let got = decode_tampered(&f, |g| {
            g.inv.pop();
        });
        assert_malformed(got, "node permutation");
    }

    #[test]
    fn snapshot_rejects_statement_instances_outside_the_graph() {
        let f = frozen_ci();
        let n = f.kinds.len();
        let got = decode_tampered(&f, |g| {
            g.nodes_of_stmt.values_mut().next().unwrap()[0] = NodeId::new(n);
        });
        assert_malformed(got, "statement node id");
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
    fn truncated_sdg_bytes_are_rejected() {
        let (ci, _) = graphs();
        let mut w = ByteWriter::new();
        encode_sdg(&ci, &mut w);
        let bytes = w.into_bytes();
        for cut in (0..bytes.len()).step_by(61) {
            let mut r = ByteReader::new(&bytes[..cut]);
            match decode_sdg(&mut r) {
                Err(_) => {}
                // A prefix can decode cleanly only if the reader consumed
                // everything and the remainder was pure edge data; the
                // caller's section framing catches that. Here we just
                // require no panic and no trailing garbage acceptance.
                Ok(_) => assert!(r.is_at_end() || r.remaining() > 0),
            }
        }
    }
}
