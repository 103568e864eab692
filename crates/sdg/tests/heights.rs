//! `FrozenSdg::heights`: each node's longest path, counted in strongly
//! connected components, to a component with no outgoing edge, over the
//! edges a slice kind follows. The definition is pinned on a hand-built
//! graph; on real graphs the table is checked against its edges, read
//! back equal from snapshot bytes, and built on a small stack.

use thinslice_ir::{compile, BlockId, Loc, MethodId, StmtRef};
use thinslice_pta::{CgNode, ModRef, Pta, PtaConfig};
use thinslice_sdg::snap::{decode_frozen, encode_frozen};
use thinslice_sdg::{
    build_ci, build_cs, DepGraph, Edge, EdgeKind, FrozenSdg, HeapMode, NodeId, NodeKind, Sdg,
    SliceKind,
};
use thinslice_suite::{all_benchmarks, generate, GeneratorConfig};
use thinslice_util::{ByteReader, ByteWriter, Idx};

const KINDS: [SliceKind; 3] = [
    SliceKind::Thin,
    SliceKind::TraditionalData,
    SliceKind::TraditionalFull,
];

fn stmt(i: u32) -> NodeKind {
    NodeKind::Stmt(
        CgNode::new(0),
        StmtRef {
            method: MethodId::new(0),
            loc: Loc {
                block: BlockId::new(0),
                index: i,
            },
        },
    )
}

const FLOW: EdgeKind = EdgeKind::Flow {
    excluded_from_thin: false,
};

#[test]
fn heights_count_components_down_to_a_sink() {
    // a → b → c ⇄ d → e, an isolated f, and e's control edge to g, which
    // only the full slicer follows.
    let mut g = Sdg::empty(HeapMode::DirectEdges);
    let [a, b, c, d, e, f, gg] = [0, 1, 2, 3, 4, 5, 6].map(|i| g.intern(stmt(i)));
    for (from, to, kind) in [
        (a, b, FLOW),
        (b, c, FLOW),
        (c, d, FLOW),
        (d, c, FLOW),
        (d, e, FLOW),
        (e, gg, EdgeKind::Control),
    ] {
        g.add_edge(from, Edge { target: to, kind });
    }
    let frozen = g.freeze();
    let at = |kind, n: NodeId| frozen.heights(kind)[n.index()];
    for kind in [SliceKind::Thin, SliceKind::TraditionalData] {
        // e has no deps this kind follows; f and g have none at all.
        assert_eq!([e, f, gg].map(|n| at(kind, n)), [0, 0, 0], "{kind:?}");
        assert_eq!((at(kind, c), at(kind, d)), (1, 1), "{kind:?}: the cycle");
        assert_eq!((at(kind, b), at(kind, a)), (2, 3), "{kind:?}: the chain");
    }
    let full = SliceKind::TraditionalFull;
    assert_eq!([gg, f, e].map(|n| at(full, n)), [0, 0, 1]);
    assert_eq!([c, d, b, a].map(|n| at(full, n)), [2, 2, 3, 4]);
}

/// No followed edge climbs, and a node none leaves is a sink of its own.
fn assert_heights_fit_edges(name: &str, f: &FrozenSdg) {
    for kind in KINDS {
        let h = f.heights(kind);
        assert_eq!(h.len(), f.node_count(), "{name} {kind:?}");
        for n in (0..f.node_count()).map(NodeId::new) {
            let followed: Vec<_> = f.deps(n).iter().filter(|e| kind.follows(&e.kind)).collect();
            for e in &followed {
                assert!(
                    h[n.index()] >= h[e.target.index()],
                    "{name} {kind:?}: {n:?}"
                );
            }
            if followed.is_empty() {
                assert_eq!(h[n.index()], 0, "{name} {kind:?}: {n:?}");
            }
        }
    }
}

/// The graph decoded from `f`'s snapshot bytes has `f`'s heights.
fn assert_snapshot_keeps_heights(name: &str, f: &FrozenSdg) {
    assert_heights_fit_edges(name, f);
    let mut w = ByteWriter::new();
    encode_frozen(f, &mut w);
    let bytes = w.into_bytes();
    let decoded = decode_frozen(&mut ByteReader::new(&bytes)).expect("decodes");
    for kind in KINDS {
        assert_eq!(decoded.heights(kind), f.heights(kind), "{name} {kind:?}");
    }
}

fn graphs(sources: &[(&str, &str)]) -> (FrozenSdg, FrozenSdg) {
    let program = compile(sources).expect("compiles");
    let pta = Pta::analyze(&program, PtaConfig::default());
    let modref = ModRef::compute(&program, &pta);
    let ci = build_ci(&program, &pta).freeze();
    let cs = build_cs(&program, &pta, &modref).freeze();
    (ci, cs)
}

#[test]
fn snapshot_decoded_graphs_have_the_same_heights() {
    let generated: Vec<(String, String)> = [1, 2, 4]
        .map(|scale| {
            (
                format!("gen-x{scale}"),
                generate(&GeneratorConfig::scaled(scale)),
            )
        })
        .into();
    let suite = all_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), b.sources));
    let programs = suite.chain(
        (generated.iter()).map(|(name, text)| (name.clone(), vec![("gen.mj", text.as_str())])),
    );
    for (name, sources) in programs {
        let (ci, cs) = graphs(&sources);
        assert_snapshot_keeps_heights(&format!("{name} ci"), &ci);
        assert_snapshot_keeps_heights(&format!("{name} cs"), &cs);
    }
}

#[test]
fn heights_build_on_a_small_stack() {
    // The build keeps its DFS path on the heap, so it fits a 256 KiB stack
    // on gen-x8's CS graph and on a chain of 100,000 statements, whose
    // path a recursive build would hold one stack frame per node.
    let text = generate(&GeneratorConfig::scaled(8));
    let (_, cs) = graphs(&[("gen.mj", &text)]);
    let mut chain = Sdg::empty(HeapMode::DirectEdges);
    let nodes: Vec<NodeId> = (0..100_000).map(|i| chain.intern(stmt(i))).collect();
    for w in nodes.windows(2) {
        chain.add_edge(
            w[0],
            Edge {
                target: w[1],
                kind: FLOW,
            },
        );
    }
    let chain = chain.freeze();
    let (built, deepest) = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn_scoped(scope, || {
                let built = KINDS.map(|kind| cs.heights(kind).len());
                (built, chain.heights(SliceKind::Thin)[0])
            })
            .expect("the thread starts")
            .join()
            .expect("the build returns")
    });
    assert_eq!(built, [cs.node_count(); 3]);
    assert_eq!(deepest, 99_999);
}
