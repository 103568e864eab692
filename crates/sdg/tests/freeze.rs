//! `Sdg::freeze` keeps every node id on the CI and CS graphs of every
//! suite program and of generated programs: the frozen graph answers
//! `node`, `deps` and `stmt_nodes_of` exactly as the growable one, counts
//! the same method instances, and `FrozenSdg::is_freeze_of` holds for its
//! own source and fails once one edge changes. A frozen graph, from
//! `freeze` or from snapshot bytes, numbers its display statements in
//! ascending statement order.

use std::collections::BTreeSet;
use thinslice_ir::compile;
use thinslice_pta::{ModRef, Pta, PtaConfig};
use thinslice_sdg::snap::{decode_frozen, encode_frozen};
use thinslice_sdg::{build_ci, build_cs, DepGraph, Edge, FrozenSdg, NodeId, Sdg};
use thinslice_suite::{all_benchmarks, generate, GeneratorConfig};
use thinslice_util::{ByteReader, ByteWriter, Idx};

fn encode(f: &FrozenSdg) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_frozen(f, &mut w);
    w.into_bytes()
}

/// `f`, frozen from `g`, numbers each of `g`'s statements densely, in
/// strictly ascending order, and finds every statement's instance nodes
/// by that numbering as `g`'s hash map finds them.
fn assert_sorted_numbering(name: &str, f: &FrozenSdg, g: &Sdg) {
    let table = f.stmt_table();
    for (i, w) in table.windows(2).enumerate() {
        assert!(w[0] < w[1], "{name}: ids {i} and {}", i + 1);
    }
    let stmts: BTreeSet<_> = g.stmt_nodes().map(|(_, s)| s).collect();
    assert!(table.iter().eq(&stmts), "{name}");
    for &s in &stmts {
        assert_eq!(f.stmt_nodes_of(s), g.stmt_nodes_of(s), "{name}: {s:?}");
    }
    // Between and beyond the numbered statements there is nothing.
    for (i, s) in stmts.iter().enumerate() {
        let mut gap = *s;
        gap.loc.index += 1;
        if !stmts.contains(&gap) {
            assert!(f.stmt_nodes_of(gap).is_empty(), "{name}: after id {i}");
        }
    }
}

/// `g` interned again in id order, with its first edge pointed at the
/// node after its target: one changed edge.
fn with_one_edge_changed(g: &Sdg) -> Sdg {
    let n = g.node_count();
    let mut h = Sdg::empty(g.mode());
    for (_, &kind) in g.nodes() {
        h.intern(kind);
    }
    let mut first = true;
    for (id, _) in g.nodes() {
        for &e in g.deps(id) {
            let target = NodeId::new((e.target.index() + 1) % n);
            h.add_edge(id, if first { Edge { target, ..e } } else { e });
            first = false;
        }
    }
    assert!(!first, "the graph has an edge");
    h
}

fn assert_freeze_keeps_every_node(name: &str, g: &Sdg) {
    let frozen = g.freeze();
    assert_eq!(frozen.node_count(), g.node_count(), "{name}");
    assert_eq!(frozen.edge_count(), g.edge_count(), "{name}");
    for (id, &kind) in g.nodes() {
        assert_eq!(frozen.node(id), kind, "{name}: node {id:?}");
        assert_eq!(frozen.deps(id), g.deps(id), "{name}: deps of {id:?}");
        assert_eq!(frozen.display_stmt(id), g.display_stmt(id), "{name}");
    }
    assert_sorted_numbering(name, &frozen, g);
    assert_eq!(frozen.instance_count(), g.instance_count(), "{name}");
    assert!(frozen.is_freeze_of(g), "{name}");
    assert!(!frozen.is_freeze_of(&with_one_edge_changed(g)), "{name}");
    // A graph decoded from the frozen bytes numbers its statements the
    // same way and compares alike.
    let bytes = encode(&frozen);
    let decoded = decode_frozen(&mut ByteReader::new(&bytes)).expect("decodes");
    assert_sorted_numbering(&format!("{name} decoded"), &decoded, g);
    assert_eq!(decoded.instance_count(), g.instance_count(), "{name}");
    assert!(decoded.is_freeze_of(g), "{name}: decoded");
}

fn check(name: &str, sources: &[(&str, &str)]) {
    let program = compile(sources).expect("compiles");
    let pta = Pta::analyze(&program, PtaConfig::default());
    let modref = ModRef::compute(&program, &pta);
    assert_freeze_keeps_every_node(&format!("{name} ci"), &build_ci(&program, &pta));
    assert_freeze_keeps_every_node(&format!("{name} cs"), &build_cs(&program, &pta, &modref));
}

#[test]
fn snapshot_freeze_keeps_every_node_on_every_suite_program() {
    for b in all_benchmarks() {
        check(b.name, &b.sources);
    }
}

#[test]
fn snapshot_freeze_keeps_every_node_on_generated_programs() {
    for scale in [1, 2, 4] {
        let text = generate(&GeneratorConfig::scaled(scale));
        check(&format!("gen-x{scale}"), &[("gen.mj", &text)]);
    }
}
