//! Context-sensitive SDG construction with heap parameters.
//!
//! Implements the paper's §5.3 representation: "heap reads and writes
//! modeled as extra parameters and return values to each procedure", with
//! parameter sets discovered by the interprocedural mod-ref analysis, using
//! the same heap partitions as the points-to analysis. The number of nodes
//! this introduces is the scalability bottleneck the paper reports ("the
//! number of SDG statements introduced to model heap parameter-passing
//! quickly explodes").
//!
//! Within one method instance, a partition's state is aggregated in a
//! [`NodeKind::MethodHeap`] node fed by the instance's stores of the
//! partition, its heap formal-in, and the actual-outs of calls that may
//! modify the partition. Loads, call actual-ins and the heap formal-out all
//! read from the aggregator.

use crate::builder::build_skeleton;
use crate::node::{Edge, EdgeKind, NodeKind};
use crate::Sdg;
use thinslice_ir::{InstrKind, Program, StmtRef};
use thinslice_pta::{ModRef, Partition, Pta};
use thinslice_util::RunCtx;

/// Builds the context-sensitive SDG (heap-parameter mode).
pub fn build_cs(program: &Program, pta: &Pta, modref: &ModRef) -> Sdg {
    let mut sdg = build_skeleton(program, pta);
    add_heap_parameter_edges(&mut sdg, program, pta, modref);
    sdg
}

/// Like [`build_cs`], but under a [`RunCtx`], serving per-method skeleton
/// artifacts from (and retaining new ones into) `cache`. Construction is
/// recorded as a `sdg.build_cs` span with node/edge counters. This is also
/// the incremental rebuild entry point: with any cache the graph is
/// bit-identical to [`build_cs`] for the same inputs.
pub fn build_cs_cached(
    program: &Program,
    pta: &Pta,
    modref: &ModRef,
    ctx: &RunCtx,
    cache: &mut crate::cache::SdgCache,
) -> Sdg {
    let mut span = ctx.telemetry().span("sdg.build_cs");
    let mut sdg = crate::builder::build_skeleton_cached(program, pta, cache);
    add_heap_parameter_edges(&mut sdg, program, pta, modref);
    span.add("sdg.nodes", sdg.node_count() as u64);
    span.add("sdg.edges", sdg.edge_count() as u64);
    sdg
}

fn add_heap_parameter_edges(sdg: &mut Sdg, program: &Program, pta: &Pta, modref: &ModRef) {
    let instances: Vec<(thinslice_pta::CgNode, thinslice_ir::MethodId)> = pta
        .callgraph
        .iter_nodes()
        .filter(|(_, m, _)| program.methods[*m].body.is_some())
        .map(|(n, m, _)| (n, m))
        .collect();

    // Heap formals per instance, and the method-heap aggregation.
    for &(inst, m) in &instances {
        for p in modref.refs(m).iter() {
            // Values may enter through the caller.
            let mh = sdg.intern(NodeKind::MethodHeap(inst, p));
            let fin = sdg.intern(NodeKind::FormalIn(inst, p));
            sdg.add_edge(
                mh,
                Edge {
                    target: fin,
                    kind: EdgeKind::Flow {
                        excluded_from_thin: false,
                    },
                },
            );
        }
        for p in modref.mods(m).iter() {
            // Values may leave through the formal-out.
            let mh = sdg.intern(NodeKind::MethodHeap(inst, p));
            let fout = sdg.intern(NodeKind::FormalOut(inst, p));
            sdg.add_edge(
                fout,
                Edge {
                    target: mh,
                    kind: EdgeKind::Flow {
                        excluded_from_thin: false,
                    },
                },
            );
        }
    }

    // Per-statement wiring.
    for &(inst, m) in &instances {
        let body = program.methods[m].body.as_ref().expect("body");
        for (loc, instr) in body.instrs() {
            let sr = StmtRef { method: m, loc };
            match &instr.kind {
                InstrKind::Load { base, field, .. } => {
                    let node = sdg.intern(NodeKind::Stmt(inst, sr));
                    for o in pta.instance_points_to(inst, *base).iter() {
                        if let Some(p) = modref.partition_id(Partition::ObjField(o, *field)) {
                            let mh = sdg.intern(NodeKind::MethodHeap(inst, p));
                            sdg.add_edge(
                                node,
                                Edge {
                                    target: mh,
                                    kind: EdgeKind::Flow {
                                        excluded_from_thin: false,
                                    },
                                },
                            );
                        }
                    }
                }
                InstrKind::Store { base, field, .. } => {
                    let node = sdg.intern(NodeKind::Stmt(inst, sr));
                    for o in pta.instance_points_to(inst, *base).iter() {
                        if let Some(p) = modref.partition_id(Partition::ObjField(o, *field)) {
                            let mh = sdg.intern(NodeKind::MethodHeap(inst, p));
                            sdg.add_edge(
                                mh,
                                Edge {
                                    target: node,
                                    kind: EdgeKind::Flow {
                                        excluded_from_thin: false,
                                    },
                                },
                            );
                        }
                    }
                }
                InstrKind::ArrayLoad { base, .. } => {
                    let node = sdg.intern(NodeKind::Stmt(inst, sr));
                    for o in pta.instance_points_to(inst, *base).iter() {
                        if let Some(p) = modref.partition_id(Partition::ArrayElem(o)) {
                            let mh = sdg.intern(NodeKind::MethodHeap(inst, p));
                            sdg.add_edge(
                                node,
                                Edge {
                                    target: mh,
                                    kind: EdgeKind::Flow {
                                        excluded_from_thin: false,
                                    },
                                },
                            );
                        }
                    }
                }
                InstrKind::ArrayStore { base, .. } => {
                    let node = sdg.intern(NodeKind::Stmt(inst, sr));
                    for o in pta.instance_points_to(inst, *base).iter() {
                        if let Some(p) = modref.partition_id(Partition::ArrayElem(o)) {
                            let mh = sdg.intern(NodeKind::MethodHeap(inst, p));
                            sdg.add_edge(
                                mh,
                                Edge {
                                    target: node,
                                    kind: EdgeKind::Flow {
                                        excluded_from_thin: false,
                                    },
                                },
                            );
                        }
                    }
                }
                InstrKind::StaticLoad { field, .. } => {
                    let node = sdg.intern(NodeKind::Stmt(inst, sr));
                    if let Some(p) = modref.partition_id(Partition::Static(*field)) {
                        let mh = sdg.intern(NodeKind::MethodHeap(inst, p));
                        sdg.add_edge(
                            node,
                            Edge {
                                target: mh,
                                kind: EdgeKind::Flow {
                                    excluded_from_thin: false,
                                },
                            },
                        );
                    }
                }
                InstrKind::StaticStore { field, .. } => {
                    let node = sdg.intern(NodeKind::Stmt(inst, sr));
                    if let Some(p) = modref.partition_id(Partition::Static(*field)) {
                        let mh = sdg.intern(NodeKind::MethodHeap(inst, p));
                        sdg.add_edge(
                            mh,
                            Edge {
                                target: node,
                                kind: EdgeKind::Flow {
                                    excluded_from_thin: false,
                                },
                            },
                        );
                    }
                }
                InstrKind::Call { .. } => {
                    // Heap actual-in/out per callee-instance partition.
                    let site = sdg.intern(NodeKind::Stmt(inst, sr));
                    for &t_inst in pta.callgraph.targets(inst, loc) {
                        let (t, _) = pta.callgraph.node(t_inst);
                        if program.methods[t].is_native {
                            continue;
                        }
                        for p in modref.refs(t).iter() {
                            let ain = sdg.intern(NodeKind::ActualIn(site, p));
                            let fin = sdg.intern(NodeKind::FormalIn(t_inst, p));
                            let mh_caller = sdg.intern(NodeKind::MethodHeap(inst, p));
                            // Callee's formal-in comes from the call-site
                            // actual-in, which reads the caller's state.
                            sdg.add_edge(
                                fin,
                                Edge {
                                    target: ain,
                                    kind: EdgeKind::ParamIn { site },
                                },
                            );
                            sdg.add_edge(
                                ain,
                                Edge {
                                    target: mh_caller,
                                    kind: EdgeKind::Flow {
                                        excluded_from_thin: false,
                                    },
                                },
                            );
                        }
                        for p in modref.mods(t).iter() {
                            let aout = sdg.intern(NodeKind::ActualOut(site, p));
                            let fout = sdg.intern(NodeKind::FormalOut(t_inst, p));
                            let mh_caller = sdg.intern(NodeKind::MethodHeap(inst, p));
                            // The caller's state after the call includes the
                            // callee's writes.
                            sdg.add_edge(
                                aout,
                                Edge {
                                    target: fout,
                                    kind: EdgeKind::ParamOut { site },
                                },
                            );
                            sdg.add_edge(
                                mh_caller,
                                Edge {
                                    target: aout,
                                    kind: EdgeKind::Flow {
                                        excluded_from_thin: false,
                                    },
                                },
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::compile;
    use thinslice_pta::PtaConfig;

    fn build(src: &str) -> (thinslice_ir::Program, Sdg, Sdg) {
        let p = compile(&[("t.mj", src)]).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let ci = crate::builder::build_ci(&p, &pta);
        let modref = ModRef::compute(&p, &pta);
        let cs = build_cs(&p, &pta, &modref);
        (p, ci, cs)
    }

    const CONTAINER_PROGRAM: &str = "class Main { static void main() {
        Vector v = new Vector();
        v.add(new Main());
        Object o = v.get(0);
        print(1);
    } }";

    #[test]
    fn cs_mode_has_heap_parameter_nodes() {
        let (_, _, cs) = build(CONTAINER_PROGRAM);
        let heap_nodes = cs
            .nodes()
            .filter(|(_, k)| {
                matches!(
                    k,
                    NodeKind::FormalIn(..)
                        | NodeKind::FormalOut(..)
                        | NodeKind::ActualIn(..)
                        | NodeKind::ActualOut(..)
                        | NodeKind::MethodHeap(..)
                )
            })
            .count();
        assert!(heap_nodes > 0, "heap-parameter nodes must exist");
    }

    #[test]
    fn cs_graph_is_larger_than_ci_graph() {
        let (_, ci, cs) = build(CONTAINER_PROGRAM);
        assert!(
            cs.node_count() > ci.node_count(),
            "heap parameters blow the graph up: ci={} cs={}",
            ci.node_count(),
            cs.node_count()
        );
    }

    #[test]
    fn load_reads_method_heap_not_direct_store() {
        let (p, _, cs) = build(
            "class Box { Object item;
                void fill(Object o) { this.item = o; }
                Object take() { return this.item; }
             }
             class Main { static void main() {
                Box b = new Box();
                b.fill(new Main());
                Object o = b.take();
             } }",
        );
        let box_class = p.class_named("Box").unwrap();
        let take = p.resolve_method(box_class, "take").unwrap();
        let load = cs
            .stmt_nodes()
            .find(|(_, s)| s.method == take && matches!(p.instr(*s).kind, InstrKind::Load { .. }))
            .map(|(n, _)| n)
            .unwrap();
        let deps = cs.deps(load);
        assert!(
            deps.iter()
                .any(|e| matches!(cs.node(e.target), NodeKind::MethodHeap(..))),
            "the load must read through take's MethodHeap"
        );
        assert!(
            !deps.iter().any(|e| {
                cs.node(e.target)
                    .as_stmt()
                    .is_some_and(|s| matches!(p.instr(s).kind, InstrKind::Store { .. }))
            }),
            "heap-parameter mode must not contain direct store→load edges"
        );
    }

    #[test]
    fn heap_flows_through_formals_to_caller() {
        let (p, _, cs) = build(
            "class Box { Object item;
                void fill(Object o) { this.item = o; }
             }
             class Main { static void main() {
                Box b = new Box();
                Main m = new Main();
                b.fill(m);
                Object got = b.item;
             } }",
        );
        let box_class = p.class_named("Box").unwrap();
        let fill = p.resolve_method(box_class, "fill").unwrap();
        let fout = cs
            .nodes()
            .find(|(_, k)| match k {
                NodeKind::FormalOut(inst, _) => {
                    // The formal-out belongs to an instance of fill.
                    cs.nodes().any(|(_, k2)| matches!(k2, NodeKind::Stmt(i2, s2) if *i2 == *inst && s2.method == fill))
                }
                _ => false,
            })
            .map(|(n, _)| n)
            .expect("fill has a heap formal-out");
        let mut frontier = vec![fout];
        let mut found_store = false;
        let mut seen = thinslice_util::FxHashSet::default();
        while let Some(n) = frontier.pop() {
            if !seen.insert(n) {
                continue;
            }
            for e in cs.deps(n) {
                if cs
                    .node(e.target)
                    .as_stmt()
                    .is_some_and(|s| matches!(p.instr(s).kind, InstrKind::Store { .. }))
                {
                    found_store = true;
                }
                if matches!(cs.node(e.target), NodeKind::MethodHeap(..)) {
                    frontier.push(e.target);
                }
            }
        }
        assert!(
            found_store,
            "formal-out reaches the store through the aggregator"
        );
    }
}
