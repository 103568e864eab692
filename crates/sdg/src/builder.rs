//! Context-insensitive SDG construction with *direct* heap edges.
//!
//! This is the representation behind the paper's scalable slicers (§5.2):
//! heap-based flow becomes a direct edge from each field/array load to every
//! may-aliased store, "dramatically increasing scalability" compared to heap
//! parameters. Parameter passing and return values use the standard
//! formal/actual nodes, and control dependences are included as labelled
//! edges that the thin slicer simply ignores.
//!
//! The graph is built over the *cloned* call graph: every method instance
//! (method × analysis context) gets its own statement nodes, so the
//! object-sensitive container cloning of the points-to analysis carries
//! through to the dependence graph — a `Vector.get` clone only links to the
//! stores of *its* receiver's backing array.

use crate::cache::SdgCache;
use crate::node::{Edge, EdgeKind, NodeId, NodeKind};
use crate::Sdg;
use std::collections::BTreeMap;
use thinslice_ir::{InstrKind, Loc, MethodId, Operand, Program, StmtRef, UseKind, Var};
use thinslice_pta::{CgNode, Pta};
use thinslice_util::{Completeness, FxHashMap, Meter, RunCtx};

/// Builds the context-insensitive SDG for all method instances reachable in
/// `pta`.
pub fn build_ci(program: &Program, pta: &Pta) -> Sdg {
    Builder::new(program, pta, crate::HeapMode::DirectEdges).run()
}

/// Like [`build_ci`], but under a [`RunCtx`], serving per-method
/// def-site/control-dependence artifacts from (and retaining new ones into)
/// `cache`. Construction is recorded as a `sdg.build` span (with node/edge
/// counters and gauges) through the context's telemetry, and metered
/// against the context's budget when one is set. A truncated build returns
/// a graph with a (sound) subset of the statement nodes and dependence
/// edges, labelled with why construction stopped and roughly how much work
/// was abandoned. With an empty cache and a disabled context this is
/// exactly [`build_ci`] (always [`Completeness::Complete`]).
///
/// This is also the incremental rebuild entry point: with a warm cache the
/// graph is still bit-identical, because cached artifacts equal freshly
/// computed ones for unchanged methods and interning order is unaffected.
pub fn build_ci_cached(
    program: &Program,
    pta: &Pta,
    ctx: &RunCtx,
    cache: &mut SdgCache,
) -> (Sdg, Completeness) {
    let tel = ctx.telemetry();
    let (sdg, completeness) = {
        let mut span = tel.span("sdg.build");
        let mut meter = if ctx.is_governed() {
            ctx.meter()
        } else {
            Meter::unlimited()
        };
        let (sdg, completeness) =
            Builder::with_cache(program, pta, crate::HeapMode::DirectEdges, Some(cache))
                .run_governed(&mut meter);
        span.add("sdg.nodes", sdg.node_count() as u64);
        span.add("sdg.edges", sdg.edge_count() as u64);
        (sdg, completeness)
    };
    tel.gauge("sdg.nodes", sdg.node_count() as u64);
    tel.gauge("sdg.edges", sdg.edge_count() as u64);
    (sdg, completeness)
}

/// Builds the statement/parameter/control skeleton *without* heap edges;
/// used by [`crate::heap_params::build_cs`], which adds heap-parameter
/// nodes instead of direct edges.
pub(crate) fn build_skeleton(program: &Program, pta: &Pta) -> Sdg {
    Builder::new(program, pta, crate::HeapMode::Parameters).run()
}

/// [`build_skeleton`] with an external per-method artifact cache.
pub(crate) fn build_skeleton_cached(program: &Program, pta: &Pta, cache: &mut SdgCache) -> Sdg {
    Builder::with_cache(program, pta, crate::HeapMode::Parameters, Some(cache)).run()
}

/// A recorded heap access: the accessing instance, statement and base var.
type HeapAccess = (CgNode, StmtRef, Var);

struct Builder<'p> {
    program: &'p Program,
    pta: &'p Pta,
    mode: crate::HeapMode,
    sdg: Sdg,
    // BTreeMaps: heap-edge insertion order must be deterministic so node
    // ids (and therefore BFS tie-breaking) are reproducible across runs.
    field_loads: BTreeMap<thinslice_ir::FieldId, Vec<HeapAccess>>,
    field_stores: BTreeMap<thinslice_ir::FieldId, Vec<HeapAccess>>,
    array_loads: Vec<HeapAccess>,
    array_stores: Vec<HeapAccess>,
    static_loads: BTreeMap<thinslice_ir::FieldId, Vec<(CgNode, StmtRef)>>,
    static_stores: BTreeMap<thinslice_ir::FieldId, Vec<(CgNode, StmtRef)>>,
    /// Per method: SSA def sites (shared by all clones).
    def_sites: FxHashMap<MethodId, crate::cache::DefSites>,
    /// Per method: control dependences (shared by all clones).
    control: FxHashMap<MethodId, std::sync::Arc<crate::control::ControlDeps>>,
    /// External per-method artifact cache (incremental rebuilds).
    cache: Option<&'p mut SdgCache>,
}

impl<'p> Builder<'p> {
    fn new(program: &'p Program, pta: &'p Pta, mode: crate::HeapMode) -> Self {
        Self::with_cache(program, pta, mode, None)
    }

    fn with_cache(
        program: &'p Program,
        pta: &'p Pta,
        mode: crate::HeapMode,
        cache: Option<&'p mut SdgCache>,
    ) -> Self {
        Self {
            program,
            pta,
            mode,
            sdg: Sdg::empty(mode),
            field_loads: BTreeMap::new(),
            field_stores: BTreeMap::new(),
            array_loads: Vec::new(),
            array_stores: Vec::new(),
            static_loads: BTreeMap::new(),
            static_stores: BTreeMap::new(),
            def_sites: FxHashMap::default(),
            control: FxHashMap::default(),
            cache,
        }
    }

    fn run(self) -> Sdg {
        self.run_governed(&mut Meter::unlimited()).0
    }

    fn run_governed(mut self, meter: &mut Meter) -> (Sdg, Completeness) {
        let instances: Vec<(CgNode, MethodId)> = self
            .pta
            .callgraph
            .iter_nodes()
            .filter(|(_, m, _)| self.program.methods[*m].body.is_some())
            .map(|(n, m, _)| (n, m))
            .collect();

        // Per-method caches, served from the external cache when one is
        // attached (incremental rebuilds reuse unchanged methods' entries).
        for &(_, m) in &instances {
            if self.def_sites.contains_key(&m) {
                continue;
            }
            let (defs, control) = match self.cache.as_deref_mut() {
                Some(cache) => cache.entry(self.program, m),
                None => {
                    let mut scratch = SdgCache::new();
                    scratch.entry(self.program, m)
                }
            };
            self.def_sites.insert(m, defs);
            self.control.insert(m, control);
        }

        // A truncated pass leaves `abandoned` as a lower bound on the work
        // it skipped; every later pass is skipped entirely (interning is
        // idempotent, so the graph built so far stays internally
        // consistent — it just has fewer nodes and edges).
        let mut abandoned = 0usize;

        // Pass 1: statement nodes + heap access collection, per instance.
        for (done, &(inst, m)) in instances.iter().enumerate() {
            if !meter.tick_tracked(self.sdg.node_count()) {
                abandoned += instances.len() - done;
                break;
            }
            let body = self.program.methods[m].body.as_ref().expect("body");
            for (loc, instr) in body.instrs() {
                let sr = StmtRef { method: m, loc };
                self.sdg.intern(NodeKind::Stmt(inst, sr));
                match &instr.kind {
                    InstrKind::Load { base, field, .. } => {
                        self.field_loads
                            .entry(*field)
                            .or_default()
                            .push((inst, sr, *base));
                    }
                    InstrKind::Store { base, field, .. } => {
                        self.field_stores
                            .entry(*field)
                            .or_default()
                            .push((inst, sr, *base));
                    }
                    InstrKind::ArrayLoad { base, .. } => {
                        self.array_loads.push((inst, sr, *base));
                    }
                    InstrKind::ArrayStore { base, .. } => {
                        self.array_stores.push((inst, sr, *base));
                    }
                    InstrKind::StaticLoad { field, .. } => {
                        self.static_loads
                            .entry(*field)
                            .or_default()
                            .push((inst, sr));
                    }
                    InstrKind::StaticStore { field, .. } => {
                        self.static_stores
                            .entry(*field)
                            .or_default()
                            .push((inst, sr));
                    }
                    _ => {}
                }
            }
        }

        // Pass 2: local flow, parameter linkage, control, per instance.
        if !meter.is_exhausted() {
            for (done, &(inst, m)) in instances.iter().enumerate() {
                if !meter.tick_tracked(self.sdg.node_count()) {
                    abandoned += instances.len() - done;
                    break;
                }
                self.instance_edges(inst, m);
            }
        }

        // Pass 3: direct heap edges (context-insensitive mode only; the
        // context-sensitive mode routes the heap through parameter nodes).
        if self.mode == crate::HeapMode::DirectEdges && !meter.is_exhausted() {
            abandoned += self.heap_edges(meter);
        }
        let completeness = meter.completeness(abandoned);
        (self.sdg, completeness)
    }

    /// The node a use of `v` in instance `inst` depends on: its SSA def
    /// statement, or the formal-parameter node.
    fn def_node(&mut self, inst: CgNode, m: MethodId, v: Var) -> NodeId {
        if let Some(loc) = self.def_sites[&m].get(&v).copied() {
            return self
                .sdg
                .intern(NodeKind::Stmt(inst, StmtRef { method: m, loc }));
        }
        let body = self.program.methods[m].body.as_ref().expect("body");
        if let Some(idx) = body.params.iter().position(|p| *p == v) {
            return self.sdg.intern(NodeKind::FormalParam(inst, idx as u32));
        }
        // A variable with no def and not a parameter can only arise from
        // unreachable code that SSA left untouched; anchor it at the entry.
        self.sdg.intern(NodeKind::Entry(inst))
    }

    fn instance_edges(&mut self, inst: CgNode, m: MethodId) {
        let body = self.program.methods[m].body.as_ref().expect("body").clone();
        let entry = self.sdg.intern(NodeKind::Entry(inst));

        // Terminator node of each block (control-dependence source).
        let mut term_node: FxHashMap<usize, NodeId> = FxHashMap::default();
        for (b, block) in body.blocks.iter_enumerated() {
            let loc = Loc {
                block: b,
                index: (block.instrs.len() - 1) as u32,
            };
            let sr = StmtRef { method: m, loc };
            term_node.insert(
                thinslice_util::Idx::index(b),
                self.sdg.intern(NodeKind::Stmt(inst, sr)),
            );
        }

        for (loc, instr) in body.instrs() {
            let sr = StmtRef { method: m, loc };
            let node = self.sdg.intern(NodeKind::Stmt(inst, sr));

            // Control dependence: on controlling branches, or the entry.
            let ctrl: Vec<thinslice_ir::BlockId> = self.control[&m].controlling(loc.block).to_vec();
            if ctrl.is_empty() {
                self.sdg.add_edge(
                    node,
                    Edge {
                        target: entry,
                        kind: EdgeKind::Control,
                    },
                );
            } else {
                for cb in ctrl {
                    let t = term_node[&thinslice_util::Idx::index(cb)];
                    if t != node {
                        self.sdg.add_edge(
                            node,
                            Edge {
                                target: t,
                                kind: EdgeKind::Control,
                            },
                        );
                    }
                }
            }

            // Data dependences.
            match &instr.kind {
                InstrKind::Call { dst, args, .. } => {
                    self.call_edges(inst, m, loc, node, *dst, args);
                }
                _ => {
                    for (v, use_kind) in instr.kind.uses() {
                        let d = self.def_node(inst, m, v);
                        let excluded = !matches!(use_kind, UseKind::Value);
                        self.sdg.add_edge(
                            node,
                            Edge {
                                target: d,
                                kind: EdgeKind::Flow {
                                    excluded_from_thin: excluded,
                                },
                            },
                        );
                    }
                }
            }

            // Returns feed the instance's return-merge node.
            if let InstrKind::Return { value: Some(_) } = &instr.kind {
                let ret = self.sdg.intern(NodeKind::RetMerge(inst));
                self.sdg.add_edge(
                    ret,
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

    /// Edges for one call site of one caller instance: argument binding
    /// through actual/formal parameter nodes, return value through the
    /// ret-merge node, and the interprocedural control (entry → call) edge.
    #[allow(clippy::too_many_arguments)]
    fn call_edges(
        &mut self,
        inst: CgNode,
        m: MethodId,
        loc: Loc,
        node: NodeId,
        dst: Option<Var>,
        args: &[Operand],
    ) {
        let target_insts: Vec<CgNode> = self.pta.callgraph.targets(inst, loc).to_vec();
        if target_insts.is_empty() {
            // Unresolved call site (empty receiver set — code the points-to
            // analysis considers dead, or an unlinked native): model it
            // opaquely, like a native, so the result still depends on the
            // arguments instead of silently truncating the slice.
            for a in args {
                if let Operand::Var(v) = a {
                    let d = self.def_node(inst, m, *v);
                    self.sdg.add_edge(
                        node,
                        Edge {
                            target: d,
                            kind: EdgeKind::Flow {
                                excluded_from_thin: false,
                            },
                        },
                    );
                }
            }
        }

        for t_inst in target_insts {
            let (t, _) = self.pta.callgraph.node(t_inst);
            if self.program.methods[t].is_native {
                // Native model: the result is produced from all arguments.
                for a in args {
                    if let Operand::Var(v) = a {
                        let d = self.def_node(inst, m, *v);
                        self.sdg.add_edge(
                            node,
                            Edge {
                                target: d,
                                kind: EdgeKind::Flow {
                                    excluded_from_thin: false,
                                },
                            },
                        );
                    }
                }
                continue;
            }
            // Actual/formal parameter binding.
            for (i, a) in args.iter().enumerate() {
                let actual = self.sdg.intern(NodeKind::ActualParam(node, i as u32));
                let formal = self.sdg.intern(NodeKind::FormalParam(t_inst, i as u32));
                self.sdg.add_edge(
                    formal,
                    Edge {
                        target: actual,
                        kind: EdgeKind::ParamIn { site: node },
                    },
                );
                if let Operand::Var(v) = a {
                    let d = self.def_node(inst, m, *v);
                    self.sdg.add_edge(
                        actual,
                        Edge {
                            target: d,
                            kind: EdgeKind::Flow {
                                excluded_from_thin: false,
                            },
                        },
                    );
                }
            }
            // Return value.
            if dst.is_some() && self.program.methods[t].ret_ty != thinslice_ir::Type::Void {
                let ret = self.sdg.intern(NodeKind::RetMerge(t_inst));
                self.sdg.add_edge(
                    node,
                    Edge {
                        target: ret,
                        kind: EdgeKind::ParamOut { site: node },
                    },
                );
            }
            // Interprocedural control: the callee's entry depends on the
            // call site.
            let callee_entry = self.sdg.intern(NodeKind::Entry(t_inst));
            self.sdg.add_edge(
                callee_entry,
                Edge {
                    target: node,
                    kind: EdgeKind::Call,
                },
            );
        }
    }

    /// Direct heap edges: load → every may-aliased store (paper §5.2),
    /// using *per-instance* points-to sets so container clones stay apart.
    ///
    /// Metered per load site (the quadratic pass is where adversarial
    /// programs blow up); returns a lower bound on abandoned load sites.
    fn heap_edges(&mut self, meter: &mut Meter) -> usize {
        let mut abandoned = 0usize;
        let field_loads = std::mem::take(&mut self.field_loads);
        'fields: for (field, loads) in field_loads {
            let Some(stores) = self.field_stores.get(&field).cloned() else {
                continue;
            };
            for (i, (linst, lsr, lbase)) in loads.iter().enumerate() {
                if !meter.tick_tracked(self.sdg.node_count()) {
                    abandoned += loads.len() - i;
                    break 'fields;
                }
                let lpts = self.pta.instance_points_to(*linst, *lbase);
                for (sinst, ssr, sbase) in &stores {
                    if lpts.intersects(self.pta.instance_points_to(*sinst, *sbase)) {
                        let ln = self.sdg.intern(NodeKind::Stmt(*linst, *lsr));
                        let sn = self.sdg.intern(NodeKind::Stmt(*sinst, *ssr));
                        self.sdg.add_edge(
                            ln,
                            Edge {
                                target: sn,
                                kind: EdgeKind::Flow {
                                    excluded_from_thin: false,
                                },
                            },
                        );
                    }
                }
            }
        }
        let array_loads = std::mem::take(&mut self.array_loads);
        let array_stores = self.array_stores.clone();
        for (i, (linst, lsr, lbase)) in array_loads.iter().enumerate() {
            if meter.is_exhausted() || !meter.tick_tracked(self.sdg.node_count()) {
                abandoned += array_loads.len() - i;
                break;
            }
            let lpts = self.pta.instance_points_to(*linst, *lbase);
            for (sinst, ssr, sbase) in &array_stores {
                if lpts.intersects(self.pta.instance_points_to(*sinst, *sbase)) {
                    let ln = self.sdg.intern(NodeKind::Stmt(*linst, *lsr));
                    let sn = self.sdg.intern(NodeKind::Stmt(*sinst, *ssr));
                    self.sdg.add_edge(
                        ln,
                        Edge {
                            target: sn,
                            kind: EdgeKind::Flow {
                                excluded_from_thin: false,
                            },
                        },
                    );
                }
            }
        }
        let static_loads = std::mem::take(&mut self.static_loads);
        'statics: for (field, loads) in static_loads {
            let Some(stores) = self.static_stores.get(&field).cloned() else {
                continue;
            };
            for (i, (linst, lsr)) in loads.iter().enumerate() {
                if meter.is_exhausted() || !meter.tick_tracked(self.sdg.node_count()) {
                    abandoned += loads.len() - i;
                    break 'statics;
                }
                for (sinst, ssr) in &stores {
                    let ln = self.sdg.intern(NodeKind::Stmt(*linst, *lsr));
                    let sn = self.sdg.intern(NodeKind::Stmt(*sinst, *ssr));
                    self.sdg.add_edge(
                        ln,
                        Edge {
                            target: sn,
                            kind: EdgeKind::Flow {
                                excluded_from_thin: false,
                            },
                        },
                    );
                }
            }
        }
        abandoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::compile;
    use thinslice_pta::PtaConfig;

    fn build(src: &str) -> (thinslice_ir::Program, Pta, Sdg) {
        let p = compile(&[("t.mj", src)]).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let sdg = build_ci(&p, &pta);
        (p, pta, sdg)
    }

    #[test]
    fn local_flow_edges_link_def_to_use() {
        let (p, _, sdg) = build(
            "class Main { static void main() {
                int x = 1;
                int y = x + 2;
                print(y);
            } }",
        );
        let print_node = sdg
            .stmt_nodes()
            .find(|(_, s)| matches!(p.instr(*s).kind, InstrKind::Print { .. }))
            .map(|(n, _)| n)
            .unwrap();
        let deps = sdg.deps(print_node);
        assert!(
            deps.iter().any(|e| matches!(
                e.kind,
                EdgeKind::Flow {
                    excluded_from_thin: false
                }
            )),
            "print depends on its operand's def"
        );
    }

    #[test]
    fn store_load_heap_edge_exists() {
        let (p, _, sdg) = build(
            "class Box { Object item; }
             class Main { static void main() {
                Box b = new Box();
                b.item = new Main();
                Object got = b.item;
            } }",
        );
        let load = sdg
            .stmt_nodes()
            .find(|(_, s)| matches!(p.instr(*s).kind, InstrKind::Load { .. }))
            .map(|(n, _)| n)
            .unwrap();
        let store = sdg
            .stmt_nodes()
            .find(|(_, s)| matches!(p.instr(*s).kind, InstrKind::Store { .. }))
            .map(|(n, _)| n)
            .unwrap();
        let deps = sdg.deps(load);
        assert!(
            deps.iter().any(|e| e.target == store
                && matches!(
                    e.kind,
                    EdgeKind::Flow {
                        excluded_from_thin: false
                    }
                )),
            "load must depend on the aliased store via a producer edge"
        );
        assert!(deps.iter().any(|e| matches!(
            e.kind,
            EdgeKind::Flow {
                excluded_from_thin: true
            }
        )));
    }

    #[test]
    fn non_aliased_stores_are_not_linked() {
        let (p, _, sdg) = build(
            "class Box { Object item; }
             class Main { static void main() {
                Box b1 = new Box();
                Box b2 = new Box();
                b1.item = new Main();
                b2.item = new Main();
                Object got = b1.item;
            } }",
        );
        let load = sdg
            .stmt_nodes()
            .find(|(_, s)| matches!(p.instr(*s).kind, InstrKind::Load { .. }))
            .map(|(n, _)| n)
            .unwrap();
        let store_edges = sdg
            .deps(load)
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EdgeKind::Flow {
                        excluded_from_thin: false
                    }
                ) && sdg
                    .node(e.target)
                    .as_stmt()
                    .is_some_and(|s| matches!(p.instr(s).kind, InstrKind::Store { .. }))
            })
            .count();
        assert_eq!(store_edges, 1, "only the aliased store is linked");
    }

    #[test]
    fn container_clones_have_separate_nodes() {
        // Two Vectors → two clones of Vector.add, each with its own
        // statement nodes; their array stores do not cross-link.
        let (p, pta, sdg) = build(
            "class A {} class B {}
             class Main { static void main() {
                Vector va = new Vector();
                Vector vb = new Vector();
                va.add(new A());
                vb.add(new B());
                Object oa = va.get(0);
            } }",
        );
        let vector = p.class_named("Vector").unwrap();
        let add = p.resolve_method(vector, "add").unwrap();
        assert_eq!(pta.instances_of(add).len(), 2);
        let add_store = p
            .all_stmts()
            .find(|s| s.method == add && matches!(p.instr(*s).kind, InstrKind::ArrayStore { .. }))
            .unwrap();
        assert_eq!(
            sdg.stmt_nodes_of(add_store).len(),
            2,
            "the array store exists once per Vector clone"
        );
        // The get-load of va only links to va's add-store instance.
        let get = p.resolve_method(vector, "get").unwrap();
        let get_load = p
            .all_stmts()
            .find(|s| s.method == get && matches!(p.instr(*s).kind, InstrKind::ArrayLoad { .. }))
            .unwrap();
        for &ln in sdg.stmt_nodes_of(get_load) {
            let producer_stores = sdg
                .deps(ln)
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EdgeKind::Flow {
                            excluded_from_thin: false
                        }
                    ) && sdg.node(e.target).as_stmt() == Some(add_store)
                })
                .count();
            assert_eq!(
                producer_stores, 1,
                "each get clone sees exactly one add clone"
            );
        }
    }

    #[test]
    fn parameters_route_through_formal_actual_nodes() {
        let (p, pta, sdg) = build(
            "class A { int id(int x) { return x; } }
             class Main { static void main() {
                A a = new A();
                int r = a.id(7);
                print(r);
            } }",
        );
        let a = p.class_named("A").unwrap();
        let id = p.resolve_method(a, "id").unwrap();
        let id_inst = pta.instances_of(id)[0];
        let formal = sdg.find_node(NodeKind::FormalParam(id_inst, 1)).unwrap();
        let deps = sdg.deps(formal);
        assert!(deps
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::ParamIn { .. })));
        let ret = sdg.find_node(NodeKind::RetMerge(id_inst)).unwrap();
        let call_node = sdg
            .stmt_nodes()
            .find(|(_, s)| {
                s.method == p.main_method
                    && matches!(
                        p.instr(*s).kind,
                        InstrKind::Call {
                            kind: thinslice_ir::CallKind::Virtual,
                            ..
                        }
                    )
            })
            .map(|(n, _)| n)
            .unwrap();
        assert!(sdg
            .deps(call_node)
            .iter()
            .any(|e| e.target == ret && matches!(e.kind, EdgeKind::ParamOut { .. })));
    }

    #[test]
    fn control_edges_present_but_marked() {
        let (p, _, sdg) = build(
            "class Main { static void main() {
                int x = 1;
                if (x > 0) { print(1); }
            } }",
        );
        let print_node = sdg
            .stmt_nodes()
            .find(|(_, s)| matches!(p.instr(*s).kind, InstrKind::Print { .. }))
            .map(|(n, _)| n)
            .unwrap();
        let ctrl: Vec<_> = sdg
            .deps(print_node)
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Control))
            .collect();
        assert_eq!(ctrl.len(), 1);
        assert!(!ctrl[0].kind.in_thin_slice());
    }

    #[test]
    fn native_call_result_depends_on_args() {
        let (p, _, sdg) = build(
            "class Main { static void main() {
                String full = \"John Doe\";
                String first = full.substring(0, 4);
                print(first);
            } }",
        );
        let call_node = sdg
            .stmt_nodes()
            .find(|(_, s)| {
                matches!(&p.instr(*s).kind, InstrKind::Call { callee, .. }
                    if p.methods[*callee].name == "substring")
            })
            .map(|(n, _)| n)
            .unwrap();
        let strconst_node = sdg
            .stmt_nodes()
            .find(|(_, s)| {
                s.method == p.main_method
                    && matches!(&p.instr(*s).kind, InstrKind::StrConst { value, .. } if value == "John Doe")
            })
            .map(|(n, _)| n)
            .unwrap();
        // The dependence runs through the `Move` that copies the literal
        // into `full`; check reachability over producer flow edges.
        let mut frontier = vec![call_node];
        let mut seen = thinslice_util::FxHashSet::default();
        let mut found = false;
        while let Some(n) = frontier.pop() {
            if !seen.insert(n) {
                continue;
            }
            if n == strconst_node {
                found = true;
                break;
            }
            for e in sdg.deps(n) {
                if matches!(
                    e.kind,
                    EdgeKind::Flow {
                        excluded_from_thin: false
                    }
                ) {
                    frontier.push(e.target);
                }
            }
        }
        assert!(
            found,
            "substring result must trace back to the string literal"
        );
    }

    #[test]
    fn entry_depends_on_call_sites() {
        let (p, pta, sdg) = build(
            "class A { void m() {} }
             class Main { static void main() {
                A a = new A();
                a.m();
            } }",
        );
        let a = p.class_named("A").unwrap();
        let m = p.resolve_method(a, "m").unwrap();
        let m_inst = pta.instances_of(m)[0];
        let entry = sdg.find_node(NodeKind::Entry(m_inst)).unwrap();
        assert!(sdg
            .deps(entry)
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::Call)));
    }
}
