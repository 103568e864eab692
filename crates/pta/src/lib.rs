#![warn(missing_docs)]

//! # thinslice-pta — pointer analysis for MJ
//!
//! The thin-slicing paper's slicers rest on a pre-computed points-to
//! analysis and call graph (paper §5.1): the SDG's heap dependences and
//! interprocedural edges both come from here, and §6 shows a precise
//! pointer analysis is *key* to effective thin slicing.
//!
//! This crate provides:
//!
//! * [`solver`] — Andersen-style inclusion constraints with on-the-fly call
//!   graph construction, cast filtering and object-sensitive cloning of
//!   container classes ([`PtaConfig::container_classes`]),
//! * [`Pta`] — the collapsed, query-friendly result,
//! * [`modref`] — interprocedural mod-ref over heap partitions (used to
//!   build heap parameters for the context-sensitive slicer),
//! * [`cha`] — a class-hierarchy-analysis call graph, the cheap baseline.
//!
//! # Examples
//!
//! ```
//! use thinslice_ir::compile;
//! use thinslice_pta::{Pta, PtaConfig};
//!
//! let program = compile(&[(
//!     "t.mj",
//!     r#"class Main { static void main() {
//!         Vector v = new Vector();
//!         v.add("x");
//!         Object o = v.get(0);
//!     } }"#,
//! )]).unwrap();
//! let pta = Pta::analyze(&program, PtaConfig::default());
//! assert!(pta.callgraph.node_count() > 0);
//! ```

pub mod callgraph;
pub mod cha;
pub mod heap;
pub mod incr;
pub mod modref;
pub mod snap;
pub mod solver;
pub mod stats;

pub use callgraph::{CallGraph, CgNode, Ctx};
pub use heap::{AbstractObject, AllocSite, ObjId, ObjKind};
pub use incr::GenCache;
pub use modref::{ModRef, PartId, Partition};
pub use stats::ProgramStats;

pub use solver::SolveStats;

use solver::{PtrKey, SolverResult};
use thinslice_ir::{FieldId, MethodId, Program, StmtRef, Var};
use thinslice_util::{BitSet, Completeness, FxHashMap, IdxVec, RunCtx};

/// Configuration of the points-to analysis.
#[derive(Debug, Clone)]
pub struct PtaConfig {
    /// Whether methods of container classes are cloned per receiver object
    /// (the paper's key precision lever; §6.1). Disabling this gives the
    /// `NoObjSens` columns of Tables 2 and 3.
    pub object_sensitive_containers: bool,
    /// Names of the classes treated as containers.
    pub container_classes: Vec<String>,
    /// Maximum nesting depth of heap contexts (containers inside
    /// containers); bounds the abstract heap.
    pub max_heap_ctx_depth: u32,
    /// Whether casts filter points-to sets by type. On by default — this
    /// is what lets the analysis *verify* most downcasts, leaving only the
    /// "tough" ones (§6.3); disable for ablation.
    pub cast_filtering: bool,
}

impl Default for PtaConfig {
    fn default() -> Self {
        Self {
            object_sensitive_containers: true,
            container_classes: [
                "Vector",
                "VectorIterator",
                "Stack",
                "Hashtable",
                "MapEntry",
                "LinkedList",
                "ListNode",
                "StringBuffer",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            max_heap_ctx_depth: 3,
            cast_filtering: true,
        }
    }
}

impl PtaConfig {
    /// The configuration used for the paper's `NoObjSens` comparison runs:
    /// identical, but without object-sensitive container cloning.
    pub fn without_object_sensitivity() -> Self {
        Self {
            object_sensitive_containers: false,
            ..Self::default()
        }
    }
}

/// The pointer-analysis result, collapsed across contexts for the
/// (context-insensitive) dependence-graph queries.
#[derive(Debug)]
pub struct Pta {
    /// The configuration this result was computed with.
    pub config: PtaConfig,
    /// All abstract objects.
    pub objects: IdxVec<ObjId, AbstractObject>,
    /// The context-sensitive call graph.
    pub callgraph: CallGraph,
    /// Number of copy edges in the constraint graph (size statistic).
    pub constraint_edges: usize,
    /// Propagation statistics of the solver run that produced this result.
    pub solve_stats: SolveStats,
    pub(crate) var_pts: FxHashMap<(MethodId, Var), BitSet<ObjId>>,
    pub(crate) inst_var_pts: FxHashMap<(CgNode, Var), BitSet<ObjId>>,
    pub(crate) field_pts: FxHashMap<(ObjId, FieldId), BitSet<ObjId>>,
    pub(crate) array_pts: FxHashMap<ObjId, BitSet<ObjId>>,
    pub(crate) static_pts: FxHashMap<FieldId, BitSet<ObjId>>,
    pub(crate) call_targets: FxHashMap<StmtRef, Vec<MethodId>>,
    pub(crate) instances: FxHashMap<MethodId, Vec<CgNode>>,
    pub(crate) empty: BitSet<ObjId>,
}

impl Pta {
    /// Runs the points-to analysis on `program` starting from `main`.
    pub fn analyze(program: &Program, config: PtaConfig) -> Pta {
        let result = solver::solve(program, &config);
        Self::from_solver(config, result)
    }

    /// Like [`Pta::analyze`], but under a [`RunCtx`], replaying per-method
    /// constraint generation streams from (and retaining new ones into)
    /// `cache`. The solve is recorded as a `pta.solve` span (plus solver
    /// counters and gauges) through the context's telemetry, and metered
    /// against the context's budget when one is set. A truncated solve
    /// yields a sound under-approximation of the call graph and points-to
    /// sets, labelled with why it stopped and how much worklist was
    /// abandoned. With a fresh cache and a disabled context this is exactly
    /// [`Pta::analyze`] (always [`Completeness::Complete`]).
    ///
    /// This is also the incremental-update entry point: after an edit, the
    /// session invalidates only the changed methods' streams and re-solves,
    /// which restarts propagation but skips all generation work for
    /// untouched code. The result is bit-identical to a solve on a fresh
    /// cache because cached streams are byte-equal to freshly built ones
    /// and inclusion constraints have a unique least fixpoint.
    pub fn analyze_cached(
        program: &Program,
        config: PtaConfig,
        ctx: &RunCtx,
        cache: &mut GenCache,
    ) -> (Pta, Completeness) {
        let tel = ctx.telemetry();
        let (pta, completeness) = {
            let mut span = tel.span("pta.solve");
            let (result, completeness) = {
                let mut meter = if ctx.is_governed() {
                    ctx.meter()
                } else {
                    thinslice_util::Meter::unlimited()
                };
                solver::solve_governed_cached(program, &config, &mut meter, cache)
            };
            let pta = Self::from_solver(config, result);
            span.add("pta.delta_rounds", pta.solve_stats.delta_rounds);
            span.add("pta.worklist_pushes", pta.solve_stats.worklist_pushes);
            span.add("pta.delta_objects", pta.solve_stats.delta_objects);
            (pta, completeness)
        };
        tel.count("pta.delta_rounds", pta.solve_stats.delta_rounds);
        tel.count("pta.worklist_pushes", pta.solve_stats.worklist_pushes);
        tel.count("pta.delta_objects", pta.solve_stats.delta_objects);
        tel.gauge(
            "pta.max_worklist_depth",
            pta.solve_stats.max_worklist_depth as u64,
        );
        tel.gauge("pta.constraint_edges", pta.constraint_edges as u64);
        tel.gauge("pta.abstract_objects", pta.objects.len() as u64);
        (pta, completeness)
    }

    fn from_solver(config: PtaConfig, r: SolverResult) -> Pta {
        let mut var_pts: FxHashMap<(MethodId, Var), BitSet<ObjId>> = FxHashMap::default();
        let mut inst_var_pts: FxHashMap<(CgNode, Var), BitSet<ObjId>> = FxHashMap::default();
        let mut field_pts: FxHashMap<(ObjId, FieldId), BitSet<ObjId>> = FxHashMap::default();
        let mut array_pts: FxHashMap<ObjId, BitSet<ObjId>> = FxHashMap::default();
        let mut static_pts: FxHashMap<FieldId, BitSet<ObjId>> = FxHashMap::default();
        let mut instances: FxHashMap<MethodId, Vec<CgNode>> = FxHashMap::default();
        for (n, m, _) in r.callgraph.iter_nodes() {
            instances.entry(m).or_default().push(n);
        }
        for (n, key) in r.keys.iter_enumerated() {
            let set = &r.pts[n];
            if set.is_empty() {
                continue;
            }
            match key {
                PtrKey::Var(inst, v) => {
                    let (m, _) = r.callgraph.node(*inst);
                    var_pts.entry((m, *v)).or_default().union_with(set);
                    inst_var_pts.entry((*inst, *v)).or_default().union_with(set);
                }
                PtrKey::ObjField(o, f) => {
                    field_pts.entry((*o, *f)).or_default().union_with(set);
                }
                PtrKey::ArrayElem(o) => {
                    array_pts.entry(*o).or_default().union_with(set);
                }
                PtrKey::Static(f) => {
                    static_pts.entry(*f).or_default().union_with(set);
                }
                PtrKey::Ret(_) => {}
            }
        }
        let call_targets = r.callgraph.method_level_targets();
        Pta {
            config,
            objects: r.objects,
            callgraph: r.callgraph,
            constraint_edges: r.edge_count,
            solve_stats: r.stats,
            var_pts,
            inst_var_pts,
            field_pts,
            array_pts,
            static_pts,
            call_targets,
            instances,
            empty: BitSet::new(),
        }
    }

    /// Points-to set of a variable, unioned over all analysis contexts.
    pub fn points_to(&self, method: MethodId, var: Var) -> &BitSet<ObjId> {
        self.var_pts.get(&(method, var)).unwrap_or(&self.empty)
    }

    /// Points-to set of a variable in one specific method instance — the
    /// per-clone precision the SDG builder uses.
    pub fn instance_points_to(&self, inst: CgNode, var: Var) -> &BitSet<ObjId> {
        self.inst_var_pts.get(&(inst, var)).unwrap_or(&self.empty)
    }

    /// All analysed instances (clones) of a method.
    pub fn instances_of(&self, method: MethodId) -> &[CgNode] {
        self.instances
            .get(&method)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Points-to set of an object's field.
    pub fn field_points_to(&self, obj: ObjId, field: FieldId) -> &BitSet<ObjId> {
        self.field_pts.get(&(obj, field)).unwrap_or(&self.empty)
    }

    /// Points-to set of an array object's element slot.
    pub fn array_points_to(&self, obj: ObjId) -> &BitSet<ObjId> {
        self.array_pts.get(&obj).unwrap_or(&self.empty)
    }

    /// Points-to set of a static field.
    pub fn static_points_to(&self, field: FieldId) -> &BitSet<ObjId> {
        self.static_pts.get(&field).unwrap_or(&self.empty)
    }

    /// Whether two variables may point to a common object.
    pub fn may_alias(&self, a: (MethodId, Var), b: (MethodId, Var)) -> bool {
        self.points_to(a.0, a.1)
            .intersects(self.points_to(b.0, b.1))
    }

    /// The objects two variables may both point to — the filter used when
    /// expanding a thin slice to explain aliasing (paper §4.1).
    pub fn common_objects(&self, a: (MethodId, Var), b: (MethodId, Var)) -> BitSet<ObjId> {
        let mut s = self.points_to(a.0, a.1).clone();
        s.intersect_with(self.points_to(b.0, b.1));
        s
    }

    /// Possible target methods of a call statement (context-collapsed).
    pub fn targets_of(&self, call: StmtRef) -> &[MethodId] {
        self.call_targets
            .get(&call)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All methods reachable from `main` (including natives).
    pub fn reachable_methods(&self) -> Vec<MethodId> {
        self.callgraph.reachable_methods()
    }

    /// A rough resident-set estimate of the solved result, in elements:
    /// abstract objects, call-graph nodes and edges, and the backing words
    /// of every points-to set. Cheap (no allocation) and deterministic;
    /// session-level footprint accounting sums this into its watermark so
    /// solved points-to state is visible to eviction decisions.
    pub fn resident_estimate(&self) -> usize {
        fn set_words<K>(sets: &FxHashMap<K, BitSet<ObjId>>) -> usize {
            sets.values().map(|s| s.as_words().len() + 1).sum()
        }
        let mut elems = self.objects.len() + self.callgraph.node_count();
        elems += self.callgraph.edge_count();
        elems += set_words(&self.var_pts) + set_words(&self.inst_var_pts);
        elems += set_words(&self.field_pts) + set_words(&self.array_pts);
        elems += set_words(&self.static_pts);
        elems += self
            .call_targets
            .values()
            .map(|v| v.len() + 1)
            .sum::<usize>();
        elems += self.instances.values().map(|v| v.len() + 1).sum::<usize>();
        elems
    }

    /// Whether a downcast of `src` to `target` is *verified* by this
    /// analysis: every object `src` may point to is compatible.
    /// Unverified downcasts are the paper's "tough casts" (§6.3).
    pub fn cast_is_verified(
        &self,
        program: &Program,
        method: MethodId,
        src: Var,
        target: &thinslice_ir::Type,
    ) -> bool {
        self.points_to(method, src)
            .iter()
            .all(|o| self.objects[o].compatible_with(program, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::{compile, InstrKind, Type, Var};

    fn var_named(program: &Program, method: MethodId, name: &str) -> Vec<Var> {
        program.methods[method]
            .body
            .as_ref()
            .unwrap()
            .vars
            .iter_enumerated()
            .filter(|(_, i)| i.name == name)
            .map(|(v, _)| v)
            .collect()
    }

    #[test]
    fn may_alias_and_common_objects() {
        let program = compile(&[(
            "t.mj",
            "class A {} class Main { static void main() {
                A x = new A();
                A y = x;
                A z = new A();
            } }",
        )])
        .unwrap();
        let pta = Pta::analyze(&program, PtaConfig::default());
        let m = program.main_method;
        // After SSA the defined version is the last variable with the name.
        let x = *var_named(&program, m, "x").last().unwrap();
        let y = *var_named(&program, m, "y").last().unwrap();
        let z = *var_named(&program, m, "z").last().unwrap();
        assert!(pta.may_alias((m, x), (m, y)));
        assert!(!pta.may_alias((m, x), (m, z)));
        assert_eq!(pta.common_objects((m, x), (m, y)).len(), 1);
    }

    #[test]
    fn tough_cast_detection() {
        let program = compile(&[(
            "t.mj",
            "class A {} class B extends A {}
             class Main { static void main() {
                A good = new B();
                B ok = (B) good;
                Vector v = new Vector();
                v.add(new A());
                A fromVec = (A) v.get(0);
             } }",
        )])
        .unwrap();
        let pta = Pta::analyze(&program, PtaConfig::default());
        let m = program.main_method;
        let body = program.methods[m].body.as_ref().unwrap();
        let b_class = program.class_named("B").unwrap();
        let a_class = program.class_named("A").unwrap();
        // (B) good is verified: good only points to B objects.
        let mut checked = 0;
        for (_, instr) in body.instrs() {
            if let InstrKind::Cast {
                src: thinslice_ir::Operand::Var(s),
                ty,
                ..
            } = &instr.kind
            {
                if *ty == Type::Class(b_class) {
                    assert!(pta.cast_is_verified(&program, m, *s, ty));
                    checked += 1;
                } else if *ty == Type::Class(a_class) {
                    // (A) v.get(0) — Object-typed from container; with
                    // object sensitivity the set is {A}, so verified too.
                    assert!(pta.cast_is_verified(&program, m, *s, ty));
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 2);
    }

    #[test]
    fn targets_collapse_to_methods() {
        let program = compile(&[(
            "t.mj",
            "class A { int f() { return 1; } }
             class B extends A { int f() { return 2; } }
             class Main { static void main() {
                A x = new B();
                print(x.f());
             } }",
        )])
        .unwrap();
        let pta = Pta::analyze(&program, PtaConfig::default());
        let call = program
            .all_stmts()
            .find(|s| {
                s.method == program.main_method
                    && matches!(
                        &program.instr(*s).kind,
                        InstrKind::Call {
                            kind: thinslice_ir::CallKind::Virtual,
                            ..
                        }
                    )
            })
            .unwrap();
        let b = program.class_named("B").unwrap();
        let bf = program.resolve_method(b, "f").unwrap();
        assert_eq!(pta.targets_of(call), &[bf]);
    }
}
