//! Hierarchical expansion of thin slices (paper §4).
//!
//! A thin slice deliberately omits *explainer* statements. When the user
//! needs them, two expansions are available:
//!
//! * [`explain_aliasing`] — §4.1: given a load and a store in the thin
//!   slice that communicate through the heap, compute two more thin slices
//!   (from the definitions of the two base pointers), restricted to
//!   statements handling objects that can flow to *both* base pointers.
//! * [`exposed_control_deps`] — §4.2: the controlling conditionals of a
//!   statement, which in practice lie lexically close to thin-slice
//!   statements.
//!
//! Repeating these expansions in the limit yields the traditional slice.
//!
//! Every expansion walks the frozen context-insensitive graph, the one
//! CI queries walk ([`crate::AnalysisSession::ci_parts`] lends it with
//! the program and the points-to result), so a session restored from a
//! snapshot explains on the graph it decoded, without a build.

use crate::slice::{slice_dense, SliceKind, SliceScratch};
use crate::stmtset::StmtSet;
use thinslice_ir::{InstrKind, MethodId, Program, StmtRef, Var};
use thinslice_pta::{AllocSite, ObjId, Pta};
use thinslice_sdg::{DepGraph, EdgeKind, FrozenSdg, NodeId, NodeKind};
use thinslice_util::{Completeness, Meter, Outcome, RunCtx};

/// The result of explaining one heap-based flow in a thin slice.
#[derive(Debug, Clone)]
pub struct AliasExplanation {
    /// The reading statement (`x = y.f` or `x = a[i]`).
    pub load: StmtRef,
    /// The writing statement (`w.f = z` or `b[j] = z`).
    pub store: StmtRef,
    /// Objects that may flow to both base pointers.
    pub common_objects: Vec<ObjId>,
    /// Thin slice of the load's base pointer, filtered to common objects.
    pub load_base_flow: Vec<StmtRef>,
    /// Thin slice of the store's base pointer, filtered to common objects.
    pub store_base_flow: Vec<StmtRef>,
}

impl AliasExplanation {
    /// All explainer statements, deduplicated, load-side first.
    pub fn statements(&self) -> Vec<StmtRef> {
        let mut out = self.load_base_flow.clone();
        for s in &self.store_base_flow {
            if !out.contains(s) {
                out.push(*s);
            }
        }
        out
    }
}

/// Errors from expansion requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// The statement is not a heap access of the expected shape.
    NotAHeapAccess(StmtRef),
    /// The two accesses cannot alias according to the points-to analysis.
    NoCommonObjects,
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpandError::NotAHeapAccess(_) => write!(f, "statement is not a field or array access"),
            ExpandError::NoCommonObjects => {
                write!(f, "no object can flow to both base pointers")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

fn base_of(program: &Program, s: StmtRef) -> Option<(MethodId, Var)> {
    match &program.instr(s).kind {
        InstrKind::Load { base, .. }
        | InstrKind::Store { base, .. }
        | InstrKind::ArrayLoad { base, .. }
        | InstrKind::ArrayStore { base, .. } => Some((s.method, *base)),
        _ => None,
    }
}

/// Explains why `load` and `store` may access the same heap location
/// (paper §4.1): thin slices from both base pointers' definitions, filtered
/// to the flow of their common objects.
///
/// # Errors
///
/// Returns [`ExpandError::NotAHeapAccess`] if either statement lacks a base
/// pointer, and [`ExpandError::NoCommonObjects`] if the accesses cannot
/// alias.
pub fn explain_aliasing(
    program: &Program,
    pta: &Pta,
    graph: &FrozenSdg,
    load: StmtRef,
    store: StmtRef,
) -> Result<AliasExplanation, ExpandError> {
    explain_inner(program, pta, graph, load, store, &mut Meter::unlimited()).map(|o| o.result)
}

/// [`explain_aliasing`] under a [`RunCtx`]: the context's telemetry gets an
/// `expand.explain_aliasing` span whose counters give the number of common
/// objects and explainer statements (plus outcome counters), and the
/// context's budget bounds the whole expansion — one meter covers both
/// base-pointer slices, so the budget limits the full question, not each
/// half. A truncated explanation contains a subset of the unbudgeted
/// explainer statements. With a disabled context this is exactly
/// [`explain_aliasing`], labelled.
///
/// # Errors
///
/// Same as [`explain_aliasing`].
pub fn explain_aliasing_ctx(
    program: &Program,
    pta: &Pta,
    graph: &FrozenSdg,
    load: StmtRef,
    store: StmtRef,
    ctx: &RunCtx,
) -> Result<Outcome<AliasExplanation>, ExpandError> {
    let tel = ctx.telemetry();
    let mut span = tel.span("expand.explain_aliasing");
    let out = explain_inner(program, pta, graph, load, store, &mut ctx.meter());
    match &out {
        Ok(exp) => {
            span.add(
                "expand.common_objects",
                exp.result.common_objects.len() as u64,
            );
            span.add(
                "expand.explainer_stmts",
                exp.result.statements().len() as u64,
            );
            tel.count("expand.explanations", 1);
        }
        Err(_) => tel.count("expand.rejections", 1),
    }
    out
}

/// The one expansion engine behind every `explain_aliasing` entrypoint:
/// caller-armed meter, shared scratch across both base-pointer slices.
fn explain_inner(
    program: &Program,
    pta: &Pta,
    graph: &FrozenSdg,
    load: StmtRef,
    store: StmtRef,
    meter: &mut Meter,
) -> Result<Outcome<AliasExplanation>, ExpandError> {
    let (lm, lbase) = base_of(program, load).ok_or(ExpandError::NotAHeapAccess(load))?;
    let (sm, sbase) = base_of(program, store).ok_or(ExpandError::NotAHeapAccess(store))?;
    let common = pta.common_objects((lm, lbase), (sm, sbase));
    if common.is_empty() {
        return Err(ExpandError::NoCommonObjects);
    }
    let common_vec: Vec<ObjId> = common.iter().collect();

    let mut scratch = SliceScratch::new();
    let (load_base_flow, c1) = base_pointer_flow(
        program,
        pta,
        graph,
        lm,
        lbase,
        &common_vec,
        &mut scratch,
        meter,
    );
    let (store_base_flow, c2) = base_pointer_flow(
        program,
        pta,
        graph,
        sm,
        sbase,
        &common_vec,
        &mut scratch,
        meter,
    );
    Ok(Outcome::new(
        AliasExplanation {
            load,
            store,
            common_objects: common_vec,
            load_base_flow,
            store_base_flow,
        },
        c1.and(c2),
    ))
}

/// Thin slice from the definition of `base` in `method`, filtered to
/// statements touching at least one of `objects` (paper §4.1: "the thin
/// slices explaining aliasing should be restricted to only show the flow of
/// objects that can flow to both base pointers").
#[allow(clippy::too_many_arguments)]
fn base_pointer_flow(
    program: &Program,
    pta: &Pta,
    graph: &FrozenSdg,
    method: MethodId,
    base: Var,
    objects: &[ObjId],
    scratch: &mut SliceScratch,
    meter: &mut Meter,
) -> (Vec<StmtRef>, Completeness) {
    let seeds = def_nodes_of(program, pta, graph, method, base);
    let (slice, completeness) = slice_dense(graph, &seeds, SliceKind::Thin, scratch, meter);
    let stmts = slice
        .stmts
        .iter()
        .filter(|&s| stmt_touches_objects(program, pta, s, objects))
        .collect();
    (stmts, completeness)
}

/// The graph nodes to seed a base-pointer flow question at: the SSA
/// definition of the variable (all clones), or its formal-parameter nodes
/// in every instance of `method`, in node order.
fn def_nodes_of(
    program: &Program,
    pta: &Pta,
    graph: &FrozenSdg,
    method: MethodId,
    v: Var,
) -> Vec<NodeId> {
    let body = program.methods[method].body.as_ref().expect("body");
    for (loc, instr) in body.instrs() {
        if instr.kind.def() == Some(v) {
            let sr = StmtRef { method, loc };
            return graph.stmt_nodes_of(sr).to_vec();
        }
    }
    if let Some(idx) = body.params.iter().position(|p| *p == v) {
        return (0..graph.node_count())
            .map(NodeId::new)
            .filter(|&n| {
                matches!(graph.node(n), NodeKind::FormalParam(inst, i)
                    if i == idx as u32 && pta.callgraph.node(inst).0 == method)
            })
            .collect();
    }
    Vec::new()
}

/// Whether a statement handles one of the given objects: it defines a
/// pointer whose points-to set intersects, or it is one of their allocation
/// sites.
fn stmt_touches_objects(program: &Program, pta: &Pta, s: StmtRef, objects: &[ObjId]) -> bool {
    for &o in objects {
        let (AllocSite::Stmt(site) | AllocSite::NativeRet(site)) = pta.objects[o].site;
        if site == s {
            return true;
        }
    }
    if let Some(d) = program.instr(s).kind.def() {
        let pts = pta.points_to(s.method, d);
        if objects.iter().any(|&o| pts.contains(o)) {
            return true;
        }
    }
    // Stores and calls: the value stored or passed may be one of the
    // objects (a call that passes the common object — e.g. the
    // `first.clearContent()` of the paper's Figure 4 — is part of its
    // flow).
    match &program.instr(s).kind {
        InstrKind::Store { value, .. }
        | InstrKind::ArrayStore { value, .. }
        | InstrKind::StaticStore { value, .. } => {
            if let thinslice_ir::Operand::Var(v) = value {
                let pts = pta.points_to(s.method, *v);
                return objects.iter().any(|&o| pts.contains(o));
            }
            false
        }
        InstrKind::Call { args, .. } => args.iter().any(|a| {
            if let thinslice_ir::Operand::Var(v) = a {
                let pts = pta.points_to(s.method, *v);
                objects.iter().any(|&o| pts.contains(o))
            } else {
                false
            }
        }),
        _ => false,
    }
}

/// The controlling conditionals of `stmt` (paper §4.2): the Control-edge
/// targets of its node. These are the "lexically close" branches a user
/// would discover by reading the code around a thin-slice statement.
pub fn exposed_control_deps(graph: &FrozenSdg, stmt: StmtRef) -> Vec<StmtRef> {
    let mut out = Vec::new();
    for &n in graph.stmt_nodes_of(stmt) {
        for e in graph.deps(n) {
            if matches!(e.kind, EdgeKind::Control) {
                if let Some(s) = graph.node(e.target).as_stmt() {
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
            }
        }
    }
    out
}

/// Statements that pass through heap-based flow inside a thin slice (the
/// `stmts` of its answer): pairs of (load, store) connected by a producer
/// heap edge. These are the points a user may ask [`explain_aliasing`]
/// about.
pub fn heap_flow_pairs(
    program: &Program,
    graph: &FrozenSdg,
    stmts: &StmtSet,
) -> Vec<(StmtRef, StmtRef)> {
    let in_slice = stmts.to_hash_set();
    let mut out = Vec::new();
    for s in stmts {
        let is_load = matches!(
            program.instr(s).kind,
            InstrKind::Load { .. } | InstrKind::ArrayLoad { .. }
        );
        if !is_load {
            continue;
        }
        for &n in graph.stmt_nodes_of(s) {
            for e in graph.deps(n) {
                if !matches!(
                    e.kind,
                    EdgeKind::Flow {
                        excluded_from_thin: false
                    }
                ) {
                    continue;
                }
                if let Some(t) = graph.node(e.target).as_stmt() {
                    let is_store = matches!(
                        program.instr(t).kind,
                        InstrKind::Store { .. } | InstrKind::ArrayStore { .. }
                    );
                    if is_store && in_slice.contains(&t) && !out.contains(&(s, t)) {
                        out.push((s, t));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::compile;
    use thinslice_pta::PtaConfig;
    use thinslice_sdg::build_ci;

    /// A one-shot thin slice's statements.
    fn thin_from(graph: &FrozenSdg, seed: NodeId) -> StmtSet {
        let mut meter = Meter::unlimited();
        let scratch = &mut SliceScratch::new();
        slice_dense(graph, &[seed], SliceKind::Thin, scratch, &mut meter)
            .0
            .stmts
    }

    /// The paper's Figure 4 shape: a File is closed through one alias and
    /// read through another; the aliasing explanation must reveal the flow
    /// of the File object through the Vector.
    const FILE_PROGRAM: &str = "class File {
        boolean open;
        File() { this.open = true; }
        boolean isOpen() { return this.open; }
        void closeFile() { this.open = false; }
    }
    class Main { static void main() {
        File f = new File();
        Vector files = new Vector();
        files.add(f);
        File g = (File) files.get(0);
        g.closeFile();
        File h = (File) files.get(0);
        boolean open = h.isOpen();
        if (!open) {
            throw new Exception(\"closed\");
        }
    } }";

    fn setup() -> (thinslice_ir::Program, Pta, FrozenSdg) {
        let p = compile(&[("t.mj", FILE_PROGRAM)]).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let graph = build_ci(&p, &pta).freeze();
        (p, pta, graph)
    }

    fn open_field_access(p: &thinslice_ir::Program, load: bool, in_method: &str) -> StmtRef {
        let file_class = p.class_named("File").unwrap();
        let m = p.resolve_method(file_class, in_method).unwrap();
        p.all_stmts()
            .find(|s| {
                s.method == m
                    && if load {
                        matches!(p.instr(*s).kind, InstrKind::Load { .. })
                    } else {
                        matches!(p.instr(*s).kind, InstrKind::Store { .. })
                    }
            })
            .unwrap()
    }

    #[test]
    fn thin_slice_finds_producers_of_open_flag() {
        let (p, _, graph) = setup();
        // Seed: the load of `open` in isOpen.
        let load = open_field_access(&p, true, "isOpen");
        let thin = thin_from(&graph, graph.stmt_node(load).unwrap());
        // Producers: the store in the constructor and in closeFile.
        let ctor_store = open_field_access(&p, false, "<init>");
        let close_store = open_field_access(&p, false, "closeFile");
        assert!(thin.contains(ctor_store));
        assert!(thin.contains(close_store));
    }

    #[test]
    fn explain_aliasing_reveals_container_flow() {
        let (p, pta, graph) = setup();
        let load = open_field_access(&p, true, "isOpen");
        let store = open_field_access(&p, false, "closeFile");
        let exp = explain_aliasing(&p, &pta, &graph, load, store).unwrap();
        assert_eq!(
            exp.common_objects.len(),
            1,
            "exactly the File object is shared"
        );
        let stmts = exp.statements();
        // The File allocation must appear in the explanation.
        let file_alloc = p
            .all_stmts()
            .find(|s| {
                matches!(&p.instr(*s).kind, InstrKind::New { class, .. }
                    if *class == p.class_named("File").unwrap())
            })
            .unwrap();
        assert!(
            stmts.contains(&file_alloc),
            "the aliasing explanation shows the common File's allocation"
        );
        // The Vector's own allocation is NOT part of the File's flow
        // (paper: "line 16 is still omitted, as it does not touch the File
        // object").
        let vector_alloc = p
            .all_stmts()
            .find(|s| {
                s.method == p.main_method
                    && matches!(&p.instr(*s).kind, InstrKind::New { class, .. }
                        if *class == p.class_named("Vector").unwrap())
            })
            .unwrap();
        assert!(
            !stmts.contains(&vector_alloc),
            "statements not touching the common object are filtered out"
        );
    }

    #[test]
    fn non_aliasing_accesses_are_rejected() {
        let src = "class Box { Object item; }
        class Main { static void main() {
            Box a = new Box();
            Box b = new Box();
            a.item = new Main();
            Object x = b.item;
            print(1);
        } }";
        let p = compile(&[("t.mj", src)]).unwrap();
        let pta = Pta::analyze(&p, PtaConfig::default());
        let graph = build_ci(&p, &pta).freeze();
        let load = p
            .all_stmts()
            .find(|s| matches!(p.instr(*s).kind, InstrKind::Load { .. }))
            .unwrap();
        let store = p
            .all_stmts()
            .find(|s| matches!(p.instr(*s).kind, InstrKind::Store { .. }))
            .unwrap();
        assert!(matches!(
            explain_aliasing(&p, &pta, &graph, load, store),
            Err(ExpandError::NoCommonObjects)
        ));
    }

    #[test]
    fn not_a_heap_access_is_rejected() {
        let (p, pta, graph) = setup();
        let print_like = p
            .all_stmts()
            .find(|s| matches!(p.instr(*s).kind, InstrKind::Throw { .. }))
            .unwrap();
        let store = open_field_access(&p, false, "closeFile");
        assert!(matches!(
            explain_aliasing(&p, &pta, &graph, print_like, store),
            Err(ExpandError::NotAHeapAccess(_))
        ));
    }

    #[test]
    fn control_deps_exposed_on_demand() {
        let (p, _, graph) = setup();
        let throw_stmt = p
            .all_stmts()
            .find(|s| matches!(p.instr(*s).kind, InstrKind::Throw { .. }))
            .unwrap();
        let ctrl = exposed_control_deps(&graph, throw_stmt);
        assert_eq!(ctrl.len(), 1, "the throw is controlled by the `if (!open)`");
        assert!(matches!(p.instr(ctrl[0]).kind, InstrKind::If { .. }));
    }

    #[test]
    fn heap_flow_pairs_found_in_thin_slice() {
        let (p, _, graph) = setup();
        let load = open_field_access(&p, true, "isOpen");
        let thin = thin_from(&graph, graph.stmt_node(load).unwrap());
        let pairs = heap_flow_pairs(&p, &graph, &thin);
        assert!(
            pairs
                .iter()
                .any(|(l, s)| *l == load && *s == open_field_access(&p, false, "closeFile")),
            "the load↔store communication points are identified"
        );
    }
}
