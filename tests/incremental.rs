//! Incremental re-analysis must be invisible in the answers: a session
//! that lives through an edit script via [`AnalysisSession::update`]
//! answers every query bit-for-bit like a session built from scratch on
//! the edited sources — for both engines, all three slice kinds, and
//! every suite benchmark. The only visible difference is *work*: the
//! update stats must show edit-sized invalidation, not a hidden rebuild.
//!
//! Why equivalence holds by construction: every reused artifact (solver
//! state, dependence graphs, frozen CSR, tabulation memos) is a
//! deterministic, span-free function of inputs the diff proved unchanged,
//! and every invalidated artifact is recomputed by the same deterministic
//! pipeline a fresh session runs. These tests pin that argument against
//! the randomized edit generator.

use thinslice::{AnalysisSession, Engine, Query, RunCtx, SliceKind, UpdateStats};
use thinslice_ir::InstrKind;
use thinslice_pta::PtaConfig;
use thinslice_suite::edits::EditScript;

const KINDS: [SliceKind; 3] = [
    SliceKind::Thin,
    SliceKind::TraditionalData,
    SliceKind::TraditionalFull,
];

fn owned(sources: &[(&str, &str)]) -> Vec<(String, String)> {
    sources
        .iter()
        .map(|(n, t)| ((*n).to_string(), (*t).to_string()))
        .collect()
}

fn refs(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    sources
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect()
}

/// Up to `n` single-statement print seeds of the session's program.
fn print_seeds(s: &AnalysisSession, n: usize) -> Vec<thinslice_ir::StmtRef> {
    let program = s.program();
    program
        .all_stmts()
        .filter(|st| matches!(program.instr(*st).kind, InstrKind::Print { .. }))
        .take(n)
        .collect()
}

/// Asserts `live` (a session that has been updated) and a fresh session
/// over the same sources answer identically on every engine × kind over
/// up to `seeds` print seeds. Returns the number of queries compared.
fn assert_matches_fresh(
    live: &mut AnalysisSession,
    sources: &[(String, String)],
    seeds: usize,
    ctx: &str,
) -> usize {
    let mut fresh = AnalysisSession::new(&refs(sources)).expect("edited sources compile");
    let mut compared = 0;
    for seed in print_seeds(&fresh, seeds) {
        for engine in [Engine::Ci, Engine::Cs] {
            for kind in KINDS {
                let q = Query::new(vec![seed], kind, engine);
                let got = live.query(&q);
                let want = fresh.query(&q);
                assert_eq!(got.stmts, want.stmts, "{ctx}: {engine:?} {kind:?} stmts");
                assert_eq!(
                    got.nodes_visited, want.nodes_visited,
                    "{ctx}: {engine:?} {kind:?} nodes visited"
                );
                assert_eq!(
                    got.completeness, want.completeness,
                    "{ctx}: {engine:?} {kind:?} completeness"
                );
                compared += 1;
            }
        }
    }
    compared
}

#[test]
fn updates_match_rebuilds_on_all_benchmarks_under_random_edits() {
    for b in thinslice_suite::all_benchmarks() {
        let mut sources = owned(&b.sources);
        let mut live = AnalysisSession::new(&refs(&sources)).expect("benchmark compiles");
        // Warm both engines so every later update has artifacts to keep
        // or invalidate.
        assert!(assert_matches_fresh(&mut live, &sources, 1, b.name) > 0);
        let mut gen = EditScript::new(0xC0FFEE ^ b.name.len() as u64);
        for round in 0..3 {
            let (next, edit) = gen.step(&sources);
            let stats = live
                .update(&refs(&next))
                .unwrap_or_else(|e| panic!("{} round {round} ({edit:?}): {e}", b.name));
            assert!(stats.methods_total > 0);
            let ctx = format!("{} round {round} ({:?})", b.name, edit.kind);
            assert!(
                assert_matches_fresh(&mut live, &next, 2, &ctx) > 0,
                "{ctx}: no print seeds"
            );
            sources = next;
        }
    }
}

/// A single-method body edit on the largest benchmark must re-solve and
/// re-freeze strictly less than the whole program — the acceptance bar
/// for "edit-sized" invalidation, asserted through [`UpdateStats`].
#[test]
fn body_edit_on_largest_benchmark_does_strictly_less_work() {
    let b = thinslice_suite::benchmark_named("javac").expect("javac is in the suite");
    let sources = owned(&b.sources);
    let mut live = AnalysisSession::new(&refs(&sources)).expect("javac compiles");
    // Warm every stage: CI and CS queries build graphs, CSR and memos.
    assert!(assert_matches_fresh(&mut live, &sources, 2, "warmup") > 0);

    // Edit 1: tweak one integer literal in place. The constraint stream is
    // literal-value-erased, so everything downstream of the diff is kept.
    let (file, text) = &sources[0];
    let tweaked = text.replacen("= 0;", "= 7;", 1);
    assert_ne!(&tweaked, text, "javac has an `= 0;` initializer to tweak");
    let edited1 = vec![(file.clone(), tweaked)];
    let s1: UpdateStats = live.update(&refs(&edited1)).expect("tweak compiles");
    assert!(!s1.noop && !s1.structural && !s1.undiffed, "body-only edit");
    assert_eq!(s1.methods_changed, 1, "one method changed");
    assert!(s1.methods_total > 10, "javac is not a toy");
    assert!(s1.pta_reused, "literal tweaks keep the solver");
    assert_eq!(s1.constraints_retracted, 0);
    assert_eq!(s1.csr_segments_refrozen, 0, "graphs unchanged, CSR kept");
    assert_eq!(s1.memo_entries_invalidated, 0, "memos survive");
    assert!(s1.memo_entries_kept > 0, "warmup populated memos");
    assert!(
        s1.control_deps_recomputed <= 1 && s1.control_deps_reused > 0,
        "only the edited method's control deps recomputed: {s1:?}"
    );
    assert!(assert_matches_fresh(&mut live, &edited1, 2, "after tweak") > 0);

    // Edit 2: insert a statement into one method body. Graphs change, so
    // the CSR refreezes (all-or-nothing by design), but constraint work
    // and control-dependence recomputation stay edit-sized.
    let brace = edited1[0].1.find(") {").expect("a method header") + 3;
    let mut inserted = edited1[0].1.clone();
    inserted.insert_str(brace, "\nint freshLocal = 1;");
    let edited2 = vec![(file.clone(), inserted)];
    let s2: UpdateStats = live.update(&refs(&edited2)).expect("insert compiles");
    assert!(!s2.noop && !s2.structural && !s2.undiffed, "body-only edit");
    assert_eq!(s2.methods_changed, 1);
    assert!(
        s2.constraints_retracted < s2.constraints_total,
        "re-solve is edit-sized: {s2:?}"
    );
    assert!(
        s2.control_deps_recomputed < s2.methods_total as u64 && s2.control_deps_reused > 0,
        "control deps recomputed only where invalidated: {s2:?}"
    );
    assert!(assert_matches_fresh(&mut live, &edited2, 2, "after insert") > 0);
}

/// A no-op edit (new comment line) must keep every artifact: the cheapest
/// path through `update`, pinned on a real benchmark.
#[test]
fn comment_edits_are_free_on_a_benchmark() {
    let b = thinslice_suite::benchmark_named("nanoxml").expect("nanoxml is in the suite");
    let sources = owned(&b.sources);
    let mut live = AnalysisSession::new(&refs(&sources)).expect("nanoxml compiles");
    assert!(assert_matches_fresh(&mut live, &sources, 2, "warmup") > 0);
    let commented = vec![(
        sources[0].0.clone(),
        format!("// an explanatory comment\n{}", sources[0].1),
    )];
    let stats = live.update(&refs(&commented)).expect("comment compiles");
    assert!(stats.noop, "comment edits diff to nothing: {stats:?}");
    assert_eq!(stats.methods_changed, 0);
    assert_eq!(stats.csr_segments_refrozen, 0);
    assert_eq!(stats.memo_entries_invalidated, 0);
    // Seeds shifted by one line but answers are identical.
    assert!(assert_matches_fresh(&mut live, &commented, 2, "after comment") > 0);
}

/// Asserts every CS batch `live` answers, on each kind over all print
/// seeds, equals a fresh session's single queries over the same sources.
fn assert_cs_batches_match_fresh(
    live: &mut AnalysisSession,
    sources: &[(String, String)],
    ctx: &str,
) {
    let mut fresh = AnalysisSession::new(&refs(sources)).expect("edited sources compile");
    let seeds = print_seeds(&fresh, usize::MAX);
    assert!(seeds.len() > 1, "{ctx}: a lane walk needs two queries");
    for kind in KINDS {
        let qs: Vec<Query> = seeds
            .iter()
            .map(|&seed| Query::new(vec![seed], kind, Engine::Cs))
            .collect();
        for threads in [1, 2] {
            for (i, (q, got)) in qs.iter().zip(live.query_batch(&qs, threads)).enumerate() {
                let got = got.slice.expect("ungoverned batch never fails");
                let want = fresh.query(q);
                let at = format!("{ctx}: {kind:?} query {i} at {threads} threads");
                assert_eq!(got.stmts, want.stmts, "{at}");
                assert_eq!(got.nodes_visited, want.nodes_visited, "{at}");
                assert_eq!(got.completeness, want.completeness, "{at}");
                assert_eq!(
                    (got.engine, got.degraded),
                    (want.engine, want.degraded),
                    "{at}"
                );
            }
        }
    }
}

/// CS batches walk a summary graph their session keeps per slice kind; an
/// edit that changes the CS graph must drop it, and a session restored from
/// a snapshot must build its own.
#[test]
fn cs_batches_after_a_graph_edit_and_a_restore_match_fresh_sessions() {
    let b = thinslice_suite::benchmark_named("nanoxml").expect("nanoxml is in the suite");
    let sources = owned(&b.sources);
    let mut live = AnalysisSession::new(&refs(&sources)).expect("nanoxml compiles");
    assert_cs_batches_match_fresh(&mut live, &sources, "warmup");
    let (file, text) = &sources[0];
    let brace = text.find(") {").expect("a method header") + 3;
    let mut inserted = text.clone();
    inserted.insert_str(brace, "\nint freshLocal = 1;");
    let mut edited = sources.clone();
    edited[0] = (file.clone(), inserted);
    let stats = live.update(&refs(&edited)).expect("insert compiles");
    assert!(
        !stats.cs_graph_reused,
        "the edit changes the CS graph: {stats:?}"
    );
    assert_cs_batches_match_fresh(&mut live, &edited, "after edit");
    let key = thinslice::source_hash(&refs(&edited));
    let bytes = live.write_snapshot(&key).expect("complete stages snapshot");
    let mut restored =
        AnalysisSession::from_snapshot(&bytes, &key, PtaConfig::default(), RunCtx::disabled())
            .expect("the snapshot restores");
    assert_cs_batches_match_fresh(&mut restored, &edited, "restored");
}

/// A restored session holds only the frozen graphs it decoded, and an edit
/// compares the graphs it rebuilds with them: on a body edit whose rebuilt
/// graphs come out equal and on one that changes them, the restored
/// session must report the reuse its donor reports and answer like a
/// fresh session.
#[test]
fn restored_sessions_report_their_donors_reuse_on_body_edits() {
    let b = thinslice_suite::benchmark_named("nanoxml").expect("nanoxml is in the suite");
    let sources = owned(&b.sources);
    let mut donor = AnalysisSession::new(&refs(&sources)).expect("nanoxml compiles");
    assert!(assert_matches_fresh(&mut donor, &sources, 2, "warmup") > 0);
    let key = thinslice::source_hash(&refs(&sources));
    let bytes = donor
        .write_snapshot(&key)
        .expect("complete stages snapshot");
    let mut restored =
        AnalysisSession::from_snapshot(&bytes, &key, PtaConfig::default(), RunCtx::disabled())
            .expect("the snapshot restores");
    // The same queries on the restored session build the summary graphs
    // the donor holds.
    assert!(assert_matches_fresh(&mut restored, &sources, 2, "restored") > 0);

    // A flipped comparison is no value-only edit, so both graphs are
    // rebuilt, but no dependence reads an operator: they come out equal.
    let (file, text) = &sources[0];
    let flipped = text.replacen("indexOf(\"/\") > 0", "indexOf(\"/\") >= 0", 1);
    assert_ne!(&flipped, text, "nanoxml has a comparison to flip");
    let brace = flipped.find(") {").expect("a method header") + 3;
    let mut inserted = flipped.clone();
    inserted.insert_str(brace, "\nint freshLocal = 1;");
    for (edit, text, graphs_equal) in [("flip", flipped, true), ("insert", inserted, false)] {
        let mut edited = sources.clone();
        edited[0] = (file.clone(), text);
        let want = donor.update(&refs(&edited)).expect("the edit compiles");
        let got = restored.update(&refs(&edited)).expect("the edit compiles");
        assert!(
            !want.noop && !want.structural && !want.undiffed,
            "{edit}: {want:?}"
        );
        assert!(want.control_deps_recomputed > 0, "{edit}: graphs rebuilt");
        assert_eq!(want.ci_graph_reused, graphs_equal, "{edit}: {want:?}");
        assert_eq!(want.cs_graph_reused, graphs_equal, "{edit}: {want:?}");
        assert_eq!(want.csr_segments_refrozen > 0, !graphs_equal, "{edit}");
        assert_eq!(want.memo_entries_kept > 0, graphs_equal, "{edit}");
        assert_eq!(want.memo_entries_invalidated > 0, !graphs_equal, "{edit}");
        assert_eq!(got.ci_graph_reused, want.ci_graph_reused, "{edit}");
        assert_eq!(got.cs_graph_reused, want.cs_graph_reused, "{edit}");
        assert_eq!(got.csr_segments_total, want.csr_segments_total, "{edit}");
        assert_eq!(
            got.csr_segments_refrozen, want.csr_segments_refrozen,
            "{edit}"
        );
        assert_eq!(got.memo_entries_kept, want.memo_entries_kept, "{edit}");
        assert_eq!(
            got.memo_entries_invalidated, want.memo_entries_invalidated,
            "{edit}"
        );
        let ctx = format!("restored, after {edit}");
        assert!(assert_matches_fresh(&mut restored, &edited, 2, &ctx) > 0);
        assert!(assert_matches_fresh(&mut donor, &edited, 2, edit) > 0);
    }
}
