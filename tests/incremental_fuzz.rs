//! Fuzz-ish property: *any* seeded edit script, applied round by round
//! through [`AnalysisSession::update`], leaves the session answering
//! bit-for-bit like a from-scratch rebuild of the final sources — no
//! matter how the script interleaves no-op, body-only, and structural
//! edits, and no matter which stages each round's update chose to keep.
//!
//! The per-round cross-product lives in `tests/incremental.rs`; this
//! suite trades per-round breadth for script *length* and seed diversity,
//! because invalidation bugs compound: a stale artifact kept in round k
//! only surfaces in a later round that rebuilds on top of it.

use thinslice::{AnalysisSession, Engine, Query, SliceKind};
use thinslice_ir::InstrKind;
use thinslice_suite::edits::EditScript;

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

/// Thin slices from up to 3 print seeds, for both engines, rendered to a
/// comparable form.
fn answers(s: &mut AnalysisSession) -> Vec<String> {
    let seeds: Vec<_> = {
        let program = s.program();
        program
            .all_stmts()
            .filter(|st| matches!(program.instr(*st).kind, InstrKind::Print { .. }))
            .take(3)
            .collect()
    };
    let mut out = Vec::new();
    for seed in seeds {
        for engine in [Engine::Ci, Engine::Cs] {
            let r = s.query(&Query::new(vec![seed], SliceKind::Thin, engine));
            out.push(format!(
                "{engine:?} {:?} {:?} {}",
                r.completeness, r.stmts, r.nodes_visited,
            ));
        }
    }
    out
}

#[test]
fn long_edit_scripts_keep_updates_equivalent_to_rebuilds() {
    for name in ["nanoxml", "jtopas"] {
        let b = thinslice_suite::benchmark_named(name).expect("suite benchmark");
        for seed in [1u64, 0xFEED] {
            let mut sources = owned(&b.sources);
            let mut live = AnalysisSession::new(&refs(&sources)).expect("compiles");
            // Warm both engines before the script starts.
            let _ = answers(&mut live);
            let mut gen = EditScript::new(seed);
            for round in 0..10 {
                let (next, edit) = gen.step(&sources);
                live.update(&refs(&next))
                    .unwrap_or_else(|e| panic!("{name} seed {seed} round {round} ({edit:?}): {e}"));
                let mut fresh = AnalysisSession::new(&refs(&next)).expect("compiles");
                assert_eq!(
                    answers(&mut live),
                    answers(&mut fresh),
                    "{name} seed {seed} round {round} ({edit:?})"
                );
                sources = next;
            }
        }
    }
}
