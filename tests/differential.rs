//! Differential testing: the interpreter's dynamic dependence trace is an
//! oracle for the static analyses.
//!
//! Soundness of the static thin slicer means: for any execution and any
//! seed statement, the statements in the *dynamic* thin slice (exact,
//! index-sensitive, per-run) must all appear in the *static* thin slice of
//! the same seed. Likewise for the full data slices. Both engines answer
//! the static side: context-insensitive reachability and
//! context-sensitive tabulation.

use thinslice::{AnalysisSession, Engine, Query, SliceKind};
use thinslice_interp::{dynamic_data_slice, dynamic_thin_slice, run, ExecConfig, Outcome};
use thinslice_ir::InstrKind;
use thinslice_suite::{generate, GeneratorConfig};
use thinslice_util::SmallRng;

fn exec_config() -> ExecConfig {
    ExecConfig {
        lines: vec![
            "alpha beta=1 /".into(),
            "gamma delta=2".into(),
            "x=3 tail".into(),
        ],
        ints: vec![3, 1, 4, 1, 5, 9, 2, 6],
        max_steps: 100_000,
        ..ExecConfig::default()
    }
}

/// Runs one program and checks dynamic ⊆ static for every executed print,
/// on both engines.
fn check_program(sources: &[(&str, &str)], config: &ExecConfig) {
    let mut session = AnalysisSession::new(sources).expect("compiles");
    let exec = run(session.program(), config);
    // Whatever the outcome, the recorded prefix of the trace is valid.
    for (idx, (event, _)) in exec.prints.iter().enumerate() {
        let seed_stmt = exec.events[*event].stmt;
        if session.ci_graph().stmt_node(seed_stmt).is_none() {
            continue;
        }
        let dyn_thin = dynamic_thin_slice(&exec, *event);
        let dyn_data = dynamic_data_slice(&exec, *event);
        for engine in [Engine::Ci, Engine::Cs] {
            let mut static_slice = |kind| {
                let r = session.query(&Query::new(vec![seed_stmt], kind, engine));
                assert!(r.completeness.is_complete() && !r.degraded);
                r.stmt_set()
            };
            let static_thin = static_slice(SliceKind::Thin);
            let static_data = static_slice(SliceKind::TraditionalData);
            for s in &dyn_thin.stmts {
                assert!(
                    static_thin.contains(s),
                    "print #{idx}: dynamic thin stmt {s:?} missing from static {engine:?} thin slice"
                );
            }
            for s in &dyn_data.stmts {
                assert!(
                    static_data.contains(s),
                    "print #{idx}: dynamic data stmt {s:?} missing from static {engine:?} data slice"
                );
            }
        }
        // Thin ⊆ data dynamically too.
        assert!(dyn_thin.stmts.is_subset(&dyn_data.stmts));
    }
}

#[test]
fn dynamic_slices_are_subsets_on_all_benchmarks() {
    for b in thinslice_suite::all_benchmarks() {
        let sources: Vec<(&str, &str)> = b.sources.clone();
        check_program(&sources, &exec_config());
    }
}

#[test]
fn benchmarks_actually_execute() {
    // Every benchmark must run far enough to print something — otherwise
    // the differential test is vacuous.
    for b in thinslice_suite::all_benchmarks() {
        let session = AnalysisSession::new(&b.sources).unwrap();
        let exec = run(session.program(), &exec_config());
        assert!(
            !exec.prints.is_empty() || !matches!(exec.outcome, Outcome::Finished),
            "{}: executed {} steps, printed nothing, finished silently",
            b.name,
            exec.step_count()
        );
        assert!(exec.step_count() > 10, "{}: trivial execution", b.name);
    }
}

#[test]
fn figure1_dynamic_trace_reproduces_the_bug() {
    // Running the paper's Figure 1 actually prints "FIRST NAME: Joh" — the
    // off-by-one bug — and the dynamic thin slice from that print contains
    // the buggy substring statement.
    let src = r#"class Names {
    static Vector readNames(InputStream input) {
        Vector firstNames = new Vector();
        while (!input.eof()) {
            String fullName = input.readLine();
            int spaceInd = fullName.indexOf(" ");
            String firstName = fullName.substring(0, spaceInd - 1);
            firstNames.add(firstName);
        }
        return firstNames;
    }
    static void printNames(Vector firstNames) {
        for (int i = 0; i < firstNames.size(); i++) {
            String firstName = (String) firstNames.get(i);
            print("FIRST NAME: " + firstName);
        }
    }
}
class Main {
    static void main() {
        Vector firstNames = Names.readNames(new InputStream("input"));
        Names.printNames(firstNames);
    }
}"#;
    let session = AnalysisSession::new(&[("fig1.mj", src)]).unwrap();
    let program = session.program();
    let exec = run(
        program,
        &ExecConfig {
            lines: vec!["John Doe".into()],
            ..ExecConfig::default()
        },
    );
    assert_eq!(exec.outcome, Outcome::Finished, "{:?}", exec.outcome);
    assert_eq!(exec.prints.len(), 1);
    assert_eq!(
        exec.prints[0].1, "FIRST NAME: Joh",
        "the paper's bug, observed at runtime"
    );

    let seed = exec.prints[0].0;
    let dyn_thin = dynamic_thin_slice(&exec, seed);
    let buggy = program
        .all_stmts()
        .find(|s| {
            matches!(&program.instr(*s).kind, InstrKind::Call { callee, .. }
                if program.methods[*callee].name == "substring")
        })
        .unwrap();
    assert!(
        dyn_thin.contains_stmt(buggy),
        "the dynamic thin slice walks straight to the buggy substring"
    );
}

/// Dynamic ⊆ static on randomly generated programs with random inputs.
#[test]
fn dynamic_subset_of_static_on_generated_programs() {
    for case in 0..8u64 {
        let mut rng = SmallRng::new(case ^ 0xd1ff);
        let seed = rng.next_u64() % 300;
        let ints: Vec<i64> = (0..rng.range_usize(4, 16))
            .map(|_| rng.range_i64(-50, 50))
            .collect();
        let config = GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        };
        let src = generate(&config);
        let exec_config = ExecConfig {
            ints,
            max_steps: 50_000,
            ..ExecConfig::default()
        };
        check_program(&[("gen.mj", &src)], &exec_config);
    }
}
