//! Exercises every MJ standard-library container method end-to-end:
//! compiled, analysed, sliced and executed — the static and dynamic
//! results must agree per the differential contract.

use thinslice::{AnalysisSession, Engine, Query, SliceKind};
use thinslice_interp::{dynamic_thin_slice, run, ExecConfig, Outcome};

const WORKOUT: &str = r#"class Main {
    static void main() {
        Vector v = new Vector();
        for (int i = 0; i < 12; i++) {
            v.add("item" + i);
        }
        print(v.size());
        print((String) v.removeAt(0));
        print(v.size());
        if (v.contains(v.get(3))) {
            print("contains works");
        }
        v.set(0, "replaced");
        print((String) v.get(0));

        VectorIterator it = v.iterator();
        int seen = 0;
        while (it.hasNext()) {
            Object o = it.next();
            seen = seen + 1;
        }
        print(seen);

        Stack st = new Stack();
        st.push("bottom");
        st.push("top");
        print((String) st.peek());
        print((String) st.pop());
        print((String) st.pop());

        Hashtable h = new Hashtable();
        h.put("one", "1");
        h.put("two", "2");
        h.put("one", "uno");
        print((String) h.get("one"));
        print(h.size());
        if (h.containsKey("two")) {
            print("key found");
        }
        Vector vals = h.values();
        print(vals.size());

        LinkedList l = new LinkedList();
        l.addFirst("z");
        l.addFirst("y");
        l.addFirst("x");
        print((String) l.get(2));
        print(l.size());
        if (!l.isEmpty()) {
            print("list nonempty");
        }

        StringBuffer sb = new StringBuffer();
        sb.append("ab");
        sb.append("cd");
        print(sb.toString());
    }
}"#;

#[test]
fn container_workout_executes_correctly() {
    let session = AnalysisSession::new(&[("workout.mj", WORKOUT)]).unwrap();
    let exec = run(session.program(), &ExecConfig::default());
    assert_eq!(exec.outcome, Outcome::Finished, "{:?}", exec.outcome);
    let texts: Vec<&str> = exec.prints.iter().map(|(_, t)| t.as_str()).collect();
    assert_eq!(
        texts,
        vec![
            "12",
            "item0",
            "11",
            "contains works",
            "replaced",
            "11",
            "top",
            "top",
            "bottom",
            "uno",
            "2",
            "key found",
            "2",
            "z",
            "3",
            "list nonempty",
            "abcd",
        ]
    );
}

#[test]
fn container_workout_dynamic_slices_are_subsets() {
    let mut session = AnalysisSession::new(&[("workout.mj", WORKOUT)]).unwrap();
    let exec = run(session.program(), &ExecConfig::default());
    for (event, _) in &exec.prints {
        let seed = exec.events[*event].stmt;
        if session.ci_graph().stmt_node(seed).is_none() {
            continue;
        }
        let static_thin = session
            .query(&Query::new(vec![seed], SliceKind::Thin, Engine::Ci))
            .stmt_set();
        let dynamic = dynamic_thin_slice(&exec, *event);
        for s in &dynamic.stmts {
            assert!(
                static_thin.contains(s),
                "dynamic stmt {s:?} missing from static thin slice of {seed:?}"
            );
        }
    }
}

#[test]
fn container_workout_thin_slices_skip_growth_machinery() {
    // Pushing 12 items forces Vector.grow; the grown backing array is a
    // base-pointer concern and its length computation must stay out of the
    // thin slice of a retrieved value.
    let mut session = AnalysisSession::new(&[("workout.mj", WORKOUT)]).unwrap();
    let line = WORKOUT
        .lines()
        .position(|l| l.contains("print((String) v.get(0));"))
        .unwrap() as u32
        + 1;
    let seeds = session.seed_at_line("workout.mj", line).unwrap();
    let thin = session.query(&Query::new(seeds.clone(), SliceKind::Thin, Engine::Ci));
    let trad = session.query(&Query::new(seeds, SliceKind::TraditionalData, Engine::Ci));
    let program = session.program();
    let vector = program.class_named("Vector").unwrap();
    let grow = program.resolve_method(vector, "grow").unwrap();
    let grow_alloc = program
        .all_stmts()
        .find(|s| {
            s.method == grow
                && matches!(
                    program.instr(*s).kind,
                    thinslice_ir::InstrKind::NewArray { .. }
                )
        })
        .unwrap();
    assert!(
        !thin.contains(grow_alloc),
        "the grown array allocation is container machinery"
    );
    assert!(
        trad.contains(grow_alloc),
        "…which the traditional slice includes"
    );
    // But grow's element-copying store IS a producer (values flow through
    // it when the vector grows).
    let copy_store = program
        .all_stmts()
        .find(|s| {
            s.method == grow
                && matches!(
                    program.instr(*s).kind,
                    thinslice_ir::InstrKind::ArrayStore { .. }
                )
        })
        .unwrap();
    assert!(
        thin.contains(copy_store),
        "bigger[i] = this.elems[i] copies the value and is a producer"
    );
}
