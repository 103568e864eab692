//! The `jess` benchmark: a miniature rule engine in MJ.
//!
//! Facts carry tagged slot values; the matcher switches on the tag and
//! downcasts. Most of the paper's jess casts are cheap for both slicers
//! (ratios near 1, two relevant control dependences); jess-2 retrieves a
//! value from working memory and costs more for the traditional slicer.

use crate::spec::{Benchmark, Marker, Task, TaskKind};

/// MJ source of the benchmark.
pub const SOURCE: &str = r#"class Value {
    int kind;
    Value(int kind) {
        this.kind = kind;
    }
}

class IntValue extends Value {
    int num;
    IntValue(int num) {
        super(1);
        this.num = num;
    }
}

class StrValue extends Value {
    String text;
    StrValue(String text) {
        super(2);
        this.text = text;
    }
}

class SymbolValue extends Value {
    String symbol;
    SymbolValue(String symbol) {
        super(3);
        this.symbol = symbol;
    }
}

class Fact {
    String head;
    Vector slots;
    Fact(String head) {
        this.head = head;
        this.slots = new Vector();
    }
    void addSlot(Value v) {
        this.slots.add(v);
    }
    Value slotAt(int i) {
        return (Value) this.slots.get(i);
    }
    int slotCount() {
        return this.slots.size();
    }
}

class WorkingMemory {
    Vector facts;
    WorkingMemory() {
        this.facts = new Vector();
    }
    void assertFact(Fact f) {
        this.facts.add(f);
    }
    Fact factAt(int i) {
        return (Fact) this.facts.get(i);
    }
    int factCount() {
        return this.facts.size();
    }
}

class FactReader {
    InputStream input;
    FactReader(InputStream input) {
        this.input = input;
    }
    void readInto(WorkingMemory memory) {
        while (!this.input.eof()) {
            String line = this.input.readLine();
            Fact fact = new Fact(line.substring(0, line.indexOf(" ")));
            int tag = this.input.readInt();
            if (tag == 1) {
                fact.addSlot(new IntValue(this.input.readInt()));
            }
            if (tag == 2) {
                fact.addSlot(new StrValue(this.input.readLine()));
            }
            if (tag == 3) {
                fact.addSlot(new SymbolValue(this.input.readLine()));
            }
            memory.assertFact(fact);
        }
    }
}

class Matcher {
    int fired;
    Matcher() {
        this.fired = 0;
    }
    void matchAll(WorkingMemory memory) {
        int i = 0;
        while (i < memory.factCount()) {
            Fact fact = memory.factAt(i);
            int j = 0;
            while (j < fact.slotCount()) {
                this.matchSlot(fact.slotAt(j));
                j = j + 1;
            }
            i = i + 1;
        }
    }
    void matchSlot(Value v) {
        int kind = v.kind;
        if (kind == 1) {
            IntValue iv = (IntValue) v;
            if (iv.num > 100) {
                this.fired = this.fired + 1;
            }
        }
        if (kind == 2) {
            StrValue sv = (StrValue) v;
            if (sv.text.length() > 5) {
                this.fired = this.fired + 1;
            }
        }
        if (kind == 3) {
            SymbolValue yv = (SymbolValue) v;
            print("symbol: " + yv.symbol);
        }
    }
    Value bestSlot(WorkingMemory memory) {
        Value best = null;
        int i = 0;
        while (i < memory.factCount()) {
            Fact candidate = memory.factAt(i);
            if (candidate.slotCount() > 0) {
                best = candidate.slotAt(0);
            }
            i = i + 1;
        }
        return best;
    }
}

class Agenda {
    Stack pending;
    Agenda() {
        this.pending = new Stack();
    }
    void push(Fact f) {
        this.pending.push(f);
    }
    Fact pop() {
        return (Fact) this.pending.pop();
    }
    boolean isEmpty() {
        return this.pending.isEmpty();
    }
}

class Main {
    static void main() {
        InputStream in = new InputStream("facts.clp");
        WorkingMemory memory = new WorkingMemory();
        FactReader reader = new FactReader(in);
        reader.readInto(memory);
        Matcher matcher = new Matcher();
        matcher.matchAll(memory);
        Value best = matcher.bestSlot(memory);
        if (best instanceof IntValue) {
            IntValue bestInt = (IntValue) best;
            print("best: " + "" + bestInt.num);
        }
        Agenda agenda = new Agenda();
        int k = 0;
        while (k < memory.factCount()) {
            agenda.push(memory.factAt(k));
            k = k + 1;
        }
        while (!agenda.isEmpty()) {
            Fact next = agenda.pop();
            print("agenda: " + next.head);
        }
        print("fired: " + "" + matcher.fired);
    }
}
"#;

/// The benchmark definition.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "jess",
        sources: vec![("jess.mj", SOURCE)],
    }
}

/// The six tough-cast tasks (Table 3 rows jess-1 … jess-6).
pub fn casts() -> Vec<Task> {
    let m = |snippet: &'static str| Marker {
        file: "jess.mj",
        snippet,
    };
    vec![
        Task {
            id: "jess-1",
            benchmark: "jess",
            kind: TaskKind::ToughCast,
            seed: m("IntValue iv = (IntValue) v;"),
            desired: vec![m("super(1);"), m("super(2);"), m("super(3);")],
            control_deps: 2,
            needs_alias_expansion: false,
            paper_thin: 6,
            paper_trad: 7,
        },
        Task {
            id: "jess-2",
            benchmark: "jess",
            kind: TaskKind::ToughCast,
            seed: m("IntValue bestInt = (IntValue) best;"),
            desired: vec![m("fact.addSlot(new IntValue(this.input.readInt()));")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 13,
            paper_trad: 39,
        },
        Task {
            id: "jess-3",
            benchmark: "jess",
            kind: TaskKind::ToughCast,
            seed: m("StrValue sv = (StrValue) v;"),
            desired: vec![m("super(1);"), m("super(2);"), m("super(3);")],
            control_deps: 2,
            needs_alias_expansion: false,
            paper_thin: 6,
            paper_trad: 6,
        },
        Task {
            id: "jess-4",
            benchmark: "jess",
            kind: TaskKind::ToughCast,
            seed: m("SymbolValue yv = (SymbolValue) v;"),
            desired: vec![m("super(1);"), m("super(2);"), m("super(3);")],
            control_deps: 2,
            needs_alias_expansion: false,
            paper_thin: 6,
            paper_trad: 7,
        },
        Task {
            id: "jess-5",
            benchmark: "jess",
            kind: TaskKind::ToughCast,
            seed: m("return (Fact) this.pending.pop();"),
            desired: vec![m("agenda.push(memory.factAt(k));")],
            control_deps: 2,
            needs_alias_expansion: false,
            paper_thin: 6,
            paper_trad: 7,
        },
        Task {
            id: "jess-6",
            benchmark: "jess",
            kind: TaskKind::ToughCast,
            seed: m("return (Fact) this.facts.get(i);"),
            desired: vec![m("memory.assertFact(fact);")],
            control_deps: 2,
            needs_alias_expansion: false,
            paper_thin: 6,
            paper_trad: 6,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::RunCtx;
    use thinslice_pta::PtaConfig;

    #[test]
    fn jess_compiles_and_tasks_resolve() {
        let b = benchmark();
        let mut a = b.session(PtaConfig::default(), RunCtx::disabled());
        for task in casts() {
            let resolved = task.resolve(&b, &mut a);
            assert!(!resolved.seeds.is_empty(), "{}: no seeds", task.id);
        }
    }
}
