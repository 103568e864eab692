//! The `jtopas` benchmark: a small tokenizer in MJ.
//!
//! In the paper both jtopas bugs sit essentially at the failure point
//! ("with jtopas-1, the buggy statement itself fails with a
//! NullPointerException"), so thin and traditional slicing tie at 1–2
//! inspected statements. The program still exercises token objects stored
//! in a `Vector` so the non-trivial machinery is present.

use crate::spec::{Benchmark, Marker, Task, TaskKind};

/// MJ source of the benchmark.
pub const SOURCE: &str = r#"class Token {
    String image;
    int kind;
    Token(String image, int kind) {
        this.image = image;
        this.kind = kind;
    }
}

class Tokenizer {
    InputStream input;
    Vector tokens;
    Vector keywords;
    int pos;
    Tokenizer(InputStream input) {
        this.input = input;
        this.tokens = new Vector();
        this.keywords = new Vector();
        this.pos = 0;
    }
    void tokenize() {
        while (!this.input.eof()) {
            String line = this.input.readLine();
            int cut = line.indexOf(" ");
            String image = line.substring(0, cut);
            Token t = new Token(image, this.classify(image));
            this.tokens.add(t);
            if (t.kind == 2) {
                this.keywords.add(t);
            }
        }
    }
    int keywordCount() {
        return this.keywords.size();
    }
    int classify(String image) {
        if (image.length() > 3) {
            return 2;
        }
        return 1;
    }
    boolean hasNext() {
        return this.pos < this.tokens.size();
    }
    Token next() {
        Token t = (Token) this.tokens.get(this.pos);
        this.pos = this.pos + 1;
        return t;
    }
    Token peekBeyondEnd() {
        return (Token) this.tokens.get(this.tokens.size());
    }
}

class Main {
    static void main() {
        InputStream in = new InputStream("input.txt");
        Tokenizer tok = new Tokenizer(in);
        tok.tokenize();
        print("keywords: " + "" + tok.keywordCount());
        while (tok.hasNext()) {
            Token t = tok.next();
            if (t.kind == 2) {
                throw new RuntimeException("keyword not allowed: " + t.image);
            }
            print(t.image);
        }
        Token ghost = tok.peekBeyondEnd();
        String head = ghost.image.substring(0, 1);
        print(head);
    }
}
"#;

/// The benchmark definition.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "jtopas",
        sources: vec![("jtopas.mj", SOURCE)],
    }
}

/// The two injected-bug tasks (Table 2 rows jtopas-1, jtopas-2).
pub fn bugs() -> Vec<Task> {
    let m = |snippet: &'static str| Marker {
        file: "jtopas.mj",
        snippet,
    };
    vec![
        // The buggy statement itself fails (a null dereference — `ghost`
        // is an out-of-range read): seed == desired, one inspection.
        Task {
            id: "jtopas-1",
            benchmark: "jtopas",
            kind: TaskKind::Bug,
            seed: m("String head = ghost.image.substring(0, 1);"),
            desired: vec![m("String head = ghost.image.substring(0, 1);")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 1,
            paper_trad: 1,
        },
        // A spurious "keyword" exception; the classification threshold is
        // the bug, one step from the failing throw, guarded by one
        // relevant conditional.
        Task {
            id: "jtopas-2",
            benchmark: "jtopas",
            kind: TaskKind::Bug,
            seed: m("throw new RuntimeException(\"keyword not allowed: \" + t.image);"),
            desired: vec![m("return 2;")],
            control_deps: 1,
            needs_alias_expansion: false,
            paper_thin: 2,
            paper_trad: 2,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::RunCtx;
    use thinslice_pta::PtaConfig;

    #[test]
    fn jtopas_compiles_and_tasks_resolve() {
        let b = benchmark();
        let mut a = b.session(PtaConfig::default(), RunCtx::disabled());
        for task in bugs() {
            let resolved = task.resolve(&b, &mut a);
            assert!(!resolved.seeds.is_empty(), "{}: no seeds", task.id);
        }
    }
}
