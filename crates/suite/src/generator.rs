//! Parametric MJ program generators for scalability experiments.
//!
//! The paper's scalability claims (§6.1) need programs of increasing size:
//! the context-insensitive thin slicer stays cheap while the heap-parameter
//! SDG explodes. [`GeneratorConfig`] controls how much of each shape is
//! produced; generation is deterministic for a given seed.

use std::fmt::Write;
use thinslice_util::SmallRng;

/// Size knobs for the generated program.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of AST-style node subclasses (javac shape).
    pub node_classes: usize,
    /// Number of processing passes, each walking all node kinds.
    pub passes: usize,
    /// Number of distinct container round-trips in `main` (values stored
    /// into and read back out of per-use `Vector`s).
    pub container_chains: usize,
    /// Depth of the call chain each stored value travels through before
    /// reaching its container.
    pub call_depth: usize,
    /// RNG seed (shuffles arithmetic so bodies are not identical).
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            node_classes: 8,
            passes: 2,
            container_chains: 4,
            call_depth: 3,
            seed: 7,
        }
    }
}

impl GeneratorConfig {
    /// A configuration scaled by `factor` in every dimension.
    pub fn scaled(factor: usize) -> Self {
        let base = Self::default();
        Self {
            node_classes: base.node_classes * factor,
            passes: base.passes * factor,
            container_chains: base.container_chains * factor,
            call_depth: base.call_depth + factor,
            seed: base.seed,
        }
    }
}

/// Generates an MJ program exercising virtual dispatch, tagged downcasts
/// and container traffic, sized by `config`.
///
/// The generated program always defines a `Main.main` and compiles against
/// the standard library; it contains one `print` per container chain whose
/// thin slice is short and whose traditional slice spans the generated
/// plumbing.
pub fn generate(config: &GeneratorConfig) -> String {
    let mut rng = SmallRng::new(config.seed);
    let mut out = String::new();

    // The node hierarchy (javac shape). The base `weigh` makes calls
    // through the supertype polymorphic (CHA vs Andersen ablation).
    out.push_str("class GenNode {\n    int op;\n    GenNode(int op) {\n        this.op = op;\n    }\n    int weigh() {\n        return this.op;\n    }\n}\n\n");
    for i in 0..config.node_classes {
        let a = rng.range_usize(1, 9);
        let b = rng.range_usize(1, 9);
        writeln!(
            out,
            "class GenNode{i} extends GenNode {{\n    int payload;\n    GenNode{i}(int payload) {{\n        super({op});\n        this.payload = payload * {a} + {b};\n    }}\n    int weigh() {{\n        return this.payload * {b};\n    }}\n}}\n",
            op = i + 1,
        )
        .unwrap();
    }

    // A builder filling a Vector with nodes of every kind.
    out.push_str("class GenBuilder {\n    Vector nodes;\n    GenBuilder() {\n        this.nodes = new Vector();\n    }\n    void buildAll(InputStream in) {\n");
    for i in 0..config.node_classes {
        writeln!(out, "        this.nodes.add(new GenNode{i}(in.readInt()));").unwrap();
    }
    out.push_str("    }\n    GenNode nodeAt(int i) {\n        return (GenNode) this.nodes.get(i);\n    }\n    int count() {\n        return this.nodes.size();\n    }\n}\n\n");

    // Processing passes switching on the tag and downcasting.
    for p in 0..config.passes {
        writeln!(out, "class GenPass{p} {{\n    int total;\n    GenPass{p}() {{\n        this.total = 0;\n    }}\n    void run(GenBuilder builder) {{\n        int i = 0;\n        while (i < builder.count()) {{\n            GenNode n = builder.nodeAt(i);\n            this.visit(n);\n            i = i + 1;\n        }}\n    }}\n    void visit(GenNode n) {{\n        int op = n.op;").unwrap();
        for i in 0..config.node_classes {
            writeln!(
                out,
                "        if (op == {tag}) {{\n            GenNode{i} t{i} = (GenNode{i}) n;\n            this.total = this.total + t{i}.weigh();\n        }}",
                tag = i + 1,
            )
            .unwrap();
        }
        out.push_str("    }\n}\n\n");
    }

    // Call-depth helpers: each value travels through `call_depth` wrappers.
    for d in 0..config.call_depth {
        let next = if d + 1 < config.call_depth {
            format!("GenHop{}.relay(value + {})", d + 1, rng.range_usize(1, 5))
        } else {
            "value".to_string()
        };
        writeln!(
            out,
            "class GenHop{d} {{\n    static int relay(int value) {{\n        return {next};\n    }}\n}}\n"
        )
        .unwrap();
    }

    // A summary pass dispatching through the supertype.
    out.push_str("class GenSummary {\n    int total(GenBuilder builder) {\n        int sum = 0;\n        int i = 0;\n        while (i < builder.count()) {\n            GenNode n = builder.nodeAt(i);\n            sum = sum + n.weigh();\n            i = i + 1;\n        }\n        return sum;\n    }\n}\n\n");

    // Container chains in main.
    out.push_str("class Main {\n    static void main() {\n        InputStream in = new InputStream(\"gen.dat\");\n        GenBuilder builder = new GenBuilder();\n        builder.buildAll(in);\n        GenSummary summary = new GenSummary();\n        print(\"summary: \" + \"\" + summary.total(builder));\n");
    for p in 0..config.passes {
        writeln!(out, "        GenPass{p} pass{p} = new GenPass{p}();\n        pass{p}.run(builder);\n        print(\"pass{p}: \" + \"\" + pass{p}.total);").unwrap();
    }
    for c in 0..config.container_chains {
        writeln!(
            out,
            "        Vector chain{c} = new Vector();\n        int seed{c} = GenHop0.relay(in.readInt());\n        chain{c}.add(\"v\" + \"\" + seed{c});\n        String out{c} = (String) chain{c}.get(0);\n        print(out{c});"
        )
        .unwrap();
    }
    out.push_str("    }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::AnalysisSession;
    use thinslice_sdg::DepGraph;

    #[test]
    fn generated_program_compiles() {
        let src = generate(&GeneratorConfig::default());
        let mut s =
            AnalysisSession::new(&[("gen.mj", &src)]).expect("generated program must compile");
        assert!(s.pta().callgraph.node_count() > 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let c = GeneratorConfig::default();
        assert_eq!(generate(&c), generate(&c));
    }

    #[test]
    fn scaled_configs_grow_the_program() {
        let small = generate(&GeneratorConfig::default());
        let big = generate(&GeneratorConfig::scaled(3));
        assert!(big.len() > small.len() * 2);
        let mut s = AnalysisSession::new(&[("gen.mj", &big)]).expect("scaled program must compile");
        assert!(s.ci_graph().node_count() > 0);
    }

    #[test]
    fn generated_casts_are_tough() {
        // Every pass downcasts container-retrieved nodes; at least one cast
        // must be unverifiable.
        let src = generate(&GeneratorConfig::default());
        let mut session = AnalysisSession::new(&[("gen.mj", &src)]).unwrap();
        let (program, pta, graph) = session.ci_parts();
        let mut tough = 0;
        for s in program.all_stmts() {
            if let thinslice_ir::InstrKind::Cast {
                src: thinslice_ir::Operand::Var(v),
                ty,
                ..
            } = &program.instr(s).kind
            {
                if graph.stmt_node(s).is_some() && !pta.cast_is_verified(program, s.method, *v, ty)
                {
                    tough += 1;
                }
            }
        }
        assert!(tough > 0, "generated program must contain tough casts");
    }
}
