//! The `nanoxml` benchmark: a small XML parser in MJ.
//!
//! Mirrors the dependence shape of the SIR nanoxml subject: parsed values
//! (names, attribute values, content strings) are stored into and retrieved
//! from `Vector`s of elements and attributes, often across two container
//! hops — the paper notes its injected bugs "often required tracing a value
//! as it is inserted and later retrieved from one or two Vectors" (§6.2).

use crate::spec::{Benchmark, Marker, Task, TaskKind};

/// MJ source of the benchmark.
pub const SOURCE: &str = r#"class XmlAttribute {
    String key;
    String value;
    XmlAttribute(String key, String value) {
        this.key = key;
        this.value = value;
    }
}

class XmlElement {
    String name;
    Vector attributes;
    Vector children;
    String content;
    boolean open;
    boolean selfClosing;
    XmlElement(String name) {
        this.name = name;
        this.attributes = new Vector();
        this.children = new Vector();
        this.content = "";
        this.open = true;
        this.selfClosing = false;
    }
    void addAttribute(String key, String value) {
        this.attributes.add(new XmlAttribute(key, value));
    }
    String getAttribute(String key) {
        int i = 0;
        while (i < this.attributes.size()) {
            XmlAttribute a = (XmlAttribute) this.attributes.get(i);
            if (a.key.equalsStr(key)) {
                return a.value;
            }
            i = i + 1;
        }
        return null;
    }
    void addChild(XmlElement child) {
        this.children.add(child);
    }
    XmlElement childAt(int index) {
        return (XmlElement) this.children.get(index);
    }
    int childCount() {
        return this.children.size();
    }
    void setContent(String content) {
        this.content = content;
    }
    String getContent() {
        return this.content;
    }
    void clearContent() {
        this.invalidate();
    }
    void invalidate() {
        this.content = null;
        this.open = false;
    }
    String getName() {
        return this.name;
    }
}

class XmlParser {
    InputStream input;
    String defaultNamespace;
    Vector errors;
    Vector seenIds;
    Vector seenNames;
    XmlParser(InputStream input) {
        this.input = input;
        this.defaultNamespace = "ns-default";
        this.errors = new Vector();
        this.seenIds = new Vector();
        this.seenNames = new Vector();
    }
    XmlElement parseDocument() {
        XmlElement root = new XmlElement("root");
        while (!this.input.eof()) {
            String line = this.input.readLine();
            XmlElement child = this.parseElement(line);
            root.addChild(child);
        }
        return root;
    }
    XmlElement parseElement(String line) {
        int nameEnd = line.indexOf(" ");
        String name = line.substring(1, nameEnd - 1);
        XmlElement elem = new XmlElement(name);
        String idValue = this.parseAttribute(line);
        this.seenIds.add(idValue);
        elem.addAttribute("id", idValue);
        this.seenNames.add(name);
        String text = line.substring(nameEnd, line.length());
        XmlElement inner = new XmlElement("inner");
        inner.setContent(text);
        elem.addChild(inner);
        elem.selfClosing = line.indexOf("/") > 0;
        return elem;
    }
    String parseAttribute(String line) {
        int eq = line.indexOf("=");
        String value = line.substring(eq + 2, line.length() - 1);
        return value;
    }
    String namespaceFor(XmlElement elem) {
        String explicit = elem.getAttribute("xmlns");
        if (explicit != null) {
            return explicit;
        }
        return this.defaultNamespace;
    }
}

class Main {
    static void main() {
        InputStream in = new InputStream("doc.xml");
        XmlParser parser = new XmlParser(in);
        XmlElement root = parser.parseDocument();
        Main.validateIds(root);
        Main.dumpNames(parser);
        Main.dumpContent(root);
        Main.checkSelfClosing(root);
        Main.checkNamespaces(parser, root);
        Hashtable registry = new Hashtable();
        registry.put("document", root);
        XmlElement cached = (XmlElement) registry.get("document");
        XmlElement first = Main.pickElement(cached);
        first.clearContent();
        XmlElement fetched = (XmlElement) registry.get("document");
        XmlElement again = Main.pickElement(fetched);
        String liveContent = again.getContent();
        if (liveContent == null) {
            throw new RuntimeException("content vanished");
        }
        print(liveContent);
    }
    static XmlElement pickElement(XmlElement root) {
        XmlElement found = null;
        int i = 0;
        while (i < root.childCount()) {
            XmlElement candidate = root.childAt(i);
            String marker = candidate.getAttribute("id");
            if (marker != null) {
                found = candidate;
            }
            i = i + 1;
        }
        return found;
    }
    static void validateIds(XmlElement root) {
        int i = 0;
        while (i < root.childCount()) {
            XmlElement c = root.childAt(i);
            String id = c.getAttribute("id");
            print("id: " + id);
            i = i + 1;
        }
    }
    static void dumpNames(XmlParser parser) {
        Vector names = parser.seenNames;
        int i = 0;
        while (i < names.size()) {
            String name = (String) names.get(i);
            print("name: " + name);
            i = i + 1;
        }
    }
    static void dumpContent(XmlElement root) {
        int i = 0;
        while (i < root.childCount()) {
            XmlElement c = root.childAt(i);
            int j = 0;
            while (j < c.childCount()) {
                XmlElement grandchild = c.childAt(j);
                print("content: " + grandchild.getContent());
                j = j + 1;
            }
            i = i + 1;
        }
    }
    static void checkSelfClosing(XmlElement root) {
        int i = 0;
        while (i < root.childCount()) {
            XmlElement c = root.childAt(i);
            if (c.selfClosing) {
                throw new RuntimeException("unexpected self-closing element");
            }
            i = i + 1;
        }
    }
    static void checkNamespaces(XmlParser parser, XmlElement root) {
        int i = 0;
        while (i < root.childCount()) {
            XmlElement c = root.childAt(i);
            String ns = parser.namespaceFor(c);
            print("ns: " + ns);
            i = i + 1;
        }
    }
}
"#;

/// The benchmark definition.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "nanoxml",
        sources: vec![("nanoxml.mj", SOURCE)],
    }
}

/// The six injected-bug tasks (Table 2 rows nanoxml-1 … nanoxml-6).
pub fn bugs() -> Vec<Task> {
    let m = |snippet: &'static str| Marker {
        file: "nanoxml.mj",
        snippet,
    };
    vec![
        // Attribute value printed wrong; the bug is the substring offset in
        // parseAttribute, two container hops away from the print.
        Task {
            id: "nanoxml-1",
            benchmark: "nanoxml",
            kind: TaskKind::Bug,
            seed: m("print(\"id: \" + id);"),
            desired: vec![m("substring(eq + 2, line.length() - 1)")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 12,
            paper_trad: 32,
        },
        // Element name printed wrong; the bug is the off-by-one in
        // parseElement's name substring.
        Task {
            id: "nanoxml-2",
            benchmark: "nanoxml",
            kind: TaskKind::Bug,
            seed: m("print(\"name: \" + name);"),
            desired: vec![m("substring(1, nameEnd - 1)")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 25,
            paper_trad: 113,
        },
        // Grandchild content wrong — the value travels through two nested
        // Vectors before being printed.
        Task {
            id: "nanoxml-3",
            benchmark: "nanoxml",
            kind: TaskKind::Bug,
            seed: m("print(\"content: \" + grandchild.getContent());"),
            desired: vec![m("substring(nameEnd, line.length())")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 29,
            paper_trad: 123,
        },
        // Spurious self-closing exception; the bug is the flag computation,
        // one relevant control dependence (the throwing if).
        Task {
            id: "nanoxml-4",
            benchmark: "nanoxml",
            kind: TaskKind::Bug,
            seed: m("throw new RuntimeException(\"unexpected self-closing element\");"),
            desired: vec![m("selfClosing = line.indexOf(\"/\") > 0;")],
            control_deps: 1,
            needs_alias_expansion: false,
            paper_thin: 12,
            paper_trad: 33,
        },
        // The Figure-4 pattern: content cleared through one alias fetched
        // from the children Vector, read through another; finding the
        // `first.clearContent()` call requires explaining the aliasing.
        Task {
            id: "nanoxml-5",
            benchmark: "nanoxml",
            kind: TaskKind::Bug,
            seed: m("throw new RuntimeException(\"content vanished\");"),
            desired: vec![m("first.clearContent();")],
            control_deps: 1,
            needs_alias_expansion: true,
            paper_thin: 35,
            paper_trad: 156,
        },
        // Wrong namespace printed; the bug is the defaultNamespace
        // initialisation in the parser constructor.
        Task {
            id: "nanoxml-6",
            benchmark: "nanoxml",
            kind: TaskKind::Bug,
            seed: m("print(\"ns: \" + ns);"),
            desired: vec![m("this.defaultNamespace = \"ns-default\";")],
            control_deps: 0,
            needs_alias_expansion: false,
            paper_thin: 12,
            paper_trad: 52,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice::RunCtx;
    use thinslice_pta::PtaConfig;

    #[test]
    fn nanoxml_compiles_and_tasks_resolve() {
        let b = benchmark();
        let mut a = b.session(PtaConfig::default(), RunCtx::disabled());
        for task in bugs() {
            let resolved = task.resolve(&b, &mut a);
            assert!(!resolved.seeds.is_empty(), "{}: no seeds", task.id);
            assert!(!resolved.desired.is_empty(), "{}: no desired", task.id);
        }
    }
}
