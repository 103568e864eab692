//! The MJ three-address intermediate representation.
//!
//! A [`Program`] owns the class table, field table and method table. Each
//! non-native method has a [`Body`]: a control-flow graph of [`Block`]s whose
//! last instruction is a terminator ([`InstrKind::is_terminator`]). After SSA
//! construction every variable has exactly one definition and blocks may
//! begin with [`InstrKind::Phi`] instructions.

use crate::span::{FileId, SourceFile, Span};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;
use thinslice_util::FxHashMap;
use thinslice_util::{new_index, IdxVec};

new_index!(
    /// Identifies a class in [`Program::classes`].
    pub struct ClassId
);
new_index!(
    /// Identifies a field in [`Program::fields`].
    pub struct FieldId
);
new_index!(
    /// Identifies a method in [`Program::methods`].
    pub struct MethodId
);
new_index!(
    /// Identifies a local variable/SSA value within one method body.
    pub struct Var
);
new_index!(
    /// Identifies a basic block within one method body.
    pub struct BlockId
);

/// A whole compiled MJ program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Source files, for line rendering in reports.
    pub files: IdxVec<FileId, SourceFile>,
    /// All classes, including the built-in standard library.
    pub classes: IdxVec<ClassId, Class>,
    /// All fields of all classes.
    pub fields: IdxVec<FieldId, Field>,
    /// All methods of all classes.
    pub methods: IdxVec<MethodId, Method>,
    /// Class lookup by name.
    pub class_by_name: FxHashMap<String, ClassId>,
    /// The root `Object` class.
    pub object_class: ClassId,
    /// The built-in `String` class.
    pub string_class: ClassId,
    /// The program entry point (`static void main()` on some class).
    pub main_method: MethodId,
    /// Statements by `(file name, line)`, built on the first
    /// [`Program::stmts_at_line`] call. A compiled program is never
    /// mutated, so the index cannot go stale; not serialized.
    pub(crate) line_index: LineIndex,
    /// Source lines rendered for reports, one slot per line of every
    /// file, each filled on the first [`Program::source_line`] call for
    /// its line. Derived from `files` like `line_index`, so it needs no
    /// invalidation either; not serialized.
    pub(crate) lines: LineMemo,
}

/// Non-synthetic statements grouped by file name, then line, each group
/// in [`Program::all_stmts`] order. File names are unique in a program;
/// they come from outside it, so the outer map keeps std's
/// collision-resistant hasher.
type StmtsByLine = HashMap<String, FxHashMap<u32, Vec<StmtRef>>>;

/// The lazily built statement index behind [`Program::stmts_at_line`].
#[derive(Clone, Default)]
pub(crate) struct LineIndex(OnceLock<StmtsByLine>);

impl fmt::Debug for LineIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Derived state: a program prints the same before and after its
        // first lookup.
        f.write_str("LineIndex")
    }
}

/// The memo behind [`Program::source_line`]: sized on first use, then
/// filled one line at a time.
#[derive(Clone, Default)]
pub(crate) struct LineMemo(OnceLock<LineSlots>);

/// One slot per source line, files in [`FileId`] order.
#[derive(Clone)]
struct LineSlots {
    /// The slot of each file's line 1, then the slot count: file `f`
    /// owns slots `first[f]..first[f + 1]`.
    first: Vec<usize>,
    slots: Box<[OnceLock<RenderedLine>]>,
}

/// A source line in both of the forms a [`Line`] lends.
#[derive(Clone)]
struct RenderedLine {
    text: Box<str>,
    json: Box<str>,
}

impl fmt::Debug for LineMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LineMemo")
    }
}

/// A source line as reports print it, `file:line: text` with the line's
/// text trimmed, borrowed from its program's memo
/// ([`Program::source_line`]). It dereferences to that text;
/// [`Line::json`] is the same text as a JSON string literal.
#[derive(Clone, Copy)]
pub struct Line<'p> {
    text: &'p str,
    json: &'p str,
}

impl<'p> Line<'p> {
    /// The line as a JSON string literal, quotes included.
    pub fn json(&self) -> &'p str {
        self.json
    }
}

impl std::ops::Deref for Line<'_> {
    type Target = str;

    fn deref(&self) -> &str {
        self.text
    }
}

impl fmt::Display for Line<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl fmt::Debug for Line<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.text, f)
    }
}

/// A class declaration.
#[derive(Debug, Clone)]
pub struct Class {
    /// Class name (unique program-wide).
    pub name: String,
    /// Superclass; `None` only for `Object`.
    pub superclass: Option<ClassId>,
    /// Fields declared directly in this class.
    pub fields: Vec<FieldId>,
    /// Methods declared directly in this class (including the constructor).
    pub methods: Vec<MethodId>,
    /// Declaration site.
    pub span: Span,
}

/// A field declaration.
#[derive(Debug, Clone)]
pub struct Field {
    /// Declaring class.
    pub class: ClassId,
    /// Field name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Whether the field is static.
    pub is_static: bool,
    /// Declaration site.
    pub span: Span,
}

/// A method declaration (possibly native, possibly a constructor).
#[derive(Debug, Clone)]
pub struct Method {
    /// Declaring class.
    pub class: ClassId,
    /// Method name; constructors use [`crate::ast::CTOR_NAME`].
    pub name: String,
    /// Parameter types, *excluding* the implicit `this`.
    pub param_tys: Vec<Type>,
    /// Return type ([`Type::Void`] for void methods and constructors).
    pub ret_ty: Type,
    /// Whether the method is static.
    pub is_static: bool,
    /// Whether the method is native (no body; modelled by analyses).
    pub is_native: bool,
    /// The lowered body; `None` for native methods.
    pub body: Option<Body>,
    /// Declaration site.
    pub span: Span,
}

impl Method {
    /// Whether this method is a constructor.
    pub fn is_ctor(&self) -> bool {
        self.name == crate::ast::CTOR_NAME
    }

    /// A `Class.name` display string; requires the owning program for the
    /// class name.
    pub fn qualified_name(&self, program: &Program) -> String {
        format!("{}.{}", program.classes[self.class].name, self.name)
    }
}

/// A semantic MJ type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `int`
    Int,
    /// `boolean`
    Bool,
    /// `void` (return types only)
    Void,
    /// The type of `null` (subtype of all reference types).
    Null,
    /// A class instance type.
    Class(ClassId),
    /// An array type.
    Array(Box<Type>),
}

impl Type {
    /// Whether this is a reference type (class, array or null).
    pub fn is_reference(&self) -> bool {
        matches!(self, Type::Class(_) | Type::Array(_) | Type::Null)
    }

    /// Renders the type with class names from `program`.
    pub fn display(&self, program: &Program) -> String {
        match self {
            Type::Int => "int".into(),
            Type::Bool => "boolean".into(),
            Type::Void => "void".into(),
            Type::Null => "null".into(),
            Type::Class(c) => program.classes[*c].name.clone(),
            Type::Array(t) => format!("{}[]", t.display(program)),
        }
    }
}

/// A method body: CFG over basic blocks plus the variable table.
#[derive(Debug, Clone)]
pub struct Body {
    /// Basic blocks; `blocks[entry]` is the entry block.
    pub blocks: IdxVec<BlockId, Block>,
    /// Variable metadata (parameters, locals and SSA versions).
    pub vars: IdxVec<Var, VarInfo>,
    /// Parameter variables, in order. For instance methods `params[0]` is
    /// `this`.
    pub params: Vec<Var>,
    /// The entry block.
    pub entry: BlockId,
}

impl Body {
    /// Iterates over all `(location, instruction)` pairs in block order.
    pub fn instrs(&self) -> impl Iterator<Item = (Loc, &Instr)> + '_ {
        self.blocks.iter_enumerated().flat_map(|(b, block)| {
            block.instrs.iter().enumerate().map(move |(i, instr)| {
                (
                    Loc {
                        block: b,
                        index: i as u32,
                    },
                    instr,
                )
            })
        })
    }

    /// Returns the instruction at `loc`.
    pub fn instr(&self, loc: Loc) -> &Instr {
        &self.blocks[loc.block].instrs[loc.index as usize]
    }

    /// Successor blocks of `b`, derived from its terminator.
    ///
    /// # Panics
    ///
    /// Panics if block `b` is empty or does not end in a terminator.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        match &self.blocks[b].instrs.last().expect("empty block").kind {
            InstrKind::Goto { target } => vec![*target],
            InstrKind::If {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            InstrKind::Return { .. } | InstrKind::Throw { .. } => vec![],
            other => panic!("block does not end in terminator: {other:?}"),
        }
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> IdxVec<BlockId, Vec<BlockId>> {
        let mut preds: IdxVec<BlockId, Vec<BlockId>> =
            IdxVec::from_elem(Vec::new(), self.blocks.len());
        for b in self.blocks.indices() {
            for s in self.successors(b) {
                preds[s].push(b);
            }
        }
        preds
    }

    /// Total number of instructions (including terminators and phis).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// Metadata about a variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source-level name (SSA versions share the original's name).
    pub name: String,
    /// Static type.
    pub ty: Type,
    /// For SSA versions: the pre-SSA variable this version renames.
    pub origin: Option<Var>,
}

/// A basic block: straight-line instructions ending in a terminator.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Instructions; the last one is always a terminator after lowering.
    pub instrs: Vec<Instr>,
}

/// A position within a method body: block plus instruction index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// The containing block.
    pub block: BlockId,
    /// Index into [`Block::instrs`].
    pub index: u32,
}

/// A program-wide statement reference: method plus location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtRef {
    /// The containing method.
    pub method: MethodId,
    /// The location within that method's body.
    pub loc: Loc,
}

/// An instruction with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Operation.
    pub kind: InstrKind,
    /// Source span (used for line-level reporting, as in the paper's tables).
    pub span: Span,
}

/// A compile-time constant operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Const {
    /// Integer constant.
    Int(i64),
    /// Boolean constant.
    Bool(bool),
    /// The null reference.
    Null,
}

/// An instruction operand: a variable or an inline constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A variable use.
    Var(Var),
    /// An inline constant.
    Const(Const),
}

impl Operand {
    /// The variable, if this operand is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Operand::Var(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }
}

impl From<Var> for Operand {
    fn from(v: Var) -> Self {
        Operand::Var(v)
    }
}

impl From<Const> for Operand {
    fn from(c: Const) -> Self {
        Operand::Const(c)
    }
}

/// How a call site dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Virtual dispatch on the runtime type of the receiver (`args[0]`).
    Virtual,
    /// Static method call (no receiver).
    Static,
    /// Direct (non-virtual) call: constructors and `super(...)`.
    Special,
}

/// Arithmetic/comparison operators in the IR (no short-circuit forms — those
/// lower to control flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrBinOp {
    /// `+` on ints
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (ints, booleans or reference identity)
    Eq,
    /// `!=`
    Ne,
}

/// Unary operators in the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrUnOp {
    /// Integer negation.
    Neg,
    /// Boolean not.
    Not,
}

/// Instruction kinds.
///
/// Heap-access instructions distinguish the *base pointer* (`base`) from the
/// value being moved — the distinction at the heart of thin slicing.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are described in the variant docs
pub enum InstrKind {
    /// `dst = const`
    Const { dst: Var, value: Const },
    /// `dst = "…"` — allocates a fresh `String` (allocation site).
    StrConst { dst: Var, value: String },
    /// `dst = src`
    Move { dst: Var, src: Operand },
    /// `dst = op src`
    Unary { dst: Var, op: IrUnOp, src: Operand },
    /// `dst = lhs op rhs`
    Binary {
        dst: Var,
        op: IrBinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = lhs + rhs` where either side is a `String`; allocates a fresh
    /// `String` whose value is produced from both operands.
    StrConcat {
        dst: Var,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = new C` (allocation site; the constructor call is separate).
    New { dst: Var, class: ClassId },
    /// `dst = new T[len]` (allocation site).
    NewArray { dst: Var, elem: Type, len: Operand },
    /// `dst = base.field`
    Load { dst: Var, base: Var, field: FieldId },
    /// `base.field = value`
    Store {
        base: Var,
        field: FieldId,
        value: Operand,
    },
    /// `dst = C.field`
    StaticLoad { dst: Var, field: FieldId },
    /// `C.field = value`
    StaticStore { field: FieldId, value: Operand },
    /// `dst = base[index]`
    ArrayLoad { dst: Var, base: Var, index: Operand },
    /// `base[index] = value`
    ArrayStore {
        base: Var,
        index: Operand,
        value: Operand,
    },
    /// `dst = base.length`
    ArrayLen { dst: Var, base: Var },
    /// `dst = (ty) src` — may fail at runtime; filters points-to sets.
    Cast { dst: Var, ty: Type, src: Operand },
    /// `dst = src instanceof C`
    InstanceOf {
        dst: Var,
        src: Operand,
        class: ClassId,
    },
    /// Method call. For [`CallKind::Virtual`]/[`CallKind::Special`],
    /// `args[0]` is the receiver. `callee` is the statically resolved target
    /// (the declared method for virtual calls).
    Call {
        dst: Option<Var>,
        kind: CallKind,
        callee: MethodId,
        args: Vec<Operand>,
    },
    /// `print(value)` — observable sink; common slice seed.
    Print { value: Operand },
    /// SSA φ: `dst = φ(args)`, one operand per predecessor block.
    Phi {
        dst: Var,
        args: Vec<(BlockId, Operand)>,
    },

    // ---- terminators ----
    /// Unconditional jump.
    Goto { target: BlockId },
    /// Conditional branch on a boolean operand.
    If {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Return from the method.
    Return { value: Option<Operand> },
    /// Throw an exception (terminates the method in MJ).
    Throw { value: Operand },
}

impl InstrKind {
    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstrKind::Goto { .. }
                | InstrKind::If { .. }
                | InstrKind::Return { .. }
                | InstrKind::Throw { .. }
        )
    }

    /// The variable defined by this instruction, if any.
    pub fn def(&self) -> Option<Var> {
        match self {
            InstrKind::Const { dst, .. }
            | InstrKind::StrConst { dst, .. }
            | InstrKind::Move { dst, .. }
            | InstrKind::Unary { dst, .. }
            | InstrKind::Binary { dst, .. }
            | InstrKind::StrConcat { dst, .. }
            | InstrKind::New { dst, .. }
            | InstrKind::NewArray { dst, .. }
            | InstrKind::Load { dst, .. }
            | InstrKind::StaticLoad { dst, .. }
            | InstrKind::ArrayLoad { dst, .. }
            | InstrKind::ArrayLen { dst, .. }
            | InstrKind::Cast { dst, .. }
            | InstrKind::InstanceOf { dst, .. }
            | InstrKind::Phi { dst, .. } => Some(*dst),
            InstrKind::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// All variables used by this instruction, with their use category.
    ///
    /// This is the load-bearing classification for thin slicing: a
    /// [`UseKind::BasePointer`] or [`UseKind::ArrayIndex`] use is excluded
    /// from producer flow dependences.
    pub fn uses(&self) -> Vec<(Var, UseKind)> {
        let mut out = Vec::new();
        let val = |o: &Operand, out: &mut Vec<(Var, UseKind)>| {
            if let Operand::Var(v) = o {
                out.push((*v, UseKind::Value));
            }
        };
        match self {
            InstrKind::Const { .. } | InstrKind::StrConst { .. } | InstrKind::Goto { .. } => {}
            InstrKind::Move { src, .. }
            | InstrKind::Unary { src, .. }
            | InstrKind::Cast { src, .. }
            | InstrKind::InstanceOf { src, .. }
            | InstrKind::StaticStore { value: src, .. }
            | InstrKind::Print { value: src }
            | InstrKind::Throw { value: src } => val(src, &mut out),
            InstrKind::Binary { lhs, rhs, .. } | InstrKind::StrConcat { lhs, rhs, .. } => {
                val(lhs, &mut out);
                val(rhs, &mut out);
            }
            InstrKind::New { .. } | InstrKind::StaticLoad { .. } => {}
            InstrKind::NewArray { len, .. } => val(len, &mut out),
            InstrKind::Load { base, .. } => out.push((*base, UseKind::BasePointer)),
            InstrKind::Store { base, value, .. } => {
                out.push((*base, UseKind::BasePointer));
                val(value, &mut out);
            }
            InstrKind::ArrayLoad { base, index, .. } => {
                out.push((*base, UseKind::BasePointer));
                if let Operand::Var(v) = index {
                    out.push((*v, UseKind::ArrayIndex));
                }
            }
            InstrKind::ArrayStore { base, index, value } => {
                out.push((*base, UseKind::BasePointer));
                if let Operand::Var(v) = index {
                    out.push((*v, UseKind::ArrayIndex));
                }
                val(value, &mut out);
            }
            InstrKind::ArrayLen { base, .. } => out.push((*base, UseKind::BasePointer)),
            InstrKind::Call { args, .. } => {
                for a in args {
                    val(a, &mut out);
                }
            }
            InstrKind::Phi { args, .. } => {
                for (_, a) in args {
                    val(a, &mut out);
                }
            }
            InstrKind::If { cond, .. } => val(cond, &mut out),
            InstrKind::Return { value } => {
                if let Some(v) = value {
                    val(v, &mut out);
                }
            }
        }
        out
    }

    /// Whether this instruction allocates a fresh abstract object.
    pub fn is_allocation(&self) -> bool {
        matches!(
            self,
            InstrKind::New { .. }
                | InstrKind::NewArray { .. }
                | InstrKind::StrConst { .. }
                | InstrKind::StrConcat { .. }
        )
    }

    /// Whether, in full Java semantics, this instruction could throw and thus
    /// act as an implicit conditional (used for the paper's §1 discussion of
    /// control-dependence blow-up).
    pub fn may_throw_implicitly(&self) -> bool {
        matches!(
            self,
            InstrKind::Load { .. }
                | InstrKind::Store { .. }
                | InstrKind::ArrayLoad { .. }
                | InstrKind::ArrayStore { .. }
                | InstrKind::ArrayLen { .. }
                | InstrKind::Cast { .. }
                | InstrKind::Call { .. }
                | InstrKind::Throw { .. }
        )
    }
}

impl Program {
    /// Whether `sub` equals or is a descendant of `sup`.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c].superclass;
        }
        false
    }

    /// Whether a value of type `from` is assignable to a slot of type `to`.
    pub fn is_assignable(&self, from: &Type, to: &Type) -> bool {
        match (from, to) {
            (Type::Int, Type::Int) | (Type::Bool, Type::Bool) => true,
            (Type::Null, t) if t.is_reference() => true,
            (Type::Class(a), Type::Class(b)) => self.is_subclass(*a, *b),
            (Type::Array(_), Type::Class(c)) => *c == self.object_class,
            (Type::Array(a), Type::Array(b)) => {
                // Covariant reference arrays, invariant primitive arrays.
                a == b || (a.is_reference() && b.is_reference() && self.is_assignable(a, b))
            }
            _ => false,
        }
    }

    /// Whether a cast from `from` to `to` can possibly succeed (up- or
    /// down-cast along one branch of the hierarchy).
    pub fn cast_may_succeed(&self, from: &Type, to: &Type) -> bool {
        self.is_assignable(from, to)
            || self.is_assignable(to, from)
            || matches!((from, to), (Type::Class(c), Type::Array(_)) if *c == self.object_class)
    }

    /// Resolves a virtual call: the method named `selector` visible on
    /// `class`, walking up the superclass chain.
    pub fn resolve_method(&self, class: ClassId, selector: &str) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &m in &self.classes[c].methods {
                if self.methods[m].name == selector {
                    return Some(m);
                }
            }
            cur = self.classes[c].superclass;
        }
        None
    }

    /// Finds the field named `name` visible on `class` (walking up the
    /// hierarchy).
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &f in &self.classes[c].fields {
                if self.fields[f].name == name {
                    return Some(f);
                }
            }
            cur = self.classes[c].superclass;
        }
        None
    }

    /// The constructor of `class`, if declared.
    pub fn ctor_of(&self, class: ClassId) -> Option<MethodId> {
        self.classes[class]
            .methods
            .iter()
            .copied()
            .find(|&m| self.methods[m].is_ctor())
    }

    /// All classes equal to or derived from `class`.
    pub fn subclasses_of(&self, class: ClassId) -> Vec<ClassId> {
        self.classes
            .indices()
            .filter(|&c| self.is_subclass(c, class))
            .collect()
    }

    /// Iterates over every statement in every method body.
    pub fn all_stmts(&self) -> impl Iterator<Item = StmtRef> + '_ {
        self.methods.iter_enumerated().flat_map(|(m, method)| {
            method.body.iter().flat_map(move |body| {
                body.instrs()
                    .map(move |(loc, _)| StmtRef { method: m, loc })
            })
        })
    }

    /// Returns the instruction behind a [`StmtRef`].
    ///
    /// # Panics
    ///
    /// Panics if the referenced method is native (has no body).
    pub fn instr(&self, s: StmtRef) -> &Instr {
        self.methods[s.method]
            .body
            .as_ref()
            .expect("native method has no body")
            .instr(s.loc)
    }

    /// Looks up a class by name.
    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// All IR statements on `line` of the source file named `file`
    /// (excluding synthetic code), in [`Program::all_stmts`] order.
    ///
    /// The first call indexes every statement by file and line; every
    /// later call is two hash lookups.
    pub fn stmts_at_line(&self, file: &str, line: u32) -> &[StmtRef] {
        let index = self.line_index.0.get_or_init(|| {
            let mut by_file: IdxVec<FileId, FxHashMap<u32, Vec<StmtRef>>> =
                IdxVec::from_elem(FxHashMap::default(), self.files.len());
            for s in self.all_stmts() {
                let span = self.instr(s).span;
                if !span.is_synthetic() {
                    by_file[span.file].entry(span.line).or_default().push(s);
                }
            }
            self.files
                .iter()
                .zip(by_file.into_raw())
                .map(|(f, lines)| (f.name.clone(), lines))
                .collect()
        });
        index
            .get(file)
            .and_then(|lines| lines.get(&line))
            .map_or(&[], Vec::as_slice)
    }

    /// How many source lines the program's files hold together: the
    /// domain of [`Program::line_slot`].
    pub fn line_slots(&self) -> usize {
        self.line_memo().slots.len()
    }

    /// The number of `span`'s source line among the lines of every file,
    /// or `None` for a synthetic span.
    ///
    /// # Panics
    ///
    /// Panics if `span` lies past the end of its file, which no compiled
    /// program's spans do: each points at a token of the file.
    pub fn line_slot(&self, span: Span) -> Option<usize> {
        if span.is_synthetic() {
            return None;
        }
        let first = &self.line_memo().first;
        let file = span.file.raw() as usize;
        let slot = first[file] + span.line as usize - 1;
        assert!(
            slot < first[file + 1],
            "line {} lies past the end of {}",
            span.line,
            self.files[span.file].name
        );
        Some(slot)
    }

    /// The source line in `slot` (see [`Program::line_slot`]), rendered
    /// on the first call for the slot and borrowed from then on.
    pub fn source_line(&self, slot: usize) -> Line<'_> {
        let memo = self.line_memo();
        let line = memo.slots[slot].get_or_init(|| {
            let file = memo.first.partition_point(|&first| first <= slot) - 1;
            let number = slot - memo.first[file] + 1;
            let source = &self.files[FileId::new(file)];
            let line = source
                .line(number as u32)
                .expect("a file's slots number its lines")
                .trim();
            let text = format!("{}:{number}: {line}", source.name);
            let mut json = String::with_capacity(text.len() + 2);
            thinslice_util::telemetry::escape_into(&mut json, &text);
            RenderedLine {
                text: text.into_boxed_str(),
                json: json.into_boxed_str(),
            }
        });
        Line {
            text: &line.text,
            json: &line.json,
        }
    }

    /// The line memo, with one empty slot per line once sized.
    fn line_memo(&self) -> &LineSlots {
        self.lines.0.get_or_init(|| {
            let mut first = Vec::with_capacity(self.files.len() + 1);
            let mut slots = 0;
            for file in self.files.iter() {
                first.push(slots);
                slots += file.line_count();
            }
            first.push(slots);
            LineSlots {
                first,
                slots: (0..slots).map(|_| OnceLock::new()).collect(),
            }
        })
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}[{}]", self.block, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stmts_at_line_matches_a_full_scan() {
        let src = "class Main {\n  static int id(int a) { return a; }\n  static void main() {\n    int x = 1; int y = Main.id(x);\n\n    print(y);\n  }\n}\n";
        let p = crate::compile(&[("t.mj", src)]).unwrap();
        for (file, f) in p.files.iter_enumerated() {
            let lines = f.text().lines().count() as u32;
            for line in 0..=lines + 1 {
                let scan: Vec<StmtRef> = p
                    .all_stmts()
                    .filter(|s| {
                        let span = p.instr(*s).span;
                        !span.is_synthetic() && span.file == file && span.line == line
                    })
                    .collect();
                assert_eq!(p.stmts_at_line(&f.name, line), scan.as_slice());
            }
        }
        assert!(
            p.stmts_at_line("t.mj", 4).len() > 2,
            "two statements on one line"
        );
        assert!(p.stmts_at_line("t.mj", 5).is_empty(), "blank line");
        assert!(p.stmts_at_line("nope.mj", 4).is_empty(), "unknown file");
    }

    #[test]
    fn operand_conversions() {
        let v = Var::new(3);
        assert_eq!(Operand::from(v).as_var(), Some(v));
        assert_eq!(Operand::from(Const::Int(1)).as_var(), None);
    }

    #[test]
    fn use_classification_for_heap_accesses() {
        let load = InstrKind::Load {
            dst: Var::new(0),
            base: Var::new(1),
            field: FieldId::new(0),
        };
        assert_eq!(load.uses(), vec![(Var::new(1), UseKind::BasePointer)]);

        let store = InstrKind::Store {
            base: Var::new(1),
            field: FieldId::new(0),
            value: Operand::Var(Var::new(2)),
        };
        assert_eq!(
            store.uses(),
            vec![
                (Var::new(1), UseKind::BasePointer),
                (Var::new(2), UseKind::Value)
            ]
        );

        let aload = InstrKind::ArrayLoad {
            dst: Var::new(0),
            base: Var::new(1),
            index: Operand::Var(Var::new(2)),
        };
        assert_eq!(
            aload.uses(),
            vec![
                (Var::new(1), UseKind::BasePointer),
                (Var::new(2), UseKind::ArrayIndex)
            ]
        );
    }

    #[test]
    fn call_arguments_are_value_uses() {
        let call = InstrKind::Call {
            dst: Some(Var::new(0)),
            kind: CallKind::Virtual,
            callee: MethodId::new(0),
            args: vec![Operand::Var(Var::new(1)), Operand::Var(Var::new(2))],
        };
        assert_eq!(
            call.uses(),
            vec![(Var::new(1), UseKind::Value), (Var::new(2), UseKind::Value)]
        );
    }

    #[test]
    fn terminator_classification() {
        assert!(InstrKind::Goto {
            target: BlockId::new(0)
        }
        .is_terminator());
        assert!(InstrKind::Return { value: None }.is_terminator());
        assert!(!InstrKind::Const {
            dst: Var::new(0),
            value: Const::Int(0)
        }
        .is_terminator());
    }

    #[test]
    fn allocations() {
        assert!(InstrKind::New {
            dst: Var::new(0),
            class: ClassId::new(0)
        }
        .is_allocation());
        assert!(InstrKind::StrConst {
            dst: Var::new(0),
            value: "x".into()
        }
        .is_allocation());
        assert!(!InstrKind::Move {
            dst: Var::new(0),
            src: Operand::Const(Const::Null)
        }
        .is_allocation());
    }
}

/// How an instruction uses a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseKind {
    /// The variable's value flows onward (a producer use).
    Value,
    /// The variable is dereferenced as the base pointer of a heap access —
    /// excluded from thin slices.
    BasePointer,
    /// The variable indexes an array access — excluded from thin slices
    /// (paper §4.1 treats index explanations as a separate expansion).
    ArrayIndex,
}
