//! Binary (de)serialization of compiled [`Program`]s for warm-start
//! snapshots.
//!
//! The encoding is a direct structural walk of the IR using the
//! [`thinslice_util::codec`] primitives: dense ids become varints, enums
//! become one-byte tags, options become a presence byte. `class_by_name` is
//! the only field not written — it is derivable, and rebuilding it on decode
//! keeps the payload free of hash-map iteration order.
//!
//! Fidelity is exact: a decoded program is field-for-field identical to the
//! encoded one (including spans and SSA variable metadata), so every
//! downstream artifact keyed by `StmtRef`, `Var`, or declaration-order ids
//! remains valid against the restored program.

use std::collections::HashSet;
use thinslice_util::codec::{ByteReader, ByteWriter, CodecError};
use thinslice_util::{FxHashMap, Idx, IdxVec};

use crate::ir::{
    Block, BlockId, Body, CallKind, Class, ClassId, Const, Field, FieldId, Instr, InstrKind,
    IrBinOp, IrUnOp, LineIndex, LineMemo, Method, MethodId, Operand, Program, Type, Var, VarInfo,
};
use crate::parser::MAX_NESTING;
use crate::span::{FileId, SourceFile, Span};

/// Encodes `program` into `w`.
pub fn encode_program(program: &Program, w: &mut ByteWriter) {
    w.vusize(program.files.len());
    for file in program.files.iter() {
        w.str(&file.name);
        w.str(file.text());
    }
    w.vusize(program.classes.len());
    for class in program.classes.iter() {
        w.str(&class.name);
        opt(w, class.superclass.map(|c| c.raw()));
        w.vusize(class.fields.len());
        for f in &class.fields {
            w.vu64(u64::from(f.raw()));
        }
        w.vusize(class.methods.len());
        for m in &class.methods {
            w.vu64(u64::from(m.raw()));
        }
        span(w, class.span);
    }
    w.vusize(program.fields.len());
    for field in program.fields.iter() {
        w.vu64(u64::from(field.class.raw()));
        w.str(&field.name);
        ty(w, &field.ty);
        w.bool(field.is_static);
        span(w, field.span);
    }
    w.vusize(program.methods.len());
    for method in program.methods.iter() {
        w.vu64(u64::from(method.class.raw()));
        w.str(&method.name);
        w.vusize(method.param_tys.len());
        for t in &method.param_tys {
            ty(w, t);
        }
        ty(w, &method.ret_ty);
        w.bool(method.is_static);
        w.bool(method.is_native);
        match &method.body {
            None => w.bool(false),
            Some(b) => {
                w.bool(true);
                body(w, b);
            }
        }
        span(w, method.span);
    }
    w.vu64(u64::from(program.object_class.raw()));
    w.vu64(u64::from(program.string_class.raw()));
    w.vu64(u64::from(program.main_method.raw()));
}

/// Decodes a program previously written by [`encode_program`].
pub fn decode_program(r: &mut ByteReader) -> Result<Program, CodecError> {
    // Capacity hints are clamped by the bytes actually left in the
    // buffer, so a corrupt length claim cannot trigger a huge allocation
    // before the per-element reads hit `Truncated`.
    let cap = |n: usize, r: &ByteReader| n.min(r.remaining());
    let n_files = r.vusize()?;
    let mut files: IdxVec<FileId, SourceFile> = IdxVec::with_capacity(cap(n_files, r));
    let mut names: HashSet<&str> = HashSet::new();
    for _ in 0..n_files {
        let name = r.str()?;
        let text = r.str()?;
        // Compiled programs never repeat a file name; the line index
        // keys on it.
        if !names.insert(name) {
            return Err(CodecError::Malformed("duplicate file name"));
        }
        files.push(SourceFile::new(name, text));
    }
    let n_classes = r.vusize()?;
    let mut classes: IdxVec<ClassId, Class> = IdxVec::with_capacity(cap(n_classes, r));
    for _ in 0..n_classes {
        let name = r.str()?.to_string();
        let superclass = d_opt(r)?;
        let n_fields = r.vusize()?;
        let mut fields = Vec::with_capacity(cap(n_fields, r));
        for _ in 0..n_fields {
            fields.push(r.vidx::<FieldId>()?);
        }
        let n_methods = r.vusize()?;
        let mut methods = Vec::with_capacity(cap(n_methods, r));
        for _ in 0..n_methods {
            methods.push(r.vidx::<MethodId>()?);
        }
        let span = d_span(r)?;
        classes.push(Class {
            name,
            superclass,
            fields,
            methods,
            span,
        });
    }
    let n_program_fields = r.vusize()?;
    let mut fields: IdxVec<FieldId, Field> = IdxVec::with_capacity(cap(n_program_fields, r));
    for _ in 0..n_program_fields {
        let class = r.vidx::<ClassId>()?;
        let name = r.str()?.to_string();
        let ty = d_ty(r)?;
        let is_static = r.bool()?;
        let span = d_span(r)?;
        fields.push(Field {
            class,
            name,
            ty,
            is_static,
            span,
        });
    }
    let n_methods = r.vusize()?;
    let mut methods: IdxVec<MethodId, Method> = IdxVec::with_capacity(cap(n_methods, r));
    for _ in 0..n_methods {
        let class = r.vidx::<ClassId>()?;
        let name = r.str()?.to_string();
        let n_params = r.vusize()?;
        let mut param_tys = Vec::with_capacity(cap(n_params, r));
        for _ in 0..n_params {
            param_tys.push(d_ty(r)?);
        }
        let ret_ty = d_ty(r)?;
        let is_static = r.bool()?;
        let is_native = r.bool()?;
        let body = if r.bool()? { Some(d_body(r)?) } else { None };
        let span = d_span(r)?;
        methods.push(Method {
            class,
            name,
            param_tys,
            ret_ty,
            is_static,
            is_native,
            body,
            span,
        });
    }
    let object_class = r.vidx::<ClassId>()?;
    let string_class = r.vidx::<ClassId>()?;
    let main_method = r.vidx::<MethodId>()?;
    let mut class_by_name = FxHashMap::with_capacity_and_hasher(classes.len(), Default::default());
    for (id, class) in classes.iter_enumerated() {
        class_by_name.insert(class.name.clone(), id);
    }
    Ok(Program {
        files,
        classes,
        fields,
        methods,
        class_by_name,
        object_class,
        string_class,
        main_method,
        line_index: LineIndex::default(),
        lines: LineMemo::default(),
    })
}

fn opt(w: &mut ByteWriter, v: Option<u32>) {
    match v {
        None => w.bool(false),
        Some(v) => {
            w.bool(true);
            w.vu64(u64::from(v));
        }
    }
}

fn d_opt<I: Idx>(r: &mut ByteReader) -> Result<Option<I>, CodecError> {
    Ok(if r.bool()? { Some(r.vidx()?) } else { None })
}

fn span(w: &mut ByteWriter, s: Span) {
    w.vu64(u64::from(s.file.raw()));
    w.vu64(u64::from(s.line));
    w.vu64(u64::from(s.col));
}

fn d_span(r: &mut ByteReader) -> Result<Span, CodecError> {
    Ok(Span {
        file: r.vidx::<FileId>()?,
        line: r.vu64()? as u32,
        col: r.vu64()? as u32,
    })
}

/// Encodes a [`Type`] (public for downstream artifact serializers: abstract
/// object kinds in `pta` embed element types).
pub fn encode_type(w: &mut ByteWriter, t: &Type) {
    ty(w, t);
}

/// Decodes a [`Type`] written by [`encode_type`].
pub fn decode_type(r: &mut ByteReader) -> Result<Type, CodecError> {
    d_ty(r)
}

/// Encodes a [`StmtRef`](crate::ir::StmtRef) (method id, block, instruction index).
pub fn encode_stmt_ref(w: &mut ByteWriter, s: crate::ir::StmtRef) {
    w.vu64(u64::from(s.method.raw()));
    w.vu64(u64::from(s.loc.block.raw()));
    w.vu64(u64::from(s.loc.index));
}

/// Decodes a [`StmtRef`](crate::ir::StmtRef) written by [`encode_stmt_ref`].
pub fn decode_stmt_ref(r: &mut ByteReader) -> Result<crate::ir::StmtRef, CodecError> {
    Ok(crate::ir::StmtRef {
        method: r.vidx::<MethodId>()?,
        loc: crate::ir::Loc {
            block: r.vidx::<BlockId>()?,
            index: r.vu64()? as u32,
        },
    })
}

fn ty(w: &mut ByteWriter, t: &Type) {
    match t {
        Type::Int => w.u8(0),
        Type::Bool => w.u8(1),
        Type::Void => w.u8(2),
        Type::Null => w.u8(3),
        Type::Class(c) => {
            w.u8(4);
            w.vu64(u64::from(c.raw()));
        }
        Type::Array(elem) => {
            w.u8(5);
            ty(w, elem);
        }
    }
}

/// Decodes a run of array tags by counting it, not by recursing, so a
/// snapshot cannot overflow the restoring thread's stack. The parser
/// refuses array types nested deeper than [`MAX_NESTING`], so a longer run
/// comes from no compiled program.
fn d_ty(r: &mut ByteReader) -> Result<Type, CodecError> {
    let mut arrays = 0;
    let base = loop {
        match r.u8()? {
            0 => break Type::Int,
            1 => break Type::Bool,
            2 => break Type::Void,
            3 => break Type::Null,
            4 => break Type::Class(r.vidx::<ClassId>()?),
            5 if arrays == MAX_NESTING => return Err(CodecError::Malformed("type nesting")),
            5 => arrays += 1,
            _ => return Err(CodecError::Malformed("type tag")),
        }
    };
    Ok((0..arrays).fold(base, |t, _| Type::Array(Box::new(t))))
}

fn body(w: &mut ByteWriter, b: &Body) {
    w.vusize(b.blocks.len());
    for block in b.blocks.iter() {
        w.vusize(block.instrs.len());
        for instr in &block.instrs {
            instr_kind(w, &instr.kind);
            span(w, instr.span);
        }
    }
    w.vusize(b.vars.len());
    for info in b.vars.iter() {
        w.str(&info.name);
        ty(w, &info.ty);
        opt(w, info.origin.map(|v| v.raw()));
    }
    w.vusize(b.params.len());
    for p in &b.params {
        w.vu64(u64::from(p.raw()));
    }
    w.vu64(u64::from(b.entry.raw()));
}

fn d_body(r: &mut ByteReader) -> Result<Body, CodecError> {
    let cap = |n: usize, r: &ByteReader| n.min(r.remaining());
    let n_blocks = r.vusize()?;
    let mut blocks: IdxVec<BlockId, Block> = IdxVec::with_capacity(cap(n_blocks, r));
    for _ in 0..n_blocks {
        let n_instrs = r.vusize()?;
        let mut instrs = Vec::with_capacity(cap(n_instrs, r));
        for _ in 0..n_instrs {
            let kind = d_instr_kind(r)?;
            let span = d_span(r)?;
            instrs.push(Instr { kind, span });
        }
        blocks.push(Block { instrs });
    }
    let n_vars = r.vusize()?;
    let mut vars: IdxVec<Var, VarInfo> = IdxVec::with_capacity(cap(n_vars, r));
    for _ in 0..n_vars {
        let name = r.str()?.to_string();
        let ty = d_ty(r)?;
        let origin = d_opt(r)?;
        vars.push(VarInfo { name, ty, origin });
    }
    let n_params = r.vusize()?;
    let mut params = Vec::with_capacity(cap(n_params, r));
    for _ in 0..n_params {
        params.push(r.vidx::<Var>()?);
    }
    let entry = r.vidx::<BlockId>()?;
    Ok(Body {
        blocks,
        vars,
        params,
        entry,
    })
}

fn operand(w: &mut ByteWriter, o: &Operand) {
    match o {
        Operand::Var(v) => {
            w.u8(0);
            w.vu64(u64::from(v.raw()));
        }
        Operand::Const(Const::Int(i)) => {
            w.u8(1);
            w.vi64(*i);
        }
        Operand::Const(Const::Bool(b)) => {
            w.u8(2);
            w.bool(*b);
        }
        Operand::Const(Const::Null) => w.u8(3),
    }
}

fn d_operand(r: &mut ByteReader) -> Result<Operand, CodecError> {
    Ok(match r.u8()? {
        0 => Operand::Var(r.vidx::<Var>()?),
        1 => Operand::Const(Const::Int(r.vi64()?)),
        2 => Operand::Const(Const::Bool(r.bool()?)),
        3 => Operand::Const(Const::Null),
        _ => return Err(CodecError::Malformed("operand tag")),
    })
}

fn var(w: &mut ByteWriter, v: Var) {
    w.vu64(u64::from(v.raw()));
}

fn d_var(r: &mut ByteReader) -> Result<Var, CodecError> {
    r.vidx()
}

fn instr_kind(w: &mut ByteWriter, k: &InstrKind) {
    match k {
        InstrKind::Const { dst, value } => {
            w.u8(0);
            var(w, *dst);
            operand(w, &Operand::Const(*value));
        }
        InstrKind::StrConst { dst, value } => {
            w.u8(1);
            var(w, *dst);
            w.str(value);
        }
        InstrKind::Move { dst, src } => {
            w.u8(2);
            var(w, *dst);
            operand(w, src);
        }
        InstrKind::Unary { dst, op, src } => {
            w.u8(3);
            var(w, *dst);
            w.u8(*op as u8);
            operand(w, src);
        }
        InstrKind::Binary { dst, op, lhs, rhs } => {
            w.u8(4);
            var(w, *dst);
            w.u8(*op as u8);
            operand(w, lhs);
            operand(w, rhs);
        }
        InstrKind::StrConcat { dst, lhs, rhs } => {
            w.u8(5);
            var(w, *dst);
            operand(w, lhs);
            operand(w, rhs);
        }
        InstrKind::New { dst, class } => {
            w.u8(6);
            var(w, *dst);
            w.vu64(u64::from(class.raw()));
        }
        InstrKind::NewArray { dst, elem, len } => {
            w.u8(7);
            var(w, *dst);
            ty(w, elem);
            operand(w, len);
        }
        InstrKind::Load { dst, base, field } => {
            w.u8(8);
            var(w, *dst);
            var(w, *base);
            w.vu64(u64::from(field.raw()));
        }
        InstrKind::Store { base, field, value } => {
            w.u8(9);
            var(w, *base);
            w.vu64(u64::from(field.raw()));
            operand(w, value);
        }
        InstrKind::StaticLoad { dst, field } => {
            w.u8(10);
            var(w, *dst);
            w.vu64(u64::from(field.raw()));
        }
        InstrKind::StaticStore { field, value } => {
            w.u8(11);
            w.vu64(u64::from(field.raw()));
            operand(w, value);
        }
        InstrKind::ArrayLoad { dst, base, index } => {
            w.u8(12);
            var(w, *dst);
            var(w, *base);
            operand(w, index);
        }
        InstrKind::ArrayStore { base, index, value } => {
            w.u8(13);
            var(w, *base);
            operand(w, index);
            operand(w, value);
        }
        InstrKind::ArrayLen { dst, base } => {
            w.u8(14);
            var(w, *dst);
            var(w, *base);
        }
        InstrKind::Cast { dst, ty: t, src } => {
            w.u8(15);
            var(w, *dst);
            ty(w, t);
            operand(w, src);
        }
        InstrKind::InstanceOf { dst, src, class } => {
            w.u8(16);
            var(w, *dst);
            operand(w, src);
            w.vu64(u64::from(class.raw()));
        }
        InstrKind::Call {
            dst,
            kind,
            callee,
            args,
        } => {
            w.u8(17);
            opt(w, dst.map(|v| v.raw()));
            w.u8(match kind {
                CallKind::Virtual => 0,
                CallKind::Static => 1,
                CallKind::Special => 2,
            });
            w.vu64(u64::from(callee.raw()));
            w.vusize(args.len());
            for a in args {
                operand(w, a);
            }
        }
        InstrKind::Print { value } => {
            w.u8(18);
            operand(w, value);
        }
        InstrKind::Phi { dst, args } => {
            w.u8(19);
            var(w, *dst);
            w.vusize(args.len());
            for (b, a) in args {
                w.vu64(u64::from(b.raw()));
                operand(w, a);
            }
        }
        InstrKind::Goto { target } => {
            w.u8(20);
            w.vu64(u64::from(target.raw()));
        }
        InstrKind::If {
            cond,
            then_bb,
            else_bb,
        } => {
            w.u8(21);
            operand(w, cond);
            w.vu64(u64::from(then_bb.raw()));
            w.vu64(u64::from(else_bb.raw()));
        }
        InstrKind::Return { value } => {
            w.u8(22);
            match value {
                None => w.bool(false),
                Some(v) => {
                    w.bool(true);
                    operand(w, v);
                }
            }
        }
        InstrKind::Throw { value } => {
            w.u8(23);
            operand(w, value);
        }
    }
}

fn d_instr_kind(r: &mut ByteReader) -> Result<InstrKind, CodecError> {
    Ok(match r.u8()? {
        0 => {
            let dst = d_var(r)?;
            match d_operand(r)? {
                Operand::Const(value) => InstrKind::Const { dst, value },
                Operand::Var(_) => return Err(CodecError::Malformed("const operand")),
            }
        }
        1 => InstrKind::StrConst {
            dst: d_var(r)?,
            value: r.str()?.to_string(),
        },
        2 => InstrKind::Move {
            dst: d_var(r)?,
            src: d_operand(r)?,
        },
        3 => InstrKind::Unary {
            dst: d_var(r)?,
            op: d_unop(r)?,
            src: d_operand(r)?,
        },
        4 => InstrKind::Binary {
            dst: d_var(r)?,
            op: d_binop(r)?,
            lhs: d_operand(r)?,
            rhs: d_operand(r)?,
        },
        5 => InstrKind::StrConcat {
            dst: d_var(r)?,
            lhs: d_operand(r)?,
            rhs: d_operand(r)?,
        },
        6 => InstrKind::New {
            dst: d_var(r)?,
            class: r.vidx::<ClassId>()?,
        },
        7 => InstrKind::NewArray {
            dst: d_var(r)?,
            elem: d_ty(r)?,
            len: d_operand(r)?,
        },
        8 => InstrKind::Load {
            dst: d_var(r)?,
            base: d_var(r)?,
            field: r.vidx::<FieldId>()?,
        },
        9 => InstrKind::Store {
            base: d_var(r)?,
            field: r.vidx::<FieldId>()?,
            value: d_operand(r)?,
        },
        10 => InstrKind::StaticLoad {
            dst: d_var(r)?,
            field: r.vidx::<FieldId>()?,
        },
        11 => InstrKind::StaticStore {
            field: r.vidx::<FieldId>()?,
            value: d_operand(r)?,
        },
        12 => InstrKind::ArrayLoad {
            dst: d_var(r)?,
            base: d_var(r)?,
            index: d_operand(r)?,
        },
        13 => InstrKind::ArrayStore {
            base: d_var(r)?,
            index: d_operand(r)?,
            value: d_operand(r)?,
        },
        14 => InstrKind::ArrayLen {
            dst: d_var(r)?,
            base: d_var(r)?,
        },
        15 => InstrKind::Cast {
            dst: d_var(r)?,
            ty: d_ty(r)?,
            src: d_operand(r)?,
        },
        16 => InstrKind::InstanceOf {
            dst: d_var(r)?,
            src: d_operand(r)?,
            class: r.vidx::<ClassId>()?,
        },
        17 => {
            let dst = d_opt(r)?;
            let kind = match r.u8()? {
                0 => CallKind::Virtual,
                1 => CallKind::Static,
                2 => CallKind::Special,
                _ => return Err(CodecError::Malformed("call kind")),
            };
            let callee = r.vidx::<MethodId>()?;
            let mut args = Vec::new();
            for _ in 0..r.vusize()? {
                args.push(d_operand(r)?);
            }
            InstrKind::Call {
                dst,
                kind,
                callee,
                args,
            }
        }
        18 => InstrKind::Print {
            value: d_operand(r)?,
        },
        19 => {
            let dst = d_var(r)?;
            let mut args = Vec::new();
            for _ in 0..r.vusize()? {
                let b = r.vidx::<BlockId>()?;
                args.push((b, d_operand(r)?));
            }
            InstrKind::Phi { dst, args }
        }
        20 => InstrKind::Goto {
            target: r.vidx::<BlockId>()?,
        },
        21 => InstrKind::If {
            cond: d_operand(r)?,
            then_bb: r.vidx::<BlockId>()?,
            else_bb: r.vidx::<BlockId>()?,
        },
        22 => InstrKind::Return {
            value: if r.bool()? { Some(d_operand(r)?) } else { None },
        },
        23 => InstrKind::Throw {
            value: d_operand(r)?,
        },
        _ => return Err(CodecError::Malformed("instr tag")),
    })
}

fn d_unop(r: &mut ByteReader) -> Result<IrUnOp, CodecError> {
    Ok(match r.u8()? {
        0 => IrUnOp::Neg,
        1 => IrUnOp::Not,
        _ => return Err(CodecError::Malformed("unary op")),
    })
}

fn d_binop(r: &mut ByteReader) -> Result<IrBinOp, CodecError> {
    Ok(match r.u8()? {
        0 => IrBinOp::Add,
        1 => IrBinOp::Sub,
        2 => IrBinOp::Mul,
        3 => IrBinOp::Div,
        4 => IrBinOp::Rem,
        5 => IrBinOp::Lt,
        6 => IrBinOp::Le,
        7 => IrBinOp::Gt,
        8 => IrBinOp::Ge,
        9 => IrBinOp::Eq,
        10 => IrBinOp::Ne,
        _ => return Err(CodecError::Malformed("binary op")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const SRC: &str = r#"class Helper {
        int bias;
        Helper(int b) { this.bias = b; }
        int scale(int x) {
            int acc = 0;
            int i = 0;
            while (i < x) {
                if (i % 2 == 0) { acc = acc + this.bias; } else { acc = acc - 1; }
                i++;
            }
            return acc;
        }
    }
    class Main {
        static int[] table;
        static void main() {
            Helper h = new Helper(7);
            Vector v = new Vector();
            v.add("seed" + 1);
            int[] xs = new int[3];
            xs[0] = h.scale(5);
            Main.table = xs;
            boolean flag = h instanceof Helper;
            if (flag) { print(xs[0]); } else { throw (String) v.get(0); }
        }
    }"#;

    /// Field-for-field equality via Debug rendering, skipping the rebuilt
    /// `class_by_name` map (hash iteration order is not canonical).
    fn assert_programs_identical(a: &Program, b: &Program) {
        assert_eq!(format!("{:?}", a.files), format!("{:?}", b.files));
        assert_eq!(format!("{:?}", a.classes), format!("{:?}", b.classes));
        assert_eq!(format!("{:?}", a.fields), format!("{:?}", b.fields));
        assert_eq!(format!("{:?}", a.methods), format!("{:?}", b.methods));
        assert_eq!(a.class_by_name, b.class_by_name);
        assert_eq!(a.object_class, b.object_class);
        assert_eq!(a.string_class, b.string_class);
        assert_eq!(a.main_method, b.main_method);
    }

    #[test]
    fn program_roundtrips_exactly() {
        let program = compile(&[("snap.mj", SRC)]).unwrap();
        let mut w = ByteWriter::new();
        encode_program(&program, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_program(&mut r).unwrap();
        assert!(r.is_at_end(), "decoder must consume every byte");
        assert_programs_identical(&program, &back);
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let program = compile(&[("snap.mj", SRC)]).unwrap();
            let mut w = ByteWriter::new();
            encode_program(&program, &mut w);
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
    }

    #[test]
    fn duplicate_file_names_are_rejected() {
        let mut program = compile(&[("snap.mj", SRC)]).unwrap();
        program.files[FileId::new(1)].name = "<stdlib>".into();
        let mut w = ByteWriter::new();
        encode_program(&program, &mut w);
        let bytes = w.into_bytes();
        let err = decode_program(&mut ByteReader::new(&bytes)).unwrap_err();
        assert_eq!(err, CodecError::Malformed("duplicate file name"));
    }

    /// `Class(3)` under `levels` array constructors.
    fn nested_array(levels: usize) -> Type {
        (0..levels).fold(Type::Class(ClassId::new(3)), |t, _| {
            Type::Array(Box::new(t))
        })
    }

    fn type_bytes(t: &Type) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_type(&mut w, t);
        w.into_bytes()
    }

    #[test]
    fn a_long_run_of_array_tags_is_refused_on_a_default_stack() {
        let mut bytes = vec![5u8; 100_000];
        bytes.push(0);
        let decoded = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(move || decode_type(&mut ByteReader::new(&bytes)))
            .unwrap()
            .join()
            .expect("decoding must not overflow the stack");
        assert_eq!(decoded, Err(CodecError::Malformed("type nesting")));
    }

    #[test]
    fn an_array_type_nested_to_the_parser_limit_round_trips() {
        let t = nested_array(MAX_NESTING);
        let bytes = type_bytes(&t);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_type(&mut r), Ok(t));
        assert!(r.is_at_end());
    }

    #[test]
    fn an_array_type_nested_past_the_parser_limit_is_malformed() {
        let bytes = type_bytes(&nested_array(MAX_NESTING + 1));
        assert_eq!(
            decode_type(&mut ByteReader::new(&bytes)),
            Err(CodecError::Malformed("type nesting"))
        );
    }

    #[test]
    fn truncated_program_payload_errors_cleanly() {
        let program = compile(&[("snap.mj", SRC)]).unwrap();
        let mut w = ByteWriter::new();
        encode_program(&program, &mut w);
        let bytes = w.into_bytes();
        // Sample cuts across the payload (every byte would be slow here).
        for cut in (0..bytes.len()).step_by(97) {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(decode_program(&mut r).is_err(), "cut at {cut}");
        }
    }
}
