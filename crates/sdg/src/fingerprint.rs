//! Literal-erased body fingerprints: "can this edit change the graph?"
//!
//! The SDG builder never reads constant *payloads*: the values inside
//! [`Operand::Const`], `Const`/`StrConst` literals and constant `NewArray`
//! lengths influence neither def/use classification ([`InstrKind::uses`]
//! skips constants), control dependences (block structure and terminators
//! only), call targets (callee ids plus the points-to result) nor heap
//! edges (field ids plus the points-to result). [`body_fingerprint`]
//! hashes everything *else* one method body exposes — locations,
//! instruction kinds, every variable, every id, the variable table, the
//! CFG shape — so two program versions with identical declarations, a
//! reused points-to result and equal fingerprints for every edited method
//! are guaranteed to build byte-identical dependence graphs.
//!
//! That guarantee is what lets an incremental session skip graph
//! re-derivation entirely for value-only edits (the dominant kind during
//! interactive editing: tweaking a constant, a string, an array size),
//! keeping frozen CSR segments and summary graphs warm without even a
//! rebuild-and-compare pass.
//!
//! Soundness direction: the hash may *over*-include — a changed hash
//! merely costs a rebuild that rediscovers an equal graph — but must
//! never under-include. Only payloads the builder provably cannot observe
//! are erased; every other field of every [`InstrKind`] variant is hashed
//! (the match below is exhaustive on purpose, so a new variant fails to
//! compile until someone classifies its payload).

use std::hash::{Hash, Hasher};

use thinslice_ir::{InstrKind, MethodId, Operand, Program};
use thinslice_util::FxHasher;

/// Fingerprint of everything dependence-graph construction can observe in
/// `method`'s body; constant payloads and source spans are erased.
///
/// For two versions with identical declarations (a non-structural
/// [`ProgramDelta`][thinslice_ir::delta::ProgramDelta]) and an unchanged
/// points-to result, equal fingerprints for every body-changed method mean
/// the CI and CS graphs — and everything frozen from them — would come out
/// byte-identical, so a rebuild can be skipped wholesale.
pub fn body_fingerprint(program: &Program, method: MethodId) -> u64 {
    let mut h = FxHasher::default();
    let m = &program.methods[method];
    m.is_native.hash(&mut h);
    let Some(body) = &m.body else {
        return h.finish();
    };
    body.entry.hash(&mut h);
    body.params.hash(&mut h);
    body.vars.len().hash(&mut h);
    for (_, info) in body.vars.iter_enumerated() {
        info.name.hash(&mut h);
        info.ty.hash(&mut h);
        info.origin.hash(&mut h);
    }
    for (loc, instr) in body.instrs() {
        loc.hash(&mut h);
        hash_kind(&instr.kind, &mut h);
    }
    h.finish()
}

/// Hashes an operand with any constant payload erased: the builder's
/// `uses()` classification sees only whether a variable is present.
fn hash_operand(o: &Operand, h: &mut FxHasher) {
    match o {
        Operand::Var(v) => {
            1u8.hash(h);
            v.hash(h);
        }
        Operand::Const(_) => 0u8.hash(h),
    }
}

fn hash_kind(kind: &InstrKind, h: &mut FxHasher) {
    match kind {
        InstrKind::Const { dst, value: _ } => (0u8, dst).hash(h),
        InstrKind::StrConst { dst, value: _ } => (1u8, dst).hash(h),
        InstrKind::Move { dst, src } => {
            (2u8, dst).hash(h);
            hash_operand(src, h);
        }
        InstrKind::Unary { dst, op, src } => {
            (3u8, dst, op).hash(h);
            hash_operand(src, h);
        }
        InstrKind::Binary { dst, op, lhs, rhs } => {
            (4u8, dst, op).hash(h);
            hash_operand(lhs, h);
            hash_operand(rhs, h);
        }
        InstrKind::StrConcat { dst, lhs, rhs } => {
            (5u8, dst).hash(h);
            hash_operand(lhs, h);
            hash_operand(rhs, h);
        }
        InstrKind::New { dst, class } => (6u8, dst, class).hash(h),
        InstrKind::NewArray { dst, elem, len } => {
            (7u8, dst).hash(h);
            elem.hash(h);
            hash_operand(len, h);
        }
        InstrKind::Load { dst, base, field } => (8u8, dst, base, field).hash(h),
        InstrKind::Store { base, field, value } => {
            (9u8, base, field).hash(h);
            hash_operand(value, h);
        }
        InstrKind::StaticLoad { dst, field } => (10u8, dst, field).hash(h),
        InstrKind::StaticStore { field, value } => {
            (11u8, field).hash(h);
            hash_operand(value, h);
        }
        InstrKind::ArrayLoad { dst, base, index } => {
            (12u8, dst, base).hash(h);
            hash_operand(index, h);
        }
        InstrKind::ArrayStore { base, index, value } => {
            (13u8, base).hash(h);
            hash_operand(index, h);
            hash_operand(value, h);
        }
        InstrKind::ArrayLen { dst, base } => (14u8, dst, base).hash(h),
        InstrKind::Cast { dst, ty, src } => {
            (15u8, dst).hash(h);
            ty.hash(h);
            hash_operand(src, h);
        }
        InstrKind::InstanceOf { dst, src, class } => {
            (16u8, dst, class).hash(h);
            hash_operand(src, h);
        }
        InstrKind::Call {
            dst,
            kind,
            callee,
            args,
        } => {
            (17u8, dst, kind, callee, args.len()).hash(h);
            for a in args {
                hash_operand(a, h);
            }
        }
        InstrKind::Print { value } => {
            18u8.hash(h);
            hash_operand(value, h);
        }
        InstrKind::Phi { dst, args } => {
            (19u8, dst, args.len()).hash(h);
            for (block, a) in args {
                block.hash(h);
                hash_operand(a, h);
            }
        }
        InstrKind::Goto { target } => (20u8, target).hash(h),
        InstrKind::If {
            cond,
            then_bb,
            else_bb,
        } => {
            (21u8, then_bb, else_bb).hash(h);
            hash_operand(cond, h);
        }
        InstrKind::Return { value } => {
            22u8.hash(h);
            match value {
                None => 0u8.hash(h),
                Some(v) => {
                    1u8.hash(h);
                    hash_operand(v, h);
                }
            }
        }
        InstrKind::Throw { value } => {
            23u8.hash(h);
            hash_operand(value, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::compile;

    const SRC: &str = "class Main { static void main() {
        Vector v = new Vector();
        v.add(\"payload\");
        int x = 41;
        if (x > 10) { print(x); }
        print((String) v.get(0));
    } }";

    fn program(src: &str) -> Program {
        compile(&[("t.mj", src)]).unwrap()
    }

    #[test]
    fn value_only_edits_keep_the_fingerprint() {
        let a = program(SRC);
        let b = program(&SRC.replace("41", "999").replace("payload", "cargo"));
        assert_eq!(
            body_fingerprint(&a, a.main_method),
            body_fingerprint(&b, b.main_method),
        );
        // And the graphs really do come out identical.
        let pa = thinslice_pta::Pta::analyze(&a, Default::default());
        assert!(crate::build_ci(&a, &pa)
            .freeze()
            .is_freeze_of(&crate::build_ci(&b, &pa)));
    }

    #[test]
    fn inserting_a_statement_changes_the_fingerprint() {
        let a = program(SRC);
        let b = program(&SRC.replace("int x = 41;", "int x = 41; int y = x + 1;"));
        assert_ne!(
            body_fingerprint(&a, a.main_method),
            body_fingerprint(&b, b.main_method),
        );
    }

    #[test]
    fn swapping_a_used_variable_changes_the_fingerprint() {
        let a = program(&SRC.replace("print(x)", "print(x + x)"));
        let b = program(&SRC.replace("print(x)", "print(x + 1)"));
        assert_ne!(
            body_fingerprint(&a, a.main_method),
            body_fingerprint(&b, b.main_method),
        );
    }
}
