//! Recursive-descent parser for MJ.

use crate::ast::*;
use crate::error::{CompileError, Phase};
use crate::lexer::lex;
use crate::span::{FileId, Span};
use crate::token::{Token, TokenKind};

/// Parses one MJ source file into an AST.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// use thinslice_ir::parser::parse;
/// use thinslice_ir::span::FileId;
///
/// let ast = parse(FileId::new(0), "class A { int f; void m(int x) { this.f = x; } }")?;
/// assert_eq!(ast.classes.len(), 1);
/// assert_eq!(ast.classes[0].name, "A");
/// # Ok::<(), thinslice_ir::error::CompileError>(())
/// ```
pub fn parse(file: FileId, text: &str) -> Result<AstProgram, CompileError> {
    let tokens = lex(file, text)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .program()
}

/// The deepest nesting [`parse`] accepts. The parser and every later pass
/// over the tree (type checking, lowering, fingerprints, dropping it)
/// recurse once per level, so the limit bounds their stack use whatever
/// the input: a program nested to the limit compiles on a thread with the
/// default 2 MiB stack. A block or nested statement counts one level, and
/// so does each `[]` of an array type. Within a statement, every
/// expression, operator and cast counts one level until the statement
/// ends: each operator of a binary or postfix chain deepens the tree by
/// one, and the count cannot tell which subexpression ends up deepest.
/// The deepest statement of the benchmark suite, the generated programs
/// and the standard library counts 17.
pub const MAX_NESTING: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of nesting open at the current token (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, CompileError> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), CompileError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name, span))
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn error(&self, message: impl Into<String>) -> CompileError {
        CompileError::new(Phase::Parse, message, self.span())
    }

    /// Opens one more level of nesting, failing at the current token once
    /// more than [`MAX_NESTING`] would be open. Callers that close a level
    /// restore `depth` when the construct ends; an error abandons the
    /// whole parse, so an early return leaves nothing to restore.
    fn nest(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    // ---- grammar ----

    fn program(&mut self) -> Result<AstProgram, CompileError> {
        let mut classes = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            classes.push(self.class_decl()?);
        }
        Ok(AstProgram { classes })
    }

    fn class_decl(&mut self) -> Result<ClassDecl, CompileError> {
        let span = self.span();
        self.expect(TokenKind::Class)?;
        let (name, _) = self.expect_ident()?;
        let superclass = if self.eat(&TokenKind::Extends) {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            self.member(&name, &mut fields, &mut methods)?;
        }
        Ok(ClassDecl {
            name,
            superclass,
            fields,
            methods,
            span,
        })
    }

    fn member(
        &mut self,
        class_name: &str,
        fields: &mut Vec<FieldDecl>,
        methods: &mut Vec<MethodDecl>,
    ) -> Result<(), CompileError> {
        let is_static = self.eat(&TokenKind::Static);
        let is_native = self.eat(&TokenKind::Native);

        // Constructor: `ClassName ( ...`.
        if let TokenKind::Ident(n) = self.peek() {
            if n == class_name && matches!(self.peek_at(1), TokenKind::LParen) {
                if is_static || is_native {
                    return Err(self.error("constructors cannot be static or native"));
                }
                let (_, span) = self.expect_ident()?;
                let params = self.params()?;
                let body = self.block()?;
                methods.push(MethodDecl {
                    is_static: false,
                    is_native: false,
                    ret: TypeExpr::Void,
                    name: CTOR_NAME.to_string(),
                    params,
                    body: Some(body),
                    span,
                });
                return Ok(());
            }
        }

        let ty = self.type_expr(true)?;
        let (name, span) = self.expect_ident()?;
        if matches!(self.peek(), TokenKind::LParen) {
            let params = self.params()?;
            let body = if is_native {
                self.expect(TokenKind::Semi)?;
                None
            } else {
                Some(self.block()?)
            };
            methods.push(MethodDecl {
                is_static,
                is_native,
                ret: ty,
                name,
                params,
                body,
                span,
            });
        } else {
            if is_native {
                return Err(self.error("fields cannot be native"));
            }
            if ty == TypeExpr::Void {
                return Err(self.error("fields cannot have type void"));
            }
            self.expect(TokenKind::Semi)?;
            fields.push(FieldDecl {
                is_static,
                ty,
                name,
                span,
            });
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<(TypeExpr, String)>, CompileError> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let ty = self.type_expr(false)?;
                let (name, _) = self.expect_ident()?;
                params.push((ty, name));
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        Ok(params)
    }

    fn type_expr(&mut self, allow_void: bool) -> Result<TypeExpr, CompileError> {
        let mut ty = match self.peek().clone() {
            TokenKind::Int => {
                self.bump();
                TypeExpr::Int
            }
            TokenKind::Boolean => {
                self.bump();
                TypeExpr::Boolean
            }
            TokenKind::Void if allow_void => {
                self.bump();
                return Ok(TypeExpr::Void);
            }
            TokenKind::Ident(name) => {
                self.bump();
                TypeExpr::Named(name)
            }
            other => return Err(self.error(format!("expected type, found {}", other.describe()))),
        };
        let depth = self.depth;
        while matches!(self.peek(), TokenKind::LBracket)
            && matches!(self.peek_at(1), TokenKind::RBracket)
        {
            self.nest()?;
            self.bump();
            self.bump();
            ty = TypeExpr::Array(Box::new(ty));
        }
        self.depth = depth;
        Ok(ty)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let depth = self.depth;
        self.nest()?;
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.stmt()?);
            self.depth = depth + 1;
        }
        self.depth = depth;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        let kind = match self.peek().clone() {
            TokenKind::LBrace => StmtKind::Block {
                body: self.block()?,
            },
            TokenKind::If => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then = self.stmt_as_block()?;
                let els = if self.eat(&TokenKind::Else) {
                    self.stmt_as_block()?
                } else {
                    Vec::new()
                };
                StmtKind::If { cond, then, els }
            }
            TokenKind::While => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.stmt_as_block()?;
                StmtKind::While { cond, body }
            }
            TokenKind::For => {
                self.bump();
                return self.for_stmt(span);
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.eat(&TokenKind::Semi) {
                    None
                } else {
                    let v = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    Some(v)
                };
                StmtKind::Return { value }
            }
            TokenKind::Throw => {
                self.bump();
                let value = self.expr()?;
                self.expect(TokenKind::Semi)?;
                StmtKind::Throw { value }
            }
            TokenKind::Print => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let value = self.expr()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                StmtKind::Print { value }
            }
            TokenKind::Int | TokenKind::Boolean => {
                return self.var_decl(span);
            }
            TokenKind::Ident(_) if self.starts_var_decl() => {
                return self.var_decl(span);
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(TokenKind::Semi)?;
                s
            }
        };
        Ok(Stmt { kind, span })
    }

    /// A statement that might be a single statement or a block; normalized to
    /// a statement list.
    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if matches!(self.peek(), TokenKind::LBrace) {
            self.block()
        } else {
            let depth = self.depth;
            self.nest()?;
            let stmt = self.stmt()?;
            self.depth = depth;
            Ok(vec![stmt])
        }
    }

    /// Lookahead: does an `Ident`-led statement start a variable declaration?
    fn starts_var_decl(&self) -> bool {
        match self.peek_at(1) {
            TokenKind::Ident(_) => true,
            // `A[] x` — array-typed declaration.
            TokenKind::LBracket => matches!(self.peek_at(2), TokenKind::RBracket),
            _ => false,
        }
    }

    fn var_decl(&mut self, span: Span) -> Result<Stmt, CompileError> {
        let ty = self.type_expr(false)?;
        let (name, _) = self.expect_ident()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(Stmt {
            kind: StmtKind::VarDecl { ty, name, init },
            span,
        })
    }

    /// Assignment, inc/dec or expression statement — without the trailing
    /// semicolon (shared by `for` headers).
    fn simple_stmt(&mut self) -> Result<StmtKind, CompileError> {
        let lhs = self.expr()?;
        match self.peek() {
            TokenKind::Assign => {
                self.bump();
                let rhs = self.expr()?;
                Ok(StmtKind::Assign {
                    lhs,
                    op: AssignOp::Set,
                    rhs,
                })
            }
            TokenKind::PlusAssign => {
                self.bump();
                let rhs = self.expr()?;
                Ok(StmtKind::Assign {
                    lhs,
                    op: AssignOp::Add,
                    rhs,
                })
            }
            TokenKind::MinusAssign => {
                self.bump();
                let rhs = self.expr()?;
                Ok(StmtKind::Assign {
                    lhs,
                    op: AssignOp::Sub,
                    rhs,
                })
            }
            TokenKind::PlusPlus => {
                self.bump();
                Ok(StmtKind::IncDec { lhs, inc: true })
            }
            TokenKind::MinusMinus => {
                self.bump();
                Ok(StmtKind::IncDec { lhs, inc: false })
            }
            _ => {
                if !matches!(
                    lhs.kind,
                    ExprKind::Call { .. } | ExprKind::SuperCall { .. } | ExprKind::New { .. }
                ) {
                    return Err(self.error("expected assignment or call statement"));
                }
                Ok(StmtKind::ExprStmt { expr: lhs })
            }
        }
    }

    /// `for (init; cond; update) body` desugars to a `while` loop.
    fn for_stmt(&mut self, span: Span) -> Result<Stmt, CompileError> {
        self.expect(TokenKind::LParen)?;
        let init: Option<Stmt> = if self.eat(&TokenKind::Semi) {
            None
        } else if matches!(self.peek(), TokenKind::Int | TokenKind::Boolean)
            || (matches!(self.peek(), TokenKind::Ident(_)) && self.starts_var_decl())
        {
            let s = self.span();
            Some(self.var_decl(s)?)
        } else {
            let s = self.span();
            let kind = self.simple_stmt()?;
            self.expect(TokenKind::Semi)?;
            Some(Stmt { kind, span: s })
        };
        let cond = if matches!(self.peek(), TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let update = if matches!(self.peek(), TokenKind::RParen) {
            None
        } else {
            let s = self.span();
            Some(Stmt {
                kind: self.simple_stmt()?,
                span: s,
            })
        };
        self.expect(TokenKind::RParen)?;
        let mut body = self.stmt_as_block()?;
        if let Some(u) = update {
            body.push(u);
        }
        let cond = cond.unwrap_or(Expr {
            kind: ExprKind::BoolLit(true),
            span,
        });
        let while_stmt = Stmt {
            kind: StmtKind::While { cond, body },
            span,
        };
        let block = match init {
            Some(i) => vec![i, while_stmt],
            None => vec![while_stmt],
        };
        Ok(Stmt {
            kind: StmtKind::Block { body: block },
            span,
        })
    }

    // ---- expressions, precedence climbing ----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.nest()?;
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), TokenKind::OrOr) {
            let span = self.span();
            self.nest()?;
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op: BinOp::Or,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.equality_expr()?;
        while matches!(self.peek(), TokenKind::AndAnd) {
            let span = self.span();
            self.nest()?;
            self.bump();
            let rhs = self.equality_expr()?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op: BinOp::And,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn equality_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.relational_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::Ne,
                _ => break,
            };
            let span = self.span();
            self.nest()?;
            self.bump();
            let rhs = self.relational_expr()?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn relational_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.additive_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                TokenKind::InstanceOf => {
                    let span = self.span();
                    self.nest()?;
                    self.bump();
                    let (class, _) = self.expect_ident()?;
                    lhs = Expr {
                        kind: ExprKind::InstanceOf {
                            expr: Box::new(lhs),
                            class,
                        },
                        span,
                    };
                    continue;
                }
                _ => break,
            };
            let span = self.span();
            self.nest()?;
            self.bump();
            let rhs = self.additive_expr()?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn additive_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.multiplicative_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            let span = self.span();
            self.nest()?;
            self.bump();
            let rhs = self.multiplicative_expr()?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn multiplicative_expr(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            let span = self.span();
            self.nest()?;
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        match self.peek() {
            TokenKind::Not => {
                self.nest()?;
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Not,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            TokenKind::Minus => {
                self.nest()?;
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    let span = self.span();
                    self.nest()?;
                    self.bump();
                    let (name, _) = self.expect_ident()?;
                    if matches!(self.peek(), TokenKind::LParen) {
                        let args = self.args()?;
                        e = Expr {
                            kind: ExprKind::Call {
                                base: Some(Box::new(e)),
                                name,
                                args,
                            },
                            span,
                        };
                    } else {
                        e = Expr {
                            kind: ExprKind::Field {
                                base: Box::new(e),
                                name,
                            },
                            span,
                        };
                    }
                }
                TokenKind::LBracket => {
                    let span = self.span();
                    self.nest()?;
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    e = Expr {
                        kind: ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(idx),
                        },
                        span,
                    };
                }
                _ => return Ok(e),
            }
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>, CompileError> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if self.eat(&TokenKind::RParen) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        Ok(args)
    }

    /// Is `( … )` at the current position a cast? Decided with bounded
    /// lookahead: a parenthesised type followed by a token that can begin a
    /// unary expression (the Java rule, minus the `+`/`-` ambiguity, which MJ
    /// resolves in favour of arithmetic).
    fn is_cast(&self) -> bool {
        debug_assert!(matches!(self.peek(), TokenKind::LParen));
        let mut i = 1;
        match self.peek_at(i) {
            TokenKind::Int | TokenKind::Boolean => i += 1,
            TokenKind::Ident(_) => i += 1,
            _ => return false,
        }
        while matches!(self.peek_at(i), TokenKind::LBracket)
            && matches!(self.peek_at(i + 1), TokenKind::RBracket)
        {
            i += 2;
        }
        if !matches!(self.peek_at(i), TokenKind::RParen) {
            return false;
        }
        matches!(
            self.peek_at(i + 1),
            TokenKind::Ident(_)
                | TokenKind::IntLit(_)
                | TokenKind::StrLit(_)
                | TokenKind::This
                | TokenKind::New
                | TokenKind::Null
                | TokenKind::True
                | TokenKind::False
                | TokenKind::Not
                | TokenKind::LParen
        )
    }

    fn primary_expr(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        let kind = match self.peek().clone() {
            TokenKind::IntLit(n) => {
                self.bump();
                ExprKind::IntLit(n)
            }
            TokenKind::StrLit(s) => {
                self.bump();
                ExprKind::StrLit(s)
            }
            TokenKind::True => {
                self.bump();
                ExprKind::BoolLit(true)
            }
            TokenKind::False => {
                self.bump();
                ExprKind::BoolLit(false)
            }
            TokenKind::Null => {
                self.bump();
                ExprKind::Null
            }
            TokenKind::This => {
                self.bump();
                ExprKind::This
            }
            TokenKind::Super => {
                self.bump();
                if matches!(self.peek(), TokenKind::LParen) {
                    let args = self.args()?;
                    ExprKind::SuperCall { args }
                } else {
                    return Err(self.error("`super` is only supported as `super(...)`"));
                }
            }
            TokenKind::New => {
                self.bump();
                let elem = self.type_expr(false)?;
                match (&elem, self.peek()) {
                    (_, TokenKind::LBracket) => {
                        self.bump();
                        let len = self.expr()?;
                        self.expect(TokenKind::RBracket)?;
                        ExprKind::NewArray {
                            elem,
                            len: Box::new(len),
                        }
                    }
                    (TypeExpr::Named(class), TokenKind::LParen) => {
                        let class = class.clone();
                        let args = self.args()?;
                        ExprKind::New { class, args }
                    }
                    _ => return Err(self.error("expected `(` or `[` after `new T`")),
                }
            }
            TokenKind::Ident(name) => {
                self.bump();
                if matches!(self.peek(), TokenKind::LParen) {
                    let args = self.args()?;
                    ExprKind::Call {
                        base: None,
                        name,
                        args,
                    }
                } else {
                    ExprKind::Name(name)
                }
            }
            TokenKind::LParen => {
                if self.is_cast() {
                    self.nest()?;
                    self.bump();
                    let ty = self.type_expr(false)?;
                    self.expect(TokenKind::RParen)?;
                    let e = self.unary_expr()?;
                    ExprKind::Cast {
                        ty,
                        expr: Box::new(e),
                    }
                } else {
                    self.bump();
                    let e = self.expr()?;
                    self.expect(TokenKind::RParen)?;
                    return Ok(e);
                }
            }
            other => {
                return Err(self.error(format!("expected expression, found {}", other.describe())));
            }
        };
        Ok(Expr { kind, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> AstProgram {
        parse(FileId::new(0), src).unwrap()
    }

    fn first_method_body(src: &str) -> Vec<Stmt> {
        let ast = parse_ok(src);
        ast.classes[0].methods[0].body.clone().unwrap()
    }

    #[test]
    fn parses_class_with_fields_and_methods() {
        let ast = parse_ok(
            "class Vector extends Object {
                Object[] elems;
                int count;
                Vector() { this.elems = new Object[10]; }
                void add(Object p) { this.elems[this.count] = p; this.count++; }
                Object get(int i) { return this.elems[i]; }
             }",
        );
        let c = &ast.classes[0];
        assert_eq!(c.name, "Vector");
        assert_eq!(c.superclass.as_deref(), Some("Object"));
        assert_eq!(c.fields.len(), 2);
        assert_eq!(c.methods.len(), 3);
        assert_eq!(c.methods[0].name, CTOR_NAME);
    }

    #[test]
    fn parses_cast_vs_parens() {
        let body =
            first_method_body("class A { void m(Object o) { A a = (A) o; int x = (1 + 2) * 3; } }");
        match &body[0].kind {
            StmtKind::VarDecl { init: Some(e), .. } => {
                assert!(
                    matches!(e.kind, ExprKind::Cast { .. }),
                    "expected cast, got {:?}",
                    e.kind
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        match &body[1].kind {
            StmtKind::VarDecl { init: Some(e), .. } => {
                assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_array_cast() {
        let body = first_method_body("class A { void m(Object o) { Object[] a = (Object[]) o; } }");
        match &body[0].kind {
            StmtKind::VarDecl { init: Some(e), .. } => match &e.kind {
                ExprKind::Cast { ty, .. } => {
                    assert_eq!(
                        *ty,
                        TypeExpr::Array(Box::new(TypeExpr::Named("Object".into())))
                    );
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_for_as_while() {
        let body = first_method_body(
            "class A { void m() { for (int i = 0; i < 10; i++) { print(i); } } }",
        );
        match &body[0].kind {
            StmtKind::Block { body } => {
                assert!(matches!(body[0].kind, StmtKind::VarDecl { .. }));
                match &body[1].kind {
                    StmtKind::While { body: wb, .. } => {
                        // print + update
                        assert_eq!(wb.len(), 2);
                        assert!(matches!(wb[1].kind, StmtKind::IncDec { inc: true, .. }));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_instanceof_and_calls() {
        let body = first_method_body(
            "class A { void m(Object o) { if (o instanceof A) { this.m(o); m(o); } } }",
        );
        match &body[0].kind {
            StmtKind::If { cond, then, .. } => {
                assert!(matches!(cond.kind, ExprKind::InstanceOf { .. }));
                assert!(matches!(
                    &then[0].kind,
                    StmtKind::ExprStmt { expr } if matches!(&expr.kind, ExprKind::Call { base: Some(_), .. })
                ));
                assert!(matches!(
                    &then[1].kind,
                    StmtKind::ExprStmt { expr } if matches!(&expr.kind, ExprKind::Call { base: None, .. })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_native_method() {
        let ast = parse_ok("class IO { native String readLine(); }");
        let m = &ast.classes[0].methods[0];
        assert!(m.is_native);
        assert!(m.body.is_none());
    }

    #[test]
    fn parses_super_call() {
        let body = first_method_body("class A { A(int x) { super(); this.m(); } void m() {} }");
        assert!(matches!(
            &body[0].kind,
            StmtKind::ExprStmt { expr } if matches!(expr.kind, ExprKind::SuperCall { .. })
        ));
    }

    #[test]
    fn parses_compound_assignment() {
        let body = first_method_body("class A { int f; void m() { this.f += 2; } }");
        assert!(matches!(
            &body[0].kind,
            StmtKind::Assign {
                op: AssignOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn rejects_expression_statement_without_effect() {
        let err = parse(FileId::new(0), "class A { void m() { 1 + 2; } }").unwrap_err();
        assert!(err.message.contains("assignment or call"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse(FileId::new(0), "class A { void m() { int x = 1 } }").is_err());
    }

    #[test]
    fn parses_short_circuit_chain() {
        let body = first_method_body(
            "class A { boolean m(boolean a, boolean b, boolean c) { return a && b || !c; } }",
        );
        match &body[0].kind {
            StmtKind::Return { value: Some(e) } => {
                assert!(matches!(&e.kind, ExprKind::Binary { op: BinOp::Or, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_string_concat() {
        let body =
            first_method_body("class A { void m(String s) { print(\"FIRST NAME: \" + s); } }");
        match &body[0].kind {
            StmtKind::Print { value } => {
                assert!(matches!(
                    &value.kind,
                    ExprKind::Binary { op: BinOp::Add, .. }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
