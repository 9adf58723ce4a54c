//! Recursive-descent parser for the C++ subset.
//!
//! The grammar covers what competitive-programming C++ actually uses:
//! includes/defines, `using namespace`, typedefs/alias declarations,
//! global variables, function definitions, the full statement repertoire
//! (declarations, `if`/`for`/range-`for`/`while`/`do`, `return`,
//! `break`/`continue`, nested blocks), and C++ expressions including
//! stream IO (`cin >> x`, `cout << ...`), C-style and `static_cast`
//! casts, calls, member access, indexing, and ternaries.
//!
//! Deliberately unsupported (produce a [`ParseError`]): classes/structs,
//! templates definitions, lambdas, `switch`, pointers, exceptions. The
//! corpus generator never emits them and GCJ-style code in the subset
//! does not need them.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Deepest AST nesting the parser accepts: a statement inside a block,
/// a template argument, and a sub-expression each sit one level below
/// the node that holds them. Every pass over the tree downstream
/// (renderer, visitors, analyzer, CFG, dataflow, features) recurses,
/// so this one bound keeps all of them inside a 2 MiB worker stack
/// whatever the input. Hand-written code stays far below it.
pub const MAX_NESTING: usize = 256;

/// Parses a C++ translation unit.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered, with its
/// source line. Nesting deeper than [`MAX_NESTING`] is an error too.
///
/// # Example
///
/// ```
/// let unit = synthattr_lang::parse("int add(int a, int b) { return a + b; }")?;
/// assert!(unit.function("add").is_some());
/// # Ok::<(), synthattr_lang::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<TranslationUnit, ParseError> {
    let tokens = lex(src)?;
    Parser::new(tokens).unit()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Names introduced by `typedef` / `using x = ...`, plus the
    /// standard-library names treated as types.
    type_names: Vec<String>,
    /// How many nodes enclose the node being parsed.
    depth: usize,
    /// The deepest level any node of the current operand chain sits at
    /// (see [`Parser::chain`]).
    deepest: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            type_names: vec![
                "string".into(),
                "vector".into(),
                "pair".into(),
                "map".into(),
                "set".into(),
            ],
            depth: 0,
            deepest: 0,
        }
    }

    // -- cursor helpers ----------------------------------------------------

    fn raw(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].span.line
    }

    /// Skips comment tokens (they are only significant at statement /
    /// item boundaries, where callers look at `raw()` first).
    fn skip_comments(&mut self) {
        while matches!(self.raw(), TokenKind::Comment(_, _)) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> &TokenKind {
        self.skip_comments();
        self.raw()
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        let mut i = self.pos;
        let mut remaining = n;
        loop {
            if let TokenKind::Comment(_, _) = self.tokens[i].kind {
                i += 1;
                continue;
            }
            if remaining == 0 {
                return &self.tokens[i].kind;
            }
            remaining -= 1;
            i += 1;
        }
    }

    fn advance(&mut self) -> TokenKind {
        self.skip_comments();
        let kind = self.tokens[self.pos].kind.clone();
        if !matches!(kind, TokenKind::Eof) {
            self.pos += 1;
        }
        kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`, found `{}`", kind, self.raw())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.line())
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name.to_string())
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    /// Consumes a `>` in type context, splitting a `>>` token in two so
    /// that `vector<vector<int>>` parses.
    fn expect_close_angle(&mut self) -> Result<(), ParseError> {
        self.skip_comments();
        match self.raw() {
            TokenKind::Gt => {
                self.pos += 1;
                Ok(())
            }
            TokenKind::Shr => {
                self.tokens[self.pos].kind = TokenKind::Gt;
                Ok(())
            }
            other => Err(self.err(format!("expected `>`, found `{other}`"))),
        }
    }

    // -- nesting ------------------------------------------------------------

    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Parses the children of one node with `f`, one level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Parses an operand chain with `f`: a first operand that later
    /// operators wrap in new nodes (`a + b + c`, `a[i].f()`, `a = b`,
    /// `c ? x : y`). Each [`Parser::wrap`] pushes everything the chain
    /// has parsed one level deeper, so the chain tracks the deepest
    /// level it reached rather than the level it started at.
    fn chain<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let out = f(self);
        self.deepest = self.deepest.max(outer);
        out
    }

    /// Wraps the operand chain parsed so far in one more node.
    fn wrap(&mut self) -> Result<(), ParseError> {
        if self.deepest == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.deepest += 1;
        Ok(())
    }

    // -- items --------------------------------------------------------------

    fn unit(mut self) -> Result<TranslationUnit, ParseError> {
        let mut items = Vec::new();
        loop {
            match self.raw().clone() {
                TokenKind::Eof => break,
                TokenKind::Comment(text, block) => {
                    self.pos += 1;
                    items.push(Item::Comment(Comment { text, block }));
                }
                TokenKind::Directive(text) => {
                    self.pos += 1;
                    items.push(parse_directive(&text));
                }
                TokenKind::KwUsing => {
                    items.push(self.using_item()?);
                }
                TokenKind::KwTypedef => {
                    self.advance();
                    let ty = self.parse_type()?;
                    let name = self.expect_ident()?;
                    self.expect(&TokenKind::Semi)?;
                    self.type_names.push(name.clone());
                    items.push(Item::Typedef { ty, name });
                }
                TokenKind::KwStruct => {
                    return Err(self.err("struct definitions are outside the supported subset"));
                }
                _ => items.push(self.function_or_global()?),
            }
        }
        Ok(TranslationUnit { items })
    }

    fn using_item(&mut self) -> Result<Item, ParseError> {
        self.advance(); // `using`
        if self.eat(&TokenKind::KwNamespace) {
            let name = self.expect_ident()?;
            self.expect(&TokenKind::Semi)?;
            Ok(Item::UsingNamespace(name))
        } else {
            let name = self.expect_ident()?;
            self.expect(&TokenKind::Assign)?;
            let ty = self.parse_type()?;
            self.expect(&TokenKind::Semi)?;
            self.type_names.push(name.clone());
            Ok(Item::UsingAlias { name, ty })
        }
    }

    fn function_or_global(&mut self) -> Result<Item, ParseError> {
        let ty = self.parse_type()?;
        let name = self.expect_ident()?;
        if self.peek() == &TokenKind::LParen {
            let func = self.function_rest(ty, name)?;
            Ok(Item::Function(func))
        } else {
            let decl = self.declaration_rest(ty, name)?;
            self.expect(&TokenKind::Semi)?;
            Ok(Item::GlobalVar(decl))
        }
    }

    fn function_rest(&mut self, ret: Type, name: String) -> Result<Function, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                let ty = self.parse_type()?;
                let pname = self.expect_ident()?;
                params.push(Param { ty, name: pname });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Function {
            ret,
            name,
            params,
            body,
        })
    }

    // -- types ----------------------------------------------------------------

    fn is_type_start(&mut self) -> bool {
        let first = self.peek().clone();
        if first.starts_type() {
            return true;
        }
        if let TokenKind::Ident(name) = &first {
            if self.type_names.iter().any(|t| name == t.as_str()) {
                // `vector<`, `string x`, `pair<`, or a typedef name
                // followed by an identifier.
                return matches!(
                    self.peek_ahead(1),
                    TokenKind::Lt | TokenKind::Ident(_) | TokenKind::Amp
                );
            }
        }
        false
    }

    /// Parses a type, one level below the node that holds it.
    fn parse_type(&mut self) -> Result<Type, ParseError> {
        self.nested(Self::qualified_type)
    }

    fn qualified_type(&mut self) -> Result<Type, ParseError> {
        let mut is_const = false;
        if self.eat(&TokenKind::KwConst) {
            is_const = true;
        }
        let mut ty = self.base_type()?;
        if self.eat(&TokenKind::KwConst) {
            // East const: `int const`.
            is_const = true;
        }
        if is_const {
            ty = ty.as_const();
        }
        if self.eat(&TokenKind::Amp) {
            ty = ty.by_ref();
        }
        Ok(ty)
    }

    fn base_type(&mut self) -> Result<Type, ParseError> {
        use TokenKind::*;
        match self.peek().clone() {
            KwVoid => {
                self.advance();
                Ok(Type::Void)
            }
            KwBool => {
                self.advance();
                Ok(Type::Bool)
            }
            KwChar => {
                self.advance();
                Ok(Type::Char)
            }
            KwFloat => {
                self.advance();
                Ok(Type::Float)
            }
            KwDouble => {
                self.advance();
                Ok(Type::Double)
            }
            KwAuto => {
                self.advance();
                Ok(Type::Auto)
            }
            KwUnsigned => {
                self.advance();
                // Absorb `unsigned int` / `unsigned long long`.
                if self.eat(&KwLong) {
                    self.eat(&KwLong);
                    self.eat(&KwInt);
                } else {
                    self.eat(&KwInt);
                }
                Ok(Type::Unsigned)
            }
            KwSigned => {
                self.advance();
                self.eat(&KwInt);
                Ok(Type::Int)
            }
            KwInt => {
                self.advance();
                Ok(Type::Int)
            }
            KwShort => {
                self.advance();
                self.eat(&KwInt);
                Ok(Type::Int)
            }
            KwLong => {
                self.advance();
                if self.eat(&KwLong) {
                    self.eat(&KwInt);
                    Ok(Type::LongLong)
                } else {
                    self.eat(&KwInt);
                    Ok(Type::Long)
                }
            }
            Ident(name) => {
                self.advance();
                // `std::` qualification.
                let name = if name == "std" && self.eat(&ColonColon) {
                    self.expect_ident()?
                } else {
                    name.to_string()
                };
                match name.as_str() {
                    "string" => Ok(Type::Str),
                    "vector" => {
                        self.expect(&Lt)?;
                        let inner = self.parse_type()?;
                        self.expect_close_angle()?;
                        Ok(Type::Vector(Box::new(inner)))
                    }
                    "set" => {
                        self.expect(&Lt)?;
                        let inner = self.parse_type()?;
                        self.expect_close_angle()?;
                        Ok(Type::Set(Box::new(inner)))
                    }
                    "pair" => {
                        self.expect(&Lt)?;
                        let a = self.parse_type()?;
                        self.expect(&Comma)?;
                        let b = self.parse_type()?;
                        self.expect_close_angle()?;
                        Ok(Type::Pair(Box::new(a), Box::new(b)))
                    }
                    "map" => {
                        self.expect(&Lt)?;
                        let k = self.parse_type()?;
                        self.expect(&Comma)?;
                        let v = self.parse_type()?;
                        self.expect_close_angle()?;
                        Ok(Type::Map(Box::new(k), Box::new(v)))
                    }
                    _ => Ok(Type::Named(name)),
                }
            }
            other => Err(self.err(format!("expected type, found `{other}`"))),
        }
    }

    // -- statements -------------------------------------------------------------

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        loop {
            match self.raw().clone() {
                TokenKind::RBrace => {
                    self.pos += 1;
                    return Ok(Block::new(stmts));
                }
                TokenKind::Eof => return Err(self.err("unexpected end of file in block")),
                TokenKind::Comment(text, block) => {
                    self.pos += 1;
                    stmts.push(Stmt::Comment(Comment { text, block }));
                }
                _ => stmts.push(self.statement()?),
            }
        }
    }

    /// Parses a statement, one level below the node that holds it;
    /// when the next statement is a single (non-block) statement used
    /// as a control-flow body, callers wrap it in a [`Block`] via
    /// [`Parser::body`].
    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::statement_here)
    }

    fn statement_here(&mut self) -> Result<Stmt, ParseError> {
        use TokenKind::*;
        match self.peek().clone() {
            LBrace => Ok(Stmt::Block(self.block()?)),
            Semi => {
                self.advance();
                Ok(Stmt::Empty)
            }
            KwReturn => {
                self.advance();
                if self.eat(&Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expression()?;
                    self.expect(&Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            KwBreak => {
                self.advance();
                self.expect(&Semi)?;
                Ok(Stmt::Break)
            }
            KwContinue => {
                self.advance();
                self.expect(&Semi)?;
                Ok(Stmt::Continue)
            }
            KwIf => self.if_statement(),
            KwFor => self.for_statement(),
            KwWhile => {
                self.advance();
                self.expect(&LParen)?;
                let cond = self.expression()?;
                self.expect(&RParen)?;
                let body = self.body()?;
                Ok(Stmt::While { cond, body })
            }
            KwDo => {
                self.advance();
                let body = self.body()?;
                self.expect(&KwWhile)?;
                self.expect(&LParen)?;
                let cond = self.expression()?;
                self.expect(&RParen)?;
                self.expect(&Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            KwSwitch => Err(self.err("switch statements are outside the supported subset")),
            _ => {
                if self.is_type_start() {
                    let decl = self.declaration()?;
                    self.expect(&Semi)?;
                    Ok(Stmt::Decl(decl))
                } else {
                    let e = self.expression()?;
                    self.expect(&Semi)?;
                    Ok(Stmt::Expr(e))
                }
            }
        }
    }

    /// Parses a control-flow body: either a braced block or a single
    /// statement promoted to a one-statement block.
    fn body(&mut self) -> Result<Block, ParseError> {
        if self.peek() == &TokenKind::LBrace {
            self.block()
        } else {
            Ok(Block::new(vec![self.statement()?]))
        }
    }

    fn if_statement(&mut self) -> Result<Stmt, ParseError> {
        self.advance(); // `if`
        self.expect(&TokenKind::LParen)?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen)?;
        let then_branch = self.body()?;
        let else_branch = if self.eat(&TokenKind::KwElse) {
            if self.peek() == &TokenKind::KwIf {
                // `else if` chain: represent as a block with one `If`.
                Some(Block::new(vec![self.statement()?]))
            } else {
                Some(self.body()?)
            }
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn for_statement(&mut self) -> Result<Stmt, ParseError> {
        self.advance(); // `for`
        self.expect(&TokenKind::LParen)?;

        // Try a range-based for: `type name : iterable`.
        let checkpoint = self.pos;
        if self.is_type_start() || self.peek() == &TokenKind::KwAuto {
            if let Ok(ty) = self.parse_type() {
                if let TokenKind::Ident(name) = self.peek().clone() {
                    if self.peek_ahead(1) == &TokenKind::Colon {
                        self.advance(); // name
                        self.advance(); // `:`
                        let iterable = self.expression()?;
                        self.expect(&TokenKind::RParen)?;
                        let body = self.body()?;
                        let (ty, by_ref) = match ty {
                            Type::Ref(inner) => (*inner, true),
                            other => (other, false),
                        };
                        return Ok(Stmt::ForEach {
                            ty,
                            name: name.to_string(),
                            by_ref,
                            iterable,
                            body,
                        });
                    }
                }
            }
            self.pos = checkpoint;
        }

        let init = if self.eat(&TokenKind::Semi) {
            None
        } else if self.is_type_start() {
            let d = self.declaration()?;
            self.expect(&TokenKind::Semi)?;
            Some(Box::new(Stmt::Decl(d)))
        } else {
            let e = self.expression()?;
            self.expect(&TokenKind::Semi)?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.peek() == &TokenKind::Semi {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&TokenKind::Semi)?;
        let step = if self.peek() == &TokenKind::RParen {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.body()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn declaration(&mut self) -> Result<Declaration, ParseError> {
        let ty = self.parse_type()?;
        let name = self.expect_ident()?;
        self.declaration_rest(ty, name)
    }

    fn declaration_rest(&mut self, ty: Type, first: String) -> Result<Declaration, ParseError> {
        let mut declarators = Vec::new();
        let mut name = first;
        loop {
            let array = if self.eat(&TokenKind::LBracket) {
                let extent = self.expression()?;
                self.expect(&TokenKind::RBracket)?;
                Some(extent)
            } else {
                None
            };
            let init = if self.eat(&TokenKind::Assign) {
                Some(Initializer::Assign(self.assignment()?))
            } else if self.peek() == &TokenKind::LParen {
                // Constructor-call initializer `vector<int> v(n, 0)`.
                self.advance();
                let mut args = Vec::new();
                if self.peek() != &TokenKind::RParen {
                    loop {
                        args.push(self.assignment()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                Some(Initializer::Ctor(args))
            } else {
                None
            };
            declarators.push(Declarator { name, array, init });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            name = self.expect_ident()?;
        }
        Ok(Declaration { ty, declarators })
    }

    // -- expressions ---------------------------------------------------------

    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        self.chain(|p| {
            let lhs = p.ternary()?;
            let op = match p.peek() {
                TokenKind::Assign => Some(AssignOp::Assign),
                TokenKind::PlusAssign => Some(AssignOp::Add),
                TokenKind::MinusAssign => Some(AssignOp::Sub),
                TokenKind::StarAssign => Some(AssignOp::Mul),
                TokenKind::SlashAssign => Some(AssignOp::Div),
                TokenKind::PercentAssign => Some(AssignOp::Mod),
                _ => None,
            };
            if let Some(op) = op {
                p.advance();
                p.wrap()?;
                let rhs = p.nested(Self::assignment)?;
                Ok(Expr::assign(op, lhs, rhs))
            } else {
                Ok(lhs)
            }
        })
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        self.chain(|p| {
            let cond = p.binary(1)?;
            if p.eat(&TokenKind::Question) {
                p.wrap()?;
                let then_expr = p.nested(Self::expression)?;
                p.expect(&TokenKind::Colon)?;
                let else_expr = p.nested(Self::assignment)?;
                Ok(Expr::Ternary {
                    cond: Box::new(cond),
                    then_expr: Box::new(then_expr),
                    else_expr: Box::new(else_expr),
                })
            } else {
                Ok(cond)
            }
        })
    }

    fn binary_op(&mut self) -> Option<BinaryOp> {
        use TokenKind::*;
        Some(match self.peek() {
            Plus => BinaryOp::Add,
            Minus => BinaryOp::Sub,
            Star => BinaryOp::Mul,
            Slash => BinaryOp::Div,
            Percent => BinaryOp::Mod,
            Lt => BinaryOp::Lt,
            Gt => BinaryOp::Gt,
            Le => BinaryOp::Le,
            Ge => BinaryOp::Ge,
            Eq => BinaryOp::Eq,
            Ne => BinaryOp::Ne,
            AndAnd => BinaryOp::And,
            OrOr => BinaryOp::Or,
            Amp => BinaryOp::BitAnd,
            Pipe => BinaryOp::BitOr,
            Caret => BinaryOp::BitXor,
            Shl => BinaryOp::Shl,
            Shr => BinaryOp::Shr,
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        self.chain(|p| {
            let mut lhs = p.unary()?;
            while let Some(op) = p.binary_op() {
                let prec = op.precedence();
                if prec < min_prec {
                    break;
                }
                p.advance();
                p.wrap()?;
                let rhs = p.nested(|p| p.binary(prec + 1))?;
                lhs = Expr::bin(op, lhs, rhs);
            }
            Ok(lhs)
        })
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        use TokenKind::*;
        let op = match self.peek() {
            Minus => Some(UnaryOp::Neg),
            Plus => Some(UnaryOp::Plus),
            Not => Some(UnaryOp::Not),
            Tilde => Some(UnaryOp::BitNot),
            Amp => Some(UnaryOp::AddrOf),
            PlusPlus => Some(UnaryOp::PreInc),
            MinusMinus => Some(UnaryOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let expr = self.nested(Self::unary)?;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        self.chain(|p| {
            let mut expr = p.primary()?;
            loop {
                match p.peek() {
                    TokenKind::LParen => {
                        p.advance();
                        p.wrap()?;
                        let mut args = Vec::new();
                        if p.peek() != &TokenKind::RParen {
                            loop {
                                args.push(p.nested(Self::assignment)?);
                                if !p.eat(&TokenKind::Comma) {
                                    break;
                                }
                            }
                        }
                        p.expect(&TokenKind::RParen)?;
                        expr = Expr::Call {
                            callee: Box::new(expr),
                            args,
                        };
                    }
                    TokenKind::LBracket => {
                        p.advance();
                        p.wrap()?;
                        let index = p.nested(Self::expression)?;
                        p.expect(&TokenKind::RBracket)?;
                        expr = Expr::index(expr, index);
                    }
                    TokenKind::Dot | TokenKind::Arrow => {
                        let arrow = p.advance() == TokenKind::Arrow;
                        p.wrap()?;
                        let member = p.expect_ident()?;
                        expr = Expr::Member {
                            base: Box::new(expr),
                            member,
                            arrow,
                        };
                    }
                    TokenKind::PlusPlus | TokenKind::MinusMinus => {
                        let op = if p.advance() == TokenKind::PlusPlus {
                            UnaryOp::PostInc
                        } else {
                            UnaryOp::PostDec
                        };
                        p.wrap()?;
                        expr = Expr::Unary {
                            op,
                            expr: Box::new(expr),
                        };
                    }
                    _ => return Ok(expr),
                }
            }
        })
    }

    /// Whether the current token can begin an operand (used to
    /// disambiguate C-style casts from parenthesized expressions).
    fn starts_operand(&mut self) -> bool {
        use TokenKind::*;
        matches!(
            self.peek(),
            Ident(_)
                | IntLit(_)
                | FloatLit(_)
                | StrLit(_)
                | CharLit(_)
                | KwTrue
                | KwFalse
                | LParen
                | PlusPlus
                | MinusMinus
                | Not
                | Tilde
                | KwStaticCast
        )
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        use TokenKind::*;
        match self.peek().clone() {
            IntLit(v) => {
                self.advance();
                Ok(Expr::Int(v))
            }
            FloatLit(s) => {
                self.advance();
                Ok(Expr::Float(s))
            }
            StrLit(s) => {
                self.advance();
                Ok(Expr::Str(s))
            }
            CharLit(c) => {
                self.advance();
                Ok(Expr::Char(c))
            }
            KwTrue => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            KwFalse => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            KwStaticCast => {
                self.advance();
                self.expect(&Lt)?;
                let ty = self.parse_type()?;
                self.expect_close_angle()?;
                self.expect(&LParen)?;
                let expr = self.nested(Self::expression)?;
                self.expect(&RParen)?;
                Ok(Expr::StaticCast {
                    ty,
                    expr: Box::new(expr),
                })
            }
            KwSizeof => {
                self.advance();
                self.expect(&LParen)?;
                let inner = self.nested(|p| {
                    if p.is_type_start() {
                        let ty = p.parse_type()?;
                        Ok(Expr::Cast {
                            ty,
                            expr: Box::new(Expr::Int(0)),
                        })
                    } else {
                        p.expression()
                    }
                })?;
                self.expect(&RParen)?;
                Ok(Expr::call("sizeof", vec![inner]))
            }
            Ident(name) => {
                let name = name.to_string();
                self.advance();
                // Qualified names: `std::foo` normalizes to `foo`
                // (the renderer never re-qualifies), any other
                // `ns::member` is kept verbatim as one identifier
                // (e.g. `ios_base::sync_with_stdio`).
                if self.eat(&ColonColon) {
                    let inner = self.expect_ident()?;
                    return Ok(if name == "std" {
                        Expr::Ident(inner)
                    } else {
                        Expr::Ident(format!("{name}::{inner}"))
                    });
                }
                Ok(Expr::Ident(name))
            }
            LBrace => {
                self.advance();
                let mut elems = Vec::new();
                if self.peek() != &RBrace {
                    loop {
                        elems.push(self.nested(Self::assignment)?);
                        if !self.eat(&Comma) {
                            break;
                        }
                    }
                }
                self.expect(&RBrace)?;
                Ok(Expr::InitList(elems))
            }
            LParen => {
                self.advance();
                // Try a C-style cast: `(type) operand`.
                let checkpoint = self.pos;
                if self.is_type_start() {
                    if let Ok(ty) = self.parse_type() {
                        if self.peek() == &RParen {
                            let after_rparen = self.pos;
                            self.advance(); // `)`
                            if self.starts_operand() {
                                let expr = self.nested(Self::unary)?;
                                return Ok(Expr::Cast {
                                    ty,
                                    expr: Box::new(expr),
                                });
                            }
                            self.pos = after_rparen;
                        }
                    }
                    self.pos = checkpoint;
                }
                let inner = self.nested(Self::expression)?;
                self.expect(&RParen)?;
                Ok(Expr::Paren(Box::new(inner)))
            }
            other => Err(self.err(format!("expected expression, found `{other}`"))),
        }
    }
}

fn parse_directive(text: &str) -> Item {
    let trimmed = text.trim();
    if let Some(rest) = trimmed.strip_prefix("#include") {
        let rest = rest.trim();
        if let Some(path) = rest.strip_prefix('<').and_then(|r| r.strip_suffix('>')) {
            return Item::Include {
                path: path.to_string(),
                system: true,
            };
        }
        if let Some(path) = rest.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
            return Item::Include {
                path: path.to_string(),
                system: false,
            };
        }
    }
    Item::Define {
        text: trimmed.trim_start_matches('#').trim().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> TranslationUnit {
        parse(src).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
    }

    #[test]
    fn parses_minimal_main() {
        let unit = ok("int main() { return 0; }");
        let main = unit.function("main").unwrap();
        assert_eq!(main.ret, Type::Int);
        assert_eq!(main.body.stmts, vec![Stmt::Return(Some(Expr::Int(0)))]);
    }

    #[test]
    fn parses_includes_and_using() {
        let unit = ok("#include <iostream>\n#include \"mine.h\"\nusing namespace std;\n");
        assert_eq!(
            unit.items[0],
            Item::Include {
                path: "iostream".into(),
                system: true
            }
        );
        assert_eq!(
            unit.items[1],
            Item::Include {
                path: "mine.h".into(),
                system: false
            }
        );
        assert_eq!(unit.items[2], Item::UsingNamespace("std".into()));
    }

    #[test]
    fn parses_typedef_and_alias_registering_type_names() {
        let unit = ok("typedef long long ll;\nusing vi = vector<int>;\nll total;\nvi xs;\nint main() { ll y = 0; return 0; }");
        assert!(matches!(unit.items[0], Item::Typedef { .. }));
        assert!(matches!(unit.items[1], Item::UsingAlias { .. }));
        assert!(matches!(unit.items[2], Item::GlobalVar(_)));
    }

    #[test]
    fn parses_stream_io_as_binary_expressions() {
        let unit = ok("int main() { int n; cin >> n; cout << \"x\" << n << endl; return 0; }");
        let main = unit.function("main").unwrap();
        assert!(matches!(
            &main.body.stmts[1],
            Stmt::Expr(Expr::Binary {
                op: BinaryOp::Shr,
                ..
            })
        ));
        assert!(matches!(
            &main.body.stmts[2],
            Stmt::Expr(Expr::Binary {
                op: BinaryOp::Shl,
                ..
            })
        ));
    }

    #[test]
    fn parses_for_loop_with_decl_init() {
        let unit = ok("int main() { for (int i = 0; i < 10; ++i) { } return 0; }");
        let main = unit.function("main").unwrap();
        match &main.body.stmts[0] {
            Stmt::For {
                init: Some(init),
                cond: Some(_),
                step: Some(_),
                ..
            } => assert!(matches!(**init, Stmt::Decl(_))),
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_range_for() {
        let unit = ok("int main() { vector<int> v; for (auto& x : v) { x += 1; } for (int y : v) ; return 0; }");
        let main = unit.function("main").unwrap();
        match &main.body.stmts[1] {
            Stmt::ForEach { ty, by_ref, .. } => {
                assert_eq!(*ty, Type::Auto);
                assert!(by_ref);
            }
            other => panic!("expected foreach, got {other:?}"),
        }
        assert!(matches!(
            &main.body.stmts[2],
            Stmt::ForEach { by_ref: false, .. }
        ));
    }

    #[test]
    fn parses_braceless_bodies_as_blocks() {
        let unit = ok("int main() { if (1) return 1; else return 2; while (0) break; return 0; }");
        let main = unit.function("main").unwrap();
        match &main.body.stmts[0] {
            Stmt::If {
                then_branch,
                else_branch: Some(e),
                ..
            } => {
                assert_eq!(then_branch.stmts.len(), 1);
                assert_eq!(e.stmts.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_else_if_chain() {
        let unit =
            ok("int f(int x) { if (x > 0) return 1; else if (x < 0) return -1; else return 0; }");
        let f = unit.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::If {
                else_branch: Some(b),
                ..
            } => assert!(matches!(&b.stmts[0], Stmt::If { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_nested_template_types_with_shr_split() {
        let unit =
            ok("int main() { vector<vector<int>> grid; map<string, vector<int>> m; return 0; }");
        let main = unit.function("main").unwrap();
        match &main.body.stmts[0] {
            Stmt::Decl(d) => {
                assert!(matches!(&d.ty, Type::Vector(inner) if matches!(**inner, Type::Vector(_))))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_c_style_and_static_casts() {
        let unit = ok("int main() { int x = 3; double d = (double)x / (double)2; double e = static_cast<double>(x); return 0; }");
        let main = unit.function("main").unwrap();
        match &main.body.stmts[1] {
            Stmt::Decl(d) => {
                let init = d.declarators[0].init.as_ref().unwrap();
                assert!(matches!(
                    init,
                    Initializer::Assign(Expr::Binary {
                        op: BinaryOp::Div,
                        ..
                    })
                ));
            }
            other => panic!("{other:?}"),
        }
        match &main.body.stmts[2] {
            Stmt::Decl(d) => assert!(matches!(
                d.declarators[0].init.as_ref().unwrap(),
                Initializer::Assign(Expr::StaticCast { .. })
            )),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cast_vs_paren_disambiguation() {
        // `(x) + 1` must stay a parenthesized expression.
        let unit = ok("int f(int x) { return (x) + 1; }");
        let f = unit.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::Return(Some(Expr::Binary { lhs, .. })) => {
                assert!(matches!(**lhs, Expr::Paren(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_multi_declarator_and_arrays() {
        let unit = ok("int main() { int a = 1, b, c[10]; return a; }");
        let main = unit.function("main").unwrap();
        match &main.body.stmts[0] {
            Stmt::Decl(d) => {
                assert_eq!(d.declarators.len(), 3);
                assert!(d.declarators[0].init.is_some());
                assert!(d.declarators[2].array.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_constructor_initializer() {
        let unit = ok("int main() { vector<int> v(10, 0); return 0; }");
        let main = unit.function("main").unwrap();
        match &main.body.stmts[0] {
            Stmt::Decl(d) => assert!(matches!(
                d.declarators[0].init.as_ref().unwrap(),
                Initializer::Ctor(args) if args.len() == 2
            )),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ternary_and_compound_assign() {
        let unit = ok("int main() { int x = 1; x += x > 0 ? 2 : 3; return x; }");
        let main = unit.function("main").unwrap();
        assert!(matches!(
            &main.body.stmts[1],
            Stmt::Expr(Expr::Assign {
                op: AssignOp::Add,
                ..
            })
        ));
    }

    #[test]
    fn parses_member_calls_and_indexing() {
        let unit = ok(
            "int main() { vector<int> v; v.push_back(1); int n = (int)v.size(); return v[0] + n; }",
        );
        let main = unit.function("main").unwrap();
        assert!(matches!(&main.body.stmts[1], Stmt::Expr(Expr::Call { .. })));
    }

    #[test]
    fn comments_attach_at_statement_boundaries() {
        let unit = ok("// header\nint main() { // first\n int x = 1; /* mid */ return x; }");
        assert!(matches!(&unit.items[0], Item::Comment(c) if c.text == "header"));
        let main = unit.function("main").unwrap();
        assert!(matches!(&main.body.stmts[0], Stmt::Comment(c) if c.text == "first" && !c.block));
        assert!(matches!(&main.body.stmts[2], Stmt::Comment(c) if c.block));
    }

    #[test]
    fn parses_do_while_and_empty_statement() {
        let unit = ok("int main() { int i = 0; do { i++; } while (i < 3); ; return i; }");
        let main = unit.function("main").unwrap();
        assert!(matches!(&main.body.stmts[1], Stmt::DoWhile { .. }));
        assert!(matches!(&main.body.stmts[2], Stmt::Empty));
    }

    #[test]
    fn parses_function_with_reference_params() {
        let unit = ok("void solve(vector<int>& xs, const string& name) { }");
        let f = unit.function("solve").unwrap();
        assert!(matches!(&f.params[0].ty, Type::Ref(_)));
        assert!(matches!(&f.params[1].ty, Type::Ref(inner) if matches!(**inner, Type::Const(_))));
    }

    #[test]
    fn parses_globals_and_defines() {
        let unit = ok("#define MAXN 100005\nint arr[100005];\nint main() { return 0; }");
        assert!(matches!(&unit.items[0], Item::Define { text } if text.starts_with("define")));
        assert!(matches!(&unit.items[1], Item::GlobalVar(_)));
    }

    #[test]
    fn rejects_struct_and_switch() {
        assert!(parse("struct P { int x; };").is_err());
        assert!(parse("int main() { switch (1) { } }").is_err());
    }

    #[test]
    fn reports_error_with_line() {
        let err = parse("int main() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn rejects_truncated_input() {
        assert!(parse("int main() {").is_err());
        assert!(parse("int main(").is_err());
        assert!(parse("int").is_err());
    }

    #[test]
    fn parses_long_long_and_unsigned_spellings() {
        let unit =
            ok("long long a; unsigned int b; unsigned long long c; long d; short e; signed f;");
        let tys: Vec<&Type> = unit
            .items
            .iter()
            .map(|i| match i {
                Item::GlobalVar(d) => &d.ty,
                _ => panic!(),
            })
            .collect();
        assert_eq!(tys[0], &Type::LongLong);
        assert_eq!(tys[1], &Type::Unsigned);
        assert_eq!(tys[2], &Type::Unsigned);
        assert_eq!(tys[3], &Type::Long);
        assert_eq!(tys[4], &Type::Int);
        assert_eq!(tys[5], &Type::Int);
    }

    #[test]
    fn parses_std_qualified_names() {
        let unit =
            ok("#include <string>\nstd::string g;\nint main() { std::cout << g; return 0; }");
        assert!(matches!(&unit.items[1], Item::GlobalVar(d) if d.ty == Type::Str));
    }

    #[test]
    fn parses_horse_race_paper_figure3() {
        // The paper's Figure 3 (normalized: the original has typos from
        // OCR; this is the intended program).
        let src = r#"
#include <iostream>
#include <algorithm>
using namespace std;
int main() {
    int nCase;
    cin >> nCase;
    for (int iCase = 1; iCase <= nCase; ++iCase) {
        int d, n;
        double t = 0;
        cin >> d >> n;
        for (int i = 0; i < n; ++i) {
            int x, y;
            cin >> x >> y;
            x = d - x;
            t = max(t, (double)x / (double)y);
        }
        printf("Case #%d: %.6lf\n", iCase, (double)d / t);
    }
    return 0;
}
"#;
        let unit = ok(src);
        assert_eq!(unit.functions().count(), 1);
    }
}
