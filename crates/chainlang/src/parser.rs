//! Lexer and recursive-descent parser for Chainlang.
//!
//! The surface syntax is a tiny, Rust-flavoured statically typed language —
//! just enough to express the paper's workloads (target-side increment,
//! distributed pointer chasing with recursive forwarding) in a high-level
//! form that is then compiled to the same portable IR the "C path" produces.

use crate::ast::{BinOpKind, Expr, FnDef, Program, Stmt, Ty};
use crate::error::{ChainlangError, Result};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(u64),
    Float(f64),
    Str(String),
    // punctuation / operators
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Colon,
    Arrow,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    // keywords
    Fn,
    Let,
    If,
    Else,
    While,
    Return,
    Dep,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, msg: impl Into<String>) -> ChainlangError {
        ChainlangError::Parse {
            line: self.line,
            message: msg.into(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            while matches!(self.peek_byte(), Some(b) if b.is_ascii_whitespace()) {
                self.bump();
            }
            // Line comments: `//` or `#`
            if self.src[self.pos..].starts_with(b"//") || self.peek_byte() == Some(b'#') {
                while let Some(b) = self.peek_byte() {
                    if b == b'\n' {
                        break;
                    }
                    self.bump();
                }
                continue;
            }
            break;
        }
    }

    fn next_tok(&mut self) -> Result<(Tok, usize)> {
        self.skip_ws_and_comments();
        let line = self.line;
        let Some(b) = self.peek_byte() else {
            return Ok((Tok::Eof, line));
        };
        let tok = match b {
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(c) => s.push(c as char),
                        None => return Err(self.error("unterminated string literal")),
                    }
                }
                Tok::Str(s)
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while matches!(self.peek_byte(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'_')
                {
                    self.bump();
                }
                // ASCII digits, `.` and `_` only: each byte is its own char.
                let digits = self.src[start..self.pos].iter().filter(|&&c| c != b'_');
                let text: String = digits.map(|&c| c as char).collect();
                if text.contains('.') {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| self.error(format!("invalid float literal `{text}`")))?;
                    Tok::Float(v)
                } else {
                    let v: u64 = text
                        .parse()
                        .map_err(|_| self.error(format!("invalid integer literal `{text}`")))?;
                    Tok::Int(v)
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while matches!(self.peek_byte(), Some(c) if c.is_ascii_alphanumeric() || c == b'_')
                {
                    self.bump();
                }
                let bytes = &self.src[start..self.pos];
                let word: String = bytes.iter().map(|&c| c as char).collect();
                match word.as_str() {
                    "fn" => Tok::Fn,
                    "let" => Tok::Let,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "return" => Tok::Return,
                    "dep" => Tok::Dep,
                    _ => Tok::Ident(word),
                }
            }
            _ => self.punct(b)?,
        };
        Ok((tok, line))
    }

    /// The operator or punctuation token starting with `b`: its two-byte
    /// form when the second byte follows, else its one-byte form, if any.
    fn punct(&mut self, b: u8) -> Result<Tok> {
        let (second, two, one) = match b {
            b'-' => (b'>', Tok::Arrow, Some(Tok::Minus)),
            b'=' => (b'=', Tok::EqEq, Some(Tok::Assign)),
            b'!' => (b'=', Tok::NotEq, None),
            b'<' => (b'=', Tok::Le, Some(Tok::Lt)),
            b'>' => (b'=', Tok::Ge, Some(Tok::Gt)),
            b'&' => (b'&', Tok::AndAnd, None),
            b'|' => (b'|', Tok::OrOr, None),
            _ => {
                let one = match b {
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b',' => Tok::Comma,
                    b';' => Tok::Semi,
                    b':' => Tok::Colon,
                    b'+' => Tok::Plus,
                    b'*' => Tok::Star,
                    b'/' => Tok::Slash,
                    b'%' => Tok::Percent,
                    other => {
                        return Err(self.error(format!("unexpected character `{}`", other as char)))
                    }
                };
                self.bump();
                return Ok(one);
            }
        };
        self.bump();
        if self.peek_byte() == Some(second) {
            self.bump();
            return Ok(two);
        }
        one.ok_or_else(|| self.error(format!("expected `{}{}`", b as char, second as char)))
    }
}

/// The binding level of comparisons.
const COMPARISON: u8 = 2;

/// The binary operator `tok` stands for and its binding level, loosest
/// first: `||`, `&&`, comparisons, `+ -`, `* / %`.
fn binary_op(tok: &Tok) -> Option<(u8, BinOpKind)> {
    Some(match tok {
        Tok::OrOr => (0, BinOpKind::Or),
        Tok::AndAnd => (1, BinOpKind::And),
        Tok::EqEq => (COMPARISON, BinOpKind::Eq),
        Tok::NotEq => (COMPARISON, BinOpKind::Ne),
        Tok::Lt => (COMPARISON, BinOpKind::Lt),
        Tok::Le => (COMPARISON, BinOpKind::Le),
        Tok::Gt => (COMPARISON, BinOpKind::Gt),
        Tok::Ge => (COMPARISON, BinOpKind::Ge),
        Tok::Plus => (3, BinOpKind::Add),
        Tok::Minus => (3, BinOpKind::Sub),
        Tok::Star => (4, BinOpKind::Mul),
        Tok::Slash => (4, BinOpKind::Div),
        Tok::Percent => (4, BinOpKind::Rem),
        _ => return None,
    })
}

/// Parse Chainlang source into a [`Program`].
pub fn parse(source: &str) -> Result<Program> {
    let mut lexer = Lexer::new(source);
    let mut tokens = Vec::new();
    loop {
        let (tok, line) = lexer.next_tok()?;
        let done = tok == Tok::Eof;
        tokens.push((tok, line));
        if done {
            break;
        }
    }
    Parser { tokens, pos: 0 }.program()
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].0
    }

    fn line(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].1
    }

    fn bump(&mut self) -> Tok {
        let tok = self.tokens[self.pos.min(self.tokens.len() - 1)].0.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn error(&self, msg: impl Into<String>) -> ChainlangError {
        ChainlangError::Parse {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn eat(&mut self, tok: Tok, what: &str) -> Result<()> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn program(&mut self) -> Result<Program> {
        let mut program = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Dep => {
                    self.bump();
                    match self.bump() {
                        Tok::Str(s) => program.deps.push(s),
                        other => {
                            return Err(self.error(format!(
                                "expected string literal after `dep`, found {other:?}"
                            )))
                        }
                    }
                    self.eat(Tok::Semi, "`;`")?;
                }
                Tok::Fn => program.functions.push(self.function()?),
                other => return Err(self.error(format!("expected `fn` or `dep`, found {other:?}"))),
            }
        }
        Ok(program)
    }

    fn function(&mut self) -> Result<FnDef> {
        self.eat(Tok::Fn, "`fn`")?;
        let name = self.ident("function name")?;
        self.eat(Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        while *self.peek() != Tok::RParen {
            if !params.is_empty() {
                self.eat(Tok::Comma, "`,`")?;
            }
            let pname = self.ident("parameter name")?;
            self.eat(Tok::Colon, "`:`")?;
            let tname = self.ident("parameter type")?;
            let ty =
                Ty::parse(&tname).ok_or_else(|| self.error(format!("unknown type `{tname}`")))?;
            params.push((pname, ty));
        }
        self.eat(Tok::RParen, "`)`")?;
        let ret = if *self.peek() == Tok::Arrow {
            self.bump();
            let tname = self.ident("return type")?;
            Some(Ty::parse(&tname).ok_or_else(|| self.error(format!("unknown type `{tname}`")))?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FnDef {
            name,
            params,
            ret,
            body,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.eat(Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            stmts.push(self.statement()?);
        }
        self.eat(Tok::RBrace, "`}`")?;
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt> {
        match self.peek().clone() {
            Tok::Let => {
                self.bump();
                let name = self.ident("variable name")?;
                self.eat(Tok::Colon, "`:` (all variables are explicitly typed)")?;
                let tname = self.ident("type")?;
                let ty = Ty::parse(&tname)
                    .ok_or_else(|| self.error(format!("unknown type `{tname}`")))?;
                self.eat(Tok::Assign, "`=`")?;
                let value = self.expr()?;
                self.eat(Tok::Semi, "`;`")?;
                Ok(Stmt::Let { name, ty, value })
            }
            Tok::If => {
                self.bump();
                let cond = self.expr()?;
                let then_body = self.block()?;
                let else_body = if *self.peek() == Tok::Else {
                    self.bump();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Return => {
                self.bump();
                let value = self.expr()?;
                self.eat(Tok::Semi, "`;`")?;
                Ok(Stmt::Return(value))
            }
            Tok::Ident(name) => {
                // Either `name = expr;` or an expression statement.
                if self.tokens.get(self.pos + 1).map(|t| &t.0) == Some(&Tok::Assign) {
                    self.bump();
                    self.bump();
                    let value = self.expr()?;
                    self.eat(Tok::Semi, "`;`")?;
                    Ok(Stmt::Assign { name, value })
                } else {
                    let e = self.expr()?;
                    self.eat(Tok::Semi, "`;`")?;
                    Ok(Stmt::Expr(e))
                }
            }
            other => Err(self.error(format!("unexpected token {other:?} at statement start"))),
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        self.binary(0)
    }

    /// Atoms joined by binary operators of binding level `min` or tighter
    /// (see [`binary_op`]), each level left-associative.  An operator binds
    /// no tighter than the one before it at this depth, and a comparison is
    /// followed by none: `a < b < c` does not parse.
    fn binary(&mut self, min: u8) -> Result<Expr> {
        let mut lhs = self.atom()?;
        let mut max = u8::MAX;
        while let Some((level, op)) =
            binary_op(self.peek()).filter(|(l, _)| (min..=max).contains(l))
        {
            self.bump();
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            max = if level == COMPARISON {
                COMPARISON - 1
            } else {
                level
            };
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Expr> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::LParen => {
                let e = self.expr()?;
                self.eat(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    while *self.peek() != Tok::RParen {
                        if !args.is_empty() {
                            self.eat(Tok::Comma, "`,`")?;
                        }
                        args.push(self.expr()?);
                    }
                    self.eat(Tok::RParen, "`)`")?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.error(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operator_lexes_and_a_lone_half_of_a_pair_is_refused() {
        use Tok::*;
        let mut lexer = Lexer::new("( ) { } , ; : -> - == = != <= < >= > && || + * / %");
        for want in [
            LParen, RParen, LBrace, RBrace, Comma, Semi, Colon, Arrow, Minus, EqEq, Assign, NotEq,
            Le, Lt, Ge, Gt, AndAnd, OrOr, Plus, Star, Slash, Percent, Eof,
        ] {
            assert_eq!(lexer.next_tok().unwrap().0, want);
        }
        for (src, want) in [
            ("!x", "expected `!=`"),
            ("&", "expected `&&`"),
            ("|x", "expected `||`"),
            ("@", "unexpected character `@`"),
        ] {
            match Lexer::new(src).next_tok() {
                Err(ChainlangError::Parse { line: 1, message }) => assert_eq!(message, want),
                other => panic!("{src}: {other:?}"),
            }
        }
    }

    #[test]
    fn parses_tsi_kernel() {
        let src = r#"
            // Target-side increment, Chainlang edition.
            fn main(payload: u64, len: u64, target: u64) -> i64 {
                let delta: u64 = load_u8(payload, 0);
                let counter: u64 = load_u64(target, 0);
                store_u64(target, 0, counter + delta);
                return 0;
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.functions.len(), 1);
        let main = prog.function("main").unwrap();
        assert_eq!(main.params.len(), 3);
        assert_eq!(main.ret, Some(Ty::I64));
        assert_eq!(main.body.len(), 4);
    }

    #[test]
    fn parses_control_flow_and_deps() {
        let src = r#"
            dep "libm.so";
            fn helper(x: f64) -> f64 {
                return x * 2.5;
            }
            fn main(payload: u64, len: u64, target: u64) -> i64 {
                let i: u64 = 0;
                let acc: u64 = 0;
                while i < len {
                    acc = acc + load_u8(payload, i);
                    i = i + 1;
                }
                if acc > 100 && acc != 200 {
                    store_u64(target, 0, acc);
                } else {
                    store_u64(target, 0, 0);
                }
                return 0;
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.deps, vec!["libm.so".to_string()]);
        assert_eq!(prog.functions.len(), 2);
        let main = prog.function("main").unwrap();
        assert!(matches!(main.body[2], Stmt::While { .. }));
        assert!(matches!(main.body[3], Stmt::If { .. }));
    }

    /// Every level is left-associative, comparisons take one operator and
    /// bind looser than arithmetic, `&&` looser than comparisons.
    #[test]
    fn levels_associate_left_and_comparisons_do_not_chain() {
        let ret = |e: &str| match parse(&format!("fn f() -> u64 {{ return {e}; }}")) {
            Ok(p) => Ok(format!("{:?}", p.functions[0].body[0])),
            Err(e) => Err(e),
        };
        let bin = |op, l: String, r: String| format!("Bin {{ op: {op}, lhs: {l}, rhs: {r} }}");
        let var = |v: &str| format!("Var(\"{v}\")");
        let minus = bin("Sub", bin("Sub", var("a"), var("b")), var("c"));
        assert_eq!(ret("a - b - c"), Ok(format!("Return({minus})")));
        let lt = |l, r| bin("Lt", var(l), var(r));
        let both = bin("And", lt("a", "b"), lt("c", "d"));
        assert_eq!(ret("a < b && c < d"), Ok(format!("Return({both})")));
        let sum = bin("Lt", bin("Add", var("a"), var("b")), var("c"));
        assert_eq!(ret("a + b < c"), Ok(format!("Return({sum})")));
        for chained in ["a < b < c", "a == b != c", "a && b < c < d"] {
            assert!(ret(chained).is_err(), "{chained}");
        }
    }

    #[test]
    fn operator_precedence() {
        let prog = parse("fn f() -> u64 { return 1 + 2 * 3; }").unwrap();
        match &prog.functions[0].body[0] {
            Stmt::Return(Expr::Bin {
                op: BinOpKind::Add,
                rhs,
                ..
            }) => {
                assert!(matches!(
                    **rhs,
                    Expr::Bin {
                        op: BinOpKind::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected AST {other:?}"),
        }
    }

    #[test]
    fn reports_syntax_errors_with_line_numbers() {
        let err = parse("fn main(\n  x u64\n) {}").unwrap_err();
        match err {
            ChainlangError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse("fn f() { let x = ; }").is_err());
        assert!(parse("fn f() { return 1 }").is_err());
        assert!(parse("fn f() { x & y; }").is_err());
        assert!(parse("dep libm; fn f() {}").is_err());
    }

    #[test]
    fn untyped_let_is_rejected() {
        // Type-instability analogue: every binding must have a declared type.
        let err = parse("fn f() { let x = 3; }").unwrap_err();
        assert!(err.to_string().contains("explicitly typed"));
    }

    #[test]
    fn comments_and_underscored_literals() {
        let prog =
            parse("# hash comment\nfn f() -> u64 { // trailing\n  return 1_000_000; }").unwrap();
        match &prog.functions[0].body[0] {
            Stmt::Return(Expr::Int(v)) => assert_eq!(*v, 1_000_000),
            other => panic!("unexpected {other:?}"),
        }
    }
}
