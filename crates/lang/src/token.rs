//! Token definitions for the C++ subset lexer, plus the interned
//! identifier symbol table.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hash::fnv1a;

/// An interned identifier.
///
/// Every distinct identifier spelling is stored exactly once in a
/// process-wide symbol table; a `Symbol` is a shared handle to that
/// storage, so cloning a symbol (and cloning tokens or peeking ahead
/// in the parser) is a reference-count bump instead of a fresh
/// `String` allocation. The experiment pipelines lex the same small
/// identifier vocabulary millions of times, which is why the lexer
/// interns instead of allocating per occurrence.
///
/// Interning is purely an allocation optimisation: equality, hashing
/// and ordering are defined on the spelling, so results never depend
/// on interner state.
#[derive(Clone)]
pub struct Symbol(Arc<str>);

/// The process-wide symbol table, sharded to keep parallel pipeline
/// workers from serialising on one lock. Shard choice uses the same
/// FNV-1a hash as the table lookups; the table only ever grows, which
/// is fine for this workload (the identifier vocabulary is bounded by
/// the generator's naming concepts).
const INTERNER_SHARDS: usize = 32;

fn interner() -> &'static [Mutex<HashSet<Arc<str>>>; INTERNER_SHARDS] {
    static TABLE: OnceLock<[Mutex<HashSet<Arc<str>>>; INTERNER_SHARDS]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|_| Mutex::new(HashSet::new())))
}

impl Symbol {
    /// Returns the unique symbol for `text`, creating it on first use.
    pub fn intern(text: &str) -> Symbol {
        let shard = &interner()[(fnv1a(text.as_bytes()) as usize) % INTERNER_SHARDS];
        let mut set = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = set.get(text) {
            return Symbol(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(text);
        set.insert(Arc::clone(&arc));
        Symbol(arc)
    }

    /// The interned spelling.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        // Interned symbols with equal spellings share storage, so the
        // pointer check settles almost every comparison.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Symbol {}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

/// A half-open byte span into the original source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of the first character.
    pub line: u32,
}

impl Span {
    /// Creates a span covering `start..end` on `line`.
    pub fn new(start: usize, end: usize, line: u32) -> Self {
        Span { start, end, line }
    }
}

/// The kind of a lexed token.
///
/// Keywords of the supported subset get dedicated variants; all other
/// identifiers are [`TokenKind::Ident`]. Multi-character operators are
/// single tokens (`<<`, `>>`, `<=`, `&&`, `+=`, …).
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals and names -------------------------------------------------
    /// An integer literal, e.g. `42` (suffixes `LL`/`u` are absorbed).
    IntLit(i64),
    /// A floating literal; the original spelling is preserved.
    FloatLit(String),
    /// A double-quoted string literal (contents, unescaped).
    StrLit(String),
    /// A single-quoted character literal.
    CharLit(char),
    /// An identifier or non-keyword name, interned in the process-wide
    /// symbol table (see [`Symbol`]).
    Ident(Symbol),

    // Keywords ------------------------------------------------------------
    KwInt,
    KwLong,
    KwShort,
    KwChar,
    KwBool,
    KwFloat,
    KwDouble,
    KwVoid,
    KwAuto,
    KwConst,
    KwUnsigned,
    KwSigned,
    KwIf,
    KwElse,
    KwFor,
    KwWhile,
    KwDo,
    KwReturn,
    KwBreak,
    KwContinue,
    KwSwitch,
    KwCase,
    KwDefault,
    KwStruct,
    KwTypedef,
    KwUsing,
    KwNamespace,
    KwTrue,
    KwFalse,
    KwStaticCast,
    KwSizeof,

    // Punctuation and operators -------------------------------------------
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    ColonColon,
    Question,
    Dot,
    Arrow,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Amp,
    AmpAssign,
    Pipe,
    PipeAssign,
    Caret,
    CaretAssign,
    Tilde,
    Shl,
    Shr,
    ShlAssign,
    ShrAssign,

    // Trivia the parser cares about ----------------------------------------
    /// A `//` or `/* */` comment; `(text, is_block)`.
    Comment(String, bool),
    /// A full preprocessor line starting with `#` (without newline).
    Directive(String),

    /// End of input sentinel.
    Eof,
}

/// Whether a generated identifier must avoid `name`: a keyword of the
/// subset, or a library name the subset's programs use (`cin`, `sqrt`,
/// the `ll` alias, `main`, ...). The corpus generator's namer and the
/// style simulator's renamer share this one list.
pub fn is_reserved_name(name: &str) -> bool {
    TokenKind::keyword(name).is_some()
        || matches!(
            name,
            "string"
                | "vector"
                | "pair"
                | "map"
                | "set"
                | "cin"
                | "cout"
                | "cerr"
                | "endl"
                | "std"
                | "main"
                | "ll"
                | "max"
                | "min"
                | "abs"
                | "sort"
                | "swap"
                | "printf"
                | "scanf"
                | "puts"
                | "getline"
                | "to_string"
                | "sqrt"
                | "pow"
                | "floor"
                | "ceil"
        )
}

impl TokenKind {
    /// Returns the keyword kind for `word`, if it is a keyword of the
    /// supported subset.
    pub fn keyword(word: &str) -> Option<TokenKind> {
        use TokenKind::*;
        Some(match word {
            "int" => KwInt,
            "long" => KwLong,
            "short" => KwShort,
            "char" => KwChar,
            "bool" => KwBool,
            "float" => KwFloat,
            "double" => KwDouble,
            "void" => KwVoid,
            "auto" => KwAuto,
            "const" => KwConst,
            "unsigned" => KwUnsigned,
            "signed" => KwSigned,
            "if" => KwIf,
            "else" => KwElse,
            "for" => KwFor,
            "while" => KwWhile,
            "do" => KwDo,
            "return" => KwReturn,
            "break" => KwBreak,
            "continue" => KwContinue,
            "switch" => KwSwitch,
            "case" => KwCase,
            "default" => KwDefault,
            "struct" => KwStruct,
            "typedef" => KwTypedef,
            "using" => KwUsing,
            "namespace" => KwNamespace,
            "true" => KwTrue,
            "false" => KwFalse,
            "static_cast" => KwStaticCast,
            "sizeof" => KwSizeof,
            _ => return None,
        })
    }

    /// Whether this token can begin a type in the subset grammar.
    pub fn starts_type(&self) -> bool {
        use TokenKind::*;
        matches!(
            self,
            KwInt
                | KwLong
                | KwShort
                | KwChar
                | KwBool
                | KwFloat
                | KwDouble
                | KwVoid
                | KwAuto
                | KwConst
                | KwUnsigned
                | KwSigned
        )
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            IntLit(v) => write!(f, "{v}"),
            FloatLit(s) => write!(f, "{s}"),
            StrLit(s) => write!(f, "\"{s}\""),
            CharLit(c) => write!(f, "'{c}'"),
            Ident(s) => write!(f, "{s}"),
            Comment(_, _) => write!(f, "<comment>"),
            Directive(d) => write!(f, "{d}"),
            Eof => write!(f, "<eof>"),
            other => {
                let s = match other {
                    KwInt => "int",
                    KwLong => "long",
                    KwShort => "short",
                    KwChar => "char",
                    KwBool => "bool",
                    KwFloat => "float",
                    KwDouble => "double",
                    KwVoid => "void",
                    KwAuto => "auto",
                    KwConst => "const",
                    KwUnsigned => "unsigned",
                    KwSigned => "signed",
                    KwIf => "if",
                    KwElse => "else",
                    KwFor => "for",
                    KwWhile => "while",
                    KwDo => "do",
                    KwReturn => "return",
                    KwBreak => "break",
                    KwContinue => "continue",
                    KwSwitch => "switch",
                    KwCase => "case",
                    KwDefault => "default",
                    KwStruct => "struct",
                    KwTypedef => "typedef",
                    KwUsing => "using",
                    KwNamespace => "namespace",
                    KwTrue => "true",
                    KwFalse => "false",
                    KwStaticCast => "static_cast",
                    KwSizeof => "sizeof",
                    LParen => "(",
                    RParen => ")",
                    LBrace => "{",
                    RBrace => "}",
                    LBracket => "[",
                    RBracket => "]",
                    Semi => ";",
                    Comma => ",",
                    Colon => ":",
                    ColonColon => "::",
                    Question => "?",
                    Dot => ".",
                    Arrow => "->",
                    Plus => "+",
                    Minus => "-",
                    Star => "*",
                    Slash => "/",
                    Percent => "%",
                    PlusPlus => "++",
                    MinusMinus => "--",
                    Assign => "=",
                    PlusAssign => "+=",
                    MinusAssign => "-=",
                    StarAssign => "*=",
                    SlashAssign => "/=",
                    PercentAssign => "%=",
                    Eq => "==",
                    Ne => "!=",
                    Lt => "<",
                    Gt => ">",
                    Le => "<=",
                    Ge => ">=",
                    AndAnd => "&&",
                    OrOr => "||",
                    Not => "!",
                    Amp => "&",
                    AmpAssign => "&=",
                    Pipe => "|",
                    PipeAssign => "|=",
                    Caret => "^",
                    CaretAssign => "^=",
                    Tilde => "~",
                    Shl => "<<",
                    Shr => ">>",
                    ShlAssign => "<<=",
                    ShrAssign => ">>=",
                    _ => unreachable!(),
                };
                write!(f, "{s}")
            }
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed from.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("int"), Some(TokenKind::KwInt));
        assert_eq!(
            TokenKind::keyword("static_cast"),
            Some(TokenKind::KwStaticCast)
        );
        assert_eq!(TokenKind::keyword("vector"), None);
        assert_eq!(TokenKind::keyword(""), None);
    }

    #[test]
    fn reserved_names_are_keywords_and_library_names() {
        for name in ["int", "sizeof", "vector", "ll", "main", "sqrt"] {
            assert!(is_reserved_name(name), "{name}");
        }
        for name in ["total", "i", "solve", "lld", ""] {
            assert!(!is_reserved_name(name), "{name}");
        }
    }

    #[test]
    fn starts_type_classification() {
        assert!(TokenKind::KwInt.starts_type());
        assert!(TokenKind::KwConst.starts_type());
        assert!(!TokenKind::KwIf.starts_type());
        assert!(!TokenKind::Ident("vector".into()).starts_type());
    }

    #[test]
    fn display_matches_surface_syntax() {
        assert_eq!(TokenKind::Shl.to_string(), "<<");
        assert_eq!(TokenKind::KwReturn.to_string(), "return");
        assert_eq!(TokenKind::IntLit(7).to_string(), "7");
        assert_eq!(TokenKind::StrLit("hi".into()).to_string(), "\"hi\"");
    }

    #[test]
    fn symbols_intern_to_shared_storage() {
        let a = Symbol::intern("total_count");
        let b = Symbol::intern("total_count");
        let c = Symbol::intern("other_name");
        assert_eq!(a, b);
        assert!(
            Arc::ptr_eq(&a.0, &b.0),
            "equal spellings must share storage"
        );
        assert_ne!(a, c);
        assert_eq!(a, *"total_count");
        assert_eq!(a, "total_count");
        assert_eq!(a.to_string(), "total_count");
        assert_eq!(format!("{a:?}"), "\"total_count\"");
    }

    #[test]
    fn symbol_hash_matches_str_hash() {
        use std::collections::hash_map::DefaultHasher;
        let sym = Symbol::intern("acc");
        let mut h1 = DefaultHasher::new();
        sym.hash(&mut h1);
        let mut h2 = DefaultHasher::new();
        "acc".hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }
}
