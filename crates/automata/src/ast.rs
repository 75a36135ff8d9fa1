//! Regex AST and parser.

use std::fmt;

/// A class of symbols (devices) matched by one path step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SymClass {
    /// `.` — any device.
    Any,
    /// A named device.
    One(String),
    /// `[A B C]` — any of the listed devices.
    In(Vec<String>),
    /// `[^A B C]` — any device except the listed ones.
    NotIn(Vec<String>),
}

impl SymClass {
    /// Does the class match the device `name`?
    pub fn matches(&self, name: &str) -> bool {
        match self {
            SymClass::Any => true,
            SymClass::One(d) => d == name,
            SymClass::In(ds) => ds.iter().any(|d| d == name),
            SymClass::NotIn(ds) => !ds.iter().any(|d| d == name),
        }
    }

    /// Device names referenced by the class (for validation).
    pub fn referenced(&self) -> Vec<&str> {
        match self {
            SymClass::Any => Vec::new(),
            SymClass::One(d) => vec![d.as_str()],
            SymClass::In(ds) | SymClass::NotIn(ds) => ds.iter().map(String::as_str).collect(),
        }
    }
}

/// A regular expression over device names.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// Matches nothing.
    Empty,
    /// Matches the empty path.
    Epsilon,
    /// Matches one device from a class.
    Sym(SymClass),
    /// Concatenation.
    Concat(Box<Regex>, Box<Regex>),
    /// Alternation.
    Alt(Box<Regex>, Box<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
}

impl Regex {
    /// One named device.
    pub fn dev(name: impl Into<String>) -> Regex {
        Regex::Sym(SymClass::One(name.into()))
    }

    /// `.` — any device.
    pub fn any() -> Regex {
        Regex::Sym(SymClass::Any)
    }

    /// Concatenation of many parts.
    pub fn seq(parts: impl IntoIterator<Item = Regex>) -> Regex {
        parts
            .into_iter()
            .reduce(|a, b| Regex::Concat(Box::new(a), Box::new(b)))
            .unwrap_or(Regex::Epsilon)
    }

    /// Alternation of many parts.
    pub fn alts(parts: impl IntoIterator<Item = Regex>) -> Regex {
        parts
            .into_iter()
            .reduce(|a, b| Regex::Alt(Box::new(a), Box::new(b)))
            .unwrap_or(Regex::Empty)
    }

    /// All device names referenced by the expression (for validating
    /// against a topology).
    pub fn referenced_devices(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of nodes in the expression tree.
    fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 1,
            Regex::Concat(a, b) | Regex::Alt(a, b) => 1 + a.size() + b.size(),
            Regex::Star(a) => 1 + a.size(),
        }
    }

    fn collect_refs<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Sym(c) => out.extend(c.referenced()),
            Regex::Concat(a, b) | Regex::Alt(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            Regex::Star(a) => a.collect_refs(out),
        }
    }

    /// Parses the paper's surface syntax. Grammar:
    ///
    /// ```text
    /// alt    := cat ('|' cat)*
    /// cat    := rep+
    /// rep    := atom ('*' | '+' | '?')*
    /// atom   := DEVICE | '.' | '(' alt ')' | '[' '^'? DEVICE+ ']'
    /// DEVICE := [A-Za-z0-9_-]+
    /// ```
    ///
    /// Whitespace separates tokens but is otherwise insignificant, so both
    /// `S .* W .* D` and `S.*W.*D` parse (device names are maximal
    /// identifier runs; in the compact form a name boundary is any
    /// non-identifier character).
    ///
    /// Input nesting deeper than [`MAX_NESTING`] is refused.
    pub fn parse(input: &str) -> Result<Regex, ParseError> {
        let tokens = lex(input)?;
        let mut p = Parser {
            tokens,
            pos: 0,
            groups: 0,
        };
        let (re, _) = p.alt()?;
        if p.pos != p.tokens.len() {
            return Err(ParseError::new(format!("unexpected token at {}", p.pos)));
        }
        Ok(re)
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Empty => write!(f, "∅"),
            Regex::Epsilon => write!(f, "ε"),
            Regex::Sym(SymClass::Any) => write!(f, "."),
            Regex::Sym(SymClass::One(d)) => write!(f, "{d}"),
            Regex::Sym(SymClass::In(ds)) => write!(f, "[{}]", ds.join(" ")),
            Regex::Sym(SymClass::NotIn(ds)) => write!(f, "[^{}]", ds.join(" ")),
            Regex::Concat(a, b) => write!(f, "{a} {b}"),
            Regex::Alt(a, b) => write!(f, "({a}|{b})"),
            Regex::Star(a) => match &**a {
                Regex::Sym(_) => write!(f, "{a}*"),
                _ => write!(f, "({a})*"),
            },
        }
    }
}

/// A regex parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        ParseError(msg.into())
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Dev(String),
    Dot,
    Star,
    Plus,
    Quest,
    Pipe,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Caret,
}

fn lex(input: &str) -> Result<Vec<Tok>, ParseError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '.' => {
                chars.next();
                out.push(Tok::Dot);
            }
            '*' => {
                chars.next();
                out.push(Tok::Star);
            }
            '+' => {
                chars.next();
                out.push(Tok::Plus);
            }
            '?' => {
                chars.next();
                out.push(Tok::Quest);
            }
            '|' => {
                chars.next();
                out.push(Tok::Pipe);
            }
            '(' => {
                chars.next();
                out.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                out.push(Tok::RParen);
            }
            '[' => {
                chars.next();
                out.push(Tok::LBracket);
            }
            ']' => {
                chars.next();
                out.push(Tok::RBracket);
            }
            '^' => {
                chars.next();
                out.push(Tok::Caret);
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Dev(name));
            }
            other => return Err(ParseError::new(format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

/// Largest tree `+` will copy (see [`Parser::rep`]).
const MAX_PLUS_OPERAND: usize = 256;

/// Deepest nesting either parser of the specification language accepts
/// — the JSON shim's bound. Groups may nest this deep, and a syntax
/// tree may have this many levels; every postfix operator and every
/// link of a `|` or juxtaposition chain is one. Deeper input is a parse
/// error instead of a stack overflow: parsing recurses per group, and
/// building, walking or dropping a tree recurses per level.
pub const MAX_NESTING: usize = 128;

/// `depth` levels of nesting, or the error refusing them.
fn bounded(depth: usize) -> Result<usize, ParseError> {
    if depth > MAX_NESTING {
        return Err(ParseError::new(format!(
            "nesting deeper than {MAX_NESTING}"
        )));
    }
    Ok(depth)
}

/// Recursive descent; every rule returns its tree with the tree's
/// depth.
struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
    /// Groups open at the current position.
    groups: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn alt(&mut self) -> Result<(Regex, usize), ParseError> {
        let (mut lhs, mut depth) = self.cat()?;
        while self.peek() == Some(&Tok::Pipe) {
            self.pos += 1;
            let (rhs, d) = self.cat()?;
            depth = bounded(1 + depth.max(d))?;
            lhs = Regex::Alt(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    /// Juxtaposition, associating to the left like [`Regex::seq`].
    fn cat(&mut self) -> Result<(Regex, usize), ParseError> {
        let mut acc: Option<(Regex, usize)> = None;
        while matches!(
            self.peek(),
            Some(Tok::Dev(_)) | Some(Tok::Dot) | Some(Tok::LParen) | Some(Tok::LBracket)
        ) {
            let (part, d) = self.rep()?;
            acc = Some(match acc {
                None => (part, d),
                Some((lhs, ld)) => (
                    Regex::Concat(Box::new(lhs), Box::new(part)),
                    bounded(1 + ld.max(d))?,
                ),
            });
        }
        acc.ok_or_else(|| ParseError::new("expected a device, '.', '(' or '['"))
    }

    fn rep(&mut self) -> Result<(Regex, usize), ParseError> {
        let (mut atom, mut depth) = self.atom()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.pos += 1;
                    depth = bounded(depth + 1)?;
                    atom = Regex::Star(Box::new(atom));
                }
                Some(Tok::Plus) => {
                    self.pos += 1;
                    // `x+` is `x x*`: the operand is copied, so nested
                    // `+` groups double the tree per level. Refuse
                    // before copying what no real path expression has.
                    if atom.size() > MAX_PLUS_OPERAND {
                        return Err(ParseError::new(format!(
                            "operand of '+' has more than {MAX_PLUS_OPERAND} nodes"
                        )));
                    }
                    depth = bounded(depth + 2)?;
                    atom = Regex::Concat(
                        Box::new(atom.clone()),
                        Box::new(Regex::Star(Box::new(atom))),
                    );
                }
                Some(Tok::Quest) => {
                    self.pos += 1;
                    depth = bounded(depth + 1)?;
                    atom = Regex::Alt(Box::new(atom), Box::new(Regex::Epsilon));
                }
                _ => break,
            }
        }
        Ok((atom, depth))
    }

    fn atom(&mut self) -> Result<(Regex, usize), ParseError> {
        match self.peek().cloned() {
            Some(Tok::Dev(name)) => {
                self.pos += 1;
                Ok((Regex::dev(name), 1))
            }
            Some(Tok::Dot) => {
                self.pos += 1;
                Ok((Regex::any(), 1))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                self.groups += 1;
                bounded(self.groups)?;
                let inner = self.alt()?;
                if self.peek() != Some(&Tok::RParen) {
                    return Err(ParseError::new("expected ')'"));
                }
                self.pos += 1;
                self.groups -= 1;
                Ok(inner)
            }
            Some(Tok::LBracket) => {
                self.pos += 1;
                let negated = if self.peek() == Some(&Tok::Caret) {
                    self.pos += 1;
                    true
                } else {
                    false
                };
                let mut devs = Vec::new();
                while let Some(Tok::Dev(name)) = self.peek().cloned() {
                    self.pos += 1;
                    devs.push(name);
                }
                if self.peek() != Some(&Tok::RBracket) {
                    return Err(ParseError::new("expected ']'"));
                }
                self.pos += 1;
                if devs.is_empty() {
                    return Err(ParseError::new("empty device class"));
                }
                let class = if negated {
                    SymClass::NotIn(devs)
                } else {
                    SymClass::In(devs)
                };
                Ok((Regex::Sym(class), 1))
            }
            other => Err(ParseError::new(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_waypoint() {
        let re = Regex::parse("S .* W .* D").unwrap();
        let compact = Regex::parse("S.*W.*D").unwrap();
        assert_eq!(re, compact);
        assert_eq!(re.referenced_devices(), vec!["D", "S", "W"]);
    }

    #[test]
    fn parses_limited_length() {
        // SD | S.D | S..D (reachability with limited path length, Table 1).
        let re = Regex::parse("S D | S . D | S . . D").unwrap();
        match re {
            Regex::Alt(..) => {}
            other => panic!("expected alternation, got {other}"),
        }
    }

    #[test]
    fn parses_classes() {
        let re = Regex::parse("[^X Y]* X [^X]*").unwrap();
        let devs = re.referenced_devices();
        assert_eq!(devs, vec!["X", "Y"]);
        let Regex::Concat(..) = re else {
            panic!("expected concat")
        };
    }

    #[test]
    fn parses_plus_and_question() {
        let re = Regex::parse("A+ B?").unwrap();
        // A+ desugars to A A*.
        assert_eq!(
            re,
            Regex::seq([
                Regex::Concat(
                    Box::new(Regex::dev("A")),
                    Box::new(Regex::Star(Box::new(Regex::dev("A"))))
                ),
                Regex::Alt(Box::new(Regex::dev("B")), Box::new(Regex::Epsilon)),
            ])
        );
    }

    #[test]
    fn nested_plus_cannot_blow_up_the_tree() {
        // Each level doubles: 40 levels would be 2^40 nodes.
        let nested = format!("{}a{}", "(".repeat(40), "+)".repeat(40));
        assert!(Regex::parse(&nested).is_err());
        assert!(Regex::parse("((a b)+ c)+").is_ok());
    }

    #[test]
    fn nesting_is_refused_before_it_overflows_the_stack() {
        let n = 200_000;
        for deep in [
            format!("{}a{}", "(".repeat(n), ")".repeat(n)),
            "a ".repeat(n),
            format!("a{}", " | a".repeat(n)),
            format!("a{}", "*".repeat(n)),
        ] {
            let err = Regex::parse(&deep).unwrap_err();
            assert!(err.0.contains("nesting deeper than 128"), "{err}");
        }
        let groups = |k| format!("{}a{}", "(".repeat(k), ")".repeat(k));
        assert!(Regex::parse(&groups(MAX_NESTING)).is_ok());
        assert!(Regex::parse(&groups(MAX_NESTING + 1)).is_err());
        assert!(Regex::parse(&"a ".repeat(MAX_NESTING)).is_ok());
        assert!(Regex::parse(&"a ".repeat(MAX_NESTING + 1)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        for s in ["", "S |", "(S", "S)", "[]", "[^]", "S $ D"] {
            assert!(Regex::parse(s).is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn multi_char_device_names() {
        let re = Regex::parse("core-1 .* edge_5").unwrap();
        assert_eq!(re.referenced_devices(), vec!["core-1", "edge_5"]);
    }

    #[test]
    fn display_round_trips() {
        for s in ["S .* W .* D", "(A|B) C*", "[^X Y]* X", "[A B] ."] {
            let re = Regex::parse(s).unwrap();
            let re2 = Regex::parse(&re.to_string()).unwrap();
            assert_eq!(re, re2, "display of {s:?} did not round trip: {re}");
        }
    }

    #[test]
    fn symclass_matches() {
        assert!(SymClass::Any.matches("X"));
        assert!(SymClass::One("X".into()).matches("X"));
        assert!(!SymClass::One("X".into()).matches("Y"));
        assert!(SymClass::In(vec!["A".into(), "B".into()]).matches("B"));
        assert!(!SymClass::NotIn(vec!["A".into()]).matches("A"));
        assert!(SymClass::NotIn(vec!["A".into()]).matches("B"));
    }
}
