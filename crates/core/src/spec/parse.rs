//! Textual surface syntax for the invariant language.
//!
//! The syntax mirrors the paper's tuples:
//!
//! ```text
//! (dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))
//! (dstIP=10.0.1.0/24 && dstPort=80, [S], (exist >= 1, /S .* D/))
//! (*, [S], (equal, /S .* D/ (== shortest)))
//! (dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* D/ (<= shortest+1)),
//!  faults: any_two)
//! (dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* D/),
//!  faults: {(A,B)} {(B,W) (B,D)})
//! ```
//!
//! Path expressions are written between slashes; `loop_free` and
//! parenthesized length filters follow. Behaviors combine with `and`,
//! `or`, `not`; `subset` expands to the pair of §3.
//!
//! Like the path-expression parser, this one refuses input nesting
//! deeper than [`MAX_NESTING`]: parenthesized behaviors, `not` and `!`
//! chains, and the levels of an `and` / `or` / `&&` / `||` chain.

use super::{
    Behavior, FaultSpec, FilterOp, Invariant, LengthBound, LengthFilter, PacketSpace, PathExpr,
    SpecError,
};
use crate::count::CountExpr;
use tulkun_automata::ast::MAX_NESTING;

/// Parses one invariant.
pub fn parse_invariant(input: &str) -> Result<Invariant, SpecError> {
    let mut c = Cursor::new(input);
    let inv = parse_inv(&mut c)?;
    c.skip_ws();
    if !c.at_end() {
        return Err(c.err("trailing input"));
    }
    Ok(inv)
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    /// Recursion depth: open parenthesized behaviors, `not`s and `!`s.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// One level deeper into the recursion, refused past
    /// [`MAX_NESTING`]; [`Cursor::leave`] undoes it.
    fn enter(&mut self) -> Result<(), SpecError> {
        self.depth += 1;
        self.bounded(self.depth)?;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// A tree `depth` levels deep, or the error refusing it.
    fn bounded(&self, depth: usize) -> Result<usize, SpecError> {
        if depth > MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING}")));
        }
        Ok(depth)
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.rest().is_empty()
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.src.len() - trimmed.len();
    }

    fn err(&self, msg: &str) -> SpecError {
        let ctx: String = self.rest().chars().take(24).collect();
        SpecError(format!("{msg} at byte {} (near {ctx:?})", self.pos))
    }

    /// Consumes a literal token if present.
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    /// Consumes a keyword: literal followed by a non-identifier char.
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        if let Some(rest) = r.strip_prefix(kw) {
            let next = rest.chars().next();
            if next.is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expect(&mut self, tok: &str) -> Result<(), SpecError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {tok:?}")))
        }
    }

    /// Reads an identifier (device names, keywords).
    fn ident(&mut self) -> Result<&'a str, SpecError> {
        self.skip_ws();
        let r = self.rest();
        let end = r
            .char_indices()
            .find(|(_, c)| !c.is_ascii_alphanumeric() && *c != '_' && *c != '-')
            .map(|(i, _)| i)
            .unwrap_or(r.len());
        if end == 0 {
            return Err(self.err("expected an identifier"));
        }
        self.pos += end;
        Ok(&r[..end])
    }

    fn number(&mut self) -> Result<u32, SpecError> {
        self.skip_ws();
        let r = self.rest();
        let end = r.find(|c: char| !c.is_ascii_digit()).unwrap_or(r.len());
        if end == 0 {
            return Err(self.err("expected a number"));
        }
        self.pos += end;
        r[..end]
            .parse()
            .map_err(|_| self.err("number out of range"))
    }

    /// Peeks whether the next non-ws chars start with `tok`.
    fn peek(&mut self, tok: &str) -> bool {
        self.skip_ws();
        self.rest().starts_with(tok)
    }
}

fn parse_inv(c: &mut Cursor) -> Result<Invariant, SpecError> {
    c.expect("(")?;
    let packet_space = parse_packet_space(c)?;
    c.expect(",")?;
    let ingress = parse_ingress(c)?;
    c.expect(",")?;
    let (behavior, _) = parse_behavior(c)?;
    let fault_scenes = if c.eat(",") {
        c.expect("faults")?;
        c.expect(":")?;
        parse_faults(c)?
    } else {
        FaultSpec::None
    };
    c.expect(")")?;
    let mut b = Invariant::builder()
        .packet_space(packet_space)
        .ingress(ingress)
        .behavior(behavior);
    if fault_scenes != FaultSpec::None {
        b = b.fault_scenes(fault_scenes);
    }
    b.build()
}

fn parse_packet_space(c: &mut Cursor) -> Result<PacketSpace, SpecError> {
    if c.eat("*") {
        return Ok(PacketSpace::All);
    }
    let (mut acc, mut depth) = parse_ps_term(c)?;
    loop {
        let and = if c.eat("&&") {
            true
        } else if c.eat("||") {
            false
        } else {
            return Ok(acc);
        };
        let (rhs, d) = parse_ps_term(c)?;
        depth = c.bounded(1 + depth.max(d))?;
        acc = if and { acc.and(rhs) } else { acc.or(rhs) };
    }
}

/// One term of a packet space, with its depth.
fn parse_ps_term(c: &mut Cursor) -> Result<(PacketSpace, usize), SpecError> {
    if c.eat("!") {
        c.enter()?;
        let (term, d) = parse_ps_term(c)?;
        c.leave();
        return Ok((term.not(), c.bounded(d + 1)?));
    }
    parse_ps_atom(c).map(|ps| {
        let depth = if matches!(ps, PacketSpace::Not(_)) {
            2
        } else {
            1
        };
        (ps, depth)
    })
}

fn parse_ps_atom(c: &mut Cursor) -> Result<PacketSpace, SpecError> {
    if c.eat_kw("dstIP") {
        c.expect("=")?;
        c.skip_ws();
        let r = c.rest();
        let end = r
            .find(|ch: char| !ch.is_ascii_digit() && ch != '.' && ch != '/')
            .unwrap_or(r.len());
        let text = &r[..end];
        c.pos += end;
        return PacketSpace::try_dst_prefix(text);
    }
    if c.eat_kw("dstPort") {
        let negate = if c.eat("!=") {
            true
        } else {
            c.expect("=")?;
            false
        };
        let n = c.number()?;
        if n > u16::MAX as u32 {
            return Err(c.err("port out of range"));
        }
        let ps = PacketSpace::dst_port(n as u16);
        return Ok(if negate { ps.not() } else { ps });
    }
    if c.eat_kw("proto") {
        c.expect("=")?;
        let n = c.number()?;
        if n > u8::MAX as u32 {
            return Err(c.err("proto out of range"));
        }
        return Ok(PacketSpace::Proto(n as u8));
    }
    Err(c.err("expected dstIP=, dstPort=, proto= or '*'"))
}

fn parse_ingress(c: &mut Cursor) -> Result<Vec<String>, SpecError> {
    c.expect("[")?;
    let mut out = Vec::new();
    loop {
        out.push(c.ident()?.to_string());
        if !c.eat(",") {
            break;
        }
    }
    c.expect("]")?;
    Ok(out)
}

/// A behavior with its depth (as every behavior rule returns it).
fn parse_behavior(c: &mut Cursor) -> Result<(Behavior, usize), SpecError> {
    let (mut acc, mut depth) = parse_behavior_and(c)?;
    while c.eat_kw("or") {
        let (rhs, d) = parse_behavior_and(c)?;
        depth = c.bounded(1 + depth.max(d))?;
        acc = acc.or(rhs);
    }
    Ok((acc, depth))
}

fn parse_behavior_and(c: &mut Cursor) -> Result<(Behavior, usize), SpecError> {
    let (mut acc, mut depth) = parse_behavior_not(c)?;
    while c.eat_kw("and") {
        let (rhs, d) = parse_behavior_not(c)?;
        depth = c.bounded(1 + depth.max(d))?;
        acc = acc.and(rhs);
    }
    Ok((acc, depth))
}

fn parse_behavior_not(c: &mut Cursor) -> Result<(Behavior, usize), SpecError> {
    if c.eat_kw("not") {
        c.enter()?;
        let (b, d) = parse_behavior_not(c)?;
        c.leave();
        return Ok((b.not(), c.bounded(d + 1)?));
    }
    c.expect("(")?;
    let b = if c.eat_kw("exist") {
        let op = parse_cmp(c)?;
        let n = c.number()?;
        c.expect(",")?;
        let path = parse_pathspec(c)?;
        Behavior::exist(mk_count(op, n), path)
    } else if c.eat_kw("equal") {
        c.expect(",")?;
        Behavior::equal(parse_pathspec(c)?)
    } else if c.eat_kw("covered") {
        c.expect(",")?;
        Behavior::covered(parse_pathspec(c)?)
    } else if c.eat_kw("subset") {
        c.expect(",")?;
        Behavior::subset(parse_pathspec(c)?)
    } else {
        // Nested behavior in parentheses.
        c.enter()?;
        let inner = parse_behavior(c)?;
        c.expect(")")?;
        c.leave();
        return Ok(inner);
    };
    c.expect(")")?;
    // `subset` is the pair under one `and`.
    let depth = if matches!(b, Behavior::And(..)) { 2 } else { 1 };
    Ok((b, depth))
}

#[derive(Clone, Copy)]
enum Cmp {
    Eq,
    Ge,
    Gt,
    Le,
    Lt,
}

fn parse_cmp(c: &mut Cursor) -> Result<Cmp, SpecError> {
    if c.eat(">=") {
        Ok(Cmp::Ge)
    } else if c.eat("<=") {
        Ok(Cmp::Le)
    } else if c.eat("==") {
        Ok(Cmp::Eq)
    } else if c.eat(">") {
        Ok(Cmp::Gt)
    } else if c.eat("<") {
        Ok(Cmp::Lt)
    } else {
        Err(c.err("expected a comparison operator"))
    }
}

fn mk_count(op: Cmp, n: u32) -> CountExpr {
    match op {
        Cmp::Eq => CountExpr::Eq(n),
        Cmp::Ge => CountExpr::Ge(n),
        Cmp::Gt => CountExpr::Gt(n),
        Cmp::Le => CountExpr::Le(n),
        Cmp::Lt => CountExpr::Lt(n),
    }
}

fn parse_pathspec(c: &mut Cursor) -> Result<PathExpr, SpecError> {
    c.skip_ws();
    c.expect("/")?;
    let r = c.rest();
    let end = r.find('/').ok_or_else(|| c.err("unterminated /regex/"))?;
    let regex_src = &r[..end];
    c.pos += end + 1;
    let mut path = PathExpr::parse(regex_src)?;
    loop {
        if c.eat_kw("loop_free") {
            path = path.loop_free();
        } else if c.peek("(") && is_filter_start(c) {
            c.expect("(")?;
            let op = parse_cmp(c)?;
            let op = match op {
                Cmp::Eq => FilterOp::Eq,
                Cmp::Ge => FilterOp::Ge,
                Cmp::Gt => FilterOp::Gt,
                Cmp::Le => FilterOp::Le,
                Cmp::Lt => FilterOp::Lt,
            };
            let bound = if c.eat_kw("shortest") {
                let k = if c.eat("+") {
                    c.number()? as i32
                } else if c.eat("-") {
                    -(c.number()? as i32)
                } else {
                    0
                };
                LengthBound::ShortestPlus(k)
            } else {
                LengthBound::Hops(c.number()?)
            };
            c.expect(")")?;
            path.filters.push(LengthFilter { op, bound });
        } else {
            return Ok(path);
        }
    }
}

/// A '(' begins a length filter (as opposed to closing the enclosing
/// behavior) iff the next char after it is a comparison operator.
fn is_filter_start(c: &mut Cursor) -> bool {
    let save = c.pos;
    let ok =
        c.eat("(") && (c.peek(">=") || c.peek("<=") || c.peek("==") || c.peek(">") || c.peek("<"));
    c.pos = save;
    ok
}

fn parse_faults(c: &mut Cursor) -> Result<FaultSpec, SpecError> {
    if c.eat_kw("any_one") {
        return Ok(FaultSpec::AnyK(1));
    }
    if c.eat_kw("any_two") {
        return Ok(FaultSpec::AnyK(2));
    }
    if c.eat_kw("any_three") {
        return Ok(FaultSpec::AnyK(3));
    }
    if c.eat_kw("any") {
        let k = c.number()?;
        return Ok(FaultSpec::AnyK(k));
    }
    // Explicit scenes: {(A,B) (C,D)} {(E,F)} ...
    let mut scenes = Vec::new();
    while c.eat("{") {
        let mut scene = Vec::new();
        while c.eat("(") {
            let a = c.ident()?.to_string();
            c.expect(",")?;
            let b = c.ident()?.to_string();
            c.expect(")")?;
            scene.push((a, b));
        }
        c.expect("}")?;
        if scene.is_empty() {
            return Err(c.err("empty fault scene"));
        }
        scenes.push(scene);
    }
    if scenes.is_empty() {
        return Err(c.err("expected fault scenes or any_K"));
    }
    Ok(FaultSpec::Scenes(scenes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2b_invariant() {
        // The paper's Figure 2b example.
        let inv =
            parse_invariant("(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))")
                .unwrap();
        assert_eq!(inv.ingress, vec!["S"]);
        let paths = inv.behavior.path_exprs();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].loop_free);
        assert_eq!(paths[0].source.trim(), "S .* W .* D");
    }

    #[test]
    fn parses_port_constrained_space() {
        let inv = parse_invariant("(dstIP=10.0.1.0/24 && dstPort=80, [S], (exist >= 1, /S .* D/))")
            .unwrap();
        match &inv.packet_space {
            PacketSpace::And(..) => {}
            other => panic!("unexpected space {other:?}"),
        }
    }

    #[test]
    fn parses_negated_port() {
        let inv =
            parse_invariant("(dstIP=10.0.1.0/24 && dstPort!=80, [S], (exist >= 1, /S .* D/))")
                .unwrap();
        let PacketSpace::And(_, rhs) = &inv.packet_space else {
            panic!()
        };
        assert!(matches!(**rhs, PacketSpace::Not(_)));
    }

    #[test]
    fn parses_equal_with_symbolic_filter() {
        let inv = parse_invariant("(*, [S], (equal, /S .* D/ (== shortest)))").unwrap();
        assert!(inv.behavior.has_equal());
        let p = inv.behavior.path_exprs()[0];
        assert!(p.has_symbolic_filter());
    }

    #[test]
    fn parses_compound_behaviors() {
        let inv = parse_invariant(
            "(*, [S], ((exist >= 1, /S .* D/) and (exist == 0, /S .* E/)) \
             or ((exist == 0, /S .* D/) and (exist == 1, /S .* E/)))",
        )
        .unwrap();
        assert!(matches!(inv.behavior, Behavior::Or(..)));
        assert_eq!(inv.behavior.path_exprs().len(), 2);
    }

    #[test]
    fn parses_faults() {
        let inv =
            parse_invariant("(*, [S], (exist >= 1, /S .* D/ (<= shortest+1)), faults: any_two)")
                .unwrap();
        assert_eq!(inv.fault_scenes, FaultSpec::AnyK(2));

        let inv =
            parse_invariant("(*, [S], (exist >= 1, /S .* D/), faults: {(A,B)} {(B,W) (B,D)})")
                .unwrap();
        let FaultSpec::Scenes(s) = &inv.fault_scenes else {
            panic!()
        };
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].len(), 2);
    }

    #[test]
    fn parses_subset_sugar() {
        let inv = parse_invariant("(*, [S], (subset, /S .* D/ loop_free))").unwrap();
        // subset expands to exist>=1 AND covered.
        let Behavior::And(a, b) = &inv.behavior else {
            panic!()
        };
        assert!(matches!(**a, Behavior::Exist { .. }));
        assert!(matches!(**b, Behavior::Covered { .. }));
    }

    #[test]
    fn parses_not() {
        let inv = parse_invariant("(*, [S], not (exist >= 1, /S .* D/))").unwrap();
        assert!(matches!(inv.behavior, Behavior::Not(_)));
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse_invariant("(*, [S] (exist >= 1, /S .* D/))").unwrap_err();
        assert!(err.0.contains("expected"), "{err}");
        assert!(parse_invariant("").is_err());
        assert!(parse_invariant("(*, [], (exist >= 1, /S/))").is_err());
        assert!(parse_invariant("(*, [S], (exist >= 1, /S .* D))").is_err()); // unterminated regex
    }

    #[test]
    fn display_round_trips_through_parse() {
        for text in [
            "(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))",
            "(dstIP=10.0.1.0/24 && dstPort=80, [S], (exist >= 1, /S .* D/))",
            "(dstIP=10.0.1.0/24 && dstPort!=80, [S, B], (exist == 0, /S .* D/ (<= 4)))",
            "(*, [S], (equal, /S .* D/ (== shortest)))",
            "(*, [S], ((exist >= 1, /S .* D/) and (covered, /S .* D/ loop_free)))",
            "(*, [S], (exist >= 1, /S .* D/ (<= shortest+1)), faults: any 2)",
            "(*, [S], not (exist >= 1, /S .* D/ loop_free))",
        ] {
            let inv = parse_invariant(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let printed = inv.to_string();
            let back = parse_invariant(&printed)
                .unwrap_or_else(|e| panic!("printed form {printed:?}: {e}"));
            assert_eq!(inv.packet_space, back.packet_space, "{printed}");
            assert_eq!(inv.behavior, back.behavior, "{printed}");
            assert_eq!(inv.ingress, back.ingress, "{printed}");
            assert_eq!(inv.fault_scenes, back.fault_scenes, "{printed}");
        }
    }

    #[test]
    fn nesting_is_refused_before_it_overflows_the_stack() {
        let n = 200_000;
        let leaf = "(exist >= 1, /S .* D/)";
        let around = |b: String| format!("(*, [S], {b})");
        for bomb in [
            around(format!("{}{leaf}", "not ".repeat(n))),
            around(format!("{}{leaf}{}", "(".repeat(n), ")".repeat(n))),
            around(format!("{leaf}{}", format!(" and {leaf}").repeat(n))),
            around(format!("{leaf}{}", format!(" or {leaf}").repeat(n))),
            format!("({}dstPort=80, [S], {leaf})", "!".repeat(n)),
            format!("(dstPort=80{}, [S], {leaf})", " && dstPort=80".repeat(n)),
            around(format!(
                "(exist >= 1, /{}S{}/)",
                "(".repeat(n),
                ")".repeat(n)
            )),
        ] {
            let err = parse_invariant(&bomb).unwrap_err();
            assert!(err.0.contains("nesting deeper than 128"), "{err}");
        }
        let nots = |k| around(format!("{}{leaf}", "not ".repeat(k)));
        assert!(parse_invariant(&nots(MAX_NESTING - 1)).is_ok());
        assert!(parse_invariant(&nots(MAX_NESTING + 1)).is_err());
    }

    /// Spec lines in every shape the grammar has, for the hostile-line
    /// property below.
    const LINES: [&str; 9] = [
        "(dstIP=10.0.0.0/23, [S], (exist >= 1, /S .* W .* D/ loop_free))",
        "(dstIP=10.0.1.0/24 && dstPort!=80, [S, B], (exist == 0, /S .* D/ (<= 4)))",
        "(!proto=6 || dstPort=80, [S], (subset, /S [^A B]* D/ (<= shortest+1)))",
        "(*, [S], (equal, /S .* D/ (== shortest)))",
        "(*, [S], not ((exist >= 1, /S .* D/) and (covered, /(S|A)+ D?/ loop_free)))",
        "(*, [S], (exist >= 1, /S .* D/ (<= shortest+1)), faults: any 2)",
        "(*, [S], (exist < 2, /S .* D/), faults: {(A,B)} {(B,W) (B,D)})",
        "(*, [S], (exist > 0, /S .* D/) or (covered, /S .* D/))",
        "(*, [S], (exist <= 1, /S . . D | S . D/ (>= 2) (< 5)))",
    ];

    /// Damages one line: a token deleted, duplicated or replaced by
    /// garbage, or the line cut short.
    fn damage(line: &str, kind: usize, pos: usize, garbage: &str) -> String {
        let mut tokens: Vec<&str> = line.split(' ').collect();
        let i = pos % tokens.len();
        match kind {
            0 => drop(tokens.remove(i)),
            1 => tokens.insert(i, tokens[i]),
            2 => tokens[i] = garbage,
            _ => return line[..pos % line.len()].to_string(),
        }
        tokens.join(" ")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Whatever a spec line holds — printable noise, or a
        /// well-formed line damaged — both parsers answer (a spec or an
        /// error) instead of panicking, and a spec they accept prints
        /// back to text that parses to it again.
        #[test]
        fn hostile_lines_get_an_answer_from_both_parsers(
            (class, template, kind, pos) in (0usize..5, 0usize..9, 0usize..4, 0usize..512),
            garbage in proptest::collection::vec(0x21u8..0x7f, 0..12),
            noise in proptest::collection::vec(0x20u8..0x7f, 0..=512),
        ) {
            let line = if class == 0 {
                String::from_utf8(noise).expect("ascii")
            } else {
                let garbage = std::str::from_utf8(&garbage).expect("ascii");
                damage(LINES[template], kind, pos, garbage)
            };
            if let Ok(inv) = parse_invariant(&line) {
                let printed = inv.to_string();
                let back = parse_invariant(&printed);
                proptest::prop_assert!(back.as_ref().is_ok_and(|b| *b == inv), "{line:?} -> {printed:?}");
            }
            let path = line.split('/').nth(1).unwrap_or(&line);
            let _ = tulkun_automata::Regex::parse(path);
        }
    }

    #[test]
    fn concrete_length_filter() {
        let inv = parse_invariant("(*, [S], (exist >= 1, /S .* D/ (<= 4)))").unwrap();
        assert_eq!(inv.behavior.path_exprs()[0].concrete_hop_bound(), Some(4));
    }
}
