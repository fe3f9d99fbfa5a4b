//! Recursive-descent parser for HyQL.
//!
//! Grammar (EBNF, informal):
//!
//! ```text
//! query      := [EXPLAIN] MATCH path (',' path)* [WHERE expr] [VALID AT int]
//!               [AS OF (int | NOW '(' ')') | BETWEEN int AND int]
//!               RETURN [DISTINCT] item (',' item)* [HAVING expr]
//!               [ORDER BY order (',' order)*] [LIMIT int]
//! path       := node (edge node)*
//! node       := '(' [ident] (':' ident)* ')'
//! edge       := '-' '[' [ident] (':' ident)* ['*' int '..' int] ']' ('->' | '-')
//!             | '<-' '[' [ident] (':' ident)* ['*' int '..' int] ']' '-'
//! expr       := or
//! or         := and (OR and)*
//! and        := not (AND not)*
//! not        := NOT not | cmp
//! cmp        := add [cmp_op add]
//! add        := mul (('+'|'-') mul)*
//! mul        := atom (('*'|'/') atom)*
//! atom       := literal | agg | ident ['.' ident] | '(' expr ')'
//! agg        := FUNC '(' series IN '[' int ',' int ')' ')'   (series agg)
//!             | FUNC '(' '*' ')'                              (COUNT(*))
//!             | FUNC '(' [DISTINCT] expr ')'                  (row agg)
//! series     := DELTA '(' ident ')' | ident '.' ident
//! ```
//!
//! Expressions are capped at [`MAX_EXPR_DEPTH`] levels; a deeper one is
//! a positioned parse error.

use crate::ast::*;
use crate::lexer::{tokenize, Keyword, Token, TokenKind};
use hygraph_types::{HyGraphError, Result, Timestamp, Value};

/// Deepest expression the parser accepts, counted alike over open
/// parentheses / aggregate arguments, `NOT`s, and the levels of the
/// tree itself (a left-deep `a + 1 + 1 …` chain adds one per operator).
/// The parser recurses once per open parenthesis, and everything after
/// it (`optimize`, `EvalCtx::eval`, the derived `Drop`) once per tree
/// level, so without a cap a 2 KB query overflows a worker's stack —
/// an abort that takes every session down, not a panic. Not a knob:
/// far past any hand-written predicate, and sized by measurement — a
/// parenthesis level costs the parser ~12 KiB of stack in a debug build
/// (~3 KiB in release), so the deepest accepted expression parses,
/// plans, evaluates and drops in under 1.2 MiB of a 2 MiB thread even
/// unoptimised (`tests::deepest_accepted_expressions_run_on_a_small_stack`).
pub const MAX_EXPR_DEPTH: usize = 96;

/// An expression and the height of its tree.
type Measured = (Expr, usize);

/// Parses a HyQL query.
pub fn parse(src: &str) -> Result<Query> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        anon: 0,
        nesting: 0,
    };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    anon: usize,
    /// Open `expr()` calls: parentheses and aggregate arguments.
    nesting: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if *self.peek() == TokenKind::Keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error(&self, msg: impl Into<String>) -> HyGraphError {
        HyGraphError::Parse {
            offset: self.offset(),
            message: msg.into(),
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if *self.peek() == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(HyGraphError::Parse {
                offset: self.tokens[self.pos.saturating_sub(1)].offset,
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn int(&mut self, what: &str) -> Result<i64> {
        match self.bump() {
            TokenKind::Int(i) => Ok(i),
            other => Err(HyGraphError::Parse {
                offset: self.tokens[self.pos.saturating_sub(1)].offset,
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn fresh_var(&mut self, prefix: &str) -> String {
        self.anon += 1;
        format!("_{prefix}{}", self.anon)
    }

    // ---- clauses -----------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let explain = self.eat_kw(Keyword::Explain);
        if !self.eat_kw(Keyword::Match) {
            return Err(self.error("query must start with MATCH"));
        }
        let mut patterns = vec![self.path()?];
        while self.eat(&TokenKind::Comma) {
            patterns.push(self.path()?);
        }
        let filter = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?.0)
        } else {
            None
        };
        let valid_at = if self.eat_kw(Keyword::ValidAt) {
            Some(Timestamp::from_millis(
                self.int("timestamp after VALID AT")?,
            ))
        } else {
            None
        };
        let temporal = if self.eat_kw(Keyword::AsOf) {
            match self.peek().clone() {
                TokenKind::Int(t) => {
                    self.bump();
                    Some(TemporalBound::AsOf(Timestamp::from_millis(t)))
                }
                TokenKind::Ident(id) if id.eq_ignore_ascii_case("now") => {
                    self.bump();
                    self.expect(&TokenKind::LParen, "'(' in NOW()")?;
                    self.expect(&TokenKind::RParen, "')' in NOW()")?;
                    Some(TemporalBound::AsOfNow)
                }
                _ => return Err(self.error("expected a timestamp or NOW() after AS OF")),
            }
        } else if self.eat_kw(Keyword::Between) {
            let t1 = self.int("timestamp after BETWEEN")?;
            if !self.eat_kw(Keyword::And) {
                return Err(self.error("expected AND between BETWEEN bounds"));
            }
            let t2 = self.int("timestamp closing BETWEEN .. AND ..")?;
            if t2 < t1 {
                return Err(self.error("BETWEEN bounds must satisfy t1 <= t2"));
            }
            Some(TemporalBound::Between(
                Timestamp::from_millis(t1),
                Timestamp::from_millis(t2),
            ))
        } else {
            None
        };
        if !self.eat_kw(Keyword::Return) {
            return Err(self.error("expected RETURN clause"));
        }
        let distinct = self.eat_kw(Keyword::Distinct);
        let mut returns = vec![self.return_item()?];
        while self.eat(&TokenKind::Comma) {
            returns.push(self.return_item()?);
        }
        let having = if self.eat_kw(Keyword::Having) {
            Some(self.expr()?.0)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::OrderBy) {
            loop {
                let column = self.ident("column name in ORDER BY")?;
                let descending = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                order_by.push(OrderItem { column, descending });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(Keyword::Limit) {
            let n = self.int("count after LIMIT")?;
            if n < 0 {
                return Err(self.error("LIMIT must be non-negative"));
            }
            Some(n as usize)
        } else {
            None
        };
        Ok(Query {
            patterns,
            filter,
            valid_at,
            temporal,
            returns,
            distinct,
            order_by,
            limit,
            having,
            explain,
        })
    }

    fn path(&mut self) -> Result<PathPattern> {
        let start = self.node()?;
        let mut hops = Vec::new();
        while let TokenKind::Dash | TokenKind::ArrowLeft = self.peek() {
            let edge = self.edge()?;
            let node = self.node()?;
            hops.push((edge, node));
        }
        Ok(PathPattern { start, hops })
    }

    fn node(&mut self) -> Result<NodePattern> {
        self.expect(&TokenKind::LParen, "'(' starting a node pattern")?;
        let var = match self.peek() {
            TokenKind::Ident(_) => self.ident("node variable")?,
            _ => self.fresh_var("v"),
        };
        let mut labels = Vec::new();
        while self.eat(&TokenKind::Colon) {
            labels.push(self.ident("label after ':'")?);
        }
        let mut props = Vec::new();
        if self.eat(&TokenKind::LBrace) {
            loop {
                let key = self.ident("property key in node map")?;
                self.expect(&TokenKind::Colon, "':' after property key")?;
                let value = self.literal("literal value in node map")?;
                props.push((key, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RBrace, "'}' closing the property map")?;
        }
        self.expect(&TokenKind::RParen, "')' closing the node pattern")?;
        Ok(NodePattern { var, labels, props })
    }

    fn literal(&mut self, what: &str) -> Result<hygraph_types::Value> {
        use hygraph_types::Value;
        match self.bump() {
            TokenKind::Int(i) => Ok(Value::Int(i)),
            TokenKind::Float(f) => Ok(Value::Float(f)),
            TokenKind::Str(s) => Ok(Value::Str(s)),
            TokenKind::Keyword(Keyword::True) => Ok(Value::Bool(true)),
            TokenKind::Keyword(Keyword::False) => Ok(Value::Bool(false)),
            TokenKind::Keyword(Keyword::Null) => Ok(Value::Null),
            other => Err(HyGraphError::Parse {
                offset: self.tokens[self.pos.saturating_sub(1)].offset,
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn edge(&mut self) -> Result<EdgePattern> {
        // '<-[' .. ']-'   or   '-[' .. ']->'   or   '-[' .. ']-'
        let leading_left = self.eat(&TokenKind::ArrowLeft);
        if !leading_left {
            self.expect(&TokenKind::Dash, "'-' starting an edge pattern")?;
        }
        self.expect(&TokenKind::LBracket, "'[' in edge pattern")?;
        let var = match self.peek() {
            TokenKind::Ident(_) => self.ident("edge variable")?,
            _ => self.fresh_var("e"),
        };
        let mut labels = Vec::new();
        while self.eat(&TokenKind::Colon) {
            labels.push(self.ident("label after ':'")?);
        }
        let hops = if self.eat(&TokenKind::Star) {
            if !var.starts_with('_') {
                return Err(self.error(
                    "variable-length edges cannot bind a variable (remove the edge variable)",
                ));
            }
            let lo = self.int("minimum hop count after '*'")?;
            self.expect(&TokenKind::Dot, "'..' in hop range")?;
            self.expect(&TokenKind::Dot, "'..' in hop range")?;
            let hi = self.int("maximum hop count")?;
            if lo < 1 || hi < lo {
                return Err(self.error("hop range must satisfy 1 <= min <= max"));
            }
            if hi > 8 {
                return Err(self.error("hop range maximum is capped at 8"));
            }
            (lo as usize, hi as usize)
        } else {
            (1, 1)
        };
        self.expect(&TokenKind::RBracket, "']' in edge pattern")?;
        let dir = if leading_left {
            self.expect(&TokenKind::Dash, "'-' ending '<-[..]-'")?;
            EdgeDir::Left
        } else if self.eat(&TokenKind::ArrowRight) {
            EdgeDir::Right
        } else {
            self.expect(&TokenKind::Dash, "'-' or '->' ending the edge pattern")?;
            EdgeDir::Undirected
        };
        Ok(EdgePattern {
            var,
            labels,
            dir,
            hops,
        })
    }

    fn return_item(&mut self) -> Result<ReturnItem> {
        let (expr, _) = self.expr()?;
        let alias = if self.eat_kw(Keyword::As) {
            self.ident("alias after AS")?
        } else {
            default_alias(&expr)
        };
        Ok(ReturnItem { expr, alias })
    }

    // ---- expressions ----------------------------------------------------

    /// One level on top of `below` levels, or the positioned error once
    /// that would pass [`MAX_EXPR_DEPTH`] — the one check every way of
    /// nesting goes through.
    fn level(&self, below: usize) -> Result<usize> {
        if below >= MAX_EXPR_DEPTH {
            return Err(self.error(format!(
                "expression nests deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(below + 1)
    }

    fn binary(&self, op: BinOp, (lhs, lh): Measured, (rhs, rh): Measured) -> Result<Measured> {
        let height = self.level(lh.max(rh))?;
        let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
        Ok((Expr::Binary { op, lhs, rhs }, height))
    }

    /// Every `(` and aggregate argument re-enters here, so this bounds
    /// the descent itself, before there is a tree to measure.
    fn expr(&mut self) -> Result<Measured> {
        self.nesting = self.level(self.nesting)?;
        let e = self.or_expr();
        self.nesting -= 1;
        e
    }

    fn or_expr(&mut self) -> Result<Measured> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw(Keyword::Or) {
            let rhs = self.and_expr()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Measured> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw(Keyword::And) {
            let rhs = self.not_expr()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Measured> {
        // a loop, not a self-call: `NOT NOT …` must not recurse
        let mut nots = 0;
        while self.eat_kw(Keyword::Not) {
            nots = self.level(nots)?;
        }
        let (mut e, mut height) = self.cmp_expr()?;
        for _ in 0..nots {
            height = self.level(height)?;
            e = Expr::Not(Box::new(e));
        }
        Ok((e, height))
    }

    fn cmp_expr(&mut self) -> Result<Measured> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        self.binary(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> Result<Measured> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Dash => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Measured> {
        let mut lhs = self.atom()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.atom()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Measured> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.bump();
                Ok((Expr::Literal(Value::Int(i)), 1))
            }
            TokenKind::Float(f) => {
                self.bump();
                Ok((Expr::Literal(Value::Float(f)), 1))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok((Expr::Literal(Value::Str(s)), 1))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok((Expr::Literal(Value::Bool(true)), 1))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok((Expr::Literal(Value::Bool(false)), 1))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.bump();
                Ok((Expr::Literal(Value::Null), 1))
            }
            TokenKind::Keyword(kw)
                if matches!(
                    kw,
                    Keyword::Mean | Keyword::Sum | Keyword::Min | Keyword::Max | Keyword::Count
                ) =>
            {
                self.bump();
                // series aggregate and row aggregate share the function
                // names; try the series form first, then backtrack
                let mark = self.pos;
                match self.agg(kw) {
                    Ok(e) => Ok((e, 1)),
                    Err(_) => {
                        self.pos = mark;
                        self.row_agg(kw)
                    }
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "')' closing the expression")?;
                Ok(e)
            }
            TokenKind::Ident(_) => {
                let var = self.ident("identifier")?;
                if self.eat(&TokenKind::Dot) {
                    let key = self.ident("property key after '.'")?;
                    Ok((Expr::Prop { var, key }, 1))
                } else {
                    Ok((Expr::Var(var), 1))
                }
            }
            other => Err(self.error(format!("unexpected token {other:?} in expression"))),
        }
    }

    /// `FUNC '(' series IN '[' int ',' int ')' ')'`
    fn agg(&mut self, kw: Keyword) -> Result<Expr> {
        let func = match kw {
            Keyword::Mean => AggFunc::Mean,
            Keyword::Sum => AggFunc::Sum,
            Keyword::Min => AggFunc::Min,
            Keyword::Max => AggFunc::Max,
            Keyword::Count => AggFunc::Count,
            _ => unreachable!("caller checked"),
        };
        self.expect(&TokenKind::LParen, "'(' after aggregate function")?;
        let series = if self.eat_kw(Keyword::Delta) {
            self.expect(&TokenKind::LParen, "'(' after DELTA")?;
            let var = self.ident("variable inside DELTA(..)")?;
            self.expect(&TokenKind::RParen, "')' closing DELTA(..)")?;
            SeriesRef::Delta(var)
        } else {
            let var = self.ident("series reference")?;
            self.expect(&TokenKind::Dot, "'.' in series property reference")?;
            let key = self.ident("property key")?;
            SeriesRef::Property { var, key }
        };
        if !self.eat_kw(Keyword::In) {
            return Err(self.error("expected IN before the aggregate range"));
        }
        self.expect(&TokenKind::LBracket, "'[' starting the range")?;
        let from = self.int("range start")?;
        self.expect(&TokenKind::Comma, "',' between range bounds")?;
        let to = self.int("range end")?;
        self.expect(&TokenKind::RParen, "')' closing the half-open range")?;
        self.expect(&TokenKind::RParen, "')' closing the aggregate")?;
        Ok(Expr::Agg {
            func,
            series,
            from,
            to,
        })
    }

    /// `FUNC '(' ('*' | [DISTINCT] expr) ')'` — Cypher-style row
    /// aggregate with implicit grouping.
    fn row_agg(&mut self, kw: Keyword) -> Result<Measured> {
        let func = match kw {
            Keyword::Mean => RowAggFunc::Avg,
            Keyword::Sum => RowAggFunc::Sum,
            Keyword::Min => RowAggFunc::Min,
            Keyword::Max => RowAggFunc::Max,
            Keyword::Count => RowAggFunc::Count,
            _ => unreachable!("caller checked"),
        };
        self.expect(&TokenKind::LParen, "'(' after aggregate function")?;
        if self.eat(&TokenKind::Star) {
            if func != RowAggFunc::Count {
                return Err(self.error("'*' is only valid in COUNT(*)"));
            }
            self.expect(&TokenKind::RParen, "')' closing COUNT(*)")?;
            let count_star = Expr::RowAgg {
                func,
                arg: None,
                distinct: false,
            };
            return Ok((count_star, 1));
        }
        let distinct = self.eat_kw(Keyword::Distinct);
        let (arg, below) = self.expr()?;
        self.expect(&TokenKind::RParen, "')' closing the aggregate")?;
        let height = self.level(below)?;
        let arg = Some(Box::new(arg));
        Ok((
            Expr::RowAgg {
                func,
                arg,
                distinct,
            },
            height,
        ))
    }
}

fn default_alias(expr: &Expr) -> String {
    match expr {
        Expr::Var(v) => v.clone(),
        Expr::Prop { var, key } => format!("{var}.{key}"),
        Expr::Agg { func, .. } => format!("{func:?}").to_ascii_lowercase(),
        _ => "expr".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse("MATCH (u:User) RETURN u").unwrap();
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.patterns[0].start.var, "u");
        assert_eq!(q.patterns[0].start.labels, vec!["User"]);
        assert!(q.filter.is_none());
        assert_eq!(q.returns[0].alias, "u");
    }

    #[test]
    fn path_with_hops_and_directions() {
        let q = parse("MATCH (u:User)-[t:TX]->(m:Merchant)<-[s:TX]-(v) RETURN u").unwrap();
        let p = &q.patterns[0];
        assert_eq!(p.hops.len(), 2);
        assert_eq!(p.hops[0].0.dir, EdgeDir::Right);
        assert_eq!(p.hops[0].0.var, "t");
        assert_eq!(p.hops[1].0.dir, EdgeDir::Left);
        assert_eq!(p.hops[1].1.var, "v");
    }

    #[test]
    fn undirected_edge() {
        let q = parse("MATCH (a)-[e:SIMILAR]-(b) RETURN a").unwrap();
        assert_eq!(q.patterns[0].hops[0].0.dir, EdgeDir::Undirected);
    }

    #[test]
    fn anonymous_nodes_and_edges_get_fresh_vars() {
        let q = parse("MATCH ()-[:USES]->() RETURN 1").unwrap();
        let p = &q.patterns[0];
        assert!(p.start.var.starts_with("_v"));
        assert!(p.hops[0].0.var.starts_with("_e"));
        assert_ne!(p.start.var, p.hops[0].1.var);
    }

    #[test]
    fn where_precedence() {
        let q = parse("MATCH (a) WHERE a.x > 1 AND a.y < 2 OR NOT a.z = 3 RETURN a").unwrap();
        // ((x>1 AND y<2) OR (NOT z=3))
        let Some(Expr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        }) = q.filter
        else {
            panic!("expected OR at the top");
        };
        assert!(matches!(*lhs, Expr::Binary { op: BinOp::And, .. }));
        assert!(matches!(*rhs, Expr::Not(_)));
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse("MATCH (a) WHERE a.x + 2 * 3 = 7 RETURN a").unwrap();
        let Some(Expr::Binary {
            op: BinOp::Eq, lhs, ..
        }) = q.filter
        else {
            panic!("expected =");
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = *lhs
        else {
            panic!("expected + under =");
        };
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn aggregate_expression() {
        let q = parse("MATCH (c:Card) WHERE MEAN(DELTA(c) IN [0, 1000)) > 50.5 RETURN c").unwrap();
        let Some(Expr::Binary { lhs, .. }) = q.filter else {
            panic!()
        };
        assert_eq!(
            *lhs,
            Expr::Agg {
                func: AggFunc::Mean,
                series: SeriesRef::Delta("c".into()),
                from: 0,
                to: 1000
            }
        );
    }

    #[test]
    fn aggregate_over_series_property() {
        let q = parse("MATCH (s:Station) RETURN MAX(s.availability IN [0, 500)) AS peak").unwrap();
        assert_eq!(q.returns[0].alias, "peak");
        assert!(matches!(
            q.returns[0].expr,
            Expr::Agg {
                func: AggFunc::Max,
                series: SeriesRef::Property { .. },
                ..
            }
        ));
    }

    #[test]
    fn valid_at_order_limit_distinct() {
        let q =
            parse("MATCH (a:N) VALID AT 500 RETURN DISTINCT a.name AS n ORDER BY n DESC LIMIT 3")
                .unwrap();
        assert_eq!(q.valid_at, Some(Timestamp::from_millis(500)));
        assert!(q.distinct);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].descending);
        assert_eq!(q.limit, Some(3));
    }

    #[test]
    fn temporal_clauses() {
        let q = parse("MATCH (a:N) AS OF 1234 RETURN a").unwrap();
        assert_eq!(
            q.temporal,
            Some(TemporalBound::AsOf(Timestamp::from_millis(1234)))
        );
        let q = parse("MATCH (a:N) AS OF NOW() RETURN a").unwrap();
        assert_eq!(q.temporal, Some(TemporalBound::AsOfNow));
        let q = parse("MATCH (a:N) as of now() RETURN a").unwrap();
        assert_eq!(q.temporal, Some(TemporalBound::AsOfNow));
        let q = parse("MATCH (a:N) BETWEEN 10 AND 20 RETURN a").unwrap();
        assert_eq!(
            q.temporal,
            Some(TemporalBound::Between(
                Timestamp::from_millis(10),
                Timestamp::from_millis(20)
            ))
        );
        // VALID AT and AS OF coexist (element validity vs store history)
        let q = parse("MATCH (a:N) VALID AT 5 AS OF 99 RETURN a").unwrap();
        assert_eq!(q.valid_at, Some(Timestamp::from_millis(5)));
        assert_eq!(
            q.temporal,
            Some(TemporalBound::AsOf(Timestamp::from_millis(99)))
        );
        assert!(parse("MATCH (a) RETURN a").unwrap().temporal.is_none());
        // malformed bounds
        assert!(parse("MATCH (a) AS OF RETURN a").is_err());
        assert!(parse("MATCH (a) AS OF NOW RETURN a").is_err());
        assert!(parse("MATCH (a) BETWEEN 5 RETURN a").is_err());
        assert!(parse("MATCH (a) BETWEEN 20 AND 10 RETURN a").is_err());
        // aliases are unaffected by the AS OF keyword
        let q = parse("MATCH (a) RETURN a.x AS y").unwrap();
        assert_eq!(q.returns[0].alias, "y");
    }

    #[test]
    fn multiple_patterns() {
        let q = parse("MATCH (a:X)-[:E]->(b), (b)-[:F]->(c) RETURN c").unwrap();
        assert_eq!(q.patterns.len(), 2);
        assert_eq!(q.patterns[1].start.var, "b");
    }

    #[test]
    fn inline_property_map() {
        let q = parse("MATCH (u:User {name: 'alice', vip: true, age: 30}) RETURN u").unwrap();
        let n = &q.patterns[0].start;
        assert_eq!(n.props.len(), 3);
        assert_eq!(n.props[0], ("name".to_owned(), Value::Str("alice".into())));
        assert_eq!(n.props[1], ("vip".to_owned(), Value::Bool(true)));
        assert_eq!(n.props[2], ("age".to_owned(), Value::Int(30)));
        // empty map is a parse error (must hold at least one pair)
        assert!(parse("MATCH (u {}) RETURN u").is_err());
        // missing colon
        assert!(parse("MATCH (u {name 'x'}) RETURN u").is_err());
    }

    #[test]
    fn parse_errors_have_positions() {
        for bad in [
            "RETURN 1",
            "MATCH (a RETURN a",
            "MATCH (a) RETURN",
            "MATCH (a) WHERE RETURN a",
            "MATCH (a) RETURN a LIMIT -1",
            "MATCH (a)-[e]>(b) RETURN a",
            "MATCH (a) WHERE MEAN(DELTA(a) IN [0 100)) > 1 RETURN a",
            "MATCH (a) RETURN a extra_token",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                matches!(err, HyGraphError::Parse { .. }),
                "expected parse error for {bad:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn explain_prefix() {
        let q = parse("EXPLAIN MATCH (u:User) RETURN u").unwrap();
        assert!(q.explain);
        let q = parse("explain MATCH (u:User) RETURN u").unwrap();
        assert!(q.explain, "keyword is case-insensitive");
        assert!(!parse("MATCH (u:User) RETURN u").unwrap().explain);
        // EXPLAIN must be followed by a full query
        assert!(parse("EXPLAIN").is_err());
        assert!(parse("EXPLAIN RETURN 1").is_err());
    }

    #[test]
    fn negative_literals_in_comparison() {
        let q = parse("MATCH (a) WHERE a.x > -5 RETURN a").unwrap();
        let Some(Expr::Binary { rhs, .. }) = q.filter else {
            panic!()
        };
        assert_eq!(*rhs, Expr::Literal(Value::Int(-5)));
    }

    #[test]
    fn string_literal_predicates() {
        let q = parse("MATCH (u:User) WHERE u.name = 'User 1' RETURN u.name").unwrap();
        let Some(Expr::Binary { rhs, .. }) = q.filter else {
            panic!()
        };
        assert_eq!(*rhs, Expr::Literal(Value::Str("User 1".into())));
        assert_eq!(q.returns[0].alias, "u.name");
    }

    /// `n` levels of one of the four ways an expression can nest:
    /// parentheses, a `NOT` run, a left-deep binary chain, and
    /// parentheses that each add a tree level (parser descent and tree
    /// height at once).
    fn nested(shape: usize, n: usize) -> String {
        let filter = match shape {
            0 => format!("{}a.x > 1{}", "(".repeat(n), ")".repeat(n)),
            1 => format!("{}a.x > 1", "NOT ".repeat(n)),
            2 => format!("a.x{} > 1", " + 1".repeat(n)),
            _ => format!("{}a.x{} > 1", "(".repeat(n), " + 1)".repeat(n)),
        };
        format!("MATCH (a) WHERE {filter} RETURN a")
    }

    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("a stack overflow aborts the process instead of landing here")
    }

    #[test]
    fn hostile_nesting_is_a_positioned_error_not_a_stack_overflow() {
        for shape in 0..4 {
            let err = on_small_stack(move || parse(&nested(shape, 100_000)))
                .expect_err("100 000 levels must be refused");
            match err {
                HyGraphError::Parse { offset, message } => {
                    assert!(offset > 0 && message.contains("nests deeper"), "{message}");
                }
                other => panic!("expected a positioned parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn deepest_accepted_expressions_run_on_a_small_stack() {
        use hygraph_types::props;
        let hg = hygraph_core::HyGraphBuilder::new()
            .pg_vertex("a", ["N"], props! {"x" => 5i64})
            .build()
            .unwrap()
            .hygraph;
        for shape in 0..4 {
            let deepest = (1..)
                .take_while(|&n| parse(&nested(shape, n)).is_ok())
                .last()
                .expect("one level parses");
            // the cap is counted in levels, so every shape hits it
            // within the few levels its fixed `a.x > 1` core costs
            assert!(
                (MAX_EXPR_DEPTH - 3..=MAX_EXPR_DEPTH).contains(&deepest),
                "shape {shape} stops at {deepest}"
            );
            // parse, plan, optimize, evaluate and drop, in this (debug) build
            let hg = hg.clone();
            let rows =
                on_small_stack(move || crate::query(&hg, &nested(shape, deepest)).map(|r| r.rows))
                    .expect("the deepest accepted expression executes");
            // 5 (+ 1 …) > 1 holds; an odd NOT run negates it
            let negated = shape == 1 && deepest % 2 == 1;
            assert_eq!(rows.len(), usize::from(!negated), "shape {shape}");
        }
    }
}
