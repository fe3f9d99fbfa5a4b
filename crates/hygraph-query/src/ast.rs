//! HyQL abstract syntax tree.

use hygraph_types::{CmpOp, Timestamp, Value};

/// A transaction-time bound on a query: which historical state of the
/// store the query executes against. Distinct from `VALID AT`, which
/// anchors element *validity intervals* within one state: `AS OF`
/// rewinds the store itself to a past commit watermark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TemporalBound {
    /// `AS OF NOW()` — the current committed state (always equivalent
    /// to omitting the clause).
    AsOfNow,
    /// `AS OF t` — the state as of the last commit with transaction
    /// timestamp `<= t` (epoch milliseconds).
    AsOf(Timestamp),
    /// `BETWEEN t1 AND t2` — the union of results over every commit
    /// epoch whose state was current somewhere in `[t1, t2]`, rows
    /// deduplicated in first-seen order.
    Between(Timestamp, Timestamp),
}

/// A parsed HyQL query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// The MATCH clause: one or more path patterns.
    pub patterns: Vec<PathPattern>,
    /// Optional WHERE expression.
    pub filter: Option<Expr>,
    /// Optional `VALID AT t` anchor restricting matches to elements
    /// valid at `t`.
    pub valid_at: Option<Timestamp>,
    /// Optional transaction-time bound (`AS OF` / `BETWEEN`). Resolved
    /// against a history store by the serving layer; plain library
    /// execution treats the graph it is handed as the resolved state.
    pub temporal: Option<TemporalBound>,
    /// RETURN projection.
    pub returns: Vec<ReturnItem>,
    /// Whether RETURN DISTINCT was requested.
    pub distinct: bool,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// Optional HAVING expression (evaluated per group after row
    /// aggregation; may reference row aggregates).
    pub having: Option<Expr>,
    /// Whether the query was prefixed with EXPLAIN: return the
    /// optimized plan rendering instead of executing.
    pub explain: bool,
}

/// One path in a MATCH clause: node, then (edge, node) hops.
#[derive(Clone, Debug, PartialEq)]
pub struct PathPattern {
    /// First node.
    pub start: NodePattern,
    /// Subsequent hops.
    pub hops: Vec<(EdgePattern, NodePattern)>,
}

/// A node pattern `(var:Label {key: literal, ...})`.
#[derive(Clone, Debug, PartialEq)]
pub struct NodePattern {
    /// Variable (auto-generated for anonymous nodes).
    pub var: String,
    /// Required labels.
    pub labels: Vec<String>,
    /// Inline equality constraints on static properties.
    pub props: Vec<(String, Value)>,
}

/// Direction of an edge pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeDir {
    /// `-[..]->`
    Right,
    /// `<-[..]-`
    Left,
    /// `-[..]-`
    Undirected,
}

/// An edge pattern `-[var:LABEL]->` or variable-length
/// `-[:LABEL*min..max]->`.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgePattern {
    /// Variable (auto-generated for anonymous edges).
    pub var: String,
    /// Required labels.
    pub labels: Vec<String>,
    /// Direction.
    pub dir: EdgeDir,
    /// Hop-count range; `(1, 1)` for a plain edge. Variable-length edges
    /// (`max > min` or `min > 1`) cannot carry a user variable binding.
    pub hops: (usize, usize),
}

/// Row-aggregate functions (Cypher-style implicit grouping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowAggFunc {
    /// Number of rows (or non-null argument values).
    Count,
    /// Sum of numeric argument values.
    Sum,
    /// Mean of numeric argument values.
    Avg,
    /// Minimum argument value.
    Min,
    /// Maximum argument value.
    Max,
}

/// Aggregate functions usable over series terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Arithmetic mean.
    Mean,
    /// Sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Observation count.
    Count,
}

/// What series an aggregate targets.
#[derive(Clone, Debug, PartialEq)]
pub enum SeriesRef {
    /// `DELTA(var)` — the series of a ts-element.
    Delta(String),
    /// `var.key` — a series-valued property of a pg-element.
    Property {
        /// Bound variable.
        var: String,
        /// Property key.
        key: String,
    },
}

/// Scalar expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// `var.key` static property access (falls back to Null if the
    /// property is missing or series-valued in a scalar position).
    Prop {
        /// Bound variable.
        var: String,
        /// Property key.
        key: String,
    },
    /// Bare variable — evaluates to the element's display id (usable in
    /// RETURN for debugging/counting).
    Var(String),
    /// `FUNC(series IN [t1, t2))`.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Series target.
        series: SeriesRef,
        /// Range start (inclusive, epoch ms).
        from: i64,
        /// Range end (exclusive, epoch ms).
        to: i64,
    },
    /// Row aggregate over the match groups: `COUNT(*)`,
    /// `COUNT(DISTINCT x)`, `SUM(e)`, ... Grouping keys are the
    /// aggregate-free RETURN items.
    RowAgg {
        /// Aggregate function.
        func: RowAggFunc,
        /// Argument; `None` means `COUNT(*)`.
        arg: Option<Box<Expr>>,
        /// Whether DISTINCT was requested.
        distinct: bool,
    },
    /// Unary NOT.
    Not(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// Binary operators, loosest-binding first in the parser.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// The comparison this operator performs, `None` for the logical
    /// and arithmetic operators.
    pub fn cmp_op(self) -> Option<CmpOp> {
        match self {
            BinOp::Eq => Some(CmpOp::Eq),
            BinOp::Ne => Some(CmpOp::Ne),
            BinOp::Lt => Some(CmpOp::Lt),
            BinOp::Le => Some(CmpOp::Le),
            BinOp::Gt => Some(CmpOp::Gt),
            BinOp::Ge => Some(CmpOp::Ge),
            _ => None,
        }
    }
}

/// One RETURN item.
#[derive(Clone, Debug, PartialEq)]
pub struct ReturnItem {
    /// The projected expression.
    pub expr: Expr,
    /// Output column name (alias or synthesised).
    pub alias: String,
}

/// One ORDER BY item.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderItem {
    /// Output column to order by.
    pub column: String,
    /// Descending?
    pub descending: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_types_construct() {
        let q = Query {
            patterns: vec![PathPattern {
                start: NodePattern {
                    var: "u".into(),
                    labels: vec!["User".into()],
                    props: vec![],
                },
                hops: vec![(
                    EdgePattern {
                        var: "_e0".into(),
                        labels: vec!["TX".into()],
                        dir: EdgeDir::Right,
                        hops: (1, 1),
                    },
                    NodePattern {
                        var: "m".into(),
                        labels: vec![],
                        props: vec![],
                    },
                )],
            }],
            filter: Some(Expr::Binary {
                op: BinOp::Gt,
                lhs: Box::new(Expr::Prop {
                    var: "_e0".into(),
                    key: "amount".into(),
                }),
                rhs: Box::new(Expr::Literal(Value::Int(1000))),
            }),
            valid_at: None,
            temporal: None,
            returns: vec![ReturnItem {
                expr: Expr::Var("u".into()),
                alias: "u".into(),
            }],
            distinct: false,
            order_by: vec![],
            limit: Some(5),
            having: None,
            explain: false,
        };
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.returns[0].alias, "u");
    }
}
