//! Dynamic property values.
//!
//! [`Value`] is the static half of the paper's property codomain 𝒩_Σ: the
//! scalar values a property-graph element can carry. Comparisons are
//! total (a well-defined order across types) so values can be sorted,
//! grouped and used as predicate operands inside the query engine.

use crate::time::{Duration, Timestamp};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of a predicate `lhs op rhs` — the six operators
/// both pattern-pushed predicates and residual HyQL expressions
/// evaluate through [`Value::compare`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
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
}

/// A dynamically-typed static property value (𝒩_Σ).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absent / SQL-style NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalised away by constructors where possible.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// A point in time.
    Time(Timestamp),
    /// A span of time.
    Span(Duration),
}

impl Value {
    /// Whether this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: `Int` and `Float` coerce to `f64`, `Bool` to 0/1.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view (no float truncation — `Float(2.0)` is not an int).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total order across all values. Within the numeric family, `Int` and
    /// `Float` compare by numeric value, `-0.0` equals `0.0`, and every
    /// NaN equals every other and sorts above all other numbers; across
    /// families, the order is Null < Bool < numeric < Str < Time < Span.
    /// `Equal` is the "not distinct" relation DISTINCT, grouping and
    /// ORDER BY ties use.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn family(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                Time(_) => 4,
                Span(_) => 5,
            }
        }
        // one representative per number: `-0.0` folds onto `0.0` (an
        // `Int` converts to `+0.0` already) and every NaN onto the
        // positive one `f64::total_cmp` puts above `+inf`
        fn canon(x: f64) -> f64 {
            if x == 0.0 {
                0.0
            } else if x.is_nan() {
                f64::NAN
            } else {
                x
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => canon(*a).total_cmp(&canon(*b)),
            (Int(a), Float(b)) => (*a as f64).total_cmp(&canon(*b)),
            (Float(a), Int(b)) => canon(*a).total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Time(a), Time(b)) => a.cmp(b),
            (Span(a), Span(b)) => a.cmp(b),
            (a, b) => family(a).cmp(&family(b)),
        }
    }

    /// SQL-ish equality: Null equals nothing (including Null); numerics
    /// compare cross-type. Returns `None` when either side is Null.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Value::Int(a), Value::Float(b)) => (*a as f64) == *b,
            (Value::Float(a), Value::Int(b)) => *a == (*b as f64),
            (a, b) => a == b,
        })
    }

    /// Three-valued comparison `self op other`: `None` (SQL unknown)
    /// when either side is Null. `=` / `<>` follow [`Self::sql_eq`]; the
    /// four order operators follow [`Self::total_cmp`], so `-0.0` and
    /// `0.0` compare equal under all six operators.
    pub fn compare(&self, op: CmpOp, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        let ord = || self.total_cmp(other);
        Some(match op {
            CmpOp::Eq => self.sql_eq(other)?,
            CmpOp::Ne => !self.sql_eq(other)?,
            CmpOp::Lt => ord().is_lt(),
            CmpOp::Le => ord().is_le(),
            CmpOp::Gt => ord().is_gt(),
            CmpOp::Ge => ord().is_ge(),
        })
    }

    /// Addition where it makes sense (numeric + numeric, string concat,
    /// time + span); `None` otherwise.
    pub fn add(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.checked_add(*b)?)),
            (Value::Float(a), Value::Float(b)) => Some(Value::Float(a + b)),
            (Value::Int(a), Value::Float(b)) => Some(Value::Float(*a as f64 + b)),
            (Value::Float(a), Value::Int(b)) => Some(Value::Float(a + *b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(Value::Str(format!("{a}{b}"))),
            (Value::Time(t), Value::Span(d)) => Some(Value::Time(*t + *d)),
            (Value::Span(d), Value::Time(t)) => Some(Value::Time(*t + *d)),
            (Value::Span(a), Value::Span(b)) => Some(Value::Span(*a + *b)),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Timestamp> for Value {
    fn from(t: Timestamp) -> Self {
        Value::Time(t)
    }
}
impl From<Duration> for Value {
    fn from(d: Duration) -> Self {
        Value::Span(d)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Time(t) => write!(f, "{t}"),
            Value::Span(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Float(2.0).as_i64(), None, "no float->int truncation");
    }

    #[test]
    fn total_order_within_and_across_families() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Bool(false)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Str("b".into())),
            Ordering::Less
        );
        assert_eq!(
            Value::Bool(false).total_cmp(&Value::Int(i64::MIN)),
            Ordering::Less
        );
        // NaN sorts above +inf under total_cmp
        assert_eq!(
            Value::Float(f64::NAN).total_cmp(&Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Float(1.0)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
        assert_eq!(Value::Str("a".into()).sql_eq(&Value::Int(1)), Some(false));
    }

    #[test]
    fn compare_is_three_valued() {
        use CmpOp::*;
        assert_eq!(Value::Int(1).compare(Eq, &Value::Float(1.0)), Some(true));
        assert_eq!(Value::Int(1).compare(Ne, &Value::Int(2)), Some(true));
        assert_eq!(Value::Int(1).compare(Lt, &Value::Int(2)), Some(true));
        assert_eq!(Value::Float(2.0).compare(Ge, &Value::Int(2)), Some(true));
        assert_eq!(
            Value::Null.compare(Eq, &Value::Null),
            None,
            "null is unknown"
        );
        assert_eq!(Value::Null.compare(Gt, &Value::Int(0)), None);
        // cross-family order and NaN are the total order's
        assert_eq!(
            Value::Str("a".into()).compare(Gt, &Value::Int(9)),
            Some(true)
        );
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.compare(Eq, &nan), Some(false));
        assert_eq!(nan.compare(Gt, &Value::Float(f64::INFINITY)), Some(true));
    }

    #[test]
    fn signed_zeros_compare_equal_under_every_operator() {
        use CmpOp::*;
        let (neg, pos) = (Value::Float(-0.0), Value::Float(0.0));
        for (a, b) in [(&neg, &pos), (&pos, &neg), (&neg, &Value::Int(0))] {
            for (op, want) in [
                (Eq, true),
                (Ne, false),
                (Lt, false),
                (Le, true),
                (Gt, false),
                (Ge, true),
            ] {
                assert_eq!(a.compare(op, b), Some(want), "{a:?} {op:?} {b:?}");
            }
        }
    }

    #[test]
    fn add_semantics() {
        assert_eq!(Value::Int(1).add(&Value::Int(2)), Some(Value::Int(3)));
        assert_eq!(
            Value::Int(1).add(&Value::Float(0.5)),
            Some(Value::Float(1.5))
        );
        assert_eq!(
            Value::Str("ab".into()).add(&Value::Str("cd".into())),
            Some(Value::Str("abcd".into()))
        );
        assert_eq!(
            Value::Time(Timestamp::from_millis(10)).add(&Value::Span(Duration::from_millis(5))),
            Some(Value::Time(Timestamp::from_millis(15)))
        );
        assert_eq!(Value::Int(i64::MAX).add(&Value::Int(1)), None, "overflow");
        assert_eq!(Value::Bool(true).add(&Value::Bool(true)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::from(5i64).to_string(), "5");
        assert_eq!(Value::from("hey").to_string(), "hey");
        assert_eq!(Value::from(Duration::from_hours(1)).to_string(), "1h");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1i32), Value::Int(1));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
        assert_eq!(
            Value::from(Timestamp::from_millis(1)),
            Value::Time(Timestamp::from_millis(1))
        );
    }
}
