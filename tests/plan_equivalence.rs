//! The HyQL engine checked against a brute-force reference evaluator.
//!
//! Randomly composed HyQL queries and a fixed corpus of corner cases
//! run through the engine ([`hygraph_query::execute`]: plan → optimize
//! → physical operators) and through `tests/oracle`, which evaluates
//! the same AST from the model's definitions with none of the engine's
//! evaluation code. The optimizer may make a query cheaper, never
//! different. A query passes when
//!
//! * both succeed or both fail, and a failure names the same offending
//!   item;
//! * on success the columns are equal and the rows are equal as
//!   multisets; under ORDER BY the sort-key sequence is equal too, and
//!   under LIMIT the engine's rows are a right-sized sub-multiset of the
//!   oracle's un-limited rows with the same sort-key prefix;
//! * `Sequential` and `Parallel` execution are byte-identical, error
//!   text included.

mod oracle;

use hygraph::prelude::{Duration, HyGraph, HyGraphBuilder, TimeSeries, Timestamp, Value};
use hygraph::query_engine as hq;
use hygraph::types::bytes::ByteWriter;
use hygraph::types::parallel::ExecMode;
use hygraph::types::{props, Interval};
use proptest::prelude::*;

/// The fixture instance: two users, two ts-cards (integer-valued series,
/// so float aggregates are exact whatever the summation order), two
/// merchants, TX edges with mixed amounts — one of them valid only from
/// the first hour on, so `VALID AT` prunes something. Rich enough that
/// every pattern pool below matches at least sometimes.
fn instance() -> HyGraph {
    let spend = TimeSeries::generate(Timestamp::ZERO, Duration::from_hours(1), 48, |h| {
        ((h * 7) % 23) as f64
    });
    let slow = TimeSeries::generate(Timestamp::ZERO, Duration::from_hours(2), 24, |h| {
        ((h * 3) % 11) as f64
    });
    HyGraphBuilder::new()
        .univariate("spend", &spend)
        .univariate("slow", &slow)
        .pg_vertex("u1", ["User"], props! {"name" => "alice", "age" => 34})
        .pg_vertex("u2", ["User"], props! {"name" => "bob", "age" => 27})
        .ts_vertex("c1", ["Card"], "spend")
        .ts_vertex("c2", ["Card"], "slow")
        .pg_vertex("m1", ["Merchant"], props! {"name" => "m1", "fee" => 2.5})
        .pg_vertex("m2", ["Merchant"], props! {"name" => "m2", "fee" => 1.0})
        .pg_edge(None, "u1", "c1", ["USES"], props! {})
        .pg_edge(None, "u2", "c2", ["USES"], props! {})
        .pg_edge(Some("t1"), "c1", "m1", ["TX"], props! {"amount" => 1200.0})
        .pg_edge(Some("t2"), "c1", "m2", ["TX"], props! {"amount" => 30.0})
        .pg_edge(Some("t3"), "c2", "m1", ["TX"], props! {"amount" => 20.0})
        .pg_edge_valid(
            Some("t4"),
            "c2",
            "m2",
            ["TX"],
            props! {"amount" => 45.0},
            Interval::from(Timestamp::from_millis(3_600_000)),
        )
        .build()
        .unwrap()
        .hygraph
}

/// Pattern shapes, with per-shape pools of WHERE / RETURN / HAVING
/// fragments that reference only the variables that shape binds. The
/// pools deliberately mix pushable comparisons, non-pushable boolean
/// structure, constant-foldable subtrees, series aggregates (including
/// a reversed-range one that must error), and row aggregates.
/// `compared` lists the operands of the generated comparison predicates:
/// a property, literals drawn from the fixture's own values (so
/// boundaries are hit), and the neutral element that turns the property
/// into a residual expression the optimizer cannot push.
struct Shape {
    pattern: &'static str,
    filters: &'static [&'static str],
    // (alias, full RETURN item)
    returns: &'static [(&'static str, &'static str)],
    havings: &'static [&'static str],
    compared: &'static [(&'static str, &'static [&'static str], &'static str)],
}

const AGES: &[&str] = &["34", "27", "27.0", "30"];
const USER_NAMES: &[&str] = &["'alice'", "'bob'"];

const SHAPES: &[Shape] = &[
    Shape {
        pattern: "(u:User)",
        filters: &[
            "u.name = 'alice'",
            "u.age > 30",
            "NOT u.age > 30",
            "u.name = 'alice' OR u.age > 26",
            "u.age > 20 AND NOT u.name = 'bob'",
            "TRUE",
            "1 > 2",
            "u.age > 10 AND 2 > 1",
            // three-valued: FALSE AND NULL is FALSE, so NOT keeps bob
            "NOT (u.age > 30 AND u.ghost > 1)",
        ],
        returns: &[
            ("name", "u.name AS name"),
            ("age", "u.age AS age"),
            ("n", "COUNT(*) AS n"),
            ("dn", "COUNT(DISTINCT u.name) AS dn"),
            ("both", "u.age > 30 AND u.ghost > 1 AS both"),
            ("either", "u.age > 30 OR u.ghost > 1 AS either"),
        ],
        havings: &["COUNT(*) > 0", "COUNT(*) > 1"],
        compared: &[("u.age", AGES, "0"), ("u.name", USER_NAMES, "''")],
    },
    Shape {
        pattern: "(u:User)-[:USES]->(c:Card)",
        filters: &[
            "u.age > 26",
            "MEAN(DELTA(c) IN [0, 86400000)) > 8",
            "u.name = 'alice' AND SUM(DELTA(c) IN [0, 43200000)) > 50",
            // reversed range: must error
            "MEAN(DELTA(c) IN [86400000, 0)) > 1",
        ],
        returns: &[
            ("who", "u.name AS who"),
            ("peak", "MAX(DELTA(c) IN [0, 86400000)) AS peak"),
            ("total", "SUM(DELTA(c) IN [0, 43200000)) AS total"),
            ("n", "COUNT(*) AS n"),
        ],
        havings: &["COUNT(*) > 0"],
        compared: &[("u.age", AGES, "0"), ("u.name", USER_NAMES, "''")],
    },
    Shape {
        pattern: "(u:User)-[:USES]->(c:Card)-[t:TX]->(m:Merchant)",
        filters: &[
            "t.amount > 100",
            "t.amount > 100 AND m.fee > 2",
            "m.name = 'm1'",
            "MAX(DELTA(c) IN [0, 86400000)) > 10 OR t.amount > 25",
            "NOT t.amount > 100",
            "t.amount > 10 AND u.name = 'alice' AND m.fee > 0.5",
        ],
        returns: &[
            ("who", "u.name AS who"),
            ("amt", "t.amount AS amt"),
            ("mname", "m.name AS mname"),
            ("total", "SUM(t.amount) AS total"),
            ("txs", "COUNT(t) AS txs"),
            ("peak", "MAX(DELTA(c) IN [0, 3600000)) AS peak"),
        ],
        havings: &["SUM(t.amount) > 50", "COUNT(*) > 1"],
        compared: &[
            ("t.amount", &["1200.0", "30.0", "20.0", "45", "45.0"], "0"),
            ("m.fee", &["2.5", "1.0", "1"], "0"),
            ("u.age", AGES, "0"),
        ],
    },
    Shape {
        pattern: "(u:User)-[*1..2]->(x)",
        filters: &["u.age > 26", "x.name = 'm1'"],
        returns: &[
            ("reach", "COUNT(x) AS reach"),
            ("who", "u.name AS who"),
            ("named", "COUNT(x.name) AS named"),
        ],
        havings: &["COUNT(x) > 1"],
        compared: &[("u.age", AGES, "0"), ("x.name", &["'m1'", "'m2'"], "''")],
    },
];

const CMP_OPS: &[&str] = &["=", "<>", "<", "<=", ">", ">="];

/// A comparison predicate over one of the shape's operands, from the
/// choice word `c`: `prop op lit` and `lit op prop` are pushable, `prop
/// + neutral op lit` stays a residual filter.
fn comparison(shape: &Shape, c: u64) -> String {
    let (prop, literals, neutral) = shape.compared[(c % shape.compared.len() as u64) as usize];
    let op = CMP_OPS[(c >> 4) as usize % CMP_OPS.len()];
    let lit = literals[(c >> 8) as usize % literals.len()];
    match (c >> 12) % 3 {
        0 => format!("{prop} {op} {lit}"),
        1 => format!("{lit} {op} {prop}"),
        _ => format!("{prop} + {neutral} {op} {lit}"),
    }
}

/// Deterministically assembles a parseable HyQL query from six choice
/// words. Clause order follows the grammar: MATCH [WHERE] [VALID AT]
/// RETURN [DISTINCT] items [HAVING] [ORDER BY] [LIMIT].
fn build_query(
    pat_sel: u64,
    filt_sel: u64,
    ret_sel: u64,
    hav_sel: u64,
    ord_sel: u64,
    misc_sel: u64,
) -> String {
    let shape = &SHAPES[(pat_sel % SHAPES.len() as u64) as usize];
    let mut q = format!("MATCH {}", shape.pattern);

    // WHERE: a pool filter in ~2/3 of cases, a comparison predicate in
    // ~1/2, joined by AND when both are drawn
    let nf = shape.filters.len() as u64;
    let fi = filt_sel % (nf * 3 / 2);
    let pool = (fi < nf).then(|| shape.filters[fi as usize].to_string());
    let cmp_word = filt_sel >> 16;
    let cmp = (cmp_word >> 20 & 1 == 0).then(|| comparison(shape, cmp_word));
    match (pool, cmp) {
        (Some(p), Some(c)) => q.push_str(&format!(" WHERE ({p}) AND {c}")),
        (Some(w), None) | (None, Some(w)) => q.push_str(&format!(" WHERE {w}")),
        (None, None) => {}
    }

    // VALID AT in ~1/4 of cases: before and after t4 starts
    if misc_sel.is_multiple_of(4) {
        let at = if misc_sel >> 7 & 1 == 0 { 0 } else { 7_200_000 };
        q.push_str(&format!(" VALID AT {at}"));
    }

    // non-empty subset of the RETURN pool
    let nret = shape.returns.len();
    let mask = (ret_sel % ((1u64 << nret) - 1)) + 1;
    let chosen: Vec<&(&str, &str)> = shape
        .returns
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .map(|(_, r)| r)
        .collect();
    let distinct = if misc_sel >> 2 & 1 == 1 {
        "DISTINCT "
    } else {
        ""
    };
    let items: Vec<&str> = chosen.iter().map(|&&(_, item)| item).collect();
    q.push_str(&format!(" RETURN {distinct}{}", items.join(", ")));

    // HAVING in ~1/3 of cases
    let nh = shape.havings.len() as u64;
    let hi = hav_sel % (nh * 3);
    if hi < nh {
        q.push_str(&format!(" HAVING {}", shape.havings[hi as usize]));
    }

    // ORDER BY in ~1/2 of cases: usually a produced alias, occasionally
    // an unknown column (which must error)
    match ord_sel % 4 {
        0 | 1 => {}
        2 => {
            let &&(alias, _) = &chosen[(ord_sel >> 3) as usize % chosen.len()];
            let dir = if ord_sel >> 2 & 1 == 1 { " DESC" } else { "" };
            q.push_str(&format!(" ORDER BY {alias}{dir}"));
        }
        _ => q.push_str(" ORDER BY zzz"),
    }

    // LIMIT in ~1/4 of cases
    if misc_sel >> 3 & 3 == 0 {
        q.push_str(&format!(" LIMIT {}", misc_sel >> 5 & 3));
    }

    q
}

fn encoded(r: &hq::QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    r.encode(&mut w);
    w.into_bytes()
}

/// Runs `text` through the engine in both modes and through the oracle;
/// `Err` says how they disagree.
fn check(hg: &HyGraph, text: &str) -> Result<(), String> {
    let q = hq::parser::parse(text).map_err(|e| format!("query must parse, got {e}: {text:?}"))?;
    let seq = hq::execute(hg, &q, ExecMode::Sequential);
    let par = hq::execute(hg, &q, ExecMode::Parallel);
    let deterministic = match (&seq, &par) {
        (Ok(s), Ok(p)) => encoded(s) == encoded(p),
        (Err(s), Err(p)) => s.to_string() == p.to_string(),
        _ => false,
    };
    if !deterministic {
        return Err(format!(
            "Sequential and Parallel diverge for {text:?}: {seq:?} vs {par:?}"
        ));
    }
    oracle::agrees(hg, &q, &seq).map_err(|e| format!("{e} for {text:?}"))
}

proptest! {
    #[test]
    fn planner_is_equivalent_to_interpreter(
        sels in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX,
                 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX)
    ) {
        let (a, b, c, d, e, f) = sels;
        let text = build_query(a, b, c, d, e, f);
        check(&instance(), &text).map_err(TestCaseError::fail)?;
    }
}

/// A fraud-shaped instance for the fixed corpus: 2 users, 2 ts-cards
/// (one hot, one cold), 2 merchants, USES + TX edges with amounts.
fn fraud_instance() -> HyGraph {
    let hot = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |i| {
        if i >= 50 {
            900.0
        } else {
            10.0
        }
    });
    let cold = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |_| 12.0);
    HyGraphBuilder::new()
        .univariate("hot", &hot)
        .univariate("cold", &cold)
        .pg_vertex(
            "alice",
            ["User"],
            props! {"name" => "alice", "age" => 34i64},
        )
        .pg_vertex("bob", ["User"], props! {"name" => "bob", "age" => 19i64})
        .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
        .pg_vertex("m2", ["Merchant"], props! {"name" => "m2"})
        .ts_vertex("c1", ["CreditCard"], "hot")
        .ts_vertex("c2", ["CreditCard"], "cold")
        .pg_edge(None, "alice", "c1", ["USES"], props! {})
        .pg_edge(None, "bob", "c2", ["USES"], props! {})
        .pg_edge(Some("t1"), "c1", "m1", ["TX"], props! {"amount" => 1500.0})
        .pg_edge(Some("t2"), "c1", "m2", ["TX"], props! {"amount" => 30.0})
        .pg_edge(Some("t3"), "c2", "m1", ["TX"], props! {"amount" => 20.0})
        .build()
        .unwrap()
        .hygraph
}

/// The fixed Table-1-shaped corner cases (success and error cases),
/// both modes — a deterministic floor under the random property above.
#[test]
fn planner_matches_interpreter_on_fixed_corner_cases() {
    let hg = instance();
    let corner_cases = [
        "MATCH (u:User) RETURN u.name AS name ORDER BY name",
        "MATCH (u:User) WHERE 1 > 2 RETURN u.name AS name",
        "MATCH (u:User) RETURN COUNT(*) AS n",
        "MATCH (u:User)-[:USES]->(c:Card) \
         WHERE MEAN(DELTA(c) IN [0, 86400000)) > 8 \
         RETURN u.name AS who ORDER BY who",
        "MATCH (u:User)-[:USES]->(c:Card)-[t:TX]->(m:Merchant) \
         WHERE t.amount > 25 AND m.fee > 0.5 \
         RETURN u.name AS who, SUM(t.amount) AS total \
         HAVING SUM(t.amount) > 10 ORDER BY total DESC LIMIT 3",
        "MATCH (u:User)-[*1..2]->(x) RETURN DISTINCT u.name AS who ORDER BY who",
        "MATCH (u:User) RETURN u.name AS name ORDER BY zzz",
        "MATCH (u:User)-[*1..2]->(x) RETURN COUNT(x.name) AS named, COUNT(x) AS reach",
        "MATCH (c:Card)-[t:TX]->(m) VALID AT 0 RETURN t.amount AS a ORDER BY a",
        "MATCH (m:Merchant)<-[t:TX]-(c) RETURN m.name AS m, COUNT(t) AS n ORDER BY m",
        "MATCH (m:Merchant)-[:TX]-(c) RETURN m.name AS m ORDER BY m",
        "MATCH (u:User) WHERE u.age + 0 < 27 OR u.age <= 27 RETURN u.name AS n",
        "MATCH (u:User) WHERE FALSE AND u.ghost > 1 RETURN u.name AS n",
        "MATCH (u:User) WHERE NOT (u.ghost > 1) RETURN u.name AS n",
        "MATCH (u:User) WHERE NOT (u.age > 30 AND u.ghost > 1) RETURN u.name AS n",
        "MATCH (u:User) RETURN u.name AS n, u.age > 30 AND u.ghost > 1 AS both, \
         u.age > 30 OR u.ghost > 1 AS either ORDER BY n",
        "MATCH (u:User) RETURN u.name AS n, COUNT(*) + u.age AS bad",
        "MATCH (u:User) RETURN u.age AS a, u.age + COUNT(*) AS b ORDER BY a",
        "MATCH (u:User) WHERE COUNT(*) > 1 RETURN u.name AS n",
        "MATCH (u:User)-[:USES]->(c:Card) RETURN MEAN(DELTA(u) IN [0, 10)) AS bad",
        "MATCH (u:User)-[:USES]->(c:Card) \
         RETURN COUNT(DELTA(c) IN [86400000, 86400000)) AS none, \
         MIN(DELTA(c) IN [3600000, 7200001)) AS lo",
    ];
    for text in corner_cases {
        check(&hg, text).unwrap();
    }
    let hg = fraud_instance();
    let queries = [
        "MATCH (u:User) RETURN u.name AS name ORDER BY name",
        "MATCH (u:User {name: 'alice'})-[:USES]->(c:CreditCard) RETURN u.age AS age",
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         WHERE t.amount > 1000 RETURN u.name AS who, t.amount AS amt",
        "MATCH (u:User)-[:USES]->(c:CreditCard) \
         WHERE MEAN(DELTA(c) IN [0, 1000)) > 400 RETURN u.name AS who",
        "MATCH (u:User)-[:USES]->(c:CreditCard) \
         RETURN u.name AS who, MAX(DELTA(c) IN [0, 1000)) AS peak, \
         COUNT(DELTA(c) IN [0, 250)) AS n ORDER BY who",
        "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) RETURN DISTINCT m.name AS m ORDER BY m",
        "MATCH (c:CreditCard)-[t:TX]->(m) RETURN t.amount AS a ORDER BY a DESC LIMIT 2",
        "MATCH (u:User) WHERE u.ghost > 1 RETURN u",
        "MATCH (u:User) WHERE u.name = 'alice' RETURN u.age * 2 + 1 AS x, u.age / 0 AS z",
        "MATCH (u:User)-[:USES]->(c:CreditCard), (c)-[t:TX]->(m:Merchant) \
         WHERE m.name = 'm1' RETURN u.name AS who ORDER BY who",
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         RETURN u.name AS who, COUNT(t) AS n HAVING COUNT(t) > 1 ORDER BY who",
        "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) \
         RETURN COUNT(m.name) AS all_rows, COUNT(DISTINCT m.name) AS uniq",
        "MATCH (u:User) RETURN COUNT(*) AS n",
        "MATCH (u:Ghost) RETURN COUNT(*) AS n",
        "MATCH (u:User {name: 'alice'})-[*1..2]->(x) RETURN DISTINCT x ORDER BY x",
        "MATCH (c:CreditCard)-[:TX*1..3]->(m) RETURN COUNT(*) AS n",
        "MATCH (u:User)-[:USES]->(c:CreditCard) \
         RETURN AVG(MEAN(DELTA(c) IN [0, 1000)) ) AS fleet_mean",
        "MATCH (u:User) RETURN u.name AS n ORDER BY zzz",
        "MATCH (c:CreditCard) WHERE MEAN(DELTA(c) IN [100, 0)) > 1 RETURN c",
        "MATCH (u:User) WHERE u.age > 18 AND 1 < 2 RETURN u.name AS n ORDER BY n",
    ];
    for text in queries {
        check(&hg, text).unwrap();
    }
}

/// `-0.0` and `0.0` are one value under all six comparison operators,
/// whether the predicate is pushed into pattern matching (`p.x op 0.0`)
/// or evaluated as a residual filter (`p.x * 1 op 0.0`).
#[test]
fn signed_zeros_compare_equal_pushed_and_residual() {
    let hg = HyGraphBuilder::new()
        .pg_vertex("neg", ["P"], props! {"x" => -0.0})
        .pg_vertex("pos", ["P"], props! {"x" => 0.0})
        .build()
        .unwrap()
        .hygraph;
    for (op, matched) in [
        ("=", 2),
        ("<>", 0),
        ("<", 0),
        ("<=", 2),
        (">", 0),
        (">=", 2),
    ] {
        for (lhs, pushed) in [("p.x", 1), ("p.x * 1", 0)] {
            let text = format!("MATCH (p:P) WHERE {lhs} {op} 0.0 RETURN COUNT(*) AS n");
            let q = hq::parser::parse(&text).unwrap();
            assert_eq!(
                hq::plan_query(&q).unwrap().plan.pushed.len(),
                pushed,
                "{text}"
            );
            let r = hq::execute(&hg, &q, ExecMode::Sequential).unwrap();
            assert_eq!(r.rows, vec![vec![Value::Int(matched)]], "{text}");
            check(&hg, &text).unwrap();
        }
    }
}

/// An instance with what the fixture above lacks: a self-loop, a
/// vertex with two labels, and the two signed zeros.
fn semantics_instance() -> HyGraph {
    HyGraphBuilder::new()
        .pg_vertex("a", ["N"], props! {"name" => "a", "x" => -0.0})
        .pg_vertex("b", ["N", "M"], props! {"name" => "b", "x" => 0.0})
        .pg_vertex("c", ["M"], props! {"name" => "c", "x" => 1.0})
        .pg_edge(Some("e0"), "a", "a", ["SELF"], props! {})
        .pg_edge(Some("e1"), "a", "b", ["NEXT"], props! {})
        .build()
        .unwrap()
        .hygraph
}

/// One binding per graph edge: a self-loop sits in both adjacency
/// lists of its vertex, and still binds a pattern edge once.
#[test]
fn self_loop_binds_once() {
    let hg = semantics_instance();
    for text in [
        "MATCH (a)-[e:SELF]->(b) RETURN e AS e",
        "MATCH (a)<-[e:SELF]-(b) RETURN a.name AS n",
        "MATCH (a)-[e:SELF]-(b) RETURN COUNT(*) AS n",
        "MATCH (a)-[:SELF*1..2]-(b) RETURN COUNT(*) AS n",
    ] {
        check(&hg, text).unwrap();
    }
}

/// A variable mentioned twice carries the labels of both mentions,
/// whichever comes first.
#[test]
fn re_mentioned_variable_conjoins_labels() {
    let hg = semantics_instance();
    for text in [
        "MATCH (u:N), (u:M) RETURN u.name AS n",
        "MATCH (u:M), (u:N) RETURN u.name AS n",
        "MATCH (u:N)-[:NEXT]->(v), (v:M) RETURN v.name AS n",
    ] {
        check(&hg, text).unwrap();
    }
}

/// `-0.0` and `0.0` are one value under DISTINCT, grouping,
/// `COUNT(DISTINCT)` and ORDER BY ties (the tie on `x` leaves the order
/// to `n DESC`).
#[test]
fn signed_zeros_are_one_value_when_deduplicating_and_sorting() {
    let hg = semantics_instance();
    for text in [
        "MATCH (p:N) RETURN DISTINCT p.x AS x",
        "MATCH (p:N) RETURN p.x AS x, COUNT(*) AS n",
        "MATCH (p:N) RETURN COUNT(DISTINCT p.x) AS n",
        "MATCH (p:N) RETURN p.x AS x, p.name AS n ORDER BY x, n DESC",
    ] {
        check(&hg, text).unwrap();
    }
}
