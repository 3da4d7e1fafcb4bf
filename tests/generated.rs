//! Generated properties: every protocol agrees with the trusted oracle, the
//! partial-aggregate merge is partition-invariant, and the codecs, ciphers,
//! SQL printer and exposure analysis keep their invariants on drawn inputs.
//!
//! Cases come from one seeded generator over `tdsql_crypto::rng`. The seeds
//! are fixed, so every `cargo test` runs the same cases and a failure replays
//! on the next run; `cases` names the property, case index and seed.

mod common;

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use common::sorted;
use tdsql_core::access::AccessPolicy;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::tuple_codec::{AggInput, PlainTuple, ResultRow};
use tdsql_core::ProtocolError;
use tdsql_crypto::credential::Role;
use tdsql_crypto::rng::{Rng, RngCore, SampleRange, SeedableRng, StdRng};
use tdsql_crypto::{DetCipher, NDetCipher, SymKey};
use tdsql_exposure::coefficient::{epsilon_ndet, exposure_coefficient};
use tdsql_exposure::schemes::ColumnScheme;
use tdsql_exposure::table::{PlainColumn, PlainTable};
use tdsql_sql::aggregate::{AggSpec, AggState};
use tdsql_sql::ast::{
    AggCall, AggFunc, BinOp, ColumnRef, Expr, Query, SelectItem, SizeClause, TableRef, UnaryOp,
};
use tdsql_sql::engine::{execute, Database};
use tdsql_sql::parser::{parse_expr, parse_query};
use tdsql_sql::schema::{Column, TableSchema};
use tdsql_sql::token::tokenize;
use tdsql_sql::value::{DataType, GroupKey, Value};

// ---------------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------------

/// Seeded draws for one case.
struct Gen(StdRng);

impl Gen {
    fn int<R: SampleRange>(&mut self, range: R) -> R::Output {
        self.0.gen_range(range)
    }

    fn bool(&mut self) -> bool {
        self.0.gen()
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.int(0..items.len())].clone()
    }

    fn option<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| f(self))
    }

    fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.int(len);
        (0..n).map(|_| f(self)).collect()
    }

    fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        self.vec(len, |g| g.pick(&chars)).into_iter().collect()
    }

    fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let mut out = vec![0; self.int(len)];
        self.0.fill_bytes(&mut out);
        out
    }
}

/// Run `property` on `n` cases drawn from fixed seeds. A failing case
/// prints the property's name, the case index and its seed, then re-panics.
fn cases(name: &str, n: u64, mut property: impl FnMut(&mut Gen)) {
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for case in 0..n {
        let seed = base.wrapping_add(case);
        let mut g = Gen(StdRng::seed_from_u64(seed));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!("property `{name}` failed at case {case} (seed {seed:#018x})");
            resume_unwind(panic);
        }
    }
}

// ---------------------------------------------------------------------------
// Protocols against the oracle
// ---------------------------------------------------------------------------

/// `(grp, v)` readings per TDS, in one of five population shapes.
fn readings(g: &mut Gen) -> Vec<Vec<(i64, i64)>> {
    let n = g.int(1..25usize);
    let v = |g: &mut Gen| g.int(-50..50i64);
    match g.int(0..5) {
        // 0-3 rows per TDS; some TDSs hold nothing.
        0 => (0..n)
            .map(|_| g.vec(0..4, |g| (g.int(0..5i64), v(g))))
            .collect(),
        // One row per TDS, groups uniform.
        1 => (0..n).map(|_| vec![(g.int(0..5i64), v(g))]).collect(),
        // Geometric skew: group k < 4 with probability 2^-(k+1).
        2 => (0..n)
            .map(|_| vec![((0..4).take_while(|_| g.bool()).count() as i64, v(g))])
            .collect(),
        // A single TDS holds every row.
        3 => vec![(0..n).map(|_| (g.int(0..5i64), v(g))).collect()],
        // G = N_t: every row is its own group.
        _ => (0..n).map(|i| vec![(i as i64, v(g))]).collect(),
    }
}

/// One database per TDS, plus their union for the oracle.
fn population(readings: &[Vec<(i64, i64)>]) -> (Vec<Database>, Database) {
    let schema = TableSchema::new(
        "m",
        vec![
            Column::new("grp", DataType::Int),
            Column::new("v", DataType::Int),
        ],
    );
    let mut union = Database::new();
    union.create_table(schema.clone());
    let dbs = readings
        .iter()
        .map(|rows| {
            let mut db = Database::new();
            db.create_table(schema.clone());
            for &(grp, v) in rows {
                let row = vec![Value::Int(grp), Value::Int(v)];
                db.insert("m", row.clone()).unwrap();
                union.insert("m", row).unwrap();
            }
            db
        })
        .collect();
    (dbs, union)
}

/// The distributed answer to `query` under `kind` over the TDSs' databases.
fn run(dbs: &[Database], seed: u64, kind: ProtocolKind, query: &Query) -> Vec<Vec<Value>> {
    let mut world = SimBuilder::new()
        .seed(seed)
        .build(dbs.to_vec(), AccessPolicy::allow_all(Role::new("r")));
    let querier = world.make_querier("q", "r");
    world
        .run_query(&querier, query, ProtocolParams::new(kind))
        .unwrap()
}

/// Whatever the data and the query shape, every aggregate protocol's
/// distributed answer equals the trusted single-node answer.
#[test]
fn protocols_agree_with_oracle() {
    cases("protocols_agree_with_oracle", 48, |g| {
        let (t, lo, width, k) = (
            g.int(1..6i64),
            g.int(-60..60i64),
            g.int(0..80i64),
            g.int(1..4u64),
        );
        let shape = g.int(0..4);
        let sql = match shape {
            0 => "SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM m GROUP BY grp".to_string(),
            1 => format!("SELECT grp, COUNT(*) FROM m GROUP BY grp HAVING COUNT(*) >= {t}"),
            2 => format!(
                "SELECT grp, COUNT(*), SUM(v) FROM m WHERE v BETWEEN {lo} AND {} GROUP BY grp",
                lo + width
            ),
            _ => format!("SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY 2 DESC, 1 LIMIT {k}"),
        };
        // Every shape's second column is COUNT(*), at least 1 or the HAVING
        // threshold.
        let min_count = if shape == 1 { t } else { 1 };
        let (dbs, oracle) = population(&readings(g));
        let query = parse_query(&sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let expected_sorted = sorted(expected.clone());
        let seed = g.int(0..1000u64);
        for kind in [
            ProtocolKind::SAgg,
            ProtocolKind::RnfNoise { nf: 3 },
            ProtocolKind::CNoise,
            ProtocolKind::EdHist { buckets: 2 },
        ] {
            let rows = run(&dbs, seed, kind, &query);
            let label = format!("{} :: {sql}", kind.name());
            for row in &rows {
                assert!(
                    matches!(row[1], Value::Int(c) if c >= min_count),
                    "{label}: {row:?}"
                );
            }
            if shape == 3 {
                assert_eq!(rows, expected, "{label}");
            } else {
                assert_eq!(sorted(rows), expected_sorted, "{label}");
            }
        }
    });
}

/// The basic protocol's distributed WHERE agrees with the oracle.
#[test]
fn basic_agrees_with_oracle() {
    cases("basic_agrees_with_oracle", 64, |g| {
        let sql = format!("SELECT grp, v FROM m WHERE v > {}", g.int(-60..60i64));
        let (dbs, oracle) = population(&readings(g));
        let query = parse_query(&sql).unwrap();
        let rows = run(&dbs, g.int(0..1000u64), ProtocolKind::Basic, &query);
        let expected = execute(&oracle, &query).unwrap().rows;
        assert_eq!(sorted(rows), sorted(expected), "{sql}");
    });
}

/// `Ω ⊕ Ω` is partition- and order-invariant: any split of the input into
/// partials, each shipped through the state codec and merged in any tree
/// order, finalizes to the single-pass answer. AVG, VARIANCE and STDDEV
/// merge floats, whose last ulp depends on merge order; they wait on
/// ROADMAP's *Exact aggregation* item.
#[test]
fn exact_aggregate_merge_is_partition_and_order_invariant() {
    use AggFunc::{Count, Max, Median, Min, Mode, Sum};
    cases("exact_aggregate_merge", 2048, |g| {
        let spec = AggSpec {
            func: g.pick(&[Count, Sum, Min, Max, Median, Mode]),
            distinct: g.bool(),
        };
        let values = g.vec(0..41, |g| match g.int(0..10) {
            0 => Value::Null,
            _ => Value::Int(g.int(-50..50i64)),
        });
        let mut single = spec.init();
        let mut parts = vec![spec.init(); g.int(1..6usize)];
        for v in &values {
            single.update(v).unwrap();
            let i = g.int(0..parts.len());
            parts[i].update(v).unwrap();
        }
        let mut parts: Vec<AggState> = parts
            .iter()
            .map(|p| {
                let (mut buf, mut pos) = (Vec::new(), 0);
                p.encode(&mut buf);
                let decoded = AggState::decode(&buf, &mut pos).unwrap();
                assert_eq!(pos, buf.len());
                decoded
            })
            .collect();
        while parts.len() > 1 {
            let right = parts.swap_remove(g.int(0..parts.len()));
            let i = g.int(0..parts.len());
            parts[i].merge(&right).unwrap();
        }
        assert_eq!(
            parts[0].finalize(&spec).unwrap(),
            single.finalize(&spec).unwrap(),
            "{spec:?} over {values:?}"
        );
    });
}

// ---------------------------------------------------------------------------
// Codecs and ciphers
// ---------------------------------------------------------------------------

/// Wire codecs round-trip under arbitrary values and paddings. Payloads that
/// outgrow the pad are *rejected* (`PadTooSmall`) rather than sent unpadded.
#[test]
fn codec_roundtrips() {
    let too_small = |e: ProtocolError, pad: usize| {
        assert!(
            matches!(e, ProtocolError::PadTooSmall { needed, pad: p } if p == pad && needed > pad),
            "{e}"
        )
    };
    cases("codec_roundtrips", 256, |g| {
        let mut values = g.vec(0..6, |g| Value::Int(g.0.next_u64() as i64));
        values.push(Value::Str(g.string(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
            0..25,
        )));
        values.push(Value::Null);
        let pad = g.int(0..200usize);

        let t = PlainTuple::Row(values.clone());
        match t.encode(pad) {
            Ok(bytes) => assert_eq!(PlainTuple::decode(&bytes).unwrap(), t),
            Err(e) => too_small(e, pad),
        }
        let a = AggInput {
            key: GroupKey::from_values(&values),
            inputs: values.clone(),
            fake: g.bool(),
        };
        match a.encode(pad) {
            Ok(bytes) => assert_eq!(AggInput::decode(&bytes).unwrap(), a),
            Err(e) => too_small(e, pad),
        }
        let r = ResultRow(values);
        assert_eq!(ResultRow::decode(&r.encode().unwrap()).unwrap(), r);
    });
}

/// The canonical GroupKey encoding is injective and inverts to its values.
#[test]
fn group_key_injective() {
    cases("group_key_injective", 256, |g| {
        let ints = |g: &mut Gen| g.vec(0..4, |g| Value::Int(g.int(-100..100i64)));
        let (va, vb) = (ints(g), ints(g));
        let (ka, kb) = (GroupKey::from_values(&va), GroupKey::from_values(&vb));
        assert_eq!(ka == kb, va == vb);
        assert_eq!(ka.to_values(), va);
    });
}

/// nDet encryption round-trips and never repeats a ciphertext.
#[test]
fn ndet_roundtrip_and_unique() {
    let cipher = NDetCipher::new(&SymKey::derive(b"prop", "test"));
    cases("ndet_roundtrip_and_unique", 256, |g| {
        let data = g.bytes(0..300);
        let mut rng = StdRng::seed_from_u64(1);
        let c1 = cipher.encrypt(&mut rng, &data);
        let c2 = cipher.encrypt(&mut rng, &data);
        assert_ne!(c1, c2);
        assert_eq!(cipher.decrypt(&c1).unwrap(), data);
        assert_eq!(cipher.decrypt(&c2).unwrap(), data);
    });
}

/// Det encryption is a deterministic injection.
#[test]
fn det_deterministic_injective() {
    let cipher = DetCipher::new(&SymKey::derive(b"prop", "det"));
    cases("det_deterministic_injective", 256, |g| {
        let (a, b) = (g.bytes(0..100), g.bytes(0..100));
        assert_eq!(cipher.encrypt(&a), cipher.encrypt(&a));
        assert_eq!(cipher.encrypt(&a) == cipher.encrypt(&b), a == b);
        assert_eq!(cipher.decrypt(&cipher.encrypt(&a)).unwrap(), a);
    });
}

// ---------------------------------------------------------------------------
// SQL front end: any AST we can print re-parses to itself
// ---------------------------------------------------------------------------

/// Reserved words of the dialect — not valid bare identifiers.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "size", "tuples", "rounds", "as",
    "distinct", "and", "or", "not", "is", "in", "between", "like", "null", "true", "false",
    "order", "limit", "asc", "desc",
];

/// `[a-z][a-z0-9_]{0,max_tail}`, never a reserved word.
fn ident(g: &mut Gen, max_tail: usize) -> String {
    loop {
        let s = g.string("abcdefghijklmnopqrstuvwxyz", 1..2)
            + &g.string("abcdefghijklmnopqrstuvwxyz0123456789_", 0..max_tail + 1);
        if !RESERVED.contains(&s.as_str()) {
            return s;
        }
    }
}

fn literal(g: &mut Gen) -> Value {
    match g.int(0..5) {
        0 => Value::Null,
        1 => Value::Int(g.int(-1_000_000..1_000_000i64)),
        // Finite, non-exponential floats that Display round-trips exactly.
        2 => Value::Float(f64::from(g.int(-1000..1000i32)) / 4.0),
        3 => Value::Str(g.string("abcdefghijklmnopqrstuvwxyz '", 0..13)),
        _ => Value::Bool(g.bool()),
    }
}

fn column(g: &mut Gen) -> ColumnRef {
    ColumnRef {
        table: g.option(|g| ident(g, 6)),
        column: ident(g, 8),
    }
}

/// Scalar (non-aggregate) expressions at most `depth` operators deep.
fn scalar_expr(g: &mut Gen, depth: u32) -> Expr {
    use BinOp::*;
    if depth == 0 || g.int(0..4) == 0 {
        return match g.bool() {
            true => Expr::Literal(literal(g)),
            false => Expr::Column(column(g)),
        };
    }
    let sub = |g: &mut Gen| Box::new(scalar_expr(g, depth - 1));
    match g.int(0..6) {
        0 => Expr::Binary {
            left: sub(g),
            op: g.pick(&[
                Or, And, Eq, NotEq, Lt, LtEq, Gt, GtEq, Add, Sub, Mul, Div, Mod,
            ]),
            right: sub(g),
        },
        1 => Expr::IsNull {
            expr: sub(g),
            negated: g.bool(),
        },
        2 => Expr::Unary {
            op: UnaryOp::Not,
            expr: sub(g),
        },
        // Negation of numeric literals folds in the parser, so negate only
        // column references (which never fold).
        3 => Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::Column(column(g))),
        },
        4 => Expr::InList {
            expr: sub(g),
            list: g.vec(1..4, |g| scalar_expr(g, depth - 1)),
            negated: g.bool(),
        },
        _ => Expr::Like {
            expr: sub(g),
            pattern: g.string("abcdefghijklmnopqrstuvwxyz%_", 0..9),
            negated: g.bool(),
        },
    }
}

fn agg_call(g: &mut Gen) -> AggCall {
    use AggFunc::*;
    let func = g.pick(&[Count, Sum, Min, Max, Avg, Variance, StdDev, Median, Mode]);
    // COUNT may be star; everything else needs an argument.
    let arg = match (func, g.option(|g| scalar_expr(g, 3))) {
        (Count, None) => None,
        (_, arg) => Some(Box::new(
            arg.unwrap_or_else(|| Expr::Column(ColumnRef::bare("x"))),
        )),
    };
    AggCall {
        func,
        arg,
        distinct: g.bool(),
    }
}

fn query(g: &mut Gen) -> Query {
    let select = g.vec(1..4, |g| match g.int(0..5) {
        0..=2 => SelectItem::Expr {
            expr: scalar_expr(g, 3),
            alias: None,
        },
        3 => SelectItem::Expr {
            expr: Expr::Aggregate(agg_call(g)),
            alias: None,
        },
        _ => SelectItem::Wildcard,
    });
    let from = g.vec(1..3, |g| TableRef {
        table: ident(g, 6),
        alias: g.option(|g| ident(g, 4)),
    });
    Query {
        select,
        from,
        where_clause: g.option(|g| scalar_expr(g, 3)),
        group_by: g.vec(0..3, |g| scalar_expr(g, 3)),
        having: None,
        order_by: vec![],
        limit: None,
        size: g.option(|g| SizeClause {
            max_tuples: Some(g.option(|g| g.int(0..100_000u64)).unwrap_or(1)),
            max_rounds: g.bool().then_some(5),
        }),
    }
}

fn assert_expr_reparses(e: Expr) {
    let printed = e.to_string();
    let reparsed =
        parse_expr(&printed).unwrap_or_else(|err| panic!("{printed:?} failed to reparse: {err}"));
    assert_eq!(reparsed, e, "printed: {printed}");
}

#[test]
fn expr_display_reparses() {
    // Pinned regression: a quote inside a string literal.
    assert_expr_reparses(Expr::Literal(Value::Str("'".into())));
    cases("expr_display_reparses", 2048, |g| {
        assert_expr_reparses(scalar_expr(g, 3))
    });
}

#[test]
fn aggregate_display_reparses() {
    // Pinned regression: a negative literal argument.
    assert_expr_reparses(Expr::Aggregate(AggCall {
        func: AggFunc::Count,
        arg: Some(Box::new(Expr::Literal(Value::Int(-1)))),
        distinct: false,
    }));
    cases("aggregate_display_reparses", 2048, |g| {
        assert_expr_reparses(Expr::Aggregate(agg_call(g)))
    });
}

#[test]
fn query_display_reparses() {
    cases("query_display_reparses", 2048, |g| {
        let q = query(g);
        let printed = q.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|err| panic!("{printed:?} failed to reparse: {err}"));
        assert_eq!(reparsed, q, "printed: {printed}");
    });
}

/// The tokenizer never panics on arbitrary non-control text (surrogates and
/// control characters drawn are dropped).
#[test]
fn tokenizer_total() {
    cases("tokenizer_total", 256, |g| {
        let chars = g.vec(0..65, |g| char::from_u32(g.int(0x20..0x11_0000u32)));
        let input: String = chars
            .into_iter()
            .flatten()
            .filter(|c| !c.is_control())
            .collect();
        let _ = tokenize(&input);
    });
}

/// The parser never panics on arbitrary token soup.
#[test]
fn parser_total() {
    cases("parser_total", 256, |g| {
        let input = g.string(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,.()*'<>=!+%/-",
            0..65,
        );
        let _ = parse_query(&input);
        let _ = parse_expr(&input);
    });
}

// ---------------------------------------------------------------------------
// Exposure analysis: on any table, ε respects its bounds and the scheme
// ordering of Section 5
// ---------------------------------------------------------------------------

/// 1-3 columns of 1-40 rows, over a small alphabet so frequency classes form.
fn plain_table(g: &mut Gen) -> PlainTable {
    let n_rows = g.int(1..41usize);
    let cells = |g: &mut Gen| g.vec(n_rows..n_rows + 1, |g| g.string("abcde", 1..3));
    let n_cols = g.int(1..4usize);
    let columns = (0..n_cols).map(|i| PlainColumn::new(format!("c{i}"), cells(g)));
    PlainTable::new(columns.collect())
}

fn epsilon(table: &PlainTable, scheme: ColumnScheme) -> f64 {
    exposure_coefficient(table, &vec![scheme; table.n_cols()]).epsilon
}

/// ε ∈ [Π 1/N_j, 1] for every scheme.
#[test]
fn epsilon_bounds() {
    cases("epsilon_bounds", 64, |g| {
        let table = plain_table(g);
        let scheme = g.pick(&[
            ColumnScheme::Plaintext,
            ColumnScheme::NDet,
            ColumnScheme::Det,
            ColumnScheme::RnfNoise { nf: 3, seed: 5 },
            ColumnScheme::CNoise,
            ColumnScheme::EdHist { buckets: 3 },
        ]);
        let eps = epsilon(&table, scheme);
        let distinct: Vec<usize> = table.columns.iter().map(PlainColumn::distinct).collect();
        let floor = epsilon_ndet(&distinct);
        assert!(eps <= 1.0 + 1e-12, "ε = {eps}");
        assert!(eps >= floor - 1e-12, "ε = {eps} below floor {floor}");
    });
}

/// Det is never more private than nDet, plaintext never more private than
/// Det, and C_Noise is exactly the floor.
#[test]
fn scheme_ordering() {
    cases("scheme_ordering", 64, |g| {
        let table = plain_table(g);
        let ndet = epsilon(&table, ColumnScheme::NDet);
        let det = epsilon(&table, ColumnScheme::Det);
        assert!(ndet <= det + 1e-12);
        assert!(det <= epsilon(&table, ColumnScheme::Plaintext) + 1e-12);
        assert!((epsilon(&table, ColumnScheme::CNoise) - ndet).abs() < 1e-12);
    });
}

/// ED_Hist with one bucket is the floor; with enough buckets that the greedy
/// walk closes per value (target depth ≤ 1) it equals Det.
#[test]
fn ed_hist_extremes() {
    cases("ed_hist_extremes", 64, |g| {
        let table = plain_table(g);
        let floor = epsilon(&table, ColumnScheme::NDet);
        let one_bucket = epsilon(&table, ColumnScheme::EdHist { buckets: 1 });
        assert!((one_bucket - floor).abs() < 1e-12);
        // A column never has more distinct values than rows.
        let buckets = table.n_rows() as u32;
        let det = epsilon(&table, ColumnScheme::Det);
        let h1 = epsilon(&table, ColumnScheme::EdHist { buckets });
        assert!((h1 - det).abs() < 1e-12, "h1 {h1} vs det {det}");
    });
}
