//! Expression evaluation with SQL three-valued logic.

use crate::ast::{AggCall, BinOp, ColumnRef, Expr, UnaryOp};
use crate::error::{Result, SqlError};
use crate::schema::TableSchema;
use crate::value::Value;

/// A row environment: one or more bound relations (the FROM list after the
/// local join) with the current row of each.
///
/// The first binding is held inline, so the environment of a one-table FROM
/// (every TDS's collection scan, and every finished group) allocates
/// nothing; a join's further bindings go to `rest`.
pub struct RowEnv<'a> {
    first: Option<Binding<'a>>,
    rest: Vec<Binding<'a>>,
}

struct Binding<'a> {
    name: &'a str,
    schema: &'a TableSchema,
    row: &'a [Value],
}

impl<'a> RowEnv<'a> {
    /// Empty environment (constants only).
    pub fn empty() -> Self {
        Self {
            first: None,
            rest: Vec::new(),
        }
    }

    /// Environment over a single relation.
    pub fn single(name: &'a str, schema: &'a TableSchema, row: &'a [Value]) -> Self {
        let mut env = Self::empty();
        env.push(name, schema, row);
        env
    }

    /// Bind one more relation (join environments push several).
    pub fn push(&mut self, name: &'a str, schema: &'a TableSchema, row: &'a [Value]) {
        let binding = Binding { name, schema, row };
        if self.first.is_none() {
            self.first = Some(binding);
        } else {
            self.rest.push(binding);
        }
    }

    fn bindings(&self) -> impl Iterator<Item = &Binding<'a>> {
        self.first.iter().chain(&self.rest)
    }

    /// Resolve a column reference to its current value.
    pub fn resolve(&self, col: &ColumnRef) -> Result<Value> {
        self.resolve_ref(col).cloned()
    }

    /// Resolve a column reference to the value in the bound row, borrowed:
    /// no copy of a string value. Same resolution and errors as
    /// [`Self::resolve`]: a qualified reference names its binding, an
    /// unqualified one must match a column of exactly one binding.
    pub fn resolve_ref(&self, col: &ColumnRef) -> Result<&'a Value> {
        match &col.table {
            Some(binding_name) => {
                let b = self
                    .bindings()
                    .find(|b| b.name == binding_name)
                    .ok_or_else(|| SqlError::UnknownTable(binding_name.clone()))?;
                let idx = b.schema.column_index(&col.column).ok_or_else(|| {
                    SqlError::UnknownColumn(format!("{binding_name}.{}", col.column))
                })?;
                Ok(&b.row[idx])
            }
            None => {
                let mut found: Option<&'a Value> = None;
                for b in self.bindings() {
                    if let Some(idx) = b.schema.column_index(&col.column) {
                        if found.is_some() {
                            return Err(SqlError::AmbiguousColumn(col.column.clone()));
                        }
                        found = Some(&b.row[idx]);
                    }
                }
                found.ok_or_else(|| SqlError::UnknownColumn(col.column.clone()))
            }
        }
    }
}

/// How aggregate sub-expressions are supplied during evaluation.
///
/// Scalar contexts (WHERE) pass [`AggContext::Forbidden`]; the group-by
/// evaluator passes the computed values for the group at hand.
pub enum AggContext<'a> {
    /// Aggregates are illegal here (e.g. the WHERE clause).
    Forbidden,
    /// Aggregates resolve by structural lookup into the computed list.
    Values(&'a [(AggCall, Value)]),
}

/// Evaluate an expression against a row environment.
pub fn eval(expr: &Expr, env: &RowEnv<'_>, aggs: &AggContext<'_>) -> Result<Value> {
    match expr {
        Expr::Column(c) => env.resolve(c),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Unary { op, expr } => {
            let v = eval(expr, env, aggs)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(i.checked_neg().ok_or(SqlError::Type {
                        message: "integer negation overflow".into(),
                    })?)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(SqlError::Type {
                        message: format!("cannot negate {other}"),
                    }),
                },
                UnaryOp::Not => match v.as_bool3()? {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Bool(!b)),
                },
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, env, aggs),
        Expr::Aggregate(call) => match aggs {
            AggContext::Forbidden => Err(SqlError::Aggregate {
                message: format!("aggregate {} not allowed in this context", call.func.name()),
            }),
            AggContext::Values(values) => values
                .iter()
                .find(|(c, _)| c == call)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| SqlError::Aggregate {
                    message: format!(
                        "aggregate {} was not computed for this group",
                        call.func.name()
                    ),
                }),
        },
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, env, aggs)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, env, aggs)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let candidate = eval(item, env, aggs)?;
                match v.sql_eq(&candidate) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, env, aggs)?;
            let lo = eval(low, env, aggs)?;
            let hi = eval(high, env, aggs)?;
            let ge_lo = compare(&v, BinOp::GtEq, &lo)?;
            let le_hi = compare(&v, BinOp::LtEq, &hi)?;
            let both = and3(ge_lo, le_hi);
            Ok(match both {
                None => Value::Null,
                Some(b) => Value::Bool(b != *negated),
            })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, env, aggs)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(like_match(pattern, &s) != *negated)),
                other => Err(SqlError::Type {
                    message: format!("LIKE expects text, got {other}"),
                }),
            }
        }
    }
}

/// Evaluate a predicate: NULL (unknown) does not select the row.
pub fn eval_predicate(expr: &Expr, env: &RowEnv<'_>, aggs: &AggContext<'_>) -> Result<bool> {
    Ok(eval(expr, env, aggs)?.as_bool3()?.unwrap_or(false))
}

fn eval_binary(
    left: &Expr,
    op: BinOp,
    right: &Expr,
    env: &RowEnv<'_>,
    aggs: &AggContext<'_>,
) -> Result<Value> {
    // AND/OR get three-valued short-circuit treatment.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = eval(left, env, aggs)?.as_bool3()?;
        // Short circuit where the result is already decided.
        match (op, l) {
            (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = eval(right, env, aggs)?.as_bool3()?;
        let out = match op {
            BinOp::And => and3(l, r),
            BinOp::Or => or3(l, r),
            _ => unreachable!(),
        };
        return Ok(out.map_or(Value::Null, Value::Bool));
    }

    let l = eval(left, env, aggs)?;
    let r = eval(right, env, aggs)?;
    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            Ok(compare(&l, op, &r)?.map_or(Value::Null, Value::Bool))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(&l, op, &r),
        BinOp::And | BinOp::Or => unreachable!(),
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn compare(l: &Value, op: BinOp, r: &Value) -> Result<Option<bool>> {
    if l.is_null() || r.is_null() {
        return Ok(None);
    }
    let ord = l.sql_cmp(r).ok_or_else(|| SqlError::Type {
        message: format!("cannot compare {l} with {r}"),
    })?;
    Ok(Some(match op {
        BinOp::Eq => ord == std::cmp::Ordering::Equal,
        BinOp::NotEq => ord != std::cmp::Ordering::Equal,
        BinOp::Lt => ord == std::cmp::Ordering::Less,
        BinOp::LtEq => ord != std::cmp::Ordering::Greater,
        BinOp::Gt => ord == std::cmp::Ordering::Greater,
        BinOp::GtEq => ord != std::cmp::Ordering::Less,
        _ => unreachable!(),
    }))
}

fn arith(l: &Value, op: BinOp, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let out = match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                BinOp::Mul => a.checked_mul(*b),
                BinOp::Div => {
                    if *b == 0 {
                        return Err(SqlError::DivisionByZero);
                    }
                    a.checked_div(*b)
                }
                BinOp::Mod => {
                    if *b == 0 {
                        return Err(SqlError::DivisionByZero);
                    }
                    a.checked_rem(*b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int).ok_or(SqlError::Type {
                message: "integer overflow".into(),
            })
        }
        _ => {
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::DivisionByZero);
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        return Err(SqlError::DivisionByZero);
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (single char).
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => {
                // Try consuming 0..=len chars of t.
                (0..=t.len()).any(|k| rec(rest, &t[k..]))
            }
            Some(('_', rest)) => !t.is_empty() && rec(rest, &t[1..]),
            Some((c, rest)) => t.first() == Some(c) && rec(rest, &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    rec(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::schema::{Column, TableSchema};
    use crate::value::DataType;

    fn env_for<'a>(schema: &'a TableSchema, row: &'a [Value]) -> RowEnv<'a> {
        RowEnv::single("t", schema, row)
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Float),
                Column::new("s", DataType::Str),
                Column::new("n", DataType::Int),
            ],
        )
    }

    fn eval_str(sql: &str, schema: &TableSchema, row: &[Value]) -> Result<Value> {
        let e = parse_expr(sql)?;
        let env = env_for_static(schema, row);
        eval(&e, &env, &AggContext::Forbidden)
    }

    fn env_for_static<'a>(schema: &'a TableSchema, row: &'a [Value]) -> RowEnv<'a> {
        env_for(schema, row)
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Float(2.5),
            Value::Str("Paris".into()),
            Value::Null,
        ]
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = schema();
        let r = row();
        assert_eq!(eval_str("a + 5", &s, &r).unwrap(), Value::Int(15));
        assert_eq!(eval_str("a * b", &s, &r).unwrap(), Value::Float(25.0));
        assert_eq!(eval_str("a / 4", &s, &r).unwrap(), Value::Int(2));
        assert_eq!(eval_str("a % 3", &s, &r).unwrap(), Value::Int(1));
        assert_eq!(
            eval_str("a > 5 AND b < 3.0", &s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("a / 0", &s, &r), Err(SqlError::DivisionByZero));
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        let r = row();
        // n is NULL.
        assert_eq!(eval_str("n = 1", &s, &r).unwrap(), Value::Null);
        assert_eq!(
            eval_str("n = 1 OR TRUE", &s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("n = 1 AND FALSE", &s, &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(eval_str("NOT (n = 1)", &s, &r).unwrap(), Value::Null);
        assert_eq!(eval_str("n IS NULL", &s, &r).unwrap(), Value::Bool(true));
        assert_eq!(
            eval_str("n IS NOT NULL", &s, &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(eval_str("n + 1", &s, &r).unwrap(), Value::Null);
    }

    #[test]
    fn null_predicate_does_not_select() {
        let s = schema();
        let r = row();
        let e = parse_expr("n = 1").unwrap();
        let env = env_for(&s, &r);
        assert!(!eval_predicate(&e, &env, &AggContext::Forbidden).unwrap());
    }

    #[test]
    fn in_list_with_nulls() {
        let s = schema();
        let r = row();
        assert_eq!(eval_str("a IN (1, 10)", &s, &r).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("a IN (1, 2)", &s, &r).unwrap(), Value::Bool(false));
        assert_eq!(eval_str("a IN (1, n)", &s, &r).unwrap(), Value::Null);
        assert_eq!(
            eval_str("a NOT IN (1, 2)", &s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("n IN (1)", &s, &r).unwrap(), Value::Null);
    }

    #[test]
    fn between_and_like() {
        let s = schema();
        let r = row();
        assert_eq!(
            eval_str("a BETWEEN 5 AND 15", &s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("a NOT BETWEEN 5 AND 15", &s, &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(eval_str("s LIKE 'P%'", &s, &r).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("s LIKE 'p%'", &s, &r).unwrap(), Value::Bool(false));
        assert_eq!(
            eval_str("s LIKE '_aris'", &s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("s LIKE '%ris'", &s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("s NOT LIKE 'Lyon'", &s, &r).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a_c", "ac"));
        assert!(like_match("100%", "100"));
        assert!(!like_match("100", "100%"));
    }

    #[test]
    fn aggregates_forbidden_in_where() {
        let s = schema();
        let r = row();
        assert!(matches!(
            eval_str("COUNT(*) > 1", &s, &r),
            Err(SqlError::Aggregate { .. })
        ));
    }

    #[test]
    fn aggregate_lookup_by_structure() {
        let call = AggCall {
            func: crate::ast::AggFunc::Count,
            arg: None,
            distinct: false,
        };
        let values = vec![(call.clone(), Value::Int(7))];
        let e = parse_expr("COUNT(*) + 1").unwrap();
        let env = RowEnv::empty();
        assert_eq!(
            eval(&e, &env, &AggContext::Values(&values)).unwrap(),
            Value::Int(8)
        );
    }

    #[test]
    fn unknown_and_ambiguous_columns() {
        let s = schema();
        let r = row();
        assert!(matches!(
            eval_str("zz", &s, &r),
            Err(SqlError::UnknownColumn(_))
        ));
        // Ambiguity: same column name in two bindings.
        let s2 = schema();
        let r1 = row();
        let r2 = row();
        let mut env = RowEnv::single("x", &s, &r1);
        env.push("y", &s2, &r2);
        let e = parse_expr("a").unwrap();
        assert!(matches!(
            eval(&e, &env, &AggContext::Forbidden),
            Err(SqlError::AmbiguousColumn(_))
        ));
        let e = parse_expr("x.a").unwrap();
        assert_eq!(
            eval(&e, &env, &AggContext::Forbidden).unwrap(),
            Value::Int(10)
        );
    }

    #[test]
    fn overflow_detected() {
        let s = schema();
        let r = row();
        assert!(matches!(
            eval_str("9223372036854775807 + 1", &s, &r),
            Err(SqlError::Type { .. })
        ));
    }
}
