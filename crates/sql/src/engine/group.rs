//! Aggregate planning and group evaluation.
//!
//! [`AggregatePlan`] is the piece both the trusted reference executor and the
//! distributed protocols share. It splits an aggregate query into exactly the
//! artefacts the protocols ship around:
//!
//! * a **group key** (the `A_G` of the paper) computed per input row,
//! * per-row **aggregate inputs** feeding mergeable [`AggState`]s,
//! * a **finalization** step evaluating SELECT and HAVING over the finished
//!   group — the filtering phase of the protocols.

use std::collections::BTreeMap;

use crate::aggregate::{AggSpec, AggState};
use crate::ast::{AggCall, ColumnRef, Expr, Query, SelectItem};
use crate::engine::join::JoinedRelation;
use crate::engine::table::Database;
use crate::error::{Result, SqlError};
use crate::expr::{eval, eval_predicate, AggContext, RowEnv};
use crate::schema::{Column, TableSchema};
use crate::value::{DataType, GroupKey, Value};

/// Plan for executing an aggregate query (GROUP BY and/or aggregates).
#[derive(Debug, Clone)]
pub struct AggregatePlan {
    /// Grouping expressions, evaluated per input row.
    pub group_exprs: Vec<Expr>,
    /// Deduplicated aggregate calls from SELECT and HAVING.
    pub agg_calls: Vec<AggCall>,
    /// Specs parallel to `agg_calls`.
    pub specs: Vec<AggSpec>,
    select: Vec<SelectItem>,
    having: Option<Expr>,
    group_schema: TableSchema,
    output_columns: Vec<String>,
}

fn group_col_name(i: usize) -> String {
    format!("__g{i}")
}

/// Does a SELECT/HAVING subexpression refer to grouping expression `g`?
/// Structural equality, with one convenience: a column reference matches a
/// grouping column when the column names agree and at most one side is
/// qualified (`district` matches `GROUP BY c.district`).
fn matches_group(expr: &Expr, g: &Expr) -> bool {
    if expr == g {
        return true;
    }
    match (expr, g) {
        (Expr::Column(a), Expr::Column(b)) => {
            a.column == b.column && (a.table.is_none() || b.table.is_none() || a.table == b.table)
        }
        _ => false,
    }
}

/// Rewrite SELECT/HAVING expressions: grouping expressions become references
/// to the synthetic group columns; aggregate arguments are left untouched
/// (they are evaluated per input row, not per group).
fn rewrite(expr: &Expr, group_exprs: &[Expr]) -> Expr {
    for (i, g) in group_exprs.iter().enumerate() {
        if matches_group(expr, g) {
            return Expr::Column(ColumnRef::bare(group_col_name(i)));
        }
    }
    match expr {
        Expr::Aggregate(_) | Expr::Column(_) | Expr::Literal(_) => expr.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite(expr, group_exprs)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite(left, group_exprs)),
            op: *op,
            right: Box::new(rewrite(right, group_exprs)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite(expr, group_exprs)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite(expr, group_exprs)),
            list: list.iter().map(|e| rewrite(e, group_exprs)).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite(expr, group_exprs)),
            low: Box::new(rewrite(low, group_exprs)),
            high: Box::new(rewrite(high, group_exprs)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite(expr, group_exprs)),
            pattern: pattern.clone(),
            negated: *negated,
        },
    }
}

/// Check that a rewritten SELECT/HAVING expression only references synthetic
/// group columns outside aggregate calls.
fn check_grouped(expr: &Expr) -> Result<()> {
    match expr {
        Expr::Column(c) => {
            if c.table.is_none() && c.column.starts_with("__g") {
                Ok(())
            } else {
                Err(SqlError::Aggregate {
                    message: format!(
                        "column {} must appear in GROUP BY or inside an aggregate",
                        c.column
                    ),
                })
            }
        }
        Expr::Literal(_) | Expr::Aggregate(_) => Ok(()),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            check_grouped(expr)
        }
        Expr::Binary { left, right, .. } => {
            check_grouped(left)?;
            check_grouped(right)
        }
        Expr::InList { expr, list, .. } => {
            check_grouped(expr)?;
            list.iter().try_for_each(check_grouped)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            check_grouped(expr)?;
            check_grouped(low)?;
            check_grouped(high)
        }
    }
}

impl AggregatePlan {
    /// Build the plan for an aggregate query.
    pub fn new(q: &Query) -> Result<Self> {
        if !q.is_aggregate() {
            return Err(SqlError::Aggregate {
                message: "query has no GROUP BY or aggregate functions".into(),
            });
        }
        // Collect aggregate calls from SELECT and HAVING, deduplicated.
        let mut agg_calls: Vec<AggCall> = Vec::new();
        let mut push_aggs = |expr: &Expr| {
            let mut found = Vec::new();
            expr.collect_aggregates(&mut found);
            for call in found {
                if !agg_calls.contains(call) {
                    agg_calls.push(call.clone());
                }
            }
        };
        for item in &q.select {
            match item {
                SelectItem::Wildcard => {
                    return Err(SqlError::Aggregate {
                        message: "SELECT * is not valid in an aggregate query".into(),
                    })
                }
                SelectItem::Expr { expr, .. } => push_aggs(expr),
            }
        }
        if let Some(h) = &q.having {
            push_aggs(h);
        }
        if agg_calls
            .iter()
            .any(|c| c.arg.as_ref().is_some_and(|a| a.contains_aggregate()))
        {
            return Err(SqlError::Aggregate {
                message: "nested aggregates".into(),
            });
        }

        let group_exprs = q.group_by.clone();
        // Synthetic relation holding the grouping values of one group.
        // Types are nominal (resolution is by name only; values carry their
        // own runtime types).
        let group_schema = TableSchema::new(
            "__group",
            (0..group_exprs.len())
                .map(|i| Column::new(group_col_name(i), DataType::Str))
                .collect(),
        );

        let select: Vec<SelectItem> = q
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => unreachable!("rejected above"),
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: rewrite(expr, &group_exprs),
                    alias: alias.clone(),
                },
            })
            .collect();
        let having = q.having.as_ref().map(|h| rewrite(h, &group_exprs));
        for item in &select {
            if let SelectItem::Expr { expr, .. } = item {
                check_grouped(expr)?;
            }
        }
        if let Some(h) = &having {
            check_grouped(h)?;
        }

        let output_columns = q
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => unreachable!(),
                SelectItem::Expr { expr, alias } => {
                    alias.clone().unwrap_or_else(|| expr.to_string())
                }
            })
            .collect();

        let specs = agg_calls.iter().map(AggSpec::from_call).collect();
        Ok(Self {
            group_exprs,
            agg_calls,
            specs,
            select,
            having,
            group_schema,
            output_columns,
        })
    }

    /// Output column names.
    pub fn output_columns(&self) -> &[String] {
        &self.output_columns
    }

    /// Evaluate the group key for one input row.
    ///
    /// The same bytes as [`GroupKey::from_values`] over the evaluated
    /// grouping expressions, encoded straight into the key: a grouping
    /// column is read in place, so a string value is not copied first.
    pub fn group_key(&self, env: &RowEnv<'_>) -> Result<GroupKey> {
        fn put(key: &mut Vec<u8>, v: &Value) {
            key.reserve(v.canonical_len());
            v.canonical_bytes(key);
        }
        let mut key = Vec::new();
        for g in &self.group_exprs {
            match g {
                Expr::Column(c) => put(&mut key, env.resolve_ref(c)?),
                _ => put(&mut key, &eval(g, env, &AggContext::Forbidden)?),
            }
        }
        Ok(GroupKey(key))
    }

    /// Evaluate the aggregate-input values for one input row: one value per
    /// aggregate slot (`COUNT(*)` gets a non-NULL marker).
    pub fn agg_inputs(&self, env: &RowEnv<'_>) -> Result<Vec<Value>> {
        let mut inputs = Vec::with_capacity(self.agg_calls.len());
        for call in &self.agg_calls {
            let v = match &call.arg {
                None => Value::Bool(true),
                Some(arg) => eval(arg, env, &AggContext::Forbidden)?,
            };
            inputs.push(v);
        }
        Ok(inputs)
    }

    /// Fresh per-group state vector.
    pub fn init_states(&self) -> Vec<AggState> {
        self.specs.iter().map(AggSpec::init).collect()
    }

    /// Feed one row's inputs into a group's states.
    pub fn update_states(&self, states: &mut [AggState], inputs: &[Value]) -> Result<()> {
        debug_assert_eq!(states.len(), inputs.len());
        for (st, v) in states.iter_mut().zip(inputs.iter()) {
            st.update(v)?;
        }
        Ok(())
    }

    /// Merge two state vectors (`⊕`).
    pub fn merge_states(&self, into: &mut [AggState], from: &[AggState]) -> Result<()> {
        debug_assert_eq!(into.len(), from.len());
        for (a, b) in into.iter_mut().zip(from.iter()) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Evaluate HAVING for a finished group. This is the protocols' filtering
    /// phase (step 11 for Group By queries).
    pub fn having_passes(&self, key: &GroupKey, states: &[AggState]) -> Result<bool> {
        let Some(having) = &self.having else {
            return Ok(true);
        };
        let group_vals = key.to_values();
        let env = RowEnv::single("__group", &self.group_schema, &group_vals);
        let agg_values = self.finalized_agg_values(states)?;
        eval_predicate(having, &env, &AggContext::Values(&agg_values))
    }

    /// Project the SELECT list for a finished group.
    pub fn project(&self, key: &GroupKey, states: &[AggState]) -> Result<Vec<Value>> {
        let group_vals = key.to_values();
        let env = RowEnv::single("__group", &self.group_schema, &group_vals);
        let agg_values = self.finalized_agg_values(states)?;
        let mut out = Vec::with_capacity(self.select.len());
        for item in &self.select {
            if let SelectItem::Expr { expr, .. } = item {
                out.push(eval(expr, &env, &AggContext::Values(&agg_values))?);
            }
        }
        Ok(out)
    }

    fn finalized_agg_values(&self, states: &[AggState]) -> Result<Vec<(AggCall, Value)>> {
        debug_assert_eq!(states.len(), self.agg_calls.len());
        self.agg_calls
            .iter()
            .zip(self.specs.iter())
            .zip(states.iter())
            .map(|((call, spec), st)| Ok((call.clone(), st.finalize(spec)?)))
            .collect()
    }
}

/// Centralised (trusted, single-node) execution of an aggregate query over a
/// database. The distributed protocols must return exactly what this does —
/// it is the correctness oracle for every end-to-end test.
pub fn execute_aggregate(db: &Database, q: &Query) -> Result<Vec<Vec<Value>>> {
    let plan = AggregatePlan::new(q)?;
    let rel = JoinedRelation::bind(db, &q.from)?;
    let mut groups: BTreeMap<GroupKey, Vec<AggState>> = BTreeMap::new();
    rel.for_each_row(|rows| {
        let env = rel.env(rows);
        if let Some(w) = &q.where_clause {
            if !eval_predicate(w, &env, &AggContext::Forbidden)? {
                return Ok(());
            }
        }
        let key = plan.group_key(&env)?;
        let inputs = plan.agg_inputs(&env)?;
        let states = groups.entry(key).or_insert_with(|| plan.init_states());
        plan.update_states(states, &inputs)
    })?;
    // Global aggregates (no GROUP BY) over zero rows still produce one group.
    if groups.is_empty() && plan.group_exprs.is_empty() {
        groups.insert(GroupKey::from_values(&[]), plan.init_states());
    }
    let mut out = Vec::new();
    for (key, states) in &groups {
        if plan.having_passes(key, states)? {
            out.push(plan.project(key, states)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::schema::{Column, TableSchema};

    fn power_db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "power",
            vec![
                Column::new("cid", DataType::Int),
                Column::new("cons", DataType::Float),
            ],
        ));
        db.create_table(TableSchema::new(
            "consumer",
            vec![
                Column::new("cid", DataType::Int),
                Column::new("district", DataType::Str),
                Column::new("accomodation", DataType::Str),
            ],
        ));
        let rows = [
            (1, 2.0, "north", "detached house"),
            (2, 4.0, "north", "detached house"),
            (3, 6.0, "south", "detached house"),
            (4, 100.0, "south", "apartment"),
        ];
        for (cid, cons, district, acc) in rows {
            db.insert("power", vec![Value::Int(cid), Value::Float(cons)])
                .unwrap();
            db.insert(
                "consumer",
                vec![
                    Value::Int(cid),
                    Value::Str(district.into()),
                    Value::Str(acc.into()),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn group_by_with_join_and_having() {
        let db = power_db();
        let q = parse_query(
            "SELECT C.district, AVG(P.cons) FROM power P, consumer C \
             WHERE C.accomodation = 'detached house' AND C.cid = P.cid \
             GROUP BY C.district HAVING COUNT(DISTINCT C.cid) >= 2",
        )
        .unwrap();
        let rows = execute_aggregate(&db, &q).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Str("north".into()), Value::Float(3.0)]]
        );
    }

    #[test]
    fn group_key_is_the_encoding_of_the_evaluated_grouping_values() {
        let db = power_db();
        let q = parse_query(
            "SELECT C.district, P.cid + 1, COUNT(*) FROM power P, consumer C \
             WHERE C.cid = P.cid GROUP BY C.district, P.cid + 1, accomodation",
        )
        .unwrap();
        let plan = AggregatePlan::new(&q).unwrap();
        let rel = JoinedRelation::bind(&db, &q.from).unwrap();
        let mut keys = 0;
        rel.for_each_row(|rows| {
            let env = rel.env(rows);
            let values: Vec<Value> = plan
                .group_exprs
                .iter()
                .map(|g| eval(g, &env, &AggContext::Forbidden))
                .collect::<Result<_>>()?;
            assert_eq!(plan.group_key(&env)?, GroupKey::from_values(&values));
            keys += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(keys, 16);
    }

    #[test]
    fn global_aggregate_no_group_by() {
        let db = power_db();
        let q = parse_query("SELECT COUNT(*), SUM(cons) FROM power").unwrap();
        let rows = execute_aggregate(&db, &q).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(4), Value::Float(112.0)]]);
    }

    #[test]
    fn global_aggregate_empty_input() {
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", vec![Column::new("x", DataType::Int)]));
        let q = parse_query("SELECT COUNT(*), AVG(x) FROM t").unwrap();
        let rows = execute_aggregate(&db, &q).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn grouped_empty_input_no_groups() {
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", vec![Column::new("x", DataType::Int)]));
        let q = parse_query("SELECT x, COUNT(*) FROM t GROUP BY x").unwrap();
        assert!(execute_aggregate(&db, &q).unwrap().is_empty());
    }

    #[test]
    fn non_grouped_column_rejected() {
        let db = power_db();
        let q = parse_query("SELECT cid, COUNT(*) FROM power GROUP BY cons").unwrap();
        assert!(matches!(
            execute_aggregate(&db, &q),
            Err(SqlError::Aggregate { .. })
        ));
    }

    #[test]
    fn wildcard_rejected_in_aggregate() {
        let db = power_db();
        let q = parse_query("SELECT * FROM power GROUP BY cid").unwrap();
        assert!(execute_aggregate(&db, &q).is_err());
    }

    #[test]
    fn group_expr_arithmetic() {
        let db = power_db();
        // Group by a computed bucket of cid.
        let q = parse_query("SELECT cid % 2, COUNT(*) FROM power GROUP BY cid % 2").unwrap();
        let rows = execute_aggregate(&db, &q).unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row[1], Value::Int(2));
        }
    }

    #[test]
    fn having_references_group_column() {
        let db = power_db();
        let q = parse_query(
            "SELECT district, COUNT(*) FROM consumer GROUP BY district HAVING district = 'north'",
        )
        .unwrap();
        let rows = execute_aggregate(&db, &q).unwrap();
        assert_eq!(rows, vec![vec![Value::Str("north".into()), Value::Int(2)]]);
    }

    #[test]
    fn median_and_variance_end_to_end() {
        let db = power_db();
        let q = parse_query("SELECT MEDIAN(cons), VARIANCE(cons) FROM power").unwrap();
        let rows = execute_aggregate(&db, &q).unwrap();
        assert_eq!(rows[0][0], Value::Float(5.0));
        match rows[0][1] {
            Value::Float(f) => assert!(f > 0.0),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nulls_form_their_own_group() {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "t",
            vec![
                Column::new("k", DataType::Str),
                Column::new("v", DataType::Int),
            ],
        ));
        for (k, v) in [(Some("a"), 1), (None, 2), (None, 3), (Some("a"), 4)] {
            db.insert(
                "t",
                vec![
                    k.map(|s| Value::Str(s.into())).unwrap_or(Value::Null),
                    Value::Int(v),
                ],
            )
            .unwrap();
        }
        let q = parse_query("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k").unwrap();
        let mut rows = execute_aggregate(&db, &q).unwrap();
        rows.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(
            rows.len(),
            2,
            "NULLs group together (SQL GROUP BY semantics)"
        );
        let null_row = rows.iter().find(|r| r[0] == Value::Null).unwrap();
        assert_eq!(null_row[1], Value::Int(2));
        assert_eq!(null_row[2], Value::Int(5));
    }

    #[test]
    fn dedup_of_identical_agg_calls() {
        let db = power_db();
        let q =
            parse_query("SELECT COUNT(*), COUNT(*) + 1 FROM power HAVING COUNT(*) > 0").unwrap();
        let plan = AggregatePlan::new(&q).unwrap();
        assert_eq!(plan.agg_calls.len(), 1);
        let rows = execute_aggregate(&db, &q).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(4), Value::Int(5)]]);
    }
}
