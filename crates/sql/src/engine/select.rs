//! Top-level local query execution.
//!
//! [`execute`] runs a full query against one database, trusted-single-node
//! style. It serves two roles:
//!
//! * inside each TDS, to evaluate the WHERE clause (and local joins) over
//!   the local data during the collection phase;
//! * as the **reference oracle**: the distributed protocols must produce the
//!   same rows this function does when run over the union of all TDS data.

use crate::ast::{Query, SelectItem};
use crate::engine::group::execute_aggregate;
use crate::engine::join::JoinedRelation;
use crate::engine::table::Database;
use crate::error::Result;
use crate::expr::{eval, eval_predicate, AggContext};
use crate::value::Value;

/// Result of a local query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

/// Column names an execution of `q` produces.
pub fn output_columns(db: &Database, q: &Query) -> Result<Vec<String>> {
    if q.is_aggregate() {
        let plan = crate::engine::group::AggregatePlan::new(q)?;
        return Ok(plan.output_columns().to_vec());
    }
    let rel = JoinedRelation::bind(db, &q.from)?;
    let mut cols = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Wildcard => {
                for (name, table) in rel.bindings() {
                    for c in &table.schema().columns {
                        cols.push(format!("{name}.{}", c.name));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                cols.push(alias.clone().unwrap_or_else(|| expr.to_string()));
            }
        }
    }
    Ok(cols)
}

/// Execute a query locally. The SIZE clause is a *protocol* bound (it stops
/// the distributed collection phase) and is ignored here.
pub fn execute(db: &Database, q: &Query) -> Result<QueryOutput> {
    let columns = output_columns(db, q)?;
    if q.is_aggregate() {
        let mut rows = execute_aggregate(db, q)?;
        crate::order::apply_order_limit(q, &mut rows)?;
        return Ok(QueryOutput { columns, rows });
    }
    let rel = JoinedRelation::bind(db, &q.from)?;
    let mut rows = Vec::new();
    rel.for_each_row(|bound| {
        let env = rel.env(bound);
        if let Some(w) = &q.where_clause {
            if !eval_predicate(w, &env, &AggContext::Forbidden)? {
                return Ok(());
            }
        }
        let mut out = Vec::new();
        for item in &q.select {
            match item {
                SelectItem::Wildcard => {
                    for row in bound {
                        out.extend_from_slice(row);
                    }
                }
                SelectItem::Expr { expr, .. } => {
                    out.push(eval(expr, &env, &AggContext::Forbidden)?);
                }
            }
        }
        rows.push(out);
        Ok(())
    })?;
    crate::order::apply_order_limit(q, &mut rows)?;
    Ok(QueryOutput { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::schema::{Column, TableSchema};
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "health",
            vec![
                Column::new("pid", DataType::Int),
                Column::new("age", DataType::Int),
                Column::new("city", DataType::Str),
            ],
        ));
        for (pid, age, city) in [(1, 82, "Memphis"), (2, 40, "Memphis"), (3, 85, "Nashville")] {
            db.insert(
                "health",
                vec![Value::Int(pid), Value::Int(age), Value::Str(city.into())],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn select_where_projection() {
        let db = db();
        let q = parse_query("SELECT pid, city FROM health WHERE age > 80").unwrap();
        let out = execute(&db, &q).unwrap();
        assert_eq!(out.columns, vec!["pid", "city"]);
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Int(1), Value::Str("Memphis".into())],
                vec![Value::Int(3), Value::Str("Nashville".into())]
            ]
        );
    }

    #[test]
    fn wildcard_projection() {
        let db = db();
        let q = parse_query("SELECT * FROM health WHERE city = 'Memphis'").unwrap();
        let out = execute(&db, &q).unwrap();
        assert_eq!(out.columns, vec!["health.pid", "health.age", "health.city"]);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].len(), 3);
    }

    #[test]
    fn computed_projection_with_alias() {
        let db = db();
        let q = parse_query("SELECT age + 1 AS next_age FROM health WHERE pid = 1").unwrap();
        let out = execute(&db, &q).unwrap();
        assert_eq!(out.columns, vec!["next_age"]);
        assert_eq!(out.rows, vec![vec![Value::Int(83)]]);
    }

    #[test]
    fn aggregate_dispatch() {
        let db = db();
        let q = parse_query("SELECT city, COUNT(*) FROM health GROUP BY city").unwrap();
        let out = execute(&db, &q).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.columns[0], "city");
    }

    #[test]
    fn size_clause_ignored_locally() {
        let db = db();
        let q = parse_query("SELECT pid FROM health SIZE 1").unwrap();
        let out = execute(&db, &q).unwrap();
        assert_eq!(
            out.rows.len(),
            3,
            "SIZE bounds the protocol, not local eval"
        );
    }
}
