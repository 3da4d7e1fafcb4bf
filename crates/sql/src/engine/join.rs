//! Local (internal) joins.
//!
//! The dialect forbids joins *across* TDSs, but comma joins in `FROM` are
//! internal joins executed locally by each TDS (footnote 5 of the paper) —
//! e.g. joining the smart meter's own `Power` readings with its own
//! `Consumer` record. Cardinalities are tiny on a personal data server, so a
//! nested-loop cross product filtered by the WHERE clause is the honest
//! choice.

use crate::ast::TableRef;
use crate::engine::table::{Database, Table};
use crate::error::{Result, SqlError};
use crate::expr::RowEnv;
use crate::value::Value;

/// The bound FROM list: binding names and the tables they name, borrowed
/// from the query and the database, in query order.
#[derive(Debug, Clone)]
pub struct JoinedRelation<'a> {
    bindings: Vec<(&'a str, &'a Table)>,
}

impl<'a> JoinedRelation<'a> {
    /// Resolve the FROM list against a database.
    pub fn bind(db: &'a Database, from: &'a [TableRef]) -> Result<Self> {
        if from.is_empty() {
            return Err(SqlError::Parse {
                message: "FROM list is empty".into(),
            });
        }
        let mut bindings: Vec<(&str, &Table)> = Vec::with_capacity(from.len());
        for t in from {
            let table = db.table(&t.table)?;
            let name = t.binding();
            if bindings.iter().any(|(n, _)| *n == name) {
                return Err(SqlError::Parse {
                    message: format!("duplicate binding {name} in FROM"),
                });
            }
            bindings.push((name, table));
        }
        Ok(Self { bindings })
    }

    /// Binding names and tables, in FROM order.
    pub fn bindings(&self) -> &[(&'a str, &'a Table)] {
        &self.bindings
    }

    /// Build a [`RowEnv`] over one joined row (one row slice per binding).
    pub fn env<'r>(&self, rows: &[&'r [Value]]) -> RowEnv<'r>
    where
        'a: 'r,
    {
        debug_assert_eq!(rows.len(), self.bindings.len());
        let mut env = RowEnv::empty();
        for ((name, table), row) in self.bindings.iter().zip(rows.iter()) {
            env.push(name, table.schema(), row);
        }
        env
    }

    /// Iterate the cross product of the bound tables, invoking `f` with the
    /// per-binding row slices. `f` may abort the scan by returning an error.
    /// A one-table FROM scans its rows with no buffer at all.
    pub fn for_each_row<F>(&self, mut f: F) -> Result<()>
    where
        F: FnMut(&[&'a [Value]]) -> Result<()>,
    {
        if let [(_, table)] = self.bindings.as_slice() {
            return table
                .rows()
                .iter()
                .try_for_each(|row| f(std::slice::from_ref(&row.as_slice())));
        }
        fn rec<'a, F>(
            tables: &[(&'a str, &'a Table)],
            current: &mut Vec<&'a [Value]>,
            f: &mut F,
        ) -> Result<()>
        where
            F: FnMut(&[&'a [Value]]) -> Result<()>,
        {
            match tables.split_first() {
                None => f(current),
                Some(((_, first), rest)) => {
                    for row in first.rows() {
                        current.push(row.as_slice());
                        rec(rest, current, f)?;
                        current.pop();
                    }
                    Ok(())
                }
            }
        }
        let mut current = Vec::with_capacity(self.bindings.len());
        rec(&self.bindings, &mut current, &mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new("a", vec![Column::new("x", DataType::Int)]));
        db.create_table(TableSchema::new("b", vec![Column::new("y", DataType::Int)]));
        for i in 0..3 {
            db.insert("a", vec![Value::Int(i)]).unwrap();
        }
        for j in 0..2 {
            db.insert("b", vec![Value::Int(10 + j)]).unwrap();
        }
        db
    }

    #[test]
    fn cross_product_size() {
        let db = db();
        let from = vec![
            TableRef {
                table: "a".into(),
                alias: None,
            },
            TableRef {
                table: "b".into(),
                alias: Some("bb".into()),
            },
        ];
        let rel = JoinedRelation::bind(&db, &from).unwrap();
        let mut count = 0;
        rel.for_each_row(|rows| {
            assert_eq!(rows.len(), 2);
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 6);
        assert_eq!(rel.bindings()[1].0, "bb");
    }

    #[test]
    fn duplicate_binding_rejected() {
        let db = db();
        let from = vec![
            TableRef {
                table: "a".into(),
                alias: Some("t".into()),
            },
            TableRef {
                table: "b".into(),
                alias: Some("t".into()),
            },
        ];
        assert!(JoinedRelation::bind(&db, &from).is_err());
    }

    #[test]
    fn empty_from_rejected() {
        let db = db();
        assert!(JoinedRelation::bind(&db, &[]).is_err());
    }

    #[test]
    fn unknown_table_rejected() {
        let db = db();
        let from = vec![TableRef {
            table: "zzz".into(),
            alias: None,
        }];
        assert!(matches!(
            JoinedRelation::bind(&db, &from),
            Err(SqlError::UnknownTable(_))
        ));
    }
}
