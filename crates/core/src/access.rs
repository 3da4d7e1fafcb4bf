//! Access-control enforcement inside each TDS.
//!
//! "TDSs are assumed to answer only authorized queries, meaning that they are
//! aware of the access control policy and of the querier credentials"
//! (Section 3.1). The policy grants roles access to tables (optionally
//! restricted to columns). A TDS receiving a query from an insufficiently
//! privileged querier does **not** refuse — it answers with a dummy tuple, so
//! even the *fact* of denial is invisible to the SSI and the querier.

use std::collections::BTreeSet;

use tdsql_crypto::credential::Role;
use tdsql_sql::ast::{ColumnRef, Expr, Query, SelectItem, TableRef};
use tdsql_sql::engine::Database;

/// One policy grant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grant {
    /// The role may query every table and column.
    All {
        /// Granted role.
        role: Role,
    },
    /// The role may query one table, every column.
    Table {
        /// Granted role.
        role: Role,
        /// Table name (lowercase).
        table: String,
    },
    /// The role may query one table, listed columns only.
    Columns {
        /// Granted role.
        role: Role,
        /// Table name (lowercase).
        table: String,
        /// Allowed column names (lowercase).
        columns: BTreeSet<String>,
    },
}

/// The access-control policy installed in a TDS (by the producer organism,
/// the legislator or a consumer association — Section 2.1).
#[derive(Debug, Clone, Default)]
pub struct AccessPolicy {
    grants: Vec<Grant>,
}

/// Collect every column reference appearing anywhere in a query.
fn collect_columns(q: &Query) -> Vec<&ColumnRef> {
    fn walk<'q>(expr: &'q Expr, out: &mut Vec<&'q ColumnRef>) {
        match expr {
            Expr::Column(c) => out.push(c),
            Expr::Literal(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
                walk(expr, out)
            }
            Expr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Aggregate(call) => {
                if let Some(arg) = &call.arg {
                    walk(arg, out);
                }
            }
            Expr::InList { expr, list, .. } => {
                walk(expr, out);
                for e in list {
                    walk(e, out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                walk(expr, out);
                walk(low, out);
                walk(high, out);
            }
        }
    }
    let mut out = Vec::new();
    for item in &q.select {
        if let SelectItem::Expr { expr, .. } = item {
            walk(expr, &mut out);
        }
    }
    if let Some(w) = &q.where_clause {
        walk(w, &mut out);
    }
    for g in &q.group_by {
        walk(g, &mut out);
    }
    if let Some(h) = &q.having {
        walk(h, &mut out);
    }
    out
}

impl AccessPolicy {
    /// Empty policy: everything is denied.
    pub fn deny_all() -> Self {
        Self::default()
    }

    /// Policy granting a role full access.
    pub fn allow_all(role: Role) -> Self {
        let mut p = Self::default();
        p.add(Grant::All { role });
        p
    }

    /// Add a grant.
    pub fn add(&mut self, grant: Grant) {
        self.grants.push(grant);
    }

    /// May `role` run `q` against `db`, the TDS's own database? Every table
    /// in the FROM list must be granted. When a grant restricts a table's
    /// columns, a wildcard SELECT is denied, and so is every disallowed
    /// column that resolves to that table: a qualified one by its binding,
    /// an unqualified one the way the engine resolves it — to the one FROM
    /// binding whose table has that column. An unqualified column that no
    /// binding or several bindings have is denied outright.
    ///
    /// The query's columns are gathered only when a column grant applies;
    /// a role granted every table, the common case, costs no allocation.
    pub fn allows(&self, role: &Role, q: &Query, db: &Database) -> bool {
        let mut columns: Option<Vec<&ColumnRef>> = None;
        for t in &q.from {
            // Find the strongest grant for this table.
            let grant = self.grants.iter().find(|g| match g {
                Grant::All { role: r } => r == role,
                Grant::Table { role: r, table } | Grant::Columns { role: r, table, .. } => {
                    r == role && *table == t.table
                }
            });
            match grant {
                None => return false,
                Some(Grant::All { .. }) | Some(Grant::Table { .. }) => {}
                Some(Grant::Columns {
                    columns: allowed, ..
                }) => {
                    if q.select.iter().any(|s| matches!(s, SelectItem::Wildcard)) {
                        return false;
                    }
                    for c in columns.get_or_insert_with(|| collect_columns(q)).iter() {
                        let target = match &c.table {
                            Some(tb) => Some(tb.as_str()),
                            None => resolve_unqualified(db, &q.from, &c.column),
                        };
                        match target {
                            None => return false,
                            Some(binding) if binding == t.binding() => {
                                if !allowed.contains(&c.column) {
                                    return false;
                                }
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }
        true
    }
}

/// The binding an unqualified column resolves to, by the engine's rule:
/// the one FROM binding whose table in `db` has the column. `None` when no
/// binding or more than one has it.
fn resolve_unqualified<'q>(db: &Database, from: &'q [TableRef], column: &str) -> Option<&'q str> {
    let mut having = from.iter().filter(|t| {
        db.table(&t.table)
            .is_ok_and(|table| table.schema().column_index(column).is_some())
    });
    match (having.next(), having.next()) {
        (Some(t), None) => Some(t.binding()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_sql::parser::parse_query;
    use tdsql_sql::schema::{Column, TableSchema};
    use tdsql_sql::value::DataType;

    fn role(name: &str) -> Role {
        Role::new(name)
    }

    /// An empty database with the given tables and columns: what a policy
    /// checks a query against is the schema, not the rows.
    fn db(tables: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (name, columns) in tables {
            db.create_table(TableSchema::new(
                *name,
                columns
                    .iter()
                    .map(|c| Column::new(*c, DataType::Int))
                    .collect(),
            ));
        }
        db
    }

    #[test]
    fn allow_all_permits_everything() {
        let db = db(&[("power", &["cid", "cons", "district"])]);
        let p = AccessPolicy::allow_all(role("supplier"));
        let q = parse_query("SELECT AVG(cons) FROM power GROUP BY district").unwrap();
        assert!(p.allows(&role("supplier"), &q, &db));
        assert!(!p.allows(&role("stranger"), &q, &db));
    }

    #[test]
    fn deny_all_denies() {
        let db = db(&[("power", &["cid", "cons"])]);
        let p = AccessPolicy::deny_all();
        let q = parse_query("SELECT 1 FROM power").unwrap();
        assert!(!p.allows(&role("anyone"), &q, &db));
    }

    #[test]
    fn table_grant_scopes_by_table() {
        let db = db(&[("health", &["age"]), ("power", &["cid", "cons"])]);
        let mut p = AccessPolicy::deny_all();
        p.add(Grant::Table {
            role: role("doctor"),
            table: "health".into(),
        });
        let ok = parse_query("SELECT age FROM health").unwrap();
        let bad = parse_query("SELECT cons FROM power").unwrap();
        let join = parse_query("SELECT h.age FROM health h, power p").unwrap();
        assert!(p.allows(&role("doctor"), &ok, &db));
        assert!(!p.allows(&role("doctor"), &bad, &db));
        assert!(
            !p.allows(&role("doctor"), &join, &db),
            "join touches an ungranted table"
        );
    }

    #[test]
    fn column_grant_enforced() {
        let db = db(&[("power", &["cid", "cons", "district"])]);
        let mut p = AccessPolicy::deny_all();
        p.add(Grant::Columns {
            role: role("stats"),
            table: "power".into(),
            columns: ["cons", "district"].iter().map(|s| s.to_string()).collect(),
        });
        let ok = parse_query("SELECT AVG(cons) FROM power GROUP BY district").unwrap();
        let bad = parse_query("SELECT cid FROM power").unwrap();
        let wild = parse_query("SELECT * FROM power").unwrap();
        assert!(p.allows(&role("stats"), &ok, &db));
        assert!(!p.allows(&role("stats"), &bad, &db));
        assert!(
            !p.allows(&role("stats"), &wild, &db),
            "wildcard needs full-table grant"
        );
    }

    #[test]
    fn where_and_having_columns_checked() {
        let db = db(&[("power", &["cid", "cons"])]);
        let mut p = AccessPolicy::deny_all();
        p.add(Grant::Columns {
            role: role("stats"),
            table: "power".into(),
            columns: ["cons"].iter().map(|s| s.to_string()).collect(),
        });
        let bad = parse_query("SELECT AVG(cons) FROM power WHERE cid = 3").unwrap();
        assert!(!p.allows(&role("stats"), &bad, &db));
        let bad2 =
            parse_query("SELECT AVG(cons) FROM power GROUP BY cons HAVING COUNT(DISTINCT cid) > 1")
                .unwrap();
        assert!(!p.allows(&role("stats"), &bad2, &db));
    }

    #[test]
    fn unqualified_column_resolvable_via_other_granted_table() {
        let db = db(&[
            ("power", &["cid", "cons"]),
            ("consumer", &["cid", "district"]),
        ]);
        let mut p = AccessPolicy::deny_all();
        p.add(Grant::Columns {
            role: role("r"),
            table: "power".into(),
            columns: ["cons"].iter().map(|s| s.to_string()).collect(),
        });
        p.add(Grant::Table {
            role: role("r"),
            table: "consumer".into(),
        });
        // `district` is not in power's grant but consumer is fully granted.
        let q = parse_query("SELECT AVG(cons) FROM power p, consumer c GROUP BY district").unwrap();
        assert!(p.allows(&role("r"), &q, &db));
    }

    #[test]
    fn unqualified_column_resolves_to_the_table_that_has_it() {
        let db = db(&[
            ("consumer", &["cid", "district", "accomodation"]),
            ("power", &["cid", "cons"]),
        ]);
        let mut p = AccessPolicy::deny_all();
        p.add(Grant::Columns {
            role: role("r"),
            table: "consumer".into(),
            columns: ["cid"].iter().map(|s| s.to_string()).collect(),
        });
        p.add(Grant::Table {
            role: role("r"),
            table: "power".into(),
        });
        // `district` and `accomodation` exist only in consumer, whose grant
        // leaves them out: the fully granted power does not cover for them.
        let leaks = parse_query("SELECT district FROM consumer, power").unwrap();
        let filters =
            parse_query("SELECT cons FROM consumer, power WHERE accomodation = 'detached'")
                .unwrap();
        assert!(!p.allows(&role("r"), &leaks, &db));
        assert!(!p.allows(&role("r"), &filters, &db));
        // `cons` exists only in power.
        let ok = parse_query("SELECT cons FROM consumer, power").unwrap();
        assert!(p.allows(&role("r"), &ok, &db));
        // `cid` is in both tables: the engine would refuse it as ambiguous.
        let ambiguous = parse_query("SELECT cid FROM consumer, power").unwrap();
        assert!(!p.allows(&role("r"), &ambiguous, &db));
    }
}
