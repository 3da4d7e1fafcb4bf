//! In-memory tables and the per-TDS database.

use crate::error::{Result, SqlError};
use crate::schema::{name_matches, TableSchema};
use crate::value::Value;

/// An in-memory table: schema + row store.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Empty table.
    pub fn new(schema: TableSchema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Insert a row after validating it against the schema.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The local database hosted by one TDS (or by the trusted reference
/// executor in tests): a set of tables conforming to the common schema.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Vec<Table>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create (or replace) a table.
    pub fn create_table(&mut self, schema: TableSchema) {
        self.tables.retain(|t| t.schema.name != schema.name);
        self.tables.push(Table::new(schema));
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .iter()
            .find(|t| name_matches(name, &t.schema.name))
            .ok_or_else(|| SqlError::UnknownTable(name.to_ascii_lowercase()))
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .iter_mut()
            .find(|t| name_matches(name, &t.schema.name))
            .ok_or_else(|| SqlError::UnknownTable(name.to_ascii_lowercase()))
    }

    /// Insert a row into a named table.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        self.table_mut(table)?.insert(row)
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    #[test]
    fn create_insert_lookup() {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "Power",
            vec![
                Column::new("cid", DataType::Int),
                Column::new("cons", DataType::Float),
            ],
        ));
        db.insert("power", vec![Value::Int(1), Value::Float(3.5)])
            .unwrap();
        assert_eq!(db.table("POWER").unwrap().len(), 1);
        assert!(db.insert("power", vec![Value::Int(1)]).is_err());
        assert!(db.insert("nosuch", vec![]).is_err());
        assert!(!db.table("power").unwrap().is_empty());
    }

    #[test]
    fn create_table_replaces() {
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", vec![Column::new("a", DataType::Int)]));
        db.insert("t", vec![Value::Int(1)]).unwrap();
        db.create_table(TableSchema::new("t", vec![Column::new("a", DataType::Int)]));
        assert_eq!(db.table("t").unwrap().len(), 0);
        assert_eq!(db.tables().len(), 1);
    }
}
