//! Common schema shared by all Trusted Data Servers.
//!
//! The paper assumes "local databases conform to a common schema which can be
//! queried in SQL" — e.g. the national energy distributor defines the
//! `Power`/`Consumer` tables that every smart meter hosts. The [`Catalog`] is
//! that shared definition; each TDS instantiates its own rows.

use crate::error::{Result, SqlError};
use crate::value::{DataType, Value};

/// Does `name` match the stored (lowercase) name `stored`? Exactly
/// `name.to_ascii_lowercase() == stored`, compared in place: the lookups of
/// every TDS step go through here, so they build no lowercase copy.
pub(crate) fn name_matches(name: &str, stored: &str) -> bool {
    name.len() == stored.len()
        && name
            .bytes()
            .zip(stored.bytes())
            .all(|(n, s)| n.to_ascii_lowercase() == s)
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-insensitive matching, stored lowercase).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl Column {
    /// Create a column (name normalised to lowercase).
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Self {
            name: name.into().to_ascii_lowercase(),
            ty,
        }
    }
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (stored lowercase).
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Create a schema.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Self {
            name: name.into().to_ascii_lowercase(),
            columns,
        }
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| name_matches(name, &c.name))
    }

    /// Validate a row against this schema (arity and types; NULL always ok).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(SqlError::Type {
                message: format!(
                    "table {}: row arity {} != schema arity {}",
                    self.name,
                    row.len(),
                    self.columns.len()
                ),
            });
        }
        for (col, v) in self.columns.iter().zip(row.iter()) {
            if let Some(ty) = v.data_type() {
                let ok = ty == col.ty || (col.ty == DataType::Float && ty == DataType::Int);
                if !ok {
                    return Err(SqlError::Type {
                        message: format!(
                            "table {}: column {} expects {}, got {}",
                            self.name, col.name, col.ty, ty
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The common catalog: all table schemas, as installed in every TDS.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableSchema>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a table schema; replaces any previous table of the same name.
    pub fn add_table(&mut self, schema: TableSchema) {
        self.tables.retain(|t| t.name != schema.name);
        self.tables.push(schema);
    }

    /// Look up a table schema.
    pub fn table(&self, name: &str) -> Result<&TableSchema> {
        self.tables
            .iter()
            .find(|t| name_matches(name, &t.name))
            .ok_or_else(|| SqlError::UnknownTable(name.to_ascii_lowercase()))
    }

    /// All table schemas.
    pub fn tables(&self) -> &[TableSchema] {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power_schema() -> TableSchema {
        TableSchema::new(
            "Power",
            vec![
                Column::new("cid", DataType::Int),
                Column::new("cons", DataType::Float),
                Column::new("period", DataType::Str),
            ],
        )
    }

    #[test]
    fn case_insensitive_lookup() {
        let mut cat = Catalog::new();
        cat.add_table(power_schema());
        assert!(cat.table("POWER").is_ok());
        assert!(cat.table("power").is_ok());
        assert_eq!(
            cat.table("nope"),
            Err(SqlError::UnknownTable("nope".into()))
        );
        assert_eq!(cat.table("Power").unwrap().column_index("CONS"), Some(1));
    }

    #[test]
    fn name_matching_is_lowercase_equality() {
        for (name, stored) in [
            ("power", "power"),
            ("POWER", "power"),
            ("PoWeR", "power"),
            ("power", "Power"),
            ("powe", "power"),
            ("powers", "power"),
            ("", ""),
            ("Éa", "éa"),
            ("éa", "éa"),
        ] {
            assert_eq!(
                name_matches(name, stored),
                name.to_ascii_lowercase() == stored,
                "{name:?} vs {stored:?}"
            );
        }
    }

    #[test]
    fn row_validation() {
        let s = power_schema();
        assert!(s
            .check_row(&[Value::Int(1), Value::Float(2.5), Value::Str("p".into())])
            .is_ok());
        // Int accepted where Float declared.
        assert!(s
            .check_row(&[Value::Int(1), Value::Int(2), Value::Str("p".into())])
            .is_ok());
        // NULL always accepted.
        assert!(s
            .check_row(&[Value::Null, Value::Null, Value::Null])
            .is_ok());
        // Wrong arity.
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        // Wrong type.
        assert!(s
            .check_row(&[
                Value::Str("x".into()),
                Value::Float(1.0),
                Value::Str("p".into())
            ])
            .is_err());
    }

    #[test]
    fn add_table_replaces() {
        let mut cat = Catalog::new();
        cat.add_table(power_schema());
        cat.add_table(TableSchema::new(
            "power",
            vec![Column::new("x", DataType::Int)],
        ));
        assert_eq!(cat.table("power").unwrap().columns.len(), 1);
        assert_eq!(cat.tables().len(), 1);
    }
}
