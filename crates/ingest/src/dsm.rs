//! Decomposition Storage Model (DSM) column store.
//!
//! The paper stores structured data column-wise so that "all attribute
//! information for consistency checks" can be pulled via column indices.
//! [`ColumnStore`] keeps one typed column per attribute plus an inverted
//! value→rows index per column, so the consistency layer asks "which
//! rows claim value X for attribute A" without touching other columns.

use crate::csv::Table;
use multirag_kg::{FxHashMap, Value};
use std::collections::BTreeMap;

/// One column: the values in row order plus an inverted index from
/// canonical value key to row positions.
#[derive(Debug, Clone, Default)]
pub struct Column {
    values: Vec<Value>,
    /// BTreeMap: `value_frequencies` walks this, so the walk order must
    /// be a function of the data, not of insertion history.
    inverted: BTreeMap<String, Vec<u32>>,
}

impl Column {
    fn push(&mut self, value: Value) {
        let row = self.values.len() as u32;
        self.inverted
            .entry(value.canonical_key())
            .or_default()
            .push(row);
        self.values.push(value);
    }

    /// Value at `row`.
    pub fn get(&self, row: usize) -> Option<&Value> {
        self.values.get(row)
    }

    /// All values in row order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Rows holding a value equal to `needle`.
    pub fn rows_with(&self, needle: &Value) -> &[u32] {
        self.inverted
            .get(&needle.canonical_key())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Frequency of each distinct value (canonical key → count), the
    /// raw material for the MI-entropy confidence computations.
    pub fn value_frequencies(&self) -> Vec<(&str, usize)> {
        let mut out: Vec<(&str, usize)> = self
            .inverted
            .iter()
            .map(|(k, rows)| (k.as_str(), rows.len()))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }
}

/// A DSM column store over named attributes.
#[derive(Debug, Clone, Default)]
pub struct ColumnStore {
    names: Vec<String>,
    lookup: FxHashMap<String, usize>,
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnStore {
    /// Creates an empty store with the given attribute names.
    pub fn new(attributes: &[&str]) -> Self {
        let mut store = Self::default();
        for name in attributes {
            store.add_column(name);
        }
        store
    }

    /// Builds a store from a parsed CSV [`Table`].
    pub fn from_table(table: &Table) -> Self {
        let mut store = Self::default();
        for header in &table.headers {
            store.add_column(header);
        }
        for row in &table.rows {
            store.push_row(row.clone());
        }
        store
    }

    /// Columns are only added before the first row, so every column
    /// starts empty and stays row-aligned.
    fn add_column(&mut self, name: &str) {
        if self.lookup.contains_key(name) {
            return;
        }
        self.lookup.insert(name.to_string(), self.columns.len());
        self.names.push(name.to_string());
        self.columns.push(Column::default());
    }

    /// Appends a row. Shorter rows are padded with `Null`; longer rows
    /// panic (caller owns schema agreement).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert!(
            row.len() <= self.columns.len(),
            "row has {} cells but the store has {} columns",
            row.len(),
            self.columns.len()
        );
        let mut iter = row.into_iter();
        for column in &mut self.columns {
            column.push(iter.next().unwrap_or(Value::Null));
        }
        self.rows += 1;
    }

    /// Attribute names in column order — the `cols_index` of
    /// Definition 1.
    pub fn cols_index(&self) -> Vec<(String, usize)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect()
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.lookup.get(name).map(|&i| &self.columns[i])
    }

    /// Cell accessor.
    pub fn cell(&self, row: usize, attribute: &str) -> Option<&Value> {
        self.column(attribute)?.get(row)
    }

    /// Reconstructs a full row (row-store view, for debugging and
    /// adapters).
    pub fn row(&self, row: usize) -> Option<Vec<&Value>> {
        if row >= self.rows {
            return None;
        }
        self.columns.iter().map(|c| c.get(row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv;

    fn sample() -> ColumnStore {
        let mut store = ColumnStore::new(&["title", "year", "director"]);
        store.push_row(vec![
            Value::from("Heat"),
            Value::Int(1995),
            Value::from("Mann"),
        ]);
        store.push_row(vec![
            Value::from("Inception"),
            Value::Int(2010),
            Value::from("Nolan"),
        ]);
        store.push_row(vec![
            Value::from("Tenet"),
            Value::Int(2020),
            Value::from("Nolan"),
        ]);
        store
    }

    #[test]
    fn columns_stay_row_aligned() {
        let store = sample();
        assert_eq!(store.rows, 3);
        assert_eq!(store.columns.len(), 3);
        let row = store.row(1).unwrap();
        assert_eq!(row[0], &Value::from("Inception"));
        assert_eq!(row[1], &Value::Int(2010));
    }

    #[test]
    fn inverted_index_answers_point_queries() {
        let store = sample();
        let directors = store.column("director").unwrap();
        assert_eq!(directors.rows_with(&Value::from("Nolan")), [1, 2]);
        assert!(directors.rows_with(&Value::from("Scott")).is_empty());
        assert!(store.column("missing_attr").is_none());
    }

    #[test]
    fn distinct_counts_and_frequencies() {
        let store = sample();
        let directors = store.column("director").unwrap();
        let freqs = directors.value_frequencies();
        assert_eq!(freqs[0].1, 2); // Nolan twice
        assert_eq!(freqs[1].1, 1);
    }

    #[test]
    fn short_rows_pad_with_null() {
        let mut store = ColumnStore::new(&["a", "b"]);
        store.push_row(vec![Value::Int(1)]);
        assert_eq!(store.cell(0, "b"), Some(&Value::Null));
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn long_rows_panic() {
        let mut store = ColumnStore::new(&["a", "b"]);
        store.push_row(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn cols_index_matches_definition_1() {
        let store = sample();
        let idx = store.cols_index();
        assert_eq!(idx[0], ("title".to_string(), 0));
        assert_eq!(idx[2], ("director".to_string(), 2));
    }

    #[test]
    fn from_table_imports_csv() {
        let table = csv::parse("title,year\nHeat,1995\nTenet,2020\n").unwrap();
        let store = ColumnStore::from_table(&table);
        assert_eq!(store.rows, 2);
        let years = store.column("year").unwrap();
        assert_eq!(years.rows_with(&Value::Int(2020)), [1]);
    }

    #[test]
    fn mixed_int_float_values_share_index_buckets() {
        let mut store = ColumnStore::new(&["price"]);
        store.push_row(vec![Value::Int(10)]);
        store.push_row(vec![Value::Float(10.0)]);
        // Canonical keys unify 10 and 10.0.
        let prices = store.column("price").unwrap();
        assert_eq!(prices.rows_with(&Value::Int(10)), [0, 1]);
    }
}
