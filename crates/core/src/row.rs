//! Row representation shared by all engines and operators.

use crate::Value;
use std::fmt;
use std::sync::Arc;

/// A fixed-width tuple of values.
///
/// Rows are immutable once built and cheaply cloneable (`Arc`-backed), so the
/// current→history movement inside the engines and the pipelining between
/// query operators never copies cell payloads.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            values: values.into(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value in column `idx`. Panics if out of bounds — column indexes
    /// are resolved against the schema before execution.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// A new row with column `idx` replaced by `value`. Panics if `idx` is
    /// out of bounds, as [`Row::get`] does.
    #[must_use]
    pub fn with(&self, idx: usize, value: Value) -> Row {
        self.with_all(&[(idx, value)])
    }

    /// A new row with the given `(index, value)` replacements applied, later
    /// ones winning. Panics if an index is out of bounds.
    #[must_use]
    pub fn with_all(&self, updates: &[(usize, Value)]) -> Row {
        // One allocation of exactly the arity, then the cells in place.
        let mut values: Arc<[Value]> = self.values.iter().cloned().collect();
        let cells = Arc::get_mut(&mut values).expect("a fresh copy is unshared");
        for (idx, value) in updates {
            cells[*idx] = value.clone();
        }
        Row { values }
    }

    /// A new row containing only the columns listed in `projection`.
    #[must_use]
    pub fn project(&self, projection: &[usize]) -> Row {
        projection.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// A new row that is `self` followed by `other` (join concatenation).
    #[must_use]
    pub fn concat(&self, other: &Row) -> Row {
        self.values
            .iter()
            .chain(other.values.iter())
            .cloned()
            .collect()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Collects straight into the row's `Arc<[Value]>`: an iterator that knows
/// its exact length (a slice's, a range's, a chain or map of those) fills
/// one allocation of exactly that size, with no `Vec` in between.
impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new(vec![Value::Int(1), Value::str("a"), Value::Double(2.5)])
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(0), &Value::Int(1));
        assert_eq!(r.get(1), &Value::str("a"));
    }

    #[test]
    fn with_replaces_without_mutating_original() {
        let r = sample();
        let r2 = r.with(0, Value::Int(9));
        assert_eq!(r.get(0), &Value::Int(1));
        assert_eq!(r2.get(0), &Value::Int(9));
        let r3 = r.with_all(&[(0, Value::Int(5)), (2, Value::Null)]);
        assert_eq!(r3.get(0), &Value::Int(5));
        assert!(r3.get(2).is_null());
    }

    #[test]
    fn project_and_concat() {
        let r = sample();
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Double(2.5), Value::Int(1)]);
        let c = r.concat(&p);
        assert_eq!(c.arity(), 5);
        assert_eq!(c.get(3), &Value::Double(2.5));
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 3 but the index is 3")]
    fn with_out_of_range_panics_like_get() {
        let _ = sample().with(3, Value::Null);
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 3 but the index is 3")]
    fn with_all_out_of_range_panics_like_get() {
        let _ = sample().with_all(&[(0, Value::Null), (3, Value::Null)]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 3 but the index is 3")]
    fn project_out_of_range_panics_like_get() {
        let _ = sample().project(&[0, 3]);
    }

    #[test]
    fn later_updates_win() {
        let r = sample().with_all(&[(0, Value::Int(5)), (0, Value::Int(6))]);
        assert_eq!(r.get(0), &Value::Int(6));
        assert_eq!(r.values().len(), 3);
    }

    #[test]
    fn display() {
        assert_eq!(sample().to_string(), "(1, a, 2.50)");
    }

    #[test]
    fn rows_order_lexicographically() {
        let a = Row::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Row::new(vec![Value::Int(1), Value::Int(3)]);
        assert!(a < b);
    }
}
