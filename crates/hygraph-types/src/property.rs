//! Property maps with static and time-series values.
//!
//! The paper defines the property codomain as 𝒩 = 𝒩_Σ ∪ 𝒩_TS with
//! 𝒩_Σ ∩ 𝒩_TS = ∅: a property value is *either* a static scalar *or* a
//! reference to a time series in TS. [`PropertyValue`] is exactly that
//! sum type; [`PropertyMap`] is the per-element store the assignment
//! function φ reads from.

use crate::ids::{PropertyKey, SeriesId};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A property value: static scalar (𝒩_Σ) or time-series reference (𝒩_TS).
#[derive(Clone, Debug, PartialEq)]
pub enum PropertyValue {
    /// A static value σ ∈ 𝒩_Σ.
    Static(Value),
    /// A reference to a time series ts ∈ 𝒩_TS, stored in the model's TS set.
    Series(SeriesId),
}

impl PropertyValue {
    /// The static value, if this is a static property.
    pub fn as_static(&self) -> Option<&Value> {
        match self {
            PropertyValue::Static(v) => Some(v),
            PropertyValue::Series(_) => None,
        }
    }

    /// The series reference, if this is a time-series property.
    pub fn as_series(&self) -> Option<SeriesId> {
        match self {
            PropertyValue::Static(_) => None,
            PropertyValue::Series(id) => Some(*id),
        }
    }
}

impl<T: Into<Value>> From<T> for PropertyValue {
    fn from(v: T) -> Self {
        PropertyValue::Static(v.into())
    }
}

impl From<SeriesId> for PropertyValue {
    fn from(id: SeriesId) -> Self {
        PropertyValue::Series(id)
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Static(v) => write!(f, "{v}"),
            PropertyValue::Series(id) => write!(f, "{id}"),
        }
    }
}

/// An ordered key → value property map (the codomain of φ for one element).
///
/// Backed by a `BTreeMap` so iteration order is deterministic — important
/// for reproducible query output and stable test assertions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PropertyMap {
    entries: BTreeMap<PropertyKey, PropertyValue>,
}

impl PropertyMap {
    /// An empty property map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no properties.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets a property, returning the previous value if any.
    pub fn set(
        &mut self,
        key: impl Into<PropertyKey>,
        value: impl Into<PropertyValue>,
    ) -> Option<PropertyValue> {
        self.entries.insert(key.into(), value.into())
    }

    /// Removes a property.
    pub fn remove(&mut self, key: &PropertyKey) -> Option<PropertyValue> {
        self.entries.remove(key)
    }

    /// Looks up a property.
    pub fn get(&self, key: &PropertyKey) -> Option<&PropertyValue> {
        self.entries.get(key)
    }

    /// Looks up a property by string key.
    pub fn get_str(&self, key: &str) -> Option<&PropertyValue> {
        // BTreeMap<PropertyKey, _> cannot borrow-lookup by &str without an
        // Ord-compatible Borrow impl; a transient key keeps the API simple
        // and this path is not hot.
        self.entries.get(&PropertyKey::new(key))
    }

    /// Static scalar at `key`, if the property exists and is static.
    pub fn static_value(&self, key: &str) -> Option<&Value> {
        self.get_str(key).and_then(PropertyValue::as_static)
    }

    /// Series id at `key`, if the property exists and is series-valued.
    pub fn series_value(&self, key: &str) -> Option<SeriesId> {
        self.get_str(key).and_then(PropertyValue::as_series)
    }

    /// Whether the key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.get_str(key).is_some()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&PropertyKey, &PropertyValue)> {
        self.entries.iter()
    }

    /// Iterates only the keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &PropertyKey> {
        self.entries.keys()
    }

    /// Iterates only series-valued entries.
    pub fn series_entries(&self) -> impl Iterator<Item = (&PropertyKey, SeriesId)> {
        self.entries
            .iter()
            .filter_map(|(k, v)| v.as_series().map(|id| (k, id)))
    }

    /// Merges `other` into `self`; on conflict `other` wins.
    pub fn merge(&mut self, other: &PropertyMap) {
        for (k, v) in other.iter() {
            self.entries.insert(k.clone(), v.clone());
        }
    }
}

impl FromIterator<(PropertyKey, PropertyValue)> for PropertyMap {
    fn from_iter<I: IntoIterator<Item = (PropertyKey, PropertyValue)>>(iter: I) -> Self {
        Self {
            entries: iter.into_iter().collect(),
        }
    }
}

/// Convenience macro building a [`PropertyMap`] from `key => value` pairs.
///
/// ```
/// use hygraph_types::props;
/// let m = props! { "name" => "Alice", "age" => 42i64 };
/// assert_eq!(m.static_value("age").unwrap().as_i64(), Some(42));
/// ```
#[macro_export]
macro_rules! props {
    () => { $crate::property::PropertyMap::new() };
    ($($k:expr => $v:expr),+ $(,)?) => {{
        let mut m = $crate::property::PropertyMap::new();
        $( m.set($k, $v); )+
        m
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut m = PropertyMap::new();
        assert!(m.is_empty());
        assert_eq!(m.set("a", 1i64), None);
        assert_eq!(m.set("a", 2i64), Some(PropertyValue::Static(Value::Int(1))));
        assert_eq!(m.static_value("a"), Some(&Value::Int(2)));
        assert_eq!(
            m.remove(&PropertyKey::new("a")),
            Some(PropertyValue::Static(Value::Int(2)))
        );
        assert!(m.is_empty());
    }

    #[test]
    fn static_vs_series_disjoint() {
        let mut m = PropertyMap::new();
        m.set("balance", SeriesId::new(3));
        m.set("name", "acct-1");
        assert_eq!(m.series_value("balance"), Some(SeriesId::new(3)));
        assert_eq!(
            m.static_value("balance"),
            None,
            "series value is not static"
        );
        assert_eq!(m.series_value("name"), None);
        assert_eq!(
            m.get_str("balance"),
            Some(&PropertyValue::Series(SeriesId::new(3)))
        );
        let series: Vec<_> = m.series_entries().collect();
        assert_eq!(
            series,
            vec![(&PropertyKey::new("balance"), SeriesId::new(3))]
        );
    }

    #[test]
    fn deterministic_iteration_order() {
        let mut m = PropertyMap::new();
        m.set("z", 1i64);
        m.set("a", 2i64);
        m.set("m", 3i64);
        let keys: Vec<_> = m.keys().map(|k| k.as_str().to_owned()).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    fn merge_conflict_other_wins() {
        let mut a = props! { "x" => 1i64, "y" => 2i64 };
        let b = props! { "y" => 20i64, "z" => 30i64 };
        a.merge(&b);
        assert_eq!(a.static_value("x"), Some(&Value::Int(1)));
        assert_eq!(a.static_value("y"), Some(&Value::Int(20)));
        assert_eq!(a.static_value("z"), Some(&Value::Int(30)));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn props_macro() {
        let m = props! { "name" => "Alice", "vip" => true };
        assert_eq!(m.len(), 2);
        assert_eq!(m.static_value("name").unwrap().as_str(), Some("Alice"));
        assert_eq!(m.static_value("vip").unwrap().as_bool(), Some(true));
        let empty = props! {};
        assert!(empty.is_empty());
    }

    #[test]
    fn from_iterator() {
        let m: PropertyMap = vec![
            (PropertyKey::new("k"), PropertyValue::from(1i64)),
            (PropertyKey::new("s"), PropertyValue::from(SeriesId::new(9))),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.len(), 2);
        assert_eq!(m.series_value("s"), Some(SeriesId::new(9)));
    }
}
