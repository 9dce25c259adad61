//! The extensible attribute database carried by every Legion object.
//!
//! "In their simplest form, attributes are (name, value) pairs. ... All
//! Legion objects include an extensible attribute database, the contents
//! of which are determined by the type of the object." (§3.1)
//!
//! Host objects populate their databases with architecture, operating
//! system, load, available memory and richer policy information (price
//! per CPU cycle, refused domains, time-of-day willingness...). The
//! Collection stores one [`AttributeDb`] per resource record and the
//! query language evaluates against it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A single attribute value.
///
/// Values are dynamically typed; the query evaluator performs semantic
/// comparisons with int/float coercion, mirroring the grammar of the
/// MESSIAHS work the paper builds on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Ordered list of values (e.g. compatible vault LOIDs).
    List(Vec<AttrValue>),
}

impl AttrValue {
    /// Numeric view with int→float coercion.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats are not truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[AttrValue]> {
        match self {
            AttrValue::List(l) => Some(l),
            _ => None,
        }
    }

    /// Exact identity: same kind and same contents, floats compared by
    /// bit pattern (so `NaN` is identical to itself and `0.0` is not
    /// identical to `-0.0`). Unlike `==`, this is an equivalence
    /// relation, which is what change detection needs.
    pub fn identical(&self, other: &AttrValue) -> bool {
        use AttrValue::*;
        match (self, other) {
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (List(a), List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.identical(y))
            }
            _ => self == other,
        }
    }

    /// Semantic comparison with numeric coercion.
    ///
    /// Numbers compare numerically across Int/Float; strings compare
    /// lexicographically; booleans false < true. Mixed, non-coercible
    /// kinds are incomparable (`None`).
    pub fn semantic_cmp(&self, other: &AttrValue) -> Option<std::cmp::Ordering> {
        use AttrValue::*;
        match (self, other) {
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (List(a), List(b)) => {
                // Lexicographic over semantic element comparison.
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.semantic_cmp(y)? {
                        std::cmp::Ordering::Equal => continue,
                        ord => return Some(ord),
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Str(s) => write!(f, "{s:?}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl<T: Into<AttrValue>> From<Vec<T>> for AttrValue {
    fn from(v: Vec<T>) -> Self {
        AttrValue::List(v.into_iter().map(Into::into).collect())
    }
}

/// An ordered attribute database: name → value.
///
/// Backed by a `BTreeMap` so iteration order (and therefore Collection
/// record serialization and experiment output) is deterministic.
///
/// The map is shared copy-on-write: cloning a database bumps a
/// reference count, and a mutator copies the map only while another
/// clone still shares it. A host's snapshot, the daemon's last-pushed
/// copy, the Collection record and a delta-log entry can therefore all
/// be one allocation.
///
/// Equality is exact ([`AttrValue::identical`] per value) and answers
/// from pointer identity when both sides share one map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AttributeDb {
    entries: Arc<BTreeMap<String, AttrValue>>,
}

impl PartialEq for AttributeDb {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
            || (self.len() == other.len()
                && self
                    .iter()
                    .zip(other.iter())
                    .all(|((an, av), (bn, bv))| an == bn && av.identical(bv)))
    }
}

impl AttributeDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an attribute, returning the previous value if any.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<AttrValue>) -> Option<AttrValue> {
        Arc::make_mut(&mut self.entries).insert(name.into(), value.into())
    }

    /// Sets an attribute only if its value is not already identical,
    /// so an unchanged value never unshares the map.
    pub fn set_if_changed(&mut self, name: &str, value: AttrValue) {
        if !self.get(name).is_some_and(|old| old.identical(&value)) {
            self.set(name, value);
        }
    }

    /// Builder-style set.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Looks up an attribute.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.entries.get(name)
    }

    /// Removes an attribute.
    pub fn remove(&mut self, name: &str) -> Option<AttrValue> {
        if !self.contains(name) {
            return None;
        }
        Arc::make_mut(&mut self.entries).remove(name)
    }

    /// Whether the attribute exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over (name, value) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Overwrites entries from `other` into `self` (push-model update:
    /// "UpdateCollectionEntry" merges fresh host state over the record).
    pub fn merge_from(&mut self, other: &AttributeDb) {
        for (k, v) in other.iter() {
            self.set_if_changed(k, v.clone());
        }
    }

    /// Convenience numeric getter.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(AttrValue::as_f64)
    }

    /// Convenience integer getter.
    pub fn get_i64(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(AttrValue::as_i64)
    }

    /// Convenience string getter.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(AttrValue::as_str)
    }

    /// Convenience boolean getter.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(AttrValue::as_bool)
    }
}

impl FromIterator<(String, AttrValue)> for AttributeDb {
    fn from_iter<T: IntoIterator<Item = (String, AttrValue)>>(iter: T) -> Self {
        AttributeDb { entries: Arc::new(iter.into_iter().collect()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn set_get_roundtrip() {
        let mut db = AttributeDb::new();
        db.set("host_os_name", "IRIX");
        db.set("host_load", 0.25);
        db.set("host_ncpus", 4i64);
        db.set("accepts_guests", true);
        assert_eq!(db.get_str("host_os_name"), Some("IRIX"));
        assert_eq!(db.get_f64("host_load"), Some(0.25));
        assert_eq!(db.get_i64("host_ncpus"), Some(4));
        assert_eq!(db.get_bool("accepts_guests"), Some(true));
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(
            AttrValue::Int(3).semantic_cmp(&AttrValue::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            AttrValue::Float(2.5).semantic_cmp(&AttrValue::Int(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn strings_and_numbers_are_incomparable() {
        assert_eq!(AttrValue::Str("3".into()).semantic_cmp(&AttrValue::Int(3)), None);
    }

    #[test]
    fn list_comparison_is_lexicographic() {
        let a: AttrValue = vec![1i64, 2].into();
        let b: AttrValue = vec![1i64, 3].into();
        let c: AttrValue = vec![1i64, 2, 0].into();
        assert_eq!(a.semantic_cmp(&b), Some(Ordering::Less));
        assert_eq!(a.semantic_cmp(&c), Some(Ordering::Less));
        assert_eq!(a.semantic_cmp(&a), Some(Ordering::Equal));
    }

    #[test]
    fn merge_overwrites() {
        let mut a = AttributeDb::new().with("x", 1i64).with("y", 2i64);
        let b = AttributeDb::new().with("y", 9i64).with("z", 3i64);
        a.merge_from(&b);
        assert_eq!(a.get_i64("y"), Some(9));
        assert_eq!(a.get_i64("z"), Some(3));
        assert_eq!(a.get_i64("x"), Some(1));
    }

    #[test]
    fn mutating_a_clone_never_shows_in_the_original() {
        let original = AttributeDb::new().with("x", 1i64).with("s", "a");
        let mut set = original.clone();
        set.set("x", 2i64);
        let mut removed = original.clone();
        assert_eq!(removed.remove("s"), Some(AttrValue::from("a")));
        assert_eq!(removed.remove("missing"), None);
        let mut merged = original.clone();
        merged.merge_from(&AttributeDb::new().with("y", true));

        assert_eq!(original, AttributeDb::new().with("x", 1i64).with("s", "a"));
        assert_eq!(set.get_i64("x"), Some(2));
        assert!(!removed.contains("s"));
        assert_eq!(merged.get_bool("y"), Some(true));
    }

    #[test]
    fn equality_is_exact_across_shared_and_unshared_copies() {
        let a = AttributeDb::new().with("load", 0.5).with("nan", f64::NAN).with("n", 1i64);
        let shared = a.clone();
        let rebuilt = AttributeDb::new().with("n", 1i64).with("nan", f64::NAN).with("load", 0.5);
        assert_eq!(a, shared);
        assert_eq!(a, rebuilt, "NaN is identical to itself");
        // Semantically equal but not identical values differ.
        assert_ne!(a, rebuilt.clone().with("n", 1.0));
        assert_ne!(AttributeDb::new().with("z", 0.0), AttributeDb::new().with("z", -0.0));
    }

    #[test]
    fn unchanged_writes_keep_the_map_shared() {
        let a = AttributeDb::new().with("x", 1i64);
        let mut b = a.clone();
        b.set_if_changed("x", AttrValue::Int(1));
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        b.merge_from(&AttributeDb::new().with("x", 1i64));
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        b.set_if_changed("x", AttrValue::Float(1.0));
        assert!(!Arc::ptr_eq(&a.entries, &b.entries));
        assert_eq!(a.get_i64("x"), Some(1));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let db = AttributeDb::new().with("b", 1i64).with("a", 2i64).with("c", 3i64);
        let names: Vec<&str> = db.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn display_renders_lists() {
        let v: AttrValue = vec!["a", "b"].into();
        assert_eq!(v.to_string(), r#"["a", "b"]"#);
    }
}
