//! The literal value model shared across the workspace.
//!
//! Multi-source data carries heterogeneous literals (strings, numbers,
//! booleans, lists — e.g. the multiple directors of a movie). [`Value`]
//! is the normalized representation produced by the ingest adapters and
//! stored as triple objects. The confidence machinery buckets values into
//! discrete categories via [`Value::canonical_key`], so `Value`
//! implements `Eq`/`Hash` with float canonicalization (NaN collapses to a
//! single bucket, `-0.0 == 0.0`).

use std::fmt;

/// A literal value attached to a triple object or record field.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent / null value.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// 64-bit signed integer literal.
    Int(i64),
    /// 64-bit float literal.
    Float(f64),
    /// UTF-8 string literal.
    Str(String),
    /// Ordered list of values (e.g. multiple authors).
    List(Vec<Value>),
}

impl Value {
    /// Returns a string form that identifies the value's equivalence
    /// class. Two values with the same canonical key are treated as the
    /// same claim by the consistency machinery.
    ///
    /// Strings are trimmed and lower-cased; integral floats collapse to
    /// their integer form so `3` and `3.0` agree across sources.
    pub fn canonical_key(&self) -> String {
        let mut out = String::new();
        self.write_canonical_key(&mut out);
        out
    }

    /// Appends the canonical key to `out` without allocating a fresh
    /// `String` per call. Hot paths (the claim-key interner) hold one
    /// scratch buffer and reuse it across every triple; the bytes
    /// produced are identical to [`Value::canonical_key`].
    pub fn write_canonical_key(&self, out: &mut String) {
        use std::fmt::Write as _;
        // Writing to a `String` cannot fail; the `let _ =` keeps the
        // signature infallible.
        match self {
            Value::Null => out.push_str("\u{0}null"),
            Value::Bool(b) => {
                let _ = write!(out, "\u{0}b:{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "\u{0}n:{i}");
            }
            Value::Float(f) => {
                if f.is_nan() {
                    out.push_str("\u{0}n:nan");
                } else if f.fract() == 0.0 && f.abs() < 9.0e15 {
                    let _ = write!(out, "\u{0}n:{}", *f as i64);
                } else {
                    let _ = write!(out, "\u{0}n:{f}");
                }
            }
            Value::Str(s) => {
                out.push_str("\u{0}s:");
                let trimmed = s.trim();
                if trimmed.is_ascii() && !trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
                    // Already lower-case ASCII: skip the `to_lowercase`
                    // String (the common case for standardized values).
                    out.push_str(trimmed);
                } else {
                    out.push_str(&trimmed.to_lowercase());
                }
            }
            Value::List(items) => {
                // Member keys must sort lexicographically, so the list
                // form still materializes per-member strings.
                let mut keys: Vec<String> = items.iter().map(Value::canonical_key).collect();
                keys.sort();
                out.push_str("\u{0}l:[");
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                }
                out.push(']');
            }
        }
    }

    /// Whether the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow the string content, if this is a string literal.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view of the value (ints widen to floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// List view of the value.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Flattens the value into its scalar claims: a list yields each
    /// element, everything else yields itself. Used when a single source
    /// field asserts several answers (a movie with three directors).
    pub fn scalar_claims(&self) -> Vec<Value> {
        match self {
            Value::List(items) => items.iter().flat_map(Value::scalar_claims).collect(),
            other => vec![other.clone()],
        }
    }

    /// A representation-insensitive answer key: lowercase alphanumeric
    /// tokens, sorted. `"Mann, Michael"`, `"MICHAEL MANN"` and
    /// `"Michael  Mann."` all share one answer key — the equivalence
    /// evaluation uses, and the one MultiRAG's entity standardization
    /// (the `std.py` analogue) restores before voting. Exact-match
    /// fusion methods that bucket by [`Value::canonical_key`] fragment
    /// across these variants; that is the multi-source representation
    /// diversity the paper's Challenge 2 describes.
    pub fn answer_key(&self) -> String {
        match self {
            Value::Str(s) => {
                let mut tokens: Vec<String> = s
                    .split(|c: char| !c.is_alphanumeric())
                    .filter(|t| !t.is_empty())
                    .map(str::to_lowercase)
                    .collect();
                tokens.sort();
                format!("\u{0}s:{}", tokens.join(" "))
            }
            Value::List(items) => {
                let mut keys: Vec<String> = items.iter().map(Value::answer_key).collect();
                keys.sort();
                format!("\u{0}l:[{}]", keys.join(","))
            }
            other => other.canonical_key(),
        }
    }

    /// The standardized rendering of the value: string content with
    /// tokens in sorted order (the deterministic normal form the
    /// `std.py` analogue maps every surface variant onto).
    pub fn standardized(&self) -> Value {
        match self {
            Value::Str(s) => {
                let mut tokens: Vec<String> = s
                    .split(|c: char| !c.is_alphanumeric())
                    .filter(|t| !t.is_empty())
                    .map(str::to_lowercase)
                    .collect();
                tokens.sort();
                Value::Str(tokens.join(" "))
            }
            Value::List(items) => Value::List(items.iter().map(Value::standardized).collect()),
            other => other.clone(),
        }
    }

    /// A rough, deterministic "semantic" distance in `[0, 1]` between two
    /// values: 0 for identical claims, 1 for unrelated ones. Numeric
    /// values compare by relative error; strings by normalized edit
    /// similarity on their canonical forms.
    pub fn distance(&self, other: &Value) -> f64 {
        if self.canonical_key() == other.canonical_key() {
            return 0.0;
        }
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => {
                let denom = a.abs().max(b.abs()).max(1e-12);
                ((a - b).abs() / denom).min(1.0)
            }
            _ => {
                let a = content_form(self);
                let b = content_form(other);
                1.0 - jaccard_bigrams(&a, &b)
            }
        }
    }
}

/// Content view for textual distance: strings compare on their trimmed
/// lowercase content (no canonical-key tag prefix, which would make all
/// same-typed values look partially similar).
fn content_form(v: &Value) -> String {
    match v {
        Value::Str(s) => s.trim().to_lowercase(),
        other => other.canonical_key(),
    }
}

/// Jaccard similarity of the byte-bigram sets of two strings. Equal
/// strings score 1; strings too short to have bigrams score 0 against
/// anything unequal.
fn jaccard_bigrams(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let bigrams = |s: &str| -> crate::hash::FxHashSet<[u8; 2]> {
        s.as_bytes().windows(2).map(|w| [w[0], w[1]]).collect()
    };
    let sa = bigrams(a);
    let sb = bigrams(b);
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = (sa.len() + sb.len()) as f64 - inter;
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => canonical_bits(*a) == canonical_bits(*b),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                b.fract() == 0.0 && *a as f64 == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash through the canonical key so Eq/Hash stay consistent
        // (Int(3) == Float(3.0) must hash identically).
        self.canonical_key().hash(state);
    }
}

fn canonical_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0u64
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::List(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn canonical_key_normalizes_strings() {
        assert_eq!(
            Value::from("  Typhoon ").canonical_key(),
            Value::from("typhoon").canonical_key()
        );
        assert_ne!(
            Value::from("typhoon").canonical_key(),
            Value::from("storm").canonical_key()
        );
    }

    #[test]
    fn canonical_key_unifies_integral_floats_and_ints() {
        assert_eq!(
            Value::Int(3).canonical_key(),
            Value::Float(3.0).canonical_key()
        );
        assert_ne!(
            Value::Int(3).canonical_key(),
            Value::Float(3.5).canonical_key()
        );
    }

    #[test]
    fn eq_and_hash_are_consistent_for_mixed_numerics() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_collapses_to_one_bucket() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn zero_signs_agree() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn list_canonical_key_is_order_insensitive() {
        let a = Value::from(vec!["alice", "bob"]);
        let b = Value::from(vec!["bob", "alice"]);
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn scalar_claims_flattens_nested_lists() {
        let v = Value::List(vec![
            Value::from("a"),
            Value::List(vec![Value::from("b"), Value::from("c")]),
        ]);
        let claims = v.scalar_claims();
        assert_eq!(claims.len(), 3);
        assert_eq!(claims[2], Value::from("c"));
    }

    #[test]
    fn distance_is_zero_for_equal_claims() {
        assert_eq!(
            Value::from("delayed").distance(&Value::from("Delayed ")),
            0.0
        );
        assert_eq!(Value::Int(10).distance(&Value::Float(10.0)), 0.0);
    }

    #[test]
    fn numeric_distance_scales_with_relative_error() {
        let d_small = Value::Float(100.0).distance(&Value::Float(101.0));
        let d_large = Value::Float(100.0).distance(&Value::Float(200.0));
        assert!(d_small < d_large);
        assert!(d_large <= 1.0);
    }

    #[test]
    fn string_distance_orders_by_similarity() {
        let base = Value::from("typhoon in beijing");
        let near = Value::from("typhoon in Beijing");
        let far = Value::from("clear skies");
        assert!(base.distance(&near) < base.distance(&far));
    }

    #[test]
    fn accessors_return_expected_variants() {
        assert_eq!(Value::from(5i64).as_i64(), Some(5));
        assert_eq!(Value::from(5i64).as_f64(), Some(5.0));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        let list = Value::from(vec![1i64, 2]);
        assert_eq!(list.as_list().unwrap().len(), 2);
    }

    #[test]
    fn display_renders_lists() {
        let v = Value::from(vec!["a", "b"]);
        assert_eq!(v.to_string(), "[a, b]");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
