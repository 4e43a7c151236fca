//! Dynamic values flowing through the distributed executive.
//!
//! The executive ships *real application data* through the simulated
//! machine so that a parallel run can be checked bit-for-bit against the
//! sequential emulation. [`Value`] is the uniform message/argument type:
//! scalars, strings, lists, tuples, and two kinds of Rust payload
//! carried behind an `Arc`:
//!
//! - [`Value::Opaque`] is a *modelled* payload: a type name, a modelled
//!   wire size, and pointer identity (two opaques are equal only when
//!   they are the same allocation). The simulated tracker
//!   (`tracker_sim`) uses it for images, windows and marks whose link
//!   occupancy is the paper's modelled size, not their encoded size.
//! - [`Value::Native`] is a *structural value that has not been encoded
//!   yet*: a Rust payload plus the encoder that turns it into plain
//!   tuples, lists and scalars. Kernels hand natives to each other
//!   inside a frame so the codec runs only where a value leaves it. A
//!   native is observably identical to its encoding — `==`, `Debug`,
//!   [`to_wire`](skipper::wire::ToWire::to_wire) (so receipt hashes),
//!   [`byte_size`](Value::byte_size) (so simulated link occupancy),
//!   [`size`](Value::size) (so cost models), [`type_name`](Value::type_name)
//!   and the shape accessors all see the encoding, computed once on
//!   first use — and only [`native_ref`](Value::native_ref) tells the two
//!   apart. [`structural`](Value::structural) encodes every native in a
//!   value, deeply.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A dynamically-typed executive value.
#[derive(Clone)]
pub enum Value {
    /// The unit value.
    Unit,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Immutable string.
    Str(Arc<str>),
    /// Immutable byte buffer (raw frame pixels, encoded blobs). The
    /// storage is `Arc`-shared: cloning a `Bytes` value — fanning a frame
    /// out to N farm workers, queueing it on M streams — bumps a
    /// reference count instead of copying the payload.
    Bytes(Arc<[u8]>),
    /// Homogeneous-ish list.
    List(Arc<Vec<Value>>),
    /// Fixed-arity tuple.
    Tuple(Arc<Vec<Value>>),
    /// An opaque application value with an explicit wire-size estimate.
    Opaque {
        /// Human-readable type name for diagnostics.
        type_name: Arc<str>,
        /// The payload.
        data: Arc<dyn Any + Send + Sync>,
        /// Modelled size in bytes (drives link occupancy).
        bytes: u64,
    },
    /// A Rust payload standing for its structural encoding (see the
    /// module docs and [`Value::native`]).
    Native(Arc<dyn NativeValue>),
    /// Farm-protocol control marker: "no more work" (end of iteration).
    End,
}

/// The payload of a [`Value::Native`]: a Rust value plus its structural
/// encoding, computed on first use and kept.
pub trait NativeValue: Send + Sync {
    /// The Rust payload, for [`Value::native_ref`].
    fn payload(&self) -> &dyn Any;
    /// The structural encoding of the payload.
    fn encoded(&self) -> &Value;
}

struct Native<T> {
    value: T,
    encode: fn(&T) -> Value,
    encoded: OnceLock<Value>,
}

impl<T: Send + Sync + 'static> NativeValue for Native<T> {
    fn payload(&self) -> &dyn Any {
        &self.value
    }

    fn encoded(&self) -> &Value {
        self.encoded.get_or_init(|| (self.encode)(&self.value))
    }
}

impl Value {
    /// Wraps an application value as an opaque payload.
    pub fn opaque<T: Any + Send + Sync>(type_name: &str, value: T, bytes: u64) -> Value {
        Value::Opaque {
            type_name: Arc::from(type_name),
            data: Arc::new(value),
            bytes,
        }
    }

    /// Wraps a Rust value that stands for `encode(&value)`: every
    /// observation but [`native_ref`](Value::native_ref) sees the
    /// encoding, which is computed only if something observes it.
    pub fn native<T: Send + Sync + 'static>(value: T, encode: fn(&T) -> Value) -> Value {
        Value::Native(Arc::new(Native {
            value,
            encode,
            encoded: OnceLock::new(),
        }))
    }

    /// Borrows the payload of a [`Value::Native`] as `T`.
    pub fn native_ref<T: Any>(&self) -> Option<&T> {
        match self {
            Value::Native(n) => n.payload().downcast_ref::<T>(),
            _ => None,
        }
    }

    /// This value with every native replaced by its encoding, at any
    /// depth. Shares the storage of a value that holds no native.
    #[must_use]
    pub fn structural(&self) -> Value {
        match self {
            Value::Native(n) => n.encoded().structural(),
            Value::List(v) if !self.is_structural() => {
                Value::list(v.iter().map(Value::structural).collect())
            }
            Value::Tuple(v) if !self.is_structural() => {
                Value::tuple(v.iter().map(Value::structural).collect())
            }
            _ => self.clone(),
        }
    }

    /// `true` when no native occurs in this value, at any depth.
    pub fn is_structural(&self) -> bool {
        match self {
            Value::Native(_) => false,
            Value::List(v) | Value::Tuple(v) => v.iter().all(Value::is_structural),
            _ => true,
        }
    }

    /// The value the shape accessors and observers look at: a native's
    /// encoding, anything else itself.
    fn shape(&self) -> &Value {
        match self {
            Value::Native(n) => n.encoded().shape(),
            v => v,
        }
    }

    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(items))
    }

    /// Builds a tuple value.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(Arc::new(items))
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Builds a byte-buffer value (the storage is shared from then on).
    pub fn bytes(b: impl Into<Arc<[u8]>>) -> Value {
        Value::Bytes(b.into())
    }

    /// Builds a byte-buffer value straight from a borrowed slice with a
    /// single copy into the shared `Arc` storage — unlike
    /// `Value::bytes(slice.to_vec())`, which copies into a `Vec` and then
    /// again into the `Arc`. This is the codec path for pixel buffers.
    pub fn bytes_from_slice(b: &[u8]) -> Value {
        Value::Bytes(Arc::from(b))
    }

    /// The byte payload, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self.shape() {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Borrows the payload of an [`Value::Opaque`] as `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        match self {
            Value::Opaque { data, .. } => data.downcast_ref::<T>(),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self.shape() {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self.shape() {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The list elements, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self.shape() {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// The tuple elements, if this is a `Tuple`.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self.shape() {
            Value::Tuple(v) => Some(v),
            _ => None,
        }
    }

    /// `true` for the farm end marker.
    pub fn is_end(&self) -> bool {
        matches!(self, Value::End)
    }

    /// Modelled wire size in bytes. Every message is at least one byte.
    pub fn byte_size(&self) -> u64 {
        let raw = match self {
            Value::Unit | Value::Bool(_) | Value::End => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
            Value::Bytes(b) => b.len() as u64,
            Value::List(v) | Value::Tuple(v) => 8 + v.iter().map(Value::byte_size).sum::<u64>(),
            Value::Opaque { bytes, .. } => *bytes,
            Value::Native(n) => n.encoded().byte_size(),
        };
        raw.max(1)
    }

    /// Structural size, the argument measure consumed by
    /// argument-dependent cost models (`skipper::CostModel`,
    /// [`crate::Registry::register_with_cost`]): scalars count 1, strings
    /// their length, lists and tuples the sum of their elements' sizes
    /// (so a list of `k` scalars has size `k`), opaque payloads their
    /// modelled byte size, and the farm end marker 0.
    pub fn size(&self) -> usize {
        match self {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Float(_) => 1,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::List(v) | Value::Tuple(v) => v.iter().map(Value::size).sum(),
            Value::Opaque { bytes, .. } => *bytes as usize,
            Value::Native(n) => n.encoded().size(),
            Value::End => 0,
        }
    }

    /// A short type description for diagnostics.
    pub fn type_name(&self) -> String {
        match self {
            Value::Unit => "unit".into(),
            Value::Bool(_) => "bool".into(),
            Value::Int(_) => "int".into(),
            Value::Float(_) => "float".into(),
            Value::Str(_) => "string".into(),
            Value::Bytes(_) => "bytes".into(),
            Value::List(_) => "list".into(),
            Value::Tuple(_) => "tuple".into(),
            Value::Opaque { type_name, .. } => type_name.to_string(),
            Value::Native(n) => n.encoded().type_name(),
            Value::End => "end".into(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<bytes:{}B>", b.len()),
            Value::List(v) => f.debug_list().entries(v.iter()).finish(),
            Value::Tuple(v) => {
                write!(f, "(")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x:?}")?;
                }
                write!(f, ")")
            }
            Value::Opaque {
                type_name, bytes, ..
            } => write!(f, "<{type_name}:{bytes}B>"),
            Value::Native(n) => fmt::Debug::fmt(n.encoded(), f),
            Value::End => write!(f, "<end>"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) | (Value::End, Value::End) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::List(a), Value::List(b)) | (Value::Tuple(a), Value::Tuple(b)) => a == b,
            (Value::Opaque { data: a, .. }, Value::Opaque { data: b, .. }) => Arc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) if Arc::ptr_eq(a, b) => true,
            (Value::Native(a), b) => a.encoded() == b,
            (a, Value::Native(b)) => a == b.encoded(),
            _ => false,
        }
    }
}

/// [`Value`]s cross the receipt hasher structurally: every data-bearing
/// variant maps onto its [`WireValue`](skipper::wire::WireValue)
/// counterpart, so a receipted compiled-DSL run hashes identically to a
/// handwritten program producing the same values. A `Native` is its
/// encoding. The two variants
/// without a structural encoding are tagged tuples: an `Opaque` hashes
/// its type name and byte size (its payload identity is host-local by
/// design), and `End` hashes its marker tag.
impl skipper::wire::ToWire for Value {
    fn to_wire(&self) -> skipper::wire::WireValue {
        use skipper::wire::WireValue as W;
        match self {
            Value::Unit => W::Unit,
            Value::Bool(b) => W::Bool(*b),
            Value::Int(i) => W::Int(*i),
            Value::Float(x) => W::Float(*x),
            Value::Str(s) => W::Str(s.to_string()),
            Value::Bytes(b) => W::Bytes(b.to_vec()),
            Value::List(v) => W::List(v.iter().map(|x| x.to_wire()).collect()),
            Value::Tuple(v) => W::Tuple(v.iter().map(|x| x.to_wire()).collect()),
            Value::Opaque {
                type_name, bytes, ..
            } => W::Tuple(vec![
                W::Str("<opaque>".into()),
                W::Str(type_name.to_string()),
                W::Int(*bytes as i64),
            ]),
            Value::Native(n) => n.encoded().to_wire(),
            Value::End => W::Tuple(vec![W::Str("<end>".into())]),
        }
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

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Unit.byte_size(), 1);
        assert_eq!(Value::Int(5).byte_size(), 8);
        assert_eq!(Value::str("abcd").byte_size(), 4);
        let l = Value::list(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(l.byte_size(), 8 + 16);
        let o = Value::opaque("image", vec![0u8; 16], 65536);
        assert_eq!(o.byte_size(), 65536);
    }

    #[test]
    fn downcast_roundtrip() {
        let v = Value::opaque("vec", vec![1u8, 2, 3], 3);
        assert_eq!(v.downcast_ref::<Vec<u8>>().unwrap(), &vec![1, 2, 3]);
        assert!(v.downcast_ref::<String>().is_none());
        assert!(Value::Int(1).downcast_ref::<i64>().is_none());
    }

    #[test]
    fn equality_is_structural_for_plain_values() {
        assert_eq!(Value::Int(3), Value::Int(3));
        assert_ne!(Value::Int(3), Value::Float(3.0));
        assert_eq!(
            Value::list(vec![Value::Bool(true)]),
            Value::list(vec![Value::Bool(true)])
        );
    }

    #[test]
    fn opaque_equality_is_identity() {
        let a = Value::opaque("x", 1u8, 1);
        let b = a.clone();
        assert_eq!(a, b);
        let c = Value::opaque("x", 1u8, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert!(Value::End.is_end());
        let t = Value::tuple(vec![Value::Int(1), Value::Unit]);
        assert_eq!(t.as_tuple().unwrap().len(), 2);
        assert!(t.as_list().is_none());
    }

    #[test]
    fn bytes_clone_shares_storage() {
        let v = Value::bytes(vec![1u8, 2, 3]);
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(v.as_bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(v.byte_size(), 3);
        assert_eq!(v.size(), 3);
        assert_eq!(v.type_name(), "bytes");
        let (Value::Bytes(a), Value::Bytes(b)) = (&v, &w) else {
            panic!("bytes variant");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share, not copy");
        assert_eq!(format!("{v:?}"), "<bytes:3B>");
    }

    #[test]
    fn debug_formats_compactly() {
        let v = Value::tuple(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(format!("{v:?}"), "(1, \"a\")");
        let o = Value::opaque("image", (), 1024);
        assert_eq!(format!("{o:?}"), "<image:1024B>");
    }

    /// A toy Rust type and its structural encoder.
    #[derive(Debug, Clone, PartialEq)]
    struct Pt {
        x: i64,
        y: f64,
        tag: String,
    }

    fn pt_value(p: &Pt) -> Value {
        Value::tuple(vec![Value::Int(p.x), Value::Float(p.y), Value::str(&p.tag)])
    }

    fn pts() -> Vec<Pt> {
        vec![
            Pt {
                x: 3,
                y: -0.5,
                tag: "a".into(),
            },
            Pt {
                x: -7,
                y: 1e9,
                tag: String::new(),
            },
        ]
    }

    /// Everything but `native_ref` sees a native as its encoding.
    fn assert_same_observations(native: &Value, encoded: &Value) {
        use skipper::receipt::wire_hash;
        assert_eq!(native, encoded);
        assert_eq!(encoded, native);
        assert_eq!(format!("{native:?}"), format!("{encoded:?}"));
        assert_eq!(wire_hash(native), wire_hash(encoded));
        assert_eq!(native.byte_size(), encoded.byte_size());
        assert_eq!(native.size(), encoded.size());
        assert_eq!(native.type_name(), encoded.type_name());
    }

    #[test]
    fn native_is_observably_its_encoding() {
        for p in pts() {
            let n = Value::native(p.clone(), pt_value);
            assert_same_observations(&n, &pt_value(&p));
            assert_eq!(n.native_ref::<Pt>(), Some(&p));
            assert!(n.native_ref::<i64>().is_none());
            assert!(pt_value(&p).native_ref::<Pt>().is_none());
            assert_eq!(n.as_tuple().map(<[Value]>::len), Some(3));
            let other = pts().into_iter().find(|q| *q != p).expect("two points");
            assert_ne!(n, Value::native(other.clone(), pt_value));
            assert_ne!(n, pt_value(&other));
        }
    }

    #[test]
    fn structural_encodes_natives_at_any_depth() {
        let [a, b] = [0, 1].map(|i| Value::native(pts()[i].clone(), pt_value));
        let nested = Value::tuple(vec![
            Value::list(vec![a.clone(), b.clone()]),
            Value::Int(1),
            Value::tuple(vec![Value::list(Vec::new()), b.clone()]),
        ]);
        let [ea, eb] = [0, 1].map(|i| pt_value(&pts()[i]));
        let want = Value::tuple(vec![
            Value::list(vec![ea, eb.clone()]),
            Value::Int(1),
            Value::tuple(vec![Value::list(Vec::new()), eb]),
        ]);
        assert!(!nested.is_structural());
        assert!(!a.is_structural());
        assert!(want.is_structural());
        let s = nested.structural();
        assert!(s.is_structural());
        assert_eq!(s, want);
        assert_same_observations(&nested, &want);
        // A value without natives is shared, not rebuilt.
        let (Value::Tuple(x), Value::Tuple(y)) = (&want, &want.structural()) else {
            panic!("tuple variant");
        };
        assert!(Arc::ptr_eq(x, y));
    }
}
