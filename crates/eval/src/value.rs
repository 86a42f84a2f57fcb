//! Attribute values and their on-disk encoding.
//!
//! Attribute types in LINGUIST-86 are "uninterpreted identifiers" (§IV);
//! the values flowing through semantic functions at run time are the kinds
//! the paper's own grammar uses: integers, booleans, interned names,
//! strings, and the list-package shapes (lists, sets, partial functions).
//! Uninterpreted constants (`no$msg`, `bottom`, …) evaluate to symbolic
//! [`Value::Sym`] atoms.
//!
//! Values serialize to a compact tagged binary form — the payload of the
//! intermediate-APT-file records, so [`Value::byte_size`] doubles as the
//! record-size accounting the memory experiments charge against the 48 KB
//! budget.

use linguist_support::intern::Name;
use linguist_support::list::List;
use linguist_support::pfunc::PartialFn;
use linguist_support::set::LSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Largest capacity a decoder reserves up front for a collection. The
/// count comes from the input, so a hostile count of 2^32 - 1 must not
/// turn into one huge allocation; longer collections still decode, they
/// just grow as their items arrive.
const DECODE_RESERVE_CAP: usize = 4096;

/// Deepest collection nesting [`Value::decode`] accepts: the most list,
/// set and map headers on one path from the outer value inward. The
/// decoder recurses once per header, and a header is five bytes, so
/// without a bound a short input could exhaust the stack; a value at the
/// bound decodes (and drops) on a 2 MB worker thread even in a debug
/// build.
pub const MAX_DECODE_DEPTH: usize = 512;

/// Bytes a [`Str`] can hold inline before spilling to the heap. The
/// `Heap(Arc<str>)` variant already forces the enum to 24 bytes (fat
/// pointer + discriminant), so the inline buffer uses the full payload
/// width: tag + length + 22 bytes.
const STR_INLINE_CAP: usize = 22;

/// A string attribute value with a small-string optimization.
///
/// Most strings on the evaluation hot path are short (error-message
/// fragments, digit-stripped identifiers); storing them inline avoids
/// both the heap allocation and — more importantly for the shared-nothing
/// batch path — the atomic refcount traffic of cloning an `Arc<str>`
/// every time a record is copied between boundary files. Longer strings
/// fall back to the shared heap form so values stay cheap to clone and
/// `Send + Sync`.
#[derive(Clone)]
pub enum Str {
    /// Up to [`STR_INLINE_CAP`] bytes stored inline: clone is a 16-byte
    /// memcpy, no allocation, no refcount.
    Inline {
        /// Number of initialized bytes in `buf`.
        len: u8,
        /// Inline UTF-8 storage (valid up to `len`).
        buf: [u8; STR_INLINE_CAP],
    },
    /// Heap-shared fallback for longer strings.
    Heap(Arc<str>),
}

impl Str {
    /// Build from a borrowed string, inlining when it fits.
    pub fn new(s: &str) -> Str {
        if s.len() <= STR_INLINE_CAP {
            let mut buf = [0u8; STR_INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Str::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            Str::Heap(Arc::from(s))
        }
    }

    /// The UTF-8 bytes, without re-validating them: what equality and
    /// the encoder need on the hot path.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Str::Inline { len, buf } => &buf[..*len as usize],
            Str::Heap(s) => s.as_bytes(),
        }
    }

    /// Borrow the string contents.
    pub fn as_str(&self) -> &str {
        match self {
            Str::Inline { len, buf } => {
                std::str::from_utf8(&buf[..*len as usize]).expect("Str holds UTF-8 by construction")
            }
            Str::Heap(s) => s,
        }
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Str {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Str {
        Str::new(s)
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Str {}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// A run-time attribute value.
#[derive(Clone, Debug)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Interned identifier (name-table index).
    Sym(Name),
    /// String (inline when short; heap-shared otherwise — see [`Str`]).
    Str(Str),
    /// Sequence.
    List(List<Value>),
    /// Set.
    Set(LSet<Value>),
    /// Partial function.
    Map(PartialFn<Value, Value>),
}

impl Value {
    /// String value helper.
    pub fn str(s: &str) -> Value {
        Value::Str(Str::new(s))
    }

    /// The empty list.
    pub fn nil() -> Value {
        Value::List(List::nil())
    }

    /// The empty set.
    pub fn empty_set() -> Value {
        Value::Set(LSet::empty())
    }

    /// The everywhere-undefined partial function.
    pub fn empty_map() -> Value {
        Value::Map(PartialFn::empty())
    }

    /// Type tag name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Sym(_) => "name",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Set(_) => "set",
            Value::Map(_) => "map",
        }
    }

    /// Approximate serialized size in bytes (used for stack/file
    /// accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Int(_) => 9,
            Value::Bool(_) => 2,
            Value::Sym(_) => 5,
            Value::Str(s) => 5 + s.as_bytes().len(),
            Value::List(l) => 5 + l.iter().map(Value::byte_size).sum::<usize>(),
            Value::Set(s) => 5 + s.iter().map(Value::byte_size).sum::<usize>(),
            Value::Map(m) => {
                5 + m
                    .iter()
                    .map(|(k, v)| k.byte_size() + v.byte_size())
                    .sum::<usize>()
            }
        }
    }

    /// Append the binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(0);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Sym(n) => {
                out.push(2);
                out.extend_from_slice(&(n.index() as u32).to_le_bytes());
            }
            Value::Str(s) => {
                let bytes = s.as_bytes();
                out.push(3);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            Value::List(l) => encode_items(out, 4, l.iter(), |v, out| v.encode(out)),
            Value::Set(s) => encode_items(out, 5, s.iter(), |v, out| v.encode(out)),
            Value::Map(m) => encode_items(out, 6, m.iter(), |(k, v), out| {
                k.encode(out);
                v.encode(out);
            }),
        }
    }

    /// Decode one value from `buf` starting at `*pos`, advancing `*pos`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input, including
    /// collections nested deeper than [`MAX_DECODE_DEPTH`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value, DecodeError> {
        Value::decode_within(buf, pos, MAX_DECODE_DEPTH)
    }

    /// [`Value::decode`] with room for `depth` more collection headers.
    fn decode_within(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Value, DecodeError> {
        let tag = *buf.get(*pos).ok_or(DecodeError { at: *pos })?;
        *pos += 1;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
            let s = buf.get(*pos..*pos + n).ok_or(DecodeError { at: *pos })?;
            *pos += n;
            Ok(s)
        };
        match tag {
            0 => {
                let b: [u8; 8] = take(pos, 8)?.try_into().expect("sized");
                Ok(Value::Int(i64::from_le_bytes(b)))
            }
            1 => match take(pos, 1)?[0] {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(DecodeError { at: *pos - 1 }),
            },
            2 => {
                let b: [u8; 4] = take(pos, 4)?.try_into().expect("sized");
                Ok(Value::Sym(Name::from_index(u32::from_le_bytes(b) as usize)))
            }
            3 => {
                let b: [u8; 4] = take(pos, 4)?.try_into().expect("sized");
                let n = u32::from_le_bytes(b) as usize;
                let bytes = take(pos, n)?;
                let s = std::str::from_utf8(bytes).map_err(|_| DecodeError { at: *pos })?;
                Ok(Value::str(s))
            }
            4..=6 if depth == 0 => Err(DecodeError { at: *pos - 1 }),
            4..=6 => {
                let depth = depth - 1;
                let b: [u8; 4] = take(pos, 4)?.try_into().expect("sized");
                let n = u32::from_le_bytes(b) as usize;
                let reserve = n.min(DECODE_RESERVE_CAP);
                match tag {
                    4 => {
                        let mut items = Vec::with_capacity(reserve);
                        for _ in 0..n {
                            items.push(Value::decode_within(buf, pos, depth)?);
                        }
                        Ok(Value::List(items.into_iter().collect()))
                    }
                    5 => {
                        // Sets encode newest-first; rebuild preserving
                        // membership (order is irrelevant for equality).
                        let mut items = Vec::with_capacity(reserve);
                        for _ in 0..n {
                            items.push(Value::decode_within(buf, pos, depth)?);
                        }
                        Ok(Value::Set(items.into_iter().collect()))
                    }
                    _ => {
                        let mut pairs = Vec::with_capacity(reserve);
                        for _ in 0..n {
                            let k = Value::decode_within(buf, pos, depth)?;
                            let v = Value::decode_within(buf, pos, depth)?;
                            pairs.push((k, v));
                        }
                        // Iteration order is newest-binding-first; rebind in
                        // reverse so shadowing is preserved.
                        let mut m = PartialFn::empty();
                        for (k, v) in pairs.into_iter().rev() {
                            m = m.bind(k, v);
                        }
                        Ok(Value::Map(m))
                    }
                }
            }
            _ => Err(DecodeError { at: *pos - 1 }),
        }
    }
}

/// `[tag][count u32 LE][item]…` in one walk: the count is patched in
/// after the items, so no item list is collected first.
fn encode_items<T>(
    out: &mut Vec<u8>,
    tag: u8,
    items: impl Iterator<Item = T>,
    encode: impl Fn(T, &mut Vec<u8>),
) {
    out.push(tag);
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut count = 0u32;
    for item in items {
        encode(item, out);
        count += 1;
    }
    out[at..at + 4].copy_from_slice(&count.to_le_bytes());
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Set(a), Value::Set(b)) => a == b,
            // Extensional over effective bindings, O(1) on a shared spine.
            (Value::Map(a), Value::Map(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{}", i),
            Value::Bool(b) => write!(f, "{}", b),
            Value::Sym(n) => write!(f, "#{}", n.index()),
            Value::Str(s) => write!(f, "{:?}", s),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", v)?;
                }
                write!(f, "]")
            }
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", v)?;
                }
                write!(f, "}}")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, k) in m.domain().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} -> {}", k, m.eval(k).expect("domain key"))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Malformed or truncated value encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset of the problem.
    pub at: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed value encoding at byte {}", self.at)
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        let out = Value::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "decoded exactly the encoding");
        out
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Int(0),
            Value::Int(-123456789),
            Value::Bool(true),
            Value::Bool(false),
            Value::Sym(Name::from_index(42)),
            Value::str(""),
            Value::str("hello world"),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn nested_collections_round_trip() {
        let list: Value = Value::List(
            [Value::Int(1), Value::str("x"), Value::nil()]
                .into_iter()
                .collect(),
        );
        assert_eq!(round_trip(&list), list);

        let set: Value = Value::Set([Value::Int(1), Value::Int(2)].into_iter().collect());
        assert_eq!(round_trip(&set), set);

        let map = Value::Map(
            PartialFn::empty()
                .bind(Value::str("k1"), Value::Int(1))
                .bind(Value::str("k2"), list.clone()),
        );
        assert_eq!(round_trip(&map), map);
    }

    #[test]
    fn map_shadowing_survives_round_trip() {
        let m = Value::Map(
            PartialFn::empty()
                .bind(Value::Int(1), Value::str("old"))
                .bind(Value::Int(1), Value::str("new")),
        );
        let rt = round_trip(&m);
        if let Value::Map(m2) = rt {
            assert_eq!(m2.eval(&Value::Int(1)), Some(&Value::str("new")));
        } else {
            panic!("not a map");
        }
    }

    #[test]
    fn set_equality_ignores_order() {
        let a: Value = Value::Set([Value::Int(1), Value::Int(2)].into_iter().collect());
        let b: Value = Value::Set([Value::Int(2), Value::Int(1)].into_iter().collect());
        assert_eq!(a, b);
    }

    #[test]
    fn cross_type_not_equal() {
        assert_ne!(Value::Int(1), Value::Bool(true));
        assert_ne!(Value::str("1"), Value::Int(1));
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        Value::Int(7).encode(&mut buf);
        buf.truncate(4);
        let mut pos = 0;
        assert!(Value::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn bad_tag_errors() {
        let buf = vec![99u8];
        let mut pos = 0;
        assert!(Value::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn hostile_collection_counts_error_without_allocating() {
        // A count of 2^32 - 1 with no items behind it: the decoder must
        // run out of input, not try to reserve ~100 GB first.
        for tag in 4u8..=6 {
            let buf = [tag, 0xff, 0xff, 0xff, 0xff];
            let mut pos = 0;
            assert!(Value::decode(&buf, &mut pos).is_err(), "tag {}", tag);
        }
    }

    #[test]
    fn bool_bytes_other_than_zero_and_one_error() {
        for b in [2u8, 0x7f, 0xff] {
            let mut pos = 0;
            assert_eq!(
                Value::decode(&[1, b], &mut pos),
                Err(DecodeError { at: 1 }),
                "bool byte {}",
                b
            );
        }
    }

    /// `headers` nested one-item lists, the innermost empty.
    fn nested_lists(headers: usize) -> Vec<u8> {
        let mut buf = [4u8, 1, 0, 0, 0].repeat(headers - 1);
        buf.extend_from_slice(&[4, 0, 0, 0, 0]);
        buf
    }

    #[test]
    fn nesting_depth_is_bounded_on_a_worker_stack() {
        // `thread::spawn`'s default stack is what batch and serve
        // workers run on.
        std::thread::spawn(|| {
            let at_cap = nested_lists(MAX_DECODE_DEPTH);
            let mut pos = 0;
            assert!(Value::decode(&at_cap, &mut pos).is_ok());
            assert_eq!(pos, at_cap.len());
            for headers in [MAX_DECODE_DEPTH + 1, 100_000] {
                let mut pos = 0;
                let err = Value::decode(&nested_lists(headers), &mut pos).unwrap_err();
                assert_eq!(err.at, 5 * MAX_DECODE_DEPTH, "{} headers", headers);
            }
        })
        .join()
        .expect("decoding stays within the thread's stack");
    }

    #[test]
    fn byte_size_tracks_structure() {
        assert!(Value::Int(1).byte_size() < Value::str("a long string here").byte_size());
        let deep: Value = Value::List((0..10).map(Value::Int).collect());
        assert!(deep.byte_size() > 10 * Value::Int(0).byte_size() / 2);
    }

    #[test]
    fn small_strings_are_inline() {
        assert!(matches!(Str::new(""), Str::Inline { .. }));
        assert!(matches!(
            Str::new("exactly twenty-two by!"),
            Str::Inline { .. }
        ));
        assert!(matches!(Str::new("twenty-three bytes long"), Str::Heap(_)));
        // Inline and heap forms of the same text are equal and encode
        // identically.
        let long = "x".repeat(STR_INLINE_CAP + 1);
        for s in ["", "short", "exactly twenty-two by!", long.as_str()] {
            assert_eq!(Value::str(s), Value::str(s));
            assert_eq!(round_trip(&Value::str(s)), Value::str(s));
        }
        // The small-string form must not grow Value beyond one word over
        // the old bare-Arc<str> layout.
        assert!(std::mem::size_of::<Str>() <= 24);
        assert!(std::mem::size_of::<Value>() <= 32);
    }

    #[test]
    fn str_debug_and_display_match_str() {
        let s = Str::new("a \"quoted\" str");
        assert_eq!(format!("{:?}", s), format!("{:?}", "a \"quoted\" str"));
        assert_eq!(format!("{}", s), "a \"quoted\" str");
    }

    #[test]
    fn display_is_readable() {
        let v: Value = Value::List([Value::Int(1), Value::Bool(true)].into_iter().collect());
        assert_eq!(v.to_string(), "[1, true]");
    }
}
