//! Relation schemas: attribute types, layout computation, key location.
//!
//! The paper's experiments use tuples of a 4-byte join key plus a
//! fixed-length payload, but the engine itself "supports fixed length and
//! variable length attributes in tuples" (§7.1). A [`Schema`] describes the
//! attributes of a relation and precomputes the byte layout used by the
//! tuple codec in [`crate::tuple`].

use std::fmt;

/// The type of a single attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// 32-bit unsigned integer (the paper's 4-byte join keys).
    U32,
    /// 64-bit unsigned integer.
    U64,
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE float.
    F64,
    /// Fixed-length byte string of the given width (padded payloads).
    FixedBytes(u16),
    /// Variable-length byte string (stored in the tuple's var region).
    VarBytes,
}

impl AttrType {
    /// Width in bytes of the fixed part of this attribute.
    ///
    /// Variable-length attributes store a 4-byte `(offset: u16, len: u16)`
    /// descriptor in the fixed region; their bytes live in the var region
    /// at the end of the tuple.
    pub fn fixed_width(self) -> usize {
        match self {
            AttrType::U32 => 4,
            AttrType::U64 | AttrType::I64 | AttrType::F64 => 8,
            AttrType::FixedBytes(w) => w as usize,
            AttrType::VarBytes => 4,
        }
    }

    /// Whether the attribute is variable-length.
    pub fn is_var(self) -> bool {
        matches!(self, AttrType::VarBytes)
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrType::U32 => write!(f, "u32"),
            AttrType::U64 => write!(f, "u64"),
            AttrType::I64 => write!(f, "i64"),
            AttrType::F64 => write!(f, "f64"),
            AttrType::FixedBytes(w) => write!(f, "bytes[{w}]"),
            AttrType::VarBytes => write!(f, "varbytes"),
        }
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (for diagnostics; the engine addresses by index).
    pub name: String,
    /// Attribute type.
    pub ty: AttrType,
}

impl Attribute {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        Attribute { name: name.into(), ty }
    }
}

/// Where the join key sits in a schema's tuples: resolved once when the
/// schema is built, so reading a tuple's key (see
/// [`crate::tuple::key_bytes_of`]) indexes no attribute list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpan {
    /// Byte offset of the key's fixed part.
    pub(crate) offset: usize,
    /// Width of the key's fixed part (4 for a var-len descriptor).
    pub(crate) width: usize,
    /// Whether the fixed part is a var-len `(offset: u16, len: u16)`
    /// descriptor rather than the key bytes themselves.
    pub(crate) var: bool,
}

/// Schema of a relation: ordered attributes plus the index of the join key.
///
/// The layout places all fixed-width parts first, in attribute order
/// (variable-length attributes contribute a 4-byte descriptor), followed by
/// the concatenated var-region bytes. Precomputed fixed offsets make typed
/// access O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<Attribute>,
    /// Index into `attrs` of the join key attribute.
    key: usize,
    /// Byte offset of each attribute's fixed part.
    fixed_offsets: Vec<usize>,
    /// Total size of the fixed region.
    fixed_size: usize,
    /// Whether any attribute is variable-length.
    has_var: bool,
    /// The join key's byte span.
    key_span: KeySpan,
}

impl Schema {
    /// Build a schema. `key` is the index of the join-key attribute.
    ///
    /// # Panics
    /// Panics if `attrs` is empty, `key` is out of range, or the key
    /// attribute is variable-length with width 0 (keys must be comparable
    /// as byte slices; `VarBytes` keys are allowed and compared by bytes).
    pub fn new(attrs: Vec<Attribute>, key: usize) -> Self {
        assert!(!attrs.is_empty(), "schema must have at least one attribute");
        assert!(key < attrs.len(), "join key index {key} out of range");
        let mut fixed_offsets = Vec::with_capacity(attrs.len());
        let mut off = 0usize;
        let mut has_var = false;
        for a in &attrs {
            fixed_offsets.push(off);
            off += a.ty.fixed_width();
            has_var |= a.ty.is_var();
        }
        let ty = attrs[key].ty;
        let key_span =
            KeySpan { offset: fixed_offsets[key], width: ty.fixed_width(), var: ty.is_var() };
        Schema { attrs, key, fixed_offsets, fixed_size: off, has_var, key_span }
    }

    /// The paper's experimental schema: a 4-byte `u32` join key followed by
    /// a fixed payload bringing the tuple to `tuple_size` bytes total.
    ///
    /// # Panics
    /// Panics if `tuple_size < 4`.
    pub fn key_payload(tuple_size: usize) -> Self {
        assert!(tuple_size >= 4, "tuple must at least hold the 4-byte key");
        let mut attrs = vec![Attribute::new("key", AttrType::U32)];
        if tuple_size > 4 {
            attrs.push(Attribute::new(
                "payload",
                AttrType::FixedBytes((tuple_size - 4) as u16),
            ));
        }
        Schema::new(attrs, 0)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute list.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Index of the join-key attribute.
    pub fn key_index(&self) -> usize {
        self.key
    }

    /// Type of the join-key attribute.
    pub fn key_type(&self) -> AttrType {
        self.attrs[self.key].ty
    }

    /// The join key's byte span.
    #[inline]
    pub fn key_span(&self) -> KeySpan {
        self.key_span
    }

    /// Byte offset of attribute `i`'s fixed part within a tuple.
    pub fn fixed_offset(&self, i: usize) -> usize {
        self.fixed_offsets[i]
    }

    /// Size of the fixed region (== tuple size when `!has_var()`).
    pub fn fixed_size(&self) -> usize {
        self.fixed_size
    }

    /// Whether tuples of this schema have a variable-length region.
    pub fn has_var(&self) -> bool {
        self.has_var
    }

    /// Exact encoded size of a tuple with the given var-region payload
    /// lengths (one entry per `VarBytes` attribute, in order).
    pub fn tuple_size(&self, var_lens: &[usize]) -> usize {
        debug_assert_eq!(
            var_lens.len(),
            self.attrs.iter().filter(|a| a.ty.is_var()).count()
        );
        self.fixed_size + var_lens.iter().sum::<usize>()
    }

    /// Schema of the join output: all attributes of `build` then all of
    /// `probe` ("an output tuple contains all the fields of the matching
    /// build and probe tuples", §7.1). The output key is the build key.
    pub fn join_output(build: &Schema, probe: &Schema) -> Schema {
        let mut attrs = Vec::with_capacity(build.arity() + probe.arity());
        for a in build.attrs() {
            attrs.push(Attribute::new(format!("b_{}", a.name), a.ty));
        }
        for a in probe.attrs() {
            attrs.push(Attribute::new(format!("p_{}", a.name), a.ty));
        }
        Schema::new(attrs, build.key_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_payload_layout() {
        let s = Schema::key_payload(100);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.fixed_size(), 100);
        assert_eq!(s.fixed_offset(0), 0);
        assert_eq!(s.fixed_offset(1), 4);
        assert!(!s.has_var());
        assert_eq!(s.key_index(), 0);
        assert_eq!(s.key_type(), AttrType::U32);
        assert_eq!(s.key_span(), KeySpan { offset: 0, width: 4, var: false });
    }

    #[test]
    fn key_only_tuple() {
        let s = Schema::key_payload(4);
        assert_eq!(s.arity(), 1);
        assert_eq!(s.fixed_size(), 4);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_small_tuple_panics() {
        let _ = Schema::key_payload(3);
    }

    #[test]
    fn var_layout() {
        let s = Schema::new(
            vec![
                Attribute::new("k", AttrType::U32),
                Attribute::new("name", AttrType::VarBytes),
                Attribute::new("qty", AttrType::I64),
            ],
            0,
        );
        assert!(s.has_var());
        assert_eq!(s.fixed_offset(0), 0);
        assert_eq!(s.fixed_offset(1), 4); // 4-byte var descriptor
        assert_eq!(s.fixed_offset(2), 8);
        assert_eq!(s.fixed_size(), 16);
        assert_eq!(s.tuple_size(&[5]), 21);
        let span = |key| Schema::new(s.attrs().to_vec(), key).key_span();
        assert_eq!(span(1), KeySpan { offset: 4, width: 4, var: true });
        assert_eq!(span(2), KeySpan { offset: 8, width: 8, var: false });
    }

    #[test]
    fn join_output_schema() {
        let b = Schema::key_payload(20);
        let p = Schema::key_payload(12);
        let o = Schema::join_output(&b, &p);
        assert_eq!(o.arity(), 4);
        assert_eq!(o.fixed_size(), 32);
        assert_eq!(o.key_index(), 0);
        assert_eq!(o.attrs()[0].name, "b_key");
        assert_eq!(o.attrs()[2].name, "p_key");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_key_index() {
        let _ = Schema::new(vec![Attribute::new("k", AttrType::U32)], 1);
    }
}
