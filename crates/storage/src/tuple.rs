//! Tuple encoding and decoding.
//!
//! A tuple is a byte string laid out per its [`Schema`]: the fixed region
//! holds fixed-width attribute values in attribute order, with each
//! variable-length attribute contributing a 4-byte `(offset: u16, len: u16)`
//! descriptor pointing into the var region that follows the fixed region.
//!
//! [`TupleAssembler`] builds encoded tuples (reusing its buffer to avoid
//! per-tuple allocation, per the workhorse-collection idiom), and
//! [`TupleView`] provides zero-copy typed access over an encoded slice.

use crate::schema::{AttrType, KeySpan, Schema};

/// Reusable tuple encoder.
///
/// ```
/// use phj_storage::{Schema, TupleAssembler};
/// let schema = Schema::key_payload(16);
/// let mut asm = TupleAssembler::new(&schema);
/// asm.set_u32(0, 42);
/// asm.fill_payload(1, 0xAB);
/// let bytes = asm.finish();
/// assert_eq!(bytes.len(), 16);
/// assert_eq!(&bytes[..4], &42u32.to_le_bytes());
/// ```
pub struct TupleAssembler<'s> {
    schema: &'s Schema,
    buf: Vec<u8>,
    var_vals: Vec<Vec<u8>>,
}

impl<'s> TupleAssembler<'s> {
    /// Create an assembler for `schema` with all-zero initial values.
    pub fn new(schema: &'s Schema) -> Self {
        let nvar = schema.attrs().iter().filter(|a| a.ty.is_var()).count();
        TupleAssembler {
            schema,
            buf: vec![0u8; schema.fixed_size()],
            var_vals: vec![Vec::new(); nvar],
        }
    }

    /// Set a `U32` attribute.
    pub fn set_u32(&mut self, attr: usize, v: u32) -> &mut Self {
        self.put_fixed(attr, AttrType::U32, &v.to_le_bytes())
    }

    /// Set a `U64` attribute.
    pub fn set_u64(&mut self, attr: usize, v: u64) -> &mut Self {
        self.put_fixed(attr, AttrType::U64, &v.to_le_bytes())
    }

    /// Set an `I64` attribute.
    pub fn set_i64(&mut self, attr: usize, v: i64) -> &mut Self {
        self.put_fixed(attr, AttrType::I64, &v.to_le_bytes())
    }

    /// Set an `F64` attribute.
    pub fn set_f64(&mut self, attr: usize, v: f64) -> &mut Self {
        self.put_fixed(attr, AttrType::F64, &v.to_le_bytes())
    }

    /// Set a `FixedBytes` attribute. `v` must match the declared width.
    pub fn set_fixed_bytes(&mut self, attr: usize, v: &[u8]) -> &mut Self {
        let ty = self.schema.attrs()[attr].ty;
        match ty {
            AttrType::FixedBytes(w) => {
                assert_eq!(v.len(), w as usize, "fixed bytes width mismatch");
            }
            other => panic!("attribute {attr} is {other}, not bytes[n]"),
        }
        let off = self.schema.fixed_offset(attr);
        self.buf[off..off + v.len()].copy_from_slice(v);
        self
    }

    /// Fill a `FixedBytes` attribute with a repeated byte (payload filler).
    pub fn fill_payload(&mut self, attr: usize, byte: u8) -> &mut Self {
        let w = match self.schema.attrs()[attr].ty {
            AttrType::FixedBytes(w) => w as usize,
            other => panic!("attribute {attr} is {other}, not bytes[n]"),
        };
        let off = self.schema.fixed_offset(attr);
        self.buf[off..off + w].fill(byte);
        self
    }

    /// Set a `VarBytes` attribute.
    pub fn set_var_bytes(&mut self, attr: usize, v: &[u8]) -> &mut Self {
        assert!(
            self.schema.attrs()[attr].ty.is_var(),
            "attribute {attr} is not varbytes"
        );
        let vi = self.var_slot(attr);
        self.var_vals[vi].clear();
        self.var_vals[vi].extend_from_slice(v);
        self
    }

    /// Encode the current values; the returned slice is valid until the
    /// next mutation of this assembler.
    pub fn finish(&mut self) -> &[u8] {
        if !self.schema.has_var() {
            return &self.buf;
        }
        // Lay out var region after the fixed region and patch descriptors.
        self.buf.truncate(self.schema.fixed_size());
        let mut off = self.schema.fixed_size();
        let mut vi = 0usize;
        let mut patches: Vec<(usize, u16, u16)> = Vec::new();
        for (i, a) in self.schema.attrs().iter().enumerate() {
            if a.ty.is_var() {
                let len = self.var_vals[vi].len();
                assert!(len <= u16::MAX as usize, "var attribute too long");
                assert!(off <= u16::MAX as usize, "tuple too long");
                patches.push((self.schema.fixed_offset(i), off as u16, len as u16));
                off += len;
                vi += 1;
            }
        }
        for (fo, o, l) in patches {
            self.buf[fo..fo + 2].copy_from_slice(&o.to_le_bytes());
            self.buf[fo + 2..fo + 4].copy_from_slice(&l.to_le_bytes());
        }
        for vi in 0..self.var_vals.len() {
            // Appending after the fixed region; descriptors already point here.
            let v = std::mem::take(&mut self.var_vals[vi]);
            self.buf.extend_from_slice(&v);
            self.var_vals[vi] = v;
        }
        &self.buf
    }

    fn put_fixed(&mut self, attr: usize, want: AttrType, bytes: &[u8]) -> &mut Self {
        let ty = self.schema.attrs()[attr].ty;
        assert_eq!(ty, want, "attribute {attr} type mismatch");
        let off = self.schema.fixed_offset(attr);
        self.buf[off..off + bytes.len()].copy_from_slice(bytes);
        self
    }

    fn var_slot(&self, attr: usize) -> usize {
        self.schema.attrs()[..attr]
            .iter()
            .filter(|a| a.ty.is_var())
            .count()
    }
}

/// Zero-copy typed reader over an encoded tuple.
#[derive(Clone, Copy)]
pub struct TupleView<'a> {
    schema: &'a Schema,
    bytes: &'a [u8],
}

impl<'a> TupleView<'a> {
    /// Wrap encoded bytes. The caller asserts they were produced for
    /// `schema` (checked cheaply: length ≥ fixed size).
    pub fn new(schema: &'a Schema, bytes: &'a [u8]) -> Self {
        debug_assert!(bytes.len() >= schema.fixed_size());
        TupleView { schema, bytes }
    }

    /// Raw encoded bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Read a `U32` attribute.
    pub fn u32(&self, attr: usize) -> u32 {
        let off = self.fixed(attr, AttrType::U32);
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }

    /// Read a `U64` attribute.
    pub fn u64(&self, attr: usize) -> u64 {
        let off = self.fixed(attr, AttrType::U64);
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read an `I64` attribute.
    pub fn i64(&self, attr: usize) -> i64 {
        let off = self.fixed(attr, AttrType::I64);
        i64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read an `F64` attribute.
    pub fn f64(&self, attr: usize) -> f64 {
        let off = self.fixed(attr, AttrType::F64);
        f64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read the raw bytes of any attribute (fixed or var).
    pub fn attr_bytes(&self, attr: usize) -> &'a [u8] {
        let ty = self.schema.attrs()[attr].ty;
        let off = self.schema.fixed_offset(attr);
        if ty.is_var() {
            let vo =
                u16::from_le_bytes(self.bytes[off..off + 2].try_into().unwrap()) as usize;
            let vl = u16::from_le_bytes(self.bytes[off + 2..off + 4].try_into().unwrap())
                as usize;
            &self.bytes[vo..vo + vl]
        } else {
            &self.bytes[off..off + ty.fixed_width()]
        }
    }

    /// The join-key bytes of this tuple.
    pub fn key_bytes(&self) -> &'a [u8] {
        self.schema.key_span().bytes(self.bytes)
    }

    fn fixed(&self, attr: usize, want: AttrType) -> usize {
        debug_assert_eq!(self.schema.attrs()[attr].ty, want);
        self.schema.fixed_offset(attr)
    }
}

impl KeySpan {
    /// The join-key bytes of an encoded tuple of this span's schema.
    #[inline]
    pub fn bytes(self, tuple: &[u8]) -> &[u8] {
        let off = self.offset;
        if self.var {
            let vo = u16::from_le_bytes(tuple[off..off + 2].try_into().expect("2 bytes")) as usize;
            let vl =
                u16::from_le_bytes(tuple[off + 2..off + 4].try_into().expect("2 bytes")) as usize;
            &tuple[vo..vo + vl]
        } else {
            &tuple[off..off + self.width]
        }
    }
}

/// Extract the join-key bytes from an encoded tuple without constructing a
/// view (hot-path helper for the join inner loops).
#[inline]
pub fn key_bytes_of<'a>(schema: &Schema, tuple: &'a [u8]) -> &'a [u8] {
    schema.key_span().bytes(tuple)
}

/// Concatenate a build tuple and probe tuple into the join-output encoding
/// for [`Schema::join_output`], appending into `out` (which is cleared).
///
/// Only fixed-size schemas are concatenation-trivial; schemas with var
/// attributes are re-encoded so descriptors stay valid.
pub fn materialize_join_output(
    build_schema: &Schema,
    probe_schema: &Schema,
    build: &[u8],
    probe: &[u8],
    out: &mut Vec<u8>,
) {
    out.clear();
    if !build_schema.has_var() && !probe_schema.has_var() {
        out.extend_from_slice(build);
        out.extend_from_slice(probe);
        return;
    }
    // Slow path: copy fixed regions, then re-pack var regions and patch
    // descriptors relative to the combined tuple.
    let bf = build_schema.fixed_size();
    let pf = probe_schema.fixed_size();
    out.extend_from_slice(&build[..bf]);
    out.extend_from_slice(&probe[..pf]);
    let mut var_off = bf + pf;
    let patch = |fixed_base: usize,
                     schema: &Schema,
                     src: &[u8],
                     out: &mut Vec<u8>,
                     var_off: &mut usize| {
        for (i, a) in schema.attrs().iter().enumerate() {
            if a.ty.is_var() {
                let off = schema.fixed_offset(i);
                let vo =
                    u16::from_le_bytes(src[off..off + 2].try_into().unwrap()) as usize;
                let vl = u16::from_le_bytes(src[off + 2..off + 4].try_into().unwrap())
                    as usize;
                let dst = fixed_base + off;
                out[dst..dst + 2].copy_from_slice(&(*var_off as u16).to_le_bytes());
                out[dst + 2..dst + 4].copy_from_slice(&(vl as u16).to_le_bytes());
                let (head, _) = (&src[vo..vo + vl], ());
                let bytes = head.to_vec();
                out.extend_from_slice(&bytes);
                *var_off += vl;
            }
        }
    };
    patch(0, build_schema, build, out, &mut var_off);
    patch(bf, probe_schema, probe, out, &mut var_off);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    #[test]
    fn fixed_roundtrip() {
        let s = Schema::key_payload(24);
        let mut asm = TupleAssembler::new(&s);
        asm.set_u32(0, 0xDEADBEEF).fill_payload(1, 0x5A);
        let bytes = asm.finish().to_vec();
        let v = TupleView::new(&s, &bytes);
        assert_eq!(v.u32(0), 0xDEADBEEF);
        assert_eq!(v.attr_bytes(1), &[0x5A; 20][..]);
        assert_eq!(v.key_bytes(), &0xDEADBEEFu32.to_le_bytes());
        assert_eq!(key_bytes_of(&s, &bytes), v.key_bytes());
    }

    #[test]
    fn var_roundtrip() {
        let s = Schema::new(
            vec![
                Attribute::new("k", AttrType::U32),
                Attribute::new("name", AttrType::VarBytes),
                Attribute::new("qty", AttrType::I64),
                Attribute::new("note", AttrType::VarBytes),
            ],
            0,
        );
        let mut asm = TupleAssembler::new(&s);
        asm.set_u32(0, 7)
            .set_var_bytes(1, b"widget")
            .set_i64(2, -99)
            .set_var_bytes(3, b"fragile!");
        let bytes = asm.finish().to_vec();
        assert_eq!(bytes.len(), s.tuple_size(&[6, 8]));
        let v = TupleView::new(&s, &bytes);
        assert_eq!(v.u32(0), 7);
        assert_eq!(v.attr_bytes(1), b"widget");
        assert_eq!(v.i64(2), -99);
        assert_eq!(v.attr_bytes(3), b"fragile!");
    }

    #[test]
    fn var_key() {
        let s = Schema::new(
            vec![
                Attribute::new("name", AttrType::VarBytes),
                Attribute::new("x", AttrType::U32),
            ],
            0,
        );
        let mut asm = TupleAssembler::new(&s);
        asm.set_var_bytes(0, b"alpha").set_u32(1, 3);
        let bytes = asm.finish().to_vec();
        assert_eq!(key_bytes_of(&s, &bytes), b"alpha");
    }

    #[test]
    fn assembler_reuse_is_clean() {
        let s = Schema::new(
            vec![
                Attribute::new("k", AttrType::U32),
                Attribute::new("v", AttrType::VarBytes),
            ],
            0,
        );
        let mut asm = TupleAssembler::new(&s);
        asm.set_u32(0, 1).set_var_bytes(1, b"long-first-value");
        let first = asm.finish().to_vec();
        asm.set_u32(0, 2).set_var_bytes(1, b"x");
        let second = asm.finish().to_vec();
        assert_eq!(TupleView::new(&s, &first).attr_bytes(1), b"long-first-value");
        let v2 = TupleView::new(&s, &second);
        assert_eq!(v2.u32(0), 2);
        assert_eq!(v2.attr_bytes(1), b"x");
        assert_eq!(second.len(), s.tuple_size(&[1]));
    }

    #[test]
    fn join_output_fixed_concat() {
        let b = Schema::key_payload(8);
        let p = Schema::key_payload(12);
        let o = Schema::join_output(&b, &p);
        let mut ab = TupleAssembler::new(&b);
        ab.set_u32(0, 5).fill_payload(1, 1);
        let bt = ab.finish().to_vec();
        let mut ap = TupleAssembler::new(&p);
        ap.set_u32(0, 5).fill_payload(1, 2);
        let pt = ap.finish().to_vec();
        let mut out = Vec::new();
        materialize_join_output(&b, &p, &bt, &pt, &mut out);
        assert_eq!(out.len(), 20);
        let v = TupleView::new(&o, &out);
        assert_eq!(v.u32(0), 5);
        assert_eq!(v.u32(2), 5);
        assert_eq!(v.attr_bytes(1), &[1; 4][..]);
        assert_eq!(v.attr_bytes(3), &[2; 8][..]);
    }

    #[test]
    fn join_output_with_var() {
        let b = Schema::new(
            vec![
                Attribute::new("k", AttrType::U32),
                Attribute::new("bn", AttrType::VarBytes),
            ],
            0,
        );
        let p = Schema::new(
            vec![
                Attribute::new("k", AttrType::U32),
                Attribute::new("pn", AttrType::VarBytes),
            ],
            0,
        );
        let o = Schema::join_output(&b, &p);
        let mut ab = TupleAssembler::new(&b);
        ab.set_u32(0, 9).set_var_bytes(1, b"build-side");
        let bt = ab.finish().to_vec();
        let mut ap = TupleAssembler::new(&p);
        ap.set_u32(0, 9).set_var_bytes(1, b"probe");
        let pt = ap.finish().to_vec();
        let mut out = Vec::new();
        materialize_join_output(&b, &p, &bt, &pt, &mut out);
        let v = TupleView::new(&o, &out);
        assert_eq!(v.u32(0), 9);
        assert_eq!(v.attr_bytes(1), b"build-side");
        assert_eq!(v.u32(2), 9);
        assert_eq!(v.attr_bytes(3), b"probe");
    }
}
