//! Relation description files.
//!
//! §7.1: "Schemas and statistics are kept in separate description files
//! for simplicity, the latter of which are used by the hash join
//! algorithms to compute numbers of partitions and hash table sizes."
//! A [`FileRelation`]'s description lives next to its stripe files as
//! `<name>.desc`, a small line-oriented text format (no serialization
//! dependency needed):
//!
//! ```text
//! phj-relation v2
//! stripes 6
//! stripe_pages 32
//! pages 1234
//! tuples 92550
//! key 0
//! attr key u32
//! attr payload bytes 96
//! ```

use std::io::{self, Write};
use std::path::Path;

use phj_storage::{AttrType, Attribute, Schema};

use crate::stripe::StripeSet;
use crate::FileRelation;

/// First line of every description. The version names the page format of
/// the stripe files beside it: v2 pages carry the word-wise lane checksum
/// (`phj_storage::Page::sealed_image`), v1 pages the byte-wise FNV one.
const HEADER: &str = "phj-relation v2";

/// Serialize a schema + stats into the description format.
pub fn describe(
    schema: &Schema,
    num_stripes: usize,
    stripe_pages: u64,
    pages: u64,
    tuples: u64,
) -> String {
    let mut s = format!("{HEADER}\n");
    s.push_str(&format!("stripes {num_stripes}\n"));
    s.push_str(&format!("stripe_pages {stripe_pages}\n"));
    s.push_str(&format!("pages {pages}\n"));
    s.push_str(&format!("tuples {tuples}\n"));
    s.push_str(&format!("key {}\n", schema.key_index()));
    for a in schema.attrs() {
        let ty = match a.ty {
            AttrType::U32 => "u32".to_string(),
            AttrType::U64 => "u64".to_string(),
            AttrType::I64 => "i64".to_string(),
            AttrType::F64 => "f64".to_string(),
            AttrType::FixedBytes(w) => format!("bytes {w}"),
            AttrType::VarBytes => "varbytes".to_string(),
        };
        s.push_str(&format!("attr {} {}\n", a.name, ty));
    }
    s
}

/// Parsed description.
pub struct Description {
    /// The relation's schema.
    pub schema: Schema,
    /// Stripe files.
    pub num_stripes: usize,
    /// Stripe unit in pages.
    pub stripe_pages: u64,
    /// Page count.
    pub pages: u64,
    /// Tuple count.
    pub tuples: u64,
}

/// Parse a description file's contents.
pub fn parse(text: &str) -> Result<Description, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty description")?;
    if header == "phj-relation v1" {
        return Err("description written with the v1 byte-wise page checksum, \
                    which this build no longer verifies; re-create the relation"
            .into());
    }
    if header != HEADER {
        return Err(format!("unknown description header `{header}`"));
    }
    let mut num_stripes = None;
    let mut stripe_pages = None;
    let mut pages = None;
    let mut tuples = None;
    let mut key = None;
    let mut attrs: Vec<Attribute> = Vec::new();
    for (ln, line) in lines.enumerate() {
        let mut parts = line.split_whitespace();
        let Some(tag) = parts.next() else { continue };
        let mut num = |name: &str| -> Result<u64, String> {
            parts
                .next()
                .ok_or_else(|| format!("line {}: {name} needs a value", ln + 2))?
                .parse()
                .map_err(|_| format!("line {}: bad {name}", ln + 2))
        };
        match tag {
            "stripes" => num_stripes = Some(num("stripes")? as usize),
            "stripe_pages" => stripe_pages = Some(num("stripe_pages")?),
            "pages" => pages = Some(num("pages")?),
            "tuples" => tuples = Some(num("tuples")?),
            "key" => key = Some(num("key")? as usize),
            "attr" => {
                let name = parts.next().ok_or("attr needs a name")?.to_string();
                let ty = match parts.next().ok_or("attr needs a type")? {
                    "u32" => AttrType::U32,
                    "u64" => AttrType::U64,
                    "i64" => AttrType::I64,
                    "f64" => AttrType::F64,
                    "varbytes" => AttrType::VarBytes,
                    "bytes" => {
                        let w: u16 = parts
                            .next()
                            .ok_or("bytes needs a width")?
                            .parse()
                            .map_err(|_| "bad bytes width")?;
                        AttrType::FixedBytes(w)
                    }
                    other => return Err(format!("unknown attr type `{other}`")),
                };
                attrs.push(Attribute::new(name, ty));
            }
            other => return Err(format!("unknown tag `{other}`")),
        }
    }
    if attrs.is_empty() {
        return Err("description has no attributes".into());
    }
    let key = key.ok_or("missing key")?;
    if key >= attrs.len() {
        return Err(format!("key index {key} out of range"));
    }
    Ok(Description {
        schema: Schema::new(attrs, key),
        num_stripes: num_stripes.ok_or("missing stripes")? ,
        stripe_pages: stripe_pages.ok_or("missing stripe_pages")?,
        pages: pages.ok_or("missing pages")?,
        tuples: tuples.ok_or("missing tuples")?,
    })
}

impl FileRelation {
    /// Write the relation's description file (`<name>.desc`).
    pub fn write_description(&self, dir: &Path, name: &str) -> io::Result<()> {
        let text = describe(
            self.schema(),
            self.stripe_paths().len(),
            self.stripe_pages(),
            self.num_pages(),
            self.num_tuples(),
        );
        let mut f = std::fs::File::create(dir.join(format!("{name}.desc")))?;
        f.write_all(text.as_bytes())
    }

    /// Reopen a relation from its description and stripe files.
    pub fn open(dir: &Path, name: &str) -> io::Result<FileRelation> {
        let text = std::fs::read_to_string(dir.join(format!("{name}.desc")))?;
        let d = parse(&text).map_err(io::Error::other)?;
        let stripes = StripeSet::open(dir, name, d.num_stripes, d.stripe_pages)?;
        Ok(FileRelation::from_parts(d.schema, stripes, d.pages, d.tuples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(
            vec![
                Attribute::new("key", AttrType::U32),
                Attribute::new("name", AttrType::VarBytes),
                Attribute::new("pad", AttrType::FixedBytes(17)),
                Attribute::new("qty", AttrType::I64),
            ],
            0,
        )
    }

    #[test]
    fn describe_parse_roundtrip() {
        let schema = sample_schema();
        let text = describe(&schema, 6, 32, 1234, 92550);
        let d = parse(&text).unwrap();
        assert_eq!(d.schema, schema);
        assert_eq!(d.num_stripes, 6);
        assert_eq!(d.stripe_pages, 32);
        assert_eq!(d.pages, 1234);
        assert_eq!(d.tuples, 92550);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("not-a-relation").is_err());
        assert!(parse("phj-relation v2\nstripes x\n").is_err());
        assert!(parse("phj-relation v2\nstripes 2\nstripe_pages 1\npages 0\ntuples 0\nkey 5\nattr k u32\n").is_err());
        assert!(parse("phj-relation v2\nstripes 2\nstripe_pages 1\npages 0\ntuples 0\nkey 0\n").is_err());
        assert!(parse("phj-relation v2\nwhat 3\n").is_err());
    }

    #[test]
    fn v1_descriptions_are_rejected_with_the_reason() {
        use phj_storage::RelationBuilder;
        let dir = std::env::temp_dir().join(format!("phj-catalog-v1-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = RelationBuilder::new(Schema::key_payload(8));
        b.push_hashed(&[1u8; 8], 1);
        let fr = FileRelation::create(&dir, "old", &b.finish(), 2, 2).unwrap();
        fr.write_description(&dir, "old").unwrap();
        let desc = dir.join("old.desc");
        let text = std::fs::read_to_string(&desc).unwrap();
        assert!(text.starts_with("phj-relation v2\n"));
        std::fs::write(&desc, text.replacen("v2", "v1", 1)).unwrap();
        let Err(e) = FileRelation::open(&dir, "old") else {
            panic!("v1 must not open")
        };
        let msg = e.to_string();
        assert!(msg.contains("v1 byte-wise page checksum"), "{msg}");
        assert!(msg.contains("re-create the relation"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_relation_open_roundtrip() {
        use phj_storage::RelationBuilder;
        let dir = std::env::temp_dir()
            .join(format!("phj-catalog-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let schema = Schema::key_payload(32);
        let mut b = RelationBuilder::new(schema);
        let mut t = [0u8; 32];
        for i in 0..2000u32 {
            t[..4].copy_from_slice(&i.to_le_bytes());
            b.push_hashed(&t, i);
        }
        let rel = b.finish();
        let fr = FileRelation::create(&dir, "cat", &rel, 3, 4).unwrap();
        fr.write_description(&dir, "cat").unwrap();
        // Reopen and verify contents.
        let reopened = FileRelation::open(&dir, "cat").unwrap();
        assert_eq!(reopened.num_tuples(), 2000);
        assert_eq!(reopened.schema(), rel.schema());
        assert_eq!(reopened.load().unwrap().to_tuple_vec(), rel.to_tuple_vec());
        std::fs::remove_dir_all(&dir).ok();
    }
}
