#![warn(missing_docs)]

//! Disk-oriented execution for the `phj` hash join engine.
//!
//! The paper's real-machine experiments (§7.1–7.2) run on an engine that
//! stores relations and intermediate partitions as disk files, with "a
//! buffer manager that stripes pages across multiple disks and performs
//! I/O prefetching with background worker threads [...] and background
//! writing so that I/O operations can be overlapped with computations as
//! much as possible". This crate is that substrate, real files and real
//! threads included:
//!
//! * [`stripe::StripeSet`] — a relation's pages striped across N files in
//!   fixed-size units (the paper stripes across 6 disks in 256 KB units).
//!   Here each "disk" is a file, and all of them may share one device;
//!   a [`FaultPlan::stripe_mb_per_s`] cap makes stripe index `i` of every
//!   stripe set one bandwidth-bound disk, which is how Figure 9 sweeps
//!   the number of disks;
//! * [`FileRelation`] — an on-disk relation with its schema and page
//!   count;
//! * [`reader::SequentialReader`] — background read-ahead over a page
//!   list: one worker per stripe file reads runs of consecutive pages
//!   with one `preadv` each and streams the pages into a bounded queue
//!   while the main thread computes; the reader reports how long the
//!   main thread blocked;
//! * [`writer::BackgroundWriter`] — background write-back with a bounded
//!   in-flight window, one `pwritev` per run of consecutive pages; a
//!   send into a full window is main-thread stall too (the report's
//!   per-pass [`PassTimes`] add both up). Reader and writer workers run
//!   on threads reused from a bounded idle list, not spawned per use;
//! * [`grace`] — the one partition → build → probe join driver over
//!   [`FileRelation`]s: inputs stream through the reader, spilled
//!   partitions go out through the writer, and each spilled pair is
//!   loaded back and joined with any of the in-memory schemes. GRACE,
//!   hybrid and dynamic hybrid are residency policies of that driver
//!   ([`DiskJoinMode`]), not separate code paths.

pub mod budget;
pub mod catalog;
pub mod error;
pub mod fault;
pub mod grace;
mod hybrid;
pub mod reader;
pub mod stripe;
mod telemetry;
mod worker;
pub mod writer;

use std::path::{Path, PathBuf};

use phj_storage::{Relation, Schema, PAGE_SIZE};

pub use budget::LiveBudget;
pub use error::{PhjError, Result};
pub use fault::{Fault, FaultPlan, IoOp, IoStats, RetryPolicy};
pub use grace::{
    grace_join_files, grace_join_files_rec, DegradationEvent, DegradationKind, DiskGraceConfig,
    DiskGraceReport, DiskJoinMode, MemTransition, PassTimes, TransitionKind,
};
pub use reader::SequentialReader;
pub use stripe::StripeSet;
pub use writer::BackgroundWriter;

/// A relation stored on disk as striped page files.
#[derive(Debug)]
pub struct FileRelation {
    schema: Schema,
    stripes: StripeSet,
    num_pages: u64,
    num_tuples: u64,
}

impl FileRelation {
    /// Write an in-memory relation out as a striped file relation under
    /// `dir` (one file per stripe, named `<name>.N`). Pages are sealed
    /// (header checksum stamped) on their way out.
    pub fn create(
        dir: &Path,
        name: &str,
        rel: &Relation,
        num_stripes: usize,
        stripe_pages: u64,
    ) -> Result<FileRelation> {
        let stripes = StripeSet::create(dir, name, num_stripes, stripe_pages)
            .map_err(|e| PhjError::io(dir.join(name), e))?;
        let writer = BackgroundWriter::start(stripes.clone(), 64);
        for (i, page) in rel.pages().iter().enumerate() {
            writer.write(i as u64, page.sealed_image())?;
        }
        writer.finish()?;
        Ok(FileRelation {
            schema: rel.schema().clone(),
            stripes,
            num_pages: rel.num_pages() as u64,
            num_tuples: rel.num_tuples() as u64,
        })
    }

    /// Attach a fault plan and retry policy to all subsequent I/O on this
    /// relation (scans, loads, and any clone of its stripe set).
    pub fn set_faults(&mut self, fault: FaultPlan, retry: RetryPolicy) {
        self.stripes = self.stripes.clone().with_faults(fault, retry);
    }

    /// Open a scan over the relation with `read_ahead` pages of
    /// background prefetching.
    pub fn scan(&self, read_ahead: usize) -> SequentialReader {
        SequentialReader::start(self.stripes.clone(), 0, self.num_pages, read_ahead)
    }

    /// Read the entire relation back into memory (join-phase load of a
    /// memory-sized build partition). Every page is checksum-verified.
    pub fn load(&self) -> Result<Relation> {
        self.scan(64).into_relation(&self.schema)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of pages on disk.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Number of tuples.
    pub fn num_tuples(&self) -> u64 {
        self.num_tuples
    }

    /// Bytes on disk (whole pages).
    pub fn size_bytes(&self) -> u64 {
        self.num_pages * PAGE_SIZE as u64
    }

    /// Paths of the stripe files (diagnostics).
    pub fn stripe_paths(&self) -> Vec<PathBuf> {
        self.stripes.paths().to_vec()
    }

    /// Stripe unit in pages.
    pub fn stripe_pages(&self) -> u64 {
        self.stripes.stripe_pages()
    }

    fn from_parts(schema: Schema, stripes: StripeSet, num_pages: u64, num_tuples: u64) -> Self {
        FileRelation { schema, stripes, num_pages, num_tuples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj_storage::RelationBuilder;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "phj-disk-test-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_relation(n: usize) -> Relation {
        let schema = Schema::key_payload(40);
        let mut b = RelationBuilder::new(schema);
        let mut t = [0u8; 40];
        for i in 0..n {
            t[..4].copy_from_slice(&(i as u32).to_le_bytes());
            b.push_hashed(&t, i as u32);
        }
        b.finish()
    }

    #[test]
    fn create_scan_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let rel = sample_relation(5000);
        let fr = FileRelation::create(&dir, "r", &rel, 3, 4).unwrap();
        assert_eq!(fr.num_tuples(), 5000);
        assert_eq!(fr.num_pages(), rel.num_pages() as u64);
        assert_eq!(fr.stripe_paths().len(), 3);
        // Scan pages in order and compare tuples.
        let loaded = fr.load().unwrap();
        assert_eq!(loaded.to_tuple_vec(), rel.to_tuple_vec());
        for (r, t, h) in loaded.iter().take(10) {
            assert_eq!(loaded.tuple(r), t);
            let k = u32::from_le_bytes(t[..4].try_into().unwrap());
            assert_eq!(h, k);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_relation_roundtrip() {
        let dir = temp_dir("empty");
        let rel = sample_relation(0);
        let fr = FileRelation::create(&dir, "e", &rel, 2, 8).unwrap();
        assert_eq!(fr.num_pages(), 0);
        assert_eq!(fr.load().unwrap().num_tuples(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_reports_stall_time() {
        let dir = temp_dir("stall");
        let rel = sample_relation(20_000);
        let fr = FileRelation::create(&dir, "s", &rel, 2, 32).unwrap();
        let mut scan = fr.scan(16);
        let mut pages = 0u64;
        while let Some(_page) = scan.next_page().unwrap() {
            pages += 1;
        }
        assert_eq!(pages, fr.num_pages());
        // Stall accounting exists and is sane (non-negative, finite).
        assert!(scan.stall_seconds() >= 0.0);
        // Capped at 50 MB/s, the scan is longer than its two stripes'
        // bursts, so the main thread must wait for the disks.
        let mut fr = fr;
        fr.set_faults(FaultPlan::disabled().stripe_mb_per_s(50.0), RetryPolicy::default());
        let mut scan = fr.scan(16);
        while scan.next_page().unwrap().is_some() {}
        assert!(fr.num_pages() > 2 * fault::CAP_BURST_PAGES as u64);
        assert!(scan.stall_seconds() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
