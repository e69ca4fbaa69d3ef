#![warn(missing_docs)]

//! Storage layer for the `phj` hash join engine.
//!
//! This crate implements the on-"disk" representation the paper's engine
//! uses (§7.1 of *Improving Hash Join Performance through Prefetching*,
//! Chen et al.):
//!
//! * relations and intermediate partitions are stored in **slotted pages**
//!   ([`page::Page`], 8 KB by default, same as the simulated system);
//! * tuples support **fixed- and variable-length attributes**
//!   ([`schema::Schema`], [`mod@tuple`]);
//! * the slot area of intermediate-partition pages can **stash the 4-byte
//!   hash code** of each tuple, so the join phase reuses the hash computed
//!   by the partition phase instead of re-reading the join key
//!   (the paper's "storing hash codes in the page slot area" optimization);
//! * a [`relation::Relation`] is an append-only arena of pages, which stands
//!   in for a disk file of a relation or of one intermediate partition. The
//!   simulation study in the paper measures user-mode CPU time only, so an
//!   in-memory page arena preserves the measured behaviour;
//! * every page buffer is a [`frame::Frame`], an 8 KB box recycled through
//!   one process-wide free list, so consecutive joins reuse the pages of
//!   earlier ones instead of faulting fresh memory in.
//!
//! Everything is plain safe Rust except the one `ManuallyDrop::take` in
//! `Frame`'s `Drop` (its invariant is documented there); the memory-model
//! instrumentation hooks
//! live in `phj-memsim` and consume the *addresses* of the buffers exposed
//! here (e.g. [`relation::Relation::tuple_addr`]).

pub mod frame;
pub mod page;
pub mod relation;
pub mod schema;
mod telemetry;
pub mod tuple;

pub use frame::Frame;
pub use page::{Page, PageError, SlotId, PAGE_HEADER_BYTES, PAGE_SIZE};
pub use relation::{Relation, RelationBuilder, TupleRef};
pub use schema::{AttrType, Attribute, KeySpan, Schema};
pub use tuple::{TupleAssembler, TupleView};
