#![warn(missing_docs)]

//! # phj — hash join with prefetching
//!
//! A from-scratch reproduction of *Improving Hash Join Performance through
//! Prefetching* (Chen, Ailamaki, Gibbons, Mowry — CMU-CS-03-157 /
//! ICDE 2004): the GRACE hash join with **group prefetching** and
//! **software-pipelined prefetching** applied to both the partition phase
//! and the join phase, plus the paper's comparison points (simple
//! prefetching and cache partitioning) and its analytic models.
//!
//! Every algorithm is generic over [`phj_memsim::MemoryModel`]: with
//! [`phj_memsim::NativeModel`] it runs on real hardware issuing real
//! `prefetcht0` instructions; with [`phj_memsim::SimModel`] the identical
//! code drives the cycle-level memory-hierarchy simulator that regenerates
//! the paper's figures.
//!
//! ```
//! use phj::{grace, JoinScheme, PartitionScheme};
//! use phj_memsim::NativeModel;
//! use phj_storage::{RelationBuilder, Schema};
//!
//! // Two tiny relations with 4-byte keys and fixed payloads.
//! let schema = Schema::key_payload(16);
//! let mut build = RelationBuilder::new(schema.clone());
//! let mut probe = RelationBuilder::new(schema.clone());
//! for k in 0u32..1000 {
//!     let mut t = [0u8; 16];
//!     t[..4].copy_from_slice(&k.to_le_bytes());
//!     build.push(&t);
//!     probe.push(&t);
//!     probe.push(&t);
//! }
//! let (build, probe) = (build.finish(), probe.finish());
//!
//! let cfg = grace::GraceConfig {
//!     mem_budget: 64 * 1024, // force several partitions
//!     partition_scheme: PartitionScheme::Group { g: 8 },
//!     join_scheme: JoinScheme::Group { g: 16 },
//!     ..Default::default()
//! };
//! let mut mem = NativeModel;
//! let result = grace::grace_join(&mut mem, &cfg, &build, &probe);
//! assert_eq!(result.output.num_tuples(), 2000);
//! ```

pub mod aggregate;
pub mod cachepart;
pub mod chained;
pub mod cost;
pub mod grace;
pub mod hash;
pub mod join;
pub mod model;
pub mod partition;
pub mod plan;
pub mod profile;
pub mod sink;
pub mod stage;
pub mod table;

pub use join::JoinScheme;
pub use partition::PartitionScheme;
pub use sink::{BatchingSink, CountSink, JoinSink, OutputWriter};
pub use table::HashTable;
