//! # ips-store
//!
//! Persistent index snapshots and the long-lived serving layer — the split between
//! index *build* and index *serve* that lets the expensive preprocessing of the
//! paper's data structures (hash tables, recovery trees) be paid once and amortised
//! over arbitrarily many queries.
//!
//! Two halves:
//!
//! * **Persistence** — a versioned, endian-stable, checksummed binary snapshot format
//!   ([`snapshot`]: magic + header + per-structure sections + FNV-1a checksum) over
//!   the [`persist::Persist`] trait, which the `ips-lsh` tables and `ips-sketch`
//!   recovery structures implement down to their sampled hash functions and sketched
//!   matrices. Round-trips are **bit-identical**: a saved-then-loaded index has the
//!   same buckets, the same (already-drawn) randomness, and returns bit-equal query
//!   results.
//! * **Serving** — [`ShardedServingIndex`] wraps a loaded snapshot behind stable
//!   external ids, supports incremental [`ShardedServingIndex::insert`] /
//!   [`ShardedServingIndex::delete`] (true dynamic maintenance for the LSH
//!   families; overlay + tombstone + threshold rebuild for the sketch structure;
//!   see [`serving`]), answers batched above-threshold and top-`k` queries through
//!   the existing [`ips_core::JoinEngine`], and keeps per-index query/hit/latency
//!   counters. Its data is split across `N ≥ 1` hash-partitioned shards behind
//!   per-shard `RwLock`s — concurrent batched reads, mutations routed to the
//!   owning shard, per-shard answers merged exactly through [`ips_core::shard`]
//!   (bit-identical to one shard for the candidate-decomposable families; see
//!   [`sharded`]) — and [`ServingRegistry`] routes between several loaded indexes
//!   by name.
//!
//! Both halves are configured through one fluent facade, [`builder::IndexBuilder`]
//! (`Index::build(data).spec(s).strategy(…).serve_sharded()` /
//! `Index::open(path).threads(n).serve_sharded()`), the persistent sibling of
//! `ips_core::facade::JoinBuilder`; the `ips` CLI exposes the full data flow
//! through it: `ips build` (dataset → snapshot file), `ips serve` (line-protocol
//! REPL over a snapshot), `ips query` (one-shot batch against a snapshot).
//!
//! ```
//! use ips_core::problem::{JoinSpec, JoinVariant};
//! use ips_linalg::DenseVector;
//! use ips_store::{IndexConfig, ShardedConfig, ShardedServingIndex, Snapshot};
//!
//! // Build once...
//! let data = vec![
//!     DenseVector::from(&[0.9, 0.0][..]),
//!     DenseVector::from(&[0.0, 0.8][..]),
//! ];
//! let spec = JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap();
//! let serving =
//!     ShardedServingIndex::build(data, spec, IndexConfig::Brute, ShardedConfig::default())
//!         .unwrap();
//! // ...serve many times, mutating as traffic demands.
//! let inserted = serving.insert(DenseVector::from(&[0.7, 0.7][..])).unwrap();
//! let pairs = serving.query(&[DenseVector::from(&[1.0, 0.0][..])]).unwrap();
//! assert_eq!(pairs[0].data_index, 0);
//! serving.delete(inserted).unwrap();
//! assert_eq!(serving.stats().queries, 1);
//! // The snapshot bytes are a pure function of the index state.
//! let bytes = Snapshot::new(ips_store::AnyIndex::Brute(
//!     ips_core::mips::BruteForceMipsIndex::new(
//!         vec![DenseVector::from(&[1.0][..])],
//!         JoinSpec::new(0.5, 1.0, JoinVariant::Signed).unwrap(),
//!     ),
//! ))
//! .to_bytes();
//! assert!(Snapshot::from_bytes(&bytes).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod coalesce;
pub mod error;
pub mod format;
pub mod persist;
pub mod registry;
pub mod serving;
pub mod sharded;
pub mod snapshot;

pub use builder::{Index, IndexBuilder};
pub use coalesce::{CoalesceConfig, Coalescer};
pub use error::{Result, StoreError};
pub use persist::Persist;
pub use registry::ServingRegistry;
pub use serving::{IndexConfig, ServingConfig, ServingStats};
pub use sharded::{shard_of, MigrationReport, ShardedConfig, ShardedServingIndex, ShardedView};
pub use snapshot::{AnyIndex, IndexFamily, Snapshot};
