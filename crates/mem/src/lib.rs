//! Cache substrate: set-associative arrays with per-word state and the
//! DeNovo write-combining (registration-coalescing) table.
//!
//! Both protocol families in the study are built on the same physical cache
//! structures; what differs is the metadata kept per line and per word. The
//! [`CacheArray`] here is therefore generic over a protocol-defined line
//! metadata type, while per-word valid/dirty bits — needed by DeNovo's
//! word-granularity coherence and by the waste profiler — are first-class.
//!
//! # Example
//!
//! ```
//! use tw_mem::{CacheArray, CacheGeometry};
//! use tw_types::{Addr, LineAddr, WordIdx};
//!
//! let geom = CacheGeometry::new(32 * 1024, 8, 64);
//! let mut l1: CacheArray<()> = CacheArray::new(geom);
//! let line = LineAddr::containing(Addr::new(0x1000), 64);
//! let (entry, victim) = l1.insert(line, ());
//! assert!(victim.is_none());
//! entry.valid.insert(WordIdx(0));
//! assert!(l1.contains(line));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod write_combine;

pub use array::{CacheArray, CacheGeometry, LineEntry};
pub use write_combine::{WriteCombineEntry, WriteCombineTable, WriteFlush};
