//! Shared vocabulary for the on-chip traffic-waste study.
//!
//! This crate defines the basic quantities every other crate in the workspace
//! speaks in: word/line addresses, the tiled-mesh geometry, software regions
//! (including Flex communication regions and bypass regions), the protocol
//! configuration space studied by the paper, the message and traffic taxonomy
//! used for flit-hop accounting, memory-reference traces, and the simulated
//! system configuration (Table 4.1 of the paper).
//!
//! # Example
//!
//! ```
//! use tw_types::{Addr, LineAddr, SystemConfig, ProtocolKind};
//!
//! let cfg = SystemConfig::default();
//! assert_eq!(cfg.tiles(), 16);
//! let a = Addr::new(0x1040);
//! assert_eq!(LineAddr::containing(a, cfg.cache.line_bytes).byte(), 0x1040);
//! assert!(ProtocolKind::DBypFull.l2_request_bypass());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod digest;
pub mod error;
pub mod fastmap;
pub mod geometry;
pub mod mask;
pub mod message;
pub mod protocol;
pub mod region;
pub mod splitmix;
pub mod stats;
pub mod trace;

pub use addr::{Addr, LineAddr, WordIdx, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use config::{CacheConfig, DramConfig, NetworkModelKind, NocConfig, SystemConfig, MAX_TILES};
pub use digest::{Digest, Digester};
pub use error::ConfigError;
pub use fastmap::FastMap;
pub use geometry::{CoreId, MeshCoord, TileId};
pub use mask::WordMask;
pub use message::{MessageClass, MessageKind, TrafficBucket};
pub use protocol::ProtocolKind;
pub use region::{BypassKind, CommRegion, RegionId, RegionInfo, RegionTable};
pub use splitmix::{mix64, SplitMix64};
pub use stats::{Cycle, Stamp, LANES};
pub use trace::{MemKind, Record, TraceOp, TraceStats, TRACE_ADDR_LIMIT};
