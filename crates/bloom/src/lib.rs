//! Bloom filters for the "L2 Request Bypass" optimization (paper §3.1, §4.4).
//!
//! The optimization predicts whether a line may be dirty anywhere on chip.
//! Each L2 slice keeps a bank of 32 *counting* Bloom filters tracking the
//! line addresses of its dirty lines; each L1 keeps non-counting shadow
//! copies of every L2 filter, populated on demand after the first miss that
//! needs one and cleared at barriers. A load miss for a bypassed region may
//! skip the L2 and go straight to the memory controller only when its line is
//! *absent* from the relevant shadow filter — Bloom filters never produce
//! false negatives, so this is safe for data-race-free programs.
//!
//! Paper parameters: 512 entries per filter, one H3 hash function, 1-bit
//! entries at the L1 and 8-bit counters at the L2, 32 filters per slice.
//!
//! # Example
//!
//! ```
//! use tw_bloom::{BloomBank, BloomConfig};
//! use tw_types::LineAddr;
//!
//! let mut l2 = BloomBank::counting(BloomConfig::default());
//! let line = LineAddr::from_aligned(0x4_0000);
//! l2.insert(line);
//! assert!(l2.may_contain(line));
//! l2.remove(line);
//! assert!(!l2.may_contain(line));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod h3;

pub use bank::{BloomBank, BloomConfig, BloomHashes};
pub use h3::H3Hash;
