//! Coherence-protocol state machines: directory-based MESI, DeNovo, and the
//! Dragon write-update extension.
//!
//! Two substrates, three families:
//!
//! * **The inclusive directory** ([`directory`]): a line-granularity
//!   [`LineState`] in each L1 and a [`Directory`] entry (owner + sharer set)
//!   alongside the inclusive L2. Two protocols are policies over it, each a
//!   handful of plain functions on `&mut Directory`:
//!   * **MESI** ([`mesi`]) *invalidates*: stores to `S` lines need an
//!     Upgrade, stores to `I` lines a GetM with a full-line data response
//!     (fetch-on-write), and the blocking directory produces unblock
//!     messages, invalidations and acknowledgements.
//!   * **Dragon** ([`dragon`]) *updates*: stores to shared lines broadcast
//!     the written words to the sharers — the sharer set never shrinks on a
//!     write, and the last writer holds the line in `Sm`.
//! * **DeNovo** ([`denovo`]) tracks word-granularity state
//!   (`Invalid`/`Valid`/`Registered`) in the L1s, and the shared L2 doubles
//!   as the registry: each word is either valid at the L2 or registered to
//!   the core that owns it. There are no sharer lists; stale data is removed
//!   by self-invalidation at barriers.
//!
//! The transaction *choreography* (which messages travel where, with what
//! latency) lives in the simulator crate (`denovo-waste`); this crate owns the
//! state types, their legal transitions, and the pure decision functions
//! (response sizing under Flex, which supplier answers for which words of a
//! DeNovo read, store policies, self-invalidation filters)
//! so they can be tested exhaustively in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod denovo;
pub mod directory;
pub mod dragon;
pub mod flex;
pub mod mesi;

pub use denovo::{DenovoL2Line, DenovoWordState, L2WordOwner};
pub use directory::{Directory, LineState, SharerSet};
pub use flex::{flex_fetch_plan, FlexPlan};
