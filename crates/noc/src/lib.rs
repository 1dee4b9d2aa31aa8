//! On-chip mesh network models.
//!
//! The study reports all traffic in *flit-hops*: each 16-byte flit counts
//! once per link it traverses. This crate models the 4×4 mesh of the paper
//! with XY dimension-order routing, computes packet sizes in flits (one
//! control flit plus up to four data flits), accounts flit-hops, and
//! provides three timing models behind the [`NetworkModel`] trait
//! (`DESIGN.md` §11):
//!
//! * [`Mesh`] — the **analytic** model: per-hop pipeline delay plus
//!   serialization plus a per-link queueing term derived from whole-packet
//!   link reservations. Fast; the default.
//! * [`WormholeMesh`] — the **flit-level** model: every flit of a packet
//!   crosses every link of its route, through routers with per-port
//!   virtual channels (granted earliest-free first), one-flit-per-cycle
//!   channel slots and credit backpressure ([`OutPorts`]). One `send`
//!   resolves one packet over dense per-link state — no event queue: the
//!   head flit hop by hop, then the body flits as one unstalled train per
//!   link when no credit can bind, and otherwise the rest of the
//!   `flits × hops` grid as a double loop.
//! * [`SnoopBus`] — the **snooping-bus** model: one transaction occupies the
//!   whole medium at a time, arbitrated FCFS in deterministic request order.
//!
//! Flit-hops are exact under XY routing and identical across models (all
//! account `hops × flits` over the same geometry); only latency differs, and
//! every model collapses to the same unloaded latency when idle.
//!
//! # Example
//!
//! ```
//! use tw_noc::{model_for, Mesh, NetworkModel, PacketSize};
//! use tw_types::{NetworkModelKind, NocConfig, TileId};
//!
//! let mesh = Mesh::new(NocConfig::default());
//! let size = PacketSize::with_data_words(&NocConfig::default(), 6);
//! assert_eq!(size.data_flits, 2);
//! let hops = mesh.hops(TileId(0), TileId(15));
//! assert_eq!(hops, 6);
//! assert_eq!(mesh.flit_hops(TileId(0), TileId(15), size), 6 * 3);
//!
//! // Both timing models agree on an idle mesh.
//! let mut flit = model_for(NetworkModelKind::FlitLevel, NocConfig::default());
//! assert_eq!(
//!     flit.send(TileId(0), TileId(15), size, 0),
//!     mesh.unloaded_latency(TileId(0), TileId(15), size),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod link;
pub mod mesh;
pub mod model;
pub mod packet;
pub mod router;
pub mod wormhole;

pub use bus::SnoopBus;
pub use link::{LinkId, LinkState};
pub use mesh::{xy_route, Mesh};
pub use model::{model_for, NetworkModel};
pub use packet::PacketSize;
pub use router::OutPorts;
pub use wormhole::WormholeMesh;
