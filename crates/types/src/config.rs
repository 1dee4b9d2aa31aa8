//! Simulated system configuration (paper Table 4.1) and validation.

use crate::addr::{LINE_BYTES, WORD_BYTES};
use crate::error::ConfigError;
use crate::geometry::TileId;
use crate::stats::Cycle;

/// Largest mesh [`SystemConfig::validate`] accepts: per-core state is
/// encoded in 64-bit sharer sets and in one-byte word owners.
pub const MAX_TILES: usize = 64;

// Paper Table 4.1: the machine every plan simulates. A parameter no scale,
// spec variant or network sweep sets is one of these constants, not a
// `SystemConfig` field; `digest_fields` writes each where its field stood.

/// Core clock in MHz (reported only).
pub const CORE_MHZ: u64 = 2000;
/// L1 hit latency in cycles.
pub const L1_HIT_CYCLES: Cycle = 1;
/// L2 slice access latency in cycles (tag + data).
pub const L2_HIT_CYCLES: Cycle = 10;
/// Directory/L2 controller occupancy per request in cycles.
pub const L2_OCCUPANCY_CYCLES: Cycle = 2;
/// L1 associativity.
pub const L1_WAYS: usize = 8;
/// L2 associativity.
pub const L2_WAYS: usize = 16;
/// Entries of a core's non-blocking write / write-combining table.
pub const WRITE_TABLE_ENTRIES: usize = 32;
/// Write-combining timeout in cycles.
pub const WRITE_COMBINE_TIMEOUT: Cycle = 10_000;
/// Per-link latency in cycles.
pub const LINK_LATENCY: Cycle = 3;
/// Per-router pipeline latency in cycles.
pub const ROUTER_LATENCY: Cycle = 1;
/// Virtual channels per router output port (flit-level model).
pub const VCS_PER_PORT: usize = 4;
/// Per-VC downstream buffer depth in flits (flit-level model): how far a
/// packet runs ahead before credit backpressure.
pub const VC_BUFFER_FLITS: usize = 4;
/// DRAM banks per rank.
pub const DRAM_BANKS: usize = 8;
/// DRAM ranks per channel.
pub const DRAM_RANKS: usize = 2;
/// DRAM row-buffer size in bytes (the open-page granularity).
pub const DRAM_ROW_BYTES: u64 = 8 * 1024;
// DDR3-1066 at a 2 GHz core clock: tCAS ~ 13 ns ≈ 26 cycles, precharge +
// activate + CAS ~ 39 ns ≈ 78 cycles, and a 64-byte burst at 8.5 GB/s
// ~ 7.5 ns ≈ 15 cycles.
/// Row-buffer hit latency in core cycles.
pub const DRAM_ROW_HIT_CYCLES: Cycle = 26;
/// Row-buffer miss (precharge + activate + CAS) latency in core cycles.
pub const DRAM_ROW_MISS_CYCLES: Cycle = 78;
/// Cycles one cache line's data burst occupies the channel.
pub const DRAM_BURST_CYCLES: Cycle = 15;

/// Largest cache array, in bytes, [`SystemConfig::validate`] accepts for an
/// L1 or an L2 slice: the paper's whole 4 MB L2 in one array, 16× the
/// largest size a plan uses. Every tile allocates one of each up front.
pub const MAX_CACHE_BYTES: u64 = 4 * 1024 * 1024;

/// Cache sizes for the private L1s and the shared L2 slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache line size in bytes (64 in the paper; the only size
    /// [`SystemConfig::validate`] accepts).
    pub line_bytes: u64,
    /// Private L1 data cache size in bytes (32 KB).
    pub l1_bytes: u64,
    /// Per-tile shared L2 slice size in bytes (256 KB; 4 MB total).
    pub l2_slice_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            line_bytes: LINE_BYTES,
            l1_bytes: 32 * 1024,
            l2_slice_bytes: 256 * 1024,
        }
    }
}

/// How the on-chip network's timing is modeled (see `DESIGN.md` §11).
///
/// Flit-hop *traffic* is identical under every model — routes are XY
/// dimension-order either way and the analytic mesh's ledger is always
/// maintained — so the choice only moves latency and execution time.
/// `Analytic` is the fast default; `FlitLevel` simulates every flit through
/// wormhole routers with per-port virtual channels, deterministic per-cycle
/// link arbitration and credit backpressure (`tw-noc`); `SnoopBus`
/// serializes every message through one shared broadcast medium with FCFS
/// arbitration (the substrate snooping update protocols were designed for).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum NetworkModelKind {
    /// Per-link analytic reservation: hop pipeline + serialization + a
    /// per-link queueing estimate (the original mesh model).
    #[default]
    Analytic,
    /// Event-driven flit-level wormhole simulation with virtual channels
    /// and credit backpressure.
    FlitLevel,
    /// Shared snooping bus: one transaction occupies the whole medium at a
    /// time, arbitrated deterministically in request order.
    SnoopBus,
}

impl NetworkModelKind {
    /// Every model, in sweep order.
    pub const ALL: [NetworkModelKind; 3] = [
        NetworkModelKind::Analytic,
        NetworkModelKind::FlitLevel,
        NetworkModelKind::SnoopBus,
    ];

    /// This model's lane of a [`Stamp`](crate::Stamp): its position in
    /// [`NetworkModelKind::ALL`] (declaration order), so analytic is lane 0.
    pub const fn lane(self) -> usize {
        self as usize
    }

    /// The spec-grammar / CLI name of this model (lowercase).
    pub const fn name(self) -> &'static str {
        match self {
            NetworkModelKind::Analytic => "analytic",
            NetworkModelKind::FlitLevel => "flit",
            NetworkModelKind::SnoopBus => "bus",
        }
    }

    /// Resolves a model from its name (case-insensitive).
    ///
    /// # Errors
    ///
    /// Names the rejected name and lists the accepted ones.
    pub fn by_name(name: &str) -> Result<NetworkModelKind, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                format!("unknown network model `{name}`; expected analytic | flit | bus")
            })
    }
}

impl std::fmt::Display for NetworkModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// On-chip network parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh columns (4).
    pub cols: usize,
    /// Mesh rows (4).
    pub rows: usize,
    /// Link width in bytes (16) — one flit per link per cycle.
    pub link_bytes: u64,
    /// Maximum number of data flits per packet (4 ⇒ at most 64 B of data).
    pub max_data_flits: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            cols: 4,
            rows: 4,
            link_bytes: 16,
            max_data_flits: 4,
        }
    }
}

impl NocConfig {
    /// Number of tiles in the mesh.
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Words carried per data flit.
    pub fn words_per_flit(&self) -> usize {
        (self.link_bytes / WORD_BYTES) as usize
    }

    /// Maximum data words per packet.
    pub fn max_data_words(&self) -> usize {
        self.max_data_flits * self.words_per_flit()
    }
}

/// The DRAM and its memory controllers (DDR3-1066-like). It carries no
/// values: every DRAM parameter is a Table 4.1 constant (`DRAM_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramConfig;

/// The simulated system: paper Table 4.1, with the values a scale, a spec
/// variant or a network sweep sets as fields and every other parameter a
/// constant of this module.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SystemConfig {
    /// Cache sizes.
    pub cache: CacheConfig,
    /// Mesh network parameters.
    pub noc: NocConfig,
    /// How network timing is modeled (analytic by default; traffic is
    /// identical under every model).
    pub network: NetworkModelKind,
}

impl SystemConfig {
    /// Number of tiles (= cores = L1s = L2 slices).
    pub fn tiles(&self) -> usize {
        self.noc.tiles()
    }

    /// Tiles that host a memory controller: the four mesh corners.
    pub fn memory_controller_tiles(&self) -> Vec<TileId> {
        let (c, r) = (self.noc.cols, self.noc.rows);
        vec![
            TileId(0),
            TileId(c - 1),
            TileId((r - 1) * c),
            TileId(r * c - 1),
        ]
    }

    /// Home L2 slice for a cache line (static line interleaving).
    pub fn home_tile(&self, line_byte_addr: u64) -> TileId {
        TileId(((line_byte_addr / self.cache.line_bytes) as usize) % self.tiles())
    }

    /// Memory controller responsible for a cache line (row-interleaved across
    /// the corner controllers).
    pub fn mc_tile(&self, line_byte_addr: u64) -> TileId {
        let mcs = self.memory_controller_tiles();
        mcs[((line_byte_addr / DRAM_ROW_BYTES) as usize) % mcs.len()]
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if a parameter is zero, the line is not the
    /// 64-byte line the engine is built around, a cache array exceeds
    /// [`MAX_CACHE_BYTES`], or a parameter is inconsistent with another (for
    /// example a cache size that is not a whole number of ways).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = &self.cache;
        // `WordMask::FULL` and the waste profilers' chunking are a 16-word
        // line; any other size indexes out of bounds.
        if c.line_bytes != LINE_BYTES {
            return Err(ConfigError::new("line_bytes must be 64 (a 16-word line)"));
        }
        // Zero is a multiple of every way size, and a cache of no sets.
        if c.l1_bytes == 0 || c.l2_slice_bytes == 0 {
            return Err(ConfigError::new("cache sizes must be non-zero"));
        }
        // Every tile allocates its arrays when the machine is built, so an
        // unbounded size from a spec would be an unbounded allocation.
        if c.l1_bytes.max(c.l2_slice_bytes) > MAX_CACHE_BYTES {
            return Err(ConfigError::new(format!(
                "cache sizes must be at most {MAX_CACHE_BYTES} bytes per L1 or L2 slice"
            )));
        }
        if !c.l1_bytes.is_multiple_of(LINE_BYTES * L1_WAYS as u64) {
            return Err(ConfigError::new("L1 size must be a multiple of way size"));
        }
        if !c.l2_slice_bytes.is_multiple_of(LINE_BYTES * L2_WAYS as u64) {
            return Err(ConfigError::new(
                "L2 slice size must be a multiple of way size",
            ));
        }
        if self.noc.cols < 2 || self.noc.rows < 2 {
            return Err(ConfigError::new("mesh must be at least 2x2"));
        }
        // Sharer sets are one `u64` bit per core and DeNovo's packed L2
        // owner byte holds core ids below 64: a larger mesh would alias
        // cores instead of failing. A product that overflows would wrap to
        // a small count the mesh does not have.
        let tiles = self.noc.cols.checked_mul(self.noc.rows);
        if tiles.is_none_or(|tiles| tiles > MAX_TILES) {
            return Err(ConfigError::new("mesh must have at most 64 tiles"));
        }
        if self.noc.link_bytes == 0 || !self.noc.link_bytes.is_multiple_of(WORD_BYTES) {
            return Err(ConfigError::new(
                "link width must be a multiple of the word size",
            ));
        }
        if self.noc.max_data_flits == 0 {
            return Err(ConfigError::new(
                "packets must allow at least one data flit",
            ));
        }
        Ok(())
    }

    /// Folds every parameter that influences simulation results into a
    /// [`Digester`](crate::Digester), in a fixed field order — the
    /// canonical encoding the experiment layer's result-cache key is built
    /// from. Any new result-affecting field MUST be added here, or stale
    /// cache entries will be served for configurations that differ in it.
    ///
    /// Each Table 4.1 constant stands where its field was once written,
    /// which keeps every cache key where it was.
    pub fn digest_fields(&self, d: &mut crate::digest::Digester) {
        let (c, n) = (&self.cache, &self.noc);
        // The literals 4 and 64 in the DRAM run stand where a controller
        // count and a queue depth were once written, settings no code read.
        for v in [
            c.line_bytes,
            c.l1_bytes,
            L1_WAYS as u64,
            c.l2_slice_bytes,
            L2_WAYS as u64,
            WRITE_TABLE_ENTRIES as u64,
            WRITE_COMBINE_TIMEOUT,
            n.cols as u64,
            n.rows as u64,
            n.link_bytes,
            LINK_LATENCY,
            ROUTER_LATENCY,
            n.max_data_flits as u64,
            VCS_PER_PORT as u64,
            VC_BUFFER_FLITS as u64,
            4,
            DRAM_BANKS as u64,
            DRAM_RANKS as u64,
            DRAM_ROW_BYTES,
            DRAM_ROW_HIT_CYCLES,
            DRAM_ROW_MISS_CYCLES,
            DRAM_BURST_CYCLES,
            64,
            CORE_MHZ,
            L1_HIT_CYCLES,
            L2_HIT_CYCLES,
            L2_OCCUPANCY_CYCLES,
        ] {
            d.write_u64(v);
        }
        // The network model is a result-affecting axis (it moves execution
        // time), so a cached analytic cell can never be served for a
        // flit-level run or vice versa.
        d.write_str(self.network.name());
    }

    /// Renders the configuration as the rows of paper Table 4.1.
    pub fn table_rows(&self) -> Vec<(String, String)> {
        let c = &self.cache;
        vec![
            ("Core".into(), format!("{CORE_MHZ} MHz, in-order")),
            (
                "L1D Cache (private)".into(),
                format!(
                    "{} KB, {L1_WAYS}-way set associative, {} byte cache lines",
                    c.l1_bytes / 1024,
                    c.line_bytes
                ),
            ),
            (
                "L2 Cache (shared)".into(),
                format!(
                    "{} KB slices ({} MB total), {L2_WAYS}-way set associative, {} byte cache lines",
                    c.l2_slice_bytes / 1024,
                    c.l2_slice_bytes * self.tiles() as u64 / (1024 * 1024),
                    c.line_bytes
                ),
            ),
            (
                "Network".into(),
                format!(
                    "{}x{} mesh, {} byte links, {LINK_LATENCY} cycle link latency{}",
                    self.noc.cols,
                    self.noc.rows,
                    self.noc.link_bytes,
                    // The analytic spelling is unchanged so default-model
                    // artifacts stay byte-identical across this axis' intro.
                    match self.network {
                        NetworkModelKind::Analytic => "",
                        NetworkModelKind::FlitLevel => ", flit-level wormhole model",
                        NetworkModelKind::SnoopBus => ", snooping-bus model",
                    }
                ),
            ),
            (
                "Memory Controller".into(),
                "FR-FCFS scheduling, open page policy".into(),
            ),
            (
                "DRAM".into(),
                format!("DDR3-1066, {DRAM_BANKS} banks, {DRAM_RANKS} ranks"),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table_4_1() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.tiles(), 16);
        assert_eq!(cfg.cache.l1_bytes, 32 * 1024);
        assert_eq!(L1_WAYS, 8);
        assert_eq!(cfg.cache.l2_slice_bytes, 256 * 1024);
        assert_eq!(L2_WAYS, 16);
        assert_eq!(cfg.cache.line_bytes, 64);
        assert_eq!(cfg.noc.link_bytes, 16);
        assert_eq!(LINK_LATENCY, 3);
        assert_eq!(cfg.noc.max_data_flits, 4);
        assert_eq!(DRAM_BANKS, 8);
        assert_eq!(DRAM_RANKS, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn derived_geometry() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.noc.words_per_flit(), 4);
        assert_eq!(cfg.noc.max_data_words(), 16);
    }

    #[test]
    fn memory_controllers_sit_on_corners() {
        let cfg = SystemConfig::default();
        assert_eq!(
            cfg.memory_controller_tiles(),
            vec![TileId(0), TileId(3), TileId(12), TileId(15)]
        );
    }

    #[test]
    fn home_tile_interleaves_by_line() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.home_tile(0), TileId(0));
        assert_eq!(cfg.home_tile(64), TileId(1));
        assert_eq!(cfg.home_tile(64 * 16), TileId(0));
    }

    #[test]
    fn mc_tile_is_always_a_corner() {
        let cfg = SystemConfig::default();
        let corners = cfg.memory_controller_tiles();
        for addr in (0..1 << 20).step_by(4096) {
            assert!(corners.contains(&cfg.mc_tile(addr)));
        }
    }

    #[test]
    fn network_model_names_round_trip() {
        for kind in NetworkModelKind::ALL {
            assert_eq!(NetworkModelKind::by_name(kind.name()), Ok(kind));
            assert_eq!(
                NetworkModelKind::by_name(&kind.name().to_uppercase()),
                Ok(kind)
            );
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = NetworkModelKind::by_name("garnet").unwrap_err();
        assert!(err.contains("`garnet`"), "{err}");
        assert!(err.contains("analytic"), "{err}");
        assert_eq!(NetworkModelKind::default(), NetworkModelKind::Analytic);
    }

    #[test]
    fn a_models_lane_is_its_position_in_all() {
        for (i, kind) in NetworkModelKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.lane(), i, "{kind}");
        }
        assert_eq!(crate::LANES, NetworkModelKind::ALL.len());
    }

    #[test]
    fn flit_level_model_is_named_in_table_4_1() {
        let mut cfg = SystemConfig::default();
        let analytic_row = cfg.table_rows()[3].1.clone();
        assert!(!analytic_row.contains("wormhole"));
        assert!(!analytic_row.contains("bus"));
        cfg.network = NetworkModelKind::FlitLevel;
        assert!(cfg.table_rows()[3].1.contains("flit-level wormhole"));
        cfg.network = NetworkModelKind::SnoopBus;
        assert!(cfg.table_rows()[3].1.contains("snooping-bus"));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        // Only the 16-word line runs: the profilers and `WordMask::FULL`
        // assume it.
        for line_bytes in [0, 4, 32, 48, 128] {
            let mut cfg = SystemConfig::default();
            cfg.cache.line_bytes = line_bytes;
            let err = cfg.validate().unwrap_err();
            assert!(err.to_string().contains("line_bytes must be 64"), "{err}");
        }

        let mut cfg = SystemConfig::default();
        cfg.cache.l1_bytes = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("non-zero"), "{err}");
        let mut cfg = SystemConfig::default();
        cfg.cache.l2_slice_bytes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::default();
        cfg.noc.cols = 1;
        assert!(cfg.validate().is_err());

        // 8x8 is the largest mesh a 64-bit sharer set can name; 9x9 would
        // make core 80 share bit 16.
        let mut cfg = SystemConfig::default();
        (cfg.noc.cols, cfg.noc.rows) = (8, 8);
        assert!(cfg.validate().is_ok());
        (cfg.noc.cols, cfg.noc.rows) = (9, 9);
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("at most 64 tiles"), "{err}");
        (cfg.noc.cols, cfg.noc.rows) = (13, 5);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn a_mesh_whose_tile_count_overflows_is_refused() {
        // Each product wraps: to 4 tiles, and to none.
        for mesh in [(usize::MAX / 4 + 2, 4), (1 << 32, 1 << 32)] {
            let mut cfg = SystemConfig::default();
            (cfg.noc.cols, cfg.noc.rows) = mesh;
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains("at most 64 tiles"),
                "{mesh:?}: {err}"
            );
        }
    }

    #[test]
    fn validation_bounds_every_cache_array() {
        // The bound itself is a machine `validate` accepts, at either level.
        let mut cfg = SystemConfig::default();
        cfg.cache.l1_bytes = MAX_CACHE_BYTES;
        cfg.cache.l2_slice_bytes = MAX_CACHE_BYTES;
        assert!(cfg.validate().is_ok());
        // One way more, or a terabyte, at either level is refused by name.
        for (l1, l2) in [
            (MAX_CACHE_BYTES + LINE_BYTES * L1_WAYS as u64, 32 * 1024),
            (32 * 1024, MAX_CACHE_BYTES + LINE_BYTES * L2_WAYS as u64),
            (32 * 1024, 1 << 40),
            (1 << 40, 1 << 40),
        ] {
            let mut cfg = SystemConfig::default();
            (cfg.cache.l1_bytes, cfg.cache.l2_slice_bytes) = (l1, l2);
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains("at most 4194304 bytes"),
                "{l1}/{l2}: {err}"
            );
        }
    }

    #[test]
    fn digest_fields_is_sensitive_to_every_subsystem() {
        let base = {
            let mut d = crate::digest::Digester::new();
            SystemConfig::default().digest_fields(&mut d);
            d.finish()
        };
        let digest_of = |f: &dyn Fn(&mut SystemConfig)| {
            let mut cfg = SystemConfig::default();
            f(&mut cfg);
            let mut d = crate::digest::Digester::new();
            cfg.digest_fields(&mut d);
            d.finish()
        };
        assert_eq!(base, digest_of(&|_| {}), "digest must be deterministic");
        let mutations: [&dyn Fn(&mut SystemConfig); 4] = [
            &|c| c.cache.l2_slice_bytes = 128 * 1024,
            &|c| c.noc.cols = 2,
            &|c| c.network = NetworkModelKind::FlitLevel,
            &|c| c.network = NetworkModelKind::SnoopBus,
        ];
        for (i, m) in mutations.iter().enumerate() {
            assert_ne!(base, digest_of(m), "mutation {i} did not change the digest");
        }
    }

    #[test]
    fn table_rows_cover_all_components() {
        let rows = SystemConfig::default().table_rows();
        assert_eq!(rows.len(), 6);
        assert!(rows[1].1.contains("32 KB"));
        assert!(rows[2].1.contains("4 MB total"));
        assert!(rows[5].1.contains("DDR3-1066"));
    }
}
