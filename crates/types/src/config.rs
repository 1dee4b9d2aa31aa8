//! Simulated system configuration (paper Table 4.1) and validation.

use crate::addr::{LINE_BYTES, WORD_BYTES};
use crate::error::ConfigError;
use crate::geometry::TileId;

/// Largest mesh [`SystemConfig::validate`] accepts: per-core state is
/// encoded in 64-bit sharer sets and in one-byte word owners.
pub const MAX_TILES: usize = 64;

/// Cache geometry parameters for the private L1s and the shared L2 slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache line size in bytes (64 in the paper).
    pub line_bytes: u64,
    /// Private L1 data cache size in bytes (32 KB).
    pub l1_bytes: u64,
    /// L1 associativity (8-way).
    pub l1_ways: usize,
    /// Per-tile shared L2 slice size in bytes (256 KB; 4 MB total).
    pub l2_slice_bytes: u64,
    /// L2 associativity (16-way).
    pub l2_ways: usize,
    /// Number of entries in the non-blocking write / write-combining table
    /// (32 pending writes per core).
    pub write_table_entries: usize,
    /// Write-combining timeout in cycles (10 000 in the paper).
    pub write_combine_timeout: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            line_bytes: LINE_BYTES,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l2_slice_bytes: 256 * 1024,
            l2_ways: 16,
            write_table_entries: 32,
            write_combine_timeout: 10_000,
        }
    }
}

impl CacheConfig {
    /// Number of words per cache line.
    pub fn words_per_line(&self) -> usize {
        (self.line_bytes / WORD_BYTES) as usize
    }
}

/// How the on-chip network's timing is modeled (see `DESIGN.md` §11).
///
/// Flit-hop *traffic* is identical under every model — routes are XY
/// dimension-order either way and the canonical mesh ledger is always
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
    /// Per-link latency in cycles (3).
    pub link_latency: u64,
    /// Per-router pipeline latency in cycles.
    pub router_latency: u64,
    /// Maximum number of data flits per packet (4 ⇒ at most 64 B of data).
    pub max_data_flits: usize,
    /// Virtual channels per router output port (flit-level model only).
    pub vcs_per_port: usize,
    /// Per-VC downstream buffer depth in flits (flit-level model only;
    /// bounds how far a packet can run ahead before credit backpressure).
    pub vc_buffer_flits: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            cols: 4,
            rows: 4,
            link_bytes: 16,
            link_latency: 3,
            router_latency: 1,
            max_data_flits: 4,
            vcs_per_port: 4,
            vc_buffer_flits: 4,
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

/// DRAM and memory-controller parameters (DDR3-1066-like).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of memory controllers (one per corner tile).
    pub controllers: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Row-buffer size in bytes (open-page policy granularity).
    pub row_bytes: u64,
    /// Row-buffer hit latency in core cycles.
    pub row_hit_cycles: u64,
    /// Row-buffer miss (activate + CAS) latency in core cycles.
    pub row_miss_cycles: u64,
    /// Cycles per data burst transferring one cache line on the channel.
    pub burst_cycles: u64,
    /// Maximum outstanding requests queued per controller before requests
    /// back-pressure.
    pub queue_depth: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        // DDR3-1066 at a 2 GHz core clock: tCAS ~ 13 ns ≈ 26 cycles,
        // activate+CAS ~ 26 ns ≈ 52 cycles, 64-byte burst ≈ 15 ns ≈ 30 cycles
        // of channel occupancy at 8.5 GB/s.
        DramConfig {
            controllers: 4,
            banks: 8,
            ranks: 2,
            row_bytes: 8 * 1024,
            row_hit_cycles: 26,
            row_miss_cycles: 78,
            burst_cycles: 15,
            queue_depth: 64,
        }
    }
}

/// Core and miscellaneous timing parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingConfig {
    /// Core clock in MHz (2000 — used only for reporting).
    pub core_mhz: u64,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// L2 slice access latency in cycles (tag + data).
    pub l2_hit_cycles: u64,
    /// Directory/L2 controller occupancy per request in cycles.
    pub l2_occupancy_cycles: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            core_mhz: 2000,
            l1_hit_cycles: 1,
            l2_hit_cycles: 10,
            l2_occupancy_cycles: 2,
        }
    }
}

/// Complete simulated-system configuration (paper Table 4.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SystemConfig {
    /// Cache hierarchy geometry.
    pub cache: CacheConfig,
    /// Mesh network parameters.
    pub noc: NocConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Core/cache timing parameters.
    pub timing: TimingConfig,
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
        let idx = ((line_byte_addr / self.dram.row_bytes) as usize) % mcs.len();
        mcs[idx]
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if a parameter is zero, the line is not the
    /// 64-byte line the engine is built around, or a parameter is
    /// inconsistent with another (for example a cache size that is not a
    /// whole number of ways).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = &self.cache;
        // `WordMask::FULL` and the waste profilers' chunking are a 16-word
        // line; any other size indexes out of bounds.
        if c.line_bytes != LINE_BYTES {
            return Err(ConfigError::new("line_bytes must be 64 (a 16-word line)"));
        }
        if c.l1_ways == 0 || c.l2_ways == 0 {
            return Err(ConfigError::new("associativity must be non-zero"));
        }
        // Zero is a multiple of every way size, and a cache of no sets.
        if c.l1_bytes == 0 || c.l2_slice_bytes == 0 {
            return Err(ConfigError::new("cache sizes must be non-zero"));
        }
        if !c.l1_bytes.is_multiple_of(c.line_bytes * c.l1_ways as u64) {
            return Err(ConfigError::new("L1 size must be a multiple of way size"));
        }
        if !c
            .l2_slice_bytes
            .is_multiple_of(c.line_bytes * c.l2_ways as u64)
        {
            return Err(ConfigError::new(
                "L2 slice size must be a multiple of way size",
            ));
        }
        if self.noc.cols < 2 || self.noc.rows < 2 {
            return Err(ConfigError::new("mesh must be at least 2x2"));
        }
        // Sharer sets are one `u64` bit per core and DeNovo's packed L2
        // owner byte holds core ids below 64: a larger mesh would alias
        // cores instead of failing.
        if self.tiles() > MAX_TILES {
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
        if self.noc.vcs_per_port == 0 || self.noc.vc_buffer_flits == 0 {
            return Err(ConfigError::new(
                "routers need at least one virtual channel and one buffer flit",
            ));
        }
        if self.dram.controllers == 0 || self.dram.banks == 0 {
            return Err(ConfigError::new("DRAM must have controllers and banks"));
        }
        if self.dram.row_bytes < self.cache.line_bytes {
            return Err(ConfigError::new("DRAM row must be at least one cache line"));
        }
        Ok(())
    }

    /// Folds every parameter that influences simulation results into a
    /// [`Digester`], in a fixed field order — the canonical encoding the
    /// experiment layer's result-cache key is built from. Any new
    /// result-affecting field MUST be added here, or stale cache entries
    /// will be served for configurations that differ in it.
    pub fn digest_fields(&self, d: &mut crate::digest::Digester) {
        let c = &self.cache;
        for v in [
            c.line_bytes,
            c.l1_bytes,
            c.l1_ways as u64,
            c.l2_slice_bytes,
            c.l2_ways as u64,
            c.write_table_entries as u64,
            c.write_combine_timeout,
        ] {
            d.write_u64(v);
        }
        let n = &self.noc;
        for v in [
            n.cols as u64,
            n.rows as u64,
            n.link_bytes,
            n.link_latency,
            n.router_latency,
            n.max_data_flits as u64,
            n.vcs_per_port as u64,
            n.vc_buffer_flits as u64,
        ] {
            d.write_u64(v);
        }
        let m = &self.dram;
        for v in [
            m.controllers as u64,
            m.banks as u64,
            m.ranks as u64,
            m.row_bytes,
            m.row_hit_cycles,
            m.row_miss_cycles,
            m.burst_cycles,
            m.queue_depth as u64,
        ] {
            d.write_u64(v);
        }
        let t = &self.timing;
        for v in [
            t.core_mhz,
            t.l1_hit_cycles,
            t.l2_hit_cycles,
            t.l2_occupancy_cycles,
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
        vec![
            (
                "Core".into(),
                format!("{} MHz, in-order", self.timing.core_mhz),
            ),
            (
                "L1D Cache (private)".into(),
                format!(
                    "{} KB, {}-way set associative, {} byte cache lines",
                    self.cache.l1_bytes / 1024,
                    self.cache.l1_ways,
                    self.cache.line_bytes
                ),
            ),
            (
                "L2 Cache (shared)".into(),
                format!(
                    "{} KB slices ({} MB total), {}-way set associative, {} byte cache lines",
                    self.cache.l2_slice_bytes / 1024,
                    self.cache.l2_slice_bytes * self.tiles() as u64 / (1024 * 1024),
                    self.cache.l2_ways,
                    self.cache.line_bytes
                ),
            ),
            (
                "Network".into(),
                format!(
                    "{}x{} mesh, {} byte links, {} cycle link latency{}",
                    self.noc.cols,
                    self.noc.rows,
                    self.noc.link_bytes,
                    self.noc.link_latency,
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
                format!(
                    "DDR3-1066, {} banks, {} ranks",
                    self.dram.banks, self.dram.ranks
                ),
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
        assert_eq!(cfg.cache.l1_ways, 8);
        assert_eq!(cfg.cache.l2_slice_bytes, 256 * 1024);
        assert_eq!(cfg.cache.l2_ways, 16);
        assert_eq!(cfg.cache.line_bytes, 64);
        assert_eq!(cfg.noc.link_bytes, 16);
        assert_eq!(cfg.noc.link_latency, 3);
        assert_eq!(cfg.noc.max_data_flits, 4);
        assert_eq!(cfg.dram.banks, 8);
        assert_eq!(cfg.dram.ranks, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn derived_geometry() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.cache.words_per_line(), 16);
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
        cfg.cache.l1_ways = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::default();
        cfg.noc.cols = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::default();
        cfg.dram.row_bytes = 32;
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

        let mut cfg = SystemConfig::default();
        cfg.noc.vcs_per_port = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::default();
        cfg.noc.vc_buffer_flits = 0;
        assert!(cfg.validate().is_err());
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
        let mutations: [&dyn Fn(&mut SystemConfig); 8] = [
            &|c| c.cache.l2_slice_bytes = 128 * 1024,
            &|c| c.noc.cols = 2,
            &|c| c.noc.vcs_per_port = 2,
            &|c| c.noc.vc_buffer_flits = 8,
            &|c| c.dram.banks = 4,
            &|c| c.timing.l2_hit_cycles = 11,
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
