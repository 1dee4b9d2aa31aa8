//! Per-tile hardware state.

use std::sync::Arc;
use tw_bloom::{BloomBank, BloomConfig, BloomHashes};
use tw_dram::MemoryController;
use tw_mem::{CacheArray, CacheGeometry, WriteCombineTable};
use tw_protocols::{DenovoL2Line, Directory, LineState};
use tw_types::config::{L1_WAYS, L2_WAYS, WRITE_COMBINE_TIMEOUT, WRITE_TABLE_ENTRIES};
use tw_types::{DramConfig, ProtocolKind, RegionId, SystemConfig, TileId, WORDS_PER_LINE};

/// Metadata an L1 line carries, depending on the protocol family.
#[derive(Debug, Clone)]
pub enum L1Meta {
    /// The inclusive-directory protocols (MESI, MMemL1, Dragon): line state
    /// plus the region of the data (regions are only used for reporting
    /// under these protocols).
    Directory {
        /// Stable line state.
        state: LineState,
        /// Software region of the line.
        region: RegionId,
    },
    /// DeNovo: the region (drives self-invalidation). The per-word states
    /// are the entry's own masks: `Invalid` is `!valid`, `Valid` is
    /// `valid & !dirty`, `Registered` is `dirty`.
    Denovo(RegionId),
}

impl L1Meta {
    /// The software region the line belongs to.
    pub fn region(&self) -> RegionId {
        match self {
            L1Meta::Directory { region, .. } => *region,
            L1Meta::Denovo(region) => *region,
        }
    }
}

/// Metadata an L2 line carries, depending on the protocol family.
#[derive(Debug, Clone)]
pub enum L2Meta {
    /// The inclusive-directory protocols: owner and sharer set of the line.
    Directory(Directory),
    /// DeNovo: per-word ownership (registration) state.
    Denovo(DenovoL2Line),
}

/// One tile: private L1, L2 slice, and (on corner tiles) a memory controller.
#[derive(Debug)]
pub struct Tile {
    /// Tile identifier.
    pub id: TileId,
    /// Private L1 data cache.
    pub l1: CacheArray<L1Meta>,
    /// This tile's slice of the shared L2.
    pub l2: CacheArray<L2Meta>,
    /// The DeNovo write-combining / non-blocking-write table of this core.
    pub write_combine: WriteCombineTable,
    /// Counting Bloom filters summarizing this L2 slice's dirty lines.
    /// Present only under a protocol with L2 request bypass (`DBypFull`),
    /// the one reader; no other protocol builds or maintains them.
    pub l2_bloom: Option<BloomBank>,
    /// This core's shadow copies of every slice's Bloom filters, indexed by
    /// slice tile id (empty unless the protocol has L2 request bypass).
    pub l1_bloom: Vec<BloomBank>,
    /// Memory controller, on corner tiles.
    pub mc: Option<MemoryController>,
}

/// Builds the full set of tiles for a system configuration and protocol.
pub fn build_tiles(cfg: &SystemConfig, protocol: ProtocolKind) -> Vec<Tile> {
    let l1_geom = CacheGeometry::new(cfg.cache.l1_bytes, L1_WAYS, cfg.cache.line_bytes);
    let l2_geom = CacheGeometry::new(cfg.cache.l2_slice_bytes, L2_WAYS, cfg.cache.line_bytes);
    // One hash set serves every bank of the machine: the functions depend
    // on the Bloom configuration alone.
    let bloom = protocol
        .l2_request_bypass()
        .then(|| Arc::new(BloomHashes::new(BloomConfig::default())));
    let mc_tiles = cfg.memory_controller_tiles();
    (0..cfg.tiles())
        .map(|t| {
            let id = TileId(t);
            let (l2_bloom, l1_bloom) = match &bloom {
                Some(hashes) => (
                    Some(BloomBank::counting_with(hashes.clone())),
                    (0..cfg.tiles())
                        .map(|_| BloomBank::plain_with(hashes.clone()))
                        .collect(),
                ),
                None => (None, Vec::new()),
            };
            Tile {
                id,
                l1: CacheArray::new(l1_geom),
                l2: CacheArray::new(l2_geom),
                write_combine: WriteCombineTable::new(
                    WRITE_TABLE_ENTRIES,
                    WRITE_COMBINE_TIMEOUT,
                    WORDS_PER_LINE,
                ),
                l2_bloom,
                l1_bloom,
                mc: if mc_tiles.contains(&id) {
                    Some(MemoryController::new(DramConfig))
                } else {
                    None
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_match_table_4_1_geometry() {
        let cfg = SystemConfig::default();
        let tiles = build_tiles(&cfg, ProtocolKind::Mesi);
        assert_eq!(tiles.len(), 16);
        assert_eq!(tiles[0].l1.geometry().lines(), 512); // 32 KB / 64 B
        assert_eq!(tiles[0].l2.geometry().lines(), 4096); // 256 KB / 64 B
        let with_mc = tiles.iter().filter(|t| t.mc.is_some()).count();
        assert_eq!(with_mc, 4, "memory controllers on the four corners");
        assert!(tiles[0].mc.is_some());
        assert!(tiles[1].mc.is_none());
        assert!(tiles
            .iter()
            .all(|t| t.l2_bloom.is_none() && t.l1_bloom.is_empty()));
    }

    #[test]
    fn bloom_state_exists_exactly_where_it_is_read() {
        let cfg = SystemConfig::default();
        for &protocol in &ProtocolKind::ALL {
            let tiles = build_tiles(&cfg, protocol);
            let banks = if protocol.l2_request_bypass() { 16 } else { 0 };
            for tile in &tiles {
                assert_eq!(tile.l2_bloom.is_some(), banks > 0, "{protocol}");
                assert_eq!(tile.l1_bloom.len(), banks, "{protocol}");
            }
        }
    }

    #[test]
    fn an_l2_entry_fits_one_host_cache_line() {
        // 280 bytes while `DenovoL2Line` was an array of 16-byte enums; every
        // L2 insert and eviction moves one of these.
        assert!(std::mem::size_of::<tw_mem::LineEntry<L2Meta>>() <= 64);
    }

    #[test]
    fn an_l1_entry_is_three_words() {
        // 40 bytes while a DeNovo line kept a second copy of its word states
        // beside the `valid`/`dirty` masks.
        assert!(std::mem::size_of::<tw_mem::LineEntry<L1Meta>>() <= 24);
    }

    #[test]
    fn l1_meta_region_accessor() {
        let m = L1Meta::Directory {
            state: LineState::Shared,
            region: RegionId(7),
        };
        assert_eq!(m.region(), RegionId(7));
        let d = L1Meta::Denovo(RegionId(3));
        assert_eq!(d.region(), RegionId(3));
    }
}
