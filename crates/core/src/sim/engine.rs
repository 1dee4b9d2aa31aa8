//! The protocol-agnostic simulation engine.
//!
//! [`Engine`] owns every piece of machine state a coherence transaction
//! touches — tiles (caches, write-combining tables, Bloom banks, memory
//! controllers), the mesh with its flit-hop ledger, the waste profilers and
//! the per-core time attribution — plus the shared accounting helpers the
//! protocol families use. The scheduler in `sim.rs` drives every load, store,
//! barrier and end-of-run drain through four entry points ([`Engine::load`],
//! [`Engine::store`], [`Engine::barrier_released`], [`Engine::finish`])
//! without knowing which family it is talking to: [`Engine::new`] resolves
//! the configured [`ProtocolKind`] to its [`Family`] once, and each entry
//! point is a `match` on it. What holds under every protocol is done here,
//! once — an L1 load hit, and booking the load with the profilers — so the
//! `match` under [`Engine::load`] dispatches only the *miss*: `directory_load`
//! (`home.rs`) for MESI, MMemL1 and Dragon, `denovo_load` for the rest.
//! Stores differ at every step and dispatch whole. Adding a protocol family
//! means one more variant and one more arm where its choreography differs —
//! the simulator loop does not change.

use crate::machine::{build_tiles, Tile};
use crate::sim::SimConfig;
use crate::timing::{LaneBreakdowns, TimeClass};
use tw_noc::{model_for, Mesh, NetworkModel, PacketSize};
use tw_profiler::{CacheLevel, CacheWasteProfiler, MemoryWasteProfiler, TrafficBreakdown};
use tw_types::config::{DRAM_ROW_BYTES, L1_HIT_CYCLES};
use tw_types::{
    Addr, LineAddr, MessageClass, MessageKind, NetworkModelKind, NocConfig, ProtocolKind, RegionId,
    RegionTable, Stamp, SystemConfig, TileId, TrafficBucket, LANES, LINE_BYTES,
};
use tw_workloads::Workload;

/// The network: the analytic mesh, one timing overlay per other network
/// model the run times, and the flit-hop ledger.
///
/// The analytic [`Mesh`] is always maintained — it advances the analytic
/// lane of every [`Stamp`] and owns the flit-hop ledger, so routes, traffic
/// and all state-ordering decisions are identical no matter which
/// [`NetworkModelKind`]s the run times. Each overlay, resolved once at
/// construction through the [`NetworkModel`] registry (`model_for`), sits
/// in its model's lane slot and advances only that lane. The analytic model
/// never gets an overlay (the mesh *is* that model), and the lane of a
/// model the run does not time moves with the analytic lane.
#[derive(Debug)]
pub(crate) struct Net {
    mesh: Mesh,
    overlays: [Option<Box<dyn NetworkModel>>; LANES],
    pub(crate) traffic: TrafficBreakdown,
    noc: NocConfig,
    /// `noc.words_per_flit()` as an `f64`, cached off the per-message path.
    words_per_flit: f64,
    /// Per payload size `0..=max_data_words`: the packet, and the flits of it
    /// charged as control traffic (`control_flits + unfilled_data_flits`).
    /// Both are functions of the word count and the configuration alone.
    sizes: Vec<(PacketSize, f64)>,
    /// Messages sent, for flight-recorder spans. Observer lane only.
    pub(crate) sends: u64,
}

/// Outcome of sending one message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delivery {
    /// Cycle the tail of the message arrives at its destination.
    pub arrival: Stamp,
    /// Flit-hops attributable to each data word carried (0 for local hops).
    pub per_word_hops: f64,
}

impl Net {
    /// The network of a run that times `models`.
    pub(crate) fn new(noc: NocConfig, models: &[NetworkModelKind]) -> Self {
        let overlays = NetworkModelKind::ALL.map(|kind| {
            // The mesh already is the analytic model; a second copy would
            // only burn cycles producing identical numbers.
            (kind != NetworkModelKind::Analytic && models.contains(&kind))
                .then(|| model_for(kind, noc.clone()))
        });
        let sizes = (0..=noc.max_data_words())
            .map(|words| {
                let size = match words {
                    0 => PacketSize::control_only(),
                    _ => PacketSize::with_data_words(&noc, words),
                };
                // Control flit(s) plus the unfilled fraction of the last
                // data flit.
                let ctl_flits = size.control_flits as f64 + size.unfilled_data_flits(&noc);
                (size, ctl_flits)
            })
            .collect();
        Net {
            mesh: Mesh::new(noc.clone()),
            overlays,
            traffic: TrafficBreakdown::new(),
            words_per_flit: noc.words_per_flit() as f64,
            sizes,
            noc,
            sends: 0,
        }
    }

    /// Sends a message, charging its control (and unfilled-data) flit-hops to
    /// the appropriate bucket. Data-word flit-hops are returned for the
    /// caller to attribute (to the waste profilers for responses, or directly
    /// to used/waste buckets for writebacks).
    pub(crate) fn send(
        &mut self,
        from: TileId,
        to: TileId,
        kind: MessageKind,
        data_words: usize,
        now: Stamp,
    ) -> Delivery {
        self.sends += 1;
        if data_words >= self.sizes.len() {
            // The caller must split the payload: refused with the packet
            // limit's own message.
            PacketSize::with_data_words(&self.noc, data_words);
        }
        let (size, ctl_flits) = self.sizes[data_words];
        let (analytic, hops) = self.mesh.send_counted(from, to, size, now.analytic());
        let hops = hops as f64;
        let mut arrival = now.advanced_to(analytic);
        for (lane, overlay) in self.overlays.iter_mut().enumerate() {
            if let Some(model) = overlay {
                // The analytic reservation is the congestion lower bound
                // (DESIGN.md §11): another model may stall a message
                // further, never deliver it faster, so every lane runs at
                // or behind the analytic lane everywhere.
                let raw = model.send(from, to, size, now.lanes[lane]);
                arrival.lanes[lane] = arrival.lanes[lane].max(raw);
            }
        }

        let class = kind.class();
        let ctl_bucket = match kind {
            MessageKind::L1Writeback
            | MessageKind::MemWriteback
            | MessageKind::WritebackAndRegister => TrafficBucket::WbControl,
            _ if class == MessageClass::Overhead => TrafficBucket::Overhead,
            _ if kind.is_request() => TrafficBucket::ReqCtl,
            _ => TrafficBucket::RespCtl,
        };
        self.traffic.add(class, ctl_bucket, hops * ctl_flits);

        let per_word_hops = if data_words == 0 {
            0.0
        } else {
            hops / self.words_per_flit
        };
        // Data carried by overhead messages (Bloom-filter copies) is charged
        // directly; nobody profiles those words.
        if class == MessageClass::Overhead && data_words > 0 {
            self.traffic.add(
                class,
                TrafficBucket::Overhead,
                per_word_hops * data_words as f64,
            );
        }
        Delivery {
            arrival,
            per_word_hops,
        }
    }

    /// Total flit-hops so far.
    pub(crate) fn total_flit_hops(&self) -> f64 {
        self.mesh.total_flit_hops()
    }

    /// Cycles messages have stalled in `model`'s overlay beyond their
    /// unloaded pipelines (0 for the analytic model, which has no overlay).
    /// Observer lane only.
    pub(crate) fn timed_stall_cycles(&self, model: NetworkModelKind) -> u64 {
        self.overlays[model.lane()]
            .as_ref()
            .map_or(0, |m| m.total_queueing_cycles())
    }
}

/// Geometry and region facts resolved once at construction so the per-op
/// hot path never divides by runtime configuration values, allocates the
/// memory-controller list, or linearly scans the region table.
///
/// Every accessor computes exactly the value its `SystemConfig` /
/// `RegionTable` counterpart would — power-of-two strength reductions only,
/// verified by the `geom_cache_matches_config` test — so caching here cannot
/// move a single message or waste classification.
#[derive(Debug)]
pub(crate) struct GeomCache {
    tiles: usize,
    tiles_pow2: bool,
    tiles_mask: usize,
    /// The four corner memory controllers, in `memory_controller_tiles`
    /// order (row index modulo 4 picks the controller, exactly as
    /// `SystemConfig::mc_tile` does).
    mcs: [TileId; 4],
    /// Per-region `written_in_parallel_phases`, indexed by `RegionId`
    /// (`true` for ids absent from the table, matching `RegionTable::get`'s
    /// `unwrap_or(true)` call sites).
    region_parallel: Vec<bool>,
    /// Per-region L2-bypass annotation, indexed by `RegionId` (`false` for
    /// absent ids, matching `RegionTable::bypasses_l2`).
    region_bypass: Vec<bool>,
}

impl GeomCache {
    pub(crate) fn new(system: &SystemConfig, regions: &RegionTable) -> Self {
        let tiles = system.tiles();
        let mcs_v = system.memory_controller_tiles();
        debug_assert_eq!(mcs_v.len(), 4, "controllers sit on the four corners");

        let slots = regions
            .iter()
            .map(|r| r.id.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut region_parallel = vec![true; slots];
        let mut region_bypass = vec![false; slots];
        let mut seen = vec![false; slots];
        for r in regions.iter() {
            let i = r.id.0 as usize;
            if seen[i] {
                continue; // `RegionTable::get` returns the first match
            }
            seen[i] = true;
            region_parallel[i] = r.written_in_parallel_phases;
            region_bypass[i] = r.bypass.bypasses_l2();
        }

        GeomCache {
            tiles,
            tiles_pow2: tiles.is_power_of_two(),
            tiles_mask: tiles.wrapping_sub(1),
            mcs: [mcs_v[0], mcs_v[1], mcs_v[2], mcs_v[3]],
            region_parallel,
            region_bypass,
        }
    }

    /// Same mapping as [`SystemConfig::home_tile`].
    #[inline(always)]
    fn home_of(&self, line: LineAddr) -> TileId {
        let line_no = (line.byte() / LINE_BYTES) as usize;
        TileId(if self.tiles_pow2 {
            line_no & self.tiles_mask
        } else {
            line_no % self.tiles
        })
    }

    /// Same mapping as [`SystemConfig::mc_tile`].
    #[inline(always)]
    fn mc_of(&self, line: LineAddr) -> TileId {
        self.mcs[(line.byte() / DRAM_ROW_BYTES) as usize & 3]
    }

    /// Whether `region` may be written during parallel phases (`true` for
    /// ids the table does not describe).
    #[inline(always)]
    pub(crate) fn region_parallel(&self, region: RegionId) -> bool {
        self.region_parallel
            .get(region.0 as usize)
            .copied()
            .unwrap_or(true)
    }

    /// Same answer as [`RegionTable::bypasses_l2`].
    #[inline(always)]
    pub(crate) fn region_bypasses_l2(&self, region: RegionId) -> bool {
        self.region_bypass
            .get(region.0 as usize)
            .copied()
            .unwrap_or(false)
    }
}

/// All protocol-agnostic machine state one simulation run mutates.
///
/// The scheduler in `sim.rs` owns the per-core clocks and program counters;
/// everything a coherence transaction touches lives here so that a
/// memory reference is serviced end to end by one `&mut Engine` call.
#[derive(Debug)]
pub(crate) struct Engine<'wl> {
    /// Which transaction choreography `cfg.protocol` runs, resolved once.
    pub(super) family: Family,
    pub(crate) cfg: SimConfig,
    pub(crate) workload: &'wl Workload,
    pub(crate) tiles: Vec<Tile>,
    pub(crate) net: Net,
    pub(crate) l1_prof: Vec<CacheWasteProfiler>,
    pub(crate) l2_prof: CacheWasteProfiler,
    pub(crate) mem_prof: MemoryWasteProfiler,
    /// Per core, the time it spent on each network model's lane.
    pub(crate) time: Vec<LaneBreakdowns>,
    /// Geometry and region facts resolved once at construction.
    pub(crate) geo: GeomCache,
}

/// The three transaction choreographies. The [`ProtocolKind`] carried by the
/// engine's config selects the per-variant feature predicates inside one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Family {
    Mesi,
    Denovo,
    Dragon,
}

impl Family {
    /// The single place protocol dispatch is decided. The `match` is
    /// exhaustive: a new [`ProtocolKind`] variant does not compile until it
    /// is placed in a family here.
    fn of(kind: ProtocolKind) -> Family {
        use ProtocolKind::*;
        match kind {
            Mesi | MMemL1 => Family::Mesi,
            DeNovo | DFlexL1 | DValidateL2 | DMemL1 | DFlexL2 | DBypL2 | DBypFull => Family::Denovo,
            Dragon => Family::Dragon,
        }
    }
}

impl<'wl> Engine<'wl> {
    /// The machine of `cfg.system`, cold, about to run `workload` under
    /// `cfg.protocol` timed by the network models `timed` (the engine reads
    /// no other, `cfg.system.network` included).
    pub(crate) fn new(cfg: SimConfig, timed: &[NetworkModelKind], workload: &'wl Workload) -> Self {
        let cores = cfg.system.tiles();
        Engine {
            family: Family::of(cfg.protocol),
            tiles: build_tiles(&cfg.system, cfg.protocol),
            net: Net::new(cfg.system.noc.clone(), timed),
            geo: GeomCache::new(&cfg.system, &workload.regions),
            l1_prof: (0..cores)
                .map(|_| CacheWasteProfiler::new(CacheLevel::L1))
                .collect(),
            l2_prof: CacheWasteProfiler::new(CacheLevel::L2),
            mem_prof: MemoryWasteProfiler::new(),
            time: vec![LaneBreakdowns::default(); cores],
            cfg,
            workload,
        }
    }

    /// Services one load, returning the timestamp the core may proceed at.
    /// A hit in the L1 is the same under every protocol; only the miss is
    /// dispatched.
    pub(crate) fn load(&mut self, core: usize, addr: Addr, region: RegionId, now: Stamp) -> Stamp {
        let done = if self.l1_load_hit(core, addr) {
            self.time[core].add(TimeClass::Compute, L1_HIT_CYCLES);
            now + L1_HIT_CYCLES
        } else {
            match self.family {
                Family::Mesi | Family::Dragon => self.directory_load(core, addr, region, now),
                Family::Denovo => self.denovo_load(core, addr, region, now),
            }
        };
        self.l1_prof[core].loaded(addr);
        self.mem_prof.loaded(addr);
        #[cfg(debug_assertions)]
        self.check_transaction(addr);
        done
    }

    /// Services one store, returning the timestamp the core may proceed at.
    pub(crate) fn store(&mut self, core: usize, addr: Addr, region: RegionId, now: Stamp) -> Stamp {
        let done = match self.family {
            Family::Mesi => self.mesi_store(core, addr, region, now),
            Family::Denovo => self.denovo_store(core, addr, region, now),
            Family::Dragon => self.dragon_store(core, addr, region, now),
        };
        #[cfg(debug_assertions)]
        self.check_transaction(addr);
        done
    }

    /// Per-transaction invariants (debug builds), checked after every load
    /// and store where they can break.
    #[cfg(debug_assertions)]
    fn check_transaction(&self, addr: Addr) {
        match self.family {
            Family::Mesi | Family::Dragon => self.assert_directory_matches_l1s(addr),
            Family::Denovo => {
                self.assert_registrants_hold_their_words(addr);
                self.assert_one_registered_copy(addr);
            }
        }
    }

    /// Protocol actions at a barrier release.
    pub(crate) fn barrier_released(&mut self, at: Stamp) {
        match self.family {
            Family::Denovo => self.denovo_barrier_actions(at),
            // The directory families keep coherence transaction by
            // transaction (Dragon's updates replace the self-invalidations
            // DeNovo performs here).
            Family::Mesi | Family::Dragon => {}
        }
    }

    /// Protocol actions at the end of the run, before profilers are drained.
    pub(crate) fn finish(&mut self, at: Stamp) {
        match self.family {
            // Still-pending registrations drain exactly as at a barrier, so
            // their traffic is accounted.
            Family::Denovo => self.denovo_barrier_actions(at),
            Family::Mesi | Family::Dragon => {}
        }
    }

    /// The protocol configuration being simulated.
    pub(crate) fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    /// Home L2 slice of a line (cached [`SystemConfig::home_tile`]).
    #[inline(always)]
    pub(crate) fn home_of(&self, line: LineAddr) -> TileId {
        self.geo.home_of(line)
    }

    /// Memory controller responsible for a line (cached
    /// [`SystemConfig::mc_tile`]).
    #[inline(always)]
    pub(crate) fn mc_of(&self, line: LineAddr) -> TileId {
        self.geo.mc_of(line)
    }

    /// Performs a DRAM access at controller `mc` and returns its completion
    /// cycle.
    ///
    /// Row-buffer and queue state evolve on the analytic lane only, so
    /// DRAM behavior (access counts, row-hit rate) is identical across
    /// network models; every other lane inherits the same service duration.
    pub(crate) fn dram_access(
        &mut self,
        mc: TileId,
        line: LineAddr,
        write: bool,
        at: Stamp,
    ) -> Stamp {
        let done = self.tiles[mc.0]
            .mc
            .as_mut()
            .expect("tile has a memory controller")
            .access(line, write, at.analytic());
        at.advanced_to(done)
    }

    /// Whether the L1 of `core` holds readable data for `addr`, refreshing
    /// the line's LRU position on a hit (single tag scan: equivalent to the
    /// old presence `peek` followed by a `get` on the hit path). Under every
    /// family a readable word is a `valid` one: a DeNovo word is `Valid` or
    /// `Registered` exactly when its bit is set, and a directory-family line
    /// is resident only while its state is readable (invalidation removes
    /// it) and then holds the full line.
    fn l1_load_hit(&mut self, core: usize, addr: Addr) -> bool {
        let line = LineAddr::containing(addr, LINE_BYTES);
        let w = addr.word_in_line(LINE_BYTES);
        self.tiles[core]
            .l1
            .get_where(line, |entry| entry.valid.contains(w))
            .is_some()
    }

    /// Whether the home slice can serve `line` on chip.
    pub(super) fn l2_has_data(&self, home: TileId, line: LineAddr) -> bool {
        self.tiles[home.0]
            .l2
            .peek(line)
            .is_some_and(|e| !e.valid.is_empty())
    }

    /// Charges the data flit-hops of a writeback message: `used` words of the
    /// `carried` payload were dirty (useful), the rest is waste. `to_memory`
    /// selects the memory-side bucket pair over the L2-side pair.
    pub(crate) fn charge_writeback_data(
        &mut self,
        per_word_hops: f64,
        used: usize,
        carried: usize,
        to_memory: bool,
    ) {
        debug_assert!(used <= carried);
        let (used_bucket, waste_bucket) = if to_memory {
            (TrafficBucket::WbMemUsed, TrafficBucket::WbMemWaste)
        } else {
            (TrafficBucket::WbL2Used, TrafficBucket::WbL2Waste)
        };
        self.net.traffic.add(
            MessageClass::Writeback,
            used_bucket,
            per_word_hops * used as f64,
        );
        self.net.traffic.add(
            MessageClass::Writeback,
            waste_bucket,
            per_word_hops * (carried - used) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_is_pinned_to_its_family() {
        use ProtocolKind::*;
        let pinned = [
            (Mesi, Family::Mesi),
            (MMemL1, Family::Mesi),
            (DeNovo, Family::Denovo),
            (DFlexL1, Family::Denovo),
            (DValidateL2, Family::Denovo),
            (DMemL1, Family::Denovo),
            (DFlexL2, Family::Denovo),
            (DBypL2, Family::Denovo),
            (DBypFull, Family::Denovo),
            (Dragon, Family::Dragon),
        ];
        assert_eq!(pinned.map(|(kind, _)| kind), ProtocolKind::ALL);
        for (kind, family) in pinned {
            assert_eq!(Family::of(kind), family, "{kind}");
        }
    }

    #[test]
    fn registry_round_trips_every_name() {
        for &kind in &ProtocolKind::ALL {
            assert_eq!(
                ProtocolKind::by_name(kind.name()),
                Ok(kind),
                "{kind} must be recoverable from its name"
            );
            // Case-insensitive, matching the CLI parsers.
            assert_eq!(ProtocolKind::by_name(&kind.name().to_lowercase()), Ok(kind));
        }
        let err = ProtocolKind::by_name("NotAProtocol").unwrap_err();
        assert!(err.contains("`NotAProtocol`"), "{err}");
        for kind in ProtocolKind::ALL {
            assert!(err.contains(kind.name()), "{err} must list {kind}");
        }
    }

    #[test]
    fn net_resolves_every_payload_size_once() {
        let noc = NocConfig::default();
        let net = Net::new(noc.clone(), &[NetworkModelKind::Analytic]);
        assert_eq!(net.sizes.len(), noc.max_data_words() + 1);
        assert_eq!(net.sizes[0], (PacketSize::control_only(), 1.0));
        for (words, &(size, ctl_flits)) in net.sizes.iter().enumerate().skip(1) {
            assert_eq!(size, PacketSize::with_data_words(&noc, words));
            assert_eq!(
                ctl_flits.to_bits(),
                (size.control_flits as f64 + size.unfilled_data_flits(&noc)).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-word packet limit")]
    fn net_refuses_an_oversized_payload_in_the_packet_limits_words() {
        let mut net = Net::new(NocConfig::default(), &[NetworkModelKind::Analytic]);
        net.send(
            TileId(0),
            TileId(1),
            MessageKind::DataToL1,
            17,
            Stamp::at(0),
        );
    }

    #[test]
    fn geom_cache_matches_config() {
        let system = SystemConfig::default();
        let regions = RegionTable::new();
        let geo = GeomCache::new(&system, &regions);
        let lb = system.cache.line_bytes;
        for n in (0..4096u64).chain([1 << 20, (1 << 20) + 7 * 64]) {
            let line = LineAddr::from_aligned(n * lb);
            assert_eq!(geo.home_of(line), system.home_tile(line.byte()), "{line}");
            assert_eq!(geo.mc_of(line), system.mc_tile(line.byte()), "{line}");
        }
        // Region defaults for ids the table does not describe.
        assert!(geo.region_parallel(RegionId(3)));
        assert!(!geo.region_bypasses_l2(RegionId(3)));
    }

    #[test]
    fn geom_cache_mirrors_region_annotations() {
        use tw_types::{BypassKind, RegionInfo};
        let mut regions = RegionTable::new();
        let mut streamed = RegionInfo::plain(RegionId(2), "edges", Addr::new(0), 4096);
        streamed.bypass = BypassKind::StreamingOncePerPhase;
        streamed.written_in_parallel_phases = false;
        regions.insert(streamed);
        regions.insert(RegionInfo::plain(
            RegionId(5),
            "nodes",
            Addr::new(8192),
            4096,
        ));
        let geo = GeomCache::new(&SystemConfig::default(), &regions);
        for id in [RegionId(0), RegionId(2), RegionId(5), RegionId(9)] {
            assert_eq!(
                geo.region_bypasses_l2(id),
                regions.bypasses_l2(id),
                "bypass {id:?}"
            );
            assert_eq!(
                geo.region_parallel(id),
                regions
                    .get(id)
                    .map(|r| r.written_in_parallel_phases)
                    .unwrap_or(true),
                "parallel {id:?}"
            );
        }
    }
}
