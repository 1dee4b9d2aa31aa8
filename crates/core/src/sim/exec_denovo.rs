//! DeNovo transaction execution (all seven DeNovo configurations), reached
//! through `Engine`'s four entry points. All machine state lives in the
//! shared [`Engine`]; this file contains only the DeNovo-family transaction
//! logic. A load miss is one [`LineRequest`] per line of its fetch plan —
//! the words asked for and who may answer — which [`split_by_supplier`]
//! divides among three suppliers (home L2, registrant L1s, memory), each one
//! function here.

use super::engine::{Delivery, Engine};
use super::home::{MemFetch, MemPeer};
use crate::machine::{L1Meta, L2Meta};
use crate::timing::TimeClass;
use tw_mem::LineEntry;
use tw_protocols::denovo::{l1_self_invalidate, split_by_supplier};
use tw_protocols::{flex_fetch_plan, DenovoL2Line, FlexPlan};
use tw_types::config::{L2_HIT_CYCLES, L2_OCCUPANCY_CYCLES};
use tw_types::{
    Addr, CoreId, LineAddr, MessageClass, MessageKind, RegionId, Stamp, TileId, WordIdx, WordMask,
    LINE_BYTES, WORDS_PER_LINE,
};

/// Whom a line of a load miss asks for its words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// The demanded line: a `LoadReq` to the home slice.
    Demand,
    /// Another line of a Flex plan: it rides the demand's request and is
    /// off the load's critical path.
    Rider,
    /// Request bypass: the Bloom shadow says the line is dirty nowhere on
    /// chip, so the demand goes straight to the memory controller.
    ToMc,
}

/// Where the memory controller's data goes. There is no "through the L2
/// without filling it": only a response bypass leaves the L2 unfilled, and
/// every protocol with `l2_response_bypass()` also has `mem_to_l1()`
/// (`feature_lattice_is_monotone_in_denovo_chain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemData {
    /// To the home slice, which fills itself and forwards to the L1.
    ThroughL2,
    /// To the L1 and, in a second message, to the home slice.
    ToL1AndL2,
    /// To the L1 alone (response bypass).
    ToL1,
}

/// One line of a load miss, resolved once per load in `denovo_load`.
#[derive(Debug, Clone, Copy)]
struct LineRequest {
    core: usize,
    line: LineAddr,
    /// The words asked for: those of the plan the L1 cannot already read.
    want: WordMask,
    region: RegionId,
    route: Route,
    data: MemData,
    at: Stamp,
}

impl Engine<'_> {
    /// The words of `line` the L1 of `core` can read (valid or registered).
    fn denovo_l1_readable(&self, core: usize, line: LineAddr) -> WordMask {
        let l1 = &self.tiles[core].l1;
        l1.peek(line).map_or(WordMask::EMPTY, |e| e.valid)
    }

    fn denovo_l2_meta(&self, home: TileId, line: LineAddr) -> Option<&DenovoL2Line> {
        match self.tiles[home.0].l2.peek(line).map(|e| &e.meta) {
            Some(L2Meta::Denovo(d)) => Some(d),
            _ => None,
        }
    }

    /// Services a load that missed the L1 of `core` under any DeNovo
    /// configuration.
    pub(super) fn denovo_load(
        &mut self,
        core: usize,
        addr: Addr,
        region: RegionId,
        now: Stamp,
    ) -> Stamp {
        let demanded = LineAddr::containing(addr, LINE_BYTES);
        let protocol = self.protocol();
        let plan = if protocol.flex_on_chip() {
            flex_fetch_plan(&self.workload.regions, addr, LINE_BYTES)
        } else {
            FlexPlan::whole_line(addr, LINE_BYTES)
        };
        let bypass = protocol.l2_response_bypass() && self.geo.region_bypasses_l2(region);
        let data = if bypass {
            MemData::ToL1
        } else if protocol.mem_to_l1() {
            MemData::ToL1AndL2
        } else {
            MemData::ThroughL2
        };

        // L2 request bypass: consult the Bloom shadow (copying the home's
        // filter first if this L1 has none) and, when it says the line
        // cannot be dirty on chip, go straight to the memory controller.
        let mut at = now;
        let mut demand_route = Route::Demand;
        if protocol.l2_request_bypass() && bypass {
            let home = self.home_of(demanded);
            if !self.tiles[core].l1_bloom[home.0].has_copy_for(demanded) {
                let rq = self
                    .net
                    .send(TileId(core), home, MessageKind::BloomCopyReq, 0, now);
                let rs = self.net.send(
                    home,
                    TileId(core),
                    MessageKind::BloomCopyResp,
                    WORDS_PER_LINE,
                    rq.arrival + 1,
                );
                let mut shadows = std::mem::take(&mut self.tiles[core].l1_bloom);
                let slice = self.tiles[home.0].l2_bloom.as_ref();
                shadows[home.0]
                    .install_copy(demanded, slice.expect("request bypass builds Bloom state"));
                self.tiles[core].l1_bloom = shadows;
                at = rs.arrival;
            }
            if !self.tiles[core].l1_bloom[home.0].may_contain(demanded) {
                demand_route = Route::ToMc;
            }
        }

        let mut served = None;
        for (line, want) in plan.lines {
            let route = if line == demanded {
                demand_route
            } else {
                Route::Rider
            };
            // The request names only the words this L1 is actually missing.
            // Prefetching a handful of words from another line is not worth
            // a dedicated packet; real Flex folds them into the demanded
            // line's response, so small riders are simply skipped.
            let want = want.difference(self.denovo_l1_readable(core, line));
            if want.is_empty() || (route == Route::Rider && want.count() < 4) {
                continue;
            }
            let fetched = self.denovo_fetch(LineRequest {
                core,
                line,
                want,
                region,
                route,
                data,
                at,
            });
            if route != Route::Rider {
                served = Some(fetched);
            }
        }
        let (arrival, from_memory) = served.expect("the demanded word is missing from the L1");
        self.book_miss_stall(core, now, arrival, from_memory.as_ref());
        arrival.max(now + 1)
    }

    /// Serves one line of a load miss: the request control, then each
    /// supplier in turn. Returns when the last word arrived and, if memory
    /// supplied any, the timeline of that fetch.
    fn denovo_fetch(&mut self, req: LineRequest) -> (Stamp, Option<MemFetch>) {
        let (me, home) = (TileId(req.core), self.home_of(req.line));
        let (t_home, registry) = match req.route {
            Route::ToMc => (req.at, None),
            Route::Demand => {
                let rq = self.net.send(me, home, MessageKind::LoadReq, 0, req.at);
                (
                    rq.arrival + L2_OCCUPANCY_CYCLES,
                    self.denovo_l2_meta(home, req.line),
                )
            }
            Route::Rider => (
                req.at + L2_OCCUPANCY_CYCLES,
                self.denovo_l2_meta(home, req.line),
            ),
        };
        // `want` excludes what this L1 can read, and a registrant holds its
        // words valid and dirty (`assert_registrants_hold_their_words`).
        let mine = registry.map_or(WordMask::EMPTY, |r| r.registered_to(CoreId(req.core)));
        debug_assert!(
            req.want.intersect(mine).is_empty(),
            "{req:?} asks for its own word"
        );
        let (at_l2, by_owner, missing) = split_by_supplier(registry, req.want, CoreId(req.core));

        let mut arrival = t_home;
        if !at_l2.is_empty() {
            arrival = arrival.max(self.denovo_serve_from_l2(&req, at_l2, t_home).arrival);
        }
        for (owner, words) in by_owner {
            let d = self.denovo_serve_from_registrant(&req, owner, words, t_home);
            arrival = arrival.max(d.arrival);
        }
        // A rider is fetched from memory only when Flex extends to the
        // memory controller (DFlexL2 and later); under DFlexL1 the miss
        // simply forgoes the prefetch.
        let mut from_memory = None;
        if !missing.is_empty() && (req.route != Route::Rider || self.protocol().flex_at_memory()) {
            let mem = self.denovo_serve_from_memory(&req, missing, t_home);
            arrival = arrival.max(mem.delivery.arrival);
            from_memory = Some(mem);
        }
        (arrival, from_memory)
    }

    /// Supplier 1 — the words the home L2 itself holds.
    fn denovo_serve_from_l2(&mut self, req: &LineRequest, words: WordMask, at: Stamp) -> Delivery {
        let home = self.home_of(req.line);
        self.tiles[home.0].l2.get(req.line);
        self.l2_prof
            .loaded_words(req.line.word_addr(WordIdx(0)), words);
        self.denovo_data_to_l1(req, home, words, at + L2_HIT_CYCLES)
    }

    /// Supplier 2 — words registered to another core: the L2 forwards the
    /// request and the owner responds directly (no sharer list, no unblock).
    fn denovo_serve_from_registrant(
        &mut self,
        req: &LineRequest,
        owner: CoreId,
        words: WordMask,
        t_home: Stamp,
    ) -> Delivery {
        let home = self.home_of(req.line);
        let fwd = self
            .net
            .send(home, owner.tile(), MessageKind::LoadReq, 0, t_home);
        self.denovo_data_to_l1(req, owner.tile(), words, fwd.arrival + 1)
    }

    /// Supplier 3 — words nobody on chip has. With memory-side Flex the
    /// controller sends only the `missing` words, otherwise the whole line.
    /// The returned fetch's delivery is the data's arrival at the L1.
    fn denovo_serve_from_memory(
        &mut self,
        req: &LineRequest,
        missing: WordMask,
        t_home: Stamp,
    ) -> MemFetch {
        let (me, home) = (TileId(req.core), self.home_of(req.line));
        let sent = if self.protocol().flex_at_memory() {
            missing
        } else {
            WordMask::FULL
        };
        let from = match req.route {
            Route::ToMc => MemPeer::L1(me),
            Route::Demand | Route::Rider => MemPeer::Home,
        };
        if req.data == MemData::ThroughL2 {
            let leg = self.read_memory(req.line, sent, from, MemPeer::Home, t_home);
            self.denovo_fill_l2(home, req.line, sent, MessageClass::Load, leg.delivery);
            let at_l1 = leg.delivery.arrival + L2_HIT_CYCLES;
            let delivery = self.denovo_data_to_l1(req, home, sent, at_l1);
            return MemFetch { delivery, ..leg };
        }
        let leg = self.read_memory(req.line, sent, from, MemPeer::L1(me), t_home);
        self.denovo_fill_l1(req, sent, leg.delivery);
        if req.data == MemData::ToL1AndL2 {
            let mc = self.mc_of(req.line);
            let d2 = self
                .net
                .send(mc, home, MessageKind::DataToL2, sent.count(), leg.dram_done);
            self.denovo_fill_l2(home, req.line, sent, MessageClass::Load, d2);
        }
        leg
    }

    /// Sends `words` from the cache of tile `from` to the requesting L1.
    fn denovo_data_to_l1(
        &mut self,
        req: &LineRequest,
        from: TileId,
        words: WordMask,
        at: Stamp,
    ) -> Delivery {
        let to = TileId(req.core);
        let d = self
            .net
            .send(from, to, MessageKind::DataToL1, words.count(), at);
        self.denovo_fill_l1(req, words, d);
        d
    }

    /// Executes a store under any DeNovo configuration. Writes are
    /// write-validate at the L1: the word is written locally and a
    /// registration request is coalesced in the write-combining table.
    pub(super) fn denovo_store(
        &mut self,
        core: usize,
        addr: Addr,
        region: RegionId,
        now: Stamp,
    ) -> Stamp {
        let line = LineAddr::containing(addr, LINE_BYTES);
        let w = addr.word_in_line(LINE_BYTES);
        self.time[core].add(TimeClass::Compute, 1);

        self.denovo_ensure_l1(core, line, region, now);
        self.l1_prof[core].stored(addr);
        self.mem_prof.stored(addr);

        // Single lookup: the prior registration state comes out of the same
        // `get` that applies the write (one LRU tick).
        let mut was_registered = false;
        if let Some(e) = self.tiles[core].l1.get(line) {
            was_registered = e.dirty.contains(w);
            e.valid.insert(w);
            e.dirty.insert(w);
        }

        if !was_registered {
            let mut flushes = self.tiles[core]
                .write_combine
                .record_write(line, w, now.analytic());
            flushes.extend(self.tiles[core].write_combine.expire(now.analytic()));
            for (entry, _reason) in flushes {
                self.denovo_send_registration(core, entry.line, entry.pending, now);
            }
        }
        now + 1
    }

    /// Sends one registration request for `words` of `line` (a flushed
    /// write-combining entry) and applies its effects at the home L2.
    fn denovo_send_registration(
        &mut self,
        core: usize,
        line: LineAddr,
        words: WordMask,
        now: Stamp,
    ) {
        let (me, home) = (TileId(core), self.home_of(line));

        let rq = self.net.send(me, home, MessageKind::StoreReq, 0, now);
        let t_home = rq.arrival + L2_OCCUPANCY_CYCLES;

        if self.denovo_ensure_l2(home, line, t_home) && !self.protocol().l2_write_validate() {
            // Fetch-on-write, the baseline L2 policy: a registration that
            // allocates the line brings all of it from memory first.
            let d = self
                .read_memory(line, WordMask::FULL, MemPeer::Home, MemPeer::Home, t_home)
                .delivery;
            self.denovo_fill_l2(home, line, WordMask::FULL, MessageClass::Store, d);
        }

        // Register the words, invalidating any previous registrant.
        let mut displaced = Vec::new();
        if let Some(e) = self.tiles[home.0].l2.get(line) {
            if let L2Meta::Denovo(registry) = &mut e.meta {
                displaced = registry.register(words, CoreId(core));
            }
            e.valid = e.valid.difference(words);
        }
        for (word, prev) in displaced {
            self.net
                .send(home, prev.tile(), MessageKind::Invalidation, 0, t_home);
            let addr = line.word_addr(word);
            if let Some(e) = self.tiles[prev.0].l1.get(line) {
                e.valid.remove(word);
                e.dirty.remove(word);
            }
            self.l1_prof[prev.0].invalidated(addr);
        }
        if let Some(bloom) = &mut self.tiles[home.0].l2_bloom {
            bloom.insert(line);
        }
        self.net
            .send(home, me, MessageKind::StoreAck, 0, t_home + 1);
    }

    /// Installs the `words` that `d` brought into the requesting L1 as `Valid`.
    fn denovo_fill_l1(&mut self, req: &LineRequest, words: WordMask, d: Delivery) {
        let (core, line) = (req.core, req.line);
        self.denovo_ensure_l1(core, line, req.region, d.arrival);
        // Record arrivals (with present/absent status) before mutating state.
        let present = self.denovo_l1_readable(core, line);
        self.l1_prof[core].arrive_words(
            line.word_addr(WordIdx(0)),
            words,
            present,
            d.per_word_hops,
            MessageClass::Load,
        );
        // A registered word that is filled stays registered: `dirty` is
        // untouched.
        if let Some(e) = self.tiles[core].l1.get(line) {
            e.valid = e.valid.union(words);
        }
    }

    /// Installs the `words` that `d` brought from memory into the home L2
    /// slice as valid-at-L2, on behalf of a load or (fetch-on-write) a store.
    fn denovo_fill_l2(
        &mut self,
        home: TileId,
        line: LineAddr,
        words: WordMask,
        class: MessageClass,
        d: Delivery,
    ) {
        self.denovo_ensure_l2(home, line, d.arrival);
        let present = self
            .denovo_l2_meta(home, line)
            .map_or(WordMask::EMPTY, |m| m.valid_at_l2());
        self.l2_prof.arrive_words(
            line.word_addr(WordIdx(0)),
            words,
            present,
            d.per_word_hops,
            class,
        );
        if let Some(e) = self.tiles[home.0].l2.get(line) {
            if let L2Meta::Denovo(registry) = &mut e.meta {
                registry.fill_at_l2(words);
            }
            e.valid = e.valid.union(words);
        }
    }

    /// Ensures the L1 of `core` has an entry for `line`, evicting a victim if
    /// needed.
    fn denovo_ensure_l1(&mut self, core: usize, line: LineAddr, region: RegionId, at: Stamp) {
        if !self.tiles[core].l1.contains(line) {
            let meta = L1Meta::Denovo(region);
            if let Some(v) = self.tiles[core].l1.insert(line, meta).1 {
                self.denovo_evict_l1(core, v, at);
            }
        }
    }

    /// Ensures an L2 entry exists for `line`, evicting a victim if needed.
    /// Returns whether the entry was allocated (all words invalid) just now.
    fn denovo_ensure_l2(&mut self, home: TileId, line: LineAddr, at: Stamp) -> bool {
        if self.tiles[home.0].l2.contains(line) {
            return false;
        }
        let meta = L2Meta::Denovo(DenovoL2Line::default());
        if let Some(v) = self.tiles[home.0].l2.insert(line, meta).1 {
            self.denovo_evict_l2(home, v, at);
        }
        true
    }

    /// Evicts an L1 line: registered (dirty) words are written back (and any
    /// still-pending registrations are folded into the same message); valid
    /// words are dropped silently.
    fn denovo_evict_l1(&mut self, core: usize, victim: LineEntry<L1Meta>, at: Stamp) {
        let (me, home) = (TileId(core), self.home_of(victim.line));
        let line0 = victim.line.word_addr(WordIdx(0));
        let registered = victim.dirty;
        let valid = victim.valid.difference(registered);
        let pending = self.tiles[core].write_combine.evict_line(victim.line);

        if !registered.is_empty() {
            let kind = if pending.is_some() {
                MessageKind::WritebackAndRegister
            } else {
                MessageKind::L1Writeback
            };
            let n = registered.count();
            let wb = self.net.send(me, home, kind, n, at);
            self.charge_writeback_data(wb.per_word_hops, n, n, false);
            self.denovo_ensure_l2(home, victim.line, at);
            if let Some(e) = self.tiles[home.0].l2.get(victim.line) {
                if let L2Meta::Denovo(d) = &mut e.meta {
                    d.accept_writeback(registered, CoreId(core));
                }
                e.valid = e.valid.union(registered);
                e.dirty = e.dirty.union(registered);
            }
            if let Some(bloom) = &mut self.tiles[home.0].l2_bloom {
                bloom.insert(victim.line);
            }
        }

        let line_in_l2 = self.tiles[home.0].l2.contains(victim.line);
        self.l1_prof[core].evicted_words(line0, valid);
        if !line_in_l2 {
            self.mem_prof.evicted_words(line0, valid);
        }
    }

    /// Evicts an L2 line: words registered to L1s are recalled (written back
    /// by their owners), then dirty words are written back to memory —
    /// dirty-words-only when the protocol supports it, whole line otherwise.
    fn denovo_evict_l2(&mut self, home: TileId, victim: LineEntry<L2Meta>, at: Stamp) {
        let L2Meta::Denovo(dl) = &victim.meta else {
            return;
        };
        let mut dirty = victim.dirty;
        let mut valid = victim.valid;

        // Recall registered words from their owners.
        for (owner, mask) in dl.registrants() {
            let (holder, n) = (owner.tile(), mask.count());
            self.net
                .send(home, holder, MessageKind::Invalidation, 0, at);
            let wb = self
                .net
                .send(holder, home, MessageKind::L1Writeback, n, at + 1);
            self.charge_writeback_data(wb.per_word_hops, n, n, false);
            if let Some(e) = self.tiles[owner.0].l1.get(victim.line) {
                e.valid = e.valid.difference(mask);
                e.dirty = e.dirty.difference(mask);
            }
            dirty = dirty.union(mask);
            valid = valid.union(mask);
        }

        if !dirty.is_empty() {
            let carried = if self.protocol().dirty_words_only_writeback() {
                dirty.count()
            } else {
                WORDS_PER_LINE
            };
            let mc = self.mc_of(victim.line);
            let wb = self
                .net
                .send(home, mc, MessageKind::MemWriteback, carried, at + 2);
            self.charge_writeback_data(wb.per_word_hops, dirty.count(), carried, true);
            self.dram_access(mc, victim.line, true, wb.arrival);
        }

        let line0 = victim.line.word_addr(WordIdx(0));
        self.l2_prof.evicted_words(line0, valid);
        self.mem_prof.evicted_words(line0, valid);
        if let Some(bloom) = &mut self.tiles[home.0].l2_bloom {
            bloom.remove(victim.line);
        }
    }

    /// Barrier-time protocol actions: drain the write-combining tables,
    /// self-invalidate stale valid words, and clear the L1 Bloom shadows.
    pub(super) fn denovo_barrier_actions(&mut self, at: Stamp) {
        let cores = self.tiles.len();
        for core in 0..cores {
            let flushed = self.tiles[core].write_combine.release_all();
            for (entry, _) in flushed {
                self.denovo_send_registration(core, entry.line, entry.pending, at);
            }
        }

        for (tile, prof) in self.tiles.iter_mut().zip(&mut self.l1_prof) {
            for entry in tile.l1.iter_mut() {
                if self.geo.region_parallel(entry.meta.region()) {
                    let inv = l1_self_invalidate(&mut entry.valid, entry.dirty);
                    if !inv.is_empty() {
                        prof.invalidated_words(entry.line.word_addr(WordIdx(0)), inv);
                    }
                }
            }
            for bank in tile.l1_bloom.iter_mut() {
                bank.clear();
            }
        }
    }

    /// Per-transaction registry check (debug builds): after a load or store
    /// to `addr`, every word the home L2 records as registered to a core is
    /// `Registered` in that core's L1 — the L1 learns of a store before the
    /// registry does and gives the word up only together with it.
    #[cfg(debug_assertions)]
    pub(super) fn assert_registrants_hold_their_words(&self, addr: Addr) {
        let line = LineAddr::containing(addr, LINE_BYTES);
        let Some(registry) = self.denovo_l2_meta(self.home_of(line), line) else {
            return;
        };
        for (core, words) in registry.registrants() {
            let (valid, dirty) = self.tiles[core.0]
                .l1
                .peek(line)
                .map_or((WordMask::EMPTY, WordMask::EMPTY), |e| (e.valid, e.dirty));
            if let Some(w) = words.difference(dirty).iter().next() {
                let state = tw_protocols::denovo::l1_word_state(valid, dirty, w);
                panic!("{line}: the L2 registers {w} to {core}, whose L1 holds it {state}");
            }
        }
    }

    /// The converse per-transaction check (debug builds): no word of the
    /// line of `addr` is `Registered` in two L1s. A core whose store still
    /// waits in its write-combining table does not count: its registration
    /// has not reached the home, which invalidates the previous holder.
    #[cfg(debug_assertions)]
    pub(super) fn assert_one_registered_copy(&self, addr: Addr) {
        let line = LineAddr::containing(addr, LINE_BYTES);
        let mut held = WordMask::EMPTY;
        for (core, tile) in self.tiles.iter().enumerate() {
            let dirty = tile.l1.peek(line).map_or(WordMask::EMPTY, |e| e.dirty);
            let pending = tile.write_combine.pending(line).unwrap_or(WordMask::EMPTY);
            let registered = dirty.difference(pending);
            if let Some(w) = registered.intersect(held).iter().next() {
                panic!("{line}: {w} is Registered in the L1 of C{core} and of a lower core");
            }
            held = held.union(registered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use tw_types::ProtocolKind::{self, *};
    use tw_types::{BypassKind, CommRegion, NetworkModelKind, RegionInfo, RegionTable};
    use tw_workloads::{BenchmarkKind, Workload};

    /// Lines `A`, `A + 1024` and `A + 2048` have their home at tile 0.
    const A: u64 = 0x10000;
    const R: RegionId = RegionId(0);

    fn line(addr: u64) -> LineAddr {
        LineAddr::containing(Addr::new(addr), LINE_BYTES)
    }

    /// A cold 16-core machine under `protocol` with one streamed region of
    /// 2 KiB objects at `A`: Flex communicates the first four words of an
    /// object and the first `riders` words of its line `A + 1024`.
    fn machine(protocol: ProtocolKind, riders: u64) -> Simulator<'static> {
        let mut region = RegionInfo::plain(R, "objects", Addr::new(A), 4096);
        region.bypass = BypassKind::StreamingOncePerPhase;
        region.comm = Some(CommRegion {
            object_bytes: 2048,
            useful_offsets: (0..4).chain(256..256 + riders).map(|w| 4 * w).collect(),
        });
        let mut workload = Workload {
            kind: BenchmarkKind::Custom,
            input: "route probe".into(),
            regions: RegionTable::new(),
            traces: vec![Vec::new(); 16].into(),
        };
        workload.regions.insert(region);
        Simulator::new(SimConfig::new(protocol), Box::leak(Box::new(workload)))
    }

    /// What a load of `addr` by `core` cost: messages sent, DRAM reads, and
    /// whether the stall was booked on chip (`OnChipHit`) — if not, all of
    /// it as a trip to memory (`ToMc`, `Mem`, `FromMc`).
    fn load(eng: &mut Engine, core: usize, addr: u64) -> (u64, u64, bool) {
        use TimeClass::*;
        let stall = |eng: &Engine| {
            [OnChipHit, ToMc, Mem, FromMc]
                .map(|c| eng.time[core].lane(NetworkModelKind::Analytic).get(c))
        };
        let reads = |eng: &Engine| -> u64 {
            let mcs = eng.tiles.iter().filter_map(|t| t.mc.as_ref());
            mcs.map(|mc| mc.stats().reads).sum()
        };
        let before = (eng.net.sends, reads(eng), stall(eng));
        eng.load(core, Addr::new(addr), R, Stamp::at(1_000));
        let grew: Vec<bool> = (0..4).map(|i| stall(eng)[i] > before.2[i]).collect();
        assert_eq!(grew, [grew[0], !grew[0], !grew[0], !grew[0]]);
        (eng.net.sends - before.0, reads(eng) - before.1, grew[0])
    }

    #[test]
    fn a_cold_miss_takes_the_route_its_protocol_and_region_give_it() {
        // Messages and DRAM reads of core 1's first load of `A`, whether the
        // home L2 then holds the line, and the rider's words in the L1.
        let cold = |protocol, riders| {
            let mut sim = machine(protocol, riders);
            let (sends, reads, on_chip) = load(&mut sim.engine, 1, A);
            let rider = sim.engine.denovo_l1_readable(1, line(A + 1024)).count();
            let in_l2 = sim.engine.tiles[0].l2.contains(line(A));
            assert!(!on_chip);
            (sends, reads, in_l2, rider)
        };
        // LoadReq, MemReadReq, DataToL2, DataToL1.
        assert_eq!(cold(DeNovo, 0), (4, 1, true, 0));
        // A rider comes from memory only under memory-side Flex, and only if
        // it is four words or more: MemReadReq, MemDataToL1, DataToL2 again.
        assert_eq!(cold(DFlexL1, 4), (4, 1, true, 0));
        assert_eq!(cold(DFlexL2, 3), (4, 1, true, 0));
        assert_eq!(cold(DFlexL2, 4), (7, 2, true, 4));
        // Response bypass: LoadReq, MemReadReq, MemDataToL1 and no DataToL2.
        assert_eq!(cold(DBypL2, 0), (3, 1, false, 0));
        // Request bypass: BloomCopyReq, BloomCopyResp, LoadReqToMc, MemDataToL1.
        assert_eq!(cold(DBypFull, 0), (4, 1, false, 0));
    }

    #[test]
    fn a_warm_miss_is_served_on_chip_and_a_bloom_copy_is_kept() {
        let mut sim = machine(DeNovo, 0);
        let eng = &mut sim.engine;
        load(eng, 0, A);
        // The L2 holds the line: LoadReq, DataToL1.
        assert_eq!(load(eng, 1, A), (2, 0, true));
        // Cores 2 and 3 register a word each of `A`, core 4 one of the next
        // line; the barrier drains the registrations and invalidates copies.
        for (core, addr) in [(2, A), (3, A + 4), (4, A + 64)] {
            eng.store(core, Addr::new(addr), R, Stamp::at(2_000));
        }
        eng.barrier_released(Stamp::at(3_000));
        // LoadReq, DataToL1 from the L2, and a forward + DataToL1 per owner.
        assert_eq!(load(eng, 5, A + 64), (4, 0, true));
        assert_eq!(load(eng, 6, A), (6, 0, true));
        assert!(eng.denovo_l1_readable(6, line(A)).is_full());

        // The next line of the same home and filter goes direct at once.
        let mut sim = machine(DBypFull, 0);
        let eng = &mut sim.engine;
        let filter = |a| eng.tiles[1].l1_bloom[0].filter_index(line(a));
        let b = (1..)
            .map(|k| A + 2048 * k)
            .find(|&b| filter(b) == filter(A));
        load(eng, 1, A);
        assert_eq!(load(eng, 1, b.expect("32 filters")), (2, 1, false));
    }

    /// Cores 0 and 1 register word 0 and word 1 of line `A`, `plant` corrupts
    /// the copy of `core`, and core 1 runs one more transaction on the line.
    #[cfg(debug_assertions)]
    fn check_after(core: usize, plant: fn(&mut LineEntry<L1Meta>)) {
        let mut sim = machine(DeNovo, 0);
        for core in 0..2 {
            let word = Addr::new(A + 4 * core as u64);
            sim.engine.store(core, word, R, Stamp::at(0));
        }
        sim.engine.barrier_released(Stamp::at(1_000));
        plant(sim.engine.tiles[core].l1.get(line(A)).expect("registered"));
        sim.engine.load(1, Addr::new(A + 8), R, Stamp::at(2_000));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the L2 registers w0 to C0, whose L1 holds it V")]
    fn a_registrant_that_lost_its_dirty_bit_fails_the_next_transaction() {
        check_after(0, |copy| copy.dirty.remove(WordIdx(0)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "w0 is Registered in the L1 of C1 and of a lower core")]
    fn a_second_registered_copy_fails_the_next_transaction() {
        check_after(1, |copy| copy.dirty.insert(WordIdx(0)));
    }
}
