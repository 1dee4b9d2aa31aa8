//! DeNovo transaction execution (all seven DeNovo configurations), reached
//! through `Engine`'s four entry points. All machine state lives in the
//! shared [`Engine`]; this file contains only the DeNovo-family transaction
//! logic.

use super::engine::Engine;
use crate::machine::{L1Meta, L2Meta};
use crate::timing::TimeClass;
use tw_mem::LineEntry;
use tw_protocols::{denovo::l1_self_invalidate, flex_fetch_plan, DenovoL2Line, FlexPlan};
use tw_types::{
    Addr, CoreId, LineAddr, MessageClass, MessageKind, RegionId, Stamp, TileId, WordIdx, WordMask,
    LINE_BYTES, WORDS_PER_LINE,
};

/// How one cache line of a fetch plan was served.
#[derive(Debug, Clone, Copy)]
struct LineService {
    arrival: Stamp,
    reached_mc: Option<Stamp>,
    dram_done: Option<Stamp>,
}

impl Engine<'_> {
    /// The words of `line` the L1 of `core` can read (valid or registered).
    fn denovo_l1_readable(&self, core: usize, line: LineAddr) -> WordMask {
        self.tiles[core]
            .l1
            .peek(line)
            .map_or(WordMask::EMPTY, |e| e.valid)
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
        let line = LineAddr::containing(addr, LINE_BYTES);

        // Build the fetch plan (Flex or whole-line).
        let plan = if self.protocol().flex_on_chip() {
            flex_fetch_plan(&self.workload.regions, addr, LINE_BYTES)
        } else {
            FlexPlan::whole_line(addr, LINE_BYTES)
        };
        let bypass = self.protocol().l2_response_bypass() && self.geo.region_bypasses_l2(region);

        // L2 request bypass: consult the Bloom shadow and, when it says the
        // line cannot be dirty on chip, go straight to the memory controller.
        let mut t_start = now;
        let mut direct_to_mc = false;
        if self.protocol().l2_request_bypass() && bypass {
            let home = self.home_of(line);
            if !self.tiles[core].l1_bloom[home.0].has_copy_for(line) {
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
                self.install_bloom_copy(core, home.0, line);
                t_start = rs.arrival;
            }
            let shadow = &self.tiles[core].l1_bloom[home.0];
            if shadow.has_copy_for(line) && !shadow.may_contain(line) {
                direct_to_mc = true;
            }
        }

        // Serve every line of the plan; remember the demanded line's path for
        // the timing attribution.
        let demanded = line;
        let mut demand_service = None;
        for (pl_line, want) in plan.lines {
            let is_demand = pl_line == demanded;
            // The request names only the words this L1 is actually missing;
            // words it already holds (valid or registered) are never
            // re-fetched.
            let want = want.difference(self.denovo_l1_readable(core, pl_line));
            if want.is_empty() {
                continue;
            }
            // Prefetching a handful of words from another line is not worth a
            // dedicated packet; real Flex folds them into the demanded line's
            // response, so small remote selections are simply skipped.
            if !is_demand && want.count() < 4 {
                continue;
            }
            let service = self.denovo_fetch_line(
                core,
                pl_line,
                want,
                region,
                is_demand,
                bypass,
                direct_to_mc && is_demand,
                t_start,
            );
            if is_demand {
                demand_service = Some(service);
            }
        }
        let service = demand_service.expect("plan always contains the demanded line");

        match (service.reached_mc, service.dram_done) {
            (Some(reached), Some(done)) => {
                self.time[core].add(TimeClass::ToMc, reached.since(now));
                self.time[core].add(TimeClass::Mem, done.since(reached));
                self.time[core].add(TimeClass::FromMc, service.arrival.since(done));
            }
            _ => {
                self.time[core].add(TimeClass::OnChipHit, service.arrival.since(now));
            }
        }
        service.arrival.max(now + 1)
    }

    /// Serves one cache line of a load's fetch plan.
    #[allow(clippy::too_many_arguments)]
    fn denovo_fetch_line(
        &mut self,
        core: usize,
        line: LineAddr,
        want: WordMask,
        region: RegionId,
        is_demand: bool,
        bypass: bool,
        direct_to_mc: bool,
        now: Stamp,
    ) -> LineService {
        let me = TileId(core);
        let home = self.home_of(line);
        let occupancy = self.system().timing.l2_occupancy_cycles;
        let l2_hit = self.system().timing.l2_hit_cycles;
        let mem_to_l1 = self.protocol().mem_to_l1();
        let flex_mem = self.protocol().flex_at_memory();

        // Request control: one message for the demanded line; Flex combines
        // the additional lines of the plan into the same request.
        let t_home = if direct_to_mc {
            now
        } else if is_demand {
            let rq = self.net.send(me, home, MessageKind::LoadReq, 0, now);
            rq.arrival + occupancy
        } else {
            now + occupancy
        };

        // Split the wanted words by who can supply them.
        let (at_l2, by_owner, missing) = if direct_to_mc {
            (WordMask::EMPTY, Vec::new(), want)
        } else {
            match self.denovo_l2_meta(home, line) {
                Some(meta) => {
                    let at_l2 = want.intersect(meta.valid_at_l2());
                    let mut by_owner: Vec<(CoreId, WordMask)> = Vec::new();
                    for w in want.difference(at_l2).iter() {
                        if let Some(owner) = meta.owner(w).registrant() {
                            if owner.0 == core {
                                continue;
                            }
                            match by_owner.iter_mut().find(|(c, _)| *c == owner) {
                                Some((_, m)) => m.insert(w),
                                None => by_owner.push((owner, WordMask::single(w))),
                            }
                        }
                    }
                    let owned: WordMask = by_owner
                        .iter()
                        .fold(WordMask::EMPTY, |acc, (_, m)| acc.union(*m));
                    (at_l2, by_owner, want.difference(at_l2).difference(owned))
                }
                None => (WordMask::EMPTY, Vec::new(), want),
            }
        };

        let mut arrival = t_home;
        let mut reached_mc = None;
        let mut dram_done = None;

        // Words the L2 itself holds.
        if !at_l2.is_empty() {
            self.tiles[home.0].l2.get(line);
            let d = self.net.send(
                home,
                me,
                MessageKind::DataToL1,
                at_l2.count(),
                t_home + l2_hit,
            );
            self.l2_prof.loaded_words(line.word_addr(WordIdx(0)), at_l2);
            self.denovo_fill_l1(
                core,
                line,
                region,
                at_l2,
                MessageClass::Load,
                d.per_word_hops,
                d.arrival,
            );
            arrival = arrival.max(d.arrival);
        }

        // Words registered to other cores: the L2 forwards the request and the
        // owner responds directly (no sharer list, no unblock).
        for (owner, mask) in by_owner {
            let fwd = self
                .net
                .send(home, owner.tile(), MessageKind::LoadReq, 0, t_home);
            let d = self.net.send(
                owner.tile(),
                me,
                MessageKind::DataToL1,
                mask.count(),
                fwd.arrival + 1,
            );
            self.denovo_fill_l1(
                core,
                line,
                region,
                mask,
                MessageClass::Load,
                d.per_word_hops,
                d.arrival,
            );
            arrival = arrival.max(d.arrival);
        }

        // Words nobody on chip has: fetch from memory. Non-demanded plan lines
        // are only fetched from memory when Flex extends to the memory
        // controller (DFlexL2 and later); otherwise the miss simply forgoes
        // the prefetch (DFlexL1 behaviour).
        if !missing.is_empty() && (is_demand || flex_mem) {
            let mc = self.mc_of(line);
            let reach = if direct_to_mc {
                let rq = self.net.send(me, mc, MessageKind::LoadReqToMc, 0, now);
                rq.arrival
            } else {
                let rq = self.net.send(home, mc, MessageKind::MemReadReq, 0, t_home);
                rq.arrival
            };
            let done = self.dram_access(mc, line, false, reach);
            reached_mc = Some(reach);
            dram_done = Some(done);

            // What the controller sends on chip: with memory-side Flex only
            // the wanted words, otherwise the whole line.
            let sent = if flex_mem { missing } else { WordMask::FULL };
            if flex_mem {
                for w in WordMask::FULL.difference(sent).iter() {
                    self.mem_prof.dropped_at_controller(line.word_addr(w));
                }
            }

            let fill_l2 = !bypass;
            let l2_present = self.l2_has_data(home, line);

            if mem_to_l1 || direct_to_mc {
                let d = self
                    .net
                    .send(mc, me, MessageKind::MemDataToL1, sent.count(), done);
                self.mem_prof.fetched_words(
                    line.word_addr(WordIdx(0)),
                    sent,
                    l2_present,
                    d.per_word_hops,
                );
                self.denovo_fill_l1(
                    core,
                    line,
                    region,
                    sent,
                    MessageClass::Load,
                    d.per_word_hops,
                    d.arrival,
                );
                arrival = arrival.max(d.arrival);
                if fill_l2 {
                    let d2 = self
                        .net
                        .send(mc, home, MessageKind::DataToL2, sent.count(), done);
                    self.denovo_fill_l2(
                        home,
                        line,
                        sent,
                        MessageClass::Load,
                        d2.per_word_hops,
                        d2.arrival,
                    );
                }
            } else {
                let d2 = self
                    .net
                    .send(mc, home, MessageKind::DataToL2, sent.count(), done);
                self.mem_prof.fetched_words(
                    line.word_addr(WordIdx(0)),
                    sent,
                    l2_present,
                    d2.per_word_hops,
                );
                if fill_l2 {
                    self.denovo_fill_l2(
                        home,
                        line,
                        sent,
                        MessageClass::Load,
                        d2.per_word_hops,
                        d2.arrival,
                    );
                }
                let d1 = self.net.send(
                    home,
                    me,
                    MessageKind::DataToL1,
                    sent.count(),
                    d2.arrival + l2_hit,
                );
                self.denovo_fill_l1(
                    core,
                    line,
                    region,
                    sent,
                    MessageClass::Load,
                    d1.per_word_hops,
                    d1.arrival,
                );
                arrival = arrival.max(d1.arrival);
            }
        }

        LineService {
            arrival,
            reached_mc: if is_demand { reached_mc } else { None },
            dram_done: if is_demand { dram_done } else { None },
        }
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

        if !self.tiles[core].l1.contains(line) {
            let victim = self.tiles[core].l1.insert(line, L1Meta::Denovo(region)).1;
            if let Some(v) = victim {
                self.denovo_evict_l1(core, v, now);
            }
        }

        self.l1_prof[core].stored(addr);
        self.mem_prof.stored(addr);

        // Single lookup: read the prior registration state out of the same
        // `get` that applies the write (one tick bump, as before).
        let mut was_registered = false;
        if let Some(e) = self.tiles[core].l1.get(line) {
            was_registered = e.dirty.contains(w);
            e.valid.insert(w);
            e.dirty.insert(w);
        }

        if !was_registered {
            let mut flushes = self.tiles[core]
                .write_combine
                .record_write(line, w, now.canon);
            flushes.extend(self.tiles[core].write_combine.expire(now.canon));
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
        if words.is_empty() {
            return;
        }
        let me = TileId(core);
        let home = self.home_of(line);
        let occupancy = self.system().timing.l2_occupancy_cycles;

        let rq = self.net.send(me, home, MessageKind::StoreReq, 0, now);
        let t_home = rq.arrival + occupancy;

        self.denovo_ensure_l2(home, line, true, t_home);

        // Register the words, invalidating any previous registrant.
        let displaced = {
            match self.tiles[home.0].l2.get(line).map(|e| &mut e.meta) {
                Some(L2Meta::Denovo(d)) => d.register(words, CoreId(core)),
                _ => Vec::new(),
            }
        };
        if let Some(e) = self.tiles[home.0].l2.get(line) {
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

    /// Installs `words` of `line` into the requesting L1 as `Valid`.
    #[allow(clippy::too_many_arguments)]
    fn denovo_fill_l1(
        &mut self,
        core: usize,
        line: LineAddr,
        region: RegionId,
        words: WordMask,
        class: MessageClass,
        per_word_hops: f64,
        at: Stamp,
    ) {
        if words.is_empty() {
            return;
        }
        if !self.tiles[core].l1.contains(line) {
            let victim = self.tiles[core].l1.insert(line, L1Meta::Denovo(region)).1;
            if let Some(v) = victim {
                self.denovo_evict_l1(core, v, at);
            }
        }
        // Record arrivals (with present/absent status) before mutating state.
        let present = self.denovo_l1_readable(core, line);
        self.l1_prof[core].arrive_words(
            line.word_addr(WordIdx(0)),
            words,
            present,
            per_word_hops,
            class,
        );
        // A registered word that is filled stays registered: `dirty` is
        // untouched.
        if let Some(e) = self.tiles[core].l1.get(line) {
            e.valid = e.valid.union(words);
        }
    }

    /// Installs `words` of `line` into the home L2 slice as valid-at-L2.
    fn denovo_fill_l2(
        &mut self,
        home: TileId,
        line: LineAddr,
        words: WordMask,
        class: MessageClass,
        per_word_hops: f64,
        at: Stamp,
    ) {
        if words.is_empty() {
            return;
        }
        self.denovo_ensure_l2(home, line, false, at);
        let present = self
            .denovo_l2_meta(home, line)
            .map(|m| m.valid_at_l2())
            .unwrap_or(WordMask::EMPTY);
        self.l2_prof.arrive_words(
            line.word_addr(WordIdx(0)),
            words,
            present,
            per_word_hops,
            class,
        );
        if let Some(e) = self.tiles[home.0].l2.get(line) {
            if let L2Meta::Denovo(d) = &mut e.meta {
                for w in words.iter() {
                    if d.owner(w).registrant().is_none() {
                        d.set_owner(w, tw_protocols::L2WordOwner::AtL2);
                    }
                }
            }
            e.valid = e.valid.union(words);
        }
    }

    /// Ensures an L2 entry exists for `line`. In store context under the
    /// baseline (fetch-on-write) L2 policy, a missing line is fetched from
    /// memory in full before the registration is applied.
    fn denovo_ensure_l2(&mut self, home: TileId, line: LineAddr, store_ctx: bool, at: Stamp) {
        if self.tiles[home.0].l2.contains(line) {
            return;
        }
        let victim = self.tiles[home.0]
            .l2
            .insert(line, L2Meta::Denovo(DenovoL2Line::default()))
            .1;
        if let Some(v) = victim {
            self.denovo_evict_l2(home, v, at);
        }

        if store_ctx && !self.protocol().l2_write_validate() {
            // Fetch-on-write at the L2: bring the whole line from memory.
            let mc = self.mc_of(line);
            let rq = self.net.send(home, mc, MessageKind::MemReadReq, 0, at);
            let done = self.dram_access(mc, line, false, rq.arrival);
            let d = self
                .net
                .send(mc, home, MessageKind::DataToL2, WORDS_PER_LINE, done);
            self.mem_prof.fetched_words(
                line.word_addr(WordIdx(0)),
                WordMask::FULL,
                false,
                d.per_word_hops,
            );
            self.l2_prof.arrive_words(
                line.word_addr(WordIdx(0)),
                WordMask::FULL,
                WordMask::EMPTY,
                d.per_word_hops,
                MessageClass::Store,
            );
            if let Some(e) = self.tiles[home.0].l2.get(line) {
                if let L2Meta::Denovo(dl) = &mut e.meta {
                    for w in WordMask::FULL.iter() {
                        dl.set_owner(w, tw_protocols::L2WordOwner::AtL2);
                    }
                }
                e.valid = WordMask::FULL;
            }
        }
    }

    /// Evicts an L1 line: registered (dirty) words are written back (and any
    /// still-pending registrations are folded into the same message); valid
    /// words are dropped silently.
    fn denovo_evict_l1(&mut self, core: usize, victim: LineEntry<L1Meta>, at: Stamp) {
        let me = TileId(core);
        let home = self.home_of(victim.line);
        let registered = victim.dirty;
        let valid = victim.valid.difference(registered);
        let pending = self.tiles[core].write_combine.evict_line(victim.line);

        if !registered.is_empty() {
            let kind = if pending.is_some() {
                MessageKind::WritebackAndRegister
            } else {
                MessageKind::L1Writeback
            };
            let wb = self.net.send(me, home, kind, registered.count(), at);
            self.charge_writeback_data(
                wb.per_word_hops,
                registered.count(),
                registered.count(),
                false,
            );
            self.denovo_ensure_l2(home, victim.line, false, at);
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
        self.l1_prof[core].evicted_words(victim.line.word_addr(WordIdx(0)), valid);
        if !line_in_l2 {
            self.mem_prof
                .evicted_words(victim.line.word_addr(WordIdx(0)), valid);
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
            self.net
                .send(home, owner.tile(), MessageKind::Invalidation, 0, at);
            let wb = self.net.send(
                owner.tile(),
                home,
                MessageKind::L1Writeback,
                mask.count(),
                at + 1,
            );
            self.charge_writeback_data(wb.per_word_hops, mask.count(), mask.count(), false);
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

        self.l2_prof
            .evicted_words(victim.line.word_addr(WordIdx(0)), valid);
        self.mem_prof
            .evicted_words(victim.line.word_addr(WordIdx(0)), valid);
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

        for core in 0..cores {
            // Collect the self-invalidations first, then report them, to keep
            // the cache and profiler borrows apart. The per-region parallel
            // flag comes from the precomputed table — the old per-core
            // `RegionTable` clone allocated on every barrier.
            let mut invalidated: Vec<(LineAddr, WordMask)> = Vec::new();
            let geo = &self.geo;
            for entry in self.tiles[core].l1.iter_mut() {
                if geo.region_parallel(entry.meta.region()) {
                    let inv = l1_self_invalidate(&mut entry.valid, entry.dirty);
                    if !inv.is_empty() {
                        invalidated.push((entry.line, inv));
                    }
                }
            }
            for (line, inv) in invalidated {
                self.l1_prof[core].invalidated_words(line.word_addr(WordIdx(0)), inv);
            }
            for bank in self.tiles[core].l1_bloom.iter_mut() {
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

    /// Copies the home slice's Bloom filter covering `line` into this core's
    /// shadow bank.
    fn install_bloom_copy(&mut self, core: usize, home: usize, line: LineAddr) {
        let (shadows, slice) = if core == home {
            let tile = &mut self.tiles[core];
            (&mut tile.l1_bloom, &tile.l2_bloom)
        } else {
            let (low, high) = self.tiles.split_at_mut(core.max(home));
            if core < home {
                (&mut low[core].l1_bloom, &high[0].l2_bloom)
            } else {
                (&mut high[0].l1_bloom, &low[home].l2_bloom)
            }
        };
        let slice = slice.as_ref().expect("request bypass builds Bloom state");
        shadows[home].install_copy(line, slice);
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use crate::sim::{SimConfig, Simulator};
    use tw_types::{
        Addr, LineAddr, ProtocolKind, RegionId, RegionTable, Stamp, TraceOp, WordIdx, LINE_BYTES,
    };
    use tw_workloads::{BenchmarkKind, Workload};

    #[test]
    #[should_panic(expected = "the L2 registers w0 to C0, whose L1 holds it V")]
    fn a_registrant_that_lost_its_dirty_bit_fails_the_next_transaction() {
        const A: u64 = 0x4000;
        let word = |w: u64| Addr::new(A + 4 * w);
        // Two cores register one word each of the same line; the barrier
        // drains both registrations to the home L2.
        let mut traces = vec![Vec::new(); 16];
        for (core, trace) in traces.iter_mut().enumerate().take(2) {
            *trace = vec![
                TraceOp::store(word(core as u64), RegionId(0)),
                TraceOp::barrier(0),
            ];
        }
        let wl = Workload {
            kind: BenchmarkKind::Custom,
            input: "two-core registry probe".into(),
            regions: RegionTable::new(),
            traces,
        };
        let mut sim = Simulator::new(SimConfig::new(ProtocolKind::DeNovo), &wl);
        sim.run_loop();

        let eng = &mut sim.engine;
        let line = LineAddr::containing(word(0), LINE_BYTES);
        let entry = eng.tiles[0].l1.get(line).expect("core 0 holds the line");
        assert!(entry.dirty.contains(WordIdx(0)));
        entry.dirty.remove(WordIdx(0));
        eng.load(1, word(2), RegionId(0), Stamp::at(1_000_000));
    }
}
