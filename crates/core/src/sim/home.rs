//! The inclusive-directory substrate of the engine: the whole read miss of
//! MESI, MMemL1 and Dragon, and every home-side step their writes perform
//! identically, whatever a write does to the other copies.
//!
//! The three protocols share their line states and directory entry
//! (`tw_protocols::directory`) and, here, the machinery around them: reading
//! and writing the entry beside an L2 line, serving a line from the slice,
//! fetching it from memory through the slice or (MMemL1) straight to the L1,
//! flushing a dirty owner, filling and evicting L1 lines, allocating and
//! evicting (recalling) L2 lines. Two steps are shared with DeNovo as well:
//! [`Engine::read_memory`], the one memory-read leg of the engine (request
//! to the controller, DRAM, first data message, memory-profiler booking —
//! the only sender of `MemReadReq` and `LoadReqToMc`), and
//! [`Engine::book_miss_stall`], which splits a miss's stall at the
//! controller and at DRAM completion. A read is one choreography,
//! [`Engine::directory_load`]; the protocols differ in it at two policy
//! points, each one `match` on the family beside it: what the directory
//! records (`record_read`) and what a dirty holder does when the read is
//! forwarded to it (`owner_supplies_read`: MESI flushes and downgrades,
//! Dragon supplies and keeps its dirty copy). What a *write* means —
//! invalidate vs. update — branches at every step and stays apart in
//! `exec_mesi.rs` / `exec_dragon.rs`, which call down into this file and
//! never the other way round.
//!
//! The order of `net.send` and profiler calls inside each function is part
//! of the behaviour: sends reserve links, so reordering two of them moves
//! result bytes.

use super::engine::{Delivery, Engine, Family};
use crate::machine::{L1Meta, L2Meta};
use crate::timing::TimeClass;
use tw_mem::LineEntry;
use tw_protocols::{dragon, mesi, Directory, LineState};
use tw_types::config::{L2_HIT_CYCLES, L2_OCCUPANCY_CYCLES};
use tw_types::{
    Addr, CoreId, LineAddr, MessageClass, MessageKind, RegionId, Stamp, TileId, WordIdx, WordMask,
    LINE_BYTES, WORDS_PER_LINE,
};

/// An end of the memory-read leg: who asks the controller, or whom its
/// first data message goes to.
#[derive(Debug, Clone, Copy)]
pub(super) enum MemPeer {
    /// The home L2 slice of the line.
    Home,
    /// The L1 of this tile.
    L1(TileId),
}

/// Timeline of a line fetched from memory on behalf of an L1 miss.
pub(super) struct MemFetch {
    /// When the read request reached the memory controller.
    pub at_mc: Stamp,
    /// When DRAM produced the line.
    pub dram_done: Stamp,
    /// The data's arrival at the requesting L1.
    pub delivery: Delivery,
}

impl Engine<'_> {
    /// Services a load that missed the L1 of `core` under MESI, MMemL1 and
    /// Dragon, returning the cycle at which the core may proceed.
    pub(super) fn directory_load(
        &mut self,
        core: usize,
        addr: Addr,
        region: RegionId,
        now: Stamp,
    ) -> Stamp {
        let line = LineAddr::containing(addr, LINE_BYTES);
        let me = TileId(core);
        let home = self.home_of(line);

        let req = self.net.send(me, home, MessageKind::LoadReq, 0, now);
        let t_home = req.arrival + L2_OCCUPANCY_CYCLES;

        let (exclusive, delivery) = if self.l2_has_data(home, line) {
            // ---- served on chip -------------------------------------------
            let mut dir = self.dir(home, line);
            let (exclusive, supplier) = self.record_read(&mut dir, CoreId(core));
            let delivery = match supplier {
                Some(owner) => self.owner_supplies_read(owner, me, line, t_home),
                None => self.serve_from_l2(home, me, line, t_home + L2_HIT_CYCLES),
            };
            self.set_dir(home, line, dir);
            self.net
                .send(me, home, MessageKind::DirUnblock, 0, delivery.arrival);
            self.book_miss_stall(core, now, delivery.arrival, None);
            (exclusive, delivery)
        } else {
            // ---- L2 miss: fetch from memory --------------------------------
            let fetch = if self.protocol().mem_to_l1() {
                // MMemL1: data goes straight to the L1, which forwards it to
                // the (inclusive) L2 as an unblock+data message.
                let fetch =
                    self.read_memory(line, WordMask::FULL, MemPeer::Home, MemPeer::L1(me), t_home);
                let ub = self.net.send(
                    me,
                    home,
                    MessageKind::DirUnblockWithData,
                    WORDS_PER_LINE,
                    fetch.delivery.arrival,
                );
                self.l2_prof.arrive_words(
                    line.word_addr(WordIdx(0)),
                    WordMask::FULL,
                    WordMask::EMPTY,
                    ub.per_word_hops,
                    MessageClass::Load,
                );
                fetch
            } else {
                self.fetch_through_l2(home, me, line, MessageClass::Load, t_home, L2_HIT_CYCLES)
            };
            let mut dir = Directory::default();
            let (exclusive, _) = self.record_read(&mut dir, CoreId(core));
            self.allocate_l2(home, line, dir, WordMask::FULL, now);
            self.book_miss_stall(core, now, fetch.delivery.arrival, Some(&fetch));
            (exclusive, fetch.delivery)
        };

        let state = LineState::fill_for_read(exclusive);
        self.fill_l1(core, line, region, state, MessageClass::Load, delivery);
        delivery.arrival
    }

    /// Books the stall of a load miss `core` issued at `now` whose last word
    /// arrived at `arrival`: on-chip time, or — when memory supplied data —
    /// split at the memory controller and at DRAM completion.
    pub(super) fn book_miss_stall(
        &mut self,
        core: usize,
        now: Stamp,
        arrival: Stamp,
        from_memory: Option<&MemFetch>,
    ) {
        let time = &mut self.time[core];
        match from_memory {
            Some(mem) => {
                time.add_lanes(TimeClass::ToMc, mem.at_mc.since(now));
                time.add_lanes(TimeClass::Mem, mem.dram_done.since(mem.at_mc));
                time.add_lanes(TimeClass::FromMc, arrival.since(mem.dram_done));
            }
            None => time.add_lanes(TimeClass::OnChipHit, arrival.since(now)),
        }
    }

    /// Read policy point 1 — what the directory records. Files the read by
    /// `core` in `dir` and returns whether the response may grant
    /// `Exclusive`, and the dirty holder the read must be forwarded to.
    fn record_read(&self, dir: &mut Directory, core: CoreId) -> (bool, Option<CoreId>) {
        match self.family {
            Family::Mesi => (
                mesi::grants_exclusive(dir, core),
                mesi::record_read(dir, core),
            ),
            Family::Dragon => (
                dragon::grants_exclusive(dir, core),
                dragon::record_read(dir, core),
            ),
            Family::Denovo => unreachable!("DeNovo keeps no directory"),
        }
    }

    /// Read policy point 2 — what a dirty holder does when the home forwards
    /// a read to it. Either way it supplies the line cache-to-cache.
    fn owner_supplies_read(
        &mut self,
        owner: CoreId,
        me: TileId,
        line: LineAddr,
        t_home: Stamp,
    ) -> Delivery {
        let (home, holder) = (self.home_of(line), owner.tile());
        let t_owner = match self.family {
            // MESI: the owner is invalidated as an exclusive holder — if
            // dirty it writes back to the L2 — and downgrades to Shared.
            Family::Mesi => {
                let fwd = self
                    .net
                    .send(home, holder, MessageKind::Invalidation, 0, t_home);
                self.flush_owner(owner, line, fwd.arrival + 1);
                fwd.arrival + 1
            }
            // Dragon: the owner *keeps* its dirty copy (M demotes to Sm —
            // still the owner, still owing the writeback; no flush, no
            // invalidation).
            Family::Dragon => {
                let fwd = self.net.send(home, holder, MessageKind::LoadReq, 0, t_home);
                if let Some(e) = self.tiles[owner.0].l1.get(line) {
                    if let L1Meta::Directory { state, .. } = &mut e.meta {
                        if *state == LineState::Modified {
                            *state = LineState::SharedModified;
                        }
                    }
                }
                fwd.arrival + 1
            }
            Family::Denovo => unreachable!("DeNovo keeps no directory"),
        };
        self.net
            .send(holder, me, MessageKind::DataToL1, WORDS_PER_LINE, t_owner)
    }

    /// The directory entry of `line` at its home slice (idle if the L2 does
    /// not hold the line).
    pub(super) fn dir(&self, home: TileId, line: LineAddr) -> Directory {
        match self.tiles[home.0].l2.peek(line).map(|e| &e.meta) {
            Some(L2Meta::Directory(d)) => *d,
            _ => Directory::default(),
        }
    }

    /// Writes the directory entry back (a no-op if the L2 lost the line).
    pub(super) fn set_dir(&mut self, home: TileId, line: LineAddr, dir: Directory) {
        if let Some(e) = self.tiles[home.0].l2.get(line) {
            e.meta = L2Meta::Directory(dir);
        }
    }

    /// The state of `line` in the L1 of `core`.
    pub(super) fn l1_state(&self, core: usize, line: LineAddr) -> LineState {
        match self.tiles[core].l1.peek(line).map(|e| &e.meta) {
            Some(L1Meta::Directory { state, .. }) => *state,
            _ => LineState::Invalid,
        }
    }

    /// Serves a full line straight from the L2 slice to the L1 of `me`.
    pub(super) fn serve_from_l2(
        &mut self,
        home: TileId,
        me: TileId,
        line: LineAddr,
        at: Stamp,
    ) -> Delivery {
        self.l2_prof
            .loaded_words(line.word_addr(WordIdx(0)), WordMask::FULL);
        self.tiles[home.0].l2.get(line); // refresh LRU
        self.net
            .send(home, me, MessageKind::DataToL1, WORDS_PER_LINE, at)
    }

    /// Fetches a line that misses the L2 from memory *through* the slice:
    /// the controller fills the L2, the slice forwards to the L1 after
    /// `slice_delay`, the L1 unblocks the directory. The caller allocates
    /// the L2 entry and fills the L1.
    pub(super) fn fetch_through_l2(
        &mut self,
        home: TileId,
        me: TileId,
        line: LineAddr,
        class: MessageClass,
        t_home: Stamp,
        slice_delay: u64,
    ) -> MemFetch {
        let leg = self.read_memory(line, WordMask::FULL, MemPeer::Home, MemPeer::Home, t_home);
        let d2 = leg.delivery;
        self.l2_prof.arrive_words(
            line.word_addr(WordIdx(0)),
            WordMask::FULL,
            WordMask::EMPTY,
            d2.per_word_hops,
            class,
        );
        let delivery = self.net.send(
            home,
            me,
            MessageKind::DataToL1,
            WORDS_PER_LINE,
            d2.arrival + slice_delay,
        );
        self.net
            .send(me, home, MessageKind::DirUnblock, 0, delivery.arrival);
        MemFetch { delivery, ..leg }
    }

    /// The one memory-read leg of all three families. `from` asks the
    /// controller of `line` (`MemReadReq` from the home slice, `LoadReqToMc`
    /// from an L1), DRAM produces the line, and the controller sends `words`
    /// of it to `to` (`DataToL2` / `MemDataToL1`) — the words it does not
    /// send are dropped there — which the memory profiler books. Everything
    /// on the L2 side (allocation, `l2_prof`, the slice's forward to the L1,
    /// the unblock) interleaves with eviction and stays with the caller.
    pub(super) fn read_memory(
        &mut self,
        line: LineAddr,
        words: WordMask,
        from: MemPeer,
        to: MemPeer,
        at: Stamp,
    ) -> MemFetch {
        let (home, mc) = (self.home_of(line), self.mc_of(line));
        let to_mc = match from {
            MemPeer::Home => self.net.send(home, mc, MessageKind::MemReadReq, 0, at),
            MemPeer::L1(me) => self.net.send(me, mc, MessageKind::LoadReqToMc, 0, at),
        };
        let dram_done = self.dram_access(mc, line, false, to_mc.arrival);
        self.mem_prof
            .dropped_at_controller(WordMask::FULL.difference(words));
        let l2_present = self.l2_has_data(home, line);
        let (dest, kind) = match to {
            MemPeer::Home => (home, MessageKind::DataToL2),
            MemPeer::L1(me) => (me, MessageKind::MemDataToL1),
        };
        let delivery = self.net.send(mc, dest, kind, words.count(), dram_done);
        self.mem_prof.fetched_words(
            line.word_addr(WordIdx(0)),
            words,
            l2_present,
            delivery.per_word_hops,
        );
        MemFetch {
            at_mc: to_mc.arrival,
            dram_done,
            delivery,
        }
    }

    /// Flushes a dirty owner's words to the home L2 because another core is
    /// taking the line over (a read under MESI, a write under Dragon). The
    /// owner keeps a clean `Shared` copy; the L2 absorbs the dirty words, so
    /// exactly one L1 copy is ever dirty.
    pub(super) fn flush_owner(&mut self, owner: CoreId, line: LineAddr, at: Stamp) {
        let dirty = self.tiles[owner.0]
            .l1
            .peek(line)
            .map(|e| e.dirty)
            .unwrap_or(WordMask::EMPTY);
        if let Some(e) = self.tiles[owner.0].l1.get(line) {
            if let L1Meta::Directory { state, .. } = &mut e.meta {
                *state = LineState::Shared;
            }
            e.dirty = WordMask::EMPTY;
        }
        if !dirty.is_empty() {
            self.write_back_l1(owner.tile(), line, dirty, at);
        }
    }

    /// Sends the full-line writeback of an L1 copy of `line` carrying
    /// `dirty` words to the home slice, which absorbs them if it still holds
    /// the line (the victim of an L2 recall is already gone: its words go on
    /// to memory).
    fn write_back_l1(&mut self, from: TileId, line: LineAddr, dirty: WordMask, at: Stamp) {
        let home = self.home_of(line);
        let wb = self
            .net
            .send(from, home, MessageKind::L1Writeback, WORDS_PER_LINE, at);
        self.charge_writeback_data(wb.per_word_hops, dirty.count(), WORDS_PER_LINE, false);
        if let Some(le) = self.tiles[home.0].l2.get(line) {
            le.dirty = le.dirty.union(dirty);
            le.valid = WordMask::FULL;
        }
    }

    /// Retires the store to `addr` into the L1 copy of `core`, which the
    /// transaction has left in `state`, and books it with the profilers.
    pub(super) fn retire_store(&mut self, core: usize, addr: Addr, state: LineState) {
        let w = addr.word_in_line(LINE_BYTES);
        if let Some(e) = self.tiles[core]
            .l1
            .get(LineAddr::containing(addr, LINE_BYTES))
        {
            if let L1Meta::Directory { state: s, .. } = &mut e.meta {
                *s = state;
            }
            e.dirty.insert(w);
            e.valid.insert(w);
        }
        self.l1_prof[core].stored(addr);
        self.mem_prof.stored(addr);
    }

    /// Installs the full line `delivery` brought into an L1, handling the
    /// eviction of the victim.
    pub(super) fn fill_l1(
        &mut self,
        core: usize,
        line: LineAddr,
        region: RegionId,
        state: LineState,
        class: MessageClass,
        delivery: Delivery,
    ) {
        let already = self.tiles[core]
            .l1
            .peek(line)
            .filter(|e| matches!(&e.meta, L1Meta::Directory { state, .. } if state.can_read()))
            .map(|e| e.valid)
            .unwrap_or(WordMask::EMPTY);

        let meta = L1Meta::Directory { state, region };
        let victim = self.tiles[core].l1.insert(line, meta).1;
        if let Some(v) = victim {
            self.evict_l1(core, v, delivery.arrival);
        }
        if let Some(e) = self.tiles[core].l1.get(line) {
            e.meta = L1Meta::Directory { state, region };
            e.valid = WordMask::FULL;
        }
        self.l1_prof[core].arrive_words(
            line.word_addr(WordIdx(0)),
            WordMask::FULL,
            already,
            delivery.per_word_hops,
            class,
        );
    }

    /// Handles the eviction of an L1 line: dirty states (`M`, `Sm`) write
    /// back data, clean ones notify the directory with a control message.
    fn evict_l1(&mut self, core: usize, victim: LineEntry<L1Meta>, at: Stamp) {
        let L1Meta::Directory { state, .. } = victim.meta else {
            return;
        };
        let me = TileId(core);
        let home = self.home_of(victim.line);

        if state.is_dirty() {
            self.write_back_l1(me, victim.line, victim.dirty, at);
        } else if state.can_read() {
            self.net
                .send(me, home, MessageKind::CleanWritebackCtl, 0, at);
        }
        let mut dir = self.dir(home, victim.line);
        dir.record_eviction(CoreId(core));
        self.set_dir(home, victim.line, dir);

        self.l1_prof[core].evicted_words(victim.line.word_addr(WordIdx(0)), victim.valid);
    }

    /// Ensures an L2 entry exists for `line`, evicting (and recalling) a
    /// victim if needed.
    pub(super) fn allocate_l2(
        &mut self,
        home: TileId,
        line: LineAddr,
        dir: Directory,
        valid: WordMask,
        at: Stamp,
    ) {
        if !self.tiles[home.0].l2.contains(line) {
            let victim = self.tiles[home.0].l2.insert(line, L2Meta::Directory(dir)).1;
            if let Some(v) = victim {
                self.evict_l2(home, v, at);
            }
        }
        if let Some(e) = self.tiles[home.0].l2.get(line) {
            e.meta = L2Meta::Directory(dir);
            e.valid = e.valid.union(valid);
        }
    }

    /// Evicts an L2 line: recalls every L1 copy (inclusive hierarchy — the
    /// one place Dragon *does* invalidate) and writes dirty data back to
    /// memory.
    fn evict_l2(&mut self, home: TileId, victim: LineEntry<L2Meta>, at: Stamp) {
        let L2Meta::Directory(dir) = victim.meta else {
            return;
        };
        let mut dirty = victim.dirty;

        for holder in dir.holders() {
            self.net
                .send(home, holder.tile(), MessageKind::Invalidation, 0, at);
            self.net
                .send(holder.tile(), home, MessageKind::InvAck, 0, at + 1);
            if let Some(l1v) = self.tiles[holder.0].l1.remove(victim.line) {
                self.l1_prof[holder.0]
                    .invalidated_words(victim.line.word_addr(WordIdx(0)), l1v.valid);
                if !l1v.dirty.is_empty() {
                    self.write_back_l1(holder.tile(), victim.line, l1v.dirty, at + 1);
                    dirty = dirty.union(l1v.dirty);
                }
            }
        }

        if !dirty.is_empty() {
            let mc = self.mc_of(victim.line);
            let wb = self
                .net
                .send(home, mc, MessageKind::MemWriteback, WORDS_PER_LINE, at + 2);
            self.charge_writeback_data(wb.per_word_hops, dirty.count(), WORDS_PER_LINE, true);
            self.dram_access(mc, victim.line, true, wb.arrival);
        }

        self.l2_prof
            .evicted_words(victim.line.word_addr(WordIdx(0)), victim.valid);
        self.mem_prof
            .evicted_words(victim.line.word_addr(WordIdx(0)), victim.valid);
    }

    /// Per-transaction substrate check (debug builds): after a load or store
    /// to `addr`, the L1s holding the line are exactly the directory's
    /// holders, and a held line has its L2 entry (inclusion).
    #[cfg(debug_assertions)]
    pub(super) fn assert_directory_matches_l1s(&self, addr: Addr) {
        // Skipped under MMemL1: a store miss there allocates the L2 entry
        // with no valid words, so the next core's miss takes the memory path
        // and `allocate_l2` overwrites the directory, dropping the first
        // owner (ROADMAP item 1, defect (iii); the fix moves result bytes).
        if self.protocol().mem_to_l1() {
            return;
        }
        let line = LineAddr::containing(addr, LINE_BYTES);
        let home = self.home_of(line);
        let holding: Vec<CoreId> = (0..self.tiles.len())
            .filter(|&c| self.l1_state(c, line).can_read())
            .map(CoreId)
            .collect();
        let mut recorded = self.dir(home, line).holders();
        recorded.sort_unstable();
        assert_eq!(holding, recorded, "L1 copies vs. directory of {line}");
        assert!(
            holding.is_empty() || self.tiles[home.0].l2.contains(line),
            "{line} is held by an L1 but not by its inclusive L2"
        );
    }
}
