//! The inclusive-directory substrate of the engine: every home-side step
//! MESI, MMemL1 and Dragon perform identically, whatever a write does to the
//! other copies.
//!
//! The three protocols share their line states and directory entry
//! (`tw_protocols::directory`) and, here, the machinery around them: reading
//! and writing the entry beside an L2 line, serving a line from the slice or
//! fetching it through the slice from memory, flushing a dirty owner, filling
//! and evicting L1 lines, allocating and evicting (recalling) L2 lines. What
//! a read or a write *means* — forward-and-downgrade vs. supply-and-demote,
//! invalidate vs. update — stays in `exec_mesi.rs` / `exec_dragon.rs`, which
//! call down into this file and never the other way round.
//!
//! The order of `net.send` and profiler calls inside each function is part
//! of the behaviour: sends reserve links, so reordering two of them moves
//! result bytes.

use super::engine::{Delivery, Engine};
use crate::machine::{L1Meta, L2Meta};
use crate::timing::TimeClass;
use tw_mem::LineEntry;
use tw_protocols::{Directory, LineState};
use tw_types::{
    Addr, CoreId, LineAddr, MessageClass, MessageKind, RegionId, Stamp, TileId, WordIdx, WordMask,
};

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

    /// Whether the home slice can serve `line` on chip.
    pub(super) fn l2_has_data(&self, home: TileId, line: LineAddr) -> bool {
        self.tiles[home.0]
            .l2
            .peek(line)
            .is_some_and(|e| !e.valid.is_empty())
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
            .loaded_words(line.word_addr(WordIdx(0)), self.line_words_mask());
        self.tiles[home.0].l2.get(line); // refresh LRU
        self.net
            .send(home, me, MessageKind::DataToL1, self.wpl(), at)
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
        let mc = self.mc_of(line);
        let wpl = self.wpl();
        let lw = self.line_words_mask();
        let to_mc = self.net.send(home, mc, MessageKind::MemReadReq, 0, t_home);
        let dram_done = self.dram_access(mc, line, false, to_mc.arrival);
        let d2 = self
            .net
            .send(mc, home, MessageKind::DataToL2, wpl, dram_done);
        self.mem_prof
            .fetched_words(line.word_addr(WordIdx(0)), lw, false, d2.per_word_hops);
        self.l2_prof.arrive_words(
            line.word_addr(WordIdx(0)),
            lw,
            WordMask::EMPTY,
            d2.per_word_hops,
            class,
        );
        let delivery = self.net.send(
            home,
            me,
            MessageKind::DataToL1,
            wpl,
            d2.arrival + slice_delay,
        );
        self.net
            .send(me, home, MessageKind::DirUnblock, 0, delivery.arrival);
        MemFetch {
            at_mc: to_mc.arrival,
            dram_done,
            delivery,
        }
    }

    /// Charges the stall of a load served from memory to `core`, split at
    /// the memory controller and at DRAM completion.
    pub(super) fn charge_memory_stall(&mut self, core: usize, now: Stamp, fetch: &MemFetch) {
        let arrival = fetch.delivery.arrival;
        self.time[core].add(TimeClass::ToMc, fetch.at_mc.since(now));
        self.time[core].add(TimeClass::Mem, fetch.dram_done.since(fetch.at_mc));
        self.time[core].add(TimeClass::FromMc, arrival.since(fetch.dram_done));
    }

    /// Flushes a dirty owner's words to the home L2 because another core is
    /// taking the line over (a read under MESI, a write under Dragon). The
    /// owner keeps a clean `Shared` copy; the L2 absorbs the dirty words, so
    /// exactly one L1 copy is ever dirty.
    pub(super) fn flush_owner(&mut self, owner: CoreId, line: LineAddr, at: Stamp) {
        let home = self.home_of(line);
        let wpl = self.wpl();
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
            let wb = self
                .net
                .send(owner.tile(), home, MessageKind::L1Writeback, wpl, at);
            self.charge_writeback_data(wb.per_word_hops, dirty.count(), wpl, false);
            if let Some(le) = self.tiles[home.0].l2.get(line) {
                le.dirty = le.dirty.union(dirty);
                le.valid = WordMask::FULL;
            }
        }
    }

    /// Retires the store to `addr` into the L1 copy of `core`, which the
    /// transaction has left in `state`, and books it with the profilers.
    pub(super) fn retire_store(&mut self, core: usize, addr: Addr, state: LineState) {
        let lb = self.line_bytes();
        let w = addr.word_in_line(lb);
        if let Some(e) = self.tiles[core].l1.get(LineAddr::containing(addr, lb)) {
            if let L1Meta::Directory { state: s, .. } = &mut e.meta {
                *s = state;
            }
            e.dirty.insert(w);
            e.valid.insert(w);
        }
        self.l1_prof[core].stored(addr);
        self.mem_prof.stored(addr);
    }

    /// Installs a full line into an L1, handling the eviction of the victim.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn fill_l1(
        &mut self,
        core: usize,
        line: LineAddr,
        region: RegionId,
        state: LineState,
        class: MessageClass,
        per_word_hops: f64,
        at: Stamp,
    ) {
        let line_words = self.line_words_mask();
        let already = self.tiles[core]
            .l1
            .peek(line)
            .filter(|e| matches!(&e.meta, L1Meta::Directory { state, .. } if state.can_read()))
            .map(|e| e.valid)
            .unwrap_or(WordMask::EMPTY);

        let meta = L1Meta::Directory { state, region };
        let victim = self.tiles[core].l1.insert(line, meta).1;
        if let Some(v) = victim {
            self.evict_l1(core, v, at);
        }
        if let Some(e) = self.tiles[core].l1.get(line) {
            e.meta = L1Meta::Directory { state, region };
            e.valid = WordMask::FULL;
        }
        self.l1_prof[core].arrive_words(
            line.word_addr(WordIdx(0)),
            line_words,
            already,
            per_word_hops,
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
        let wpl = self.wpl();

        if state.is_dirty() {
            let wb = self.net.send(me, home, MessageKind::L1Writeback, wpl, at);
            self.charge_writeback_data(wb.per_word_hops, victim.dirty.count(), wpl, false);
            if let Some(le) = self.tiles[home.0].l2.get(victim.line) {
                le.dirty = le.dirty.union(victim.dirty);
                le.valid = WordMask::FULL;
            }
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
        let wpl = self.wpl();
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
                    let wb =
                        self.net
                            .send(holder.tile(), home, MessageKind::L1Writeback, wpl, at + 1);
                    self.charge_writeback_data(wb.per_word_hops, l1v.dirty.count(), wpl, false);
                    dirty = dirty.union(l1v.dirty);
                }
            }
        }

        if !dirty.is_empty() {
            let mc = self.mc_of(victim.line);
            let wb = self
                .net
                .send(home, mc, MessageKind::MemWriteback, wpl, at + 2);
            self.charge_writeback_data(wb.per_word_hops, dirty.count(), wpl, true);
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
        // owner (ROADMAP item 4, defect (iii); the fix moves result bytes).
        if self.protocol().mem_to_l1() {
            return;
        }
        let line = LineAddr::containing(addr, self.line_bytes());
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
