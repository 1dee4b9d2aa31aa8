//! Three directory defects the per-transaction substrate check brought to
//! light, pinned as two-core regressions, and one in how the L2 slices are
//! indexed. Each fix changes which messages a run sends, so it moves result
//! bytes and needs an `ENGINE_VERSION` bump; until then the tests are
//! ignored and must keep *failing* under `--ignored` (ROADMAP item 1 has
//! one paragraph per defect; CI checks that they do). Beside them, two
//! passing tests pin the two policy points the shared read miss
//! (`home.rs::directory_load`) keeps per protocol.

use super::{SimConfig, Simulator};
use tw_mem::CacheGeometry;
use tw_protocols::LineState;
use tw_types::{Addr, LineAddr, ProtocolKind, RegionId, RegionTable, TraceOp, LINE_BYTES};
use tw_workloads::{BenchmarkKind, ScaleProfile, Workload};

const A: u64 = 0x4000;

/// Runs `first` on core 0, then `second` on core 1 (held back by a long
/// compute record), and returns the line state of `A` in both L1s plus the
/// directory's holders, ascending.
fn two_cores(
    protocol: ProtocolKind,
    first: Vec<TraceOp>,
    second: Vec<TraceOp>,
) -> ([LineState; 2], Vec<usize>) {
    let mut traces = vec![Vec::new(); 16];
    traces[0] = first;
    traces[1] = [vec![TraceOp::compute(100_000)], second].concat();
    let wl = Workload {
        kind: BenchmarkKind::Custom,
        input: "two-core directory probe".into(),
        regions: RegionTable::new(),
        traces: traces.into(),
    };
    let mut sim = Simulator::new(SimConfig::new(protocol), &wl);
    sim.run_loop();
    let eng = &sim.engine;
    let line = LineAddr::containing(Addr::new(A), LINE_BYTES);
    let mut holders = eng.dir(eng.home_of(line), line).holders();
    holders.sort_unstable();
    (
        [eng.l1_state(0, line), eng.l1_state(1, line)],
        holders.iter().map(|c| c.0).collect(),
    )
}

fn load(word: u64) -> TraceOp {
    TraceOp::load(Addr::new(A + 4 * word), RegionId(0))
}

fn store(word: u64) -> TraceOp {
    TraceOp::store(Addr::new(A + 4 * word), RegionId(0))
}

/// Core 0 stores, core 1 loads the same line: the read is forwarded to
/// the dirty holder, which under MESI flushes and downgrades.
#[test]
fn mesi_read_downgrades_the_dirty_holder() {
    let probe = two_cores(ProtocolKind::Mesi, vec![store(0)], vec![load(0)]);
    let states = [LineState::Shared, LineState::Shared];
    assert_eq!(probe, (states, vec![0, 1]));
}

/// The same two references under Dragon: the holder supplies the line and
/// keeps its dirty copy, `M` demoted to `Sm`.
#[test]
fn dragon_read_leaves_the_dirty_holder_shared_modified() {
    let probe = two_cores(ProtocolKind::Dragon, vec![store(0)], vec![load(0)]);
    let states = [LineState::SharedModified, LineState::Shared];
    assert_eq!(probe, (states, vec![0, 1]));
}

#[test]
#[ignore = "mesi::record_read files the first reader under `sharers` although the response grants Exclusive, so a second reader is served from the L2; fix needs an ENGINE_VERSION bump"]
fn mesi_second_reader_downgrades_the_exclusive_holder() {
    let (states, _) = two_cores(ProtocolKind::Mesi, vec![load(0), store(0)], vec![load(0)]);
    assert_eq!(
        states,
        [LineState::Shared, LineState::Shared],
        "an E/M copy must be forwarded to and downgraded, not left beside an S copy"
    );
}

#[test]
#[ignore = "the directory never learns of a silently upgraded first reader, so Dragon leaves its M copy unflushed when another core writes; fix needs an ENGINE_VERSION bump"]
fn dragon_write_leaves_one_dirty_copy() {
    let (states, _) = two_cores(
        ProtocolKind::Dragon,
        vec![load(0), store(0)],
        vec![store(1)],
    );
    let dirty = states.iter().filter(|s| s.is_dirty()).count();
    assert_eq!(dirty, 1, "{states:?}: exactly one L1 copy may be dirty");
}

#[test]
#[ignore = "an MMemL1 store miss allocates the L2 entry with no valid words, so the next miss refetches from memory and allocate_l2 overwrites the directory; fix needs an ENGINE_VERSION bump"]
fn mmeml1_directory_keeps_the_first_owner() {
    let (states, holders) = two_cores(ProtocolKind::MMemL1, vec![store(0)], vec![load(0)]);
    let holding: Vec<usize> = (0..2).filter(|&c| states[c].can_read()).collect();
    assert_eq!(holders, holding, "directory holders vs. L1 copies");
}

#[test]
#[ignore = "the home tile and the L2 set both come from the low bits of the line number, so a slice reaches 1/16 of its sets; fix needs an ENGINE_VERSION bump"]
fn every_set_of_an_l2_slice_holds_lines_homed_there() {
    // (scale, fewest sets any slice reaches, sets per slice) over the first
    // million lines.
    let reach = |scale: ScaleProfile| {
        let sys = scale.system();
        let c = &sys.cache;
        let l2 = CacheGeometry::new(c.l2_slice_bytes, c.l2_ways, c.line_bytes);
        let mut reached = vec![vec![false; l2.sets()]; sys.tiles()];
        for line in 0..1_000_000 {
            let byte = line * c.line_bytes;
            let set = l2.set_of(LineAddr::containing(Addr::new(byte), c.line_bytes));
            reached[sys.home_tile(byte).0][set] = true;
        }
        let fewest = reached
            .iter()
            .map(|sets| sets.iter().filter(|&&r| r).count())
            .min()
            .unwrap_or(0);
        (scale, fewest, l2.sets())
    };
    let found: Vec<_> = [
        ScaleProfile::Paper,
        ScaleProfile::Scaled,
        ScaleProfile::Tiny,
    ]
    .map(reach)
    .to_vec();
    let every: Vec<_> = found
        .iter()
        .map(|&(scale, _, sets)| (scale, sets, sets))
        .collect();
    assert_eq!(
        found, every,
        "(scale, sets a slice reaches, sets per slice)"
    );
}
