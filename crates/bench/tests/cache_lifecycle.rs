//! Cache-lifecycle properties: single-flight deduplication, temp-file
//! hygiene on the store error path, startup sweeps, and the two-process
//! shared-cache race.
//!
//! These are the concurrency bugs the daemon made real: duplicate-key cells
//! simulating twice, `*.tmp-*` orphans accumulating under a long-lived
//! cache directory, and two writers racing on one entry.

use denovo_waste::{
    sweep_temp_files, ExperimentSpec, ScaleProfile, Session, SystemVariant, WorkloadSet,
    WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::time::Duration;
use tw_scenarios::synthesize;
use tw_types::{ProtocolKind, TraceOp};

/// A fresh per-test scratch directory under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tw-cache-lifecycle-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spec whose two provided workloads are the *same* synthesized content
/// under two names — two rows, one content digest, one cache key per
/// protocol.
fn duplicate_key_fixture() -> (ExperimentSpec, WorkloadSet) {
    let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
    spec.name = "dup-key".into();
    spec.workloads = vec![
        WorkloadSpec::provided("twin-a"),
        WorkloadSpec::provided("twin-b"),
    ];
    let wl = synthesize(7);
    let mut set = WorkloadSet::new();
    set.insert("twin-a", wl.clone());
    set.insert("twin-b", wl);
    (spec, set)
}

fn temp_files_in(dir: &Path) -> Vec<String> {
    match std::fs::read_dir(dir) {
        Err(_) => Vec::new(),
        Ok(entries) => entries
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect(),
    }
}

#[test]
fn duplicate_key_cells_simulate_exactly_once() {
    let (spec, set) = duplicate_key_fixture();
    let plan = spec.compile(&set).unwrap();
    assert_eq!(plan.cells.len(), 2);
    let session = Session::new();
    assert_eq!(
        session.key_of(&plan.cells[0]),
        session.key_of(&plan.cells[1]),
        "fixture must produce one shared cache key"
    );

    // Cache-less session: the first cell of the group simulates, the other
    // is handed its report.
    let out = session.execute(&plan).unwrap();
    assert_eq!(
        (out.cache.hits, out.cache.misses, out.cache.coalesced),
        (0, 1, 1),
        "one leader simulates, the duplicate coalesces"
    );
    let reports: Vec<_> = out.reports.values().collect();
    assert_eq!(
        reports[0], reports[1],
        "both rows share the leader's report"
    );
}

#[test]
fn duplicate_key_cells_through_a_cache_dir_store_once_and_hit_twice_warm() {
    // The plan groups its cells by key before anything runs, so how a
    // duplicate is counted does not depend on whether it would have
    // overlapped its twin: the same triple, twenty times out of twenty.
    let (spec, set) = duplicate_key_fixture();
    for round in 0..20 {
        let dir = fresh_dir("dup-key-cached");
        // A fresh session (empty flight table) per run.
        let run = || {
            let out = Session::new().with_cache_dir(&dir).run(&spec, &set);
            let cache = out.as_ref().unwrap().cache;
            (
                (cache.hits, cache.misses, cache.coalesced),
                out.unwrap().reports,
            )
        };

        // Cold: the first twin simulates and stores, the second is served
        // by it from memory. One key -> one entry file, no leftovers.
        let (counts, cold) = run();
        assert_eq!(counts, (0, 1, 1), "cold, round {round}");
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(entries.len(), 1, "one shared key stores one entry");
        assert!(temp_files_in(&dir).is_empty());

        // Warm: the first twin reads the entry and the second is served
        // what it read — both came from the disk.
        let (counts, warm) = run();
        assert_eq!(counts, (2, 0, 0), "warm, round {round}");
        assert_eq!(warm, cold, "bit-identical across the store");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn racing_duplicate_key_cells_through_a_cache_dir_simulate_once_every_round() {
    // Two threads of one session execute the same cell at once. The loser
    // must never simulate: it either waits on the leader's slot or, arriving
    // after the slot was dropped, leads a fresh one and finds the entry on
    // disk. The window this closes (a probe that missed *before* the slot
    // was taken, then a vacant slot) needed the duplicate to be descheduled
    // for the leader's whole simulate-and-store, so the test cannot be made
    // to fail on demand: 200 rounds of a sub-millisecond cell (0.3 s in
    // all) failed against the old order in 3 of 30 runs beside one other
    // CPU-bound test on two cores, and in 0 of 30 run alone.
    let (mut spec, set) = duplicate_key_fixture();
    spec.workloads.truncate(1);
    let plan = spec.compile(&set).unwrap();
    for round in 0..200 {
        let dir = fresh_dir("dup-key-race");
        let session = Session::new().with_cache_dir(&dir);
        let start = std::sync::Barrier::new(2);
        let run = || {
            start.wait();
            session.execute(&plan).unwrap().cache
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(run);
            (run(), other.join().unwrap())
        });
        assert_eq!(a.misses + b.misses, 1, "round {round}: {a:?} {b:?}");
        assert_eq!(a.total() + b.total(), 2);
        assert_eq!(session.counters().flight_slots, 0, "round {round}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failed_store_cleans_up_its_temp_file() {
    let dir = fresh_dir("store-failure");
    let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
    spec.workloads = vec![WorkloadSpec::provided("synth")];
    let mut set = WorkloadSet::new();
    set.insert("synth", synthesize(3));
    let plan = spec.compile(&set).unwrap();
    let session = Session::new().with_cache_dir(&dir);

    // Sabotage the commit: a *directory* squatting on the entry path makes
    // the temp-file write succeed and the rename fail.
    std::fs::create_dir_all(&dir).unwrap();
    let entry_path = dir.join(format!("{}.json", session.key_of(&plan.cells[0])));
    std::fs::create_dir(&entry_path).unwrap();

    let err = session.execute(&plan).unwrap_err().to_string();
    assert!(err.contains("cannot commit"), "{err}");
    assert_eq!(
        temp_files_in(&dir),
        Vec::<String>::new(),
        "the failed store must remove its temp file"
    );

    // Unblock the path: the same session recovers on the next execute. The
    // failed store left no slot behind in the flight table, so the cell is
    // simulated again and this time reaches the disk.
    std::fs::remove_dir(&entry_path).unwrap();
    assert_eq!(session.counters().flight_slots, 0);
    assert_eq!(session.execute(&plan).unwrap().cache.misses, 1);
    assert!(entry_path.is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One Tiny FFT x MESI cell whose L2 slice size makes its cache key novel.
fn novel_spec(l2_kib: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi],
        vec![tw_workloads::BenchmarkKind::Fft],
        ScaleProfile::Tiny,
    );
    spec.variants = vec![SystemVariant::l2_slice(
        format!("l2-{l2_kib}k"),
        l2_kib * 1024,
    )];
    spec
}

#[test]
fn the_flight_table_holds_nothing_once_entries_are_on_disk() {
    let dir = fresh_dir("flight-table");
    let none = WorkloadSet::new();
    let cached = Session::new().with_cache_dir(&dir);
    let uncached = Session::new();
    for (i, l2_kib) in [8, 16, 32, 64].into_iter().enumerate() {
        let spec = novel_spec(l2_kib);
        assert_eq!(cached.run(&spec, &none).unwrap().cache.misses, 1);
        assert_eq!(cached.counters().flight_slots, 0);
        // Without a cache directory the table is the only result cache, so
        // every completed slot stays.
        assert_eq!(uncached.run(&spec, &none).unwrap().cache.misses, 1);
        assert_eq!(uncached.counters().flight_slots, i as u64 + 1);
    }
    // Served again: from the disk and from the table.
    let again = novel_spec(8);
    assert_eq!(cached.run(&again, &none).unwrap().cache.hits, 1);
    assert_eq!(uncached.run(&again, &none).unwrap().cache.coalesced, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_removes_only_stale_temp_files() {
    let dir = fresh_dir("sweep");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("entry.json"), b"{}").unwrap();
    std::fs::write(dir.join("orphan.tmp-1234-aaaa"), b"partial").unwrap();
    std::fs::write(dir.join("orphan2.tmp-99-bb"), b"partial").unwrap();

    // Age 0 sweeps unconditionally; real entries are untouched.
    assert_eq!(sweep_temp_files(&dir, Duration::ZERO).unwrap(), 2);
    assert!(dir.join("entry.json").exists());
    assert!(temp_files_in(&dir).is_empty());

    // A fresh temp file survives an aged sweep (it could be a live
    // concurrent writer's).
    std::fs::write(dir.join("live.tmp-1-cc"), b"in flight").unwrap();
    assert_eq!(
        sweep_temp_files(&dir, Duration::from_secs(15 * 60)).unwrap(),
        0
    );
    assert!(dir.join("live.tmp-1-cc").exists());

    // A missing directory is 0 removed, not an error.
    assert_eq!(
        sweep_temp_files(&fresh_dir("sweep-nonexistent"), Duration::ZERO).unwrap(),
        0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_startup_sweeps_aged_orphans() {
    let dir = fresh_dir("auto-sweep");
    std::fs::create_dir_all(&dir).unwrap();
    let orphan = dir.join("crashed.tmp-42-dead");
    std::fs::write(&orphan, b"from a crashed writer").unwrap();
    // Age the orphan past TEMP_SWEEP_AGE (15 min).
    let old = std::time::SystemTime::now() - Duration::from_secs(16 * 60);
    std::fs::File::options()
        .write(true)
        .open(&orphan)
        .unwrap()
        .set_modified(old)
        .unwrap();
    let fresh = dir.join("live.tmp-43-beef");
    std::fs::write(&fresh, b"live writer").unwrap();

    let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
    spec.workloads = vec![WorkloadSpec::provided("synth")];
    let mut set = WorkloadSet::new();
    set.insert("synth", synthesize(11));
    Session::new()
        .with_cache_dir(&dir)
        .run(&spec, &set)
        .unwrap();

    assert!(!orphan.exists(), "first execute must sweep aged orphans");
    assert!(
        fresh.exists(),
        "fresh temp files must survive the auto-sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Two processes, one cache directory.
// ---------------------------------------------------------------------------

/// Extracts `"field": N` from a stats JSON document (the document holds
/// floats, so the experiment-layer parser deliberately rejects it; the
/// integer counters are greppable).
fn stat_u64(text: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\": ");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("{field} in {text}"));
    text[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn two_processes_racing_on_one_cache_dir_agree_bitwise() {
    let scratch = fresh_dir("two-proc");
    std::fs::create_dir_all(&scratch).unwrap();
    let cache = scratch.join("shared-cache");
    let spec_path = scratch.join("spec.json");
    // A small-but-real plan: 2 protocols x 2 benches at tiny scale.
    let spec = ExperimentSpec::subset(
        vec![ProtocolKind::Mesi, ProtocolKind::DBypFull],
        vec![
            tw_workloads::BenchmarkKind::Fft,
            tw_workloads::BenchmarkKind::Radix,
        ],
        ScaleProfile::Tiny,
    );
    std::fs::write(&spec_path, spec.to_json()).unwrap();

    let run = |tag: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .current_dir(&scratch)
            .args([
                "plan",
                "run",
                "spec.json",
                "--cache",
                "shared-cache",
                "--json",
                &format!("figures-{tag}.json"),
                "--stats",
                &format!("stats-{tag}.json"),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap()
    };

    // Both processes start cold on the same directory and race every key.
    let mut a = run("a");
    let mut b = run("b");
    assert!(a.wait().unwrap().success());
    assert!(b.wait().unwrap().success());

    // Bit-identical figure documents.
    let fig_a = std::fs::read(scratch.join("figures-a.json")).unwrap();
    let fig_b = std::fs::read(scratch.join("figures-b.json")).unwrap();
    assert!(!fig_a.is_empty());
    assert_eq!(fig_a, fig_b, "racing processes must agree bitwise");

    // No torn or leftover temp entries.
    assert_eq!(temp_files_in(&cache), Vec::<String>::new());

    // Stats account for the race: each process accounts all 4 of its cells,
    // and every key was simulated by at least one process (a process that
    // lost every race would be 4 hits / 0 misses — legal).
    let stats_a = std::fs::read_to_string(scratch.join("stats-a.json")).unwrap();
    let stats_b = std::fs::read_to_string(scratch.join("stats-b.json")).unwrap();
    for stats in [&stats_a, &stats_b] {
        assert_eq!(stat_u64(stats, "cells"), 4);
        assert_eq!(
            stat_u64(stats, "hits") + stat_u64(stats, "misses") + stat_u64(stats, "coalesced"),
            4
        );
    }
    assert!(
        stat_u64(&stats_a, "misses") + stat_u64(&stats_b, "misses") >= 4,
        "every key must have been simulated by at least one process"
    );

    // The surviving entries are not torn: a third (warm) run is 100% hits.
    let warm = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(&scratch)
        .args([
            "plan",
            "run",
            "spec.json",
            "--cache",
            "shared-cache",
            "--stats",
            "stats-warm.json",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(warm.success());
    let stats_warm = std::fs::read_to_string(scratch.join("stats-warm.json")).unwrap();
    assert_eq!(stat_u64(&stats_warm, "hits"), 4);
    assert_eq!(stat_u64(&stats_warm, "misses"), 0);

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn the_cli_cache_line_accounts_for_every_cell() {
    let scratch = fresh_dir("cache-line");
    std::fs::create_dir_all(&scratch).unwrap();
    let cli = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .current_dir(&scratch)
            .args(args)
            .output()
            .unwrap();
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    // Two workloads replaying one trace file: four cells, two cache keys.
    cli(&["trace", "record", "fft.trace", "--tiny", "--bench", "FFT"]);
    let spec = r#"{"schema":"denovo-waste/experiment-spec/v1","name":"dup","scale":"tiny","baseline":"MESI","protocols":["MESI","DeNovo"],"workloads":[{"trace":"fft.trace","name":"a"},{"trace":"fft.trace","name":"b"}]}"#;
    std::fs::write(scratch.join("spec.json"), spec).unwrap();

    let uncached: &[&str] = &["plan", "run", "spec.json"];
    let cold: &[&str] = &["plan", "run", "spec.json", "--cache", "c"];
    for args in [uncached, cold] {
        let stdout = cli(args);
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("cache: "))
            .expect("plan run prints the cache line");
        let counts: Vec<u64> = line
            .split(" / ")
            .map(|part| part.split(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), 3, "hits, misses and coalesced: {line}");
        assert_eq!(counts.iter().sum::<u64>(), 4, "{line}");
        assert_eq!(counts, [0, 2, 2], "one simulation per distinct key: {line}");
    }
    // `plan show` says which cells those are, before anything runs.
    let shown = cli(&["plan", "show", "spec.json"]);
    let cells: Vec<Vec<&str>> = shown
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(cells.len(), 4, "{shown}");
    assert_eq!(cells[0][..3], ["a", "MESI", "workload"]);
    assert_eq!(cells[2][..4], ["b", "MESI", "=", "a/MESI"]);
    assert_eq!(cells[3][..4], ["b", "DeNovo", "=", "a/DeNovo"]);
    assert_eq!(cells[0].last(), cells[2].last(), "one key");
    assert_eq!(shown.lines().last(), Some("4 cells, 2 distinct, 2 runs"));
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn a_run_that_fails_or_panics_leaves_no_flight_slot() {
    let dir = fresh_dir("failed-run");
    let session = Session::new().with_cache_dir(&dir);

    // Refused: `compile` rejects an empty L1, a plan edited by hand is
    // refused when its run builds the simulator.
    let mut refused = novel_spec(8).compile(&WorkloadSet::new()).unwrap();
    refused.cells[0].system.cache.l1_bytes = 0;
    assert!(session.execute(&refused).is_err());
    assert_eq!(session.counters().flight_slots, 0, "after an Err");

    // Panicking: two cores that wait at different barriers stop the
    // simulator with a panic, which `execute` resumes.
    let mut spec = ExperimentSpec::subset(vec![ProtocolKind::Mesi], vec![], ScaleProfile::Tiny);
    spec.workloads = vec![WorkloadSpec::provided("split-barrier")];
    let mut workload = synthesize(5);
    workload.traces[0].insert(0, TraceOp::barrier(u32::MAX));
    workload.traces[1].insert(0, TraceOp::barrier(u32::MAX - 1));
    let mut set = WorkloadSet::new();
    set.insert("split-barrier", workload);
    let plan = spec.compile(&set).unwrap();
    let panicked =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.execute(&plan)));
    assert!(panicked.is_err());
    assert_eq!(session.counters().flight_slots, 0, "after a panic");
    let _ = std::fs::remove_dir_all(&dir);
}
