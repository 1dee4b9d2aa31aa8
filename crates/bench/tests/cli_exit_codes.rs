//! Pins the `experiments` exit-code contract (see the bin's module docs and
//! `experiments help`): 0 = success, 1 = a check failed, 2 = invalid or
//! failed request. Daemon clients and CI scripts branch on these.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tw-exit-codes-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &PathBuf, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().expect("not signal-killed"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_exits_zero_and_documents_the_contract() {
    let dir = scratch("help");
    for args in [&["help"][..], &["--help"][..]] {
        let (code, stdout, _) = run_in(&dir, args);
        assert_eq!(code, 0, "{args:?}");
        assert!(stdout.contains("exit codes"), "{args:?} must document them");
        assert!(stdout.contains("serve --socket"), "daemon commands listed");
    }
    // `--help` after any command path prints that command's usage line —
    // naming every flag it takes — and exits 0, whatever the command would
    // otherwise require (`serve` needs `--socket`, `plan show` an operand).
    let per_command: &[(&str, &str)] = &[
        ("plan builtin", "--network --tiny|--scaled|--paper"),
        ("plan show", "<spec.json>"),
        ("plan run", "<spec.json> --cache --json --stats --record"),
        ("profile", "<spec.json> --cache --top --trace --counts"),
        ("profile diff", "<a.jsonl> <b.jsonl>"),
        ("trace record", "--bench --text --tiny"),
        ("trace replay", "--protocol --tiny"),
        ("trace info", "<in.trace>"),
        ("trace diff", "<a.trace> <b.trace>"),
        ("trace roundtrip", "--bench --protocol --tiny"),
        (
            "fuzz",
            "--seeds --start --streaming-every --network --record --self-test --tiny",
        ),
        ("workloads", "--write --check"),
        ("serve", "--socket --cache --no-cache --record"),
        ("submit", "<spec.json> --socket --json"),
        ("stats", "--socket"),
        ("metrics", "--socket"),
        ("shutdown", "--socket"),
    ];
    for (path, named) in per_command {
        for help in ["--help", "-h"] {
            let args: Vec<&str> = path.split(' ').chain([help]).collect();
            let (code, stdout, stderr) = run_in(&dir, &args);
            assert_eq!(code, 0, "{args:?} must exit 0; stderr:\n{stderr}");
            assert!(stdout.contains(path), "{args:?}: {stdout}");
            for name in named.split(' ') {
                assert!(stdout.contains(name), "{args:?} must name {name}: {stdout}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_requests_exit_two() {
    let dir = scratch("invalid");
    let cases: &[&[&str]] = &[
        // Unknown flag / figure on the figure runner (checked before any
        // simulation, so these are instant).
        &["--bogus"],
        &["fig9_9"],
        // Plan-layer errors.
        &["plan", "run", "no-such-spec.json"],
        &["plan", "frobnicate"],
        // Trace-layer errors: unreadable input, unknown flag.
        &["trace", "info", "no-such.trace"],
        &["trace", "record", "out.trace", "--bogus"],
        // Fuzz misuse: a vacuous sweep is rejected up front.
        &["fuzz", "--seeds", "0"],
        // Profile misuse: unreadable spec, missing operands.
        &["profile", "no-such-spec.json"],
        &["profile", "diff", "only-one.jsonl"],
        &["profile", "diff", "missing-a.jsonl", "missing-b.jsonl"],
        // Daemon client without a daemon.
        &["stats", "--socket", "no-such.sock"],
        &["submit", "no-such-spec.json", "--socket", "no-such.sock"],
        &["shutdown", "--socket", "no-such.sock"],
        &["serve"], // --socket is required
        // A removed command reaches the figure runner, which refuses it.
        &["loadgen", "--socket", "x"],
        // A repeated flag is refused, not resolved to the last value.
        &["fuzz", "--seeds", "1", "--seeds", "2", "--tiny"],
    ];
    for args in cases {
        let (code, _, stderr) = run_in(&dir, args);
        assert_eq!(code, 2, "{args:?} must exit 2; stderr:\n{stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?} must explain itself");
    }
    // Two different scale flags are refused by every command that takes
    // them, naming both — never resolved to whichever profile a parser
    // happens to prefer (`all --tiny --paper` used to start the Paper
    // matrix). The rows after them pin what the one grammar says about a
    // value that looks like a flag, a repeated flag and a surplus operand.
    let conflicts: &[(&[&str], [&str; 2])] = &[
        (&["all", "--tiny", "--paper"], ["--tiny", "--paper"]),
        (
            &["plan", "builtin", "--tiny", "--scaled"],
            ["--tiny", "--scaled"],
        ),
        (
            &["trace", "roundtrip", "--paper", "--tiny"],
            ["--paper", "--tiny"],
        ),
        (
            &["fuzz", "--seeds", "1", "--tiny", "--paper"],
            ["--tiny", "--paper"],
        ),
        (
            &["fuzz", "--seeds", "1", "--tiny", "--record", "--tiny"],
            ["`--record`", "needs a value"],
        ),
        (
            &["--cache", "a", "--cache", "b", "--tiny"],
            ["`--cache`", "more than once"],
        ),
        (
            &["plan", "builtin", "extra"],
            ["unexpected operand", "`extra`"],
        ),
    ];
    for (args, flags) in conflicts {
        let (code, _, stderr) = run_in(&dir, args);
        assert_eq!(code, 2, "{args:?} must exit 2; stderr:\n{stderr}");
        for flag in flags {
            assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        }
        assert!(!stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
    // `--record --tiny` used to run the sweep and write a trace file
    // literally named `--tiny`.
    assert!(!dir.join("--tiny").exists(), "no file named --tiny");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn specs_no_machine_can_run_exit_two_and_name_the_culprit() {
    // Each of these used to pass `validate` and then panic inside the run
    // (exit 101): a cache of no sets, a line the profilers cannot chunk, a
    // core count a generator's input does not split among.
    let dir = scratch("unrunnable");
    let probes: &[(&str, &[&str])] = &[
        (
            r#"{"label":"no-l1","l1_bytes":0}"#,
            &["`no-l1`", "non-zero"],
        ),
        (
            r#"{"label":"no-l2","l2_slice_bytes":0}"#,
            &["`no-l2`", "non-zero"],
        ),
        (
            r#"{"label":"half-line","line_bytes":32}"#,
            &["`half-line`", "`line_bytes`"],
        ),
        (
            r#"{"label":"nine","mesh":[3,3]}"#,
            &["FFT", "among 9 cores"],
        ),
        (
            r#"{"label":"ten","mesh":[5,2],"network":"bus"}"#,
            &["FFT", "among 10 cores"],
        ),
    ];
    for (variant, named) in probes {
        let spec = format!(
            r#"{{"schema":"denovo-waste/experiment-spec/v1","name":"probe","scale":"tiny","baseline":"MESI","protocols":["MESI"],"workloads":[{{"bench":"FFT"}}],"variants":[{variant}]}}"#
        );
        std::fs::write(dir.join("probe.json"), spec).unwrap();
        let (code, _, stderr) = run_in(&dir, &["plan", "run", "probe.json"]);
        assert_eq!(code, 2, "{variant} must exit 2; stderr:\n{stderr}");
        assert!(stderr.contains("error:"), "{variant}: {stderr}");
        for name in *named {
            assert!(
                stderr.contains(name),
                "{variant} must name {name}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trace_record_beyond_48_bits_is_a_bad_request() {
    let dir = scratch("wide-address");
    // One core, no regions, one load at 2^48: a zigzag delta of 2^49.
    let mut bytes = b"DNVT\x01\x06custom\x01x\x01\x00\x00".to_vec();
    bytes.extend([0x80; 7]);
    bytes.extend([0x01, 0x00, 0xFF]);
    std::fs::write(dir.join("wide.trace"), bytes).unwrap();
    let spec = r#"{"schema":"denovo-waste/experiment-spec/v1","name":"wide","scale":"tiny","baseline":"MESI","protocols":["MESI"],"workloads":[{"trace":"wide.trace"}]}"#;
    std::fs::write(dir.join("wide.json"), spec).unwrap();
    for args in [
        &["trace", "info", "wide.trace"][..],
        &["plan", "run", "wide.json"],
    ] {
        let (code, _, stderr) = run_in(&dir, args);
        assert_eq!(code, 2, "{args:?} must exit 2; stderr:\n{stderr}");
        assert!(
            stderr.contains("core 0 record 0: address 0x1000000000000"),
            "{args:?} must name the record: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_record_writes_the_generated_workload_and_takes_no_protocol() {
    let dir = scratch("trace-record");
    let tiny = denovo_waste::ScaleProfile::Tiny;
    let doc = tiny
        .try_workload(tw_workloads::BenchmarkKind::Fft, 16)
        .unwrap()
        .to_trace();
    let binary = doc.to_binary_bytes().unwrap();
    for (extra, expected) in [(None, binary), (Some("--text"), doc.to_text().into_bytes())] {
        let mut args = vec!["trace", "record", "out.trace", "--tiny", "--bench", "FFT"];
        args.extend(extra);
        let (code, _, stderr) = run_in(&dir, &args);
        assert_eq!(code, 0, "{args:?}: {stderr}");
        let written = std::fs::read(dir.join("out.trace")).unwrap();
        assert!(
            written == expected,
            "{args:?} must write the workload's trace"
        );
    }
    // Nothing is simulated, so there is no protocol to choose.
    let (code, _, stderr) = run_in(
        &dir,
        &["trace", "record", "m.trace", "--tiny", "--protocol", "MESI"],
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("`--protocol`"), "{stderr}");
    assert!(!dir.join("m.trace").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_diff_separates_check_failure_from_bad_request() {
    let dir = scratch("trace-diff");
    // Two identical recordings: the recorder is deterministic, so diff
    // passes (exit 0); a recording of a different benchmark diverges
    // (exit 1, the check-failed code, distinct from the bad-request 2).
    let (code, _, stderr) = run_in(
        &dir,
        &["trace", "record", "a.trace", "--tiny", "--bench", "FFT"],
    );
    assert_eq!(code, 0, "{stderr}");
    let (code, _, stderr) = run_in(
        &dir,
        &["trace", "record", "b.trace", "--tiny", "--bench", "FFT"],
    );
    assert_eq!(code, 0, "{stderr}");
    let (code, _, stderr) = run_in(
        &dir,
        &["trace", "record", "c.trace", "--tiny", "--bench", "LU"],
    );
    assert_eq!(code, 0, "{stderr}");

    // `trace info` prints the full content digest, the workload half of a
    // cache key: a recording keys like the workload it wrote, and like a
    // re-recording of it.
    let digest_of = |trace: &str| {
        let (code, stdout, stderr) = run_in(&dir, &["trace", "info", trace]);
        assert_eq!(code, 0, "{stderr}");
        let line = stdout.lines().find_map(|l| l.strip_prefix("digest:"));
        line.unwrap_or_else(|| panic!("no digest line: {stdout}"))
            .trim()
            .to_string()
    };
    let tiny = denovo_waste::ScaleProfile::Tiny;
    let fft = tiny
        .try_workload(tw_workloads::BenchmarkKind::Fft, tiny.system().tiles())
        .unwrap();
    assert_eq!(
        digest_of("a.trace"),
        fft.content_digest().unwrap().to_string()
    );
    assert_eq!(digest_of("b.trace"), digest_of("a.trace"));
    assert_ne!(digest_of("c.trace"), digest_of("a.trace"));

    let (code, stdout, _) = run_in(&dir, &["trace", "diff", "a.trace", "b.trace"]);
    assert_eq!(code, 0, "identical traces: {stdout}");
    let (code, stdout, _) = run_in(&dir, &["trace", "diff", "a.trace", "c.trace"]);
    assert_eq!(code, 1, "diverging traces are a failed check: {stdout}");
    let (code, _, _) = run_in(&dir, &["trace", "diff", "a.trace", "missing.trace"]);
    assert_eq!(
        code, 2,
        "an unreadable operand is a bad request, not a diff"
    );
    // A flag the command never reads is refused by name, not swallowed.
    let unread: &[(&[&str], &str)] = &[
        (&["trace", "info", "a.trace", "--text"], "`--text`"),
        (
            &["trace", "diff", "a.trace", "a.trace", "--bench", "LU"],
            "`--bench`",
        ),
    ];
    for (args, flag) in unread {
        let (code, _, stderr) = run_in(&dir, args);
        assert_eq!(code, 2, "{args:?} must exit 2; stderr:\n{stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_separates_check_failure_from_bad_request() {
    let dir = scratch("profile");
    // A 2-cell tiny spec keeps the two profiled runs fast.
    std::fs::write(
        dir.join("spec.json"),
        denovo_waste::ExperimentSpec::subset(
            vec![
                tw_types::ProtocolKind::Mesi,
                tw_types::ProtocolKind::DBypFull,
            ],
            vec![tw_workloads::BenchmarkKind::Fft],
            denovo_waste::ScaleProfile::Tiny,
        )
        .to_json(),
    )
    .unwrap();

    // Profile run: exit 0, hot-spot report on stdout, trace written.
    let (code, stdout, stderr) = run_in(
        &dir,
        &["profile", "spec.json", "--top", "5", "--trace", "a.jsonl"],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("hottest cells"), "{stdout}");
    assert!(stdout.contains("cells/sec"), "{stdout}");
    let (code, _, stderr) = run_in(&dir, &["profile", "spec.json", "--trace", "b.jsonl"]);
    assert_eq!(code, 0, "{stderr}");

    // Identical runs diff clean modulo timing (exit 0).
    let (code, stdout, _) = run_in(&dir, &["profile", "diff", "a.jsonl", "b.jsonl"]);
    assert_eq!(code, 0, "identical modulo timing: {stdout}");

    // A genuinely different trace is a failed check (exit 1, not 2).
    let divergent = std::fs::read_to_string(dir.join("a.jsonl"))
        .unwrap()
        .replace("\"protocol\":\"MESI\"", "\"protocol\":\"XESI\"");
    std::fs::write(dir.join("c.jsonl"), divergent).unwrap();
    let (code, stdout, _) = run_in(&dir, &["profile", "diff", "a.jsonl", "c.jsonl"]);
    assert_eq!(code, 1, "diverging traces are a failed check: {stdout}");

    // A truncated trace is a bad request (exit 2) with the named error.
    let full = std::fs::read_to_string(dir.join("a.jsonl")).unwrap();
    let truncated: String = full.lines().take(3).map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("trunc.jsonl"), truncated).unwrap();
    let (code, _, stderr) = run_in(&dir, &["profile", "diff", "a.jsonl", "trunc.jsonl"]);
    assert_eq!(code, 2, "a truncated trace is a bad request: {stderr}");
    assert!(stderr.contains("truncated"), "names the failure: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workloads_check_separates_a_stale_table_from_a_bad_request() {
    let dir = scratch("workloads");
    let (code, _, stderr) = run_in(&dir, &["workloads", "--check"]);
    assert_eq!(code, 2, "no WORKLOADS.digests here: {stderr}");
    assert!(stderr.contains("cannot read WORKLOADS.digests"), "{stderr}");
    let (code, _, stderr) = run_in(&dir, &["workloads", "--write", "--check"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("usage: experiments workloads"), "{stderr}");

    // What `--write` records is the committed file, and `--check` passes on
    // it until a line is edited by hand.
    let (code, _, stderr) = run_in(&dir, &["workloads", "--write"]);
    assert_eq!(code, 0, "{stderr}");
    let path = dir.join("WORKLOADS.digests");
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, include_str!("../../../WORKLOADS.digests"));
    let line = written
        .lines()
        .find(|l| l.starts_with("tiny LU 16 "))
        .unwrap();
    let edited = format!("{}1", &line[..line.len() - 1]);
    std::fs::write(&path, written.replace(line, &edited)).unwrap();
    let (code, _, stderr) = run_in(&dir, &["workloads", "--check"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains("WORKLOADS.digests is stale: line 3 is `tiny LU 16 "),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_replay_runs_one_plan_and_refuses_what_it_cannot_run() {
    let dir = scratch("trace-replay");
    let record = ["trace", "record", "fft.trace", "--tiny", "--bench", "FFT"];
    let (code, _, stderr) = run_in(&dir, &record);
    assert_eq!(code, 0, "{stderr}");
    // `--protocol` narrows the protocol axis; the line it prints is the one
    // the all-ten replay prints for that protocol.
    let (code, all, stderr) = run_in(&dir, &["trace", "replay", "fft.trace", "--tiny"]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(
        all.lines().count(),
        11,
        "a header and ten protocols:\n{all}"
    );
    let replay_mesi = [
        "trace",
        "replay",
        "fft.trace",
        "--tiny",
        "--protocol",
        "MESI",
    ];
    let (code, one, stderr) = run_in(&dir, &replay_mesi);
    assert_eq!(code, 0, "{stderr}");
    let mesi = |out: &str| -> Vec<String> {
        let lines = out.lines().filter(|l| l.starts_with("MESI "));
        lines.map(String::from).collect()
    };
    assert_eq!(mesi(&one).len(), 1, "{one}");
    assert_eq!(mesi(&one), mesi(&all));
    assert_eq!(one.lines().next(), all.lines().next(), "the same header");
    assert_eq!(one.lines().count(), 2, "{one}");

    // A hand-written two-core trace on the 16-tile Tiny system: compile
    // refuses it, naming both core counts.
    let two_cores = "denovo-waste-trace v1\nbench custom\ninput two cores\ncores 2\n\
        region 1 \"flag\" base=0x0 bytes=4096 wip=1 bypass=none\n\
        core 0\n  ST 0x0 R1\n  B 0\nend\ncore 1\n  B 0\n  LD 0x0 R1\nend\n";
    std::fs::write(dir.join("two.trace"), two_cores).unwrap();
    let (code, _, stderr) = run_in(&dir, &["trace", "replay", "two.trace", "--tiny"]);
    assert_eq!(code, 2, "{stderr}");
    for count in ["2 cores", "16 tiles"] {
        assert!(stderr.contains(count), "must name {count}: {stderr}");
    }

    let (code, _, stderr) = run_in(&dir, &["trace", "replay", "no-such.trace", "--tiny"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("cannot read no-such.trace"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figupdate_alone_simulates_no_matrix() {
    let dir = scratch("figupdate");
    let (code, stdout, stderr) = run_in(&dir, &["figupdate", "--tiny"]);
    assert_eq!(code, 0, "{stderr}");
    // A title line, a column line, then one row per sharing primitive.
    let rows = stdout.lines().skip(2).take_while(|l| !l.is_empty());
    assert_eq!(rows.count(), 7, "{stdout}");
    assert!(stderr.contains("plan `tiny-update`"), "{stderr}");
    assert!(!stderr.contains("tiny-matrix"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `trace info` prints the digest a plan keys the trace's workload on,
/// whatever case or name its header gives the benchmark: its first eight
/// hex digits are the `name#xxxxxxxx` handle `plan show` prints. A trace
/// that does not replay still gets its header, regions and per-core counts,
/// and a digest line saying no plan keys on it.
#[test]
fn trace_info_prints_the_digest_plan_show_keys_on() {
    let dir = scratch("trace-info-digest");
    let tiny = denovo_waste::ScaleProfile::Tiny;
    let fft = tiny
        .try_workload(tw_workloads::BenchmarkKind::Fft, tiny.system().tiles())
        .unwrap();
    let spec = r#"{"schema":"denovo-waste/experiment-spec/v1","name":"h","scale":"tiny","baseline":"MESI","protocols":["MESI"],"workloads":[{"trace":"h.trace"}]}"#;
    std::fs::write(dir.join("h.json"), spec).unwrap();
    for header in ["FFT", "fft", "their-workload"] {
        let mut doc = fft.to_trace();
        doc.benchmark = header.to_string();
        std::fs::write(dir.join("h.trace"), doc.to_binary_bytes().unwrap()).unwrap();
        let (code, info, stderr) = run_in(&dir, &["trace", "info", "h.trace"]);
        assert_eq!(code, 0, "{header}: {stderr}");
        assert!(info.contains(&format!("benchmark: {header}\n")), "{info}");
        let digest = info.lines().find_map(|l| l.strip_prefix("digest:"));
        let digest = digest.unwrap_or_else(|| panic!("no digest line: {info}"));
        let (code, shown, stderr) = run_in(&dir, &["plan", "show", "h.json"]);
        assert_eq!(code, 0, "{header}: {stderr}");
        let handle = format!("h.trace#{}", &digest.trim()[..8]);
        assert!(shown.contains(&handle), "{header}: {handle} in\n{shown}");
    }

    let mut doc = fft.to_trace();
    doc.streams[1].push(tw_types::TraceOp::barrier(9));
    std::fs::write(dir.join("bad.trace"), doc.to_binary_bytes().unwrap()).unwrap();
    let (code, info, stderr) = run_in(&dir, &["trace", "info", "bad.trace"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        info.contains(
            "digest:    none (malformed trace: core 1 disagrees on the barrier sequence)"
        ),
        "{info}"
    );
    assert!(info.contains("regions:   3"), "{info}");
    assert!(info.contains("  core 15:"), "{info}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec nested deeper than any document the workspace writes is a bad
/// request naming where, not a stack overflow (which aborts with 134).
#[test]
fn a_deeply_nested_spec_exits_two() {
    let dir = scratch("nested");
    std::fs::write(dir.join("deep.json"), "[".repeat(200_000)).unwrap();
    let (code, _, stderr) = run_in(&dir, &["plan", "show", "deep.json"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("nest deeper than 128 levels at byte 128"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that closes stdout before the command writes (`| head -n 1`
/// once it has its line) ends the command quietly with exit 0, not with a
/// panic.
#[test]
fn a_closed_stdout_ends_the_command_with_exit_zero() {
    let dir = scratch("closed-stdout");
    let (code, plan, stderr) = run_in(&dir, &["plan", "builtin", "--tiny"]);
    assert_eq!(code, 0, "{stderr}");
    std::fs::write(dir.join("p.json"), plan).unwrap();
    let (code, _, stderr) = run_in(
        &dir,
        &["trace", "record", "a.trace", "--tiny", "--bench", "FFT"],
    );
    assert_eq!(code, 0, "{stderr}");
    for args in [&["plan", "show", "p.json"], &["trace", "info", "a.trace"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .current_dir(&dir)
            .args(args)
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
