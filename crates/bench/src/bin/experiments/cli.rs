//! The one grammar of the `experiments` command line: a declarative command
//! table, the single parser every command goes through, and the usage and
//! help text rendered from the table (so neither can drift from what is
//! accepted). DESIGN.md §16 states the rules [`parse`] applies.

use crate::{daemon, figures, fuzz, plan, profile, trace, workloads};
use denovo_waste::ScaleProfile;
use std::process::ExitCode;

/// One `--flag` a command accepts.
pub struct Flag {
    pub name: &'static str,
    /// Placeholder of the value the flag takes; `None` for a bare switch.
    pub value: Option<&'static str>,
    pub required: bool,
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        required: false,
    }
}

const fn opt(name: &'static str, value: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        required: false,
    }
}

const SOCKET: Flag = Flag {
    name: "--socket",
    value: Some("PATH"),
    required: true,
};
// The flags several rows share, declared once.
const CACHE: Flag = opt("--cache", "DIR");
const RECORD: Flag = opt("--record", "FILE");
const JSON_OUT: Flag = opt("--json", "OUT");
const BENCH: Flag = opt("--bench", "NAME");
const PROTOCOL: Flag = opt("--protocol", "NAME");

type Run = fn(&Args) -> Result<ExitCode, String>;

/// One row of the command table. A row states only what it accepts: no
/// operands, no flags and no scale unless it says otherwise.
pub struct Command {
    pub path: &'static [&'static str],
    /// Operand names; one ending in `..` (last only) takes zero or more.
    pub operands: &'static [&'static str],
    pub flags: &'static [Flag],
    /// The default scale when the command takes `--tiny|--scaled|--paper`.
    pub scale: Option<ScaleProfile>,
    pub summary: &'static str,
    pub run: Run,
}

pub static COMMANDS: &[Command] = &[
    Command::new(&[], figures::run)
        .operands(&["FIGURE.."])
        .flags(&[switch("--json"), CACHE, opt("--network", "NAME"), RECORD])
        .scale(ScaleProfile::Scaled)
        .summary("regenerate the paper's tables and figures (default: all); --json also writes BENCH_results.json"),
    Command::new(&["plan", "builtin"], plan::builtin)
        .flags(&[opt("--network", "LIST")])
        .scale(ScaleProfile::Scaled)
        .summary("print the built-in full-matrix spec as JSON; --network analytic,flit adds the network axis"),
    Command::new(&["plan", "show"], plan::show)
        .operands(&["spec.json"])
        .summary("print a spec's sweep axes and compiled cells with their cache keys; nothing is simulated"),
    Command::new(&["plan", "run"], plan::run)
        .operands(&["spec.json"])
        .flags(&[CACHE, JSON_OUT, opt("--stats", "OUT"), RECORD])
        .summary("execute a plan and print every figure; --json writes the figures document, --stats the cache statistics"),
    Command::new(&["profile"], profile::run)
        .operands(&["spec.json"])
        .flags(&[CACHE, opt("--top", "N"), opt("--trace", "OUT"), opt("--counts", "OUT")])
        .summary("execute a plan with the flight recorder armed and print the hot-spot report; --counts writes every simulated cell's work counts"),
    Command::new(&["profile", "diff"], profile::diff)
        .operands(&["a.jsonl", "b.jsonl"])
        .summary("compare two span traces modulo timing; exit 1 at the first divergence"),
    Command::new(&["trace", "record"], trace::record)
        .operands(&["out.trace"])
        .flags(&[BENCH, switch("--text")])
        .scale(ScaleProfile::Scaled)
        .summary("save one benchmark's generated workload as a trace file; nothing is simulated"),
    Command::new(&["trace", "replay"], trace::replay)
        .operands(&["in.trace"])
        .flags(&[PROTOCOL])
        .scale(ScaleProfile::Scaled)
        .summary("replay a trace file under one protocol (default: all ten)"),
    Command::new(&["trace", "info"], trace::info)
        .operands(&["in.trace"])
        .summary("print a trace's header, content digest, region annotations and per-core statistics"),
    Command::new(&["trace", "diff"], trace::diff)
        .operands(&["a.trace", "b.trace"])
        .summary("compare two traces structurally; exit 1 at the first divergence"),
    Command::new(&["trace", "roundtrip"], trace::roundtrip)
        .flags(&[BENCH, PROTOCOL])
        .scale(ScaleProfile::Scaled)
        .summary("record, encode, decode and replay one cell; exit 1 unless the replay is bit-identical"),
    Command::new(&["fuzz"], fuzz::run)
        .flags(&[
            opt("--seeds", "N"),
            opt("--start", "N"),
            RECORD,
            switch("--self-test"),
        ])
        // Fuzzing wants breadth over fidelity: default to the tiny geometry.
        .scale(ScaleProfile::Tiny)
        .summary("sweep synthesized workloads, race-checked by the golden model, across every protocol and network model under the differential invariants; --self-test proves the oracle catches injected bugs"),
    Command::new(&["workloads"], workloads::run)
        .flags(&[switch("--write"), switch("--check")])
        .summary("print the builtin workloads' digest table; --write records it as WORKLOADS.digests, --check exits 1 unless that file is what the generators make"),
    Command::new(&["serve"], daemon::serve)
        .flags(&[SOCKET, CACHE, switch("--no-cache"), RECORD])
        .summary("run the experiments daemon in the foreground until a client sends shutdown (cache: .exp-cache)"),
    Command::new(&["submit"], daemon::submit)
        .operands(&["spec.json"])
        .flags(&[SOCKET, JSON_OUT])
        .summary("send one spec to a running daemon; --json writes the returned figures document"),
    Command::new(&["stats"], daemon::stats)
        .flags(&[SOCKET])
        .summary("print a running daemon's service metrics as JSON"),
    Command::new(&["metrics"], daemon::metrics)
        .flags(&[SOCKET])
        .summary("print a running daemon's Prometheus text exposition"),
    Command::new(&["shutdown"], daemon::shutdown)
        .flags(&[SOCKET])
        .summary("ask a running daemon to finish its running submits and exit"),
    Command::new(&["help"], |_| {
        outln!("{}", help());
        Ok(ExitCode::SUCCESS)
    })
    .summary("print this text"),
];

impl Command {
    const fn new(path: &'static [&'static str], run: Run) -> Command {
        Command {
            path,
            operands: &[],
            flags: &[],
            scale: None,
            summary: "",
            run,
        }
    }

    const fn operands(mut self, operands: &'static [&'static str]) -> Command {
        self.operands = operands;
        self
    }

    const fn flags(mut self, flags: &'static [Flag]) -> Command {
        self.flags = flags;
        self
    }

    const fn scale(mut self, default: ScaleProfile) -> Command {
        self.scale = Some(default);
        self
    }

    const fn summary(mut self, summary: &'static str) -> Command {
        self.summary = summary;
        self
    }

    /// `experiments <path> <operands> [flags]`, as accepted by [`parse`].
    pub fn synopsis(&self) -> String {
        let mut s = String::from("experiments");
        for p in self.path {
            s += &format!(" {p}");
        }
        for o in self.operands {
            s += &if o.ends_with("..") {
                format!(" [{o}]")
            } else {
                format!(" <{o}>")
            };
        }
        for f in self.flags {
            let body = f
                .value
                .map_or(f.name.to_string(), |v| format!("{} {v}", f.name));
            s += &if f.required {
                format!(" {body}")
            } else {
                format!(" [{body}]")
            };
        }
        if self.scale.is_some() {
            s += " [--tiny|--scaled|--paper]";
        }
        s
    }
}

/// The full help text: every command's synopsis and summary out of the
/// table, then the recorder note and the exit-code contract.
pub fn help() -> String {
    let mut usage = String::new();
    for c in COMMANDS {
        usage += &format!("  {}\n      {}\n", c.synopsis(), c.summary);
    }
    format!(
        "\
experiments — regenerate the paper's tables/figures, run declarative plans,
record/replay traces, fuzz the protocol registry, profile where the time
goes, and serve plans as traffic.

usage (`--help` after any command prints its own line):
{usage}
figures: {figures}

`--record FILE` arms the flight recorder: spans (cells, engine phases,
daemon requests) are captured and written to FILE as trace JSONL
(schema `denovo-waste/flight/v1`, deterministic modulo the quarantined
`timing` sub-objects). Recording never changes results: the figures,
BENCH_results.json and fuzz digests are byte-identical with and without it.

exit codes (uniform across every subcommand):
  0  success, or stdout closed early by its reader (as head -n 1 does)
  1  a check failed: trace diff divergence, profile diff divergence,
     roundtrip mismatch, fuzz invariant violations, failed fuzz self-test,
     a stale WORKLOADS.digests
  2  invalid or failed request: unknown flags/figures/subcommands,
     unreadable or malformed inputs (including corrupt/truncated span
     traces), specs that do not compile, runs that fail, output producing
     no cells, daemon connection errors

See EXPERIMENTS.md for walkthroughs, DESIGN.md §13 for the daemon wire
protocol, and DESIGN.md §15 for the span taxonomy and trace grammar.",
        figures = figures::figure_names().join(" ")
    )
}

/// What [`parse`] made of the command line.
pub enum Parsed {
    /// `--help`/`-h` was given: the text to print before exiting 0.
    Help(String),
    Run(Args),
}

/// One command's parsed arguments, as every `run` function receives them.
pub struct Args {
    pub command: &'static Command,
    operands: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
    scale: Option<ScaleProfile>,
}

impl Args {
    fn lookup(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.command.flags.iter().any(|f| f.name == name),
            "`{name}` is not in the command's table row"
        );
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The value of flag `name`, when it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.lookup(name)?.as_deref()
    }

    /// The numeric value of flag `name`, or `default` when it was not given.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{name}: {e}"))
        })
    }

    /// The operands, in order; the parser has checked their count.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The scale flag given, or the row's default.
    pub fn scale(&self) -> ScaleProfile {
        self.scale.expect("the command's row declares a scale")
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// The message to print before exiting 2; it names the offending token and
/// ends with the usage of the command (or command family) concerned.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let command = COMMANDS
        .iter()
        .filter(|c| c.path.len() <= argv.len() && c.path.iter().zip(argv).all(|(p, a)| p == a))
        .max_by_key(|c| c.path.len())
        .expect("the figure runner's empty path prefixes every command line");
    let rest = &argv[command.path.len()..];
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");
    // A family name (`plan`, `trace`) without one of its subcommands.
    if let Some(first) = argv.first().filter(|_| command.path.is_empty()) {
        let family: Vec<String> = COMMANDS
            .iter()
            .filter(|c| c.path.first().is_some_and(|p| p == first))
            .map(|c| format!("usage: {}", c.synopsis()))
            .collect();
        if !family.is_empty() {
            let usage = family.join("\n");
            if wants_help {
                return Ok(Parsed::Help(usage));
            }
            return Err(match argv.get(1) {
                Some(sub) => format!("unknown `{first}` subcommand `{sub}`\n{usage}"),
                None => format!("`{first}` needs a subcommand\n{usage}"),
            });
        }
    }
    if wants_help {
        return Ok(Parsed::Help(if command.path.is_empty() {
            help()
        } else {
            format!("usage: {}\n\n{}", command.synopsis(), command.summary)
        }));
    }
    parse_for(command, rest)
        .map(Parsed::Run)
        .map_err(|msg| format!("{msg}\nusage: {}", command.synopsis()))
}

fn parse_for(command: &'static Command, rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command,
        operands: Vec::new(),
        flags: Vec::new(),
        scale: command.scale,
    };
    let mut scale_flag: Option<&str> = None;
    let mut tokens = rest.iter().map(String::as_str);
    while let Some(token) = tokens.next() {
        if command.scale.is_some() && matches!(token, "--tiny" | "--scaled" | "--paper") {
            // Two different scales are refused, naming both: resolving them
            // silently could start the multi-minute Paper matrix when
            // `--tiny` was typed last.
            match scale_flag.replace(token) {
                Some(first) if first == token => {
                    return Err(format!("`{token}` was given more than once"))
                }
                Some(first) => {
                    return Err(format!(
                        "conflicting scale flags `{first}` and `{token}`: pass at most one scale"
                    ))
                }
                None => args.scale = Some(ScaleProfile::by_name(&token[2..])?),
            }
        } else if token.starts_with("--") {
            let Some(flag) = command.flags.iter().find(|f| f.name == token) else {
                return Err(format!("unknown flag `{token}`"));
            };
            if args.has(flag.name) {
                return Err(format!("`{token}` was given more than once"));
            }
            let value = match flag.value {
                None => None,
                Some(_) => match tokens.next() {
                    Some(v) if !v.starts_with("--") => Some(v.to_string()),
                    _ => return Err(format!("`{token}` needs a value")),
                },
            };
            args.flags.push((flag.name, value));
        } else {
            args.operands.push(token.to_string());
        }
    }
    let variadic = command.operands.last().is_some_and(|o| o.ends_with(".."));
    let fixed = &command.operands[..command.operands.len() - usize::from(variadic)];
    if let Some(missing) = fixed.get(args.operands.len()) {
        return Err(format!("missing operand <{missing}>"));
    }
    if let Some(extra) = args.operands.get(fixed.len()).filter(|_| !variadic) {
        return Err(format!("unexpected operand `{extra}`"));
    }
    if let Some(f) = command
        .flags
        .iter()
        .find(|f| f.required && !args.has(f.name))
    {
        return Err(format!("`{}` is required", f.name));
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// `path | operands | flag[=value].. | scale`, for one-line comparisons.
    fn describe(line: &str) -> String {
        let args = match parse(&argv(line)) {
            Ok(Parsed::Run(args)) => args,
            Ok(Parsed::Help(_)) => panic!("`{line}` parsed as a help request"),
            Err(msg) => panic!("`{line}` must parse: {msg}"),
        };
        let flags: Vec<String> = args
            .flags
            .iter()
            .map(|(name, value)| match value {
                Some(v) => format!("{name}={v}"),
                None => name.to_string(),
            })
            .collect();
        format!(
            "{} | {} | {} | {}",
            args.command.path.join(" "),
            args.operands.join(" "),
            flags.join(" "),
            args.scale.map_or("-", ScaleProfile::name)
        )
    }

    #[test]
    fn paths_are_unique_and_shadow_no_figure() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|d| d.path != c.path),
                "{:?} appears twice",
                c.path
            );
            if let Some(first) = c.path.first() {
                assert!(
                    !figures::figure_names().contains(first),
                    "`{first}` is both a command and a figure"
                );
            }
            let variadic = c.operands.iter().filter(|o| o.ends_with("..")).count();
            assert!(variadic == 0 || (variadic == 1 && c.operands.last().unwrap().ends_with("..")));
        }
    }

    #[test]
    fn flag_names_are_unique_within_a_row() {
        for c in COMMANDS {
            for (i, f) in c.flags.iter().enumerate() {
                assert!(f.name.starts_with("--"), "{:?}: {}", c.path, f.name);
                assert!(
                    !matches!(f.name, "--tiny" | "--scaled" | "--paper" | "--help"),
                    "{:?}: `{}` belongs to the grammar, not to a row",
                    c.path,
                    f.name
                );
                assert!(
                    c.flags[..i].iter().all(|g| g.name != f.name),
                    "{:?} lists `{}` twice",
                    c.path,
                    f.name
                );
            }
        }
    }

    #[test]
    fn help_is_rendered_from_the_table() {
        let text = help();
        for c in COMMANDS {
            assert!(text.contains(&c.synopsis()), "{:?} missing", c.path);
            assert!(text.contains(c.summary), "{:?} summary missing", c.path);
            for f in c.flags {
                assert!(c.synopsis().contains(f.name), "{:?}: {}", c.path, f.name);
            }
            // `<path> --help` is that row's usage line (the full text for
            // the figure runner), whatever else the row requires.
            let mut line = c.path.join(" ");
            line += " --help";
            match parse(&argv(&line)) {
                Ok(Parsed::Help(usage)) => assert!(usage.contains(&c.synopsis()), "{line}"),
                _ => panic!("`{line}` must be a help request"),
            }
        }
        // What `tests/cli_exit_codes.rs` looks for.
        assert!(text.contains("exit codes") && text.contains("serve --socket"));
        assert!(text.contains("[--tiny|--scaled|--paper]"));
    }

    /// Every distinct invocation shape in `.github/workflows/ci.yml`,
    /// README.md, EXPERIMENTS.md and the verify skill, as written, with what
    /// it must parse to. Parse only: nothing runs.
    const DOCUMENTED: &str = "all --json =>  | all | --json | scaled
 =>  |  |  | scaled
--tiny all =>  | all |  | tiny
--paper all =>  | all |  | paper
fig5_1a headline =>  | fig5_1a headline |  | scaled
fig5_2 --network flit =>  | fig5_2 | --network=flit | scaled
all --json --cache .exp-cache =>  | all | --json --cache=.exp-cache | scaled
all --json --tiny --record flight-a.jsonl =>  | all | --json --record=flight-a.jsonl | tiny
plan builtin --tiny => plan builtin |  |  | tiny
plan builtin --tiny --network analytic,flit => plan builtin |  | --network=analytic,flit | tiny
plan show plan-tiny.json => plan show | plan-tiny.json |  | -
plan run p.json --cache .c --json a.json --stats s.json => plan run | p.json | --cache=.c --json=a.json --stats=s.json | -
profile plan-tiny.json --top 10 --trace profile-tiny.jsonl => profile | plan-tiny.json | --top=10 --trace=profile-tiny.jsonl | -
profile plan-net.json --counts work.txt => profile | plan-net.json | --counts=work.txt | -
plan builtin --tiny --network analytic,flit,bus => plan builtin |  | --network=analytic,flit,bus | tiny
profile diff flight-a.jsonl flight-b.jsonl => profile diff | flight-a.jsonl flight-b.jsonl |  | -
trace record a.trace --tiny --bench FFT => trace record | a.trace | --bench=FFT | tiny
trace record fft.trace --bench FFT => trace record | fft.trace | --bench=FFT | scaled
trace replay fft.trace --protocol Mesi => trace replay | fft.trace | --protocol=Mesi | scaled
trace replay /tmp/t.trace --tiny => trace replay | /tmp/t.trace |  | tiny
trace info fft.trace => trace info | fft.trace |  | -
trace diff a.trace b.trace => trace diff | a.trace b.trace |  | -
trace roundtrip --tiny --bench LU --protocol Mesi => trace roundtrip |  | --bench=LU --protocol=Mesi | tiny
fuzz --seeds 50 => fuzz |  | --seeds=50 | tiny
fuzz --self-test => fuzz |  | --self-test | tiny
fuzz --seeds 8 --start 1000 --tiny => fuzz |  | --seeds=8 --start=1000 | tiny
fuzz --seeds 12 --tiny --record f.jsonl => fuzz |  | --seeds=12 --record=f.jsonl | tiny
workloads --check => workloads |  | --check | -
workloads --write => workloads |  | --write | -
serve --socket /tmp/exp.sock --cache .exp-cache => serve |  | --socket=/tmp/exp.sock --cache=.exp-cache | -
serve --socket s.sock --cache c/entries --record d.jsonl => serve |  | --socket=s.sock --cache=c/entries --record=d.jsonl | -
submit plan-tiny.json --socket s.sock --json cold.json => submit | plan-tiny.json | --socket=s.sock --json=cold.json | -
stats --socket s.sock => stats |  | --socket=s.sock | -
metrics --socket s.sock => metrics |  | --socket=s.sock | -
shutdown --socket s.sock => shutdown |  | --socket=s.sock | -
help => help |  |  | -";

    #[test]
    fn documented_invocations_parse_as_written() {
        for row in DOCUMENTED.lines() {
            let (line, expected) = row.split_once(" => ").expect("`line => expected`");
            assert_eq!(describe(line), expected, "`{line}`");
        }
    }
}
