//! `workloads`: the builtin workloads' digest table, regenerated from the
//! generators; `--write` records it as `WORKLOADS.digests`, the file
//! compile reads, and `--check` compares it with that file
//! (DESIGN.md §10; one-line summary: `cli.rs`).

use crate::cli::Args;
use crate::write_file;
use std::process::ExitCode;

/// The committed table, at the repository root.
const FILE: &str = "WORKLOADS.digests";

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let (write, check) = (args.has("--write"), args.has("--check"));
    if write && check {
        return Err(format!(
            "`--write` and `--check` exclude each other\nusage: {}",
            args.command.synopsis()
        ));
    }
    let committed = match check {
        true => std::fs::read_to_string(FILE).map_err(|e| format!("cannot read {FILE}: {e}"))?,
        false => String::new(),
    };
    let table = denovo_waste::workload_digests()?;
    if write {
        write_file(FILE, table)?;
    } else if check {
        if let Some(stale) = first_difference(&committed, &table) {
            eprintln!(
                "{FILE} is stale: {stale}; re-record it with `experiments workloads --write`"
            );
            return Ok(ExitCode::from(1));
        }
        eprintln!("{FILE}: every line is what the generators make");
    } else {
        out!("{table}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The first line where `committed` and `generated` differ, described.
fn first_difference(committed: &str, generated: &str) -> Option<String> {
    let (mut old, mut new) = (committed.lines(), generated.lines());
    for n in 1.. {
        match (old.next(), new.next()) {
            (None, None) => {
                return (committed != generated).then(|| "its line endings differ".to_string())
            }
            (a, b) if a == b => {}
            (a, b) => {
                let quote = |l: Option<&str>| l.map_or("nothing".to_string(), |l| format!("`{l}`"));
                return Some(format!(
                    "line {n} is {}, the generators make {}",
                    quote(a),
                    quote(b)
                ));
            }
        }
    }
    unreachable!("the loop returns at the end of both texts")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_difference_names_its_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_difference("a\nc\n", "a\nb\n").unwrap(),
            "line 2 is `c`, the generators make `b`"
        );
        assert_eq!(
            first_difference("a\n", "a\nb\n").unwrap(),
            "line 2 is nothing, the generators make `b`"
        );
        assert_eq!(
            first_difference("a\nb", "a\nb\n").unwrap(),
            "its line endings differ"
        );
    }
}
