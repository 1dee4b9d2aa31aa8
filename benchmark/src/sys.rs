//! Host-side measurements and the run's scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI this workspace builds for).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / CLOCK_TICKS_PER_S)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker and connection count of the daemon workload.
pub fn pool_size() -> usize {
    nproc().min(2)
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .to_string(),
    )
}

/// Where the run happened: recorded in every result record so that two
/// sets measured on different hosts or toolchains are not compared blind.
pub fn environment() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    vec![
        ("nproc", nproc().to_string()),
        (
            "rustc",
            first_line_of(Command::new("rustc").arg("--version")).unwrap_or_else(unknown),
        ),
        (
            // The driver's checkout is not a git repository; say so.
            "commit",
            first_line_of(Command::new("git").args(["rev-parse", "HEAD"])).unwrap_or_else(unknown),
        ),
        (
            "loadavg",
            std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
        ),
    ]
}

/// The package's output directory (`benchmark/out`, git-ignored). The
/// process changes into the package directory at start, so this and
/// everything under it is a short relative path — Unix socket paths are
/// limited to about a hundred bytes.
pub fn out_dir() -> &'static Path {
    Path::new("out")
}

/// A per-process scratch directory under [`out_dir`], removed when dropped
/// — on return, on error and on panic alike. Cache directories and the
/// daemon socket live here, inside the checkout.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        // Tests create several scratch directories in one process.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        sweep_dead_scratch();
        let dir = out_dir().join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Removes scratch directories left by a run that was killed: those whose
/// process no longer exists.
fn sweep_dead_scratch() {
    let Ok(entries) = std::fs::read_dir(out_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some((pid, _)) = name
            .to_str()
            .and_then(|n| n.strip_prefix("tmp-"))
            .and_then(|n| n.split_once('-'))
        else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!((1..=2).contains(&pool_size()));
        assert_eq!(environment().len(), 4);
    }

    #[test]
    fn scratch_is_removed_on_drop_and_after_a_dead_process() {
        let scratch = Scratch::create().unwrap();
        let file = scratch.path("cache");
        std::fs::write(&file, "x").unwrap();
        // No process has the highest pid the kernel allows plus one.
        let dead = out_dir().join("tmp-4194305-0");
        std::fs::create_dir_all(&dead).unwrap();
        drop(scratch);
        assert!(!file.exists());
        drop(Scratch::create().unwrap());
        assert!(!dead.exists());
    }
}
