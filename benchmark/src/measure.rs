//! Host facts, sample statistics, process memory, and the scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// CPUs this process may run on; every thread count is capped by it and
/// every result records it.
pub fn online_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// A `Vm*` line of `/proc/self/status`, in bytes.
fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of this process so far (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Current resident set of this process (`VmRSS`), bytes.
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

/// Commit of the tree the benchmark runs from, when it is a git checkout.
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// Filesystem type holding `path`, from `/proc/self/mounts` (longest
/// mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_dev, mount, fs) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// A per-process scratch directory beside the benchmark executable (so it
/// sits inside the build directory of the checkout), removed on drop —
/// including when a check fails or the run panics.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> Scratch {
        let root = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(Path::to_path_buf))
            .unwrap_or_else(std::env::temp_dir);
        let dir = root.join(format!("spider-benchmark-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create scratch dir {}: {e}", dir.display()));
        Scratch { dir }
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// An empty sub-directory `name`, replacing any earlier one.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
