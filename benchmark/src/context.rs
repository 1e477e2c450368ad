//! The run context printed beside every result, so numbers taken on
//! different hosts or builds are never mistaken for one another.

use std::path::Path;

/// Host and build facts that a measurement depends on.
#[derive(Clone, Debug)]
pub struct RunContext {
    /// Cores available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl RunContext {
    /// Reads the context of this process, run from the repository root.
    pub fn detect() -> RunContext {
        RunContext {
            nproc: nproc(),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Cores available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves `HEAD` by reading the git directory directly: no `git`
/// process, and nothing above the checkout is consulted.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
