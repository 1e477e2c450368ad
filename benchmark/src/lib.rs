#![forbid(unsafe_code)]
//! # shotgun-benchmark — the repository's benchmark
//!
//! One command runs a named workload against the public entry points
//! of the workspace crates, prints every metric by name and unit, and
//! checks that the outputs are correct. See `README.md` beside this
//! crate for the workloads, the metrics and how to read them.
//!
//! A run has three phases:
//!
//! 1. **Set-up** (untimed, repeated [`Config::setup_reps`] times; the
//!    median is `setup_s`): program builds, trace recording and ingest,
//!    or fresh service roots.
//! 2. **Timed phase** (tracing off): the workload itself, repeated
//!    until the requested seconds have passed. It gives the end-to-end
//!    metrics; `peak_rss_mib` is the peak over this phase alone.
//! 3. **Correctness gate** (untimed): re-derives results along a second
//!    path and counts every mismatch, panic or job error as a failed
//!    operation.
//!
//! With tracing on, a separate run re-executes the workload through
//! the lower-level public calls of each crate inside spans and reports
//! per-layer metrics instead (see [`traced`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use fe_sim::{RunLength, SamplingSpec};

pub mod context;
pub mod grid;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweeps;
pub mod traced;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full-detail sweep of the fig6/fig7 grid.
    Detail,
    /// The same grid in sampled mode over ingested `.fets` stores.
    Sampled,
    /// A closed-loop client driving an in-process `fe-serve` daemon.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Detail, Workload::Sampled, Workload::Serve];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Detail => "detail",
            Workload::Sampled => "sampled",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and shapes of every workload. The command line always uses
/// [`Config::standard`]; nothing is read from the environment.
#[derive(Clone, Debug)]
pub struct Config {
    /// Suite scale of the `detail` and `sampled` grids.
    pub scale: f64,
    /// Run length of every `detail` cell.
    pub detail_len: RunLength,
    /// Run length of every `sampled` cell.
    pub sampled_len: RunLength,
    /// Sampling shape of the `sampled` grid, and the stride of the
    /// traced run's seek and sampled-mode probes.
    pub sampling: SamplingSpec,
    /// Suite scale of the `serve` jobs.
    pub serve_scale: f64,
    /// Run length of every `serve` cell.
    pub serve_len: RunLength,
    /// Sweep worker threads.
    pub threads: usize,
    /// Set-up repetitions before the timed phase; `setup_s` is the
    /// median set-up time. On `serve` each repetition is a batch of
    /// [`serve::SETUP_BATCH`] daemon starts, one more batch follows each
    /// episode, and the median is over single starts.
    pub setup_reps: usize,
    /// Fewest timed repetitions, however long they take.
    pub min_reps: usize,
    /// Scratch directory for traces, stores and service roots.
    pub work_dir: PathBuf,
}

impl Config {
    /// The benchmark's fixed configuration: full-size programs, one
    /// worker per core, scratch under `.bench_work/` in the current
    /// directory.
    pub fn standard() -> Config {
        Config {
            scale: 1.0,
            detail_len: RunLength {
                warmup: 200_000,
                measure: 800_000,
            },
            sampled_len: RunLength {
                warmup: 1_000_000,
                measure: 8_000_000,
            },
            sampling: SamplingSpec::DEFAULT,
            serve_scale: 0.25,
            serve_len: RunLength {
                warmup: 30_000,
                measure: 120_000,
            },
            threads: context::nproc(),
            setup_reps: 5,
            min_reps: 3,
            work_dir: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
        }
    }

    /// The shape strings printed in the run context.
    pub fn describe(&self, workload: Workload) -> Vec<(&'static str, String)> {
        let len = |l: RunLength| format!("{}+{}", l.warmup, l.measure);
        match workload {
            Workload::Detail => vec![
                ("scale", self.scale.to_string()),
                ("run_length", len(self.detail_len)),
                ("sampling", "none (full detail)".into()),
            ],
            Workload::Sampled => vec![
                ("scale", self.scale.to_string()),
                ("run_length", len(self.sampled_len)),
                (
                    "sampling",
                    format!(
                        "interval {} detail {} warmup {}",
                        self.sampling.interval, self.sampling.detail, self.sampling.warmup
                    ),
                ),
            ],
            Workload::Serve => vec![
                ("scale", self.serve_scale.to_string()),
                ("run_length", len(self.serve_len)),
                ("sampling", "none (full detail)".into()),
            ],
        }
    }
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: String,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Counts operations and the ones that failed, with a reason for each
/// failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Reasons of the operations that failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Runs `op`, counting it as one operation that fails on a panic or
    /// an `Err`. Returns the value when it succeeded.
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(e)) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into());
                self.failures.push(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Extra run-context entries (sample counts, shapes).
    pub notes: Vec<(String, String)>,
    /// The traced run's spans as JSON, when tracing was on.
    pub spans: Option<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Appends a run-context note.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Runs `workload` once: the timed end-to-end run when `trace` is
/// false, the traced per-layer run when it is true.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, cfg: &Config) -> Outcome {
    let result = std::fs::create_dir_all(&cfg.work_dir).map_err(|e| e.to_string());
    let mut out = match result {
        Err(e) => {
            let mut out = Outcome::default();
            out.tally.check(false, || format!("creating work dir: {e}"));
            out
        }
        Ok(()) => match (workload, trace) {
            (Workload::Detail | Workload::Sampled, false) => {
                sweeps::run(workload, seed, seconds, cfg)
            }
            (Workload::Serve, false) => serve::run(seed, seconds, cfg),
            (_, true) => traced::run(workload, seed, cfg),
        },
    };
    if let Err(e) = std::fs::remove_dir_all(&cfg.work_dir) {
        out.tally.check(false, || {
            format!("removing {}: {e}", cfg.work_dir.display())
        });
    }
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = cfg.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    out
}

/// Resets this process's peak resident memory (`VmHWM`) to its current
/// resident memory, so that a later [`peak_rss_mib`] covers only what
/// ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| e.to_string())
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
