//! The fig6/fig7 grid every sweep workload runs, and what is read back
//! from its reports: paper fidelity and modelled-component counts.

use std::path::PathBuf;

use fe_cfg::{workloads, WorkloadSpec};
use fe_model::stats::{arithmetic_mean, geometric_mean};
use fe_model::{MachineConfig, SimStats};
use fe_sim::{Experiment, RunLength, SamplingSpec, SchemeSpec, SweepReport};

/// Executor seed of the paper figures; the fidelity sweeps use it so
/// `paper_err_*` does not depend on the workload seed.
pub const EVAL_SEED: u64 = 0x5407;
/// Shotgun's gmean speedup over no-prefetch in the paper (fig7).
pub const PAPER_SPEEDUP: f64 = 1.32;
/// Shotgun's mean front-end stall coverage in the paper (fig6).
pub const PAPER_COVERAGE: f64 = 0.68;

/// The Table 3 machine every workload runs on.
pub fn machine() -> MachineConfig {
    MachineConfig::table3()
}

/// The fig6/fig7 schemes, baseline first.
pub fn schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::NoPrefetch,
        SchemeSpec::Confluence,
        SchemeSpec::boomerang(),
        SchemeSpec::shotgun(),
    ]
}

/// The Table 2 suite at `scale` (1.0 = the catalog size).
pub fn suite(scale: f64) -> Vec<WorkloadSpec> {
    workloads::all()
        .into_iter()
        .map(|w| if scale == 1.0 { w } else { w.scaled(scale) })
        .collect()
}

/// Everything that fixes a sweep's result; turned into an
/// [`Experiment`] with every knob passed explicitly.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Workloads swept.
    pub workloads: Vec<WorkloadSpec>,
    /// Schemes swept.
    pub schemes: Vec<SchemeSpec>,
    /// Warmup and measured instructions per cell.
    pub len: RunLength,
    /// Sampled mode when set.
    pub sampling: Option<SamplingSpec>,
    /// Executor seed.
    pub seed: u64,
    /// Sweep worker threads.
    pub threads: usize,
    /// Directory of recorded traces or ingested stores to replay.
    pub trace_dir: Option<PathBuf>,
}

impl Sweep {
    /// The session this sweep describes, batch engine on.
    pub fn experiment(&self) -> Experiment {
        let mut exp = Experiment::new(machine())
            .workloads(self.workloads.iter().cloned())
            .schemes(self.schemes.iter().cloned())
            .len(self.len)
            .seed(self.seed)
            .threads(self.threads)
            .batch(true);
        if let Some(spec) = self.sampling {
            exp = exp.sampling(spec);
        }
        if let Some(dir) = &self.trace_dir {
            exp = exp.trace_dir(dir.clone());
        }
        exp
    }

    /// The same sweep restricted to `workloads` × `schemes`.
    pub fn subset(&self, workloads: &[WorkloadSpec], schemes: &[SchemeSpec]) -> Sweep {
        Sweep {
            workloads: workloads.to_vec(),
            schemes: schemes.to_vec(),
            ..self.clone()
        }
    }

    /// Instructions every cell covers (warmup plus measured), summed
    /// over the grid.
    pub fn covered_instrs(&self) -> u64 {
        (self.workloads.len() * self.schemes.len()) as u64 * (self.len.warmup + self.len.measure)
    }

    /// Cells in the grid.
    pub fn cells(&self) -> usize {
        self.workloads.len() * self.schemes.len()
    }
}

/// Shotgun's gmean speedup and mean coverage over the baseline across
/// every workload of a report that holds both schemes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fidelity {
    /// Gmean of Shotgun's per-workload speedup over no-prefetch.
    pub speedup: f64,
    /// Mean of Shotgun's per-workload front-end stall coverage.
    pub coverage: f64,
}

impl Fidelity {
    /// Reads the Shotgun cells of `reports` (each with no-prefetch as
    /// its baseline). `None` when no report holds a Shotgun cell.
    pub fn of<'r>(reports: impl IntoIterator<Item = &'r SweepReport>) -> Option<Fidelity> {
        let label = SchemeSpec::shotgun().label();
        let (mut speedups, mut coverages) = (Vec::new(), Vec::new());
        for report in reports {
            for cell in report.cells.iter().filter(|c| c.label == label) {
                if let (Some(s), Some(c)) = (cell.metrics.speedup, cell.metrics.coverage) {
                    speedups.push(s);
                    coverages.push(c);
                }
            }
        }
        (!speedups.is_empty()).then(|| Fidelity {
            speedup: geometric_mean(&speedups),
            coverage: arithmetic_mean(&coverages),
        })
    }

    /// `|speedup - 1.32|`.
    pub fn speedup_error(&self) -> f64 {
        (self.speedup - PAPER_SPEEDUP).abs()
    }

    /// `|coverage - 0.68|`.
    pub fn coverage_error(&self) -> f64 {
        (self.coverage - PAPER_COVERAGE).abs()
    }
}

/// Simulated statistics of each scheme merged over every workload of
/// `reports`, in first-seen scheme order.
fn merged_by_scheme<'r>(
    reports: impl IntoIterator<Item = &'r SweepReport>,
) -> Vec<(String, SimStats)> {
    let mut out: Vec<(String, SimStats)> = Vec::new();
    for report in reports {
        for cell in &report.cells {
            match out.iter_mut().find(|(label, _)| *label == cell.label) {
                Some((_, stats)) => stats.merge(&cell.stats),
                None => out.push((cell.label.clone(), cell.stats.clone())),
            }
        }
    }
    out
}

/// Modelled-component counts per fig6/7 scheme: simulated, not host,
/// numbers, which a simulator-only speed-up must leave unchanged.
/// Prefetch accuracy is left out for no-prefetch, which issues none.
pub fn modelled_counts<'r>(
    reports: impl IntoIterator<Item = &'r SweepReport>,
) -> Vec<(String, f64, &'static str)> {
    let merged = merged_by_scheme(reports);
    let mut out = Vec::new();
    for scheme in schemes() {
        let label = scheme.label();
        let Some((_, s)) = merged.iter().find(|(l, _)| *l == label) else {
            continue;
        };
        let pki = |events: u64| events as f64 * 1000.0 / s.instructions.max(1) as f64;
        out.push((format!("uarch.l1i_mpki.{label}"), s.l1i_mpki(), "MPKI"));
        out.push((format!("uarch.btb_mpki.{label}"), s.btb_mpki(), "MPKI"));
        out.push((
            format!("uarch.dir_mispredict_pki.{label}"),
            pki(s.direction_mispredicts),
            "PKI",
        ));
        out.push((
            format!("sim.fe_stall_pki.{label}"),
            s.front_end_stall_pki(),
            "PKI",
        ));
        out.push((format!("sim.ipc.{label}"), s.ipc(), "instr/cycle"));
        if scheme != SchemeSpec::NoPrefetch {
            out.push((
                format!("core.prefetch_accuracy.{label}"),
                s.prefetch_accuracy(),
                "fraction",
            ));
        }
    }
    out
}
