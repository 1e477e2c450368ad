//! The `detail` and `sampled` workloads: timed fig6/fig7 sweeps.

use std::path::Path;
use std::time::{Duration, Instant};

use fe_cfg::WorkloadSpec;
use fe_sim::{SchemeSpec, SweepReport};
use fe_trace::{Trace, TraceStore};

use crate::grid::{self, Fidelity, Sweep, EVAL_SEED};
use crate::stats::{beyond, median, percentile};
use crate::{peak_rss_mib, reset_peak_rss, Config, Outcome, Tally, Workload};

/// The timed sweep of `workload` at executor seed `seed`.
pub fn sweep(workload: Workload, seed: u64, cfg: &Config) -> Sweep {
    let sampled = workload == Workload::Sampled;
    Sweep {
        workloads: grid::suite(cfg.scale),
        schemes: grid::schemes(),
        len: if sampled {
            cfg.sampled_len
        } else {
            cfg.detail_len
        },
        sampling: sampled.then_some(cfg.sampling),
        seed,
        threads: cfg.threads,
        trace_dir: sampled.then(|| cfg.work_dir.join("stores")),
    }
}

/// File name under which a sweep's trace directory holds the ingested
/// store of `workload` at `seed` (the documented
/// `<workload>-<seed:016x>.fets` convention).
pub fn store_path(dir: &Path, workload: &WorkloadSpec, seed: u64) -> std::path::PathBuf {
    dir.join(format!("{}-{seed:016x}.fets", workload.name))
}

/// Set-up of one sweep: builds every program and, for a sweep that
/// replays from a trace directory, records each workload's stream and
/// ingests it into a v2 store there.
pub fn set_up(sweep: &Sweep) -> Result<(), String> {
    let needed = sweep.len.trace_instrs(&grid::machine());
    for spec in &sweep.workloads {
        let program = spec.build();
        if let Some(dir) = &sweep.trace_dir {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let trace = Trace::record(&program, sweep.seed, needed);
            TraceStore::from_trace(&trace, "shotgun-benchmark set-up")
                .write_to(store_path(dir, spec, sweep.seed))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Runs `sweep` under `tally`, counting a panic as a failed operation.
pub fn run_checked(tally: &mut Tally, what: &str, sweep: &Sweep) -> Option<SweepReport> {
    tally.run(what, || Ok(sweep.experiment().run()))
}

/// The timed run of `detail` or `sampled`.
pub fn run(workload: Workload, seed: u64, seconds: f64, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let timed = sweep(workload, seed, cfg);

    let mut setups = Vec::new();
    for _ in 0..cfg.setup_reps {
        let start = Instant::now();
        out.tally.run("set-up", || set_up(&timed));
        setups.push(start.elapsed().as_secs_f64());
    }

    // Timed phase: whole sweeps until the budget is spent.
    let rss = reset_peak_rss();
    out.tally
        .check(rss.is_ok(), || format!("resetting peak RSS: {rss:?}"));
    let mut walls: Vec<f64> = Vec::new();
    let mut first: Option<(SweepReport, String)> = None;
    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    while walls.len() < cfg.min_reps || phase.elapsed() < budget {
        let start = Instant::now();
        let report = run_checked(&mut out.tally, "timed sweep", &timed);
        let wall = start.elapsed().as_secs_f64();
        let Some(report) = report else { break };
        walls.push(wall);
        let json = report.to_json();
        match &first {
            None => first = Some((report, json)),
            Some((_, reference)) => out.tally.check(json == *reference, || {
                format!("sweep {} report differs from the first", walls.len())
            }),
        }
    }
    let peak_rss = peak_rss_mib();

    let fidelity_sweep = Sweep {
        seed: EVAL_SEED,
        trace_dir: None,
        ..timed.clone()
    };
    let fidelity = run_checked(&mut out.tally, "fidelity sweep", &fidelity_sweep)
        .and_then(|report| Fidelity::of([&report]));
    if let Some((report, _)) = &first {
        gate(workload, &timed, report, &mut out.tally);
    }

    let timed_s: f64 = walls.iter().sum();
    let job_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.metric("setup_s", median(&setups), "s");
    out.metric(
        "sim_mips",
        (walls.len() as u64 * timed.covered_instrs()) as f64 / timed_s / 1e6,
        "Minstr/s",
    );
    match peak_rss {
        Ok(mib) => out.metric("peak_rss_mib", mib, "MiB"),
        Err(e) => out.tally.check(false, || format!("peak RSS: {e}")),
    }
    out.metric("jobs_per_s", walls.len() as f64 / timed_s, "jobs/s");
    out.metric("job_ms_p50", median(&job_ms), "ms");
    out.metric("job_ms_p90", percentile(&job_ms, 90.0), "ms");
    match fidelity {
        Some(f) => {
            out.metric("paper_err_speedup", f.speedup_error(), "ratio");
            out.metric("paper_err_coverage", f.coverage_error(), "fraction");
            out.note("shotgun_gmean_speedup", f.speedup);
            out.note("shotgun_mean_coverage", f.coverage);
        }
        None => out.tally.check(false, || "no fidelity result".into()),
    }
    out.note("job", "one sweep of the grid");
    out.note("job_samples", walls.len());
    let listed: Vec<String> = job_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    out.note("job_ms_all", listed.join(" "));
    out.note("job_p90_samples_beyond", beyond(&job_ms, 90.0));
    out.note("cells_per_sweep", timed.cells());
    out.note("fidelity_seed", format!("{EVAL_SEED:#x}"));
    out
}

/// The correctness gate of a sweep workload, outside the timed region.
///
/// * `detail`: each workload re-derives one scheme (rotating with the
///   seed) through a single-scheme `Experiment` and must match the
///   4-wide batch cell exactly.
/// * `sampled`: the whole sweep re-runs from a fresh recording instead
///   of the ingested stores and must match cell for cell; the
///   store-driven sweep must not have fallen back to recording.
pub fn gate(workload: Workload, timed: &Sweep, report: &SweepReport, tally: &mut Tally) {
    match workload {
        Workload::Detail => {
            let schemes = grid::schemes();
            for (i, spec) in timed.workloads.iter().enumerate() {
                let scheme: SchemeSpec = schemes[(i + timed.seed as usize) % schemes.len()].clone();
                let single = Sweep {
                    threads: 1,
                    ..timed.subset(std::slice::from_ref(spec), std::slice::from_ref(&scheme))
                };
                if let Some(alone) = run_checked(tally, "single-scheme sweep", &single) {
                    let stats = |r: &SweepReport| {
                        r.cells
                            .iter()
                            .find(|c| c.workload == *spec.name && c.scheme == scheme)
                            .map(|c| c.stats.clone())
                    };
                    let (a, b) = (stats(&alone), stats(report));
                    tally.check(a.is_some() && a == b, || {
                        format!(
                            "{} / {}: single-scheme run differs from batch",
                            spec.name,
                            scheme.label()
                        )
                    });
                }
            }
        }
        Workload::Sampled => {
            let fresh = Sweep {
                trace_dir: None,
                ..timed.clone()
            };
            if let Some(recorded) = run_checked(tally, "fresh-recording sweep", &fresh) {
                for (a, b) in recorded.cells.iter().zip(&report.cells) {
                    tally.check(a.stats == b.stats && a.sampling == b.sampling, || {
                        format!(
                            "{} / {}: store-driven cell differs from a fresh recording",
                            a.workload, a.label
                        )
                    });
                }
                tally.check(recorded.cells.len() == report.cells.len(), || {
                    "fresh-recording sweep has a different cell count".into()
                });
            }
            if let Some(dir) = &timed.trace_dir {
                let recorded_flat = std::fs::read_dir(dir).map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .any(|e| e.path().extension().is_some_and(|x| x == "fetr"))
                });
                tally.check(matches!(recorded_flat, Ok(false)), || {
                    "the sweep recorded traces instead of loading the ingested stores".into()
                });
            }
        }
        Workload::Serve => unreachable!("serve has its own gate"),
    }
}
