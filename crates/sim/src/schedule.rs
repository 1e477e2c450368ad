//! The run driver: one schedule for every cell.
//!
//! Every cell — a full-detail run (timed warmup, then measurement) or a
//! sampled one (initial functional warm, then fast-forward / warm /
//! timed-detail intervals) — runs the same `Schedule` state machine to
//! completion over its own [`Simulator`] and its own reader of the
//! retired stream, so a replayer's or store's seekable skip applies to
//! every fast-forward.
//!
//! Cells run with the accelerations armed
//! (`Simulator::enable_batch_accel`): the TAGE fold scratch
//! (`Tage::enable_fold_scratch` in `fe-uarch`, O(1) folded-history
//! maintenance instead of per-lookup folding) and quiescent-span
//! skipping (`Simulator::try_skip_quiet_span`, bulk-accounting
//! stretches where every stage is provably inert). Both are
//! bit-identical by construction; a cell run with
//! [`CellRun::reference`](crate::CellRun::reference) set leaves them off
//! and is what `tests/batch_engine.rs` checks the accelerated cells
//! against, byte for byte.

use fe_model::SimStats;

use crate::engine::Simulator;
use crate::runner::{CellStats, RunLength};
use crate::sampling::{SampledStats, SamplingSpec, RAMP_CAP};
use crate::snapshot::WarmSnapshot;

/// Where one cell is in its run.
enum Phase {
    /// Full detail: timed warmup before measurement starts.
    Warmup,
    /// Full detail: measuring until `retired_total` reaches `end`.
    Measure {
        end: u64,
    },
    /// Sampled: the initial functional warm.
    InitWarm,
    /// Sampled: the interval loop, one whole interval per step.
    Intervals {
        end: u64,
    },
    Done,
}

/// One cell's run schedule — warmup → measure in full detail, or
/// initial functional warm → intervals when sampled — as a state
/// machine over the cell's [`Simulator`]. The only driver of either run
/// shape: [`run_cells`](crate::run_cells) and [`Simulator::run`] run it
/// to completion.
pub(crate) struct Schedule {
    len: RunLength,
    sampling: Option<SamplingSpec>,
    phase: Phase,
    /// The full-detail result, once measurement ends.
    stats: Option<SimStats>,
    /// The sampled result: every measured interval so far.
    intervals: Vec<SimStats>,
}

impl Schedule {
    /// A fresh schedule: full detail, or sampled per `sampling`.
    pub(crate) fn new(len: RunLength, sampling: Option<SamplingSpec>) -> Self {
        Schedule {
            len,
            sampling,
            phase: match sampling {
                Some(_) => Phase::InitWarm,
                None => Phase::Warmup,
            },
            stats: None,
            intervals: Vec::new(),
        }
    }

    /// Runs the cell to completion and returns its statistics.
    pub(crate) fn run(mut self, sim: &mut Simulator<'_>) -> CellStats {
        while !matches!(self.phase, Phase::Done) {
            self.step(sim);
        }
        let (stats, sampled) = match self.sampling {
            None => (
                self.stats.expect("a driven cell finishes its measurement"),
                None,
            ),
            Some(_) => {
                let sampled = SampledStats {
                    intervals: self.intervals,
                };
                (sampled.aggregate(), Some(sampled))
            }
        };
        CellStats {
            stats,
            sampled,
            starved_cycles_skipped: sim.starved_cycles_skipped,
            data_stall_cycles_skipped: sim.data_stall_cycles_skipped,
        }
    }

    /// Runs a sampled cell's initial functional warm to completion.
    pub(crate) fn warm(&mut self, sim: &mut Simulator<'_>) {
        if matches!(self.phase, Phase::InitWarm) {
            self.step(sim);
        }
    }

    /// Replaces a sampled cell's initial functional warm with a
    /// restored snapshot (see the [`snapshot`](crate::snapshot) module).
    pub(crate) fn restore(&mut self, sim: &mut Simulator<'_>, snap: &WarmSnapshot) {
        sim.restore_warm(snap);
        self.start_intervals(sim);
    }

    /// One unit of work: a whole timed phase, the initial warm, or a
    /// whole sampled interval.
    fn step(&mut self, sim: &mut Simulator<'_>) {
        match self.phase {
            Phase::Warmup => {
                sim.step_until(self.len.warmup);
                sim.begin_measurement();
                // Measure relative to the actual measurement start
                // (warmup may overshoot by a partial retire-width).
                self.phase = Phase::Measure {
                    end: sim.state.retired_total + self.len.measure,
                };
            }
            Phase::Measure { end } => {
                sim.step_until(end);
                self.stats = Some(sim.finalize());
                self.phase = Phase::Done;
            }
            Phase::InitWarm => {
                // Stops at the first block boundary at or past the
                // warmup, or where the source ran dry.
                sim.warm_functional(self.len.warmup);
                self.start_intervals(sim);
            }
            Phase::Intervals { end } => {
                if sim.state.retired_total >= end || sim.state.stream_ended() {
                    self.phase = Phase::Done;
                } else {
                    self.step_interval(sim, end);
                }
            }
            Phase::Done => {}
        }
    }

    fn start_intervals(&mut self, sim: &Simulator<'_>) {
        self.phase = Phase::Intervals {
            end: sim.state.retired_total.saturating_add(self.len.measure),
        };
    }

    /// One sampled interval: a tail warm, or skip + functional warm +
    /// timed detail window.
    fn step_interval(&mut self, sim: &mut Simulator<'_>, end: u64) {
        let spec = self
            .sampling
            .expect("interval phase is only entered by sampled schedules");
        let budget = (end - sim.state.retired_total).min(spec.interval);
        if budget < spec.detail {
            // Tail shorter than a detail window: cover it functionally.
            // A sub-length measured window would enter the per-interval
            // statistics at full weight and skew the mean and
            // confidence interval.
            sim.warm_functional(budget);
            return;
        }
        let detail = spec.detail;
        let fwarm = spec.warmup.min(budget - detail);
        let skip = budget - detail - fwarm;
        sim.skip_functional(skip);
        sim.warm_functional(fwarm);
        if sim.state.stream_ended() || !sim.begin_interval() {
            self.phase = Phase::Done;
            return;
        }
        // Unmeasured ramp: refill the FTQ/supply so the measured window
        // does not charge artificial cold-pipeline stalls.
        let ramp = (detail / 16).min(RAMP_CAP);
        sim.step_until(sim.state.retired_total + ramp);
        sim.begin_measurement();
        sim.step_until(sim.state.retired_total + (detail - ramp));
        let stats = sim.finalize();
        if stats.instructions > 0 {
            self.intervals.push(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::{run_cells, CellRun, CellSource, RunLength, SchemeSpec};
    use crate::sampling::SamplingSpec;
    use fe_cfg::workloads;
    use fe_model::MachineConfig;
    use fe_trace::Trace;

    const SEED: u64 = 0x5407;

    #[test]
    fn accelerated_full_detail_matches_reference_cells() {
        let program = workloads::zeus().scaled(0.2).build();
        let len = RunLength {
            warmup: 30_000,
            measure: 80_000,
        };
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, SEED, len.trace_instrs(&machine));
        let source = CellSource::Trace(&trace);
        let specs = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ];
        let run = CellRun::full(len);
        let accelerated = run_cells(&program, source, &specs, &machine, run, SEED);
        let reference = CellRun {
            reference: true,
            ..run
        };
        let reference = run_cells(&program, source, &specs, &machine, reference, SEED);
        for ((spec, got), want) in specs.iter().zip(&accelerated).zip(&reference) {
            assert_eq!(
                got,
                want,
                "accelerated cell diverged from the reference for {}",
                spec.label()
            );
            assert_eq!(want.starved_cycles_skipped, 0);
            assert_eq!(want.data_stall_cycles_skipped, 0);
        }
    }

    #[test]
    fn accelerated_sampled_matches_reference_cells() {
        let program = workloads::streaming().scaled(0.2).build();
        let len = RunLength {
            warmup: 20_000,
            measure: 200_000,
        };
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, SEED, len.trace_instrs(&machine));
        let source = CellSource::Trace(&trace);
        let run = CellRun::sampled(
            len,
            SamplingSpec {
                interval: 40_000,
                detail: 8_000,
                warmup: 10_000,
            },
        );
        // One cell per scheme family, the Ideal front end included.
        let schemes = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::Confluence,
            SchemeSpec::shotgun(),
            SchemeSpec::Ideal,
        ];
        let accelerated = run_cells(&program, source, &schemes, &machine, run, SEED);
        let reference = CellRun {
            reference: true,
            ..run
        };
        let reference = run_cells(&program, source, &schemes, &machine, reference, SEED);
        for ((scheme, got), want) in schemes.iter().zip(&accelerated).zip(&reference) {
            assert_eq!(
                got,
                want,
                "accelerated sampled cell diverged from the reference for {}",
                scheme.label()
            );
        }
    }

    #[test]
    #[should_panic(expected = "ran dry mid-run")]
    fn truncated_trace_panics_like_serial() {
        let program = workloads::nutch().scaled(0.05).build();
        let len = RunLength {
            warmup: 20_000,
            measure: 1_000_000,
        };
        let trace = Trace::record(&program, SEED, 50_000);
        let machine = MachineConfig::table3();
        let specs = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
        run_cells(
            &program,
            CellSource::Trace(&trace),
            &specs,
            &machine,
            CellRun::full(len),
            SEED,
        );
    }
}
