//! Scheme specifications, run-length control, and [`run_cells`] — the
//! one entry point that runs (scheme) cells over a program, which the
//! `Experiment` sweep API builds on.

use fe_cfg::{Executor, Program};
use fe_model::{MachineConfig, SimStats};
use fe_trace::{ProgramFingerprint, Trace, TraceHeader, TraceStore};
use shotgun::{RegionPolicy, ShotgunConfig, ShotgunPrefetcher};

use fe_baselines::{Boomerang, Confluence, ConfluenceConfig, Fdip, NoPrefetch};

use crate::engine::{EngineScheme, Simulator};
use crate::pipeline::{BPU_BLOCKS_PER_CYCLE, FETCH_LINES_PER_CYCLE, SUPPLY_CAP};
use crate::sampling::{SampledStats, SamplingSpec};
use crate::source::SourceKind;

/// A control-flow-delivery scheme to evaluate.
#[derive(Clone, Debug, PartialEq)]
pub enum SchemeSpec {
    /// Conventional front end, no prefetching (the baseline).
    NoPrefetch,
    /// Fetch-directed instruction prefetching.
    Fdip,
    /// Boomerang (FDIP + reactive BTB fill) with a conventional BTB of
    /// the given entry count.
    Boomerang {
        /// BTB entries (2048 reproduces §5.2).
        btb_entries: u32,
    },
    /// Confluence (SHIFT temporal streaming + 16K BTB).
    Confluence,
    /// The ideal front end of Fig. 1.
    Ideal,
    /// Shotgun with an explicit configuration.
    Shotgun(ShotgunConfig),
}

impl SchemeSpec {
    /// The paper's §5.2 Boomerang configuration.
    pub fn boomerang() -> Self {
        SchemeSpec::Boomerang { btb_entries: 2048 }
    }

    /// The paper's §5.2 Shotgun configuration.
    pub fn shotgun() -> Self {
        SchemeSpec::Shotgun(ShotgunConfig::default())
    }

    /// Display label used in the figures. Distinct specs get distinct
    /// labels (the `Experiment` API relies on this to key cells), so
    /// non-default Shotgun sizings are spelled out.
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::NoPrefetch => "no-prefetch".into(),
            SchemeSpec::Fdip => "fdip".into(),
            SchemeSpec::Boomerang { btb_entries: 2048 } => "boomerang".into(),
            SchemeSpec::Boomerang { btb_entries } => format!("boomerang-{btb_entries}"),
            SchemeSpec::Confluence => "confluence".into(),
            SchemeSpec::Ideal => "ideal".into(),
            SchemeSpec::Shotgun(cfg) if *cfg == ShotgunConfig::default() => "shotgun".into(),
            SchemeSpec::Shotgun(cfg) => {
                let mut label = String::from("shotgun");
                // The sizing a default-budget config would have under
                // this policy (NoBitVector legitimately grows the
                // U-BTB; anything else is a bespoke sizing).
                let mut expected = ShotgunConfig::default().sizing;
                if cfg.policy == RegionPolicy::NoBitVector {
                    expected.ubtb = fe_model::storage::no_bit_vector_entries(expected.ubtb);
                }
                if cfg.sizing != expected {
                    label.push_str(&format!(
                        "-{}u{}c{}r",
                        cfg.sizing.ubtb, cfg.sizing.cbtb, cfg.sizing.rib
                    ));
                }
                if cfg.policy != RegionPolicy::Bit8 {
                    label.push_str(&format!("-{}", cfg.policy.label()));
                }
                let default = ShotgunConfig::default();
                if cfg.ways != default.ways {
                    label.push_str(&format!("-{}w", cfg.ways));
                }
                if cfg.prefetch_buffer != default.prefetch_buffer {
                    label.push_str(&format!("-pb{}", cfg.prefetch_buffer));
                }
                label
            }
        }
    }

    /// Instantiates the scheme for a machine configuration.
    pub fn build(&self, machine: &MachineConfig) -> EngineScheme {
        let ways = machine.front_end.btb_ways as usize;
        match self {
            SchemeSpec::NoPrefetch => EngineScheme::real(NoPrefetch::new(
                machine.front_end.btb_entries as usize,
                ways,
            )),
            SchemeSpec::Fdip => {
                EngineScheme::real(Fdip::new(machine.front_end.btb_entries as usize, ways))
            }
            SchemeSpec::Boomerang { btb_entries } => EngineScheme::real(Boomerang::new(
                *btb_entries as usize,
                ways,
                machine.front_end.btb_prefetch_buffer as usize,
            )),
            SchemeSpec::Confluence => {
                EngineScheme::real(Confluence::new(ConfluenceConfig::default()))
            }
            SchemeSpec::Ideal => EngineScheme::Ideal,
            SchemeSpec::Shotgun(cfg) => EngineScheme::real(ShotgunPrefetcher::new(
                *cfg,
                machine.front_end.ras_entries as usize,
            )),
        }
    }
}

/// How long to warm up and measure, in instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLength {
    /// Instructions executed before measurement starts (cache, BTB and
    /// predictor warmup — the paper's checkpoint warming, §5.1).
    pub warmup: u64,
    /// Instructions measured.
    pub measure: u64,
}

impl RunLength {
    /// Default experiment length: 3M warmup + 12M measured.
    pub const DEFAULT: RunLength = RunLength {
        warmup: 3_000_000,
        measure: 12_000_000,
    };

    /// Short length for tests.
    pub const SMOKE: RunLength = RunLength {
        warmup: 200_000,
        measure: 500_000,
    };

    /// Long run for sampled simulation: 5M warmup + 60M measured —
    /// enough intervals for a stable confidence interval at the default
    /// [`SamplingSpec`] without trace sizes
    /// getting out of hand.
    pub const LONG: RunLength = RunLength {
        warmup: 5_000_000,
        measure: 60_000_000,
    };

    /// Paper-scale run: 10M warmup + 200M measured instructions per
    /// cell (§5.1's order of magnitude) — practical only under
    /// [`Experiment::sampling`](crate::Experiment::sampling).
    pub const PAPER: RunLength = RunLength {
        warmup: 10_000_000,
        measure: 200_000_000,
    };

    /// Instructions a recorded trace must hold to replay a run of this
    /// length on `machine`: warmup + measure, plus the pipeline's
    /// bounded lookahead past the last retired instruction (the ideal
    /// BPU reads the oracle ahead of retirement, bounded by the FTQ
    /// and supply capacities) — every station that can hold a
    /// pulled-but-unretired block counted in worst-case maximum-size
    /// blocks, so a trace of this length can never run dry
    /// mid-simulation.
    pub fn trace_instrs(&self, machine: &MachineConfig) -> u64 {
        // Deliberately conservative, station by station: the FTQ (one
        // block per entry), the supply buffer (its instruction cap can
        // be all one-instruction blocks, plus a line of delivery
        // overshoot per fetch step), the blocks in flight through the
        // per-cycle stage throughputs (BPU prediction and fetch
        // delivery), the backend's current block and its oracle
        // read-ahead, and a margin for warmup retire-width overshoot
        // and anything a future stage buffers. Stacked maximum-width
        // blocks previously squeezed through the old additive slack;
        // every term here is a block count multiplied out by the
        // worst-case block width.
        let lookahead_blocks = machine.front_end.ftq_entries as u64
            + (SUPPLY_CAP + FETCH_LINES_PER_CYCLE as u64 * fe_model::LINE_INSTRS)
            + BPU_BLOCKS_PER_CYCLE as u64
            + FETCH_LINES_PER_CYCLE as u64
            + 2 // backend current block + fill_oracle_to(0) read-ahead
            + 32; // margin
        let max_block = fe_model::BasicBlock::MAX_INSTRS as u64;
        self.warmup
            + self.measure
            + machine.core.width as u64 * max_block
            + (lookahead_blocks + 1) * max_block
    }
}

/// Where a cell's retired control-flow stream comes from.
#[derive(Clone, Copy)]
pub enum CellSource<'a> {
    /// A live executor walk over the program.
    Live,
    /// Replay of a flat `fe-trace` recording.
    Trace(&'a Trace),
    /// Replay of a chunk-compressed v2 [`TraceStore`]: the same stream
    /// as [`CellSource::Trace`] over the same recording, but skips seek
    /// through the chunk index instead of decoding every record.
    Store(&'a TraceStore),
}

impl<'a> CellSource<'a> {
    /// The recording's header and what to call it in messages (`None`
    /// for a live walk).
    fn recording(&self) -> Option<(&'static str, &'a TraceHeader)> {
        match *self {
            CellSource::Live => None,
            CellSource::Trace(trace) => Some(("trace", trace.header())),
            CellSource::Store(store) => Some(("trace store", store.header())),
        }
    }

    /// Panics unless the recording was made from `program` with `seed`:
    /// replaying a mismatched stream would silently produce wrong
    /// timing.
    fn check(&self, program: &Program, seed: u64) {
        let Some((kind, header)) = self.recording() else {
            return;
        };
        assert_eq!(
            header.seed, seed,
            "{kind} `{}` was recorded with a different seed",
            header.name,
        );
        assert!(
            header.fingerprint == ProgramFingerprint::of(program),
            "{kind} `{}` was recorded against a different program",
            header.name,
        );
    }

    /// A fresh reader at the start of the stream.
    fn open(&self, program: &'a Program, seed: u64) -> SourceKind<'a> {
        match *self {
            CellSource::Live => Executor::new(program, seed).into(),
            CellSource::Trace(trace) => trace.replayer().into(),
            CellSource::Store(store) => store.replayer().into(),
        }
    }

    /// What the messages call this source.
    fn describe(&self) -> String {
        match self.recording() {
            Some((kind, header)) => format!("{kind} `{}`", header.name),
            None => "live walk".into(),
        }
    }
}

/// How long, and in which mode, every cell of a [`run_cells`] call runs.
#[derive(Clone, Copy)]
pub struct CellRun {
    /// Warmup and measured instructions.
    pub len: RunLength,
    /// Interval sampling with functional warming (see [`SamplingSpec`]
    /// and the `sampling` module docs); `None` runs full detail.
    pub sampling: Option<SamplingSpec>,
    /// Runs the cells with the accelerations (TAGE fold scratch,
    /// quiet-span skip) off: the reference the accelerated cells are
    /// checked against. Statistics are bit-identical either way.
    pub reference: bool,
}

impl CellRun {
    /// Full detail: `len.warmup` timed but unmeasured, then `len.measure`
    /// measured.
    pub fn full(len: RunLength) -> Self {
        CellRun {
            len,
            sampling: None,
            reference: false,
        }
    }

    /// Sampled: `len.warmup` functionally warmed, then `len.measure`
    /// covered by `spec`-shaped intervals.
    pub fn sampled(len: RunLength, spec: SamplingSpec) -> Self {
        CellRun {
            sampling: Some(spec),
            ..CellRun::full(len)
        }
    }

    /// Checks the run can measure anything: a valid sampling shape
    /// whose detail window fits `len.measure` once. The one owner of
    /// these rules; [`run_cells`] panics with the message and
    /// [`Experiment::check`](crate::Experiment::check) returns it.
    pub(crate) fn check(&self) -> Result<(), String> {
        let Some(spec) = self.sampling else {
            return Ok(());
        };
        spec.validate()
            .map_err(|e| format!("invalid sampling spec: {e}"))?;
        if self.len.measure < spec.detail {
            return Err(format!(
                "sampled run measures {} instructions — too short for even one \
                 {}-instruction detail window (shrink the spec or run full detail)",
                self.len.measure, spec.detail,
            ));
        }
        Ok(())
    }
}

/// One cell's result from [`run_cells`].
#[derive(Clone, Debug)]
pub struct CellStats {
    /// The measured statistics (the aggregate over intervals when
    /// sampled).
    pub stats: SimStats,
    /// Every measured interval, when the cell ran sampled.
    pub sampled: Option<SampledStats>,
    /// Cycles the quiet-span skip fast-forwarded while the supply was
    /// empty (redirect bubbles, I-miss shadows), over the whole run.
    /// Zero for a reference cell.
    pub starved_cycles_skipped: u64,
    /// Cycles the quiet-span skip fast-forwarded behind an aged data
    /// miss, over the whole run. Zero for a reference cell.
    pub data_stall_cycles_skipped: u64,
}

/// Equality covers the statistics: the skip counts say how the cell
/// was simulated, not what it measured, so an accelerated cell equals
/// its reference.
impl PartialEq for CellStats {
    fn eq(&self, other: &Self) -> bool {
        self.stats == other.stats && self.sampled == other.sampled
    }
}

/// Runs each scheme in `specs` over `program`, fed from `source`;
/// results come back in `specs` order.
///
/// Every cell runs alone over its own reader of `source`, so sampled
/// fast-forwards seek through the replayer or store. A full-detail cell
/// is [`Simulator::run`]; a sampled one is the interval loop of the
/// [`sampling`](crate::sampling) module. The statistics are identical
/// across sources over the same `(program, seed)` stream.
///
/// Cells run with the accelerations armed unless `run.reference` is
/// set: the TAGE fold scratch (`Tage::enable_fold_scratch` in
/// `fe-uarch`, O(1) folded-history maintenance instead of per-lookup
/// folding) and quiescent-span skipping (bulk-accounting stretches
/// where every stage is provably inert). Both are bit-identical by
/// construction; a reference cell leaves them off and is what
/// `tests/batch_engine.rs` checks the accelerated cells against, byte
/// for byte.
///
/// `seed` seeds the live walk and the backend's load RNG (the data
/// side is not part of a recording), so a recording must be replayed
/// with the seed it was recorded with.
///
/// # Panics
///
/// Panics if a recording was not made from `program` with `seed`, if it
/// runs dry before a cell completes (record at least
/// [`RunLength::trace_instrs`] instructions), or if `run.sampling` is
/// invalid or cannot fit one detail window in `run.len.measure`.
pub fn run_cells<'a>(
    program: &'a Program,
    source: CellSource<'a>,
    specs: &[SchemeSpec],
    machine: &MachineConfig,
    run: CellRun,
    seed: u64,
) -> Vec<CellStats> {
    if let Err(e) = run.check() {
        // audit-allow(no-unchecked-panic): entry-point contract — an unrunnable cell shape is a caller bug, not a runtime condition; Experiment::check is the typed path
        panic!("{e}");
    }
    source.check(program, seed);
    specs
        .iter()
        .map(|spec| {
            let scheme = spec.build(machine);
            let stream = source.open(program, seed);
            let mut sim = Simulator::with_source(program, machine.clone(), scheme, seed, stream);
            if !run.reference {
                sim.enable_accel();
            }
            let (stats, sampled) = match run.sampling {
                None => (sim.run(run.len.warmup, run.len.measure), None),
                Some(spec) => {
                    let sampled = sim.run_sampled(run.len, spec);
                    (sampled.aggregate(), Some(sampled))
                }
            };
            assert!(
                !sim.source_exhausted(),
                "{} ran dry mid-run of `{}` — record at least \
                 RunLength::trace_instrs instructions",
                source.describe(),
                spec.label(),
            );
            CellStats {
                stats,
                sampled,
                starved_cycles_skipped: sim.starved_cycles_skipped,
                data_stall_cycles_skipped: sim.data_stall_cycles_skipped,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cfg::workloads;

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

    #[test]
    fn distinct_shotgun_configs_get_distinct_labels() {
        let specs = [
            SchemeSpec::shotgun(),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_cbtb_entries(64)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_cbtb_entries(1024)),
            SchemeSpec::Shotgun(ShotgunConfig::for_budget(512)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(RegionPolicy::NoBitVector)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(RegionPolicy::FiveBlocks)),
            SchemeSpec::Shotgun(ShotgunConfig {
                ways: 8,
                ..ShotgunConfig::default()
            }),
            SchemeSpec::Shotgun(ShotgunConfig {
                prefetch_buffer: 64,
                ..ShotgunConfig::default()
            }),
        ];
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l), "duplicate label {l}");
        }
    }

    #[test]
    fn mismatched_recordings_panic_with_their_named_message() {
        let machine = MachineConfig::table3();
        let len = RunLength {
            warmup: 1_000,
            measure: 2_000,
        };
        let program = workloads::nutch().scaled(0.05).build();
        let other = workloads::zeus().scaled(0.05).build();
        let instrs = len.trace_instrs(&machine);
        let other_seed = Trace::record(&program, 8, instrs);
        let other_program = Trace::record(&other, 7, instrs);
        let seed_store = TraceStore::from_trace(&other_seed, "test");
        let program_store = TraceStore::from_trace(&other_program, "test");
        let cases = [
            (
                CellSource::Trace(&other_seed),
                "trace `nutch` was recorded with a different seed",
            ),
            (
                CellSource::Trace(&other_program),
                "trace `zeus` was recorded against a different program",
            ),
            (
                CellSource::Store(&seed_store),
                "trace store `nutch` was recorded with a different seed",
            ),
            (
                CellSource::Store(&program_store),
                "trace store `zeus` was recorded against a different program",
            ),
        ];
        let one = [SchemeSpec::NoPrefetch];
        let several = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
        for (source, expected) in cases {
            for specs in [&one[..], &several[..]] {
                let run = CellRun::full(len);
                let panic = std::panic::catch_unwind(|| {
                    run_cells(&program, source, specs, &machine, run, 7)
                })
                .expect_err("a mismatched recording must not replay");
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(
                    message.contains(expected),
                    "{} cell(s): expected `{expected}`, got `{message}`",
                    specs.len(),
                );
            }
        }
    }

    #[test]
    fn canonical_configs_keep_short_labels() {
        assert_eq!(SchemeSpec::shotgun().label(), "shotgun");
        assert_eq!(
            SchemeSpec::Shotgun(ShotgunConfig::for_budget(2048)).label(),
            "shotgun"
        );
        assert_eq!(SchemeSpec::boomerang().label(), "boomerang");
        assert_eq!(
            SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(RegionPolicy::NoBitVector))
                .label(),
            "shotgun-No bit vector",
            "policy-only variants keep the figure labels"
        );
    }
}
