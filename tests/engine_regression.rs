//! Pipeline-refactor regression gate: the staged engine must be
//! *bit-identical* to the pre-refactor monolithic `Simulator::run`
//! loop. The fixture was emitted by the monolith for a pinned
//! (workload, schemes, length, seed) cell; any change to stage
//! ordering, stall accounting, RNG streams, or JSON shape shows up as
//! a byte diff here.

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_sim::{
    run_cells, CellRun, CellSource, Experiment, RunLength, SamplingSpec, SchemeSpec, SweepReport,
};
use fe_trace::{Trace, TraceStore};
use proptest::prelude::*;

const PINNED: &str = include_str!("fixtures/pinned_nutch_smoke.json");

fn pinned_report() -> SweepReport {
    Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch())
        .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
        .len(RunLength::SMOKE)
        .seed(0x5407)
        .threads(1)
        .run()
}

#[test]
fn refactored_pipeline_reproduces_pre_refactor_json_bytes() {
    // The fixture was emitted by the live (pre-trace-layer) engine, so
    // this byte comparison also pins record-once/replay-many sweeps to
    // live execution: `Experiment` now records each workload's stream
    // and replays it into every cell.
    let report = pinned_report();
    assert_eq!(
        report.to_json(),
        PINNED,
        "staged pipeline diverged from the pre-refactor engine on the pinned cell"
    );
}

#[test]
fn replayed_sweep_cells_match_live_execution_for_every_workload() {
    // Replay fidelity across the whole named suite: every cell of a
    // trace-driven sweep must carry statistics bit-identical to a live
    // per-cell simulation — identical stats derive identical metrics,
    // so the `SweepReport` JSON is byte-identical to what live
    // execution would emit (the fixture test above pins the bytes
    // themselves on the pinned cell).
    let machine = MachineConfig::table3();
    let len = RunLength {
        warmup: 25_000,
        measure: 60_000,
    };
    let schemes = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
    let specs: Vec<_> = workloads::all()
        .into_iter()
        .map(|w| w.scaled(0.04))
        .collect();
    let report = Experiment::new(machine.clone())
        .workloads(specs.clone())
        .schemes(schemes.clone())
        .len(len)
        .seed(0x5407)
        .run();
    for wl in &specs {
        let program = wl.build();
        for scheme in &schemes {
            let run = CellRun::full(len);
            let live = run_cells(
                &program,
                CellSource::Live,
                std::slice::from_ref(scheme),
                &machine,
                run,
                0x5407,
            );
            assert_eq!(
                report.cell(&wl.name, scheme).stats,
                live[0].stats,
                "replayed cell ({}, {}) diverged from live execution",
                wl.name,
                scheme.label(),
            );
        }
    }
}

#[test]
fn sampled_sweep_json_is_reproducible_on_the_devirtualized_path() {
    // A sampled sweep exercises the enum dispatch through the
    // functional-warming path too (`warm_block`, seekable skips); its
    // report must stay byte-identical across runs and thread counts.
    let spec = SamplingSpec {
        interval: 60_000,
        detail: 10_000,
        warmup: 10_000,
    };
    let sweep = |threads: usize| {
        Experiment::new(MachineConfig::table3())
            .workload(workloads::nutch().scaled(0.05))
            .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
            .len(RunLength {
                warmup: 40_000,
                measure: 240_000,
            })
            .sampling(spec)
            .seed(0x5407)
            .threads(threads)
            .run()
            .to_json()
    };
    let single = sweep(1);
    assert_eq!(single, sweep(8), "sampled sweep must be thread-invariant");
    assert!(single.contains("\"sampling\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A live walk, its flat recording and its chunked store feed the
    /// pipeline the same stream, so every source gives identical
    /// statistics for a random (workload, scheme, seed) cell.
    #[test]
    fn every_cell_source_gives_identical_stats(
        which_wl in 0usize..6,
        which_scheme in 0usize..6,
        seed in 1u64..1 << 40,
    ) {
        let machine = MachineConfig::table3();
        let run = CellRun::full(RunLength {
            warmup: 10_000,
            measure: 30_000,
        });
        let all = workloads::all();
        let program = all[which_wl % all.len()].clone().scaled(0.04).build();
        let trace = Trace::record(&program, seed, run.len.trace_instrs(&machine));
        let store = TraceStore::from_trace_with(&trace, "parity", 256);
        let spec = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::Fdip,
            SchemeSpec::boomerang(),
            SchemeSpec::Confluence,
            SchemeSpec::Ideal,
            SchemeSpec::shotgun(),
        ][which_scheme % 6]
            .clone();
        let specs = std::slice::from_ref(&spec);
        let cell = |source| run_cells(&program, source, specs, &machine, run, seed);
        let live = cell(CellSource::Live);
        prop_assert_eq!(
            &cell(CellSource::Trace(&trace)),
            &live,
            "({}, {}): trace replay diverged from the live walk",
            program.name(),
            spec.label(),
        );
        prop_assert_eq!(
            &cell(CellSource::Store(&store)),
            &live,
            "({}, {}): store replay diverged from the live walk",
            program.name(),
            spec.label(),
        );
    }
}

#[test]
fn fixture_parses_and_round_trips() {
    let parsed = SweepReport::from_json(PINNED).expect("fixture must stay parseable");
    assert_eq!(parsed.to_json(), PINNED);
    assert!(
        parsed
            .cell("nutch", &SchemeSpec::shotgun())
            .metrics
            .speedup
            .is_some(),
        "pinned cell carries derived metrics"
    );
}
