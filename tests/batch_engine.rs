//! Accelerated-vs-reference equivalence: sweeps run with the
//! accelerations on (TAGE fold scratch, quiet-span skip — the default,
//! `Experiment::batch(true)`) must be *byte-identical* to sweeps run
//! with them off (`batch(false)`, the reference) at the report level —
//! same `SweepReport` JSON, cell for cell — across workloads, scheme
//! sets, seeds, thread counts and run shapes. These tests are what
//! licenses running every cell accelerated by default.

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_sim::{Experiment, RunLength, SamplingSpec, SchemeSpec, SweepReport};
use proptest::prelude::*;

/// Short but non-trivial: long enough to cross redirects, i-cache
/// misses, and (sampled) several intervals in every workload.
const LEN: RunLength = RunLength {
    warmup: 30_000,
    measure: 90_000,
};

fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::NoPrefetch,
        SchemeSpec::Fdip,
        SchemeSpec::boomerang(),
        SchemeSpec::Confluence,
        SchemeSpec::Ideal,
        SchemeSpec::shotgun(),
    ]
}

fn sweep(batch: bool, schemes: Vec<SchemeSpec>, seed: u64) -> SweepReport {
    Experiment::new(MachineConfig::table3())
        .workloads(workloads::all().into_iter().map(|w| w.scaled(0.1)))
        .schemes(schemes)
        .len(LEN)
        .seed(seed)
        .threads(3)
        .batch(batch)
        .run()
}

#[test]
fn batch_report_is_byte_identical_across_all_named_workloads_and_schemes() {
    let accelerated = sweep(true, all_schemes(), 0x5407);
    let reference = sweep(false, all_schemes(), 0x5407);
    assert_eq!(
        accelerated.to_json(),
        reference.to_json(),
        "accelerated and reference sweeps must serialize to identical bytes"
    );
}

#[test]
fn sampled_batch_report_is_byte_identical() {
    let spec = SamplingSpec {
        interval: 30_000,
        detail: 6_000,
        warmup: 8_000,
    };
    let run = |batch: bool| {
        Experiment::new(MachineConfig::table3())
            .workloads([
                workloads::zeus().scaled(0.15),
                workloads::nutch().scaled(0.15),
            ])
            .schemes([
                SchemeSpec::NoPrefetch,
                SchemeSpec::boomerang(),
                SchemeSpec::shotgun(),
            ])
            .len(RunLength {
                warmup: 40_000,
                measure: 150_000,
            })
            .sampling(spec)
            .seed(11)
            .threads(2)
            .batch(batch)
            .run()
    };
    assert_eq!(
        run(true).to_json(),
        run(false).to_json(),
        "sampled accelerated and reference sweeps must serialize to identical bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identity must hold for *any* sweep: random workload,
    /// random scheme subset (one scheme up to the full set), random
    /// seed.
    #[test]
    fn random_cell_groups_batch_byte_identically(
        which in 0usize..6,
        subset in 1u32..64,
        seed in 1u64..1 << 40,
    ) {
        let schemes: Vec<SchemeSpec> = all_schemes()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| subset & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect();
        let all = workloads::all();
        let wl = all[which % all.len()].clone().scaled(0.08);
        let run = |batch: bool| {
            Experiment::new(MachineConfig::table3())
                .workload(wl.clone())
                .schemes(schemes.clone())
                .len(RunLength { warmup: 15_000, measure: 45_000 })
                .seed(seed)
                .threads(2)
                .batch(batch)
                .run()
                .to_json()
        };
        prop_assert_eq!(run(true), run(false));
    }
}

/// One workload's cells: fewer workloads than threads, so the threads
/// share the workload's cells.
fn lone_workload(threads: usize, batch: bool) -> Experiment {
    Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.1))
        .schemes(all_schemes().into_iter().take(5))
        .len(LEN)
        .seed(0x5407)
        .threads(threads)
        .batch(batch)
}

#[test]
fn lone_workload_report_is_byte_identical_however_its_cells_are_grouped() {
    let reference = lone_workload(1, false).run().to_json();
    for threads in [1, 2, 4] {
        for batch in [true, false] {
            assert_eq!(
                lone_workload(threads, batch).run().to_json(),
                reference,
                "threads({threads}), batch({batch}) must match the one-thread reference"
            );
        }
    }
}

#[test]
fn accelerated_sweep_counts_its_skips_and_the_reference_counts_none() {
    let accelerated = lone_workload(2, true).run();
    let reference = lone_workload(2, false).run();
    assert_eq!(
        accelerated.to_json(),
        reference.to_json(),
        "accelerated and reference sweeps must serialize to identical bytes"
    );
    let on = accelerated.counters();
    assert!(on.starved_cycles_skipped > 0, "{on:?}");
    assert!(on.data_stall_cycles_skipped > 0, "{on:?}");
    let off = reference.counters();
    assert_eq!(off.starved_cycles_skipped, 0, "{off:?}");
    assert_eq!(off.data_stall_cycles_skipped, 0, "{off:?}");
}
